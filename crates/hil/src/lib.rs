//! `bolted-hil` — the Hardware Isolation Layer.
//!
//! HIL is the **only provider-deployed component in Bolted's TCB**, and
//! the paper's defence of that claim is its size ("approximately 3000
//! LOC"). This crate is kept correspondingly minimal: it does node
//! allocation, network (VLAN) allocation, port↔network attachment on the
//! provider's switches, BMC power operations, and acts as the provider's
//! source of truth for per-node TPM identity (EK) and the platform PCR
//! whitelist. Nothing else — provisioning and attestation live in
//! tenant-deployable crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bolted_sim::lock;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use bolted_crypto::rsa::PublicKey;
use bolted_crypto::sha256::Digest;
use bolted_net::{Fabric, HostId, NetError, SwitchId, VlanId};
use bolted_sim::Metrics;

/// A tenant project (HIL's unit of ownership).
pub type Project = String;

/// Handle to a registered node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Handle to an allocated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetworkId(pub usize);

/// Out-of-band power control HIL exposes per node (the BMC). Implemented
/// by the firmware machine model; HIL itself never touches node software.
/// BMCs sit on a management network of their own and do fail — commands
/// can be lost or rejected, so every operation is fallible and callers
/// are expected to retry.
pub trait BmcOps: Send + Sync {
    /// Powers the node on (firmware will POST).
    fn power_on(&self) -> Result<(), BmcError>;
    /// Hard power-off.
    fn power_off(&self) -> Result<(), BmcError>;
    /// Power cycle — the only way firmware can be re-entered, and thus
    /// the only way control can change hands (§5).
    fn power_cycle(&self) -> Result<(), BmcError>;
}

/// Errors from BMC power operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BmcError {
    /// The BMC did not answer (management network drop, controller hung).
    Unreachable,
    /// The BMC answered but refused or botched the command.
    CommandFailed,
}

impl std::fmt::Display for BmcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BmcError::Unreachable => write!(f, "BMC unreachable"),
            BmcError::CommandFailed => write!(f, "BMC command failed"),
        }
    }
}

impl std::error::Error for BmcError {}

/// Errors from HIL operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HilError {
    /// Caller does not own the node/network.
    NotOwner,
    /// No such node.
    NoSuchNode,
    /// No such network.
    NoSuchNetwork,
    /// Node is already allocated.
    NodeBusy,
    /// The VLAN pool is exhausted.
    NoFreeVlans,
    /// The project hit its per-project network quota. Distinct from
    /// [`HilError::NoFreeVlans`]: quota protects the *shared* pool from
    /// one tenant, so other tenants keep allocating when a hostile
    /// project hits this.
    QuotaExceeded,
    /// Underlying switch operation failed.
    Switch(NetError),
    /// Underlying BMC operation failed.
    Bmc(BmcError),
}

impl std::fmt::Display for HilError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HilError::NotOwner => write!(f, "caller does not own this resource"),
            HilError::NoSuchNode => write!(f, "no such node"),
            HilError::NoSuchNetwork => write!(f, "no such network"),
            HilError::NodeBusy => write!(f, "node already allocated"),
            HilError::NoFreeVlans => write!(f, "VLAN pool exhausted"),
            HilError::QuotaExceeded => write!(f, "per-project network quota exceeded"),
            HilError::Switch(e) => write!(f, "switch error: {e}"),
            HilError::Bmc(e) => write!(f, "BMC error: {e}"),
        }
    }
}

impl std::error::Error for HilError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HilError::Switch(e) => Some(e),
            HilError::Bmc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for HilError {
    fn from(e: NetError) -> Self {
        HilError::Switch(e)
    }
}

impl From<BmcError> for HilError {
    fn from(e: BmcError) -> Self {
        HilError::Bmc(e)
    }
}

/// Provider-published metadata for one node (§5: HIL "maps each server's
/// HIL identity to a TPM identity by exporting the TPM's public EK" and
/// "exposes the provider-generated whitelist of TPM PCR measurements").
#[derive(Clone)]
pub struct NodeMetadata {
    /// The node's TPM Endorsement Key (public half).
    pub ek_pub: Option<PublicKey>,
    /// Approved platform firmware PCR-0 values (e.g. the vendor UEFI
    /// measurement that precedes LinuxBoot when flash can't be replaced).
    pub platform_whitelist: Vec<Digest>,
    /// Free-form admin metadata.
    pub extra: HashMap<String, String>,
}

struct Node {
    name: String,
    host: HostId,
    switch: SwitchId,
    port: usize,
    owner: Option<Project>,
    bmc: Option<Arc<dyn BmcOps>>,
    metadata: NodeMetadata,
}

struct Network {
    name: String,
    vlan: VlanId,
    owner: Project,
}

struct HilInner {
    nodes: Vec<Node>,
    networks: Vec<Option<Network>>,
    vlan_pool: Vec<VlanId>,
    /// Per-project cap on live networks; `None` is unlimited (the
    /// historical behaviour).
    network_quota: Option<usize>,
    audit: Vec<String>,
}

/// The Hardware Isolation Layer service.
#[derive(Clone)]
pub struct Hil {
    fabric: Fabric,
    /// Counters and gauges only: HIL is sim-free (minimal TCB), so it
    /// never records timings.
    metrics: Metrics,
    inner: Arc<Mutex<HilInner>>,
}

impl Hil {
    /// Creates a HIL instance managing `fabric`, with a VLAN pool. Every
    /// audited operation is counted into `metrics` as `hil_ops{op=..}`
    /// and the free pool is mirrored into the `hil_free_nodes` gauge.
    pub fn new(fabric: &Fabric, metrics: &Metrics) -> Self {
        Hil {
            fabric: fabric.clone(),
            metrics: metrics.clone(),
            inner: Arc::new(Mutex::new(HilInner {
                nodes: Vec::new(),
                networks: Vec::new(),
                vlan_pool: (100..1100).rev().collect(),
                network_quota: None,
                audit: Vec::new(),
            })),
        }
    }

    fn log(&self, entry: String) {
        lock(&self.inner).audit.push(entry);
    }

    /// Counts one completed operation (called next to the audit log, so
    /// counters and log always agree).
    fn count(&self, op: &str) {
        self.metrics.inc("hil_ops", &[("op", op)]);
    }

    fn update_free_gauge(&self) {
        if !self.metrics.is_enabled() {
            return;
        }
        let inner = lock(&self.inner);
        let free = inner.nodes.iter().filter(|n| n.owner.is_none()).count();
        self.metrics.set_gauge("hil_free_nodes", &[], free as f64);
    }

    /// The audit log (every privileged operation, in order).
    pub fn audit_log(&self) -> Vec<String> {
        lock(&self.inner).audit.clone()
    }

    // -- provider (admin) operations --------------------------------------

    /// Registers a physical node: its NIC, switch port, and BMC handle.
    pub fn register_node(
        &self,
        name: impl Into<String>,
        host: HostId,
        switch: SwitchId,
        port: usize,
        bmc: Option<Arc<dyn BmcOps>>,
    ) -> NodeId {
        let name = name.into();
        let mut inner = lock(&self.inner);
        let id = NodeId(inner.nodes.len());
        inner.nodes.push(Node {
            name: name.clone(),
            host,
            switch,
            port,
            owner: None,
            bmc,
            metadata: NodeMetadata {
                ek_pub: None,
                platform_whitelist: Vec::new(),
                extra: HashMap::new(),
            },
        });
        drop(inner);
        self.log(format!("register node {name}"));
        self.count("register_node");
        self.update_free_gauge();
        id
    }

    /// Publishes a node's TPM EK (admin-modifiable metadata).
    pub fn set_node_ek(&self, node: NodeId, ek: PublicKey) -> Result<(), HilError> {
        let mut inner = lock(&self.inner);
        let n = inner.nodes.get_mut(node.0).ok_or(HilError::NoSuchNode)?;
        n.metadata.ek_pub = Some(ek);
        Ok(())
    }

    /// Publishes the provider's platform firmware whitelist for a node.
    pub fn set_platform_whitelist(
        &self,
        node: NodeId,
        whitelist: Vec<Digest>,
    ) -> Result<(), HilError> {
        let mut inner = lock(&self.inner);
        let n = inner.nodes.get_mut(node.0).ok_or(HilError::NoSuchNode)?;
        n.metadata.platform_whitelist = whitelist;
        Ok(())
    }

    // -- tenant-visible reads ---------------------------------------------

    /// Reads a node's published metadata (any tenant may read this; it is
    /// how the tenant confirms "the server she received is indeed the one
    /// she reserved").
    pub fn node_metadata(&self, node: NodeId) -> Result<NodeMetadata, HilError> {
        Ok(lock(&self.inner)
            .nodes
            .get(node.0)
            .ok_or(HilError::NoSuchNode)?
            .metadata
            .clone())
    }

    /// The node's fabric NIC handle.
    pub fn node_host(&self, node: NodeId) -> Result<HostId, HilError> {
        Ok(lock(&self.inner)
            .nodes
            .get(node.0)
            .ok_or(HilError::NoSuchNode)?
            .host)
    }

    /// Node display name.
    pub fn node_name(&self, node: NodeId) -> Result<String, HilError> {
        Ok(lock(&self.inner)
            .nodes
            .get(node.0)
            .ok_or(HilError::NoSuchNode)?
            .name
            .clone())
    }

    /// Lists nodes in the free pool.
    pub fn free_nodes(&self) -> Vec<NodeId> {
        lock(&self.inner)
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.owner.is_none())
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    // -- tenant operations ---------------------------------------------------

    /// Allocates a specific free node to `project`.
    pub fn allocate_node(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        let mut inner = lock(&self.inner);
        let n = inner.nodes.get_mut(node.0).ok_or(HilError::NoSuchNode)?;
        if n.owner.is_some() {
            return Err(HilError::NodeBusy);
        }
        n.owner = Some(project.to_string());
        let name = n.name.clone();
        drop(inner);
        self.log(format!("allocate {name} -> {project}"));
        self.count("allocate_node");
        self.update_free_gauge();
        Ok(())
    }

    /// Releases a node: detaches it from all networks and returns it to
    /// the free pool. (Powering it down/cycling is the orchestration
    /// script's job via [`Hil::power_cycle`].)
    pub fn free_node(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.check_owner(project, node)?;
        let (switch, port, name) = {
            let mut inner = lock(&self.inner);
            // lint: allow(L1-index: check_owner above rejects ids this HIL
            // never minted)
            let n = &mut inner.nodes[node.0];
            n.owner = None;
            (n.switch, n.port, n.name.clone())
        };
        self.fabric.set_port_vlan(switch, port, None)?;
        self.log(format!("free {name} (was {project})"));
        self.count("free_node");
        self.update_free_gauge();
        Ok(())
    }

    /// Caps how many live networks any single project may hold; `None`
    /// removes the cap. The quota is what keeps a hostile tenant's
    /// create-network spam from exhausting the shared VLAN pool: the
    /// spammer hits [`HilError::QuotaExceeded`] while other projects
    /// keep drawing VLANs.
    pub fn set_network_quota(&self, quota: Option<usize>) {
        lock(&self.inner).network_quota = quota;
    }

    /// How many VLANs remain in the shared provider pool.
    pub fn free_vlans(&self) -> usize {
        lock(&self.inner).vlan_pool.len()
    }

    /// Creates an isolated network for a project, drawing a VLAN from the
    /// provider pool.
    pub fn create_network(
        &self,
        project: &str,
        name: impl Into<String>,
    ) -> Result<NetworkId, HilError> {
        let name = name.into();
        let mut inner = lock(&self.inner);
        if let Some(quota) = inner.network_quota {
            let live = inner
                .networks
                .iter()
                .flatten()
                .filter(|n| n.owner == project)
                .count();
            if live >= quota {
                return Err(HilError::QuotaExceeded);
            }
        }
        let vlan = inner.vlan_pool.pop().ok_or(HilError::NoFreeVlans)?;
        let id = NetworkId(inner.networks.len());
        inner.networks.push(Some(Network {
            name: name.clone(),
            vlan,
            owner: project.to_string(),
        }));
        drop(inner);
        self.log(format!("create network {name} ({project}, vlan {vlan})"));
        self.count("create_network");
        Ok(id)
    }

    /// Deletes a network, returning its VLAN to the pool.
    pub fn delete_network(&self, project: &str, net: NetworkId) -> Result<(), HilError> {
        let mut inner = lock(&self.inner);
        let slot = inner
            .networks
            .get_mut(net.0)
            .ok_or(HilError::NoSuchNetwork)?;
        match slot {
            Some(n) if n.owner == project => {
                let vlan = n.vlan;
                let name = n.name.clone();
                *slot = None;
                inner.vlan_pool.push(vlan);
                drop(inner);
                self.log(format!("delete network {name}"));
                self.count("delete_network");
                Ok(())
            }
            Some(_) => Err(HilError::NotOwner),
            None => Err(HilError::NoSuchNetwork),
        }
    }

    /// The VLAN id backing a network (visible to its owner).
    pub fn network_vlan(&self, project: &str, net: NetworkId) -> Result<VlanId, HilError> {
        let inner = lock(&self.inner);
        match inner.networks.get(net.0) {
            Some(Some(n)) if n.owner == project => Ok(n.vlan),
            Some(Some(_)) => Err(HilError::NotOwner),
            _ => Err(HilError::NoSuchNetwork),
        }
    }

    /// Connects a node's port to a project network (the airlock move, the
    /// enclave move — every state transition in Figure 1 is this call).
    pub fn connect_node(
        &self,
        project: &str,
        node: NodeId,
        net: NetworkId,
    ) -> Result<(), HilError> {
        self.check_owner(project, node)?;
        let vlan = self.network_vlan(project, net)?;
        let (switch, port, name) = {
            let inner = lock(&self.inner);
            // lint: allow(L1-index: check_owner above rejects ids this HIL
            // never minted)
            let n = &inner.nodes[node.0];
            (n.switch, n.port, n.name.clone())
        };
        self.fabric.set_port_vlan(switch, port, Some(vlan))?;
        self.log(format!("connect {name} -> vlan {vlan}"));
        self.count("connect_node");
        Ok(())
    }

    /// Detaches a node from whatever network it is on.
    pub fn detach_node(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.check_owner(project, node)?;
        let (switch, port, name) = {
            let inner = lock(&self.inner);
            // lint: allow(L1-index: check_owner above rejects ids this HIL
            // never minted)
            let n = &inner.nodes[node.0];
            (n.switch, n.port, n.name.clone())
        };
        self.fabric.set_port_vlan(switch, port, None)?;
        self.log(format!("detach {name}"));
        self.count("detach_node");
        Ok(())
    }

    /// BMC power-cycle (tenant-triggerable for owned nodes; HIL mediates
    /// so tenants can never reach the BMC network directly).
    pub fn power_cycle(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.check_owner(project, node)?;
        // lint: allow(L1-index: check_owner above rejects ids this HIL
        // never minted)
        let bmc = lock(&self.inner).nodes[node.0].bmc.clone();
        if let Some(bmc) = bmc {
            bmc.power_cycle()?;
        }
        self.log(format!("power-cycle node {}", node.0));
        self.count("power_cycle");
        Ok(())
    }

    /// BMC power-off.
    pub fn power_off(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.check_owner(project, node)?;
        // lint: allow(L1-index: check_owner above rejects ids this HIL
        // never minted)
        let bmc = lock(&self.inner).nodes[node.0].bmc.clone();
        if let Some(bmc) = bmc {
            bmc.power_off()?;
        }
        self.log(format!("power-off node {}", node.0));
        self.count("power_off");
        Ok(())
    }

    fn check_owner(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        let inner = lock(&self.inner);
        let n = inner.nodes.get(node.0).ok_or(HilError::NoSuchNode)?;
        match &n.owner {
            Some(p) if p == project => Ok(()),
            _ => Err(HilError::NotOwner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolted_net::LinkModel;
    use bolted_sim::{OpGate, Sim};

    fn setup() -> (Sim, Fabric, Hil, NodeId, NodeId) {
        let sim = Sim::new();
        let fabric = Fabric::new(&sim, &OpGate::disabled());
        let sw = fabric.add_switch("tor", 48);
        let hil = Hil::new(&fabric, &Metrics::disabled());
        let h1 = fabric.add_host("n1", LinkModel::ten_gbe());
        let h2 = fabric.add_host("n2", LinkModel::ten_gbe());
        fabric.attach(h1, sw, 0).expect("attach");
        fabric.attach(h2, sw, 1).expect("attach");
        let n1 = hil.register_node("n1", h1, sw, 0, None);
        let n2 = hil.register_node("n2", h2, sw, 1, None);
        (sim, fabric, hil, n1, n2)
    }

    #[test]
    fn allocation_lifecycle() {
        let (_sim, _fabric, hil, n1, n2) = setup();
        assert_eq!(hil.free_nodes(), vec![n1, n2]);
        hil.allocate_node("charlie", n1).expect("allocates");
        assert_eq!(hil.free_nodes(), vec![n2]);
        assert_eq!(hil.allocate_node("alice", n1), Err(HilError::NodeBusy));
        hil.free_node("charlie", n1).expect("frees");
        assert_eq!(hil.free_nodes(), vec![n1, n2]);
    }

    #[test]
    fn ownership_enforced() {
        let (_sim, _fabric, hil, n1, _n2) = setup();
        hil.allocate_node("charlie", n1).expect("allocates");
        assert_eq!(hil.free_node("alice", n1), Err(HilError::NotOwner));
        let net = hil.create_network("alice", "a-net").expect("creates");
        assert_eq!(
            hil.connect_node("alice", n1, net),
            Err(HilError::NotOwner),
            "alice cannot attach charlie's node"
        );
        assert_eq!(
            hil.network_vlan("charlie", net),
            Err(HilError::NotOwner),
            "charlie cannot read alice's network"
        );
    }

    #[test]
    fn connect_node_programs_the_switch() {
        let (_sim, fabric, hil, n1, n2) = setup();
        hil.allocate_node("charlie", n1).expect("allocates");
        hil.allocate_node("charlie", n2).expect("allocates");
        let net = hil.create_network("charlie", "enclave").expect("creates");
        hil.connect_node("charlie", n1, net).expect("connects");
        hil.connect_node("charlie", n2, net).expect("connects");
        let h1 = hil.node_host(n1).expect("host");
        let h2 = hil.node_host(n2).expect("host");
        assert!(fabric.path(h1, h2).is_ok(), "same enclave can talk");
        hil.detach_node("charlie", n1).expect("detaches");
        assert!(fabric.path(h1, h2).is_err(), "detached node is isolated");
    }

    #[test]
    fn free_node_isolates_port() {
        let (_sim, fabric, hil, n1, n2) = setup();
        hil.allocate_node("charlie", n1).expect("allocates");
        hil.allocate_node("charlie", n2).expect("allocates");
        let net = hil.create_network("charlie", "enclave").expect("creates");
        hil.connect_node("charlie", n1, net).expect("connects");
        hil.connect_node("charlie", n2, net).expect("connects");
        hil.free_node("charlie", n1).expect("frees");
        let h1 = hil.node_host(n1).expect("host");
        assert_eq!(fabric.host_vlan(h1), None, "freed node has no VLAN");
    }

    #[test]
    fn distinct_networks_get_distinct_vlans() {
        let (_sim, _fabric, hil, _n1, _n2) = setup();
        let a = hil.create_network("p1", "net-a").expect("creates");
        let b = hil.create_network("p2", "net-b").expect("creates");
        let va = hil.network_vlan("p1", a).expect("vlan");
        let vb = hil.network_vlan("p2", b).expect("vlan");
        assert_ne!(va, vb);
    }

    #[test]
    fn network_quota_caps_one_project_without_starving_others() {
        let (_sim, _fabric, hil, _n1, _n2) = setup();
        hil.set_network_quota(Some(2));
        let free_before = hil.free_vlans();
        let a = hil.create_network("mallory", "m-0").expect("under quota");
        let _b = hil.create_network("mallory", "m-1").expect("at quota");
        // The spammer is refused by quota — not by pool exhaustion.
        assert_eq!(
            hil.create_network("mallory", "m-2"),
            Err(HilError::QuotaExceeded)
        );
        assert_eq!(hil.free_vlans(), free_before - 2);
        // A different project still allocates freely.
        hil.create_network("charlie", "enclave")
            .expect("other project ok");
        // Deleting frees quota headroom again.
        hil.delete_network("mallory", a).expect("deletes");
        hil.create_network("mallory", "m-3")
            .expect("back under quota");
        // Lifting the cap restores the historical behaviour.
        hil.set_network_quota(None);
        hil.create_network("mallory", "m-4").expect("uncapped");
    }

    #[test]
    fn vlans_recycle_after_delete() {
        let (_sim, _fabric, hil, _n1, _n2) = setup();
        let a = hil.create_network("p1", "net-a").expect("creates");
        let va = hil.network_vlan("p1", a).expect("vlan");
        hil.delete_network("p1", a).expect("deletes");
        let b = hil.create_network("p1", "net-b").expect("creates");
        assert_eq!(hil.network_vlan("p1", b).expect("vlan"), va);
    }

    #[test]
    fn metadata_publication() {
        let (_sim, _fabric, hil, n1, _n2) = setup();
        let kp = bolted_crypto::keypair_from_seed(512, 5);
        hil.set_node_ek(n1, kp.public.clone()).expect("sets ek");
        let wl = vec![bolted_crypto::sha256(b"uefi 2.7 build 1234")];
        hil.set_platform_whitelist(n1, wl.clone()).expect("sets wl");
        let md = hil.node_metadata(n1).expect("reads");
        assert_eq!(
            md.ek_pub.expect("ek present").fingerprint(),
            kp.public.fingerprint()
        );
        assert_eq!(md.platform_whitelist, wl);
    }

    #[test]
    fn audit_log_records_operations() {
        let (_sim, _fabric, hil, n1, _n2) = setup();
        hil.allocate_node("charlie", n1).expect("allocates");
        let net = hil.create_network("charlie", "enclave").expect("creates");
        hil.connect_node("charlie", n1, net).expect("connects");
        let log = hil.audit_log();
        assert!(log.iter().any(|l| l.contains("allocate n1 -> charlie")));
        assert!(log.iter().any(|l| l.contains("create network enclave")));
        assert!(log.iter().any(|l| l.contains("connect n1")));
    }

    #[test]
    fn bmc_ops_reach_the_node() {
        struct FakeBmc {
            cycles: std::sync::atomic::AtomicU32,
        }
        impl BmcOps for FakeBmc {
            fn power_on(&self) -> Result<(), BmcError> {
                Ok(())
            }
            fn power_off(&self) -> Result<(), BmcError> {
                Ok(())
            }
            fn power_cycle(&self) -> Result<(), BmcError> {
                self.cycles
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Ok(())
            }
        }
        let (_sim, fabric, hil, _n1, _n2) = setup();
        let bmc = Arc::new(FakeBmc {
            cycles: std::sync::atomic::AtomicU32::new(0),
        });
        let sw = SwitchId(0);
        let h = fabric.add_host("n3", LinkModel::ten_gbe());
        fabric.attach(h, sw, 2).expect("attach");
        let n3 = hil.register_node("n3", h, sw, 2, Some(bmc.clone()));
        hil.allocate_node("charlie", n3).expect("allocates");
        hil.power_cycle("charlie", n3).expect("cycles");
        assert_eq!(bmc.cycles.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(
            hil.power_cycle("alice", n3),
            Err(HilError::NotOwner),
            "only the owner may power-cycle"
        );
    }

    #[test]
    fn bmc_failures_propagate() {
        struct DeadBmc;
        impl BmcOps for DeadBmc {
            fn power_on(&self) -> Result<(), BmcError> {
                Err(BmcError::Unreachable)
            }
            fn power_off(&self) -> Result<(), BmcError> {
                Err(BmcError::Unreachable)
            }
            fn power_cycle(&self) -> Result<(), BmcError> {
                Err(BmcError::Unreachable)
            }
        }
        let (_sim, fabric, hil, _n1, _n2) = setup();
        let sw = SwitchId(0);
        let h = fabric.add_host("n4", LinkModel::ten_gbe());
        fabric.attach(h, sw, 3).expect("attach");
        let n4 = hil.register_node("n4", h, sw, 3, Some(Arc::new(DeadBmc)));
        hil.allocate_node("charlie", n4).expect("allocates");
        let err = hil.power_cycle("charlie", n4).unwrap_err();
        assert_eq!(err, HilError::Bmc(BmcError::Unreachable));
        assert_eq!(err.to_string(), "BMC error: BMC unreachable");
        assert_eq!(
            hil.power_off("charlie", n4),
            Err(HilError::Bmc(BmcError::Unreachable))
        );
        // A failed power op must not appear in the audit log as done.
        assert!(!hil
            .audit_log()
            .iter()
            .any(|l| l.contains("power-cycle node")));
    }
}
