//! Builds a complete simulated datacenter: machines with TPMs and
//! firmware, switches, HIL, the Ceph cluster, the iSCSI gateway, and BMI.

use bolted_bmi::Bmi;
use bolted_crypto::sha256::{sha256, Digest};
use bolted_firmware::{FirmwareImage, FirmwareKind, FirmwareSource, Machine};
use bolted_hil::{BmcError, BmcOps, Hil, NodeId};
use bolted_net::{Fabric, LinkModel, SwitchId};
use bolted_sim::fault::{ops, FaultPlan, Faults};
use bolted_sim::lock;
use bolted_sim::{Metrics, OpGate, Resource, Sim, Spans};
use bolted_storage::{Cluster, Gateway, ImageStore, TGT_VM_BANDWIDTH_BPS};
use std::sync::{Arc, Mutex};

/// Canonical LinuxBoot source tree (what a tenant audits and rebuilds).
pub fn linuxboot_source() -> FirmwareSource {
    FirmwareSource::from_tree(
        FirmwareKind::LinuxBoot,
        "heads-0.2.0",
        b"linuxboot/heads canonical source tree",
    )
}

/// Canonical vendor UEFI build (closed source; the provider publishes
/// its measurement through HIL).
pub fn uefi_source() -> FirmwareSource {
    FirmwareSource::from_tree(FirmwareKind::Uefi, "dell-2.7.1", b"vendor uefi blob")
}

/// Digest of the iPXE binary (modified to measure what it downloads, §5).
pub fn ipxe_digest() -> Digest {
    sha256(b"ipxe (tpm-measuring fork)")
}

/// Digest of the downloadable LinuxBoot runtime (Heads) payload.
pub fn heads_runtime_digest() -> Digest {
    sha256(b"heads runtime initramfs")
}

/// Configuration for building a cloud.
#[derive(Debug, Clone)]
pub struct CloudConfig {
    /// Number of servers.
    pub nodes: usize,
    /// What's in each server's SPI flash.
    pub firmware: FirmwareKind,
    /// Number of concurrent airlocks. The paper's prototype supports
    /// exactly one ("we only support a single airlock at a time;
    /// attestation for provisioning is currently serialized", §7.3).
    pub airlocks: usize,
    /// Deterministic seed.
    pub seed: u64,
    /// Fault-injection plan for the hardware-facing layers (BMCs, switch
    /// management plane, storage reads, Keylime round-trips). The default
    /// empty plan injects nothing and costs nothing.
    pub faults: FaultPlan,
}

impl Default for CloudConfig {
    fn default() -> Self {
        CloudConfig {
            nodes: 16,
            firmware: FirmwareKind::LinuxBoot,
            airlocks: 1,
            seed: 42,
            faults: FaultPlan::none(),
        }
    }
}

/// Adapter exposing a [`Machine`] as HIL's BMC. IPMI commands cross the
/// management network, so the fault plan can make them fail; `bolted-hil`
/// itself stays sim-free (it is the provider's minimal TCB), which is why
/// the fault gate lives in this adapter rather than in the HIL crate.
struct MachineBmc {
    machine: Machine,
    name: String,
    gate: OpGate,
}

impl MachineBmc {
    /// Counts the attempt and consults the fault plan before touching
    /// the machine, via the shared per-attempt gate discipline.
    fn gate(&self) -> Result<(), BmcError> {
        self.gate
            .tap(
                "bmc_power_ops",
                &[("target", &self.name)],
                ops::BMC_POWER,
                &self.name,
            )
            .map_err(|_| BmcError::Unreachable)
    }
}

impl BmcOps for MachineBmc {
    fn power_on(&self) -> Result<(), BmcError> {
        self.gate()?;
        self.machine.power_on();
        Ok(())
    }
    fn power_off(&self) -> Result<(), BmcError> {
        self.gate()?;
        self.machine.power_off();
        Ok(())
    }
    fn power_cycle(&self) -> Result<(), BmcError> {
        self.gate()?;
        self.machine.power_cycle();
        Ok(())
    }
}

/// A fully wired simulated datacenter.
#[derive(Clone)]
pub struct Cloud {
    /// The simulation everything runs on.
    pub sim: Sim,
    /// The network fabric.
    pub fabric: Fabric,
    /// The top-of-rack switch.
    pub switch: SwitchId,
    /// The provider's isolation service.
    pub hil: Hil,
    /// The storage cluster.
    pub cluster: Cluster,
    /// The image store.
    pub store: ImageStore,
    /// The iSCSI gateway (TGT VM).
    pub gateway: Gateway,
    /// The provisioning service.
    pub bmi: Bmi,
    /// Airlock capacity (serialises attested provisioning).
    pub airlock: Resource,
    /// The provider's single HTTP server for boot artifacts (iPXE,
    /// Heads, agent, kernels) — a shared, serialising resource.
    pub http: Resource,
    /// Structured span recorder (phase timings, key-material events).
    pub spans: Spans,
    /// Metrics registry (retry/fault counters, op counts, phase histograms).
    pub metrics: Metrics,
    /// The installed fault-injection handle; shared by every gated layer.
    pub faults: Faults,
    machines: Arc<Vec<Machine>>,
    nodes: Arc<Vec<NodeId>>,
    rejected: Arc<Mutex<Vec<NodeId>>>,
}

impl Cloud {
    /// Builds a datacenter per `config`.
    pub fn build(sim: &Sim, config: CloudConfig) -> Cloud {
        let spans = Spans::new();
        let metrics = Metrics::new();
        let faults = Faults::new(config.faults.clone(), &metrics);
        let gate = OpGate::new(&faults, &metrics);
        let fabric = Fabric::new(sim, &gate);
        let switch = fabric.add_switch("tor-1", config.nodes.max(8) * 2);
        let hil = Hil::new(&fabric, &metrics);
        let cluster = Cluster::paper_default(sim);
        let store = ImageStore::new(&cluster);
        let gateway = Gateway::new(sim, TGT_VM_BANDWIDTH_BPS, &gate);
        let bmi = Bmi::new(sim, &store, &gateway, &gate);
        let flash = match config.firmware {
            FirmwareKind::LinuxBoot => linuxboot_source().build(),
            FirmwareKind::Uefi => uefi_source().build(),
        };
        let mut machines = Vec::with_capacity(config.nodes);
        let mut nodes = Vec::with_capacity(config.nodes);
        for i in 0..config.nodes {
            let name = format!("m620-{:02}", i + 1);
            let machine = Machine::new(
                &name,
                flash.clone(),
                config.seed.wrapping_mul(1000).wrapping_add(i as u64),
            );
            let host = fabric.add_host(&name, LinkModel::ten_gbe_jumbo());
            // lint: allow(L1-panic: build-time topology construction; the
            // switch was sized to hold a port per node two lines up)
            fabric.attach(host, switch, i).expect("port per node");
            let node = hil.register_node(
                &name,
                host,
                switch,
                i,
                Some(Arc::new(MachineBmc {
                    machine: machine.clone(),
                    name: name.clone(),
                    gate: gate.clone(),
                })),
            );
            // Provider publishes TPM identity + platform whitelist.
            // lint: allow(L1-panic: the node id was minted by register_node
            // in this same loop iteration; a build-time wiring bug here
            // should abort, not limp)
            hil.set_node_ek(node, machine.with_tpm(|t| t.ek_pub().clone()))
                .expect("node exists");
            // lint: allow(L1-panic: same build-time invariant as above)
            hil.set_platform_whitelist(node, vec![uefi_source().build().build_id])
                .expect("node exists");
            machines.push(machine);
            nodes.push(node);
        }
        Cloud {
            sim: sim.clone(),
            fabric,
            switch,
            hil,
            cluster,
            store,
            gateway,
            bmi,
            airlock: Resource::new(sim, config.airlocks.max(1)),
            http: Resource::new(sim, 1),
            spans,
            metrics,
            faults,
            machines: Arc::new(machines),
            nodes: Arc::new(nodes),
            rejected: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The machine behind a HIL node id.
    pub fn machine(&self, node: NodeId) -> Machine {
        // lint: allow(L1-index: NodeIds are minted densely by this Cloud's
        // own build loop and never cross Cloud instances)
        self.machines[node.0].clone()
    }

    /// All node ids, in registration order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.nodes.as_ref().clone()
    }

    /// The known-good firmware image for a kind (the tenant's own
    /// reproducible build, or the provider-published UEFI measurement).
    pub fn good_firmware(&self, kind: FirmwareKind) -> FirmwareImage {
        match kind {
            FirmwareKind::LinuxBoot => linuxboot_source().build(),
            FirmwareKind::Uefi => uefi_source().build(),
        }
    }

    /// Ordered pairs of (`a` node, `b` node) whose hosts can reach each
    /// other on some VLAN: the cross-tenant leak count between two
    /// tenants' nodes, which isolation holds at zero.
    pub(crate) fn cross_tenant_paths(&self, a: &[NodeId], b: &[NodeId]) -> u64 {
        let mut leaks = 0u64;
        for &na in a {
            for &nb in b {
                let (Ok(ha), Ok(hb)) = (self.hil.node_host(na), self.hil.node_host(nb)) else {
                    continue;
                };
                if self.fabric.path(ha, hb).is_ok() {
                    leaks += 1;
                }
            }
        }
        leaks
    }

    /// Marks a node as quarantined in the rejected pool.
    pub fn quarantine(&self, node: NodeId) {
        self.metrics.inc("hil_ops", &[("op", "quarantine")]);
        lock(&self.rejected).push(node);
    }

    /// Nodes currently in the rejected pool.
    pub fn rejected_pool(&self) -> Vec<NodeId> {
        lock(&self.rejected).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_registers_everything() {
        let sim = Sim::new();
        let cloud = Cloud::build(&sim, CloudConfig::default());
        assert_eq!(cloud.nodes().len(), 16);
        assert_eq!(cloud.hil.free_nodes().len(), 16);
        // EKs published and distinct.
        let md0 = cloud.hil.node_metadata(cloud.nodes()[0]).expect("md");
        let md1 = cloud.hil.node_metadata(cloud.nodes()[1]).expect("md");
        assert_ne!(
            md0.ek_pub.expect("ek").fingerprint(),
            md1.ek_pub.expect("ek").fingerprint()
        );
    }

    #[test]
    fn bmc_power_cycles_machine() {
        let sim = Sim::new();
        let cloud = Cloud::build(
            &sim,
            CloudConfig {
                nodes: 2,
                ..CloudConfig::default()
            },
        );
        let n = cloud.nodes()[0];
        cloud.hil.allocate_node("t", n).expect("allocates");
        let m = cloud.machine(n);
        assert_eq!(m.power(), bolted_firmware::PowerState::Off);
        cloud.hil.power_cycle("t", n).expect("cycles");
        assert_eq!(m.power(), bolted_firmware::PowerState::On);
    }

    #[test]
    fn canonical_builds_are_stable() {
        assert_eq!(
            linuxboot_source().build().build_id,
            linuxboot_source().build().build_id
        );
        assert_ne!(
            linuxboot_source().build().build_id,
            uefi_source().build().build_id
        );
    }

    #[test]
    fn rejected_pool_tracks_quarantine() {
        let sim = Sim::new();
        let cloud = Cloud::build(
            &sim,
            CloudConfig {
                nodes: 2,
                ..CloudConfig::default()
            },
        );
        assert!(cloud.rejected_pool().is_empty());
        cloud.quarantine(cloud.nodes()[1]);
        assert_eq!(cloud.rejected_pool(), vec![cloud.nodes()[1]]);
    }
}
