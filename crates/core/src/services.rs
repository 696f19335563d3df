//! Service boundaries between the tenant orchestrator and the Bolted
//! components (§4 of the paper: HIL, BMI, the attestation services and
//! the machines themselves are *separate, replaceable services*).
//!
//! The traits here are the only surface `provision.rs` is allowed to
//! touch: the orchestrator never reaches into `Cloud` internals, it
//! speaks to four object-safe services, and `Cloud` is just the
//! simulation-backed implementation of three of them (Keylime supplies
//! the fourth). A deployment against real hardware would implement
//! these same traits over IPMI, the switch management plane, Ceph and
//! the Keylime REST API without changing a line of orchestration.
//!
//! All traits are `Send + Sync`: the orchestrator drives fleets from a
//! multi-core executor, so async methods return a [`BoxFuture`] and the
//! trait objects in [`Services`] carry `Send + Sync` bounds.

use std::collections::HashSet;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;

use bolted_bmi::BmiError;
use bolted_crypto::prime::RandomSource;
use bolted_crypto::rsa::PublicKey;
use bolted_crypto::sha256::Digest;
use bolted_firmware::{FirmwareImage, FirmwareKind, KernelImage, Machine, MachineError};
use bolted_hil::{HilError, NetworkId, NodeId, NodeMetadata};
use bolted_keylime::{
    Agent, AttestOutcome, ImaWhitelist, KeyShare, RegisterError, Registrar, Verifier,
    VerifierConfig,
};
use bolted_sim::{CallEnv, Resource, Sim};
use bolted_storage::{ImageId, IscsiTarget, Transport};

use crate::cloud::Cloud;

/// A boxed, `Send` future — the async-method currency of the
/// object-safe service traits below.
pub type BoxFuture<'a, T> = Pin<Box<dyn Future<Output = T> + Send + 'a>>;

/// The isolation service (the paper's HIL): node allocation, network
/// attach/detach, out-of-band power control and the EK/platform
/// metadata the provider publishes per node.
pub trait IsolationService: Send + Sync {
    /// Resolves a node's stable name (e.g. `m620-03`).
    // lint: allow(L3: metadata getter — resolves provider-published state,
    // no infrastructure round-trip to gate)
    #[must_use = "a HIL lookup failure means the node id is stale"]
    fn node_name(&self, node: NodeId) -> Result<String, HilError>;
    /// Provider-published metadata: TPM EK and platform whitelist.
    // lint: allow(L3: metadata getter — same published-state lookup as
    // node_name)
    #[must_use = "a HIL lookup failure means the node id is stale"]
    fn node_metadata(&self, node: NodeId) -> Result<NodeMetadata, HilError>;
    /// Creates an isolated tenant network (allocates a VLAN).
    #[must_use = "ignoring a failed network creation leaks the tenant onto no VLAN"]
    fn create_network(&self, project: &str, name: String) -> Result<NetworkId, HilError>;
    /// Claims a free node for the project.
    #[must_use = "an unchecked allocation failure races another tenant onto the node"]
    fn allocate_node(&self, project: &str, node: NodeId) -> Result<(), HilError>;
    /// Returns a node to the free pool (scrubs its port first).
    #[must_use = "a failed free leaves the node allocated and its port attached"]
    fn free_node(&self, project: &str, node: NodeId) -> Result<(), HilError>;
    /// Moves the node's switch port onto a tenant network.
    #[must_use = "a failed connect leaves the node off the tenant network"]
    fn connect_node(&self, project: &str, node: NodeId, net: NetworkId) -> Result<(), HilError>;
    /// Detaches the node's switch port from any tenant network.
    #[must_use = "a failed detach leaves the port on the old network"]
    fn detach_node(&self, project: &str, node: NodeId) -> Result<(), HilError>;
    /// Power-cycles the node via its BMC.
    #[must_use = "an unobserved power-cycle failure stalls the boot pipeline"]
    fn power_cycle(&self, project: &str, node: NodeId) -> Result<(), HilError>;
    /// Powers the node off via its BMC.
    #[must_use = "an unobserved power-off failure leaves the machine running"]
    fn power_off(&self, project: &str, node: NodeId) -> Result<(), HilError>;
    /// Moves a node that failed attestation into the rejected pool so
    /// the scheduler never hands it out again.
    fn quarantine(&self, node: NodeId);
    /// Nodes currently unowned and not quarantined, in ascending id
    /// order — the pool a reconciler claims convergence work from.
    // lint: allow(L3: scheduler-state getter — reads the free pool the
    // allocate/free ops above already gate; no new round-trip)
    fn free_nodes(&self) -> Vec<NodeId>;
}

/// The attestation service (the paper's Keylime registrar + cloud
/// verifier, operated by the tenant).
pub trait AttestationService: Send + Sync {
    /// Runs the TPM credential-activation protocol for one agent
    /// against the registrar.
    #[must_use = "registration must be awaited and its failure retried or surfaced"]
    fn register<'a>(
        &'a self,
        agent: &'a Agent,
        rng: &'a mut dyn RandomSource,
    ) -> BoxFuture<'a, Result<(), RegisterError>>;
    /// The EK the registrar saw during activation — compared against
    /// the isolation service's published EK to detect MITM registrars.
    // lint: allow(L3: registrar-cache getter; the round-trip it reflects
    // was already gated by register)
    fn registered_ek(&self, agent_id: &str) -> Option<PublicKey>;
    /// Enrolls a registered node for quote verification: whitelists,
    /// the V key share and the sealed tenant payload.
    // lint: allow(L3: local verifier-state update — no infrastructure
    // round-trip; the quote path it arms is gated by attest_once)
    fn enroll(
        &self,
        agent: &Agent,
        boot_whitelist: HashSet<Digest>,
        ima_whitelist: ImaWhitelist,
        v_share: Option<KeyShare>,
        sealed_payload: Vec<u8>,
        payload_wire_bytes: u64,
    );
    /// One attestation round: quote, verify, release V on success.
    // lint: op(verifier.quote)
    fn attest_once<'a>(
        &'a self,
        node_id: &'a str,
        continuous: bool,
    ) -> BoxFuture<'a, AttestOutcome>;
    /// Stops tracking a node (deprovision or abandon).
    // lint: allow(L3: local state removal; nothing to inject faults into)
    fn stop(&self, node_id: &str);
}

/// The provisioning service (the paper's BMI): image management and
/// the iSCSI boot path.
pub trait ProvisioningService: Send + Sync {
    /// Clones the golden image for one server and snapshots it.
    #[must_use = "a failed clone leaves the server with no root volume"]
    fn clone_for_server(&self, golden: ImageId, server_name: &str) -> Result<ImageId, BmiError>;
    /// Pulls kernel + cmdline out of an image's manifest.
    #[must_use = "without boot info the node cannot kexec into the tenant kernel"]
    fn extract_boot_info(&self, image: ImageId) -> Result<(KernelImage, String), BmiError>;
    /// Exposes an image as an iSCSI boot target.
    fn boot_target(&self, image: ImageId, transport: Transport, read_ahead: u64) -> IscsiTarget;
    /// Releases a server's root volume, keeping or deleting it.
    #[must_use = "a failed release leaks the cloned volume in the store"]
    fn release(&self, image: ImageId, keep: bool) -> Result<(), BmiError>;
}

/// The boot service: firmware and machine-level operations that in a
/// real deployment happen on the node itself (serial console, kexec).
pub trait BootService: Send + Sync {
    /// The machine sitting in a given slot.
    // lint: allow(L3: slot getter — resolves a handle, performs no
    // operation on the machine)
    fn machine(&self, node: NodeId) -> Machine;
    /// The known-good firmware build for a kind (provider's or the
    /// tenant's own attested build).
    // lint: allow(L3: static build lookup; no service round-trip)
    fn good_firmware(&self, kind: FirmwareKind) -> FirmwareImage;
    /// Runs the flashed firmware through POST and reports what came up.
    // lint: allow(L3: on-node execution — POST latency and failure are
    // charged by the Machine model itself, not a provider boundary the
    // fault plan can sit on)
    #[must_use = "POST failure must route the node to remediation"]
    fn run_firmware<'a>(
        &'a self,
        machine: &'a Machine,
    ) -> BoxFuture<'a, Result<FirmwareKind, MachineError>>;
    /// Measures a downloaded artifact into the TPM event log.
    // lint: allow(L3: on-node TPM extend; crossing no trust boundary —
    // the artifact transfer itself is gated by storage.read)
    #[must_use = "an unmeasured download breaks the chain of trust"]
    fn measure_download(
        &self,
        machine: &Machine,
        name: &str,
        digest: Digest,
    ) -> Result<(), MachineError>;
    /// Kexecs from the firmware environment into the tenant kernel.
    // lint: allow(L3: on-node control transfer, no service round-trip)
    #[must_use = "a failed kexec leaves the node in firmware, not the tenant kernel"]
    fn kexec(
        &self,
        machine: &Machine,
        kernel: KernelImage,
        tenant: &str,
    ) -> Result<(), MachineError>;
    /// Scrubs RAM residue (the non-attested deprovision path).
    // lint: allow(L3: on-node memory scrub; modelled inside Machine)
    fn scrub(&self, machine: &Machine);
}

// ---------------------------------------------------------------------------
// Cloud as a backend: the simulated provider implements isolation,
// provisioning and boot.
// ---------------------------------------------------------------------------

impl IsolationService for Cloud {
    fn node_name(&self, node: NodeId) -> Result<String, HilError> {
        self.hil.node_name(node)
    }
    fn node_metadata(&self, node: NodeId) -> Result<NodeMetadata, HilError> {
        self.hil.node_metadata(node)
    }
    fn create_network(&self, project: &str, name: String) -> Result<NetworkId, HilError> {
        self.hil.create_network(project, name)
    }
    fn allocate_node(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.hil.allocate_node(project, node)
    }
    fn free_node(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.hil.free_node(project, node)
    }
    fn connect_node(&self, project: &str, node: NodeId, net: NetworkId) -> Result<(), HilError> {
        self.hil.connect_node(project, node, net)
    }
    fn detach_node(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.hil.detach_node(project, node)
    }
    fn power_cycle(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.hil.power_cycle(project, node)
    }
    fn power_off(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.hil.power_off(project, node)
    }
    fn quarantine(&self, node: NodeId) {
        Cloud::quarantine(self, node);
    }
    fn free_nodes(&self) -> Vec<NodeId> {
        // HIL's free pool minus the rejected pool: quarantined nodes
        // stay un-schedulable even though HIL no longer owns them.
        let rejected = self.rejected_pool();
        self.hil
            .free_nodes()
            .into_iter()
            .filter(|n| !rejected.contains(n))
            .collect()
    }
}

impl ProvisioningService for Cloud {
    fn clone_for_server(&self, golden: ImageId, server_name: &str) -> Result<ImageId, BmiError> {
        self.bmi.clone_for_server(golden, server_name)
    }
    fn extract_boot_info(&self, image: ImageId) -> Result<(KernelImage, String), BmiError> {
        self.bmi.extract_boot_info(image)
    }
    fn boot_target(&self, image: ImageId, transport: Transport, read_ahead: u64) -> IscsiTarget {
        self.bmi.boot_target(image, transport, read_ahead)
    }
    fn release(&self, image: ImageId, keep: bool) -> Result<(), BmiError> {
        self.bmi.release(image, keep)
    }
}

impl BootService for Cloud {
    fn machine(&self, node: NodeId) -> Machine {
        Cloud::machine(self, node)
    }
    fn good_firmware(&self, kind: FirmwareKind) -> FirmwareImage {
        Cloud::good_firmware(self, kind)
    }
    fn run_firmware<'a>(
        &'a self,
        machine: &'a Machine,
    ) -> BoxFuture<'a, Result<FirmwareKind, MachineError>> {
        Box::pin(machine.run_firmware(&self.sim))
    }
    fn measure_download(
        &self,
        machine: &Machine,
        name: &str,
        digest: Digest,
    ) -> Result<(), MachineError> {
        machine.measure_download(name, digest)
    }
    fn kexec(
        &self,
        machine: &Machine,
        kernel: KernelImage,
        tenant: &str,
    ) -> Result<(), MachineError> {
        machine.kexec(kernel, tenant)
    }
    fn scrub(&self, machine: &Machine) {
        machine.scrub_memory();
    }
}

// ---------------------------------------------------------------------------
// Keylime as the attestation backend.
// ---------------------------------------------------------------------------

/// The tenant-operated Keylime pair (registrar + verifier) packaged as
/// an [`AttestationService`].
pub struct KeylimeAttestation {
    sim: Sim,
    registrar: Registrar,
    verifier: Verifier,
}

impl KeylimeAttestation {
    /// Stands up a registrar and verifier wired into the cloud's fault
    /// plan and observability sinks.
    pub fn new(cloud: &Cloud, config: VerifierConfig) -> Self {
        let registrar = Registrar::new(&cloud.faults);
        let env = CallEnv::new(&cloud.sim, &cloud.faults, &cloud.spans, &cloud.metrics);
        let verifier = Verifier::new(&env, &registrar, config);
        KeylimeAttestation {
            sim: cloud.sim.clone(),
            registrar,
            verifier,
        }
    }

    /// The underlying verifier (revocation subscriptions, enrolments).
    pub fn verifier(&self) -> &Verifier {
        &self.verifier
    }

    /// The underlying registrar.
    pub fn registrar(&self) -> &Registrar {
        &self.registrar
    }
}

impl AttestationService for KeylimeAttestation {
    fn register<'a>(
        &'a self,
        agent: &'a Agent,
        rng: &'a mut dyn RandomSource,
    ) -> BoxFuture<'a, Result<(), RegisterError>> {
        Box::pin(agent.register(&self.sim, &self.registrar, rng))
    }
    fn registered_ek(&self, agent_id: &str) -> Option<PublicKey> {
        self.registrar.registered_ek(agent_id)
    }
    fn enroll(
        &self,
        agent: &Agent,
        boot_whitelist: HashSet<Digest>,
        ima_whitelist: ImaWhitelist,
        v_share: Option<KeyShare>,
        sealed_payload: Vec<u8>,
        payload_wire_bytes: u64,
    ) {
        self.verifier.add_node(
            agent,
            boot_whitelist,
            ima_whitelist,
            v_share,
            sealed_payload,
            payload_wire_bytes,
        );
    }
    fn attest_once<'a>(
        &'a self,
        node_id: &'a str,
        continuous: bool,
    ) -> BoxFuture<'a, AttestOutcome> {
        Box::pin(self.verifier.attest_once(node_id, continuous))
    }
    fn stop(&self, node_id: &str) {
        self.verifier.stop(node_id);
    }
}

// ---------------------------------------------------------------------------
// Bundles handed to the orchestrator.
// ---------------------------------------------------------------------------

/// The four service endpoints a tenant orchestrates against.
#[derive(Clone)]
pub struct Services {
    /// Node allocation, networking, power (HIL).
    pub isolation: Arc<dyn IsolationService>,
    /// Registration, enrollment, quote rounds (Keylime).
    pub attestation: Arc<dyn AttestationService>,
    /// Images and boot targets (BMI).
    pub provisioning: Arc<dyn ProvisioningService>,
    /// Firmware and machine-level operations.
    pub boot: Arc<dyn BootService>,
}

impl Services {
    /// The standard wiring: `Cloud` backs isolation, provisioning and
    /// boot; the caller supplies the attestation backend.
    pub fn of_cloud(cloud: &Cloud, attestation: Arc<dyn AttestationService>) -> Services {
        let backend = Arc::new(cloud.clone());
        Services {
            isolation: backend.clone(),
            attestation,
            provisioning: backend.clone(),
            boot: backend,
        }
    }
}

/// The ambient pieces of a tenant's world that are not service calls:
/// virtual time, the instrumented call envelope and the two shared
/// queueing resources.
#[derive(Clone)]
pub struct TenantEnv {
    /// The single fault/retry/span/metrics envelope for service calls.
    pub call: CallEnv,
    /// The provisioning-network HTTP server (boot artifact downloads).
    pub http: Resource,
    /// The airlock bottleneck (paper §4.1: limited airlock slots).
    pub airlock: Resource,
}

impl TenantEnv {
    /// Captures a cloud's environment: the call envelope inherits the
    /// cloud's fault plan, spans and metrics.
    pub fn of_cloud(cloud: &Cloud) -> TenantEnv {
        TenantEnv {
            call: CallEnv::new(&cloud.sim, &cloud.faults, &cloud.spans, &cloud.metrics),
            http: cloud.http.clone(),
            airlock: cloud.airlock.clone(),
        }
    }

    /// The simulation clock behind the call envelope.
    pub fn sim(&self) -> &Sim {
        self.call.sim()
    }
}
