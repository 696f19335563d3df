//! Service-boundary tests: the tenant orchestrator speaks only to the
//! four object-safe traits, so backends can be wrapped (fault shims) or
//! replaced wholesale (mocks) without touching orchestration code.

mod common;

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use bolted_sim::lock;

use bolted::bmi::{Bmi, BmiError};
use bolted::core::{
    linuxboot_source, AttestationService, BootService, BoxFuture, Cloud, IsolationService,
    NodeState, ProvisionError, ProvisioningService, SecurityProfile, Services, Tenant, TenantEnv,
};

use bolted::crypto::prime::RandomSource;
use bolted::crypto::rsa::PublicKey;
use bolted::crypto::sha256::Digest;
use bolted::firmware::{FirmwareImage, FirmwareKind, KernelImage, Machine, MachineError};
use bolted::hil::{HilError, NetworkId, NodeId, NodeMetadata};
use bolted::keylime::{Agent, AttestOutcome, ImaWhitelist, KeyShare, RegisterError};
use bolted::keylime::{Registrar, Verifier, VerifierConfig};
use bolted::net::NetError;
use bolted::sim::{CallEnv, Faults, Metrics, OpGate, Resource, Sim, Spans};
use bolted::storage::{Cluster, ImageId, ImageStore, IscsiTarget, Transport};
use bolted::storage::{Gateway, TGT_VM_BANDWIDTH_BPS};
use common::world;

// ---------------------------------------------------------------------------
// A wrapper backend: real cloud underneath, but the enclave/airlock
// attach always fails as if the switch management plane were down.
// ---------------------------------------------------------------------------

struct FlakyIsolation(Cloud);

impl IsolationService for FlakyIsolation {
    fn node_name(&self, node: NodeId) -> Result<String, HilError> {
        self.0.hil.node_name(node)
    }
    fn node_metadata(&self, node: NodeId) -> Result<NodeMetadata, HilError> {
        self.0.hil.node_metadata(node)
    }
    fn create_network(&self, project: &str, name: String) -> Result<NetworkId, HilError> {
        self.0.hil.create_network(project, name)
    }
    fn allocate_node(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.0.hil.allocate_node(project, node)
    }
    fn free_node(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.0.hil.free_node(project, node)
    }
    fn free_nodes(&self) -> Vec<NodeId> {
        self.0.hil.free_nodes()
    }
    fn connect_node(&self, _project: &str, _node: NodeId, _net: NetworkId) -> Result<(), HilError> {
        Err(HilError::Switch(NetError::SwitchUnreachable))
    }
    fn detach_node(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.0.hil.detach_node(project, node)
    }
    fn power_cycle(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.0.hil.power_cycle(project, node)
    }
    fn power_off(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.0.hil.power_off(project, node)
    }
    fn quarantine(&self, node: NodeId) {
        self.0.quarantine(node);
    }
}

/// Airlock attach exhausts its retries through the trait object, and
/// the node comes back to the free pool (Airlock → Free abandon edge),
/// never to quarantine: infrastructure faults are not evidence of
/// compromise.
#[test]
fn exhausted_attach_through_trait_object_abandons_to_free_pool() {
    let (sim, cloud, golden) = world().build();
    let env = TenantEnv::of_cloud(&cloud);
    let attestation = Arc::new(bolted::core::KeylimeAttestation::new(
        &cloud,
        VerifierConfig::default(),
    ));
    let verifier = attestation.verifier().clone();
    let backend: Arc<Cloud> = Arc::new(cloud.clone());
    let services = Services {
        isolation: Arc::new(FlakyIsolation(cloud.clone())),
        attestation,
        provisioning: backend.clone(),
        boot: backend,
    };
    let tenant =
        Tenant::with_backend("charlie", env, services, verifier).expect("tenant over mock");
    let node = cloud.nodes()[0];
    let result = sim.block_on({
        let tenant = tenant.clone();
        async move {
            tenant
                .provision(node, &SecurityProfile::charlie(), golden)
                .await
        }
    });
    match result {
        Err(ProvisionError::Exhausted { op, attempts, .. }) => {
            assert_eq!(op, "hil.connect_node");
            assert!(attempts >= 2, "retried before giving up: {attempts}");
        }
        other => panic!("expected Exhausted, got {other:?}", other = other.err()),
    }
    assert!(
        cloud.hil.free_nodes().contains(&node),
        "abandoned node returns to the free pool"
    );
    assert!(
        cloud.rejected_pool().is_empty(),
        "infrastructure faults must not quarantine"
    );
}

// ---------------------------------------------------------------------------
// A wrapper backend: real cloud underneath, but HIL publishes the other
// node's EK, as if the provider handed the tenant a different server
// than the one it reserved.
// ---------------------------------------------------------------------------

struct SwappedEkIsolation(Cloud);

impl IsolationService for SwappedEkIsolation {
    fn node_name(&self, node: NodeId) -> Result<String, HilError> {
        self.0.hil.node_name(node)
    }
    fn node_metadata(&self, node: NodeId) -> Result<NodeMetadata, HilError> {
        let mut md = self.0.hil.node_metadata(node)?;
        md.ek_pub = self.0.hil.node_metadata(NodeId(1 - node.0))?.ek_pub;
        Ok(md)
    }
    fn create_network(&self, project: &str, name: String) -> Result<NetworkId, HilError> {
        self.0.hil.create_network(project, name)
    }
    fn allocate_node(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.0.hil.allocate_node(project, node)
    }
    fn free_node(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.0.hil.free_node(project, node)
    }
    fn free_nodes(&self) -> Vec<NodeId> {
        IsolationService::free_nodes(&self.0)
    }
    fn connect_node(&self, project: &str, node: NodeId, net: NetworkId) -> Result<(), HilError> {
        self.0.hil.connect_node(project, node, net)
    }
    fn detach_node(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.0.hil.detach_node(project, node)
    }
    fn power_cycle(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.0.hil.power_cycle(project, node)
    }
    fn power_off(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.0.hil.power_off(project, node)
    }
    fn quarantine(&self, node: NodeId) {
        self.0.quarantine(node);
    }
}

/// §5's identity check runs in every build: a node whose registered EK
/// is not the one HIL publishes for it is rejected before the verifier
/// enrols it, so no key share is ever released to it, and it ends in
/// quarantine with its volume deleted.
#[test]
fn a_node_whose_ek_is_not_the_published_one_is_rejected_before_enrolment() {
    let (sim, cloud, golden) = world().nodes(2).build();
    let env = TenantEnv::of_cloud(&cloud);
    let attestation = Arc::new(bolted::core::KeylimeAttestation::new(
        &cloud,
        VerifierConfig::default(),
    ));
    let verifier = attestation.verifier().clone();
    let backend: Arc<Cloud> = Arc::new(cloud.clone());
    let services = Services {
        isolation: Arc::new(SwappedEkIsolation(cloud.clone())),
        attestation,
        provisioning: backend.clone(),
        boot: backend,
    };
    let tenant = Tenant::with_backend("charlie", env, services, verifier.clone()).expect("tenant");
    let node = cloud.nodes()[0];
    let result = sim.block_on({
        let tenant = tenant.clone();
        async move {
            tenant
                .provision(node, &SecurityProfile::charlie(), golden)
                .await
        }
    });
    match result {
        Err(ProvisionError::Rejected(reason)) => assert!(reason.contains("EK"), "{reason}"),
        other => panic!("expected Rejected, got {other:?}", other = other.err()),
    }
    assert_eq!(cloud.rejected_pool(), vec![node]);
    assert!(!IsolationService::free_nodes(&cloud).contains(&node));
    assert_eq!(
        cloud.hil.free_nodes(),
        cloud.nodes(),
        "the node left the tenant"
    );
    assert_eq!(cloud.metrics.counter_total("key_releases"), 0);
    assert!(!verifier.holds_key_material("m620-01"));
    assert!(
        cloud.store.lookup("m620-01-root").is_none(),
        "the cloned volume is deleted"
    );
}

// ---------------------------------------------------------------------------
// A full mock backend: no Cloud at all. One shared machine, no-op
// isolation, always-trusted attestation, and a standalone BMI for the
// boot path.
// ---------------------------------------------------------------------------

struct NullIsolation {
    machine: Machine,
    ek: PublicKey,
    networks: Mutex<usize>,
}

impl IsolationService for NullIsolation {
    fn node_name(&self, _node: NodeId) -> Result<String, HilError> {
        Ok(self.machine.name())
    }
    fn node_metadata(&self, _node: NodeId) -> Result<NodeMetadata, HilError> {
        Ok(NodeMetadata {
            ek_pub: Some(self.ek.clone()),
            platform_whitelist: Vec::new(),
            extra: HashMap::new(),
        })
    }
    fn create_network(&self, _project: &str, _name: String) -> Result<NetworkId, HilError> {
        let mut n = lock(&self.networks);
        *n += 1;
        Ok(NetworkId(*n - 1))
    }
    fn allocate_node(&self, _project: &str, _node: NodeId) -> Result<(), HilError> {
        Ok(())
    }
    fn free_nodes(&self) -> Vec<NodeId> {
        Vec::new()
    }
    fn free_node(&self, _project: &str, _node: NodeId) -> Result<(), HilError> {
        Ok(())
    }
    fn connect_node(&self, _project: &str, _node: NodeId, _net: NetworkId) -> Result<(), HilError> {
        Ok(())
    }
    fn detach_node(&self, _project: &str, _node: NodeId) -> Result<(), HilError> {
        Ok(())
    }
    fn power_cycle(&self, _project: &str, _node: NodeId) -> Result<(), HilError> {
        self.machine.power_cycle();
        Ok(())
    }
    fn power_off(&self, _project: &str, _node: NodeId) -> Result<(), HilError> {
        self.machine.power_off();
        Ok(())
    }
    fn quarantine(&self, _node: NodeId) {}
}

struct NullBoot {
    sim: Sim,
    machine: Machine,
}

impl BootService for NullBoot {
    fn machine(&self, _node: NodeId) -> Machine {
        self.machine.clone()
    }
    fn good_firmware(&self, _kind: FirmwareKind) -> FirmwareImage {
        self.machine.flash()
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

struct NullAttestation {
    ek: PublicKey,
}

impl AttestationService for NullAttestation {
    fn register<'a>(
        &'a self,
        _agent: &'a Agent,
        _rng: &'a mut dyn RandomSource,
    ) -> BoxFuture<'a, Result<(), RegisterError>> {
        Box::pin(async { Ok(()) })
    }
    fn registered_ek(&self, _agent_id: &str) -> Option<PublicKey> {
        Some(self.ek.clone())
    }
    fn enroll(
        &self,
        _agent: &Agent,
        _boot_whitelist: std::collections::HashSet<Digest>,
        _ima_whitelist: ImaWhitelist,
        _v_share: Option<KeyShare>,
        _sealed_payload: Vec<u8>,
        _payload_wire_bytes: u64,
    ) {
    }
    fn attest_once<'a>(
        &'a self,
        _node_id: &'a str,
        _continuous: bool,
    ) -> BoxFuture<'a, AttestOutcome> {
        Box::pin(async { AttestOutcome::Trusted })
    }
    fn stop(&self, _node_id: &str) {}
}

struct StandaloneBmi(Bmi);

impl ProvisioningService for StandaloneBmi {
    fn clone_for_server(&self, golden: ImageId, server_name: &str) -> Result<ImageId, BmiError> {
        self.0.clone_for_server(golden, server_name)
    }
    fn extract_boot_info(&self, image: ImageId) -> Result<(KernelImage, String), BmiError> {
        self.0.extract_boot_info(image)
    }
    fn boot_target(&self, image: ImageId, transport: Transport, read_ahead: u64) -> IscsiTarget {
        self.0.boot_target(image, transport, read_ahead)
    }
    fn release(&self, image: ImageId, keep: bool) -> Result<(), BmiError> {
        self.0.release(image, keep)
    }
}

/// A no-op mock backend provisions Charlie end to end: the entire
/// orchestration (allocate → power-cycle → firmware → clone →
/// registration → quote → enclave-join → kexec → boot I/O) runs with no
/// Cloud behind the traits at all.
#[test]
fn mock_backend_provisions_end_to_end_through_trait_objects() {
    let sim = Sim::new();
    let machine = Machine::new("mock-01", linuxboot_source().build(), 7000);
    let ek = machine.with_tpm(|t| t.ek_pub().clone());
    let cluster = Cluster::paper_default(&sim);
    let store = ImageStore::new(&cluster);
    let gateway = Gateway::new(&sim, TGT_VM_BANDWIDTH_BPS, &OpGate::disabled());
    let bmi = Bmi::new(&sim, &store, &gateway, &OpGate::disabled());
    let kernel = KernelImage::from_bytes("fedora28", b"vmlinuz");
    let golden = bmi
        .create_golden("fedora28", 8 << 30, 7, &kernel, "root=/dev/sda")
        .expect("golden");
    let call = CallEnv::new(
        &sim,
        &Faults::disabled(),
        &Spans::disabled(),
        &Metrics::disabled(),
    );
    let env = TenantEnv {
        call: call.clone(),
        http: Resource::new(&sim, 1),
        airlock: Resource::new(&sim, 1),
    };
    let services = Services {
        isolation: Arc::new(NullIsolation {
            machine: machine.clone(),
            ek: ek.clone(),
            networks: Mutex::new(0),
        }),
        attestation: Arc::new(NullAttestation { ek }),
        provisioning: Arc::new(StandaloneBmi(bmi)),
        boot: Arc::new(NullBoot {
            sim: sim.clone(),
            machine: machine.clone(),
        }),
    };
    // The verifier is unused by the mock path; a fresh one satisfies
    // the continuous-attestation surface of the Tenant API.
    let registrar = Registrar::new(&Faults::disabled());
    let verifier = Verifier::new(&call, &registrar, VerifierConfig::default());
    let tenant = Tenant::with_backend("charlie", env, services, verifier).expect("tenant");
    let p = sim
        .block_on(async move {
            tenant
                .provision(NodeId(0), &SecurityProfile::charlie(), golden)
                .await
        })
        .expect("mock backend provisions");
    assert!(p.agent.is_some(), "attested profile produced an agent");
    assert_eq!(p.lifecycle.state(), NodeState::Allocated);
    assert!(p.report.phase("kernel-boot").is_some());
    assert!(
        machine.booted_kernel().is_some(),
        "kexec actually ran on the mock machine"
    );
    assert!(!p.psk.is_empty(), "charlie gets an enclave PSK");
}
