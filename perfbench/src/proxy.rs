//! Timing proxies over the four `bolted_core::services` traits.
//!
//! Each proxy delegates every method to the real backend (`Cloud` for
//! isolation, provisioning and boot; `KeylimeAttestation` for
//! attestation) inside a span named `<layer>.<method>`: `hil.*`, `bmi.*`,
//! `firmware.*` and `keylime.*`. The proxies change no argument and no
//! result, so a traced world behaves byte-for-byte like an untraced one.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use bolted_bmi::BmiError;
use bolted_core::{
    AttestationService, BootService, BoxFuture, IsolationService, ProvisioningService, Services,
};
use bolted_crypto::prime::RandomSource;
use bolted_crypto::rsa::PublicKey;
use bolted_crypto::sha256::Digest;
use bolted_firmware::{FirmwareImage, FirmwareKind, KernelImage, Machine, MachineError};
use bolted_hil::{HilError, NetworkId, NodeId, NodeMetadata};
use bolted_keylime::{Agent, AttestOutcome, ImaWhitelist, KeyShare, RegisterError};
use bolted_sim::lock;
use bolted_storage::{ImageId, IscsiTarget, Transport};

use crate::trace::Recorder;

/// Wraps every service of `services` in a timing proxy recording into
/// `rec`. `aiks` collects the fingerprint of every AIK seen at
/// registration, which counts the AIK key generations exactly.
pub fn traced_services(
    services: Services,
    rec: &Arc<Recorder>,
    aiks: &Arc<Mutex<HashSet<Digest>>>,
) -> Services {
    Services {
        isolation: Arc::new(TracedIsolation {
            inner: services.isolation,
            rec: Arc::clone(rec),
        }),
        attestation: Arc::new(TracedAttestation {
            inner: services.attestation,
            rec: Arc::clone(rec),
            aiks: Arc::clone(aiks),
        }),
        provisioning: Arc::new(TracedProvisioning {
            inner: services.provisioning,
            rec: Arc::clone(rec),
        }),
        boot: Arc::new(TracedBoot {
            inner: services.boot,
            rec: Arc::clone(rec),
        }),
    }
}

/// The isolation service (HIL) behind spans named `hil.*`.
pub struct TracedIsolation {
    inner: Arc<dyn IsolationService>,
    rec: Arc<Recorder>,
}

impl IsolationService for TracedIsolation {
    fn node_name(&self, node: NodeId) -> Result<String, HilError> {
        self.rec
            .scope("hil.node_name", || self.inner.node_name(node))
    }
    fn node_metadata(&self, node: NodeId) -> Result<NodeMetadata, HilError> {
        self.rec
            .scope("hil.node_metadata", || self.inner.node_metadata(node))
    }
    fn create_network(&self, project: &str, name: String) -> Result<NetworkId, HilError> {
        self.rec.scope("hil.create_network", || {
            self.inner.create_network(project, name)
        })
    }
    fn allocate_node(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.rec.scope("hil.allocate_node", || {
            self.inner.allocate_node(project, node)
        })
    }
    fn free_node(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.rec
            .scope("hil.free_node", || self.inner.free_node(project, node))
    }
    fn connect_node(&self, project: &str, node: NodeId, net: NetworkId) -> Result<(), HilError> {
        self.rec.scope("hil.connect_node", || {
            self.inner.connect_node(project, node, net)
        })
    }
    fn detach_node(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.rec
            .scope("hil.detach_node", || self.inner.detach_node(project, node))
    }
    fn power_cycle(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.rec
            .scope("hil.power_cycle", || self.inner.power_cycle(project, node))
    }
    fn power_off(&self, project: &str, node: NodeId) -> Result<(), HilError> {
        self.rec
            .scope("hil.power_off", || self.inner.power_off(project, node))
    }
    fn quarantine(&self, node: NodeId) {
        self.rec
            .scope("hil.quarantine", || self.inner.quarantine(node));
    }
    fn free_nodes(&self) -> Vec<NodeId> {
        self.rec.scope("hil.free_nodes", || self.inner.free_nodes())
    }
}

/// The attestation service (Keylime) behind spans named `keylime.*`.
pub struct TracedAttestation {
    inner: Arc<dyn AttestationService>,
    rec: Arc<Recorder>,
    aiks: Arc<Mutex<HashSet<Digest>>>,
}

impl AttestationService for TracedAttestation {
    fn register<'a>(
        &'a self,
        agent: &'a Agent,
        rng: &'a mut dyn RandomSource,
    ) -> BoxFuture<'a, Result<(), RegisterError>> {
        if let Some(aik) = agent
            .machine()
            .with_tpm(|t| t.aik_pub().map(PublicKey::fingerprint))
        {
            lock(&self.aiks).insert(aik);
        }
        self.rec
            .timed("keylime.register", self.inner.register(agent, rng))
    }
    fn registered_ek(&self, agent_id: &str) -> Option<PublicKey> {
        self.rec.scope("keylime.registered_ek", || {
            self.inner.registered_ek(agent_id)
        })
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
        self.rec.scope("keylime.enroll", || {
            self.inner.enroll(
                agent,
                boot_whitelist,
                ima_whitelist,
                v_share,
                sealed_payload,
                payload_wire_bytes,
            )
        });
    }
    fn attest_once<'a>(
        &'a self,
        node_id: &'a str,
        continuous: bool,
    ) -> BoxFuture<'a, AttestOutcome> {
        self.rec.timed(
            "keylime.attest_once",
            self.inner.attest_once(node_id, continuous),
        )
    }
    fn stop(&self, node_id: &str) {
        self.rec.scope("keylime.stop", || self.inner.stop(node_id));
    }
}

/// The provisioning service (BMI) behind spans named `bmi.*`.
pub struct TracedProvisioning {
    inner: Arc<dyn ProvisioningService>,
    rec: Arc<Recorder>,
}

impl ProvisioningService for TracedProvisioning {
    fn clone_for_server(&self, golden: ImageId, server_name: &str) -> Result<ImageId, BmiError> {
        self.rec.scope("bmi.clone_for_server", || {
            self.inner.clone_for_server(golden, server_name)
        })
    }
    fn extract_boot_info(&self, image: ImageId) -> Result<(KernelImage, String), BmiError> {
        self.rec.scope("bmi.extract_boot_info", || {
            self.inner.extract_boot_info(image)
        })
    }
    fn boot_target(&self, image: ImageId, transport: Transport, read_ahead: u64) -> IscsiTarget {
        self.rec.scope("bmi.boot_target", || {
            self.inner.boot_target(image, transport, read_ahead)
        })
    }
    fn release(&self, image: ImageId, keep: bool) -> Result<(), BmiError> {
        self.rec
            .scope("bmi.release", || self.inner.release(image, keep))
    }
}

/// The boot service (firmware and machine) behind spans named
/// `firmware.*`.
pub struct TracedBoot {
    inner: Arc<dyn BootService>,
    rec: Arc<Recorder>,
}

impl BootService for TracedBoot {
    fn machine(&self, node: NodeId) -> Machine {
        self.rec
            .scope("firmware.machine", || self.inner.machine(node))
    }
    fn good_firmware(&self, kind: FirmwareKind) -> FirmwareImage {
        self.rec
            .scope("firmware.good_firmware", || self.inner.good_firmware(kind))
    }
    fn run_firmware<'a>(
        &'a self,
        machine: &'a Machine,
    ) -> BoxFuture<'a, Result<FirmwareKind, MachineError>> {
        self.rec
            .timed("firmware.run_firmware", self.inner.run_firmware(machine))
    }
    fn measure_download(
        &self,
        machine: &Machine,
        name: &str,
        digest: Digest,
    ) -> Result<(), MachineError> {
        self.rec.scope("firmware.measure_download", || {
            self.inner.measure_download(machine, name, digest)
        })
    }
    fn kexec(
        &self,
        machine: &Machine,
        kernel: KernelImage,
        tenant: &str,
    ) -> Result<(), MachineError> {
        self.rec.scope("firmware.kexec", || {
            self.inner.kexec(machine, kernel, tenant)
        })
    }
    fn scrub(&self, machine: &Machine) {
        self.rec
            .scope("firmware.scrub", || self.inner.scrub(machine));
    }
}
