//! The tenant orchestration "scripts": Figure 1's six-step life cycle,
//! end to end, with per-phase timing (Figure 4's breakdown).
//!
//! The different Bolted components never talk to each other directly —
//! exactly as in the paper, everything is driven from here, and a tenant
//! can swap any piece out. This file enforces that boundary in the type
//! system: the orchestrator holds a [`Services`] bundle of object-safe
//! traits (isolation, attestation, provisioning, boot) plus a
//! [`TenantEnv`] of ambient context, and never reaches into backend
//! internals. Provisioning itself is a fixed sequence of phase
//! methods; faults, retries, spans and counters all flow through the one
//! instrumented call envelope in `bolted_sim::call`.

use bolted_sim::lock;
use std::collections::HashSet;
use std::future::Future;
use std::sync::{Arc, Mutex};

use bolted_bmi::BmiError;
use bolted_crypto::chacha20::Key;
use bolted_crypto::secret::Secret;
use bolted_crypto::sha256::Digest;
use bolted_firmware::{FirmwareKind, KernelImage, Machine, MachineError};
use bolted_hil::{HilError, NetworkId, NodeId};
use bolted_keylime::{
    agent_binary_digest, split_key, Agent, AttestOutcome, ImaWhitelist, RegisterError,
    TenantPayload, Verifier, VerifierConfig,
};
use bolted_net::NetError;
use bolted_sim::fault::mix_seed;
use bolted_sim::{join_all, Metrics, RetryError, Rng, SimDuration, SimTime};
use bolted_storage::{ImageError, ImageId, IscsiTarget};

use crate::cloud::{heads_runtime_digest, ipxe_digest, Cloud};
use crate::lifecycle::{InvalidTransition, Lifecycle, NodeState};
use crate::profile::{AttestationMode, SecurityProfile};
use crate::services::{KeylimeAttestation, Services, TenantEnv};

/// Errors from provisioning.
#[derive(Debug)]
pub enum ProvisionError {
    /// Isolation-service failure.
    Hil(HilError),
    /// Provisioning-service failure.
    Bmi(BmiError),
    /// Machine-level failure.
    Machine(MachineError),
    /// Storage-path failure surfaced during boot I/O.
    Storage(ImageError),
    /// The node failed attestation and was quarantined.
    Rejected(String),
    /// The life-cycle tracker refused a state transition. This is an
    /// orchestration bug surfaced as an error, not a panic, so one sick
    /// node cannot take down a whole fleet call.
    IllegalTransition(InvalidTransition),
    /// An infrastructure operation kept failing after bounded retries;
    /// the node was released back to the free pool.
    Exhausted {
        /// Which operation gave out.
        op: String,
        /// Attempts made, including the first.
        attempts: u32,
        /// The last error observed.
        last: String,
    },
}

impl std::fmt::Display for ProvisionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProvisionError::Hil(e) => write!(f, "HIL: {e}"),
            ProvisionError::Bmi(e) => write!(f, "BMI: {e}"),
            ProvisionError::Machine(e) => write!(f, "machine: {e}"),
            ProvisionError::Storage(e) => write!(f, "storage: {e}"),
            ProvisionError::Rejected(r) => write!(f, "attestation rejected: {r}"),
            ProvisionError::IllegalTransition(t) => write!(f, "life-cycle violation: {t}"),
            ProvisionError::Exhausted { op, attempts, last } => {
                write!(
                    f,
                    "retries exhausted after {attempts} attempts at {op}: {last}"
                )
            }
        }
    }
}

impl std::error::Error for ProvisionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProvisionError::Hil(e) => Some(e),
            ProvisionError::Bmi(e) => Some(e),
            ProvisionError::Machine(e) => Some(e),
            ProvisionError::Storage(e) => Some(e),
            ProvisionError::IllegalTransition(t) => Some(t),
            // These summarise a decision, not a wrapped failure: the
            // underlying cause (if any) is already flattened into text.
            ProvisionError::Rejected(_) | ProvisionError::Exhausted { .. } => None,
        }
    }
}

impl From<HilError> for ProvisionError {
    fn from(e: HilError) -> Self {
        ProvisionError::Hil(e)
    }
}
impl From<BmiError> for ProvisionError {
    fn from(e: BmiError) -> Self {
        ProvisionError::Bmi(e)
    }
}
impl From<MachineError> for ProvisionError {
    fn from(e: MachineError) -> Self {
        ProvisionError::Machine(e)
    }
}
impl From<ImageError> for ProvisionError {
    fn from(e: ImageError) -> Self {
        ProvisionError::Storage(e)
    }
}
impl From<InvalidTransition> for ProvisionError {
    fn from(t: InvalidTransition) -> Self {
        ProvisionError::IllegalTransition(t)
    }
}
impl From<RegisterError> for ProvisionError {
    fn from(e: RegisterError) -> Self {
        ProvisionError::Rejected(format!("registration: {e}"))
    }
}

/// Infrastructure errors worth retrying: the BMC or the switch
/// management plane did not answer. Everything else (ownership, missing
/// nodes, VLAN exhaustion) is a real error the caller must see at once.
fn hil_transient(e: &HilError) -> bool {
    matches!(
        e,
        HilError::Bmc(_) | HilError::Switch(NetError::SwitchUnreachable)
    )
}

/// Per-phase timing of one provisioning run (Figure 4's stacked bars).
#[derive(Debug, Clone)]
pub struct ProvisionReport {
    /// Node name.
    pub node: String,
    /// Profile name.
    pub profile: String,
    /// `(phase, duration)` in execution order.
    pub phases: Vec<(String, SimDuration)>,
    /// Start time.
    pub started: SimTime,
    /// Completion time.
    pub finished: SimTime,
}

impl ProvisionReport {
    /// Total wall-clock duration.
    pub fn total(&self) -> SimDuration {
        self.finished.since(self.started)
    }

    /// Duration of a named phase, if present.
    pub fn phase(&self, name: &str) -> Option<SimDuration> {
        self.phases.iter().find(|(n, _)| n == name).map(|(_, d)| *d)
    }

    /// Renders the breakdown as an aligned text table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} [{}] total {}",
            self.node,
            self.profile,
            self.total()
        );
        for (name, d) in &self.phases {
            let _ = writeln!(out, "  {name:<22} {:>10.2}s", d.as_secs_f64());
        }
        out
    }
}

/// Adapts the simulator's deterministic RNG to the crypto crate's
/// [`bolted_crypto::RandomSource`] trait.
pub struct SimRngSource<'a>(pub &'a mut Rng);

impl bolted_crypto::RandomSource for SimRngSource<'_> {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

struct PhaseTimer {
    sim: bolted_sim::Sim,
    last: SimTime,
    phases: Vec<(String, SimDuration)>,
}

impl PhaseTimer {
    fn new(sim: &bolted_sim::Sim) -> Self {
        PhaseTimer {
            sim: sim.clone(),
            last: sim.now(),
            phases: Vec::new(),
        }
    }

    fn mark(&mut self, name: &str) {
        let now = self.sim.now();
        self.phases.push((name.to_string(), now.since(self.last)));
        self.last = now;
    }
}

/// One node that could not be provisioned in a fleet call.
#[derive(Debug)]
pub struct FleetFailure {
    /// The HIL node.
    pub node: NodeId,
    /// Node name (empty if even the name lookup failed).
    pub name: String,
    /// Why provisioning failed.
    pub error: ProvisionError,
}

/// Outcome of [`Tenant::provision_fleet_report`]. A node that exhausts
/// its retries is released back to the free pool and listed in `failed`
/// instead of poisoning the whole fleet call.
pub struct FleetReport {
    /// Nodes that came up, in input order.
    pub succeeded: Vec<ProvisionedNode>,
    /// Nodes that failed, in input order.
    pub failed: Vec<FleetFailure>,
}

/// A provisioned node handed back to the tenant.
pub struct ProvisionedNode {
    /// HIL node id.
    pub node: NodeId,
    /// The machine (for power ops, RAM-residue checks in tests).
    pub machine: Machine,
    /// The Keylime agent, when the profile attests.
    pub agent: Option<Agent>,
    /// The node's root-disk session.
    pub target: IscsiTarget,
    /// The node's root volume.
    pub image: ImageId,
    /// Timing breakdown.
    pub report: ProvisionReport,
    /// Life-cycle trace.
    pub lifecycle: Lifecycle,
    /// Enclave IPsec PSK (empty when unencrypted).
    pub psk: Vec<u8>,
}

/// The state one provisioning run threads through its phases: what the
/// abandon path and the final report read. Everything else a phase
/// produces (kernel, agent, target) is an argument of the next.
struct Ctx {
    node: NodeId,
    name: String,
    machine: Machine,
    lc: Lifecycle,
    timer: PhaseTimer,
    /// Per-node jitter stream for retry backoff, seeded independently
    /// of the tenant RNG: the fault-free path draws from neither, so
    /// an empty fault plan reproduces timings exactly.
    retry_rng: Rng,
    /// The cloned root volume, once it exists; an abandon releases it.
    image: Option<ImageId>,
}

/// The `op` of the [`ProvisionError::Exhausted`] a run reports when the
/// verifier never reached the node.
const VERIFIER_ATTEST: &str = "verifier.attest";

/// A tenant session: project, enclave networks, attestation services.
///
/// For Charlie these services are tenant-deployed; for Bob the *same*
/// code runs under the provider's roof — the paper's point is that the
/// mechanism is identical and only trust placement differs.
#[derive(Clone)]
pub struct Tenant {
    /// Project name (HIL ownership unit).
    pub project: String,
    env: TenantEnv,
    services: Services,
    /// The attestation verifier (exposed for continuous attestation).
    pub verifier: Verifier,
    enclave: NetworkId,
    airlock_net: NetworkId,
    ima_whitelist: Arc<Mutex<ImaWhitelist>>,
    rng: Arc<Mutex<Rng>>,
}

impl Tenant {
    /// Creates a tenant session with default verifier timings.
    pub fn new(cloud: &Cloud, project: &str) -> Result<Tenant, ProvisionError> {
        Self::with_verifier_config(cloud, project, VerifierConfig::default())
    }

    /// Creates a tenant session with explicit verifier configuration.
    pub fn with_verifier_config(
        cloud: &Cloud,
        project: &str,
        config: VerifierConfig,
    ) -> Result<Tenant, ProvisionError> {
        // The tenant's Keylime services run over the same (faultable)
        // network as everything else.
        let attestation = KeylimeAttestation::new(cloud, config);
        let verifier = attestation.verifier().clone();
        let services = Services::of_cloud(cloud, Arc::new(attestation));
        let env = TenantEnv::of_cloud(cloud);
        Self::with_backend(project, env, services, verifier)
    }

    /// Creates a tenant session over an arbitrary backend. This is how
    /// a real-hardware deployment (or a test mock) plugs in: implement
    /// the four service traits, bundle them, and the orchestration is
    /// unchanged.
    pub fn with_backend(
        project: &str,
        env: TenantEnv,
        services: Services,
        verifier: Verifier,
    ) -> Result<Tenant, ProvisionError> {
        let enclave = services
            .isolation
            .create_network(project, format!("{project}-enclave"))?;
        let airlock_net = services
            .isolation
            .create_network(project, format!("{project}-airlock"))?;
        Ok(Tenant {
            project: project.to_string(),
            env,
            services,
            verifier,
            enclave,
            airlock_net,
            ima_whitelist: Arc::new(Mutex::new(ImaWhitelist::new())),
            rng: Arc::new(Mutex::new(Rng::seed_from_u64(
                0xB01Du64 ^ project.len() as u64,
            ))),
        })
    }

    /// The simulation this tenant's backend runs on.
    pub fn sim(&self) -> bolted_sim::Sim {
        self.env.sim().clone()
    }

    /// Sets the IMA whitelist used for nodes provisioned from now on.
    pub fn set_ima_whitelist(&self, wl: ImaWhitelist) {
        *lock(&self.ima_whitelist) = wl;
    }

    /// Nodes the isolation service currently has free (unowned and not
    /// quarantined), in ascending id order — the pool a reconciler
    /// claims convergence work from.
    pub fn free_nodes(&self) -> Vec<NodeId> {
        self.services.isolation.free_nodes()
    }

    /// Creates an additional tenant data network (beyond the enclave +
    /// airlock pair every tenant starts with), drawing a VLAN from the
    /// shared pool under this project's quota.
    pub fn create_data_network(&self, name: &str) -> Result<NetworkId, ProvisionError> {
        self.services
            .isolation
            .create_network(&self.project, name.to_string())
            .map_err(ProvisionError::Hil)
    }

    /// The tenant's metrics handle (shared with its call envelope).
    pub(crate) fn metrics(&self) -> &Metrics {
        self.env.call.metrics()
    }

    /// The measurements this tenant accepts during boot attestation: its
    /// own reproducible LinuxBoot build, the provider-published platform
    /// (UEFI) whitelist from HIL, the measuring iPXE, the Heads runtime,
    /// and the Keylime agent binary.
    pub fn boot_whitelist(&self, node: NodeId) -> HashSet<Digest> {
        let mut wl = HashSet::new();
        wl.insert(
            self.services
                .boot
                .good_firmware(FirmwareKind::LinuxBoot)
                .build_id,
        );
        if let Ok(md) = self.services.isolation.node_metadata(node) {
            for d in md.platform_whitelist {
                wl.insert(d);
            }
        }
        wl.insert(ipxe_digest());
        wl.insert(heads_runtime_digest());
        wl.insert(agent_binary_digest());
        wl
    }

    /// Verifies the node's published EK matches what the agent
    /// registered with (anti-spoofing, §5: "ensuring that the tenant is
    /// able to confirm that the server she received is indeed the one
    /// she reserved").
    pub fn verify_node_identity(&self, node: NodeId, agent_id: &str) -> bool {
        let Ok(md) = self.services.isolation.node_metadata(node) else {
            return false;
        };
        let Some(published) = md.ek_pub else {
            return false;
        };
        let Some(registered) = self.services.attestation.registered_ek(agent_id) else {
            return false;
        };
        published.fingerprint() == registered.fingerprint()
    }

    /// Best-effort cleanup after the infrastructure gave out
    /// mid-provision. The node never held tenant secrets it could leak
    /// to a later tenant (attestation did not complete), so it returns
    /// to the free pool — not quarantine — and the cloned volume, if
    /// the run got that far, is deleted. Every step is advisory:
    /// whatever state was never reached is skipped.
    fn abandon(&self, cx: &mut Ctx, cause: &str) {
        let sim = self.env.sim();
        self.services.attestation.stop(&cx.name);
        let _ = cx.lc.transition(sim, NodeState::Free);
        let _ = self.services.isolation.detach_node(&self.project, cx.node);
        let _ = self.services.isolation.free_node(&self.project, cx.node);
        if let Some(image) = cx.image {
            let _ = self.services.provisioning.release(image, false);
        }
        // The span event is what makes the abandon *reconcilable*: a
        // control loop (or a human reading the trace) sees which node
        // went back to Free and why, not just the lifecycle edge.
        let spans = self.env.call.spans();
        let id = spans.event(sim, "tenant", "abandon", &cx.name);
        spans.attr(id, "node", cx.node.0.to_string());
        spans.attr(id, "cause", cause);
    }

    /// Runs `op` through the call envelope, retrying only errors
    /// `transient` accepts. A non-transient error propagates unchanged;
    /// exhaustion becomes [`ProvisionError::Exhausted`], which
    /// [`Tenant::provision`] answers by abandoning the node. Every
    /// re-attempt bumps `retry_attempts{op,target}` (`target` is the
    /// node the op serves).
    async fn retry<T, E, F, Fut, P>(
        &self,
        op_name: &str,
        target: &str,
        rng: &mut Rng,
        op: F,
        transient: P,
    ) -> Result<T, ProvisionError>
    where
        F: FnMut() -> Fut,
        Fut: Future<Output = Result<T, E>>,
        P: Fn(&E) -> bool,
        E: std::fmt::Display,
        ProvisionError: From<E>,
    {
        self.env
            .call
            .call(rng, op_name, target, op, transient)
            .await
            .map_err(|e| match e {
                RetryError::Fatal { error, .. } => error.into(),
                RetryError::Exhausted { attempts, last } => ProvisionError::Exhausted {
                    op: op_name.to_string(),
                    attempts,
                    last: last.to_string(),
                },
            })
    }

    /// Power-cycles `node` through its BMC, retried.
    async fn power_cycle(
        &self,
        node: NodeId,
        name: &str,
        rng: &mut Rng,
    ) -> Result<(), ProvisionError> {
        let (isolation, project) = (&self.services.isolation, &self.project);
        let cycle = move || async move { isolation.power_cycle(project, node) };
        self.retry("hil.power_cycle", name, rng, cycle, hil_transient)
            .await
    }

    /// Connects the run's node to `net`, retried.
    async fn connect(&self, cx: &mut Ctx, net: NetworkId) -> Result<(), ProvisionError> {
        let (isolation, project, node) = (&self.services.isolation, &self.project, cx.node);
        let connect = move || async move { isolation.connect_node(project, node, net) };
        self.retry(
            "hil.connect_node",
            &cx.name,
            &mut cx.retry_rng,
            connect,
            hil_transient,
        )
        .await
    }

    /// Provisions `node` from the `golden` image under `profile`,
    /// following Figure 1. Returns the node with its timing breakdown.
    ///
    /// The whole run is wrapped in a `tenant/provision` span carrying
    /// `profile` and `outcome` attributes; per-phase child spans
    /// (power-cycle, firmware, registrar, quote-verify, iscsi-attach,
    /// luks-unlock) nest under it, so the paper's Figure 4 breakdown can
    /// be reproduced from the span tree alone.
    pub async fn provision(
        &self,
        node: NodeId,
        profile: &SecurityProfile,
        golden: ImageId,
    ) -> Result<ProvisionedNode, ProvisionError> {
        let sim = self.env.sim();
        let spans = self.env.call.spans();
        let name = self.services.isolation.node_name(node)?;
        let root = spans.begin(sim, "tenant", "provision", &name);
        spans.attr(root, "profile", profile.name.clone());
        let result = self.provision_impl(node, name, profile, golden).await;
        let outcome = match &result {
            Ok(_) => "ok",
            Err(ProvisionError::Rejected(_)) => "rejected",
            Err(ProvisionError::Exhausted { .. }) => "exhausted",
            Err(_) => "error",
        };
        spans.attr(root, "outcome", outcome);
        // Closing the root pops any phase span an error path left open.
        spans.end(sim, root);
        self.env.call.metrics().inc(
            "provision_outcomes",
            &[("profile", &profile.name), ("outcome", outcome)],
        );
        result
    }

    /// Sets up one run's [`Ctx`], runs the phases, and abandons the
    /// node when an infrastructure operation gave out — the one place a
    /// provisioning run releases a node back to the free pool.
    async fn provision_impl(
        &self,
        node: NodeId,
        name: String,
        profile: &SecurityProfile,
        golden: ImageId,
    ) -> Result<ProvisionedNode, ProvisionError> {
        let sim = self.env.sim().clone();
        let mut cx = Ctx {
            node,
            machine: self.services.boot.machine(node),
            lc: Lifecycle::new(&sim),
            timer: PhaseTimer::new(&sim),
            retry_rng: Rng::seed_from_u64(mix_seed(0x52E7_8A11, &["provision", &name])),
            image: None,
            name,
        };
        let started = sim.now();
        let (image, agent, psk, target) = match self.run_phases(&mut cx, profile, golden).await {
            Ok(booted) => booted,
            Err(e) => {
                if let ProvisionError::Exhausted { op, attempts, .. } = &e {
                    let cause = if op == VERIFIER_ATTEST {
                        format!("verifier unreachable after {attempts} attempts")
                    } else {
                        e.to_string()
                    };
                    self.abandon(&mut cx, &cause);
                }
                return Err(e);
            }
        };
        Ok(ProvisionedNode {
            node,
            machine: cx.machine,
            agent,
            target,
            image,
            report: ProvisionReport {
                node: cx.name,
                profile: profile.name.clone(),
                phases: cx.timer.phases,
                started,
                finished: sim.now(),
            },
            lifecycle: cx.lc,
            psk,
        })
    }

    /// Runs Figure 1's steps in order, each against the service traits
    /// only, and returns the root volume, the agent (when the profile
    /// attests), the enclave PSK and the root-disk session. The
    /// power-cycle and firmware spans (feeding the Figure-4
    /// `provision_phase_seconds` histogram) open and close here; phases
    /// whose spans are conditional (registrar, luks-unlock, iscsi-attach)
    /// open them inside their body. A failing phase leaves its span open
    /// for the root close to pop, so the error path is visible in the
    /// trace.
    async fn run_phases(
        &self,
        cx: &mut Ctx,
        profile: &SecurityProfile,
        golden: ImageId,
    ) -> Result<(ImageId, Option<Agent>, Vec<u8>, IscsiTarget), ProvisionError> {
        self.phase_allocate(cx, profile).await?;
        let span = self.env.call.open_phase("tenant", "power-cycle", &cx.name);
        self.power_cycle(cx.node, &cx.name, &mut cx.retry_rng)
            .await?;
        self.env
            .call
            .close_phase(span, "provision_phase_seconds", "power-cycle");
        let span = self.env.call.open_phase("tenant", "firmware", &cx.name);
        self.services.boot.run_firmware(&cx.machine).await?;
        cx.timer.mark("post");
        self.env
            .call
            .close_phase(span, "provision_phase_seconds", "firmware");
        self.phase_chain_load(cx).await?;
        let (image, kernel, cmdline) = self.phase_image_clone(cx, golden)?;
        let (agent, psk) = self
            .phase_attestation(cx, profile, image, &kernel, cmdline)
            .await?;
        self.phase_enclave_join(cx).await?;
        let target = self.phase_boot(cx, profile, image, kernel).await?;
        Ok((image, agent, psk, target))
    }

    /// Step 1: allocate, and for attested flows enter the airlock
    /// network. (The serialising airlock *slot* is taken later, for
    /// the attestation window only.)
    async fn phase_allocate(
        &self,
        cx: &mut Ctx,
        profile: &SecurityProfile,
    ) -> Result<(), ProvisionError> {
        self.services
            .isolation
            .allocate_node(&self.project, cx.node)?;
        if profile.attested() {
            cx.lc.transition(self.env.sim(), NodeState::Airlock)?;
            self.connect(cx, self.airlock_net).await?;
        }
        Ok(())
    }

    /// UEFI flash only: chain-load the LinuxBoot runtime via measuring
    /// iPXE.
    async fn phase_chain_load(&self, cx: &mut Ctx) -> Result<(), ProvisionError> {
        if cx.machine.flash().kind != FirmwareKind::Uefi {
            return Ok(());
        }
        let sim = self.env.sim().clone();
        let calib = &self.env.calib;
        sim.sleep(calib.pxe_dhcp).await;
        self.env.http.visit(calib.download(calib.ipxe_size)).await;
        self.services
            .boot
            .measure_download(&cx.machine, "ipxe", ipxe_digest())?;
        cx.timer.mark("pxe-ipxe");
        self.env
            .http
            .visit(calib.download(calib.heads_runtime_size))
            .await;
        self.services.boot.measure_download(
            &cx.machine,
            "heads-runtime",
            heads_runtime_digest(),
        )?;
        cx.timer.mark("download-heads");
        sim.sleep(calib.heads_runtime_boot).await;
        cx.timer.mark("heads-boot");
        Ok(())
    }

    /// Clone the root volume and extract boot info (BMI): the volume,
    /// the tenant kernel and its command line.
    fn phase_image_clone(
        &self,
        cx: &mut Ctx,
        golden: ImageId,
    ) -> Result<(ImageId, KernelImage, String), ProvisionError> {
        let image = self
            .services
            .provisioning
            .clone_for_server(golden, &cx.name)?;
        cx.image = Some(image);
        let (kernel, cmdline) = self.services.provisioning.extract_boot_info(image)?;
        Ok((image, kernel, cmdline))
    }

    /// Steps 3-5: attestation (or direct download for Alice). Returns the
    /// agent, when the profile attests, and the enclave PSK.
    async fn phase_attestation(
        &self,
        cx: &mut Ctx,
        profile: &SecurityProfile,
        image: ImageId,
        kernel: &KernelImage,
        cmdline: String,
    ) -> Result<(Option<Agent>, Vec<u8>), ProvisionError> {
        let sim = self.env.sim().clone();
        let calib = &self.env.calib;
        if profile.attestation == AttestationMode::None {
            self.env
                .http
                .visit(calib.download(calib.kernel_initrd_size))
                .await;
            cx.timer.mark("download-kernel");
            return Ok((None, Vec::new()));
        }
        // The prototype supports one airlock: the attestation window
        // (agent download through quote verification) is serialised
        // across nodes (§7.3).
        let airlock_permit = self.env.airlock.acquire().await;
        cx.timer.mark("airlock-wait");
        self.env.http.visit(calib.download(calib.agent_size)).await;
        self.services
            .boot
            .measure_download(&cx.machine, "keylime-agent", agent_binary_digest())?;
        cx.timer.mark("download-agent");
        sim.sleep(calib.agent_startup).await;
        let agent = Agent::start(&sim, &cx.name, &cx.machine).await;
        let phase = self.env.call.open_phase("tenant", "registrar", &cx.name);
        // Fork a task-local RNG: RefCell borrows must never be held
        // across an await.
        let mut task_rng = lock(&self.rng).fork();
        let first_try = {
            let mut src = SimRngSource(&mut task_rng);
            self.services.attestation.register(&agent, &mut src).await
        };
        if let Err(e) = first_try {
            if !e.is_transient() {
                return Err(e.into());
            }
            // The registration round-trip was dropped: retry it. The
            // first attempt ran inline off task_rng so that fault-free
            // runs consume exactly the same RNG stream as before this
            // retry existed; only the (already off-schedule) retries
            // fork, each from a parent the closure owns.
            let mut parent = task_rng.fork();
            let (attestation, agent) = (&self.services.attestation, &agent);
            let register = move || {
                let mut r = parent.fork();
                async move {
                    let mut src = SimRngSource(&mut r);
                    attestation.register(agent, &mut src).await
                }
            };
            self.retry(
                "keylime.register",
                &cx.name,
                &mut cx.retry_rng,
                register,
                RegisterError::is_transient,
            )
            .await?;
        }
        self.env
            .call
            .close_phase(phase, "provision_phase_seconds", "registrar");
        cx.timer.mark("keylime-register");
        debug_assert!(self.verify_node_identity(cx.node, &cx.name));
        // Build the sealed payload and split the bootstrap key.
        let (k, u, v) = {
            let mut kb = [0u8; 32];
            task_rng.fill_bytes(&mut kb);
            let k = Key(kb);
            let mut src = SimRngSource(&mut task_rng);
            let (u, v) = split_key(&k, &mut src);
            (k, u, v)
        };
        let psk = if profile.net_encryption {
            format!("{}-enclave-psk", self.project).into_bytes()
        } else {
            Vec::new()
        };
        let luks_pass = if profile.disk_encryption {
            format!("{}-luks-{}", self.project, cx.name).into_bytes()
        } else {
            Vec::new()
        };
        let payload = TenantPayload {
            kernel_name: kernel.name.clone(),
            kernel_digest: kernel.digest,
            kernel_size: calib.kernel_initrd_size,
            cmdline,
            luks_passphrase: Secret::named("luks_passphrase", luks_pass),
            ipsec_psk: psk.clone(),
            script: "verify-enclave-network && store-keys-in-initrd && kexec".into(),
        };
        let sealed = payload.seal(&k);
        // Benign half of the split key: U alone reveals nothing.
        self.env
            .call
            .spans()
            .event(&sim, "key", "u-share", &cx.name);
        agent.deliver_u(u);
        // The tenant also whitelists its own kernel: after kexec,
        // continuous attestation will see it in PCR 5.
        let mut boot_wl = self.boot_whitelist(cx.node);
        boot_wl.insert(kernel.digest);
        self.services.attestation.enroll(
            &agent,
            boot_wl,
            lock(&self.ima_whitelist).clone(),
            Some(v),
            sealed,
            calib.kernel_initrd_size,
        );
        match self.services.attestation.attest_once(&cx.name, false).await {
            AttestOutcome::Trusted => {}
            AttestOutcome::Unreachable { attempts } => {
                // The verifier could not *reach* the node even after its
                // own retries. That is an infrastructure failure, not
                // evidence of compromise: the node is abandoned, not
                // quarantined.
                return Err(ProvisionError::Exhausted {
                    op: VERIFIER_ATTEST.into(),
                    attempts,
                    last: format!("quote round-trip failed after {attempts} attempts"),
                });
            }
            AttestOutcome::Failed(reason) => {
                // Step 5 (failure): move to the rejected pool and clean
                // up the cloned volume.
                cx.lc.transition(&sim, NodeState::Rejected)?;
                self.services
                    .isolation
                    .detach_node(&self.project, cx.node)?;
                self.services.isolation.free_node(&self.project, cx.node)?;
                self.services.isolation.quarantine(cx.node);
                let _ = self.services.provisioning.release(image, false);
                return Err(ProvisionError::Rejected(reason));
            }
        }
        // Persist the bootstrap key sealed to this boot state so an
        // identical warm reboot can skip the U/V dance.
        agent.seal_bootstrap();
        cx.timer.mark("attest+payload");
        drop(airlock_permit);
        Ok((Some(agent), psk))
    }

    /// Step 4/6: leave the airlock, join the tenant enclave.
    async fn phase_enclave_join(&self, cx: &mut Ctx) -> Result<(), ProvisionError> {
        self.connect(cx, self.enclave).await?;
        let sim = self.env.sim();
        sim.sleep(self.env.calib.network_move).await;
        cx.lc.transition(sim, NodeState::Allocated)?;
        cx.timer.mark("network-move");
        Ok(())
    }

    /// kexec into the tenant kernel and boot from the network disk;
    /// returns the root-disk session.
    async fn phase_boot(
        &self,
        cx: &mut Ctx,
        profile: &SecurityProfile,
        image: ImageId,
        kernel: KernelImage,
    ) -> Result<IscsiTarget, ProvisionError> {
        let sim = self.env.sim().clone();
        let calib = &self.env.calib;
        self.services
            .boot
            .kexec(&cx.machine, kernel, &self.project)?;
        let target = self.services.provisioning.boot_target(
            image,
            profile.storage_transport(),
            profile.read_ahead,
        );
        if profile.disk_encryption {
            let phase = self.env.call.open_phase("tenant", "luks-unlock", &cx.name);
            sim.sleep(calib.luks_unlock).await;
            self.env
                .call
                .close_phase(phase, "provision_phase_seconds", "luks-unlock");
        }
        if profile.net_encryption {
            sim.sleep(calib.ipsec_setup).await;
        }
        // Boot is sequential: read a unit from the root disk, run init
        // work, repeat — so I/O and CPU do not overlap, and a slower
        // (IPsec) disk directly lengthens kernel boot, as the paper
        // observes ("the major cost is ... the slower disk that is
        // accessed over IPsec").
        let phase = self.env.call.open_phase("tenant", "iscsi-attach", &cx.name);
        self.boot_reads(&target, &cx.name, &mut cx.retry_rng)
            .await?;
        self.env
            .call
            .close_phase(phase, "provision_phase_seconds", "iscsi-attach");
        sim.sleep(calib.kernel_boot_cpu).await;
        cx.timer.mark("kernel-boot");
        Ok(target)
    }

    /// The boot's disk reads: `boot_touched_bytes` from `target` in
    /// `boot_io_request` units, one `storage.read` retry per unit. The
    /// read closure borrows the target, so a read costs no clone of it.
    async fn boot_reads(
        &self,
        target: &IscsiTarget,
        name: &str,
        rng: &mut Rng,
    ) -> Result<(), ProvisionError> {
        let total = self.env.calib.boot_touched_bytes;
        let req = self.env.calib.boot_io_request;
        let transient = |e: &ImageError| matches!(e, ImageError::Transient);
        let mut off = 0u64;
        while off < total {
            let len = req.min(total - off);
            let read = move || async move {
                match target.read_timed(off, len).await {
                    // Only injected transient faults retry; the boot
                    // loop ignores every other read outcome.
                    Err(ImageError::Transient) => Err(ImageError::Transient),
                    _ => Ok(()),
                }
            };
            self.retry("storage.read", name, rng, read, transient)
                .await?;
            off += len;
        }
        Ok(())
    }

    /// Provisions a whole fleet concurrently: one sim task per node via
    /// [`Sim::spawn`](bolted_sim::Sim::spawn), instead of a sequential
    /// await-loop. Firmware boot, downloads and kernel boot all overlap
    /// in simulated time; only the attestation window itself stays
    /// serialised by the airlock semaphore (§7.3: "attestation for
    /// provisioning is currently serialized"). The per-node results are
    /// split into a report of successes and failures, each in input
    /// order.
    pub async fn provision_fleet_report(
        &self,
        nodes: &[NodeId],
        profile: &SecurityProfile,
        golden: ImageId,
    ) -> FleetReport {
        let sim = self.env.sim().clone();
        let handles: Vec<_> = nodes
            .iter()
            .map(|&node| {
                let tenant = self.clone();
                let profile = profile.clone();
                sim.spawn(async move { tenant.provision(node, &profile, golden).await })
            })
            .collect();
        let mut succeeded = Vec::new();
        let mut failed = Vec::new();
        for (&node, result) in nodes.iter().zip(join_all(handles).await) {
            match result {
                Ok(p) => succeeded.push(p),
                Err(error) => failed.push(FleetFailure {
                    node,
                    name: self.services.isolation.node_name(node).unwrap_or_default(),
                    error,
                }),
            }
        }
        FleetReport { succeeded, failed }
    }

    /// Warm restart: power-cycles an already-provisioned node and boots
    /// it back into the enclave using the TPM-sealed bootstrap key —
    /// **no registrar round, no verifier round, no U/V re-bootstrap**.
    ///
    /// This only works because the sealed blob's PCR policy *is* an
    /// attestation: if the firmware or boot code changed since the node
    /// was attested, `recover_bootstrap` fails and the caller must fall
    /// back to a full [`Tenant::provision`] (which will catch the
    /// tamper). Returns the timing report of the restart.
    pub async fn warm_restart(
        &self,
        pnode: &ProvisionedNode,
        profile: &SecurityProfile,
    ) -> Result<ProvisionReport, ProvisionError> {
        let sim = self.env.sim().clone();
        let calib = &self.env.calib;
        let started = sim.now();
        let mut timer = PhaseTimer::new(&sim);
        let machine = &pnode.machine;
        let agent = pnode.agent.as_ref().ok_or_else(|| {
            ProvisionError::Rejected("warm restart needs an attested node".into())
        })?;
        let mut retry_rng =
            Rng::seed_from_u64(mix_seed(0x52E7_8A12, &["warm-restart", &pnode.report.node]));
        // No abandon here, even on exhaustion: the node stays the
        // caller's either way.
        self.power_cycle(pnode.node, &pnode.report.node, &mut retry_rng)
            .await?;
        self.services.boot.run_firmware(machine).await?;
        timer.mark("post");
        // Re-fetch + measure the agent so PCR 4 replays the sealed policy.
        self.env.http.visit(calib.download(calib.agent_size)).await;
        self.services
            .boot
            .measure_download(machine, "keylime-agent", agent_binary_digest())?;
        timer.mark("download-agent");
        // The sealed key only opens if the measured chain is identical.
        agent
            .recover_bootstrap()
            .map_err(|e| ProvisionError::Rejected(format!("sealed-key recovery: {e}")))?;
        timer.mark("unseal");
        let payload = agent
            .payload()
            .ok_or_else(|| ProvisionError::Rejected("no cached payload".into()))?;
        let kernel = KernelImage::from_digest(
            &payload.kernel_name,
            payload.kernel_digest,
            payload.kernel_size,
        );
        self.services.boot.kexec(machine, kernel, &self.project)?;
        if profile.disk_encryption {
            sim.sleep(calib.luks_unlock).await;
        }
        if profile.net_encryption {
            sim.sleep(calib.ipsec_setup).await;
        }
        self.boot_reads(&pnode.target, &pnode.report.node, &mut retry_rng)
            .await?;
        sim.sleep(calib.kernel_boot_cpu).await;
        timer.mark("kernel-boot");
        Ok(ProvisionReport {
            node: pnode.report.node.clone(),
            profile: format!("{}-warm-restart", profile.name),
            phases: timer.phases,
            started,
            finished: sim.now(),
        })
    }

    /// Releases a node back to the free pool. With diskless provisioning
    /// there is nothing to scrub: the volume either persists (to restart
    /// later on any compatible node) or is deleted in the image store.
    pub async fn release(
        &self,
        mut pnode: ProvisionedNode,
        keep_volume: bool,
    ) -> Result<Lifecycle, ProvisionError> {
        let sim = self.env.sim();
        if let Some(agent) = &pnode.agent {
            self.services.attestation.stop(agent.id());
        }
        self.services
            .isolation
            .power_off(&self.project, pnode.node)?;
        self.services
            .isolation
            .free_node(&self.project, pnode.node)?;
        self.services
            .provisioning
            .release(pnode.image, keep_volume)?;
        pnode.lifecycle.transition(sim, NodeState::Free)?;
        Ok(pnode.lifecycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::CloudConfig;
    use bolted_firmware::KernelImage;
    use bolted_sim::Sim;

    fn golden(cloud: &Cloud) -> bolted_storage::ImageId {
        let kernel = KernelImage::from_bytes("fedora28-4.17.9", b"vmlinuz+initrd");
        cloud
            .bmi
            .create_golden("fedora28", 8 << 30, 7, &kernel, "root=/dev/sda ima=on")
            .expect("golden image")
    }

    fn build(firmware: FirmwareKind, nodes: usize) -> (Sim, Cloud) {
        let sim = Sim::new();
        let cloud = Cloud::build(
            &sim,
            CloudConfig {
                nodes,
                firmware,
                ..CloudConfig::default()
            },
        );
        (sim, cloud)
    }

    #[test]
    fn alice_unattested_linuxboot_under_3_minutes() {
        let (sim, cloud) = build(FirmwareKind::LinuxBoot, 2);
        let g = golden(&cloud);
        let tenant = Tenant::new(&cloud, "alice").expect("tenant");
        let node = cloud.nodes()[0];
        let p = sim
            .block_on(async move { tenant.provision(node, &SecurityProfile::alice(), g).await })
            .expect("provisions");
        let total = p.report.total().as_secs_f64();
        assert!(total < 180.0, "paper: under 3 minutes; got {total}s");
        assert!(total > 60.0, "sanity: {total}s");
        assert!(p.agent.is_none());
        assert_eq!(p.lifecycle.state(), NodeState::Allocated);
    }

    #[test]
    fn bob_attested_under_4_minutes_and_modest_overhead() {
        let (sim, cloud) = build(FirmwareKind::LinuxBoot, 2);
        let g = golden(&cloud);
        let alice_t = Tenant::new(&cloud, "alice").expect("tenant");
        let bob_t = Tenant::new(&cloud, "bob").expect("tenant");
        let nodes = cloud.nodes();
        let (a_total, b_total) = sim.block_on(async move {
            let a = alice_t
                .provision(nodes[0], &SecurityProfile::alice(), g)
                .await
                .expect("alice");
            let b = bob_t
                .provision(nodes[1], &SecurityProfile::bob(), g)
                .await
                .expect("bob");
            (
                a.report.total().as_secs_f64(),
                b.report.total().as_secs_f64(),
            )
        });
        assert!(b_total < 240.0, "paper: under 4 minutes; got {b_total}s");
        let overhead = (b_total - a_total) / a_total;
        assert!(
            (0.05..0.50).contains(&overhead),
            "attestation ≈25% overhead; got {:.0}% ({a_total}s vs {b_total}s)",
            overhead * 100.0
        );
    }

    #[test]
    fn charlie_full_attestation_gets_keys() {
        let (sim, cloud) = build(FirmwareKind::LinuxBoot, 2);
        let g = golden(&cloud);
        let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
        let node = cloud.nodes()[0];
        let p = sim
            .block_on(async move { tenant.provision(node, &SecurityProfile::charlie(), g).await })
            .expect("provisions");
        let agent = p.agent.as_ref().expect("agent present");
        let payload = agent.payload().expect("payload delivered");
        assert!(!payload.luks_passphrase.expose().is_empty());
        assert!(!payload.ipsec_psk.is_empty());
        assert_eq!(payload.ipsec_psk, p.psk);
        // Phases present in the breakdown.
        for phase in [
            "post",
            "download-agent",
            "attest+payload",
            "network-move",
            "kernel-boot",
        ] {
            assert!(p.report.phase(phase).is_some(), "missing phase {phase}");
        }
    }

    #[test]
    fn sector_stream_delivers_plaintext_but_stores_ciphertext() {
        // DESIGN §8 invariant 7: the tenant encrypts each sector with its
        // LUKS key before it leaves the node, so what the provider's
        // gateway and cluster hold is ciphertext only.
        use bolted_crypto::{SectorCipher, SECTOR_SIZE};
        let (sim, cloud) = build(FirmwareKind::LinuxBoot, 2);
        let g = golden(&cloud);
        let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
        let node = cloud.nodes()[0];
        sim.block_on(async move {
            let p = tenant
                .provision(node, &SecurityProfile::charlie(), g)
                .await
                .expect("provisions");
            // Tenant-side: derive the LUKS master key from the
            // passphrase bootstrapped through the sealed payload.
            let payload = p.agent.as_ref().expect("agent").payload().expect("payload");
            let key = Key(bolted_crypto::sha256(payload.luks_passphrase.expose()).0);
            let tenant_key = SectorCipher::new(&key);
            let other_key = SectorCipher::new(&Key([0xBB; 32]));
            let xor_sectors = |cipher: &SectorCipher, data: &mut [u8]| {
                for (i, sector) in data.chunks_mut(SECTOR_SIZE).enumerate() {
                    cipher.xor_sector(64 + i as u64, sector);
                }
            };
            let secret = b"tenant ledger";
            let plain: Vec<u8> = secret
                .iter()
                .cycle()
                .take(3 * SECTOR_SIZE)
                .copied()
                .collect();
            let offset = 64 * SECTOR_SIZE as u64;
            let mut sectors = plain.clone();
            xor_sectors(&tenant_key, &mut sectors);
            p.target.write(offset, &sectors).await.expect("writes");

            let mut mine = p.target.read(offset, plain.len()).await.expect("reads");
            xor_sectors(&tenant_key, &mut mine);
            assert_eq!(mine, plain, "tenant round-trips its plaintext");

            // Provider-side view of the same sectors (no key).
            let raw = p.target.read(offset, plain.len()).await.expect("reads");
            assert!(
                !raw.windows(secret.len()).any(|w| w == secret),
                "image at rest holds no plaintext window"
            );

            // Another tenant's key does not decrypt them.
            let mut theirs = raw;
            xor_sectors(&other_key, &mut theirs);
            assert_ne!(theirs, plain, "a second tenant key does not decrypt");
        });
    }

    #[test]
    fn fleet_provisioning_overlaps_in_sim_time() {
        // Four charlie nodes, sequentially vs. as one concurrent fleet
        // (fresh clouds so both runs start from identical state). Every
        // node must come up attested either way; the fleet run must
        // finish in less simulated time because firmware boot, downloads
        // and kernel boot overlap — only the airlock window serialises.
        let elapsed = |fleet: bool| -> (f64, usize) {
            let (sim, cloud) = build(FirmwareKind::LinuxBoot, 4);
            let g = golden(&cloud);
            let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
            let nodes = cloud.nodes();
            sim.block_on({
                let sim = sim.clone();
                async move {
                    let t0 = sim.now();
                    let ok = if fleet {
                        tenant
                            .provision_fleet_report(&nodes, &SecurityProfile::charlie(), g)
                            .await
                            .succeeded
                            .iter()
                            .filter(|p| p.agent.is_some())
                            .count()
                    } else {
                        let mut ok = 0;
                        for &n in &nodes {
                            let r = tenant.provision(n, &SecurityProfile::charlie(), g).await;
                            ok += usize::from(r.is_ok_and(|p| p.agent.is_some()));
                        }
                        ok
                    };
                    (sim.now().since(t0).as_secs_f64(), ok)
                }
            })
        };
        let (t_seq, ok_seq) = elapsed(false);
        let (t_fleet, ok_fleet) = elapsed(true);
        assert_eq!(ok_seq, 4);
        assert_eq!(ok_fleet, 4);
        assert!(
            t_fleet < t_seq * 0.75,
            "fleet {t_fleet}s vs sequential {t_seq}s"
        );
    }

    #[test]
    fn uefi_slower_than_linuxboot_mainly_post() {
        let (sim, cloud_lb) = build(FirmwareKind::LinuxBoot, 1);
        let g = golden(&cloud_lb);
        let t = Tenant::new(&cloud_lb, "bob").expect("tenant");
        let n = cloud_lb.nodes()[0];
        let lb = sim
            .block_on(async move { t.provision(n, &SecurityProfile::bob(), g).await })
            .expect("lb");
        let (sim2, cloud_uefi) = build(FirmwareKind::Uefi, 1);
        let g2 = golden(&cloud_uefi);
        let t2 = Tenant::new(&cloud_uefi, "bob").expect("tenant");
        let n2 = cloud_uefi.nodes()[0];
        let uefi = sim2
            .block_on(async move {
                t2.provision(n2, &SecurityProfile::bob().on_uefi(), g2)
                    .await
            })
            .expect("uefi");
        let diff = uefi.report.total().as_secs_f64() - lb.report.total().as_secs_f64();
        assert!(
            diff > 190.0,
            "UEFI adds ≥200s of POST (3x slower POST): diff {diff}s"
        );
        assert!(uefi.report.phase("download-heads").is_some());
    }

    #[test]
    fn tampered_firmware_is_rejected_and_quarantined() {
        let (sim, cloud) = build(FirmwareKind::LinuxBoot, 2);
        let g = golden(&cloud);
        let node = cloud.nodes()[0];
        // Previous tenant infected the flash.
        let m = cloud.machine(node);
        m.reflash(m.flash().tampered(b"spi bootkit"));
        let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
        let result = sim.block_on({
            let tenant = tenant.clone();
            async move { tenant.provision(node, &SecurityProfile::charlie(), g).await }
        });
        match result {
            Err(ProvisionError::Rejected(_)) => {}
            Err(other) => panic!("expected rejection, got {other}"),
            Ok(_) => panic!("tampered firmware must not provision"),
        }
        assert_eq!(cloud.rejected_pool(), vec![node]);
        // The node never reached the tenant enclave, and no keys leaked.
    }

    #[test]
    fn alice_is_not_protected_from_tampered_firmware() {
        // The flip side of choice: Alice's unattested flow boots right
        // through a bootkit — exactly the risk she accepted.
        let (sim, cloud) = build(FirmwareKind::LinuxBoot, 1);
        let g = golden(&cloud);
        let node = cloud.nodes()[0];
        let m = cloud.machine(node);
        m.reflash(m.flash().tampered(b"spi bootkit"));
        let tenant = Tenant::new(&cloud, "alice").expect("tenant");
        let p = sim
            .block_on(async move { tenant.provision(node, &SecurityProfile::alice(), g).await })
            .expect("boots anyway");
        assert_eq!(p.lifecycle.state(), NodeState::Allocated);
    }

    #[test]
    fn release_returns_node_and_optionally_keeps_volume() {
        let (sim, cloud) = build(FirmwareKind::LinuxBoot, 1);
        let g = golden(&cloud);
        let tenant = Tenant::new(&cloud, "alice").expect("tenant");
        let node = cloud.nodes()[0];
        let lc = sim.block_on({
            let (tenant, cloud2) = (tenant.clone(), cloud.clone());
            async move {
                let p = tenant
                    .provision(node, &SecurityProfile::alice(), g)
                    .await
                    .expect("provisions");
                let lc = tenant.release(p, true).await.expect("releases");
                assert!(cloud2.store.lookup("m620-01-root").is_some(), "volume kept");
                lc
            }
        });
        assert_eq!(lc.state(), NodeState::Free);
        assert_eq!(cloud.hil.free_nodes().len(), 1);
    }

    #[test]
    fn a_released_node_leaves_no_key_material_in_the_verifier() {
        let (sim, cloud) = build(FirmwareKind::LinuxBoot, 1);
        let g = golden(&cloud);
        let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
        let node = cloud.nodes()[0];
        let (held, released_with) = sim.block_on({
            let tenant = tenant.clone();
            async move {
                let p = tenant
                    .provision(node, &SecurityProfile::charlie(), g)
                    .await
                    .expect("provisions");
                let name = p.agent.as_ref().expect("attested").id().to_string();
                tenant.release(p, false).await.expect("releases");
                let held = tenant.verifier.holds_key_material(&name);
                tenant.verifier.attest_once(&name, false).await;
                (held, name)
            }
        });
        assert!(
            !held,
            "the verifier still holds key material for {released_with}"
        );
        assert!(!tenant.verifier.holds_key_material(&released_with));
        assert_eq!(
            cloud.metrics.counter_total("key_releases"),
            1,
            "one release, at provisioning; none after release"
        );
    }

    #[test]
    fn two_tenants_enclaves_are_isolated() {
        let (sim, cloud) = build(FirmwareKind::LinuxBoot, 2);
        let g = golden(&cloud);
        let t1 = Tenant::new(&cloud, "charlie").expect("tenant");
        let t2 = Tenant::new(&cloud, "dave").expect("tenant");
        let nodes = cloud.nodes();
        sim.block_on({
            let (t1, t2) = (t1.clone(), t2.clone());
            let nodes = nodes.clone();
            async move {
                t1.provision(nodes[0], &SecurityProfile::alice(), g)
                    .await
                    .expect("t1");
                t2.provision(nodes[1], &SecurityProfile::alice(), g)
                    .await
                    .expect("t2");
            }
        });
        let h0 = cloud.hil.node_host(nodes[0]).expect("host");
        let h1 = cloud.hil.node_host(nodes[1]).expect("host");
        assert!(
            cloud.fabric.path(h0, h1).is_err(),
            "different tenants' nodes must not reach each other"
        );
    }

    #[test]
    fn provision_error_sources_chain_to_the_root_cause() {
        use std::error::Error as _;
        // HIL → switch: two-deep chain.
        let e = ProvisionError::Hil(HilError::Switch(NetError::SwitchUnreachable));
        let hil = e.source().expect("HIL source");
        assert!(hil.to_string().contains("switch"), "{hil}");
        let net = hil.source().expect("switch source");
        assert!(net.source().is_none(), "chain ends at the leaf");
        // Decisions carry no structured cause.
        let rejected = ProvisionError::Rejected("bad quote".into());
        assert!(rejected.source().is_none());
        let exhausted = ProvisionError::Exhausted {
            op: "hil.power_cycle".into(),
            attempts: 4,
            last: "BMC unreachable".into(),
        };
        assert!(exhausted.source().is_none());
    }
}

#[cfg(test)]
mod warm_restart_tests {
    use super::*;
    use crate::cloud::CloudConfig;
    use bolted_firmware::KernelImage;
    use bolted_sim::Sim;

    fn setup() -> (Sim, Cloud, bolted_storage::ImageId, Tenant) {
        let sim = Sim::new();
        let cloud = Cloud::build(
            &sim,
            CloudConfig {
                nodes: 1,
                ..CloudConfig::default()
            },
        );
        let kernel = KernelImage::from_bytes("fedora28", b"vmlinuz");
        let golden = cloud
            .bmi
            .create_golden("fedora28", 8 << 30, 7, &kernel, "")
            .expect("golden");
        let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
        (sim, cloud, golden, tenant)
    }

    #[test]
    fn warm_restart_is_much_faster_than_full_provision() {
        let (sim, cloud, golden, tenant) = setup();
        let node = cloud.nodes()[0];
        let (full, warm) = sim.block_on({
            let tenant = tenant.clone();
            async move {
                let p = tenant
                    .provision(node, &SecurityProfile::charlie(), golden)
                    .await
                    .expect("provisions");
                let full = p.report.total().as_secs_f64();
                let warm = tenant
                    .warm_restart(&p, &SecurityProfile::charlie())
                    .await
                    .expect("warm restarts")
                    .total()
                    .as_secs_f64();
                (full, warm)
            }
        });
        assert!(
            warm < full - 25.0,
            "warm restart skips AIK + registrar + verifier + payload: {full:.1}s vs {warm:.1}s"
        );
    }

    #[test]
    fn warm_restart_refuses_tampered_firmware() {
        let (sim, cloud, golden, tenant) = setup();
        let node = cloud.nodes()[0];
        let r = sim.block_on({
            let tenant = tenant.clone();
            let cloud = cloud.clone();
            async move {
                let p = tenant
                    .provision(node, &SecurityProfile::charlie(), golden)
                    .await
                    .expect("provisions");
                let m = cloud.machine(node);
                m.reflash(m.flash().tampered(b"implant while powered off"));
                tenant.warm_restart(&p, &SecurityProfile::charlie()).await
            }
        });
        match r {
            Err(ProvisionError::Rejected(reason)) => {
                assert!(reason.contains("sealed-key"), "{reason}");
            }
            _ => panic!("tampered firmware must break the sealed policy"),
        }
    }

    /// The kernel's IMA list does not survive the reboot: the first
    /// continuous round after a warm restart sees a fresh list and a
    /// new TPM reset count, replays both logs from zero, and trusts the
    /// node.
    #[test]
    fn continuous_attestation_after_warm_restart_with_ima_entries() {
        let (sim, cloud, golden, tenant) = setup();
        let node = cloud.nodes()[0];
        let mut wl = ImaWhitelist::new();
        wl.allow_content("/usr/bin/top", b"top");
        tenant.set_ima_whitelist(wl);
        let (before_restart, after_restart, before, after, boot_log) = sim.block_on({
            let tenant = tenant.clone();
            let cloud = cloud.clone();
            async move {
                let p = tenant
                    .provision(node, &SecurityProfile::charlie(), golden)
                    .await
                    .expect("provisions");
                let agent = p.agent.clone().expect("attested");
                let name = agent.id().to_string();
                agent.ima_measure("/usr/bin/top", b"top");
                let before_restart = tenant.verifier.attest_once(&name, true).await;
                let before = tenant.verifier.log_offsets(&name).expect("enrolled");
                tenant
                    .warm_restart(&p, &SecurityProfile::charlie())
                    .await
                    .expect("warm restarts");
                let after_restart = tenant.verifier.attest_once(&name, true).await;
                let after = tenant.verifier.log_offsets(&name).expect("enrolled");
                let boot_log = cloud.machine(node).with_tpm(|t| t.event_log().len());
                (before_restart, after_restart, before, after, boot_log)
            }
        });
        assert_eq!(before_restart, AttestOutcome::Trusted);
        assert_eq!(before.ima, 1);
        assert_eq!(after_restart, AttestOutcome::Trusted);
        assert_eq!(after.reset_count, before.reset_count + 1, "a new boot");
        assert_eq!((after.boot, after.ima), (boot_log, 0), "a full replay");
    }

    #[test]
    fn warm_restart_requires_an_attested_node() {
        let (sim, cloud, golden, tenant) = setup();
        let node = cloud.nodes()[0];
        let alice = Tenant::new(&cloud, "alice").expect("tenant");
        let r = sim.block_on({
            let alice = alice.clone();
            async move {
                let p = alice
                    .provision(node, &SecurityProfile::alice(), golden)
                    .await
                    .expect("provisions");
                alice.warm_restart(&p, &SecurityProfile::alice()).await
            }
        });
        assert!(matches!(r, Err(ProvisionError::Rejected(_))));
        drop(tenant);
    }
}
