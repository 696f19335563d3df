//! Declarative reconciler control plane: desired-state tenants, batched
//! HIL ops, convergent recovery.
//!
//! The imperative one-shot pipeline in [`crate::provision`] answers
//! "provision these nodes now"; this module answers the datacenter
//! question "keep this tenant looking like its declaration". A tenant
//! declares a [`DesiredState`] — profile, node count, data networks —
//! and a [`TenantReconciler`] repeatedly:
//!
//! 1. **observes** its own holdings ([`ObservedState`]),
//! 2. **diffs** declaration against observation ([`diff`]) into a plan
//!    of [`ReconcileOp`]s — minimal by construction: a converged tenant
//!    plans nothing,
//! 3. **admits** the first `g` ops of the plan, where `g` is what both
//!    the tenant's churn token bucket and the shard's shared
//!    [`OpBudget`] grant; the other `planned − g` are deferred, never
//!    dropped — the next diff regenerates them from desired state,
//! 4. **executes** the admitted ops as batched service-trait calls:
//!    releases first (they refill the free pool), then network creation,
//!    then one batched [`Tenant::provision_fleet_report`] claim.
//!
//! A plan lives for one tick: [`TenantReconciler::tick`] diffs and runs
//! it inside one `&mut self` call, so nothing can move the holdings
//! between planning and execution, and the ops run without re-checks.
//! Convergence comes from re-diffing against desired state every tick,
//! not from idempotent ops: a node the fault substrate abandoned back to
//! Free (the `Airlock → Free` edge) is simply a desired-vs-observed
//! deficit on the next tick, re-claimed from the free pool without any
//! operator runbook, and a node whose release failed is still held, so
//! the next diff releases it again.
//!
//! [`reconcile_fleet_parallel`] scales this to a sharded fleet: each
//! shard is one deterministic world (its own [`Sim`], [`Cloud`], tenants
//! and reconcilers) driven to convergence inside one
//! [`bolted_sim::run_jobs`] pool job, with per-epoch churn
//! (scale-up / scale-down / profile-flip / network-growth) derived
//! purely from the spec's seed. Worker count never changes a byte of the
//! merged [`ReconcileRunReport`] — the same shard-per-job contract as
//! [`crate::fleet`].

use std::collections::BTreeMap;

use bolted_crypto::sha256::{sha256, Digest};
use bolted_firmware::KernelImage;
use bolted_hil::NodeId;
use bolted_sim::fault::{mix_seed, ops, FaultPlan, FaultSpec};
use bolted_sim::{Rng, Sim, SimDuration, SimTime};
use bolted_storage::ImageId;

use crate::cloud::{Cloud, CloudConfig};
use crate::fleet::run_sharded;
use crate::profile::{AttestationMode, SecurityProfile};
use crate::provision::{ProvisionError, ProvisionedNode, Tenant};

// ---------------------------------------------------------------------------
// Desired / observed state and the pure diff engine.
// ---------------------------------------------------------------------------

/// What a tenant declares: the state the reconciler must converge the
/// world toward.
#[derive(Debug, Clone)]
pub struct DesiredState {
    /// Security profile every node must be provisioned under.
    pub profile: SecurityProfile,
    /// How many nodes the tenant wants held.
    pub node_count: usize,
    /// How many additional data networks (beyond the enclave + airlock
    /// pair every tenant starts with) the tenant wants.
    pub networks: usize,
}

impl DesiredState {
    /// A declaration of `node_count` nodes under `profile`, no extra
    /// data networks.
    pub fn new(profile: SecurityProfile, node_count: usize) -> DesiredState {
        DesiredState {
            profile,
            node_count,
            networks: 0,
        }
    }
}

/// What the tenant holds: the reconciler's own holdings and the data
/// networks it created, not a read of the isolation service.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObservedState {
    /// Held nodes and the profile name each was provisioned under.
    pub nodes: Vec<(NodeId, String)>,
    /// Data networks created so far.
    pub networks: usize,
}

/// One step of a reconcile plan. A plan is run in the tick that diffed
/// it and then dropped; an op the tick did not grant is not kept, the
/// next diff plans it again. A `Provision` names no node: the tick
/// claims the lowest free ids when it runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconcileOp {
    /// Release a held node back to the free pool (wrong profile, or
    /// surplus over the declared count).
    Release {
        /// The node to release.
        node: NodeId,
    },
    /// Claim and provision one node from the free pool under the
    /// desired profile.
    Provision,
    /// Create one tenant data network.
    CreateNetwork,
}

/// Diffs declaration against observation into a minimal plan.
///
/// Properties (pinned by the property tests):
/// * **minimal** — a converged pair plans nothing, and no op touches a
///   node that already matches the declaration;
/// * **ordered** — releases come before provisions, so a profile flip
///   frees capacity before re-claiming it;
/// * **pure** — no world access; the same inputs always produce the
///   same plan.
pub fn diff(desired: &DesiredState, observed: &ObservedState) -> Vec<ReconcileOp> {
    let mut plan = Vec::new();
    let mut kept = 0usize;
    for (node, profile) in &observed.nodes {
        // A node is conforming iff it runs the declared profile and
        // fits under the declared count; everything else is released.
        if *profile == desired.profile.name && kept < desired.node_count {
            kept += 1;
        } else {
            plan.push(ReconcileOp::Release { node: *node });
        }
    }
    for _ in kept..desired.node_count {
        plan.push(ReconcileOp::Provision);
    }
    for _ in observed.networks..desired.networks {
        plan.push(ReconcileOp::CreateNetwork);
    }
    plan
}

// ---------------------------------------------------------------------------
// Per-tenant reconciler: churn rate limit, shard budget.
// ---------------------------------------------------------------------------

/// A shard-wide per-tick operation budget, shared by every tenant
/// reconciled in that tick. When the budget runs dry the remaining
/// tenants' work is deferred — backpressure, not loss: their desired
/// state regenerates the plan next tick.
#[derive(Debug, Clone)]
pub struct OpBudget {
    remaining: usize,
}

impl OpBudget {
    /// A budget of `total` operations.
    pub fn new(total: usize) -> OpBudget {
        OpBudget { remaining: total }
    }

    /// Grants up to `want` operations, returning how many were granted.
    pub fn take(&mut self, want: usize) -> usize {
        let granted = want.min(self.remaining);
        self.remaining -= granted;
        granted
    }

    /// Operations left this tick.
    pub fn remaining(&self) -> usize {
        self.remaining
    }
}

/// A deterministic virtual-time token bucket: `rate_per_sec` tokens
/// accrue per simulated second up to `burst`. Starts full. All state
/// advances from the [`SimTime`]s the caller hands in, so two runs that
/// make the same calls at the same virtual instants behave identically.
#[derive(Debug, Clone)]
struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last: Option<SimTime>,
}

impl TokenBucket {
    /// A full bucket refilling at `rate_per_sec` up to `burst` tokens.
    fn new(rate_per_sec: f64, burst: usize) -> TokenBucket {
        let burst = burst.max(1) as f64;
        TokenBucket {
            rate_per_sec: rate_per_sec.max(0.0),
            burst,
            tokens: burst,
            last: None,
        }
    }

    fn refill(&mut self, now: SimTime) {
        if let Some(last) = self.last {
            if now > last {
                let dt = now.since(last).as_secs_f64();
                self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.burst);
            }
        }
        self.last = Some(self.last.map_or(now, |l| l.max(now)));
    }

    /// Whole tokens available at `now` (refills first).
    fn available(&mut self, now: SimTime) -> usize {
        self.refill(now);
        self.tokens as usize
    }

    /// Takes up to `want` whole tokens, returning how many were granted.
    fn take_up_to(&mut self, now: SimTime, want: usize) -> usize {
        self.refill(now);
        let granted = (self.tokens as usize).min(want);
        self.tokens -= granted as f64;
        granted
    }
}

/// Sustained lifecycle-churn rate of every tenant's token bucket (ops
/// per simulated second).
const CHURN_RATE_PER_SEC: f64 = 1.0;

/// Tuning for one tenant's reconciler.
#[derive(Debug, Clone)]
pub struct ReconcilerConfig {
    /// Burst size of the churn limiter — the most lifecycle ops one
    /// tick may execute after an idle period.
    pub churn_burst: usize,
}

impl Default for ReconcilerConfig {
    fn default() -> ReconcilerConfig {
        ReconcilerConfig { churn_burst: 8 }
    }
}

/// Lifetime admission accounting of one tenant's reconciler, read from
/// the `queue_admitted`/`queue_deferred` counters (label
/// `queue=<tenant>`) of the tenant's metrics registry; a disabled
/// registry reads all zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Plan entries the diffs produced.
    pub admitted: u64,
    /// Plan entries the churn bucket or the shard budget held back to
    /// a later tick.
    pub deferred: u64,
    /// Plan entries lost. Always 0: deferred work is regenerated from
    /// desired state, so the reconciler never drops any.
    pub dropped: u64,
}

/// What one reconcile tick did.
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    /// Plan entries the diff produced.
    pub planned: usize,
    /// Plan entries the churn bucket and the shard budget did not grant
    /// this tick. Never lost: the next diff regenerates them.
    pub deferred: usize,
    /// Operations executed.
    pub executed: usize,
    /// Nodes successfully provisioned.
    pub provisioned: usize,
    /// Provision attempts that failed (abandoned back to Free — next
    /// tick's deficit).
    pub provision_failed: usize,
    /// Nodes released back to the free pool.
    pub released: usize,
    /// Releases that failed. A node HIL has not taken back stays held,
    /// and the next tick releases it again.
    pub release_failed: usize,
    /// Data networks created.
    pub networks_created: usize,
    /// Whether the tenant was converged when the tick ended.
    pub converged: bool,
}

/// Drives one tenant toward its [`DesiredState`], one tick at a time.
pub struct TenantReconciler {
    tenant: Tenant,
    golden: ImageId,
    desired: DesiredState,
    bucket: TokenBucket,
    inventory: Vec<ProvisionedNode>,
    networks_created: usize,
    net_seq: usize,
}

impl TenantReconciler {
    /// A reconciler for `tenant`, provisioning from `golden`, converging
    /// toward `desired`.
    pub fn new(
        tenant: Tenant,
        golden: ImageId,
        desired: DesiredState,
        config: &ReconcilerConfig,
    ) -> TenantReconciler {
        TenantReconciler {
            tenant,
            golden,
            desired,
            bucket: TokenBucket::new(CHURN_RATE_PER_SEC, config.churn_burst),
            inventory: Vec::new(),
            networks_created: 0,
            net_seq: 0,
        }
    }

    /// Replaces the declaration. Takes effect at the next tick — the
    /// whole point of desired state: churn is an edit, not a workflow.
    pub fn set_desired(&mut self, desired: DesiredState) {
        self.desired = desired;
    }

    /// The current declaration.
    pub fn desired(&self) -> &DesiredState {
        &self.desired
    }

    /// The nodes this reconciler currently holds.
    pub fn holdings(&self) -> &[ProvisionedNode] {
        &self.inventory
    }

    /// The tenant being reconciled.
    pub fn tenant(&self) -> &Tenant {
        &self.tenant
    }

    /// Snapshot of what the tenant holds, as the diff engine sees it.
    pub fn observed(&self) -> ObservedState {
        ObservedState {
            nodes: self
                .inventory
                .iter()
                .map(|p| (p.node, p.report.profile.clone()))
                .collect(),
            networks: self.networks_created,
        }
    }

    /// Whether declaration and observation agree.
    pub fn is_converged(&self) -> bool {
        diff(&self.desired, &self.observed()).is_empty()
    }

    /// Lifetime admission accounting, from the tenant's metrics registry.
    pub fn queue_stats(&self) -> QueueStats {
        let metrics = self.tenant.metrics();
        let labels = [("queue", self.tenant.project.as_str())];
        QueueStats {
            admitted: metrics.counter("queue_admitted", &labels),
            deferred: metrics.counter("queue_deferred", &labels),
            dropped: 0,
        }
    }

    /// One reconcile tick: diff → admit → execute.
    ///
    /// The churn bucket and the shard's shared per-tick `budget` grant
    /// `g` of the plan's ops; the first `g` execute and the rest are
    /// deferred, not dropped. Execution order is releases → networks →
    /// one batched provision claim, so capacity freed by a profile flip
    /// is re-claimable in the same tick.
    pub async fn tick(&mut self, budget: &mut OpBudget) -> TickReport {
        let metrics = self.tenant.metrics();
        let sim = self.tenant.sim();
        let mut report = TickReport::default();

        // 1. Plan: pure diff of declaration vs. observation.
        let plan = diff(&self.desired, &self.observed());
        report.planned = plan.len();

        // 2. Admission: the churn limiter and the shard budget decide
        // how much of the plan this tick may run. The rest is left to
        // the next diff, which regenerates it from desired state.
        let now = sim.now();
        let afford = self.bucket.available(now).min(plan.len());
        let granted = self.bucket.take_up_to(now, budget.take(afford));
        report.deferred = plan.len() - granted;
        let labels = [("queue", self.tenant.project.as_str())];
        // Only non-zero adds, so an idle tick creates no series.
        if report.planned > 0 {
            metrics.add("queue_admitted", &labels, report.planned as u64);
        }
        if report.deferred > 0 {
            metrics.add("queue_deferred", &labels, report.deferred as u64);
        }
        let mut releases: Vec<NodeId> = Vec::new();
        let mut provisions = 0usize;
        let mut networks = 0usize;
        for op in plan.into_iter().take(granted) {
            match op {
                ReconcileOp::Release { node } => releases.push(node),
                ReconcileOp::Provision => provisions += 1,
                ReconcileOp::CreateNetwork => networks += 1,
            }
        }

        // 3. Execute. The plan was diffed from the holdings within this
        // call and nothing has moved them since, so no op is re-checked.
        for node in releases {
            let Some(pnode) = self.inventory.iter_mut().find(|p| p.node == node) else {
                continue;
            };
            report.executed += 1;
            let freed = match self.tenant.release(pnode, false).await {
                Ok(()) => {
                    report.released += 1;
                    true
                }
                Err(_) => {
                    // Until HIL has the node back it is still the
                    // tenant's: it stays held and the next diff releases
                    // it again.
                    report.release_failed += 1;
                    self.tenant.free_nodes().contains(&node)
                }
            };
            if freed {
                self.inventory.retain(|p| p.node != node);
            }
        }
        for _ in 0..networks {
            let name = format!("{}-data-{}", self.tenant.project, self.net_seq);
            self.net_seq += 1;
            report.executed += 1;
            if self.tenant.create_data_network(&name).is_ok() {
                self.networks_created += 1;
                report.networks_created += 1;
            }
        }
        if provisions > 0 {
            // One batched claim against the free pool: ascending id
            // order keeps the claim deterministic, and a node the fault
            // substrate abandoned is simply the lowest free id again —
            // convergent recovery with no special path.
            let claim: Vec<NodeId> = self
                .tenant
                .free_nodes()
                .into_iter()
                .take(provisions)
                .collect();
            if !claim.is_empty() {
                let fleet = self
                    .tenant
                    .provision_fleet_report(&claim, &self.desired.profile, self.golden)
                    .await;
                report.executed += claim.len();
                report.provisioned = fleet.succeeded.len();
                report.provision_failed = fleet.failed.len();
                self.inventory.extend(fleet.succeeded);
            }
        }

        report.converged = self.is_converged();
        metrics.inc("reconcile_ticks", &[("tenant", &self.tenant.project)]);
        metrics.add(
            "reconcile_ops",
            &[("tenant", &self.tenant.project)],
            report.executed as u64,
        );
        report
    }
}

// ---------------------------------------------------------------------------
// Sharded fleet reconciliation with seeded churn.
// ---------------------------------------------------------------------------

/// A sharded churn run: `shards` independent worlds of
/// `nodes_per_shard` nodes, each reconciling `tenants_per_shard`
/// desired-state tenants through `epochs` epochs of seeded churn
/// (scale-up / scale-down / profile-flip / network-growth), optionally
/// under an injected fault plan.
#[derive(Debug, Clone)]
pub struct ReconcileFleetSpec {
    /// Independent deterministic worlds.
    pub shards: usize,
    /// Servers per shard world.
    pub nodes_per_shard: usize,
    /// Desired-state tenants per shard.
    pub tenants_per_shard: usize,
    /// Churn epochs; every epoch re-derives each tenant's declaration
    /// and the shard reconciles to convergence.
    pub epochs: usize,
    /// Tick cap per epoch — a shard that cannot converge within it
    /// reports the epoch unconverged instead of spinning.
    pub max_ticks_per_epoch: usize,
    /// Shared per-shard operation budget per tick (backpressure).
    pub shard_ops_per_tick: usize,
    /// Virtual seconds between reconcile ticks — the control loop's
    /// resync cadence. Ticks must be spaced in virtual time: a tick
    /// whose whole grant went to zero-duration ops (releases) would
    /// otherwise re-run at the same instant with an empty, never
    /// refilling churn bucket and livelock the epoch.
    pub tick_interval_secs: f64,
    /// Base seed; everything — world build, churn schedule, fault
    /// streams — derives from it.
    pub seed: u64,
    /// Per-tenant reconciler tuning.
    pub config: ReconcilerConfig,
    /// Inject flaky BMC faults so every shard exercises the
    /// abandon → re-claim convergence path.
    pub inject_faults: bool,
}

impl ReconcileFleetSpec {
    /// A spec with default pacing: 8-tick epochs on a 15-second resync
    /// cadence, a shard budget of 8 ops per tenant per tick, faults
    /// injected.
    pub fn new(
        shards: usize,
        nodes_per_shard: usize,
        tenants_per_shard: usize,
        epochs: usize,
        seed: u64,
    ) -> ReconcileFleetSpec {
        ReconcileFleetSpec {
            shards,
            nodes_per_shard,
            tenants_per_shard,
            epochs,
            max_ticks_per_epoch: 8,
            shard_ops_per_tick: tenants_per_shard.max(1) * 8,
            tick_interval_secs: 15.0,
            seed,
            config: ReconcilerConfig::default(),
            inject_faults: true,
        }
    }

    /// Total nodes across all shards.
    pub fn total_nodes(&self) -> usize {
        self.shards * self.nodes_per_shard
    }

    /// Total desired-state tenants across all shards.
    pub fn total_tenants(&self) -> usize {
        self.shards * self.tenants_per_shard
    }

    /// Per-tenant node ceiling: an equal share of the shard.
    fn node_cap(&self) -> usize {
        (self.nodes_per_shard / self.tenants_per_shard.max(1)).max(1)
    }

    /// The churn schedule: tenant `tenant` of shard `shard`'s
    /// declaration at `epoch`, derived purely from the seed by folding
    /// per-epoch churn moves over the epoch-0 base. Pure: the same
    /// `(spec, shard, tenant, epoch)` always declares the same state,
    /// which is what makes the whole run a function of the spec.
    pub fn desired_for(&self, shard: usize, tenant: usize, epoch: usize) -> DesiredState {
        let cap = self.node_cap();
        let step = (cap / 8).max(1);
        let mut rng = Rng::seed_from_u64(mix_seed(
            self.seed,
            &["churn", &shard.to_string(), &tenant.to_string()],
        ));
        let spread = (cap / 4).max(1) as u64;
        let mut count = (cap / 2 + rng.gen_range(spread) as usize).clamp(1, cap);
        let mut attested_tenant = true;
        let mut networks = 0usize;
        for _ in 0..epoch {
            match rng.gen_range(4) {
                0 => count = (count + step).min(cap),           // scale-up
                1 => count = count.saturating_sub(step).max(1), // scale-down
                2 => attested_tenant = !attested_tenant,        // profile-flip
                _ => networks = (networks + 1).min(4),          // network growth
            }
        }
        let profile = if attested_tenant {
            SecurityProfile::charlie()
        } else {
            SecurityProfile::bob()
        };
        DesiredState {
            profile,
            node_count: count,
            networks,
        }
    }

    /// The shard's injected fault plan: flaky BMC power on two fixed
    /// node names, tuned so the first provision exhausts its retry
    /// budget (abandon-to-Free) and the reconciler's re-claim succeeds
    /// mid-retry — every shard proves convergent recovery.
    fn fault_plan(&self, shard: usize) -> FaultPlan {
        if !self.inject_faults {
            return FaultPlan::none();
        }
        let seed = mix_seed(self.seed, &["reconcile-faults", &shard.to_string()]);
        FaultPlan::seeded(seed)
            .with_target(ops::BMC_POWER, "m620-03", FaultSpec::flaky(6))
            .with_target(ops::BMC_POWER, "m620-07", FaultSpec::flaky(6))
    }
}

/// One shard's complete outcome. Spans and metrics are hashed into
/// `digest` inside the shard job and not retained: a 10k-node run keeps
/// counters, not gigabytes of rendered trace.
#[derive(Debug, Clone)]
pub struct ShardReconcileOutcome {
    /// Shard index within the spec.
    pub shard: usize,
    /// Scalar counters, in name order (ticks, ops, convergence...).
    pub measurements: BTreeMap<String, f64>,
    /// Isolation-invariant violations observed at epoch boundaries, and
    /// an admission-ledger mismatch found at the end (empty on a
    /// passing run).
    pub violations: Vec<String>,
    /// SHA-256 over the shard's counters, violations, span tree and
    /// metrics snapshot.
    pub digest: Digest,
}

/// The merged result of a parallel reconcile run.
#[derive(Debug, Clone)]
pub struct ReconcileRunReport {
    /// Per-shard outcomes, in shard index order.
    pub shards: Vec<ShardReconcileOutcome>,
    /// Churn epochs every shard ran.
    pub epochs: usize,
}

impl ReconcileRunReport {
    /// Sum of a named measurement across shards.
    pub fn total(&self, name: &str) -> f64 {
        self.shards
            .iter()
            .filter_map(|s| s.measurements.get(name))
            .sum()
    }

    /// Whether every shard converged in every epoch.
    pub fn converged(&self) -> bool {
        let want = (self.epochs * self.shards.len()) as f64;
        self.total("converged_epochs") == want
    }

    /// Every isolation-invariant violation across shards.
    pub fn violations(&self) -> Vec<String> {
        self.shards
            .iter()
            .flat_map(|s| s.violations.iter().cloned())
            .collect()
    }

    /// Fingerprint of the entire run: every shard's digest (which
    /// already folds in its spans, metrics, counters and violations),
    /// concatenated in shard order and hashed. Byte-identical across
    /// pool worker counts by the shard-per-job contract.
    pub fn digest(&self) -> Digest {
        let mut buf = Vec::new();
        for s in &self.shards {
            buf.extend_from_slice(&(s.shard as u64).to_le_bytes());
            buf.extend_from_slice(&s.digest.0);
        }
        sha256(&buf)
    }
}

/// Evaluates the scenario-harness isolation invariants over a shard at
/// an epoch boundary; returns human-readable violations (empty = held).
fn epoch_invariants(
    cloud: &Cloud,
    recs: &[TenantReconciler],
    epoch: usize,
    attested_provisions: u64,
) -> Vec<String> {
    let mut violations = Vec::new();
    let held: Vec<Vec<NodeId>> = recs
        .iter()
        .map(|r| r.holdings().iter().map(|p| p.node).collect())
        .collect();
    for (i, (a, ha)) in recs.iter().zip(&held).enumerate() {
        for (b, hb) in recs.iter().zip(&held).skip(i + 1) {
            let leaks = cloud.cross_tenant_paths(ha, hb);
            if leaks > 0 {
                violations.push(format!(
                    "epoch {epoch}: {leaks} cross-tenant fabric paths between {} and {}",
                    a.tenant().project,
                    b.tenant().project
                ));
            }
        }
    }
    let rejected = cloud.rejected_pool().len();
    if rejected > 0 {
        violations.push(format!(
            "epoch {epoch}: {rejected} nodes quarantined — infrastructure faults must abandon, not reject"
        ));
    }
    let releases = cloud.metrics.counter_total("key_releases");
    if releases != attested_provisions {
        violations.push(format!(
            "epoch {epoch}: {releases} key releases vs {attested_provisions} attested provisions"
        ));
    }
    for rec in recs {
        for p in rec.holdings() {
            let flips = cloud.metrics.counter(
                "quote_verdicts",
                &[("target", &p.report.node), ("outcome", "failed")],
            );
            if flips > 0 {
                violations.push(format!(
                    "epoch {epoch}: {flips} failed quote verdicts on held node {}",
                    p.report.node
                ));
            }
        }
    }
    violations
}

/// Running totals of one shard's epoch loop.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    ticks: u64,
    planned: u64,
    deferred: u64,
    provisioned: u64,
    failed: u64,
    released: u64,
    networks: u64,
    attested: u64,
}

/// Builds and reconciles one shard, start to finish, on the calling
/// thread — the shard's [`Sim`] never escapes, so the run is a pure
/// function of `(spec, shard)`.
fn run_reconcile_shard(
    spec: &ReconcileFleetSpec,
    shard: usize,
) -> Result<ShardReconcileOutcome, ProvisionError> {
    let sim = Sim::new();
    let idx = shard.to_string();
    let cloud = Cloud::build(
        &sim,
        CloudConfig {
            nodes: spec.nodes_per_shard,
            seed: mix_seed(spec.seed, &["reconcile-shard", &idx]),
            faults: spec.fault_plan(shard),
            ..CloudConfig::default()
        },
    );
    let kernel = KernelImage::from_bytes("fedora28-4.17.9", b"vmlinuz+initrd");
    let golden = cloud
        .bmi
        .create_golden("fedora28", 8 << 30, 7, &kernel, "")
        .map_err(ProvisionError::Bmi)?;
    let mut recs = Vec::new();
    for t in 0..spec.tenants_per_shard {
        let tenant = Tenant::new(&cloud, &format!("tenant-{t:02}"))?;
        recs.push(TenantReconciler::new(
            tenant,
            golden,
            spec.desired_for(shard, t, 0),
            &spec.config,
        ));
    }

    // `block_on` requires a 'static future, so the epoch loop owns its
    // whole world (spec clone, cloud clone, reconcilers) and returns the
    // tally when the sim drains.
    let loop_spec = spec.clone();
    let loop_cloud = cloud.clone();
    let (recs, tally, mut violations, converged_epochs) = sim.block_on(async move {
        let mut recs = recs;
        let mut tally = Tally::default();
        let mut violations: Vec<String> = Vec::new();
        let mut converged_epochs = 0usize;
        for epoch in 0..loop_spec.epochs {
            for (t, rec) in recs.iter_mut().enumerate() {
                rec.set_desired(loop_spec.desired_for(shard, t, epoch));
            }
            let mut epoch_ticks = 0usize;
            loop {
                let mut budget = OpBudget::new(loop_spec.shard_ops_per_tick);
                for rec in recs.iter_mut() {
                    let attests = rec.desired().profile.attestation != AttestationMode::None;
                    let tr = rec.tick(&mut budget).await;
                    tally.planned += tr.planned as u64;
                    tally.deferred += tr.deferred as u64;
                    tally.provisioned += tr.provisioned as u64;
                    tally.failed += tr.provision_failed as u64;
                    tally.released += tr.released as u64;
                    tally.networks += tr.networks_created as u64;
                    if attests {
                        tally.attested += tr.provisioned as u64;
                    }
                }
                tally.ticks += 1;
                epoch_ticks += 1;
                if recs.iter().all(|r| r.is_converged()) {
                    converged_epochs += 1;
                    break;
                }
                if epoch_ticks >= loop_spec.max_ticks_per_epoch {
                    break;
                }
                // Space ticks out in virtual time so the churn buckets
                // refill even across ticks that executed nothing.
                loop_cloud
                    .sim
                    .sleep(SimDuration::from_secs_f64(loop_spec.tick_interval_secs))
                    .await;
            }
            violations.extend(epoch_invariants(&loop_cloud, &recs, epoch, tally.attested));
        }
        (recs, tally, violations, converged_epochs)
    });
    // The metrics registry is the admission ledger: it must account for
    // every entry the ticks planned and deferred.
    let admitted: u64 = recs.iter().map(|r| r.queue_stats().admitted).sum();
    let deferred: u64 = recs.iter().map(|r| r.queue_stats().deferred).sum();
    if (admitted, deferred) != (tally.planned, tally.deferred) {
        violations.push(format!(
            "admission ledger: shard {shard} counted {admitted} admitted and {deferred} \
             deferred, its ticks {} planned and {} deferred",
            tally.planned, tally.deferred
        ));
    }

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    m.insert("ticks".into(), tally.ticks as f64);
    m.insert("planned".into(), tally.planned as f64);
    m.insert("deferred".into(), tally.deferred as f64);
    // Deferred ops are re-planned, never dropped, so `dropped` is 0 by
    // construction; the key stays because the shard digest hashes it.
    m.insert("dropped".into(), 0.0);
    m.insert("provision_ok".into(), tally.provisioned as f64);
    m.insert("provision_failed".into(), tally.failed as f64);
    m.insert("released".into(), tally.released as f64);
    m.insert("networks_created".into(), tally.networks as f64);
    m.insert("converged_epochs".into(), converged_epochs as f64);
    m.insert("violations".into(), violations.len() as f64);
    m.insert("sim_seconds".into(), sim.now().as_secs_f64());
    drop(recs);

    // Fold the full observability output into the shard digest, then
    // drop it: byte-identity still covers every span and counter, but
    // the merged report stays small at datacenter scale.
    let mut buf = Vec::new();
    buf.extend_from_slice(&(shard as u64).to_le_bytes());
    for (name, value) in &m {
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&value.to_le_bytes());
    }
    for v in &violations {
        buf.extend_from_slice(v.as_bytes());
    }
    buf.extend_from_slice(cloud.spans.render().as_bytes());
    buf.extend_from_slice(cloud.metrics.to_json().as_bytes());
    Ok(ShardReconcileOutcome {
        shard,
        measurements: m,
        violations,
        digest: sha256(&buf),
    })
}

/// Reconciles the whole spec across `workers` OS threads and merges the
/// shard outcomes in shard index order. Worker count decides wall-clock
/// time only; the merged report is a pure function of the spec.
pub fn reconcile_fleet_parallel(
    spec: &ReconcileFleetSpec,
    workers: usize,
) -> Result<ReconcileRunReport, ProvisionError> {
    let shards = run_sharded(spec.shards, workers, |shard| {
        run_reconcile_shard(spec, shard)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    Ok(ReconcileRunReport {
        shards,
        epochs: spec.epochs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn charlie_desired(n: usize) -> DesiredState {
        DesiredState::new(SecurityProfile::charlie(), n)
    }

    fn held(ids: &[usize]) -> ObservedState {
        ObservedState {
            nodes: ids
                .iter()
                .map(|&i| (NodeId(i), SecurityProfile::charlie().name))
                .collect(),
            networks: 0,
        }
    }

    #[test]
    fn converged_state_plans_nothing() {
        let desired = charlie_desired(3);
        let observed = held(&[0, 1, 2]);
        assert!(diff(&desired, &observed).is_empty());
    }

    #[test]
    fn deficit_plans_provisions_and_surplus_plans_releases() {
        let desired = charlie_desired(3);
        assert_eq!(
            diff(&desired, &held(&[0])),
            vec![ReconcileOp::Provision, ReconcileOp::Provision]
        );
        let plan = diff(&charlie_desired(1), &held(&[0, 1, 2]));
        assert_eq!(
            plan,
            vec![
                ReconcileOp::Release { node: NodeId(1) },
                ReconcileOp::Release { node: NodeId(2) }
            ]
        );
    }

    #[test]
    fn profile_flip_releases_before_provisioning() {
        let desired = DesiredState::new(SecurityProfile::bob(), 2);
        let plan = diff(&desired, &held(&[0, 1]));
        assert_eq!(plan.len(), 4, "{plan:?}");
        assert!(matches!(plan.first(), Some(ReconcileOp::Release { .. })));
        assert!(matches!(plan.last(), Some(ReconcileOp::Provision)));
    }

    #[test]
    fn churn_schedule_is_pure_and_bounded() {
        let spec = ReconcileFleetSpec::new(4, 40, 4, 6, 0xC0DE);
        for shard in 0..spec.shards {
            for t in 0..spec.tenants_per_shard {
                for e in 0..spec.epochs {
                    let a = spec.desired_for(shard, t, e);
                    let b = spec.desired_for(shard, t, e);
                    assert_eq!(a.node_count, b.node_count);
                    assert_eq!(a.profile.name, b.profile.name);
                    assert!(a.node_count >= 1 && a.node_count <= 10);
                }
            }
        }
    }

    fn t(secs: f64) -> SimTime {
        SimTime::default() + SimDuration::from_secs_f64(secs)
    }

    #[test]
    fn token_bucket_starts_full_and_refills_with_virtual_time() {
        let mut b = TokenBucket::new(2.0, 4);
        assert_eq!(b.take_up_to(t(0.0), 10), 4, "starts at burst");
        assert_eq!(b.available(t(0.0)), 0);
        // 1.5 virtual seconds at 2 tokens/s = 3 tokens.
        assert_eq!(b.take_up_to(t(1.5), 10), 3);
        // Refill caps at burst no matter how long the idle gap.
        assert_eq!(b.available(t(100.0)), 4);
        assert_eq!(b.take_up_to(t(100.0), 1), 1);
    }

    #[test]
    fn token_bucket_never_rewinds_on_stale_timestamps() {
        let mut b = TokenBucket::new(1.0, 2);
        assert_eq!(b.take_up_to(t(5.0), 2), 2);
        // A timestamp earlier than the last refill must not mint tokens.
        assert_eq!(b.available(t(1.0)), 0);
        assert_eq!(b.available(t(6.0)), 1);
    }

    #[test]
    fn op_budget_grants_at_most_its_total() {
        let mut b = OpBudget::new(5);
        assert_eq!(b.take(3), 3);
        assert_eq!(b.take(3), 2);
        assert_eq!(b.take(3), 0);
        assert_eq!(b.remaining(), 0);
    }
}
