//! `churn`: the desired-state reconciler under seeded churn and injected
//! flaky-BMC faults, at one pool worker.
//!
//! The untraced run times `reconcile_fleet_parallel` over the whole spec,
//! world build included (`ops_per_s` counts lifecycle ops: provisioned,
//! failed, released and networks created). `setup_s` is the host time to
//! build the same shard worlds — cloud, golden image, tenants and
//! reconcilers — which `reconcile_fleet_parallel` then builds again
//! inside its jobs. The traced run drives the same worlds through
//! `TenantReconciler::tick` with every tenant's services behind the
//! timing proxies, and must reproduce the untraced run's report digest.

use std::collections::BTreeMap;
use std::time::Instant;

use bolted_core::{
    reconcile_fleet_parallel, run_sharded, AttestationMode, Cloud, CloudConfig, OpBudget,
    ProvisionedNode, ReconcileFleetSpec, ReconcileRunReport, ShardReconcileOutcome,
    TenantReconciler, TickReport,
};
use bolted_crypto::sha256::sha256;
use bolted_sim::fault::{mix_seed, ops, FaultPlan, FaultSpec};
use bolted_sim::{Sim, SimDuration};

use crate::host::PeakWindow;
use crate::layers::TracedRep;
use crate::stats::{median, tail};
use crate::trace::Recorder;
use crate::world::{cloud_with_golden, scope, tenant, SimStats, Tracing};
use crate::{Checks, Plain, Size, Traced, Workload};

/// The workload at one seed and size.
pub struct Churn {
    template: ReconcileFleetSpec,
}

impl Churn {
    /// Two shards of 32 nodes and 4 tenants through 3 churn epochs (one
    /// shard of 12 nodes, 2 tenants, 2 epochs at smoke size).
    pub fn new(size: Size) -> Churn {
        let template = match size {
            Size::Full => ReconcileFleetSpec::new(2, 32, 4, 3, 0),
            Size::Smoke => ReconcileFleetSpec::new(1, 12, 2, 2, 0),
        };
        Churn { template }
    }

    /// The workload over an explicit spec, whose seed each repetition
    /// replaces.
    pub fn from_spec(template: ReconcileFleetSpec) -> Churn {
        Churn { template }
    }

    /// The reconcile spec this workload runs for `seed`.
    pub fn spec(&self, seed: u64) -> ReconcileFleetSpec {
        ReconcileFleetSpec {
            seed,
            ..self.template.clone()
        }
    }

    fn check(&self, report: &ReconcileRunReport, checks: &mut Checks) {
        checks.check(report.converged(), || {
            format!(
                "churn: {} of {} shard epochs converged",
                report.total("converged_epochs"),
                report.shards.len() * report.epochs
            )
        });
        let violations = report.violations();
        checks.check(violations.is_empty(), || {
            format!("churn: isolation violations: {violations:?}")
        });
        checks.check(report.total("dropped") == 0.0, || {
            format!("churn: {} reconcile ops dropped", report.total("dropped"))
        });
        checks.check(report.total("provision_failed") >= 1.0, || {
            "churn: injected faults never exercised abandon-and-reclaim recovery".into()
        });
    }

    /// Builds and reconciles every shard with the benchmark's own traced
    /// epoch loop; returns the report `reconcile_fleet_parallel` returns for
    /// the same spec, each shard's leftovers, and the host seconds taken.
    fn drive_traced(
        &self,
        spec: &ReconcileFleetSpec,
        epoch: Instant,
    ) -> Result<(ReconcileRunReport, Vec<ShardDone>, f64), String> {
        let t0 = Instant::now();
        let done = run_sharded(spec.shards, 1, |shard| {
            let t = Instant::now();
            let world = build(spec, shard, Some(Tracing::new(epoch)))?;
            let (outcome, mut done) = reconcile(world, spec, shard);
            done.job_ns = t.elapsed().as_nanos() as u64;
            Ok::<_, String>((outcome, done))
        });
        let work_s = t0.elapsed().as_secs_f64();
        let mut outcomes = Vec::with_capacity(done.len());
        let mut shards = Vec::with_capacity(done.len());
        for d in done {
            let (outcome, d) = d?;
            outcomes.push(outcome);
            shards.push(d);
        }
        let report = ReconcileRunReport {
            shards: outcomes,
            epochs: spec.epochs,
        };
        Ok((report, shards, work_s))
    }

    /// The report of the traced epoch loop alone, for comparing it with
    /// `reconcile_fleet_parallel`'s.
    pub fn traced_report(&self, seed: u64) -> Result<ReconcileRunReport, String> {
        self.drive_traced(&self.spec(seed), Instant::now())
            .map(|(report, _, _)| report)
    }

    fn unconverged(&self, report: &ReconcileRunReport) -> u64 {
        let want = (report.shards.len() * report.epochs) as f64;
        (want - report.total("converged_epochs")).max(0.0) as u64
    }
}

/// Lifecycle ops a run executed.
pub fn ops_count(report: &ReconcileRunReport) -> f64 {
    report.total("provision_ok")
        + report.total("provision_failed")
        + report.total("released")
        + report.total("networks_created")
}

/// The shard's injected fault plan, as `ReconcileFleetSpec` derives it:
/// flaky BMC power on two fixed nodes.
fn fault_plan(spec: &ReconcileFleetSpec, shard: usize) -> FaultPlan {
    if !spec.inject_faults {
        return FaultPlan::none();
    }
    let seed = mix_seed(spec.seed, &["reconcile-faults", &shard.to_string()]);
    FaultPlan::seeded(seed)
        .with_target(ops::BMC_POWER, "m620-03", FaultSpec::flaky(6))
        .with_target(ops::BMC_POWER, "m620-07", FaultSpec::flaky(6))
}

struct World {
    sim: Sim,
    cloud: Cloud,
    recs: Vec<TenantReconciler>,
    tracing: Option<Tracing>,
}

/// Builds shard `shard` exactly as `reconcile_fleet_parallel` does.
fn build(
    spec: &ReconcileFleetSpec,
    shard: usize,
    tracing: Option<Tracing>,
) -> Result<World, String> {
    let sim = Sim::new();
    let idx = shard.to_string();
    let config = CloudConfig {
        nodes: spec.nodes_per_shard,
        seed: mix_seed(spec.seed, &["reconcile-shard", &idx]),
        faults: fault_plan(spec, shard),
        ..CloudConfig::default()
    };
    let (cloud, golden) =
        cloud_with_golden(&sim, config, tracing.as_ref()).map_err(|e| e.to_string())?;
    let mut recs = Vec::with_capacity(spec.tenants_per_shard);
    for t in 0..spec.tenants_per_shard {
        let (tenant, _) = tenant(&cloud, &format!("tenant-{t:02}"), tracing.as_ref())
            .map_err(|e| e.to_string())?;
        recs.push(TenantReconciler::new(
            tenant,
            golden,
            spec.desired_for(shard, t, 0),
            &spec.config,
        ));
    }
    Ok(World {
        sim,
        cloud,
        recs,
        tracing,
    })
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
    release_failed: u64,
    networks: u64,
    attested: u64,
}

impl Tally {
    fn merge(&mut self, t: &Tally) {
        self.ticks += t.ticks;
        self.planned += t.planned;
        self.deferred += t.deferred;
        self.provisioned += t.provisioned;
        self.failed += t.failed;
        self.released += t.released;
        self.release_failed += t.release_failed;
        self.networks += t.networks;
        self.attested += t.attested;
    }

    fn add(&mut self, tr: &TickReport, attests: bool) {
        self.planned += tr.planned as u64;
        self.deferred += tr.deferred as u64;
        self.provisioned += tr.provisioned as u64;
        self.failed += tr.provision_failed as u64;
        self.released += tr.released as u64;
        self.release_failed += tr.release_failed as u64;
        self.networks += tr.networks_created as u64;
        if attests {
            self.attested += tr.provisioned as u64;
        }
    }
}

/// Cross-tenant fabric paths between two holdings.
fn cross_paths(cloud: &Cloud, a: &[ProvisionedNode], b: &[ProvisionedNode]) -> u64 {
    let mut leaks = 0u64;
    for va in a {
        for vb in b {
            let (Ok(ha), Ok(hb)) = (cloud.hil.node_host(va.node), cloud.hil.node_host(vb.node))
            else {
                continue;
            };
            if cloud.fabric.path(ha, hb).is_ok() {
                leaks += 1;
            }
        }
    }
    leaks
}

/// The isolation invariants `reconcile_fleet_parallel` checks at every
/// epoch boundary, with the same wording.
fn epoch_invariants(
    cloud: &Cloud,
    recs: &[TenantReconciler],
    epoch: usize,
    attested_provisions: u64,
) -> Vec<String> {
    let mut violations = Vec::new();
    for (i, a) in recs.iter().enumerate() {
        for b in recs.iter().skip(i + 1) {
            let leaks = cross_paths(cloud, a.holdings(), b.holdings());
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

/// What the benchmark's epoch loop sees of a reconciled shard beyond the
/// outcome `reconcile_fleet_parallel` reports.
struct ShardDone {
    tally: Tally,
    sim: SimStats,
    sim_seconds: f64,
    span_bytes: usize,
    /// Host time of the shard's whole pool job (build and epoch loop),
    /// set by the code that runs the job.
    job_ns: u64,
    tracing: Option<Tracing>,
}

/// Runs the epoch loop over a built shard, ticking each tenant through
/// the (timed, when traced) `TenantReconciler::tick`.
fn reconcile(
    world: World,
    spec: &ReconcileFleetSpec,
    shard: usize,
) -> (ShardReconcileOutcome, ShardDone) {
    let World {
        sim,
        cloud,
        recs,
        tracing,
    } = world;
    let rec: Option<std::sync::Arc<Recorder>> = tracing.as_ref().map(|t| t.rec.clone());
    let root = rec.as_ref().map(|r| r.begin("run.reconcile", None));
    let loop_spec = spec.clone();
    let loop_cloud = cloud.clone();
    let loop_rec = rec.clone();
    let (recs, tally, violations, converged_epochs) = sim.block_on(async move {
        let mut recs = recs;
        let mut tally = Tally::default();
        let mut violations: Vec<String> = Vec::new();
        let mut converged_epochs = 0usize;
        for epoch in 0..loop_spec.epochs {
            for (t, r) in recs.iter_mut().enumerate() {
                r.set_desired(loop_spec.desired_for(shard, t, epoch));
            }
            let mut epoch_ticks = 0usize;
            loop {
                let mut budget = OpBudget::new(loop_spec.shard_ops_per_tick);
                for r in recs.iter_mut() {
                    let attests = r.desired().profile.attestation != AttestationMode::None;
                    let tick = Box::pin(r.tick(&mut budget));
                    let tr = match &loop_rec {
                        Some(rec) => rec.timed("reconcile.tick", tick).await,
                        None => tick.await,
                    };
                    tally.add(&tr, attests);
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
                loop_cloud
                    .sim
                    .sleep(SimDuration::from_secs_f64(loop_spec.tick_interval_secs))
                    .await;
            }
            let found = match &loop_rec {
                Some(rec) => rec.scope("reconcile.invariants", || {
                    epoch_invariants(&loop_cloud, &recs, epoch, tally.attested)
                }),
                None => epoch_invariants(&loop_cloud, &recs, epoch, tally.attested),
            };
            violations.extend(found);
        }
        (recs, tally, violations, converged_epochs)
    });
    if let (Some(r), Some(id)) = (&rec, root) {
        r.end(id);
    }

    let sim_seconds = sim.now().as_secs_f64();
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let dropped: u64 = recs.iter().map(|r| r.queue_stats().dropped).sum();
    m.insert("ticks".into(), tally.ticks as f64);
    m.insert("planned".into(), tally.planned as f64);
    m.insert("deferred".into(), tally.deferred as f64);
    m.insert("dropped".into(), dropped as f64);
    m.insert("provision_ok".into(), tally.provisioned as f64);
    m.insert("provision_failed".into(), tally.failed as f64);
    m.insert("released".into(), tally.released as f64);
    m.insert("networks_created".into(), tally.networks as f64);
    m.insert("converged_epochs".into(), converged_epochs as f64);
    m.insert("violations".into(), violations.len() as f64);
    m.insert("sim_seconds".into(), sim_seconds);
    drop(recs);

    let (digest, span_bytes) = scope(tracing.as_ref(), "obs.digest", || {
        let spans = cloud.spans.render();
        let mut buf = Vec::new();
        buf.extend_from_slice(&(shard as u64).to_le_bytes());
        for (name, value) in &m {
            buf.extend_from_slice(name.as_bytes());
            buf.extend_from_slice(&value.to_le_bytes());
        }
        for v in &violations {
            buf.extend_from_slice(v.as_bytes());
        }
        buf.extend_from_slice(spans.as_bytes());
        buf.extend_from_slice(cloud.metrics.to_json().as_bytes());
        (sha256(&buf), spans.len())
    });
    let outcome = ShardReconcileOutcome {
        shard,
        measurements: m,
        violations,
        digest,
    };
    let done = ShardDone {
        tally,
        sim: SimStats::of(&cloud, tracing.is_some()),
        sim_seconds,
        span_bytes,
        job_ns: 0,
        tracing,
    };
    (outcome, done)
}

impl Workload for Churn {
    fn name(&self) -> &'static str {
        "churn"
    }

    fn workers(&self) -> usize {
        1
    }

    fn untraced(&self, seed: u64, checks: &mut Checks) -> Result<Plain, String> {
        let spec = &self.spec(seed);
        let t0 = Instant::now();
        let worlds = run_sharded(spec.shards, 1, |shard| build(spec, shard, None));
        let setup_s = t0.elapsed().as_secs_f64();
        for w in worlds {
            w?;
        }
        // The set-up worlds are the benchmark's own and dropped by now;
        // the peak covers reconcile_fleet_parallel alone.
        let window = PeakWindow::start();
        let t1 = Instant::now();
        let report = reconcile_fleet_parallel(spec, 1)
            .map_err(|e| format!("reconcile_fleet_parallel: {e}"))?;
        let work_s = t1.elapsed().as_secs_f64();
        let peak_mib = window.anon_mib();
        self.check(&report, checks);
        Ok(Plain {
            setup_s,
            work_s,
            // reconcile_fleet_parallel builds its own worlds, as the
            // traced repetition does.
            wall_s: work_s,
            ops: ops_count(&report),
            attempted: (spec.shards * spec.epochs) as u64,
            failed: self.unconverged(&report),
            peak_mib,
            digest: report.digest().to_hex(),
        })
    }

    fn traced(&self, seed: u64, epoch: Instant, checks: &mut Checks) -> Result<Traced, String> {
        let spec = &self.spec(seed);
        let (report, shards, work_s) = self.drive_traced(spec, epoch)?;
        let f0 = Instant::now();
        let digest = report.digest().to_hex();
        let fold_ns = f0.elapsed().as_nanos() as u64;
        let wall_s = epoch.elapsed().as_secs_f64();
        self.check(&report, checks);

        let mut tally = Tally::default();
        let mut sim = SimStats::default();
        let mut worlds = Vec::new();
        let mut aiks = 0;
        let mut job_ns = 0u64;
        let mut per_epoch = Vec::new();
        let mut span_bytes = 0usize;
        for s in shards {
            tally.merge(&s.tally);
            job_ns += s.job_ns;
            span_bytes += s.span_bytes;
            per_epoch.push(s.sim_seconds / spec.epochs.max(1) as f64);
            if let Some(tr) = &s.tracing {
                worlds.push(tr.rec.spans());
                aiks += tr.aik_count();
            }
            sim.merge(s.sim);
        }
        let totals = sim.provision_ok_s.clone();
        let nodes = spec.total_nodes();
        let ops = ops_count(&report);
        let provision_tail = tail(&totals);
        let mut extra = BTreeMap::new();
        extra.insert("reconcile.ticks", tally.ticks as f64);
        extra.insert("reconcile.planned", tally.planned as f64);
        extra.insert(
            "reconcile.defer_ratio",
            tally.deferred as f64 / tally.planned.max(1) as f64,
        );
        extra.insert("reconcile.recoveries", tally.failed as f64);
        extra.insert("pool.busy_ratio", job_ns as f64 / 1e9 / work_s);
        extra.insert("pool.jobs", spec.shards as f64);
        extra.insert("sim.converge_epoch_s", median(&per_epoch));
        extra.insert("sim.provision_p50_s", median(&totals));
        extra.insert("sim.provision_tail_s", provision_tail.value);
        extra.insert(
            "fail_ratio",
            (tally.failed + tally.release_failed) as f64 / ops.max(1.0),
        );
        extra.insert(
            "obs.span_bytes_per_node",
            span_bytes as f64 / nodes.max(1) as f64,
        );
        Ok(Traced {
            rep: TracedRep {
                worlds,
                outside_ns: fold_ns,
                measured: "run.reconcile",
                nodes,
                shards: spec.shards,
                aiks,
                sim,
                extra,
                tails: vec![("sim.provision_tail_s", provision_tail)],
            },
            wall_s,
            attempted: (spec.shards * spec.epochs) as u64,
            failed: self.unconverged(&report),
            digest,
        })
    }
}
