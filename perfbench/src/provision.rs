//! `provision`: cold bring-up of many independent 16-node Charlie
//! (attested, encrypted) clouds.
//!
//! Every shard world is built first on the shard pool (`setup_s`), then
//! every shard is provisioned to completion (`ops_per_s` counts nodes
//! that joined the enclave per host second of this phase). The shard
//! outcomes are folded into a `FleetRunReport`, whose digest must equal
//! `provision_fleet_parallel`'s for the same spec.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use bolted_core::{
    run_sharded, Cloud, CloudConfig, FleetRunReport, FleetSpec, ProvisionError, SecurityProfile,
    ShardOutcome, Tenant,
};
use bolted_sim::fault::mix_seed;
use bolted_sim::{lock, Sim};
use bolted_storage::ImageId;

use crate::host::PeakWindow;
use crate::layers::TracedRep;
use crate::stats::{median, tail};
use crate::world::{cloud_with_golden, scope, tenant, SimStats, Tracing};
use crate::{Checks, Plain, Size, Traced, Workload};

/// The workload at one seed and size.
pub struct Provision {
    size: Size,
    workers: usize,
}

impl Provision {
    /// Eight shards of 16 nodes (two of 4 at smoke size), on
    /// `min(2, nproc)` pool workers.
    pub fn new(size: Size) -> Provision {
        Provision {
            size,
            workers: crate::host::nproc().min(2),
        }
    }

    /// The fleet spec this workload provisions for `seed`.
    pub fn spec(&self, seed: u64) -> FleetSpec {
        match self.size {
            Size::Full => FleetSpec::new(8, 16, seed),
            Size::Smoke => FleetSpec::new(2, 4, seed),
        }
    }

    /// One repetition: build every shard, then provision every shard.
    pub fn rep(&self, seed: u64, epoch: Option<Instant>) -> Result<Rep, String> {
        let spec = &self.spec(seed);
        let t0 = Instant::now();
        let built = run_sharded(spec.shards, self.workers, |shard| {
            build(spec, shard, epoch.map(Tracing::new))
        });
        let setup_s = t0.elapsed().as_secs_f64();
        let slots: Vec<Mutex<Option<World>>> = built
            .into_iter()
            .map(|w| w.map(|w| Mutex::new(Some(w))))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("building a shard world: {e}"))?;

        let t1 = Instant::now();
        let done = run_sharded(spec.shards, self.workers, |shard| {
            let world = lock(&slots[shard]).take();
            world.map(|w| provision(w, shard, &spec.profile))
        });
        let work_s = t1.elapsed().as_secs_f64();

        let mut outcomes = Vec::with_capacity(done.len());
        let mut shards = Vec::with_capacity(done.len());
        for d in done {
            let d = d.ok_or("a shard world went missing between the pool phases")?;
            outcomes.push(d.outcome);
            shards.push(d.done);
        }
        let report = FleetRunReport { shards: outcomes };
        let f0 = Instant::now();
        let digest = report.digest().to_hex();
        let fold_ns = f0.elapsed().as_nanos() as u64;
        Ok(Rep {
            setup_s,
            work_s,
            report,
            shards,
            digest,
            fold_ns,
        })
    }

    fn check(&self, rep: &Rep, checks: &mut Checks) {
        let total = self.spec(0).total_nodes();
        checks.check(rep.report.ok() == total && rep.report.failed() == 0, || {
            format!(
                "provision: {} of {total} nodes ok, {} failed",
                rep.report.ok(),
                rep.report.failed()
            )
        });
        for s in &rep.shards {
            let stats = SimStats::of(&s.cloud, false);
            checks.check(stats.key_releases == s.ok as u64, || {
                format!(
                    "provision shard: {} key releases for {} attested provisions",
                    stats.key_releases, s.ok
                )
            });
            let rejected = s.cloud.rejected_pool().len();
            checks.check(rejected == 0, || {
                format!("provision shard: {rejected} nodes quarantined")
            });
        }
    }
}

struct World {
    sim: Sim,
    cloud: Cloud,
    golden: ImageId,
    tenant: Tenant,
    tracing: Option<Tracing>,
}

/// What a provisioned shard leaves behind besides its `ShardOutcome`.
pub struct ShardDone {
    /// The shard's cloud, for counters read after the timed phase.
    pub cloud: Cloud,
    /// Nodes that joined the enclave.
    pub ok: usize,
    /// `ProvisionReport::total` of every ok node, virtual seconds.
    pub totals_sim_s: Vec<f64>,
    /// Host time of the shard's provision job, ns.
    pub job_ns: u64,
    /// The shard's spans, when traced.
    pub tracing: Option<Tracing>,
}

struct Done {
    outcome: ShardOutcome,
    done: ShardDone,
}

/// One repetition of the workload.
pub struct Rep {
    /// Host seconds of the build phase.
    pub setup_s: f64,
    /// Host seconds of the provision phase.
    pub work_s: f64,
    /// The fleet report rebuilt from the shard outcomes.
    pub report: FleetRunReport,
    /// Per-shard leftovers, in shard order.
    pub shards: Vec<ShardDone>,
    /// `report.digest()` in hex.
    pub digest: String,
    /// Host time of the digest fold, ns.
    pub fold_ns: u64,
}

/// Builds shard `shard` exactly as `provision_fleet_parallel` does.
fn build(
    spec: &FleetSpec,
    shard: usize,
    tracing: Option<Tracing>,
) -> Result<World, ProvisionError> {
    let sim = Sim::new();
    let idx = shard.to_string();
    let config = CloudConfig {
        nodes: spec.shard_nodes(shard),
        seed: mix_seed(spec.seed, &["fleet-shard", &idx]),
        ..CloudConfig::default()
    };
    let (cloud, golden) = cloud_with_golden(&sim, config, tracing.as_ref())?;
    let (tenant, _) = tenant(&cloud, "charlie", tracing.as_ref())?;
    Ok(World {
        sim,
        cloud,
        golden,
        tenant,
        tracing,
    })
}

/// Provisions every node of a built shard and snapshots its outcome.
fn provision(world: World, shard: usize, profile: &SecurityProfile) -> Done {
    let t0 = Instant::now();
    let World {
        sim,
        cloud,
        golden,
        tenant,
        tracing,
    } = world;
    let nodes = cloud.nodes();
    let profile = profile.clone();
    let root = tracing.as_ref().map(|t| t.rec.begin("run.provision", None));
    let report = sim.block_on(async move {
        tenant
            .provision_fleet_report(&nodes, &profile, golden)
            .await
    });
    if let (Some(t), Some(id)) = (&tracing, root) {
        t.rec.end(id);
    }
    let totals_sim_s: Vec<f64> = report
        .succeeded
        .iter()
        .map(|p| p.report.total().as_secs_f64())
        .collect();
    let (ok, failed) = (report.succeeded.len(), report.failed.len());
    let (spans, metrics) = scope(tracing.as_ref(), "obs.digest", || {
        (cloud.spans.render(), cloud.metrics.to_json())
    });
    Done {
        outcome: ShardOutcome {
            shard,
            ok,
            failed,
            sim_seconds: sim.now().as_secs_f64(),
            spans,
            metrics,
        },
        done: ShardDone {
            cloud,
            ok,
            totals_sim_s,
            job_ns: t0.elapsed().as_nanos() as u64,
            tracing,
        },
    }
}

impl Workload for Provision {
    fn name(&self) -> &'static str {
        "provision"
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn untraced(&self, seed: u64, checks: &mut Checks) -> Result<Plain, String> {
        let window = PeakWindow::start();
        let t0 = Instant::now();
        let rep = self.rep(seed, None)?;
        let wall_s = t0.elapsed().as_secs_f64();
        let peak_mib = window.anon_mib();
        self.check(&rep, checks);
        Ok(Plain {
            setup_s: rep.setup_s,
            work_s: rep.work_s,
            wall_s,
            ops: rep.report.ok() as f64,
            attempted: (rep.report.ok() + rep.report.failed()) as u64,
            failed: rep.report.failed() as u64,
            peak_mib,
            digest: rep.digest,
        })
    }

    fn traced(&self, seed: u64, epoch: Instant, checks: &mut Checks) -> Result<Traced, String> {
        let rep = self.rep(seed, Some(epoch))?;
        let wall_s = epoch.elapsed().as_secs_f64();
        self.check(&rep, checks);
        let nodes = rep.report.ok() + rep.report.failed();
        let mut sim = SimStats::default();
        let mut worlds = Vec::new();
        let mut aiks = 0;
        let mut totals = Vec::new();
        let mut job_ns = 0u64;
        for s in &rep.shards {
            sim.merge(SimStats::of(&s.cloud, true));
            if let Some(t) = &s.tracing {
                worlds.push(t.rec.spans());
                aiks += t.aik_count();
            }
            totals.extend_from_slice(&s.totals_sim_s);
            job_ns += s.job_ns;
        }
        let span_bytes: usize = rep.report.shards.iter().map(|s| s.spans.len()).sum();
        let provision_tail = tail(&totals);
        let mut extra = BTreeMap::new();
        extra.insert(
            "core.provision_ms_per_node",
            job_ns as f64 / 1e6 / nodes.max(1) as f64,
        );
        extra.insert(
            "pool.busy_ratio",
            job_ns as f64 / 1e9 / (self.workers as f64 * rep.work_s),
        );
        extra.insert("pool.jobs", rep.shards.len() as f64);
        extra.insert(
            "obs.span_bytes_per_node",
            span_bytes as f64 / nodes.max(1) as f64,
        );
        extra.insert("sim.provision_p50_s", median(&totals));
        extra.insert("sim.provision_tail_s", provision_tail.value);
        extra.insert(
            "fail_ratio",
            rep.report.failed() as f64 / nodes.max(1) as f64,
        );
        Ok(Traced {
            rep: TracedRep {
                worlds,
                outside_ns: rep.fold_ns,
                measured: "run.provision",
                nodes,
                shards: rep.shards.len(),
                aiks,
                sim,
                extra,
                tails: vec![("sim.provision_tail_s", provision_tail)],
            },
            wall_s,
            attempted: nodes as u64,
            failed: rep.report.failed() as u64,
            digest: rep.digest,
        })
    }
}
