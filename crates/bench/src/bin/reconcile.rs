//! Reconciler churn bench: the tentpole exit artifact for the
//! declarative control plane.
//!
//! Drives [`bolted_core::reconcile_fleet_parallel`] over a sharded
//! datacenter — 10k nodes, 500 desired-state tenants at full scale —
//! through several epochs of continuous churn (scale-up, scale-down,
//! profile flips, network growth) under an injected flaky-BMC
//! [`FaultPlan`], at pool worker counts 1, 2 and 4. Every run must:
//!
//! * converge every shard in every epoch,
//! * hold every isolation invariant (zero cross-tenant paths, nothing
//!   quarantined, key releases exactly tracking attested provisions),
//! * exercise convergent recovery (the injected faults abandon nodes
//!   that the next tick re-claims),
//! * account for every planned and deferred plan entry in the
//!   `queue_admitted`/`queue_deferred` counters, and
//! * produce a byte-identical run digest at every worker count.
//!
//! ```text
//! cargo run --release -p bolted-bench --bin reconcile [-- --smoke]
//! ```
//!
//! Writes `BENCH_reconcile.json` into the current directory (run from
//! the repo root) and echoes the same JSON to stdout. `--smoke` shrinks
//! the fleet for the verify gate and never writes the file.

use std::fmt::Write as _;
use std::time::Instant;

use bolted_bench::determinism::{
    require_byte_identical, smoke_flag, write_artifact, DeterminismSweep,
};
use bolted_core::{reconcile_fleet_parallel, ReconcileFleetSpec, ReconcileRunReport};

struct Run {
    workers: usize,
    wall_seconds: f64,
}

fn main() {
    let smoke = smoke_flag();
    let spec = if smoke {
        ReconcileFleetSpec::new(4, 12, 2, 2, 0xAD5E_0007)
    } else {
        // The ISSUE 10 scale: 50 shards x 200 nodes = 10k nodes, 500
        // desired-state tenants, three epochs of churn.
        ReconcileFleetSpec::new(50, 200, 10, 3, 0xAD5E_0007)
    };
    let worker_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };

    let mut runs: Vec<Run> = Vec::new();
    let mut sweep = DeterminismSweep::new();
    let mut last: Option<ReconcileRunReport> = None;
    for &workers in worker_counts {
        let t0 = Instant::now();
        let report = match reconcile_fleet_parallel(&spec, workers) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("reconcile run failed at {workers} workers: {e}");
                std::process::exit(1);
            }
        };
        let wall = t0.elapsed().as_secs_f64();
        let d = report.digest().to_hex();
        eprintln!(
            "workers={workers:<3} nodes={} tenants={} ticks={} provisioned={} released={} \
             deferred={} converged={} violations={} wall={wall:.2}s digest={}",
            spec.total_nodes(),
            spec.total_tenants(),
            report.total("ticks"),
            report.total("provision_ok"),
            report.total("released"),
            report.total("deferred"),
            report.converged(),
            report.violations().len(),
            &d[..12],
        );
        sweep.observe(&d);
        runs.push(Run {
            workers,
            wall_seconds: wall,
        });
        last = Some(report);
    }
    let Some(report) = last else {
        eprintln!("no reconcile runs executed");
        std::process::exit(1);
    };

    let violations = report.violations();
    for v in &violations {
        eprintln!("VIOLATION: {v}");
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"reconcile\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"shards\": {},", spec.shards);
    let _ = writeln!(json, "  \"nodes_per_shard\": {},", spec.nodes_per_shard);
    let _ = writeln!(json, "  \"tenants_per_shard\": {},", spec.tenants_per_shard);
    let _ = writeln!(json, "  \"total_nodes\": {},", spec.total_nodes());
    let _ = writeln!(json, "  \"total_tenants\": {},", spec.total_tenants());
    let _ = writeln!(json, "  \"epochs\": {},", spec.epochs);
    let _ = writeln!(json, "  \"seed\": {},", spec.seed);
    // Pool sizes beyond `cores` timeshare: they show digest stability,
    // not scaling.
    let _ = writeln!(json, "  \"cores\": {},", bolted_sim::max_workers());
    let _ = writeln!(json, "  \"converged\": {},", report.converged());
    let _ = writeln!(json, "  \"isolation_violations\": {},", violations.len());
    for name in [
        "ticks",
        "planned",
        "deferred",
        "dropped",
        "provision_ok",
        "provision_failed",
        "released",
        "networks_created",
    ] {
        let _ = writeln!(json, "  \"{name}\": {},", report.total(name));
    }
    let _ = writeln!(json, "  \"digest\": \"{}\",", sweep.fingerprint());
    let _ = writeln!(json, "  \"byte_identical\": {},", sweep.byte_identical());
    let _ = writeln!(json, "  \"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"workers\": {}, \"wall_seconds\": {:.3}}}{comma}",
            r.workers, r.wall_seconds,
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    print!("{json}");

    write_artifact(smoke, "BENCH_reconcile.json", &json);
    require_byte_identical(&sweep, "reconcile digest");
    if !violations.is_empty() {
        eprintln!("FAIL: isolation or admission-ledger invariants violated under churn");
        std::process::exit(1);
    }
    if !report.converged() {
        eprintln!("FAIL: a shard missed convergence in some epoch");
        std::process::exit(1);
    }
    if report.total("provision_failed") == 0.0 {
        eprintln!("FAIL: injected faults never exercised abandon-to-Free recovery");
        std::process::exit(1);
    }
}
