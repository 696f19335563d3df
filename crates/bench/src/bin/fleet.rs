//! Fleet provisioning throughput bench: the tentpole exit artifact for
//! the `Send`-everything control plane.
//!
//! Provisions the same sharded [`FleetSpec`] at worker counts 1, 2, 4,
//! …, N (all cores) through [`provision_fleet_parallel`], measuring
//! wall-clock throughput (nodes/second) at each pool size and checking
//! that every run's [`FleetRunReport::digest`] — spans, metrics and
//! outcome counts, all shards — is byte-identical. Near-linear scaling
//! plus equal digests is the whole point: worker count buys wall-clock
//! time and nothing else.
//!
//! ```text
//! cargo run --release -p bolted-bench --bin fleet [-- --smoke]
//! ```
//!
//! Writes `BENCH_fleet.json` into the current directory (run from the
//! repo root) and echoes the same JSON to stdout. `--smoke` shrinks the
//! fleet to a few dozen nodes and two pool sizes for the verify gate
//! and skips the file write (a gate must not clobber the committed
//! artifact); the full run provisions a 1024-node fleet.

use std::fmt::Write as _;
use std::time::Instant;

use bolted_bench::determinism::{
    require_byte_identical, smoke_flag, write_artifact, DeterminismSweep,
};
use bolted_core::{provision_fleet_parallel, FleetSpec};

struct Run {
    workers: usize,
    wall_seconds: f64,
    nodes_per_second: f64,
}

fn main() {
    let smoke = smoke_flag();
    // Shard count and seed are part of the spec — host-independent — so
    // the digest is comparable across machines as well as pool sizes.
    let spec = if smoke {
        FleetSpec::new(8, 4, 0xF1EE7)
    } else {
        FleetSpec::new(64, 16, 0xF1EE7)
    };
    // Pool sizes 1, 2, 4, then all cores. Sizes beyond the core count
    // still run (threads timeshare) — they demonstrate that pool size is
    // scheduling-only, which is half the acceptance criterion; the other
    // half (near-linear scaling) needs the cores to exist.
    let max = bolted_sim::max_workers();
    let mut worker_counts: Vec<usize> = if smoke { vec![1, 2] } else { vec![1, 2, 4] };
    if max > *worker_counts.last().unwrap_or(&1) {
        worker_counts.push(max);
    }

    let mut runs: Vec<Run> = Vec::new();
    let mut sweep = DeterminismSweep::new();
    for &workers in &worker_counts {
        let t0 = Instant::now();
        let report = match provision_fleet_parallel(&spec, workers) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("fleet run failed at {workers} workers: {e}");
                std::process::exit(1);
            }
        };
        let wall = t0.elapsed().as_secs_f64();
        let d = report.digest().to_hex();
        eprintln!(
            "workers={workers:<3} nodes={} ok={} wall={wall:.2}s ({:.1} nodes/s) digest={}",
            spec.total_nodes(),
            report.ok(),
            spec.total_nodes() as f64 / wall,
            &d[..12],
        );
        if report.ok() != spec.total_nodes() {
            eprintln!(
                "fleet run at {workers} workers: {} of {} nodes failed",
                report.failed(),
                spec.total_nodes()
            );
            std::process::exit(1);
        }
        sweep.observe(&d);
        runs.push(Run {
            workers,
            wall_seconds: wall,
            nodes_per_second: spec.total_nodes() as f64 / wall,
        });
    }

    let base = runs.first().map_or(1.0, |r| r.nodes_per_second);
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"fleet\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"shards\": {},", spec.shards);
    let _ = writeln!(json, "  \"nodes_per_shard\": {},", spec.nodes_per_shard);
    let _ = writeln!(json, "  \"total_nodes\": {},", spec.total_nodes());
    let _ = writeln!(json, "  \"seed\": {},", spec.seed);
    // Scaling is bounded by the cores that exist: pool sizes beyond
    // `cores` timeshare and can only show digest stability, not speedup.
    let _ = writeln!(json, "  \"cores\": {max},");
    let _ = writeln!(json, "  \"digest\": \"{}\",", sweep.fingerprint());
    let _ = writeln!(json, "  \"byte_identical\": {},", sweep.byte_identical());
    let _ = writeln!(json, "  \"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        // A speedup is only claimed where every worker has a core.
        let speedup = if r.workers <= max {
            format!(", \"speedup_vs_1\": {:.2}", r.nodes_per_second / base)
        } else {
            String::new()
        };
        let _ = writeln!(
            json,
            "    {{\"workers\": {}, \"wall_seconds\": {:.3}, \"nodes_per_second\": {:.1}{speedup}}}{comma}",
            r.workers, r.wall_seconds, r.nodes_per_second,
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    print!("{json}");
    write_artifact(smoke, "BENCH_fleet.json", &json);
    require_byte_identical(&sweep, "run digest");
}
