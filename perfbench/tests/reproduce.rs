//! Small-spec pins for the benchmark itself: the traced run reproduces
//! the untraced one, every workload passes its checks, the checks bite,
//! and the metric tables match `BENCHMARK.json`.

use std::time::Instant;

use bolted_core::{provision_fleet_parallel, reconcile_fleet_parallel, ReconcileFleetSpec};
use perfbench::attest::Attest;
use perfbench::churn::Churn;
use perfbench::layers::{deterministic, END_TO_END, PER_LAYER};
use perfbench::provision::Provision;
use perfbench::world::{SimStats, Tracing};
use perfbench::{run, workload, Checks, Size, Workload};

const SEED: u64 = 0x5EED;

#[test]
fn traced_provision_digest_equals_provision_fleet_parallel() {
    let w = Provision::new(Size::Smoke);
    let reference = provision_fleet_parallel(&w.spec(SEED), 1)
        .expect("fleet run")
        .digest()
        .to_hex();
    let plain = w.rep(SEED, None).expect("untraced repetition");
    let traced = w
        .rep(SEED, Some(Instant::now()))
        .expect("traced repetition");
    assert_eq!(plain.digest, reference);
    assert_eq!(traced.digest, reference);
    assert_eq!(traced.report.ok(), w.spec(SEED).total_nodes());
    let spans: Vec<_> = traced
        .shards
        .iter()
        .filter_map(|s| s.tracing.as_ref())
        .flat_map(|t| t.rec.spans())
        .collect();
    for layer in ["hil", "bmi", "firmware", "keylime", "core", "run", "obs"] {
        assert!(
            spans.iter().any(|s| s.layer() == layer),
            "no {layer} span recorded"
        );
    }
}

#[test]
fn traced_attest_reproduces_every_untraced_counter() {
    let w = Attest::new(Size::Smoke);
    let plain = w.rep(SEED, None).expect("untraced repetition");
    let traced = w
        .rep(SEED, Some(Tracing::new(Instant::now())))
        .expect("traced repetition");
    assert_eq!(plain.trusted, w.rounds_per_node() * 4);
    assert_eq!((plain.trusted, plain.other), (traced.trusted, traced.other));
    assert_eq!(
        plain.cloud.metrics.to_json(),
        traced.cloud.metrics.to_json(),
        "metrics registries differ"
    );
    assert_eq!(plain.digest, traced.digest);
    assert_eq!(SimStats::of(&traced.cloud, false).key_releases, 4);
}

#[test]
fn traced_churn_reproduces_reconcile_fleet_parallel() {
    let w = Churn::new(Size::Smoke);
    let reference = reconcile_fleet_parallel(&w.spec(SEED), 1).expect("reconcile run");
    let traced = w.traced_report(SEED).expect("traced epoch loop");
    for (a, b) in reference.shards.iter().zip(&traced.shards) {
        assert_eq!(a.measurements, b.measurements, "shard {} counters", a.shard);
        assert_eq!(a.violations, b.violations);
    }
    assert_eq!(reference.digest(), traced.digest());
}

#[test]
fn every_workload_passes_its_checks_at_smoke_size() {
    for name in ["provision", "attest", "churn"] {
        let w = workload(name, Size::Smoke).expect("known workload");
        for traced in [false, true] {
            let out = run(w.as_ref(), 0.0, traced, SEED).expect("run");
            assert!(
                out.correct(),
                "{name} traced={traced}: {:?} failed={}",
                out.failures,
                out.failed
            );
            assert!(out.attempted > 0);
            let table = if traced { PER_LAYER } else { END_TO_END };
            let line = out.result_json(traced);
            for (metric, unit) in table {
                assert!(
                    line.contains(&format!("\"{metric}\": {{\"value\": ")),
                    "{name}: {metric} missing from {line}"
                );
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
            }
            if !traced {
                for (metric, _) in END_TO_END {
                    let v = out.metrics[metric];
                    assert!(v > 0.0, "{name}: end-to-end {metric} is {v}");
                }
            }
        }
    }
}

#[test]
fn input_determined_metrics_do_not_depend_on_run_length() {
    for name in ["provision", "attest", "churn"] {
        let w = workload(name, Size::Smoke).expect("known workload");
        let t = Instant::now();
        let short = run(w.as_ref(), 0.0, true, SEED).expect("short run");
        let seconds = 3.0 * t.elapsed().as_secs_f64();
        let long = run(w.as_ref(), seconds, true, SEED).expect("long run");
        assert!(short.correct() && long.correct(), "{name}: checks failed");
        assert!(
            long.reps > short.reps,
            "{name}: {} vs {} traced repetitions",
            long.reps,
            short.reps
        );
        let mut compared = 0;
        for (metric, _) in PER_LAYER {
            if deterministic(metric) {
                let (a, b) = (short.metrics.get(metric), long.metrics.get(metric));
                assert_eq!(
                    a.map(|v| v.to_bits()),
                    b.map(|v| v.to_bits()),
                    "{name}: {metric} {a:?} vs {b:?}"
                );
                compared += usize::from(a.is_some());
            }
        }
        assert!(compared > 10, "{name}: only {compared} metrics compared");
    }
}

#[test]
fn churn_checks_fail_when_faults_never_force_a_recovery() {
    let mut spec = ReconcileFleetSpec::new(1, 12, 2, 2, 0);
    spec.inject_faults = false;
    let w = Churn::from_spec(spec);
    let mut checks = Checks::default();
    w.untraced(SEED, &mut checks).expect("untraced repetition");
    assert!(
        checks.0.iter().any(|f| f.contains("recovery")),
        "{:?}",
        checks.0
    );
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`, read
/// without a JSON library: the file is written one key per line.
fn listed(json: &str, list: &str) -> Vec<(String, String)> {
    let section = json
        .split(&format!("\"{list}\": ["))
        .nth(1)
        .and_then(|s| s.split(']').next())
        .expect("metric list present");
    let field = |line: &str, key: &str| {
        line.trim()
            .strip_prefix(&format!("\"{key}\": \""))
            .map(|v| v.trim_end_matches(',').trim_end_matches('"').to_string())
    };
    let names = section.lines().filter_map(|l| field(l, "name"));
    let units = section.lines().filter_map(|l| field(l, "unit"));
    names.zip(units).collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&json, "end_to_end"), own(END_TO_END));
    assert_eq!(listed(&json, "per_layer"), own(PER_LAYER));
}
