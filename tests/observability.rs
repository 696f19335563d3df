//! Observability-layer integration tests: the span tree and metrics
//! registry must be (1) byte-deterministic under a seed, (2) an exact
//! ledger of retries and injected faults, and (3) silent when the
//! fault plan is empty — zero retry/fault counters, full op counters.

mod common;

use bolted::core::{
    provision_fleet_parallel, Cloud, FleetSpec, ProvisionError, SecurityProfile, Tenant,
};
use bolted::sim::fault::{ops, FaultPlan, FaultSpec};
use bolted::sim::Sim;
use bolted::storage::ImageId;

use common::world;

/// Provisions the first `n` nodes and asserts every one came up.
fn provision_all_ok(sim: &Sim, cloud: &Cloud, golden: ImageId, n: usize) {
    let report = common::charlie_fleet(sim, cloud, golden, n);
    if let Some(f) = report.failed.first() {
        panic!("{}: {}", f.name, f.error);
    }
    assert_eq!(report.succeeded.len(), n);
}

// -- golden trace ------------------------------------------------------------

#[test]
fn same_seed_runs_produce_identical_spans_and_metrics() {
    // Two fresh clouds under the same seed, same fleet: the rendered
    // span tree and the metrics JSON must match byte for byte. This is
    // the contract that makes trace-driven tests trustworthy — any
    // nondeterminism in the instrumentation itself would show up here.
    let run = || {
        let (sim, cloud, golden) = world()
            .nodes(3)
            .faults(FaultPlan::seeded(0x0B5E_57A1))
            .build();
        provision_all_ok(&sim, &cloud, golden, 3);
        (cloud.spans.render(), cloud.metrics.to_json())
    };
    let (spans_a, metrics_a) = run();
    let (spans_b, metrics_b) = run();
    assert!(!spans_a.is_empty(), "spans must be recorded");
    assert!(metrics_a.contains("provision_outcomes"), "{metrics_a}");
    assert_eq!(spans_a, spans_b, "span trees diverged under one seed");
    assert_eq!(metrics_a, metrics_b, "metrics diverged under one seed");
}

#[test]
fn span_tree_nests_phases_under_the_provision_root() {
    let (sim, cloud, golden) = world().build();
    provision_all_ok(&sim, &cloud, golden, 1);
    let root = cloud.spans.find("provision", "m620-01").expect("root span");
    assert_eq!(root.attr("outcome"), Some("ok"));
    assert_eq!(root.attr("profile"), Some("charlie-full"));
    assert!(root.is_closed());
    let children = cloud.spans.children(root.id);
    let names: Vec<&str> = children.iter().map(|c| c.name).collect();
    for phase in [
        "power-cycle",
        "firmware",
        "registrar",
        "quote-verify",
        "iscsi-attach",
        "luks-unlock",
    ] {
        assert!(names.contains(&phase), "missing child {phase}: {names:?}");
    }
    // Every phase closed, inside the root's window.
    for c in &children {
        assert!(c.is_closed(), "{} left open", c.name);
        assert!(c.seq > root.seq);
        assert!(c.end_seq.unwrap() < root.end_seq.unwrap());
    }
    // The phase histogram saw every closed tenant phase.
    let h = cloud
        .metrics
        .histogram("provision_phase_seconds", &[("phase", "firmware")])
        .expect("histogram");
    assert_eq!(h.stats.count(), 1);
}

#[test]
fn multi_threaded_fleet_runs_are_byte_identical_across_worker_counts() {
    // The multi-core path: the same FleetSpec driven through the
    // work-stealing pool at 1, 2 and 4 workers — plus a repeat run at 4 —
    // must produce byte-identical per-shard span trees and metrics
    // snapshots, and therefore equal whole-run digests. Worker count is
    // scheduling only; every observable byte is a function of the spec.
    let spec = FleetSpec::new(3, 2, 0x0B5E_57A1);
    let runs: Vec<_> = [1, 2, 4, 4]
        .iter()
        .map(|&w| provision_fleet_parallel(&spec, w).expect("fleet run"))
        .collect();
    let first = &runs[0];
    assert_eq!(first.ok(), spec.total_nodes());
    assert_eq!(first.failed(), 0);
    assert!(!first.shards[0].spans.is_empty(), "spans must be recorded");
    assert!(first.shards[0].metrics.contains("provision_outcomes"));
    for (i, run) in runs.iter().enumerate().skip(1) {
        assert_eq!(run.shards.len(), first.shards.len());
        for (a, b) in first.shards.iter().zip(&run.shards) {
            assert_eq!(
                a.spans, b.spans,
                "shard {} spans diverged in run {i}",
                a.shard
            );
            assert_eq!(
                a.metrics, b.metrics,
                "shard {} metrics diverged in run {i}",
                a.shard
            );
            assert_eq!((a.ok, a.failed), (b.ok, b.failed));
        }
        assert_eq!(first.digest(), run.digest(), "run {i} digest diverged");
    }
}

// -- retry / fault accounting ------------------------------------------------

#[test]
fn fault_plan_counts_land_exactly_per_op_and_target() {
    // m620-01's BMC flaps twice; m620-02's registrar and quote rounds
    // flap. Every injected fault and every re-attempt must land in the
    // registry under the right (op, target) pair — no more, no less.
    let plan = FaultPlan::seeded(0xACC7)
        .with_target(ops::BMC_POWER, "m620-01", FaultSpec::flaky(2))
        .with_target(ops::REGISTRAR_REGISTER, "m620-02", FaultSpec::flaky(2))
        .with_target(ops::VERIFIER_QUOTE, "m620-02", FaultSpec::flaky(2));
    let (sim, cloud, golden) = world().nodes(2).faults(plan).build();
    provision_all_ok(&sim, &cloud, golden, 2);

    let c = |name: &str, op: &str, target: &str| {
        cloud
            .metrics
            .counter(name, &[("op", op), ("target", target)])
    };
    // BMC: both faults burn inside the retry loop, so re-attempts ==
    // injected faults.
    assert_eq!(c("faults_injected", ops::BMC_POWER, "m620-01"), 2);
    assert_eq!(c("retry_attempts", "hil.power_cycle", "m620-01"), 2);
    // Registration runs its first try inline (off the tenant RNG) and
    // only enters the retry loop after that fails: fault #1 hits the
    // inline try, fault #2 the loop's own first attempt, so exactly one
    // loop-around is recorded.
    assert_eq!(c("faults_injected", ops::REGISTRAR_REGISTER, "m620-02"), 2);
    assert_eq!(c("retry_attempts", "keylime.register", "m620-02"), 1);
    // Quote round-trips retry wholly inside the verifier.
    assert_eq!(c("faults_injected", ops::VERIFIER_QUOTE, "m620-02"), 2);
    assert_eq!(c("retry_attempts", "verifier.quote", "m620-02"), 2);
    // Nothing bled onto the unfaulted node.
    assert_eq!(c("faults_injected", ops::BMC_POWER, "m620-02"), 0);
    assert_eq!(c("retry_attempts", "hil.power_cycle", "m620-02"), 0);
}

#[test]
fn empty_fault_plan_means_zero_retry_and_fault_counters() {
    let (sim, cloud, golden) = world().nodes(2).build();
    provision_all_ok(&sim, &cloud, golden, 2);
    assert_eq!(cloud.metrics.counter_total("retry_attempts"), 0);
    assert_eq!(cloud.metrics.counter_total("faults_injected"), 0);
    // ...while the op counters still tell the full story.
    assert!(cloud.metrics.counter_total("bmc_power_ops") >= 2);
    assert!(cloud.metrics.counter_total("switch_vlan_sets") > 0);
    assert!(cloud.metrics.counter_total("storage_read_ops") > 0);
    assert!(cloud.metrics.counter_total("hil_ops") > 0);
    assert_eq!(cloud.metrics.counter_total("key_releases"), 2);
    assert_eq!(
        cloud.metrics.counter(
            "provision_outcomes",
            &[("profile", "charlie-full"), ("outcome", "ok"),]
        ),
        2
    );
}

#[test]
fn bmi_counts_every_op_into_the_cloud_registry() {
    // BMI is built with the cloud's gate like every other service, so a
    // provision-and-release round trip leaves one row per BMI op.
    let (sim, cloud, golden) = world().build();
    let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
    let node = cloud.nodes()[0];
    sim.block_on(async move {
        let mut p = tenant
            .provision(node, &SecurityProfile::charlie(), golden)
            .await
            .expect("provisions");
        tenant.release(&mut p, false).await.expect("releases");
    });
    for op in ["clone", "boot_info", "boot_target", "release"] {
        assert_eq!(
            cloud.metrics.counter("bmi_ops", &[("op", op)]),
            1,
            "bmi_ops{{op={op}}}"
        );
    }
}

#[test]
fn abandoned_node_is_an_exhausted_outcome_in_the_registry() {
    // A permanently dead BMC: the node is released, the fleet call
    // reports it, and the registry shows one exhausted outcome next to
    // the successes.
    let plan = FaultPlan::seeded(7).with_target(ops::BMC_POWER, "m620-02", FaultSpec::permanent());
    let (sim, cloud, golden) = world().nodes(2).faults(plan).build();
    let report = common::charlie_fleet(&sim, &cloud, golden, 2);
    assert_eq!(report.succeeded.len(), 1);
    assert_eq!(report.failed.len(), 1);
    assert_eq!(report.failed[0].name, "m620-02");
    assert!(matches!(
        report.failed[0].error,
        ProvisionError::Exhausted { .. }
    ));
    let outcome = |o: &str| {
        cloud.metrics.counter(
            "provision_outcomes",
            &[("profile", "charlie-full"), ("outcome", o)],
        )
    };
    assert_eq!(outcome("ok"), 1);
    assert_eq!(outcome("exhausted"), 1);
    // The failed node's root span still closed, with the right verdict.
    let root = cloud.spans.find("provision", "m620-02").expect("root");
    assert!(root.is_closed());
    assert_eq!(root.attr("outcome"), Some("exhausted"));
}
