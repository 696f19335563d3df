//! Chaos tests: seeded fault injection across the provisioning pipeline.
//!
//! Three properties, per the fault model in DESIGN.md:
//! 1. Transient BMC / switch / registrar / verifier / storage faults are
//!    retried and provisioning still succeeds.
//! 2. A permanently-faulted node degrades gracefully: it is released
//!    back to the free pool and reported, without poisoning the rest of
//!    the fleet call.
//! 3. Everything is deterministic under a seed, and an empty fault plan
//!    is entirely free — timings match a run with no plan at all.
//!
//! Every gated layer takes the cloud's one `Faults` handle when it is
//! built, so a plan swapped in later through `Faults::install` reaches
//! all of them.

mod common;

use bolted::core::{ProvisionError, SecurityProfile, Tenant};
use bolted::sim::fault::{ops, FaultPlan, FaultSpec};

use common::{charlie_fleet, world};

/// A plan that flaps every hardware-facing layer a bounded number of
/// times (all recover within the four attempts of a retried call) and
/// sprinkles low-probability transient storage faults on top.
fn flaky_everything(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_target(ops::BMC_POWER, "m620-01", FaultSpec::flaky(2))
        .with_target(ops::SWITCH_SET_VLAN, "m620-02", FaultSpec::flaky(1))
        .with_target(ops::REGISTRAR_REGISTER, "m620-03", FaultSpec::flaky(2))
        .with_target(ops::VERIFIER_QUOTE, "m620-04", FaultSpec::flaky(2))
        .with(ops::STORAGE_READ, FaultSpec::transient(0.02))
}

#[test]
fn transient_faults_are_retried_and_the_fleet_comes_up() {
    let (sim, cloud, golden) = world().nodes(4).faults(flaky_everything(0xC4A05)).build();
    let report = charlie_fleet(&sim, &cloud, golden, 4);
    assert_eq!(
        report.succeeded.len(),
        4,
        "all nodes must recover from transient faults; failed: {:?}",
        report
            .failed
            .iter()
            .map(|f| format!("{}: {}", f.name, f.error))
            .collect::<Vec<_>>()
    );
    assert!(report.failed.is_empty());
    assert!(
        cloud.metrics.counter_total("faults_injected") > 0,
        "the plan must actually have fired"
    );
    // Each flapped layer was exercised.
    let injected = |op: &str, target: &str| {
        cloud
            .metrics
            .counter("faults_injected", &[("op", op), ("target", target)])
    };
    assert_eq!(injected(ops::BMC_POWER, "m620-01"), 2);
    assert_eq!(injected(ops::SWITCH_SET_VLAN, "m620-02"), 1);
    assert_eq!(injected(ops::REGISTRAR_REGISTER, "m620-03"), 2);
    assert_eq!(injected(ops::VERIFIER_QUOTE, "m620-04"), 2);
}

#[test]
fn permanently_dead_bmc_degrades_gracefully() {
    let plan = FaultPlan::seeded(7).with_target(ops::BMC_POWER, "m620-02", FaultSpec::permanent());
    let (sim, cloud, golden) = world().nodes(4).faults(plan).build();
    let nodes = cloud.nodes();
    let report = charlie_fleet(&sim, &cloud, golden, 4);
    // The three healthy nodes are unaffected.
    assert_eq!(report.succeeded.len(), 3);
    assert_eq!(report.failed.len(), 1);
    let failure = &report.failed[0];
    assert_eq!(failure.node, nodes[1]);
    assert_eq!(failure.name, "m620-02");
    match &failure.error {
        ProvisionError::Exhausted { op, attempts, .. } => {
            assert_eq!(op, "hil.power_cycle");
            assert!(*attempts >= 2, "got {attempts} attempts");
        }
        other => panic!("expected Exhausted, got {other}"),
    }
    // Graceful degradation: the dead node went back to the free pool —
    // it was never compromised, so it must NOT be quarantined.
    assert_eq!(cloud.hil.free_nodes(), vec![nodes[1]]);
    assert!(cloud.rejected_pool().is_empty());
}

#[test]
fn abandoned_node_leaves_a_traceable_span_event() {
    // An abandon must be reconstructible from the trace alone: which
    // node went back to Free, and why. The reconciler converges from
    // these events; a human reads the same record during an incident.
    let plan = FaultPlan::seeded(7).with_target(ops::BMC_POWER, "m620-02", FaultSpec::permanent());
    let (sim, cloud, golden) = world().nodes(4).faults(plan).build();
    let nodes = cloud.nodes();
    charlie_fleet(&sim, &cloud, golden, 4);
    let event = cloud
        .spans
        .find("abandon", "m620-02")
        .expect("abandon event for the dead node");
    assert_eq!(event.attr("node"), Some(nodes[1].0.to_string().as_str()));
    let cause = event.attr("cause").expect("abandon cause attribute");
    assert!(
        cause.contains("hil.power_cycle"),
        "cause must name the exhausted op, got: {cause}"
    );
    // Healthy nodes abandon nothing.
    assert!(cloud.spans.find("abandon", "m620-01").is_none());
}

/// Permanently faults `op` on m620-02 of a 4-node Charlie fleet, whose
/// run gives out after its root volume was cloned, and checks the one
/// abandon path: the node is back in the free pool, not quarantined,
/// its clone is deleted, and the abandon span's cause contains `cause`.
fn abandons_after_the_clone(op: &str, cause: &str) {
    let plan = FaultPlan::seeded(7).with_target(op, "m620-02", FaultSpec::permanent());
    let (sim, cloud, golden) = world().nodes(4).faults(plan).build();
    let nodes = cloud.nodes();
    let report = charlie_fleet(&sim, &cloud, golden, 4);
    assert_eq!(report.succeeded.len(), 3, "the healthy nodes come up");
    assert_eq!(report.failed.len(), 1);
    assert_eq!(report.failed[0].node, nodes[1]);
    assert_eq!(cloud.hil.free_nodes(), vec![nodes[1]]);
    assert!(cloud.rejected_pool().is_empty());
    assert_eq!(cloud.bmi.store().lookup("m620-02-root"), None);
    assert!(cloud.bmi.store().lookup("m620-01-root").is_some());
    let event = cloud
        .spans
        .find("abandon", "m620-02")
        .expect("abandon event for the faulted node");
    let got = event.attr("cause").expect("abandon cause attribute");
    assert!(got.contains(cause), "cause must read {cause:?}, got: {got}");
}

#[test]
fn dead_registrar_abandons_after_the_clone() {
    abandons_after_the_clone(ops::REGISTRAR_REGISTER, "keylime.register");
}

#[test]
fn unreachable_verifier_abandons_after_the_clone() {
    abandons_after_the_clone(ops::VERIFIER_QUOTE, "verifier unreachable after 4 attempts");
}

#[test]
fn chaos_runs_are_deterministic_under_a_seed() {
    let run = || {
        let (sim, cloud, golden) = world().nodes(4).faults(flaky_everything(0xDE7E12)).build();
        let report = charlie_fleet(&sim, &cloud, golden, 4);
        let mut names: Vec<String> = report
            .succeeded
            .iter()
            .map(|p| p.report.node.clone())
            .collect();
        names.sort();
        let injected = cloud.metrics.counter_total("faults_injected");
        (names, injected, sim.now().as_nanos())
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must reproduce the run exactly");
}

#[test]
fn empty_fault_plan_is_entirely_free() {
    // A *seeded but rule-less* plan must cost nothing: no RNG draws, no
    // extra sleeps — provisioning timings are byte-identical to the
    // default (no-plan) configuration.
    let run = |faults: FaultPlan| {
        let (sim, cloud, golden) = world().nodes(2).faults(faults).build();
        let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
        let nodes = cloud.nodes();
        let p = sim
            .block_on({
                let tenant = tenant.clone();
                async move {
                    tenant
                        .provision(nodes[0], &SecurityProfile::charlie(), golden)
                        .await
                }
            })
            .expect("provisions");
        assert_eq!(cloud.metrics.counter_total("faults_injected"), 0);
        (p.report.total().as_nanos(), sim.now().as_nanos())
    };
    assert_eq!(run(FaultPlan::none()), run(FaultPlan::seeded(0x5EED)));
}

#[test]
fn plan_installed_after_build_reaches_every_gated_layer() {
    // The cloud and the tenant's Keylime pair exist before the plan does.
    let (sim, cloud, golden) = world().nodes(5).build();
    let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
    let layers = [
        (ops::BMC_POWER, "m620-01"),
        (ops::SWITCH_SET_VLAN, "m620-02"),
        (ops::REGISTRAR_REGISTER, "m620-03"),
        (ops::VERIFIER_QUOTE, "m620-04"),
        (ops::BMI_CLONE, "m620-05"),
        (ops::STORAGE_READ, "m620-01-root"),
    ];
    let plan = layers
        .iter()
        .fold(FaultPlan::seeded(0x1A7E), |plan, (op, target)| {
            plan.with_target(op, target, FaultSpec::flaky(1))
        });
    cloud.faults.install(plan);
    let nodes = cloud.nodes();
    let report = sim.block_on(async move {
        tenant
            .provision_fleet_report(&nodes, &SecurityProfile::charlie(), golden)
            .await
    });
    for (op, target) in layers {
        assert_eq!(
            cloud
                .metrics
                .counter("faults_injected", &[("op", op), ("target", target)]),
            1,
            "{op} missed the plan"
        );
    }
    // A BMI clone is not retried: only its node fails.
    let failed: Vec<&str> = report.failed.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(failed, ["m620-05"]);
}
