//! Reconciler tests: diff-engine properties, convergent recovery, and
//! determinism of the sharded churn driver.
//!
//! The property tests pin the reconciler's contracts: plans are
//! minimal, a tick runs the first `g` ops of the plan it diffed and
//! the next diff is the rest, and rate-limited churn is deferred rather
//! than dropped. The regression tests pin the behaviour the reconciler
//! was built for: a permanently-faulted node that the pipeline abandoned
//! back to Free is re-claimed and converged once the fault clears,
//! where the old one-shot fleet call stayed one node short forever, and
//! a node whose release failed stays held, and attested, until a later
//! tick releases it.

mod common;

use bolted::core::{
    diff, reconcile_fleet_parallel, DesiredState, ObservedState, OpBudget, ReconcileFleetSpec,
    ReconcileOp, ReconcilerConfig, SecurityProfile, Tenant, TenantReconciler,
};
use bolted::hil::NodeId;
use bolted::keylime::AttestOutcome;
use bolted::sim::fault::{ops, FaultPlan, FaultSpec};
use bolted::sim::{Rng, SimDuration};

use common::world;

fn observed(held: &[usize], profile: &SecurityProfile, networks: usize) -> ObservedState {
    ObservedState {
        nodes: held
            .iter()
            .map(|&i| (NodeId(i), profile.name.clone()))
            .collect(),
        networks,
    }
}

#[test]
fn plans_are_minimal_across_the_state_grid() {
    // Sweep held-count x desired-count x networks: the plan must contain
    // exactly the deficit/surplus — never an op for a converged node —
    // and a converged pair must plan nothing at all.
    let charlie = SecurityProfile::charlie();
    for held in 0..6usize {
        for want in 0..6usize {
            for nets in 0..3usize {
                let obs = observed(&(0..held).collect::<Vec<_>>(), &charlie, 0);
                let desired = DesiredState {
                    profile: charlie.clone(),
                    node_count: want,
                    networks: nets,
                };
                let plan = diff(&desired, &obs);
                let releases = plan
                    .iter()
                    .filter(|o| matches!(o, ReconcileOp::Release { .. }))
                    .count();
                let provisions = plan
                    .iter()
                    .filter(|o| matches!(o, ReconcileOp::Provision))
                    .count();
                let networks = plan
                    .iter()
                    .filter(|o| matches!(o, ReconcileOp::CreateNetwork))
                    .count();
                assert_eq!(releases, held.saturating_sub(want), "{held}->{want}");
                assert_eq!(provisions, want.saturating_sub(held), "{held}->{want}");
                assert_eq!(networks, nets);
                if held == want && nets == 0 {
                    assert!(plan.is_empty(), "converged state must plan nothing");
                }
            }
        }
    }
}

#[test]
fn a_tick_runs_the_first_g_ops_and_leaves_the_rest_to_the_next_diff() {
    // A plan lives for one tick. Over seeded declarations (profile
    // flips, scale up and down, networks) and grants `g`, in a
    // fault-free world with enough free nodes, each tick of a real
    // reconciler runs exactly the first `g` ops of the plan it diffed:
    // the diff after the tick is that plan minus its first `g` ops.
    let profiles = [SecurityProfile::alice(), SecurityProfile::charlie()];
    let mut rng = Rng::seed_from_u64(0x1D3A);
    for case in 0..6 {
        let steps: Vec<(DesiredState, usize)> = (0..4)
            .map(|_| {
                let desired = DesiredState {
                    profile: profiles[rng.gen_range(2) as usize].clone(),
                    node_count: rng.gen_range(5) as usize,
                    networks: rng.gen_range(4) as usize,
                };
                (desired, rng.gen_range(6) as usize)
            })
            .collect();
        let (sim, cloud, golden) = world().nodes(8).build();
        let tenant = Tenant::new(&cloud, "tenant-00").expect("tenant");
        let config = ReconcilerConfig { churn_burst: 64 };
        let idle = DesiredState::new(SecurityProfile::alice(), 0);
        let mut rec = TenantReconciler::new(tenant, golden, idle, &config);
        let tick_gap = sim.clone();
        sim.block_on(async move {
            for (step, (desired, g)) in steps.into_iter().enumerate() {
                rec.set_desired(desired);
                for tick in 0..3 {
                    let at = format!("case {case} step {step} tick {tick} g {g}");
                    let plan = diff(rec.desired(), &rec.observed());
                    let report = rec.tick(&mut OpBudget::new(g)).await;
                    let ran = g.min(plan.len());
                    assert_eq!(report.planned, plan.len(), "{at}");
                    assert_eq!(report.planned - report.deferred, ran, "{at}");
                    assert_eq!(report.executed, ran, "{at}");
                    assert_eq!(
                        (report.release_failed, report.provision_failed),
                        (0, 0),
                        "{at}"
                    );
                    assert_eq!(
                        diff(rec.desired(), &rec.observed()),
                        plan[ran..].to_vec(),
                        "{at}: plan {plan:?}"
                    );
                    // A minute refills the churn bucket, so the shard
                    // budget alone decides `g`.
                    tick_gap.sleep(SimDuration::from_secs(60)).await;
                }
            }
        });
    }
}

#[test]
fn a_failed_release_keeps_its_node_held_until_hil_takes_it_back() {
    // Scale 2 -> 1 while every BMC refuses power commands: the release
    // fails at power-off, before HIL frees the node. The node is still
    // the tenant's, so it stays held and the tenant is not converged;
    // once the fault clears, the next tick releases it again.
    let (sim, cloud, golden) = world().nodes(2).build();
    let tenant = Tenant::new(&cloud, "tenant-00").expect("tenant");
    let desired = DesiredState::new(SecurityProfile::charlie(), 2);
    let mut rec = TenantReconciler::new(tenant, golden, desired, &ReconcilerConfig::default());
    let (faults, hil) = (cloud.faults.clone(), cloud.hil.clone());
    let (failed, held_after_fault, free_after_fault, retried, held, free) =
        sim.block_on(async move {
            let up = rec.tick(&mut OpBudget::new(64)).await;
            assert!(up.converged, "{up:?}");
            faults.install(FaultPlan::seeded(7).with(ops::BMC_POWER, FaultSpec::permanent()));
            rec.set_desired(DesiredState::new(SecurityProfile::charlie(), 1));
            let failed = rec.tick(&mut OpBudget::new(64)).await;
            let held_after_fault = rec.holdings().len();
            let free_after_fault = hil.free_nodes();
            faults.install(FaultPlan::none());
            let retried = rec.tick(&mut OpBudget::new(64)).await;
            let held: Vec<NodeId> = rec.holdings().iter().map(|p| p.node).collect();
            (
                failed,
                held_after_fault,
                free_after_fault,
                retried,
                held,
                hil.free_nodes(),
            )
        });
    assert_eq!((failed.release_failed, failed.released), (1, 0));
    assert!(
        !failed.converged,
        "a node the tenant still owns is not released"
    );
    assert_eq!(held_after_fault, 2, "the unreleased node stays held");
    assert_eq!(free_after_fault, Vec::<NodeId>::new());
    assert_eq!((retried.planned, retried.released), (1, 1));
    assert!(retried.converged);
    assert_eq!(held, vec![NodeId(0)]);
    assert_eq!(free, vec![NodeId(1)], "the released node is back in HIL");
}

#[test]
fn a_node_whose_release_failed_stays_attested_when_the_declaration_grows_back() {
    // Scale 2 -> 1 under a BMC power fault, then back to 2 before any
    // retry: the held node counts towards the declaration again, so no
    // tick releases or re-enrols it. It must still be under attestation.
    let (sim, cloud, golden) = world().nodes(2).build();
    let tenant = Tenant::new(&cloud, "tenant-00").expect("tenant");
    let desired = DesiredState::new(SecurityProfile::charlie(), 2);
    let mut rec = TenantReconciler::new(tenant, golden, desired, &ReconcilerConfig::default());
    let faults = cloud.faults.clone();
    let (failed, regrown, enrolled, outcome) = sim.block_on(async move {
        let up = rec.tick(&mut OpBudget::new(64)).await;
        assert!(up.converged, "{up:?}");
        faults.install(FaultPlan::seeded(7).with(ops::BMC_POWER, FaultSpec::permanent()));
        rec.set_desired(DesiredState::new(SecurityProfile::charlie(), 1));
        let failed = rec.tick(&mut OpBudget::new(64)).await;
        rec.set_desired(DesiredState::new(SecurityProfile::charlie(), 2));
        let regrown = rec.tick(&mut OpBudget::new(64)).await;
        let agent = rec
            .holdings()
            .iter()
            .find(|p| p.node == NodeId(1))
            .and_then(|p| p.agent.as_ref())
            .map(|a| a.id().to_string())
            .expect("the unreleased node is held with its agent");
        let verifier = &rec.tenant().verifier;
        let enrolled = verifier.log_offsets(&agent).is_some();
        let outcome = verifier.attest_once(&agent, false).await;
        (failed, regrown, enrolled, outcome)
    });
    assert_eq!((failed.release_failed, failed.released), (1, 0));
    assert_eq!((regrown.planned, regrown.executed), (0, 0));
    assert!(regrown.converged, "{regrown:?}");
    assert!(enrolled, "a held node keeps its verifier enrolment");
    assert_eq!(outcome, AttestOutcome::Trusted);
}

#[test]
fn a_release_that_hil_completes_despite_an_error_ends_the_enrolment() {
    // Scale 2 -> 1 while every switch refuses VLAN changes: HIL clears
    // the owner before the port detach fails, so the node is back in
    // the free pool although the release reports an error. It is no
    // longer the tenant's, so it leaves the holdings and its verifier
    // enrolment ends with it.
    let (sim, cloud, golden) = world().nodes(2).build();
    let tenant = Tenant::new(&cloud, "tenant-00").expect("tenant");
    let desired = DesiredState::new(SecurityProfile::charlie(), 2);
    let mut rec = TenantReconciler::new(tenant, golden, desired, &ReconcilerConfig::default());
    let (faults, hil) = (cloud.faults.clone(), cloud.hil.clone());
    let (failed, held, free, enrolled) = sim.block_on(async move {
        let up = rec.tick(&mut OpBudget::new(64)).await;
        assert!(up.converged, "{up:?}");
        let agent = rec
            .holdings()
            .iter()
            .find(|p| p.node == NodeId(1))
            .and_then(|p| p.agent.as_ref())
            .map(|a| a.id().to_string())
            .expect("attested node");
        faults.install(FaultPlan::seeded(7).with(ops::SWITCH_SET_VLAN, FaultSpec::permanent()));
        rec.set_desired(DesiredState::new(SecurityProfile::charlie(), 1));
        let failed = rec.tick(&mut OpBudget::new(64)).await;
        faults.install(FaultPlan::none());
        let held: Vec<NodeId> = rec.holdings().iter().map(|p| p.node).collect();
        let enrolled = rec.tenant().verifier.log_offsets(&agent).is_some();
        (failed, held, hil.free_nodes(), enrolled)
    });
    assert_eq!((failed.release_failed, failed.released), (1, 0));
    assert!(failed.converged, "{failed:?}");
    assert_eq!(held, vec![NodeId(0)]);
    assert_eq!(free, vec![NodeId(1)]);
    assert!(!enrolled, "a node HIL took back is no longer attested");
}

#[test]
fn rate_limited_churn_is_deferred_never_dropped() {
    // A 2-op burst against a 6-node declaration: convergence takes
    // several ticks, the overflow is deferred, and the admission ledger
    // accounts for every planned and every deferred entry — rate
    // limiting slows churn down, it never loses desired state.
    let (sim, cloud, golden) = world().nodes(6).build();
    let tenant = Tenant::new(&cloud, "tenant-00").expect("tenant");
    let config = ReconcilerConfig { churn_burst: 2 };
    let desired = DesiredState::new(SecurityProfile::charlie(), 6);
    let mut rec = TenantReconciler::new(tenant, golden, desired, &config);
    let (ticks, stats, held, planned, deferred) = sim.block_on(async move {
        let (mut ticks, mut planned, mut deferred) = (0usize, 0u64, 0u64);
        while !rec.is_converged() && ticks < 16 {
            let mut budget = OpBudget::new(64);
            let tr = rec.tick(&mut budget).await;
            planned += tr.planned as u64;
            deferred += tr.deferred as u64;
            ticks += 1;
        }
        (
            ticks,
            rec.queue_stats(),
            rec.holdings().len(),
            planned,
            deferred,
        )
    });
    assert_eq!(held, 6, "declaration must fully converge");
    assert!(
        ticks >= 3,
        "a 2-op burst cannot converge 6 nodes in {ticks} ticks"
    );
    assert_eq!(stats.admitted, planned, "every planned entry is admitted");
    assert_eq!(stats.deferred, deferred, "every deferral is on the ledger");
    assert!(stats.deferred > 0, "overflow must be accounted as deferred");
}

#[test]
fn admission_defers_exactly_what_the_grant_leaves() {
    // A 70-provision declaration on a 1-node world. Under a zero budget
    // nothing executes and the whole plan is admitted and deferred;
    // under a budget of 3 exactly three ops run and the rest wait.
    let (sim, cloud, golden) = world().nodes(1).build();
    let tenant = Tenant::new(&cloud, "tenant-00").expect("tenant");
    let desired = DesiredState::new(SecurityProfile::charlie(), 70);
    let mut rec = TenantReconciler::new(tenant, golden, desired, &ReconcilerConfig::default());
    let metrics = cloud.metrics.clone();
    let (starved, stats, admitted, granted) = sim.block_on(async move {
        let starved = rec.tick(&mut OpBudget::new(0)).await;
        let stats = rec.queue_stats();
        let admitted = metrics.counter("queue_admitted", &[("queue", "tenant-00")]);
        let granted = rec.tick(&mut OpBudget::new(3)).await;
        (starved, stats, admitted, granted)
    });
    assert_eq!((starved.planned, starved.deferred), (70, 70));
    assert_eq!(starved.executed, 0, "a zero budget runs nothing");
    assert_eq!(stats.deferred, 70);
    assert_eq!(admitted, 70, "the whole plan is admitted");
    assert_eq!(granted.deferred, granted.planned - 3);
}

#[test]
fn shard_budget_exhaustion_is_backpressure_not_loss() {
    // Two tenants sharing a 3-op budget per tick: the second tenant is
    // starved early, converges late, and each tenant's admission ledger
    // accounts for every entry its ticks planned and deferred.
    let (sim, cloud, golden) = world().nodes(8).build();
    let config = ReconcilerConfig::default();
    let mut recs: Vec<TenantReconciler> = (0..2)
        .map(|t| {
            let tenant = Tenant::new(&cloud, &format!("tenant-{t:02}")).expect("tenant");
            TenantReconciler::new(
                tenant,
                golden,
                DesiredState::new(SecurityProfile::charlie(), 4),
                &config,
            )
        })
        .collect();
    let (ticks, ledgers, tallies, held) = sim.block_on(async move {
        let mut ticks = 0usize;
        let mut tallies = vec![(0u64, 0u64); recs.len()];
        while recs.iter().any(|r| !r.is_converged()) && ticks < 16 {
            let mut budget = OpBudget::new(3);
            for (rec, tally) in recs.iter_mut().zip(tallies.iter_mut()) {
                let tr = rec.tick(&mut budget).await;
                tally.0 += tr.planned as u64;
                tally.1 += tr.deferred as u64;
            }
            ticks += 1;
        }
        let ledgers: Vec<(u64, u64)> = recs
            .iter()
            .map(|r| (r.queue_stats().admitted, r.queue_stats().deferred))
            .collect();
        let held: Vec<usize> = recs.iter().map(|r| r.holdings().len()).collect();
        (ticks, ledgers, tallies, held)
    });
    assert_eq!(held, vec![4, 4], "both tenants must converge");
    assert!(
        ticks >= 3,
        "a 3-op shard budget cannot converge 8 nodes in {ticks} ticks"
    );
    assert_eq!(
        ledgers, tallies,
        "queue_admitted and queue_deferred must sum each tenant's ticks"
    );
    assert!(
        tallies[1].1 > 0,
        "the starved tenant's overflow must be accounted as deferred"
    );
}

#[test]
fn permanently_faulted_node_is_reconverged_by_the_reconciler() {
    // The regression ISSUE 10 pins. Old path: one fleet call abandons
    // the dead-BMC node back to Free and the tenant stays at n-1
    // forever. Reconciler path: the abandon is just a deficit at the
    // next tick — once the operator clears the fault, the loop re-claims
    // the node and converges with no dedicated recovery code.
    let plan = FaultPlan::seeded(11).with_target(ops::BMC_POWER, "m620-03", FaultSpec::permanent());
    let (sim, cloud, golden) = world().nodes(4).faults(plan).build();
    let tenant = Tenant::new(&cloud, "tenant-00").expect("tenant");
    let desired = DesiredState::new(SecurityProfile::charlie(), 4);
    let mut rec = TenantReconciler::new(tenant, golden, desired, &ReconcilerConfig::default());
    let faults = cloud.faults.clone();
    let (first, second, names) = sim.block_on(async move {
        let mut budget = OpBudget::new(64);
        let first = rec.tick(&mut budget).await;
        // The old abandon-only path ends here: 3 of 4 nodes, forever.
        faults.install(FaultPlan::none());
        let mut budget = OpBudget::new(64);
        let second = rec.tick(&mut budget).await;
        let mut names: Vec<String> = rec
            .holdings()
            .iter()
            .map(|p| p.report.node.clone())
            .collect();
        names.sort();
        (first, second, names)
    });
    assert_eq!(first.provisioned, 3);
    assert_eq!(first.provision_failed, 1, "the dead node must be abandoned");
    assert!(!first.converged);
    assert_eq!(second.provisioned, 1, "the abandoned node is re-claimed");
    assert_eq!(second.provision_failed, 0);
    assert!(second.converged, "desired state must be reached");
    assert_eq!(
        names,
        vec!["m620-01", "m620-02", "m620-03", "m620-04"],
        "the previously dead node is part of the converged holdings"
    );
}

#[test]
fn profile_flip_releases_and_reprovisions_to_convergence() {
    // Desired-state churn: flip a converged charlie tenant to bob. The
    // next ticks release every wrongly-profiled node and re-provision
    // under the new profile, ending converged.
    let (sim, cloud, golden) = world().nodes(3).build();
    let tenant = Tenant::new(&cloud, "tenant-00").expect("tenant");
    let mut rec = TenantReconciler::new(
        tenant,
        golden,
        DesiredState::new(SecurityProfile::charlie(), 3),
        &ReconcilerConfig::default(),
    );
    let (released, profile_names, converged) = sim.block_on(async move {
        let mut budget = OpBudget::new(64);
        rec.tick(&mut budget).await;
        rec.set_desired(DesiredState::new(SecurityProfile::bob(), 3));
        let mut released = 0usize;
        let mut ticks = 0usize;
        while !rec.is_converged() && ticks < 8 {
            let mut budget = OpBudget::new(64);
            released += rec.tick(&mut budget).await.released;
            ticks += 1;
        }
        let profiles: Vec<String> = rec
            .holdings()
            .iter()
            .map(|p| p.report.profile.clone())
            .collect();
        (released, profiles, rec.is_converged())
    });
    assert_eq!(released, 3, "every charlie node must be released");
    assert!(converged);
    assert_eq!(profile_names, vec!["bob-attested"; 3]);
}

#[test]
fn sharded_churn_run_is_converged_clean_and_worker_independent() {
    // End-to-end smoke of the parallel driver: seeded churn plus
    // injected flaky BMC faults, across 1 and 2 pool workers. The run
    // must converge every epoch, hold every isolation invariant, have
    // exercised the abandon->re-claim path, and produce byte-identical
    // digests at both worker counts.
    let spec = ReconcileFleetSpec::new(2, 12, 2, 2, 0xAD5E_0010);
    let one = reconcile_fleet_parallel(&spec, 1).expect("1-worker run");
    let two = reconcile_fleet_parallel(&spec, 2).expect("2-worker run");
    assert!(one.converged(), "every shard must converge every epoch");
    assert_eq!(one.violations(), Vec::<String>::new());
    assert!(
        one.total("provision_failed") > 0.0,
        "the injected faults must exercise abandon-to-Free recovery"
    );
    assert!(one.total("provision_ok") > 0.0);
    assert_eq!(one.digest(), two.digest(), "digest depends on worker count");
}
