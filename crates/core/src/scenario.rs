//! The paper's hostile-coexistence claims as executable scenarios.
//!
//! Each function here builds one [`Scenario`] (see
//! [`bolted_sim::scenario`] for the harness): a victim tenant whose
//! workload runs twice — alone (baseline) and next to an attacker
//! (hostile) — under one seed, with the paper's isolation claims as
//! exact invariants and its availability claims as numeric degradation
//! and recovery bounds.
//!
//! The six shipped scenarios cover the attack surfaces a bare-metal
//! co-tenant actually has in this architecture:
//!
//! 1. **noisy-neighbor-storage** — spindle saturation of the shared
//!    Ceph/iSCSI backend during a victim boot storm (§7.1 topology).
//! 2. **airlock-starvation** — a malicious tenant churning allocate →
//!    attest → free cycles to hog the serialized airlock (§7.3).
//! 3. **vlan-exhaustion** — create-network spam against the shared
//!    provider VLAN pool, contained by the per-project quota.
//! 4. **quote-storm** — continuous-attestation spam saturating a shared
//!    verifier's bounded verification slots.
//! 5. **runbook-replay** — a control-plane worker dying mid-reconcile
//!    (permanent BMC fault → abandon-to-Free) and the operator runbook
//!    that re-provisions the node, with recovery-time bounds.
//! 6. **reconciler-recovery** — the same worker death, recovered by the
//!    declarative reconciler ([`crate::reconcile`]) re-claiming the
//!    abandoned node with no operator runbook at all.
//!
//! Every world is built from scratch inside its world function (its
//! [`Sim`] never escapes), so scenario lists are byte-identical across
//! pool worker counts — the same determinism contract as fleet shards.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bolted_firmware::KernelImage;
use bolted_hil::{HilError, NodeId};
use bolted_keylime::VerifierConfig;
use bolted_sim::fault::{ops, FaultPlan, FaultSpec};
use bolted_sim::scenario::{Scenario, WorldFn, WorldReport};
use bolted_sim::{join_all, Samples, Sim, SimDuration};
use bolted_storage::{ImageId, ObjectKey};

use crate::cloud::{Cloud, CloudConfig};
use crate::profile::SecurityProfile;
use crate::provision::{FleetReport, ProvisionError, Tenant};
use crate::reconcile::{DesiredState, OpBudget, ReconcilerConfig, TenantReconciler};
use crate::services::{KeylimeAttestation, Services, TenantEnv};

/// How big the scenario worlds are. `Smoke` keeps the suite fast enough
/// for a test/CI gate; `Full` is the committed-artifact size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioScale {
    /// Small worlds for `cargo test` and the `--smoke` verify gate.
    Smoke,
    /// The `results/scenarios.json` artifact size.
    Full,
}

// ---------------------------------------------------------------------------
// World plumbing shared by every scenario.
// ---------------------------------------------------------------------------

struct World {
    sim: Sim,
    cloud: Cloud,
    golden: ImageId,
}

/// Builds a fresh deterministic world: executor, cloud and golden image.
fn world(nodes: usize, seed: u64, faults: FaultPlan) -> Result<World, ProvisionError> {
    let sim = Sim::new();
    let cloud = Cloud::build(
        &sim,
        CloudConfig {
            nodes,
            seed,
            faults,
            ..CloudConfig::default()
        },
    );
    let kernel = KernelImage::from_bytes("fedora28-4.17.9", b"vmlinuz+initrd");
    let golden = cloud
        .bmi
        .create_golden("fedora28", 8 << 30, 7, &kernel, "")
        .map_err(ProvisionError::Bmi)?;
    Ok(World { sim, cloud, golden })
}

/// Runs a fallible world function. Infrastructure errors while standing
/// the world up become a loud `world_error = 1` measurement (every
/// scenario pins `world_error == 0` as an invariant), never a panic.
fn run_world<F>(f: F) -> WorldReport
where
    F: FnOnce() -> Result<WorldReport, ProvisionError>,
{
    match f() {
        Ok(mut report) => {
            report.set("world_error", 0.0);
            report
        }
        Err(e) => {
            let mut report = WorldReport::new();
            report.set("world_error", 1.0);
            report.metrics = format!("world setup failed: {e}");
            report
        }
    }
}

/// Records the victim-side ledger every scenario asserts over: fleet
/// outcome counts, per-node latency percentiles, and the per-target
/// attestation accounting (key releases, verdict flips) scoped to the
/// victim's nodes.
fn victim_measurements(
    report: &mut WorldReport,
    cloud: &Cloud,
    fleet: &FleetReport,
    victim_nodes: &[NodeId],
) {
    let mut totals = Samples::new();
    for p in &fleet.succeeded {
        totals.push(p.report.total().as_secs_f64());
    }
    report.set("victim_ok", fleet.succeeded.len() as f64);
    report.set("victim_failed", fleet.failed.len() as f64);
    report.set("victim_p99_s", totals.percentile(99.0));
    report.set("victim_mean_s", totals.mean());
    let mut releases = 0u64;
    let mut flips = 0u64;
    for &node in victim_nodes {
        let Ok(name) = cloud.hil.node_name(node) else {
            continue;
        };
        releases += cloud.metrics.counter("key_releases", &[("target", &name)]);
        flips += cloud.metrics.counter(
            "quote_verdicts",
            &[("target", &name), ("outcome", "failed")],
        );
    }
    report.set("victim_key_releases", releases as f64);
    report.set("victim_verdict_flips", flips as f64);
    report.set(
        "total_key_releases",
        cloud.metrics.counter_total("key_releases") as f64,
    );
    report.set("rejected_nodes", cloud.rejected_pool().len() as f64);
    report.set("sim_seconds", cloud.sim.now().as_secs_f64());
}

/// p99 over the victim fleet of the summed durations of the named
/// provisioning phases — how long the *attacked* part of the pipeline
/// took, isolated from the phases the attacker cannot touch. NaN when a
/// succeeded report lacks one of the phases, so a bound on a phase no
/// run records fails instead of summing zero.
fn phase_p99(fleet: &FleetReport, phases: &[&str]) -> f64 {
    let mut samples = Samples::new();
    for p in &fleet.succeeded {
        let mut total = 0.0;
        for name in phases {
            let Some(d) = p.report.phase(name) else {
                return f64::NAN;
            };
            total += d.as_secs_f64();
        }
        samples.push(total);
    }
    samples.percentile(99.0)
}

/// Provisions `nodes` as one fleet call under the full attested profile.
async fn provision_victim(tenant: &Tenant, nodes: &[NodeId], golden: ImageId) -> FleetReport {
    tenant
        .provision_fleet_report(nodes, &SecurityProfile::charlie(), golden)
        .await
}

// ---------------------------------------------------------------------------
// 1. Noisy neighbor: Ceph/iSCSI spindle saturation during a boot storm.
// ---------------------------------------------------------------------------

/// One world of the storage scenario: a victim boot storm, with
/// `storm_tasks` attacker readers hammering the shared spindles when
/// nonzero.
fn storage_world(seed: u64, victim_n: usize, storm_tasks: usize) -> WorldReport {
    run_world(|| {
        let w = world(victim_n, seed, FaultPlan::none())?;
        let tenant = Tenant::new(&w.cloud, "charlie")?;
        let victim_nodes = w.cloud.nodes();
        let stop = Arc::new(AtomicBool::new(false));
        let (fleet, attacker_reads) = w.sim.block_on({
            let sim = w.sim.clone();
            let cluster = w.cloud.cluster.clone();
            let tenant = tenant.clone();
            let victim_nodes = victim_nodes.clone();
            let golden = w.golden;
            let stop = stop.clone();
            async move {
                // The attacker: greedy sequential readers, each walking
                // its own stride of 8 MiB golden-image objects, pinning
                // as many of the 27 shared spindles as placement hashes
                // allow. No privileged API — just I/O any tenant can
                // issue against the shared storage service.
                let readers: Vec<_> = (0..storm_tasks)
                    .map(|t| {
                        let cluster = cluster.clone();
                        let stop = stop.clone();
                        sim.spawn(async move {
                            let mut reads = 0u64;
                            let mut index = t as u64;
                            while !stop.load(Ordering::Relaxed) {
                                let key = ObjectKey {
                                    image: golden,
                                    index: index % 64,
                                };
                                cluster.charge_read(key, 8 << 20).await;
                                index += storm_tasks as u64;
                                reads += 1;
                            }
                            reads
                        })
                    })
                    .collect();
                let fleet = provision_victim(&tenant, &victim_nodes, golden).await;
                stop.store(true, Ordering::Relaxed);
                let reads: u64 = join_all(readers).await.into_iter().sum();
                (fleet, reads)
            }
        });
        let mut report = WorldReport::new();
        victim_measurements(&mut report, &w.cloud, &fleet, &victim_nodes);
        report.set("attacker_reads", attacker_reads as f64);
        // The one phase that crosses the shared spindles: `kernel-boot`
        // holds the victim's root-disk boot reads, where the storm
        // lands, isolated from POST/attestation time it can't touch.
        report.set("victim_boot_io_p99_s", phase_p99(&fleet, &["kernel-boot"]));
        report.spans = w.cloud.spans.render();
        report.metrics = w.cloud.metrics.to_json();
        Ok(report)
    })
}

/// Noisy-neighbor Ceph/iSCSI spindle saturation during a victim boot
/// storm.
pub fn noisy_neighbor_storage(scale: ScenarioScale) -> Scenario {
    let (victim_n, storm) = match scale {
        ScenarioScale::Smoke => (3usize, 48usize),
        ScenarioScale::Full => (5, 64),
    };
    let baseline: WorldFn = Arc::new(move |seed| storage_world(seed, victim_n, 0));
    let hostile: WorldFn = Arc::new(move |seed| storage_world(seed, victim_n, storm));
    Scenario::new(
        "noisy-neighbor-storage",
        "co-tenant saturates the shared Ceph spindles while the victim boot-storms its fleet",
        0xAD5E_0001,
        baseline,
        hostile,
    )
    .isolation_equals("world_error", 0.0)
    .isolation_equals("victim_ok", victim_n as f64)
    .isolation_equals("victim_key_releases", victim_n as f64)
    .isolation_equals("victim_verdict_flips", 0.0)
    .isolation_equals("rejected_nodes", 0.0)
    // Potency lands where the attack does — the boot-I/O phases that
    // cross the shared spindles — while the victim's end-to-end latency
    // stays bounded (POST and attestation are out of the blast radius).
    .ratio_at_least("victim_boot_io_p99_s", 1.10)
    .ratio_at_most("victim_boot_io_p99_s", 12.0)
    .ratio_at_most("victim_p99_s", 2.0)
    .at_least("attacker_reads", 1.0)
}

// ---------------------------------------------------------------------------
// 2. Airlock starvation: allocate/attest/free churn against the
//    serialized attestation window.
// ---------------------------------------------------------------------------

/// One world of the airlock scenario: when `churn_cycles` is nonzero,
/// a second tenant churns allocate → attest → free on its own nodes,
/// holding the single airlock slot as often as it can.
fn airlock_world(
    seed: u64,
    victim_n: usize,
    attacker_n: usize,
    churn_cycles: usize,
) -> WorldReport {
    run_world(|| {
        let w = world(victim_n + attacker_n, seed, FaultPlan::none())?;
        let victim = Tenant::new(&w.cloud, "charlie")?;
        let all = w.cloud.nodes();
        let victim_nodes: Vec<NodeId> = all.iter().copied().take(victim_n).collect();
        let attacker_nodes: Vec<NodeId> = all.iter().copied().skip(victim_n).collect();
        let attacker = if churn_cycles > 0 {
            Some(Tenant::new(&w.cloud, "mallory")?)
        } else {
            None
        };
        let (fleet, churned) = w.sim.block_on({
            let sim = w.sim.clone();
            let victim = victim.clone();
            let victim_nodes = victim_nodes.clone();
            let attacker_nodes = attacker_nodes.clone();
            let golden = w.golden;
            async move {
                // The attacker spams full allocate → attest → free
                // cycles: every cycle re-enters the airlock (the paper
                // serializes the attestation window, §7.3), so each
                // churned node steals one slot-width of victim latency.
                let churn = attacker.map(|mallory| {
                    sim.spawn(async move {
                        let mut cycles = 0u64;
                        for _ in 0..churn_cycles {
                            let rep = mallory
                                .provision_fleet_report(
                                    &attacker_nodes,
                                    &SecurityProfile::charlie(),
                                    golden,
                                )
                                .await;
                            for mut p in rep.succeeded {
                                let _ = mallory.release(&mut p, false).await;
                            }
                            cycles += 1;
                        }
                        cycles
                    })
                });
                // The victim arrives mid-churn: by the time its nodes
                // clear boot and reach the airlock, the attacker's first
                // cycle is holding the slot. (Same delay in the baseline,
                // so per-node totals compare like for like.)
                sim.sleep(SimDuration::from_secs(30)).await;
                let fleet = provision_victim(&victim, &victim_nodes, golden).await;
                let churned = match churn {
                    Some(handle) => handle.await,
                    None => 0,
                };
                (fleet, churned)
            }
        });
        let mut report = WorldReport::new();
        victim_measurements(&mut report, &w.cloud, &fleet, &victim_nodes);
        report.set("attacker_churn_cycles", churned as f64);
        // Time spent queued for the airlock slot — exactly what the
        // churn steals.
        report.set(
            "victim_airlock_wait_p99_s",
            phase_p99(&fleet, &["airlock-wait"]),
        );
        report.set(
            "cross_tenant_paths",
            w.cloud.cross_tenant_paths(&victim_nodes, &attacker_nodes) as f64,
        );
        report.set("free_nodes_after", w.cloud.hil.free_nodes().len() as f64);
        report.spans = w.cloud.spans.render();
        report.metrics = w.cloud.metrics.to_json();
        Ok(report)
    })
}

/// A malicious tenant spamming allocate/free to starve the airlock.
pub fn airlock_starvation(scale: ScenarioScale) -> Scenario {
    let (victim_n, attacker_n, cycles) = match scale {
        ScenarioScale::Smoke => (3usize, 2usize, 2usize),
        ScenarioScale::Full => (4, 3, 3),
    };
    let baseline: WorldFn = Arc::new(move |seed| airlock_world(seed, victim_n, attacker_n, 0));
    let hostile: WorldFn = Arc::new(move |seed| airlock_world(seed, victim_n, attacker_n, cycles));
    Scenario::new(
        "airlock-starvation",
        "malicious tenant churns allocate/attest/free cycles to hog the serialized airlock",
        0xAD5E_0002,
        baseline,
        hostile,
    )
    .isolation_equals("world_error", 0.0)
    .isolation_equals("victim_ok", victim_n as f64)
    .isolation_equals("victim_key_releases", victim_n as f64)
    .isolation_equals("victim_verdict_flips", 0.0)
    .isolation_equals("rejected_nodes", 0.0)
    .isolation_equals("cross_tenant_paths", 0.0)
    .isolation_equals("attacker_churn_cycles", cycles as f64)
    // All churned nodes went back to the free pool; the victim keeps its
    // own nodes allocated.
    .isolation_equals("free_nodes_after", attacker_n as f64)
    // The starvation shows up where it happens — queueing for the
    // airlock slot — while end-to-end latency stays bounded.
    .ratio_at_least("victim_airlock_wait_p99_s", 1.10)
    .ratio_at_most("victim_airlock_wait_p99_s", 20.0)
    .ratio_at_most("victim_p99_s", 3.0)
}

// ---------------------------------------------------------------------------
// 3. VLAN-pool exhaustion, contained by the per-project quota.
// ---------------------------------------------------------------------------

/// One world of the VLAN scenario: with `flood > 0` the attacker spams
/// create-network `flood` times before the victim even arrives.
fn vlan_world(seed: u64, victim_n: usize, quota: usize, flood: usize) -> WorldReport {
    run_world(|| {
        let w = world(victim_n, seed, FaultPlan::none())?;
        w.cloud.hil.set_network_quota(Some(quota));
        let mut granted = 0u64;
        let mut quota_refusals = 0u64;
        let mut pool_refusals = 0u64;
        for i in 0..flood {
            match w.cloud.hil.create_network("mallory", format!("flood-{i}")) {
                Ok(_) => granted += 1,
                Err(HilError::QuotaExceeded) => quota_refusals += 1,
                Err(HilError::NoFreeVlans) => pool_refusals += 1,
                Err(_) => {}
            }
        }
        // The victim shows up *after* the flood: tenant creation draws
        // its enclave + airlock VLANs from whatever the attacker left.
        let victim = Tenant::new(&w.cloud, "charlie")?;
        let victim_nodes = w.cloud.nodes();
        let fleet = w.sim.block_on({
            let victim = victim.clone();
            let victim_nodes = victim_nodes.clone();
            let golden = w.golden;
            async move { provision_victim(&victim, &victim_nodes, golden).await }
        });
        let mut report = WorldReport::new();
        victim_measurements(&mut report, &w.cloud, &fleet, &victim_nodes);
        report.set("attacker_networks", granted as f64);
        report.set("attacker_quota_refusals", quota_refusals as f64);
        report.set("attacker_pool_refusals", pool_refusals as f64);
        report.set("free_vlans_after", w.cloud.hil.free_vlans() as f64);
        report.spans = w.cloud.spans.render();
        report.metrics = w.cloud.metrics.to_json();
        Ok(report)
    })
}

/// VLAN-pool exhaustion: create-network spam hits the per-project quota
/// while the victim keeps allocating from the shared pool.
pub fn vlan_exhaustion(scale: ScenarioScale) -> Scenario {
    let victim_n = match scale {
        ScenarioScale::Smoke => 2usize,
        ScenarioScale::Full => 4,
    };
    const QUOTA: usize = 8;
    const FLOOD: usize = 50;
    let baseline: WorldFn = Arc::new(move |seed| vlan_world(seed, victim_n, QUOTA, 0));
    let hostile: WorldFn = Arc::new(move |seed| vlan_world(seed, victim_n, QUOTA, FLOOD));
    Scenario::new(
        "vlan-exhaustion",
        "create-network spam against the shared VLAN pool, capped by the per-project quota",
        0xAD5E_0003,
        baseline,
        hostile,
    )
    .isolation_equals("world_error", 0.0)
    .isolation_equals("victim_ok", victim_n as f64)
    .isolation_equals("victim_key_releases", victim_n as f64)
    .isolation_equals("rejected_nodes", 0.0)
    // The quota, not the pool, stops the spam: exactly `QUOTA` networks
    // granted, every other attempt refused by quota, none by exhaustion.
    .isolation_equals("attacker_networks", QUOTA as f64)
    .isolation_equals("attacker_quota_refusals", (FLOOD - QUOTA) as f64)
    .isolation_equals("attacker_pool_refusals", 0.0)
    // 1000-VLAN pool minus the attacker's quota'd grab minus the
    // victim's own enclave + airlock networks.
    .at_least("free_vlans_after", (1000 - QUOTA - 2) as f64)
    // HIL operations are control-plane-only: the victim's data-path
    // timing must be untouched by the flood.
    .ratio_at_most("victim_p99_s", 1.001)
}

// ---------------------------------------------------------------------------
// 4. Quote storm against a shared, capacity-bounded verifier.
// ---------------------------------------------------------------------------

/// One world of the quote-storm scenario: victim and attacker share one
/// verifier with bounded verification slots; with `storm_tasks > 0` the
/// attacker floods it with continuous-attestation rounds for its own
/// (already provisioned) nodes while the victim boots.
fn quote_storm_world(
    seed: u64,
    victim_n: usize,
    attacker_n: usize,
    storm_tasks: usize,
) -> WorldReport {
    run_world(|| {
        let w = world(victim_n + attacker_n, seed, FaultPlan::none())?;
        // One provider-operated attestation service for every tenant —
        // the shared-verifier deployment — with a single verification
        // slot, so quote verification is a saturable resource.
        let shared = Arc::new(KeylimeAttestation::new(
            &w.cloud,
            VerifierConfig {
                verify_slots: Some(1),
                // Near the paper's "under one second" per verification:
                // heavy enough that holding the single slot is a real
                // denial surface. Same cost in both worlds.
                verify_cost: SimDuration::from_millis(800),
                ..VerifierConfig::default()
            },
        ));
        let verifier = shared.verifier().clone();
        let services = Services::of_cloud(&w.cloud, shared);
        let victim = Tenant::with_backend(
            "charlie",
            TenantEnv::of_cloud(&w.cloud),
            services.clone(),
            verifier.clone(),
        )?;
        let attacker = Tenant::with_backend(
            "mallory",
            TenantEnv::of_cloud(&w.cloud),
            services,
            verifier.clone(),
        )?;
        let all = w.cloud.nodes();
        let victim_nodes: Vec<NodeId> = all.iter().copied().take(victim_n).collect();
        let attacker_nodes: Vec<NodeId> = all.iter().copied().skip(victim_n).collect();
        let stop = Arc::new(AtomicBool::new(false));
        let (attacker_ok, fleet, storm_rounds) = w.sim.block_on({
            let sim = w.sim.clone();
            let cloud = w.cloud.clone();
            let golden = w.golden;
            let victim_nodes = victim_nodes.clone();
            let attacker_nodes = attacker_nodes.clone();
            let stop = stop.clone();
            async move {
                // Phase A: the attacker legitimately provisions its own
                // nodes first — it needs enrolled agents to quote with.
                let arep = attacker
                    .provision_fleet_report(&attacker_nodes, &SecurityProfile::charlie(), golden)
                    .await;
                // Phase B: the storm — tight attest_once loops against
                // the attacker's own agents, each round holding the
                // shared verification slot for the full verify budget —
                // concurrent with the victim's boot attestations.
                let names: Vec<String> = attacker_nodes
                    .iter()
                    .filter_map(|&n| cloud.hil.node_name(n).ok())
                    .collect();
                let stormers: Vec<_> = (0..storm_tasks)
                    .filter_map(|t| names.get(t % names.len().max(1)).cloned())
                    .map(|name| {
                        let verifier = verifier.clone();
                        let stop = stop.clone();
                        sim.spawn(async move {
                            let mut rounds = 0u64;
                            while !stop.load(Ordering::Relaxed) {
                                verifier.attest_once(&name, true).await;
                                rounds += 1;
                            }
                            rounds
                        })
                    })
                    .collect();
                let fleet = provision_victim(&victim, &victim_nodes, golden).await;
                stop.store(true, Ordering::Relaxed);
                let rounds: u64 = join_all(stormers).await.into_iter().sum();
                (arep.succeeded.len(), fleet, rounds)
            }
        });
        let mut report = WorldReport::new();
        victim_measurements(&mut report, &w.cloud, &fleet, &victim_nodes);
        report.set("attacker_ok", attacker_ok as f64);
        report.set("storm_rounds", storm_rounds as f64);
        // Where the storm lands: the victim's boot-attestation phase,
        // queued behind storm rounds for the shared verification slot.
        report.set(
            "victim_attest_p99_s",
            phase_p99(&fleet, &["attest+payload", "keylime-register"]),
        );
        report.set(
            "cross_tenant_paths",
            w.cloud.cross_tenant_paths(&victim_nodes, &attacker_nodes) as f64,
        );
        report.spans = w.cloud.spans.render();
        report.metrics = w.cloud.metrics.to_json();
        Ok(report)
    })
}

/// Quote-storm DoS against the shared verifier's bounded capacity.
pub fn quote_storm(scale: ScenarioScale) -> Scenario {
    let (victim_n, attacker_n, storm) = match scale {
        ScenarioScale::Smoke => (3usize, 2usize, 6usize),
        ScenarioScale::Full => (4, 3, 8),
    };
    let baseline: WorldFn = Arc::new(move |seed| quote_storm_world(seed, victim_n, attacker_n, 0));
    let hostile: WorldFn =
        Arc::new(move |seed| quote_storm_world(seed, victim_n, attacker_n, storm));
    Scenario::new(
        "quote-storm",
        "attacker floods the shared verifier with continuous-attestation rounds during victim boot",
        0xAD5E_0004,
        baseline,
        hostile,
    )
    .isolation_equals("world_error", 0.0)
    .isolation_equals("victim_ok", victim_n as f64)
    .isolation_equals("victim_key_releases", victim_n as f64)
    .isolation_equals("victim_verdict_flips", 0.0)
    .isolation_equals("rejected_nodes", 0.0)
    .isolation_equals("cross_tenant_paths", 0.0)
    .isolation_equals("attacker_ok", attacker_n as f64)
    // Exactly one key release per enrolled node, victim's and
    // attacker's: the storm re-attests already-bootstrapped agents and
    // must never shake loose another key.
    .isolation_equals("total_key_releases", (victim_n + attacker_n) as f64)
    .at_least("storm_rounds", 10.0)
    // The storm queues the victim's boot attestation behind its rounds;
    // end-to-end latency stays bounded because attestation is one phase
    // of many.
    .ratio_at_least("victim_attest_p99_s", 1.10)
    .ratio_at_most("victim_attest_p99_s", 20.0)
    .ratio_at_most("victim_p99_s", 2.0)
}

// ---------------------------------------------------------------------------
// 5. Operator-runbook replay: worker death mid-reconcile → abandon →
//    re-provision convergence.
// ---------------------------------------------------------------------------

/// The node whose BMC the hostile run kills permanently.
const DEAD_NODE: &str = "m620-03";

/// One world of the runbook scenario. The hostile run injects a
/// permanent BMC fault (the worker driving that node is dead), watches
/// the fleet call abandon the node back to Free, then replays the
/// operator runbook: clear the fault (hardware replaced / worker
/// restarted) and re-provision the abandoned node to convergence.
fn runbook_world(seed: u64, nodes_n: usize, kill_worker: bool) -> WorldReport {
    run_world(|| {
        let faults = if kill_worker {
            FaultPlan::seeded(seed).with_target(ops::BMC_POWER, DEAD_NODE, FaultSpec::permanent())
        } else {
            FaultPlan::none()
        };
        let w = world(nodes_n, seed, faults)?;
        let tenant = Tenant::new(&w.cloud, "charlie")?;
        let nodes = w.cloud.nodes();
        let mut report = WorldReport::new();
        let (first, recovered, recovery_s) = w.sim.block_on({
            let sim = w.sim.clone();
            let cloud = w.cloud.clone();
            let tenant = tenant.clone();
            let nodes = nodes.clone();
            let golden = w.golden;
            async move {
                let first = provision_victim(&tenant, &nodes, golden).await;
                let failed_at = sim.now();
                let abandoned: Vec<NodeId> = first.failed.iter().map(|f| f.node).collect();
                if abandoned.is_empty() {
                    let empty = FleetReport {
                        succeeded: Vec::new(),
                        failed: Vec::new(),
                    };
                    return (first, empty, 0.0);
                }
                // Runbook step 1: the dead worker is replaced — clear
                // the standing fault plan.
                cloud.faults.install(FaultPlan::none());
                // Runbook step 2: re-provision everything the abandon
                // path returned to Free, and time the convergence.
                let second = provision_victim(&tenant, &abandoned, golden).await;
                let recovery = sim.now().since(failed_at).as_secs_f64();
                (first, second, recovery)
            }
        });
        victim_measurements(&mut report, &w.cloud, &first, &nodes);
        report.set("first_ok", first.succeeded.len() as f64);
        report.set("first_failed", first.failed.len() as f64);
        report.set("recovered_ok", recovered.succeeded.len() as f64);
        if kill_worker {
            report.set("recovery_seconds", recovery_s);
        } else {
            // The baseline's denominator for the recovery-ratio bound: a
            // clean re-provision costs about one mean node provision.
            report.set(
                "recovery_seconds",
                report.get("victim_mean_s").unwrap_or(0.0),
            );
        }
        report.set("free_nodes_after", w.cloud.hil.free_nodes().len() as f64);
        report.set(
            "total_key_releases",
            w.cloud.metrics.counter_total("key_releases") as f64,
        );
        report.spans = w.cloud.spans.render();
        report.metrics = w.cloud.metrics.to_json();
        Ok(report)
    })
}

/// Operator-runbook replay: worker death mid-reconcile, abandon-to-Free,
/// then re-provision convergence under a recovery-time bound.
pub fn runbook_replay(scale: ScenarioScale) -> Scenario {
    let nodes_n = match scale {
        ScenarioScale::Smoke => 4usize,
        ScenarioScale::Full => 4,
    };
    let baseline: WorldFn = Arc::new(move |seed| runbook_world(seed, nodes_n, false));
    let hostile: WorldFn = Arc::new(move |seed| runbook_world(seed, nodes_n, true));
    Scenario::new(
        "runbook-replay",
        "control-plane worker dies mid-reconcile; abandon-to-Free then re-provision to convergence",
        0xAD5E_0005,
        baseline,
        hostile,
    )
    .isolation_equals("world_error", 0.0)
    // Exactly one node lost to the dead worker, the rest unaffected.
    .isolation_equals("first_ok", (nodes_n - 1) as f64)
    .isolation_equals("first_failed", 1.0)
    .isolation_equals("recovered_ok", 1.0)
    // Infrastructure death is not compromise: nothing quarantined, and
    // after the replay the whole fleet is allocated again.
    .isolation_equals("rejected_nodes", 0.0)
    .isolation_equals("free_nodes_after", 0.0)
    // Convergence re-released exactly one key per node overall.
    .isolation_equals("total_key_releases", nodes_n as f64)
    // Recovery costs about one clean provision: bounded both absolutely
    // (virtual seconds) and relative to the baseline mean.
    .at_most("recovery_seconds", 200.0)
    .ratio_at_most("recovery_seconds", 2.0)
    .ratio_at_least("recovery_seconds", 0.5)
}

// ---------------------------------------------------------------------------
// 6. Reconciler recovery: the same worker death, recovered by the
//    declarative control loop instead of the operator runbook.
// ---------------------------------------------------------------------------

/// One world of the reconciler-recovery scenario. Same failure as the
/// runbook replay — a permanent BMC fault kills one node's worker — but
/// nobody replays a runbook: the tenant's declaration never changes,
/// and once the hardware is replaced (fault plan cleared) the next
/// reconcile tick sees desired ≠ observed and re-claims the abandoned
/// node from the free pool on its own.
fn reconciler_world(seed: u64, nodes_n: usize, kill_worker: bool) -> WorldReport {
    run_world(|| {
        let faults = if kill_worker {
            FaultPlan::seeded(seed).with_target(ops::BMC_POWER, DEAD_NODE, FaultSpec::permanent())
        } else {
            FaultPlan::none()
        };
        let w = world(nodes_n, seed, faults)?;
        let tenant = Tenant::new(&w.cloud, "charlie")?;
        let mut report = WorldReport::new();
        let desired = DesiredState::new(SecurityProfile::charlie(), nodes_n);
        let config = ReconcilerConfig {
            churn_burst: nodes_n.max(8),
        };
        let mut rec = TenantReconciler::new(tenant, w.golden, desired, &config);
        let (first, ticks, recovery_s) = w.sim.block_on({
            let sim = w.sim.clone();
            let cloud = w.cloud.clone();
            async move {
                let mut budget = OpBudget::new(nodes_n * 4);
                let first = rec.tick(&mut budget).await;
                let failed_at = sim.now();
                let mut ticks = 1usize;
                if !first.converged {
                    // Hardware replaced; the declaration is untouched —
                    // recovery is the reconciler's normal tick, not a
                    // dedicated path.
                    cloud.faults.install(FaultPlan::none());
                    while !rec.is_converged() && ticks < 8 {
                        let mut budget = OpBudget::new(nodes_n * 4);
                        rec.tick(&mut budget).await;
                        ticks += 1;
                    }
                }
                (first, ticks, sim.now().since(failed_at).as_secs_f64())
            }
        });
        report.set("first_ok", first.provisioned as f64);
        report.set("first_failed", first.provision_failed as f64);
        report.set("ticks_to_converge", ticks as f64);
        if kill_worker {
            report.set("recovery_seconds", recovery_s);
        } else {
            // The baseline's denominator for the recovery-ratio bound:
            // nodes provision concurrently, so the clean run's whole
            // convergence costs about one node provision.
            report.set("recovery_seconds", w.sim.now().as_secs_f64());
        }
        report.set("free_nodes_after", w.cloud.hil.free_nodes().len() as f64);
        report.set("rejected_nodes", w.cloud.rejected_pool().len() as f64);
        report.set(
            "total_key_releases",
            w.cloud.metrics.counter_total("key_releases") as f64,
        );
        report.spans = w.cloud.spans.render();
        report.metrics = w.cloud.metrics.to_json();
        Ok(report)
    })
}

/// Reconciler recovery: the runbook-replay failure, converged by the
/// declarative reconciler with no operator intervention beyond the
/// hardware swap.
pub fn reconciler_recovery(scale: ScenarioScale) -> Scenario {
    let nodes_n = match scale {
        ScenarioScale::Smoke => 4usize,
        ScenarioScale::Full => 4,
    };
    let baseline: WorldFn = Arc::new(move |seed| reconciler_world(seed, nodes_n, false));
    let hostile: WorldFn = Arc::new(move |seed| reconciler_world(seed, nodes_n, true));
    Scenario::new(
        "reconciler-recovery",
        "worker death mid-reconcile; the desired-state reconciler re-claims the abandoned node itself",
        0xAD5E_0006,
        baseline,
        hostile,
    )
    .isolation_equals("world_error", 0.0)
    // Exactly one node lost to the dead worker on the first tick.
    .isolation_equals("first_ok", (nodes_n - 1) as f64)
    .isolation_equals("first_failed", 1.0)
    // One more tick after the hardware swap converges the declaration.
    .isolation_equals("ticks_to_converge", 2.0)
    // Infrastructure death is not compromise: nothing quarantined, and
    // after convergence the whole pool is allocated again.
    .isolation_equals("rejected_nodes", 0.0)
    .isolation_equals("free_nodes_after", 0.0)
    // Convergence released exactly one key per node overall — the
    // abandoned node's failed first pass released none.
    .isolation_equals("total_key_releases", nodes_n as f64)
    // Reconciler recovery costs about one clean provision, like the
    // hand-driven runbook it replaces.
    .at_most("recovery_seconds", 200.0)
    .ratio_at_most("recovery_seconds", 2.0)
    .ratio_at_least("recovery_seconds", 0.2)
}

/// The full shipped scenario list, in artifact order.
pub fn paper_scenarios(scale: ScenarioScale) -> Vec<Scenario> {
    vec![
        noisy_neighbor_storage(scale),
        airlock_starvation(scale),
        vlan_exhaustion(scale),
        quote_storm(scale),
        runbook_replay(scale),
        reconciler_recovery(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_p99_is_nan_when_a_succeeded_report_lacks_a_named_phase() {
        let w = world(1, 1, FaultPlan::none()).expect("world");
        let tenant = Tenant::new(&w.cloud, "charlie").expect("tenant");
        let nodes = w.cloud.nodes();
        let fleet = w.sim.block_on({
            let tenant = tenant.clone();
            async move { provision_victim(&tenant, &nodes, w.golden).await }
        });
        assert_eq!(fleet.succeeded.len(), 1);
        let boot = phase_p99(&fleet, &["kernel-boot"]);
        assert!(boot > 0.0, "kernel-boot holds the boot reads: {boot}");
        // A LinuxBoot victim downloads no Heads runtime.
        assert!(phase_p99(&fleet, &["kernel-boot", "download-heads"]).is_nan());
    }
}
