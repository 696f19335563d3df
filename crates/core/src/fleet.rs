//! Multi-core fleet provisioning: shard-per-job determinism.
//!
//! A datacenter-scale fleet run is split into a **fixed** number of
//! shards, each an independent deterministic world — its own [`Sim`],
//! [`Cloud`], golden image and [`Tenant`] — provisioned to completion by
//! one [`bolted_sim::run_jobs`] pool job. Because a shard's sim is built
//! and driven entirely inside its job, the per-[`Sim`] single-driver
//! contract holds and every shard is byte-deterministic on its own;
//! because the shard *count* and per-shard seeds come from the
//! [`FleetSpec`] (never from the host), and results are merged in shard
//! index order after the pool drains, the merged run is byte-identical
//! whether it was driven by 1 worker or 64. The worker count only
//! decides wall-clock time — which is the point: provisioning throughput
//! scales with cores while the output stays a pure function of the spec.

use bolted_crypto::sha256::{sha256, Digest};
use bolted_firmware::KernelImage;
use bolted_sim::fault::mix_seed;
use bolted_sim::Sim;

use crate::cloud::{Cloud, CloudConfig};
use crate::profile::SecurityProfile;
use crate::provision::{ProvisionError, Tenant};

/// What to provision: `shards` independent clouds of `nodes_per_shard`
/// servers each. Shard `i` seeds its world with
/// `mix_seed(seed, ["fleet-shard", i])`, so shards are diverse but the
/// whole fleet is reproducible from one number.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Independent deterministic worlds. Fixed by the caller — never by
    /// the machine — so a run's shape is host-independent.
    pub shards: usize,
    /// Base servers per shard.
    pub nodes_per_shard: usize,
    /// Remainder of a non-divisible split: the first `extra_nodes`
    /// shards carry one node more than `nodes_per_shard`, so no node of
    /// a `total` that doesn't divide evenly is silently dropped.
    pub extra_nodes: usize,
    /// Base seed for the whole fleet.
    pub seed: u64,
    /// Security profile every node is provisioned under.
    pub profile: SecurityProfile,
}

impl FleetSpec {
    /// A spec provisioning `shards * nodes_per_shard` nodes under the
    /// full attested profile.
    pub fn new(shards: usize, nodes_per_shard: usize, seed: u64) -> FleetSpec {
        FleetSpec {
            shards,
            nodes_per_shard,
            extra_nodes: 0,
            seed,
            profile: SecurityProfile::charlie(),
        }
    }

    /// Splits `total` nodes across `shards` worlds as evenly as
    /// possible: every shard gets `total / shards` nodes and the first
    /// `total % shards` shards one extra, so the spec provisions exactly
    /// `total` nodes even when the division doesn't come out even.
    pub fn split_total(total: usize, shards: usize, seed: u64) -> FleetSpec {
        let shards = shards.max(1);
        FleetSpec {
            shards,
            nodes_per_shard: total / shards,
            extra_nodes: total % shards,
            seed,
            profile: SecurityProfile::charlie(),
        }
    }

    /// Nodes assigned to one shard under the remainder-spreading split.
    pub fn shard_nodes(&self, shard: usize) -> usize {
        self.nodes_per_shard + usize::from(shard < self.extra_nodes)
    }

    /// Total nodes across all shards.
    pub fn total_nodes(&self) -> usize {
        self.shards * self.nodes_per_shard + self.extra_nodes
    }
}

/// One shard's complete, serialisable outcome.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Shard index within the spec.
    pub shard: usize,
    /// Nodes that provisioned into the enclave.
    pub ok: usize,
    /// Nodes that failed or were abandoned.
    pub failed: usize,
    /// Virtual seconds the shard's whole run took.
    pub sim_seconds: f64,
    /// The shard's rendered span tree (global-sequence ordered).
    pub spans: String,
    /// The shard's metrics snapshot JSON.
    pub metrics: String,
}

/// The merged result of a parallel fleet run.
#[derive(Debug, Clone)]
pub struct FleetRunReport {
    /// Per-shard outcomes, in shard index order.
    pub shards: Vec<ShardOutcome>,
}

impl FleetRunReport {
    /// Total successfully provisioned nodes.
    pub fn ok(&self) -> usize {
        self.shards.iter().map(|s| s.ok).sum()
    }

    /// Total failed nodes.
    pub fn failed(&self) -> usize {
        self.shards.iter().map(|s| s.failed).sum()
    }

    /// Fingerprint of the *entire* run — every shard's span tree,
    /// metrics JSON and counts, concatenated in shard order and hashed.
    /// Two runs of the same spec must produce equal digests regardless
    /// of worker count; this is the byte-identity acceptance check.
    pub fn digest(&self) -> Digest {
        let mut buf = Vec::new();
        for s in &self.shards {
            buf.extend_from_slice(&(s.shard as u64).to_le_bytes());
            buf.extend_from_slice(&(s.ok as u64).to_le_bytes());
            buf.extend_from_slice(&(s.failed as u64).to_le_bytes());
            buf.extend_from_slice(&s.sim_seconds.to_le_bytes());
            buf.extend_from_slice(s.spans.as_bytes());
            buf.extend_from_slice(s.metrics.as_bytes());
        }
        sha256(&buf)
    }
}

/// Runs `job(shard)` for every shard index across `workers` OS threads
/// and returns the results in shard index order — the shard-per-job
/// determinism contract, factored out so every sharded driver (fleet
/// provisioning, the reconciler, future sweeps) shares one
/// implementation. The job runs entirely on its pool thread; nothing it
/// builds escapes its shard.
pub fn run_sharded<T, F>(shards: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let job = &job;
    let jobs: Vec<_> = (0..shards).map(|shard| move || job(shard)).collect();
    bolted_sim::run_jobs(workers, jobs)
}

/// Builds and provisions one shard, start to finish, on the calling
/// thread. The shard's [`Sim`] never escapes this function, so it has
/// exactly one driver for its whole life.
fn run_shard(spec: &FleetSpec, shard: usize) -> Result<ShardOutcome, ProvisionError> {
    run_shard_on(&Sim::new(), spec, shard)
}

/// [`run_shard`] on a fresh `sim` the caller keeps, to read its engine
/// counters afterwards.
fn run_shard_on(sim: &Sim, spec: &FleetSpec, shard: usize) -> Result<ShardOutcome, ProvisionError> {
    let idx = shard.to_string();
    let cloud = Cloud::build(
        sim,
        CloudConfig {
            nodes: spec.shard_nodes(shard),
            seed: mix_seed(spec.seed, &["fleet-shard", &idx]),
            ..CloudConfig::default()
        },
    );
    let kernel = KernelImage::from_bytes("fedora28-4.17.9", b"vmlinuz+initrd");
    let golden = cloud
        .bmi
        .create_golden("fedora28", 8 << 30, 7, &kernel, "")
        .map_err(ProvisionError::Bmi)?;
    let tenant = Tenant::new(&cloud, "charlie")?;
    let nodes = cloud.nodes();
    let profile = spec.profile.clone();
    let report = sim.block_on({
        let tenant = tenant.clone();
        async move {
            tenant
                .provision_fleet_report(&nodes, &profile, golden)
                .await
        }
    });
    Ok(ShardOutcome {
        shard,
        ok: report.succeeded.len(),
        failed: report.failed.len(),
        sim_seconds: sim.now().as_secs_f64(),
        spans: cloud.spans.render(),
        metrics: cloud.metrics.to_json(),
    })
}

/// Provisions the whole spec across `workers` OS threads and merges the
/// shard outcomes in shard index order. Errors from any shard surface as
/// the first failing shard's error (shards are independent, so one
/// shard's failure never corrupts another's outcome).
pub fn provision_fleet_parallel(
    spec: &FleetSpec,
    workers: usize,
) -> Result<FleetRunReport, ProvisionError> {
    let shards = run_sharded(spec.shards, workers, |shard| run_shard(spec, shard))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    Ok(FleetRunReport { shards })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_never_changes_the_run_digest() {
        let spec = FleetSpec::new(4, 2, 0xF1EE7);
        let one = provision_fleet_parallel(&spec, 1).expect("1-worker run");
        let four = provision_fleet_parallel(&spec, 4).expect("4-worker run");
        assert_eq!(one.ok(), spec.total_nodes());
        assert_eq!(one.failed(), 0);
        assert_eq!(one.ok(), four.ok());
        assert_eq!(
            one.digest(),
            four.digest(),
            "fleet run depends on worker count"
        );
    }

    #[test]
    fn split_total_never_drops_or_invents_nodes() {
        // Property sweep over the pure split: for every (total, shards)
        // the per-shard counts must sum back to the total, differ by at
        // most one node, and put the bigger shards first.
        for total in 0..=40 {
            for shards in 1..=9 {
                let spec = FleetSpec::split_total(total, shards, 1);
                let per: Vec<usize> = (0..spec.shards).map(|s| spec.shard_nodes(s)).collect();
                assert_eq!(
                    per.iter().sum::<usize>(),
                    total,
                    "{total}/{shards}: {per:?}"
                );
                assert_eq!(spec.total_nodes(), total);
                let (min, max) = (per.iter().min().unwrap(), per.iter().max().unwrap());
                assert!(max - min <= 1, "{total}/{shards}: uneven split {per:?}");
                assert!(per.windows(2).all(|w| w[0] >= w[1]), "{per:?}");
            }
        }
    }

    #[test]
    fn non_divisible_totals_provision_exactly_the_spec_at_every_worker_count() {
        // The property test behind the remainder fix: 10 nodes across 3
        // shards (4+3+3) and 2 across 3 (1+1+0 — one empty shard) must
        // provision exactly the spec total at worker counts 1, 2, 3 and
        // 7, with identical digests throughout.
        for &total in &[10usize, 2] {
            let spec = FleetSpec::split_total(total, 3, 0xD117);
            assert_eq!(spec.total_nodes(), total);
            let mut digest = None;
            for &workers in &[1usize, 2, 3, 7] {
                let run = provision_fleet_parallel(&spec, workers).expect("fleet run");
                assert_eq!(
                    run.ok(),
                    total,
                    "total={total} workers={workers}: provisioned {} of {total}",
                    run.ok()
                );
                assert_eq!(run.failed(), 0);
                let d = run.digest();
                match &digest {
                    None => digest = Some(d),
                    Some(first) => assert_eq!(*first, d, "workers={workers} digest diverged"),
                }
            }
        }
    }

    #[test]
    fn a_charlie_shard_polls_a_pinned_number_of_events() {
        // Shard 0 of perfbench's `provision` fleet at seed 1: sixteen
        // attested, encrypted nodes. The executor's poll count is the
        // deterministic witness that a change to it altered no poll.
        let sim = Sim::new();
        let out = run_shard_on(&sim, &FleetSpec::new(8, 16, 1), 0).expect("shard");
        assert_eq!((out.ok, out.failed), (16, 0));
        assert_eq!(sim.events_processed(), 7_616);
    }

    #[test]
    fn same_spec_runs_are_byte_identical() {
        let spec = FleetSpec::new(2, 1, 7);
        let a = provision_fleet_parallel(&spec, 2).expect("run a");
        let b = provision_fleet_parallel(&spec, 2).expect("run b");
        // Same spec, same bytes — spans, metrics and counts all hash in.
        assert_eq!(a.digest(), b.digest());
        assert!(!a.shards[0].spans.is_empty());
        assert!(a.shards[0].metrics.contains("provision_outcomes"));
    }
}
