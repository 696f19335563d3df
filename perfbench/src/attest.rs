//! `attest`: continuous attestation of one provisioned Charlie enclave.
//!
//! Set-up builds a 16-node cloud and provisions every node into the
//! enclave (`setup_s`). The measured work is the benchmark's own sim
//! tasks, one per node, each calling `attest_once(node, continuous)`
//! every verifier poll interval over a fixed virtual horizon, on one
//! thread (`ops_per_s` counts trusted rounds per host second).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use bolted_core::{AttestationService, Cloud, CloudConfig, ProvisionedNode, SecurityProfile};
use bolted_crypto::sha256::sha256;
use bolted_keylime::{AttestOutcome, VerifierConfig};
use bolted_sim::{join_all, Sim};

use crate::host::PeakWindow;
use crate::layers::TracedRep;
use crate::stats::{median, tail};
use crate::world::{cloud_with_golden, scope, tenant, SimStats, Tracing};
use crate::{Checks, Plain, Size, Traced, Workload};

/// The workload at one seed and size.
pub struct Attest {
    nodes: usize,
    horizon_s: u64,
}

impl Attest {
    /// 16 nodes over a 1000 s virtual horizon (4 nodes over 20 s at
    /// smoke size).
    pub fn new(size: Size) -> Attest {
        let (nodes, horizon_s) = match size {
            Size::Full => (16, 1000),
            Size::Smoke => (4, 20),
        };
        Attest { nodes, horizon_s }
    }

    /// Rounds each node must complete: the horizon over the poll
    /// interval.
    pub fn rounds_per_node(&self) -> u64 {
        self.horizon_s / VerifierConfig::default().poll_interval.as_secs_f64() as u64
    }

    /// One repetition: set up the enclave, then run the rounds.
    pub fn rep(&self, seed: u64, tracing: Option<Tracing>) -> Result<Rep, String> {
        let t0 = Instant::now();
        let sim = Sim::new();
        let config = CloudConfig {
            nodes: self.nodes,
            seed,
            ..CloudConfig::default()
        };
        let (cloud, golden) =
            cloud_with_golden(&sim, config, tracing.as_ref()).map_err(|e| e.to_string())?;
        let (tenant, attestation) =
            tenant(&cloud, "charlie", tracing.as_ref()).map_err(|e| e.to_string())?;
        let nodes = cloud.nodes();
        let root = tracing.as_ref().map(|t| t.rec.begin("run.provision", None));
        let fleet = sim.block_on(async move {
            tenant
                .provision_fleet_report(&nodes, &SecurityProfile::charlie(), golden)
                .await
        });
        if let (Some(t), Some(id)) = (&tracing, root) {
            t.rec.end(id);
        }
        let setup_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let root = tracing.as_ref().map(|t| t.rec.begin("run.rounds", None));
        let outcomes = rounds(&sim, &attestation, &fleet.succeeded, self.rounds_per_node());
        if let (Some(t), Some(id)) = (&tracing, root) {
            t.rec.end(id);
        }
        let work_s = t1.elapsed().as_secs_f64();

        let digest = scope(tracing.as_ref(), "obs.digest", || {
            let mut buf = Vec::new();
            buf.extend_from_slice(&(fleet.succeeded.len() as u64).to_le_bytes());
            buf.extend_from_slice(&(outcomes.trusted).to_le_bytes());
            buf.extend_from_slice(&(outcomes.other).to_le_bytes());
            buf.extend_from_slice(&sim.now().as_nanos().to_le_bytes());
            buf.extend_from_slice(cloud.spans.render().as_bytes());
            buf.extend_from_slice(cloud.metrics.to_json().as_bytes());
            sha256(&buf).to_hex()
        });
        Ok(Rep {
            setup_s,
            work_s,
            provisioned: fleet.succeeded.len(),
            provision_failed: fleet.failed.len(),
            totals_sim_s: fleet
                .succeeded
                .iter()
                .map(|p| p.report.total().as_secs_f64())
                .collect(),
            trusted: outcomes.trusted,
            other: outcomes.other,
            cloud,
            tracing,
            digest,
        })
    }

    fn check(&self, rep: &Rep, checks: &mut Checks) {
        checks.check(
            rep.provisioned == self.nodes && rep.provision_failed == 0,
            || {
                format!(
                    "attest: set-up provisioned {} of {} nodes",
                    rep.provisioned, self.nodes
                )
            },
        );
        let want = self.nodes as u64 * self.rounds_per_node();
        checks.check(rep.trusted == want && rep.other == 0, || {
            format!(
                "attest: {} trusted and {} other rounds, expected {want} trusted",
                rep.trusted, rep.other
            )
        });
        let releases = SimStats::of(&rep.cloud, false).key_releases;
        checks.check(releases == self.nodes as u64, || {
            format!(
                "attest: {releases} V-share releases for {} nodes; continuous rounds must not re-release",
                self.nodes
            )
        });
    }
}

struct RoundCounts {
    trusted: u64,
    other: u64,
}

/// One sim task per node, each attesting its node every poll interval,
/// all driven to completion on the calling thread.
fn rounds(
    sim: &Sim,
    attestation: &Arc<dyn AttestationService>,
    held: &[ProvisionedNode],
    per_node: u64,
) -> RoundCounts {
    let poll = VerifierConfig::default().poll_interval;
    let handles: Vec<_> = held
        .iter()
        .map(|p| {
            let sim2 = sim.clone();
            let attestation = Arc::clone(attestation);
            let node = p.report.node.clone();
            sim.spawn(async move {
                let mut trusted = 0u64;
                for _ in 0..per_node {
                    sim2.sleep(poll).await;
                    if attestation.attest_once(&node, true).await == AttestOutcome::Trusted {
                        trusted += 1;
                    }
                }
                trusted
            })
        })
        .collect();
    let trusted: Vec<u64> = sim.block_on(async move { join_all(handles).await });
    let trusted_sum: u64 = trusted.iter().sum();
    RoundCounts {
        trusted: trusted_sum,
        other: per_node * held.len() as u64 - trusted_sum,
    }
}

/// One repetition of the workload.
pub struct Rep {
    /// Host seconds of the enclave set-up.
    pub setup_s: f64,
    /// Host seconds of the attestation rounds.
    pub work_s: f64,
    /// Nodes provisioned during set-up.
    pub provisioned: usize,
    /// Nodes that failed to provision during set-up.
    pub provision_failed: usize,
    /// `ProvisionReport::total` of every provisioned node, virtual s.
    pub totals_sim_s: Vec<f64>,
    /// Rounds that returned `Trusted`.
    pub trusted: u64,
    /// Rounds that returned anything else.
    pub other: u64,
    /// The enclave's cloud.
    pub cloud: Cloud,
    /// The spans, when traced.
    pub tracing: Option<Tracing>,
    /// Fingerprint of counts, span tree and metrics.
    pub digest: String,
}

impl Workload for Attest {
    fn name(&self) -> &'static str {
        "attest"
    }

    fn workers(&self) -> usize {
        1
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
            ops: rep.trusted as f64,
            attempted: rep.trusted + rep.other,
            failed: rep.other,
            peak_mib,
            digest: rep.digest,
        })
    }

    fn traced(&self, seed: u64, epoch: Instant, checks: &mut Checks) -> Result<Traced, String> {
        let rep = self.rep(seed, Some(Tracing::new(epoch)))?;
        let wall_s = epoch.elapsed().as_secs_f64();
        self.check(&rep, checks);
        let (worlds, aiks) = match &rep.tracing {
            Some(t) => (vec![t.rec.spans()], t.aik_count()),
            None => (Vec::new(), 0),
        };
        let provision_ns: u64 = worlds
            .iter()
            .flatten()
            .filter(|s| s.name == "run.provision")
            .map(|s| s.duration_ns())
            .sum();
        let provision_tail = tail(&rep.totals_sim_s);
        let mut extra = BTreeMap::new();
        extra.insert(
            "core.provision_ms_per_node",
            provision_ns as f64 / 1e6 / self.nodes as f64,
        );
        extra.insert("sim.provision_p50_s", median(&rep.totals_sim_s));
        extra.insert("sim.provision_tail_s", provision_tail.value);
        extra.insert(
            "fail_ratio",
            rep.other as f64 / (rep.trusted + rep.other).max(1) as f64,
        );
        extra.insert(
            "obs.span_bytes_per_node",
            rep.cloud.spans.render().len() as f64 / self.nodes as f64,
        );
        Ok(Traced {
            rep: TracedRep {
                worlds,
                outside_ns: 0,
                measured: "run.rounds",
                nodes: self.nodes,
                shards: 1,
                aiks,
                sim: SimStats::of(&rep.cloud, true),
                extra,
                tails: vec![("sim.provision_tail_s", provision_tail)],
            },
            wall_s,
            attempted: rep.trusted + rep.other,
            failed: rep.other,
            digest: rep.digest,
        })
    }
}
