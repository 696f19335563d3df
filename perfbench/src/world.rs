//! Building simulated worlds through the public API, traced or not.
//!
//! A traced world differs from an untraced one only in that its tenants'
//! services sit behind the timing proxies of [`crate::proxy`] and its
//! build steps run inside spans; the simulation itself is identical.

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bolted_core::{
    AttestationService, Cloud, KeylimeAttestation, ProvisionError, Services, Tenant, TenantEnv,
};
use bolted_crypto::sha256::Digest;
use bolted_firmware::KernelImage;
use bolted_keylime::VerifierConfig;
use bolted_sim::{lock, Sim};
use bolted_storage::ImageId;

use crate::proxy::traced_services;
use crate::trace::Recorder;

/// The tracing state of one world: its span recorder and the AIKs its
/// tenants registered.
#[derive(Clone)]
pub struct Tracing {
    /// Host-time spans of this world.
    pub rec: Arc<Recorder>,
    /// Fingerprints of every AIK seen at registration.
    pub aiks: Arc<Mutex<HashSet<Digest>>>,
}

impl Tracing {
    /// Fresh tracing state with times counted from `epoch`.
    pub fn new(epoch: Instant) -> Tracing {
        Tracing {
            rec: Recorder::new(epoch),
            aiks: Arc::new(Mutex::new(HashSet::new())),
        }
    }

    /// Distinct AIKs created (and registered) in this world.
    pub fn aik_count(&self) -> usize {
        lock(&self.aiks).len()
    }
}

/// Runs `f` inside a span when the world is traced.
pub fn scope<R>(tracing: Option<&Tracing>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracing {
        Some(t) => t.rec.scope(name, f),
        None => f(),
    }
}

/// Builds a cloud and its golden image exactly as
/// `provision_fleet_parallel` and `reconcile_fleet_parallel` do.
pub fn cloud_with_golden(
    sim: &Sim,
    config: bolted_core::CloudConfig,
    tracing: Option<&Tracing>,
) -> Result<(Cloud, ImageId), ProvisionError> {
    let cloud = scope(tracing, "core.cloud_build", || Cloud::build(sim, config));
    let kernel = KernelImage::from_bytes("fedora28-4.17.9", b"vmlinuz+initrd");
    let golden = scope(tracing, "bmi.create_golden", || {
        cloud.bmi.create_golden("fedora28", 8 << 30, 7, &kernel, "")
    })
    .map_err(ProvisionError::Bmi)?;
    Ok((cloud, golden))
}

/// A tenant wired as `Tenant::new` wires one (a Keylime registrar and
/// verifier of its own over the cloud's services), with the services
/// behind timing proxies when traced. Returns the tenant and its
/// attestation service.
pub fn tenant(
    cloud: &Cloud,
    project: &str,
    tracing: Option<&Tracing>,
) -> Result<(Tenant, Arc<dyn AttestationService>), ProvisionError> {
    scope(tracing, "core.tenant", || {
        let keylime = KeylimeAttestation::new(cloud, VerifierConfig::default());
        let verifier = keylime.verifier().clone();
        let mut services = Services::of_cloud(cloud, Arc::new(keylime));
        if let Some(t) = tracing {
            services = traced_services(services, &t.rec, &t.aiks);
        }
        let attestation = Arc::clone(&services.attestation);
        let tenant = Tenant::with_backend(project, TenantEnv::of_cloud(cloud), services, verifier)?;
        Ok((tenant, attestation))
    })
}

/// Deterministic simulated-side counters of one world, read from its
/// metrics registry and span tree.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// `retry_attempts` over every op.
    pub retry_attempts: u64,
    /// `retry_attempts` of HIL operations (`op=hil.*`).
    pub hil_retries: u64,
    /// `faults_injected` over every op.
    pub faults_injected: u64,
    /// `key_releases`: V shares the verifier released.
    pub key_releases: u64,
    /// Trusted quote verdicts.
    pub trusted_verdicts: u64,
    /// Virtual seconds of each closed span, per span name.
    pub phase_s: BTreeMap<&'static str, Vec<f64>>,
    /// Virtual seconds of every successful `tenant/provision` span.
    pub provision_ok_s: Vec<f64>,
}

/// The provisioning phases whose virtual durations the paper's Figure 4
/// stacks.
pub const PHASES: [&str; 6] = [
    "power-cycle",
    "firmware",
    "registrar",
    "quote-verify",
    "iscsi-attach",
    "luks-unlock",
];

impl SimStats {
    /// Reads the counters of `cloud`; span durations only when `spans`.
    pub fn of(cloud: &Cloud, spans: bool) -> SimStats {
        let snap = cloud.metrics.snapshot();
        let mut s = SimStats {
            key_releases: cloud.metrics.counter_total("key_releases"),
            faults_injected: cloud.metrics.counter_total("faults_injected"),
            ..SimStats::default()
        };
        for (key, &n) in &snap.counters {
            if key.starts_with("retry_attempts{") {
                s.retry_attempts += n;
                if key.contains("op=hil.") {
                    s.hil_retries += n;
                }
            }
            if key.starts_with("quote_verdicts{") && key.contains("outcome=trusted") {
                s.trusted_verdicts += n;
            }
        }
        if spans {
            for r in cloud.spans.records() {
                let Some(d) = r.duration() else { continue };
                if PHASES.contains(&r.name) {
                    s.phase_s.entry(r.name).or_default().push(d.as_secs_f64());
                }
                if r.category == "tenant"
                    && r.name == "provision"
                    && r.attr("outcome") == Some("ok")
                {
                    s.provision_ok_s.push(d.as_secs_f64());
                }
            }
        }
        s
    }

    /// Adds another world's counters to this one.
    pub fn merge(&mut self, other: SimStats) {
        self.retry_attempts += other.retry_attempts;
        self.hil_retries += other.hil_retries;
        self.faults_injected += other.faults_injected;
        self.key_releases += other.key_releases;
        self.trusted_verdicts += other.trusted_verdicts;
        for (k, v) in other.phase_s {
            self.phase_s.entry(k).or_default().extend(v);
        }
        self.provision_ok_s.extend(other.provision_ok_s);
    }
}
