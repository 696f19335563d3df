//! Phase breakdown of one provisioning run, reconstructed from the
//! span tree alone (no `ProvisionReport` involved): the observability
//! layer must be able to reproduce Figure 4's boot-time decomposition
//! by itself, or it is not measuring what the paper measures.

use bolted_core::{Cloud, CloudConfig, SecurityProfile, Tenant};
use bolted_firmware::{FirmwareKind, KernelImage};
use bolted_sim::{Sim, Spans};

use crate::{banner_text, f, table};

/// Where the `phases` binary writes [`PhaseBreakdown::to_json`],
/// relative to the workspace root.
pub const JSON_PATH: &str = "results/metrics_phases.json";

/// The six instrumented phases of an attested provision, in pipeline
/// order. `quote-verify` is recorded by the verifier, everything else
/// by the tenant orchestration — the span tree stitches them together.
pub const PHASES: [&str; 6] = [
    "power-cycle",
    "firmware",
    "registrar",
    "quote-verify",
    "iscsi-attach",
    "luks-unlock",
];

/// One run's phase decomposition, extracted from spans.
pub struct PhaseBreakdown {
    /// Node that was provisioned.
    pub node: String,
    /// Profile used.
    pub profile: String,
    /// Total wall-clock of the root `tenant/provision` span, seconds.
    pub total_seconds: f64,
    /// `(phase, seconds)` for each of [`PHASES`], in that order.
    pub phases: Vec<(String, f64)>,
    /// Full metrics-registry JSON for the same run.
    pub metrics_json: String,
}

/// Pulls the named phase durations for `node` out of a span recorder.
/// Panics if a phase is missing or still open — for an attested run
/// with disk encryption all six must have closed.
pub fn extract_phases(spans: &Spans, node: &str) -> Vec<(String, f64)> {
    PHASES
        .iter()
        .map(|phase| {
            let rec = spans
                .find(phase, node)
                .unwrap_or_else(|| panic!("span {phase} missing for {node}"));
            let d = rec
                .duration()
                .unwrap_or_else(|| panic!("span {phase} still open for {node}"));
            (phase.to_string(), d.as_secs_f64())
        })
        .collect()
}

/// Provisions one Charlie node (full attestation + LUKS + IPsec) on a
/// fresh cloud and decomposes it from the spans. Deterministic: same
/// output every run.
pub fn charlie_phase_breakdown() -> PhaseBreakdown {
    let sim = Sim::new();
    let cloud = Cloud::build(
        &sim,
        CloudConfig {
            nodes: 1,
            firmware: FirmwareKind::LinuxBoot,
            ..CloudConfig::default()
        },
    );
    let kernel = KernelImage::from_bytes("fedora28-4.17.9", b"vmlinuz+initrd");
    let golden = cloud
        .bmi
        .create_golden("fedora28", 8 << 30, 7, &kernel, "")
        .expect("golden");
    let tenant = Tenant::new(&cloud, "charlie").expect("tenant");
    let node = cloud.nodes()[0];
    let profile = SecurityProfile::charlie();
    sim.block_on({
        let (tenant, profile) = (tenant.clone(), profile.clone());
        async move { tenant.provision(node, &profile, golden).await }
    })
    .expect("provisions");

    let name = cloud.hil.node_name(node).expect("name");
    let root = cloud
        .spans
        .find("provision", &name)
        .expect("root provision span");
    assert_eq!(root.attr("outcome"), Some("ok"));
    PhaseBreakdown {
        node: name.clone(),
        profile: profile.name.clone(),
        total_seconds: root.duration().expect("root closed").as_secs_f64(),
        phases: extract_phases(&cloud.spans, &name),
        metrics_json: cloud.metrics.to_json(),
    }
}

impl PhaseBreakdown {
    /// Renders the phase table the `phases` binary prints once it has
    /// written the JSON report to [`JSON_PATH`] (snapshot:
    /// `results/phases.txt`).
    pub fn to_text(&self) -> String {
        let mut out = banner_text(
            "Provisioning phase breakdown from spans",
            "Figure 4's decomposition, measured by the observability layer",
        );
        out.push_str(&format!("node {} [{}]\n\n", self.node, self.profile));
        let rows: Vec<Vec<String>> = self
            .phases
            .iter()
            .map(|(phase, secs)| {
                vec![
                    phase.clone(),
                    f(*secs, 2),
                    f(secs / self.total_seconds * 100.0, 1),
                ]
            })
            .collect();
        out.push_str(&table(&["phase", "seconds", "% of total"], &rows));
        let accounted: f64 = self.phases.iter().map(|(_, s)| s).sum();
        out.push_str(&format!(
            "total {:.2}s ({:.1}% accounted by the six phases;\n",
            self.total_seconds,
            accounted / self.total_seconds * 100.0
        ));
        out.push_str("the rest is downloads, airlock dwell and kernel-boot CPU)\n");
        out.push_str(&format!("\nwrote {JSON_PATH}\n"));
        out
    }

    /// Renders the breakdown (plus metrics) as the JSON the phase
    /// report writes to `results/metrics_phases.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"node\": \"{}\",\n", self.node));
        out.push_str(&format!("  \"profile\": \"{}\",\n", self.profile));
        out.push_str(&format!("  \"total_seconds\": {:?},\n", self.total_seconds));
        out.push_str("  \"phases\": {\n");
        for (i, (phase, secs)) in self.phases.iter().enumerate() {
            let comma = if i + 1 < self.phases.len() { "," } else { "" };
            out.push_str(&format!("    \"{phase}\": {secs:?}{comma}\n"));
        }
        out.push_str("  },\n");
        out.push_str("  \"metrics\": ");
        out.push_str(&self.metrics_json);
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_has_all_six_phases_and_is_deterministic() {
        let a = charlie_phase_breakdown();
        assert_eq!(a.phases.len(), PHASES.len());
        for ((name, secs), expected) in a.phases.iter().zip(PHASES) {
            assert_eq!(name, expected);
            assert!(*secs >= 0.0);
        }
        // Phases are a decomposition: they cannot exceed the total.
        let sum: f64 = a.phases.iter().map(|(_, s)| s).sum();
        assert!(sum <= a.total_seconds, "{sum} > {}", a.total_seconds);
        // The expensive phases actually cost something.
        for probe in ["firmware", "quote-verify", "iscsi-attach"] {
            let (_, secs) = a.phases.iter().find(|(n, _)| n == probe).expect("phase");
            assert!(*secs > 0.0, "{probe} should take time");
        }
        // Same seed, fresh cloud: byte-identical report.
        let b = charlie_phase_breakdown();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn json_structure_pins_phase_keys() {
        let bd = charlie_phase_breakdown();
        let json = bd.to_json();
        for phase in PHASES {
            assert!(json.contains(&format!("\"{phase}\":")), "missing {phase}");
        }
        assert!(json.contains("\"metrics\": {"));
        assert!(json.contains("provision_outcomes{profile=charlie-full,outcome=ok}"));
    }
}
