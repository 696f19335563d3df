//! Shared world-building boilerplate for the integration test tree.
//!
//! Every integration test stands up the same skeleton — a fresh [`Sim`],
//! a [`Cloud`] over it, and a golden image in the BMI — before it gets
//! to the behaviour it actually tests. [`world()`] builds that skeleton
//! from a tiny builder, so a test states only what it varies (node
//! count, fault plan, firmware) and inherits everything else.

// Each test binary compiles its own copy of this module and uses a
// subset of it.
#![allow(dead_code)]

use bolted::core::{Cloud, CloudConfig, FleetReport, SecurityProfile, Tenant};
use bolted::firmware::{FirmwareKind, KernelImage};
use bolted::sim::fault::FaultPlan;
use bolted::sim::Sim;
use bolted::storage::ImageId;

/// The canonical kernel every integration world boots.
pub fn paper_kernel() -> KernelImage {
    KernelImage::from_bytes("fedora28-4.17.9", b"vmlinuz+initrd")
}

/// Accumulates the knobs a test world can vary; finish with
/// [`WorldBuilder::build`].
pub struct WorldBuilder {
    nodes: usize,
    faults: FaultPlan,
    firmware: Option<FirmwareKind>,
}

/// Starts a world builder: one node, no faults, default firmware.
pub fn world() -> WorldBuilder {
    WorldBuilder {
        nodes: 1,
        faults: FaultPlan::none(),
        firmware: None,
    }
}

impl WorldBuilder {
    /// Number of nodes in the free pool.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Installs a fault plan for the whole world.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Boots every node with this firmware instead of the default.
    pub fn firmware(mut self, firmware: FirmwareKind) -> Self {
        self.firmware = Some(firmware);
        self
    }

    /// Builds the executor, the cloud, and the golden image.
    pub fn build(self) -> (Sim, Cloud, ImageId) {
        let sim = Sim::new();
        let mut config = CloudConfig {
            nodes: self.nodes,
            faults: self.faults,
            ..CloudConfig::default()
        };
        if let Some(firmware) = self.firmware {
            config.firmware = firmware;
        }
        let cloud = Cloud::build(&sim, config);
        let golden = cloud
            .bmi
            .create_golden("fedora28", 8 << 30, 7, &paper_kernel(), "")
            .expect("golden");
        (sim, cloud, golden)
    }
}

/// Provisions the first `n` nodes as one `charlie` fleet call under the
/// full attested profile and returns the per-node report.
pub fn charlie_fleet(sim: &Sim, cloud: &Cloud, golden: ImageId, n: usize) -> FleetReport {
    let tenant = Tenant::new(cloud, "charlie").expect("tenant");
    let nodes: Vec<_> = cloud.nodes().into_iter().take(n).collect();
    sim.block_on({
        let tenant = tenant.clone();
        async move {
            tenant
                .provision_fleet_report(&nodes, &SecurityProfile::charlie(), golden)
                .await
        }
    })
}
