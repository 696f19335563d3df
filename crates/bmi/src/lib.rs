//! `bolted-bmi` — Bare Metal Imaging, the diskless provisioning service.
//!
//! BMI's fundamental operations (§5): image creation, clone and
//! snapshot, image deletion, and booting a server from a specified image
//! over iSCSI with Ceph as the backing store. Because servers
//! network-boot and fetch on demand, "less than 1% of the image is
//! typically used", which is what makes Bolted's elasticity possible —
//! and because no state lands on local disks, nothing needs scrubbing
//! when a server is released.
//!
//! BMI can be deployed by the provider *or by a tenant* (the Charlie use
//! case); nothing in here requires provider privilege beyond network
//! reachability of the storage cluster.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bolted_crypto::sha256::Digest;
use bolted_firmware::KernelImage;
use bolted_sim::fault::ops;
use bolted_sim::{FaultInjected, OpGate, Sim};
use bolted_storage::{Backing, Gateway, ImageError, ImageId, ImageStore, IscsiTarget, Transport};

/// Manifest keys BMI uses to stash extracted boot info.
mod manifest_keys {
    pub const KERNEL_NAME: &str = "boot.kernel.name";
    pub const KERNEL_DIGEST: &str = "boot.kernel.digest";
    pub const KERNEL_SIZE: &str = "boot.kernel.size";
    pub const CMDLINE: &str = "boot.cmdline";
}

/// Errors from BMI operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BmiError {
    /// Underlying image-store failure.
    Image(ImageError),
    /// The image has no extractable boot information.
    NoBootInfo,
    /// The BMI endpoint was unreachable (injected infrastructure fault).
    Unavailable {
        /// The gated operation that failed.
        op: String,
        /// The server or image it was addressed to.
        target: String,
    },
}

impl std::fmt::Display for BmiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BmiError::Image(e) => write!(f, "image error: {e}"),
            BmiError::NoBootInfo => write!(f, "image has no boot manifest"),
            BmiError::Unavailable { op, target } => {
                write!(f, "bmi unavailable: {op} on {target}")
            }
        }
    }
}

impl std::error::Error for BmiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BmiError::Image(e) => Some(e),
            BmiError::NoBootInfo | BmiError::Unavailable { .. } => None,
        }
    }
}

impl From<ImageError> for BmiError {
    fn from(e: ImageError) -> Self {
        BmiError::Image(e)
    }
}

impl From<FaultInjected> for BmiError {
    fn from(e: FaultInjected) -> Self {
        BmiError::Unavailable {
            op: e.op,
            target: e.target,
        }
    }
}

/// The BMI service.
#[derive(Clone)]
pub struct Bmi {
    sim: Sim,
    store: ImageStore,
    gateway: Gateway,
    /// Counts every operation as `bmi_ops{op=..}` and lets chaos plans
    /// target the `bmi.*` ops.
    gate: OpGate,
}

impl Bmi {
    /// Creates a BMI instance over an image store and iSCSI gateway,
    /// instrumented by `gate`.
    pub fn new(sim: &Sim, store: &ImageStore, gateway: &Gateway, gate: &OpGate) -> Self {
        Bmi {
            sim: sim.clone(),
            store: store.clone(),
            gateway: gateway.clone(),
            gate: gate.clone(),
        }
    }

    /// The underlying image store.
    pub fn store(&self) -> &ImageStore {
        &self.store
    }

    /// Registers a golden OS image (e.g. "fedora28") with its extracted
    /// boot information, and freezes it for cloning.
    pub fn create_golden(
        &self,
        name: &str,
        size: u64,
        content_seed: u64,
        kernel: &KernelImage,
        cmdline: &str,
    ) -> Result<ImageId, BmiError> {
        let id = self
            .store
            .create(name, size, Backing::Pattern(content_seed))?;
        self.store
            .set_manifest(id, manifest_keys::KERNEL_NAME, &kernel.name)?;
        self.store
            .set_manifest(id, manifest_keys::KERNEL_DIGEST, &kernel.digest.to_hex())?;
        self.store.set_manifest(
            id,
            manifest_keys::KERNEL_SIZE,
            &kernel.size_bytes.to_string(),
        )?;
        self.store
            .set_manifest(id, manifest_keys::CMDLINE, cmdline)?;
        self.store.snapshot(id)?;
        Ok(id)
    }

    /// Clones a golden image for one server ("image clone and snapshot").
    pub fn clone_for_server(
        &self,
        golden: ImageId,
        server_name: &str,
    ) -> Result<ImageId, BmiError> {
        self.gate
            .tap("bmi_ops", &[("op", "clone")], ops::BMI_CLONE, server_name)?;
        Ok(self
            .store
            .clone_image(golden, format!("{server_name}-root"))?)
    }

    /// Extracts boot information from an image — the paper runs scripts
    /// against the BMI-managed filesystem to pull the kernel, initramfs
    /// and command line "so that they could be passed to a booting server
    /// in a secure way via Keylime".
    pub fn extract_boot_info(&self, image: ImageId) -> Result<(KernelImage, String), BmiError> {
        let target = format!("img-{}", image.0);
        self.gate.tap(
            "bmi_ops",
            &[("op", "boot_info")],
            ops::BMI_BOOT_INFO,
            &target,
        )?;
        let name = self
            .store
            .manifest(image, manifest_keys::KERNEL_NAME)
            .ok_or(BmiError::NoBootInfo)?;
        let digest_hex = self
            .store
            .manifest(image, manifest_keys::KERNEL_DIGEST)
            .ok_or(BmiError::NoBootInfo)?;
        let digest = Digest::from_hex(&digest_hex).ok_or(BmiError::NoBootInfo)?;
        let size = self
            .store
            .manifest(image, manifest_keys::KERNEL_SIZE)
            .and_then(|s| s.parse().ok())
            .ok_or(BmiError::NoBootInfo)?;
        let cmdline = self
            .store
            .manifest(image, manifest_keys::CMDLINE)
            .unwrap_or_default();
        Ok((KernelImage::from_digest(&name, digest, size), cmdline))
    }

    /// Exposes an image as an iSCSI boot target ("server boot from a
    /// specified image").
    pub fn boot_target(
        &self,
        image: ImageId,
        transport: Transport,
        read_ahead: u64,
    ) -> IscsiTarget {
        self.gate.metrics().inc("bmi_ops", &[("op", "boot_target")]);
        IscsiTarget::new(
            &self.sim,
            &self.store,
            image,
            &self.gateway,
            transport,
            read_ahead,
        )
    }

    /// Releases a server's root volume: deletes it, or keeps it for a
    /// later restart on any compatible node ("saving and/or deleting the
    /// servers' persistent state when a server is released").
    pub fn release(&self, image: ImageId, keep: bool) -> Result<(), BmiError> {
        let target = format!("img-{}", image.0);
        self.gate
            .tap("bmi_ops", &[("op", "release")], ops::BMI_RELEASE, &target)?;
        if keep {
            Ok(())
        } else {
            Ok(self.store.delete(image)?)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolted_storage::{Cluster, TGT_VM_BANDWIDTH_BPS, TUNED_READ_AHEAD};

    fn setup() -> (Sim, Bmi) {
        setup_gated(&OpGate::disabled())
    }

    fn setup_gated(gate: &OpGate) -> (Sim, Bmi) {
        let sim = Sim::new();
        let cluster = Cluster::paper_default(&sim);
        let store = ImageStore::new(&cluster);
        let gateway = Gateway::new(&sim, TGT_VM_BANDWIDTH_BPS, &OpGate::disabled());
        let bmi = Bmi::new(&sim, &store, &gateway, gate);
        (sim, bmi)
    }

    fn kernel() -> KernelImage {
        KernelImage::from_bytes("fedora28-4.17.9", b"vmlinuz and initramfs bytes")
    }

    #[test]
    fn golden_image_with_boot_info() {
        let (_sim, bmi) = setup();
        let golden = bmi
            .create_golden("fedora28", 8 << 30, 7, &kernel(), "root=/dev/sda ima=on")
            .expect("creates");
        let (k, cmdline) = bmi.extract_boot_info(golden).expect("extracts");
        assert_eq!(k, kernel());
        assert_eq!(cmdline, "root=/dev/sda ima=on");
    }

    #[test]
    fn clone_per_server_inherits_boot_info() {
        let (_sim, bmi) = setup();
        let golden = bmi
            .create_golden("fedora28", 8 << 30, 7, &kernel(), "quiet")
            .expect("creates");
        let c1 = bmi.clone_for_server(golden, "node-1").expect("clones");
        let c2 = bmi.clone_for_server(golden, "node-2").expect("clones");
        assert_ne!(c1, c2);
        let (k, _) = bmi.extract_boot_info(c1).expect("extracts");
        assert_eq!(k.digest, kernel().digest);
    }

    #[test]
    fn boot_target_reads_fraction_of_image() {
        let (sim, bmi) = setup();
        let golden = bmi
            .create_golden("fedora28", 1 << 30, 7, &kernel(), "")
            .expect("creates");
        let clone = bmi.clone_for_server(golden, "node-1").expect("clones");
        let target = bmi.boot_target(clone, Transport::plain_10g(), TUNED_READ_AHEAD);
        sim.block_on(async move {
            // A boot touches ~200 MiB of a 1 GiB image.
            let mut off = 0u64;
            while off < 200 << 20 {
                target.read_timed(off, 2 << 20).await.expect("reads");
                off += 2 << 20;
            }
            let (fetched, served) = target.stats();
            assert!(served >= 200 << 20);
            assert!(fetched < (1u64 << 30) / 2, "fetch-on-demand, not full copy");
        });
    }

    #[test]
    fn release_delete_and_keep() {
        let (_sim, bmi) = setup();
        let golden = bmi
            .create_golden("fedora28", 8 << 30, 7, &kernel(), "")
            .expect("creates");
        let c1 = bmi.clone_for_server(golden, "node-1").expect("clones");
        let c2 = bmi.clone_for_server(golden, "node-2").expect("clones");
        bmi.release(c1, false).expect("deletes");
        assert!(bmi.store().lookup("node-1-root").is_none());
        bmi.release(c2, true).expect("keeps");
        assert!(bmi.store().lookup("node-2-root").is_some());
    }

    #[test]
    fn gate_injects_faults_and_counts_ops() {
        use bolted_sim::{FaultPlan, FaultSpec, Faults, Metrics};
        // Clones are permanently unavailable; every op is counted.
        let metrics = Metrics::new();
        let faults = Faults::new(
            FaultPlan::seeded(7).with(ops::BMI_CLONE, FaultSpec::permanent()),
            &metrics,
        );
        let (_sim, bmi) = setup_gated(&OpGate::new(&faults, &metrics));
        let golden = bmi
            .create_golden("fedora28", 8 << 30, 7, &kernel(), "")
            .expect("creates");

        let err = bmi.clone_for_server(golden, "node-1").unwrap_err();
        match err {
            BmiError::Unavailable { ref op, ref target } => {
                assert_eq!(op, ops::BMI_CLONE);
                assert_eq!(target, "node-1");
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
        assert!(!err.to_string().is_empty());

        // Untargeted ops still succeed and land in the registry.
        let (k, _) = bmi.extract_boot_info(golden).expect("extracts");
        assert_eq!(k.digest, kernel().digest);
        bmi.boot_target(golden, Transport::plain_10g(), TUNED_READ_AHEAD);
        bmi.release(golden, true).expect("keeps");
        // Every row names its op. `tap` counts attempts, so the injected
        // clone is counted too.
        for op in ["clone", "boot_info", "boot_target", "release"] {
            assert_eq!(metrics.counter("bmi_ops", &[("op", op)]), 1, "{op}");
        }
        assert_eq!(metrics.counter_total("bmi_ops"), 4);
    }

    #[test]
    fn missing_boot_info_detected() {
        let (_sim, bmi) = setup();
        let raw = bmi
            .store()
            .create("raw-data", 1 << 20, Backing::Zero)
            .expect("creates");
        assert_eq!(bmi.extract_boot_info(raw), Err(BmiError::NoBootInfo));
    }
}
