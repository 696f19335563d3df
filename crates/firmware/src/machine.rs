//! The physical machine model: power, SPI flash, RAM residue, TPM, and
//! the measured boot sequence.
//!
//! The security-critical behaviours modelled here, all load-bearing for
//! the paper's threat analysis (§6):
//!
//! * PCRs reset **only** on power cycle; firmware is measured into PCR 0
//!   before anything else runs, so whatever is in flash leaves its
//!   fingerprint.
//! * RAM contents survive power cycles (until scrubbed) — a tenant's
//!   secrets are visible to the next occupant *unless* the attested
//!   firmware scrubs, which LinuxBoot does and UEFI does not.
//! * kexec measures the target kernel before jumping into it, keeping
//!   the chain of trust unbroken (SRTM).

use bolted_crypto::sha256::Digest;
use bolted_sim::lock;
use bolted_sim::{Sim, SimDuration};
use bolted_tpm::{index, Tpm};
use std::sync::{Arc, Mutex};

use crate::image::{FirmwareImage, FirmwareKind, KernelImage};

/// TPM RSA key size of every machine: 512 keeps simulations fast; the
/// protocol is identical at 2048.
const TPM_KEY_BITS: usize = 512;

/// Server RAM in GiB (M620s: 64 GiB); drives scrub timing.
const RAM_GIB: u64 = 64;

/// Machine power state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerState {
    /// Powered off.
    Off,
    /// Powered on.
    On,
}

/// Errors from machine operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// Operation requires power in the other state.
    WrongPowerState,
    /// No firmware has run since power-on (boot sequencing bug).
    FirmwareNotRun,
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::WrongPowerState => write!(f, "machine in wrong power state"),
            MachineError::FirmwareNotRun => write!(f, "firmware has not run"),
        }
    }
}

impl std::error::Error for MachineError {}

/// Residual data left in RAM by an occupant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RamResidue {
    /// Which tenant's data it is.
    pub tenant: String,
    /// A sample of the secret material.
    pub secret: Vec<u8>,
}

struct MachineInner {
    name: String,
    power: PowerState,
    flash: FirmwareImage,
    tpm: Tpm,
    /// RAM residue from the current/previous occupant; `None` = scrubbed.
    ram_residue: Option<RamResidue>,
    /// True once firmware has run since the last power-on.
    firmware_ran: bool,
    booted_kernel: Option<KernelImage>,
}

/// A simulated physical server. Clonable handle with shared state, so it
/// can be held simultaneously by HIL (as a BMC), the provisioning flow,
/// and the Keylime agent — just like a real machine.
#[derive(Clone)]
pub struct Machine {
    inner: Arc<Mutex<MachineInner>>,
}

impl Machine {
    /// Builds a machine with the given flash contents and a TPM seeded
    /// deterministically from `tpm_seed`.
    pub fn new(name: impl Into<String>, flash: FirmwareImage, tpm_seed: u64) -> Self {
        Machine {
            inner: Arc::new(Mutex::new(MachineInner {
                name: name.into(),
                power: PowerState::Off,
                flash,
                tpm: Tpm::new(tpm_seed, TPM_KEY_BITS),
                ram_residue: None,
                firmware_ran: false,
                booted_kernel: None,
            })),
        }
    }

    /// Machine name.
    pub fn name(&self) -> String {
        lock(&self.inner).name.clone()
    }

    /// Current power state.
    pub fn power(&self) -> PowerState {
        lock(&self.inner).power
    }

    /// Access the TPM with a closure (shared-handle-safe).
    pub fn with_tpm<R>(&self, f: impl FnOnce(&mut Tpm) -> R) -> R {
        f(&mut lock(&self.inner).tpm)
    }

    // -- power ------------------------------------------------------------

    /// Powers on (does not run firmware; call [`Machine::run_firmware`]).
    pub fn power_on(&self) {
        let mut inner = lock(&self.inner);
        if inner.power == PowerState::Off {
            inner.power = PowerState::On;
            inner.firmware_ran = false;
            inner.booted_kernel = None;
            // A power cycle resets the TPM's platform state.
            inner.tpm.platform_reset();
        }
    }

    /// Hard power-off. RAM residue is preserved: DRAM retains data long
    /// enough for cold-boot attacks, and the threat model charges the
    /// *firmware*, not the power supply, with scrubbing.
    pub fn power_off(&self) {
        let mut inner = lock(&self.inner);
        inner.power = PowerState::Off;
        inner.booted_kernel = None;
    }

    /// Power cycle (off + on).
    pub fn power_cycle(&self) {
        self.power_off();
        self.power_on();
    }

    // -- flash ------------------------------------------------------------

    /// The image currently in SPI flash.
    pub fn flash(&self) -> FirmwareImage {
        lock(&self.inner).flash.clone()
    }

    /// Reflashes the firmware (provider maintenance — or an attack if the
    /// image is tampered; either way the next boot's measurement changes).
    pub fn reflash(&self, image: FirmwareImage) {
        lock(&self.inner).flash = image;
    }

    // -- the measured boot sequence ----------------------------------------

    /// Runs POST + firmware: charges POST time, measures the flash image
    /// into PCR 0, and (LinuxBoot only) scrubs RAM.
    ///
    /// Returns the firmware kind that ran.
    pub async fn run_firmware(&self, sim: &Sim) -> Result<FirmwareKind, MachineError> {
        let (post_time, kind, build_id, scrub_time) = {
            let inner = lock(&self.inner);
            if inner.power != PowerState::On {
                return Err(MachineError::WrongPowerState);
            }
            let scrub = if inner.flash.kind.scrubs_memory() {
                // Scrubbing overlaps POST hardware init in Heads; charge a
                // modest serial cost proportional to RAM (~25 GiB/s zeroing).
                SimDuration::from_secs_f64(RAM_GIB as f64 / 25.0)
            } else {
                SimDuration::ZERO
            };
            (
                inner.flash.post_time,
                inner.flash.kind,
                inner.flash.build_id,
                scrub,
            )
        };
        sim.sleep(post_time).await;
        {
            let mut inner = lock(&self.inner);
            inner
                .tpm
                .extend_measured(index::FIRMWARE, build_id, format!("firmware:{kind:?}"));
            inner.firmware_ran = true;
        }
        if kind.scrubs_memory() {
            sim.sleep(scrub_time).await;
            self.scrub_memory();
        }
        Ok(kind)
    }

    /// Measures a downloaded artifact (iPXE payload, Heads runtime,
    /// Keylime agent, ...) into the boot-code PCR. The paper modified
    /// iPXE to do exactly this (§5).
    pub fn measure_download(&self, name: &str, digest: Digest) -> Result<(), MachineError> {
        let mut inner = lock(&self.inner);
        if !inner.firmware_ran {
            return Err(MachineError::FirmwareNotRun);
        }
        inner
            .tpm
            .extend_measured(index::BOOT_CODE, digest, format!("download:{name}"));
        Ok(())
    }

    /// kexec: measure the kernel into the boot-config PCR, then jump into
    /// it. The running occupant's RAM is replaced by the new OS — which
    /// immediately taints RAM with the new occupant's state.
    pub fn kexec(&self, kernel: KernelImage, tenant: &str) -> Result<(), MachineError> {
        let mut inner = lock(&self.inner);
        if !inner.firmware_ran {
            return Err(MachineError::FirmwareNotRun);
        }
        inner.tpm.extend_measured(
            index::BOOT_CONFIG,
            kernel.digest,
            format!("kexec:{}", kernel.name),
        );
        inner.booted_kernel = Some(kernel);
        inner.ram_residue = Some(RamResidue {
            tenant: tenant.to_string(),
            secret: Vec::new(),
        });
        Ok(())
    }

    /// The kernel currently running, if any.
    pub fn booted_kernel(&self) -> Option<KernelImage> {
        lock(&self.inner).booted_kernel.clone()
    }

    // -- RAM residue ---------------------------------------------------------

    /// The running tenant writes secret material into RAM.
    pub fn write_secret_to_ram(&self, tenant: &str, secret: &[u8]) {
        let mut inner = lock(&self.inner);
        inner.ram_residue = Some(RamResidue {
            tenant: tenant.to_string(),
            secret: secret.to_vec(),
        });
    }

    /// What a new occupant could recover from RAM (cold-boot style). The
    /// central after-occupancy threat: `Some(..)` means the previous
    /// tenant's data is exposed.
    pub fn ram_residue(&self) -> Option<RamResidue> {
        lock(&self.inner).ram_residue.clone()
    }

    /// Zeroes RAM (LinuxBoot does this during boot; callable directly for
    /// tests and revocation responses).
    pub fn scrub_memory(&self) {
        lock(&self.inner).ram_residue = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::FirmwareSource;
    use bolted_crypto::sha256::sha256;
    use bolted_tpm::NUM_PCRS;

    fn linuxboot() -> FirmwareImage {
        FirmwareSource::from_tree(FirmwareKind::LinuxBoot, "heads-1.0", b"src").build()
    }

    fn uefi() -> FirmwareImage {
        FirmwareSource::from_tree(FirmwareKind::Uefi, "2.7", b"vendor blob").build()
    }

    fn machine(img: FirmwareImage) -> Machine {
        Machine::new("m620-01", img, 1)
    }

    #[test]
    fn firmware_requires_power() {
        let sim = Sim::new();
        let m = machine(linuxboot());
        let r = sim.block_on({
            let m = m.clone();
            let sim = sim.clone();
            async move { m.run_firmware(&sim).await }
        });
        assert_eq!(r, Err(MachineError::WrongPowerState));
    }

    #[test]
    fn post_charges_firmware_specific_time() {
        for (img, expect_min, expect_max) in [(linuxboot(), 40.0, 45.0), (uefi(), 240.0, 241.0)] {
            let sim = Sim::new();
            let m = machine(img);
            m.power_on();
            sim.block_on({
                let (m, sim2) = (m.clone(), sim.clone());
                async move {
                    m.run_firmware(&sim2).await.expect("boots");
                }
            });
            let t = sim.now().as_secs_f64();
            assert!(
                (expect_min..expect_max).contains(&t),
                "POST took {t}s, expected [{expect_min},{expect_max})"
            );
        }
    }

    #[test]
    fn firmware_measured_into_pcr0() {
        let sim = Sim::new();
        let m = machine(linuxboot());
        m.power_on();
        sim.block_on({
            let (m, sim2) = (m.clone(), sim.clone());
            async move {
                m.run_firmware(&sim2).await.expect("boots");
            }
        });
        let pcr0 = m.with_tpm(|t| t.pcr_read(index::FIRMWARE));
        assert_ne!(pcr0, Digest::ZERO);
        // A machine with tampered flash measures differently.
        let sim2 = Sim::new();
        let evil = machine(linuxboot().tampered(b"bootkit"));
        evil.power_on();
        sim2.block_on({
            let (m, sim3) = (evil.clone(), sim2.clone());
            async move {
                m.run_firmware(&sim3).await.expect("boots");
            }
        });
        let evil_pcr0 = evil.with_tpm(|t| t.pcr_read(index::FIRMWARE));
        assert_ne!(evil_pcr0, pcr0, "tampered firmware is visible in PCR 0");
    }

    #[test]
    fn power_cycle_resets_pcrs_but_not_ram() {
        let sim = Sim::new();
        let m = machine(uefi());
        m.power_on();
        sim.block_on({
            let (m, sim2) = (m.clone(), sim.clone());
            async move {
                m.run_firmware(&sim2).await.expect("boots");
            }
        });
        m.write_secret_to_ram("tenant-a", b"disk encryption key");
        m.power_cycle();
        // PCRs are reset...
        for i in 0..NUM_PCRS {
            assert_eq!(m.with_tpm(|t| t.pcr_read(i)), Digest::ZERO);
        }
        // ...but RAM residue survives the cycle (UEFI does not scrub).
        let residue = m.ram_residue().expect("UEFI leaves RAM intact");
        assert_eq!(residue.tenant, "tenant-a");
        assert_eq!(residue.secret, b"disk encryption key");
    }

    #[test]
    fn linuxboot_scrubs_on_boot_uefi_does_not() {
        for (img, expect_scrubbed) in [(linuxboot(), true), (uefi(), false)] {
            let sim = Sim::new();
            let m = machine(img);
            m.power_on();
            sim.block_on({
                let (m, sim2) = (m.clone(), sim.clone());
                async move {
                    m.run_firmware(&sim2).await.expect("boots");
                }
            });
            m.write_secret_to_ram("tenant-a", b"secret");
            m.power_cycle();
            sim.block_on({
                let (m, sim2) = (m.clone(), sim.clone());
                async move {
                    m.run_firmware(&sim2).await.expect("boots");
                }
            });
            assert_eq!(
                m.ram_residue().is_none(),
                expect_scrubbed,
                "scrub behaviour for {:?}",
                m.flash().kind
            );
        }
    }

    #[test]
    fn downloads_and_kexec_are_measured() {
        let sim = Sim::new();
        let m = machine(linuxboot());
        m.power_on();
        sim.block_on({
            let (m, sim2) = (m.clone(), sim.clone());
            async move {
                m.run_firmware(&sim2).await.expect("boots");
            }
        });
        let pcr4_before = m.with_tpm(|t| t.pcr_read(index::BOOT_CODE));
        m.measure_download("keylime-agent", sha256(b"agent binary"))
            .expect("measures");
        assert_ne!(m.with_tpm(|t| t.pcr_read(index::BOOT_CODE)), pcr4_before);
        let kernel = KernelImage::from_bytes("fedora28", b"vmlinuz+initrd");
        m.kexec(kernel.clone(), "charlie").expect("kexecs");
        assert_eq!(m.booted_kernel(), Some(kernel));
        assert_ne!(m.with_tpm(|t| t.pcr_read(index::BOOT_CONFIG)), Digest::ZERO);
    }

    #[test]
    fn kexec_before_firmware_rejected() {
        let m = machine(linuxboot());
        m.power_on();
        let kernel = KernelImage::from_bytes("k", b"bytes");
        assert_eq!(
            m.kexec(kernel, "t"),
            Err(MachineError::FirmwareNotRun),
            "cannot skip the measured chain"
        );
        assert_eq!(
            m.measure_download("x", Digest::ZERO),
            Err(MachineError::FirmwareNotRun)
        );
    }

    #[test]
    fn reflash_changes_next_boot_measurement() {
        let sim = Sim::new();
        let m = machine(linuxboot());
        m.power_on();
        sim.block_on({
            let (m, sim2) = (m.clone(), sim.clone());
            async move {
                m.run_firmware(&sim2).await.expect("boots");
            }
        });
        let good = m.with_tpm(|t| t.pcr_read(index::FIRMWARE));
        m.reflash(m.flash().tampered(b"persistent implant"));
        m.power_cycle();
        sim.block_on({
            let (m, sim2) = (m.clone(), sim.clone());
            async move {
                m.run_firmware(&sim2).await.expect("boots");
            }
        });
        assert_ne!(m.with_tpm(|t| t.pcr_read(index::FIRMWARE)), good);
    }
}
