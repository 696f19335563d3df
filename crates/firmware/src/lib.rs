//! `bolted-firmware` — machine and firmware models.
//!
//! Provides the physical-server substrate for Bolted: SPI flash holding
//! UEFI or LinuxBoot images (deterministically built, per §5), POST with
//! paper-calibrated timings, the measured boot chain into the TPM, RAM
//! residue semantics (who scrubs, who doesn't), and kexec.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod image;
pub mod machine;

pub use image::{FirmwareImage, FirmwareKind, FirmwareSource, KernelImage};
pub use machine::{Machine, MachineError, PowerState, RamResidue};
