//! Boot-chain verification helpers: given a machine's event log, decide
//! which canonical boot flow it followed and whether the chain is intact.
//!
//! These are convenience views used by examples and tests; the
//! authoritative check is always the verifier's replay against a
//! whitelist. They encode the two flows of §5's "Putting it together":
//!
//! * **Flash flow** (LinuxBoot in SPI): firmware → agent → kexec.
//! * **Chain-load flow** (vendor UEFI): firmware → iPXE → Heads runtime →
//!   agent → kexec.

use bolted_tpm::{index, EventLog};

/// Which boot flow an event log describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootFlow {
    /// LinuxBoot executed straight from flash.
    FlashLinuxBoot,
    /// Vendor firmware chain-loading a downloaded LinuxBoot runtime.
    ChainLoaded,
}

/// Structural problems found in a boot chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// No firmware measurement at all (PCR 0 untouched).
    NoFirmwareMeasurement,
    /// Boot code (PCR 4) was extended before firmware (PCR 0) —
    /// impossible in a correct SRTM chain.
    OutOfOrder,
    /// A kexec happened with no boot-code measurements before it in the
    /// chain-loaded flow.
    KexecWithoutAgent,
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::NoFirmwareMeasurement => write!(f, "no firmware measurement in log"),
            ChainError::OutOfOrder => write!(f, "boot code measured before firmware"),
            ChainError::KexecWithoutAgent => write!(f, "kexec without prior boot-code stage"),
        }
    }
}

/// Classifies and structurally validates a boot event log.
///
/// Returns the flow the log describes. This checks *ordering* only —
/// whether each measured value is trusted is the whitelist's job.
pub fn classify_chain(log: &EventLog) -> Result<BootFlow, ChainError> {
    let events = log.events();
    let first_fw = events.iter().position(|e| e.pcr_index == index::FIRMWARE);
    let first_boot = events.iter().position(|e| e.pcr_index == index::BOOT_CODE);
    let first_kexec = events
        .iter()
        .position(|e| e.pcr_index == index::BOOT_CONFIG);
    let Some(fw_pos) = first_fw else {
        return Err(ChainError::NoFirmwareMeasurement);
    };
    if let Some(boot_pos) = first_boot {
        if boot_pos < fw_pos {
            return Err(ChainError::OutOfOrder);
        }
    }
    if let Some(kexec_pos) = first_kexec {
        if first_boot.is_none_or(|b| b > kexec_pos) {
            return Err(ChainError::KexecWithoutAgent);
        }
    }
    let heads_downloaded = events
        .iter()
        .any(|e| e.pcr_index == index::BOOT_CODE && e.description.contains("heads"));
    Ok(if heads_downloaded {
        BootFlow::ChainLoaded
    } else {
        BootFlow::FlashLinuxBoot
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolted_crypto::sha256::sha256;

    fn ev(log: &mut EventLog, pcr: usize, what: &str) {
        log.append(pcr, sha256(what.as_bytes()), what);
    }

    #[test]
    fn flash_flow_classified() {
        let mut log = EventLog::new();
        ev(&mut log, index::FIRMWARE, "firmware:LinuxBoot");
        ev(&mut log, index::BOOT_CODE, "download:keylime-agent");
        ev(&mut log, index::BOOT_CONFIG, "kexec:fedora");
        assert_eq!(classify_chain(&log), Ok(BootFlow::FlashLinuxBoot));
    }

    #[test]
    fn chain_loaded_flow_classified() {
        let mut log = EventLog::new();
        ev(&mut log, index::FIRMWARE, "firmware:Uefi");
        ev(&mut log, index::BOOT_CODE, "download:ipxe");
        ev(&mut log, index::BOOT_CODE, "download:heads-runtime");
        ev(&mut log, index::BOOT_CODE, "download:keylime-agent");
        ev(&mut log, index::BOOT_CONFIG, "kexec:fedora");
        assert_eq!(classify_chain(&log), Ok(BootFlow::ChainLoaded));
    }

    #[test]
    fn missing_firmware_rejected() {
        let mut log = EventLog::new();
        ev(&mut log, index::BOOT_CODE, "download:agent");
        assert_eq!(classify_chain(&log), Err(ChainError::NoFirmwareMeasurement));
        assert_eq!(
            classify_chain(&EventLog::new()),
            Err(ChainError::NoFirmwareMeasurement)
        );
    }

    #[test]
    fn out_of_order_chain_rejected() {
        let mut log = EventLog::new();
        ev(&mut log, index::BOOT_CODE, "download:agent");
        ev(&mut log, index::FIRMWARE, "firmware:LinuxBoot");
        assert_eq!(classify_chain(&log), Err(ChainError::OutOfOrder));
    }

    #[test]
    fn kexec_without_agent_rejected() {
        let mut log = EventLog::new();
        ev(&mut log, index::FIRMWARE, "firmware:LinuxBoot");
        ev(&mut log, index::BOOT_CONFIG, "kexec:mystery-kernel");
        assert_eq!(classify_chain(&log), Err(ChainError::KexecWithoutAgent));
    }

    #[test]
    fn real_machine_boot_produces_valid_flash_chain() {
        use crate::image::{FirmwareKind, FirmwareSource, KernelImage};
        use crate::machine::Machine;
        use bolted_sim::Sim;
        let sim = Sim::new();
        let fw = FirmwareSource::from_tree(FirmwareKind::LinuxBoot, "v1", b"src").build();
        let m = Machine::new("n", fw, 1);
        m.power_on();
        sim.block_on({
            let (m, sim2) = (m.clone(), sim.clone());
            async move {
                m.run_firmware(&sim2).await.expect("boots");
            }
        });
        m.measure_download("keylime-agent", sha256(b"agent"))
            .expect("measures");
        m.kexec(KernelImage::from_bytes("k", b"bytes"), "tenant")
            .expect("kexecs");
        let log = m.with_tpm(|t| t.event_log().clone());
        assert_eq!(classify_chain(&log), Ok(BootFlow::FlashLinuxBoot));
    }
}
