//! Orchestration phase costs of the Bolted timing model, as constants.
//!
//! The paper measures one testbed (§7.1), so every cost is a `const`
//! documented with the paper observation it comes from. Only the
//! first-order service times of the provisioning scripts, Foreman and
//! revocation live here. The costs of the layers below them live with
//! their models: firmware POST in `bolted_firmware::machine`, TPM command
//! latencies in `bolted_tpm::TpmTimings`, the Ceph object size, OSD
//! geometry and spindles in `bolted_storage::cluster`, and the payload
//! delivery rate in `bolted_keylime::verifier`. Contention effects
//! (airlock serialisation, Ceph spindles, the iSCSI gateway) emerge from
//! shared simulator resources and are not in this file either.

use bolted_keylime::verifier;
use bolted_sim::SimDuration;

/// Management-network HTTP download bandwidth, bytes/s. The paper notes
/// "obvious opportunities include better download protocols than HTTP"
/// (§7.3 fn 8), so this path is deliberately slow. The verifier delivers
/// the sealed payload over the same path.
pub const MGMT_DOWNLOAD_BPS: f64 = verifier::PAYLOAD_BPS;
/// PXE + DHCP negotiation before iPXE runs.
pub const PXE_DHCP: SimDuration = SimDuration::from_secs(8);
/// Size of the iPXE binary fetched by PXE.
pub const IPXE_SIZE: u64 = 1 << 20;
/// Size of the LinuxBoot runtime (Heads) downloaded by iPXE when the
/// flash still holds vendor UEFI.
pub const HEADS_RUNTIME_SIZE: u64 = 50 << 20;
/// Time for the downloaded Heads runtime to initialise.
pub const HEADS_RUNTIME_BOOT: SimDuration = SimDuration::from_secs(25);
/// Size of the Keylime agent download.
pub const AGENT_SIZE: u64 = 10 << 20;
/// Agent interpreter start-up (the paper's agent is Python; §7.3 fn 8
/// suggests "porting the Keylime Agent from python to Rust").
pub const AGENT_STARTUP: SimDuration = SimDuration::from_secs(8);
/// Size of the tenant kernel + initrd.
pub const KERNEL_INITRD_SIZE: u64 = 60 << 20;
/// Switch reprogramming + DHCP when a node changes networks (the
/// Figure 1 "move the server" steps).
pub const NETWORK_MOVE: SimDuration = SimDuration::from_secs(10);
/// CPU portion of booting the tenant OS (systemd, services).
pub const KERNEL_BOOT_CPU: SimDuration = SimDuration::from_secs(35);
/// Bytes of the root image actually read during a boot — the paper:
/// "only a tiny fraction of the boot disk is ever accessed".
pub const BOOT_TOUCHED_BYTES: u64 = 400 << 20;
/// Request size the booting kernel issues to its root disk.
pub const BOOT_IO_REQUEST: u64 = 512 << 10;
/// LUKS key-load + dm-crypt setup at boot ("+i loading the cryptographic
/// key and decrypting the encrypted storage").
pub const LUKS_UNLOCK: SimDuration = SimDuration::from_secs(2);
/// IPsec tunnel establishment ("+ii establishing IPsec tunnel").
pub const IPSEC_SETUP: SimDuration = SimDuration::from_secs(3);
/// Foreman's mirror bandwidth (it streams packages from a local mirror,
/// not the slow HTTP path), bytes/s.
pub const FOREMAN_MIRROR_BPS: f64 = 50e6;
/// Foreman: installer/anaconda image size.
pub const FOREMAN_INSTALLER_SIZE: u64 = 250 << 20;
/// Foreman: bytes written to the local disk during install — "all data
/// needs to be copied into the local disk" (§7.3).
pub const FOREMAN_INSTALL_BYTES: u64 = 2 << 30;
/// Foreman: package/config CPU time during install.
pub const FOREMAN_INSTALL_CPU: SimDuration = SimDuration::from_secs(180);
/// Local disk sequential write bandwidth, bytes/s.
pub const LOCAL_DISK_WRITE_BPS: f64 = 170e6;
/// Local boot (from already-installed disk) I/O + init time.
pub const FOREMAN_LOCAL_BOOT: SimDuration = SimDuration::from_secs(35);
/// Per-node time to apply a revocation (drop SAs, rekey) once the
/// notification arrives (§7.4: whole flow ≈ 3 s).
pub const REVOCATION_APPLY: SimDuration = SimDuration::from_millis(1500);
/// Local disk capacity (2 TB), for the scrub-cost ablation ("scrubbing
/// the disk can take many hours").
pub const LOCAL_DISK_BYTES: u64 = 2 << 40;

/// Time to download `bytes` over the management network: the
/// prototype's unoptimised HTTP delivery path, not the 10 GbE data
/// fabric.
pub fn download(bytes: u64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 / MGMT_DOWNLOAD_BPS)
}

/// Time to download `bytes` from Foreman's package mirror.
pub fn foreman_download(bytes: u64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 / FOREMAN_MIRROR_BPS)
}

/// Time to sequentially write `bytes` to the local disk.
pub fn local_write(bytes: u64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 / LOCAL_DISK_WRITE_BPS)
}

/// Time to scrub the entire local disk — the cost Bolted's diskless
/// design avoids ("scrubbing local disks can require hours").
pub fn full_disk_scrub() -> SimDuration {
    local_write(LOCAL_DISK_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn download_time_scales() {
        let t = download(60 << 20);
        // 60 MiB at 6 MB/s ≈ 10.5 s — the slow HTTP path of the prototype.
        assert!((10.0..11.0).contains(&t.as_secs_f64()), "{t}");
    }

    #[test]
    fn disk_scrub_takes_hours() {
        let hours = full_disk_scrub().as_secs_f64() / 3600.0;
        assert!(hours > 2.0, "paper: scrubbing takes hours; got {hours:.1}h");
        // 2 TiB at 170 MB/s, to the nanosecond: no figure prints this
        // cost, so this is its pin.
        assert_eq!(
            full_disk_scrub(),
            SimDuration::from_nanos(12_935_430_915_012)
        );
    }

    #[test]
    fn boot_touches_fraction_of_typical_image() {
        const { assert!(BOOT_TOUCHED_BYTES < (8u64 << 30) / 10) };
    }
}
