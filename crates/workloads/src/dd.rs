//! The `dd` micro-benchmark (Figures 3a and 3c).
//!
//! Sequential block reads/writes against a device model, optionally
//! through LUKS. For Figure 3a the device is a block RAM disk — the
//! paper's "extreme case" where the cipher, not the medium, is the
//! bottleneck.

use bolted_sim::{Sim, SimDuration};
use bolted_storage::IscsiTarget;

/// Direction of a dd run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DdOp {
    /// Sequential read.
    Read,
    /// Sequential write.
    Write,
}

/// A simple device bandwidth model (RAM disk, local SSD, ...).
#[derive(Debug, Clone, Copy)]
pub struct DeviceModel {
    /// Read bandwidth, bytes/s.
    pub read_bps: f64,
    /// Write bandwidth, bytes/s.
    pub write_bps: f64,
}

impl DeviceModel {
    /// The paper's block RAM disk exercised with `dd` (§7.2): raw reads
    /// around 1.4 GB/s, writes slightly lower (dd + page-cache overhead).
    pub fn ram_disk() -> Self {
        DeviceModel {
            read_bps: 1.45e9,
            write_bps: 1.25e9,
        }
    }
}

/// LUKS cipher cost for the dm-crypt layer, per direction.
///
/// Calibrated to Figure 3a: with LUKS the RAM-disk read sustains about
/// 1 GB/s and writes about 0.8 GB/s — "likely to be able to keep up with
/// both local disks and network mounted storage".
#[derive(Debug, Clone, Copy)]
pub struct LuksCost {
    /// Decryption throughput, bytes/s.
    pub decrypt_bps: f64,
    /// Encryption throughput, bytes/s.
    pub encrypt_bps: f64,
}

impl LuksCost {
    /// Default AES-256-XTS costs on the paper's Xeons.
    pub fn aes_xts() -> Self {
        LuksCost {
            decrypt_bps: 3.2e9,
            encrypt_bps: 2.2e9,
        }
    }
}

/// Result of one dd run.
#[derive(Debug, Clone, Copy)]
pub struct DdResult {
    /// Bytes moved.
    pub bytes: u64,
    /// Elapsed virtual seconds.
    pub seconds: f64,
    /// Throughput in MB/s (decimal).
    pub mbps: f64,
}

fn finish(bytes: u64, seconds: f64) -> DdResult {
    DdResult {
        bytes,
        seconds,
        mbps: bytes as f64 / seconds / 1e6,
    }
}

/// Runs `dd` against a modelled device, optionally through LUKS.
/// dm-crypt's copy-then-cipher stages do not pipeline against a
/// RAM-speed device, so their costs add per block.
pub async fn dd_device(
    sim: &Sim,
    device: DeviceModel,
    luks: Option<LuksCost>,
    op: DdOp,
    bytes: u64,
    block_size: u64,
) -> DdResult {
    let start = sim.now();
    let (dev_bps, cipher_bps) = match op {
        DdOp::Read => (
            device.read_bps,
            luks.map(|l| l.decrypt_bps).unwrap_or(f64::INFINITY),
        ),
        DdOp::Write => (
            device.write_bps,
            luks.map(|l| l.encrypt_bps).unwrap_or(f64::INFINITY),
        ),
    };
    let mut remaining = bytes;
    while remaining > 0 {
        let chunk = remaining.min(block_size.max(512));
        let dev_t = chunk as f64 / dev_bps;
        let cipher_t = if cipher_bps.is_finite() {
            chunk as f64 / cipher_bps
        } else {
            0.0
        };
        // Per-block syscall overhead of dd itself. dm-crypt copies the
        // block and *then* de/encrypts — the stages do not pipeline on a
        // RAM-speed device, so the costs add (this is what caps LUKS at
        // ~1 GB/s in Figure 3a).
        let syscall = 2e-6;
        sim.sleep(SimDuration::from_secs_f64(dev_t + cipher_t + syscall))
            .await;
        remaining -= chunk;
    }
    finish(bytes, sim.now().since(start).as_secs_f64())
}

/// Runs `dd` against an iSCSI target (Figure 3c).
pub async fn dd_iscsi(
    sim: &Sim,
    target: &IscsiTarget,
    luks: Option<LuksCost>,
    op: DdOp,
    bytes: u64,
    block_size: u64,
) -> DdResult {
    let start = sim.now();
    let bs = block_size.max(512);
    let mut off = 0u64;
    while off < bytes {
        let chunk = bs.min(bytes - off);
        match op {
            DdOp::Read => {
                target.read_timed(off, chunk).await.expect("in bounds");
                if let Some(l) = luks {
                    sim.sleep(SimDuration::from_secs_f64(chunk as f64 / l.decrypt_bps))
                        .await;
                }
            }
            DdOp::Write => {
                if let Some(l) = luks {
                    sim.sleep(SimDuration::from_secs_f64(chunk as f64 / l.encrypt_bps))
                        .await;
                }
                target.write_timed(off, chunk).await.expect("in bounds");
            }
        }
        off += chunk;
    }
    finish(bytes, sim.now().since(start).as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(device: DeviceModel, luks: Option<LuksCost>, op: DdOp) -> DdResult {
        let sim = Sim::new();
        sim.block_on({
            let sim2 = sim.clone();
            async move { dd_device(&sim2, device, luks, op, 1 << 30, 1 << 20).await }
        })
    }

    #[test]
    fn plain_ram_disk_reaches_gigabytes_per_second() {
        let r = run(DeviceModel::ram_disk(), None, DdOp::Read);
        assert!((1300.0..1500.0).contains(&r.mbps), "{}", r.mbps);
    }

    #[test]
    fn luks_read_sustains_about_1_gbps() {
        // Paper: "the bandwidth that LUKS can sustain at 1GB for reads".
        let r = run(
            DeviceModel::ram_disk(),
            Some(LuksCost::aes_xts()),
            DdOp::Read,
        );
        assert!((900.0..1200.0).contains(&r.mbps), "{}", r.mbps);
    }

    #[test]
    fn luks_write_about_point_8_gbps() {
        // Paper: "write performance may introduce a modest degradation at ~0.8GB".
        let r = run(
            DeviceModel::ram_disk(),
            Some(LuksCost::aes_xts()),
            DdOp::Write,
        );
        assert!((700.0..950.0).contains(&r.mbps), "{}", r.mbps);
    }

    #[test]
    fn luks_overhead_is_larger_for_writes() {
        let pr = run(DeviceModel::ram_disk(), None, DdOp::Read).mbps;
        let pw = run(DeviceModel::ram_disk(), None, DdOp::Write).mbps;
        let lr = run(
            DeviceModel::ram_disk(),
            Some(LuksCost::aes_xts()),
            DdOp::Read,
        )
        .mbps;
        let lw = run(
            DeviceModel::ram_disk(),
            Some(LuksCost::aes_xts()),
            DdOp::Write,
        )
        .mbps;
        let read_loss = 1.0 - lr / pr;
        let write_loss = 1.0 - lw / pw;
        assert!(
            write_loss > read_loss,
            "write {write_loss:.2} vs read {read_loss:.2}"
        );
    }

    #[test]
    fn tiny_block_size_hurts() {
        let sim = Sim::new();
        let big = sim.block_on({
            let sim2 = sim.clone();
            async move {
                dd_device(
                    &sim2,
                    DeviceModel::ram_disk(),
                    None,
                    DdOp::Read,
                    64 << 20,
                    1 << 20,
                )
                .await
            }
        });
        let sim3 = Sim::new();
        let small = sim3.block_on({
            let sim4 = sim3.clone();
            async move {
                dd_device(
                    &sim4,
                    DeviceModel::ram_disk(),
                    None,
                    DdOp::Read,
                    64 << 20,
                    4096,
                )
                .await
            }
        });
        assert!(big.mbps > small.mbps, "syscall overhead visible at bs=4k");
    }
}

#[cfg(test)]
mod iscsi_dd_tests {
    use super::*;
    use bolted_sim::OpGate;
    use bolted_storage::{
        Backing, Cluster, Gateway, ImageStore, IscsiTarget, Transport, TGT_VM_BANDWIDTH_BPS,
        TUNED_READ_AHEAD,
    };

    fn target(sim: &Sim) -> IscsiTarget {
        let cluster = Cluster::paper_default(sim);
        let store = ImageStore::new(&cluster);
        let img = store
            .create("vol", 4 << 30, Backing::Zero)
            .expect("creates");
        let gw = Gateway::new(sim, TGT_VM_BANDWIDTH_BPS, &OpGate::disabled());
        IscsiTarget::new(
            sim,
            &store,
            img,
            &gw,
            Transport::plain_10g(),
            TUNED_READ_AHEAD,
        )
    }

    #[test]
    fn dd_read_over_iscsi_matches_fig3c_band() {
        let sim = Sim::new();
        let t = target(&sim);
        let r = sim.block_on({
            let sim2 = sim.clone();
            async move { dd_iscsi(&sim2, &t, None, DdOp::Read, 1 << 30, 1 << 20).await }
        });
        assert!(
            (250.0..550.0).contains(&r.mbps),
            "plain iSCSI read {} MB/s",
            r.mbps
        );
    }

    #[test]
    fn dd_write_over_iscsi_is_replica_bound() {
        let sim = Sim::new();
        let t = target(&sim);
        let r = sim.block_on({
            let sim2 = sim.clone();
            async move { dd_iscsi(&sim2, &t, None, DdOp::Write, 256 << 20, 1 << 20).await }
        });
        assert!((40.0..140.0).contains(&r.mbps), "write {} MB/s", r.mbps);
    }

    #[test]
    fn luks_cost_visible_on_iscsi_writes() {
        let sim = Sim::new();
        let t = target(&sim);
        let plain = sim.block_on({
            let sim2 = sim.clone();
            async move { dd_iscsi(&sim2, &t, None, DdOp::Write, 128 << 20, 1 << 20).await }
        });
        let sim3 = Sim::new();
        let t3 = target(&sim3);
        let luks = sim3.block_on({
            let sim4 = sim3.clone();
            async move {
                dd_iscsi(
                    &sim4,
                    &t3,
                    Some(LuksCost::aes_xts()),
                    DdOp::Write,
                    128 << 20,
                    1 << 20,
                )
                .await
            }
        });
        assert!(
            luks.mbps < plain.mbps,
            "luks {} < plain {}",
            luks.mbps,
            plain.mbps
        );
        assert!(
            luks.mbps > plain.mbps * 0.85,
            "but only slightly (paper: small write cost)"
        );
    }
}
