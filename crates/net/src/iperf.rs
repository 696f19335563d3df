//! An iperf-style throughput measurement harness (paper Figure 3b).

// lint: allow-file(L1-panic: standalone measurement harness; it builds
// its own two-host fixture, so a failed attach/vlan call is a programming
// error in this file, not a runtime condition)

use bolted_crypto::cost::CipherSuite;
use bolted_sim::{OpGate, Sim};

use crate::fabric::{Fabric, HostId, NetError, TransferSpec};
use crate::link::ESP_OVERHEAD_BYTES;

/// Result of one iperf run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IperfResult {
    /// Application payload moved, bytes.
    pub bytes: u64,
    /// Elapsed virtual time, seconds.
    pub seconds: f64,
    /// Goodput in gigabits per second.
    pub gbps: f64,
}

/// Runs a memory-to-memory transfer of `bytes` between two hosts and
/// reports goodput, with optional IPsec.
pub async fn iperf(
    fabric: &Fabric,
    from: HostId,
    to: HostId,
    bytes: u64,
    suite: CipherSuite,
) -> Result<IperfResult, NetError> {
    let spec = match suite {
        CipherSuite::None => TransferSpec::plain(),
        s => TransferSpec::ipsec(s.default_cost()),
    };
    let d = fabric.transfer(from, to, bytes, spec).await?;
    let seconds = d.as_secs_f64();
    Ok(IperfResult {
        bytes,
        seconds,
        gbps: bytes as f64 * 8.0 / seconds / 1e9,
    })
}

/// Convenience wrapper that spins up a fresh simulation for one
/// measurement (what the figure harness calls in a loop).
pub fn iperf_standalone(
    link: crate::link::LinkModel,
    bytes: u64,
    suite: CipherSuite,
) -> IperfResult {
    let sim = Sim::new();
    let fabric = Fabric::new(&sim, &OpGate::disabled());
    let sw = fabric.add_switch("sw", 2);
    let a = fabric.add_host("iperf-client", link);
    let b = fabric.add_host("iperf-server", link);
    fabric.attach(a, sw, 0).expect("attach");
    fabric.attach(b, sw, 1).expect("attach");
    fabric.set_host_vlan(a, Some(1)).expect("vlan");
    fabric.set_host_vlan(b, Some(1)).expect("vlan");
    let f = fabric.clone();
    sim.block_on(async move { iperf(&f, a, b, bytes, suite).await })
        .expect("standalone iperf cannot be isolated")
}

/// Analytic upper bound on goodput for a suite over a link — used by
/// tests to sanity-check the simulated numbers.
pub fn analytic_goodput_gbps(link: crate::link::LinkModel, suite: CipherSuite) -> f64 {
    match suite {
        CipherSuite::None => link.goodput_bps(0) / 1e9,
        s => {
            let cost = s.default_cost();
            let mss = link.mss(ESP_OVERHEAD_BYTES);
            // Cipher-limited payload rate: one MSS per op_ns(mss).
            let secs_per_pkt = cost.op_ns(mss) / 1e9;
            let cipher_bits_per_sec = mss as f64 * 8.0 / secs_per_pkt;
            link.goodput_bps(ESP_OVERHEAD_BYTES)
                .min(cipher_bits_per_sec)
                / 1e9
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkModel;

    #[test]
    fn plain_near_line_rate() {
        let r = iperf_standalone(LinkModel::ten_gbe_jumbo(), 1 << 30, CipherSuite::None);
        assert!(r.gbps > 9.3, "jumbo plain got {}", r.gbps);
        let r = iperf_standalone(LinkModel::ten_gbe(), 1 << 30, CipherSuite::None);
        assert!(r.gbps > 9.0, "1500 plain got {}", r.gbps);
    }

    #[test]
    fn ipsec_hw_roughly_half_line_rate() {
        // Paper: "even the best case of HW accelerated encryption and
        // jumbo frames having almost a factor of two degradation".
        let plain = iperf_standalone(LinkModel::ten_gbe_jumbo(), 1 << 30, CipherSuite::None);
        let hw = iperf_standalone(LinkModel::ten_gbe_jumbo(), 1 << 30, CipherSuite::AesNi);
        let ratio = plain.gbps / hw.gbps;
        assert!((1.6..2.6).contains(&ratio), "plain/hw ratio {ratio}");
    }

    #[test]
    fn ipsec_sw_much_slower_than_hw() {
        let hw = iperf_standalone(LinkModel::ten_gbe_jumbo(), 1 << 28, CipherSuite::AesNi);
        let sw = iperf_standalone(LinkModel::ten_gbe_jumbo(), 1 << 28, CipherSuite::AesSw);
        assert!(hw.gbps > 2.0 * sw.gbps, "hw {} sw {}", hw.gbps, sw.gbps);
    }

    #[test]
    fn jumbo_frames_help_ipsec() {
        let j = iperf_standalone(LinkModel::ten_gbe_jumbo(), 1 << 28, CipherSuite::AesNi);
        let s = iperf_standalone(LinkModel::ten_gbe(), 1 << 28, CipherSuite::AesNi);
        assert!(j.gbps > s.gbps, "jumbo {} vs 1500 {}", j.gbps, s.gbps);
    }

    #[test]
    fn simulation_matches_analytic_bound() {
        for suite in [CipherSuite::None, CipherSuite::AesNi, CipherSuite::AesSw] {
            for link in [LinkModel::ten_gbe(), LinkModel::ten_gbe_jumbo()] {
                let analytic = analytic_goodput_gbps(link, suite);
                let simulated = iperf_standalone(link, 1 << 28, suite).gbps;
                let ratio = simulated / analytic;
                assert!(
                    (0.85..1.05).contains(&ratio),
                    "{suite:?} mtu {}: simulated {simulated:.2} vs analytic {analytic:.2}",
                    link.mtu
                );
            }
        }
    }

    #[test]
    fn result_fields_consistent() {
        let r = iperf_standalone(LinkModel::ten_gbe(), 1 << 24, CipherSuite::None);
        let recomputed = r.bytes as f64 * 8.0 / r.seconds / 1e9;
        assert!((r.gbps - recomputed).abs() < 1e-9);
    }
}
