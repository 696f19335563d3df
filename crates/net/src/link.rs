//! Link-level timing model: bandwidth, propagation latency, MTU framing.

use bolted_sim::SimDuration;

/// Per-packet protocol overhead in bytes (Ethernet + IP + TCP headers,
/// preamble and inter-frame gap), without IPsec.
pub const PLAIN_HEADER_BYTES: u64 = 78;

/// Additional per-packet overhead for ESP tunnel mode (outer IP header,
/// ESP header, IV, padding and ICV) — matches Strongswan's AES-GCM
/// tunnel-mode overhead to within a few bytes.
pub const ESP_OVERHEAD_BYTES: u64 = 73;

/// A point-to-point link model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Raw bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// One-way propagation + switching latency.
    pub latency: SimDuration,
    /// Maximum transmission unit in bytes (IP packet size).
    pub mtu: u64,
}

impl LinkModel {
    /// A 10 GbE datacenter link with standard frames — the paper's fabric.
    pub fn ten_gbe() -> Self {
        LinkModel {
            bandwidth_bps: 10e9,
            latency: SimDuration::from_micros(50),
            mtu: 1500,
        }
    }

    /// Same link with jumbo frames (the paper's tuned configuration).
    pub fn ten_gbe_jumbo() -> Self {
        LinkModel {
            mtu: 9000,
            ..Self::ten_gbe()
        }
    }

    /// Maximum payload bytes per packet given `extra_overhead` consumed
    /// inside the MTU (e.g. ESP).
    ///
    /// # Panics
    ///
    /// Panics if the overhead leaves no room for payload.
    pub fn mss(&self, extra_overhead: u64) -> u64 {
        // 40 bytes of the MTU go to inner IP+TCP headers.
        let inner = 40 + extra_overhead;
        assert!(self.mtu > inner, "MTU too small for headers");
        self.mtu - inner
    }

    /// Number of packets needed for `payload_bytes`.
    pub fn packets_for(&self, payload_bytes: u64, extra_overhead: u64) -> u64 {
        payload_bytes.div_ceil(self.mss(extra_overhead)).max(1)
    }

    /// Total wire bytes for a payload (payload + per-packet headers).
    pub fn wire_bytes(&self, payload_bytes: u64, extra_overhead: u64) -> u64 {
        let pkts = self.packets_for(payload_bytes, extra_overhead);
        payload_bytes + pkts * (PLAIN_HEADER_BYTES + extra_overhead)
    }

    /// Pure serialisation time for a payload at line rate.
    pub fn serialize_time(&self, payload_bytes: u64, extra_overhead: u64) -> SimDuration {
        let bits = self.wire_bytes(payload_bytes, extra_overhead) as f64 * 8.0;
        SimDuration::from_secs_f64(bits / self.bandwidth_bps)
    }

    /// Effective goodput in bits per second for large transfers,
    /// ignoring latency (line-rate bound).
    pub fn goodput_bps(&self, extra_overhead: u64) -> f64 {
        let mss = self.mss(extra_overhead) as f64;
        let per_pkt = mss + (PLAIN_HEADER_BYTES + extra_overhead) as f64;
        self.bandwidth_bps * mss / per_pkt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mss_accounts_for_headers() {
        let l = LinkModel::ten_gbe();
        assert_eq!(l.mss(0), 1460);
        assert_eq!(l.mss(ESP_OVERHEAD_BYTES), 1460 - 73);
        assert_eq!(LinkModel::ten_gbe_jumbo().mss(0), 8960);
    }

    #[test]
    fn packet_count_rounds_up() {
        let l = LinkModel::ten_gbe();
        assert_eq!(l.packets_for(1, 0), 1);
        assert_eq!(l.packets_for(1460, 0), 1);
        assert_eq!(l.packets_for(1461, 0), 2);
        assert_eq!(l.packets_for(0, 0), 1, "zero-byte send still one packet");
    }

    #[test]
    fn serialize_time_scales_linearly() {
        let l = LinkModel::ten_gbe();
        let t1 = l.serialize_time(1_000_000, 0);
        let t2 = l.serialize_time(2_000_000, 0);
        let ratio = t2.as_secs_f64() / t1.as_secs_f64();
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn goodput_below_line_rate() {
        let l = LinkModel::ten_gbe();
        let g = l.goodput_bps(0);
        assert!(g < 10e9);
        assert!(g > 9.3e9, "standard frames ~94% efficient, got {g}");
        // Jumbo frames are more efficient.
        assert!(LinkModel::ten_gbe_jumbo().goodput_bps(0) > g);
    }

    #[test]
    fn esp_overhead_reduces_goodput() {
        let l = LinkModel::ten_gbe();
        assert!(l.goodput_bps(ESP_OVERHEAD_BYTES) < l.goodput_bps(0));
        // Overhead hurts small MTUs relatively more.
        let jumbo = LinkModel::ten_gbe_jumbo();
        let loss_1500 = 1.0 - l.goodput_bps(ESP_OVERHEAD_BYTES) / l.goodput_bps(0);
        let loss_9000 = 1.0 - jumbo.goodput_bps(ESP_OVERHEAD_BYTES) / jumbo.goodput_bps(0);
        assert!(loss_1500 > loss_9000);
    }

    #[test]
    #[should_panic(expected = "MTU too small")]
    fn tiny_mtu_panics() {
        let l = LinkModel {
            mtu: 64,
            ..LinkModel::ten_gbe()
        };
        l.mss(ESP_OVERHEAD_BYTES);
    }
}
