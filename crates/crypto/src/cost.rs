//! Throughput cost models for cryptographic operations.
//!
//! The simulator charges virtual time for encryption according to these
//! models, independent of the real cipher implementation used on the data
//! path. Default figures are calibrated to the paper's testbed (§7.2):
//! Xeon E5-2650 v2 with AES-NI, LUKS at ~1 GB/s read and ~0.8 GB/s write,
//! software AES several times slower.

/// How a cipher's time cost scales with data size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CipherCost {
    /// Fixed per-operation cost in nanoseconds (key schedule, IV setup,
    /// per-packet ESP processing, ...).
    pub per_op_ns: f64,
    /// Marginal cost per byte in nanoseconds.
    pub per_byte_ns: f64,
}

impl CipherCost {
    /// A zero-cost model (no encryption).
    pub const FREE: CipherCost = CipherCost {
        per_op_ns: 0.0,
        per_byte_ns: 0.0,
    };

    /// Builds a model from a sustained throughput in bytes per second and
    /// a fixed per-operation overhead.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not positive.
    pub fn from_throughput(bytes_per_sec: f64, per_op_ns: f64) -> CipherCost {
        assert!(bytes_per_sec > 0.0, "throughput must be positive");
        CipherCost {
            per_op_ns,
            per_byte_ns: 1e9 / bytes_per_sec,
        }
    }

    /// Time in nanoseconds to process one operation over `bytes`.
    pub fn op_ns(&self, bytes: u64) -> f64 {
        self.per_op_ns + self.per_byte_ns * bytes as f64
    }

    /// Sustained throughput in bytes/second for large operations
    /// (infinite when the model is free).
    pub fn throughput_bps(&self) -> f64 {
        if self.per_byte_ns == 0.0 {
            f64::INFINITY
        } else {
            1e9 / self.per_byte_ns
        }
    }
}

/// Sustained throughput of the single-stream ChaCha20 sector kernel
/// (one 64-byte block per quarter-round pass), bytes/second. A frozen
/// measurement kept as a model constant; its measurement history is in
/// EXPERIMENTS.md.
pub const CHACHA20_SCALAR_BPS: f64 = 0.50e9;

/// Sustained throughput of the former 16-lane wide ChaCha20 sector
/// kernel (two LUKS sectors per sweep) on the same machine,
/// bytes/second. A frozen measurement kept as a model constant, as the
/// AES suites are, after the kernel itself was removed; its measurement
/// history is in EXPERIMENTS.md.
pub const CHACHA20_WIDE_BPS: f64 = 1.35e9;

/// Cipher suites the evaluation distinguishes (paper Figure 3b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CipherSuite {
    /// No encryption.
    None,
    /// AES-256-GCM with AES-NI hardware acceleration.
    AesNi,
    /// AES-256 in software.
    AesSw,
    /// Single-stream ChaCha20, one 64-byte block per quarter-round pass
    /// ([`CHACHA20_SCALAR_BPS`]).
    ChaCha20Scalar,
    /// 16-lane wide ChaCha20 keystream sweeps, two LUKS sectors per pass
    /// ([`CHACHA20_WIDE_BPS`]).
    ChaCha20Wide,
}

impl CipherSuite {
    /// Default calibrated per-core cost model for this suite.
    ///
    /// Calibration targets for the AES suites (paper §7.2, Figure 3b):
    /// the *whole* IPsec path (ESP processing + AES-GCM) sustains
    /// ≈4.7 Gb/s ≈ 0.58 GB/s per core with AES-NI and jumbo frames —
    /// "almost a factor of two degradation over the non-encrypted case"
    /// at "60–80% of one processing core". Software AES lands under half
    /// of that, and the per-packet cost makes 1500-byte MTUs visibly
    /// worse than 9000.
    ///
    /// The ChaCha20 suites are calibrated from frozen measurements of
    /// this repository's sector kernels ([`CHACHA20_SCALAR_BPS`],
    /// [`CHACHA20_WIDE_BPS`]), so the simulated Figure 5 boot storm
    /// reflects the measured data-plane speedup; the per-op overhead
    /// matches AES-NI since the per-sector setup (nonce build, state
    /// init) is the same order of work.
    pub fn default_cost(self) -> CipherCost {
        match self {
            CipherSuite::None => CipherCost::FREE,
            CipherSuite::AesNi => CipherCost::from_throughput(0.58e9, 2_000.0),
            CipherSuite::AesSw => CipherCost::from_throughput(0.25e9, 3_000.0),
            CipherSuite::ChaCha20Scalar => {
                CipherCost::from_throughput(CHACHA20_SCALAR_BPS, 2_000.0)
            }
            CipherSuite::ChaCha20Wide => CipherCost::from_throughput(CHACHA20_WIDE_BPS, 2_000.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_costs_nothing() {
        assert_eq!(CipherCost::FREE.op_ns(1 << 30), 0.0);
        assert!(CipherCost::FREE.throughput_bps().is_infinite());
    }

    #[test]
    fn throughput_round_trips() {
        let c = CipherCost::from_throughput(1e9, 0.0);
        assert!((c.throughput_bps() - 1e9).abs() < 1.0);
        assert!((c.op_ns(1_000_000) - 1e6).abs() < 1.0);
    }

    #[test]
    fn per_op_overhead_dominates_small_ops() {
        let c = CipherCost::from_throughput(1e9, 1000.0);
        assert!((c.op_ns(1) - 1001.0).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "throughput must be positive")]
    fn zero_throughput_rejected() {
        CipherCost::from_throughput(0.0, 0.0);
    }

    #[test]
    fn suite_ordering_hw_faster_than_sw() {
        let hw = CipherSuite::AesNi.default_cost();
        let sw = CipherSuite::AesSw.default_cost();
        assert!(hw.throughput_bps() > 2.0 * sw.throughput_bps());
        assert_eq!(CipherSuite::None.default_cost(), CipherCost::FREE);
    }

    #[test]
    fn wide_chacha_suite_reflects_measured_speedup() {
        let scalar = CipherSuite::ChaCha20Scalar.default_cost();
        let wide = CipherSuite::ChaCha20Wide.default_cost();
        // The recalibrated model must carry the ≥2.5× kernel speedup into
        // the simulator, with identical per-op overhead so only the bulk
        // term differs.
        assert!(wide.throughput_bps() >= 2.5 * scalar.throughput_bps());
        assert_eq!(wide.per_op_ns, scalar.per_op_ns);
    }
}
