//! Smoke test for the hot-path micro-bench: the kernels must keep their
//! speedups (generous margins — CI boxes are noisy), a continuous
//! attestation round must cost the same at any list length, a simulated
//! event must stay cheaper than on the executor loop it replaced, a boot's
//! reads must run as a read run and a request at a time, and the binary
//! must run end to end in `--quick` and `--smoke` modes.

use std::sync::Mutex;

use bolted_bench::hotpath::{self, Effort};

/// Serialises the tests in this file: the speedup assertions time short
/// interleaved batches, and on a small box a concurrent bench run can
/// land on one variant's batch and skew the ratio.
static CPU: Mutex<()> = Mutex::new(());

fn exclusive_cpu() -> std::sync::MutexGuard<'static, ()> {
    CPU.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn quick_run_reports_kernel_speedups() {
    let _cpu = exclusive_cpu();
    let records = hotpath::run(Effort::Quick);
    for bench in [
        "rsa_verify_2048",
        "sha256",
        "keygen_512",
        "rsa_sign_512",
        "attest_round_0",
        "attest_round_1k",
        "attest_round_10k",
        "attest_round_growth",
        "sim_event",
        "boot_reads",
    ] {
        assert_eq!(
            records.iter().filter(|r| r.bench == bench).count(),
            2,
            "{bench} needs baseline + optimised variants"
        );
    }
    // 2048-bit RSA verify on the fixed-width kernel against schoolbook
    // `modpow`: assert 3x so a loaded machine does not flake the suite.
    let verify = hotpath::speedup(&records, "rsa_verify_2048").expect("pair");
    assert!(verify >= 3.0, "rsa_verify_2048 speedup {verify:.2}x < 3x");
    // Single-stream SHA-256 must at least not regress. In debug builds
    // the comparison is meaningless (the library path is layered for
    // zero-copy streaming and relies on inlining the debug codegen
    // never does), so only check that it ran.
    let s = hotpath::speedup(&records, "sha256").expect("pair");
    let sha_floor = if cfg!(debug_assertions) { 0.2 } else { 0.8 };
    assert!(s >= sha_floor, "sha256 regressed: {s:.2}x < {sha_floor}x");
    // The fixed-width Miller–Rabin kernel runs the prime search several
    // times as fast as the schoolbook path in release builds; 2x leaves
    // room for a loaded box, and the test profile (opt-level 1, debug
    // assertions) is held to a clear win only.
    let keygen_floor = if cfg!(debug_assertions) { 1.5 } else { 2.0 };
    let keygen = hotpath::speedup(&records, "keygen_512").expect("pair");
    assert!(
        keygen >= keygen_floor,
        "keygen_512 speedup {keygen:.2}x < {keygen_floor}x"
    );
    // Fixed-width CRT signing runs several times as fast as schoolbook
    // CRT in release builds and in the test profile (opt-level 1, debug
    // assertions); the floors leave room for a loaded box.
    let sign_floor = if cfg!(debug_assertions) { 1.3 } else { 1.5 };
    let sign = hotpath::speedup(&records, "rsa_sign_512").expect("pair");
    assert!(
        sign >= sign_floor,
        "rsa_sign_512 speedup {sign:.2}x < {sign_floor}x"
    );
    // A round past a verified prefix of 10k IMA entries checks only the
    // new evidence: hundreds of times faster than replaying the lists
    // from zero, and within 2x of a round over an empty list.
    let attest = hotpath::speedup(&records, "attest_round_10k").expect("pair");
    assert!(
        attest >= 20.0,
        "attest_round_10k speedup {attest:.1}x < 20x"
    );
    let growth = hotpath::speedup(&records, "attest_round_growth").expect("pair");
    assert!(
        growth <= 2.0,
        "an incremental round at 10k entries costs {growth:.2}x an empty-list round"
    );
    // A simulated event on the task slab against the copy of the loop
    // it replaced: about 3x in release builds; 1.3x leaves room for a
    // loaded box and the test profile.
    let event = hotpath::speedup(&records, "sim_event").expect("pair");
    assert!(event >= 1.3, "sim_event speedup {event:.2}x < 1.3x");
}

#[test]
fn smoke_effort_runs_every_bench() {
    // The verify gate runs this tier: it must stay cheap but still
    // produce both variants of every bench.
    let _cpu = exclusive_cpu();
    let records = hotpath::run(Effort::Smoke);
    let benches: std::collections::BTreeSet<_> = records.iter().map(|r| r.bench.as_str()).collect();
    assert_eq!(benches.len(), 10, "all ten benches present: {benches:?}");
    for r in &records {
        assert!(r.ns_per_op > 0.0, "{}:{} timed nothing", r.bench, r.variant);
    }
}

#[test]
fn hotpath_binary_emits_json_lines() {
    let _cpu = exclusive_cpu();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hotpath"))
        .arg("--smoke")
        .output()
        .expect("hotpath runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.lines().count() >= 10, "expected one line per record");
    for line in stdout.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object line: {line}"
        );
        assert!(line.contains("\"bench\":"));
    }
    assert!(stdout.contains("\"speedup\":"));
}
