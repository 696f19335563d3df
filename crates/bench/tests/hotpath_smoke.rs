//! Smoke test for the hot-path micro-bench: the kernels must keep their
//! speedups (generous margins — CI boxes are noisy) and the binary must
//! run end to end in `--quick` and `--smoke` modes.

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
        "modpow_2048_full_exp",
        "sha256",
        "sha256_mb",
        "sector_encrypt",
        "keygen_512",
        "rsa_sign_512",
    ] {
        assert_eq!(
            records.iter().filter(|r| r.bench == bench).count(),
            2,
            "{bench} needs baseline + optimised variants"
        );
    }
    // ISSUE 2 acceptance: >= 5x on 2048-bit RSA verify; assert 3x so a
    // loaded machine does not flake the suite.
    let verify = hotpath::speedup(&records, "rsa_verify_2048").expect("pair");
    assert!(verify >= 3.0, "rsa_verify_2048 speedup {verify:.2}x < 3x");
    let modpow = hotpath::speedup(&records, "modpow_2048_full_exp").expect("pair");
    assert!(modpow >= 3.0, "modpow speedup {modpow:.2}x < 3x");
    // Single-stream SHA-256 must at least not regress. In debug builds
    // the comparison is meaningless (the library path is layered for
    // zero-copy streaming and relies on inlining the debug codegen
    // never does), so only check that it ran.
    let s = hotpath::speedup(&records, "sha256").expect("pair");
    let sha_floor = if cfg!(debug_assertions) { 0.2 } else { 0.8 };
    assert!(s >= sha_floor, "sha256 regressed: {s:.2}x < {sha_floor}x");
    // ISSUE 7 acceptance: multi-buffer >= 3x, wide sectors >= 2.5x on
    // the recorded full (release) run. Assert looser floors here for
    // noisy boxes, and only no-regression in debug builds — the wide
    // kernels rely on autovectorisation that debug codegen never does.
    let (mb_floor, sect_floor) = if cfg!(debug_assertions) {
        (0.2, 0.2)
    } else {
        (2.0, 1.5)
    };
    let mb = hotpath::speedup(&records, "sha256_mb").expect("pair");
    assert!(mb >= mb_floor, "sha256_mb speedup {mb:.2}x < {mb_floor}x");
    let sect = hotpath::speedup(&records, "sector_encrypt").expect("pair");
    assert!(
        sect >= sect_floor,
        "sector_encrypt speedup {sect:.2}x < {sect_floor}x"
    );
    // The fixed-width Miller–Rabin kernel runs the prime search ~3x as
    // fast as the generic path in release builds; 2x leaves room for a
    // loaded box. The test profile (opt-level 1, debug assertions)
    // measures it near 2x, so only a clear win is asserted there.
    let keygen_floor = if cfg!(debug_assertions) { 1.5 } else { 2.0 };
    let keygen = hotpath::speedup(&records, "keygen_512").expect("pair");
    assert!(
        keygen >= keygen_floor,
        "keygen_512 speedup {keygen:.2}x < {keygen_floor}x"
    );
    // Fixed-width CRT signing runs ~3x as fast as the generic CRT path
    // in release builds and ~2.6x in the test profile (opt-level 1,
    // debug assertions); the floors leave room for a loaded box.
    let sign_floor = if cfg!(debug_assertions) { 1.3 } else { 1.5 };
    let sign = hotpath::speedup(&records, "rsa_sign_512").expect("pair");
    assert!(
        sign >= sign_floor,
        "rsa_sign_512 speedup {sign:.2}x < {sign_floor}x"
    );
}

#[test]
fn smoke_effort_runs_every_bench() {
    // The verify gate runs this tier: it must stay cheap but still
    // produce both variants of every bench.
    let _cpu = exclusive_cpu();
    let records = hotpath::run(Effort::Smoke);
    let benches: std::collections::BTreeSet<_> = records.iter().map(|r| r.bench.as_str()).collect();
    assert_eq!(benches.len(), 7, "all seven benches present: {benches:?}");
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
