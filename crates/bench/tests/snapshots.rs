//! Byte-identity gates for the deterministic harnesses.
//!
//! Every figure and table binary below must print exactly its committed
//! `results/<name>.txt`, and every `--smoke` gate must reproduce the run
//! digest pinned in `results/digests.txt`, whose lines read
//! `<binary> <JSON key in its stdout> <64-hex digest>`. There is no bless
//! switch: an intended change reruns the binary, updates the file by
//! hand and says why in the change log.
//!
//! The `phases` binary is not run, because it writes
//! `results/metrics_phases.json`. Both of its outputs are pinned without
//! it: the library's `charlie_phase_breakdown()` must render
//! `to_json()` equal to that file and `to_text()` equal to
//! `results/phases.txt`, each byte for byte. `tab_tcb` (a line-count
//! census of the working tree) is not pinned.

use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read_result(file: &str) -> String {
    let path = workspace_root().join("results").join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Stdout of `bin args`, which must exit successfully.
fn stdout_of(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .current_dir(workspace_root())
        .output()
        .unwrap_or_else(|e| panic!("{bin}: {e}"));
    assert!(out.status.success(), "{bin} {args:?}: {}", out.status);
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// `bin`'s stdout must equal `results/<name>.txt` byte for byte.
fn assert_matches_snapshot(name: &str, bin: &str) {
    assert_text_matches(&format!("{name}.txt"), &stdout_of(bin, &[]));
}

/// `got` must equal `results/<file>` byte for byte; a mismatch reports
/// the first line that differs.
fn assert_text_matches(file: &str, got: &str) {
    let want = read_result(file);
    if got == want {
        return;
    }
    let got_lines: Vec<&str> = got.split('\n').collect();
    let want_lines: Vec<&str> = want.split('\n').collect();
    let line = (0..)
        .find(|&i| got_lines.get(i) != want_lines.get(i))
        .expect("unequal texts differ in some line");
    panic!(
        "output differs from results/{file} at line {}\n  got:  {:?}\n  want: {:?}",
        line + 1,
        got_lines.get(line),
        want_lines.get(line)
    );
}

/// The pinned gates, parsed strictly: every line of `results/digests.txt`
/// is `<binary> <key> <64 lowercase hex>`.
fn pinned_digests() -> Vec<(String, String, String)> {
    read_result("digests.txt")
        .split_terminator('\n')
        .map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let [bin, key, digest] = fields[..] else {
                panic!("malformed digests.txt line {line:?}");
            };
            assert!(
                digest.len() == 64
                    && digest
                        .bytes()
                        .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)),
                "digest of {bin} is not 64 lowercase hex: {digest:?}"
            );
            (bin.into(), key.into(), digest.into())
        })
        .collect()
}

/// `bin --smoke` must succeed and print `"<key>": "<digest>"` with the
/// digest pinned for `name`.
fn assert_digest(name: &str, bin: &str) {
    let pins = pinned_digests();
    let (_, key, want) = pins
        .iter()
        .find(|(b, _, _)| b == name)
        .unwrap_or_else(|| panic!("results/digests.txt pins no digest for {name}"));
    let stdout = stdout_of(bin, &["--smoke"]);
    let prefix = format!("\"{key}\": \"");
    let got = stdout
        .lines()
        .find_map(|l| l.trim_start().strip_prefix(&prefix))
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_else(|| panic!("{name} --smoke printed no {key:?}"));
    assert_eq!(got, want, "{name} --smoke digest moved");
}

#[test]
fn digests_file_pins_exactly_the_three_gates() {
    let names: Vec<String> = pinned_digests().into_iter().map(|(b, _, _)| b).collect();
    assert_eq!(names, ["fleet", "scenarios", "reconcile"]);
}

#[test]
fn fleet_smoke_digest() {
    assert_digest("fleet", env!("CARGO_BIN_EXE_fleet"));
}

#[test]
fn scenarios_smoke_digest() {
    assert_digest("scenarios", env!("CARGO_BIN_EXE_scenarios"));
}

#[test]
fn reconcile_smoke_digest() {
    assert_digest("reconcile", env!("CARGO_BIN_EXE_reconcile"));
}

#[test]
fn fig3a_snapshot() {
    assert_matches_snapshot("fig3a", env!("CARGO_BIN_EXE_fig3a"));
}

#[test]
fn fig3b_snapshot() {
    assert_matches_snapshot("fig3b", env!("CARGO_BIN_EXE_fig3b"));
}

#[test]
fn fig3c_snapshot() {
    assert_matches_snapshot("fig3c", env!("CARGO_BIN_EXE_fig3c"));
}

#[test]
fn fig4_snapshot() {
    assert_matches_snapshot("fig4", env!("CARGO_BIN_EXE_fig4"));
}

#[test]
fn fig5_snapshot() {
    assert_matches_snapshot("fig5", env!("CARGO_BIN_EXE_fig5"));
}

#[test]
fn fig6_snapshot() {
    assert_matches_snapshot("fig6", env!("CARGO_BIN_EXE_fig6"));
}

#[test]
fn fig7_snapshot() {
    assert_matches_snapshot("fig7", env!("CARGO_BIN_EXE_fig7"));
}

#[test]
fn tab_revocation_snapshot() {
    assert_matches_snapshot("tab_revocation", env!("CARGO_BIN_EXE_tab_revocation"));
}

#[test]
fn ablations_snapshot() {
    assert_matches_snapshot("ablations", env!("CARGO_BIN_EXE_ablations"));
}

#[test]
fn metrics_phases_json_snapshot() {
    let json = bolted_bench::phases::charlie_phase_breakdown().to_json();
    assert_text_matches("metrics_phases.json", &json);
}

#[test]
fn phases_text_snapshot() {
    let text = bolted_bench::phases::charlie_phase_breakdown().to_text();
    assert_text_matches("phases.txt", &text);
}
