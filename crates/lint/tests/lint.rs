//! Fixture tests: every rule must fire on a seeded violation (with the
//! right rule id and line) and stay silent on the adjacent idiomatic
//! form. The last test pins the real workspace tree to zero findings.

use bolted_lint::{Config, Finding, SecretsManifest, Workspace};

const MANIFEST: &str = r#"
[[secret]]
type = "KeyShare"
defined_in = "crates/keylime/src/payload.rs"

[[secret]]
field = "TenantPayload.luks_passphrase"
defined_in = "crates/keylime/src/payload.rs"

[expose]
allow = ["crates/keylime/src/payload.rs"]
"#;

fn analyze(files: &[(&str, &str)]) -> Vec<Finding> {
    let mut ws = Workspace::new();
    for (path, text) in files {
        ws.add_file(path, text);
    }
    let mut config = Config::bolted();
    config.secrets = SecretsManifest::parse(MANIFEST).expect("fixture manifest parses");
    ws.analyze(&config)
}

fn hits(findings: &[Finding], rule: &str) -> Vec<(String, u32)> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.path.clone(), f.line))
        .collect()
}

// ---------------------------------------------------------------- L1

#[test]
fn l1_panic_fires_on_each_panicking_form() {
    let src = "\
fn f(x: Option<u8>) -> u8 {
    let a = x.unwrap();
    let b = x.expect(\"msg\");
    panic!(\"boom\");
    todo!();
    unimplemented!();
    unreachable!();
}
";
    let findings = analyze(&[("crates/core/src/x.rs", src)]);
    assert_eq!(
        hits(&findings, "L1-panic"),
        vec![
            ("crates/core/src/x.rs".to_string(), 2),
            ("crates/core/src/x.rs".to_string(), 3),
            ("crates/core/src/x.rs".to_string(), 4),
            ("crates/core/src/x.rs".to_string(), 5),
            ("crates/core/src/x.rs".to_string(), 6),
            ("crates/core/src/x.rs".to_string(), 7),
        ]
    );
}

#[test]
fn l1_is_scoped_to_control_plane_and_skips_tests() {
    let src = "\
fn f(x: Option<u8>) -> u8 { x.unwrap() }
";
    // Non-control-plane crate: no findings.
    assert!(analyze(&[("crates/workloads/src/x.rs", src)]).is_empty());
    // Test-gated code in a control-plane crate: no findings.
    let test_src = "\
fn safe() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        None::<u8>.unwrap();
        panic!(\"fine in tests\");
    }
}
";
    assert!(analyze(&[("crates/core/src/x.rs", test_src)]).is_empty());
    // cfg(not(test)) is production code and IS linted.
    let not_test = "\
#[cfg(not(test))]
fn f(x: Option<u8>) -> u8 { x.unwrap() }
";
    let findings = analyze(&[("crates/core/src/y.rs", not_test)]);
    assert_eq!(
        hits(&findings, "L1-panic"),
        vec![("crates/core/src/y.rs".to_string(), 2)]
    );
}

#[test]
fn l1_panic_ignores_non_panicking_lookalikes() {
    let src = "\
fn f(x: Option<u8>) -> u8 {
    // unwrap mentioned in a comment is fine
    let s = \"docs say .unwrap() here\";
    let a = x.unwrap_or(0);
    let b = x.unwrap_or_else(|| 1);
    let c = x.unwrap_or_default();
    a + b + c + s.len() as u8
}
";
    assert!(analyze(&[("crates/core/src/x.rs", src)]).is_empty());
}

#[test]
fn l1_index_fires_on_bare_indexing_only() {
    let src = "\
fn f(v: &[u8], i: usize) -> u8 {
    let bad = v[i];
    let arr: [u8; 2] = [1, 2];
    let ve = vec![1u8];
    let ok = v.get(i).copied().unwrap_or(0);
    bad + arr.len() as u8 + ve.len() as u8 + ok
}
";
    let findings = analyze(&[("crates/core/src/x.rs", src)]);
    assert_eq!(
        hits(&findings, "L1-index"),
        vec![("crates/core/src/x.rs".to_string(), 2)]
    );
}

#[test]
fn l1_allow_directive_suppresses_line_and_statement() {
    let src = "\
fn f(v: &[u8]) -> u8 {
    // lint: allow(L1-index: caller guarantees non-empty)
    let a = v[0];
    let b = v[1]; // lint: allow(L1-index: same invariant)
    // lint: allow(L1-panic: spans a continuation —
    // the head line below does not end the statement)
    let c = longer_chain(v)
        .expect(\"covered\");
    let d = v[2];
    a + b + c + d
}
";
    let findings = analyze(&[("crates/core/src/x.rs", src)]);
    assert_eq!(
        hits(&findings, "L1-index"),
        vec![("crates/core/src/x.rs".to_string(), 9)]
    );
    assert!(hits(&findings, "L1-panic").is_empty());
}

#[test]
fn l1_allow_file_suppresses_whole_file_one_rule_only() {
    let src = "\
// lint: allow-file(L1-index: ids are dense and module-minted)
fn f(v: &[u8]) -> u8 {
    let a = v[0];
    let b = v.first().copied().unwrap();
    a + b
}
";
    let findings = analyze(&[("crates/core/src/x.rs", src)]);
    assert!(hits(&findings, "L1-index").is_empty());
    assert_eq!(
        hits(&findings, "L1-panic"),
        vec![("crates/core/src/x.rs".to_string(), 4)]
    );
}

// ---------------------------------------------------------------- L0

#[test]
fn l0_flags_malformed_directives() {
    let src = "\
// lint: allow(L1-panic)
// lint: frobnicate the invariants
// lint: op()
// lint: allow(L1-index: this one is fine)
fn f() {}
";
    let findings = analyze(&[("crates/core/src/x.rs", src)]);
    assert_eq!(
        hits(&findings, "L0-directive"),
        vec![
            ("crates/core/src/x.rs".to_string(), 1),
            ("crates/core/src/x.rs".to_string(), 2),
            ("crates/core/src/x.rs".to_string(), 3),
        ]
    );
}

// ---------------------------------------------------------------- L2

#[test]
fn l2_derive_fires_on_secret_type_derives_and_manual_impls() {
    let src = "\
#[derive(Debug, Clone)]
pub struct KeyShare([u8; 32]);

impl std::fmt::Display for KeyShare {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, \"nope\")
    }
}
";
    let findings = analyze(&[("crates/keylime/src/payload.rs", src)]);
    assert_eq!(
        hits(&findings, "L2-derive"),
        vec![
            ("crates/keylime/src/payload.rs".to_string(), 1),
            ("crates/keylime/src/payload.rs".to_string(), 4),
        ]
    );
}

#[test]
fn l2_derive_container_may_impl_manually_but_not_derive() {
    let derived = "\
#[derive(Debug)]
pub struct TenantPayload {
    pub luks_passphrase: Vec<u8>,
}
";
    let findings = analyze(&[("crates/keylime/src/payload.rs", derived)]);
    assert_eq!(
        hits(&findings, "L2-derive"),
        vec![("crates/keylime/src/payload.rs".to_string(), 1)]
    );

    // A manual impl that redacts is the sanctioned pattern. The string
    // literal \"luks_passphrase\" is a label, not a value, and passes.
    let manual = "\
pub struct TenantPayload {
    pub luks_passphrase: Vec<u8>,
}
impl std::fmt::Debug for TenantPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(\"TenantPayload\")
            .field(\"luks_passphrase\", &\"<redacted>\")
            .finish()
    }
}
";
    assert!(analyze(&[("crates/keylime/src/payload.rs", manual)]).is_empty());
}

#[test]
fn l2_format_fires_on_macro_args_captures_and_labels() {
    let src = "\
fn leak(key_share: &[u8], luks_passphrase: &[u8], spans: &S) {
    let a = format!(\"{:?}\", key_share);
    println!(\"pass is {luks_passphrase}\");
    spans.attr(id, \"k\", luks_passphrase);
}
";
    let findings = analyze(&[("crates/core/src/x.rs", src)]);
    assert_eq!(
        hits(&findings, "L2-format"),
        vec![
            ("crates/core/src/x.rs".to_string(), 2),
            ("crates/core/src/x.rs".to_string(), 3),
            ("crates/core/src/x.rs".to_string(), 4),
        ]
    );
}

#[test]
fn l2_format_allows_labels_and_derived_lengths() {
    let src = "\
fn fine(payload: &P, metrics: &M) {
    // identifier derived *from* the secret is out of scope by design
    let luks_pass_bytes = payload.len();
    println!(\"LUKS passphrase: {luks_pass_bytes} bytes\");
    // string literals are labels, not values
    metrics.inc(\"key_share\", &[(\"op\", \"seal\")]);
    // {{escaped}} braces are not captures
    println!(\"{{luks_passphrase}} is literal\");
}
";
    assert!(analyze(&[("crates/core/src/x.rs", src)]).is_empty());
}

#[test]
fn l2_expose_only_in_allowlisted_files() {
    let src = "\
fn peek(s: &Secret<Vec<u8>>) -> usize {
    s.expose().len()
}
";
    let findings = analyze(&[("crates/core/src/x.rs", src)]);
    assert_eq!(
        hits(&findings, "L2-expose"),
        vec![("crates/core/src/x.rs".to_string(), 2)]
    );
    // Allowlisted file: fine.
    assert!(analyze(&[("crates/keylime/src/payload.rs", src)]).is_empty());
    // Test code: fine anywhere.
    let in_test = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() { s.expose(); }
}
";
    assert!(analyze(&[("crates/core/src/x.rs", in_test)]).is_empty());
}

#[test]
fn l2_manifest_flags_entries_their_file_does_not_define() {
    let manifest = SecretsManifest::parse(
        r#"
[[secret]]
type = "FixedMont"
defined_in = "crates/crypto/src/prime.rs"

[[secret]]
type = "FixedMont"
defined_in = "crates/crypto/src/montgomery.rs"

[[secret]]
type = "KeyShare"
defined_in = "crates/keylime/src/gone.rs"

[[secret]]
field = "TenantPayload.luks_passphrase"
defined_in = "crates/keylime/src/payload.rs"

[[secret]]
field = "TenantPayload.passphrase"
defined_in = "crates/keylime/src/payload.rs"

[[secret]]
field = "KeyShare.share"
defined_in = "crates/keylime/src/share.rs"
"#,
    )
    .expect("fixture manifest parses");
    let mut ws = Workspace::new();
    // After a move: prime.rs only uses the type; a test-only definition
    // does not count either.
    ws.add_file(
        "crates/crypto/src/prime.rs",
        "\
use crate::montgomery::FixedMont;
fn f(ctx: &FixedMont<4>) {}
#[cfg(test)]
mod tests {
    struct FixedMont;
}
",
    );
    ws.add_file(
        "crates/crypto/src/montgomery.rs",
        "pub(crate) struct FixedMont<const N: usize> { n: [u64; N] }\n",
    );
    ws.add_file(
        "crates/keylime/src/payload.rs",
        "\
pub struct TenantPayload {
    pub luks_passphrase: Secret<Vec<u8>>,
    pub kind: std::string::String,
}
fn passphrase() {}
",
    );
    // A tuple struct has no named fields, even when a later item does.
    ws.add_file(
        "crates/keylime/src/share.rs",
        "\
pub struct KeyShare(Vec<u8>);
pub struct Other { pub share: u8 }
",
    );
    let findings = ws.check_manifest(&manifest);
    assert_eq!(
        hits(&findings, "L2-manifest"),
        vec![
            ("secrets.toml".to_string(), 3),
            ("secrets.toml".to_string(), 11),
            ("secrets.toml".to_string(), 19),
            ("secrets.toml".to_string(), 23),
        ]
    );
    assert!(findings[1].message.contains("not a scanned source file"));
}

// ---------------------------------------------------------------- L3

const FIXTURE_SERVICES: &str = "\
pub trait IsolationService {
    fn allocate_node(&self) -> Result<(), E>;
    fn scrub(&self) -> Result<(), E>;
    // lint: op(verifier.quote)
    fn attest_once(&self) -> Result<(), E>;
    // lint: allow(L3: pure in-memory accessor, nothing to gate)
    fn node_name(&self) -> Result<String, E>;
    fn orphaned(&self) -> Result<(), E>;
}
";

const FIXTURE_FAULTS: &str = "\
pub mod ops {
    pub const VERIFIER_QUOTE: &str = \"verifier.quote\";
    pub const HIL_SCRUB: &str = \"hil.scrub\";
}
";

const FIXTURE_IMPL: &str = "\
fn run(gate: &OpGate) {
    gate.count(\"hil_ops\", \"op\", \"allocate_node\");
}
";

#[test]
fn l3_flags_only_the_untapped_method() {
    let findings = analyze(&[
        ("crates/core/src/services.rs", FIXTURE_SERVICES),
        ("crates/sim/src/fault.rs", FIXTURE_FAULTS),
        ("crates/hil/src/lib.rs", FIXTURE_IMPL),
    ]);
    // allocate_node: exact match in a .count( literal.
    // scrub: dot-suffix match against \"hil.scrub\" from the ops consts.
    // attest_once: op(verifier.quote) resolves against the consts.
    // node_name: allow(L3).
    // orphaned: nothing -> finding.
    assert_eq!(
        hits(&findings, "L3-uninstrumented"),
        vec![("crates/core/src/services.rs".to_string(), 8)]
    );
    assert!(hits(&findings, "L3-unknown-op").is_empty());
}

#[test]
fn l3_unknown_op_flags_bogus_directive() {
    let services = "\
pub trait T {
    // lint: op(no.such.op)
    fn phantom(&self) -> Result<(), E>;
}
";
    let findings = analyze(&[
        ("crates/core/src/services.rs", services),
        ("crates/sim/src/fault.rs", FIXTURE_FAULTS),
    ]);
    assert_eq!(
        hits(&findings, "L3-unknown-op"),
        vec![("crates/core/src/services.rs".to_string(), 2)]
    );
    assert!(hits(&findings, "L3-uninstrumented").is_empty());
}

// ---------------------------------------------------------------- L4

#[test]
fn l4_flags_discarded_and_unused_span_handles() {
    let src = "\
fn f(spans: &Spans) {
    spans.begin(\"phase\", \"boot\", \"m620-01\");
    let id = spans.begin(\"phase\", \"boot\", \"m620-02\");
    let _ = spans.begin(\"phase\", \"boot\", \"m620-03\");
}
";
    let findings = analyze(&[("crates/core/src/x.rs", src)]);
    assert_eq!(
        hits(&findings, "L4-span"),
        vec![
            ("crates/core/src/x.rs".to_string(), 2),
            ("crates/core/src/x.rs".to_string(), 3),
            ("crates/core/src/x.rs".to_string(), 4),
        ]
    );
}

#[test]
fn l4_passes_closed_guarded_and_inline_uses() {
    let src = "\
fn f(spans: &Spans, sim: &Sim) -> SpanId {
    let id = spans.begin(\"phase\", \"boot\", \"m620-01\");
    spans.end(id, sim.now());
    let _g = spans.guard(sim, \"phase\", \"attest\", \"m620-01\");
    let ph = env.open_phase(\"kexec\");
    env.close_phase(ph);
    spans.begin(\"phase\", \"ret\", \"m620-02\")
}
";
    assert!(analyze(&[("crates/core/src/x.rs", src)]).is_empty());
}

// ------------------------------------------------------- real tree

#[test]
fn the_workspace_tree_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let ws = Workspace::load(&root).expect("workspace tree loads");
    assert!(
        ws.file_count() > 50,
        "expected the full tree, got {}",
        ws.file_count()
    );
    let mut config = Config::bolted();
    let manifest = std::fs::read_to_string(root.join("secrets.toml")).expect("secrets.toml");
    config.secrets = SecretsManifest::parse(&manifest).expect("manifest parses");
    let mut findings = ws.analyze(&config);
    findings.extend(ws.check_manifest(&config.secrets));
    assert!(
        findings.is_empty(),
        "bolted-lint found violations in the tree:\n{}",
        findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
