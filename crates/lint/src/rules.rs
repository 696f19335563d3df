//! The rule passes.
//!
//! | id                 | invariant                                                        |
//! |--------------------|------------------------------------------------------------------|
//! | `L0-directive`     | every `// lint:` comment parses and carries a reason             |
//! | `L1-panic`         | no `unwrap`/`expect`/`panic!`-family in control-plane code       |
//! | `L1-index`         | no bare slice/array indexing in control-plane code               |
//! | `L2-derive`        | secret types never derive/impl `Debug`/`Display`/serialization   |
//! | `L2-format`        | secret identifiers stay out of format macros and label call sites|
//! | `L2-expose`        | `.expose(` only in manifest-allowlisted files                    |
//! | `L2-manifest`      | every `secrets.toml` entry's `defined_in` file defines its item  |
//! | `L3-uninstrumented`| every service-trait method routes through a gated/counted op     |
//! | `L3-unknown-op`    | `// lint: op(name)` names a registered op                        |
//! | `L4-span`          | opened spans are closed, RAII-guarded, or their handle is used   |
//!
//! Suppression (`// lint: allow(...)`) is applied by the caller in
//! [`crate::Workspace::analyze`]; the passes here report raw hits.
//! `L2-manifest` checks the manifest rather than a source file, so it
//! runs from [`crate::Workspace::check_manifest`] instead.

use crate::config::{Config, SecretsManifest};
use crate::lexer::Tok;
use crate::report::Finding;
use crate::source::{matching, DirectiveKind, SourceFile};

/// Runs every pass over the prepared files. Findings are raw — the
/// caller applies directive suppression and sorting.
pub fn run_all(files: &[SourceFile], config: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        rule_l0(f, &mut out);
        if config.in_control_plane(&f.path) {
            rule_l1(f, &mut out);
        }
        rule_l2_derive(f, config, &mut out);
        rule_l2_format(f, config, &mut out);
        rule_l2_expose(f, config, &mut out);
        rule_l4(f, &mut out);
    }
    rule_l3(files, config, &mut out);
    out
}

/// L0: malformed directives.
fn rule_l0(f: &SourceFile, out: &mut Vec<Finding>) {
    for d in &f.directives {
        if let DirectiveKind::Malformed { why } = &d.kind {
            out.push(Finding::new(
                "L0-directive",
                &f.path,
                d.line,
                format!("malformed lint directive: {why}"),
            ));
        }
    }
}

const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type", "union",
    "unsafe", "use", "where", "while",
];

/// L1: panic-free control plane — no `unwrap`/`expect`, no panicking
/// macros, no bare indexing.
fn rule_l1(f: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &f.tokens;
    for i in 0..toks.len() {
        if f.test_mask[i] {
            continue;
        }
        // `.unwrap(` / `.expect(`
        if toks[i].is_punct('.') {
            if let (Some(m), Some(open)) = (toks.get(i + 1), toks.get(i + 2)) {
                if open.is_punct('(') && !f.test_mask[i + 1] {
                    if let Some(name @ ("unwrap" | "expect")) = m.ident() {
                        out.push(Finding::new(
                            "L1-panic",
                            &f.path,
                            m.line,
                            format!("`.{name}()` in control-plane code; return a typed error or annotate with `// lint: allow(L1-panic: why)`"),
                        ));
                    }
                }
            }
        }
        // `panic!` / `todo!` / `unimplemented!` / `unreachable!`
        if let Some(name @ ("panic" | "todo" | "unimplemented" | "unreachable")) = toks[i].ident() {
            if toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
                out.push(Finding::new(
                    "L1-panic",
                    &f.path,
                    toks[i].line,
                    format!("`{name}!` in control-plane code"),
                ));
            }
        }
        // Bare indexing: `expr[` where expr ends in a non-keyword
        // identifier, `)` or `]`. Attributes (`#[`), macros (`vec![`),
        // array literals and slice types all have other predecessors.
        if toks[i].is_punct('[') && i > 0 && !f.test_mask[i - 1] {
            let prev = &toks[i - 1];
            let indexable = match &prev.tok {
                Tok::Ident(s) => !KEYWORDS.contains(&s.as_str()),
                Tok::Punct(')') | Tok::Punct(']') => true,
                _ => false,
            };
            if indexable {
                out.push(Finding::new(
                    "L1-index",
                    &f.path,
                    toks[i].line,
                    "bare indexing in control-plane code; use `.get()` or annotate with `// lint: allow(L1-index: why)`".to_string(),
                ));
            }
        }
    }
}

const FORMAT_MACROS: &[&str] = &[
    "format",
    "print",
    "println",
    "eprint",
    "eprintln",
    "write",
    "writeln",
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "todo",
    "unimplemented",
    "unreachable",
];

/// Label/attribute call sites whose arguments end up in observability
/// output (span attributes, metric labels).
const LABEL_METHODS: &[&str] = &["attr", "inc", "count", "observe", "gauge", "set_gauge"];

/// Traits a secret type must never implement or derive.
const LEAKY_TRAITS: &[&str] = &["Debug", "Display", "Serialize", "Deserialize"];

/// L2a: secret types must not derive or manually implement
/// formatting/serialization traits; types containing secret fields
/// must not *derive* them (a manual, redacting impl is fine).
fn rule_l2_derive(f: &SourceFile, config: &Config, out: &mut Vec<Finding>) {
    let secret_types: Vec<&str> = config
        .secrets
        .types
        .iter()
        .map(|t| t.name.as_str())
        .collect();
    let container_types: Vec<&str> = config
        .secrets
        .fields
        .iter()
        .map(|t| t.type_name.as_str())
        .collect();
    if secret_types.is_empty() && container_types.is_empty() {
        return;
    }
    let toks = &f.tokens;
    let mut i = 0;
    while i < toks.len() {
        if f.test_mask[i] {
            i += 1;
            continue;
        }
        // `#[derive(...)]` followed by `struct`/`enum` Name
        if toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("derive"))
        {
            let attr_line = toks[i].line;
            let Some(close) = matching(toks, i + 1, '[', ']') else {
                break;
            };
            let derived: Vec<String> = toks[i + 3..close]
                .iter()
                .filter_map(|t| t.ident().map(|s| s.to_string()))
                .collect();
            // Find the item name: skip further attributes and visibility.
            let mut j = close + 1;
            while j + 1 < toks.len() && toks[j].is_punct('#') && toks[j + 1].is_punct('[') {
                j = matching(toks, j + 1, '[', ']').map_or(toks.len(), |c| c + 1);
            }
            let mut name = None;
            while j < toks.len() {
                match toks[j].ident() {
                    Some("struct") | Some("enum") => {
                        name = toks.get(j + 1).and_then(|t| t.ident());
                        break;
                    }
                    Some("pub") | Some("crate") | None => j += 1,
                    Some(_) => break, // some other item kind (fn, impl, …)
                }
            }
            if let Some(name) = name {
                for d in derived
                    .iter()
                    .filter(|d| LEAKY_TRAITS.contains(&d.as_str()))
                {
                    if secret_types.contains(&name) {
                        out.push(Finding::new(
                            "L2-derive",
                            &f.path,
                            attr_line,
                            format!("secret type `{name}` derives `{d}`"),
                        ));
                    } else if container_types.contains(&name) {
                        out.push(Finding::new(
                            "L2-derive",
                            &f.path,
                            attr_line,
                            format!("`{name}` holds a secret field but derives `{d}`; implement it manually and redact"),
                        ));
                    }
                }
            }
            i = close + 1;
            continue;
        }
        // `impl [path::]Trait for SecretType`
        if toks[i].is_ident("impl") {
            // Tokens up to the body `{` (or `;`) hold `Trait for Type`.
            let mut j = i + 1;
            let mut for_at = None;
            while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                if toks[j].is_ident("for") {
                    for_at = Some(j);
                }
                j += 1;
            }
            if let Some(fa) = for_at {
                let trait_name = toks[i + 1..fa].iter().rev().find_map(|t| t.ident());
                let type_name = toks[fa + 1..j].iter().find_map(|t| t.ident());
                if let (Some(tr), Some(ty)) = (trait_name, type_name) {
                    if LEAKY_TRAITS.contains(&tr) && secret_types.contains(&ty) {
                        out.push(Finding::new(
                            "L2-derive",
                            &f.path,
                            toks[i].line,
                            format!("manual `impl {tr} for {ty}` on a secret type"),
                        ));
                    }
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
}

/// L2-manifest: every `secrets.toml` entry names an item that its
/// `defined_in` file defines outside test code — a secret type, or a
/// struct with the secret field. Findings point at the entry's line in
/// `secrets.toml`. No other rule reads `defined_in`, so without this
/// check a type that moves leaves a stale path behind silently.
pub fn rule_l2_manifest(files: &[SourceFile], manifest: &SecretsManifest) -> Vec<Finding> {
    let types = manifest
        .types
        .iter()
        .map(|t| (t.line, t.defined_in.as_str(), t.name.as_str(), None));
    let fields = manifest.fields.iter().map(|f| {
        let field = Some(f.field.as_str());
        (f.line, f.defined_in.as_str(), f.type_name.as_str(), field)
    });
    let mut out = Vec::new();
    for (line, defined_in, ty, field) in types.chain(fields) {
        let item = match field {
            Some(field) => format!("`{ty}.{field}`"),
            None => format!("`{ty}`"),
        };
        let message = match files.iter().find(|f| f.path == defined_in) {
            None => {
                format!("secret {item}: defined_in `{defined_in}` is not a scanned source file")
            }
            Some(f) if !defines(f, ty, field) => {
                format!("secret {item} is not defined in `{defined_in}`")
            }
            Some(_) => continue,
        };
        out.push(Finding::new("L2-manifest", "secrets.toml", line, message));
    }
    out
}

/// True when `f` defines the item `ty` outside test code — with `field`,
/// a struct `ty` whose braced body declares `field: …`.
fn defines(f: &SourceFile, ty: &str, field: Option<&str>) -> bool {
    let toks = &f.tokens;
    (1..toks.len()).any(|i| {
        if f.test_mask[i] || !toks[i].is_ident(ty) {
            return false;
        }
        let Some(field) = field else {
            return toks[i - 1]
                .ident()
                .is_some_and(|kw| ["struct", "enum", "union", "type", "trait"].contains(&kw));
        };
        if !toks[i - 1].is_ident("struct") {
            return false;
        }
        // The body is the first `{` before any `;`: unit and tuple
        // structs have no named fields.
        let Some(open) = (i..toks.len()).find(|&k| toks[k].is_punct('{') || toks[k].is_punct(';'))
        else {
            return false;
        };
        if !toks[open].is_punct('{') {
            return false;
        }
        let Some(close) = matching(toks, open, '{', '}') else {
            return false;
        };
        toks[open..close]
            .windows(3)
            .any(|w| w[0].is_ident(field) && w[1].is_punct(':') && !w[2].is_punct(':'))
    })
}

/// L2b: secret identifiers must not flow into format macros (as
/// arguments or inline `{capture}`s) or span-attribute/metric-label
/// call sites. String literals are labels, not values, and pass.
fn rule_l2_format(f: &SourceFile, config: &Config, out: &mut Vec<Finding>) {
    let tainted = config.secrets.tainted_idents();
    if tainted.is_empty() {
        return;
    }
    let toks = &f.tokens;
    for i in 0..toks.len() {
        if f.test_mask[i] {
            continue;
        }
        // Format-family macro invocation.
        let is_macro = toks[i].ident().is_some_and(|n| FORMAT_MACROS.contains(&n))
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && toks
                .get(i + 2)
                .is_some_and(|t| t.is_punct('(') || t.is_punct('['));
        // Label/attribute method call.
        let is_label_call = i > 0
            && toks[i - 1].is_punct('.')
            && toks[i].ident().is_some_and(|n| LABEL_METHODS.contains(&n))
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('));
        if !is_macro && !is_label_call {
            continue;
        }
        let open = if is_macro { i + 2 } else { i + 1 };
        let (oc, cc) = if toks[open].is_punct('[') {
            ('[', ']')
        } else {
            ('(', ')')
        };
        let Some(close) = matching(toks, open, oc, cc) else {
            continue;
        };
        let site = if is_macro {
            format!("`{}!`", toks[i].ident().unwrap_or_default())
        } else {
            format!("`.{}(`", toks[i].ident().unwrap_or_default())
        };
        for t in &toks[open + 1..close] {
            match &t.tok {
                Tok::Ident(s) if tainted.iter().any(|x| x == s) => {
                    out.push(Finding::new(
                        "L2-format",
                        &f.path,
                        t.line,
                        format!("secret identifier `{s}` reaches {site}"),
                    ));
                }
                Tok::Str(s) if is_macro => {
                    for cap in inline_captures(s) {
                        if tainted.contains(&cap) {
                            out.push(Finding::new(
                                "L2-format",
                                &f.path,
                                t.line,
                                format!("secret identifier `{cap}` captured inline by {site}"),
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

/// Identifiers captured inline by a format string: `{name}` /
/// `{name:spec}`, skipping `{{` escapes.
fn inline_captures(s: &str) -> Vec<String> {
    let b: Vec<char> = s.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i] == '{' {
            if i + 1 < b.len() && b[i + 1] == '{' {
                i += 2;
                continue;
            }
            let mut j = i + 1;
            let mut name = String::new();
            while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
                name.push(b[j]);
                j += 1;
            }
            if !name.is_empty() && j < b.len() && (b[j] == '}' || b[j] == ':' || b[j] == '.') {
                out.push(name);
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

/// L2c: `.expose(` only in files the manifest allowlists.
fn rule_l2_expose(f: &SourceFile, config: &Config, out: &mut Vec<Finding>) {
    if config.secrets.types.is_empty() && config.secrets.fields.is_empty() {
        return;
    }
    if config.secrets.expose_allow.contains(&f.path) {
        return;
    }
    let toks = &f.tokens;
    for i in 1..toks.len() {
        if f.test_mask[i] {
            continue;
        }
        if toks[i - 1].is_punct('.')
            && toks[i].is_ident("expose")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            out.push(Finding::new(
                "L2-expose",
                &f.path,
                toks[i].line,
                "`.expose(` outside the files allowlisted in secrets.toml".to_string(),
            ));
        }
    }
}

/// L3: every service-trait method must route through an instrumented op
/// — its name (exact or as an `x.name` dot-suffix) appears in the
/// fault/metrics op universe — or carry an `op(...)`/`allow(L3: ...)`
/// directive.
fn rule_l3(files: &[SourceFile], config: &Config, out: &mut Vec<Finding>) {
    let Some(services) = files.iter().find(|f| f.path == config.services_path) else {
        return;
    };
    let instrumented = instrumented_ops(files, config);

    for (method, line) in trait_methods(services) {
        let mut covered = instrumented
            .iter()
            .any(|s| *s == method || s.ends_with(&format!(".{method}")));
        let mut op_directive: Option<(&str, u32)> = None;
        for d in services.directives_above(line) {
            match &d.kind {
                DirectiveKind::Allow { rule } if "L3-uninstrumented".starts_with(rule.as_str()) => {
                    covered = true;
                }
                DirectiveKind::Op { name } => op_directive = Some((name, d.line)),
                _ => {}
            }
        }
        if let Some((name, dline)) = op_directive {
            if instrumented.iter().any(|s| s == name) {
                covered = true;
            } else {
                out.push(Finding::new(
                    "L3-unknown-op",
                    &services.path,
                    dline,
                    format!("op({name}) names an op that is never tapped, gated or counted"),
                ));
                continue;
            }
        }
        if !covered {
            out.push(Finding::new(
                "L3-uninstrumented",
                &services.path,
                line,
                format!("service-trait method `{method}` matches no instrumented op; tap it, or annotate with `// lint: op(name)` / `// lint: allow(L3: why)`"),
            ));
        }
    }
}

/// Methods declared inside `trait … { }` blocks, with their lines.
fn trait_methods(f: &SourceFile) -> Vec<(String, u32)> {
    let toks = &f.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if f.test_mask[i] || !toks[i].is_ident("trait") {
            i += 1;
            continue;
        }
        // Find the trait body.
        let mut j = i + 1;
        while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
            j += 1;
        }
        if j >= toks.len() || toks[j].is_punct(';') {
            i = j + 1;
            continue;
        }
        let end = matching(toks, j, '{', '}').unwrap_or(toks.len());
        let mut k = j + 1;
        while k < end {
            if toks[k].is_ident("fn") {
                if let Some(name) = toks.get(k + 1).and_then(|t| t.ident()) {
                    out.push((name.to_string(), toks[k].line));
                }
            }
            k += 1;
        }
        i = end + 1;
    }
    out
}

/// The instrumented-op universe: string literals inside
/// `.tap(`/`.pass(`/`.count(`/`.inc(`/`.call(`/`.gate(` argument lists
/// across the workspace, plus every `const X: &str = "…"` in the
/// fault-ops file.
fn instrumented_ops(files: &[SourceFile], config: &Config) -> Vec<String> {
    const SINKS: &[&str] = &["tap", "pass", "count", "inc", "call", "gate"];
    let mut out = Vec::new();
    for f in files {
        let toks = &f.tokens;
        for i in 1..toks.len() {
            if f.test_mask[i] {
                continue;
            }
            if toks[i - 1].is_punct('.')
                && toks[i].ident().is_some_and(|n| SINKS.contains(&n))
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            {
                if let Some(close) = matching(toks, i + 1, '(', ')') {
                    for t in &toks[i + 2..close] {
                        if let Tok::Str(s) = &t.tok {
                            out.push(s.clone());
                        }
                    }
                }
            }
        }
        if f.path == config.fault_ops_path {
            for i in 0..toks.len() {
                if toks[i].is_ident("const") && toks.get(i + 5).is_some_and(|t| t.is_punct('=')) {
                    if let Some(Tok::Str(s)) = toks.get(i + 6).map(|t| &t.tok) {
                        out.push(s.clone());
                    }
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// L4: a `.begin(`/`.open_phase(` result must be used — discarding the
/// handle means nothing can ever close the span. `.guard(` is exempt
/// (the handle closes itself on drop).
fn rule_l4(f: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &f.tokens;
    for i in 1..toks.len() {
        if f.test_mask[i] {
            continue;
        }
        if !(toks[i - 1].is_punct('.')
            && toks[i]
                .ident()
                .is_some_and(|n| n == "begin" || n == "open_phase")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('(')))
        {
            continue;
        }
        let Some(close) = matching(toks, i + 1, '(', ')') else {
            continue;
        };
        let name = toks[i].ident().unwrap_or_default();
        // Statement start: the token after the previous `;`, `{` or `}`.
        let mut s = i - 1;
        while s > 0 {
            if toks[s - 1].is_punct(';') || toks[s - 1].is_punct('{') || toks[s - 1].is_punct('}') {
                break;
            }
            s -= 1;
        }
        let stmt = &toks[s..i];
        let let_at = stmt.iter().position(|t| t.is_ident("let"));
        if let Some(la) = let_at {
            // `let [mut] binding = …` — a tuple/struct pattern is too
            // clever for this pass and passes unexamined.
            let mut b = la + 1;
            if stmt.get(b).is_some_and(|t| t.is_ident("mut")) {
                b += 1;
            }
            let Some(binding) = stmt.get(b).and_then(|t| t.ident()) else {
                continue;
            };
            if binding == "_" {
                out.push(Finding::new(
                    "L4-span",
                    &f.path,
                    toks[i].line,
                    format!("`.{name}(` handle bound to `_`; the span can never be closed"),
                ));
                continue;
            }
            let used_later = toks[close + 1..].iter().any(|t| t.ident() == Some(binding));
            if !used_later {
                out.push(Finding::new(
                    "L4-span",
                    &f.path,
                    toks[i].line,
                    format!(
                        "`.{name}(` handle `{binding}` is never used; the span is never closed"
                    ),
                ));
            }
        } else if toks.get(close + 1).is_some_and(|t| t.is_punct(';')) {
            out.push(Finding::new(
                "L4-span",
                &f.path,
                toks[i].line,
                format!("`.{name}(` result discarded; the span is never closed (use `.guard(` for RAII)"),
            ));
        }
    }
}
