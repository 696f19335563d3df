//! Lint configuration: which crates form the control plane, where the
//! service traits and fault-op constants live, and the secret manifest
//! (`secrets.toml`) naming the types whose bytes must never reach a
//! formatter.

/// A secret-bearing type from `secrets.toml` (`[[secret]] type = …`).
#[derive(Debug, Clone)]
pub struct SecretType {
    /// Type name, e.g. `KeyShare`.
    pub name: String,
    /// Workspace-relative file that defines it (checked by `L2-manifest`).
    pub defined_in: String,
    /// Line of the entry's `type` key in `secrets.toml`.
    pub line: u32,
}

/// A secret-bearing field (`[[secret]] field = "Type.field"`).
#[derive(Debug, Clone)]
pub struct SecretField {
    pub type_name: String,
    pub field: String,
    pub defined_in: String,
    /// Line of the entry's `field` key in `secrets.toml`.
    pub line: u32,
}

/// Parsed `secrets.toml`.
#[derive(Debug, Clone, Default)]
pub struct SecretsManifest {
    pub types: Vec<SecretType>,
    pub fields: Vec<SecretField>,
    /// Files allowed to call `.expose(` (`[expose] allow = […]`).
    pub expose_allow: Vec<String>,
}

impl SecretsManifest {
    /// Identifier tokens that must stay out of format macros and
    /// span-attribute/metrics-label call sites: every secret field name
    /// plus the snake_case form of every secret type name.
    pub fn tainted_idents(&self) -> Vec<String> {
        let mut out: Vec<String> = self.fields.iter().map(|f| f.field.clone()).collect();
        for t in &self.types {
            out.push(snake_case(&t.name));
        }
        out.sort();
        out.dedup();
        out
    }

    /// Parses the `secrets.toml` dialect used by the workspace: a list
    /// of `[[secret]]` tables with `type`/`field` + `defined_in` keys
    /// and one `[expose]` table with an `allow` string array. This is a
    /// hand-rolled subset parser — the workspace builds offline with no
    /// TOML dependency — and unknown keys are ignored rather than
    /// rejected.
    pub fn parse(text: &str) -> Result<SecretsManifest, String> {
        let mut m = SecretsManifest::default();
        #[derive(PartialEq)]
        enum Section {
            None,
            Secret,
            Expose,
        }
        let mut section = Section::None;
        // Each key's value with its 1-indexed line.
        let mut cur_type: Option<(String, u32)> = None;
        let mut cur_field: Option<(String, u32)> = None;
        let mut cur_defined: Option<String> = None;
        let mut pending_array: Option<String> = None;

        let mut flush = |t: &mut Option<(String, u32)>,
                         f: &mut Option<(String, u32)>,
                         d: &mut Option<String>|
         -> Result<(), String> {
            let defined = d.take().unwrap_or_default();
            if let Some((name, line)) = t.take() {
                if defined.is_empty() {
                    return Err(format!("secret type {name} needs defined_in"));
                }
                m.types.push(SecretType {
                    name,
                    defined_in: defined.clone(),
                    line,
                });
            }
            if let Some((spec, line)) = f.take() {
                let (ty, field) = spec
                    .split_once('.')
                    .ok_or_else(|| format!("field {spec} must be Type.field"))?;
                if defined.is_empty() {
                    return Err(format!("secret field {spec} needs defined_in"));
                }
                m.fields.push(SecretField {
                    type_name: ty.to_string(),
                    field: field.to_string(),
                    defined_in: defined,
                    line,
                });
            }
            Ok(())
        };

        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if let Some(acc) = pending_array.as_mut() {
                acc.push_str(line);
                if line.contains(']') {
                    let acc = pending_array.take().unwrap_or_default();
                    m.expose_allow.extend(parse_string_array(&acc));
                }
                continue;
            }
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[secret]]" {
                flush(&mut cur_type, &mut cur_field, &mut cur_defined)?;
                section = Section::Secret;
                continue;
            }
            if line == "[expose]" {
                flush(&mut cur_type, &mut cur_field, &mut cur_defined)?;
                section = Section::Expose;
                continue;
            }
            if line.starts_with('[') {
                return Err(format!("secrets.toml:{}: unknown section {line}", ln + 1));
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("secrets.toml:{}: expected key = value", ln + 1));
            };
            let key = key.trim();
            let value = value.trim();
            match (&section, key) {
                (Section::Secret, "type") => cur_type = Some((unquote(value)?, ln as u32 + 1)),
                (Section::Secret, "field") => cur_field = Some((unquote(value)?, ln as u32 + 1)),
                (Section::Secret, "defined_in") => cur_defined = Some(unquote(value)?),
                (Section::Expose, "allow") => {
                    if value.contains(']') {
                        m.expose_allow.extend(parse_string_array(value));
                    } else {
                        pending_array = Some(value.to_string());
                    }
                }
                _ => {} // unknown keys tolerated
            }
        }
        flush(&mut cur_type, &mut cur_field, &mut cur_defined)?;
        Ok(m)
    }
}

fn unquote(v: &str) -> Result<String, String> {
    let v = v.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(format!("expected quoted string, got {v}"))
    }
}

fn parse_string_array(v: &str) -> Vec<String> {
    v.split('"')
        .skip(1)
        .step_by(2)
        .map(|s| s.to_string())
        .collect()
}

pub fn snake_case(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// Everything the rule passes need to know.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crate directory names (under `crates/`) forming the no-panic
    /// control plane (rule L1).
    pub control_plane: Vec<String>,
    /// Individual workspace-relative files held to the same L1 standard
    /// without pulling their whole crate in — the executor, pool and
    /// scenario-harness modules of `bolted-sim`, which every
    /// control-plane future now runs on.
    pub control_plane_files: Vec<String>,
    /// Workspace-relative path of the service-trait definitions
    /// (rule L3 reads the trait methods from here).
    pub services_path: String,
    /// Workspace-relative path of the fault-plan op constants (their
    /// string values join the instrumented-op set).
    pub fault_ops_path: String,
    pub secrets: SecretsManifest,
}

impl Config {
    /// The workspace's standing configuration, minus the manifest
    /// (which comes from `secrets.toml`).
    pub fn bolted() -> Config {
        Config {
            control_plane: ["core", "hil", "net", "storage", "keylime", "bmi"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            control_plane_files: [
                "crates/sim/src/executor.rs",
                "crates/sim/src/pool.rs",
                "crates/sim/src/scenario.rs",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            services_path: "crates/core/src/services.rs".to_string(),
            fault_ops_path: "crates/sim/src/fault.rs".to_string(),
            secrets: SecretsManifest::default(),
        }
    }

    /// True when `path` (workspace-relative) is in a control-plane crate
    /// or is one of the individually listed control-plane files.
    pub fn in_control_plane(&self, path: &str) -> bool {
        self.control_plane
            .iter()
            .any(|c| path.starts_with(&format!("crates/{c}/src/")))
            || self.control_plane_files.iter().any(|f| f == path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# tenant secrets
[[secret]]
type = "KeyShare"
defined_in = "crates/keylime/src/payload.rs"

[[secret]]
field = "TenantPayload.luks_passphrase"
defined_in = "crates/keylime/src/payload.rs"

[expose]
allow = [
    "crates/crypto/src/secret.rs",
    "examples/quickstart.rs",
]
"#;

    #[test]
    fn parses_manifest() {
        let m = SecretsManifest::parse(SAMPLE).expect("parses");
        assert_eq!(m.types.len(), 1);
        assert_eq!(m.types[0].name, "KeyShare");
        assert_eq!(m.types[0].line, 4);
        assert_eq!(m.fields.len(), 1);
        assert_eq!(m.fields[0].type_name, "TenantPayload");
        assert_eq!(m.fields[0].field, "luks_passphrase");
        assert_eq!(m.fields[0].line, 8);
        assert_eq!(
            m.expose_allow,
            vec!["crates/crypto/src/secret.rs", "examples/quickstart.rs"]
        );
        assert_eq!(m.tainted_idents(), vec!["key_share", "luks_passphrase"]);
    }

    #[test]
    fn missing_defined_in_is_an_error() {
        assert!(SecretsManifest::parse("[[secret]]\ntype = \"X\"\n").is_err());
    }

    #[test]
    fn snake_case_converts_camel() {
        assert_eq!(snake_case("KeyShare"), "key_share");
        assert_eq!(snake_case("PrivateKey"), "private_key");
    }
}
