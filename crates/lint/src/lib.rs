//! `bolted-lint`: workspace-native static analysis for the Bolted
//! reproduction.
//!
//! The paper's security argument is only as good as a handful of
//! code-shape invariants: the control plane must not panic on tenant
//! input (rule L1), secret material must be structurally unable to
//! reach a formatter, serializer or metrics label (L2), every
//! service-boundary method must be visible to the fault/metrics plane
//! (L3), and every opened span must be closable (L4). `rustc` checks
//! none of these; this crate does, with a hand-rolled lexer and shallow
//! item scanner — no syn, no proc-macro, no dependencies — so it runs
//! in the offline build alongside clippy.
//!
//! See `DESIGN.md` §14 for the rule catalogue and the escape-hatch
//! grammar (`// lint: allow(RULE: reason)`).

#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;

pub use config::{Config, SecretsManifest};
pub use report::{sort_findings, to_json, Finding};
pub use source::SourceFile;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A set of source files under analysis. Production runs [`load`] the
/// real tree; fixture tests [`add_file`] synthetic sources in memory.
///
/// [`load`]: Workspace::load
/// [`add_file`]: Workspace::add_file
#[derive(Default)]
pub struct Workspace {
    files: Vec<SourceFile>,
}

impl Workspace {
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// Adds an in-memory source file. `path` is workspace-relative with
    /// `/` separators (it only matters for scoping rules).
    pub fn add_file(&mut self, path: &str, text: &str) {
        self.files.push(SourceFile::new(path, text));
    }

    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Walks the workspace at `root`: `crates/*/src` (except
    /// `crates/lint` itself), the facade's `src/`, and `examples/`.
    /// Integration-test trees (`tests/`) are test code and out of
    /// scope.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut ws = Workspace::new();
        let crates = root.join("crates");
        if crates.is_dir() {
            let mut dirs: Vec<PathBuf> = fs::read_dir(&crates)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_dir())
                .collect();
            dirs.sort();
            for dir in dirs {
                if dir.file_name().is_some_and(|n| n == "lint") {
                    continue;
                }
                ws.walk_rs(root, &dir.join("src"))?;
            }
        }
        ws.walk_rs(root, &root.join("src"))?;
        ws.walk_rs(root, &root.join("examples"))?;
        Ok(ws)
    }

    fn walk_rs(&mut self, root: &Path, dir: &Path) -> io::Result<()> {
        if !dir.is_dir() {
            return Ok(());
        }
        let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                self.walk_rs(root, &p)?;
            } else if p.extension().is_some_and(|e| e == "rs") {
                let rel = p
                    .strip_prefix(root)
                    .unwrap_or(&p)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                let text = fs::read_to_string(&p)?;
                self.add_file(&rel, &text);
            }
        }
        Ok(())
    }

    /// Runs every rule, applies `// lint: allow` suppression, and
    /// returns the surviving findings sorted by (path, line, rule).
    pub fn analyze(&self, config: &Config) -> Vec<Finding> {
        let mut findings = rules::run_all(&self.files, config);
        findings.retain(|f| {
            self.files
                .iter()
                .find(|s| s.path == f.path)
                .is_none_or(|s| !s.is_suppressed(f.rule, f.line))
        });
        sort_findings(&mut findings);
        findings
    }

    /// Checks the secret manifest against the loaded files (rule
    /// `L2-manifest`): each entry's `defined_in` file must be present and
    /// define the named type, or the struct holding the named field.
    /// Findings are located in `secrets.toml`, where no `// lint:`
    /// directive can suppress them.
    pub fn check_manifest(&self, manifest: &SecretsManifest) -> Vec<Finding> {
        rules::rule_l2_manifest(&self.files, manifest)
    }
}
