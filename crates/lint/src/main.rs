//! `bolted-lint` binary: lints the workspace, prints findings, exits
//! nonzero when any survive.
//!
//! ```text
//! bolted-lint [--root <dir>] [--json <out.json>]
//! ```

use bolted_lint::{sort_findings, to_json, Config, SecretsManifest, Workspace};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--json" => json_out = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!("usage: bolted-lint [--root <dir>] [--json <out.json>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("bolted-lint: unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let root = match root {
        Some(r) => r,
        None => match discover_root() {
            Some(r) => r,
            None => {
                eprintln!("bolted-lint: no workspace root found (looked for secrets.toml upward from the current directory)");
                return ExitCode::FAILURE;
            }
        },
    };

    let mut config = Config::bolted();
    let manifest_path = root.join("secrets.toml");
    match std::fs::read_to_string(&manifest_path) {
        Ok(text) => match SecretsManifest::parse(&text) {
            Ok(m) => config.secrets = m,
            Err(e) => {
                eprintln!("bolted-lint: {}: {e}", manifest_path.display());
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!("bolted-lint: cannot read {}: {e}", manifest_path.display());
            return ExitCode::FAILURE;
        }
    }

    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("bolted-lint: walking {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let mut findings = ws.analyze(&config);
    findings.extend(ws.check_manifest(&config.secrets));
    sort_findings(&mut findings);

    if let Some(path) = json_out {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&path, to_json(&findings, ws.file_count())) {
            eprintln!("bolted-lint: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    for f in &findings {
        println!("{}", f.render());
    }
    if findings.is_empty() {
        println!("bolted-lint: clean ({} files)", ws.file_count());
        ExitCode::SUCCESS
    } else {
        eprintln!("bolted-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// Walks upward from the current directory to the first one holding a
/// `secrets.toml` — the lint anchor of the workspace root.
fn discover_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("secrets.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
