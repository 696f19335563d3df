//! Phase-timing report from the span layer: provisions one Charlie
//! node and decomposes its boot time into the six instrumented phases
//! — the same breakdown as Figure 4, but reconstructed entirely from
//! spans and metrics rather than the orchestration's own stopwatch.
//!
//! Writes the machine-readable report to `results/metrics_phases.json`,
//! then prints the table (snapshot: `results/phases.txt`).

use bolted_bench::phases::{charlie_phase_breakdown, JSON_PATH};

fn main() {
    let bd = charlie_phase_breakdown();
    if let Err(e) = std::fs::write(JSON_PATH, bd.to_json()) {
        eprintln!("could not write {JSON_PATH}: {e}");
        std::process::exit(1);
    }
    print!("{}", bd.to_text());
}
