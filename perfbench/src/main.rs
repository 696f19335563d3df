//! Command-line entry point of the benchmark.
//!
//! ```text
//! perfbench --workload <provision|attest|churn> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Prints human-readable notes, a line of host facts, and as its last
//! line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. A traced run also writes the spans of its traced
//! repetition on the run's first inputs to `out/spans-<workload>.jsonl` under the benchmark's
//! directory. Exits 1 when any output check fails, 2 on bad arguments.

use std::process::ExitCode;

use perfbench::{host, run, trace, workload, Size};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--smoke" => args.size = Size::Smoke,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload, args.size) else {
        eprintln!(
            "perfbench: unknown workload {:?} (provision, attest, churn)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let outcome = match run(w.as_ref(), args.seconds, args.trace, args.seed) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for f in &outcome.failures {
        println!("CHECK FAILED: {f}");
    }
    if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.jsonl", args.workload));
        match trace::write_jsonl(&path, &outcome.spans) {
            Ok(()) => println!("spans of one traced repetition: {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    let nproc = host::nproc();
    let workers = w.workers();
    println!(
        "{{\"host\": {{\"nproc\": {nproc}, \"workers\": {workers}, \"workers_le_cores\": {}, \"seed\": {}, \"git_rev\": \"{}\", \"target_cpu_native\": {}, \"rustflags\": \"{}\", \"workload\": \"{}\", \"size\": \"{}\", \"trace\": {}}}}}",
        workers <= nproc,
        args.seed,
        host::git_rev(),
        host::native_build(),
        host::rustflags(),
        args.workload,
        if args.size == Size::Smoke { "smoke" } else { "full" },
        u8::from(args.trace),
    );
    println!("{}", outcome.result_json(args.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
