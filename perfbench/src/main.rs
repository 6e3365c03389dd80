//! End-to-end and per-layer benchmark of the lease server and the
//! simulated cluster.
//!
//! ```text
//! perfbench --workload <meta_read|lock_churn|cached_rw_sim> --seed <n>
//!           --seconds <s> --trace <0|1> [--trace-dir <dir>]
//! ```
//!
//! One workload per process. The run prints one row per metric (name,
//! value, unit, sample count) and, as its last line, one JSON object:
//! the end-to-end metrics when untraced, the per-layer metrics when
//! traced. A run that fails a correctness check prints the failures to
//! stderr, no metrics, and exits 1. See `README.md` beside this crate.

mod netgen;
mod netload;
mod replay;
mod report;
mod sim;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::{Check, Report};

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["meta_read", "lock_churn", "cached_rw_sim"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_dir: Option<PathBuf>,
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let name = get("--workload").ok_or("--workload is required")?;
    let workload = WORKLOADS
        .iter()
        .copied()
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload {name}; expected one of {WORKLOADS:?}"))?;
    let num = |flag: &str, default: u64| -> Result<u64, String> {
        get(flag).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} takes a whole number, got {v}"))
        })
    };
    let seconds = num("--seconds", 10)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed", 1)?,
        seconds,
        trace: num("--trace", 0)? != 0,
        trace_dir: get("--trace-dir").map(PathBuf::from),
    })
}

fn run(a: &Args, out: &mut Report, check: &mut Check) -> std::io::Result<()> {
    let budget = Duration::from_secs(a.seconds);
    match a.workload {
        "meta_read" => netload::run(&netload::META_READ, a.seed, budget, a.trace, out, check),
        "lock_churn" => netload::run(&netload::LOCK_CHURN, a.seed, budget, a.trace, out, check),
        "cached_rw_sim" => {
            sim::run(a.seed, sim::SIM_SECS, budget, a.trace, out, check);
            Ok(())
        }
        other => unreachable!("parse admits only known workloads, got {other}"),
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Report::new(args.workload);
    let mut check = Check::default();
    if let Err(e) = run(&args, &mut out, &mut check) {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if !check.failures().is_empty() {
        for f in check.failures() {
            eprintln!("perfbench: check failed: {f}");
        }
        return ExitCode::FAILURE;
    }
    if let (Some(dir), Some(tr)) = (&args.trace_dir, &out.trace) {
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("perfbench: writing spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("# spans written to {}", path.display());
    }
    print!("{}", out.render_rows(args.trace));
    println!("{}", out.json_line(args.trace));
    ExitCode::SUCCESS
}
