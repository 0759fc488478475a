//! `perfbench` — the CoSMIC stack's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --launcher <path to cosmic-launcher> [--spans-out <path>]
//! ```
//!
//! With `--trace 0` the workload's ops run untraced in a closed loop
//! and the end-to-end metrics are printed; with `--trace 1` the traced
//! run drives the engine phase by phase and times each layer's public
//! calls, and the per-layer metrics are printed. The last line of
//! standard output is always one JSON object; the exit code is non-zero
//! when an output check failed. `perfbench/run.py` builds this binary
//! and the launcher and is the command to use.

mod affinity;
mod e2e;
mod report;
mod spans;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Kind;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    launcher: PathBuf,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut launcher, mut spans_out) = (None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value}")),
                })
            }
            "--launcher" => launcher = Some(PathBuf::from(value)),
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        launcher: launcher.ok_or("--launcher is required")?,
        spans_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced::run(args.kind, args.seed, args.seconds, &args.launcher, args.spans_out.as_deref())
    } else {
        e2e::run(args.kind, args.seed, args.seconds, &args.launcher)
    };
    match result {
        Ok(report) => {
            println!("{}", report.render());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
