//! FEVES benchmark: three workloads driven from outside the product, with
//! correctness gates, end-to-end metrics (`--trace 0`) and a traced run
//! that times each layer (`--trace 1`). See README.md beside this crate.
//!
//! ```text
//! fevesbench --workload <encode-720p|farm-qcif|sched-sweep> --seed <n>
//!            --seconds <s> --trace <0|1> --feves <path/to/feves> [--work <dir>]
//! ```
//!
//! The last line of stdout is the result as one JSON object; the exit code
//! is 0 only when every correctness gate passed.

mod child;
mod common;
mod encode;
mod farm;
mod layers;
mod loadgen;
mod sched;
mod spans;
mod stats;

use common::{Ctx, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["encode-720p", "farm-qcif", "sched-sweep"];

/// Every run ends within this; children still alive then are killed.
const RUN_LIMIT: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    feves: PathBuf,
    work: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<Option<String>, String> {
        match args.iter().position(|a| a == flag) {
            Some(i) => args
                .get(i + 1)
                .cloned()
                .map(Some)
                .ok_or_else(|| format!("{flag} needs a value")),
            None => Ok(None),
        }
    };
    let need = |v: Option<String>, flag: &str| v.ok_or_else(|| format!("missing {flag}"));
    let workload = need(get("--workload")?, "--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' ({})",
            WORKLOADS.join("|")
        ));
    }
    let seed = need(get("--seed")?, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = need(get("--seconds")?, "--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds: must be 1..=60".into());
    }
    let trace = match get("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(o) => return Err(format!("--trace: '{o}' is not 0 or 1")),
    };
    let feves = PathBuf::from(need(get("--feves")?, "--feves")?);
    let work = PathBuf::from(get("--work")?.unwrap_or_else(|| ".fevesbench".into()));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        feves,
        work,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: fevesbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 --feves <path> [--work <dir>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if !args.feves.is_file() {
        eprintln!("error: {} is not the feves binary", args.feves.display());
        return ExitCode::from(2);
    }
    let dir = args.work.join(format!("run-{}", std::process::id()));
    let trace_dir = args.work.join("trace");
    for d in [&dir, &trace_dir] {
        if let Err(e) = std::fs::create_dir_all(d) {
            eprintln!("error: {}: {e}", d.display());
            return ExitCode::from(1);
        }
    }
    let ctx = Ctx {
        feves: args.feves.clone(),
        dir: dir.clone(),
        digests: args.work.join("digests.txt"),
        trace_dir,
        seed: args.seed,
        seconds: args.seconds,
        deadline: Instant::now() + RUN_LIMIT,
    };
    let mut outcome: Outcome = if args.trace {
        layers::run(&ctx, &args.workload)
    } else {
        let mut o = match args.workload.as_str() {
            "encode-720p" => encode::run(&ctx),
            "farm-qcif" => farm::run(&ctx),
            _ => sched::run(&ctx),
        };
        let ok = 1.0 - o.fail_ratio();
        o.metric("success_ratio", ok, "ratio");
        o
    };
    let _ = std::fs::remove_dir_all(&dir);

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    outcome.info("host.cores", cores as f64, "count");
    for e in &outcome.errors {
        eprintln!("FAILED: {e}");
    }
    if outcome.metrics.iter().any(|m| !m.value.is_finite()) && outcome.failed == 0 {
        outcome.fail("a metric has no finite value");
    }
    println!(
        "{} seed {} ({} s, trace {}): {} attempted, {} failed",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed
    );
    for m in &outcome.metrics {
        println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.info {
        println!("  ({:<26} {:>14.4} {})", m.name, m.value, m.unit);
    }
    let correct = outcome.failed == 0;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
