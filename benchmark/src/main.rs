//! The repository's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! taopt-benchmark run [--seed N] [--reps N]      every workload, every metric
//! taopt-benchmark compare <a.json> <b.json>      two result files, bound by bound
//! taopt-benchmark manifest                       BENCHMARK.json, from the registry
//! taopt-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                                what BENCHMARK.json's command runs
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod child;
mod compare;
mod layers;
mod metrics;
mod report;
mod run;
mod stats;
mod surface;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use child::{Arm, ChildArgs};
use run::{Plan, Reps};
use workloads::Workload;

/// Seed of a plain `run`.
const DEFAULT_SEED: u64 = 2025;
/// Untraced repetitions of a plain `run`.
const DEFAULT_REPS: usize = 7;
/// Children per decomposition arm of a plain `run`.
const ARM_REPS: usize = 3;
/// Untraced repetitions beside the traced run in `--trace 1`.
const TRACE_REPS: usize = 2;

/// `--flag value` pairs and bare words of a command line.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")))
            .transpose()
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

/// The benchmark's `out/` directory: `run.sh` names it; a bare binary
/// falls back to `benchmark/out` under the current directory.
fn out_dir(args: &Args) -> PathBuf {
    args.value("--out-dir")
        .map(PathBuf::from)
        .or_else(|| std::env::var_os("TAOPT_BENCH_OUT").map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("benchmark/out"))
}

fn workload_arg(args: &Args) -> Result<Workload, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    Workload::from_name(name).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; one of {}",
            Workload::ALL.map(Workload::name).join(", ")
        )
    })
}

fn child_main(args: &Args) -> Result<ExitCode, String> {
    let arm = args.value("--arm").unwrap_or("main");
    let child_args = ChildArgs {
        workload: workload_arg(args)?,
        arm: Arm::from_name(arm).ok_or_else(|| format!("unknown arm {arm:?}"))?,
        seed: args.parsed("--seed")?.unwrap_or(DEFAULT_SEED),
        traced: args.has("--traced"),
        out_dir: out_dir(args),
    };
    println!("{}", child::run(&child_args).to_value().to_json_string());
    Ok(ExitCode::SUCCESS)
}

fn run_main(args: &Args) -> Result<ExitCode, String> {
    let seed = args.parsed("--seed")?.unwrap_or(DEFAULT_SEED);
    let reps: usize = args.parsed("--reps")?.unwrap_or(DEFAULT_REPS).max(1);
    let plan = Plan {
        seed,
        reps: Reps::Count(reps),
        layers: true,
        arm_reps: ARM_REPS,
        out_dir: out_dir(args),
    };
    run::ensure_out_dir(&plan.out_dir)?;
    let provenance = report::Provenance::collect(seed, reps as u64);
    println!("taopt-benchmark | {}", provenance.line());
    let mut results = Vec::new();
    for workload in Workload::ALL {
        eprintln!("measuring {} ...", workload.name());
        let result = run::measure(&plan, workload)?;
        report::print_workload(&result);
        results.push(result);
    }
    let doc = report::document(&provenance, &results);
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let path = plan.out_dir.join(format!("result-seed{seed}-{stamp}.json"));
    std::fs::write(&path, doc.to_json_string())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    let incorrect: Vec<_> = results
        .iter()
        .filter(|r| !r.correct())
        .map(|r| r.workload.name())
        .collect();
    if incorrect.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("output checks failed on: {}", incorrect.join(", "));
        Ok(ExitCode::FAILURE)
    }
}

fn compare_main(args: &Args) -> Result<ExitCode, String> {
    let read = |i: usize| -> Result<surface::Value, String> {
        let path = args.0.get(i).ok_or("usage: compare <a.json> <b.json>")?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        surface::Value::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (regressed, _) = compare::compare(&read(1)?, &read(2)?)?;
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// What BENCHMARK.json's command runs: one workload, one JSON line last.
fn driver_main(args: &Args) -> Result<ExitCode, String> {
    let workload = workload_arg(args)?;
    let seed = args.parsed("--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 = args
        .parsed("--seconds")?
        .unwrap_or(metrics::DRIVER_RUN_SECONDS as f64);
    let traced = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: 0 or 1, not {other:?}")),
    };
    let plan = Plan {
        seed,
        reps: if traced {
            Reps::Count(TRACE_REPS)
        } else {
            Reps::Seconds(seconds)
        },
        layers: traced,
        // One child per arm: the driver's per-layer list carries no
        // bounds, and its runs are on a budget.
        arm_reps: 1,
        out_dir: out_dir(args),
    };
    run::ensure_out_dir(&plan.out_dir)?;
    let result = run::measure(&plan, workload)?;
    eprintln!(
        "taopt-benchmark | {}",
        report::Provenance::collect(seed, result.metrics["host_s"].n).line()
    );
    for f in &result.failures {
        eprintln!("! {f}");
    }
    // The line itself says whether the outputs were correct; the exit
    // code only says whether there is a line.
    println!("{}", report::driver_line(&result, traced));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let outcome = match args.0.first().map(String::as_str) {
        Some("child") => child_main(&args),
        Some("compare") => compare_main(&args),
        Some("manifest") => {
            println!("{}", report::manifest().to_json_string());
            Ok(ExitCode::SUCCESS)
        }
        Some("run") | None => run_main(&args),
        Some(flag) if flag.starts_with("--") => driver_main(&args),
        Some(other) => Err(format!(
            "unknown command {other:?}; try `run`, `compare a.json b.json`, or \
             `--workload W --seed N --seconds S --trace 0|1`"
        )),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("taopt-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
