//! `fleetbench` — the repository's one benchmark. See `README.md`.
//!
//! ```text
//! fleetbench run --workload W --seed N (--seconds S | --reps N) --trace 0|1 [--quick]
//! fleetbench suite [--seed N] [--reps N] [--quick]
//! fleetbench compare A.json B.json [--spec BENCHMARK.json]
//! ```

mod adapter;
mod compare;
mod json;
mod presets;
mod report;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  fleetbench run --workload <name> [--seed N] (--seconds S | --reps N) [--trace 0|1] [--quick] [--out-dir DIR]
  fleetbench suite [--seed N] [--reps N] [--quick] [--out-dir DIR]
  fleetbench compare A.json B.json [--spec BENCHMARK.json]
workloads: idle_region, active_fleet, write_churn, crash_recovery";

/// `--key value` options, bare `--flag`s and positional arguments.
struct Args {
    options: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut options = BTreeMap::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].strip_prefix("--") {
                Some(key) if i + 1 < argv.len() && !argv[i + 1].starts_with("--") => {
                    options.insert(key.to_string(), argv[i + 1].clone());
                    i += 2;
                }
                Some(key) => {
                    options.insert(key.to_string(), "true".to_string());
                    i += 1;
                }
                None => {
                    positional.push(argv[i].clone());
                    i += 1;
                }
            }
        }
        Args {
            options,
            positional,
        }
    }

    fn number<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.options
            .get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key} {v}: not a valid number"))
            })
            .transpose()
    }

    fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    fn out_dir(&self) -> PathBuf {
        self.options
            .get("out-dir")
            .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
    }
}

fn write_run_file(out_dir: &Path, report: &report::RunReport) -> Result<(), String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(suite::run_file(report.workload, report.traced));
    std::fs::write(&path, Json(report.to_value()).pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    let name = args
        .options
        .get("workload")
        .ok_or("run needs --workload <name>")?;
    let quick = args.flag("quick");
    let workload = workloads::by_name(name, quick)
        .ok_or_else(|| format!("unknown workload {name}; one of {:?}", workloads::NAMES))?;
    let seed = args.number("seed")?.unwrap_or(42u64);
    let traced = match args.options.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let budget = match (
        args.number::<usize>("reps")?,
        args.number::<f64>("seconds")?,
    ) {
        (Some(_), Some(_)) => return Err("give --reps or --seconds, not both".into()),
        (Some(n), None) if n >= 1 => run::Budget::Reps(n),
        (None, Some(s)) if s > 0.0 => run::Budget::Seconds(s),
        (None, None) => run::Budget::Reps(5),
        _ => return Err("--reps and --seconds must be positive".into()),
    };
    let out_dir = args.out_dir();
    let report = if traced {
        run::traced(&workload, seed, quick, &out_dir)?
    } else {
        run::end_to_end(&workload, seed, quick, budget)?
    };
    report.print();
    write_run_file(&out_dir, &report)?;
    // The result line is the last line of standard output.
    println!("{}", report.result_line()?);
    Ok(report.correct())
}

fn cmd_suite(args: &Args) -> Result<bool, String> {
    let quick = args.flag("quick");
    let seed = args.number("seed")?.unwrap_or(42u64);
    let reps = args
        .number("reps")?
        .unwrap_or(if quick { 3usize } else { 5 });
    if reps == 0 {
        return Err("--reps must be positive".into());
    }
    suite::run(seed, reps, quick, &args.out_dir())
}

fn cmd_compare(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare needs two result files".into());
    };
    let spec_path = args
        .options
        .get("spec")
        .map_or_else(|| PathBuf::from("BENCHMARK.json"), PathBuf::from);
    let spec = Json::read(&spec_path)?;
    let result = compare::compare(
        &spec,
        &Json::read(Path::new(a))?,
        &Json::read(Path::new(b))?,
    )?;
    for row in &result.table {
        println!("{row}");
    }
    if !result.behaviour_changed.is_empty() {
        println!("behaviour changed (information, not failure):");
        for line in &result.behaviour_changed {
            println!("  {line}");
        }
    }
    println!(
        "{} regression(s), {} unresolved",
        result.regressions, result.unresolved
    );
    Ok(!result.failed())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = Args::parse(rest);
    let outcome = match command.as_str() {
        "run" => cmd_run(&args),
        "suite" => cmd_suite(&args),
        "compare" => cmd_compare(&args),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("fleetbench: {message}");
            ExitCode::from(2)
        }
    }
}
