//! The whole benchmark in one command: every workload in a fresh
//! process of its own (so peak memory and allocator state are per
//! workload), end to end and then traced, gathered into `result.json`.

use crate::json::{arr, obj, text, uint, Json};
use crate::workloads::{nproc, NAMES};
use serde::Value;
use std::path::Path;
use std::process::Command;

/// First line of a command's standard output, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn environment(seed: u64, reps: usize, quick: bool) -> Value {
    obj([
        ("nproc", uint(nproc() as u64)),
        ("rustc", text(first_line("rustc", &["--version"]))),
        (
            "profile",
            text(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_sha", text(first_line("git", &["rev-parse", "HEAD"]))),
        ("seed", uint(seed)),
        ("reps", uint(reps as u64)),
        ("quick", Value::Bool(quick)),
    ])
}

/// Run one workload in a child process and read the file it wrote.
fn child(
    workload: &str,
    traced: bool,
    seed: u64,
    reps: usize,
    quick: bool,
    out_dir: &Path,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--reps", &reps.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir);
    if quick {
        cmd.arg("--quick");
    }
    let status = cmd.status().map_err(|e| format!("{workload}: {e}"))?;
    let doc = Json::read(&out_dir.join(run_file(workload, traced)))?;
    if !status.success() {
        eprintln!("{workload}: run exited with {status}");
    }
    Ok(doc)
}

/// Name of the file one run writes under the output directory.
pub fn run_file(workload: &str, traced: bool) -> String {
    format!(
        "run-{workload}-{}.json",
        if traced { "traced" } else { "end_to_end" }
    )
}

/// Run every workload and write `result.json`. Returns whether every
/// output check held.
pub fn run(seed: u64, reps: usize, quick: bool, out_dir: &Path) -> Result<bool, String> {
    let mut workloads = Vec::new();
    let mut notes = Vec::new();
    let mut all_correct = true;
    if nproc() < 2 {
        notes.push(
            "nproc < 2: active_fleet runs single-threaded and parallel_efficiency is omitted"
                .to_string(),
        );
    }
    for name in NAMES {
        let end_to_end = child(name, false, seed, reps, quick, out_dir)?;
        let traced = child(name, true, seed, reps, quick, out_dir)?;
        for doc in [&end_to_end, &traced] {
            if doc.get("correct") != Some(Json(Value::Bool(true))) {
                all_correct = false;
            }
        }
        let statements = |doc: &Json| doc.at(&["sim", "statements"]);
        if statements(&end_to_end) != statements(&traced) {
            all_correct = false;
            notes.push(format!(
                "{name}: the traced run's statement total differs from the end-to-end run's"
            ));
        }
        workloads.push((
            name,
            obj([("end_to_end", end_to_end.0), ("traced", traced.0)]),
        ));
    }
    let result = obj([
        ("benchmark", text("fleetbench")),
        ("environment", environment(seed, reps, quick)),
        ("correct", Value::Bool(all_correct)),
        ("notes", arr(notes.iter().map(text))),
        ("workloads", obj(workloads)),
    ]);
    let path = out_dir.join("result.json");
    std::fs::write(&path, Json(result).pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}
