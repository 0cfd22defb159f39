//! `run`: every workload, each in its own child process (an end-to-end
//! pass, then a traced pass), folded into `result.json` with the run's
//! provenance. `run --smoke` is the quick self-check.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use crate::json::Json;
use crate::spec::{is_serve, END_TO_END, PER_LAYER, WORKLOADS};
use crate::sys;

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// Standard output of a helper command, trimmed; `unknown` if it cannot run
/// (the driver's checkout is not a git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One child process: one workload, traced or not. Returns its final result
/// line and its `detail` line, parsed.
fn child(a: &RunArgs, workload: &str, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&a.out_dir);
    if a.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end and collects what it printed.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}:\n{stdout}{}",
            u8::from(trace),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    // Show the child's human-readable lines; keep the two JSON lines.
    let mut detail = Json::Null;
    let mut last = "";
    for line in stdout.lines() {
        match line.strip_prefix("detail ") {
            Some(d) => detail = Json::parse(d)?,
            None => {
                if !line.starts_with('{') {
                    println!("{line}");
                }
                last = line;
            }
        }
    }
    Ok((Json::parse(last)?, detail))
}

pub fn run(a: &RunArgs) -> Result<bool, String> {
    std::fs::create_dir_all(&a.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", a.out_dir.display()))?;
    let started = Instant::now();
    let load_before = sys::loadavg();
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        println!("== {} ==", w.name);
        let (e2e, e2e_detail) = child(a, w.name, false)?;
        let (layers, layers_detail) = child(a, w.name, true)?;
        let attempted = e2e.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        let failed = e2e.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let correct = [&e2e, &layers]
            .iter()
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        all_ok &= correct && failed == 0.0;
        if a.smoke {
            check_smoke(w.name, &e2e, &layers)?;
        }
        workloads.push((
            w.name,
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("failed_share", Json::Num(failed / attempted.max(1.0))),
                (
                    "end_to_end",
                    e2e.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                (
                    "per_layer",
                    layers.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                ("detail", e2e_detail),
                ("traced_detail", layers_detail),
            ]),
        ));
    }
    let load_after = sys::loadavg();
    let result = Json::obj([
        (
            "git_commit",
            Json::Str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::Str(tool_line("rustc", &["--version"]))),
        ("seed", Json::Num(a.seed as f64)),
        ("seconds", Json::Num(a.seconds)),
        ("smoke", Json::Bool(a.smoke)),
        ("nproc", Json::Num(sys::nproc() as f64)),
        ("loadavg_before", Json::nums(&load_before)),
        ("loadavg_after", Json::nums(&load_after)),
        // Another process was competing for the CPUs when the run began.
        ("noisy", Json::Bool(load_before[0] > 1.0)),
        ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = a.out_dir.join("result.json");
    std::fs::write(&path, result.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "wrote {} ({:.0} s{})",
        path.display(),
        started.elapsed().as_secs_f64(),
        if load_before[0] > 1.0 {
            ", NOISY: 1-minute load was above 1.0"
        } else {
            ""
        }
    );
    Ok(all_ok)
}

/// `--smoke`: every metric `BENCHMARK.json` names is present for the
/// workload, the ones that apply to it are non-zero, and nothing failed.
fn check_smoke(workload: &str, e2e: &Json, layers: &Json) -> Result<(), String> {
    let value = |r: &Json, name: &str| {
        r.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };
    for e in &END_TO_END {
        match value(e2e, e.name) {
            Some(v) if v > 0.0 => {}
            other => return Err(format!("{workload}: end-to-end {} is {other:?}", e.name)),
        }
    }
    for p in &PER_LAYER {
        if value(layers, p.name).is_none() {
            return Err(format!("{workload}: per-layer {} is missing", p.name));
        }
    }
    let must_move: &[&str] = if is_serve(workload) {
        &[
            "serve.jobs_per_s",
            "serve.job_p50_ms",
            "serve.submit_hit_us",
            "serve.run_us",
        ]
    } else {
        &["vtime.events", "vtime.ns_per_event", "core.virtual_end_us"]
    };
    for name in must_move {
        if value(layers, name).unwrap_or(0.0) <= 0.0 {
            return Err(format!("{workload}: per-layer {name} should be positive"));
        }
    }
    for r in [e2e, layers] {
        if r.get("failed").and_then(Json::as_f64) != Some(0.0) {
            return Err(format!("{workload}: failed_share is not 0"));
        }
    }
    Ok(())
}

/// Default output directory, relative to the repo root the command runs in.
pub const DEFAULT_OUT_DIR: &str = "benchmark/out";
