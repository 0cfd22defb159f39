//! `impaccc`: the IMPACC DSL driver.
//!
//! ```text
//! impaccc list
//! impaccc translate <file|example> [--set k=v]...
//! impaccc run <file|example> [--nodes N] [--gpus G]
//!             [--mode impacc|split|baseline] [--set k=v]... [--check]
//! ```
//!
//! `translate` prints the canonical source (the parser's fixed point)
//! and the lowered plan — inferred halos, margins, flop charges,
//! reductions — without running anything; CI pins golden copies of this
//! output for the shipped examples. `run` executes the program on a
//! simulated `test_cluster(nodes, gpus)` launch with one rank per GPU
//! (JACC-style: one annotated loop splits across every device of every
//! node); `--check` replays the program on the serial interpreter and
//! insists on bit-identical residuals and scalars.

use std::sync::Arc;

use impacc_array::ResProbe;
use impacc_core::{Launch, RuntimeOptions};
use impacc_dsl::{
    compile_with_overrides, dump_plan, example, interpret_serial, run_program, validate_launch,
    RunOut, EXAMPLES,
};
use impacc_machine::presets;
use parking_lot::Mutex;

fn usage() -> ! {
    eprintln!(
        "usage: impaccc list\n       impaccc translate <file|example> [--set k=v]...\n       \
         impaccc run <file|example> [--nodes N] [--gpus G] [--mode impacc|split|baseline] \
         [--set k=v]... [--check]"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("impaccc: {msg}");
    std::process::exit(1);
}

/// Resolve a source argument: a readable file path first, then a
/// shipped example name.
fn load(arg: &str) -> (String, String) {
    if let Ok(text) = std::fs::read_to_string(arg) {
        return (arg.to_string(), text);
    }
    if let Some(src) = example(arg) {
        return (arg.to_string(), src.to_string());
    }
    fail(&format!(
        "'{arg}' is neither a readable file nor a shipped example \
         (try `impaccc list`)"
    ));
}

fn parse_set(args: &[String]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--set" {
            let kv = args.get(i + 1).unwrap_or_else(|| usage());
            let (k, v) = kv.split_once('=').unwrap_or_else(|| usage());
            let v: f64 = v
                .parse()
                .unwrap_or_else(|_| fail(&format!("--set {k}: '{v}' is not a number")));
            out.push((k.to_string(), v));
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .map(|p| args.get(p + 1).unwrap_or_else(|| usage()).clone())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or_else(|| usage());
    match cmd {
        "list" => {
            for (name, src) in EXAMPLES {
                let first = src
                    .lines()
                    .find_map(|l| l.strip_prefix("// "))
                    .unwrap_or("");
                println!("{name:<12} {first}");
            }
        }
        "translate" => {
            let target = args.get(1).unwrap_or_else(|| usage());
            let overrides = parse_set(&args[2..]);
            let (name, src) = load(target);
            let c = compile_with_overrides(&src, &overrides)
                .unwrap_or_else(|e| fail(&format!("{name}: {e}")));
            println!("== canonical source ==");
            print!("{}", c.program.pretty());
            println!("== lowered plan ==");
            print!("{}", dump_plan(&c));
        }
        "run" => {
            let target = args.get(1).unwrap_or_else(|| usage());
            let rest = &args[2..];
            let overrides = parse_set(rest);
            let nodes: usize = flag_value(rest, "--nodes")
                .map(|v| v.parse().unwrap_or_else(|_| usage()))
                .unwrap_or(1);
            let gpus: usize = flag_value(rest, "--gpus")
                .map(|v| v.parse().unwrap_or_else(|_| usage()))
                .unwrap_or(2);
            let mode = flag_value(rest, "--mode").unwrap_or_else(|| "impacc".into());
            let check = rest.iter().any(|a| a == "--check");
            let opts = match mode.as_str() {
                "impacc" => RuntimeOptions::impacc(),
                "split" => {
                    let mut o = RuntimeOptions::impacc();
                    o.unified_queue = false;
                    o
                }
                "baseline" => RuntimeOptions::baseline(),
                other => fail(&format!("unknown mode '{other}'")),
            };
            let (name, src) = load(target);
            let c = Arc::new(
                compile_with_overrides(&src, &overrides)
                    .unwrap_or_else(|e| fail(&format!("{name}: {e}"))),
            );
            let tasks = nodes * gpus;
            validate_launch(&c, tasks)
                .unwrap_or_else(|e| fail(&format!("{name} cannot launch on {tasks} ranks: {e}")));
            let probe = ResProbe::new();
            let out_slot: Arc<Mutex<Option<RunOut>>> = Arc::new(Mutex::new(None));
            let (cc, pp, slot) = (c.clone(), probe.clone(), out_slot.clone());
            let summary = Launch::new(presets::test_cluster(nodes, gpus), opts)
                .run_async(move |tc| {
                    let cc = cc.clone();
                    let pp = pp.clone();
                    let slot = slot.clone();
                    async move {
                        let out = run_program(&tc, &cc, Some(&pp), false).await;
                        if tc.rank() == 0 {
                            *slot.lock() = Some(out);
                        }
                    }
                })
                .unwrap_or_else(|e| fail(&format!("simulation failed: {e:?}")));
            let out = out_slot.lock().take().unwrap_or_default();
            println!(
                "{name}: {tasks} ranks ({nodes} nodes x {gpus} gpus), mode {mode}, \
                 virtual time {:.6}s, {} events",
                summary.elapsed_secs(),
                summary.report.events
            );
            for (k, v) in &out.scalars {
                println!("  {k} = {v:?}");
            }
            let residuals = probe.take();
            if !residuals.is_empty() {
                println!("  residuals: {residuals:?}");
            }
            if check {
                let serial =
                    interpret_serial(&c).unwrap_or_else(|e| fail(&format!("serial replay: {e}")));
                let sr = &serial.residuals;
                if sr.len() != residuals.len()
                    || sr
                        .iter()
                        .zip(&residuals)
                        .any(|(a, b)| a.to_bits() != b.to_bits())
                {
                    fail(&format!(
                        "residual mismatch vs serial oracle: got {residuals:?}, want {sr:?}"
                    ));
                }
                for (k, v) in &out.scalars {
                    let want = serial.scalars.get(k).copied().unwrap_or(f64::NAN);
                    if v.to_bits() != want.to_bits() {
                        fail(&format!("scalar {k}: distributed {v:?} vs serial {want:?}"));
                    }
                }
                println!("  check: residuals and scalars match the serial oracle bit-for-bit");
            }
        }
        _ => usage(),
    }
}
