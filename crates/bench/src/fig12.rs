//! Figure 12 — EP speedup: classes A–E on PSG (1–8 tasks), class E on
//! Beacon (up to 128 tasks), the new 64×E class on Titan (128 tasks up).
//!
//! Paper's result: EP is pure compute — near-linear scaling for the large
//! classes, poor strong scaling for small ones (device under-utilization
//! is not modelled, but the fixed launch/reduce overheads produce the
//! same flattening), and **no difference between IMPACC and MPI+OpenACC**.

use impacc_apps::{run_ep, EpClass, EpParams};
use impacc_core::RuntimeOptions;

use crate::specs::{beacon_tasks, psg_tasks, titan_tasks};
use crate::util::{quick, Table};

fn ep(spec: impacc_machine::MachineSpec, opts: RuntimeOptions, class: EpClass) -> f64 {
    let params = EpParams {
        total_pairs: class.pairs(),
        sample_pairs: 1 << 10,
    };
    run_ep(spec, opts, params).expect("ep run").elapsed_secs()
}

/// Run Figure 12; returns the rendered report.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("Figure 12: EP speedup (over MPI+OpenACC 1-task; Titan over 128-task)\n\n");

    let classes: Vec<EpClass> = if quick() {
        vec![EpClass::A, EpClass::C]
    } else {
        vec![EpClass::A, EpClass::B, EpClass::C, EpClass::D, EpClass::E]
    };
    for class in classes {
        let base1 = ep(psg_tasks(1), RuntimeOptions::baseline(), class);
        let mut t = Table::new(&["tasks", "IMPACC", "MPI+OpenACC"]);
        for tasks in [1usize, 2, 4, 8] {
            let i = ep(psg_tasks(tasks), RuntimeOptions::impacc(), class);
            let b = ep(psg_tasks(tasks), RuntimeOptions::baseline(), class);
            t.row(vec![
                tasks.to_string(),
                format!("{:.2}x", base1 / i),
                format!("{:.2}x", base1 / b),
            ]);
        }
        out.push_str(&format!("PSG, class {class:?}:\n{}\n", t.render()));
    }

    // (f) Beacon, class E.
    let base1 = ep(beacon_tasks(1), RuntimeOptions::baseline(), EpClass::E);
    let mut t = Table::new(&["tasks", "IMPACC", "MPI+OpenACC"]);
    let counts: Vec<usize> = if quick() {
        vec![1, 8, 32]
    } else {
        vec![1, 2, 4, 8, 16, 32, 64, 128]
    };
    for tasks in counts {
        let i = ep(beacon_tasks(tasks), RuntimeOptions::impacc(), EpClass::E);
        let b = ep(beacon_tasks(tasks), RuntimeOptions::baseline(), EpClass::E);
        t.row(vec![
            tasks.to_string(),
            format!("{:.2}x", base1 / i),
            format!("{:.2}x", base1 / b),
        ]);
    }
    out.push_str(&format!("Beacon, class E:\n{}\n", t.render()));

    // (g) Titan, class 64xE, normalized to 128 tasks.
    let counts: Vec<usize> = if quick() {
        vec![128, 256]
    } else {
        vec![128, 256, 512, 1024, 2048, 4096, 8192]
    };
    let base = ep(
        titan_tasks(counts[0]),
        RuntimeOptions::baseline(),
        EpClass::E64,
    );
    let mut t = Table::new(&["tasks", "IMPACC", "MPI+OpenACC"]);
    for tasks in counts {
        let i = ep(titan_tasks(tasks), RuntimeOptions::impacc(), EpClass::E64);
        let b = ep(titan_tasks(tasks), RuntimeOptions::baseline(), EpClass::E64);
        t.row(vec![
            tasks.to_string(),
            format!("{:.2}x", base / i),
            format!("{:.2}x", base / b),
        ]);
    }
    out.push_str(&format!(
        "Titan, class 64xE (normalized to 128-task MPI+X):\n{}\n",
        t.render()
    ));

    out.push_str(
        "paper: near-linear for big classes, flat for small ones;\n\
         IMPACC == MPI+OpenACC throughout (nothing to optimize).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_e_scales_nearly_linearly_on_psg() {
        let t1 = ep(psg_tasks(1), RuntimeOptions::impacc(), EpClass::E);
        let t8 = ep(psg_tasks(8), RuntimeOptions::impacc(), EpClass::E);
        let speedup = t1 / t8;
        assert!(speedup > 7.5, "class E should be ~linear: {speedup:.2}");
    }

    #[test]
    fn small_class_scales_poorly() {
        let ta1 = ep(psg_tasks(1), RuntimeOptions::impacc(), EpClass::S);
        let ta8 = ep(psg_tasks(8), RuntimeOptions::impacc(), EpClass::S);
        let se = ta1 / ta8;
        let te1 = ep(psg_tasks(1), RuntimeOptions::impacc(), EpClass::E);
        let te8 = ep(psg_tasks(8), RuntimeOptions::impacc(), EpClass::E);
        let le = te1 / te8;
        assert!(
            se < le,
            "class S speedup {se:.2} should trail class E {le:.2}"
        );
    }

    #[test]
    fn models_are_equivalent_for_ep() {
        let i = ep(psg_tasks(8), RuntimeOptions::impacc(), EpClass::C);
        let b = ep(psg_tasks(8), RuntimeOptions::baseline(), EpClass::C);
        let ratio = b / i;
        assert!((0.9..1.15).contains(&ratio), "ratio = {ratio:.3}");
    }
}
