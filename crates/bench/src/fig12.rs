//! Figure 12 — EP speedup: classes A–E on PSG (1–8 tasks), class E on
//! Beacon (up to 128 tasks), the new 64×E class on Titan (128 tasks up).
//!
//! Paper's result: EP is pure compute — near-linear scaling for the large
//! classes, poor strong scaling for small ones (device under-utilization
//! is not modelled, but the fixed launch/reduce overheads produce the
//! same flattening), and **no difference between IMPACC and MPI+OpenACC**.

use impacc_apps::EpClass;

use crate::panel::{figure, App, Panel};
use crate::specs::{beacon_tasks, psg_tasks, titan_tasks};
use crate::util::quick;

/// Figure 12's panels, in print order.
pub fn panels() -> Vec<Panel> {
    let classes = if quick() {
        vec![EpClass::A, EpClass::C]
    } else {
        vec![EpClass::A, EpClass::B, EpClass::C, EpClass::D, EpClass::E]
    };
    let mut panels: Vec<Panel> = classes
        .into_iter()
        .map(|c| {
            let title = format!("PSG, class {c:?}");
            Panel::new(title, psg_tasks, vec![1, 2, 4, 8], App::Ep(c))
        })
        .collect();
    let counts = if quick() {
        vec![1, 8, 32]
    } else {
        vec![1, 2, 4, 8, 16, 32, 64, 128]
    };
    let title = "Beacon, class E".to_string();
    panels.push(Panel::new(title, beacon_tasks, counts, App::Ep(EpClass::E)));
    let counts = if quick() {
        vec![128, 256]
    } else {
        vec![128, 256, 512, 1024, 2048, 4096, 8192]
    };
    let title = "Titan, class 64xE (normalized to 128-task MPI+X)".to_string();
    let e64 = App::Ep(EpClass::E64);
    panels.push(Panel::new(title, titan_tasks, counts, e64));
    panels
}

/// Run Figure 12; returns the rendered report.
pub fn run() -> String {
    figure(
        "Figure 12: EP speedup (over MPI+OpenACC 1-task; Titan over 128-task)\n\n",
        &panels(),
        "paper: near-linear for big classes, flat for small ones;\n\
         IMPACC == MPI+OpenACC throughout (nothing to optimize).\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use impacc_core::RuntimeOptions;

    /// IMPACC's speedup from 1 to 8 PSG tasks.
    fn speedup_1_to_8(class: EpClass) -> f64 {
        let t = |tasks| App::Ep(class).secs(psg_tasks(tasks), RuntimeOptions::impacc());
        t(1) / t(8)
    }

    #[test]
    fn class_e_scales_nearly_linearly_on_psg() {
        let speedup = speedup_1_to_8(EpClass::E);
        assert!(speedup > 7.5, "class E should be ~linear: {speedup:.2}");
    }

    #[test]
    fn small_class_scales_poorly() {
        let se = speedup_1_to_8(EpClass::S);
        let le = speedup_1_to_8(EpClass::E);
        assert!(
            se < le,
            "class S speedup {se:.2} should trail class E {le:.2}"
        );
    }

    #[test]
    fn models_are_equivalent_for_ep() {
        let ep = App::Ep(EpClass::C);
        let i = ep.secs(psg_tasks(8), RuntimeOptions::impacc());
        let b = ep.secs(psg_tasks(8), RuntimeOptions::baseline());
        let ratio = b / i;
        assert!((0.9..1.15).contains(&ratio), "ratio = {ratio:.3}");
    }
}
