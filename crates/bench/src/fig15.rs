//! Figure 15 — LULESH weak scaling: task counts are perfect cubes
//! (1, 8, 27, 64, 125, 1000, 3375, 8000), per-task problem size fixed.
//!
//! Paper's shape: on a PSG node IMPACC wins (NUMA pinning + message fusion
//! without inter-process communication); on Beacon IMPACC is ~5% *slower*
//! (nothing to fuse profitably in host-to-host internode traffic, plus
//! message-command/handler overhead); at large Titan scales both are
//! kernel-dominated and weak-scale almost linearly.

use crate::panel::{figure, App, Form, Panel};
use crate::specs::{beacon_tasks, psg_tasks, titan_tasks};
use crate::util::quick;

/// Figure 15's panels, in print order.
pub fn panels() -> Vec<Panel> {
    // Per-system per-task problem sizes, like the paper (whose Figure 15
    // graph titles differ per system: the 12 GB PSG GPUs take larger
    // per-task problems than the 8 GB Beacon MICs).
    let (s_psg, s_beacon, s_titan) = if quick() { (16, 8, 8) } else { (48, 20, 32) };
    let iters = if quick() { 2 } else { 4 };
    let panel = |title: &str, machine, counts, s| Panel {
        form: Form::TimeRatio,
        ..Panel::new(title.into(), machine, counts, App::Lulesh(s, iters))
    };
    // PSG: a single node fits 1 and 8 tasks; Beacon: cubes up to 125
    // tasks over 32 nodes; Titan: large cubes.
    let (beacon, titan) = if quick() {
        (vec![1, 8], vec![125, 216])
    } else {
        (
            vec![1, 8, 27, 64, 125],
            vec![125, 216, 512, 1000, 3375, 8000],
        )
    };
    vec![
        panel("PSG", psg_tasks, vec![1, 8], s_psg),
        panel("Beacon", beacon_tasks, beacon, s_beacon),
        panel(
            "Titan (normalized to 125-task MPI+X)",
            titan_tasks,
            titan,
            s_titan,
        ),
    ]
}

/// Run Figure 15; returns the rendered report.
pub fn run() -> String {
    figure(
        "Figure 15: LULESH weak scaling (PSG 48^3, Beacon 20^3, Titan 32^3 per task)\n\
         (time normalized to MPI+OpenACC 1-task; weak scaling => flat is ideal)\n\n",
        &panels(),
        "paper: IMPACC faster on PSG (pinning + fusion), ~5% slower on Beacon\n\
         (handler/message-command overhead, nothing to fuse), both ~linear on\n\
         Titan at large problem sizes.\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use impacc_core::RuntimeOptions;

    #[test]
    fn psg_single_node_impacc_wins() {
        // Paper-scale per-task problem: faces are large enough that fused
        // single copies beat the message-command overhead.
        let lulesh = App::Lulesh(48, 4);
        let i = lulesh.secs(psg_tasks(8), RuntimeOptions::impacc());
        let b = lulesh.secs(psg_tasks(8), RuntimeOptions::baseline());
        assert!(i < b, "IMPACC {i} vs baseline {b}");
    }

    #[test]
    fn beacon_multinode_gap_is_small() {
        // 27 tasks over 7 Beacon nodes: mostly internode host-to-host.
        // The paper reports IMPACC ~5% behind; accept anything from a
        // small win to ~15% behind.
        let lulesh = App::Lulesh(12, 4);
        let i = lulesh.secs(beacon_tasks(27), RuntimeOptions::impacc());
        let b = lulesh.secs(beacon_tasks(27), RuntimeOptions::baseline());
        let ratio = i / b;
        assert!(
            (0.85..1.2).contains(&ratio),
            "Beacon LULESH should be a wash, IMPACC/baseline = {ratio:.3}"
        );
    }
}
