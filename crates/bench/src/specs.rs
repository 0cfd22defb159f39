//! Cluster-sizing helpers: build machine specs that host exactly `t` tasks.

use impacc_machine::{presets, MachineSpec};

/// Builds a machine hosting exactly the given number of tasks.
pub type Machine = fn(usize) -> MachineSpec;

/// PSG sized for `t ≤ 8` tasks (one node, `t` GPUs).
pub fn psg_tasks(t: usize) -> MachineSpec {
    assert!((1..=8).contains(&t));
    let mut spec = presets::psg();
    spec.nodes[0].devices.truncate(t);
    spec
}

/// Beacon sized for `t` tasks (4 MICs per node; the last node is trimmed).
pub fn beacon_tasks(t: usize) -> MachineSpec {
    assert!(t >= 1);
    let nodes = t.div_ceil(4);
    let mut spec = presets::beacon(nodes);
    let last = t - (nodes - 1) * 4;
    spec.nodes[nodes - 1].devices.truncate(last);
    spec
}

/// Titan sized for `t` tasks (one K20x per node).
pub fn titan_tasks(t: usize) -> MachineSpec {
    presets::titan(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use impacc_core::Launch;
    use impacc_machine::DeviceTypeMask;

    fn task_count(spec: MachineSpec) -> usize {
        Launch::plan(&spec, DeviceTypeMask::DEFAULT, true).1.len()
    }

    #[test]
    fn specs_host_exact_task_counts() {
        assert_eq!(task_count(psg_tasks(1)), 1);
        assert_eq!(task_count(psg_tasks(8)), 8);
        assert_eq!(task_count(beacon_tasks(1)), 1);
        assert_eq!(task_count(beacon_tasks(6)), 6);
        assert_eq!(task_count(beacon_tasks(128)), 128);
        assert_eq!(task_count(titan_tasks(27)), 27);
    }
}
