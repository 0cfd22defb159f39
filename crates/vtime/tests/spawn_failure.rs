//! A thread the OS refuses to start is a typed error, not a panic that
//! strands the run. The only test in this binary on purpose: it counts the
//! process's threads, which other tests running beside it would move.

use impacc_vtime::{Sim, SimConfig, SimDur, SimError};

fn os_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line");
    line.trim().parse().expect("thread count")
}

#[test]
fn unmappable_stack_is_a_typed_error_and_leaks_no_thread() {
    for parallelism in [1, 4] {
        let before = os_threads();
        let mut sim = Sim::with_config(SimConfig {
            stack_size: 1 << 60,
            parallelism,
            lookahead: SimDur::from_ns(10),
            ..SimConfig::default()
        });
        for i in 0..8 {
            sim.spawn(format!("t{i}"), |ctx| ctx.advance(SimDur::from_ns(1), "w"));
        }
        match sim.run() {
            Err(SimError::Spawn { actor, message }) => {
                assert_eq!(actor, "t0", "the first spawn is the one refused");
                assert!(!message.is_empty());
            }
            other => panic!("parallelism {parallelism}: expected a spawn error, got {other:?}"),
        }
        assert_eq!(
            os_threads(),
            before,
            "parallelism {parallelism}: actor threads outlived the failed run"
        );
    }
}
