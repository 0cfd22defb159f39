//! The two-level hierarchical allreduce against the flat schedules, on
//! `allreduce_rounds` (verified Sum-allreduces: every rank checks the
//! reduced vector bit-exactly) over a 2-node × 4-GPU cluster — eight
//! ranks with real intra-node sharing, so the node phase has something
//! to fold. `Launch::coll_algo` pins the registry entry per run.

use impacc_apps::allreduce_rounds;
use impacc_core::{CollAlgo, Launch, RunSummary, RuntimeOptions};
use impacc_machine::presets;

fn run_coll(algo: Option<CollAlgo>, elems: usize, rounds: u32) -> RunSummary {
    let mut l = Launch::new(presets::test_cluster(2, 4), RuntimeOptions::impacc());
    if let Some(a) = algo {
        l = l.coll_algo(a);
    }
    l.run(move |tc| allreduce_rounds(tc, elems, rounds, 0))
        .expect("coll run")
}

fn metric(s: &RunSummary, key: &str) -> u64 {
    s.report.metrics.get(key).copied().unwrap_or(0)
}

#[test]
fn every_algorithm_survives_the_workload() {
    for algo in [None, Some(CollAlgo::Hier), Some(CollAlgo::Ring)] {
        let s = run_coll(algo, 64, 2);
        assert!(s.elapsed_secs() > 0.0);
    }
}

/// Hierarchical beats the flat binomial schedule at a small (1 KiB) and
/// a large (1 MiB) payload.
#[test]
fn hier_beats_flat_at_small_and_large_payloads() {
    for elems in [128usize, 1 << 17] {
        let flat = run_coll(Some(CollAlgo::Flat), elems, 2).elapsed_secs();
        let hier = run_coll(Some(CollAlgo::Hier), elems, 2).elapsed_secs();
        assert!(
            hier < flat,
            "hierarchical allreduce must beat flat binomial at {elems} elements: \
             {:.2}us vs {:.2}us",
            hier * 1e6,
            flat * 1e6
        );
    }
}

#[test]
fn hier_is_faster_and_phases_are_accounted() {
    let flat = run_coll(Some(CollAlgo::Flat), 1 << 12, 2);
    let hier = run_coll(Some(CollAlgo::Hier), 1 << 12, 2);
    // On two nodes both schedules cross the NIC the same number of
    // times (the leader overlay mirrors the flat tree's internode
    // edges), so the hierarchical win is the node phase: shared-VAS
    // folds instead of per-rank intra-node messaging.
    assert!(
        metric(&hier, "mpi_bytes_sent") <= metric(&flat, "mpi_bytes_sent"),
        "hier must never put more on the wire: {} vs {}",
        metric(&hier, "mpi_bytes_sent"),
        metric(&flat, "mpi_bytes_sent")
    );
    assert!(
        hier.elapsed_secs() < flat.elapsed_secs(),
        "hier {}us vs flat {}us",
        hier.elapsed_secs() * 1e6,
        flat.elapsed_secs() * 1e6
    );
    assert!(metric(&hier, "coll_intra_bytes") > 0);
    assert!(metric(&hier, "coll_inter_bytes") > 0);
    assert_eq!(metric(&flat, "coll_intra_bytes"), 0);
}
