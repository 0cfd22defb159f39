//! Collective algorithm sweep — payload size × registry algorithm on a
//! multi-rank-per-node cluster, flat p2p schedules vs the two-level
//! hierarchical path.
//!
//! The workload is `rounds` verified Sum-allreduces (every rank checks
//! the reduced vector bit-exactly, so a row in the table is also a
//! correctness result). `Launch::coll_algo` pins the registry entry per
//! run; the reported elapsed time is virtual, so the sweep is
//! deterministic and byte-reproducible.

use impacc_apps::allreduce_rounds;
use impacc_core::{CollAlgo, Launch, RunSummary, RuntimeOptions};
use impacc_machine::{presets, MachineSpec};

use crate::util::{fmt_bytes, quick, Table};

/// Two nodes, four GPUs each: eight ranks with real intra-node sharing,
/// so the hierarchical path has a node phase worth electing leaders for.
pub fn coll_spec() -> MachineSpec {
    presets::test_cluster(2, 4)
}

/// Run the allreduce workload with one pinned registry algorithm
/// (`None` lets the engine's selection policy decide).
pub fn run_coll(algo: Option<CollAlgo>, elems: usize, rounds: u32) -> RunSummary {
    let mut l = Launch::new(coll_spec(), RuntimeOptions::impacc());
    if let Some(a) = algo {
        l = l.coll_algo(a);
    }
    l.run(move |tc| allreduce_rounds(tc, elems, rounds, 0))
        .expect("coll run")
}

/// The mixed collective workload the chaos-determinism suite replays:
/// small and large allreduces, a communicator split (allgather inside),
/// and barriers, under the engine's own per-call selection — so faults
/// land on both internode collective edges and intra-node folds. `l` is
/// a launch on [`coll_spec`] carrying the caller's fault plan and
/// whatever it observes the run with.
pub fn run_coll_chaos(l: Launch) -> RunSummary {
    l.run(|tc| {
        allreduce_rounds(tc, 16, 2, 0);
        allreduce_rounds(tc, 1 << 14, 1, 0);
        let sub = tc.mpi_comm_split((tc.rank() % 2) as i64, tc.rank() as i64);
        assert_eq!(sub.size(), tc.size() / 2);
        tc.mpi_barrier();
        allreduce_rounds(tc, 256, 1, 0);
        tc.mpi_barrier();
    })
    .expect("coll chaos run")
}

fn metric(s: &RunSummary, key: &str) -> u64 {
    s.report.metrics.get(key).copied().unwrap_or(0)
}

/// Run the payload × algorithm sweep; returns the rendered report.
pub fn run() -> String {
    let mut out = String::from(
        "Collectives: registry algorithms vs payload size (verified Sum-allreduce)\n\
         (test cluster, 2 nodes x 4 GPUs = 8 ranks; elapsed is virtual time)\n\n",
    );
    let sizes: &[usize] = if quick() {
        &[128, 1 << 17]
    } else {
        &[128, 1 << 12, 1 << 17]
    };
    let rounds = if quick() { 2 } else { 4 };
    let algos = [
        CollAlgo::Flat,
        CollAlgo::Binomial,
        CollAlgo::Ring,
        CollAlgo::RecursiveDoubling,
        CollAlgo::Rabenseifner,
        CollAlgo::Hier,
    ];
    let mut t = Table::new(&[
        "payload",
        "algorithm",
        "elapsed",
        "wire bytes",
        "intra bytes",
    ]);
    for &elems in sizes {
        for algo in algos {
            let s = run_coll(Some(algo), elems, rounds);
            t.row(vec![
                fmt_bytes(elems as u64 * 8),
                algo.label().to_string(),
                format!("{:.1}us", s.elapsed_secs() * 1e6),
                metric(&s, "mpi_bytes_sent").to_string(),
                metric(&s, "coll_intra_bytes").to_string(),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push_str(
        "\nthe hierarchical entry folds each node's contributions through the\n\
         shared VAS and puts only one leader per node on the wire, so its\n\
         internode byte count is a node-count problem, not a rank-count one;\n\
         flat schedules pay per-rank messaging at every payload size.\n",
    );
    out
}

/// CI smoke: the hierarchical path must beat the flat binomial schedule
/// on the multi-rank-per-node spec for a small (<=1 KiB) and a large
/// (>=1 MiB) payload. Panics (nonzero exit) on a regression.
pub fn smoke() -> String {
    let mut out = String::from("coll smoke: hier vs flat allreduce\n");
    for elems in [128usize, 1 << 17] {
        let flat = run_coll(Some(CollAlgo::Flat), elems, 2);
        let hier = run_coll(Some(CollAlgo::Hier), elems, 2);
        let (tf, th) = (flat.elapsed_secs(), hier.elapsed_secs());
        assert!(
            th < tf,
            "hierarchical allreduce must beat flat binomial at {}: {:.2}us vs {:.2}us",
            fmt_bytes(elems as u64 * 8),
            th * 1e6,
            tf * 1e6
        );
        out.push_str(&format!(
            "  {:>6}: flat {:.2}us, hier {:.2}us ({:.2}x)\n",
            fmt_bytes(elems as u64 * 8),
            tf * 1e6,
            th * 1e6,
            tf / th
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_algorithm_survives_the_workload() {
        for algo in [None, Some(CollAlgo::Hier), Some(CollAlgo::Ring)] {
            let s = run_coll(algo, 64, 2);
            assert!(s.elapsed_secs() > 0.0);
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

    #[test]
    fn smoke_passes() {
        let out = smoke();
        assert!(out.contains("coll smoke"));
    }
}
