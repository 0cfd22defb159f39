//! Collective sweep binary: payload size × registry algorithm on a
//! multi-rank-per-node cluster; writes `BENCH_coll.json`.
//!
//! Usage: `bench_coll [--quick] [--smoke]`
//!
//! `--smoke` runs the fixed CI check instead of the sweep: the two-level
//! hierarchical allreduce must beat the flat binomial schedule at both a
//! small and a large payload. Any regression panics (nonzero exit).
fn main() {
    impacc_bench::bench_bin("coll", impacc_bench::coll::run, impacc_bench::coll::smoke);
}
