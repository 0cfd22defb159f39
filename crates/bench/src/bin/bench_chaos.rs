//! Chaos sweep binary: fault rate vs completion time/goodput plus the
//! device-loss remap scenario; writes `BENCH_chaos.json`.
//!
//! Usage: `bench_chaos [--quick] [--smoke]`
//!
//! `--smoke` runs the fixed-seed CI check instead of the sweep: a faulted
//! exchange must complete bit-correct with `retries > 0`, and a device-loss
//! run must finish via remap. Any violation panics (nonzero exit).
fn main() {
    impacc_bench::bench_bin(
        "chaos",
        impacc_bench::chaos::run,
        impacc_bench::chaos::smoke,
    );
}
