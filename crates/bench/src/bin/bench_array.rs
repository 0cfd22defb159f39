//! Distributed-array sweep binary: halo depth × mesh size over the
//! inferred exchange schedules, plus the runtime-mode comparison;
//! writes `BENCH_array.json`.
//!
//! Usage: `bench_array [--quick] [--smoke]`
//!
//! `--smoke` runs the fixed CI check instead of the sweep: the array
//! jacobi must match the hand-written app bit-for-bit and tick-for-tick
//! in all three runtime modes, halo bytes must scale exactly linearly
//! with exchange depth, and the IMPACC-vs-baseline win must survive the
//! array lowering. Any violation panics (nonzero exit).
fn main() {
    impacc_bench::bench_bin(
        "array",
        impacc_bench::array::run,
        impacc_bench::array::smoke,
    );
}
