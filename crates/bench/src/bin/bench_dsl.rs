//! DSL compiler bench: what the translator inferred, compiled-program
//! parity with the hand-written apps, and JACC-style single-loop device
//! splitting. `--smoke` runs the acceptance checks (panics on violation).

fn main() {
    impacc_bench::bench_bin("dsl", impacc_bench::dsl::run, impacc_bench::dsl::smoke);
}
