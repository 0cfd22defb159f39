//! Regenerate every table and figure of the paper's evaluation in one go,
//! writing each section's `BENCH_<name>.json` alongside.
fn main() {
    impacc_bench::args_or_exit("all_figures", &[]);
    for (name, heading, run) in impacc_bench::FIGURES {
        println!("==== {heading} ====");
        impacc_bench::util::bench_main(name, run);
    }
}
