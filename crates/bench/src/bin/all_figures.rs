//! Regenerate every table and figure of the paper's evaluation in one go,
//! writing each section's `BENCH_<name>.json` alongside.
fn main() {
    use impacc_bench::util::bench_main;
    impacc_bench::args_or_exit("all_figures", &[]);
    println!("==== Table 1 ====");
    bench_main("table1", impacc_machine::presets::table1);
    println!("==== Figures 4/5 ====");
    bench_main("fig5", impacc_bench::fig5::run);
    println!("==== Figure 8 ====");
    bench_main("fig8", impacc_bench::fig8::run);
    println!("==== Figure 9 ====");
    bench_main("fig9", impacc_bench::fig9::run);
    println!("==== Figure 10 ====");
    bench_main("fig10", impacc_bench::fig10::run);
    println!("==== Figure 11 ====");
    bench_main("fig11", impacc_bench::fig10::run_fig11);
    println!("==== Figure 12 ====");
    bench_main("fig12", impacc_bench::fig12::run);
    println!("==== Figure 13 ====");
    bench_main("fig13", impacc_bench::fig13::run);
    println!("==== Figure 14 ====");
    bench_main("fig14", impacc_bench::fig13::run_fig14);
    println!("==== Figure 15 ====");
    bench_main("fig15", impacc_bench::fig15::run);
    println!("==== Ablations ====");
    bench_main("ablations", impacc_bench::ablations::run);
}
