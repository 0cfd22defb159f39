//! Table 1: the target heterogeneous accelerator systems.
fn main() {
    impacc_bench::figure_bin("table1", &[], |_| {
        format!(
            "Table 1: target systems (as modelled)\n\n{}",
            impacc_machine::presets::table1()
        )
    });
}
