//! Render a serve campaign as one table and write `BENCH_<stem>.json`.
//!
//! Usage: `sweep <file.campaign>`, e.g. `sweep campaigns/coll_sweep.campaign`.
//! See `impacc_bench::sweep`.
use std::path::Path;

fn main() {
    let args = impacc_bench::args_or_exit("sweep", &["CAMPAIGN"]);
    let Some(file) = args.word else {
        eprintln!("sweep: needs a campaign file\nusage: sweep CAMPAIGN");
        std::process::exit(2);
    };
    let path = Path::new(&file);
    let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("sweep");
    impacc_bench::util::bench_main(name, || {
        impacc_bench::sweep::run(path).unwrap_or_else(|e| {
            eprintln!("sweep: {e}");
            std::process::exit(1);
        })
    });
}
