//! Shared harness utilities: sweeps, tables, measurement helpers, and the
//! machine-readable `BENCH_<name>.json` report every binary emits.

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::Arc;

use impacc_core::RunSummary;
use parking_lot::Mutex;

/// Quick mode trims sweeps for CI (`IMPACC_BENCH_QUICK=1`).
pub fn quick() -> bool {
    impacc_core::config::bench_quick()
}

/// Full mode unlocks the largest Titan-scale points
/// (`IMPACC_BENCH_FULL=1`); they spawn tens of thousands of actor threads.
pub fn full() -> bool {
    impacc_core::config::bench_full()
}

/// Geometric size sweep `[from, to]` multiplying by `factor`.
pub fn size_sweep(from: u64, to: u64, factor: u64) -> Vec<u64> {
    let mut v = Vec::new();
    let mut s = from;
    while s <= to {
        v.push(s);
        s *= factor;
    }
    v
}

/// Bytes/second over a span, in GB/s.
pub fn gbps(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / secs / 1e9
}

/// `struct rusage` on 64-bit Linux: two timevals (two longs each), then
/// fourteen longs ending in `ru_nvcsw`, `ru_nivcsw`.
#[repr(C)]
struct RawRusage([i64; 18]);

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

/// Voluntary plus involuntary context switches of the whole process so
/// far, live and already-joined threads alike (`getrusage(RUSAGE_SELF)`) —
/// the definition behind the repo benchmark's
/// `vtime.ctx_switches_per_event`. Diff around a measured section.
pub fn ctx_switches() -> u64 {
    let mut raw = RawRusage([0; 18]);
    // SAFETY: `raw` is a live, writable buffer laid out as `struct rusage`;
    // 0 is RUSAGE_SELF.
    if unsafe { getrusage(0, &mut raw) } != 0 {
        return 0;
    }
    (raw.0[16] + raw.0[17]) as u64
}

/// Human-readable byte count for table headers.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{}GiB", b >> 30)
    } else if b >= 1 << 20 {
        format!("{}MiB", b >> 20)
    } else if b >= 1 << 10 {
        format!("{}KiB", b >> 10)
    } else {
        format!("{b}B")
    }
}

/// A simple aligned text table.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// The column headers.
    pub fn columns(&self) -> &[String] {
        &self.header
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Render with aligned columns. While a [`BenchReport::capture`] is
    /// active on this thread, rendering also snapshots the table into the
    /// report, so figure code needs no changes to feed the JSON dump.
    pub fn render(&self) -> String {
        CAPTURE.with(|c| {
            if let Some(tables) = c.borrow_mut().as_mut() {
                tables.push(TableSnapshot {
                    header: self.header.clone(),
                    rows: self.rows.clone(),
                });
            }
        });
        self.render_text()
    }

    fn render_text(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

thread_local! {
    /// Active table collector for [`BenchReport::capture`].
    static CAPTURE: RefCell<Option<Vec<TableSnapshot>>> = const { RefCell::new(None) };
    /// Active extra-field collector for [`BenchReport::capture`].
    static EXTRAS: RefCell<Option<Vec<(String, f64)>>> = const { RefCell::new(None) };
}

/// Publish an extra top-level numeric field into the active
/// [`BenchReport::capture`] (e.g. `bench_serve`'s throughput, p50/p99
/// latency and cache-hit rate). Outside a capture this is a no-op. A key
/// reported twice keeps the last value.
pub fn report_extra(key: &str, value: f64) {
    EXTRAS.with(|e| {
        if let Some(extras) = e.borrow_mut().as_mut() {
            if let Some(slot) = extras.iter_mut().find(|(k, _)| k == key) {
                slot.1 = value;
            } else {
                extras.push((key.to_string(), value));
            }
        }
    });
}

/// A rendered table captured for the machine-readable report.
#[derive(Clone, Debug)]
pub struct TableSnapshot {
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

/// A machine-readable record of one bench binary's output: the full text
/// report plus every table it rendered, as structured rows. Written to
/// `BENCH_<name>.json` so the perf trajectory can shape-check results
/// without parsing aligned text.
pub struct BenchReport {
    name: String,
    text: String,
    tables: Vec<TableSnapshot>,
    /// Wall-clock of the captured section, in milliseconds.
    wall_ms: f64,
    /// Engine events dispatched per wall-clock second during the capture
    /// (all simulations run by `f`, summed) — the perf trajectory number.
    events_per_sec: f64,
    /// Extra top-level numeric fields published via [`report_extra`]
    /// during the capture, in publish order.
    extras: Vec<(String, f64)>,
}

impl BenchReport {
    /// Run `f` with table capture active and collect its output. Tables are
    /// snapshotted as they render (on this thread); `f`'s return value
    /// becomes the report text. The capture also measures wall-clock time
    /// and engine throughput (events/sec) over the section.
    pub fn capture(name: &str, f: impl FnOnce() -> String) -> BenchReport {
        CAPTURE.with(|c| *c.borrow_mut() = Some(Vec::new()));
        EXTRAS.with(|e| *e.borrow_mut() = Some(Vec::new()));
        let events0 = impacc_vtime::global_events();
        let t0 = std::time::Instant::now();
        let text = f();
        let wall = t0.elapsed();
        let events = impacc_vtime::global_events() - events0;
        let tables = CAPTURE.with(|c| c.borrow_mut().take()).unwrap_or_default();
        let extras = EXTRAS.with(|e| e.borrow_mut().take()).unwrap_or_default();
        let secs = wall.as_secs_f64();
        // Test hook for the CI perf gate: `IMPACC_PERF_INJECT_SLOWDOWN=2`
        // divides reported throughput by 2, simulating a regression so the
        // gate's failure path can be exercised without slowing anything.
        let inject = impacc_core::config::perf_inject_slowdown();
        BenchReport {
            name: name.to_string(),
            text,
            tables,
            wall_ms: secs * 1e3,
            events_per_sec: if secs > 0.0 {
                events as f64 / secs / inject
            } else {
                0.0
            },
            extras,
        }
    }

    /// The human-readable report text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The captured tables, in render order.
    pub fn tables(&self) -> &[TableSnapshot] {
        &self.tables
    }

    /// Wall-clock of the captured section, in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.wall_ms
    }

    /// Engine events per wall-clock second over the captured section.
    pub fn events_per_sec(&self) -> f64 {
        self.events_per_sec
    }

    /// Extra top-level fields published via [`report_extra`] during the
    /// capture.
    pub fn extras(&self) -> &[(String, f64)] {
        &self.extras
    }

    /// Serialize as JSON: `{"schema_version", "name", "text",
    /// "tables": [{"header", "rows"}], "wall_ms", "events_per_sec"}` plus
    /// one top-level key per [`report_extra`] field.
    pub fn to_json(&self) -> String {
        use impacc_obs::json;
        let mut out = format!(
            "{{\"schema_version\":{},\"name\":",
            impacc_obs::SCHEMA_VERSION
        );
        out.push_str(&json::string(&self.name));
        out.push_str(",\"text\":");
        out.push_str(&json::string(&self.text));
        out.push_str(",\"tables\":[");
        for (i, t) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"header\":[");
            for (j, h) in t.header.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json::string(h));
            }
            out.push_str("],\"rows\":[");
            for (j, row) in t.rows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('[');
                for (k, cell) in row.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push_str(&json::string(cell));
                }
                out.push(']');
            }
            out.push_str("]}");
        }
        out.push_str("],\"wall_ms\":");
        out.push_str(&format!("{:.3}", self.wall_ms));
        out.push_str(",\"events_per_sec\":");
        out.push_str(&format!("{:.0}", self.events_per_sec));
        for (k, v) in &self.extras {
            out.push(',');
            out.push_str(&json::string(k));
            out.push(':');
            out.push_str(&json::number(*v));
        }
        out.push('}');
        out
    }

    /// Where the report is written: `$IMPACC_BENCH_DIR` when set, else the
    /// current directory.
    pub fn path(&self) -> PathBuf {
        impacc_core::config::bench_dir().join(format!("BENCH_{}.json", self.name))
    }

    /// Write `BENCH_<name>.json`, warning (not failing) on I/O errors so a
    /// read-only working directory never breaks a figure run.
    pub fn write_or_warn(&self) {
        let path = self.path();
        if let Err(e) = std::fs::write(&path, self.to_json()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// Shared entry point for bench binaries: run the figure, print its text
/// report, and persist the machine-readable `BENCH_<name>.json`.
pub fn bench_main(name: &str, f: impl FnOnce() -> String) {
    let report = BenchReport::capture(name, f);
    println!("{}", report.text());
    println!(
        "[{}] wall: {:.1} ms, engine throughput: {:.0} events/sec",
        name,
        report.wall_ms(),
        report.events_per_sec()
    );
    report.write_or_warn();
}

/// Parse a `--trace <path>` (or `--trace=<path>`) flag from the binary's
/// command line, for the figures that can dump Chrome traces.
pub fn trace_arg() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace" {
            match args.next() {
                Some(p) => return Some(p),
                None => {
                    eprintln!("warning: --trace needs a path argument; ignoring");
                    return None;
                }
            }
        }
        if let Some(p) = a.strip_prefix("--trace=") {
            return Some(p.to_string());
        }
    }
    None
}

/// A shared slot apps write per-run measurements into.
pub type Probe<T> = Arc<Mutex<Option<T>>>;

/// A fresh probe.
pub fn probe<T>() -> Probe<T> {
    Arc::new(Mutex::new(None))
}

/// Communication time of a run: MPI call/wait time across actors plus
/// host-to-host transfer time.
pub fn comm_secs(s: &RunSummary) -> f64 {
    ["mpi_call", "handler"]
        .iter()
        .map(|t| s.report.tag_total(t).as_secs_f64())
        .sum::<f64>()
        + metric_secs(s, "t_HtoH")
}

/// Picoseconds recorded under a `t_*` copy-time metric, as seconds.
pub fn metric_secs(s: &RunSummary, key: &'static str) -> f64 {
    s.report.metrics.get(key).copied().unwrap_or(0) as f64 / 1e12
}

/// Total device-copy time (all PCIe directions), aggregated across task
/// threads, queue daemons and the message handlers.
pub fn copy_secs(s: &RunSummary) -> f64 {
    metric_secs(s, "t_HtoD") + metric_secs(s, "t_DtoH") + metric_secs(s, "t_DtoD")
}

/// Total kernel time, summed over actors.
pub fn kernel_secs(s: &RunSummary) -> f64 {
    s.report.tag_total("kernel").as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_geometric_inclusive() {
        assert_eq!(size_sweep(64, 4096, 4), vec![64, 256, 1024, 4096]);
        assert_eq!(size_sweep(8, 8, 2), vec![8]);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["size", "GB/s"]);
        t.row(vec!["64B".into(), "1.5".into()]);
        t.row(vec!["1GiB".into(), "11.9".into()]);
        let s = t.render();
        assert!(s.contains("size"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn capture_snapshots_rendered_tables() {
        let r = BenchReport::capture("t", || {
            let mut t = Table::new(&["a", "b"]);
            t.row(vec!["1".into(), "2".into()]);
            let text = t.render();
            let mut t2 = Table::new(&["c"]);
            t2.row(vec!["\"quoted\"".into()]);
            text + &t2.render()
        });
        assert_eq!(r.tables().len(), 2);
        assert_eq!(r.tables()[0].header, vec!["a", "b"]);
        assert_eq!(r.tables()[1].rows[0][0], "\"quoted\"");
        let j = r.to_json();
        let prefix = format!(
            "{{\"schema_version\":{},\"name\":\"t\"",
            impacc_obs::SCHEMA_VERSION
        );
        assert!(j.starts_with(&prefix), "got: {j}");
        assert!(j.contains("\"header\":[\"a\",\"b\"]"));
        assert!(j.contains("\\\"quoted\\\""));
        // Capture is deactivated afterwards: renders outside don't leak in.
        let mut t3 = Table::new(&["x"]);
        t3.row(vec!["y".into()]);
        let _ = t3.render();
        assert_eq!(r.tables().len(), 2);
    }

    #[test]
    fn report_without_tables_is_valid_json() {
        let r = BenchReport::capture("empty", || "just text\n".to_string());
        let j = r.to_json();
        // Wall time varies run to run; check structure, not exact bytes.
        let prefix = format!(
            "{{\"schema_version\":{},\"name\":\"empty\",\"text\":\"just text\\n\",\"tables\":[]",
            impacc_obs::SCHEMA_VERSION
        );
        assert!(j.starts_with(&prefix), "got: {j}");
        assert!(j.contains(",\"wall_ms\":"));
        assert!(j.contains(",\"events_per_sec\":"));
        assert!(j.ends_with('}'));
    }

    #[test]
    fn extras_become_top_level_fields() {
        let r = BenchReport::capture("x", || {
            report_extra("p50_ms", 1.5);
            report_extra("cache_hit_rate", 0.25);
            report_extra("p50_ms", 2.5); // republish keeps the last value
            "t\n".to_string()
        });
        assert_eq!(
            r.extras(),
            &[
                ("p50_ms".to_string(), 2.5),
                ("cache_hit_rate".to_string(), 0.25)
            ]
        );
        let j = r.to_json();
        assert!(j.contains(",\"p50_ms\":2.5"), "got: {j}");
        assert!(j.contains(",\"cache_hit_rate\":0.25"));
        // Outside a capture, publishing is a no-op.
        report_extra("orphan", 1.0);
        assert!(!r.to_json().contains("orphan"));
    }

    #[test]
    fn capture_measures_engine_throughput() {
        let r = BenchReport::capture("speedy", || {
            let mut sim = impacc_vtime::Sim::new();
            sim.spawn("a", |ctx| {
                for _ in 0..100 {
                    ctx.advance(impacc_vtime::SimDur::from_ns(1), "w");
                }
            });
            sim.run().unwrap();
            "ran\n".to_string()
        });
        assert!(r.events_per_sec() > 0.0, "a run inside capture must count");
        assert!(r.wall_ms() >= 0.0);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(64), "64B");
        assert_eq!(fmt_bytes(2048), "2KiB");
        assert_eq!(fmt_bytes(3 << 20), "3MiB");
        assert_eq!(fmt_bytes(1 << 30), "1GiB");
    }
}
