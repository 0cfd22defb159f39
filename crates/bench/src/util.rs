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
/// `BENCH_<name>.json` so results can be shape-checked without parsing
/// aligned text. Everything in it is virtual time: two runs of the same
/// binary write the same bytes.
pub struct BenchReport {
    name: String,
    text: String,
    tables: Vec<TableSnapshot>,
}

impl BenchReport {
    /// Run `f` with table capture active and collect its output. Tables are
    /// snapshotted as they render (on this thread); `f`'s return value
    /// becomes the report text.
    pub fn capture(name: &str, f: impl FnOnce() -> String) -> BenchReport {
        CAPTURE.with(|c| *c.borrow_mut() = Some(Vec::new()));
        let text = f();
        let tables = CAPTURE.with(|c| c.borrow_mut().take()).unwrap_or_default();
        BenchReport {
            name: name.to_string(),
            text,
            tables,
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

    /// Serialize as JSON: `{"schema_version", "name", "text",
    /// "tables": [{"header", "rows"}]}`.
    pub fn to_json(&self) -> String {
        use impacc_obs::json::string;
        let list = |cells: &[String]| {
            let cells: Vec<String> = cells.iter().map(|c| string(c)).collect();
            format!("[{}]", cells.join(","))
        };
        let tables: Vec<String> = self
            .tables
            .iter()
            .map(|t| {
                let rows: Vec<String> = t.rows.iter().map(|r| list(r)).collect();
                let header = list(&t.header);
                format!("{{\"header\":{header},\"rows\":[{}]}}", rows.join(","))
            })
            .collect();
        format!(
            "{{\"schema_version\":{},\"name\":{},\"text\":{},\"tables\":[{}]}}",
            impacc_obs::SCHEMA_VERSION,
            string(&self.name),
            string(&self.text),
            tables.join(",")
        )
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
    report.write_or_warn();
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
/// threads, activity queues and the message handlers.
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
        let f = || "just text\n".to_string();
        let j = BenchReport::capture("empty", f).to_json();
        assert_eq!(
            j,
            format!(
                "{{\"schema_version\":{},\"name\":\"empty\",\"text\":\"just text\\n\",\"tables\":[]}}",
                impacc_obs::SCHEMA_VERSION
            )
        );
        assert_eq!(j, BenchReport::capture("empty", f).to_json());
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(64), "64B");
        assert_eq!(fmt_bytes(2048), "2KiB");
        assert_eq!(fmt_bytes(3 << 20), "3MiB");
        assert_eq!(fmt_bytes(1 << 30), "1GiB");
    }
}
