//! # impacc-flight — the always-on flight recorder
//!
//! Post-hoc observability (`impacc-obs` traces, `impacc-prof` reports)
//! only exists when tracing was switched on *before* the interesting run.
//! This crate closes that gap the way an aircraft flight recorder does —
//! and owns no storage to do it:
//!
//! * [`FlightRecorder`] — a handle onto an `impacc_obs::Recorder` span
//!   store plus a window size. [`FlightRecorder::with_capacity`] makes a
//!   *window* store (the last N spans of every actor; attribute closures
//!   run only for faults, retries, markers and anomalies, which is what
//!   bounds the overhead); [`FlightRecorder::view_of`] reads the same
//!   window out of a full trace store, so a traced run still records each
//!   span once.
//! * [`Trigger`]-driven dumps — on panic, job failure, chaos fault burst,
//!   watchdog anomaly or explicit request, [`FlightRecorder::dump`] reads
//!   the window into a [`FlightDump`] whose JSON rendering is
//!   schema-versioned, Chrome-trace loadable (`traceEvents` body) and
//!   byte-identical for the same seed + trigger at every
//!   `IMPACC_PARALLEL` worker count and on either kind of store (actors
//!   sorted, per-actor emission order — how the store keeps them).
//! * [`watchdog`] — rule-based anomaly detection over the engine's
//!   counter vocabulary (retry storms, fault bursts, device loss,
//!   goodput collapse, queue backlog growth, horizon-stall ratio).
//!
//! Recording never advances virtual time and a disabled recorder
//! (capacity 0) is zero-cost: its actors get no lane.

#![warn(missing_docs)]

pub mod watchdog;

pub use watchdog::{Anomaly, Watchdog};

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use impacc_obs::{chrome, json, Recorder, Span};

/// Default per-actor window: the "last moments". 256 spans per actor is
/// enough to attribute a fault cascade while keeping a 1024-actor run
/// under ~10 MB of retained telemetry.
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// Why a flight dump was taken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// The run aborted: engine panic or poisoned simulation.
    Panic(String),
    /// A serve job returned an error result.
    JobFailed(String),
    /// Chaos fault injections crossed the burst threshold.
    FaultBurst {
        /// Faults observed by this recorder.
        fired: u64,
        /// The configured burst threshold.
        threshold: u64,
    },
    /// A watchdog rule fired; carries the rule name.
    Anomaly(String),
    /// Explicitly requested (tooling, tests, operator).
    Request,
}

impl Trigger {
    /// Stable wire label for the trigger class.
    pub fn label(&self) -> &'static str {
        match self {
            Trigger::Panic(_) => "panic",
            Trigger::JobFailed(_) => "job_failed",
            Trigger::FaultBurst { .. } => "fault_burst",
            Trigger::Anomaly(_) => "anomaly",
            Trigger::Request => "request",
        }
    }

    /// Human detail accompanying the label.
    pub fn detail(&self) -> String {
        match self {
            Trigger::Panic(msg) => msg.clone(),
            Trigger::JobFailed(why) => why.clone(),
            Trigger::FaultBurst { fired, threshold } => {
                format!("{fired} faults fired (threshold {threshold})")
            }
            Trigger::Anomaly(rule) => rule.clone(),
            Trigger::Request => String::new(),
        }
    }
}

/// The flight window of a span store: the last `window` spans of each
/// actor. Cloning is cheap; all clones observe the same store. Attach to a
/// run with `impacc_core::Launch::flight` — `Launch` makes one itself
/// unless `IMPACC_FLIGHT=0`.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    store: Recorder,
    window: usize,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new()
    }
}

/// The store this is a window of: `enabled`, `sink`, `last_vtime`,
/// `fault_fires`, `actor_count` and the rest of its reads. A caller that
/// wants the whole run (a profile) calls `retain_all()` before the launch
/// and reads `spans()`/`edges()` afterwards.
impl std::ops::Deref for FlightRecorder {
    type Target = Recorder;
    fn deref(&self) -> &Recorder {
        &self.store
    }
}

impl FlightRecorder {
    /// A recorder on its own window store: at most `capacity` spans per
    /// actor (oldest overwritten first). Capacity 0 builds a permanently
    /// disabled, zero-cost recorder.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            store: Recorder::windowed(capacity),
            window: capacity,
        }
    }

    /// A recorder with [`DEFAULT_RING_CAPACITY`].
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A permanently disabled, zero-cost recorder.
    pub fn disabled() -> FlightRecorder {
        FlightRecorder::with_capacity(0)
    }

    /// The [`DEFAULT_RING_CAPACITY`] window of `store` — a second handle
    /// onto a trace recorder's store, not a second copy of its spans.
    pub fn view_of(store: &Recorder) -> FlightRecorder {
        FlightRecorder {
            store: store.clone(),
            window: DEFAULT_RING_CAPACITY,
        }
    }

    /// Spans older than the window, over all actors (expected in steady
    /// state — the window is *supposed* to forget old history).
    pub fn dropped_total(&self) -> u64 {
        self.store
            .window(self.window)
            .dropped
            .iter()
            .map(|d| d.1)
            .sum()
    }

    /// Record a span by actor name. Used for the watchdog's structured
    /// anomaly events at the end of a run.
    pub fn record_span(&self, span: Span) {
        self.store.record(span);
    }

    /// The window: actors in sorted order, per-actor emission order —
    /// schedule-independent, so the same run yields the same snapshot at
    /// every `IMPACC_PARALLEL` count.
    pub fn snapshot(&self) -> Vec<Span> {
        self.store.window(self.window).spans
    }

    /// Read the window into a dump describing why (`trigger`) and what
    /// (`counters`, `anomalies`) — pure data; call [`FlightDump::write`]
    /// to persist it.
    pub fn dump<K: Into<String>>(
        &self,
        job: &str,
        trigger: Trigger,
        counters: impl IntoIterator<Item = (K, u64)>,
        anomalies: &[Anomaly],
    ) -> FlightDump {
        let window = self.store.window(self.window);
        FlightDump {
            job: job.to_string(),
            campaign: String::new(),
            trigger,
            end_ps: self.store.last_vtime().0,
            spans: window.spans,
            dropped: window.dropped,
            counters: counters.into_iter().map(|(k, v)| (k.into(), v)).collect(),
            anomalies: anomalies.to_vec(),
        }
    }

    /// The dump of a finished run, given the watchdog's `findings` over it.
    /// Trigger precedence: a fault burst (at least
    /// [`watchdog::FAULT_BURST_THRESHOLD`] faults fired into this store)
    /// explains its own anomalies, so it comes first; then the first
    /// deterministic finding; then a plain request. Only the deterministic
    /// findings are embedded in the bytes (DESIGN.md §5j): live-only rules
    /// stay live-only. `Launch` dumps a run through this and nothing else
    /// picks that trigger.
    pub fn dump_run<K: Into<String>>(
        &self,
        job: &str,
        counters: impl IntoIterator<Item = (K, u64)>,
        findings: &[Anomaly],
    ) -> FlightDump {
        let (fired, threshold) = (self.fault_fires(), watchdog::FAULT_BURST_THRESHOLD);
        let trigger = if fired >= threshold {
            Trigger::FaultBurst { fired, threshold }
        } else if let Some(a) = findings.iter().find(|a| a.deterministic) {
            Trigger::Anomaly(a.rule.to_string())
        } else {
            Trigger::Request
        };
        let kept: Vec<Anomaly> = findings
            .iter()
            .filter(|a| a.deterministic)
            .cloned()
            .collect();
        self.dump(job, trigger, counters, &kept)
    }
}

/// A drained flight window plus the context that triggered it. Render
/// with [`FlightDump::to_json`] (deterministic: same retained window +
/// same trigger ⇒ identical bytes).
#[derive(Clone, Debug)]
pub struct FlightDump {
    /// Job/run label; becomes the `FLIGHT_<job>.json` file name.
    pub job: String,
    /// Owning campaign id, when the job came from a campaign ("" if not).
    pub campaign: String,
    /// Why the dump was taken.
    pub trigger: Trigger,
    /// Highest virtual time the recorder observed, in picoseconds.
    pub end_ps: u64,
    /// The retained window: actors sorted, per-actor emission order.
    pub spans: Vec<Span>,
    /// Per-actor overwrite tallies (actors with none are omitted).
    pub dropped: Vec<(String, u64)>,
    /// Counter snapshot supplied by the caller (engine metrics).
    pub counters: BTreeMap<String, u64>,
    /// Watchdog findings accompanying the dump.
    pub anomalies: Vec<Anomaly>,
}

impl FlightDump {
    /// Attach the owning campaign id.
    pub fn with_campaign(mut self, campaign: &str) -> FlightDump {
        self.campaign = campaign.to_string();
        self
    }

    /// Total spans overwritten before the dump.
    pub fn events_dropped(&self) -> u64 {
        self.dropped.iter().map(|(_, d)| d).sum()
    }

    /// The dump's file name: `FLIGHT_<job>.json` with path-hostile
    /// characters in the label replaced by `_`.
    pub fn file_name(&self) -> String {
        let safe: String = self
            .job
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        format!("FLIGHT_{safe}.json")
    }

    /// Deterministic JSON rendering. The document doubles as a Chrome
    /// trace: the trailing `displayTimeUnit`/`traceEvents` members are the
    /// standard trace-document body, so `about://tracing` loads the file
    /// as-is and simply ignores the flight header fields.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"schema_version\":{},\"kind\":\"flight\"",
            impacc_obs::SCHEMA_VERSION
        ));
        out.push_str(",\"job\":");
        out.push_str(&json::string(&self.job));
        out.push_str(",\"campaign\":");
        out.push_str(&json::string(&self.campaign));
        out.push_str(",\"trigger\":");
        out.push_str(&json::string(self.trigger.label()));
        out.push_str(",\"trigger_detail\":");
        out.push_str(&json::string(&self.trigger.detail()));
        out.push_str(&format!(",\"end_ps\":{}", self.end_ps));
        out.push_str(&format!(",\"events_retained\":{}", self.spans.len()));
        out.push_str(&format!(",\"events_dropped\":{}", self.events_dropped()));
        out.push_str(",\"dropped_by_actor\":{");
        for (i, (actor, d)) in self.dropped.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json::string(actor));
            out.push_str(&format!(":{d}"));
        }
        out.push_str("},\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json::string(k));
            out.push_str(&format!(":{v}"));
        }
        out.push_str("},\"anomalies\":[");
        for (i, a) in self.anomalies.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&a.to_json());
        }
        out.push_str("],");
        // Chrome-trace body: reuse the canonical exporter and splice its
        // members into this object (drop the exporter's own `{`).
        let chrome_doc = chrome::trace(&self.spans);
        out.push_str(chrome_doc.strip_prefix('{').unwrap_or(&chrome_doc));
        debug_assert!(chrome::structurally_valid(&out));
        out
    }

    /// Write `FLIGHT_<job>.json` atomically (tmp + rename) into `dir`,
    /// creating it as needed. Returns the final path.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        let tmp = dir.join(format!(".{}.tmp", self.file_name()));
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impacc_obs::EventKind;
    use impacc_vtime::SimTime;

    fn sink_span(fr: &FlightRecorder, actor: &str, label: &'static str, t0: u64, t1: u64) {
        fr.sink()
            .lane(actor)
            .span(label, SimTime(t0), SimTime(t1), &mut Vec::new);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let fr = FlightRecorder::disabled();
        assert!(!fr.enabled());
        fr.sink()
            .lane("a")
            .span("fault", SimTime(0), SimTime(1), &mut || {
                panic!("attrs evaluated on a disabled recorder")
            });
        assert_eq!(fr.snapshot().len(), 0);
        assert_eq!(fr.fault_fires(), 0);
    }

    #[test]
    fn view_of_a_trace_store_dumps_what_a_window_store_dumps() {
        let feed = |fr: &FlightRecorder| {
            for i in 0..300u64 {
                sink_span(fr, "rank0", "kernel", i, i + 1);
            }
            sink_span(fr, "rank1", "fault", 7, 7);
            fr.dump("unit", Trigger::Request, [("retries", 3u64)], &[])
        };
        let rec = Recorder::new();
        let (window, view) = (FlightRecorder::new(), FlightRecorder::view_of(&rec));
        let (a, b) = (feed(&window), feed(&view));
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.events_dropped(), 300 - DEFAULT_RING_CAPACITY as u64);
        assert_eq!(window.dropped_total(), view.dropped_total());
        assert_eq!(window.snapshot(), view.snapshot());
        assert_eq!(rec.span_count(), 301, "the store itself keeps the run");
        assert!(view.same_store(&rec));
    }

    #[test]
    fn dump_json_is_schema_versioned_chrome_loadable_and_deterministic() {
        let make = || {
            let fr = FlightRecorder::with_capacity(2);
            sink_span(&fr, "rank0", "kernel", 0, 10);
            sink_span(&fr, "rank0", "fault", 10, 10);
            sink_span(&fr, "rank0", "retry", 10, 20);
            sink_span(&fr, "rank1", "kernel", 0, 5);
            fr.dump(
                "unit",
                Trigger::FaultBurst {
                    fired: 1,
                    threshold: 1,
                },
                [("retries", 3u64)],
                &[],
            )
        };
        let d1 = make();
        let d2 = make();
        assert_eq!(d1.to_json(), d2.to_json(), "same window ⇒ same bytes");
        let doc = d1.to_json();
        assert!(doc.starts_with(&format!(
            "{{\"schema_version\":{},\"kind\":\"flight\"",
            impacc_obs::SCHEMA_VERSION
        )));
        assert!(doc.contains("\"trigger\":\"fault_burst\""));
        assert!(doc.contains("\"traceEvents\":["));
        assert!(doc.contains("\"counters\":{\"retries\":3}"));
        assert!(chrome::structurally_valid(&doc));
        // rank0's ring (cap 2) overwrote the kernel span: the retained
        // window ends with the fault/retry pair — the final moments.
        assert_eq!(d1.events_dropped(), 1);
        let rank0: Vec<EventKind> = d1
            .spans
            .iter()
            .filter(|s| s.actor == "rank0")
            .map(|s| s.kind)
            .collect();
        assert_eq!(rank0, vec![EventKind::Fault, EventKind::Retry]);
    }

    #[test]
    fn dump_write_is_atomic_and_named_by_job() {
        let dir = std::env::temp_dir().join(format!("impacc_flight_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fr = FlightRecorder::with_capacity(4);
        sink_span(&fr, "a", "kernel", 0, 1);
        let dump = fr.dump::<String>("job/../weird name", Trigger::Request, [], &[]);
        let path = dump.write(&dir).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "FLIGHT_job____weird_name.json"
        );
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, dump.to_json());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
