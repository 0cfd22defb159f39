//! # impacc-obs — structured observability for the IMPACC runtime
//!
//! The paper's evaluation (§4, Figures 5/11/14) is an exercise in
//! *attributing virtual time to causes*: host stalls, copy kinds
//! (HtoH/HtoD/DtoH/DtoD), kernel execution, message fusion, heap aliasing.
//! This crate is the substrate for those attributions:
//!
//! * [`Span`] / [`EventKind`] — typed time spans;
//! * [`Recorder`] — the stack's one span store, one bounded ring per
//!   actor: the engine registers each actor once
//!   (`impacc_vtime::SpanSink::lane`) and every span goes straight into
//!   that actor's ring, so reads come back actors sorted, per-actor
//!   emission order under any schedule. Retention is fixed before the run:
//!   *full* ([`Recorder::new`]: every span with attributes, plus causal
//!   [`Edge`]s) for traces and profiles, or a *window*
//!   ([`Recorder::windowed`]: the last `n` spans per actor, attributes for
//!   the rare kinds only, no edges) for the always-on flight recorder —
//!   and [`Recorder::window`] reads the second out of the first, so a
//!   traced run records each span once;
//! * exporters — [`chrome::trace`] (Chrome `about://tracing` JSON with one
//!   lane per task/queue/handler actor) and [`breakdown`] text tables
//!   reproducing the Fig 11/14 normalized stacks directly from spans.
//!
//! Recording is zero-cost when disabled: a [`Recorder`] built with
//! capacity 0 reports `enabled() == false`, so its actors get no lane and
//! `Ctx::span` callers never evaluate their attribute closures. Virtual
//! times are bit-identical with recording on or off — the recorder only
//! observes, it never advances the clock. The crate keeps spans, not
//! counters: the engine's `Metrics` is the stack's one counter registry.

#![warn(missing_docs)]

pub mod breakdown;
pub mod chrome;
pub mod json;
mod recorder;

pub use recorder::{Recorder, Window};

pub use impacc_vtime::{SpanLane, SpanSink};

use impacc_vtime::{SimDur, SimTime};

/// Schema version stamped into every machine-readable artifact the stack
/// emits (`BENCH_*.json`, `PROF_*.json`, serve job results). Downstream
/// tooling — most importantly the `impacc-serve` content-addressed result
/// cache — rejects artifacts whose version differs from its own, so a
/// schema change can never resurface a stale cached result as fresh.
///
/// History: artifacts written before the field existed are implicitly
/// version `1`; `2` introduced the explicit field (old readers that
/// ignore unknown keys keep working — the bump is additive).
pub const SCHEMA_VERSION: u32 = 2;

/// The closed set of span kinds the runtime emits.
///
/// Labels match the engine's accounting tags (`"HtoD"`, `"kernel"`, ...),
/// so spans, per-actor tag accounting and the `Metrics` counters all speak
/// the same vocabulary.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EventKind {
    /// Device kernel execution.
    Kernel,
    /// Host-to-host copy (intra-node staging, fused host messages).
    CopyHtoH,
    /// Host-to-device copy over PCIe.
    CopyHtoD,
    /// Device-to-host copy over PCIe.
    CopyDtoH,
    /// Device-to-device copy (PCIe peer-to-peer or same-device move).
    CopyDtoD,
    /// An MPI send entering the runtime (unified or system path).
    MpiSend,
    /// An MPI receive completing.
    MpiRecv,
    /// A collective operation (barrier, bcast, allreduce, ...).
    MpiColl,
    /// The intra-node phase of a hierarchical collective: shared-memory
    /// reduction folds and result copies through the node VAS
    /// (`impacc-coll`).
    CollIntra,
    /// The node handler fused an intra-node send/recv pair (§3.7).
    Fuse,
    /// A heap-aliasing decision on a fused host message (§3.8):
    /// the `outcome` attr distinguishes hits from misses.
    Alias,
    /// Time an operation sat in an activity queue before executing (§3.6).
    QueueWait,
    /// A command processed by the node message handler.
    HandlerCmd,
    /// Scheduler-observed blocked time, tagged with the blocking cause.
    Stall,
    /// An injected fault firing (`impacc-chaos`); the `site` attr names
    /// the injection site.
    Fault,
    /// A recovery action absorbing a fault: resend backoff, copy
    /// re-attempt, staged-path fallback (`impacc-chaos`).
    Retry,
    /// Free-form annotation (phase changes, pinning placement, app marks).
    Marker,
    /// A watchdog rule firing (`impacc-flight`): structured detection of
    /// retry storms, fault bursts, queue backlog growth and the like. The
    /// `rule` attr names the detector; `value`/`threshold` carry the
    /// measurement that tripped it.
    Anomaly,
    /// A distributed-array halo exchange (`impacc-array`): every message
    /// of one inferred schedule, in the active runtime mode.
    ArrayHalo,
    /// A distributed-array kernel (`impacc-array` stencil or map).
    ArrayKernel,
    /// A distributed-array redistribution (`impacc-array` gather or
    /// reduction).
    ArrayRedist,
}

impl EventKind {
    /// Every kind, in a fixed presentation order.
    pub const ALL: [EventKind; 21] = [
        EventKind::Kernel,
        EventKind::CopyHtoH,
        EventKind::CopyHtoD,
        EventKind::CopyDtoH,
        EventKind::CopyDtoD,
        EventKind::MpiSend,
        EventKind::MpiRecv,
        EventKind::MpiColl,
        EventKind::CollIntra,
        EventKind::Fuse,
        EventKind::Alias,
        EventKind::QueueWait,
        EventKind::HandlerCmd,
        EventKind::Stall,
        EventKind::Fault,
        EventKind::Retry,
        EventKind::Marker,
        EventKind::Anomaly,
        EventKind::ArrayHalo,
        EventKind::ArrayKernel,
        EventKind::ArrayRedist,
    ];

    /// The wire label (also the accounting-tag spelling where one exists).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Kernel => "kernel",
            EventKind::CopyHtoH => "HtoH",
            EventKind::CopyHtoD => "HtoD",
            EventKind::CopyDtoH => "DtoH",
            EventKind::CopyDtoD => "DtoD",
            EventKind::MpiSend => "mpi_send",
            EventKind::MpiRecv => "mpi_recv",
            EventKind::MpiColl => "mpi_coll",
            EventKind::CollIntra => "coll_intra",
            EventKind::Fuse => "fuse",
            EventKind::Alias => "alias",
            EventKind::QueueWait => "queue_wait",
            EventKind::HandlerCmd => "handler_cmd",
            EventKind::Stall => "stall",
            EventKind::Fault => "fault",
            EventKind::Retry => "retry",
            EventKind::Marker => "marker",
            EventKind::Anomaly => "anomaly",
            EventKind::ArrayHalo => "array.halo",
            EventKind::ArrayKernel => "array.kernel",
            EventKind::ArrayRedist => "array.redist",
        }
    }

    /// Parse a wire label back into a kind.
    pub fn parse(label: &str) -> Option<EventKind> {
        Some(match label {
            "kernel" => EventKind::Kernel,
            "HtoH" => EventKind::CopyHtoH,
            "HtoD" => EventKind::CopyHtoD,
            "DtoH" => EventKind::CopyDtoH,
            "DtoD" => EventKind::CopyDtoD,
            "mpi_send" => EventKind::MpiSend,
            "mpi_recv" => EventKind::MpiRecv,
            "mpi_coll" => EventKind::MpiColl,
            "coll_intra" => EventKind::CollIntra,
            "fuse" => EventKind::Fuse,
            "alias" => EventKind::Alias,
            "queue_wait" => EventKind::QueueWait,
            "handler_cmd" => EventKind::HandlerCmd,
            "stall" => EventKind::Stall,
            "fault" => EventKind::Fault,
            "retry" => EventKind::Retry,
            "marker" => EventKind::Marker,
            "anomaly" => EventKind::Anomaly,
            "array.halo" => EventKind::ArrayHalo,
            "array.kernel" => EventKind::ArrayKernel,
            "array.redist" => EventKind::ArrayRedist,
            _ => return None,
        })
    }

    /// Is this one of the four data-copy kinds?
    pub fn is_copy(self) -> bool {
        matches!(
            self,
            EventKind::CopyHtoH | EventKind::CopyHtoD | EventKind::CopyDtoH | EventKind::CopyDtoD
        )
    }
}

/// One recorded span: `actor` spent `[t0, t1]` doing `kind`.
///
/// `t0 == t1` encodes an instantaneous event (fusion decisions, aliasing
/// outcomes, markers). `attrs` carry structured detail — byte counts,
/// fusion reasons, queue names — as key/value pairs.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Name of the emitting actor (task, activity queue, handler, ...).
    pub actor: String,
    /// What the time was spent on.
    pub kind: EventKind,
    /// Span start (virtual time).
    pub t0: SimTime,
    /// Span end (virtual time); `>= t0`.
    pub t1: SimTime,
    /// Structured detail attributes.
    pub attrs: Vec<(&'static str, String)>,
}

impl Span {
    /// The span's duration.
    pub fn dur(&self) -> SimDur {
        self.t1.since(self.t0)
    }

    /// Value of attribute `key`, if present.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// One recorded causal edge: work at `(src_actor, src_t)` enabled work at
/// `(dst_actor, dst_t)`.
///
/// Edges turn the flat span stream into a dependence DAG: send→recv
/// matching (`"msg"`), fusion pairing (`"fuse"`), queue FIFO order
/// (`"enq"`), handler dequeue (`"deq"`), park/wake causality (`"wake"`),
/// actor creation (`"spawn"`). The critical-path profiler (`impacc-prof`)
/// walks these backwards from the end of the run.
///
/// Ordered by content, fields in declaration order: the schedule-independent
/// order `Recorder::canonicalize` sorts a partitioned run's edges into.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Dependence kind ("wake", "msg", "fuse", "enq", "deq", "spawn").
    pub kind: &'static str,
    /// Actor whose work enabled the destination.
    pub src_actor: String,
    /// Instant on the source actor's timeline.
    pub src_t: SimTime,
    /// Actor whose work was enabled.
    pub dst_actor: String,
    /// Instant on the destination actor's timeline; the profiler matches
    /// this against stall-span ends.
    pub dst_t: SimTime,
    /// Structured detail attributes (awaited tag, queue name, bytes, ...).
    pub attrs: Vec<(&'static str, String)>,
}

impl Edge {
    /// Value of attribute `key`, if present.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::parse(k.label()), Some(k), "{k:?}");
        }
        assert_eq!(EventKind::parse("no_such_kind"), None);
    }

    #[test]
    fn copy_kinds_are_exactly_four() {
        assert_eq!(EventKind::ALL.iter().filter(|k| k.is_copy()).count(), 4);
        assert!(EventKind::CopyDtoD.is_copy());
        assert!(!EventKind::Kernel.is_copy());
    }

    #[test]
    fn span_attrs_lookup() {
        let s = Span {
            actor: "rank0".into(),
            kind: EventKind::CopyHtoD,
            t0: SimTime::ZERO,
            t1: SimTime(10),
            attrs: vec![("bytes", "4096".into())],
        };
        assert_eq!(s.dur(), SimDur(10));
        assert_eq!(s.attr("bytes"), Some("4096"));
        assert_eq!(s.attr("nope"), None);
    }
}
