//! `impacc-prof`: a causal critical-path profiler over recorded traces.
//!
//! The observability layer ([`impacc_obs`]) records two streams per run:
//! flat *spans* (`actor` spent `[t0, t1]` doing `kind`) and causal *edges*
//! (work at `(src_actor, src_t)` enabled work at `(dst_actor, dst_t)` —
//! wakes, spawns, message matches, fusion pairings, queue FIFO order,
//! handler dequeues). Together they form a dependence DAG over virtual
//! time. This crate walks that DAG backwards from the end of the run and
//! answers three questions a flat profile cannot:
//!
//! 1. **Where did the end-to-end time actually go?** The critical path is
//!    the single causal chain whose segments tile `[0, end]` exactly;
//!    [`Report::blame_by_kind`] charges every picosecond of it to one
//!    [`EventKind`] (or `"compute"` for untracked actor-local work), so
//!    the per-kind blame sums to the end-to-end virtual time by
//!    construction.
//! 2. **Why were actors stalled?** Every stall span carries a `cause`
//!    attribute recorded at park time ("recv src=1 tag=7", "drain queue
//!    q0.rank1", ...); [`classify_cause`] buckets them into late-sender /
//!    queue-serialization / handler-backlog / idle wait states.
//! 3. **What would an ablation buy?** [`Report::what_if`] projects the
//!    run time with selected kinds removed from the path (zero-cost DtoD
//!    copies, free fusion, an infinitely fast NIC) — the single-trace
//!    analogue of the paper's fig 12/13/15 ablations.
//!
//! The walk only *jumps* actors along control-transfer edges (`"wake"`,
//! `"spawn"`), which connect identical instants on the two timelines; the
//! data edges (`"msg"`, `"enq"`, `"deq"`, `"fuse"`) annotate the report
//! and the Chrome-trace rendering. Same-instant jump cycles are broken by
//! a visited set; everything is ordered (`BTreeMap`, emission order) so a
//! given trace always produces a byte-identical report.

#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet, HashSet};

use impacc_obs::{json, Edge, EventKind, Span};
use impacc_vtime::SimTime;

/// Blame label for untracked actor-local work (gaps between spans).
pub const COMPUTE: &str = "compute";

/// One segment of the critical path, in forward virtual-time order.
///
/// Consecutive segments abut in time; together they tile `[0, end]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathSeg {
    /// Actor the path runs through for `[t0, t1]`.
    pub actor: String,
    /// Blame label: an [`EventKind::label`], or [`COMPUTE`].
    pub kind: String,
    /// Segment start.
    pub t0: SimTime,
    /// Segment end (`> t0`; zero-width portions are not recorded).
    pub t1: SimTime,
}

/// One off-path work segment ranked by its *slack*: how many picoseconds
/// it could grow before it would join the critical path. Small slack marks
/// second-order optimization targets — work that is almost critical and
/// will dominate as soon as the current path is shortened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlackEntry {
    /// Actor owning the off-path segment.
    pub actor: String,
    /// Blame label of the segment (an [`EventKind::label`]).
    pub kind: String,
    /// Segment start.
    pub t0: SimTime,
    /// Segment end.
    pub t1: SimTime,
    /// Picoseconds of growth before the segment reaches the actor's next
    /// critical-path join (or the end of the run if it never rejoins).
    pub slack_ps: u64,
}

/// The profiler's output for one trace.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// End-to-end virtual time of the traced run, in picoseconds.
    pub end_ps: u64,
    /// Number of spans analyzed.
    pub spans: usize,
    /// Number of causal edges analyzed.
    pub edges: usize,
    /// Critical-path blame per kind label, in picoseconds. Sums to
    /// `end_ps` exactly.
    pub blame_by_kind: BTreeMap<String, u64>,
    /// Critical-path blame per actor, in picoseconds. Sums to `end_ps`.
    pub blame_by_actor: BTreeMap<String, u64>,
    /// Trace-wide stalled time per wait-state class (picoseconds),
    /// over *all* stall spans — not just those on the path.
    pub wait_states: BTreeMap<String, u64>,
    /// Projected end-to-end time (picoseconds) under each what-if
    /// scenario: `"zero_cost_dtod"`, `"free_fusion"`, `"infinite_nic"`.
    pub what_if: BTreeMap<String, u64>,
    /// The critical path itself, forward in time.
    pub path: Vec<PathSeg>,
    /// Top off-path work segments by ascending slack (at most
    /// [`SLACK_TOP_N`] entries).
    pub slack: Vec<SlackEntry>,
}

/// Number of entries retained in [`Report::slack`].
pub const SLACK_TOP_N: usize = 10;

/// Classify a stall's recorded `cause` attribute into a wait-state class.
///
/// Returns one of `"idle"`, `"late_sender"`, `"handler_backlog"`,
/// `"queue_serialization"`, `"unknown"`.
pub fn classify_cause(cause: Option<&str>) -> &'static str {
    let Some(c) = cause else { return "unknown" };
    if c.contains("empty") {
        // "queue q1.rank0 empty", "intra queue empty": a daemon with no
        // work is idle, not serialized.
        "idle"
    } else if c.contains("recv") || c.contains("mpi_req") {
        // "recv src=1 tag=7", "fused recv src=0 tag=3",
        // "pending internode recv": the data isn't here yet.
        "late_sender"
    } else if c.contains("fused send") || c.contains("handler") {
        // waiting for the node message handler to process a command.
        "handler_backlog"
    } else if c.contains("queue") {
        // "drain queue q1.rank0", cross-queue waits: in-order queue
        // semantics serialized us behind earlier operations.
        "queue_serialization"
    } else {
        "unknown"
    }
}

/// One leaf segment of an actor's timeline after innermost-span-wins
/// flattening. `kind == None` is an untracked gap ("compute").
#[derive(Clone, Debug)]
struct Seg {
    t0: SimTime,
    t1: SimTime,
    kind: Option<EventKind>,
}

/// Flatten one actor's (possibly nested) spans into non-overlapping leaf
/// segments covering `[first span start, last span end]`. Where spans
/// nest, the innermost wins: max `t0`, then min `t1`, then first emitted.
///
/// `QueueWait` spans are excluded: they record an operation's *queue
/// residency* retroactively, overlapping whatever the daemon was actually
/// doing meanwhile — annotation, not activity. Queue serialization still
/// reaches the report through stall causes ("drain queue ...").
fn segment_actor(spans: &[&Span]) -> Vec<Seg> {
    let durs: Vec<&&Span> = spans
        .iter()
        .filter(|s| s.t1 > s.t0 && s.kind != EventKind::QueueWait)
        .collect();
    if durs.is_empty() {
        return Vec::new();
    }
    let mut bounds: BTreeSet<SimTime> = BTreeSet::new();
    for s in &durs {
        bounds.insert(s.t0);
        bounds.insert(s.t1);
    }
    let bounds: Vec<SimTime> = bounds.into_iter().collect();
    let mut segs: Vec<Seg> = Vec::new();
    for w in bounds.windows(2) {
        let (a, b) = (w[0], w[1]);
        let mut best: Option<&Span> = None;
        for s in &durs {
            if s.t0 <= a && s.t1 >= b {
                best = Some(match best {
                    None => s,
                    Some(c) if s.t0 > c.t0 || (s.t0 == c.t0 && s.t1 < c.t1) => s,
                    Some(c) => c,
                });
            }
        }
        let kind = best.map(|s| s.kind);
        match segs.last_mut() {
            Some(last) if last.t1 == a && last.kind == kind => last.t1 = b,
            _ => segs.push(Seg { t0: a, t1: b, kind }),
        }
    }
    segs
}

/// Greatest segment index with `seg.t0 < t`, if any.
fn seg_before(segs: &[Seg], t: SimTime) -> Option<usize> {
    match segs.partition_point(|s| s.t0 < t) {
        0 => None,
        n => Some(n - 1),
    }
}

/// Analyze a trace: compute the critical path, blame, wait states and
/// what-if projections. Deterministic in the input.
pub fn analyze(spans: &[Span], edges: &[Edge]) -> Report {
    let mut report = Report {
        spans: spans.len(),
        edges: edges.len(),
        ..Report::default()
    };

    // Trace-wide wait-state classification over every stall span.
    for s in spans {
        if s.kind == EventKind::Stall && s.t1 > s.t0 {
            let class = classify_cause(s.attr("cause"));
            *report.wait_states.entry(class.to_string()).or_insert(0) += s.dur().0;
        }
    }

    // Per-actor leaf segmentation.
    let mut by_actor: BTreeMap<&str, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_actor.entry(s.actor.as_str()).or_default().push(s);
    }
    let segs: BTreeMap<&str, Vec<Seg>> = by_actor
        .iter()
        .map(|(a, ss)| (*a, segment_actor(ss)))
        .filter(|(_, ss)| !ss.is_empty())
        .collect();

    let end = segs
        .values()
        .filter_map(|ss| ss.last().map(|s| s.t1))
        .max()
        .unwrap_or(SimTime::ZERO);
    report.end_ps = end.0;
    if end == SimTime::ZERO {
        return report;
    }

    // Incoming control-transfer edges per destination actor, in emission
    // order. Only wake/spawn edges move the walk between actors; both
    // connect identical instants, so jumps never create or lose time.
    let mut inbound: BTreeMap<&str, Vec<&Edge>> = BTreeMap::new();
    for e in edges {
        if e.kind == "wake" || e.kind == "spawn" {
            inbound.entry(e.dst_actor.as_str()).or_default().push(e);
        }
    }

    // Start from a segment ending exactly at `end`; prefer a working
    // (non-stall) actor, then the lexically smallest name.
    let mut cur_actor: &str = segs
        .iter()
        .filter(|(_, ss)| ss.last().is_some_and(|s| s.t1 == end))
        .map(|(a, ss)| (ss.last().unwrap().kind == Some(EventKind::Stall), *a))
        .min()
        .map(|(_, a)| a)
        .expect("some actor's last segment ends at the trace end");

    let mut t = end;
    let mut rev_path: Vec<PathSeg> = Vec::new();
    // Actors already visited at the current instant — breaks same-instant
    // wake cycles. Cleared whenever `t` strictly decreases.
    let mut visited_here: HashSet<&str> = HashSet::new();

    let blame = |rev_path: &mut Vec<PathSeg>,
                 report: &mut Report,
                 actor: &str,
                 kind: &str,
                 t0: SimTime,
                 t1: SimTime| {
        if t1 > t0 {
            let d = t1.since(t0).0;
            *report.blame_by_kind.entry(kind.to_string()).or_insert(0) += d;
            *report.blame_by_actor.entry(actor.to_string()).or_insert(0) += d;
            // Merge with the (chronologically later) previous portion when
            // it continues the same actor+kind.
            match rev_path.last_mut() {
                Some(p) if p.actor == actor && p.kind == kind && p.t0 == t1 => p.t0 = t0,
                _ => rev_path.push(PathSeg {
                    actor: actor.to_string(),
                    kind: kind.to_string(),
                    t0,
                    t1,
                }),
            }
        }
    };

    // Latest usable control edge into `actor` with t0 < dst_t <= t, whose
    // source isn't already visited at this instant.
    let pick_edge = |actor: &str, lo: SimTime, t: SimTime, visited: &HashSet<&str>| {
        inbound.get(actor).and_then(|es| {
            es.iter()
                .enumerate()
                .filter(|(_, e)| e.dst_t > lo && e.dst_t <= t)
                .filter(|(_, e)| e.dst_t < t || !visited.contains(e.src_actor.as_str()))
                .max_by_key(|(i, e)| (e.dst_t, *i))
                .map(|(_, e)| *e)
        })
    };

    while t > SimTime::ZERO {
        visited_here.insert(cur_actor);
        let Some(asegs) = segs.get(cur_actor) else {
            // Actor with no durational spans (possible jump target):
            // charge its untracked time back to its spawn/wake source.
            match pick_edge(cur_actor, SimTime::ZERO, t, &visited_here) {
                Some(e) => {
                    blame(&mut rev_path, &mut report, cur_actor, COMPUTE, e.dst_t, t);
                    if e.dst_t < t {
                        visited_here.clear();
                    }
                    t = e.dst_t.min(e.src_t);
                    cur_actor = e.src_actor.as_str();
                }
                None => {
                    blame(
                        &mut rev_path,
                        &mut report,
                        cur_actor,
                        COMPUTE,
                        SimTime::ZERO,
                        t,
                    );
                    t = SimTime::ZERO;
                }
            }
            continue;
        };
        let Some(si) = seg_before(asegs, t) else {
            // Before the actor's first span: untracked startup work; jump
            // out via its spawn edge if one exists.
            match pick_edge(cur_actor, SimTime::ZERO, t, &visited_here) {
                Some(e) => {
                    blame(&mut rev_path, &mut report, cur_actor, COMPUTE, e.dst_t, t);
                    if e.dst_t < t {
                        visited_here.clear();
                    }
                    t = e.dst_t.min(e.src_t);
                    cur_actor = e.src_actor.as_str();
                }
                None => {
                    blame(
                        &mut rev_path,
                        &mut report,
                        cur_actor,
                        COMPUTE,
                        SimTime::ZERO,
                        t,
                    );
                    t = SimTime::ZERO;
                }
            }
            continue;
        };
        let seg = &asegs[si];
        if t > seg.t1 {
            // Gap after the actor's last span: untracked local work.
            blame(&mut rev_path, &mut report, cur_actor, COMPUTE, seg.t1, t);
            visited_here.clear();
            t = seg.t1;
            continue;
        }
        if seg.kind == Some(EventKind::Stall) {
            if let Some(e) = pick_edge(cur_actor, seg.t0, t, &visited_here) {
                // The wake that ended (part of) this stall: blame any
                // residue after the wake instant, then follow the waker.
                blame(
                    &mut rev_path,
                    &mut report,
                    cur_actor,
                    EventKind::Stall.label(),
                    e.dst_t,
                    t,
                );
                if e.dst_t < t {
                    visited_here.clear();
                }
                t = e.dst_t.min(e.src_t);
                cur_actor = e.src_actor.as_str();
                continue;
            }
            // No waker recorded (timer expiry, pre-recording park): the
            // stall itself carries the time.
        }
        let label = seg.kind.map(EventKind::label).unwrap_or(COMPUTE);
        blame(&mut rev_path, &mut report, cur_actor, label, seg.t0, t);
        visited_here.clear();
        t = seg.t0;
    }

    rev_path.reverse();
    report.path = rev_path;

    // Slack analysis: rank off-path *work* segments (tracked, non-stall)
    // by how much they could grow before joining the critical path — the
    // distance from the segment's end to the owning actor's next on-path
    // segment (or the end of the run if it never rejoins).
    let mut on_path: BTreeMap<&str, Vec<(SimTime, SimTime)>> = BTreeMap::new();
    for p in &report.path {
        on_path
            .entry(p.actor.as_str())
            .or_default()
            .push((p.t0, p.t1));
    }
    let mut slack: Vec<SlackEntry> = Vec::new();
    for (actor, asegs) in &segs {
        let joins = on_path.get(actor);
        for s in asegs {
            let Some(kind) = s.kind else { continue };
            if kind == EventKind::Stall {
                continue;
            }
            let overlaps_path =
                joins.is_some_and(|js| js.iter().any(|&(p0, p1)| s.t0 < p1 && p0 < s.t1));
            if overlaps_path {
                continue;
            }
            let next_join = joins
                .and_then(|js| js.iter().map(|&(p0, _)| p0).find(|&p0| p0 >= s.t1))
                .unwrap_or(end);
            slack.push(SlackEntry {
                actor: actor.to_string(),
                kind: kind.label().to_string(),
                t0: s.t0,
                t1: s.t1,
                slack_ps: next_join.since(s.t1).0,
            });
        }
    }
    slack.sort_by(|a, b| {
        a.slack_ps
            .cmp(&b.slack_ps)
            .then_with(|| a.actor.cmp(&b.actor))
            .then_with(|| a.t0.cmp(&b.t0))
    });
    slack.truncate(SLACK_TOP_N);
    report.slack = slack;

    // What-if projections: remove selected kinds' on-path blame.
    let b = |k: EventKind| report.blame_by_kind.get(k.label()).copied().unwrap_or(0);
    report.what_if.insert(
        "zero_cost_dtod".to_string(),
        report.end_ps.saturating_sub(b(EventKind::CopyDtoD)),
    );
    report.what_if.insert(
        "free_fusion".to_string(),
        report
            .end_ps
            .saturating_sub(b(EventKind::Fuse) + b(EventKind::HandlerCmd)),
    );
    report.what_if.insert(
        "infinite_nic".to_string(),
        report
            .end_ps
            .saturating_sub(b(EventKind::MpiSend) + b(EventKind::MpiRecv) + b(EventKind::MpiColl)),
    );
    report.what_if.insert(
        "free_intranode_coll".to_string(),
        report.end_ps.saturating_sub(b(EventKind::CollIntra)),
    );

    report
}

impl Report {
    /// Total on-path blame — equals [`Report::end_ps`] by construction.
    pub fn blame_total(&self) -> u64 {
        self.blame_by_kind.values().sum()
    }

    /// Render the report as deterministic JSON (`PROF_<name>.json`
    /// artifact body). Contains no wall-clock data.
    pub fn to_json(&self, name: &str) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"schema_version\": {},\n",
            impacc_obs::SCHEMA_VERSION
        ));
        out.push_str(&format!("  \"name\": {},\n", json::string(name)));
        out.push_str(&format!("  \"end_ps\": {},\n", self.end_ps));
        out.push_str(&format!("  \"spans\": {},\n", self.spans));
        out.push_str(&format!("  \"edges\": {},\n", self.edges));
        let map = |m: &BTreeMap<String, u64>| {
            let body: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("{}: {}", json::string(k), v))
                .collect();
            format!("{{{}}}", body.join(", "))
        };
        out.push_str(&format!(
            "  \"blame_by_kind\": {},\n",
            map(&self.blame_by_kind)
        ));
        out.push_str(&format!(
            "  \"blame_by_actor\": {},\n",
            map(&self.blame_by_actor)
        ));
        out.push_str(&format!("  \"wait_states\": {},\n", map(&self.wait_states)));
        out.push_str(&format!("  \"what_if\": {},\n", map(&self.what_if)));
        out.push_str("  \"slack\": [\n");
        for (i, s) in self.slack.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"actor\": {}, \"kind\": {}, \"t0_ps\": {}, \"t1_ps\": {}, \
                 \"slack_ps\": {}}}{}\n",
                json::string(&s.actor),
                json::string(&s.kind),
                s.t0.0,
                s.t1.0,
                s.slack_ps,
                if i + 1 < self.slack.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"critical_path\": [\n");
        for (i, p) in self.path.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"actor\": {}, \"kind\": {}, \"t0_ps\": {}, \"t1_ps\": {}}}{}\n",
                json::string(&p.actor),
                json::string(&p.kind),
                p.t0.0,
                p.t1.0,
                if i + 1 < self.path.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Render a human-readable text report.
    pub fn render_text(&self, name: &str) -> String {
        let pct = |ps: u64| {
            if self.end_ps == 0 {
                0.0
            } else {
                100.0 * ps as f64 / self.end_ps as f64
            }
        };
        let us = |ps: u64| ps as f64 / 1e6;
        let mut out = String::new();
        out.push_str(&format!(
            "critical path: {name} — end-to-end {:.3} us over {} spans / {} edges\n",
            us(self.end_ps),
            self.spans,
            self.edges
        ));
        out.push_str("\nblame by kind (sums to end-to-end):\n");
        let mut kinds: Vec<(&String, &u64)> = self.blame_by_kind.iter().collect();
        kinds.sort_by(|x, y| y.1.cmp(x.1).then_with(|| x.0.cmp(y.0)));
        for (k, v) in kinds {
            out.push_str(&format!(
                "  {:>12}  {:>12.3} us  {:>5.1}%\n",
                k,
                us(*v),
                pct(*v)
            ));
        }
        out.push_str("\nblame by actor:\n");
        let mut actors: Vec<(&String, &u64)> = self.blame_by_actor.iter().collect();
        actors.sort_by(|x, y| y.1.cmp(x.1).then_with(|| x.0.cmp(y.0)));
        for (a, v) in actors {
            out.push_str(&format!(
                "  {:>12}  {:>12.3} us  {:>5.1}%\n",
                a,
                us(*v),
                pct(*v)
            ));
        }
        if !self.wait_states.is_empty() {
            out.push_str("\nwait states (all stall spans, trace-wide):\n");
            let mut ws: Vec<(&String, &u64)> = self.wait_states.iter().collect();
            ws.sort_by(|x, y| y.1.cmp(x.1).then_with(|| x.0.cmp(y.0)));
            for (k, v) in ws {
                out.push_str(&format!("  {:>20}  {:>12.3} us\n", k, us(*v)));
            }
        }
        out.push_str("\nwhat-if projections:\n");
        for (k, v) in &self.what_if {
            out.push_str(&format!(
                "  {:>15}  {:>12.3} us  ({:+.1}%)\n",
                k,
                us(*v),
                pct(*v) - 100.0
            ));
        }
        if !self.slack.is_empty() {
            out.push_str("\ntop off-path slack (grow-room before joining the path):\n");
            for s in &self.slack {
                out.push_str(&format!(
                    "  [{:>12.3} .. {:>12.3}] us  {:<12} on {:<16} slack {:>12.3} us\n",
                    us(s.t0.0),
                    us(s.t1.0),
                    s.kind,
                    s.actor,
                    us(s.slack_ps)
                ));
            }
        }
        out.push_str(&format!("\npath: {} segments; head:\n", self.path.len()));
        for p in self.path.iter().rev().take(8).rev() {
            out.push_str(&format!(
                "  [{:>12.3} .. {:>12.3}] us  {:<12} on {}\n",
                us(p.t0.0),
                us(p.t1.0),
                p.kind,
                p.actor
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impacc_obs::{Edge, EventKind, Span};
    use impacc_vtime::SimTime;

    fn span(actor: &str, kind: EventKind, t0: u64, t1: u64) -> Span {
        Span {
            actor: actor.to_string(),
            kind,
            t0: SimTime(t0),
            t1: SimTime(t1),
            attrs: Vec::new(),
        }
    }

    fn stall(actor: &str, t0: u64, t1: u64, cause: &str) -> Span {
        Span {
            actor: actor.to_string(),
            kind: EventKind::Stall,
            t0: SimTime(t0),
            t1: SimTime(t1),
            attrs: vec![("cause", cause.to_string())],
        }
    }

    fn wake(src: &str, dst: &str, t: u64) -> Edge {
        Edge {
            kind: "wake",
            src_actor: src.to_string(),
            src_t: SimTime(t),
            dst_actor: dst.to_string(),
            dst_t: SimTime(t),
            attrs: Vec::new(),
        }
    }

    /// The hand-built golden DAG from the design note: two actors, one
    /// message. `a` computes 10, stalls 10 waiting on `b`, then computes
    /// 5 more after `b`'s send wakes it at t=20.
    ///
    /// ```text
    /// a: [kernel 0..10][stall 10..20      ][kernel 20..25]
    /// b: [kernel 0..15      ][mpi_send 15..20]
    ///                                     ^ wake edge b->a @20
    /// ```
    #[test]
    fn golden_two_actor_dag() {
        let spans = vec![
            span("a", EventKind::Kernel, 0, 10),
            stall("a", 10, 20, "recv src=1 tag=7"),
            span("a", EventKind::Kernel, 20, 25),
            span("b", EventKind::Kernel, 0, 15),
            span("b", EventKind::MpiSend, 15, 20),
        ];
        let edges = vec![wake("b", "a", 20)];
        let r = analyze(&spans, &edges);
        assert_eq!(r.end_ps, 25);
        assert_eq!(r.blame_total(), 25, "blame tiles [0, end] exactly");
        // Path: a.kernel[20..25] <- wake <- b.mpi_send[15..20] <- b.kernel[0..15]
        assert_eq!(r.blame_by_kind["kernel"], 20);
        assert_eq!(r.blame_by_kind["mpi_send"], 5);
        assert!(!r.blame_by_kind.contains_key("stall"), "stall is off-path");
        assert_eq!(r.blame_by_actor["a"], 5);
        assert_eq!(r.blame_by_actor["b"], 20);
        assert_eq!(
            r.path,
            vec![
                PathSeg {
                    actor: "b".into(),
                    kind: "kernel".into(),
                    t0: SimTime(0),
                    t1: SimTime(15)
                },
                PathSeg {
                    actor: "b".into(),
                    kind: "mpi_send".into(),
                    t0: SimTime(15),
                    t1: SimTime(20)
                },
                PathSeg {
                    actor: "a".into(),
                    kind: "kernel".into(),
                    t0: SimTime(20),
                    t1: SimTime(25)
                },
            ]
        );
        // The stall still shows up in the trace-wide wait states.
        assert_eq!(r.wait_states["late_sender"], 10);
        // Infinite NIC removes the on-path send.
        assert_eq!(r.what_if["infinite_nic"], 20);
        assert_eq!(r.what_if["zero_cost_dtod"], 25);
    }

    #[test]
    fn timer_stall_self_blames() {
        // No wake edge: a deadline expiry keeps the stall on the path.
        let spans = vec![
            span("a", EventKind::Kernel, 0, 10),
            stall("a", 10, 30, "drain queue q0"),
            span("a", EventKind::Kernel, 30, 40),
        ];
        let r = analyze(&spans, &[]);
        assert_eq!(r.end_ps, 40);
        assert_eq!(r.blame_total(), 40);
        assert_eq!(r.blame_by_kind["stall"], 20);
        assert_eq!(r.blame_by_kind["kernel"], 20);
        assert_eq!(r.wait_states["queue_serialization"], 20);
    }

    #[test]
    fn innermost_span_wins_segmentation() {
        // A copy nested inside a coarse handler_cmd span: the inner copy
        // claims its interval, the outer span keeps the flanks.
        let spans = vec![
            span("h", EventKind::HandlerCmd, 0, 30),
            span("h", EventKind::CopyDtoD, 10, 20),
        ];
        let r = analyze(&spans, &[]);
        assert_eq!(r.end_ps, 30);
        assert_eq!(r.blame_by_kind["handler_cmd"], 20);
        assert_eq!(r.blame_by_kind["DtoD"], 10);
        assert_eq!(r.what_if["zero_cost_dtod"], 20);
        assert_eq!(r.what_if["free_fusion"], 10);
    }

    #[test]
    fn free_intranode_coll_removes_on_path_intra_phase() {
        // A hierarchical collective: the coll_intra fold nests inside the
        // coarse mpi_coll span; the projection removes only the fold.
        let spans = vec![
            span("r0", EventKind::Kernel, 0, 10),
            span("r0", EventKind::MpiColl, 10, 40),
            span("r0", EventKind::CollIntra, 15, 30),
        ];
        let r = analyze(&spans, &[]);
        assert_eq!(r.end_ps, 40);
        assert_eq!(r.blame_by_kind["coll_intra"], 15);
        assert_eq!(r.blame_by_kind["mpi_coll"], 15);
        assert_eq!(r.what_if["free_intranode_coll"], 25);
        // The existing NIC projection keeps ignoring the intra phase.
        assert_eq!(r.what_if["infinite_nic"], 25);
    }

    #[test]
    fn gaps_between_spans_blame_compute() {
        let spans = vec![
            span("a", EventKind::Kernel, 5, 10),
            span("a", EventKind::MpiColl, 20, 30),
        ];
        let r = analyze(&spans, &[]);
        assert_eq!(r.end_ps, 30);
        assert_eq!(r.blame_total(), 30);
        // [0,5) pre-first-span + [10,20) inter-span gap.
        assert_eq!(r.blame_by_kind[COMPUTE], 15);
    }

    #[test]
    fn same_instant_wake_cycle_terminates() {
        let spans = vec![
            stall("a", 0, 10, "recv src=0 tag=0"),
            stall("b", 0, 10, "recv src=1 tag=1"),
        ];
        // Pathological: a and b each claim to have woken the other at 10.
        let edges = vec![wake("a", "b", 10), wake("b", "a", 10)];
        let r = analyze(&spans, &edges);
        assert_eq!(r.blame_total(), 10, "cycle broken, time fully attributed");
    }

    #[test]
    fn spawn_edge_carries_path_to_parent() {
        let spans = vec![
            span("parent", EventKind::Kernel, 0, 8),
            span("child", EventKind::CopyHtoD, 8, 20),
        ];
        let edges = vec![Edge {
            kind: "spawn",
            src_actor: "parent".to_string(),
            src_t: SimTime(8),
            dst_actor: "child".to_string(),
            dst_t: SimTime(8),
            attrs: Vec::new(),
        }];
        let r = analyze(&spans, &edges);
        assert_eq!(r.blame_by_kind["HtoD"], 12);
        assert_eq!(r.blame_by_kind["kernel"], 8);
        assert_eq!(r.blame_total(), 20);
    }

    #[test]
    fn classifier_buckets() {
        assert_eq!(classify_cause(None), "unknown");
        assert_eq!(classify_cause(Some("recv src=1 tag=7")), "late_sender");
        assert_eq!(
            classify_cause(Some("fused recv src=0 tag=3")),
            "late_sender"
        );
        assert_eq!(
            classify_cause(Some("pending internode recv x2")),
            "late_sender"
        );
        assert_eq!(classify_cause(Some("mpi_req")), "late_sender");
        assert_eq!(
            classify_cause(Some("fused send dst=1 tag=7")),
            "handler_backlog"
        );
        assert_eq!(classify_cause(Some("handler cmd")), "handler_backlog");
        assert_eq!(
            classify_cause(Some("drain queue q0.rank1")),
            "queue_serialization"
        );
        assert_eq!(classify_cause(Some("queue q0.rank1 empty")), "idle");
        assert_eq!(classify_cause(Some("intra queue empty")), "idle");
        assert_eq!(classify_cause(Some("whatever")), "unknown");
    }

    #[test]
    fn json_is_deterministic_and_structurally_valid() {
        let spans = vec![
            span("a", EventKind::Kernel, 0, 10),
            stall("a", 10, 20, "recv src=1 tag=7"),
            span("a", EventKind::Kernel, 20, 25),
            span("b", EventKind::Kernel, 0, 15),
            span("b", EventKind::MpiSend, 15, 20),
        ];
        let edges = vec![wake("b", "a", 20)];
        let j1 = analyze(&spans, &edges).to_json("golden");
        let j2 = analyze(&spans, &edges).to_json("golden");
        assert_eq!(j1, j2);
        assert!(impacc_obs::chrome::structurally_valid(&j1));
        assert!(j1.contains("\"end_ps\": 25"));
        let text = analyze(&spans, &edges).render_text("golden");
        assert!(text.contains("blame by kind"));
    }

    #[test]
    fn slack_ranks_off_path_work_by_grow_room() {
        // `a` holds the whole path: kernel[0..10], send[10..25].
        // `b` does off-path work kernel[0..8] and never joins: its slack
        // is end - 8 = 17. `a`'s own off-path copy cannot exist here (all
        // of `a` is on-path), so exactly one entry survives.
        let spans = vec![
            span("a", EventKind::Kernel, 0, 10),
            span("a", EventKind::MpiSend, 10, 25),
            span("b", EventKind::Kernel, 0, 8),
        ];
        let r = analyze(&spans, &[]);
        assert_eq!(r.end_ps, 25);
        assert_eq!(r.slack.len(), 1);
        assert_eq!(r.slack[0].actor, "b");
        assert_eq!(r.slack[0].kind, "kernel");
        assert_eq!(r.slack[0].slack_ps, 17);
        // The JSON carries the slack section.
        let j = r.to_json("slacky");
        assert!(j.contains("\"slack\": ["));
        assert!(j.contains("\"slack_ps\": 17"));
        // Ranking: a nearly-critical segment sorts first.
        let spans = vec![
            span("a", EventKind::Kernel, 0, 10),
            span("a", EventKind::MpiSend, 10, 25),
            span("b", EventKind::Kernel, 0, 8),
            span("c", EventKind::CopyHtoD, 0, 24),
        ];
        let r = analyze(&spans, &[]);
        assert_eq!(r.slack[0].actor, "c", "1 ps of grow-room ranks first");
        assert_eq!(r.slack[0].slack_ps, 1);
        assert_eq!(r.slack[1].slack_ps, 17);
    }

    #[test]
    fn on_path_and_stall_segments_carry_no_slack() {
        let spans = vec![
            span("a", EventKind::Kernel, 0, 10),
            stall("a", 10, 20, "recv src=1 tag=7"),
            span("a", EventKind::Kernel, 20, 25),
            span("b", EventKind::Kernel, 0, 15),
            span("b", EventKind::MpiSend, 15, 20),
        ];
        let edges = vec![wake("b", "a", 20)];
        let r = analyze(&spans, &edges);
        // a.kernel[0..10] is the only off-path work: b is fully on-path,
        // and a's stall is excluded by definition.
        assert_eq!(r.slack.len(), 1);
        assert_eq!(r.slack[0].actor, "a");
        assert_eq!(r.slack[0].t1, SimTime(10));
        // It could grow until a rejoins the path at t=20.
        assert_eq!(r.slack[0].slack_ps, 10);
    }

    #[test]
    fn empty_trace_is_empty_report() {
        let r = analyze(&[], &[]);
        assert_eq!(r.end_ps, 0);
        assert_eq!(r.blame_total(), 0);
        assert!(r.path.is_empty());
    }
}
