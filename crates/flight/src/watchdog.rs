//! Rule-based anomaly detection over the engine's counter vocabulary.
//!
//! The watchdog is deliberately dumb: a handful of threshold rules over
//! counters the runtime already maintains, so detection adds no new
//! instrumentation cost. Rules come in two determinism classes:
//!
//! * **Deterministic** rules read only virtual-time-derived counters
//!   (`retries`, `chaos_*`, `device_remaps`) — they fire identically for
//!   the same seed at every `IMPACC_PARALLEL` value, so their findings may
//!   be embedded in byte-deterministic `FLIGHT_*.json` dumps.
//! * **Non-deterministic** rules read scheduler- or wall-clock-shaped
//!   state (horizon-stall ratios, live queue depths). They feed the live
//!   `serve` health surface and may *trigger* dumps, but their findings
//!   are never embedded in dump bytes (DESIGN.md §5j determinism caveat).

use impacc_obs::json;
use impacc_obs::{EventKind, Span};
use impacc_vtime::SimTime;

/// `retries` at or above this fires `retry_storm`.
pub const RETRY_STORM_THRESHOLD: u64 = 32;
/// Total chaos fault fires at or above this fire `fault_burst` (also the
/// flight-dump trigger threshold).
pub const FAULT_BURST_THRESHOLD: u64 = 8;
/// Consecutive strictly-increasing queue-depth observations before the
/// backlog rule fires.
pub const BACKLOG_RUN: usize = 5;

/// One watchdog finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Anomaly {
    /// Detector name (`retry_storm`, `fault_burst`, ...).
    pub rule: &'static str,
    /// `warn` or `critical`.
    pub severity: &'static str,
    /// The measurement that tripped the rule.
    pub value: u64,
    /// The threshold it crossed.
    pub threshold: u64,
    /// Human-readable context.
    pub detail: String,
    /// Whether the rule reads only virtual-time-derived state (safe to
    /// embed in deterministic flight dumps).
    pub deterministic: bool,
}

impl Anomaly {
    /// Deterministic JSON object rendering.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"rule\":{},\"severity\":{},\"value\":{},\"threshold\":{},\"deterministic\":{},\"detail\":{}}}",
            json::string(self.rule),
            json::string(self.severity),
            self.value,
            self.threshold,
            self.deterministic,
            json::string(&self.detail),
        )
    }

    /// One-line rendering for logs and the `serve top` dashboard.
    pub fn render(&self) -> String {
        format!(
            "[{}] {}: {} (value {} ≥ threshold {})",
            self.severity, self.rule, self.detail, self.value, self.threshold
        )
    }

    /// This finding as a structured `anomaly` span at instant `at`,
    /// attributed to the synthetic `watchdog` actor — recordable into both
    /// the flight rings and a full-trace recorder.
    pub fn to_span(&self, at: SimTime) -> Span {
        Span {
            actor: "watchdog".to_string(),
            kind: EventKind::Anomaly,
            t0: at,
            t1: at,
            attrs: vec![
                ("rule", self.rule.to_string()),
                ("severity", self.severity.to_string()),
                ("value", self.value.to_string()),
                ("threshold", self.threshold.to_string()),
                ("detail", self.detail.clone()),
            ],
        }
    }
}

/// The rule engine. The run rules, [`Watchdog::check_counters`] and
/// [`Watchdog::check_engine`], are stateless and run once per launch
/// (`impacc_core::Launch`); the struct holds the queue-backlog rule's
/// short depth history.
#[derive(Clone, Debug, Default)]
pub struct Watchdog {
    depths: Vec<u64>,
}

impl Watchdog {
    /// Deterministic rules over a run's final counters, one pass over any
    /// `(key, value)` stream. Findings come back in a fixed rule order.
    pub fn check_counters<'a>(counters: impl IntoIterator<Item = (&'a str, u64)>) -> Vec<Anomaly> {
        let (mut faults, mut retries, mut remaps) = (0u64, 0u64, 0u64);
        for (k, v) in counters {
            match k {
                "retries" => retries += v,
                "device_remaps" => remaps += v,
                k if k.starts_with("chaos_") => faults += v,
                _ => {}
            }
        }

        let mut out = Vec::new();
        if retries >= RETRY_STORM_THRESHOLD {
            out.push(Anomaly {
                rule: "retry_storm",
                severity: "warn",
                value: retries,
                threshold: RETRY_STORM_THRESHOLD,
                detail: format!("{retries} recovery retries in one run"),
                deterministic: true,
            });
        }
        if faults >= FAULT_BURST_THRESHOLD {
            out.push(Anomaly {
                rule: "fault_burst",
                severity: "warn",
                value: faults,
                threshold: FAULT_BURST_THRESHOLD,
                detail: format!("{faults} chaos faults fired across all sites"),
                deterministic: true,
            });
        }
        // Goodput collapse: recovery work dominating useful traffic —
        // each fired fault costing 4+ retries means backoff is spiralling
        // rather than absorbing.
        if faults > 0 && retries >= 4 * faults && retries >= 8 {
            out.push(Anomaly {
                rule: "goodput_collapse",
                severity: "critical",
                value: retries,
                threshold: 4 * faults,
                detail: format!(
                    "{retries} retries for {faults} faults: recovery dominates goodput"
                ),
                deterministic: true,
            });
        }
        if remaps >= 1 {
            out.push(Anomaly {
                rule: "device_loss",
                severity: "critical",
                value: remaps,
                threshold: 1,
                detail: format!("{remaps} rank(s) remapped off lost devices at launch (§3.2)"),
                deterministic: true,
            });
        }
        out
    }

    /// Non-deterministic rule over the parallel engine's horizon protocol:
    /// a run spending 4+ closed-window stalls per productive window
    /// advance is scheduling, not simulating.
    pub fn check_engine(horizon_stalls: u64, parallel_advances: u64) -> Option<Anomaly> {
        if parallel_advances > 0 && horizon_stalls >= 4 * parallel_advances && horizon_stalls >= 16
        {
            return Some(Anomaly {
                rule: "horizon_stall_ratio",
                severity: "warn",
                value: horizon_stalls,
                threshold: 4 * parallel_advances,
                detail: format!(
                    "{horizon_stalls} horizon stalls vs {parallel_advances} window advances"
                ),
                deterministic: false,
            });
        }
        None
    }

    /// Non-deterministic live rule: feed the current total queue depth on
    /// every heartbeat; fires after [`BACKLOG_RUN`] consecutive
    /// strictly-increasing observations (history resets on a fire or any
    /// non-increase).
    pub fn observe_queue_depth(&mut self, depth: u64) -> Option<Anomaly> {
        if let Some(&last) = self.depths.last() {
            if depth <= last {
                self.depths.clear();
            }
        }
        self.depths.push(depth);
        if self.depths.len() > BACKLOG_RUN {
            let first = self.depths[0];
            self.depths.clear();
            self.depths.push(depth);
            return Some(Anomaly {
                rule: "queue_backlog_growth",
                severity: "warn",
                value: depth,
                threshold: first,
                detail: format!(
                    "queue depth grew monotonically {first} → {depth} over {BACKLOG_RUN} heartbeats"
                ),
                deterministic: false,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_storm_and_fault_burst_fire_at_threshold() {
        assert!(Watchdog::check_counters([("retries", 31)]).is_empty());
        let found = Watchdog::check_counters([("retries", 32)]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "retry_storm");
        assert!(found[0].deterministic);

        let found = Watchdog::check_counters([("chaos_link_drop", 5), ("chaos_nic_brownout", 3)]);
        assert_eq!(found[0].rule, "fault_burst");
        assert_eq!(found[0].value, 8);
    }

    #[test]
    fn goodput_collapse_needs_fault_dominated_retries() {
        // 2 faults, 8 retries: 4x ratio and ≥ 8 absolute → fires.
        let found = Watchdog::check_counters([("chaos_link_drop", 2), ("retries", 8)]);
        assert!(found.iter().any(|a| a.rule == "goodput_collapse"));
        // Same retries, more faults: healthy absorption, no collapse.
        let found = Watchdog::check_counters([("chaos_link_drop", 4), ("retries", 8)]);
        assert!(!found.iter().any(|a| a.rule == "goodput_collapse"));
        // No faults at all: retries alone never collapse goodput.
        let found = Watchdog::check_counters([("retries", 8)]);
        assert!(!found.iter().any(|a| a.rule == "goodput_collapse"));
    }

    #[test]
    fn device_loss_is_critical_and_deterministic() {
        let found = Watchdog::check_counters([("device_remaps", 2)]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "device_loss");
        assert_eq!(found[0].severity, "critical");
        assert!(found[0].deterministic);
    }

    #[test]
    fn horizon_rule_is_ratio_gated_and_nondeterministic() {
        assert!(Watchdog::check_engine(15, 1).is_none()); // below absolute floor
        assert!(Watchdog::check_engine(16, 5).is_none()); // below ratio
        let a = Watchdog::check_engine(20, 5).unwrap();
        assert_eq!(a.rule, "horizon_stall_ratio");
        assert!(!a.deterministic);
    }

    #[test]
    fn backlog_rule_needs_a_sustained_run() {
        let mut wd = Watchdog::default();
        for d in [1u64, 2, 3, 4, 5] {
            assert!(wd.observe_queue_depth(d).is_none());
        }
        let a = wd.observe_queue_depth(6).unwrap();
        assert_eq!(a.rule, "queue_backlog_growth");
        assert!(!a.deterministic);
        // A dip resets the streak.
        for d in [7u64, 8, 3, 4, 5, 6, 7] {
            assert!(wd.observe_queue_depth(d).is_none());
        }
        assert!(wd.observe_queue_depth(8).is_some());
    }

    #[test]
    fn anomaly_renders_json_and_span() {
        let a = Anomaly {
            rule: "retry_storm",
            severity: "warn",
            value: 40,
            threshold: 32,
            detail: "x".into(),
            deterministic: true,
        };
        assert_eq!(
            a.to_json(),
            "{\"rule\":\"retry_storm\",\"severity\":\"warn\",\"value\":40,\"threshold\":32,\"deterministic\":true,\"detail\":\"x\"}"
        );
        let s = a.to_span(SimTime(9));
        assert_eq!(s.kind, EventKind::Anomaly);
        assert_eq!(s.actor, "watchdog");
        assert_eq!(s.attr("rule"), Some("retry_storm"));
        assert_eq!((s.t0, s.t1), (SimTime(9), SimTime(9)));
    }
}
