//! Centralized `IMPACC_*` environment-variable parsing.
//!
//! Every runtime/bench knob that used to be a scattered `std::env::var`
//! call site resolves through one typed accessor here, so the full knob
//! surface is greppable in one place and each variable has exactly one
//! spelling and one parse:
//!
//! | variable | accessor | meaning |
//! |---|---|---|
//! | `IMPACC_TRACE` | [`trace_path`] | auto-record a Chrome trace to this path |
//! | `IMPACC_PROF` | [`prof_requested`] | `1` ⇒ append a critical-path profile |
//! | `IMPACC_BENCH_DIR` | [`bench_dir`] | where `BENCH_*`/`PROF_*` artifacts go |
//! | `IMPACC_BENCH_QUICK` | [`bench_quick`] | `1` ⇒ trim sweeps for CI |
//! | `IMPACC_SERVE_WORKERS` | [`serve_workers`] | worker-pool size override for `impacc-serve` |
//! | `IMPACC_PARALLEL` | [`parallelism`] | scheduler worker count: simulated nodes that may execute at once (unset/`0` ⇒ 1) |
//! | `IMPACC_FLIGHT` | [`flight_enabled`] / [`flight_dump_dir`] | `0` ⇒ flight recorder off; `1` ⇒ dumps to `bench_dir()`; `<dir>` ⇒ dumps there; unset ⇒ record, no launch-side dumps |
//!
//! (`IMPACC_ACC_DEVICE_TYPE` is modelled as a typed
//! [`Launch`](crate::Launch) parameter, not an env read.)

use std::path::PathBuf;

/// `true` iff `var` is set to exactly `"1"` (the repo-wide flag idiom).
fn flag(var: &str) -> bool {
    std::env::var(var).is_ok_and(|v| v == "1")
}

/// `IMPACC_TRACE=<path>`: auto-record any launched run and write a Chrome
/// trace to `path` on completion. Empty values count as unset.
pub fn trace_path() -> Option<PathBuf> {
    match std::env::var("IMPACC_TRACE") {
        Ok(p) if !p.is_empty() => Some(PathBuf::from(p)),
        _ => None,
    }
}

/// `IMPACC_PROF=1`: figure binaries append a critical-path profile and
/// persist `PROF_<name>.json`.
pub fn prof_requested() -> bool {
    flag("IMPACC_PROF")
}

/// `IMPACC_BENCH_DIR=<dir>`: where bench/prof/serve artifacts are
/// written; defaults to the current directory.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(std::env::var("IMPACC_BENCH_DIR").unwrap_or_else(|_| ".".into()))
}

/// `IMPACC_BENCH_QUICK=1`: trim sweeps for CI.
pub fn bench_quick() -> bool {
    flag("IMPACC_BENCH_QUICK")
}

/// `IMPACC_SERVE_WORKERS=<n>`: override the `impacc-serve` worker-pool
/// size. Unset, unparsable or zero ⇒ `None` (the daemon's default wins).
pub fn serve_workers() -> Option<usize> {
    std::env::var("IMPACC_SERVE_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|n| *n > 0)
}

/// `IMPACC_PARALLEL=<n>`: run simulations with `n` scheduler workers —
/// up to `n` simulated nodes (one partition each, lookahead derived from
/// the machine spec's internode wire latency) execute at once. Unset,
/// unparsable or `0` ⇒ one worker. Results are bit-identical for every
/// value; only wall-clock changes.
pub fn parallelism() -> usize {
    std::env::var("IMPACC_PARALLEL")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(1, |n| n.max(1))
}

/// `IMPACC_FLIGHT`: is the always-on flight recorder recording? Only the
/// explicit opt-out `0` disables it — every other state (unset, `1`, a
/// dump directory) keeps the per-actor rings live so a crash always has a
/// black-box record.
pub fn flight_enabled() -> bool {
    std::env::var("IMPACC_FLIGHT").map_or(true, |v| v != "0")
}

/// Where `Launch` writes trigger-driven `FLIGHT_*.json` dumps. Unset (the
/// default) ⇒ `None`: the rings record but launch-side dumps stay in
/// memory, so plain `cargo test` runs never spray flight files into the
/// working tree. `1` ⇒ [`bench_dir`]; any other non-`0` value is the
/// directory itself. (`impacc-serve` writes its per-job failure dumps
/// into its own spool regardless of this setting.)
pub fn flight_dump_dir() -> Option<PathBuf> {
    match std::env::var("IMPACC_FLIGHT") {
        Ok(v) if v == "1" => Some(bench_dir()),
        Ok(v) if !v.is_empty() && v != "0" => Some(PathBuf::from(v)),
        _ => None,
    }
}

/// Per-actor flight window in spans.
pub fn flight_capacity() -> usize {
    impacc_flight::DEFAULT_RING_CAPACITY
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var state is process-global, so one test walks every accessor
    // (cargo runs tests in threads; touching distinct var names per
    // accessor keeps them independent anyway).
    #[test]
    fn accessors_parse_and_default() {
        std::env::remove_var("IMPACC_TRACE");
        assert_eq!(trace_path(), None);
        std::env::set_var("IMPACC_TRACE", "");
        assert_eq!(trace_path(), None, "empty IMPACC_TRACE counts as unset");
        std::env::set_var("IMPACC_TRACE", "/tmp/t.json");
        assert_eq!(trace_path(), Some(PathBuf::from("/tmp/t.json")));
        std::env::remove_var("IMPACC_TRACE");

        std::env::remove_var("IMPACC_SERVE_WORKERS");
        assert_eq!(serve_workers(), None);
        std::env::set_var("IMPACC_SERVE_WORKERS", "6");
        assert_eq!(serve_workers(), Some(6));
        std::env::set_var("IMPACC_SERVE_WORKERS", "0");
        assert_eq!(serve_workers(), None, "zero workers is not a pool");
        std::env::remove_var("IMPACC_SERVE_WORKERS");

        std::env::remove_var("IMPACC_PROF");
        assert!(!prof_requested());
        std::env::set_var("IMPACC_PROF", "1");
        assert!(prof_requested());
        std::env::remove_var("IMPACC_PROF");

        std::env::remove_var("IMPACC_PARALLEL");
        assert_eq!(parallelism(), 1);
        std::env::set_var("IMPACC_PARALLEL", "4");
        assert_eq!(parallelism(), 4);
        std::env::set_var("IMPACC_PARALLEL", "0");
        assert_eq!(parallelism(), 1, "a worker count is at least one");
        std::env::set_var("IMPACC_PARALLEL", "junk");
        assert_eq!(parallelism(), 1, "unparsable falls back to one worker");
        std::env::remove_var("IMPACC_PARALLEL");

        std::env::remove_var("IMPACC_FLIGHT");
        assert!(flight_enabled(), "flight recording is on by default");
        assert_eq!(flight_dump_dir(), None, "but launch-side dumps are not");
        std::env::set_var("IMPACC_FLIGHT", "0");
        assert!(!flight_enabled());
        assert_eq!(flight_dump_dir(), None);
        std::env::set_var("IMPACC_FLIGHT", "1");
        assert!(flight_enabled());
        assert_eq!(flight_dump_dir(), Some(bench_dir()));
        std::env::set_var("IMPACC_FLIGHT", "/tmp/fl");
        assert_eq!(flight_dump_dir(), Some(PathBuf::from("/tmp/fl")));
        std::env::remove_var("IMPACC_FLIGHT");
    }
}
