//! impacc-serve — simulation-as-a-service for the IMPACC simulator.
//!
//! The deterministic engine underneath (impacc-vtime) guarantees that a
//! job's result bytes are a pure function of its inputs. This crate
//! turns that guarantee into a service: a job queue with admission
//! control and priority lanes ([`engine`]), a bounded worker pool, and a
//! content-addressed result cache ([`cache`]) where equal keys imply
//! bit-identical stored answers — so a cache hit *is* the result, not an
//! approximation of it.
//!
//! - [`job`] — the request schema: `key=value` job specs, canonical
//!   form, and the content address ([`JobSpec::key`]).
//! - [`front`] — the DSL front table: one compile per distinct
//!   `(program, params)`, shared by validation, keying and execution.
//! - [`workload`] — job execution against the simulator and the
//!   deterministic result body.
//! - [`cache`] — memory + disk result cache with schema-version
//!   validation of stored artifacts.
//! - [`engine`] — the queue / worker-pool / backpressure core.
//! - [`campaign`] — declarative sweep files that expand into job lists;
//!   shared points across campaigns memoize through the cache.
//!
//! The `serve` binary wraps [`engine::Serve`] in a dependency-free
//! spool-directory daemon (see its `--help`).

use std::sync::LazyLock;

pub mod cache;
pub mod campaign;
pub mod engine;
pub mod front;
pub mod job;
pub mod workload;

pub use cache::ResultCache;
pub use campaign::Campaign;
pub use engine::{JobDone, Reject, Serve, ServeConfig, Status, Ticket};
pub use front::{front_stats, DslFront, FrontStats};
pub use job::{JobSpec, Priority, Workload};
pub use workload::{run_job, JobOutcome};

/// Bumped by a change that moves result bodies (a cost-model or schedule
/// change) without moving the crate version or the artifact schema.
/// 2: the one engine — a default build used to run a different
/// deterministic schedule than one under `IMPACC_PARALLEL`.
/// 3: `workload=jacobi` runs the array scenario, whose bodies add the
/// array layer's `array_cells` and `array_halo_bytes` counters.
pub const RESULTS_EPOCH: u32 = 3;

/// The code-version component of every content address. Bumping the
/// crate version, the artifact schema or [`RESULTS_EPOCH`] moves every
/// key, so results produced by older builds are never served as current.
pub fn code_version() -> &'static str {
    static VERSION: LazyLock<String> = LazyLock::new(|| {
        format!(
            "impacc/{}+schema{}+results{RESULTS_EPOCH}",
            env!("CARGO_PKG_VERSION"),
            impacc_obs::SCHEMA_VERSION
        )
    });
    &VERSION
}
