//! Shared helpers for the benchmark applications.

use std::future::Future;

use impacc_core::{Launch, Rank, RunSummary, RuntimeOptions};
use impacc_machine::MachineSpec;
use impacc_vtime::SimError;

// The partition/neighbour arithmetic and the truncation gate moved to
// `impacc-array`, the single home for decomposition math; re-exported
// here so app code keeps one import path.
pub use impacc_array::{math_ok, BlockPartition};

/// Run a per-task program over `spec` with the given runtime options.
/// Anything beyond a physical-backing cap — a recorder, a flight
/// recorder, a pinned engine — is configured on [`Launch`] directly.
pub fn launch_app<F, Fut>(
    spec: MachineSpec,
    options: RuntimeOptions,
    phys_cap: Option<u64>,
    app: F,
) -> Result<RunSummary, SimError>
where
    F: Fn(Rank) -> Fut + Send + Sync + 'static,
    Fut: Future<Output = ()> + Send + 'static,
{
    let mut l = Launch::new(spec, options);
    if let Some(cap) = phys_cap {
        l = l.phys_cap(cap);
    }
    l.run_async(app)
}
