//! Transient DMA fault semantics for host↔device copies.
//!
//! The chaos layer models host↔device DMA faults as *transient and
//! all-or-nothing*: a failed attempt occupies the PCIe link for a full
//! transfer and then tears down without publishing any bytes, the next
//! attempt re-reserves the link, and only the final successful attempt
//! commits data. This module owns that invariant for every copy path
//! (direct `perform_copy`, handler-fused `issue_hd`): callers charge
//! link time via [`reserve_hd_with_faults`] and move bytes exactly once
//! via [`commit_copy`], so application state can never observe a
//! half-written mirror.

use std::sync::Arc;

use impacc_chaos::FaultSite;
use impacc_machine::{ClusterResources, HdDir};
use impacc_vtime::{Ctx, SimTime};

use crate::backing::Backing;

/// Reserve the PCIe link for a host↔device copy of `bytes` issued no
/// earlier than `earliest`, re-reserving once per injected transient fault
/// (`FaultSite::CopyFault`, budget [`impacc_chaos::FaultPlan::max_retries`]).
/// Emits a `fault` span per failed attempt plus `retries`/`chaos_copy_fault`
/// counters, and returns the completion instant of the final (successful)
/// attempt. With chaos disabled this is exactly one `reserve_hd_copy`.
#[allow(clippy::too_many_arguments)]
pub fn reserve_hd_with_faults(
    ctx: &Ctx,
    res: &ClusterResources,
    node: usize,
    dev: usize,
    dir: HdDir,
    far: bool,
    pinned: bool,
    bytes: u64,
    earliest: SimTime,
) -> SimTime {
    let issue = earliest;
    // Decide the whole attempt schedule up front: rolls are a pure
    // function of the caller's per-site counter, never of recording state.
    let extra = res.chaos.extra_attempts(ctx, FaultSite::CopyFault);
    let mut end = res.reserve_hd_copy(node, dev, dir, far, pinned, bytes, issue);
    for attempt in 1..=extra {
        ctx.metrics().inc("retries");
        ctx.metrics().inc("chaos_copy_fault");
        let fail_end = end;
        ctx.span("fault", issue, fail_end, || {
            vec![
                ("site", "copy_fault".to_string()),
                ("device", format!("n{node}.d{dev}")),
                ("attempt", attempt.to_string()),
            ]
        });
        ctx.span("retry", fail_end, fail_end, || {
            vec![
                ("site", "copy_fault".to_string()),
                ("device", format!("n{node}.d{dev}")),
            ]
        });
        end = res.reserve_hd_copy(node, dev, dir, far, pinned, bytes, fail_end);
    }
    end
}

/// Commit the data movement of a host↔device copy exactly once,
/// direction-aware. Failed DMA attempts never publish partial data; this
/// is logically the final attempt's transfer.
pub fn commit_copy(dir: HdDir, host: (&Arc<Backing>, u64), dev: (&Arc<Backing>, u64), len: u64) {
    match dir {
        HdDir::HtoD => Backing::copy(host.0, host.1, dev.0, dev.1, len),
        HdDir::DtoH => Backing::copy(dev.0, dev.1, host.0, host.1, len),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impacc_chaos::{Chaos, FaultPlan};
    use impacc_machine::presets;
    use impacc_vtime::Sim;

    fn run_reserve(chaos: Chaos) -> (SimTime, u64) {
        let mut sim = Sim::new();
        sim.spawn("t0", move |ctx| {
            let res = ClusterResources::with_chaos(Arc::new(presets::psg()), chaos);
            let end = reserve_hd_with_faults(
                ctx,
                &res,
                0,
                0,
                HdDir::HtoD,
                false,
                true,
                1 << 20,
                ctx.now(),
            );
            ctx.advance_until(end, "HtoD");
        });
        let report = sim.run().unwrap();
        let retries = report.metrics.get("retries").copied().unwrap_or(0);
        (report.end_time, retries)
    }

    #[test]
    fn clean_copy_is_one_attempt() {
        let (_, retries) = run_reserve(Chaos::disabled());
        assert_eq!(retries, 0);
    }

    #[test]
    fn faulted_copy_charges_extra_attempts() {
        let chaos = Chaos::new(
            FaultPlan::new(2)
                .with_rate(FaultSite::CopyFault, 1.0)
                .with_max_retries(3),
        );
        let (faulted_end, retries) = run_reserve(chaos);
        let (clean_end, _) = run_reserve(Chaos::disabled());
        assert_eq!(retries, 3, "budget of 3 extra attempts fully consumed");
        // Four serialized transfers on the same link: ≥ 4x the clean time.
        assert!(
            faulted_end.0 >= clean_end.0 * 4,
            "{faulted_end:?} vs {clean_end:?}"
        );
    }

    #[test]
    fn commit_moves_bytes_in_the_right_direction() {
        let host = Backing::new(8, None);
        let dev = Backing::new(8, None);
        host.write(0, &[1, 2, 3, 4, 5, 6, 7, 8]);
        commit_copy(HdDir::HtoD, (&host, 0), (&dev, 0), 8);
        let mut out = [0u8; 8];
        dev.read(0, &mut out);
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8]);
        dev.write(0, &[9; 8]);
        commit_copy(HdDir::DtoH, (&host, 0), (&dev, 0), 8);
        host.read(0, &mut out);
        assert_eq!(out, [9; 8]);
    }
}
