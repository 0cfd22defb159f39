//! Deterministic fault injection (`impacc-chaos`).
//!
//! A [`FaultPlan`] is a declarative fault schedule: a seed and per-site
//! probabilities. The runtime layers consult a shared [`Chaos`] handle at
//! fixed *injection sites* — the internode network path in the MPI engine,
//! the per-node message handler, the unified activity queues, and
//! host↔device copies — and the handle answers "does a fault fire here?"
//! purely as a function of the seed, the site, **who is rolling** and how
//! often that actor has rolled there before.
//!
//! # Determinism
//!
//! What an actor does, in what order, is a pure function of the workload,
//! so the k-th roll an actor makes at a site is the same roll in every run
//! of the same program — independent of wall clock, of recording on/off,
//! and of how many scheduler workers interleave the actors' partitions in
//! real time: no two actors share a counter. Each roll hashes
//! `(seed, site, actor name, k)` with SplitMix64 and compares against the
//! site's rate, so a fault schedule is exactly reproducible from
//! `(seed, workload)` and two runs with the same plan produce
//! byte-identical traces.
//!
//! Faults are *transient* by design: a retried attempt may fail again,
//! but a bounded retry budget ([`FaultPlan::max_retries`]) caps the
//! sequence and the final allowed attempt always succeeds, so a faulted
//! run completes with bit-correct results — slower, never wrong. The one
//! *permanent* fault class, device loss ([`FaultPlan::fail_device`]), is
//! absorbed at launch time by remapping the victim task onto a surviving
//! device (§3.2 task–device mapping).

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use impacc_vtime::{Ctx, SimDur};

/// An injection site: where in the runtime a fault class fires.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Internode message lost in flight (MPI engine resends after a
    /// timeout + exponential backoff).
    LinkDrop,
    /// Internode message arrives late by [`FaultPlan::link_delay_penalty`].
    LinkDelay,
    /// Internode message duplicated on the wire (extra NIC occupancy;
    /// the receiver dedups, so matching semantics are unchanged).
    LinkDup,
    /// NIC brown-out: the receive side of a transfer is degraded and
    /// finishes late.
    NicBrownout,
    /// Handler thread stalls before processing a command.
    HandlerStall,
    /// MPSC enqueue into the handler is delayed on the producer side.
    EnqueueJitter,
    /// An activity-queue operation aborts and is replayed after a flush
    /// penalty.
    QueueAbort,
    /// Transient host↔device DMA fault; the copy is re-attempted and
    /// only the final attempt commits bytes.
    CopyFault,
    /// Direct peer-to-peer DtoD transfer faulted; the handler falls back
    /// to the staged DtoH+HtoD path.
    DtodFault,
}

impl FaultSite {
    /// All sites, in rate-table order.
    pub const ALL: [FaultSite; 9] = [
        FaultSite::LinkDrop,
        FaultSite::LinkDelay,
        FaultSite::LinkDup,
        FaultSite::NicBrownout,
        FaultSite::HandlerStall,
        FaultSite::EnqueueJitter,
        FaultSite::QueueAbort,
        FaultSite::CopyFault,
        FaultSite::DtodFault,
    ];

    fn idx(self) -> usize {
        match self {
            FaultSite::LinkDrop => 0,
            FaultSite::LinkDelay => 1,
            FaultSite::LinkDup => 2,
            FaultSite::NicBrownout => 3,
            FaultSite::HandlerStall => 4,
            FaultSite::EnqueueJitter => 5,
            FaultSite::QueueAbort => 6,
            FaultSite::CopyFault => 7,
            FaultSite::DtodFault => 8,
        }
    }

    /// Stable label (metric key suffix / span attribute).
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::LinkDrop => "link_drop",
            FaultSite::LinkDelay => "link_delay",
            FaultSite::LinkDup => "link_dup",
            FaultSite::NicBrownout => "nic_brownout",
            FaultSite::HandlerStall => "handler_stall",
            FaultSite::EnqueueJitter => "enqueue_jitter",
            FaultSite::QueueAbort => "queue_abort",
            FaultSite::CopyFault => "copy_fault",
            FaultSite::DtodFault => "dtod_fault",
        }
    }
}

/// A declarative fault schedule: seed + per-site rates +
/// recovery-tuning knobs. Build with [`FaultPlan::new`] and
/// the `with_*` setters.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed hashed into every roll.
    pub seed: u64,
    /// Per-site fault probability, in [`FaultSite::ALL`] order (use
    /// [`FaultPlan::with_rate`]).
    pub rates: [f64; 9],
    /// Devices `(node, dev_idx)` that are down from launch; the mapper
    /// remaps their tasks onto surviving devices.
    pub failed_devices: Vec<(usize, usize)>,
    /// Retry budget per operation; the final allowed attempt always
    /// succeeds (transient-fault model).
    pub max_retries: u32,
    /// Time for the sender to detect a lost message (ack timeout).
    pub timeout: SimDur,
    /// First backoff step; attempt `k` waits `backoff_base * 2^(k-1)`.
    pub backoff_base: SimDur,
    /// Extra arrival latency charged by [`FaultSite::LinkDelay`].
    pub link_delay_penalty: SimDur,
    /// Receive-side degradation charged by [`FaultSite::NicBrownout`].
    pub brownout_penalty: SimDur,
    /// Stall charged by [`FaultSite::HandlerStall`] /
    /// [`FaultSite::EnqueueJitter`].
    pub stall_penalty: SimDur,
    /// Flush+replay penalty charged by [`FaultSite::QueueAbort`].
    pub abort_penalty: SimDur,
}

impl FaultPlan {
    /// A plan with the given seed, all rates zero, and default recovery
    /// knobs.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [0.0; 9],
            failed_devices: Vec::new(),
            max_retries: 4,
            timeout: SimDur::from_us(50),
            backoff_base: SimDur::from_us(20),
            link_delay_penalty: SimDur::from_us(30),
            brownout_penalty: SimDur::from_us(80),
            stall_penalty: SimDur::from_us(10),
            abort_penalty: SimDur::from_us(15),
        }
    }

    /// Set the fault probability of one site.
    pub fn with_rate(mut self, site: FaultSite, rate: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1]");
        self.rates[site.idx()] = rate;
        self
    }

    /// Set one probability for every rolled site (uniform chaos level).
    pub fn with_uniform_rate(mut self, rate: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1]");
        self.rates = [rate; 9];
        self
    }

    /// Mark device `dev_idx` on `node` as failed from launch.
    pub fn fail_device(mut self, node: usize, dev_idx: usize) -> FaultPlan {
        self.failed_devices.push((node, dev_idx));
        self
    }

    /// Set the retry budget.
    pub fn with_max_retries(mut self, n: u32) -> FaultPlan {
        self.max_retries = n;
        self
    }
}

struct ChaosInner {
    plan: FaultPlan,
    /// Per-actor, per-site roll counters: the k-th roll an actor makes at
    /// a site is `hash(seed, site, actor, k)`, so its schedule is
    /// independent of rolls at other sites and of every other actor.
    counters: Mutex<HashMap<Arc<str>, [u64; 9]>>,
}

/// Shared handle consulted at every injection site. Cheap to clone;
/// [`Chaos::disabled`] (the default everywhere) is a no-op that rolls
/// nothing and costs one branch.
#[derive(Clone, Default)]
pub struct Chaos {
    inner: Option<Arc<ChaosInner>>,
}

/// FNV-1a: a fixed hash of an actor name (never the process-seeded one).
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64 finalizer: avalanche a 64-bit value.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl Chaos {
    /// The no-fault handle.
    pub fn disabled() -> Chaos {
        Chaos { inner: None }
    }

    /// A handle driving the given plan.
    pub fn new(plan: FaultPlan) -> Chaos {
        Chaos {
            inner: Some(Arc::new(ChaosInner {
                plan,
                counters: Mutex::default(),
            })),
        }
    }

    /// Is any fault plan active?
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The active plan, if any.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.inner.as_ref().map(|i| &i.plan)
    }

    /// Roll the dice at `site` for the calling actor. Returns `true` when
    /// a fault fires. Deterministic: the outcome depends only on the seed,
    /// the site, the actor's name and how many times *that actor* has
    /// rolled at this site before. Call this unconditionally on the
    /// injection path — never gate it on trace-recording state — so the
    /// roll sequence is identical across instrumented and bare runs.
    pub fn roll(&self, ctx: &Ctx, site: FaultSite) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        let k = {
            let mut counters = inner
                .counters
                .lock()
                .expect("no panic while counting a roll");
            let slot = match counters.get_mut(&**ctx.name()) {
                Some(mine) => &mut mine[site.idx()],
                None => &mut counters.entry(ctx.name().clone()).or_insert([0; 9])[site.idx()],
            };
            *slot += 1;
            *slot - 1
        };
        let rate = inner.plan.rates[site.idx()];
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let h = splitmix64(
            inner
                .plan
                .seed
                .wrapping_add((site.idx() as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f))
                .wrapping_add(fnv1a(ctx.name()).wrapping_mul(0x8ebc_6af0_9c88_c6e3))
                .wrapping_add(k.wrapping_mul(0xe703_7ed1_a0b4_28db)),
        );
        // Map the hash onto [0,1) with 53 bits of precision.
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < rate
    }

    /// How many extra attempts a transient-faultable operation needs at
    /// `site`: rolls until a roll comes up clean or the retry budget is
    /// exhausted. `0` means the first attempt succeeds.
    pub fn extra_attempts(&self, ctx: &Ctx, site: FaultSite) -> u32 {
        let Some(plan) = self.plan() else { return 0 };
        let mut extra = 0;
        while extra < plan.max_retries && self.roll(ctx, site) {
            extra += 1;
        }
        extra
    }

    /// Is device `dev_idx` on `node` failed from launch?
    pub fn device_failed(&self, node: usize, dev_idx: usize) -> bool {
        self.plan()
            .map(|p| p.failed_devices.contains(&(node, dev_idx)))
            .unwrap_or(false)
    }

    /// Backoff before resend attempt `attempt` (1-based):
    /// `backoff_base * 2^(attempt-1)`, capped at 2^10 steps.
    pub fn backoff(&self, attempt: u32) -> SimDur {
        let base = self.plan().map(|p| p.backoff_base).unwrap_or(SimDur::ZERO);
        SimDur(
            base.0
                .saturating_mul(1u64 << attempt.saturating_sub(1).min(10)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impacc_vtime::{Sim, SimConfig};

    /// Run `f` as the only actor, named `name`, and return what it returns.
    fn as_actor<R: Send + 'static>(name: &str, f: impl FnOnce(&Ctx) -> R + Send + 'static) -> R {
        let out = Arc::new(Mutex::new(None));
        let o2 = out.clone();
        let mut sim = Sim::new();
        sim.spawn(name, move |ctx| *o2.lock().unwrap() = Some(f(ctx)));
        sim.run().unwrap();
        let r = out.lock().unwrap().take();
        r.expect("the actor ran")
    }

    #[test]
    fn disabled_never_fires() {
        let c = Chaos::disabled();
        assert!(!c.enabled());
        as_actor("a", move |ctx| {
            for _ in 0..100 {
                assert!(!c.roll(ctx, FaultSite::LinkDrop));
            }
            assert_eq!(c.extra_attempts(ctx, FaultSite::CopyFault), 0);
        });
    }

    #[test]
    fn rate_zero_and_one() {
        let c = Chaos::new(FaultPlan::new(7).with_rate(FaultSite::LinkDrop, 1.0));
        as_actor("a", move |ctx| {
            assert!(c.roll(ctx, FaultSite::LinkDrop));
            assert!(!c.roll(ctx, FaultSite::LinkDelay));
        });
    }

    /// `n` rolls at every site in turn by an actor named `name`.
    fn sequence(c: &Chaos, name: &str, n: usize) -> Vec<bool> {
        let c = c.clone();
        as_actor(name, move |ctx| {
            (0..n)
                .map(|i| c.roll(ctx, FaultSite::ALL[i % FaultSite::ALL.len()]))
                .collect()
        })
    }

    #[test]
    fn roll_sequence_is_deterministic_per_actor() {
        let mk = || Chaos::new(FaultPlan::new(42).with_uniform_rate(0.3));
        let a = sequence(&mk(), "rank0", 1000);
        assert_eq!(a, sequence(&mk(), "rank0", 1000));
        assert_ne!(
            a,
            sequence(&mk(), "rank1", 1000),
            "actors roll their own dice"
        );
    }

    #[test]
    fn sites_roll_independently() {
        // Interleaving rolls at another site must not perturb a site's
        // own sequence (per-site counters, not one stream per actor).
        let mk = || Chaos::new(FaultPlan::new(9).with_uniform_rate(0.5));
        let (a, b) = (mk(), mk());
        let seq_a: Vec<bool> = as_actor("a", move |ctx| {
            (0..200)
                .map(|_| a.roll(ctx, FaultSite::CopyFault))
                .collect()
        });
        let seq_b: Vec<bool> = as_actor("a", move |ctx| {
            (0..200)
                .map(|_| {
                    b.roll(ctx, FaultSite::LinkDrop);
                    b.roll(ctx, FaultSite::CopyFault)
                })
                .collect()
        });
        assert_eq!(seq_a, seq_b);
    }

    /// Two actors roll `LinkDrop` 300 times each on one handle. `delay`
    /// staggers them in virtual time; with none they sit in two partitions
    /// of a two-worker run and roll at the same time.
    fn two_rollers(delay: [u64; 2]) -> [Vec<bool>; 2] {
        let c = Chaos::new(FaultPlan::new(5).with_rate(FaultSite::LinkDrop, 0.4));
        let out = [(); 2].map(|_| Arc::new(Mutex::new(Vec::new())));
        let mut sim = Sim::with_config(SimConfig {
            parallelism: 2,
            lookahead: SimDur::from_us(1),
            ..SimConfig::default()
        });
        for (i, name) in ["left", "right"].into_iter().enumerate() {
            let (c, out, delay) = (c.clone(), out[i].clone(), delay[i]);
            sim.spawn(name, move |ctx| {
                ctx.advance(SimDur::from_us(delay), "wait");
                for _ in 0..300 {
                    out.lock().unwrap().push(c.roll(ctx, FaultSite::LinkDrop));
                    ctx.advance(SimDur::from_ns(10), "work");
                }
            });
        }
        sim.run().unwrap();
        out.map(|o| o.lock().unwrap().clone())
    }

    #[test]
    fn concurrent_rollers_see_what_serial_rollers_see() {
        let together = two_rollers([0, 0]);
        assert_eq!(together, two_rollers([0, 100]), "left, then right");
        assert_eq!(together, two_rollers([100, 0]), "right, then left");
        assert_ne!(together[0], together[1]);
    }

    #[test]
    fn rate_is_roughly_honored() {
        let c = Chaos::new(FaultPlan::new(1234).with_rate(FaultSite::LinkDrop, 0.2));
        let fired = as_actor("a", move |ctx| {
            (0..10_000)
                .filter(|_| c.roll(ctx, FaultSite::LinkDrop))
                .count()
        });
        assert!((1600..2400).contains(&fired), "got {fired} of 10000");
    }

    #[test]
    fn extra_attempts_bounded_by_budget() {
        let c = Chaos::new(
            FaultPlan::new(3)
                .with_rate(FaultSite::CopyFault, 1.0)
                .with_max_retries(3),
        );
        assert_eq!(
            as_actor("a", move |ctx| c.extra_attempts(ctx, FaultSite::CopyFault)),
            3
        );
    }

    #[test]
    fn device_failed_lookup() {
        let c = Chaos::new(FaultPlan::new(0).fail_device(1, 0));
        assert!(c.device_failed(1, 0));
        assert!(!c.device_failed(0, 0));
        assert!(!Chaos::disabled().device_failed(1, 0));
    }

    #[test]
    fn backoff_doubles() {
        let c = Chaos::new(FaultPlan::new(0));
        let b1 = c.backoff(1);
        let b2 = c.backoff(2);
        let b3 = c.backoff(3);
        assert_eq!(b2.0, b1.0 * 2);
        assert_eq!(b3.0, b1.0 * 4);
    }
}
