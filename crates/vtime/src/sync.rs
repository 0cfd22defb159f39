//! Synchronization primitives for actors.
//!
//! Built on the engine's [`prepare_wait`](crate::Ctx::prepare_wait) /
//! [`wait`](crate::Ctx::wait) / [`wake`](crate::Ctx::wake) protocol. Because
//! the engine serializes the actors of a partition (and latches a wake from
//! another partition that lands between `prepare_wait` and `wait`), the
//! classic check-then-wait race cannot occur *as long as no blocking engine
//! call happens between checking a condition and registering as a waiter* —
//! which these primitives uphold. A primitive shared across partitions is
//! only as ordered as the lookahead makes it (see the engine's module docs).

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::{Ctx, Suspend, WaitToken, WakeReason};

/// A condition-variable-like notifier with no memory: `wait` always suspends
/// until a *subsequent* `notify_one` / `notify_all` (or engine shutdown).
///
/// Cloning shares the waiter list.
#[derive(Clone, Default)]
pub struct Notify {
    waiters: Arc<Mutex<VecDeque<WaitToken>>>,
}

impl Notify {
    /// An empty notifier.
    pub fn new() -> Notify {
        Notify::default()
    }

    /// Register the calling actor as a waiter; the caller must suspend on
    /// the token next (see [`Ctx::prepare_wait`]).
    fn register(&self, ctx: &Ctx) -> WaitToken {
        let tok = ctx.prepare_wait();
        self.waiters.lock().push_back(tok);
        tok
    }

    /// Register the calling actor and return the wait for a *subsequent*
    /// notification, to await (see [`Ctx::suspend`]). Registration happens
    /// here, not at the first poll, so a condition checked just before
    /// cannot change unseen.
    pub fn notified<'a>(&self, ctx: &'a Ctx, tag: &'static str) -> Suspend<'a> {
        ctx.suspend(self.register(ctx), tag)
    }

    /// Suspend the calling actor until notified. Blocked time is charged
    /// under `tag`.
    #[track_caller]
    pub fn wait(&self, ctx: &Ctx, tag: &'static str) -> WakeReason {
        ctx.block_on(self.notified(ctx, tag))
    }

    /// Like [`Notify::wait`], but also returns when the clock reaches
    /// `deadline`. The caller cannot distinguish a notification from a
    /// timeout (poll your condition either way).
    #[track_caller]
    pub fn wait_deadline(
        &self,
        ctx: &Ctx,
        deadline: crate::time::SimTime,
        tag: &'static str,
    ) -> WakeReason {
        ctx.block_on(self.notified(ctx, tag).until(deadline))
    }

    /// Wake the longest-waiting actor. Returns `true` if one was woken.
    pub fn notify_one(&self, ctx: &Ctx) -> bool {
        loop {
            let tok = match self.waiters.lock().pop_front() {
                Some(t) => t,
                None => return false,
            };
            if ctx.wake(tok) {
                return true;
            }
            // Stale token (waiter already resumed, e.g. by shutdown): skip.
        }
    }

    /// Wake every currently-waiting actor. Returns how many were woken.
    pub fn notify_all(&self, ctx: &Ctx) -> usize {
        let drained: Vec<WaitToken> = self.waiters.lock().drain(..).collect();
        drained.into_iter().filter(|t| ctx.wake(*t)).count()
    }

    /// Number of registered waiters (stale entries included).
    pub fn waiter_count(&self) -> usize {
        self.waiters.lock().len()
    }
}

#[derive(Default)]
struct LatchState {
    open: bool,
    waiters: Vec<WaitToken>,
    subscribers: Vec<Notify>,
}

/// A sticky one-shot gate: once [`Latch::open`] has been called, every past
/// and future [`Latch::wait`] returns immediately. Used for completion of
/// asynchronous operations (copies, requests, queue drains).
///
/// Cloning shares the latch.
#[derive(Clone, Default)]
pub struct Latch {
    state: Arc<Mutex<LatchState>>,
}

impl Latch {
    /// A closed latch.
    pub fn new() -> Latch {
        Latch::default()
    }

    /// True once opened.
    pub fn is_open(&self) -> bool {
        self.state.lock().open
    }

    /// Register the calling actor as a waiter, unless the latch is open.
    fn register(&self, ctx: &Ctx) -> Option<WaitToken> {
        let mut st = self.state.lock();
        if st.open {
            return None;
        }
        let tok = ctx.prepare_wait();
        st.waiters.push(tok);
        Some(tok)
    }

    /// The wait for the latch to open, to await (see [`Ctx::suspend`]):
    /// ready at once if it already is.
    pub fn opened<'a>(&self, ctx: &'a Ctx, tag: &'static str) -> Suspend<'a> {
        Suspend::new(ctx, self.register(ctx), tag)
    }

    /// Suspend until the latch opens (immediate if already open).
    #[track_caller]
    pub fn wait(&self, ctx: &Ctx, tag: &'static str) -> WakeReason {
        ctx.block_on(self.opened(ctx, tag))
    }

    /// Open the latch and wake all waiters. Idempotent.
    pub fn open(&self, ctx: &Ctx) {
        let (waiters, subs) = {
            let mut st = self.state.lock();
            st.open = true;
            (
                std::mem::take(&mut st.waiters),
                std::mem::take(&mut st.subscribers),
            )
        };
        for tok in waiters {
            ctx.wake(tok);
        }
        for n in subs {
            n.notify_all(ctx);
        }
    }

    /// Register a [`Notify`] to be pinged when the latch opens — lets a
    /// single service actor (e.g. the IMPACC message handler) multiplex
    /// many completion sources over one wait point. If the latch is
    /// already open, no ping is delivered: subscribers must poll
    /// [`Latch::is_open`] before waiting (the engine's serialized
    /// execution makes that check-then-wait race-free).
    pub fn subscribe(&self, n: &Notify) {
        let mut st = self.state.lock();
        if !st.open {
            st.subscribers.push(n.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Sim;
    use crate::time::{SimDur, SimTime};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc as StdArc;

    #[test]
    fn notify_wakes_in_fifo_order() {
        let order = StdArc::new(Mutex::new(Vec::new()));
        let n = Notify::new();
        let mut sim = Sim::new();
        for name in ["w0", "w1", "w2"] {
            let n = n.clone();
            let order = order.clone();
            sim.spawn(name, move |ctx| {
                n.wait(ctx, "idle");
                order.lock().push(name);
            });
        }
        {
            let n = n.clone();
            sim.spawn("notifier", move |ctx| {
                ctx.advance(SimDur::from_us(1), "w");
                assert!(n.notify_one(ctx));
                ctx.advance(SimDur::from_us(1), "w");
                assert_eq!(n.notify_all(ctx), 2);
            });
        }
        sim.run().unwrap();
        assert_eq!(*order.lock(), vec!["w0", "w1", "w2"]);
    }

    #[test]
    fn notify_one_on_empty_returns_false() {
        let n = Notify::new();
        let mut sim = Sim::new();
        sim.spawn("solo", move |ctx| {
            assert!(!n.notify_one(ctx));
        });
        sim.run().unwrap();
    }

    #[test]
    fn latch_is_sticky() {
        let l = Latch::new();
        let hits = StdArc::new(AtomicUsize::new(0));
        let mut sim = Sim::new();
        {
            let l = l.clone();
            let hits = hits.clone();
            sim.spawn("early", move |ctx| {
                l.wait(ctx, "latch");
                assert_eq!(ctx.now(), SimTime::from_secs_f64(2e-6));
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        {
            let l = l.clone();
            let hits = hits.clone();
            sim.spawn("late", move |ctx| {
                ctx.advance(SimDur::from_us(5), "w");
                // Latch already open: returns without suspending.
                l.wait(ctx, "latch");
                assert_eq!(ctx.now(), SimTime::from_secs_f64(5e-6));
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        {
            let l = l.clone();
            sim.spawn("opener", move |ctx| {
                ctx.advance(SimDur::from_us(2), "w");
                l.open(ctx);
                l.open(ctx); // idempotent
            });
        }
        sim.run().unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn stale_tokens_are_skipped() {
        // A waiter woken by shutdown leaves a stale token in the Notify
        // queue; notify_one must skip it without waking anyone wrongly.
        let n = Notify::new();
        let mut sim = Sim::new();
        {
            let n = n.clone();
            sim.spawn_daemon("daemon", move |ctx| {
                // Will be woken by shutdown, leaving a stale token behind.
                n.wait(ctx, "idle");
            });
        }
        sim.spawn("main", |ctx| {
            ctx.advance(SimDur::from_us(1), "w");
        });
        sim.run().unwrap();
    }
}
