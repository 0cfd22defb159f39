//! OpenACC activity queues (§3.6).
//!
//! An accelerator has one or more activity queues, selected by the `async`
//! clause's integer argument. Operations enqueued on one queue execute
//! **in order**; operations on different queues are active simultaneously
//! and complete in any order. IMPACC's *unified activity queue* is this
//! same structure — the runtime simply enqueues MPI operations alongside
//! kernels and data transfers (an op is a future, so anything the runtime
//! can express becomes queueable).
//!
//! Each queue is served by a handler (`impacc_vtime`): an actor that owns
//! no thread and awaits its ops one after the other, each at the instant
//! the previous one finished. [`ActivityQueue::submit`] returns a
//! [`Latch`] that opens when the operation completes.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;

use impacc_machine::{Chaos, FaultSite};
use impacc_vtime::{Ctx, Latch, Notify, SimTime, WakeReason};
use parking_lot::Mutex;

/// An operation's work: a future run on the queue's context.
type Op = Pin<Box<dyn Future<Output = ()> + Send>>;

/// An operation waiting on a queue.
struct QueuedOp {
    label: &'static str,
    enq_at: SimTime,
    /// Enqueuing actor, captured only while a span sink is recording: the
    /// source end of the "enq" causal edge emitted when the op starts.
    enq_by: Option<Arc<str>>,
    /// `None`: a marker, which only orders (`wait`, `wait(q) async`).
    run: Option<Op>,
    done: Latch,
}

struct QInner {
    name: Arc<str>,
    /// The queue actor's own context: every op runs on it.
    ctx: Ctx,
    ops: Mutex<VecDeque<QueuedOp>>,
    work: Notify,
    /// Operations enqueued and not yet completed.
    pending: Mutex<usize>,
    /// Fault injection: queue-abort rolls before each op executes.
    chaos: Chaos,
}

/// An in-order asynchronous operation stream served by a handler.
///
/// Cloning shares the queue.
#[derive(Clone)]
pub struct ActivityQueue {
    inner: Arc<QInner>,
}

impl ActivityQueue {
    /// Create a queue and spawn its handler. `name` is used for the actor
    /// (diagnostics and accounting). Fault injection is disabled; the
    /// runtime uses [`ActivityQueue::spawn_with_chaos`].
    pub fn spawn(ctx: &Ctx, name: String) -> ActivityQueue {
        ActivityQueue::spawn_with_chaos(ctx, name, Chaos::disabled())
    }

    /// Like [`ActivityQueue::spawn`] with a fault-injection handle: each
    /// op rolls [`FaultSite::QueueAbort`] before executing; a fired abort
    /// flushes the op's launch and replays it after a fixed penalty, so
    /// data effects are unchanged and only timing moves.
    pub fn spawn_with_chaos(ctx: &Ctx, name: String, chaos: Chaos) -> ActivityQueue {
        let mut queue = None;
        ctx.spawn_handler(name.clone(), |qctx| {
            let inner = Arc::new(QInner {
                name: name.into(),
                ctx: qctx,
                ops: Mutex::new(VecDeque::new()),
                work: Notify::new(),
                pending: Mutex::new(0),
                chaos,
            });
            queue = Some(ActivityQueue {
                inner: inner.clone(),
            });
            serve(inner)
        });
        queue.expect("the handler's body is built at spawn")
    }

    /// Enqueue an operation: `op` builds its future from the queue's own
    /// context, and the queue awaits it after every previously enqueued
    /// operation has completed. Any time it charges is asynchronous with
    /// respect to the enqueuing task. The returned latch opens on
    /// completion.
    pub fn submit<B, F>(&self, ctx: &Ctx, label: &'static str, op: B) -> Latch
    where
        B: FnOnce(Ctx) -> F,
        F: Future<Output = ()> + Send + 'static,
    {
        self.push(ctx, label, Some(Box::pin(op(self.inner.ctx.clone()))))
    }

    fn push(&self, ctx: &Ctx, label: &'static str, run: Option<Op>) -> Latch {
        let done = Latch::new();
        {
            let mut ops = self.inner.ops.lock();
            ops.push_back(QueuedOp {
                label,
                enq_at: ctx.now(),
                enq_by: ctx.sink_enabled().then(|| ctx.name().clone()),
                run,
                done: done.clone(),
            });
            *self.inner.pending.lock() += 1;
        }
        self.inner.work.notify_one(ctx);
        done
    }

    /// `#pragma acc wait(q)`: block the calling task until everything
    /// currently on the queue has completed. Blocked time is charged under
    /// `tag`.
    pub fn wait_all(&self, ctx: &Ctx, tag: &'static str) {
        let marker = self.push(ctx, "wait_marker", None);
        marker.wait_with_cause(ctx, tag, || format!("drain queue {}", self.inner.name));
    }

    /// `#pragma acc wait(other) async(self)`: enqueue a dependency so that
    /// subsequent operations on *this* queue start only after everything
    /// currently on `other` has completed — without blocking the host.
    pub fn enqueue_wait_for(&self, ctx: &Ctx, other: &ActivityQueue) {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return; // a queue is always ordered against itself
        }
        let marker = other.push(ctx, "cross_wait_marker", None);
        let other_name = other.inner.name.clone();
        self.submit(ctx, "cross_wait", |qctx| async move {
            marker
                .opened(&qctx, "cross_queue_wait")
                .cause(|| format!("drain queue {other_name}"))
                .await;
        });
    }

    /// Number of operations enqueued but not yet completed.
    pub fn pending(&self) -> usize {
        *self.inner.pending.lock()
    }

    /// Label of the operation at the head of the queue, if any (tests).
    pub fn head_label(&self) -> Option<&'static str> {
        self.inner.ops.lock().front().map(|o| o.label)
    }
}

/// The queue handler's body: await each op in turn, sleep while empty.
async fn serve(inner: Arc<QInner>) {
    let qctx = &inner.ctx;
    loop {
        let next = inner.ops.lock().pop_front();
        let Some(op) = next else {
            if qctx.is_shutdown() {
                return;
            }
            let name = &inner.name;
            let woke = inner
                .work
                .notified(qctx, "queue_idle")
                .cause(|| format!("queue {name} empty"))
                .await;
            if woke == WakeReason::Shutdown {
                return;
            }
            continue;
        };
        let started = qctx.now();
        if started > op.enq_at {
            // Time the op sat behind earlier work on this queue.
            qctx.span("queue_wait", op.enq_at, started, || {
                vec![("op", op.label.to_string())]
            });
        }
        // FIFO-order edge: this op could not start before the actor that
        // enqueued it reached the enqueue point.
        if let Some(enq_by) = &op.enq_by {
            qctx.edge_to_self("enq", enq_by, op.enq_at, started, || {
                vec![("op", op.label.to_string())]
            });
        }
        // Injected queue abort (impacc-chaos): the op's launch is flushed
        // and replayed after a penalty. The replay runs to completion, so
        // data effects are unchanged.
        if inner.chaos.roll(qctx, FaultSite::QueueAbort) {
            let p = inner
                .chaos
                .plan()
                .expect("fault implies plan")
                .abort_penalty;
            qctx.metrics().inc("retries");
            qctx.metrics().inc("chaos_queue_abort");
            let t0 = qctx.now();
            qctx.span("fault", t0, t0 + p, || {
                vec![
                    ("site", "queue_abort".to_string()),
                    ("op", op.label.to_string()),
                ]
            });
            qctx.sleep(p, "queue_abort").await;
        }
        if let Some(run) = op.run {
            run.await;
        }
        op.done.open(qctx);
        *inner.pending.lock() -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impacc_vtime::{Sim, SimDur, SimTime};
    use std::cell::RefCell;
    use std::sync::Mutex as StdMutex;

    /// Closures as ops, for the tests below: a closure runs when its op
    /// starts, and the time it charges through [`OpCtx::advance`] then
    /// elapses on the queue before the op completes.
    trait ClosureOps {
        fn enqueue(
            &self,
            ctx: &Ctx,
            label: &'static str,
            exec: impl FnOnce(&OpCtx) + Send + 'static,
        ) -> Latch;
    }

    impl ClosureOps for ActivityQueue {
        fn enqueue(
            &self,
            ctx: &Ctx,
            label: &'static str,
            exec: impl FnOnce(&OpCtx) + Send + 'static,
        ) -> Latch {
            self.submit(ctx, label, |qctx| async move {
                let op = OpCtx {
                    ctx: qctx,
                    charged: RefCell::new(Vec::new()),
                };
                exec(&op);
                for (dur, tag) in op.charged.take() {
                    op.ctx.sleep(dur, tag).await;
                }
            })
        }
    }

    /// The queue's context, with `advance` charging the op.
    struct OpCtx {
        ctx: Ctx,
        charged: RefCell<Vec<(SimDur, &'static str)>>,
    }

    impl OpCtx {
        fn advance(&self, dur: SimDur, tag: &'static str) {
            self.charged.borrow_mut().push((dur, tag));
        }
    }

    impl std::ops::Deref for OpCtx {
        type Target = Ctx;

        fn deref(&self) -> &Ctx {
            &self.ctx
        }
    }

    #[test]
    fn ops_on_one_queue_run_in_order() {
        let log = Arc::new(StdMutex::new(Vec::new()));
        let mut sim = Sim::new();
        let log2 = log.clone();
        sim.spawn("host", move |ctx| {
            let q = ActivityQueue::spawn(ctx, "q1".into());
            for i in 0..3 {
                let log = log2.clone();
                q.enqueue(ctx, "op", move |qctx| {
                    qctx.advance(SimDur::from_us(10 - 3 * i), "work");
                    log.lock().unwrap().push(i);
                });
            }
            q.wait_all(ctx, "acc_wait");
            // In-order: 0 (10us) then 1 (7us) then 2 (4us) = 21us total,
            // even though later ops are shorter.
            assert_eq!(ctx.now(), SimTime::ZERO + SimDur::from_us(21));
        });
        sim.run().unwrap();
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn different_queues_overlap() {
        let mut sim = Sim::new();
        sim.spawn("host", move |ctx| {
            let q1 = ActivityQueue::spawn(ctx, "q1".into());
            let q2 = ActivityQueue::spawn(ctx, "q2".into());
            let a = q1.enqueue(ctx, "a", |qctx| qctx.advance(SimDur::from_us(10), "w"));
            let b = q2.enqueue(ctx, "b", |qctx| qctx.advance(SimDur::from_us(10), "w"));
            a.wait(ctx, "wait");
            b.wait(ctx, "wait");
            // Both ran concurrently: 10us, not 20.
            assert_eq!(ctx.now(), SimTime::ZERO + SimDur::from_us(10));
        });
        sim.run().unwrap();
    }

    #[test]
    fn host_continues_while_queue_works() {
        let mut sim = Sim::new();
        sim.spawn("host", move |ctx| {
            let q = ActivityQueue::spawn(ctx, "q".into());
            q.enqueue(ctx, "slow", |qctx| qctx.advance(SimDur::from_ms(1), "w"));
            // Host is free immediately.
            assert_eq!(ctx.now(), SimTime::ZERO);
            ctx.advance(SimDur::from_us(5), "host_work");
            assert_eq!(q.pending(), 1);
            q.wait_all(ctx, "acc_wait");
            assert_eq!(ctx.now(), SimTime::ZERO + SimDur::from_ms(1));
            assert_eq!(q.pending(), 0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn latch_opens_exactly_when_op_finishes() {
        let mut sim = Sim::new();
        sim.spawn("host", move |ctx| {
            let q = ActivityQueue::spawn(ctx, "q".into());
            let l = q.enqueue(ctx, "op", |qctx| qctx.advance(SimDur::from_us(3), "w"));
            assert!(!l.is_open());
            l.wait(ctx, "wait");
            assert!(l.is_open());
            assert_eq!(ctx.now(), SimTime::ZERO + SimDur::from_us(3));
        });
        sim.run().unwrap();
    }

    #[test]
    fn cross_queue_wait_orders_without_blocking_host() {
        let mut sim = Sim::new();
        sim.spawn("host", move |ctx| {
            let q1 = ActivityQueue::spawn(ctx, "q1".into());
            let q2 = ActivityQueue::spawn(ctx, "q2".into());
            let flag = Arc::new(StdMutex::new(0u32));
            let f1 = flag.clone();
            q1.enqueue(ctx, "slow", move |qctx| {
                qctx.advance(SimDur::from_us(50), "w");
                *f1.lock().unwrap() = 1;
            });
            // q2 must not start its op until q1's is done...
            q2.enqueue_wait_for(ctx, &q1);
            let f2 = flag.clone();
            let checked = q2.enqueue(ctx, "after", move |qctx| {
                assert_eq!(*f2.lock().unwrap(), 1, "q1's op must have finished");
                qctx.advance(SimDur::from_us(5), "w");
            });
            // ...but the host is still free right now.
            assert_eq!(ctx.now(), SimTime::ZERO);
            checked.wait(ctx, "wait");
            assert_eq!(ctx.now(), SimTime::ZERO + SimDur::from_us(55));
        });
        sim.run().unwrap();
    }

    #[test]
    fn cross_queue_wait_on_self_is_a_noop() {
        let mut sim = Sim::new();
        sim.spawn("host", move |ctx| {
            let q = ActivityQueue::spawn(ctx, "q".into());
            q.enqueue_wait_for(ctx, &q);
            q.wait_all(ctx, "w");
        });
        sim.run().unwrap();
    }

    #[test]
    fn queue_daemon_exits_on_shutdown() {
        let mut sim = Sim::new();
        sim.spawn("host", move |ctx| {
            let _q = ActivityQueue::spawn(ctx, "q".into());
            ctx.advance(SimDur::from_us(1), "w");
            // Host exits with the queue idle; daemon must shut down.
        });
        sim.run().unwrap();
    }

    #[test]
    fn queue_abort_replays_with_penalty() {
        use impacc_machine::FaultPlan;
        let mut sim = Sim::new();
        sim.spawn("host", move |ctx| {
            let chaos = Chaos::new(FaultPlan::new(1).with_rate(FaultSite::QueueAbort, 1.0));
            let p = chaos.plan().unwrap().abort_penalty;
            let q = ActivityQueue::spawn_with_chaos(ctx, "q".into(), chaos);
            let hit = Arc::new(StdMutex::new(0u32));
            let h = hit.clone();
            let l = q.enqueue(ctx, "op", move |qctx| {
                qctx.advance(SimDur::from_us(10), "w");
                *h.lock().unwrap() += 1;
            });
            l.wait(ctx, "wait");
            assert_eq!(ctx.now(), SimTime::ZERO + p + SimDur::from_us(10));
            assert_eq!(*hit.lock().unwrap(), 1, "the replayed op runs exactly once");
        });
        let report = sim.run().unwrap();
        assert_eq!(report.metrics["chaos_queue_abort"], 1);
        assert_eq!(report.metrics["retries"], 1);
    }

    #[test]
    fn enqueued_op_can_enqueue_more() {
        // The unified activity queue lets an op (e.g. a fused MPI call)
        // schedule follow-up work.
        let mut sim = Sim::new();
        sim.spawn("host", move |ctx| {
            let q = ActivityQueue::spawn(ctx, "q".into());
            let q2 = q.clone();
            q.enqueue(ctx, "outer", move |qctx| {
                qctx.advance(SimDur::from_us(1), "w");
                q2.enqueue(qctx, "inner", |qc| qc.advance(SimDur::from_us(2), "w"));
            });
            // The first wait marker was enqueued before "inner" existed, so
            // it completes right after "outer"...
            q.wait_all(ctx, "acc_wait");
            assert_eq!(ctx.now(), SimTime::ZERO + SimDur::from_us(1));
            // ...and a second wait drains the nested op.
            q.wait_all(ctx, "acc_wait");
            assert_eq!(ctx.now(), SimTime::ZERO + SimDur::from_us(3));
        });
        sim.run().unwrap();
    }

    // --- ops as futures, suspending mid-way on the queue's handler ---

    #[test]
    fn a_queue_spawns_no_thread() {
        let mut sim = Sim::new();
        sim.spawn("host", |ctx| {
            let queues: Vec<_> = (0..4)
                .map(|i| ActivityQueue::spawn(ctx, format!("q{i}")))
                .collect();
            for q in &queues {
                q.submit(ctx, "op", |qctx| async move {
                    qctx.sleep(SimDur::from_us(2), "w").await;
                });
            }
            for q in &queues {
                q.wait_all(ctx, "acc_wait");
            }
            assert_eq!(ctx.now(), SimTime::ZERO + SimDur::from_us(2));
        });
        let report = sim.run().unwrap();
        assert_eq!(report.threads_spawned, 1, "the host's thread only");
        assert_eq!(report.actor("q3").unwrap().tag("w"), SimDur::from_us(2));
    }

    #[test]
    fn a_panicking_op_is_reported_under_the_queue_name() {
        let mut sim = Sim::new();
        sim.spawn("host", |ctx| {
            let q = ActivityQueue::spawn(ctx, "q1.rank0".into());
            q.submit(ctx, "op", |qctx| async move {
                qctx.sleep(SimDur::from_us(1), "w").await;
                panic!("op failed mid-way");
            });
            q.wait_all(ctx, "acc_wait");
        });
        match sim.run() {
            Err(impacc_vtime::SimError::ActorPanic { actor, message }) => {
                assert_eq!(actor, "q1.rank0");
                assert!(message.contains("op failed mid-way"), "{message}");
            }
            other => panic!("expected the op's panic, got {other:?}"),
        }
    }

    #[test]
    fn cross_wait_on_a_busy_queue_holds_a_suspended_op() {
        // `cross_queue_wait_orders_without_blocking_host` with ops that
        // suspend mid-way: the same 55 us.
        let mut sim = Sim::new();
        sim.spawn("host", move |ctx| {
            let q1 = ActivityQueue::spawn(ctx, "q1".into());
            let q2 = ActivityQueue::spawn(ctx, "q2".into());
            let flag = Arc::new(StdMutex::new(0u32));
            let f1 = flag.clone();
            q1.submit(ctx, "slow", |qctx| async move {
                qctx.sleep(SimDur::from_us(50), "w").await;
                *f1.lock().unwrap() = 1;
            });
            q2.enqueue_wait_for(ctx, &q1);
            let f2 = flag.clone();
            let checked = q2.submit(ctx, "after", |qctx| async move {
                assert_eq!(qctx.now(), SimTime::ZERO + SimDur::from_us(50));
                assert_eq!(*f2.lock().unwrap(), 1, "q1's op must have finished");
                qctx.sleep(SimDur::from_us(5), "w").await;
            });
            assert_eq!(ctx.now(), SimTime::ZERO);
            checked.wait(ctx, "wait");
            assert_eq!(ctx.now(), SimTime::ZERO + SimDur::from_us(55));
        });
        let report = sim.run().unwrap();
        let q2 = report.actor("q2").unwrap();
        assert_eq!(q2.tag("cross_queue_wait"), SimDur::from_us(50));
    }

    #[test]
    fn a_suspended_op_can_enqueue_onto_its_own_queue() {
        // `enqueued_op_can_enqueue_more` with ops that suspend mid-way: the
        // same 1 us and 3 us, the inner op enqueued at 1 us.
        let mut sim = Sim::new();
        sim.spawn("host", move |ctx| {
            let q = ActivityQueue::spawn(ctx, "q".into());
            let q2 = q.clone();
            q.submit(ctx, "outer", |qctx| async move {
                qctx.sleep(SimDur::from_us(1), "w").await;
                q2.submit(&qctx, "inner", |qc| async move {
                    assert_eq!(qc.now(), SimTime::ZERO + SimDur::from_us(1));
                    qc.sleep(SimDur::from_us(2), "w").await;
                });
            });
            q.wait_all(ctx, "acc_wait");
            assert_eq!(ctx.now(), SimTime::ZERO + SimDur::from_us(1));
            q.wait_all(ctx, "acc_wait");
            assert_eq!(ctx.now(), SimTime::ZERO + SimDur::from_us(3));
        });
        sim.run().unwrap();
    }
}
