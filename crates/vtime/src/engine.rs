//! The discrete-event engine.
//!
//! One scheduler: a **conservative, windowed** discrete-event scheduler.
//! Actors are grouped into **partitions** (one per simulated node under
//! `impacc_core::Launch`; a fresh partition per actor by default). Within a
//! partition exactly one actor executes at any moment, in the order of the
//! partition's queue, so actors of one partition mutate shared simulation
//! state through uncontended locks. Across partitions the engine runs in
//! **horizon windows**: with `t0` the earliest pending event and `L` the
//! configured [`SimConfig::lookahead`], every partition may execute its
//! events with `t < t0 + L` concurrently, because any cross-partition effect
//! an event at `t` can cause is delivered no earlier than `t + L`
//! (cross-partition [`Ctx::wake`]/[`Ctx::wake_at`] clamp to the sender's
//! clock plus `L` — the null-message guarantee). Up to
//! [`SimConfig::parallelism`] partitions hold a grant at once; one worker is
//! the default. Results are bit-identical for every worker count: partition
//! queues order equal-time entries by content (push time, pusher name,
//! per-pusher sequence), never by racy arrival order.
//!
//! Two cases need no window and the engine sees them for itself. With zero
//! lookahead nothing may overlap, so every actor joins one partition and
//! the run is one queue in content order. And a run with a single partition
//! has nobody to synchronize with, so its horizon is unbounded.
//!
//! Time only moves when an actor calls [`Ctx::advance`] /
//! [`Ctx::advance_until`]; the real-time cost of computation inside an actor
//! does not affect virtual time. Every actor has its own clock; an advance
//! whose target lies inside the window and ahead of nothing else queued on
//! the actor's partition bumps that clock and returns — no lock, no
//! scheduler, no context switch (the in-window fast path, counted in
//! [`SimReport::handoffs_elided`]). Everything else queues an entry and
//! releases the partition's grant.
//!
//! The contract partitions add: state shared **across** partitions must be
//! exchanged through `wake`/`wake_at` (or layers built on them, like the
//! MPI library's delivery mailboxes) — polling another partition's mutable
//! state races with its concurrent execution. Inside a partition the
//! check-then-wait idiom is race-free.
//!
//! # Blocking protocol
//!
//! Synchronization primitives (see [`crate::sync`]) follow a two-step
//! protocol: [`Ctx::prepare_wait`] obtains a [`WaitToken`], the primitive
//! records the token in its own waiter list, and the actor then immediately
//! calls [`Ctx::wait`]. A waker calls [`Ctx::wake`] with the stored token;
//! one that fires between the two steps (a waker in another partition runs
//! concurrently) is latched and consumed when the wait is entered, so lost
//! wake-ups are impossible. Stale tokens (the waiter has since resumed) are
//! ignored via a per-actor generation counter.
//!
//! # Grants
//!
//! Whoever releases a grant picks the next ones under the scheduler lock
//! but only *records* them there; the lock guard ([`SchedGuard`]) acts on
//! them after unlocking, so a resumed thread never collides with a lock its
//! waker still holds. A thread actor sleeps on one atomic word (`Park`)
//! plus its thread's park token, and on resuming consults the lock-free
//! `poisoned` flag instead of re-taking the scheduler lock.
//!
//! # Handlers
//!
//! A handler ([`Sim::spawn_handler_on`], [`Ctx::spawn_handler`]) is an
//! actor that owns no thread. Its body is a `Future` built from its own
//! [`Ctx`] and polled by whichever thread issues its grant: inline, outside
//! the scheduler lock, with the handler's partition marked active exactly
//! as for a thread actor. The body may advance and wait anywhere, through
//! the awaitable forms of those calls — [`Ctx::sleep`], [`Ctx::sleep_until`]
//! and [`Ctx::suspend`] (with [`Notify::notified`](crate::Notify::notified)
//! and [`Latch::opened`](crate::Latch::opened) on top). Each takes the
//! decision the blocking call takes: an advance inside the window elides
//! and returns at once, anything else records the one entry the thread
//! would queue and returns `Pending`. A pending body therefore means "the
//! one sleep this actor just recorded"; the granting thread queues it,
//! releases the grant, and the grant that ends the sleep polls the body on
//! from there. One activation is one dispatched event, as one grant of a
//! thread actor is.
//!
//! A thread actor runs the same future with [`Ctx::block_on`]: on a thread
//! every engine call blocks in place, so one poll finishes it. One
//! definition of an operation thus serves a handler that awaits it and a
//! thread that blocks on it.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::future::Future;
use std::ops::{Deref, DerefMut};
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll, Waker};
use std::thread::{JoinHandle, Thread};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::time::{SimDur, SimTime};

/// Identifies an actor within one engine run.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ActorId(pub u32);

/// A one-shot permission to wake a specific suspended actor.
///
/// Obtained from [`Ctx::prepare_wait`]; consumed by [`Ctx::wait`] on the
/// waiting side and honored at most once by [`Ctx::wake`] on the waking side.
#[derive(Copy, Clone, Debug)]
pub struct WaitToken {
    actor: ActorId,
    gen: u64,
}

impl WaitToken {
    /// The actor this token will wake.
    pub fn actor(&self) -> ActorId {
        self.actor
    }
}

/// Why a suspended actor resumed.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum WakeReason {
    /// A timed wake-up (from `advance`) or an explicit [`Ctx::wake`].
    Signaled,
    /// The engine is shutting down because all non-daemon actors finished.
    Shutdown,
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum ActorState {
    /// In its partition's queue, waiting for a grant.
    Queued,
    /// Holding its partition's grant.
    Running,
    /// Suspended on a synchronization primitive.
    Blocked,
    /// Closure returned (or unwound).
    Finished,
}

/// Where an actor thread sleeps between grants: one word saying why it may
/// resume, and the thread to unpark. `wake` is only ever called with the
/// scheduler lock released (see [`SchedGuard`]).
struct Park {
    /// `PARK_EMPTY`, `PARK_SIGNALED` or `PARK_SHUTDOWN`. `wake` stores with
    /// `Release` and `wait` takes with `Acquire`, so everything the waker
    /// wrote under the scheduler lock (clocks, the poison flag) is visible
    /// to the resumed actor without it taking that lock.
    word: AtomicU32,
    /// The actor's OS thread, taken from its `JoinHandle` in `spawn_inner`
    /// before the actor's slot is visible to any waker.
    thread: OnceLock<Thread>,
}

const PARK_EMPTY: u32 = 0;
const PARK_SIGNALED: u32 = 1;
const PARK_SHUTDOWN: u32 = 2;

impl Park {
    fn new() -> Arc<Park> {
        Arc::new(Park {
            word: AtomicU32::new(PARK_EMPTY),
            thread: OnceLock::new(),
        })
    }

    fn wake(&self, reason: WakeReason) {
        match reason {
            // A pending `Shutdown` is sticky: wakes are issued after the
            // scheduler lock is released, so a poisoning can overtake a
            // grant recorded before it and must not be downgraded.
            WakeReason::Signaled => {
                let _ = self.word.compare_exchange(
                    PARK_EMPTY,
                    PARK_SIGNALED,
                    Ordering::Release,
                    Ordering::Relaxed,
                );
            }
            WakeReason::Shutdown => self.word.store(PARK_SHUTDOWN, Ordering::Release),
        }
        if let Some(thread) = self.thread.get() {
            thread.unpark();
        }
    }

    /// Sleep until woken. Must be called on the actor's own thread.
    fn wait(&self) -> WakeReason {
        loop {
            match self.word.swap(PARK_EMPTY, Ordering::Acquire) {
                PARK_SIGNALED => return WakeReason::Signaled,
                PARK_SHUTDOWN => return WakeReason::Shutdown,
                // Not yet woken, or a stale unpark token: sleep (again).
                _ => std::thread::park(),
            }
        }
    }
}

/// Lock-free per-actor state shared between the actor thread (fast path)
/// and the scheduler (grants).
struct ActorClock {
    /// Where this actor's spans go (`None`: no sink is recording). The
    /// actor pushes its own; the scheduler emits stall spans through it on
    /// the *woken* actor's behalf.
    lane: Option<Arc<dyn SpanLane>>,
    /// Does the lane keep a stall span's attributes? Only then is a wait's
    /// cause formatted (fixed at spawn: a store's retention is).
    keeps_causes: bool,
    /// The actor's own virtual clock, maintained by the fast path and by
    /// scheduler grants; [`Ctx::now`] reads it.
    local_now: AtomicU64,
    /// Advances taken on the lock-free fast path (no scheduler involvement).
    fast_advances: AtomicU64,
}

struct ActorSlot {
    name: Arc<str>,
    daemon: bool,
    state: ActorState,
    runner: Runner,
    /// Incremented every time the actor suspends; guards against stale wakes.
    wait_gen: u64,
    blocked_since: SimTime,
    blocked_tag: &'static str,
    /// What the actor is concretely waiting *for* (awaited MPI tag, queue
    /// name, latch label). Attached to the stall span as a `cause` attr so
    /// the profiler's wait-state classifier never buckets it "unknown".
    /// Only populated when the actor's lane keeps stall attributes.
    blocked_cause: Option<String>,
    /// Tagged virtual-time accounting. Behind its own (uncontended) lock so
    /// the fast path can charge tags without the scheduler lock.
    acct: Arc<Mutex<BTreeMap<&'static str, SimDur>>>,
    /// This actor's partition.
    part: u32,
    /// Per-pusher sequence for deterministic equal-time ordering of the
    /// partition-queue entries this actor pushes. Mutated under the
    /// scheduler lock; deterministic because each actor's own pushes are
    /// sequential.
    push_seq: u64,
    /// Shared clock/counters.
    clock: Arc<ActorClock>,
    /// A wake that arrived between `prepare_wait` and the matching `wait`
    /// (cross-partition wakers run concurrently). Consumed when the wait
    /// is entered.
    pending_wake: Option<WakeSrc>,
    /// True between `prepare_wait` and the matching `wait`; gates
    /// `pending_wake` so late wakes of an already-resumed generation are
    /// still rejected as stale.
    wait_armed: bool,
    /// The deadline of the `wait_deadline` the actor is blocked in, if any:
    /// its timer entry is queued at this instant. A `wake_at` at/after it
    /// defers to the timer (deterministic: depends only on virtual times);
    /// an earlier one removes the timer again (keeping the queue identical
    /// across the woken-before-park / woken-while-parked race arms).
    blocked_deadline: Option<SimTime>,
    /// Set while the actor sits in its partition queue because a
    /// `wake`/`wake_at` put it there. Lets a later `wake_at` with
    /// the same token re-schedule the entry *earlier* (deterministic min
    /// over senders, independent of real-time arrival order). Because the
    /// final resume instant is only known once no earlier sender can exist,
    /// the blocked-time charge, the stall span, and the wake edge are all
    /// deferred to grant time. Cleared on grant.
    queued_by_wake: Option<QueuedWake>,
}

/// How an actor's code runs between grants, as its slot keeps it.
enum Runner {
    /// On an OS thread of its own, asleep in this `Park`.
    Thread(Arc<Park>),
    /// A handler's body, while it sleeps. `None` while an activation polls
    /// it (the granting thread takes it out and puts it back) and, for a
    /// moment at spawn, before it is built.
    Handler(Option<Box<Handler>>),
}

/// The body of a handler: its future, built from its own [`Ctx`].
type Body = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// What a handler keeps between activations instead of a thread.
struct Handler {
    step: Arc<Mutex<Step>>,
    body: Body,
}

/// One granted handler activation, recorded under the scheduler lock and
/// run by the unlocking thread (see [`SchedGuard`]).
struct Activation {
    id: ActorId,
    reason: WakeReason,
    handler: Box<Handler>,
}

/// Where a handler's leaf futures and its activations meet: the one
/// suspension a poll stopped at, and the reason the activation being
/// polled resumed with.
struct Step {
    sleep: Option<Sleep>,
    woke: WakeReason,
}

/// A suspension a handler's body recorded instead of blocking: exactly
/// what a thread actor's `advance_until` or `wait*` does under the
/// scheduler lock, left for `Engine::activate` to do after the poll.
enum Sleep {
    /// An advance that did not elide: queue at `t`, pushed from clock
    /// `from`.
    Advance { t: SimTime, from: SimTime },
    /// A wait on `token` (see [`Ctx::suspend`]).
    Wait {
        token: WaitToken,
        tag: &'static str,
        cause: Option<String>,
        deadline: Option<SimTime>,
    },
}

/// How an actor's [`Ctx`] reaches its runner.
#[derive(Clone)]
enum Host {
    Thread(Arc<Park>),
    Handler(Arc<Mutex<Step>>),
}

/// A wake delivered between `prepare_wait` and the
/// matching `wait`. Merged by lexicographic min on `(at, src, src_vt)` so
/// the winning waker is independent of real-time arrival order.
struct WakeSrc {
    at: SimTime,
    src: Arc<str>,
    src_vt: SimTime,
    /// `false` for [`Ctx::wake_at_untraced`]: the resume is attributed like
    /// a timer (no wake edge), for protocols that emit their own
    /// deterministic causal edges.
    traced: bool,
}

/// Bookkeeping for an actor whose queue entry was placed
/// by a wake (or by its `wait_deadline` cap): the instant it is queued at,
/// and `src`, the winning waker — `None` when the deadline cap won or the
/// winning wake was untraced, both of which resume like a timer and emit
/// no wake edge.
struct QueuedWake {
    gen: u64,
    at: SimTime,
    src: Option<(Arc<str>, SimTime)>,
}

/// A partition-queue entry. The ordering key after `t`
/// is pure content — the pusher's virtual time, name, and per-pusher
/// sequence — so equal-time ordering is identical run over run no matter in
/// which real-time order concurrent partitions pushed.
struct PEntry {
    t: SimTime,
    /// Pusher's virtual clock at push time.
    src_vt: SimTime,
    /// Pusher's (unique) actor name.
    src: Arc<str>,
    /// Pusher's per-actor push sequence.
    src_seq: u64,
    id: ActorId,
    reason: WakeReason,
    /// `None`: a normal entry for a Queued actor. `Some(gen)`: a timer for
    /// a Blocked actor created by `wait_deadline`; it only fires if the
    /// actor is still blocked in that same wait generation.
    timer_gen: Option<u64>,
}

impl PEntry {
    fn key(&self) -> (SimTime, SimTime, &str, u64) {
        (self.t, self.src_vt, &self.src, self.src_seq)
    }
}

impl PartialEq for PEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for PEntry {}
impl PartialOrd for PEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// One partition: an independent serialization domain.
struct Part {
    /// Pending entries, kept sorted by [`PEntry`]'s content key. A sorted
    /// deque, not a tree: a partition holds an entry or two per actor, most
    /// pushes land at the back and every grant pops the front.
    queue: VecDeque<PEntry>,
    /// An actor of this partition currently holds a grant.
    active: bool,
    /// Present in `Sched::ready` (grantable in the current window).
    in_ready: bool,
    /// Mirror of the queue front's time (`u64::MAX` when empty), updated
    /// under the scheduler lock, read by the lock-free fast path.
    front: Arc<AtomicU64>,
    /// Last window in which this partition received a grant (for the
    /// deterministic `parallel_advances` attribution).
    last_grant_window: u64,
}

impl Part {
    fn new() -> Part {
        Part {
            queue: VecDeque::new(),
            active: false,
            in_ready: false,
            front: Arc::new(AtomicU64::new(u64::MAX)),
            last_grant_window: 0,
        }
    }

    fn sync_front(&self) {
        let f = self.queue.front().map(|e| e.t.0).unwrap_or(u64::MAX);
        self.front.store(f, Ordering::Release);
    }
}

struct Sched {
    actors: Vec<ActorSlot>,
    live_total: usize,
    live_nondaemon: usize,
    shutdown: bool,
    poison: Option<String>,
    events_dispatched: u64,
    /// Thread wakes recorded under the lock by `grant_one` and `poison`;
    /// [`SchedGuard`] issues them after unlocking.
    wakes: Deferred<(Arc<Park>, WakeReason)>,
    /// Handler activations `grant_one` granted; [`SchedGuard`] runs them
    /// after unlocking.
    activations: Deferred<Activation>,
    /// Partition table, fixed once the run starts (mid-run spawns inherit
    /// their parent's partition).
    parts: Vec<Part>,
    /// Partitions grantable in the current window (inactive, front < H).
    ready: Vec<u32>,
    /// Partitions currently holding a grant.
    running: usize,
    /// Exclusive horizon of the current window.
    window_h: SimTime,
    /// Monotone window counter (for grant attribution). `0` = no window
    /// opened yet.
    window_id: u64,
    /// Highest window whose close-of-window stats have been taken (the
    /// drain loop can revisit a closed window during the shutdown sweep).
    window_closed: u64,
    /// Grants issued in the current window / distinct partitions granted.
    window_grants: u64,
    window_distinct: u64,
    /// Grants issued in windows that released ≥ 2 partitions (deterministic:
    /// the per-window grant set depends only on virtual state).
    parallel_advances: u64,
    /// Partitions that still had pending work at a window close but could
    /// not run because their next event lay at/beyond the horizon.
    horizon_stalls: u64,
}

/// What a critical section leaves for the unlocking thread to act on. One
/// worker records at most one item per critical section, so the common case
/// never touches the overflow `Vec`.
struct Deferred<T> {
    first: Option<T>,
    rest: Vec<T>,
}

impl<T> Default for Deferred<T> {
    fn default() -> Self {
        Deferred {
            first: None,
            rest: Vec::new(),
        }
    }
}

impl<T> Deferred<T> {
    fn push(&mut self, item: T) {
        if self.first.is_none() {
            self.first = Some(item);
        } else {
            self.rest.push(item);
        }
    }

    fn pop(&mut self) -> Option<T> {
        self.rest.pop().or_else(|| self.first.take())
    }
}

/// The scheduler lock. Releasing it is the one place grants take effect:
/// the guard first unlocks, then issues the thread wakes and runs the
/// handler activations recorded while it was held — so a woken actor never
/// runs into a lock its waker still holds, and a panic that unwinds through
/// the guard still delivers the wakes.
struct SchedGuard<'a> {
    shared: &'a Arc<EngineShared>,
    guard: Option<MutexGuard<'a, Sched>>,
}

impl Deref for SchedGuard<'_> {
    type Target = Sched;
    fn deref(&self) -> &Sched {
        self.guard.as_ref().expect("held until drop")
    }
}

impl DerefMut for SchedGuard<'_> {
    fn deref_mut(&mut self) -> &mut Sched {
        self.guard.as_mut().expect("held until drop")
    }
}

impl Drop for SchedGuard<'_> {
    fn drop(&mut self) {
        // The mutex guard lives and dies inside the closure.
        let deferred = self.guard.take().map(|mut sched| {
            (
                std::mem::take(&mut sched.wakes),
                std::mem::take(&mut sched.activations),
            )
        });
        let Some((mut wakes, mut runs)) = deferred else {
            return;
        };
        while let Some((park, reason)) = wakes.pop() {
            park.wake(reason);
        }
        // A loop, not recursion: what an activation's own release grants
        // joins `runs` instead of running from a nested guard's drop.
        while let Some(act) = runs.pop() {
            Engine::activate(self.shared, act, &mut runs);
        }
    }
}

struct RunGate {
    done: Mutex<bool>,
    cv: Condvar,
}

pub(crate) struct EngineShared {
    /// Only ever locked through [`EngineShared::lock_sched`].
    sched: Mutex<Sched>,
    gate: RunGate,
    handles: Mutex<Vec<JoinHandle<()>>>,
    metrics: Metrics,
    stack_size: usize,
    sink: Option<Arc<dyn SpanSink>>,
    /// Number of partitions allowed to hold a grant at once (≥ 1).
    parallelism: usize,
    /// The lookahead `L` — the minimum virtual distance of any
    /// cross-partition effect.
    lookahead: SimDur,
    /// Mirror of `Sched::window_h`, stable while any partition holds a
    /// grant, read by the lock-free fast path.
    window_h_ps: AtomicU64,
    /// Mirror of `Sched::poison.is_some()` (both are set by
    /// `Engine::poison`, nowhere else), so the fast path and every resumed
    /// actor notice poisoning without the scheduler lock.
    poisoned: AtomicBool,
    /// Fast-path advances, for the (approximate) event limit check.
    fast_events: AtomicU64,
    /// [`SimConfig::max_events`], readable without the scheduler lock (the
    /// fast path checks it too).
    max_events: u64,
    /// OS threads started for actors ([`SimReport::threads_spawned`]).
    threads: AtomicU64,
}

impl EngineShared {
    fn lock_sched(self: &Arc<Self>) -> SchedGuard<'_> {
        SchedGuard {
            shared: self,
            guard: Some(self.sched.lock()),
        }
    }
}

/// Receiver for structured spans emitted by the engine and by the runtime
/// layers built on top of it (copies, kernels, MPI traffic, handler work).
///
/// The canonical implementation is `impacc_obs::Recorder`; `vtime` only
/// knows this trait so the observability crate can sit *above* the engine
/// in the dependency graph. Attach one via [`SimConfig::sink`].
///
/// Implementations must be cheap and must never call back into the engine:
/// spans are delivered from scheduler paths that may hold internal locks.
pub trait SpanSink: Send + Sync {
    /// Is the sink recording? Read once per actor at spawn (an actor of a
    /// disabled sink gets no lane, so its span sites return before any
    /// attribute construction) and before each edge.
    fn enabled(&self) -> bool;

    /// Register `actor` and return the lane its spans go to. The engine
    /// calls this once per actor at spawn and keeps the handle, so a span
    /// is delivered without looking the actor up by name — also when the
    /// scheduler emits a stall for an actor other than the running one.
    fn lane(&self, actor: &str) -> Arc<dyn SpanLane>;

    /// Record a causal edge: work at `(src_actor, src_t)` enabled work at
    /// `(dst_actor, dst_t)`. `kind` names the dependence ("wake", "msg",
    /// "fuse", "enq", "spawn", ...). Sinks that don't build dependence
    /// graphs can ignore this; the default does nothing.
    fn edge(
        &self,
        kind: &'static str,
        src_actor: &str,
        src_t: SimTime,
        dst_actor: &str,
        dst_t: SimTime,
        attrs: &mut dyn FnMut() -> Vec<(&'static str, String)>,
    ) {
        let _ = (kind, src_actor, src_t, dst_actor, dst_t, attrs);
    }
}

/// One actor's span stream inside a [`SpanSink`] (see [`SpanSink::lane`]).
pub trait SpanLane: Send + Sync {
    /// Record a completed span `[t0, t1]` of this lane's actor. `label`
    /// identifies the span kind ("HtoD", "kernel", "stall", ...); `attrs`
    /// is invoked at most once, and only if the sink keeps them.
    fn span(
        &self,
        label: &'static str,
        t0: SimTime,
        t1: SimTime,
        attrs: &mut dyn FnMut() -> Vec<(&'static str, String)>,
    );

    /// Would [`SpanLane::span`] run the attribute closure of a `label`
    /// span? The engine asks once per actor, for `"stall"`, so a wait's
    /// cause is only formatted where it is kept. The default keeps all.
    fn keeps_attrs(&self, label: &'static str) -> bool {
        let _ = label;
        true
    }
}

/// One shard of the engine-wide counter set.
type CounterShard = Arc<Mutex<BTreeMap<&'static str, u64>>>;

/// Engine-wide counters for experiment instrumentation (bytes copied per
/// path, messages fused, aliases taken, ...).
///
/// Logically one global counter set; physically **sharded per actor** so
/// the hot path (`add`/`inc`) touches only the calling actor's own map
/// behind an uncontended lock. Reads (`get`/`snapshot`) merge every shard.
/// Because counter addition is commutative and the merge is key-sorted,
/// snapshots are deterministic (stable key order, identical values) run
/// over run regardless of how work was sharded.
#[derive(Clone)]
pub struct Metrics {
    /// The shard this handle writes to.
    shard: CounterShard,
    /// All shards, for merged reads.
    registry: Arc<Mutex<Vec<CounterShard>>>,
}

impl Default for Metrics {
    fn default() -> Self {
        let shard: CounterShard = Arc::new(Mutex::new(BTreeMap::new()));
        Metrics {
            shard: shard.clone(),
            registry: Arc::new(Mutex::new(vec![shard])),
        }
    }
}

impl Metrics {
    /// A new write shard over the same logical counter set (one per actor).
    pub fn new_shard(&self) -> Metrics {
        let shard: CounterShard = Arc::new(Mutex::new(BTreeMap::new()));
        self.registry.lock().push(shard.clone());
        Metrics {
            shard,
            registry: self.registry.clone(),
        }
    }

    /// Add `v` to counter `key`.
    pub fn add(&self, key: &'static str, v: u64) {
        *self.shard.lock().entry(key).or_insert(0) += v;
    }

    /// Increment counter `key` by one.
    pub fn inc(&self, key: &'static str) {
        self.add(key, 1);
    }

    /// Current value of counter `key` across all shards (0 if never touched).
    pub fn get(&self, key: &'static str) -> u64 {
        self.registry
            .lock()
            .iter()
            .map(|s| s.lock().get(key).copied().unwrap_or(0))
            .sum()
    }

    /// A sorted point-in-time merge of every counter across all shards.
    pub fn snapshot(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for shard in self.registry.lock().iter() {
            for (k, v) in shard.lock().iter() {
                *out.entry(*k).or_insert(0) += v;
            }
        }
        out
    }
}

/// Configuration for a simulation run.
#[derive(Clone)]
pub struct SimConfig {
    /// Stack size for actor threads. Large runs (thousands of actors) should
    /// keep this small; application state lives on the heap.
    pub stack_size: usize,
    /// Abort the run (with an error) after this many scheduler dispatches.
    /// Guards against runaway actor loops in tests.
    pub max_events: u64,
    /// Structured span sink (normally an `impacc_obs::Recorder`). `None`
    /// (or a disabled sink) gives no actor a lane — [`Ctx::span`] then
    /// returns before evaluating attribute closures, so such a run pays
    /// nothing.
    pub sink: Option<Arc<dyn SpanSink>>,
    /// Worker count: the maximum number of partitions that may execute
    /// concurrently. One by default, and `0` means one. Results are
    /// bit-identical for every value (only wall-clock concurrency changes).
    pub parallelism: usize,
    /// The lookahead `L`: a guarantee by the model that no
    /// event in one partition causes an effect in another partition less
    /// than `L` of virtual time later (cross-partition wakes are clamped to
    /// at least the sender's clock + `L` to enforce it). Larger lookahead
    /// means longer lock-free runs between synchronization barriers.
    /// `impacc_core::Launch` derives it from the machine model's minimum
    /// cross-node link latency. With `ZERO` (the default) nothing may
    /// overlap: every actor joins one partition and the run is one queue.
    pub lookahead: SimDur,
}

impl fmt::Debug for SimConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimConfig")
            .field("stack_size", &self.stack_size)
            .field("max_events", &self.max_events)
            .field("sink", &self.sink.as_ref().map(|_| "SpanSink"))
            .field("parallelism", &self.parallelism)
            .field("lookahead", &self.lookahead)
            .finish()
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            stack_size: 512 * 1024,
            max_events: u64::MAX,
            sink: None,
            parallelism: 1,
            lookahead: SimDur::ZERO,
        }
    }
}

/// Errors terminating a simulation abnormally.
#[derive(Debug, Clone)]
pub enum SimError {
    /// All live actors are blocked and none is ready: the simulated program
    /// deadlocked (e.g. an `MPI_Recv` with no matching send).
    Deadlock {
        /// Per-actor description of what everyone was blocked on.
        detail: String,
    },
    /// An actor panicked; the panic message and actor name are captured.
    ActorPanic {
        /// Name of the panicking actor.
        actor: String,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// `max_events` exceeded.
    EventLimit {
        /// The configured limit that was exceeded.
        limit: u64,
    },
    /// The OS refused to start an actor's thread (thread limit reached, or
    /// a [`SimConfig::stack_size`] that cannot be mapped). Every thread
    /// spawned before it has been woken and joined.
    Spawn {
        /// Name of the actor whose thread could not be started.
        actor: String,
        /// The OS error.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { detail } => write!(f, "simulation deadlock:\n{detail}"),
            SimError::ActorPanic { actor, message } => {
                write!(f, "actor '{actor}' panicked: {message}")
            }
            SimError::EventLimit { limit } => {
                write!(f, "simulation exceeded the event limit of {limit}")
            }
            SimError::Spawn { actor, message } => {
                write!(f, "could not start a thread for actor '{actor}': {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Per-actor virtual-time accounting, keyed by tag.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ActorAccount {
    /// The actor's name as given at spawn time.
    pub name: String,
    /// Virtual time charged per tag (explicit advances and blocked waits),
    /// in deterministic (sorted) key order.
    pub tags: BTreeMap<&'static str, SimDur>,
}

impl ActorAccount {
    /// Time charged under `tag`.
    pub fn tag(&self, tag: &str) -> SimDur {
        self.tags
            .iter()
            .find(|(k, _)| **k == tag)
            .map(|(_, v)| *v)
            .unwrap_or(SimDur::ZERO)
    }

    /// Total time charged across all tags.
    pub fn total(&self) -> SimDur {
        self.tags.values().copied().sum()
    }
}

/// The result of a completed simulation.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// Virtual time at which the last actor finished.
    pub end_time: SimTime,
    /// Accounting per actor, sorted by actor name.
    pub actors: Vec<ActorAccount>,
    /// Snapshot of engine-wide counters, in deterministic (sorted) key order.
    pub metrics: BTreeMap<&'static str, u64>,
    /// Number of events dispatched: scheduler grants (a handler activation
    /// is one) plus in-window fast-path advances. The split between the two
    /// is bookkeeping; the total depends only on virtual state.
    pub events: u64,
    /// How many of those events were advances that skipped the scheduler
    /// (and the park/unpark round-trip) because the target lay inside the
    /// window and ahead of nothing else queued on the actor's partition.
    pub handoffs_elided: u64,
    /// Scheduler grants issued in windows that released two or more
    /// partitions — events that actually ran concurrently with another
    /// partition's work. Deterministic (the per-window grant set depends
    /// only on virtual state).
    pub parallel_advances: u64,
    /// How often a partition with pending work sat out a window because
    /// its next event lay at/beyond the lookahead horizon. High values
    /// relative to `events` mean the lookahead is too small for the
    /// workload's event spacing. Zero for a single-partition run.
    pub horizon_stalls: u64,
    /// OS threads the engine started: one per thread actor, none for a
    /// handler. A fact about the host process, not about the simulated
    /// run.
    pub threads_spawned: u64,
}

impl SimReport {
    /// Sum of a tag across all actors.
    pub fn tag_total(&self, tag: &str) -> SimDur {
        self.actors.iter().map(|a| a.tag(tag)).sum()
    }

    /// Accounting for the actor with the given name, if present.
    pub fn actor(&self, name: &str) -> Option<&ActorAccount> {
        self.actors.iter().find(|a| a.name == name)
    }
}

/// Handle through which actor code interacts with the engine.
///
/// Each actor receives a `Ctx` bound to its own identity. `Ctx` is `Clone`
/// but must only be used from the actor thread it was issued to.
#[derive(Clone)]
pub struct Ctx {
    engine: Arc<EngineShared>,
    me: ActorId,
    /// Cached at spawn so name lookups (spans) skip the scheduler lock
    /// entirely.
    name: Arc<str>,
    /// This actor's counter shard.
    metrics: Metrics,
    /// This actor's clock/fast-path counters.
    clock: Arc<ActorClock>,
    /// This actor's partition.
    part: u32,
    /// This actor's tagged time accounting (shared with the scheduler;
    /// uncontended except when the scheduler charges blocked time).
    acct: Arc<Mutex<BTreeMap<&'static str, SimDur>>>,
    /// This partition's queue-front mirror.
    part_front: Arc<AtomicU64>,
    /// Where this actor's thread sleeps between grants, or where its
    /// handler body records the one suspension it stopped at.
    host: Host,
}

impl fmt::Debug for Ctx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ctx({:?})", self.me)
    }
}

impl Ctx {
    /// This actor's id.
    pub fn id(&self) -> ActorId {
        self.me
    }

    /// This actor's name: the handle cached at spawn, so storing it as
    /// provenance (`submitted_by`, `sent_by`, …) is a refcount bump.
    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

    /// Current virtual time: this actor's own clock, maintained by the
    /// fast path and by scheduler grants. Lock-free.
    pub fn now(&self) -> SimTime {
        SimTime(self.clock.local_now.load(Ordering::Relaxed))
    }

    /// This actor's partition index. Actors in the same partition are
    /// serialized against each other and may freely share state;
    /// cross-partition interaction must go through
    /// [`Ctx::wake`]/[`Ctx::wake_at`] or layers built on them.
    pub fn partition(&self) -> u32 {
        self.part
    }

    /// Engine-wide counters (this handle writes to the calling actor's own
    /// shard; reads merge all shards).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// True once all non-daemon actors have finished. Daemons should exit
    /// their service loops promptly when they observe this.
    pub fn is_shutdown(&self) -> bool {
        self.engine.lock_sched().shutdown
    }

    /// True when a span sink is attached and currently recording. Callers
    /// with expensive span bookkeeping (beyond the lazy attr closure) can
    /// use this to skip it entirely.
    pub fn sink_enabled(&self) -> bool {
        self.engine.sink.as_ref().is_some_and(|s| s.enabled())
    }

    /// Emit a typed span `[t0, t1]` attributed to this actor into the
    /// configured [`SpanSink`], if any. Zero-cost when no sink is attached
    /// or recording is disabled: `attrs` is then never evaluated.
    pub fn span(
        &self,
        label: &'static str,
        t0: SimTime,
        t1: SimTime,
        attrs: impl FnOnce() -> Vec<(&'static str, String)>,
    ) {
        let Some(lane) = &self.clock.lane else {
            return;
        };
        let mut attrs = Some(attrs);
        lane.span(label, t0, t1, &mut || {
            attrs.take().map(|f| f()).unwrap_or_default()
        });
    }

    /// Emit an instantaneous event (a zero-width span at the current time).
    pub fn event(&self, label: &'static str, attrs: impl FnOnce() -> Vec<(&'static str, String)>) {
        let now = self.now();
        self.span(label, now, now, attrs);
    }

    /// Emit a causal edge into the configured [`SpanSink`]: work at
    /// `(src_actor, src_t)` enabled work on *this* actor at `dst_t`. Used by
    /// the runtime layers to record send→recv matching, fusion pairing and
    /// queue FIFO order for the critical-path profiler. Zero-cost when no
    /// sink is recording.
    pub fn edge_to_self(
        &self,
        kind: &'static str,
        src_actor: &str,
        src_t: SimTime,
        dst_t: SimTime,
        attrs: impl FnOnce() -> Vec<(&'static str, String)>,
    ) {
        let Some(sink) = &self.engine.sink else {
            return;
        };
        if !sink.enabled() {
            return;
        }
        let mut attrs = Some(attrs);
        sink.edge(kind, src_actor, src_t, &self.name, dst_t, &mut || {
            attrs.take().map(|f| f()).unwrap_or_default()
        });
    }

    /// Charge `dur` of virtual time to this actor under `tag` and let other
    /// actors run in the meantime.
    pub fn advance(&self, dur: SimDur, tag: &'static str) {
        self.advance_until(self.now() + dur, tag);
    }

    /// Advance virtual time to the absolute instant `target` (no-op if the
    /// clock is already past it), charging the elapsed span under `tag`.
    ///
    /// Fast path: while the target stays below the current window horizon
    /// and this partition has no pending entry at or before it, the actor
    /// bumps its own clock and keeps running — no lock, no scheduler, no
    /// context switch. The comparison with the queue front is strict: an
    /// equal-time entry may order first and must get its turn, so ties
    /// queue. The two mirrors read here are race-safe while the actor runs:
    /// the horizon only moves when no partition holds a grant (and this
    /// actor holds one), and concurrent cross-partition pushes into this
    /// partition carry `t ≥ horizon`, so a racing front read can never hide
    /// an entry at or before `t`. Dispatch order, event count and
    /// accounting are identical on both paths.
    ///
    /// Blocking: a handler awaits [`Ctx::sleep_until`] instead.
    pub fn advance_until(&self, target: SimTime, tag: &'static str) {
        let Some((t, from)) = self.try_elide(target, tag) else {
            return;
        };
        let park = self.park();
        {
            let mut sched = self.engine.lock_sched();
            self.check_poison(&sched);
            Engine::queue_advance(&mut sched, self.me, t, from);
            Engine::release_grant(&self.engine, &mut sched, self.part);
        }
        self.park_until_granted(park);
    }

    /// The awaitable [`Ctx::advance`]: what a handler's body awaits where a
    /// thread actor would call `advance`.
    pub fn sleep(&self, dur: SimDur, tag: &'static str) -> Advance<'_> {
        self.sleep_until(self.now() + dur, tag)
    }

    /// The awaitable [`Ctx::advance_until`].
    pub fn sleep_until(&self, target: SimTime, tag: &'static str) -> Advance<'_> {
        Advance {
            ctx: self,
            target,
            tag,
            queued: false,
        }
    }

    /// The decision every advance takes, on a thread or in a handler:
    /// charge the span under `tag`, then take the fast path if it applies
    /// (see [`Ctx::advance_until`]). `None` when it did; otherwise the
    /// instant to queue at and the clock the entry is pushed from.
    fn try_elide(&self, target: SimTime, tag: &'static str) -> Option<(SimTime, SimTime)> {
        self.check_poison_flag();
        let now = self.now();
        let t = target.max(now);
        *self.acct.lock().entry(tag).or_insert(SimDur::ZERO) += t.since(now);
        if t.0 < self.engine.window_h_ps.load(Ordering::Acquire)
            && self.part_front.load(Ordering::Acquire) > t.0
        {
            self.clock.local_now.store(t.0, Ordering::Release);
            self.clock.fast_advances.fetch_add(1, Ordering::Relaxed);
            let n = self.engine.fast_events.fetch_add(1, Ordering::Relaxed) + 1;
            if n > self.engine.max_events {
                // Approximate (scheduler grants are counted separately),
                // but still a firm runaway guard.
                let mut sched = self.engine.lock_sched();
                let msg = format!("event-limit:{}", self.engine.max_events);
                Engine::poison(&self.engine, &mut sched, msg);
                self.check_poison(&sched);
            }
            return None;
        }
        Some((t, now))
    }

    /// Yield without advancing time: equal-time entries queued on this
    /// partition run first.
    pub fn yield_now(&self) {
        self.advance(SimDur::ZERO, "yield");
    }

    /// First half of the blocking protocol: obtain a token that a waker can
    /// use to resume this actor. Must be followed by [`Ctx::wait`] (or an
    /// awaited [`Ctx::suspend`]) on this actor before it performs any other
    /// engine call.
    pub fn prepare_wait(&self) -> WaitToken {
        let mut sched = self.engine.lock_sched();
        self.check_poison(&sched);
        let slot = &mut sched.actors[self.me.0 as usize];
        debug_assert_eq!(slot.state, ActorState::Running);
        slot.wait_gen += 1;
        // Wakers in other partitions may fire between this and the
        // matching wait; arm the pending-wake latch that catches them.
        slot.wait_armed = true;
        slot.pending_wake = None;
        WaitToken {
            actor: self.me,
            gen: slot.wait_gen,
        }
    }

    /// Suspend until another actor calls [`Ctx::wake`] with `token`, or the
    /// engine shuts down. Blocked time is charged under `tag`.
    pub fn wait(&self, token: WaitToken, tag: &'static str) -> WakeReason {
        self.block_on(self.suspend(token, tag))
    }

    /// Like [`Ctx::wait`], but also resumes (with `WakeReason::Signaled`)
    /// when the virtual clock reaches `deadline`, whichever comes first.
    /// Used by service actors that must stay responsive to new work while
    /// a known future completion is outstanding.
    pub fn wait_deadline(
        &self,
        token: WaitToken,
        deadline: SimTime,
        tag: &'static str,
    ) -> WakeReason {
        self.block_on(self.suspend(token, tag).until(deadline))
    }

    /// The awaitable wait on `token` (from this actor's last
    /// [`Ctx::prepare_wait`]): resolves to why the actor resumed. Refine it
    /// with [`Suspend::until`] (a deadline) and [`Suspend::cause`]; the
    /// blocking `wait*` methods are this future run by [`Ctx::block_on`].
    pub fn suspend(&self, token: WaitToken, tag: &'static str) -> Suspend<'_> {
        Suspend::new(self, Some(token), tag)
    }

    /// A thread actor's wait: suspend under the scheduler lock unless the
    /// engine is shutting down, then sleep until granted.
    fn wait_inner(
        &self,
        token: WaitToken,
        tag: &'static str,
        cause: Option<String>,
        deadline: Option<SimTime>,
    ) -> WakeReason {
        assert_eq!(token.actor, self.me, "wait() with a foreign token");
        let park = self.park();
        {
            let mut sched = self.engine.lock_sched();
            self.check_poison(&sched);
            if !Engine::begin_wait(&mut sched, token, tag, cause, deadline) {
                return WakeReason::Shutdown;
            }
            Engine::release_grant(&self.engine, &mut sched, self.part);
        }
        self.park_until_granted(park)
    }

    /// Run `fut` to completion on this actor and return its output: how a
    /// thread actor performs an operation a handler would await. On a
    /// thread every engine call inside blocks in place, so one poll
    /// finishes it.
    ///
    /// # Panics
    ///
    /// On a handler, if `fut` would suspend — a handler awaits instead —
    /// and on a thread, if `fut` waits for something other than the engine.
    pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
        let mut fut = std::pin::pin!(fut);
        match fut.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
            Poll::Ready(out) => out,
            Poll::Pending => match self.host {
                Host::Handler(_) => self.blocking_in_handler(),
                Host::Thread(_) => panic!(
                    "actor '{}' blocked on a future that is not an engine suspension",
                    self.name
                ),
            },
        }
    }

    /// Resume the actor identified by `token` at the current virtual time.
    /// Returns `true` if the actor was actually woken; `false` if the token
    /// was stale (the actor already resumed for another reason).
    ///
    /// A wake across partitions is delivered at the caller's clock plus
    /// the configured lookahead — the causality bound the scheduler is
    /// built on. Same-partition wakes deliver at the caller's clock.
    pub fn wake(&self, token: WaitToken) -> bool {
        self.wake_inner(token, self.now(), true)
    }

    /// Resume the actor identified by `token` at the absolute virtual
    /// instant `at` (floored by this actor's clock; cross-partition wakes
    /// are additionally floored by clock + lookahead). Returns `false` if
    /// the token is stale, or if the target sits in a `wait_deadline` whose
    /// deadline fires at or before `at` (the timer wins; the wake is not
    /// consumed — both conditions depend only on virtual time, so the
    /// return value is deterministic).
    ///
    /// Calling `wake_at` again with the same token and an *earlier* instant
    /// re-schedules the delivery: the target resumes at the minimum over
    /// all senders, independent of their real-time arrival order. This is
    /// the primitive cross-partition mailboxes are built on.
    pub fn wake_at(&self, token: WaitToken, at: SimTime) -> bool {
        self.wake_inner(token, at, true)
    }

    /// [`Ctx::wake_at`] with timer-like attribution: the target resumes at
    /// the same deterministic instant but no wake edge is recorded.
    ///
    /// Whether a parked peer resumes via a sender's wake or via its own
    /// armed deadline can depend on real-time interleaving even when the
    /// virtual instant is identical — so any protocol whose *causal trace*
    /// must be schedule-independent (e.g. the MPI delivery mailbox) wakes
    /// untraced and emits its own edge from protocol state instead.
    pub fn wake_at_untraced(&self, token: WaitToken, at: SimTime) -> bool {
        self.wake_inner(token, at, false)
    }

    /// The one wake body behind `wake*`. Three live arms, one per
    /// observable target state:
    ///
    /// * between `prepare_wait` and `wait` → park the wake in
    ///   `pending_wake` (min-merged over senders);
    /// * blocked → queue a generation-keyed entry at the clamped instant;
    /// * already queued by an earlier wake of the same generation → keep
    ///   the minimum delivery instant over all senders.
    ///
    /// All three arms defer the blocked-time charge, the stall span, and
    /// the wake edge to grant time, when the winning (minimum) sender is
    /// final — so traces are identical no matter which arm each sender hit.
    fn wake_inner(&self, token: WaitToken, at: SimTime, traced: bool) -> bool {
        let mut sched = self.engine.lock_sched();
        self.check_poison(&sched);
        let lnow = self.now();
        let tidx = token.actor.0 as usize;
        let target_part = sched.actors[tidx].part;
        let mut at = at.max(lnow);
        if target_part != self.part {
            // The causality bound the windows rest on: no cross-partition
            // effect lands closer than the lookahead.
            at = at.max(lnow + self.engine.lookahead);
        }
        let me = WakeSrc {
            at,
            src: self.name.clone(),
            src_vt: lnow,
            traced,
        };
        let state = sched.actors[tidx].state;
        // Arm 1: the target is preparing to wait — it consumes the pending
        // wake when it parks.
        if state == ActorState::Running
            && sched.actors[tidx].wait_armed
            && sched.actors[tidx].wait_gen == token.gen
        {
            let slot = &mut sched.actors[tidx];
            let keep_new = slot
                .pending_wake
                .as_ref()
                .is_none_or(|p| (me.at, &me.src, me.src_vt) < (p.at, &p.src, p.src_vt));
            if keep_new {
                slot.pending_wake = Some(me);
            }
            return true;
        }
        // Arm 2: the target is parked.
        if state == ActorState::Blocked && sched.actors[tidx].wait_gen == token.gen {
            if let Some(d) = sched.actors[tidx].blocked_deadline {
                if at >= d {
                    // The deadline timer resumes it first; nothing to do.
                    return false;
                }
            }
            if let Some(d) = sched.actors[tidx].blocked_deadline.take() {
                Engine::take_entry(&mut sched, tidx, d);
            }
            let slot = &mut sched.actors[tidx];
            slot.state = ActorState::Queued;
            slot.queued_by_wake = Some(QueuedWake {
                gen: token.gen,
                at,
                src: traced.then_some((me.src, me.src_vt)),
            });
            let entry = PEntry {
                t: at,
                src_vt: slot.blocked_since,
                src: slot.name.clone(),
                src_seq: token.gen,
                id: token.actor,
                reason: WakeReason::Signaled,
                timer_gen: None,
            };
            Engine::push_entry(&mut sched, target_part, entry);
            // No pump needed: a same-partition target's partition is active
            // (this actor runs in it); a cross-partition delivery lands at
            // or beyond the horizon and is picked up at the window turn.
            return true;
        }
        // Arm 3: already queued by a wake of this same generation — an
        // earlier delivery instant (or a smaller sender at the same
        // instant) takes over.
        if state == ActorState::Queued {
            enum Act {
                /// Earlier instant: move the entry.
                Resched,
                /// Same instant, smaller sender: the edge changes hands.
                TakeSrc,
                /// Later (or tied-but-larger) sender: the existing delivery
                /// already covers this wake.
                Absorb,
                /// No matching wake-entry, or a timer-capped entry at or
                /// before `at` — defers exactly like arm 2's deadline check.
                Stale,
            }
            let act = match &sched.actors[tidx].queued_by_wake {
                Some(qw) if qw.gen == token.gen => {
                    if at < qw.at {
                        Act::Resched
                    } else {
                        match &qw.src {
                            None => Act::Stale,
                            Some((s, svt)) => {
                                if at == qw.at && (&me.src, me.src_vt) < (s, *svt) {
                                    Act::TakeSrc
                                } else {
                                    Act::Absorb
                                }
                            }
                        }
                    }
                }
                _ => Act::Stale,
            };
            match act {
                Act::Stale => return false,
                Act::Absorb => return true,
                Act::TakeSrc => {
                    let qw = sched.actors[tidx]
                        .queued_by_wake
                        .as_mut()
                        .expect("matched above");
                    qw.src = traced.then_some((me.src, me.src_vt));
                    return true;
                }
                Act::Resched => {
                    let qw = sched.actors[tidx]
                        .queued_by_wake
                        .as_mut()
                        .expect("matched above");
                    let old = std::mem::replace(&mut qw.at, at);
                    qw.src = traced.then_some((me.src, me.src_vt));
                    let mut entry = Engine::take_entry(&mut sched, tidx, old);
                    entry.t = at;
                    Engine::push_entry(&mut sched, target_part, entry);
                    return true;
                }
            }
        }
        false
    }

    /// Spawn a new actor that keeps the simulation alive until it finishes.
    /// The child joins this actor's partition (mid-run spawns must not
    /// create new serialization domains — the child usually shares state
    /// with its parent).
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ActorId
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        let name = name.into();
        self.emit_spawn_edge(&name);
        Engine::spawn_inner(
            &self.engine,
            name,
            false,
            self.spawn_origin(),
            Start::<F, NoBody>::Thread(f),
        )
        .unwrap_or_else(|msg| panic!("simulation poisoned: {msg}"))
    }

    /// Spawn a daemon actor: the simulation may finish while it is blocked;
    /// it is then woken with [`WakeReason::Shutdown`]. Partition inheritance
    /// as in [`Ctx::spawn`].
    pub fn spawn_daemon<F>(&self, name: impl Into<String>, f: F) -> ActorId
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        let name = name.into();
        self.emit_spawn_edge(&name);
        Engine::spawn_inner(
            &self.engine,
            name,
            true,
            self.spawn_origin(),
            Start::<F, NoBody>::Thread(f),
        )
        .unwrap_or_else(|msg| panic!("simulation poisoned: {msg}"))
    }

    /// Spawn a handler daemon (see the module docs, "Handlers"): `body`
    /// builds its future from the handler's own context, here and now, and
    /// the future runs on whatever thread grants it — the handler owns
    /// none. Partition, first instant and spawn edge as in [`Ctx::spawn`].
    pub fn spawn_handler<B, F>(&self, name: impl Into<String>, body: B) -> ActorId
    where
        B: FnOnce(Ctx) -> F,
        F: Future<Output = ()> + Send + 'static,
    {
        let name = name.into();
        self.emit_spawn_edge(&name);
        Engine::spawn_inner(
            &self.engine,
            name,
            true,
            self.spawn_origin(),
            Start::<NoThread, _>::Handler(|ctx| Box::pin(body(ctx)) as Body),
        )
        .unwrap_or_else(|msg| panic!("simulation poisoned: {msg}"))
    }

    /// Placement for a mid-run spawn: the child inherits this actor's
    /// partition and starts at this actor's clock.
    fn spawn_origin(&self) -> SpawnOrigin {
        SpawnOrigin {
            part: self.part,
            t: self.now(),
            src: self.name.clone(),
            parent: Some(self.me),
            seq: 0,
        }
    }

    /// A "spawn" edge from this actor to a child it creates mid-run: the
    /// child's first instant is caused by the parent reaching `now`.
    fn emit_spawn_edge(&self, child: &str) {
        let Some(sink) = &self.engine.sink else {
            return;
        };
        if !sink.enabled() {
            return;
        }
        let now = self.now();
        sink.edge("spawn", &self.name, now, child, now, &mut Vec::new);
    }

    /// Like [`Ctx::edge_to_self`] with an explicit destination actor.
    pub fn edge(
        &self,
        kind: &'static str,
        src_actor: &str,
        src_t: SimTime,
        dst_actor: &str,
        dst_t: SimTime,
        attrs: impl FnOnce() -> Vec<(&'static str, String)>,
    ) {
        let Some(sink) = &self.engine.sink else {
            return;
        };
        if !sink.enabled() {
            return;
        }
        let mut attrs = Some(attrs);
        sink.edge(kind, src_actor, src_t, dst_actor, dst_t, &mut || {
            attrs.take().map(|f| f()).unwrap_or_default()
        });
    }

    fn check_poison(&self, sched: &Sched) {
        if let Some(msg) = &sched.poison {
            panic!("simulation poisoned: {msg}");
        }
    }

    /// [`Ctx::check_poison`] for paths that do not hold the scheduler lock:
    /// consult the lock-free mirror and take the lock only to read the
    /// message of a poisoning that did happen.
    fn check_poison_flag(&self) {
        if self.engine.poisoned.load(Ordering::Acquire) {
            self.check_poison(&self.engine.lock_sched());
        }
    }

    /// The thread a blocking call sleeps on. A handler has none: it awaits
    /// the call's future form, and blocking is a bug reported by name.
    fn park(&self) -> &Arc<Park> {
        match &self.host {
            Host::Thread(park) => park,
            Host::Handler(_) => self.blocking_in_handler(),
        }
    }

    fn blocking_in_handler(&self) -> ! {
        panic!(
            "handler '{}' made a blocking engine call: a handler awaits it (Ctx::sleep, Ctx::suspend)",
            self.name
        )
    }

    /// Leave `sleep` for the activation polling this handler's body.
    fn record(&self, step: &Mutex<Step>, sleep: Sleep) {
        let mut step = step.lock();
        assert!(
            step.sleep.is_none(),
            "handler '{}' stopped at two suspensions in one poll",
            self.name
        );
        step.sleep = Some(sleep);
    }

    /// Second half of every release: sleep until the scheduler grants this
    /// actor again (the caller has just released the scheduler lock, which
    /// issued the wake it recorded), then resume without touching the lock.
    fn park_until_granted(&self, park: &Park) -> WakeReason {
        let reason = park.wait();
        self.check_poison_flag();
        reason
    }
}

/// The future of [`Ctx::sleep`] / [`Ctx::sleep_until`]: an advance a
/// handler awaits. On a thread actor it is the blocking advance.
#[must_use = "an advance does nothing unless awaited"]
pub struct Advance<'a> {
    ctx: &'a Ctx,
    target: SimTime,
    tag: &'static str,
    /// A handler queued its entry and returned `Pending`; the next poll is
    /// the grant that ends the advance.
    queued: bool,
}

impl Future for Advance<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let ctx = this.ctx;
        match &ctx.host {
            Host::Thread(_) => ctx.advance_until(this.target, this.tag),
            Host::Handler(_) if this.queued => ctx.check_poison_flag(),
            Host::Handler(step) => {
                if let Some((t, from)) = ctx.try_elide(this.target, this.tag) {
                    ctx.record(step, Sleep::Advance { t, from });
                    this.queued = true;
                    return Poll::Pending;
                }
            }
        }
        Poll::Ready(())
    }
}

/// The future of [`Ctx::suspend`] (and of [`Notify::notified`] /
/// [`Latch::opened`]): a wait a handler awaits, resolving to why the actor
/// resumed. On a thread actor it is the blocking wait.
///
/// [`Notify::notified`]: crate::Notify::notified
/// [`Latch::opened`]: crate::Latch::opened
#[must_use = "a wait does nothing unless awaited"]
pub struct Suspend<'a> {
    ctx: &'a Ctx,
    /// `None`: nothing to wait for (an open latch), ready at once.
    token: Option<WaitToken>,
    tag: &'static str,
    deadline: Option<SimTime>,
    cause: Option<String>,
    /// A handler recorded the wait and returned `Pending`; the next poll is
    /// the grant that ends it.
    parked: bool,
}

impl<'a> Suspend<'a> {
    pub(crate) fn new(ctx: &'a Ctx, token: Option<WaitToken>, tag: &'static str) -> Suspend<'a> {
        Suspend {
            ctx,
            token,
            tag,
            deadline: None,
            cause: None,
            parked: false,
        }
    }

    /// Also resume (with [`WakeReason::Signaled`]) when the clock reaches
    /// `deadline`, whichever comes first (see [`Ctx::wait_deadline`]).
    pub fn until(self, deadline: SimTime) -> Suspend<'a> {
        Suspend {
            deadline: Some(deadline),
            ..self
        }
    }

    /// Record *what* is awaited (an MPI tag, a queue name, a latch label):
    /// the cause lands on the resulting stall span as a `cause` attr, so the
    /// profiler's wait-state classifier never buckets it "unknown". `cause`
    /// runs only if the wait is real and the actor's span lane keeps stall
    /// attributes (a full trace, not the flight window): instrumented waits
    /// cost nothing otherwise.
    pub fn cause(self, cause: impl FnOnce() -> String) -> Suspend<'a> {
        let kept = self.token.is_some() && self.ctx.clock.keeps_causes;
        Suspend {
            cause: kept.then(cause),
            ..self
        }
    }
}

impl Future for Suspend<'_> {
    type Output = WakeReason;

    fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<WakeReason> {
        let this = self.get_mut();
        let ctx = this.ctx;
        let Some(token) = this.token else {
            return Poll::Ready(WakeReason::Signaled);
        };
        let cause = this.cause.take();
        match &ctx.host {
            Host::Thread(_) => Poll::Ready(ctx.wait_inner(token, this.tag, cause, this.deadline)),
            Host::Handler(step) if this.parked => {
                ctx.check_poison_flag();
                Poll::Ready(step.lock().woke)
            }
            Host::Handler(step) => {
                let sleep = Sleep::Wait {
                    token,
                    tag: this.tag,
                    cause,
                    deadline: this.deadline,
                };
                ctx.record(step, sleep);
                this.parked = true;
                Poll::Pending
            }
        }
    }
}

impl Sched {
    /// Record that actor `idx` resumes, for the unlocking thread to act
    /// on: a handler's activation to run, or a thread to wake.
    fn resume_later(&mut self, idx: usize, reason: WakeReason) {
        match &mut self.actors[idx].runner {
            Runner::Thread(park) => self.wakes.push((park.clone(), reason)),
            // No body: a poisoning overtook the spawn that is building it.
            Runner::Handler(body) => {
                if let Some(handler) = body.take() {
                    self.activations.push(Activation {
                        id: ActorId(idx as u32),
                        reason,
                        handler,
                    });
                }
            }
        }
    }

    /// The furthest any actor's clock got. Exact whenever nobody holds a
    /// grant (at quiescence, after the run).
    fn latest_clock(&self) -> SimTime {
        self.actors
            .iter()
            .map(|s| SimTime(s.clock.local_now.load(Ordering::Relaxed)))
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

/// Spawn placement: which partition the new actor joins
/// and the deterministic key of its first queue entry. `parent` is the
/// mid-run spawner (its push counter provides the equal-time tie-break);
/// initial spawns pass `None` and use `seq` (the registration index).
struct SpawnOrigin {
    part: u32,
    t: SimTime,
    src: Arc<str>,
    parent: Option<ActorId>,
    seq: u64,
}

/// How an actor runs: on a thread of its own, or as a handler whose body
/// `H` builds from the handler's context.
enum Start<F, H> {
    Thread(F),
    Handler(H),
}

/// What makes a handler's body, boxed until [`Sim::run`] spawns it.
type BodyFn = Box<dyn FnOnce(Ctx) -> Body + Send + 'static>;

/// The `Start` parameters a spawn of the other kind leaves unused.
type NoThread = fn(&Ctx);
type NoBody = fn(Ctx) -> Body;

/// A queued actor awaiting launch: name, daemon flag, explicit partition
/// (`None` = a fresh partition of its own), and body.
type PendingActor = (
    String,
    bool,
    Option<u32>,
    Start<Box<dyn FnOnce(&Ctx) + Send + 'static>, BodyFn>,
);

/// Builder for a simulation run.
pub struct Sim {
    config: SimConfig,
    initial: Vec<PendingActor>,
    metrics: Metrics,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// A simulation with the default [`SimConfig`].
    pub fn new() -> Sim {
        Sim::with_config(SimConfig::default())
    }

    /// A simulation with an explicit configuration.
    pub fn with_config(config: SimConfig) -> Sim {
        Sim {
            config,
            initial: Vec::new(),
            metrics: Metrics::default(),
        }
    }

    /// The run's engine-wide counter registry. [`Sim::run`] wires this
    /// same registry into the engine, so a handle cloned *before* the run
    /// stays live *through* it — callers that need counters even when
    /// `run()` returns an error (flight-recorder panic dumps) clone here
    /// first. After a successful run, [`SimReport::metrics`] is the
    /// snapshot of exactly this registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Register an actor to start at time zero. The actor gets a fresh
    /// partition of its own; use [`Sim::spawn_on`] to co-locate actors that
    /// share mutable state.
    pub fn spawn<F>(&mut self, name: impl Into<String>, f: F) -> &mut Sim
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        self.initial
            .push((name.into(), false, None, Start::Thread(Box::new(f))));
        self
    }

    /// Register a daemon actor to start at time zero (fresh partition; see
    /// [`Sim::spawn`]).
    pub fn spawn_daemon<F>(&mut self, name: impl Into<String>, f: F) -> &mut Sim
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        self.initial
            .push((name.into(), true, None, Start::Thread(Box::new(f))));
        self
    }

    /// Register an actor on an explicit partition. Actors sharing a
    /// partition are serialized against each other, so they may share
    /// mutable state. `impacc_core::Launch` places every actor of one
    /// simulated node on one partition.
    pub fn spawn_on<F>(&mut self, part: u32, name: impl Into<String>, f: F) -> &mut Sim
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        self.initial
            .push((name.into(), false, Some(part), Start::Thread(Box::new(f))));
        self
    }

    /// [`Sim::spawn_on`] for a daemon actor.
    pub fn spawn_daemon_on<F>(&mut self, part: u32, name: impl Into<String>, f: F) -> &mut Sim
    where
        F: FnOnce(&Ctx) + Send + 'static,
    {
        self.initial
            .push((name.into(), true, Some(part), Start::Thread(Box::new(f))));
        self
    }

    /// Register a handler daemon on partition `part` (see the module docs,
    /// "Handlers"): it owns no thread; `body` builds its future from the
    /// handler's context when the run starts, and its first activation is
    /// at time zero.
    pub fn spawn_handler_on<B, F>(
        &mut self,
        part: u32,
        name: impl Into<String>,
        body: B,
    ) -> &mut Sim
    where
        B: FnOnce(Ctx) -> F + Send + 'static,
        F: Future<Output = ()> + Send + 'static,
    {
        let body: BodyFn = Box::new(|ctx| Box::pin(body(ctx)));
        self.initial
            .push((name.into(), true, Some(part), Start::Handler(body)));
        self
    }

    /// Run the simulation to completion and collect the report.
    pub fn run(self) -> Result<SimReport, SimError> {
        Engine::run(self)
    }
}

pub(crate) struct Engine;

impl Engine {
    /// Scheduler-side stall span: the blocked window an actor just left,
    /// labelled with the tag it was blocked under. Zero-width stalls (an
    /// immediate wake at the same instant) are elided as noise.
    fn emit_stall(
        sched: &Sched,
        id: ActorId,
        tag: &'static str,
        cause: Option<&str>,
        t0: SimTime,
        t1: SimTime,
    ) {
        if t1 <= t0 {
            return;
        }
        let Some(lane) = &sched.actors[id.0 as usize].clock.lane else {
            return;
        };
        lane.span("stall", t0, t1, &mut || {
            let mut a = vec![("tag", tag.to_string())];
            if let Some(c) = cause {
                a.push(("cause", c.to_string()));
            }
            a
        });
    }

    fn run(sim: Sim) -> Result<SimReport, SimError> {
        // Place actors. With zero lookahead nothing may overlap: one
        // partition, one queue. Otherwise explicit partitions are honored
        // as given and each unplaced actor gets a fresh partition after the
        // highest explicit one, in registration order (deterministic).
        let one_queue = sim.config.lookahead == SimDur::ZERO;
        let mut next_part = sim
            .initial
            .iter()
            .filter_map(|(_, _, p, _)| *p)
            .max()
            .map_or(0, |m| m + 1);
        let placements: Vec<u32> = sim
            .initial
            .iter()
            .map(|(_, _, p, _)| match p {
                _ if one_queue => 0,
                Some(p) => *p,
                None => {
                    next_part += 1;
                    next_part - 1
                }
            })
            .collect();
        let n_parts = if one_queue { 1 } else { next_part.max(1) };
        let shared = Arc::new(EngineShared {
            sched: Mutex::new(Sched {
                actors: Vec::new(),
                live_total: 0,
                live_nondaemon: 0,
                shutdown: false,
                poison: None,
                events_dispatched: 0,
                wakes: Deferred::default(),
                activations: Deferred::default(),
                parts: (0..n_parts).map(|_| Part::new()).collect(),
                ready: Vec::new(),
                running: 0,
                window_h: SimTime::ZERO,
                window_id: 0,
                window_closed: 0,
                window_grants: 0,
                window_distinct: 0,
                parallel_advances: 0,
                horizon_stalls: 0,
            }),
            gate: RunGate {
                done: Mutex::new(false),
                cv: Condvar::new(),
            },
            handles: Mutex::new(Vec::new()),
            metrics: sim.metrics.clone(),
            stack_size: sim.config.stack_size,
            sink: sim.config.sink.clone(),
            parallelism: sim.config.parallelism.max(1),
            lookahead: sim.config.lookahead,
            window_h_ps: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            fast_events: AtomicU64::new(0),
            max_events: sim.config.max_events,
            threads: AtomicU64::new(0),
        });

        let had_initial = !sim.initial.is_empty();
        for (i, (name, daemon, _p, start)) in sim.initial.into_iter().enumerate() {
            let origin = SpawnOrigin {
                part: placements[i],
                t: SimTime::ZERO,
                src: Arc::from(""),
                parent: None,
                seq: i as u64,
            };
            if Engine::spawn_inner(&shared, name, daemon, origin, start).is_err() {
                // Poisoned, and what was spawned is already being woken.
                break;
            }
        }

        if had_initial {
            {
                let mut sched = shared.lock_sched();
                Engine::pump(&shared, &mut sched);
            }
            let mut done = shared.gate.done.lock();
            while !*done {
                shared.gate.cv.wait(&mut done);
            }
            drop(done);
        }

        // Join every actor thread before reading the final state.
        let handles = std::mem::take(&mut *shared.handles.lock());
        for h in handles {
            let _ = h.join();
        }

        let sched = shared.lock_sched();
        let fast: u64 = sched
            .actors
            .iter()
            .map(|s| s.clock.fast_advances.load(Ordering::Relaxed))
            .sum();
        if let Some(msg) = &sched.poison {
            return Err(Self::classify_poison(msg));
        }
        let mut actors: Vec<ActorAccount> = sched
            .actors
            .iter()
            .map(|s| ActorAccount {
                name: String::from(&*s.name),
                tags: s.acct.lock().clone(),
            })
            .collect();
        // Mid-run spawns allocate ids in racy real-time order across
        // partitions; name order is the deterministic one.
        actors.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(SimReport {
            end_time: sched.latest_clock(),
            actors,
            metrics: shared.metrics.snapshot(),
            // A fast-path advance and a granted one are the same virtual
            // event, so the total is identical however the split fell out.
            events: sched.events_dispatched + fast,
            handoffs_elided: fast,
            parallel_advances: sched.parallel_advances,
            horizon_stalls: sched.horizon_stalls,
            threads_spawned: shared.threads.load(Ordering::Relaxed),
        })
    }

    fn classify_poison(msg: &str) -> SimError {
        if let Some(rest) = msg.strip_prefix("deadlock:") {
            SimError::Deadlock {
                detail: rest.to_string(),
            }
        } else if let Some(rest) = msg.strip_prefix("event-limit:") {
            SimError::EventLimit {
                limit: rest.parse().unwrap_or(0),
            }
        } else if let Some(rest) = msg.strip_prefix("spawn:") {
            let (actor, message) = rest.split_once(':').unwrap_or(("?", rest));
            SimError::Spawn {
                actor: actor.to_string(),
                message: message.to_string(),
            }
        } else if let Some(rest) = msg.strip_prefix("panic:") {
            let (actor, message) = rest.split_once(':').unwrap_or(("?", rest));
            SimError::ActorPanic {
                actor: actor.to_string(),
                message: message.to_string(),
            }
        } else {
            SimError::ActorPanic {
                actor: "?".to_string(),
                message: msg.to_string(),
            }
        }
    }

    /// Register an actor and start it: a thread actor's thread, parked
    /// until its first grant, or a handler's body. The thread is spawned
    /// under the scheduler lock, before the slot exists: whoever can see the
    /// slot can already unpark the thread, and a spawn the OS refuses leaves
    /// nothing half-registered. On that failure the run is poisoned
    /// (`spawn:<actor>:<os error>`, returned as `Err`) and every actor
    /// spawned so far is woken to unwind. A handler's body is built after
    /// the lock is released — `body` may run any code — and installed
    /// before its first grant: a mid-run spawner holds the grant of the
    /// partition the handler joins, and initial spawns precede the run.
    fn spawn_inner<F, H>(
        shared: &Arc<EngineShared>,
        name: String,
        daemon: bool,
        origin: SpawnOrigin,
        start: Start<F, H>,
    ) -> Result<ActorId, String>
    where
        F: FnOnce(&Ctx) + Send + 'static,
        H: FnOnce(Ctx) -> Body,
    {
        let metrics = shared.metrics.new_shard();
        let host = match start {
            Start::Thread(_) => Host::Thread(Park::new()),
            Start::Handler(_) => Host::Handler(Arc::new(Mutex::new(Step {
                sleep: None,
                woke: WakeReason::Signaled,
            }))),
        };
        let acct: Arc<Mutex<BTreeMap<&'static str, SimDur>>> =
            Arc::new(Mutex::new(BTreeMap::new()));
        let lane = shared
            .sink
            .as_ref()
            .filter(|s| s.enabled())
            .map(|s| s.lane(&name));

        let mut sched = shared.lock_sched();
        if let Some(msg) = &sched.poison {
            // Spawning after poison would park a thread forever.
            panic!("simulation poisoned: {msg}");
        }
        let id = ActorId(sched.actors.len() as u32);
        let part = origin.part;
        let clock = Arc::new(ActorClock {
            keeps_causes: lane.as_ref().is_some_and(|l| l.keeps_attrs("stall")),
            lane,
            local_now: AtomicU64::new(origin.t.0),
            fast_advances: AtomicU64::new(0),
        });
        let actor_name: Arc<str> = name.as_str().into();
        let ctx = Ctx {
            engine: shared.clone(),
            me: id,
            name: actor_name.clone(),
            metrics,
            clock: clock.clone(),
            part,
            acct: acct.clone(),
            part_front: sched.parts[part as usize].front.clone(),
            host,
        };
        let (runner, build) = match (start, &ctx.host) {
            (Start::Handler(body), Host::Handler(step)) => {
                let step = step.clone();
                (Runner::Handler(None), Some((ctx, step, body)))
            }
            (Start::Thread(f), Host::Thread(park)) => {
                let park = park.clone();
                let shared2 = shared.clone();
                let spawned = std::thread::Builder::new()
                    .name(name)
                    .stack_size(shared.stack_size)
                    .spawn(move || {
                        // Wait for the first grant. `Shutdown` instead means
                        // the run was poisoned before this actor ever ran:
                        // its body must not start.
                        let result = match ctx.park().wait() {
                            WakeReason::Signaled => {
                                panic::catch_unwind(AssertUnwindSafe(|| f(&ctx)))
                            }
                            WakeReason::Shutdown => Ok(()),
                        };
                        let mut sched = shared2.lock_sched();
                        Engine::finish(&shared2, &mut sched, id, result.err());
                    });
                let handle = match spawned {
                    Ok(handle) => handle,
                    Err(e) => {
                        let msg = format!("spawn:{actor_name}:{e}");
                        Engine::poison(shared, &mut sched, msg.clone());
                        return Err(msg);
                    }
                };
                park.thread
                    .set(handle.thread().clone())
                    .expect("a fresh park has no thread yet");
                shared.handles.lock().push(handle);
                shared.threads.fetch_add(1, Ordering::Relaxed);
                (Runner::Thread(park), None)
            }
            _ => unreachable!("the host was chosen by the start"),
        };
        sched.actors.push(ActorSlot {
            name: actor_name,
            daemon,
            state: ActorState::Queued,
            runner,
            wait_gen: 0,
            blocked_since: SimTime::ZERO,
            blocked_tag: "",
            blocked_cause: None,
            acct,
            part,
            push_seq: 0,
            clock,
            pending_wake: None,
            wait_armed: false,
            blocked_deadline: None,
            queued_by_wake: None,
        });
        sched.live_total += 1;
        if !daemon {
            sched.live_nondaemon += 1;
        }
        let src_seq = match origin.parent {
            Some(pid) => {
                let ps = &mut sched.actors[pid.0 as usize];
                let s = ps.push_seq;
                ps.push_seq += 1;
                s
            }
            None => origin.seq,
        };
        let entry = PEntry {
            t: origin.t,
            src_vt: origin.t,
            src: origin.src,
            src_seq,
            id,
            reason: WakeReason::Signaled,
            timer_gen: None,
        };
        Engine::push_entry(&mut sched, part, entry);
        drop(sched);
        if let Some((ctx, step, build)) = build {
            let handler = Box::new(Handler {
                step,
                body: build(ctx),
            });
            let mut sched = shared.lock_sched();
            // After a poisoning nothing runs it; left in its slot it would
            // keep the engine alive through its own context.
            if sched.poison.is_none() {
                sched.actors[id.0 as usize].runner = Runner::Handler(Some(handler));
            }
        }
        Ok(id)
    }

    /// Run one granted handler activation on the calling thread, unlocked:
    /// poll the body with the reason it resumed for, then do under the lock
    /// what the body's pending call asked — what a thread actor's blocking
    /// call does — put the body back and release the partition's grant.
    /// Whatever that release grants to handlers joins `runs` (the caller's
    /// loop), so activations never nest.
    fn activate(shared: &Arc<EngineShared>, act: Activation, runs: &mut Deferred<Activation>) {
        let Activation {
            id,
            mut reason,
            mut handler,
        } = act;
        let idx = id.0 as usize;
        let mut sched = loop {
            handler.step.lock().woke = reason;
            let polled = panic::catch_unwind(AssertUnwindSafe(|| {
                let mut cx = Context::from_waker(Waker::noop());
                handler.body.as_mut().poll(&mut cx)
            }));
            let sleep = handler.step.lock().sleep.take();
            let mut sched = shared.lock_sched();
            // A panic here would unwind through the guard that called us, so
            // a body's misuse is reported like a panic in the body.
            let misuse = |msg: &'static str| Some(Box::new(msg) as Box<dyn std::any::Any + Send>);
            let failed = match (polled, sleep) {
                (Err(payload), _) => payload.into(),
                (Ok(Poll::Ready(())), _) => None,
                (Ok(Poll::Pending), None) => {
                    misuse("a handler's body is pending on something other than the engine")
                }
                // Poisoned meanwhile: it would panic at its next call.
                (Ok(Poll::Pending), Some(_)) if sched.poison.is_some() => None,
                (Ok(Poll::Pending), Some(Sleep::Wait { token, .. }))
                    if token.actor != id || token.gen != sched.actors[idx].wait_gen =>
                {
                    misuse("a handler waits on the token of its last prepare_wait")
                }
                (Ok(Poll::Pending), Some(sleep)) => {
                    match sleep {
                        Sleep::Advance { t, from } => {
                            Engine::queue_advance(&mut sched, id, t, from)
                        }
                        Sleep::Wait {
                            token,
                            tag,
                            cause,
                            deadline,
                        } => {
                            if !Engine::begin_wait(&mut sched, token, tag, cause, deadline) {
                                // Shutting down: the wait returns at once,
                                // as a thread's does.
                                drop(sched);
                                reason = WakeReason::Shutdown;
                                continue;
                            }
                        }
                    }
                    let part = sched.actors[idx].part;
                    sched.actors[idx].runner = Runner::Handler(Some(handler));
                    Engine::release_grant(shared, &mut sched, part);
                    break sched;
                }
            };
            Engine::finish(shared, &mut sched, id, failed);
            break sched;
        };
        while let Some(next) = sched.activations.pop() {
            runs.push(next);
        }
    }

    /// Queue the running actor `id` at `t` (its advance did not elide),
    /// pushed from clock `from`; the caller releases the grant.
    fn queue_advance(sched: &mut Sched, id: ActorId, t: SimTime, from: SimTime) {
        let slot = &mut sched.actors[id.0 as usize];
        debug_assert_eq!(slot.state, ActorState::Running);
        slot.state = ActorState::Queued;
        let seq = slot.push_seq;
        slot.push_seq += 1;
        let entry = PEntry {
            t,
            src_vt: from,
            src: slot.name.clone(),
            src_seq: seq,
            id,
            reason: WakeReason::Signaled,
            timer_gen: None,
        };
        let part = slot.part;
        Engine::push_entry(sched, part, entry);
    }

    /// Enter a wait. At shutdown a daemon is not suspended again: `false`,
    /// and the wait returns [`WakeReason::Shutdown`] at once. Otherwise the
    /// actor is suspended (the caller releases the grant).
    fn begin_wait(
        sched: &mut Sched,
        token: WaitToken,
        tag: &'static str,
        cause: Option<String>,
        deadline: Option<SimTime>,
    ) -> bool {
        if sched.shutdown {
            let slot = &mut sched.actors[token.actor.0 as usize];
            slot.wait_armed = false;
            slot.pending_wake = None;
            return false;
        }
        Engine::suspend(sched, token, tag, cause, deadline);
        true
    }

    /// Suspend the running actor `token` belongs to (both `wait` and
    /// `wait_deadline`, on a thread or in a handler); the caller releases the
    /// grant. A deadline is one timer entry in the partition queue, keyed
    /// by the wait generation so a wake that lands first retires it. A
    /// waker may have fired between `prepare_wait` and this call — its wake
    /// sits in `pending_wake` and is consumed here, so no wake-up is lost.
    fn suspend(
        sched: &mut Sched,
        token: WaitToken,
        tag: &'static str,
        cause: Option<String>,
        deadline: Option<SimTime>,
    ) {
        let slot = &mut sched.actors[token.actor.0 as usize];
        debug_assert_eq!(slot.state, ActorState::Running);
        assert_eq!(
            token.gen, slot.wait_gen,
            "wait() must immediately follow prepare_wait()"
        );
        let lnow = SimTime(slot.clock.local_now.load(Ordering::Relaxed));
        let part = slot.part;
        slot.wait_armed = false;
        slot.blocked_since = lnow;
        slot.blocked_tag = tag;
        slot.blocked_cause = cause;
        let d_eff = deadline.map(|d| d.max(lnow));
        // Both entries are keyed by the wait generation (not the push
        // counter): the wake entry is byte-identical to the one the
        // waker-side path would have pushed had the actor already been
        // parked, and a consuming wake removes the timer again, leaving the
        // queue exactly as if the wake had landed first — the two race arms
        // must not diverge in anything the schedule can observe.
        let mut entry = PEntry {
            t: lnow,
            src_vt: lnow,
            src: slot.name.clone(),
            src_seq: token.gen,
            id: token.actor,
            reason: WakeReason::Signaled,
            timer_gen: None,
        };
        if let Some(p) = slot.pending_wake.take() {
            // A waker beat us here. Resume at the deterministic delivery
            // time (capped by our deadline, floored by our clock).
            // Charge/stall/edge are deferred to grant time — a later
            // `wake_at` may still reschedule the entry earlier, and the
            // waker-side race arm defers identically.
            let wake_at = p.at.max(lnow);
            // A wake at/after the deadline defers to the timer (exactly
            // the waker-side `wake_at` rule), so strict inequality.
            let wake_wins = d_eff.is_none_or(|d| wake_at < d);
            entry.t = if wake_wins {
                wake_at
            } else {
                d_eff.expect("wake_wins is false only with a deadline")
            };
            slot.state = ActorState::Queued;
            slot.queued_by_wake = Some(QueuedWake {
                gen: token.gen,
                at: entry.t,
                // A deadline cap that wins (or ties) resumes like a timer:
                // no wake edge, exactly as the waker-side arm behaves when
                // `wake_at` defers to the deadline. Untraced wakes resume
                // timer-like unconditionally.
                src: (wake_wins && p.traced).then_some((p.src, p.src_vt)),
            });
        } else {
            slot.state = ActorState::Blocked;
            slot.blocked_deadline = d_eff;
            let Some(d) = d_eff else {
                return;
            };
            entry.t = d;
            entry.timer_gen = Some(token.gen);
        }
        Engine::push_entry(sched, part, entry);
    }

    /// Actor termination (the scheduler lock is held): account for
    /// liveness, report a panic, release the grant.
    fn finish(
        shared: &Arc<EngineShared>,
        sched: &mut Sched,
        id: ActorId,
        panic_payload: Option<Box<dyn std::any::Any + Send>>,
    ) {
        sched.actors[id.0 as usize].state = ActorState::Finished;
        sched.live_total -= 1;
        if !sched.actors[id.0 as usize].daemon {
            sched.live_nondaemon -= 1;
        }
        if let Some(payload) = panic_payload {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic>".to_string());
            // A secondary panic raised by `check_poison` finds the original
            // cause already recorded: `poison` keeps the first.
            let name = &sched.actors[id.0 as usize].name;
            let msg = format!("panic:{name}:{msg}");
            Engine::poison(shared, sched, msg);
        }
        if sched.poison.is_some() {
            // Poisoned by this actor, while it ran, or before it ever
            // started: it has no grant worth handing on.
            return;
        }
        let part = sched.actors[id.0 as usize].part;
        Engine::release_grant(shared, sched, part);
    }

    /// The one place a run is poisoned. The first cause wins and does all
    /// the work: record it, raise the lock-free flag resumed actors test,
    /// wake every parked actor so it unwinds, and let `Engine::run` proceed
    /// to the joins. Once is enough — every path that parks an actor (or
    /// registers a new one) checks `Sched::poison` under the lock first, so
    /// nobody parks after this.
    fn poison(shared: &EngineShared, sched: &mut Sched, msg: String) {
        if sched.poison.is_some() {
            return;
        }
        sched.poison = Some(msg);
        shared.poisoned.store(true, Ordering::Release);
        for idx in 0..sched.actors.len() {
            if matches!(
                sched.actors[idx].state,
                ActorState::Queued | ActorState::Blocked
            ) {
                sched.resume_later(idx, WakeReason::Shutdown);
            }
        }
        // A sleeping handler has nothing to unwind, and what the pump had
        // granted need not run any more.
        sched.activations = Deferred::default();
        // Actors holding grants never release them after poisoning (they
        // panic at their next engine call), and the pump is never
        // re-entered — parking the queues is enough.
        sched.ready.clear();
        Engine::open_gate(shared);
    }

    /// Insert an entry and refresh the partition's front
    /// mirror and readiness. Does not pump: every caller either holds a
    /// grant (so the window cannot close underneath it) or is the pump.
    fn push_entry(sched: &mut Sched, part: u32, entry: PEntry) {
        let t = entry.t;
        let pi = part as usize;
        let queue = &mut sched.parts[pi].queue;
        // Time mostly moves forward: try the back before searching.
        if queue.back().is_none_or(|last| *last < entry) {
            queue.push_back(entry);
        } else {
            let at = queue.partition_point(|e| *e < entry);
            queue.insert(at, entry);
        }
        sched.parts[pi].sync_front();
        if t < sched.window_h && !sched.parts[pi].active && !sched.parts[pi].in_ready {
            sched.parts[pi].in_ready = true;
            sched.ready.push(part);
        }
    }

    /// Take actor `idx`'s generation-keyed entry queued at `t` back out (a
    /// consumed deadline timer, or a wake delivery being rescheduled
    /// earlier): everything else in its key — blocked-since instant, own
    /// name, wait generation — the slot still holds.
    fn take_entry(sched: &mut Sched, idx: usize, t: SimTime) -> PEntry {
        let Sched { actors, parts, .. } = sched;
        let slot = &actors[idx];
        let key = (t, slot.blocked_since, &*slot.name, slot.wait_gen);
        let part = &mut parts[slot.part as usize];
        let at = part.queue.partition_point(|e| e.key() < key);
        let entry = part.queue.remove(at);
        let entry = entry.expect("a generation-keyed entry is queued until granted");
        debug_assert!(entry.key() == key, "took the wrong entry");
        part.sync_front();
        entry
    }

    /// A partition's grant holder is done (parked, blocked, or finished):
    /// deactivate the partition, recheck its own readiness, and keep the
    /// window going.
    fn release_grant(shared: &Arc<EngineShared>, sched: &mut Sched, part: u32) {
        let pi = part as usize;
        debug_assert!(sched.parts[pi].active, "releasing a grant never issued");
        sched.parts[pi].active = false;
        sched.running -= 1;
        let front_live = sched.parts[pi]
            .queue
            .front()
            .is_some_and(|e| e.t < sched.window_h);
        if front_live && !sched.parts[pi].in_ready {
            sched.parts[pi].in_ready = true;
            sched.ready.push(part);
        }
        Engine::pump(shared, sched);
    }

    /// Grant the front entry of `part` if one is due in the current window,
    /// skipping stale deadline timers. Returns whether a grant was issued;
    /// the caller does the grant accounting.
    fn grant_one(shared: &Arc<EngineShared>, sched: &mut Sched, part: u32) -> bool {
        let pi = part as usize;
        loop {
            let h = sched.window_h;
            let Some(entry) = sched.parts[pi].queue.pop_front_if(|front| front.t < h) else {
                return false;
            };
            sched.parts[pi].sync_front();
            let idx = entry.id.0 as usize;
            let slot = &mut sched.actors[idx];
            // The wait this entry ends, as its winning waker if it has one:
            // a deadline's timer, or a delivery a wake queued. Anything
            // else (an advance, a first grant, a shutdown sweep) was
            // charged when it was pushed.
            let ended_wait = match entry.timer_gen {
                Some(gen) if slot.state != ActorState::Blocked || slot.wait_gen != gen => {
                    continue; // stale timer for an already-resumed wait
                }
                Some(_) => {
                    slot.blocked_deadline = None;
                    Some(None)
                }
                None => {
                    debug_assert_eq!(
                        slot.state,
                        ActorState::Queued,
                        "partition entry for non-queued actor {}",
                        slot.name
                    );
                    slot.queued_by_wake.take().map(|qw| qw.src)
                }
            };
            slot.state = ActorState::Running;
            slot.clock.local_now.store(entry.t.0, Ordering::Release);
            if let Some(waker) = ended_wait {
                // The blocked-time charge, the stall span and the wake edge
                // were deferred to this moment: the resume instant is final
                // now (no sender can reschedule an already-granted wait).
                let (since, tag) = (slot.blocked_since, slot.blocked_tag);
                let cause = slot.blocked_cause.take();
                *slot.acct.lock().entry(tag).or_insert(SimDur::ZERO) += entry.t.since(since);
                Engine::emit_stall(sched, entry.id, tag, cause.as_deref(), since, entry.t);
                let sink = shared.sink.as_ref().filter(|s| s.enabled());
                if let (Some((src_name, src_vt)), Some(sink)) = (waker, sink) {
                    let dst = &sched.actors[idx].name;
                    sink.edge("wake", &src_name, src_vt, dst, entry.t, &mut || {
                        let mut a = vec![("tag", tag.to_string())];
                        if let Some(c) = &cause {
                            a.push(("cause", c.clone()));
                        }
                        a
                    });
                }
            }
            sched.resume_later(idx, entry.reason);
            return true;
        }
    }

    /// The scheduler loop: issue grants to ready partitions up to the
    /// worker count; when the window drains (no grant held, no partition
    /// ready) close it and open the next one at the new minimum pending
    /// time — or terminate. Called with the scheduler locked.
    fn pump(shared: &Arc<EngineShared>, sched: &mut Sched) {
        if sched.poison.is_some() {
            return;
        }
        loop {
            // Grant phase.
            while sched.running < shared.parallelism {
                let Some(part) = sched.ready.pop() else {
                    break;
                };
                sched.parts[part as usize].in_ready = false;
                debug_assert!(!sched.parts[part as usize].active);
                if Engine::grant_one(shared, sched, part) {
                    sched.parts[part as usize].active = true;
                    sched.running += 1;
                    sched.events_dispatched += 1;
                    if sched.events_dispatched > shared.max_events {
                        let msg = format!("event-limit:{}", shared.max_events);
                        Engine::poison(shared, sched, msg);
                        return;
                    }
                    sched.window_grants += 1;
                    let wid = sched.window_id;
                    let p = &mut sched.parts[part as usize];
                    if p.last_grant_window != wid {
                        p.last_grant_window = wid;
                        sched.window_distinct += 1;
                    }
                }
            }
            if sched.running > 0 {
                // Grants outstanding; their release re-enters the pump.
                return;
            }
            // The window is drained: take close-of-window stats once.
            if sched.window_id > sched.window_closed {
                sched.window_closed = sched.window_id;
                if sched.window_distinct >= 2 {
                    sched.parallel_advances += sched.window_grants;
                }
                sched.horizon_stalls +=
                    sched.parts.iter().filter(|p| !p.queue.is_empty()).count() as u64;
            }
            let t0 = sched
                .parts
                .iter()
                .filter_map(|p| p.queue.front().map(|e| e.t))
                .min();
            let Some(t0) = t0 else {
                // No pending event anywhere: terminate or sweep daemons.
                if Engine::quiesce(shared, sched) {
                    return;
                }
                // The sweep queued shutdown wakes; grant them.
                continue;
            };
            sched.window_id += 1;
            sched.window_grants = 0;
            sched.window_distinct = 0;
            // A lone partition has nobody to wait for: no horizon.
            let h = if sched.parts.len() == 1 {
                SimTime::MAX
            } else {
                t0 + shared.lookahead
            };
            sched.window_h = h;
            shared.window_h_ps.store(h.0, Ordering::Release);
            sched.ready.clear();
            for i in 0..sched.parts.len() {
                let live = sched.parts[i].queue.front().is_some_and(|e| e.t < h);
                sched.parts[i].in_ready = live;
                if live {
                    sched.ready.push(i as u32);
                }
            }
        }
    }

    /// Termination: every queue is empty and no grant is outstanding. Opens the gate (run complete or deadlock) and returns
    /// `true`, or sweeps blocked daemons with shutdown wakes and returns
    /// `false` so the pump grants them.
    #[cold]
    #[inline(never)]
    fn quiesce(shared: &Arc<EngineShared>, sched: &mut Sched) -> bool {
        if sched.live_total == 0 {
            Engine::open_gate(shared);
            return true;
        }
        if sched.live_nondaemon == 0 {
            sched.shutdown = true;
            // The run's end: the furthest any actor's clock got. All clocks
            // are settled here (nobody holds a grant), so this is exact and
            // deterministic.
            let t_end = sched.latest_clock();
            let mut swept = false;
            for i in 0..sched.actors.len() {
                if sched.actors[i].state != ActorState::Blocked {
                    continue;
                }
                swept = true;
                let (entry, part, since, tag, cause) = {
                    let slot = &mut sched.actors[i];
                    slot.state = ActorState::Queued;
                    let since = slot.blocked_since;
                    let tag = slot.blocked_tag;
                    let cause = slot.blocked_cause.take();
                    *slot.acct.lock().entry(tag).or_insert(SimDur::ZERO) += t_end.since(since);
                    // A pending deadline timer would still be queued, so this
                    // sweep (all queues empty) cannot see one; defensive.
                    slot.blocked_deadline = None;
                    let entry = PEntry {
                        t: t_end,
                        src_vt: since,
                        src: slot.name.clone(),
                        src_seq: slot.wait_gen,
                        id: ActorId(i as u32),
                        reason: WakeReason::Shutdown,
                        timer_gen: None,
                    };
                    (entry, slot.part, since, tag, cause)
                };
                Engine::emit_stall(
                    sched,
                    ActorId(i as u32),
                    tag,
                    cause.as_deref(),
                    since,
                    t_end,
                );
                Engine::push_entry(sched, part, entry);
            }
            if swept {
                return false;
            }
            if sched.live_total == 0 {
                Engine::open_gate(shared);
            }
            // Daemons are mid-finish on their own threads; the last one
            // re-enters the pump and hits live_total == 0.
            return true;
        }
        // Live non-daemon actors exist but nothing is runnable: deadlock.
        let mut detail = String::new();
        for slot in &sched.actors {
            if slot.state == ActorState::Blocked {
                detail.push_str(&format!(
                    "  actor '{}' blocked on '{}' since {}\n",
                    slot.name, slot.blocked_tag, slot.blocked_since
                ));
            }
        }
        Engine::poison(shared, sched, format!("deadlock:{detail}"));
        true
    }

    fn open_gate(shared: &EngineShared) {
        let mut done = shared.gate.done.lock();
        *done = true;
        shared.gate.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_shutdown_wins_over_a_deferred_signaled() {
        let park = Park::new();
        park.thread.set(std::thread::current()).unwrap();
        // `Engine::poison` overtakes a grant recorded before it (wakes
        // are issued after the scheduler lock is released).
        park.wake(WakeReason::Shutdown);
        park.wake(WakeReason::Signaled);
        assert_eq!(park.wait(), WakeReason::Shutdown);
        // Taken, not latched: the next grant is delivered as itself.
        park.wake(WakeReason::Signaled);
        assert_eq!(park.wait(), WakeReason::Signaled);
        // The other arrival order ends in `Shutdown` too.
        park.wake(WakeReason::Signaled);
        park.wake(WakeReason::Shutdown);
        assert_eq!(park.wait(), WakeReason::Shutdown);
    }

    #[test]
    fn park_wake_before_wait_is_not_lost() {
        // The first-grant race: the waker runs before the new thread has
        // parked (or even started). The word and the unpark token both
        // persist, so the late `wait` returns at once.
        let park = Park::new();
        let p2 = park.clone();
        let (go, gone) = std::sync::mpsc::channel::<()>();
        let actor = std::thread::spawn(move || {
            gone.recv().unwrap();
            p2.wait()
        });
        park.thread.set(actor.thread().clone()).unwrap();
        park.wake(WakeReason::Signaled);
        go.send(()).unwrap();
        assert_eq!(actor.join().unwrap(), WakeReason::Signaled);
    }

    #[test]
    fn empty_sim_completes() {
        let report = Sim::new().run().unwrap();
        assert_eq!(report.end_time, SimTime::ZERO);
        assert!(report.actors.is_empty());
    }

    #[test]
    fn single_actor_advances_clock() {
        let mut sim = Sim::new();
        sim.spawn("a", |ctx| {
            ctx.advance(SimDur::from_us(5), "compute");
            ctx.advance(SimDur::from_us(3), "compute");
        });
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime(8 * crate::time::PS_PER_US));
        assert_eq!(report.actors[0].tag("compute"), SimDur::from_us(8));
    }

    #[test]
    fn actors_interleave_deterministically() {
        use std::sync::{Arc, Mutex};
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new();
        for (name, step) in [("a", 3u64), ("b", 2u64)] {
            let log = log.clone();
            sim.spawn(name, move |ctx| {
                for i in 0..3 {
                    ctx.advance(SimDur::from_us(step), "w");
                    log.lock().unwrap().push((name, i, ctx.now()));
                }
            });
        }
        sim.run().unwrap();
        let got: Vec<(&str, i32)> = log
            .lock()
            .unwrap()
            .iter()
            .map(|(n, i, _)| (*n, *i))
            .collect();
        // b wakes at 2,4,6; a at 3,6,9; tie at 6 resolved by FIFO (a pushed
        // its t=6 entry when resuming at t=3; b pushed t=6 at t=4 — a first).
        assert_eq!(
            got,
            vec![("b", 0), ("a", 0), ("b", 1), ("a", 1), ("b", 2), ("a", 2)]
        );
    }

    #[test]
    fn wait_and_wake_transfer_control() {
        use std::sync::{Arc, Mutex};
        let token_cell: Arc<Mutex<Option<WaitToken>>> = Arc::new(Mutex::new(None));
        let t1 = token_cell.clone();
        let t2 = token_cell.clone();
        let mut sim = Sim::new();
        sim.spawn("waiter", move |ctx| {
            let tok = ctx.prepare_wait();
            *t1.lock().unwrap() = Some(tok);
            let reason = ctx.wait(tok, "blocked");
            assert_eq!(reason, WakeReason::Signaled);
            assert_eq!(ctx.now(), SimTime::from_secs_f64(1e-6));
        });
        sim.spawn("waker", move |ctx| {
            ctx.advance(SimDur::from_us(1), "sleep");
            let tok = t2.lock().unwrap().take().expect("registered first");
            assert!(ctx.wake(tok));
            // Until the waiter is granted, a repeated wake merges into the
            // delivery already queued (min over senders), so it is honoured.
            assert!(ctx.wake(tok));
            ctx.advance(SimDur::from_us(1), "sleep");
            assert!(!ctx.wake(tok), "a wake after the resume must be stale");
        });
        let report = sim.run().unwrap();
        assert_eq!(
            report.actor("waiter").unwrap().tag("blocked"),
            SimDur::from_us(1)
        );
    }

    #[test]
    fn deadlock_is_detected() {
        let mut sim = Sim::new();
        sim.spawn("stuck", |ctx| {
            let tok = ctx.prepare_wait();
            ctx.wait(tok, "never");
        });
        match sim.run() {
            Err(SimError::Deadlock { detail }) => assert!(detail.contains("stuck")),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn daemons_shut_down_after_last_nondaemon() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let saw_shutdown = Arc::new(AtomicBool::new(false));
        let flag = saw_shutdown.clone();
        let mut sim = Sim::new();
        sim.spawn_daemon("svc", move |ctx| loop {
            let tok = ctx.prepare_wait();
            if ctx.wait(tok, "svc_idle") == WakeReason::Shutdown {
                flag.store(true, Ordering::SeqCst);
                return;
            }
        });
        sim.spawn("work", |ctx| {
            ctx.advance(SimDur::from_us(10), "w");
        });
        let report = sim.run().unwrap();
        assert!(saw_shutdown.load(Ordering::SeqCst));
        assert_eq!(report.end_time, SimTime(10 * crate::time::PS_PER_US));
    }

    #[test]
    fn actor_panic_is_reported() {
        let mut sim = Sim::new();
        sim.spawn("bystander", |ctx| {
            ctx.advance(SimDur::from_secs(100), "sleep");
        });
        sim.spawn("bad", |ctx| {
            ctx.advance(SimDur::from_us(1), "w");
            panic!("boom");
        });
        match sim.run() {
            Err(SimError::ActorPanic { actor, message }) => {
                assert_eq!(actor, "bad");
                assert!(message.contains("boom"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn event_limit_enforced() {
        let mut sim = Sim::with_config(SimConfig {
            max_events: 100,
            ..SimConfig::default()
        });
        sim.spawn("spinner", |ctx| loop {
            ctx.advance(SimDur::from_ns(1), "spin");
        });
        match sim.run() {
            Err(SimError::EventLimit { limit }) => assert_eq!(limit, 100),
            other => panic!("expected event limit, got {other:?}"),
        }
    }

    #[test]
    fn nested_spawn_runs_child() {
        let mut sim = Sim::new();
        sim.spawn("parent", |ctx| {
            ctx.advance(SimDur::from_us(1), "w");
            ctx.spawn("child", |ctx| {
                ctx.advance(SimDur::from_us(2), "w");
            });
            ctx.advance(SimDur::from_us(1), "w");
        });
        let report = sim.run().unwrap();
        // Child starts at t=1us and runs 2us => end at 3us.
        assert_eq!(report.end_time, SimTime(3 * crate::time::PS_PER_US));
        assert_eq!(report.actors.len(), 2);
    }

    #[test]
    fn metrics_accumulate() {
        let mut sim = Sim::new();
        sim.spawn("m", |ctx| {
            ctx.metrics().add("bytes", 100);
            ctx.metrics().inc("ops");
            ctx.metrics().add("bytes", 28);
        });
        let report = sim.run().unwrap();
        assert_eq!(report.metrics["bytes"], 128);
        assert_eq!(report.metrics["ops"], 1);
    }

    #[test]
    fn advance_until_past_time_is_noop() {
        let mut sim = Sim::new();
        sim.spawn("a", |ctx| {
            ctx.advance(SimDur::from_us(10), "w");
            ctx.advance_until(SimTime(5), "w"); // already past
            assert_eq!(ctx.now(), SimTime(10 * crate::time::PS_PER_US));
        });
        sim.run().unwrap();
    }

    #[test]
    fn wait_deadline_fires_on_time_when_not_woken() {
        let mut sim = Sim::new();
        sim.spawn("sleeper", |ctx| {
            let tok = ctx.prepare_wait();
            let reason = ctx.wait_deadline(tok, SimTime::ZERO + SimDur::from_us(25), "nap");
            assert_eq!(reason, WakeReason::Signaled);
            assert_eq!(ctx.now(), SimTime::ZERO + SimDur::from_us(25));
        });
        let report = sim.run().unwrap();
        assert_eq!(
            report.actor("sleeper").unwrap().tag("nap"),
            SimDur::from_us(25)
        );
    }

    #[test]
    fn wait_deadline_wakes_early_on_signal() {
        use std::sync::Mutex as StdMutex;
        let slot: Arc<StdMutex<Option<WaitToken>>> = Arc::new(StdMutex::new(None));
        let s2 = slot.clone();
        let mut sim = Sim::new();
        sim.spawn("sleeper", move |ctx| {
            let tok = ctx.prepare_wait();
            *s2.lock().unwrap() = Some(tok);
            ctx.wait_deadline(tok, SimTime::ZERO + SimDur::from_secs(10), "nap");
            assert_eq!(ctx.now(), SimTime::ZERO + SimDur::from_us(3), "woken early");
            // The stale timer entry must not re-wake us: sleep past it.
            ctx.advance(SimDur::from_secs(20), "after");
        });
        sim.spawn("waker", move |ctx| {
            ctx.advance(SimDur::from_us(3), "w");
            let tok = slot.lock().unwrap().take().unwrap();
            assert!(ctx.wake(tok));
        });
        sim.run().unwrap();
    }

    #[test]
    fn stale_timer_entries_are_skipped() {
        // A second wait after an early wake must not be disturbed by the
        // first wait's expired timer.
        use std::sync::Mutex as StdMutex;
        let slot: Arc<StdMutex<Option<WaitToken>>> = Arc::new(StdMutex::new(None));
        let s2 = slot.clone();
        let mut sim = Sim::new();
        sim.spawn("sleeper", move |ctx| {
            let tok = ctx.prepare_wait();
            *s2.lock().unwrap() = Some(tok);
            ctx.wait_deadline(tok, SimTime::ZERO + SimDur::from_us(10), "nap1");
            // Woken at t=2. The t=10 timer is now stale.
            let tok2 = ctx.prepare_wait();
            let reason = ctx.wait_deadline(tok2, SimTime::ZERO + SimDur::from_us(50), "nap2");
            assert_eq!(reason, WakeReason::Signaled);
            assert_eq!(
                ctx.now(),
                SimTime::ZERO + SimDur::from_us(50),
                "the stale t=10 timer must not cut nap2 short"
            );
        });
        sim.spawn("waker", move |ctx| {
            ctx.advance(SimDur::from_us(2), "w");
            let tok = slot.lock().unwrap().take().unwrap();
            assert!(ctx.wake(tok));
        });
        sim.run().unwrap();
    }

    #[test]
    fn many_actors_scale() {
        let mut sim = Sim::with_config(SimConfig {
            stack_size: 128 * 1024,
            ..Default::default()
        });
        for i in 0..500u64 {
            sim.spawn(format!("t{i}"), move |ctx| {
                for _ in 0..10 {
                    ctx.advance(SimDur::from_ns(i + 1), "w");
                }
            });
        }
        let report = sim.run().unwrap();
        assert_eq!(report.actors.len(), 500);
        assert_eq!(report.end_time, SimTime(10 * 500 * crate::time::PS_PER_NS));
    }

    /// One span as a sink saw it: start, actor, label, attributes.
    type Seen = (SimTime, String, &'static str, Vec<(&'static str, String)>);

    /// A sink that keeps every span, for the tests that hold two
    /// schedules to the same observable stream.
    #[derive(Default, Clone)]
    struct Collect(Arc<std::sync::Mutex<Vec<Seen>>>);

    impl SpanSink for Collect {
        fn enabled(&self) -> bool {
            true
        }

        fn lane(&self, actor: &str) -> Arc<dyn SpanLane> {
            Arc::new((self.clone(), actor.to_string()))
        }
    }

    impl SpanLane for (Collect, String) {
        fn span(
            &self,
            label: &'static str,
            t0: SimTime,
            _t1: SimTime,
            attrs: &mut dyn FnMut() -> Vec<(&'static str, String)>,
        ) {
            let seen = (t0, self.1.clone(), label, attrs());
            self.0 .0.lock().unwrap().push(seen);
        }
    }

    impl Collect {
        /// The stream ordered by content: partitions emit in racy
        /// real-time order, content does not race.
        fn sorted(&self) -> Vec<Seen> {
            let mut seen = self.0.lock().unwrap().clone();
            seen.sort();
            seen
        }
    }

    // --- windows across partitions ---

    fn windowed(parallelism: usize, lookahead: SimDur) -> SimConfig {
        SimConfig {
            parallelism,
            lookahead,
            ..SimConfig::default()
        }
    }

    /// A tie-dominated lockstep fleet: every actor advances the same step.
    fn lockstep_fleet(sim: &mut Sim, actors: usize, steps: usize) {
        for a in 0..actors {
            sim.spawn(format!("rank{a:03}"), move |ctx| {
                for i in 0..steps {
                    ctx.advance(SimDur::from_us(1), "compute");
                    ctx.event("step", || vec![("i", i.to_string())]);
                }
            });
        }
    }

    #[test]
    fn conservative_identical_across_parallelism() {
        let run = |parallelism: usize| {
            let seen = Arc::new(Collect::default());
            let mut sim = Sim::with_config(SimConfig {
                sink: Some(seen.clone()),
                ..windowed(parallelism, SimDur::from_us(5))
            });
            lockstep_fleet(&mut sim, 8, 50);
            (sim.run().unwrap(), seen.sorted())
        };
        let (p1, seen1) = run(1);
        assert_eq!(seen1.iter().filter(|s| s.2 == "step").count(), 8 * 50);
        for p in [2, 8] {
            let (r, seen) = run(p);
            assert_eq!(r.end_time, p1.end_time, "parallelism {p}");
            assert_eq!(r.actors, p1.actors, "parallelism {p}");
            assert_eq!(r.events, p1.events, "parallelism {p}");
            assert_eq!(r.handoffs_elided, p1.handoffs_elided, "parallelism {p}");
            assert_eq!(r.parallel_advances, p1.parallel_advances, "parallelism {p}");
            assert_eq!(r.horizon_stalls, p1.horizon_stalls, "parallelism {p}");
            assert_eq!(seen, seen1, "parallelism {p}");
        }
        // Lockstep fleets genuinely release multiple partitions per window.
        assert!(p1.parallel_advances > 0, "no window released ≥2 partitions");
        // ... and elide the park/unpark round-trip for most steps.
        assert!(p1.handoffs_elided > 0, "no lock-free fast-path advances");
    }

    #[test]
    fn conservative_cross_partition_wake_respects_lookahead() {
        use std::sync::Mutex as StdMutex;
        let token_cell: Arc<StdMutex<Option<WaitToken>>> = Arc::new(StdMutex::new(None));
        let t1 = token_cell.clone();
        let t2 = token_cell.clone();
        // Lookahead 500ns: the waker's advance to 1us crosses the first
        // horizon, so the waiter is guaranteed parked (and its token
        // registered) before the waker's wake executes.
        let mut sim = Sim::with_config(windowed(4, SimDur::from_ns(500)));
        sim.spawn("waiter", move |ctx| {
            let tok = ctx.prepare_wait();
            *t1.lock().unwrap() = Some(tok);
            let reason = ctx.wait(tok, "blocked");
            assert_eq!(reason, WakeReason::Signaled);
            // Delivery is clamped to the waker's clock + lookahead.
            assert_eq!(ctx.now(), SimTime(1_500_000));
        });
        sim.spawn("waker", move |ctx| {
            ctx.advance(SimDur::from_us(1), "sleep");
            let tok = t2.lock().unwrap().take().expect("registered in window 1");
            assert!(ctx.wake(tok));
        });
        let report = sim.run().unwrap();
        assert_eq!(
            report.actor("waiter").unwrap().tag("blocked"),
            SimDur::from_ns(1500)
        );
        assert_eq!(report.end_time, SimTime(1_500_000));
    }

    #[test]
    fn conservative_wake_at_delivers_min_over_senders() {
        use std::sync::Mutex as StdMutex;
        let token_cell: Arc<StdMutex<Option<WaitToken>>> = Arc::new(StdMutex::new(None));
        let t0 = token_cell.clone();
        let mut sim = Sim::with_config(windowed(4, SimDur::from_ns(500)));
        sim.spawn("waiter", move |ctx| {
            let tok = ctx.prepare_wait();
            *t0.lock().unwrap() = Some(tok);
            ctx.wait(tok, "blocked");
            // Both senders target this wait; the minimum instant wins no
            // matter which sender's call lands first in real time.
            assert_eq!(ctx.now(), SimTime::from_secs_f64(5e-6));
        });
        for (name, at_us) in [("late", 10u64), ("early", 5u64)] {
            let tc = token_cell.clone();
            sim.spawn(name, move |ctx| {
                ctx.advance(SimDur::from_us(1), "sleep");
                let tok = tc.lock().unwrap().expect("registered in window 1");
                assert!(ctx.wake_at(tok, SimTime(at_us * crate::time::PS_PER_US)));
            });
        }
        let report = sim.run().unwrap();
        assert_eq!(
            report.actor("waiter").unwrap().tag("blocked"),
            SimDur::from_us(5)
        );
    }

    #[test]
    fn conservative_wake_at_defers_to_earlier_deadline() {
        use std::sync::Mutex as StdMutex;
        let token_cell: Arc<StdMutex<Option<WaitToken>>> = Arc::new(StdMutex::new(None));
        let t0 = token_cell.clone();
        let mut sim = Sim::with_config(windowed(4, SimDur::from_ns(500)));
        sim.spawn("waiter", move |ctx| {
            let tok = ctx.prepare_wait();
            *t0.lock().unwrap() = Some(tok);
            let deadline = SimTime(5 * crate::time::PS_PER_US);
            ctx.wait_deadline(tok, deadline, "blocked");
            assert_eq!(ctx.now(), deadline, "the deadline timer must win");
        });
        let tc = token_cell.clone();
        sim.spawn("late-waker", move |ctx| {
            ctx.advance(SimDur::from_us(1), "sleep");
            let tok = tc.lock().unwrap().expect("registered in window 1");
            // Delivery at 10us ≥ the 5us deadline: the wake defers.
            assert!(!ctx.wake_at(tok, SimTime(10 * crate::time::PS_PER_US)));
        });
        let report = sim.run().unwrap();
        assert_eq!(
            report.actor("waiter").unwrap().tag("blocked"),
            SimDur::from_us(5)
        );
    }

    #[test]
    fn conservative_children_inherit_partition() {
        let mut sim = Sim::with_config(windowed(2, SimDur::from_us(1)));
        sim.spawn_on(3, "parent", |ctx| {
            assert_eq!(ctx.partition(), 3);
            ctx.advance(SimDur::from_us(1), "w");
            let me = ctx.partition();
            ctx.spawn("child", move |c| {
                assert_eq!(c.partition(), me);
                c.advance(SimDur::from_us(2), "w");
            });
            ctx.advance(SimDur::from_us(1), "w");
        });
        let report = sim.run().unwrap();
        assert_eq!(report.actor("child").unwrap().tag("w"), SimDur::from_us(2));
        assert_eq!(report.end_time, SimTime(3 * crate::time::PS_PER_US));
    }

    #[test]
    fn conservative_deadlock_is_detected() {
        let mut sim = Sim::with_config(windowed(2, SimDur::from_us(1)));
        sim.spawn("stuck", |ctx| {
            let tok = ctx.prepare_wait();
            ctx.wait(tok, "never");
        });
        sim.spawn("fine", |ctx| ctx.advance(SimDur::from_us(1), "w"));
        match sim.run() {
            Err(SimError::Deadlock { detail }) => assert!(detail.contains("stuck")),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn conservative_event_limit_trips() {
        let mut sim = Sim::with_config(SimConfig {
            max_events: 200,
            ..windowed(2, SimDur::from_us(1))
        });
        sim.spawn("spinner", |ctx| loop {
            ctx.advance(SimDur::from_us(10), "spin");
        });
        match sim.run() {
            Err(SimError::EventLimit { limit }) => assert_eq!(limit, 200),
            other => panic!("expected event limit, got {other:?}"),
        }
    }

    #[test]
    fn conservative_daemons_shut_down() {
        use std::sync::atomic::AtomicBool;
        let saw_shutdown = Arc::new(AtomicBool::new(false));
        let flag = saw_shutdown.clone();
        let mut sim = Sim::with_config(windowed(4, SimDur::from_us(1)));
        sim.spawn_daemon("svc", move |ctx| loop {
            let tok = ctx.prepare_wait();
            if ctx.wait(tok, "svc_idle") == WakeReason::Shutdown {
                flag.store(true, Ordering::SeqCst);
                return;
            }
        });
        sim.spawn("work", |ctx| {
            ctx.advance(SimDur::from_us(10), "w");
        });
        let report = sim.run().unwrap();
        assert!(saw_shutdown.load(Ordering::SeqCst));
        assert_eq!(report.end_time, SimTime(10 * crate::time::PS_PER_US));
        assert_eq!(
            report.actor("svc").unwrap().tag("svc_idle"),
            SimDur::from_us(10)
        );
    }

    #[test]
    fn conservative_zero_lookahead_is_serial_but_correct() {
        let run = |parallelism: usize, lookahead: SimDur| {
            let mut sim = Sim::with_config(windowed(parallelism, lookahead));
            lockstep_fleet(&mut sim, 4, 20);
            sim.run().unwrap()
        };
        let serial = run(4, SimDur::ZERO);
        let windowed = run(4, SimDur::from_us(3));
        assert_eq!(serial.end_time, windowed.end_time);
        assert_eq!(serial.actors, windowed.actors);
        // Zero lookahead is one partition: no window ever holds two.
        assert_eq!(serial.parallel_advances, 0);
        assert_eq!(serial.horizon_stalls, 0);
        assert_eq!(serial.events, windowed.events);
    }

    // --- handlers: daemons that own no thread ---

    fn us(n: u64) -> SimTime {
        SimTime::ZERO + SimDur::from_us(n)
    }

    /// A ticker that wakes at 0, 10, 20 and 30 us and then sleeps for good.
    async fn tick(ctx: &Ctx, log: Arc<std::sync::Mutex<Vec<SimTime>>>) {
        loop {
            let ticks = {
                let mut log = log.lock().unwrap();
                log.push(ctx.now());
                log.len()
            };
            let sleep = ctx.suspend(ctx.prepare_wait(), "idle");
            let sleep = if ticks < 4 {
                sleep.until(ctx.now() + SimDur::from_us(10))
            } else {
                sleep
            };
            if sleep.await == WakeReason::Shutdown {
                return;
            }
        }
    }

    /// The ticker as a handler (`inline`) or as a thread daemon.
    fn ticker(inline: bool) -> (SimReport, Vec<SimTime>) {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let log = seen.clone();
        let mut sim = Sim::with_config(windowed(1, SimDur::from_us(1)));
        if inline {
            sim.spawn_handler_on(0, "tick", |ctx| async move { tick(&ctx, log).await });
        } else {
            sim.spawn_daemon_on(0, "tick", |ctx| ctx.block_on(tick(ctx, log)));
        }
        sim.spawn_on(0, "work", |ctx| ctx.advance(SimDur::from_us(100), "w"));
        let report = sim.run().unwrap();
        let seen = seen.lock().unwrap().clone();
        (report, seen)
    }

    #[test]
    fn handler_activation_is_one_event_and_its_deadline_fires_on_time() {
        let (report, seen) = ticker(true);
        // Four activations, each re-armed deadline met at its instant; the
        // shutdown sweep is one more grant.
        assert_eq!(seen, vec![us(0), us(10), us(20), us(30)]);
        // work: first grant + one advance; tick: four activations + sweep.
        assert_eq!(report.events, 2 + 4 + 1);
        assert_eq!(report.end_time, us(100));
        assert_eq!(
            report.actor("tick").unwrap().tag("idle"),
            SimDur::from_us(100)
        );
        // Exactly what the thread daemon of the same body reports.
        let (threaded, seen_threaded) = ticker(false);
        assert_eq!(seen, seen_threaded);
        assert_eq!(report.events, threaded.events);
        assert_eq!(report.end_time, threaded.end_time);
        assert_eq!(report.actors, threaded.actors);
        assert_eq!((report.threads_spawned, threaded.threads_spawned), (1, 2));
    }

    /// A body that advances and waits mid-way: two advances, a wait on a
    /// token the other actor wakes, an advance, a deadline wait.
    async fn midway(ctx: &Ctx, cell: Arc<std::sync::Mutex<Option<WaitToken>>>) {
        ctx.sleep(SimDur::from_us(2), "compute").await;
        ctx.sleep(SimDur::from_us(5), "compute").await;
        let tok = ctx.prepare_wait();
        *cell.lock().unwrap() = Some(tok);
        let reason = ctx
            .suspend(tok, "blocked")
            .cause(|| "the poker".to_string())
            .await;
        assert_eq!(reason, WakeReason::Signaled);
        ctx.sleep_until(ctx.now() + SimDur::from_us(1), "compute")
            .await;
        let nap = ctx.suspend(ctx.prepare_wait(), "nap");
        nap.until(ctx.now() + SimDur::from_us(4)).await;
        ctx.sleep(SimDur::ZERO, "compute").await;
    }

    /// `midway` on a handler (`inline`) or on a thread, beside a thread
    /// that advances in step with it and wakes it.
    fn run_midway(inline: bool, lookahead: SimDur) -> (SimReport, Vec<Seen>) {
        let seen = Arc::new(Collect::default());
        let cell = Arc::new(std::sync::Mutex::new(None));
        let mut sim = Sim::with_config(SimConfig {
            sink: Some(seen.clone()),
            ..windowed(1, lookahead)
        });
        let c2 = cell.clone();
        if inline {
            sim.spawn_handler_on(0, "subject", |ctx| async move { midway(&ctx, c2).await });
        } else {
            sim.spawn_daemon_on(0, "subject", |ctx| ctx.block_on(midway(ctx, c2)));
        }
        sim.spawn_on(0, "poker", move |ctx| {
            ctx.advance(SimDur::from_us(3), "w");
            ctx.advance(SimDur::from_us(4), "w"); // ties the subject at 7
            ctx.advance(SimDur::from_us(5), "w");
            let tok = cell.lock().unwrap().take().expect("the subject waits");
            assert!(ctx.wake(tok));
            ctx.advance(SimDur::from_us(20), "w");
        });
        (sim.run().unwrap(), seen.sorted())
    }

    #[test]
    fn a_handler_advances_and_waits_midway_exactly_as_a_thread_does() {
        for lookahead in [SimDur::ZERO, SimDur::from_us(1)] {
            let (h, h_seen) = run_midway(true, lookahead);
            let (t, t_seen) = run_midway(false, lookahead);
            assert_eq!(h.events, t.events);
            assert_eq!(h.handoffs_elided, t.handoffs_elided);
            assert_eq!(h.end_time, t.end_time);
            assert_eq!(h.actors, t.actors);
            assert_eq!(h_seen, t_seen);
            // Both branches of the decision ran: elided and queued steps.
            assert!(h.handoffs_elided > 0 && h.events > h.handoffs_elided);
            let subject = h.actor("subject").unwrap();
            assert_eq!(subject.tag("blocked"), SimDur::from_us(5));
            assert_eq!(subject.tag("nap"), SimDur::from_us(4));
            let stalls: Vec<_> = h_seen.iter().filter(|s| s.2 == "stall").collect();
            assert_eq!(stalls.len(), 2, "{stalls:?}");
            assert!(stalls[0].3.contains(&("cause", "the poker".to_string())));
            assert_eq!((h.threads_spawned, t.threads_spawned), (1, 2));
        }
    }

    #[test]
    fn earlier_wake_at_reschedules_a_sleeping_handler() {
        use std::sync::Mutex as StdMutex;
        let cell: Arc<StdMutex<Option<WaitToken>>> = Arc::new(StdMutex::new(None));
        let seen = Arc::new(StdMutex::new(Vec::new()));
        let (c2, log) = (cell.clone(), seen.clone());
        let mut sim = Sim::with_config(windowed(2, SimDur::from_us(1)));
        sim.spawn_handler_on(0, "mailbox", |ctx| async move {
            loop {
                log.lock().unwrap().push(ctx.now());
                let tok = ctx.prepare_wait();
                *c2.lock().unwrap() = Some(tok);
                let sleep = ctx.suspend(tok, "idle");
                let sleep = if ctx.now() < us(50) {
                    sleep.until(us(50))
                } else {
                    sleep
                };
                if sleep.await == WakeReason::Shutdown {
                    return;
                }
            }
        });
        sim.spawn_on(1, "sender", move |ctx| {
            ctx.advance(SimDur::from_us(5), "w");
            let tok = cell.lock().unwrap().expect("armed at 0 us");
            assert!(ctx.wake_at(tok, us(30)));
            // Earlier wins, whichever call lands first; later is absorbed.
            assert!(ctx.wake_at(tok, us(20)));
            assert!(ctx.wake_at(tok, us(40)));
            ctx.advance(SimDur::from_us(95), "w");
        });
        sim.run().unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![us(0), us(20), us(50)]);
    }

    #[test]
    fn handler_panic_is_reported_by_name() {
        let mut sim = Sim::new();
        sim.spawn_handler_on(0, "bad", |ctx| async move {
            for calls in 1.. {
                assert!(calls < 2, "boom");
                ctx.suspend(ctx.prepare_wait(), "idle").until(us(1)).await;
            }
        });
        sim.spawn("bystander", |ctx| {
            ctx.advance(SimDur::from_secs(1), "sleep")
        });
        match sim.run() {
            Err(SimError::ActorPanic { actor, message }) => {
                assert_eq!(actor, "bad");
                assert!(message.contains("boom"));
            }
            other => panic!("expected the handler's panic, got {other:?}"),
        }
    }

    #[test]
    fn handler_waiting_on_a_stale_token_is_a_reported_bug() {
        let mut sim = Sim::new();
        sim.spawn_handler_on(0, "sloppy", |ctx| async move {
            let stale = ctx.prepare_wait();
            let _current = ctx.prepare_wait();
            ctx.suspend(stale, "idle").await;
        });
        sim.spawn("work", |ctx| ctx.advance(SimDur::from_us(1), "w"));
        match sim.run() {
            Err(SimError::ActorPanic { actor, message }) => {
                assert_eq!(actor, "sloppy");
                assert!(message.contains("last prepare_wait"), "{message}");
            }
            other => panic!("expected the misuse to be reported, got {other:?}"),
        }
    }

    #[test]
    fn handler_that_blocks_is_a_reported_bug() {
        let mut sim = Sim::new();
        sim.spawn_handler_on(0, "greedy", |ctx| async move {
            // The blocking form, where the body should await `sleep`.
            ctx.advance(SimDur::from_us(1), "w");
        });
        sim.spawn("work", |ctx| ctx.advance(SimDur::from_us(1), "w"));
        match sim.run() {
            Err(SimError::ActorPanic { actor, message }) => {
                assert_eq!(actor, "greedy");
                assert!(message.contains("blocking engine call"), "{message}");
            }
            other => panic!("expected the misuse to be reported, got {other:?}"),
        }
    }

    #[test]
    fn handlers_spawn_no_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex as StdMutex;
        let ran_on = Arc::new(StdMutex::new(HashSet::new()));
        let count = Arc::new(AtomicU64::new(0));
        let mut sim = Sim::new();
        for i in 0..512u32 {
            let (ran_on, count) = (ran_on.clone(), count.clone());
            sim.spawn_handler_on(0, format!("h{i:03}"), |ctx| async move {
                // Every step ties with 511 others: each one suspends.
                for _ in 0..4 {
                    ran_on.lock().unwrap().insert(std::thread::current().id());
                    count.fetch_add(1, Ordering::Relaxed);
                    ctx.sleep(SimDur::from_us(3), "w").await;
                }
            });
        }
        let report = sim.run().unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 512 * 4);
        assert_eq!(report.end_time, us(12));
        assert_eq!(report.events, 512 * 5);
        // No thread was started: every activation ran on the one that
        // called `run`.
        assert_eq!(report.threads_spawned, 0);
        let only: HashSet<_> = [std::thread::current().id()].into();
        assert_eq!(*ran_on.lock().unwrap(), only);
    }
}
