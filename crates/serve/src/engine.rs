//! The serving engine: admission control, priority lanes, a bounded
//! worker pool, and the content-addressed cache stitched together.
//!
//! Life of a request:
//!
//! ```text
//! submit(job) ── admit ────────────► cache probe ──hit──► ready Ticket (no queue slot,
//!                                      │ miss                no channel)
//!                                      ├─ in-flight? ──► coalesce onto the running job
//!                                      │
//!                                      └─ lanes full? ──► Reject::QueueFull (backpressure)
//!                                         else enqueue (job, key) by priority, wake a worker
//! worker: pop highest lane → run_job_keyed (panic-fenced) → cache.put →
//!         JOB_<key>.json / PROF_<key>.json → fulfill every waiter
//! ```
//!
//! The key is computed once, in `submit` (`admit` validates and keys the
//! job with one lookup of a DSL program's front), and travels with
//! the job: the worker, the flight label, the profile name and the result
//! body all use that one string.
//!
//! Every decision increments an [`impacc_obs::Recorder`] counter
//! (`serve_admitted`, `serve_rejected`, `serve_cache_hit`,
//! `serve_cache_miss`, `serve_coalesced`, `serve_jobs_done`,
//! `serve_jobs_failed`) and the gauges `serve_queue_depth` /
//! `serve_workers_busy` track live occupancy, so a daemon's health is
//! observable through the same metrics surface as the simulator itself.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use impacc_flight::{Anomaly, FlightRecorder, Trigger, Watchdog};
use impacc_obs::{json, Recorder};
use parking_lot::{Condvar, Mutex};

use crate::cache::{write_atomic, ResultCache};
use crate::front::{front_stats, FrontStats};
use crate::job::JobSpec;
use crate::workload;

/// Recent-anomaly ring length in [`Status::anomalies`].
const ANOMALY_LOG_CAP: usize = 16;

/// Engine tuning knobs. `Default` reads `IMPACC_SERVE_WORKERS` (via
/// [`impacc_core::config::serve_workers`]) and falls back to 4 workers
/// and a 64-deep queue.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Maximum queued (admitted, not yet running) jobs across all lanes.
    pub queue_cap: usize,
    /// Disk tier for the result cache; `None` keeps it memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Where `JOB_<key>.json` / `PROF_<key>.json` artifacts land;
    /// `None` skips artifact files (results still flow via tickets).
    pub out_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: impacc_core::config::serve_workers().unwrap_or(4),
            queue_cap: 64,
            cache_dir: None,
            out_dir: None,
        }
    }
}

/// Why a submission was refused. Admission control is explicit: callers
/// always learn *why*, so clients can back off (`QueueFull`), fix the
/// request (`Invalid`), or give up (`ShuttingDown`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reject {
    /// All lanes are at capacity; retry after completions drain.
    QueueFull {
        /// Jobs currently queued.
        depth: usize,
        /// Configured queue capacity.
        cap: usize,
    },
    /// The job failed validation before touching the queue.
    Invalid(String),
    /// The engine is stopping; no new work is admitted.
    ShuttingDown,
}

impl std::fmt::Display for Reject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Reject::QueueFull { depth, cap } => {
                write!(f, "queue full ({depth}/{cap}); back off and retry")
            }
            Reject::Invalid(why) => write!(f, "invalid job: {why}"),
            Reject::ShuttingDown => write!(f, "engine shutting down"),
        }
    }
}

/// Terminal state of one submission, delivered through its [`Ticket`].
#[derive(Clone, Debug)]
pub struct JobDone {
    /// Content address of the job.
    pub key: String,
    /// Served from cache without executing anything?
    pub cache_hit: bool,
    /// The deterministic result body (absent only on failure).
    pub result: Option<Arc<String>>,
    /// Failure reason, if the job errored or panicked.
    pub error: Option<String>,
}

impl JobDone {
    /// Did the job produce a result?
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Handle to one admitted submission.
#[derive(Debug)]
pub struct Ticket {
    /// The job's content address.
    pub key: String,
    state: TicketState,
}

#[derive(Debug)]
enum TicketState {
    /// Resolved at submission (a cache hit); `None` once the result has
    /// been taken by [`Ticket::try_wait`].
    Ready(Option<JobDone>),
    /// Queued, running or coalesced: a worker sends the result.
    Pending(mpsc::Receiver<JobDone>),
}

impl Ticket {
    /// Block until the job completes (or its cached result is ready).
    pub fn wait(self) -> JobDone {
        match self.state {
            TicketState::Ready(done) => done.expect("try_wait already took this ticket's result"),
            TicketState::Pending(rx) => rx
                .recv()
                .expect("engine drains every admitted job before exit"),
        }
    }

    /// Non-blocking poll; yields the result once.
    pub fn try_wait(&mut self) -> Option<JobDone> {
        match &mut self.state {
            TicketState::Ready(done) => done.take(),
            TicketState::Pending(rx) => rx.try_recv().ok(),
        }
    }
}

/// One in-flight execution, as seen by the heartbeat: which job, where
/// it came from, and how far its virtual clock has advanced.
#[derive(Clone, Debug)]
pub struct InflightRow {
    /// Content address of the running job.
    pub key: String,
    /// Campaign correlation tag (empty for ad-hoc submissions).
    pub campaign: String,
    /// Priority lane the job was queued on (0 = high).
    pub lane: usize,
    /// Latest virtual timestamp its flight ring has seen, in ps.
    pub vtime_ps: u64,
    /// Coarse phase: `starting` (no spans yet), `advancing`, or
    /// `recovering` (fault spans observed).
    pub phase: &'static str,
}

/// Point-in-time engine health, readable while jobs are in flight.
#[derive(Clone, Debug, Default)]
pub struct Status {
    /// Queued (admitted, not running) jobs across all lanes.
    pub queue_depth: usize,
    /// Per-lane queue depth: index 0 = High, 1 = Normal, 2 = Low.
    pub lanes: [usize; 3],
    /// Configured worker count.
    pub workers: usize,
    /// Workers currently executing a job.
    pub workers_busy: usize,
    /// Submissions accepted (queued, coalesced, or cache-served).
    pub admitted: u64,
    /// Submissions refused.
    pub rejected: u64,
    /// ... because every lane was at capacity.
    pub rejected_queue_full: u64,
    /// ... because the job failed validation.
    pub rejected_invalid: u64,
    /// ... because the engine was stopping.
    pub rejected_shutdown: u64,
    /// Submissions answered from cache without execution.
    pub cache_hits: u64,
    /// Submissions that required (or joined) an execution.
    pub cache_misses: u64,
    /// Submissions that piggybacked on an in-flight identical job.
    pub coalesced: u64,
    /// The DSL front table (compiles saved / run / entries held). It is
    /// process-wide: every engine of a process reports the same numbers.
    pub front: FrontStats,
    /// Executions completed successfully.
    pub jobs_done: u64,
    /// Executions that errored or panicked.
    pub jobs_failed: u64,
    /// Completed executions the watchdog flagged as degraded.
    pub jobs_degraded: u64,
    /// Total engine retries folded in from completed jobs.
    pub retries: u64,
    /// Total injected chaos faults folded in from completed jobs.
    pub chaos_faults: u64,
    /// Jobs currently executing, one row each.
    pub inflight: Vec<InflightRow>,
    /// Most recent watchdog anomaly lines (bounded ring).
    pub anomalies: Vec<String>,
}

impl Status {
    /// Fraction of cache lookups served from cache, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// Fraction of workers currently busy, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.workers == 0 {
            0.0
        } else {
            self.workers_busy as f64 / self.workers as f64
        }
    }

    /// The `serve top` screen: a compact human rendering of this
    /// snapshot. Also embedded verbatim in [`Status::to_json`] so `top`
    /// needs no JSON parser.
    pub fn render(&self) -> String {
        let mut out = format!(
            "serve  workers {}/{} busy ({:.0}% util)   queue {} [hi {} | norm {} | low {}]\n",
            self.workers_busy,
            self.workers,
            100.0 * self.utilization(),
            self.queue_depth,
            self.lanes[0],
            self.lanes[1],
            self.lanes[2],
        );
        out.push_str(&format!(
            "cache  {} hits / {} lookups ({:.1}% hit rate)   admitted {}   rejected {} (full {}, invalid {}, shutdown {})\n",
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            100.0 * self.cache_hit_rate(),
            self.admitted,
            self.rejected,
            self.rejected_queue_full,
            self.rejected_invalid,
            self.rejected_shutdown,
        ));
        out.push_str(&format!(
            "front  {} hits / {} lookups ({:.1}% hit rate)   compiles {}   programs held {}\n",
            self.front.hits,
            self.front.hits + self.front.misses,
            100.0 * self.front.hit_rate(),
            self.front.misses,
            self.front.entries,
        ));
        out.push_str(&format!(
            "jobs   done {}  failed {}  degraded {}  coalesced {}   retries {}  chaos_faults {}\n",
            self.jobs_done,
            self.jobs_failed,
            self.jobs_degraded,
            self.coalesced,
            self.retries,
            self.chaos_faults,
        ));
        if !self.inflight.is_empty() {
            out.push_str("in-flight:\n");
            for row in &self.inflight {
                out.push_str(&format!(
                    "  {}  lane={}  vtime={}ps  phase={}{}{}\n",
                    row.key,
                    ["hi", "norm", "low"][row.lane.min(2)],
                    row.vtime_ps,
                    row.phase,
                    if row.campaign.is_empty() {
                        ""
                    } else {
                        "  campaign="
                    },
                    row.campaign,
                ));
            }
        }
        if !self.anomalies.is_empty() {
            out.push_str("anomalies:\n");
            for line in &self.anomalies {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// Compact JSON for `status.json` / logs. The pre-rendered `render`
    /// field is what `serve top` prints.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema_version\":{},\"queue_depth\":{},\"lanes\":[{},{},{}],\"workers\":{},\"workers_busy\":{},\"utilization\":{},\"admitted\":{},\"rejected\":{},\"rejected_queue_full\":{},\"rejected_invalid\":{},\"rejected_shutdown\":{},\"cache_hits\":{},\"cache_misses\":{},\"cache_hit_rate\":{},\"front_hits\":{},\"front_misses\":{},\"front_entries\":{},\"front_hit_rate\":{},\"coalesced\":{},\"jobs_done\":{},\"jobs_failed\":{},\"jobs_degraded\":{},\"retries\":{},\"chaos_faults\":{},\"inflight\":[",
            impacc_obs::SCHEMA_VERSION,
            self.queue_depth,
            self.lanes[0],
            self.lanes[1],
            self.lanes[2],
            self.workers,
            self.workers_busy,
            json::number(self.utilization()),
            self.admitted,
            self.rejected,
            self.rejected_queue_full,
            self.rejected_invalid,
            self.rejected_shutdown,
            self.cache_hits,
            self.cache_misses,
            json::number(self.cache_hit_rate()),
            self.front.hits,
            self.front.misses,
            self.front.entries,
            json::number(self.front.hit_rate()),
            self.coalesced,
            self.jobs_done,
            self.jobs_failed,
            self.jobs_degraded,
            self.retries,
            self.chaos_faults,
        );
        for (i, row) in self.inflight.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"key\":{},\"campaign\":{},\"lane\":{},\"vtime_ps\":{},\"phase\":{}}}",
                json::string(&row.key),
                json::string(&row.campaign),
                row.lane,
                row.vtime_ps,
                json::string(row.phase),
            ));
        }
        out.push_str("],\"anomalies\":[");
        for (i, line) in self.anomalies.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json::string(line));
        }
        out.push_str("],\"render\":");
        out.push_str(&json::string(&self.render()));
        out.push('}');
        out
    }
}

/// What the heartbeat knows about one executing job: a handle on its
/// flight ring (live vtime/phase) plus its correlation tags.
struct RunningJob {
    flight: FlightRecorder,
    campaign: String,
    lane: usize,
}

struct State {
    /// One FIFO per priority: index 0 = High, 1 = Normal, 2 = Low. A
    /// job travels with the key `submit` computed for it.
    lanes: [VecDeque<(JobSpec, String)>; 3],
    /// Waiters per in-flight key (queued or running). Presence here is
    /// what makes a later identical submission coalesce instead of
    /// enqueueing a duplicate execution.
    waiters: HashMap<String, Vec<mpsc::Sender<JobDone>>>,
    /// Executing jobs by key, for the live introspection surface.
    running: HashMap<String, RunningJob>,
    busy: usize,
    stopping: bool,
}

impl State {
    fn depth(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    fn pop(&mut self) -> Option<(JobSpec, String)> {
        self.lanes.iter_mut().find_map(VecDeque::pop_front)
    }
}

struct Shared {
    state: Mutex<State>,
    wake: Condvar,
    cache: ResultCache,
    rec: Recorder,
    cfg: ServeConfig,
    /// Backlog-growth detector state (fed by [`Serve::status`] calls).
    wd: Mutex<Watchdog>,
    /// Bounded ring of recent anomaly lines for the heartbeat.
    anomaly_log: Mutex<VecDeque<String>>,
}

impl Shared {
    fn gauges(&self, st: &State) {
        self.rec.gauge_set("serve_queue_depth", st.depth() as i64);
        self.rec.gauge_set("serve_workers_busy", st.busy as i64);
    }

    /// Record watchdog findings: bump counters and append readable lines
    /// to the bounded anomaly ring the heartbeat surfaces.
    fn note_anomalies(&self, who: &str, anomalies: &[Anomaly]) {
        if anomalies.is_empty() {
            return;
        }
        self.rec
            .counter_add("serve_anomalies", anomalies.len() as u64);
        let mut log = self.anomaly_log.lock();
        for a in anomalies {
            if log.len() >= ANOMALY_LOG_CAP {
                log.pop_front();
            }
            log.push_back(format!("{who}: {}", a.render()));
        }
    }

    /// Drain a finished job's flight ring into `FLIGHT_job_<key>.json`
    /// under `out_dir` — the post-mortem artifact for failures, panics
    /// and degraded completions.
    fn write_flight_dump(
        &self,
        key: &str,
        campaign: &str,
        flight: &FlightRecorder,
        trigger: Trigger,
        counters: &std::collections::BTreeMap<String, u64>,
        anomalies: &[Anomaly],
    ) {
        let Some(dir) = &self.cfg.out_dir else {
            return;
        };
        let mut dump = flight.dump(
            &format!("job_{key}"),
            trigger,
            counters.iter().map(|(k, v)| (k.clone(), *v)),
            anomalies,
        );
        if !campaign.is_empty() {
            dump = dump.with_campaign(campaign);
        }
        if let Err(e) = dump.write(dir) {
            eprintln!("serve: cannot write flight dump for {key}: {e}");
        }
    }

    /// Write `JOB_<key>.json` (and `PROF_<key>.json`) under `out_dir`.
    /// Idempotent: an artifact that already exists is left untouched,
    /// which keeps resubmit passes write-free.
    fn write_artifacts(&self, key: &str, result: &str, prof: Option<&str>) {
        let Some(dir) = &self.cfg.out_dir else {
            return;
        };
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("serve: cannot create {}: {e}", dir.display());
            return;
        }
        let mut targets = vec![(format!("JOB_{key}.json"), result)];
        if let Some(p) = prof {
            targets.push((format!("PROF_{key}.json"), p));
        }
        for (name, body) in targets {
            let path = dir.join(name);
            if path.exists() {
                continue;
            }
            if let Err(e) = write_atomic(&path, body.as_bytes()) {
                eprintln!("serve: cannot write {}: {e}", path.display());
            }
        }
    }
}

/// The running engine. Dropping it shuts down cleanly (draining queued
/// jobs first), so every admitted ticket always resolves.
pub struct Serve {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Serve {
    /// Spin up the worker pool.
    pub fn start(cfg: ServeConfig) -> Serve {
        Serve::with_recorder(cfg, Recorder::new())
    }

    /// Spin up the worker pool with a caller-owned metrics recorder.
    pub fn with_recorder(cfg: ServeConfig, rec: Recorder) -> Serve {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                waiters: HashMap::new(),
                running: HashMap::new(),
                busy: 0,
                stopping: false,
            }),
            wake: Condvar::new(),
            cache: ResultCache::new(cfg.cache_dir.clone()),
            rec,
            cfg: cfg.clone(),
            wd: Mutex::new(Watchdog::new()),
            anomaly_log: Mutex::new(VecDeque::new()),
        });
        let handles = (0..cfg.workers.max(1))
            .map(|i| {
                let sh = shared.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn serve worker")
            })
            .collect();
        Serve { shared, handles }
    }

    /// The engine's metrics recorder (counters/gauges listed in the
    /// module docs).
    pub fn recorder(&self) -> &Recorder {
        &self.shared.rec
    }

    /// Submit one job. Returns a [`Ticket`] on admission — already
    /// resolved when the cache had the answer — or a [`Reject`] telling
    /// the caller exactly why not.
    pub fn submit(&self, job: JobSpec) -> Result<Ticket, Reject> {
        let key = match job.admit() {
            Ok(key) => key,
            Err(why) => {
                self.shared.rec.counter_inc("serve_rejected");
                self.shared.rec.counter_inc("serve_rejected_invalid");
                return Err(Reject::Invalid(why));
            }
        };

        // Cache probe before taking a queue slot: a hit consumes no
        // capacity and is a ticket that already holds its result.
        if let Some(result) = self.shared.cache.get(&key) {
            self.shared.rec.counter_inc("serve_admitted");
            self.shared.rec.counter_inc("serve_cache_hit");
            self.shared.write_artifacts(&key, &result, None);
            return Ok(Ticket {
                key: key.clone(),
                state: TicketState::Ready(Some(JobDone {
                    key,
                    cache_hit: true,
                    result: Some(result),
                    error: None,
                })),
            });
        }

        let (tx, rx) = mpsc::channel();
        let ticket = Ticket {
            key: key.clone(),
            state: TicketState::Pending(rx),
        };
        let mut st = self.shared.state.lock();
        if st.stopping {
            self.shared.rec.counter_inc("serve_rejected");
            self.shared.rec.counter_inc("serve_rejected_shutdown");
            return Err(Reject::ShuttingDown);
        }
        if let Some(ws) = st.waiters.get_mut(&key) {
            // Identical job already queued or running: ride along.
            ws.push(tx);
            self.shared.rec.counter_inc("serve_admitted");
            self.shared.rec.counter_inc("serve_coalesced");
            return Ok(ticket);
        }
        let depth = st.depth();
        if depth >= self.shared.cfg.queue_cap {
            self.shared.rec.counter_inc("serve_rejected");
            self.shared.rec.counter_inc("serve_rejected_queue_full");
            return Err(Reject::QueueFull {
                depth,
                cap: self.shared.cfg.queue_cap,
            });
        }
        st.waiters.insert(key.clone(), vec![tx]);
        st.lanes[job.priority.lane()].push_back((job, key));
        self.shared.rec.counter_inc("serve_admitted");
        self.shared.rec.counter_inc("serve_cache_miss");
        self.shared.gauges(&st);
        drop(st);
        self.shared.wake.notify_one();
        Ok(ticket)
    }

    /// Block until every admitted job has completed.
    pub fn drain(&self) {
        let mut st = self.shared.state.lock();
        while st.depth() > 0 || st.busy > 0 {
            self.shared.wake.wait(&mut st);
        }
    }

    /// Current engine health. Each call also feeds the backlog-growth
    /// watchdog one queue-depth observation — a heartbeat that only ever
    /// shrinks its queue is healthy; one that grows monotonically across
    /// consecutive snapshots raises a `queue_backlog` anomaly.
    pub fn status(&self) -> Status {
        let (depth, busy, lanes, inflight) = {
            let st = self.shared.state.lock();
            let lanes = [st.lanes[0].len(), st.lanes[1].len(), st.lanes[2].len()];
            let mut rows: Vec<InflightRow> = st
                .running
                .iter()
                .map(|(key, rj)| {
                    let vtime_ps = rj.flight.last_vtime().0;
                    let phase = if rj.flight.fault_fires() > 0 {
                        "recovering"
                    } else if vtime_ps == 0 {
                        "starting"
                    } else {
                        "advancing"
                    };
                    InflightRow {
                        key: key.clone(),
                        campaign: rj.campaign.clone(),
                        lane: rj.lane,
                        vtime_ps,
                        phase,
                    }
                })
                .collect();
            rows.sort_by(|a, b| a.key.cmp(&b.key));
            (st.depth(), st.busy, lanes, rows)
        };
        if let Some(a) = self.shared.wd.lock().observe_queue_depth(depth as u64) {
            self.shared.note_anomalies("queue", &[a]);
        }
        let m = self.shared.rec.metrics();
        let c = |k: &str| m.counters.get(k).copied().unwrap_or(0);
        Status {
            queue_depth: depth,
            lanes,
            workers: self.shared.cfg.workers.max(1),
            workers_busy: busy,
            admitted: c("serve_admitted"),
            rejected: c("serve_rejected"),
            rejected_queue_full: c("serve_rejected_queue_full"),
            rejected_invalid: c("serve_rejected_invalid"),
            rejected_shutdown: c("serve_rejected_shutdown"),
            cache_hits: c("serve_cache_hit"),
            cache_misses: c("serve_cache_miss"),
            coalesced: c("serve_coalesced"),
            front: front_stats(),
            jobs_done: c("serve_jobs_done"),
            jobs_failed: c("serve_jobs_failed"),
            jobs_degraded: c("serve_jobs_degraded"),
            retries: c("serve_job_retries"),
            chaos_faults: c("serve_chaos_faults"),
            inflight,
            anomalies: self.shared.anomaly_log.lock().iter().cloned().collect(),
        }
    }

    /// Stop admitting, finish everything already queued, join workers.
    pub fn shutdown(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.stopping = true;
        }
        self.shared.wake.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(sh: &Shared) {
    loop {
        let (job, key) = {
            let mut st = sh.state.lock();
            loop {
                if let Some(admitted) = st.pop() {
                    st.busy += 1;
                    sh.gauges(&st);
                    break admitted;
                }
                if st.stopping {
                    return;
                }
                sh.wake.wait(&mut st);
            }
        };
        let campaign = job.campaign.clone();
        // The per-job flight ring lives outside the panic fence, so a
        // panicking simulation still leaves its last spans behind for
        // the post-mortem dump.
        let flight = if impacc_core::config::flight_enabled() {
            FlightRecorder::with_capacity(impacc_core::config::flight_capacity())
        } else {
            FlightRecorder::disabled()
        };
        {
            let mut st = sh.state.lock();
            st.running.insert(
                key.clone(),
                RunningJob {
                    flight: flight.clone(),
                    campaign: campaign.clone(),
                    lane: job.priority.lane(),
                },
            );
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            workload::run_job_keyed(&job, &key, Some(&flight))
        }));
        let done = match outcome {
            Ok(Ok(out)) => {
                let result = Arc::new(out.result);
                sh.cache.put(&key, result.clone());
                sh.write_artifacts(&key, &result, out.prof.as_deref());
                sh.rec.counter_inc("serve_jobs_done");
                let retries = out.metrics.get("retries").copied().unwrap_or(0);
                let faults: u64 = out
                    .metrics
                    .iter()
                    .filter(|(k, _)| k.starts_with("chaos_"))
                    .map(|(_, v)| *v)
                    .sum();
                if retries > 0 {
                    sh.rec.counter_add("serve_job_retries", retries);
                }
                if faults > 0 {
                    sh.rec.counter_add("serve_chaos_faults", faults);
                }
                let pairs: Vec<(&str, u64)> =
                    out.metrics.iter().map(|(k, v)| (k.as_str(), *v)).collect();
                let anomalies = Watchdog::new().check_counters(&pairs);
                if !anomalies.is_empty() {
                    // Degraded: the job completed, but its counters say
                    // something went wrong enough to keep the evidence.
                    sh.rec.counter_inc("serve_jobs_degraded");
                    sh.note_anomalies(&format!("job_{key}"), &anomalies);
                    sh.write_flight_dump(
                        &key,
                        &campaign,
                        &flight,
                        Trigger::Anomaly(anomalies[0].rule.to_string()),
                        &out.metrics,
                        &anomalies,
                    );
                }
                JobDone {
                    key: key.clone(),
                    cache_hit: false,
                    result: Some(result),
                    error: None,
                }
            }
            Ok(Err(why)) => {
                sh.rec.counter_inc("serve_jobs_failed");
                sh.write_flight_dump(
                    &key,
                    &campaign,
                    &flight,
                    Trigger::JobFailed(why.clone()),
                    &Default::default(),
                    &[],
                );
                JobDone {
                    key: key.clone(),
                    cache_hit: false,
                    result: None,
                    error: Some(why),
                }
            }
            Err(panic) => {
                sh.rec.counter_inc("serve_jobs_failed");
                let why = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "job panicked".to_string());
                sh.write_flight_dump(
                    &key,
                    &campaign,
                    &flight,
                    Trigger::Panic(why.clone()),
                    &Default::default(),
                    &[],
                );
                JobDone {
                    key: key.clone(),
                    cache_hit: false,
                    result: None,
                    error: Some(why),
                }
            }
        };
        let waiters = {
            let mut st = sh.state.lock();
            st.busy -= 1;
            st.running.remove(&key);
            let ws = st.waiters.remove(&key).unwrap_or_default();
            sh.gauges(&st);
            ws
        };
        for tx in waiters {
            let _ = tx.send(done.clone());
        }
        // Wake idle workers (spurious, harmless) and anyone in drain().
        sh.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_job(seed: u64) -> JobSpec {
        JobSpec::parse(&format!(
            "workload=allreduce\nelems=16\nrounds=1\nseed={seed}"
        ))
        .unwrap()
    }

    #[test]
    fn execute_then_cache_hit_with_identical_bytes() {
        let serve = Serve::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let first = serve.submit(quick_job(7)).unwrap().wait();
        assert!(first.is_ok() && !first.cache_hit);
        let second = serve.submit(quick_job(7)).unwrap().wait();
        assert!(
            second.cache_hit,
            "second submission must be served by cache"
        );
        assert_eq!(first.result.unwrap(), second.result.unwrap());
        let st = serve.status();
        assert_eq!(st.jobs_done, 1, "only one execution for two submissions");
        assert_eq!(st.cache_hits, 1);
    }

    #[test]
    fn queue_full_rejects_with_reason() {
        // Zero-capacity queue plus a held worker: nothing can be admitted
        // through the queue path, so the reject reason is deterministic.
        let serve = Serve::start(ServeConfig {
            workers: 1,
            queue_cap: 0,
            ..ServeConfig::default()
        });
        match serve.submit(quick_job(1)) {
            Err(Reject::QueueFull { depth: 0, cap: 0 }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(serve.status().rejected, 1);
    }

    #[test]
    fn invalid_jobs_never_reach_the_queue() {
        let serve = Serve::start(ServeConfig::default());
        let mut job = quick_job(0);
        job.spec = "psg".into();
        job.gpus = 99;
        match serve.submit(job) {
            Err(Reject::Invalid(why)) => assert!(why.contains("psg")),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn a_payload_no_node_can_hold_is_refused_and_the_engine_serves_on() {
        // 2^40 f64s per rank: 8 TiB, which used to abort the process from
        // inside the worker's first buffer allocation.
        let serve = Serve::start(ServeConfig::default());
        let poison = JobSpec {
            elems: 1 << 40,
            ..quick_job(0)
        };
        match serve.submit(poison) {
            Err(Reject::Invalid(why)) => assert!(why.contains("8796093022208 bytes"), "{why}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        let text = "workload=allreduce\nelems=1099511627776";
        let err = JobSpec::parse(text).expect_err("parse applies the same rule");
        assert!(err.contains("8796093022208 bytes per rank"), "{err}");
        assert!(serve.submit(quick_job(1)).unwrap().wait().is_ok());
        assert_eq!(serve.status().rejected_invalid, 1);
    }

    #[test]
    fn failed_jobs_resolve_tickets_with_errors() {
        let serve = Serve::start(ServeConfig::default());
        // An unknown preset passes shape validation but fails when the
        // worker builds the machine — the run-time failure path.
        let mut job = quick_job(0);
        job.spec = "not_a_machine".into();
        let done = serve.submit(job).unwrap().wait();
        assert!(!done.is_ok());
        assert!(done.error.unwrap().contains("not_a_machine"));
        assert!(done.result.is_none());
        assert_eq!(serve.status().jobs_failed, 1);
    }

    #[test]
    fn drain_waits_for_all_lanes() {
        let serve = Serve::start(ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        });
        let tickets: Vec<_> = (0..8)
            .map(|s| serve.submit(quick_job(s)).unwrap())
            .collect();
        serve.drain();
        let st = serve.status();
        assert_eq!(st.queue_depth, 0);
        assert_eq!(st.workers_busy, 0);
        assert_eq!(st.jobs_done, 8);
        for t in tickets {
            assert!(t.wait().is_ok());
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("impacc-serve-flight-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn failed_jobs_leave_a_flight_dump() {
        let dir = tmpdir("fail");
        let serve = Serve::start(ServeConfig {
            out_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let mut job = quick_job(0);
        job.spec = "not_a_machine".into();
        let key = job.key();
        let done = serve.submit(job).unwrap().wait();
        assert!(!done.is_ok());
        let dump = std::fs::read_to_string(dir.join(format!("FLIGHT_job_{key}.json")))
            .expect("failure leaves a flight dump");
        assert!(dump.contains("\"schema_version\""));
        assert!(dump.contains("\"trigger\":\"job_failed\""), "got: {dump}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn device_loss_jobs_complete_degraded_with_anomaly_and_dump() {
        let dir = tmpdir("degraded");
        let serve = Serve::start(ServeConfig {
            out_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let job = JobSpec::parse(
            "workload=allreduce\nspec=psg\nnodes=1\ngpus=2\nelems=16\nrounds=1\nfail_device=0:0",
        )
        .unwrap();
        let key = job.key();
        let done = serve.submit(job).unwrap().wait();
        assert!(done.is_ok(), "device loss is survivable: {:?}", done.error);
        let st = serve.status();
        assert_eq!(st.jobs_degraded, 1, "watchdog must flag the remap");
        assert!(
            st.anomalies.iter().any(|a| a.contains("device_loss")),
            "anomaly ring must name the rule: {:?}",
            st.anomalies
        );
        let dump = std::fs::read_to_string(dir.join(format!("FLIGHT_job_{key}.json")))
            .expect("degraded completion leaves a flight dump");
        assert!(dump.contains("\"trigger\":\"anomaly\""), "got: {dump}");
        assert!(dump.contains("device_loss"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A small job of every workload on a two-GPU PSG node: two tasks
    /// (what `exchange` needs) and a survivor for a failed device.
    fn small_psg_job(label: &str) -> &'static str {
        match label {
            "allreduce" => "workload=allreduce\nelems=64\nrounds=2",
            "exchange" => "workload=exchange\nrounds=2",
            "jacobi" => "workload=jacobi\nn=16\niters=3",
            "stencil3d" => "workload=stencil3d\nn=8\niters=2",
            "stencil2d" => "workload=stencil2d\nn=16\niters=2\nhalo=2",
            "redblack" => "workload=redblack\nn=16\niters=2",
            "dsl" => "workload=dsl\nprogram=jacobi\nparams=n:16,iters:2",
            other => panic!("no fault-plan job for workload {other}: add one"),
        }
    }

    /// The observables of a result body: everything after the key and the
    /// canonical job echo, which differ between any two jobs.
    fn observables(done: &JobDone) -> &str {
        let body = done.result.as_ref().expect("job ran");
        &body[body.find("\"end_ps\":").expect("result body")..]
    }

    fn counter(observables: &str, name: &str) -> u64 {
        let Some((_, rest)) = observables.split_once(&format!("\"{name}\":")) else {
            return 0;
        };
        let digits = rest.split(|c: char| !c.is_ascii_digit()).next();
        digits.and_then(|d| d.parse().ok()).unwrap_or(0)
    }

    /// The key covers the fault plan, so the run must too: a faulted job
    /// of any workload is not the healthy job under another name.
    #[test]
    fn every_workload_honours_its_fault_plan() {
        let dir = tmpdir("faults");
        let serve = Serve::start(ServeConfig {
            out_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let run = |text: String| {
            let job = JobSpec::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let key = job.key();
            let done = serve.submit(job).unwrap().wait();
            assert!(done.is_ok(), "{text}: {:?}", done.error);
            (key, done)
        };
        for row in &crate::job::WORKLOADS {
            let label = row.label;
            let base = format!("{}\nspec=psg\nnodes=1\ngpus=2", small_psg_job(label));
            let (_, healthy) = run(base.clone());

            let (_, faulted) = run(format!("{base}\nchaos_rate=0.3\nchaos_seed=1"));
            let seen = observables(&faulted);
            assert_ne!(seen, observables(&healthy), "{label}: fault rolls fired");
            assert!(
                counter(seen, "retries") > 0 || seen.contains("\"chaos_"),
                "{label}: no fault counter in {seen}"
            );

            let (key, degraded) = run(format!("{base}\nfail_device=0:1"));
            let seen = observables(&degraded);
            assert_ne!(seen, observables(&healthy), "{label}: device loss");
            assert!(counter(seen, "device_remaps") >= 1, "{label}: {seen}");
            let st = serve.status();
            assert!(
                st.anomalies
                    .iter()
                    .any(|a| a.contains(&key) && a.contains("device_loss")),
                "{label}: anomaly ring must name job and rule: {:?}",
                st.anomalies
            );
            let dump = std::fs::read_to_string(dir.join(format!("FLIGHT_job_{key}.json")))
                .unwrap_or_else(|e| panic!("{label}: degraded job leaves a flight dump: {e}"));
            assert!(dump.contains("device_loss"), "{label}: {dump}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_json_embeds_lanes_rates_and_render() {
        let serve = Serve::start(ServeConfig::default());
        serve.submit(quick_job(11)).unwrap().wait();
        serve.submit(quick_job(11)).unwrap().wait();
        let st = serve.status();
        assert_eq!(st.cache_hits, 1);
        assert!((st.cache_hit_rate() - 0.5).abs() < 1e-9);
        let j = st.to_json();
        for needle in [
            "\"lanes\":[0,0,0]",
            "\"cache_hit_rate\":0.5",
            "\"front_hits\":",
            "\"front_entries\":",
            "\"rejected_queue_full\":0",
            "\"inflight\":[]",
            "\"render\":\"serve  workers",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
        assert!(st.render().contains("hit rate"));
        assert!(st.render().contains("\nfront  "));
    }

    #[test]
    fn a_hit_is_a_ticket_that_yields_its_result_once() {
        let serve = Serve::start(ServeConfig::default());
        let job = quick_job(21);
        let key = job.key();
        let mut miss = serve.submit(job.clone()).unwrap();
        assert_eq!(miss.key, key);
        let executed = loop {
            match miss.try_wait() {
                Some(done) => break done,
                None => std::thread::yield_now(),
            }
        };
        assert!(miss.try_wait().is_none(), "a miss yields its result once");
        assert_eq!(executed.key, key);
        assert!(!executed.cache_hit && executed.error.is_none());

        let mut hit = serve.submit(job.clone()).unwrap();
        assert_eq!(hit.key, key);
        let polled = hit.try_wait().expect("a hit is resolved at submission");
        assert!(hit.try_wait().is_none(), "a hit yields its result once");
        let waited = serve.submit(job).unwrap().wait();
        for done in [&polled, &waited] {
            assert_eq!(done.key, key);
            assert!(done.cache_hit && done.is_ok());
            assert_eq!(
                done.result, executed.result,
                "a hit returns the executed bytes"
            );
        }
    }

    #[test]
    fn a_stopped_engine_still_answers_from_its_cache() {
        // The cache probe comes before the stopping check: an answer the
        // engine already holds needs no worker.
        let mut serve = Serve::start(ServeConfig::default());
        let executed = serve.submit(quick_job(22)).unwrap().wait();
        serve.shutdown();
        let hit = serve.submit(quick_job(22)).unwrap().wait();
        assert!(hit.cache_hit);
        assert_eq!(hit.result, executed.result);
        assert!(matches!(
            serve.submit(quick_job(23)),
            Err(Reject::ShuttingDown)
        ));
    }

    #[test]
    fn shutdown_finishes_queued_work_then_rejects() {
        let mut serve = Serve::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let t = serve.submit(quick_job(3)).unwrap();
        serve.shutdown();
        assert!(t.wait().is_ok(), "queued work drains before exit");
        match serve.submit(quick_job(4)) {
            Err(Reject::ShuttingDown) => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
    }
}
