//! The two `serve` workloads: the shipped campaigns' job mix submitted cold
//! (every job distinct, 0 % cache hits) and hot (one mix resubmitted, 100 %
//! hits). The client drives the engine the way its one production caller,
//! the spool daemon (`crates/serve/src/bin/serve.rs::process_one`), does:
//! parse each request, submit it, keep the ticket pending, settle whatever
//! has finished, and wait for the oldest pending ticket only when the queue
//! is full. So up to `queue_cap` jobs wait behind the two workers, and the
//! queue, both workers and backpressure all carry load.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use impacc_flight::FlightRecorder;
use impacc_serve::workload::run_job_flight;
use impacc_serve::{Campaign, JobDone, JobSpec, Reject, ResultCache, Serve, ServeConfig, Ticket};

use crate::trace::{Tracer, ROOT};

/// The frozen job mix, in campaign syntax.
const MIX: &str = include_str!("mix.campaign");

/// Job-seed space reserved per benchmark seed; a process generates far
/// fewer jobs than this, so mixes of different `--seed`s never share a key.
const SEEDS_PER_RUN: u64 = 10_000_000;

/// Hands out job seeds no other job of this process (or of another
/// `--seed`) uses, so a "cold" job can never hit the cache.
pub struct JobIds {
    next: u64,
}

impl JobIds {
    /// Starts at a multiple of `SEEDS_PER_RUN` that is never 0, so every
    /// job seed of one process has the same number of digits and the size
    /// of a result body does not depend on how many jobs came before it.
    pub fn new(seed: u64) -> JobIds {
        JobIds {
            next: (seed % 100_000 + 1) * SEEDS_PER_RUN,
        }
    }

    fn take(&mut self) -> u64 {
        self.next += 1;
        self.next - 1
    }
}

/// `passes` passes over the campaign mix, every job stamped with a seed of
/// its own, as the request texts a client writes to the spool. Every pass
/// holds the same shapes whatever the seed.
pub fn job_mix(ids: &mut JobIds, passes: usize) -> Result<Vec<String>, String> {
    let shapes = Campaign::parse(MIX)
        .map_err(|e| format!("mix.campaign does not parse: {e}"))?
        .jobs;
    Ok((0..passes)
        .flat_map(|_| shapes.iter())
        .map(|shape| {
            let mut job = shape.clone();
            job.seed = ids.take();
            job.to_file()
        })
        .collect())
}

/// The benchmark's one non-default `ServeConfig`: two workers (= `nproc`
/// here) and a memory-only cache, so disk noise is not in the numbers.
pub fn start_serve() -> Serve {
    Serve::start(ServeConfig {
        workers: 2,
        queue_cap: 64,
        cache_dir: None,
        out_dir: None,
    })
}

/// One serve repetition's outcome.
#[derive(Clone, Debug, Default)]
pub struct ServeRep {
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub hits: u64,
    /// Client-observed latency per job, ms: from the first attempt to
    /// submit it to the moment the client holds its result.
    pub latencies_ms: Vec<f64>,
    /// Result bytes received, summed over jobs.
    pub result_bytes: u64,
    /// Engine dispatches the executed jobs report, summed.
    pub events: u64,
    /// Most tickets the client held unsettled at once.
    pub pending_peak: u64,
    /// Times a full queue made the client wait for its oldest ticket.
    pub backpressure_waits: u64,
    /// First failure, for the log.
    pub first_error: Option<String>,
}

/// `"events":N` of a result body.
fn events_of(result: &str) -> u64 {
    result
        .split_once("\"events\":")
        .map(|(_, rest)| rest.bytes().take_while(u8::is_ascii_digit))
        .map_or(0, |digits| {
            digits.fold(0u64, |n, d| n * 10 + u64::from(d - b'0'))
        })
}

/// What a pass expects of every job, and what it keeps.
pub struct Expect<'a> {
    pub want_hit: bool,
    /// Bytes each job must reproduce (`serve_hot`: the cold bytes).
    pub bytes: Option<&'a [Arc<String>]>,
}

/// A submitted job the client has not seen the end of yet.
struct Pending {
    index: usize,
    since: Instant,
    ticket: Ticket,
}

/// A job is done: judge it and book it. It fails on an error result, a
/// missing body, the wrong cache outcome, or bytes other than expected.
fn settle(
    index: usize,
    since: Instant,
    done: JobDone,
    expect: &Expect,
    rep: &mut ServeRep,
    bodies: &mut [Option<Arc<String>>],
) {
    rep.latencies_ms.push(since.elapsed().as_secs_f64() * 1e3);
    let verdict = match (&done.error, &done.result) {
        (Some(e), _) => Err(format!("job error: {e}")),
        (None, None) => Err("no result body".to_string()),
        (None, Some(_)) if done.cache_hit != expect.want_hit => Err(format!(
            "cache_hit={} but wanted {}",
            done.cache_hit, expect.want_hit
        )),
        (None, Some(bytes)) => match expect.bytes {
            Some(cold) if **bytes != *cold[index] => {
                Err("hot bytes differ from the cold bytes".to_string())
            }
            _ => Ok(bytes),
        },
    };
    match verdict {
        Ok(bytes) => {
            rep.hits += u64::from(done.cache_hit);
            rep.result_bytes += bytes.len() as u64;
            if !done.cache_hit {
                rep.events += events_of(bytes);
            }
            if let Some(slot) = bodies.get_mut(index) {
                *slot = Some(bytes.clone());
            }
        }
        Err(why) => fail(rep, why),
    }
}

fn fail(rep: &mut ServeRep, why: String) {
    rep.failed += 1;
    rep.first_error.get_or_insert(why);
}

/// Take every request through the engine once, the way the spool daemon
/// does. `bodies` (empty, or one slot per request) receives the result
/// bytes by request index.
pub fn submit_all(
    serve: &Serve,
    requests: &[String],
    expect: &Expect,
    rep: &mut ServeRep,
    bodies: &mut [Option<Arc<String>>],
) {
    let mut pending: VecDeque<Pending> = VecDeque::new();
    for (index, text) in requests.iter().enumerate() {
        rep.attempted += 1;
        let since = Instant::now();
        let job = match JobSpec::parse(text) {
            Ok(job) => job,
            Err(why) => {
                fail(rep, format!("request does not parse: {why}"));
                continue;
            }
        };
        loop {
            match serve.submit(job.clone()) {
                Ok(ticket) => {
                    pending.push_back(Pending {
                        index,
                        since,
                        ticket,
                    });
                    break;
                }
                // Backpressure: let the oldest in-flight job finish, retry.
                Err(Reject::QueueFull { .. }) => match pending.pop_front() {
                    Some(p) => {
                        rep.backpressure_waits += 1;
                        settle(p.index, p.since, p.ticket.wait(), expect, rep, bodies);
                    }
                    None => std::thread::yield_now(),
                },
                Err(reject) => {
                    fail(rep, format!("rejected: {reject}"));
                    break;
                }
            }
        }
        rep.pending_peak = rep.pending_peak.max(pending.len() as u64);
        // Settle what has finished meanwhile, as the daemon does per scan.
        pending.retain_mut(|p| match p.ticket.try_wait() {
            Some(done) => {
                settle(p.index, p.since, done, expect, rep, bodies);
                false
            }
            None => true,
        });
    }
    for p in pending {
        settle(p.index, p.since, p.ticket.wait(), expect, rep, bodies);
    }
}

/// `serve_cold`: one repetition submits a fresh mix; nothing may hit.
pub fn cold_rep(serve: &Serve, ids: &mut JobIds, passes: usize) -> Result<ServeRep, String> {
    let requests = job_mix(ids, passes)?;
    let mut rep = ServeRep::default();
    let hits_before = serve.status().cache_hits;
    let expect = Expect {
        want_hit: false,
        bytes: None,
    };
    let t0 = Instant::now();
    submit_all(serve, &requests, &expect, &mut rep, &mut []);
    rep.wall_s = t0.elapsed().as_secs_f64();
    let stray = serve.status().cache_hits - hits_before;
    if stray != 0 {
        rep.failed += stray;
        rep.first_error
            .get_or_insert(format!("{stray} cache hits on a cold repetition"));
    }
    Ok(rep)
}

/// `serve_hot`'s state: the engine, the mix, and the bytes its one cold
/// execution produced.
pub struct HotState {
    pub serve: Serve,
    pub mix: Vec<String>,
    pub cold_bytes: Vec<Arc<String>>,
}

/// Start an engine and execute the mix once cold (set-up work).
pub fn hot_setup(ids: &mut JobIds, passes: usize) -> Result<HotState, String> {
    let mix = job_mix(ids, passes)?;
    let serve = start_serve();
    let mut cold = ServeRep::default();
    let mut bodies = vec![None; mix.len()];
    let expect = Expect {
        want_hit: false,
        bytes: None,
    };
    submit_all(&serve, &mix, &expect, &mut cold, &mut bodies);
    let cold_bytes: Vec<Arc<String>> = bodies.into_iter().flatten().collect();
    if cold.failed != 0 || cold_bytes.len() != mix.len() {
        return Err(format!(
            "{} of {} set-up jobs failed: {}",
            cold.failed,
            mix.len(),
            cold.first_error.unwrap_or_default()
        ));
    }
    Ok(HotState {
        serve,
        mix,
        cold_bytes,
    })
}

/// `serve_hot`: one repetition resubmits the mix `resubmits` times; every
/// submit must hit and return the cold bytes.
pub fn hot_rep(st: &HotState, resubmits: usize) -> ServeRep {
    let mut rep = ServeRep::default();
    rep.latencies_ms.reserve(resubmits * st.mix.len());
    let misses_before = st.serve.status().cache_misses;
    let expect = Expect {
        want_hit: true,
        bytes: Some(&st.cold_bytes),
    };
    let t0 = Instant::now();
    for _ in 0..resubmits {
        submit_all(&st.serve, &st.mix, &expect, &mut rep, &mut []);
    }
    rep.wall_s = t0.elapsed().as_secs_f64();
    let stray = st.serve.status().cache_misses - misses_before;
    if stray != 0 {
        rep.failed += stray;
        rep.first_error
            .get_or_insert(format!("{stray} cache misses on a hot repetition"));
    }
    rep
}

/// The traced replay: `passes` passes of cold jobs taken single-threaded
/// through the public stages a worker runs (`parse → validate → key → cache
/// get → run_job → cache put`), one span per stage under one `job` span,
/// then `hits` requests of an already-cached mix parsed and put through
/// `Serve::submit`. Returns the wall seconds of the cold part and of the
/// hit part.
pub fn replay(
    tr: &Tracer,
    ids: &mut JobIds,
    passes: usize,
    hot: &HotState,
    hits: usize,
) -> Result<(f64, f64), String> {
    let cache = ResultCache::new(None);
    let texts = job_mix(ids, passes)?;
    let t0 = Instant::now();
    for text in &texts {
        let job_span = tr.span("serve.job", ROOT);
        let parent = job_span.id();
        let job = {
            let _s = tr.span("serve.parse", parent);
            JobSpec::parse(text)?
        };
        {
            let _s = tr.span("serve.validate", parent);
            job.validate()?;
        }
        let key = {
            let _s = tr.span("serve.key", parent);
            job.key()
        };
        let cached = {
            let _s = tr.span("serve.cache_get", parent);
            cache.get(&key)
        };
        if cached.is_some() {
            return Err(format!("replayed cold job {key} was already cached"));
        }
        let outcome = {
            let _s = tr.span("serve.run", parent);
            // A worker hands every job its own flight rings.
            let flight = FlightRecorder::with_capacity(impacc_core::config::flight_capacity());
            run_job_flight(&job, Some(&flight))?
        };
        let _s = tr.span("serve.cache_put", parent);
        cache.put(&key, Arc::new(outcome.result));
    }
    let cold_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    for i in 0..hits {
        let job_span = tr.span("serve.job", ROOT);
        let parent = job_span.id();
        let job = {
            let _s = tr.span("serve.parse", parent);
            JobSpec::parse(&hot.mix[i % hot.mix.len()])?
        };
        let _s = tr.span("serve.submit_hit", parent);
        let done = hot
            .serve
            .submit(job)
            .map_err(|e| format!("replayed hit rejected: {e}"))?
            .wait();
        if !done.cache_hit {
            return Err("replayed hit missed the cache".to_string());
        }
    }
    Ok((cold_s, t1.elapsed().as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(ids: &mut JobIds, passes: usize) -> Vec<JobSpec> {
        job_mix(ids, passes)
            .unwrap()
            .iter()
            .map(|text| JobSpec::parse(text).expect("a generated request parses"))
            .collect()
    }

    #[test]
    fn every_generated_job_parses_and_is_distinct() {
        let mut ids = JobIds::new(3);
        let a = parsed(&mut ids, 2);
        let b = parsed(&mut ids, 1);
        assert_eq!(a.len(), 88, "44 campaign points per pass");
        let mut keys: Vec<String> = a.iter().chain(&b).map(JobSpec::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 132, "no two generated jobs share a cache key");
        // Another seed's mix shares nothing either.
        let c = parsed(&mut JobIds::new(4), 1);
        assert!(c.iter().all(|j| !keys.contains(&j.key())));
    }

    #[test]
    fn a_mix_holds_the_same_shapes_whatever_the_seed() {
        let shape = |seed| -> Vec<String> {
            parsed(&mut JobIds::new(seed), 2)
                .iter()
                .map(|j| {
                    JobSpec {
                        seed: 0,
                        ..j.clone()
                    }
                    .canonical()
                })
                .collect()
        };
        assert_eq!(shape(1), shape(2));
        // No point of the mix injects a fault.
        assert!(parsed(&mut JobIds::new(1), 1)
            .iter()
            .all(|j| j.chaos_rate == 0.0 && j.fail_device.is_empty()));
    }

    #[test]
    fn job_seeds_keep_one_width_within_a_process() {
        for seed in [0, 1, 9, 99_999, 100_000] {
            let mut ids = JobIds::new(seed);
            let first = ids.take();
            assert!(first > 0);
            let last = first + SEEDS_PER_RUN - 1;
            assert_eq!(first.to_string().len(), last.to_string().len());
        }
    }

    #[test]
    fn the_client_settles_every_job_and_fills_the_queue() {
        let mut ids = JobIds::new(5);
        let requests = job_mix(&mut ids, 3).unwrap();
        let serve = start_serve();
        let mut rep = ServeRep::default();
        let mut bodies = vec![None; requests.len()];
        let cold = Expect {
            want_hit: false,
            bytes: None,
        };
        submit_all(&serve, &requests, &cold, &mut rep, &mut bodies);
        assert_eq!((rep.attempted, rep.failed, rep.hits), (132, 0, 0));
        assert_eq!(rep.latencies_ms.len(), 132);
        assert!(bodies.iter().all(Option::is_some));
        // 132 jobs against a 64-deep queue: the client met backpressure.
        assert!(rep.pending_peak >= 64 && rep.backpressure_waits > 0);

        // The same requests again all hit and return the same bytes.
        let cold_bytes: Vec<Arc<String>> = bodies.into_iter().flatten().collect();
        let hot = Expect {
            want_hit: true,
            bytes: Some(&cold_bytes),
        };
        let mut again = ServeRep::default();
        submit_all(&serve, &requests, &hot, &mut again, &mut []);
        assert_eq!((again.attempted, again.failed, again.hits), (132, 0, 132));
        assert_eq!(again.result_bytes, rep.result_bytes);
    }

    #[test]
    fn events_are_read_from_a_result_body() {
        assert_eq!(
            events_of("{\"end_ps\":5,\"events\":1234,\"tasks\":2}"),
            1234
        );
        assert_eq!(events_of("{}"), 0);
    }
}
