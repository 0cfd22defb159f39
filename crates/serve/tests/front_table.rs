//! The DSL front table is a cache in front of a compiler, fed by spool
//! files: it must never confuse two programs, never remember a failure,
//! never grow past its bound, and never wedge under concurrent use.
//!
//! The table is process-wide and `cargo test` runs tests on parallel
//! threads, so every test here takes `SERIAL` first: eviction by one
//! test must not race the identity checks of another.

use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::Duration;

use impacc_serve::front::{dsl_front, FRONT_CAP, FRONT_MAX_SOURCE};
use impacc_serve::job::escape_src;
use impacc_serve::{front_stats, JobSpec, Reject, Serve, ServeConfig};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A small program that is distinct, and recognizably so, per `tag`.
fn tagged_program(tag: usize) -> String {
    escape_src(&format!(
        "param n = 8;\narray x[n] init(1.0);\nvar tag = {tag}.5;\n"
    ))
}

const UNCOMPILABLE: &str = "param n = 4;\nvar x = frob(n);\n";

#[test]
fn sources_differing_in_one_character_never_share_an_entry() {
    let _serial = serial();
    let src = impacc_dsl::example("jacobi").expect("shipped");
    let edited = src.replace("0.25", "0.26");
    assert_eq!(
        src.bytes()
            .zip(edited.bytes())
            .filter(|(a, b)| a != b)
            .count(),
        1,
        "the edit is one character"
    );
    let (a, b) = (escape_src(src), escape_src(&edited));
    let fa = dsl_front(&a, &[]).unwrap();
    let fb = dsl_front(&b, &[]).unwrap();
    assert!(!Arc::ptr_eq(&fa, &fb));
    assert_ne!(fa.normal_form, fb.normal_form);
    assert_ne!(fa.src_hash, fb.src_hash);
    assert!(fb.normal_form.contains("0.26") && !fa.normal_form.contains("0.26"));
    // The same request again is the same entry — no second compile.
    let before = front_stats();
    assert!(Arc::ptr_eq(&fa, &dsl_front(&a, &[]).unwrap()));
    assert!(Arc::ptr_eq(&fb, &dsl_front(&b, &[]).unwrap()));
    let after = front_stats();
    assert_eq!((after.hits - before.hits, after.misses), (2, before.misses));

    // Params are part of the identity, bit for bit.
    let p = |v: f64| vec![("n".to_string(), v)];
    let n16 = dsl_front("jacobi", &p(16.0)).unwrap();
    let n18 = dsl_front("jacobi", &p(18.0)).unwrap();
    assert!(!Arc::ptr_eq(&n16, &n18));
    assert!(n16.normal_form.contains("16.0") && n18.normal_form.contains("18.0"));
    assert!(Arc::ptr_eq(&n16, &dsl_front("jacobi", &p(16.0)).unwrap()));
    // ... and so is the spelling: the named example and its inlined
    // source are two entries that agree on the normal form.
    let named = dsl_front("jacobi", &[]).unwrap();
    assert!(!Arc::ptr_eq(&named, &fa));
    assert_eq!(named.normal_form, fa.normal_form);
    assert_eq!(named.src_hash, fa.src_hash);
}

#[test]
fn an_uncompilable_source_errors_on_every_submission_and_is_never_stored() {
    let _serial = serial();
    let serve = Serve::start(ServeConfig::default());
    let bad = JobSpec {
        workload: impacc_serve::Workload::Dsl,
        program: escape_src(UNCOMPILABLE),
        ..JobSpec::default()
    };
    let before = front_stats();
    for round in 0..3 {
        match serve.submit(bad.clone()) {
            Err(Reject::Invalid(why)) => {
                assert!(why.contains("frob"), "round {round}: {why}")
            }
            other => panic!("round {round}: expected Invalid, got {other:?}"),
        }
        assert!(JobSpec::parse(&format!("workload=dsl\nprogram={}", bad.program)).is_err());
    }
    let after = front_stats();
    assert_eq!(after.entries, before.entries, "a failure is not an entry");
    assert_eq!(
        after.hits, before.hits,
        "a failure is never served from the table"
    );
    assert_eq!(
        after.misses - before.misses,
        6,
        "every attempt ran the compiler"
    );

    // The table still compiles and serves a valid program afterwards.
    let good = JobSpec::parse(&format!(
        "workload=dsl\nnodes=1\ngpus=2\nprogram={}",
        tagged_program(424_242)
    ))
    .expect("a valid program after a failed one");
    let done = serve.submit(good).unwrap().wait();
    assert!(done.is_ok(), "{:?}", done.error);
    assert!(done.result.unwrap().contains("424242.5"));
}

#[test]
fn ten_times_the_bound_of_programs_leaves_the_table_at_its_bound() {
    let _serial = serial();
    for tag in 0..10 * FRONT_CAP {
        let front = dsl_front(&tagged_program(tag), &[]).unwrap();
        assert!(
            front.normal_form.contains(&format!("{tag}.5;")),
            "program {tag} got another program's front"
        );
        assert!(front_stats().entries <= FRONT_CAP as u64);
    }
    assert_eq!(front_stats().entries, FRONT_CAP as u64);
    // The newest FRONT_CAP programs are the ones held; the oldest is
    // compiled afresh — correctly — when it comes back.
    let before = front_stats();
    dsl_front(&tagged_program(10 * FRONT_CAP - 1), &[]).unwrap();
    assert_eq!(front_stats().hits, before.hits + 1);
    let first = dsl_front(&tagged_program(0), &[]).unwrap();
    assert!(first.normal_form.contains("\\s0.5;"));
    let after = front_stats();
    assert_eq!(after.misses, before.misses + 1);
    assert_eq!(after.entries, FRONT_CAP as u64);

    // A source over the size limit compiles every time and is not kept.
    let mut huge = tagged_program(7);
    huge.push_str(&"\\s".repeat(FRONT_MAX_SOURCE / 2 + 1));
    assert!(huge.len() > FRONT_MAX_SOURCE);
    let a = dsl_front(&huge, &[]).unwrap();
    let b = dsl_front(&huge, &[]).unwrap();
    assert!(!Arc::ptr_eq(&a, &b));
    assert_eq!(a.normal_form, b.normal_form);
    let end = front_stats();
    assert_eq!((end.misses, end.hits), (after.misses + 2, after.hits));
    assert_eq!(end.entries, FRONT_CAP as u64);
}

#[test]
fn four_threads_parsing_and_keying_finish_under_a_watchdog() {
    const THREADS: usize = 4;
    const ITERATIONS: usize = 50_000;
    /// More programs than the table holds, so inserts and evictions race
    /// the lookups.
    const ROTATING: usize = FRONT_CAP + 44;

    let _serial = serial();
    let request = |program: &str| format!("workload=dsl\nnodes=1\ngpus=2\nprogram={program}\n");
    // Programs every thread asks for, and what each must key to.
    let shared: Vec<(String, String)> = ["jacobi", "dot", "stencil2d"]
        .iter()
        .map(|name| name.to_string())
        .chain((0..5).map(|i| tagged_program(1_000_000 + i)))
        .map(|program| {
            let text = request(&program);
            let key = JobSpec::parse(&text).expect("shared request parses").key();
            (text, key)
        })
        .collect();
    let shared = Arc::new(shared);

    let (beat, beats) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || loop {
        match beats.recv_timeout(Duration::from_secs(30)) {
            Ok(()) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                eprintln!("front_table: no thread made progress for 30 s");
                std::process::abort();
            }
        }
    });
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let (shared, beat) = (shared.clone(), beat.clone());
            std::thread::spawn(move || {
                for i in 0..ITERATIONS {
                    if i % 16 == 15 {
                        // A program of this thread's own, rotating
                        // through more of them than the table holds.
                        let tag = 2_000_000 + t * ROTATING + (i / 16) % ROTATING;
                        let job = JobSpec::parse(&request(&tagged_program(tag)))
                            .expect("rotating request parses");
                        assert!(job.canonical().contains(&format!("{tag}.5;")));
                    } else {
                        let (text, key) = &shared[(i + t) % shared.len()];
                        let job = JobSpec::parse(text).expect("shared request parses");
                        assert_eq!(&job.key(), key, "thread {t} iteration {i}");
                    }
                    if i % 1000 == 0 {
                        beat.send(()).expect("watchdog alive");
                    }
                }
            })
        })
        .collect();
    drop(beat);
    for w in workers {
        w.join().expect("worker");
    }
    watchdog.join().expect("watchdog");
    assert!(front_stats().entries <= FRONT_CAP as u64);
}
