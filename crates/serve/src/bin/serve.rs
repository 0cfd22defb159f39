//! `serve` — the spool-directory daemon and its client subcommands.
//!
//! The wire protocol is the filesystem, so clients need nothing but a
//! shell:
//!
//! ```text
//! spool/
//!   incoming/<name>.job   requests (key=value job files), clients write here
//!   results/JOB_<key>.json  per-job deterministic result artifacts
//!   results/PROF_<key>.json per-job critical-path profiles (prof=1 jobs)
//!   cache/<key>.json      the content-addressed disk cache (persists)
//!   done/<name>.job       processed requests (+ <name>.err on rejection)
//!   status.json           live engine health, rewritten each scan
//!   stop                  touch this file to stop a foreground daemon
//! ```
//!
//! Usage:
//!
//! ```text
//! serve daemon   --spool DIR [--workers N] [--cap N] [--drain]
//! serve submit   --spool DIR (FILE | key=value ...)
//! serve campaign --spool DIR FILE
//! serve status   --spool DIR
//! serve top      --spool DIR [--watch]
//! ```
//!
//! `top` prints the human rendering the daemon embeds in `status.json`
//! (queue lanes, worker utilization, cache hit rate, in-flight jobs
//! with their virtual clocks, recent anomalies); `--watch` refreshes
//! once a second until interrupted or the daemon's `stop` file appears.
//!
//! `daemon --drain` processes everything queued, prints one summary line
//! (`serve: executed N, cache_hits M, rejected R, failed F, front_hits H,
//! front_misses C, front_entries E` — the last three count DSL programs
//! found compiled, compiled, and held), and exits —
//! the mode CI uses to assert that a resubmitted campaign re-executes
//! nothing. Without `--drain` the daemon polls `incoming/` until `stop`
//! appears.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::process::exit;

use impacc_serve::cache::write_atomic;
use impacc_serve::{Campaign, JobSpec, Reject, Serve, ServeConfig, Ticket};

fn usage() -> ! {
    eprintln!(
        "usage: serve daemon   --spool DIR [--workers N] [--cap N] [--drain]\n\
         \x20      serve submit   --spool DIR (FILE | key=value ...)\n\
         \x20      serve campaign --spool DIR FILE\n\
         \x20      serve status   --spool DIR\n\
         \x20      serve top      --spool DIR [--watch]"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let rest = &args[1..];
    match cmd.as_str() {
        "daemon" => daemon(rest),
        "submit" => submit(rest),
        "campaign" => campaign(rest),
        "status" => status(rest),
        "top" => top(rest),
        _ => usage(),
    }
}

/// Pull `--spool DIR` out of `args`, returning the remaining tokens.
fn split_spool(args: &[String]) -> (PathBuf, Vec<String>) {
    let mut spool = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spool" {
            match it.next() {
                Some(d) => spool = Some(PathBuf::from(d)),
                None => usage(),
            }
        } else {
            rest.push(a.clone());
        }
    }
    match spool {
        Some(s) => (s, rest),
        None => usage(),
    }
}

fn incoming(spool: &Path) -> PathBuf {
    spool.join("incoming")
}

/// Sorted `.job` files currently spooled — sorted so processing order
/// (and therefore daemon logs) is deterministic.
fn scan(spool: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(incoming(spool))
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|e| e == "job"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

/// Atomically write a job file into `incoming/`, named by content key so
/// identical requests collapse onto one spool entry.
fn spool_job(spool: &Path, job: &JobSpec) -> std::io::Result<PathBuf> {
    let dir = incoming(spool);
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.job", job.key()));
    write_atomic(&path, job.to_file().as_bytes())?;
    Ok(path)
}

fn submit(args: &[String]) {
    let (spool, rest) = split_spool(args);
    if rest.is_empty() {
        usage();
    }
    let job = if rest.len() == 1 && !rest[0].contains('=') {
        let text = std::fs::read_to_string(&rest[0]).unwrap_or_else(|e| {
            eprintln!("serve submit: cannot read {}: {e}", rest[0]);
            exit(1);
        });
        JobSpec::parse(&text)
    } else {
        JobSpec::parse(&rest.join("\n"))
    };
    let job = job
        .and_then(|j| j.validate().map(|()| j))
        .unwrap_or_else(|e| {
            eprintln!("serve submit: {e}");
            exit(1);
        });
    match spool_job(&spool, &job) {
        Ok(path) => println!("spooled {} -> {}", job.key(), path.display()),
        Err(e) => {
            eprintln!("serve submit: cannot spool: {e}");
            exit(1);
        }
    }
}

fn campaign(args: &[String]) {
    let (spool, rest) = split_spool(args);
    let [file] = rest.as_slice() else { usage() };
    let camp = Campaign::load(Path::new(file)).unwrap_or_else(|e| {
        eprintln!("serve campaign: {e}");
        exit(1);
    });
    let total = camp.jobs.len();
    let mut keys = std::collections::HashSet::new();
    for job in &camp.jobs {
        if let Err(e) = spool_job(&spool, job) {
            eprintln!("serve campaign: cannot spool {}: {e}", job.key());
            exit(1);
        }
        keys.insert(job.key());
    }
    println!(
        "spooled {total} jobs ({} spool entries) from {file}",
        keys.len()
    );
}

fn status(args: &[String]) {
    let (spool, rest) = split_spool(args);
    if !rest.is_empty() {
        usage();
    }
    match std::fs::read_to_string(spool.join("status.json")) {
        Ok(s) => println!("{s}"),
        Err(_) => {
            println!(
                "no status.json in {} (daemon not started yet?)",
                spool.display()
            );
        }
    }
}

/// Pull the daemon's pre-rendered `top` screen out of `status.json`.
/// The field is a flat JSON string written by [`impacc_serve::Status::
/// to_json`], so a tiny escape-aware scan suffices — no JSON parser.
fn extract_render(body: &str) -> Option<String> {
    let start = body.find("\"render\":\"")? + "\"render\":\"".len();
    let mut out = String::new();
    let mut chars = body[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    if let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                        out.push(c);
                    }
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

fn top(args: &[String]) {
    let (spool, rest) = split_spool(args);
    let watch = match rest.as_slice() {
        [] => false,
        [w] if w == "--watch" => true,
        _ => usage(),
    };
    loop {
        match std::fs::read_to_string(spool.join("status.json")) {
            Ok(body) => match extract_render(&body) {
                Some(screen) => {
                    if watch {
                        // ANSI home + clear-below keeps refreshes steady.
                        print!("\x1b[H\x1b[J");
                    }
                    print!("{screen}");
                }
                None => {
                    eprintln!("serve top: status.json has no render field (older daemon?)");
                    exit(1);
                }
            },
            Err(_) => {
                println!(
                    "no status.json in {} (daemon not started yet?)",
                    spool.display()
                );
                if !watch {
                    exit(1);
                }
            }
        }
        if !watch || spool.join("stop").exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_secs(1));
    }
}

fn daemon(args: &[String]) {
    let (spool, rest) = split_spool(args);
    let mut cfg = ServeConfig {
        cache_dir: Some(spool.join("cache")),
        out_dir: Some(spool.join("results")),
        ..ServeConfig::default()
    };
    let mut drain_mode = false;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--drain" => drain_mode = true,
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => cfg.workers = n,
                _ => usage(),
            },
            "--cap" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.queue_cap = n,
                _ => usage(),
            },
            _ => usage(),
        }
    }
    for sub in ["incoming", "results", "cache", "done"] {
        if let Err(e) = std::fs::create_dir_all(spool.join(sub)) {
            eprintln!("serve daemon: cannot create spool dir {sub}: {e}");
            exit(1);
        }
    }
    let _ = std::fs::remove_file(spool.join("stop"));

    let serve = Serve::start(cfg);
    let done_dir = spool.join("done");
    let mut pending: VecDeque<Ticket> = VecDeque::new();
    let mut rejected = 0u64;

    loop {
        for path in scan(&spool) {
            process_one(&serve, &path, &done_dir, &mut pending, &mut rejected);
        }
        // Settle finished tickets so `done/` and the failure count track
        // reality between scans.
        pending.retain_mut(|t| t.try_wait().is_none());
        write_status(&spool, &serve);
        let stop = spool.join("stop").exists();
        if drain_mode || stop {
            if scan(&spool).is_empty() {
                break;
            }
        } else {
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
    }
    for t in pending {
        t.wait();
    }
    serve.drain();
    write_status(&spool, &serve);
    let st = serve.status();
    println!(
        "serve: executed {}, cache_hits {}, rejected {}, failed {}, front_hits {}, front_misses {}, front_entries {}",
        st.jobs_done,
        st.cache_hits,
        rejected,
        st.jobs_failed,
        st.front.hits,
        st.front.misses,
        st.front.entries
    );
    if st.jobs_failed > 0 {
        exit(1);
    }
}

/// Parse + submit one spooled request; move it to `done/` (with a
/// `.err` sidecar on rejection). A full queue leaves the file in place —
/// that *is* the backpressure signal — after letting one in-flight
/// ticket settle.
fn process_one(
    serve: &Serve,
    path: &Path,
    done_dir: &Path,
    pending: &mut VecDeque<Ticket>,
    rejected: &mut u64,
) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("serve daemon: cannot read {}: {e}", path.display());
            return;
        }
    };
    let name = path.file_name().expect("scanned file has a name");
    let reject = |why: String, rejected: &mut u64| {
        *rejected += 1;
        eprintln!("serve daemon: rejected {}: {why}", path.display());
        let _ = std::fs::rename(path, done_dir.join(name));
        let err_name = format!("{}.err", name.to_string_lossy());
        let _ = std::fs::write(done_dir.join(err_name), format!("{why}\n"));
    };
    let job = match JobSpec::parse(&text) {
        Ok(j) => j,
        Err(why) => return reject(why, rejected),
    };
    match serve.submit(job) {
        Ok(ticket) => {
            pending.push_back(ticket);
            let _ = std::fs::rename(path, done_dir.join(name));
        }
        Err(Reject::QueueFull { .. }) => {
            // Backpressure: drain one in-flight job, retry this file on
            // the next scan.
            match pending.pop_front() {
                Some(oldest) => drop(oldest.wait()),
                None => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        Err(e @ (Reject::Invalid(_) | Reject::ShuttingDown)) => reject(e.to_string(), rejected),
    }
}

fn write_status(spool: &Path, serve: &Serve) {
    let body = serve.status().to_json();
    if let Err(e) = write_atomic(&spool.join("status.json"), body.as_bytes()) {
        eprintln!("serve daemon: cannot write status.json: {e}");
    }
}
