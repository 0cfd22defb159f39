//! The DSL front table: one compile per distinct `(program, params)`.
//!
//! A `workload=dsl` request names its program by a string (a shipped
//! example's name, or escaped inline source) plus `param` overrides.
//! Everything the serve path needs of that program — the compiled plan
//! to validate and run, the normal form and source hash its content
//! address is taken over — is a pure function of that pair, so it is
//! computed once per distinct pair and shared process-wide as a
//! [`DslFront`]. This module holds the crate's only call into the
//! compiler.
//!
//! Rules of the table:
//!
//! - **Equality is full content.** An entry is found by a hash of the
//!   request's own `program` bytes and `params` bits and then compared
//!   in full; two sources that differ anywhere never share an entry,
//!   whatever they hash to.
//! - **Errors are not stored.** A failed compile is re-derived (and
//!   re-reported) on every submission: a rejected request is rare, and
//!   keeping diagnostics would let a client that sends garbage evict
//!   programs that run.
//! - **It is bounded.** At most [`FRONT_CAP`] entries, oldest out; a
//!   program string over [`FRONT_MAX_SOURCE`] bytes is compiled on
//!   every use and never stored. No spool file can grow the table past
//!   `FRONT_CAP × FRONT_MAX_SOURCE` bytes of key text.
//! - **The compile runs outside the lock**, so a slow program never
//!   stalls the lookup of another; two threads racing on one new
//!   program both compile it and the first insert wins.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};

use impacc_dsl::Compiled;
use parking_lot::Mutex;

use crate::job::{escape_src, unescape_src};

/// Most entries the table holds; the oldest is dropped to admit one more.
pub const FRONT_CAP: usize = 256;

/// Longest `program` string (as the request spells it) the table keeps.
pub const FRONT_MAX_SOURCE: usize = 64 * 1024;

/// Everything serve derives from one DSL program, built once.
#[derive(Debug)]
pub struct DslFront {
    /// The compiled plan every rank of a run walks.
    pub compiled: Arc<Compiled>,
    /// [`Compiled::normal_form`], [`escape_src`]-encoded — the
    /// `program=` value of the job's canonical form.
    pub normal_form: String,
    /// [`impacc_dsl::source_hash`] of the (unescaped) normal form.
    pub src_hash: String,
}

/// Counters of the front table — process-wide, like the table.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FrontStats {
    /// Lookups answered by a stored entry.
    pub hits: u64,
    /// Lookups that ran the compiler (whether or not it succeeded).
    pub misses: u64,
    /// Entries stored right now.
    pub entries: u64,
}

impl FrontStats {
    /// Fraction of lookups answered without compiling, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

struct Entry {
    program: String,
    params: Vec<(String, f64)>,
    front: Arc<DslFront>,
}

impl Entry {
    fn is(&self, program: &str, params: &[(String, f64)]) -> bool {
        self.program == program
            && self.params.len() == params.len()
            && self
                .params
                .iter()
                .zip(params)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
    }
}

#[derive(Default)]
struct Table {
    /// Entries by request hash; a bucket keeps insertion order.
    buckets: HashMap<u64, Vec<Entry>>,
    /// The hash of every stored entry, oldest first — so the oldest
    /// entry is the first one in the bucket of `order.front()`.
    order: VecDeque<u64>,
}

impl Table {
    fn find(&self, hash: u64, program: &str, params: &[(String, f64)]) -> Option<Arc<DslFront>> {
        self.buckets
            .get(&hash)?
            .iter()
            .find(|e| e.is(program, params))
            .map(|e| e.front.clone())
    }

    fn evict_oldest(&mut self) {
        let Some(hash) = self.order.pop_front() else {
            return;
        };
        if let Some(bucket) = self.buckets.get_mut(&hash) {
            bucket.remove(0);
            if bucket.is_empty() {
                self.buckets.remove(&hash);
            }
        }
    }
}

struct Front {
    /// Randomly keyed: the hashed bytes come from spool files.
    hasher: RandomState,
    table: Mutex<Table>,
}

static FRONT: LazyLock<Front> = LazyLock::new(|| Front {
    hasher: RandomState::new(),
    table: Mutex::new(Table::default()),
});
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

fn compile(program: &str, params: &[(String, f64)]) -> Result<DslFront, String> {
    let src = match impacc_dsl::example(program) {
        Some(src) => Cow::Borrowed(src),
        None => Cow::Owned(unescape_src(program)),
    };
    let compiled = impacc_dsl::compile_with_overrides(&src, params)
        .map_err(|e| format!("dsl compile failed: {e}"))?;
    let normal = compiled.normal_form();
    Ok(DslFront {
        src_hash: impacc_dsl::source_hash(&normal),
        normal_form: escape_src(&normal),
        compiled: Arc::new(compiled),
    })
}

/// The front of the program a request names by `program` (a shipped
/// example, or [`escape_src`]-encoded inline source) and `params`.
pub fn dsl_front(program: &str, params: &[(String, f64)]) -> Result<Arc<DslFront>, String> {
    if program.len() > FRONT_MAX_SOURCE {
        MISSES.fetch_add(1, Ordering::Relaxed);
        return compile(program, params).map(Arc::new);
    }
    let mut h = FRONT.hasher.build_hasher();
    h.write(program.as_bytes());
    for (name, value) in params {
        h.write_u8(0xff);
        h.write(name.as_bytes());
        h.write_u64(value.to_bits());
    }
    let hash = h.finish();
    if let Some(front) = FRONT.table.lock().find(hash, program, params) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return Ok(front);
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let front = Arc::new(compile(program, params)?);
    let mut table = FRONT.table.lock();
    if let Some(first) = table.find(hash, program, params) {
        return Ok(first);
    }
    if table.order.len() >= FRONT_CAP {
        table.evict_oldest();
    }
    table.order.push_back(hash);
    table.buckets.entry(hash).or_default().push(Entry {
        program: program.to_string(),
        params: params.to_vec(),
        front: front.clone(),
    });
    Ok(front)
}

/// Current counters of the front table.
pub fn front_stats() -> FrontStats {
    FrontStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        entries: FRONT.table.lock().order.len() as u64,
    }
}
