//! Job specifications: parse, validate, canonicalize, content-address.
//!
//! A [`JobSpec`] is one queued simulation request — workload, machine,
//! parameters, seed, fault plan, and collective options. Its
//! [`canonical`](JobSpec::canonical) rendering is a *normal form*:
//! key-sorted `key=value` pairs with every default materialized, so two
//! spellings of the same request (different field order, extra
//! whitespace, `0128` vs `128`, defaults written out vs omitted)
//! canonicalize to the same bytes. The cache key is a stable 64-bit hash
//! of that normal form plus the code version — and because the engine is
//! deterministic, equal keys are *guaranteed* to produce bit-identical
//! results, which is what makes content-addressed caching sound here.

use std::cell::OnceCell;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, LazyLock};

use impacc_apps::{allreduce_rounds, exchange, jacobi_task, JacobiParams};
use impacc_array::{dims_create, max_halo, scenarios, tile_bytes};
use impacc_core::{CollAlgo, Rank};
use impacc_machine::{presets, MachineSpec};

use crate::front::{self, DslFront};

/// Scheduling lane of a job. Priority orders dequeueing only — it is
/// *not* part of the cache key (it cannot change the result).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum Priority {
    /// Served before everything else.
    High,
    /// The default lane.
    #[default]
    Normal,
    /// Served only when the other lanes are empty.
    Low,
}

impl Priority {
    /// Lane index (0 is served first).
    pub fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// The `priority=` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    fn parse(s: &str) -> Result<Priority, String> {
        match s {
            "high" => Ok(Priority::High),
            "normal" => Ok(Priority::Normal),
            "low" => Ok(Priority::Low),
            other => Err(format!("unknown priority {other:?} (high|normal|low)")),
        }
    }
}

/// The workload a job runs. Each entry is a self-contained deterministic
/// program over the launched runtime.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `rounds` verified Sum-allreduces of `elems` f64s (the body of
    /// `campaigns/coll_sweep.campaign`).
    Allreduce,
    /// The fig-5-class kernel→copy→send/recv→copy→kernel exchange between
    /// two ranks (the body of `campaigns/chaos_sweep.campaign`).
    Exchange,
    /// The paper's Jacobi solver (`n×n` mesh, `iters` sweeps).
    Jacobi,
    /// 3-d 7-point stencil on the distributed-array layer (`n³` cube,
    /// 2-d rank grid, `iters` sweeps).
    Stencil3d,
    /// Variable-halo 2-d star stencil on the array layer (`n×n` mesh,
    /// radius/exchange depth `halo`, `iters` sweeps).
    Stencil2d,
    /// Red-black Gauss-Seidel on the array layer (`n×n` mesh, two
    /// colored half-sweeps — and exchanges — per iteration).
    Redblack,
    /// A compiled `.acc` DSL program (`program=` names a shipped
    /// example or carries escaped inline source; `params=` overrides
    /// its `param` declarations).
    Dsl,
}

/// The program one rank of a job runs: the future it makes of its rank.
pub(crate) type RankBody = Box<dyn Fn(Rank) -> RankFuture + Send + Sync>;

/// One rank's body, boxed so every workload's fits one [`RankBody`].
pub(crate) type RankFuture = Pin<Box<dyn Future<Output = ()> + Send>>;

/// Everything that differs between workloads. [`WORKLOADS`] holds one
/// row per [`Workload`]; parsing, validation, the canonical form and the
/// run path all read the row instead of deciding by workload themselves.
pub(crate) struct WorkloadRow {
    workload: Workload,
    /// The `workload=` spelling.
    pub(crate) label: &'static str,
    /// The result-affecting job fields this workload reads beyond the
    /// common ones (machine, seed, fault plan): the keys its canonical
    /// form adds, and the only ones that reach its run.
    pub(crate) reads: &'static [&'static str],
    /// The workload's own admission rule (`front` is the job's DSL
    /// program, looked up on first use).
    validate: fn(&JobSpec, &Front) -> Result<(), String>,
    /// Build the rank body, before launch and off the simulated ranks:
    /// a DSL compile error is the job's error, not a panic inside one.
    pub(crate) body: fn(&JobSpec) -> Result<RankBody, String>,
}

pub(crate) static WORKLOADS: [WorkloadRow; 7] = [
    WorkloadRow {
        workload: Workload::Allreduce,
        label: "allreduce",
        reads: &["algo", "elems", "rounds"],
        validate: |j, _| host_fits(j, format_args!("elems={}", j.elems), j.elems as u128 * 8),
        body: |j| {
            let (elems, rounds, seed) = (j.elems, j.rounds, j.seed);
            Ok(Box::new(move |tc| {
                Box::pin(async move { allreduce_rounds(&tc, elems, rounds, seed).await })
            }))
        },
    },
    WorkloadRow {
        workload: Workload::Exchange,
        label: "exchange",
        reads: &["rounds"],
        validate: |j, _| match j.task_count() {
            2 => Ok(()),
            n => Err(format!("exchange needs exactly 2 tasks, spec hosts {n}")),
        },
        body: |j| {
            let (rounds, seed) = (j.rounds, j.seed);
            // 32 KiB per buffer.
            Ok(Box::new(move |tc| {
                Box::pin(async move { exchange(&tc, 1 << 12, rounds, seed).await })
            }))
        },
    },
    WorkloadRow {
        workload: Workload::Jacobi,
        label: "jacobi",
        reads: &["iters", "n"],
        validate: |j, _| {
            if j.n < 8 || !j.n.is_multiple_of(2) {
                return Err("jacobi mesh n must be even and >= 8".into());
            }
            // `u` and `unew`: row blocks with one ghost row each side.
            let tile = tile_bytes(&[j.n, j.n], &[j.task_count()], 1);
            host_fits(j, format_args!("n={}", j.n), tile.saturating_mul(2))
        },
        body: |j| {
            let p = JacobiParams {
                n: j.n,
                iters: j.iters,
                verify: false,
            };
            Ok(Box::new(move |tc| {
                let p = p.clone();
                Box::pin(async move { jacobi_task(&tc, &p).await })
            }))
        },
    },
    WorkloadRow {
        workload: Workload::Stencil3d,
        label: "stencil3d",
        reads: &["iters", "n"],
        validate: |j, _| {
            if j.n < 4 {
                return Err("stencil3d cube n must be >= 4".into());
            }
            let tasks = j.task_count();
            // The 2-d rank grid `stencil3d_task` decomposes the cube over.
            let mut grid = [1; 2];
            dims_create(tasks, &mut grid);
            if max_halo(&[j.n, j.n, j.n], &grid) < 1 {
                return Err(format!(
                    "stencil3d n={} too small for a {tasks} rank grid",
                    j.n
                ));
            }
            let tile = tile_bytes(&[j.n, j.n, j.n], &grid, 1);
            host_fits(j, format_args!("n={}", j.n), tile.saturating_mul(2))
        },
        body: |j| {
            let p = scenarios::Stencil3dParams {
                n: j.n,
                iters: j.iters,
                verify: false,
            };
            Ok(Box::new(move |tc| {
                let p = p.clone();
                Box::pin(async move { scenarios::stencil3d_task(&tc, &p, None).await })
            }))
        },
    },
    WorkloadRow {
        workload: Workload::Stencil2d,
        label: "stencil2d",
        reads: &["halo", "iters", "n"],
        validate: |j, _| {
            if j.halo == 0 {
                return Err("stencil2d halo must be >= 1".into());
            }
            line_mesh_fits(j, j.halo, 2)
        },
        body: |j| {
            let p = scenarios::Stencil2dParams {
                n: j.n,
                iters: j.iters,
                halo: j.halo,
                verify: false,
            };
            Ok(Box::new(move |tc| {
                let p = p.clone();
                Box::pin(async move { scenarios::stencil2d_task(&tc, &p, None).await })
            }))
        },
    },
    WorkloadRow {
        workload: Workload::Redblack,
        label: "redblack",
        reads: &["iters", "n"],
        validate: |j, _| line_mesh_fits(j, 1, 1),
        body: |j| {
            let p = scenarios::RedBlackParams {
                n: j.n,
                iters: j.iters,
                verify: false,
            };
            Ok(Box::new(move |tc| {
                let p = p.clone();
                Box::pin(async move { scenarios::redblack_task(&tc, &p, None).await })
            }))
        },
    },
    WorkloadRow {
        workload: Workload::Dsl,
        label: "dsl",
        reads: &["program"],
        validate: |j, front| {
            if j.program.is_empty() {
                return Err("dsl workload needs program=<example|inline source>".into());
            }
            let bytes = impacc_dsl::validate_launch(&front.get()?.compiled, j.task_count())
                .map_err(|e| format!("dsl program cannot launch: {e}"))?;
            host_fits(j, "the dsl program's arrays", bytes)
        },
        body: |j| {
            let c = j.dsl_front()?.compiled.clone();
            Ok(Box::new(move |tc| {
                let c = c.clone();
                Box::pin(async move {
                    impacc_dsl::run_program(&tc, &c, None, false).await;
                })
            }))
        },
    },
];

/// The `n×n` mesh split into row blocks, one per task, leaves every
/// block at least `halo` rows to exchange, and a rank's `tiles` padded
/// blocks fit its node.
fn line_mesh_fits(j: &JobSpec, halo: usize, tiles: u128) -> Result<(), String> {
    if j.n <= 2 * halo {
        return Err(format!("mesh n={} must exceed 2*halo={}", j.n, 2 * halo));
    }
    let tasks = j.task_count();
    if max_halo(&[j.n, j.n], &[tasks]) < halo {
        return Err(format!(
            "halo {halo} exceeds the smallest block of n={} over {tasks} ranks",
            j.n
        ));
    }
    let tile = tile_bytes(&[j.n, j.n], &[tasks], halo);
    host_fits(j, format_args!("n={}", j.n), tile.saturating_mul(tiles))
}

/// Every stored byte is real, so the `per_rank` bytes a rank of `j`
/// allocates (`what` names them), times the ranks sharing a node, must fit
/// the simulated node's host memory: a request for more is refused here
/// instead of failing, or aborting, the allocation.
fn host_fits(j: &JobSpec, what: impl fmt::Display, per_rank: u128) -> Result<(), String> {
    let Some(preset) = j.preset() else {
        return Ok(()); // no machine to fit: the run reports the preset
    };
    let per_node = (j.task_count() / j.nodes) as u128;
    if per_rank.saturating_mul(per_node) > u128::from(preset.host_mem) {
        return Err(format!(
            "{what}: {per_rank} bytes per rank x {per_node} rank(s) per node \
             exceed a {} node's {} bytes of host memory",
            preset.name, preset.host_mem
        ));
    }
    Ok(())
}

/// `a|b|c`, for the "unknown name" errors.
fn names(all: impl Iterator<Item = &'static str>) -> String {
    all.collect::<Vec<_>>().join("|")
}

impl Workload {
    pub(crate) fn row(self) -> &'static WorkloadRow {
        WORKLOADS
            .iter()
            .find(|r| r.workload == self)
            .expect("every workload has a row")
    }

    /// The `workload=` spelling.
    pub fn label(self) -> &'static str {
        self.row().label
    }

    fn parse(s: &str) -> Result<Workload, String> {
        match WORKLOADS.iter().find(|r| r.label == s) {
            Some(r) => Ok(r.workload),
            None => Err(format!(
                "unknown workload {s:?} ({})",
                names(WORKLOADS.iter().map(|r| r.label))
            )),
        }
    }
}

/// One machine preset (`spec=`), sized by the job's `nodes`/`gpus`.
pub(crate) struct Preset {
    name: &'static str,
    /// Host memory of one of its nodes, bytes.
    host_mem: u64,
    /// Tasks the §3.2 mapper will create on it.
    tasks: fn(&JobSpec) -> usize,
    /// Why the job's `nodes`/`gpus` do not fit it, if they do not.
    misfit: fn(&JobSpec) -> Option<&'static str>,
    pub(crate) build: fn(&JobSpec) -> MachineSpec,
}

static PRESETS: [Preset; 3] = [
    Preset {
        name: "test_cluster",
        host_mem: presets::PSG_HOST_MEM,
        tasks: |j| j.nodes * j.gpus,
        misfit: |_| None,
        build: |j| presets::test_cluster(j.nodes, j.gpus),
    },
    Preset {
        name: "psg",
        host_mem: presets::PSG_HOST_MEM,
        tasks: |j| j.gpus,
        misfit: |j| (j.gpus > 8 || j.nodes != 1).then_some("psg is one node with up to 8 GPUs"),
        build: |j| {
            let mut s = presets::psg();
            s.nodes[0].devices.truncate(j.gpus);
            s
        },
    },
    Preset {
        name: "titan",
        host_mem: presets::TITAN_HOST_MEM,
        tasks: |j| j.nodes,
        misfit: |_| None,
        build: |j| presets::titan(j.nodes),
    },
];

/// Escape DSL source so it survives the daemon's line- and
/// space-oriented plumbing: canonical forms join pairs with spaces,
/// job files are `key=value` *lines* with `#` comments. The escaped
/// text contains none of newline, space, tab or `#`.
pub fn escape_src(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    for c in src.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            ' ' => out.push_str("\\s"),
            '#' => out.push_str("\\h"),
            other => out.push(other),
        }
    }
    out
}

/// Inverse of [`escape_src`]. Unknown escapes pass the character
/// through literally.
pub fn unescape_src(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('s') => out.push(' '),
            Some('h') => out.push('#'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

/// One simulation request. Build with [`JobSpec::parse`] /
/// [`JobSpec::from_pairs`]; every field not given takes the documented
/// default, and the canonical form always spells every relevant field
/// out.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// What to run.
    pub workload: Workload,
    /// Machine preset: `test_cluster` | `psg` | `titan`.
    pub spec: String,
    /// Node count (presets that take one; default 2).
    pub nodes: usize,
    /// Devices per node / preset size parameter (default 1).
    pub gpus: usize,
    /// Payload seed folded into workload payloads (default 0).
    pub seed: u64,
    /// Allreduce payload length in f64s (default 128).
    pub elems: usize,
    /// Allreduce/exchange round count (default 2).
    pub rounds: u32,
    /// Jacobi mesh dimension (default 64).
    pub n: usize,
    /// Jacobi/stencil sweep count (default 4).
    pub iters: usize,
    /// Array-stencil halo depth / star radius (default 1; stencil2d
    /// exchanges `halo` rows per neighbour per sweep).
    pub halo: usize,
    /// DSL program: a shipped example name (`jacobi`, `dot`,
    /// `stencil2d`) or [`escape_src`]-encoded inline source. Only the
    /// `dsl` workload reads it.
    pub program: String,
    /// DSL `param` overrides, applied over the program's defaults.
    pub params: Vec<(String, f64)>,
    /// Forced collective algorithm (default: engine policy).
    pub algo: Option<CollAlgo>,
    /// Uniform chaos fault rate over all sites (default 0 = no plan).
    pub chaos_rate: f64,
    /// Chaos seed (default 0; only meaningful with a plan).
    pub chaos_seed: u64,
    /// Devices failed from launch, as `(node, dev)` pairs.
    pub fail_device: Vec<(usize, usize)>,
    /// Also record the run and write a per-job `PROF_<key>.json`.
    /// Recording never changes results, so this is not part of the key.
    pub prof: bool,
    /// Scheduling lane; not part of the key.
    pub priority: Priority,
    /// Correlation id of the owning campaign (`""` = standalone job).
    /// Pure observability — it tags the job's spans, heartbeat rows and
    /// `FLIGHT_*.json` dumps but can never change the result, so it is
    /// not part of the key: a campaign resubmitting a point someone ran
    /// standalone still hits the cache.
    pub campaign: String,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec::with_spec(DEFAULT_SPEC)
    }
}

/// The `spec=` a job names when it names none.
const DEFAULT_SPEC: &str = "test_cluster";

fn parse_num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
    v.parse::<T>()
        .map_err(|_| format!("field {key}: cannot parse {v:?}"))
}

fn parse_bool(key: &str, v: &str) -> Result<bool, String> {
    match v {
        "1" | "true" => Ok(true),
        "0" | "false" => Ok(false),
        _ => Err(format!("field {key}: want 0|1|true|false, got {v:?}")),
    }
}

/// The `key = value` pairs of a job text, one per line, `#` comments
/// and blank lines skipped; a line without `=` is an error. Each line is
/// read once: the scan that finds its first `=` goes on to its comment or
/// its end, whichever comes first (a line that `str::lines` would end in
/// `\r\n` loses the `\r` to the trim).
fn text_pairs(text: &str) -> impl Iterator<Item = Result<(&str, &str), String>> {
    let mut rest = text;
    std::iter::from_fn(move || loop {
        if rest.is_empty() {
            return None;
        }
        let bytes = rest.as_bytes();
        let len = bytes.len();
        // `end`: where the pair's text stops, at a `#`, a newline or the
        // end of the text.
        let (eq, end) = match bytes.iter().position(|&b| matches!(b, b'=' | b'#' | b'\n')) {
            Some(i) if bytes[i] == b'=' => {
                let value = &bytes[i + 1..];
                (
                    Some(i),
                    i + 1 + find_either(value, b'#', b'\n').unwrap_or(value.len()),
                )
            }
            Some(i) => (None, i),
            None => (None, len),
        };
        let next = match bytes.get(end) {
            Some(b'#') => rest[end..].find('\n').map_or(len, |nl| end + nl + 1),
            Some(_) => end + 1,
            None => len,
        };
        let content = &rest[..end];
        rest = &rest[next..];
        match eq {
            Some(i) => return Some(Ok((trim(&content[..i]), trim(&content[i + 1..])))),
            None => match trim(content) {
                "" => continue,
                line => return Some(Err(format!("expected key=value, got {line:?}"))),
            },
        }
    })
}

/// Index of the first `a` or `b` in `hay`, eight bytes a step: a word
/// holds a byte equal to `x` iff `w ^ x·0x01…01` holds a zero byte, and
/// the lowest byte the zero-byte test flags is exactly the first one.
fn find_either(hay: &[u8], a: u8, b: u8) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let zero = |w: u64| w.wrapping_sub(LO) & !w & HI;
    let (ma, mb) = (LO * u64::from(a), LO * u64::from(b));
    let mut words = hay.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let w = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        let hit = zero(w ^ ma) | zero(w ^ mb);
        if hit != 0 {
            return Some(i * 8 + hit.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = hay.len() - tail.len();
    tail.iter().position(|&x| x == a || x == b).map(|i| at + i)
}

/// `str::trim`, answered without decoding when both ends are visible
/// ASCII — the common case.
fn trim(s: &str) -> &str {
    // ASCII that `char::is_whitespace` does not match.
    let solid = |b: &u8| b.is_ascii() && !matches!(b, b'\t'..=b'\r' | b' ');
    match (s.as_bytes().first(), s.as_bytes().last()) {
        (Some(a), Some(b)) if solid(a) && solid(b) => s,
        _ => s.trim(),
    }
}

/// Where [`JobSpec::write_pairs`] puts the canonical pairs: a `String`
/// (canonical form, wire format) or a key's FNV-1a state. Integers are
/// rendered here, not through `core::fmt`, which costs more than hashing
/// their digits does.
trait Sink {
    fn put(&mut self, s: &str);

    fn put_u64(&mut self, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.put(std::str::from_utf8(&digits[at..]).expect("ascii digits"));
    }

    /// `key` (which ends in `=`), `value`, `sep`.
    fn pair(&mut self, key: &str, value: &str, sep: &str) {
        self.put(key);
        self.put(value);
        self.put(sep);
    }

    /// [`Sink::pair`] of a number.
    fn num(&mut self, key: &str, value: u64, sep: &str) {
        self.put(key);
        self.put_u64(value);
        self.put(sep);
    }

    /// `{v}` of an f64; only a non-zero rate takes the formatter.
    fn put_f64(&mut self, v: f64)
    where
        Self: Sized,
    {
        if v.to_bits() == 0 {
            self.put("0");
        } else {
            let _ = fmt::write(&mut FmtSink(self), format_args!("{v}"));
        }
    }
}

impl Sink for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

/// A [`Sink`] as a formatter target.
struct FmtSink<'a, S>(&'a mut S);

impl<S: Sink> fmt::Write for FmtSink<'_, S> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.put(s);
        Ok(())
    }
}

/// FNV-1a as a [`Sink`], so [`JobSpec::key`] hashes the canonical form as
/// it is written instead of building it first.
struct Fnv(u64);

impl Sink for Fnv {
    fn put(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The FNV-1a state every key starts from: the offset basis fed the code
/// version and a newline.
static KEY_BASIS: LazyLock<u64> = LazyLock::new(|| {
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    fnv.put(crate::code_version());
    fnv.put("\n");
    fnv.0
});

/// A job's DSL front, looked up at most once for everything one call
/// derives from the job (validation and key at admission).
pub(crate) struct Front<'j> {
    job: &'j JobSpec,
    got: OnceCell<Result<Arc<DslFront>, String>>,
}

impl<'j> Front<'j> {
    fn of(job: &'j JobSpec) -> Front<'j> {
        Front {
            job,
            got: OnceCell::new(),
        }
    }

    fn get(&self) -> Result<&DslFront, String> {
        match self.got.get_or_init(|| self.job.dsl_front()) {
            Ok(front) => Ok(front),
            Err(e) => Err(e.clone()),
        }
    }
}

impl JobSpec {
    /// Every field at its default, on machine preset `spec`.
    fn with_spec(spec: &str) -> JobSpec {
        JobSpec {
            workload: Workload::Allreduce,
            spec: spec.to_string(),
            nodes: 2,
            gpus: 1,
            seed: 0,
            elems: 128,
            rounds: 2,
            n: 64,
            iters: 4,
            halo: 1,
            program: String::new(),
            params: Vec::new(),
            algo: None,
            chaos_rate: 0.0,
            chaos_seed: 0,
            fail_device: Vec::new(),
            prof: false,
            priority: Priority::Normal,
            campaign: String::new(),
        }
    }

    /// Parse a job from `key = value` text: exactly one pair per line —
    /// the line is split at its first `=`, so the value is everything
    /// after it — and `#` starts a comment. [`JobSpec::to_file`] is the
    /// rendering this re-parses; the space-joined
    /// [`JobSpec::canonical`] form is not. Unknown keys are errors — a
    /// typo'd knob silently ignored would poison the cache key space.
    /// The first offending line is the one reported.
    pub fn parse(text: &str) -> Result<JobSpec, String> {
        JobSpec::build(text_pairs(text))
    }

    /// Build a job from `(key, value)` pairs. Later pairs override
    /// earlier ones (campaign expansion relies on this).
    pub fn from_pairs<'a>(
        pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<JobSpec, String> {
        JobSpec::build(pairs.into_iter().map(Ok))
    }

    fn build<'a>(
        pairs: impl Iterator<Item = Result<(&'a str, &'a str), String>>,
    ) -> Result<JobSpec, String> {
        // The preset is one of the table's names until the end, so the
        // job's `spec` string is made once.
        let mut job = JobSpec::with_spec("");
        let mut spec = DEFAULT_SPEC;
        for pair in pairs {
            let (k, v) = pair?;
            match k {
                "workload" => job.workload = Workload::parse(v)?,
                "spec" => {
                    spec = match PRESETS.iter().find(|p| p.name == v) {
                        Some(p) => p.name,
                        None => {
                            return Err(format!(
                                "unknown machine preset {v:?} ({})",
                                names(PRESETS.iter().map(|p| p.name))
                            ))
                        }
                    }
                }
                "nodes" => job.nodes = parse_num(k, v)?,
                "gpus" => job.gpus = parse_num(k, v)?,
                "seed" => job.seed = parse_num(k, v)?,
                "elems" => job.elems = parse_num(k, v)?,
                "rounds" => job.rounds = parse_num(k, v)?,
                "n" => job.n = parse_num(k, v)?,
                "iters" => job.iters = parse_num(k, v)?,
                "halo" => job.halo = parse_num(k, v)?,
                "program" => v.clone_into(&mut job.program),
                "params" => {
                    let mut params: Vec<(String, f64)> = Vec::new();
                    for part in v.split(',').filter(|p| !p.trim().is_empty()) {
                        let (name, val) = part
                            .trim()
                            .split_once(':')
                            .ok_or_else(|| format!("params entry {part:?}: want name:value"))?;
                        let val: f64 = parse_num("params", val.trim())?;
                        let name = name.trim().to_string();
                        params.retain(|(n, _)| *n != name);
                        params.push((name, val));
                    }
                    params.sort_by(|a, b| a.0.cmp(&b.0));
                    job.params = params;
                }
                "algo" => {
                    job.algo = match v {
                        "auto" => None,
                        other => Some(CollAlgo::parse(other).ok_or_else(|| {
                            format!("unknown algo {other:?} (auto or a registry entry)")
                        })?),
                    }
                }
                "chaos_rate" => {
                    let r: f64 = parse_num(k, v)?;
                    if !(0.0..=1.0).contains(&r) {
                        return Err(format!("chaos_rate {r} out of [0,1]"));
                    }
                    job.chaos_rate = r;
                }
                "chaos_seed" => job.chaos_seed = parse_num(k, v)?,
                "fail_device" => {
                    let mut devs = Vec::new();
                    for part in v.split(',').filter(|p| !p.trim().is_empty()) {
                        let (n, d) = part
                            .trim()
                            .split_once(':')
                            .ok_or_else(|| format!("fail_device entry {part:?}: want node:dev"))?;
                        devs.push((parse_num("fail_device", n)?, parse_num("fail_device", d)?));
                    }
                    devs.sort_unstable();
                    devs.dedup();
                    job.fail_device = devs;
                }
                "prof" => job.prof = parse_bool(k, v)?,
                "priority" => job.priority = Priority::parse(v)?,
                "campaign" => v.clone_into(&mut job.campaign),
                other => return Err(format!("unknown job field {other:?}")),
            }
        }
        job.spec = spec.to_string();
        job.validate()?;
        Ok(job)
    }

    /// Reject requests the runner cannot execute, with the reason.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_with(&Front::of(self))
    }

    fn validate_with(&self, front: &Front) -> Result<(), String> {
        if self.nodes == 0 || self.gpus == 0 {
            return Err("nodes and gpus must be >= 1".into());
        }
        if let Some(why) = self.preset().and_then(|p| (p.misfit)(self)) {
            return Err(why.into());
        }
        (self.workload.row().validate)(self, front)?;
        for &(n, d) in &self.fail_device {
            if n >= self.nodes || d >= self.gpus {
                return Err(format!("fail_device {n}:{d} outside the machine"));
            }
        }
        Ok(())
    }

    /// [`JobSpec::validate`], then [`JobSpec::key`]: what admission runs on
    /// every submission, a DSL program's front looked up once for both.
    pub(crate) fn admit(&self) -> Result<String, String> {
        let front = Front::of(self);
        self.validate_with(&front)?;
        Ok(self.key_with(&front))
    }

    /// The job's DSL program, compiled: the plan, its normal form and
    /// source hash. Shared with every other job naming the same
    /// `(program, params)` — see [`crate::front`]. The normal form is
    /// what makes `program=jacobi`, the same source inlined, and a
    /// default spelled out via `params=` all land on one cache key —
    /// while any source mutation or effective-parameter change moves it.
    pub fn dsl_front(&self) -> Result<Arc<DslFront>, String> {
        front::dsl_front(&self.program, &self.params)
    }

    /// The job's machine preset; `None` for a `spec` no [`JobSpec::parse`]
    /// would have let through (a struct-literal job).
    pub(crate) fn preset(&self) -> Option<&'static Preset> {
        PRESETS.iter().find(|p| p.name == self.spec)
    }

    /// Tasks the §3.2 mapper will create on this job's machine.
    pub fn task_count(&self) -> usize {
        self.preset()
            .map_or(self.nodes * self.gpus, |p| (p.tasks)(self))
    }

    /// Write the result-affecting fields as `key=value` pairs, `sep`
    /// between pairs: one walk over every key in sorted order, a key
    /// written iff every workload carries it or the job's row reads it.
    /// `src_hash` is derived from `program`; the wire format leaves it out.
    fn write_pairs(&self, out: &mut impl Sink, front: &Front, sep: &str, src_hash: bool) {
        let row = self.workload.row();
        let reads = |field: &str| row.reads.contains(&field);
        if reads("algo") {
            out.pair("algo=", self.algo.map_or("auto", |a| a.label()), sep);
        }
        out.put("chaos_rate=");
        out.put_f64(self.chaos_rate);
        out.put(sep);
        out.num("chaos_seed=", self.chaos_seed, sep);
        if reads("elems") {
            out.num("elems=", self.elems as u64, sep);
        }
        out.put("fail_device=");
        for (i, &(n, d)) in self.fail_device.iter().enumerate() {
            if i > 0 {
                out.put(",");
            }
            out.put_u64(n as u64);
            out.put(":");
            out.put_u64(d as u64);
        }
        out.put(sep);
        out.num("gpus=", self.gpus as u64, sep);
        if reads("halo") {
            out.num("halo=", self.halo as u64, sep);
        }
        if reads("iters") {
            out.num("iters=", self.iters as u64, sep);
        }
        if reads("n") {
            out.num("n=", self.n as u64, sep);
        }
        out.num("nodes=", self.nodes as u64, sep);
        // The program is keyed by its *normal form* (canonical source
        // with params resolved), so spelling variants cannot split the
        // cache. `src_hash` rides along for observability and
        // greppability.
        let front = reads("program").then(|| front.get());
        let invalid;
        let dsl: Option<(&str, &str)> = match &front {
            Some(Ok(f)) => Some((&f.normal_form, &f.src_hash)),
            Some(Err(e)) => {
                invalid = escape_src(&format!("<invalid: {e}>"));
                Some((&invalid, "0000000000000000"))
            }
            None => None,
        };
        if let Some((program, _)) = dsl {
            out.pair("program=", program, sep);
        }
        if reads("rounds") {
            out.num("rounds=", self.rounds.into(), sep);
        }
        out.num("seed=", self.seed, sep);
        out.pair("spec=", &self.spec, sep);
        if let (Some((_, hash)), true) = (dsl, src_hash) {
            out.pair("src_hash=", hash, sep);
        }
        out.put("workload=");
        out.put(row.label);
    }

    /// The result-affecting fields in normal form: key-sorted, defaults
    /// materialized, numbers re-rendered from their parsed values. Fields
    /// that cannot change the result bytes (`prof`, `priority`) are
    /// excluded, as are parameters the selected workload ignores.
    pub fn canonical(&self) -> String {
        let mut out = String::with_capacity(160);
        self.write_pairs(&mut out, &Front::of(self), " ", true);
        out
    }

    /// Content address: FNV-1a over the code version and the canonical
    /// form, avalanched, as 16 hex chars. Equal keys ⇒ bit-identical
    /// results (engine determinism); any result-affecting change —
    /// including a code/schema bump — moves the key.
    pub fn key(&self) -> String {
        self.key_with(&Front::of(self))
    }

    fn key_with(&self, front: &Front) -> String {
        let mut fnv = Fnv(*KEY_BASIS);
        self.write_pairs(&mut fnv, front, " ", true);
        // Finalize (splitmix64) so near-identical canonicals avalanche.
        let mut h = fnv.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        (0..16)
            .rev()
            .map(|nibble| char::from(b"0123456789abcdef"[(h >> (4 * nibble)) as usize & 0xf]))
            .collect()
    }

    /// Render the job as a `key=value` file body that [`JobSpec::parse`]
    /// round-trips exactly — the spool wire format. Unlike
    /// [`JobSpec::canonical`] this keeps the non-result fields (`prof`,
    /// `priority`, `campaign`) a request carries through the daemon.
    pub fn to_file(&self) -> String {
        // `src_hash` is left out (parse would reject it as an unknown
        // knob); `params` are already folded into the canonical program
        // text.
        let mut out = String::with_capacity(192);
        self.write_pairs(&mut out, &Front::of(self), "\n", false);
        if self.prof {
            out.push_str("\nprof=1");
        }
        if self.priority != Priority::Normal {
            out.push_str("\npriority=");
            out.push_str(self.priority.label());
        }
        if !self.campaign.is_empty() {
            out.push_str("\ncampaign=");
            out.push_str(&self.campaign);
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pairs as `str::lines`, `split('#')` and `split_once('=')` see
    /// them: what the single-pass scan must agree with.
    fn reference_pairs(text: &str) -> Vec<Result<(&str, &str), String>> {
        text.lines()
            .filter_map(|raw| {
                let line = raw.split('#').next().unwrap_or("").trim();
                if line.is_empty() {
                    return None;
                }
                Some(match line.split_once('=') {
                    Some((k, v)) => Ok((k.trim(), v.trim())),
                    None => Err(format!("expected key=value, got {line:?}")),
                })
            })
            .collect()
    }

    #[test]
    fn the_single_pass_scan_agrees_with_line_splitting() {
        const ALPHABET: [&str; 10] = ["a", "b", "=", "#", "\n", "\r", " ", "\t", "\u{a0}", "é"];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20_000 {
            let len = (next() % 40) as usize;
            let text: String = (0..len)
                .map(|_| ALPHABET[(next() % ALPHABET.len() as u64) as usize])
                .collect();
            let got: Vec<_> = text_pairs(&text).collect();
            assert_eq!(got, reference_pairs(&text), "{text:?}");
        }
    }

    #[test]
    fn find_either_finds_the_first_of_two_bytes() {
        // Every placement of an `a` and a later `b` (or none) in every
        // length, so each lane of a word and the tail are exercised; the
        // filler bytes sit one away from the needles.
        for len in 0..40 {
            for at in 0..=len {
                for later in at..=len {
                    let mut hay = vec![b'"'; len];
                    if at < len {
                        hay[at] = b'#';
                    }
                    if later < len {
                        hay[later] = b'\n';
                    }
                    let want = hay.iter().position(|&x| x == b'#' || x == b'\n');
                    assert_eq!(find_either(&hay, b'#', b'\n'), want, "{hay:?}");
                    assert_eq!(find_either(&hay, b'\n', b'#'), want, "{hay:?}");
                }
            }
        }
    }

    #[test]
    fn to_file_round_trips_through_parse() {
        let job = JobSpec::parse(
            "workload=exchange\nnodes=2\ngpus=1\nrounds=3\nchaos_rate=0.05\nchaos_seed=9\nprof=1\npriority=low",
        )
        .unwrap();
        let back = JobSpec::parse(&job.to_file()).unwrap();
        assert_eq!(job.key(), back.key());
        assert_eq!(job.canonical(), back.canonical());
        assert!(back.prof);
        assert_eq!(back.priority, Priority::Low);
    }

    #[test]
    fn boolean_knobs_reject_anything_but_0_1_true_false() {
        let err = JobSpec::parse("workload=allreduce\nprof=yes").unwrap_err();
        assert!(
            err.contains("prof") && err.contains("\"yes\""),
            "got: {err}"
        );
        // The word spellings parse, and the wire format writes 1/0.
        let job = JobSpec::parse("workload=allreduce\nprof=true").unwrap();
        assert!(job.prof);
        let body = job.to_file();
        assert!(body.contains("\nprof=1\n"), "{body}");
        assert!(JobSpec::parse(&body).unwrap().prof);
        assert!(!JobSpec::parse("workload=allreduce\nprof=0").unwrap().prof);
        // The retired engine knob is an unknown field like any other.
        let err = JobSpec::parse("workload=allreduce\nelide=0").unwrap_err();
        assert!(err.contains("unknown job field \"elide\""), "got: {err}");
    }

    #[test]
    fn a_line_holds_one_pair() {
        // The line splits at its first `=`; the rest is the value.
        let err = JobSpec::parse("workload=allreduce elems=32").unwrap_err();
        assert!(
            err.starts_with("unknown workload \"allreduce elems=32\""),
            "got: {err}"
        );
        // So the space-joined canonical form is not a job file; to_file is.
        let job = JobSpec::parse("workload=allreduce\nelems=32").unwrap();
        assert!(JobSpec::parse(&job.canonical()).is_err());
        assert_eq!(JobSpec::parse(&job.to_file()).unwrap(), job);
        // The first offending line is the one reported.
        let err = JobSpec::parse("workload=allreduce\nno pair here\nelems=x").unwrap_err();
        assert!(err.contains("expected key=value"), "got: {err}");
        let err = JobSpec::parse("workload=allreduce\nelems=x\nno pair here").unwrap_err();
        assert!(err.contains("field elems"), "got: {err}");
    }

    #[test]
    fn parse_normalizes_spellings() {
        let a = JobSpec::parse("workload = allreduce\nelems = 128\nseed = 7\n").unwrap();
        let b = JobSpec::parse("seed=0007\n  elems =  0128  # padded\nworkload=allreduce").unwrap();
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn defaults_are_materialized() {
        let implicit = JobSpec::parse("workload = allreduce").unwrap();
        let explicit =
            JobSpec::parse("workload=allreduce\nelems=128\nrounds=2\nseed=0\nalgo=auto").unwrap();
        assert_eq!(implicit.canonical(), explicit.canonical());
    }

    #[test]
    fn irrelevant_and_excluded_fields_do_not_move_the_key() {
        // Jacobi ignores elems/algo; prof/priority are observability only.
        let a = JobSpec::parse("workload=jacobi\nn=64\nelems=128").unwrap();
        let b = JobSpec::parse("workload=jacobi\nn=64\nelems=4096\nprof=1\npriority=high").unwrap();
        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn campaign_tag_round_trips_but_does_not_move_the_key() {
        let tagged = JobSpec::parse("workload=allreduce\ncampaign=coll_sweep").unwrap();
        let bare = JobSpec::parse("workload=allreduce").unwrap();
        assert_eq!(tagged.key(), bare.key(), "campaign is observability only");
        let back = JobSpec::parse(&tagged.to_file()).unwrap();
        assert_eq!(back.campaign, "coll_sweep");
        assert!(!bare.to_file().contains("campaign"));
    }

    #[test]
    fn halo_moves_the_key_only_where_it_matters() {
        let h1 = JobSpec::parse("workload=stencil2d\nn=32\nhalo=1").unwrap();
        let h2 = JobSpec::parse("workload=stencil2d\nn=32\nhalo=2").unwrap();
        assert_ne!(h1.key(), h2.key(), "stencil2d halo is result-affecting");
        // Redblack always exchanges depth 1 — halo is an ignored knob.
        let r1 = JobSpec::parse("workload=redblack\nn=32\nhalo=1").unwrap();
        let r2 = JobSpec::parse("workload=redblack\nn=32\nhalo=2").unwrap();
        assert_eq!(r1.key(), r2.key());
    }

    #[test]
    fn array_workloads_validate_their_decomposition() {
        // halo 8 exceeds the smallest block of n=16 over 4 ranks (4 rows).
        assert!(JobSpec::parse("workload=stencil2d\nnodes=2\ngpus=2\nn=16\nhalo=8").is_err());
        assert!(JobSpec::parse("workload=stencil2d\nn=16\nhalo=0").is_err());
        assert!(JobSpec::parse("workload=stencil3d\nn=2").is_err());
        assert!(JobSpec::parse("workload=stencil2d\nnodes=2\ngpus=2\nn=16\nhalo=4").is_ok());
    }

    #[test]
    fn unknown_fields_and_bad_values_are_rejected() {
        assert!(JobSpec::parse("wrokload=allreduce").is_err());
        assert!(JobSpec::parse("workload=frobnicate").is_err());
        assert!(JobSpec::parse("workload=allreduce\nchaos_rate=1.5").is_err());
        assert!(JobSpec::parse("workload=exchange\ngpus=4").is_err());
        assert!(JobSpec::parse("workload=allreduce\nfail_device=9:9").is_err());
    }

    #[test]
    fn dsl_named_and_inline_programs_share_a_key() {
        let named = JobSpec::parse("workload=dsl\nprogram=jacobi\ngpus=2").unwrap();
        let inline = JobSpec::from_pairs([
            ("workload", "dsl"),
            ("gpus", "2"),
            (
                "program",
                &escape_src(impacc_dsl::example("jacobi").unwrap()),
            ),
        ])
        .unwrap();
        assert_eq!(
            named.key(),
            inline.key(),
            "the key addresses the program's normal form, not its spelling"
        );
        // Spelling a default out via params= does not move the key either.
        let spelled =
            JobSpec::parse("workload=dsl\nprogram=jacobi\ngpus=2\nparams=n:64,iters:4").unwrap();
        assert_eq!(named.key(), spelled.key());
    }

    #[test]
    fn dsl_source_mutation_is_a_cache_miss() {
        let base = JobSpec::parse("workload=dsl\nprogram=dot\ngpus=2").unwrap();
        // Change one constant in the kernel body: y's init 2.0 -> 3.0.
        let src = impacc_dsl::example("dot")
            .unwrap()
            .replace("init(2.0)", "init(3.0)");
        let mutated = JobSpec::from_pairs([
            ("workload", "dsl"),
            ("gpus", "2"),
            ("program", &escape_src(&src)),
        ])
        .unwrap();
        assert_ne!(base.key(), mutated.key(), "mutated source must miss");
        // An *effective* param override moves the key too.
        let smaller = JobSpec::parse("workload=dsl\nprogram=dot\ngpus=2\nparams=n:1024").unwrap();
        assert_ne!(base.key(), smaller.key());
        assert!(smaller.canonical().contains("src_hash="));
    }

    #[test]
    fn dsl_jobs_round_trip_through_to_file() {
        let job = JobSpec::parse(
            "workload=dsl\nprogram=stencil2d\nnodes=2\ngpus=2\nparams=h:3\npriority=low",
        )
        .unwrap();
        let body = job.to_file();
        assert!(
            !body.contains("src_hash="),
            "derived fields must not reach the spool wire format"
        );
        let back = JobSpec::parse(&body).unwrap();
        assert_eq!(job.key(), back.key());
        assert_eq!(back.priority, Priority::Low);
    }

    #[test]
    fn dsl_jobs_validate_their_program_and_launch() {
        // No program at all.
        assert!(JobSpec::parse("workload=dsl").is_err());
        // Source that does not compile.
        let bad = escape_src("param n = 4;\nvar x = frob(n);\n");
        assert!(JobSpec::from_pairs([("workload", "dsl"), ("program", bad.as_str())]).is_err());
        // Compiles, but the inferred depth-2 halo exceeds the smallest
        // row block of a 6-row mesh split 4 ways (2,2,1,1).
        let err = JobSpec::parse("workload=dsl\nprogram=stencil2d\nnodes=2\ngpus=2\nparams=n:6")
            .unwrap_err();
        assert!(err.contains("cannot launch"), "got: {err}");
    }

    #[test]
    fn src_escaping_round_trips() {
        let src = "param n = 4; # comment\narray a[n];\n\tvar x \\ = 0.0;\n";
        assert_eq!(unescape_src(&escape_src(src)), src);
        let esc = escape_src(src);
        assert!(!esc.contains(' ') && !esc.contains('\n') && !esc.contains('#'));
    }

    #[test]
    fn fail_device_list_is_order_insensitive() {
        let a = JobSpec::parse("workload=allreduce\nnodes=2\ngpus=3\nfail_device=0:1,1:2").unwrap();
        let b =
            JobSpec::parse("workload=allreduce\nnodes=2\ngpus=3\nfail_device=1:2,0:1,0:1").unwrap();
        assert_eq!(a.key(), b.key());
    }

    /// The table is the only place a workload is described, so hold every
    /// row to what the rest of the crate reads off it.
    #[test]
    fn every_row_is_consistent_with_parse_key_and_wire_format() {
        const COMMON: [&str; 8] = [
            "chaos_rate",
            "chaos_seed",
            "fail_device",
            "gpus",
            "nodes",
            "seed",
            "spec",
            "workload",
        ];
        // Every field some row may read, with a non-default value.
        const OPTIONAL: [(&str, &str); 7] = [
            ("algo", "ring"),
            ("elems", "7"),
            ("halo", "3"),
            ("iters", "9"),
            ("n", "40"),
            ("program", "dot"),
            ("rounds", "5"),
        ];
        for row in &WORKLOADS {
            let label = row.label;
            assert_eq!(Workload::parse(label), Ok(row.workload));
            assert_eq!(row.workload.label(), label);
            for field in row.reads {
                assert!(
                    OPTIONAL.iter().any(|(f, _)| f == field),
                    "{label}: reads unknown field {field}"
                );
            }

            let text = if row.reads.contains(&"program") {
                format!("workload={label}\nprogram=jacobi")
            } else {
                format!("workload={label}")
            };
            let job = JobSpec::parse(&text).unwrap_or_else(|e| panic!("{label}: {e}"));

            // canonical() names the common keys plus the row's set
            // (`src_hash` rides along with `program`), sorted.
            let canonical = job.canonical();
            let named: Vec<&str> = canonical
                .split(' ')
                .map(|pair| pair.split_once('=').expect("key=value").0)
                .collect();
            let mut want: Vec<&str> = COMMON.iter().chain(row.reads).copied().collect();
            if row.reads.contains(&"program") {
                want.push("src_hash");
            }
            want.sort_unstable();
            assert_eq!(named, want, "{label}: canonical keys");

            // A field moves the key iff the row reads it.
            for (field, value) in OPTIONAL {
                let varied = JobSpec::parse(&format!("{text}\n{field}={value}"))
                    .unwrap_or_else(|e| panic!("{label} {field}={value}: {e}"));
                assert_eq!(
                    varied.key() != job.key(),
                    row.reads.contains(&field),
                    "{label}: {field}={value}"
                );
            }

            let back = JobSpec::parse(&job.to_file()).unwrap();
            assert_eq!(back.key(), job.key(), "{label}: wire round trip");
            assert_eq!(back.canonical(), canonical, "{label}: wire round trip");
        }
    }
}
