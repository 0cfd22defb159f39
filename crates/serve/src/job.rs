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

use std::fmt::{self, Write as _};
use std::sync::Arc;

use impacc_apps::{allreduce_rounds, exchange, jacobi_task, JacobiParams};
use impacc_array::{max_halo, scenarios, CartGrid};
use impacc_core::{CollAlgo, TaskCtx};
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

/// The program one rank of a job runs.
pub(crate) type RankBody = Box<dyn Fn(&TaskCtx) + Send + Sync>;

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
    /// The workload's own admission rule.
    validate: fn(&JobSpec) -> Result<(), String>,
    /// Build the rank body, before launch and off the simulated ranks:
    /// a DSL compile error is the job's error, not a panic inside one.
    pub(crate) body: fn(&JobSpec) -> Result<RankBody, String>,
}

pub(crate) static WORKLOADS: [WorkloadRow; 7] = [
    WorkloadRow {
        workload: Workload::Allreduce,
        label: "allreduce",
        reads: &["algo", "elems", "rounds"],
        validate: |_| Ok(()),
        body: |j| {
            let (elems, rounds, seed) = (j.elems, j.rounds, j.seed);
            Ok(Box::new(move |tc| {
                allreduce_rounds(tc, elems, rounds, seed)
            }))
        },
    },
    WorkloadRow {
        workload: Workload::Exchange,
        label: "exchange",
        reads: &["rounds"],
        validate: |j| match j.task_count() {
            2 => Ok(()),
            n => Err(format!("exchange needs exactly 2 tasks, spec hosts {n}")),
        },
        body: |j| {
            let (rounds, seed) = (j.rounds, j.seed);
            // 32 KiB per buffer.
            Ok(Box::new(move |tc| exchange(tc, 1 << 12, rounds, seed)))
        },
    },
    WorkloadRow {
        workload: Workload::Jacobi,
        label: "jacobi",
        reads: &["iters", "n"],
        validate: |j| {
            if j.n < 8 || !j.n.is_multiple_of(2) {
                return Err("jacobi mesh n must be even and >= 8".into());
            }
            Ok(())
        },
        body: |j| {
            let p = JacobiParams {
                n: j.n,
                iters: j.iters,
                verify: false,
            };
            Ok(Box::new(move |tc| jacobi_task(tc, &p)))
        },
    },
    WorkloadRow {
        workload: Workload::Stencil3d,
        label: "stencil3d",
        reads: &["iters", "n"],
        validate: |j| {
            if j.n < 4 {
                return Err("stencil3d cube n must be >= 4".into());
            }
            let tasks = j.task_count();
            if max_halo(&[j.n, j.n, j.n], &CartGrid::new(tasks, 2)) < 1 {
                return Err(format!(
                    "stencil3d n={} too small for a {tasks} rank grid",
                    j.n
                ));
            }
            Ok(())
        },
        body: |j| {
            let p = scenarios::Stencil3dParams {
                n: j.n,
                iters: j.iters,
                verify: false,
            };
            Ok(Box::new(move |tc| scenarios::stencil3d_task(tc, &p, None)))
        },
    },
    WorkloadRow {
        workload: Workload::Stencil2d,
        label: "stencil2d",
        reads: &["halo", "iters", "n"],
        validate: |j| {
            if j.halo == 0 {
                return Err("stencil2d halo must be >= 1".into());
            }
            line_mesh_fits(j, j.halo)
        },
        body: |j| {
            let p = scenarios::Stencil2dParams {
                n: j.n,
                iters: j.iters,
                halo: j.halo,
                verify: false,
            };
            Ok(Box::new(move |tc| scenarios::stencil2d_task(tc, &p, None)))
        },
    },
    WorkloadRow {
        workload: Workload::Redblack,
        label: "redblack",
        reads: &["iters", "n"],
        validate: |j| line_mesh_fits(j, 1),
        body: |j| {
            let p = scenarios::RedBlackParams {
                n: j.n,
                iters: j.iters,
                verify: false,
            };
            Ok(Box::new(move |tc| scenarios::redblack_task(tc, &p, None)))
        },
    },
    WorkloadRow {
        workload: Workload::Dsl,
        label: "dsl",
        reads: &["program"],
        validate: |j| {
            if j.program.is_empty() {
                return Err("dsl workload needs program=<example|inline source>".into());
            }
            impacc_dsl::validate_launch(&j.dsl_front()?.compiled, j.task_count())
                .map_err(|e| format!("dsl program cannot launch: {e}"))
        },
        body: |j| {
            let c = j.dsl_front()?.compiled.clone();
            Ok(Box::new(move |tc| {
                impacc_dsl::run_program(tc, &c, None, false);
            }))
        },
    },
];

/// The `n×n` mesh split into row blocks, one per task, leaves every
/// block at least `halo` rows to exchange.
fn line_mesh_fits(j: &JobSpec, halo: usize) -> Result<(), String> {
    if j.n <= 2 * halo {
        return Err(format!("mesh n={} must exceed 2*halo={}", j.n, 2 * halo));
    }
    let tasks = j.task_count();
    if max_halo(&[j.n, j.n], &CartGrid::line(tasks)) < halo {
        return Err(format!(
            "halo {halo} exceeds the smallest block of n={} over {tasks} ranks",
            j.n
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
    /// Tasks the §3.2 mapper will create on it.
    tasks: fn(&JobSpec) -> usize,
    /// Why the job's `nodes`/`gpus` do not fit it, if they do not.
    misfit: fn(&JobSpec) -> Option<&'static str>,
    pub(crate) build: fn(&JobSpec) -> MachineSpec,
}

static PRESETS: [Preset; 3] = [
    Preset {
        name: "test_cluster",
        tasks: |j| j.nodes * j.gpus,
        misfit: |_| None,
        build: |j| presets::test_cluster(j.nodes, j.gpus),
    },
    Preset {
        name: "psg",
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
        JobSpec {
            workload: Workload::Allreduce,
            spec: "test_cluster".into(),
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
}

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
/// and blank lines skipped; a line without `=` is an error.
fn text_pairs(text: &str) -> impl Iterator<Item = Result<(&str, &str), String>> {
    text.lines().filter_map(|raw| {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            return None;
        }
        Some(match line.split_once('=') {
            Some((k, v)) => Ok((k.trim(), v.trim())),
            None => Err(format!("expected key=value, got {line:?}")),
        })
    })
}

/// FNV-1a as a [`fmt::Write`] sink, so [`JobSpec::key`] hashes the
/// canonical form as it is written instead of building it first.
struct Fnv(u64);

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

impl JobSpec {
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
        let mut job = JobSpec::default();
        for pair in pairs {
            let (k, v) = pair?;
            match k {
                "workload" => job.workload = Workload::parse(v)?,
                "spec" => {
                    if !PRESETS.iter().any(|p| p.name == v) {
                        return Err(format!(
                            "unknown machine preset {v:?} ({})",
                            names(PRESETS.iter().map(|p| p.name))
                        ));
                    }
                    job.spec = v.to_string();
                }
                "nodes" => job.nodes = parse_num(k, v)?,
                "gpus" => job.gpus = parse_num(k, v)?,
                "seed" => job.seed = parse_num(k, v)?,
                "elems" => job.elems = parse_num(k, v)?,
                "rounds" => job.rounds = parse_num(k, v)?,
                "n" => job.n = parse_num(k, v)?,
                "iters" => job.iters = parse_num(k, v)?,
                "halo" => job.halo = parse_num(k, v)?,
                "program" => job.program = v.to_string(),
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
                "campaign" => job.campaign = v.to_string(),
                other => return Err(format!("unknown job field {other:?}")),
            }
        }
        job.validate()?;
        Ok(job)
    }

    /// Reject requests the runner cannot execute, with the reason.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 || self.gpus == 0 {
            return Err("nodes and gpus must be >= 1".into());
        }
        if let Some(why) = self.preset().and_then(|p| (p.misfit)(self)) {
            return Err(why.into());
        }
        (self.workload.row().validate)(self)?;
        for &(n, d) in &self.fail_device {
            if n >= self.nodes || d >= self.gpus {
                return Err(format!("fail_device {n}:{d} outside the machine"));
            }
        }
        Ok(())
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
    fn write_pairs(&self, out: &mut impl fmt::Write, sep: char, src_hash: bool) -> fmt::Result {
        let row = self.workload.row();
        let reads = |field: &str| row.reads.contains(&field);
        if reads("algo") {
            write!(out, "algo={}{sep}", self.algo.map_or("auto", |a| a.label()))?;
        }
        write!(
            out,
            "chaos_rate={}{sep}chaos_seed={}{sep}",
            self.chaos_rate, self.chaos_seed
        )?;
        if reads("elems") {
            write!(out, "elems={}{sep}", self.elems)?;
        }
        out.write_str("fail_device=")?;
        for (i, (n, d)) in self.fail_device.iter().enumerate() {
            write!(out, "{}{n}:{d}", if i > 0 { "," } else { "" })?;
        }
        write!(out, "{sep}gpus={}{sep}", self.gpus)?;
        if reads("halo") {
            write!(out, "halo={}{sep}", self.halo)?;
        }
        if reads("iters") {
            write!(out, "iters={}{sep}", self.iters)?;
        }
        if reads("n") {
            write!(out, "n={}{sep}", self.n)?;
        }
        write!(out, "nodes={}{sep}", self.nodes)?;
        // The program is keyed by its *normal form* (canonical source
        // with params resolved), so spelling variants cannot split the
        // cache. `src_hash` rides along for observability and
        // greppability.
        let front = reads("program").then(|| self.dsl_front());
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
            write!(out, "program={program}{sep}")?;
        }
        if reads("rounds") {
            write!(out, "rounds={}{sep}", self.rounds)?;
        }
        write!(out, "seed={}{sep}spec={}{sep}", self.seed, self.spec)?;
        if let (Some((_, hash)), true) = (dsl, src_hash) {
            write!(out, "src_hash={hash}{sep}")?;
        }
        write!(out, "workload={}", row.label)
    }

    /// The result-affecting fields in normal form: key-sorted, defaults
    /// materialized, numbers re-rendered from their parsed values. Fields
    /// that cannot change the result bytes (`prof`, `priority`) are
    /// excluded, as are parameters the selected workload ignores.
    pub fn canonical(&self) -> String {
        let mut out = String::with_capacity(160);
        let _ = self.write_pairs(&mut out, ' ', true);
        out
    }

    /// Content address: FNV-1a over the code version and the canonical
    /// form, avalanched, as 16 hex chars. Equal keys ⇒ bit-identical
    /// results (engine determinism); any result-affecting change —
    /// including a code/schema bump — moves the key.
    pub fn key(&self) -> String {
        let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
        let _ = fnv.write_str(crate::code_version());
        let _ = fnv.write_str("\n");
        let _ = self.write_pairs(&mut fnv, ' ', true);
        // Finalize (splitmix64) so near-identical canonicals avalanche.
        let mut h = fnv.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        format!("{h:016x}")
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
        let _ = self.write_pairs(&mut out, '\n', false);
        if self.prof {
            out.push_str("\nprof=1");
        }
        if self.priority != Priority::Normal {
            let _ = write!(out, "\npriority={}", self.priority.label());
        }
        if !self.campaign.is_empty() {
            let _ = write!(out, "\ncampaign={}", self.campaign);
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
