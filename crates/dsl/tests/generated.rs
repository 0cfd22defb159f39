//! Generated programs: the row-at-a-time executor against the per-cell
//! serial interpreter. Each case is a random 2-d program — a reducing
//! stencil whose body holds every lowered expression kind (literals, the
//! `i`/`j` coordinates, reads at offsets within the halo, unary, binary
//! including comparisons, a ternary and a builtin call), then a map and a
//! `reduction(max:…)` loop — run in all three runtime modes at engine
//! parallelism 1 and 2. Residuals, every host scalar and every gathered
//! field must match `interpret_serial` bit for bit.
//!
//! The body is clamped to `[-4, 4]` and divides only by non-zero
//! literals, so values stay finite and NaN-free; the reduced term adds
//! 8, so no maximum is a signed zero whose bits depend on fold order.

use std::collections::BTreeMap;
use std::sync::Arc;

use impacc_array::ResProbe;
use impacc_core::{Launch, RuntimeOptions};
use impacc_dsl::{compile, interpret_serial, run_program, Compiled, RunOut};
use impacc_machine::presets;
use parking_lot::Mutex;
use proptest::prelude::*;

/// A splitmix64 stream: the program generator's randomness.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len() as u64) as usize]
    }

    /// A literal in `[-2, 2]` on a 1/8 grid, never zero.
    fn lit(&mut self) -> String {
        let k = self.below(32) as i64 - 16;
        let k = if k >= 0 { k + 1 } else { k };
        format!("{:?}", k as f64 / 8.0)
    }
}

/// What the generated stencil may read: `u` at row offsets within
/// `±ri` and column offsets within `±rj`, diagonals included. On a 2-d
/// grid a diagonal read makes the compiler exchange corner ghosts too.
struct Reach {
    ri: i64,
    rj: i64,
}

fn sub(var: &str, o: i64) -> String {
    match o {
        0 => var.to_string(),
        o if o > 0 => format!("{var} + {o}"),
        o => format!("{var} - {}", -o),
    }
}

fn read(g: &mut Gen, r: &Reach) -> String {
    let a = g.below(2 * r.ri as u64 + 1) as i64 - r.ri;
    let b = g.below(2 * r.rj as u64 + 1) as i64 - r.rj;
    format!("u[{}][{}]", sub("i", a), sub("j", b))
}

/// A leaf: a literal, a scaled coordinate or (with `reach`) a read.
fn leaf(g: &mut Gen, reach: Option<&Reach>) -> String {
    match (g.below(4), reach) {
        (0, _) => g.lit(),
        (1, _) => format!("({} * 0.125)", g.pick(&["i", "j"])),
        (_, Some(r)) => read(g, r),
        (_, None) => "u[i][j]".to_string(),
    }
}

/// A random expression tree of at most `depth` levels over the leaves.
fn expr(g: &mut Gen, depth: u32, reach: Option<&Reach>) -> String {
    if depth == 0 || g.below(4) == 0 {
        return leaf(g, reach);
    }
    let e = |g: &mut Gen| expr(g, depth - 1, reach);
    match g.below(8) {
        0 => format!("(-{})", e(g)),
        1 => format!("(!{})", e(g)),
        2 => {
            let op = g.pick(&["+", "-", "*"]);
            format!("({} {op} {})", e(g), e(g))
        }
        3 => {
            let op = g.pick(&["<", "<=", ">", ">=", "==", "!=", "&&", "||"]);
            format!("({} {op} {})", e(g), e(g))
        }
        4 => format!("({} / {})", e(g), g.lit()),
        5 => format!("({} ? {} : {})", e(g), e(g), e(g)),
        6 => {
            let f = g.pick(&["min", "max"]);
            format!("{f}({}, {})", e(g), e(g))
        }
        _ => {
            let f = g.pick(&["abs", "sqrt"]);
            format!("{f}(abs({}))", e(g))
        }
    }
}

/// `min(max(e, -4), 4)`: keeps every value finite across sweeps.
fn clamp(e: String) -> String {
    format!("min(max({e}, -4.0), 4.0)")
}

/// One generated program and the nodes (of two GPUs each) it runs on.
struct Case {
    src: String,
    nodes: usize,
}

fn case(seed: u64) -> Case {
    let mut g = Gen(seed);
    let n = 8 + g.below(17);
    let iters = 1 + g.below(3);
    let grid = 1 + g.below(2);
    let reach = Reach {
        ri: 1 + g.below(2) as i64,
        rj: 1 + g.below(2) as i64,
    };
    let (ilo, ihi) = (g.below(2), g.below(2));
    let e = |g: &mut Gen| expr(g, 3, Some(&reach));
    // Every node kind at least once, around random subtrees.
    let body = clamp(format!(
        "0.5 * {} + (({} {} {}) ? {} : {}) * 0.25 + (-{}) * 0.125 \
         + (!({} > {})) * {} + (i - j) * {} + {}({}, {}) + {}",
        read(&mut g, &reach),
        read(&mut g, &reach),
        g.pick(&["<", "<=", ">", ">=", "==", "!="]),
        g.lit(),
        e(&mut g),
        e(&mut g),
        e(&mut g),
        g.pick(&["i", "j"]),
        g.pick(&["i", "j"]),
        g.lit(),
        g.lit(),
        g.pick(&["min", "max"]),
        e(&mut g),
        read(&mut g, &reach),
        e(&mut g),
    ));
    let init = |g: &mut Gen| clamp(expr(g, 3, None).replace("u[i][j]", "(i * j * 0.0625)"));
    let (init_u, init_v) = (init(&mut g), init(&mut g));
    let map = clamp(format!("{} + u[i][j] * {}", expr(&mut g, 2, None), g.lit()));
    let term = format!(
        "{} + 8.0",
        clamp(format!("{} + u[i][j] * {}", expr(&mut g, 2, None), g.lit()))
    );
    let src = format!(
        "param n = {n};
param iters = {iters};
array u[n][n] grid({grid}) init({init_u});
array v[n][n] grid({grid}) init({init_v});
var res = 0.0;
var m = 0.0;
for (it = 0; it < iters; ++it) {{
  #pragma acc parallel loop copy(u, v) reduction(max:res)
  for (i = {ilo}; i < n - {ihi}; ++i) {{
    for (j = {rj}; j < n - {rj}; ++j) {{
      v[i][j] = {body};
    }}
  }}
  swap(u, v);
}}
#pragma acc parallel loop copy(u)
for (i = 0; i < n; ++i) {{
  for (j = 0; j < n; ++j) {{
    u[i][j] = {map};
  }}
}}
#pragma acc parallel loop copyin(u) reduction(max:m)
for (i = 0; i < n; ++i) {{
  for (j = 0; j < n; ++j) {{
    m += {term};
  }}
}}
",
        rj = reach.rj,
    );
    Case {
        src,
        nodes: 1 + g.below(2) as usize,
    }
}

fn modes() -> Vec<(&'static str, RuntimeOptions)> {
    let mut split = RuntimeOptions::impacc();
    split.unified_queue = false;
    vec![
        ("impacc-unified", RuntimeOptions::impacc()),
        ("impacc-split", split),
        ("baseline", RuntimeOptions::baseline()),
    ]
}

/// Every observable of a run, as bits: the residual history, the host
/// scalars and the gathered fields.
type Bits = (Vec<u64>, BTreeMap<String, u64>, BTreeMap<String, Vec<u64>>);

fn as_bits(
    residuals: &[f64],
    scalars: &BTreeMap<String, f64>,
    fields: &BTreeMap<String, Vec<f64>>,
) -> Bits {
    let scalars = scalars.iter().map(|(k, v)| (k.clone(), v.to_bits()));
    let fields = fields.iter().map(|(k, v)| (k.clone(), bits(v)));
    (bits(residuals), scalars.collect(), fields.collect())
}

/// What the serial interpreter computes for `c`.
fn interpreted(c: &Compiled) -> Bits {
    let want = interpret_serial(c).expect("serial run");
    as_bits(&want.residuals, &want.scalars, &want.fields)
}

/// Run `c` with the executor; rank 0's observables.
fn execute(c: &Arc<Compiled>, nodes: usize, opts: RuntimeOptions, parallelism: usize) -> Bits {
    let probe = ResProbe::new();
    let out: Arc<Mutex<Option<RunOut>>> = Arc::default();
    let (c, p, slot) = (c.clone(), probe.clone(), out.clone());
    Launch::new(presets::test_cluster(nodes, 2), opts)
        .parallelism(parallelism)
        .run_async(move |tc| {
            let (c, p, slot) = (c.clone(), p.clone(), slot.clone());
            async move {
                let got = run_program(&tc, &c, Some(&p), true).await;
                if tc.rank() == 0 {
                    *slot.lock() = Some(got);
                }
            }
        })
        .expect("generated program runs");
    let got = out.lock().take().expect("rank 0 reports");
    as_bits(&probe.take(), &got.scalars, &got.fields)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    fn exec_matches_interp_on_generated_stencils(seed in any::<u64>()) {
        let case = case(seed);
        let c = Arc::new(compile(&case.src).unwrap_or_else(|e| panic!("{e}\n{}", case.src)));
        let want = interpreted(&c);
        for (mode, opts) in modes() {
            for parallelism in [1, 2] {
                let got = execute(&c, case.nodes, opts, parallelism);
                prop_assert_eq!(got, want.clone(), "{} p={}\n{}", mode, parallelism, case.src);
            }
        }
    }
}

/// Two array groups of different row counts on more ranks than the
/// short group has rows, with a non-reducing stencil on the tall group
/// issued before a reducing one on the short group. Under the unified
/// queue the first kernel is still queued when the second stencil runs
/// on a rank whose short tile is empty; the reduced residual must still
/// be the short group's alone.
#[test]
fn a_queued_stencil_does_not_leak_into_a_later_reduction() {
    let src = "param n = 64;
array a[n][n] init(i * 0.5);
array an[n][n] init(0.0);
array b[4][n] init(j * 0.01);
array bn[4][n] init(0.0);
var r = 0.0;
#pragma acc parallel loop copy(a, an)
for (i = 1; i < n - 1; ++i) {
  for (j = 1; j < n - 1; ++j) { an[i][j] = 100.0 + a[i - 1][j] + a[i + 1][j]; }
}
#pragma acc parallel loop copy(b, bn) reduction(max:r)
for (i = 1; i < 3; ++i) {
  for (j = 1; j < n - 1; ++j) { bn[i][j] = 0.5 * (b[i][j - 1] + b[i][j + 1]); }
}
";
    let c = Arc::new(compile(src).unwrap_or_else(|e| panic!("{e}")));
    let want = interpreted(&c);
    assert!(
        f64::from_bits(want.1["r"]) < 1.0,
        "the short group's residual is small"
    );
    for (mode, opts) in modes() {
        assert_eq!(execute(&c, 4, opts, 1), want, "{mode}");
    }
}
