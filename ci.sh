#!/usr/bin/env bash
# The full gate: release build, the workspace tests on four scheduler
# workers (tier-1 `cargo test -q` is the one-worker pass), formatting, lints,
# the benchmark package's self-check, and the checks no in-process test
# covers. Every verdict here is the same on a busy host and a quiet one:
# wall-clock claims go through `impacc-benchmark compare` over alternating
# pairs (benchmark/README.md), never through this script. Run before
# sending a PR; CI runs exactly this.
set -euo pipefail
cd "$(dirname "$0")"

# campaign_gate <label> <campaign> [<front-misses>]: drive a shipped
# campaign through the spool daemon twice. Every sweep point must execute,
# and the second drain must be answered entirely by the content-addressed
# cache: 'executed 0' or the serving layer broke its core contract. With
# <front-misses>, each pass must also report that many DSL compiles.
SPOOL=target/ci-spool
serve_bin=target/release/serve
campaign_gate() {
    local label=$1 file=$2 misses=${3:-} first second
    "$serve_bin" campaign --spool "$SPOOL" "$file"
    first=$("$serve_bin" daemon --spool "$SPOOL" --workers 4 --drain)
    echo "$first"
    "$serve_bin" campaign --spool "$SPOOL" "$file"
    second=$("$serve_bin" daemon --spool "$SPOOL" --workers 4 --drain)
    echo "$second"
    if ! grep -q "executed 0," <<<"$second"; then
        echo "$label: FAIL — resubmitted campaign re-executed jobs"
        exit 1
    fi
    if [[ -n "$misses" ]] && ! { grep -q "front_misses $misses," <<<"$first" \
            && grep -q "front_misses $misses," <<<"$second"; }; then
        echo "$label: FAIL — a pass must compile the campaign's $misses distinct programs once each"
        exit 1
    fi
    echo "$label: ok"
}

echo "==> one rank form: no thread-rank facade outside its home"
# A rank body is a future (`Launch::run_async` + `Rank`). The thread-rank
# facade (the synchronous `Launch::run` + `TaskCtx`) is kept for the frozen
# benchmark package alone: only its definition and the test that pins it
# to the handler schedule (crates/core/tests/runtime.rs) may name it.
fork=$(grep -rnE --include='*.rs' 'TaskCtx|Launch::run\b|\.run\((move\s+)?\|' \
        crates src examples tests \
    | grep -vE '^crates/core/(src/(task|launch|lib)|tests/runtime)\.rs:' || true)
if [[ -n "$fork" ]]; then
    echo "$fork"
    echo "rank form gate: FAIL — write rank bodies against Rank and launch them with run_async"
    exit 1
fi

echo "==> one actor form: the engine starts and parks no thread"
# Every actor is a handler that the thread calling Sim::run activates; a
# blocking body runs on a stack of its own (crates/vtime/src/stack.rs, the
# crate's one module of unsafe code), never on an OS thread. Outside its
# tests the engine may only ask whether the thread is unwinding.
vtime_src=$(for f in crates/vtime/src/*.rs; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { print f ":" FNR ":" $0 }' "$f"
    done)
threads=$(grep -P 'std::thread(?!::panicking\(\))|thread::Builder|thread::park|unpark' <<<"$vtime_src" || true)
unsafe_code=$(grep -E '\bunsafe\b' <<<"$vtime_src" | grep -v '^crates/vtime/src/stack\.rs:' || true)
if [[ -n "$threads$unsafe_code" ]]; then
    printf '%s\n' "$threads" "$unsafe_code" | sed '/^$/d'
    echo "actor form gate: FAIL — run blocking actors on their stacks (stack.rs), not on threads"
    exit 1
fi

echo "==> one kernel form: array and DSL kernels run a row at a time"
# A stencil kernel is a RowFn writing one Row of new values (DESIGN.md
# §5k); the per-cell closure form it replaced must not come back beside it.
cellform=$(grep -rnE --include='*.rs' 'CellFn|struct Cell\b|Fn\(&Cell' crates || true)
if [[ -n "$cellform" ]]; then
    echo "$cellform"
    echo "kernel form gate: FAIL — write array and DSL kernels against Row and RowFn"
    exit 1
fi

echo "==> one counter registry, one watchdog pass"
# Counters live in the engine's Metrics, and serve tallies the Status
# fields it reports; impacc-obs keeps spans only. The watchdog's run rules
# run once per launch (crates/core/src/launch.rs), which hands the
# findings on in RunSummary::anomalies; only the flight crate and tests
# may call them beside it.
registry=$(grep -rnE --include='*.rs' 'counter_add|counter_inc|gauge_set|MetricsSnapshot' crates || true)
passes=$(grep -rnE --include='*.rs' 'check_counters\(|check_engine\(' crates \
    | grep -vE '^crates/(flight/src/|core/src/launch\.rs:|[^/]+/tests/)' || true)
if [[ -n "$registry$passes" ]]; then
    printf '%s\n' "$registry" "$passes" | sed '/^$/d'
    echo "one registry gate: FAIL — count in Metrics or a typed tally, read findings from RunSummary::anomalies"
    exit 1
fi

echo "==> no dead dependency edges"
# Every impacc-* crate or parking_lot a crate's [dependencies] names must
# be used by some file under its src/ or tests/: a dead edge only
# lengthens the build graph and hides which layer a crate really sits on.
dead=""
for dir in . crates/*; do
    for dep in $(sed -n '/^\[dependencies\]/,/^\[/s/^\(impacc-[a-z-]*\|parking_lot\)[ .=].*/\1/p' "$dir/Cargo.toml"); do
        grep -rqw "${dep//-/_}" "$dir/src" "$dir/tests" 2>/dev/null || dead+="$dir -> $dep"$'\n'
    done
done
if [[ -n "$dead" ]]; then
    printf '%s' "$dead"
    echo "dependency gate: FAIL — drop the edges above from their Cargo.toml"
    exit 1
fi

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace (IMPACC_PARALLEL=4)"
# The workspace suite once, on four scheduler workers. Tier-1
# (`cargo test -q`) is the one-worker pass everyone runs; results are
# bit-identical for every worker count (DESIGN.md §5i), so the two can
# differ only by a race — and a race needs workers.
IMPACC_PARALLEL=4 cargo test -q --workspace

echo "==> impacc-serve lib tests x50 (IMPACC_PARALLEL=4) + snapshot_race, recycle_race, store_race (release)"
# Several simulations side by side on partition threads is where a data
# race between a sender's edit and the delivery daemon's copy-out shows
# ("allreduce corrupted", once about 1 run in 20 — DESIGN.md §5m). Fifty
# back-to-back runs make that a gate that holds or names its cause; the
# two-thread stress of the same window runs optimized, where it is widest —
# as do freed payload memory's (four threads passing 1 MiB buffers
# between owners through the allocator: a reused byte that is not zero,
# or a snapshot that reads another owner's bytes, fails it) and the span
# store's (owners, a stall-pusher and a reader on one store).
serve_lib=$(cargo test -p impacc-serve --lib --no-run 2>&1 \
    | sed -n 's/.*(\(.*impacc_serve-[0-9a-f]*\)).*/\1/p')
for i in $(seq 50); do
    IMPACC_PARALLEL=4 "$serve_lib" -q >target/serve_lib_loop.log 2>&1 || {
        cat target/serve_lib_loop.log
        echo "serve lib loop: FAIL — run $i of 50"
        exit 1
    }
done
cargo test -q --release -p impacc-mem --test snapshot_race
cargo test -q --release -p impacc-mem --test recycle_race
cargo test -q --release -p impacc-obs --test store_race

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace (rustdoc warnings are errors)"
# An intra-doc link to a deleted or private item is a warning rustdoc
# prints and moves past; here it fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> benchmark package self-check"
# benchmark/ is a standalone package outside the workspace (its own
# lockfile, path-deps on crates/*): none of the steps above build it, yet
# it is what the acceptance pipeline builds and runs. Its own check — fmt,
# clippy -D warnings, unit tests, all six workloads at smoke size — keeps
# a crate change from silently breaking it.
benchmark/check.sh

echo "==> exact gate: smoke counts vs baselines/exact.json"
# The smoke run above also counts: events, elided handoffs, bytes moved per
# direction, messages, fused messages, plan ops, result bytes, virtual end
# times, allocations per event. Those do not depend on the host, so they
# are held to the committed copy exactly. `compare` prints one line per
# count that moved (and one per workload whose operations started failing);
# its wall-clock rows and its exit code are not read — a smoke run is far
# too short to time. A PR that moves a count on purpose replaces the
# reference and says why:
#   cp benchmark/out/smoke/result.json baselines/exact.json
exact=$("${CARGO_TARGET_DIR:-benchmark/target}/release/impacc-benchmark" compare \
    baselines/exact.json benchmark/out/smoke/result.json || true)
if ! grep -qE '^(no row is worse|[0-9]+ rows are worse)' <<<"$exact"; then
    echo "$exact"
    echo "exact gate: FAIL — compare did not run to the end"
    exit 1
fi
if grep -E 'exact metric differs|failed_share' <<<"$exact"; then
    echo "exact gate: FAIL — the counts above differ from baselines/exact.json"
    exit 1
fi
echo "exact gate: ok"

echo "==> serve campaign: cached resubmit executes nothing"
# The shipped collective campaign.
rm -rf "$SPOOL"
campaign_gate "serve campaign gate" campaigns/coll_sweep.campaign

echo "==> serve campaign: array scenarios end-to-end"
# The three distributed-array workloads (stencil3d, stencil2d, redblack)
# through the same spool daemon.
campaign_gate "array campaign gate" campaigns/array.campaign

echo "==> serve campaign: compiled-DSL programs end-to-end"
# The .acc programs through the same spool daemon, keyed by the normal
# form of their source. Each daemon process compiles a program once
# however many jobs name it: the campaign's 12 jobs hold 6 distinct
# programs, so 6 front misses.
campaign_gate "dsl campaign gate" campaigns/dsl.campaign 6

echo "==> serve campaign: fault injection end-to-end"
# The exchange under seeded link faults and a failed device: recovery and
# remap must reproduce the same result bytes, so the resubmit of the
# faulted and device-loss points is answered by the cache too.
campaign_gate "chaos campaign gate" campaigns/chaos_sweep.campaign

echo "==> serve daemon: poison requests fail alone"
# Requests written straight into the spool, past the client-side parse of
# `serve submit`, that no node can hold, beside one valid job: an
# allreduce payload of 2^40 f64s per rank (8 TiB), and a 2^40-wide mesh
# as a jacobi job, a stencil2d job and the DSL's stencil2d program. The
# daemon must refuse each with a done/<name>.err sidecar, execute the
# valid job and exit 0. An allocation the host cannot back used to abort the whole
# process here.
rm -rf "$SPOOL"
mkdir -p "$SPOOL/incoming"
printf 'workload=allreduce\nelems=1099511627776\n' >"$SPOOL/incoming/poison.job"
printf 'workload=jacobi\nn=1099511627776\n' >"$SPOOL/incoming/poison_jacobi.job"
printf 'workload=stencil2d\nn=1099511627776\n' >"$SPOOL/incoming/poison_mesh.job"
printf 'workload=dsl\nprogram=stencil2d\nparams=n:1099511627776\n' >"$SPOOL/incoming/poison_dsl.job"
printf 'workload=allreduce\nelems=64\nseed=28\n' >"$SPOOL/incoming/valid.job"
poisoned=$("$serve_bin" daemon --spool "$SPOOL" --workers 1 --drain) || {
    echo "poison request gate: FAIL — the daemon exited with status $?"
    exit 1
}
echo "$poisoned"
if ! grep -q "executed 1, cache_hits 0, rejected 4, failed 0," <<<"$poisoned" \
        || ! grep -q "8796093022208 bytes per rank" "$SPOOL/done/poison.job.err" \
        || ! grep -q "bytes per rank" "$SPOOL/done/poison_jacobi.job.err" \
        || ! grep -q "bytes per rank" "$SPOOL/done/poison_mesh.job.err" \
        || ! grep -q "bytes per rank" "$SPOOL/done/poison_dsl.job.err"; then
    echo "poison request gate: FAIL — the valid job must run and each poison one be refused"
    exit 1
fi
echo "poison request gate: ok"

echo "ci: all green"
