#!/usr/bin/env bash
# The full gate: tier-1 verify (release build + tests) plus formatting and
# lints. Run before sending a PR; CI runs exactly this.
set -euo pipefail
cd "$(dirname "$0")"

PERF_DIR=target/perf
PCT="${IMPACC_PERF_BASELINE_PCT:-30}"
MODE="${1:-}"

# perf_gate <label> <json-field> <name> [<what>]: hold <json-field> of the
# fresh $PERF_DIR/BENCH_<name>.json to the committed baselines/<name>.json
# (regenerated via ./ci.sh --rebaseline on the reference machine). A drop
# of more than IMPACC_PERF_BASELINE_PCT percent (default 30) fails CI;
# skips with a notice when no baseline is committed.
perf_gate() {
    local label=$1 field=$2 name=$3 what=${4:-throughput} fresh base
    fresh=$(grep -o "\"$field\":[0-9.]*" "$PERF_DIR/BENCH_$name.json" | cut -d: -f2)
    if [[ "$MODE" == "--rebaseline" ]]; then
        mkdir -p baselines
        cp "$PERF_DIR/BENCH_$name.json" "baselines/$name.json"
        echo "$label: baseline reset to $fresh events/sec (commit baselines/$name.json)"
        return
    fi
    base=$(git show "HEAD:baselines/$name.json" 2>/dev/null) || {
        echo "$label: skipped (no committed baselines/$name.json; run ./ci.sh --rebaseline)"
        return
    }
    base=$(grep -o "\"$field\":[0-9.]*" <<<"$base" | cut -d: -f2) || {
        echo "$label: skipped (no $field in committed baseline; run ./ci.sh --rebaseline)"
        return
    }
    awk -v l="$label" -v w="$what" -v fresh="$fresh" -v base="$base" -v pct="$PCT" 'BEGIN {
        floor = base * (1 - pct / 100);
        printf "%s: fresh %.0f vs baseline %.0f events/sec (floor %.0f, -%s%%)\n",
            l, fresh, base, floor, pct;
        if (fresh < floor) {
            printf "%s: FAIL — %s regressed more than %s%%\n", l, w, pct;
            exit 1;
        }
        print l ": ok";
    }'
}

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

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test -q --workspace (IMPACC_PARALLEL=4)"
# Tier-1 again on the conservative parallel engine: every launched run
# partitions by node and advances under a 4-worker horizon protocol.
# Bit-identical results are the contract (DESIGN.md §5i), so the whole
# suite must stay green with the knob forced on.
IMPACC_PARALLEL=4 cargo test -q --workspace

echo "==> impacc-serve lib tests x50 (IMPACC_PARALLEL=4) + snapshot_race (release)"
# Several simulations side by side on partition threads is where a data
# race between a sender's edit and the delivery daemon's copy-out shows
# ("allreduce corrupted", once about 1 run in 20 — DESIGN.md §5m). Fifty
# back-to-back runs make that a gate that holds or names its cause; the
# two-thread stress of the same window runs optimized, where it is widest.
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

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> benchmark package self-check"
# benchmark/ is a standalone package outside the workspace (its own
# lockfile, path-deps on crates/*): none of the steps above build it, yet
# it is what the acceptance pipeline builds and runs. Its own check — fmt,
# clippy -D warnings, unit tests, all six workloads at smoke size — keeps
# a crate change from silently breaking it.
benchmark/check.sh

echo "==> profiler golden test"
cargo test -q -p impacc-prof golden

echo "==> perf smoke: bench_speed --quick"
mkdir -p "$PERF_DIR"
# The serial engine hands one baton from thread to thread. Spread over
# several CPUs every handoff is a cross-CPU wake-up — ~10x the engine's
# own cost on a small VM, and bimodal run to run — so every step that is
# one baton-engine simulation at a time (bench_speed, bench_coll,
# bench_array, bench_dsl, and the baselines they are held to) runs on the
# first allowed CPU. bench_serve stays unpinned: its workers are meant to
# spread.
PIN=()
if command -v taskset >/dev/null; then
    cpu=$(awk '/^Cpus_allowed_list:/ { split($2, a, /[,-]/); print a[1] }' /proc/self/status)
    PIN=(taskset -c "$cpu")
fi
IMPACC_BENCH_DIR="$PERF_DIR" \
    "${PIN[@]}" cargo run --release -q -p impacc-bench --bin bench_speed -- --quick \
    | grep -E '^\[speed\]|actors:'

echo "==> perf regression gate"
perf_gate "perf gate" events_per_sec speed

echo "==> cores-sweep + flight-overhead gate: bench_speed --smoke"
# 8192-actor lockstep, serial engine vs 4 conservative workers: the
# parallel run must match the serial event total (±1 teardown dispatch)
# and finish at least 2x faster. The smoke also prices the always-on
# flight recorder against a bare engine on the phased compute loop and
# fails if the overhead exceeds IMPACC_FLIGHT_OVERHEAD_PCT (default 10%).
# The binary panics (nonzero exit) on any violation.
"${PIN[@]}" cargo run --release -q -p impacc-bench --bin bench_speed -- --smoke

echo "==> lockstep parallel regression gate"
# Same floor as the main speed gate, applied to the 4-worker lockstep
# throughput published by the cores sweep (lockstep_par4_events_per_sec
# in BENCH_speed.json): the conservative engine must not quietly lose
# its win over the serial engine release over release.
perf_gate "lockstep gate" lockstep_par4_events_per_sec speed "parallel throughput"

echo "==> chaos smoke: fixed-seed fault injection + flight dump schema"
# A seeded faulted exchange must complete bit-correct with retries > 0,
# and a device-loss run must finish via the §3.2 remap. The binary
# panics (nonzero exit) on any violation, and drains each scenario's
# flight ring into $PERF_DIR/FLIGHT_*.json (reproducibility asserted
# in-binary).
IMPACC_BENCH_DIR="$PERF_DIR" \
    cargo run --release -q -p impacc-bench --bin bench_chaos -- --smoke
# The device-loss dump must be schema-versioned, carry an anomaly
# trigger, and attribute the fault (the mapper's remap marker is in the
# ring's retained events).
flight="$PERF_DIR/FLIGHT_chaos_device_loss.json"
[[ -f "$flight" ]] || { echo "flight gate: $flight missing"; exit 1; }
for needle in '"schema_version"' '"trigger":"anomaly"' 'device_loss' 'remap'; do
    grep -q "$needle" "$flight" \
        || { echo "flight gate: $needle missing from $flight"; exit 1; }
done
echo "flight gate: device-loss dump schema + fault attribution ok"

echo "==> coll smoke: hierarchical vs flat collectives"
# The two-level hierarchical allreduce must beat the flat binomial
# schedule at a small and a large payload on a multi-rank-per-node
# cluster; the binary panics (nonzero exit) on a regression.
"${PIN[@]}" cargo run --release -q -p impacc-bench --bin bench_coll -- --smoke

echo "==> coll sweep + regression gate"
# Same shape as the speed gate: fresh events/sec from the collective
# sweep vs the committed baselines/coll.json, floor at -$PCT%.
IMPACC_BENCH_DIR="$PERF_DIR" IMPACC_BENCH_QUICK=1 \
    "${PIN[@]}" cargo run --release -q -p impacc-bench --bin bench_coll \
    | grep -E '^\[coll\]'
perf_gate "coll gate" events_per_sec coll

echo "==> array smoke: hand-written parity + halo scaling"
# The distributed-array layer's acceptance checks: the array jacobi must
# match the hand-written app bit-for-bit (residuals) and tick-for-tick
# (virtual end time) in all three runtime modes, halo bytes must scale
# exactly linearly with exchange depth, and the IMPACC-vs-baseline win
# must survive the array lowering. The binary panics (nonzero exit) on
# any violation.
"${PIN[@]}" cargo run --release -q -p impacc-bench --bin bench_array -- --smoke

echo "==> array sweep + regression gate"
# Same shape as the speed/coll gates: fresh events/sec from the
# halo-depth sweep vs the committed baselines/array.json, floor at -$PCT%.
IMPACC_BENCH_DIR="$PERF_DIR" IMPACC_BENCH_QUICK=1 \
    "${PIN[@]}" cargo run --release -q -p impacc-bench --bin bench_array \
    | grep -E '^\[array\]'
perf_gate "array gate" events_per_sec array

echo "==> serve smoke: admission control + cache determinism"
# Backpressure must reject with a reason, and a resubmitted job set must
# be 100% cache hits with byte-identical results. The binary panics
# (nonzero exit) on any violation.
cargo run --release -q -p impacc-bench --bin bench_serve -- --smoke

echo "==> serve load test + regression gate"
# Same shape as the speed/coll gates: fresh cold-pass throughput from
# the serving-layer load test vs the committed baselines/serve.json,
# floor at -$PCT%. The load test itself asserts a 100% warm hit rate.
IMPACC_BENCH_DIR="$PERF_DIR" IMPACC_BENCH_QUICK=1 \
    cargo run --release -q -p impacc-bench --bin bench_serve \
    | grep -E '^\[serve\]'
perf_gate "serve gate" events_per_sec serve

echo "==> serve campaign: cached resubmit executes nothing"
# The shipped collective campaign.
rm -rf "$SPOOL"
campaign_gate "serve campaign gate" campaigns/coll_sweep.campaign

echo "==> serve campaign: array scenarios end-to-end"
# The three distributed-array workloads (stencil3d, stencil2d, redblack)
# through the same spool daemon.
campaign_gate "array campaign gate" campaigns/array.campaign

echo "==> dsl golden-translation gate"
# The source-to-source compiler's output is part of the contract: for
# every shipped .acc example, `impaccc translate` must reproduce the
# committed golden snapshot (canonical source + lowered plan) byte for
# byte. Regenerate deliberately with:
#   impaccc translate <name> > crates/dsl/golden/<name>.plan
impaccc=target/release/impaccc
for prog in jacobi dot stencil2d; do
    golden="crates/dsl/golden/$prog.plan"
    [[ -f "$golden" ]] || { echo "dsl golden gate: $golden missing"; exit 1; }
    if ! diff -u "$golden" <("$impaccc" translate "$prog"); then
        echo "dsl golden gate: FAIL — $prog translation drifted from $golden"
        exit 1
    fi
done
echo "dsl golden gate: ok (3 translations byte-identical)"

echo "==> dsl smoke: compiled-program parity + device split"
# The compiler's acceptance checks: the compiled jacobi.acc must match
# the hand-written app bit-for-bit and tick-for-tick in all three
# runtime modes, the testmpi-pattern dot.acc must run end to end on
# single- and multi-node launches with the exact sum, the 4-way device
# split must beat one device by >= 3x in virtual time, and translation
# must stay under 10ms and byte-stable. The binary panics (nonzero
# exit) on any violation.
"${PIN[@]}" cargo run --release -q -p impacc-bench --bin bench_dsl -- --smoke

echo "==> dsl sweep + regression gate"
# Same shape as the speed/coll/array gates: fresh events/sec from the
# compiled-DSL sweep vs the committed baselines/dsl.json, floor at -$PCT%.
IMPACC_BENCH_DIR="$PERF_DIR" IMPACC_BENCH_QUICK=1 \
    "${PIN[@]}" cargo run --release -q -p impacc-bench --bin bench_dsl \
    | grep -E '^\[dsl\]'
perf_gate "dsl gate" events_per_sec dsl

echo "==> serve campaign: compiled-DSL programs end-to-end"
# The .acc programs through the same spool daemon, keyed by the normal
# form of their source. Each daemon process compiles a program once
# however many jobs name it: the campaign's 12 jobs hold 6 distinct
# programs, so 6 front misses.
campaign_gate "dsl campaign gate" campaigns/dsl.campaign 6

echo "ci: all green"
