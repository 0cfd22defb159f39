#!/usr/bin/env bash
# Self-check of the benchmark package: format, lints, unit tests, and a
# smoke run of all six workloads at a tenth of their size. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=(--manifest-path benchmark/Cargo.toml --offline)

cargo fmt --manifest-path benchmark/Cargo.toml --check
cargo clippy "${manifest[@]}" --all-targets -- -D warnings
cargo test "${manifest[@]}" --quiet
cargo build "${manifest[@]}" --release --quiet
"${CARGO_TARGET_DIR:-benchmark/target}/release/impacc-benchmark" run --smoke --out benchmark/out/smoke
echo "benchmark/check.sh: OK"
