#!/usr/bin/env bash
# Build the serving binaries from the repository sources and the
# benchmark program, then run the benchmark with the given arguments:
#   bash lewisbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release --quiet --manifest-path Cargo.toml -p lewis-serve --bins >&2
cargo build --offline --release --quiet --manifest-path lewisbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/lewisbench" "$@"
