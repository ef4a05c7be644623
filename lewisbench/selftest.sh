#!/usr/bin/env bash
# Benchmark self-test, run from the repository root:
#   bash lewisbench/selftest.sh
# 1. the checker's unit tests, which feed it corrupted answers (a score
#    outside [0, 1], an unsorted ranking, an action on a non-actionable
#    attribute, a ground-truth miss) and expect each to be rejected;
# 2. every workload end to end in the reduced-size mode (1/50 of the
#    rows), which must answer every operation and pass every check.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo test --offline --release --quiet --manifest-path lewisbench/Cargo.toml >&2
for workload in adult_dashboard_48k adult_audit_1m german_live_1m; do
    line=$(bash lewisbench/run.sh --workload "$workload" --seed 1 --seconds 2 --trace 0 --small 2>/dev/null | tail -n 1)
    echo "$workload: $line"
    case "$line" in
        *'"correct":true'*'"failed":0,'*) ;;
        *) echo "self-test failed on $workload" >&2; exit 1 ;;
    esac
done
echo "self-test passed"
