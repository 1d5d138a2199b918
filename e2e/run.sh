#!/usr/bin/env bash
# Builds the benchmark offline against the repo's crates and runs it.
#
#   e2e/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload, one pass (what BENCHMARK.json names);
#   e2e/run.sh run [--smoke] [--repeat k] [--seed n] [--out FILE]
#       all six workloads, untraced then traced, into target/e2e/BENCH.json;
#   e2e/run.sh compare BASE.json NEW.json
#   e2e/run.sh                 (no arguments) = run --seed 42
#
# Run it from the repository root. Build output, databases, traces and
# BENCH.json all go under $CARGO_TARGET_DIR (default: target), inside the
# checkout.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path e2e/Cargo.toml
if [ "$#" -eq 0 ]; then
    set -- run --seed 42
fi
exec "$CARGO_TARGET_DIR/release/e2e" "$@"
