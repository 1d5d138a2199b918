#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, and the full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --all-targets -- -D warnings =="
cargo clippy --all-targets -- -D warnings

echo "== cargo clippy (failpoints) =="
cargo clippy -p orion-storage -p orion-core -p orion-tests --all-targets --features failpoints -- -D warnings

echo "== cargo doc (rustdoc warnings are errors) =="
# Broken intra-doc links and public docs linking private items fail here,
# so a link to a renamed or deleted item cannot rot silently.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "== cargo test -q (ORION_THREADS=1) =="
ORION_THREADS=1 cargo test -q

echo "== cargo test -q (ORION_THREADS=4, ORION_TRACE=1) =="
# Tier-1 runs once with tracing enabled: the traced path must stay green and
# bit-identical, and the EXPLAIN TRACE unit test leaves its Chrome trace at
# ORION_TRACE_FILE for the schema check below.
ORION_THREADS=4 ORION_TRACE=1 ORION_TRACE_FILE="$PWD/target/trace-ci.trace.json" \
    cargo test -q

echo "== cargo test -q (ORION_MODE=batch, ORION_THREADS=1) =="
# Tier-1 runs again through the columnar batch executor: every test that
# executes a plan now routes morsels through the batch kernels instead of
# the scalar row path, and must stay green with bit-identical results.
ORION_MODE=batch ORION_THREADS=1 cargo test -q

echo "== cargo test -q (ORION_MODE=batch, ORION_THREADS=4) =="
ORION_MODE=batch ORION_THREADS=4 cargo test -q

echo "== cargo test -q (ORION_PLANNER=rule) =="
# Tier-1 runs once more with the rule-based planner, which takes a usable
# secondary index unconditionally: every indexed query path must stay green
# and bit-identical even when the cost model would have chosen the scan.
ORION_PLANNER=rule ORION_THREADS=1 cargo test -q

echo "== batch differential oracle (3 pinned seeds) =="
# Replays the serial-vs-batch pipeline oracle with pinned generator seeds,
# mirroring the recovery oracle's replay protocol: row-serial, row-parallel,
# batch-serial and batch-parallel runs must agree bit-for-bit.
for seed in 0xBA7C4 0xDEAD 42; do
    echo "-- ORION_ORACLE_SEED=$seed --"
    ORION_ORACLE_SEED=$seed cargo test -q -p orion-tests \
        --test batch_equiv --test batch_kernels
done

echo "== ANALYZE + system-table smoke =="
# Queryable introspection must stay wired end to end: ANALYZE stats
# collection, the schema-stable orion.* virtual tables, and the gate that
# fails when orion.metrics rows disagree with the render_prometheus
# exposition of the same registry.
cargo test -q -p orion-sql analyze_statement_collects_and_installs_stats
cargo test -q -p orion-sql every_system_table_is_queryable_with_stable_schema
cargo test -q -p orion-sql orion_metrics_rows_match_prometheus_export

echo "== cargo test -q (fault injection, fixed seeds) =="
cargo test -q -p orion-storage -p orion-core -p orion-tests --features failpoints

echo "== e2e benchmark smoke (seam names + workload correctness) =="
# Builds the standalone e2e/ workspace offline against this working tree and
# runs all six workloads for a few seconds: a renamed seam item (see
# e2e/src/seam.rs) fails the build here, and a workload whose answers stop
# passing its `correct` check fails the run — locally, not in the benchmark
# pipeline.
bash e2e/run.sh run --smoke

echo "== crash matrix + recovery oracle + txn consistency (3 pinned seeds) =="
# Each seed runs the byte-level crash matrices, the recovery oracle (whose
# workloads now interleave CREATE/DROP INDEX and assert recovered index
# definitions answer like a fresh rebuild at every WAL cut), the
# index-vs-scan differential oracle, and the Jepsen-style transaction
# consistency checker — once with fault injection armed (failpoints) and
# once against the plain build.
for seed in 0xA11CE 0xC0FFEE 0xDECADE; do
    echo "-- ORION_ORACLE_SEED=$seed (failpoints) --"
    ORION_ORACLE_SEED=$seed cargo test -q -p orion-tests --features failpoints \
        --test crash_matrix --test recovery_oracle --test txn_consistency \
        --test index_equiv
    echo "-- ORION_ORACLE_SEED=$seed (plain) --"
    ORION_ORACLE_SEED=$seed cargo test -q -p orion-tests \
        --test txn_consistency --test index_equiv
done

echo "== morsel-parallel speedup check =="
# Effective core count: nproc reports host cores, but a container cgroup
# quota can cap usable CPU well below that — honor the smaller of the two.
CORES=$(nproc 2>/dev/null || echo 1)
if [ -r /sys/fs/cgroup/cpu.max ]; then
    read -r QUOTA PERIOD < /sys/fs/cgroup/cpu.max
    if [ "$QUOTA" != "max" ] && [ "${PERIOD:-0}" -gt 0 ]; then
        CG_CORES=$(( (QUOTA + PERIOD - 1) / PERIOD ))
        [ "$CG_CORES" -lt "$CORES" ] && CORES=$CG_CORES
    fi
fi
if [ "$CORES" -lt 4 ]; then
    echo "skipped: effective cores $CORES < 4; speedup numbers would be meaningless"
elif [ "${ORION_SPEEDUP_GATE:-0}" = "1" ]; then
    # Opt-in hard gate (set ORION_SPEEDUP_GATE=1 on dedicated hardware):
    # the 100K-tuple selection must reach 1.5x at 4 threads.
    cargo run --release -p orion-bench --bin fig_parallel -- --quick --min-speedup 1.5
else
    # Advisory by default: shared/loaded runners miss fixed speedup bars
    # intermittently, so report the scaling curve without failing the build.
    cargo run --release -p orion-bench --bin fig_parallel -- --quick ||
        echo "warning: fig_parallel --quick failed (advisory only)" >&2
fi

echo "== columnar batch speedup check (fig5 row vs batch) =="
if [ "$CORES" -lt 2 ]; then
    echo "skipped: effective cores $CORES < 2; timings would be meaningless"
elif [ "${ORION_SPEEDUP_GATE:-0}" = "1" ]; then
    # Opt-in hard gate (dedicated hardware): batch mode must reach 3x over
    # the row path on the widest representation (Discrete(25)), where the
    # columnar layout has the most bytes to win. The narrow symbolic sweep
    # is erf-bound in both modes and is reported but not gated.
    cargo run --release -p orion-bench --bin fig5_performance -- \
        --compare --min-speedup 3
else
    # Advisory by default, same convention as the morsel speedup check.
    cargo run --release -p orion-bench --bin fig5_performance -- \
        --compare --min-speedup 3 ||
        echo "warning: fig5 --compare speedup below 3x (advisory only)" >&2
fi

echo "== threshold-index speedup check (fig5_index) =="
if [ "${ORION_SPEEDUP_GATE:-0}" = "1" ]; then
    # Opt-in hard gate (dedicated hardware): the persistent cdf-summary
    # index must answer fig5-style threshold queries at selectivity <= 0.1
    # at least 5x faster than the seed full scan, bitwise-identical results.
    cargo run --release -p orion-bench --bin fig5_index -- --min-speedup 5
else
    # Advisory by default, same convention as the other speedup checks.
    cargo run --release -p orion-bench --bin fig5_index -- --min-speedup 5 ||
        echo "warning: fig5_index speedup below 5x (advisory only)" >&2
fi

echo "== workload repository smoke + overhead gate =="
# The functional assertions (orion.statements populated, counter
# conservation, plan_feedback q-error matching EXPLAIN ANALYZE, slow dump
# validating) always hard-fail. The <5% enabled-vs-disabled overhead gate
# reports exit 3, advisory on shared runners, hard under
# ORION_SPEEDUP_GATE=1.
set +e
SMOKE_OUT=$(cargo run --release -p orion-bench --bin workload_smoke -- \
    --dump-dir "$PWD/target/workload-dumps" --max-overhead 5)
SMOKE_RC=$?
set -e
echo "$SMOKE_OUT"
if [ "$SMOKE_RC" = "3" ] && [ "${ORION_SPEEDUP_GATE:-0}" != "1" ]; then
    echo "warning: workload repository overhead above 5% (advisory only)" >&2
elif [ "$SMOKE_RC" != "0" ]; then
    echo "error: workload_smoke failed (exit $SMOKE_RC)" >&2
    exit 1
fi
SLOW_DUMP=$(echo "$SMOKE_OUT" | sed -n 's/^SLOW_DUMP //p' | head -n 1)
if [ -z "$SLOW_DUMP" ]; then
    echo "error: workload_smoke printed no SLOW_DUMP path" >&2
    exit 1
fi

echo "== trace schema check =="
# The trace emitted by the tracing-enabled test pass above, the committed
# example artifact, and the slow-query dump from the workload smoke must
# all parse and pass their structural validators.
cargo run -q -p orion-bench --bin trace_check -- \
    target/trace-ci.trace.json results/fig_parallel.trace.json "$SLOW_DUMP"

echo "== proptest-regressions must be committed =="
if [ -n "$(git status --porcelain -- '*proptest-regressions*')" ]; then
    echo "error: uncommitted proptest-regressions changes:" >&2
    git status --porcelain -- '*proptest-regressions*' >&2
    exit 1
fi

echo "All checks passed."
