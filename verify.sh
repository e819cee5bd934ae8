#!/bin/sh
# Tier-1 verification gate, fully offline.
#
# 1. Release build + full test suite with the network disabled — proves
#    the zero-dependency policy holds (no crates.io access is ever
#    needed). Then the repository benchmark (perfbench/, its own Cargo
#    workspace) is built and its self-tests run, so a change to a public
#    name the benchmark calls fails here rather than at the benchmark
#    run.
# 2. A quick-scale bench_pipeline run, with observability enabled so it
#    also emits an obs run report and the folded profile of the same
#    registry's span tree. bench_pipeline exits non-zero if the report
#    differs between 1, 2 and 8 workers, so divergence fails this
#    script.
# 3. obs_check: the observability smoke test and the allocation gate —
#    the run report must parse, its stage counters must be non-zero,
#    shard/synth + shard/ingest must cover 95% of shard, the measured
#    instrumentation overhead must stay under 5%, the Chrome trace and
#    Prometheus artifacts written by the bench must be well-formed, the
#    folded profile must be exactly the report's span tree weighted by
#    self time, and the deterministic event trace must have matched
#    across worker counts. The quick serial campaign's heap totals
#    (allocs_total, bytes_total) and heap high-water must match the
#    committed BENCH_pipeline.json within 0.1% either way: a rise is a
#    regression, a fall means the baseline is stale. The bench
#    process's kernel peak RSS (VmHWM) must stay at or under 64 MiB.
# 4. obs_serve_check: live-telemetry endpoint smoke — /metrics, /trace,
#    /progress, and /profile answered over real sockets during an
#    instrumented (and lightly faulted) campaign, with the ingest ledger
#    reconciling.
# 5. profile_diff: parses the fresh folded profile against the
#    committed results/profile.folded and prints the stacks whose share
#    of self time moved most — malformed artifacts fail, share shifts
#    are informational (gate with IOT_PROFILE_DIFF_MAX_SHIFT).
# 6. chaos_check: the fault-injection smoke test — a seeded sweep of
#    degraded-capture rates plus an injected-panic stage. Gates: no
#    escaped panics, identical faulted reports across worker
#    counts, exact ingest-ledger reconciliation, and bounded headline
#    drift at low fault rates.
# 7. supervise smoke: a quick campaign is journaled (with a small roll
#    threshold, so the journal rotates into numbered segments) and
#    SIGKILLed mid-run, then resumed from the (possibly torn) segment
#    set; the resumed report must be byte-identical to an uninterrupted
#    reference run. This drives the rotation/compaction/resume path
#    through the real binary and a real kill, not just in-process
#    truncation.
# 8. oracle_check: the correctness oracle — conservation-law invariants
#    over the finished report (ledger reconciliation, percentage sums,
#    catalog-backed PII findings, recounts from live accumulators),
#    metamorphic relations (order permutation, rep relabeling, device
#    removal, VPN isolation), field-by-field differential runs across
#    worker counts, and invariant classes over the committed
#    results/*.json table artifacts (well-formed emit shape, pinned row
#    counts, percentage sums). Any violation fails this script.
#    Opt-in: ORACLE_SCALE=medium (or the --nightly flag) additionally
#    reruns the oracle on the medium campaign grid, warn-only, with the
#    instrumented allocator counting so the run prints the campaign's
#    heap high-water and kernel peak RSS at that scale.
# 9. tables: run_all_tables.sh regenerates every paper artifact into
#    target/verify_tables (~6 s on a 2-vCPU host), and the set must
#    match results/ file for file: every *.json and all_tables.txt
#    byte-identical (cmp), none missing and none extra. A change that
#    moves any table — the corpus analyses, feature extraction or forest
#    training — fails here. The script holds the one list of tables and
#    scales.
#
# Flags:
#   --nightly   run the deeper, slower sweeps too (currently: the
#               warn-only medium-scale oracle with heap accounting).
set -e
cd "$(dirname "$0")"
export CARGO_NET_OFFLINE=true

NIGHTLY=0
for arg in "$@"; do
  case "$arg" in
    --nightly) NIGHTLY=1 ;;
    *) echo "verify.sh: unknown argument '$arg' (supported: --nightly)" >&2; exit 2 ;;
  esac
done

echo "=== tier-1: cargo build --release ==="
cargo build --release

echo "=== tier-1: cargo test -q ==="
cargo test -q

echo "=== workspace tests ==="
cargo test -q --workspace

echo "=== benchmark: build perfbench + run its self-tests ==="
cargo test --release -q --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "=== bench: worker-grid identity + heap totals (quick scale, obs on) ==="
cargo build --release -p iot-bench \
  --bin bench_pipeline --bin obs_check --bin obs_serve_check \
  --bin profile_diff --bin chaos_check --bin oracle_check --bin tables
# Write to scratch paths so routine verification never clobbers the
# committed BENCH_pipeline.json baseline (regenerate that explicitly
# with the bench binary's defaults). IOT_OBS=1 makes the run emit the
# observability report that obs_check validates below; the benchmark's
# obs-off baselines force instrumentation off internally, so the env var
# does not skew them.
IOT_SCALE=quick \
  IOT_BENCH_OUT="${IOT_BENCH_OUT:-target/verify_bench.json}" \
  IOT_OBS=1 IOT_OBS_OUT="${IOT_OBS_OUT:-target/obs_run.json}" \
  IOT_OBS_TRACE_OUT="${IOT_OBS_TRACE_OUT:-target/obs_trace.json}" \
  IOT_OBS_PROM_OUT="${IOT_OBS_PROM_OUT:-target/obs_metrics.prom}" \
  IOT_OBS_PROFILE_OUT="${IOT_OBS_PROFILE_OUT:-target/profile.folded}" \
  ./target/release/bench_pipeline

echo "=== obs smoke: run report + overhead + allocation gates + exporter artifacts ==="
./target/release/obs_check \
  "${IOT_OBS_OUT:-target/obs_run.json}" \
  "${IOT_BENCH_OUT:-target/verify_bench.json}" \
  BENCH_pipeline.json \
  "${IOT_OBS_TRACE_OUT:-target/obs_trace.json}" \
  "${IOT_OBS_PROM_OUT:-target/obs_metrics.prom}" \
  "${IOT_OBS_PROFILE_OUT:-target/profile.folded}"

echo "=== obs serve: live telemetry endpoint over real sockets ==="
./target/release/obs_serve_check

echo "=== profile diff: fresh folded profile vs committed baseline ==="
./target/release/profile_diff \
  "${IOT_OBS_PROFILE_OUT:-target/profile.folded}" \
  results/profile.folded

echo "=== chaos smoke: fault-injection sweep + quarantine gates ==="
IOT_SCALE=quick \
  IOT_CHAOS_OUT="${IOT_CHAOS_OUT:-target/chaos_check.json}" \
  ./target/release/chaos_check

echo "=== supervise smoke: journaled campaign, SIGKILL mid-run, resume ==="
# Uninterrupted reference: the same 2-worker campaign without a journal;
# an interrupted-and-resumed run must be byte-identical to it.
./target/release/moniotr campaign quick workers 2 \
  --report-out target/supervise_ref.json >/dev/null
# Journaled run, slowed enough that the kill reliably lands mid-run,
# with a small roll threshold so the kill leaves a rotated segment set
# behind and resume exercises the multi-segment reader + compaction.
rm -f target/supervise.jnl target/supervise.jnl.* target/supervise_resumed.json
IOT_SUPERVISE_THROTTLE_MS=25 IOT_JOURNAL_ROLL_BYTES=16384 \
  ./target/release/moniotr campaign quick workers 2 \
  --journal target/supervise.jnl >/dev/null 2>&1 &
SUPERVISE_PID=$!
sleep 1
kill -9 "$SUPERVISE_PID" 2>/dev/null || true
wait "$SUPERVISE_PID" 2>/dev/null || true
# Resume from whatever the kill left behind (a torn trailing record is
# expected and salvaged) and demand byte-identity with the reference.
./target/release/moniotr campaign quick workers 2 \
  --resume target/supervise.jnl --report-out target/supervise_resumed.json \
  | grep "supervision" || true
cmp target/supervise_ref.json target/supervise_resumed.json || {
  echo "verify.sh: FAIL — resumed report differs from the uninterrupted reference" >&2
  exit 1
}
echo "supervise smoke: resumed report byte-identical to the reference"

echo "=== oracle: invariants + metamorphic relations + differential runs ==="
IOT_SCALE=quick \
  IOT_ORACLE_OUT="${IOT_ORACLE_OUT:-target/oracle_check.json}" \
  ./target/release/oracle_check

# Deeper sweep: the medium-scale oracle, part of the nightly tier
# (./verify.sh --nightly) and still reachable via ORACLE_SCALE=medium.
# Warn-only — the quick-scale run above is the gate; this surfaces
# scale-dependent drift without making routine verification minutes
# slower or flaky on loaded hosts. IOT_OBS_ALLOC=1 turns the
# instrumented allocator on so the run reports the campaign's heap
# high-water and kernel peak RSS at medium scale.
if [ "$NIGHTLY" = 1 ] || [ "${ORACLE_SCALE:-}" = "medium" ]; then
  echo "=== oracle (nightly tier): medium scale + heap accounting, warn-only ==="
  if ! IOT_SCALE=medium IOT_OBS_ALLOC=1 \
    IOT_ORACLE_OUT="${IOT_ORACLE_MEDIUM_OUT:-target/oracle_check_medium.json}" \
    ./target/release/oracle_check; then
    echo "verify.sh: WARN — medium-scale oracle reported violations (non-gating)"
  fi
fi

echo "=== tables: regenerate every results/ artifact, cmp against results/ ==="
rm -rf target/verify_tables
IOT_SKIP_VERIFY=1 IOT_RESULTS_DIR=target/verify_tables ./run_all_tables.sh >/dev/null
# A local IOT_OBS run may leave results/obs_run.json behind; it is a
# telemetry artifact, not a table.
artifacts() { (cd "$1" && ls -- *.json all_tables.txt | grep -vx obs_run.json); }
artifacts results > target/verify_tables.list
if ! artifacts target/verify_tables | diff target/verify_tables.list - >&2; then
  echo "verify.sh: FAIL — regenerated artifact set differs from results/ (< missing, > extra)" >&2
  exit 1
fi
count=0
for name in $(artifacts results); do
  cmp "target/verify_tables/$name" "results/$name" || {
    echo "verify.sh: FAIL — regenerated $name differs from results/$name" >&2
    exit 1
  }
  count=$((count + 1))
done
echo "tables: $count regenerated artifacts byte-identical to results/"

echo "verify.sh: OK"
