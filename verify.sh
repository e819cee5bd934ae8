#!/bin/sh
# Tier-1 verification gate, fully offline.
#
# 1. Release build + full test suite with the network disabled — proves
#    the zero-dependency policy holds (no crates.io access is ever
#    needed). Then the repository benchmark (perfbench/, its own Cargo
#    workspace) is built with --locked and its self-tests run, so a
#    change to a public name the benchmark calls, or a crate-manifest
#    change that would rewrite perfbench/Cargo.lock, fails here rather
#    than at the benchmark run. Then clippy must pass on every target
#    (libraries, binaries, tests, examples) with warnings denied, and
#    rustdoc must build the workspace's docs without a warning (a broken
#    or private intra-doc link fails it). Last, each of the four examples
#    runs and must exit 0.
# 2. bench_pipeline: the heap totals, the instrumentation overhead and
#    every observability gate, checked in memory on one instrumented
#    quick campaign with the live endpoint answering. The serial report
#    must be unchanged by heap counting and by instrumentation; the
#    quick serial campaign's heap totals (allocs_total, bytes_total) and
#    heap high-water must match the committed BENCH_pipeline.json within
#    0.1% either way (a rise is a regression, a fall means the baseline
#    is stale) and the process's peak RSS (VmHWM) must stay at or under
#    64 MiB; both overhead ratios must stay under 1.05 unless the median
#    delta is under 75 ms; the run report must round-trip through the
#    in-tree parser, its stage counters must be non-zero, shard's direct
#    children (synth, ingest, journal) must cover 95% of shard, the
#    Prometheus families and per-span heap attribution must be present,
#    and the folded profile must be exactly the span tree weighted by
#    self time. The served /metrics and /profile must equal the
#    in-memory renders byte for byte, /progress must carry the report's
#    experiment count, ledger and coverage, and unknown routes and POSTs
#    must answer 404 and 405. The record goes to
#    target/bench_pipeline.json, so the committed baseline stays
#    untouched.
# 3. supervise smoke: a medium campaign is journaled and SIGKILLed once
#    its journal holds a few unit records, then resumed from the
#    (possibly torn) journal. The resume must replay at least one unit
#    and run at least one live, and its report must be byte-identical
#    to an uninterrupted reference run. This drives the resume path
#    through the real binary and a real kill, not just in-process
#    truncation.
# 4. oracle_check: the correctness oracle — conservation-law invariants
#    over the finished report (ledger reconciliation, percentage sums,
#    catalog-backed PII findings, recounts from live accumulators),
#    metamorphic relations (order permutation, rep relabeling, device
#    removal, VPN isolation), field-by-field differential runs across
#    1, 2 and 8 workers — clean, under a seeded sweep of fault rates
#    (ledger reconciles, faults fire, nothing quarantined, bounded
#    headline drift at low rates), under injected panics that must end
#    in quarantine, and resumed from a torn journal — and invariant
#    classes over the committed results/*.json table artifacts
#    (well-formed emit shape, pinned row counts, percentage sums). Any
#    violation fails this script.
#    Opt-in: the --nightly flag additionally reruns the oracle on the
#    medium campaign grid, warn-only, into
#    target/oracle_check_medium.json.
# 5. tables: run_all_tables.sh regenerates every paper artifact into
#    target/verify_tables (~6 s on a 2-vCPU host), and the set must
#    match results/ file for file: every *.json and all_tables.txt
#    byte-identical (cmp), none missing and none extra. A change that
#    moves any table — the corpus analyses, feature extraction or forest
#    training — fails here. The script holds the one list of tables and
#    scales.
#
# Flags:
#   --nightly   run the deeper, slower sweeps too (currently: the
#               warn-only medium-scale oracle).
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
cargo test --release -q --locked --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "=== lint: clippy on every target, warnings denied ==="
cargo clippy -q --workspace --all-targets -- -D warnings

echo "=== lint: rustdoc, warnings denied ==="
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "=== examples: run each ==="
cargo run --release -q --example quickstart >/dev/null
cargo run --release -q --example pcap_roundtrip >/dev/null
cargo run --release -q --example eavesdropper >/dev/null
cargo run --release -q --example privacy_audit >/dev/null

echo "=== bench: heap totals + overhead + observability gates (one instrumented run) ==="
cargo build --release -p iot-bench \
  --bin bench_pipeline --bin oracle_check --bin tables
./target/release/bench_pipeline

echo "=== supervise smoke: journaled campaign, SIGKILL mid-run, resume ==="
# Uninterrupted reference: the same 2-worker campaign without a journal;
# an interrupted-and-resumed run must be byte-identical to it.
./target/release/moniotr campaign medium workers 2 \
  --report-out target/supervise_ref.json >/dev/null
# Journaled run, killed once its journal holds a few records (16 KiB of
# the medium grid's ~198 KB, a few of its 81 units). The grid runs for
# about 0.4 s on 2 vCPUs, so the 50 ms poll lands the kill mid-run.
rm -f target/supervise.jnl target/supervise_resumed.json
./target/release/moniotr campaign medium workers 2 \
  --journal target/supervise.jnl >/dev/null 2>&1 &
SUPERVISE_PID=$!
polls=0
until [ -f target/supervise.jnl ] && [ "$(wc -c < target/supervise.jnl)" -gt 16384 ]; do
  polls=$((polls + 1))
  if [ "$polls" -gt 200 ]; then
    kill -9 "$SUPERVISE_PID" 2>/dev/null || true
    echo "verify.sh: FAIL — the journal held no 16 KiB of records within 10 s" >&2
    exit 1
  fi
  sleep 0.05
done
kill -9 "$SUPERVISE_PID" 2>/dev/null || true
wait "$SUPERVISE_PID" 2>/dev/null || true
# Resume from whatever the kill left behind (a torn trailing record is
# expected and salvaged). It must both replay and run live units, or
# the kill did not land mid-run and the smoke proved nothing.
./target/release/moniotr campaign medium workers 2 \
  --resume target/supervise.jnl --report-out target/supervise_resumed.json \
  > target/supervise_resume.log
supervision=$(grep "supervision" target/supervise_resume.log || true)
echo "$supervision"
replayed=$(echo "$supervision" | sed -n 's/.* \([0-9][0-9]*\) of [0-9][0-9]* units replayed.*/\1/p')
live=$(echo "$supervision" | sed -n 's/.*, \([0-9][0-9]*\) run live.*/\1/p')
if [ "${replayed:-0}" -lt 1 ] || [ "${live:-0}" -lt 1 ]; then
  echo "verify.sh: FAIL — the resume replayed ${replayed:-0} and ran ${live:-0} units live; \
the kill did not land mid-run" >&2
  exit 1
fi
cmp target/supervise_ref.json target/supervise_resumed.json || {
  echo "verify.sh: FAIL — resumed report differs from the uninterrupted reference" >&2
  exit 1
}
echo "supervise smoke: resumed report byte-identical to the reference"

echo "=== oracle: invariants + metamorphic relations + differential runs + fault gates ==="
IOT_SCALE=quick ./target/release/oracle_check

# Deeper sweep: the medium-scale oracle, the nightly tier
# (./verify.sh --nightly). Warn-only — the quick-scale run above is the
# gate; this surfaces scale-dependent drift without making routine
# verification minutes slower or flaky on loaded hosts.
if [ "$NIGHTLY" = 1 ]; then
  echo "=== oracle (nightly tier): medium scale, warn-only ==="
  if ! IOT_SCALE=medium IOT_ORACLE_OUT=target/oracle_check_medium.json \
    ./target/release/oracle_check; then
    echo "verify.sh: WARN — medium-scale oracle reported violations (non-gating)"
  fi
fi

echo "=== tables: regenerate every results/ artifact, cmp against results/ ==="
rm -rf target/verify_tables
IOT_SKIP_VERIFY=1 IOT_RESULTS_DIR=target/verify_tables ./run_all_tables.sh >/dev/null
artifacts() { (cd "$1" && ls -- *.json all_tables.txt); }
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
