#!/bin/sh
# Regenerates every paper table/figure into results/ (IOT_RESULTS_DIR),
# and their printed form into results/all_tables.txt. The committed
# artifacts are at reduced scales: medium for the corpus analyses and
# Table 9, quick for Tables 10, 11 and §7.3. IOT_SCALE=full reproduces
# the paper-scale grid; there the four model artifacts take ~21 s on a
# 2-vCPU host.
set -e
cd "$(dirname "$0")"
TABLES=./target/release/tables
OUT="${IOT_RESULTS_DIR:-results}"
mkdir -p "$OUT"

# Gate the table regeneration on the tier-1 + bench verification so a
# serial/parallel divergence is caught before any table is rewritten.
# Skip with IOT_SKIP_VERIFY=1 when the build is known-good.
if [ "${IOT_SKIP_VERIFY:-0}" != "1" ]; then
  ./verify.sh
fi
{
  IOT_SCALE="${IOT_SCALE_CORPUS:-medium}" $TABLES table1 entropy_calibration ablation \
    table2 table3 table4 figure2 table5 table6 table7 table8 summary
  IOT_SCALE="${IOT_SCALE_INFER:-medium}" $TABLES table9 2>/dev/null
  IOT_SCALE=quick $TABLES table10 table11 user_study 2>/dev/null
} > "$OUT/all_tables.txt"
cat "$OUT/all_tables.txt"
