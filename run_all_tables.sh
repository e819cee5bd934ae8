#!/bin/sh
# Regenerates every paper table/figure into results/ (IOT_RESULTS_DIR),
# and their printed form into results/all_tables.txt. The committed
# artifacts are at reduced scales: medium for the corpus analyses and
# Table 9, quick for Tables 10, 11 and §7.3. The script sets IOT_SCALE
# on every call, so exporting it
# changes nothing here; for the paper-scale grid run the binary itself,
# e.g. `IOT_SCALE=full ./target/release/tables table9 table10 table11
# user_study` (~6 s on a 2-vCPU host), with IOT_RESULTS_DIR pointing
# away from results/.
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
  IOT_SCALE=medium $TABLES table1 entropy_calibration ablation \
    table2 table3 table4 figure2 table5 table6 table7 table8 summary table9
  IOT_SCALE=quick $TABLES table10 table11 user_study
} > "$OUT/all_tables.txt"
cat "$OUT/all_tables.txt"
