#!/usr/bin/env bash
# Paper-shape gate for Figure 10 (left): one TangoMap per client,
# single-partition transactions, on an 18-server and a 6-server log.
#
#   usage: check_fig10_left.sh BENCH_OUTPUT.txt
#
# BENCH_OUTPUT.txt holds the output of `bench/main.exe fig10-left`
# (quick or full window). Two checks, both from the paper's figure:
#
#   - the 18-server column scales linearly: the 18-client row is at
#     least 8x the 2-client row (9x would be perfectly linear);
#   - the 6-server column plateaus where its storage saturates, and the
#     plateau holds: the mean of the 8..18-client rows is at least
#     120K tx/s.
#
# Fails when either check fails, or when the table or one of its rows
# is missing.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 BENCH_OUTPUT.txt" >&2
  exit 2
fi

awk '
  /^===/ { in_table = ($0 ~ /Figure 10 \(Left\)/); header = 0; next }
  in_table && NF == 0 { in_table = 0; next }
  in_table && $1 == "clients" {
    # Each column header is "<n>-srv Ktx/s": two words, one value.
    col = 1
    for (i = 2; i <= NF; i++) {
      if ($i !~ /-srv$/) continue
      col++
      if ($i == "18-srv") c18 = col
      if ($i == "6-srv") c6 = col
    }
    header = 1; found = 1; next
  }
  in_table && header {
    v18[$1] = $c18
    if ($1 >= 8 && $1 <= 18) { plateau += $c6; plateau_rows++ }
  }
  END {
    if (!found || !c18 || !c6) { print "FAIL: no Figure 10 (Left) table with 18-srv and 6-srv columns" > "/dev/stderr"; exit 1 }
    if (!(2 in v18) || !(18 in v18) || plateau_rows == 0) { print "FAIL: Figure 10 (Left) rows missing" > "/dev/stderr"; exit 1 }
    bad = 0
    ratio = v18[18] / v18[2]
    if (ratio < 8) { printf "FAIL 18-server column not linear: 18 clients = %.2fx 2 clients (< 8x)\n", ratio > "/dev/stderr"; bad++ }
    else printf "ok   18-server column: 18 clients = %.2fx 2 clients\n", ratio
    mean = plateau / plateau_rows
    if (mean < 120) { printf "FAIL 6-server plateau dropped: mean of 8..18-client rows = %.1fK tx/s (< 120K)\n", mean > "/dev/stderr"; bad++ }
    else printf "ok   6-server plateau: mean of 8..18-client rows = %.1fK tx/s\n", mean
    if (bad > 0) exit 1
  }
' "$1"
