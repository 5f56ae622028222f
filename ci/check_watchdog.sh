#!/usr/bin/env bash
# Fault-free watchdog gate: in the given `bench/main.exe` outputs, every
# row of every table whose last column is `watchdog` must read 0. The
# column counts commits resolved by the decision-timeout reconstruction
# (the `tango.decision_watchdog` counter) — the §4.1 crash fallback,
# which a run without injected faults must never take.
#
#   usage: check_watchdog.sh BENCH_OUTPUT.txt [MORE.txt ...]
#
# Fails when a row is not 0, when a watchdog table has no rows, or when
# no watchdog table is found at all (a renamed column must not pass
# vacuously).
set -euo pipefail

if [ $# -lt 1 ]; then
  echo "usage: $0 BENCH_OUTPUT.txt [MORE.txt ...]" >&2
  exit 2
fi

awk '
  function close_table() {
    if (in_table && table_rows == 0) { printf "FAIL %s: no rows\n", section > "/dev/stderr"; bad++ }
    in_table = 0
  }
  /^===/ { close_table(); section = $0; gsub(/^=== | ===$/, "", section); next }
  NF == 0 { close_table(); next }
  $NF == "watchdog" { close_table(); in_table = 1; tables++; table_rows = 0; next }
  in_table {
    table_rows++; rows++
    if ($NF != "0") {
      printf "FAIL %s: row \"%s\" has %s watchdog firings\n", section, $0, $NF > "/dev/stderr"
      bad++
    }
  }
  END {
    close_table()
    if (tables == 0) { print "FAIL: no watchdog table found" > "/dev/stderr"; exit 1 }
    if (bad > 0) exit 1
    printf "ok   %d tables, %d rows, zero watchdog firings\n", tables, rows
  }
' "$@"
