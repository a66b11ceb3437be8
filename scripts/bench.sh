#!/bin/sh
# Wall-clock benchmark entry point.
#
# Runs the perf-trajectory harness (bench/wallclock.exe) and writes
# BENCH_wallclock.json: per-kernel new-vs-legacy wall times and
# speedups, wall time / GC pressure / engine events-per-second for the
# measured experiments (with an events/s-by-domain-count probe of the
# scaled figures: alternating rounds at 1, 2 and 4 domains, medians
# compared), and the rack-scale sweep (throughput vs nodes vs cohort
# size vs domains over Linefs.Rack runs batched one engine per replica
# group).
#
# Gating lives inside the harness itself: every floor it enforces —
# data-path geomean, multi-domain fig4, rack-sweep speedup — is
# recorded in the JSON's "gates" object with the measured value, the
# floor applied, whether the floor was relaxed for the machine's core
# count, and whether the gate was evaluated in this run's mode.  The
# harness exits nonzero if any evaluated gate falls below its floor.
# Speedup floors are core-count-aware: on a single core there is no
# parallelism to win (the batch runner caps its pool at the core
# count, so extra domains are free and the floor is a no-regression
# bound rather than a real speedup).  CI separately refuses committed
# JSON whose gates were skipped or failed (scripts/ci.sh), so a
# smoke-mode run can't be passed off as a real benchmark run.
#
# Usage:
#   scripts/bench.sh             # kernels + scaled fig4/fig9 + sweeps
#   scripts/bench.sh --smoke     # kernels only, small sizes (CI)
#   scripts/bench.sh --full      # adds paper-scale fig4/fig9 (slow!)
#   scripts/bench.sh ... -o FILE # output path
set -eu
cd "$(dirname "$0")/.."

out=BENCH_wallclock.json
prev=
for a in "$@"; do
  [ "$prev" = "-o" ] && out=$a
  prev=$a
done

dune build bench/wallclock.exe
dune exec bench/wallclock.exe -- "$@"

# The harness already gated and exited nonzero on failure; echo the
# recorded gate lines for the log.
echo
echo "gates recorded in $out:"
sed -n '/"gates"/,/]/p' "$out" | grep '"name"' || true
