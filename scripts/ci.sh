#!/bin/sh
# CI entry point: build everything and run the full test suite
# (unit + integration + qcheck properties + the DST fault sweep),
# then the standalone DST gate: a reduced seed sweep plus the four
# explicit failover scenarios, with a determinism check that fails
# the build on any fingerprint mismatch between identical runs;
# then the conformance/crash litmus sweep: differential checks of
# every backend against the model oracle plus faulted litmus runs,
# and the --mutate self-test that proves planted bugs are caught.
# The adversary sweep runs the Byzantine-fabric profile (duplication,
# reordering, corruption, torn oplog tails, bit-rot) over 50 seeds
# with its own determinism re-check.
# Finally the multicore smoke: the scaled figures executed over 4
# domains (plus a multi-instance linefs_sim run whose per-instance
# outputs must match byte-for-byte), and the scale smoke: an 8-node
# rack of replica groups with cohort clients, batched one engine per
# group, byte-identical at 1, 2 and 4 domains and on every one of ten
# repeated 2-domain runs.  These check correctness of the batch
# runner, not speed — the events/s trajectory is bench.sh's job.  The
# committed BENCH_wallclock.json is validated up front: it must carry
# the harness's gates object with every gate evaluated and above its
# recorded floor.  The fault-injection sweeps run over 4 domains too:
# the injection hook and observers are engine-local, so independent
# scenarios batch one engine each (dst_sweep cross-checks one batched
# fingerprint against a sequential run).
set -eu
cd "$(dirname "$0")/.."

dune build
dune runtest --force
dune exec bin/dst_sweep.exe -- "${DST_SEEDS:-12}" --domains 4
dune exec bin/dst_sweep.exe -- --adversary "${ADVERSARY_SEEDS:-50}" --domains 4
dune exec bin/litmus_sweep.exe -- \
  --differ-seeds "${LITMUS_SEEDS:-50}" \
  --litmus-seeds "${LITMUS_SEEDS:-50}" \
  --out "${LITMUS_OUT:-_litmus_reports}"
dune exec bin/litmus_sweep.exe -- --mutate --out "${LITMUS_OUT:-_litmus_reports}"

# ---- committed bench JSON gate ----------------------------------------
# BENCH_wallclock.json is a committed artifact: refuse one produced by
# a smoke-mode run, with gates skipped, or with any gate below its
# floor.  The harness records exactly which gates it evaluated and at
# what (core-count-aware) floor, so this is a pure consistency check —
# no re-measurement.
grep -q '"gates"' BENCH_wallclock.json || {
  echo "FAIL: committed BENCH_wallclock.json has no gates object" \
       "(regenerate with scripts/bench.sh)"
  exit 1
}
grep -q '"mode": "smoke"' BENCH_wallclock.json && {
  echo "FAIL: committed BENCH_wallclock.json came from a smoke run"
  exit 1
}
grep -q '"evaluated": false' BENCH_wallclock.json && {
  echo "FAIL: committed BENCH_wallclock.json has skipped gates:"
  grep '"evaluated": false' BENCH_wallclock.json
  exit 1
}
grep -q '"pass": false' BENCH_wallclock.json && {
  echo "FAIL: committed BENCH_wallclock.json has gates below floor:"
  grep '"pass": false' BENCH_wallclock.json
  exit 1
}
echo "committed-bench gate: all gates evaluated and above floor"

# ---- multicore smoke --------------------------------------------------
dune exec bin/linefs_sim.exe -- --file-mb 16 --instances 4 --domains 4

# ---- scale smoke ------------------------------------------------------
# Rack-scale path: an 8-node rack (2 replica groups of 4) driven by
# 2-user cohorts, one engine per group.  stdout must be byte-identical
# at 1, 2 and 4 domains, and on every one of ten 2-domain repeats (a
# batch race would show as an occasional divergence, not a steady one).
rack_smoke() {
  dune exec bin/linefs_sim.exe -- --nodes 8 --group-size 4 --cohort 2 \
    --file-mb 64 --domains "$1" > "$2"
}
rack_smoke 1 _scale_smoke_ref.txt
for d in 4 2 2 2 2 2 2 2 2 2 2; do
  rack_smoke $d _scale_smoke_run.txt
  cmp _scale_smoke_ref.txt _scale_smoke_run.txt || {
    echo "FAIL: rack output at $d domains differs from 1 domain"
    diff _scale_smoke_ref.txt _scale_smoke_run.txt || true
    exit 1
  }
done
rm -f _scale_smoke_ref.txt _scale_smoke_run.txt
echo "scale smoke: 8-node rack byte-identical at 1, 2 and 4 domains," \
     "and over ten 2-domain repeats"

dune exec bench/wallclock.exe -- \
  --domains "${SMOKE_DOMAINS:-4}" --no-domain-probe -o _ci_wallclock.json
rm -f _ci_wallclock.json
