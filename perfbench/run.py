#!/usr/bin/env python3
"""Build the LineFS simulator from source and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload seqwrite_busy --seed 1 --seconds 30 --trace 0

Workloads, metrics and bounds are declared in BENCHMARK.json.  The
last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics"; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
Build output goes to standard error.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv):
    if "--trace" not in argv or argv.index("--trace") + 1 >= len(argv):
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1", 2)
    trace = argv[argv.index("--trace") + 1]
    for needed in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a full checkout of the repository", 2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed", 3)
    # Run on one CPU: the host's cores slow down and speed up
    # independently, and the run rescales each repetition's host times by
    # a reference kernel timed between repetitions, which only tracks the
    # speed of the core the repetition ran on.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    try:
        run = subprocess.run([EXE] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("run timed out", 4)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"benchmark exited with code {run.returncode}", 5)
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        print("\n".join(lines[:-1]))
        fail("metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"unit mismatches {sorted(k for k in got if k in want and got[k] != want[k])}", 6)
    print("\n".join(lines))


if __name__ == "__main__":
    main(sys.argv[1:])
