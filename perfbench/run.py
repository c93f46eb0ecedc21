"""Benchmark entry point: runs one workload for a given time and prints its metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  Each round is a fresh interpreter
(``round.py``) with ``PYTHONPATH=src``, the import path the test suite uses,
so the library's caches start cold.  Rounds repeat until the next one would
overrun ``--seconds`` (at least two untraced rounds, or one untraced and one
traced round with ``--trace 1``); metrics are medians over rounds.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The full result, with provenance and every round, goes to ``perfbench/out/``.
"""

import argparse
import glob
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import EXACT, LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
HARD_LIMIT_S = 170.0  # a run must end within 180 s
OUT_DIR = os.path.join("perfbench", "out")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def provenance():
    # the checkout's own revision only: git must not find a repository above it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, env=env
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "git_revision": rev,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def tail_percentile(ops_per_round):
    """The highest whole percentile with at least ten operations beyond it in
    a pool of two rounds; 100 (the maximum) when two rounds hold fewer than 11.
    It is fixed per workload, so more rounds estimate the same quantile."""
    n = 2 * ops_per_round
    return 100 if n < 11 else math.floor(100 * (n - 10) / n)


def percentile(values, p):
    """Nearest-rank percentile."""
    v = sorted(values)
    return v[max(0, math.ceil(p / 100 * len(v)) - 1)]


def run_round(name, seed, traced, smoke, index, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"  # same set orders, so exact counts repeat
    argv = [sys.executable, os.path.join(HERE, "round.py"), name, str(seed),
            "1" if traced else "0", "1" if smoke else "0"]
    if traced:
        argv.append(os.path.join(OUT_DIR, f"spans-{name}-s{seed}-r{index}.json"))
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{name} round {index} did not finish within the {HARD_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"{name} round {index} exited with code {proc.returncode}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec["t_first"] - t_spawn
    rec["traced"] = traced
    return rec


def run_rounds(args):
    """Untraced rounds, or untraced/traced pairs with --trace 1, until the next
    round or pair would overrun --seconds."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    plan = [False, True] if args.trace else [False]
    rounds, longest = [], 0.0
    while True:
        t = time.monotonic()
        for traced in plan:
            rounds.append(run_round(args.workload, args.seed, traced, args.smoke, len(rounds), deadline))
        longest = max(longest, time.monotonic() - t)
        budget = min(args.seconds, HARD_LIMIT_S) if len(rounds) >= 2 else HARD_LIMIT_S
        if time.monotonic() - start + longest > budget:
            return rounds


def end_to_end(rounds):
    lat = [x for r in rounds for x in r["lat_ms"]]
    p_tail = tail_percentile(len(rounds[0]["lat_ms"]))
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": percentile(lat, p_tail),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    note = f"{len(rounds)} rounds; {len(lat)} operations; tail is p{p_tail}"
    return {m: {"value": values[m], "unit": u} for m, u in END_TO_END}, note


def per_layer(rounds):
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    first = traced[0]["layers"]
    drift = [m for m in EXACT for r in traced[1:] if r["layers"][m] != first[m]]
    values = {}
    for m, _ in LAYER_METRICS:
        if m in EXACT:
            values[m] = first[m]
        else:
            values[m] = statistics.median(r["layers"][m] for r in traced)
    attempted = sum(r["attempted"] for r in rounds)
    values["failed_ratio"] = sum(r["failed"] for r in rounds) / attempted
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in untraced))
    values["trace.unaccounted_s"] = statistics.median(r["wall_s"] - r["traced_s"] for r in traced)
    units = dict(LAYER_METRICS)
    units.update({"failed_ratio": "ratio", "trace.overhead_s": "s", "trace.unaccounted_s": "s"})
    note = f"{len(traced)} traced and {len(untraced)} untraced rounds; spans kept: {traced[0]['spans']}"
    if drift:
        note += f"; exact counts differ between traced rounds: {sorted(set(drift))}"
    return {m: {"value": v, "unit": units[m]} for m, v in values.items()}, note


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="shrunken inputs, for the self-test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "ogzkit", "__init__.py")):
        fail("run from the root of an ogzkit checkout: src/ogzkit is missing")
    built = glob.glob(os.path.join("src", "ogzkit", "_poly_cy*.so"))
    if built:
        fail(f"a built kernel extension would replace the pure kernel the tests use: {built}")
    os.makedirs(OUT_DIR, exist_ok=True)

    prov = provenance()
    rounds = run_rounds(args)
    kernels = {(r["kernel"], r["qq"]) for r in rounds}
    if len(kernels) != 1:
        fail(f"rounds ran different kernels or rational types: {sorted(kernels)}")
    prov["kernel"], prov["qq"] = kernels.pop()
    print("provenance " + json.dumps(prov, sort_keys=True))

    if args.trace:
        metrics, note = per_layer(rounds)
    else:
        metrics, note = end_to_end(rounds)
    for r in rounds:
        kind = "traced" if r["traced"] else "untraced"
        print(f"round {kind}: setup {r['setup_s']:.3f} s, wall {r['wall_s']:.3f} s, "
              f"{r['attempted']} ops, {r['failed']} failed, rss {r['peak_rss_mb']:.1f} MB")
        for e in r["errors"]:
            print(f"  FAILED {e}")
    print(f"{args.workload} seed {args.seed}: {note}")

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    path = os.path.join(OUT_DIR, f"result-{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "smoke": args.smoke, "provenance": prov,
                   "result": result,
                   "rounds": [{k: v for k, v in r.items() if k != "lat_ms"} for r in rounds],
                   "lat_ms": [r["lat_ms"] for r in rounds]}, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
