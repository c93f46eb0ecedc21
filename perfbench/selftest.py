"""Self-test of the benchmark, on shrunken inputs; takes well under a minute.

usage (from the root of the repository): python3 perfbench/selftest.py

Checks that
  * run.py prints exactly the metrics BENCHMARK.json names, with their units,
    traced and untraced, on every workload;
  * exact counts repeat between two traced runs;
  * a corrupted result is counted as a failed operation on every workload;
  * the tracer puts back every attribute it patched: an untraced round after a
    traced one gives the same digest;
  * run.py exits nonzero, printing no result, where there is no library.
"""

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracer import EXACT, Tracer  # noqa: E402
from workloads import WORKLOADS, run_round  # noqa: E402


def check(cond, what):
    if not cond:
        raise AssertionError(what)
    print(f"ok   {what}")


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS), "BENCHMARK.json names the four workloads")
    for workload in WORKLOADS:
        layers = []
        for trace in (0, 1, 1):
            proc = bench(workload, trace)
            check(proc.returncode == 0, f"{workload} --trace {trace} exits 0")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"]
                  and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} --trace {trace}: result keys, no failures")
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            check(got == want[trace], f"{workload} --trace {trace}: metric names and units match BENCHMARK.json")
            if trace:
                layers.append(result["metrics"])
        same = all(layers[0][m]["value"] == layers[1][m]["value"] for m in EXACT)
        check(same, f"{workload}: exact counts repeat between two traced runs")


class CorruptOnce:
    """Wrap owner.attr so that ``change`` may alter one result."""

    def __init__(self, owner, attr, change):
        self.owner, self.attr, self.change = owner, attr, change
        self.orig = owner.__dict__[attr]
        self.done = False

    def __enter__(self):
        orig = self.orig

        def wrapper(*args, **kwargs):
            out = orig(*args, **kwargs)
            if not self.done:
                self.done, out = self.change(args, out)
            return out

        setattr(self.owner, self.attr, wrapper)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.orig)


def _bump(vec):
    """A copy of a coefficient vector with one coefficient changed."""
    out = dict(vec)
    k = min(out)
    out[k] = out[k] + 1
    return out


def check_corruption():
    from ogzkit import gzmod, latwalk

    def bad_history(args, out):
        args[0].rank_history.append(0)
        return True, out

    def bad_vector(args, vec):
        return bool(vec), _bump(vec) if vec else vec

    def bad_multiplier_vector(args, vec):
        return bad_vector(args, vec) if args[1][0] == "multiplier" else (False, vec)

    def reversed_walk(args, walk):
        return len(walk) > 1, walk[::-1]

    W = gzmod.ModuleWindow
    cases = {
        "window_build": (W, "certify_rank", bad_history),
        "window_solve": (W, "act", bad_vector),
        "window_structural": (W, "act_structural", bad_multiplier_vector),
        "cli_batch": (latwalk, "find_path", reversed_walk),
    }
    for workload in WORKLOADS:
        owner, attr, change = cases[workload]
        with CorruptOnce(owner, attr, change) as c:
            rec = run_round(workload, 7, smoke=True)
        check(c.done and rec["failed"] >= 1 and owner.__dict__[attr] is c.orig,
              f"{workload}: a corrupted result is counted as failed ({rec['failed']} of {rec['attempted']})")


def check_restore():
    for workload in WORKLOADS:
        tracer = Tracer()
        before = run_round(workload, 7, smoke=True)
        traced = run_round(workload, 7, smoke=True, tracer=tracer)
        after = run_round(workload, 7, smoke=True)
        check(before["digest"] == traced["digest"] == after["digest"] and after["failed"] == 0,
              f"{workload}: same digest untraced, traced, and untraced again")
    probe = Tracer()
    probe.install()
    saved = list(probe._saved)
    probe.remove()
    check(all(owner.__dict__[attr] is raw for owner, attr, raw in saved),
          f"tracer puts back all {len(saved)} patched attributes")


def check_bare_directory():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = bench("window_build", 0, cwd=bare)
        check(proc.returncode != 0 and "correct" not in proc.stdout,
              "without the library, run.py exits nonzero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    t0 = time.monotonic()
    check_metric_names()
    check_corruption()
    check_restore()
    check_bare_directory()
    print(f"self-test passed in {time.monotonic() - t0:.1f} s")


if __name__ == "__main__":
    main()
