"""omlkit benchmark: two closed-loop workloads, one client each.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 40

Each workload runs in its own fresh process (``child.py``).  Set-up is
timed from spawn to the child's ``READY`` line and taken as the median of
``SETUP_REPEATS`` spawns, all but one of which stop after set-up.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).  With ``--all`` every workload runs in turn, a table
is printed, and the exit code is 1 if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("lattice", "solve")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170.0


class ChildFailed(Exception):
    pass


def _spawn(args: list[str], deadline: float):
    """Start a child, wait for READY; return (process, set-up seconds)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("OMLKIT_ELEMENT_CAP", None)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if line.strip() != "READY":
        _finish(proc, deadline)
        raise ChildFailed(f"child exited with code {proc.returncode} during set-up")
    return proc, setup_s


def _finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed("child ran past its deadline") from None
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        proc, setup_s = _spawn(base + ["--setup-only"], deadline)
        _finish(proc, deadline)
        setups.append(setup_s)
    proc, setup_s = _spawn(base, deadline)
    setups.append(setup_s)
    out = _finish(proc, deadline)
    if proc.returncode != 0 or not out.strip():
        raise ChildFailed(f"child exited with code {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_s"] = statistics.median(setups)
    return res


def end_to_end(res: dict) -> dict:
    return {
        "ops_per_s": {"value": res["ops_per_s"], "unit": "1/s"},
        "latency_p50_ms": {"value": res["latency_p50_ms"], "unit": "ms"},
        "latency_p90_ms": {"value": res["latency_p90_ms"], "unit": "ms"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": res["setup_s"], "unit": "s"},
    }


def per_layer(res: dict) -> dict:
    m = {name: {"value": v, "unit": unit} for name, (v, unit) in res["layers"].items()}
    m["cli.import_s"] = {"value": res["import_s"], "unit": "s"}
    m["trace.overhead_ratio"] = {"value": res["overhead_ratio"], "unit": "ratio"}
    m["bench.kernel_ms"] = {"value": res["kernel_ms"], "unit": "ms"}
    return m


def _summary(name: str, res: dict) -> str:
    return (f"{name}: {res['attempted']} ops in {res['passes']} passes of "
            f"{res['ops_per_pass']}, {res['samples']} per-op latencies, "
            f"failed_ratio {res['failed'] / res['attempted']:.4f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload in turn")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")

    names = WORKLOADS if args.all else (args.workload,)
    bad = 0
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace)
        except ChildFailed as e:
            print(f"{name}: {e}", file=sys.stderr)
            return 2
        for line in res["failures"]:
            print(f"{name}: FAILED {line}", file=sys.stderr)
        bad += res["failed"]
        metrics = per_layer(res) if args.trace else end_to_end(res)
        print(_summary(name, res), file=sys.stderr if not args.all else sys.stdout)
        if args.all:
            for key, m in metrics.items():
                print(f"  {key:44s} {m['value']:14.6g} {m['unit']}")
            print(f"  {'failed_ratio':44s} {res['failed'] / res['attempted']:14.6g} ratio")
            continue
        print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": metrics}))
    return 1 if args.all and bad else 0


if __name__ == "__main__":
    sys.exit(main())
