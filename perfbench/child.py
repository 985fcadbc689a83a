"""One workload in one fresh process: set up, then the timed passes.

Started by ``run.py``, which times it from spawn to the ``READY`` line it
prints after set-up.  The last stdout line is a JSON object with the raw
results.  The library is imported from this checkout's ``src``; if it is
not there the process exits with code 2 before ``READY``.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

# Host speed.  A shared virtual machine can slow down by up to 1.7x for
# minutes at a time, longer than a run, and per-op minima cannot remove
# that.  So every op is followed, outside its timing, by one
# run of a fixed calibration kernel: benchmark code only, a dict-and-sort
# part and a small numpy part, like the library's own mix.  Each latency of
# a pass is scaled by CAL_REF_S / (the pass's tenth-percentile kernel time):
# it reads in milliseconds at the host speed at which the kernel takes
# CAL_REF_S.  A change to omlkit moves the ops but not the kernel.
CAL_REF_S = 1e-3
CAL_QUANTILE = 0.1
_CAL_MATRIX = np.random.default_rng(0).random((72, 72)) < 0.2


def calibration_kernel() -> int:
    d: dict[int, int] = {}
    for i in range(1500):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) + i
    odd = tuple(v for _, v in sorted(d.items()) if v & 1)
    a = _CAL_MATRIX[:48, :48]
    pairs = (a[:, None, :] & a.T[None, :, :]).any(axis=2)
    u = _CAL_MATRIX.astype(np.uint8)
    reach = (u @ u.T) > 0
    return (len(odd) + int((pairs | a).sum()) + int((reach & ~_CAL_MATRIX).sum())
            + len(np.argwhere(reach[:40])))


def _time_kernel() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


class Runner:
    """Runs whole passes over the op list and judges every result.

    The first pass checks each result outside the op's timing; later passes
    compare their results with the first one by digest.  Each run gets its
    own deep copy of the op's inputs, made before the clock starts.  Each
    op is followed by one untimed run of the calibration kernel.
    """

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list = [None] * len(ops)
        self.checked = False
        self.kernel_s: list[float] = []  # each pass's CAL_QUANTILE kernel time

    def timed_passes(self, seconds: float, call, tracer=None) -> list[list]:
        """Whole passes until ``seconds`` of op time have run; each pass
        gives the latency of each op (None where the op failed), scaled to
        the reference host speed."""
        passes, timed = [], 0.0
        while timed < seconds:
            gc.collect()
            if tracer is not None:
                tracer.counting = not passes
            lat, kernel = [], []
            for i, op in enumerate(self.ops):
                inputs = copy.deepcopy(op.inputs)
                if tracer is not None:
                    tracer.begin_op(i)
                start = time.perf_counter()
                try:
                    res, err = op.run(call, *inputs), None
                except Exception as e:  # a raising op is a failed op, not a crash
                    res, err = None, f"raised {type(e).__name__}: {e}"
                end = time.perf_counter()
                if tracer is not None:
                    tracer.end_op(op.kind, start, end)
                timed += end - start
                if err is None:
                    err = self._judge(i, op, res)
                lat.append(end - start if err is None else None)
                kernel.append(_time_kernel())
                self.attempted += 1
                if err is not None:
                    self.failed += 1
                    if len(self.failures) < 10:
                        self.failures.append(f"{op.label}: {err}")
            kernel.sort()
            self.kernel_s.append(kernel[int(len(kernel) * CAL_QUANTILE)])
            scale = CAL_REF_S / self.kernel_s[-1]
            passes.append([None if t is None else t * scale for t in lat])
            self.checked = True
        return passes

    def _judge(self, i, op, res) -> str | None:
        if not self.checked:
            try:
                op.check(res)
            except Exception as e:
                return f"check: {type(e).__name__}: {e}"
            self.digests[i] = op.digest(res)
            return None
        if self.digests[i] is None:
            return "failed its check in the first pass"
        if op.digest(res) != self.digests[i]:
            return "output differs from the first pass"
        return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    try:
        import omlkit.cli  # noqa: F401  the CLI's import cost is part of set-up
    except ImportError as e:
        print(f"cannot import omlkit from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    import omlkit
    if Path(omlkit.__file__).resolve().parent != ROOT / "src" / "omlkit":
        print(f"omlkit came from {omlkit.__file__}, not this checkout", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, plain_call, selfcheck
    rng = random.Random(args.seed)
    ops = WORKLOADS[args.workload](rng)
    warmed = set()
    for op in ops:
        if op.kind not in warmed:
            warmed.add(op.kind)
            try:
                op.run(plain_call, *copy.deepcopy(op.inputs))
            except Exception:
                pass  # the timed run counts it as failed
    calibration_kernel()
    rng.shuffle(ops)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    selfcheck()

    for op in ops:
        if op.prepare is not None:
            try:
                op.prepare()
            except Exception:
                pass  # no reference: the op's check fails
    runner = Runner(ops)
    out = {"import_s": import_s, "ops_per_pass": len(ops)}
    if args.trace:
        from tracing import Tracer
        plain = runner.timed_passes(args.seconds / 2, plain_call)
        tracer = Tracer()
        traced = runner.timed_passes(args.seconds / 2, tracer.call, tracer)
        out["layers"] = tracer.layer_metrics()
        out["overhead_ratio"] = sum(_best(traced)) / sum(_best(plain))
        out["kernel_ms"] = statistics.median(runner.kernel_s) * 1e3
        tracer.write(HERE / "out" / f"{args.workload}.jsonl")
    else:
        plain = runner.timed_passes(args.seconds, plain_call)
    best = _best(plain)
    cuts = statistics.quantiles(best, n=10, method="inclusive")
    out.update({
        "attempted": runner.attempted, "failed": runner.failed,
        "failures": runner.failures, "passes": len(plain),
        "samples": len(best),
        "ops_per_s": len(best) / sum(best),
        "latency_p50_ms": cuts[4] * 1e3,
        "latency_p90_ms": cuts[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    print(json.dumps(out), flush=True)
    return 0


def _best(passes) -> list[float]:
    """Each op's fastest completed run over the passes.  Bursts of load
    from other tenants of a shared machine only ever add time, so the
    minimum is the steadiest estimate of what the op itself costs."""
    per_op = zip(*passes)
    return [min(got) for got in ([t for t in ts if t is not None] for ts in per_op) if got]


if __name__ == "__main__":
    sys.exit(main())
