"""Spans around the benchmark's calls into omlkit, kept in memory.

A span is (name, start, end, parent, op id).  Each op gets a span named
``op.<kind>``; each library call inside it gets a child span named
``<module>.<function>``.  Nested library work (``paste`` calling
``verify_oml``, ``modal_extend`` calling ``center``) stays inside its
caller's span: the spans come from the benchmark's side of the boundary.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict

# The per-layer functions reported by name, whether or not a workload calls
# them; a function a workload never calls reports 0.
LAYER_FUNCTIONS = (
    "greechie.parse_greechie", "greechie.paste",
    "vectors.parse_vectors",
    "interchange.parse_interchange",
    "core.verify_oml", "core.center", "core.product",
    "boolalg.enumerate_blocks",
    "sheaf.build_poset", "sheaf.solve_global", "sheaf.render_answer",
    "modal.modal_extend", "modal.check_modal_axioms", "modal.possibility_space",
    "modal.actualize", "modal.born_extend", "modal.global_actualization_check",
)

COUNTS = ("core.elements", "boolalg.blocks", "vectors.contexts", "sheaf.poset_nodes",
          "sheaf.sections", "sheaf.certificate_contexts")


def span_name(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.counts: Counter = Counter()
        self.maximal_nodes = 0
        self.counting = False
        self._op: tuple[int, int] | None = None  # (span index, op id)

    def begin_op(self, op_id: int) -> None:
        self.spans.append(("", 0.0, 0.0, None, op_id))
        self._op = (len(self.spans) - 1, op_id)

    def end_op(self, kind: str, start: float, end: float) -> None:
        index, op_id = self._op
        self.spans[index] = ("op." + kind, start, end, None, op_id)
        self._op = None

    def call(self, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        end = time.perf_counter()
        parent, op_id = self._op
        name = span_name(fn)
        self.spans.append((name, start, end, parent, op_id))
        if self.counting:
            self._count(name, args, out)
        return out

    def _count(self, name, args, out) -> None:
        c = self.counts
        if name in ("greechie.paste", "core.verify_oml", "core.product",
                    "interchange.parse_interchange"):
            c["core.elements"] += out.n
        elif name == "boolalg.enumerate_blocks":
            c["boolalg.blocks"] += len(out)
        elif name == "vectors.parse_vectors":
            c["vectors.contexts"] += len(out.contexts)
        elif name == "sheaf.build_poset":
            c["sheaf.poset_nodes"] += out.n
        elif name == "sheaf.solve_global":
            c["sheaf.sections"] += len(out.sections)
            if not out.sat:
                c["sheaf.certificate_contexts"] += len(out.certificate)
                self.maximal_nodes += len(args[0].maximal_nodes())

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function median ms and share of the traced time, the
        benchmark's own self time, and the per-pass counts."""
        durations = defaultdict(list)
        op_total = 0.0
        child_total = 0.0
        for name, start, end, parent, _ in self.spans:
            if parent is None:
                op_total += end - start
            else:
                durations[name].append(end - start)
                child_total += end - start
        out = {}
        for name in LAYER_FUNCTIONS:
            d = durations.get(name, [])
            out[f"{name}.ms"] = (statistics.median(d) * 1e3 if d else 0.0, "ms")
            out[f"{name}.share"] = (sum(d) / op_total if op_total else 0.0, "ratio")
        out["bench.self.share"] = ((op_total - child_total) / op_total if op_total else 0.0,
                                   "ratio")
        for name in COUNTS:
            out[name] = (self.counts[name], "count")
        removed = self.maximal_nodes - self.counts["sheaf.certificate_contexts"]
        out["sheaf.certificate_removed_ratio"] = (
            removed / self.maximal_nodes if self.maximal_nodes else 0.0, "ratio")
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")
