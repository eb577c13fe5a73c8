"""Spans around the public entry points of each tsoreach layer.

The tracer patches each entry point where its caller looks it up (for
example ``solvers.rm_step``, the name ``_bfs`` calls, rather than
``model.rm_step``), so no code under ``src/`` changes.  Every call opens a
span with a name, start, end and parent; a layer's self time is the span's
duration minus the time of its child spans.  Spans stay in memory and are
written out as JSON lines by ``write_jsonl``.

The hot leaves (``rm_step`` and ``step_unchecked``, hundreds of thousands
of calls per suite) are folded into one record per parent span holding the
call count and the summed total and self time, which keeps memory bounded.
"""

from __future__ import annotations

import contextlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# span name -> (module whose attribute is patched, attribute); the layer is
# the part of the span name before the dot
PATCHES = {
    "dsl.parse_input": ("tsoreach.dsl", "parse_input"),
    "dsl.parse_coverability": ("tsoreach.dsl", "parse_coverability"),
    "translate.build_register_machine": ("tsoreach.cli", "build_register_machine"),
    "translate.encode_coverability_to_rm": ("tsoreach.cli", "encode_coverability_to_rm"),
    "translate.encode_rm_to_coverability": (
        "tsoreach.solvers", "encode_rm_to_coverability_labelled"),
    "solvers.solve_auto": ("tsoreach.cli", "solve_auto"),
    "solvers.finite": ("tsoreach.solvers", "solve_finite"),
    "solvers.counter": ("tsoreach.solvers", "solve_counter"),
    "solvers.stack": ("tsoreach.solvers", "solve_stack"),
    "solvers.petri": ("tsoreach.solvers", "solve_petri"),
    "solvers.wsts": ("tsoreach.solvers", "solve_wsts"),
    "model.rm_step": ("tsoreach.solvers", "rm_step"),
    "model.lower_tier3_to_tier2": ("tsoreach.model", "lower_tier3_to_tier2"),
    "model.lower_tier2_to_tier1": ("tsoreach.model", "lower_tier2_to_tier1"),
    "adt.step_unchecked@model": ("tsoreach.model", "step_unchecked"),
    "adt.step_unchecked@pivot": ("tsoreach.pivot", "step_unchecked"),
    "adt.step_unchecked@tso": ("tsoreach.tso", "step_unchecked"),
    "pds.pre_star": ("tsoreach.solvers", "pre_star"),
    "pds.witness": ("tsoreach.pds", "PreStarResult.witness"),
    "coverability.backward_reach": ("tsoreach.solvers", "backward_reach"),
    "pivot.pivot_reach": ("tsoreach.cli", "pivot_reach"),
    "tso.bounded_reach": ("tsoreach.cli", "bounded_reach"),
}

HOT = {"model.rm_step", "adt.step_unchecked@model", "adt.step_unchecked@pivot",
       "adt.step_unchecked@tso"}


def _counts(name, args, kwargs, result):
    """Counters read at a span boundary from the call's arguments and result."""
    if name.startswith("dsl.parse"):
        return {"dsl.input_bytes": len(args[0].encode())}
    if name == "translate.build_register_machine":
        return {"translate.rm_registers": len(result.registers),
                "translate.rm_edges": len(result.delta)}
    if name == "solvers.solve_auto":
        return {"solvers.explored": result.stats.explored,
                "solvers.inconclusive": int(not result.conclusive)}
    if name == "pds.pre_star":
        return {"pds.rules": len(args[0].rules), "pds.transitions": len(result.transitions)}
    if name == "coverability.backward_reach":
        return {"coverability.explored": result.explored,
                "coverability.iterations": result.iterations}
    if name == "pivot.pivot_reach":
        # an inconclusive search stopped either at the budget or because it
        # pruned values above the value bound
        stopped = not result.conclusive
        at_budget = stopped and result.stats.explored >= kwargs["budget"]
        return {"pivot.explored": result.stats.explored,
                "pivot.states": result.stats.iterations,
                "pivot.budget_hits": int(at_budget),
                "pivot.value_pruned": int(stopped and not at_budget)}
    if name == "tso.bounded_reach":
        return {"tso.explored": result.stats.explored,
                "tso.witnesses": int(result.outcome == "reachable")}
    return None


class Tracer:
    """Spans, per-name call counts and self times, and counters of one run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []  # regular spans, in start order
        self.folded: dict = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> calls, total, self
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.request: str | None = None
        # open frames: [span index or None, child time]
        self._stack: list[list] = []

    def span(self, name: str, fn):
        """fn wrapped so that each call records a span named name.

        The span runs from the wrapper's entry to the end of its own
        bookkeeping, and that whole interval is the parent's child time, so
        the tracer's cost is billed to the traced call rather than to the
        layer above it.
        """
        stack = self._stack
        hot = name in HOT

        def wrapper(*args, **kwargs):
            start = perf_counter()
            # the innermost open span that has a record (hot frames have none)
            parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
            idx = None
            if not hot:
                idx = len(self.spans)
                self.spans.append({"id": idx, "name": name, "parent": parent,
                                   "request": self.request})
            frame = [idx, 0.0]  # record index, child time
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                counts = None if hot else _counts(name, args, kwargs, result)
                if counts:
                    for key, value in counts.items():
                        self.counts[key] += value
            finally:
                stack.pop()
                self.calls[name] += 1
                if hot:
                    rec = self.folded[(parent, name)]
                else:
                    rec = self.spans[idx]
                end = perf_counter()
                total = end - start
                own = total - frame[1]
                if stack:
                    stack[-1][1] += total
                self.self_s[name] += own
                if hot:
                    rec[0] += 1
                    rec[1] += total
                    rec[2] += own
                else:
                    rec.update(start=start, end=end, self_s=own)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install every span in PATCHES for the duration of the block."""
        saved = []
        try:
            for name, (module, attr) in PATCHES.items():
                owner = sys.modules[module]
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.span(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            for (parent, name), (calls, total, own) in self.folded.items():
                fh.write(json.dumps({"name": name, "parent": parent, "calls": calls,
                                     "total_s": total, "self_s": own}) + "\n")

