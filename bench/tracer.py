"""Span tracing of the library's public functions, installed from outside.

`Tracer.install()` replaces each spanned function at every module-level
binding site in the triadtopos package (for example both `monoid.is_closed`
and `enumeration.is_closed`) with a wrapper that records one span per call.
Spans of one op share its op id and point at their parent span; self time
is the span's duration minus the time its direct children cover.  Spans
stay in memory until `write()`.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# module -> spanned public functions (a dotted name is a method).
SPANNED = {
    "zmod": ("maximal_cover", "chord", "parse_pcset", "transform_chord"),
    "permgroup": (
        "close_generators",
        "all_subgroups",
        "is_simply_transitive",
        "orbit",
        "PermGroup.is_group",
    ),
    "duality": (
        "ti_group",
        "plr_group",
        "dual_group",
        "plr_subgroup",
        "relabel_from",
        "sub_dual",
        "verify_dual",
        "all_orbits",
        "transform_orbit",
        "extend_commuting",
    ),
    "monoid": ("triadic_monoid", "conjugated_action", "is_closed", "closure"),
    "topos": ("left_ideals", "lt_topologies", "characteristic_morphism", "upgrade"),
    "enumeration": ("closed_covered_sets", "enumerate_rows", "case_audit"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in SPANNED.items() for f in fns)

# Functions whose result is also recorded, for yield ratios.
OUTCOMES = {"monoid.is_closed": int, "permgroup.all_subgroups": len}

ROOT = "op"


class Tracer:
    def __init__(self):
        # Each record: [op, span id, parent id, name, start ns, end ns, self ns, outcome]
        self.spans: list[list] = []
        # Open spans: [span id, covered child ns], plus start ns for the op root.
        self._stack: list[list] = []
        self._next_id = 0
        self._op = None

    def install(self) -> None:
        modules = [importlib.import_module(f"triadtopos.{m}") for m in SPANNED]
        modules.append(sys.modules["triadtopos"])
        for module_name, functions in SPANNED.items():
            home = sys.modules[f"triadtopos.{module_name}"]
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                    continue
                original = getattr(home, fn_name)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        outcome = OUTCOMES.get(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            if not stack:  # outside any op
                return fn(*args, **kwargs)
            parent = stack[-1]
            self._next_id += 1
            frame = [self._next_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[1] += end - start
            spans.append(
                [
                    self._op,
                    frame[0],
                    parent[0],
                    name,
                    start,
                    end,
                    end - start - frame[1],
                    outcome(result) if outcome else None,
                ]
            )
            return result

        return span

    def begin_op(self, op) -> None:
        self._op = op
        self._next_id += 1
        self._stack.append([self._next_id, 0, time.perf_counter_ns()])

    def end_op(self) -> None:
        span_id, covered, start = self._stack.pop()
        end = time.perf_counter_ns()
        self.spans.append([self._op, span_id, None, ROOT, start, end, end - start - covered, None])
        self._op = None

    def write(self, path: str) -> None:
        """Append the spans as JSON arrays, one per line."""
        line = '[%d,%d,%s,"%s",%d,%d,%d,%s]\n'
        with open(path, "a", encoding="utf-8") as fh:
            fh.writelines(
                line % (op, sid, "null" if parent is None else parent, name, start, end, own,
                        "null" if outcome is None else outcome)
                for op, sid, parent, name, start, end, own, outcome in self.spans
            )
        self.spans.clear()


def read_spans(path):
    """Span records from a spans file, one per line."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            yield json.loads(line)


def summarize(spans, op_count: int, mean_op_ms: float) -> dict[str, float]:
    """Per-layer metrics from the span records of `op_count` traced ops
    whose end-to-end latency averaged `mean_op_ms`."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_ns = dict.fromkeys(SPAN_NAMES, 0)
    subgroups = 0
    subgroup_spans, scan_spans = set(), set()
    # (op, parent span) -> [calls, True results]; children end before parents,
    # so the parents are matched after the loop.
    closures_under, checks_under = {}, {}
    for op, span_id, parent, name, _, _, own, outcome in spans:
        if name == ROOT:
            continue
        calls[name] += 1
        self_ns[name] += own
        if name == "monoid.is_closed":
            tally = checks_under.setdefault((op, parent), [0, 0])
            tally[0] += 1
            tally[1] += outcome
        elif name == "permgroup.all_subgroups":
            subgroups += outcome
            subgroup_spans.add((op, span_id))
        elif name == "permgroup.close_generators":
            closures_under[(op, parent)] = closures_under.get((op, parent), 0) + 1
        elif name == "enumeration.closed_covered_sets":
            scan_spans.add((op, span_id))
    closures = sum(closures_under.get(key, 0) for key in subgroup_spans)
    scan_checks = [checks_under[key] for key in scan_spans if key in checks_under]
    scan_calls = sum(n for n, _ in scan_checks)
    scan_true = sum(t for _, t in scan_checks)

    metrics: dict[str, float] = {}
    module_ms = dict.fromkeys(SPANNED, 0.0)
    for name in SPAN_NAMES:
        ms = self_ns[name] / 1e6 / op_count
        metrics[f"{name}.calls"] = calls[name] / op_count
        metrics[f"{name}.self_ms"] = ms
        module_ms[name.split(".")[0]] += ms
    for module, ms in module_ms.items():
        metrics[f"{module}.self_share"] = ms / mean_op_ms
    metrics["permgroup.all_subgroups.yield"] = subgroups / closures if closures else 0.0
    # Only the set scan's checks: elsewhere is_closed re-checks sets known
    # to be closed, and removing such checks must not read as a loss.
    metrics["monoid.is_closed.yield"] = scan_true / scan_calls if scan_calls else 0.0
    return metrics
