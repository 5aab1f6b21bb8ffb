"""Per-layer tracing from outside the program.

`Tracer.install` wraps public functions of the qcollapse modules by rebinding
module attributes: every `qcollapse.*` module attribute that is the original
function (the defining module's, and every `from ... import` copy) is replaced
by a wrapper, so calls inside a module and across modules are both seen.
Each call made while the tracer is enabled records a span (item, function,
start, end, parent span) in memory; the spans are written out only at the end.
A metric's self time is the summed duration of its functions' spans minus the
time covered by their child spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict


def _len_ops(result):
    return len(result.operations)


def _len_entries(result):
    return len(result.entries)


def _len_generators(result):
    return len(result[0])


def _len_constraints(result):
    return len(result.constraints)


# (module, function, self-time metric, count metric or None, count of result)
# Counts are taken on outermost calls only, so recursive builders and nested
# collapsing enumerations are counted once.
TARGETS = [
    ("model", "parse_document", "model.parse_ms", None, None),
    ("polymorph", "generate_term_operations", "polymorph.term_closure_ms",
     "polymorph.term_ops", _len_ops),
    ("polymorph", "discover_polymorphisms", "polymorph.discover_ms", None, None),
    ("polymorph", "is_polymorphism_of_language", "polymorph.poly_check_ms", None, None),
    ("polymorph", "is_polymorphism", "polymorph.poly_check_ms", None, None),
    ("polymorph", "polymorphism_failure", "polymorph.poly_check_ms", None, None),
    ("collapsibility", "plan_certificate", "collapsibility.plan_ms", None, None),
    ("collapsibility", "build_certificate", "collapsibility.build_ms",
     "collapsibility.cert_entries", _len_entries),
    ("collapsibility", "verify_certificate", "collapsibility.verify_ms", None, None),
    ("collapsibility", "detect_sink_candidate", "collapsibility.sink_ms", None, None),
    ("classify", "discovered_generators", "classify.discover_ms",
     "classify.generators", _len_generators),
    ("classify", "find_polymorphism_with_shape", "classify.shape_search_ms", None, None),
    ("collapse", "collapse_verdicts", "collapse.enumerate_ms", None, None),
    ("collapse", "relevant_collapsings", "collapse.enumerate_ms", "collapse.collapsings", len),
    ("collapse", "enumerate_j_collapsings", "collapse.enumerate_ms", None, None),
    ("collapse", "enumerate_collapsings", "collapse.enumerate_ms", None, None),
    ("collapse", "instantiate_universals", "collapse.enumerate_ms", None, None),
    ("collapse", "collapsing_to_csp", "collapse.encode_ms",
     "collapse.csp_constraints", _len_constraints),
    ("collapse", "combine_csp", "collapse.encode_ms", None, None),
    ("cspsolve", "solve_csp", "cspsolve.solve_ms", None, None),
    ("game", "evaluate_truth", "game.evaluate_ms", None, None),
    ("cli", "main", "cli.other_ms", None, None),
] + [
    ("algebra", name, "algebra.structure_ms", None, None)
    for name in (
        "is_closed", "generated_subalgebra", "enumerate_subalgebras",
        "enumerate_congruences", "quotient", "restrict", "enumerate_factors",
        "canonical_form", "is_gset", "has_gset_factor", "is_strictly_simple",
        "is_pair_minimal", "is_enclosed", "is_fully_connected",
        "disjoint_maximal_congruence",
    )
]

# functions whose call count is a metric of its own
CALL_COUNTS = {
    "generate_term_operations": "polymorph.term_closures",
    "solve_csp": "cspsolve.calls",
    "evaluate_truth": "game.calls",
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.item = -1
        self.spans: list = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span index, time covered by children]
        self._active: Counter = Counter()  # open spans per function
        self._undo: list = []

    def install(self):
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("qcollapse.")]
        for mod_name, fn_name, metric, count_metric, measure in TARGETS:
            original = getattr(importlib.import_module(f"qcollapse.{mod_name}"), fn_name)
            wrapper = self._wrap(original, fn_name, metric, count_metric, measure)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def _wrap(self, original, name, metric, count_metric, measure):
        tracer = self
        call_metric = CALL_COUNTS.get(name)

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [len(tracer.spans), 0.0]
            tracer.spans.append(None)
            stack.append(frame)
            outermost = tracer._active[name] == 0
            tracer._active[name] += 1
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._active[name] -= 1
                stack.pop()
                duration = end - start
                tracer.self_s[metric] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                tracer.spans[frame[0]] = (tracer.item, name, start, end, parent)
            if call_metric:
                tracer.counts[call_metric] += 1
            if count_metric and outermost:
                tracer.counts[count_metric] += measure(result)
            return result

        traced.__wrapped__ = original
        return traced

    def metrics(self, items: int) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for metric in sorted({t[2] for t in TARGETS}):
            out[metric] = (self.self_s.get(metric, 0.0) * 1000.0, "ms")
        for metric in sorted({t[3] for t in TARGETS if t[3]} | set(CALL_COUNTS.values())):
            out[metric] = (self.counts.get(metric, 0), "count")
        out["polymorph.closures_per_item"] = (
            self.counts.get("polymorph.term_closures", 0) / max(items, 1), "count/item"
        )
        return out

    def write_spans(self, path):
        """One tab-separated line per span: item, function, start and end in
        seconds from the first span, parent span index (-1 for none)."""
        origin = min((s[2] for s in self.spans if s), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            out.write("item\tfunction\tstart_s\tend_s\tparent\n")
            for item, name, start, end, parent in filter(None, self.spans):
                out.write(f"{item}\t{name}\t{start - origin:.6f}\t{end - origin:.6f}\t{parent}\n")
