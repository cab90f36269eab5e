"""In-process tracing of `buchi` by its layers, from outside the package.

`Tracer.install()` replaces the functions and methods named in `TARGETS`
with timing wrappers, on every module attribute and class attribute that
holds them, since that is where callers look them up at call time (for
example `buchi.surfaces.is_square_rat`, `buchi.reduction.compile_system`
and `UPoly.__mul__`).  `Tracer.remove()` puts the originals back.

Each call becomes a span with a name, start, end, parent span and the
invocation it belongs to.  Self time (span minus children) and call
counts are summed as spans close, so they are exact; the span records
themselves are kept in memory up to `SPAN_CAP` and written once at the
end, because the hottest leaves are called millions of times.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

import oracles

SPAN_CAP = 50_000


def _pairs(bound: int) -> int:
    # (x1, x2) in [0, bound]**2 of opposite parity: the pairs a brute-force
    # search visits.
    return 2 * (bound // 2 + 1) * ((bound + 1) // 2)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _observe_search(tr, args, kwargs, result, parent):
    tr.counts["sequences.pairs"] += _pairs(_arg(args, kwargs, 1, "bound"))
    tr.counts["sequences.found"] += len(result)


def _observe_scan(tr, args, kwargs, result, parent):
    height = _arg(args, kwargs, 1, "height")
    integers_only = kwargs.get("integers_only", args[2] if len(args) > 2 else False)
    tr.counts["surfaces.scan.grid"] += oracles.grid_size(height, integers_only)
    tr.counts["surfaces.scan.found"] += len(result)


def _observe_radii(index: int):
    def observe(tr, args, kwargs, result, parent):
        tr.counts["nevanlinna.radii"] += len(list(_arg(args, kwargs, index, "rhos")))
    return observe


def _observe_expand(tr, args, kwargs, result, parent):
    if parent is None or parent[1] != "reduction.parser.expand":
        tr.counts["reduction.parser.expand.terms"] += len(result.terms)


def _observe_len(counter: str, attribute: str):
    def observe(tr, args, kwargs, result, parent):
        tr.counts[counter] += len(getattr(result, attribute))
    return observe


def _observe_emit(tr, args, kwargs, result, parent):
    tr.counts["reduction.compiler.emit_bytes"] += len(result.encode("utf-8"))


# (module, function or Class.method, span name, observer).  Only
# layer-level entry points are listed; helpers too small to time on their
# own (as_fraction, UPoly.__init__, properties) count in their caller.
TARGETS = [
    ("buchi.exact", "is_square_int", "exact.is_square_int", None),
    ("buchi.exact", "is_square_rat", "exact.is_square_rat", None),
    ("buchi.exact", "valuation", "exact.valuation", None),
    ("buchi.exact", "is_prime", "exact.is_prime", None),
    ("buchi.symbolic", "UPoly.__add__", "symbolic.upoly_add", None),
    ("buchi.symbolic", "UPoly.__sub__", "symbolic.upoly_sub", None),
    ("buchi.symbolic", "UPoly.__neg__", "symbolic.upoly_neg", None),
    ("buchi.symbolic", "UPoly.__mul__", "symbolic.upoly_mul", None),
    ("buchi.symbolic", "UPoly.__pow__", "symbolic.upoly_pow", None),
    ("buchi.symbolic", "UPoly.__divmod__", "symbolic.upoly_divmod", None),
    ("buchi.symbolic", "UPoly.gcd", "symbolic.upoly_gcd", None),
    ("buchi.symbolic", "UPoly.derivative", "symbolic.upoly_derivative", None),
    ("buchi.symbolic", "RatFunc.__init__", "symbolic.ratfunc_new", None),
    ("buchi.symbolic", "RatFunc.__add__", "symbolic.ratfunc_add", None),
    ("buchi.symbolic", "RatFunc.__sub__", "symbolic.ratfunc_sub", None),
    ("buchi.symbolic", "RatFunc.__mul__", "symbolic.ratfunc_mul", None),
    ("buchi.symbolic", "RatFunc.__truediv__", "symbolic.ratfunc_div", None),
    ("buchi.symbolic", "RatFunc.__pow__", "symbolic.ratfunc_pow", None),
    ("buchi.symbolic", "RatFunc.derivative", "symbolic.ratfunc_derivative", None),
    ("buchi.symbolic", "RatFunc.__eq__", "symbolic.ratfunc_eq", None),
    ("buchi.symbolic", "MPoly.__init__", "symbolic.mpoly_new", None),
    ("buchi.symbolic", "MPoly.__add__", "symbolic.mpoly_add", None),
    ("buchi.symbolic", "MPoly.__mul__", "symbolic.mpoly_mul", None),
    ("buchi.symbolic", "MPoly.__pow__", "symbolic.mpoly_pow", None),
    ("buchi.sequences", "search", "sequences.search", _observe_search),
    ("buchi.sequences", "closed_form", "sequences.closed_form", None),
    ("buchi.sequences", "is_buchi", "sequences.is_buchi", None),
    ("buchi.sequences", "classify_trivial", "sequences.classify_trivial", None),
    ("buchi.sequences", "BuchiSequence.__init__", "sequences.sequence_new", None),
    ("buchi.surfaces", "scan_exceptional", "surfaces.scan", _observe_scan),
    ("buchi.surfaces", "EvaluationNodes.__init__", "surfaces.nodes_new", None),
    ("buchi.surfaces", "MonicQuadratic.__init__", "surfaces.quadratic_new", None),
    ("buchi.nevanlinna", "newton_polygon", "nevanlinna.newton_polygon", None),
    ("buchi.nevanlinna", "gauss_log_norm", "nevanlinna.gauss_log_norm", None),
    ("buchi.nevanlinna", "height_N", "nevanlinna.height_N", None),
    ("buchi.nevanlinna", "prox_m", "nevanlinna.prox_m", None),
    ("buchi.nevanlinna", "check_pjf", "nevanlinna.check_pjf", _observe_radii(2)),
    ("buchi.nevanlinna", "check_fmt", "nevanlinna.check_fmt", _observe_radii(3)),
    ("buchi.nevanlinna", "check_smt", "nevanlinna.check_smt", _observe_radii(3)),
    ("buchi.nevanlinna", "check_ldl", "nevanlinna.check_ldl", None),
    ("buchi.nevanlinna", "delta_identity", "nevanlinna.delta_identity", None),
    ("buchi.reduction.parser", "parse", "reduction.parser.parse", None),
    ("buchi.reduction.parser", "parse_poly", "reduction.parser.parse_poly", None),
    ("buchi.reduction.parser", "expand", "reduction.parser.expand", _observe_expand),
    ("buchi.reduction.parser", "evaluate", "reduction.parser.evaluate", None),
    ("buchi.reduction.lower", "lower_tac", "reduction.lower.lower_tac",
     _observe_len("reduction.lower.instrs", "instrs")),
    ("buchi.reduction.lower", "eliminate_mul", "reduction.lower.eliminate_mul",
     _observe_len("reduction.lower.squarings", "squarings")),
    ("buchi.reduction.lower", "LinearEq.residual", "reduction.lower.residual", None),
    ("buchi.reduction.compiler", "compile_system", "reduction.compiler.compile_system", None),
    ("buchi.reduction.compiler", "validate_target", "reduction.compiler.validate_target", None),
    ("buchi.reduction.compiler", "bounded_equisat", "reduction.compiler.bounded_equisat", None),
    ("buchi.reduction.compiler", "translate_witness", "reduction.compiler.translate_witness",
     None),
    ("buchi.reduction.compiler", "TargetSystem.extend", "reduction.compiler.extend", None),
    ("buchi.reduction.compiler", "TargetSystem.satisfied", "reduction.compiler.satisfied",
     None),
    ("buchi.reduction.compiler", "TargetSystem.to_json", "reduction.compiler.to_json",
     _observe_emit),
    ("buchi.reduction.compiler", "TargetSystem.to_text", "reduction.compiler.to_text",
     _observe_emit),
    ("buchi.cli", "main", "cli.main", None),
]

# Spans inside which RatFunc constructions are counted per radius.
GRID_CHECKS = frozenset({"nevanlinna.check_pjf", "nevanlinna.check_fmt",
                         "nevanlinna.check_smt"})

LAYERS = ("exact", "symbolic", "sequences", "surfaces", "nevanlinna",
          "reduction.parser", "reduction.lower", "reduction.compiler", "cli")


def write_spans(path: str, spans: list[tuple], dropped: int) -> None:
    """The spans of one traced pass, written once as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["id", "parent", "name", "start", "end", "invocation"],
                   "dropped": dropped, "spans": spans}, handle)


def layer_of(span_name: str) -> str:
    return span_name.rsplit(".", 1)[0]


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("pairs_per_s"):
        return "1/s"
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith("_per_radius"):
        return "count/radius"
    return "count"


class Tracer:
    """Span recorder.  Not reentrant across threads: `buchi` runs on one."""

    def __init__(self):
        self.stack: list[list] = []      # [span id, name, seconds in children]
        self.invocation = 0
        self.grid_depth = 0
        self._next_id = 0
        self._patches: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Start new sums and a new span list; installed wrappers stay."""
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.spans = []
        self.dropped = 0

    def _wrap(self, fn, name: str, observe):
        tracer = self
        stack = self.stack
        clock = time.perf_counter
        grid = name in GRID_CHECKS
        counts_in_grid = name == "symbolic.ratfunc_new"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._next_id += 1
            frame = [tracer._next_id, name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            if grid:
                tracer.grid_depth += 1
            elif counts_in_grid and tracer.grid_depth:
                tracer.counts["nevanlinna.grid_ratfunc_new"] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if grid:
                    tracer.grid_depth -= 1
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((frame[0], parent[0] if parent else 0, name,
                                         start, end, tracer.invocation))
                else:
                    tracer.dropped += 1
            if observe is not None:
                observe(tracer, args, kwargs, result, parent)
            return result
        return traced

    def install(self) -> None:
        for module_name, *_ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for key, m in sys.modules.items()
                   if (key == "buchi" or key.startswith("buchi.")) and m is not None]
        for module_name, path, span, observe in TARGETS:
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                holders = [(cls, key) for key, value in list(cls.__dict__.items())
                           if value is original]
            else:
                original = getattr(module, path)
                holders = [(m, key) for m in modules
                           for key, value in list(vars(m).items()) if value is original]
            wrapper = self._wrap(original, span, observe)
            for holder, key in holders:
                self._patches.append((holder, key, original))
                setattr(holder, key, wrapper)

    def remove(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    # -- metrics --

    def _s(self, *names: str) -> float:
        return sum(self.self_s[n] for n in names)

    def _c(self, *names: str) -> int:
        return sum(self.calls[n] for n in names)

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of the spans recorded since `reset`."""
        s, c, k = self._s, self._c, self.counts
        square_tests = ("exact.is_square_int", "exact.is_square_rat")
        emit = ("reduction.compiler.to_json", "reduction.compiler.to_text")
        search_s = s("sequences.search")
        grid = k["surfaces.scan.grid"]
        radii = k["nevanlinna.radii"]
        out = {
            "exact.square_tests.calls": c(*square_tests),
            "exact.square_tests.s": s(*square_tests),
            "exact.valuation.calls": c("exact.valuation"),
            "exact.valuation.s": s("exact.valuation"),
        }
        for short in ("upoly_mul", "upoly_divmod", "upoly_gcd", "ratfunc_new", "mpoly_mul"):
            out[f"symbolic.{short}.calls"] = c(f"symbolic.{short}")
            out[f"symbolic.{short}.s"] = s(f"symbolic.{short}")
        out.update({
            "symbolic.mpoly_new.calls": c("symbolic.mpoly_new"),
            "sequences.search.calls": c("sequences.search"),
            "sequences.search.s": search_s,
            "sequences.pairs": k["sequences.pairs"],
            "sequences.pairs_per_s": k["sequences.pairs"] / search_s if search_s else 0.0,
            "sequences.found": k["sequences.found"],
            "surfaces.scan.s": s("surfaces.scan"),
            "surfaces.scan.grid": grid,
            "surfaces.scan.found": k["surfaces.scan.found"],
            "surfaces.scan.hit_ratio": k["surfaces.scan.found"] / grid if grid else 0.0,
            "nevanlinna.newton_polygon.calls": c("nevanlinna.newton_polygon"),
            "nevanlinna.newton_polygon.s": s("nevanlinna.newton_polygon"),
            "nevanlinna.height_N.calls": c("nevanlinna.height_N"),
            "nevanlinna.prox_m.calls": c("nevanlinna.prox_m"),
            "nevanlinna.checks.s": s(*GRID_CHECKS, "nevanlinna.check_ldl"),
            "nevanlinna.delta_identity.s": s("nevanlinna.delta_identity"),
            "nevanlinna.ratfunc_per_radius":
                k["nevanlinna.grid_ratfunc_new"] / radii if radii else 0.0,
            "reduction.parser.parse.s": s("reduction.parser.parse"),
            "reduction.parser.expand.s": s("reduction.parser.expand"),
            "reduction.parser.expand.terms": k["reduction.parser.expand.terms"],
            "reduction.lower.lower_tac.s": s("reduction.lower.lower_tac"),
            "reduction.lower.instrs": k["reduction.lower.instrs"],
            "reduction.lower.eliminate_mul.s": s("reduction.lower.eliminate_mul"),
            "reduction.lower.squarings": k["reduction.lower.squarings"],
            "reduction.compiler.compile_system.s": s("reduction.compiler.compile_system"),
            "reduction.compiler.validate_target.s": s("reduction.compiler.validate_target"),
            "reduction.compiler.bounded_equisat.s": s("reduction.compiler.bounded_equisat"),
            "reduction.compiler.extend.calls": c("reduction.compiler.extend"),
            "reduction.compiler.extend.s": s("reduction.compiler.extend"),
            "reduction.compiler.emit.s": s(*emit),
            "reduction.compiler.emit_bytes": k["reduction.compiler.emit_bytes"],
            "cli.main.s": s("cli.main"),
        })
        for layer in LAYERS:
            out[f"layer.{layer}.s"] = sum(v for n, v in self.self_s.items()
                                          if layer_of(n) == layer)
        return out
