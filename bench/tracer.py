"""Per-layer tracing from the benchmark's side of the API.

`Tracer` wraps the listed public functions of each orthoscope module (and
methods on their class), records one span per call, and puts the original
objects back when it is closed. A function is wrapped in every orthoscope
module namespace that binds it, so `from .ratfunc import hermite_reduce`
in criteria.py is traced as well. Spans stay in memory, in flat arrays,
until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (module under orthoscope, attribute); "Class.method" wraps the method on its class.
LAYERS = (
    ("cli", "run"),
    ("parsing", "parse_system"),
    ("parsing", "parse_univariate"),
    ("report", "emit"),
    ("report", "WitnessData.verify"),
    ("criteria", "base_orthogonal"),
    ("criteria", "beta_search_log"),
    ("criteria", "beta_search_derivative"),
    ("planar", "classify_invariant_line_lift"),
    ("planar", "foliation_linearize"),
    ("planar", "system_dlog"),
    ("ratfunc", "hermite_reduce"),
    ("ratfunc", "pole_spectrum"),
    ("ratfunc", "residue_polynomial"),
    ("ratfunc", "ratio_all_rational"),
    ("ratfunc", "dlog_witness"),
    ("algebra.factor", "factor_rationals"),
    ("algebra.bipoly", "resultant_x"),
    ("algebra.bipoly", "bipoly_gcd"),
    ("algebra.numberfield", "NFElement.inverse"),
    ("algebra.unipoly", "UniPoly.__mul__"),
    ("algebra.unipoly", "UniPoly.__divmod__"),
    ("algebra.unipoly", "poly_gcd"),
    ("algebra.unipoly", "poly_xgcd"),
    ("algebra.unipoly", "squarefree_decompose"),
)
NAMES = tuple(f"{module}.{attr}" for module, attr in LAYERS)

# Layers whose first argument is remembered per request, to count recomputation.
DISTINCT = ("ratfunc.hermite_reduce", "ratfunc.pole_spectrum",
            "algebra.factor.factor_rationals")
CONSTANT_ARG = "algebra.bipoly.bipoly_gcd"


def max_degree(args) -> int:
    """Largest degree among the polynomial-like arguments; -1 if there are none."""
    best = -1
    for a in args:
        coeffs = getattr(a, "coeffs", None)          # UniPoly
        if coeffs is not None:
            best = max(best, len(coeffs) - 1)
            continue
        terms = getattr(a, "terms", None)            # BiPoly: total degree
        if terms is not None:
            best = max(best, max((i + j for i, j in terms), default=-1))
            continue
        for part in ("num", "den", "rep", "modulus"):  # RatFunc, BiRatFunc, NFElement
            inner = getattr(a, part, None)
            if inner is not None:
                best = max(best, max_degree((inner,)))
    return best


def _is_constant_bipoly(p) -> bool:
    return all(k == (0, 0) for k in p.terms)


class Spans:
    """Flat span storage: one entry per call, parent -1 at the top level."""

    def __init__(self):
        self.name = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.request = array("l")
        self.degree = array("l")

    def __len__(self) -> int:
        return len(self.name)

    def open(self, name: int, start: int, parent: int, request: int, degree: int) -> int:
        self.name.append(name)
        self.start.append(start)
        self.end.append(start)
        self.parent.append(parent)
        self.request.append(request)
        self.degree.append(degree)
        return len(self.name) - 1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tstart_ns\tend_ns\tparent\trequest\tmax_degree\n")
            for i in range(len(self)):
                out.write(f"{i}\t{NAMES[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                          f"{self.parent[i]}\t{self.request[i]}\t{self.degree[i]}\n")


def self_times(spans: Spans, count: int) -> tuple[list[int], list[int]]:
    """Calls and self time (ns) per name index. A span's self time is its
    duration minus the durations of its direct children; children of one
    span never overlap, because calls nest."""
    calls = [0] * count
    self_ns = [0] * count
    for i in range(len(spans)):
        name = spans.name[i]
        dur = spans.end[i] - spans.start[i]
        calls[name] += 1
        self_ns[name] += dur
        p = spans.parent[i]
        if p >= 0:
            self_ns[spans.name[p]] -= dur
    return calls, self_ns


class Tracer:
    """Wraps the layers inside each `with tracer:` block (re-entry installs
    them again); spans and counts accumulate across blocks. Set `request`
    before each request."""

    def __init__(self):
        self.spans = Spans()
        self.request = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._seen: dict[str, set] = {name: set() for name in DISTINCT}
        self._seen_request = -1
        self.distinct = {name: 0 for name in DISTINCT}
        self.distinct_calls = {name: 0 for name in DISTINCT}
        self.constant_arg_calls = 0

    def __enter__(self) -> "Tracer":
        try:
            for index, (module, attr) in enumerate(LAYERS):
                self._install(index, importlib.import_module(f"orthoscope.{module}"), attr)
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _install(self, index: int, module, attr: str) -> None:
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            original = vars(owner)[method]
            owners = [owner]    # aliases such as __rmul__ = __mul__ are wrapped too
        else:
            original = getattr(module, attr)
            owners = [mod for name, mod in list(sys.modules.items())
                      if name == "orthoscope" or name.startswith("orthoscope.")]
        wrapper = self._wrap(index, original)
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._restore.append((owner, key, original))
                    setattr(owner, key, wrapper)

    def _note_argument(self, name: str, arg) -> None:
        if self._seen_request != self.request:
            for seen in self._seen.values():
                seen.clear()
            self._seen_request = self.request
        seen = self._seen[name]
        if arg not in seen:
            seen.add(arg)
            self.distinct[name] += 1
        self.distinct_calls[name] += 1

    def _wrap(self, index: int, fn):
        name = NAMES[index]
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        remember = name in DISTINCT
        constant_arg = name == CONSTANT_ARG

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if remember and args:
                self._note_argument(name, args[0])
            if constant_arg and any(_is_constant_bipoly(a) for a in args[:2]):
                self.constant_arg_calls += 1
            span = spans.open(index, 0, stack[-1] if stack else -1, self.request,
                              max_degree(args))
            stack.append(span)
            spans.start[span] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.end[span] = clock()
                stack.pop()

        return wrapper

    def metrics(self, requests: int, traced_ns: int) -> dict:
        """Per-request calls and self time for every layer, plus the ratios."""
        calls, self_ns = self_times(self.spans, len(NAMES))
        out = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = (calls[i] / requests, "count")
            out[f"{name}.self_ms"] = (self_ns[i] / 1e6 / requests, "ms")
        for name in DISTINCT:
            n = self.distinct_calls[name]
            out[f"{name}.distinct_ratio"] = (self.distinct[name] / n if n else 0.0, "ratio")
        gcd_calls = calls[NAMES.index(CONSTANT_ARG)]
        out[f"{CONSTANT_ARG}.constant_arg_ratio"] = (
            self.constant_arg_calls / gcd_calls if gcd_calls else 0.0, "ratio")
        out["trace.request_ms"] = (traced_ns / 1e6 / requests, "ms")
        return out
