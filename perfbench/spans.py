"""Outside-in tracing of singspec's layers.

``Tracer.install`` replaces each listed public function at every singspec
module binding that refers to it (``cli`` and ``checks`` import names with
``from ... import``; the kernel is reached through ``kernel.active()``), so
the package itself stays untouched.  Each call becomes a span
(name, start, end, parent) kept in memory; the hot leaves in ``LEAVES`` are
aggregated into a call count and a total instead, and their time is charged
to the enclosing span so that self times stay exact.  ``summarize`` turns
spans into the per-layer metrics the benchmark reports.
"""

import importlib
import json
import math
import sys
from time import perf_counter

LAYERS = ("parse", "poly", "milnor", "kernel", "spectrum", "fracpoly", "motivic", "checks", "cli")

_CHECKS = (
    "check_bp_dual_route",
    "check_bp_basis_box",
    "check_cusp_benchmark",
    "check_symmetry_all",
    "check_mu_counts",
    "check_monodromy_conventions",
    "check_semistable_fixture",
    "check_cusp_fixture",
    "check_gcd_table",
    "check_class_functionals",
)

# metric name -> module and attribute of the original function; a module of
# None means the active reduction kernel
FUNCTIONS = {
    "parse.parse_polynomial": ("singspec.parse", "parse_polynomial"),
    "poly.infer_weights": ("singspec.poly", "infer_weights"),
    "poly.jacobian_generators": ("singspec.poly", "jacobian_generators"),
    "poly.weighted_degree": ("singspec.poly", "weighted_degree"),
    "milnor.buchberger": ("singspec.milnor", "buchberger"),
    "milnor.is_isolated": ("singspec.milnor", "is_isolated"),
    "milnor.milnor_basis": ("singspec.milnor", "milnor_basis"),
    "milnor.milnor_number": ("singspec.milnor", "milnor_number"),
    "kernel.normal_form": (None, "normal_form"),
    "kernel.s_polynomial": (None, "s_polynomial"),
    "spectrum.sp_product_formula": ("singspec.spectrum", "sp_product_formula"),
    "spectrum.sp_from_basis": ("singspec.spectrum", "sp_from_basis"),
    "spectrum.eigenvalues_gamma_c": ("singspec.spectrum", "eigenvalues_gamma_c"),
    "spectrum.eigenvalues_geometric": ("singspec.spectrum", "eigenvalues_geometric"),
    "spectrum.char_poly": ("singspec.spectrum", "char_poly"),
    "motivic.model_from_json": ("singspec.motivic", "model_from_json"),
    "motivic.nearby_fiber_class": ("singspec.motivic", "nearby_fiber_class"),
    "motivic.sp_prime_of_class": ("singspec.motivic", "sp_prime_of_class"),
    "motivic.sp_of_class": ("singspec.motivic", "sp_of_class"),
    "checks.build_corpus": ("singspec.checks", "build_corpus"),
    **{f"checks.{name}": ("singspec.checks", name) for name in _CHECKS},
}

# metric name -> (module, class, method) of each method it stands for
METHODS = {
    "fracpoly.render": (("singspec.fracpoly", "FracPoly", "__str__"),),
    "cli.render": (
        ("singspec.cli", "Report", "to_json"),
        ("singspec.cli", "Report", "render_text"),
    ),
}

LEAVES = frozenset({"poly.weighted_degree", "kernel.normal_form", "kernel.s_polynomial"})

# the root span of every request; it charges argument parsing and the glue in
# cli.main to the cli layer
ROOT = "cli.main"


def _model_entries(args, result):
    return sum(len(s.cover_class.entries) for s in args[0].strata)


def _lcm_m(args, result):
    return math.lcm(*(w.denominator for w in args[0])) if args[0] else 1


def _dense_len(args, result):
    # the numerator of the product formula is expanded densely: n * m + 1 slots
    return len(args[0]) * _lcm_m(args, result) + 1


# counter name -> (function metric it reads, how, "sum" or "max")
COUNTERS = {
    "milnor.mu": ("milnor.milnor_basis", lambda args, result: len(result), "sum"),
    "milnor.groebner_size": ("milnor.buchberger", lambda args, result: len(result.polynomials), "sum"),
    "spectrum.lcm_m": ("spectrum.sp_product_formula", _lcm_m, "max"),
    "spectrum.dense_len": ("spectrum.sp_product_formula", _dense_len, "max"),
    "motivic.entries_in": ("motivic.nearby_fiber_class", _model_entries, "sum"),
    "motivic.class_size": ("motivic.nearby_fiber_class", lambda args, result: len(result.entries), "sum"),
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = [(f"{layer}.self_s", "s") for layer in LAYERS]
    for name in (*FUNCTIONS, *METHODS):
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(name, "count") for name in COUNTERS]
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    """Spans and leaf aggregates of the calls made while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, leaf time]
        self.leaves = {}  # name -> [calls, total seconds]
        self.counters = {}
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, counters):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, 0.0])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            for counter, read, how in counters:
                value = read(args, result)
                old = self.counters.get(counter, 0)
                self.counters[counter] = old + value if how == "sum" else max(old, value)
            return result

        return traced

    def _leaf(self, name, fn):
        spans, stack = self.spans, self._stack
        agg = self.leaves.setdefault(name, [0, 0.0])

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                agg[0] += 1
                agg[1] += dt
                if stack:
                    spans[stack[-1]][4] += dt

        return traced

    def wrap(self, name, fn):
        if name in LEAVES:
            return self._leaf(name, fn)
        counters = [(c, read, how) for c, (src, read, how) in COUNTERS.items() if src == name]
        return self._span(name, fn, counters)

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every listed function and method.  Call after ``import singspec.cli``."""
        kernel = importlib.import_module("singspec.kernel").active()
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "singspec" or key.startswith("singspec."))
        ]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(kernel if module is None else importlib.import_module(module), attr)
            wrapped = self.wrap(name, original)
            for m in modules:
                for binding, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, binding, wrapped)
        for name, targets in METHODS.items():
            for module, cls, method in targets:
                owner = getattr(importlib.import_module(module), cls)
                self._set(owner, method, self.wrap(name, getattr(owner, method)))
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def root(self, fn):
        """``fn`` wrapped as the root span of one request."""
        return self._span(ROOT, fn, ())

    def dump(self) -> dict:
        return {"spans": self.spans, "leaves": self.leaves, "counters": self.counters}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)


def summarize(dumps) -> dict:
    """Totals over the dumps: ``<layer>.self_s``, ``<fn>.calls``,
    ``<fn>.self_s`` and the counters.  A span's self time is its duration
    minus the durations of its child spans and of the leaves it called."""
    totals = {name: 0 for name, _ in metric_names()}
    del totals["trace.overhead_s"]
    for dump in dumps:
        spans = dump["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _, leaf), covered in zip(spans, child):
            self_s = end - start - covered - leaf
            totals[f"{name.split('.')[0]}.self_s"] += self_s
            if name != ROOT:
                totals[f"{name}.calls"] += 1
                totals[f"{name}.self_s"] += self_s
        for name, (calls, seconds) in dump["leaves"].items():
            totals[f"{name.split('.')[0]}.self_s"] += seconds
            totals[f"{name}.calls"] += calls
            totals[f"{name}.self_s"] += seconds
        for name, value in dump["counters"].items():
            how = COUNTERS[name][2]
            totals[name] = totals[name] + value if how == "sum" else max(totals[name], value)
    return totals
