"""Layer spans and counters, recorded from outside the package.

`install` replaces public functions and methods of the wsemigroups
modules with wrappers that time each call as a span named after its
layer (the module).  Spans nest through a stack: a span's self time is
its duration minus the time its child spans cover.  Spans are folded
into per-name totals as they close, so memory stays constant.  A span
opened while a span of the same name is open (recursion, or
`from_members` calling the constructor) is folded into the outer one.
Counters are computed from a call's arguments or result, never from
inside the call.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = defaultdict(int)
        self._stack = []

    def reset(self):
        self.total.clear()
        self.self_time.clear()
        self.count.clear()

    def wrap(self, name, fn, before=None, after=None, only_under=None):
        """A traced stand-in for fn.  `name` may be a function of the
        call's arguments.  With `only_under`, the call is a span only
        when the innermost open span has that name, and passes straight
        through otherwise."""
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = name(*args) if callable(name) else name
            inner = stack[-1][0] if stack else None
            if inner == span or (only_under and inner != only_under):
                return fn(*args, **kwargs)
            if before:
                before(self.count, *args)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.total[span] += elapsed
                self.self_time[span] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after:
                after(self.count, result, *args)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        """A stand-in for fn that only counts its calls."""
        count = self.count

        def counted(*args, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted


# ---------------------------------------------------------------- counters

def points_in(bounds):
    """Number of lattice points of a box given as (lo, hi) pairs."""
    total = 1
    for lo, hi in bounds:
        total *= max(0, hi - lo + 1)
    return total


def _count_semigroup(count, _result, sg, *_args):
    count["onepoint.semigroups_built"] += 1
    count["onepoint.conductor_total"] += sg.conductor


def _count_expand(count, gf, window):
    points = points_in(window.bounds)
    count["series.expand.window_points"] += points
    count["series.expand.num_terms_x_points"] += len(gf.num.support()) * points
    lo = gf.num.min_exponents()
    if lo is not None:
        box = points_in([(0, max(0, hi - lo[i]))
                       for i, (_, hi) in enumerate(window.bounds)])
        count["series.expand.box_x_den"] += box * len(gf.den)


def _count_mul(count, left, right):
    other = len(right.support()) if hasattr(right, "support") else 1
    count["series.mul.term_pairs"] += len(left.support()) * other


def _count_verify(count, report, *_args):
    if report.check != "closure":
        count["twopoint.verify.points_scanned"] += \
            points_in(report.details["scan"])
    count["twopoint.verify.witnesses"] += len(report.witnesses)


def _verify_name(_sg, check, *_args):
    return f"twopoint.verify.{check}"


def install(tracer, pkg):
    """Wrap the layer boundaries of the imported package `pkg` (a
    namespace with modules cli, onepoint, series, twopoint, oracle).
    Returns a function that restores the originals."""
    cli, onepoint, series, twopoint, oracle = (
        pkg.cli, pkg.onepoint, pkg.series, pkg.twopoint, pkg.oracle)
    modules = (cli, onepoint, series, twopoint, oracle)
    undo = []

    def patch_function(fn, stand_in):
        # a function is bound by name in every module that imported it
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    undo.append((mod, key, value))
                    setattr(mod, key, stand_in)

    def patch_method(cls, attr, stand_in_of):
        raw = cls.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        stand_in = stand_in_of(fn)
        undo.append((cls, attr, raw))
        setattr(cls, attr, classmethod(stand_in)
                if isinstance(raw, classmethod) else stand_in)

    span = tracer.wrap
    patch_function(cli.main, span("cli.main", cli.main))
    patch_function(cli.parse_input, span("cli.parse_input", cli.parse_input))

    patch_method(onepoint.NumericalSemigroup, "__init__", lambda f: span(
        "onepoint.NumericalSemigroup", f, after=_count_semigroup))
    patch_method(onepoint.DeltaSequence, "__init__",
                 lambda f: span("onepoint.DeltaSequence", f))
    patch_method(onepoint.OnePointSemigroup, "__init__",
                 lambda f: span("onepoint.OnePointSemigroup", f))
    for cls in (onepoint.NumericalSemigroup, onepoint.OnePointSemigroup):
        patch_method(cls, "symmetry_witnesses",
                     lambda f: span("onepoint.symmetry_witnesses", f))
    for fname in ("poincare_direct", "poincare_delta_product",
                  "poincare_onepoint", "l_polynomial",
                  "functional_equation_signs"):
        fn = getattr(onepoint, fname)
        patch_function(fn, span(f"onepoint.{fname}", fn))

    patch_method(series.RationalGF, "expand", lambda f: span(
        "series.RationalGF.expand", f, before=_count_expand))
    for attr in ("__mul__", "__rmul__"):
        patch_method(series.LaurentPoly, attr, lambda f: span(
            "series.LaurentPoly.mul", f, before=_count_mul))
    for attr in ("equals", "reciprocal", "to_json"):
        patch_method(series.RationalGF, attr,
                     lambda f, a=attr: span(f"series.RationalGF.{a}", f))

    tp = twopoint.TwoPointSemigroup
    for attr in ("__init__", "from_members"):
        patch_method(tp, attr, lambda f: span("twopoint.construct", f))
    for attr in ("corner_maximals", "find_symmetry_point",
                 "maximal_points_in"):
        patch_method(tp, attr, lambda f, a=attr: span(f"twopoint.{a}", f))
    patch_method(tp, "verify",
                 lambda f: span(_verify_name, f, after=_count_verify))
    # dim_jump is a span only where the CLI calls it itself (the expand
    # table, the oracle check); inside other twopoint spans it is the
    # inner loop and passes straight through
    patch_method(tp, "dim_jump", lambda f: span(
        "twopoint.dim_jump", f, only_under="cli.main"))

    patch_function(oracle.semigroup_from_fixture,
                   span("oracle.semigroup_from_fixture",
                        oracle.semigroup_from_fixture))
    patch_function(oracle.d_oracle,
                   tracer.counter("oracle.d_oracle.calls", oracle.d_oracle))

    def restore():
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    return restore


# A name ending in ".s" is the inclusive time of the span it names, one
# ending in ".self_s" its self time, any other a counter.  Times and
# counts are per pass.
LAYER_METRICS = (
    "cli.main.self_s",
    "cli.parse_input.self_s",
    "onepoint.NumericalSemigroup.s",
    "onepoint.DeltaSequence.self_s",
    "onepoint.OnePointSemigroup.self_s",
    "onepoint.semigroups_built",
    "onepoint.conductor_total",
    "onepoint.symmetry_witnesses.s",
    "onepoint.poincare_direct.self_s",
    "onepoint.poincare_delta_product.s",
    "onepoint.poincare_onepoint.self_s",
    "onepoint.l_polynomial.self_s",
    "onepoint.functional_equation_signs.self_s",
    "series.RationalGF.expand.s",
    "series.expand.window_points",
    "series.expand.num_terms_x_points",
    "series.expand.box_x_den",
    "series.LaurentPoly.mul.s",
    "series.mul.term_pairs",
    "series.RationalGF.equals.self_s",
    "series.RationalGF.reciprocal.self_s",
    "series.RationalGF.to_json.s",
    "twopoint.construct.s",
    "twopoint.corner_maximals.s",
    "twopoint.find_symmetry_point.self_s",
    "twopoint.maximal_points_in.s",
    *(f"twopoint.verify.{c}.s" for c in (
        "closure", "c_prop", "c_identity", "corner_translates", "lemma4",
        "d_agreement", "symmetry", "funceq")),
    "twopoint.verify.points_scanned",
    "twopoint.verify.witnesses",
    "twopoint.dim_jump.s",
    "twopoint.expand.cells",
    "oracle.semigroup_from_fixture.s",
    "oracle.d_oracle.calls",
)


def is_count(metric):
    return not metric.endswith(".s") and not metric.endswith(".self_s")


def layer_values(tracer):
    """Every layer metric of one traced pass."""
    out = {}
    for metric in LAYER_METRICS:
        if metric.endswith(".self_s"):
            out[metric] = tracer.self_time.get(metric[:-len(".self_s")], 0.0)
        elif metric.endswith(".s"):
            out[metric] = tracer.total.get(metric[:-len(".s")], 0.0)
        else:
            out[metric] = tracer.count.get(metric, 0)
    return out
