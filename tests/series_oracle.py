"""Slow reference expansion of a RationalGF, kept as a test oracle.

`expand_by_convolution` computes the denominator's expansion as a
dict-based coin-change table on the box [0, hi - min_exponents()] and
then convolves the whole numerator against it at every window point.
It costs O(|window| * |num|) on top of the table, which is why
`RationalGF.expand` no longer works this way; the property tests in
test_series.py check the fast expansion against it.

`evaluate` gives the exact rational value of a LaurentPoly or a
RationalGF at a point; the tests use it to check identities such as
the reciprocal numerically.

`series_from_json` decodes the series JSON that `RationalGF.to_json`
and the CLI print back to a RationalGF; the library reads no series
JSON, so the tests check the round trip with it.
"""

import itertools
from fractions import Fraction

from wsemigroups import ArityMismatch, LaurentPoly, RationalGF


def series_from_json(obj):
    """The RationalGF of a decoded `to_json` object; its arity is read
    off the first numerator term, or the first factor of a zero one."""
    terms = [(tuple(t["e"]), t["c"]) for t in obj["num"]]
    den = [tuple(v) for v in obj["den"]]
    arity = len(terms[0][0] if terms else den[0])
    return RationalGF(LaurentPoly(terms, arity=arity), den)


def expand_by_convolution(gf, window):
    """Coefficients of gf's one-sided expansion at every window point."""
    num, den = gf.num, gf.den
    if not num:
        return {m: 0 for m in window.points()}
    lo_e = num.min_exponents()
    box = tuple(max(0, hi - lo_e[i])
                for i, (_, hi) in enumerate(window.bounds))
    dp = {}
    dp[(0,) * gf.arity] = 1
    grid = list(itertools.product(*[range(b + 1) for b in box]))
    for u in grid:
        dp.setdefault(u, 0)
    for v in den:
        for u in grid:
            prev = tuple(a - b for a, b in zip(u, v))
            if all(x >= 0 for x in prev):
                dp[u] += dp[prev]
    out = {}
    for m in window.points():
        total = 0
        for e, c in num.terms():
            u = tuple(a - b for a, b in zip(m, e))
            if all(x >= 0 for x in u):
                total += c * dp.get(u, 0)
        out[m] = total
    return out


def evaluate(f, point):
    """Exact value of f at a tuple of nonzero rationals; every factor of
    a RationalGF's denominator must evaluate away from 1."""
    num = f if isinstance(f, LaurentPoly) else f.num
    if len(point) != num.arity:
        raise ArityMismatch("evaluation point has wrong length")
    pt = [Fraction(x) for x in point]
    if any(x == 0 for x in pt):
        raise ZeroDivisionError("Laurent terms cannot be evaluated at 0")
    total = Fraction(0)
    for e, c in num.terms():
        term = Fraction(c)
        for x, k in zip(pt, e):
            term *= x ** k
        total += term
    if isinstance(f, LaurentPoly):
        return total
    den = Fraction(1)
    for v in f.den:
        factor = Fraction(1)
        for x, k in zip(pt, v):
            factor *= x ** k
        if factor == 1:
            raise ZeroDivisionError(f"factor (1 - t^{v}) vanishes at {point}")
        den *= 1 - factor
    return total / den
