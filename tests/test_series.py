"""Laurent polynomial and rational generating function arithmetic.

Expected values below were worked out by hand (small convolutions) or
cross-checked by exact rational evaluation, independently of the code
under test.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsemigroups import (ArityMismatch, LaurentPoly, RationalGF,
                         Window)

from series_oracle import evaluate, expand_by_convolution, series_from_json


def L(terms, arity=None):
    return LaurentPoly(terms, arity=arity)


def test_zero_terms_are_pruned():
    p = L({(0,): 1, (3,): 0})
    assert p.terms() == [((0,), 1)]
    assert L({(1,): 2}) - L({(1,): 2}) == LaurentPoly({}, arity=1)
    assert not (L({(1,): 2}) - L({(1,): 2}))


def test_mul_one_minus_t_times_one_plus_t():
    p = L({(0,): 1, (1,): -1})
    q = L({(0,): 1, (1,): 1})
    assert (p * q).terms() == [((0,), 1), ((2,), -1)]


def test_add_cancels_to_zero():
    p = L({(0,): 1, (1,): -1})
    q = L({(1,): 1, (0,): -1})
    assert not (p + q)


def test_two_variable_product_with_negative_exponents():
    p = L({(0, 0): 1, (1, 1): -1})
    q = L({(1, -1): 1})
    assert (p * q).terms() == [((1, -1), 1), ((2, 0), -1)]


def test_arity_mismatch_raises():
    p = L({(0,): 1})
    q = L({(0, 0): 1})
    with pytest.raises(ArityMismatch):
        p + q
    with pytest.raises(ArityMismatch):
        p * q
    with pytest.raises(ArityMismatch):
        RationalGF(p).expand(Window((0, 1), (0, 1)))


def test_scalar_arithmetic():
    p = L({(2,): 3})
    assert (2 * p).coeff((2,)) == 6
    assert (p + 1).coeff((0,)) == 1
    assert (-p).coeff((2,)) == -3


def test_denominator_vector_validation():
    one = LaurentPoly.one(1)
    with pytest.raises(ValueError):
        RationalGF(one, [(0,)])
    with pytest.raises(ValueError):
        RationalGF(one, [(-1,)])
    one2 = LaurentPoly.one(2)
    with pytest.raises(ValueError):
        RationalGF(one2, [(1, -1)])
    RationalGF(one2, [(1, 0), (0, 1)])


def test_expand_geometric_series():
    f = RationalGF(LaurentPoly.one(1), [(1,)])
    assert f.expand(Window((0, 5))) == [1, 1, 1, 1, 1, 1]
    assert f.expand(Window((-2, 2))) == [0, 0, 1, 1, 1]


def test_expand_one_minus_t_plus_t2_over_one_minus_t():
    f = RationalGF(L({(0,): 1, (1,): -1, (2,): 1}), [(1,)])
    assert f.expand(Window((0, 4))) == [1, 0, 1, 1, 1]


def test_expand_two_variable_corner_numerator():
    # (1 - t1 t2) * t1 t2^-1 / ((1 - t1)(1 - t2)) at (1, 0)
    num = L({(0, 0): 1, (1, 1): -1}) * L({(1, -1): 1})
    f = RationalGF(num, [(1, 0), (0, 1)])
    assert f.expand(Window((1, 1), (0, 0))) == [1]


def test_expand_repeated_factor():
    # 1/(1-t)^2 counts multiplicities: coefficient n+1 at t^n
    f = RationalGF(LaurentPoly.one(1), [(1,), (1,)])
    assert f.expand(Window((0, 4))) == [1, 2, 3, 4, 5]


def test_expand_zero_numerator():
    f = RationalGF(LaurentPoly({}, arity=2), [(1, 1)])
    assert f.expand(Window((0, 1), (0, 1))) == [0, 0, 0, 0]


def test_reciprocal_geometric():
    f = RationalGF(LaurentPoly.one(1), [(1,)])
    r = f.reciprocal()
    assert r.num.terms() == [((1,), -1)]
    assert r.den == ((1,),)


def test_reciprocal_matches_hand_normalisation():
    # (1 - t + t^2)/(1 - t) -> -t^-1 (1 - t + t^2)/(1 - t)
    f = RationalGF(L({(0,): 1, (1,): -1, (2,): 1}), [(1,)])
    r = f.reciprocal()
    expected = RationalGF(
        L({(-1,): -1, (0,): 1, (1,): -1}), [(1,)])
    assert r == expected


def test_reciprocal_pure_monomial():
    f = RationalGF(L({(1, 1): 1}))
    assert f.reciprocal() == RationalGF(L({(-1, -1): 1}))


def test_reciprocal_is_involution():
    f = RationalGF(L({(0,): 2, (3,): -1}), [(1,), (2,)])
    assert f.reciprocal().reciprocal().equals(f)


def test_equality_by_cross_multiplication():
    # (1 - t^2)/(1 - t) == 1 + t
    a = RationalGF(L({(0,): 1, (2,): -1}), [(1,)])
    b = RationalGF(L({(0,): 1, (1,): 1}))
    assert a.equals(b)
    c = RationalGF(L({(0,): 1, (1,): 1}), [(1,)])
    assert not a.equals(c)


def test_equality_with_different_denominator_multisets():
    # (1 - t^4)/((1-t)(1-t^2)) == (1 + t^2)/(1 - t)
    a = RationalGF(L({(0,): 1, (4,): -1}), [(1,), (2,)])
    b = RationalGF(L({(0,): 1, (2,): 1}), [(1,)])
    assert a.equals(b)


def test_equality_over_one_denominator_compares_numerators():
    # over one denominator multiset, in any order, only equal numerators
    # agree; (1 - t^2)/(1 - t)^2 is (1 + t)/(1 - t) over another one
    den = [(1,), (3,)]
    a = RationalGF(L({(0,): 1, (1,): 1}), den)
    assert a.equals(RationalGF(L({(1,): 1, (0,): 1}), den[::-1]))
    assert not a.equals(RationalGF(L({(0,): 1, (1,): 2}), den))
    assert not a.equals(RationalGF(L({(0,): 1}), den))
    b = RationalGF(L({(0,): 1, (2,): -1}), [(1,), (1,)])
    assert b.equals(RationalGF(L({(0,): 1, (1,): 1}), [(1,)]))
    assert not b.equals(RationalGF(L({(0,): 1, (1,): 1}), [(1,), (2,)]))


def test_evaluate_exact_rational():
    f = RationalGF(L({(0,): 1, (1,): -1, (2,): 1}), [(1,)])
    # (1 - 2 + 4)/(1 - 2) = -3
    assert evaluate(f, (2,)) == Fraction(-3)
    r = f.reciprocal()
    assert evaluate(r, (Fraction(1, 2),)) == Fraction(-3)


def test_evaluate_rejects_vanishing_factor():
    f = RationalGF(LaurentPoly.one(2), [(1, 0)])
    with pytest.raises(ZeroDivisionError):
        evaluate(f, (1, 5))


def test_json_round_trip():
    f = RationalGF(L({(2, 0): -1, (1, -1): 1}), [(1, 0), (0, 1)])
    obj = f.to_json()
    assert obj == {
        "num": [{"e": [1, -1], "c": 1}, {"e": [2, 0], "c": -1}],
        "den": [[0, 1], [1, 0]],
    }
    back = series_from_json(json.loads(json.dumps(obj)))
    assert back == f


def test_window_validation_and_iteration():
    w = Window((0, 1), (5, 6))
    assert list(w.points()) == [(0, 5), (0, 6), (1, 5), (1, 6)]
    with pytest.raises(ValueError):
        Window((3, 2))
    assert (1, 6) in w
    assert (2, 5) not in w


# property tests: small random polynomials in one or two variables

coeffs = st.integers(min_value=-4, max_value=4)
exps1 = st.tuples(st.integers(min_value=-3, max_value=3))
exps2 = st.tuples(st.integers(min_value=-3, max_value=3),
                  st.integers(min_value=-3, max_value=3))


def poly_strategy(arity):
    exps = exps1 if arity == 1 else exps2
    return st.dictionaries(exps, coeffs, max_size=5).map(
        lambda d: LaurentPoly(d, arity=arity))


@given(poly_strategy(1), poly_strategy(1), poly_strategy(1))
def test_ring_axioms_one_variable(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(poly_strategy(2), poly_strategy(2))
def test_two_variable_commutativity(a, b):
    assert a * b == b * a
    assert a + b == b + a


den_vectors = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=3)).filter(
        lambda v: v != (0, 0)),
    max_size=3)


@given(poly_strategy(2), den_vectors)
def test_reciprocal_involution_property(num, den):
    f = RationalGF(num, den)
    assert f.reciprocal().reciprocal().equals(f)


@given(poly_strategy(2), den_vectors)
def test_reciprocal_evaluation_property(num, den):
    f = RationalGF(num, den)
    p = (Fraction(2), Fraction(3))
    inv = (Fraction(1, 2), Fraction(1, 3))
    assert evaluate(f, p) == evaluate(f.reciprocal(), inv)


@settings(max_examples=50)
@given(poly_strategy(1), poly_strategy(1),
       st.lists(st.tuples(st.integers(min_value=1, max_value=3)), max_size=2))
def test_product_expansion_is_convolution(na, nb, den):
    """Expanding a product agrees with convolving the factor expansions.

    Expansion supports sit above the numerator minima, so on [lo, hi]
    the convolution only needs each factor on a finite shifted window.
    """
    a = RationalGF(na, den)
    b = RationalGF(nb, den)
    prod = a * b
    lo, hi = -6, 6
    ep = prod.expand(Window((lo, hi)))
    if not na or not nb:
        assert set(ep) == {0}
        return
    lo_a = na.min_exponents()[0]
    lo_b = nb.min_exponents()[0]
    ea = a.expand(Window((lo_a, hi - lo_b)))
    eb = b.expand(Window((lo_b, hi - lo_a)))
    for m in range(lo, hi + 1):
        total = sum(c * eb[m - k - lo_b]
                    for k, c in enumerate(ea, lo_a)
                    if lo_b <= m - k <= hi - lo_a)
        assert total == ep[m - lo]


# the dense-grid expansion against the per-point convolution it replaced

def factor_strategy(arity):
    entries = st.tuples(*[st.integers(min_value=0, max_value=10)] * arity)
    return st.lists(entries.filter(any), max_size=4)


def window_strategy(num, arity):
    """Windows placed relative to the numerator's minimum exponent, so
    that some start left of it and some lie entirely below it."""
    base = num.min_exponents() or (0,) * arity
    bound = st.tuples(st.integers(min_value=-8, max_value=6),
                      st.integers(min_value=0, max_value=8))
    return st.lists(bound, min_size=arity, max_size=arity).map(
        lambda bs: Window(*[(b + off, b + off + width)
                            for b, (off, width) in zip(base, bs)]))


@settings(max_examples=150)
@given(st.data())
def test_equality_matches_cross_multiplication(data):
    arity = data.draw(st.sampled_from([1, 2]))
    n1, n2 = data.draw(poly_strategy(arity)), data.draw(poly_strategy(arity))
    d1 = data.draw(factor_strategy(arity))
    d2 = data.draw(st.one_of(st.just(d1), factor_strategy(arity)))
    f, g = RationalGF(n1, d1), RationalGF(n2, d2)
    assert f.equals(g) == (n1 * g.den_poly() == n2 * f.den_poly())
    assert f.equals(RationalGF(n1, d1[::-1]))


@settings(max_examples=300)
@given(st.data())
def test_expand_matches_convolution_oracle(data):
    arity = data.draw(st.sampled_from([1, 2]))
    num = data.draw(poly_strategy(arity))
    f = RationalGF(num, data.draw(factor_strategy(arity)))
    window = data.draw(window_strategy(num, arity))
    got = dict(zip(window.points(), f.expand(window), strict=True))
    assert got == expand_by_convolution(f, window)


@settings(max_examples=200)
@given(poly_strategy(1), st.integers(min_value=1, max_value=10),
       st.one_of(st.integers(-20, 60), st.integers(-20, 10**12)),
       st.integers(min_value=0, max_value=20))
def test_one_factor_expansion_far_beyond_the_numerator(num, v, offset, width):
    # F[n] = F[n - v] past the numerator's degree, so a far window is
    # moved down next to it; read off the numerator directly instead
    top = max((e for (e,), _ in num.terms()), default=0)
    window = Window((top + offset, top + offset + width))
    assert RationalGF(num, [(v,)]).expand(window) == [
        sum(c for (e,), c in num.terms() if n >= e and (n - e) % v == 0)
        for (n,) in window.points()]


@pytest.mark.parametrize("step", [2, 5, 9])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_row_recurrence_branches_match_convolution(step, extra):
    # a row of n = step^2 + extra cells adds blocks of step cells when
    # step^2 > n, else runs step strided prefix sums
    n = step * step + extra
    num = L({(0,): 1, (2,): -3, (step + 1,): 2})
    for den in ([(step,)], [(step,), (step,), (1,)]):
        f, window = RationalGF(num, den), Window((0, n - 1))
        got = dict(zip(window.points(), f.expand(window), strict=True))
        assert got == expand_by_convolution(f, window), den
    f = RationalGF(L({(0, 0): 1, (1, 3): -2, (0, step): 1}),
                   [(0, step), (1, step), (0, step)])
    window = Window((0, 3), (0, n - 1))
    got = dict(zip(window.points(), f.expand(window), strict=True))
    assert got == expand_by_convolution(f, window)


ONE_VAR = RationalGF(L({(-2,): 3, (0,): -1, (5,): 2}), [(1,), (7,), (7,)])
TWO_VAR = RationalGF(L({(-1, 2): 2, (0, -3): -1, (3, 1): 1}),
                     [(0, 1), (2, 0), (1, 3), (4, 4)])


@pytest.mark.parametrize("f, bounds", [
    (ONE_VAR, [(-9, 4)]),    # starts left of the minimum exponent -2
    (ONE_VAR, [(-9, -3)]),   # lies entirely below it
    (ONE_VAR, [(0, 2)]),     # shorter than the factor 1 - t^7
    (TWO_VAR, [(-3, 5), (-5, 6)]),
    (TWO_VAR, [(-6, -2), (0, 4)]),
    (TWO_VAR, [(0, 1), (9, 9)]),
    (TWO_VAR, [(-1, 3), (-9, -5)]),  # rows wholly below the minimum -3
])
def test_expand_window_edges_match_oracle(f, bounds):
    window = Window(*bounds)
    got = dict(zip(window.points(), f.expand(window), strict=True))
    assert got == expand_by_convolution(f, window)


@pytest.mark.parametrize("x", [
    L({(0,): 1, (3,): -2}),
    LaurentPoly({}, arity=1),
    L({(1, -2): 5, (0, 0): 1}),
    LaurentPoly({}, arity=2),
    RationalGF(L({(0,): 1, (2,): -1}), [(1,), (3,), (1,)]),
    RationalGF(LaurentPoly({}, arity=2), [(1, 0)]),
    RationalGF(L({(-1, 1): 3})),
], ids=repr)
def test_repr_evals_back(x):
    names = {"LaurentPoly": LaurentPoly, "RationalGF": RationalGF}
    assert eval(repr(x), names) == x


@pytest.mark.parametrize("w", [Window((0, 4)), Window((-3, -3)),
                               Window((-6, 6), (2, 9))], ids=repr)
def test_window_repr_evals_back(w):
    assert eval(repr(w), {"Window": Window}).bounds == w.bounds
