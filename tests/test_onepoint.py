"""Numerical semigroup and one-point series behaviour.

Membership oracles here are independent closure sieves written inline,
so the series identities are checked against values that never touch
the factored-series code path.
"""

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import random
import tempfile
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wsemigroups import (
    ArityMismatch,
    AxiomViolation,
    InputError,
    InvalidSemigroup,
    LaurentPoly,
    NotSymmetric,
    RationalGF,
    UnknownCheck,
    Window,
    cli,
    onepoint,
)
from wsemigroups.onepoint import (
    DeltaSequence,
    NumericalSemigroup,
    OnePointSemigroup,
    apery_series,
    direct_series,
    functional_equation_signs,
    l_jump_count,
    l_jumps,
    l_polynomial,
    poincare_delta_product,
    poincare_direct,
    poincare_onepoint,
    series_first_difference,
)
from onepoint_oracle import (base_or_extra, base_plus_extras_mask,
                             closure_sieve, expand_lines_per_point,
                             expand_stdout_by_series,
                             funceq_by_direct_series,
                             indicator_by_direct_series,
                             indicator_report_by_division,
                             indicator_report_by_expansion,
                             l_identity_by_cross_multiplication,
                             l_identity_by_dict_loop, l_polynomial_by_mask,
                             l_polynomial_comparison, l_polynomial_paper,
                             paper_product_by_addition,
                             reduces_to_apery_form, representation_counts,
                             series_modes_by_expansion,
                             sieved, signs_by_apery_algebra,
                             signs_by_cross_multiplication,
                             symmetry_by_direct_series,
                             symmetry_witnesses_by_scan)


def sieve_membership(gens):
    """The membership test of <gens>, read off the oracle's table."""
    member, conductor = sieved(gens)
    return lambda n: n >= conductor or (n >= 0 and member[n])


def test_semigroup_2_3():
    s = NumericalSemigroup([2, 3])
    assert s.gaps == (1,)
    assert s.conductor == 2
    assert s.genus == 1
    assert s.contains(0) and not s.contains(1)
    assert all(s.contains(n) for n in range(2, 40))


def test_semigroup_4_6_7():
    s = NumericalSemigroup([4, 6, 7])
    assert s.gaps == (1, 2, 3, 5, 9)
    assert s.conductor == 10
    assert s.genus == 5


def test_semigroup_whole_line():
    s = NumericalSemigroup([1])
    assert s.conductor == 0
    assert s.gaps == ()
    assert s.is_symmetric()


def test_semigroup_rejects_bad_input():
    with pytest.raises(InvalidSemigroup):
        NumericalSemigroup([2, 4])
    with pytest.raises(InvalidSemigroup):
        NumericalSemigroup([])
    with pytest.raises(InvalidSemigroup):
        NumericalSemigroup([0, 3])


def test_multiplicity_budget_is_checked_before_the_build(monkeypatch):
    # <1000003, 1000033> still builds; lowered to 7, the budget admits
    # multiplicity 7 and refuses 8 on every input kind, after the gcd
    assert onepoint.MAX_MULTIPLICITY >= 1000003
    monkeypatch.setattr(onepoint, "MAX_MULTIPLICITY", 7)
    assert NumericalSemigroup([7, 9]).conductor == 6 * 8
    message = "multiplicity 8 exceeds the budget 7 "
    for build in (lambda: NumericalSemigroup([9, 8]),
                  lambda: DeltaSequence([8, 12, 13]),
                  lambda: OnePointSemigroup([8, 12, 13], [11])):
        with pytest.raises(InvalidSemigroup, match=message):
            build()
    with pytest.raises(InvalidSemigroup, match="gcd of generators is 2"):
        NumericalSemigroup([8, 10])


def test_relaxation_budget_counts_one_edge_per_class(monkeypatch):
    # <a, ..., 2a - 1> has a - 1 classes: 2048 * 2047 is over 2^21;
    # lowered to 12, the budget admits <4, 5, 9, 13, 8> (one class, 5 the
    # least of it, 8 of class 0), 7 x 1 for <7, 8, 14, 15>, 3 x 2 for six
    # generators past 3, and 4 x 3 = 12, and refuses 5 x 3 = 15 and
    # 8 x 2 = 16
    assert onepoint.MAX_RELAXATIONS >= 1024 * 1023
    with pytest.raises(InvalidSemigroup, match=(
            "^multiplicity 2048 times 2047 generator classes exceeds the "
            "budget 2097152 ")):
        NumericalSemigroup(range(2048, 4096))
    monkeypatch.setattr(onepoint, "MAX_RELAXATIONS", 12)
    assert NumericalSemigroup([4, 5, 9, 13, 8]).apery == (0, 5, 10, 15)
    assert NumericalSemigroup([7, 8, 14, 15]).conductor == 42
    assert NumericalSemigroup([3, 4, 5, 7, 8, 11, 14]).conductor == 3
    assert NumericalSemigroup([4, 5, 6, 7]).conductor == 4
    for gens, message in (([5, 6, 7, 8], "5 times 3 "),
                          ([8, 12, 13], "8 times 2 ")):
        with pytest.raises(InvalidSemigroup, match="^multiplicity " + message):
            NumericalSemigroup(gens)
    with pytest.raises(InvalidSemigroup, match="^multiplicity 8 times 2 "):
        DeltaSequence([8, 12, 13])


def test_apery_table_keeps_the_least_generator_of_each_class():
    # generators that repeat a class or lie in class 0 change nothing
    rng = random.Random(30)
    for _ in range(40):
        a = rng.randint(2, 12)
        gens = [a, *rng.sample(range(a + 1, 6 * a), rng.randint(1, 8))]
        if math.gcd(*gens) != 1:
            continue
        s = NumericalSemigroup(gens)
        assert s.generators == tuple(sorted(set(gens)))
        bound = max(s.apery) + 1
        member = closure_sieve(gens, bound)
        assert s.apery == tuple(
            min(n for n in range(r, bound + 1, a) if member[n])
            for r in range(a)), gens


def test_membership_matches_reference_sieve():
    rng = random.Random(7)
    for _ in range(25):
        k = rng.randint(2, 4)
        gens = sorted(rng.sample(range(2, 25), k))
        if len(gens) > 1:
            gens[-1] += 1 - (0 if any(g % 2 for g in gens) else 0)
        try:
            s = NumericalSemigroup(gens)
        except InvalidSemigroup:
            continue
        bound = 3 * max(s.conductor, 1) + max(gens)
        ref = closure_sieve(s.generators, bound)
        assert all(s.contains(n) == ref[n] for n in range(bound + 1))


def assert_matches_sieve(gens):
    s = NumericalSemigroup(gens)
    member, conductor = sieved(gens)
    gaps = tuple(n for n in range(conductor) if not member[n])
    assert s.generators == tuple(sorted(set(gens)))
    assert (s.conductor, s.genus, s.gaps) == (conductor, len(gaps), gaps)
    ref = sieve_membership(gens)
    span = 2 * max(gens) + 2
    # negative values, the band below the conductor and values past it
    for n in range(-span, conductor + span):
        assert s.contains(n) == ref(n), (gens, n)


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=5))
def test_apery_construction_matches_sieve_oracle(gens):
    # unsorted lists with repeats, as the JSON input may give them
    assume(math.gcd(*gens) == 1)
    assert_matches_sieve(gens)


@pytest.mark.parametrize("gens", [
    [1], [1, 1, 5], [7, 3, 5, 3, 7], [9, 2], [2, 20001], [40, 39, 38]])
def test_apery_construction_edge_cases(gens):
    assert_matches_sieve(gens)


def test_two_generators_with_huge_conductor():
    b = 10**12 + 1
    s = NumericalSemigroup([b, 2])
    assert (s.conductor, s.genus) == (b - 1, (b - 1) // 2)
    assert s.is_symmetric()
    assert not s.contains(-2) and not s.contains(b - 2)
    assert s.contains(b - 3) and s.contains(b) and s.contains(b - 1)


def test_symmetry_examples():
    assert NumericalSemigroup([2, 3]).is_symmetric()
    assert NumericalSemigroup([2, 5]).is_symmetric()
    assert NumericalSemigroup([3, 4]).is_symmetric()
    assert NumericalSemigroup([3, 5]).is_symmetric()
    assert NumericalSemigroup([4, 6, 7]).is_symmetric()
    assert not NumericalSemigroup([3, 4, 5]).is_symmetric()


DELTA_SEQUENCES = [(1,), (2, 3), (2, 5), (3, 4), (3, 7), (4, 5), (4, 6, 7),
                   (4, 6, 11), (6, 9, 10), (6, 8, 11), (8, 12, 14, 15)]


@st.composite
def numerical_semigroups(draw):
    gens = draw(st.lists(st.integers(min_value=2, max_value=30),
                         min_size=2, max_size=4, unique=True))
    assume(math.gcd(*gens) == 1)
    return NumericalSemigroup(gens)


@st.composite
def delta_semigroups_with_extras(draw):
    base = DeltaSequence(draw(st.sampled_from(DELTA_SEQUENCES)))
    gaps = base.semigroup.gaps
    extras = draw(st.lists(st.sampled_from(gaps), unique=True)) if gaps else []
    try:
        return OnePointSemigroup(base, extras)
    except AxiomViolation:
        # every gap from some point on is always a closed enlargement
        k = draw(st.integers(min_value=0, max_value=base.semigroup.conductor))
        return OnePointSemigroup(base, [n for n in gaps if n >= k])


@settings(max_examples=150)
@given(st.one_of(numerical_semigroups(), delta_semigroups_with_extras()))
def test_is_symmetric_matches_witness_scan(s):
    witnesses = s.symmetry_witnesses()
    assert s.is_symmetric() == (not witnesses)
    assert witnesses == symmetry_witnesses_by_scan(s)


@pytest.mark.parametrize("s", [
    NumericalSemigroup([1]), OnePointSemigroup([1]),  # a = 1, c = 0
    NumericalSemigroup([2, 3]), NumericalSemigroup([2, 101]),  # a = 2
    NumericalSemigroup([3, 4]), NumericalSemigroup([4, 6, 7]),
    OnePointSemigroup([4, 6, 7], [3, 9]),  # Apery modulus 4, multiplicity 3
    NumericalSemigroup([997, 1009])], ids=repr)
def test_symmetric_inputs_have_no_witnesses(s):
    assert s.is_symmetric()
    assert s.symmetry_witnesses() == [] == symmetry_witnesses_by_scan(s)


def large_non_symmetric_inputs():
    """Three named numerical semigroups with multiplicity up to 1500 and
    conductor up to 5 * 10^5, two seeded ones, and a free chain of
    conductor 63,000 with its gaps from 62,500 on added as extras."""
    rng = random.Random(25)
    out = [NumericalSemigroup(g) for g in ((320, 431, 509), (997, 1009, 1013),
                                           (1500, 1501, 1999))]
    while len(out) < 5:
        a = rng.randint(200, 1500)
        s = NumericalSemigroup([a, *rng.sample(range(a + 1, 2 * a), 2)])
        if s.conductor <= 5 * 10**5 and not s.is_symmetric():
            out.append(s)
    base = DeltaSequence([1000, 1025, 1001])
    out.append(OnePointSemigroup(
        base, [n for n in base.semigroup.gaps if n >= 62500]))
    return out


def test_large_apery_witnesses_match_the_scan():
    inputs = large_non_symmetric_inputs()
    assert inputs[-1].base.semigroup.conductor == 63000
    for s in inputs:
        assert len(s.apery) <= 1500 and s.conductor <= 5 * 10**5
        witnesses = s.symmetry_witnesses()
        assert witnesses and witnesses == symmetry_witnesses_by_scan(s), s


@settings(max_examples=100)
@given(st.one_of(numerical_semigroups(), delta_semigroups_with_extras()))
def test_mask_readers_match_membership_scans(s):
    c = s.conductor
    assert list(s.mask(c + 7)) == [int(s.contains(n)) for n in range(c + 7)]
    for lo in {0, 1, c // 2, c, c + 7}:
        assert s.mask(c + 7, lo) == s.mask(c + 7)[lo:]
    assert c == 0 or not s.contains(c - 1)
    assert s.gaps == tuple(n for n in range(c) if not s.contains(n))
    assert s.genus == len(s.gaps)
    assert s.symmetry_witnesses() == [
        n for n in range(c) if s.contains(n) == s.contains(c - 1 - n)]
    jumps = {(n,): int(n == c or s.contains(n)) - int(s.contains(n - 1))
             for n in range(c + 1)}
    assert l_polynomial(s) == LaurentPoly(
        {e: v for e, v in jumps.items() if v}, arity=1)


@st.composite
def indicator_cases(draw, series_of=direct_series):
    """A semigroup, its series (the direct one by default) with a few
    coefficients changed (negative exponents included) and a window that
    starts below 0, cuts the conductor or lies wholly above it."""
    s = draw(st.one_of(numerical_semigroups(), delta_semigroups_with_extras()))
    c = s.conductor
    changes = draw(st.dictionaries(st.integers(-6, c + 12),
                                   st.integers(-2, 2), max_size=3))
    series = series_of(s) + LaurentPoly(
        {(e,): v for e, v in changes.items()}, arity=1)
    lo, hi = draw(st.sampled_from([(-12, -1), (0, c - 1), (c, c + 10)]))
    lo = draw(st.integers(lo, max(lo, hi)))
    hi = draw(st.integers(max(lo, c), max(lo, c) + c + 12))
    return s, series, Window((lo, hi))


@settings(max_examples=150)
@given(st.one_of(indicator_cases(), indicator_cases(apery_series)))
def test_indicator_witnesses_match_point_scan(case):
    # the per-point scan the mask comparison replaced, and the expansion
    # oracle: a changed series reduces to no Apery form and is expanded,
    # an unchanged one (no changes drawn) passes unexpanded; expand
    # itself is checked against the convolution oracle in test_series.py
    s, series, window = case
    coeffs = dict(zip(window.points(), series.expand(window), strict=True))
    scan = tuple(n for (n,) in window.points()
                 if coeffs[(n,)] != int(s.contains(n)))
    report = indicator_report_by_division("indicator", series, s, window)
    assert report.witnesses == scan
    assert report == indicator_report_by_expansion("indicator", series, s,
                                                   window)


@settings(max_examples=100)
@given(st.one_of(numerical_semigroups(), delta_semigroups_with_extras()),
       st.one_of(st.integers(0, 300), st.integers(0, 10**12)),
       st.integers(0, 40))
def test_far_windows_expand_to_membership(s, lo, width):
    # beyond the Apery series' degree the expansion repeats with the
    # multiplicity, so a window of 41 points costs 41 points however far
    window = Window((lo, lo + width))
    members = [int(s.contains(n)) for n in range(lo, lo + width + 1)]
    assert apery_series(s).expand(window) == members
    # the indicator is 1 from the conductor on and reads no mask there;
    # one more term makes witnesses every multiplicity from c + 1 on
    a = len(s.apery)
    series = RationalGF(apery_series(s).num + LaurentPoly(
        {(s.conductor + 1,): 1}, arity=1), [(a,)])
    report = indicator_report_by_division("indicator", series, s, window)
    assert report.witnesses == tuple(
        n for n in range(lo, lo + width + 1)
        if n > s.conductor and (n - s.conductor - 1) % a == 0)


def test_expand_and_indicator_on_a_window_near_10_to_the_9(tmp_path):
    S = NumericalSemigroup([3, 5])
    window = Window((10**9, 10**9 + 10))
    assert S.verify("indicator", window).passed
    path = tmp_path / "ns.json"
    path.write_text('{"kind": "numerical", "generators": [3, 5]}')
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["expand", str(path), "--json", "--window",
                         str(10**9), str(10**9 + 10)])
    assert code == 0
    assert json.loads(out.getvalue())["coefficients"] == [1] * 11


def test_indicator_costs_its_window_not_the_conductor():
    # c = 2 * 10^7: the parts of [0, c) outside the window are never laid
    # out, so the peak stays far below the 20 MB of a mask up to c
    S = NumericalSemigroup([2, 2 * 10**7 + 1])
    c = S.conductor
    tracemalloc.start()
    try:
        near = S.indicator(Window((c - 6, c + 5)))
        far = S.indicator(Window((10**9, 10**9 + 10)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert near == b"\1\0" * 3 + b"\1" * 6 and far == b"\1" * 11


def traced_peak(call):
    """call()'s result and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the free chain r_i = 2^(10-i) 3^i with every d_i = 2: 1024 numerator
# terms over 11 factors, conductor 173,052
CHAIN_1024 = [2 ** (10 - i) * 3 ** i for i in range(11)]


def test_far_delta_indicator_lays_out_no_grid():
    # expanding the delta product would fill a grid of 10^9 cells
    s = OnePointSemigroup([4, 6, 13])
    report, peak = traced_peak(
        lambda: s.verify("indicator", Window((10**9, 10**9 + 10))))
    assert report.passed and report.witnesses == ()
    assert report.window == ((10**9, 10**9 + 10),)
    assert peak < 100_000


@pytest.mark.parametrize("make, check, bound", [
    (lambda: NumericalSemigroup([997, 1009]), "indicator", 1_000_000),
    (lambda: OnePointSemigroup(CHAIN_1024), "indicator", 2_000_000),
    (lambda: OnePointSemigroup(CHAIN_1024), "delta_product", 2_000_000)],
    ids=["997-1009-indicator", "chain-indicator", "chain-delta_product"])
def test_default_window_checks_lay_out_no_grid(make, check, bound):
    # the default windows span 3.0 * 10^6, 5.2 * 10^5 and 3.5 * 10^5
    # points; the grids once laid out over them peaked at 72, 12.6 and
    # 8.4 MB
    s = make()
    report, peak = traced_peak(lambda: s.verify(check))
    assert report.passed and report.witnesses == ()
    assert peak < bound


def test_apery_reduction_lays_out_no_more_than_the_grid():
    # (1 - t^12)(1 - t^14) / ((1 - t^4)(1 - t^6)(1 - t^7)): dividing by
    # 1 - t^6 lays out 1 + t^6 - t^14 - t^20, by 1 - t^7 then the
    # 4 terms of the Apery numerator 1 + t^6 + t^7 + t^13, 8 in all
    s = OnePointSemigroup([4, 6, 7])
    series = poincare_onepoint(s)
    assert reduces_to_apery_form(series, s, Window((0, 7)))
    assert not reduces_to_apery_form(series, s, Window((0, 6)))
    assert not reduces_to_apery_form(series, s, Window((-9, -1)))
    assert indicator_report_by_division("indicator", series, s,
                                        Window((0, 6))).passed
    # no factor 1 - t^a, or an inexact division: no reduction
    assert not reduces_to_apery_form(poincare_direct(s), s, Window((0, 99)))
    inexact = RationalGF(series.num + LaurentPoly({(1,): 1}), series.den)
    assert not reduces_to_apery_form(inexact, s, Window((0, 99)))


def test_symmetric_means_conductor_twice_genus():
    for gens in ([2, 3], [2, 5], [3, 4], [3, 5], [4, 6, 7], [1]):
        s = NumericalSemigroup(gens)
        assert s.is_symmetric()
        assert s.conductor == 2 * s.genus


def test_delta_sequence_2_3():
    ds = DeltaSequence([2, 3])
    assert ds.theta == (2, 2, 1)
    assert ds.d == (2,)


def test_delta_sequence_4_6_7():
    ds = DeltaSequence([4, 6, 7])
    assert ds.theta == (4, 4, 2, 1)
    assert ds.d == (2, 2)


def test_delta_sequence_single_entry():
    ds = DeltaSequence([1])
    assert ds.theta == (1, 1)
    assert ds.d == ()


def test_delta_sequence_rejects_gcd_not_one():
    with pytest.raises(InvalidSemigroup):
        DeltaSequence([4, 6])


def test_delta_sequence_rejects_non_descending_gcd():
    # gcd(2, 3) = 1 already, so 5 gives d_2 = 1
    with pytest.raises(InvalidSemigroup):
        DeltaSequence([2, 3, 5])


@st.composite
def strict_descent_chains(draw):
    """(r_0, ..., r_h) with gcd(r_0, ..., r_i) = theta_i / d_i, d_i >= 2:
    r_i = theta_{i+1} * m with m prime to d_i."""
    d = draw(st.lists(st.integers(min_value=2, max_value=4),
                      min_size=1, max_size=3))
    theta = math.prod(d)
    r = [theta]
    for di in d:
        m = draw(st.integers(min_value=1, max_value=3 * di + 5).filter(
            lambda m, di=di: math.gcd(m, di) == 1))
        theta //= di
        r.append(theta * m)
    return r


@settings(max_examples=200)
@given(strict_descent_chains())
@example([10, 4, 3])
@example([12, 18, 8, 3])
def test_delta_sequence_accepts_exactly_the_free_chains(r):
    # free (telescopic, Kirfel & Pellikaan 1995): for every i >= 1,
    # d_i r_i lies in <r_0, ..., r_{i-1}>, all divided by theta_i
    theta = [r[0], *itertools.accumulate(r, math.gcd)]
    d = [theta[i] // theta[i + 1] for i in range(1, len(r))]
    free = all(
        sieve_membership([x // theta[i] for x in r[:i]])(
            d[i - 1] * r[i] // theta[i])
        for i in range(1, len(r)))
    _, conductor = sieved(r)
    ref = sieve_membership(r)
    bound = conductor + r[0] * max(d)
    counts = representation_counts(r, d, bound)
    bad = [(n, counts[n]) for n in range(bound + 1)
           if ref(n) and counts[n] != 1]
    assert free == (not bad)
    try:
        DeltaSequence(r)
    except AxiomViolation as exc:
        assert exc.witnesses == tuple(bad) and bad
    else:
        assert not bad


def test_rejected_chain_names_the_counted_witnesses():
    # <10, 4, 3> is not free: 2 * 3 / 2 = 3 is not in <5, 2>; the count
    # then names 6 = 2 * 3, a member with no admissible representation
    with pytest.raises(AxiomViolation) as info:
        DeltaSequence([10, 4, 3])
    counts = representation_counts([10, 4, 3], [5, 2], 6 + 10 * 5)
    member = closure_sieve([10, 4, 3], 56)
    assert info.value.witnesses == tuple(
        (n, counts[n]) for n in range(57) if member[n] and counts[n] != 1)
    assert info.value.witnesses[0] == (6, 0)


def test_delta_representation_uniqueness_verified():
    # every member up to the check bound is hit exactly once
    for r in ([2, 3], [2, 5], [4, 6, 7], [8, 12, 14, 15], [3, 4], [4, 6, 9]):
        DeltaSequence(r)


def test_poincare_direct_2_3():
    gf = poincare_direct(NumericalSemigroup([2, 3]))
    assert gf.num == LaurentPoly({(0,): 1, (1,): -1, (2,): 1})
    assert gf.den == ((1,),)


def test_poincare_direct_2_5():
    gf = poincare_direct(NumericalSemigroup([2, 5]))
    assert gf.num == LaurentPoly(
        {(0,): 1, (1,): -1, (2,): 1, (3,): -1, (4,): 1})


def test_poincare_direct_whole_line():
    gf = poincare_direct(NumericalSemigroup([1]))
    assert gf.num == LaurentPoly.one(1)
    assert gf.den == ((1,),)


def test_poincare_direct_expansion_is_indicator():
    for gens in ([2, 3], [2, 5], [3, 4], [3, 5], [4, 6, 7], [3, 4, 5]):
        s = NumericalSemigroup(gens)
        gf = poincare_direct(s)
        hi = 3 * max(s.conductor, 1)
        got = gf.expand(Window((0, hi)))
        for n in range(hi + 1):
            assert got[n] == int(s.contains(n)), (gens, n)


def test_delta_product_2_3():
    gf = poincare_delta_product(DeltaSequence([2, 3]))
    assert gf.num == LaurentPoly({(0,): 1, (6,): -1})
    assert gf.den == ((2,), (3,))


def test_delta_product_4_6_7():
    gf = poincare_delta_product(DeltaSequence([4, 6, 7]))
    assert gf.num == LaurentPoly({(0,): 1, (12,): -1}) * LaurentPoly(
        {(0,): 1, (14,): -1})
    assert gf.den == ((4,), (6,), (7,))
    assert gf.expand(Window((0, 12))) == \
        [1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1]


def test_delta_product_single():
    gf = poincare_delta_product(DeltaSequence([1]))
    assert gf.num == LaurentPoly.one(1)
    assert gf.den == ((1,),)


def test_delta_product_expansion_matches_closure_sieve():
    for r in ([2, 3], [2, 5], [4, 6, 7], [8, 12, 14, 15]):
        ds = DeltaSequence(r)
        s = ds.semigroup
        hi = 2 * max(s.conductor, 1)
        ref = closure_sieve(r, hi)
        got = poincare_delta_product(ds).expand(Window((0, hi)))
        assert got == [int(b) for b in ref], r


@pytest.mark.parametrize("semigroup", [
    NumericalSemigroup([3, 5]),
    OnePointSemigroup([4, 6, 7], [9]),
], ids=["numerical", "delta-extras"])
@pytest.mark.parametrize("check, error, message", [
    ("oracle", InputError, "check 'oracle' needs a fixture input"),
    ("c_prop", InputError, "check 'c_prop' needs a two-point input"),
    ("lemma4", InputError, "check 'lemma4' needs a two-point input"),
    ("all", UnknownCheck, "unknown check 'all'; pick one of "),
    ("indicatr", UnknownCheck, "unknown check 'indicatr'; pick one of "),
])
def test_verify_names_outside_the_one_point_checks(semigroup, check, error,
                                                   message):
    with pytest.raises(error) as info:
        semigroup.verify(check)
    assert type(info.value) is error
    assert str(info.value).startswith(message)
    assert str(info.value).endswith(
        "input" if error is InputError else str(semigroup.CHECKS))


def test_numerical_verify_refuses_delta_product():
    with pytest.raises(InputError) as info:
        NumericalSemigroup([4, 6, 7]).verify("delta_product")
    assert type(info.value) is InputError
    assert str(info.value) == "check 'delta_product' needs a delta input"


@pytest.mark.parametrize("check", ["indicator", "symmetry"])
def test_verify_refuses_a_two_point_window(check):
    # indicator used to die unpacking the bounds, symmetry ignored them
    S = NumericalSemigroup([3, 5])
    with pytest.raises(ArityMismatch):
        S.verify(check, Window((0, 5), (0, 5)))
    assert S.verify(check, Window((0, 5))).check == check


def test_one_point_semigroup_validation():
    base = DeltaSequence([4, 6, 7])
    ops = OnePointSemigroup(base, extras=[9])
    assert ops.gaps == (1, 2, 3, 5)
    assert ops.conductor == 6
    with pytest.raises(InvalidSemigroup):
        OnePointSemigroup(base, extras=[8])  # already a member
    with pytest.raises(AxiomViolation):
        OnePointSemigroup(base, extras=[5])  # 5 + 4 = 9 missing


def test_published_product_first_differs_at_twice_the_least_extra():
    # P stays the 0/1 indicator; the published product counts 9 + 9 again
    ops = OnePointSemigroup(DeltaSequence([4, 6, 7]), extras=[9])
    assert series_first_difference(ops) == 18
    assert series_modes_by_expansion(ops) == 18
    got = poincare_onepoint(ops).expand(Window((0, 20)))
    assert got == [int(ops.contains(n)) for n in range(21)]
    gp = paper_product_by_addition(ops).expand(Window((0, 20)))
    assert gp[9] == 1
    assert gp[18] == 2  # 18 in S and 9+9 counted again


def test_published_product_without_extras_is_p():
    ops = OnePointSemigroup(DeltaSequence([4, 6, 7]))
    assert poincare_onepoint(ops).equals(paper_product_by_addition(ops))
    assert series_first_difference(ops) is None
    assert series_modes_by_expansion(ops) is None


@pytest.mark.parametrize("r, extras, first", [
    ([4, 6, 7], [9], 18),
    ([8, 9], [55], 110),
    ([11, 12], [109], 218),  # the window ends at 99 + 109 + 10 = 218
    ([12, 13], [131], None),  # 2 * 131 lies beyond the window end 260
    ([20, 21], [379], None),
])
def test_series_modes_report_cases(r, extras, first):
    ops = OnePointSemigroup(r, extras)
    got = series_first_difference(ops)
    assert got == first
    assert got == series_modes_by_expansion(ops)


def test_l_polynomial_2_3():
    assert l_polynomial(NumericalSemigroup([2, 3])) == LaurentPoly(
        {(0,): 1, (1,): -1, (2,): 1})


def test_l_polynomial_paper_form_2_5():
    s = NumericalSemigroup([2, 5])
    direct = l_polynomial(s)
    paper = l_polynomial_paper(s)
    assert direct == LaurentPoly({(0,): 1, (1,): -1, (2,): 1, (3,): -1, (4,): 1})
    assert paper == LaurentPoly({(0,): 2, (1,): -2, (2,): 1, (3,): -1, (4,): 1})
    cmp = l_polynomial_comparison(s)
    assert cmp.differ
    assert cmp.difference == LaurentPoly({(0,): 1, (1,): -1})


def test_l_polynomial_whole_line():
    assert l_polynomial(NumericalSemigroup([1])) == LaurentPoly.one(1)


@settings(max_examples=150)
@given(st.one_of(numerical_semigroups(), delta_semigroups_with_extras()))
def test_l_polynomial_matches_the_mask_walk(s):
    assert l_polynomial(s) == l_polynomial_by_mask(s)


@pytest.mark.parametrize("s, symmetric", [
    (NumericalSemigroup([1]), True), (OnePointSemigroup([1]), True),  # a = 1
    (NumericalSemigroup([2, 3]), True), (NumericalSemigroup([2, 101]), True),
    (NumericalSemigroup([4, 6, 7]), True),
    (NumericalSemigroup([3, 4, 5]), False),
    (NumericalSemigroup([5, 7, 9]), False),
    (OnePointSemigroup([4, 6, 7], [3, 9]), True),
    (OnePointSemigroup([4, 6, 7], [9]), False),
    (NumericalSemigroup([997, 1009]), True)], ids=repr)
def test_l_polynomial_cases_match_the_mask_walk(s, symmetric):
    lpoly = l_polynomial(s)
    assert lpoly == l_polynomial_by_mask(s)
    assert s.is_symmetric() == symmetric
    assert (lpoly.reverse().shift((2 * s.genus,)) == lpoly) == symmetric


def test_l_is_one_minus_t_times_poincare():
    one_minus_t = LaurentPoly({(0,): 1, (1,): -1})
    for gens in ([2, 3], [2, 5], [3, 4], [4, 6, 7], [3, 4, 5]):
        s = NumericalSemigroup(gens)
        lhs = RationalGF(l_polynomial(s))
        rhs = poincare_direct(s) * one_minus_t
        assert lhs.equals(rhs), gens


def test_l_direct_palindromic_when_symmetric():
    for gens in ([2, 3], [2, 5], [3, 4], [3, 5], [4, 6, 7]):
        s = NumericalSemigroup(gens)
        lp = l_polynomial(s)
        g = s.genus
        for k in range(2 * g + 1):
            assert lp.coeff((k,)) == lp.coeff((2 * g - k,)), (gens, k)


def test_functional_equation_signs_2_3():
    eps_l, eps_p = functional_equation_signs(NumericalSemigroup([2, 3]))
    assert eps_l == 1
    assert eps_p == -1


def test_functional_equation_signs_constant_across_fixtures():
    for gens in ([2, 3], [2, 5], [3, 4], [3, 5], [4, 6, 7], [1]):
        assert functional_equation_signs(
            NumericalSemigroup(gens)) == (1, -1), gens


def test_functional_equation_requires_symmetry():
    with pytest.raises(NotSymmetric):
        functional_equation_signs(NumericalSemigroup([3, 4, 5]))


@pytest.mark.parametrize("s", [
    NumericalSemigroup([3, 4, 5]), NumericalSemigroup([5, 7, 9]),
    OnePointSemigroup([4, 6, 7], [9]), OnePointSemigroup([6, 9, 10], [23])],
    ids=repr)
def test_not_symmetric_message_lists_the_scanned_witnesses(s):
    with pytest.raises(NotSymmetric) as exc:
        functional_equation_signs(s)
    assert str(exc.value) == (
        "functional equation needs a symmetric semigroup; "
        f"witnesses {symmetry_witnesses_by_scan(s)}")


def test_symmetric_membership_pairing():
    # for symmetric S, exactly one of n and 2g-1-n is a member
    for gens in ([2, 3], [2, 5], [3, 4], [3, 5], [4, 6, 7]):
        s = NumericalSemigroup(gens)
        g = s.genus
        for n in range(-5, 2 * g + 6):
            assert s.contains(n) != s.contains(2 * g - 1 - n), (gens, n)


# (chain, extras) whose unions <2, 3>, <3, 4>, <3, 4> and <4, 5, 6> are
# symmetric
SYMMETRIC_WITH_EXTRAS = [((2, 5), (3,)), ((3, 7), (4, 8, 11)),
                         ((4, 6, 7), (3, 9)), ((4, 5), (6, 11))]


def random_free_chain(rng):
    """A delta sequence with descent quotients d in {2, 3}: r_0 = prod d
    and r_i = theta_{i+1} * k with k prime to d_i, redrawn until free."""
    d = [rng.choice((2, 3)) for _ in range(rng.randint(1, 3))]
    while True:
        r = [math.prod(d)] + [
            math.prod(d[i + 1:]) * rng.choice(
                [k for k in range(2, 16) if math.gcd(k, di) == 1])
            for i, di in enumerate(d)]
        try:
            return DeltaSequence(r)
        except AxiomViolation:
            continue


def seeded_one_point_inputs(seed, count):
    """Numerical semigroups (two generators are symmetric), delta
    sequences (free, so symmetric) and delta sequences with extras; the
    symmetric unions of SYMMETRIC_WITH_EXTRAS come first."""
    rng = random.Random(seed)
    out = [OnePointSemigroup(r, e) for r, e in SYMMETRIC_WITH_EXTRAS]
    out += [NumericalSemigroup([1]), OnePointSemigroup([1])]
    while len(out) < count:
        kind = rng.choice(("numerical", "delta", "extras"))
        if kind == "numerical":
            gens = rng.sample(range(2, 40), rng.randint(2, 4))
            if math.gcd(*gens) == 1:
                out.append(NumericalSemigroup(gens))
            continue
        base = random_free_chain(rng)
        gaps = base.semigroup.gaps
        if kind == "delta" or not gaps:
            out.append(OnePointSemigroup(base))
            continue
        try:
            out.append(OnePointSemigroup(
                base, rng.sample(gaps, rng.randint(1, min(3, len(gaps))))))
        except AxiomViolation:
            # every gap from some point on is always a closed enlargement
            k = rng.randint(0, base.semigroup.conductor)
            out.append(OnePointSemigroup(base, [n for n in gaps if n >= k]))
    return out


ONE_POINT_INPUTS = seeded_one_point_inputs(11, 120)


def test_seeded_inputs_cover_every_kind():
    def kind(s):
        if isinstance(s, NumericalSemigroup):
            return "numerical"
        return "extras" if s.extras else "delta"
    assert all(s.is_symmetric()
               for s in ONE_POINT_INPUTS[:len(SYMMETRIC_WITH_EXTRAS)])
    # <4,6,7> + {3, 9} keeps its base's table modulo 4, a member, though
    # its multiplicity is 3; the conductor and genus still read off it
    s = ONE_POINT_INPUTS[2]
    assert s.apery == (0, 9, 6, 3) and len(s.apery) == 4
    assert min(n for n in range(1, 5) if s.contains(n)) == 3
    assert (s.conductor, s.genus) == (6, 3)
    kinds = {(kind(s), s.is_symmetric()) for s in ONE_POINT_INPUTS}
    assert kinds == {(k, sym) for k in ("numerical", "delta", "extras")
                     for sym in (True, False)} - {("delta", False)}


@pytest.mark.parametrize("s", ONE_POINT_INPUTS, ids=repr)
def test_apery_checks_match_cross_multiplication_oracle(s, monkeypatch):
    new = s.verify("l_identity")
    for old in (l_identity_by_cross_multiplication(s),
                l_identity_by_dict_loop(s)):
        assert new.passed and old.passed
        assert new.to_json() == old.to_json()
    if s.is_symmetric():
        signs = functional_equation_signs(s)
        assert signs == signs_by_cross_multiplication(s)
        assert signs == (1, -1)
    new = s.verify("funceq")
    monkeypatch.setattr(onepoint, "functional_equation_signs",
                        signs_by_cross_multiplication)
    old = s.verify("funceq")
    assert new.passed == old.passed == s.is_symmetric()
    assert new.to_json() == old.to_json()


def seeded_symmetric_inputs(seed, count):
    """Symmetric <a, b> and symmetric delta sequences with extras: the
    extras are the base's gaps in T = <r, k> for some gaps k of the base,
    so the union is the semigroup T, closed, and kept when T is
    symmetric."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, b = rng.sample(range(2, 40), 2)
        if math.gcd(a, b) == 1:
            out.append(NumericalSemigroup([a, b]))
        base = random_free_chain(rng)
        gaps = base.semigroup.gaps
        if not gaps:
            continue
        whole = NumericalSemigroup(
            [*base.r, *rng.sample(gaps, rng.randint(1, min(2, len(gaps))))])
        if whole.is_symmetric():
            out.append(OnePointSemigroup(
                base, [n for n in gaps if whole.contains(n)]))
    return out[:count]


SYMMETRIC_INPUTS = [s for s in ONE_POINT_INPUTS if s.is_symmetric()] + \
    seeded_symmetric_inputs(23, 40)


def test_seeded_symmetric_inputs_have_extras():
    assert all(s.is_symmetric() for s in SYMMETRIC_INPUTS)
    assert sum(isinstance(s, OnePointSemigroup) and bool(s.extras)
               for s in SYMMETRIC_INPUTS[-40:]) >= 5


@pytest.mark.parametrize("s", SYMMETRIC_INPUTS, ids=repr)
def test_signs_match_the_apery_algebra_oracle(s):
    assert functional_equation_signs(s) == signs_by_apery_algebra(s) == (1, -1)


@pytest.mark.parametrize("s", SYMMETRIC_INPUTS, ids=repr)
def test_signs_fail_on_an_apery_table_moved_by_a(s, monkeypatch):
    # one entry w of class r moved to w + a, still in class r: both
    # identities fail for either sign, by list and by algebra alike
    a = len(s.apery)
    r = s.genus % a
    moved = (*s.apery[:r], s.apery[r] + a, *s.apery[r + 1:])
    monkeypatch.setattr(s, "apery", moved)
    assert s.is_symmetric()  # read off the conductor and genus
    assert functional_equation_signs(s) == signs_by_apery_algebra(s) == \
        (None, None)
    report = s.verify("funceq")
    assert not report.passed
    assert (report.details["eps_l"], report.details["eps_p"]) == (None, None)


def _raises(*args, **kwargs):
    raise AssertionError("series algebra in a one-point check")


@pytest.mark.parametrize("kind", ["numerical", "delta"])
def test_one_point_verify_does_no_series_algebra(kind, monkeypatch):
    inputs = [s for s in ONE_POINT_INPUTS + SYMMETRIC_INPUTS
              if isinstance(s, NumericalSemigroup) == (kind == "numerical")]
    expected = [[cli._report_json(s.verify(c)) for c in s.CHECKS]
                for s in inputs]
    monkeypatch.setattr(RationalGF, "reciprocal", _raises)
    monkeypatch.setattr(RationalGF, "equals", _raises)
    if kind == "numerical":  # a delta product multiplies its factors
        monkeypatch.setattr(LaurentPoly, "__mul__", _raises)
        monkeypatch.setattr(LaurentPoly, "__rmul__", _raises)
    for s, shown in zip(inputs, expected):
        reports = [s.verify(c) for c in s.CHECKS]
        assert [cli._report_json(rep) for rep in reports] == shown
        assert all(rep.passed for rep in reports) == s.is_symmetric()


@pytest.mark.parametrize("s", ONE_POINT_INPUTS, ids=repr)
def test_apery_form_is_the_poincare_series(s):
    assert apery_series(s).equals(direct_series(s))
    a = len(s.apery)
    if isinstance(s, OnePointSemigroup):
        # the conductor and genus as they were read before the Apery set
        base = s.base.semigroup
        assert s.conductor == (
            base_plus_extras_mask(s, base.conductor).rfind(0) + 1
            if s.extras else base.conductor)
        assert s.genus == base.genus - len(s.extras)
    member = s.mask(s.conductor + a)
    assert s.apery == tuple(next(n for n in range(r, s.conductor + a, a)
                                 if member[n]) for r in range(a))


def cli_input(s):
    if isinstance(s, NumericalSemigroup):
        return {"kind": "numerical", "generators": list(s.generators)}
    return {"kind": "delta", "r": list(s.base.r), "extras": list(s.extras)}


@st.composite
def expand_windows(draw, s):
    """None (the default window) or a window with lo < 0, hi < 0,
    lo > c, or a single cell."""
    c = s.conductor
    shape = draw(st.sampled_from(("default", "lo<0", "hi<0", "lo>c", "cell")))
    if shape == "default":
        return None
    if shape == "cell":
        n = draw(st.integers(-3, c + 3))
        return Window((n, n))
    lo = draw({"lo<0": st.integers(-9, -1), "hi<0": st.integers(-9, -2),
               "lo>c": st.integers(c + 1, c + 9)}[shape])
    top = -1 if shape == "hi<0" else max(lo, c) + 2 * len(s.apery) + 3
    return Window((lo, draw(st.integers(lo, top))))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(ONE_POINT_INPUTS), st.data())
def test_apery_reports_and_expand_match_direct_series_oracle(s, data):
    window = data.draw(expand_windows(s))
    resolved = window or s.default_window()
    # the series may differ in form, never in value; the funceq report
    # carries P(t), the oracle's L(t) = (1 - t) P(t)
    for new, old, times in ((s.verify("indicator", resolved),
                             indicator_by_direct_series(s, resolved), 1),
                            (s.verify("symmetry"),
                             symmetry_by_direct_series(s), 1),
                            (s.verify("funceq"), funceq_by_direct_series(s),
                             LaurentPoly({(0,): 1, (1,): -1}))):
        assert (new.series is None) == (old.series is None)
        assert new.series is None or (new.series * times).equals(old.series)
        assert replace(new, series=None) == replace(old, series=None)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as handle:
            json.dump(cli_input(s), handle)
        flags = [] if window is None else [
            "--window", *map(str, window.bounds[0])]
        for json_output in (False, True):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["expand", path, *flags]
                                + ["--json"] * json_output)
            assert code == 0
            assert out.getvalue() == expand_stdout_by_series(
                direct_series(s), resolved, json_output)


def indicator_windows(s):
    """The default window and windows below 0, straddling 0, straddling
    the conductor c, of a single point and wholly beyond c, near and far."""
    c, a = s.conductor, len(s.apery)
    return [s.default_window(), Window((-9, -1)), Window((-4, c // 2)),
            Window((max(0, c - a), c + a)), Window((-1, -1)), Window((0, 0)),
            Window((c - 1, c - 1)), Window((c, c)),
            Window((c + 3, c + 3 * a + 7)),
            Window((10**6 + c, 10**6 + c + 2 * a))]


@pytest.mark.parametrize("s", ONE_POINT_INPUTS, ids=repr)
def test_indicator_is_the_apery_series_expansion(s):
    p = apery_series(s)
    for window in indicator_windows(s):
        assert list(s.indicator(window)) == p.expand(window), window


def unreducible_series(series, s):
    """Series of the same value as P or near it that the indicator report
    must expand: P + t^k (every factor divides its numerator, which still
    is not the Apery numerator), a numerator that 1 - t^(a+1) does not
    divide, and P over 1 - t, with no factor 1 - t^a once a > 1."""
    a, k = len(s.apery), s.conductor + 1
    bump = LaurentPoly({(k,): 1})
    return [series + bump,
            RationalGF(series.num * LaurentPoly({(0,): 1, (a + 1,): -1})
                       + bump, [*series.den, (a + 1,)]),
            poincare_direct(s)]


@pytest.mark.parametrize("s", ONE_POINT_INPUTS[::3], ids=repr)
def test_indicator_reports_match_the_expansion_oracle(s):
    own = poincare_onepoint(s) if isinstance(s, OnePointSemigroup) \
        else apery_series(s)
    # the library asks no point: its reports are the expansion's on every
    # window, far out through the Apery form, the same value
    _, *near, far = indicator_windows(s)
    for window in [s.default_window(), *near]:
        assert s.verify("indicator", window) == \
            indicator_report_by_expansion("indicator", own, s, window)
    assert s.verify("indicator", far) == replace(indicator_report_by_expansion(
        "indicator", apery_series(s), s, far), series=own)
    pairs = [(own, s)]
    if isinstance(s, OnePointSemigroup):
        base = s.base.semigroup
        product = poincare_delta_product(s.base)
        assert s.verify("delta_product") == indicator_report_by_expansion(
            "delta_product", product, base,
            Window((0, max(2 * base.conductor, 8))))
        pairs.append((product, base))
    for series, sg in pairs:
        _, *near, far = indicator_windows(sg)
        for candidate in (series, *unreducible_series(series, sg)):
            for window in near:
                assert indicator_report_by_division(
                    "x", candidate, sg, window) == \
                    indicator_report_by_expansion("x", candidate, sg, window)
        # far out the one-factor Apery form is the oracle's cheap stand-in
        # for a series of the same value, which it would expand from 0
        for window in (far, Window((10**9, 10**9 + 2 * len(sg.apery)))):
            expected = indicator_report_by_expansion(
                "x", apery_series(sg), sg, window)
            assert expected.passed
            assert indicator_report_by_division(
                "x", series, sg, window) == replace(expected, series=series)


@pytest.mark.parametrize(
    "s", [s for s in ONE_POINT_INPUTS if isinstance(s, OnePointSemigroup)],
    ids=repr)
def test_delta_checks_expand_no_series(s, monkeypatch):
    # the constructors proved the chain free and the extras closed, so
    # `all` runs with nothing expanded, and only symmetry and funceq can
    # fail, exactly on a semigroup that is not symmetric
    def refuse(*args):
        raise AssertionError("a check expanded a series")

    monkeypatch.setattr(RationalGF, "expand", refuse)
    sym = s.is_symmetric()
    assert {check: s.verify(check).passed for check in s.CHECKS} == {
        "indicator": True, "l_identity": True, "delta_product": True,
        "symmetry": sym, "funceq": sym}


# windows across each width of n in the text lines (9 | 10, ...,
# 10^9 - 1 | 10^9, and -10^9 | -10^9 + 1, ..., -10 | -9), of a single
# point, wholly negative, straddling 0 and near 10^9
RENDER_WINDOWS = [
    *((10**k - 5, 10**k + 5) for k in range(1, 10)),
    *((-10**k - 5, -10**k + 5) for k in range(1, 10)),
    (0, 0), (-1, -1), (9, 9), (10, 10), (999, 999), (1000, 1000),
    (10**5, 10**5), (10**9, 10**9), (-25, -1), (-10**9 - 3, -10**9 + 3),
    (-7, 12), (-1001, 1003), (10**9 - 1003, 10**9 + 1001)]


@pytest.mark.parametrize(
    "s", [NumericalSemigroup([31, 37]), *ONE_POINT_INPUTS], ids=repr)
def test_expand_renders_as_the_series_expansion(s):
    model = cli.Model(cli_input(s)["kind"], s)
    for window in [None, *indicator_windows(s),
                   *(Window(bounds) for bounds in RENDER_WINDOWS)]:
        flags = None if window is None else list(window.bounds[0])
        for json_output in (False, True):
            code, text = cli._run_expand(model, argparse.Namespace(
                window=flags, json_output=json_output))
            assert code == 0
            assert text + "\n" == expand_stdout_by_series(
                apery_series(s), window or s.default_window(), json_output)


@pytest.mark.parametrize("lo, hi", sorted({
    (-25, -1), (-1, -1), (-1001, 2), (-3, 999), (0, 0), (998, 1002),
    (999, 999), (1000, 1000), (1001, 1001), (999, 2001), (1079, 3240),
    (5000, 7100), (123456, 130000), (10**9 - 3, 10**9 + 1001),
    *RENDER_WINDOWS}))
def test_text_expand_matches_the_per_line_renderer(lo, hi):
    s = NumericalSemigroup([31, 37])  # c = 1080
    model = cli.Model("numerical", s)
    digits = s.indicator(Window((lo, hi))).translate(
        bytes.maketrans(b"\0\1", b"01")).decode()
    code, text = cli._run_expand(model, argparse.Namespace(
        window=[lo, hi], json_output=False))
    assert code == 0 and text == expand_lines_per_point(lo, digits)


@settings(max_examples=200)
@given(st.one_of(st.integers(0, 2500), st.integers(10**9, 10**9 + 10**4)),
       st.text(alphabet="01", max_size=2600))
@example(1001, "")
@example(999, "0110")
def test_block_renderer_matches_the_per_line_renderer(lo, digits):
    # text expand from 0 on: selector byte 2 (n - lo) + d picks the line
    # "n: d", each with its newline (the CLI cuts the last one)
    sel = b"".join(b"\0\1" if d == "1" else b"\1\0" for d in digits)
    text = "".join(cli._decimal_parts(sel, (": 0\n", ": 1\n"), lo))
    assert text == "".join(
        line + "\n" for line in expand_lines_per_point(lo, digits).split("\n")
        if line)


def test_expand_json_holds_the_output_once_or_twice():
    # 6 MB of output: the digit bytes (3 MB), then the output as bytes
    # and as text, 15 MB in all; a 1-character string per digit would
    # add 24 MB of list pointers alone (33 MB traced peak)
    model = cli.Model("numerical", NumericalSemigroup([997, 1009]))
    ns = argparse.Namespace(window=[0, 3 * 10**6], json_output=True)
    (code, text), peak = traced_peak(lambda: cli._run_expand(model, ns))
    assert code == 0 and len(text) > 6 * 10**6
    assert peak < 26_000_000


def test_text_expand_holds_the_output_about_twice():
    # the blocks of lines, then their join: 6.2 MB traced peak for
    # 2.9 MB of lines; the digits' bytes are dropped before the lines
    # are built
    model = cli.Model("numerical", NumericalSemigroup([997, 1009]))
    ns = argparse.Namespace(window=[0, 3 * 10**5], json_output=False)
    (code, text), peak = traced_peak(lambda: cli._run_expand(model, ns))
    assert code == 0 and text.endswith("\n300000: 1")
    assert peak < 2.2 * len(text)


# numerical and delta inputs with extras (test_seeded_inputs_cover_every_kind)
NON_SYMMETRIC_INPUTS = [s for s in ONE_POINT_INPUTS if not s.is_symmetric()]


@pytest.mark.parametrize("s", NON_SYMMETRIC_INPUTS, ids=repr)
def test_cli_symmetry_reports_match_the_scan_oracle(s, monkeypatch,
                                                    tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(cli_input(s)))

    def outputs():
        found = []
        for check, flags in itertools.product(("symmetry", "funceq", "all"),
                                              ([], ["--json"])):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["verify", str(path), "--check", check,
                                 *flags])
            found.append((code, out.getvalue()))
        return found

    new = outputs()
    assert all(code == 1 for code, _ in new)
    for cls in (NumericalSemigroup, OnePointSemigroup):
        monkeypatch.setattr(cls, "symmetry_witnesses",
                            symmetry_witnesses_by_scan)
    assert outputs() == new


@pytest.mark.parametrize("s", ONE_POINT_INPUTS[::10], ids=repr)
def test_l_identity_fails_on_a_changed_l_polynomial(s, monkeypatch):
    # the check reads L off its jumps: one jump more or less, one moved,
    # or one repeated breaks the identity, as it breaks the dict-loop
    # oracle's; on <2, 3> + extras the repeated conductor leaves both
    # sides with the same set of exponents, so only counting them fails it
    jumps = l_jumps(s)
    changed = [sorted(set(jumps) ^ {n})
               for n in (0, 1, s.conductor, s.conductor + len(s.apery))]
    changed.append([*jumps[:-1], jumps[-1] + 1])  # the conductor moved
    changed.append([*jumps, jumps[-1]])  # and repeated
    for wrong in changed:
        monkeypatch.setattr(onepoint, "l_jumps", lambda t: list(wrong))
        report = s.verify("l_identity")
        assert not report.passed, wrong
        assert report.to_json() == l_identity_by_dict_loop(s).to_json()


@pytest.mark.parametrize(
    "s", [*ONE_POINT_INPUTS, NumericalSemigroup([997, 1009])], ids=repr)
def test_l_jumps_are_the_mask_walks_terms_with_alternating_signs(s):
    jumps = l_jumps(s)
    lpoly = l_polynomial_by_mask(s)
    assert jumps == [e for (e,), _ in lpoly.terms()]
    assert [c for _, c in lpoly.terms()] == [(-1) ** i
                                             for i in range(len(jumps))]
    assert jumps[-1] == s.conductor and len(jumps) % 2 == 1
    assert l_polynomial(s) == lpoly


@pytest.mark.parametrize(
    "s", [*ONE_POINT_INPUTS, NumericalSemigroup([997, 1009])], ids=repr)
def test_jump_mask_sets_the_starts_and_ends_of_l_jumps(s):
    # starts (+1) on even bytes 2n, ends (-1) on odd bytes 2n + 1, and
    # l_jump_count counts them; the inputs hold <1>, where c = 0 and 0 is
    # the only jump
    jumps = l_jumps(s)
    assert l_jump_count(s) == len(jumps)
    mask = s.jump_mask()
    assert len(mask) == 2 * (s.conductor + 1)
    assert list(itertools.compress(range(len(mask)), mask)) == sorted(
        [2 * n for n in jumps[::2]] + [2 * n + 1 for n in jumps[1::2]])


SEEDED_DELTA_INPUTS = [s for s in ONE_POINT_INPUTS
                       if isinstance(s, OnePointSemigroup)]


# the oracle multiplies out one denominator factor per extra, which takes
# seconds beyond a few dozen extras; the closed form costs O(1) on all
@pytest.mark.parametrize(
    "s", [s for s in SEEDED_DELTA_INPUTS if 0 < len(s.extras) <= 30],
    ids=repr)
def test_seeded_series_modes_report_matches_expansion(s):
    assert series_first_difference(s) == series_modes_by_expansion(s)


@pytest.mark.parametrize("s", SEEDED_DELTA_INPUTS, ids=repr)
def test_apery_membership_is_base_or_extra(s):
    # a closed enlargement's Apery set answers as the base plus the extras
    hi = s.base.semigroup.conductor + len(s.apery) + 7
    assert s.mask(hi) == base_plus_extras_mask(s, hi)
    assert [s.contains(n) for n in range(-3, hi)] == [
        base_or_extra(s, n) for n in range(-3, hi)]


@pytest.mark.parametrize("s", ONE_POINT_INPUTS, ids=repr)
def test_symmetry_is_the_apery_involution(s):
    top = max(s.apery)
    assert top == (s.conductor - 1) + len(s.apery)  # max Ap = F + a
    assert s.is_symmetric() == (
        sorted(s.apery) == sorted(top - w for w in s.apery))


def test_north_star_signs_and_l_identity():
    s = NumericalSemigroup([997, 1009])
    assert functional_equation_signs(s) == (1, -1)
    assert s.genus == 996 * 1008 // 2
    report = s.verify("l_identity")
    assert report.passed
    assert report.to_json() == l_identity_by_dict_loop(s).to_json()
