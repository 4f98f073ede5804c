"""Acceptance suite: one test per shipped guarantee, all exact (tolerance 0).

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Every comparison below is integer arithmetic; there are no
tolerances to tune.
"""

import json
import math
import random

import pytest

from wsemigroups import (
    DeltaSequence,
    Fixture,
    NumericalSemigroup,
    TwoPointSemigroup,
    Window,
    d_oracle,
    functional_equation_signs,
    l_polynomial,
    poincare_delta_product,
    poincare_direct,
    semigroup_from_fixture,
)
from wsemigroups import cli

from series_oracle import series_from_json
from twopoint_oracle import order_independence_witnesses

SEED = 20260814

NAMED_GENERATORS = [(2, 3), (2, 5), (3, 4), (3, 5), (4, 6, 7)]

ORACLE_FIXTURES = [
    Fixture("projective_line"),
    Fixture("elliptic", 1),
    Fixture("elliptic", 2),
    Fixture("elliptic", 3),
]

SQUARE_6 = Window((-6, 6), (-6, 6))


def expand_coeffs(gf, lo, hi):
    return gf.expand(Window((lo, hi)))


def test_criterion_01_one_point_indicator():
    rng = random.Random(SEED)
    pool = [NumericalSemigroup(g) for g in NAMED_GENERATORS]
    while len(pool) < len(NAMED_GENERATORS) + 100:
        gens = sorted(rng.randint(2, 30) for _ in range(rng.randint(2, 4)))
        if math.gcd(*gens, 0) != 1:
            continue
        sg = NumericalSemigroup(tuple(gens))
        if sg.genus <= 25:
            pool.append(sg)
    for sg in pool:
        hi = 3 * sg.conductor
        coeffs = expand_coeffs(poincare_direct(sg), 0, hi)
        indicator = [1 if sg.contains(n) else 0 for n in range(hi + 1)]
        assert coeffs == indicator, sg.generators


def test_criterion_02_delta_product_formula():
    for r in [(2, 3), (2, 5), (4, 6, 7), (8, 12, 14, 15)]:
        ds = DeltaSequence(r)
        hi = 2 * ds.semigroup.conductor
        coeffs = expand_coeffs(poincare_delta_product(ds), 0, hi)
        # closure BFS over the generators, independent of the sieve
        reachable = [False] * (hi + 1)
        reachable[0] = True
        for n in range(1, hi + 1):
            reachable[n] = any(n >= g and reachable[n - g] for g in r)
        assert coeffs == [1 if m else 0 for m in reachable], r
    window_467 = expand_coeffs(poincare_delta_product(DeltaSequence((4, 6, 7))), 0, 12)
    assert window_467 == [1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1]


def test_criterion_03_l_polynomial_functional_equation():
    corpus = [NumericalSemigroup(g)
              for g in NAMED_GENERATORS + [(8, 12, 14, 15)]]
    signs = set()
    for sg in corpus:
        assert sg.is_symmetric(), sg.generators
        lpoly = l_polynomial(sg)
        top = 2 * sg.genus
        assert lpoly.support()[-1] == (top,)  # the largest exponent
        for n in range(top + 1):
            assert lpoly.coeff((n,)) == lpoly.coeff((top - n,)), sg.generators
        signs.add(functional_equation_signs(sg))
    assert signs == {(1, -1)}
    # the verification report states how these signs relate to the
    # commonly displayed opposite pair
    model = cli.parse_input(b'{"kind":"numerical","generators":[4,6,7]}')
    report = model.semigroup.verify("funceq")
    assert report.passed
    assert report.details["opposite_pair_fails"] is True


def test_criterion_04_oracle_keystone():
    mismatches = []
    for fx in ORACLE_FIXTURES:
        sg = semigroup_from_fixture(fx)
        for m in SQUARE_6.points():
            if sg.dim_jump(m) != d_oracle(fx, m):
                mismatches.append((fx.family, fx.period, m))
    assert mismatches == []


def _random_two_point(rng):
    genus = rng.randint(0, 4)
    period = rng.randint(1, 4)
    gens = []
    for _ in range(rng.randint(1, 4)):
        s = rng.randint(0, 2 * genus + period)
        m1 = rng.randint(-2 * period, 2 * period)
        gens.append((m1, s - m1))
    return TwoPointSemigroup.from_members(genus, period, gens)


def test_criterion_05_pointwise_c_identity():
    subjects = [semigroup_from_fixture(fx) for fx in ORACLE_FIXTURES]
    rng = random.Random(SEED)
    kept = 0
    attempts = 0
    while kept < 50:
        attempts += 1
        assert attempts < 500, "random strip pool exhausted"
        sg = _random_two_point(rng)
        if order_independence_witnesses(sg, sg.default_window()):
            continue
        subjects.append(sg)
        kept += 1
    for sg in subjects:
        report = sg.verify("c_identity")
        assert report.passed, (sg.genus, sg.period, report.witnesses)


def test_criterion_06_c_prop_violation_ledger():
    proj = semigroup_from_fixture(Fixture("projective_line"))
    assert proj.verify("c_prop", SQUARE_6).passed

    e2 = semigroup_from_fixture(Fixture("elliptic", 2))
    report = e2.verify("c_prop", SQUARE_6)
    assert not report.passed
    witnesses = set(report.witnesses)
    assert witnesses == {(1, 1), (3, -1), (-1, 3)}
    # exactly the translates of (1,1) inside the scanned region, and
    # exactly the points where m and m-1 are both maximal
    scan = Window(*report.details["scan"])
    translates = {(1 + 2 * lam, 1 - 2 * lam) for lam in range(-5, 6)} & set(scan.points())
    assert witnesses == translates
    both_maximal = {m for m in scan.points()
                    if e2.is_maximal(m) and e2.is_maximal((m[0] - 1, m[1] - 1))}
    assert witnesses == both_maximal


def test_criterion_07_corner_theorem_set_level():
    for fx in ORACLE_FIXTURES:
        sg = semigroup_from_fixture(fx)
        window = sg.default_window()
        assert set(sg.maximal_points_in(window)) == set(sg.corner_translates_in(window))
    e2 = semigroup_from_fixture(Fixture("elliptic", 2))
    assert set(e2.corner_maximals()) == {(1, 1), (2, -2)}
    proj = semigroup_from_fixture(Fixture("projective_line"))
    assert set(proj.corner_maximals()) == {(1, -1)}


def test_criterion_08_coefficient_corollary():
    for fx in ORACLE_FIXTURES:
        sg = semigroup_from_fixture(fx)
        for m in SQUARE_6.points():
            assert sg.maximal_count_coefficient(m) == sg.dim_jump(m), (fx, m)


def test_criterion_09_two_point_symmetry():
    e2 = semigroup_from_fixture(Fixture("elliptic", 2))
    sigma, witnesses = e2.find_symmetry_point(SQUARE_6)
    assert sigma == (1, 1)
    assert sum(sigma) == 2 * e2.genus
    assert sigma is not None and not witnesses
    assert witnesses == ()

    broken = TwoPointSemigroup(
        1, 2, [[True, True], [False, False]])
    assert broken.find_symmetry_point(SQUARE_6)[0] is None


def test_criterion_10_d_variant_discrepancy():
    e2 = semigroup_from_fixture(Fixture("elliptic", 2))
    report = e2.verify("d_agreement", SQUARE_6)
    assert not report.passed
    scan = Window(*report.details["scan"])
    antidiagonal = {m for m in scan.points() if m[0] + m[1] == 1}
    assert set(report.witnesses) == antidiagonal


def _invoke(argv, capsys):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_criterion_11_cli_contract(tmp_path, capsys):
    fixture_path = tmp_path / "fixture-elliptic2.json"
    fixture_path.write_text('{"kind":"fixture","name":"elliptic","period":2}')
    ns_path = tmp_path / "ns-23.json"
    ns_path.write_text('{"kind":"numerical","generators":[2,3]}')

    code, _, _ = _invoke(
        ["verify", str(fixture_path), "--check", "c_identity",
         "--window", "-6", "6", "-6", "6"], capsys)
    assert code == 0

    code, out, _ = _invoke(
        ["verify", str(fixture_path), "--check", "c_prop",
         "--window", "-6", "6", "-6", "6", "--json"], capsys)
    assert code == 1
    assert {tuple(w) for w in json.loads(out)["witnesses"]} == \
        {(1, 1), (3, -1), (-1, 3)}

    code, out, _ = _invoke(["poincare", str(ns_path), "--form", "direct"], capsys)
    assert code == 0
    assert out == '{"num":[{"e":[0],"c":1},{"e":[1],"c":-1},{"e":[2],"c":1}],"den":[[1]]}\n'

    # emitted series JSON round-trips under exact equality of rational forms
    parsed = series_from_json(json.loads(out))
    assert parsed.equals(poincare_direct(NumericalSemigroup((2, 3))))

    # identical invocations are byte-identical
    for argv in (
        ["analyze", str(fixture_path), "--json"],
        ["verify", str(fixture_path), "--check", "all", "--json"],
        ["poincare", str(ns_path), "--form", "closed"],
    ):
        assert _invoke(argv, capsys) == _invoke(argv, capsys)
