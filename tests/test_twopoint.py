import contextlib
import io
import json
import os
import random
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsemigroups import (
    CHECKS,
    ArityMismatch,
    AxiomViolation,
    InputError,
    InvalidSemigroup,
    TwoPointSemigroup,
    UnknownCheck,
    Window,
    WindowTooSmall,
)

from wsemigroups import cli, twopoint
from wsemigroups.oracle import Fixture, semigroup_from_fixture
from wsemigroups.twopoint import interior_region

import twopoint_oracle as oracle

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import random_members  # noqa: E402

T, F = True, False


def projective_line():
    return TwoPointSemigroup(0, 1, [])


def elliptic2():
    return TwoPointSemigroup(1, 2, [[T, F], [F, F]])


def elliptic3():
    return TwoPointSemigroup(1, 3, [[T, F, F], [F, F, T]])


def genus2_line():
    return TwoPointSemigroup.from_members(2, 1, [(0, 0)])


def all_sum_zero_strip():
    # valid strip whose corner maximals all have sum 0, so no symmetry
    # point candidate with sum 2g exists
    return TwoPointSemigroup(1, 2, [[T, T], [F, F]])


def order_dependent_strip():
    # (1,0) has a column member only above sum 0, so the two jump
    # decompositions disagree there
    return TwoPointSemigroup(1, 2, [[T, F], [F, T]])


@st.composite
def random_semigroups(draw):
    g = draw(st.integers(min_value=0, max_value=3))
    th = draw(st.integers(min_value=1, max_value=3))
    gens = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        s = draw(st.integers(min_value=0, max_value=2 * g + 2))
        m1 = draw(st.integers(min_value=-2 * th, max_value=2 * th))
        gens.append((m1, s - m1))
    return TwoPointSemigroup.from_members(g, th, gens)


@st.composite
def strip_semigroups(draw):
    """Strips with genus and period up to 6, so each residue has
    several classes."""
    g = draw(st.integers(min_value=0, max_value=6))
    th = draw(st.integers(min_value=1, max_value=6))
    gens = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        s = draw(st.integers(min_value=0, max_value=2 * g + 2))
        m1 = draw(st.integers(min_value=-2 * th, max_value=2 * th))
        gens.append((m1, s - m1))
    return TwoPointSemigroup.from_members(g, th, gens)


def fixture(name, period=1):
    return semigroup_from_fixture(Fixture(name, period))


def strip_4x5():
    # its maximal_count_coefficient above sum 2g takes values other than 2
    return TwoPointSemigroup(4, 5, [
        [c == "1" for c in row] for row in (
            "10000", "00000", "00000", "10000",
            "00001", "10000", "10000", "00001")])


def windows_for(S):
    """Windows of seven kinds: 5x5 (a 1x1 interior), ones that cut class
    progressions at both ends, ones entirely below sum 0 or above sum
    2g+2, ones wider than +-(2g + 4 period), and 5x5 or cutting windows
    whose sums lie near +-10^9."""
    g, th = S.genus, S.period
    reach = 2 * g + 4 * th + 1
    at = st.integers(min_value=-reach, max_value=reach)
    width = st.integers(min_value=4, max_value=3 * th + 4)
    gap = st.integers(min_value=1, max_value=2 * th + 2)
    extra = st.integers(min_value=0, max_value=3)
    far = st.integers(min_value=10**9 - 3 * th, max_value=10**9 + 3 * th)
    far = st.one_of(far, far.map(lambda k: -k))
    return st.tuples(
        st.builds(lambda x, y: Window((x, x + 4), (y, y + 4)), at, at),
        st.builds(lambda x, y, w1, w2: Window((x, x + w1), (y, y + w2)),
                  at, at, width, width),
        st.builds(lambda x, w1, w2, k: Window(
            (x, x + w1), (-x - w1 - w2 - k, -x - w1 - k)),
            at, width, width, gap),
        st.builds(lambda x, w1, w2, k: Window(
            (x, x + w1), (2 * g + 2 + k - x, 2 * g + 2 + k - x + w2)),
            at, width, width, gap),
        st.builds(lambda e1, e2, e3, e4: Window(
            (-reach - e1, reach + e2), (-reach - e3, reach + e4)),
            extra, extra, extra, extra),
        st.builds(lambda x, k: Window((x, x + 4), (k - x, k - x + 4)),
                  at, far),
        st.builds(lambda x, k, w1, w2: Window((x, x + w1), (k - x, k - x + w2)),
                  at, far, width, width))


points = st.tuples(st.integers(min_value=-8, max_value=8),
                   st.integers(min_value=-8, max_value=8))


# construction

def test_from_strip_projective_line():
    S = projective_line()
    assert S.genus == 0 and S.period == 1 and S.strip == ()
    assert S.contains((0, 0)) and S.contains((5, -5)) and S.contains((-3, 7))
    assert not S.contains((0, -1))


def test_from_strip_elliptic_membership():
    S = elliptic2()
    assert S.contains((1, 1))
    assert not S.contains((1, 0))
    assert not S.contains((-1, -1))
    assert S.contains((2, -2)) and S.contains((-2, 2))
    assert not S.contains((1, -1))


def test_from_strip_rejects_missing_origin():
    with pytest.raises(AxiomViolation, match="origin"):
        TwoPointSemigroup(1, 2, [[F, T], [F, F]])


def test_from_strip_rejects_closure_violation():
    with pytest.raises(AxiomViolation, match="closure") as exc:
        TwoPointSemigroup(2, 1, [[T], [T], [F], [F]])
    assert ((1, 0), (1, 0), (2, 0)) in exc.value.witnesses


def test_from_strip_shape_errors():
    with pytest.raises(InvalidSemigroup):
        TwoPointSemigroup(1, 2, [[T, F]])
    with pytest.raises(InvalidSemigroup):
        TwoPointSemigroup(1, 2, [[T], [F]])
    with pytest.raises(InvalidSemigroup):
        TwoPointSemigroup(-1, 2, [])
    with pytest.raises(InvalidSemigroup):
        TwoPointSemigroup(1, 0, [[], []])


def test_strip_error_texts():
    # the first row with a non-bool cell is named, before any shape check
    for rows, bad in (([[T, F], [F, 1]], "(False, 1)"),
                      ([[T, 0], [F, None]], "(True, 0)"),
                      ([[T, 1]], "(True, 1)")):
        with pytest.raises(TypeError) as exc:
            TwoPointSemigroup(1, 2, rows)
        assert str(exc.value) == f"strip cells must be bools, got row {bad}"
    with pytest.raises(InvalidSemigroup) as exc:
        TwoPointSemigroup(1, 2, [[T, F], [F]])
    assert str(exc.value) == "every strip row must have 2 entries"
    with pytest.raises(InvalidSemigroup) as exc:
        TwoPointSemigroup(1, 2, [[T, F]])
    assert str(exc.value) == "strip must have 2*genus = 2 rows, got 1"
    with pytest.raises(InvalidSemigroup) as exc:
        TwoPointSemigroup(0, 3, [[T, F, F]])
    assert str(exc.value) == "strip must have 2*genus = 0 rows, got 1"


def test_strip_budget_is_checked_before_any_cell(monkeypatch):
    # the Hermitian q = 32 strip has 2 * 496 * 33 = 32,736 cells; lowered
    # to 8, the budget admits 2g * period = 8 and refuses 10 and 12 in
    # every builder, before a row is read, listed or asked
    assert twopoint.MAX_STRIP_CELLS >= 2 * 496 * 33
    monkeypatch.setattr(twopoint, "MAX_STRIP_CELLS", 8)
    assert TwoPointSemigroup.from_members(2, 2, []).genus == 2
    assert semigroup_from_fixture(Fixture("elliptic", 4)).period == 4

    def unread_rows():
        raise AssertionError("a row was read before the budget check")
        yield

    message = r"^strip of 2\*genus\*period = 12 cells exceeds the budget 8 "
    for build in (lambda: TwoPointSemigroup(2, 3, unread_rows()),
                  lambda: TwoPointSemigroup.from_members(2, 3, [(1, 1)])):
        with pytest.raises(InvalidSemigroup, match=message):
            build()
    with pytest.raises(InvalidSemigroup, match="= 10 cells"):
        semigroup_from_fixture(Fixture("elliptic", 5))


def calls_to_build_and_check(genus, period):
    """Python-level calls into the package made while building a (genus,
    period) strip of four member classes and running lemma4 and closure
    on it; calls elsewhere, such as a garbage-collection callback, are
    not counted."""
    rows = [[False] * period for _ in range(2 * genus)]
    for s, a in ((0, 0), (genus + 1, 3), (genus + 2, 5), (2 * genus - 1, 7)):
        rows[s][a] = True
    window = Window((-10, 10), (-10, 10))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" and \
            frame.f_globals.get("__name__", "").startswith("wsemigroups.")

    sys.setprofile(count)
    try:
        S = TwoPointSemigroup(genus, period, rows)
        reports = [S.verify(check, window) for check in ("lemma4", "closure")]
    finally:
        sys.setprofile(None)
    assert all(rep.passed for rep in reports)
    return calls


def test_construction_and_free_checks_make_no_call_per_row_or_class():
    # the cells are read by C-level scans, the tables filled per member
    # class, and lemma4 and closure ask no class at all
    assert calls_to_build_and_check(50, 50) == \
        calls_to_build_and_check(150, 150)


def test_from_members_elliptic():
    S = TwoPointSemigroup.from_members(1, 2, [(2, -2), (1, 1)])
    assert S.strip == elliptic2().strip


def test_from_members_projective():
    S = TwoPointSemigroup.from_members(0, 1, [])
    assert S.strip == () and S.contains((4, -4))


def test_from_members_genus_two():
    S = genus2_line()
    assert S.strip == ((T,), (F,), (F,), (F,))
    assert S.contains((3, -3)) and not S.contains((2, -1))
    assert S.contains((0, 4))


def test_from_members_rejects_negative_sum_generator():
    with pytest.raises(InvalidSemigroup, match="negative"):
        TwoPointSemigroup.from_members(1, 2, [(0, -1)])


@settings(max_examples=60)
@given(random_semigroups(), points, st.integers(min_value=-3, max_value=3))
def test_membership_is_periodic(S, m, k):
    shifted = (m[0] + k * S.period, m[1] - k * S.period)
    assert S.contains(m) == S.contains(shifted)


# nabla sets and maximal points

def test_nabla_examples():
    S = elliptic2()
    assert oracle.nabla(S, (1, 1), {1}) == []
    assert oracle.nabla(S, (2, 0), {1}) == [(2, -2)]
    assert oracle.nabla(S, (1, 1), {1, 2}) == [(1, 1)]
    assert oracle.nabla(S, (1, 0), {1, 2}) == []


def test_nabla_leq_includes_the_boundary():
    S = elliptic2()
    assert oracle.nabla(S, (2, 0), {1}, strict=False) == [(2, -2), (2, 0)]
    assert oracle.nabla(S, (2, 0), {2}, strict=False) == [(0, 0), (2, 0)]


def test_nabla_rejects_empty_coordinate_set():
    with pytest.raises(ValueError):
        oracle.nabla(elliptic2(), (0, 0), set())


@settings(max_examples=40)
@given(random_semigroups(), points)
def test_nabla_matches_direct_scan(S, n):
    got = oracle.nabla(S, n, {1})
    expected = [(n[0], y) for y in range(-n[0], n[1])
                if S.contains((n[0], y))]
    assert got == expected


def test_is_maximal_examples():
    assert elliptic2().is_maximal((1, 1))
    assert not elliptic2().is_maximal((2, 0))
    assert projective_line().is_maximal((0, 0))
    assert not elliptic2().is_maximal((1, 0))


def test_corner_maximals_fixtures():
    assert projective_line().corner_maximals() == ((1, -1),)
    assert elliptic2().corner_maximals() == ((1, 1), (2, -2))
    assert elliptic3().corner_maximals() == ((1, 1), (2, -1), (3, -3))
    assert genus2_line().corner_maximals() == ((1, -1),)


@settings(max_examples=40)
@given(random_semigroups())
def test_corner_points_are_maximal_corner_representatives(S):
    for p in S.corner_maximals():
        assert S.is_maximal(p)
        assert 0 < p[0] <= S.period
        assert 0 <= p[0] + p[1] <= 2 * S.genus


def test_normalize_examples():
    S = elliptic2()
    assert S.normalize((0, 0)) == (2, -2)
    assert S.normalize((-1, 3)) == (1, 1)
    assert projective_line().normalize((0, 0)) == (1, -1)


@settings(max_examples=40)
@given(random_semigroups(), points)
def test_normalize_lands_in_corner_strip_and_preserves_class(S, p):
    q = S.normalize(p)
    assert 0 < q[0] <= S.period
    assert q[0] + q[1] == p[0] + p[1]
    assert (q[0] - p[0]) % S.period == 0
    assert S.normalize(q) == q


def test_corner_translates_match_scan_on_fixtures():
    W = Window((-6, 6), (-6, 6))
    for S in (projective_line(), elliptic2(), elliptic3(), genus2_line(),
              all_sum_zero_strip()):
        assert S.corner_translates_in(W) == sorted(S.maximal_points_in(W))


@settings(max_examples=40)
@given(random_semigroups())
def test_corner_translates_match_scan(S):
    W = S.default_window()
    assert S.corner_translates_in(W) == sorted(S.maximal_points_in(W))


@settings(max_examples=60)
@given(random_semigroups())
@example(projective_line())
@example(genus2_line())
@example(elliptic3())
def test_line_minima_match_scanning_oracle(S):
    W = S.default_window()
    for m in W.points():
        assert S.dim_jump(m) == oracle.dim_jump(S, m), m
        assert S.is_maximal(m) == oracle.is_maximal(S, m), m
        assert S.dim_nabla(m) == oracle.dim_nabla(S, m), m
    assert S.find_symmetry_point() == oracle.find_symmetry_point(S, W)
    lemma4 = S.verify("lemma4", W)
    scan = Window(*lemma4.details["scan"])
    assert lemma4.witnesses == tuple(
        m for m in scan.points()
        if m[0] > 0 and m[1] > 0 and oracle.projection_contains(S, 1, m[0])
        and oracle.projection_contains(S, 2, m[1])
        and oracle.dim_jump(S, m) != 2)


@settings(max_examples=30, deadline=None)
@given(strip_semigroups(), st.data())
@example(fixture("projective_line"), None)
@example(fixture("elliptic", 1), None)
@example(fixture("elliptic", 2), None)
@example(fixture("elliptic", 3), None)
@example(strip_4x5(), None)
def test_class_loops_match_point_scans(S, data):
    if data:
        windows = data.draw(windows_for(S))
    else:
        reach, top = 2 * S.genus + 4 * S.period + 1, 2 * S.genus
        windows = (Window((-2, 2), (-2, 2)), Window((-9, 3), (-1, 11)),
                   Window((-30, -20), (10, 17)),
                   Window((20, 30), (top - 17, top - 8)),
                   Window((-reach - 1, reach + 2), (-reach, reach + 3)),
                   Window((3, 7), (10**9, 10**9 + 4)),
                   Window((-10**9 - 9, -10**9 + 3), (-4, 13)))
    assert S.corner_maximals() == oracle.corner_maximals(S)
    for m in windows[4].points():  # the window wider than the band
        assert S.maximal_count_coefficient(m) == \
            oracle.maximal_count_coefficient(S, m), m
    for W in windows:
        for check in CHECKS:
            rep = S.verify(check, W)
            assert (rep.passed, rep.witnesses, rep.details) == \
                oracle.verify(S, check, W), (check, W.bounds)
        assert S.maximal_points_in(W) == oracle.maximal_points_in(S, W)
        assert [list(map(int, r)) for r in S.dim_jump_digits(W)] == \
            oracle.dim_jump_rows(S, W)
        got_sigma, witnesses = S.find_symmetry_point(W)
        sigma = oracle.symmetry_point(S)
        assert got_sigma == sigma
        assert witnesses == (
            () if sigma is None else oracle.symmetry_witnesses(S, sigma, W))


@settings(max_examples=60, deadline=None)
@given(st.one_of(random_semigroups(), strip_semigroups()), st.data())
@example(fixture("elliptic", 2), None)
@example(strip_4x5(), None)
@example(order_dependent_strip(), None)
def test_lemma4_band_walk_finds_no_witness(S, data):
    windows = data.draw(windows_for(S)) if data else ()
    for W in (S.default_window(), *windows):
        assert oracle.lemma4_band_walk(S, interior_region(W)) == []
        assert S.verify("lemma4", W).witnesses == ()


def test_lemma4_band_walk_sees_a_wrong_dim_jump(monkeypatch):
    # the walk is live: with d = 1 everywhere, the premise's points are
    # witnesses
    S = strip_4x5()
    monkeypatch.setattr(TwoPointSemigroup, "_d", lambda self, s, a: 1)
    assert oracle.lemma4_band_walk(S, interior_region(S.default_window()))


@pytest.mark.parametrize("genus, period", [(16, 20), (30, 30)])
@pytest.mark.parametrize("seed", range(2))
def test_table_checks_match_point_scans_at_bench_shapes(genus, period, seed):
    rng = random.Random(f"bench-shape:{genus}x{period}:{seed}")
    S = TwoPointSemigroup.from_members(
        genus, period, random_members(rng, genus, period, 3))
    W = S.default_window()
    rep = S.verify("d_agreement", W)
    assert len(rep.witnesses) > 1000
    assert (rep.passed, rep.witnesses, rep.details) == \
        oracle.verify(S, "d_agreement", W)
    assert oracle.lemma4_band_walk(S, interior_region(W)) == []
    assert oracle.closure_witnesses(S) == []
    assert S.verify("closure", W).passed and S.verify("lemma4", W).passed


def render_windows(S):
    """Windows wholly below sum 0, wholly above sum 2g, straddling the
    band [0, 2g] on both sides, of a single cell, row or column, and
    with sums near +-10^9."""
    top, th = 2 * S.genus, S.period
    at = st.integers(min_value=-top - 3 * th, max_value=top + 3 * th)
    width = st.integers(min_value=0, max_value=2 * th + 3)
    gap = st.integers(min_value=1, max_value=2 * th + 2)
    far = st.integers(min_value=10**9 - 3 * th, max_value=10**9 + 3 * th)
    far = st.one_of(far, far.map(lambda k: -k))
    return st.tuples(
        st.builds(lambda x, w1, w2, k: Window(
            (x, x + w1), (-x - w1 - w2 - k, -x - w1 - k)),
            at, width, width, gap),
        st.builds(lambda x, w1, w2, k: Window(
            (x, x + w1), (top + k - x, top + k - x + w2)),
            at, width, width, gap),
        st.builds(lambda x, w1, k1, k2: Window(
            (x, x + w1), (-x - w1 - k1, top - x + k2)),
            at, width, gap, gap),
        st.builds(lambda x, y: Window((x, x), (y, y)), at, at),
        st.builds(lambda x, y, w: Window((x, x), (y, y + w)), at, at, width),
        st.builds(lambda x, y, w: Window((x, x + w), (y, y)), at, at, width),
        st.builds(lambda x, k, w1, w2: Window(
            (x, x + w1), (k - x, k - x + w2)), at, far, width, width))


def expand_stdout(S, window, *flags):
    """stdout of `wsemigroups expand` on S's JSON input and the window."""
    if hasattr(S, "fixture"):
        payload = {"kind": "fixture", "name": S.fixture.family,
                   "period": S.fixture.period}
    else:
        payload = {"kind": "two_point_strip", "genus": S.genus,
                   "period": S.period, "strip": [list(r) for r in S.strip]}
    (lo1, hi1), (lo2, hi2) = window.bounds
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as handle:
            json.dump(payload, handle)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["expand", path, *flags, "--window",
                             *map(str, (lo1, hi1, lo2, hi2))])
    assert code == 0
    return out.getvalue()


def d_table_draws(seed):
    """A seeded strip with genus and period up to 12, and the same draw
    at genus 0 and at period 1."""
    rng = random.Random(f"d-table:{seed}")
    g, th = rng.randint(0, 12), rng.randint(1, 12)
    return [TwoPointSemigroup.from_members(
                genus, period,
                random_members(rng, genus, period, rng.randint(1, 4)))
            for genus, period in ((g, th), (0, th), (g, 1))]


def d_table_strips():
    """d_table_draws of 40 seeds, and every fixture."""
    return [fixture("projective_line"), genus2_line(), strip_4x5(),
            *(fixture("elliptic", th) for th in range(1, 6)),
            *(S for seed in range(40) for S in d_table_draws(seed))]


def band_edge_windows(S):
    """Windows whose sums straddle 0 or 2g, cover the band, lie wholly
    below or above it, or lie near +-10^9, of several shapes."""
    top, th = 2 * S.genus, S.period
    windows = [Window((-top - th - 2, top + th + 2),
                      (-top - th - 3, top + th + 1))]
    for w1, w2 in ((0, 0), (0, th + 2), (th + 2, 0), (3, 2 * th + 1)):
        for low in (-w1 - w2 - 3, -w1 - 1, -1, top - w1 - 1, top - w2,
                    top + 1, -w1 - w2 - 2 * th - 5, top + 2 * th + 5,
                    10**9, -10**9 - w1 - w2):
            for x in (-th - 1, 0, 7):
                windows.append(Window((x, x + w1), (low - x, low - x + w2)))
    return windows


@settings(max_examples=25, deadline=None)
@given(strip_semigroups(), st.data())
@example(fixture("projective_line"), None)
@example(fixture("elliptic", 1), None)
@example(fixture("elliptic", 2), None)
@example(fixture("elliptic", 3), None)
@example(strip_4x5(), None)
@example(d_table_draws(0)[0], None)
@example(d_table_draws(0)[1], None)
@example(d_table_draws(0)[2], None)
@example(d_table_draws(1)[0], None)
def test_expand_renders_the_point_scan(S, data):
    # the CLI joins per-class digit strings; its bytes must equal the
    # point scan's table encoded int by int, in JSON and in text
    if data:
        windows = data.draw(render_windows(S))
    else:
        top = 2 * S.genus
        windows = (Window((-9, -3), (-6, 2)), Window((3, 9), (top, top + 5)),
                   Window((-7, 4), (-5, top + 8)), Window((1, 1), (-1, -1)),
                   Window((2, 2), (-5, top + 3)), Window((-6, top), (0, 0)),
                   Window((-3, 3), (10**9, 10**9 + 6)),
                   Window((-10**9 - 5, -10**9), (-2, 4)),
                   *band_edge_windows(S))
    for W in windows:
        (lo1, hi1), (lo2, hi2) = W.bounds
        digits = S.dim_jump_digits(W)
        assert len(digits) == hi1 - lo1 + 1
        assert all(len(row) == hi2 - lo2 + 1 for row in digits)
        rows = oracle.dim_jump_rows(S, W)
        for sep in ("", ",", " "):
            assert S.dim_jump_digits(W, sep) == \
                [sep.join(map(str, row)) for row in rows], (sep, W.bounds)
        expected = json.dumps({"window": W.bounds,
                               "dim_jump": rows},
                              separators=(",", ":"))
        assert expand_stdout(S, W, "--json") == expected + "\n", W.bounds
        assert expand_stdout(S, W) == oracle.expand_text(S, W) + "\n", \
            W.bounds


def test_expand_lays_out_no_more_than_its_rows():
    # a tall one-column window on a long period: laying out each class
    # over every sum of the window would take 400 strings of 80,002
    # characters, about 32 MB, for rows of one character each
    rng = random.Random("tall")
    S = TwoPointSemigroup.from_members(2, 400, random_members(rng, 2, 400, 2))
    W = Window((-20_000, 20_000), (0, 0))
    tracemalloc.start()
    try:
        rows = S.dim_jump_digits(W, ",")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert rows == [str(S.dim_jump((m1, 0))) for m1 in range(-20_000, 20_001)]


@pytest.mark.parametrize("S", d_table_strips(), ids=repr)
def test_d_table_is_d_on_every_class(S):
    top, th = 2 * S.genus, S.period
    table = S._d_table()
    assert len(table) == (top + 1) * th
    assert [table[s * th + a] for s in range(top + 1) for a in range(th)] \
        == [S._d(s, a) for s in range(top + 1) for a in range(th)]


def test_expand_builds_no_table_for_rows_off_the_band(monkeypatch):
    # rows wholly below sum 0 or above 2g are shared pads of 0 or 2
    S = strip_4x5()
    monkeypatch.setattr(TwoPointSemigroup, "_d_table",
                        lambda self: pytest.fail("the d table was built"))
    for W in (Window((0, 3), (10**9, 10**9 + 3)),
              Window((-5, 5), (-30, -20)), Window((9, 9), (0, 0))):
        assert S.dim_jump_digits(W, ",") == [
            ",".join(map(str, row)) for row in oracle.dim_jump_rows(S, W)]


def seeded_strips(seed):
    """A strip from the benchmark's generator draw, genus and period up
    to 10."""
    rng = random.Random(f"support:{seed}")
    g, th = rng.randint(0, 10), rng.randint(1, 10)
    members = random_members(rng, g, th, rng.randint(1, 4))
    return rng, TwoPointSemigroup.from_members(g, th, members)


@pytest.mark.parametrize("seed", range(24))
def test_support_scans_match_point_scans(seed):
    # c_prop, c_identity and corner_translates ask only the classes next
    # to a line minimum; asking every window point must give the same
    # report
    rng, S = seeded_strips(seed)
    top, th = 2 * S.genus, S.period
    reach = top + 3 * th + 6

    def at():
        return rng.randint(-reach, reach)

    def box(x, y, w1, w2):
        return Window((x, x + w1), (y, y + w2))

    windows = [S.default_window()]
    windows += [box(at(), at(), rng.randint(4, 3 * th + 6),
                    rng.randint(4, 3 * th + 6)) for _ in range(3)]
    x, w1, w2 = at(), rng.randint(4, 12), rng.randint(4, 12)
    # interior sums wholly below the band, then wholly above it
    windows.append(box(x, -x - w1 - w2 - rng.randint(0, 5), w1, w2))
    windows.append(box(x, top + 3 - x + rng.randint(0, 5), w1, w2))
    # 4 wide, a single interior row or column or cell
    windows += [box(at(), at(), 4, rng.randint(4, 12)),
                box(at(), at(), rng.randint(4, 12), 4), box(at(), at(), 4, 4)]
    # interior sums wholly above 2g, touching the band's top
    windows.append(box(x, top - 3 - x + rng.randint(0, 2), w1, w2))
    for W in windows:
        for check in ("c_prop", "c_identity", "corner_translates"):
            rep = S.verify(check, W)
            assert (rep.passed, rep.witnesses, rep.details) == \
                oracle.verify(S, check, W), (check, W.bounds)


def line_minima_strips():
    """Seeded strips with genus and period up to 10, the same draws at
    genus 0 and at period 1, and the symmetric fixtures."""
    out = [fixture("projective_line"), fixture("elliptic", 2),
           fixture("elliptic", 3), genus2_line(), strip_4x5()]
    for seed in range(30):
        rng = random.Random(f"line-minima:{seed}")
        g, th = rng.randint(1, 10), rng.randint(1, 10)
        out += [TwoPointSemigroup.from_members(
                    genus, period,
                    random_members(rng, genus, period, rng.randint(1, 4)))
                for genus, period in ((g, th), (0, th), (g, 1))]
    return out


@pytest.mark.parametrize("S", line_minima_strips(), ids=repr)
def test_line_minima_and_sigma_match_strip_scans(S):
    assert (S._colmin, S._rowmin) == oracle.line_minima(S)
    assert S._sigma_candidate() == oracle.sigma_candidate(S)
    assert S.gap_class_count() == sum(not x for row in S.strip for x in row)


@pytest.mark.parametrize("seed", range(24))
def test_corner_translates_reports_match_the_oracle(seed):
    # the check counts each maximal class's window points without asking
    # one; the oracle scans is_maximal on every point of the region and
    # compares it with the corner's translates, counts included, near the
    # origin and 10^9 translates away
    rng = random.Random(f"corner-translates:{seed}")
    g, th = rng.randint(0, 12), rng.randint(1, 12)
    S = TwoPointSemigroup.from_members(
        g, th, random_members(rng, g, th, rng.randint(1, 4)))
    reach = 2 * g + 3 * th + 6
    windows = [S.default_window()]
    for far in (0, 0, 0, 10**9, -10**9):
        x, y = far + rng.randint(-reach, reach), rng.randint(-reach, reach)
        windows.append(Window((x, x + rng.randint(4, 3 * th + 9)),
                              (y - far, y - far + rng.randint(4, 3 * th + 9))))
    for W in windows:
        rep = S.verify("corner_translates", W)
        region = interior_region(W)
        witnesses, details = oracle._corner_translates(S, region)
        assert (rep.passed, rep.witnesses, rep.details) == \
            (True, tuple(witnesses),
             {"scan": region.bounds, **details}), W.bounds


def test_corner_translates_costs_the_classes_not_the_window():
    # a window of 10^12 per side: one len(range) per maximal class
    S = strip_4x5()
    b = 10**12
    start = time.perf_counter()
    rep = S.verify("corner_translates", Window((-b, b), (-b, b)))
    assert time.perf_counter() - start < 0.5
    assert rep.passed and rep.witnesses == ()
    # the m1 = a mod period in [max(lo1, s - hi2), min(hi1, s - lo2)]
    # of each maximal class (s, a), counted by floor division
    (lo1, hi1), (lo2, hi2) = rep.details["scan"]
    th = S.period
    count = sum((min(hi1, s - lo2) - a) // th
                - (max(lo1, s - hi2) - 1 - a) // th
                for s, a in S._maximal_classes())
    assert rep.details["scanned"] == rep.details["translates"] == count
    assert count > 10**11


far_points = st.lists(st.tuples(
    st.integers(min_value=-10**12, max_value=10**12),
    st.integers(min_value=-10**12, max_value=10**12)), max_size=20)
FAR = ((10**9, 3), (-10**9, -7), (10**12, -10**12 + 1), (-10**12, 10**12))


@settings(max_examples=40, deadline=None)
@given(strip_semigroups(), far_points)
@example(fixture("projective_line"), FAR)
@example(fixture("elliptic", 1), FAR)
@example(fixture("elliptic", 2), FAR)
@example(fixture("elliptic", 3), FAR)
@example(strip_4x5(), FAR)
@example(TwoPointSemigroup.from_members(3, 2, [(-2, 4)]), FAR)
def test_class_functions_match_point_methods(S, far):
    # every class function of (m1 + m2, m1) is its point method at m, and
    # on a window wider than the band the scanning oracle's predicate too
    top, th = 2 * S.genus, S.period
    W = Window((-th - 3, top + th + 3), (-th - 3, top + th + 3))
    pairs = ((S._in, S.contains, None),
             (S._empty, None, lambda S, m: not oracle.nabla_union(S, m)),
             (S._max, S.is_maximal, oracle.is_maximal),
             (S._d, S.dim_jump, oracle.dim_jump),
             (S._dn, S.dim_nabla, oracle.dim_nabla),
             (S._c, S.euler_c, oracle.euler_c),
             (S._mcc, S.maximal_count_coefficient,
              oracle.maximal_count_coefficient))
    for m in W.points():
        for cls, point, scan in pairs:
            value = cls(m[0] + m[1], m[0])
            assert point is None or value == point(m), (cls.__name__, m)
            assert scan is None or value == scan(S, m), (cls.__name__, m)
    # far from the band too, the closed form of euler_c is the four-term
    # difference of dim_jump
    for m in far:
        assert S.euler_c(m) == oracle.euler_c(S, m), m
        for cls, point, _ in pairs:
            assert point is None or cls(m[0] + m[1], m[0]) == point(m), \
                (cls.__name__, m)


def test_maximal_count_coefficient_above_the_band_is_periodic():
    # above sum 2g+1 the coefficient is the number of maximal points on
    # the column plus on the row: periodic in the sum, not constant 2,
    # which is why funceq reads it exactly outside the band
    S = strip_4x5()
    top = 2 * S.genus
    values = [[S.maximal_count_coefficient((a, s - a)) for a in range(5)]
              for s in range(top + 2, top + 12)]
    assert values[:5] == values[5:]
    assert any(v != 2 for row in values for v in row)


# dimension functions and coefficients

def test_dim_jump_examples():
    S = elliptic2()
    assert S.dim_jump((1, 0)) == 1
    assert S.dim_jump((1, 1)) == 1
    assert S.dim_jump((2, 0)) == 2
    assert S.dim_jump((-5, -5)) == 0


def test_dim_nabla_examples():
    S = elliptic2()
    assert S.dim_nabla((1, 0)) == 0
    assert S.dim_nabla((2, 0)) == 2
    assert S.dim_nabla((1, 1)) == 1


def test_euler_c_examples():
    P = projective_line()
    assert P.euler_c((1, 1)) == -1
    assert P.euler_c((2, 0)) == -1
    assert elliptic2().euler_c((1, 1)) == 0


def test_euler_c_nabla_variant_differs_where_d_functions_do():
    S = elliptic2()
    assert S.euler_c((1, 0)) != oracle.euler_c_nabla(S, (1, 0))


def test_maximal_count_coefficient_examples():
    P = projective_line()
    assert P.maximal_count_coefficient((1, 0)) == 2
    assert P.maximal_count_coefficient((0, 0)) == 1
    assert elliptic2().maximal_count_coefficient((1, 0)) == 1


def test_poincare_corner_elliptic():
    gf = elliptic2().poincare_corner()
    assert gf.num.terms() == [((1, 1), 1), ((2, -2), 1),
                              ((2, 2), -1), ((3, -1), -1)]
    assert gf.den == ((0, 1), (1, 0))


def test_poincare_corner_projective():
    gf = projective_line().poincare_corner()
    assert gf.num.terms() == [((1, -1), 1), ((2, 0), -1)]
    assert gf.den == ((0, 1), (1, 0))


# symmetry

def test_find_symmetry_point_elliptic():
    sigma, witnesses = elliptic2().find_symmetry_point()
    assert sigma == (1, 1)
    assert sigma is not None and not witnesses
    assert witnesses == ()


def test_find_symmetry_point_projective():
    sigma, witnesses = projective_line().find_symmetry_point()
    assert sigma == (1, -1)
    assert sigma is not None and not witnesses


def test_find_symmetry_point_elliptic_period_three():
    sigma, witnesses = elliptic3().find_symmetry_point()
    assert sigma == (1, 1)
    assert sigma is not None and not witnesses


def test_find_symmetry_point_none_without_sum_2g_candidate():
    assert all_sum_zero_strip().find_symmetry_point()[0] is None
    assert genus2_line().find_symmetry_point()[0] is None


def test_symmetry_sigma_has_sum_2g():
    for S in (projective_line(), elliptic2(), elliptic3()):
        sigma, _ = S.find_symmetry_point()
        assert sigma[0] + sigma[1] == 2 * S.genus
        assert S.is_maximal(sigma)


# verification

def test_verify_rejects_unknown_check():
    with pytest.raises(UnknownCheck):
        elliptic2().verify("bogus")


@pytest.mark.parametrize("check, message", [
    ("indicator", "check 'indicator' needs a one-point input"),
    ("l_identity", "check 'l_identity' needs a one-point input"),
    ("delta_product", "check 'delta_product' needs a delta input"),
])
def test_verify_refuses_one_point_checks(check, message):
    for S in (elliptic2(), fixture("elliptic", 3)):
        with pytest.raises(InputError) as info:
            S.verify(check)
        assert type(info.value) is InputError and str(info.value) == message


@pytest.mark.parametrize("S", [elliptic2(), fixture("elliptic", 3)],
                         ids=["strip", "fixture"])
@pytest.mark.parametrize("check", ["closure", "c_identity", "symmetry"])
def test_verify_refuses_a_one_point_window(S, check):
    # the window must have the default window's number of variables
    with pytest.raises(ArityMismatch) as info:
        S.verify(check, Window((-6, 6)))
    assert str(info.value) == "verification windows must be 2-dimensional"
    assert S.verify(check, Window((-6, 6), (-6, 6))).check == check


def test_verify_rejects_window_without_margin():
    with pytest.raises(WindowTooSmall):
        elliptic2().verify("c_identity", Window((-1, 2), (-6, 6)))


def test_verify_scan_region_is_interior():
    rep = elliptic2().verify("closure", Window((-6, 6), (-6, 6)))
    assert rep.window == ((-6, 6), (-6, 6))
    assert rep.details["scan"] == ((-4, 4), (-4, 4))


def test_verify_closure_passes_on_fixtures():
    for S in (projective_line(), elliptic2(), elliptic3()):
        assert S.verify("closure").passed


def test_verify_c_prop_elliptic_witnesses():
    rep = elliptic2().verify("c_prop", Window((-6, 6), (-6, 6)))
    assert not rep.passed
    assert set(rep.witnesses) == {(-1, 3), (1, 1), (3, -1)}
    assert rep.details["violations_both_maximal"] is True


def test_verify_c_prop_projective_clean():
    rep = projective_line().verify("c_prop", Window((-5, 5), (-5, 5)))
    assert rep.passed and rep.witnesses == ()


def test_verify_c_identity_passes_on_fixtures():
    for S in (projective_line(), elliptic2(), elliptic3(), genus2_line(),
              all_sum_zero_strip()):
        assert S.verify("c_identity").passed


def test_verify_corner_translates_passes_on_fixtures():
    for S in (projective_line(), elliptic2(), elliptic3()):
        rep = S.verify("corner_translates")
        assert rep.passed
        assert rep.details["scanned"] == rep.details["translates"]


def test_verify_lemma4_passes_on_fixtures():
    for S in (projective_line(), elliptic2(), elliptic3(), genus2_line()):
        assert S.verify("lemma4").passed


def test_verify_d_agreement_elliptic_disagrees_on_sum_one_only():
    rep = elliptic2().verify("d_agreement", Window((-6, 6), (-6, 6)))
    assert not rep.passed
    expected = {(x, 1 - x) for x in range(-3, 5)}
    assert set(rep.witnesses) == expected


def test_verify_d_agreement_projective_passes():
    assert projective_line().verify("d_agreement").passed


def test_verify_symmetry_and_funceq_pass_on_symmetric_fixtures():
    for S in (projective_line(), elliptic2(), elliptic3()):
        assert S.verify("symmetry").passed
        assert S.verify("funceq").passed


def test_verify_symmetry_fails_without_sigma():
    rep = all_sum_zero_strip().verify("symmetry")
    assert not rep.passed
    assert rep.details["sigma"] is None
    rep = all_sum_zero_strip().verify("funceq")
    assert not rep.passed


def test_order_independence_clean_on_fixtures():
    for S in (projective_line(), elliptic2(), elliptic3(), genus2_line()):
        assert oracle.order_independence_witnesses(S, S.default_window()) == []


def test_order_dependent_strip_breaks_c_identity():
    S = order_dependent_strip()
    W = S.default_window()
    assert (1, 0) in oracle.order_independence_witnesses(S, W)
    assert not S.verify("c_identity", W).passed


@settings(max_examples=30)
@given(random_semigroups())
def test_c_identity_holds_on_order_independent_semigroups(S):
    W = S.default_window()
    if oracle.order_independence_witnesses(S, W):
        return
    assert S.verify("c_identity", W).passed


def test_verification_report_to_json():
    rep = elliptic2().verify("c_prop", Window((-6, 6), (-6, 6)))
    out = json.loads(json.dumps(rep.to_json()))
    assert out["check"] == "c_prop"
    assert out["pass"] is False
    assert out["witnesses"] == [[-1, 3], [1, 1], [3, -1]]
    assert out["window"] == [[-6, 6], [-6, 6]]
