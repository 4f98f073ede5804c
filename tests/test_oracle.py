import pytest

from wsemigroups import InputError, Window
from wsemigroups.oracle import Fixture, d_oracle, ell, semigroup_from_fixture

T, F = True, False

WINDOW = [(x, y) for x in range(-6, 7) for y in range(-6, 7)]


def test_fixture_validation():
    with pytest.raises(InputError):
        Fixture("hyperelliptic")
    with pytest.raises(InputError):
        Fixture("elliptic", 0)
    with pytest.raises(InputError):
        Fixture("projective_line", 2)
    assert Fixture("projective_line").genus == 0
    assert Fixture("elliptic", 3).genus == 1


def test_ell_projective_examples():
    f = Fixture("projective_line")
    assert ell(f, (3, -1)) == 3
    assert ell(f, (0, 0)) == 1
    assert ell(f, (0, -1)) == 0


def test_ell_elliptic_examples():
    f = Fixture("elliptic", 2)
    assert ell(f, (0, 0)) == 1
    assert ell(f, (1, -1)) == 0
    assert ell(f, (2, -2)) == 1
    assert ell(f, (1, 0)) == 1
    assert ell(f, (3, 1)) == 4


def test_ell_monotone_with_unit_steps():
    for f in (Fixture("projective_line"), Fixture("elliptic", 2),
              Fixture("elliptic", 3)):
        for m in WINDOW:
            here = ell(f, m)
            assert ell(f, (m[0] + 1, m[1])) - here in (0, 1)
            assert ell(f, (m[0], m[1] + 1)) - here in (0, 1)


def test_semigroup_from_fixture_projective():
    S = semigroup_from_fixture(Fixture("projective_line"))
    assert S.genus == 0 and S.strip == ()
    assert all(S.contains(m) == (m[0] + m[1] >= 0) for m in WINDOW)


def test_semigroup_from_fixture_elliptic_strips():
    assert semigroup_from_fixture(Fixture("elliptic", 2)).strip == \
        ((T, F), (F, F))
    assert semigroup_from_fixture(Fixture("elliptic", 1)).strip == \
        ((T,), (F,))
    assert semigroup_from_fixture(Fixture("elliptic", 3)).strip == \
        ((T, F, F), (F, F, T))


def test_d_oracle_examples():
    e2 = Fixture("elliptic", 2)
    assert d_oracle(e2, (1, 0)) == 1
    assert d_oracle(e2, (2, 0)) == 2
    assert d_oracle(Fixture("projective_line"), (0, 0)) == 1


def test_d_oracle_range_and_high_sums():
    for f in (Fixture("projective_line"), Fixture("elliptic", 2),
              Fixture("elliptic", 3)):
        for m in WINDOW:
            d = d_oracle(f, m)
            assert d in (0, 1, 2)
            if m[0] + m[1] >= 2 * f.genus + 1:
                assert d == 2


def test_keystone_projective_line():
    f = Fixture("projective_line")
    S = semigroup_from_fixture(f)
    assert all(S.dim_jump(m) == d_oracle(f, m) for m in WINDOW)


@pytest.mark.parametrize("period", [2, 3])
def test_keystone_elliptic(period):
    f = Fixture("elliptic", period)
    S = semigroup_from_fixture(f)
    assert all(S.dim_jump(m) == d_oracle(f, m) for m in WINDOW)


def test_keystone_breaks_for_period_one():
    # period 1 would need the two points to be linearly equivalent,
    # which no positive-genus curve allows; the jump decomposition
    # then overcounts on the two antidiagonals right above the origin
    f = Fixture("elliptic", 1)
    S = semigroup_from_fixture(f)
    bad = [m for m in WINDOW if S.dim_jump(m) != d_oracle(f, m)]
    assert bad
    assert {m[0] + m[1] for m in bad} == {1, 2}
    assert S.dim_jump((1, 0)) == 2 and d_oracle(f, (1, 0)) == 1


def test_maximal_count_coefficient_matches_dim_jump_on_fixtures():
    for f in (Fixture("projective_line"), Fixture("elliptic", 1),
              Fixture("elliptic", 2), Fixture("elliptic", 3)):
        S = semigroup_from_fixture(f)
        assert all(S.maximal_count_coefficient(m) == S.dim_jump(m)
                   for m in WINDOW)


def test_gap_class_counts():
    assert semigroup_from_fixture(Fixture("projective_line")).gap_class_count() == 0
    assert semigroup_from_fixture(Fixture("elliptic", 1)).gap_class_count() == 1
    assert semigroup_from_fixture(Fixture("elliptic", 2)).gap_class_count() == 3
    assert semigroup_from_fixture(Fixture("elliptic", 3)).gap_class_count() == 4


def test_symmetry_points_of_geometric_fixtures():
    assert semigroup_from_fixture(
        Fixture("projective_line")).find_symmetry_point()[0] == (1, -1)
    assert semigroup_from_fixture(
        Fixture("elliptic", 2)).find_symmetry_point()[0] == (1, 1)
    assert semigroup_from_fixture(
        Fixture("elliptic", 3)).find_symmetry_point()[0] == (1, 1)
