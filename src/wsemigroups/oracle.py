"""Closed-form Riemann-Roch oracles for two toy curve families.

These are the ground truth the combinatorial layer is checked against.
For the projective line and for elliptic curves the dimension of every
divisor supported on two points has a closed form, so the semigroup,
the dimension jumps and the maximal points can all be recomputed from
first principles without touching the strip machinery.  A fixture's
strip also answers the `oracle` check: dim_jump against d_oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checks import KIND_CHECKS
from .errors import InputError
from .twopoint import (TwoPointSemigroup, check_strip_cells,
                       interior_region)

FAMILIES = ("projective_line", "elliptic")


@dataclass(frozen=True)
class Fixture:
    """A curve family plus the order of P1 - P2 in the class group.

    The projective line has genus 0 and forces period 1.  The elliptic
    family has genus 1 and takes the period as an input; period 1 is
    accepted for completeness even though no smooth curve realises it
    (distinct points are never linearly equivalent on a curve of
    positive genus).
    """

    family: str
    period: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputError(
                f"unknown fixture family {self.family!r}; "
                f"expected one of {FAMILIES}")
        if self.period < 1:
            raise InputError(f"period must be >= 1, got {self.period}")
        if self.family == "projective_line" and self.period != 1:
            raise InputError("projective_line fixtures have period 1")

    @property
    def genus(self):
        return 0 if self.family == "projective_line" else 1


def ell(fixture: Fixture, m) -> int:
    """Dimension of the space of functions with pole orders bounded by m.

    >>> ell(Fixture("projective_line"), (3, -1))
    3
    >>> ell(Fixture("elliptic", 2), (0, 0))
    1
    >>> ell(Fixture("elliptic", 2), (1, -1))
    0
    """
    s = m[0] + m[1]
    if fixture.family == "projective_line":
        return s + 1 if s >= 0 else 0
    if s >= 1:
        return s
    if s == 0 and m[0] % fixture.period == 0:
        return 1
    return 0


def d_oracle(fixture: Fixture, m) -> int:
    """ell(m) - ell(m - (1,1)), the two-step dimension jump."""
    return ell(fixture, m) - ell(fixture, (m[0] - 1, m[1] - 1))


class FixtureSemigroup(TwoPointSemigroup):
    """The strip of a fixture, which keeps it for the `oracle` check."""

    __slots__ = ("fixture",)
    CHECKS = KIND_CHECKS["fixture"]

    def __init__(self, fixture: Fixture, rows):
        super().__init__(fixture.genus, fixture.period, rows)
        self.fixture = fixture

    def _check_oracle(self, window):
        # both sides read only the class (m1 + m2, m1 mod period) and agree
        # outside the band (0 below, 2 above), so one ask per band class does
        return self._report("oracle", window, self._where(
            interior_region(window),
            lambda s, a: self._d(s, a) != d_oracle(self.fixture, (a, s - a))),
            family=self.fixture.family, period=self.fixture.period)


def semigroup_from_fixture(fixture: Fixture) -> FixtureSemigroup:
    """Strip built from the pair-of-jumps membership test.

    m belongs to the semigroup iff both single-step jumps equal one:
    ell(m) - ell(m - e1) = 1 and ell(m) - ell(m - e2) = 1.
    """
    check_strip_cells(fixture.genus, fixture.period)

    def member(m):
        here = ell(fixture, m)
        return (here - ell(fixture, (m[0] - 1, m[1])) == 1
                and here - ell(fixture, (m[0], m[1] - 1)) == 1)

    return FixtureSemigroup(fixture, [
        [member((a, s - a)) for a in range(fixture.period)]
        for s in range(2 * fixture.genus)])
