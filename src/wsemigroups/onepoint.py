"""Numerical semigroups and one-point Weierstrass semigroup series.

A numerical semigroup is given by generators with gcd 1.  Membership is
decided by a certified sieve: once min(generators) consecutive members
appear, everything beyond is a member, which pins down the conductor
exactly.  On top of that sit gcd-descent generator chains (delta
sequences), optional extra pole orders, and the Poincare series
P(t) = sum_{n in S} t^n together with L(t) = (1 - t) P(t) in its
various closed forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import AxiomViolation, InvalidSemigroup, NotSymmetric
from .series import LaurentPoly, RationalGF, Window

_ONE_MINUS_T = LaurentPoly({(0,): 1, (1,): -1})


class NumericalSemigroup:
    """The submonoid of the nonnegative integers generated by `generators`.

    Requires gcd(generators) = 1, so the complement (the gap set) is
    finite.  `conductor` is the least c with [c, oo) fully contained,
    `genus` the number of gaps.

    >>> S = NumericalSemigroup([4, 6, 7])
    >>> S.gaps
    (1, 2, 3, 5, 9)
    >>> S.conductor, S.genus
    (10, 5)
    """

    __slots__ = ("generators", "conductor", "gaps", "genus", "_low")

    def __init__(self, generators):
        gens = sorted({int(g) for g in generators})
        if not gens:
            raise InvalidSemigroup("at least one generator is required")
        if gens[0] < 1:
            raise InvalidSemigroup(f"generators must be positive, got {gens[0]}")
        if math.gcd(*gens) != 1:
            raise InvalidSemigroup(
                f"gcd of generators is {math.gcd(*gens)}, not 1")
        self.generators = tuple(gens)
        bound = max(16, 2 * gens[0] * gens[-1])
        while True:
            member = self._sieve(bound)
            last_gap = None
            for n in range(bound, -1, -1):
                if not member[n]:
                    last_gap = n
                    break
            if last_gap is None:
                conductor = 0
                break
            # a run of min-generator consecutive members closes the sieve
            if bound - last_gap >= gens[0]:
                conductor = last_gap + 1
                break
            bound *= 2
        self.conductor = conductor
        self._low = tuple(member[:conductor])
        self.gaps = tuple(n for n in range(conductor) if not member[n])
        self.genus = len(self.gaps)

    def _sieve(self, bound):
        member = [False] * (bound + 1)
        member[0] = True
        for n in range(1, bound + 1):
            for g in self.generators:
                if g > n:
                    break
                if member[n - g]:
                    member[n] = True
                    break
        return member

    def contains(self, n):
        if n < 0:
            return False
        if n >= self.conductor:
            return True
        return self._low[n]

    __contains__ = contains

    def symmetry_witnesses(self):
        """Values n in [0, c) where n and c-1-n are both in or both out."""
        c = self.conductor
        return [n for n in range(c)
                if self.contains(n) == self.contains(c - 1 - n)]

    def is_symmetric(self):
        # every member n < c pairs with the gap c-1-n, so g >= c/2,
        # with equality exactly when no witness exists
        return self.conductor == 2 * self.genus

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.generators)
        return f"NumericalSemigroup([{inside}])"


class DeltaSequence:
    """A generator chain (r_0, ..., r_h) with strict gcd descent.

    theta records the running gcds (with the leading entry repeating
    r_0, so theta = (r_0, gcd(r_0), gcd(r_0, r_1), ...) and the final
    entry must be 1).  The descent quotients d_i = theta_i / theta_{i+1}
    must all be at least 2, and every member n of the generated
    semigroup must have exactly one representation

        n = a_0 r_0 + sum_i a_i r_i   with a_0 >= 0 and 0 <= a_i < d_i,

    which is verified exhaustively up to conductor + r_0 * max(d).

    >>> ds = DeltaSequence([4, 6, 7])
    >>> ds.theta, ds.d
    ((4, 4, 2, 1), (2, 2))
    """

    __slots__ = ("r", "theta", "d", "semigroup")

    def __init__(self, r):
        r = tuple(int(x) for x in r)
        if not r:
            raise InvalidSemigroup("a delta sequence needs at least one entry")
        if any(x < 1 for x in r):
            raise InvalidSemigroup("delta sequence entries must be positive")
        theta = [r[0]]
        acc = 0
        for x in r:
            acc = math.gcd(acc, x)
            theta.append(acc)
        if theta[-1] != 1:
            raise InvalidSemigroup(
                f"running gcd ends at {theta[-1]}, not 1: {r}")
        d = tuple(theta[i] // theta[i + 1] for i in range(1, len(r)))
        bad = [i + 1 for i, di in enumerate(d) if di == 1]
        if bad:
            raise InvalidSemigroup(
                f"gcd does not strictly descend at position(s) {bad} of {r}")
        self.r = r
        self.theta = tuple(theta)
        self.d = d
        self.semigroup = NumericalSemigroup(r)
        self._verify_unique_representation()

    def _verify_unique_representation(self):
        r, d = self.r, self.d
        bound = self.semigroup.conductor + r[0] * (max(d) if d else 1)
        counts = [0] * (bound + 1)
        for rest in itertools.product(*[range(di) for di in d]):
            base = sum(a * ri for a, ri in zip(rest, r[1:]))
            if base > bound:
                continue
            for a0 in range((bound - base) // r[0] + 1):
                counts[base + a0 * r[0]] += 1
        bad = [(n, counts[n]) for n in range(bound + 1)
               if self.semigroup.contains(n) and counts[n] != 1]
        if bad:
            raise AxiomViolation(
                f"representation is not unique for {self.r}: "
                f"first witness n={bad[0][0]} has {bad[0][1]} representations",
                witnesses=bad)

    def __repr__(self):
        return f"DeltaSequence({list(self.r)})"


class OnePointSemigroup:
    """A delta-sequence semigroup enlarged by finitely many extra members.

    The full member set is S union extras; it must still be closed
    under addition, and the extras must genuinely lie outside S.
    """

    __slots__ = ("base", "extras", "conductor", "gaps", "genus")

    def __init__(self, base, extras=()):
        if not isinstance(base, DeltaSequence):
            base = DeltaSequence(base)
        extra = sorted({int(x) for x in extras})
        if extra and extra[0] < 1:
            raise InvalidSemigroup("extra members must be positive")
        for x in extra:
            if base.semigroup.contains(x):
                raise InvalidSemigroup(
                    f"extra member {x} already lies in the base semigroup")
        self.base = base
        self.extras = tuple(extra)
        extra_set = set(extra)
        self.gaps = tuple(n for n in base.semigroup.gaps if n not in extra_set)
        self.conductor = self.gaps[-1] + 1 if self.gaps else 0
        self.genus = len(self.gaps)
        self._check_closure()

    def _check_closure(self):
        if not self.extras:
            return
        bound = self.conductor + self.extras[-1] + max(self.base.r)
        # sums inside the base semigroup are closed already, so only
        # sums involving at least one extra member need checking
        witnesses = []
        for e in self.extras:
            for n in range(bound - e + 1):
                if self.contains(n) and not self.contains(e + n):
                    witnesses.append((e, n, e + n))
        if witnesses:
            raise AxiomViolation(
                f"member set is not closed under addition: "
                f"{witnesses[0][0]} + {witnesses[0][1]} = {witnesses[0][2]} "
                f"is missing", witnesses=witnesses)

    def contains(self, n):
        return self.base.semigroup.contains(n) or n in self.extras

    __contains__ = contains

    def symmetry_witnesses(self):
        c = self.conductor
        return [n for n in range(c)
                if self.contains(n) == self.contains(c - 1 - n)]

    def is_symmetric(self):
        # every member n < c pairs with the gap c-1-n, so g >= c/2,
        # with equality exactly when no witness exists
        return self.conductor == 2 * self.genus

    def __repr__(self):
        return f"OnePointSemigroup({list(self.base.r)}, extras={list(self.extras)})"


def _head_polynomial(semigroup) -> LaurentPoly:
    """t^c + (1 - t) sum_{n in S, n < c} t^n.

    This is the L-polynomial and the numerator of P over (1 - t).  Its
    coefficient at t^n is the jump [n in S] - [n - 1 in S] of the
    membership indicator on [0, c], with c counted as a member."""
    c = semigroup.conductor
    terms = {}
    inside = False
    for n in range(c + 1):
        member = n == c or semigroup.contains(n)
        if member != inside:
            terms[(n,)] = 1 if member else -1
            inside = member
    return LaurentPoly(terms, arity=1)


def poincare_direct(semigroup) -> RationalGF:
    """P(t) = sum_{n in S, n < c} t^n + t^c / (1 - t), over (1 - t)."""
    return RationalGF(_head_polynomial(semigroup), [(1,)])


def poincare_delta_product(ds: DeltaSequence) -> RationalGF:
    """The telescoping product form of P for a delta sequence:

        1/(1 - t^{r_0}) * prod_i (1 - t^{d_i r_i}) / (1 - t^{r_i}).

    The product exponent is d_i * r_i, matching the representation
    bound 0 <= a_i < d_i.
    """
    num = LaurentPoly.one(1)
    for di, ri in zip(ds.d, ds.r[1:]):
        num = num * LaurentPoly({(0,): 1, (di * ri,): -1})
    return RationalGF(num, [(ri,) for ri in ds.r])


@dataclass(frozen=True)
class SeriesModeReport:
    """Whether two closed forms expand identically on [0, hi]."""

    agree: bool
    first_difference: int | None
    window: tuple[int, int]


def poincare_onepoint(ops: OnePointSemigroup, mode="finite_sum") -> RationalGF:
    """Poincare series of a one-point semigroup with extra members.

    mode "finite_sum" adds sum_{m in extras} t^m to the delta product;
    mode "paper_product" instead adds the published correction product
    prod_j 1/(1 - t^{s_j}) over the extras, restricted to the nonzero
    combinations (i.e. minus its constant term, which would double
    count 0).  With no extras both corrections vanish.
    """
    if mode not in ("finite_sum", "paper_product"):
        raise ValueError(f"unknown mode {mode!r}")
    base_gf = poincare_delta_product(ops.base)
    if not ops.extras:
        return base_gf
    if mode == "finite_sum":
        return base_gf + LaurentPoly({(m,): 1 for m in ops.extras})
    geo = RationalGF.geometric(*[(m,) for m in ops.extras])
    return base_gf + RationalGF(LaurentPoly.one(1) - geo.den_poly(), geo.den)


def series_modes_report(ops: OnePointSemigroup) -> SeriesModeReport:
    """Compare the expansions of the two modes of poincare_onepoint on
    [0, conductor + max(extras) + 10] ([0, conductor + 10] without
    extras, where the modes coincide and nothing is expanded)."""
    if not ops.extras:
        return SeriesModeReport(True, None, (0, ops.conductor + 10))
    hi = ops.conductor + ops.extras[-1] + 10
    window = Window((0, hi))
    ef = poincare_onepoint(ops, "finite_sum").expand(window)
    ep = poincare_onepoint(ops, "paper_product").expand(window)
    first = next((n for n in range(hi + 1) if ef[(n,)] != ep[(n,)]), None)
    return SeriesModeReport(first is None, first, (0, hi))


def l_polynomial(semigroup, mode="direct") -> LaurentPoly:
    """The L-polynomial of a one-point semigroup.

    mode "direct" is (1 - t) P(t) written out:
        t^c + (1 - t) sum_{n in S, n < c} t^n.
    mode "paper" is the published display, kept verbatim:
        1 - t + t^c + (1 - t) sum_{n in S, n < c} t^n,
    which exceeds the direct form by exactly (1 - t).
    """
    if mode not in ("direct", "paper"):
        raise ValueError(f"unknown mode {mode!r}")
    direct = _head_polynomial(semigroup)
    if mode == "direct":
        return direct
    return direct + _ONE_MINUS_T


@dataclass(frozen=True)
class LComparison:
    direct: LaurentPoly
    paper: LaurentPoly
    differ: bool
    difference: LaurentPoly


def l_polynomial_comparison(semigroup) -> LComparison:
    """Both L forms side by side, with their (polynomial) difference."""
    direct = l_polynomial(semigroup, "direct")
    paper = l_polynomial(semigroup, "paper")
    diff = paper - direct
    return LComparison(direct, paper, not diff.is_zero(), diff)


@dataclass(frozen=True)
class FunctionalEquationSigns:
    """Empirical signs in L(t) = eps_l t^{2g} L(1/t) and
    P(t) = eps_p t^{2g-1} P(1/t); None when neither sign closes the
    identity."""

    eps_l: int | None
    eps_p: int | None
    genus: int


def _matching_sign(lhs: RationalGF, rhs: RationalGF):
    if lhs.equals(rhs):
        return 1
    if lhs.equals(-rhs):
        return -1
    return None


def functional_equation_signs(semigroup) -> FunctionalEquationSigns:
    """Determine the unique reflection signs of a symmetric semigroup.

    Exact one-sided algebra forces eps_l = +1 and eps_p = -1 on every
    symmetric semigroup; the commonly displayed opposite signs do not
    hold in this representation.  Raises NotSymmetric otherwise.
    """
    if not semigroup.is_symmetric():
        raise NotSymmetric(
            f"functional equation needs a symmetric semigroup; "
            f"witnesses {semigroup.symmetry_witnesses()}")
    g = semigroup.genus
    lpoly = RationalGF.from_poly(l_polynomial(semigroup, "direct"))
    rhs_l = lpoly.reciprocal() * LaurentPoly.monomial((2 * g,))
    p = poincare_direct(semigroup)
    rhs_p = p.reciprocal() * LaurentPoly.monomial((2 * g - 1,))
    return FunctionalEquationSigns(
        eps_l=_matching_sign(lpoly, rhs_l),
        eps_p=_matching_sign(p, rhs_p),
        genus=g)
