"""Numerical semigroups and one-point Weierstrass semigroup series.

A numerical semigroup is given by generators with gcd 1 and read off
its Apery set: the least member in each residue class modulo
a = min(generators).  That table of a entries gives membership, the
conductor, the genus and membership masks.  On top of that sit
gcd-descent generator chains (delta sequences, proved free by h Apery
tests of multiplicity <= r_0, so at no O(c) cost), optional extra pole
orders, and the Poincare series P(t) = sum_{n in S} t^n with
L(t) = (1 - t) P(t) in its closed forms.  Both semigroup classes keep
one Apery set (a one-point semigroup lowers its base's by the extras)
and answer `verify(check)` for the checks named in their CHECKS.  The
`funceq` signs are decided on the Apery form
P(t) = sum_{w in Ap} t^w / (1 - t^a), with a numerator terms instead of
c, in O(a); `l_identity` compares it with the L-polynomial in one pass
over L's terms.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass

from .errors import (AxiomViolation, InputError, InvalidSemigroup,
                     NotSymmetric, UnknownCheck)
from .series import LaurentPoly, RationalGF, Window
from .twopoint import CHECKS as TWO_POINT_CHECKS, VerificationReport

_ONE_MINUS_T = LaurentPoly({(0,): 1, (1,): -1})
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")  # swaps a mask's 0 and 1 bytes


class NumericalSemigroup:
    """The submonoid of the nonnegative integers generated by `generators`.

    Requires gcd(generators) = 1, so the complement (the gap set) is
    finite.  `conductor` is the least c with [c, oo) fully contained,
    `genus` the number of gaps.  `apery[r]` is the least member
    congruent to r modulo the multiplicity min(generators).  `gaps` is
    built from a membership mask on each access, at O(c) cost.

    >>> S = NumericalSemigroup([4, 6, 7])
    >>> S.gaps
    (1, 2, 3, 5, 9)
    >>> S.conductor, S.genus
    (10, 5)
    """

    __slots__ = ("generators", "apery", "conductor", "genus")
    CHECKS = ("indicator", "l_identity", "symmetry", "funceq")

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
        # Dijkstra over Z/a, with an edge r -> r + g of weight g per g
        a = gens[0]
        apery = [0] + [None] * (a - 1)
        heap = [(0, 0)]
        while heap:
            w, r = heapq.heappop(heap)
            if w > apery[r]:
                continue
            for g in gens[1:]:
                v, s = w + g, (r + g) % a
                if apery[s] is None or v < apery[s]:
                    apery[s] = v
                    heapq.heappush(heap, (v, s))
        self.apery = tuple(apery)
        self.conductor = max(apery) - a + 1
        self.genus = sum(w // a for w in apery)

    def contains(self, n):
        # the least member of n's class is >= 0, so negative n fail too
        return n >= self.apery[n % len(self.apery)]

    __contains__ = contains

    def mask(self, hi):
        """A bytearray m of length hi with m[n] = 1 exactly for members n."""
        a = len(self.apery)
        member = bytearray(hi)
        for w in self.apery:
            member[w::a] = b"\1" * len(range(w, hi, a))
        return member

    @property
    def gaps(self):
        c = self.conductor
        return tuple(itertools.compress(range(c),
                                        self.mask(c).translate(_FLIP)))

    def symmetry_witnesses(self):
        """Values n in [0, c) where n and c-1-n are both in or both out."""
        c = self.conductor
        if c == 2 * self.genus:
            return []
        member = self.mask(c)
        return list(itertools.compress(
            range(c), map(operator.eq, member, reversed(member))))

    def is_symmetric(self):
        # every member n < c pairs with the gap c-1-n, so g >= c/2,
        # with equality exactly when no witness exists
        return self.conductor == 2 * self.genus

    def default_window(self) -> Window:
        return Window((0, max(3 * self.conductor, 8)))

    def verify(self, check, window: Window | None = None) -> VerificationReport:
        """Run one named check of CHECKS, the order `all` runs them in;
        only indicator reads the window (default_window() when None)."""
        if check not in self.CHECKS:
            if check == "oracle":
                raise InputError("check 'oracle' needs a fixture input")
            if check in TWO_POINT_CHECKS:
                raise InputError(f"check {check!r} needs a two-point input")
            raise UnknownCheck(
                f"unknown check {check!r}; pick one of {self.CHECKS}")
        if window is None:
            window = self.default_window()
        return getattr(self, f"_check_{check}")(window)

    def _check_indicator(self, window):
        """The Poincare series expands to the membership indicator."""
        return _indicator_report("indicator", direct_series(self), self, window)

    def _check_l_identity(self, window):
        """(1 - t) P(t) is the L-polynomial, decided on the Apery form
        as (1 - t) sum_w t^w = L(t) (1 - t^a), one pass over L."""
        lpoly = l_polynomial(self, "direct")
        p = apery_series(self)
        (a,), = p.den
        ok = (p * _ONE_MINUS_T).num == lpoly - lpoly.shift((a,))
        return VerificationReport("l_identity", ok, (), None, {},
                                  RationalGF.from_poly(lpoly))

    def _check_symmetry(self, window):
        witnesses = tuple(self.symmetry_witnesses())
        details = {"conductor": self.conductor, "genus": self.genus}
        return VerificationReport("symmetry", not witnesses, witnesses,
                                  None, details, poincare_direct(self))

    def _check_funceq(self, window):
        if not self.is_symmetric():
            return VerificationReport("funceq", False,
                                      tuple(self.symmetry_witnesses()), None,
                                      {"symmetric": False})
        signs = functional_equation_signs(self)
        ok = signs.eps_l is not None and signs.eps_p is not None
        # the reflected identities close only with these signs; the
        # opposite pair, often displayed, fails the exact algebra
        details = {"eps_l": signs.eps_l, "eps_p": signs.eps_p,
                   "genus": signs.genus, "opposite_pair_fails": ok}
        lpoly = RationalGF.from_poly(l_polynomial(self, "direct"))
        return VerificationReport("funceq", ok, (), None, details, lpoly)

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

    which holds exactly when the chain is free (h Apery tests).

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
        # free (Kirfel & Pellikaan): d_i r_i/theta_i in <r_0..r_{i-1}>/theta_i
        if all(NumericalSemigroup([x // t for x in self.r[:i]]).contains(
                di * self.r[i] // t)
               for i, (t, di) in enumerate(zip(self.theta[1:], self.d), 1)):
            return
        # the delta product's coefficient at n counts the representations;
        # the least member with none lies below conductor + r_0
        bound = self.semigroup.conductor + self.r[0] * max(self.d, default=1)
        counts = poincare_delta_product(self).expand(Window((0, bound)))
        bad = [(n, counts[n]) for n in range(bound + 1)
               if self.semigroup.contains(n) and counts[n] != 1]
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
    `apery[r]` is its least member congruent to r modulo the base's
    multiplicity a: the base's, lowered to the least extra of the class
    (valid because a is a member and the set is closed).
    """

    __slots__ = ("base", "extras", "apery", "conductor", "genus")
    CHECKS = ("indicator", "l_identity", "delta_product", "symmetry", "funceq")

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
        self._check_closure()
        apery = list(base.semigroup.apery)
        a = len(apery)
        for x in extra:
            apery[x % a] = min(apery[x % a], x)
        self.apery = tuple(apery)
        self.conductor = max(apery) - a + 1
        self.genus = sum(w // a for w in apery)

    def _check_closure(self):
        if not self.extras:
            return
        # sums inside the base semigroup are closed already, so only
        # sums involving at least one extra member need checking, and
        # every missing sum is a gap of the base, below its conductor
        bound = self.base.semigroup.conductor
        member = self.mask(bound)
        witnesses = [
            (e, n, e + n) for e in self.extras
            for n in itertools.compress(range(bound - e),
                                        map(operator.gt, member, member[e:]))]
        if witnesses:
            raise AxiomViolation(
                f"member set is not closed under addition: "
                f"{witnesses[0][0]} + {witnesses[0][1]} = {witnesses[0][2]} "
                f"is missing", witnesses=witnesses)

    def contains(self, n):
        return self.base.semigroup.contains(n) or n in self.extras

    __contains__ = contains

    def mask(self, hi):
        """The base semigroup's membership mask with the extras set."""
        member = self.base.semigroup.mask(hi)
        for e in self.extras:
            if e < hi:
                member[e] = 1
        return member

    gaps = NumericalSemigroup.gaps
    symmetry_witnesses = NumericalSemigroup.symmetry_witnesses
    is_symmetric = NumericalSemigroup.is_symmetric
    default_window = NumericalSemigroup.default_window
    verify = NumericalSemigroup.verify
    _check_indicator = NumericalSemigroup._check_indicator
    _check_l_identity = NumericalSemigroup._check_l_identity
    _check_symmetry = NumericalSemigroup._check_symmetry
    _check_funceq = NumericalSemigroup._check_funceq

    def _check_delta_product(self, window):
        """The delta product expands to the base semigroup's indicator."""
        base = self.base.semigroup
        return _indicator_report(
            "delta_product", poincare_delta_product(self.base), base,
            Window((0, max(2 * base.conductor, 8))))

    def __repr__(self):
        return f"OnePointSemigroup({list(self.base.r)}, extras={list(self.extras)})"


def _indicator_report(check, series, semigroup, window) -> VerificationReport:
    """Where the expansion of series on the window is not the membership
    indicator of semigroup."""
    (lo, hi), = window.bounds
    coeffs = series.expand(window)
    member = bytes(max(0, -lo)) + semigroup.mask(max(0, hi + 1))[max(0, lo):]
    witnesses = tuple(itertools.compress(range(lo, hi + 1),
                                         map(operator.ne, coeffs, member)))
    return VerificationReport(check, not witnesses, witnesses, window.bounds,
                              {}, series)


def _head_polynomial(semigroup) -> LaurentPoly:
    """t^c + (1 - t) sum_{n in S, n < c} t^n.

    This is the L-polynomial and the numerator of P over (1 - t).  Its
    coefficient at t^n is the jump [n in S] - [n - 1 in S] of the
    membership indicator on [0, c]: +1 where a run of members starts
    (the first at 0), -1 where one ends (the last, through c, never)."""
    member = semigroup.mask(semigroup.conductor + 1)
    terms, start = {}, 0
    while (end := member.find(0, start)) >= 0:
        terms[(start,)], terms[(end,)] = 1, -1
        start = member.find(1, end)
    terms[(start,)] = 1
    return LaurentPoly._trusted(terms, 1)


def poincare_direct(semigroup) -> RationalGF:
    """P(t) = sum_{n in S, n < c} t^n + t^c / (1 - t), over (1 - t)."""
    return RationalGF(_head_polynomial(semigroup), [(1,)])


def apery_series(semigroup) -> RationalGF:
    """P(t) = sum_{w in Ap} t^w / (1 - t^a) over the semigroup's Apery
    set modulo a: a numerator terms, not c."""
    apery = semigroup.apery
    return RationalGF(LaurentPoly._trusted({(w,): 1 for w in apery}, 1),
                      [(len(apery),)])


def direct_series(semigroup) -> RationalGF:
    """P(t) from the members themselves: the direct form of a numerical
    semigroup, the delta product plus the extras of a one-point one."""
    if isinstance(semigroup, OnePointSemigroup):
        return poincare_onepoint(semigroup, "finite_sum")
    return poincare_direct(semigroup)


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
    first = next((n for n, (x, y) in enumerate(zip(ef, ep)) if x != y), None)
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
    """The signs in L(t) = eps_l t^{2g} L(1/t) and
    P(t) = eps_p t^{2g-1} P(1/t), decided by exact algebra; None when
    neither sign closes the identity."""

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
    hold in this representation.  Both identities are decided on the
    Apery form, P = sum_w t^w / (1 - t^a) and L = (1 - t) P, whose
    numerators have a and at most 2a terms, so the cost is O(a) for
    multiplicity a, not O(c).  Raises NotSymmetric otherwise.
    """
    if not semigroup.is_symmetric():
        raise NotSymmetric(
            f"functional equation needs a symmetric semigroup; "
            f"witnesses {semigroup.symmetry_witnesses()}")
    g = semigroup.genus
    p = apery_series(semigroup)
    lgf = p * _ONE_MINUS_T
    rhs_l = lgf.reciprocal() * LaurentPoly.monomial((2 * g,))
    rhs_p = p.reciprocal() * LaurentPoly.monomial((2 * g - 1,))
    return FunctionalEquationSigns(
        eps_l=_matching_sign(lgf, rhs_l),
        eps_p=_matching_sign(p, rhs_p),
        genus=g)
