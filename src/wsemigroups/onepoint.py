"""Numerical semigroups and one-point Weierstrass semigroup series.

A numerical semigroup is given by generators with gcd 1 and read off
its Apery set: the least member in each residue class modulo
a = min(generators), found by a Dijkstra over Z/a with one edge per
nonzero residue class of the generators.  Its work, a times the edges,
and a itself are budgeted (`MAX_RELAXATIONS`, `MAX_MULTIPLICITY`).
That table of a entries gives membership, the conductor, the genus and
membership masks.  On top of that sit gcd-descent generator chains
(delta sequences, proved free by h Apery tests of multiplicity <= r_0,
so at no O(c) cost), optional extra pole orders, and the Poincare
series P(t) = sum_{n in S} t^n with L(t) = (1 - t) P(t) in its closed
forms.  Both semigroup classes share one Apery-set base class (a
one-point semigroup lowers its base's table by the extras) and answer
`verify(check)` for the checks their input kind has in
`checks.KIND_CHECKS`.  The coefficient of P at n is 1 for a member n
and 0 otherwise, so `indicator(window)` gives P's coefficients on a
window as membership bytes, and one-point `expand` prints them.  The
symmetry witnesses and the L-polynomial's run starts and ends are one
range per residue class of the table; `l_jumps` sorts the starts and
ends into one list, whose signs alternate +1, -1, ..., +1, and
`jump_mask()` lays them out as bytes, one strided write a run.  Checks
read the Apery form P(t) = sum_{w in Ap} t^w / (1 - t^a), a numerator
terms, not c: it decides the `funceq` signs in O(a), and the
`symmetry` and `funceq` reports carry it.  `indicator` and
`delta_product` ask no point: the series they report, the Apery form,
or the delta product (plus the extras on a one-point semigroup), is P
by the Apery set's definition or by the freeness and closure the
constructors proved.  Of the checks only `l_identity` reads L: it decides
(1 - t) sum_w t^w = L (1 - t^a) as one equality of sorted lists of
L's jumps, and its report carries the L-polynomial, with its O(g)
terms.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator

from .checks import KIND_CHECKS, VerificationReport, verify
from .errors import (AxiomViolation, InvalidSemigroup, NotSymmetric,
                     strict_index)
from .series import LaurentPoly, RationalGF, Window

_ONE_MINUS_T = LaurentPoly({(0,): 1, (1,): -1})
# the largest multiplicity a that is built: the Apery table has a entries
# and its Dijkstra runs over Z/a, so a bounds both time and memory
MAX_MULTIPLICITY = 2 ** 20
# the largest a x edges that is built: the Dijkstra relaxes every edge, one
# per nonzero residue class of the generators mod a, from every residue
MAX_RELAXATIONS = 2 ** 21
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")  # swaps a mask's 0 and 1 bytes


class _AperySemigroup:
    """A numerical semigroup read off one Apery table.

    `apery[r]` is the least member congruent to r modulo a = len(apery),
    a member: the multiplicity, but for a one-point semigroup the base's
    (<4,6,7> + {3, 9} has multiplicity 3 and the table (0, 9, 6, 3)).
    Membership, every mask, the conductor (max Ap - a + 1), the genus
    (sum of floor(w / a)) and the symmetry witnesses (one range per
    class, O(a + W log W) for W witnesses), which hold modulo any member,
    come from it; `gap_mask()` and `gaps` are built from a membership
    mask on each access, at O(c) cost.
    """

    __slots__ = ("apery", "conductor", "genus")

    def __init__(self, apery):
        a = len(apery)
        self.apery = tuple(apery)
        self.conductor = max(apery) - a + 1
        self.genus = sum(w // a for w in apery)

    def contains(self, n):
        # the least member of n's class is >= 0, so negative n fail too
        return n >= self.apery[n % len(self.apery)]

    __contains__ = contains

    def mask(self, hi, lo=0):
        """A bytearray m of length hi - lo, for 0 <= lo <= hi, with
        m[n - lo] = 1 exactly for members n."""
        a = len(self.apery)
        member = bytearray(hi - lo)
        for w in self.apery:
            n = max(w, lo + (w - lo) % a)  # the class's first member >= lo
            member[n - lo::a] = b"\1" * len(range(n, hi, a))
        return member

    def gap_mask(self):
        """A bytearray m of length c with m[n] = 1 exactly for gaps n."""
        return self.mask(self.conductor).translate(_FLIP)

    def jump_mask(self):
        """A bytearray m of length 2(c + 1) with m[2n] = 1 where a run of
        members starts at n and m[2n + 1] = 1 where one ends: the jumps
        of `l_jumps`, one strided write per residue class and kind."""
        apery = self.apery
        step = 2 * len(apery)
        jumps = bytearray(2 * self.conductor + 2)
        for w, p in zip(apery, apery[-1:] + apery[:-1]):
            # starts at n = w, w + a, ... <= p, ends at n = p + 1, ... < w
            for lo, hi in ((2 * w, 2 * p + 2), (2 * p + 3, 2 * w + 1)):
                jumps[lo:hi:step] = b"\1" * len(range(lo, hi, step))
        return jumps

    @property
    def gaps(self):
        """The gaps in increasing order, a tuple of the n with
        gap_mask()[n] = 1."""
        return tuple(itertools.compress(range(self.conductor),
                                        self.gap_mask()))

    def symmetry_witnesses(self):
        """Values n in [0, c) where n and c-1-n are both in or both out,
        in increasing order.

        Both are never members: their sum c - 1 is a gap.  In the class r
        of n, with least member w, the partner c-1-n is a gap exactly
        when n > top = c-1-Ap[(c-1-r) mod a], and top is in class r too.
        So the class's witnesses are range(top + a, w, a), as w < c + a
        leaves no value of the class in [c, w): O(a) steps and one sort
        of the W witnesses."""
        c = self.conductor
        if c == 2 * self.genus:
            return []
        apery = self.apery
        a = len(apery)
        k = (c - 1) % a
        # top + a for r = 0, ..., a-1, from Ap[(c-1-r) mod a]
        starts = [c - 1 + a - p for p in apery[k::-1] + apery[:k:-1]]
        return sorted(itertools.chain.from_iterable(
            map(range, starts, apery, itertools.repeat(a))))

    def is_symmetric(self):
        # every member n < c pairs with the gap c-1-n, so g >= c/2,
        # with equality exactly when no witness exists
        return self.conductor == 2 * self.genus

    def indicator(self, window) -> bytes:
        """The membership bytes of the one-point window [lo, hi], the
        coefficients of P(t) = sum_{n in S} t^n there: 0 below 0, the
        mask on [0, c) and 1 from the conductor c on, so O(window + a)
        steps however far the window lies."""
        (lo, hi), = window.bounds
        c = self.conductor
        start = max(0, lo)
        return (bytes(max(0, min(hi + 1, 0) - lo))
                + self.mask(max(start, min(hi + 1, c)), start)
                + b"\1" * max(0, hi + 1 - max(lo, c)))

    def default_window(self) -> Window:
        return Window((0, max(3 * self.conductor, 8)))

    # of the checks only indicator reads the window
    verify = verify

    def _check_indicator(self, window):
        """P's coefficients are the membership indicator on the window:
        the Apery form is P by the Apery set's definition, so no point
        is asked.  O(a) steps, for the series."""
        return VerificationReport("indicator", True, (), window.bounds, {},
                                  apery_series(self))

    def _check_l_identity(self, window):
        """(1 - t) P(t) is the L-polynomial, decided on the Apery form as
        (1 - t) sum_w t^w = L(t) (1 - t^a).  Every coefficient of either
        side is +1 or -1, so moving the negative terms across makes it
        one equality of sorted exponent lists, read off L's jumps:
        Ap + ends + (starts + a) against (Ap + 1) + starts + (ends + a)."""
        apery = self.apery
        a = len(apery)
        jumps = l_jumps(self)
        starts, ends = jumps[::2], jumps[1::2]
        lhs = [*apery, *ends, *map(a.__add__, starts)]
        rhs = [*(w + 1 for w in apery), *starts, *map(a.__add__, ends)]
        ok = sorted(lhs) == sorted(rhs)
        return VerificationReport("l_identity", ok, (), None, {},
                                  RationalGF(l_polynomial(self)))

    def _check_symmetry(self, window):
        witnesses = tuple(self.symmetry_witnesses())
        details = {"conductor": self.conductor, "genus": self.genus}
        return VerificationReport("symmetry", not witnesses, witnesses,
                                  None, details, apery_series(self))

    def _check_funceq(self, window):
        if not self.is_symmetric():
            return VerificationReport("funceq", False,
                                      tuple(self.symmetry_witnesses()), None,
                                      {"symmetric": False})
        eps_l, eps_p = functional_equation_signs(self)
        ok = eps_l is not None and eps_p is not None
        # the reflected identities close only with these signs; the
        # opposite pair, often displayed, fails the exact algebra
        details = {"eps_l": eps_l, "eps_p": eps_p,
                   "genus": self.genus, "opposite_pair_fails": ok}
        return VerificationReport("funceq", ok, (), None, details,
                                  apery_series(self))


class NumericalSemigroup(_AperySemigroup):
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

    __slots__ = ("generators",)
    CHECKS = KIND_CHECKS["one-point"]

    def __init__(self, generators):
        gens = sorted(set(map(strict_index, generators)))
        if not gens:
            raise InvalidSemigroup("at least one generator is required")
        if gens[0] < 1:
            raise InvalidSemigroup(f"generators must be positive, got {gens[0]}")
        if math.gcd(*gens) != 1:
            raise InvalidSemigroup(
                f"gcd of generators is {math.gcd(*gens)}, not 1")
        a = gens[0]
        if a > MAX_MULTIPLICITY:
            raise InvalidSemigroup(
                f"multiplicity {a} exceeds the budget {MAX_MULTIPLICITY} "
                f"(the Apery table has one entry per residue modulo it)")
        # Dijkstra over Z/a, with an edge r -> r + g of weight g for the
        # least generator g of each nonzero class: a larger one of the
        # class, or one of class 0, never shortens a path
        least = {}
        for g in gens[1:]:
            least.setdefault(g % a, g)
        least.pop(0, None)
        edges = tuple(least.values())
        if a * len(edges) > MAX_RELAXATIONS:
            raise InvalidSemigroup(
                f"multiplicity {a} times {len(edges)} generator classes "
                f"exceeds the budget {MAX_RELAXATIONS} (the Apery table's "
                f"Dijkstra relaxes every class from every residue)")
        self.generators = tuple(gens)
        apery = [0] + [None] * (a - 1)
        heap = [(0, 0)]
        while heap:
            w, r = heapq.heappop(heap)
            if w > apery[r]:
                continue
            for g in edges:
                v, s = w + g, (r + g) % a
                if apery[s] is None or v < apery[s]:
                    apery[s] = v
                    heapq.heappush(heap, (v, s))
        super().__init__(apery)

    # named in each class's own __dict__, where bench/tracing.py patches it
    symmetry_witnesses = _AperySemigroup.symmetry_witnesses

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
        r = tuple(map(strict_index, r))
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


class OnePointSemigroup(_AperySemigroup):
    """A delta-sequence semigroup enlarged by finitely many extra members.

    The full member set is S union extras; it must still be closed
    under addition, and the extras must genuinely lie outside S.
    `apery[r]` is its least member congruent to r modulo the base's
    multiplicity a: the base's, lowered to the least extra of the class
    (valid because a is a member and the set is closed).
    """

    __slots__ = ("base", "extras")
    CHECKS = KIND_CHECKS["delta"]

    def __init__(self, base, extras=()):
        if not isinstance(base, DeltaSequence):
            base = DeltaSequence(base)
        extra = sorted(set(map(strict_index, extras)))
        if extra and extra[0] < 1:
            raise InvalidSemigroup("extra members must be positive")
        for x in extra:
            if base.semigroup.contains(x):
                raise InvalidSemigroup(
                    f"extra member {x} already lies in the base semigroup")
        self.base = base
        self.extras = tuple(extra)
        self._require_closed()
        apery = list(base.semigroup.apery)
        a = len(apery)
        for x in extra:
            apery[x % a] = min(apery[x % a], x)
        super().__init__(apery)

    def _require_closed(self):
        if not self.extras:
            return
        # sums inside the base semigroup are closed already, so only
        # sums involving at least one extra member need checking, and
        # every missing sum is a gap of the base, below its conductor
        bound = self.base.semigroup.conductor
        member = self.base.semigroup.mask(bound)
        for e in self.extras:
            member[e] = 1  # a gap of the base, so e < bound
        witnesses = [
            (e, n, e + n) for e in self.extras
            for n in itertools.compress(range(bound - e),
                                        map(operator.gt, member, member[e:]))]
        if witnesses:
            raise AxiomViolation(
                f"member set is not closed under addition: "
                f"{witnesses[0][0]} + {witnesses[0][1]} = {witnesses[0][2]} "
                f"is missing", witnesses=witnesses)

    # named in each class's own __dict__, where bench/tracing.py patches it
    symmetry_witnesses = _AperySemigroup.symmetry_witnesses

    def _check_indicator(self, window):
        """The delta product plus the extras is P, so no point is asked:
        the base's chain is free, so its delta product is P of the base
        (Kirfel & Pellikaan), and the extras are gaps of the base whose
        union with it is closed, all proved by the constructors."""
        return VerificationReport("indicator", True, (), window.bounds, {},
                                  poincare_onepoint(self))

    def _check_delta_product(self, window):
        """The delta product is P of the base, its chain being free."""
        bounds = ((0, max(2 * self.base.semigroup.conductor, 8)),)
        return VerificationReport("delta_product", True, (), bounds, {},
                                  poincare_delta_product(self.base))

    def __repr__(self):
        return f"OnePointSemigroup({list(self.base.r)}, extras={list(self.extras)})"


def l_jumps(semigroup) -> list[int]:
    """The exponents of the L-polynomial (1 - t) P(t) in increasing order.

    L's coefficient at t^n is the jump [n in S] - [n - 1 in S] of the
    membership indicator: +1 where a run of members starts (the first at
    0), -1 where one ends (the last, from c on, never).  Runs of members
    and of gaps alternate, so the signs alternate +1, -1, ..., +1 along
    the list, which ends at the conductor.  Both kinds are read off the
    Apery table, one range per residue class r: with p = Ap[r - 1] the
    least member of the class of n - 1, runs start at the members n <= p
    of class r, range(Ap[r], p + 1, a), and end at its gaps n > p,
    range(p + 1, Ap[r], a), as p + 1 lies in class r.  One sort orders
    both kinds."""
    apery = semigroup.apery
    after = [p + 1 for p in apery[-1:] + apery[:-1]]
    return sorted(itertools.chain.from_iterable(map(
        range, [*apery, *after], [*after, *apery],
        itertools.repeat(len(apery)))))


def l_jump_count(semigroup) -> int:
    """len(l_jumps(semigroup)) in O(a): the starts or the ends of class r
    step by a from Ap[r] to Ap[r - 1] + 1, which lies in class r."""
    apery = semigroup.apery
    after = map((1).__add__, apery[-1:] + apery[:-1])
    return sum(map(abs, map(operator.sub, apery, after))) // len(apery)


def l_polynomial(semigroup) -> LaurentPoly:
    """The L-polynomial (1 - t) P(t) = t^c + (1 - t) sum_{n in S, n < c} t^n,
    the numerator of P over (1 - t): +1 and -1 in turn along `l_jumps`."""
    return LaurentPoly._trusted(dict(zip(
        zip(l_jumps(semigroup)), itertools.cycle((1, -1)))), 1)


def poincare_direct(semigroup) -> RationalGF:
    """P(t) = sum_{n in S, n < c} t^n + t^c / (1 - t), over (1 - t)."""
    return RationalGF(l_polynomial(semigroup), [(1,)])


def apery_series(semigroup) -> RationalGF:
    """P(t) = sum_{w in Ap} t^w / (1 - t^a) over the semigroup's Apery
    table modulo the member a = len(apery): a numerator terms, not c."""
    apery = semigroup.apery
    return RationalGF(LaurentPoly._trusted({(w,): 1 for w in apery}, 1),
                      [(len(apery),)])


def direct_series(semigroup) -> RationalGF:
    """P(t) from the members themselves: the direct form of a numerical
    semigroup, the delta product plus the extras of a one-point one."""
    if isinstance(semigroup, OnePointSemigroup):
        return poincare_onepoint(semigroup)
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


def poincare_onepoint(ops: OnePointSemigroup) -> RationalGF:
    """P(t) of a one-point semigroup: the delta product of its base plus
    sum_{m in extras} t^m (the delta product alone without extras)."""
    base_gf = poincare_delta_product(ops.base)
    if not ops.extras:
        return base_gf
    return base_gf + LaurentPoly({(m,): 1 for m in ops.extras})


def series_first_difference(ops: OnePointSemigroup) -> int | None:
    """2 min(extras), the least sum of two or more extras, when it lies
    in [0, conductor + max(extras) + 10]; None otherwise (always without
    extras).  It is read off the extras in O(1), nothing expanded."""
    if ops.extras and 2 * ops.extras[0] <= ops.conductor + ops.extras[-1] + 10:
        return 2 * ops.extras[0]
    return None


def _matching_sign(lhs: RationalGF, rhs: RationalGF):
    if lhs.equals(rhs):
        return 1
    if lhs.equals(-rhs):
        return -1
    return None


def functional_equation_signs(semigroup) -> tuple:
    """The signs (eps_l, eps_p) in L(t) = eps_l t^{2g} L(1/t) and
    P(t) = eps_p t^{2g-1} P(1/t) of a symmetric semigroup, decided by
    exact algebra; a sign is None when neither closes its identity.

    Exact one-sided algebra forces eps_l = +1 and eps_p = -1 on every
    symmetric semigroup; the commonly displayed opposite signs do not
    hold in this representation.  Both identities are decided on the
    Apery form, P = sum_w t^w / (1 - t^a) and L = (1 - t) P, whose
    numerators have a and at most 2a terms, so the cost is O(a) for the
    Apery modulus a, not O(c).  Raises NotSymmetric otherwise.
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
    return _matching_sign(lgf, rhs_l), _matching_sign(p, rhs_p)
