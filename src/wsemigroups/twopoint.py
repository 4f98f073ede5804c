"""Two-point Weierstrass semigroups stored as finite periodic strips.

A two-point semigroup lives in Z^2.  Its member set is invariant under
translation by (period, -period), every point with coordinate sum >= 2g
is a member, and no point with negative sum is.  Everything in between
is recorded in a (2g) x period boolean table indexed by the class
(sum, m1 mod period).  Two line-minimum tables, the least member sum on
each column class and on each row class, answer every question about
the members below a point on its column or row.  Every pointwise
predicate is thus written once, as a function of a point's class read
off the strip and those two tables, and the point methods only reduce
a point to its class.  The constructor lists the member classes by one
C-level pass over the strip, fills both tables from that list and
refuses a strip on a closure witness of the walk over pairs of member
classes: O(members^2) Python steps.  Every builder refuses a strip of
more than MAX_STRIP_CELLS cells before it makes or reads one.  Window
scans ask each band class at most once, at O(g * period + witnesses +
output), not the window's area; c_prop and c_identity ask at most
4 * period classes, d_agreement reads its witness classes off the
tables, and closure, lemma4 and corner_translates, true on every built
strip, ask none.
expand reads dim_jump on every class of the band off one byte table
laid out by O(g + period) strided runs, writes one digit string per
column class from it and slices each row from that string,
O(g + period + rows) Python steps.

Two dimension functions are deliberately kept side by side: dim_jump
mirrors the sheaf dimension ell(m) - ell(m-1) through one-sided jumps
along the column and the row, while dim_nabla encodes the combinatorial
statement "d = 1 iff nabla(m) is empty".  They disagree on genuine
fixtures (the elliptic sum-1 antidiagonal) and the verify() machinery
measures that instead of hiding it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, compress, repeat

from .checks import KIND_CHECKS, VerificationReport, verify
from .errors import (AxiomViolation, InvalidSemigroup, WindowTooSmall,
                     strict_index)
from .series import LaurentPoly, RationalGF, Window

CHECKS = KIND_CHECKS["two-point"]
# the most cells, 2g * period, a strip may have; every builder makes or
# asks each cell in Python, so a larger strip is refused before any is
# (the Hermitian q = 32 strip has 32,736)
MAX_STRIP_CELLS = 1 << 22
_JUMP_DIGITS = bytes.maketrans(b"\0\1\2", b"012")  # a jump byte as its digit
_GAPS = bytes.maketrans(b"\0\1", b"\1\0")  # a strip cell as 1 on a gap


def check_strip_cells(genus, period):
    """Refuse a strip of more than MAX_STRIP_CELLS cells."""
    cells = 2 * genus * period
    if cells > MAX_STRIP_CELLS:
        raise InvalidSemigroup(
            f"strip of 2*genus*period = {cells} cells exceeds the budget "
            f"{MAX_STRIP_CELLS} (the strip is built cell by cell)")


def interior_region(window: Window) -> Window:
    """The window shrunk by the 2-cell verification margin.

    Difference operators and reflections read neighbours of each scanned
    point, so pointwise checks stay two cells away from the boundary.
    """
    bounds = []
    for lo, hi in window.bounds:
        if hi - lo < 4:
            raise WindowTooSmall(
                f"window ({lo}, {hi}) leaves no 2-cell interior margin")
        bounds.append((lo + 2, hi - 2))
    return Window(*bounds)


class TwoPointSemigroup:
    """A validated two-point semigroup on the quotient strip.

    >>> S = TwoPointSemigroup(1, 2, [[True, False], [False, False]])
    >>> S.contains((2, -2)), S.contains((1, 0)), S.contains((1, 1))
    (True, False, True)
    """

    __slots__ = ("genus", "period", "strip", "_colmin", "_rowmin")
    CHECKS = CHECKS

    def __init__(self, genus, period, rows):
        genus = strict_index(genus)
        period = strict_index(period)
        if genus < 0:
            raise InvalidSemigroup(f"genus must be >= 0, got {genus}")
        if period < 1:
            raise InvalidSemigroup(f"period must be >= 1, got {period}")
        check_strip_cells(genus, period)
        rows = tuple(map(tuple, rows))
        if not {bool}.issuperset(map(type, chain.from_iterable(rows))):
            row = next(r for r in rows if not {bool}.issuperset(map(type, r)))
            raise TypeError(f"strip cells must be bools, got row {row}")
        top = 2 * genus
        if len(rows) != top:
            raise InvalidSemigroup(
                f"strip must have 2*genus = {top} rows, got {len(rows)}")
        if not {period}.issuperset(map(len, rows)):
            raise InvalidSemigroup(f"every strip row must have {period} entries")
        self.genus, self.period, self.strip = genus, period, rows
        if genus > 0 and not rows[0][0]:
            raise AxiomViolation("origin (0,0) is not a member",
                                 witnesses=[((0, 0),)])
        # the member classes (s, a) in order, off the flat index s*period+a
        members = list(map(divmod, compress(
            range(top * period), chain.from_iterable(rows)), repeat(period)))
        bad = self._closure_witnesses(members)
        if bad:
            s1, s2, target = bad[0]
            raise AxiomViolation(
                f"quotient closure fails: classes {s1} + {s2} -> {target} "
                f"is not a member", witnesses=bad)
        # least member sum C(a) on each column class (m1 = a mod period) and
        # R(b) on each row class (m2 = b mod period, b = s - a), else 2g;
        # walked from the largest sum down, each line's least is written last
        colmin, rowmin = [top] * period, [top] * period
        for s, a in reversed(members):
            colmin[a] = rowmin[(s - a) % period] = s
        self._colmin, self._rowmin = tuple(colmin), tuple(rowmin)

    @classmethod
    def from_members(cls, genus, period, gens):
        """Additive closure of {gens} + origin on the quotient classes."""
        genus = strict_index(genus)
        period = strict_index(period)
        if genus < 0 or period < 1:
            raise InvalidSemigroup("need genus >= 0 and period >= 1")
        check_strip_cells(genus, period)
        seeds = {(0, 0)}
        for g in gens:
            if len(g) != 2:
                raise InvalidSemigroup(f"member {g!r} is not a pair (m1, m2)")
            m1, m2 = strict_index(g[0]), strict_index(g[1])
            s = m1 + m2
            if s < 0:
                raise InvalidSemigroup(
                    f"generator {(m1, m2)} has negative coordinate sum")
            if s < 2 * genus:
                seeds.add((s, m1 % period))
        classes, frontier = set(seeds), list(seeds)
        while frontier:  # each class is summed with every class so far
            s1, a1 = frontier.pop()
            new = {(s1 + s2, (a1 + a2) % period) for s2, a2 in classes
                   if s1 + s2 < 2 * genus} - classes
            classes |= new
            frontier += new
        rows = [[False] * period for _ in range(2 * genus)]
        for s, a in classes:
            if s < 2 * genus:  # genus 0 keeps no row, not even the origin
                rows[s][a] = True
        return cls(genus, period, rows)

    def _closure_witnesses(self, members):
        """Pairs of the member classes, given in order, whose sum below 2g
        is no member; a walk stops at sum 2g.  O(members^2) steps."""
        top, th, strip = 2 * self.genus, self.period, self.strip
        bad = []
        for i, (s1, a1) in enumerate(members):
            for s2, a2 in members[i:]:
                s = s1 + s2
                if s >= top:
                    break
                a = (a1 + a2) % th
                if not strip[s][a]:
                    bad.append(((s1, a1), (s2, a2), (s, a)))
        return bad

    # the class functions: every pointwise predicate, written once on
    # the class (s, a) = (m1 + m2, m1 mod period), a taken mod period here;
    # the point methods below only reduce m to its class

    def _in(self, s, a):
        """Membership of the class (s, a)."""
        return s >= 0 and (s >= 2 * self.genus or
                           self.strip[s][a % self.period])

    def _empty(self, s, a):
        """No member below (s, a) on its column or row."""
        th = self.period
        return s <= self._colmin[a % th] and s <= self._rowmin[(s - a) % th]

    def _max(self, s, a):
        return self._in(s, a) and self._empty(s, a)

    def _d(self, s, a):
        """dim_jump: [s >= C(a)] + [s - 1 >= R(b)], b = s - a."""
        th = self.period
        return (s >= self._colmin[a % th]) + \
            (s - 1 >= self._rowmin[(s - a) % th])

    def _dn(self, s, a):
        return 0 if not self._in(s, a) else 1 if self._empty(s, a) else 2

    def _c(self, s, a):
        """euler_c: a line's jump is 1 exactly at its minimum, so the four
        dim_jump terms telescope to [s = C(a)] - [s - 1 = C(a - 1)] +
        [s - 1 = R(b)] - [s - 2 = R(b - 1)], b = s - a, at every sum."""
        th, col, row = self.period, self._colmin, self._rowmin
        return (s == col[a % th]) - (s - 1 == col[(a - 1) % th]) + \
            (s - 1 == row[(s - a) % th]) - (s - 2 == row[(s - a - 1) % th])

    def _mcc(self, s, a):
        """maximal_count_coefficient: the maximal points <= m but not <=
        m - (1, 1) lie on m's column or row, at most one on each line,
        at its least member."""
        th, col, row = self.period, self._colmin, self._rowmin
        c, r = col[a % th], row[(s - a) % th]
        return (c <= s and c <= row[(c - a) % th]) + \
            (r <= s and r <= col[(r - s + a) % th]) - self._max(s, a)

    def _step(self, s, a):
        """1_M(m) - 1_M(m - (1, 1)) on the class (s, a)."""
        return self._max(s, a) - self._max(s - 2, a - 1)

    # point methods

    def contains(self, m):
        return self._in(m[0] + m[1], m[0])

    __contains__ = contains

    def is_maximal(self, n):
        return self._max(n[0] + n[1], n[0])

    def maximal_count_coefficient(self, m):
        """Coefficient of t^m in (1 - t1 t2) * sum over all maximal points."""
        return self._mcc(m[0] + m[1], m[0])

    def dim_jump(self, m):
        """[exists y <= m2: (m1,y) in S] + [exists x <= m1-1: (x,m2) in S]."""
        return self._d(m[0] + m[1], m[0])

    def dim_nabla(self, m):
        """0 outside the semigroup, 1 for maximal members, else 2."""
        return self._dn(m[0] + m[1], m[0])

    def euler_c(self, m):
        """c(m) = d(m) - d(m-e1) - d(m-e2) + d(m-(1,1)) with d = dim_jump,
        in closed form on m's class."""
        return self._c(m[0] + m[1], m[0])

    # maximal points and the fundamental corner

    def _maximal_classes(self):
        """The at most period classes (s, a) holding maximal points: a
        line's only maximal candidate is its member of least sum."""
        return [(s, a) for a, s in enumerate(self._colmin)
                if s <= self._rowmin[(s - a) % self.period]]

    def corner_maximals(self) -> tuple:
        """Maximal points in the fundamental corner 0 < m1 <= period,
        0 <= m1 + m2 <= 2g, sorted lexicographically."""
        return tuple(sorted(
            self.normalize((a, s - a)) for s, a in self._maximal_classes()))

    def normalize(self, p):
        """Translate by multiples of (period, -period) until m1 in (0, period]."""
        k = (p[0] - 1) % self.period + 1
        lam = (k - p[0]) // self.period
        return (k, p[1] - lam * self.period)

    def maximal_points_in(self, window: Window):
        return self._points_of(window, self._maximal_classes())

    def corner_translates_in(self, window: Window):
        """Period translates of the corner maximals inside the window; a
        translate by lambda (period, -period) keeps the class of its point."""
        return self._points_of(window, [(p1 + p2, p1 % self.period)
                                        for p1, p2 in self.corner_maximals()])

    # the window table

    def _d_table(self):
        """_d on every class (s, a) of the sums [0, 2g], as bytes at
        s * period + a.  [s >= C(a)] is one strided run per column class;
        [s - 1 >= R(b)] is one per row class, laid out at s * period + b
        and turned to a-order row by row, as b = s - a; the two 0/1 byte
        strings add as integers without a carry.  O(g + period) steps."""
        th, top = self.period, 2 * self.genus
        size = th * (top + 1)
        col, row = bytearray(size), bytearray(size)
        for a, c in enumerate(self._colmin):
            col[c * th + a::th] = b"\1" * (top + 1 - c)
        for b, r in enumerate(self._rowmin):
            row[(r + 1) * th + b::th] = b"\1" * (top - r)
        row = b"".join([line[s % th::-1] + line[:s % th:-1] for s, line in
                        enumerate(row[i:i + th] for i in range(0, size, th))])
        return (int.from_bytes(col, "big")
                + int.from_bytes(row, "big")).to_bytes(size, "big")

    def dim_jump_digits(self, window: Window, sep=""):
        """dim_jump on the window, one string per m1 (m2 ascending), its
        digits 0-2 joined by sep.  Each column class of the window lays
        out its digits, each followed by sep, once over the sums [0, 2g]
        by one strided write from _d_table, padded with one row's width
        of 0 below and of 2 above; row m1 is one slice of its class's
        string, from the sum m1 + lo2, and a row wholly below 0 or above
        2g is one shared pad.  O(g + period + rows) steps and
        O(g * period + output) memory."""
        (lo1, hi1), (lo2, hi2) = window.bounds
        th, top, lo = self.period, 2 * self.genus, lo1 + lo2
        w, n, count = 1 + len(sep), hi2 - lo2 + 1, hi1 - lo1 + 1
        zeros, twos, cut = ("0" + sep) * n, ("2" + sep) * n, w * n - len(sep)
        # rows [first, last) meet the sums [0, 2g]; the class of row i
        # sits at (i - first) % period and its sum s at w * (s + n)
        first = min(max(0, 1 - n - lo), count)
        last = min(max(first, top + 1 - lo), count)
        lines = []
        if first < last:  # the table only serves rows that meet the band
            table = self._d_table().translate(_JUMP_DIGITS)
            cell = ("0" + sep).encode()
            cells = bytearray(cell * (top + 1))
            for a in range(lo1 + first, lo1 + min(last, first + th)):
                cells[::len(cell)] = table[a % th::th]
                lines.append(zeros + cells.decode() + twos)
        return ([zeros[:cut]] * first
                + [lines[(i - first) % th][w * (lo + n + i):
                                           w * (lo + n + i) + cut]
                   for i in range(first, last)]
                + [twos[:cut]] * (count - last))

    def gap_class_count(self):
        return sum(row.count(False) for row in self.strip)

    # series and symmetry

    def poincare_corner(self) -> RationalGF:
        """(1 - t1 t2) * sum_{m in corner maximals} t^m over
        (1 - t1)(1 - t2).  Valid only modulo the two-sided telescoping
        convention; never asserted coefficientwise against dim_jump.
        """
        corner_sum = LaurentPoly({m: 1 for m in self.corner_maximals()},
                                 arity=2)
        one_minus_tt = LaurentPoly({(0, 0): 1, (1, 1): -1})
        return RationalGF(one_minus_tt * corner_sum, [(1, 0), (0, 1)])

    def default_window(self) -> Window:
        b = 2 * self.genus + 2 * self.period + 2
        return Window((-b, b), (-b, b))

    def _sigma_candidate(self):
        """First corner maximal with sum 2g whose reflection preserves
        the corner maximals; None if no candidate works."""
        # cand - p has the class (2g - s, cand1 - a) for p in the class
        # (s, a), and a corner maximal is the one of its class
        top, th = 2 * self.genus, self.period
        corner = self.corner_maximals()
        classes = {(p1 + p2, p1 % th) for p1, p2 in corner}
        for cand in corner:
            if cand[0] + cand[1] == top and all(
                    (top - s, (cand[0] - a) % th) in classes
                    for s, a in classes):
                return cand
        return None

    def find_symmetry_point(self, window: Window | None = None) -> tuple:
        """(sigma, witnesses) of the symmetry-point search.  sigma is the
        corner maximal of sum 2g whose reflection m -> normalize(sigma - m)
        maps the corner maximals into themselves, or None; the witnesses
        are the window points n (default_window() when None) where n in S
        <=> nabla(sigma - n) = empty fails, () without sigma.  S is
        point-symmetric when sigma is not None and there are none."""
        if window is None:
            window = self.default_window()
        sigma = self._sigma_candidate()
        if sigma is None:
            return None, ()
        r = sigma[0] + sigma[1]  # sigma - m is in class (r - s, sigma[0] - a)
        return sigma, tuple(self._where(window, lambda s, a: self._in(s, a) !=
                                        self._empty(r - s, sigma[0] - a)))

    # class loops: a pointwise predicate is asked once per class.  Below
    # the band s in [-2, 2g+2] d = 0 and nothing is a member; above it
    # d = 2, all are members and none maximal: only funceq fails there.

    def _band(self, window):
        """The band classes that meet the window's sums."""
        (lo1, hi1), (lo2, hi2) = window.bounds
        return [(s, a) for s in range(max(-2, lo1 + lo2),
                                      min(2 * self.genus + 2, hi1 + hi2) + 1)
                for a in range(self.period)]

    def _support(self, window):
        """The band classes of the window's sums where c_prop or
        c_identity can fail, at most 4 * period of them.

        Each of _c's four terms is one line-minimum equality, true only
        on (C(a), a), (C(a) + 1, a + 1), (R(b) + 1, a') and (R(b) + 2, a')
        with a' = R(b) + 1 - b.  _max holds only where s is both line
        minima of the class, so _max(s, a) adds nothing to (C(a), a), and
        _max(s - 2, a - 1) nothing to (R(b) + 2, a')."""
        (lo1, hi1), (lo2, hi2) = window.bounds
        th = self.period
        support = set()
        for a, c in enumerate(self._colmin):
            support.update(((c, a), (c + 1, (a + 1) % th)))
        for b, r in enumerate(self._rowmin):
            support.update(((r + 1, (r + 1 - b) % th),
                            (r + 2, (r + 1 - b) % th)))
        return [(s, a) for s, a in support if lo1 + lo2 <= s <= hi1 + hi2]

    def _points_of(self, window, classes):
        """Window points of the classes (s, a), in Window.points() order.

        Up to one class per two window rows, each class is expanded on
        its own and the points sorted; with more, each column class's
        sums are sorted once and row m1 takes the slice of its class's
        sums in [m1 + lo2, m1 + hi2], already in order."""
        (lo1, hi1), (lo2, hi2) = window.bounds
        th = self.period
        if 2 * len(classes) <= hi1 - lo1 + 1:
            return sorted([(m1, s - m1) for s, a in classes
                           for m1 in self._rows_of(window, s, a)])
        sums = [[] for _ in range(th)]
        for s, a in classes:
            sums[a % th].append(s)
        for col in sums:
            col.sort()
        points = []
        for m1 in range(lo1, hi1 + 1):
            col = sums[m1 % th]
            points += [(m1, s - m1) for s in col[
                bisect_left(col, m1 + lo2):bisect_right(col, m1 + hi2)]]
        return points

    def _rows_of(self, window, s, a):
        """The m1 of the window's points in the class (s, a), a range."""
        (lo1, hi1), (lo2, hi2) = window.bounds
        lo = max(lo1, s - hi2)
        return range(lo + (a - lo) % self.period, min(hi1, s - lo2) + 1,
                     self.period)

    def _where(self, window, pred, classes=None):
        """Window points of the classes (s, a) where pred(s, a) holds,
        among the given classes or else all band classes."""
        if classes is None:
            classes = self._band(window)
        return self._points_of(window, [(s, a) for s, a in classes
                                        if pred(s, a)])

    # verification

    verify = verify

    def _report(self, check, window, witnesses, passed=True, **details):
        """The report of a check with its witnesses in the interior region
        of window and "scan", that region, as its first detail; it passes
        when passed holds and there are no witnesses.  A check expands
        only its failing classes into points; symmetry and funceq ask the
        class functions once per band class, O(g * period + witnesses),
        plus period^2 for funceq, and the others as their docstrings say."""
        witnesses = tuple(witnesses)
        return VerificationReport(
            check, passed and not witnesses, witnesses, window.bounds,
            {"scan": interior_region(window).bounds, **details})

    def _check_closure(self, window):
        """No walk: the constructor refused every strip with a witness of
        _closure_witnesses, so a built semigroup has none.  O(1) steps."""
        return self._report("closure", window, ())

    def _check_c_prop(self, window):
        """c(m) = -1 iff m-1 maximal, and c(m) = 1 iff m maximal."""
        def fails(s, a):
            c = self._c(s, a)
            return (c == -1) != self._max(s - 2, a - 1) or \
                (c == 1) != self._max(s, a)

        region = interior_region(window)
        witnesses = self._where(region, fails, self._support(region))
        # the violations where m and m - (1, 1) are not both maximal
        stray = [m for m in witnesses if not (
            self.is_maximal(m) and self.is_maximal((m[0] - 1, m[1] - 1)))]
        details = {"violations_both_maximal": not stray}
        if stray:
            details["stray"] = stray
        return self._report("c_prop", window, witnesses, **details)

    def _check_c_identity(self, window):
        """c(m) with dim_jump equals 1_M(m) - 1_M(m-1)."""
        region = interior_region(window)
        return self._report("c_identity", window, self._where(
            region, lambda s, a: self._c(s, a) != self._step(s, a),
            self._support(region)))

    def _check_corner_translates(self, window):
        """The translates of the corner maximals are the maximal points,
        so no point is asked.  _max holds only at s = C(a) <= R(b), the
        classes of _maximal_classes, and a translate by lambda (period,
        -period) keeps its point's class: the scanned and the translated
        sets are equal.  Both counts are the region's points of those
        classes, one len(range) per class: O(period) steps."""
        region = interior_region(window)
        count = sum(len(self._rows_of(region, s, a))
                    for s, a in self._maximal_classes())
        return self._report("corner_translates", window, (),
                            scanned=count, translates=count)

    def _check_lemma4(self, window):
        """Both projections hit => dim_jump = 2, for m1, m2 > 0: true on
        every strip, so no class is asked.  O(1) steps.

        m1 is in the projection along axis 1 when some (m1, y), y <= 0, is
        a member, that is m1 >= C(a); m2 along axis 2 when m2 >= R(b).  So
        the premise clips m1 to [max(1, C(a)), s - max(1, R(b))], and d != 2
        means s < C(a), where the low end > s > the high end, or s <= R(b),
        where the high end <= 0 < the low end: the clip is always empty."""
        return self._report("lemma4", window, ())

    def _check_d_agreement(self, window):
        """dim_jump = dim_nabla, read off the line minima.  A member has
        C(a), R(b) <= s, so d = 1 + [R(b) < s], and dim_nabla = 1 iff C(a) =
        R(b) = s: they differ on (R(b), R(b) - b) if C(a) < R(b), sum 2g
        included.  On a gap of [0, 2g) dim_nabla = 0 and d > 0 where s >=
        C(a) or s > R(b), read off _d_table; below 0 and above 2g they
        agree.  O(g + period + witnesses) steps."""
        region = interior_region(window)
        lo, hi = map(sum, zip(*region.bounds))  # the region's sums
        th, col = self.period, self._colmin
        classes = [(r, (r - b) % th) for b, r in enumerate(self._rowmin)
                   if col[(r - b) % th] < r and lo <= r <= hi]
        first, last = max(0, lo), min(2 * self.genus, hi + 1)
        if first < last:  # the gap witnesses of the sums [first, last)
            gaps = bytes(chain.from_iterable(
                self.strip[first:last])).translate(_GAPS)
            jumps = self._d_table()[first * th:last * th]
            classes += map(divmod, compress(range(first * th, last * th),
                                            map(min, gaps, jumps)),
                           repeat(th))
        return self._report("d_agreement", window,
                            self._points_of(region, classes))

    def _check_symmetry(self, window):
        sigma, witnesses = self.find_symmetry_point(interior_region(window))
        return self._report("symmetry", window, witnesses,
                            passed=sigma is not None, sigma=sigma,
                            involution_ok=sigma is not None)

    def _check_funceq(self, window):
        """Reflection identities for the corner coefficient functions.

        With the pairing m <-> sigma - m on maximal points, the series
        coefficients satisfy mcc(m) + mcc(sigma - m) = 2 and
        cmax(m) = -cmax(sigma + 1 - m) where cmax(u) = 1_M(u) - 1_M(u-1);
        these are the pointwise faces of L(t) = eps t^{sigma+1} L(1/t)
        and P(t) = eps' t^{sigma} P(1/t).
        """
        sigma = self._sigma_candidate()
        if sigma is None:
            return self._report("funceq", window, (), passed=False,
                                sigma=None, involution_ok=False)
        top, th = 2 * self.genus, self.period

        def fails(s, a):  # sigma - m has the class (2g - s, b)
            r, b = top - s, sigma[0] - a
            return self._mcc(s, a) + self._mcc(r, b) != 2 or \
                self._step(s, a) != -self._step(r + 2, b + 1)

        region = interior_region(window)
        classes = [(s, a) for s, a in self._band(region) if fails(s, a)]
        # beyond the band mcc repeats with period `period` in s, not 2, so
        # fails is asked on one period of sums on each side of the band,
        # and a failing class (s, a) fails at the window's sums t = s mod
        # period on its side, clipped to the window's sum range
        (lo1, hi1), (lo2, hi2) = region.bounds
        for s in (*range(-2 - th, -2), *range(top + 3, top + 3 + th)):
            lo, hi = ((max(s, lo1 + lo2), hi1 + hi2) if s > 0
                      else (lo1 + lo2, min(s, hi1 + hi2)))
            sums = range(lo + (s - lo) % th, hi + 1, th)
            classes += [(t, a) for a in range(th) if fails(s, a)
                        for t in sums]
        return self._report("funceq", window,
                            self._points_of(region, classes),
                            sigma=sigma, involution_ok=True)

    def __repr__(self):
        return (f"TwoPointSemigroup(genus={self.genus}, "
                f"period={self.period})")
