"""Slow reference predicates of a two-point semigroup, kept as a test oracle.

The point predicates take a TwoPointSemigroup and read it through
`contains` alone, walking the column or row of a point member by
member.  `TwoPointSemigroup` answers the same questions from its two
line-minimum tables.  The window scans further down visit every window
point and call the semigroup's own point predicates there, where
`TwoPointSemigroup` asks each predicate once per class (m1 + m2,
m1 mod period).  `line_minima` and `sigma_candidate` are the constructor's
line-minimum tables and the symmetry-point search as they were computed,
one strip cell or one normalized point at a time.  `closure_witnesses`
walks every pair of member classes, and `lemma4_band_walk` asks lemma4's
premise on every band class, which `TwoPointSemigroup` no longer does
because neither can find a witness on a built strip.  The property
tests in test_twopoint.py check each pair against each other.
"""

from functools import cache

from wsemigroups.twopoint import interior_region


def nabla(S, n, coords, strict=True):
    """Members agreeing with n on `coords` and below it elsewhere.

    coords is a nonempty subset of {1, 2}.  With strict=True the free
    coordinate runs strictly below n's; with strict=False it may equal
    it.  The free coordinate is bounded below by the nonnegative-sum
    condition, so the enumeration is finite.
    """
    coords = frozenset(coords)
    if not coords or not coords <= {1, 2}:
        raise ValueError("coords must be a nonempty subset of {1,2}")
    n1, n2 = n
    if coords == {1, 2}:
        return [(n1, n2)] if S.contains(n) else []
    slack = 0 if strict else 1
    if coords == {1}:
        return [(n1, y) for y in range(-n1, n2 + slack)
                if S.contains((n1, y))]
    return [(x, n2) for x in range(-n2, n1 + slack) if S.contains((x, n2))]


def nabla_union(S, n):
    """The strict set nabla(n) = nabla_1(n) union nabla_2(n)."""
    return sorted(set(nabla(S, n, {1})) | set(nabla(S, n, {2})))


def column_reaches(S, m1, smax):
    """Is there a member (m1, y) with m1 + y <= smax?"""
    return any(S.contains((m1, s - m1)) for s in range(smax + 1))


def row_reaches(S, m2, smax):
    """Is there a member (x, m2) with x + m2 <= smax?"""
    return any(S.contains((s - m2, m2)) for s in range(smax + 1))


def projection_contains(S, axis, value):
    """Is `value` in the one-point projection along the given axis?

    Axis 1 asks for a member (value, y) with y <= 0; axis 2 for a
    member (x, value) with x <= 0.
    """
    if axis == 1:
        return column_reaches(S, value, value)
    if axis == 2:
        return row_reaches(S, value, value)
    raise ValueError("axis must be 1 or 2")


def is_maximal(S, n):
    return S.contains(n) and not nabla_union(S, n)


def dim_jump(S, m):
    """[exists y <= m2: (m1,y) in S] + [exists x <= m1-1: (x,m2) in S]."""
    s = m[0] + m[1]
    return int(column_reaches(S, m[0], s)) + int(row_reaches(S, m[1], s - 1))


def dim_jump_swapped(S, m):
    """Same two-step count taken in the other coordinate order."""
    s = m[0] + m[1]
    return int(row_reaches(S, m[1], s)) + int(column_reaches(S, m[0], s - 1))


def dim_nabla(S, m):
    """0 outside the semigroup, 1 for maximal members, else 2."""
    if not S.contains(m):
        return 0
    return 1 if is_maximal(S, m) else 2


def euler_c(S, m):
    """c(m) from the point method dim_jump at m and its three lower
    neighbours, not from euler_c's closed form on the class."""
    m1, m2 = m
    d = S.dim_jump
    return d(m) - d((m1 - 1, m2)) - d((m1, m2 - 1)) + d((m1 - 1, m2 - 1))


def euler_c_nabla(S, m):
    """euler_c with dim_nabla in place of dim_jump."""
    m1, m2 = m
    return dim_nabla(S, m) - dim_nabla(S, (m1 - 1, m2)) - \
        dim_nabla(S, (m1, m2 - 1)) + dim_nabla(S, (m1 - 1, m2 - 1))


def order_independence_witnesses(S, window):
    """Points where the two dim_jump decompositions disagree."""
    return [m for m in window.points()
            if dim_jump(S, m) != dim_jump_swapped(S, m)]


def _normalize(th, p):
    """The translate of p by a multiple of (th, -th) with m1 in (0, th]."""
    shift = (p[0] - 1) // th * th
    return (p[0] - shift, p[1] + shift)


def _symmetry_point(corner, g, th):
    """The first corner maximal with sum 2g whose reflection
    m -> normalize(sigma - m) maps the corner maximals into themselves."""
    for cand in corner:
        if cand[0] + cand[1] == 2 * g and all(
                _normalize(th, (cand[0] - p[0], cand[1] - p[1])) in corner
                for p in corner):
            return cand
    return None


def find_symmetry_point(S, window):
    """(sigma, witnesses) of the symmetry search, by direct scans.

    The witnesses are the window points n where n in S disagrees with
    nabla(sigma - n) being empty.  (None, ()) when no sigma exists.
    """
    g, th = S.genus, S.period
    corner = sorted((m1, s - m1) for m1 in range(1, th + 1)
                    for s in range(2 * g + 1) if is_maximal(S, (m1, s - m1)))
    sigma = _symmetry_point(corner, g, th)
    if sigma is None:
        return None, ()
    return sigma, tuple(
        n for n in window.points()
        if S.contains(n) != (not nabla_union(
            S, (sigma[0] - n[0], sigma[1] - n[1]))))


# the strip scans the constructor's tables replaced, one class at a time

def line_minima(S):
    """(colmin, rowmin): the least member sum of each column class a and
    each row class b, scanning the sums up from 0; 2g when there is none."""
    top, th = 2 * S.genus, S.period
    return (tuple(next((s for s in range(top) if S.strip[s][a]), top)
                  for a in range(th)),
            tuple(next((s for s in range(top) if S.strip[s][(s - b) % th]),
                       top) for b in range(th)))


def closure_witnesses(S):
    """Every pair of member classes, read off the strip, whose sum below
    2g is not a member, as ((s1, a1), (s2, a2), (s, a)), sorted."""
    top, th = 2 * S.genus, S.period
    members = [(s, a) for s in range(top) for a in range(th) if S.strip[s][a]]
    return sorted(((s1, a1), (s2, a2), (s1 + s2, (a1 + a2) % th))
                  for i, (s1, a1) in enumerate(members)
                  for s2, a2 in members[i:]
                  if s1 + s2 < top and not S.strip[s1 + s2][(a1 + a2) % th])


def lemma4_band_walk(S, region):
    """lemma4's witnesses class by class over the band: on a class (s, a)
    with d != 2 the premise clips m1 to [max(1, C(a)), s - max(1, R(b))],
    b = s - a, and the points of the region in the clip are witnesses."""
    (lo1, hi1), (lo2, hi2) = region.bounds
    th = S.period
    points = []
    for s, a in S._band(region):
        if S._d(s, a) != 2:
            lo = max(lo1, s - hi2, 1, S._colmin[a])
            hi = min(hi1, s - lo2, s - max(1, S._rowmin[(s - a) % th]))
            points += [(m1, s - m1)
                       for m1 in range(lo + (a - lo) % th, hi + 1, th)]
    return sorted(points)


def sigma_candidate(S):
    """The first corner maximal of sum 2g whose reflection, normalized
    point by point, maps the corner maximals into themselves."""
    return _symmetry_point(S.corner_maximals(), S.genus, S.period)


# window scans, one predicate call per window point

@cache
def corner_maximals(S):
    """Maximal points with 0 < m1 <= period and 0 <= m1 + m2 <= 2g."""
    return tuple(sorted(
        (m1, s - m1) for m1 in range(1, S.period + 1)
        for s in range(2 * S.genus + 1) if S.is_maximal((m1, s - m1))))


def count_maximals_leq(S, m):
    """Number of maximal points componentwise <= m, via translates."""
    m1, m2 = m
    th = S.period
    total = 0
    for p1, p2 in corner_maximals(S):
        hi = (m1 - p1) // th
        lo = -((m2 - p2) // th)
        if hi >= lo:
            total += hi - lo + 1
    return total


def maximal_count_coefficient(S, m):
    return count_maximals_leq(S, m) - \
        count_maximals_leq(S, (m[0] - 1, m[1] - 1))


def symmetry_point(S):
    """sigma from the scanned corner maximals, or None."""
    return _symmetry_point(corner_maximals(S), S.genus, S.period)


def maximal_points_in(S, window):
    return [m for m in window.points() if S.is_maximal(m)]


def dim_jump_rows(S, window):
    (lo1, hi1), (lo2, hi2) = window.bounds
    return [[S.dim_jump((m1, m2)) for m2 in range(lo2, hi2 + 1)]
            for m1 in range(lo1, hi1 + 1)]


def expand_text(S, window):
    """The `expand` text table, formatted one int at a time from the
    point scan, as the CLI printed it before it joined digit strings."""
    (lo1, hi1), (lo2, hi2) = window.bounds
    lines = [f"dim_jump on m1 in [{lo1}, {hi1}], m2 in [{lo2}, {hi2}]"]
    for m1, row in zip(range(lo1, hi1 + 1), dim_jump_rows(S, window)):
        lines.append(f"{m1}: " + " ".join(str(v) for v in row))
    return "\n".join(lines)


def symmetry_witnesses(S, sigma, window):
    """Window points n where n in S disagrees with nabla(sigma - n)
    being empty."""
    # sigma - n has the class (r - n1 - n2, sigma[0] - n1)
    r = sigma[0] + sigma[1]
    return tuple(n for n in window.points() if S.contains(n) !=
                 S._empty(r - n[0] - n[1], sigma[0] - n[0]))


def _max_step(S, m):
    return int(S.is_maximal(m)) - int(S.is_maximal((m[0] - 1, m[1] - 1)))


def _c_prop(S, region):
    witnesses = []
    stray = []
    for m in region.points():
        c = euler_c(S, m)
        prev_max = S.is_maximal((m[0] - 1, m[1] - 1))
        here_max = S.is_maximal(m)
        if ((c == -1) != prev_max) or ((c == 1) != here_max):
            witnesses.append(m)
            if not (prev_max and here_max):
                stray.append(m)
    details = {"violations_both_maximal": not stray}
    if stray:
        details["stray"] = stray
    return witnesses, details


def _c_identity(S, region):
    return [m for m in region.points()
            if euler_c(S, m) != _max_step(S, m)], {}


def _corner_translates(S, region):
    scanned = set(maximal_points_in(S, region))
    translated = set(S.corner_translates_in(region))
    details = {"scanned": len(scanned), "translates": len(translated)}
    return sorted(scanned ^ translated), details


def _closure(S, region):
    return closure_witnesses(S), {}


def _lemma4(S, region):
    return [m for m in region.points()
            if m[0] > 0 and m[1] > 0 and projection_contains(S, 1, m[0])
            and projection_contains(S, 2, m[1]) and S.dim_jump(m) != 2], {}


def _d_agreement(S, region):
    return [m for m in region.points()
            if S.dim_jump(m) != S.dim_nabla(m)], {}


def _symmetry(S, region):
    sigma = symmetry_point(S)
    if sigma is None:
        return [], {"sigma": None, "involution_ok": False}
    return list(symmetry_witnesses(S, sigma, region)), \
        {"sigma": sigma, "involution_ok": True}


def _funceq(S, region):
    sigma = symmetry_point(S)
    if sigma is None:
        return [], {"sigma": None, "involution_ok": False}
    witnesses = []
    for m in region.points():
        refl = (sigma[0] - m[0], sigma[1] - m[1])
        if maximal_count_coefficient(S, m) + \
                maximal_count_coefficient(S, refl) != 2 or \
                _max_step(S, m) != -_max_step(S, (refl[0] + 1, refl[1] + 1)):
            witnesses.append(m)
    return witnesses, {"sigma": sigma, "involution_ok": True}


_CHECKS = {
    "closure": _closure,
    "c_prop": _c_prop,
    "c_identity": _c_identity,
    "corner_translates": _corner_translates,
    "lemma4": _lemma4,
    "d_agreement": _d_agreement,
    "symmetry": _symmetry,
    "funceq": _funceq,
}


def verify(S, check, window):
    """(passed, witnesses, details) of a pointwise check, point by point,
    with the details TwoPointSemigroup.verify reports."""
    region = interior_region(window)
    witnesses, details = _CHECKS[check](S, region)
    # symmetry and funceq fail outright without a symmetry point
    passed = not witnesses and details.get("sigma", True) is not None
    return passed, tuple(witnesses), {"scan": region.bounds, **details}
