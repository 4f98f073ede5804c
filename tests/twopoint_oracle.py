"""Slow reference predicates of a two-point semigroup, kept as a test oracle.

Every function here takes a TwoPointSemigroup and reads it through
`contains` alone, walking the column or row of a point member by
member.  `TwoPointSemigroup` answers the same questions from its two
line-minimum tables; the property tests in test_twopoint.py check the
two against each other.
"""


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


def order_independence_witnesses(S, window):
    """Points where the two dim_jump decompositions disagree."""
    return [m for m in window.points()
            if dim_jump(S, m) != dim_jump_swapped(S, m)]


def _normalize(th, p):
    """The translate of p by a multiple of (th, -th) with m1 in (0, th]."""
    shift = (p[0] - 1) // th * th
    return (p[0] - shift, p[1] + shift)


def find_symmetry_point(S, window):
    """(sigma, witnesses) of the symmetry search, by direct scans.

    sigma is the first corner maximal with sum 2g whose reflection
    m -> normalize(sigma - m) maps the corner maximals into themselves;
    the witnesses are the window points n where n in S disagrees with
    nabla(sigma - n) being empty.  (None, ()) when no sigma exists.
    """
    g, th = S.genus, S.period
    corner = sorted((m1, s - m1) for m1 in range(1, th + 1)
                    for s in range(2 * g + 1) if is_maximal(S, (m1, s - m1)))
    for cand in corner:
        if cand[0] + cand[1] != 2 * g:
            continue
        if all(_normalize(th, (cand[0] - p[0], cand[1] - p[1])) in corner
               for p in corner):
            witnesses = tuple(
                n for n in window.points()
                if S.contains(n) != (not nabla_union(
                    S, (cand[0] - n[0], cand[1] - n[1]))))
            return cand, witnesses
    return None, ()
