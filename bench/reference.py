"""Reference answers for every benchmark job, computed without wsemigroups.

Nothing here imports the package.  One-point membership comes from a
closure BFS over the generators and the extra members; two-point
membership comes from the strip, or from the closed-form Riemann-Roch
dimension of the toy fixtures.  Every verb's output is then predicted
from membership alone and `judge` compares a job's exit code and JSON
output with that prediction.
"""

from __future__ import annotations

import json
import math


class Mismatch(Exception):
    """A job's exit code or output differs from the reference."""


def _expect(ok, what):
    if not ok:
        raise Mismatch(what)


# ---------------------------------------------------------------- one point

def closure(generators, bound):
    """Membership indicator of the monoid generated by `generators` on
    [0, bound], by breadth-first closure from 0."""
    member = bytearray(bound + 1)
    member[0] = 1
    for n in range(bound + 1):
        if member[n]:
            for g in generators:
                if n + g <= bound:
                    member[n + g] = 1
    return member


def conductor_bound(generators):
    """Schur's bound (a - 1)(z - 1) on the conductor, with a, z the least
    and largest generator, plus a so that the sieve ends in a run of a
    members."""
    gens = sorted(generators)
    return (gens[0] - 1) * (gens[-1] - 1) + gens[0]


def running_gcds(r):
    theta = [r[0]]
    acc = 0
    for x in r:
        acc = math.gcd(acc, x)
        theta.append(acc)
    return theta


class OnePointRef:
    """Membership of <generators> plus `extras`, and every one-point
    answer derived from it.  `base` is the same semigroup without the
    extras (the delta product's semigroup)."""

    def __init__(self, generators, extras=()):
        self.generators = sorted(set(generators))
        self.extras = sorted(set(extras))
        bound = conductor_bound(self.generators) + \
            (self.extras[-1] if self.extras else 0)
        self.bound = bound
        self.base = closure(self.generators, bound)
        self.member = closure(self.generators + self.extras, bound) \
            if self.extras else self.base
        self.conductor = self._conductor(self.member)
        self.base_conductor = self._conductor(self.base)
        c = self.conductor
        self.gaps = [n for n in range(c) if not self.member[n]]
        self.genus = len(self.gaps)
        self.symmetry_witnesses = [
            n for n in range(c) if self.member[n] == self.member[c - 1 - n]]
        self.symmetric = not self.symmetry_witnesses

    @staticmethod
    def _conductor(member):
        for n in range(len(member) - 1, -1, -1):
            if not member[n]:
                return n + 1
        return 0

    def contains(self, n, base=False):
        member = self.base if base else self.member
        if n < 0:
            return False
        return n >= len(member) or bool(member[n])

    def indicator(self, lo, hi, base=False):
        return [int(self.contains(n, base)) for n in range(lo, hi + 1)]

    def closed_under_extras(self):
        """The extras are gaps of the base and add no further members."""
        return all(not self.base[e] for e in self.extras) and all(
            bool(self.member[n]) == (bool(self.base[n]) or n in self.extras)
            for n in range(self.bound + 1))

    def l_poly_terms(self):
        """(1 - t) * sum_{n in S, n < c} t^n + t^c as sorted (e, c)."""
        coeffs = {}
        for n in range(self.conductor):
            if self.member[n]:
                coeffs[n] = coeffs.get(n, 0) + 1
                coeffs[n + 1] = coeffs.get(n + 1, 0) - 1
        c = self.conductor
        coeffs[c] = coeffs.get(c, 0) + 1
        return sorted((e, v) for e, v in coeffs.items() if v)

    def modes_first_difference(self):
        """First n in [0, c + max(extras) + 10] where the finite sum of
        extras differs from the extras' correction product, else None."""
        if not self.extras:
            return None
        hi = self.conductor + self.extras[-1] + 10
        reps = [0] * (hi + 1)
        reps[0] = 1
        for e in self.extras:
            for n in range(e, hi + 1):
                reps[n] += reps[n - e]
        for n in range(hi + 1):
            if reps[n] - (n == 0) != int(n in self.extras):
                return n
        return None


def expand_series(obj, lo, hi):
    """Coefficients of a one-variable series JSON on [lo, hi]: the
    numerator times the prefix-sum expansion of each 1/(1 - t^v)."""
    _expect(isinstance(obj, dict) and set(obj) >= {"num", "den"},
            "series without num/den")
    coeffs = [0] * (hi - lo + 1)
    for term in obj["num"]:
        (e,) = term["e"]
        if e < lo:
            raise Mismatch(f"numerator term t^{e} below the window")
        if e <= hi:
            coeffs[e - lo] += term["c"]
    for (v,) in obj["den"]:
        _expect(isinstance(v, int) and v > 0, f"bad denominator {v}")
        for i in range(v, len(coeffs)):
            coeffs[i] += coeffs[i - v]
    return coeffs


def check_series_indicator(obj, ref, base=False):
    """The series expands to the membership indicator past the conductor,
    the numerator's degree and one more period of every factor."""
    top = max([abs(t["e"][0]) for t in obj["num"]] + [0])
    den = max([v[0] for v in obj["den"]] + [1])
    c = ref.base_conductor if base else ref.conductor
    hi = max(c, top) + den + 1
    _expect(expand_series(obj, 0, hi) == ref.indicator(0, hi, base),
            "series does not expand to the membership indicator")


# ---------------------------------------------------------------- two points

def ell(family, period, m):
    """Riemann-Roch dimension for the toy fixtures (projective line,
    elliptic curve with P1 - P2 of order `period`)."""
    s = m[0] + m[1]
    if family == "projective_line":
        return s + 1 if s >= 0 else 0
    if s >= 1:
        return s
    if s == 0 and m[0] % period == 0:
        return 1
    return 0


def d_oracle(family, period, m):
    return ell(family, period, m) - ell(family, period, (m[0] - 1, m[1] - 1))


def fixture_rows(family, period):
    genus = 0 if family == "projective_line" else 1

    def member(m):
        here = ell(family, period, m)
        return (here - ell(family, period, (m[0] - 1, m[1])) == 1 and
                here - ell(family, period, (m[0], m[1] - 1)) == 1)

    return genus, [[member((a, s - a)) for a in range(period)]
                   for s in range(2 * genus)]


def members_rows(genus, period, gens):
    """Strip of the additive closure of the generators and the origin.

    Level s holds the residues a with (s, a) a member class, as a bit
    mask.  A class of level s > 0 is a generator, a sum of two classes
    of positive lower levels, or a level-0 class plus a level-s one."""
    full = (1 << period) - 1

    def rotate(mask, k):
        k %= period
        return ((mask << k) | (mask >> (period - k))) & full if k else mask

    def add(m1, m2):
        out, a = 0, 0
        while m1:
            if m1 & 1:
                out |= rotate(m2, a)
            m1 >>= 1
            a += 1
        return out

    levels = [0] * (2 * genus)
    if genus:
        levels[0] = 1
    for m1, m2 in gens:
        s = m1 + m2
        if 0 <= s < 2 * genus:
            levels[s] |= 1 << (m1 % period)
    for s in range(2 * genus):
        mask = levels[s]
        for s1 in range(1, s):
            mask |= add(levels[s1], levels[s - s1])
        while True:
            grown = mask | add(levels[0] if s else mask, mask)
            if grown == mask:
                break
            mask = grown
        levels[s] = mask
    return [[bool(levels[s] >> a & 1) for a in range(period)]
            for s in range(2 * genus)]


def strip_closed(genus, period, rows):
    """Every pair of member classes sums to a member class or past 2g."""
    members = [(s, a) for s in range(2 * genus) for a in range(period)
               if rows[s][a]]
    return all(s1 + s2 >= 2 * genus or rows[s1 + s2][(a1 + a2) % period]
               for s1, a1 in members for s2, a2 in members)


class TwoPointRef:
    """Membership on the strip and every two-point answer derived from it.

    colmin[a] is the least coordinate sum of a member in a column with
    m1 = a (mod period), rowmin[b] the same for a row with m2 = b; both
    are at most 2g, since every point of sum >= 2g is a member.  They are
    found by scanning the strip, so each query below is a direct reading
    of membership along one line."""

    def __init__(self, genus, period, rows, fixture=None):
        self.genus, self.period, self.rows = genus, period, rows
        self.fixture = fixture
        top = 2 * genus
        self.colmin = [next((s for s in range(top) if rows[s][a]), top)
                       for a in range(period)]
        self.rowmin = [next((s for s in range(top)
                             if rows[s][(s - b) % period]), top)
                       for b in range(period)]
        self.gap_classes = sum(not x for row in rows for x in row)
        self.corner = sorted(
            (m1, s - m1) for m1 in range(1, period + 1)
            for s in range(top + 1) if self.maximal((m1, s - m1)))
        b = 2 * genus + 2 * period + 2
        self.window = ((-b, b), (-b, b))
        self.sigma = self._sigma()
        self.symmetry_witnesses = self._symmetry_witnesses(self.window)
        self.symmetric = self.sigma is not None and \
            not self.symmetry_witnesses

    def contains(self, m):
        s = m[0] + m[1]
        if s < 0:
            return False
        return s >= 2 * self.genus or self.rows[s][m[0] % self.period]

    def col_reaches(self, m1, smax):
        """A member (m1, y) with m1 + y <= smax exists."""
        return smax >= 0 and self.colmin[m1 % self.period] <= smax

    def row_reaches(self, m2, smax):
        return smax >= 0 and self.rowmin[m2 % self.period] <= smax

    def maximal(self, m):
        return self.contains(m) and self.nabla_empty(m)

    def nabla_empty(self, m):
        """No member strictly below m on its column or on its row."""
        s = m[0] + m[1]
        return not self.col_reaches(m[0], s - 1) and \
            not self.row_reaches(m[1], s - 1)

    def dim_jump(self, m):
        s = m[0] + m[1]
        return int(self.col_reaches(m[0], s)) + \
            int(self.row_reaches(m[1], s - 1))

    def dim_nabla(self, m):
        if not self.contains(m):
            return 0
        return 1 if self.maximal(m) else 2

    def euler_c(self, m):
        d = self.dim_jump
        m1, m2 = m
        return d(m) - d((m1 - 1, m2)) - d((m1, m2 - 1)) + \
            d((m1 - 1, m2 - 1))

    def maximal_count(self, m):
        """Maximal points p <= m not <= m - (1,1): the one candidate on
        column m1 and the one on row m2 strictly left of m."""
        m1, m2 = m
        col = self.colmin[m1 % self.period]
        row = self.rowmin[m2 % self.period]
        return int(col - m1 <= m2 and self.maximal((m1, col - m1))) + \
            int(row - m2 < m1 and self.maximal((row - m2, m2)))

    def normalize(self, p):
        k = (p[0] - 1) % self.period + 1
        lam = (k - p[0]) // self.period
        return (k, p[1] - lam * self.period)

    def _sigma(self):
        corner = set(self.corner)
        for cand in self.corner:
            if sum(cand) != 2 * self.genus:
                continue
            if all(self.normalize((cand[0] - p[0], cand[1] - p[1])) in corner
                   for p in self.corner):
                return cand
        return None

    def _symmetry_witnesses(self, box):
        if self.sigma is None:
            return []
        s1, s2 = self.sigma
        return [n for n in points(box)
                if self.contains(n) != self.nabla_empty((s1 - n[0], s2 - n[1]))]

    def maximals_in(self, box):
        return [m for m in points(box) if self.maximal(m)]

    def dim_jump_table(self):
        (lo1, hi1), (lo2, hi2) = self.window
        return [[self.dim_jump((m1, m2)) for m2 in range(lo2, hi2 + 1)]
                for m1 in range(lo1, hi1 + 1)]

    def corner_numerator(self):
        """(1 - t1 t2) * sum of t^m over the corner maximals."""
        coeffs = {}
        for m1, m2 in self.corner:
            coeffs[(m1, m2)] = coeffs.get((m1, m2), 0) + 1
            coeffs[(m1 + 1, m2 + 1)] = coeffs.get((m1 + 1, m2 + 1), 0) - 1
        return sorted((e, c) for e, c in coeffs.items() if c)

    def checks(self):
        """Expected (name, passed, witnesses, details) of `verify --check
        all` on the default window, in the CLI's order."""
        region = tuple((lo + 2, hi - 2) for lo, hi in self.window)
        pts = list(points(region))
        out = [("closure", True, [], {})]

        c_prop, stray = [], []
        for m in pts:
            c = self.euler_c(m)
            prev_max = self.maximal((m[0] - 1, m[1] - 1))
            here_max = self.maximal(m)
            if (c == -1) != prev_max or (c == 1) != here_max:
                c_prop.append(m)
                if not (prev_max and here_max):
                    stray.append(m)
        out.append(("c_prop", not c_prop, c_prop,
                    {"violations_both_maximal": not stray}))

        c_identity = [m for m in pts if self.euler_c(m) != int(
            self.maximal(m)) - int(self.maximal((m[0] - 1, m[1] - 1)))]
        out.append(("c_identity", not c_identity, c_identity, {}))

        count = len(self.maximals_in(region))
        out.append(("corner_translates", True, [],
                    {"scanned": count, "translates": count}))

        lemma4 = [m for m in pts if m[0] > 0 and m[1] > 0
                  and self.col_reaches(m[0], m[0])
                  and self.row_reaches(m[1], m[1]) and self.dim_jump(m) != 2]
        out.append(("lemma4", not lemma4, lemma4, {}))

        d_agree = [m for m in pts if self.dim_jump(m) != self.dim_nabla(m)]
        out.append(("d_agreement", not d_agree, d_agree, {}))

        sym = self._symmetry_witnesses(region)
        out.append(("symmetry", self.sigma is not None and not sym, sym,
                    {"sigma": self.sigma}))

        if self.sigma is None:
            out.append(("funceq", False, [], {"sigma": None}))
        else:
            s1, s2 = self.sigma
            funceq = []
            for m in pts:
                refl = (s1 - m[0], s2 - m[1])
                cmax = int(self.maximal(m)) - \
                    int(self.maximal((m[0] - 1, m[1] - 1)))
                cref = int(self.maximal((refl[0] + 1, refl[1] + 1))) - \
                    int(self.maximal(refl))
                if self.maximal_count(m) + self.maximal_count(refl) != 2 \
                        or cmax != -cref:
                    funceq.append(m)
            out.append(("funceq", not funceq, funceq,
                        {"sigma": self.sigma}))

        if self.fixture is not None:
            family, period = self.fixture
            oracle = [m for m in pts
                      if self.dim_jump(m) != d_oracle(family, period, m)]
            out.append(("oracle", not oracle, oracle,
                        {"family": family, "period": period}))
        return region, out


def points(box):
    (lo1, hi1), (lo2, hi2) = box
    return ((m1, m2) for m1 in range(lo1, hi1 + 1)
            for m2 in range(lo2, hi2 + 1))


def reference_for(inp):
    """The reference object of one input JSON object."""
    kind = inp["kind"]
    if kind == "numerical":
        return OnePointRef(inp["generators"])
    if kind == "delta":
        return OnePointRef(inp["r"], inp.get("extras", ()))
    if kind == "fixture":
        period = inp.get("period", 1)
        genus, rows = fixture_rows(inp["name"], period)
        return TwoPointRef(genus, period, rows, (inp["name"], period))
    if kind == "two_point":
        return TwoPointRef(inp["genus"], inp["period"], members_rows(
            inp["genus"], inp["period"], inp["members"]))
    if kind == "two_point_strip":
        return TwoPointRef(inp["genus"], inp["period"], inp["strip"])
    raise ValueError(f"unknown input kind {kind!r}")


# ---------------------------------------------------------------- judging

def _pairs(points_):
    return [list(p) for p in points_]


def _judge_onepoint(inp, ref, verb, args, code, out):
    kind = inp["kind"]
    c = ref.conductor
    if verb == "validate":
        _expect(code == 0 and out == {"ok": True, "kind": kind}, "validate")
    elif verb == "analyze":
        _expect(code == 0, f"analyze exit {code}")
        want = {"kind": kind, "conductor": c, "genus": ref.genus,
                "gaps": ref.gaps, "symmetric": ref.symmetric}
        if kind == "numerical":
            want["generators"] = ref.generators
        else:
            r = inp["r"]
            theta = running_gcds(r)
            first = ref.modes_first_difference()
            want.update({
                "r": r, "theta": theta,
                "d": [theta[i] // theta[i + 1] for i in range(1, len(r))],
                "extras": ref.extras,
                "series_modes_agree": first is None,
                "series_first_difference": first})
        for key, value in want.items():
            _expect(out.get(key) == value, f"analyze {key}")
    elif verb == "poincare":
        _expect(code == 0, f"poincare exit {code}")
        closed = "closed" in args
        check_series_indicator(out, ref, base=closed)
    elif verb == "expand":
        hi = max(3 * c, 8)
        _expect(code == 0 and out.get("window") == [[0, hi]],
                "expand window")
        _expect(out.get("coefficients") == ref.indicator(0, hi),
                "expand coefficients differ from the membership indicator")
    elif verb == "verify":
        _judge_onepoint_verify(inp, ref, args, code, out)
    else:
        raise Mismatch(f"verb {verb} on a one-point input")


def _judge_onepoint_verify(inp, ref, args, code, out):
    check = args[args.index("--check") + 1]
    # every one-point check passes exactly on symmetric inputs
    passed = ref.symmetric
    if check == "all":
        names = ["indicator", "l_identity"]
        if inp["kind"] == "delta":
            names.append("delta_product")
        names += ["symmetry", "funceq"]
        reports = out.get("checks", [])
        _expect(out.get("pass") is passed, "overall pass")
    else:
        names = [check]
        reports = [out]
    _expect(code == (0 if passed else 1), f"verify exit {code}")
    _expect([r.get("check") for r in reports] == names, "check names")
    c = ref.conductor
    for rep in reports:
        name = rep["check"]
        if name == "indicator":
            _expect(rep["pass"] is True and rep["witnesses"] == [] and
                    rep["window"] == [[0, max(3 * c, 8)]], "indicator")
            check_series_indicator(rep["series"], ref)
        elif name == "l_identity":
            _expect(rep["pass"] is True and rep["witnesses"] == [],
                    "l_identity")
            terms = [(t["e"][0], t["c"]) for t in rep["series"]["num"]]
            _expect(terms == ref.l_poly_terms() and
                    rep["series"]["den"] == [], "l_identity polynomial")
        elif name == "delta_product":
            _expect(rep["pass"] is True and rep["witnesses"] == [] and
                    rep["window"] == [[0, max(2 * ref.base_conductor, 8)]],
                    "delta_product")
            check_series_indicator(rep["series"], ref, base=True)
        elif name == "symmetry":
            _expect(rep["pass"] is ref.symmetric and
                    rep["witnesses"] == ref.symmetry_witnesses,
                    "symmetry witnesses")
            _expect(rep["details"].get("conductor") == c and
                    rep["details"].get("genus") == ref.genus,
                    "symmetry details")
            check_series_indicator(rep["series"], ref)
        elif name == "funceq":
            if ref.symmetric:
                details = rep["details"]
                _expect(rep["pass"] is True and rep["witnesses"] == [] and
                        details.get("eps_l") == 1 and
                        details.get("eps_p") == -1 and
                        details.get("genus") == ref.genus,
                        "funceq signs (eps_l, eps_p) != (+1, -1)")
            else:
                _expect(rep["pass"] is False and
                        rep["witnesses"] == ref.symmetry_witnesses and
                        rep["details"].get("symmetric") is False,
                        "funceq on a non-symmetric input")


def _judge_twopoint(inp, ref, verb, args, code, out):
    window = [list(b) for b in ref.window]
    if verb == "validate":
        _expect(code == 0 and out == {"ok": True, "kind": inp["kind"]},
                "validate")
    elif verb == "analyze":
        _expect(code == 0, f"analyze exit {code}")
        want = {"kind": inp["kind"], "genus": ref.genus,
                "period": ref.period, "gap_classes": ref.gap_classes,
                "corner_maximals": _pairs(ref.corner),
                "sigma": list(ref.sigma) if ref.sigma else None,
                "symmetric": ref.symmetric}
        if ref.fixture is not None:
            want["family"] = ref.fixture[0]
        for key, value in want.items():
            _expect(out.get(key) == value, f"analyze {key}")
    elif verb == "maximals":
        _expect(code == 0 and out.get("window") == window, "maximals window")
        _expect(out.get("maximals") == _pairs(ref.maximals_in(ref.window)),
                "maximal points")
    elif verb == "poincare":
        _expect(code == 0 and out.get("den") == [[0, 1], [1, 0]],
                "corner series denominator")
        terms = [(tuple(t["e"]), t["c"]) for t in out.get("num", [])]
        _expect(terms == ref.corner_numerator(), "corner series numerator")
    elif verb == "expand":
        _expect(code == 0 and out.get("window") == window, "expand window")
        _expect(out.get("dim_jump") == ref.dim_jump_table(),
                "dim_jump table")
    elif verb == "verify":
        region, want = ref.checks()
        passed = all(w[1] for w in want)
        _expect(code == (0 if passed else 1), f"verify exit {code}")
        _expect(out.get("pass") is passed, "overall pass")
        reports = out.get("checks", [])
        _expect([r.get("check") for r in reports] == [w[0] for w in want],
                "check names")
        scan = [list(b) for b in region]
        for rep, (name, ok, witnesses, details) in zip(reports, want):
            _expect(rep["pass"] is ok, f"{name} pass")
            _expect(rep["witnesses"] == _pairs(witnesses),
                    f"{name} witnesses")
            _expect(rep.get("window") == window and
                    rep["details"].get("scan") == scan, f"{name} window")
            for key, value in details.items():
                value = list(value) if isinstance(value, tuple) else value
                _expect(rep["details"].get(key) == value, f"{name} {key}")
    else:
        raise Mismatch(f"verb {verb} on a two-point input")


def judge(inp, ref, verb, args, code, text):
    """Raise Mismatch unless (code, text) is the reference answer."""
    _expect(code in (0, 1), f"exit code {code}")
    try:
        out = json.loads(text)
    except ValueError as exc:
        raise Mismatch(f"output is not JSON: {exc}") from None
    try:
        if isinstance(ref, OnePointRef):
            _judge_onepoint(inp, ref, verb, args, code, out)
        else:
            _judge_twopoint(inp, ref, verb, args, code, out)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise Mismatch(f"malformed output: {exc!r}") from None
