"""Seeded inputs and job lists of the three benchmark workloads.

A workload is a fixed list of inputs and, per input, the CLI verbs run on
it.  The seed picks the inputs; every input of a given slot has nearly
the same size on every seed (conductors within a few per cent of a
target, fixed genus and period), so one pass costs about the same
whatever the seed.  See README.md for the make-up of each workload.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass

from reference import (
    OnePointRef,
    TwoPointRef,
    members_rows,
    running_gcds,
)

WORKLOADS = ("onepoint-series", "onepoint-large", "twopoint-scan")

VALIDATE = ("validate",)
ANALYZE = ("analyze",)
POINCARE = ("poincare",)
CLOSED = ("poincare", "--form", "closed")
EXPAND = ("expand",)
MAXIMALS = ("maximals",)
VERIFY_ALL = ("verify", "--check", "all")
VERIFY_SYMMETRY = ("verify", "--check", "symmetry")


@dataclass(frozen=True)
class Job:
    """One CLI call: `wsemigroups <verb> <input file> --json <args>`."""

    input: str
    verb: str
    args: tuple = ()

    def argv(self, path):
        return [self.verb, path, "--json", *self.args]


@dataclass
class Workload:
    name: str
    inputs: dict
    jobs: list


# ---------------------------------------------------------------- one point

def _draw_until(draw, accept, what, tries=100_000):
    for _ in range(tries):
        cand = draw()
        if cand is not None and accept(cand):
            return cand
    raise RuntimeError(f"no input found: {what}")


def _close(value, target, tolerance):
    return target is None or abs(value - target) <= tolerance * target


def profile(gens):
    """Conductor, genus and the number of terms of the direct series'
    numerator (1 - t) sum_{n in S, n < c} t^n + t^c, from the least member
    of each residue class mod the multiplicity (Dijkstra over Z/a).  Used
    only to size inputs: expand and the series checks cost about
    (window points) x (numerator terms)."""
    a = min(gens)
    least = [None] * a
    heap = [(0, 0)]
    while heap:
        n, r = heapq.heappop(heap)
        if least[r] is not None:
            continue
        least[r] = n
        for g in gens:
            if least[(n + g) % a] is None:
                heapq.heappush(heap, (n + g, (n + g) % a))
    conductor = max(least) - a + 1
    terms, before = 1, False
    for n in range(conductor):
        here = n >= least[n % a]
        terms += here != before
        before = here
    return conductor, sum(n // a for n in least), terms


def two_generators(rng, target, terms=None):
    """<a, b>, coprime, drawn from all pairs with conductor (a-1)(b-1)
    within 3% of `target` and numerator terms within 10% of `terms`;
    always symmetric, and always a delta sequence."""
    cands = []
    for a in range(3, math.isqrt(target) + 1):
        lo = math.ceil(0.97 * target / (a - 1)) + 1
        hi = math.floor(1.03 * target / (a - 1)) + 1
        cands.extend([a, b] for b in range(max(a + 1, lo), hi + 1)
                     if math.gcd(a, b) == 1 and
                     _close(profile([a, b])[2] if terms else 0, terms, 0.1))
    if not cands:
        raise RuntimeError(f"no <a, b> near c = {target}, {terms} terms")
    return rng.choice(cands)


def three_generators(rng, target, terms=None):
    """<a, b, c>, gcd 1, not symmetric, conductor within 2% of `target`
    and numerator terms within 10% of `terms`."""
    a0 = max(3, round(0.9 * target ** 0.6))

    def draw():
        a = rng.randint(a0, a0 + a0 // 4)
        b, c = sorted(rng.sample(range(a + 1, 2 * a), 2))
        return [a, b, c] if math.gcd(a, b, c) == 1 else None

    def accept(g):
        c, genus, n = profile(g)
        return c != 2 * genus and _close(c, target, 0.02) and \
            _close(n, terms, 0.1)

    return _draw_until(draw, accept, f"<a, b, c> near c = {target}")


def free_conductor(r):
    """Conductor of a delta sequence: sum (d_i - 1) r_i - r_0 + 1."""
    theta = running_gcds(r)
    return sum((theta[i] // theta[i + 1] - 1) * r[i]
               for i in range(1, len(r))) - r[0] + 1


def delta_sequence(rng, target, d):
    """A delta sequence r with descent quotients d and d_i r_i in
    <r_0, ..., r_{i-1}> (so every member has exactly one representation),
    conductor close to target.  The last entry, which dominates the
    conductor, is solved for."""
    def draw():
        theta = [math.prod(d[i:]) for i in range(len(d) + 1)]
        r = [theta[0]]
        for i, di in enumerate(d):
            # u past the conductor of the scaled prefix puts
            # d_i r_i = theta_i u inside <r_0, ..., r_{i-1}>
            floor = max(1, free_conductor([x // theta[i] for x in r])
                        if i else 1)
            if i < len(d) - 1:
                top = target // (2 * len(d) * (di - 1) * theta[i + 1])
                u = rng.randint(floor, max(floor, top))
            else:
                rest = sum((d[j] - 1) * r[j + 1] for j in range(i))
                u = (target + r[0] - 1 - rest) // (di - 1)
                if u < floor:
                    return None
            while math.gcd(u, di) != 1:
                u += 1
            r.append(theta[i + 1] * u)
        return r

    return _draw_until(draw, lambda r: _close(free_conductor(r), target, 0.03),
                       f"delta sequence near c = {target}")


def extra_members(r, count=2):
    """F, F - m, ..., F - (count-1) m for the Frobenius number F and the
    multiplicity m of the symmetric semigroup <r>: gaps whose union with
    <r> stays closed, since F - j m + s is a gap only for s in {0, m, ...}.
    Checked by the reference closure."""
    base = OnePointRef(r)
    frob = base.conductor - 1
    m = min(r)
    extras = [frob - j * m for j in range(count - 1, -1, -1)]
    if not OnePointRef(r, extras).closed_under_extras():
        raise RuntimeError(f"extras {extras} of {r} are not closed")
    return extras


def _onepoint_inputs(rng, plan):
    inputs = {}
    for name, (form, target, *shape) in plan.items():
        if form == "two":
            inputs[name] = {"kind": "numerical",
                            "generators": two_generators(rng, target, *shape)}
        elif form == "three":
            inputs[name] = {"kind": "numerical", "generators":
                            three_generators(rng, target, *shape)}
        else:
            r = delta_sequence(rng, target, shape)
            inp = {"kind": "delta", "r": r}
            if form == "delta+extras":
                inp["extras"] = extra_members(r)
            inputs[name] = inp
    return inputs


def onepoint_series(rng):
    plan = {
        # (form, conductor, numerator terms); terms near the median of
        # each slot's draws, so the cost of a slot hardly depends on the seed
        "sym-120": ("two", 120, 75), "sym-260": ("two", 260, 130),
        "sym-400": ("two", 400, 200),
        "nonsym-150": ("three", 150, 57), "nonsym-300": ("three", 300, 95),
        # (form, conductor, descent quotients d_1, ..., d_h)
        "delta-250": ("delta", 250, 2, 2, 2),
        "delta-500": ("delta", 500, 3, 2),
        "delta-extras-250": ("delta+extras", 250, 2, 2, 2),
    }
    inputs = _onepoint_inputs(rng, plan)
    jobs = []
    for name, inp in inputs.items():
        closed = [CLOSED] if plan[name][0] != "three" else []
        for verb in [VALIDATE, ANALYZE, POINCARE, *closed, EXPAND,
                     VERIFY_ALL]:
            jobs.append(Job(name, verb[0], verb[1:]))
    return inputs, jobs


def onepoint_large(rng):
    plan = {
        # verbs here cost O(c) whatever the numerator, so only c is fixed
        "sym-12k": ("two", 12_000), "sym-30k": ("two", 30_000),
        "nonsym-15k": ("three", 15_000),
        "delta-6k": ("delta", 6_000, 2, 2, 3),
        "delta-extras-1500": ("delta+extras", 1_500, 2, 3),
    }
    inputs = _onepoint_inputs(rng, plan)
    # the ROADMAP's largest rung, c = 1,004,004, seed-independent
    inputs["sym-1m"] = {"kind": "numerical", "generators": [997, 1009]}
    jobs = []
    for name, inp in inputs.items():
        if name == "sym-1m":
            verbs = [VALIDATE, ANALYZE]
        else:
            verbs = [VALIDATE, ANALYZE, POINCARE, VERIFY_SYMMETRY]
            if inp["kind"] == "delta":
                verbs.append(EXPAND)
        jobs.extend(Job(name, v[0], v[1:]) for v in verbs)
    return inputs, jobs


# ---------------------------------------------------------------- two points

def random_members(rng, genus, period, count):
    gens = []
    for _ in range(count):
        s = rng.randint(max(1, genus // 2), max(1, genus))
        m1 = rng.randint(-period, period)
        gens.append([m1, s - m1])
    return gens


def nonsymmetric(rng, genus, period, count=3):
    while True:
        gens = random_members(rng, genus, period, count)
        rows = members_rows(genus, period, gens)
        if not TwoPointRef(genus, period, rows).symmetric:
            return gens, rows


def symmetric(rng, genus):
    """Seeded search among period-2 generator sets; the reference's own
    symmetry test decides."""
    while True:
        gens = random_members(rng, genus, 2, rng.randint(1, 3))
        if rng.random() < 0.5:
            m1 = 2 * rng.randint(-2, 2)
            gens.append([m1, 2 - m1])
        rows = members_rows(genus, 2, gens)
        if TwoPointRef(genus, 2, rows).symmetric:
            return gens, rows


def twopoint_scan(rng):
    inputs = {
        "projective-line": {"kind": "fixture", "name": "projective_line"},
        "elliptic-1": {"kind": "fixture", "name": "elliptic", "period": 1},
        "elliptic-2": {"kind": "fixture", "name": "elliptic", "period": 2},
        "elliptic-3": {"kind": "fixture", "name": "elliptic", "period": 3},
    }
    for name, (genus, period, as_strip) in {
            "small-3x4": (3, 4, False), "small-4x5": (4, 5, True),
            "mid-8x9": (8, 9, False), "mid-10x12": (10, 12, True),
            "large-16x20": (16, 20, True), "large-20x25": (20, 25, True),
            "large-30x30": (30, 30, False)}.items():
        gens, rows = nonsymmetric(rng, genus, period)
        inputs[name] = _twopoint_input(genus, period, gens, rows, as_strip)
    for name, (genus, as_strip) in {
            "sym-6x2": (6, False), "sym-12x2": (12, True)}.items():
        gens, rows = symmetric(rng, genus)
        inputs[name] = _twopoint_input(genus, 2, gens, rows, as_strip)
    jobs = []
    for name in inputs:
        verbs = [ANALYZE, MAXIMALS, POINCARE, EXPAND]
        if name not in ("mid-10x12", "large-20x25", "large-30x30"):
            verbs.append(VERIFY_ALL)
        jobs.extend(Job(name, v[0], v[1:]) for v in verbs)
    return inputs, jobs


def _twopoint_input(genus, period, gens, rows, as_strip):
    if as_strip:
        return {"kind": "two_point_strip", "genus": genus, "period": period,
                "strip": rows}
    return {"kind": "two_point", "genus": genus, "period": period,
            "members": gens}


BUILDERS = {
    "onepoint-series": onepoint_series,
    "onepoint-large": onepoint_large,
    "twopoint-scan": twopoint_scan,
}


def build(name, seed):
    """The inputs and jobs of workload `name` for `seed`."""
    rng = random.Random(f"{name}:{seed}")
    inputs, jobs = BUILDERS[name](rng)
    return Workload(name, inputs, jobs)
