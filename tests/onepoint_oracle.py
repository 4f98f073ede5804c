"""Slow reference constructions of one-point semigroups, kept as test oracles.

`closure_sieve` fills a membership table on [0, bound] straight from
closure under addition.  `sieved` reads the conductor off such a table
on [0, a * b], a and b the least and largest generators: by Schur's
bound the conductor is at most (a - 1)(b - 1), so the table ends in a
run of at least a members, after which every integer is a member.  It
costs O(a * b * k) Python steps for k generators, which is why
`NumericalSemigroup` works from its Apery set instead; the property
tests in test_onepoint.py check the two against each other.

`representation_counts` counts the representations of a delta sequence
literally, by looping over every admissible coefficient tuple.
`DeltaSequence` reads the same counts off the expansion of the delta
product.

`l_identity_by_cross_multiplication` and `signs_by_cross_multiplication`
decide the `l_identity` check and the functional-equation signs on the
direct series, whose numerator has O(c) terms, by `RationalGF.equals`,
which cross-multiplies sparse polynomials.  The library decides both on
the Apery form, with a numerator terms, instead; test_onepoint.py checks
the two against each other.

`l_identity_by_dict_loop` is the `l_identity` check as the library
decided it on L's terms: it builds L (1 - t^a) by moving each term of
the L-polynomial up by a in a Python loop over a dict, and compares it
with (1 - t) times the Apery form's numerator.  The library decides the
same identity as one equality of sorted exponent lists read off
`l_jumps`; test_onepoint.py checks the two reports equal.

`indicator_report_by_expansion` builds the `indicator` and
`delta_product` reports by expanding the series on the window and
comparing it with the membership bytes point by point.
`indicator_report_by_division` is those reports as the library built
them before it read them off what its constructors prove: it first
divides the series' numerator down to the Apery form
(`reduces_to_apery_form`) and passes a series that reduces to it with
nothing expanded, and expands any other.  test_onepoint.py checks the
library's reports against the first, and the first two against each
other on seeded, perturbed and unreducible series.

`l_polynomial_by_mask` reads the L-polynomial's run starts and ends off
the membership mask on [0, c] with `bytearray.find`; the library reads
them off the Apery table, one range per residue class.

`indicator_by_direct_series`, `symmetry_by_direct_series` and
`funceq_by_direct_series` build those reports as they were built before
they carried the Apery form: the indicator expands `direct_series`, the
symmetry report carries `poincare_direct` and a symmetric funceq report
the L-polynomial, with its signs decided by cross-multiplication.
The library builds all of them from `apery_series`; test_onepoint.py
checks that the series agree in value (the funceq one times 1 - t) and
all else is identical.

`expand_stdout_by_series` is the one-point `expand` output as it was
printed from the expansion of a series of P, `direct_series` and later
`apery_series`: one Python int per window point, through the JSON
encoder or one f-string line each.  The CLI now prints the window's
membership bytes (`indicator(window)`) as digits; test_onepoint.py
checks the renderings byte for byte.

`expand_lines_per_point` is the text of one-point `expand` as the CLI
rendered it from those digits, one f-string per line; the CLI now
renders a block of 1000 values per Python-level step.

`gaps_json_by_blocks` and `direct_json_by_pairs` are the gap list of
`analyze` and the direct form of a numerical `poincare` as the CLI
rendered them before both were read off selector bytes: the first joined
the padded low parts of each block of 1000 gaps, the second joined the
decimal strings of `l_jumps` in (start, end) pairs, one join per sign.
The CLI now renders the gap mask, and `jump_mask()` where the jumps are
dense in [0, c], through one renderer, `cli._decimal_parts`; test_cli.py
checks the bytes against both.

`symmetry_witnesses_by_scan` lists the symmetry witnesses by comparing
the membership mask on [0, c) with its reverse, an O(c) walk; the
library reads them off the Apery table, two ranges per residue class.

`base_plus_extras_mask` and `base_or_extra` are the membership of a
one-point semigroup as it was read before it shared the Apery-set class:
the base's mask with the extras set, and "in the base or an extra".

`paper_product_by_addition` is the published product: the delta
product plus the correction prod_j 1/(1 - t^{s_j}) - 1 over the extras,
added by `RationalGF.__add__`.  It is the only builder of that product,
since the library no longer has it; it exceeds P at n by the number of
ways to write n as a sum of two or more extras.
`series_modes_by_expansion` finds the first point where it and
`poincare_onepoint` differ by expanding both on
[0, c + max(extras) + 10]; the library's `series_first_difference`
reads that point off the extras in closed form.

`l_polynomial_paper` is the published display of the L-polynomial,
kept verbatim, and `l_polynomial_comparison` sets it beside the
library's L-polynomial with their difference.
"""

import itertools
import json
import operator
from dataclasses import dataclass

from wsemigroups import LaurentPoly, RationalGF, VerificationReport, Window
from wsemigroups.onepoint import (_matching_sign, apery_series,
                                  direct_series, l_polynomial,
                                  poincare_delta_product, poincare_direct,
                                  poincare_onepoint)

_ONE_MINUS_T = LaurentPoly({(0,): 1, (1,): -1})


def closure_sieve(gens, bound):
    """Reference membership table, independent of NumericalSemigroup."""
    member = [False] * (bound + 1)
    member[0] = True
    for n in range(1, bound + 1):
        member[n] = any(n >= g and member[n - g] for g in gens)
    return member


def sieved(gens):
    """(member, conductor) for <gens> (gcd 1), where member is the
    closure table on [0, min(gens) * max(gens)]."""
    bound = min(gens) * max(gens)
    member = closure_sieve(gens, bound)
    conductor = next((n + 1 for n in range(bound, -1, -1) if not member[n]), 0)
    # a run of min(gens) members certifies that no gap lies beyond
    assert bound + 1 - conductor >= min(gens)
    return member, conductor


def representation_counts(r, d, bound):
    """counts[n] = number of ways to write n <= bound as
    a_0 r_0 + sum_i a_i r_i with a_0 >= 0 and 0 <= a_i < d_i."""
    counts = [0] * (bound + 1)
    for rest in itertools.product(*[range(di) for di in d]):
        base = sum(a * ri for a, ri in zip(rest, r[1:]))
        if base > bound:
            continue
        for a0 in range((bound - base) // r[0] + 1):
            counts[base + a0 * r[0]] += 1
    return counts


def l_identity_by_cross_multiplication(semigroup):
    """The l_identity report: (1 - t) times the direct series `equals`
    the L-polynomial."""
    lpoly = RationalGF(l_polynomial(semigroup))
    ok = (direct_series(semigroup) * _ONE_MINUS_T).equals(lpoly)
    return VerificationReport("l_identity", ok, (), None, {}, lpoly)


def l_identity_by_dict_loop(semigroup):
    """The l_identity report: (1 - t) sum_w t^w = L(t) (1 - t^a) on the
    Apery form, with L (1 - t^a) built term by term."""
    lpoly = l_polynomial(semigroup)
    p = apery_series(semigroup)
    (a,), = p.den
    # L (1 - t^a): L's terms, less each term moved up by a
    rhs = dict(lpoly._terms)
    for (n,), c in lpoly._terms.items():
        if s := rhs.get((n + a,), 0) - c:
            rhs[(n + a,)] = s
        else:
            del rhs[(n + a,)]
    ok = (p * _ONE_MINUS_T).num == LaurentPoly._trusted(rhs, 1)
    return VerificationReport("l_identity", ok, (), None, {},
                              RationalGF(lpoly))


def signs_by_cross_multiplication(semigroup):
    """The reflection signs of a symmetric semigroup, decided on the
    L-polynomial and the direct series."""
    g = semigroup.genus
    lpoly = RationalGF(l_polynomial(semigroup))
    rhs_l = lpoly.reciprocal() * LaurentPoly.monomial((2 * g,))
    p = poincare_direct(semigroup)
    rhs_p = p.reciprocal() * LaurentPoly.monomial((2 * g - 1,))
    return _matching_sign(lpoly, rhs_l), _matching_sign(p, rhs_p)


def indicator_report_by_expansion(check, series, semigroup, window):
    """The report of `check`: the points of the window where the
    expansion of series is not the membership indicator of semigroup."""
    (lo, hi), = window.bounds
    witnesses = tuple(itertools.compress(range(lo, hi + 1), map(
        operator.ne, series.expand(window), semigroup.indicator(window))))
    return VerificationReport(check, not witnesses, witnesses, window.bounds,
                              {}, series)


def indicator_report_by_division(check, series, semigroup, window):
    """Where the expansion of series on the window is not the membership
    indicator of semigroup.  A series that reduces exactly to the Apery
    form is P itself, whose expansion is the indicator on every window,
    so it passes with nothing expanded; any other series is expanded on
    the window and compared point by point."""
    if reduces_to_apery_form(series, semigroup, window):
        return VerificationReport(check, True, (), window.bounds, {}, series)
    return indicator_report_by_expansion(check, series, semigroup, window)


def reduces_to_apery_form(series, semigroup, window):
    """Whether series = N / ((1 - t^a) prod_v (1 - t^v)), a = len(apery),
    with N divided exactly by every (1 - t^v) to sum_{w in Ap} t^w, the
    Apery form's numerator.

    Q (1 - t^v) = N is solved per residue class modulo v: Q is the
    running sum of the class's coefficients of N, from each of its
    exponents up to the next, and the division is exact when every
    class sums to 0.  The quotients lay out no more terms, all told,
    than the grid [min N, window top] that expand would fill; a
    division past that answers False, as does an inexact one."""
    apery = semigroup.apery
    den = list(series.den)
    if (len(apery),) not in den:
        return False
    den.remove((len(apery),))
    terms = {e: c for (e,), c in series.num._terms.items()}
    (_, hi), = window.bounds
    budget = max(0, hi - min(terms, default=hi)) + 1
    for (v,) in den:
        classes = {}
        for e in sorted(terms):
            classes.setdefault(e % v, []).append(e)
        runs = []
        for exps in classes.values():
            run = 0
            for e, nxt in zip(exps, exps[1:]):
                run += terms[e]
                if run:
                    runs.append((e, nxt, run))
            if run + terms[exps[-1]]:
                return False
        budget -= sum((nxt - e) // v for e, nxt, _ in runs)
        if budget < 0:
            return False
        terms = {}
        for e, nxt, run in runs:
            terms.update(dict.fromkeys(range(e, nxt, v), run))
    return terms == dict.fromkeys(apery, 1)


def indicator_by_direct_series(semigroup, window):
    return indicator_report_by_expansion("indicator", direct_series(semigroup),
                                         semigroup, window)


def l_polynomial_by_mask(semigroup):
    """The L-polynomial from the membership mask on [0, c]: +1 at each
    run of members' start, -1 at its end, found by `bytearray.find`."""
    member = semigroup.mask(semigroup.conductor + 1)
    terms, start = {}, 0
    while (end := member.find(0, start)) >= 0:
        terms[(start,)], terms[(end,)] = 1, -1
        start = member.find(1, end)
    terms[(start,)] = 1
    return LaurentPoly._trusted(terms, 1)


def symmetry_by_direct_series(semigroup):
    witnesses = tuple(semigroup.symmetry_witnesses())
    details = {"conductor": semigroup.conductor, "genus": semigroup.genus}
    return VerificationReport("symmetry", not witnesses, witnesses, None,
                              details, poincare_direct(semigroup))


def funceq_by_direct_series(semigroup):
    if not semigroup.is_symmetric():
        return VerificationReport("funceq", False,
                                  tuple(semigroup.symmetry_witnesses()), None,
                                  {"symmetric": False})
    eps_l, eps_p = signs_by_cross_multiplication(semigroup)
    ok = eps_l is not None and eps_p is not None
    details = {"eps_l": eps_l, "eps_p": eps_p,
               "genus": semigroup.genus, "opposite_pair_fails": ok}
    return VerificationReport("funceq", ok, (), None, details,
                              RationalGF(l_polynomial(semigroup)))


def expand_stdout_by_series(series, window, json_output):
    """The stdout of one-point `expand` on the window, `--json` or text,
    from the expansion of series."""
    values = series.expand(window)
    if json_output:
        return json.dumps({"window": window.bounds, "coefficients": values},
                          separators=(",", ":")) + "\n"
    return "\n".join(f"{n}: {v}" for (n,), v in
                     zip(window.points(), values)) + "\n"


def expand_lines_per_point(lo, digits):
    """The lines "n: d" for n = lo, lo + 1, ... and the digits d."""
    return "\n".join([f"{n}: {d}"
                      for n, d in zip(range(lo, lo + len(digits)), digits)])


_DIGITS = tuple(map(str, range(1000)))
_PAD3 = tuple(f"{n:03d}" for n in range(1000))


def gaps_json_by_blocks(gap, sep):
    """The JSON list, items joined by `sep`, of the n with gap[n] = 1:
    block q of 1000 values is str(q) before each of its padded low parts,
    and a block with no gap is left out, prefix and all."""
    blocks = []
    for lo in range(0, len(gap), 1000):
        prefix = str(lo // 1000) if lo else ""
        low = (sep + prefix).join(itertools.compress(
            _PAD3 if lo else _DIGITS, gap[lo:lo + 1000]))
        if low:
            blocks.append(prefix + low)
    return "[" + sep.join(blocks) + "]"


def direct_json_by_pairs(jumps):
    """The direct series' JSON from the sorted jumps of the L-polynomial,
    whose signs alternate +1, -1, ..., +1: each (start, end) pair joined
    by one separator and the pairs by the other."""
    digits = list(map(str, jumps))
    pairs = map('],"c":1},{"e":['.join, zip(digits[::2], digits[1::2]))
    return ('{"num":[{"e":[' + '],"c":-1},{"e":['.join([*pairs, digits[-1]])
            + '],"c":1}],"den":[[1]]}')


def symmetry_witnesses_by_scan(semigroup):
    """The n in [0, c) where n and c-1-n are both members or both gaps."""
    c = semigroup.conductor
    if c == 2 * semigroup.genus:
        return []
    member = semigroup.mask(c)
    return list(itertools.compress(
        range(c), map(operator.eq, member, reversed(member))))


def base_plus_extras_mask(ops, hi):
    """The base semigroup's membership mask on [0, hi) with the extras set."""
    member = ops.base.semigroup.mask(hi)
    for e in ops.extras:
        if e < hi:
            member[e] = 1
    return member


def base_or_extra(ops, n):
    return ops.base.semigroup.contains(n) or n in ops.extras


def series_modes_by_expansion(ops):
    """The series_first_difference of ops, from the expansions of P and
    the published product."""
    hi = ops.conductor + (ops.extras[-1] if ops.extras else 0) + 10
    window = Window((0, hi))
    ef = poincare_onepoint(ops).expand(window)
    ep = paper_product_by_addition(ops).expand(window)
    return next((n for n, (x, y) in enumerate(zip(ef, ep)) if x != y), None)


def paper_product_by_addition(ops):
    """The delta product plus the correction prod_j 1/(1 - t^{s_j}) - 1,
    added as two rational functions."""
    base_gf = poincare_delta_product(ops.base)
    if not ops.extras:
        return base_gf
    geo = RationalGF(LaurentPoly.one(1), [(m,) for m in ops.extras])
    return base_gf + RationalGF(LaurentPoly.one(1) - geo.den_poly(), geo.den)


def l_polynomial_paper(semigroup):
    """The published display 1 - t + t^c + (1 - t) sum_{n in S, n < c} t^n,
    which exceeds the L-polynomial by exactly (1 - t)."""
    return l_polynomial(semigroup) + _ONE_MINUS_T


@dataclass(frozen=True)
class LComparison:
    direct: LaurentPoly
    paper: LaurentPoly
    differ: bool
    difference: LaurentPoly


def l_polynomial_comparison(semigroup):
    """Both L forms side by side, with their (polynomial) difference."""
    direct = l_polynomial(semigroup)
    paper = l_polynomial_paper(semigroup)
    diff = paper - direct
    return LComparison(direct, paper, bool(diff), diff)
