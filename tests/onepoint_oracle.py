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
"""

import itertools


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
