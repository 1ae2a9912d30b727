"""Seeded corpora shared by the module tests and the acceptance suite."""

from __future__ import annotations

import random
from fractions import Fraction

from fareyulfp.farey import (
    INFINITY,
    IDENTITY,
    MobiusMap,
    Slope,
    apply,
    canonical,
    distance,
)


def random_slope(rng: random.Random, size: int = 20) -> Slope:
    while True:
        p = rng.randint(-size, size)
        q = rng.randint(0, size)
        if (p, q) != (0, 0):
            return canonical(p, q)


def random_mobius(rng: random.Random, words: int = 4, shift: int = 3) -> MobiusMap:
    m = IDENTITY
    for _ in range(words):
        n = rng.randint(-shift, shift)
        if rng.random() < 0.5:
            m = m.compose(MobiusMap(1, n, 0, 1))
        else:
            m = m.compose(MobiusMap(1, 0, n, 1))
    return m


def continued_fraction_slope(terms: list[int]) -> Slope:
    value = Fraction(0)
    for t in reversed(terms):
        value = Fraction(1, t + value)
    return canonical(value.numerator, value.denominator)


def far_pair_corpus(seed: int, count: int, lo: int = 3, hi: int = 6):
    """Random transported pairs with curve-graph distance in [lo, hi]."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        terms = [rng.randint(1, 3) for _ in range(rng.randint(4, 10))]
        y = continued_fraction_slope(terms)
        m = random_mobius(rng)
        a, b = apply(m, INFINITY), apply(m, y)
        if lo <= distance(a, b) <= hi:
            pairs.append((a, b))
    return pairs


def annulus_clusters(m: int) -> list[Slope]:
    """Seven clusters of m slopes at twist floors -60, -57, ..., -42 about
    1/0, then -77/2 and -1639/40: 7m + 2 slopes, each 2 from 1/0.

    A cluster at floor f holds (fq + 1)/q and (fq + q - 1)/q for q = 2, 3,
    ..., in that order.  At l = 4 the clusters are pairwise far in the
    annulus around 1/0, and with -77/2 they make its largest far set of 8.
    In slope order -1639/40 comes first, and it lies in no far 8-set; a
    search cut only by the member count spends its time below it.
    """
    out: list[Slope] = []
    for f in range(-60, -41, 3):
        cluster: list[Slope] = []
        q = 2
        while len(cluster) < m:
            for p in (f * q + 1, f * q + q - 1):
                s = canonical(p, q)
                if s not in cluster and len(cluster) < m:
                    cluster.append(s)
            q += 1
        out += cluster
    return out + [Slope(-77, 2), Slope(-1639, 40)]


# Frozen regression values for the seeded audit corpus below; recompute by
# running bgit_audit over far_pair_corpus(BGIT_CORPUS_SEED, 100).
BGIT_CORPUS_SEED = 7
M_EMP = 3  # same value on both surface kinds and on the 50-pair prefix
M_EMP_ATTAINING_VERTEX = "-13/4"
