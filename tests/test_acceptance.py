"""Acceptance suite: nine exactness, equivalence, and bound criteria.

Each test prints one PASS/FAIL line (visible even under capture) and
enforces its stated runtime budget.
"""

from __future__ import annotations

import random
import time
from itertools import combinations

import pytest

from conftest import slopes_with_denominator_up_to
from corpus import (
    BGIT_CORPUS_SEED,
    M_EMP,
    far_pair_corpus,
    random_mobius,
    random_slope,
)
from fareyulfp.annular import annular_distance
from fareyulfp.boxgraph import BoxGraph
from fareyulfp.bounds import (
    BoundParams,
    Surface,
    growth_upper,
    log10_upper,
    n_bound,
    slice_bound_tight,
)
from fareyulfp.farey import (
    INFINITY,
    Slope,
    SurfaceKind,
    apply,
    dehn_twist,
    distance,
    geodesic_vertices,
    geodesics,
    half_twist,
)
from fareyulfp.graphcore import SeparatedWitness, greedy_separated, ulf_bound
from fareyulfp.projections import bgit_audit, candidate_subsurfaces, proj_distance
from fareyulfp.slices import SliceQuery, tight_slice, verify_slice_bounds, weak_tight_index, weak_tight_slice
from test_graphcore import path_graph, random_degree_capped_graph

TORUS = SurfaceKind.TORUS_1_1
SPHERE = SurfaceKind.SPHERE_0_4


@pytest.fixture
def announce(capsys):
    def _report(number: int, label: str, ok: bool) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'}")
        assert ok, f"acceptance criterion {number} ({label}) failed"

    return _report


def _twist_corpus(seed: int, count: int):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x, y = random_slope(rng), random_slope(rng)
        n = rng.randint(-50, 50)
        if x != y and n != 0:
            out.append((x, y, n))
    return out


def test_criterion_1_torus_twist_identity(announce):
    started = time.monotonic()
    failures = 0
    for x, y, n in _twist_corpus(101, 500):
        twisted = dehn_twist(TORUS, x, n, y)
        if annular_distance(TORUS, x, y, twisted) != abs(n) + 2:
            failures += 1
    elapsed = time.monotonic() - started
    announce(1, "torus twist identity", failures == 0 and elapsed < 5.0)


def test_criterion_2_sphere_half_twist(announce):
    from fractions import Fraction

    from fareyulfp.annular import twist_coord

    failures = 0
    for x, y, n in _twist_corpus(102, 500):
        twisted = half_twist(x, n, y)
        got = annular_distance(SPHERE, x, y, twisted)
        want = abs(n) // 2 + 2
        if abs(got - want) > 1:
            failures += 1
            continue
        t = twist_coord(x, y)
        frac = t / 2 - (t // 2)
        exact_case = (n > 0 and frac < Fraction(1, 2)) or (
            n < 0 and frac >= Fraction(1, 2)
        )
        if exact_case and got != want:
            failures += 1
    announce(2, "sphere half-twist identity", failures == 0)


def test_criterion_3_oracle_equivalence(announce):
    started = time.monotonic()
    box = BoxGraph(42)
    slopes = slopes_with_denominator_up_to(21)
    disagreements = 0
    for x, y in combinations(slopes, 2):
        d = distance(x, y)
        if d != box.distance(x, y):
            disagreements += 1
            continue
        if d <= 4:
            ours = {g.vertices for g in geodesics(x, y)}
            if ours != box.geodesics(x, y):
                disagreements += 1
    rng = random.Random(103)
    for _ in range(200):
        x, y = random_slope(rng), random_slope(rng)
        if x == y:
            continue
        m = random_mobius(rng)
        mx, my = apply(m, x), apply(m, y)
        if distance(x, y) != distance(mx, my):
            disagreements += 1
            continue
        mapped = {tuple(apply(m, v) for v in g.vertices) for g in geodesics(x, y)}
        if mapped != {g.vertices for g in geodesics(mx, my)}:
            disagreements += 1
    elapsed = time.monotonic() - started
    announce(3, "oracle equivalence", disagreements == 0 and elapsed < 120.0)


def test_criterion_4_exact_slice_reproduction(announce, box16):
    expected = {INFINITY, Slope(0, 1), Slope(1, 1), Slope(1, 2)}
    verts = geodesic_vertices(INFINITY, Slope(1, 2))
    got = tight_slice(TORUS, INFINITY, Slope(1, 2), Slope(0, 1), 1)
    oracle_verts = {
        v for path in box16.geodesics(INFINITY, Slope(1, 2)) for v in path
    }
    ok = verts == expected and got == expected and oracle_verts == expected
    announce(4, "exact slice reproduction", ok and len(got) == 4)


def test_criterion_5_bound_goldens(announce):
    p = BoundParams(1, 2, 1)
    # recomputed by hand: inner sphere bound 28^4, then (2*28^4)^2
    xi2_golden = (2 * 28**4) ** 2
    ok = (
        n_bound(Surface(1, 1), p).exact == 100
        and n_bound(Surface(0, 4), p).exact == 400
        and xi2_golden == 1511207993344
        and n_bound(Surface(1, 2), p).exact == xi2_golden
    )
    announce(5, "bound golden values", ok)


def test_criterion_6_monotone_and_envelope(announce):
    started = time.monotonic()
    surfaces = [Surface(1, 1), Surface(0, 4), Surface(1, 2), Surface(0, 6), Surface(2, 0), Surface(1, 4)]
    grid = range(1, 7)
    violations = 0
    for surface in surfaces:
        for l in grid:
            for k in range(2, 8):
                for M in grid:
                    value = n_bound(surface, BoundParams(l, k, M), mode="log10")
                    for bumped in (
                        BoundParams(l + 1, k, M),
                        BoundParams(l, k + 1, M),
                        BoundParams(l, k, M + 1),
                    ):
                        if n_bound(surface, bumped, mode="log10").log10_upper <= value.log10_upper:
                            violations += 1
                    envelope = growth_upper(surface, BoundParams(l, k, M))
                    if value.log10_upper > envelope.log10_upper:
                        violations += 1
    elapsed = time.monotonic() - started
    announce(6, "monotonicity and envelope", violations == 0 and elapsed < 60.0)


def test_criterion_7_graph_dichotomy(announce):
    rng = random.Random(107)
    failures = 0
    path = path_graph(200)
    for _ in range(100):
        l, k = rng.randint(1, 5), rng.randint(2, 5)
        A = rng.sample(range(200), (l + 2) * k + 1)
        if not isinstance(greedy_separated(path, A, l, k), SeparatedWitness):
            failures += 1
    done = 0
    while done < 100:
        g = random_degree_capped_graph(rng, rng.randint(40, 120), rng.randint(2, 4))
        l, k = rng.randint(1, 2), rng.randint(2, 3)
        bound = ulf_bound(g.max_valency(), l, k)
        if bound + 1 > g.n:
            continue
        A = rng.sample(range(g.n), bound + 1)
        if not isinstance(greedy_separated(g, A, l, k), SeparatedWitness):
            failures += 1
        done += 1
    announce(7, "graph ULFP dichotomy", failures == 0)


def _corpus_with_centers():
    for a, b in far_pair_corpus(BGIT_CORPUS_SEED, 50):
        c = min(
            geodesic_vertices(a, b),
            key=lambda v: (abs(distance(a, v) - distance(v, b)), v),
        )
        yield a, b, c


def test_criterion_8_slice_bound_harness(announce):
    point_bound = slice_bound_tight(Surface(1, 1), M_EMP)[0].exact
    failures = 0
    for a, b, c in _corpus_with_centers():
        result = verify_slice_bounds(TORUS, SliceQuery(a, b, c, 2), M=M_EMP)
        if len(result.members) > point_bound:
            failures += 1
            continue
        annuli = [
            Z for Z in candidate_subsurfaces(TORUS, (a, b)) if not Z.is_whole
        ]
        for x in result.members:
            if x in (a, b):
                continue
            for Z in annuli:
                if x == Z.core:
                    continue
                sides = [
                    proj_distance(TORUS, Z, end, x)
                    for end in (a, b)
                    if end != Z.core
                ]
                if min(sides) > M_EMP:
                    failures += 1
    audit = bgit_audit(TORUS, far_pair_corpus(BGIT_CORPUS_SEED, 100))
    announce(8, "slice bound harness", failures == 0 and audit.value == M_EMP)


def test_criterion_9_weak_tight_consistency(announce):
    failures = 0
    for a, b, c in _corpus_with_centers():
        max_index = max(
            weak_tight_index(TORUS, g).index for g in geodesics(a, b)
        )
        full = tight_slice(TORUS, a, b, c, 2)
        if weak_tight_slice(TORUS, a, b, c, 2, max_index) != full:
            failures += 1
            continue
        previous = frozenset()
        for D in range(max_index + 2):
            current = weak_tight_slice(TORUS, a, b, c, 2, D)
            if not previous <= current <= full:
                failures += 1
                break
            previous = current
    announce(9, "weak-tight consistency", failures == 0)
