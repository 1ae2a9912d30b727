"""Twist floors against pairwise references built from annular_distance.

The annular side of ``projections`` and ``slices`` reads one integer per
curve and subsurface.  Every function that does so is compared here with
a direct pairwise computation over ``annular_distance`` and ``distance``
on seeded sets of both surface kinds, including l in {1, 2} (every pair
of distinct curves is far), k up to 8, and members equal to the core.
"""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from corpus import (
    annulus_clusters,
    continued_fraction_slope,
    far_pair_corpus,
    random_mobius,
    random_slope,
)
from fareyulfp.annular import annular_distance, twist_coord, twist_floors
from fareyulfp.farey import INFINITY, Slope, SurfaceKind, apply, dehn_twist, distance, geodesics
from fareyulfp.projections import (
    WHOLE,
    SubsurfaceRef,
    _largest_far_count,
    bgit_audit,
    candidate_subsurfaces,
    check_P,
    ulfp_witness,
    vertex_gaps,
)
from fareyulfp.slices import weak_tight_index, weak_tight_slice

KINDS = list(SurfaceKind)
TORUS = SurfaceKind.TORUS_1_1


def ref_distance(kind, Z: SubsurfaceRef, y: Slope, z: Slope) -> int:
    return distance(y, z) if Z.is_whole else annular_distance(kind, Z.core, y, z)


def ref_projecting(Z: SubsurfaceRef, A) -> list[Slope]:
    return sorted(a for a in set(A) if a != Z.core)


def ref_check_P(kind, A, l: int, k: int, Z: SubsurfaceRef):
    """The lexicographically first pairwise-far k-set, or None."""
    members = ref_projecting(Z, A)
    far = {(y, z) for y, z in combinations(members, 2) if ref_distance(kind, Z, y, z) > l}
    for chosen in combinations(members, k):
        if all(pair in far for pair in combinations(chosen, 2)):
            return frozenset(chosen)
    return None


def ref_cores(pairs) -> list[Slope]:
    cores = {v for x, y in pairs for g in geodesics(x, y) for v in g.vertices}
    return sorted(cores, key=lambda s: (s.q, s.p))


def ref_subsurfaces(A) -> list[SubsurfaceRef]:
    members = sorted(set(A))
    return [WHOLE] + [SubsurfaceRef(c) for c in ref_cores(combinations(members, 2))]


def ref_ulfp_witness(kind, A, l: int, k: int) -> dict:
    members = sorted(set(A))
    subsurfaces = ref_subsurfaces(members)
    if len(members) >= k:
        for Z in subsurfaces:
            witness = ref_check_P(kind, members, l, k, Z)
            if witness is not None:
                return {"type": "witness", "subsurface": str(Z),
                        "slopes": sorted(str(c) for c in witness)}
    covers = []
    for Z in subsurfaces:
        centers: list[Slope] = []
        for v in ref_projecting(Z, members):
            if all(ref_distance(kind, Z, v, c) > l for c in centers):
                centers.append(v)
        covers.append({"subsurface": str(Z), "centers": [str(c) for c in centers], "radius": l})
    return {"type": "covered", "covers": covers}


def ref_min_side(kind, x, y, vertices, cores):
    """First (v, core) in vertex-then-core order reaching the largest min-side gap."""
    best, attaining = 0, None
    for v in vertices:
        for core in cores:
            if v == core:
                continue
            value = min(annular_distance(kind, core, end, v) for end in (x, y) if end != core)
            if value > best:
                best, attaining = value, (v, core)
    return best, attaining


def twisted_family(rng: random.Random, kind, core: Slope, size: int) -> set[Slope]:
    """Twists of a few base curves about one core, plus the core itself."""
    bases = [random_slope(rng, 6) for _ in range(3)]
    A = {core}
    for _ in range(size):
        base = rng.choice(bases)
        if base != core:
            A.add(dehn_twist(kind, core, rng.randint(-6, 6), base))
    return A


def test_floors_are_floors_of_twist_coordinates():
    rng = random.Random(101)
    for kind in KINDS:
        for _ in range(200):
            core = random_slope(rng, 30)
            curves = [random_slope(rng, 30) for _ in range(5)] + [core]
            floors = twist_floors(kind, core, curves)
            assert set(floors) == set(curves) - {core}
            for y, f in floors.items():
                assert f == twist_coord(core, y) // kind.twist_shift


def test_greedy_count_is_the_largest_far_set():
    rng = random.Random(404)
    for _ in range(400):
        floors = [rng.randint(-6, 6) for _ in range(rng.randint(0, 8))]
        l = rng.randint(1, 9)
        largest = max(
            (size for size in range(len(floors) + 1)
             for chosen in combinations(floors, size)
             if all(abs(a - b) + 2 > l for a, b in combinations(chosen, 2))),
            default=0,
        )
        assert _largest_far_count(floors, l) == largest, (floors, l)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_check_P_matches_pairwise_reference(kind):
    rng = random.Random(202)
    failures = 0
    for trial in range(300):
        core = random_slope(rng, 8)
        A = twisted_family(rng, kind, core, rng.randint(2, 13))
        if trial % 3 == 0:
            A |= {random_slope(rng, 10) for _ in range(3)}
        l = rng.choice([1, 1, 2, 2, 3, 4, 6, 9])
        k = rng.randint(2, 8)
        cores = [core, random_slope(rng, 8)]
        for Z in [WHOLE] + [SubsurfaceRef(c) for c in cores]:
            expected = ref_check_P(kind, A, l, k, Z)
            assert check_P(kind, A, l, k, Z) == expected, (sorted(A), l, k, str(Z))
            failures += expected is not None
    assert failures > 100  # the corpus exercises the witness search


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_check_P_matches_brute_force_on_small_sets(kind):
    # random sets of at most 12 slopes, on the whole surface, on hull
    # annuli and on an annulus around a random core
    rng = random.Random(505)
    witnesses = annulus_witnesses = 0
    for _ in range(120):
        A = {random_slope(rng, 12) for _ in range(rng.randint(2, 12))}
        if len(A) < 2:
            continue
        l, k = rng.randint(1, 9), rng.randint(2, 6)
        hull = list(candidate_subsurfaces(kind, A)[1:])
        for Z in [WHOLE, *rng.sample(hull, min(3, len(hull))), SubsurfaceRef(random_slope(rng, 8))]:
            expected = ref_check_P(kind, A, l, k, Z)
            assert check_P(kind, A, l, k, Z) == expected, (sorted(A), l, k, str(Z))
            witnesses += expected is not None
            annulus_witnesses += expected is not None and not Z.is_whole
    assert witnesses > 80 and annulus_witnesses > 50  # 121 and 89 on the torus


@pytest.mark.parametrize("m", [1, 2])
def test_check_P_matches_brute_force_on_annulus_clusters(m):
    A = annulus_clusters(m)
    witnesses = 0
    for kind in KINDS:
        for Z in (WHOLE, SubsurfaceRef(INFINITY), SubsurfaceRef(Slope(-77, 2))):
            for l in (2, 3, 4, 5):
                for k in range(2, 9):
                    expected = ref_check_P(kind, A, l, k, Z)
                    assert check_P(kind, A, l, k, Z) == expected, (m, kind, str(Z), l, k)
                    witnesses += expected is not None
    assert witnesses > 50  # 67 of 168


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_ulfp_witness_matches_pairwise_reference(kind):
    rng = random.Random(303)
    seen = set()
    for _ in range(60):
        core = random_slope(rng, 5)
        A = twisted_family(rng, kind, core, rng.randint(1, 6))
        A |= {random_slope(rng, 6) for _ in range(rng.randint(0, 2))}
        l = rng.choice([1, 2, 3, 5, 8, 12])
        k = rng.randint(2, 8)
        got = ulfp_witness(kind, A, l, k).to_json()
        assert got == ref_ulfp_witness(kind, A, l, k), (sorted(A), l, k)
        seen.add((got["type"], got.get("subsurface", "-")[:7]))
        holds = all(check_P(kind, A, l, k, Z) is None for Z in ref_subsurfaces(A))
        assert holds == (got["type"] == "covered")
    assert seen == {("witness", "whole"), ("witness", "annulus"), ("covered", "-")}


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_bgit_audit_matches_pairwise_reference(kind):
    pairs = far_pair_corpus(5, 25) + [(INFINITY, Slope(0, 1))]
    best, attaining, skipped = 0, None, 0
    for x, y in pairs:
        if distance(x, y) <= 2:
            skipped += 1
            continue
        interior = {v for g in geodesics(x, y) for v in g.vertices[1:-1]}
        vertices = sorted(interior, key=lambda v: (distance(x, v), v))
        value, at = ref_min_side(kind, x, y, vertices, ref_cores([sorted((x, y))]))
        single = bgit_audit(kind, [(x, y)])
        assert single.value == value
        assert single.attaining == (None if at is None else (x, y, *at))
        if value > best:
            best, attaining = value, (x, y, *at)
    audit = bgit_audit(kind, pairs)
    assert (audit.value, audit.attaining) == (best, attaining)
    assert (audit.pairs_audited, audit.pairs_skipped) == (len(pairs) - skipped, skipped)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_weak_tight_index_matches_pairwise_reference(kind):
    for x, y in far_pair_corpus(9, 12):
        for g in sorted(geodesics(x, y))[:3]:
            cores = ref_cores(combinations(sorted(set(g.vertices)), 2))
            value, at = ref_min_side(kind, x, y, g.vertices, cores)
            report = weak_tight_index(kind, g)
            assert report.index == value
            assert report.attaining == at


def test_weak_tight_slice_matches_per_geodesic_reference():
    # On the sphere these targets have geodesics of different weak-tight
    # index, so some ceilings keep only part of the geodesics.
    rng = random.Random(16)
    mixed = [[1, 3, 2], [1, 3, 1, 1], [1, 1, 2, 6], [1, 1, 2, 4, 1, 2], [1, 3, 1, 2, 2, 3]]
    pairs = far_pair_corpus(16, 20) + [
        (apply(m, INFINITY), apply(m, continued_fraction_slope(terms)))
        for terms in mixed
        for m in [random_mobius(rng)]
    ]
    queries, partial = 0, 0
    for kind in KINDS:
        for a, b in pairs:
            indexed = []  # (index, vertices) per geodesic, annuli from its vertex pairs
            for g in geodesics(a, b):
                cores = ref_cores(combinations(sorted(set(g.vertices)), 2))
                indexed.append((ref_min_side(kind, a, b, g.vertices, cores)[0], g.vertices))
            indices = [index for index, _ in indexed]
            hull = sorted({v for _, vertices in indexed for v in vertices})
            for c, delta in product(hull, range(3)):
                for D in range(min(indices) - 1, max(indices) + 1):
                    expected = {
                        v for index, vertices in indexed if index <= D
                        for v in vertices if distance(v, c) <= delta
                    }
                    got = weak_tight_slice(kind, a, b, c, delta, D)
                    assert got == expected, (kind, str(a), str(b), str(c), delta, D)
                    queries += 1
                    partial += min(indices) <= D < max(indices)
    assert queries > 1500 and partial > 30


def test_check_P_is_sl2z_invariant_on_the_torus():
    # On the torus the twist model is exact under SL(2, Z), so moving the set
    # and the annulus by one word keeps P (test_annular.TestMobiusInvariance).
    rng = random.Random(505)
    failures = 0
    for _ in range(200):
        core = random_slope(rng, 8)
        A = twisted_family(rng, TORUS, core, rng.randint(2, 10)) | {random_slope(rng, 10)}
        l, k = rng.choice([1, 2, 3, 4, 6, 9]), rng.randint(2, 5)
        m = random_mobius(rng)
        moved = {apply(m, a) for a in A}
        for Z, mZ in ((WHOLE, WHOLE), (SubsurfaceRef(core), SubsurfaceRef(apply(m, core)))):
            holds = check_P(TORUS, A, l, k, Z) is None
            assert (check_P(TORUS, moved, l, k, mZ) is None) == holds, (sorted(A), l, k, str(Z))
            failures += not holds
    assert failures > 50


def test_vertex_gaps_are_sl2z_invariant_on_the_torus():
    rng = random.Random(606)
    for x, y in far_pair_corpus(17, 40):
        m = random_mobius(rng)
        gaps = {apply(m, v): gap for v, (gap, _) in vertex_gaps(TORUS, x, y).items()}
        moved = {v: gap for v, (gap, _) in vertex_gaps(TORUS, apply(m, x), apply(m, y)).items()}
        assert moved == gaps, (str(x), str(y))
