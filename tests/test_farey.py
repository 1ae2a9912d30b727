"""Core Farey model: exact arithmetic, distances, geodesics, oracle checks."""

from __future__ import annotations

import gc
import random
from array import array
from itertools import combinations
from typing import Iterable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import random_mobius, random_slope
from conftest import slopes_with_denominator_up_to
from fareyulfp import farey
from fareyulfp.boxgraph import BoxGraph
from fareyulfp.errors import PreconditionViolation
from fareyulfp.farey import (
    INFINITY,
    IDENTITY,
    Geodesic,
    MobiusMap,
    Slope,
    SurfaceKind,
    adjacent,
    apply,
    canonical,
    dehn_twist,
    det,
    distance,
    geodesic_levels,
    geodesic_listing,
    geodesic_vertices,
    geodesic_vertices_within,
    geodesics,
    half_twist,
    intersection,
    normalizer_to_infinity,
    parse_slope_file,
    random_neighbor,
    _closure_adjacency,
    _distance_normalized,
    _normalized_walk,
)

slope_ints = st.integers(min_value=-40, max_value=40)


def slopes(draw_q_zero: bool = True):
    base = st.tuples(slope_ints, slope_ints).filter(lambda t: t != (0, 0))
    return base.map(lambda t: canonical(*t))


def from_terms(a0: int, terms: list[int]) -> Slope:
    """The slope [a0; a1, ..., an] of a regular continued fraction."""
    h, h_prev, k, k_prev = a0, 1, 1, 0
    for a in terms:
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    return Slope(h, k)


# Long runs of small quotients give big-integer slopes; big quotients give
# long walks.  The quotient sum is the walk length, capped so that the
# quadratic reference below stays fast.
small_quotient_runs = st.lists(st.integers(1, 3), max_size=40)
big_quotients = st.lists(st.integers(1, 10**3), max_size=3).filter(
    lambda terms: sum(terms) <= 10**3
)
partial_quotients = small_quotient_runs | big_quotients
integer_parts = st.integers(-3, 3) | st.integers(-(10**40), 10**40)


def common_neighbors(u: Slope, w: Slope) -> frozenset[Slope]:
    """All slopes adjacent to both u and w; at most two exist."""
    if u == w:
        raise PreconditionViolation("common_neighbors requires distinct slopes")
    g = normalizer_to_infinity(u)
    ginv = g.inverse()
    t = apply(g, w)
    out = []
    for num in (t.p - 1, t.p + 1):
        if num % t.q == 0:
            out.append(apply(ginv, Slope(num // t.q, 1)))
    return frozenset(out)


def closure_by_determinant_scan(t: Slope) -> dict[Slope, set[Slope]]:
    """The closure graph built the slow way: |det| = 1 tested on every pair."""
    edges = _normalized_walk(t)
    vertices = {v for edge in edges for v in edge}
    for u, w in edges:
        vertices |= common_neighbors(u, w)
    adjacency: dict[Slope, set[Slope]] = {v: set() for v in vertices}
    for u, w in combinations(vertices, 2):
        if abs(det(u, w)) == 1:
            adjacency[u].add(w)
            adjacency[w].add(u)
    return adjacency


def bfs(adjacency: dict[Slope, Iterable[Slope]], source: Slope) -> dict[Slope, int]:
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def strip_distance(t: Slope) -> int:
    """Reference: breadth-first search of the pivot strip from 1/0 to t."""
    edges = _normalized_walk(t)
    adjacency: dict[Slope, list[Slope]] = {v: [] for edge in edges for v in edge}
    for u, w in edges:
        adjacency[u].append(w)
        adjacency[w].append(u)
    return bfs(adjacency, INFINITY)[t]


def reference_hull(adjacency: dict[Slope, Iterable[Slope]], t: Slope, d: int) -> frozenset[Slope]:
    """Reference: the v with d(1/0, v) + d(v, t) = d, read off two level maps of the graph."""
    if INFINITY not in adjacency or t not in adjacency:
        return frozenset()
    up = bfs(adjacency, t)
    return frozenset(v for v, i in bfs(adjacency, INFINITY).items() if i + up.get(v, d + 1) == d)


def reference_paths(adjacency: dict[Slope, Iterable[Slope]], t: Slope) -> set[tuple[Slope, ...]]:
    """Reference: every shortest 1/0 -- t path of the graph, stepped off two level maps."""
    down, up = bfs(adjacency, INFINITY), bfs(adjacency, t)
    d = down[t]
    paths, stack = set(), [(INFINITY,)]
    while stack:
        path = stack.pop()
        if path[-1] == t:
            paths.add(path)
            continue
        i = len(path)
        stack += [path + (w,) for w in adjacency[path[-1]] if down[w] == i and up[w] == d - i]
    return paths


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class TestSlope:
    def test_parse_and_str_round_trip(self):
        for text in ["1/0", "0/1", "-3/7", "22/7"]:
            assert str(Slope.parse(text)) == text

    def test_parse_bare_integer_and_unreduced(self):
        assert Slope.parse("5") == Slope(5, 1)
        assert Slope.parse("6/4") == Slope(3, 2)
        assert Slope.parse("3/-2") == Slope(-3, 2)

    def test_invalid_slopes_rejected(self):
        with pytest.raises(ValueError):
            Slope(2, 4)
        with pytest.raises(ValueError):
            Slope(2, 0)
        with pytest.raises(ValueError):
            Slope(1, -2)
        with pytest.raises(ValueError):
            canonical(0, 0)

    def test_canonical_normalizes_sign_and_gcd(self):
        assert canonical(-4, -6) == Slope(2, 3)
        assert canonical(-3, 0) == INFINITY
        assert INFINITY.is_infinity

    @given(slopes())
    def test_canonical_idempotent(self, x):
        assert canonical(x.p, x.q) == x


class TestAdjacency:
    def test_known_edges(self):
        assert adjacent(INFINITY, Slope(0, 1))
        assert adjacent(Slope(1, 2), Slope(1, 3))
        assert not adjacent(INFINITY, Slope(1, 2))
        assert not adjacent(Slope(0, 1), Slope(0, 1))

    def test_intersection_factor(self):
        x, y = INFINITY, Slope(1, 2)
        assert intersection(SurfaceKind.TORUS_1_1, x, y) == 2
        assert intersection(SurfaceKind.SPHERE_0_4, x, y) == 4

    @given(slopes(), slopes())
    def test_det_antisymmetric(self, x, y):
        assert det(x, y) == -det(y, x)


class TestMobius:
    def test_determinant_validated(self):
        with pytest.raises(ValueError):
            MobiusMap(2, 0, 0, 1)

    @given(slopes())
    def test_inverse_is_projective_inverse(self, x):
        rng = random.Random(x.p * 1000 + x.q)
        m = random_mobius(rng)
        assert apply(m.inverse(), apply(m, x)) == x
        assert apply(m, apply(m.inverse(), x)) == x

    @given(slopes())
    def test_normalizer_sends_slope_to_infinity(self, x):
        g = normalizer_to_infinity(x)
        assert apply(g, x) == INFINITY
        assert g.determinant in (1, -1)

    def test_normalizer_is_canonical_bezout(self):
        # For p/q the Bezout cofactor v = p^{-1} mod q pins the map down.
        g = normalizer_to_infinity(Slope(3, 5))
        assert (g.a, g.b, g.c, g.d) == (2, -1, -5, 3)
        assert normalizer_to_infinity(INFINITY) == IDENTITY

    @given(slopes(), slopes())
    def test_mobius_action_preserves_adjacency(self, x, y):
        rng = random.Random(hash((x, y)) & 0xFFFF)
        m = random_mobius(rng)
        assert adjacent(x, y) == adjacent(apply(m, x), apply(m, y))


class TestTwists:
    def test_basic_shear_at_infinity(self):
        # twisting along 1/0 shears the numerator
        kind = SurfaceKind.TORUS_1_1
        assert dehn_twist(kind, INFINITY, 3, Slope(0, 1)) in (
            Slope(3, 1),
            Slope(-3, 1),
        )

    def test_half_twist_squares_to_sphere_twist(self):
        rng = random.Random(5)
        for _ in range(50):
            x, y = random_slope(rng), random_slope(rng)
            n = rng.randint(-6, 6)
            assert half_twist(x, 2 * n, y) == dehn_twist(
                SurfaceKind.SPHERE_0_4, x, n, y
            )

    @given(slopes(), st.integers(min_value=-10, max_value=10))
    def test_twist_is_invertible(self, y, n):
        for kind in SurfaceKind:
            x = INFINITY if y != INFINITY else Slope(0, 1)
            z = dehn_twist(kind, x, n, y)
            assert dehn_twist(kind, x, -n, z) == y

    def test_twist_fixes_the_twisting_curve(self):
        x = Slope(3, 7)
        assert dehn_twist(SurfaceKind.TORUS_1_1, x, 4, x) == x


class TestDistance:
    def test_small_known_values(self):
        assert distance(INFINITY, INFINITY) == 0
        assert distance(INFINITY, Slope(0, 1)) == 1
        assert distance(INFINITY, Slope(1, 2)) == 2
        assert distance(Slope(0, 1), Slope(1, 2)) == 1
        # deeper continued fractions need more steps (oracle-verified)
        assert distance(INFINITY, Slope(5, 12)) == 4
        assert distance(INFINITY, Slope(2, 5)) == 3

    def test_oracle_equivalence_small_box(self, box26):
        slopes_small = slopes_with_denominator_up_to(13)
        for x, y in combinations(slopes_small, 2):
            assert distance(x, y) == box26.distance(x, y), (x, y)

    def test_geodesics_match_exhaustive_enumeration(self, box16):
        slopes_small = slopes_with_denominator_up_to(8)
        for x, y in combinations(slopes_small, 2):
            ours = {g.vertices for g in geodesics(x, y)}
            assert ours == box16.geodesics(x, y), (x, y)

    @given(slopes(), slopes())
    def test_symmetry_and_separation(self, x, y):
        d = distance(x, y)
        assert d == distance(y, x)
        assert (d == 0) == (x == y)
        assert (d == 1) == adjacent(x, y)

    @given(slopes(), slopes(), slopes())
    def test_triangle_inequality(self, x, y, z):
        assert distance(x, z) <= distance(x, y) + distance(y, z)

    @settings(max_examples=50)
    @given(slopes(), slopes(), st.integers(min_value=0, max_value=2**32))
    def test_mobius_invariance(self, x, y, seed):
        m = random_mobius(random.Random(seed))
        assert distance(x, y) == distance(apply(m, x), apply(m, y))

    # runs of more than two mediants, where the A + 1 cap binds, on both sides
    @example(0, [3, 3], 0)
    @example(-2, [6, 1, 7, 2], 1)
    @example(5, [2, 9, 9, 9, 1, 3], 2)
    @example(0, [50, 2, 50], 3)
    @settings(max_examples=300, deadline=None)
    @given(integer_parts, partial_quotients, st.integers(0, 2**32))
    def test_euclid_steps_equal_the_strip_search(self, a0, terms, seed):
        t = from_terms(a0, terms)
        expected = strip_distance(t)
        assert _distance_normalized(t) == expected
        m = random_mobius(random.Random(seed))
        assert distance(apply(m, INFINITY), apply(m, t)) == expected

    @pytest.mark.parametrize("n", [2, 3, 10, 10**6, 10**30])
    def test_reciprocals_are_at_distance_two(self, n):
        assert distance(INFINITY, Slope(1, n)) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 40, 200])
    def test_twos_are_at_distance_n_plus_one(self, n):
        assert distance(INFINITY, from_terms(0, [2] * n)) == n + 1

    def test_one_huge_quotient_is_at_distance_two(self):
        for k in range(1, 31):
            assert distance(INFINITY, Slope(10**k + 1, 10**k)) == 2, k

    def test_distance_does_not_walk_the_strip(self, monkeypatch):
        pairs = [(INFINITY, Slope(5, 12)), (Slope(3, 7), Slope(-5, 2)), (Slope(1, 2), Slope(7, 9))]
        expected = [strip_distance(apply(normalizer_to_infinity(x), y)) for x, y in pairs]

        def refuse(t):
            raise AssertionError("distance walked the strip")

        monkeypatch.setattr(farey, "_normalized_walk", refuse)
        assert [distance(x, y) for x, y in pairs] == expected
        assert distance(INFINITY, Slope(10**30 + 1, 10**30)) == 2

    def test_queries_leave_no_cyclic_garbage(self):
        box = BoxGraph(8)
        gc.collect()
        gc.disable()
        try:
            for t in (Slope(37, 96), Slope(-41, 107), Slope(53, 137)):
                distance(INFINITY, t)
                geodesics(INFINITY, t)
                geodesic_vertices(Slope(1, 3), t)
            box.geodesics(Slope(-2, 5), Slope(3, 8))
            box.geodesics(Slope(5, 7), Slope(-1, 6))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_box_maps_are_signed_bytes_that_never_wrap(self):
        box = BoxGraph(12)
        to_half = box.distance_map(Slope(1, 2))
        assert to_half.typecode == "b" and min(to_half) == 0
        assert to_half[box.index[Slope(5, 8)]] == distance(Slope(5, 8), Slope(1, 2))

        def as_path(graph: BoxGraph, length: int) -> BoxGraph:
            # vertex 0 (1/0) reaches level i at vertex i; the rest is unreached
            n = len(graph.vertices)
            graph._adjacency = [[j for j in (i - 1, i + 1) if 0 <= j < length] for i in range(n)]
            return graph

        fits = as_path(BoxGraph(12), 128).distance_map(INFINITY)
        assert fits[127] == 127 and fits[128] == -1
        with pytest.raises(OverflowError):
            as_path(BoxGraph(12), 129).distance_map(INFINITY)


    @pytest.mark.parametrize("bound", [16, 26])
    def test_box_maps_equal_a_plain_search_in_any_order(self, bound):
        # a map may be permuted from a symmetric source's map; the reference searches each
        reference = BoxGraph(bound)
        vertices, index = reference.vertices, reference.index
        adjacency = [[index[w] for w in reference.neighbors(v)] for v in vertices]
        expected = []
        for source in range(len(vertices)):
            dist = bfs(adjacency, source)
            expected.append(array("b", [dist.get(i, -1) for i in range(len(vertices))]))
        for order in (vertices, vertices[::-1]):
            box = BoxGraph(bound)
            for source in order:
                got = box.distance_map(source)
                assert got.typecode == "b" and got == expected[box.index[source]], source

    def test_sweep_targets_take_one_search_per_orbit(self, monkeypatch):
        searched = []
        search = BoxGraph._search

        def counting(box, src):
            searched.append(src)
            return search(box, src)

        monkeypatch.setattr(BoxGraph, "_search", counting)
        box = BoxGraph(42)
        targets = slopes_with_denominator_up_to(21)
        for target in targets:
            box.distance_map(target)
        # orbits of x -> -x, 1/x, -1/x: 139 of four and {1/0, 0/1}, {1/1, -1/1}
        assert len(targets) == 560 and len(searched) == 141


class TestGeodesics:
    def test_geodesic_validation(self):
        with pytest.raises(ValueError):
            Geodesic((INFINITY, Slope(1, 2)))  # not adjacent
        with pytest.raises(ValueError):
            # valid path but longer than the distance
            Geodesic((INFINITY, Slope(0, 1), Slope(1, 1), Slope(1, 0)))

    def test_geodesic_parse_round_trip(self):
        g = Geodesic.parse("1/0,0/1,1/2")
        assert g.length == 2 and g.start == INFINITY and g.end == Slope(1, 2)
        assert Geodesic.parse(str(g)) == g

    def test_trivial_and_edge_geodesics(self):
        assert geodesics(INFINITY, INFINITY) == {Geodesic((INFINITY,))}
        only = geodesics(INFINITY, Slope(0, 1))
        assert only == {Geodesic((INFINITY, Slope(0, 1)))}

    def test_spec_example_vertices(self):
        # Both geodesics from 1/0 to 1/2 pass through 0/1 or 1/1.
        verts = geodesic_vertices(INFINITY, Slope(1, 2))
        assert verts == {INFINITY, Slope(0, 1), Slope(1, 1), Slope(1, 2)}

    @settings(max_examples=60, deadline=None)
    @given(integer_parts, partial_quotients, st.integers(0, 2**32))
    def test_vertices_are_the_union_of_the_geodesics(self, a0, terms, seed):
        # at most 16 terms keeps the enumeration small: [2] * 16 has F(18) geodesics
        m = random_mobius(random.Random(seed))
        x, y = apply(m, INFINITY), apply(m, from_terms(a0, terms[:16]))
        union = {v for g in geodesics(x, y) for v in g.vertices}
        assert geodesic_vertices(x, y) == union

    @given(slopes(), slopes())
    def test_geodesics_have_common_endpoints_and_length(self, x, y):
        d = distance(x, y)
        for g in geodesics(x, y):
            assert g.start == x and g.end == y and g.length == d


class TestLadder:
    """The one per-target structure: distance levels and the edges between them."""

    # one quotient, long runs, and [0; 2 x 12] with its F(14) geodesics
    @example(0, [7], 1)
    @example(-2, [6, 1, 7, 2], 2)
    @example(0, [2] * 12, 3)
    @settings(max_examples=150, deadline=None)
    @given(integer_parts, partial_quotients, st.integers(0, 2**32))
    def test_levels_sort_the_reference_hull_by_distance(self, a0, terms, seed):
        t = from_terms(a0, terms)
        d = _distance_normalized(t)
        hull = reference_hull(_closure_adjacency(t), t, d)
        m = random_mobius(random.Random(seed))
        x, y = apply(m, INFINITY), apply(m, t)
        for (start, levels, moved) in (
            (INFINITY, geodesic_levels(INFINITY, t), hull),
            (x, geodesic_levels(x, y), {apply(m, v) for v in hull}),
        ):
            assert len(levels) == d + 1
            for i, level in enumerate(levels):
                assert 1 <= len(level) <= 2
                assert list(level) == sorted(level)
                assert set(level) == {v for v in moved if distance(start, v) == i}

    @example(0, [2] * 12, 5)
    @example(1, [1, 2, 2, 1, 3, 2], 6)
    @settings(max_examples=100, deadline=None)
    @given(integer_parts, partial_quotients, st.integers(0, 2**32))
    def test_pruned_ladder_equals_the_restricted_closure_hull(self, a0, terms, seed):
        rng = random.Random(seed)
        t = from_terms(a0, terms)
        d = _distance_normalized(t)
        closure = _closure_adjacency(t)
        m = random_mobius(rng)
        x, y = apply(m, INFINITY), apply(m, t)
        geodesic_vertices(x, y)  # caches the ladder
        # drop one or two hull vertices that share their level, and half of the rest
        hull = reference_hull(closure, t, d)
        level = bfs(closure, INFINITY)
        twins = sorted(v for v in hull if sum(level[w] == level[v] for w in hull) == 2)
        dropped = set(rng.sample(twins, min(len(twins), rng.randint(1, 2))))
        kept = {v for v in closure if v in hull or rng.random() < 0.5} - dropped
        for allowed in (kept, kept - {INFINITY}, kept - {t}):
            restricted = {v: ws & allowed for v, ws in closure.items() if v in allowed}
            expected = {apply(m, v) for v in reference_hull(restricted, t, d)}
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(farey, "_closure_adjacency", self.refuse)
                found = geodesic_vertices_within(x, y, [apply(m, v) for v in allowed])
            assert found == expected

    # big integer parts and quotients, long runs, and [0; 2 x 14] with its F(16) geodesics
    @example(10**40, [7], 1)
    @example(-3, [900, 2, 50], 2)
    @example(0, [2] * 14, 3)
    @settings(max_examples=80, deadline=None)
    @given(integer_parts, partial_quotients, st.integers(0, 2**32))
    def test_paths_are_the_shortest_paths_of_the_closure(self, a0, terms, seed):
        # at most 14 terms keeps the enumeration small
        t = from_terms(a0, terms[:14])
        m = random_mobius(random.Random(seed))
        expected = {
            tuple(apply(m, v) for v in path) for path in reference_paths(_closure_adjacency(t), t)
        }
        assert {g.vertices for g in geodesics(apply(m, INFINITY), apply(m, t))} == expected

    # no apex u + w or u - w of a walk edge is on a geodesic, and the closure
    # does hold apices off the walk, so the first check is not vacuous
    @example(10**40, [7])
    @example(-3, [900, 2, 50])
    @example(0, [2] * 14)
    @settings(max_examples=80, deadline=None)
    @given(integer_parts, partial_quotients)
    def test_the_hull_lies_on_the_walk(self, a0, terms):
        t = from_terms(a0, terms)
        walked = {v for edge in _normalized_walk(t) for v in edge}
        assert {v for level in farey._hull_normalized(t) for v in level} <= walked
        if t.q > 1:  # t is not an integer
            assert set(_closure_adjacency(t)) - walked

    @staticmethod
    def refuse(t):
        raise AssertionError(f"built the closure of {t}")

    def test_pruning_keeps_the_trivial_pair(self):
        x = Slope(3, 7)
        assert geodesic_vertices_within(x, x, [x, INFINITY]) == {x}
        assert geodesic_vertices_within(x, x, [INFINITY]) == frozenset()

    @settings(max_examples=40, deadline=None)
    @given(integer_parts, partial_quotients, st.integers(0, 2**32))
    def test_count_and_listing_match_the_sorted_geodesics(self, a0, terms, seed):
        # at most 14 terms keeps the enumeration small
        m = random_mobius(random.Random(seed))
        x, y = apply(m, INFINITY), apply(m, from_terms(a0, terms[:14]))
        count, listed = geodesic_listing(x, y, 30)
        assert count == len(geodesics(x, y))
        assert listed == sorted(geodesics(x, y))[:30]

    # F(102) geodesics could never be listed: the count is summed up the ladder
    @pytest.mark.parametrize("n", [1, 2, 8, 20, 40, 100])
    def test_twos_count_fibonacci_geodesics_without_listing_them(self, n):
        m = random_mobius(random.Random(n))
        t = from_terms(0, [2] * n)
        assert geodesic_listing(INFINITY, t, 0) == (fibonacci(n + 2), [])
        assert geodesic_listing(apply(m, INFINITY), apply(m, t), 0) == (fibonacci(n + 2), [])

    def test_trivial_pair_has_one_geodesic_and_one_level(self):
        x = Slope(-2, 5)
        assert geodesic_listing(x, x, 5) == (1, [Geodesic((x,))])
        assert geodesic_levels(x, x) == ((x,),)


class TestCandidates:
    @given(slopes(), slopes())
    def test_common_neighbors_are_mutual(self, u, w):
        if u == w:
            return
        for v in common_neighbors(u, w):
            assert adjacent(v, u) and adjacent(v, w)
        assert len(common_neighbors(u, w)) <= 2

    def test_common_neighbors_of_adjacent_pair(self):
        both = common_neighbors(INFINITY, Slope(0, 1))
        assert both == {Slope(1, 1), Slope(-1, 1)}

    @settings(max_examples=40, deadline=None)
    @given(integer_parts, partial_quotients)
    def test_closure_graph_equals_determinant_scan(self, a0, terms):
        t = from_terms(a0, terms)
        assert _closure_adjacency(t) == closure_by_determinant_scan(t)

    def test_reciprocal_has_one_geodesic(self):
        t = Slope(1, 5003)
        assert distance(INFINITY, t) == 2
        assert geodesics(INFINITY, t) == {Geodesic((INFINITY, Slope(0, 1), t))}

    @pytest.mark.parametrize("n", [1, 4, 10, 16])
    def test_twos_have_fibonacci_many_geodesics(self, n):
        t = from_terms(0, [2] * n)
        assert distance(INFINITY, t) == n + 1
        assert len(geodesics(INFINITY, t)) == fibonacci(n + 2)

    def test_random_neighbor_is_adjacent(self):
        x = Slope(3, 5)
        seen = {random_neighbor(x, off) for off in range(-4, 5)}
        assert len(seen) == 9
        assert all(adjacent(x, v) for v in seen)


def test_parse_slope_file_with_comments():
    lines = ["# header", " 1/0 ", "", "2/3  # inline", "-1/1"]
    assert parse_slope_file(lines) == [INFINITY, Slope(2, 3), Slope(-1, 1)]
