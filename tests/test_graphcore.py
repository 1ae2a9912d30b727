"""Finite-graph local finiteness: balls, greedy dichotomy, counting bound."""

from __future__ import annotations

import math
import random
import tracemalloc
from itertools import combinations

import pytest

from fareyulfp.errors import DisconnectedQuery, PreconditionViolation
from fareyulfp.graphcore import (
    BallCoverCertificate,
    FiniteGraph,
    SeparatedWitness,
    greedy_separated,
    ulf_bound,
)


def path_graph(n: int) -> FiniteGraph:
    return FiniteGraph(n, [(i, i + 1) for i in range(n - 1)])


def random_degree_capped_graph(rng: random.Random, n: int, cap: int) -> FiniteGraph:
    """Connected random graph with maximum valency at most cap."""
    edges = []
    degree = [0] * n
    for v in range(1, n):
        choices = [u for u in range(v) if degree[u] < cap]
        u = rng.choice(choices)
        edges.append((u, v))
        degree[u] += 1
        degree[v] += 1
    for _ in range(n // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and degree[u] < cap and degree[v] < cap:
            edges.append((min(u, v), max(u, v)))
            degree[u] += 1
            degree[v] += 1
    return FiniteGraph(n, edges)


class TestFiniteGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteGraph(-1, [])
        with pytest.raises(ValueError):
            FiniteGraph(2, [(0, 2)])
        with pytest.raises(ValueError):
            FiniteGraph(2, [(1, 1)])

    def test_duplicate_edges_collapse(self):
        g = FiniteGraph(3, [(0, 1), (1, 0), (1, 2)])
        assert g.m == 2 and g.adjacency[1] == [0, 2]

    def test_parse(self):
        g = FiniteGraph.parse(["# comment", "4 3", "0 1", "1 2", "2 3"])
        assert g.n == 4 and g.m == 3
        with pytest.raises(ValueError):
            FiniteGraph.parse(["3 2", "0 1"])
        with pytest.raises(ValueError, match="expected 1 edges, found 2"):
            FiniteGraph.parse(["3 1", "0 1", "1 2"])

    def test_components_and_distance(self):
        g = FiniteGraph(5, [(0, 1), (1, 2), (3, 4)])
        assert g.distance(0, 2) == 2
        with pytest.raises(DisconnectedQuery):
            g.distance(0, 4)

    def test_ball_and_circle(self):
        g = path_graph(7)
        assert g.ball(3, 2) == {1, 2, 3, 4, 5}
        assert g.circle(3, 2) == {1, 5}
        assert g.circle(0, 3) == {3}
        with pytest.raises(PreconditionViolation):
            g.ball(0, -1)

    @pytest.mark.parametrize("vertex", [-1, 3, 10])
    def test_queries_reject_a_vertex_outside_the_graph(self, vertex):
        g = path_graph(3)
        for query in (
            lambda: g.distance(vertex, 0),
            lambda: g.distance(0, vertex),
            lambda: g.ball(vertex, 1),
            lambda: g.circle(vertex, 1),
        ):
            with pytest.raises(PreconditionViolation, match=f"vertex {vertex} is not in 0..2"):
                query()

    def test_max_valency(self):
        assert path_graph(5).max_valency() == 2
        assert FiniteGraph(1, []).max_valency() == 0

    def test_circle_growth_is_valency_bounded(self):
        rng = random.Random(3)
        g = random_degree_capped_graph(rng, 60, 4)
        V = g.max_valency()
        for x in range(0, 60, 7):
            for r in range(4):
                assert len(g.circle(x, r + 1)) <= V * max(len(g.circle(x, r)), 1)


def random_split_graph(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Edges drawn inside a few random vertex groups; some vertices stay isolated.

    Pairs repeat and come in either order, to exercise edge collapsing.
    """
    n = rng.randint(1, 24)
    group = [rng.randrange(-1, rng.randint(1, 4)) for _ in range(n)]  # -1: isolated
    edges = []
    for u, v in combinations(range(n), 2):
        if group[u] == group[v] >= 0 and rng.random() < 0.35:
            edges.append((u, v) if rng.random() < 0.5 else (v, u))
    edges += rng.sample(edges, len(edges) // 4)
    return n, edges


def dense_distances(n: int, edges: list[tuple[int, int]]) -> list[list[float]]:
    """All-pairs distances by Floyd-Warshall on a dense matrix; inf between components."""
    D = [[0 if u == v else math.inf for v in range(n)] for u in range(n)]
    for u, v in edges:
        D[u][v] = D[v][u] = 1
    for w in range(n):
        for u in range(n):
            for v in range(n):
                D[u][v] = min(D[u][v], D[u][w] + D[w][v])
    return D


def dense_greedy(D: list[list[float]], A: list[int], l: int, k: int):
    """The greedy dichotomy read off the distance matrix, or None across components."""
    members = sorted(set(A))
    if any(D[u][v] == math.inf for u, v in combinations(members, 2)):
        return None
    chosen = []
    for v in members:
        if all(D[c][v] > l for c in chosen):
            chosen.append(v)
            if len(chosen) == k:
                return SeparatedWitness(tuple(chosen), l)
    return BallCoverCertificate(tuple(chosen), l)


class TestAgainstDenseReference:
    """Sparse queries against a brute-force matrix on graphs with several components."""

    @pytest.mark.parametrize("seed", range(40))
    def test_queries_match_the_dense_reference(self, seed):
        rng = random.Random(seed)
        n, edges = random_split_graph(rng)
        g = FiniteGraph(n, edges)
        D = dense_distances(n, edges)
        degrees = [sum(d == 1 for d in row) for row in D]
        assert g.m == sum(degrees) // 2
        assert g.max_valency() == max(degrees)
        for u in range(n):
            for v in range(n):
                if D[u][v] == math.inf:
                    with pytest.raises(DisconnectedQuery, match=f"{u} and {v} lie in different components"):
                        g.distance(u, v)
                else:
                    assert g.distance(u, v) == D[u][v]
            for r in range(n + 1):
                assert g.ball(u, r) == {v for v in range(n) if D[u][v] <= r}
                assert g.circle(u, r) == {v for v in range(n) if D[u][v] == r}
        for _ in range(30):
            A = rng.sample(range(n), rng.randint(1, n))
            l, k = rng.randint(1, 3), rng.randint(2, 4)
            expected = dense_greedy(D, A, l, k)
            if expected is None:
                with pytest.raises(DisconnectedQuery, match="query set spans several components"):
                    greedy_separated(g, A, l, k)
            else:
                assert greedy_separated(g, A, l, k) == expected

    def test_the_corpus_has_isolated_vertices_and_split_queries(self):
        isolated = split = 0
        for seed in range(40):
            rng = random.Random(seed)
            n, edges = random_split_graph(rng)
            D = dense_distances(n, edges)
            isolated += sum(all(d == math.inf for v, d in enumerate(row) if v != u) for u, row in enumerate(D))
            split += any(math.inf in row for row in D)
        assert isolated > 40 and split > 30


def test_memory_follows_the_edges_not_the_declared_vertices():
    tracemalloc.start()
    try:
        g = FiniteGraph(200_000, [(0, 1), (1, 2), (5, 6)])
        assert g.distance(0, 2) == 2
        assert g.ball(199_999, 3) == {199_999}
        assert greedy_separated(g, [0, 2], 1, 3) == BallCoverCertificate((0, 2), 1)
        with pytest.raises(DisconnectedQuery):
            greedy_separated(g, [0, 2, 6], 1, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


class CountingAdjacency(dict):
    """An adjacency map that counts the vertices a search expands."""

    expanded = 0

    def get(self, v, default=None):
        self.expanded += 1
        return super().get(v, default)


@pytest.mark.parametrize(
    "query, expanded",
    [
        (lambda g: g.distance(0, 1), 1),
        (lambda g: g.distance(0, 5), 5),
        (lambda g: g.ball(0, 3), 3),
        (lambda g: g.circle(0, 3), 3),
        (lambda g: greedy_separated(g, [0, 1], 1, 2), 2),
    ],
    ids=["distance-1", "distance-5", "ball", "circle", "greedy"],
)
def test_a_query_expands_only_the_layers_it_reads(query, expanded):
    # a whole-component search would expand all 200 000 vertices of the path
    g = path_graph(200_000)
    g.adjacency = counting = CountingAdjacency(g.adjacency)
    query(g)
    count = counting.expanded  # read first, so a failure does not print the map
    assert count == expanded


@pytest.mark.parametrize("r", [2**63 - 1, 2**63, 2**64])
def test_a_radius_beyond_every_layer_reads_the_whole_component(r):
    g = FiniteGraph(8, [(0, 1), (1, 2), (2, 3), (5, 6)])
    assert g.ball(1, r) == g.ball(1, 3) == {0, 1, 2, 3}
    assert g.circle(1, r) == g.circle(1, 3) == set()
    assert greedy_separated(g, [0, 3], r, 2) == BallCoverCertificate((0,), r)


class TestUlfBound:
    def test_formula(self):
        assert ulf_bound(2, 2, 2) == 1 * (1 + 2 + 4)
        assert ulf_bound(3, 1, 4) == 3 * (1 + 3)
        with pytest.raises(PreconditionViolation):
            ulf_bound(2, 0, 2)
        with pytest.raises(PreconditionViolation):
            ulf_bound(2, 2, 1)


class TestGreedySeparated:
    def test_preconditions(self):
        g = path_graph(4)
        with pytest.raises(PreconditionViolation):
            greedy_separated(g, [0, 3], 0, 2)
        with pytest.raises(PreconditionViolation):
            greedy_separated(g, [0, 3], 1, 1)

    def test_disconnected_query(self):
        g = FiniteGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedQuery):
            greedy_separated(g, [0, 3], 1, 2)
        assert issubclass(DisconnectedQuery, PreconditionViolation)  # so the CLI exits 3

    @pytest.mark.parametrize("vertex", [-1, 3])
    def test_rejects_a_vertex_outside_the_graph(self, vertex):
        # -1 would otherwise alias vertex 2 and enter a certificate
        with pytest.raises(PreconditionViolation, match=f"vertex {vertex} is not in 0..2"):
            greedy_separated(path_graph(3), [0, vertex], 1, 2)

    def test_witness_on_a_long_path(self):
        g = path_graph(30)
        result = greedy_separated(g, range(30), 3, 4)
        assert isinstance(result, SeparatedWitness)
        for u, v in combinations(result.vertices, 2):
            assert g.distance(u, v) > 3

    def test_cover_on_a_short_path(self):
        g = path_graph(6)
        result = greedy_separated(g, range(6), 5, 2)
        assert isinstance(result, BallCoverCertificate)
        assert len(result.centers) <= 1
        covered = set().union(*(g.ball(c, 5) for c in result.centers))
        assert set(range(6)) <= covered

    def test_path_counting_bound(self):
        # any subset of the integer path larger than (l+2)k forces a witness
        rng = random.Random(5)
        g = path_graph(120)
        for _ in range(50):
            l, k = rng.randint(1, 4), rng.randint(2, 4)
            size = (l + 2) * k + 1
            A = rng.sample(range(120), size)
            result = greedy_separated(g, A, l, k)
            assert isinstance(result, SeparatedWitness), (l, k, sorted(A))

    def test_valency_counting_bound(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_degree_capped_graph(rng, 80, 3)
            l, k = rng.randint(1, 2), rng.randint(2, 3)
            bound = ulf_bound(g.max_valency(), l, k)
            if bound + 1 > g.n:
                continue
            A = rng.sample(range(g.n), bound + 1)
            result = greedy_separated(g, A, l, k)
            assert isinstance(result, SeparatedWitness), (l, k, bound)
