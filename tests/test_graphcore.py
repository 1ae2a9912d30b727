"""Finite-graph local finiteness: balls, greedy dichotomy, counting bound."""

from __future__ import annotations

import random
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
        assert g.same_component(0, 2) and not g.same_component(0, 3)
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

    @pytest.mark.parametrize("vertex", [-1, 3, 10])
    def test_same_component_rejects_a_vertex_outside_the_graph(self, vertex):
        # -1 would alias the last vertex, and 3 index past the labels
        g = path_graph(3)
        for query in (lambda: g.same_component(vertex, 0), lambda: g.same_component(0, vertex)):
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
