"""Uniform local finiteness on ordinary finite graphs.

Implements the counting side of the story: valency bounds, balls and
circles, the greedy separated-set / ball-cover dichotomy, and the
resulting threshold (k-1) * sum_{i<=l} V^i above which a separated
witness is guaranteed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import DisconnectedQuery, PreconditionViolation, parse_lines


def _int_pair(text: str) -> tuple[int, int]:
    u, v = (int(tok) for tok in text.split())
    return u, v


class FiniteGraph:
    """Simple undirected graph with sorted neighbor lists."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        neighbor_sets: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if v not in neighbor_sets[u]:
                m += 1
            neighbor_sets[u].add(v)
            neighbor_sets[v].add(u)
        self.n = n
        self.m = m
        self.adjacency = [sorted(s) for s in neighbor_sets]
        self._component = self._label_components()

    def _label_components(self) -> list[int]:
        label = [-1] * self.n
        current = 0
        for start in range(self.n):
            if label[start] >= 0:
                continue
            label[start] = current
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for w in self.adjacency[v]:
                    if label[w] < 0:
                        label[w] = current
                        queue.append(w)
            current += 1
        return label

    @property
    def component_labels(self) -> Sequence[int]:
        return self._component

    def same_component(self, u: int, v: int) -> bool:
        self._require_vertex(u)
        self._require_vertex(v)
        return self._component[u] == self._component[v]

    def _require_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise PreconditionViolation(f"vertex {v} is not in 0..{self.n - 1}")

    @classmethod
    def parse(cls, lines: Iterable[str]) -> "FiniteGraph":
        """Graph file format: first line "n m", then m lines "u v"."""
        rows = parse_lines(lines, _int_pair)
        if not rows:
            raise ValueError("empty graph file")
        n, m = rows[0]
        edges = rows[1:]
        if len(edges) != m:
            raise ValueError(f"expected {m} edges, found {len(edges)}")
        return cls(n, edges)

    def _bfs(self, source: int, cutoff: Optional[int] = None) -> dict[int, int]:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            if cutoff is not None and dist[v] >= cutoff:
                continue
            for w in self.adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    def distance(self, u: int, v: int) -> int:
        if not self.same_component(u, v):
            raise DisconnectedQuery(f"{u} and {v} lie in different components")
        return self._bfs(u)[v]

    def ball(self, x: int, r: int) -> set[int]:
        self._require_vertex(x)
        if r < 0:
            raise PreconditionViolation("radius must be nonnegative")
        return set(self._bfs(x, cutoff=r))

    def circle(self, x: int, r: int) -> set[int]:
        self._require_vertex(x)
        if r < 0:
            raise PreconditionViolation("radius must be nonnegative")
        return {v for v, d in self._bfs(x, cutoff=r).items() if d == r}

    def max_valency(self) -> int:
        return max((len(nbrs) for nbrs in self.adjacency), default=0)


def ulf_bound(valency: int, l: int, k: int) -> int:
    """(k-1) * sum_{i=0..l} valency^i: the separated-set threshold."""
    if l <= 0:
        raise PreconditionViolation("l must be positive")
    if k <= 1:
        raise PreconditionViolation("k must exceed 1")
    return (k - 1) * sum(valency**i for i in range(l + 1))


@dataclass(frozen=True)
class BallCoverCertificate:
    """Centers whose radius-l balls cover the queried vertex set."""

    centers: tuple[int, ...]
    radius: int


@dataclass(frozen=True)
class SeparatedWitness:
    """k vertices pairwise more than l apart."""

    vertices: tuple[int, ...]
    separation: int


GreedyResult = SeparatedWitness | BallCoverCertificate


def greedy_separated(
    graph: FiniteGraph, A: Iterable[int], l: int, k: int
) -> GreedyResult:
    """Grow a maximal pairwise->l subset of A in ascending vertex order.

    Reaching size k yields a witness; otherwise maximality means the
    chosen vertices cover A at radius l, so they come back as a cover
    certificate with at most k-1 centers.
    """
    if l <= 0:
        raise PreconditionViolation("l must be positive")
    if k <= 1:
        raise PreconditionViolation("k must exceed 1")
    members = sorted(set(A))
    for v in members:
        graph._require_vertex(v)
    if len({graph.component_labels[v] for v in members}) > 1:
        raise DisconnectedQuery("query set spans several components")
    chosen: list[int] = []
    chosen_balls: list[set[int]] = []
    for v in members:
        if any(v in ball for ball in chosen_balls):
            continue
        chosen.append(v)
        if len(chosen) == k:
            return SeparatedWitness(tuple(chosen), l)
        chosen_balls.append(graph.ball(v, l))
    return BallCoverCertificate(tuple(chosen), l)

