"""Uniform local finiteness on ordinary finite graphs.

Implements the counting side of the story: valency bounds, balls and
circles, the greedy separated-set / ball-cover dichotomy, and the
resulting threshold (k-1) * sum_{i<=l} V^i above which a separated
witness is guaranteed.  Every query reads one breadth-first search layer
by layer and stops at the last layer it needs, so its cost follows the
layers it reads, not the component it lies in.  Each layer costs one
generator step and one new list, so a query that must read a whole
component of many thin layers (a distance along a long path, or a
disconnected query) runs somewhat slower than one plain queue would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DisconnectedQuery, PreconditionViolation, parse_lines, require_l_and_k


def _int_pair(text: str) -> tuple[int, int]:
    u, v = (int(tok) for tok in text.split())
    return u, v


class FiniteGraph:
    """Simple undirected graph on 0..n-1 with sorted neighbor lists.

    Only vertices with an edge get a list, so memory follows the edges,
    not the declared vertex count.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        neighbor_sets: dict[int, set[int]] = {}
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            neighbor_sets.setdefault(u, set()).add(v)
            neighbor_sets.setdefault(v, set()).add(u)
        self.n = n
        self.adjacency = {v: sorted(s) for v, s in neighbor_sets.items()}
        self.m = sum(map(len, self.adjacency.values())) // 2

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

    def _layers(self, source: int) -> Iterator[list[int]]:
        """The vertices at distance 0, 1, 2, ... from a validated source; a
        layer is expanded only when the next one is asked for."""
        seen, layer = {source}, [source]
        while layer:
            yield layer
            frontier = []
            for v in layer:
                for w in self.adjacency.get(v, ()):
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
            layer = frontier

    def distance(self, u: int, v: int) -> int:
        self._require_vertex(u)
        self._require_vertex(v)
        for d, layer in enumerate(self._layers(u)):
            if v in layer:
                return d
        raise DisconnectedQuery(f"{u} and {v} lie in different components")

    def ball(self, x: int, r: int) -> set[int]:
        self._require_vertex(x)
        if r < 0:
            raise PreconditionViolation("radius must be nonnegative")
        reached: set[int] = set()
        for d, layer in enumerate(self._layers(x)):
            reached.update(layer)
            if d == r:
                break
        return reached

    def circle(self, x: int, r: int) -> set[int]:
        self._require_vertex(x)
        if r < 0:
            raise PreconditionViolation("radius must be nonnegative")
        for d, layer in enumerate(self._layers(x)):
            if d == r:
                return set(layer)
        return set()

    def max_valency(self) -> int:
        return max(map(len, self.adjacency.values()), default=0)


def ulf_bound(valency: int, l: int, k: int) -> int:
    """(k-1) * sum_{i=0..l} valency^i: the separated-set threshold."""
    require_l_and_k(l, k)
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
    require_l_and_k(l, k)
    members = sorted(set(A))
    for v in members:
        graph._require_vertex(v)
    unseen = set(members)
    for layer in graph._layers(members[0]) if members else ():
        unseen.difference_update(layer)
        if not unseen:
            break
    if unseen:
        raise DisconnectedQuery("query set spans several components")
    chosen: list[int] = []
    covered: set[int] = set()
    for v in members:
        if v in covered:
            continue
        chosen.append(v)
        if len(chosen) == k:
            return SeparatedWitness(tuple(chosen), l)
        covered |= graph.ball(v, l)
    return BallCoverCertificate(tuple(chosen), l)
