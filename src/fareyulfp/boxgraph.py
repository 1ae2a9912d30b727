"""Brute-force Farey graph on a denominator box.

Independent oracle for the pivot-strip search in :mod:`fareyulfp.farey`:
vertices are all reduced slopes with |p|, q <= bound (plus 1/0), adjacency
is computed directly from the determinant condition, and distances come
from plain breadth-first search.  Disagreement between the two routes is
a hard failure, never silently resolved.

The maps x -> -x, 1/x and -1/x, the integer matrices (-1, 0; 0, 1),
(0, 1; 1, 0) and (0, -1; 1, 0), generate a group of order four that acts
on the box: each sends {1/0} and the slopes with |p|, q <= bound onto
themselves.  A matrix of determinant +-1 keeps |det(v, w)|, so each map
keeps adjacency and d(x, y) = d(gx, gy).  One search per orbit of this
group therefore fills every distance map: the others are permutations of
a searched map.  The oracle stays independent of ``farey``: it uses three
fixed matrices of the box, not the Bezout normalizer, and every map
still comes from a breadth-first search on the box.
"""

from __future__ import annotations

import math
import operator
from array import array

from .farey import INFINITY, Slope


class BoxGraph:
    """Induced Farey subgraph on the box |p| <= bound, 0 <= q <= bound."""

    def __init__(self, bound: int):
        if bound < 1:
            raise ValueError("bound must be positive")
        self.bound = bound
        vertices = [INFINITY]
        for q in range(1, bound + 1):
            for p in range(-bound, bound + 1):
                if math.gcd(p, q) == 1:
                    vertices.append(Slope(p, q))
        self.vertices = vertices
        self.index = {v: i for i, v in enumerate(vertices)}
        self._adjacency = [self._solve_neighbors(v) for v in vertices]
        self._dist_cache: dict[int, array] = {}
        # (image, permute) per symmetry g: image[i] is the index of g(vertices[i]),
        # and permute reads a map from g(src) as the map from src
        self._symmetries = []
        for a, b, c, d in ((-1, 0, 0, 1), (0, 1, 1, 0), (0, -1, 1, 0)):
            image = []
            for v in vertices:
                r, s = a * v.p + b * v.q, c * v.p + d * v.q
                if s < 0 or (s == 0 and r < 0):
                    r, s = -r, -s
                image.append(self.index[Slope(r, s)])
            self._symmetries.append((image, operator.itemgetter(*image)))

    def _solve_neighbors(self, v: Slope) -> list[int]:
        """All box slopes w with |det(v, w)| = 1, by the Bezout line."""
        bound = self.bound
        found = set()
        if v.is_infinity:
            for n in range(-bound, bound + 1):
                found.add(self.index[Slope(n, 1)])
            return sorted(found)
        p, q = v.p, v.q
        s0 = pow(p, -1, q) if q > 1 else 0
        r0 = (p * s0 - 1) // q
        # p*(s0 + t*q) - q*(r0 + t*p) = 1; both determinant signs arise
        # after canonicalizing the sign of the denominator.
        t_lo = -((bound + s0) // q)
        t_hi = (bound - s0) // q
        for t in range(t_lo, t_hi + 1):
            r, s = r0 + t * p, s0 + t * q
            if s < 0 or (s == 0 and r < 0):
                r, s = -r, -s
            if s == 0:
                found.add(self.index[INFINITY])
            elif abs(r) <= bound and s <= bound:
                found.add(self.index[Slope(r, s)])
        return sorted(found)

    def neighbors(self, v: Slope) -> list[Slope]:
        return [self.vertices[i] for i in self._adjacency[self.index[v]]]

    def distance_map(self, source: Slope) -> array:
        """BFS distances from source to every box vertex (-1 if unreached).

        One signed byte per vertex: box diameters are far below 127, and a
        larger distance raises OverflowError rather than wrap.  A map already
        searched from g(source), for a symmetry g, is permuted instead.
        """
        src = self.index[source]
        cached = self._dist_cache.get(src)
        if cached is not None:
            return cached
        cache = self._dist_cache
        for image, permute in self._symmetries:
            mirror = cache.get(image[src])
            if mirror is not None:
                cached = cache[src] = array("b", bytes(permute(mirror.tobytes())))
                return cached
        cached = cache[src] = self._search(src)
        return cached

    def _search(self, src: int) -> array:
        """The breadth-first distance map from vertex index src."""
        # searched as a list, which indexes faster; 255 is -1 as a signed byte
        dist = [255] * len(self.vertices)
        dist[src] = 0
        frontier = [src]
        adjacency = self._adjacency
        level = 0
        while frontier:
            level += 1
            nxt = []
            for i in frontier:
                for j in adjacency[i]:
                    if dist[j] == 255:
                        dist[j] = level
                        nxt.append(j)
            frontier = nxt
        if level > 128:  # the last level reached is level - 1
            raise OverflowError(f"box distance {level - 1} does not fit in a signed byte")
        return array("b", bytearray(dist))

    def distance(self, x: Slope, y: Slope) -> int:
        d = self.distance_map(y)[self.index[x]]
        if d < 0:
            raise RuntimeError(f"box graph does not connect {x} to {y}")
        return d

    def geodesics(self, x: Slope, y: Slope) -> set[tuple[Slope, ...]]:
        """Exhaustive shortest-path enumeration inside the box."""
        if x == y:
            return {(x,)}
        to_target = self.distance_map(y)
        start = self.index[x]
        if to_target[start] < 0:
            raise RuntimeError(f"box graph does not connect {x} to {y}")
        paths: set[tuple[Slope, ...]] = set()
        adjacency = self._adjacency
        vertices = self.vertices

        def descend(i: int, prefix: list[Slope]) -> None:
            if to_target[i] == 0:
                paths.add(tuple(prefix))
                return
            for j in adjacency[i]:
                if to_target[j] == to_target[i] - 1:
                    prefix.append(vertices[j])
                    descend(j, prefix)
                    prefix.pop()

        descend(start, [x])
        del descend  # the closure refers to itself; clearing it frees the walk now
        return paths
