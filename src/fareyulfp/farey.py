"""Exact model of the genus-one curve graphs as the Farey graph.

Vertices are reduced slopes p/q (with 1/0 for the vertical curve), edges
join slopes whose determinant is +-1.  A query moves its first endpoint to
1/0 by a Mobius map and works in that chart, toward a target t.  Distance
takes one Euclidean step per partial quotient of t, on plain integers.

Everything else about geodesics is read off one cached ladder per target:
level i holds the v with d(1/0, v) = i and d(v, t) = d - i, at most two of
them, and the ladder keeps nothing else.  Its edges are the Farey-adjacent
pairs on consecutive levels: a geodesic to v on level i, the edge v -- w to
w on level i + 1 and a geodesic from w make a path of length d, so a
geodesic; and the closure below misses no Farey edge between its vertices.
The geodesics are its walks down, their number a sum up it, and the hull
the union of its levels.  Building it costs time linear in the Stern-Brocot
walk, the sum of the partial quotients, and its distance is checked
against the Euclidean one.

It is built on the candidate closure: the pivot strip (the crossed
triangles, whose edges the walk lists) plus the third vertex, u + w or
u - w, of each triangle on a strip edge u -- w, so its graph is read off
the walk.  The closure is complete, by proof.  The strip is an ideal
polygon triangulated by its walk edges, and Farey edges never cross, so an
edge joining two pivots is a walk edge.  An added vertex sits alone in the
arc that its edge u -- w cuts off, and every edge out of that arc ends at u
or w.  So the closure misses no Farey edge between its vertices, and no
geodesic leaves the strip: a path enters the arc from u or w and returns to
u or w at least two steps later, though d(u, w) = 1.  The tests check it
against a determinant scan and the box oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator

from .errors import InternalCheckFailure, parse_lines


class SurfaceKind(Enum):
    TORUS_1_1 = "torus"
    SPHERE_0_4 = "sphere"

    @property
    def intersection_factor(self) -> int:
        # slopes on the four-holed sphere meet twice per lattice crossing
        return 1 if self is SurfaceKind.TORUS_1_1 else 2

    @property
    def twist_shift(self) -> int:
        # unit shears per full twist in the normalized chart
        return 1 if self is SurfaceKind.TORUS_1_1 else 2


@dataclass(frozen=True, order=True, slots=True)
class Slope:
    """A reduced rational p/q with q >= 0; 1/0 encodes infinity."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.q < 0:
            raise ValueError(f"denominator must be nonnegative: {self.p}/{self.q}")
        if self.q == 0:
            if self.p != 1:
                raise ValueError(f"infinity must be written 1/0, got {self.p}/0")
        elif math.gcd(self.p, self.q) != 1:
            raise ValueError(f"slope not reduced: {self.p}/{self.q}")

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"

    @property
    def is_infinity(self) -> bool:
        return self.q == 0

    @classmethod
    def parse(cls, text: str) -> "Slope":
        """Parse "p/q" (or a bare integer) into a canonical slope."""
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return canonical(int(num), int(den))
        return canonical(int(text), 1)


INFINITY = Slope(1, 0)


def canonical(p: int, q: int) -> Slope:
    """Reduce (p, q) to the canonical representative with q >= 0."""
    if p == 0 and q == 0:
        raise ValueError("(0, 0) does not represent a slope")
    if q < 0:
        p, q = -p, -q
    if q == 0:
        return INFINITY
    g = math.gcd(p, q)
    return Slope(p // g, q // g)


def det(x: Slope, y: Slope) -> int:
    return x.p * y.q - x.q * y.p


def intersection(kind: SurfaceKind, x: Slope, y: Slope) -> int:
    """Geometric intersection number of two slopes on the given surface."""
    return kind.intersection_factor * abs(det(x, y))


def adjacent(x: Slope, y: Slope) -> bool:
    """Farey adjacency; the same graph underlies both xi = 1 surfaces."""
    return abs(det(x, y)) == 1


@dataclass(frozen=True, slots=True)
class MobiusMap:
    """Integer 2x2 matrix of determinant +-1 acting on slopes."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.a * self.d - self.b * self.c not in (1, -1):
            raise ValueError(f"determinant must be +-1: {self}")

    @property
    def determinant(self) -> int:
        return self.a * self.d - self.b * self.c

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """Matrix product self * other (apply other first)."""
        return MobiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MobiusMap":
        # projectively correct for determinant -1 as well
        return MobiusMap(self.d, -self.b, -self.c, self.a)


IDENTITY = MobiusMap(1, 0, 0, 1)


def apply(m: MobiusMap, x: Slope) -> Slope:
    """Action of a Mobius map on a slope; a Farey-graph automorphism."""
    return canonical(m.a * x.p + m.b * x.q, m.c * x.p + m.d * x.q)


@lru_cache(maxsize=1 << 16)
def normalizer_to_infinity(x: Slope) -> MobiusMap:
    """The canonical map g with apply(g, x) = 1/0.

    For x = p/q with q > 0 the Bezout pair (u, v) with p*v - q*u = 1 is
    pinned down by 0 <= v < q (v = p^{-1} mod q), which makes every
    downstream twist coordinate reproducible.  The identity is returned
    for x = 1/0.
    """
    if x.is_infinity:
        return IDENTITY
    p, q = x.p, x.q
    v = pow(p, -1, q)
    u = (p * v - 1) // q
    return MobiusMap(v, -u, -q, p)


def _conjugated_shear(x: Slope, shift: int, y: Slope) -> Slope:
    g = normalizer_to_infinity(x)
    sheared = apply(g, y)
    sheared = canonical(sheared.p + shift * sheared.q, sheared.q)
    return apply(g.inverse(), sheared)


def dehn_twist(kind: SurfaceKind, x: Slope, n: int, y: Slope) -> Slope:
    """n-fold full twist along x applied to y."""
    return _conjugated_shear(x, n * kind.twist_shift, y)


def half_twist(x: Slope, n: int, y: Slope) -> Slope:
    """n-fold half twist along x; two half twists make one sphere twist."""
    return _conjugated_shear(x, n, y)


def _normalized_walk(t: Slope) -> list[tuple[Slope, Slope]]:
    """Triangle edges for the line from 1/0 to t.

    Works in the chart where the first endpoint is infinity.  The walk
    descends the Stern-Brocot tree by mediants; every vertex of every
    tessellation triangle crossed by the line shows up, together with the
    edges of those triangles.
    """
    p, q = t.p, t.q
    m = p // q
    if q == 1:
        # adjacent endpoints: both triangles sharing the edge 1/0 -- t
        lo, me, hi = Slope(m - 1, 1), Slope(m, 1), Slope(m + 1, 1)
        return [(INFINITY, lo), (INFINITY, me), (INFINITY, hi), (lo, me), (me, hi)]
    lo = (m, 1)
    hi = (m + 1, 1)
    lo_s, hi_s = Slope(*lo), Slope(*hi)
    edges = [(INFINITY, lo_s), (INFINITY, hi_s), (lo_s, hi_s)]
    while True:
        med = (lo[0] + hi[0], lo[1] + hi[1])
        med_s = Slope(*med)
        edges += [(Slope(*lo), med_s), (med_s, Slope(*hi))]
        if med == (p, q):
            return edges
        if med[0] * q < p * med[1]:
            lo = med
        else:
            hi = med


def _distance_normalized(t: Slope) -> int:
    """Distance from 1/0 to t along the pivot strip, one step per partial quotient.

    t = above*lo + below*hi for its bracketing Farey neighbours lo < t < hi,
    which start as floor(t) and floor(t) + 1, at distance 1.  While
    above > below the next k mediants replace hi; a run whose fixed end has
    distance A and whose moving end starts at x0 ends at min(x0 + k, A + 1),
    because adjacent vertices differ in distance by at most 1.  Symmetrically
    for lo; at above = below the next mediant is t.
    """
    p, q = t.p, t.q
    if q == 1:
        return 1
    below = p % q
    above = q - below
    d_lo = d_hi = 1
    while above != below:
        if above > below:
            k = (above - 1) // below
            above -= k * below
            d_hi = min(d_hi + k, d_lo + 1)
        else:
            k = (below - 1) // above
            below -= k * above
            d_lo = min(d_lo + k, d_hi + 1)
    return 1 + min(d_lo, d_hi)


def distance(x: Slope, y: Slope) -> int:
    """Curve-graph distance, one Euclidean step per continued-fraction term.

    The test suite certifies it against an exhaustive breadth-first oracle
    on denominator boxes.
    """
    if x == y:
        return 0
    if adjacent(x, y):
        return 1
    return _distance_normalized(apply(normalizer_to_infinity(x), y))


@dataclass(frozen=True, order=True, slots=True)
class Geodesic:
    """A certified geodesic: consecutive vertices adjacent, length minimal."""

    vertices: tuple[Slope, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 1:
            raise ValueError("a geodesic has at least one vertex")
        for u, w in zip(self.vertices, self.vertices[1:]):
            if not adjacent(u, w):
                raise ValueError(f"vertices not adjacent: {u}, {w}")
        if len(self.vertices) - 1 != distance(self.vertices[0], self.vertices[-1]):
            raise ValueError("sequence is longer than the endpoint distance")

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def start(self) -> Slope:
        return self.vertices[0]

    @property
    def end(self) -> Slope:
        return self.vertices[-1]

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.vertices)

    @classmethod
    def parse(cls, text: str) -> "Geodesic":
        return cls(tuple(Slope.parse(part) for part in text.split(",")))


def _closure_adjacency(t: Slope) -> dict[Slope, set[Slope]]:
    """The Farey graph on the candidate closure for 1/0 -- t, in the chart.

    Each walk edge u -- w and its two triangles, with third vertices u + w
    and u - w; the module docstring explains why no Farey edge is missed.
    """
    adjacency: dict[Slope, set[Slope]] = {}
    for u, w in _normalized_walk(t):
        adjacency.setdefault(u, set()).add(w)
        adjacency.setdefault(w, set()).add(u)
        for p, q in ((u.p + w.p, u.q + w.q), (u.p - w.p, u.q - w.q)):
            # det(u, w) = +-1 makes (p, q) reduced; only its sign needs fixing
            v = INFINITY if q == 0 else Slope(p, q) if q > 0 else Slope(-p, -q)
            adjacency.setdefault(v, set()).update((u, w))
            adjacency[u].add(v)
            adjacency[w].add(v)
    return adjacency


Levels = tuple[tuple[Slope, ...], ...]


@lru_cache(maxsize=1 << 13)
def _hull_normalized(t: Slope) -> Levels:
    """The geodesic ladder from 1/0 to t in the candidate closure, in the chart.

    Level i holds, unsorted, the v with d(1/0, v) = i and d(v, t) = d - i.
    """
    adjacency = _closure_adjacency(t)
    to_target, queue = {t: 0}, [t]
    for v in queue:  # the queue grows while it is read, in breadth-first order
        for w in adjacency[v]:
            if w not in to_target:
                to_target[w] = to_target[v] + 1
                queue.append(w)
    d = to_target.get(INFINITY)
    if d is None or d != _distance_normalized(t):
        raise InternalCheckFailure(f"candidate closure disagrees with strip distance for {t}")
    levels = [(INFINITY,)]
    for i in range(d - 1, -1, -1):
        levels.append(tuple({w for v in levels[-1] for w in adjacency[v] if to_target[w] == i}))
    return tuple(levels)


def geodesic_levels(x: Slope, y: Slope) -> Levels:
    """The hull of x and y by distance from x: level i holds its v with d(x, v) = i, sorted.

    The ladder's edges are the Farey-adjacent pairs on consecutive levels.
    """
    if x == y:
        return ((x,),)
    g = normalizer_to_infinity(x)
    ginv = g.inverse()
    return tuple(
        tuple(sorted(apply(ginv, v) for v in level)) for level in _hull_normalized(apply(g, y))
    )


def _ladder_paths(levels: Levels) -> Iterator[tuple[Slope, ...]]:
    """The geodesics of a ladder as vertex tuples, lazily and in sorted order."""
    stack = [levels[0]]
    while stack:
        path = stack.pop()
        if len(path) == len(levels):
            yield path
            continue
        # push the least successor last, so that it is walked first
        for w in reversed(levels[len(path)]):
            if adjacent(path[-1], w):
                stack.append(path + (w,))


def geodesics(x: Slope, y: Slope) -> frozenset[Geodesic]:
    """All geodesics between x and y, walked down the ladder; the module
    docstring proves that the candidate closure under it holds them all."""
    return frozenset(Geodesic(path) for path in _ladder_paths(geodesic_levels(x, y)))


def geodesic_listing(x: Slope, y: Slope, limit: int) -> tuple[int, list[Geodesic]]:
    """The number of x -- y geodesics, summed up the ladder, and the least ``limit`` of them."""
    levels = geodesic_levels(x, y)
    ways = {y: 1}
    for level in reversed(levels[:-1]):
        ways = {v: sum(n for w, n in ways.items() if adjacent(v, w)) for v in level}
    return ways[x], [Geodesic(path) for path in islice(_ladder_paths(levels), limit)]


def geodesic_vertices(x: Slope, y: Slope) -> frozenset[Slope]:
    """The v with d(x, v) + d(v, y) = d(x, y) in the closure; no path is enumerated."""
    return frozenset(v for level in geodesic_levels(x, y) for v in level)


def geodesic_vertices_within(x: Slope, y: Slope, allowed: Iterable[Slope]) -> frozenset[Slope]:
    """The vertices of the x -- y geodesics whose vertices all lie in ``allowed``.

    The ladder is pruned forward to the vertices reached from x through
    allowed ones, then backward to those that still reach y.
    """
    allowed = set(allowed)
    levels = geodesic_levels(x, y)
    reached = [allowed.intersection(levels[0])]
    for level in levels[1:]:
        reached.append({w for w in level if w in allowed and any(adjacent(v, w) for v in reached[-1])})
    alive = [reached.pop()]
    for level in reversed(reached):
        alive.append({v for v in level if any(adjacent(v, w) for w in alive[-1])})
    return frozenset().union(*alive)


def random_neighbor(x: Slope, offset: int) -> Slope:
    """The neighbor of x sitting at the given integer in its chart."""
    g = normalizer_to_infinity(x)
    return apply(g.inverse(), Slope(offset, 1))


def parse_slope_file(lines: Iterable[str]) -> list[Slope]:
    """Slope-list format: one "p/q" per line, "#" starts a comment."""
    return parse_lines(lines, Slope.parse)
