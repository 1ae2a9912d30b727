"""Exact model of the genus-one curve graphs as the Farey graph.

Vertices are reduced slopes p/q (with 1/0 for the vertical curve), edges
join slopes whose determinant is +-1.  The graph is locally infinite, so
distance and geodesic queries run inside a finite candidate set built from
the Farey-tessellation triangles crossed by the hyperbolic line between
the endpoints; the companion :mod:`fareyulfp.boxgraph` oracle is used by
the test suite to certify that this restriction loses nothing.

Distance runs on plain integers, one Euclidean step per partial quotient
of the normalized target.  The strip's vertices appear in Stern-Brocot
order, and each new mediant is adjacent to exactly two earlier ones, the
bracketing pair lo, hi.  That pair separates it and everything after it
from 1/0, so its strip distance is 1 + min(d(lo), d(hi)); a run of
mediants on one side has the closed form in :func:`_distance_normalized`.
Geodesics and the hull cost time linear in the walk, the sum of the
partial quotients, and check their closure distance against this one.

Geodesics are searched in the candidate closure: the pivot strip (the
crossed triangles, whose edges the Stern-Brocot walk lists) plus the third
vertex of each triangle on a strip edge.  An edge u -- w bounds exactly two
triangles, with third vertices u + w and u - w, so the closure graph is read
off the walk in time linear in its length.  It misses no Farey edge between
closure vertices.  The strip is an ideal polygon triangulated by its walk
edges, and Farey edges never cross.  An edge joining two pivots therefore
lies in the polygon and is one of its walk edges.  An added vertex z sits
across a boundary edge u -- w, alone in the arc that edge cuts off, so an
edge from z to any other closure vertex would cross u -- w unless it ends at
u or w.  The test suite checks this graph against a determinant scan of
every vertex pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable

from .errors import InternalCheckFailure, PreconditionViolation, parse_lines


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


def _normalized_walk(t: Slope) -> tuple[list[Slope], list[tuple[Slope, Slope]]]:
    """Pivot vertices and triangle edges for the line from 1/0 to t.

    Works in the chart where the first endpoint is infinity.  The walk
    descends the Stern-Brocot tree by mediants; every vertex of every
    tessellation triangle crossed by the line shows up, together with the
    edges of those triangles.
    """
    p, q = t.p, t.q
    m = p // q
    pivots = [INFINITY]
    edges: list[tuple[Slope, Slope]] = []
    if q == 1:
        # adjacent endpoints: both triangles sharing the edge 1/0 -- t
        lo, me, hi = Slope(m - 1, 1), Slope(m, 1), Slope(m + 1, 1)
        pivots += [lo, me, hi]
        edges += [(INFINITY, lo), (INFINITY, me), (INFINITY, hi), (lo, me), (me, hi)]
        return pivots, edges
    lo = (m, 1)
    hi = (m + 1, 1)
    lo_s, hi_s = Slope(*lo), Slope(*hi)
    pivots += [lo_s, hi_s]
    edges += [(INFINITY, lo_s), (INFINITY, hi_s), (lo_s, hi_s)]
    while True:
        med = (lo[0] + hi[0], lo[1] + hi[1])
        med_s = Slope(*med)
        pivots.append(med_s)
        edges += [(Slope(*lo), med_s), (med_s, Slope(*hi))]
        if med == (p, q):
            return pivots, edges
        if med[0] * q < p * med[1]:
            lo = med
        else:
            hi = med


def pivot_candidates(x: Slope, y: Slope) -> frozenset[Slope]:
    """Vertices of all tessellation triangles crossed by the line x -- y."""
    if x == y:
        raise PreconditionViolation("pivot_candidates requires distinct slopes")
    g = normalizer_to_infinity(x)
    ginv = g.inverse()
    pivots, _ = _normalized_walk(apply(g, y))
    return frozenset(apply(ginv, v) for v in pivots)


def _bfs(adjacency: dict[Slope, Iterable[Slope]], source: Slope) -> dict[Slope, int]:
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
    """Curve-graph distance, computed along the pivot strip.

    The locally infinite graph is searched only along the tessellation
    strip between the endpoints, in time linear in the number of
    continued-fraction terms of the normalized target; the test suite
    certifies agreement with an exhaustive breadth-first oracle on
    denominator boxes.
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

    The closure is the pivot strip plus the third vertex of each triangle on
    a strip edge.  The edge u -- w bounds the two triangles with third
    vertices u + w and u - w, so the graph is read off the walk in linear
    time; the module docstring explains why it misses no Farey edge.
    """
    _, edges = _normalized_walk(t)
    adjacency: dict[Slope, set[Slope]] = {}
    for u, w in edges:
        adjacency.setdefault(u, set()).add(w)
        adjacency.setdefault(w, set()).add(u)
        for p, q in ((u.p + w.p, u.q + w.q), (u.p - w.p, u.q - w.q)):
            # det(u, w) = +-1 makes (p, q) reduced; only its sign needs fixing
            v = INFINITY if q == 0 else Slope(p, q) if q > 0 else Slope(-p, -q)
            adjacency.setdefault(v, set()).update((u, w))
            adjacency[u].add(v)
            adjacency[w].add(v)
    return adjacency


@lru_cache(maxsize=1 << 13)
def _geodesics_normalized(t: Slope) -> tuple[tuple[Slope, ...], ...]:
    """All geodesics from 1/0 to t with vertices in the candidate closure."""
    adjacency = _closure_adjacency(t)
    to_target = _bfs(adjacency, t)
    d = to_target.get(INFINITY)
    if d is None or d != _distance_normalized(t):
        raise InternalCheckFailure(
            f"candidate closure disagrees with strip distance for {t}"
        )
    paths: list[tuple[Slope, ...]] = []

    def descend(v: Slope, prefix: list[Slope]) -> None:
        if v == t:
            paths.append(tuple(prefix))
            return
        level = to_target[v]
        for w in adjacency[v]:
            if to_target.get(w) == level - 1:
                prefix.append(w)
                descend(w, prefix)
                prefix.pop()

    descend(INFINITY, [INFINITY])
    del descend  # the closure refers to itself; clearing it frees the graph now
    return tuple(sorted(paths))


def geodesics(x: Slope, y: Slope) -> frozenset[Geodesic]:
    """All geodesics between x and y found in the candidate closure.

    Closure completeness is an engineering hypothesis, not a theorem; the
    test suite cross-validates against exhaustive path enumeration.
    """
    if x == y:
        return frozenset({Geodesic((x,))})
    g = normalizer_to_infinity(x)
    ginv = g.inverse()
    out = set()
    for path in _geodesics_normalized(apply(g, y)):
        out.add(Geodesic(tuple(apply(ginv, v) for v in path)))
    return frozenset(out)


def link_at_distance(x: Slope, target: Slope, d: int) -> frozenset[Slope]:
    """Neighbors of x, within the candidate closure, at distance d from target."""
    if d < 0:
        raise PreconditionViolation("distance must be nonnegative")
    if x == target:
        return frozenset()
    g = normalizer_to_infinity(x)
    ginv = g.inverse()
    t = apply(g, target)
    return frozenset(
        apply(ginv, v) for v in _closure_adjacency(t)[INFINITY] if distance(v, t) == d
    )


def _hull(adjacency: dict[Slope, Iterable[Slope]], t: Slope, d: int) -> frozenset[Slope]:
    """Vertices v of the graph with d(1/0, v) + d(v, t) = d, read off two level maps."""
    if INFINITY not in adjacency or t not in adjacency:
        return frozenset()
    up = _bfs(adjacency, t)
    return frozenset(v for v, i in _bfs(adjacency, INFINITY).items() if i + up.get(v, d + 1) == d)


@lru_cache(maxsize=1 << 13)
def _hull_normalized(t: Slope) -> frozenset[Slope]:
    """Vertices of the geodesics from 1/0 to t in the candidate closure."""
    hull = _hull(_closure_adjacency(t), t, _distance_normalized(t))
    if INFINITY not in hull:
        raise InternalCheckFailure(f"candidate closure disagrees with strip distance for {t}")
    return hull


def geodesic_vertices(x: Slope, y: Slope) -> frozenset[Slope]:
    """The v with d(x, v) + d(v, y) = d(x, y) in the closure; no path is enumerated."""
    if x == y:
        return frozenset({x})
    g = normalizer_to_infinity(x)
    return frozenset(apply(g.inverse(), v) for v in _hull_normalized(apply(g, y)))


def geodesic_vertices_within(x: Slope, y: Slope, allowed: Iterable[Slope]) -> frozenset[Slope]:
    """The vertices of the x -- y geodesics whose vertices all lie in ``allowed``."""
    keep = geodesic_vertices(x, y).intersection(allowed)
    if x == y:
        return keep
    g = normalizer_to_infinity(x)
    t, chart = apply(g, y), {apply(g, v) for v in keep}
    adjacency = {v: ws & chart for v, ws in _closure_adjacency(t).items() if v in chart}
    return frozenset(apply(g.inverse(), v) for v in _hull(adjacency, t, _distance_normalized(t)))


def random_neighbor(x: Slope, offset: int) -> Slope:
    """The neighbor of x sitting at the given integer in its chart."""
    g = normalizer_to_infinity(x)
    return apply(g.inverse(), Slope(offset, 1))


def parse_slope_file(lines: Iterable[str]) -> list[Slope]:
    """Slope-list format: one "p/q" per line, "#" starts a comment."""
    return parse_lines(lines, Slope.parse)
