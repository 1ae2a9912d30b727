"""Geodesic slices and weak-tight indices on the genus-one curve graphs.

On these surfaces every geodesic is tight, so the slice of a pair (a, b)
near a point c is the part of the geodesic hull of (a, b) within delta of
c.  The weak-tight index of a geodesic is the largest min-side annular gap
of its vertices around the hull of its endpoints (a geodesic between two
of its vertices splices into it).  One table per pair, read off the hull
(``projections.vertex_gaps``), gives every vertex its gap: the index is
its first maximum along the path, and weak-tight slices are hulls of the
vertices with small gaps.  Radius slices over infinite balls are only
ever reported as sampled lower bounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .bounds import (
    DEFAULT_DIGIT_CAP,
    BigBound,
    log10_upper,
    slice_bound,
    surface_for_kind,
)
from .errors import HypothesisViolation, InternalCheckFailure, PreconditionViolation
from .farey import (
    Geodesic,
    Slope,
    SurfaceKind,
    distance,
    geodesic_vertices,
    geodesic_vertices_within,
    random_neighbor,
)
from .projections import first_max_gap, vertex_gaps

DEFAULT_DELTA_HYP = 17  # user-chosen hyperbolicity placeholder, see cli.Config


@dataclass(frozen=True, slots=True)
class SliceQuery:
    a: Slope
    b: Slope
    c: Slope
    delta: int
    r: int = 0

    def __post_init__(self) -> None:
        if self.delta < 0 or self.r < 0:
            raise PreconditionViolation("delta and r must be nonnegative")


@dataclass(frozen=True)
class WeakTightReport:
    index: int
    attaining: Optional[tuple[Slope, Slope]]  # (vertex, core)


def tight_slice(
    kind: SurfaceKind, a: Slope, b: Slope, c: Slope, delta: int
) -> frozenset[Slope]:
    """Vertices of the geodesics between a and b within delta of c."""
    if delta < 0:
        raise PreconditionViolation("delta must be nonnegative")
    return frozenset(
        v for v in geodesic_vertices(a, b) if distance(v, c) <= delta
    )


def weak_tight_index(kind: SurfaceKind, g: Geodesic) -> WeakTightReport:
    """Smallest D such that g is D-weakly tight in the twist model.

    Maximizes min(d(x, v), d(v, y)) over vertices v and the annuli around
    the hull of the endpoints; finitely many annuli suffice because a
    larger gap would force the core onto the geodesics between them.
    """
    x, y = g.start, g.end
    if g.length <= 2:
        raise PreconditionViolation("weak-tight index needs endpoint distance > 2")
    return WeakTightReport(*first_max_gap(vertex_gaps(kind, x, y), g.vertices))


def weak_tight_slice(
    kind: SurfaceKind, a: Slope, b: Slope, c: Slope, delta: int, D: int
) -> frozenset[Slope]:
    """Slice through the geodesics whose weak-tight index is at most D."""
    if distance(a, b) <= 2:
        raise PreconditionViolation("weak-tight slices need endpoint distance > 2")
    low = [v for v, (gap, _) in vertex_gaps(kind, a, b).items() if gap <= D]
    return frozenset(v for v in geodesic_vertices_within(a, b, low) if distance(v, c) <= delta)


def _slice(
    kind: SurfaceKind, a: Slope, b: Slope, c: Slope, delta: int, D: Optional[int]
) -> frozenset[Slope]:
    """The tight slice, or with D the weak-tight slice."""
    if D is None:
        return tight_slice(kind, a, b, c, delta)
    return weak_tight_slice(kind, a, b, c, delta, D)


def _random_ball_point(rng: random.Random, center: Slope, r: int) -> Slope:
    v = center
    for _ in range(rng.randint(0, r)):
        v = random_neighbor(v, rng.randint(-3, 3))
    return v


def radius_slice_sample(
    kind: SurfaceKind,
    a: Slope,
    b: Slope,
    r: int,
    c: Slope,
    delta: int,
    budget: int,
    seed: int,
    D: Optional[int] = None,
) -> frozenset[Slope]:
    """Union of tight slices, or with D of weak-tight slices, over ``budget``
    sampled endpoint pairs in N_r(a) x N_r(b): a certified SUBSET of the
    radius slice, never the exact set, since radius balls are infinite.
    ``verify_slice_bounds`` checks the radius form's hypotheses.
    """
    if budget < 0:
        raise PreconditionViolation("budget must be nonnegative")
    rng = random.Random(seed)
    members: set[Slope] = set()
    for _ in range(budget):
        a2 = _random_ball_point(rng, a, r)
        b2 = _random_ball_point(rng, b, r)
        members.update(_slice(kind, a2, b2, c, delta, D))
    return frozenset(members)


@dataclass(frozen=True)
class SliceVerification:
    query: SliceQuery
    members: frozenset[Slope]
    exact: bool
    bound: BigBound
    margin_log10: float
    weak_D: Optional[int]

    def to_json(self) -> dict:
        return {
            "query": {
                "a": str(self.query.a),
                "b": str(self.query.b),
                "c": str(self.query.c),
                "delta": self.query.delta,
                "r": self.query.r,
            },
            "slice": sorted(str(v) for v in self.members),
            "size": len(self.members),
            "exact": self.exact,
            "weak_D": self.weak_D,
            "bound": str(self.bound),
            "margin_log10": self.margin_log10,
        }


def verify_slice_bounds(
    kind: SurfaceKind,
    query: SliceQuery,
    M: int,
    D: Optional[int] = None,
    budget: int = 32,
    seed: int = 0,
    delta_hyp: int = DEFAULT_DELTA_HYP,
    digit_cap: int = DEFAULT_DIGIT_CAP,
) -> SliceVerification:
    """Compute a slice and check it against the matching surface bound.

    Raises HypothesisViolation naming the failed hypothesis: c must lie
    on some geodesic between a and b, and the radius form additionally
    needs the distance gap and c clear of both enlarged balls.
    """
    a, b, c = query.a, query.b, query.c
    if c not in geodesic_vertices(a, b):
        raise HypothesisViolation("c must lie on a geodesic between a and b")
    surface = surface_for_kind(kind)
    if D is not None and D < M:
        raise PreconditionViolation("weak-tight verification requires D >= M")
    exact = query.r == 0
    if exact:
        members = _slice(kind, a, b, c, query.delta, D)
    else:
        j = 3 * delta_hyp + 2
        if distance(a, b) < 2 * query.r + 2 * j + 1:
            raise HypothesisViolation(
                "radius slice requires d(a, b) >= 2r + 2j + 1 with j = 3*delta + 2"
            )
        if distance(c, a) <= query.r + j or distance(c, b) <= query.r + j:
            raise HypothesisViolation("c must avoid the (r + j)-balls of a and b")
        members = radius_slice_sample(kind, a, b, query.r, c, query.delta, budget, seed, D)
    bound = slice_bound(surface, M, D, radius=not exact, digit_cap=digit_cap)
    size_log10 = log10_upper(max(len(members), 1))
    margin = float(bound.log10_upper - size_log10)
    if bound.digits is not None and _exceeds(str(len(members)), bound.digits):
        raise InternalCheckFailure("slice exceeds its computable bound")
    return SliceVerification(query, members, exact, bound, margin, D)


def _exceeds(a: str, b: str) -> bool:
    """a > b for the decimal digits of two nonnegative integers, neither
    with a leading zero: the longer is larger, and equal lengths compare
    as strings."""
    return (len(a), a) > (len(b), b)
