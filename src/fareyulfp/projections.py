"""Property P(l, k, Z) checking and constructive local-finiteness search.

A curve set A satisfies P(l, k, Z) when it holds no k curves whose
projections to Z are pairwise more than l apart.  The subsurfaces worth
checking are the whole surface plus the annuli around the geodesic hulls
of member pairs, the vertices v with d(x, v) + d(v, y) = d(x, y).

Hull lemma: put the core at 1/0 by its normalizer, a Farey graph
automorphism, so hulls move with it; the core's neighbours are then the
integers.  The edge from 1/0 to an integer m separates the slopes below
m from those above it, so a geodesic from x to y that avoids 1/0 visits
every integer of the closed interval between their twist coordinates:
those strictly inside by separation, an endpoint that is an integer as
itself.  Three consecutive integers m, m + 1, m + 2 there are
consecutive on such a geodesic, since m + 1 separates m from m + 2 and
d(m, m + 2) = 2; putting 1/0 in place of m + 1 gives a geodesic through
the core.  A twist-floor gap of at least 3 on the torus, or at least 2
on the sphere (floors count twists of 2 units), leaves three such
integers, so it forces the core onto some geodesic between the pair,
though not onto every one: around 1/0, the five geodesics from 1/2 to
7/2 (floors 0 and 3) include 1/2, 1/1, 2/1, 3/1, 7/2.  A pair far in
the annulus has gap at least l - 1, so its hull holds the core, and the
hull restriction is a theorem for l >= 4 on the torus and l >= 3 on the
sphere.  Torus l = 3 rests on box-oracle
tests only, and for l <= 2 the restriction fails silently: with
l = k = 2, {-1/1, 0/1} is certified covered, yet the two are 3 apart in
the annulus around 1/0, the third vertex of their Farey triangle
(ROADMAP.md, item 5).

One decider serves every subsurface: a clique search for the first far
k-set in slope order, cut wherever the subsurface's own bound on the size
of a far set cannot reach k.  On an annulus every projection is one
integer, the twist floor, and two distinct curves are more than l apart
exactly when their floors differ by at least l - 1.  So the sorted greedy
over the floors bounds the search exactly on annuli, and there the search
never enters a branch that fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .annular import annular_distance, twist_floors
from .errors import PreconditionViolation, require_l_and_k
from .farey import Slope, SurfaceKind, distance, geodesic_levels, geodesic_vertices

MAX_CLIQUE_K = 8
_K_RANGE = f"k must lie in (1, {MAX_CLIQUE_K}]"


@dataclass(frozen=True, slots=True)
class SubsurfaceRef:
    """The whole surface (core None) or the essential annulus around core.

    Every proper subsurface of these surfaces is an annulus, so its core
    names it.
    """

    core: Optional[Slope] = None

    @property
    def is_whole(self) -> bool:
        return self.core is None

    def __str__(self) -> str:
        return "whole" if self.core is None else f"annulus:{self.core}"


WHOLE = SubsurfaceRef()


def proj_distance(kind: SurfaceKind, Z: SubsurfaceRef, y: Slope, z: Slope) -> int:
    """Distance between projections: graph distance for the whole surface,
    the twist model for annuli."""
    if Z.is_whole:
        return distance(y, z)
    return annular_distance(kind, Z.core, y, z)


def candidate_subsurfaces(
    kind: SurfaceKind, A: Iterable[Slope]
) -> tuple[SubsurfaceRef, ...]:
    """The whole surface plus annuli around the geodesic hulls of A-pairs.

    Deterministic order: whole surface first, then cores sorted by
    denominator and numerator.
    """
    members = sorted(set(A))
    if len(members) < 2:
        raise PreconditionViolation("candidate_subsurfaces needs at least 2 curves")
    cores = set().union(*(geodesic_vertices(x, y) for x, y in combinations(members, 2)))
    ordered = sorted(cores, key=lambda s: (s.q, s.p))
    return (WHOLE,) + tuple(SubsurfaceRef(core) for core in ordered)


FarRelation = Callable[[Slope, Slope], bool]


def _largest_far_count(floors: Iterable[int], l: int) -> int:
    """Size of a largest set of distinct curves pairwise more than l apart.

    Distinct curves are more than l apart when their twist floors differ
    by more than l - 2.  Left to right over the sorted floors, keep each
    floor far from the last kept one; on a line this greedy is optimal.
    """
    count, last = 0, None
    for f in sorted(floors):
        if last is None or f - last + 2 > l:
            count, last = count + 1, f
    return count


def _find_clique(
    members: Sequence[Slope], far: FarRelation, bound: Callable[[Sequence[Slope]], int], k: int
) -> Optional[frozenset[Slope]]:
    """The first k members in combinations order that are pairwise far, or None.

    ``bound`` caps the size of any far set among a list of members, and
    every branch it puts below k is cut: ``len`` is the plain search, and
    with an exact bound no branch is entered that fails.
    """
    if bound(members) < k:
        return None
    return _extend_clique([], list(members), far, bound, k)


def _extend_clique(
    clique: list[Slope],
    candidates: list[Slope],
    far: FarRelation,
    bound: Callable[[Sequence[Slope]], int],
    k: int,
) -> Optional[frozenset[Slope]]:
    """Grow ``clique`` by far candidates in their order, depth first, to size k."""
    if len(clique) == k:
        return frozenset(clique)
    for i, v in enumerate(candidates):
        narrowed = [w for w in candidates[i + 1 :] if far(v, w)]
        if len(clique) + 1 + bound(narrowed) < k:
            continue
        clique.append(v)
        found = _extend_clique(clique, narrowed, far, bound, k)
        if found is not None:
            return found
        clique.pop()
    return None


def check_P(
    kind: SurfaceKind,
    A: Iterable[Slope],
    l: int,
    k: int,
    Z: SubsurfaceRef,
) -> Optional[frozenset[Slope]]:
    """Decide P(l, k, Z) exactly, with k <= 8: None when it holds, else the
    witness, the first k projecting curves in slope order that are
    pairwise more than l apart in Z.

    Curves with empty projection to Z are skipped.  The decision is a
    clique search on the far-pair graph; on an annulus the sorted greedy
    over the twist floors bounds the search exactly.
    """
    require_l_and_k(l, k, _K_RANGE, MAX_CLIQUE_K)
    return _decide(kind, sorted(set(A)), l, k, Z)[2]


def _decide(
    kind: SurfaceKind, members: Sequence[Slope], l: int, k: int, Z: SubsurfaceRef
) -> tuple[Sequence[Slope], FarRelation, Optional[frozenset[Slope]]]:
    """The sorted members that project to Z, the far relation on them (more
    than l apart in Z), and ``check_P``'s answer.

    The whole surface reads its far pairs into a table once, and its search
    is bounded by the member count.  An annulus reads one twist-floor map,
    and its search is bounded by the greedy count over the floors.
    """
    if Z.is_whole:
        table: dict[Slope, set[Slope]] = {a: set() for a in members}
        for x, y in combinations(members, 2):
            if proj_distance(kind, Z, x, y) > l:
                table[x].add(y)
                table[y].add(x)
        projecting, bound = members, len
        far: FarRelation = lambda y, z: z in table[y]
    else:
        floors = twist_floors(kind, Z.core, members)
        projecting = list(floors)
        far = lambda y, z: abs(floors[y] - floors[z]) + 2 > l
        bound = lambda S: _largest_far_count(map(floors.__getitem__, S), l)
    return projecting, far, _find_clique(projecting, far, bound, k)


@dataclass(frozen=True)
class CoverEntry:
    subsurface: SubsurfaceRef
    centers: tuple[Slope, ...]
    radius: int


@dataclass(frozen=True)
class UlfpCertificate:
    """Either a k-set of far curves or per-subsurface ball covers of A."""

    witness: Optional[tuple[frozenset[Slope], SubsurfaceRef]] = None
    covers: Optional[tuple[CoverEntry, ...]] = None

    def __post_init__(self) -> None:
        if (self.witness is None) == (self.covers is None):
            raise ValueError("exactly one of witness/covers must be present")

    @property
    def kind(self) -> str:
        return "witness" if self.witness is not None else "covered"

    def to_json(self) -> dict:
        if self.witness is not None:
            curves, Z = self.witness
            return {
                "type": "witness",
                "subsurface": str(Z),
                "slopes": sorted(str(c) for c in curves),
            }
        return {
            "type": "covered",
            "covers": [
                {
                    "subsurface": str(entry.subsurface),
                    "centers": [str(c) for c in entry.centers],
                    "radius": entry.radius,
                }
                for entry in self.covers
            ],
        }


def _greedy_centers(projecting: Sequence[Slope], far: FarRelation) -> tuple[Slope, ...]:
    """Maximal pairwise-far subset of the projecting members, in their order."""
    centers: list[Slope] = []
    for v in projecting:
        if all(far(v, c) for c in centers):
            centers.append(v)
    return tuple(centers)


def _subsurfaces(kind: SurfaceKind, members: Sequence[Slope]) -> Iterator[SubsurfaceRef]:
    """Candidate subsurfaces in order, building the annuli only once WHOLE is done."""
    yield WHOLE
    if len(members) >= 2:
        yield from candidate_subsurfaces(kind, members)[1:]


def ulfp_witness(
    kind: SurfaceKind, A: Iterable[Slope], l: int, k: int
) -> UlfpCertificate:
    """Constructive dichotomy, whole surface first: a far k-set, or greedy
    covers in every candidate subsurface (k-1 centers at most, by maximality)."""
    members = sorted(set(A))
    require_l_and_k(l, k, _K_RANGE, MAX_CLIQUE_K if len(members) >= k else None)
    covers = []
    for Z in _subsurfaces(kind, members):
        projecting, far, clique = _decide(kind, members, l, k, Z)
        if clique is not None:
            return UlfpCertificate(witness=(clique, Z))
        covers.append(CoverEntry(Z, _greedy_centers(projecting, far), l))
    return UlfpCertificate(covers=tuple(covers))


def lemma_co_construct(
    kind: SurfaceKind, x: Slope, B: Iterable[Slope], i: int
) -> frozenset[Slope]:
    """First-step vertices toward x of one geodesic per element of B.

    Every b in B must sit at distance exactly i > 1 from x; the geodesic
    used is the lexicographically least one, so certificates reproduce.
    Its second vertex is the least vertex of level 1 of the hull of (x, b),
    since every such vertex starts a geodesic to b.
    """
    if i <= 1:
        raise PreconditionViolation("i must exceed 1")
    out = set()
    for b in sorted(set(B)):
        if distance(x, b) != i:
            raise PreconditionViolation(f"{b} is not at distance {i} from {x}")
        out.add(min(geodesic_levels(x, b)[1]))
    return frozenset(out)


@dataclass(frozen=True)
class BgitAudit:
    """Empirical maximum of min(d(x,v), d(v,y)) over audited geodesics."""

    value: int
    attaining: Optional[tuple[Slope, Slope, Slope, Slope]]  # (x, y, v, core)
    pairs_audited: int
    pairs_skipped: int

    def to_json(self) -> dict:
        record = {
            "m_emp": self.value,
            "pairs_audited": self.pairs_audited,
            "pairs_skipped": self.pairs_skipped,
        }
        if self.attaining is not None:
            x, y, v, core = self.attaining
            record["attaining"] = {
                "pair": [str(x), str(y)],
                "vertex": str(v),
                "core": str(core),
            }
        return record


def bgit_audit(
    kind: SurfaceKind, pair_corpus: Iterable[tuple[Slope, Slope]]
) -> BgitAudit:
    """Empirical bounded-geodesic-image constant over a pair corpus.

    For each pair at distance > 2, every interior vertex of the geodesic
    hull is measured against both endpoints in every annulus around the
    hull (``vertex_gaps``); the audit records the largest min-side value
    seen.  Its attaining vertex is the first maximum with vertices nearest
    x first, then in slope order, and its core the first annulus reaching
    that maximum.  Pairs at distance <= 2 are skipped and counted.
    """
    best, attaining = 0, None
    audited = skipped = 0
    for x, y in pair_corpus:
        if distance(x, y) <= 2:
            skipped += 1
            continue
        audited += 1
        gaps = vertex_gaps(kind, x, y)
        value, at = first_max_gap(gaps, (v for v in gaps if v not in (x, y)))
        if value > best:
            best, attaining = value, (x, y, *at)
    return BgitAudit(best, attaining, audited, skipped)


Gaps = dict[Slope, tuple[int, Optional[Slope]]]


def vertex_gaps(kind: SurfaceKind, x: Slope, y: Slope) -> Gaps:
    """Min-side gap of every vertex v of the geodesic hull of (x, y).

    The gap of v is its largest min(d_Z(x, v), d_Z(v, y)) over the annuli Z
    around the hull, in core order (denominator, numerator), with the core
    of the first annulus reaching it; (0, None) when nothing exceeds 0.  A
    vertex equal to the core of Z skips Z, and an endpoint equal to the
    core drops out of the minimum.  Keys run nearest x first, then in slope
    order.
    """
    gaps = dict.fromkeys((v for level in geodesic_levels(x, y) for v in level), (0, None))
    for core in sorted(gaps, key=lambda s: (s.q, s.p)):
        floors = twist_floors(kind, core, gaps)
        ends = [(end, floors[end]) for end in (x, y) if end != core]
        for v, f in floors.items():
            value = min(1 if end == v else abs(e - f) + 2 for end, e in ends)
            if value > gaps[v][0]:
                gaps[v] = (value, core)
    return gaps


def first_max_gap(
    gaps: Gaps, vertices: Iterable[Slope]
) -> tuple[int, Optional[tuple[Slope, Slope]]]:
    """The largest gap among ``vertices`` and the first (v, core) reaching it."""
    best, attaining = 0, None
    for v in vertices:
        value, core = gaps[v]
        if value > best:
            best, attaining = value, (v, core)
    return best, attaining
