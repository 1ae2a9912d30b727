"""Property P(l, k, Z), certificates, and the empirical projection audit."""

from __future__ import annotations

import gc
import random
from collections import Counter, defaultdict
from itertools import combinations
from pathlib import Path

import pytest

from conftest import slopes_with_denominator_up_to
from corpus import (
    BGIT_CORPUS_SEED,
    M_EMP,
    M_EMP_ATTAINING_VERTEX,
    annulus_clusters,
    continued_fraction_slope,
    far_pair_corpus,
    random_mobius,
    random_slope,
)
from fareyulfp import projections
from fareyulfp.annular import annular_distance, twist_floors
from fareyulfp.errors import PreconditionViolation
from fareyulfp.farey import (
    INFINITY,
    Slope,
    SurfaceKind,
    apply,
    distance,
    geodesic_vertices,
    geodesics,
)
from fareyulfp.projections import (
    WHOLE,
    SubsurfaceRef,
    bgit_audit,
    candidate_subsurfaces,
    check_P,
    lemma_co_construct,
    proj_distance,
    ulfp_witness,
)

TORUS = SurfaceKind.TORUS_1_1
SPHERE = SurfaceKind.SPHERE_0_4

SPEC_SET = [Slope(1, 3), Slope(13, 3), Slope(25, 3)]


class TestSubsurfaceRef:
    def test_whole_vs_annulus(self):
        assert WHOLE.is_whole and str(WHOLE) == "whole"
        ref = SubsurfaceRef(Slope(1, 2))
        assert not ref.is_whole and ref.core == Slope(1, 2) and str(ref) == "annulus:1/2"

    def test_every_curve_but_the_core_projects(self):
        # every curve projects to the whole surface, and to an annulus
        # every curve but its core
        A = [INFINITY, Slope(0, 1), Slope(3, 1)]
        assert check_P(TORUS, A, 1, 3, WHOLE) is None  # 0/1 and 3/1 are 2 apart
        ref = SubsurfaceRef(INFINITY)
        assert check_P(TORUS, A, 1, 2, ref) == {Slope(0, 1), Slope(3, 1)}
        assert check_P(TORUS, A, 1, 3, ref) is None

    def test_proj_distance_dispatch(self):
        y, z = Slope(0, 1), Slope(5, 1)
        assert proj_distance(TORUS, WHOLE, y, z) == distance(y, z)
        ref = SubsurfaceRef(INFINITY)
        assert proj_distance(TORUS, ref, y, z) == annular_distance(TORUS, INFINITY, y, z)


class TestCandidateSubsurfaces:
    def test_needs_two_curves(self):
        with pytest.raises(PreconditionViolation):
            candidate_subsurfaces(TORUS, [INFINITY])

    def test_deterministic_order(self):
        A = [Slope(1, 2), INFINITY, Slope(0, 1)]
        first = candidate_subsurfaces(TORUS, A)
        assert first[0] is WHOLE
        assert first == candidate_subsurfaces(TORUS, reversed(A))
        cores = [Z.core for Z in first[1:]]
        assert cores == sorted(cores, key=lambda s: (s.q, s.p))

    def test_covers_all_geodesic_vertices(self):
        A = [INFINITY, Slope(5, 12)]
        cores = {Z.core for Z in candidate_subsurfaces(TORUS, A)[1:]}
        for g in geodesics(*A):
            assert set(g.vertices) <= cores

    @pytest.mark.parametrize("kind, threshold", [(TORUS, 3), (SPHERE, 2)])
    def test_a_twist_floor_gap_at_the_threshold_puts_the_core_in_the_hull(self, kind, threshold):
        # The hull lemma on the |p|, q <= 10 box: a gap of at least 3 full
        # twists on the torus, 2 on the sphere, leaves three consecutive
        # integers of the core's chart between the pair.  One gap less
        # leaves cores off the hull, so the threshold is sharp.
        box = slopes_with_denominator_up_to(10)
        misses, checked = Counter(), Counter()
        for core in box:
            floors = twist_floors(kind, core, box)
            for (x, fx), (y, fy) in combinations(floors.items(), 2):
                gap = abs(fx - fy)
                if gap >= threshold - 1:
                    checked[gap >= threshold] += 1
                    if core not in geodesic_vertices(x, y):
                        misses[gap >= threshold] += 1
        assert misses[True] == 0 and checked[True] > 10_000
        assert misses[False] > 0

    def test_the_core_lies_on_some_geodesic_not_on_every_one(self):
        # floors 0 and 3 around 1/0: the core is in the hull, yet one of
        # the five geodesics runs through the integers 1, 2, 3 instead
        x, y = Slope(1, 2), Slope(7, 2)
        assert twist_floors(TORUS, INFINITY, [x, y]) == {x: 0, y: 3}
        paths = [g.vertices for g in geodesics(x, y)]
        assert len(paths) == 5 and INFINITY in geodesic_vertices(x, y)
        assert (x, Slope(1, 1), Slope(2, 1), Slope(3, 1), y) in paths

    def test_no_witness_hides_outside_candidates(self):
        # Brute-force over every annulus core in a box: whenever the
        # candidate-restricted search finds no witness, neither does any
        # box annulus.  l >= 3 only: for l <= 2 the restriction is known
        # to miss witnesses.
        box_cores = slopes_with_denominator_up_to(16)
        held = 0
        for kind in SurfaceKind:
            rng = random.Random(17)
            for _ in range(60):
                A = {random_slope(rng, 13) for _ in range(rng.randint(2, 5))}
                if len(A) < 2:
                    continue
                l, k = rng.choice([(3, 2), (4, 2), (5, 2), (3, 3), (4, 3)])
                if ulfp_witness(kind, A, l, k).witness is not None:
                    continue
                held += 1
                for core in box_cores:
                    Z = SubsurfaceRef(core)
                    assert check_P(kind, A, l, k, Z) is None, (kind, sorted(A), l, k, core)
        assert held > 40  # the corpus exercises the box check (49 sets)


class TestCheckP:
    def test_preconditions(self):
        with pytest.raises(PreconditionViolation):
            check_P(TORUS, SPEC_SET, 0, 2, WHOLE)
        with pytest.raises(PreconditionViolation):
            check_P(TORUS, SPEC_SET, 3, 1, WHOLE)
        with pytest.raises(PreconditionViolation):
            check_P(TORUS, SPEC_SET, 3, 9, WHOLE)

    def test_twisted_family_fails_in_the_vertical_annulus(self):
        # 1/3, 13/3, 25/3 are successive 4-fold twists of 1/3 along 1/0:
        # twist coordinates 1/3, 13/3, 25/3, pairwise model gaps 6, 6, 10.
        ref = SubsurfaceRef(INFINITY)
        witness = check_P(TORUS, SPEC_SET, 5, 2, ref)
        assert witness is not None and len(witness) == 2
        pair = sorted(witness)
        assert proj_distance(TORUS, ref, pair[0], pair[1]) > 5

    def test_same_family_passes_for_large_l(self):
        assert check_P(TORUS, SPEC_SET, 11, 2, SubsurfaceRef(INFINITY)) is None

    def test_whole_surface_sees_no_far_pair(self):
        # pairwise curve-graph distance in the family is exactly 4
        assert check_P(TORUS, SPEC_SET, 4, 2, WHOLE) is None
        assert check_P(TORUS, SPEC_SET, 3, 2, WHOLE) is not None

    def test_witness_is_pairwise_far(self):
        rng = random.Random(19)
        for _ in range(40):
            A = {random_slope(rng, 15) for _ in range(5)}
            if len(A) < 2:
                continue
            found = ulfp_witness(TORUS, A, 2, 2).witness
            if found is None:
                continue
            witness, Z = found
            for x, y in combinations(sorted(witness), 2):
                assert proj_distance(TORUS, Z, x, y) > 2


def record_checks(monkeypatch, events: list) -> list:
    """Append to events each subsurface on which ulfp_witness decides P,
    through ``_decide``, the one decider behind ``check_P`` and the covers."""
    decide = projections._decide

    def decided(kind, members, l, k, Z):
        events.append(Z)
        return decide(kind, members, l, k, Z)

    monkeypatch.setattr(projections, "_decide", decided)
    return events


class TestCheckPAll:
    """P over all candidate subsurfaces, decided by the loop in ulfp_witness."""

    @staticmethod
    def count_checks(monkeypatch) -> list:
        return record_checks(monkeypatch, [])

    def test_vacuous_small_sets(self, monkeypatch):
        checked = self.count_checks(monkeypatch)
        certs = [ulfp_witness(TORUS, [INFINITY], 3, 2), ulfp_witness(TORUS, SPEC_SET, 3, 4)]
        assert [cert.kind for cert in certs] == ["covered", "covered"]
        # below k members the root bound decides each subsurface at once
        assert checked == [entry.subsurface for cert in certs for entry in cert.covers]

    @pytest.mark.parametrize(
        "A, l, k, message",
        [
            ([INFINITY, Slope(0, 1), Slope(1, 2)], -5, 100, "l must be positive"),
            ([INFINITY], 0, 2, "l must be positive"),
            ([INFINITY], 3, -4, "k must lie in"),
        ],
    )
    def test_rejects_bad_l_and_k_on_sets_too_small_to_check(self, A, l, k, message):
        with pytest.raises(PreconditionViolation, match=message):
            ulfp_witness(TORUS, A, l, k)

    def test_counts_checked_subsurfaces(self, monkeypatch):
        checked = self.count_checks(monkeypatch)
        assert ulfp_witness(TORUS, SPEC_SET, 11, 2).kind == "covered"
        assert tuple(checked) == candidate_subsurfaces(TORUS, SPEC_SET)


class TestUlfpWitness:
    def test_witness_branch(self):
        cert = ulfp_witness(TORUS, SPEC_SET, 5, 2)
        assert cert.kind == "witness"
        record = cert.to_json()
        assert record["type"] == "witness"
        assert len(record["slopes"]) == 2

    def test_covered_branch_soundness(self):
        A = [Slope(0, 1), Slope(1, 1), INFINITY]
        cert = ulfp_witness(TORUS, A, 3, 2)
        assert cert.kind == "covered"
        for entry in cert.covers:
            assert len(entry.centers) <= 1  # at most k - 1 centers
            for a in A:
                if a == entry.subsurface.core:
                    continue
                assert any(
                    proj_distance(TORUS, entry.subsurface, a, c) <= entry.radius
                    for c in entry.centers
                ), (entry, a)

    @pytest.mark.parametrize(
        "A, l, k, message",
        [
            ([INFINITY, Slope(0, 1), Slope(1, 2)], -5, 100, "l must be positive"),
            ([INFINITY], 3, 1, "k must lie in"),
            ([INFINITY, Slope(0, 1)], 2, 0, "k must lie in"),
        ],
    )
    def test_rejects_bad_l_and_k_before_covering(self, A, l, k, message):
        # a cover needs k - 1 >= 1 centres and a positive radius
        with pytest.raises(PreconditionViolation, match=message):
            ulfp_witness(TORUS, A, l, k)

    def test_large_k_on_a_small_set_is_still_covered(self):
        # the k <= 8 cap binds only where the clique search runs
        cert = ulfp_witness(TORUS, [INFINITY, Slope(0, 1), Slope(1, 2)], 3, 100)
        assert cert.kind == "covered"

    def test_a_whole_surface_witness_builds_no_annuli(self, monkeypatch):
        def refuse(kind, A):
            raise AssertionError("annuli built after a whole-surface witness")

        monkeypatch.setattr(projections, "candidate_subsurfaces", refuse)
        cert = ulfp_witness(TORUS, [INFINITY, Slope(1, 3), Slope(3, 8)], 2, 2)
        assert cert.witness == (frozenset({INFINITY, Slope(3, 8)}), WHOLE)

    def test_annuli_are_built_once_P_holds_on_the_whole_surface(self, monkeypatch):
        A = [Slope(-2, 1), Slope(-2, 3), Slope(4, 5)]
        order = candidate_subsurfaces(TORUS, A)
        events = []

        def building(kind, A):
            events.append("build annuli")
            return candidate_subsurfaces(kind, A)

        monkeypatch.setattr(projections, "candidate_subsurfaces", building)
        record_checks(monkeypatch, events)
        curves, Z = ulfp_witness(TORUS, A, 4, 2).witness
        assert Z == SubsurfaceRef(Slope(-1, 1)) and curves == {Slope(-2, 1), Slope(-2, 3)}
        # P is checked on exactly the candidates up to the witness, in order
        assert events == [WHOLE, "build annuli", *order[1 : order.index(Z) + 1]]
        assert 3 <= order.index(Z) < len(order) - 1

    def test_each_annulus_takes_one_floors_map(self, monkeypatch):
        cores = []

        def counting(kind, core, curves):
            cores.append(core)
            return twist_floors(kind, core, curves)

        monkeypatch.setattr(projections, "twist_floors", counting)
        A = [Slope(0, 1), Slope(1, 1), Slope(1, 2), Slope(2, 3), INFINITY]
        cert = ulfp_witness(TORUS, A, 40, 3)
        annuli = [entry.subsurface.core for entry in cert.covers[1:]]
        assert cert.kind == "covered" and len(annuli) == 5
        assert cores == annuli

    def test_certificate_validation(self):
        from fareyulfp.projections import UlfpCertificate

        with pytest.raises(ValueError):
            UlfpCertificate()

    def test_deterministic(self):
        one = ulfp_witness(TORUS, SPEC_SET, 5, 2)
        two = ulfp_witness(TORUS, list(reversed(SPEC_SET)), 5, 2)
        assert one.to_json() == two.to_json()


class TestAnnulusClusters:
    """annulus_clusters(m): P holds on the whole surface at l = 4 and fails
    with k = 8 in the annulus around 1/0, the first candidate annulus."""

    CORE = SubsurfaceRef(INFINITY)
    WITNESS_58 = {"-251/6", "-269/6", "-287/6", "-305/6", "-323/6", "-341/6", "-359/6", "-77/2"}

    def test_the_file_is_the_generated_set(self):
        lines = Path(__file__).with_name("annulus_clusters_114.txt").read_text().split()
        assert lines == [str(s) for s in annulus_clusters(16)]

    def test_the_annulus_search_is_linear_in_the_members(self, monkeypatch):
        # bounded by the member count alone, this search evaluates the far
        # relation about a million times
        A = annulus_clusters(8)
        evaluations = 0
        search = projections._extend_clique

        def counting(clique, candidates, far, bound, k):
            def counted(y, z):
                nonlocal evaluations
                evaluations += 1
                return far(y, z)

            # the recursion passes the counted relation on; count it once
            return search(clique, candidates, far if clique else counted, bound, k)

        monkeypatch.setattr(projections, "_extend_clique", counting)
        witness = check_P(TORUS, A, 4, 8, self.CORE)
        assert {str(s) for s in witness} == self.WITNESS_58
        assert 0 < evaluations <= 8 * len(A)

    def test_ulfp_witness_names_the_annulus(self):
        A = annulus_clusters(8)
        assert check_P(TORUS, A, 4, 8, WHOLE) is None
        assert candidate_subsurfaces(TORUS, A)[1] == self.CORE
        curves, Z = ulfp_witness(TORUS, A, 4, 8).witness
        assert Z == self.CORE and {str(s) for s in curves} == self.WITNESS_58


class TestBelowTheHullLemma:
    # {-1/1, 0/1} are 3 apart in the annulus around 1/0, the third vertex of
    # their Farey triangle, which lies off their hull
    A = {Slope(-1, 1), Slope(0, 1)}

    def test_the_annulus_off_the_hull_breaks_P(self):
        assert SubsurfaceRef(INFINITY) not in candidate_subsurfaces(TORUS, self.A)
        assert check_P(TORUS, self.A, 2, 2, SubsurfaceRef(INFINITY)) == frozenset(self.A)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 5")
    def test_ulfp_witness_finds_the_annulus_off_the_hull(self):
        assert ulfp_witness(TORUS, self.A, 2, 2).witness is not None


def test_clique_search_leaves_no_cyclic_garbage():
    rng = random.Random(14)
    A = sorted({random_slope(rng, 9) for _ in range(40)})[:14]
    ulfp_witness(TORUS, A, 2, 3)  # warm the ladders so only the searches run below
    gc.collect()
    gc.disable()
    try:
        for l, k in ((2, 3), (3, 4), (9, 5)):
            ulfp_witness(TORUS, A, l, k)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestLemmaCo:
    def test_preconditions(self):
        with pytest.raises(PreconditionViolation):
            lemma_co_construct(TORUS, INFINITY, [Slope(0, 1)], 1)
        with pytest.raises(PreconditionViolation):
            lemma_co_construct(TORUS, INFINITY, [Slope(0, 1)], 2)

    def test_first_step_vertices(self):
        x = INFINITY
        B = [Slope(1, 2), Slope(-1, 2)]
        out = lemma_co_construct(TORUS, x, B, 2)
        assert out
        for v in out:
            assert distance(x, v) == 1

    def test_picks_the_second_vertex_of_the_least_geodesic(self):
        rng = random.Random(47)
        groups = defaultdict(list)  # (x, distance) -> targets
        for _ in range(12):
            m = random_mobius(rng)
            for _ in range(8):
                terms = [rng.randint(1, 4) for _ in range(rng.randint(1, 9))]
                x, b = apply(m, INFINITY), apply(m, continued_fraction_slope(terms))
                groups[x, distance(x, b)].append(b)
        for n in range(1, 17):
            b = continued_fraction_slope([2] * n)
            groups[INFINITY, distance(INFINITY, b)].append(b)
        checked = 0
        for (x, d), B in groups.items():
            if d <= 1:
                continue
            second = {b: min(geodesics(x, b)).vertices[1] for b in B}
            for b, v in second.items():
                assert lemma_co_construct(TORUS, x, [b], d) == {v}, (str(x), str(b))
            assert lemma_co_construct(SPHERE, x, B, d) == set(second.values())
            checked += len(B)
        assert checked > 100 and len(groups) > 60

    def test_projection_shift_is_bounded(self):
        # moving B one step toward x moves annular projections by at most
        # 2 * M_emp (observed max shift is 1; assert the theorem-shaped cap)
        rng = random.Random(43)
        for kind in SurfaceKind:
            for _ in range(15):
                x = random_slope(rng)
                groups = defaultdict(list)
                for _ in range(30):
                    y = random_slope(rng, 40)
                    d = distance(x, y)
                    if d >= 2:
                        groups[d].append(y)
                for i, B in groups.items():
                    if len(B) < 2:
                        continue
                    prim = {b: min(geodesics(x, b)).vertices[1] for b in B}
                    for b, c in combinations(B, 2):
                        bp, cp = prim[b], prim[c]
                        if x in (bp, cp):
                            continue
                        assert annular_distance(kind, x, bp, cp) <= (
                            annular_distance(kind, x, b, c) + 2 * M_EMP
                        )


class TestBgitAudit:
    def test_empty_corpus(self):
        audit = bgit_audit(TORUS, [])
        assert audit.value == 0 and audit.attaining is None
        assert audit.pairs_audited == 0 and audit.pairs_skipped == 0

    def test_close_pairs_are_skipped(self):
        audit = bgit_audit(TORUS, [(INFINITY, Slope(0, 1))])
        assert audit.pairs_skipped == 1 and audit.pairs_audited == 0

    def test_frozen_golden_value(self):
        pairs = far_pair_corpus(BGIT_CORPUS_SEED, 100)
        for kind in SurfaceKind:
            audit = bgit_audit(kind, pairs)
            assert audit.value == M_EMP
            assert str(audit.attaining[2]) == M_EMP_ATTAINING_VERTEX
            assert audit.pairs_audited == 100 and audit.pairs_skipped == 0
            record = audit.to_json()
            assert record["m_emp"] == M_EMP
