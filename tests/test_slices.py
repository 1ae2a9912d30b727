"""Tight and weak-tight slices, sampled radius slices, bound verification."""

from __future__ import annotations

import json
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from corpus import far_pair_corpus
from fareyulfp import farey, slices
from fareyulfp.cli import run
from fareyulfp.bounds import BigBound, log10_upper
from fareyulfp.errors import HypothesisViolation, InternalCheckFailure, PreconditionViolation
from fareyulfp.farey import Geodesic, INFINITY, Slope, SurfaceKind, distance, geodesic_vertices, geodesics
from fareyulfp.projections import bgit_audit, candidate_subsurfaces, lemma_co_construct
from fareyulfp.slices import (
    SliceQuery,
    radius_slice_sample,
    tight_slice,
    verify_slice_bounds,
    weak_tight_index,
    weak_tight_slice,
)

TORUS = SurfaceKind.TORUS_1_1

# frozen over far_pair_corpus(7, 50); identical on both surface kinds
MAX_CORPUS_INDEX = 3


class TestSliceQuery:
    def test_validation(self):
        with pytest.raises(PreconditionViolation):
            SliceQuery(INFINITY, Slope(1, 2), Slope(0, 1), -1)
        with pytest.raises(PreconditionViolation):
            SliceQuery(INFINITY, Slope(1, 2), Slope(0, 1), 1, r=-1)


class TestTightSlice:
    def test_spec_example(self):
        got = tight_slice(TORUS, INFINITY, Slope(1, 2), Slope(0, 1), 1)
        assert got == {INFINITY, Slope(0, 1), Slope(1, 1), Slope(1, 2)}
        assert len(got) == 4

    def test_nested_in_delta(self):
        a, b = far_pair_corpus(3, 1)[0]
        c = sorted(geodesic_vertices(a, b))[0]
        previous = frozenset()
        for delta in range(4):
            current = tight_slice(TORUS, a, b, c, delta)
            assert previous <= current
            previous = current
        assert previous <= geodesic_vertices(a, b)

    def test_members_are_near_c(self):
        a, b = far_pair_corpus(4, 1)[0]
        c = next(iter(geodesic_vertices(a, b)))
        for v in tight_slice(TORUS, a, b, c, 2):
            assert distance(v, c) <= 2


class TestWeakTightIndex:
    def test_needs_long_geodesic(self):
        g = Geodesic((INFINITY, Slope(0, 1)))
        with pytest.raises(PreconditionViolation):
            weak_tight_index(TORUS, g)

    def test_known_value_and_attaining(self):
        g = Geodesic.parse("1/0,0/1,1/3,3/8")
        report = weak_tight_index(TORUS, g)
        assert report.index == 3
        vertex, core = report.attaining
        assert core == Slope(1, 3)

    def test_vertex_pair_hulls_lie_in_the_endpoint_hull(self):
        # a u -- w geodesic between vertices of an x -- y geodesic splices
        # into it, so the vertex pairs of g add no annulus to the endpoints'
        seen = 0
        for x, y in far_pair_corpus(14, 200, 1, 6):
            hull = geodesic_vertices(x, y)
            for g in geodesics(x, y):
                pairs = combinations(g.vertices, 2)
                assert set().union(*(geodesic_vertices(u, w) for u, w in pairs)) == hull
                seen += 1
        assert seen > 400

    def test_index_bounded_on_corpus(self):
        for kind in SurfaceKind:
            worst = 0
            for a, b in far_pair_corpus(7, 15):
                for g in geodesics(a, b):
                    worst = max(worst, weak_tight_index(kind, g).index)
            assert worst <= MAX_CORPUS_INDEX


class TestWeakTightSlice:
    def test_needs_distance_over_two(self):
        with pytest.raises(PreconditionViolation):
            weak_tight_slice(TORUS, INFINITY, Slope(1, 2), Slope(0, 1), 1, 5)

    def test_monotone_in_D_and_capped_by_tight(self):
        a, b = far_pair_corpus(5, 1)[0]
        c = sorted(geodesic_vertices(a, b))[0]
        delta = 2
        full = tight_slice(TORUS, a, b, c, delta)
        previous = frozenset()
        for D in range(6):
            current = weak_tight_slice(TORUS, a, b, c, delta, D)
            assert previous <= current <= full
            previous = current

    def test_equals_tight_above_max_index(self):
        for a, b in far_pair_corpus(6, 5):
            c = sorted(geodesic_vertices(a, b))[0]
            assert weak_tight_slice(
                TORUS, a, b, c, 2, MAX_CORPUS_INDEX
            ) == tight_slice(TORUS, a, b, c, 2)


class TestRadiusSliceSample:
    def test_budget_zero_is_empty(self):
        a, b = far_pair_corpus(8, 1)[0]
        assert radius_slice_sample(TORUS, a, b, 1, a, 2, 0, seed=0) == frozenset()

    def test_radius_zero_is_the_tight_slice(self):
        a, b = far_pair_corpus(8, 1)[0]
        c = sorted(geodesic_vertices(a, b))[0]
        sampled = radius_slice_sample(TORUS, a, b, 0, c, 2, 16, seed=0)
        assert sampled == tight_slice(TORUS, a, b, c, 2)

    def test_radius_zero_with_D_is_the_weak_tight_slice(self):
        a, b = far_pair_corpus(8, 1)[0]
        c = sorted(geodesic_vertices(a, b))[0]
        sampled = radius_slice_sample(TORUS, a, b, 0, c, 2, 16, seed=0, D=1)
        assert sampled == weak_tight_slice(TORUS, a, b, c, 2, 1)

    def test_deterministic_under_seed(self):
        a, b = far_pair_corpus(9, 1)[0]
        c = sorted(geodesic_vertices(a, b))[0]
        one = radius_slice_sample(TORUS, a, b, 1, c, 2, 8, seed=5)
        two = radius_slice_sample(TORUS, a, b, 1, c, 2, 8, seed=5)
        assert one == two


class TestVerifySliceBounds:
    def test_c_must_lie_on_a_geodesic(self):
        query = SliceQuery(INFINITY, Slope(1, 2), Slope(7, 2), 1)
        with pytest.raises(HypothesisViolation):
            verify_slice_bounds(TORUS, query, M=1)

    def test_tight_form(self):
        query = SliceQuery(INFINITY, Slope(1, 2), Slope(0, 1), 1)
        result = verify_slice_bounds(TORUS, query, M=1)
        assert result.exact and result.weak_D is None
        assert len(result.members) == 4
        assert result.bound.exact == 5832  # ((2+2+2)*3)^3
        assert result.margin_log10 > 0
        record = result.to_json()
        assert record["size"] == 4 and record["exact"] is True

    def test_weak_form_requires_D_at_least_M(self):
        query = SliceQuery(INFINITY, Slope(1, 2), Slope(0, 1), 1)
        with pytest.raises(PreconditionViolation):
            verify_slice_bounds(TORUS, query, M=3, D=2)

    def test_weak_form(self):
        a, b = far_pair_corpus(10, 1)[0]
        c = sorted(geodesic_vertices(a, b))[0]
        query = SliceQuery(a, b, c, 2)
        result = verify_slice_bounds(TORUS, query, M=1, D=MAX_CORPUS_INDEX)
        assert result.exact and result.weak_D == MAX_CORPUS_INDEX
        assert result.members == weak_tight_slice(TORUS, a, b, c, 2, MAX_CORPUS_INDEX)

    def test_radius_form_demands_the_distance_gap(self):
        a, b = far_pair_corpus(10, 1)[0]
        c = sorted(geodesic_vertices(a, b))[0]
        query = SliceQuery(a, b, c, 1, r=1)
        with pytest.raises(HypothesisViolation):
            verify_slice_bounds(TORUS, query, M=1)

    def test_radius_form_demands_c_clear_of_the_enlarged_balls(self, capsys):
        # delta_hyp = 0 and r = 1 give j = 2: a distance-8 pair meets the
        # gap d(a, b) >= 7, but c at distance 2 from a lies in its 3-ball
        a, b = far_pair_corpus(11, 1, 8, 8)[0]
        c = next(v for v in sorted(geodesic_vertices(a, b)) if distance(a, v) == 2)
        query = SliceQuery(a, b, c, 1, r=1)
        with pytest.raises(HypothesisViolation, match=r"c must avoid the \(r \+ j\)-balls"):
            verify_slice_bounds(TORUS, query, M=1, budget=8, delta_hyp=0)
        argv = ["--M", "1", "--delta", "0", "slice", "--r", "1", "--delta", "1"]
        assert run([*argv, "--", str(a), str(b), str(c)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "c must avoid the (r + j)-balls" in captured.err

    def test_radius_form_with_tiny_delta_hyp(self):
        # With delta_hyp = 0 and r = 1 the gap is d(a, b) >= 7 and c must
        # clear the 3-balls of both endpoints, so use a distance-8 pair.
        a, b = far_pair_corpus(11, 1, 8, 8)[0]
        c = min(
            geodesic_vertices(a, b),
            key=lambda v: (abs(distance(a, v) - distance(v, b)), v),
        )
        assert distance(c, a) > 3 and distance(c, b) > 3
        query = SliceQuery(a, b, c, 1, r=1)
        result = verify_slice_bounds(TORUS, query, M=1, budget=8, delta_hyp=0)
        assert not result.exact
        assert result.bound.exact is not None
        assert len(result.members) <= result.bound.exact

    @pytest.mark.parametrize("digits, raises", [("3", True), ("4", False), ("10", False)])
    def test_a_slice_above_its_bound_fails_the_check(self, monkeypatch, digits, raises):
        # the tight slice of (1/0, 1/2) at 0/1 has 4 members; the stub bound's
        # chain is never evaluated, since the check reads only its digits
        stub = BigBound(log10_upper(int(digits)), digits, chain=())
        monkeypatch.setattr(slices, "slice_bound", lambda *args, **kw: stub)
        query = SliceQuery(INFINITY, Slope(1, 2), Slope(0, 1), 1)
        if raises:
            with pytest.raises(InternalCheckFailure, match="slice exceeds its computable bound"):
                verify_slice_bounds(TORUS, query, M=1)
        else:
            assert verify_slice_bounds(TORUS, query, M=1).bound is stub

    def test_weak_radius_form_samples_weak_tight_slices(self, monkeypatch):
        # `ulfp --M 1 --delta 0 slice --r 1 --weak-D 1 --budget 8 --delta 1`
        a, b, c = Slope(-4, 7), Slope(-3457, 4792), Slope(-57, 79)
        query = SliceQuery(a, b, c, 1, r=1)
        sampled_pairs = {}
        for name in ("tight_slice", "weak_tight_slice"):
            real = getattr(slices, name)
            pairs = sampled_pairs[name] = []

            def recording(kind, x, y, *rest, real=real, pairs=pairs):
                pairs.append((x, y))
                return real(kind, x, y, *rest)

            monkeypatch.setattr(slices, name, recording)
        tight = verify_slice_bounds(TORUS, query, M=1, budget=8, delta_hyp=0)
        weak = verify_slice_bounds(TORUS, query, M=1, D=1, budget=8, delta_hyp=0)
        pairs = sampled_pairs["weak_tight_slice"]
        assert pairs == sampled_pairs["tight_slice"] and len(pairs) == 8
        union = set().union(*(weak_tight_slice(TORUS, x, y, c, 1, 1) for x, y in pairs))
        assert weak.members == union == set()
        assert len(tight.members) == 4 and weak.weak_D == 1


_EQUAL_LENGTHS = st.integers(1, 60).flatmap(
    lambda n: st.tuples(*[st.integers(10 ** (n - 1) if n > 1 else 0, 10**n - 1)] * 2)
)


@given(st.one_of(st.tuples(st.integers(0, 10**60), st.integers(0, 10**60)), _EQUAL_LENGTHS))
@example((0, 0))
@example((9, 10))
@example((10, 9))
@example((123, 124))
def test_digit_comparison_is_integer_order(pair):
    a, b = pair
    assert slices._exceeds(str(a), str(b)) == (a > b)


def test_vertex_sets_are_read_without_enumerating_paths(monkeypatch, capsys, tmp_path):
    a, b = far_pair_corpus(12, 1, 4, 6)[0]
    c = sorted(geodesic_vertices(a, b))[1]
    g = min(geodesics(a, b))
    curves = tmp_path / "curves.txt"
    curves.write_text(f"{a}\n{b}\n{c}\n")
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(f"{a} {b}\n{a} {c}\n{c} {b}\n")
    slopes = ["--", str(a), str(b), str(c)]  # "--": a slope may be negative
    commands = [
        ["ulfp", "--set", str(curves), "--l", "2", "--k", "2"],
        ["--M", "1", "slice", "--delta", "2", *slopes],
        ["--M", "1", "slice", "--delta", "2", "--weak-D", "3", *slopes],
        ["weak-index", f"--geodesic={g}"],
        ["audit-bgit", "--pairs", str(pairs)],
    ]

    def answers():
        farey._hull_normalized.cache_clear()
        query = SliceQuery(a, b, c, 2)
        values = [
            candidate_subsurfaces(TORUS, (a, b, c)),
            tight_slice(TORUS, a, b, c, 2),
            weak_tight_index(TORUS, g),
            weak_tight_slice(TORUS, a, b, c, 2, 3),
            verify_slice_bounds(TORUS, query, M=1).to_json(),
            verify_slice_bounds(TORUS, query, M=1, D=3).to_json(),
            bgit_audit(TORUS, [(a, b), (c, b)]),
            lemma_co_construct(TORUS, a, [b], distance(a, b)),
        ]
        for argv in commands:
            assert run(argv) == 0
            values.append(json.loads(capsys.readouterr().out)["outputs"])
        return values

    expected = answers()

    def refuse(x, y):
        raise AssertionError(f"enumerated the geodesics from {x} to {y}")

    monkeypatch.setattr(farey, "_ladder_paths", refuse)
    assert answers() == expected


def test_hull_keeps_the_closure_check(monkeypatch, capsys):
    monkeypatch.setattr(farey, "_distance_normalized", lambda t: -1)
    farey._hull_normalized.cache_clear()
    assert run(["slice", "--delta", "1", "1/0", "2/5", "0/1"]) == 4
    line = capsys.readouterr().err.strip()
    assert line.startswith("error: internal check failed:") and "2/5" in line
