"""Exact big-integer bound recursion and its log10 envelope."""

from __future__ import annotations

import contextlib
import copy
import decimal
import json
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fareyulfp import bounds
from fareyulfp.bounds import (
    BigBound,
    BoundParams,
    SPHERE_0_4,
    Surface,
    TORUS_1_1,
    complexity,
    decimal_string,
    growth_upper,
    log10_upper,
    n_bound,
    slice_bound,
)
from fareyulfp.errors import PreconditionViolation
from fareyulfp.farey import SurfaceKind


class TestSurface:
    def test_complexity(self):
        assert complexity(TORUS_1_1) == 1
        assert complexity(SPHERE_0_4) == 1
        assert complexity(Surface(1, 2)) == 2
        assert complexity(Surface(2, 0)) == 3

    def test_low_complexity_rejected(self):
        for g, n in [(0, 3), (1, 0), (0, 0)]:
            with pytest.raises(ValueError):
                Surface(g, n)

    def test_str(self):
        assert str(Surface(1, 2)) == "S_1,2"


class TestBoundParams:
    def test_validation(self):
        for l, k, M in [(0, 2, 1), (1, 1, 1), (1, 2, 0)]:
            with pytest.raises(PreconditionViolation):
                BoundParams(l, k, M)


class TestLog10Upper:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log10_upper(0)

    def test_tight_upper_bound(self):
        rng = random.Random(2)
        values = [1, 9, 10, 2**64, 10**100]
        values += [rng.getrandbits(rng.randint(1, 2000)) + 1 for _ in range(200)]
        for v in values:
            gap = float(log10_upper(v)) - math.log10(v)
            assert 0 <= gap <= 1e-6, v

    # the chain in ``bounds`` relies on this: the envelope must grow with l
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2**200), st.integers(0, 2**70))
    @example(2**64 - 1, 1)  # last value read whole by math.log10
    @example(2**64, 1)  # first value read from its leading 64 bits
    @example(2**64 + 1, 1)
    @example(2**53, 1)  # first int that a float does not hold exactly
    @example(10**20 - 1, 1)
    @example(10**20, 1)
    @example(10**19 - 1, 2)
    @example(10**100 - 1, 1)
    @example(10**100, 1)
    def test_nondecreasing(self, value, step):
        assert log10_upper(value) <= log10_upper(value + step)


class TestNBound:
    def test_hand_substituted_goldens(self):
        p = BoundParams(1, 2, 1)
        assert n_bound(TORUS_1_1, p).exact == 100  # ((1+2+2)*2)^2
        assert n_bound(SPHERE_0_4, p).exact == 400  # (2*(1+2+2)*2)^2

    def test_complexity_two_golden_recomputed(self):
        # L = 1 + 2M = 3; inner sphere bound (2*(3+2+2)*2)^4 = 614656;
        # outer (2*614656)^(1+1) = 1511207993344.
        p = BoundParams(1, 2, 1)
        expected = (2 * (2 * (3 + 2 * 1 + 2) * 2) ** 4) ** 2
        assert expected == 1511207993344
        assert n_bound(Surface(1, 2), p).exact == expected
        assert n_bound(Surface(0, 5), p).exact == expected

    def test_modes(self):
        p = BoundParams(1, 2, 1)
        assert n_bound(TORUS_1_1, p, mode="log10").exact is None
        assert n_bound(TORUS_1_1, p, mode="exact").exact == 100
        capped = n_bound(TORUS_1_1, p, mode="auto", digit_cap=2)
        assert capped.mode == "log10" and capped.exact is None
        with pytest.raises(ValueError):
            n_bound(TORUS_1_1, p, mode="bogus")

    def test_exact_always_below_envelope(self):
        for surface in [TORUS_1_1, SPHERE_0_4, Surface(1, 2)]:
            for l in (1, 2):
                for k in (2, 3):
                    value = n_bound(surface, BoundParams(l, k, 2))
                    assert value.exact is not None
                    assert log10_upper(value.exact) <= value.log10_upper + Fraction(1, 10**6)

    def test_monotone_small_grid(self):
        surfaces = [TORUS_1_1, SPHERE_0_4, Surface(1, 2)]
        for surface in surfaces:
            for l in (1, 2, 3):
                for k in (2, 3, 4):
                    for M in (1, 2, 3):
                        here = n_bound(surface, BoundParams(l, k, M)).exact
                        assert n_bound(surface, BoundParams(l + 1, k, M)).exact > here
                        assert n_bound(surface, BoundParams(l, k + 1, M)).exact > here
                        assert n_bound(surface, BoundParams(l, k, M + 1)).exact > here

    def test_sphere_dominates_torus(self):
        for l in (1, 3):
            for k in (2, 4):
                p = BoundParams(l, k, 2)
                assert n_bound(SPHERE_0_4, p).exact > n_bound(TORUS_1_1, p).exact

    def test_growth_envelope(self):
        for surface in [TORUS_1_1, Surface(1, 2), Surface(2, 0)]:
            for l in (1, 2):
                p = BoundParams(l, 3, 2)
                value = n_bound(surface, p, mode="log10")
                assert value.log10_upper <= growth_upper(surface, p).log10_upper

    def test_str_rendering(self):
        p = BoundParams(1, 2, 1)
        assert str(n_bound(TORUS_1_1, p)) == "100"
        rendered = str(n_bound(TORUS_1_1, p, mode="log10"))
        assert rendered.startswith("10^2.0000")


class TestSliceBounds:
    def test_tight_values(self):
        point, radius = slice_bound(TORUS_1_1, 1), slice_bound(TORUS_1_1, 1, radius=True)
        assert point.exact == ((2 + 2 + 2) * 3) ** 3  # N(2M, 3)
        assert radius.exact == ((4 + 2 + 2) * 3) ** 5  # N(4M, 3)

    def test_weak_values_and_precondition(self):
        with pytest.raises(PreconditionViolation):
            slice_bound(TORUS_1_1, 2, 1)
        point, radius = slice_bound(TORUS_1_1, 1, 2), slice_bound(TORUS_1_1, 1, 2, radius=True)
        assert point.exact == ((4 + 2 + 2) * 3) ** 5  # N(2D, 3)
        assert radius.exact == ((6 + 2 + 2) * 3) ** 7  # N(2(D+M), 3)

    def test_consistent_with_verifier(self):
        from fareyulfp.farey import INFINITY, Slope
        from fareyulfp.slices import SliceQuery, verify_slice_bounds

        query = SliceQuery(INFINITY, Slope(1, 2), Slope(0, 1), 1)
        result = verify_slice_bounds(SurfaceKind.TORUS_1_1, query, M=1)
        assert result.bound.exact == slice_bound(TORUS_1_1, 1).exact

    @pytest.mark.parametrize("radius", [False, True], ids=["pointwise", "radius"])
    @pytest.mark.parametrize("s, M", [(TORUS_1_1, 1), (SPHERE_0_4, 3), (Surface(1, 2), 2)])
    def test_tight_is_weak_at_D_equal_to_M(self, s, M, radius):
        tight, weak = slice_bound(s, M, radius=radius), slice_bound(s, M, M, radius=radius)
        assert tight == weak and str(tight) == str(weak)

    @pytest.mark.parametrize("D", [None, 2, 5])
    @pytest.mark.parametrize("s", [TORUS_1_1, SPHERE_0_4])
    def test_forms_are_n_bound_at_2D_and_2_D_plus_M(self, s, D):
        M = 2
        reach = M if D is None else D
        assert slice_bound(s, M, D) == n_bound(s, BoundParams(2 * reach, 3, M))
        assert slice_bound(s, M, D, radius=True) == n_bound(s, BoundParams(2 * (reach + M), 3, M))

    @pytest.mark.parametrize("radius", [False, True], ids=["pointwise", "radius"])
    def test_D_below_M_raises_the_one_message(self, radius):
        with pytest.raises(PreconditionViolation, match=r"^weak-tight bound requires D >= M$"):
            slice_bound(TORUS_1_1, 3, 2, radius=radius)


class TestBigBound:
    def test_mode_property(self):
        assert BigBound(Fraction(2), "100", (1, 1, 2, 1, True)).mode == "exact"
        assert BigBound(Fraction(2)).mode == "log10"

    def test_digits_come_with_the_exact_value(self):
        with pytest.raises(ValueError):
            BigBound(Fraction(2), chain=(1, 1, 2, 1, True))
        with pytest.raises(ValueError):
            BigBound(Fraction(2), digits="100")


def _count_int_chains(monkeypatch) -> list:
    """Record the arguments of every ``_chain_exact`` call that evaluates an ``int``."""
    calls = []
    real = bounds._chain_exact

    def counting(*args):
        value = real(*args)
        if isinstance(value, int):
            calls.append(args)
        return value

    monkeypatch.setattr(bounds, "_chain_exact", counting)
    return calls


class TestLazyExact:
    """``n_bound`` evaluates only the ``decimal`` chain; ``exact`` runs the
    ``int`` chain on its first read."""

    def test_printing_evaluates_no_int(self, monkeypatch):
        calls = _count_int_chains(monkeypatch)
        value = n_bound(TORUS_1_1, BoundParams(2000, 2, 100))
        assert value.mode == "exact" and len(str(value)) > 5000
        assert calls == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--surface", "1,1", "--l", "2000", "--k", "2"],
            ["bounds", "--surface", "0,4", "--l", "1", "--k", "2", "--slice"],
            ["bounds", "--surface", "1,1", "--l", "1", "--k", "2", "--weak", "200"],
            ["--M", "1", "slice", "1/0", "1/2", "0/1", "--delta", "1"],
        ],
        ids=["bounds", "slice-bounds", "weak-bounds", "slice"],
    )
    def test_cli_reports_evaluate_no_int(self, monkeypatch, capsys, argv):
        from fareyulfp.cli import run

        calls = _count_int_chains(monkeypatch)
        assert run(argv) == 0
        assert json.loads(capsys.readouterr().out)["outputs"]
        assert calls == []

    def test_exact_is_evaluated_once_and_kept(self, monkeypatch):
        calls = _count_int_chains(monkeypatch)
        l, k, M = 300, 7, 5
        value = n_bound(TORUS_1_1, BoundParams(l, k, M))
        first = value.exact
        assert value.exact is first and len(calls) == 1
        assert first == ((l + 2 * M + 2) * k) ** (l + 1)
        assert str(value) == decimal_string(first)

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda b: pickle.loads(pickle.dumps(b))])
    def test_survives_copies_and_equals_its_twin(self, clone):
        p = BoundParams(40, 3, 2)
        value, twin = n_bound(SPHERE_0_4, p), n_bound(SPHERE_0_4, p)
        early = clone(value)
        assert early == value == twin and hash(early) == hash(twin)
        exact = value.exact
        late = clone(value)
        assert late == value == twin == early and hash(value) == hash(twin)
        assert early.exact == late.exact == twin.exact == exact
        assert str(early) == str(late) == str(value)
        envelope = n_bound(SPHERE_0_4, p, mode="log10")
        assert clone(envelope) == envelope and clone(envelope).exact is None


# surfaces of complexity 1 to 6 with (l, k, M) ranges whose bounds have at
# most about 10^5 digits
_EXACT_CASES = st.one_of(
    st.tuples(
        st.sampled_from([TORUS_1_1, SPHERE_0_4]),
        st.integers(1, 3000),
        st.integers(2, 50),
        st.integers(1, 200),
    ),
    st.tuples(
        st.sampled_from([Surface(1, 2), Surface(0, 5)]),
        st.integers(1, 30),
        st.integers(2, 9),
        st.integers(1, 20),
    ),
    st.tuples(
        st.sampled_from([Surface(1, 3), Surface(0, 6)]),
        st.integers(1, 6),
        st.integers(2, 5),
        st.integers(1, 3),
    ),
    st.tuples(
        st.sampled_from([Surface(2, 1), Surface(0, 7)]),
        st.integers(1, 3),
        st.integers(2, 5),
        st.integers(1, 2),
    ),
    st.tuples(
        st.sampled_from([Surface(1, 5), Surface(0, 8)]),
        st.integers(1, 2),
        st.integers(2, 5),
        st.just(1),
    ),
    st.tuples(st.sampled_from([Surface(2, 3), Surface(0, 9)]), st.just(1), st.integers(2, 5), st.just(1)),
)


class TestDecimalChain:
    """Exact digits come from the chain evaluated in ``decimal``; ``decimal_string``
    of the ``int`` chain is the independent judge."""

    @settings(max_examples=60, deadline=None)
    @given(_EXACT_CASES)
    @example((TORUS_1_1, 1, 2, 1))  # 100
    @example((SPHERE_0_4, 3000, 50, 200))
    @example((Surface(0, 9), 1, 5, 1))  # xi 6, 101 564 digits
    def test_digits_equal_the_converted_value(self, case):
        s, l, k, M = case
        value = n_bound(s, BoundParams(l, k, M), mode="exact")
        assert str(value) == decimal_string(value.exact)

    def test_certify_size_renders_under_the_default_limit(self):
        l, k, M = 28_157, 2, 100
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the interpreter default
        try:
            value = n_bound(TORUS_1_1, BoundParams(l, k, M))
            text = str(value)
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(text) == 133_856 and text == decimal_string(value.exact)
        assert text[-40:] == str(pow((l + 2 * M + 2) * k, l + 1, 10**40)).zfill(40)

    def test_callers_context_is_left_alone(self):
        with decimal.localcontext():
            caller = decimal.getcontext()
            caller.prec = 5
            value = n_bound(SPHERE_0_4, BoundParams(40, 3, 2))
            assert decimal.getcontext() is caller and caller.prec == 5
            assert not caller.traps[decimal.Inexact]
            assert not any(caller.flags.values())
        assert len(str(value)) > 5 and str(value) == decimal_string(value.exact)

    def test_a_rounding_raises(self):
        narrow = decimal.Context(prec=50, traps=[decimal.Inexact])
        assert 3000 < n_bound(SPHERE_0_4, BoundParams(1000, 3, 100), mode="log10").log10_upper < 4000
        with decimal.localcontext(narrow), pytest.raises(decimal.Inexact):
            bounds._chain_exact(1, 1000, 3, 100, False, decimal.Decimal(1))


class TestLog10Rendering:
    def test_rounds_up_past_the_exact_value(self):
        # N = 406^2 = 164 836 = 10^5.2170520671..., which rounds down to 10^5.217052
        value = n_bound(TORUS_1_1, BoundParams(1, 2, 100), digit_cap=2)
        assert value.mode == "log10" and str(value) == "10^5.217053"

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([TORUS_1_1, SPHERE_0_4, Surface(1, 2), Surface(0, 6), Surface(14, 1), Surface(100, 1)]),
        st.integers(1, 10**4),
        st.integers(2, 100),
        st.integers(1, 500),
    )
    def test_printed_value_is_the_envelope_rounded_up(self, s, l, k, M):
        value = n_bound(s, BoundParams(l, k, M), mode="log10")
        printed = Fraction(str(value).removeprefix("10^"))
        assert value.log10_upper <= printed < value.log10_upper + Fraction(1, 10**6)


@contextlib.contextmanager
def no_str_digit_limit():
    """Lift the int-to-str digit limit for the reference ``str(n)``, then restore it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.fixture
def unlimited_str_digits():
    with no_str_digit_limit():
        yield


_SPLIT_BITS = bounds._SPLIT_BITS
# around one and two splits: 2^k and 10^k cross the part size there
_NEAR_SPLIT = st.one_of(
    st.builds(
        lambda k, d: 2**k + d,
        st.integers(_SPLIT_BITS - 8, 2 * _SPLIT_BITS + 8),
        st.sampled_from([-1, 0, 1]),
    ),
    st.builds(
        lambda k, d: 10**k + d,
        st.integers(_SPLIT_BITS * 3 // 10 - 4, _SPLIT_BITS * 6 // 10 + 4),
        st.sampled_from([-1, 0, 1]),
    ),
)
# up to about 10^5 digits
_RANDOM_BIG = st.builds(
    lambda bits, seed: random.Random(seed).getrandbits(bits),
    st.integers(0, 332_000),
    st.integers(0, 2**32),
)


class TestDecimalString:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.integers(), _NEAR_SPLIT, _RANDOM_BIG), st.booleans())
    @example(0, False)
    @example(1, True)
    @example(2**_SPLIT_BITS, True)
    @example(random.Random(5).getrandbits(332_000), False)  # about 10^5 digits
    def test_equals_str(self, n, negate):
        n = -n if negate else n
        with no_str_digit_limit():
            assert decimal_string(n) == str(n)

    def test_every_width_across_the_first_splits(self, unlimited_str_digits):
        for k in range(_SPLIT_BITS - 4, 4 * _SPLIT_BITS + 4, 7):
            for n in (2**k - 1, 2**k, 2**k + 1):
                assert decimal_string(n) == str(n), k

    def test_needs_no_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)  # the interpreter default
        try:
            text = decimal_string(7**20_000)  # 16 902 digits
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(text) == 16_902 and text.endswith(str(pow(7, 20_000, 10**30)))

    def test_big_str_rendering_matches_str(self, unlimited_str_digits):
        value = n_bound(TORUS_1_1, BoundParams(500, 3, 2))
        assert str(value) == str(value.exact)


class TestCachesBounded:
    def test_distinct_l_loop_stays_bounded(self):
        for l in range(1, 384):
            n_bound(TORUS_1_1, BoundParams(l, 2, 1))
        assert not [name for name, obj in vars(bounds).items() if hasattr(obj, "cache_info")]

    def test_recursion_evaluates_each_leaf_once(self, monkeypatch):
        # the maximum over smaller complexity is always at xi - 1, so the
        # recursion is a chain with a single xi = 1 leaf, at l' = 1 + 200 * 24
        leaves = []
        real = bounds.log10_upper
        monkeypatch.setattr(bounds, "log10_upper", lambda v: leaves.append(v) or real(v))
        n_bound(Surface(9, 1), BoundParams(1, 2, 100), mode="log10")  # xi = 25
        assert leaves == [(4801 + 200 + 2) * 2 * 2]  # the sphere base at l' = 4801

    @pytest.mark.parametrize(
        "s, p, mode",
        [
            (Surface(13, 1), BoundParams(1, 2, 100), "log10"),  # xi = 37
            (Surface(1, 3), BoundParams(1, 2, 1), "exact"),  # xi = 3
            (Surface(2, 1), BoundParams(1, 2, 1), "exact"),  # xi = 4
        ]
        + [
            (s, BoundParams(l, k, M), mode)
            for mode in ("log10", "exact")
            for s in (TORUS_1_1, SPHERE_0_4)
            for l, k, M in [(1, 2, 1), (5, 7, 2), (40, 3, 100)]
        ]
        + [
            (s, BoundParams(l, k, M), "log10")
            for s in (Surface(1, 2), Surface(0, 6), Surface(5, 3), Surface(14, 1))  # xi 2, 3, 15, 40
            for l, k, M in [(1, 2, 1), (2, 3, 5), (40, 7, 100)]
        ]
        + [
            (s, BoundParams(l, k, M), "exact")
            for s in (Surface(1, 2), Surface(0, 6), Surface(2, 1), Surface(0, 9))  # xi 2, 3, 4, 6
            for l, k, M in [(1, 2, 1), (2, 3, 1)]
        ],
    )
    def test_matches_unbounded_recursion(self, s, p, mode):
        value = n_bound(s, p, mode=mode)
        got = value.exact if mode == "exact" else value.log10_upper
        torus = s == TORUS_1_1
        assert got == _reference(complexity(s), p.l, p.k, p.M, torus, mode == "exact")


class TestChainLog10:
    @pytest.mark.parametrize(
        "s",
        [TORUS_1_1, SPHERE_0_4]
        + [Surface(0, xi + 3) for xi in (2, 3, 40, 898, 8998)]
        + [Surface((xi + 2) // 3, xi + 3 - 3 * ((xi + 2) // 3)) for xi in (2, 3, 40, 898, 8998)],
        ids=str,
    )
    def test_matches_fraction_steps(self, s):
        # l, k, M of `ulfp bounds --surface g,n --l 1 --k 2` at the default M
        xi, torus = complexity(s), s == TORUS_1_1
        assert bounds._chain_log10(xi, 1, 2, 100, torus) == _fraction_steps(xi, 1, 2, 100, torus)


    @pytest.mark.parametrize(
        "xi, torus", [(1, True)] + [(xi, False) for xi in (1, 2, 3, 4, 5, 17, 256, 300, 513)]
    )
    def test_product_tree_matches_the_step_loop(self, xi, torus):
        for l, k, M in ((1, 2, 100), (3, 5, 1), (2, 3, 7)):
            got = bounds._chain_log10(xi, l, k, M, torus)
            assert got == _integer_steps(xi, l, k, M, torus)


def _integer_steps(xi: int, l: int, k: int, M: int, torus: bool) -> Fraction:
    """The log10 chain step by step, in integers over one denominator."""
    first, *rest = range(l + 2 * M * (xi - 1), l - 1, -2 * M)
    start = (first + 1) * log10_upper((first + 2 * M + 2) * k * (1 if torus else 2))
    step = bounds._LOG10_2_UPPER + bounds._SLACK
    den = math.lcm(start.denominator, step.denominator)
    value, add = (f.numerator * (den // f.denominator) for f in (start, step))
    for L in rest:
        value = (L + 1) * (add + value)
    return Fraction(value, den)


def _fraction_steps(xi: int, l: int, k: int, M: int, torus: bool) -> Fraction:
    """The log10 chain with every step a ``Fraction`` sum, normalized as it goes."""
    first, *rest = range(l + 2 * M * (xi - 1), l - 1, -2 * M)
    value = (first + 1) * log10_upper((first + 2 * M + 2) * k * (1 if torus else 2))
    for L in rest:
        value = (L + 1) * (bounds._LOG10_2_UPPER + bounds._SLACK + value)
    return value


def _reference(xi: int, l: int, k: int, M: int, torus: bool, exact: bool):
    """N_S(l, k) or its log10 envelope by the recursion, memoised in a plain dict."""
    memo = {}

    def n(c: int, l: int, torus: bool):
        if (c, l, torus) not in memo:
            if c == 1:
                base = (l + 2 * M + 2) * k * (1 if torus else 2)
                memo[c, l, torus] = base ** (l + 1) if exact else (l + 1) * log10_upper(base)
            else:
                inner = max(n(d, l + 2 * M, False) for d in range(1, c))
                step = bounds._LOG10_2_UPPER + bounds._SLACK
                memo[c, l, torus] = (2 * inner) ** (l + 1) if exact else (l + 1) * (step + inner)
        return memo[c, l, torus]

    return n(xi, l, torus)


def _cli_bound(capsys, l: int, k: int) -> str:
    from fareyulfp.cli import run

    code = run(["bounds", "--surface", "1,1", "--l", str(l), "--k", str(k)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    outputs = json.loads(captured.out)["outputs"]
    assert outputs["mode"] == "exact"
    return outputs["value"]


class TestCliExactValues:
    """Printed exact bounds checked by routes that never call ``str(int)`` on them."""

    def test_largest_default_cap_value(self, capsys):
        # 940 445 digits, below the default 10^6-digit cap
        l, k, M = 170_000, 2, 100
        base = (l + 2 * M + 2) * k
        value = _cli_bound(capsys, l, k)
        assert value.isdigit() and value[0] != "0"
        assert value[-40:] == str(pow(base, l + 1, 10**40)).zfill(40)
        log10_value = (l + 1) * math.log10(base)
        assert len(value) == math.floor(log10_value) + 1 == 940_445
        envelope = n_bound(TORUS_1_1, BoundParams(l, k, M), mode="log10").log10_upper
        assert len(value) - 1 <= envelope < len(value)
        leading = 10 ** (log10_value - math.floor(log10_value) + 7)
        assert abs(int(value[:8]) - leading) <= 2

    def test_report_equals_str_of_closed_form(self, capsys, unlimited_str_digits):
        l, k, M = 28_000, 2, 100
        value = _cli_bound(capsys, l, k)
        assert len(value) > 130_000
        assert value == str(((l + 2 * M + 2) * k) ** (l + 1))
