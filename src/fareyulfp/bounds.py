"""Exact evaluation of the recursive local-finiteness bounds.

The threshold N_S(l, k) is ((l+2M+2)k)^(l+1) on the once-holed torus,
(2(l+2M+2)k)^(l+1) on the four-holed sphere, and recursively
(2 N'(l+2M, k))^(l+1) in higher complexity, where N' is the maximum of
the bounds over strictly smaller complexity.  Write N(c, l) for the bound
at complexity c, with the sphere base at c = 1 (it dominates the torus).

The maximum is always at complexity xi - 1, so the recursion is a chain
of xi steps.  N(1, l) increases in l, and the recursion keeps that, so N
increases in l at every complexity.  Then N increases in c: for c >= 2,
N(c, L) >= (2 N(c-1, L+2M))^(L+1) > N(c-1, L+2M) >= N(c-1, L).  The log10
envelope follows the same steps, with log10 of 2 rounded up, so the same
argument holds there because ``log10_upper`` is nondecreasing.

Values explode superexponentially, so every result carries a rational
upper bound on its log10 and the exact integer is only materialized below
a digit cap.  Below the cap the chain is evaluated twice: once in ``int``
for the value, and once in ``decimal`` under an exact context for its
printed digits, which then need no binary-to-decimal conversion.  A log10
envelope prints rounded up to six decimals, so it stays an upper bound.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import PreconditionViolation
from .farey import SurfaceKind

# float log10 rounded up far enough to stay an upper bound after scaling
_LOG10_2_UPPER = Fraction(math.log10(2)) + Fraction(1, 10**15)
_SLACK = Fraction(1, 10**9)

DEFAULT_DIGIT_CAP = 10**6
_SPLIT_BITS = 1000  # parts this small are converted directly


def decimal_string(n: int) -> str:
    """``str(n)`` in O(M(n) log n) time, also where ``str(int)`` is quadratic.

    Divide-and-conquer radix conversion (Brent & Zimmermann, *Modern
    Computer Arithmetic*, 2010, section 1.7): split ``n = hi * 2^w + lo``
    and combine the halves in ``decimal``, whose large multiplications are
    number-theoretic transforms, under ``_exact_context``.
    """
    if n.bit_length() <= _SPLIT_BITS:
        return str(n)
    if n < 0:
        return "-" + decimal_string(-n)
    with decimal.localcontext(_exact_context()):
        return str(_to_decimal(n, n.bit_length(), {}))


def _exact_context() -> decimal.Context:
    """Integer arithmetic at full precision; ``Inexact`` is trapped, so a
    rounding raises instead of printing a wrong digit."""
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    ctx.traps[decimal.Inexact] = True
    return ctx


def _to_decimal(n: int, w: int, powers: dict) -> decimal.Decimal:
    """The exact Decimal of ``0 <= n < 2^w``; ``powers`` keeps each 2^w built."""
    if w <= _SPLIT_BITS:
        return decimal.Decimal(n)
    half = w >> 1
    hi = n >> half
    lo = _to_decimal(n - (hi << half), half, powers)
    return lo + _to_decimal(hi, w - half, powers) * _power_of_two(half, powers)


def _power_of_two(w: int, powers: dict) -> decimal.Decimal:
    if w not in powers:
        if w <= _SPLIT_BITS:
            powers[w] = decimal.Decimal(2) ** w
        else:
            powers[w] = _power_of_two(w >> 1, powers) * _power_of_two(w - (w >> 1), powers)
    return powers[w]


@dataclass(frozen=True, slots=True)
class Surface:
    """Compact surface of genus g with n boundary components, xi >= 1."""

    g: int
    n: int

    def __post_init__(self) -> None:
        if self.g < 0 or self.n < 0:
            raise ValueError("genus and boundary count must be nonnegative")
        if 3 * self.g + self.n - 3 < 1:
            raise ValueError(f"surface S_{{{self.g},{self.n}}} has complexity < 1")

    def __str__(self) -> str:
        return f"S_{self.g},{self.n}"


TORUS_1_1 = Surface(1, 1)
SPHERE_0_4 = Surface(0, 4)


def surface_for_kind(kind: SurfaceKind) -> Surface:
    return TORUS_1_1 if kind is SurfaceKind.TORUS_1_1 else SPHERE_0_4


def complexity(s: Surface) -> int:
    return 3 * s.g + s.n - 3


@dataclass(frozen=True, slots=True)
class BoundParams:
    l: int
    k: int
    M: int

    def __post_init__(self) -> None:
        if self.l <= 0:
            raise PreconditionViolation("l must be positive")
        if self.k <= 1:
            raise PreconditionViolation("k must exceed 1")
        if self.M <= 0:
            raise PreconditionViolation("M must be positive")


@dataclass(frozen=True)
class BigBound:
    """A bound value: exact integer when feasible, log10 envelope always.

    ``digits`` is the decimal string of ``exact``, given exactly when
    ``exact`` is; ``n_bound`` takes it from the chain evaluated in
    ``decimal``.  Without it the bound prints as ``10^x``, x the envelope
    rounded up to six decimals.
    """

    log10_upper: Fraction
    exact: Optional[int] = None
    digits: Optional[str] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if (self.exact is None) != (self.digits is None):
            raise ValueError("digits are given exactly when the exact value is")

    @property
    def mode(self) -> str:
        return "exact" if self.exact is not None else "log10"

    def __str__(self) -> str:
        if self.digits is not None:
            return self.digits
        return f"10^{_six_decimals(self.log10_upper)}"


def _six_decimals(x: Fraction) -> str:
    """x rounded up to six decimals, so the printed value is never below x."""
    scaled = math.ceil(x * 10**6)
    whole, part = divmod(abs(scaled), 10**6)
    return f"{'-' * (scaled < 0)}{decimal_string(whole)}.{part:06d}"


def log10_upper(value: int) -> Fraction:
    """A rational upper bound on log10(value), tight to well under 1e-6."""
    if value <= 0:
        raise ValueError("log10 of a nonpositive value")
    bits = value.bit_length()
    if bits <= 64:
        return Fraction(math.log10(value)) + _SLACK
    shift = bits - 64
    lead = value >> shift
    return Fraction(math.log10(lead + 1)) + shift * _LOG10_2_UPPER + _SLACK


def _levels(xi: int, l: int, M: int) -> range:
    """The l-arguments of the chain: l + 2M(xi-1) for N(1, .) down to l for N(xi, .)."""
    return range(l + 2 * M * (xi - 1), l - 1, -2 * M)


def _base(l: int, k: int, M: int, torus: bool) -> int:
    return (l + 2 * M + 2) * k * (1 if torus else 2)


def _chain_exact(xi: int, l: int, k: int, M: int, torus: bool, one=1):
    """N(xi, l) in the number type of ``one``; ``torus`` picks the S_1,1 base,
    so it implies xi = 1.  A ``Decimal`` is exact only in an exact context."""
    first, *rest = _levels(xi, l, M)
    value = (one * _base(first, k, M, torus)) ** (first + 1)
    for L in rest:
        value = (2 * value) ** (L + 1)
    return value


def _chain_log10(xi: int, l: int, k: int, M: int, torus: bool) -> Fraction:
    """The log10 envelope of ``_chain_exact``, in integer steps over one denominator.

    Each step v <- (L + 1)(add + v) is the affine map (L + 1, (L + 1) add).
    """
    first, *rest = _levels(xi, l, M)
    start = (first + 1) * log10_upper(_base(first, k, M, torus))
    step = _LOG10_2_UPPER + _SLACK
    den = math.lcm(start.denominator, step.denominator)  # no gcd in the chain
    value, add = (f.numerator * (den // f.denominator) for f in (start, step))
    return Fraction(_apply([(L + 1, (L + 1) * add) for L in rest], value), den)


def _apply(maps: list[tuple[int, int]], value: int) -> int:
    """``value`` after the affine maps (A, B), v -> A v + B, first to last.

    Step by step, each product would have one operand that keeps growing,
    so the chain would cost quadratic time.  Instead the second half is
    composed into one map and applied to the first half's result, so the
    large products have operands of about equal size.
    """
    if len(maps) <= 1:
        for A, B in maps:
            value = A * value + B
        return value
    mid = len(maps) // 2
    A, B = _compose(maps[mid:])
    return A * _apply(maps[:mid], value) + B


def _compose(maps: list[tuple[int, int]]) -> tuple[int, int]:
    """The one affine map that applies ``maps`` first to last, by a balanced
    product tree: (A2, B2) after (A1, B1) is (A2 A1, A2 B1 + B2)."""
    if len(maps) == 1:
        return maps[0]
    mid = len(maps) // 2
    (A1, B1), (A2, B2) = _compose(maps[:mid]), _compose(maps[mid:])
    return A2 * A1, A2 * B1 + B2


def n_bound(
    s: Surface,
    p: BoundParams,
    mode: str = "auto",
    digit_cap: int = DEFAULT_DIGIT_CAP,
) -> BigBound:
    """The computable threshold N_S(l, k) for the given surface.

    mode "auto" materializes the exact integer whenever the predicted
    digit count stays below digit_cap, "exact" forces materialization,
    and "log10" returns only the envelope.
    """
    if mode not in ("auto", "exact", "log10"):
        raise ValueError(f"unknown mode {mode!r}")
    xi = complexity(s)
    torus = s == TORUS_1_1
    envelope = _chain_log10(xi, p.l, p.k, p.M, torus)
    if mode == "log10":
        return BigBound(envelope)
    if mode == "auto" and envelope >= digit_cap:
        return BigBound(envelope)
    with decimal.localcontext(_exact_context()):
        digits = str(_chain_exact(xi, p.l, p.k, p.M, torus, decimal.Decimal(1)))
    return BigBound(envelope, _chain_exact(xi, p.l, p.k, p.M, torus), digits)


def slice_bound_tight(s: Surface, M: int, **kw) -> tuple[BigBound, BigBound]:
    """Slice bounds N_S(2M, 3) (pointwise) and N_S(4M, 3) (radius form)."""
    return (
        n_bound(s, BoundParams(2 * M, 3, M), **kw),
        n_bound(s, BoundParams(4 * M, 3, M), **kw),
    )


def slice_bound_weak(s: Surface, D: int, M: int, **kw) -> tuple[BigBound, BigBound]:
    """Weak-tight slice bounds N_S(2D, 3) and N_S(2(D+M), 3); needs D >= M."""
    if D < M:
        raise PreconditionViolation("weak-tight bound requires D >= M")
    return (
        n_bound(s, BoundParams(2 * D, 3, M), **kw),
        n_bound(s, BoundParams(2 * (D + M), 3, M), **kw),
    )


def growth_upper(s: Surface, p: BoundParams) -> BigBound:
    """log10 of the closed-form envelope N_{S04}(xi*L, k)^((2*xi*L)^xi)."""
    xi = complexity(s)
    L = p.l + 2 * p.M
    inner = _chain_log10(1, xi * L, p.k, p.M, False)
    return BigBound((2 * xi * L) ** xi * inner)
