"""Twist-coordinate model of annular subsurface projections.

The true annular-cover distance is replaced by an exactly computable
surrogate: transport the annulus core to 1/0 by its canonical normalizer,
read each curve as a rational twist coordinate, and compare the floors of
the coordinates measured in full-twist units.  On the torus this
reproduces the twist-distance identity d(y, T^n y) = |n| + 2 exactly; on
the four-holed sphere the half-twist count is recovered within +-1.

An annulus is named by its core slope, and every function here takes the
core itself.  Only the floor of a coordinate enters a distance, so the
projection of a curve to an annulus is one integer, its twist floor,
computed without building the rational coordinate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import EmptyProjection
from .farey import MobiusMap, Slope, SurfaceKind, apply, normalizer_to_infinity


def twist_coord(core: Slope, y: Slope) -> Fraction:
    """The exact position of y in the chart of the core's canonical normalizer."""
    if y == core:
        raise EmptyProjection(f"{y} is the core of the annulus")
    t = apply(normalizer_to_infinity(core), y)
    return Fraction(t.p, t.q)


def _floor(g: MobiusMap, shift: int, y: Slope) -> int:
    """twist_coord(core, y) // shift in integers, for g the normalizer of the core.

    Floor division needs no reduction and no sign normalization of the
    image fraction: floor(a / b) = floor(-a / -b).
    """
    return (g.a * y.p + g.b * y.q) // ((g.c * y.p + g.d * y.q) * shift)


def twist_floors(kind: SurfaceKind, core: Slope, curves: Iterable[Slope]) -> dict[Slope, int]:
    """Twist floor, in full-twist units, of every curve projecting to the annulus.

    The core has empty projection and is left out.  For distinct curves
    y and z the annular distance is |floor(y) - floor(z)| + 2.
    """
    g, shift = normalizer_to_infinity(core), kind.twist_shift
    return {y: _floor(g, shift, y) for y in curves if y != core}


def annular_distance(kind: SurfaceKind, core: Slope, y: Slope, z: Slope) -> int:
    """Model distance between the projections of y and z to the annulus.

    Equal curves project to a single set of diameter 1; otherwise the
    distance is the gap between floor-of-twist values plus 2, with the
    floor taken in full-twist units (1 on the torus, 2 on the sphere).
    """
    for curve in (y, z):
        if curve == core:
            raise EmptyProjection(f"{curve} is the core of the annulus")
    if y == z:
        return 1
    g, shift = normalizer_to_infinity(core), kind.twist_shift
    return abs(_floor(g, shift, y) - _floor(g, shift, z)) + 2
