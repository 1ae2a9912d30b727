"""Twist-coordinate annular projections and the twist-distance identities."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from corpus import random_mobius, random_slope
from fareyulfp.annular import annular_distance, twist_coord, twist_floors
from fareyulfp.errors import EmptyProjection
from fareyulfp.farey import (
    INFINITY,
    MobiusMap,
    Slope,
    SurfaceKind,
    apply,
    dehn_twist,
    half_twist,
    normalizer_to_infinity,
)

TORUS = SurfaceKind.TORUS_1_1
SPHERE = SurfaceKind.SPHERE_0_4


class TestAnnulus:
    def test_projects_iff_not_core(self):
        with pytest.raises(EmptyProjection):
            annular_distance(TORUS, INFINITY, INFINITY, Slope(0, 1))
        assert annular_distance(TORUS, INFINITY, Slope(0, 1), Slope(1, 1)) == 3
        assert set(twist_floors(TORUS, INFINITY, [INFINITY, Slope(0, 1)])) == {Slope(0, 1)}

    def test_twist_coord_in_the_infinity_chart(self):
        assert twist_coord(INFINITY, Slope(3, 7)) == Fraction(3, 7)
        with pytest.raises(EmptyProjection):
            twist_coord(INFINITY, INFINITY)

    def test_twist_coord_deterministic_for_general_core(self):
        # read in the chart of the canonical normalizer of the core
        core, y = Slope(2, 5), Slope(1, 3)
        value = twist_coord(core, y)
        moved = apply(normalizer_to_infinity(core), y)
        assert isinstance(value, Fraction) and value == Fraction(moved.p, moved.q)


class TestAnnularDistance:
    def test_equal_curves_have_distance_one(self):
        assert annular_distance(TORUS, INFINITY, Slope(2, 3), Slope(2, 3)) == 1

    def test_floor_gap_plus_two(self):
        # coordinates 0 and 5 differ by five full twists
        assert annular_distance(TORUS, INFINITY, Slope(0, 1), Slope(5, 1)) == 7
        # on the sphere a full twist is two chart units
        assert annular_distance(SPHERE, INFINITY, Slope(0, 1), Slope(5, 1)) == 4

    def test_symmetric(self):
        rng = random.Random(11)
        core = Slope(1, 4)
        for _ in range(50):
            y, z = random_slope(rng), random_slope(rng)
            if core in (y, z):
                continue
            for kind in SurfaceKind:
                assert annular_distance(kind, core, y, z) == annular_distance(
                    kind, core, z, y
                )

    def test_distinct_curves_at_least_two(self):
        rng = random.Random(13)
        core = Slope(0, 1)
        for _ in range(100):
            y, z = random_slope(rng), random_slope(rng)
            if core in (y, z) or y == z:
                continue
            for kind in SurfaceKind:
                assert annular_distance(kind, core, y, z) >= 2


class TestMobiusInvariance:
    """Moving the core and both curves by one map m keeps the twist model.

    The canonical normalizers of core and m(core) differ, after m, by a map
    fixing 1/0: x -> x + n when det m = +1, x -> n - x when det m = -1.  A
    shift moves every twist coordinate of the core by n, so on the torus,
    one chart unit per twist, floor differences are kept exactly.  On the
    sphere, two units per twist, an odd shift moves them by at most 1, and
    so does the reflection on either surface.
    """

    @staticmethod
    def moved_triples(seed: int, count: int, flip: bool):
        rng = random.Random(seed)
        reflection = MobiusMap(-1, 0, 0, 1)
        out = []
        while len(out) < count:
            core, y, z = (random_slope(rng, 30) for _ in range(3))
            if core in (y, z):
                continue
            m = random_mobius(rng)
            if flip:
                m = m.compose(reflection)
            out.append(((core, y, z), tuple(apply(m, v) for v in (core, y, z))))
        return out

    def test_torus_distance_is_sl2z_invariant(self):
        for (core, y, z), moved in self.moved_triples(47, 1500, flip=False):
            assert annular_distance(TORUS, core, y, z) == annular_distance(TORUS, *moved)

    @pytest.mark.parametrize("kind, flip", [(SPHERE, False), (TORUS, True), (SPHERE, True)])
    def test_within_one_elsewhere(self, kind, flip):
        for (core, y, z), moved in self.moved_triples(53, 500, flip):
            assert abs(annular_distance(kind, core, y, z) - annular_distance(kind, *moved)) <= 1


class TestTwistIdentities:
    def test_torus_twist_identity_exact(self):
        rng = random.Random(23)
        for _ in range(200):
            x, y = random_slope(rng), random_slope(rng)
            n = rng.randint(-50, 50)
            if x == y or n == 0:
                continue
            twisted = dehn_twist(TORUS, x, n, y)
            assert annular_distance(TORUS, x, y, twisted) == abs(n) + 2

    def test_sphere_half_twist_within_one(self):
        rng = random.Random(29)
        for _ in range(200):
            x, y = random_slope(rng), random_slope(rng)
            n = rng.randint(-50, 50)
            if x == y or n == 0:
                continue
            twisted = half_twist(x, n, y)
            got = annular_distance(SPHERE, x, y, twisted)
            want = abs(n) // 2 + 2
            assert abs(got - want) <= 1, (x, y, n)

    def test_sphere_half_twist_exact_subcase(self):
        # Exact when the fractional part of t/2 leaves room for the shear:
        # frac < 1/2 for positive n, frac >= 1/2 for negative n.
        rng = random.Random(31)
        checked = 0
        while checked < 100:
            x, y = random_slope(rng), random_slope(rng)
            n = rng.randint(-50, 50)
            if x == y or n == 0:
                continue
            t = twist_coord(x, y)
            frac = t / 2 - (t // 2)
            if not ((n > 0 and frac < Fraction(1, 2)) or (n < 0 and frac >= Fraction(1, 2))):
                continue
            twisted = half_twist(x, n, y)
            assert annular_distance(SPHERE, x, y, twisted) == abs(n) // 2 + 2
            checked += 1

    def test_twist_equivariance(self):
        # d_Z is invariant under twisting both arguments along the core.
        rng = random.Random(37)
        for _ in range(100):
            x = random_slope(rng)
            y, z = random_slope(rng), random_slope(rng)
            n = rng.randint(-10, 10)
            if x in (y, z):
                continue
            for kind in SurfaceKind:
                ty = dehn_twist(kind, x, n, y)
                tz = dehn_twist(kind, x, n, z)
                assert annular_distance(kind, x, y, z) == annular_distance(
                    kind, x, ty, tz
                )

    def test_mobius_transport_of_the_core_chart(self):
        # Twisting along a transported core matches transporting the twist.
        rng = random.Random(41)
        for _ in range(50):
            m = random_mobius(rng)
            y = random_slope(rng)
            n = rng.randint(-8, 8)
            from fareyulfp.farey import apply

            x = INFINITY
            mx, my = apply(m, x), apply(m, y)
            if mx == my:
                continue
            lhs = dehn_twist(TORUS, mx, n, my)
            rhs_options = {
                apply(m, dehn_twist(TORUS, x, n, y)),
                apply(m, dehn_twist(TORUS, x, -n, y)),
            }
            # orientation of the chart may flip under the transport
            assert lhs in rhs_options
