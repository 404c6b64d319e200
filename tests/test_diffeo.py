import dataclasses
import json
import math
import random
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliqueforest import (
    BumpPoly,
    BumpTrig,
    Compose,
    DomainError,
    GeneratorAssignment,
    Identity,
    Inverse,
    InvariantBreach,
    InversionError,
    Manifold,
    MobiusI,
    PerturbedF,
    PerturbedLiftS1,
    Power,
    RotationS1,
    SimpleGraph,
    SineShear,
    SynthesisOptions,
    TagMismatchError,
    Translation,
    commutation_graph,
    commutator_residual,
    commutator_witness,
    derivative,
    evaluate,
    fixed_points,
    lift_evaluate,
    point_distance,
    synthesize_embedding,
    verify_assignment,
    word_evaluate,
)
from cliqueforest import diffeo
from cliqueforest.diffeo import (
    SCALAR_SOLVE_MAX,
    DiffeoExpr,
    _dedup,
    _grid,
    _roots_on_grid,
    _solve_increasing,
    _solve_increasing_array,
    apply_letters,
    grid_sups,
)
from cliqueforest.serialize import dumps_expr, loads_expr
from conftest import mobius_matrix, mobius_matrix_apply

GRID = [i / 64 for i in range(65)]


class TestEvaluate:
    def test_mobius_fixes_zero(self):
        assert evaluate(MobiusI(2.3), 0.0) == 0.0

    def test_mobius_fixes_one(self):
        assert evaluate(MobiusI(2.3), 1.0) == 1.0

    def test_mobius_half(self):
        # alpha x / ((alpha-1) x + 1) at alpha=2, x=1/2 is exactly 2/3
        assert evaluate(MobiusI(2.0), 0.5) == pytest.approx(2 / 3, abs=1e-15)

    def test_identity(self):
        assert evaluate(Identity(Manifold.INTERVAL), 0.37) == 0.37

    def test_domain_violation(self):
        with pytest.raises(DomainError):
            evaluate(MobiusI(2.0), 1.5)

    def test_circle_reduces_mod_one(self):
        r = RotationS1(math.pi)  # half turn
        assert evaluate(r, 0.75) == pytest.approx(0.25, abs=1e-12)

    def test_circle_lift_degree_one(self):
        r = RotationS1(1.0)
        for x in (0.1, 0.9, 2.5):
            assert lift_evaluate(r, x + 1.0) == pytest.approx(
                lift_evaluate(r, x) + 1.0, abs=1e-12
            )

    def test_sine_shear(self):
        f = SineShear(1.0)
        assert evaluate(f, 0.0) == 0.0
        assert evaluate(f, math.pi) == pytest.approx(math.pi, abs=1e-15)

    def test_strictly_monotone_on_grid(self):
        e = Compose((MobiusI(1.3), Inverse(MobiusI(2.0)), MobiusI(2.9)))
        vals = [evaluate(e, x) for x in GRID]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestDerivative:
    def test_identity(self):
        assert derivative(Identity(Manifold.INTERVAL), 0.3) == 1.0

    def test_mobius_at_zero(self):
        # d/dx of alpha x / ((alpha-1) x + 1) at 0 is alpha
        assert derivative(MobiusI(2.0), 0.0) == pytest.approx(2.0, abs=1e-14)

    def test_mobius_matches_finite_difference(self):
        e = MobiusI(2.7)
        h = 1e-6
        for x in (0.2, 0.5, 0.8):
            fd = (evaluate(e, x + h) - evaluate(e, x - h)) / (2 * h)
            assert derivative(e, x) == pytest.approx(fd, rel=1e-8)

    def test_chain_rule_composition(self):
        e = Compose((MobiusI(1.5), MobiusI(2.0)))
        # closed form: the composition is the Mobius map with alpha = 3
        for x in GRID:
            assert derivative(e, x) == pytest.approx(derivative(MobiusI(3.0), x), rel=1e-12)

    def test_inverse_derivative_reciprocal(self):
        e = MobiusI(2.0)
        x = 0.4
        y = evaluate(e, x)
        assert derivative(Inverse(e), y) == pytest.approx(1.0 / derivative(e, x), rel=1e-10)


class TestInversion:
    def test_round_trip_interval(self):
        e = Compose((MobiusI(2.2), MobiusI(1.4)))
        for x in GRID:
            y = evaluate(e, x)
            assert evaluate(Inverse(e), y) == pytest.approx(x, abs=1e-10)

    def test_round_trip_circle(self):
        e = RotationS1(2.0)
        for x in GRID[:-1]:
            y = evaluate(e, x)
            assert evaluate(Inverse(e), y) == pytest.approx(x, abs=1e-10)

    def test_round_trip_line(self):
        e = SineShear(1.0)
        for x in (-5.0, 0.3, 7.7):
            y = evaluate(e, x)
            assert evaluate(Inverse(e), y) == pytest.approx(x, abs=1e-10)

    def test_power_negative(self):
        e = MobiusI(2.0)
        x = 0.3
        y = evaluate(Power(e, 3), x)
        assert evaluate(Power(e, -3), y) == pytest.approx(x, abs=1e-10)


class TestClosedFormInverse:
    YS = [i / 256 for i in range(257)]
    ALPHAS = [1.0 + (math.pi - 1.0) * j / 32 for j in range(1, 32)]

    def test_mobius_matches_root_search(self):
        for a in self.ALPHAS:
            e = MobiusI(a)
            for y in self.YS:
                assert abs(e._inv_raw(y) - _solve_increasing(e, y)) <= 1e-15

    def test_mobius_round_trip(self):
        for a in self.ALPHAS:
            e = MobiusI(a)
            for y in self.YS:
                assert abs(e._raw(e._inv_raw(y)) - y) <= 4.5e-16
                assert abs(e._inv_raw(e._raw(y)) - y) <= 1e-15

    def test_mobius_endpoints_exact(self):
        for a in self.ALPHAS:
            assert MobiusI(a)._inv_raw(0.0) == 0.0
            assert MobiusI(a)._inv_raw(1.0) == 1.0

    def test_rotation_inverse_is_negation(self):
        for theta in (0.7, -2.1, math.pi, 5.0):
            for y in (-1.5, 0.0, 0.3, 0.999, 2.25):
                assert RotationS1(theta)._inv_raw(y) == RotationS1(-theta)._raw(y)
                assert RotationS1(theta)._inv_raw(y) == y - theta / (2 * math.pi)


# a circle lift whose fixed point -1e-11 / 2 pi lies just across the ends of the turn
SEAM = PerturbedLiftS1((BumpTrig(0.1, 1, 1e-11),))


class TestFixedPoints:
    def test_mobius_endpoints(self):
        fps = fixed_points(MobiusI(2.0), 256, 1e-10)
        assert list(fps.points) == pytest.approx([0.0, 1.0], abs=1e-10)
        assert not fps.degenerate
        assert fps.interval_signs == (1,)  # alpha > 1 pushes points up

    def test_identity_degenerate(self):
        fps = fixed_points(Identity(Manifold.INTERVAL), 128, 1e-10)
        assert fps.degenerate
        assert all(f == "tangency-suspect" for f in fps.flags)

    def test_identity_in_disguise(self):
        e = Compose((MobiusI(2.0), Inverse(MobiusI(2.0))))
        fps = fixed_points(e, 128, 1e-10)
        assert fps.degenerate  # collapses to the identity; flagged, not guessed

    def test_interior_transverse_crossing(self):
        # sin(x)/2 + x fixes k pi; only pi lies inside (0.5, 4)
        fps = fixed_points(SineShear(1.0), 512, 1e-10, domain=(0.5, 4.0))
        assert list(fps.points) == pytest.approx([math.pi], abs=1e-9)
        assert fps.flags == ("transverse",)

    def test_zero_rotation_degenerate(self):
        fps = fixed_points(RotationS1(0.0), 64, 1e-10)
        assert fps.degenerate

    def test_rotation_no_fixed_points(self):
        fps = fixed_points(RotationS1(1.0), 128, 1e-10)
        assert fps.points == ()

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            fixed_points(MobiusI(2.0), 1, 1e-10)

    @pytest.mark.parametrize("grid_n", [64, 1024])
    def test_seam_point_reported_once(self, grid_n):
        # F(x) - x = 0.1 sin(2 pi x + 1e-11) vanishes at -1e-11 / 2 pi and
        # half a turn on: the first lies just below 1, within the dedup
        # distance of the grid root at 0, and is that point, once
        fps = fixed_points(SEAM, grid_n, 1e-10)
        assert fps.points == pytest.approx([0.0, 0.5], abs=1e-9)
        assert fps.flags == ("transverse", "transverse")

    @pytest.mark.parametrize("e, domain", [
        # F(x) - x = -2 + bumps lies in (-2.12, -1.88): the shifts -3, -2 and -1
        (Compose((RotationS1(-4 * math.pi),
                  PerturbedLiftS1((BumpTrig(0.1, 1), BumpTrig(0.02, 2, 0.3))))), None),
        (PerturbedF((BumpPoly(0.05, 1, 1, (1.0, -2.0)),)), None),
        (SineShear(1.0), (0.0, 4 * math.pi)),
        (SEAM, None),
    ], ids=["lift-three-shifts", "interval", "line", "seam"])
    @pytest.mark.parametrize("grid_n", [64, 256, 1000])
    def test_matches_two_branch_search(self, e, domain, grid_n):
        """The one root pass gives, bit for bit, the points, flags, signs and
        degeneracy of a search with one branch for the circle and one for
        I and R."""
        got = fixed_points(e, grid_n, 1e-10, domain)
        ref = _two_branch_fixed_points(e, grid_n, 1e-10, domain)
        assert _bits(got.points) == _bits(ref.points)
        assert (got.flags, got.interval_signs, got.degenerate) == (
            ref.flags, ref.interval_signs, ref.degenerate)
        assert len(got.points) >= 2 and not got.degenerate
        for p in got.points:
            assert point_distance(e.manifold, evaluate(e, p), p) < 1e-9


def _two_branch_fixed_points(e, grid_n, tol, domain):
    """Reference: the fixed-point search with one branch on the circle, over
    the shifts n of F - id - n, and one on I and R, with the signs of f - id
    between the points."""
    m = e.manifold
    xs = _grid(m, grid_n, domain)
    rs = e._raw(xs) - xs
    if m is Manifold.CIRCLE:
        if float(np.max(np.abs(rs - np.round(rs)))) < tol:
            return diffeo.FixedPointSet(tuple(xs), ("tangency-suspect",) * len(xs), tol, (),
                                        True, grid_n)
        found = []
        for n in range(int(math.floor(rs.min())), int(math.ceil(rs.max())) + 1):
            found.extend(_roots_on_grid(lambda x: e._raw(x) - x - n, xs, rs - n, tol))
        found = sorted((p % 1.0, fl) for p, fl in found)
        pts, flags = _dedup(found, tol)
        # merge a last point within the dedup distance of the first point + 1
        if len(pts) > 1 and abs(pts[0] + 1.0 - pts[-1]) <= max(tol, 1e-9):
            flags[0] = "transverse" if "transverse" in (flags[0], flags[-1]) else flags[0]
            del pts[-1], flags[-1]
        signs = ()
    else:
        if float(np.max(np.abs(rs))) < tol:
            return diffeo.FixedPointSet(tuple(xs), ("tangency-suspect",) * len(xs), tol, (),
                                        True, grid_n)
        found = sorted(_roots_on_grid(lambda x: e._raw(x) - x, xs, rs, tol))
        pts, flags = _dedup(found, tol)
        signs = []
        for q in (0.5 * (a + b) for a, b in zip(pts, pts[1:])):
            r = e._raw(q) - q
            signs.append(0 if abs(r) < tol else (1 if r > 0 else -1))
    return diffeo.FixedPointSet(tuple(pts), tuple(flags), tol, tuple(signs), False, grid_n)


class TestCommutatorResidual:
    def test_mobius_family_commutes(self):
        assert commutator_residual(MobiusI(1.7), MobiusI(2.9), 256) < 1e-12

    def test_rotations_commute(self):
        # exact commutation up to floating non-associativity of the lift sums
        assert commutator_residual(RotationS1(0.7), RotationS1(2.1), 256) < 1e-15

    def test_sine_shear_with_own_period(self):
        a = 1.0
        r = commutator_residual(
            SineShear(a), Translation(2 * math.pi / a), 512, domain=(0.0, 4 * math.pi)
        )
        assert r < 1e-12

    def test_translations_commute(self):
        r = commutator_residual(
            Translation(2 * math.pi), Translation(math.pi), 256, domain=(0.0, 4 * math.pi)
        )
        assert r < 1e-13

    def test_tag_mismatch(self):
        with pytest.raises(TagMismatchError):
            commutator_residual(MobiusI(2.0), RotationS1(1.0))

    def test_convention_independent_zero(self):
        # residual-zero commutation does not depend on commutator orientation
        a, b = MobiusI(1.5), MobiusI(2.5)
        assert commutator_residual(a, b, 128) < 1e-12
        assert commutator_residual(b, a, 128) < 1e-12

    @staticmethod
    def _reference_sup(m, fn, xs):
        worst, wx = -1.0, xs[0]
        for x in xs:
            r = point_distance(m, fn(x), x)
            if r > worst:
                worst, wx = r, x
        return wx, worst

    def test_grid_sup_matches_reference_scan(self):
        xs = [i / 256 for i in range(257)]
        f = PerturbedF((BumpPoly(0.1, 1),))
        g = MobiusI(2.3)
        ref = self._reference_sup(
            Manifold.INTERVAL, lambda x: f._raw(g._raw(f._inv_raw(g._inv_raw(x)))), xs
        )
        assert commutator_witness(f, g, 256) == ref
        assert commutator_residual(f, g, 256) == ref[1]
        assert grid_sups([f], 256)[0][1] == self._reference_sup(
            Manifold.INTERVAL, f._raw, xs
        )[1]
        r1, r2 = RotationS1(0.7), RotationS1(2.1)
        ref = self._reference_sup(
            Manifold.CIRCLE, lambda x: r1._raw(r2._raw(r1._inv_raw(r2._inv_raw(x)))), xs
        )
        assert commutator_witness(r1, r2, 256) == ref

    def test_same_fixed_points_when_commuting(self):
        # transitivity harness: commuting Mobius maps share their fixed sets
        a, b = MobiusI(1.5), MobiusI(2.5)
        assert commutator_residual(a, b, 128) < 1e-12
        fa = fixed_points(a, 128, 1e-10).points
        fb = fixed_points(b, 128, 1e-10).points
        assert fa == pytest.approx(fb, abs=1e-9)


class TestWordEvaluate:
    def test_empty_word(self):
        assert word_evaluate([], {}, 0.42) == 0.42

    def test_commutator_word_mobius(self):
        asg = {"g1": MobiusI(1.8), "g2": MobiusI(2.6)}
        w = [("g1", 1), ("g2", 1), ("g1", -1), ("g2", -1)]
        assert word_evaluate(w, asg, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_grouped_exponents(self):
        asg = {"g": MobiusI(2.0)}
        x = 0.3
        via_pairs = word_evaluate([("g", 3)], asg, x)
        via_power = evaluate(Power(MobiusI(2.0), 3), x)
        assert via_pairs == pytest.approx(via_power, abs=1e-14)

    def test_unassigned_name(self):
        with pytest.raises(KeyError):
            word_evaluate([("h", 1)], {"g": MobiusI(2.0)}, 0.5)

    def test_tag_mismatch(self):
        with pytest.raises(TagMismatchError):
            word_evaluate(
                [("a", 1), ("b", 1)], {"a": MobiusI(2.0), "b": RotationS1(1.0)}, 0.5
            )


@st.composite
def mobius_alpha(draw):
    return draw(st.floats(min_value=1.0001, max_value=math.pi - 0.0001))


class TestMobiusGroupLaw:
    @given(mobius_alpha(), mobius_alpha())
    @settings(max_examples=100, deadline=None)
    def test_composition_is_product(self, a, b):
        # oracle: product of the matrices [[alpha, 0], [alpha-1, 1]]
        mat = mobius_matrix(a) @ mobius_matrix(b)
        comp = Compose((MobiusI(a), MobiusI(b)))
        for x in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert evaluate(comp, x) == pytest.approx(
                mobius_matrix_apply(mat, x), abs=1e-12
            )

    @given(mobius_alpha(), mobius_alpha())
    @settings(max_examples=50, deadline=None)
    def test_family_commutes(self, a, b):
        assert commutator_residual(MobiusI(a), MobiusI(b), 64) < 1e-12

    @given(mobius_alpha(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_inversion_consistency(self, a, x):
        e = MobiusI(a)
        assert evaluate(Inverse(e), evaluate(e, x)) == pytest.approx(x, abs=1e-10)

    @given(mobius_alpha())
    @settings(max_examples=50, deadline=None)
    def test_endpoint_fixing(self, a):
        assert abs(evaluate(MobiusI(a), 0.0)) < 1e-14
        assert abs(evaluate(MobiusI(a), 1.0) - 1.0) < 1e-14

    @given(mobius_alpha(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_derivative(self, a, x):
        assert derivative(MobiusI(a), x) > 0


class TestStructuralErrors:
    def test_compose_tag_mismatch(self):
        with pytest.raises(TagMismatchError):
            Compose((MobiusI(2.0), RotationS1(1.0)))

    def test_empty_compose(self):
        with pytest.raises(ValueError):
            Compose(())

    def test_mobius_needs_positive_alpha(self):
        with pytest.raises(ValueError):
            MobiusI(-1.0)

    def test_sine_shear_nonzero(self):
        with pytest.raises(ValueError):
            SineShear(0.0)


class TestPerturbedMaps:
    """The perturbed maps check their monotonicity with their own ``_draw``
    on the grid; equal bumps, however given, make equal maps."""

    POLY = [
        (BumpPoly(0.1, 1),),
        (BumpPoly(0.05, 1, 1, (1.0, -2.0)), BumpPoly(-0.01, 2, 2)),
        (BumpPoly(0.2, 1, 3, (0.5, 0.25, -1.0)), BumpPoly(0.003, 2, 1), BumpPoly(-0.07, 3, 2)),
        (),
    ]
    TRIG = [
        (BumpTrig(0.1, 1),),
        (BumpTrig(0.1, 1, 1e-11), BumpTrig(-0.02, 2, 0.3)),
        (BumpTrig(0.05, 1, 2.0), BumpTrig(0.03, 2, -1.1), BumpTrig(0.001, 3, 5.5)),
        (),
    ]

    def test_non_increasing_map_rejected(self):
        with pytest.raises(InvariantBreach) as exc:
            PerturbedF((BumpPoly(5.0, 1),))
        assert str(exc.value) == "perturbed map not increasing (min grid derivative -4.0)"

    def test_non_increasing_lift_rejected(self):
        with pytest.raises(InvariantBreach) as exc:
            PerturbedLiftS1((BumpTrig(0.5, 1),))
        assert str(exc.value) == "perturbed lift not increasing on grid"

    @pytest.mark.parametrize("grid_n", [64, 1000, diffeo.DEFAULT_GRID])
    @pytest.mark.parametrize("k", range(4))
    def test_draw_is_the_old_grid_check(self, k, grid_n):
        """The constructors check ``_draw``, which on the grid gives bitwise
        the formulas they checked before: numpy's Horner evaluation of the
        derivative's coefficients, and 1 plus the derivatives of the trig
        bumps."""
        f = PerturbedF(self.POLY[k], grid_n)
        xs = _grid(f.manifold, grid_n)
        old = np.polynomial.polynomial.polyval(xs, f._dcoeffs)
        assert _bits(f._draw(xs)) == _bits(old)
        lift = PerturbedLiftS1(self.TRIG[k], grid_n)
        xs = _grid(lift.manifold, grid_n)
        old = np.ones_like(xs)
        for b in lift.bumps:
            old = old + b.c * 2 * math.pi * np.cos(2 * math.pi * xs + b.phase)
        assert _bits(np.broadcast_to(lift._draw(xs), xs.shape)) == _bits(old)

    @pytest.mark.parametrize("cls, bumps", [(PerturbedF, b) for b in POLY[:3]]
                             + [(PerturbedLiftS1, b) for b in TRIG[:3]])
    def test_list_tuple_and_document_equal(self, cls, bumps):
        e = cls(list(bumps))
        assert e.bumps == bumps and isinstance(e.bumps, tuple)
        assert e == cls(bumps) and hash(e) == hash(cls(bumps))
        back = loads_expr(dumps_expr(e))
        assert back == e and hash(back) == hash(e) and repr(back) == repr(e)
        assert repr(e) == f"{cls.__name__}(bumps={bumps!r})"


P = np.polynomial.polynomial  # the reference of the plain-float polynomial path


def _random_bumps(seed, count):
    """``count`` small bumps of random shape: their sum keeps x + bumps
    increasing."""
    rng = random.Random(seed)
    return tuple(BumpPoly(rng.uniform(-0.02, 0.02), stage, rng.randint(1, 3),
                          tuple(rng.uniform(-1.0, 1.0) for _ in range(rng.randint(1, 3))))
                 for stage in range(1, count + 1))


def _numpy_coeffs(bumps):
    """x plus the bumps' coefficients, summed by ``polyadd``."""
    coeffs = np.array([0.0, 1.0])
    for b in bumps:
        coeffs = P.polyadd(coeffs, b.coeffs)
    return coeffs


class TestPolynomialPath:
    """Bump values and derivatives and the coefficients of perturbed maps are
    plain-float Horner sums, bitwise numpy.polynomial's ``polyval``,
    ``polyder`` and ``polyadd``."""

    # top coefficients that cancel: x^2 (1-x) against x (1-x)^2 leaves
    # degree 2, and two opposite bumps leave x itself
    CANCELLING = [
        (BumpPoly(0.1, 1, 1, (0.0, 1.0)), BumpPoly(0.1, 2, 1, (1.0, -1.0))),
        (BumpPoly(0.1, 1), BumpPoly(-0.1, 2)),
        (BumpPoly(-0.05, 1, 2), BumpPoly(0.02, 2, 1, (1.0, 1.0)), BumpPoly(0.05, 3, 2)),
        (BumpPoly(0.0, 1, 2, (1.0, -1.0)),),  # all coefficients zero, some -0.0
    ]

    def _assert_bitwise_numpy(self, bumps, grid_n):
        f = PerturbedF(bumps, grid_n)
        ref = _numpy_coeffs(bumps)
        assert _bits(f._coeffs) == _bits(ref)
        assert _bits(f._dcoeffs) == _bits(P.polyder(ref))
        xs = _grid(Manifold.INTERVAL, grid_n)
        assert _bits(f._draw(xs)) == _bits(P.polyval(xs, P.polyder(ref)))
        for b in bumps:
            assert _bits(b.values(xs)) == _bits(P.polyval(xs, b.coeffs))
            assert _bits(b.dcoeffs) == _bits(P.polyder(b.coeffs))
            assert _bits(b.deriv_values(xs)) == _bits(P.polyval(xs, P.polyder(b.coeffs)))
        return f

    @pytest.mark.parametrize("grid_n", [64, 1000, diffeo.DEFAULT_GRID])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_bumps(self, seed, grid_n):
        self._assert_bitwise_numpy(_random_bumps(seed, 1 + seed % 4), grid_n)

    @pytest.mark.parametrize("grid_n", [64, 1000, diffeo.DEFAULT_GRID])
    @pytest.mark.parametrize("seed", range(3))
    def test_bumps_read_back_from_a_document(self, seed, grid_n):
        f = PerturbedF(_random_bumps(10 + seed, 3), grid_n)
        back = loads_expr(dumps_expr(f))
        assert all(type(v) is float for b in back.bumps for v in b.t_coeffs)
        assert _bits(self._assert_bitwise_numpy(back.bumps, grid_n)._coeffs) == _bits(f._coeffs)

    @pytest.mark.parametrize("grid_n", [64, 1000, diffeo.DEFAULT_GRID])
    @pytest.mark.parametrize("case", range(len(CANCELLING)))
    def test_cancelling_top_coefficients_are_trimmed(self, case, grid_n):
        bumps = self.CANCELLING[case]
        f = self._assert_bitwise_numpy(bumps, grid_n)
        assert len(f._coeffs) < max(len(b.coeffs) for b in bumps)
        assert f._coeffs[-1] != 0 and len(f._dcoeffs) == len(f._coeffs) - 1

    @pytest.mark.parametrize("c1, c2", [
        ((0.0, 1.0), (1.0, -1.0, 1.0)), ((1.0, 2.0, 3.0), (0.5, -2.0, -3.0)),
        ((1.0, 0.0, -0.0), (-0.0, 2.0)), ((0.0,), (-0.0, -0.0)), ((2.0, 3.0), (1.0, -3.0)),
        ((-0.0, 1.0, 0.0), (0.0, -1.0)), ((3.0,), (4.0, 0.0, 0.0, 5.0)),
        ((1.0, 0.0), (1.0, -0.0, 3.0)),  # -0.0 stays: the trimmed 0.0 is never added
    ])
    def test_helpers_on_zeros_and_cancellations(self, c1, c2):
        xs = np.linspace(-2.0, 2.0, 65)
        assert _bits(diffeo._sum(c1, c2)) == _bits(P.polyadd(c1, c2))
        for cs in (c1, c2, diffeo._sum(c1, c2)):
            assert _bits(diffeo._derivative(cs)) == _bits(P.polyder(cs))
            assert _bits(diffeo._polyval(cs, xs)) == _bits(P.polyval(xs, cs))


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


class _LineMap(DiffeoExpr):
    """A line map without a closed-form inverse, so inverting it root-searches."""

    manifold = Manifold.LINE

    def __init__(self, raw, draw):
        self._r, self._d = raw, draw

    def _raw(self, x):
        return self._r(x)

    def _draw(self, x):
        return self._d(x)

    KIND = "test_line_map"


def _two_loop_solve_increasing(e, y):
    """``_solve_increasing`` off the interval with the bracket expanded by
    two loops, each bracket end evaluated once more after its loop: the
    reference for ``diffeo._expand``."""
    lo, hi = y - 1.0, y + 1.0
    step = 1.0
    for _ in range(64):
        if e._raw(lo) - y <= 0:
            break
        lo -= step
        step *= 2
    else:
        raise InversionError("bracket expansion failed (lower)")
    step = 1.0
    for _ in range(64):
        if e._raw(hi) - y >= 0:
            break
        hi += step
        step *= 2
    else:
        raise InversionError("bracket expansion failed (upper)")
    flo, fhi = e._raw(lo) - y, e._raw(hi) - y
    if flo >= 0.0:
        return lo
    if fhi <= 0.0:
        return hi
    scale = max(1.0, abs(y))
    x = min(max(y, lo), hi)
    for _ in range(diffeo.INVERSION_MAX_ITER):
        fx = e._raw(x) - y
        if fx == 0.0:
            return x
        if fx > 0:
            hi = x
        else:
            lo = x
        if hi - lo <= 4e-16 * max(1.0, abs(lo), abs(hi)) and abs(fx) <= diffeo.INVERSION_TOL * scale:
            return x
        xn = None
        d = e._draw(x)
        if d > 0:
            cand = x - fx / d
            if lo < cand < hi:
                xn = cand
        x = xn if xn is not None else 0.5 * (lo + hi)
    if abs(e._raw(x) - y) > 1e-9 * scale:
        raise InversionError(f"inversion of {e.KIND} did not converge at y={y}")
    return x


def _conjugate(f, g, depth):
    return Compose((Power(f, depth), g, Power(f, -depth)))


def _reference_roots(f, xs, tol):
    """Reference: the per-grid-point scan, calling f at every grid point."""
    out = []
    vals = [f(x) for x in xs]
    for i in range(len(xs) - 1):
        a, b = xs[i], xs[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            out.append((a, "transverse"))
            continue
        if fa * fb < 0:
            for _ in range(200):
                mid = 0.5 * (a + b)
                fm = f(mid)
                if fm == 0.0 or b - a < tol:
                    break
                if fa * fm < 0:
                    b, fb = mid, fm
                else:
                    a, fa = mid, fm
            out.append((0.5 * (a + b), "transverse"))
        elif min(abs(fa), abs(fb)) < tol:
            out.append((a if abs(fa) <= abs(fb) else b, "tangency-suspect"))
    if vals[-1] == 0.0:
        out.append((xs[-1], "transverse"))
    return out


class TestArrayGridPath:
    """Grid scans run as one array pass and reproduce the scalar scan."""

    F = PerturbedF((BumpPoly(0.124875, 1), BumpPoly(-0.01, 2, 1, (0.0, 1.0))))
    LIFT = PerturbedLiftS1((BumpTrig(0.02, 1, 0.5), BumpTrig(-0.004, 2, math.pi / 4)))
    XS = [i / 256 for i in range(257)]

    def _scalar_commutator(self, a, b):
        return lambda x: a._raw(b._raw(a._inv_raw(b._inv_raw(x))))

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_interval_conjugates_match_scalar_scan(self, depth):
        h = _conjugate(self.F, MobiusI(2.3), depth)
        k = _conjugate(self.F, MobiusI(1.7), 1)
        xs = np.array(self.XS)
        assert _bits(h._raw(xs)) == _bits([h._raw(x) for x in self.XS])
        assert _bits(h._inv_raw(xs)) == _bits([h._inv_raw(x) for x in self.XS])
        ref = TestCommutatorResidual._reference_sup(
            Manifold.INTERVAL, self._scalar_commutator(h, k), self.XS
        )
        assert commutator_witness(h, k, 256) == ref
        assert grid_sups([h], 256)[0][1] == TestCommutatorResidual._reference_sup(
            Manifold.INTERVAL, h._raw, self.XS
        )[1]

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_circle_conjugates_match_scalar_scan(self, depth):
        # np.sin/np.cos agree with math.sin/math.cos bitwise where tested; a
        # platform whose vector trig differs may be off by rounding only
        xs = np.array(self.XS)
        angles = 2 * math.pi * xs
        exact = _bits(np.sin(angles)) == _bits([math.sin(t) for t in angles])
        tol = 0.0 if exact else 1e-15
        h = _conjugate(self.LIFT, RotationS1(2.1), depth)
        k = _conjugate(self.LIFT, RotationS1(0.7), 1)
        for arr, ref in ((h._raw(xs), [h._raw(x) for x in self.XS]),
                         (h._inv_raw(xs), [h._inv_raw(x) for x in self.XS])):
            assert np.max(np.abs(arr - np.array(ref))) <= tol
        wx, r = commutator_witness(h, k, 256)
        rx, rr = TestCommutatorResidual._reference_sup(
            Manifold.CIRCLE, self._scalar_commutator(h, k), self.XS
        )
        assert abs(r - rr) <= tol
        if exact:
            assert (wx, r) == (rx, rr)

    PAD = [i / 97 for i in range(98)]

    @pytest.mark.parametrize("e, ys", [
        (F, [0.0, 1e-300, 0.25, 0.5, 0.70710678, 0.999, 1.0] + PAD),
        (LIFT, [-1.5, -0.2, 0.0, 0.3, 0.999, 2.25, 7.0] + PAD),
        # steep enough that some Newton steps leave the bracket and bisect
        (SineShear(1.9), [-40.0, -3.0, 0.0, 0.5, math.pi, 12.0]
         + [-10.0 + i / 10 for i in range(201)] + PAD),
        # far shifts: the bracket must expand several times on one side
        (_LineMap(lambda x: x + 37.5 + 0.5 * np.sin(1.9 * x),
                  lambda x: 1.0 + 0.95 * np.cos(1.9 * x)),
         [-100.0, 0.0, 3.3] + [i / 10 for i in range(100)] + PAD),
        (_LineMap(lambda x: 1.5 * x - 900.0, lambda x: 1.5), [-2.0, 0.0, 1e3] + PAD),
        # the lift fixes the integers and half-integers exactly, so those stop
        # at the first iterate while the others take three to four more
        (PerturbedLiftS1((BumpTrig(0.02, 1),)),
         [float(k) for k in range(-3, 4)] + [k + 0.5 for k in range(-3, 3)] + PAD),
        # every element at a bracket end: 0 and 1 on I; on the line the
        # residual at the expanded upper end y + 1 is exactly 0
        (F, [0.0, 1.0] * 20),
        (_LineMap(lambda x: x - 1.0, lambda x: 1.0), [k / 4 for k in range(-40, 40)]),
        (PerturbedLiftS1((BumpTrig(0.03, 1, 0.3), BumpTrig(-0.01, 2, 1.1),
                          BumpTrig(0.005, 3, 2.0), BumpTrig(0.002, 4, 4.5))),
         [-2.5, -0.01, 0.0, 0.77, 3.5] + PAD),
        # just past the element-by-element size, and one past the walk's chunk
        (LIFT, [-1.0 + i / 16 for i in range(SCALAR_SOLVE_MAX + 1)]),
        (LIFT, [-2.0 + i / 1024 for i in range(2 ** 13 + 1)]),
        # the ends of the proven bracket's range, and -0.0
        (LIFT, [-(2.0 ** 40), 2.0 ** 40, -0.0] + PAD),
        (SineShear(1.9), [-(2.0 ** 40), 2.0 ** 40, -0.0, -40.0, 40.0] + PAD),
        # one target past 2^40 sends the whole array through the expansion
        (LIFT, [-(2.0 ** 41), 2.0 ** 41, -3e12, 3e12] + PAD),
        (SineShear(1.9), [-(2.0 ** 41), 2.0 ** 41, -3e12, 3e12] + PAD),
        (LIFT, [3e12 + i / 64 for i in range(100)]),
        # a four-bump lift over one walk chunk of a wide-forest verify
        (PerturbedLiftS1((BumpTrig(0.03, 1, 0.3), BumpTrig(-0.01, 2, 1.1),
                          BumpTrig(0.005, 3, 2.0), BumpTrig(0.002, 4, 4.5))),
         [-3.5 + i / 1025 for i in range(7175)]),
    ])
    def test_array_solver_matches_scalar(self, e, ys):
        got = _solve_increasing_array(e, np.array(ys))
        assert _bits(got) == _bits([_solve_increasing(e, y) for y in ys])

    @pytest.mark.parametrize("e", [LIFT, SineShear(1.9)], ids=["lift", "shear"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_fails_expansion(self, e, bad):
        # a non-finite target has no bracket: the array is rejected before
        # any expansion, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InversionError, match=f"non-finite target {bad} for {e.KIND}"):
                _solve_increasing_array(e, np.array([bad] + self.PAD))

    @pytest.mark.parametrize("e", [LIFT, SineShear(1.9)], ids=["lift", "shear"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("size", [1, SCALAR_SOLVE_MAX, SCALAR_SOLVE_MAX + 8])
    def test_non_finite_target_rejected_before_evaluation(self, e, bad, size):
        # both solvers, element by element and whole-array, raise the same
        # InversionError without evaluating the map and without a warning
        calls = []

        class Counted(type(e)):
            def _raw(self, x):
                calls.append(np.size(x))
                return super()._raw(x)

        counted = Counted(*(getattr(e, f.name) for f in dataclasses.fields(e)))
        ys = np.linspace(-2.0, 2.0, size)
        ys[size // 2] = bad
        message = f"non-finite target {bad} for {e.KIND}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InversionError, match=message):
                _solve_increasing_array(counted, ys)
            with pytest.raises(InversionError, match=message):
                _solve_increasing(counted, bad)
        assert calls == []

    def test_lift_bracket_evaluated_once_per_side(self):
        # the bracket [y - 1, y + 1] of a near-identity lift holds at once:
        # one evaluation per element per side, whose residuals are the
        # bracket-end values, then one at the first iterate y before any
        # derivative is taken
        calls = []

        class Counted(PerturbedLiftS1):
            def _raw(self, x):
                calls.append(("raw", np.size(x)))
                return super()._raw(x)

            def _draw(self, x):
                calls.append(("draw", np.size(x)))
                return super()._draw(x)

        lift = Counted(self.LIFT.bumps)
        ys = [-2.0 + i / 256 for i in range(1281)]
        got = _solve_increasing_array(lift, np.array(ys))
        assert _bits(got) == _bits([_solve_increasing(self.LIFT, y) for y in ys])
        first_draw = next(i for i, (kind, _) in enumerate(calls) if kind == "draw")
        assert sum(n for _, n in calls[:first_draw]) <= 3 * len(ys)

    @pytest.mark.parametrize("cls, args, start, evals", [
        (PerturbedLiftS1, (LIFT.bumps,), -40.0, 1),
        (SineShear, (1.9,), -40.0, 1),
        # the shear's values without a declared bound
        (_LineMap, (lambda x: 0.5 * np.sin(1.9 * x) + x,
                    lambda x: 0.5 * 1.9 * np.cos(1.9 * x) + 1.0), -40.0, 3),
        # bumps that cancel: a bound above 1.2, too large to prove the bracket
        (PerturbedLiftS1, ((BumpTrig(0.6, 1), BumpTrig(-0.6, 1)),), -40.0, 3),
        # targets past 2^40
        (PerturbedLiftS1, (LIFT.bumps,), 3e12, 3),
    ], ids=["lift", "shear", "unbounded", "large-bound", "far-targets"])
    def test_proven_bracket_evaluates_no_end(self, cls, args, start, evals):
        # a declared shift bound proves [y - 1, y + 1] a bracket with neither
        # end the preimage: e is evaluated once per element, at the first
        # iterate, before the first derivative.  Otherwise each end is
        # evaluated once more
        calls = []

        class Counted(cls):
            def _raw(self, x):
                calls.append(("raw", np.size(x)))
                return super()._raw(x)

            def _draw(self, x):
                calls.append(("draw", np.size(x)))
                return super()._draw(x)

        e = Counted(*args)
        calls.clear()  # the lift's constructor checks its derivative
        ys = [start + i / 16 for i in range(1281)]
        got = _solve_increasing_array(e, np.array(ys))
        assert _bits(got) == _bits([_solve_increasing(e, y) for y in ys])
        first_draw = next(i for i, (kind, _) in enumerate(calls) if kind == "draw")
        assert sum(n for _, n in calls[:first_draw]) == evals * len(ys)

    def test_shift_bounds_are_sound(self):
        # |e(x) - x| <= s on the turn, where the bumps peak, and over the
        # whole proven range |x| < 2^41, where the additions round most
        xs = np.concatenate([np.linspace(0.0, 1.0, 2 ** 16, endpoint=False),
                             np.linspace(-(2.0 ** 41), 2.0 ** 41, 2 ** 16 + 2)[1:-1]])
        rng = random.Random(29)
        maps = [PerturbedLiftS1(tuple(
            BumpTrig(rng.uniform(-0.035, 0.035), k, rng.uniform(0.0, 2 * math.pi))
            for k in range(1, rng.randint(1, 4) + 1))) for _ in range(12)]
        # the lift of a K6+3xK2 embedding at word length 4, read back
        edges = list(combinations(range(6), 2)) + [(6, 7), (8, 9), (10, 11)]
        asg = synthesize_embedding(SimpleGraph.from_edges(12, edges), Manifold.CIRCLE,
                                   SynthesisOptions(word_len=4))
        back = GeneratorAssignment.from_dict(json.loads(json.dumps(asg.to_dict())))
        lifts = {e for h in back.exprs().values() for e, _ in h.letters
                 if isinstance(e, PerturbedLiftS1)}
        assert lifts
        maps += lifts
        maps += [SineShear(a) for a in [-2.0, 2.0, 1.9, -0.25]
                 + [rng.uniform(-2.0, 2.0) for _ in range(8)]]
        for e in maps:
            s = e._shift_bound()
            assert s is not None and s + 2.0 ** -12 < 1.0, e
            assert np.max(np.abs(e._raw(xs) - xs)) <= s, e
        assert SineShear(2.5)._shift_bound() is None

    @pytest.mark.parametrize("cls, args, ys", [
        (PerturbedLiftS1, ((BumpTrig(0.02, 1, 0.5), BumpTrig(-0.004, 2, math.pi / 4)),),
         [-2.5, -1.0, 0.0, 0.5, 0.999, 3.25] + [-2.0 + i / 64 for i in range(257)]),
        (SineShear, (1.9,), [-40.0, -3.0, 0.0, 0.5, math.pi, 12.0]
         + [-10.0 + i / 10 for i in range(201)]),
        # far shifts: the bracket expands several times on one side
        (_LineMap, (lambda x: x + 37.5 + 0.5 * np.sin(1.9 * x),
                    lambda x: 1.0 + 0.95 * np.cos(1.9 * x)),
         [-100.0, 0.0, 3.3] + [i / 10 for i in range(100)]),
    ], ids=["lift", "shear", "far-shift"])
    def test_scalar_bracket_ends_evaluated_once(self, cls, args, ys):
        """Bitwise the results of the two-loop expansion, with two fewer
        evaluations per solve: each bracket end's residual is the one its
        expansion computed."""
        calls = []

        class Counted(cls):
            def _raw(self, x):
                calls.append(x)
                return super()._raw(x)

        e = Counted(*args)
        for y in ys:
            calls.clear()
            got = _solve_increasing(e, y)
            new = len(calls)
            calls.clear()
            want = _two_loop_solve_increasing(e, y)
            assert (_bits([got]), new) == (_bits([want]), len(calls) - 2), y
        # a NaN target: the two-loop expansion fails after its steps, the
        # solver before any evaluation
        with pytest.raises(InversionError, match=r"bracket expansion failed \(lower\)"):
            _two_loop_solve_increasing(e, math.nan)
        calls.clear()
        with pytest.raises(InversionError, match="non-finite target nan"):
            _solve_increasing(e, math.nan)
        assert calls == []

    def test_array_solver_out_of_range(self):
        # small arrays are solved element by element, larger ones in one
        # masked pass: both raise
        bounded = _LineMap(np.arctan, lambda x: 1.0 / (1.0 + x * x))
        for pad in ([], [i / 64 for i in range(65)]):
            with pytest.raises(InversionError):
                _solve_increasing_array(self.F, np.array([0.2, 1.5, 0.4] + pad))
            with pytest.raises(InversionError):
                self.F._inv_raw(np.array([-0.1] + pad))
            ys = [0.5] + pad
            assert _bits(bounded._inv_raw(np.array(ys))) == _bits(
                [_solve_increasing(bounded, y) for y in ys]
            )
            with pytest.raises(InversionError):
                bounded._inv_raw(np.array([0.5, 2.0] + pad))

    @pytest.mark.parametrize("ys", [
        [math.nan],
        [0.25, math.nan, 0.5] + [i / 32 for i in range(SCALAR_SOLVE_MAX - 3)],
        [i / 64 for i in range(32)] + [math.nan] + [i / 64 for i in range(32, 65)],
    ], ids=["alone", "element-by-element", "array"])
    def test_nan_target_raises(self, ys):
        # NaN fails every comparison, so the range test must fail on it too:
        # else the search runs all its iterations and returns NaN as preimage
        f = PerturbedF((BumpPoly(0.124875, 1),))
        with pytest.raises(InversionError, match="nan"):
            _solve_increasing_array(f, np.array(ys))
        with pytest.raises(InversionError, match="nan"):
            _solve_increasing(f, math.nan)

    def test_endpoint_rounding_on_interval(self):
        # f fixes 1, but its rounded value there is 1 - 2^-53: a target in
        # [0, 1] past the rounded endpoint value inverts to the endpoint
        f = PerturbedF((BumpPoly(0.10014586905202105, 1),))
        assert f._raw(1.0) == 1.0 - 2.0 ** -53
        assert _solve_increasing(f, 1.0) == 1.0
        ys = [0.0, 0.5, 1.0 - 2.0 ** -53, 1.0] + [i / 64 for i in range(65)]
        assert _bits(_solve_increasing_array(f, np.array(ys))) == _bits(
            [_solve_increasing(f, y) for y in ys]
        )
        h = Compose((Power(f, 1), MobiusI(2.0), Power(f, -1)))
        assert commutator_residual(h, MobiusI(1.5)) > 1e-8

    def test_draw_matches_scalar(self):
        xs = np.array(self.XS)
        for e in (Identity(Manifold.INTERVAL), MobiusI(2.3), self.F,
                  Inverse(self.F), Power(self.F, -2), _conjugate(self.F, MobiusI(1.7), 2),
                  self.LIFT, SineShear(1.3)):
            assert _bits(np.broadcast_to(e._draw(xs), xs.shape)) == _bits(
                [e._draw(x) for x in self.XS]
            ), e

    @pytest.mark.parametrize("e, domain", [
        (MobiusI(2.0), None),
        (Compose((MobiusI(2.0), Inverse(MobiusI(2.0)))), None),
        (SineShear(1.0), (0.5, 4.0)),
        (RotationS1(1.0), None),
        (PerturbedF((BumpPoly(0.05, 1, 1, (1.0, -2.0)),)), None),
        (Compose((RotationS1(0.1), PerturbedLiftS1((BumpTrig(0.03, 1),)))), None),
    ])
    def test_fixed_point_scans_match_scalar(self, e, domain):
        lo, hi = domain or (0.0, 1.0)
        xs = np.linspace(lo, hi, 513)
        rs = e._raw(xs) - xs
        assert _bits(rs) == _bits([e._raw(x) - x for x in xs])
        for n in (0, -1, 1):
            f = lambda x: e._raw(x) - x - n  # noqa: E731
            assert _roots_on_grid(f, xs, rs - n, 1e-10) == _reference_roots(f, xs, 1e-10)


def _commutator(a, b):
    return Compose((a, b, Inverse(a), Inverse(b)))


class TestGridSups:
    """One walk over the letter trie of many expressions gives each one's
    grid sup, bitwise that of the scalar scan."""

    F, LIFT = TestArrayGridPath.F, TestArrayGridPath.LIFT
    H_I = (_conjugate(F, MobiusI(2.3), 2), _conjugate(F, MobiusI(1.7), 1))
    H_S1 = (_conjugate(LIFT, RotationS1(2.1), 2), _conjugate(LIFT, RotationS1(0.7), 1))
    SHEARS = (SineShear(1.0), Translation(2 * math.pi), SineShear(0.5))
    # the second expression of each case, a Power(e, 0), has no letters: it
    # is the identity, (xs[0], 0.0)
    CASES = {
        "I": ([_commutator(*H_I), Power(F, 0), H_I[0], _commutator(H_I[1], H_I[0]), F,
               Identity(Manifold.INTERVAL), MobiusI(2.3)], None),
        "S1": ([_commutator(*H_S1), Power(LIFT, 0), Power(LIFT, 3), RotationS1(math.pi),
                _commutator(Power(RotationS1(math.pi), 2), Power(LIFT, 2))], None),
        "line": ([_commutator(SHEARS[0], SHEARS[1]), Power(SHEARS[2], 0), SHEARS[0],
                  _commutator(Power(SHEARS[0], 2), Power(SHEARS[2], 2)), SHEARS[1]],
                 (0.0, 4 * math.pi)),
    }

    @pytest.mark.parametrize("walk_elements", [None, 2 * 257, 1], ids=["one-run", "pairs", "ones"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_scalar_scan(self, monkeypatch, case, walk_elements):
        # np.sin agrees with math.sin bitwise where tested; a platform whose
        # vector trig differs may be off by rounding only
        exprs, domain = self.CASES[case]
        if walk_elements is not None:  # runs of two expressions, or of one
            monkeypatch.setattr(diffeo, "_WALK_ELEMENTS", walk_elements)
        m = exprs[0].manifold
        xs = np.linspace(*(domain or (0.0, 1.0)), 257)
        angles = np.concatenate((2 * math.pi * xs, xs, 0.5 * xs))
        exact = _bits(np.sin(angles)) == _bits([math.sin(t) for t in angles])
        got = grid_sups(exprs, 256, domain)
        ref = [TestCommutatorResidual._reference_sup(
            m, lambda x, e=e: apply_letters(e.letters, x), xs.tolist()) for e in exprs]
        assert got[1] == (xs[0], 0.0)
        if exact:
            assert got == ref
        else:
            assert np.max(np.abs(np.array(got) - np.array(ref))[:, 1]) <= 1e-12
        assert [grid_sups([e], 256, domain)[0][1] for e in exprs] == [r for _, r in got]

    def test_mixed_tags(self):
        with pytest.raises(TagMismatchError):
            grid_sups([MobiusI(2.0), RotationS1(1.0)], 64)
        assert grid_sups([], 64) == []

    @pytest.mark.parametrize("case", list(CASES))
    def test_shared_leaves_same_sups(self, monkeypatch, case):
        """Expressions read back one by one share no leaf object, yet the
        walk gets one leaf per distinct map, equal leaves being one letter,
        and the sups are those of the originals, bit for bit."""
        exprs, domain = self.CASES[case]
        read = [loads_expr(dumps_expr(e)) for e in exprs]
        distinct = {leaf for e in exprs for leaf, _ in e.letters}
        assert len({id(leaf) for e in read for leaf, _ in e.letters}) > len(distinct)
        walked, walk = [], diffeo._walk

        def recording(levels, leaves, xs):
            walked.append(list(leaves))
            return walk(levels, leaves, xs)

        monkeypatch.setattr(diffeo, "_walk", recording)
        assert grid_sups(read, 256, domain) == grid_sups(exprs, 256, domain)
        assert len(walked) == 2
        for leaves in walked:
            assert len(leaves) == len(distinct) and set(leaves) == distinct


def _per_call_grid(m, grid_n, domain=None):
    """The grids as built on every call, before the grid of [0, 1] was cached."""
    lo, hi = (0.0, 1.0) if m is not Manifold.LINE else domain
    return np.linspace(lo, hi, grid_n + 1)


class TestGridCache:
    """The grid of [0, 1] is one read-only array per grid size; line grids
    are built per call, and every scan gives what per-call grids gave."""

    @pytest.mark.parametrize("grid_n", [2, 64, 1000, diffeo.DEFAULT_GRID])
    def test_one_read_only_array_per_grid(self, grid_n):
        xs = _grid(Manifold.INTERVAL, grid_n)
        assert _grid(Manifold.INTERVAL, grid_n) is xs and _grid(Manifold.CIRCLE, grid_n) is xs
        assert _bits(xs) == _bits(np.linspace(0.0, 1.0, grid_n + 1))
        assert not xs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            xs[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            xs += 1.0
        assert xs[0] == 0.0 and xs[-1] == 1.0

    def test_line_grids_are_built_per_call(self):
        a = _grid(Manifold.LINE, 64, (0.0, 4 * math.pi))
        b = _grid(Manifold.LINE, 64, (0.0, 4 * math.pi))
        assert a is not b and _bits(a) == _bits(b)
        assert _bits(a) == _bits(np.linspace(0.0, 4 * math.pi, 65))
        assert _bits(_grid(Manifold.LINE, 64, (-3.0, 7.0))) == _bits(np.linspace(-3.0, 7.0, 65))

    FIXED = [
        (SineShear(1.0), (0.0, 4 * math.pi)), (SineShear(1.0), (-3.0, 7.0)),
        (SineShear(0.5), (-20.0, 20.0)), (Translation(0.25), (0.0, 1.0)),
        (SEAM, None), (PerturbedF((BumpPoly(0.05, 1, 1, (1.0, -2.0)),)), None),
    ]

    @pytest.mark.parametrize("grid_n", [64, 500, diffeo.DEFAULT_GRID])
    def test_fixed_points_match_per_call_grids(self, monkeypatch, grid_n):
        got = [fixed_points(e, grid_n, 1e-10, domain) for e, domain in self.FIXED]
        monkeypatch.setattr(diffeo, "_grid", _per_call_grid)
        ref = [fixed_points(e, grid_n, 1e-10, domain) for e, domain in self.FIXED]
        for a, b in zip(got, ref):
            assert _bits(a.points) == _bits(b.points)
            assert (a.flags, a.interval_signs, a.degenerate) == (
                b.flags, b.interval_signs, b.degenerate)

    @pytest.mark.parametrize("domain", [(0.0, 4 * math.pi), (-3.0, 7.0), (1.0, 2.0)])
    def test_commgraph_matches_per_call_grids(self, monkeypatch, domain):
        fs = [SineShear(1.0), Translation(2 * math.pi), SineShear(0.5), Translation(0.5)]
        got = [commutation_graph(fs, 1e-9, 1, n, domain) for n in (64, 256)]
        monkeypatch.setattr(diffeo, "_grid", _per_call_grid)
        ref = [commutation_graph(fs, 1e-9, 1, n, domain) for n in (64, 256)]
        assert [(r.residuals, r.graph.edges) for r in got] == [
            (r.residuals, r.graph.edges) for r in ref]


def _as_expr(seq, leaves):
    """The expression applying the letters of ``seq`` in order, letter i
    being ``leaves[i // 2]``, inverted for odd i."""
    return Compose(tuple(Inverse(leaves[i // 2]) if i % 2 else leaves[i // 2]
                         for i in reversed(seq)))


class TestRadixTrie:
    """A chain of one-word levels is walked as one level, and every grid sup
    stays bitwise that of ``apply_letters``."""

    LEAVES = (PerturbedF((BumpPoly(0.1, 1),)), MobiusI(2.3), MobiusI(0.7))
    SEQ = (0, 2, 5, 1, 3, 3, 4, 0, 2, 2, 5, 1, 4, 3, 0, 2)

    def _assert_apply_letters(self, seqs, grid_n=64):
        exprs = [_as_expr(seq, self.LEAVES) for seq in seqs]
        xs = _grid(Manifold.INTERVAL, grid_n)
        ref = []
        for e in exprs:
            d = point_distance(Manifold.INTERVAL, apply_letters(e.letters, xs), xs)
            i = int(np.argmax(d))
            ref.append((float(xs[i]), float(d[i])))
        assert grid_sups(exprs, grid_n) == ref

    def _shape(self, seqs):
        """(word count, tail length) of each level of the trie of ``seqs``."""
        levels, _ = diffeo._trie(seqs, 2 * len(self.LEAVES))
        return [(bounds[-1], len(tail)) for _, bounds, tail in levels]

    def test_single_sequence_is_one_level(self):
        levels, ends = diffeo._trie([self.SEQ], 6)
        assert len(levels) == 1
        parent, bounds, tail = levels[0]
        assert parent is None and bounds[-1] == 1 and bounds[self.SEQ[0] + 1] == 1
        assert tuple(tail) == self.SEQ[1:] and ends == [([0], [0])]
        self._assert_apply_letters([self.SEQ])

    def test_prefixes_of_one_another(self):
        seqs = [self.SEQ, self.SEQ[:5], self.SEQ[:1], self.SEQ[:12], self.SEQ[:5]]
        # a chain breaks after each level where a sequence ends
        assert self._shape(seqs) == [(1, 0), (1, 3), (1, 6), (1, 3)]
        self._assert_apply_letters(seqs)

    def test_sequences_ending_mid_chain(self):
        # a third sequence branches off after two letters, so levels 2 to 6
        # hold two words; from level 7 the first sequence is alone, and the
        # second ends at level 8, splitting that chain in two
        other = self.SEQ[:2] + (1, 4, 4, 3, 0)
        seqs = [self.SEQ, self.SEQ[:9], other, other[:4]]
        assert self._shape(seqs) == [(1, 1)] + [(2, 0)] * 5 + [(1, 1), (1, 6)]
        self._assert_apply_letters(seqs)
        self._assert_apply_letters(seqs[::-1], grid_n=8)

    @given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=14), min_size=1,
                    max_size=6), st.sampled_from([8, 64]))
    @settings(max_examples=40, deadline=None)
    def test_random_sequences(self, seqs, grid_n):
        levels, ends = diffeo._trie(seqs, 6)
        assert all(bounds[-1] == 1 for _, bounds, tail in levels if tail)
        assert sorted(k for done, _ in ends for k in done) == list(range(len(seqs)))
        self._assert_apply_letters(seqs, grid_n)

    def test_k1_k1_commutator_takes_one_walk_step(self, monkeypatch):
        """K1+K1 verifies one commutator of 16 letters: one level, one word,
        its first letter and a tail of 15."""
        asg = synthesize_embedding(SimpleGraph.from_edges(2, []),
                                   opts=SynthesisOptions(word_len=2))
        walked, walk = [], diffeo._walk

        def recording(levels, leaves, xs):
            walked.append([(bounds[-1], len(tail)) for _, bounds, tail in levels])
            return walk(levels, leaves, xs)

        monkeypatch.setattr(diffeo, "_walk", recording)
        assert verify_assignment(asg).ok
        assert walked == [[(1, 15)]]


class TestLetters:
    """Composites are evaluated as their flat letter sequence."""

    F = PerturbedF((BumpPoly(0.1, 1),))
    G, H = MobiusI(2.3), MobiusI(0.7)
    REGROUPINGS = [
        (Compose((Power(F, 2), G)), Compose((F, F, G))),
        (Compose((Compose((F, G)), H)), Compose((F, Compose((G, H))))),
        (Inverse(Compose((F, G))), Compose((Inverse(G), Inverse(F)))),
        (Power(Compose((F, G)), -2), Compose((Inverse(G), Inverse(F), Inverse(G), Inverse(F)))),
        (Inverse(Power(F, 3)), Power(Inverse(F), 3)),
        (Compose((Power(F, 0), G)), G),
    ]

    def test_composites_have_no_evaluators_of_their_own(self):
        for cls in (Compose, Inverse, Power):
            assert not {"_raw", "_inv_raw", "_draw"} & set(vars(cls)), cls

    def test_letters(self):
        f, g = self.F, self.G
        assert f.letters == ((f, 1),)
        assert Power(f, -2).letters == ((f, -1), (f, -1))
        assert Compose((f, Inverse(g))).letters == ((f, 1), (g, -1))
        assert Inverse(Compose((f, Inverse(g)))).letters == ((g, 1), (f, -1))
        assert Power(f, 0).letters == () and Power(f, 0).manifold is Manifold.INTERVAL
        assert evaluate(Power(f, 0), 0.3) == 0.3

    @pytest.mark.parametrize("pair", range(len(REGROUPINGS)))
    def test_regrouping_keeps_values_and_derivatives(self, pair):
        a, b = self.REGROUPINGS[pair]
        assert a.letters == b.letters
        for x in (0.0, 0.3, 0.7071, 1.0):
            assert evaluate(a, x) == evaluate(b, x)
            assert derivative(a, x) == derivative(b, x)
        for n in (8, 100):
            xs = np.linspace(0.0, 1.0, n)
            for method in ("_raw", "_inv_raw", "_draw"):
                assert _bits(getattr(a, method)(xs)) == _bits(getattr(b, method)(xs)), method

    @pytest.mark.parametrize("e, domain", [
        (SineShear(1.0), (float("nan"), 1.0)),
        (SineShear(1.0), (5.0, 1.0)),
        (SineShear(1.0), (2.0, 2.0)),
        (Translation(0.5), (0.0, float("inf"))),
        (Translation(0.5), (float("-inf"), 0.0)),
    ])
    def test_line_domain_must_be_finite_and_increasing(self, e, domain):
        with pytest.raises(DomainError, match="line domain"):
            fixed_points(e, 64, 1e-10, domain)
        with pytest.raises(DomainError, match="line domain"):
            grid_sups([e], 64, domain)
