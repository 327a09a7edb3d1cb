import numpy as np
import pytest

from ccflab import (
    CenterResult,
    PointSet,
    SolverOptions,
    brute_force_center,
    chebyshev_center,
    chebyshev_radius,
    diameter,
    distance,
    outer_radius,
    pnorm,
    sum_composite,
    sup_plus_weighted_l2,
    symmetric_line_minimize,
    weighted_pnorm,
)
from ccflab.norms import linf_lower_constant
from ccflab.sampling import rng_stream


def sp_formula(p):
    return 1.0 / (1.0 + 2.0 ** (1.0 / (p - 1.0)))


def unit_vectors_set(p):
    return PointSet(pnorm(3, p), np.eye(3))


def basis_with_origin(n):
    norm = sum_composite(n, [(1.0, pnorm(n, 1)), (0.5, pnorm(n, 2))])
    return PointSet(norm, np.vstack([np.zeros(n), np.eye(n)]))


class TestChebyshevCenter:
    @pytest.mark.parametrize(
        "spec",
        [pnorm(2, 1), pnorm(2, 2), pnorm(2, float("inf")), sup_plus_weighted_l2([0.25, 0.0625]), weighted_pnorm(3, [2.0, 0.5])],
        ids=str,
    )
    def test_two_points_midpoint(self, spec):
        u = np.array([0.9, -0.3])
        v = np.array([-0.5, 0.7])
        A = PointSet(spec, [u, v])
        res = chebyshev_center(A)
        assert res.radius == pytest.approx(distance(spec, u, v) / 2.0, rel=1e-9)
        assert res.radius == pytest.approx(outer_radius(A, res.center), abs=1e-12)

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_three_unit_vectors_symmetric_center(self, p):
        res = chebyshev_center(unit_vectors_set(p))
        assert np.max(np.abs(res.center - sp_formula(p))) <= 1e-6
        assert res.converged

    def test_basis_with_origin_center_is_origin(self):
        res = chebyshev_center(basis_with_origin(3))
        assert np.max(np.abs(res.center)) <= 1e-4
        assert res.radius == pytest.approx(1.5, abs=1e-5)

    def test_radius_field_matches_outer_radius(self):
        A = PointSet(pnorm(3, 1.5), rng_stream(1, "rf").normal(size=(5, 3)))
        res = chebyshev_center(A)
        assert res.radius == pytest.approx(outer_radius(A, res.center), abs=1e-12)
        assert res.radius >= diameter(A) / 2.0 - 1e-12
        assert res.gap >= 0.0

    def test_identical_points_degenerate(self):
        A = PointSet(pnorm(2, 2), [[1.0, 1.0], [1.0, 1.0]])
        res = chebyshev_center(A)
        assert res.radius == 0.0
        assert np.array_equal(res.center, [1.0, 1.0])

    def test_dimension_cap(self):
        A = PointSet(pnorm(65, 2), np.eye(65))
        with pytest.raises(ValueError, match="cap"):
            chebyshev_center(A)

    def test_non_convergence_flagged(self):
        A = PointSet(pnorm(2, 1), [[1.0, 0.0], [0.0, 1.0], [0.3, -0.4]])
        res = chebyshev_center(A, SolverOptions(max_iters=2))
        assert not res.converged
        assert "not_converged" in res.flags

    def test_deterministic(self):
        A = PointSet(pnorm(2, 1.5), rng_stream(2, "det").normal(size=(6, 2)))
        assert chebyshev_center(A) == chebyshev_center(A)

    @pytest.mark.parametrize("max_iters", [0, -5])
    def test_nonpositive_max_iters_rejected(self, max_iters):
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            SolverOptions(max_iters=max_iters)

    def test_nonpositive_tol_rejected(self):
        with pytest.raises(ValueError, match="tol"):
            SolverOptions(tol=0.0)

    def test_result_json_round_trip(self):
        res = chebyshev_center(unit_vectors_set(3.0))
        assert CenterResult.from_dict(res.to_dict()) == res

    def test_result_json_has_no_spread(self):
        # "spread" is not written, and payloads that carry it still load
        d = chebyshev_center(unit_vectors_set(3.0)).to_dict()
        assert "spread" not in d
        assert CenterResult.from_dict({**d, "spread": 0.0}) == CenterResult.from_dict(d)


def _certificate_corpus():
    """Seeded sets of every family in dims 1-6, each with duplicate points,
    polyhedral sets whose center need not be unique, and one planar sample
    large enough to take several working-set rounds."""
    rng = rng_stream(8, "certificate")
    out = []
    for dim in range(1, 7):
        for spec in (
            pnorm(dim, 1),
            pnorm(dim, 1.5),
            pnorm(dim, 2),
            pnorm(dim, 3),
            pnorm(dim, float("inf")),
            sum_composite(dim, [(1.0, pnorm(dim, 1)), (0.5, pnorm(dim, 2))]),
            sup_plus_weighted_l2(rng.uniform(0.25, 4.0, size=dim)),
            weighted_pnorm(3.0, rng.uniform(0.25, 4.0, size=dim)),
        ):
            pts = rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 9)), dim))
            out.append(PointSet(spec, np.vstack([pts, pts[:2]])))
    for dim in (2, 2, 2, 2, 2, 2, 3, 4, 6):
        p = 1 if dim == 2 else float("inf")
        out.append(PointSet(pnorm(dim, p), rng.uniform(-1.0, 1.0, size=(int(rng.integers(3, 9)), dim))))
    out += [
        PointSet(pnorm(2, 1), [[1.0, 0.0], [0.0, 1.0], [0.2, 0.3], [1.0, 0.0]]),
        PointSet(pnorm(3, float("inf")), [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 0.5, -0.5]]),
        PointSet(pnorm(2, 3), rng.uniform(-1.0, 1.0, size=(6000, 2))),
    ]
    return out


def _polyhedral_radius(A):
    """Exact r(A) where a closed form exists, else None: half the largest
    coordinate spread for linf, and for planar l1 the same after the
    isometry x -> (x1 + x2, x1 - x2) onto linf."""
    fam = A.norm.family
    if getattr(fam, "p", None) == float("inf"):
        return float(np.max(np.ptp(A.points, axis=0))) / 2.0
    if getattr(fam, "p", None) == 1.0 and A.dim == 2:
        return float(np.max(np.ptp(A.points @ [[1.0, 1.0], [1.0, -1.0]], axis=0))) / 2.0
    return None


class TestCertificate:
    @pytest.mark.parametrize("A", _certificate_corpus(), ids=lambda A: f"{A.dim}d-{len(A)}pts")
    def test_gap_certifies_radius(self, A):
        tol = SolverOptions().tol
        res = chebyshev_center(A)
        assert res.radius == outer_radius(A, res.center)
        assert res.gap >= 0.0
        assert res.converged
        assert res.gap <= tol * max(1.0, res.radius)
        lower = res.radius - res.gap
        if A.dim <= 3:
            # every center lies within r / a of each point in every coordinate
            pad = 1.25 * res.radius / linf_lower_constant(A.norm)
            oracle = brute_force_center(A, (A.points.max(axis=0) - pad, A.points.min(axis=0) + pad))
            assert lower <= oracle.radius + oracle.gap
        exact = _polyhedral_radius(A)
        if exact is not None:
            assert lower <= exact + 1e-12 * max(1.0, exact)


class TestFloatRange:
    """Distances beyond the float range raise or certify nothing; they never
    give a converged result."""

    @pytest.mark.parametrize("scale, dim", [(2000.0, 2), (2e-5, 2), (1e200, 1)], ids=["overflow", "underflow", "1d"])
    def test_start_radius_beyond_float_range_raises(self, scale, dim):
        points = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])[:, :dim] * scale
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="left the float range"):
            chebyshev_center(PointSet(pnorm(dim, 100), points))

    def test_overflowing_iterate_certifies_nothing(self):
        # The start radius, 766.67, is finite, but the first ellipsoid iterate's
        # distances overflow.  The radius is 650, ten times that of the set
        # scaled by 1/10, which solves in range.
        points = np.array([[1000.0, 0.0], [0.0, 1000.0], [-300.0, -200.0]])
        assert chebyshev_center(PointSet(pnorm(2, 100), points / 10.0)).radius == pytest.approx(65.0, rel=1e-8)
        with np.errstate(over="ignore", invalid="ignore"):
            res = chebyshev_center(PointSet(pnorm(2, 100), points))
        assert not res.converged
        assert res.radius - res.gap <= 650.0

    def test_start_ellipsoid_beyond_float_range_certifies_nothing(self):
        # The start radius, 1e308, is finite, but the start ellipsoid's radius
        # 2 F sqrt(n) / a overflows: the round returns at once rather than
        # running its whole budget on NaN, and raises no float warning.
        points = [[1e308, 0.0], [0.0, 1e308], [5e307, 5e307]]
        res = chebyshev_center(PointSet(pnorm(2, 1), points))
        assert res.iterations == 0
        assert res.flags == ("not_converged",)
        assert (res.radius, res.gap) == (1e308, 1e308)


class TestPythagoreanRadiusBound:
    # Hilbert-space strengthening of the radius lower bound:
    # r(x, A)^2 >= r(A)^2 + ||x - c||^2 for the (unique) center c.
    def test_hundred_random_pairs(self):
        rng = rng_stream(3, "bp-quick")
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            pts = rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 9)), dim))
            A = PointSet(pnorm(dim, 2), pts)
            res = chebyshev_center(A)
            x = rng.uniform(-2.0, 2.0, size=dim)
            rx = outer_radius(A, x)
            assert rx**2 >= res.radius**2 + float(np.sum((x - res.center) ** 2)) - 1e-6


class TestScalingEquivariance:
    def test_distance_scaling_map(self):
        # mapping x -> (x - y)/R divides every distance, hence the radius, by R
        A = PointSet(pnorm(2, 3), rng_stream(4, "scale").normal(size=(5, 2)))
        y = np.array([0.4, -1.2])
        R = 2.5
        mapped = PointSet(A.norm, (A.points - y) / R)
        r0 = chebyshev_radius(A)
        r1 = chebyshev_radius(mapped)
        assert r1 == pytest.approx(r0 / R, rel=1e-5)


class TestBruteForce:
    def test_symmetric_euclidean_pair(self):
        A = PointSet(pnorm(2, 2), [[1.0, 0.0], [-1.0, 0.0]])
        res = brute_force_center(A, (np.array([-2.0, -2.0]), np.array([2.0, 2.0])))
        assert np.max(np.abs(res.center)) <= 0.05
        assert res.radius == pytest.approx(1.0, abs=0.01)

    def test_lp3_p4_matches_solver_and_formula(self):
        A = unit_vectors_set(4.0)
        bf = brute_force_center(A, (np.zeros(3), np.ones(3)))
        solver = chebyshev_center(A)
        assert abs(bf.radius - solver.radius) <= 1e-4
        assert np.max(np.abs(bf.center - sp_formula(4.0))) <= bf.gap
        assert not bf.flags

    def test_basis_with_origin_center_near_origin(self):
        A = basis_with_origin(3)
        bf = brute_force_center(A, (-np.ones(3), np.ones(3)))
        assert np.max(np.abs(bf.center)) <= bf.gap

    def test_monotone_radius_and_gap(self):
        A = PointSet(pnorm(2, 1), rng_stream(5, "bf").normal(size=(4, 2)))
        lo = A.points.min(axis=0) - 0.5
        hi = A.points.max(axis=0) + 0.5
        coarse = brute_force_center(A, (lo, hi), 11, 1)
        fine = brute_force_center(A, (lo, hi), 11, 4)
        assert fine.radius <= coarse.radius + 1e-12
        assert fine.gap < coarse.gap

    def test_boundary_argmin_flagged(self):
        # box strictly to the left of the true center region
        A = PointSet(pnorm(2, 2), [[1.0, 0.0], [-1.0, 0.0]])
        res = brute_force_center(A, (np.array([-3.0, -1.0]), np.array([-2.0, 1.0])))
        assert "box_boundary" in res.flags

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError, match="grid_per_axis must be >= 3"):
            brute_force_center(unit_vectors_set(2.0), (-np.ones(3), np.ones(3)), grid_per_axis=2)

    @pytest.mark.parametrize("hi", [[1.0, 1.0, -1.0], [1.0, -2.0, 1.0]])
    def test_box_without_extent_rejected(self, hi):
        with pytest.raises(ValueError, match="positive extent"):
            brute_force_center(unit_vectors_set(2.0), (-np.ones(3), np.array(hi)))

    def test_dim_cap(self):
        A = PointSet(pnorm(4, 2), np.eye(4))
        with pytest.raises(ValueError, match="dim"):
            brute_force_center(A, (np.zeros(4), np.ones(4)))


class TestOracleAgreementQuick:
    @pytest.mark.parametrize(
        "spec",
        [pnorm(2, 1), pnorm(2, 2.0), pnorm(3, float("inf")), sum_composite(2, [(1.0, pnorm(2, 1)), (0.5, pnorm(2, 2))])],
        ids=str,
    )
    def test_solver_matches_grid_oracle(self, spec):
        rng = rng_stream(6, "10agree", str(spec))
        A = PointSet(spec, rng.uniform(-1.0, 1.0, size=(5, spec.dim)))
        res = chebyshev_center(A)
        lo = A.points.min(axis=0)
        hi = A.points.max(axis=0)
        pad = 0.25 * np.maximum(hi - lo, 0.5)
        bf = brute_force_center(A, (lo - pad, hi + pad), 33, 4)
        assert abs(res.radius - bf.radius) <= 2e-3


class TestSymmetricLineMinimize:
    def test_euclidean_three_unit_vectors(self):
        s, r = symmetric_line_minimize(unit_vectors_set(2.0), np.ones(3))
        assert s == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert r == pytest.approx(outer_radius(unit_vectors_set(2.0), np.full(3, s)), abs=1e-12)

    def test_p15_closed_form(self):
        s, _ = symmetric_line_minimize(unit_vectors_set(1.5), np.ones(3))
        assert s == pytest.approx(0.2, abs=1e-8)

    def test_symmetric_pair_minimizes_at_zero(self):
        A = PointSet(pnorm(2, 2), [[1.0, 0.0], [-1.0, 0.0]])
        s, r = symmetric_line_minimize(A, [1.0, 0.0])
        assert abs(s) <= 1e-8
        assert r == pytest.approx(1.0, abs=1e-9)

    def test_kinked_profile_exact_zero(self):
        A = basis_with_origin(3)
        s, r = symmetric_line_minimize(A, np.ones(3))
        assert abs(s) <= 1e-6
        assert r == pytest.approx(1.5, abs=1e-9)

    def test_zero_slope_stops_at_once(self):
        # The first bisection point s = 0 has slope exactly 0: it is the minimizer.
        A = PointSet(pnorm(2, 2), [[0.0, 1.0]])
        assert symmetric_line_minimize(A, [1.0, 0.0]) == (0.0, 1.0)

    def test_zero_subgradient_at_a_point_of_the_set(self):
        # At s = 0 the farthest difference is the zero vector; its subgradient
        # is 0 (no division by a zero scale), so the slope is 0 and s = 0 stands.
        A = PointSet(pnorm(2, 3), [[0.0, 0.0], [0.0, 0.0]])
        assert symmetric_line_minimize(A, [1.0, 0.0]) == (0.0, 0.0)

    def test_sp_grid_closed_form(self):
        # the p grid of `reproduce sp-grid`
        for p in np.exp(np.linspace(np.log(1.1), np.log(10.0), 13)):
            s, _ = symmetric_line_minimize(unit_vectors_set(float(p)), np.ones(3))
            assert abs(s - sp_formula(float(p))) <= 1e-12

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            symmetric_line_minimize(unit_vectors_set(2.0), np.zeros(3))
