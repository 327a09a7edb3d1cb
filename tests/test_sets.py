import numpy as np
import pytest

from ccflab import (
    PointSet,
    diameter,
    distance,
    farthest_set,
    is_centerable,
    outer_radius,
    pnorm,
    sum_composite,
    sup_plus_weighted_l2,
)
from ccflab.sampling import rng_stream


def ones_plus_half_l2(n):
    return sum_composite(n, [(1.0, pnorm(n, 1)), (0.5, pnorm(n, 2))])


def basis_with_origin(n):
    return PointSet(ones_plus_half_l2(n), np.vstack([np.zeros(n), np.eye(n)]))


def truncated_seq_set(N):
    weights = 4.0 ** -np.arange(1, N + 1)
    pts = [np.zeros(N)]
    for n in range(2, N + 1):
        xn = np.zeros(N)
        xn[0] = 1.0 / n
        xn[n - 1] = 1.0 - 1.0 / n
        yn = xn.copy()
        yn[n - 1] *= -1.0
        pts += [xn, yn]
    return PointSet(sup_plus_weighted_l2(weights), np.vstack(pts))


class TestPointSet:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PointSet(pnorm(2, 2), np.empty((0, 2)))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PointSet(pnorm(3, 2), [[1.0, 2.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PointSet(pnorm(2, 2), [[np.inf, 0.0]])

    def test_flat_list_rejected_in_dim_one(self):
        with pytest.raises(ValueError, match="points must be a 2-axis array of dimension 1"):
            PointSet(pnorm(1, 2), [0.0, 1.0, 3.0])
        assert PointSet(pnorm(1, 2), [[0.0], [1.0], [3.0]]).points.shape == (3, 1)

    def test_caller_array_not_frozen(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        A = PointSet(pnorm(2, 2), pts)
        pts[0, 0] = 5.0
        assert A.points[0, 0] == 1.0

    def test_points_immutable(self):
        A = PointSet(pnorm(2, 2), [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            A.points[0, 0] = 5.0

    def test_duplicates_allowed_and_order_preserved(self):
        pts = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        A = PointSet(pnorm(2, 1), pts)
        assert np.array_equal(A.points, np.asarray(pts))

    def test_nontrivial_predicate(self):
        assert not PointSet(pnorm(2, 2), [[1.0, 0.0], [1.0, 0.0]]).nontrivial
        assert PointSet(pnorm(2, 2), [[1.0, 0.0], [0.0, 1.0]]).nontrivial
        assert not PointSet(pnorm(3, 2), [[0.5, -1.0, 2.0]] * 3).nontrivial
        assert not PointSet(pnorm(2, 2), [[0.0, 0.0], [-0.0, 0.0]]).nontrivial
        assert PointSet(pnorm(3, 2), [[0.5, -1.0, 2.0], [0.5, -1.0, 2.5]]).nontrivial

    def test_json_round_trip(self):
        A = truncated_seq_set(4)
        assert PointSet.from_dict(A.to_dict()) == A

    def test_from_dict_names_missing_key(self):
        with pytest.raises(ValueError, match="missing key 'points'"):
            PointSet.from_dict({"norm": {"dim": 2, "family": {"pnorm": 2}}})


class TestOuterRadius:
    def test_basis_set_from_origin(self):
        assert outer_radius(basis_with_origin(3), np.zeros(3)) == pytest.approx(1.5, abs=1e-15)

    def test_singleton_at_itself(self):
        A = PointSet(pnorm(2, 2), [[0.3, -0.7]])
        assert outer_radius(A, [0.3, -0.7]) == 0.0

    def test_lp3_diagonal_viewpoint_closed_form(self):
        # distances from (t,t,t) to the three unit vectors: ((t-1)^p + 2 t^p)^(1/p)
        p, t = 1.5, 5.0
        A = PointSet(pnorm(3, p), np.eye(3))
        want = ((t - 1.0) ** p + 2.0 * t**p) ** (1.0 / p)
        assert outer_radius(A, np.full(3, t)) == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx((4.0**1.5 + 2.0 * 5.0**1.5) ** (2.0 / 3.0), rel=1e-14)


class TestFarthestSet:
    def test_basis_set_ones_viewpoint(self):
        fq = farthest_set(basis_with_origin(3), np.ones(3))
        assert fq.achievers == (0,)

    def test_singleton(self):
        A = PointSet(pnorm(2, 2), [[0.0, 1.0]])
        assert farthest_set(A, [3.0, 3.0]).achievers == (0,)

    def test_linf_segment_all_tie(self):
        A = PointSet(pnorm(2, float("inf")), [[1.0, -1.0], [1.0, 0.0], [1.0, 1.0]])
        fq = farthest_set(A, np.zeros(2))
        assert fq.achievers == (0, 1, 2)
        assert fq.radius == 1.0

    def test_exact_achievers_on_dyadic_coordinates(self):
        A = PointSet(pnorm(2, 1), [[0.5, 0.25], [0.25, 0.5], [-0.75, 0.0]])
        fq = farthest_set(A, [0.25, 0.25], tol=1e-15)
        dists = [distance(A.norm, A.points[i], [0.25, 0.25]) for i in range(3)]
        assert fq.achievers == tuple(i for i, d in enumerate(dists) if d == max(dists))

    @pytest.mark.parametrize("tol", [0.0, -1e-9])
    def test_nonpositive_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            farthest_set(basis_with_origin(3), np.ones(3), tol=tol)

    def test_query_owns_its_viewpoint(self):
        viewpoint = np.ones(3)
        fq = farthest_set(basis_with_origin(3), viewpoint)
        viewpoint[:] = 0.0
        assert np.array_equal(fq.viewpoint, np.ones(3))
        with pytest.raises(ValueError, match="read-only"):
            fq.viewpoint[0] = 0.0

    def test_round_trip(self):
        from ccflab import FarthestQuery

        fq = farthest_set(basis_with_origin(3), np.ones(3))
        assert FarthestQuery.from_dict(fq.to_dict()) == fq


class TestDiameter:
    def test_three_unit_vectors(self):
        for p in (1.0, 2.0, 3.0):
            A = PointSet(pnorm(3, p), np.eye(3))
            assert diameter(A) == pytest.approx(2.0 ** (1.0 / p), rel=1e-14)

    def test_two_points(self):
        A = PointSet(pnorm(2, 2), [[1.0, 1.0], [-2.0, 0.0]])
        assert diameter(A) == pytest.approx(distance(A.norm, [1.0, 1.0], [-2.0, 0.0]), rel=1e-15)

    def test_singleton_is_zero(self):
        assert diameter(PointSet(pnorm(2, 2), [[1.0, 2.0]])) == 0.0

    def test_truncated_seq_set_lower_bound(self):
        N = 20
        assert diameter(truncated_seq_set(N)) >= 2.0 * (1.0 - 1.0 / N)


class TestIsCenterable:
    def test_two_point_set(self):
        A = PointSet(pnorm(2, 3), [[1.0, 0.0], [0.0, 1.0]])
        assert is_centerable(A, diameter(A) / 2.0, tol=1e-12)

    def test_truncated_seq_set_with_solver_radius(self):
        from ccflab import chebyshev_radius

        N = 10
        A = truncated_seq_set(N)
        assert is_centerable(A, chebyshev_radius(A), tol=1.0 / N)

    def test_basis_set_not_centerable(self):
        # diameter is 2 + sqrt(2)/2 (pairwise oracle), radius is 3/2
        A = basis_with_origin(3)
        d = max(
            distance(A.norm, A.points[i], A.points[j])
            for i in range(4)
            for j in range(i + 1, 4)
        )
        assert diameter(A) == pytest.approx(d, rel=1e-15)
        assert d == pytest.approx(2.0 + np.sqrt(2.0) / 2.0, abs=1e-14)
        assert not is_centerable(A, 1.5, tol=0.01)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            is_centerable(basis_with_origin(3), -1.0, tol=0.1)


class TestSampledInvariants:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, float("inf")])
    def test_lipschitz_in_viewpoint(self, p):
        A = PointSet(pnorm(3, p), rng_stream(5, "lip", p).normal(size=(6, 3)))
        rng = rng_stream(6, "lip-pts", p)
        for _ in range(100):
            x = rng.normal(size=3)
            y = rng.normal(size=3)
            lhs = abs(outer_radius(A, x) - outer_radius(A, y))
            assert lhs <= distance(A.norm, x, y) + 1e-12

    def test_half_diameter_lower_bound(self):
        A = truncated_seq_set(6)
        half = diameter(A) / 2.0
        rng = rng_stream(7, "halfdiam")
        for _ in range(100):
            x = rng.normal(size=6)
            assert outer_radius(A, x) >= half - 1e-12

    def test_translation_equivariance(self):
        A = basis_with_origin(3)
        rng = rng_stream(8, "translate")
        for _ in range(50):
            x = rng.normal(size=3)
            h = rng.normal(size=3)
            shifted = PointSet(A.norm, A.points + h)
            r0 = outer_radius(A, x)
            assert outer_radius(shifted, x + h) == pytest.approx(r0, abs=1e-12 * (1.0 + r0))
