import logging
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccflab import (
    CenterResult,
    PointSet,
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
from ccflab import reproductions, solver
from ccflab.cli import EMBEDDING_NORM
from ccflab.norms import linf_lower_constant
from ccflab.sampling import rng_stream
from ccflab.solver import _CONVERGED_RTOL, _CORE_PER_DIM, _ROUND_RTOL, _centroid, _farthest_first


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
        res = chebyshev_center(A, max_iters=2)
        assert not res.converged
        assert "not_converged" in res.flags

    def test_deterministic(self):
        A = PointSet(pnorm(2, 1.5), rng_stream(2, "det").normal(size=(6, 2)))
        assert chebyshev_center(A) == chebyshev_center(A)

    @pytest.mark.parametrize("max_iters", [0, -5])
    def test_nonpositive_max_iters_rejected(self, max_iters):
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            chebyshev_center(unit_vectors_set(2.0), max_iters)

    @pytest.mark.parametrize(
        "points, start",
        [([[0.0], [1.0]], [np.nan, 5.0, 6.0]), ([[1.0, 1.0], [1.0, 1.0]], ["x"])],
        ids=["1d", "coincident"],
    )
    def test_extra_starts_checked_on_the_exact_path(self, points, start):
        # The midpoint path ignores the starts, but a bad one is still an input error.
        A = PointSet(pnorm(len(points[0]), 2), points)
        with pytest.raises(ValueError):
            chebyshev_center(A, extra_starts=[start])

    def test_result_json_round_trip(self):
        res = chebyshev_center(unit_vectors_set(3.0))
        assert CenterResult.from_dict(res.to_dict()) == res

    def test_result_json_has_no_spread(self):
        # "spread" is not written, and payloads that carry it still load
        d = chebyshev_center(unit_vectors_set(3.0)).to_dict()
        assert "spread" not in d
        assert CenterResult.from_dict({**d, "spread": 0.0}) == CenterResult.from_dict(d)


class TestFullSamplePasses:
    """The passes over the whole sample give the bits of the numpy calls
    they replace, so the working sets and every golden stay the same."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        d=st.one_of(
            st.lists(st.integers(0, 5).map(float), min_size=1, max_size=60),  # many ties
            st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=60),
            st.integers(1, 60).map(lambda m: [0.5] * m),  # all equal
        ),
        k=st.integers(1, 70),
    )
    def test_farthest_first_is_the_stable_argsort(self, d, k):
        d = np.asarray(d)
        want = np.argsort(-d, kind="stable")[:k]
        got = _farthest_first(d, k)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8, 16, 64])
    def test_bounds_and_centroid_match_numpy(self, dim):
        # The solver's bounds and start, on the points as PointSet stores
        # them, have the bytes of numpy's min, max and mean of the rows.
        rng = rng_stream(31, "prologue", dim)
        for rows in (255, 768):
            pts = rng.normal(size=(rows, dim)) * 10.0 ** rng.integers(-8, 9, size=(rows, 1))
            pts[0] = -0.0
            pts[:, 1] = np.where(rng.uniform(size=rows) < 0.5, 0.0, -0.0)  # which zero is least
            stored = PointSet(pnorm(dim, 2), pts).points
            for got, want in (
                (stored.min(axis=0), pts.min(axis=0)),
                (stored.max(axis=0), pts.max(axis=0)),
                (_centroid(stored), pts.mean(axis=0)),
                (_centroid(pts), pts.mean(axis=0)),
            ):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


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
    """Exact r(A), in fractions, where a closed form exists, else None: half
    the largest coordinate range for linf, and for planar l1 the same after
    the isometry (a, b) -> (a + b, a - b) onto linf."""
    p = getattr(A.norm.family, "p", None)
    if not (p == float("inf") or (p == 1.0 and A.dim == 2)):
        return None
    points = [[Fraction(x) for x in row] for row in A.points.tolist()]
    if p == 1.0:
        points = [[a + b, a - b] for a, b in points]
    return max(max(column) - min(column) for column in zip(*points)) / 2


class TestCertificate:
    @pytest.mark.parametrize("A", _certificate_corpus(), ids=lambda A: f"{A.dim}d-{len(A)}pts")
    def test_gap_certifies_radius(self, A):
        res = chebyshev_center(A)
        assert res.radius == outer_radius(A, res.center)
        assert res.gap >= 0.0
        assert res.converged
        assert res.gap <= _CONVERGED_RTOL * max(1.0, res.radius)
        lower = res.radius - res.gap
        if A.dim <= 3:
            # every center lies within r / a of each point in every coordinate
            pad = 1.25 * res.radius / linf_lower_constant(A.norm)
            oracle = brute_force_center(A, (A.points.max(axis=0) - pad, A.points.min(axis=0) + pad))
            assert lower <= oracle.radius + oracle.gap
        exact = _polyhedral_radius(A)
        if exact is not None:
            assert lower <= exact + 1e-12 * max(1.0, exact)

    def test_radius_matches_exact_polyhedral_radius(self):
        for A in _polyhedral_corpus():
            exact = _polyhedral_radius(A)
            error = abs(Fraction(chebyshev_center(A).radius) - exact)
            assert error <= Fraction(1e-12) * max(1, exact), (A.dim, A.norm.family.p, len(A))

    def test_start_bound_is_below_exact_polyhedral_radius(self):
        # At the returned center, with the whole set as the working set, the
        # start certificate bounds r(A) from below exactly: its rounding term
        # covers the last bits.
        corpus = _polyhedral_corpus()
        opened = 0
        for A in corpus:
            x = chebyshev_center(A).center
            d = A.norm.family.dist(A.points - x)
            r0 = 2.0 * float(d.max()) * np.sqrt(A.dim) / linf_lower_constant(A.norm)  # the round's start ball
            certificate = solver._start_bound(A.norm.family, A.points, x, d, r0)
            if certificate is not None:
                opened += 1
                assert Fraction(certificate[0]) <= _polyhedral_radius(A), (A.dim, A.norm.family.p, len(A))
        assert opened >= 0.9 * len(corpus)


def _polyhedral_corpus():
    """200 planar l1 sets, then 100 linf sets at each n in 2, 3 and 5, of
    3-40 standard normal points."""
    rng = np.random.default_rng(11)
    cases = [(2, 1.0)] * 200 + [(n, float("inf")) for n in (2, 3, 5) for _ in range(100)]
    return [PointSet(pnorm(n, p), rng.standard_normal((int(rng.integers(3, 41)), n))) for n, p in cases]


@pytest.fixture
def verdicts(monkeypatch):
    """The (witness, verdict) of every verify_ccf_witness call the
    reproductions make in the test."""
    log = []
    inner = reproductions.verify_ccf_witness

    def recording(w, *args, **kwargs):
        log.append((w, inner(w, *args, **kwargs)))
        return log[-1][1]

    monkeypatch.setattr(reproductions, "verify_ccf_witness", recording)
    return log


def _closes_at(res, claimed):
    """Whether the solve closed before its first cut, at ``claimed``, with a
    gap of at most 1e-12 * max(1, radius)."""
    return (
        res.iterations == 0
        and res.gap <= 1e-12 * max(1.0, res.radius)
        and res.center.tobytes() == claimed.tobytes()
    )


class TestStartCertificate:
    """A start at a Chebyshev center closes its round by the multipliers of
    its farthest points, before the first cut; any other start runs the
    ellipsoid."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: reproductions.ap_ccf_check(1.5),
            lambda: reproductions.ap_ccf_check(3.0),
            lambda: reproductions.ap_ccf_check(4.0),
            lambda: reproductions.embed_lp3(EMBEDDING_NORM, (0, 1, 2), test_vectors=300),
        ],
        ids=["ap1.5", "ap3", "ap4", "embedding"],
    )
    def test_witness_center_closes_before_the_first_cut(self, build, verdicts):
        assert build().overall
        ((w, verdict),) = verdicts
        assert verdict.confirmed
        assert _closes_at(verdict.solver, w.set.points[w.center_index])

    @pytest.mark.parametrize(
        "A",
        [PointSet(pnorm(2, 1), np.eye(2)), PointSet(pnorm(2, 2), [[1.0, 0.0], [-1.0, 0.0]])],
        ids=["l1-pair", "euclidean-pair"],
    )
    def test_pair_closes_at_its_centroid(self, A):
        assert _closes_at(chebyshev_center(A), A.points.mean(axis=0))

    def test_start_off_center_runs_the_ellipsoid(self, caplog):
        # The centroid of the three unit vectors ties them all, so the gate
        # opens, but the bound there does not close the round.
        caplog.set_level(logging.DEBUG, logger="ccflab")
        res = chebyshev_center(unit_vectors_set(3.0))
        assert res.iterations > 0
        assert res.gap <= _ROUND_RTOL * max(1.0, res.radius)
        first = caplog.records[0].getMessage()
        assert "3 tied points" in first and first.endswith("closed False")


def _round_corpus():
    """Seeded sets of every family in dims 2-3, of 40-400 points near the
    unit sphere: more than the first working set holds, and many of them
    nearly farthest, so solves take several rounds."""
    rng = rng_stream(23, "rounds")
    out = []
    for dim in (2, 3):
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
            m = int(rng.integers(40, 401))
            pts = rng.normal(size=(m, dim))
            pts *= rng.uniform(0.9, 1.0, size=(m, 1)) / spec.family.dist(pts)[:, None]
            out.append(PointSet(spec, pts))
    return out


def _round_id(A):
    family = A.norm.family
    return f"{A.dim}d-{len(A)}pts-{type(family).__name__}{getattr(family, 'p', '')}"


@pytest.fixture
def rounds(monkeypatch):
    """Per working-set round of the solves that follow, the (iterations so
    far, stopped) of each point the round yields."""
    log = []
    inner = solver._ellipsoid_round

    def recording(*args, **kwargs):
        log.append([])
        for out in inner(*args, **kwargs):
            log[-1].append((out[3], out[4]))
            yield out

    monkeypatch.setattr(solver, "_ellipsoid_round", recording)
    return log


class TestWorkingSetRounds:
    """A round is screened at a gap of 1e-3 while its working set lacks some
    points; only a stopped round whose center misses no point ends a solve."""

    @pytest.mark.parametrize("A", _round_corpus(), ids=_round_id)
    def test_screened_solve_keeps_the_certificate(self, A, rounds):
        res = chebyshev_center(A)
        assert len(A) > _CORE_PER_DIM * (A.dim + 1)
        assert res.gap <= _ROUND_RTOL * max(1.0, res.radius)
        assert res.iterations == sum(log[-1][0] for log in rounds)
        assert rounds[-1][-1][1]  # the last round ran to its stop
        pad = 1.25 * res.radius / linf_lower_constant(A.norm)
        oracle = brute_force_center(A, (A.points.max(axis=0) - pad, A.points.min(axis=0) + pad))
        assert oracle.radius - oracle.gap <= res.radius <= oracle.radius + res.gap

    def test_corpus_ends_rounds_at_their_screen(self, rounds):
        for A in _round_corpus()[:3]:
            chebyshev_center(A)
        assert any(not log[-1][1] for log in rounds)

    def test_screen_and_stop_share_one_budget(self, rounds):
        # Three far vertices and a cluster near their center: the screened
        # first round misses no point and goes on to its stop.
        rng = rng_stream(5, "one-round")
        triangle = [[1.0, 0.0], [-0.5, 0.8660254037844386], [-0.5, -0.8660254037844386]]
        A = PointSet(pnorm(2, 2), np.vstack([triangle, rng.uniform(-0.2, 0.2, size=(40, 2))]))
        full = chebyshev_center(A)
        (screen, _), (stop, stopped) = rounds[0]
        assert len(rounds) == 1 and stopped and screen < stop == full.iterations
        budget = (screen + stop) // 2
        rounds.clear()
        cut = chebyshev_center(A, budget)
        assert rounds == [[(screen, False), (budget, True)]]
        assert cut.iterations == budget

    @pytest.mark.parametrize(
        "A",
        [unit_vectors_set(3.0), basis_with_origin(3), PointSet(pnorm(2, 1), np.eye(2))],
        ids=["lp3-unit-vectors", "basis-with-origin", "l1-pair"],
    )
    def test_set_within_the_first_working_set_is_never_screened(self, A, rounds):
        res = chebyshev_center(A)
        assert [log[-1] for log in rounds] == [(res.iterations, True)]
        assert len(rounds[0]) == 1


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

    @pytest.mark.parametrize(
        "points, direction",
        [
            ([[0.0, 0.0], [1.0, 0.0]], [1e300, 1e300]),
            ([[0.0, 0.0], [1.0, 0.0]], [1e-320, 0.0]),
            ([[0.0, 0.0], [1e200, 0.0]], [1.0, 1.0]),
        ],
        ids=["direction-overflow", "direction-underflow", "points-overflow"],
    )
    def test_line_search_beyond_float_range_raises(self, points, direction):
        # The direction's norm is inf or 0, or the start bracket is inf: the
        # bisection would return a wrong minimizer, divide by 0, or give NaN.
        with np.errstate(over="ignore", under="ignore"), pytest.raises(ValueError, match="left the float range"):
            symmetric_line_minimize(PointSet(pnorm(2, 2), points), direction)


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

    @pytest.mark.parametrize("levels", [0, -1])
    def test_no_refinement_level_rejected(self, levels):
        with pytest.raises(ValueError, match="refine_levels must be >= 1"):
            brute_force_center(unit_vectors_set(2.0), (-np.ones(3), np.ones(3)), refine_levels=levels)

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
