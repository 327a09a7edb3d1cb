import json

import numpy as np
import pytest

from ccflab import (
    CcfWitness,
    PointSet,
    RtzEstimate,
    ScanResult,
    TwoBallReport,
    TwoBallSet,
    WitnessVerdict,
    amplify_witness,
    build_two_ball_set,
    cap_containment_check,
    ccnf_scan,
    chebyshev_center,
    check_two_ball_properties,
    distance,
    estimate_r_tz,
    eval_norm,
    farthest_set,
    outer_radius,
    pnorm,
    verify_ccf_witness,
    weighted_pnorm,
)
from ccflab.ccf import CENTER_FAILS, CONFIRMED, FARTHEST_FAILS, INDETERMINATE
from ccflab.sampling import rejection_sample_two_balls, rng_stream


def l1_segment_witness_set():
    return PointSet(pnorm(2, 1), [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])


def euclid_counterexample_set():
    return PointSet(pnorm(2, 2), [[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])


class TestVerifyWitness:
    def test_l1_segment_confirmed(self):
        verdict = verify_ccf_witness(CcfWitness(l1_segment_witness_set(), 2, [0.0, 0.0]))
        assert verdict.status == CONFIRMED
        assert verdict.chebyshev_radius == pytest.approx(1.0, abs=1e-9)

    def test_euclidean_farthest_fails(self):
        # sqrt(26) > 5: the endpoints beat the claimed center from (0, 5)
        verdict = verify_ccf_witness(CcfWitness(euclid_counterexample_set(), 2, [0.0, 5.0]))
        assert verdict.status == FARTHEST_FAILS
        assert verdict.farthest_margin == pytest.approx(5.0 - np.sqrt(26.0), abs=1e-12)

    def test_center_fails_comes_first(self):
        verdict = verify_ccf_witness(CcfWitness(euclid_counterexample_set(), 0, [0.0, 5.0]))
        assert verdict.status == CENTER_FAILS

    def test_lp3_witness_with_appended_center(self):
        p = 1.5
        sp = 1.0 / (1.0 + 2.0 ** (1.0 / (p - 1.0)))
        A = PointSet(pnorm(3, p), np.vstack([np.eye(3), np.full(3, sp)]))
        verdict = verify_ccf_witness(CcfWitness(A, 3, np.full(3, 100.0)))
        assert verdict.status == CONFIRMED
        assert verdict.farthest_margin > 0.0

    # From (d, 0) the l1 distances are 1 - d to (1, 0) and to the claimed
    # center (0.5, 0.5), and 1 + d to (0, 1): the center trails by 2d, which
    # farthest_tol = 1e-3 forgives at d = 1e-4 and not at d = 1e-3.
    @pytest.mark.parametrize("d, status", [(1e-4, CONFIRMED), (1e-3, FARTHEST_FAILS)])
    def test_farthest_tol_decides_a_trailing_center(self, d, status):
        verdict = verify_ccf_witness(CcfWitness(l1_segment_witness_set(), 2, [d, 0.0], farthest_tol=1e-3))
        assert verdict.status == status
        assert verdict.farthest_margin == pytest.approx(-2.0 * d, abs=1e-12)

    def test_indeterminate_on_solver_non_convergence(self):
        A = PointSet(pnorm(2, 1), [[1.0, 0.0], [0.0, 1.0], [0.3, -0.4]])
        verdict = verify_ccf_witness(CcfWitness(A, 0, [0.0, 0.0]), max_iters=2)
        assert verdict.status == INDETERMINATE

    def test_trivial_set_rejected(self):
        A = PointSet(pnorm(2, 2), [[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="nontrivial"):
            verify_ccf_witness(CcfWitness(A, 0, [0.0, 0.0]))

    def test_witness_owns_its_viewpoint(self):
        viewpoint = np.zeros(2)
        witness = CcfWitness(l1_segment_witness_set(), 2, viewpoint)
        viewpoint[:] = 5.0
        assert np.array_equal(witness.viewpoint, [0.0, 0.0])
        with pytest.raises(ValueError, match="read-only"):
            witness.viewpoint[0] = 5.0
        assert verify_ccf_witness(witness).status == CONFIRMED

    def test_verdict_json_round_trip(self):
        witness = CcfWitness(l1_segment_witness_set(), 2, [0.0, 0.0], center_tol=1e-5)
        verdict = verify_ccf_witness(witness)
        assert WitnessVerdict.from_dict(verdict.to_dict()) == verdict
        assert CcfWitness.from_dict(json.loads(json.dumps(witness.to_dict()))) == witness


class TestAmplifyWitness:
    def test_identity_at_t_one(self):
        A = l1_segment_witness_set()
        y = amplify_witness(A, [0.5, 0.5], [0.0, 0.0], 1.0)
        assert np.allclose(y, [0.0, 0.0])

    def test_l1_triple_t3_lands_at_minus_ones(self):
        A = l1_segment_witness_set()
        y = amplify_witness(A, [0.5, 0.5], [0.0, 0.0], 3.0)
        assert np.allclose(y, [-1.0, -1.0])
        # direct evaluation: all three distances equal 3, center stays farthest
        dists = [distance(A.norm, y, p) for p in A.points]
        assert dists == pytest.approx([3.0, 3.0, 3.0], abs=1e-15)
        assert 2 in farthest_set(A, y).achievers

    def test_distance_grows_linearly(self):
        A = l1_segment_witness_set()
        c = np.array([0.5, 0.5])
        z = np.zeros(2)
        for t in (2.0, 10.0):
            y = amplify_witness(A, c, z, t)
            assert distance(A.norm, y, c) == pytest.approx(t * distance(A.norm, z, c), rel=1e-12)

    def test_confirmed_witness_stays_confirmed_when_amplified(self):
        cases = [
            (l1_segment_witness_set(), 2, np.zeros(2)),
        ]
        p = 1.5
        sp = 1.0 / (1.0 + 2.0 ** (1.0 / (p - 1.0)))
        cases.append(
            (PointSet(pnorm(3, p), np.vstack([np.eye(3), np.full(3, sp)])), 3, np.full(3, 100.0))
        )
        for A, idx, z in cases:
            assert verify_ccf_witness(CcfWitness(A, idx, z)).confirmed
            c = A.points[idx]
            for t in (2.0, 5.0, 10.0):
                y = amplify_witness(A, c, z, t)
                assert verify_ccf_witness(CcfWitness(A, idx, y)).confirmed

    def test_precondition_rejected(self):
        A = euclid_counterexample_set()
        with pytest.raises(ValueError, match="not farthest"):
            amplify_witness(A, A.points[2], [0.0, 5.0], 2.0)

    def test_t_below_one_rejected(self):
        A = l1_segment_witness_set()
        with pytest.raises(ValueError, match=">= 1"):
            amplify_witness(A, [0.5, 0.5], [0.0, 0.0], 0.5)

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_non_finite_t_rejected(self, t):
        A = l1_segment_witness_set()
        with pytest.raises(ValueError, match=">= 1 and finite"):
            amplify_witness(A, [0.5, 0.5], [0.0, 0.0], t)


class TestTwoBallSet:
    def test_build_l1_triple(self):
        A = l1_segment_witness_set()
        U = build_two_ball_set(A, [0.5, 0.5], 1.0, [0.0, 0.0])
        assert U.R == pytest.approx(1.0, abs=1e-15)

    def test_properties_pass_on_l1_triple(self):
        A = l1_segment_witness_set()
        U = build_two_ball_set(A, [0.5, 0.5], 1.0, [0.0, 0.0], seed=7)
        report = check_two_ball_properties(U, A, 10000)
        assert report.all_ok
        assert report.sample_radius <= 1.0 + 1e-9
        assert report.center_sample_radius <= 1.0
        assert report.max_sample_dist_to_y <= U.R
        assert TwoBallSet.from_dict(json.loads(json.dumps(U.to_dict()))) == U
        assert TwoBallReport.from_dict(json.loads(json.dumps(report.to_dict()))) == report

    @pytest.mark.parametrize("dim, max_iters, message", [
        (2, 0, "max_iters must be at least 1"),
        (65, None, "dimension 65 exceeds solver cap"),
    ], ids=["max-iters", "dimension"])
    def test_unsolvable_properties_rejected_before_sampling(self, monkeypatch, dim, max_iters, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("sampled before the solver's checks")

        monkeypatch.setattr(TwoBallSet, "sample", unreachable)
        norm = pnorm(dim, 2)
        e1 = np.eye(dim)[0]
        U = TwoBallSet(c=e1, r=1.0, y=np.zeros(dim), R=1.0, norm=norm)
        A = PointSet(norm, [2.0 * e1, np.zeros(dim)])
        with pytest.raises(ValueError, match=message):
            check_two_ball_properties(U, A, 100, max_iters=max_iters)

    def test_norm_mismatch_rejected_before_sampling(self, monkeypatch):
        # Sampled under l1 but solved under l2, this body passed every check.
        def unreachable(*args, **kwargs):
            raise AssertionError("sampled before the norm check")

        monkeypatch.setattr(TwoBallSet, "sample", unreachable)
        A = PointSet(pnorm(2, 2), [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        U = TwoBallSet(c=np.array([0.5, 0.5]), r=1.0, y=np.zeros(2), R=1.0, norm=pnorm(2, 1))
        with pytest.raises(ValueError, match="must share one norm"):
            check_two_ball_properties(U, A, 500)

    def test_body_owns_its_vectors(self):
        c, y = np.array([0.0, 0.5]), np.zeros(2)
        U = TwoBallSet(c=c, r=0.5, y=y, R=1.0, norm=pnorm(2, 2), sampler_seed=3)
        before = U.sample(200)[0].points
        c[0], y[1] = 100.0, -7.0
        assert np.array_equal(U.c, [0.0, 0.5]) and np.array_equal(U.y, [0.0, 0.0])
        for vector in (U.c, U.y):
            with pytest.raises(ValueError, match="read-only"):
                vector[0] = 100.0
        assert np.array_equal(U.sample(200)[0].points, before)

    def test_degenerate_singleton(self):
        A = PointSet(pnorm(2, 2), [[0.3, 0.3]])
        U = TwoBallSet(c=np.array([0.3, 0.3]), r=0.0, y=np.array([1.0, 1.0]),
                       R=distance(A.norm, [0.3, 0.3], [1.0, 1.0]), norm=A.norm)
        sample, accepted = U.sample(100)
        assert accepted == 0
        assert sample.norm == U.norm and np.array_equal(sample.points, [[0.3, 0.3]])
        report = check_two_ball_properties(U, A, 100)
        assert report.all_ok
        assert (report.accepted, report.proposals) == (0, 100)

    def test_wrong_radius_fails_containment(self):
        A = l1_segment_witness_set()
        U_bad = TwoBallSet(c=np.array([0.5, 0.5]), r=0.5, y=np.zeros(2), R=1.0, norm=A.norm)
        report = check_two_ball_properties(U_bad, A, 2000)
        assert not report.containment_ok
        assert not report.all_ok

    def test_disjoint_balls_rejected(self):
        # B[0, 1] and B[(5, 0), 1] are disjoint: c lies outside B[y, R].
        with pytest.raises(ValueError, match=r"\|\|c - y\|\| = 5.0 exceeds R"):
            TwoBallSet(c=np.zeros(2), r=1.0, y=np.array([5.0, 0.0]), R=1.0, norm=pnorm(2, 2))

    def test_zero_proposals_report_is_standard_json(self):
        # The anchors alone make the sample: finite radii, no NaN in the JSON.
        A = l1_segment_witness_set()
        U = build_two_ball_set(A, [0.5, 0.5], 1.0, [0.0, 0.0])
        report = check_two_ball_properties(U, A, 0)
        assert (report.accepted, report.proposals) == (0, 0)
        assert np.isfinite([report.sample_radius, report.center_sample_radius,
                            report.max_sample_dist_to_y]).all()
        assert report.all_ok

        def no_constants(name):
            raise ValueError(f"non-standard JSON constant {name}")

        text = json.dumps(report.to_dict())
        assert TwoBallReport.from_dict(json.loads(text, parse_constant=no_constants)) == report

    def test_sample_starts_with_anchors(self):
        U = TwoBallSet(c=np.array([1.0, 0.0]), r=0.5, y=np.array([-1.0, 0.0]), R=2.0,
                       norm=pnorm(2, 2), sampler_seed=4)
        sample, accepted = U.sample(300)
        pts = sample.points
        assert sample.norm == U.norm
        assert np.array_equal(pts[:2], [[1.0, 0.0], [0.5, 0.0]])
        assert pts.shape[0] == accepted + 2
        assert np.all(eval_norm(U.norm, pts - U.c) <= U.r)
        assert np.all(eval_norm(U.norm, pts - U.y) <= U.R)

    def test_zero_proposals_sample_nothing(self):
        U = TwoBallSet(c=np.zeros(2), r=1.0, y=np.array([0.5, 0.0]), R=1.0, norm=pnorm(2, 2))
        pts, accepted, proposed = rejection_sample_two_balls(U, 0, rng_stream(0, "empty"))
        assert pts.shape == (0, 2)
        assert (accepted, proposed) == (0, 0)

    def test_negative_proposals_rejected(self):
        U = build_two_ball_set(l1_segment_witness_set(), [0.5, 0.5], 1.0, [0.0, 0.0])
        with pytest.raises(ValueError, match="'proposals' must be at least 0"):
            U.sample(-5)

    def test_rejected_when_center_not_farthest(self):
        # sqrt(5) > 2: the origin is not farthest from (0, 2)
        A = PointSet(pnorm(2, 2), [[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="rejected"):
            build_two_ball_set(A, [0.0, 0.0], 1.0, [0.0, 2.0])

    def test_rejected_when_r_exceeds_R(self):
        A = l1_segment_witness_set()
        with pytest.raises(ValueError, match="exceeds R"):
            build_two_ball_set(A, [0.5, 0.5], 2.0, [0.6, 0.6])

    @pytest.mark.parametrize("r, R, match", [(-0.5, 1.0, "nonnegative"), (0.5, -1.0, "nonnegative"),
                                             (1.5, 1.0, "exceeds R"),
                                             (float("nan"), 1.0, "finite and nonnegative"),
                                             (0.5, float("inf"), "finite and nonnegative")])
    def test_invalid_radii_rejected(self, r, R, match):
        with pytest.raises(ValueError, match=match):
            TwoBallSet(c=np.zeros(2), r=r, y=np.array([1.0, 0.0]), R=R, norm=pnorm(2, 2))

    def test_full_reduction_from_confirmed_witness(self):
        # confirmed witness -> amplified viewpoint -> two-ball body properties
        p = 1.5
        sp = 1.0 / (1.0 + 2.0 ** (1.0 / (p - 1.0)))
        A = PointSet(pnorm(3, p), np.vstack([np.eye(3), np.full(3, sp)]))
        verdict = verify_ccf_witness(CcfWitness(A, 3, np.full(3, 100.0)))
        assert verdict.confirmed
        r = outer_radius(A, A.points[3])
        U = build_two_ball_set(A, A.points[3], r, np.full(3, 100.0), seed=3)
        report = check_two_ball_properties(U, A, 4000)
        assert report.all_ok


class TestEstimateRtz:
    def test_euclidean_lens_value(self):
        # oracle: the lens radius is exactly t sqrt(1 - t^2/4)
        t = 0.5
        est = estimate_r_tz(pnorm(2, 2), [1.0, 0.0], t, 20000, seed=0)
        true_val = t * np.sqrt(1.0 - t * t / 4.0)
        assert est.r_hat < t
        assert est.r_hat <= true_val + 1e-9
        assert est.r_hat >= true_val - 0.01
        assert est.flags == ()

    def test_linf_box_approaches_t(self):
        # exact box geometry: the intersection is a rectangle of radius exactly t
        est = estimate_r_tz(pnorm(2, float("inf")), [1.0, 0.0], 0.5, 20000, seed=0)
        assert est.r_hat <= 0.5 + 1e-9
        assert est.r_hat >= 0.5 - 5e-3

    def test_r_hat_at_most_t_any_norm(self):
        for spec in (pnorm(2, 1), pnorm(2, 3)):
            z = np.array([1.0, 0.0]) / eval_norm(spec, [1.0, 0.0])
            est = estimate_r_tz(spec, z, 1.0, 3000, seed=2)
            assert est.r_hat <= 1.0 + 1e-9

    def test_nested_samples_monotone_on_euclidean(self):
        # exact Euclidean path; Philox prefixes make samples nested across sizes
        vals = [
            estimate_r_tz(pnorm(2, 2), [1.0, 0.0], 0.5, n, seed=5).r_hat
            for n in (1000, 4000, 16000)
        ]
        assert vals[0] <= vals[1] + 1e-12
        assert vals[1] <= vals[2] + 1e-12

    def test_off_sphere_z_rejected(self):
        with pytest.raises(ValueError, match="unit sphere"):
            estimate_r_tz(pnorm(2, 2), [1.5, 0.0], 0.5, 100)

    def test_bad_t_rejected(self):
        with pytest.raises(ValueError, match="t must"):
            estimate_r_tz(pnorm(2, 2), [1.0, 0.0], 1.5, 100)

    def test_thin_intersection_flagged(self):
        # weights (1e-6, 1): the bounding box is 1000 wide in x, the body a sliver.
        est = estimate_r_tz(weighted_pnorm(2, (1e-6, 1.0)), [0.0, 1.0], 0.5, 2000)
        assert est.sample_count < 1e-3 * est.proposals
        assert est.flags == ("thin_intersection",)
        assert estimate_r_tz(pnorm(2, 2), [0.0, 1.0], 0.5, 2000).flags == ()

    @pytest.mark.parametrize("dim, max_iters, message", [
        (2, 0, "max_iters must be at least 1"),
        (65, None, "dimension 65 exceeds solver cap"),
    ], ids=["max-iters", "dimension"])
    def test_unsolvable_cell_rejected_before_sampling(self, monkeypatch, dim, max_iters, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("sampled before the solver's checks")

        monkeypatch.setattr(TwoBallSet, "sample", unreachable)
        z = np.eye(dim)[0]
        with pytest.raises(ValueError, match=message):
            estimate_r_tz(pnorm(dim, 2), z, 0.5, 100, max_iters=max_iters)

    def test_round_trip(self):
        est = estimate_r_tz(pnorm(2, 2), [1.0, 0.0], 0.5, 500, seed=0)
        assert RtzEstimate.from_dict(est.to_dict()) == est

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("t", [0.4, 1.0])
    def test_row_is_the_cell_body(self, p, t):
        # r_{t,z} is the Chebyshev radius of the body B[z, t] ∩ B[0, 1].
        norm = pnorm(2, p)
        z = np.array([0.6, -0.8]) / eval_norm(norm, [0.6, -0.8])
        est = estimate_r_tz(norm, z, t, 1500, seed=11)
        sample, accepted = TwoBallSet(z, t, np.zeros(2), 1.0, norm, sampler_seed=11).sample(1500)
        solved = chebyshev_center(sample, extra_starts=[z])
        assert (est.r_hat, est.sample_count) == (solved.radius, accepted)


class TestCcnfScan:
    def test_euclidean_scan_is_ccnf_evidence(self):
        scan = ccnf_scan(pnorm(2, 2), 6, [0.5, 0.75, 1.0], 3000, seed=0)
        assert scan.max_ratio < 0.99
        assert scan.verdict == "ccnf-evidence"

    def test_l1_scan_finds_near_t_cell(self):
        scan = ccnf_scan(pnorm(2, 1), 8, [0.3, 0.5], 8000, seed=0)
        assert scan.max_ratio >= 0.995

    def test_strictly_convex_2d_stays_below_t(self):
        scan = ccnf_scan(pnorm(2, 3), 6, [0.5, 0.75, 1.0], 3000, seed=0)
        assert scan.max_ratio < 1.0

    def test_every_row_bounded_by_t(self):
        scan = ccnf_scan(pnorm(2, 3), 4, [0.4, 0.8], 2000, seed=1)
        for row in scan.rows:
            assert row.r_hat <= row.t + 1e-9
            assert abs(eval_norm(scan.norm, row.z) - 1.0) <= 1e-9

    def test_csv_layout(self):
        scan = ccnf_scan(pnorm(2, 2), 2, [0.5], 500, seed=0)
        lines = scan.to_csv().strip().split("\n")
        assert lines[0] == "z_1,z_2,t,r_hat,ratio,samples,accept_ratio"
        assert len(lines) == 3

    def test_empty_t_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            ccnf_scan(pnorm(2, 2), 4, [], 100)

    @pytest.mark.parametrize("t_grid", [[0.5, 0.0], [-0.5], [1.5]])
    def test_t_outside_unit_interval_rejected(self, t_grid):
        with pytest.raises(ValueError, match=r"t values must lie in \(0, 1\]"):
            ccnf_scan(pnorm(2, 2), 1, t_grid, 100)

    @pytest.mark.parametrize("z_count, samples, key", [(0, 100, "z_count"), (-2, 100, "z_count"),
                                                       (1, 0, "samples")])
    def test_nonpositive_counts_rejected(self, z_count, samples, key):
        with pytest.raises(ValueError, match=f"'{key}' must be at least 1"):
            ccnf_scan(pnorm(2, 2), z_count, [0.5], samples)

    @pytest.mark.parametrize("dim, max_iters, message", [
        (2, 0, "max_iters must be at least 1"),
        (65, None, "dimension 65 exceeds solver cap"),
    ], ids=["max-iters", "dimension"])
    def test_unsolvable_scan_rejected_before_sampling(self, monkeypatch, dim, max_iters, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("sampled before the solver's checks")

        monkeypatch.setattr("ccflab.ccf.sample_unit_vectors", unreachable)
        with pytest.raises(ValueError, match=message):
            ccnf_scan(pnorm(dim, 2), 1, [0.5], 100, max_iters=max_iters)

    def test_one_sampler_call_per_cell(self, monkeypatch):
        # perfbench's sampling counters wrap this name: one call, the cell's proposals.
        calls = []

        def counting(body, proposals, rng):
            calls.append(proposals)
            return rejection_sample_two_balls(body, proposals, rng)

        monkeypatch.setattr("ccflab.ccf.rejection_sample_two_balls", counting)
        scan = ccnf_scan(pnorm(2, 3), 3, [0.5, 1.0], 400, seed=2)
        assert calls == [row.proposals for row in scan.rows] == [400] * 6

    def test_deterministic_and_json_round_trip(self):
        s1 = ccnf_scan(pnorm(2, 2), 3, [0.5, 1.0], 800, seed=9)
        s2 = ccnf_scan(pnorm(2, 2), 3, [0.5, 1.0], 800, seed=9)
        assert s1 == s2
        assert ScanResult.from_dict(s1.to_dict()) == s1


class TestCapContainment:
    def test_euclidean_quarter_circle(self):
        # oracle: max ||s - w|| over the closed cap sits at the endpoints (= r);
        # the arc midpoint is at distance 1 - sqrt(2)/2
        spec = pnorm(2, 2)
        excess = cap_containment_check(spec, [1.0, 0.0], [0.0, 1.0], 257)
        assert excess <= 1e-12
        mid = np.array([1.0, 1.0]) / np.sqrt(2.0)
        w = np.array([0.5, 0.5])
        assert distance(spec, mid, w) == pytest.approx(1.0 - np.sqrt(2.0) / 2.0, abs=1e-12)

    def test_degenerate_chord(self):
        assert cap_containment_check(pnorm(2, 2), [1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_l4_dense_sampling(self):
        spec = pnorm(2, 4)
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        assert cap_containment_check(spec, u, v, 1000) <= 1e-9

    # Chords inside a flat face of l1 or linf: the cap is the chord itself.
    @pytest.mark.parametrize("p, u, v", [
        (1.0, [1.0, 0.0], [0.0, 1.0]),
        (1.0, [0.75, 0.25], [0.25, 0.75]),
        (float("inf"), [1.0, -0.5], [1.0, 0.5]),
    ])
    def test_flat_face_chord_contained(self, p, u, v):
        assert abs(cap_containment_check(pnorm(2, p), u, v)) <= 1e-12

    def test_chord_through_origin_rejected(self):
        with pytest.raises(ValueError, match="origin"):
            cap_containment_check(pnorm(2, 2), [1.0, 0.0], [-1.0, 0.0])

    def test_non_unit_input_rejected(self):
        with pytest.raises(ValueError, match="unit sphere"):
            cap_containment_check(pnorm(2, 2), [2.0, 0.0], [0.0, 1.0])

    @pytest.mark.parametrize("samples", [2, 0, -5])
    def test_too_few_samples_rejected(self, samples):
        with pytest.raises(ValueError, match="'samples' must be at least 3"):
            cap_containment_check(pnorm(2, 4), [1.0, 0.0], [0.0, 1.0], samples)

    def test_dim_guard(self):
        with pytest.raises(ValueError, match="dim 2"):
            cap_containment_check(pnorm(3, 2), [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])


class TestFalsificationHarnessSmall:
    def test_p15_center_never_farthest(self):
        # strictly convex planar space: the computed center never beats the set
        norm = pnorm(2, 1.5)
        rng = rng_stream(0, "falsification-small")
        for _ in range(50):
            while True:
                m = int(rng.integers(2, 9))
                pts = rng.uniform(-1.0, 1.0, size=(m, 2))
                d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
                np.fill_diagonal(d, np.inf)
                if d.min() >= 0.25:
                    break
            A = PointSet(norm, pts)
            c = chebyshev_center(A, max_iters=500).center
            vps = rng.uniform(-2.0, 3.0, size=(50, 2))
            dmax = np.max(
                np.stack([np.atleast_1d(eval_norm(norm, vps - p)) for p in pts]), axis=0
            )
            dc = np.atleast_1d(eval_norm(norm, vps - c))
            assert np.all(dmax > dc + 1e-9)
