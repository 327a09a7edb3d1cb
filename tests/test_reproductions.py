import json

import numpy as np
import pytest

from ccflab import (
    ExampleReport,
    PointSet,
    ap_ccf_check,
    embed_lp3,
    example_c0_truncated,
    example_finite_dim,
    pnorm,
    sp_closed_form,
    sup_plus_weighted_l2,
    symmetric_line_minimize,
    weighted_pnorm,
)


class TestFiniteDimExample:
    @pytest.mark.parametrize("n", [3, 5])
    def test_passes(self, n):
        report = example_finite_dim(n)
        assert report.overall
        assert len(report.checks) == 5

    def test_n_two_rejected(self):
        with pytest.raises(ValueError, match="n >= 3"):
            example_finite_dim(2)

    def test_deterministic_json(self):
        a = example_finite_dim(3).to_dict()
        b = example_finite_dim(3).to_dict()
        assert json.dumps(a) == json.dumps(b)


class TestC0TruncatedExample:
    @pytest.mark.parametrize("N", [3, 10])
    def test_passes(self, N):
        report = example_c0_truncated(N)
        assert report.overall

    def test_gap_small_at_n20(self):
        report = example_c0_truncated(20)
        assert report.overall
        gap_check = next(c for c in report.checks if "gap" in c.observed)
        gap = float(gap_check.observed.split("gap = ")[1])
        assert gap <= 0.05

    def test_small_truncation_rejected(self):
        with pytest.raises(ValueError, match="N >= 3"):
            example_c0_truncated(2)


class TestSpClosedForm:
    def test_known_values(self):
        assert sp_closed_form(2.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert sp_closed_form(3.0) == pytest.approx(1.0 / (1.0 + np.sqrt(2.0)), abs=1e-15)
        assert sp_closed_form(1.5) == pytest.approx(0.2, abs=1e-15)

    def test_p_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            sp_closed_form(1.0)

    def test_p_whose_power_leaves_the_float_range_rejected(self):
        # 2^(1/(p-1)) overflows for p <= 1 + 2^-10; just above, s_p is tiny but positive.
        for p in (1.0001, 1.0 + 2.0**-10):
            with pytest.raises(ValueError, match=f"leaves the float range: requires p > 1 \\+ 2\\^-10, got p = {p}"):
                sp_closed_form(p)
        assert 0.0 < sp_closed_form(1.0 + 2.0**-9) < 1e-150

    def test_agrees_with_line_minimizer_on_log_grid(self):
        for p in np.exp(np.linspace(np.log(1.1), np.log(10.0), 13)):
            A0 = PointSet(pnorm(3, float(p)), np.eye(3))
            s, _ = symmetric_line_minimize(A0, np.ones(3))
            assert abs(s - sp_closed_form(float(p))) <= 1e-8


class TestApWitness:
    def test_p15_confirmed(self):
        report = ap_ccf_check(1.5, 100.0)
        assert report.overall

    def test_p4_confirmed_with_negative_viewpoint(self):
        report = ap_ccf_check(4.0, 100.0)
        assert report.overall

    def test_p2_rejected(self):
        with pytest.raises(ValueError):
            ap_ccf_check(2.0, 100.0)

    @pytest.mark.parametrize("p, t", [(155.0, 100.0), (1.5, 1e250), (1.0001, 100.0)])
    def test_parameters_whose_powers_leave_the_float_range_rejected(self, p, t):
        with pytest.raises(ValueError, match=f"leaves the float range.* p = {p}"):
            ap_ccf_check(p, t)

    def test_p_in_the_float_range_reports_its_margin(self):
        # (t + 1)^p at p = 150, t = 100 is about 1e300: in range, but t is too small.
        report = ap_ccf_check(150.0, 100.0)
        assert [c.passed for c in report.checks] == [True, True, False, False]

    def test_t_too_small_reports_not_raises(self):
        # inequality margin goes negative for t barely above 1; report says so
        report = ap_ccf_check(1.5, 1.05)
        margin_check = next(c for c in report.checks if "increase t" in c.expected)
        if not margin_check.passed:
            assert not report.overall

    @pytest.mark.parametrize("p", [1.5, 4.0])
    def test_margin_positive_and_increasing_in_t(self, p):
        sp = sp_closed_form(p)
        sign = 1.0 if p < 2.0 else -1.0
        ts = np.array([5.0, 10.0, 20.0, 50.0, 100.0])
        margins = 3.0 * (ts - sign * sp) ** p - ((ts - sign) ** p + 2.0 * ts**p)
        started = False
        prev = -np.inf
        for m in margins:
            if started:
                assert m > prev
            if m > 0:
                started = True
            prev = m
        assert started


class TestEmbedding:
    def test_weighted_case(self):
        report = embed_lp3(weighted_pnorm(3.0, (2.0, 0.5, 1.0, 3.0)), (0, 1, 2), 1000, 0)
        assert report.overall

    def test_uniform_weights_reduce_to_coordinates(self):
        report = embed_lp3(weighted_pnorm(1.5, (1.0, 1.0, 1.0, 1.0)), (0, 1, 2), 300, 0)
        assert report.overall

    def test_retraction_exact_for_rational_weights(self):
        report = embed_lp3(weighted_pnorm(3.0, (2.0, 0.5, 1.0, 3.0)), (0, 1, 2), 300, 1)
        retraction = next(c for c in report.checks if "retraction" in c.description)
        assert retraction.passed

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            embed_lp3(weighted_pnorm(3.0, (1.0, 1.0, 1.0)), (0, 0, 1))

    def test_atom_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range for dim 3"):
            embed_lp3(weighted_pnorm(3.0, (1.0, 1.0, 1.0)), (0, 1, 3))

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            weighted_pnorm(3.0, (1.0, -2.0, 1.0))

    def test_p_whose_power_leaves_the_float_range_rejected(self):
        with pytest.raises(ValueError, match="leaves the float range.* p = 1.0001"):
            embed_lp3(weighted_pnorm(1.0001, (2.0, 0.5, 1.0, 3.0)), (0, 1, 2))

    @pytest.mark.parametrize("norm", [pnorm(3, 3.0), sup_plus_weighted_l2((1.0, 1.0, 1.0))], ids=["pnorm", "sup"])
    def test_other_norm_families_rejected(self, norm):
        with pytest.raises(ValueError, match="weighted p-norm"):
            embed_lp3(norm, (0, 1, 2))


class TestDimensionCap:
    @pytest.mark.parametrize("example, stage", [
        (example_finite_dim, "symmetric_line_minimize"),
        (example_c0_truncated, "diameter"),
        (lambda n: embed_lp3(weighted_pnorm(3.0, [1.0] * n), (0, 1, 2)), "rng_stream"),
    ], ids=["finite-dim", "c0", "embedding"])
    def test_dimension_above_the_solver_cap_rejected_at_entry(self, monkeypatch, example, stage):
        # The set and the checks before the solve grow with the dimension;
        # the solver's cap rejects it before any of them run.
        def unreachable(*args, **kwargs):
            raise AssertionError(f"{stage} ran before the cap check")

        monkeypatch.setattr(f"ccflab.reproductions.{stage}", unreachable)
        with pytest.raises(ValueError, match="dimension 65 exceeds solver cap"):
            example(65)


class TestReportPlumbing:
    def test_overall_is_conjunction(self):
        report = example_finite_dim(3)
        assert report.overall == all(c.passed for c in report.checks)

    def test_overall_is_derived_from_the_checks(self):
        data = example_finite_dim(3).to_dict()
        assert list(data) == ["name", "parameters", "checks", "overall"]
        data["checks"][1]["passed"] = False
        data["overall"] = True  # a stored flag is ignored when read back
        report = ExampleReport.from_dict(data)
        assert report.overall is False
        assert report.to_dict()["overall"] is False

    def test_json_round_trip(self):
        report = ap_ccf_check(1.5, 100.0)
        assert ExampleReport.from_dict(report.to_dict()) == report

