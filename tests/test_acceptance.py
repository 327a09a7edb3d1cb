"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass line (visible with ``pytest -s``); pytest -v
shows one PASSED/FAILED row per criterion either way.
"""

import time

import numpy as np

from ccflab import (
    CcfWitness,
    PointSet,
    SolverOptions,
    brute_force_center,
    cap_containment_check,
    ccnf_scan,
    chebyshev_center,
    embed_lp3,
    eval_norm,
    example_c0_truncated,
    example_finite_dim,
    farthest_set,
    outer_radius,
    pnorm,
    sp_closed_form,
    sum_composite,
    sup_plus_weighted_l2,
    symmetric_line_minimize,
    verify_ccf_witness,
    weighted_pnorm,
    ap_ccf_check,
)
from ccflab.sampling import rng_stream, sample_unit_vectors


def _pass(num, name, detail):
    print(f"[acceptance] criterion {num} ({name}): PASS - {detail}")


def test_criterion_01_sp_reproduction():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (1.5, 2.0, 3.0, 4.0, 10.0):
        A0 = PointSet(pnorm(3, p), np.eye(3))
        s, _ = symmetric_line_minimize(A0, np.ones(3))
        worst = max(worst, abs(s - sp_closed_form(p)))
        assert abs(s - sp_closed_form(p)) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(1, "s_p reproduction", f"max dev {worst:.2e}, {elapsed:.3f}s")


def test_criterion_02_lp3_center_against_closed_form_and_oracle():
    t0 = time.perf_counter()
    worst_coord = 0.0
    for p in (1.5, 3.0, 4.0):
        A0 = PointSet(pnorm(3, p), np.eye(3))
        sp = sp_closed_form(p)
        res = chebyshev_center(A0)
        coord_dev = float(np.max(np.abs(res.center - sp)))
        assert coord_dev <= 1e-4
        worst_coord = max(worst_coord, coord_dev)

        oracle = brute_force_center(A0, (np.zeros(3), np.ones(3)), grid_per_axis=21, refine_levels=3)
        cell = oracle.gap  # final cell diagonal in the ambient norm
        assert float(np.max(np.abs(res.center - oracle.center))) <= cell
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _pass(2, "lp3 center", f"worst coord dev {worst_coord:.2e}, {elapsed:.1f}s")


def test_criterion_03_ap_witness_confirmed_with_strict_margin():
    for p in (1.5, 4.0):
        report = ap_ccf_check(p, 100.0)
        assert report.overall, [c for c in report.checks if not c.passed]
        sp = sp_closed_form(p)
        sign = 1.0 if p < 2.0 else -1.0
        t = 100.0
        margin = 3.0 * (t - sign * sp) ** p - ((t - sign) ** p + 2.0 * t**p)
        assert margin > 0.0
    _pass(3, "ap witness", "p=1.5 and p=4 confirmed with strict margin at t=100")


def test_criterion_04_finite_dim_example():
    for n in (3, 4, 5):
        report = example_finite_dim(n)
        assert report.overall, [c for c in report.checks if not c.passed]
        norm = sum_composite(n, [(1.0, pnorm(n, 1)), (0.5, pnorm(n, 2))])
        A = PointSet(norm, np.vstack([np.zeros(n), np.eye(n)]))
        assert farthest_set(A, np.ones(n)).achievers == (0,)
        s, _ = symmetric_line_minimize(A, np.ones(n))
        assert abs(s) <= 1e-6
    _pass(4, "finite-dim example", "n = 3, 4, 5 all five checks pass")


def test_criterion_05_c0_truncation():
    N = 10
    report = example_c0_truncated(N)
    assert report.overall, [c for c in report.checks if not c.passed]

    weights = 4.0 ** -np.arange(1, N + 1)
    norm = sup_plus_weighted_l2(weights)
    pts = [np.zeros(N)]
    for n in range(2, N + 1):
        xn = np.zeros(N)
        xn[0] = 1.0 / n
        xn[n - 1] = 1.0 - 1.0 / n
        yn = xn.copy()
        yn[n - 1] *= -1.0
        pts += [xn, yn]
    A = PointSet(norm, np.vstack(pts))
    member_norms = np.atleast_1d(eval_norm(norm, A.points[1:]))
    assert np.all(member_norms < 1.0)
    e1 = np.zeros(N)
    e1[0] = 1.0
    dists = np.atleast_1d(eval_norm(norm, A.points[1:] - e1))
    assert np.all(dists < 1.5)
    gap = outer_radius(A, np.zeros(N)) - chebyshev_center(A).radius
    assert gap <= 0.1
    _pass(5, "c0 truncation", f"N=10, origin-vs-solved radius gap {gap:.3e}")


def test_criterion_06_hilbert_ccnf_evidence():
    # Pythagorean radius inequality against solver output on random sets:
    # in Hilbert space r(x, A)^2 >= r(A)^2 + ||x - c||^2.
    rng = rng_stream(0, "bp-acceptance")
    worst = np.inf
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        m = int(rng.integers(2, 9))
        A = PointSet(pnorm(dim, 2), rng.uniform(-1.0, 1.0, size=(m, dim)))
        res = chebyshev_center(A)
        x = rng.uniform(-2.0, 2.0, size=dim)
        slack = (
            outer_radius(A, x) ** 2
            - res.radius**2
            - float(np.sum((x - res.center) ** 2))
        )
        worst = min(worst, slack)
        assert slack >= -1e-6

    scan = ccnf_scan(pnorm(2, 2), 32, np.linspace(0.4, 1.0, 10), 20000, seed=0)
    assert scan.max_ratio <= 0.99
    _pass(
        6,
        "Hilbert CCNF evidence",
        f"worst BP slack {worst:.2e} >= -1e-6; scan max ratio {scan.max_ratio:.4f} <= 0.99",
    )


def test_criterion_07_non_strict_ccf_detection():
    A = PointSet(pnorm(2, 1), [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    verdict = verify_ccf_witness(CcfWitness(A, 2, [0.0, 0.0]))
    assert verdict.confirmed

    scan = ccnf_scan(pnorm(2, 1), 16, [0.2, 0.35, 0.5, 0.65, 0.8], 20000, seed=0)
    assert scan.max_ratio >= 0.995
    _pass(
        7,
        "l1 CCF detection",
        f"segment witness confirmed; scan max ratio {scan.max_ratio:.5f} >= 0.995",
    )


def test_criterion_08_cap_containment_suite():
    worst = -np.inf
    for p in (1.5, 2.0, 3.0, 4.0):
        norm = pnorm(2, p)
        rng = rng_stream(0, "cap", p)
        done = 0
        while done < 50:
            u, v = sample_unit_vectors(norm, 2, rng)
            seg = v - u
            denom = float(np.dot(seg, seg))
            if denom < 1e-12:
                continue
            tt = np.clip(-np.dot(u, seg) / denom, 0.0, 1.0)
            if float(np.linalg.norm(u + tt * seg)) < 1e-3:
                continue  # chord hypothesis: must not pass through the origin
            excess = cap_containment_check(norm, u, v, 256)
            worst = max(worst, excess)
            assert excess <= 1e-9
            done += 1
    _pass(8, "cap containment", f"worst excess {worst:.2e} <= 1e-9 over 4 x 50 chords")


def test_criterion_09_falsification_harness_p3():
    norm = pnorm(2, 3)
    opts = SolverOptions(max_iters=500)
    rng = rng_stream(0, "falsification")
    counterexamples = 0
    worst_margin = np.inf
    for _ in range(200):
        while True:
            m = int(rng.integers(2, 9))
            pts = rng.uniform(-1.0, 1.0, size=(m, 2))
            d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
            np.fill_diagonal(d, np.inf)
            if d.min() >= 0.25:
                break
        A = PointSet(norm, pts)
        c = chebyshev_center(A, opts).center
        vps = rng.uniform(-2.0, 3.0, size=(100, 2))
        dmax = np.max(
            np.stack([np.atleast_1d(eval_norm(norm, vps - p)) for p in pts]), axis=0
        )
        dc = np.atleast_1d(eval_norm(norm, vps - c))
        margins = dmax - dc
        worst_margin = min(worst_margin, float(margins.min()))
        counterexamples += int(np.sum(margins <= 1e-9))
    assert counterexamples == 0
    _pass(
        9,
        "2d strictly convex falsification",
        f"0 counterexamples in 200x100; worst margin {worst_margin:.2e}",
    )


def test_criterion_10_weighted_lp_embedding():
    report = embed_lp3(weighted_pnorm(3.0, (2.0, 0.5, 1.0, 3.0)), (0, 1, 2), test_vectors=1000, seed=0)
    by_desc = {c.description: c for c in report.checks}
    assert by_desc["isometry: ||T x|| matches ||x||_p"].passed
    assert by_desc["projection norm one: ||P f|| <= ||f||"].passed
    assert by_desc["transported witness (T A_p, T x_p, T y) confirmed"].passed
    assert report.overall
    _pass(10, "weighted Lp embedding", "isometry <= 1e-12, ||P|| <= 1, witness confirmed")


def _oracle_corpus(seed=0):
    rng = rng_stream(seed, "oracle-corpus")
    out = []
    k = 0
    while len(out) < 25:
        dim = int(rng.integers(2, 4))
        fams = [
            pnorm(dim, 1),
            pnorm(dim, 1.5),
            pnorm(dim, 2),
            pnorm(dim, 3),
            pnorm(dim, float("inf")),
            sum_composite(dim, [(1.0, pnorm(dim, 1)), (0.5, pnorm(dim, 2))]),
            sup_plus_weighted_l2(0.25 ** np.arange(1, dim + 1)),
            weighted_pnorm(3.0, rng.uniform(0.5, 3.0, size=dim)),
        ]
        spec = fams[k % len(fams)]
        k += 1
        m = int(rng.integers(2, 7))
        out.append(PointSet(spec, rng.uniform(-1.0, 1.0, size=(m, dim))))
    return out


def test_criterion_11_global_oracle_equivalence():
    from ccflab import is_strictly_convex_family

    worst = 0.0
    for A in _oracle_corpus():
        res = chebyshev_center(A)
        lo = A.points.min(axis=0)
        hi = A.points.max(axis=0)
        pad = 0.25 * np.maximum(hi - lo, 0.5)
        oracle = brute_force_center(A, (lo - pad, hi + pad), grid_per_axis=33, refine_levels=4)
        diff = abs(res.radius - oracle.radius)
        worst = max(worst, diff)
        assert diff <= 2e-3
        if is_strictly_convex_family(A.norm):
            # unique center: the grid argmin can drift along a nearly flat
            # valley by about one cell, so two cell diagonals is the honest
            # agreement bound at this resolution
            assert float(np.max(np.abs(res.center - oracle.center))) <= 2.0 * oracle.gap
    _pass(11, "oracle equivalence", f"worst |solver - oracle| radius gap {worst:.2e} <= 2e-3")
