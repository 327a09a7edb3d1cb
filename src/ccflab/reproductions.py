"""End-to-end reproductions of the library's benchmark constructions.

Each function assembles a named geometry, runs the relevant solver and
farthest-point machinery, and returns an :class:`ExampleReport` whose checks
compare observed values against closed forms.  Reports are deterministic
given their parameters and seed, and serialize to stable JSON.

The benchmark families:

* ``example_finite_dim``: the origin plus the canonical basis under the
  l1-plus-half-l2 norm, a strictly convex space where the origin is both the
  Chebyshev center and a farthest point of the set.
* ``example_c0_truncated``: a finite truncation of a sequence-space geometry
  (sup plus weighted l2 with weights 4^-k) whose truncated set is nearly
  centerable with center near the origin.
* ``sp_closed_form`` / ``sp_grid_check`` / ``ap_ccf_check``: the
  three-unit-vector set in lp^3, its symmetric center (s_p, s_p, s_p) with
  s_p = 1/(1 + 2^(1/(p-1))), the line minimizer checked against s_p on a
  grid of p, and the CCF witness built from it for p != 2.
* ``embed_lp3``: the isometric embedding of lp^3 onto three unit-scaled
  atom indicators inside a weighted discrete-measure Lp space (a
  ``weighted_pnorm``), with the norm-one averaging projection, transporting
  the witness along.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ccf import CcfWitness, verify_ccf_witness
from .codec import Record
from .norms import NormSpec, WeightedPNorm, pnorm, sum_composite, sup_plus_weighted_l2
from .sampling import rng_stream
from .sets import PointSet, diameter, farthest_set, outer_radius
from .solver import SolverOptions, chebyshev_center, symmetric_line_minimize

__all__ = [
    "Check",
    "ExampleReport",
    "example_finite_dim",
    "example_c0_truncated",
    "sp_closed_form",
    "sp_grid_check",
    "ap_ccf_check",
    "embed_lp3",
]


@dataclass(frozen=True, eq=False)
class Check(Record):
    description: str
    expected: str
    observed: str
    passed: bool


@dataclass(frozen=True, eq=False)
class ExampleReport(Record):
    """A named reproduction run: parameters and per-check outcomes.

    ``overall`` is derived, every check passed; its JSON key comes last and
    is ignored when a report is read back.
    """

    _keys = ("name", "parameters", "checks", "overall")

    name: str
    parameters: dict
    checks: tuple[Check, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)


# log(float max / 4): the bound on log((t + 1)^p) of the lp^3 witness.
_LOG_MAX_POWER = float(np.log(np.finfo(float).max / 4.0))


def _check(desc: str, expected, observed, passed: bool) -> Check:
    return Check(desc, _fmt(expected), _fmt(observed), bool(passed))


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _ones_plus_half_l2(n: int) -> NormSpec:
    return sum_composite(n, [(1.0, pnorm(n, 1)), (0.5, pnorm(n, 2))])


def example_finite_dim(n: int, opts: SolverOptions | None = None) -> ExampleReport:
    """Origin plus canonical basis in the l1-plus-half-l2 norm on R^n, n >= 3.

    Checks: the all-ones vector sees every basis point at distance
    (n-1) + sqrt(n-1)/2, the origin strictly farther at n + sqrt(n)/2 (so the
    origin is the unique farthest point from it); the symmetric line scan has
    its minimum at s = 0 with value 3/2 everywhere on the scan; and the full
    solver lands on the origin with radius 3/2.
    """
    if n < 3:
        raise ValueError(f"requires n >= 3, got {n}")
    norm = _ones_plus_half_l2(n)
    pts = np.vstack([np.zeros(n), np.eye(n)])
    A = PointSet(norm, pts)
    z = np.ones(n)
    checks: list[Check] = []

    d_basis = norm.family.dist(z - np.eye(n))
    want_basis = (n - 1) + np.sqrt(n - 1) / 2.0
    checks.append(
        _check(
            "distance from all-ones to each basis point",
            want_basis,
            float(np.max(np.abs(d_basis - want_basis))),
            bool(np.max(np.abs(d_basis - want_basis)) <= 1e-12 * n),
        )
    )

    d_origin = float(norm.family.dist(z))
    want_origin = n + np.sqrt(n) / 2.0
    checks.append(
        _check(
            "distance from all-ones to the origin exceeds basis distances",
            want_origin,
            d_origin,
            abs(d_origin - want_origin) <= 1e-12 * n and d_origin > want_basis,
        )
    )

    fq = farthest_set(A, z)
    checks.append(
        _check(
            "farthest point from all-ones is exactly the origin",
            "(0,)",
            str(fq.achievers),
            fq.achievers == (0,),
        )
    )

    s_star, r_star = symmetric_line_minimize(A, z)
    s_grid = np.linspace(-2.0, 2.0, 401)
    scan_min = float(norm.family.dist(s_grid[:, None, None] * z - pts).max(axis=-1).min())
    line_ok = abs(s_star) <= 1e-6 and scan_min >= 1.5 - 1e-12
    checks.append(
        _check(
            "line scan: minimum at s = 0 and r(s z, A) >= 3/2 throughout",
            "s = 0, scan min >= 1.5",
            f"s = {s_star:.3e}, scan min = {scan_min:.12g}",
            line_ok,
        )
    )

    res = chebyshev_center(A, opts)
    center_ok = (
        res.converged
        and float(np.max(np.abs(res.center))) <= 1e-4
        and abs(res.radius - 1.5) <= 1e-5
    )
    checks.append(
        _check(
            "solver center is the origin with radius 3/2",
            "|center|_inf <= 1e-4, radius = 1.5",
            f"|center|_inf = {float(np.max(np.abs(res.center))):.2e}, radius = {res.radius:.12g}",
            center_ok,
        )
    )

    return ExampleReport("finite-dim", {"n": n}, tuple(checks))


def example_c0_truncated(N: int, opts: SolverOptions | None = None) -> ExampleReport:
    """Truncation (dimension N, indices 2..N) of the sequence-space geometry.

    The ambient norm is max_k |x_k| + sqrt(sum_k 4^-k x_k^2).  The set holds
    the origin together with x_n = e_1/n + (1-1/n) e_n and its mirror
    y_n = e_1/n - (1-1/n) e_n.  In the untruncated space the set is
    centerable with radius exactly 1; the truncation states the claims as
    N-indexed inequalities with an explicit 1/N error.
    """
    if N < 3:
        raise ValueError(f"requires N >= 3, got {N}")
    weights = 4.0 ** -np.arange(1, N + 1)
    norm = sup_plus_weighted_l2(weights)

    ns = np.arange(2, N + 1)
    pts = [np.zeros(N)]
    for n in ns:
        xn = np.zeros(N)
        xn[0] = 1.0 / n
        xn[n - 1] = 1.0 - 1.0 / n
        yn = xn.copy()
        yn[n - 1] = -(1.0 - 1.0 / n)
        pts.append(xn)
        pts.append(yn)
    A = PointSet(norm, np.vstack(pts))
    checks: list[Check] = []

    norms_obs = norm.family.dist(A.points[1:])
    want = (1.0 - 1.0 / ns) + np.sqrt(
        1.0 / (4.0 * ns**2) + 4.0**-ns * (1.0 - 1.0 / ns) ** 2
    )
    want = np.repeat(want, 2)
    formula_dev = float(np.max(np.abs(norms_obs - want)))
    checks.append(
        _check(
            "||x_n|| = ||y_n|| = (1-1/n) + sqrt(1/(4n^2) + 4^-n (1-1/n)^2) < 1",
            "formula match, all < 1",
            f"max dev = {formula_dev:.2e}, max norm = {float(np.max(norms_obs)):.12g}",
            formula_dev <= 1e-12 and bool(np.max(norms_obs) < 1.0),
        )
    )

    diam = diameter(A)
    checks.append(
        _check(
            "diameter at least 2 (1 - 1/N)",
            2.0 * (1.0 - 1.0 / N),
            diam,
            diam >= 2.0 * (1.0 - 1.0 / N),
        )
    )

    r_origin = outer_radius(A, np.zeros(N))
    solved = chebyshev_center(A, opts)
    gap = r_origin - solved.radius
    checks.append(
        _check(
            "r(0, A) < 1 and r(0, A) - solved radius <= 1/N",
            f"< 1 and gap <= {1.0 / N:.12g}",
            f"r(0, A) = {r_origin:.12g}, gap = {gap:.3e}",
            r_origin < 1.0 and gap <= 1.0 / N,
        )
    )

    e1 = np.zeros(N)
    e1[0] = 1.0
    d_e1 = norm.family.dist(A.points[1:] - e1)
    want_e1 = np.repeat((1.0 - 1.0 / ns) * (1.0 + np.sqrt(0.25 + 4.0**-ns)), 2)
    dev_e1 = float(np.max(np.abs(d_e1 - want_e1)))
    fq = farthest_set(A, e1)
    checks.append(
        _check(
            "||e_1 - x_n|| = (1-1/n)(1 + sqrt(1/4 + 4^-n)) < 3/2; farthest from e_1 is the origin",
            "formula match, all < 1.5, achievers = (0,)",
            f"max dev = {dev_e1:.2e}, max dist = {float(np.max(d_e1)):.12g}, achievers = {fq.achievers}",
            dev_e1 <= 1e-12 and bool(np.max(d_e1) < 1.5) and fq.achievers == (0,),
        )
    )

    return ExampleReport("c0-truncated", {"N": N}, tuple(checks))


def sp_closed_form(p: float) -> float:
    """The symmetric-center coordinate s_p = 1/(1 + 2^(1/(p-1))) for lp^3.

    This is the unique minimizer of f(s) = |1-s|^p + 2|s|^p; the solver
    cross-check lives in symmetric_line_minimize.  For p <= 1 + 2^-10 the
    power 2^(1/(p-1)) leaves the float range, and p is rejected.
    """
    if not (p > 1.0):
        raise ValueError(f"requires p > 1, got {p}")
    if p - 1.0 <= 2.0**-10:
        raise ValueError(f"2^(1/(p-1)) leaves the float range: requires p > 1 + 2^-10, got p = {p}")
    return 1.0 / (1.0 + 2.0 ** (1.0 / (p - 1.0)))


def sp_grid_check() -> ExampleReport:
    """symmetric_line_minimize against s_p on 13 log-spaced p in [1.1, 10]."""
    ps = np.exp(np.linspace(np.log(1.1), np.log(10.0), 13))
    worst = max(
        abs(symmetric_line_minimize(PointSet(pnorm(3, p), np.eye(3)), np.ones(3))[0] - sp_closed_form(p))
        for p in map(float, ps)
    )
    check = _check(
        "line minimizer matches 1/(1 + 2^(1/(p-1))) on a log grid of p",
        "max |dev| <= 1e-8",
        f"max |dev| = {worst:.2e}",
        worst <= 1e-8,
    )
    return ExampleReport("sp-grid", {"p_grid": [round(float(p), 6) for p in ps]}, (check,))


def _lp3_witness(p: float, t: float):
    """The lp^3 CCF witness: s_p, the side sign (+1 for p < 2, -1 above),
    the points e_1, e_2, e_3, x_p = (s_p, s_p, s_p), and the viewpoint
    sign * (t, t, t).

    Its distances to the viewpoint reach 3 (t + 1)^p in the p-th power, so
    (t + 1)^p must stay below a quarter of the largest float.
    """
    if p * np.log1p(t) >= _LOG_MAX_POWER:
        raise ValueError(f"(t + 1)^p leaves the float range: lower p or t, got p = {p}, t = {t}")
    sp = sp_closed_form(p)
    sign = 1.0 if p < 2.0 else -1.0
    return sp, sign, np.vstack([np.eye(3), np.full(3, sp)]), sign * np.full(3, t)


def ap_ccf_check(p: float, t: float = 100.0, opts: SolverOptions | None = None) -> ExampleReport:
    """The CCF witness in lp^3 for p != 2.

    The set is the three unit vectors plus their Chebyshev center
    x_p = (s_p, s_p, s_p).  For p < 2 the viewpoint is (t, t, t) and the
    farthest-point inequality is (t-1)^p + 2 t^p < 3 (t - s_p)^p; for p > 2
    the viewpoint is (-t, -t, -t) with the mirrored inequality.  A failing
    inequality means t is too small for this p, not a bug.
    """
    if not (1.0 < p < np.inf) or p == 2.0:
        raise ValueError(f"requires p in (1,2) or (2,inf), got {p}")
    if not (t > 1.0):
        raise ValueError(f"requires t > 1, got {t}")
    sp, sign, pts, y = _lp3_witness(p, t)
    x_p = pts[3]
    A = PointSet(pnorm(3, p), pts)
    checks: list[Check] = []

    side_ok = sp < 1.0 / 3.0 if p < 2.0 else sp > 1.0 / 3.0
    checks.append(
        _check(
            "side condition on s_p relative to 1/3",
            "s_p < 1/3" if p < 2.0 else "s_p > 1/3",
            f"s_p = {sp:.12g}",
            side_ok,
        )
    )

    res = chebyshev_center(A, opts)
    center_ok = res.converged and float(np.max(np.abs(res.center - x_p))) <= 1e-3
    checks.append(
        _check(
            "solver center is (s_p, s_p, s_p)",
            f"({sp:.6g},)*3 within 1e-3",
            f"max coord dev = {float(np.max(np.abs(res.center - x_p))):.2e}",
            center_ok,
        )
    )

    lhs = (t - sign) ** p + 2.0 * t**p
    rhs = 3.0 * (t - sign * sp) ** p
    margin = rhs - lhs
    checks.append(
        _check(
            "farthest inequality (t -/+ 1)^p + 2 t^p < 3 (t -/+ s_p)^p",
            "margin > 0 (if not: increase t)",
            f"margin = {margin:.6g}",
            margin > 0.0,
        )
    )

    verdict = verify_ccf_witness(CcfWitness(A, 3, y), opts)
    checks.append(
        _check(
            "witness confirmed: x_p is a center and farthest from the viewpoint",
            "confirmed",
            verdict.status,
            verdict.confirmed,
        )
    )

    return ExampleReport("ap-witness", {"p": p, "t": t}, tuple(checks))


def embed_lp3(
    norm: NormSpec,
    atoms: tuple[int, int, int],
    test_vectors: int = 1000,
    seed: int = 0,
    opts: SolverOptions | None = None,
) -> ExampleReport:
    """Embed lp^3 isometrically onto three atom indicators of a weighted
    discrete-measure Lp space.

    ``norm`` is that space's norm, a ``weighted_pnorm(p, atom_weights)``;
    any other family raises ValueError.  T sends x to sum_i x_i f_i with f_i
    the i-th atom indicator scaled to unit norm; P averages per atom back
    onto the span (atom averaging makes P T the identity and Holder gives
    ||P|| = 1).  Checks isometry, the retraction, the norm-one bound, and
    that the transported witness (T(A_p), T(x_p), T(y)) is confirmed in the
    weighted space.
    """
    if not isinstance(norm.family, WeightedPNorm):
        raise ValueError(f"embedding needs a weighted p-norm, got {type(norm.family).__name__}")
    m = norm.dim
    if len(set(atoms)) != 3:
        raise ValueError("need three distinct atom indices")
    if any(not (0 <= a < m) for a in atoms):
        raise ValueError(f"atom indices out of range for dim {m}")
    p = norm.family.p
    mu = np.asarray(norm.family.weights)
    rng = rng_stream(seed, "embedding")
    checks: list[Check] = []

    basis = np.zeros((3, m))
    for i, a in enumerate(atoms):
        basis[i, a] = mu[a] ** (-1.0 / p)  # indicator scaled to unit norm

    # T x = x @ basis.  P keeps the atoms' coordinates (the per-atom average
    # of a single atom is its value) and zeroes the rest.
    keep = np.zeros(m, dtype=bool)
    keep[list(atoms)] = True

    l3 = pnorm(3, p)
    xs = rng.normal(size=(test_vectors, 3))
    iso_dev = float(np.max(np.abs(norm.family.dist(xs @ basis) - l3.family.dist(xs))))
    checks.append(
        _check("isometry: ||T x|| matches ||x||_p", "dev <= 1e-12", f"{iso_dev:.2e}", iso_dev <= 1e-12)
    )

    tx = xs[:64] @ basis
    pt_dev = float(np.max(np.abs(np.where(keep, tx, 0.0) - tx)))
    checks.append(
        _check("retraction: P(T x) = T x", "dev <= 1e-14", f"{pt_dev:.2e}", pt_dev <= 1e-14)
    )

    fs = rng.normal(size=(test_vectors, m))
    norm_P = norm.family.dist(np.where(keep, fs, 0.0))
    norm_f = norm.family.dist(fs)
    proj_ok = bool(np.all(norm_P <= norm_f + 1e-12))
    checks.append(
        _check(
            "projection norm one: ||P f|| <= ||f||",
            "holds on all samples",
            f"max excess = {float(np.max(norm_P - norm_f)):.2e}",
            proj_ok,
        )
    )

    _, _, Ap, y = _lp3_witness(p, 100.0)
    verdict = verify_ccf_witness(CcfWitness(PointSet(norm, Ap @ basis), 3, y @ basis), opts)
    checks.append(
        _check(
            "transported witness (T A_p, T x_p, T y) confirmed",
            "confirmed",
            verdict.status,
            verdict.confirmed,
        )
    )

    return ExampleReport(
        "embedding",
        {
            "p": p,
            "atom_weights": list(norm.family.weights),
            "atoms": list(atoms),
            "test_vectors": test_vectors,
            "seed": seed,
        },
        tuple(checks),
    )
