"""CCF/CCNF machinery: witness verification, viewpoint amplification, the
two-ball reduction body, and sampled r_{t,z} scans.

Terminology: a finite set is *CCF* when one of its Chebyshev centers is also a
farthest point of the set from some viewpoint, and *CCNF* otherwise.  The
quantity r_{t,z} is the Chebyshev radius of the body B_X ∩ B[z, t] for a unit
vector z; spaces where r_{t,z} < t for every unit z and t in (0, 1] contain no
nontrivial CCF set.  A CCF set whose center c is farthest from y reduces to
the two-ball body B[c, r] ∩ B[y, R], R = ||c - y||; moving y to 0 and scaling
by R makes it the cell with z = (c - y)/R, t = r/R.  Both are ``TwoBallSet``
values with one sampler, ``TwoBallSet.sample``.  Bodies are handled by inner
discretization only, so scans produce *evidence* with reported sampler
density, never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import Record, csv_text
from .norms import NormSpec, as_vector
from .sampling import rejection_sample_two_balls, rng_stream, sample_unit_vectors
from .sets import DEFAULT_ACHIEVER_TOL, PointSet, _achievers, outer_radius
from .solver import CenterResult, SolverOptions, chebyshev_center

__all__ = [
    "CONFIRMED",
    "CENTER_FAILS",
    "FARTHEST_FAILS",
    "INDETERMINATE",
    "CcfWitness",
    "WitnessVerdict",
    "verify_ccf_witness",
    "amplify_witness",
    "TwoBallSet",
    "build_two_ball_set",
    "TwoBallReport",
    "check_two_ball_properties",
    "RtzEstimate",
    "estimate_r_tz",
    "ScanResult",
    "ccnf_scan",
    "cap_containment_check",
    "CCNF_EVIDENCE_MAX_RATIO",
    "CCF_SIGNAL_MIN_RATIO",
]

CONFIRMED = "confirmed"
CENTER_FAILS = "center_fails"
FARTHEST_FAILS = "farthest_fails"
INDETERMINATE = "indeterminate"

# Default classification thresholds for scan verdicts (see ScanResult).  The
# signal threshold is deliberately high: strictly convex lp lenses can reach
# ratios near 0.997 at moderate t close to low-curvature sphere directions,
# so only near-exact cells count as a CCF signal.
CCNF_EVIDENCE_MAX_RATIO = 0.99
CCF_SIGNAL_MIN_RATIO = 0.9995


@dataclass(frozen=True, eq=False)
class CcfWitness(Record):
    """A candidate CCF triple: a set, a claimed center in it, a viewpoint."""

    set: PointSet
    center_index: int
    viewpoint: np.ndarray
    center_tol: float = 1e-6
    farthest_tol: float = DEFAULT_ACHIEVER_TOL

    def __post_init__(self):
        if not (0 <= self.center_index < len(self.set)):
            raise ValueError(f"center_index {self.center_index} out of range")
        if not (self.center_tol > 0.0 and self.farthest_tol > 0.0):
            raise ValueError("tolerances must be positive")
        object.__setattr__(
            self, "viewpoint", as_vector(self.viewpoint, self.set.dim, "viewpoint")
        )


@dataclass(frozen=True, eq=False)
class WitnessVerdict(Record):
    """Outcome of witness verification plus the numbers behind it.

    ``center_margin`` is chebyshev_radius + tol - outer_radius(A, claimed
    center) (nonnegative when the center check passes) and
    ``farthest_margin`` is the claimed center's distance from the viewpoint
    minus the largest rival distance (>= -tol when the farthest check
    passes).
    """

    _keys = (
        ("verdict", "status"), "chebyshev_radius", "center_outer_radius",
        "center_margin", "farthest_margin", "solver",
    )

    status: str
    chebyshev_radius: float
    center_outer_radius: float
    center_margin: float
    farthest_margin: float
    solver: CenterResult

    @property
    def confirmed(self) -> bool:
        return self.status == CONFIRMED


def verify_ccf_witness(w: CcfWitness, opts: SolverOptions | None = None) -> WitnessVerdict:
    """Check whether the claimed point is a Chebyshev center *and* a farthest
    point from the claimed viewpoint.

    The center check is one-sided: outer_radius(A, claimed) must not exceed
    the solved Chebyshev radius plus center_tol.  Solver non-convergence
    yields an indeterminate verdict rather than a hard failure.
    """
    A = w.set
    if not A.nontrivial:
        raise ValueError("witness set must be nontrivial (two distinct points)")
    claimed = A.points[w.center_index]
    solved = chebyshev_center(A, opts, extra_starts=[claimed])
    r_claimed = outer_radius(A, claimed)
    center_margin = solved.radius + w.center_tol - r_claimed

    dists = A.norm.family.dist(A.points - w.viewpoint)
    d_claimed = float(dists[w.center_index])
    rivals = np.delete(dists, w.center_index)
    far_margin = d_claimed - (float(np.max(rivals)) if rivals.size else 0.0)

    if not solved.converged:
        status = INDETERMINATE
    elif center_margin < 0.0:
        status = CENTER_FAILS
    elif w.center_index not in _achievers(dists, w.farthest_tol):
        status = FARTHEST_FAILS
    else:
        status = CONFIRMED
    return WitnessVerdict(
        status=status,
        chebyshev_radius=solved.radius,
        center_outer_radius=r_claimed,
        center_margin=center_margin,
        farthest_margin=far_margin,
        solver=solved,
    )


def amplify_witness(A: PointSet, c, z, t: float) -> np.ndarray:
    """Push a farthest-point viewpoint arbitrarily far away.

    Given that ``c`` is farthest in A from ``z``, the point y = t*z + (1-t)*c
    (t >= 1) keeps c farthest while ||y - c|| = t * ||z - c|| grows linearly
    in t.  The precondition is checked, up to DEFAULT_ACHIEVER_TOL, and
    violations are rejected.
    """
    if not (1.0 <= t < np.inf):
        raise ValueError(f"amplification factor must be >= 1 and finite, got {t}")
    ac = as_vector(c, A.dim, "c")
    az = as_vector(z, A.dim, "z")
    _require_farthest(A, ac, az)
    return t * az + (1.0 - t) * ac


def _require_farthest(A: PointSet, c: np.ndarray, y: np.ndarray) -> None:
    """Reject c when a point of A is farther from y, up to DEFAULT_ACHIEVER_TOL."""
    d_c = float(A.norm.family.dist(c - y))
    r_y = outer_radius(A, y)
    if d_c < r_y - DEFAULT_ACHIEVER_TOL:
        raise ValueError(f"rejected: c is not farthest in A from the viewpoint ({r_y} > {d_c})")


@dataclass(frozen=True, eq=False)
class TwoBallSet(Record):
    """The body B[c, r] ∩ B[y, R] with a deterministic rejection sampler.

    The radii are finite and nonnegative, and r <= R and c ∈ B[y, R] hold up
    to 1e-9 * (1 + R), so the body is never empty.
    """

    c: np.ndarray
    r: float
    y: np.ndarray
    R: float
    norm: NormSpec
    sampler_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "c", as_vector(self.c, self.norm.dim, "c"))
        object.__setattr__(self, "y", as_vector(self.y, self.norm.dim, "y"))
        r, R = float(self.r), float(self.R)
        if not (0.0 <= r < np.inf and 0.0 <= R < np.inf):
            raise ValueError(f"ball radii must be finite and nonnegative, got r = {r}, R = {R}")
        d_cy = float(self.norm.family.dist(self.c - self.y))
        if max(r, d_cy) > R + 1e-9 * (1.0 + R):
            raise ValueError(f"invariant violated: r = {r} or ||c - y|| = {d_cy} exceeds R = {R}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "R", R)

    def sample(self, proposals: int):
        """Points of the body: (points, accepted, proposed).

        The points are the anchors c and (1 - s) c + s y, s = r/R, then the
        accepted proposals (uniform on the body), which ``accepted`` counts.
        ``proposals`` must be nonnegative.  Degenerate bodies (r = 0) return
        just {c}, with no proposal accepted.  The Philox stream is keyed by
        (sampler_seed, "rtz", r), so samples are nested across growing
        ``proposals``.
        """
        if proposals < 0:
            raise ValueError(f"'proposals' must be at least 0, got {proposals}")
        if self.r == 0.0:
            return self.c.reshape(1, -1), 0, proposals
        s = self.r / self.R if self.r < self.R else 1.0
        rng = rng_stream(self.sampler_seed, "rtz", self.r)
        pts, accepted, proposed = rejection_sample_two_balls(
            self.norm, self.c, self.r, self.y, self.R, proposals, rng
        )
        return np.vstack([self.c, (1.0 - s) * self.c + s * self.y, pts]), accepted, proposed


def build_two_ball_set(A: PointSet, c, r: float, y, *, seed: int = 0) -> TwoBallSet:
    """Construct B[c, r] ∩ B[y, R] with R = ||c - y||.

    ``r`` must be a certified Chebyshev radius for A with center ``c``, and
    ``c`` must be farthest in A from ``y``; the construction rejects inputs
    where r > R or where the farthest precondition fails.
    """
    ac = as_vector(c, A.dim, "c")
    ay = as_vector(y, A.dim, "y")
    U = TwoBallSet(c=ac, r=r, y=ay, R=float(A.norm.family.dist(ac - ay)), norm=A.norm, sampler_seed=seed)
    _require_farthest(A, ac, ay)
    return U


@dataclass(frozen=True, eq=False)
class TwoBallReport(Record):
    """Checks (a)-(d) for the two-ball body against its source set.

    (a) A sits inside both balls (exact); (b) the Chebyshev radius of a
    deterministic sample is at most r (the sample lies in B[c, r]); (c)
    r(c, sample) <= r exactly; (d) no sampled point is farther than R from y
    (exact by construction of the sampler).
    """

    _keys = (
        "containment_ok", "sample_radius_ok", "center_radius_ok", "farthest_ok",
        "sample_radius", "center_sample_radius", "max_sample_dist_to_y",
        "accepted", "proposals", "all_ok",
    )

    containment_ok: bool
    sample_radius_ok: bool
    center_radius_ok: bool
    farthest_ok: bool
    sample_radius: float
    center_sample_radius: float
    max_sample_dist_to_y: float
    accepted: int
    proposals: int

    @property
    def all_ok(self) -> bool:
        return (
            self.containment_ok
            and self.sample_radius_ok
            and self.center_radius_ok
            and self.farthest_ok
        )


def check_two_ball_properties(
    U: TwoBallSet,
    A: PointSet,
    samples: int,
    opts: SolverOptions | None = None,
) -> TwoBallReport:
    """Exercise the two-ball body's containment and radius properties, each
    up to DEFAULT_ACHIEVER_TOL."""
    tol = DEFAULT_ACHIEVER_TOL
    d_c = A.norm.family.dist(A.points - U.c)
    d_y = A.norm.family.dist(A.points - U.y)
    containment = bool(np.all(d_c <= U.r + tol) and np.all(d_y <= U.R + tol))

    pts, accepted, proposed = U.sample(samples)
    sample_set = PointSet(A.norm, pts)
    solved = chebyshev_center(sample_set, opts, extra_starts=[U.c])
    r_c_sample = outer_radius(sample_set, U.c)
    max_to_y = float(np.max(A.norm.family.dist(pts - U.y)))
    return TwoBallReport(
        containment_ok=containment,
        sample_radius_ok=bool(solved.radius <= U.r + tol),
        center_radius_ok=bool(r_c_sample <= U.r + tol),
        farthest_ok=bool(max_to_y <= U.R + tol),
        sample_radius=solved.radius,
        center_sample_radius=r_c_sample,
        max_sample_dist_to_y=max_to_y,
        accepted=accepted,
        proposals=proposed,
    )


@dataclass(frozen=True, eq=False)
class RtzEstimate(Record):
    """Sampled lower estimate of r_{t,z}, the Chebyshev radius of B_X ∩ B[z,t].

    ``r_hat`` is the solved radius of a finite inner sample: exact for that
    sample up to ``gap``, the solver's certified bound, and so an
    under-estimate of r_{t,z} up to ``gap``.  It never exceeds t (the
    candidate z already achieves radius <= t on any subset of B[z, t]).
    ``sample_count`` counts rejection-sampler acceptances; the solve also
    always includes the cell's two anchors, z and (1-t)z.
    """

    _keys = ("z", "t", "r_hat", "ratio", "sample_count", "proposals", "accept_ratio", "gap", "flags")

    z: np.ndarray
    t: float
    r_hat: float
    sample_count: int
    proposals: int
    gap: float
    flags: tuple[str, ...] = ()

    @property
    def ratio(self) -> float:
        return self.r_hat / self.t

    @property
    def accept_ratio(self) -> float:
        return self.sample_count / self.proposals if self.proposals else 0.0


def estimate_r_tz(
    norm: NormSpec,
    z,
    t: float,
    samples: int,
    opts: SolverOptions | None = None,
    seed: int = 0,
) -> RtzEstimate:
    """Inner-sample B_X ∩ B[z, t] and solve the sample's Chebyshev radius.

    The cell is ``TwoBallSet(c=z, r=t, y=0, R=1, sampler_seed=seed)``; its
    sample starts with the anchors z and (1-t)z, so the estimate is defined
    even for thin intersections.  ``z`` must lie on the unit sphere
    (tolerance 1e-9); ``samples`` (at least 1) counts proposals; acceptance
    below 1e-3 is flagged as ``thin_intersection``.  ``opts`` goes to the
    solver as given (None means ``SolverOptions()``); a solve whose
    certified gap misses its tolerance is flagged ``solver_not_converged``.
    """
    az = _on_unit_sphere(norm, z, "z")
    if not (0.0 < t <= 1.0):
        raise ValueError(f"t must lie in (0, 1], got {t}")
    if samples < 1:
        raise ValueError(f"'samples' must be at least 1, got {samples}")

    cell = TwoBallSet(c=az, r=t, y=np.zeros(norm.dim), R=1.0, norm=norm, sampler_seed=seed)
    pts, accepted, proposed = cell.sample(samples)
    flags: tuple[str, ...] = ()
    if accepted / proposed < 1e-3:
        flags = ("thin_intersection",)

    # The anchors stay first: the solver's working set depends on row order.
    solved = chebyshev_center(PointSet(norm, pts), opts, extra_starts=[az])
    if not solved.converged:
        flags = flags + ("solver_not_converged",)
    return RtzEstimate(
        z=az,
        t=cell.r,
        r_hat=solved.radius,
        sample_count=accepted,
        proposals=proposed,
        gap=solved.gap,
        flags=flags,
    )


@dataclass(frozen=True, eq=False)
class ScanResult(Record):
    """Grid of r_{t,z} estimates over sampled unit directions and a t-grid.

    ``verdict`` classifies the evidence: "ccnf-evidence" when the largest
    r_hat/t stays at or below ``ccnf_threshold`` (default
    CCNF_EVIDENCE_MAX_RATIO), "ccf-signal" when some cell reaches
    ``ccf_threshold`` (default CCF_SIGNAL_MIN_RATIO), otherwise
    "inconclusive".  This is sampled evidence, not a certificate; density
    data stays attached to every row.
    """

    _keys = (
        "norm", "t_grid", "samples", "seed", "rows", "max_ratio", "verdict",
        "ccnf_threshold", "ccf_threshold",
    )

    norm: NormSpec
    rows: tuple[RtzEstimate, ...]
    t_grid: tuple[float, ...]
    samples: int
    seed: int
    ccnf_threshold: float = CCNF_EVIDENCE_MAX_RATIO
    ccf_threshold: float = CCF_SIGNAL_MIN_RATIO

    @property
    def max_ratio(self) -> float:
        return max(row.ratio for row in self.rows)

    @property
    def verdict(self) -> str:
        m = self.max_ratio
        if m <= self.ccnf_threshold:
            return "ccnf-evidence"
        if m >= self.ccf_threshold:
            return "ccf-signal"
        return "inconclusive"

    def to_csv(self) -> str:
        header = [f"z_{i + 1}" for i in range(self.norm.dim)] + ["t", "r_hat", "ratio", "samples", "accept_ratio"]
        return csv_text([header] + [
            [*map(float, row.z), row.t, row.r_hat, row.ratio, self.samples, row.accept_ratio]
            for row in self.rows
        ])


def ccnf_scan(
    norm: NormSpec,
    z_count: int,
    t_grid,
    samples: int,
    seed: int = 0,
    opts: SolverOptions | None = None,
) -> ScanResult:
    """Estimate r_{t,z} over a deterministic unit-sphere sample times a t-grid.

    ``z_count`` and ``samples`` must be at least 1.  Cells run one after
    another, z-major.  Every cell derives its own Philox stream from (seed,
    cell indices), so each row depends only on its own cell, not on the
    order the cells run in.  ``opts`` is passed to every cell's solve.
    """
    ts = tuple(float(t) for t in t_grid)
    if not ts:
        raise ValueError("t_grid must be nonempty")
    if any(not (0.0 < t <= 1.0) for t in ts):
        raise ValueError("t values must lie in (0, 1]")
    if z_count < 1:
        raise ValueError(f"'z_count' must be at least 1, got {z_count}")
    zs = sample_unit_vectors(norm, z_count, rng_stream(seed, "scan-z"))

    rows = tuple(
        estimate_r_tz(norm, zs[zi], ts[ti], samples, opts=opts, seed=_cell_seed(seed, zi, ti))
        for zi in range(z_count)
        for ti in range(len(ts))
    )
    return ScanResult(norm=norm, rows=rows, t_grid=ts, samples=samples, seed=seed)


def _cell_seed(seed: int, zi: int, ti: int) -> int:
    return (int(seed) * 1_000_003 + zi * 1009 + ti) & (2**63 - 1)


def _on_unit_sphere(norm: NormSpec, v, name: str) -> np.ndarray:
    """``v`` as a vector, checked to lie on the unit sphere (tolerance 1e-9)."""
    av = as_vector(v, norm.dim, name)
    if abs(float(norm.family.dist(av)) - 1.0) > 1e-9:
        raise ValueError(f"{name} must lie on the unit sphere of the ambient norm")
    return av


def cap_containment_check(norm: NormSpec, u, v, samples: int = 256) -> float:
    """Max over sampled cap points s of ||s - w|| - r, for the chord u-v.

    The cap is the arc of the unit sphere cut off by the chord on the side
    away from the origin; w = (u+v)/2 and r = ||u-v||/2.  The chord must not
    pass through the origin (distance checked at 1e-9), and ``samples`` must
    be at least 3.  A nonpositive return certifies that every sampled cap
    point lies in w + r B_X.
    """
    if norm.dim != 2:
        raise ValueError("cap containment is a planar (dim 2) check")
    if samples < 3:
        raise ValueError(f"'samples' must be at least 3, got {samples}")
    au = _on_unit_sphere(norm, u, "u")
    av = _on_unit_sphere(norm, v, "v")
    w = (au + av) / 2.0
    r = float(norm.family.dist(au - av)) / 2.0
    if r == 0.0:
        return 0.0  # degenerate chord: the cap is the single point u

    # Segment-to-origin distance (Euclidean is fine for the hypothesis check:
    # "passes through the origin" is norm-independent).
    seg = av - au
    tt = np.clip(-np.dot(au, seg) / np.dot(seg, seg), 0.0, 1.0)
    if float(np.linalg.norm(au + tt * seg)) < 1e-9:
        raise ValueError("rejected: the chord passes through the origin")

    # The chord line misses the origin, so the rays from the origin that
    # cross the chord turn by less than pi: the far-side arc is the one from
    # u to v that turns by less than pi.
    phi_u = float(np.arctan2(au[1], au[0]))
    phi_v = float(np.arctan2(av[1], av[0]))
    delta = (phi_v - phi_u) % (2.0 * np.pi)
    sweep = delta if delta < np.pi else delta - 2.0 * np.pi
    angles = phi_u + sweep * np.linspace(0.0, 1.0, samples)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    cap = dirs / norm.family.dist(dirs)[:, None]
    return float(np.max(norm.family.dist(cap - w)) - r)
