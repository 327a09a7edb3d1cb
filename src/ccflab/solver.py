"""Chebyshev center and radius computation for finite point sets.

The objective F(x) = max_a ||x - a|| is convex but nonsmooth at ties.  Every
norm family takes one path: the deep-cut ellipsoid method (Bland, Goldfarb &
Todd, "The ellipsoid method: a survey", Oper. Res. 1981), run on a working
set W of the points.  Each iteration cuts the current ellipsoid, which still
holds every Chebyshev center of W, with a subgradient g of F_W at its center
x; the subgradient inequality then bounds r(W) <= r(A) from below by
F_W(x) - max_{y in E} g.(x - y).  A round stops once the best radius is
within 1e-12 * max(1, radius) of the best such bound, or when its budget runs
out.  The points of A that the round's center misses then join W (a
Badoiu-Clarkson core set), and rounds repeat until none remain, so large
samples cost about as much as their few active points.  The gap between the
radius and the bound is the certificate reported as ``CenterResult.gap``.

The ellipsoid is kept in factored form, P = L L^T, so it stays positive
definite however thin it gets.  In one dimension every norm is a multiple
of |x|, and the midpoint of the extreme points is the exact center.

An independent brute-force grid oracle (:func:`brute_force_center`) is kept
deliberately separate from the solver path so the two can cross-check each
other in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .codec import Record
from .norms import as_vector, linf_lower_constant
from .sets import DEFAULT_ACHIEVER_TOL, PointSet, _achievers

__all__ = [
    "SolverOptions",
    "CenterResult",
    "chebyshev_center",
    "chebyshev_radius",
    "brute_force_center",
    "symmetric_line_minimize",
]

# A round stops once its certified gap is below this share of max(1, radius).
_ROUND_RTOL = 1e-12
# Points farthest from the start that make up the first working set, and the
# most violators that join it per round, per dimension plus one.
_CORE_PER_DIM = 4
# Largest dimension chebyshev_center accepts.
_DIM_CAP = 64


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for :func:`chebyshev_center`.

    ``max_iters`` (at least 1) bounds the ellipsoid iterations of each
    working-set round; None picks 1000 + 50 n^2 in dimension n, since the
    iterations a round needs grow as n^2.  The result is ``converged`` when
    its certified gap is at most ``tol * max(1, radius)``.
    """

    max_iters: int | None = None
    tol: float = 1e-6

    def __post_init__(self):
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not (self.tol > 0.0):
            raise ValueError("tol must be positive")


@dataclass(frozen=True, eq=False)
class CenterResult(Record):
    """A center estimate with certificate data.

    ``radius`` is always the exact outer radius of the set at ``center``.
    ``gap`` is a certified upper bound on radius - r(A): radius minus the
    best lower bound on r(A) the ellipsoid cuts proved.  It is tight, at most
    1e-12 * max(1, radius) unless the iteration budget ran out.
    ``iterations`` counts ellipsoid iterations over all working-set rounds.
    """

    _keys = ("center", "radius", "gap", ("achievers", "achieving_indices"), "iterations", "flags")

    center: np.ndarray
    radius: float
    achieving_indices: tuple[int, ...]
    gap: float
    iterations: int
    flags: tuple[str, ...] = ()

    @property
    def converged(self) -> bool:
        return "not_converged" not in self.flags

    def to_dict(self) -> dict:
        # center JSON omits an empty flags list (RtzEstimate rows always write theirs).
        out = super().to_dict()
        if not self.flags:
            del out["flags"]
        return out


def _ellipsoid_round(A: PointSet, W: np.ndarray, x0: np.ndarray, max_iters: int):
    """Deep-cut ellipsoid method on F_W(x) = max_{a in W} ||x - a||.

    Starts from the Euclidean ball of radius 2 F_W(x0) sqrt(n) / a around x0
    (a = linf_lower_constant), which holds every Chebyshev center c of W:
    ||c - x0|| <= r(W) + F_W(x0).  Returns the best point, its value, the best
    certified lower bound on r(W) and the iterations (-inf and 0 on overflow).
    """
    n = A.dim
    dist, subgrad = A.norm.family.dist, A.norm.family.subgrad
    x = x0
    best_x, best_f = x0, float(dist(W - x0).max())
    r0 = 2.0 * best_f * math.sqrt(n) / linf_lower_constant(A.norm)
    if not math.isfinite(r0):
        return x0, best_f, -math.inf, 0
    L = np.eye(n) * r0
    lower = -math.inf
    k = 0
    while k < max_iters:
        k += 1
        diffs = x - W
        dists = dist(diffs)
        i = dists.argmax()
        f = float(dists[i])
        if f < best_f:
            best_x, best_f = x, f
        Lg = L.T @ subgrad(diffs[i])
        width = math.sqrt(Lg.dot(Lg))  # max of g.(x - y) over the ellipsoid
        lower = max(lower, f - width)
        if best_f - lower <= _ROUND_RTOL * max(1.0, best_f):
            break
        # Deep cut: every center y has g.(y - x) <= best_f - f = -alpha * width.
        alpha = (f - best_f) / width
        u = Lg / width
        Lu = L @ u
        x = x - (1.0 + n * alpha) / (n + 1.0) * Lu
        sigma = 2.0 * (1.0 + n * alpha) / ((n + 1.0) * (1.0 + alpha))
        scale = math.sqrt(n * n * (1.0 - alpha * alpha) / (n * n - 1.0))
        L = scale * (L - (1.0 - math.sqrt(1.0 - sigma)) * (Lu[:, None] * u))
    return best_x, best_f, lower, k


def chebyshev_center(
    A: PointSet, opts: SolverOptions | None = None, *, extra_starts=None
) -> CenterResult:
    """Minimize x -> max_a ||x - a|| over the ambient space.

    The centroid and ``extra_starts`` (callers' structurally good candidates)
    compete as starting points, and stay candidates for the returned center,
    so the returned radius never exceeds any of theirs.  The result is
    deterministic for a given input.

    Non-convergence within the iteration budget is reported via the
    ``not_converged`` flag on the result, never by raising.  A start radius
    beyond the float range (not finite, or 0 between distinct points) raises
    ValueError, and a round whose lower bound overflowed certifies nothing.
    """
    opts = opts or SolverOptions()
    if A.dim > _DIM_CAP:
        raise ValueError(f"dimension {A.dim} exceeds solver cap {_DIM_CAP}")
    pts = A.points
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    distinct = not np.array_equal(lo, hi)
    exact = A.dim == 1 or not distinct  # the midpoint of the extreme points is a center
    if exact:
        starts = [(lo + hi) / 2.0]
    else:
        starts = [pts.mean(axis=0)] + [as_vector(s, A.dim, "start") for s in extra_starts or ()]
    dists = [A.norm.family.dist(pts - s) for s in starts]
    k = int(np.argmin([np.max(d) for d in dists]))
    best_x, best_d = starts[k], dists[k]
    best_r = float(np.max(best_d))
    if not np.isfinite(best_r) or (distinct and best_r == 0.0):
        raise ValueError(f"the outer radius at the start is {best_r}: distances left the float range")
    if exact:
        # r(A) >= diam(A)/2, which the midpoint attains in one dimension.
        lower = float(A.norm.family.dist(hi - lo)) / 2.0
        return _assemble(A, best_x, lower, iterations=0, dists=best_d)

    budget = 1000 + 50 * A.dim**2 if opts.max_iters is None else opts.max_iters
    core = _CORE_PER_DIM * (A.dim + 1)
    W = np.argsort(-best_d, kind="stable")[:core]
    lower = 0.0
    iterations = 0
    while True:
        x, f_w, lb, its = _ellipsoid_round(A, pts[W], best_x, budget)
        iterations += its
        if np.isfinite(lb):  # a distance that overflowed to inf bounds nothing
            lower = max(lower, lb)
        d = A.norm.family.dist(pts - x)
        if float(np.max(d)) < best_r:
            best_x, best_d, best_r = x, d, float(np.max(d))
        violators = np.setdiff1d(np.flatnonzero(d > f_w), W)
        if not violators.size:
            break
        W = np.concatenate([W, violators[np.argsort(-d[violators], kind="stable")[:core]]])

    result = _assemble(A, best_x, lower, iterations, dists=best_d)
    if result.gap > opts.tol * max(1.0, result.radius):
        result = replace(result, flags=("not_converged",))
    return result


def _assemble(A, center, gap_lb, iterations, flags=(), dists=None) -> CenterResult:
    """The result at ``center``; ``dists`` are its distances to the points,
    when the caller already has them."""
    if dists is None:
        dists = A.norm.family.dist(A.points - center)
    radius = float(np.max(dists))  # outer_radius(A, center), bit for bit
    return CenterResult(
        center=center,
        radius=radius,
        achieving_indices=_achievers(dists, max(DEFAULT_ACHIEVER_TOL, 1e-12 * radius)),
        gap=max(radius - gap_lb, 0.0),
        iterations=int(iterations),
        flags=flags,
    )


def chebyshev_radius(A: PointSet, opts: SolverOptions | None = None) -> float:
    return chebyshev_center(A, opts).radius


# --- independent grid oracle -------------------------------------------------


def brute_force_center(
    A: PointSet,
    box: tuple,
    grid_per_axis: int = 21,
    refine_levels: int = 3,
) -> CenterResult:
    """Exhaustive grid minimization of r(x, A) with recursive refinement.

    Kept independent of the solver path: it never calls chebyshev_center and
    uses only the norm evaluator.  ``gap`` reports the Lipschitz error bound
    (constant 1 times the final cell diagonal, measured in the ambient norm).
    If the final argmin sits on the boundary of the original box the result
    carries a ``box_boundary`` flag: the box may not contain a minimizer.
    """
    if A.dim > 3:
        raise ValueError("brute-force oracle supports dim <= 3")
    if grid_per_axis < 3:
        raise ValueError("grid_per_axis must be >= 3")
    lo0 = as_vector(box[0], A.dim, "box lo")
    hi0 = as_vector(box[1], A.dim, "box hi")
    if np.any(hi0 <= lo0):
        raise ValueError("box must have positive extent")

    lo, hi = lo0.copy(), hi0.copy()
    evals = 0
    best_radius = np.inf
    best_x = None
    spacing = (hi - lo) / (grid_per_axis - 1)
    for _level in range(refine_levels):
        axes = [np.linspace(lo[d], hi[d], grid_per_axis) for d in range(A.dim)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, A.dim)
        rvals = np.full(len(grid), -np.inf)
        for a in A.points:
            rvals = np.maximum(rvals, A.norm.family.dist(grid - a))
        evals += len(grid)
        spacing = (hi - lo) / (grid_per_axis - 1)
        k = int(np.argmin(rvals))
        if float(rvals[k]) < best_radius:
            best_radius = float(rvals[k])
            best_x = grid[k]
        # The true minimizer (if inside the original box) lies within half a
        # cell of some grid point whose value is at most min + half-diagonal
        # (objective is 1-Lipschitz in the ambient norm), so the bounding box
        # of that sublevel set, padded by one cell, still contains it.  This
        # is robust to flat valleys, unlike refining around the argmin alone.
        half_diag = float(A.norm.family.dist(spacing / 2.0))
        keep = grid[rvals <= rvals[k] + half_diag + 1e-12]
        lo = np.maximum(keep.min(axis=0) - spacing, lo0)
        hi = np.minimum(keep.max(axis=0) + spacing, hi0)

    flags: tuple[str, ...] = ()
    if np.any(best_x <= lo0 + 0.5 * spacing) or np.any(best_x >= hi0 - 0.5 * spacing):
        flags = ("box_boundary",)

    result = _assemble(A, best_x, 0.0, evals, flags)
    cell_diag = float(A.norm.family.dist(spacing))
    return replace(result, gap=cell_diag)


# --- one-dimensional symmetric-line minimization -----------------------------


def symmetric_line_minimize(A: PointSet, direction) -> tuple[float, float]:
    """Minimize s -> r(s * direction, A) over the real line.

    The profile is convex (a max of convex functions of s), so this is the
    one-dimensional ellipsoid method: bisection on the sign of g . direction,
    with g a subgradient of the norm at s * direction minus a farthest point.
    The minimizer has |s| <= 2 max_a ||a|| / ||direction||, so the search
    starts just beyond that and stops once the bracket is below 1e-13 of it.
    Returns (s, r(s * direction, A)).
    """
    d = as_vector(direction, A.dim, "direction")
    if not np.any(d):
        raise ValueError("direction must be nonzero")
    dist, subgrad = A.norm.family.dist, A.norm.family.subgrad
    dn = float(dist(d))
    reach = (2.0 * float(dist(A.points).max()) + 1.0) / dn
    lo, hi = -reach, reach
    while hi - lo > 1e-13 * reach:
        s = (lo + hi) / 2.0
        diffs = s * d - A.points
        slope = float(subgrad(diffs[dist(diffs).argmax()]) @ d)
        if slope == 0.0:
            lo = hi = s
        elif slope > 0.0:
            hi = s
        else:
            lo = s
    s = (lo + hi) / 2.0
    return s, float(dist(s * d - A.points).max())
