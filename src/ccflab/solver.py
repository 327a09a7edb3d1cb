"""Chebyshev center and radius computation for finite point sets.

The objective F(x) = max_a ||x - a|| is convex but nonsmooth at ties.  Every
norm family takes one path: the deep-cut ellipsoid method (Bland, Goldfarb &
Todd, "The ellipsoid method: a survey", Oper. Res. 1981), run on a working
set W of the points.  Each iteration cuts the current ellipsoid, which still
holds every Chebyshev center of W, with a subgradient g of F_W at its center
x; the subgradient inequality then bounds r(W) <= r(A) from below by
F_W(x) - max_{y in E} g.(x - y).  A round stops once the best radius is
within 1e-12 * max(1, radius) of the best such bound, or when its budget runs
out.  Before its first cut it tries a multiplier certificate at its start
x0 (Rockafellar, *Convex Analysis*, 1970; Nemirovski, Onn & Rothblum,
"Accuracy certificates for computational problems with convex structure",
Math. Oper. Res. 2010): weights on the points tied for farthest whose
subgradients nearly cancel bound r(W) from below, so a start at a center,
such as the claimed center of a CCF witness, closes its round in 0
iterations.  The points of A that the round's center misses then join W (a
Badoiu-Clarkson core set), and rounds repeat until none remain.  While W
lacks some points, a round is screened first, as core-set schemes solve
their subproblems only roughly (Kumar, Mitchell & Yildirim, 2003): once its
gap is within 1e-3 * max(1, radius), a center that misses points ends the
round, and one that misses none lets the same ellipsoid go on to the stop.
So the iterations see only the few active points, and the whole sample is
read once per start and once or twice per round, in the layout
``PointSet`` stores it in.  The gap between the radius and the bound is the
certificate reported as ``CenterResult.gap``.

The ellipsoid is kept in factored form, P = L L^T, so it stays positive
definite however thin it gets.  In one dimension every norm is a multiple
of |x|, and the midpoint of the extreme points is the exact center.

An independent brute-force grid oracle (:func:`brute_force_center`) is kept
deliberately separate from the solver path so the two can cross-check each
other in tests.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .codec import Record
from .norms import _column_major, as_vector, linf_lower_constant
from .sets import DEFAULT_ACHIEVER_TOL, PointSet, _achievers

__all__ = [
    "CenterResult",
    "chebyshev_center",
    "chebyshev_radius",
    "brute_force_center",
    "symmetric_line_minimize",
]

# A round stops once its certified gap is below this share of max(1, radius).
_ROUND_RTOL = 1e-12
# A round whose working set lacks some points is screened at this share.
_SCREEN_RTOL = 1e-3
# Points farthest from the start that make up the first working set, and the
# most violators that join it per round, per dimension plus one.
_CORE_PER_DIM = 4
# Largest dimension chebyshev_center accepts.
_DIM_CAP = 64
# The result is converged when its certified gap is at most this share of
# max(1, radius).
_CONVERGED_RTOL = 1e-6

_log = logging.getLogger("ccflab")


def _check_solvable(dim: int, max_iters: int | None) -> None:
    """Reject what chebyshev_center cannot solve: a dimension above the cap or
    a budget below one iteration.  Callers that build large sets check first."""
    if dim > _DIM_CAP:
        raise ValueError(f"dimension {dim} exceeds solver cap {_DIM_CAP}")
    if max_iters is not None and max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")


@dataclass(frozen=True, eq=False)
class CenterResult(Record):
    """A center estimate with certificate data.

    ``radius`` is always the exact outer radius of the set at ``center``.
    ``gap`` is a certified upper bound on radius - r(A): radius minus the
    best lower bound on r(A) that the cuts or the start certificate proved.
    It is tight, at most 1e-12 * max(1, radius) unless the iteration budget
    ran out.
    ``iterations`` counts ellipsoid iterations over all working-set rounds.
    A gap above 1e-6 * max(1, radius) sets the ``not_converged`` flag, and
    ``converged`` is then False.
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


def _farthest_first(d: np.ndarray, k: int) -> np.ndarray:
    """np.argsort(-d, kind="stable")[:k] in O(len(d)): the indices of the k
    largest distances, largest first and ties in index order.

    Every index whose distance reaches the k-th largest is kept, in index
    order, so the stable sort of those few alone gives the same ranking.
    """
    k = min(k, len(d))
    kth = np.partition(d, len(d) - k)[len(d) - k]
    top = np.flatnonzero(d >= kth)
    return top[np.argsort(-d[top], kind="stable")[:k]]


def _centroid(pts: np.ndarray) -> np.ndarray:
    """The mean of the rows, adding them one after another as numpy's
    mean(axis=0) does for a row-major batch; on column-major points it
    would sum each column pairwise and change the start's bits."""
    return np.add.accumulate(pts)[-1] / len(pts)


def _start_bound(family, W: np.ndarray, x0: np.ndarray, d: np.ndarray, r0: float):
    """A lower bound on r(W) from multipliers at x0, or None.

    ``d`` holds the distances from x0 to the rows of W, f their max, and
    every Chebyshev center y of W lies within ``r0`` of x0 in the Euclidean
    norm.  The bound needs two or more tied points, those within
    _ROUND_RTOL * max(1, f) of f: a center has two active points at least,
    and only tied points can carry weight at a cost below the round's own
    tolerance.  On the tied rows a_i it takes g_i = subgrad(x0 - a_i) and
    weights lam >= 0 with sum 1 that make rho = sum lam_i g_i small: least
    squares on [G^T; 1] lam = [0; 1], dropping the most negative weight and
    refitting until none is negative.  Then, as ||g_i||_* <= 1,

        r(W) >= sum lam_i ||y - a_i|| >= sum lam_i g_i.(x0 - a_i) + rho.(y - x0)
             >= S - r0 ||rho||_2,    S = sum lam_i g_i.(x0 - a_i),

    and S = f, rho = 0 at a true center.  In floats the bound subtracts
    tau = 4 (n + m) eps (f + r0 sigma), m the weights kept and
    sigma = ||sum lam_i |g_i| ||_2 >= ||rho||_2.  Counted in units of eps/2
    at the scale f (S <= f up to rounding, and every g_i.v_i >= 0, as each
    kernel's g matches the signs of v), that covers 1 for the rounded
    differences v_i, n for the dot products, m for the sum over lam, m + 1
    for sum lam != 1 after normalizing and 2 for forming the bound, and
    leaves 7n + 6m - 4 >= 7n + 8 for the kernels' dual norm excess
    ||g_i||_* - 1.  That excess is 0 for l1 and linf, whose g_i are exact,
    and up to about 1.5 eps for l2; for lp it grows as about p eps / 2, so
    lp with p above about 7n outgrows the share, as it does the cuts' own
    bound.  At the scale r0 sigma: m for rho's rounding, n / 2 + 1 for its
    norm, n + 4 for r0 (f's own rounding and the formula) and 2 for forming
    the bound, again within 8 (n + m).

    Returns (bound, tied points, weights kept, ||rho||_2), or None when
    fewer than two points are tied.
    """
    f = float(d.max())
    tied = np.flatnonzero(d >= f - _ROUND_RTOL * max(1.0, f))
    if tied.size < 2:
        return None
    V = x0 - W[tied]
    G = np.array([family.subgrad(v) for v in V])
    keep = np.arange(tied.size)
    rhs = np.append(np.zeros(len(x0)), 1.0)
    while True:
        system = np.vstack([G[keep].T, np.ones(keep.size)])
        lam = np.linalg.lstsq(system, rhs, rcond=None)[0]
        if lam.min() >= 0.0:
            break
        keep = np.delete(keep, lam.argmin())
    lam = lam / lam.sum()
    G, V = G[keep], V[keep]
    rho_norm = float(np.linalg.norm(lam @ G))
    sigma = float(np.linalg.norm(lam @ np.abs(G)))
    tau = 4.0 * (len(x0) + keep.size) * np.finfo(float).eps * (f + r0 * sigma)
    return float(lam @ np.add.reduce(G * V, axis=-1) - r0 * rho_norm - tau), tied.size, keep.size, rho_norm


def _ellipsoid_round(A: PointSet, W: np.ndarray, x0: np.ndarray, max_iters: int, screen: bool):
    """Deep-cut ellipsoid method on F_W(x) = max_{a in W} ||x - a||.

    Starts from the Euclidean ball of radius r0 = 2 F_W(x0) sqrt(n) / a around
    x0 (a = linf_lower_constant), which holds every Chebyshev center c of W:
    ||c - x0|| <= r(W) + F_W(x0).  Before the first cut the round tries the
    start certificate of :func:`_start_bound`, and logs each one it forms
    as a DEBUG record of the ``ccflab`` logger; if that bound is within
    _ROUND_RTOL * max(1, F_W(x0)) of F_W(x0), the round yields x0, its
    value, the bound, 0 and True, and stops.  Otherwise it runs as if the
    certificate had not been tried.  At its stop the round yields the best
    point, its value, the best certified lower bound on r(W), the iterations
    (-inf and 0 on overflow) and True.  With ``screen`` it first yields the
    same with False, once the gap falls within _SCREEN_RTOL * max(1, value);
    resumed, it goes on with the same ellipsoid and the same ``max_iters``
    budget, so it runs exactly the iterations of an unscreened round.
    """
    n = A.dim
    dist, subgrad = A.norm.family.dist, A.norm.family.subgrad
    x = x0
    d0 = dist(W - x0)
    best_x, best_f = x0, float(d0.max())
    r0 = 2.0 * best_f * math.sqrt(n) / linf_lower_constant(A.norm)
    if not math.isfinite(r0):
        yield x0, best_f, -math.inf, 0, True
        return
    certificate = _start_bound(A.norm.family, W, x0, d0, r0)
    if certificate is not None:
        lb, ties, support, rho_norm = certificate
        closed = best_f - lb <= _ROUND_RTOL * max(1.0, best_f)
        _log.debug(
            "start certificate: %d tied points, %d weights, |rho| %.3g, lower bound %r, closed %s",
            ties, support, rho_norm, lb, closed,
        )
        if closed:
            yield x0, best_f, lb, 0, True
            return
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
        if screen and best_f - lower <= _SCREEN_RTOL * max(1.0, best_f):
            screen = False
            yield best_x, best_f, lower, k, False
        # Deep cut: every center y has g.(y - x) <= best_f - f = -alpha * width.
        alpha = (f - best_f) / width
        u = Lg / width
        Lu = L @ u
        x = x - (1.0 + n * alpha) / (n + 1.0) * Lu
        sigma = 2.0 * (1.0 + n * alpha) / ((n + 1.0) * (1.0 + alpha))
        scale = math.sqrt(n * n * (1.0 - alpha * alpha) / (n * n - 1.0))
        L = scale * (L - (1.0 - math.sqrt(1.0 - sigma)) * (Lu[:, None] * u))
    yield best_x, best_f, lower, k, True


def chebyshev_center(A: PointSet, max_iters: int | None = None, *, extra_starts=None) -> CenterResult:
    """Minimize x -> max_a ||x - a|| over the ambient space.

    The centroid and ``extra_starts`` (callers' structurally good candidates)
    compete as starting points, and stay candidates for the returned center,
    so the returned radius never exceeds any of theirs.  The result is
    deterministic for a given input.

    ``max_iters`` (at least 1) bounds the ellipsoid iterations of each
    working-set round, its screen included; None picks 1000 + 50 n^2 in
    dimension n, since the iterations a round needs grow as n^2.

    Non-convergence within the iteration budget is reported via the
    ``not_converged`` flag on the result, never by raising.  A start radius
    beyond the float range (not finite, or 0 between distinct points) raises
    ValueError, and a round whose lower bound overflowed certifies nothing.
    """
    _check_solvable(A.dim, max_iters)
    extra = [as_vector(s, A.dim, "start") for s in extra_starts or ()]
    pts = A.points
    distinct = A.nontrivial
    exact = A.dim == 1 or not distinct  # the midpoint of the extreme points is a center
    if exact:
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        starts = [(lo + hi) / 2.0]
    else:
        starts = [_centroid(pts)] + extra
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

    budget = 1000 + 50 * A.dim**2 if max_iters is None else max_iters
    core = _CORE_PER_DIM * (A.dim + 1)
    W = _farthest_first(best_d, core)
    lower = 0.0
    iterations = 0
    while True:
        # A screened center that misses points ends the round.  Only polished
        # centers compete for the result and start the next round, so a solve
        # of one round gives the bits of an unscreened one.
        for x, f_w, lb, its, polished in _ellipsoid_round(A, pts[W], best_x, budget, screen=len(W) < len(pts)):
            if np.isfinite(lb):  # a distance that overflowed to inf bounds nothing
                lower = max(lower, lb)
            d = A.norm.family.dist(pts - x)
            if polished and float(np.max(d)) < best_r:
                best_x, best_d, best_r = x, d, float(np.max(d))
            outside = d > f_w
            outside[W] = False
            violators = np.flatnonzero(outside)
            if violators.size:
                break
        iterations += its
        if not violators.size:
            break
        W = np.concatenate([W, violators[_farthest_first(d[violators], core)]])

    result = _assemble(A, best_x, lower, iterations, dists=best_d)
    if result.gap > _CONVERGED_RTOL * max(1.0, result.radius):
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


def chebyshev_radius(A: PointSet, max_iters: int | None = None) -> float:
    return chebyshev_center(A, max_iters).radius


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
    ``grid_per_axis`` must be at least 3 and ``refine_levels`` at least 1.
    """
    if A.dim > 3:
        raise ValueError("brute-force oracle supports dim <= 3")
    if grid_per_axis < 3:
        raise ValueError("grid_per_axis must be >= 3")
    if refine_levels < 1:
        raise ValueError("refine_levels must be >= 1")
    lo0 = as_vector(box[0], A.dim, "box lo")
    hi0 = as_vector(box[1], A.dim, "box hi")
    if np.any(hi0 <= lo0):
        raise ValueError("box must have positive extent")

    lo, hi = lo0, hi0
    evals = 0
    best_radius = np.inf
    best_x = None
    for _level in range(refine_levels):
        axes = [np.linspace(lo[d], hi[d], grid_per_axis) for d in range(A.dim)]
        grid = _column_major(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, A.dim))
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
    Returns (s, r(s * direction, A)).  A direction whose norm is 0 or not
    finite, or a start bracket that is not finite, raises ValueError.
    """
    d = as_vector(direction, A.dim, "direction")
    if not np.any(d):
        raise ValueError("direction must be nonzero")
    dist, subgrad = A.norm.family.dist, A.norm.family.subgrad
    dn = float(dist(d))
    reach = (2.0 * float(dist(A.points).max()) + 1.0) / dn if dn > 0.0 else math.inf
    if not (math.isfinite(dn) and math.isfinite(reach)):
        raise ValueError(
            f"the direction's norm is {dn} and the start bracket reaches {reach}: distances left the float range"
        )
    lo, hi = -reach, reach
    while hi - lo > 1e-13 * reach:
        s = (lo + hi) / 2.0
        diff = s * d - A.points
        slope = float(subgrad(diff[dist(diff).argmax()]) @ d)
        if slope == 0.0:
            lo = hi = s
        elif slope > 0.0:
            hi = s
        else:
            lo = s
    s = (lo + hi) / 2.0
    return s, float(dist(s * d - A.points).max())
