"""Finite point sets and their farthest-point / outer-radius primitives.

A :class:`PointSet` is an immutable, ordered list of vectors together with the
norm of its ambient space.  Because the sets are finite, every supremum in the
radius and diameter definitions is an exact maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import Record
from .norms import NormSpec, _as_batch, _column_major, as_vector

__all__ = [
    "DEFAULT_ACHIEVER_TOL",
    "PointSet",
    "FarthestQuery",
    "outer_radius",
    "farthest_set",
    "diameter",
    "is_centerable",
]

# All benchmark geometries have O(1) magnitudes, so achiever detection uses an
# absolute tolerance by default, as do the checks of the two-ball reduction.
DEFAULT_ACHIEVER_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PointSet(Record):
    """A nonempty, ordered, finite list of points with its ambient norm.

    Duplicate points are permitted and order is preserved; nontriviality
    (at least two *distinct* points) is exposed as a predicate rather than
    enforced, to keep ingestion forgiving.
    """

    norm: NormSpec
    points: np.ndarray

    def __post_init__(self):
        pts = _column_major(_as_batch(self.points, self.norm.dim, "points", ndim=2))
        if not len(pts):
            raise ValueError("points must hold at least one point")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.norm.dim

    @property
    def nontrivial(self) -> bool:
        """True iff the set has at least two distinct points, i.e. some coordinate varies."""
        return not np.array_equal(self.points.min(axis=0), self.points.max(axis=0))


@dataclass(frozen=True, eq=False)
class FarthestQuery(Record):
    """Result of a farthest-point query from a viewpoint.

    ``achievers`` indexes every point whose distance is within ``tolerance``
    of ``radius``; for a finite set it is never empty.
    """

    viewpoint: np.ndarray
    radius: float
    achievers: tuple[int, ...]
    tolerance: float


def outer_radius(A: PointSet, x) -> float:
    """max_a ||x - a|| over the (finite) set: the outer radius at x."""
    return float(np.max(A.norm.family.dist(A.points - as_vector(x, A.dim))))


def _achievers(dists: np.ndarray, tol: float) -> tuple[int, ...]:
    """The farthest points: the indices of the distances within ``tol`` of
    the largest.  farthest_set, the solver's achievers and witness
    verification all decide by this rule."""
    return tuple(int(i) for i in np.flatnonzero(dists >= np.max(dists) - tol))


def farthest_set(A: PointSet, x, tol: float = DEFAULT_ACHIEVER_TOL) -> FarthestQuery:
    """All indices achieving the outer radius at ``x`` up to ``tol``."""
    if not (tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol}")
    ax = as_vector(x, A.dim, "viewpoint")
    dists = A.norm.family.dist(A.points - ax)
    return FarthestQuery(ax, float(np.max(dists)), _achievers(dists, tol), tol)


def diameter(A: PointSet) -> float:
    """Exact maximum pairwise distance; 0.0 for singletons."""
    pts = A.points
    m = len(pts)
    if m == 1:
        return 0.0
    best = 0.0
    # Row-by-row keeps memory linear; sets here are small.
    for i in range(m - 1):
        d = A.norm.family.dist(pts[i + 1 :] - pts[i])
        best = max(best, float(np.max(d)))
    return best


def is_centerable(A: PointSet, radius: float, tol: float) -> bool:
    """Whether a certified Chebyshev radius equals half the diameter.

    ``radius`` is expected to come from the solver; this only compares it with
    diameter(A)/2 at tolerance ``tol``.
    """
    if radius < 0.0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    return abs(radius - diameter(A) / 2.0) <= tol

