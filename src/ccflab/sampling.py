"""Deterministic, replayable sampling utilities.

Streams are built on the counter-based Philox generator, keyed by an explicit
seed plus string/int tags, so every sampler in the library is bit-identical
across runs and independent of scheduling order.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .norms import NormSpec, as_vector, linf_lower_constant

__all__ = [
    "rng_stream",
    "sample_unit_vectors",
    "rejection_sample_two_balls",
]


def _fold_tags(*tags) -> int:
    h = hashlib.blake2b(digest_size=8)
    for t in tags:
        h.update(repr(t).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def rng_stream(seed: int, *tags) -> np.random.Generator:
    """A Philox-backed generator keyed by (seed, *tags)."""
    key = (int(seed) & (2**64 - 1), _fold_tags(*tags))
    return np.random.Generator(np.random.Philox(key=key))


def sample_unit_vectors(norm: NormSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Directions on the unit sphere of ``norm`` (box-sampled, then normalized)."""
    out = np.empty((count, norm.dim))
    have = 0
    while have < count:
        cand = rng.uniform(-1.0, 1.0, size=(2 * (count - have) + 8, norm.dim))
        lens = norm.family.dist(cand)
        keep = lens > 1e-6
        cand, lens = cand[keep], lens[keep]
        take = min(count - have, len(cand))
        out[have : have + take] = cand[:take] / lens[:take, None]
        have += take
    return out


def rejection_sample_two_balls(
    norm: NormSpec,
    c: np.ndarray,
    r: float,
    y: np.ndarray,
    R: float,
    proposals: int,
    rng: np.random.Generator,
):
    """Uniform sample of B[c, r] ∩ B[y, R] by box rejection.

    Returns (accepted points, accepted count, proposal count).  Proposals are
    drawn uniformly from the intersection of the two balls' bounding boxes
    (B[x, s] fits in x +- s / linf_lower_constant per coordinate), so
    accepted points are uniform on the intersection body.  When the boxes
    are disjoint, or ``proposals`` is 0, no row is accepted.
    """
    c, y = as_vector(c, norm.dim, "c"), as_vector(y, norm.dim, "y")
    a = linf_lower_constant(norm)
    lo = np.maximum(c - r / a, y - R / a)
    hi = np.minimum(c + r / a, y + R / a)
    cand = rng.uniform(size=(proposals, norm.dim)) * (hi - lo) + lo
    keep = (norm.family.dist(cand - c) <= r) & (norm.family.dist(cand - y) <= R)
    pts = cand[keep]
    return pts, int(pts.shape[0]), proposals
