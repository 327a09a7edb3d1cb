"""Deterministic, replayable sampling utilities.

Streams are built on the counter-based Philox generator, keyed by an explicit
seed plus string/int tags, so every sampler in the library is bit-identical
across runs and independent of scheduling order.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .norms import NormSpec, _column_major, linf_lower_constant

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


def rejection_sample_two_balls(body, proposals: int, rng: np.random.Generator):
    """Uniform sample of ``body``, the ``TwoBallSet`` B[c, r] ∩ B[y, R].

    Reads the body's norm, c, r, y and R as its construction checked them,
    and returns (accepted points, accepted count, proposal count), the points
    in the draw's ``_column_major`` layout.  Proposals are drawn uniformly
    from the intersection of the two balls' bounding boxes (B[x, s] fits in
    x +- s / linf_lower_constant per coordinate), so accepted points are
    uniform on the body.  When ``proposals`` is 0 no row is accepted.
    """
    norm, c, r, y, R = body.norm, body.c, body.r, body.y, body.R
    a = linf_lower_constant(norm)
    lo = np.maximum(c - r / a, y - R / a)
    hi = np.minimum(c + r / a, y + R / a)
    # Laid out once, then scaled in place: a ufunc mixing layouts costs more.
    cand = _column_major(rng.uniform(size=(proposals, norm.dim)))
    cand *= hi - lo
    cand += lo
    dist = norm.family.dist
    keep = (dist(cand - c) <= r) & (dist(cand - y) <= R)
    # cand[keep], kept in cand's layout: compress along the contiguous axis.
    if cand.flags.c_contiguous:
        pts = np.compress(keep, cand, axis=0)
    else:
        pts = np.compress(keep, cand.T, axis=1).T
    return pts, int(pts.shape[0]), proposals
