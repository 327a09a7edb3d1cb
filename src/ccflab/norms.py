"""Declarative norm families on R^n.

A norm is described by a :class:`NormSpec`: an ambient dimension plus one of a
closed set of families (p-norms, positive-weighted sums of child norms, the
sup-plus-weighted-l2 family, and weighted p-norms for discrete-measure Lp
spaces).  Because the enumeration is closed and fully declarative, every
downstream computation can be serialized, replayed and tested bit-identically;
no user-supplied callbacks are accepted.

Each family carries two unchecked kernels, chosen once when it is built:
``dist(x)``, the norm of every row of x, and ``subgrad(v)``, a subgradient at
v.  The public evaluators check their arguments, for callers outside ccflab;
its other modules call the kernels on arrays checked where they entered.  All
evaluators are pure functions of immutable values and safe to call concurrently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "INF",
    "PNorm",
    "SumComposite",
    "SupPlusWeightedL2",
    "WeightedPNorm",
    "NormSpec",
    "pnorm",
    "sum_composite",
    "sup_plus_weighted_l2",
    "weighted_pnorm",
    "eval_norm",
    "distance",
    "convexity_defect",
    "is_strictly_convex_family",
    "norm_subgradient",
    "linf_lower_constant",
    "norm_to_dict",
    "norm_from_dict",
]

INF = float("inf")


def _as_batch(x, dim: int, name: str = "x", ndim: int | None = None) -> np.ndarray:
    """``x`` as a float array of shape (..., dim) with finite entries, and
    with exactly ``ndim`` axes when that is given: the one array rule."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != dim or (ndim is not None and arr.ndim != ndim):
        rank = "an array" if ndim is None else f"a {ndim}-axis array"
        raise ValueError(f"{name} must be {rank} of dimension {dim}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_vector(x, dim: int, name: str = "x") -> np.ndarray:
    """``x`` as a finite float vector of length ``dim``."""
    return _as_batch(x, dim, name, ndim=1)


def json_scalar(kind: type, value):
    """``value`` as ``kind`` (int, float, str or bool) if it has that JSON type.

    A float takes any JSON number in the float range, integers included; an
    int any integer in the int64 range; a boolean only a bool.  Anything else
    raises ValueError rather than being coerced, or rounded to infinity.
    """
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
        raise ValueError(f"expected {kind.__name__}, got {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ValueError("expected float, got a number out of the finite float range")
    if kind is int and not -(2**63) <= value < 2**63:
        raise ValueError("expected int, got a number out of the int64 range")
    return kind(value)


def _positive_weights(weights, what: str) -> tuple[float, ...]:
    """The weights as floats; all must be finite and positive, and one at least."""
    w = tuple(float(v) for v in weights)
    if not w or any(not (v > 0.0) or not np.isfinite(v) for v in w):
        raise ValueError(f"{what} weights must all be positive")
    return w


def _zero_at_origin(kernel):
    """``kernel`` (of v, or of self and v) with 0 at v = 0, a subgradient of any norm there."""

    def subgrad(*args):
        return kernel(*args) if np.count_nonzero(args[-1]) else np.zeros_like(args[-1])

    return subgrad


# The norm kernels do numpy's float operations for np.linalg.norm, in the
# same order, so every result stays the same to the last bit.
def _l1_norm(x: np.ndarray):
    return np.add.reduce(np.abs(x), axis=-1)


def _l2_norm(x: np.ndarray):
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _sup_norm(x: np.ndarray):
    return np.abs(x).max(axis=-1)


def _sgn_vertex(v: np.ndarray) -> np.ndarray:
    # Extreme vertex of the sign box: zeros resolve deterministically to +1.
    return np.where(v >= 0.0, 1.0, -1.0)


def _l2_gradient(v: np.ndarray) -> np.ndarray:
    return v / math.sqrt(v.dot(v))


def _sup_subgradient(v: np.ndarray) -> np.ndarray:
    # The signed lowest argmax coordinate (+1 at zero).
    i = np.abs(v).argmax()
    g = np.zeros_like(v)
    g[i] = 1.0 if v[i] >= 0.0 else -1.0
    return g


@dataclass(frozen=True)
class PNorm:
    """The lp norm, for any real p >= 1 or infinity; p = 1, 2 and inf have kernels of their own."""

    p: float

    def __post_init__(self):
        p = float(self.p)
        if np.isnan(p) or p < 1.0:
            raise ValueError(f"p-norm requires p >= 1 or p = inf, got {self.p}")
        object.__setattr__(self, "p", p)
        dist, subgrad = {
            1.0: (_l1_norm, _sgn_vertex),
            2.0: (_l2_norm, _l2_gradient),
            INF: (_sup_norm, _sup_subgradient),
        }.get(p, (self._lp_norm, self._lp_subgradient))
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "subgrad", _zero_at_origin(subgrad))

    def __reduce__(self):  # the kernels are rebuilt from p
        return PNorm, (self.p,)

    def _lp_norm(self, x: np.ndarray):
        return np.add.reduce(np.abs(x) ** self.p, axis=-1) ** (1.0 / self.p)

    def _lp_subgradient(self, v: np.ndarray) -> np.ndarray:
        # Normalize first so |v|^(p-1) cannot overflow for large p.
        u = v / np.abs(v).max()
        return np.sign(u) * np.abs(u) ** (self.p - 1.0) / self._lp_norm(u) ** (self.p - 1.0)


@dataclass(frozen=True)
class SumComposite:
    """A positive-weighted sum of child norms sharing one ambient dimension."""

    terms: tuple[tuple[float, "NormSpec"], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("SumComposite needs at least one term")
        weights = _positive_weights((w for w, _ in self.terms), "composite")
        children = tuple(child for _, child in self.terms)
        if not all(isinstance(child, NormSpec) for child in children):
            raise TypeError("composite children must be NormSpec instances")
        object.__setattr__(self, "terms", tuple(zip(weights, children)))

    def dist(self, x: np.ndarray):
        return sum(w * child.family.dist(x) for w, child in self.terms)

    @_zero_at_origin
    def subgrad(self, v: np.ndarray) -> np.ndarray:
        return sum(w * child.family.subgrad(v) for w, child in self.terms)


@dataclass(frozen=True)
class SupPlusWeightedL2:
    """max_k |x_k| plus sqrt(sum_k w_k x_k^2), with strictly positive weights."""

    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", _positive_weights(self.weights, "sup-plus-weighted-l2"))
        object.__setattr__(self, "_w", np.array(self.weights))

    def dist(self, x: np.ndarray):
        return _sup_norm(x) + np.sqrt(np.sum(self._w * x * x, axis=-1))

    @_zero_at_origin
    def subgrad(self, v: np.ndarray) -> np.ndarray:
        g = _sup_subgradient(v)
        l2 = np.sqrt(np.sum(self._w * v * v))
        if l2 > 0.0:
            g = g + self._w * v / l2
        return g


@dataclass(frozen=True)
class WeightedPNorm:
    """(sum_k w_k |x_k|^p)^(1/p) for a finite discrete measure; 1 < p < inf."""

    p: float
    weights: tuple[float, ...]

    def __post_init__(self):
        p = float(self.p)
        if not (1.0 < p < INF):
            raise ValueError(f"weighted p-norm requires 1 < p < inf, got {self.p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "weights", _positive_weights(self.weights, "weighted p-norm"))
        object.__setattr__(self, "_w", np.array(self.weights))
        object.__setattr__(self, "_scale", self._w ** (1.0 / p))  # ||x|| = ||x * w^(1/p)||_p
        object.__setattr__(self, "_lp", PNorm(p).dist)

    def dist(self, x: np.ndarray):
        return self._lp(x * self._scale)

    @_zero_at_origin
    def subgrad(self, v: np.ndarray) -> np.ndarray:
        p, w = self.p, self._w
        u = v / np.abs(v).max()
        total = np.sum(w * np.abs(u) ** p) ** (1.0 / p)
        return w * np.sign(u) * np.abs(u) ** (p - 1.0) / total ** (p - 1.0)


Family = Union[PNorm, SumComposite, SupPlusWeightedL2, WeightedPNorm]


@dataclass(frozen=True)
class NormSpec:
    """A norm on R^dim, given by a family descriptor.

    Invariants are checked at construction: children of a composite share the
    ambient dimension and per-coordinate weight lists have exactly ``dim``
    entries.
    """

    dim: int
    family: Family

    def __post_init__(self):
        dim = int(self.dim)
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        object.__setattr__(self, "dim", dim)
        fam = self.family
        if isinstance(fam, SumComposite):
            for _, child in fam.terms:
                if child.dim != dim:
                    raise ValueError(
                        f"composite child dimension {child.dim} != ambient {dim}"
                    )
        elif isinstance(fam, (SupPlusWeightedL2, WeightedPNorm)):
            if len(fam.weights) != dim:
                raise ValueError(
                    f"need exactly {dim} weights, got {len(fam.weights)}"
                )
        elif not isinstance(fam, PNorm):
            raise TypeError(f"unknown norm family: {type(fam).__name__}")


def pnorm(dim: int, p: float) -> NormSpec:
    return NormSpec(dim, PNorm(p))


def sum_composite(dim: int, terms) -> NormSpec:
    return NormSpec(dim, SumComposite(tuple((w, c) for w, c in terms)))


def sup_plus_weighted_l2(weights) -> NormSpec:
    w = tuple(float(v) for v in weights)
    return NormSpec(len(w), SupPlusWeightedL2(w))


def weighted_pnorm(p: float, weights) -> NormSpec:
    w = tuple(float(v) for v in weights)
    return NormSpec(len(w), WeightedPNorm(p, w))


def eval_norm(norm: NormSpec, x):
    """Evaluate ``norm`` at ``x``.

    ``x`` may be a single vector of length ``norm.dim`` or a stacked array of
    shape (..., dim); the result is a float or an array of shape (...).
    """
    arr = _as_batch(x, norm.dim)
    out = norm.family.dist(arr)
    return float(out) if arr.ndim == 1 else out


def distance(norm: NormSpec, x, y):
    """The metric induced by ``norm``: eval_norm(norm, x - y)."""
    ax = _as_batch(x, norm.dim, "x")
    ay = _as_batch(y, norm.dim, "y")
    out = norm.family.dist(ax - ay)
    return float(out) if out.ndim == 0 else out


def convexity_defect(norm: NormSpec, u, v) -> float:
    """Triangle-inequality slack ||u|| + ||v|| - ||u+v|| for nonzero u, v.

    The defect is always >= 0; for strictly convex families it is strictly
    positive unless u is a positive multiple of v.
    """
    au = as_vector(u, norm.dim, "u")
    av = as_vector(v, norm.dim, "v")
    if not np.any(au) or not np.any(av):
        raise ValueError("convexity_defect requires nonzero vectors")
    dist = norm.family.dist
    return float(dist(au) + dist(av) - dist(au + av))


def is_strictly_convex_family(norm: NormSpec) -> bool:
    """Whether the unit sphere of ``norm`` contains no nontrivial segment.

    True for lp with 1 < p < inf, for weighted p-norms, for
    sup-plus-weighted-l2 (the weighted l2 part is strictly convex and
    injective), and for any composite containing a strictly convex child.
    False for l1 and linf.
    """
    fam = norm.family
    if isinstance(fam, PNorm):
        return 1.0 < fam.p < INF
    if isinstance(fam, SumComposite):
        return any(
            is_strictly_convex_family(child) for _, child in fam.terms
        )
    return True  # SupPlusWeightedL2, WeightedPNorm


def norm_subgradient(norm: NormSpec, v) -> np.ndarray:
    """A deterministic subgradient of ``norm`` at ``v``.

    For smooth points this is the gradient.  At nonsmooth points the selection
    is deterministic: the l1 subgradient takes the +1 vertex on zero
    coordinates, and linf / the sup part of sup-plus-weighted-l2 take the
    lowest argmax coordinate.  At v = 0 the zero vector is returned (a valid
    subgradient of any norm at the origin).
    """
    # Contiguous, as the kernels' rows are: a strided dot product rounds differently.
    return norm.family.subgrad(np.ascontiguousarray(as_vector(v, norm.dim, "v")))


def linf_lower_constant(norm: NormSpec) -> float:
    """A constant a > 0 with ||v|| >= a * ||v||_inf for all v.

    Used to build axis-aligned bounding boxes for norm balls: B[c, r] fits in
    the box c +- r/a per coordinate.
    """
    fam = norm.family
    if isinstance(fam, (PNorm, SupPlusWeightedL2)):
        return 1.0
    if isinstance(fam, SumComposite):
        return sum(w * linf_lower_constant(child) for w, child in fam.terms)
    return min(fam.weights) ** (1.0 / fam.p)  # WeightedPNorm


# --- JSON codec ------------------------------------------------------------
#
# Schema: {"dim": n, "family": F} with
#   F = {"pnorm": p}                      p a number or the string "inf"
#     | {"sum": [[w, spec], ...]}         spec a full NormSpec object
#     | {"sup_plus_wl2": [w_1, ..., w_n]}
#     | {"wlp": {"p": p, "weights": [...]}}


def _family_to_dict(fam: Family):
    if isinstance(fam, PNorm):
        return {"pnorm": "inf" if fam.p == INF else fam.p}
    if isinstance(fam, SumComposite):
        return {"sum": [[w, norm_to_dict(child)] for w, child in fam.terms]}
    if isinstance(fam, SupPlusWeightedL2):
        return {"sup_plus_wl2": list(fam.weights)}
    return {"wlp": {"p": fam.p, "weights": list(fam.weights)}}  # WeightedPNorm


def norm_to_dict(norm: NormSpec) -> dict:
    return {"dim": norm.dim, "family": _family_to_dict(norm.family)}


def _family_from_dict(obj) -> Family:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"malformed norm family object: {obj!r}")
    tag, payload = next(iter(obj.items()))
    if tag == "pnorm":
        return PNorm(INF if payload == "inf" else json_scalar(float, payload))
    if tag == "sum":
        return SumComposite(tuple((json_scalar(float, w), norm_from_dict(child)) for w, child in payload))
    if tag == "sup_plus_wl2":
        return SupPlusWeightedL2(tuple(json_scalar(float, v) for v in payload))
    if tag == "wlp":
        for key in ("p", "weights"):
            if not isinstance(payload, dict) or key not in payload:
                raise ValueError(f"wlp norm family is missing key {key!r}")
        return WeightedPNorm(
            json_scalar(float, payload["p"]), tuple(json_scalar(float, v) for v in payload["weights"])
        )
    raise ValueError(f"unknown norm family tag: {tag!r}")


def norm_from_dict(obj) -> NormSpec:
    if not isinstance(obj, dict) or "dim" not in obj or "family" not in obj:
        raise ValueError(f"malformed norm spec object: {obj!r}")
    return NormSpec(json_scalar(int, obj["dim"]), _family_from_dict(obj["family"]))
