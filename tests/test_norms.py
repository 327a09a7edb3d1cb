import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccflab import (
    INF,
    PointSet,
    convexity_defect,
    distance,
    eval_norm,
    is_strictly_convex_family,
    norm_from_dict,
    norm_subgradient,
    norm_to_dict,
    pnorm,
    sum_composite,
    sup_plus_weighted_l2,
    weighted_pnorm,
)
from ccflab.ccf import TwoBallSet
from ccflab.norms import NormSpec, PNorm, _column_major, linf_lower_constant
from ccflab.sampling import rejection_sample_two_balls, rng_stream


def ones_plus_half_l2(n):
    return sum_composite(n, [(1.0, pnorm(n, 1)), (0.5, pnorm(n, 2))])


def truncated_seq_norm(N):
    return sup_plus_weighted_l2(4.0 ** -np.arange(1, N + 1))


STRICT_FAMILIES = [
    pnorm(3, 1.5),
    pnorm(3, 2),
    pnorm(3, 3),
    ones_plus_half_l2(3),
    truncated_seq_norm(3),
    weighted_pnorm(3.0, (2.0, 0.5, 1.0)),
]

NONSTRICT_FAMILIES = [pnorm(2, 1), pnorm(2, INF)]


class TestEvalNorm:
    def test_l1_plus_half_l2_unit_vector(self):
        # closed form: 1 + 0.5 * 1
        assert eval_norm(ones_plus_half_l2(3), [1, 0, 0]) == pytest.approx(1.5, abs=1e-15)

    def test_zero_vector_any_family(self):
        for spec in STRICT_FAMILIES + NONSTRICT_FAMILIES:
            assert eval_norm(spec, np.zeros(spec.dim)) == 0.0

    def test_l1_plus_half_l2_all_ones(self):
        want = 3.0 + np.sqrt(3.0) / 2.0
        assert eval_norm(ones_plus_half_l2(3), [1, 1, 1]) == pytest.approx(want, abs=1e-14)

    def test_batch_shape(self):
        spec = pnorm(2, 3)
        out = eval_norm(spec, np.ones((5, 4, 2)))
        assert out.shape == (5, 4)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            eval_norm(pnorm(3, 2), [1.0, 2.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            eval_norm(pnorm(2, 2), [np.nan, 0.0])


class TestDistance:
    def test_two_unit_coordinates(self):
        for p in (1.0, 1.5, 2.0, 4.0):
            d = distance(pnorm(3, p), [1, 0, 0], [0, 1, 0])
            assert d == pytest.approx(2.0 ** (1.0 / p), abs=1e-14)

    def test_l1_plus_half_l2_ones_to_e1(self):
        want = 2.0 + np.sqrt(2.0) / 2.0
        assert distance(ones_plus_half_l2(3), [1, 1, 1], [1, 0, 0]) == pytest.approx(want, abs=1e-14)

    def test_truncated_seq_norm_e1_to_xn(self):
        # ||e_1 - x_n|| = (1 - 1/n)(1 + sqrt(1/4 + 4^-n)) for x_n = e_1/n + (1-1/n) e_n
        N = 8
        spec = truncated_seq_norm(N)
        for n in (2, 5, 8):
            e1 = np.zeros(N)
            e1[0] = 1.0
            xn = np.zeros(N)
            xn[0] = 1.0 / n
            xn[n - 1] = 1.0 - 1.0 / n
            want = (1.0 - 1.0 / n) * (1.0 + np.sqrt(0.25 + 4.0 ** -float(n)))
            assert distance(spec, e1, xn) == pytest.approx(want, abs=1e-14)

    def test_symmetric(self):
        rng = rng_stream(3, "dist-sym")
        for spec in STRICT_FAMILIES:
            x = rng.normal(size=spec.dim)
            y = rng.normal(size=spec.dim)
            assert distance(spec, x, y) == pytest.approx(distance(spec, y, x), rel=1e-15)


class TestConvexityDefect:
    def test_collinear_same_direction_is_zero(self):
        assert convexity_defect(pnorm(2, 2), [1, 0], [2, 0]) == pytest.approx(0.0, abs=1e-15)

    def test_l1_face_is_exactly_zero(self):
        assert convexity_defect(pnorm(2, 1), [1, 0], [0, 1]) == 0.0

    def test_euclidean_orthogonal_pair(self):
        # direct arithmetic: 1 + 1 - sqrt(2)
        assert convexity_defect(pnorm(2, 2), [1, 0], [0, 1]) == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            convexity_defect(pnorm(2, 2), [0, 0], [1, 0])


class TestStrictConvexityFlag:
    def test_polyhedral_families_not_strict(self):
        assert not is_strictly_convex_family(pnorm(2, 1))
        assert not is_strictly_convex_family(pnorm(2, INF))

    def test_l1_plus_half_l2_is_strict(self):
        assert is_strictly_convex_family(ones_plus_half_l2(3))

    def test_sup_plus_weighted_l2_is_strict(self):
        assert is_strictly_convex_family(truncated_seq_norm(5))

    def test_lp_strict_iff_interior_exponent(self):
        assert is_strictly_convex_family(pnorm(2, 1.01))
        assert is_strictly_convex_family(pnorm(2, 50))
        assert is_strictly_convex_family(weighted_pnorm(2.0, (1.0, 2.0)))


class TestNormAxiomsSampled:
    """Sampled axiom checks at the contract tolerances."""

    @pytest.mark.parametrize("spec", STRICT_FAMILIES + NONSTRICT_FAMILIES, ids=str)
    def test_homogeneity_and_triangle(self, spec):
        rng = rng_stream(11, "axioms", str(spec))
        xs = rng.normal(size=(200, spec.dim))
        ys = rng.normal(size=(200, spec.dim))
        lams = rng.uniform(-3.0, 3.0, size=200)
        nx = np.atleast_1d(eval_norm(spec, xs))
        ny = np.atleast_1d(eval_norm(spec, ys))
        nlx = np.atleast_1d(eval_norm(spec, lams[:, None] * xs))
        assert np.all(np.abs(nlx - np.abs(lams) * nx) <= 1e-12 * (1.0 + nx))
        nsum = np.atleast_1d(eval_norm(spec, xs + ys))
        assert np.all(nsum <= nx + ny + 1e-12)

    @pytest.mark.parametrize("spec", STRICT_FAMILIES + NONSTRICT_FAMILIES, ids=str)
    def test_separation(self, spec):
        assert eval_norm(spec, np.zeros(spec.dim)) == 0.0
        rng = rng_stream(12, "separation", str(spec))
        for _ in range(50):
            x = rng.normal(size=spec.dim)
            if np.any(x != 0.0):
                assert eval_norm(spec, x) > 0.0

    @pytest.mark.parametrize("spec", STRICT_FAMILIES, ids=str)
    def test_strict_convexity_witness_thousand_pairs(self, spec):
        # non-collinear unit pairs must show a strictly positive defect
        rng = rng_stream(13, "strict", str(spec))
        count = 0
        while count < 1000:
            u = rng.normal(size=spec.dim)
            v = rng.normal(size=spec.dim)
            nu, nv = eval_norm(spec, u), eval_norm(spec, v)
            if nu < 1e-9 or nv < 1e-9:
                continue
            u, v = u / nu, v / nv
            if float(np.linalg.norm(u - v)) < 0.25:
                continue
            assert convexity_defect(spec, u, v) > 1e-14
            count += 1

    @pytest.mark.parametrize("spec", NONSTRICT_FAMILIES, ids=str)
    def test_polyhedral_face_pair_defect_exactly_zero(self, spec):
        # dyadic face points make the defect representable exactly
        if spec.family.p == 1.0:
            pairs = [([0.5, 0.5], [0.25, 0.75]), ([0.75, 0.25], [0.5, 0.5])]
        else:
            pairs = [([1.0, 0.5], [1.0, -0.25]), ([1.0, 0.0], [1.0, 0.75])]
        found = any(convexity_defect(spec, u, v) == 0.0 for u, v in pairs)
        assert found


@settings(max_examples=100, deadline=None)
@given(
    coords=st.lists(st.floats(-50, 50, allow_nan=False), min_size=3, max_size=3),
    lam=st.floats(-20, 20, allow_nan=False),
)
def test_homogeneity_property(coords, lam):
    spec = pnorm(3, 3)
    x = np.asarray(coords)
    nx = eval_norm(spec, x)
    assert eval_norm(spec, lam * x) == pytest.approx(abs(lam) * nx, abs=1e-12 * (1.0 + nx) * (1 + abs(lam)))


@settings(max_examples=100, deadline=None)
@given(
    xs=st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=2),
    ys=st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=2),
)
def test_triangle_inequality_property(xs, ys):
    spec = sup_plus_weighted_l2((0.25, 0.0625))
    x, y = np.asarray(xs), np.asarray(ys)
    assert eval_norm(spec, x + y) <= eval_norm(spec, x) + eval_norm(spec, y) + 1e-9


class TestSubgradient:
    @pytest.mark.parametrize("spec", STRICT_FAMILIES + NONSTRICT_FAMILIES, ids=str)
    def test_subgradient_inequality(self, spec):
        # g in the subdifferential at v means ||w|| >= ||v|| + <g, w - v>
        rng = rng_stream(17, "subgrad", str(spec))
        for _ in range(100):
            v = rng.normal(size=spec.dim)
            if float(np.linalg.norm(v)) < 1e-9:
                continue
            g = norm_subgradient(spec, v)
            for _ in range(5):
                w = rng.normal(size=spec.dim)
                lhs = eval_norm(spec, w)
                rhs = eval_norm(spec, v) + float(np.dot(g, w - v))
                assert lhs >= rhs - 1e-9

    @pytest.mark.parametrize(
        "spec", STRICT_FAMILIES + NONSTRICT_FAMILIES + [sum_composite(3, [(2.0, ones_plus_half_l2(3))])], ids=str
    )
    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=repr)
    def test_zero_point_returns_zero(self, spec, zero):
        v = np.full(spec.dim, zero)
        for g in (norm_subgradient(spec, v), spec.family.subgrad(v)):
            assert g.shape == (spec.dim,) and np.all(g == 0.0)


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def pinning_batch():
    """40 rows in R^4 of mixed magnitudes, a zero row and a row with a tie and a zero."""
    rng = rng_stream(23, "pinned")
    X = rng.normal(size=(40, 4)) * 10.0 ** rng.integers(-3, 4, size=(40, 1))
    X[0] = 0.0
    X[1] = [0.5, -0.5, 0.0, 0.25]
    return X


class TestFloatOperationsPinned:
    """The evaluators and subgradients do the same float operations, in the
    same order, as the reference formulas written here, bit for bit: the
    solver's iterates and every golden depend on the last bit."""

    WEIGHTS = (2.0, 0.5, 1.0, 3.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
    def test_pnorm_matches_numpy(self, p):
        X = pinning_batch()
        same_bits(eval_norm(pnorm(4, p), X), np.linalg.norm(X, ord=p, axis=-1))
        same_bits(eval_norm(pnorm(4, p), X.reshape(4, 10, 4)), np.linalg.norm(X.reshape(4, 10, 4), ord=p, axis=-1))
        for x in X[:6]:
            same_bits(eval_norm(pnorm(4, p), x), np.linalg.norm(x, ord=p, axis=-1))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_weighted_pnorm_matches_numpy(self, p):
        X = pinning_batch()
        w = np.asarray(self.WEIGHTS)
        spec = weighted_pnorm(p, self.WEIGHTS)
        same_bits(eval_norm(spec, X), np.linalg.norm(X * w ** (1.0 / p), ord=p, axis=-1))
        for x in X[:6]:
            same_bits(eval_norm(spec, x), np.linalg.norm(x * w ** (1.0 / p), ord=p, axis=-1))

    def test_sup_plus_weighted_l2_and_sum(self):
        X = pinning_batch()
        w = np.asarray(self.WEIGHTS)
        want = np.max(np.abs(X), axis=-1) + np.sqrt(np.sum(w * X * X, axis=-1))
        same_bits(eval_norm(sup_plus_weighted_l2(self.WEIGHTS), X), want)
        want = np.zeros(len(X)) + 1.0 * np.linalg.norm(X, ord=1, axis=-1)
        want = want + 0.5 * np.linalg.norm(X, ord=2, axis=-1)
        same_bits(eval_norm(ones_plus_half_l2(4), X), want)

    @staticmethod
    def reference_subgradient(kind, v, p=None, w=None):
        if not np.any(v):
            return np.zeros_like(v)
        if kind == "sup":
            i = int(np.argmax(np.abs(v)))
            g = np.zeros_like(v)
            g[i] = 1.0 if v[i] >= 0.0 else -1.0
            return g
        if kind == "l1":
            return np.where(v >= 0.0, 1.0, -1.0)
        if kind == "l2":
            return v / np.linalg.norm(v)
        u = v / np.max(np.abs(v))
        if kind == "lp":
            return np.sign(u) * np.abs(u) ** (p - 1.0) / np.linalg.norm(u, ord=p) ** (p - 1.0)
        total = np.sum(w * np.abs(u) ** p) ** (1.0 / p)  # weighted p-norm
        return w * np.sign(u) * np.abs(u) ** (p - 1.0) / total ** (p - 1.0)

    def test_subgradients_match_reference_formulas(self):
        w = np.asarray(self.WEIGHTS)
        ref = self.reference_subgradient
        for v in pinning_batch():
            same_bits(norm_subgradient(pnorm(4, 1), v), ref("l1", v))
            same_bits(norm_subgradient(pnorm(4, INF), v), ref("sup", v))
            same_bits(norm_subgradient(pnorm(4, 2), v), ref("l2", v))
            for p in (1.5, 3.0, 100.0):
                same_bits(norm_subgradient(pnorm(4, p), v), ref("lp", v, p))
                same_bits(norm_subgradient(weighted_pnorm(p, self.WEIGHTS), v), ref("wlp", v, p, w))
            want = ref("sup", v)
            l2 = np.sqrt(np.sum(w * v * v))
            if l2 > 0.0:
                want = want + w * v / l2
            same_bits(norm_subgradient(sup_plus_weighted_l2(self.WEIGHTS), v), want)
            want = np.zeros_like(v) + 1.0 * ref("l1", v) + 0.5 * ref("l2", v) if np.any(v) else np.zeros_like(v)
            same_bits(norm_subgradient(ones_plus_half_l2(4), v), want)

    def test_strided_vector_subgradient(self):
        # The columns of a batch are strided vectors; numpy's vector norm
        # dots a contiguous copy, and a strided dot product rounds differently.
        M = pinning_batch().reshape(10, 4, 4)
        for block in M:
            for v in block.T:
                same_bits(pnorm(4, 2).family.subgrad(v), self.reference_subgradient("l2", v))

    @pytest.mark.parametrize("n", [2, 4, 7, 10])
    def test_subgradients_take_strided_rows(self, n):
        """Every family's ``subgrad`` gives a row of a column-major batch the
        bits it gives the row's contiguous copy."""
        rng = rng_stream(37, "strided", n)
        F = np.asfortranarray(rng.normal(size=(1000, n)) * np.exp(rng.uniform(-5.0, 5.0, size=(1000, n))))
        F[0] = 0.0
        F[1] = -0.0
        assert not F[2].flags.c_contiguous
        w = np.linspace(0.5, 3.0, n)
        specs = [pnorm(n, p) for p in (1.0, 1.5, 2.0, 3.0, INF)]
        specs += [ones_plus_half_l2(n), sup_plus_weighted_l2(w), weighted_pnorm(3.0, w)]
        specs.append(sum_composite(n, [(2.0, ones_plus_half_l2(n)), (1.0, pnorm(n, 3))]))
        for spec in specs:
            for v in F:
                same_bits(spec.family.subgrad(v), spec.family.subgrad(v.copy()))


def layout_batch(n):
    """768 rows in R^n, entries from about 1e-152 to 1e152: a zero row, a
    -0.0 row and a row of mixed-sign zeros and values first."""
    rng = rng_stream(29, "row-rule", n)
    rows = 768
    X = rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-150, 151, size=(rows, 1))
    X *= 10.0 ** rng.integers(-2, 3, size=X.shape)
    X[0] = 0.0
    X[1] = -0.0
    X[2, ::2] = -0.0
    return X


class TestLayoutRule:
    """Point sets and samples of 2-7 columns are stored column-major, wider
    ones row-major.  Below 8 columns every family's kernel gives the bits of
    np.linalg.norm on the row-major batch (or of TestFloatOperationsPinned's
    formulas) in either layout; from 8 numpy sums the row-major batch
    pairwise, and the stored layout is row-major.  Dims 8 and 9 are there."""

    @staticmethod
    def families(n):
        w = np.linspace(0.5, 3.0, n)
        cases = [
            (pnorm(n, p), lambda X, p=p: np.linalg.norm(X, ord=p, axis=-1)) for p in (1.0, 1.5, 2.0, 3.0, INF)
        ]
        cases += [
            (weighted_pnorm(p, w), lambda X, p=p: np.linalg.norm(X * w ** (1.0 / p), ord=p, axis=-1))
            for p in (1.5, 2.0, 3.0)
        ]
        cases.append(
            (sup_plus_weighted_l2(w), lambda X: np.max(np.abs(X), axis=-1) + np.sqrt(np.sum(w * X * X, axis=-1)))
        )
        cases.append((
            ones_plus_half_l2(n),
            lambda X: np.zeros(X.shape[:-1]) + 1.0 * np.linalg.norm(X, ord=1, axis=-1)
            + 0.5 * np.linalg.norm(X, ord=2, axis=-1),
        ))
        return cases

    @staticmethod
    def batches(n):
        """Short and long, each as 2 and 3 axes, and column-sliced."""
        X = layout_batch(n)
        short = X[:9]
        wide = np.concatenate([X, X[:, :1]], axis=1)
        for batch in (short, X):
            yield batch
            yield batch.reshape(3, -1, n)
            yield wide[: len(batch), 1:]
        yield from X[:6]

    @pytest.mark.parametrize("n", range(1, 10))
    def test_points_and_samples_are_stored_column_major_below_eight(self, n):
        norm = pnorm(n, 2)
        points = PointSet(norm, layout_batch(n)).points
        body = TwoBallSet(c=np.zeros(n), r=1.0, y=np.full(n, 0.1), R=1.0, norm=norm)
        raw, accepted, _ = rejection_sample_two_balls(body, 20000, rng_stream(0, "layout", n))
        assert accepted > 2 * n
        # The raw sample, as the sampler returns it, and the body's sample set.
        for stored in (points, raw, body.sample(20000)[0].points):
            assert stored.flags.f_contiguous == (n < 8) and stored.flags.c_contiguous == (n == 1 or n >= 8)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_dist_matches_numpy(self, n):
        for spec, want in self.families(n):
            for batch in self.batches(n):
                layouts = [batch, _column_major(batch)] + [np.asfortranarray(batch)] * (n < 8)
                with np.errstate(over="ignore"):  # |x|^3 of 1e152 is inf on both sides
                    for laid in layouts:
                        same_bits(eval_norm(spec, laid), want(batch))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_sample_matches_row_major_broadcast(self, n):
        """The sampler's laid-out draw, scaled and shifted in place, gives the
        rows and bits of row-major broadcasting and ``cand[keep]``."""
        c, y = np.zeros(n), np.linspace(0.05, 0.4, n)
        mixed = 0
        for spec, _ in self.families(n):
            R = max(1.0, float(eval_norm(spec, y)))  # c in B[y, R]: a valid body
            body = TwoBallSet(c=c, r=1.0, y=y, R=R, norm=spec)
            got, accepted, proposed = rejection_sample_two_balls(body, 5000, rng_stream(31, "bc", n))
            a = linf_lower_constant(spec)
            lo, hi = np.maximum(c - 1.0 / a, y - R / a), np.minimum(c + 1.0 / a, y + R / a)
            cand = rng_stream(31, "bc", n).uniform(size=(5000, n)) * (hi - lo) + lo
            keep = (eval_norm(spec, cand - c) <= 1.0) & (eval_norm(spec, cand - y) <= R)
            same_bits(got, cand[keep])
            assert (accepted, proposed) == (int(keep.sum()), 5000)
            mixed += 0 < accepted < proposed
        assert mixed


class TestSpecValidation:
    def test_pnorm_below_one_rejected(self):
        with pytest.raises(ValueError):
            pnorm(2, 0.5)

    def test_composite_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sum_composite(3, [(1.0, pnorm(2, 2))])

    def test_composite_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            sum_composite(2, [(0.0, pnorm(2, 2))])

    def test_weight_count_must_match_dim(self):
        with pytest.raises(ValueError):
            NormSpec(3, sup_plus_weighted_l2([1.0, 1.0]).family)

    def test_weighted_pnorm_requires_interior_p(self):
        with pytest.raises(ValueError):
            weighted_pnorm(1.0, (1.0, 1.0))

    def test_composite_child_must_be_a_spec(self):
        with pytest.raises(TypeError, match="composite children must be NormSpec instances"):
            sum_composite(2, [(1.0, PNorm(2.0))])

    def test_unknown_family_object_rejected(self):
        with pytest.raises(TypeError, match="unknown norm family: str"):
            NormSpec(2, "l2")


class TestJsonCodec:
    @pytest.mark.parametrize(
        "spec",
        [
            pnorm(3, 2),
            pnorm(2, INF),
            pnorm(4, 1.5),
            ones_plus_half_l2(3),
            truncated_seq_norm(4),
            weighted_pnorm(3.0, (2.0, 0.5, 1.0, 3.0)),
        ],
        ids=str,
    )
    def test_round_trip(self, spec):
        assert norm_from_dict(norm_to_dict(spec)) == spec

    @pytest.mark.parametrize(
        "spec",
        [pnorm(2, p) for p in (1, 2, 3, INF)] + [ones_plus_half_l2(3), truncated_seq_norm(3), weighted_pnorm(3.0, (2.0, 0.5))],
        ids=str,
    )
    def test_pickle_round_trip_keeps_the_kernels(self, spec):
        # A family's kernels are chosen when it is built; a copy builds its own.
        copy = pickle.loads(pickle.dumps(spec))
        v = np.arange(1.0, spec.dim + 1.0)
        assert copy == spec
        assert eval_norm(copy, v) == eval_norm(spec, v)
        assert np.array_equal(norm_subgradient(copy, v), norm_subgradient(spec, v))

    def test_inf_encoded_as_string(self):
        assert norm_to_dict(pnorm(2, INF))["family"]["pnorm"] == "inf"

    def test_unknown_family_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown norm family"):
            norm_from_dict({"dim": 2, "family": {"mystery": 1}})

    @pytest.mark.parametrize("payload, missing", [({"weights": [1.0, 2.0]}, "p"), ({"p": 3}, "weights"), (3, "p")])
    def test_wlp_missing_key_named(self, payload, missing):
        with pytest.raises(ValueError, match=f"missing key '{missing}'"):
            norm_from_dict({"dim": 2, "family": {"wlp": payload}})


    # Integers count as numbers; booleans and strings do not, and a
    # dimension must be an integer.
    @pytest.mark.parametrize("obj", [
        {"dim": 2.5, "family": {"pnorm": 2}},
        {"dim": "2", "family": {"pnorm": 2}},
        {"dim": True, "family": {"pnorm": 2}},
        {"dim": 2, "family": {"pnorm": True}},
        {"dim": 2, "family": {"pnorm": "2"}},
        {"dim": 2, "family": {"sum": [["1", {"dim": 2, "family": {"pnorm": 1}}]]}},
        {"dim": 2, "family": {"sup_plus_wl2": [1.0, False]}},
        {"dim": 2, "family": {"wlp": {"p": "3", "weights": [1.0, 2.0]}}},
    ], ids=json.dumps)
    def test_wrong_typed_scalar_rejected(self, obj):
        with pytest.raises(ValueError, match="expected (int|float), got"):
            norm_from_dict(obj)

    def test_integer_exponent_and_inf_string_accepted(self):
        assert norm_from_dict({"dim": 2, "family": {"pnorm": 2}}) == pnorm(2, 2.0)
        assert norm_from_dict({"dim": 2, "family": {"pnorm": "inf"}}) == pnorm(2, INF)


def test_linf_lower_constant_bounds_hold():
    rng = rng_stream(23, "linf-const")
    for spec in STRICT_FAMILIES + NONSTRICT_FAMILIES:
        a = linf_lower_constant(spec)
        xs = rng.normal(size=(200, spec.dim))
        norms = np.atleast_1d(eval_norm(spec, xs))
        assert np.all(norms >= a * np.max(np.abs(xs), axis=-1) - 1e-12)
