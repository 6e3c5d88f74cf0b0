"""Kernel evaluation, bandwidth selection and centering vs. explicit oracles."""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import condinv as ci
from condinv.kernel import (
    CenteringStats,
    KernelError,
    center_cross_from_stats,
    centered_cross_gram,
    centered_gram,
)
from condinv.solver import centered_cross_kernel
import oracles


class TestKernelSpec:
    def test_defaults(self):
        spec = ci.KernelSpec()
        assert spec.family == "rbf"
        assert not spec.resolved

    def test_rejects_unknown_family(self):
        with pytest.raises(KernelError, match="family"):
            ci.KernelSpec(family="poly")

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(KernelError):
            ci.KernelSpec(bandwidth=0.0)
        with pytest.raises(KernelError):
            ci.KernelSpec(bandwidth=-1.0)
        with pytest.raises(KernelError):
            ci.KernelSpec(bandwidth="huge")

    @pytest.mark.parametrize("bandwidth", [np.inf, float("nan"), True, False])
    def test_rejects_non_finite_and_bool_bandwidth(self, bandwidth):
        with pytest.raises(KernelError, match="positive finite number"):
            ci.KernelSpec(bandwidth=bandwidth)

    @pytest.mark.parametrize("bandwidth", [1e155, 1e300, 1e-163, 5e-324])
    def test_rejects_bandwidth_whose_square_over_or_underflows(self, bandwidth):
        # gram divides by 2 * bandwidth^2, which would be inf or 0
        with pytest.raises(KernelError, match="positive finite number"):
            ci.KernelSpec(bandwidth=bandwidth)

    def test_accepts_bandwidths_near_the_limits(self):
        assert ci.KernelSpec(bandwidth=1e150).resolved and ci.KernelSpec(bandwidth=1e-150).resolved

    def test_resolved_flag(self):
        assert ci.KernelSpec(bandwidth=2.0).resolved
        assert not ci.KernelSpec(bandwidth="median").resolved


class TestGram:
    def test_rbf_matches_elementwise(self, rng):
        a = rng.normal(size=(7, 3))
        b = rng.normal(size=(5, 3))
        K = ci.gram(a, b, ci.KernelSpec(bandwidth=1.3))
        assert np.allclose(K, oracles.rbf_elementwise(a, b, 1.3), atol=1e-14)

    def test_rbf_diagonal_is_one(self, rng):
        a = rng.normal(size=(6, 2))
        K = ci.gram(a, a, ci.KernelSpec(bandwidth=0.7))
        assert np.allclose(np.diag(K), 1.0)
        assert np.allclose(K, K.T)
        assert K.max() <= 1.0 + 1e-15

    def test_linear_is_inner_product(self, rng):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(6, 3))
        K = ci.gram(a, b, ci.KernelSpec(family="linear", bandwidth=1.0))
        assert np.allclose(K, a @ b.T)

    def test_unresolved_bandwidth_rejected(self, rng):
        a = rng.normal(size=(4, 2))
        with pytest.raises(KernelError, match="unresolved"):
            ci.gram(a, a, ci.KernelSpec())

    def test_dimension_mismatch(self, rng):
        with pytest.raises(KernelError, match="dimensions"):
            ci.gram(rng.normal(size=(3, 2)), rng.normal(size=(3, 4)), ci.KernelSpec(bandwidth=1.0))


class TestMedianBandwidth:
    def test_matches_exhaustive_oracle(self, rng):
        x = rng.normal(size=(25, 4))
        assert ci.median_bandwidth(x) == pytest.approx(oracles.median_pairwise(x), rel=1e-12)

    def test_subsample_is_deterministic(self, rng):
        x = rng.normal(size=(1500, 3))
        a = ci.median_bandwidth(x, max_points=200)
        b = ci.median_bandwidth(x, max_points=200)
        assert a == b

    def test_identical_points_rejected(self):
        x = np.ones((5, 2))
        with pytest.raises(KernelError, match="identical"):
            ci.median_bandwidth(x)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_features_rejected(self, rng, bad):
        x = rng.normal(size=(6, 2))
        x[3, 1] = bad
        with pytest.raises(KernelError, match="finite features"):
            ci.median_bandwidth(x)

    @pytest.mark.parametrize("max_points", [0, 1, -3])
    def test_needs_two_max_points(self, rng, max_points):
        with pytest.raises(KernelError, match="max_points >= 2"):
            ci.median_bandwidth(rng.normal(size=(6, 2)), max_points=max_points)

    def test_needs_two_samples(self):
        with pytest.raises(KernelError, match="2 samples"):
            ci.median_bandwidth(np.ones((1, 3)))

    def test_resolve_bandwidth(self, rng):
        x = rng.normal(size=(10, 2))
        spec = ci.resolve_bandwidth(ci.KernelSpec(), x)
        assert spec.resolved
        assert spec.bandwidth == pytest.approx(oracles.median_pairwise(x), rel=1e-12)
        fixed = ci.KernelSpec(bandwidth=3.0)
        assert ci.resolve_bandwidth(fixed, x) is fixed


class TestCenterTrain:
    def test_matches_materialized_oracle(self, rng):
        x = rng.normal(size=(9, 3))
        K = ci.gram(x, x, ci.KernelSpec(bandwidth=1.1))
        assert np.allclose(ci.center_train(K), oracles.center_square(K), atol=1e-12)

    def test_rows_and_columns_sum_to_zero(self, rng):
        x = rng.normal(size=(12, 2))
        Kc = ci.center_train(ci.gram(x, x, ci.KernelSpec(bandwidth=0.9)))
        assert np.abs(Kc.sum(axis=0)).max() < 1e-10
        assert np.abs(Kc.sum(axis=1)).max() < 1e-10

    def test_idempotent(self, rng):
        x = rng.normal(size=(8, 2))
        Kc = ci.center_train(ci.gram(x, x, ci.KernelSpec(bandwidth=1.0)))
        assert np.allclose(ci.center_train(Kc), Kc, atol=1e-12)

    def test_constant_kernel_centers_to_zero(self):
        assert np.allclose(ci.center_train(np.ones((6, 6))), 0.0, atol=1e-14)

    def test_preserves_symmetry(self, rng):
        x = rng.normal(size=(10, 3))
        Kc = ci.center_train(ci.gram(x, x, ci.KernelSpec(bandwidth=1.0)))
        assert np.array_equal(Kc, Kc.T) or np.allclose(Kc, Kc.T, atol=1e-15)

    def test_rejects_non_square(self):
        with pytest.raises(KernelError, match="square"):
            ci.center_train(np.ones((3, 4)))


class TestCenterCross:
    def test_paper_mode_matches_oracle(self, rng):
        x = rng.normal(size=(8, 3))
        z = rng.normal(size=(5, 3))
        spec = ci.KernelSpec(bandwidth=1.2)
        K = ci.gram(x, x, spec)
        Kt = ci.gram(x, z, spec)
        got = ci.center_cross(Kt, K, mode="paper")
        assert np.allclose(got, oracles.center_cross_paper(Kt, 8), atol=1e-12)

    def test_standard_mode_matches_oracle(self, rng):
        x = rng.normal(size=(8, 3))
        z = rng.normal(size=(5, 3))
        spec = ci.KernelSpec(bandwidth=1.2)
        K = ci.gram(x, x, spec)
        Kt = ci.gram(x, z, spec)
        got = ci.center_cross(Kt, K, mode="standard")
        assert np.allclose(got, oracles.center_cross_standard(Kt, K), atol=1e-12)

    def test_paper_mode_on_train_equals_center_train(self, rng):
        # self-consistency: the same matrix through either path, bitwise
        x = rng.normal(size=(10, 2))
        K = ci.gram(x, x, ci.KernelSpec(bandwidth=1.0))
        assert np.array_equal(ci.center_cross(K, K, mode="paper"), ci.center_train(K))

    def test_standard_mode_matches_feature_map_centering(self, rng):
        # linear kernel: centering the features first must equal centering
        # the cross kernel in standard mode
        x = rng.normal(size=(9, 4))
        z = rng.normal(size=(6, 4))
        spec = ci.KernelSpec(family="linear", bandwidth=1.0)
        K = ci.gram(x, x, spec)
        Kt = ci.gram(x, z, spec)
        xc = x - x.mean(axis=0)
        zc = z - x.mean(axis=0)
        assert np.allclose(ci.center_cross(Kt, K, mode="standard"), xc @ zc.T, atol=1e-12)

    def test_from_stats_equals_direct(self, rng):
        x = rng.normal(size=(7, 3))
        z = rng.normal(size=(4, 3))
        spec = ci.KernelSpec(bandwidth=0.8)
        K = ci.gram(x, x, spec)
        Kt = ci.gram(x, z, spec)
        stats = CenteringStats.from_train(K)
        for mode in ("paper", "standard"):
            assert np.array_equal(
                center_cross_from_stats(Kt, stats, mode), ci.center_cross(Kt, K, mode)
            )

    def test_shape_checks(self, rng):
        stats = CenteringStats.from_train(np.eye(5))
        with pytest.raises(KernelError, match="rows"):
            center_cross_from_stats(np.ones((4, 3)), stats)
        with pytest.raises(KernelError, match="mode"):
            center_cross_from_stats(np.ones((5, 3)), stats, mode="other")


def three_temporaries(Kt, rows, total):
    """The centering as a plain expression, one temporary per operation."""
    return Kt - Kt.mean(axis=0)[None, :] - rows[:, None] + total


class TestOneBuffer:
    """Building and centering in one buffer gives the textbook forms bit for bit."""

    @pytest.mark.parametrize("shape", [(40, 40), (37, 11), (3, 60)])
    @pytest.mark.parametrize("bandwidth", [0.3, 1.0, 7.5])
    def test_gram_is_bitwise_the_plain_expression(self, rng, shape, bandwidth):
        a, b = rng.normal(size=(shape[0], 4)), rng.normal(size=(shape[1], 4))
        expected = np.exp(-cdist(a, b, "sqeuclidean") / (2.0 * bandwidth**2))
        assert np.array_equal(ci.gram(a, b, ci.KernelSpec(bandwidth=bandwidth)), expected)

    def test_train_centering_and_stats_are_bitwise(self, rng):
        x = rng.normal(size=(45, 3))
        spec = ci.KernelSpec(bandwidth=1.1)
        K = ci.gram(x, x, spec)
        expected = three_temporaries(K, K.sum(axis=1) / 45, K.sum() / (45 * 45))
        assert np.array_equal(ci.center_train(K), expected)
        Kc, stats = centered_gram(x, spec)
        assert np.array_equal(Kc, expected)
        reference = CenteringStats.from_train(K)
        assert stats.n == reference.n and stats.grand_mean == reference.grand_mean
        assert np.array_equal(stats.row_means, reference.row_means)
        assert not stats.row_means.flags.writeable

    @pytest.mark.parametrize("mode", ["paper", "standard"])
    def test_cross_centering_is_bitwise(self, rng, mode):
        x, z = rng.normal(size=(30, 3)), rng.normal(size=(17, 3))
        spec = ci.KernelSpec(bandwidth=0.9)
        stats = CenteringStats.from_train(ci.gram(x, x, spec))
        Kt = ci.gram(x, z, spec)
        if mode == "paper":
            expected = three_temporaries(Kt, Kt.sum(axis=1) / 30, Kt.sum() / (30 * 30))
        else:
            expected = three_temporaries(Kt, stats.row_means, stats.grand_mean)
        assert np.array_equal(center_cross_from_stats(Kt, stats, mode), expected)
        assert np.array_equal(centered_cross_gram(x, z, spec, stats, mode), expected)
        assert np.array_equal(centered_cross_kernel(spec, x, stats, z, mode), expected)

    def test_cross_gram_checks_like_center_cross_from_stats(self, rng):
        x = rng.normal(size=(5, 2))
        stats = CenteringStats.from_train(np.eye(4))
        with pytest.raises(KernelError, match="rows"):
            centered_cross_gram(x, x, ci.KernelSpec(bandwidth=1.0), stats)
        stats = CenteringStats.from_train(np.eye(5))
        with pytest.raises(KernelError, match="mode"):
            centered_cross_gram(x, x, ci.KernelSpec(bandwidth=1.0), stats, mode="other")

    def test_public_functions_leave_inputs_unchanged(self, rng):
        x, z = rng.normal(size=(12, 3)), rng.normal(size=(7, 3))
        spec = ci.KernelSpec(bandwidth=1.0)
        K, Kt = ci.gram(x, x, spec), ci.gram(x, z, spec)
        stats = CenteringStats.from_train(K)
        inputs = {"x": x, "z": z, "K": K, "Kt": Kt}
        before = {name: a.copy() for name, a in inputs.items()}
        ci.gram(x, z, spec)
        ci.center_train(K)
        for mode in ("paper", "standard"):
            center_cross_from_stats(Kt, stats, mode)
            ci.center_cross(Kt, K, mode)
            centered_cross_gram(x, z, spec, stats, mode)
        centered_gram(x, spec)
        for name, a in inputs.items():
            assert np.array_equal(a, before[name]), name


class TestAllocationBudget:
    """Each n x n kernel result peaks at one n x n buffer, plus O(n) vectors.

    tracemalloc sees NumPy's allocations; a full-size temporary would add
    another n^2 doubles to the peak.
    """

    N = 500

    def peak_in_n2_doubles(self, fn):
        fn()  # first call outside the trace: lazy imports and caches
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (8 * self.N * self.N)

    @pytest.fixture
    def case(self):
        x = np.random.default_rng(3).normal(size=(self.N, 3))
        spec = ci.KernelSpec(bandwidth=1.0)
        return x, spec, CenteringStats.from_train(ci.gram(x, x, spec))

    def test_gram(self, case):
        x, spec, _ = case
        assert self.peak_in_n2_doubles(lambda: ci.gram(x, x, spec)) <= 1.2

    def test_fit_preparation_gram_and_centering(self, case):
        x, spec, _ = case
        assert self.peak_in_n2_doubles(lambda: centered_gram(x, spec)) <= 1.2

    @pytest.mark.parametrize("mode", ["paper", "standard"])
    def test_centered_cross_kernel(self, case, mode):
        x, spec, stats = case
        assert self.peak_in_n2_doubles(
            lambda: centered_cross_kernel(spec, x, stats, x, mode)
        ) <= 1.2
