"""Weight vectors and scatter matrices vs. explicit feature-space oracles.

The linear kernel makes the feature map the identity, so a coefficient
matrix S built from K = X X' must satisfy X' S X == S_explicit; lifting the
explicit matrix back with X S_explicit X' gives an element-level comparison
in coefficient space instead.
"""

import numpy as np
import pytest

import condinv as ci
from condinv.scatter import MissingClassError, ScatterError
import oracles
from conftest import random_dataset


def linear_centered_gram(data):
    K = ci.gram(data.features, data.features, ci.KernelSpec(family="linear", bandwidth=1.0))
    return ci.center_train(K)


def centered(x):
    return x - x.mean(axis=0)


class TestWeightSet:
    def test_class_domain_values(self, make_dataset):
        data = make_dataset(n_domains=2, n_classes=2, n=14)
        groups = ci.group_index(data)
        w = ci.build_weights(groups)
        for (s, j), vec in w.class_domain.items():
            idx = groups.index_of[(s, j)]
            assert np.all(vec[idx] == 1.0 / groups.counts[(s, j)])
            off = np.setdiff1d(np.arange(data.n), idx)
            assert np.all(vec[off] == 0.0)
            assert vec.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_vectors_sum_to_one(self, make_dataset):
        data = make_dataset(n_domains=3, n_classes=3, n=30)
        w = ci.build_weights(ci.group_index(data))
        for vec in list(w.class_mean.values()) + list(w.prior_normalized.values()):
            assert vec.sum() == pytest.approx(1.0, abs=1e-12)
        assert w.prior_mean.sum() == pytest.approx(1.0, abs=1e-12)
        assert w.uniform.sum() == pytest.approx(1.0, abs=1e-12)
        for vec in w.class_total.values():
            assert vec.sum() == pytest.approx(1.0, abs=1e-12)

    def test_strict_missing_cell(self):
        data = ci.LabeledDataset(
            np.arange(10.0).reshape(5, 2),
            np.array([1, 1, 2, 1, 1]),
            np.array([1, 1, 1, 2, 2]),
        )
        with pytest.raises(MissingClassError, match=r"\(2, 2\)"):
            ci.build_weights(ci.group_index(data))

    def test_lenient_records_adjustments(self):
        data = ci.LabeledDataset(
            np.arange(10.0).reshape(5, 2),
            np.array([1, 1, 2, 1, 1]),
            np.array([1, 1, 1, 2, 2]),
        )
        w = ci.build_weights(ci.group_index(data), lenient=True)
        assert w.adjustments == ("domain 2 has no class 2 samples",)
        # class 2 exists only in domain 1, so its cross-domain mean is that
        # single domain's conditional mean
        assert np.array_equal(w.class_mean[2], w.class_domain[(1, 2)])
        # domain 2 holds one class, so its prior-normalized marginal is that
        # class's conditional mean
        assert np.array_equal(w.prior_normalized[2], w.class_domain[(2, 1)])

    def test_balanced_classes_give_uniform_prior_vectors(self):
        # equal class counts inside each domain: the prior-normalized
        # vector must equal the plain per-domain uniform vector bitwise
        labels = np.array([1, 2, 1, 2, 1, 2, 1, 2])
        domains = np.array([1, 1, 1, 1, 2, 2, 2, 2])
        data = ci.LabeledDataset(np.arange(16.0).reshape(8, 2), labels, domains)
        groups = ci.group_index(data)
        w = ci.build_weights(groups)
        per_domain, mean = ci.uniform_domain_weights(groups)
        for s in (1, 2):
            assert np.array_equal(w.prior_normalized[s], per_domain[s])
        assert np.array_equal(w.prior_mean, mean)

    def test_uniform_domain_weights(self, make_dataset):
        data = make_dataset(n_domains=2, n=16)
        groups = ci.group_index(data)
        per_domain, mean = ci.uniform_domain_weights(groups)
        for s, vec in per_domain.items():
            mask = data.domains == s
            assert np.all(vec[mask] == 1.0 / mask.sum())
            assert np.all(vec[~mask] == 0.0)
        assert np.allclose(mean, (per_domain[1] + per_domain[2]) / 2.0)


class TestScatterOracles:
    def params(self):
        out = []
        for trial in range(8):
            rng = np.random.default_rng(100 + trial)
            out.append(
                random_dataset(
                    rng,
                    n_domains=int(rng.integers(2, 4)),
                    n_classes=int(rng.integers(2, 4)),
                    n=int(rng.integers(12, 20)),
                    d=int(rng.integers(2, 5)),
                )
            )
        return out

    def test_conditional_matches_lifted_oracle(self):
        for data in self.params():
            Kc = linear_centered_gram(data)
            w = ci.build_weights(ci.group_index(data))
            G = ci.conditional_scatter(Kc, w)
            got = G @ G.T
            xc = centered(data.features)
            want = oracles.lift(
                xc, oracles.conditional_scatter_explicit(xc, data.labels, data.domains)
            )
            assert np.allclose(got, want, atol=1e-10)

    def test_prior_matches_lifted_oracle(self):
        for data in self.params():
            Kc = linear_centered_gram(data)
            w = ci.build_weights(ci.group_index(data))
            G = ci.prior_scatter(Kc, w)
            got = G @ G.T
            xc = centered(data.features)
            want = oracles.lift(
                xc, oracles.prior_scatter_explicit(xc, data.labels, data.domains)
            )
            assert np.allclose(got, want, atol=1e-10)

    def test_between_matches_lifted_oracle(self):
        for data in self.params():
            Kc = linear_centered_gram(data)
            w = ci.build_weights(ci.group_index(data))
            F = ci.between_scatter(Kc, w)
            got = F @ F.T
            xc = centered(data.features)
            want = oracles.lift(xc, oracles.between_scatter_explicit(xc, data.labels))
            assert np.allclose(got, want, atol=1e-10)

    def test_within_matches_lifted_oracle(self):
        for data in self.params():
            Kc = linear_centered_gram(data)
            w = ci.build_weights(ci.group_index(data))
            got = ci.within_scatter(Kc, w)
            xc = centered(data.features)
            want = oracles.lift(xc, oracles.within_scatter_explicit(xc, data.labels))
            assert np.allclose(got, want, atol=1e-10)

    def test_scatter_set_bundles_all_four(self, make_dataset):
        data = make_dataset()
        Kc = linear_centered_gram(data)
        w = ci.build_weights(ci.group_index(data))
        ss = ci.scatter_set(Kc, w)
        assert np.array_equal(ss.conditional_factor, ci.conditional_scatter(Kc, w))
        assert np.array_equal(ss.prior_factor, ci.prior_scatter(Kc, w))
        assert np.array_equal(ss.between_factor, ci.between_scatter(Kc, w))
        assert np.array_equal(ss.within, ci.within_scatter(Kc, w))


class TestScatterProperties:
    def test_all_symmetric_psd(self, make_dataset):
        data = make_dataset(n_domains=3, n_classes=2, n=21)
        Kc = linear_centered_gram(data)
        w = ci.build_weights(ci.group_index(data))
        ss = ci.scatter_set(Kc, w)
        factors = (ss.conditional_factor, ss.prior_factor, ss.between_factor)
        for S in (*map(oracles.expand, factors), ss.within):
            S = np.asarray(S)
            assert np.allclose(S, S.T, atol=1e-12)
            assert np.linalg.eigvalsh(S).min() > -1e-8

    @pytest.mark.parametrize("n", [5, 37, 150, 600])
    def test_within_is_exactly_symmetric(self, n):
        # NumPy forms a product with its own transpose by one symmetric
        # rank-k update, so within_scatter needs no averaging with W.T
        data = random_dataset(np.random.default_rng(n), n_domains=2, n_classes=2, n=n)
        spec = ci.KernelSpec(bandwidth=ci.median_bandwidth(data.features))
        Kc = ci.center_train(ci.gram(data.features, data.features, spec))
        W = ci.within_scatter(Kc, ci.build_weights(ci.group_index(data)))
        assert np.array_equal(W, W.T)

    def test_single_domain_zeroes_invariance_scatters(self, make_dataset):
        data = make_dataset(n_domains=1, n_classes=3, n=12)
        Kc = linear_centered_gram(data)
        w = ci.build_weights(ci.group_index(data))
        assert np.all(ci.conditional_scatter(Kc, w) == 0.0)
        assert np.all(ci.prior_scatter(Kc, w) == 0.0)

    def test_identical_domains_zero_conditional(self, rng):
        # domain 2 replicates domain 1's samples exactly, so every
        # class-conditional mean matches across domains
        x1 = rng.normal(size=(9, 3))
        labels1 = np.array([1, 1, 1, 2, 2, 2, 3, 3, 3])
        x = np.vstack([x1, x1])
        labels = np.concatenate([labels1, labels1])
        domains = np.concatenate([np.ones(9, int), np.full(9, 2)])
        data = ci.LabeledDataset(x, labels, domains)
        Kc = linear_centered_gram(data)
        w = ci.build_weights(ci.group_index(data))
        assert np.abs(ci.conditional_scatter(Kc, w)).max() < 1e-12
        assert np.abs(ci.prior_scatter(Kc, w)).max() < 1e-12

    def test_between_plus_within_equals_total(self, make_dataset):
        # the classical decomposition: class-count-weighted between scatter
        # plus within scatter equals the total scatter K (I - J/n) K
        data = make_dataset(n=20)
        Kc = linear_centered_gram(data)
        w = ci.build_weights(ci.group_index(data))
        n = data.n
        total = Kc @ (np.eye(n) - np.full((n, n), 1.0 / n)) @ Kc
        F = ci.between_scatter(Kc, w)
        got = F @ F.T + ci.within_scatter(Kc, w)
        assert np.allclose(got, total, atol=1e-9)

    def test_shape_mismatch(self, make_dataset):
        data = make_dataset(n=12)
        w = ci.build_weights(ci.group_index(data))
        with pytest.raises(ScatterError, match="shape"):
            ci.conditional_scatter(np.eye(5), w)
