"""KNN head, accuracy, and the per-method projection fits."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import condinv as ci
import condinv.classify
from condinv.classify import ClassifyError, fit_plane, knn_votes, prepare_fit
from condinv.scatter import ScatterSet
from condinv.solver import SolverError, projection_basis
import oracles
from conftest import assert_same_solution, missing_cell_dataset, random_dataset


class TestMethod:
    def test_tag_validation(self):
        with pytest.raises(ClassifyError, match="unknown method"):
            ci.Method("svm")

    def test_parameter_validation(self, make_dataset):
        # the solver checks the values a method uses, when it fits
        data = make_dataset(n=12)
        spec = ci.KernelSpec(bandwidth=1.0)
        for method in (
            ci.Method("cidg", gamma=-1.0), ci.Method("cidg", epsilon=0.0),
            ci.Method("cidg", q=0), ci.Method("kpca", q=0),
        ):
            with pytest.raises(SolverError):
                ci.fit_baseline(method, data, spec)

    def test_tags_tuple(self):
        assert ci.METHOD_TAGS == ("raw_knn", "kpca", "dica_marginal", "kfda", "cidg")


@st.composite
def lattice_knn_cases(draw, stacked=False):
    """(train, labels, test) on a small integer lattice in 1 or 2 dimensions.

    stacked=True draws train (P, n, d) and test (P, m, d) over one label
    vector.
    """
    lead = (draw(st.integers(1, 4)),) if stacked else ()
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 12))
    points = st.integers(-2, 2)
    train = draw(arrays(np.int64, (*lead, n, d), elements=points)).astype(float)
    labels = draw(arrays(np.int64, n, elements=st.integers(1, 3)))
    m = draw(st.integers(1, 6))
    test = draw(arrays(np.int64, (*lead, m, d), elements=points)).astype(float)
    return train, labels, test


class TestKnnPredict:
    def test_matches_brute_oracle(self, rng):
        for k in (1, 3, 5):
            train = rng.normal(size=(30, 4))
            labels = rng.integers(1, 4, size=30)
            test = rng.normal(size=(12, 4))
            got = ci.knn_predict(train, labels, test, k)
            want = oracles.knn_brute(train, labels, test, k)
            assert np.array_equal(got, want)

    def test_exact_match_k1(self, rng):
        train = rng.normal(size=(10, 3))
        labels = rng.integers(1, 3, size=10)
        assert np.array_equal(ci.knn_predict(train, labels, train, 1), labels)

    def test_majority_wins(self):
        train = np.array([[0.0], [0.1], [0.2], [5.0]])
        labels = np.array([1, 1, 1, 2])
        pred = ci.knn_predict(train, labels, np.array([[0.05]]), 3)
        assert pred[0] == 1

    def test_vote_tie_smaller_distance_sum_wins(self):
        # k=2: one neighbor per class; class 2 sits closer
        train = np.array([[0.0], [1.0]])
        labels = np.array([1, 2])
        pred = ci.knn_predict(train, labels, np.array([[0.9]]), 2)
        assert pred[0] == 2

    def test_full_tie_smallest_class_id_wins(self):
        # equidistant neighbors, one vote each: residual tie, lowest id
        train = np.array([[-1.0], [1.0]])
        labels = np.array([3, 2])
        pred = ci.knn_predict(train, labels, np.array([[0.0]]), 2)
        assert pred[0] == 2

    def test_rigid_motion_invariance(self, rng):
        # distances are preserved under rotation + translation
        train = rng.normal(size=(20, 2))
        labels = rng.integers(1, 4, size=20)
        test = rng.normal(size=(8, 2))
        theta = 0.7
        R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        shift = np.array([3.0, -1.5])
        a = ci.knn_predict(train, labels, test, 3)
        b = ci.knn_predict(train @ R.T + shift, labels, test @ R.T + shift, 3)
        assert np.array_equal(a, b)

    @settings(max_examples=300, deadline=None)
    @given(lattice_knn_cases())
    # the nearest neighbor of 0 ties at distance 1 between rows 0 and 1, and
    # the next two tie at distance 2 between rows 2, 3 and 4
    @example((np.array([[1.0], [-1.0], [2.0], [-2.0], [2.0]]),
              np.array([2, 1, 1, 2, 3]), np.array([[0.0]])))
    def test_matches_loop_on_lattice_ties(self, case):
        # integer-lattice points make distance ties common, including ties
        # straddling the k-th distance, where the partial sort must fall
        # back to the full stable order
        train, labels, test = case
        n = len(train)
        want = np.array([oracles.knn_loop(train, labels, test, k) for k in range(1, n + 1)])
        for k in range(1, n + 1):
            assert np.array_equal(ci.knn_predict(train, labels, test, k), want[k - 1])
        ks = np.arange(1, n + 1)
        assert np.array_equal(knn_votes(train, labels, test, ks), want)
        assert np.array_equal(knn_votes(train, labels, test, ks[::-1]), want[::-1])

    def test_nan_rows_take_the_full_sort(self, rng):
        # a NaN test row has no k-th distance, and a NaN training row leaves
        # fewer than k finite candidates at k = n: both rows fall back to the
        # full stable order, which puts NaN distances last
        train = rng.normal(size=(9, 2))
        labels = np.array([1, 2, 1, 2, 2, 1, 1, 2, 1])
        test = rng.normal(size=(4, 2))
        test[1, 0] = np.nan
        for t in (train, np.vstack([train[:4], [[np.nan, 0.0]], train[5:]])):
            for k in (1, 3, 5, 9):  # odd k over two classes: no vote ties
                want = oracles.knn_loop(t, labels, test, k)
                assert np.array_equal(ci.knn_predict(t, labels, test, k), want)

    @settings(max_examples=300, deadline=None)
    @given(lattice_knn_cases(stacked=True))
    def test_stacked_votes_equal_per_slice_votes(self, case):
        # every slice of a stack, ties straddling the k-th distance included,
        # votes exactly as the 2-D call on that slice alone
        train, labels, test = case
        n = train.shape[1]
        ks = np.arange(1, n + 1)
        got = knn_votes(train, labels, test, ks)
        assert got.shape == (train.shape[0], n, test.shape[1])
        for p in range(train.shape[0]):
            assert np.array_equal(got[p], knn_votes(train[p], labels, test[p], ks))

    def test_stack_validation(self, rng):
        labels = np.ones(5, dtype=int)
        for train, test in (
            (np.zeros((2, 5, 2)), np.zeros((3, 4, 2))),  # stack sizes differ
            (np.zeros((2, 5, 2)), np.zeros((2, 4, 3))),  # feature widths differ
            (np.zeros((2, 5, 2)), np.zeros((4, 2))),  # one side unstacked
            (np.zeros((1, 2, 5, 2)), np.zeros((1, 2, 4, 2))),  # two stack axes
        ):
            with pytest.raises(ClassifyError, match="inconsistent"):
                knn_votes(train, labels, test, [1])
        with pytest.raises(ClassifyError, match="empty"):
            knn_votes(np.zeros((0, 5, 2)), labels, np.zeros((0, 4, 2)), [1])

    def test_input_validation(self, rng):
        train = rng.normal(size=(5, 2))
        labels = np.ones(5, dtype=int)
        with pytest.raises(ClassifyError, match="k must lie"):
            ci.knn_predict(train, labels, train, 6)
        with pytest.raises(ClassifyError, match="k must lie"):
            ci.knn_predict(train, labels, train, 0)
        with pytest.raises(ClassifyError, match="inconsistent"):
            ci.knn_predict(train, labels, rng.normal(size=(3, 4)), 1)
        with pytest.raises(ClassifyError, match="labels"):
            ci.knn_predict(train, np.ones(4, dtype=int), train, 1)


class TestAccuracy:
    def test_values(self):
        assert ci.accuracy([1, 2, 3], [1, 2, 3]) == 1.0
        assert ci.accuracy([1, 2, 3], [1, 2, 4]) == pytest.approx(2.0 / 3.0)
        assert ci.accuracy([1], [2]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ClassifyError, match="mismatch"):
            ci.accuracy([1, 2], [1, 2, 3])


class TestFitBaseline:
    def test_raw_knn_has_no_model(self, make_dataset):
        with pytest.raises(ClassifyError, match="raw_knn"):
            ci.fit_baseline(ci.Method("raw_knn"), make_dataset(), ci.KernelSpec())

    def test_median_bandwidth_resolved_on_train(self, make_dataset):
        data = make_dataset(n=16)
        model = ci.fit_baseline(ci.Method("kfda", q=2), data, ci.KernelSpec())
        want = ci.median_bandwidth(data.features)
        assert model.kernel_spec.bandwidth == pytest.approx(want, rel=1e-12)

    def test_default_q_applied(self, make_dataset):
        data = make_dataset(n_domains=2, n_classes=3, n=20)
        model = ci.fit_baseline(ci.Method("cidg"), data, ci.KernelSpec(bandwidth=1.0))
        assert model.requested_q == ci.default_q(20, 3, 2)

    def test_q_capped_by_n(self, make_dataset):
        data = make_dataset(n=12)
        with pytest.raises(SolverError, match="exceeds"):
            ci.fit_baseline(ci.Method("cidg", q=13), data, ci.KernelSpec(bandwidth=1.0))

    def test_kpca_matches_direct_eigendecomposition(self, make_dataset):
        data = make_dataset(n=15)
        spec = ci.KernelSpec(bandwidth=1.4)
        model = ci.fit_baseline(ci.Method("kpca", q=3), data, spec)
        K = ci.gram(data.features, data.features, spec)
        Kc = ci.center_train(K)
        lam, vecs = np.linalg.eigh(Kc)
        assert np.allclose(model.eigenvalues, lam[::-1][:3], rtol=1e-10)
        # the top-q solve returns the full decomposition's leading vectors
        top = vecs[:, ::-1][:, :3]
        top = top * np.sign(top[np.argmax(np.abs(top), axis=0), np.arange(3)])
        assert np.allclose(model.coefficients, top, atol=1e-8)
        # projecting the training data recovers the usual KPCA coordinates
        got = ci.project(model, data.features, mode="paper")
        want = Kc @ projection_basis(model.coefficients, model.eigenvalues)
        assert np.allclose(got, want, atol=1e-10)

    def test_kpca_rank_one_collinear_cloud(self):
        # points on a line, linear kernel: exactly one positive component
        x = np.linspace(-2, 2, 9).reshape(-1, 1) @ np.array([[1.0, 2.0]])
        data = ci.LabeledDataset(
            x, np.tile([1, 2, 3], 3), np.repeat([1, 2, 3], 3)
        )
        model = ci.fit_baseline(
            ci.Method("kpca", q=3), data, ci.KernelSpec(family="linear", bandwidth=1.0)
        )
        assert model.n_components == 1
        assert any("truncated" in w for w in model.warnings)

    def test_kfda_ignores_gamma_alpha(self, make_dataset):
        data = make_dataset(n=16)
        spec = ci.KernelSpec(bandwidth=1.0)
        a = ci.fit_baseline(ci.Method("kfda", gamma=5.0, alpha=9.0, q=2), data, spec)
        b = ci.fit_baseline(ci.Method("kfda", gamma=0.1, alpha=0.2, q=2), data, spec)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert a.gamma == 0.0 and a.alpha == 0.0

    def test_kfda_solves_fisher_pencil(self, make_dataset):
        data = make_dataset(n=15)
        spec = ci.KernelSpec(bandwidth=1.1)
        model = ci.fit_baseline(ci.Method("kfda", epsilon=1e-4, q=2), data, spec)
        K = ci.gram(data.features, data.features, spec)
        Kc = ci.center_train(K)
        w = ci.build_weights(ci.group_index(data))
        F = ci.between_scatter(Kc, w)
        P = F @ F.T
        Q = ci.within_scatter(Kc, w)
        D = Q + model.effective_epsilon * np.eye(data.n)
        B, lam = model.coefficients, model.eigenvalues
        assert np.allclose(P @ B, D @ B * lam[None, :], atol=1e-8)

    def test_dica_marginal_balanced_equals_prior_only_cidg(self):
        # with balanced class counts the per-domain uniform vectors equal
        # the prior-normalized ones bitwise, so the marginal-invariance
        # pencil coincides with cidg at gamma=0, alpha=1: same scatters,
        # same model
        rng = np.random.default_rng(77)
        n_per = 4
        feats, labels, domains = [], [], []
        for s in (1, 2):
            for j in (1, 2, 3):
                feats.append(rng.normal(size=(n_per, 3)) + j + 0.3 * s)
                labels.append(np.full(n_per, j))
                domains.append(np.full(n_per, s))
        data = ci.LabeledDataset(np.vstack(feats), np.concatenate(labels), np.concatenate(domains))
        spec = ci.KernelSpec(bandwidth=1.3)
        a = ci.fit_baseline(ci.Method("dica_marginal", epsilon=1e-4, q=3), data, spec)
        b = ci.fit_baseline(ci.Method("cidg", gamma=1.0, alpha=1.0, epsilon=1e-4, q=3), data, spec)
        # direct check at the scatter level first
        Kc = ci.center_train(ci.gram(data.features, data.features, spec))
        groups = ci.group_index(data)
        w = ci.build_weights(groups)
        vectors, mean = ci.uniform_domain_weights(groups)
        assert np.array_equal(
            ci.domain_scatter(Kc, vectors, mean), ci.prior_scatter(Kc, w)
        )
        # the fitted dica model equals a cidg solve with gamma pinned to 0
        c = ci.solve(
            ScatterSet(
                conditional_factor=np.zeros((data.n, 0)),
                prior_factor=ci.prior_scatter(Kc, w),
                between_factor=ci.between_scatter(Kc, w),
                within=ci.within_scatter(Kc, w),
            ),
            3, gamma=0.0, alpha=1.0, epsilon=1e-4,
        )
        assert np.array_equal(a.coefficients, c.coefficients)
        assert np.array_equal(a.eigenvalues, c.eigenvalues)
        # and differs from the full conditional-invariance model in general
        assert not np.allclose(a.coefficients, b.coefficients)

    def test_cidg_gamma_alpha_stored(self, make_dataset):
        data = make_dataset(n=16)
        model = ci.fit_baseline(
            ci.Method("cidg", gamma=0.3, alpha=2.5, q=2), data, ci.KernelSpec(bandwidth=1.0)
        )
        assert model.gamma == 0.3 and model.alpha == 2.5

    def test_missing_cell_strict_then_lenient(self):
        data = ci.LabeledDataset(
            np.arange(20.0).reshape(10, 2),
            np.array([1, 1, 2, 2, 2, 1, 1, 1, 1, 1]),
            np.array([1, 1, 1, 1, 1, 2, 2, 2, 2, 2]),
        )
        spec = ci.KernelSpec(bandwidth=2.0)
        with pytest.raises(ci.MissingClassError):
            ci.fit_baseline(ci.Method("cidg", q=2), data, spec)
        model = ci.fit_baseline(ci.Method("cidg", q=2), data, spec, lenient=True)
        assert any("no class" in w for w in model.warnings)

    @pytest.mark.parametrize("tag", ["kfda", "dica_marginal"])
    def test_missing_cell_fits_without_lenient(self, rng, tag):
        # only cidg reads per-(domain, class) weights; kfda and dica_marginal
        # use pooled class weights, which a missing cell leaves unchanged
        data = missing_cell_dataset(rng)
        spec = ci.KernelSpec(bandwidth=1.0)
        strict = ci.fit_baseline(ci.Method(tag, q=2), data, spec)
        lenient = ci.fit_baseline(ci.Method(tag, q=2), data, spec, lenient=True)
        assert np.array_equal(strict.coefficients, lenient.coefficients)
        assert not any("no class" in w for w in strict.warnings + lenient.warnings)
        with pytest.raises(ci.MissingClassError):
            ci.fit_baseline(ci.Method("cidg", q=2), data, spec)

    @pytest.mark.parametrize("tag", ["kpca", "dica_marginal", "kfda", "cidg"])
    def test_one_preparation_serves_every_point(self, make_dataset, tag):
        # a PreparedFit is reused across a grid: each point solved from it
        # must equal a fresh fit, and Kc.T @ basis must equal the fresh
        # model's projection of the training rows bit for bit
        data = make_dataset(n=18, domain_shift=0.4)
        spec = ci.KernelSpec(bandwidth=1.2)
        prepared = prepare_fit(tag, data, spec)
        for gamma, alpha, eps, q in ((0.1, 2.0, 1e-5, 4), (5.0, 0.3, 1e-3, 2)):
            method = ci.Method(tag, gamma=gamma, alpha=alpha, epsilon=eps, q=q)
            plane = fit_plane([method], prepared)
            fresh = ci.fit_baseline(method, data, spec)
            c = plane.kept[0]
            coefficients, eigenvalues = plane.coefficients[0, :, :c], plane.eigenvalues[0, :c]
            assert plane.errors == [None]
            assert np.array_equal(coefficients, fresh.coefficients)
            assert np.array_equal(eigenvalues, fresh.eigenvalues)
            assert plane.warnings[0] == fresh.warnings
            # the basis as the grid reads it from the solution
            assert np.array_equal(
                prepared.Kc.T @ projection_basis(coefficients, eigenvalues),
                ci.project(fresh, data.features, mode="paper"),
            )
        with pytest.raises(ClassifyError, match="cannot fit"):
            fit_plane([ci.Method("raw_knn" if tag == "kpca" else "kpca")], prepared)
        if tag == "kpca":  # no gamma or alpha to stack
            with pytest.raises(ClassifyError, match="holds one method"):
                fit_plane([ci.Method("kpca")] * 2, prepared)

    @pytest.mark.parametrize("tag", ["kpca", "dica_marginal", "kfda", "cidg"])
    def test_reduced_preparation_matches_dense(self, tag, monkeypatch):
        # at a wide bandwidth Kc's numerical rank is below n / 2, so the
        # preparation writes the pencil in a range basis; without the basis
        # it is today's dense one
        data = random_dataset(np.random.default_rng(5), n_domains=3, n=240, d=2, domain_shift=0.5)
        spec = ci.KernelSpec("rbf", 3.0 * ci.median_bandwidth(data.features))
        methods = [ci.Method(tag, gamma=g, q=5) for g in ((1.0,) if tag == "kpca" else (0.1, 1.0))]
        reduced = prepare_fit(tag, data, spec)
        m = reduced.basis.shape[1]
        assert 2 * m <= data.n
        if tag != "kpca":
            assert reduced.scatters.within.shape == (m, m)
            assert reduced.scatters.between_factor.shape == (m, 3)
        monkeypatch.setattr(condinv.classify, "range_basis", lambda Kc: None)
        dense = prepare_fit(tag, data, spec)
        assert dense.basis is None and np.array_equal(dense.Kc, reduced.Kc)
        assert_same_solution(fit_plane(methods, reduced), fit_plane(methods, dense), dense.Kc)

    def test_sign_flip_of_features_keeps_predictions(self, rng):
        # mirroring the input space is an isometry: fitted projections can
        # flip sign but KNN decisions must not change
        data = random_dataset(rng, n=18, d=3, domain_shift=0.4)
        flipped = ci.LabeledDataset(-data.features, data.labels, data.domains)
        z = rng.normal(size=(7, 3))
        spec = ci.KernelSpec(bandwidth=1.2)
        for tag in ("kpca", "kfda", "dica_marginal", "cidg"):
            a = ci.fit_baseline(ci.Method(tag, q=3), data, spec)
            b = ci.fit_baseline(ci.Method(tag, q=3), flipped, spec)
            pa = ci.knn_predict(
                ci.project(a, data.features), data.labels, ci.project(a, z), 3
            )
            pb = ci.knn_predict(
                ci.project(b, flipped.features), flipped.labels, ci.project(b, -z), 3
            )
            assert np.array_equal(pa, pb)
