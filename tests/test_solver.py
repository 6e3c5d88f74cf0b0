"""Generalized eigensolver, projection and model serialization."""

import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import condinv as ci
from condinv.kernel import CenteringStats
from condinv.scatter import ScatterSet
from condinv.solver import SolverError, projection_basis, range_basis, solve_kpca, solve_plane
import oracles
from conftest import assert_same_solution, random_dataset


def fit_scatters(data):
    spec = ci.KernelSpec(family="linear", bandwidth=1.0)
    K = ci.gram(data.features, data.features, spec)
    Kc = ci.center_train(K)
    w = ci.build_weights(ci.group_index(data))
    return ci.scatter_set(Kc, w), K, spec


def diagonal_scatters(p_diag, n):
    z = np.zeros((n, 0))
    return ScatterSet(
        conditional_factor=z,
        prior_factor=z,
        between_factor=np.diag(np.sqrt(np.asarray(p_diag, float))),
        within=np.eye(n),
    )


class TestSolverConfig:
    """The pencil parameters (gamma, alpha, epsilon, q) as the solver checks them."""

    def test_validation(self):
        scatters = diagonal_scatters([4.0, 1.0], 2)
        with pytest.raises(SolverError, match="gamma and alpha"):
            solve_plane(scatters, [(-0.1, 1.0)], 1, 1e-5)
        with pytest.raises(SolverError, match="gamma and alpha"):
            solve_plane(scatters, [(1.0, -1.0)], 1, 1e-5)
        with pytest.raises(SolverError, match="epsilon"):
            solve_plane(scatters, [(1.0, 1.0)], 1, 0.0)
        with pytest.raises(SolverError, match="q must be >= 1"):
            solve_plane(scatters, [(1.0, 1.0)], 0, 1e-5)
        # kernel PCA shares the q check
        with pytest.raises(SolverError, match="q must be >= 1"):
            solve_kpca(np.eye(2), 0)
        with pytest.raises(SolverError, match="exceeds"):
            solve_kpca(np.eye(2), 3)
        # solve runs the same checks
        with pytest.raises(SolverError, match="gamma and alpha"):
            ci.solve(scatters, 1, gamma=-0.1)
        with pytest.raises(SolverError, match="epsilon"):
            ci.solve(scatters, 1, epsilon=0.0)
        with pytest.raises(SolverError, match="q must be >= 1"):
            ci.solve(scatters, 0)

    def test_default_q(self):
        assert ci.default_q(100, 3, 2) == 6
        assert ci.default_q(5, 3, 4) == 4


class TestSolveDiagonal:
    def test_hand_computed_eigenpairs(self):
        # P = diag(4, 1, 0), D = I + eps*I: eigenvalues 4/(1+eps), 1/(1+eps)
        eps = 1e-3
        model = ci.solve(diagonal_scatters([4.0, 1.0, 0.0], 3), 2, epsilon=eps)
        want = np.array([4.0, 1.0]) / (1.0 + eps)
        assert np.allclose(model.eigenvalues, want, rtol=1e-12)
        # eigenvectors are scaled basis vectors with B' D B = I
        scale = 1.0 / np.sqrt(1.0 + eps)
        assert np.allclose(np.abs(model.coefficients), np.eye(3)[:, :2] * scale, atol=1e-12)
        assert model.effective_epsilon == pytest.approx(eps)  # mean diag within = 1

    def test_truncation_warns(self):
        model = ci.solve(diagonal_scatters([4.0, 1.0, 0.0], 3), 3)
        assert model.n_components == 2
        assert any("truncated" in w for w in model.warnings)

    def test_zero_numerator_is_error(self):
        with pytest.raises(SolverError, match="positive"):
            ci.solve(diagonal_scatters([0.0, 0.0, 0.0], 3), 1)

    def test_q_exceeding_n(self):
        with pytest.raises(SolverError, match="exceeds"):
            ci.solve(diagonal_scatters([1.0, 1.0], 2), 3)

    def test_relative_epsilon_scales_with_within(self):
        # doubling the within scatter doubles the ridge actually applied
        a = ci.solve(diagonal_scatters([4.0, 1.0], 2), 1, epsilon=1e-4)
        z = np.zeros((2, 0))
        doubled = ScatterSet(
            conditional_factor=z, prior_factor=z, between_factor=np.diag([2.0, 1.0]),
            within=2.0 * np.eye(2),
        )
        b = ci.solve(doubled, 1, epsilon=1e-4)
        assert b.effective_epsilon == pytest.approx(2.0 * a.effective_epsilon)

    def test_zero_within_falls_back_to_absolute(self):
        z = np.zeros((2, 0))
        scatters = ScatterSet(
            conditional_factor=z, prior_factor=z, between_factor=np.diag(np.sqrt([1.0, 0.5])),
            within=np.zeros((2, 2)),
        )
        model = ci.solve(scatters, 1, epsilon=1e-3)
        assert model.effective_epsilon == pytest.approx(1e-3)


class TestSolveRandom:
    def instances(self):
        out = []
        for trial in range(10):
            rng = np.random.default_rng(500 + trial)
            data = random_dataset(
                rng,
                n_domains=int(rng.integers(2, 4)),
                n_classes=int(rng.integers(2, 4)),
                n=int(rng.integers(12, 22)),
                d=int(rng.integers(2, 5)),
            )
            out.append(data)
        return out

    def test_constraint_and_residual(self):
        for data in self.instances():
            scatters, _, _ = fit_scatters(data)
            model = ci.solve(scatters, 4, gamma=0.7, alpha=1.3, epsilon=1e-5)
            B, lam = model.coefficients, model.eigenvalues
            D = (
                0.7 * oracles.expand(scatters.conditional_factor)
                + 1.3 * oracles.expand(scatters.prior_factor)
                + scatters.within
                + model.effective_epsilon * np.eye(data.n)
            )
            assert np.allclose(B.T @ D @ B, np.eye(model.n_components), atol=1e-6)
            P = oracles.expand(scatters.between_factor)
            res = P @ B - D @ B * lam[None, :]
            norms = np.linalg.norm(P @ B, axis=0)
            assert np.all(np.linalg.norm(res, axis=0) <= 1e-6 * np.maximum(norms, 1e-12))

    def test_eigenvalues_descend_and_are_positive(self):
        for data in self.instances():
            scatters, _, _ = fit_scatters(data)
            model = ci.solve(scatters, 5)
            assert np.all(model.eigenvalues > 0)
            assert np.all(np.diff(model.eigenvalues) <= 0)

    def test_positive_spectrum_matches_explicit_oracle(self):
        # the n-dim coefficient pencil and the d-dim feature pencil share
        # their positive spectrum when the kernel is linear
        for data in self.instances()[:5]:
            scatters, _, _ = fit_scatters(data)
            model = ci.solve(scatters, data.n, gamma=0.5, alpha=2.0, epsilon=1e-6)
            want = oracles.pencil_eigenvalues_explicit(
                data.features, data.labels, data.domains, 0.5, 2.0, model.effective_epsilon
            )
            got = model.eigenvalues
            take = min(len(want), len(got))
            assert take >= 1
            assert np.allclose(got[:take], want[:take], rtol=1e-6)

    def test_prefix_property(self):
        # solving at a large q and slicing equals solving at the small q
        for data in self.instances()[:4]:
            scatters, _, _ = fit_scatters(data)
            big = ci.solve(scatters, 6)
            small = ci.solve(scatters, 2)
            take = min(2, big.n_components, small.n_components)
            assert np.array_equal(small.coefficients[:, :take], big.coefficients[:, :take])
            assert np.array_equal(small.eigenvalues[:take], big.eigenvalues[:take])

    def test_sign_canonicalization(self):
        for data in self.instances()[:4]:
            scatters, _, _ = fit_scatters(data)
            model = ci.solve(scatters, 3)
            B = model.coefficients
            picks = B[np.argmax(np.abs(B), axis=0), np.arange(B.shape[1])]
            assert np.all(picks > 0)


@st.composite
def factored_pencils(draw):
    """A random definite pencil with a rank-r factored numerator, and solve's keywords.

    D's three summands are random PSD matrices, the conditional and prior
    ones given by their factors, plus a full-rank within term. F = L_D H
    for a random H with prescribed, well-separated singular values, so the
    pencil's positive eigenvalues are their squares and every eigenvector
    is well determined. An optional extra column repeats a combination of
    the others, as the between-class factor's C columns have rank C - 1.
    """
    n = draw(st.integers(5, 12))
    r = draw(st.integers(1, 4))
    q = draw(st.integers(1, n))
    dependent = draw(st.booleans())
    gamma = draw(st.floats(0.0, 3.0))
    alpha = draw(st.floats(0.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def factor(rank):
        return rng.normal(size=(n, rank)) / np.sqrt(rank)

    conditional, prior, within = factor(3), factor(2), factor(2 * n)
    within = within @ within.T
    eff_eps = 1e-5 * float(np.mean(np.diag(within)))
    D = gamma * conditional @ conditional.T + alpha * prior @ prior.T + within + eff_eps * np.eye(n)
    ratios = rng.uniform(0.2, 0.8, size=r - 1)
    sigma = 10.0 ** rng.uniform(-2, 2) * np.cumprod(np.concatenate([[1.0], ratios]))
    U = np.linalg.qr(rng.normal(size=(n, r)))[0]
    V = np.linalg.qr(rng.normal(size=(r, r)))[0]
    F = np.linalg.cholesky(D) @ (U * sigma[None, :]) @ V.T
    if dependent:
        F = np.hstack([F, F @ rng.normal(size=(r, 1))])
    params = dict(q=q, gamma=gamma, alpha=alpha, epsilon=1e-5)
    return ScatterSet(conditional, prior, F, within), params


@st.composite
def pencil_planes(draw):
    """Random factored scatters and a (gamma, alpha) plane over them.

    The within term is a random SPD matrix; the conditional, prior and
    between factors have 1 to 4 random columns each (the between one
    optionally with a dependent extra column). gamma and alpha include 0,
    and q lies both below and above the between factor's rank.
    """
    n = draw(st.integers(5, 12))
    ranks = draw(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)))
    q = draw(st.integers(1, min(6, n)))
    weight = st.sampled_from([0.0, 0.1, 1.0]) | st.floats(0.0, 3.0)
    plane = draw(st.lists(st.tuples(weight, weight), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    conditional, prior, between = (rng.normal(size=(n, r)) / np.sqrt(r) for r in ranks)
    if draw(st.booleans()):
        between = np.hstack([between, between @ rng.normal(size=(ranks[2], 1))])
    A = rng.normal(size=(n, 2 * n)) / np.sqrt(2 * n)
    return ScatterSet(conditional, prior, between, A @ A.T), plane, q


def _relative_gap(lam):
    # smallest distance between the kept eigenvalues, or from the smallest
    # to zero, relative to the largest; an eigenvector's error is about
    # machine precision divided by this gap
    return np.abs(np.diff(np.concatenate([lam, [0.0]]))).min() / lam[0]


class TestSolveMatchesDenseOracle:
    @settings(max_examples=200, deadline=None)
    @given(factored_pencils())
    def test_factored_solve_matches_dense_eigh(self, case):
        scatters, params = case
        model = ci.solve(scatters, **params)
        lam, vecs, warnings = oracles.pencil_eig_dense(scatters, **params)
        assert model.n_components == lam.size
        assert model.warnings == warnings
        assert np.allclose(model.eigenvalues, lam, rtol=1e-9, atol=0.0)
        scale = np.abs(vecs).max()
        assert np.allclose(model.coefficients, vecs, rtol=0.0, atol=1e-8 * scale)


class TestSolvePlane:
    @settings(max_examples=200, deadline=None)
    @given(pencil_planes())
    def test_plane_matches_dense_eigh(self, case):
        scatters, plane, q = case
        solution = solve_plane(scatters, plane, q, 1e-5)
        assert len(solution.kept) == len(solution.errors) == len(plane)
        for p, (gamma, alpha) in enumerate(plane):
            lam, vecs, warnings = oracles.pencil_eig_dense(
                scatters, q=q, gamma=gamma, alpha=alpha, epsilon=1e-5
            )
            assume(lam.size and _relative_gap(lam) > 1e-3)
            c = solution.kept[p]
            assert solution.errors[p] is None
            assert c == lam.size
            assert solution.warnings[p] == warnings
            assert np.allclose(solution.eigenvalues[p, :c], lam, rtol=1e-9, atol=0.0)
            scale = np.abs(vecs).max()
            assert np.allclose(
                solution.coefficients[p, :, :c], vecs, rtol=0.0, atol=1e-8 * scale
            )

    def test_each_point_equals_its_own_solve(self):
        for data in TestSolveRandom().instances():
            scatters, _, _ = fit_scatters(data)
            plane = [(g, a) for g in (0.0, 0.1, 1.0, 10.0) for a in (0.0, 0.5, 2.0)]
            solution = solve_plane(scatters, plane, 4, 1e-4)
            for p, (gamma, alpha) in enumerate(plane):
                want = ci.solve(scatters, 4, gamma, alpha, epsilon=1e-4)
                c = solution.kept[p]
                assert solution.errors[p] is None
                got = solution.model(p)
                assert (got.gamma, got.alpha, got.effective_epsilon, got.requested_q) == (
                    gamma, alpha, want.effective_epsilon, 4
                )
                assert solution.warnings[p] == want.warnings
                assert c == want.n_components
                assert np.allclose(
                    solution.eigenvalues[p, :c], want.eigenvalues, rtol=1e-12, atol=0.0
                )
                scale = np.abs(want.coefficients).max()
                assert np.allclose(
                    solution.coefficients[p, :, :c], want.coefficients,
                    rtol=0.0, atol=1e-12 * scale,
                )

    def test_point_failures_are_returned_in_place(self):
        # a zero between factor at one point cannot be told apart from the
        # others by the factorization; every point reports the error solve raises
        solution = solve_plane(diagonal_scatters([0.0, 0.0], 2), [(0, 0)] * 2, 1, 1e-5)
        assert [str(e) for e in solution.errors] == [
            "no positive eigenvalues: the between-class scatter is zero"
        ] * 2
        assert all(isinstance(e, SolverError) for e in solution.errors)
        assert solution.kept.tolist() == [0, 0]


def rbf_case(n, scale, seed=0, n_classes=3):
    """An RBF Gram matrix of n rows at scale times the median bandwidth."""
    rng = np.random.default_rng(seed)
    data = random_dataset(rng, n_domains=3, n_classes=n_classes, n=n, d=2, domain_shift=0.5)
    spec = ci.KernelSpec("rbf", scale * ci.median_bandwidth(data.features))
    Kc = ci.center_train(ci.gram(data.features, data.features, spec))
    return Kc, ci.build_weights(ci.group_index(data))


# (n, bandwidth scale): every one has numerical rank m with 2m <= n
REDUCED_CASES = [(150, 2.0), (220, 1.0), (300, 4.0), (400, 1.5)]


class TestRangeBasis:
    """The reduced solve in range_basis coordinates against the dense one."""

    @pytest.mark.parametrize("n, scale", REDUCED_CASES)
    def test_orthonormal_basis_of_the_range(self, n, scale):
        Kc, _ = rbf_case(n, scale)
        Q = range_basis(Kc)
        assert Q is not None and Q.shape[0] == n and 2 * Q.shape[1] <= n
        assert np.allclose(Q.T @ Q, np.eye(Q.shape[1]), rtol=0.0, atol=1e-12)
        assert np.linalg.norm(Kc - Q @ (Q.T @ Kc)) <= 1e-10 * np.linalg.norm(Kc)

    def test_identity_when_the_rank_exceeds_half(self):
        Kc, _ = rbf_case(150, 0.05)
        assert np.linalg.matrix_rank(Kc) > 75
        assert range_basis(Kc) is None
        # a zero Gram matrix has nothing to reduce: the dense path reports it
        assert range_basis(np.zeros((150, 150))) is None

    @pytest.mark.parametrize("n, scale", REDUCED_CASES)
    def test_plane_matches_dense(self, n, scale):
        Kc, w = rbf_case(n, scale)
        Q = range_basis(Kc)
        plane = [(0.0, 0.0), (0.1, 1.0), (1.0, 1.0), (10.0, 0.5)]
        for q in (2, 6):
            want = solve_plane(ci.scatter_set(Kc, w), plane, q, 1e-5)
            got = solve_plane(ci.scatter_set(Q.T @ Kc, w, Q), plane, q, 1e-5)
            assert_same_solution(got, want, Kc)

    @pytest.mark.parametrize("n, scale", REDUCED_CASES)
    def test_kpca_matches_dense(self, n, scale):
        Kc, _ = rbf_case(n, scale)
        Q = range_basis(Kc)
        for q in (1, 5, 12):
            assert_same_solution(solve_kpca(Kc, q, Q), solve_kpca(Kc, q), Kc)

    def test_q_above_the_rank(self):
        Kc, w = rbf_case(300, 4.0)
        Q = range_basis(Kc)
        q = Q.shape[1] + 3
        got = solve_kpca(Kc, q, Q)
        want = solve_kpca(Kc, q)
        assert got.coefficients.shape[2] == Q.shape[1] < want.coefficients.shape[2]
        assert got.warnings[0] and got.warnings == want.warnings
        assert_same_solution(got, want, Kc)
        plane = [(1.0, 1.0)]
        assert_same_solution(
            solve_plane(ci.scatter_set(Q.T @ Kc, w, Q), plane, q, 1e-5),
            solve_plane(ci.scatter_set(Kc, w), plane, q, 1e-5),
            Kc,
        )

    def test_zero_between_factor_fails_every_point_as_dense(self):
        # one class: every pooled class mean is the overall mean, so the
        # between factor is a zero column in either coordinates
        Kc, w = rbf_case(200, 2.0, n_classes=1)
        Q = range_basis(Kc)
        assert Q is not None
        plane = [(0.0, 0.0), (1.0, 1.0)]
        got = solve_plane(ci.scatter_set(Q.T @ Kc, w, Q), plane, 2, 1e-5)
        want = solve_plane(ci.scatter_set(Kc, w), plane, 2, 1e-5)
        assert got.kept.tolist() == want.kept.tolist() == [0, 0]
        assert [str(e) for e in got.errors] == [str(e) for e in want.errors] == [
            "no positive eigenvalues: the between-class scatter is zero"
        ] * 2

    def test_basis_shape_is_checked(self):
        Kc, w = rbf_case(150, 2.0)
        Q = range_basis(Kc)
        with pytest.raises(SolverError, match="inconsistent shapes"):
            solve_plane(ci.scatter_set(Q.T @ Kc, w, Q[:, 1:]), [(1.0, 1.0)], 2, 1e-5)


class TestProjectionModel:
    def test_validation(self):
        with pytest.raises(SolverError):
            ci.ProjectionModel(
                coefficients=np.ones((3, 2)),
                eigenvalues=np.ones(3),
                gamma=1.0, alpha=1.0, effective_epsilon=1e-5, requested_q=2,
            )
        with pytest.raises(SolverError, match="no components"):
            ci.ProjectionModel(
                coefficients=np.ones((3, 0)),
                eigenvalues=np.ones(0),
                gamma=1.0, alpha=1.0, effective_epsilon=1e-5, requested_q=1,
            )
        with pytest.raises(SolverError, match="positive and non-increasing"):
            ci.ProjectionModel(
                coefficients=np.ones((3, 2)),
                eigenvalues=np.array([1.0, 2.0]),
                gamma=1.0, alpha=1.0, effective_epsilon=1e-5, requested_q=2,
            )

    def test_projection_basis_scaling(self):
        model = ci.solve(diagonal_scatters([4.0, 1.0, 0.0], 3), 2)
        basis = projection_basis(model.coefficients, model.eigenvalues)
        assert np.allclose(basis, model.coefficients / np.sqrt(model.eigenvalues)[None, :])


class TestProject:
    def fitted(self, rng, mode_data=None):
        data = mode_data or random_dataset(rng, n=16, d=3, domain_shift=0.5)
        method = ci.Method("cidg", q=4)
        spec = ci.KernelSpec(bandwidth=1.5)
        return data, ci.fit_baseline(method, data, spec)

    def test_train_projection_matches_direct_formula(self, rng):
        data, model = self.fitted(rng)
        K = ci.gram(data.features, data.features, model.kernel_spec)
        Kc = ci.center_train(K)
        want = Kc.T @ projection_basis(model.coefficients, model.eigenvalues)
        got = ci.project(model, data.features, mode="paper")
        assert np.allclose(got, want, atol=1e-10)

    def test_modes_differ_on_new_points(self, rng):
        data, model = self.fitted(rng)
        z = rng.normal(size=(5, 3)) + 2.0
        paper = ci.project(model, z, mode="paper")
        standard = ci.project(model, z, mode="standard")
        assert paper.shape == standard.shape == (5, model.n_components)
        assert not np.allclose(paper, standard)

    def test_standard_mode_is_batch_invariant(self, rng):
        # standard centering uses training statistics only, so a row's
        # coordinates do not depend on the rows projected with it
        _, model = self.fitted(rng)
        batch = rng.normal(size=(50, 3)) + 1.0
        together = ci.project(model, batch, mode="standard")
        alone = np.vstack(
            [ci.project(model, batch[i : i + 1], mode="standard") for i in range(50)]
        )
        assert np.abs(alone - together).max() <= 1e-12

    @pytest.mark.parametrize("mode", ["paper", "standard"])
    def test_row_permutation_permutes_output(self, rng, mode):
        # in both modes a batch's coordinates do not depend on its row order
        _, model = self.fitted(rng)
        batch = rng.normal(size=(40, 3)) + 1.0
        perm = rng.permutation(40)
        got = ci.project(model, batch[perm], mode=mode)
        want = ci.project(model, batch, mode=mode)[perm]
        assert np.abs(got - want).max() <= 1e-12

    def test_paper_mode_depends_on_the_batch(self, rng):
        # paper centering sums over the projected batch: the same rows
        # projected in a larger batch move, unlike standard mode's
        _, model = self.fitted(rng)
        batch = rng.normal(size=(40, 3)) + 1.0
        alone = ci.project(model, batch[:5], mode="paper")
        inside = ci.project(model, batch, mode="paper")[:5]
        assert np.abs(alone - inside).max() > 1e-6

    def test_requires_kernel_context(self):
        model = ci.solve(diagonal_scatters([4.0, 1.0, 0.0], 3), 1)
        with pytest.raises(SolverError, match="context"):
            ci.project(model, np.ones((2, 3)))

    def test_rejects_wrong_width_and_nonfinite(self, rng):
        data, model = self.fitted(rng)
        with pytest.raises(SolverError, match="columns"):
            ci.project(model, np.ones((2, 7)))
        bad = np.ones((2, 3))
        bad[0, 0] = np.inf
        with pytest.raises(SolverError, match="non-finite"):
            ci.project(model, bad)


class TestModelSerialization:
    def test_round_trip_is_exact(self, rng, tmp_path):
        data = random_dataset(rng, n=15, d=3)
        model = ci.fit_baseline(ci.Method("cidg", q=3), data, ci.KernelSpec(bandwidth=1.2))
        path = tmp_path / "m.model"
        ci.save_model(model, path)
        back = ci.load_model(path)
        assert np.array_equal(back.coefficients, model.coefficients)
        assert np.array_equal(back.eigenvalues, model.eigenvalues)
        assert np.array_equal(back.training_features, model.training_features)
        assert back.kernel_spec == model.kernel_spec
        assert back.gamma == model.gamma and back.alpha == model.alpha
        assert back.effective_epsilon == model.effective_epsilon
        assert back.requested_q == model.requested_q
        assert back.warnings == model.warnings
        assert back.centering.n == model.centering.n
        assert np.array_equal(back.centering.row_means, model.centering.row_means)
        assert back.centering.grand_mean == model.centering.grand_mean

    def test_round_trip_preserves_projections(self, rng, tmp_path):
        data = random_dataset(rng, n=15, d=3)
        model = ci.fit_baseline(ci.Method("kfda", q=2), data, ci.KernelSpec(bandwidth=0.9))
        path = tmp_path / "m.model"
        ci.save_model(model, path)
        back = ci.load_model(path)
        z = rng.normal(size=(6, 3))
        for mode in ("paper", "standard"):
            assert np.array_equal(
                ci.project(model, z, mode=mode), ci.project(back, z, mode=mode)
            )

    def test_round_trip_keeps_warnings(self, rng, tmp_path):
        data = random_dataset(rng, n=12, d=2)
        # q above the positive-eigenvalue count forces a truncation warning
        model = ci.fit_baseline(ci.Method("cidg", q=11), data, ci.KernelSpec(bandwidth=1.0))
        assert model.warnings
        path = tmp_path / "m.model"
        ci.save_model(model, path)
        assert ci.load_model(path).warnings == model.warnings

    def test_context_free_model_cannot_save(self, tmp_path):
        model = ci.solve(diagonal_scatters([2.0, 1.0], 2), 1)
        with pytest.raises(SolverError, match="context"):
            ci.save_model(model, tmp_path / "m.model")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_bytes(b"NOTAMODL" + b"\0" * 64)
        with pytest.raises(SolverError, match="magic"):
            ci.load_model(path)

    def test_truncated_file(self, rng, tmp_path):
        data = random_dataset(rng, n=12, d=2)
        model = ci.fit_baseline(ci.Method("kpca", q=2), data, ci.KernelSpec(bandwidth=1.0))
        path = tmp_path / "m.model"
        ci.save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(SolverError, match="truncated|corrupt"):
            ci.load_model(path)

    def test_trailing_bytes(self, rng, tmp_path):
        data = random_dataset(rng, n=12, d=2)
        model = ci.fit_baseline(ci.Method("kpca", q=2), data, ci.KernelSpec(bandwidth=1.0))
        path = tmp_path / "m.model"
        ci.save_model(model, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(SolverError, match="trailing"):
            ci.load_model(path)

    def test_unsupported_version(self, rng, tmp_path):
        data = random_dataset(rng, n=12, d=2)
        model = ci.fit_baseline(ci.Method("kpca", q=2), data, ci.KernelSpec(bandwidth=1.0))
        path = tmp_path / "m.model"
        ci.save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = (99).to_bytes(4, "little")  # version field follows the magic
        path.write_bytes(bytes(blob))
        with pytest.raises(SolverError, match="version"):
            ci.load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SolverError, match="not found"):
            ci.load_model(tmp_path / "absent.model")


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """Bytes of a saved cidg model with a warning, and a scratch path."""
    data = random_dataset(np.random.default_rng(21), n=12, d=2)
    model = ci.fit_baseline(ci.Method("cidg", q=11), data, ci.KernelSpec(bandwidth=1.0))
    assert model.warnings
    path = tmp_path_factory.mktemp("fuzz") / "m.model"
    ci.save_model(model, path)
    return path.read_bytes(), path


def load_or_none(path, blob):
    """load_model on blob: the model, or None on SolverError; anything else raises."""
    path.write_bytes(blob)
    try:
        return ci.load_model(path)
    except SolverError:
        return None


# byte offsets of the header fields after the 8-byte magic
_N_OFF, _D_OFF, _Q_OFF, _BW_OFF = 16, 24, 32, 48


class TestLoadModelFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_truncations_raise_solver_error(self, saved_model, data):
        blob, path = saved_model
        cut = data.draw(st.integers(0, len(blob) - 1))
        assert load_or_none(path, blob[:cut]) is None

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bit_flips_raise_only_solver_error(self, saved_model, data):
        blob, path = saved_model
        flips = data.draw(
            st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 7)),
                     min_size=1, max_size=8)
        )
        out = bytearray(blob)
        for pos, bit in flips:
            out[pos] ^= 1 << bit
        load_or_none(path, bytes(out))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_inconsistent_counts_raise_solver_error(self, saved_model, data):
        blob, path = saved_model
        out = bytearray(blob)
        offset = data.draw(st.sampled_from([_N_OFF, _D_OFF, _Q_OFF]))
        (old,) = struct.unpack_from("<Q", blob, offset)
        value = data.draw(
            st.one_of(st.integers(0, 64), st.integers(2**62, 2**64 - 1), st.integers(0, 2**64 - 1))
            .filter(lambda v: v != old)
        )
        struct.pack_into("<Q", out, offset, value)
        assert load_or_none(path, bytes(out)) is None

    @settings(max_examples=100, deadline=None)
    @given(st.floats(max_value=0.0) | st.just(float("nan")))
    def test_invalid_bandwidth_raises_solver_error(self, saved_model, bandwidth):
        blob, path = saved_model
        out = bytearray(blob)
        struct.pack_into("<d", out, _BW_OFF, bandwidth)
        assert load_or_none(path, bytes(out)) is None
