"""KNN classification head and the comparison feature learners.

Five methods share one interface. raw_knn classifies original features
directly and fits nothing. The remaining four learn a kernel-space
projection from training data and differ only in which scatter matrices
enter the eigensolver's pencil:

  kpca          top components of the centered Gram matrix itself
                (numerator K, denominator I), i.e. plain kernel PCA
  dica_marginal marginal-invariance reconstruction: between-class scatter
                against per-domain-uniform domain scatter + within-class
                scatter + ridge. This approximates domain-invariant
                component analysis inside this package's own scatter
                machinery (uniform weights ignore class priors); it is not
                the cited DICA algorithm, and reports label it accordingly.
  kfda          between-class vs within-class + ridge (kernel Fisher
                discriminant analysis); no domain terms
  cidg          the full conditional-invariance pencil: between-class vs
                gamma * conditional + alpha * prior + within + ridge

All four produce a ProjectionModel whose projection feeds the same KNN.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .dataset import LabeledDataset, group_index
from .kernel import CenteringStats, KernelSpec, center_train, gram, resolve_bandwidth
from .scatter import (
    ScatterSet,
    between_scatter,
    build_weights,
    domain_scatter,
    scatter_set,
    uniform_domain_weights,
    within_scatter,
)
from .solver import (
    PlaneSolution,
    ProjectionModel,
    default_q,
    range_basis,
    solve,
    solve_kpca,
    solve_plane,
)

METHOD_TAGS = ("raw_knn", "kpca", "dica_marginal", "kfda", "cidg")


class ClassifyError(ValueError):
    """Invalid method parameters or classification inputs."""


@dataclass(frozen=True)
class Method:
    """A method tag plus the parameters of its pencil.

    gamma/alpha apply to cidg only; epsilon to cidg, kfda and
    dica_marginal; q to every projection method (None picks
    min(n - 1, classes * domains) at fit time). Only the tag is checked
    here: the solver checks the values a method uses when it fits.
    """

    tag: str
    gamma: float = 1.0
    alpha: float = 1.0
    epsilon: float = 1e-5
    q: int | None = None

    def __post_init__(self):
        if self.tag not in METHOD_TAGS:
            raise ClassifyError(f"unknown method {self.tag!r}; use one of {METHOD_TAGS}")


def knn_votes(
    train_feats: np.ndarray,
    train_labels: np.ndarray,
    test_feats: np.ndarray,
    ks,
) -> np.ndarray:
    """k-nearest-neighbor majority votes for several k from one neighbor order.

    Row r of the result holds the predictions for ks[r], each equal to
    knn_predict(..., ks[r]). Neighbors are ranked once, for the largest k;
    vote counts and distance sums accumulate along that order, so every
    smaller k reads its prefix.

    Stacks, train (P, n, d) and test (P, m, d) over the n shared labels,
    give (P, len(ks), m): slice p is knn_votes of train[p] and test[p].
    """
    train = np.asarray(train_feats, dtype=np.float64)
    labels = np.asarray(train_labels, dtype=np.int64)
    test = np.asarray(test_feats, dtype=np.float64)
    if train.ndim not in (2, 3) or test.ndim != train.ndim or (
        train.shape[:-2] + train.shape[-1:] != test.shape[:-2] + test.shape[-1:]
    ):
        raise ClassifyError(
            f"feature shapes are inconsistent: train {train.shape}, test {test.shape}"
        )
    n = train.shape[-2]
    if n == 0 or len(train) == 0:  # no rows, or an empty stack
        raise ClassifyError("empty training set")
    if labels.shape != (n,):
        raise ClassifyError("training labels do not match training features")
    ks = np.asarray(ks, dtype=np.int64).reshape(-1)
    if ks.size == 0 or ks.min() < 1 or ks.max() > n:
        raise ClassifyError(f"k must lie in 1..{n}, got {', '.join(map(str, ks)) or 'none'}")
    # a stack takes one cdist per slice, so every distance is bit for bit the 2-D one
    dists = cdist(test, train) if train.ndim == 2 else np.vstack(list(map(cdist, test, train)))
    nearest = _neighbor_order(dists, int(ks.max()))
    classes, codes = np.unique(labels, return_inverse=True)
    hit = codes[nearest][None, :, :] == np.arange(len(classes))[:, None, None]
    votes = np.cumsum(hit, axis=2)[:, :, ks - 1]
    # running sums in neighbor order; the masked zeros add exactly, so each
    # equals the per-class float sum taken neighbor by neighbor
    near = np.take_along_axis(dists, nearest, axis=1)
    sums = np.cumsum(np.where(hit, near[None], 0.0), axis=2)[:, :, ks - 1]
    tied = votes == votes.max(axis=0)
    low = np.where(tied, sums, np.inf).min(axis=0)
    # "not above" rather than "equal": a NaN distance sum must not take the
    # win from the class with the most votes
    winner = np.argmax(tied & ~(sums > low), axis=0)
    out = classes[winner.T]
    return out if train.ndim == 2 else out.reshape(ks.size, *test.shape[:2]).swapaxes(0, 1)


def _neighbor_order(dists: np.ndarray, k: int) -> np.ndarray:
    """Per test row, the k nearest training rows ranked by (distance, row index)."""
    kth = np.partition(dists, k - 1, axis=1)[:, k - 1 : k]
    near = dists <= kth
    exact = np.count_nonzero(near, axis=1) == k
    # a row with exactly k candidates lists them in index order, so the
    # stable sort of their distances ranks them by (distance, row index)
    rows = np.flatnonzero(exact)
    cand = (np.flatnonzero(near[rows]) % dists.shape[1]).reshape(-1, k)
    order = np.argsort(dists[rows[:, None], cand], axis=1, kind="stable")
    nearest = np.empty((len(dists), k), dtype=np.intp)
    nearest[rows] = np.take_along_axis(cand, order, axis=1)
    # a row with a tie at the k-th distance (or a NaN) takes the full stable sort
    redo = ~exact
    if redo.any():
        nearest[redo] = np.argsort(dists[redo], axis=1, kind="stable")[:, :k]
    return nearest


def knn_predict(
    train_feats: np.ndarray,
    train_labels: np.ndarray,
    test_feats: np.ndarray,
    k: int,
) -> np.ndarray:
    """k-nearest-neighbor majority vote under Euclidean distance.

    Deterministic and seed-free: neighbors are ranked by (distance, row
    index); among tied vote counts the class with the smallest summed
    neighbor distance wins, and a residual tie goes to the smallest class
    id.
    """
    return knn_votes(train_feats, train_labels, test_feats, (k,))[0]


def accuracy(predicted, truth) -> float:
    """Fraction of exact matches."""
    p = np.asarray(predicted)
    t = np.asarray(truth)
    if p.shape != t.shape:
        raise ClassifyError(f"length mismatch: {p.shape} vs {t.shape}")
    return float(np.mean(p == t))


@dataclass(frozen=True)
class PreparedFit:
    """The part of a fit that depends on the data and kernel only.

    Everything here is fixed once the method tag, the training set and the
    bandwidth are: the resolved kernel, the centered Gram matrix Kc and its
    centering statistics, the orthonormal range basis Q of Kc (n x m)
    that the solve works in (None, the identity, when Kc's numerical rank
    m exceeds n / 2; see solver.range_basis), and (for the pencil methods)
    the scatter matrices, whose factors are then m x r and whose within
    term is m x m, in Q's coordinates. fit_plane adds gamma, alpha,
    epsilon and q, so one PreparedFit serves every point of a
    (gamma, alpha, epsilon, q) grid. The training coordinates of any model
    fitted from it are Kc.T times its projection_basis, as project
    computes them.
    """

    tag: str
    spec: KernelSpec
    features: np.ndarray
    centering: CenteringStats
    Kc: np.ndarray
    default_q: int
    basis: np.ndarray | None = None
    scatters: ScatterSet | None = None
    adjustments: tuple[str, ...] = ()


def prepare_fit(
    tag: str,
    train: LabeledDataset,
    spec: KernelSpec,
    lenient: bool = False,
) -> PreparedFit:
    """Kernel, centering and scatters for fitting method ``tag`` on train.

    The bandwidth is resolved on the training features when the spec
    carries the "median" sentinel. Only cidg reads per-(domain, class)
    weights, so only cidg needs every class in every domain (or lenient).
    """
    if tag == "raw_knn":
        raise ClassifyError("raw_knn has no projection model to fit")
    if tag not in METHOD_TAGS:
        raise ClassifyError(f"unknown method {tag!r}; use one of {METHOD_TAGS}")
    spec = resolve_bandwidth(spec, train.features)
    X = train.features
    K = gram(X, X, spec)
    stats = CenteringStats.from_train(K)
    Kc = center_train(K)
    groups = group_index(train)
    q = default_q(train.n, len(groups.per_class), len(groups.per_domain))
    Q = range_basis(Kc)
    if tag == "kpca":
        return PreparedFit(tag, spec, X, stats, Kc, q, Q)
    rows = Kc if Q is None else Q.T @ Kc  # the scatters in Q's coordinates
    if tag == "cidg":
        weights = build_weights(groups, lenient=lenient)
        return PreparedFit(
            tag, spec, X, stats, Kc, q, Q, scatter_set(rows, weights, Q), weights.adjustments
        )
    # only the scatters the method's pencil weighs: dica_marginal's domain
    # scatter takes the prior's place, kfda has neither
    weights = build_weights(groups, lenient=True)
    none = np.zeros((rows.shape[0], 0))
    scatters = ScatterSet(
        conditional_factor=none,
        prior_factor=domain_scatter(rows, *uniform_domain_weights(groups))
        if tag == "dica_marginal" else none,
        between_factor=between_scatter(rows, weights),
        within=within_scatter(rows, weights),
        basis=Q,
    )
    return PreparedFit(tag, spec, X, stats, Kc, q, Q, scatters)


def _checked_q(method: Method, prepared: PreparedFit) -> int:
    """The method's q, or the preparation's default; the solver checks its range."""
    if method.tag != prepared.tag:
        raise ClassifyError(f"a {prepared.tag} preparation cannot fit {method.tag}")
    return prepared.default_q if method.q is None else method.q


def _pencil_weights(method: Method) -> tuple[float, float]:
    # dica_marginal weighs its domain scatter (stored as the prior) by 1;
    # kfda leaves between vs within + ridge
    return {"dica_marginal": (0.0, 1.0), "kfda": (0.0, 0.0)}.get(
        method.tag, (method.gamma, method.alpha)
    )


def fit_plane(methods: Sequence[Method], prepared: PreparedFit) -> PlaneSolution:
    """The bare solutions of methods that differ only in gamma and alpha.

    The pencil methods share one solve_plane call; kpca has no gamma or
    alpha, so its plane holds one method and takes one solve_kpca call.
    Point p of the result belongs to methods[p] and carries the SolverError
    fit_baseline would raise for it alone. An error common to every method
    (a failed factorization, an invalid parameter) is raised.
    """
    first = methods[0]
    if any((m.tag, m.epsilon, m.q) != (first.tag, first.epsilon, first.q) for m in methods):
        raise ClassifyError("a plane's methods must share their tag, epsilon and q")
    q = _checked_q(first, prepared)
    if first.tag == "kpca":
        if len(methods) > 1:
            raise ClassifyError("kpca has no gamma or alpha: its plane holds one method")
        return solve_kpca(prepared.Kc, q, prepared.basis)
    return solve_plane(prepared.scatters, [_pencil_weights(m) for m in methods], q, first.epsilon)


def fit_baseline(
    method: Method,
    train: LabeledDataset,
    spec: KernelSpec,
    lenient: bool = False,
) -> ProjectionModel:
    """Fit the projection for any method except raw_knn.

    The bandwidth is resolved on the training features when the spec
    carries the "median" sentinel. The model gets the resolved spec, the
    training features and their centering, so it projects on its own, and
    any lenient-weight adjustments as warnings.
    """
    prepared = prepare_fit(method.tag, train, spec, lenient)
    q = _checked_q(method, prepared)
    if method.tag == "kpca":
        model = solve_kpca(prepared.Kc, q, prepared.basis).model(0)
    else:
        model = solve(prepared.scatters, q, *_pencil_weights(method), method.epsilon)
    return replace(
        model, warnings=model.warnings + prepared.adjustments, kernel_spec=prepared.spec,
        training_features=prepared.features, centering=prepared.centering,
    )
