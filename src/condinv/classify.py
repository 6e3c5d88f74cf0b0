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

import numbers
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .dataset import LabeledDataset, group_index
# gram, center_train and solve stay bound here only for perfbench's tracer
from .kernel import (
    CenteringStats,
    KernelSpec,
    center_gram,
    center_train,
    centered_gram,
    gram,
    resolve_bandwidth,
)
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
    GramFactor,
    PlaneSolution,
    ProjectionModel,
    default_q,
    factor_gram,
    pivot_projection,
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
    ks = np.asarray(ks, dtype=object).reshape(-1)  # each k as the caller gave it
    if ks.size == 0 or not all(
        isinstance(k, numbers.Real) and not isinstance(k, bool) and k % 1 == 0 and 1 <= k <= n
        for k in ks
    ):
        listed = ", ".join(map(str, ks)) or "none"
        raise ClassifyError(f"k must lie in the integers 1..{n}, got {listed}")
    ks = ks.astype(np.int64)
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
class KernelHead:
    """The part of a fit that depends on the data and kernel only.

    Everything here is fixed once the training set and the bandwidth are,
    whatever the method: the resolved kernel, the centering statistics of
    the Gram matrix K, the default q, and the centered Gram matrix Kc in
    the coordinates the solve works in. A head whose partial pivoted
    Cholesky factor K = H H' (solver.factor_gram) stops by n / 2 columns
    keeps that factor, the orthonormal range basis Q of Hc = H less its
    column means, Hc = Q R (n x m), and Kc as Q' Kc = R Hc' (m x n); no
    n x n matrix is formed. Otherwise factor and basis are None and Kc is
    the n x n centered Gram matrix itself, centered in K's own buffer.
    prepare_fit builds one, or takes one that kernel_head built, so the
    grid builds one per bandwidth scale for every method it searches.
    """

    spec: KernelSpec
    features: np.ndarray
    centering: CenteringStats
    Kc: np.ndarray
    default_q: int
    basis: np.ndarray | None
    factor: GramFactor | None


@dataclass(frozen=True)
class PreparedFit(KernelHead):
    """A KernelHead plus what method ``tag`` adds before it solves.

    For the pencil methods that is the scatter matrices, whose factors are
    m x r and whose within term is m x m, in the basis's coordinates.
    fit_plane adds gamma, alpha, epsilon and q, so one PreparedFit serves
    every point of a (gamma, alpha, epsilon, q) grid. The training
    coordinates Kc P of a model fitted from it, P its projection_basis,
    are Kc.T @ P, or Kc.T @ (Q' P) with a basis Q.
    """

    tag: str
    scatters: ScatterSet | None = None
    adjustments: tuple[str, ...] = ()


def kernel_head(train: LabeledDataset, spec: KernelSpec) -> KernelHead:
    """The method-independent head of a fit on train.

    The bandwidth is resolved on the training features when the spec
    carries the "median" sentinel.
    """
    spec = resolve_bandwidth(spec, train.features)
    x, n = train.features, train.n
    q = default_q(n, len(train.class_ids), len(train.domain_ids))
    factor, K = factor_gram(x, spec)
    if factor is None:  # the dense head, centered in K's own buffer
        Kc, stats = centered_gram(x, spec) if K is None else (K, center_gram(K))
        return KernelHead(spec, x, stats, Kc, q, None, None)
    H = factor.H
    s = H.sum(axis=0)  # H' 1
    Hc = H - s / n
    Q, R = np.linalg.qr(Hc)
    row_means = H @ (s / n)
    row_means.flags.writeable = False
    stats = CenteringStats(n, row_means, float(s @ s) / (n * n))
    return KernelHead(spec, x, stats, R @ Hc.T, q, Q, factor)


def prepare_fit(
    tag: str,
    train: LabeledDataset,
    spec: KernelSpec | KernelHead,
    lenient: bool = False,
) -> PreparedFit:
    """Kernel, centering and scatters for fitting method ``tag`` on train.

    spec is the kernel, whose head kernel_head builds here, or a head it
    built on train already. Only cidg reads per-(domain, class) weights,
    so only cidg needs every class in every domain (or lenient).
    """
    if tag == "raw_knn":
        raise ClassifyError("raw_knn has no projection model to fit")
    if tag not in METHOD_TAGS:
        raise ClassifyError(f"unknown method {tag!r}; use one of {METHOD_TAGS}")
    head = spec if isinstance(spec, KernelHead) else kernel_head(train, spec)
    prepared = partial(PreparedFit, **{f.name: getattr(head, f.name) for f in fields(KernelHead)})
    if tag == "kpca":
        return prepared(tag=tag)
    groups = group_index(train)
    rows, Q = head.Kc, head.basis  # the scatters in Q's coordinates
    if tag == "cidg":
        weights = build_weights(groups, lenient=lenient)
        return prepared(
            tag=tag, scatters=scatter_set(rows, weights, Q), adjustments=weights.adjustments
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
    return prepared(tag=tag, scatters=scatters)


def fit_plane(methods: Sequence[Method], prepared: PreparedFit) -> PlaneSolution:
    """The bare solutions of methods that differ only in gamma and alpha.

    The grid fits whole planes here, fit_baseline a plane of one. The
    methods must carry the preparation's tag; q None is its default q.
    The pencil methods share one solve_plane call; kpca has no gamma or
    alpha, so its plane holds one method and takes one solve_kpca call.
    Point p of the result belongs to methods[p] and carries the SolverError
    fit_baseline would raise for it alone. An error common to every method
    (a failed factorization, an invalid parameter) is raised.
    """
    first = methods[0]
    if any((m.tag, m.epsilon, m.q) != (first.tag, first.epsilon, first.q) for m in methods):
        raise ClassifyError("a plane's methods must share their tag, epsilon and q")
    if first.tag != prepared.tag:
        raise ClassifyError(f"a {prepared.tag} preparation cannot fit {first.tag}")
    q = prepared.default_q if first.q is None else first.q
    if first.tag == "kpca":
        if len(methods) > 1:
            raise ClassifyError("kpca has no gamma or alpha: its plane holds one method")
        return solve_kpca(prepared.Kc, q, prepared.basis)
    # dica_marginal weighs its domain scatter (stored as the prior) by 1;
    # kfda leaves between vs within + ridge
    fixed = {"dica_marginal": (0.0, 1.0), "kfda": (0.0, 0.0)}.get(first.tag)
    weights = [fixed or (m.gamma, m.alpha) for m in methods]
    return solve_plane(prepared.scatters, weights, q, first.epsilon)


def fit_baseline(
    method: Method,
    train: LabeledDataset,
    spec: KernelSpec,
    lenient: bool = False,
) -> ProjectionModel:
    """Fit the projection for any method except raw_knn, as a plane of one.

    The bandwidth is resolved on the training features when the spec
    carries the "median" sentinel. The model gets the resolved spec, the
    training features and their centering, so it projects on its own, and
    any lenient-weight adjustments as warnings. A model whose kernel head
    is factored also gets its pivot projection (solver.pivot_projection).
    """
    prepared = prepare_fit(method.tag, train, spec, lenient)
    model = fit_plane([method], prepared).model(0)
    model = replace(
        model, warnings=model.warnings + prepared.adjustments, kernel_spec=prepared.spec,
        training_features=prepared.features, centering=prepared.centering,
    )
    if prepared.factor is None:
        return model
    return replace(model, pivots=pivot_projection(prepared.factor, model))
