"""Scatter matrices over the centered Gram matrix, in coefficient form.

Every empirical mean embedding used here is a weighted sum of training
feature maps, so it is fully described by a length-n weight vector; a
difference of two means maps to K @ (difference of weight vectors). The
four scatter matrices are therefore sums of K v v' K outer products and
never materialize the feature map. All but the within-class one are kept
as their n x r factors G (scatter = G G'), r the number of mean offsets:

  conditional  - spread of per-domain class-conditional means around the
                 cross-domain mean of each class, averaged over domains
  prior        - spread of per-domain class-balanced (prior-normalized)
                 marginal means around their cross-domain mean
  between      - class-count-weighted spread of pooled class means around
                 the pooled overall mean
  within       - total deviation of each sample from its pooled class mean

Every builder reads K only through products K @ v, so it accepts either
the n x n centered Gram matrix or its rows Q' K in the coordinates of an
orthonormal basis Q of its range (classify.kernel_head; n x rank). The
second gives every factor as Q' G (rank x r) and the within scatter as
Q' K M K Q (rank x rank), with no n x n product formed.

Weight entries are computed as single divisions of integer products
(e.g. 1/(C * n_js)), which keeps the documented degenerate cases exact in
floating point: balanced classes make the prior-normalized vectors equal
per-domain uniform vectors bitwise, and a single domain makes the
conditional and prior scatters exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dataset import GroupIndex


class ScatterError(ValueError):
    """Inconsistent groups or matrix shapes."""


class MissingClassError(ScatterError):
    """A class has no samples in some domain (strict weight building)."""


@dataclass(frozen=True)
class WeightSet:
    """Weight vectors describing the empirical mean embeddings.

    class_domain[(s, j)] : 1/n_js on the (domain s, class j) rows
    class_mean[j]        : cross-domain average of class_domain[(., j)]
    prior_normalized[s]  : class-balanced marginal of domain s
    prior_mean           : cross-domain average of prior_normalized
    class_total[j]       : 1/n_j on all class-j rows
    uniform              : 1/n everywhere
    adjustments          : notes recorded by lenient building
    """

    n: int
    class_domain: Mapping[tuple[int, int], np.ndarray]
    class_mean: Mapping[int, np.ndarray]
    prior_normalized: Mapping[int, np.ndarray]
    prior_mean: np.ndarray
    class_total: Mapping[int, np.ndarray]
    uniform: np.ndarray
    adjustments: tuple[str, ...] = ()


def _vec(n: int, pieces) -> np.ndarray:
    out = np.zeros(n)
    for idx, value in pieces:
        out[idx] = value
    out.flags.writeable = False
    return out


def build_weights(groups: GroupIndex, lenient: bool = False) -> WeightSet:
    """Construct all weight vectors from a (domain, class) partition.

    Strict mode (default) requires every class to appear in every domain.
    Lenient mode instead averages each class's cross-domain mean over only
    the domains that contain it, and balances each domain's prior-normalized
    vector over only the classes it contains, recording every such
    adjustment.
    """
    domains = groups.domain_ids
    classes = groups.class_ids
    n, m = groups.n, len(domains)
    missing = [(s, j) for s in domains for j in classes if (s, j) not in groups.index_of]
    adjustments: list[str] = []
    if missing and not lenient:
        raise MissingClassError(
            "classes missing from some domains (domain, class): "
            f"{missing}; use lenient=True to average over present domains"
        )
    if missing:
        adjustments = [f"domain {s} has no class {j} samples" for s, j in missing]

    # domains containing class j / classes present in domain s
    doms_of = {j: [s for s in domains if (s, j) in groups.index_of] for j in classes}
    cls_of = {s: [j for j in classes if (s, j) in groups.index_of] for s in domains}

    class_domain = {
        (s, j): _vec(n, [(groups.index_of[(s, j)], 1.0 / groups.counts[(s, j)])])
        for (s, j) in groups.index_of
    }
    class_mean = {
        j: _vec(
            n,
            [
                (groups.index_of[(s, j)], 1.0 / (len(doms_of[j]) * groups.counts[(s, j)]))
                for s in doms_of[j]
            ],
        )
        for j in classes
    }
    prior_normalized = {
        s: _vec(
            n,
            [
                (groups.index_of[(s, j)], 1.0 / (len(cls_of[s]) * groups.counts[(s, j)]))
                for j in cls_of[s]
            ],
        )
        for s in domains
    }
    prior_mean = _vec(
        n,
        [
            (groups.index_of[(s, j)], 1.0 / (m * len(cls_of[s]) * groups.counts[(s, j)]))
            for s in domains
            for j in cls_of[s]
        ],
    )
    class_total = {
        j: _vec(
            n,
            [(groups.index_of[(s, j)], 1.0 / groups.per_class[j]) for s in doms_of[j]],
        )
        for j in classes
    }
    uniform = _vec(n, [(np.arange(n), 1.0 / n)])
    return WeightSet(
        n=n,
        class_domain=class_domain,
        class_mean=class_mean,
        prior_normalized=prior_normalized,
        prior_mean=prior_mean,
        class_total=class_total,
        uniform=uniform,
        adjustments=tuple(adjustments),
    )


def uniform_domain_weights(groups: GroupIndex) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Per-domain uniform vectors (1/n_s on each domain) and their average.

    These describe the plain per-domain marginal means, ignoring class
    priors; the marginal-invariance baseline builds its domain scatter
    from them.
    """
    domains = groups.domain_ids
    m, n = len(domains), groups.n
    per_domain = {}
    for s in domains:
        idx = np.concatenate(
            [groups.index_of[(s, j)] for j in groups.class_ids if (s, j) in groups.index_of]
        )
        per_domain[s] = _vec(n, [(idx, 1.0 / groups.per_domain[s])])
    mean = _vec(
        n,
        [
            (np.flatnonzero(per_domain[s]), 1.0 / (m * groups.per_domain[s]))
            for s in domains
        ],
    )
    return per_domain, mean


def _check_k(K: np.ndarray, n: int) -> np.ndarray:
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[1] != n:
        raise ScatterError(f"Gram matrix shape {K.shape} does not match n={n}")
    return K


def conditional_scatter(K: np.ndarray, w: WeightSet) -> np.ndarray:
    """n x mC factor of the spread of per-domain class-conditional means.

    Column (s, j) is K (a_sj - abar_j) / sqrt(m_j), m_j the number of
    domains containing class j, so the factor times its transpose sums the
    outer products, each class's terms averaged over its domains (all
    domains in strict mode).
    """
    K = _check_k(K, w.n)
    pairs = sorted(w.class_domain)
    diffs = np.stack([w.class_domain[(s, j)] - w.class_mean[j] for s, j in pairs], axis=1)
    doms_per_class = {j: sum(1 for s2, j2 in pairs if j2 == j) for _, j in pairs}
    inv_m = np.array([1.0 / doms_per_class[j] for _, j in pairs])
    return (K @ diffs) * np.sqrt(inv_m)[None, :]


def domain_scatter(K: np.ndarray, vectors: Mapping[int, np.ndarray], mean: np.ndarray) -> np.ndarray:
    """n x m factor of the average over domains of K (mean - v_s)(mean - v_s)' K."""
    keys = sorted(vectors)
    n = mean.shape[0]
    K = _check_k(K, n)
    diffs = np.stack([mean - vectors[s] for s in keys], axis=1)
    return (K @ diffs) / np.sqrt(len(keys))


def prior_scatter(K: np.ndarray, w: WeightSet) -> np.ndarray:
    """n x m factor of the spread of per-domain prior-normalized marginal means."""
    return domain_scatter(K, w.prior_normalized, w.prior_mean)


def between_scatter(K: np.ndarray, w: WeightSet) -> np.ndarray:
    """n x C factor F of the between-class scatter F @ F.T.

    Column j, K (class_total_j - uniform) sqrt(n_j), is pooled class j's
    mean offset; F @ sqrt(counts) = 0, so the scatter has rank <= C - 1.
    """
    K = _check_k(K, w.n)
    classes = sorted(w.class_total)
    diffs = np.stack([w.class_total[j] - w.uniform for j in classes], axis=1)
    counts = np.array([float(np.count_nonzero(w.class_total[j])) for j in classes])
    return (K @ diffs) * np.sqrt(counts)[None, :]


def within_scatter(K: np.ndarray, w: WeightSet) -> np.ndarray:
    """Total deviation of samples from their pooled class means: K M K.

    M is the identity minus the block-diagonal class-averaging matrix
    (1/n_j on each class-j block). M is symmetric and idempotent, so
    K M K = (K M)(K M)', where K M is K less each class's mean column.
    From rows Q' K this is Q' K M K Q = Y' Y, with Y = M (K Q) the rows of
    K Q less each class's mean row.
    NumPy forms a product with its own transpose by one symmetric rank-k
    update, which fills both triangles from one, so the result is exactly
    symmetric.
    """
    K = _check_k(K, w.n)
    KM = K.copy()
    for cj in w.class_total.values():
        idx = np.flatnonzero(cj)
        KM[:, idx] -= K[:, idx].mean(axis=1, keepdims=True)
    return KM @ KM.T


@dataclass(frozen=True)
class ScatterSet:
    """The scatters used by the eigensolver.

    Each *_factor is an n x r matrix G whose scatter is G @ G.T; the
    solver works on the factors and never expands them. An n x 0 factor
    stands for a zero scatter. When basis is an orthonormal Q (n x rank,
    see classify.kernel_head), the factors are rank x r and within is
    rank x rank, all in its coordinates: Q' G and Q' W Q. Only between
    keeps an expanding property, because perfbench's tracer
    (perfbench/tracing.py) reads the size of the solved pencil from it;
    tests expand any factor themselves.
    """

    conditional_factor: np.ndarray
    prior_factor: np.ndarray
    between_factor: np.ndarray
    within: np.ndarray
    basis: np.ndarray | None = None

    @property
    def between(self) -> np.ndarray:
        return self.between_factor @ self.between_factor.T


def scatter_set(K: np.ndarray, w: WeightSet, basis: np.ndarray | None = None) -> ScatterSet:
    """Build all four scatters from one centered Gram matrix.

    With a basis, K holds the rows basis.T @ Kc and the set records the
    basis its scatters are written in.
    """
    return ScatterSet(
        conditional_factor=conditional_scatter(K, w),
        prior_factor=prior_scatter(K, w),
        between_factor=between_scatter(K, w),
        within=within_scatter(K, w),
        basis=basis,
    )
