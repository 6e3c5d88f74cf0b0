"""Kernel matrices, bandwidth selection and Gram centering.

The RBF kernel k(x, x') = exp(-||x - x'||^2 / (2 sigma^2)) is the only
user-facing family; a linear kernel is provided for test oracles where the
feature map must be concrete. Centering comes in two flavours: the training
Gram matrix is centered symmetrically, while cross kernels between training
and new samples support two modes (see center_cross).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

MEDIAN = "median"

_FAMILIES = ("rbf", "linear")


class KernelError(ValueError):
    """Invalid kernel parameters or mismatched matrix shapes."""


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth (a positive number or "median").

    The "median" sentinel defers bandwidth choice to the data at fit time;
    resolve_bandwidth turns it into a concrete value. The linear family is
    internal, used by test oracles only, and ignores the bandwidth.
    """

    family: str = "rbf"
    bandwidth: float | str = MEDIAN

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise KernelError(f"unknown kernel family {self.family!r}; use one of {_FAMILIES}")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != MEDIAN:
                raise KernelError(
                    f"bandwidth must be a positive number or {MEDIAN!r}, got {self.bandwidth!r}"
                )
        elif not self.bandwidth > 0:
            raise KernelError(f"bandwidth must be > 0, got {self.bandwidth}")

    @property
    def resolved(self) -> bool:
        return not isinstance(self.bandwidth, str)


def median_bandwidth(features: np.ndarray, max_points: int = 1000, seed: int = 0) -> float:
    """Median pairwise Euclidean distance over a seeded subsample.

    At most ``max_points`` rows enter the pairwise computation; larger
    inputs are subsampled without replacement using default_rng(seed).
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise KernelError("median bandwidth needs at least 2 samples")
    if x.shape[0] > max_points:
        keep = np.random.default_rng(seed).choice(x.shape[0], size=max_points, replace=False)
        x = x[np.sort(keep)]
    med = float(np.median(pdist(x)))
    if med <= 0.0:
        raise KernelError(
            "median pairwise distance is 0 (all points identical); "
            "set an explicit bandwidth"
        )
    return med


def resolve_bandwidth(spec: KernelSpec, features: np.ndarray, seed: int = 0) -> KernelSpec:
    """Replace a "median" bandwidth with its concrete value for this data."""
    if spec.resolved:
        return spec
    return KernelSpec(spec.family, median_bandwidth(features, seed=seed))


def gram(a: np.ndarray, b: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Kernel matrix with entry (i, j) = k(a_i, b_j)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise KernelError("gram expects 2-D inputs")
    if a.shape[1] != b.shape[1]:
        raise KernelError(
            f"feature dimensions differ: {a.shape[1]} vs {b.shape[1]}"
        )
    if spec.family == "linear":
        return a @ b.T
    if not spec.resolved:
        raise KernelError("bandwidth is unresolved; call resolve_bandwidth first")
    sq = cdist(a, b, metric="sqeuclidean")
    return np.exp(-sq / (2.0 * float(spec.bandwidth) ** 2))


@dataclass(frozen=True)
class CenteringStats:
    """Training-Gram statistics needed to center cross kernels later.

    n is always required; row_means and grand_mean of the uncentered
    training Gram matrix are used by the "standard" mode only.
    """

    n: int
    row_means: np.ndarray
    grand_mean: float

    @classmethod
    def from_train(cls, K: np.ndarray) -> "CenteringStats":
        K = np.asarray(K, dtype=np.float64)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise KernelError(f"training Gram matrix must be square, got {K.shape}")
        rm = K.mean(axis=1)
        rm.flags.writeable = False
        return cls(n=K.shape[0], row_means=rm, grand_mean=float(K.mean()))


def _center_source_form(Kt: np.ndarray, n: int) -> np.ndarray:
    # Kt - 1_n Kt - Kt 1_t + 1_n Kt 1_t with every averaging matrix holding
    # entries 1/n (including the right-hand one; see center_cross).
    col = Kt.mean(axis=0)
    rows = Kt.sum(axis=1) / n
    total = Kt.sum() / (n * n)
    return Kt - col[None, :] - rows[:, None] + total


def center_train(K: np.ndarray) -> np.ndarray:
    """Center a square Gram matrix: K - 1K - K1 + 1K1, 1 the all-(1/n) matrix.

    Idempotent; keeps symmetry; centered rows and columns sum to ~0.
    """
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise KernelError(f"center_train expects a square matrix, got {K.shape}")
    return _center_source_form(K, K.shape[0])


def center_cross_from_stats(Kt: np.ndarray, stats: CenteringStats, mode: str = "paper") -> np.ndarray:
    """Center an n x n_t cross kernel using stored training statistics.

    mode "paper" applies the source formulation verbatim: both averaging
    matrices carry entries 1/n, with n the training size, even on the
    n_t-sized right-hand side. It needs nothing from the training Gram
    matrix beyond n, and for Kt equal to the training matrix it coincides
    exactly with center_train. mode "standard" is conventional
    out-of-sample centering, (I - 1_n)(Kt - K 1_{n,n_t}/n), equivalent to
    subtracting training row means and the training grand mean; it matches
    what centering the underlying feature map would do.
    """
    Kt = np.asarray(Kt, dtype=np.float64)
    if Kt.ndim != 2:
        raise KernelError("cross kernel must be a 2-D matrix")
    if Kt.shape[0] != stats.n:
        raise KernelError(
            f"cross kernel has {Kt.shape[0]} rows, training size is {stats.n}"
        )
    if mode == "paper":
        return _center_source_form(Kt, stats.n)
    if mode == "standard":
        col = Kt.mean(axis=0)
        return Kt - col[None, :] - stats.row_means[:, None] + stats.grand_mean
    raise KernelError(f"unknown centering mode {mode!r}; use 'paper' or 'standard'")


def center_cross(Kt: np.ndarray, K: np.ndarray, mode: str = "paper") -> np.ndarray:
    """Center a cross kernel given the uncentered training Gram matrix K.

    See center_cross_from_stats for the two modes; this wrapper computes
    the training statistics on the fly.
    """
    return center_cross_from_stats(Kt, CenteringStats.from_train(K), mode)
