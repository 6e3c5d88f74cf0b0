"""Kernel matrices, bandwidth selection and Gram centering.

The RBF kernel k(x, x') = exp(-||x - x'||^2 / (2 sigma^2)) is the only
user-facing family; a linear kernel is provided for test oracles where the
feature map must be concrete. Centering comes in two flavours: the training
Gram matrix is centered symmetrically, while cross kernels between training
and new samples support two modes (see center_cross).

Each Gram matrix is built and centered in one buffer: gram exponentiates in
its distance matrix, and centered_gram and centered_cross_gram center that
matrix in place. center_gram centers a Gram matrix its caller built, in
place; no other public function mutates its inputs, and center_train and
center_cross_from_stats center a copy.
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
        elif isinstance(self.bandwidth, bool) or not (
            0 < self.bandwidth < np.inf and 0 < 2.0 * self.bandwidth * self.bandwidth < np.inf
        ):
            # gram divides by 2 sigma^2, which must not overflow or underflow to 0
            raise KernelError(
                f"bandwidth must be a positive finite number with 2 * bandwidth^2 finite "
                f"and above 0, got {self.bandwidth}"
            )

    @property
    def resolved(self) -> bool:
        return not isinstance(self.bandwidth, str)


def median_bandwidth(features: np.ndarray, max_points: int = 1000, seed: int = 0) -> float:
    """Median pairwise Euclidean distance over a seeded subsample.

    At most ``max_points`` rows enter the pairwise computation; larger
    inputs are subsampled without replacement using default_rng(seed).
    """
    if max_points < 2:
        raise KernelError(f"median bandwidth needs max_points >= 2, got {max_points}")
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise KernelError("median bandwidth needs at least 2 samples")
    if not np.isfinite(x).all():
        raise KernelError("median bandwidth needs finite features; they contain inf or NaN")
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
    # every entry is computed on its own, so a block of rows of gram(a, b)
    # is bitwise the gram of those rows of a
    k = cdist(a, b, metric="sqeuclidean")
    # bitwise equal to -k / (2 sigma^2): IEEE division is sign-symmetric
    k /= -(2.0 * float(spec.bandwidth) ** 2)
    return np.exp(k, out=k)


def gram_diagonal(x: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """The diagonal of gram(x, x, spec), without the matrix: 1 for rbf."""
    x = np.asarray(x, dtype=np.float64)
    return np.einsum("ij,ij->i", x, x) if spec.family == "linear" else np.ones(x.shape[0])


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


def _center(Kt: np.ndarray, n: int, stats: CenteringStats | None = None):
    # Kt - col - rows + total in place, in that order, col being Kt's column
    # means; returns (rows, total). These are the statistics of stats
    # ("standard") or Kt's row sums / n and total / n^2: the source form
    # Kt - 1_n Kt - Kt 1_t + 1_n Kt 1_t, every averaging matrix holding 1/n
    # (see center_cross).
    col = Kt.mean(axis=0)
    if stats is None:
        rows, total = Kt.sum(axis=1) / n, Kt.sum() / (n * n)
    else:
        rows, total = stats.row_means, stats.grand_mean
    Kt -= col[None, :]
    Kt -= rows[:, None]
    Kt += total
    return rows, total


def _center_cross(Kt: np.ndarray, stats: CenteringStats, mode: str) -> np.ndarray:
    if Kt.ndim != 2:
        raise KernelError("cross kernel must be a 2-D matrix")
    if Kt.shape[0] != stats.n:
        raise KernelError(
            f"cross kernel has {Kt.shape[0]} rows, training size is {stats.n}"
        )
    if mode not in ("paper", "standard"):
        raise KernelError(f"unknown centering mode {mode!r}; use 'paper' or 'standard'")
    _center(Kt, stats.n, stats if mode == "standard" else None)
    return Kt


def center_train(K: np.ndarray) -> np.ndarray:
    """Center a square Gram matrix: K - 1K - K1 + 1K1, 1 the all-(1/n) matrix.

    Idempotent; keeps symmetry; centered rows and columns sum to ~0.
    """
    K = np.array(K, dtype=np.float64)  # a copy, centered in place
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise KernelError(f"center_train expects a square matrix, got {K.shape}")
    _center(K, K.shape[0])
    return K


def center_gram(K: np.ndarray) -> CenteringStats:
    """Center the square Gram matrix K in place, as center_train; return K's statistics."""
    rows, total = _center(K, K.shape[0])
    rows.flags.writeable = False
    return CenteringStats(n=K.shape[0], row_means=rows, grand_mean=float(total))


def centered_gram(x: np.ndarray, spec: KernelSpec) -> tuple[np.ndarray, CenteringStats]:
    """center_train(gram(x, x, spec)) and its Gram's CenteringStats, from one buffer."""
    K = gram(x, x, spec)
    return K, center_gram(K)


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
    return _center_cross(np.array(Kt, dtype=np.float64), stats, mode)


def centered_cross_gram(
    a: np.ndarray, b: np.ndarray, spec: KernelSpec, stats: CenteringStats, mode: str = "paper"
) -> np.ndarray:
    """center_cross_from_stats(gram(a, b, spec), stats, mode), in gram's own buffer."""
    return _center_cross(gram(a, b, spec), stats, mode)


def center_cross(Kt: np.ndarray, K: np.ndarray, mode: str = "paper") -> np.ndarray:
    """Center a cross kernel given the uncentered training Gram matrix K.

    See center_cross_from_stats for the two modes; this wrapper computes
    the training statistics on the fly.
    """
    return center_cross_from_stats(Kt, CenteringStats.from_train(K), mode)
