"""Regularized generalized eigensolver and kernel-space projection.

The learned transformation maximizes the between-class scatter against the
sum of the invariance scatters and the within-class scatter,

    between @ B = (gamma * conditional + alpha * prior + within + eps I) B Lambda,

a symmetric-definite pencil (P, D): D is positive definite once the eps
ridge is added. Every scatter but the within-class one W is kept as a
factor (scatter.ScatterSet): P = F F' with F n x C, and
D = A + U S U' with A = W + eps I, U = [conditional, prior factors] and
S = diag(gamma, ..., gamma, alpha, ..., alpha).

The solve reduces the pencil to k = C + (columns of U) dimensions, exactly.
Take the Cholesky factor A = L L' and the thin QR L^{-1} [F U] = Z R,
R = [R_F R_U]. With b = L^{-T} x the pencil becomes

    Z R_F R_F' Z' x = lambda (I + Z R_U S R_U' Z') x,

and the component of x orthogonal to Z has lambda x_perp = 0, so every
eigenpair with lambda > 0 has x = Z c, where c solves the k x k pencil

    R_F R_F' c = lambda M c,    M = I + R_U S R_U'.

M is the identity plus a positive semidefinite term, so its eigenvalues
are all >= 1 and its Cholesky factor M = G G' always exists. With the thin
SVD G^{-1} R_F = V Sigma W', lambda = Sigma^2 and c = G^{-T} V, so
B = T c with T = L^{-T} Z, and B' D B = c' M c = V' V = I by construction,
the trace constraint of the underlying Lagrangian. P has rank at most
C - 1 (the count-weighted class-mean offsets sum to zero), so at most
C - 1 eigenvalues are positive.

Every scatter maps into range(Kc), and D acts as eps I on its
orthogonal complement, so every eigenvector with lambda > 0 lies in
range(Kc) too. range_basis finds that range exactly: a pivoted Cholesky
factor Kc = G G', stopped once every remaining pivot is at most 1e-12 of
the largest diagonal entry, and the n x m orthonormal Q of G's thin QR.
Every such eigenvector is b = Q c for an m-vector c, which solves

    Q' P Q c = lambda Q' D Q c,

the same pencil in m dimensions: its factors are Q' F and Q' U, its
within term Q' W Q = Y' Y, with Y = Kc Q less each class's mean row, and
its ridge eps I. It is solved as above and mapped back as B = Q B_m, so
no n x n product is formed. The residual screen runs on B_m (Q is
orthonormal, so the norms are those of the n-length residuals); the sign
rule and the tolerance cut act on the n-length columns of B. The rank
rule: the basis is used when 2m <= n. Above that the thin QR of G costs
more than the n-sized work it saves, so range_basis returns None (the
identity) and the pencil is solved on Kc's own coordinates. Kernel PCA
reduces the same way, to the eigenpairs of Q' Kc Q.

Only S depends on gamma and alpha, so one solve_plane call per
(scatters, eps) plane does the n- (or m-) sized work once (the Cholesky
of A, the whitened QR and T) and solves every (gamma, alpha) point of the
plane as one stack of k x k problems, returned as arrays with no model per
point (PlaneSolution); solve is its one-point case. The residual screen
evaluates D B as W B + eps B + U S (U' B), so D is never formed.

The configured eps is relative: the ridge actually added is
eps * trace(within) / n, falling back to eps alone when the within
scatter has zero trace, so the same setting behaves comparably across
kernel scales. The effective value is stored on the model.

solve returns a bare model. classify.fit_baseline attaches the kernel
context with which project maps new samples: the kernel against the
retained training features, centered, times B Lambda^{-1/2}.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kernel import CenteringStats, KernelSpec, center_cross_from_stats, gram
from .scatter import ScatterSet


class SolverError(ValueError):
    """Invalid solver parameters or a failed eigensolve."""


_EIG_TOLERANCE = 1e-10  # relative to the largest eigenvalue
_PIVOT_TOLERANCE = 1e-12  # relative to the largest diagonal entry of Kc
_RESIDUAL_REL = 1e-6
_RESIDUAL_FLOOR = 1e-12


def default_q(n: int, n_classes: int, n_domains: int) -> int:
    """Default output dimension: min(n - 1, classes * domains)."""
    return min(n - 1, n_classes * n_domains)


@dataclass(frozen=True)
class ProjectionModel:
    """Eigenvectors, eigenvalues and the training context for projection.

    coefficients holds one column per kept component (descending
    eigenvalue, each column sign-fixed so its largest-magnitude entry is
    positive, normalized so B' D B = I). kernel_spec, training_features
    and centering are present on models from classify.fit_baseline or
    load_model and absent on bare solve output.
    """

    coefficients: np.ndarray
    eigenvalues: np.ndarray
    gamma: float
    alpha: float
    effective_epsilon: float
    requested_q: int
    warnings: tuple[str, ...] = ()
    kernel_spec: KernelSpec | None = None
    training_features: np.ndarray | None = None
    centering: CenteringStats | None = None

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=np.float64)
        lam = np.asarray(self.eigenvalues, dtype=np.float64)
        if coef.ndim != 2 or lam.ndim != 1 or coef.shape[1] != lam.shape[0]:
            raise SolverError("coefficients and eigenvalues are inconsistent")
        if lam.size == 0:
            raise SolverError("model has no components")
        if np.any(lam <= 0) or np.any(np.diff(lam) > 0):
            raise SolverError("eigenvalues must be positive and non-increasing")
        coef = coef.copy()
        coef.flags.writeable = False
        lam = lam.copy()
        lam.flags.writeable = False
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "eigenvalues", lam)
        if self.training_features is not None:
            tf = np.array(self.training_features, dtype=np.float64)
            tf.flags.writeable = False
            object.__setattr__(self, "training_features", tf)

    @property
    def n_components(self) -> int:
        return int(self.eigenvalues.shape[0])

    @property
    def n_train(self) -> int:
        return int(self.coefficients.shape[0])


def _check_q(q: int, n: int) -> None:
    if q < 1:
        raise SolverError("q must be >= 1")
    if q > n:
        raise SolverError(f"q={q} exceeds the number of training samples n={n}")


def _truncate(lam, vecs, q):
    """Sign rule and relative tolerance over a stack of descending spectra.

    lam is (P, r) with each row descending and vecs (P, n, r). Makes the
    largest-magnitude entry of every vector positive, in place, and returns
    per spectrum the number of leading pairs among the first q that are
    positive and at least _EIG_TOLERANCE times the largest (0 when none is
    positive).
    """
    P, _, r = vecs.shape
    picks = vecs[np.arange(P)[:, None], np.abs(vecs).argmax(axis=1), np.arange(r)]
    np.negative(vecs, out=vecs, where=(picks < 0)[:, None, :])
    lam = lam[:, :q]
    return np.count_nonzero((lam > 0) & (lam >= _EIG_TOLERANCE * lam[:, :1]), axis=1)


def _truncation_warning(q: int, kept: int) -> tuple[str, ...]:
    if kept >= q:
        return ()
    return (f"requested q={q} but only {kept} eigenvalues are positive above tolerance; truncated",)


@dataclass(frozen=True)
class PlaneSolution:
    """The solver's result for the P points of one (gamma, alpha) plane.

    weights (P, 2) holds each point's (gamma, alpha). coefficients
    (P, n, r) and eigenvalues (P, r) hold every eigenpair, descending and
    sign-fixed. Point p keeps the first kept[p] pairs (after the tolerance
    and the residual cut) with warnings[p]; errors[p] is the SolverError
    solve would raise for it alone (then kept[p] is 0), or None. Every
    point shares effective_epsilon and requested_q.
    """

    weights: np.ndarray
    coefficients: np.ndarray
    eigenvalues: np.ndarray
    kept: np.ndarray
    warnings: list[tuple[str, ...]]
    errors: list[SolverError | None]
    effective_epsilon: float
    requested_q: int

    def model(self, p: int) -> ProjectionModel:
        """Point p as a bare ProjectionModel, or its SolverError raised."""
        if self.errors[p] is not None:
            raise self.errors[p]
        c = self.kept[p]
        return ProjectionModel(
            self.coefficients[p, :, :c], self.eigenvalues[p, :c], *map(float, self.weights[p]),
            self.effective_epsilon, self.requested_q, self.warnings[p],
        )


def range_basis(Kc: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis of the numerical range of a centered Gram matrix.

    Pivoted Cholesky (LAPACK dpstrf) stops once every remaining pivot is
    at most 1e-12 times the largest diagonal entry; its m columns, put
    back in row order, are a factor G with Kc = G G' to that tolerance.
    Returns the n x m Q of G's thin QR when 0 < 2m <= n, else None (the
    identity: solve on Kc itself).
    """
    n = Kc.shape[0]
    tol = _PIVOT_TOLERANCE * float(np.max(np.diag(Kc)))
    c, piv, m, _ = scipy.linalg.lapack.dpstrf(Kc, tol=tol, lower=1)
    if m == 0 or 2 * m > n:
        return None
    G = np.empty((n, m))
    G[piv - 1] = np.tril(c[:, :m])  # P' Kc P = L L', so Kc = G G' with G = P L
    return np.linalg.qr(G)[0]


def solve_kpca(Kc: np.ndarray, q: int, basis: np.ndarray | None = None) -> PlaneSolution:
    """Top q components of the centered Gram matrix (kernel PCA), as one point.

    With a basis from range_basis, the eigenpairs come from the m x m
    matrix basis' Kc basis; at most m of them exist.
    """
    n = Kc.shape[0]
    _check_q(q, n)
    K = Kc if basis is None else basis.T @ Kc @ basis
    r = min(q, K.shape[0])
    lam, vecs = scipy.linalg.eigh(K, subset_by_index=[K.shape[0] - r, K.shape[0] - 1])
    order = np.argsort(-lam, kind="stable")
    lam, vecs = lam[None, order], vecs[None, :, order]
    if basis is not None:
        vecs = basis @ vecs
    kept = _truncate(lam, vecs, q)
    if kept[0] == 0:
        raise SolverError("centered Gram matrix has no positive eigenvalues")
    warnings = [_truncation_warning(q, int(kept[0]))]
    return PlaneSolution(np.zeros((1, 2)), vecs, lam, kept, warnings, [None], 0.0, int(q))


def solve_plane(scatters: ScatterSet, weights, q: int, epsilon: float) -> PlaneSolution:
    """Top eigenpairs of the pencil at every (gamma, alpha) in weights.

    One Cholesky of within + eps I and one whitened QR serve the plane,
    whose points are then solved as one stack of k x k problems; see
    PlaneSolution for what each point keeps. Scatters written in a range
    basis are solved at its size m and mapped back to n-length
    coefficients.
    """
    F = scatters.between_factor
    U = np.hstack([scatters.conditional_factor, scatters.prior_factor])
    Q = scatters.basis
    m = F.shape[0]
    n = m if Q is None else Q.shape[0]
    if (
        F.ndim != 2 or U.shape[0] != m or scatters.within.shape != (m, m)
        or (Q is not None and Q.shape[1] != m)
    ):
        raise SolverError("scatter matrices have inconsistent shapes")
    _check_q(q, n)
    ga = np.asarray(weights, dtype=np.float64).reshape(-1, 2)
    if (ga < 0).any():
        raise SolverError("gamma and alpha must be >= 0")
    if not epsilon > 0:
        raise SolverError("epsilon must be > 0")
    scale = float(np.diag(scatters.within).sum()) / n
    eff_eps = float(epsilon * (scale if scale > 0 else 1.0))
    A = scatters.within.copy()
    A.flat[:: m + 1] += eff_eps
    try:
        # A is symmetric, so its transpose is the same matrix in Fortran
        # order, which LAPACK factors in place instead of copying
        L = scipy.linalg.cholesky(A.T, lower=True, overwrite_a=True)
        Z, R = np.linalg.qr(
            scipy.linalg.solve_triangular(L, np.hstack([F, U]), lower=True, check_finite=False)
        )
        T = scipy.linalg.solve_triangular(L, Z, lower=True, trans="T", check_finite=False)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError) as exc:
        raise SolverError(f"generalized eigensolve failed: {exc}") from None
    RF, RU = R[:, : F.shape[1]], R[:, F.shape[1] :]
    n_cond = scatters.conditional_factor.shape[1]
    s = np.repeat(ga, [n_cond, scatters.prior_factor.shape[1]], axis=1)  # diag(S) per point
    P, k = ga.shape[0], RU.shape[0]
    try:
        G = np.linalg.cholesky(np.eye(k) + (RU * s[:, None, :]) @ RU.T)
        H = np.linalg.solve(G, np.broadcast_to(RF, (P, *RF.shape)))
        V, sigma, _ = np.linalg.svd(H, full_matrices=False)
        B = T @ np.linalg.solve(np.swapaxes(G, 1, 2), V)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"generalized eigensolve failed: {exc}") from None
    # singular values come back descending
    lam = sigma**2

    # Residual screen, in basis coordinates when there is a basis. Eigenvalues
    # just above the relative tolerance can still be pure null-space noise of
    # the (low-rank) numerator; such pairs fail the residual bound and carry
    # no signal, so each component list is cut at its first failure rather
    # than returned unreliable.
    PB = F @ (F.T @ B)
    DB = scatters.within @ B + eff_eps * B + U @ (s[:, :, None] * (U.T @ B))
    res = np.linalg.norm(PB - DB * lam[:, None, :], axis=1)
    bound = _RESIDUAL_REL * np.maximum(np.linalg.norm(PB, axis=1), _RESIDUAL_FLOOR)
    # first failing pair, or the sentinel column past the last one
    first_bad = np.hstack([res > bound, np.ones((P, 1), dtype=bool)]).argmax(axis=1)
    if Q is not None:
        B = Q @ B
    kept = _truncate(lam, B, q)
    cut = np.minimum(kept, first_bad)

    warnings = [_truncation_warning(q, int(k)) for k in kept]
    errors: list[SolverError | None] = [None] * P
    for p in range(P):
        c = int(cut[p])
        if kept[p] == 0:
            errors[p] = SolverError("no positive eigenvalues: the between-class scatter is zero")
        elif c == 0:
            errors[p] = SolverError(
                "leading eigenpair fails the residual bound "
                f"({res[p, 0]:.3e} > {bound[p, 0]:.3e}); inputs are likely degenerate"
            )
        elif c < kept[p]:
            warnings[p] += (f"eigenpairs from index {c} fail the residual bound and were dropped",)
    return PlaneSolution(ga, B, lam, cut, warnings, errors, eff_eps, int(q))


def solve(
    scatters: ScatterSet, q: int, gamma: float = 1.0, alpha: float = 1.0, epsilon: float = 1e-5
) -> ProjectionModel:
    """Top eigenpairs of the regularized scatter pencil.

    Returns up to q components; eigenvalues that are not strictly positive,
    or fall below the relative tolerance, are dropped with a recorded
    warning. The model is bare: fit_baseline attaches the kernel context
    that project needs. This is the one-point case of solve_plane.
    """
    return solve_plane(scatters, [(gamma, alpha)], q, epsilon).model(0)


def projection_basis(coefficients: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """Coefficient columns scaled by eigenvalue^{-1/2}.

    A centered kernel column block Kc maps to features via Kc.T @ basis.
    """
    return coefficients / np.sqrt(eigenvalues)


def centered_cross_kernel(
    spec: KernelSpec,
    training_features: np.ndarray,
    centering: CenteringStats,
    new_features: np.ndarray,
    mode: str = "paper",
) -> np.ndarray:
    """Kernel between the training samples and new_features, centered per mode.

    The n x n_new result maps to features via .T @ projection_basis(...);
    see center_cross_from_stats for the two modes.
    """
    x = np.asarray(new_features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != training_features.shape[1]:
        raise SolverError(
            f"new features must be 2-D with {training_features.shape[1]} columns, "
            f"got {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise SolverError("new features contain non-finite values")
    return center_cross_from_stats(gram(training_features, x, spec), centering, mode)


def project(model: ProjectionModel, new_features: np.ndarray, mode: str = "paper") -> np.ndarray:
    """Map new samples into the learned space.

    Evaluates the kernel between the retained training samples and
    new_features, centers the cross kernel per ``mode`` (see
    center_cross_from_stats), and applies the scaled coefficients.
    """
    if model.kernel_spec is None or model.training_features is None or model.centering is None:
        raise SolverError(
            "model carries no kernel context; fit it with classify.fit_baseline "
            "or load it with load_model"
        )
    Ktc = centered_cross_kernel(
        model.kernel_spec, model.training_features, model.centering, new_features, mode
    )
    return Ktc.T @ projection_basis(model.coefficients, model.eigenvalues)


# ---------------------------------------------------------------------------
# model serialization: versioned little-endian flat file
# ---------------------------------------------------------------------------
#
# layout (all integers and floats little-endian):
#   magic            8 bytes  b"CINVPMDL"
#   version          u32      currently 1
#   family           u32      0 = rbf, 1 = linear
#   n                u64      training samples
#   d                u64      feature dimension
#   q                u64      kept components
#   requested_q      u64
#   bandwidth        f64
#   gamma            f64
#   alpha            f64
#   effective_eps    f64
#   grand_mean       f64      centering statistic
#   warning_count    u32
#   warnings         warning_count x (u32 length + utf-8 bytes)
#   eigenvalues      q x f64
#   coefficients     n*q x f64, row-major
#   training_feats   n*d x f64, row-major
#   row_means        n x f64   centering statistic
# ---------------------------------------------------------------------------

_MAGIC = b"CINVPMDL"
_VERSION = 1
_FAMILY_CODES = {"rbf": 0, "linear": 1}
_FAMILY_NAMES = {v: k for k, v in _FAMILY_CODES.items()}


def save_model(model: ProjectionModel, path) -> None:
    """Write a fitted model to the flat binary format documented above."""
    if model.kernel_spec is None or model.training_features is None or model.centering is None:
        raise SolverError("only models with kernel context can be saved")
    if not model.kernel_spec.resolved:
        raise SolverError("model kernel bandwidth is unresolved")
    n, d = model.training_features.shape
    q = model.n_components
    parts = [
        _MAGIC,
        struct.pack(
            "<IIQQQQddddd",
            _VERSION,
            _FAMILY_CODES[model.kernel_spec.family],
            n,
            d,
            q,
            model.requested_q,
            float(model.kernel_spec.bandwidth),
            model.gamma,
            model.alpha,
            model.effective_epsilon,
            model.centering.grand_mean,
        ),
        struct.pack("<I", len(model.warnings)),
    ]
    for w in model.warnings:
        blob = w.encode("utf-8")
        parts.append(struct.pack("<I", len(blob)))
        parts.append(blob)
    for arr in (
        model.eigenvalues,
        model.coefficients,
        model.training_features,
        model.centering.row_means,
    ):
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_model(path) -> ProjectionModel:
    """Read a model written by save_model."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        raise SolverError(f"model file not found: {path}") from None
    except (OSError, ValueError) as exc:  # a directory, a NUL in the path
        raise SolverError(f"cannot read model file {path}: {exc}") from None
    if blob[: len(_MAGIC)] != _MAGIC:
        raise SolverError(f"{path}: not a model file (bad magic)")
    off = len(_MAGIC)
    head = struct.Struct("<IIQQQQddddd")
    try:
        (version, family, n, d, q, req_q, bw, gamma, alpha, eff_eps, grand) = head.unpack_from(
            blob, off
        )
        off += head.size
        if version != _VERSION:
            raise SolverError(f"{path}: unsupported model version {version}")
        if family not in _FAMILY_NAMES:
            raise SolverError(f"{path}: unknown kernel family code {family}")
        spec = KernelSpec(_FAMILY_NAMES[family], bw)  # KernelError is a ValueError
        (n_warn,) = struct.unpack_from("<I", blob, off)
        off += 4
        warnings = []
        for _ in range(n_warn):
            (length,) = struct.unpack_from("<I", blob, off)
            off += 4
            warnings.append(blob[off : off + length].decode("utf-8"))
            off += length
    except (struct.error, ValueError) as exc:
        raise SolverError(f"{path}: truncated or corrupt model file ({exc})") from None
    # header counts are untrusted u64s: check them against the bytes present
    # before any array is sized from them
    size = 8 * (q + n * q + n * d + n)
    if n < 1 or off + size > len(blob):
        raise SolverError(
            f"{path}: truncated or corrupt model file (n={n}, d={d}, q={q} need "
            f"{size} array bytes, {len(blob) - off} present)"
        )
    if off + size < len(blob):
        raise SolverError(f"{path}: {len(blob) - off - size} unexpected trailing bytes")
    arrays = np.frombuffer(blob, dtype="<f8", offset=off).astype(np.float64)
    lam, coef, feats, row_means = np.split(arrays, np.cumsum([q, n * q, n * d]))
    row_means.flags.writeable = False
    return ProjectionModel(
        coefficients=coef.reshape(n, q),
        eigenvalues=lam,
        gamma=gamma,
        alpha=alpha,
        effective_epsilon=eff_eps,
        requested_q=int(req_q),
        warnings=tuple(warnings),
        kernel_spec=spec,
        training_features=feats.reshape(n, d),
        centering=CenteringStats(n=int(n), row_means=row_means, grand_mean=grand),
    )
