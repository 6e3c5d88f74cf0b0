"""Independent reference implementations used to cross-check the library.

Everything here is written directly from the defining formulas in explicit
coordinates, with no shared code paths: scatter matrices as sums of outer
products of class/domain mean differences, KNN by exhaustive distance
enumeration, centering by materializing the averaging matrices. Linear
kernels make the feature map concrete, so a coefficient-space matrix S
built from K = X Xᵀ must equal X S_explicit Xᵀ.
"""

import numpy as np
import scipy.linalg
from scipy.spatial.distance import cdist


def rbf_elementwise(a, b, sigma):
    out = np.empty((len(a), len(b)))
    for i in range(len(a)):
        for j in range(len(b)):
            d = a[i] - b[j]
            out[i, j] = np.exp(-float(d @ d) / (2.0 * sigma * sigma))
    return out


def median_pairwise(x):
    dists = []
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            d = x[i] - x[j]
            dists.append(np.sqrt(float(d @ d)))
    return float(np.median(dists))


def center_square(K):
    n = K.shape[0]
    one = np.full((n, n), 1.0 / n)
    return K - one @ K - K @ one + one @ K @ one


def center_cross_paper(Kt, n):
    # both averaging matrices carry entries 1/n, whatever the test count is
    nt = Kt.shape[1]
    left = np.full((n, n), 1.0 / n)
    right = np.full((nt, nt), 1.0 / n)
    return Kt - left @ Kt - Kt @ right + left @ Kt @ right


def center_cross_standard(Kt, K):
    n = K.shape[0]
    nt = Kt.shape[1]
    left = np.full((n, n), 1.0 / n)
    right = np.full((nt, nt), 1.0 / nt)
    # center test columns against the training mean in feature space:
    # phi_c(z) pairing with phi_c(x_i) expands to these four terms
    out = np.empty_like(Kt)
    row_means = K.mean(axis=1)
    grand = K.mean()
    for i in range(n):
        for j in range(nt):
            out[i, j] = Kt[i, j] - Kt[:, j].mean() - row_means[i] + grand
    return out


def _class_domain_means(x, labels, domains):
    means = {}
    for s in np.unique(domains):
        for j in np.unique(labels):
            mask = (domains == s) & (labels == j)
            if mask.any():
                means[(s, j)] = x[mask].mean(axis=0)
    return means


def conditional_scatter_explicit(x, labels, domains):
    """(1/m) sum over classes and domains of (mu_sj - mean_s mu_sj) outer."""
    m = len(np.unique(domains))
    d = x.shape[1]
    means = _class_domain_means(x, labels, domains)
    out = np.zeros((d, d))
    for j in np.unique(labels):
        per = [means[(s, j)] for s in np.unique(domains) if (s, j) in means]
        bar = np.mean(per, axis=0)
        for mu in per:
            diff = mu - bar
            out += np.outer(diff, diff)
    return out / m


def prior_scatter_explicit(x, labels, domains):
    """(1/m) sum over domains of (mean_s P-marginal - pooled) outer.

    The P-marginal embedding of a domain is the unweighted average of its
    class-conditional mean embeddings (classes reweighted to 1/C_s).
    """
    m = len(np.unique(domains))
    d = x.shape[1]
    means = _class_domain_means(x, labels, domains)
    per_domain = []
    for s in np.unique(domains):
        mus = [means[(s, j)] for j in np.unique(labels) if (s, j) in means]
        per_domain.append(np.mean(mus, axis=0))
    bar = np.mean(per_domain, axis=0)
    out = np.zeros((d, d))
    for mu in per_domain:
        diff = mu - bar
        out += np.outer(diff, diff)
    return out / m


def between_scatter_explicit(x, labels):
    """sum_j n_j (mu_j - mu)(mu_j - mu)^T with pooled class means."""
    d = x.shape[1]
    mu = x.mean(axis=0)
    out = np.zeros((d, d))
    for j in np.unique(labels):
        mask = labels == j
        diff = x[mask].mean(axis=0) - mu
        out += mask.sum() * np.outer(diff, diff)
    return out


def within_scatter_explicit(x, labels):
    """sum_j sum_{i in class j} (x_i - mu_j)(x_i - mu_j)^T."""
    d = x.shape[1]
    out = np.zeros((d, d))
    for j in np.unique(labels):
        cls = x[labels == j]
        diff = cls - cls.mean(axis=0)
        out += diff.T @ diff
    return out


def lift(x, s_explicit):
    """Map a feature-space scatter to coefficient space for K = x xᵀ."""
    return x @ s_explicit @ x.T


def pencil_eigenvalues_explicit(x, labels, domains, gamma, alpha, eps):
    """Positive eigenvalues of the coefficient pencil, computed in d dims.

    With K = X Xᵀ the n-dim pencil  (X P Xᵀ) b = λ (X D Xᵀ + εI) b  has the
    same positive spectrum as the d-dim problem  (P G) w = λ (D G + εI) w
    where G = Xᵀ X: substitute v = Xᵀ b and solve for b from the ridge term.
    """
    from scipy.linalg import eig

    xc = x - x.mean(axis=0)
    P = between_scatter_explicit(xc, labels)
    D = (gamma * conditional_scatter_explicit(xc, labels, domains)
         + alpha * prior_scatter_explicit(xc, labels, domains)
         + within_scatter_explicit(xc, labels))
    G = xc.T @ xc
    vals = eig(P @ G, D @ G + eps * np.eye(x.shape[1]), right=False)
    vals = np.real(vals[np.abs(np.imag(vals)) < 1e-8 * (1 + np.abs(vals))])
    vals = np.sort(vals[vals > 1e-10])[::-1]
    return vals


def knn_brute(train_x, train_y, test_x, k):
    """Exhaustive KNN with the library's documented tie rules."""
    preds = []
    for z in test_x:
        dists = np.array([np.sqrt(float((z - t) @ (z - t))) for t in train_x])
        order = sorted(range(len(train_x)), key=lambda i: (dists[i], i))[:k]
        votes = {}
        sums = {}
        for i in order:
            votes[train_y[i]] = votes.get(train_y[i], 0) + 1
            sums[train_y[i]] = sums.get(train_y[i], 0.0) + dists[i]
        best = sorted(votes, key=lambda c: (-votes[c], sums[c], c))[0]
        preds.append(best)
    return np.array(preds)


def knn_loop(train_feats, train_labels, test_feats, k):
    """The original per-row KNN loop: full stable sort, dictionary votes.

    Same tie rules as knn_brute; the distance sums are running Python float
    sums in neighbor order, which the vectorized head must reproduce bit for
    bit.
    """
    train = np.asarray(train_feats, dtype=np.float64)
    labels = np.asarray(train_labels, dtype=np.int64)
    test = np.asarray(test_feats, dtype=np.float64)
    dists = cdist(test, train)
    nearest = np.argsort(dists, axis=1, kind="stable")[:, :k]
    out = np.empty(test.shape[0], dtype=np.int64)
    for i in range(test.shape[0]):
        votes: dict[int, int] = {}
        sums: dict[int, float] = {}
        for idx in nearest[i]:
            c = int(labels[idx])
            votes[c] = votes.get(c, 0) + 1
            sums[c] = sums.get(c, 0.0) + float(dists[i, idx])
        best = max(votes.values())
        tied = [c for c, v in votes.items() if v == best]
        if len(tied) > 1:
            low = min(sums[c] for c in tied)
            tied = [c for c in tied if sums[c] == low]
        out[i] = min(tied)
    return out


def expand(G):
    """The scatter G @ G.T that an n x r factor G stands for."""
    return G @ G.T


def pencil_eig_dense(scatters, *, q, gamma, alpha, epsilon):
    """The dense generalized eigensolve the factored solver replaced.

    Builds D and P = between from the ScatterSet, runs the full
    scipy.linalg.eigh(P, D), and applies the same descending sort,
    relative tolerance (1e-10 of the largest), sign rule and residual
    screen. Returns
    (eigenvalues, coefficients, warnings).
    """
    P = expand(scatters.between_factor)
    n = P.shape[0]
    scale = float(np.mean(np.diag(scatters.within)))
    eff_eps = epsilon * (scale if scale > 0 else 1.0)
    D = (
        gamma * expand(scatters.conditional_factor)
        + alpha * expand(scatters.prior_factor)
        + scatters.within
        + eff_eps * np.eye(n)
    )
    lam, vecs = scipy.linalg.eigh(P, D)

    order = np.argsort(-lam, kind="stable")[:q]
    lam = lam[order]
    vecs = vecs[:, order]
    keep = (lam > 0) & (lam >= 1e-10 * lam[0])
    warnings = ()
    if keep.sum() < q:
        warnings = (
            f"requested q={q} but only {int(keep.sum())} eigenvalues "
            "are positive above tolerance; truncated",
        )
    lam = lam[keep]
    vecs = vecs[:, keep]
    flip = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])] < 0
    vecs[:, flip] *= -1.0

    PB = P @ vecs
    DB = D @ vecs
    res = np.linalg.norm(PB - DB * lam[None, :], axis=0)
    bound = 1e-6 * np.maximum(np.linalg.norm(PB, axis=0), 1e-12)
    bad = np.flatnonzero(res > bound)
    if bad.size:
        cut = int(bad[0])
        warnings = warnings + (
            f"eigenpairs from index {cut} fail the residual bound and were dropped",
        )
        lam = lam[:cut]
        vecs = vecs[:, :cut]
    return lam, vecs, warnings
