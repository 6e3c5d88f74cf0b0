"""Shared fixtures and the acceptance-criteria terminal summary."""

import os

# BLAS on one thread unless the caller says otherwise: the suite's matrices
# are small, and extra threads make it slower on a shared host. Set before
# numpy loads, since OpenBLAS reads these only at start-up.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import condinv as ci  # noqa: E402
from condinv.solver import projection_basis  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_dataset(rng, n_domains=2, n_classes=3, n=18, d=3, domain_shift=0.0):
    """Random labeled dataset with every (domain, class) cell populated.

    domain_shift adds a per-domain offset to the features so domain
    structure is present when a test needs it.
    """
    cells = [(s, j) for s in range(1, n_domains + 1) for j in range(1, n_classes + 1)]
    if n < len(cells):
        raise ValueError("n too small to cover all cells")
    domains = np.zeros(n, dtype=np.int64)
    labels = np.zeros(n, dtype=np.int64)
    for i, (s, j) in enumerate(cells):
        domains[i], labels[i] = s, j
    for i in range(len(cells), n):
        domains[i] = rng.integers(1, n_domains + 1)
        labels[i] = rng.integers(1, n_classes + 1)
    x = rng.normal(size=(n, d))
    x += labels[:, None] * 0.5
    x += domains[:, None] * domain_shift
    return ci.LabeledDataset(features=x, labels=labels, domains=domains)


def assert_same_solution(got, want, Kc):
    """Two PlaneSolutions of one pencil agree to rounding.

    Kept counts, warnings and errors are equal; kept eigenvalues agree
    within 1e-10 relative (or 1e-13 of the largest, the precision any
    eigensolver gives the smallest), and the training coordinates
    Kc.T @ projection_basis within 1e-8 of their largest.
    """
    assert got.kept.tolist() == want.kept.tolist()
    assert got.warnings == want.warnings
    assert [str(e) for e in got.errors] == [str(e) for e in want.errors]
    assert got.coefficients.shape[1] == Kc.shape[0]
    assert got.effective_epsilon == pytest.approx(want.effective_epsilon, rel=1e-10)
    for p in np.flatnonzero(want.kept):
        c = want.kept[p]
        lam = want.eigenvalues[p, :c]
        assert np.allclose(got.eigenvalues[p, :c], lam, rtol=1e-10, atol=1e-13 * lam[0])
        coords = Kc.T @ projection_basis(want.coefficients[p, :, :c], lam)
        got_coords = Kc.T @ projection_basis(got.coefficients[p, :, :c], got.eigenvalues[p, :c])
        assert np.allclose(got_coords, coords, rtol=0.0, atol=1e-8 * np.abs(coords).max())


def missing_cell_dataset(rng, n_per=4):
    """Two domains, classes 1 and 2 in both, class 3 only in domain 2."""
    cells = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)]
    domains = np.repeat([s for s, _ in cells], n_per)
    labels = np.repeat([j for _, j in cells], n_per)
    x = rng.normal(size=(labels.size, 2)) + labels[:, None]
    return ci.LabeledDataset(features=x, labels=labels, domains=domains)


# the node types safe_load can produce, nested
yaml_nodes = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.integers() | st.text(max_size=3) | st.floats(), inner, max_size=3),
    max_leaves=12,
)


def paths(tree, prefix=()):
    """Every key path into the nested dicts of tree."""
    out = []
    if isinstance(tree, dict):
        for key, value in tree.items():
            out.append(prefix + (key,))
            out.extend(paths(value, prefix + (key,)))
    return out


@pytest.fixture
def make_dataset(rng):
    """Factory fixture over random_dataset bound to the shared generator."""

    def factory(**kwargs):
        return random_dataset(rng, **kwargs)

    return factory


# --- acceptance reporting ----------------------------------------------------

_ACCEPTANCE_OUTCOMES = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    _ACCEPTANCE_OUTCOMES[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import CRITERIA
    except ImportError:
        return

    lines = []
    for name, label in CRITERIA.items():
        outcome = _ACCEPTANCE_OUTCOMES.get(name)
        if outcome is None:
            continue
        word = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}.get(
            outcome, outcome.upper()
        )
        lines.append(f"  {word}  {label}")
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
