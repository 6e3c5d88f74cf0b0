"""Shared fixtures and the acceptance-criteria terminal summary."""

import os

# BLAS on one thread unless the caller says otherwise: the suite's matrices
# are small, and extra threads make it slower on a shared host. Set before
# numpy loads, since OpenBLAS reads these only at start-up.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import condinv as ci  # noqa: E402


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


def missing_cell_dataset(rng, n_per=4):
    """Two domains, classes 1 and 2 in both, class 3 only in domain 2."""
    cells = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)]
    domains = np.repeat([s for s, _ in cells], n_per)
    labels = np.repeat([j for _, j in cells], n_per)
    x = rng.normal(size=(labels.size, 2)) + labels[:, None]
    return ci.LabeledDataset(features=x, labels=labels, domains=domains)


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
