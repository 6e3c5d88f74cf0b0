"""End-to-end acceptance checks.

One test per shipped guarantee; the conftest terminal hook prints a
PASS/FAIL line for each entry of CRITERIA after the run. The bundled
benchmark experiment is executed once per session for the runtime check;
the two accuracy checks share one run of a conditional-shift experiment in
which the method's premises hold (see docs/benchmark-notes.md).
"""

import json
import time

import numpy as np
import pytest
from scipy.stats import norm

import condinv as ci
from condinv.cli import main
from condinv.harness import _fit_chosen
import oracles
from conftest import random_dataset

CRITERIA = {
    "test_benchmark_cidg_accuracy": (
        "benchmark (a): conditional-shift layout, cidg mean target accuracy >= 0.80 "
        "over 10 grid-searched runs (held-out-domain selection, standard centering)"
    ),
    "test_benchmark_cidg_beats_baselines": (
        "benchmark (b): conditional-shift layout, cidg mean strictly above "
        "raw_knn and kpca means"
    ),
    "test_benchmark_runtime": "benchmark (c): full 320-sample experiment under 60 s",
    "test_oracle_equivalence": (
        "scatter oracles: H, L, P, Q match explicit evaluation, rel err <= 1e-8, 100 instances"
    ),
    "test_eigen_solution_validity": (
        "eigensolver: residual bound and B'DB = I within 1e-6 on 100 instances"
    ),
    "test_reduction_properties": (
        "reductions: balanced priors, single domain, duplicated domains"
    ),
    "test_centering_properties": (
        "centering: zero sums, idempotence, constant kernel, train/cross agreement"
    ),
    "test_determinism": (
        "determinism: byte-identical reports, sign-flip and permutation invariance"
    ),
    "test_csv_end_to_end": (
        "csv ingestion: fabricated 4-domain feature file runs end to end"
    ),
}


# --- synthetic benchmark -----------------------------------------------------

@pytest.fixture(scope="module")
def benchmark_elapsed():
    config = ci.ExperimentConfig(
        dataset=ci.benchmark_spec(),
        source_domains=("1", "2"),
        target_domains=("3",),
        methods=("raw_knn", "kpca", "cidg"),
        grids=ci.Grids(),
        repetitions=10,
        seed=0,
    )
    start = time.perf_counter()
    ci.run_experiment(config)
    return time.perf_counter() - start


# --- conditional-shift experiment ---------------------------------------------
#
# The method promises transfer when some h(X) has the same P(h(X) | Y) in
# every domain and P(Y) does not change. The bundled benchmark breaks both
# (docs/benchmark-notes.md), so the accuracy criteria run on a layout where
# they hold: class j of the domain at nuisance offset t is centered at
# (t, 1.5 j + t), so x - y = -1.5 j in every domain. Domains 1-4 are the
# sources, domain 5 the target, inside the sources' span.

SHIFT_OFFSETS = {1: -2.0, 2: -1.0, 3: 1.0, 4: 2.0, 5: 0.0}
SHIFT_SOURCES = (1, 2, 3, 4)
SHIFT_TARGET = 5
SHIFT_METHODS = ("raw_knn", "kpca", "cidg")


def conditional_shift_spec(seed=7):
    cells = {
        (s, j): ci.CellSpec(mean=(t, 1.5 * j + t), std=(0.3, 0.3), count=20)
        for s, t in SHIFT_OFFSETS.items()
        for j in (1, 2, 3)
    }
    return ci.SyntheticSpec(cells=cells, seed=seed)


def difference_bayes_accuracy(cells):
    """Bayes accuracy of a classifier that sees only x - y, equal priors.

    With equal priors and one spread for every class, the Bayes rule sends
    each value to the nearest class mean; the accuracy is the mass each
    class keeps between the midpoints to its neighbors' means.
    """
    means = sorted(c.mean[0] - c.mean[1] for c in cells)
    spreads = {float(np.hypot(*c.std)) for c in cells}
    assert len(spreads) == 1, f"classes differ in x - y spread: {spreads}"
    sigma = spreads.pop()
    cuts = [-np.inf] + [(a + b) / 2 for a, b in zip(means, means[1:])] + [np.inf]
    kept = [
        norm.cdf((hi - mu) / sigma) - norm.cdf((lo - mu) / sigma)
        for mu, lo, hi in zip(means, cuts, cuts[1:])
    ]
    return float(np.mean(kept))


def assert_shift_premises(spec):
    """The premises of the method's transfer claim, read from the spec alone."""
    classes = sorted({j for _, j in spec.cells})
    for j in classes:
        diffs = [c.mean[0] - c.mean[1] for (_, cj), c in spec.cells.items() if cj == j]
        assert np.ptp(diffs) <= 1e-12, f"class {j}: x - y means differ across domains {diffs}"
    counts = {c.count for c in spec.cells.values()}
    assert len(counts) == 1, f"class counts differ, so P(Y) shifts: {counts}"
    offsets = {s: spec.cells[(s, classes[0])].mean[0] for s in SHIFT_OFFSETS}
    source_offsets = [offsets[s] for s in SHIFT_SOURCES]
    assert min(source_offsets) < offsets[SHIFT_TARGET] < max(source_offsets), (
        f"target offset {offsets[SHIFT_TARGET]} is not inside the sources' {source_offsets}"
    )
    target_cells = [c for (s, _), c in spec.cells.items() if s == SHIFT_TARGET]
    bayes = difference_bayes_accuracy(target_cells)
    assert bayes >= 0.90, f"x - y Bayes accuracy {bayes:.4f} leaves 0.80 to noise"


@pytest.fixture(scope="module")
def shift_means():
    """Mean target accuracy per method over 10 grid-searched repetitions.

    Repetition r draws the train split with seed r and selects on source
    domain (r mod 4) + 1 held out of it: a random split of pooled sources
    scores nothing for transferring. The winner is refit on the whole
    train split, as the harness refit does. New rows are centered with
    training statistics ("standard"), so each row's coordinates are a
    function of that row alone.
    """
    spec = conditional_shift_spec()
    assert_shift_premises(spec)
    data = ci.generate_synthetic(spec)
    source = data.subset_domains(list(SHIFT_SOURCES))
    target = data.subset_domains([SHIFT_TARGET])
    scores = {tag: [] for tag in SHIFT_METHODS}
    for r in range(10):
        train = ci.split(source, 0.7, seed=r).first
        held_out = SHIFT_SOURCES[r % 4]
        val = train.subset_domains([held_out])
        fit_part = train.subset_domains([s for s in SHIFT_SOURCES if s != held_out])
        for tag in SHIFT_METHODS:
            chosen = ci.grid_search(
                fit_part, val, tag, ci.Grids(), cross_centering="standard"
            )
            model = _fit_chosen(tag, chosen, train, ci.KernelSpec())
            if model is None:
                train_proj, target_proj = train.features, target.features
            else:
                train_proj = ci.project(model, train.features, mode="paper")
                target_proj = ci.project(model, target.features, mode="standard")
            predicted = ci.knn_predict(train_proj, train.labels, target_proj, chosen.k)
            scores[tag].append(ci.accuracy(predicted, target.labels))
    return {tag: float(np.mean(accs)) for tag, accs in scores.items()}


def test_benchmark_cidg_accuracy(shift_means):
    mean = shift_means["cidg"]
    assert mean >= 0.80, (
        f"cidg mean target accuracy on the conditional-shift layout is {mean:.4f}, "
        "required >= 0.80; x - y is invariant there and its Bayes accuracy is "
        "about 0.95, so the projection is failing to find it"
    )


def test_benchmark_cidg_beats_baselines(shift_means):
    assert shift_means["cidg"] > shift_means["raw_knn"], (
        f"conditional-shift layout: cidg {shift_means['cidg']:.4f} does not exceed "
        f"raw_knn {shift_means['raw_knn']:.4f}"
    )
    assert shift_means["cidg"] > shift_means["kpca"], (
        f"conditional-shift layout: cidg {shift_means['cidg']:.4f} does not exceed "
        f"kpca {shift_means['kpca']:.4f}"
    )


def test_benchmark_runtime(benchmark_elapsed):
    assert benchmark_elapsed < 60.0, (
        f"experiment took {benchmark_elapsed:.1f} s, limit is 60 s"
    )


# --- scatter oracle equivalence ---------------------------------------------

def test_oracle_equivalence():
    def rel_err(got, want):
        scale = max(float(np.linalg.norm(want)), 1e-12)
        return float(np.linalg.norm(got - want)) / scale

    worst = 0.0
    spec = ci.KernelSpec(family="linear", bandwidth=1.0)
    for trial in range(100):
        rng = np.random.default_rng(9000 + trial)
        data = random_dataset(
            rng,
            n_domains=2,
            n_classes=int(rng.integers(2, 4)),
            n=int(rng.integers(2 * 3 + 2, 21)),
            d=int(rng.integers(2, 5)),
        )
        K = ci.gram(data.features, data.features, spec)
        Kc = ci.center_train(K)
        w = ci.build_weights(ci.group_index(data))
        ss = ci.scatter_set(Kc, w)
        xc = data.features - data.features.mean(axis=0)
        expand = oracles.expand
        pairs = (
            (expand(ss.conditional_factor),
             oracles.conditional_scatter_explicit(xc, data.labels, data.domains)),
            (expand(ss.prior_factor), oracles.prior_scatter_explicit(xc, data.labels, data.domains)),
            (expand(ss.between_factor), oracles.between_scatter_explicit(xc, data.labels)),
            (ss.within, oracles.within_scatter_explicit(xc, data.labels)),
        )
        for got, explicit in pairs:
            worst = max(worst, rel_err(got, oracles.lift(xc, explicit)))
    assert worst <= 1e-8, f"worst relative scatter error {worst:.3e} exceeds 1e-8"


# --- eigensolver validity ----------------------------------------------------

def test_eigen_solution_validity():
    checked = 0
    for trial in range(100):
        rng = np.random.default_rng(40000 + trial)
        data = random_dataset(
            rng,
            n_domains=int(rng.integers(2, 4)),
            n_classes=int(rng.integers(2, 4)),
            n=int(rng.integers(12, 26)),
            d=int(rng.integers(2, 5)),
            domain_shift=float(rng.uniform(0.0, 1.0)),
        )
        family = "linear" if trial % 3 == 0 else "rbf"
        bw = float(rng.uniform(0.5, 3.0))
        spec = ci.KernelSpec(family=family, bandwidth=bw)
        K = ci.gram(data.features, data.features, spec)
        Kc = ci.center_train(K)
        w = ci.build_weights(ci.group_index(data))
        ss = ci.scatter_set(Kc, w)
        gamma = float(rng.uniform(0.0, 3.0))
        alpha = float(rng.uniform(0.0, 3.0))
        epsilon = float(10.0 ** rng.uniform(-6, -3))
        model = ci.solve(ss, int(rng.integers(1, 7)), gamma, alpha, epsilon)
        B, lam = model.coefficients, model.eigenvalues
        D = (
            gamma * oracles.expand(ss.conditional_factor)
            + alpha * oracles.expand(ss.prior_factor)
            + ss.within
            + model.effective_epsilon * np.eye(data.n)
        )
        PB = oracles.expand(ss.between_factor) @ B
        residual = np.linalg.norm(PB - D @ B * lam[None, :], axis=0)
        bound = 1e-6 * np.maximum(np.linalg.norm(PB, axis=0), 1e-12)
        assert np.all(residual <= bound), f"instance {trial}: residual {residual} > {bound}"
        gram_b = B.T @ D @ B
        assert np.abs(gram_b - np.eye(model.n_components)).max() <= 1e-6, (
            f"instance {trial}: B'DB deviates by {np.abs(gram_b - np.eye(model.n_components)).max():.3e}"
        )
        checked += 1
    assert checked == 100


# --- degenerate reductions ---------------------------------------------------

def test_reduction_properties():
    # (a) balanced class counts per domain: prior-normalized weight vectors
    # equal the plain per-domain uniform vectors, bitwise
    rng = np.random.default_rng(61)
    feats, labels, domains = [], [], []
    for s in (1, 2, 3):
        for j in (1, 2):
            feats.append(rng.normal(size=(5, 2)))
            labels.append(np.full(5, j))
            domains.append(np.full(5, s))
    balanced = ci.LabeledDataset(
        np.vstack(feats), np.concatenate(labels), np.concatenate(domains)
    )
    groups = ci.group_index(balanced)
    w = ci.build_weights(groups)
    per_domain, mean = ci.uniform_domain_weights(groups)
    for s in (1, 2, 3):
        assert np.array_equal(w.prior_normalized[s], per_domain[s])
    assert np.array_equal(w.prior_mean, mean)

    # (b) a single domain: both invariance scatters are exactly zero
    single = random_dataset(np.random.default_rng(62), n_domains=1, n_classes=3, n=12)
    Kc = ci.center_train(
        ci.gram(single.features, single.features, ci.KernelSpec(bandwidth=1.0))
    )
    w1 = ci.build_weights(ci.group_index(single))
    assert np.all(ci.conditional_scatter(Kc, w1) == 0.0)
    assert np.all(ci.prior_scatter(Kc, w1) == 0.0)

    # (c) identical per-class samples across domains: the conditional
    # scatter vanishes because every class mean agrees across domains
    x1 = np.random.default_rng(63).normal(size=(8, 3))
    labels1 = np.array([1, 1, 2, 2, 3, 3, 3, 3])
    dup = ci.LabeledDataset(
        np.vstack([x1, x1]),
        np.concatenate([labels1, labels1]),
        np.concatenate([np.ones(8, int), np.full(8, 2)]),
    )
    Kc2 = ci.center_train(ci.gram(dup.features, dup.features, ci.KernelSpec(bandwidth=1.0)))
    w2 = ci.build_weights(ci.group_index(dup))
    assert np.abs(ci.conditional_scatter(Kc2, w2)).max() <= 1e-10


# --- centering ---------------------------------------------------------------

def test_centering_properties():
    rng = np.random.default_rng(64)
    x = rng.normal(size=(14, 3))
    K = ci.gram(x, x, ci.KernelSpec(bandwidth=1.2))
    Kc = ci.center_train(K)
    assert np.abs(Kc.sum(axis=0)).max() <= 1e-8
    assert np.abs(Kc.sum(axis=1)).max() <= 1e-8
    assert np.allclose(ci.center_train(Kc), Kc, atol=1e-12)
    assert np.abs(ci.center_train(np.ones((9, 9)))).max() <= 1e-12
    assert np.array_equal(ci.center_cross(K, K, mode="paper"), ci.center_train(K))


# --- determinism ---------------------------------------------------------------

def _flip_columns(model, signs):
    return ci.ProjectionModel(
        coefficients=model.coefficients * signs[None, :],
        eigenvalues=model.eigenvalues,
        gamma=model.gamma,
        alpha=model.alpha,
        effective_epsilon=model.effective_epsilon,
        requested_q=model.requested_q,
        warnings=model.warnings,
        kernel_spec=model.kernel_spec,
        training_features=model.training_features,
        centering=model.centering,
    )


def test_determinism():
    # identical configs produce byte-identical reports
    def run_once():
        config = ci.ExperimentConfig(
            dataset=ci.benchmark_spec(seed=3),
            source_domains=("1", "2"),
            target_domains=("3",),
            methods=("raw_knn", "kpca", "cidg"),
            grids=ci.Grids(
                bandwidth_scale=(1.0, 2.0), gamma=(0.1, 1.0), alpha=(1.0,), k=(1, 3)
            ),
            repetitions=2,
            seed=11,
        )
        record = ci.run_experiment(config)
        return ci.report_json(record).encode(), ci.report_table(record).encode()

    json_a, table_a = run_once()
    json_b, table_b = run_once()
    assert json_a == json_b
    assert table_a == table_b

    # flipping the sign of any eigenvector column leaves predictions alone
    rng = np.random.default_rng(65)
    data = random_dataset(rng, n=20, d=3, domain_shift=0.5)
    test_points = rng.normal(size=(9, 3)) + 1.0
    model = ci.fit_baseline(ci.Method("cidg", q=3), data, ci.KernelSpec(bandwidth=1.0))
    signs = np.where(np.arange(model.n_components) % 2 == 0, -1.0, 1.0)
    flipped = _flip_columns(model, signs)
    base_pred = ci.knn_predict(
        ci.project(model, data.features), data.labels, ci.project(model, test_points), 3
    )
    flip_pred = ci.knn_predict(
        ci.project(flipped, data.features),
        data.labels,
        ci.project(flipped, test_points),
        3,
    )
    assert np.array_equal(base_pred, flip_pred)

    # permuting the training rows leaves predictions alone
    perm = np.random.default_rng(66).permutation(data.n)
    shuffled = ci.LabeledDataset(
        data.features[perm], data.labels[perm], data.domains[perm]
    )
    model_p = ci.fit_baseline(ci.Method("cidg", q=3), shuffled, ci.KernelSpec(bandwidth=1.0))
    perm_pred = ci.knn_predict(
        ci.project(model_p, shuffled.features),
        shuffled.labels,
        ci.project(model_p, test_points),
        3,
    )
    assert np.array_equal(base_pred, perm_pred)


# --- csv ingestion end to end --------------------------------------------------

def test_csv_end_to_end(tmp_path, capsys):
    # fabricate a 4-domain, 3-class feature table with string domain names
    rng = np.random.default_rng(321)
    rows = []
    domains = ("lab", "field", "sim", "web")
    for d_i, name in enumerate(domains):
        for j in (1, 2, 3):
            block = rng.normal(size=(10, 3)) + np.array([j * 2.0, j * 1.0, 0.0])
            block[:, 0] += 0.3 * d_i
            for row in block:
                rows.append((row, f"c{j}", name))
    csv_path = tmp_path / "four_domains.csv"
    with open(csv_path, "w") as fh:
        fh.write("f1,f2,f3,label,domain\n")
        for row, label, name in rows:
            fh.write(",".join(repr(float(v)) for v in row) + f",{label},{name}\n")

    config_path = tmp_path / "exp.yaml"
    config_path.write_text(
        "version: 1\n"
        "dataset:\n"
        "  csv: four_domains.csv\n"
        "experiment:\n"
        "  source_domains: [lab, field, sim]\n"
        "  target_domains: [web]\n"
        "  methods: [raw_knn, kpca, cidg]\n"
        "  repetitions: 2\n"
        "  seed: 1\n"
        "grids:\n"
        "  bandwidth_scale: [1.0]\n"
        "  gamma: [0.1, 1.0]\n"
        "  alpha: [1.0]\n"
        "  q: [2, 4]\n"
        "  k: [1, 3]\n"
    )
    out_dir = tmp_path / "results"
    code = main(["run", "--config", str(config_path), "--out-dir", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["source_domains"] == ["lab", "field", "sim"]
    assert report["target_domains"] == ["web"]
    assert {m["method"] for m in report["methods"]} == {"raw_knn", "kpca", "cidg"}
    for m in report["methods"]:
        assert len(m["repetitions"]) == 2
        for rep in m["repetitions"]:
            assert 0.0 <= rep["accuracy"] <= 1.0
    table = (out_dir / "report.txt").read_text()
    header = [cell.strip() for cell in table.splitlines()[0].split("|")]
    assert header == ["source", "target", "raw_knn", "kpca", "cidg"]
    assert "lab,field,sim" in table
