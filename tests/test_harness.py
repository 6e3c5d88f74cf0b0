"""Experiment orchestration: configs, grid search, protocol, reports."""

import json

import numpy as np
import pytest
import yaml

import condinv as ci
from condinv.dataset import CellSpec, SyntheticSpec
from condinv.harness import HarnessError, _method_axes
from conftest import missing_cell_dataset, random_dataset


def small_spec(seed=21, third_domain=None):
    """3 domains x 2 classes, 8 samples per cell; domain 3 is the target.

    third_domain overrides the (mean shift, count) of the target cells so
    tests can vary the target without touching the sources.
    """
    cells = {}
    for s in (1, 2):
        for j in (1, 2):
            cells[(s, j)] = CellSpec(
                mean=(j * 2.0 + 0.4 * s, j * 1.0), std=(0.4, 0.4), count=8
            )
    shift, count = third_domain if third_domain else (0.8, 8)
    for j in (1, 2):
        cells[(3, j)] = CellSpec(mean=(j * 2.0 + shift, j * 1.0), std=(0.4, 0.4), count=count)
    return SyntheticSpec(cells=cells, seed=seed)


def small_config(**overrides):
    base = dict(
        dataset=small_spec(),
        source_domains=("1", "2"),
        target_domains=("3",),
        methods=("raw_knn", "cidg"),
        grids=ci.Grids(
            bandwidth_scale=(0.5, 1.0),
            gamma=(0.1, 1.0),
            alpha=(1.0,),
            epsilon=(1e-5,),
            q=(2,),
            k=(1, 3),
        ),
        repetitions=2,
        seed=5,
    )
    base.update(overrides)
    return ci.ExperimentConfig(**base)


class TestGrids:
    def test_validation(self):
        with pytest.raises(HarnessError, match="non-empty"):
            ci.Grids(bandwidth_scale=())
        with pytest.raises(HarnessError, match="positive"):
            ci.Grids(gamma=(0.0, 1.0))
        with pytest.raises(HarnessError, match="non-empty"):
            ci.Grids(q=())
        with pytest.raises(HarnessError, match=">= 1"):
            ci.Grids(q=(0,))

    def test_resolve_q_default(self):
        grids = ci.Grids()
        # n=40, C=3, m=2: {2, 6, 12}
        assert grids.resolve_q(40, 3, 2) == (2, 6, 12)
        # clamped to n - 1 and deduplicated
        assert grids.resolve_q(7, 3, 2) == (2, 6)
        assert grids.resolve_q(3, 3, 2) == (2,)

    def test_resolve_q_explicit(self):
        grids = ci.Grids(q=(4, 2, 50, 4))
        assert grids.resolve_q(10, 3, 2) == (2, 4, 9)

    def test_default_axes(self):
        grids = ci.Grids()
        assert grids.bandwidth_scale == (0.25, 0.5, 1.0, 2.0, 4.0)
        assert grids.k == (1, 3, 5)
        assert grids.epsilon == (1e-5,)
        assert len(grids.gamma) == 7 and len(grids.alpha) == 7

    def test_method_axes_pin_unused(self):
        grids = ci.Grids()
        scale, gamma, alpha, eps, k = _method_axes("raw_knn", grids)
        assert scale == gamma == alpha == eps == (None,)
        assert k == (1, 3, 5)
        scale, gamma, alpha, eps, k = _method_axes("kpca", grids)
        assert gamma == alpha == eps == (None,)
        assert scale == grids.bandwidth_scale
        scale, gamma, alpha, eps, k = _method_axes("kfda", grids)
        assert gamma == alpha == (None,)
        assert eps == grids.epsilon
        scale, gamma, alpha, eps, k = _method_axes("cidg", grids)
        assert gamma == tuple(sorted(grids.gamma))


class TestExperimentConfig:
    def test_domain_overlap_rejected(self):
        with pytest.raises(HarnessError, match="both source and target"):
            small_config(source_domains=("1", "2"), target_domains=("2",))

    def test_empty_sides_rejected(self):
        with pytest.raises(HarnessError, match="non-empty"):
            small_config(target_domains=())

    def test_unknown_method_rejected(self):
        with pytest.raises(HarnessError, match="unknown methods"):
            small_config(methods=("cidg", "resnet"))

    def test_fraction_bounds(self):
        with pytest.raises(HarnessError, match="train_fraction"):
            small_config(train_fraction=1.0)
        with pytest.raises(HarnessError, match="validation_fraction"):
            small_config(validation_fraction=0.0)

    def test_repetitions_and_centering(self):
        with pytest.raises(HarnessError, match="repetitions"):
            small_config(repetitions=0)
        with pytest.raises(HarnessError, match="cross_centering"):
            small_config(cross_centering="fancy")


class TestConfigParsing:
    def tree(self, tmp_path):
        spec = {
            "version": 1,
            "seed": 3,
            "domains": {
                s: {
                    j: {"x": [float(j), 0.3], "y": [float(s), 0.3], "count": 6}
                    for j in (1, 2)
                }
                for s in (1, 2, 3)
            },
        }
        return {
            "version": 1,
            "dataset": {"synthetic": spec},
            "experiment": {
                "source_domains": ["1", "2"],
                "target_domains": ["3"],
                "methods": ["raw_knn", "kpca"],
                "repetitions": 2,
                "seed": 9,
                "train_fraction": 0.6,
                "validation_fraction": 0.25,
                "cross_centering": "standard",
            },
            "kernel": {"family": "rbf", "bandwidth": "median"},
            "grids": {"bandwidth_scale": [1.0, 2.0], "k": [1]},
        }

    def test_full_tree(self, tmp_path):
        config = ci.config_from_mapping(self.tree(tmp_path))
        assert isinstance(config.dataset, SyntheticSpec)
        assert config.dataset.total == 36
        assert config.source_domains == ("1", "2")
        assert config.methods == ("raw_knn", "kpca")
        assert config.repetitions == 2 and config.seed == 9
        assert config.train_fraction == 0.6
        assert config.cross_centering == "standard"
        assert config.grids.bandwidth_scale == (1.0, 2.0)
        assert config.grids.k == (1,)
        assert config.grids.gamma == ci.Grids().gamma  # untouched axis keeps default

    def test_version_required(self, tmp_path):
        tree = self.tree(tmp_path)
        tree["version"] = 2
        with pytest.raises(HarnessError, match="version"):
            ci.config_from_mapping(tree)

    def test_exactly_one_dataset_kind(self, tmp_path):
        tree = self.tree(tmp_path)
        tree["dataset"]["csv"] = "data.csv"
        with pytest.raises(HarnessError, match="exactly one"):
            ci.config_from_mapping(tree)
        del tree["dataset"]["csv"]
        del tree["dataset"]["synthetic"]
        with pytest.raises(HarnessError, match="exactly one"):
            ci.config_from_mapping(tree)

    def test_unknown_grid_axis(self, tmp_path):
        tree = self.tree(tmp_path)
        tree["grids"]["sigma"] = [1.0]
        with pytest.raises(HarnessError, match="unknown grid axes"):
            ci.config_from_mapping(tree)

    def test_missing_experiment_key(self, tmp_path):
        tree = self.tree(tmp_path)
        del tree["experiment"]["methods"]
        with pytest.raises(HarnessError, match="experiment.methods"):
            ci.config_from_mapping(tree)

    def test_csv_path_resolves_against_base_dir(self, tmp_path):
        tree = self.tree(tmp_path)
        tree["dataset"] = {"csv": {"path": "inner/data.csv", "label_column": "y"}}
        config = ci.config_from_mapping(tree, base_dir=str(tmp_path))
        assert config.dataset.path == str(tmp_path / "inner" / "data.csv")
        assert config.dataset.label_column == "y"

    def test_config_from_file_with_relative_spec(self, tmp_path):
        spec_path = tmp_path / "spec.yaml"
        with open(spec_path, "w") as fh:
            yaml.safe_dump(self.tree(tmp_path)["dataset"]["synthetic"], fh)
        tree = self.tree(tmp_path)
        tree["dataset"] = {"synthetic": "spec.yaml"}
        config_path = tmp_path / "experiment.yaml"
        with open(config_path, "w") as fh:
            yaml.safe_dump(tree, fh)
        config = ci.config_from_file(str(config_path))
        assert isinstance(config.dataset, SyntheticSpec)
        assert config.dataset.total == 36

    def test_load_dataset_synthetic_and_csv(self, tmp_path):
        config = small_config()
        data = ci.load_dataset(config)
        assert data.n == small_spec().total
        csv_path = tmp_path / "d.csv"
        ci.save_csv(data, csv_path)
        csv_config = small_config(
            dataset=ci.CsvSource(path=str(csv_path)), repetitions=1
        )
        back = ci.load_dataset(csv_config)
        assert np.array_equal(back.features, data.features)


class TestGridSearch:
    def parts(self, config=None):
        return ci.repetition_parts(config or small_config(), 0)

    def test_raw_knn_searches_k_only(self):
        train, val, fit_part = self.parts()
        grids = ci.Grids(k=(1, 3, 5))
        chosen = ci.grid_search(fit_part, val, "raw_knn", grids)
        assert chosen.bandwidth_scale is None
        assert chosen.gamma is None and chosen.alpha is None
        assert chosen.epsilon is None and chosen.q is None
        # oracle: best k by validation accuracy, first strict maximum
        best_k, best_acc = None, -1.0
        for k in (1, 3, 5):
            acc = ci.accuracy(
                ci.knn_predict(fit_part.features, fit_part.labels, val.features, k),
                val.labels,
            )
            if acc > best_acc:
                best_k, best_acc = k, acc
        assert chosen.k == best_k
        assert chosen.validation_accuracy == pytest.approx(best_acc)

    def test_single_point_grid(self):
        train, val, fit_part = self.parts()
        grids = ci.Grids(
            bandwidth_scale=(1.5,), gamma=(0.3,), alpha=(0.7,), epsilon=(1e-4,),
            q=(2,), k=(3,),
        )
        chosen = ci.grid_search(fit_part, val, "cidg", grids)
        assert chosen.bandwidth_scale == 1.5
        assert chosen.gamma == 0.3 and chosen.alpha == 0.7
        assert chosen.epsilon == 1e-4 and chosen.q == 2 and chosen.k == 3

    @pytest.mark.parametrize("centering", ["paper", "standard"])
    @pytest.mark.parametrize("tag", ["kpca", "dica_marginal", "kfda", "cidg"])
    def test_matches_exhaustive_oracle(self, tag, centering):
        # independent re-evaluation of every grid point, fitting each q
        # directly through fit_baseline -> project -> knn_predict instead of
        # slicing a shared q_max solve on shared per-bandwidth work
        train, val, fit_part = self.parts()
        grids = ci.Grids(
            bandwidth_scale=(0.75, 1.5),
            gamma=(0.1, 1.0),
            alpha=(0.5,),
            epsilon=(1e-5,),
            q=(2, 4),
            k=(1, 3),
        )
        chosen = ci.grid_search(fit_part, val, tag, grids, cross_centering=centering)
        base = ci.median_bandwidth(fit_part.features)
        q_values = grids.resolve_q(fit_part.n, len(fit_part.class_ids), len(fit_part.domain_ids))
        scales, gammas, alphas, epsilons, ks = _method_axes(tag, grids)
        best = None
        for scale in scales:
            spec = ci.KernelSpec("rbf", base * scale)
            for gamma in gammas:
                for alpha in alphas:
                    for eps in epsilons:
                        for q in q_values:
                            method = ci.Method(
                                tag,
                                gamma=1.0 if gamma is None else gamma,
                                alpha=1.0 if alpha is None else alpha,
                                epsilon=1e-5 if eps is None else eps,
                                q=q,
                            )
                            model = ci.fit_baseline(method, fit_part, spec)
                            tp = ci.project(model, fit_part.features, mode="paper")
                            vp = ci.project(model, val.features, mode=centering)
                            for k in ks:
                                acc = ci.accuracy(
                                    ci.knn_predict(tp, fit_part.labels, vp, k), val.labels
                                )
                                point = (scale, gamma, alpha, eps, q, k, acc)
                                if best is None or acc > best[-1]:
                                    best = point
        assert chosen.bandwidth_scale == best[0]
        assert chosen.gamma == best[1]
        assert chosen.alpha == best[2]
        assert chosen.epsilon == best[3]
        assert chosen.q == best[4]
        assert chosen.k == best[5]
        assert chosen.validation_accuracy == pytest.approx(best[6])
        assert chosen.warnings == ()

    def test_saturated_grid_picks_first_point(self, rng):
        # classes far apart: every grid point validates at 1.0, so the
        # documented tie rule keeps the lexicographically first one
        feats, labels, domains = [], [], []
        for s in (1, 2):
            for j in (1, 2):
                feats.append(rng.normal(size=(10, 2)) * 0.1 + 10.0 * j)
                labels.append(np.full(10, j))
                domains.append(np.full(10, s))
        data = ci.LabeledDataset(np.vstack(feats), np.concatenate(labels), np.concatenate(domains))
        train, rest, _ = ci.split(data, 0.7, seed=0)
        grids = ci.Grids(
            bandwidth_scale=(0.5, 1.0, 2.0), gamma=(0.1, 1.0), alpha=(0.1, 1.0),
            epsilon=(1e-5, 1e-3), q=(2, 3), k=(1, 3),
        )
        chosen = ci.grid_search(train, rest, "cidg", grids)
        assert chosen.validation_accuracy == 1.0
        assert chosen.bandwidth_scale == 0.5
        assert chosen.gamma == 0.1 and chosen.alpha == 0.1
        assert chosen.epsilon == 1e-5 and chosen.q == 2 and chosen.k == 1

    def test_all_points_failing_raises(self, rng):
        # a training side with a class missing from one domain breaks every
        # strict fit, so the search reports the collected failures: one per
        # (scale, gamma, alpha, epsilon) point, although the weights fail
        # once per scale, before any solve
        feats = rng.normal(size=(12, 2))
        labels = np.array([1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2])
        domains = np.array([1, 1, 1, 2, 2, 2, 1, 1, 1, 1, 1, 1])
        train = ci.LabeledDataset(feats, labels, domains)
        val = ci.LabeledDataset(rng.normal(size=(4, 2)), np.array([1, 1, 2, 2]), np.ones(4, int))
        grids = ci.Grids(bandwidth_scale=(1.0, 2.0), gamma=(0.1, 1.0), alpha=(1.0,), k=(1,))
        with pytest.raises(HarnessError, match="all grid points failed") as info:
            ci.grid_search(train, val, "cidg", grids)
        assert str(info.value).count("scale=") == 4
        assert str(info.value).count("classes missing from some domains") == 4

    @pytest.mark.parametrize("tag", ["kfda", "dica_marginal", "cidg"])
    def test_missing_cell_fails_only_cidg(self, rng, tag):
        train, val = missing_cell_dataset(rng), missing_cell_dataset(rng, n_per=2)
        grids = ci.Grids(bandwidth_scale=(1.0, 2.0), q=(2,), k=(1, 3))
        if tag == "cidg":
            with pytest.raises(HarnessError, match="classes missing from some domains"):
                ci.grid_search(train, val, tag, grids)
        else:
            assert ci.grid_search(train, val, tag, grids).warnings == ()

    def test_partial_failures_warn_once(self):
        # at a bandwidth a billion times the median every kernel entry
        # rounds to 1, the centered Gram matrix is exactly zero and each
        # solve fails; the scale that fits still wins, and the repetition
        # carries one warning counting the failed points
        grids = ci.Grids(
            bandwidth_scale=(1.0, 1e9), gamma=(0.1, 1.0), alpha=(1.0,), q=(2,), k=(1,)
        )
        train, val, fit_part = self.parts()
        chosen = ci.grid_search(fit_part, val, "cidg", grids)
        assert chosen.bandwidth_scale == 1.0
        assert len(chosen.warnings) == 1
        assert chosen.warnings[0].startswith(
            "grid search: 2 of 4 points failed; first: scale=1000000000.0 gamma=0.1 "
            "alpha=1.0 epsilon=1e-05: no positive eigenvalues"
        )
        record = ci.run_experiment(small_config(methods=("cidg",), repetitions=1, grids=grids))
        rep = record.methods[0].repetitions[0]
        assert [w for w in rep.warnings if w.startswith("grid search:")] == list(chosen.warnings)
        tree = json.loads(ci.report_json(record))
        assert chosen.warnings[0] in tree["methods"][0]["repetitions"][0]["warnings"]

    def test_programming_error_is_not_a_failed_point(self, monkeypatch):
        # only the package's own error types count as failed grid points;
        # a bare ValueError from inside a fit must surface unchanged
        import condinv.classify

        def broken_solve(*args, **kwargs):
            raise ValueError("bug inside the solver")

        monkeypatch.setattr(condinv.classify, "solve_plane", broken_solve)
        train, val, fit_part = self.parts()
        with pytest.raises(ValueError, match="bug inside the solver") as info:
            ci.grid_search(fit_part, val, "cidg", ci.Grids(bandwidth_scale=(1.0,), k=(1,)))
        assert info.type is ValueError

    @pytest.mark.parametrize("tag", ["kfda", "cidg"])
    def test_one_factorization_and_one_stacked_solve_per_plane(self, tag, monkeypatch):
        # every (scale, epsilon) plane is factored once and solved in one
        # stacked call; no grid point falls back to its own solve
        import condinv.classify

        calls = {"factor_pencil": 0, "solve_plane": [], "solve": 0}

        def counted(name, inner):
            def wrapper(*args, **kwargs):
                if name == "solve_plane":
                    calls[name].append(len(args[1]))
                else:
                    calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(
                condinv.classify, name, counted(name, getattr(condinv.classify, name))
            )
        grids = ci.Grids(
            bandwidth_scale=(0.5, 1.0, 2.0), gamma=(0.1, 1.0, 10.0), alpha=(0.5, 2.0),
            epsilon=(1e-5, 1e-3), q=(2, 4), k=(1, 3),
        )
        train, val, fit_part = self.parts()
        ci.grid_search(fit_part, val, tag, grids)
        plane = 3 * 2 if tag == "cidg" else 1
        assert calls["factor_pencil"] == 3 * 2
        assert calls["solve_plane"] == [plane] * (3 * 2)
        assert calls["solve"] == 0

    def test_unknown_method(self):
        train, val, fit_part = self.parts()
        with pytest.raises(HarnessError, match="unknown method"):
            ci.grid_search(fit_part, val, "boost", ci.Grids())

    @pytest.mark.parametrize("tag", ["kpca", "kfda", "cidg"])
    def test_one_fit_row_leaves_no_q(self, tag):
        # q ranges over 1..n-1, which is empty for one fit row; raw_knn
        # still classifies with k = 1
        one = ci.LabeledDataset(np.zeros((1, 2)), np.array([1]), np.array([1]))
        val = ci.LabeledDataset(np.ones((2, 2)), np.array([1, 1]), np.array([1, 1]))
        grids = ci.Grids(bandwidth_scale=(1.0,), gamma=(1.0,), alpha=(1.0,), k=(1, 3))
        kernel = ci.KernelSpec(bandwidth=1.0)
        with pytest.raises(HarnessError, match=f"{tag} needs at least 2 fit rows to project, got 1"):
            ci.grid_search(one, val, tag, grids, kernel=kernel)
        assert ci.grid_search(one, val, "raw_knn", grids, kernel=kernel).k == 1


class TestRunExperiment:
    def test_record_shape_and_methods(self):
        config = small_config()
        record = ci.run_experiment(config)
        assert record.source_domains == ("1", "2")
        assert record.target_domains == ("3",)
        assert [m.method for m in record.methods] == ["raw_knn", "cidg"]
        for m in record.methods:
            assert len(m.repetitions) == 2
            for r, rep in enumerate(m.repetitions):
                assert rep.repetition == r
                assert rep.seed == config.seed + r
                assert 0.0 <= rep.accuracy <= 1.0

    def test_mean_and_std_recompute(self):
        record = ci.run_experiment(small_config())
        for m in record.methods:
            accs = np.array([r.accuracy for r in m.repetitions])
            assert m.mean == pytest.approx(accs.mean())
            assert m.std == pytest.approx(accs.std(ddof=0))

    def test_single_repetition_zero_std(self):
        record = ci.run_experiment(small_config(repetitions=1))
        for m in record.methods:
            assert m.std == 0.0

    def test_deterministic_reruns(self):
        a = ci.report_json(ci.run_experiment(small_config()))
        b = ci.report_json(ci.run_experiment(small_config()))
        assert a == b

    def test_seed_ladder(self):
        # repetition r of a run at base seed equals repetition 0 of a
        # single-repetition run at base seed + r
        two = ci.run_experiment(small_config(repetitions=2, seed=5))
        one = ci.run_experiment(small_config(repetitions=1, seed=6))
        for m2, m1 in zip(two.methods, one.methods):
            assert m2.repetitions[1].accuracy == m1.repetitions[0].accuracy
            assert m2.repetitions[1].chosen == m1.repetitions[0].chosen
            assert m2.repetitions[1].seed == m1.repetitions[0].seed == 6

    def test_target_rows_cannot_influence_selection(self):
        # two datasets identical on sources, very different on the target:
        # every chosen parameter and validation accuracy must coincide
        near = small_config(dataset=small_spec(third_domain=(0.8, 8)), methods=("raw_knn", "kpca", "cidg"))
        far = small_config(dataset=small_spec(third_domain=(30.0, 20)), methods=("raw_knn", "kpca", "cidg"))
        ra, rb = ci.run_experiment(near), ci.run_experiment(far)
        for ma, mb in zip(ra.methods, rb.methods):
            for pa, pb in zip(ma.repetitions, mb.repetitions):
                assert pa.chosen == pb.chosen

    def test_unknown_domain_name(self):
        config = small_config(target_domains=("9",))
        with pytest.raises(HarnessError, match="target domain '9'"):
            ci.run_experiment(config)

    def test_repetition_parts_partition(self):
        config = small_config()
        train, val, fit_part = ci.repetition_parts(config, 1)
        assert val.n + fit_part.n == train.n
        assert set(train.domain_ids) <= {1, 2}
        with pytest.raises(HarnessError, match="out of range"):
            ci.repetition_parts(config, 2)

    def test_refit_reproduces_recorded_accuracy(self):
        config = small_config(methods=("cidg",), repetitions=1)
        record = ci.run_experiment(config)
        rep = record.methods[0].repetitions[0]
        models = ci.refit_repetition(config, record, 0)
        model = models["cidg"]
        train, _, _ = ci.repetition_parts(config, 0)
        data = ci.load_dataset(config)
        target = data.subset_domains([3])
        tp = ci.project(model, train.features, mode="paper")
        gp = ci.project(model, target.features, mode=config.cross_centering)
        acc = ci.accuracy(ci.knn_predict(tp, train.labels, gp, rep.chosen.k), target.labels)
        assert acc == pytest.approx(rep.accuracy)


class TestReports:
    def test_json_shape(self):
        record = ci.run_experiment(small_config(repetitions=1))
        import json

        tree = json.loads(ci.report_json(record))
        assert tree["report_version"] == 1
        assert tree["source_domains"] == ["1", "2"]
        assert tree["target_domains"] == ["3"]
        methods = {m["method"] for m in tree["methods"]}
        assert methods == {"raw_knn", "cidg"}
        for m in tree["methods"]:
            assert len(m["repetitions"]) == 1
            rep = m["repetitions"][0]
            assert set(rep["chosen"]) == {
                "bandwidth_scale", "gamma", "alpha", "epsilon", "q", "k",
                "validation_accuracy",
            }

    def test_table_layout(self):
        record = ci.run_experiment(small_config(repetitions=1))
        table = ci.report_table(record)
        lines = table.splitlines()
        assert lines[0].startswith("source | target | raw_knn")
        assert "±" in lines[2]
        assert lines[2].startswith("1,2")
        # per-repetition detail lines follow the summary block
        assert any(line.startswith("cidg: rep 0") for line in lines)

    def test_reports_have_no_timestamps(self):
        a = ci.report_json(ci.run_experiment(small_config(repetitions=1)))
        import time

        time.sleep(0.05)
        b = ci.report_json(ci.run_experiment(small_config(repetitions=1)))
        assert a == b


class TestExportFeatures:
    def test_raw_export_is_identity_on_first_two_columns(self, tmp_path):
        data = ci.generate_synthetic(small_spec())
        path = tmp_path / "raw.csv"
        ci.export_features(None, data, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "component_1,component_2,label,domain"
        assert len(lines) == data.n + 1
        first = lines[1].split(",")
        assert float(first[0]) == data.features[0, 0]
        assert float(first[1]) == data.features[0, 1]
        assert first[2] == data.label_names[int(data.labels[0])]

    def test_projected_export(self, rng, tmp_path):
        data = random_dataset(rng, n=16, d=3, domain_shift=0.5)
        model = ci.fit_baseline(ci.Method("cidg", q=3), data, ci.KernelSpec(bandwidth=1.0))
        path = tmp_path / "proj.csv"
        ci.export_features(model, data, str(path), mode="paper")
        lines = path.read_text().splitlines()
        assert len(lines) == 17
        want = ci.project(model, data.features, mode="paper")[:, :2]
        got0 = [float(v) for v in lines[1].split(",")[:2]]
        assert got0 == [want[0, 0], want[0, 1]]  # repr round trip is exact

    def test_single_component_model_rejected(self, tmp_path):
        # collinear cloud with a linear kernel keeps only one component
        x = np.linspace(-2, 2, 12).reshape(-1, 1) @ np.array([[1.0, 0.5]])
        data = ci.LabeledDataset(x, np.tile([1, 2], 6), np.repeat([1, 2], 6))
        model = ci.fit_baseline(
            ci.Method("kpca", q=3), data, ci.KernelSpec(family="linear", bandwidth=1.0)
        )
        assert model.n_components == 1
        with pytest.raises(HarnessError, match="q >= 2"):
            ci.export_features(model, data, str(tmp_path / "x.csv"))

    def test_raw_export_needs_two_columns(self, tmp_path):
        data = ci.LabeledDataset(np.ones((3, 1)), np.array([1, 1, 2]), np.array([1, 1, 1]))
        with pytest.raises(HarnessError, match="2 feature columns"):
            ci.export_features(None, data, str(tmp_path / "x.csv"))
