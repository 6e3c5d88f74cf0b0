"""CLI subcommands, exercised in-process through main()."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import condinv as ci
from condinv.cli import main
from conftest import random_dataset

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
QUICK_CONFIG = os.path.join(CONFIG_DIR, "quick.yaml")

SPEC_TEXT = """\
version: 1
seed: 21
domains:
  1:
    1: {x: [2.4, 0.4], y: [1.0, 0.4], count: 8}
    2: {x: [4.4, 0.4], y: [2.0, 0.4], count: 8}
    3: {x: [6.4, 0.4], y: [1.0, 0.4], count: 8}
  2:
    1: {x: [2.8, 0.4], y: [1.0, 0.4], count: 8}
    2: {x: [4.8, 0.4], y: [2.0, 0.4], count: 8}
    3: {x: [6.8, 0.4], y: [1.0, 0.4], count: 8}
  3:
    1: {x: [2.8, 0.4], y: [1.0, 0.4], count: 8}
    2: {x: [4.8, 0.4], y: [2.0, 0.4], count: 8}
    3: {x: [6.8, 0.4], y: [1.0, 0.4], count: 8}
"""


def write_config(tmp_path, **experiment_overrides):
    spec_path = tmp_path / "spec.yaml"
    spec_path.write_text(SPEC_TEXT)
    experiment = {
        "source_domains": ["1", "2"],
        "target_domains": ["3"],
        "methods": ["raw_knn", "cidg"],
        "repetitions": 1,
        "seed": 4,
    }
    experiment.update(experiment_overrides)
    tree = {
        "version": 1,
        "dataset": {"synthetic": "spec.yaml"},
        "experiment": experiment,
        "grids": {
            "bandwidth_scale": [1.0],
            "gamma": [0.1, 1.0],
            "alpha": [1.0],
            "q": [2],
            "k": [1, 3],
        },
    }
    config_path = tmp_path / "experiment.yaml"
    with open(config_path, "w") as fh:
        yaml.safe_dump(tree, fh)
    return config_path


def run_at_two_blas_threads(config, out_dir):
    """condinv run in a fresh interpreter with BLAS at two threads."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ci.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    env.update(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2", MKL_NUM_THREADS="2")
    subprocess.run(
        [sys.executable, "-m", "condinv.cli", "run", "--config", config, "--out-dir", str(out_dir)],
        env=env, check=True, capture_output=True,
    )


class TestSynth:
    def test_writes_csv(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.yaml"
        spec_path.write_text(SPEC_TEXT)
        out = tmp_path / "data.csv"
        code = main(["synth", "--spec", str(spec_path), "--out", str(out)])
        assert code == 0
        assert "wrote 72 rows" in capsys.readouterr().out
        data = ci.load_csv(out)
        assert data.n == 72
        assert data.domain_ids == (1, 2, 3)

    def test_seed_override_changes_rows(self, tmp_path):
        spec_path = tmp_path / "spec.yaml"
        spec_path.write_text(SPEC_TEXT)
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        main(["synth", "--spec", str(spec_path), "--out", str(a)])
        main(["synth", "--spec", str(spec_path), "--out", str(b)])
        main(["synth", "--spec", str(spec_path), "--seed", "99", "--out", str(c)])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    @pytest.mark.parametrize(
        "spec_seed, override", [("21", ["--seed", "-2"]), ("-3", [])], ids=["flag", "spec"]
    )
    def test_negative_seed_is_one_error_line(self, tmp_path, capsys, spec_seed, override):
        spec_path = tmp_path / "spec.yaml"
        spec_path.write_text(SPEC_TEXT.replace("seed: 21", f"seed: {spec_seed}"))
        out = tmp_path / "data.csv"
        code = main(["synth", "--spec", str(spec_path), *override, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be >= 0") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_spec_fails(self, tmp_path, capsys):
        code = main(["synth", "--spec", str(tmp_path / "no.yaml"), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_writes_reports(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out_dir = tmp_path / "results"
        code = main(["run", "--config", str(config), "--out-dir", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert {m["method"] for m in report["methods"]} == {"raw_knn", "cidg"}
        table = (out_dir / "report.txt").read_text()
        assert table.startswith("source | target |")
        shown = capsys.readouterr().out
        assert "reports written" in shown

    def test_reruns_are_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        main(["run", "--config", str(config), "--out-dir", str(d1)])
        main(["run", "--config", str(config), "--out-dir", str(d2)])
        assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
        assert (d1 / "report.txt").read_bytes() == (d2 / "report.txt").read_bytes()

    def test_quick_report_is_pinned(self, tmp_path):
        # the bundled quick run's report must not change by a byte across
        # refactors; a deliberate change updates this digest and says why
        assert main(["run", "--config", QUICK_CONFIG, "--out-dir", str(tmp_path)]) == 0
        digest = hashlib.md5((tmp_path / "report.json").read_bytes()).hexdigest()
        assert digest == "7cf08b4df1ed71feced9a249996b41a2"

    def test_quick_report_is_pinned_at_two_blas_threads(self, tmp_path):
        # the CLI runs at BLAS's default thread count, not the suite's one
        # thread: the report's bytes must not depend on the thread count
        run_at_two_blas_threads(QUICK_CONFIG, tmp_path)
        digest = hashlib.md5((tmp_path / "report.json").read_bytes()).hexdigest()
        assert digest == "7cf08b4df1ed71feced9a249996b41a2"

    def test_benchmark_report_is_pinned(self, tmp_path):
        # the same guard for the full bundled benchmark run, and for the
        # models it saves: they hold what the report does not (coefficients,
        # gamma, alpha, the effective epsilon and the requested q)
        config = os.path.join(CONFIG_DIR, "benchmark.yaml")
        models = tmp_path / "models"
        assert main([
            "run", "--config", config, "--out-dir", str(tmp_path), "--save-models", str(models),
        ]) == 0
        digest = hashlib.md5((tmp_path / "report.json").read_bytes()).hexdigest()
        assert digest == "1a724965f344501ca9bafcda0069e3b8"
        assert {
            path.name: hashlib.md5(path.read_bytes()).hexdigest() for path in models.iterdir()
        } == {
            "cidg.model": "c34d9d7bb757fc6f68b46613335b7a17",
            "dica_marginal.model": "da80be1a019795e7ff30d70f3b02166d",
            "kfda.model": "712799bc89d624ec42dd521e98fa4f38",
            "kpca.model": "149c449ee6bbfba83c61329bf482f179",
        }

    def test_benchmark_report_is_pinned_at_two_blas_threads(self, tmp_path):
        # the report only: at two threads the cidg, dica_marginal and kfda
        # model files differ in their last bits from the one-thread ones
        run_at_two_blas_threads(os.path.join(CONFIG_DIR, "benchmark.yaml"), tmp_path)
        digest = hashlib.md5((tmp_path / "report.json").read_bytes()).hexdigest()
        assert digest == "1a724965f344501ca9bafcda0069e3b8"

    def test_save_models(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out_dir = tmp_path / "results"
        model_dir = tmp_path / "models"
        code = main([
            "run", "--config", str(config), "--out-dir", str(out_dir),
            "--save-models", str(model_dir),
        ])
        assert code == 0
        assert (model_dir / "cidg.model").exists()
        assert not (model_dir / "raw_knn.model").exists()
        assert "no model file for raw_knn" in capsys.readouterr().out
        model = ci.load_model(model_dir / "cidg.model")
        assert model.kernel_spec.family == "rbf"

    def test_bad_config_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("version: 1\ndataset: {}\n")
        code = main(["run", "--config", str(bad), "--out-dir", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_missing_config_fails(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "no.yaml"), "--out-dir", str(tmp_path / "x")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestGrid:
    def test_prints_winners(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(["grid", "--config", str(config), "--repetition", "0"])
        assert code == 0
        tree = json.loads(capsys.readouterr().out)
        assert set(tree) == {"raw_knn", "cidg"}
        assert tree["cidg"]["q"] == 2
        assert tree["raw_knn"]["bandwidth_scale"] is None
        assert 0.0 <= tree["cidg"]["validation_accuracy"] <= 1.0

    def test_writes_file(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "winners.json"
        code = main(["grid", "--config", str(config), "--out", str(out)])
        assert code == 0
        tree = json.loads(out.read_text())
        assert set(tree) == {"raw_knn", "cidg"}

    def test_winners_match_the_report(self, tmp_path, capsys):
        # grid --repetition r re-derives repetition r's splits and winners,
        # which run records in report.json
        config = write_config(tmp_path, methods=["raw_knn", "kpca", "cidg"], repetitions=2)
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        for r in (0, 1):
            capsys.readouterr()
            assert main(["grid", "--config", str(config), "--repetition", str(r)]) == 0
            winners = json.loads(capsys.readouterr().out)
            recorded = {m["method"]: m["repetitions"][r]["chosen"] for m in report["methods"]}
            assert winners == recorded

    def test_out_of_range_repetition(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(["grid", "--config", str(config), "--repetition", "5"])
        assert code == 1
        assert "out of range" in capsys.readouterr().err

    def test_partial_failures_warn_on_stderr(self, tmp_path, capsys):
        # at a billion times the median bandwidth every cidg solve fails (see
        # test_harness.py::test_partial_failures_warn_once); the winners on
        # stdout are those of the grid without that scale
        config = write_config(tmp_path)
        assert main(["grid", "--config", str(config)]) == 0
        clean = capsys.readouterr()
        tree = yaml.safe_load(config.read_text())
        tree["grids"]["bandwidth_scale"] = [1.0, 1e9]
        config.write_text(yaml.safe_dump(tree))
        assert main(["grid", "--config", str(config)]) == 0
        out, err = capsys.readouterr()
        assert out == clean.out and clean.err == ""
        assert err.startswith("warning: cidg: grid search: 2 of 4 points failed; first: ")
        assert err.count("\n") == 1


class TestProjectAndExport:
    def make_model(self, tmp_path):
        config = write_config(tmp_path)
        out_dir = tmp_path / "results"
        model_dir = tmp_path / "models"
        main([
            "run", "--config", str(config), "--out-dir", str(out_dir),
            "--save-models", str(model_dir),
        ])
        return model_dir / "cidg.model"

    def test_project_feature_csv(self, tmp_path, capsys):
        model_path = self.make_model(tmp_path)
        feats = tmp_path / "feats.csv"
        feats.write_text("x1,x2\n2.5,1.0\n4.5,2.0\n3.0,1.5\n")
        out = tmp_path / "proj.csv"
        code = main([
            "project", "--model", str(model_path), "--features", str(feats),
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        model = ci.load_model(model_path)
        assert lines[0] == ",".join(
            f"component_{i + 1}" for i in range(model.n_components)
        )
        assert len(lines) == 4
        # values must match the library applied directly, in the CLI's
        # default mode
        want = ci.project(model, np.array([[2.5, 1.0], [4.5, 2.0], [3.0, 1.5]]), mode="standard")
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(got, want)

    def test_default_mode_projects_each_row_on_its_own(self, tmp_path):
        # by default project and export-features center with the training
        # statistics alone, so a row alone gets its row of the whole file
        # (to rounding: BLAS and NumPy sum one row and many in other orders)
        model_path = self.make_model(tmp_path)
        data_csv = tmp_path / "data.csv"
        main(["synth", "--spec", str(tmp_path / "spec.yaml"), "--out", str(data_csv)])
        header, *rows = data_csv.read_text().splitlines()
        one_csv = tmp_path / "one.csv"
        one_csv.write_text(f"{header}\n{rows[5]}\n")
        feats_csv, one_feats_csv = tmp_path / "feats.csv", tmp_path / "one-feats.csv"
        feats_csv.write_text("x1,x2\n2.5,1.0\n4.5,2.0\n3.0,1.5\n")
        one_feats_csv.write_text("x1,x2\n4.5,2.0\n")
        lines = {}
        for name, args in (
            ("project", ["project", "--features", str(feats_csv)]),
            ("project-one", ["project", "--features", str(one_feats_csv)]),
            ("export", ["export-features", "--data", str(data_csv)]),
            ("export-one", ["export-features", "--data", str(one_csv)]),
        ):
            out = tmp_path / f"{name}.out.csv"
            assert main([*args, "--model", str(model_path), "--out", str(out)]) == 0
            lines[name] = out.read_text().splitlines()
        def parsed(line):
            cells = line.split(",")
            return np.array([float(v) for v in cells[:2]]), cells[2:]

        for one, whole in ((lines["project-one"][1], lines["project"][2]),
                           (lines["export-one"][1], lines["export"][6])):
            (got, got_tags), (want, want_tags) = parsed(one), parsed(whole)
            assert got_tags == want_tags
            assert np.abs(got - want).max() <= 1e-12

    def test_project_rejects_wrong_width(self, tmp_path, capsys):
        model_path = self.make_model(tmp_path)
        feats = tmp_path / "feats.csv"
        feats.write_text("a,b,c\n1,2,3\n")
        code = main([
            "project", "--model", str(model_path), "--features", str(feats),
            "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 1
        assert "columns" in capsys.readouterr().err

    def test_export_with_and_without_model(self, tmp_path, capsys):
        model_path = self.make_model(tmp_path)
        data_csv = tmp_path / "data.csv"
        main(["synth", "--spec", str(tmp_path / "spec.yaml"), "--out", str(data_csv)])
        raw_out = tmp_path / "raw.csv"
        proj_out = tmp_path / "proj.csv"
        assert main(["export-features", "--data", str(data_csv), "--out", str(raw_out)]) == 0
        assert main([
            "export-features", "--model", str(model_path),
            "--data", str(data_csv), "--out", str(proj_out),
        ]) == 0
        raw_lines = raw_out.read_text().splitlines()
        proj_lines = proj_out.read_text().splitlines()
        assert raw_lines[0] == proj_lines[0] == "component_1,component_2,label,domain"
        assert len(raw_lines) == len(proj_lines) == 73
        # raw export carries the original coordinates through unchanged
        data = ci.load_csv(data_csv)
        assert float(raw_lines[1].split(",")[0]) == data.features[0, 0]

    def test_inspect_model(self, tmp_path, capsys):
        model_path = self.make_model(tmp_path)
        capsys.readouterr()
        code = main(["inspect-model", "--model", str(model_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "kernel: rbf" in out
        assert "training samples:" in out
        assert "components:" in out
        assert "eigenvalues:" in out

    def test_inspect_model_projecting_through_every_row(self, tmp_path, capsys):
        # 12 rows at a narrow bandwidth: the factor passes n / 2 columns
        data = random_dataset(np.random.default_rng(3), n=12, d=2)
        model = ci.fit_baseline(ci.Method("cidg", q=2), data, ci.KernelSpec(bandwidth=0.5))
        assert model.pivots is None
        path = tmp_path / "dense.model"
        ci.save_model(model, path)
        capsys.readouterr()
        assert main(["inspect-model", "--model", str(path)]) == 0
        assert "projection: all 12 training rows\n" in capsys.readouterr().out

    def test_inspect_model_projecting_through_pivots(self, tmp_path, capsys):
        # 40 one-dimensional rows at a wide bandwidth: the factor stops early
        data = random_dataset(np.random.default_rng(3), n=40, d=1)
        model = ci.fit_baseline(ci.Method("cidg", q=2), data, ci.KernelSpec(bandwidth=2.0))
        m = model.pivots.features.shape[0]
        assert 2 * m <= 40
        path = tmp_path / "factored.model"
        ci.save_model(model, path)
        capsys.readouterr()
        assert main(["inspect-model", "--model", str(path)]) == 0
        assert f"projection: {m} of 40 training rows (pivots)\n" in capsys.readouterr().out

    def test_inspect_missing_model(self, tmp_path, capsys):
        code = main(["inspect-model", "--model", str(tmp_path / "no.model")])
        assert code == 1
        assert "not found" in capsys.readouterr().err


class TestErrorReporting:
    def test_non_utf8_csv_is_one_error_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe")
        code = main(["export-features", "--data", str(bad), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "UTF-8" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "grids",
        [{"gamma": 5}, {"gamma": ["much"]}, {"q": [float("inf")]}, {"k": [1.7]}, {"q": [2.5]}],
    )
    def test_mistyped_config_is_one_error_line(self, tmp_path, capsys, grids):
        config = write_config(tmp_path)
        tree = yaml.safe_load(config.read_text())
        tree["grids"].update(grids)
        config.write_text(yaml.safe_dump(tree))
        code = main(["run", "--config", str(config), "--out-dir", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grids.") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "experiment",
        [{"repetitions": 1.9}, {"seed": 0.5}, {"seed": -5}, {"source_domains": [[1, 2]]}],
    )
    def test_mistyped_experiment_is_one_error_line(self, tmp_path, capsys, experiment):
        config = write_config(tmp_path, **experiment)
        code = main(["run", "--config", str(config), "--out-dir", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_one_row_fit_part_is_one_error_line(self, tmp_path, capsys):
        # three source rows of one (domain, class) group split into a
        # one-row fit part, on which kpca has no component to keep
        (tmp_path / "data.csv").write_text(
            "x1,x2,label,domain\n0.1,0.2,a,s\n0.3,0.1,a,s\n0.2,0.4,a,s\n1.0,1.1,a,t\n"
        )
        config = tmp_path / "experiment.yaml"
        config.write_text(yaml.safe_dump({
            "version": 1,
            "dataset": {"csv": "data.csv"},
            "experiment": {"source_domains": ["s"], "target_domains": ["t"],
                           "methods": ["kpca"], "repetitions": 1},
            "kernel": {"bandwidth": 1.0},
        }))
        code = main(["run", "--config", str(config), "--out-dir", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: kpca needs at least 2 fit rows") and err.count("\n") == 1

    def test_unopenable_csv_path_is_one_error_line(self, tmp_path, capsys):
        config = tmp_path / "experiment.yaml"
        config.write_text(yaml.safe_dump({
            "version": 1,
            "dataset": {"csv": "a\0b"},
            "experiment": {"source_domains": ["s"], "target_domains": ["t"], "methods": ["kpca"]},
        }))
        code = main(["run", "--config", str(config), "--out-dir", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "null byte" in err and err.count("\n") == 1

    def test_value_error_from_the_library_propagates(self, tmp_path, monkeypatch):
        # a bare ValueError is a programming error, not a diagnosed failure
        import condinv.cli

        def broken(*args, **kwargs):
            raise ValueError("bug inside the library")

        monkeypatch.setattr(condinv.cli, "load_csv", broken)
        data_csv = tmp_path / "data.csv"
        data_csv.write_text("x1,x2,label,domain\n1,2,a,b\n")
        with pytest.raises(ValueError, match="bug inside the library") as info:
            main(["export-features", "--data", str(data_csv), "--out", str(tmp_path / "o.csv")])
        assert info.type is ValueError


class TestParser:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["dance"])
        assert err.value.code == 2

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--out", "x.csv"])
        assert err.value.code == 2
