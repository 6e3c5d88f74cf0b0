"""CLI subcommands, exercised in-process through main()."""

import hashlib
import json
import os

import numpy as np
import pytest
import yaml

import condinv as ci
from condinv.cli import main

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

    def test_benchmark_report_is_pinned(self, tmp_path):
        # the same guard for the full bundled benchmark run
        config = os.path.join(CONFIG_DIR, "benchmark.yaml")
        assert main(["run", "--config", config, "--out-dir", str(tmp_path)]) == 0
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
        # values must match the library applied directly
        want = ci.project(model, np.array([[2.5, 1.0], [4.5, 2.0], [3.0, 1.5]]))
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(got, want)

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
        "grids", [{"gamma": 5}, {"gamma": ["much"]}, {"q": [float("inf")]}]
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
