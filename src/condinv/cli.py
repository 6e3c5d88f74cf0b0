"""Command-line entry points.

Subcommands:
  synth            generate a synthetic multi-domain CSV from a spec file
  run              execute a configured experiment, write report files
  grid             run one repetition's grid search and print the winners
  project          push a plain feature CSV through a saved model
  export-features  write plot-ready projected coordinates for labeled data
  inspect-model    print a saved model's dimensions and parameters

Every failure path prints one diagnostic line to stderr and exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np
import yaml

from .classify import ClassifyError
from .dataset import (
    DatasetError,
    generate_synthetic,
    load_csv,
    load_features,
    load_spec,
    save_csv,
)
from .harness import (
    HarnessError,
    config_from_file,
    export_features,
    grid_search,
    refit_repetition,
    repetition_parts,
    report_json,
    report_table,
    run_experiment,
)
from .kernel import KernelError
from .scatter import ScatterError
from .solver import SolverError, load_model, project, save_model

_ERRORS = (
    HarnessError,
    DatasetError,
    KernelError,
    ScatterError,
    SolverError,
    ClassifyError,
    OSError,
    yaml.YAMLError,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condinv",
        description="Kernel-space invariant representations for multi-domain data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic multi-domain CSV")
    p.add_argument("--spec", required=True, help="YAML spec of domain/class cells")
    p.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("run", help="run a configured experiment")
    p.add_argument("--config", required=True, help="YAML experiment config")
    p.add_argument("--out-dir", required=True, help="directory for report files")
    p.add_argument(
        "--save-models",
        metavar="DIR",
        default=None,
        help="also save repetition 0's refitted models as <method>.model",
    )

    p = sub.add_parser("grid", help="grid-search one repetition and print winners")
    p.add_argument("--config", required=True)
    p.add_argument("--repetition", type=int, default=0)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("project", help="project a plain feature CSV through a model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True, help="numeric CSV with header row")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("paper", "standard"), default="paper")

    p = sub.add_parser("export-features", help="projected coordinates for plotting")
    p.add_argument("--model", default=None, help="saved model; omit for raw features")
    p.add_argument("--data", required=True, help="labeled CSV (label/domain columns)")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("paper", "standard"), default="paper")
    p.add_argument("--label-column", default="label")
    p.add_argument("--domain-column", default="domain")

    p = sub.add_parser("inspect-model", help="describe a saved model")
    p.add_argument("--model", required=True)
    return parser


def _cmd_synth(args) -> int:
    spec = load_spec(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    data = generate_synthetic(spec)
    save_csv(data, args.out)
    print(f"wrote {data.n} rows to {args.out}")
    return 0


def _cmd_run(args) -> int:
    config = config_from_file(args.config)
    record = run_experiment(config)
    os.makedirs(args.out_dir, exist_ok=True)
    json_path = os.path.join(args.out_dir, "report.json")
    table_path = os.path.join(args.out_dir, "report.txt")
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report_json(record))
    with open(table_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report_table(record))
    if args.save_models is not None:
        os.makedirs(args.save_models, exist_ok=True)
        models = refit_repetition(config, record, repetition=0)
        for tag, model in models.items():
            save_model(model, os.path.join(args.save_models, f"{tag}.model"))
        skipped = [m.method for m in record.methods if m.method not in models]
        if skipped:
            print(f"no model file for {', '.join(skipped)} (no fitted transformation)")
    print(report_table(record), end="")
    print(f"reports written to {json_path} and {table_path}")
    return 0


def _cmd_grid(args) -> int:
    config = config_from_file(args.config)
    _, val, fit_part = repetition_parts(config, args.repetition)
    tree = {
        tag: grid_search(fit_part, val, tag, config.grids, kernel=config.kernel,
                         cross_centering=config.cross_centering).to_dict()
        for tag in config.methods
    }
    text = json.dumps(tree, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote grid winners to {args.out}")
    return 0


def _cmd_project(args) -> int:
    model = load_model(args.model)
    features, _ = load_features(args.features)
    coords = project(model, features, mode=args.mode)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(f"component_{i + 1}" for i in range(coords.shape[1])) + "\n")
        for row in coords:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    print(f"wrote {coords.shape[0]} rows x {coords.shape[1]} components to {args.out}")
    return 0


def _cmd_export(args) -> int:
    data = load_csv(
        args.data,
        label_column=args.label_column,
        domain_column=args.domain_column,
    )
    model = None if args.model is None else load_model(args.model)
    export_features(model, data, args.out, mode=args.mode)
    print(f"wrote {data.n} rows to {args.out}")
    return 0


def _cmd_inspect(args) -> int:
    model = load_model(args.model)
    spec = model.kernel_spec
    print(f"model: {args.model}")
    print(f"kernel: {spec.family}, bandwidth {spec.bandwidth}")
    print(f"training samples: {model.n_train}")
    print(f"feature dimension: {model.training_features.shape[1]}")
    print(f"components: {model.n_components} (requested q {model.requested_q})")
    print(f"gamma: {model.gamma}  alpha: {model.alpha}")
    print(f"effective epsilon: {model.effective_epsilon}")
    eig = np.array2string(model.eigenvalues, precision=6, separator=", ")
    print(f"eigenvalues: {eig}")
    if model.warnings:
        for w in model.warnings:
            print(f"warning: {w}")
    else:
        print("warnings: none")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "run": _cmd_run,
    "grid": _cmd_grid,
    "project": _cmd_project,
    "export-features": _cmd_export,
    "inspect-model": _cmd_inspect,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
