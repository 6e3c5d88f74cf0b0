"""Experiment orchestration: configs, grid search, repeated splits, reports.

The protocol per repetition r (seed = base seed + r):

  1. split the source rows into train (train_fraction) and the rest, which
     is discarded;
  2. split train into a validation part (validation_fraction) and a fit
     part;
  3. fit every grid point on the fit part, score it on the validation
     part, keep the best (ties go to the first point in the documented
     order below);
  4. refit the winner on the full train split and score it on every
     target-domain row.

Target rows never influence fitting, bandwidth resolution, or parameter
selection. Grid axes are ordered lexicographically as (bandwidth_scale,
gamma, alpha, epsilon, q, k), each ascending; the first point attaining
the best validation accuracy wins. Axes a method does not use are pinned
(raw_knn searches k only; kpca ignores gamma/alpha/epsilon; kfda and
dica_marginal ignore gamma and alpha).

The bandwidth grid is relative: each scale multiplies the median pairwise
distance of the data being fitted, so the fit-part and the refit resolve
their own medians.

The search does each piece of work once for the axes it depends on:

  per bandwidth scale   the kernel, the centered training Gram matrix and
                        its statistics, the weights and scatter factors
                        (classify.prepare_fit), and the centered
                        validation cross kernel;
  per (scale, epsilon)  one factorization of the pencil's within + eps I
                        term (solver.factor_pencil);
  per (gamma, alpha)    one stacked solve of every point of the plane at
  plane                 the largest q (solver.solve_plane, through
                        classify.fit_plane); the solver returns a
                        descending prefix of eigenpairs, so a smaller q
                        slices the leading columns;
  per point             the training and validation coordinates, as
                        products of those kernels with the point's
                        projection basis;
  per q width           one neighbor order and the votes of every k
                        (classify.knn_votes). A q whose slice is as wide as
                        the previous one (the solve kept fewer components)
                        sees the same columns and is skipped: only a strict
                        improvement can win.

A fit that raises one of the package's errors marks its grid point
failed; any other exception propagates. When some points fail and others
do not, the repetition carries one warning that counts them.

Execution is sequential and deterministic; nothing in a grid evaluation
draws randomness, so any future parallel schedule would reproduce the
same ResultRecord.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np
import yaml

from .classify import (
    METHOD_TAGS,
    ClassifyError,
    Method,
    accuracy,
    fit_baseline,
    fit_plane,
    knn_predict,
    knn_votes,
    prepare_fit,
)
from .dataset import (
    LabeledDataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    load_spec,
    spec_from_mapping,
    split,
)
from .kernel import MEDIAN, KernelError, KernelSpec
from .scatter import ScatterError
from .solver import ProjectionModel, SolverError, centered_cross_kernel, project, projection_basis

CONFIG_VERSION = 1

_DECADES = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)


class HarnessError(ValueError):
    """Invalid experiment configuration or protocol failure."""


@dataclass(frozen=True)
class CsvSource:
    """Where to find a labeled multi-domain CSV and how to read it."""

    path: str
    label_column: str = "label"
    domain_column: str = "domain"
    feature_columns: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Grids:
    """Hyperparameter grids; q = None defers to {2, C*m, 2*C*m} at fit time."""

    bandwidth_scale: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)
    gamma: tuple[float, ...] = _DECADES
    alpha: tuple[float, ...] = _DECADES
    epsilon: tuple[float, ...] = (1e-5,)
    q: tuple[int, ...] | None = None
    k: tuple[int, ...] = (1, 3, 5)

    def __post_init__(self):
        for name in ("bandwidth_scale", "gamma", "alpha", "epsilon", "k"):
            vals = getattr(self, name)
            if len(vals) == 0:
                raise HarnessError(f"grid {name!r} must be non-empty")
            if any(not v > 0 for v in vals):
                raise HarnessError(f"grid {name!r} must hold positive values")
        if self.q is not None:
            if len(self.q) == 0:
                raise HarnessError("grid 'q' must be non-empty when given")
            if any(int(v) < 1 for v in self.q):
                raise HarnessError("grid 'q' must hold integers >= 1")

    def resolve_q(self, n: int, n_classes: int, n_domains: int) -> tuple[int, ...]:
        """Concrete ascending q values for a dataset of this shape."""
        if self.q is not None:
            vals = [min(int(v), n - 1) for v in self.q]
        else:
            cm = n_classes * n_domains
            vals = [min(v, n - 1) for v in (2, cm, 2 * cm)]
        return tuple(sorted({v for v in vals if v >= 1}))


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one leave-domains-out experiment."""

    dataset: SyntheticSpec | CsvSource
    source_domains: tuple
    target_domains: tuple
    methods: tuple[str, ...]
    kernel: KernelSpec = field(default_factory=KernelSpec)
    grids: Grids = field(default_factory=Grids)
    train_fraction: float = 0.7
    validation_fraction: float = 0.3
    repetitions: int = 5
    seed: int = 0
    cross_centering: str = "paper"

    def __post_init__(self):
        if not self.source_domains or not self.target_domains:
            raise HarnessError("source_domains and target_domains must be non-empty")
        overlap = set(self.source_domains) & set(self.target_domains)
        if overlap:
            raise HarnessError(f"domains {sorted(overlap)} listed as both source and target")
        if not self.methods:
            raise HarnessError("methods must be non-empty")
        unknown = [m for m in self.methods if m not in METHOD_TAGS]
        if unknown:
            raise HarnessError(f"unknown methods {unknown}; valid: {sorted(METHOD_TAGS)}")
        for name in ("train_fraction", "validation_fraction"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise HarnessError(f"{name} must lie in (0, 1), got {v}")
        if self.repetitions < 1:
            raise HarnessError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.cross_centering not in ("paper", "standard"):
            raise HarnessError(
                f"cross_centering must be 'paper' or 'standard', got {self.cross_centering!r}"
            )


@dataclass(frozen=True)
class ChosenParams:
    """Grid-search winner; axes the method does not use stay None.

    warnings holds at most one line, counting the grid points that failed
    when others succeeded; it is not part of the chosen parameters.
    """

    bandwidth_scale: float | None = None
    gamma: float | None = None
    alpha: float | None = None
    epsilon: float | None = None
    q: int | None = None
    k: int = 1
    validation_accuracy: float = 0.0
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """The chosen parameters and validation accuracy, without the warnings."""
        tree = asdict(self)
        del tree["warnings"]
        return tree


@dataclass(frozen=True)
class RepetitionResult:
    repetition: int
    seed: int
    accuracy: float
    chosen: ChosenParams
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class MethodResult:
    method: str
    repetitions: tuple[RepetitionResult, ...]

    @property
    def accuracies(self) -> np.ndarray:
        return np.array([r.accuracy for r in self.repetitions])

    @property
    def mean(self) -> float:
        return float(self.accuracies.mean())

    @property
    def std(self) -> float:
        # population std: with one repetition the spread is exactly 0
        return float(self.accuracies.std(ddof=0))


@dataclass(frozen=True)
class ResultRecord:
    source_domains: tuple
    target_domains: tuple
    repetitions: int
    seed: int
    methods: tuple[MethodResult, ...]


# --- configuration files ---------------------------------------------------

def _require_mapping(node, context: str) -> dict:
    if not isinstance(node, dict):
        raise HarnessError(f"{context} must be a mapping, got {type(node).__name__}")
    return node


def _value(kind, node, context: str):
    try:
        return kind(node)
    except (TypeError, ValueError, OverflowError):
        raise HarnessError(f"{context} must be {kind.__name__}, got {node!r}") from None


def _list(node, context: str) -> tuple:
    if not isinstance(node, (list, tuple)):
        raise HarnessError(f"{context} must be a list, got {type(node).__name__}")
    return tuple(node)


def _values(kind, node, context: str) -> tuple:
    return tuple(_value(kind, v, context) for v in _list(node, context))


def config_from_mapping(tree: dict, base_dir: str = ".") -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed config tree (schema version 1)."""
    tree = _require_mapping(tree, "config root")
    version = tree.get("version")
    if version != CONFIG_VERSION:
        raise HarnessError(f"unsupported config version {version!r}; expected {CONFIG_VERSION}")

    ds_node = _require_mapping(tree.get("dataset"), "dataset")
    if ("synthetic" in ds_node) == ("csv" in ds_node):
        raise HarnessError("dataset needs exactly one of 'synthetic' or 'csv'")
    if "synthetic" in ds_node:
        spec_node = ds_node["synthetic"]
        if isinstance(spec_node, str):
            dataset = load_spec(os.path.join(base_dir, spec_node))
        else:
            dataset = spec_from_mapping(_require_mapping(spec_node, "dataset.synthetic"))
    else:
        csv_node = ds_node["csv"]
        if isinstance(csv_node, str):
            csv_node = {"path": csv_node}
        csv_node = _require_mapping(csv_node, "dataset.csv")
        if "path" not in csv_node:
            raise HarnessError("dataset.csv requires a 'path'")
        cols = csv_node.get("feature_columns")
        dataset = CsvSource(
            path=os.path.join(base_dir, str(csv_node["path"])),
            label_column=str(csv_node.get("label_column", "label")),
            domain_column=str(csv_node.get("domain_column", "domain")),
            feature_columns=None if cols is None else _values(str, cols, "feature_columns"),
        )

    exp = _require_mapping(tree.get("experiment"), "experiment")
    for key in ("source_domains", "target_domains", "methods"):
        if key not in exp:
            raise HarnessError(f"experiment.{key} is required")

    kernel_node = tree.get("kernel", {})
    kernel_node = _require_mapping(kernel_node, "kernel") if kernel_node else {}
    try:
        kernel = KernelSpec(
            family=str(kernel_node.get("family", "rbf")),
            bandwidth=(
                kernel_node["bandwidth"]
                if isinstance(kernel_node.get("bandwidth", MEDIAN), str)
                else _value(float, kernel_node["bandwidth"], "kernel.bandwidth")
            )
            if "bandwidth" in kernel_node
            else MEDIAN,
        )
    except KernelError as exc:
        raise HarnessError(f"kernel: {exc}") from exc

    grid_node = tree.get("grids", {})
    grid_node = _require_mapping(grid_node, "grids") if grid_node else {}
    unknown = set(grid_node) - {"bandwidth_scale", "gamma", "alpha", "epsilon", "q", "k"}
    if unknown:
        raise HarnessError(f"unknown grid axes {sorted(unknown)}")
    kwargs = {}
    for name in ("bandwidth_scale", "gamma", "alpha", "epsilon"):
        if name in grid_node:
            kwargs[name] = _values(float, grid_node[name], f"grids.{name}")
    if "q" in grid_node and grid_node["q"] is not None:
        kwargs["q"] = _values(int, grid_node["q"], "grids.q")
    if "k" in grid_node:
        kwargs["k"] = _values(int, grid_node["k"], "grids.k")

    return ExperimentConfig(
        dataset=dataset,
        source_domains=_list(exp["source_domains"], "experiment.source_domains"),
        target_domains=_list(exp["target_domains"], "experiment.target_domains"),
        methods=_values(str, exp["methods"], "experiment.methods"),
        kernel=kernel,
        grids=Grids(**kwargs),
        train_fraction=_value(float, exp.get("train_fraction", 0.7), "experiment.train_fraction"),
        validation_fraction=_value(
            float, exp.get("validation_fraction", 0.3), "experiment.validation_fraction"
        ),
        repetitions=_value(int, exp.get("repetitions", 5), "experiment.repetitions"),
        seed=_value(int, exp.get("seed", 0), "experiment.seed"),
        cross_centering=str(exp.get("cross_centering", "paper")),
    )


def config_from_file(path: str) -> ExperimentConfig:
    """Read a YAML experiment config; relative data paths resolve beside it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tree = yaml.safe_load(fh)
    except UnicodeDecodeError as exc:
        raise HarnessError(f"{path}: config is not UTF-8 text ({exc})") from None
    return config_from_mapping(tree, base_dir=os.path.dirname(os.path.abspath(path)))


def load_dataset(config: ExperimentConfig) -> LabeledDataset:
    if isinstance(config.dataset, SyntheticSpec):
        return generate_synthetic(config.dataset)
    src = config.dataset
    return load_csv(
        src.path,
        label_column=src.label_column,
        domain_column=src.domain_column,
        feature_columns=src.feature_columns,
    )


def _resolve_domain_ids(data: LabeledDataset, requested, side: str) -> tuple[int, ...]:
    """Map config domain references (names or numbers) to internal ids."""
    names = data.domain_names or {did: str(did) for did in data.domain_ids}
    by_name = {str(name): did for did, name in names.items()}
    ids = []
    for item in requested:
        key = str(item)
        if key not in by_name:
            known = sorted(by_name)
            raise HarnessError(f"{side} domain {item!r} not in dataset (domains: {known})")
        ids.append(by_name[key])
    return tuple(ids)


def _source_target(config: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """The configured dataset's source-domain and target-domain rows."""
    data = load_dataset(config)
    source_ids = _resolve_domain_ids(data, config.source_domains, "source")
    target_ids = _resolve_domain_ids(data, config.target_domains, "target")
    source = data.subset_domains(list(source_ids))
    target = data.subset_domains(list(target_ids))
    if source.n == 0 or target.n == 0:
        raise HarnessError("source or target selection is empty")
    return source, target


def _repetition_splits(config: ExperimentConfig, source: LabeledDataset, repetition: int):
    """Repetition r's (train, validation, fit) splits of the source rows.

    Both splits draw from seed = config.seed + r; the fourth entry holds
    their warnings.
    """
    seed = config.seed + repetition
    train_split = split(source, config.train_fraction, seed=seed)
    val_split = split(train_split.first, config.validation_fraction, seed=seed)
    warnings = tuple(train_split.warnings) + tuple(val_split.warnings)
    return train_split.first, val_split.first, val_split.second, warnings


def _check_repetition(repetition: int, repetitions: int) -> None:
    if not 0 <= repetition < repetitions:
        raise HarnessError(f"repetition {repetition} out of range 0..{repetitions - 1}")


# --- grid search -----------------------------------------------------------

def _method_axes(tag: str, grids: Grids):
    """Per-method grid axes in documented order; unused axes pinned to (None,)."""
    none = (None,)
    scale = tuple(sorted(grids.bandwidth_scale))
    gamma = tuple(sorted(grids.gamma))
    alpha = tuple(sorted(grids.alpha))
    eps = tuple(sorted(grids.epsilon))
    k = tuple(sorted(grids.k))
    if tag == "raw_knn":
        return none, none, none, none, k
    if tag == "kpca":
        return scale, none, none, none, k
    if tag in ("kfda", "dica_marginal"):
        return scale, none, none, eps, k
    return scale, gamma, alpha, eps, k


# a fit raising one of these marks its grid point failed; anything else propagates
_FIT_ERRORS = (ClassifyError, KernelError, ScatterError, SolverError)
_FAILURE = "scale={} gamma={} alpha={} epsilon={}: {}"


def _base_bandwidth(kernel: KernelSpec, train: LabeledDataset) -> float:
    from .kernel import median_bandwidth

    return float(kernel.bandwidth) if kernel.resolved else median_bandwidth(train.features)


def _method(tag: str, gamma, alpha, epsilon, q) -> Method:
    """The Method at a grid point; axes the tag ignores (None) keep their defaults."""
    return Method(
        tag,
        gamma=1.0 if gamma is None else gamma,
        alpha=1.0 if alpha is None else alpha,
        epsilon=1e-5 if epsilon is None else epsilon,
        q=q,
    )


def _fitted_points(train, val, method_tag, axes, q_values, kernel, cross_centering, failures):
    """Coordinates of every fitted (scale, gamma, alpha, epsilon) point, in grid order.

    Yields the point and [(q, train coordinates, validation coordinates)]
    for q ascending. A point whose fit fails yields nothing and appends one
    entry to ``failures``, also when its whole scale failed to prepare.
    """
    scales, gammas, alphas, epsilons = axes
    points = [(g, a, e) for g in gammas for a in alphas for e in epsilons]
    base_bw = _base_bandwidth(kernel, train)
    for scale in scales:
        try:
            prepared = prepare_fit(method_tag, train, KernelSpec(kernel.family, base_bw * scale))
        except _FIT_ERRORS as exc:
            failures.extend(_FAILURE.format(scale, *point, exc) for point in points)
            continue
        val_kernel = centered_cross_kernel(
            prepared.spec, train.features, prepared.centering, val.features, cross_centering
        )
        # epsilon is the innermost grid axis, so a scale's planes (one per
        # epsilon) are all solved before its first point is yielded
        fits = {}
        for eps in epsilons:
            plane = [(g, a, eps) for g in gammas for a in alphas]
            try:
                models = fit_plane([_method(method_tag, *p, max(q_values)) for p in plane], prepared)
            except _FIT_ERRORS as exc:
                models = [exc] * len(plane)
            fits.update(zip(plane, models))
        for point in points:
            model = fits[point]
            if isinstance(model, Exception):
                failures.append(_FAILURE.format(scale, *point, model))
                continue
            basis = projection_basis(model)
            # the products project(model, ...) would compute, bit for bit
            full_train = prepared.Kc.T @ basis
            full_val = val_kernel.T @ basis
            yield (scale, *point), [(q, full_train[:, :q], full_val[:, :q]) for q in q_values]


def grid_search(
    train: LabeledDataset,
    val: LabeledDataset,
    method_tag: str,
    grids: Grids,
    kernel: KernelSpec = KernelSpec(),
    cross_centering: str = "paper",
) -> ChosenParams:
    """Exhaustive validation-accuracy search over the method's grid axes.

    One model is fitted per (bandwidth_scale, gamma, alpha, epsilon) at the
    largest requested q; smaller q values reuse its leading columns, which
    the solver guarantees to be identical to a direct smaller-q fit. A
    point whose fit raises one of the package's errors is skipped; when
    some points fail and others do not, the winner carries a warning that
    counts the failures.
    """
    if method_tag not in METHOD_TAGS:
        raise HarnessError(f"unknown method {method_tag!r}")
    if train.n == 0 or val.n == 0:
        raise HarnessError("grid search needs non-empty train and validation data")

    scales, gammas, alphas, epsilons, ks = _method_axes(method_tag, grids)
    ks = tuple(k for k in ks if k <= train.n)
    failures: list[str] = []
    if method_tag == "raw_knn":
        fitted = [((None, None, None, None), [(None, train.features, val.features)])]
    else:
        q_values = grids.resolve_q(train.n, len(train.class_ids), len(train.domain_ids))
        if not q_values:
            raise HarnessError(
                f"{method_tag} needs at least 2 fit rows to project, got {train.n}"
            )
        fitted = _fitted_points(
            train, val, method_tag, (scales, gammas, alphas, epsilons), q_values,
            kernel, cross_centering, failures,
        )

    best: ChosenParams | None = None
    for (scale, gamma, alpha, epsilon), slices in fitted:
        width = None
        for q, train_proj, val_proj in slices:
            if not ks or train_proj.shape[1] == width:
                continue  # same columns as the previous q: equal accuracy, never a strict win
            width = train_proj.shape[1]
            votes = knn_votes(train_proj, train.labels, val_proj, ks)
            # a sum of 0/1 values is exact, so each equals accuracy(votes[i], labels)
            for k, acc in zip(ks, (votes == val.labels).mean(axis=1).tolist()):
                if best is None or acc > best.validation_accuracy:
                    best = ChosenParams(scale, gamma, alpha, epsilon, q, k, acc)
    if best is None:
        detail = "; ".join(failures[:5]) if failures else "no evaluable grid points"
        raise HarnessError(f"all grid points failed for {method_tag}: {detail}")
    if failures:
        total = len(scales) * len(gammas) * len(alphas) * len(epsilons)
        note = f"grid search: {len(failures)} of {total} points failed; first: {failures[0]}"
        best = replace(best, warnings=(note,))
    return best


def _fit_chosen(
    method_tag: str, chosen: ChosenParams, train: LabeledDataset, kernel: KernelSpec
) -> ProjectionModel | None:
    """Refit the selected parameters on a training set (fresh median)."""
    if method_tag == "raw_knn":
        return None
    spec = KernelSpec(kernel.family, _base_bandwidth(kernel, train) * chosen.bandwidth_scale)
    method = _method(method_tag, chosen.gamma, chosen.alpha, chosen.epsilon, chosen.q)
    return fit_baseline(method, train, spec)


def run_experiment(config: ExperimentConfig) -> ResultRecord:
    """Leave-domains-out evaluation of every configured method.

    Returns per-repetition accuracies and selections; see the module
    docstring for the exact protocol.
    """
    source, target = _source_target(config)
    per_method: dict[str, list[RepetitionResult]] = {m: [] for m in config.methods}
    for r in range(config.repetitions):
        train, val, fit_part, split_warnings = _repetition_splits(config, source, r)
        for tag in config.methods:
            chosen = grid_search(fit_part, val, tag, config.grids, kernel=config.kernel,
                                 cross_centering=config.cross_centering)
            model = _fit_chosen(tag, chosen, train, config.kernel)
            warnings = split_warnings + chosen.warnings
            if model is None:
                train_proj, target_proj = train.features, target.features
            else:
                train_proj = project(model, train.features, mode="paper")
                target_proj = project(model, target.features, mode=config.cross_centering)
                warnings += model.warnings
            predicted = knn_predict(train_proj, train.labels, target_proj, chosen.k)
            per_method[tag].append(RepetitionResult(
                repetition=r, seed=config.seed + r, accuracy=accuracy(predicted, target.labels),
                chosen=chosen, warnings=warnings,
            ))

    return ResultRecord(
        source_domains=tuple(config.source_domains),
        target_domains=tuple(config.target_domains),
        repetitions=config.repetitions,
        seed=config.seed,
        methods=tuple(
            MethodResult(method=tag, repetitions=tuple(per_method[tag]))
            for tag in config.methods
        ),
    )


def repetition_parts(
    config: ExperimentConfig, repetition: int = 0
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """One repetition's (train, validation, fit) source-domain splits."""
    _check_repetition(repetition, config.repetitions)
    return _repetition_splits(config, _source_target(config)[0], repetition)[:3]


def refit_repetition(
    config: ExperimentConfig, record: ResultRecord, repetition: int = 0
) -> dict[str, ProjectionModel]:
    """Rebuild the fitted models behind one repetition of a ResultRecord.

    Reconstructs the repetition's training split from the seed ladder and
    refits each kernel method's chosen parameters; raw_knn has no model
    and is skipped.
    """
    _check_repetition(repetition, record.repetitions)
    train = _repetition_splits(config, _source_target(config)[0], repetition)[0]
    models: dict[str, ProjectionModel] = {}
    for m in record.methods:
        if m.method == "raw_knn":
            continue
        chosen = m.repetitions[repetition].chosen
        model = _fit_chosen(m.method, chosen, train, config.kernel)
        assert model is not None
        models[m.method] = model
    return models


# --- reports ---------------------------------------------------------------

def report_json(record: ResultRecord) -> str:
    """Deterministic machine-readable report (no timestamps, sorted keys)."""
    tree = {
        "report_version": 1,
        "source_domains": list(record.source_domains),
        "target_domains": list(record.target_domains),
        "repetitions": record.repetitions,
        "seed": record.seed,
        "methods": [
            {
                "method": m.method,
                "mean_accuracy": m.mean,
                "std_accuracy": m.std,
                "repetitions": [
                    {
                        "repetition": r.repetition,
                        "seed": r.seed,
                        "accuracy": r.accuracy,
                        "chosen": r.chosen.to_dict(),
                        "warnings": list(r.warnings),
                    }
                    for r in m.repetitions
                ],
            }
            for m in record.methods
        ],
    }
    return json.dumps(tree, indent=2, sort_keys=True) + "\n"


def report_table(record: ResultRecord) -> str:
    """Aligned text table: source | target | one column per method."""
    src = ",".join(str(d) for d in record.source_domains)
    tgt = ",".join(str(d) for d in record.target_domains)
    headers = ["source", "target"] + [m.method for m in record.methods]
    row = [src, tgt] + [f"{m.mean:.4f} ± {m.std:.4f}" for m in record.methods]
    widths = [max(len(h), len(v)) for h, v in zip(headers, row)]
    out = io.StringIO()
    out.write(" | ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
    out.write("-+-".join("-" * w for w in widths) + "\n")
    out.write(" | ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n")
    out.write("\n")
    for m in record.methods:
        for r in m.repetitions:
            c = r.chosen
            parts = [f"rep {r.repetition}", f"seed {r.seed}", f"accuracy {r.accuracy:.4f}"]
            for name, value in (
                ("scale", c.bandwidth_scale),
                ("gamma", c.gamma),
                ("alpha", c.alpha),
                ("epsilon", c.epsilon),
                ("q", c.q),
            ):
                if value is not None:
                    parts.append(f"{name} {value:g}")
            parts.append(f"k {c.k}")
            parts.append(f"val {c.validation_accuracy:.4f}")
            out.write(f"{m.method}: " + "  ".join(parts) + "\n")
    return out.getvalue()


def export_features(
    model: ProjectionModel | None,
    data: LabeledDataset,
    path: str,
    mode: str = "paper",
) -> None:
    """Write plot-ready CSV: first two projected coordinates, label, domain.

    model = None exports the first two raw feature columns unchanged.
    """
    if model is None:
        if data.n_features < 2:
            raise HarnessError("raw export needs at least 2 feature columns")
        coords = data.features[:, :2]
    else:
        if model.n_components < 2:
            raise HarnessError(
                "model retains fewer than 2 components; refit with q >= 2 "
                "to export plot coordinates"
            )
        coords = project(model, data.features, mode=mode)[:, :2]
    label_names = data.label_names or {}
    domain_names = data.domain_names or {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("component_1,component_2,label,domain\n")
        for i in range(data.n):
            label = label_names.get(int(data.labels[i]), str(int(data.labels[i])))
            domain = domain_names.get(int(data.domains[i]), str(int(data.domains[i])))
            fh.write(f"{float(coords[i, 0])!r},{float(coords[i, 1])!r},{label},{domain}\n")
