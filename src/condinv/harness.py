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

  per bandwidth scale   the kernel head: the kernel's partial pivoted
                        Cholesky factor, its range basis and centered Gram
                        rows in that basis, or the dense centered Gram
                        matrix when the factor passes n / 2 columns, and
                        its statistics (classify.kernel_head), and the
                        centered validation cross kernel, built once for
                        every method of a repetition (grid_heads);
  per (scale, method)   the weights and scatter factors
                        (classify.prepare_fit on the scale's head);
  per (scale, epsilon)  one solve of the whole (gamma, alpha) plane at the
                        largest q (solver.solve_plane, through
                        classify.fit_plane): one factorization of the
                        pencil's within + eps I term, then one stacked
                        solve of every point; the solver returns a
                        descending prefix of eigenpairs, so a smaller q
                        slices the leading columns;
  per point             the training and validation coordinates, as
                        products of the head's centered Gram rows and the
                        validation kernel with the point's basis, read
                        straight from the plane's solution;
  per scale, one        the neighbor order and votes of every k for all
  stacked vote per q    points whose q slice has a new width, epsilon
  width and block       planes together (classify.knn_votes on a stack).
                        A slice as wide as the previous q's is skipped:
                        same columns, never a strict improvement.

A fit that raises one of the package's errors marks its grid point
failed; any other exception propagates. When some points fail and others
do not, the repetition carries one warning that counts them.

Execution is sequential and deterministic; nothing in a grid evaluation
draws randomness, so any future parallel schedule would reproduce the
same ResultRecord.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
import os
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np
import yaml

from .classify import (
    METHOD_TAGS,
    ClassifyError,
    Method,
    accuracy,
    fit_baseline,
    fit_plane,
    kernel_head,
    knn_predict,
    knn_votes,
    prepare_fit,
)
from .dataset import (
    CellSpec,
    DatasetError,
    LabeledDataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    split,
)
from .kernel import KernelError, KernelSpec, resolve_bandwidth
from .scatter import ScatterError
from .solver import ProjectionModel, SolverError, centered_cross_kernel, project, projection_basis

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
        for name in ("q", "k"):  # integers, by the config reader's rule
            vals = getattr(self, name)
            if vals is not None:
                object.__setattr__(self, name, _ints(tuple(vals), f"grid {name!r}", HarnessError))
        for name in ("bandwidth_scale", "gamma", "alpha", "epsilon", "k"):
            vals = getattr(self, name)
            if len(vals) == 0:
                raise HarnessError(f"grid {name!r} must be non-empty")
            if any(isinstance(v, bool) or not 0 < v < np.inf for v in vals):
                raise HarnessError(f"grid {name!r} must hold positive finite numbers, got {vals}")
        if self.q is not None:
            if len(self.q) == 0:
                raise HarnessError("grid 'q' must be non-empty when given")
            if any(v < 1 for v in self.q):
                raise HarnessError("grid 'q' must hold integers >= 1")

    def resolve_q(self, n: int, n_classes: int, n_domains: int) -> tuple[int, ...]:
        """Concrete ascending q values for a dataset of this shape."""
        cm = n_classes * n_domains
        vals = [min(v, n - 1) for v in ((2, cm, 2 * cm) if self.q is None else self.q)]
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
        for item in (*self.source_domains, *self.target_domains):
            if not isinstance(item, (str, int, float)):
                raise HarnessError(f"domain references must be names or numbers, got {item!r}")
        overlap = sorted(set(self.source_domains) & set(self.target_domains), key=str)
        if overlap:
            raise HarnessError(f"domains {overlap} listed as both source and target")
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
        if self.seed < 0:
            raise HarnessError(f"seed must be >= 0, got {self.seed}")
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


# --- config and spec trees -------------------------------------------------
# One reader for config and spec: each value passes _value's scalar rule, and
# each mapping level has a key table (noun for errors, required keys, key ->
# parse(node, context for messages, error class)) that rejects unknown keys.
# An absent key is not passed on, so defaults live on the dataclasses alone;
# null means absent for the _NULLABLE keys only.

_KINDS = {int: "integers", float: "numbers", str: "strings"}
_NULLABLE = {"kernel", "grids", "q", "feature_columns"}


def _value(kind, node, context: str, error):
    """node as kind: never a bool, a string only for str, a whole number for int."""
    try:
        # int() and float() would take a bool or a numeric string, and int() truncates
        wrong = isinstance(node, bool) or not isinstance(node, (numbers.Real, kind))
        if wrong or (kind is int and int(node) != node):
            raise ValueError
        return kind(node)
    except (ValueError, OverflowError):
        raise error(f"{context} takes {_KINDS[kind]}, got {node!r}") from None


def _values(kind, node, context: str, error) -> tuple:
    """A list's items as kind; kind None keeps them as they are."""
    if not isinstance(node, (list, tuple)):
        raise error(f"{context} must be a list, got {type(node).__name__}")
    return tuple(v if kind is None else _value(kind, v, context, error) for v in node)


def _mapping(node, context: str, error) -> Mapping:
    if not isinstance(node, Mapping):
        raise error(f"{context or 'the top level'} must be a mapping, got {type(node).__name__}")
    return node


def _fields(table, node, context: str, error) -> dict:
    """The keys present in mapping node, each read by its parse in table."""
    noun, required, parsers = table
    unknown = sorted(str(key) for key in _mapping(node, context, error) if key not in parsers)
    if unknown:
        raise error(f"unknown {noun} {unknown}; known: {sorted(parsers)}")
    prefix = f"{context}." if context else ""
    missing = [key for key in required if key not in node]
    if missing:
        raise error(f"{prefix}{missing[0]} is required")
    return {
        key: parsers[key](value, prefix + key, error)
        for key, value in node.items() if not (value is None and key in _NULLABLE)
    }


def _cells(node, context: str, error) -> dict:
    """A spec's domains tree as {(domain id, class id): CellSpec}."""
    cells = {}
    for s, classes in _mapping(node, context, error).items():
        s = _value(int, s, "domain id", error)
        for j, cell in _mapping(classes, f"{context}.{s}", error).items():
            j = _value(int, j, "class id", error)
            f = _fields(_CELL, cell, f"domain {s} class {j}", error)
            if len(f["x"]) != 2 or len(f["y"]) != 2:
                raise error(f"domain {s} class {j}: x and y must be [mean, std]")
            cells[(s, j)] = CellSpec(*zip(f["x"], f["y"]), f["count"])  # (means), (stds)
    return cells


def _spec(node, context: str, error) -> SyntheticSpec:
    fields = _fields(_SPEC, node, context, error)
    if fields.pop("version", 1) != 1:
        raise error(f"unsupported synthetic spec version {node['version']!r}")
    return SyntheticSpec(cells=fields.pop("domains"), **fields)


_int, _float, _str = (partial(_value, kind) for kind in (int, float, str))
_list, _ints, _floats, _strs = (partial(_values, kind) for kind in (None, int, float, str))

_CELL = ("cell keys", ("x", "y", "count"), {"x": _floats, "y": _floats, "count": _int})
_SPEC = ("spec keys", ("domains",), {"version": _int, "seed": _int, "domains": _cells})
_CSV = ("dataset.csv keys", ("path",), {
    "path": _str, "label_column": _str, "domain_column": _str, "feature_columns": _strs,
})
_DATASET = ("dataset keys", (), {
    # a string names a spec file, read once base_dir is known; spec errors stay DatasetError
    "synthetic": lambda n, c, e: n if isinstance(n, str) else _spec(n, c, DatasetError),
    "csv": lambda n, c, e: CsvSource(
        **_fields(_CSV, {"path": n} if isinstance(n, str) else n, c, e)
    ),
})
_EXPERIMENT = ("experiment keys", ("source_domains", "target_domains", "methods"), {
    "source_domains": _list, "target_domains": _list, "methods": _strs,
    "repetitions": _int, "seed": _int, "train_fraction": _float,
    "validation_fraction": _float, "cross_centering": _str,
})
_KERNEL = ("kernel keys", (), {
    # a string defers to the data, and KernelSpec takes only "median"
    "family": _str, "bandwidth": lambda n, c, e: n if isinstance(n, str) else _float(n, c, e),
})
_GRIDS = ("grid axes", (), {
    "bandwidth_scale": _floats, "gamma": _floats, "alpha": _floats, "epsilon": _floats,
    "q": _ints, "k": _ints,
})
_CONFIG = ("config keys", ("version", "dataset", "experiment"), {
    "version": _int, "dataset": partial(_fields, _DATASET),
    "experiment": partial(_fields, _EXPERIMENT),
    "kernel": lambda n, c, e: KernelSpec(**_fields(_KERNEL, n, c, e)),
    "grids": lambda n, c, e: Grids(**_fields(_GRIDS, n, c, e)),
})


def _load_yaml(path, what: str, error):
    """The tree in a YAML file; failing to open, decode or parse it raises error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except FileNotFoundError:
        raise error(f"{what} file not found: {path}") from None
    except (OSError, ValueError, yaml.YAMLError) as exc:
        raise error(f"cannot read {what} file {path}: {' '.join(str(exc).split())}") from None


def spec_from_mapping(mapping) -> SyntheticSpec:
    """Build a SyntheticSpec from its key-value tree (layout in docs/formats.md)."""
    return _spec(mapping, "", DatasetError)


def load_spec(path) -> SyntheticSpec:
    """Read a synthetic spec file (YAML key-value tree)."""
    return spec_from_mapping(_load_yaml(path, "spec", DatasetError))


def config_from_mapping(tree: dict, base_dir: str = ".") -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed config tree (schema version 1)."""
    try:
        fields = _fields(_CONFIG, tree, "", HarnessError)
    except KernelError as exc:
        raise HarnessError(f"kernel: {exc}") from exc
    if fields.pop("version") != 1:
        raise HarnessError(f"unsupported config version {tree['version']!r}; expected 1")
    sources = list(fields.pop("dataset").values())
    if len(sources) != 1:
        raise HarnessError("dataset needs exactly one of 'synthetic' or 'csv'")
    dataset = sources[0]  # data paths resolve against base_dir
    if isinstance(dataset, str):
        dataset = load_spec(os.path.join(base_dir, dataset))
    elif isinstance(dataset, CsvSource):
        dataset = replace(dataset, path=os.path.join(base_dir, dataset.path))
    return ExperimentConfig(dataset=dataset, **fields.pop("experiment"), **fields)


def config_from_file(path: str) -> ExperimentConfig:
    """Read a YAML experiment config; relative data paths resolve beside it."""
    tree = _load_yaml(path, "config", HarnessError)
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
# the distances of one stacked knn_votes call stay within this many bytes
_KNN_BLOCK_BYTES = 512 * 1024


def _method(tag: str, gamma, alpha, epsilon, q) -> Method:
    """The Method at a grid point; axes the tag ignores (None) keep their defaults."""
    axes = {"gamma": gamma, "alpha": alpha, "epsilon": epsilon}
    return Method(tag, q=q, **{name: v for name, v in axes.items() if v is not None})


def _scale_heads(train, val, scales, kernel, cross_centering) -> dict:
    """Per bandwidth scale, its kernel head on train and centered validation kernel.

    A scale whose head raises one of the package's errors holds the error.
    """
    base_bw = resolve_bandwidth(kernel, train.features).bandwidth
    heads = {}
    for scale in scales:
        try:
            head = kernel_head(train, KernelSpec(kernel.family, base_bw * scale))
        except _FIT_ERRORS as exc:
            heads[scale] = exc
            continue
        heads[scale] = head, centered_cross_kernel(
            head.spec, train.features, head.centering, val.features, cross_centering
        )
    return heads


def _fitted_scales(
    train, val, method_tag, axes, q_max, kernel, cross_centering, failures, heads=None
):
    """Per scale, its (gamma, alpha, epsilon) points and their coordinates.

    Yields (scale, points, coords): the points in grid order and, by point
    index, the full-width training and validation coordinates of each point
    that fitted. A failed point appends one entry to ``failures``, also when
    its whole scale failed to prepare. heads are the scales' kernel heads
    (see grid_heads), built here when None.
    """
    scales, gammas, alphas, epsilons = axes
    plane = [(g, a) for g in gammas for a in alphas]
    points = [(g, a, e) for g, a in plane for e in epsilons]
    planes = [[_method(method_tag, g, a, e, q_max) for g, a in plane] for e in epsilons]
    if heads is None:
        heads = _scale_heads(train, val, scales, kernel, cross_centering)
    for scale in scales:
        try:
            if isinstance(heads[scale], Exception):  # the scale's head failed
                raise heads[scale]
            head, val_kernel = heads[scale]
            prepared = prepare_fit(method_tag, train, head)
        except _FIT_ERRORS as exc:
            failures.extend(_FAILURE.format(scale, *point, exc) for point in points)
            continue
        solved = []
        for methods in planes:
            try:
                solved.append(fit_plane(methods, prepared))
            except _FIT_ERRORS as exc:
                solved.append(exc)
        coords = {}
        # epsilon is the innermost grid axis
        for i, (solution, j) in enumerate((s, j) for j in range(len(plane)) for s in solved):
            error = solution if isinstance(solution, Exception) else solution.errors[j]
            if error is not None:
                failures.append(_FAILURE.format(scale, *points[i], error))
                continue
            c = solution.kept[j]
            basis = projection_basis(solution.coefficients[j, :, :c], solution.eigenvalues[j, :c])
            Q = prepared.basis
            # Kc P, the training coordinates, as project computes them
            train_coords = prepared.Kc.T @ (basis if Q is None else Q.T @ basis)
            coords[i] = (train_coords, val_kernel.T @ basis)
        yield scale, points, coords


def _accuracies(coords, n_points, q_values, ks, train, val) -> np.ndarray:
    """Validation accuracy over (point, q, k) in grid order, -1 where unscored.

    Points are scored in knn_votes stacks of at most _KNN_BLOCK_BYTES of
    distances; a q slice no wider than the previous q's is not scored.
    """
    acc = np.full((n_points, len(q_values), len(ks)), -1.0)
    block = max(1, _KNN_BLOCK_BYTES // (8 * train.n * val.n))
    for qi, q in enumerate(q_values):
        previous = q_values[qi - 1] if qi else 0
        width = {i: min(q, t.shape[1]) for i, (t, _) in coords.items() if t.shape[1] > previous}
        for w in sorted(set(width.values())):
            idx = [i for i, wi in width.items() if wi == w]
            for start in range(0, len(idx), block):
                part = idx[start:start + block]
                fit, held = (np.stack([coords[i][side][:, :w] for i in part]) for side in (0, 1))
                votes = knn_votes(fit, train.labels, held, ks)
                # a mean of 0/1 values is exact, so each equals accuracy(votes[p, r], labels)
                acc[part, qi] = (votes == val.labels).mean(axis=2)
    return acc


def _search_values(train, val, method_tag, grids) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The k values and q widths a search of method_tag on train tries.

    Raises HarnessError when the search could try nothing, before any fit.
    """
    if method_tag not in METHOD_TAGS:
        raise HarnessError(f"unknown method {method_tag!r}")
    if train.n == 0 or val.n == 0:
        raise HarnessError("grid search needs non-empty train and validation data")
    ks = tuple(k for k in sorted(grids.k) if k <= train.n)
    if not ks:
        raise HarnessError(
            f"no k in the grid {tuple(sorted(grids.k))} is at most the {train.n} fit rows"
        )
    if method_tag == "raw_knn":
        return ks, (train.n_features,)  # one "q" keeps every feature column
    q_values = grids.resolve_q(train.n, len(train.class_ids), len(train.domain_ids))
    if not q_values:
        raise HarnessError(f"{method_tag} needs at least 2 fit rows to project, got {train.n}")
    return ks, q_values


def grid_heads(
    train: LabeledDataset,
    val: LabeledDataset,
    methods,
    grids: Grids,
    kernel: KernelSpec = KernelSpec(),
    cross_centering: str = "paper",
) -> dict | None:
    """The kernel heads that the grid searches of methods on train share.

    One per bandwidth scale: the scale's kernel head on train
    (classify.kernel_head: the kernel's factor, its range basis and the
    centered Gram rows in it, or the dense centered Gram matrix) and the
    centered validation cross kernel. A scale whose
    head fails holds its error, and every search marks that scale's points
    failed. Every method's grid is checked first, so a search that could
    try nothing fails as it would alone, before any kernel is built.
    None when no method projects.
    """
    for tag in methods:
        _search_values(train, val, tag, grids)
    if all(tag == "raw_knn" for tag in methods):
        return None
    return _scale_heads(train, val, sorted(grids.bandwidth_scale), kernel, cross_centering)


def grid_search(
    train: LabeledDataset,
    val: LabeledDataset,
    method_tag: str,
    grids: Grids,
    kernel: KernelSpec = KernelSpec(),
    cross_centering: str = "paper",
    heads: dict | None = None,
) -> ChosenParams:
    """Exhaustive validation-accuracy search over the method's grid axes.

    One model is fitted per (bandwidth_scale, gamma, alpha, epsilon) at the
    largest requested q; smaller q values reuse its leading columns, which
    the solver guarantees to be identical to a direct smaller-q fit. A
    point whose fit raises one of the package's errors is skipped; when
    some points fail and others do not, the winner carries a warning that
    counts the failures. heads, from grid_heads on the same train, val,
    grids, kernel and cross_centering, are shared kernel heads; without
    them the search builds its own.
    """
    ks, q_values = _search_values(train, val, method_tag, grids)
    scales, gammas, alphas, epsilons, _ = _method_axes(method_tag, grids)
    failures: list[str] = []
    if method_tag == "raw_knn":
        q_labels = (None,)
        fitted = [(None, [(None, None, None)], {0: (train.features, val.features)})]
    else:
        q_labels = q_values
        fitted = _fitted_scales(
            train, val, method_tag, (scales, gammas, alphas, epsilons), max(q_values),
            kernel, cross_centering, failures, heads,
        )

    best: ChosenParams | None = None
    for scale, points, coords in fitted:
        acc = _accuracies(coords, len(points), q_values, ks, train, val)
        i = int(acc.argmax())  # the first best in (point, q, k) grid order
        # an earlier scale keeps a tie; -1 marks what was not scored
        if acc.flat[i] > (-1.0 if best is None else best.validation_accuracy):
            p, qi, ki = np.unravel_index(i, acc.shape)
            best = ChosenParams(scale, *points[p], q_labels[qi], ks[ki], float(acc.flat[i]))
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
    base_bw = resolve_bandwidth(kernel, train.features).bandwidth
    spec = KernelSpec(kernel.family, base_bw * chosen.bandwidth_scale)
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
        heads = grid_heads(
            fit_part, val, config.methods, config.grids, config.kernel, config.cross_centering
        )
        for tag in config.methods:
            chosen = grid_search(fit_part, val, tag, config.grids, kernel=config.kernel,
                                 cross_centering=config.cross_centering, heads=heads)
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
    mode: str = "standard",
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
        # csv quotes a name holding a comma, quote or line break, as load_csv reads it
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(("component_1", "component_2", "label", "domain"))
        for i in range(data.n):
            label = label_names.get(int(data.labels[i]), str(int(data.labels[i])))
            domain = domain_names.get(int(data.domains[i]), str(int(data.domains[i])))
            out.writerow((repr(float(coords[i, 0])), repr(float(coords[i, 1])), label, domain))
