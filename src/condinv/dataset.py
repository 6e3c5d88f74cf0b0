"""Dataset containers, CSV ingestion, synthetic generation and splitting.

Samples are rows of a feature matrix, each carrying a class label and a
domain id. Labels and domains are dense 1-based integer ranges internally;
original string names from ingested files are kept in sidecar maps so
reports can show them. All containers are immutable after construction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np


class DatasetError(ValueError):
    """Malformed input data or an invalid dataset operation."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with per-row class label and domain id.

    features : (n, d) float64
    labels   : (n,) positive ints
    domains  : (n,) positive ints
    label_names / domain_names : optional maps id -> original name
    """

    features: np.ndarray
    labels: np.ndarray
    domains: np.ndarray
    label_names: Mapping[int, str] | None = None
    domain_names: Mapping[int, str] | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        domains = np.asarray(self.domains, dtype=np.int64)
        if feats.ndim != 2:
            raise DatasetError("features must be a 2-D matrix")
        n = feats.shape[0]
        if n == 0:
            raise DatasetError("dataset is empty")
        if labels.shape != (n,) or domains.shape != (n,):
            raise DatasetError(
                "features, labels and domains must have equal length; got "
                f"{n}, {labels.shape}, {domains.shape}"
            )
        if not np.all(np.isfinite(feats)):
            bad = np.argwhere(~np.isfinite(feats))[0]
            raise DatasetError(f"non-finite feature value at row {bad[0]}, column {bad[1]}")
        if labels.min() < 1 or domains.min() < 1:
            raise DatasetError("labels and domains must be positive integers")
        object.__setattr__(self, "features", _frozen(feats))
        object.__setattr__(self, "labels", _frozen(labels))
        object.__setattr__(self, "domains", _frozen(domains))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def class_ids(self) -> tuple[int, ...]:
        return tuple(int(j) for j in np.unique(self.labels))

    @property
    def domain_ids(self) -> tuple[int, ...]:
        return tuple(int(s) for s in np.unique(self.domains))

    def take(self, indices) -> "LabeledDataset":
        """Row subset, preserving name maps."""
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(
            self.features[idx], self.labels[idx], self.domains[idx],
            self.label_names, self.domain_names,
        )

    def subset_domains(self, domains: Sequence[int]) -> "LabeledDataset":
        wanted = set(int(s) for s in domains)
        missing = wanted - set(self.domain_ids)
        if missing:
            raise DatasetError(f"domains not present in data: {sorted(missing)}")
        mask = np.isin(self.domains, sorted(wanted))
        return self.take(np.flatnonzero(mask))


@dataclass(frozen=True)
class GroupIndex:
    """Row indices and counts per (domain, class) group."""

    index_of: Mapping[tuple[int, int], np.ndarray]
    counts: Mapping[tuple[int, int], int]
    per_domain: Mapping[int, int]
    per_class: Mapping[int, int]
    n: int

    @property
    def domain_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.per_domain))

    @property
    def class_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.per_class))


def group_index(data: LabeledDataset) -> GroupIndex:
    """Partition row indices by (domain, class)."""
    index_of: dict[tuple[int, int], np.ndarray] = {}
    counts: dict[tuple[int, int], int] = {}
    per_domain: dict[int, int] = {}
    per_class: dict[int, int] = {}
    for s in data.domain_ids:
        in_s = data.domains == s
        per_domain[s] = int(in_s.sum())
        for j in data.class_ids:
            idx = np.flatnonzero(in_s & (data.labels == j))
            if idx.size == 0:
                continue
            index_of[(s, j)] = _frozen(idx)
            counts[(s, j)] = int(idx.size)
            per_class[j] = per_class.get(j, 0) + int(idx.size)
    return GroupIndex(index_of, counts, per_domain, per_class, data.n)


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellSpec:
    """One (domain, class) block of 2-D Gaussian samples."""

    mean: tuple[float, float]
    std: tuple[float, float]
    count: int

    def __post_init__(self):
        if len(self.mean) != 2 or len(self.std) != 2:
            raise DatasetError("cells are 2-D: mean and std need two entries each")
        if not all(s > 0 for s in self.std):
            raise DatasetError("standard deviations must be strictly positive")
        if self.count < 1:
            raise DatasetError("cell counts must be strictly positive")


@dataclass(frozen=True)
class SyntheticSpec:
    """Per-(domain, class) Gaussian cells plus the generator seed."""

    cells: Mapping[tuple[int, int], CellSpec]
    seed: int = 0

    def __post_init__(self):
        if not self.cells:
            raise DatasetError("synthetic spec has no cells")
        if self.seed < 0:
            raise DatasetError(f"seed must be >= 0, got {self.seed}")
        for (s, j) in self.cells:
            if s < 1 or j < 1:
                raise DatasetError("domain and class ids must be positive integers")

    @property
    def total(self) -> int:
        return sum(c.count for c in self.cells.values())


def generate_synthetic(spec: SyntheticSpec) -> LabeledDataset:
    """Draw the dataset described by ``spec``.

    Cells are drawn in ascending (domain, class) order from a single
    numpy default_rng(seed) stream, one (count, 2) normal block per cell,
    so identical specs give bit-identical datasets.
    """
    rng = np.random.default_rng(spec.seed)
    feats, labels, domains = [], [], []
    for (s, j) in sorted(spec.cells):
        cell = spec.cells[(s, j)]
        block = rng.normal(loc=cell.mean, scale=cell.std, size=(cell.count, 2))
        feats.append(block)
        labels.append(np.full(cell.count, j, dtype=np.int64))
        domains.append(np.full(cell.count, s, dtype=np.int64))
    all_labels = np.concatenate(labels)
    all_domains = np.concatenate(domains)
    return LabeledDataset(
        np.vstack(feats), all_labels, all_domains,
        label_names={int(j): str(j) for j in np.unique(all_labels)},
        domain_names={int(s): str(s) for s in np.unique(all_domains)},
    )


def benchmark_spec(seed: int = 7) -> SyntheticSpec:
    """Bundled three-domain, three-class 2-D benchmark (320 samples).

    Within each domain the three classes sit left to right along x, with
    the middle class offset downward in y; the whole layout shifts right
    from domain to domain, so raw coordinates transfer badly across
    domains while the within-domain class geometry stays stable.
    """
    layout = {
        (1, 1): ((1.0, 2.0), 30),
        (1, 2): ((2.0, 1.0), 20),
        (1, 3): ((3.0, 2.0), 30),
        (2, 1): ((3.5, 2.5), 20),
        (2, 2): ((4.5, 1.5), 60),
        (2, 3): ((5.5, 2.5), 40),
        (3, 1): ((8.0, 2.5), 40),
        (3, 2): ((9.5, 1.5), 40),
        (3, 3): ((10.0, 2.5), 40),
    }
    cells = {
        key: CellSpec(mean=mean, std=(0.3, 0.3), count=count)
        for key, (mean, count) in layout.items()
    }
    return SyntheticSpec(cells=cells, seed=seed)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

class SplitResult(NamedTuple):
    first: LabeledDataset
    second: LabeledDataset
    warnings: tuple[str, ...]


def split(data: LabeledDataset, fraction: float, seed: int) -> SplitResult:
    """Stratified two-way split by (domain, class) group.

    Each group is shuffled with a seeded generator (groups visited in
    ascending (domain, class) order) and the first floor(fraction * count)
    rows go to the first side, clamped so neither side loses the group
    entirely. A single-sample group cannot be split; it goes to the first
    side and is reported in ``warnings``. Row order within each side keeps
    the original dataset order.
    """
    if not 0.0 < fraction < 1.0:
        raise DatasetError(f"fraction must lie in (0, 1), got {fraction}")
    groups = group_index(data)
    rng = np.random.default_rng(seed)
    first_idx: list[np.ndarray] = []
    second_idx: list[np.ndarray] = []
    warnings: list[str] = []
    for (s, j) in sorted(groups.index_of):
        idx = groups.index_of[(s, j)]
        count = idx.size
        perm = rng.permutation(count)
        if count == 1:
            warnings.append(
                f"domain {s} class {j} has a single sample; assigned to the first side"
            )
            first_idx.append(idx)
            continue
        take = int(math.floor(fraction * count))
        take = min(max(take, 1), count - 1)
        first_idx.append(idx[perm[:take]])
        second_idx.append(idx[perm[take:]])
    first = np.sort(np.concatenate(first_idx)) if first_idx else np.empty(0, dtype=np.int64)
    second = np.sort(np.concatenate(second_idx)) if second_idx else np.empty(0, dtype=np.int64)
    if first.size == 0 or second.size == 0:
        raise DatasetError(
            f"fraction {fraction} leaves an empty side "
            f"({first.size} / {second.size} of {data.n} samples)"
        )
    return SplitResult(data.take(first), data.take(second), tuple(warnings))


# ---------------------------------------------------------------------------
# CSV ingestion and export
# ---------------------------------------------------------------------------

def _order_key(value: str):
    # numeric strings sort numerically so csv round trips keep integer ids
    try:
        return (0, float(value), value)
    except ValueError:
        return (1, 0.0, value)


def _remap(values: list[str]) -> tuple[np.ndarray, dict[int, str]]:
    order = sorted(set(values), key=_order_key)
    to_id = {name: i + 1 for i, name in enumerate(order)}
    ids = np.array([to_id[v] for v in values], dtype=np.int64)
    return ids, {i + 1: name for i, name in enumerate(order)}


def _check_delimiter(delimiter) -> None:
    try:
        csv.reader((), delimiter=delimiter)
    except (TypeError, csv.Error) as exc:  # not one character
        raise DatasetError(f"bad delimiter {delimiter!r}: {exc}") from None


def _read_table(path, delimiter: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Stripped header and the non-blank (line number, row) records of a UTF-8 table."""
    _check_delimiter(delimiter)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            records = list(csv.reader(fh, delimiter=delimiter))
    except FileNotFoundError:
        raise DatasetError(f"file not found: {path}") from None
    except (OSError, ValueError, csv.Error) as exc:  # a directory, a NUL in the path, not UTF-8
        raise DatasetError(f"{path}: not a readable UTF-8 delimited text file ({exc})") from None
    if not records:
        raise DatasetError(f"{path}: file is empty")
    header = [h.strip() for h in records[0]]
    rows = []
    for lineno, row in enumerate(records[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise DatasetError(
                f"{path}: line {lineno} has {len(row)} cells, expected {len(header)}"
            )
        rows.append((lineno, row))
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    return header, rows


def load_csv(
    path,
    label_column: str = "label",
    domain_column: str = "domain",
    feature_columns: Sequence[str] | None = None,
    delimiter: str = ",",
) -> LabeledDataset:
    """Read a labeled multi-domain dataset from a delimited text file.

    The first row is a header. Feature columns must parse as finite
    numbers; label and domain columns are arbitrary non-empty strings and
    are remapped to dense 1-based ids (numeric strings sort numerically,
    other strings lexicographically after them). The original names are
    kept on the returned dataset. Errors name the offending file line and
    column; every failure is a DatasetError.
    """
    header, records = _read_table(path, delimiter)
    if len(set(header)) != len(header):
        raise DatasetError(f"{path}: duplicate column names in header")
    for needed in (label_column, domain_column):
        if needed not in header:
            raise DatasetError(f"{path}: missing column '{needed}'")
    if feature_columns is None:
        feature_columns = [h for h in header if h not in (label_column, domain_column)]
    if not feature_columns:
        raise DatasetError(f"{path}: no feature columns")
    missing = [c for c in feature_columns if c not in header]
    if missing:
        raise DatasetError(f"{path}: feature columns not in header: {missing}")
    repeated = sorted({c for c in feature_columns if feature_columns.count(c) > 1})
    if repeated:
        raise DatasetError(f"{path}: feature columns repeated: {repeated}")
    pos = {name: header.index(name) for name in header}
    feat_pos = [pos[c] for c in feature_columns]
    rows: list[list[float]] = []
    labels: list[str] = []
    domains: list[str] = []
    for lineno, row in records:
        values = []
        for c, p in zip(feature_columns, feat_pos):
            cell = row[p].strip()
            try:
                value = float(cell)
            except ValueError:
                raise DatasetError(
                    f"{path}: line {lineno}, column '{c}': "
                    f"non-numeric feature value {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise DatasetError(
                    f"{path}: line {lineno}, column '{c}': non-finite feature value {cell!r}"
                )
            values.append(value)
        label = row[pos[label_column]].strip()
        domain = row[pos[domain_column]].strip()
        if not label:
            raise DatasetError(f"{path}: line {lineno}, column '{label_column}': empty label")
        if not domain:
            raise DatasetError(
                f"{path}: line {lineno}, column '{domain_column}': empty domain"
            )
        rows.append(values)
        labels.append(label)
        domains.append(domain)
    label_ids, label_names = _remap(labels)
    domain_ids, domain_names = _remap(domains)
    return LabeledDataset(
        np.asarray(rows, dtype=np.float64), label_ids, domain_ids, label_names, domain_names
    )


def save_csv(data: LabeledDataset, path, delimiter: str = ",") -> None:
    """Write a dataset in the load_csv layout (features, label, domain).

    Floats are written with repr so a reload reproduces them exactly.
    """
    _check_delimiter(delimiter)
    label_names = data.label_names or {}
    domain_names = data.domain_names or {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow([f"x{i + 1}" for i in range(data.n_features)] + ["label", "domain"])
        for i in range(data.n):
            row = [repr(float(v)) for v in data.features[i]]
            row.append(label_names.get(int(data.labels[i]), str(int(data.labels[i]))))
            row.append(domain_names.get(int(data.domains[i]), str(int(data.domains[i]))))
            writer.writerow(row)


def load_features(path, delimiter: str = ",") -> tuple[np.ndarray, list[str]]:
    """Read a plain numeric feature table (header + numeric columns).

    Returns the matrix and the header names. Used by the projection CLI
    where no label or domain columns are required.
    """
    header, records = _read_table(path, delimiter)
    rows = []
    for lineno, row in records:
        try:
            rows.append([float(cell) for cell in row])
        except ValueError:
            raise DatasetError(f"{path}: line {lineno}: non-numeric value") from None
        if not all(map(math.isfinite, rows[-1])):
            raise DatasetError(f"{path}: line {lineno}: non-finite value")
    return np.asarray(rows, dtype=np.float64), header
