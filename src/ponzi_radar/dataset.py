"""Labeled datasets as arrays, CSV persistence, background sampling.

The on-disk format is CSV with a fixed column order and the schema version
embedded in the first header cell:

    schema=v1,id,label,n_addr,lifetime_days,...

Integer-valued features are bounded by 2**53, so float64 holds them exactly,
and they round-trip as decimal integers; real-valued features are printed
with 17 significant digits so read(write(d)) == d exactly. A cell that is not
a finite number >= 0, or in an integer column not an integer from 0 to 2**53,
is rejected with its row and column.
The per-cluster feature table (`schema=v1,cluster_id,...`) shares the codec.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
import random
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .clustering import ClusterSet
from .errors import DataError, SchemaMismatchError
from .features import FEATURE_NAMES, INT_FEATURES, MAX_EXACT_INT, SCHEMA_VERSION, FeatureVector

logger = logging.getLogger(__name__)

LABEL_PONZI = "P"
LABEL_OTHER = "nP"
LABEL_OF = (LABEL_OTHER, LABEL_PONZI)  # indexed by y

_N_FEATURES = len(FEATURE_NAMES)
_INT_COLUMNS = np.array([name in INT_FEATURES for name in FEATURE_NAMES])


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled rows: ids, labels and the feature matrix, checked once here.

    `y` is int8 with 1 = P; `X` is float64, one row per id in schema column
    order, finite and non-negative.
    """

    ids: tuple[str, ...]
    y: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        ids = tuple(self.ids)
        y = np.asarray(self.y)
        X = np.asarray(self.X, dtype=np.float64)
        if y.shape != (len(ids),) or X.shape != (len(ids), _N_FEATURES):
            raise DataError(f"dataset of {len(ids)} ids needs as many labels and rows of "
                            f"{_N_FEATURES} features, got {y.shape} and {X.shape}")
        if not np.all((y == 0) | (y == 1)):
            raise DataError("dataset labels must be 0 (nP) or 1 (P)")
        if not np.all((X >= 0) & (X < math.inf)):
            raise DataError("dataset features must be finite and non-negative")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "y", y.astype(np.int8, copy=False))
        object.__setattr__(self, "X", X)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.ids == other.ids and np.array_equal(self.y, other.y)
                and np.array_equal(self.X, other.X))

    def take(self, rows: Sequence[int]) -> "Dataset":
        """The rows at `rows`, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        return Dataset(tuple(self.ids[i] for i in rows.tolist()), self.y[rows], self.X[rows])

    @property
    def n_ponzi(self) -> int:
        return int(np.count_nonzero(self.y))

    @property
    def n_other(self) -> int:
        return len(self.ids) - self.n_ponzi

    def __len__(self) -> int:
        return len(self.ids)


def assemble(
    features_by_cluster: Mapping[int, FeatureVector],
    ponzi_labels: Mapping[int, str],
) -> Dataset:
    """Build a labeled dataset from per-cluster features.

    Clusters named in `ponzi_labels` become P instances (id = the scheme
    label); every other supplied cluster becomes an nP instance. Labels for
    clusters not present in the feature map are an error.
    """
    unknown = sorted(set(ponzi_labels) - set(features_by_cluster))
    if unknown:
        raise DataError(f"label(s) for unknown cluster(s): {unknown}")
    order = sorted(features_by_cluster)
    ids = tuple(ponzi_labels[ci] if ci in ponzi_labels else f"c{ci}" for ci in order)
    if len(set(ids)) < len(ids):
        duplicate = next(id_ for id_, n in Counter(ids).items() if n > 1)
        raise DataError(f"duplicate instance id: {duplicate}")
    ds = Dataset(
        ids,
        np.fromiter((ci in ponzi_labels for ci in order), dtype=np.int8, count=len(order)),
        np.array([features_by_cluster[ci].as_tuple() for ci in order],
                 dtype=np.float64).reshape(len(order), _N_FEATURES),
    )
    if ds.n_ponzi == 0 and len(ds) > 0:
        logger.warning("dataset has no P instances; unusable for training")
    return ds


def sample_background(
    clusters: ClusterSet, n: int, seed: int, exclude: Iterable[int] = ()
) -> list[int]:
    """Sample n cluster indices uniformly without replacement, never excluded ones."""
    if n < 0:
        raise ValueError(f"sample size must be non-negative, got {n}")
    excluded = set(exclude)
    population = [i for i in range(clusters.n_clusters) if i not in excluded]
    if n > len(population):
        raise DataError(
            f"cannot sample {n} clusters from a population of {len(population)}"
        )
    return sorted(random.Random(seed).sample(population, n))


# The feature cells of one row: exact decimal integers, 17-digit reals. "%d"
# prints an integral float64 as the integer it holds.
_ROW_FORMAT = ",".join("%d" if name in INT_FEATURES else "%.17g" for name in FEATURE_NAMES)
_CHUNK_ROWS = 256  # rows converted to Python floats at a time


def _write_table(fp: IO[str], key_columns: Sequence[str], keys: Iterable[Sequence],
                 rows: Iterable[Sequence[float]]) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow([f"schema={SCHEMA_VERSION}", *key_columns, *FEATURE_NAMES])
    writer.writerows([*key, *(_ROW_FORMAT % tuple(row)).split(",")]
                     for key, row in zip(keys, rows))


def _cell_ok(cell: str, integer: bool) -> bool:
    """Whether a feature cell holds a finite number >= 0, an integer <= 2**53 if `integer`."""
    try:
        value = float(cell)
    except ValueError:
        return False
    if not 0 <= value < math.inf:
        return False
    if integer:
        exact = Decimal(cell)  # 2**53 + 1 must not pass as the float 2**53
        return exact == exact.to_integral_value() and exact <= MAX_EXACT_INT
    return True


def _read_table(fp: IO[str], key_columns: Sequence[str],
                what: str) -> tuple[list[list[str]], np.ndarray]:
    """The key cells of each row of a feature CSV, and its checked feature matrix."""
    reader = csv.reader(fp)
    header = next(reader, None)
    if header is None:
        raise DataError(f"empty {what} file")
    expected = [f"schema={SCHEMA_VERSION}", *key_columns, *FEATURE_NAMES]
    if header != expected:
        if header and header[0].startswith("schema=") and header[0] != expected[0]:
            raise SchemaMismatchError(
                f"{what} schema {header[0]!r} does not match {expected[0]!r}"
            )
        raise DataError(f"{what} header does not match the v1 feature schema")
    n_keys = len(key_columns)
    n_columns = n_keys + _N_FEATURES  # the schema cell heads no column
    keys: list[list[str]] = []
    cells: list[list[str]] = []
    try:
        for row_no, row in enumerate(reader, start=2):
            if len(row) != n_columns:
                raise DataError(f"{what} row {row_no}: expected {n_columns} columns")
            keys.append(row[:n_keys])
            cells.append(row[n_keys:])
    except csv.Error as exc:  # such as a cell beyond the csv module's field limit
        raise DataError(f"{what} row {len(cells) + 2}: {exc}") from exc
    try:
        X = np.array(cells, dtype=np.float64).reshape(len(cells), _N_FEATURES)
    except ValueError:  # some cell is not a number: look at every cell
        suspects = itertools.product(range(len(cells)), range(_N_FEATURES))
    else:
        ints = X[:, _INT_COLUMNS]
        suspect = ~((X >= 0) & (X < math.inf))
        suspect[:, _INT_COLUMNS] |= (ints >= MAX_EXACT_INT) | (ints != np.floor(ints))
        suspects = np.argwhere(suspect).tolist()  # in file order
    for i, j in suspects:
        if not _cell_ok(cells[i][j], _INT_COLUMNS[j]):
            kind = "an integer from 0 to 2**53" if _INT_COLUMNS[j] else "a finite number >= 0"
            raise DataError(f"{what} row {i + 2}, column {FEATURE_NAMES[j]}: "
                            f"{cells[i][j][:40]!r} is not {kind}")
    return keys, X


def write_csv(dataset: Dataset, fp: IO[str]) -> None:
    X = dataset.X
    rows = (row for start in range(0, len(X), _CHUNK_ROWS)
            for row in X[start:start + _CHUNK_ROWS].tolist())
    keys = zip(dataset.ids, (LABEL_OF[v] for v in dataset.y.tolist()))
    _write_table(fp, ("id", "label"), keys, rows)


def write_features_csv(features_by_cluster: Mapping[int, FeatureVector], fp: IO[str]) -> None:
    """Per-cluster feature table: `schema=v1,cluster_id,<feature columns>`."""
    order = sorted(features_by_cluster)
    _write_table(fp, ("cluster_id",), ((ci,) for ci in order),
                 (features_by_cluster[ci].as_tuple() for ci in order))


_FEATURE_TYPES = tuple(int if name in INT_FEATURES else float for name in FEATURE_NAMES)


def read_features_csv(fp: IO[str]) -> dict[int, FeatureVector]:
    keys, X = _read_table(fp, ("cluster_id",), "feature table")
    out: dict[int, FeatureVector] = {}
    for row_no, ((cell,), row) in enumerate(zip(keys, X.tolist()), start=2):
        try:
            ci = int(cell)
        except ValueError as exc:
            raise DataError(f"feature table row {row_no}: {exc}") from exc
        if ci in out:
            raise DataError(f"feature table row {row_no}: duplicate cluster id {ci}")
        out[ci] = FeatureVector(*[kind(v) for kind, v in zip(_FEATURE_TYPES, row)])
    return out


def read_csv(fp: IO[str]) -> Dataset:
    keys, X = _read_table(fp, ("id", "label"), "dataset")
    for row_no, (_, label) in enumerate(keys, start=2):
        if label not in LABEL_OF:
            raise DataError(f"dataset row {row_no}: label must be P or nP, got {label!r}")
    y = np.fromiter((label == LABEL_PONZI for _, label in keys), dtype=np.int8, count=len(keys))
    return Dataset(tuple(id_ for id_, _ in keys), y, X)
