"""Labeled instance assembly, CSV persistence, background sampling.

The on-disk format is CSV with a fixed column order and the schema version
embedded in the first header cell:

    schema=v1,id,label,n_addr,lifetime_days,...

Integer-valued features round-trip as decimal integers; real-valued features
are printed with 17 significant digits so read(write(d)) == d exactly. The
per-cluster feature table (`schema=v1,cluster_id,...`) shares the codec.
"""

from __future__ import annotations

import csv
import logging
import random
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .clustering import ClusterSet
from .errors import DataError, SchemaMismatchError
from .features import FEATURE_NAMES, INT_FEATURES, SCHEMA_VERSION, FeatureVector

logger = logging.getLogger(__name__)

LABEL_PONZI = "P"
LABEL_OTHER = "nP"


@dataclass(frozen=True, slots=True)
class Instance:
    id: str
    label: str  # "P" or "nP"
    features: FeatureVector

    def __post_init__(self):
        if self.label not in (LABEL_PONZI, LABEL_OTHER):
            raise DataError(f"instance {self.id}: label must be P or nP, got {self.label!r}")


@dataclass(frozen=True)
class Dataset:
    """Labeled instances, plus the matrix the learners see.

    `instances` is the stored record: integer features stay exact Python
    ints. `X` and `y` are built from it once, on first use.
    """

    schema: str
    instances: tuple[Instance, ...]

    @cached_property
    def X(self) -> np.ndarray:
        """Feature matrix, float64, one row per instance in schema column order."""
        return np.array([inst.features.as_tuple() for inst in self.instances],
                        dtype=np.float64).reshape(len(self.instances), len(FEATURE_NAMES))

    @cached_property
    def y(self) -> np.ndarray:
        """Label vector, int8, 1 = P."""
        return np.fromiter((inst.label == LABEL_PONZI for inst in self.instances),
                           dtype=np.int8, count=len(self.instances))

    def take(self, rows: Sequence[int]) -> "Dataset":
        """The instances at `rows`, in that order; X and y are sliced, not rebuilt."""
        rows = np.asarray(rows, dtype=np.intp)
        subset = Dataset(self.schema, tuple(self.instances[i] for i in rows))
        subset.__dict__.update(X=self.X[rows], y=self.y[rows])
        return subset

    @property
    def n_ponzi(self) -> int:
        return sum(1 for inst in self.instances if inst.label == LABEL_PONZI)

    @property
    def n_other(self) -> int:
        return len(self.instances) - self.n_ponzi

    def __len__(self) -> int:
        return len(self.instances)


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
    instances = []
    used_ids: set[str] = set()
    for ci in sorted(features_by_cluster):
        if ci in ponzi_labels:
            inst = Instance(ponzi_labels[ci], LABEL_PONZI, features_by_cluster[ci])
        else:
            inst = Instance(f"c{ci}", LABEL_OTHER, features_by_cluster[ci])
        if inst.id in used_ids:
            raise DataError(f"duplicate instance id: {inst.id}")
        used_ids.add(inst.id)
        instances.append(inst)
    ds = Dataset(SCHEMA_VERSION, tuple(instances))
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


# One formatter per schema column: exact decimal integers, 17-digit reals.
_FORMATS = tuple(str if name in INT_FEATURES else "{:.17g}".format for name in FEATURE_NAMES)
_PARSERS = tuple(int if name in INT_FEATURES else float for name in FEATURE_NAMES)


def _write_table(fp: IO[str], schema: str, key_columns: Sequence[str],
                 rows: Iterable[tuple[Sequence, FeatureVector]]) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow([f"schema={schema}", *key_columns, *FEATURE_NAMES])
    for keys, fv in rows:
        writer.writerow([*keys, *(fmt(v) for fmt, v in zip(_FORMATS, fv.as_tuple()))])


def _read_table(fp: IO[str], key_columns: Sequence[str],
                what: str) -> Iterator[tuple[int, list[str], FeatureVector]]:
    """Yield (row number, key cells, features) for each row of a feature CSV."""
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
    n_columns = n_keys + len(FEATURE_NAMES)  # the schema cell heads no column
    for row_no, row in enumerate(reader, start=2):
        if len(row) != n_columns:
            raise DataError(f"{what} row {row_no}: expected {n_columns} columns")
        try:
            values = [parse(cell) for parse, cell in zip(_PARSERS, row[n_keys:])]
        except ValueError as exc:
            raise DataError(f"{what} row {row_no}: {exc}") from exc
        yield row_no, row[:n_keys], FeatureVector(*values)


def write_csv(dataset: Dataset, fp: IO[str]) -> None:
    _write_table(fp, dataset.schema, ("id", "label"),
                 (((inst.id, inst.label), inst.features) for inst in dataset.instances))


def write_features_csv(features_by_cluster: Mapping[int, FeatureVector], fp: IO[str]) -> None:
    """Per-cluster feature table: `schema=v1,cluster_id,<feature columns>`."""
    _write_table(fp, SCHEMA_VERSION, ("cluster_id",),
                 (((ci,), features_by_cluster[ci]) for ci in sorted(features_by_cluster)))


def read_features_csv(fp: IO[str]) -> dict[int, FeatureVector]:
    out: dict[int, FeatureVector] = {}
    for row_no, (cell,), fv in _read_table(fp, ("cluster_id",), "feature table"):
        try:
            ci = int(cell)
        except ValueError as exc:
            raise DataError(f"feature table row {row_no}: {exc}") from exc
        if ci in out:
            raise DataError(f"feature table row {row_no}: duplicate cluster id {ci}")
        out[ci] = fv
    return out


def read_csv(fp: IO[str]) -> Dataset:
    instances = []
    for row_no, (id_, label), fv in _read_table(fp, ("id", "label"), "dataset"):
        try:
            instances.append(Instance(id_, label, fv))
        except DataError as exc:
            raise DataError(f"dataset row {row_no}: {exc}") from exc
    return Dataset(SCHEMA_VERSION, tuple(instances))
