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

The writer formats each row with one `%` over a line format that holds the
key cells and the feature cells; `csvrows` writes the lines and quotes the
ids.

A table is read back `_BLOCK_ROWS` lines at a time after its header. A
plain block (see `csvrows`) has its feature cells parsed by one `np.loadtxt`
call (its `quotechar` needs numpy >= 1.23) and its key cells split off with
`str.split`. `loadtxt` strips whitespace and parses the ASCII that is left
with the routine `float()` ends in. Apart from `\\x1c`-`\\x1f`, which it
strips as whitespace and a plain block never holds, it so accepts a subset
of what `float()` accepts (not `1_0`, not non-ASCII digits) and gives each
the same value. The first block that is not plain, or that `loadtxt`
refuses or the cell checks flag, and every block after it, go through the
csv path: `csv.reader` rows, converted a block at a time, which raise for
the first bad row or cell. So a file reads to the same dataset, bit for
bit, or fails with the same error, whichever way its blocks go.
"""

from __future__ import annotations

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
from .csvrows import CHUNK_ROWS, csv_rows, plain, read_header, text_cells, write_rows
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
        return Dataset(tuple(map(self.ids.__getitem__, rows.tolist())), self.y[rows],
                       self.X[rows])

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
        np.fromiter(itertools.chain.from_iterable(features_by_cluster[ci] for ci in order),
                    dtype=np.float64, count=len(order) * _N_FEATURES).reshape(-1, _N_FEATURES),
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


def _write_table(fp: IO[str], key_columns: Sequence[str], rows: Iterable[tuple]) -> None:
    """Each row is its key cells (text cells already through `text_cells`), then its features."""
    write_rows(fp, [f"schema={SCHEMA_VERSION}", *key_columns, *FEATURE_NAMES],
               "%s," * len(key_columns) + _ROW_FORMAT + "\n", rows)


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


_BLOCK_ROWS = 512  # lines held as strings at a time while reading


def _read_table(fp: IO[str], key_columns: Sequence[str],
                what: str) -> tuple[list[list[str]], np.ndarray]:
    """Each key column of a feature CSV as a list of cells, and its checked feature matrix.

    Only one block of lines is ever held as strings (see above).
    """
    expected = [f"schema={SCHEMA_VERSION}", *key_columns, *FEATURE_NAMES]

    def header_error(header: list[str] | None) -> DataError:
        if header is None:
            return DataError(f"empty {what} file")
        if header and header[0].startswith("schema=") and header[0] != expected[0]:
            return SchemaMismatchError(
                f"{what} schema {header[0]!r} does not match {expected[0]!r}")
        return DataError(f"{what} header does not match the v1 feature schema")

    read_header(fp, what, expected, header_error)
    width = len(expected) - 1  # the schema cell heads no column
    keys: list[list[str]] = [[] for _ in key_columns]
    blocks: list[np.ndarray] = []
    while lines := list(itertools.islice(fp, _BLOCK_ROWS)):
        block = _plain_block(lines, len(keys), width) if plain(lines) else None
        if block is None:
            _read_csv_rows(itertools.chain(lines, fp), keys, blocks, width, what)
            break
        for column, cells in zip(keys, block[0]):
            column.extend(cells)
        blocks.append(block[1])
    return keys, np.concatenate(blocks) if blocks else np.empty((0, _N_FEATURES))


def _read_csv_rows(lines: Iterable[str], keys: list[list[str]], blocks: list[np.ndarray],
                   width: int, what: str) -> None:
    """Append the key cells and the feature blocks of the rows in `lines`,
    which start at the first row of block `len(blocks)`."""
    cells: list[list[str]] = []
    for _, row in csv_rows(lines, what, width, len(blocks) * _BLOCK_ROWS + 2):
        for column, cell in zip(keys, row):
            column.append(cell)
        cells.append(row[len(keys):])
        if len(cells) == _BLOCK_ROWS:
            blocks.append(_convert_block(cells, len(blocks) * _BLOCK_ROWS + 2, what))
            cells = []
    blocks.append(_convert_block(cells, len(blocks) * _BLOCK_ROWS + 2, what))


def _plain_block(lines: list[str], n_keys: int,
                 width: int) -> tuple[Iterable[tuple[str, ...]], np.ndarray] | None:
    """The key columns and the feature matrix of a plain block, or None.

    None sends the block to the csv path. It comes when `loadtxt` raises,
    when it does not give one row per line, when a line has other than
    `width` cells (`loadtxt` raises for a line of fewer, so the block holds
    `width - 1` commas per line only if each line holds that many), or when
    a cell fails the checks of `_convert_block`.
    """
    try:
        X = np.loadtxt(lines, delimiter=",", usecols=range(n_keys, width), comments=None,
                       quotechar=None, ndmin=2)
    except ValueError:
        return None
    if (len(X) != len(lines) or "".join(lines).count(",") != len(lines) * (width - 1)
            or _suspect_cells(X).any()):
        return None
    return zip(*map(str.split, lines, itertools.repeat(","), itertools.repeat(n_keys))), X


def _suspect_cells(X: np.ndarray) -> np.ndarray:
    """Cells that are not finite and >= 0, or in an integer column not below
    2**53 or not integral: `_cell_ok` decides on each."""
    ints = X[:, _INT_COLUMNS]
    suspect = ~((X >= 0) & (X < math.inf))
    suspect[:, _INT_COLUMNS] |= (ints >= MAX_EXACT_INT) | (ints != np.floor(ints))
    return suspect


def _convert_block(cells: list[list[str]], first_row: int, what: str) -> np.ndarray:
    """The feature cells of consecutive rows as a matrix; the first bad cell is named."""
    try:
        X = np.array(cells, dtype=np.float64).reshape(len(cells), _N_FEATURES)
    except ValueError:  # some cell is not a number: look at every cell
        suspects = itertools.product(range(len(cells)), range(_N_FEATURES))
    else:
        suspects = np.argwhere(_suspect_cells(X)).tolist()  # in file order
    for i, j in suspects:
        if not _cell_ok(cells[i][j], _INT_COLUMNS[j]):
            kind = "an integer from 0 to 2**53" if _INT_COLUMNS[j] else "a finite number >= 0"
            raise DataError(f"{what} row {first_row + i}, column {FEATURE_NAMES[j]}: "
                            f"{cells[i][j][:40]!r} is not {kind}")
    return X


def write_csv(dataset: Dataset, fp: IO[str]) -> None:
    """Write the dataset as CSV, or raise DataError before writing anything.

    An integer-column value that is not an integer from 0 to 2**53 has no
    exact cell; the first one in file order is named as `read_csv` names a
    bad cell.
    """
    X = dataset.X
    for start in range(0, len(X), CHUNK_ROWS):  # a chunk at a time, to bound memory
        ints = X[start:start + CHUNK_ROWS, _INT_COLUMNS]
        bad = np.argwhere((ints > MAX_EXACT_INT) | (ints != np.floor(ints)))
        if len(bad):
            i, j = start + bad[0, 0], np.flatnonzero(_INT_COLUMNS)[bad[0, 1]]
            raise DataError(f"dataset row {i + 2}, column {FEATURE_NAMES[j]}: "
                            f"{X[i, j].item()!r} is not an integer from 0 to 2**53")
    values = (row for start in range(0, len(X), CHUNK_ROWS)
              for row in X[start:start + CHUNK_ROWS].tolist())
    _write_table(fp, ("id", "label"),
                 ((id_, LABEL_OF[v], *row) for id_, v, row
                  in zip(text_cells(dataset.ids), dataset.y.tolist(), values)))


def write_features_csv(features_by_cluster: Mapping[int, FeatureVector], fp: IO[str]) -> None:
    """Per-cluster feature table: `schema=v1,cluster_id,<feature columns>`."""
    _write_table(fp, ("cluster_id",),
                 ((ci, *features_by_cluster[ci]) for ci in sorted(features_by_cluster)))


def read_features_csv(fp: IO[str]) -> dict[int, FeatureVector]:
    (cluster_ids,), X = _read_table(fp, ("cluster_id",), "feature table")
    # One tolist per column. The reader bounds integer columns to [0, 2**53],
    # where int64 holds every value exactly.
    columns = [X[:, j].astype(np.int64).tolist() if integer else X[:, j].tolist()
               for j, integer in enumerate(_INT_COLUMNS.tolist())]
    out: dict[int, FeatureVector] = {}
    for row_no, (cell, row) in enumerate(zip(cluster_ids, zip(*columns)), start=2):
        try:
            ci = int(cell)
        except ValueError as exc:
            raise DataError(f"feature table row {row_no}: {exc}") from exc
        if ci in out:
            raise DataError(f"feature table row {row_no}: duplicate cluster id {ci}")
        out[ci] = FeatureVector._make(row)
    return out


def read_csv(fp: IO[str]) -> Dataset:
    (ids, labels), X = _read_table(fp, ("id", "label"), "dataset")
    for row_no, label in enumerate(labels, start=2):
        if label not in LABEL_OF:
            raise DataError(f"dataset row {row_no}: label must be P or nP, got {label!r}")
    y = np.fromiter(map(LABEL_PONZI.__eq__, labels), dtype=np.int8, count=len(labels))
    return Dataset(tuple(ids), y, X)
