"""The feature, dataset and cluster table writers against the csv.writer code
they replaced, kept here as references.

`reference_write_table` formats a row's features with one `%`, splits the
text into cells again and has `csv.writer` join and quote them;
`reference_write_clusters` calls `writerow` once per address. Each reference
row is written with csv.writer's default "\r\n" terminator, which quotes a
cell holding `\r` or `\n` on every Python, and that terminator is then
swapped for "\n". The current writers format each whole row with one `%`
and quote only text cells that need it, and must give the same text for any
ids, addresses and values. A dataset with an integer-column value that is
not an integer from 0 to 2**53 has no exact text: `write_csv` refuses it,
where the reference printed such a value truncated (2.5 as 2) or as an
integer of hundreds of digits that the reader rejects.
"""

import csv
import io
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ponzi_radar.clustering import ClusterSet, write_clusters
from ponzi_radar.csvrows import CHUNK_ROWS
from ponzi_radar.dataset import LABEL_OF, Dataset, read_csv, write_csv, write_features_csv
from ponzi_radar.errors import DataError
from ponzi_radar.features import FEATURE_NAMES, INT_FEATURES, SCHEMA_VERSION, FeatureVector


# --- references -----------------------------------------------------------

_REFERENCE_ROW_FORMAT = ",".join("%d" if name in INT_FEATURES else "%.17g"
                                 for name in FEATURE_NAMES)


def reference_writerow(fp, cells):
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    line = buf.getvalue()
    assert line.endswith("\r\n")
    fp.write(line[:-2] + "\n")


def reference_write_table(fp, key_columns, keys, rows):
    reference_writerow(fp, [f"schema={SCHEMA_VERSION}", *key_columns, *FEATURE_NAMES])
    for key, row in zip(keys, rows):
        reference_writerow(fp, [*key, *(_REFERENCE_ROW_FORMAT % tuple(row)).split(",")])


def reference_write_csv(dataset, fp):
    keys = zip(dataset.ids, (LABEL_OF[v] for v in dataset.y.tolist()))
    reference_write_table(fp, ("id", "label"), keys, dataset.X.tolist())


def reference_write_features_csv(features_by_cluster, fp):
    order = sorted(features_by_cluster)
    reference_write_table(fp, ("cluster_id",), ((ci,) for ci in order),
                          (features_by_cluster[ci] for ci in order))


def reference_write_clusters(clusters, fp):
    reference_writerow(fp, ["cluster_id", "address"])
    for idx, group in enumerate(clusters.members):
        for addr in group:
            reference_writerow(fp, [idx, addr])


def written(write, *args) -> str:
    buf = io.StringIO(newline="")
    write(*args, buf)
    return buf.getvalue()


def outcome(write, *args):
    """The text written, or the csv module's error (Python 3.10 rejects NUL)."""
    try:
        return written(write, *args)
    except csv.Error as exc:
        return f"csv.Error: {exc}"


def unwritable(data: Dataset) -> str | None:
    """The error for the first integer-column value, in file order, that is
    not an integer from 0 to 2**53, or None."""
    for i, row in enumerate(data.X.tolist()):
        for name, value in zip(FEATURE_NAMES, row):
            if name in INT_FEATURES and not (value.is_integer() and value <= 2 ** 53):
                return (f"dataset row {i + 2}, column {name}: {value!r} "
                        "is not an integer from 0 to 2**53")
    return None


def assert_same_tables(data: Dataset, table: dict, clusters: ClusterSet) -> None:
    error = unwritable(data)
    if error is None:
        assert outcome(write_csv, data) == outcome(reference_write_csv, data)
    else:
        with pytest.raises(DataError) as err:
            written(write_csv, data)
        assert str(err.value) == error
    assert (outcome(write_features_csv, table)
            == outcome(reference_write_features_csv, table))
    assert outcome(write_clusters, clusters) == outcome(reference_write_clusters, clusters)


# --- strategies -----------------------------------------------------------

# Cells csv.writer quotes, NUL (which it rejects before Python 3.11), an
# empty one, non-ASCII ones, and ones with leading or trailing spaces.
_ODD_TEXT = ['a,b', 'say "hi"', '"', 'x\ry', 'x\r\ny', '\n', '', ' ', ' lead', 'trail ',
             'é', 'Ĳ€𝔘', ' ', '\x00', ',"\n']
_TEXT = st.one_of(st.sampled_from(_ODD_TEXT),
                  st.text(st.sampled_from(',"\r\n a€é '), max_size=6),
                  st.text(max_size=6))

# -0.0, subnormals, 2**53 and its neighbours, 1e308 and the largest float.
_EDGE_VALUES = [-0.0, 0.0, 5e-324, 2.2250738585072009e-308, 2.0 ** 53 - 1, 2.0 ** 53,
                2.0 ** 53 + 2, 1e308, 1.7976931348623157e308, 0.1, 1 / 3, 1e-300]
_CELL = st.one_of(st.sampled_from(_EDGE_VALUES),
                  st.floats(min_value=0, allow_nan=False, allow_infinity=False))
_INT_CELL = st.one_of(st.sampled_from([0, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 64]),
                      st.integers(min_value=0, max_value=2 ** 60),
                      st.sampled_from([-0.0, 5e-324, 2.0 ** 53, 1e308]))
_REAL_CELL = st.one_of(_CELL, st.floats())
_INT_COLUMNS = np.array([name in INT_FEATURES for name in FEATURE_NAMES])
# A dataset's integer-column cells: integral floats from 0 to 2**53, and up to
# two cells that no integer cell holds exactly (none in half the datasets).
_INT_EDGE_VALUES = [-0.0, 0.0, 1.0, 2.0 ** 53 - 1, 2.0 ** 53]
_INT_X_CELL = st.one_of(st.sampled_from(_INT_EDGE_VALUES), st.integers(0, 2 ** 53))
_UNWRITABLE_CELL = st.one_of(
    st.sampled_from([2.5, 0.1, 5e-324, 2.0 ** 53 + 2, 1e300, 1.7976931348623157e308]),
    st.floats(0, 1, exclude_min=True, exclude_max=True),
    st.floats(min_value=2.0 ** 53 + 2, allow_infinity=False))


@st.composite
def datasets(draw):
    n = draw(st.integers(0, 12))
    ids = draw(st.lists(_TEXT, min_size=n, max_size=n))
    y = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    X = draw(arrays(np.float64, (n, len(FEATURE_NAMES)), elements=_CELL))
    X[:, _INT_COLUMNS] = draw(arrays(np.float64, (n, len(INT_FEATURES)), elements=_INT_X_CELL))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if n else 0):
        X[draw(st.integers(0, n - 1)),
          draw(st.sampled_from(np.flatnonzero(_INT_COLUMNS).tolist()))] = draw(_UNWRITABLE_CELL)
    return Dataset(tuple(ids), np.array(y, dtype=np.int8), X)


@st.composite
def tables(draw):
    data = draw(datasets())
    # The feature table's integer and real columns are drawn as two arrays,
    # each cell from its column's strategy, and interleaved in schema order.
    keys = draw(st.lists(st.integers(-2 ** 64, 2 ** 64), unique=True, max_size=8))
    rows = np.empty((len(keys), len(FEATURE_NAMES)), dtype=object)
    rows[:, _INT_COLUMNS] = draw(arrays(object, (len(keys), len(INT_FEATURES)),
                                        elements=_INT_CELL))
    rows[:, ~_INT_COLUMNS] = draw(arrays(np.float64,
                                         (len(keys), len(FEATURE_NAMES) - len(INT_FEATURES)),
                                         elements=_REAL_CELL))
    table = {key: FeatureVector(*row) for key, row in zip(keys, rows.tolist())}
    members = draw(st.lists(st.lists(_TEXT, min_size=1, max_size=4).map(tuple), max_size=8))
    return data, table, ClusterSet(tuple(members), {})


# --- the property ---------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(tables())
def test_writers_match_references(case):
    assert_same_tables(*case)


@settings(max_examples=150, deadline=None)
@given(datasets())
def test_dataset_is_refused_at_write_or_reads_back_equal(data):
    buf = io.StringIO(newline="")
    error = unwritable(data)
    try:
        write_csv(data, buf)
    except DataError as exc:
        assert str(exc) == error
        assert buf.getvalue() == ""
        return
    except csv.Error:  # NUL in an id, before Python 3.11
        return
    assert error is None
    buf.seek(0)
    assert read_csv(buf) == data


@pytest.mark.parametrize("n", [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 3])
def test_chunk_boundaries_match_references(n):
    rng = random.Random(n)
    ids = tuple(rng.choice(_ODD_TEXT) if rng.random() < 0.05 else f"c{i}" for i in range(n))
    X = np.array([[rng.choice(_EDGE_VALUES) for _ in FEATURE_NAMES] for _ in range(n)])
    table = {ci: FeatureVector(*(int(v) if name in INT_FEATURES else v
                                 for name, v in zip(FEATURE_NAMES, row)))
             for ci, row in enumerate(X.tolist())}
    # The dataset's integer columns take the integral edges, so it can be written.
    X[:, _INT_COLUMNS] = [[rng.choice(_INT_EDGE_VALUES) for _ in INT_FEATURES] for _ in range(n)]
    data = Dataset(ids, np.array([rng.random() < 0.1 for _ in range(n)], dtype=np.int8), X)
    members = tuple((id_, f"{id_}+") for id_ in ids[: n // 2 + 1])
    assert_same_tables(data, table, ClusterSet(members, {}))
    # The writer checks a chunk at a time: a fraction in the last row is found.
    X = X.copy()
    X[-1, FEATURE_NAMES.index("max_daily_balance_delta")] = 2.5
    assert_same_tables(Dataset(ids, data.y, X), table, ClusterSet(members, {}))


def test_write_peak_memory_is_bounded(tmp_path):
    # The writer holds the lines of one chunk of rows at a time. On this
    # table (24 000 rows, 5.0 MB as CSV, an X of 3.8 MB) its peak was 0.6 MB;
    # a writer that joined every line before writing peaked at 11.4 MB.
    rng = np.random.default_rng(5)
    X = rng.random((24000, len(FEATURE_NAMES))) * 1000
    ints = [name in INT_FEATURES for name in FEATURE_NAMES]
    X[:, ints] = np.floor(X[:, ints])
    data = Dataset(tuple(f"c{i}" for i in range(len(X))), rng.integers(0, 2, len(X)), X)
    path = tmp_path / "dataset.csv"
    with open(path, "w", encoding="utf-8", newline="") as fp:
        tracemalloc.start()
        try:
            write_csv(data, fp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert path.read_text(encoding="utf-8") == written(reference_write_csv, data)
    assert peak < 2e6
