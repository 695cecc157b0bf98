"""The feature-table readers against the csv.reader code they replaced, kept
here as the reference.

`reference_read_table` is the reader before plain blocks: every row goes
through `csv.reader`, and the feature cells are converted a block of
`_BLOCK_ROWS` rows at a time by `np.array`, with each suspect cell checked
again by `float()` and `Decimal`. The current reader parses plain blocks with
`np.loadtxt` and must give an equal dataset, with a bit-identical `X`, or
the same error, for any file.
"""

import csv
import io
import itertools
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ponzi_radar import dataset as ds_module
from ponzi_radar.dataset import (
    _BLOCK_ROWS,
    LABEL_OF,
    LABEL_PONZI,
    Dataset,
    read_csv,
    read_features_csv,
    write_csv,
    write_features_csv,
)
from ponzi_radar.errors import DataError, SchemaMismatchError
from ponzi_radar.features import (
    FEATURE_NAMES,
    INT_FEATURES,
    MAX_EXACT_INT,
    SCHEMA_VERSION,
    FeatureVector,
)


# --- reference --------------------------------------------------------------

_INT_COLUMNS = np.array([name in INT_FEATURES for name in FEATURE_NAMES])
_FEATURE_TYPES = tuple(int if name in INT_FEATURES else float for name in FEATURE_NAMES)


def _reference_rows(fp, what, header, width, header_error):
    reader = csv.reader(fp)
    rows_read = 0
    try:
        first = next(reader, None)
        if first != list(header):
            raise header_error(first)
        rows_read = 1
        for rows_read, row in enumerate(reader, start=2):
            if len(row) != width:
                raise DataError(f"{what} row {rows_read}: expected {width} columns")
            yield rows_read, row
    except csv.Error as exc:
        raise DataError(f"{what} row {rows_read + 1}: {exc}") from exc


def _reference_cell_ok(cell, integer):
    try:
        value = float(cell)
    except ValueError:
        return False
    if not 0 <= value < math.inf:
        return False
    if integer:
        exact = Decimal(cell)
        return exact == exact.to_integral_value() and exact <= MAX_EXACT_INT
    return True


def _reference_convert_block(cells, first_row, what):
    try:
        X = np.array(cells, dtype=np.float64).reshape(len(cells), len(FEATURE_NAMES))
    except ValueError:
        suspects = itertools.product(range(len(cells)), range(len(FEATURE_NAMES)))
    else:
        ints = X[:, _INT_COLUMNS]
        suspect = ~((X >= 0) & (X < math.inf))
        suspect[:, _INT_COLUMNS] |= (ints >= MAX_EXACT_INT) | (ints != np.floor(ints))
        suspects = np.argwhere(suspect).tolist()
    for i, j in suspects:
        if not _reference_cell_ok(cells[i][j], _INT_COLUMNS[j]):
            kind = "an integer from 0 to 2**53" if _INT_COLUMNS[j] else "a finite number >= 0"
            raise DataError(f"{what} row {first_row + i}, column {FEATURE_NAMES[j]}: "
                            f"{cells[i][j][:40]!r} is not {kind}")
    return X


def reference_read_table(fp, key_columns, what):
    expected = [f"schema={SCHEMA_VERSION}", *key_columns, *FEATURE_NAMES]

    def header_error(header):
        if header is None:
            return DataError(f"empty {what} file")
        if header and header[0].startswith("schema=") and header[0] != expected[0]:
            return SchemaMismatchError(
                f"{what} schema {header[0]!r} does not match {expected[0]!r}")
        return DataError(f"{what} header does not match the v1 feature schema")

    n_keys = len(key_columns)
    keys, blocks, cells = [], [], []
    for _, row in _reference_rows(fp, what, expected, len(expected) - 1, header_error):
        keys.append(row[:n_keys])
        cells.append(row[n_keys:])
        if len(cells) == _BLOCK_ROWS:
            blocks.append(_reference_convert_block(cells, len(blocks) * _BLOCK_ROWS + 2, what))
            cells = []
    blocks.append(_reference_convert_block(cells, len(blocks) * _BLOCK_ROWS + 2, what))
    return keys, np.concatenate(blocks)


def reference_read_csv(fp):
    keys, X = reference_read_table(fp, ("id", "label"), "dataset")
    for row_no, (_, label) in enumerate(keys, start=2):
        if label not in LABEL_OF:
            raise DataError(f"dataset row {row_no}: label must be P or nP, got {label!r}")
    y = np.fromiter((label == LABEL_PONZI for _, label in keys), dtype=np.int8, count=len(keys))
    return Dataset(tuple(id_ for id_, _ in keys), y, X)


def reference_read_features_csv(fp):
    keys, X = reference_read_table(fp, ("cluster_id",), "feature table")
    out = {}
    for row_no, ((cell,), row) in enumerate(zip(keys, X.tolist()), start=2):
        try:
            ci = int(cell)
        except ValueError as exc:
            raise DataError(f"feature table row {row_no}: {exc}") from exc
        if ci in out:
            raise DataError(f"feature table row {row_no}: duplicate cluster id {ci}")
        out[ci] = FeatureVector(*[kind(v) for kind, v in zip(_FEATURE_TYPES, row)])
    return out


# --- helpers ----------------------------------------------------------------

def random_matrix(n, seed):
    """n rows of valid features: tie-heavy integer columns, a few zeros and
    -0.0 among the reals, and some 17-digit reals."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, len(FEATURE_NAMES))) * rng.choice([1.0, 1e3, 1e9], size=len(FEATURE_NAMES))
    X[:, _INT_COLUMNS] = np.floor(X[:, _INT_COLUMNS]) % rng.integers(1, 50)
    X[rng.random(X.shape) < 0.05] = 0.0
    X[(rng.random(X.shape) < 0.02) & ~_INT_COLUMNS] = -0.0
    return X


def lines_of(text):
    """`text` split after each "\n" only, as a file opened with newline="\n" is."""
    return io.StringIO(text).readlines()


def with_cell(line, index, cell):
    """`line` with its cell at `index` replaced by `cell`, its ending kept."""
    body = line.rstrip("\n")
    cells = body.split(",")
    cells[index] = cell
    return ",".join(cells) + line[len(body):]


def random_dataset(n, seed):
    rng = np.random.default_rng(seed)
    return Dataset(tuple(f"c{i}" for i in range(n)), rng.integers(0, 2, n), random_matrix(n, seed))


def random_feature_table(n, seed):
    return {3 * i + 1: FeatureVector(*[kind(v) for kind, v in zip(_FEATURE_TYPES, row)])
            for i, row in enumerate(random_matrix(n, seed).tolist())}


def outcome(read, text, newline):
    """What `read` gives for `text`: ("ok", value, repr) or ("error", type, message).

    newline "io" reads an io.StringIO; otherwise a text stream over the UTF-8
    bytes opened with that `newline`, as `open` would.
    """
    fp = (io.StringIO(text) if newline == "io" else
          io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline=newline))
    try:
        got = read(fp)
    except Exception as exc:  # any error: its type and text are compared
        return ("error", type(exc), str(exc))
    if isinstance(got, Dataset):  # -0.0 == 0.0, so compare the bits of X too
        return ("ok", got, got.X.tobytes())
    # 1 == 1.0, so compare the type of every key and cell too
    return ("ok", got, repr(got), [(type(ci), *map(type, fv)) for ci, fv in got.items()])


def assert_same_as_reference(kind, text, newline="io"):
    read, reference = {"dataset": (read_csv, reference_read_csv),
                       "features": (read_features_csv, reference_read_features_csv)}[kind]
    want = outcome(reference, text, newline)
    assert outcome(read, text, newline) == want
    return want


# --- property ---------------------------------------------------------------

# Cells that float() and np.loadtxt read alike or not, or that change the
# field count, quoting or line length; the last two are beyond the csv field limit.
_EDGE_CELLS = ["1_0", "١", " 1", "\xa01", "1\xa0", "\x1c1", "1\x1f", "nan", "-0", "1e999",
               str(2**53), str(2**53 + 1), "", "1,5", '"1"', "2.5", "-1",
               "9" * 200_000, "0." + "0" * 200_000 + "1"]
_QUOTED_IDS = ["a,b", 'say "hi"', "two\nlines", "cr\rid", "crlf\r\nid", ",", '"']


@st.composite
def mutated_tables(draw):
    """(kind, text): a written table with one edge cell (key or feature),
    line ending, blank line, BOM, NUL, truncation or quoted id at a drawn place."""
    kind = draw(st.sampled_from(["dataset", "features"]))
    n = draw(st.sampled_from([0, 1, 2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                              2 * _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7])
             | st.integers(0, 3 * _BLOCK_ROWS + 20))
    seed = draw(st.integers(0, 2**16))
    mutation = draw(st.sampled_from(["cell"] * 4 + ["ending", "blank", "bom", "nul", "truncate",
                                                    "quoted_id", "none"]))
    row = draw(st.integers(0, max(n - 1, 0)))  # 0-based data row
    buf = io.StringIO()
    if kind == "dataset":
        data = random_dataset(n, seed)
        if mutation == "quoted_id" and n:
            ids = list(data.ids)
            ids[row] = draw(st.sampled_from(_QUOTED_IDS))
            data = Dataset(ids, data.y, data.X)
        write_csv(data, buf)
    else:
        write_features_csv(random_feature_table(n, seed), buf)
    lines = lines_of(buf.getvalue())
    at = row + 1 if n else 0  # the line of `row`, or the header when there is none
    line = lines[at] if at < len(lines) else lines[-1]
    n_keys = 2 if kind == "dataset" else 1
    if mutation == "cell" and n:
        lines[at] = with_cell(line, draw(st.integers(0, n_keys + len(FEATURE_NAMES) - 1)),
                              draw(st.sampled_from(_EDGE_CELLS)))
    elif mutation == "ending":
        lines[at] = line[:-1] + draw(st.sampled_from(["\r\n", "\r"]))
    elif mutation == "blank":
        lines.insert(at + draw(st.integers(0, 1)), "\n")
    elif mutation == "bom":
        lines[at] = "\ufeff" + line
    elif mutation == "nul":
        cut = draw(st.integers(0, len(line)))
        lines[at] = line[:cut] + "\x00" + line[cut:]
    elif mutation == "truncate":
        lines[-1] = lines[-1][:draw(st.integers(0, len(lines[-1]) - 1))]
    elif mutation == "quoted_id" and kind == "features" and n:
        cells = line.split(",", 1)
        lines[at] = f'"{cells[0]}",{cells[1]}'
    return kind, "".join(lines)


@settings(max_examples=120, deadline=None)
@given(mutated_tables(), st.sampled_from(["io", "", None]))
def test_reader_matches_reference(table, newline):
    kind, text = table
    assert_same_as_reference(kind, text, newline)


# --- named cases ------------------------------------------------------------

def test_plain_file_reads_without_the_csv_path(monkeypatch):
    data = random_dataset(6030, 4)
    buf = io.StringIO()
    write_csv(data, buf)

    def csv_path(*args, **kwargs):
        raise AssertionError("a plain block went through the csv path")

    monkeypatch.setattr(ds_module, "csv_rows", csv_path)
    monkeypatch.setattr(ds_module, "_convert_block", csv_path)
    got = read_csv(io.StringIO(buf.getvalue()))
    assert got == data and got.X.tobytes() == data.X.tobytes()


@pytest.mark.parametrize("quoted", ['say "hi"', 'quoted, "id"\non two lines'],
                         ids=["quote", "comma_and_line_break"])
def test_quoted_id_in_a_late_block_then_a_bad_cell(quoted):
    data = random_dataset(1600, 9)
    ids = list(data.ids)
    ids[1500 - 2] = quoted  # file row 1500, in the third block
    buf = io.StringIO()
    write_csv(Dataset(ids, data.y, data.X), buf)
    text = buf.getvalue()
    kind, got, _ = assert_same_as_reference("dataset", text)
    assert kind == "ok" and got.ids[1500 - 2] == quoted
    lines = lines_of(text)
    for row in (1520, 1590):  # in the quoted id's block, and in the block after it
        bad = lines.copy()
        at = row - 1 + quoted.count("\n")  # the line of file row `row`
        bad[at] = with_cell(bad[at], 2, "x")
        want = assert_same_as_reference("dataset", "".join(bad))
        assert want[0] == "error" and want[2].startswith(f"dataset row {row}, column ")


@pytest.mark.parametrize("kind, mutate", [
    ("dataset", lambda line: line[:-1] + ",0\n"),
    ("features", lambda line: line[:-1] + ",0\n"),
    ("features", lambda line: line.replace(",", "", 1)),
    ("features", lambda line: with_cell(line, 4, "0." + "0" * 200_000 + "1")),
    ("dataset", lambda line: with_cell(line, 0, "c" * 200_000)),
], ids=["extra_cell", "extra_feature_table_cell", "missing_cell", "long_real", "long_id"])
def test_field_count_and_field_limit_in_a_plain_looking_block(kind, mutate):
    # Each line here has no quote and parses with np.loadtxt, so only the
    # field count and the line length send its block to the csv path.
    n = 2 * _BLOCK_ROWS
    buf = io.StringIO()
    if kind == "dataset":
        write_csv(random_dataset(n, 5), buf)
    else:
        write_features_csv(random_feature_table(n, 5), buf)
    lines = lines_of(buf.getvalue())
    lines[_BLOCK_ROWS + 100] = mutate(lines[_BLOCK_ROWS + 100])
    want = assert_same_as_reference(kind, "".join(lines))
    assert want[0] == "error" and f" row {_BLOCK_ROWS + 101}" in want[2]


def test_empty_lines_go_to_the_csv_path():
    # np.loadtxt skips an empty line, and warns when a block holds nothing
    # else (a warning fails this suite); csv.reader reads a row of no cells.
    buf = io.StringIO()
    write_csv(random_dataset(_BLOCK_ROWS + 3, 2), buf)
    lines = lines_of(buf.getvalue())
    for text in (lines[0] + "\n", lines[0] + "\n" * 3, "".join(lines[:_BLOCK_ROWS + 1]) + "\n"):
        want = assert_same_as_reference("dataset", text)
        assert want[0] == "error" and want[2].endswith(": expected 22 columns")


def test_crlf_file_reads_as_its_lf_copy():
    data = random_dataset(2 * _BLOCK_ROWS + 3, 11)
    buf = io.StringIO()
    write_csv(data, buf)
    text = buf.getvalue()
    crlf = text.replace("\n", "\r\n")
    for newline in ("io", "", None):
        assert outcome(read_csv, crlf, newline) == outcome(read_csv, text, "io")
    assert_same_as_reference("dataset", crlf)


def test_x1c_to_x1f_are_not_whitespace_to_the_reader():
    # np.loadtxt strips "\x1c"-"\x1f" around a number as whitespace, and
    # float() does not: a block holding one goes through the csv path.
    buf = io.StringIO()
    write_csv(random_dataset(3, 0), buf)
    lines = lines_of(buf.getvalue())
    for sep in "\x1c\x1d\x1e\x1f":
        assert np.loadtxt([f"{sep}1"], delimiter=",", comments=None, quotechar=None) == 1
        bad = [*lines[:2], with_cell(lines[2], 2, sep + "1"), *lines[3:]]
        want = assert_same_as_reference("dataset", "".join(bad))
        assert want[0] == "error" and want[2].startswith("dataset row 3, column n_addr: ")
