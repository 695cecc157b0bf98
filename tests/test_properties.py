"""Properties of the ingest path and of the data-file readers over generated inputs."""

import contextlib
import csv
import io
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ponzi_radar.chain import parse_tx_log, serialize_tx_log
from ponzi_radar.cli import main
from ponzi_radar.clustering import build_clusters
from ponzi_radar.dataset import write_csv
from ponzi_radar.errors import ParseError
from ponzi_radar.features import FEATURE_NAMES, INT_FEATURES, cluster_feature_table

from conftest import make_dataset, random_valid_log

# Every code point, lone surrogates included.
_ANY_TEXT = st.text(st.characters(blacklist_categories=()), max_size=40)
_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
                 | st.floats(allow_nan=True) | _ANY_TEXT)
_JSON = st.recursive(_JSON_SCALARS,
                     lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(_ANY_TEXT, inner, max_size=4),
                     max_leaves=12)
_HEX64 = st.text("0123456789abcdefABCDEF", min_size=64, max_size=64)


def _mostly(valid):
    """A valid value seven times in eight, else any JSON value."""
    return st.one_of(*[valid] * 7, _JSON)


def _record(txid, time, coinbase, inputs, outputs, drop, extra):
    if coinbase is None:  # the flag that matches the inputs
        coinbase = inputs == []
    record = {"txid": txid, "time": time, "coinbase": coinbase, "in": inputs, "out": outputs}
    record.pop(drop, None)
    return {**record, **extra}


# Records that are close to valid, so that every field check gets reached.
_NEAR_RECORDS = st.builds(
    _record,
    _mostly(_HEX64),
    _mostly(st.integers(-10, 10**12)),
    _mostly(st.none()),
    _mostly(st.lists(_mostly(st.fixed_dictionaries(
        {"tx": _mostly(_HEX64), "idx": _mostly(st.integers(-1, 3))})), max_size=3)),
    _mostly(st.lists(_mostly(st.fixed_dictionaries(
        {"addr": _mostly(_ANY_TEXT), "val": _mostly(st.integers(-1, 2**64))})), max_size=3)),
    st.sampled_from([None] * 10 + ["txid", "time", "coinbase", "in", "out"]),
    st.dictionaries(_ANY_TEXT, _JSON, max_size=1) | st.just({}) | st.just({}),
)


def _parses_or_raises_parse_error(lines):
    try:
        parse_tx_log(lines)
    except ParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.lists(st.binary(max_size=60), max_size=4))
def test_byte_lines_raise_only_parse_error(lines):
    _parses_or_raises_parse_error(lines)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ANY_TEXT, max_size=4))
def test_text_lines_raise_only_parse_error(lines):
    _parses_or_raises_parse_error(lines)


@settings(max_examples=150, deadline=None)
@given(st.lists(_NEAR_RECORDS, max_size=3), st.booleans())
def test_near_records_raise_only_parse_error(records, as_bytes):
    lines = [json.dumps(r) for r in records]
    _parses_or_raises_parse_error([line.encode() for line in lines] if as_bytes else lines)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 80))
def test_serialize_then_parse_is_identity(seed, n_tx):
    log = random_valid_log(random.Random(seed), n_tx)
    assert parse_tx_log(serialize_tx_log(log)) == log


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 80), st.integers(2, 30))
def test_features_finite_and_integer_columns_int(seed, n_tx, n_addrs):
    log = random_valid_log(random.Random(seed), n_tx, n_addrs=n_addrs)
    for fv in cluster_feature_table(log, build_clusters(log)):
        for name, value in zip(FEATURE_NAMES, fv.as_tuple()):
            if name in INT_FEATURES:
                assert type(value) is int, name
            else:
                assert type(value) is float and math.isfinite(value), name


@pytest.fixture(scope="module")
def valid_dataset(tmp_path_factory):
    """A valid dataset CSV's rows, and a model trained on it, in a fresh directory."""
    root = tmp_path_factory.mktemp("cells")
    with open(root / "dataset.csv", "w", encoding="utf-8", newline="") as fp:
        write_csv(make_dataset(6, 30, seed=3), fp)
    assert main(["train", str(root / "dataset.csv"), "--trees", "2",
                 "-o", str(root / "model.json")]) == 0
    with open(root / "dataset.csv", encoding="utf-8", newline="") as fp:
        return root, list(csv.reader(fp))


def _not_a_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


@st.composite
def _bad_cell(draw):
    """(feature index, a cell that the column must reject)."""
    j = draw(st.integers(0, len(FEATURE_NAMES) - 1))
    bad = [
        st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e999", "", " "]),
        st.floats(max_value=-1e-300).map(repr),
        st.integers(max_value=-1).map(str),
        # A CR or LF would break the row rather than the cell.
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
                max_size=8).filter(_not_a_float),
    ]
    if FEATURE_NAMES[j] in INT_FEATURES:
        bad += [st.integers(min_value=2**53 + 1, max_value=10**500).map(str),
                st.floats(0.001, 1e12).filter(lambda v: v != int(v)).map(repr)]
    return j, draw(st.one_of(bad))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 36), _bad_cell())
def test_one_bad_cell_fails_every_reading_stage(valid_dataset, row, bad):
    root, rows = valid_dataset
    j, cell = bad
    rows = [list(r) for r in rows]
    rows[row][2 + j] = cell
    target = root / "bad.csv"
    with open(target, "w", encoding="utf-8", newline="") as fp:
        csv.writer(fp, lineterminator="\n").writerows(rows)
    for argv in (["cv", str(target), "--trees", "2", "--k", "2"],
                 ["train", str(target), "--trees", "2"],
                 ["apply", str(target), "--model", str(root / "model.json")],
                 ["rank", str(target)]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main([*argv, "-o", str(root / "out")]) == 2, argv
        assert f"row {row + 1}, column {FEATURE_NAMES[j]}: " in err.getvalue(), argv
        assert "Traceback" not in err.getvalue()
        assert not (root / "out").exists()
