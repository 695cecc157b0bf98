"""Properties of the ingest path and of the data-file readers over generated inputs."""

import contextlib
import csv
import io
import json
import math
import os
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ponzi_radar.chain import load_tx_log, parse_tx_log, serialize_tx_log
from ponzi_radar.cli import main
from ponzi_radar.clustering import build_clusters, read_clusters
from ponzi_radar.dataset import read_csv, read_features_csv, write_csv, write_features_csv
from ponzi_radar.errors import ParseError
from ponzi_radar.features import (FEATURE_NAMES, INT_FEATURES, SECONDS_PER_DAY,
                                  cluster_feature_table)
from ponzi_radar.synth import SynthParams, generate, read_labels, write_labels

from conftest import canonical_lines, make_dataset, random_valid_log, tx_line, txid_of

# Every code point, lone surrogates included.
_ANY_TEXT = st.text(st.characters(blacklist_categories=()), max_size=40)
_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
                 | st.floats(allow_nan=True) | _ANY_TEXT)


def _draw_json(draw, depth, leaves):
    """(value, its scalar count): a scalar, or a list or dict of up to 4
    values nested at most `depth` deep, holding at most `leaves` scalars.

    st.recursive(_JSON_SCALARS, lists or dicts of up to 4, max_leaves=12)
    picks one of five strategies: a scalar, or a container whose items are
    drawn from the strategies before it, so at most 4 levels deep; a draw of
    more than 12 scalars is retried. Here a value's level is drawn the same
    way, and the scalar budget is spent as the value is drawn, so every value
    that st.recursive draws can be drawn and none runs over and is retried.
    A dict's keys are a drawn list with its repeats dropped: every key set
    is still drawn, and none is retried for a repeat, as unique=True would.
    """
    level = draw(st.integers(0 if leaves else 1, depth))
    if level == 0:
        return draw(_JSON_SCALARS), 1
    size = 4 if level > 1 else min(4, leaves)  # at level 1 the items are scalars
    keys = (range(draw(st.integers(0, size))) if draw(st.booleans()) else
            list(dict.fromkeys(draw(st.lists(_ANY_TEXT, max_size=size)))))
    items, used = [], 0
    for _ in keys:
        item, count = _draw_json(draw, level - 1, leaves - used)
        items.append(item)
        used += count
    return (items if isinstance(keys, range) else dict(zip(keys, items))), used


_JSON = st.composite(lambda draw: _draw_json(draw, 4, 12)[0])()


def _hex64(value, upper):
    """`value` as 64 hex digits, the letters where `upper` has a 1 bit in upper case."""
    return "".join(d.upper() if upper >> i & 1 else d for i, d in enumerate(f"{value:064x}"))


# Any 64-character text over "0-9a-fA-F", from one integer draw: the value
# in its high 256 bits and the upper-case letters in its low 64.
_HEX64 = st.integers(0, 2**320 - 1).map(lambda v: _hex64(v >> 64, v & (2**64 - 1)))


def _mostly(valid):
    """A valid value seven times in eight, else any JSON value.

    Not st.one_of(*[valid] * 7, _JSON): one_of drops the repeats and picks
    _JSON every other time.
    """
    return st.integers(0, 7).flatmap(lambda i: valid if i else _JSON)


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
    # The parser takes text; undecodable bytes become lone surrogates.
    _parses_or_raises_parse_error([line.decode("utf-8", "surrogateescape") for line in lines])


@settings(max_examples=200, deadline=None)
@given(st.lists(_ANY_TEXT, max_size=4))
def test_text_lines_raise_only_parse_error(lines):
    _parses_or_raises_parse_error(lines)


# Up to three records, the count drawn first. Hypothesis caps its first
# examples at five times the choices of the simplest completion of their
# prefix; with the count in the prefix, that completion holds every record
# to come, so a draw of three records is not held to the cap of one.
_NEAR_RECORD_LISTS = st.integers(0, 3).flatmap(
    lambda n: st.lists(_NEAR_RECORDS, min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(_NEAR_RECORD_LISTS)
def test_near_records_raise_only_parse_error(records):
    _parses_or_raises_parse_error([json.dumps(r) for r in records])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 80))
def test_serialize_then_parse_is_identity(seed, n_tx):
    log = random_valid_log(random.Random(seed), n_tx)
    assert canonical_lines(parse_tx_log(serialize_tx_log(log))) == canonical_lines(log)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 80), st.integers(2, 30))
def test_features_finite_and_integer_columns_int(seed, n_tx, n_addrs):
    """Integer columns hold ints and the others finite floats, in computed rows
    and in rows read back from a feature table."""
    log = random_valid_log(random.Random(seed), n_tx, n_addrs=n_addrs)
    table = cluster_feature_table(log, build_clusters(log))
    buf = io.StringIO()
    write_features_csv(table, buf)
    read_back = read_features_csv(io.StringIO(buf.getvalue()))
    assert read_back == table
    for fv in [*table.values(), *read_back.values()]:
        for name, value in zip(FEATURE_NAMES, fv):
            if name in INT_FEATURES:
                assert type(value) is int, name
            else:
                assert type(value) is float and math.isfinite(value), name


# Tiny synthetic worlds: up to two schemes, 10 to 40 users, either mode.
_TINY_WORLDS = st.builds(SynthParams, st.integers(0, 2), st.integers(10, 40),
                         st.integers(0, 2**32), st.booleans())


def _reparsed(log, edit):
    """The log parsed again from its serialized lines, each record through `edit`."""
    return parse_tx_log(json.dumps(edit(json.loads(line))) for line in serialize_tx_log(log))


def _features(log, clusters):
    return np.array(list(cluster_feature_table(log, clusters).values()), dtype=np.float64).tobytes()


@settings(max_examples=40, deadline=None)
@given(_TINY_WORLDS)
def test_whole_day_time_shift_keeps_clusters_and_features(params):
    """Clusters never read times, and FEATURES.md counts days between UTC
    dates and delays between times, so moving every time by 37 whole days
    leaves the clusters and the feature table as they were."""
    log, _ = generate(params)
    shifted = _reparsed(log, lambda record: {**record,
                                             "time": record["time"] + 37 * SECONDS_PER_DAY})
    clusters = build_clusters(shifted)
    assert clusters == build_clusters(log)
    assert _features(shifted, clusters) == _features(log, clusters)


_LINEAR = ("sum_in", "sum_out", "avg_in", "avg_out", "max_daily_balance_delta")


@settings(max_examples=40, deadline=None)
@given(_TINY_WORLDS)
def test_doubled_values_double_the_money_columns_only(params):
    """FEATURES.md's sums, means and largest daily balance change are linear
    in the values, the Gini coefficients and the other columns do not scale
    with them, and doubling a float is exact. So doubling every output value
    doubles those five columns exactly and leaves the others bit-identical.
    The std columns are left out: tests/test_features.py's
    test_doubled_amounts_double_the_std_exactly says why."""
    log, _ = generate(params)
    doubled = _reparsed(log, lambda record: {
        **record, "out": [{**out, "val": 2 * out["val"]} for out in record["out"]]})
    clusters = build_clusters(doubled)
    assert clusters == build_clusters(log)
    got, want = (np.array(list(cluster_feature_table(world, clusters).values()),
                          dtype=np.float64).T for world in (doubled, log))
    for name, column_got, column_want in zip(FEATURE_NAMES, got, want):
        if name in _LINEAR:
            assert column_got.tobytes() == (2 * column_want).tobytes(), name
        elif not name.startswith("std_"):
            assert column_got.tobytes() == column_want.tobytes(), name


@settings(max_examples=40, deadline=None)
@given(_TINY_WORLDS, st.integers(0, 2**32))
def test_order_preserving_renaming_keeps_clusters_and_features(params, seed):
    """Clusters are numbered by their smallest member name and features
    compare addresses only for equality, so renaming every address to fresh
    names of one length, in the same order, renames the clusters and leaves
    the feature table as it was."""
    log, _ = generate(params)
    names = sorted(log.addresses)
    codes = sorted(random.Random(seed).sample(range(10**12), len(names)))
    new = {name: f"r{code:012d}" for name, code in zip(names, codes)}
    renamed = _reparsed(log, lambda record: {**record, "out": [
        {**out, "addr": new[out["addr"]]} for out in record["out"]]})
    base, clusters = build_clusters(log), build_clusters(renamed)
    assert clusters.members == tuple(tuple(map(new.get, group)) for group in base.members)
    assert clusters.index_of == {new[name]: ci for name, ci in base.index_of.items()}
    assert _features(renamed, clusters) == _features(log, base)


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


# Address pieces that a CSV file must quote or keep as they are: separators,
# quotes, every line break, non-ASCII text and spaces. None of them is "c",
# a digit or "+", so no address equals an nP row's id "c<n>" or holds the
# "+" that joins the P seeds of one cluster.
_CSV_PIECES = [",", '"', "\r", "\n", "\r\n", " ", "é", "€", "𝔘", "a", "b"]
_CSV_TEXT = st.lists(st.sampled_from(_CSV_PIECES), min_size=1, max_size=5).map("".join)


@st.composite
def _odd_cell_worlds(draw):
    """Log lines whose addresses are odd CSV cells, some of them merged by
    two-input payments, and labels for them (the first is P) and for an
    address outside the log."""
    addrs = draw(st.lists(_CSV_TEXT, min_size=2, max_size=6, unique=True))
    base = txid_of("base")
    lines = [tx_line(base, 1, coinbase=True,
                     outputs=[(a, 1000 + i) for i, a in enumerate(addrs)])]
    order = draw(st.permutations(range(len(addrs))))
    for k in range(draw(st.integers(0, len(addrs) // 2))):
        i, j = order[2 * k], order[2 * k + 1]
        lines.append(tx_line(txid_of(k), 2 + k, inputs=[(base, i), (base, j)],
                             outputs=[(addrs[i], 1500)]))
    kinds = st.sampled_from(["P", "nP"])
    labels = {addr: draw(kinds) for addr in [*addrs, draw(_CSV_TEXT)]}
    labels[addrs[0]] = "P"
    return lines, addrs, labels


@settings(max_examples=40, deadline=None)
@given(_odd_cell_worlds())
def test_odd_cells_round_trip_through_the_cli(world):
    lines, addrs, labels = world
    with tempfile.TemporaryDirectory() as tmp:
        path = {name: str(Path(tmp, name)) for name in (
            "log.jsonl", "labels.csv", "clusters.csv", "features.csv", "direct.csv",
            "staged.csv", "model.json", "predictions.csv")}
        Path(path["log.jsonl"]).write_text("\n".join(lines) + "\n", encoding="utf-8")
        with open(path["labels.csv"], "w", encoding="utf-8", newline="") as fp:
            write_labels(labels, fp)
        with open(path["labels.csv"], encoding="utf-8", newline="") as fp:
            assert read_labels(fp) == labels
        for argv in (["cluster", "log.jsonl", "-o", "clusters.csv"],
                     ["features", "log.jsonl", "-o", "features.csv"],
                     ["dataset", "--log", "log.jsonl", "--labels", "labels.csv",
                      "-o", "direct.csv"],
                     ["dataset", "--features", "features.csv", "--clusters", "clusters.csv",
                      "--labels", "labels.csv", "-o", "staged.csv"],
                     ["train", "direct.csv", "--trees", "2", "-o", "model.json"],
                     ["apply", "direct.csv", "--model", "model.json",
                      "-o", "predictions.csv"]):
            assert main([path.get(arg, arg) for arg in argv]) == 0, argv
        staged = Path(path["staged.csv"]).read_bytes()
        assert staged == Path(path["direct.csv"]).read_bytes()

        with open(path["clusters.csv"], encoding="utf-8", newline="") as fp:
            assert read_clusters(fp) == build_clusters(load_tx_log(path["log.jsonl"]))
        with open(path["direct.csv"], encoding="utf-8", newline="") as fp:
            data = read_csv(fp)
        seeds = {seed for id_, y in zip(data.ids, data.y) if y for seed in id_.split("+")}
        assert seeds == {addr for addr in addrs if labels[addr] == "P"}
        with open(path["predictions.csv"], encoding="utf-8", newline="") as fp:
            rows = list(csv.reader(fp))
        assert [row[0] for row in rows[1:]] == list(data.ids)


# Every subcommand that reads a file, on the files of a tiny world: each
# argument that names one of them is an input the property may mutate.
_WORLD_FILES = ("log.jsonl", "labels.csv", "seeds.csv", "clusters.csv", "features.csv",
                "dataset.csv", "model.json")
_CLI_RUNS = [
    ["validate", "log.jsonl"],
    ["cluster", "log.jsonl", "--seeds", "seeds.csv"],
    ["features", "log.jsonl"],
    ["dataset", "--log", "log.jsonl", "--labels", "labels.csv"],
    ["dataset", "--features", "features.csv", "--clusters", "clusters.csv",
     "--labels", "labels.csv"],
    ["train", "dataset.csv", "--trees", "2"],
    ["cv", "dataset.csv", "--trees", "2", "--k", "2"],
    ["apply", "dataset.csv", "--model", "model.json"],
    ["rank", "dataset.csv", "--relieff-k", "2"],
]
_INSERTS = [b"\xef\xbb\xbf", b"\r", b"\r\n", b"\x00", b"nan", b"inf", b"1e999", b"-", b'"']


def _in_dir(argv: list[str], root, out=None) -> list[str]:
    """`argv` with its world files in `root`, and `-o out` when `out` is given."""
    return [*(str(Path(root, a)) if a in _WORLD_FILES else a for a in argv),
            *([] if out is None else ["-o", str(out)])]


@pytest.fixture(scope="module")
def tiny_world(tmp_path_factory):
    """The bytes of every world file of a tiny synthetic world, by name."""
    root = tmp_path_factory.mktemp("fuzz")
    for argv, out in ((["synth", "--ponzi", "3", "--background", "12", "--seed", "4",
                        "--labels", str(root / "labels.csv")], "log.jsonl"),
                      (["cluster", "log.jsonl"], "clusters.csv"),
                      (["features", "log.jsonl"], "features.csv"),
                      (["dataset", "--log", "log.jsonl", "--labels", "labels.csv"], "dataset.csv"),
                      (["train", "dataset.csv", "--trees", "2"], "model.json")):
        assert main(_in_dir(argv, root, root / out)) == 0, argv
    with open(root / "labels.csv", encoding="utf-8", newline="") as fp:
        labels = read_labels(fp)
    with open(root / "seeds.csv", "w", encoding="utf-8", newline="") as fp:
        csv.writer(fp, lineterminator="\n").writerows(
            [("label", "address"), *((label, addr) for addr, label in labels.items())])
    for argv in _CLI_RUNS:  # every run succeeds on the files as they are
        out = None if argv[0] == "validate" else root / "out"
        assert main(_in_dir(argv, root, out)) == 0, argv
    return {name: (root / name).read_bytes() for name in _WORLD_FILES}


@st.composite
def _mutation(draw, data: bytes) -> bytes:
    """`data` truncated, with a byte flipped, a line repeated, or a piece
    inserted: a BOM, CR, CRLF, NUL, nan, inf, 1e999, a minus, a quote, or a
    number of 20 to 5 000 digits."""
    kind = draw(st.sampled_from(["truncate", "flip", "repeat", "insert", "digits"]))
    at = draw(st.integers(0, len(data) - 1 if kind == "flip" else len(data)))
    if kind == "truncate":
        return data[:at]
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    if kind == "repeat":
        lines = data.splitlines(keepends=True)
        i = draw(st.integers(0, len(lines) - 1))
        return b"".join([*lines[:i + 1], *lines[i:]])
    if kind == "insert":
        piece = draw(st.sampled_from(_INSERTS))
    else:
        piece = str(draw(st.integers(1, 9))).encode() * draw(st.integers(20, 5000))
    return data[:at] + piece + data[at:]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_inputs_exit_0_or_2_with_one_error_line(tiny_world, data):
    # validate has no -o, and exits 2 without an error line on a log that
    # parses but is invalid, as documented.
    argv = data.draw(st.sampled_from(_CLI_RUNS), label="argv")
    target = data.draw(st.sampled_from([a for a in argv if a in _WORLD_FILES]), label="target")
    mutated = data.draw(_mutation(tiny_world[target]), label="mutated")
    with tempfile.TemporaryDirectory() as tmp:
        for name in argv:
            if name in _WORLD_FILES:
                Path(tmp, name).write_bytes(mutated if name == target else tiny_world[name])
        out = None if argv[0] == "validate" else Path(tmp, "out")
        before = sorted(os.listdir(tmp))
        err, stdout = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout):
            code = main(_in_dir(argv, tmp, out))
        assert code in (0, 2)
        errors = [line for line in err.getvalue().splitlines()
                  if line.startswith("ponzi-radar: error:")]
        if code == 0 or "ok: false" in stdout.getvalue():
            assert errors == []
            assert out is None or out.is_file()
        else:
            assert len(errors) == 1, err.getvalue()
            assert sorted(os.listdir(tmp)) == before
