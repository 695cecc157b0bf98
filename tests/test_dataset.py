import io
import logging
import math
import random
import tracemalloc

import numpy as np
import pytest

from ponzi_radar.clustering import ClusterSet
from ponzi_radar.dataset import (
    _BLOCK_ROWS,
    Dataset,
    assemble,
    read_csv,
    read_features_csv,
    sample_background,
    write_csv,
    write_features_csv,
)
from ponzi_radar.errors import DataError, SchemaMismatchError
from ponzi_radar.features import FEATURE_NAMES, INT_FEATURES, LedgerEvent, extract_features

from conftest import dataset_of, hand_ledger, make_features


def singleton_clusters(n):
    members = tuple((f"a{i:04d}",) for i in range(n))
    return ClusterSet(members, {addr: i for i, (addr,) in enumerate(members)})


class TestAssemble:
    def test_counts_and_ratio(self):
        feats = {i: make_features(sum_in=i) for i in range(12)}
        ds = assemble(feats, {0: "scheme_a", 5: "scheme_b"})
        assert ds.n_ponzi == 2
        assert ds.n_other == 10
        labels = dict(zip(ds.ids, ds.y.tolist()))
        assert labels["scheme_a"] == 1 and labels["c3"] == 0

    def test_all_np_warns(self, caplog):
        feats = {i: make_features() for i in range(4)}
        with caplog.at_level(logging.WARNING):
            ds = assemble(feats, {})
        assert ds.n_ponzi == 0
        assert any("no P instances" in rec.message for rec in caplog.records)

    def test_label_for_unknown_cluster(self):
        with pytest.raises(DataError, match="unknown cluster"):
            assemble({0: make_features()}, {3: "ghost"})

    def test_duplicate_id(self):
        feats = {0: make_features(), 1: make_features()}
        with pytest.raises(DataError, match="duplicate instance id"):
            assemble(feats, {0: "same", 1: "same"})

    def test_label_order_independent(self):
        feats = {i: make_features(count_in=i) for i in range(6)}
        a = assemble(feats, {1: "x", 4: "y"})
        b = assemble(feats, dict(reversed(list({1: "x", 4: "y"}.items()))))
        assert a == b


class TestCsv:
    def test_empty_dataset_header_only(self):
        buf = io.StringIO()
        write_csv(dataset_of([]), buf)
        text = buf.getvalue()
        assert text.startswith("schema=v1,id,label,n_addr,")
        assert text.count("\n") == 1

    def test_single_instance_round_trip(self):
        ds = dataset_of([("only", "P", make_features(
            sum_in=12345, gini_in=1 / 3, delay_avg=0.1))])
        buf = io.StringIO()
        write_csv(ds, buf)
        assert buf.getvalue().count("\n") == 2
        buf.seek(0)
        assert read_csv(buf) == ds

    def test_randomized_round_trip_byte_identical(self):
        rng = random.Random(19)
        instances = []
        for i in range(300):
            label = "P" if rng.random() < 0.1 else "nP"
            instances.append((f"i{i}", label, make_features(
                sum_in=rng.randint(0, 2**53),
                sum_out=rng.randint(0, 2**53),
                gini_in=rng.random(),
                in_share=rng.random(),
                avg_in=rng.random() * 10 ** rng.randint(0, 12),
                std_out=math.nextafter(rng.random(), 1.0),
                delay_avg=rng.random() * 1e6,
                lifetime_days=rng.randint(0, 4000),
            )))
        ds = dataset_of(instances)
        first = io.StringIO()
        write_csv(ds, first)
        first.seek(0)
        ds2 = read_csv(first)
        assert ds2 == ds
        second = io.StringIO()
        write_csv(ds2, second)
        assert second.getvalue() == first.getvalue()

    def test_schema_mismatch(self):
        with pytest.raises(SchemaMismatchError):
            read_csv(io.StringIO("schema=v9,id,label\nx,P\n"))

    def test_malformed_row_reports_index(self):
        ds = dataset_of([("a", "P", make_features())])
        buf = io.StringIO()
        write_csv(ds, buf)
        lines = buf.getvalue().splitlines()
        lines.append("short,row")
        with pytest.raises(DataError, match="row 3"):
            read_csv(io.StringIO("\n".join(lines) + "\n"))

    def test_features_csv_round_trip(self):
        table = {i: make_features(sum_in=i * 7, gini_out=i / 9) for i in range(9)}
        buf = io.StringIO()
        write_features_csv(table, buf)
        buf.seek(0)
        assert read_features_csv(buf) == table


def _csv_with_cell(column: str, cell: str) -> str:
    """A valid two-row dataset CSV whose second row has `cell` in `column`."""
    buf = io.StringIO()
    write_csv(dataset_of([("a", "P", make_features(sum_in=5)),
                          ("b", "nP", make_features(gini_in=0.5))]), buf)
    header, first, second = buf.getvalue().splitlines()
    cells = second.split(",")
    cells[2 + FEATURE_NAMES.index(column)] = cell
    return "\n".join([header, first, ",".join(cells)]) + "\n"


class TestCellChecks:
    @pytest.mark.parametrize("column, cell", [
        ("gini_in", "nan"),
        ("avg_in", "-inf"),
        ("avg_in", "inf"),
        ("std_in", "1e400"),
        ("sum_in", "9" * 400),
        ("sum_in", str(2**53 + 1)),
        ("sum_out", "1e16"),
        ("n_addr", "-3"),
        ("count_in", "1.5"),
        ("delay_avg", "abc"),
        ("delay_min", ""),
    ], ids=["nan", "minus_inf", "inf", "overflow", "400_digits", "above_2_53", "1e16",
            "negative", "fraction", "text", "empty"])
    def test_bad_cell_names_row_and_column(self, column, cell):
        kind = "an integer from 0 to 2**53" if column in INT_FEATURES else "a finite number >= 0"
        with pytest.raises(DataError) as err:
            read_csv(io.StringIO(_csv_with_cell(column, cell)))
        assert str(err.value) == f"dataset row 3, column {column}: {cell[:40]!r} is not {kind}"

    def test_cell_beyond_csv_field_limit(self):
        with pytest.raises(DataError, match="dataset row 3: field larger than field limit"):
            read_csv(io.StringIO(_csv_with_cell("sum_in", "1" * 200_000)))

    def test_feature_table_cells_checked_too(self):
        buf = io.StringIO()
        write_features_csv({0: make_features(), 1: make_features()}, buf)
        text = buf.getvalue().replace("\n1,0,", "\n1,-1,")
        with pytest.raises(DataError, match="feature table row 3, column n_addr: '-1' is not"):
            read_features_csv(io.StringIO(text))

    def test_first_bad_cell_in_file_order_is_named(self):
        text = _csv_with_cell("gini_out", "nan").replace("\na,P,0,", "\na,P,-1,")
        with pytest.raises(DataError, match="row 2, column n_addr"):
            read_csv(io.StringIO(text))

    def test_integer_bound_is_exact(self):
        # 2**53 round-trips exactly; 2**53 + 1, which float64 would round to
        # 2**53, is rejected by the reader and by extract_features alike.
        text = _csv_with_cell("sum_in", str(2**53))
        ds = read_csv(io.StringIO(text))
        assert ds.X[1, FEATURE_NAMES.index("sum_in")] == 2**53
        out = io.StringIO()
        write_csv(ds, out)
        assert out.getvalue() == text
        with pytest.raises(DataError, match="column sum_in: '9007199254740993' is not an integer"):
            read_csv(io.StringIO(_csv_with_cell("sum_in", str(2**53 + 1))))

        def ledger(*amounts):
            return hand_ledger(tuple(LedgerEvent(1000 + i, f"t{i}", a, frozenset({"x"}))
                                     for i, a in enumerate(amounts)), ())
        assert extract_features(ledger(2**52, 2**52), 1).sum_in == 2**53
        with pytest.raises(DataError, match="feature sum_in is above 2\\*\\*53"):
            extract_features(ledger(2**52, 2**52 + 1), 1)


def test_first_bad_cell_across_blocks_is_named():
    # Rows are converted a block at a time: a bad cell in a later block
    # must not hide one in an earlier block, and row numbers run on.
    n = 3 * _BLOCK_ROWS
    ds = dataset_of([(f"r{i}", "nP", make_features(n_addr=i)) for i in range(n)])
    buf = io.StringIO()
    write_csv(ds, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    for row in (2 * _BLOCK_ROWS + 5, _BLOCK_ROWS + 2):  # file rows; the header is row 1
        lines[row - 1] = lines[row - 1].replace(",nP,", ",nP,x", 1)
        with pytest.raises(DataError) as err:
            read_csv(io.StringIO("".join(lines)))
        assert str(err.value).startswith(f"dataset row {row}, column n_addr: 'x")
    assert len(read_csv(io.StringIO(buf.getvalue()))) == n


def test_read_peak_memory_is_bounded(tmp_path):
    # The reader holds one block of rows as strings at a time. On this file
    # (6 030 rows, 1.2 MB, an X of 0.96 MB) its peak was 3.5 MB; a reader
    # that held every cell as a string at once peaked at 11.7 MB.
    rng = np.random.default_rng(4)
    X = rng.random((6030, len(FEATURE_NAMES))) * 1000
    ints = [name in INT_FEATURES for name in FEATURE_NAMES]
    X[:, ints] = np.floor(X[:, ints])
    ds = Dataset(tuple(f"c{i}" for i in range(len(X))), rng.integers(0, 2, len(X)), X)
    path = tmp_path / "dataset.csv"
    with open(path, "w", encoding="utf-8", newline="") as fp:
        write_csv(ds, fp)
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8") as fp:
            got = read_csv(fp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == ds
    assert peak < 4.5e6


class TestDatasetChecks:
    @pytest.mark.parametrize("ids, y, X", [
        (("a", "b"), [1], np.zeros((2, 20))),
        (("a",), [1], np.zeros((2, 20))),
        (("a",), [1], np.zeros((1, 19))),
        (("a",), [2], np.zeros((1, 20))),
        (("a",), [-1], np.zeros((1, 20))),
        (("a",), [1], np.full((1, 20), np.nan)),
        (("a",), [1], np.full((1, 20), np.inf)),
        (("a",), [1], np.full((1, 20), -1.0)),
    ], ids=["short_y", "long_X", "narrow_X", "label_2", "label_negative",
            "nan", "inf", "negative"])
    def test_constructor_rejects(self, ids, y, X):
        with pytest.raises(DataError):
            Dataset(ids, y, X)

    def test_dtypes_and_take(self):
        ds = Dataset(["a", "b", "c"], [1, 0, 1], np.arange(60).reshape(3, 20))
        assert ds.ids == ("a", "b", "c")
        assert ds.y.dtype == np.int8 and ds.X.dtype == np.float64
        assert (ds.n_ponzi, ds.n_other, len(ds)) == (2, 1, 3)
        sub = ds.take([2, 0])
        assert sub.ids == ("c", "a") and sub.y.tolist() == [1, 1]
        assert np.array_equal(sub.X, ds.X[[2, 0]])


class TestSampleBackground:
    def test_whole_population(self):
        cs = singleton_clusters(8)
        assert sample_background(cs, 8, seed=123) == list(range(8))

    def test_same_seed_identical(self):
        cs = singleton_clusters(50)
        assert sample_background(cs, 10, 7) == sample_background(cs, 10, 7)

    def test_excluded_never_selected(self):
        cs = singleton_clusters(30)
        excluded = {0, 5, 7}
        for seed in range(50):
            picked = sample_background(cs, 20, seed, exclude=excluded)
            assert not (set(picked) & excluded)

    def test_oversized_request(self):
        cs = singleton_clusters(5)
        with pytest.raises(DataError):
            sample_background(cs, 6, 0)
        with pytest.raises(DataError):
            sample_background(cs, 5, 0, exclude={1})

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            sample_background(singleton_clusters(5), -1, 0)

    def test_selection_frequency_is_uniform(self):
        # Binomial oracle: each cluster is chosen with probability n/N, so
        # over many seeds the hit count stays within 3 sigma.
        cs = singleton_clusters(10)
        n, trials = 3, 10_000
        hits = [0] * 10
        for seed in range(trials):
            for idx in sample_background(cs, n, seed):
                hits[idx] += 1
        p = n / 10
        sigma = math.sqrt(trials * p * (1 - p))
        for count in hits:
            assert abs(count - trials * p) <= 3 * sigma
