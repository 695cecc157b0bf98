import io
import logging
import math
import random

import pytest

from ponzi_radar.clustering import ClusterSet
from ponzi_radar.dataset import (
    Dataset,
    Instance,
    assemble,
    read_csv,
    read_features_csv,
    sample_background,
    write_csv,
    write_features_csv,
)
from ponzi_radar.errors import DataError, SchemaMismatchError

from conftest import make_features


def singleton_clusters(n):
    members = tuple((f"a{i:04d}",) for i in range(n))
    return ClusterSet(members, {addr: i for i, (addr,) in enumerate(members)})


class TestAssemble:
    def test_counts_and_ratio(self):
        feats = {i: make_features(sum_in=i) for i in range(12)}
        ds = assemble(feats, {0: "scheme_a", 5: "scheme_b"})
        assert ds.n_ponzi == 2
        assert ds.n_other == 10
        labels = {inst.id: inst.label for inst in ds.instances}
        assert labels["scheme_a"] == "P" and labels["c3"] == "nP"

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
        write_csv(Dataset("v1", ()), buf)
        text = buf.getvalue()
        assert text.startswith("schema=v1,id,label,n_addr,")
        assert text.count("\n") == 1

    def test_single_instance_round_trip(self):
        ds = Dataset("v1", (Instance("only", "P", make_features(
            sum_in=12345, gini_in=1 / 3, delay_avg=0.1)),))
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
            instances.append(Instance(f"i{i}", label, make_features(
                sum_in=rng.randint(0, 2**62),
                sum_out=rng.randint(0, 2**62),
                gini_in=rng.random(),
                in_share=rng.random(),
                avg_in=rng.random() * 10 ** rng.randint(0, 12),
                std_out=math.nextafter(rng.random(), 1.0),
                delay_avg=rng.random() * 1e6,
                lifetime_days=rng.randint(0, 4000),
            )))
        ds = Dataset("v1", tuple(instances))
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
        ds = Dataset("v1", (Instance("a", "P", make_features()),))
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
