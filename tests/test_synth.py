import io
import statistics

import pytest

from ponzi_radar.chain import serialize_tx_log, validate_tx_log
from ponzi_radar.clustering import build_clusters
from ponzi_radar.errors import DataError
from ponzi_radar.features import build_all_ledgers, extract_features
from ponzi_radar.synth import SynthParams, generate, read_labels, write_labels

SMALL = SynthParams(n_ponzi=5, n_background=250, seed=42)


@pytest.fixture(scope="module")
def small_world():
    log, labels = generate(SMALL)
    return log, labels


def test_generated_log_validates(small_world):
    log, _ = small_world
    report = validate_tx_log(log)
    assert report.ok
    assert report.negative_fees == ()


# One cluster per user and per labelled scheme: each multi-address wallet's
# first spend co-spends one output per address. Not every world has this: a
# multi-address scheme with no payable funded deposit never merges.
@pytest.mark.parametrize("params", [SMALL, SynthParams(5, 250, 42, hard_mode=True)],
                         ids=["easy", "hard"])
def test_labels_cover_every_generated_cluster(params):
    log, labels = generate(params)
    clusters = build_clusters(log)
    assert clusters.n_clusters == params.n_ponzi + params.n_background
    label_clusters = {clusters.index_of[addr] for addr in labels}
    assert len(label_clusters) == clusters.n_clusters
    assert sum(1 for v in labels.values() if v == "P") == params.n_ponzi


def test_ponzi_clusters_look_like_schemes(small_world):
    log, labels = small_world
    clusters = build_clusters(log)
    ledgers = build_all_ledgers(log, clusters)
    in_shares = {"P": [], "nP": []}
    paid_back = []
    for addr, label in labels.items():
        idx = clusters.index_of[addr]
        fv = extract_features(ledgers[idx], len(clusters.members[idx]))
        in_shares[label].append(fv.in_share)
        if label == "P":
            paid_back.append(fv.paid_back_addrs)
    background_median = statistics.median(in_shares["nP"])
    assert all(share > background_median for share in in_shares["P"])
    assert all(count > 0 for count in paid_back)


def test_same_seed_byte_identical(small_world):
    log, _ = small_world
    again, _ = generate(SMALL)
    assert list(serialize_tx_log(log)) == list(serialize_tx_log(again))


def test_different_seed_differs(small_world):
    log, _ = small_world
    other, _ = generate(SynthParams(n_ponzi=5, n_background=250, seed=43))
    assert list(serialize_tx_log(log)) != list(serialize_tx_log(other))


def test_no_ponzi_mode():
    log, labels = generate(SynthParams(n_ponzi=0, n_background=40, seed=1))
    assert set(labels.values()) == {"nP"}
    assert validate_tx_log(log).ok


def test_hard_mode_still_validates(caplog):
    log, labels = generate(SynthParams(n_ponzi=3, n_background=120, seed=7,
                                       hard_mode=True))
    assert validate_tx_log(log).ok
    # One of the three schemes finds no depositor, so it never reaches the
    # log and is not labeled.
    ponzi = [addr for addr, label in labels.items() if label == "P"]
    assert len(ponzi) == 2
    assert set(ponzi) <= set(log.addresses)
    assert "1 of 3 schemes found no depositor" in caplog.text


def test_every_label_address_is_in_the_log(caplog):
    # Ten users fund only 2 of 50 schemes; the other 48 are left out of the
    # labels, with one warning for all of them.
    log, labels = generate(SynthParams(n_ponzi=50, n_background=10, seed=1))
    assert set(labels) <= set(log.addresses)
    assert sum(1 for v in labels.values() if v == "P") == 2
    assert [r.getMessage() for r in caplog.records] == [
        "48 of 50 schemes found no depositor and are left out of the labels"]


def test_schemes_require_depositors():
    with pytest.raises(DataError):
        SynthParams(n_ponzi=2, n_background=3)


def test_labels_csv_round_trip(small_world):
    _, labels = small_world
    buf = io.StringIO()
    write_labels(labels, buf)
    buf.seek(0)
    assert read_labels(buf) == labels


def test_labels_csv_quoting():
    labels = {"plain": "P", "with,comma": "nP", 'with"quote': "P"}
    buf = io.StringIO()
    write_labels(labels, buf)
    assert buf.getvalue().splitlines()[:2] == ["cluster_seed_address,label", "plain,P"]
    buf.seek(0)
    assert read_labels(buf) == labels
    text = 'cluster_seed_address,label\n"bg00001x0",P\n\nbg00002x0,nP\n'
    assert read_labels(io.StringIO(text)) == {"bg00001x0": "P", "bg00002x0": "nP"}


@pytest.mark.parametrize("rows, match", [
    ("x,P\nx,nP\n", "row 3: repeated address 'x'"),
    ("x,P\n,nP\n", "row 3: expected"),
    ("x,Q\n", "row 2: expected"),
    ("x,P,extra\n", "row 2: expected"),
])
def test_labels_csv_rejects_bad_rows(rows, match):
    with pytest.raises(DataError, match=match):
        read_labels(io.StringIO("cluster_seed_address,label\n" + rows))
