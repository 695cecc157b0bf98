import math
import random

import pytest
from hypothesis import given, strategies as st

from ponzi_radar.clustering import build_clusters
from ponzi_radar.features import (
    ClusterLedger,
    LedgerEvent,
    build_all_ledgers,
    extract_features,
    gini,
    paid_back_count,
)

from conftest import BTC, parse_lines, random_valid_log, tx_line, txid_of


def gini_pairwise(values):
    """O(n^2) oracle: full double sum over ordered pairs."""
    n = len(values)
    total = sum(values)
    if n == 0 or total == 0:
        return 0.0
    double_sum = sum(abs(a - b) for a in values for b in values)
    return double_sum / (2 * n * total)


class TestGini:
    def test_perfect_equality(self):
        assert gini([5, 5, 5, 5]) == 0.0

    def test_small_vectors_match_pairwise_oracle(self):
        # [1,2,3,4]: double sum is 20, denominator 2*4*10 -> 0.25
        assert gini([1, 2, 3, 4]) == pytest.approx(gini_pairwise([1, 2, 3, 4]), abs=1e-12)
        assert gini([1, 2, 3, 4]) == pytest.approx(0.25, abs=1e-12)
        # [0,0,0,1]: approaches 1 with n; here exactly 1 - 1/4
        assert gini([0, 0, 0, 1]) == pytest.approx(0.75, abs=1e-12)

    def test_random_vectors_match_pairwise_oracle(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 60)
            xs = [rng.random() * 10 ** rng.randint(0, 6) for _ in range(n)]
            assert gini(xs) == pytest.approx(gini_pairwise(xs), abs=1e-9)

    def test_empty_is_sentinel_zero(self):
        assert gini([]) == 0.0

    def test_all_zero(self):
        assert gini([0, 0, 0]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini([1, -2])

    @given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=50),
           st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, xs, k):
        assert gini([k * x for x in xs]) == pytest.approx(gini(xs), abs=1e-9)

    @given(st.lists(st.integers(min_value=0, max_value=10**12), min_size=1, max_size=40))
    def test_permutation_invariance_and_bounds(self, xs):
        shuffled = xs[:]
        random.Random(0).shuffle(shuffled)
        g = gini(xs)
        assert g == pytest.approx(gini(shuffled), abs=1e-12)
        assert 0.0 <= g <= 1.0 - 1.0 / len(xs) + 1e-12


def _ev(ts, tag, amount, counterparts=()):
    return LedgerEvent(ts, txid_of(tag), amount, frozenset(counterparts))


def single_cluster_ledger(log, clusters, idx) -> ClusterLedger:
    """The ledger of one cluster, from that cluster's view of each transaction."""
    members = set(clusters.members[idx])
    incoming, outgoing = [], []
    for tx in log.transactions:
        inputs = [i for i in tx.inputs if i.addr is not None]
        own_in = [i for i in inputs if i.addr in members]
        own_out = [o for o in tx.outputs if o.addr in members]
        if (own_in and own_out and len(own_in) == len(inputs)
                and len(own_out) == len(tx.outputs)):
            continue  # fully internal
        if own_out:
            incoming.append(LedgerEvent(
                tx.timestamp, tx.txid, sum(o.value for o in own_out),
                frozenset(i.addr for i in inputs if i.addr not in members)))
        if own_in:
            outgoing.append(LedgerEvent(
                tx.timestamp, tx.txid, sum(i.value for i in own_in),
                frozenset(o.addr for o in tx.outputs if o.addr not in members)))
    return ClusterLedger(tuple(incoming), tuple(outgoing))


class TestLedger:
    def test_join_wallet_ledger(self, fan_out_then_join):
        # addr_b and addr_b2 form one wallet; it receives from the coinbase
        # and the change-maker, then spends 2.9 BTC in the join.
        log, (t0, t1, t2) = fan_out_then_join
        clusters = build_clusters(log)
        idx = clusters.index_of["addr_b"]
        ledger = build_all_ledgers(log, clusters)[idx]
        assert [(e.txid, e.amount) for e in ledger.incoming] == [
            (t0, 2 * BTC), (t1, 90_000_000)]
        assert [(e.txid, e.amount) for e in ledger.outgoing] == [(t2, 290_000_000)]
        assert ledger.outgoing[0].counterparts == frozenset({"addr_c"})

    def test_internal_shuffle_contributes_nothing(self):
        t0, t1 = txid_of("f"), txid_of("shuffle")
        log = parse_lines([
            tx_line(t0, 10, coinbase=True, outputs=[("u1", 50), ("u2", 50)]),
            tx_line(t1, 20, inputs=[(t0, 0), (t0, 1)],
                    outputs=[("u1", 60), ("u2", 40)]),
        ])
        clusters = build_clusters(log)
        idx = clusters.index_of["u1"]
        ledger = build_all_ledgers(log, clusters)[idx]
        # Only the funding coinbase shows up; the self-payment is internal.
        assert len(ledger.incoming) == 1
        assert ledger.incoming[0].txid == t0
        assert ledger.outgoing == ()

    def test_ledger_of_every_cluster_matches_single_builds(self):
        rng = random.Random(17)
        log = random_valid_log(rng, 150, n_addrs=14)
        clusters = build_clusters(log)
        all_ledgers = build_all_ledgers(log, clusters)
        for idx in range(clusters.n_clusters):
            assert all_ledgers[idx] == single_cluster_ledger(log, clusters, idx)

    def test_partial_overlap_gives_both_directions(self):
        t0, t1 = txid_of("fund2"), txid_of("spendchange")
        log = parse_lines([
            tx_line(t0, 10, coinbase=True, outputs=[("w", 100)]),
            tx_line(t1, 20, inputs=[(t0, 0)], outputs=[("other", 60), ("w", 40)]),
        ])
        clusters = build_clusters(log)
        idx = clusters.index_of["w"]
        ledger = build_all_ledgers(log, clusters)[idx]
        assert [e.txid for e in ledger.incoming] == [t0, t1]  # change comes back
        assert [e.txid for e in ledger.outgoing] == [t1]
        assert ledger.outgoing[0].amount == 100


class TestPaidBack:
    def test_no_outgoing(self):
        ledger = ClusterLedger((_ev(1, "i", 10, {"a"}),), ())
        assert paid_back_count(ledger) == 0

    def test_payer_then_payee_counts_once(self):
        ledger = ClusterLedger(
            (_ev(1, "i", 10, {"a"}),),
            (_ev(2, "o1", 5, {"a"}), _ev(3, "o2", 5, {"b"})),
        )
        assert paid_back_count(ledger) == 1

    def test_wrong_temporal_order(self):
        ledger = ClusterLedger(
            (_ev(2, "i", 10, {"a"}),),
            (_ev(1, "o", 5, {"a"}),),
        )
        assert paid_back_count(ledger) == 0

    def test_same_timestamp_not_subsequent(self):
        ledger = ClusterLedger(
            (_ev(5, "i", 10, {"a"}),),
            (_ev(5, "o", 5, {"a"}),),
        )
        assert paid_back_count(ledger) == 0


DAY = 86_400


class TestExtract:
    def test_single_incoming_event(self):
        fv = extract_features(ClusterLedger((_ev(50, "i", 10, {"a"}),), ()), n_addr=1)
        assert fv.lifetime_days == 0
        assert fv.activity_days == 1
        assert fv.count_out == 0
        assert fv.in_share == 1.0
        assert fv.delay_min == fv.delay_max == 0 and fv.delay_avg == 0.0
        assert fv.gini_in == 0.0
        assert fv.sum_in == 10

    def test_delay_pairing(self):
        ledger = ClusterLedger(
            (_ev(0, "i", 10, {"a"}),),
            (_ev(3600, "o", 4, {"b"}),),
        )
        fv = extract_features(ledger, n_addr=1)
        assert fv.delay_min == fv.delay_max == 3600
        assert fv.delay_avg == 3600.0
        assert fv.sum_in == 10 and fv.sum_out == 4

    def test_outgoing_pairs_with_latest_at_or_before(self):
        ledger = ClusterLedger(
            (_ev(0, "i1", 10), _ev(100, "i2", 10)),
            (_ev(100, "o1", 5), _ev(150, "o2", 5)),
        )
        fv = extract_features(ledger, n_addr=1)
        assert fv.delay_min == 0  # o1 pairs with i2 at the same second
        assert fv.delay_max == 50

    def test_unpaired_outgoing_skipped(self):
        ledger = ClusterLedger(
            (_ev(100, "i", 10),),
            (_ev(50, "early", 3), _ev(160, "late", 3)),
        )
        fv = extract_features(ledger, n_addr=1)
        assert fv.delay_min == fv.delay_max == 60

    def test_daily_balance_delta(self):
        # Day 1 nets +100, day 2 nets -70: balances [100, 30], max delta 70.
        ledger = ClusterLedger(
            (_ev(10, "i1", 120),),
            (_ev(20, "o1", 20), _ev(DAY + 10, "o2", 70)),
        )
        fv = extract_features(ledger, n_addr=1)
        assert fv.max_daily_balance_delta == 70

    def test_balance_delta_spans_quiet_days(self):
        ledger = ClusterLedger(
            (_ev(10, "i1", 100), _ev(5 * DAY, "i2", 40)),
            (),
        )
        fv = extract_features(ledger, n_addr=1)
        assert fv.max_daily_balance_delta == 40
        assert fv.lifetime_days == 5
        assert fv.activity_days == 2

    def test_max_daily_tx_counts_distinct_transactions(self):
        shared = txid_of("both-ways")
        ledger = ClusterLedger(
            (LedgerEvent(10, shared, 10, frozenset()), _ev(20, "i2", 5)),
            (LedgerEvent(10, shared, 3, frozenset()),),
        )
        fv = extract_features(ledger, n_addr=1)
        assert fv.max_daily_tx == 2  # shared txid counted once
        assert fv.count_in + fv.count_out >= fv.max_daily_tx

    def test_empty_ledger_sentinels(self):
        fv = extract_features(ClusterLedger((), ()), n_addr=3)
        assert fv.n_addr == 3
        assert fv.lifetime_days == 0
        assert fv.activity_days == 0
        assert fv.in_share == 0.0
        assert fv.gini_in == 0.0 and fv.gini_out == 0.0

    def test_population_std(self):
        ledger = ClusterLedger(
            (_ev(0, "i1", 2), _ev(10, "i2", 4), _ev(20, "i3", 6)),
            (),
        )
        fv = extract_features(ledger, n_addr=1)
        assert fv.avg_in == pytest.approx(4.0)
        assert fv.std_in == pytest.approx(math.sqrt(8 / 3))

    def test_invariants_on_random_logs(self):
        rng = random.Random(31)
        for _ in range(15):
            log = random_valid_log(rng, rng.randint(1, 100), n_addrs=10)
            clusters = build_clusters(log)
            ledgers = build_all_ledgers(log, clusters)
            for idx, ledger in ledgers.items():
                fv = extract_features(ledger, len(clusters.members[idx]))
                assert fv.activity_days <= fv.lifetime_days + 1
                assert 0.0 <= fv.gini_in <= 1.0 and 0.0 <= fv.gini_out <= 1.0
                assert 0.0 <= fv.in_share <= 1.0
                assert fv.delay_min <= fv.delay_avg <= fv.delay_max or fv.delay_avg == 0
                assert fv.sum_in == sum(e.amount for e in ledger.incoming)
                assert fv.count_in + fv.count_out >= fv.max_daily_tx

    def test_deterministic_bit_identical(self):
        rng = random.Random(41)
        log = random_valid_log(rng, 120, n_addrs=10)
        clusters = build_clusters(log)

        def full_pass():
            return [
                extract_features(ledger, len(clusters.members[i]))
                for i, ledger in sorted(build_all_ledgers(log, clusters).items())
            ]

        assert full_pass() == full_pass()

    def test_singleton_cluster_equals_pointwise(self):
        # A one-address cluster must see exactly the address's own events.
        t0, t1, t2 = txid_of("x0"), txid_of("x1"), txid_of("x2")
        log = parse_lines([
            tx_line(t0, 10, coinbase=True, outputs=[("solo", 100), ("other", 50)]),
            tx_line(t1, 2 * DAY, inputs=[(t0, 1)], outputs=[("solo", 30)]),
            tx_line(t2, 3 * DAY, inputs=[(t0, 0)], outputs=[("other", 90)]),
        ])
        clusters = build_clusters(log)
        fv = extract_features(build_all_ledgers(log, clusters)[clusters.index_of["solo"]], 1)
        assert fv.count_in == 2 and fv.count_out == 1
        assert fv.sum_in == 130 and fv.sum_out == 100
        assert fv.paid_back_addrs == 1  # "other" funded solo, then got paid
        assert fv.lifetime_days == 3
