import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ponzi_radar.features import FEATURE_NAMES
from ponzi_radar.rank import (
    RANKER_NAMES,
    Ranking,
    _contingency,
    consensus_rank,
    discretize,
    entropy,
    gain_ratio,
    info_gain,
    one_r,
    rank_features,
    relieff,
    sym_uncertainty,
)

from conftest import dataset_of, make_dataset, make_features


def info_gain_oracle(x, y):
    """Probability-table oracle: H(Y) - sum_x p(x) H(Y | X=x)."""
    n = len(y)

    def h(counter):
        total = sum(counter.values())
        return -sum(c / total * math.log2(c / total) for c in counter.values() if c)

    h_y = h(Counter(y))
    cond = 0.0
    for xv, cnt in Counter(x).items():
        ys = Counter(yy for xx, yy in zip(x, y) if xx == xv)
        cond += cnt / n * h(ys)
    return h_y - cond


class TestDiscretize:
    def test_constant_column(self):
        labels = discretize([3.3] * 10, bins=5)
        assert set(labels.tolist()) == {0}

    def test_uniform_quantiles(self):
        labels = discretize(list(range(1, 101)), bins=10)
        counts = Counter(labels.tolist())
        assert sorted(counts.values()) == [10] * 10
        assert len(counts) == 10

    def test_heavily_tied_column_collapses_bins(self):
        column = [1.0] * 50 + [2.0] * 45 + [3.0] * 5
        labels = discretize(column, bins=10)
        counts = Counter(labels.tolist())
        assert len(counts) <= 10
        assert all(v > 0 for v in counts.values())
        # Ties never straddle a bin edge.
        by_value = {}
        for v, lbl in zip(column, labels.tolist()):
            by_value.setdefault(v, set()).add(lbl)
        assert all(len(s) == 1 for s in by_value.values())

    def test_binary_column_splits_even_when_minority_first(self):
        column = [0.0] * 32 + [1.0] * 6400
        assert len(set(discretize(column, bins=10).tolist())) == 2
        column = [0.0] * 6400 + [1.0] * 32
        assert len(set(discretize(column, bins=10).tolist())) == 2


def loop_contingency(x, y):
    """The previous contingency table: one masked count per (x, y) cell."""
    xs, ys = np.unique(x), np.unique(y)
    table = np.zeros((len(xs), len(ys)), dtype=np.int64)
    for i, xv in enumerate(xs):
        for j, yv in enumerate(ys):
            table[i, j] = int(np.sum((x == xv) & (y == yv)))
    return table


class TestEntropyRankers:
    def test_contingency_equals_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(0, 80))
            x = rng.integers(-3, int(rng.integers(1, 12)), size=n)
            if rng.random() < 0.5:
                x = x * 0.5
            y = rng.integers(0, int(rng.integers(1, 4)), size=n).astype(np.int8)
            table = _contingency(x, y)
            expected = loop_contingency(x, y)
            assert table.dtype == expected.dtype and np.array_equal(table, expected)

    def test_constant_feature_no_gain(self):
        x = [0] * 8
        y = [1, 1, 1, 1, 0, 0, 0, 0]
        assert info_gain(x, y) == 0.0
        assert gain_ratio(x, y) == 0.0
        assert sym_uncertainty(x, y) == 0.0

    def test_copy_feature_full_gain(self):
        y = [1, 0, 1, 0, 1, 1, 0, 0]
        assert info_gain(y, y) == pytest.approx(entropy(y), abs=1e-12)
        assert gain_ratio(y, y) == pytest.approx(1.0, abs=1e-12)
        assert sym_uncertainty(y, y) == pytest.approx(1.0, abs=1e-12)

    def test_three_quarter_split(self):
        # Balanced classes; each half of X is a 75/25 mixture.
        x = [0, 0, 0, 0, 1, 1, 1, 1]
        y = [1, 1, 1, 0, 0, 0, 0, 1]
        expected = 1.0 - (-(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25)))
        assert expected == pytest.approx(0.18872187554086717, abs=1e-12)
        assert info_gain(x, y) == pytest.approx(expected, abs=1e-12)
        assert gain_ratio(x, y) == pytest.approx(expected, abs=1e-12)  # H(X) = 1
        assert sym_uncertainty(x, y) == pytest.approx(expected, abs=1e-12)

    def test_matches_probability_oracle(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 12)
            x = [rng.randint(0, 3) for _ in range(n)]
            y = [rng.randint(0, 1) for _ in range(n)]
            assert info_gain(x, y) == pytest.approx(info_gain_oracle(x, y), abs=1e-12)

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 1)),
                    min_size=1, max_size=60))
    def test_bounds(self, pairs):
        x = [a for a, _ in pairs]
        y = [b for _, b in pairs]
        ig = info_gain(x, y)
        assert -1e-12 <= ig <= min(entropy(x), entropy(y)) + 1e-12
        assert 0.0 <= sym_uncertainty(x, y) <= 1.0 + 1e-12
        assert gain_ratio(x, y) <= 1.0 + 1e-12

    def test_row_permutation_invariance(self):
        rng = random.Random(9)
        x = [rng.randint(0, 3) for _ in range(40)]
        y = [rng.randint(0, 1) for _ in range(40)]
        perm = list(range(40))
        rng.shuffle(perm)
        xp = [x[i] for i in perm]
        yp = [y[i] for i in perm]
        assert info_gain(xp, yp) == pytest.approx(info_gain(x, y), abs=1e-12)
        assert one_r(xp, yp) == pytest.approx(one_r(x, y), abs=1e-12)


class TestOneR:
    def test_copy_feature(self):
        y = [1, 0, 1, 0, 1]
        assert one_r(y, y) == 1.0

    def test_constant_feature_majority_rule(self):
        y = [1] * 32 + [0] * 6400
        assert one_r([0] * 6432, y) == pytest.approx(6400 / 6432, abs=1e-12)

    def test_three_quarter_split(self):
        x = [0, 0, 0, 0, 1, 1, 1, 1]
        y = [1, 1, 1, 0, 0, 0, 0, 1]
        assert one_r(x, y) == 0.75

    def test_per_bin_tie_goes_to_p(self):
        x = [0, 0]
        y = [1, 0]
        assert one_r(x, y) == 0.5  # the tied bin predicts P, matching one row


class TestReliefF:
    def test_constant_feature_weight_zero(self):
        ds = make_dataset(5, 20, seed=1)
        weights = relieff(ds, k=3).weights
        # paid_back_addrs is identically 0 in make_dataset
        assert weights[FEATURE_NAMES.index("paid_back_addrs")] == 0.0

    def test_separating_feature_beats_noise(self):
        rng = random.Random(4)
        for seed in range(10):
            instances = []
            for i in range(12):
                instances.append((f"p{i}", "P", make_features(
                    sum_in=1000 + rng.randint(0, 10),
                    gini_in=rng.random())))
            for i in range(24):
                instances.append((f"n{i}", "nP", make_features(
                    sum_in=rng.randint(0, 10),
                    gini_in=rng.random())))
            ds = dataset_of(instances)
            weights = relieff(ds, k=5, seed=seed).weights
            assert (weights[FEATURE_NAMES.index("sum_in")]
                    > weights[FEATURE_NAMES.index("gini_in")])

    def test_duplicated_column_equal_weights(self):
        rng = random.Random(6)
        instances = []
        for i in range(30):
            v = rng.randint(0, 100)
            label = "P" if rng.random() < 0.4 else "nP"
            # sum_in and sum_out carry identical values
            instances.append((f"i{i}", label,
                                      make_features(sum_in=v, sum_out=v)))
        ds = dataset_of(instances)
        weights = relieff(ds, k=4).weights
        assert weights[FEATURE_NAMES.index("sum_in")] == pytest.approx(
            weights[FEATURE_NAMES.index("sum_out")], abs=1e-12)

    def test_subsample_deterministic_under_seed(self):
        ds = make_dataset(8, 40, seed=7, separable=False)
        a = relieff(ds, k=3, m=20, seed=5).weights
        b = relieff(ds, k=3, m=20, seed=5).weights
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("m", [0, -1])
    def test_m_below_one_rejected(self, m):
        with pytest.raises(ValueError, match="^m must be at least 1$"):
            relieff(make_dataset(3, 10, seed=2), k=3, m=m)

    def test_small_class_noted(self):
        ds = make_dataset(2, 30, seed=8)
        result = relieff(ds, k=10)
        assert any("fewer than" in note for note in result.notes)


class TestRankings:
    def test_ranking_sorted_with_schema_tiebreak(self):
        ds = make_dataset(6, 30, seed=9)
        for method in RANKER_NAMES:
            ranking = rank_features(ds, method, bins=5, relieff_k=3, seed=0)
            scores = [s for _, s in ranking.entries]
            assert scores == sorted(scores, reverse=True)
            names = {name for name, _ in ranking.entries}
            assert names == set(FEATURE_NAMES)

    def test_single_ranking_consensus_is_itself(self):
        ds = make_dataset(6, 30, seed=10)
        ranking = rank_features(ds, "info_gain", bins=5)
        consensus = consensus_rank([ranking], top_n=4)
        top = [name for name, votes, _ in consensus if votes == 1]
        assert top == [name for name, _ in ranking.entries[:4]]

    def test_count_dominance(self):
        entries_a = tuple((n, float(len(FEATURE_NAMES) - i))
                          for i, n in enumerate(FEATURE_NAMES))
        # Ranking B demotes the first feature below top_n.
        reordered = list(FEATURE_NAMES[1:9]) + [FEATURE_NAMES[0]] + list(FEATURE_NAMES[9:])
        entries_b = tuple((n, float(len(reordered) - i)) for i, n in enumerate(reordered))
        rankings = [Ranking("a", entries_a), Ranking("b", entries_b),
                    Ranking("c", entries_b)]
        consensus = consensus_rank(rankings, top_n=8)
        votes = {name: v for name, v, _ in consensus}
        assert votes[FEATURE_NAMES[1]] == 3
        assert votes[FEATURE_NAMES[0]] == 1
        order = [name for name, _, _ in consensus]
        assert order.index(FEATURE_NAMES[1]) < order.index(FEATURE_NAMES[0])

    def test_consensus_on_separating_feature_set(self):
        # Build clusters where the scheme-typical features carry the signal
        # and everything else is identical noise for both classes.
        rng = random.Random(11)
        signal = ("gini_out", "in_share", "avg_out", "std_out",
                  "paid_back_addrs", "lifetime_days", "activity_days")
        instances = []
        for i in range(25):
            kw = dict(gini_out=0.8 + rng.random() / 10, in_share=0.9,
                      avg_out=5000.0 + rng.random(), std_out=2000.0 + rng.random(),
                      paid_back_addrs=40 + rng.randint(0, 5),
                      lifetime_days=30 + rng.randint(0, 4),
                      activity_days=25 + rng.randint(0, 4),
                      sum_in=rng.randint(0, 5))
            instances.append((f"p{i}", "P", make_features(**kw)))
        for i in range(100):
            kw = dict(gini_out=rng.random() / 4, in_share=0.5,
                      avg_out=10.0 + rng.random(), std_out=1.0 + rng.random(),
                      paid_back_addrs=rng.randint(0, 2),
                      lifetime_days=rng.randint(100, 400),
                      activity_days=rng.randint(1, 8),
                      sum_in=rng.randint(0, 5))
            instances.append((f"n{i}", "nP", make_features(**kw)))
        ds = dataset_of(instances)
        rankings = [rank_features(ds, method, bins=10, relieff_k=5) for method in RANKER_NAMES]
        consensus = consensus_rank(rankings, top_n=8)
        top7 = {name for name, _, _ in consensus[:7]}
        assert set(signal) == top7
