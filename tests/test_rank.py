import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ponzi_radar import rank
from ponzi_radar.dataset import Dataset
from ponzi_radar.errors import DataError
from ponzi_radar.features import FEATURE_NAMES
from ponzi_radar.rank import (
    RANKER_NAMES,
    Ranking,
    _entropy_of_counts,
    _gain_ratio,
    _info_gain,
    _one_r,
    _sym_uncertainty,
    consensus_rank,
    discretize,
    rank_features,
    relieff,
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


def loop_discretize(values, bins):
    """The previous discretize: a stable argsort and one labelling pass per cut."""
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    boundaries = np.nonzero(sorted_v[:-1] != sorted_v[1:])[0] + 1
    if len(boundaries) == 0:
        return np.zeros(n, dtype=np.int64)
    desired = np.arange(1, bins) * n / bins
    chosen = sorted({int(boundaries[np.argmin(np.abs(boundaries - d))]) for d in desired})
    labels = np.zeros(n, dtype=np.int64)
    for b, cut in enumerate(chosen, start=1):
        labels[order[cut:]] = b
    return labels


@st.composite
def columns_and_bins(draw):
    bins = draw(st.integers(2, 50))
    n = draw(st.integers(0, bins - 1) | st.integers(0, 150))
    kind = draw(st.sampled_from(["constant", "tied integers", "signed zeros", "floats"]))
    if kind == "constant":
        column = [draw(st.floats(0, 1e12))] * n
    elif kind == "tied integers":
        top = draw(st.integers(1, 8))
        column = draw(arrays(np.int64, n, elements=st.integers(0, top)))
    elif kind == "signed zeros":
        column = draw(arrays(np.float64, n, elements=st.sampled_from([-0.0, 0.0, 1.0, 2.5])))
    else:
        column = draw(arrays(np.float64, n, elements=st.floats(0, 1e6)))
    return column, bins


@settings(max_examples=400, deadline=None)
@given(columns_and_bins())
def test_discretize_matches_loop(case):
    column, bins = case
    labels = discretize(column, bins)
    expected = loop_discretize(column, bins)
    assert labels.dtype == expected.dtype and np.array_equal(labels, expected)


def loop_contingency(x, y):
    """Counts of each (x value, y value) pair, both ascending, one masked count per cell.

    The tests below score these tables with the scorers that rank_features
    applies to its own (bin, class) tables.
    """
    x, y = np.asarray(x), np.asarray(y)
    xs, ys = np.unique(x), np.unique(y)
    table = np.zeros((len(xs), len(ys)), dtype=np.int64)
    for i, xv in enumerate(xs):
        for j, yv in enumerate(ys):
            table[i, j] = int(np.sum((x == xv) & (y == yv)))
    return table


class TestEntropyRankers:
    def test_constant_feature_no_gain(self):
        table = loop_contingency([0] * 8, [1, 1, 1, 1, 0, 0, 0, 0])
        assert _info_gain(table) == 0.0
        assert _gain_ratio(table) == 0.0
        assert _sym_uncertainty(table) == 0.0

    def test_copy_feature_full_gain(self):
        y = [1, 0, 1, 0, 1, 1, 0, 0]
        table = loop_contingency(y, y)
        h_y = _entropy_of_counts(table.sum(axis=0))
        assert _info_gain(table) == pytest.approx(h_y, abs=1e-12)
        assert _gain_ratio(table) == pytest.approx(1.0, abs=1e-12)
        assert _sym_uncertainty(table) == pytest.approx(1.0, abs=1e-12)

    def test_three_quarter_split(self):
        # Balanced classes; each half of X is a 75/25 mixture.
        x = [0, 0, 0, 0, 1, 1, 1, 1]
        y = [1, 1, 1, 0, 0, 0, 0, 1]
        expected = 1.0 - (-(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25)))
        assert expected == pytest.approx(0.18872187554086717, abs=1e-12)
        table = loop_contingency(x, y)
        assert _info_gain(table) == pytest.approx(expected, abs=1e-12)
        assert _gain_ratio(table) == pytest.approx(expected, abs=1e-12)  # H(X) = 1
        assert _sym_uncertainty(table) == pytest.approx(expected, abs=1e-12)

    def test_matches_probability_oracle(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 12)
            x = [rng.randint(0, 3) for _ in range(n)]
            y = [rng.randint(0, 1) for _ in range(n)]
            table = loop_contingency(x, y)
            assert _info_gain(table) == pytest.approx(info_gain_oracle(x, y), abs=1e-12)

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 1)),
                    min_size=1, max_size=60))
    def test_bounds(self, pairs):
        x = [a for a, _ in pairs]
        y = [b for _, b in pairs]
        table = loop_contingency(x, y)
        h_x = _entropy_of_counts(table.sum(axis=1))
        h_y = _entropy_of_counts(table.sum(axis=0))
        assert -1e-12 <= _info_gain(table) <= min(h_x, h_y) + 1e-12
        assert 0.0 <= _sym_uncertainty(table) <= 1.0 + 1e-12
        assert _gain_ratio(table) <= 1.0 + 1e-12

    def test_row_permutation_invariance(self):
        rng = random.Random(9)
        x = [rng.randint(0, 3) for _ in range(40)]
        y = [rng.randint(0, 1) for _ in range(40)]
        perm = list(range(40))
        rng.shuffle(perm)
        xp = [x[i] for i in perm]
        yp = [y[i] for i in perm]
        table, permuted = loop_contingency(x, y), loop_contingency(xp, yp)
        assert _info_gain(permuted) == pytest.approx(_info_gain(table), abs=1e-12)
        assert _one_r(permuted) == pytest.approx(_one_r(table), abs=1e-12)


class TestOneR:
    def test_copy_feature(self):
        y = [1, 0, 1, 0, 1]
        assert _one_r(loop_contingency(y, y)) == 1.0

    def test_constant_feature_majority_rule(self):
        y = [1] * 32 + [0] * 6400
        assert _one_r(loop_contingency([0] * 6432, y)) == pytest.approx(6400 / 6432, abs=1e-12)

    def test_three_quarter_split(self):
        x = [0, 0, 0, 0, 1, 1, 1, 1]
        y = [1, 1, 1, 0, 0, 0, 0, 1]
        assert _one_r(loop_contingency(x, y)) == 0.75

    def test_per_bin_tie_goes_to_p(self):
        x = [0, 0]
        y = [1, 0]
        # the tied bin matches one row, whichever class it predicts
        assert _one_r(loop_contingency(x, y)) == 0.5

    def test_matches_per_bin_majority_count(self):
        rng = random.Random(12)
        for _ in range(50):
            n = rng.randint(1, 60)
            x = [rng.randint(0, 6) for _ in range(n)]
            y = [rng.randint(0, 1) for _ in range(n)]
            correct = 0
            for b in set(x):
                pos = sum(1 for xi, yi in zip(x, y) if xi == b and yi == 1)
                neg = sum(1 for xi in x if xi == b) - pos
                correct += max(pos, neg)
            assert _one_r(loop_contingency(x, y)) == correct / n


class TestReliefF:
    def test_constant_feature_weight_zero(self):
        ds = make_dataset(5, 20, seed=1)
        weights = relieff(ds, k=3)
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
            weights = relieff(ds, k=5, seed=seed)
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
        weights = relieff(ds, k=4)
        assert weights[FEATURE_NAMES.index("sum_in")] == pytest.approx(
            weights[FEATURE_NAMES.index("sum_out")], abs=1e-12)

    def test_subsample_deterministic_under_seed(self):
        ds = make_dataset(8, 40, seed=7, separable=False)
        a = relieff(ds, k=3, m=20, seed=5)
        b = relieff(ds, k=3, m=20, seed=5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("m", [0, -1])
    def test_m_below_one_rejected(self, m):
        with pytest.raises(ValueError, match="^m must be at least 1$"):
            relieff(make_dataset(3, 10, seed=2), k=3, m=m)


class TestTablePath:
    SCORERS = {"info_gain": _info_gain, "gain_ratio": _gain_ratio,
               "sym_uncertainty": _sym_uncertainty, "one_r": _one_r}

    @pytest.mark.parametrize("n_ponzi,n_other", [(6, 40), (0, 40), (12, 0), (3, 1)])
    @pytest.mark.parametrize("bins", [2, 5, 10, 50])
    def test_scores_equal_public_scorers(self, n_ponzi, n_other, bins):
        # (0, 40) and (12, 0) hold one class, so the table drops a column.
        ds = make_dataset(n_ponzi, n_other, seed=n_ponzi + bins, separable=False)
        for method, scorer in self.SCORERS.items():
            scores = dict(rank_features(ds, method, bins=bins).entries)
            for i, name in enumerate(FEATURE_NAMES):
                table = loop_contingency(discretize(ds.X[:, i], bins), ds.y)
                assert scores[name] == scorer(table), (method, name)

    @pytest.mark.parametrize("method", RANKER_NAMES)
    def test_empty_dataset_rejected(self, method):
        with pytest.raises(DataError, match="^dataset has no rows$"):
            rank_features(dataset_of([]), method)


class TestSharedTables:
    """The four table rankers share the (bin, class) tables of the last
    (X, y, bins) ranked; every ranking equals one of a fresh copy."""

    METHODS = ("info_gain", "gain_ratio", "sym_uncertainty", "one_r")

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(rank, "_tables", [])

    def fresh(self, ds, bins=10):
        """Each table ranker's ranking of a copy of ds, from an empty memo."""
        copy = Dataset(ds.ids, ds.y.copy(), ds.X.copy())
        rank._tables.clear()
        return [rank_features(copy, method, bins=bins) for method in self.METHODS]

    def ranked(self, ds, bins=10):
        rankings = [rank_features(ds, method, bins=bins) for method in self.METHODS]
        assert len(rank._tables) == 1
        return rankings

    def test_two_datasets_in_turn(self):
        a = make_dataset(6, 40, seed=1, separable=False)
        b = make_dataset(6, 40, seed=2, separable=False)  # the same shape as a
        want_a, want_b = self.fresh(a), self.fresh(b)
        assert want_a != want_b
        rank._tables.clear()
        for ds, want in [(a, want_a), (b, want_b), (a, want_a), (b, want_b)]:
            assert self.ranked(ds) == want

    def test_one_dataset_at_two_bin_counts(self):
        ds = make_dataset(6, 40, seed=3, separable=False)
        want = {bins: self.fresh(ds, bins) for bins in (3, 10)}
        assert want[3] != want[10]
        rank._tables.clear()
        for bins in (10, 3, 10):
            assert self.ranked(ds, bins) == want[bins]

    def test_dataset_edited_in_place(self):
        ds = make_dataset(6, 40, seed=4, separable=False)
        edited_x = Dataset(ds.ids, ds.y, ds.X.copy())
        edited_x.X[:, 0] = ds.y  # the first feature now separates the classes
        edited_y = Dataset(ds.ids, ds.y.copy(), edited_x.X)
        edited_y.y[:3] ^= 1
        wants = [self.fresh(ds), self.fresh(edited_x), self.fresh(edited_y)]
        assert wants[0] != wants[1] != wants[2]
        rank._tables.clear()
        assert self.ranked(ds) == wants[0]
        ds.X[:, 0] = ds.y
        assert self.ranked(ds) == wants[1]
        ds.y[:3] ^= 1
        assert self.ranked(ds) == wants[2]

    def test_one_class_dataset(self):
        two = make_dataset(6, 40, seed=5, separable=False)
        one = Dataset(two.ids, np.zeros_like(two.y), two.X)
        want_two, want_one = self.fresh(two), self.fresh(one)
        rank._tables.clear()
        for ds, want, n_classes in [(two, want_two, 2), (one, want_one, 1), (two, want_two, 2)]:
            assert self.ranked(ds) == want
            assert {table.shape[1] for table in rank._tables[0][1]} == {n_classes}

    def test_five_rankers_discretize_each_column_once(self, monkeypatch):
        calls = []

        def counted(values, bins):
            calls.append(bins)
            return discretize(values, bins)

        monkeypatch.setattr(rank, "discretize", counted)
        ds = make_dataset(6, 40, seed=6, separable=False)
        for method in RANKER_NAMES:
            rank_features(ds, method)
        assert len(calls) == len(FEATURE_NAMES)


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


# Metamorphic relations that follow from the rankers' definitions, on small
# matrices. Values stay in [1e-6, 1e9] or on a few ties, so a power-of-two
# scaling and the subtractions of scaled values stay in the normal range and
# are exact.
_VALUES = st.sampled_from([0.0, 1.0, 3.0, 10.0]) | st.floats(1e-6, 1e9)


@st.composite
def labeled_matrices(draw):
    n = draw(st.integers(2, 30))
    X = draw(arrays(np.float64, (n, len(FEATURE_NAMES)), elements=_VALUES))
    y = draw(arrays(np.int8, n, elements=st.integers(0, 1)))
    return Dataset(tuple(f"r{i}" for i in range(n)), y, X)


@settings(max_examples=40, deadline=None)
@given(labeled_matrices(), st.lists(st.integers(-6, -1), min_size=len(FEATURE_NAMES),
                                    max_size=len(FEATURE_NAMES)),
       st.integers(1, 12), st.none() | st.integers(1, 30), st.integers(0, 2**16))
def test_power_of_two_column_scaling_keeps_relieff_weights(ds, exponents, k, m, seed):
    # ReliefF's diff(A, I1, I2) is |A(I1) - A(I2)| / (max A - min A): scaling a
    # column by a power of two scales both exactly, so every normalized value,
    # distance and weight keeps its bits.
    m = None if m is None else min(m, len(ds))
    scaled = Dataset(ds.ids, ds.y, ds.X * np.exp2(exponents))
    want = relieff(ds, k=k, m=m, seed=seed)
    assert relieff(scaled, k=k, m=m, seed=seed).tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(labeled_matrices(), st.integers(2, 10), st.integers(0, 2**32 - 1))
def test_increasing_column_remap_keeps_the_discretizing_rankings(ds, bins, seed):
    # Equal-frequency bins are cut at positions in the sorted column, between
    # distinct values, so a strictly increasing remap of a column gives the
    # same bins, the same (bin, class) tables and the same scores.
    rng = np.random.default_rng(seed)
    X = np.empty_like(ds.X)
    for j, col in enumerate(ds.X.T):
        distinct, inverse = np.unique(col, return_inverse=True)
        X[:, j] = np.cumsum(rng.uniform(0.5, 1e4, size=len(distinct)))[inverse]
    remapped = Dataset(ds.ids, ds.y, X)
    for method in ("info_gain", "gain_ratio", "sym_uncertainty", "one_r"):
        want = rank_features(ds, method, bins=bins)
        assert rank_features(remapped, method, bins=bins) == want, method
