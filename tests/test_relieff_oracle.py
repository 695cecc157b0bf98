"""Blocked ReliefF against the per-row loop it replaced.

`loop_relieff` is the previous implementation: for each sampled row it takes
the row-wise L1 distance to every instance, orders hits and misses by
(distance, index) with one lexsort each, and adds that row's contribution to
the weights. The blocked version must give `array_equal` weights and the same
notes, in the same order, on every input.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ponzi_radar.dataset import Dataset
from ponzi_radar.errors import DataError
from ponzi_radar.features import FEATURE_NAMES, INT_FEATURES
from ponzi_radar.rank import relieff

from conftest import dataset_of, make_dataset, make_features

N_FEAT = len(FEATURE_NAMES)


def loop_relieff(dataset, k=10, m=None, seed=0):
    """The previous relieff: one Python iteration per sampled row."""
    X, y = dataset.X, dataset.y
    n, n_feat = X.shape
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    span[span == 0] = 1.0
    Z = (X - lo) / span

    if m is None:
        sample = np.arange(n)
    else:
        rng = np.random.default_rng(seed)
        sample = np.sort(rng.choice(n, size=m, replace=False))

    classes, class_counts = np.unique(y, return_counts=True)
    priors = {int(c): cnt / n for c, cnt in zip(classes, class_counts)}
    notes = []
    short = set()
    weights = np.zeros(n_feat, dtype=np.float64)

    for i in sample:
        dist = np.abs(Z - Z[i]).sum(axis=1)
        own = int(y[i])
        hit_rows = np.nonzero((y == own) & (np.arange(n) != i))[0]
        if len(hit_rows) == 0:
            continue
        if len(hit_rows) < k and own not in short:
            short.add(own)
            notes.append(
                f"class {own}: fewer than k+1 members; using all {len(hit_rows)} hits"
            )
        nearest_hits = hit_rows[np.lexsort((hit_rows, dist[hit_rows]))][:k]
        hit_diff = np.abs(Z[nearest_hits] - Z[i]).mean(axis=0)
        miss_diff = np.zeros(n_feat, dtype=np.float64)
        for c in classes:
            c = int(c)
            if c == own:
                continue
            miss_rows = np.nonzero(y == c)[0]
            if len(miss_rows) == 0:
                continue
            if len(miss_rows) < k and c not in short:
                short.add(c)
                notes.append(
                    f"class {c}: fewer than k members; using all {len(miss_rows)} misses"
                )
            nearest = miss_rows[np.lexsort((miss_rows, dist[miss_rows]))][:k]
            w_c = priors[c] / (1.0 - priors[own])
            miss_diff += w_c * np.abs(Z[nearest] - Z[i]).mean(axis=0)
        weights += miss_diff - hit_diff
    weights /= len(sample)
    return weights, notes


def matrix_dataset(rows, labels) -> Dataset:
    """A dataset whose feature matrix is `rows` (integers), labels 1 = P."""
    instances = []
    for i, (row, label) in enumerate(zip(rows, labels)):
        values = {name: (int(v) if name in INT_FEATURES else float(v))
                  for name, v in zip(FEATURE_NAMES, row)}
        instances.append((f"r{i}", "P" if label else "nP", make_features(**values)))
    return dataset_of(instances)


def assert_matches_loop(ds, k=10, m=None, seed=0):
    result = relieff(ds, k=k, m=m, seed=seed)
    weights, notes = loop_relieff(ds, k=k, m=m, seed=seed)
    assert np.array_equal(result.weights, weights)
    assert result.notes == notes
    return result


def tie_heavy(n, seed, levels=3, duplicates=0, p_share=0.3):
    """Integer rows in [0, levels), some copied verbatim, random labels."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n, N_FEAT))
    for _ in range(duplicates):
        X[rng.integers(n)] = X[rng.integers(n)]
    y = (rng.random(n) < p_share).astype(int)
    return matrix_dataset(X, y)


def synth_dataset(**params) -> Dataset:
    """A synthetic world's dataset, assembled in-process as `cli dataset` does."""
    from ponzi_radar.cli import _ponzi_cluster_map
    from ponzi_radar.clustering import build_clusters
    from ponzi_radar.dataset import assemble
    from ponzi_radar.features import cluster_feature_table
    from ponzi_radar.synth import SynthParams, generate

    log, labels = generate(SynthParams(**params))
    clusters = build_clusters(log)
    table = dict(enumerate(cluster_feature_table(log, clusters)))
    return assemble(table, _ponzi_cluster_map(clusters.index_of, labels))


@pytest.fixture(scope="module")
def world():
    """The 300-user world of the golden digests."""
    return synth_dataset(n_ponzi=10, n_background=300, seed=21)


@pytest.fixture(scope="module")
def hard_world():
    return synth_dataset(n_ponzi=12, n_background=400, seed=8, hard_mode=True)


class TestSynthWorld:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_all_rows(self, world, k):
        assert_matches_loop(world, k=k)

    @pytest.mark.parametrize("m,seed", [(1, 0), (57, 1), (200, 6)])
    def test_sampled_rows(self, world, m, seed):
        assert_matches_loop(world, k=10, m=m, seed=seed)

    def test_hard_world(self, hard_world):
        assert_matches_loop(hard_world, k=10)
        assert_matches_loop(hard_world, k=10, m=150, seed=3)


class TestTies:
    @pytest.mark.parametrize("seed", range(4))
    def test_integer_levels(self, seed):
        assert_matches_loop(tie_heavy(150, seed, levels=3, duplicates=30), k=10)

    def test_binary_levels_many_duplicates(self):
        assert_matches_loop(tie_heavy(120, 7, levels=2, duplicates=80), k=5)

    def test_thirds_and_sevenths(self):
        # Columns normalized by spans of 3 and 7 make sums whose last bits
        # depend on the order of addition.
        rng = np.random.default_rng(11)
        X = np.where(rng.random((200, N_FEAT)) < 0.5,
                     rng.integers(0, 4, size=(200, N_FEAT)),
                     rng.integers(0, 8, size=(200, N_FEAT)))
        ds = matrix_dataset(X, rng.random(200) < 0.4)
        for k in (1, 2, 7, 25):
            assert_matches_loop(ds, k=k)

    def test_all_rows_identical(self):
        ds = matrix_dataset(np.ones((40, N_FEAT), dtype=int), [i % 3 == 0 for i in range(40)])
        result = assert_matches_loop(ds, k=10)
        assert np.array_equal(result.weights, np.zeros(N_FEAT))

    def test_many_blocks(self):
        ds = tie_heavy(2500, 3, levels=4, duplicates=400, p_share=0.1)
        assert_matches_loop(ds, k=10, m=700, seed=2)


class TestSmallClasses:
    def test_class_smaller_than_k_plus_one(self):
        ds = make_dataset(5, 40, seed=3, separable=False)
        result = assert_matches_loop(ds, k=10)
        assert result.notes == [
            "class 1: fewer than k+1 members; using all 4 hits",
        ]

    def test_class_smaller_than_k_met_first_as_misses(self):
        ds = make_dataset(6, 40, seed=4)
        ds = ds.take(np.arange(len(ds))[::-1])  # nP rows come first
        result = assert_matches_loop(ds, k=8)
        assert result.notes == ["class 1: fewer than k members; using all 6 misses"]

    def test_single_member_class(self):
        ds = make_dataset(1, 30, seed=5)
        result = assert_matches_loop(ds, k=10)
        assert result.notes == ["class 1: fewer than k members; using all 1 misses"]

    def test_sample_of_only_the_single_member(self):
        rows = np.arange(2 * N_FEAT).reshape(2, N_FEAT) % 5
        ds = matrix_dataset(np.vstack([rows, rows + 1, rows * 2]), [1, 0, 0, 0, 0, 0])
        for seed in range(6):
            assert_matches_loop(ds, k=2, m=1, seed=seed)

    def test_one_class(self):
        ds = make_dataset(0, 25, seed=6, separable=False)
        assert_matches_loop(ds, k=10)
        assert_matches_loop(ds, k=30)

    @pytest.mark.parametrize("k", [1, 2, 29, 30, 31, 500])
    def test_k_edges(self, k):
        assert_matches_loop(make_dataset(7, 23, seed=7, separable=False), k=k)


class TestDegenerate:
    def test_constant_columns(self):
        rng = np.random.default_rng(2)
        X = np.zeros((30, N_FEAT), dtype=int)
        X[:, 3] = rng.integers(0, 9, size=30)
        X[:, 11] = 5
        assert_matches_loop(matrix_dataset(X, rng.random(30) < 0.5), k=4)

    @pytest.mark.parametrize("labels", [[0, 0], [0, 1], [1, 1], [0, 0, 1], [1, 0, 1],
                                        [0, 0, 0], [1]])
    def test_tiny_datasets(self, labels):
        rng = np.random.default_rng(len(labels))
        ds = matrix_dataset(rng.integers(0, 5, size=(len(labels), N_FEAT)), labels)
        for k in (1, 2, 5):
            assert_matches_loop(ds, k=k)

    def test_empty_dataset(self):
        with pytest.raises(DataError):
            relieff(dataset_of([]), k=3)


@st.composite
def small_problems(draw):
    n = draw(st.integers(1, 14))
    levels = draw(st.integers(1, 5))
    X = draw(st.lists(st.lists(st.integers(0, levels), min_size=N_FEAT, max_size=N_FEAT),
                      min_size=n, max_size=n))
    labels = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    k = draw(st.integers(1, n + 2))
    m = draw(st.none() | st.integers(1, n))
    seed = draw(st.integers(0, 2**16))
    return matrix_dataset(X, labels), k, m, seed


@settings(max_examples=150, deadline=None)
@given(small_problems())
def test_property_matches_loop(problem):
    ds, k, m, seed = problem
    assert_matches_loop(ds, k=k, m=m, seed=seed)


def test_no_full_distance_matrix():
    """A 6 030-row call holds nothing near an (m x n) or (block x n x features) array."""
    rng = random.Random(17)
    n = 6030
    X = [[rng.randint(0, 50) for _ in range(N_FEAT)] for _ in range(n)]
    ds = matrix_dataset(X, [rng.random() < 0.02 for _ in range(n)])
    m = 1000
    relieff(ds, k=10, m=1)  # build the matrix and numpy's lazy state before measuring
    tracemalloc.start()
    try:
        relieff(ds, k=10, m=m, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Z, its transposed copy and a few 16 x 6 030 distance blocks fit in six
    # copies of Z. An (m x n) matrix would need 50, a (16 x n x 20) array 16.
    assert peak < 6 * n * N_FEAT * 8
