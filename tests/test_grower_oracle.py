"""The batched tree grower against the reference grower it replaced.

`oracle_grow_tree` and `oracle_best_split` are the previous implementation:
a bootstrap copies the drawn rows, and each node searches one feature at a
time on the float values, with a stable argsort and float cumulative sums of
a weight vector. For costs whose masses are exact in binary (1:1, 20:1,
2.5:1) both growers must give bit-identical trees, although the grower under
test searches on per-fit value codes. For other costs, the old grower broke
exact score ties by float summation order, so only determinism is checked
there.

`reference_best_split` is the coded search before it sorted keys: a gather
of the node's codes, a stable argsort per feature and integer masses. The
key sort must choose the same split on any codes, counts and costs.
"""

from __future__ import annotations

import io
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ponzi_radar import share
from ponzi_radar.dataset import Dataset
from ponzi_radar.features import FEATURE_NAMES, INT_FEATURES
from ponzi_radar.learn import (
    _ROWS,
    FEATURES_PER_SPLIT,
    _best_split,
    _packed_counts,
    _sort_keys,
    _value_codes,
    CostMatrix,
    TreeModel,
    derive_seeds,
    save_model,
    train_forest,
)

from conftest import dataset_of, make_features


def oracle_best_split(X, y, w, idx, feats):
    best = None
    for f in feats:
        v = X[idx, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        cut = np.nonzero(vs[:-1] != vs[1:])[0]
        if len(cut) == 0:
            continue
        ws = w[idx][order]
        ps = ws * y[idx][order]
        cum_w = np.cumsum(ws)
        cum_p = np.cumsum(ps)
        tw, tp = cum_w[-1], cum_p[-1]
        lw, lp = cum_w[cut], cum_p[cut]
        rw, rp = tw - lw, tp - lp
        ln, rn = lw - lp, rw - rp
        score = (lp * lp + ln * ln) / lw + (rp * rp + rn * rn) / rw
        k = int(np.argmax(score))
        if best is None or score[k] > best[0]:
            pos = int(cut[k])
            thr = (vs[pos] + vs[pos + 1]) / 2.0
            if thr >= vs[pos + 1]:
                thr = float(vs[pos])
            best = (float(score[k]), int(f), float(thr), pos, order)
    return best


def oracle_grow_tree(X, y, w, rng):
    n_features = X.shape[1]
    feature, threshold, left, right, counts = [], [], [], [], []
    stack = [(np.arange(len(X)), -1, False)]
    while stack:
        idx, parent, is_right = stack.pop()
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append((0.0, 0.0))
        if parent >= 0:
            (right if is_right else left)[parent] = node
        pos_w = float(np.sum(w[idx] * y[idx]))
        tot_w = float(np.sum(w[idx]))
        counts[node] = (pos_w, tot_w - pos_w)
        if pos_w == 0.0 or pos_w == tot_w or len(idx) < 2:
            continue
        cands = np.sort(rng.choice(n_features, size=FEATURES_PER_SPLIT, replace=False))
        split = oracle_best_split(X, y, w, idx, cands)
        if split is None:
            rest = np.setdiff1d(np.arange(n_features), cands)
            split = oracle_best_split(X, y, w, idx, rest)
        if split is None:
            continue
        _, f, thr, pos, order = split
        feature[node] = f
        threshold[node] = thr
        ordered = idx[order]
        stack.append((ordered[pos + 1:], node, True))
        stack.append((ordered[: pos + 1], node, False))
    return TreeModel(
        np.asarray(feature, dtype=np.int32),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.int32),
        np.asarray(right, dtype=np.int32),
        np.asarray(counts, dtype=np.float64),
    )


def oracle_weights(y, reweight):
    w = np.ones(len(y), dtype=np.float64)
    if reweight is not None:
        w[y == 1] = reweight.c_fn
        w[y == 0] = reweight.c_fp
    return w


def oracle_forest(ds, n_trees, seed, reweight):
    X, y = ds.X, ds.y
    w = oracle_weights(y, reweight)
    trees = []
    for tree_seed in derive_seeds(seed, n_trees):
        rng = np.random.default_rng(tree_seed)
        rows = rng.integers(0, len(X), size=len(X))
        trees.append(oracle_grow_tree(X[rows], y[rows], w[rows], rng))
    return trees


def random_dataset(n, seed, p_share=0.3):
    """Rows with heavy ties (small-integer features) and distinct reals."""
    rng = random.Random(seed)
    instances = []
    for i in range(n):
        values = {
            name: rng.randint(0, 6) if name in INT_FEATURES
            else (round(rng.random(), 1) if j % 2 else rng.random())
            for j, name in enumerate(FEATURE_NAMES)
        }
        label = "P" if rng.random() < p_share else "nP"
        instances.append((f"r{i}", label, make_features(**values)))
    return dataset_of(instances)


def assert_same_trees(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in ("feature", "threshold", "left", "right", "counts"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


CASES = {
    "default": dict(n=400),
    "reweight_20_1": dict(n=400, reweight=CostMatrix(20, 1)),
    "reweight_2.5_1": dict(n=400, reweight=CostMatrix(2.5, 1)),
    "one_class": dict(n=50, p_share=1.0),
    "ten_rows": dict(n=10),
    "three_rows": dict(n=3, p_share=0.5),
    "random_labels_2000": dict(n=2000, p_share=0.5, n_trees=3),
}


@pytest.mark.parametrize("case", list(CASES))
def test_forest_matches_oracle(case):
    spec = dict(CASES[case])
    ds = random_dataset(spec.pop("n"), seed=len(case), p_share=spec.pop("p_share", 0.3))
    n_trees = spec.pop("n_trees", 8)
    reweight = spec.pop("reweight", None)
    forest = train_forest(ds, n_trees=n_trees, seed=11, reweight=reweight)
    assert_same_trees(forest.trees, oracle_forest(ds, n_trees, 11, reweight))
    if case == "random_labels_2000":  # deep trees: the whole stack is exercised
        assert min(t.n_nodes for t in forest.trees) > 300
    if case == "one_class":
        assert all(t.n_nodes == 1 for t in forest.trees)


@pytest.mark.parametrize("reweight", [None, CostMatrix(20, 1)])
def test_single_tree_matches_oracle(reweight):
    ds = random_dataset(300, seed=5)
    forest = train_forest(ds, n_trees=1, seed=3, reweight=reweight)
    assert_same_trees(forest.trees, oracle_forest(ds, 1, 3, reweight))


@pytest.mark.parametrize("cost", ["0.3:0.7", "3:0.1"])
def test_non_dyadic_costs_deterministic_across_runs(cost):
    ds = random_dataset(400, seed=9)

    def model_json():
        forest = train_forest(ds, n_trees=6, seed=4, reweight=CostMatrix.parse(cost))
        buf = io.StringIO()
        save_model(forest, buf)
        return buf.getvalue()

    first = model_json()
    assert model_json() == first
    assert model_json() == first


def _float_run(start, n):
    """start and the n - 1 floats right after it: midpoints round to a neighbour."""
    run = [float(start)]
    for _ in range(n - 1):
        run.append(float(np.nextafter(run[-1], np.inf)))
    return run


# Values that stress the coding: 0.0 beside -0.0, runs of adjacent floats
# and integers just below 2**53 (adjacent there too), and small integers. In
# each run some midpoint rounds up to the larger value, where the threshold
# guard must fire.
_RUNS = [_float_run(1.0, 4), _float_run(0.1, 3), [float(2**53 - j) for j in range(4)],
         [0.0, -0.0, 5e-324, 1e-323]]
_VALUES = [v for run in _RUNS for v in run] + [2.0, 3.0, 2.0**52]


@st.composite
def _tie_heavy_datasets(draw):
    """2 to 40 rows, each column drawn from a few of the values above."""
    n = draw(st.integers(2, 40))
    pool = draw(st.one_of(
        st.sampled_from(_RUNS),
        st.lists(st.sampled_from(_VALUES), min_size=1, max_size=5, unique_by=repr)))
    X = draw(arrays(np.float64, (n, len(FEATURE_NAMES)), elements=st.sampled_from(pool)))
    y = draw(arrays(np.int8, n, elements=st.integers(0, 1)))
    return Dataset(tuple(f"r{i}" for i in range(n)), y, X)


@settings(max_examples=150, deadline=None)
@given(
    _tie_heavy_datasets(),
    st.sampled_from([None, CostMatrix(1, 1), CostMatrix(20, 1), CostMatrix(2.5, 1)]),
    st.integers(0, 2**32),
)
def test_coded_grower_matches_oracle(ds, reweight, seed):
    # One worker: a fork would cost more than these 3 tiny trees, and
    # tests/test_share.py compares the forest across worker counts.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(share, "usable_cpus", lambda: 1)
        forest = train_forest(ds, n_trees=3, seed=seed, reweight=reweight)
    assert_same_trees(forest.trees, oracle_forest(ds, 3, seed, reweight))


def test_codes_wider_than_16_bits_match_oracle():
    # Column 0 alone holds the label, so trees stay at three nodes; the cut
    # lies near rank 68 000, beyond what 16-bit codes could hold.
    n = 70_000  # more than 65 536 distinct values in column 0
    rng = np.random.default_rng(8)
    X = np.zeros((n, len(FEATURE_NAMES)))
    X[:, 0] = rng.permutation(n) * 0.5
    y = (X[:, 0] >= 34_000).astype(np.int8)
    ds = Dataset(tuple(f"r{i}" for i in range(n)), y, X)
    codes, values = _value_codes(ds.X)
    assert codes.dtype == np.uint32 and len(values[0]) == n
    forest = train_forest(ds, n_trees=2, seed=3)
    for tree in forest.trees:
        assert tree.feature.tolist() == [0, -1, -1]
        assert abs(tree.threshold[0] - 34_000) < 10
    assert_same_trees(forest.trees, oracle_forest(ds, 2, 3, None))


def reference_best_split(codes, values, rows, node, total, feats, costs):
    """Best (feature, code, threshold) by a stable argsort of the node's codes.

    `node` holds the packed counts of `rows` (see `_packed_counts`), which add
    up to `total`.
    """
    c_fn, c_fp = costs
    k, d = len(feats), len(rows)
    C = np.take(codes[feats], rows, axis=1)
    order = np.argsort(C, axis=1, kind="stable")
    cs = np.take(C, order + np.arange(0, k * d, d)[:, None])
    cut = np.flatnonzero(cs[:, 1:] != cs[:, :-1])
    if len(cut) == 0:
        return None
    cut += cut // (d - 1)  # flat index of the last row left of each cut
    left = np.cumsum(np.take(node, order), axis=1).ravel()[cut]
    lm, lp = left & _ROWS, left >> 32
    rm, rp = (total & _ROWS) - lm, (total >> 32) - lp
    lm -= lp  # nP rows left
    rm -= rp
    lp, ln, rp, rn = c_fn * lp, c_fp * lm, c_fn * rp, c_fp * rm
    score, tmp = lp * lp, ln * ln
    score += tmp
    score /= np.add(lp, ln, out=tmp)
    right, tmp = rp * rp, np.multiply(rn, rn, out=tmp)
    right += tmp
    right /= np.add(rp, rn, out=tmp)
    score += right
    i, at = divmod(int(cut[np.argmax(score)]), d)
    lo_code = int(cs.flat[i * d + at])
    f = int(feats[i])
    lo, hi = float(values[f][lo_code]), float(values[f][cs.flat[i * d + at + 1]])
    thr = (lo + hi) / 2.0
    if thr >= hi:  # guard float rounding at adjacent values
        thr = lo
    return f, lo_code, thr


class _Table:
    """A value table whose first entry is code `first`, so that codes near
    the top of their dtype need no table that long."""

    def __init__(self, first, values):
        self.first, self.values = first, values

    def __getitem__(self, code):
        return self.values[int(code) - self.first]


@st.composite
def _split_searches(draw):
    """Codes of uint8, 16 or 32 bits with 1 to 6 distinct values per feature,
    at the bottom or the top of their dtype, and a node of 1 to 40 rows."""
    dtype = draw(st.sampled_from([np.uint8, np.uint16, np.uint32]))
    n, n_features, m = draw(st.integers(1, 40)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    first = draw(st.sampled_from([0, int(np.iinfo(dtype).max) + 1 - m]))
    codes = draw(arrays(dtype, (n_features, n), elements=st.integers(first, first + m - 1)))
    table = draw(st.sampled_from([np.arange(m) * 0.5, np.array(_float_run(1.0, m)),
                                  np.array([float(2**53 - m + j) for j in range(m)])]))
    rows = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))), dtype=np.int64)
    mult = draw(arrays(np.int64, n, elements=st.integers(1, 4)))
    y = draw(arrays(np.int8, n, elements=st.integers(0, 1)))
    feats = np.array(sorted(draw(st.sets(st.integers(0, n_features - 1), min_size=1))),
                     dtype=np.int64)
    costs = draw(st.sampled_from([(1.0, 1.0), (20.0, 1.0), (2.5, 1.0), (0.3, 0.7), (3.0, 0.1)]))
    return codes, [_Table(first, table)] * n_features, rows, _packed_counts(y, mult), feats, costs


def _both_searches(codes, values, rows, counts, feats, costs):
    total = int(counts[rows].sum())
    want = reference_best_split(codes, values, rows, counts[rows], total, feats, costs)
    got = _best_split(_sort_keys(codes), values, rows, counts, total, feats, costs)
    return got, want


@settings(max_examples=300, deadline=None)
@given(_split_searches())
def test_key_sort_split_matches_argsort_split(search):
    got, want = _both_searches(*search)
    assert got == want


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
def test_one_row_and_all_equal_nodes_have_no_split(dtype):
    codes = np.array([[3, 3, 3, 1], [0, 0, 0, 2]], dtype=dtype)
    values = [np.arange(4.0)] * 2
    counts = _packed_counts(np.array([1, 0, 1, 0]), np.ones(4, dtype=np.int64))
    for rows in ([0], [2], [0, 1, 2]):
        got, want = _both_searches(codes, values, np.array(rows), counts, np.arange(2), (1.0, 1.0))
        assert got is None and want is None


def test_sort_keys_widen_past_16_bits():
    for n, dtype in ((1, np.uint32), (2**16, np.uint32), (2**16 + 1, np.uint64)):
        codes, _ = _value_codes(np.arange(n, 0, -1, dtype=np.float64)[:, None])
        keys = _sort_keys(codes)
        s = 4 * keys.itemsize
        assert keys.dtype == dtype
        assert np.array_equal(keys >> s, codes)
        assert np.array_equal(keys[0] & ((1 << s) - 1), np.arange(n))
