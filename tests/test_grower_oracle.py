"""The batched tree grower against the reference grower it replaced.

`oracle_grow_tree` and `oracle_best_split` are the previous implementation:
a bootstrap copies the drawn rows, and each node searches one feature at a
time with a stable argsort and float cumulative sums of a weight vector. For
costs whose masses are exact in binary (1:1, 20:1, 2.5:1) both growers must
give bit-identical trees. For other costs, the old grower broke exact score
ties by float summation order, so only determinism is checked there.
"""

from __future__ import annotations

import io
import random

import numpy as np
import pytest

from ponzi_radar.dataset import Dataset, Instance
from ponzi_radar.features import FEATURE_NAMES, INT_FEATURES
from ponzi_radar.learn import (
    CostMatrix,
    TreeModel,
    TreeParams,
    default_forest_params,
    derive_seeds,
    save_model,
    train_forest,
    train_tree,
)

from conftest import make_features


def oracle_best_split(X, y, w, idx, feats, min_leaf):
    best = None
    m = len(idx)
    for f in feats:
        v = X[idx, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        cut = np.nonzero(vs[:-1] != vs[1:])[0]
        if len(cut) == 0:
            continue
        valid = (cut + 1 >= min_leaf) & (m - cut - 1 >= min_leaf)
        cut = cut[valid]
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


def oracle_grow_tree(X, y, w, params, rng):
    n_features = X.shape[1]
    k = params.features_per_split
    feature, threshold, left, right, counts = [], [], [], [], []
    stack = [(np.arange(len(X)), 0, -1, False)]
    while stack:
        idx, depth, parent, is_right = stack.pop()
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
        if (
            pos_w == 0.0 or pos_w == tot_w
            or len(idx) < 2 * params.min_leaf
            or (params.max_depth is not None and depth >= params.max_depth)
        ):
            continue
        if k is not None and k < n_features:
            cands = np.sort(rng.choice(n_features, size=k, replace=False))
            split = oracle_best_split(X, y, w, idx, cands, params.min_leaf)
            if split is None:
                rest = np.setdiff1d(np.arange(n_features), cands)
                split = oracle_best_split(X, y, w, idx, rest, params.min_leaf)
        else:
            split = oracle_best_split(X, y, w, idx, np.arange(n_features), params.min_leaf)
        if split is None:
            continue
        _, f, thr, pos, order = split
        feature[node] = f
        threshold[node] = thr
        ordered = idx[order]
        stack.append((ordered[pos + 1:], depth + 1, node, True))
        stack.append((ordered[: pos + 1], depth + 1, node, False))
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


def oracle_forest(ds, n_trees, seed, params, bootstrap, reweight):
    X, y = ds.X, ds.y
    w = oracle_weights(y, reweight)
    trees = []
    for tree_seed in derive_seeds(seed, n_trees):
        rng = np.random.default_rng(tree_seed)
        if bootstrap:
            rows = rng.integers(0, len(X), size=len(X))
            trees.append(oracle_grow_tree(X[rows], y[rows], w[rows], params, rng))
        else:
            trees.append(oracle_grow_tree(X, y, w, params, rng))
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
        instances.append(Instance(f"r{i}", label, make_features(**values)))
    return Dataset("v1", tuple(instances))


def assert_same_trees(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in ("feature", "threshold", "left", "right", "counts"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


CASES = {
    "default": dict(n=400),
    "reweight_20_1": dict(n=400, reweight=CostMatrix(20, 1)),
    "reweight_2.5_1": dict(n=400, reweight=CostMatrix(2.5, 1)),
    "min_leaf_3": dict(n=400, params=TreeParams(features_per_split=5, min_leaf=3)),
    "max_depth_2": dict(n=400, params=TreeParams(features_per_split=5, max_depth=2)),
    "all_features": dict(n=400, params=TreeParams(features_per_split=None)),
    "no_bootstrap": dict(n=400, bootstrap=False),
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
    params = spec.pop("params", default_forest_params())
    bootstrap = spec.pop("bootstrap", True)
    reweight = spec.pop("reweight", None)
    forest = train_forest(ds, n_trees=n_trees, seed=11, params=params,
                          bootstrap=bootstrap, reweight=reweight, threads=2)
    assert_same_trees(forest.trees, oracle_forest(ds, n_trees, 11, params, bootstrap, reweight))
    if case == "random_labels_2000":  # deep trees: the whole stack is exercised
        assert min(t.n_nodes for t in forest.trees) > 300
    if case == "one_class":
        assert all(t.n_nodes == 1 for t in forest.trees)


@pytest.mark.parametrize("reweight", [None, CostMatrix(20, 1)])
def test_single_tree_matches_oracle(reweight):
    ds = random_dataset(300, seed=5)
    params = TreeParams(features_per_split=4)
    tree = train_tree(ds, params=params, seed=3, reweight=reweight)
    want = oracle_grow_tree(ds.X, ds.y, oracle_weights(ds.y, reweight), params,
                            np.random.default_rng(3))
    assert_same_trees([tree], [want])


@pytest.mark.parametrize("cost", ["0.3:0.7", "3:0.1"])
def test_non_dyadic_costs_deterministic_across_threads(cost):
    ds = random_dataset(400, seed=9)

    def model_json(threads):
        forest = train_forest(ds, n_trees=6, seed=4, reweight=CostMatrix.parse(cost),
                              threads=threads)
        buf = io.StringIO()
        save_model(forest, buf)
        return buf.getvalue()

    first = model_json(1)
    assert model_json(1) == first
    assert model_json(2) == first
    assert model_json(3) == first
