"""Classifiers and imbalance handling.

Trees are grown from scratch: greedy binary splits chosen to maximize the
Gini impurity decrease over a random feature subset per node, midpoint
thresholds, class-frequency leaves. A forest is a bag of such trees trained
on bootstrap resamples with per-tree seeds derived up front, so training is
bit-deterministic regardless of thread count. The Bayes classifier assumes
conditional independence with per-class Gaussian likelihoods.

Cost sensitivity is applied by minimum-expected-cost thresholding of the
predicted probability: predict P iff p >= c_fp / (c_fp + c_fn). Training-set
reweighting is available as an alternate mode (weights proportional to the
misclassification cost of each class).
"""

from __future__ import annotations

import json
import logging
import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import IO

import numpy as np

from .dataset import Dataset, LABEL_PONZI
from .errors import DataError, SchemaMismatchError
from .features import FEATURE_NAMES, SCHEMA_VERSION, FeatureVector

logger = logging.getLogger(__name__)

MODEL_FORMAT = "ponzi-radar-model"
MODEL_VERSION = 1


@dataclass(frozen=True)
class CostMatrix:
    """Misclassification costs; the diagonal (correct predictions) is 0.

    c_fn is the cost of predicting nP for an actual P, c_fp the cost of
    predicting P for an actual nP.
    """

    c_fn: float
    c_fp: float

    def __post_init__(self):
        if not (self.c_fn > 0 and self.c_fp > 0):
            raise ValueError("both misclassification costs must be positive")

    @property
    def threshold(self) -> float:
        """Probability of P above which predicting P minimizes expected cost."""
        return self.c_fp / (self.c_fp + self.c_fn)

    @classmethod
    def parse(cls, text: str) -> "CostMatrix":
        try:
            fn_cost, fp_cost = text.split(":")
            return cls(float(fn_cost), float(fp_cost))
        except ValueError as exc:
            raise ValueError(f"cost matrix must look like '20:1', got {text!r}") from exc


def cost_sensitive_predict(p: float, cm: CostMatrix) -> str:
    """Minimum-expected-cost label for P-probability p; ties go to P."""
    return LABEL_PONZI if p >= cm.threshold else "nP"


def derive_seeds(seed: int, n: int) -> list[int]:
    """Pre-derived child seeds so parallel work reproduces sequential output."""
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**63, size=n)]


def undersample(dataset: Dataset, ratio: float, seed: int) -> Dataset:
    """Keep all P instances and floor(ratio * |P|) randomly chosen nP instances.

    Intended for training splits only; test data keeps its class distribution.
    """
    if ratio < 1:
        raise ValueError("undersampling ratio must be >= 1")
    pos = np.flatnonzero(dataset.y == 1).tolist()
    neg = np.flatnonzero(dataset.y == 0).tolist()
    if not pos or not neg:
        raise DataError("undersampling requires both classes to be present")
    target = int(ratio * len(pos))
    if target >= len(neg):
        if target > len(neg):
            logger.warning(
                "undersampling target %d exceeds %d available nP instances; keeping all",
                target, len(neg),
            )
        return dataset
    return dataset.take(sorted(pos + random.Random(seed).sample(neg, target)))


@dataclass(frozen=True)
class TreeParams:
    features_per_split: int | None = None  # None = consider every feature
    min_leaf: int = 1
    max_depth: int | None = None


@dataclass
class TreeModel:
    """Flat-array binary tree; feature[i] == -1 marks a leaf."""

    feature: np.ndarray  # int32
    threshold: np.ndarray  # float64
    left: np.ndarray  # int32
    right: np.ndarray  # int32
    counts: np.ndarray  # float64 (n_nodes, 2): [P weight, nP weight]
    feature_names: tuple[str, ...] = FEATURE_NAMES

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict_proba_matrix(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(len(X), dtype=np.int32)
        active = np.nonzero(self.feature[node] >= 0)[0]
        while len(active):
            cur = node[active]
            go_left = X[active, self.feature[cur]] <= self.threshold[cur]
            node[active] = np.where(go_left, self.left[cur], self.right[cur])
            active = active[self.feature[node[active]] >= 0]
        c = self.counts[node]
        return c[:, 0] / c.sum(axis=1)


def _best_split(X, y, w, idx, feats, min_leaf):
    """Best (score, feature, threshold, split_pos, order) over candidate features.

    Score maximized is sum over children of (P^2 + N^2) / T with weighted
    class masses, which orders splits identically to Gini impurity decrease.
    First-encountered maximum wins: features are scanned in ascending index
    order and thresholds in ascending value order, so ties are deterministic.
    """
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
            if thr >= vs[pos + 1]:  # guard float rounding at adjacent values
                thr = float(vs[pos])
            best = (float(score[k]), int(f), float(thr), pos, order)
    return best


def _grow_tree(X, y, w, params: TreeParams, rng: np.random.Generator) -> TreeModel:
    n_features = X.shape[1]
    k = params.features_per_split
    feature, threshold, left, right, counts = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append((0.0, 0.0))
        return len(feature) - 1

    # Explicit pre-order stack (left subtree fully built before the right one)
    # so trees on large pathological data cannot hit the recursion limit.
    stack = [(np.arange(len(X)), 0, -1, False)]  # idx, depth, parent, is_right
    while stack:
        idx, depth, parent, is_right = stack.pop()
        node = new_node()
        if parent >= 0:
            (right if is_right else left)[parent] = node
        pos_w = float(np.sum(w[idx] * y[idx]))
        tot_w = float(np.sum(w[idx]))
        counts[node] = (pos_w, tot_w - pos_w)
        pure = pos_w == 0.0 or pos_w == tot_w
        if (
            pure
            or len(idx) < 2 * params.min_leaf
            or (params.max_depth is not None and depth >= params.max_depth)
        ):
            continue
        if k is not None and k < n_features:
            cands = np.sort(rng.choice(n_features, size=k, replace=False))
            split = _best_split(X, y, w, idx, cands, params.min_leaf)
            if split is None:
                # Candidate features were constant here; fall back to the rest
                # so consistent data always reaches pure leaves.
                rest = np.setdiff1d(np.arange(n_features), cands)
                split = _best_split(X, y, w, idx, rest, params.min_leaf)
        else:
            split = _best_split(X, y, w, idx, np.arange(n_features), params.min_leaf)
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


def _class_weights(y: np.ndarray, reweight: CostMatrix | None) -> np.ndarray:
    w = np.ones(len(y), dtype=np.float64)
    if reweight is not None:
        w[y == 1] = reweight.c_fn
        w[y == 0] = reweight.c_fp
    return w


def train_tree(
    dataset: Dataset,
    params: TreeParams = TreeParams(),
    seed: int = 0,
    reweight: CostMatrix | None = None,
) -> TreeModel:
    """Grow one decision tree. A single-class dataset yields a single leaf."""
    if len(dataset) == 0:
        raise DataError("cannot train on an empty dataset")
    w = _class_weights(dataset.y, reweight)
    return _grow_tree(dataset.X, dataset.y, w, params, np.random.default_rng(seed))


def default_forest_params(n_features: int = len(FEATURE_NAMES)) -> TreeParams:
    return TreeParams(
        features_per_split=int(math.log2(n_features)) + 1,
        min_leaf=1,
        max_depth=None,
    )


@dataclass
class ForestModel:
    trees: list[TreeModel]
    seed: int
    n_trees: int
    params: TreeParams
    bootstrap: bool
    feature_names: tuple[str, ...] = FEATURE_NAMES

    def predict_proba_matrix(self, X: np.ndarray) -> np.ndarray:
        acc = np.zeros(len(X), dtype=np.float64)
        for tree in self.trees:
            acc += tree.predict_proba_matrix(X)
        return acc / len(self.trees)


def train_forest(
    dataset: Dataset,
    n_trees: int = 100,
    seed: int = 0,
    params: TreeParams | None = None,
    bootstrap: bool = True,
    reweight: CostMatrix | None = None,
    threads: int = 1,
) -> ForestModel:
    """Train a random forest with per-tree derived seeds.

    The result is identical for any thread count: every tree's bootstrap
    resample and node-level feature subsets depend only on its own seed.
    """
    if n_trees < 1:
        raise ValueError(f"a forest needs at least one tree, got n_trees={n_trees}")
    X, y = dataset.X, dataset.y
    if len(dataset) == 0:
        raise DataError("cannot train on an empty dataset")
    if params is None:
        params = default_forest_params(X.shape[1])
    w = _class_weights(y, reweight)
    tree_seeds = derive_seeds(seed, n_trees)

    def build(i: int) -> TreeModel:
        rng = np.random.default_rng(tree_seeds[i])
        if bootstrap:
            rows = rng.integers(0, len(X), size=len(X))
            return _grow_tree(X[rows], y[rows], w[rows], params, rng)
        return _grow_tree(X, y, w, params, rng)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            trees = list(pool.map(build, range(n_trees)))
    else:
        trees = [build(i) for i in range(n_trees)]
    return ForestModel(trees, seed, n_trees, params, bootstrap)


@dataclass
class BayesModel:
    """Class priors plus per-feature, per-class Gaussian parameters."""

    prior_p: float
    mean: np.ndarray  # (2, F), row 0 = nP, row 1 = P
    var: np.ndarray  # (2, F)
    feature_names: tuple[str, ...] = FEATURE_NAMES

    def predict_proba_matrix(self, X: np.ndarray) -> np.ndarray:
        log_prior = np.log([1.0 - self.prior_p, self.prior_p])
        ll = np.empty((len(X), 2), dtype=np.float64)
        for c in (0, 1):
            ll[:, c] = log_prior[c] + np.sum(
                -0.5 * np.log(2.0 * np.pi * self.var[c])
                - (X - self.mean[c]) ** 2 / (2.0 * self.var[c]),
                axis=1,
            )
        top = ll.max(axis=1, keepdims=True)
        norm = top[:, 0] + np.log(np.exp(ll - top).sum(axis=1))
        return np.exp(ll[:, 1] - norm)


def train_bayes(dataset: Dataset, reweight: CostMatrix | None = None) -> BayesModel:
    """Maximum-likelihood Gaussian model with a variance floor per feature.

    The floor is 1e-9 times the global feature variance, or 1e-9 absolute
    when a feature is globally constant.
    """
    X, y = dataset.X, dataset.y
    if len(np.unique(y)) < 2:
        raise DataError("Bayes training requires both classes")
    w = _class_weights(y, reweight)
    global_var = X.var(axis=0)
    floor = np.where(global_var > 0, 1e-9 * global_var, 1e-9)
    mean = np.empty((2, X.shape[1]))
    var = np.empty((2, X.shape[1]))
    for c in (0, 1):
        rows = y == c
        wc = w[rows]
        mean[c] = np.average(X[rows], axis=0, weights=wc)
        var[c] = np.average((X[rows] - mean[c]) ** 2, axis=0, weights=wc)
    var = np.maximum(var, floor)
    prior_p = float(np.sum(w[y == 1]) / np.sum(w))
    return BayesModel(prior_p, mean, var)


Model = TreeModel | ForestModel | BayesModel


def _check_schema(model: Model, n_columns: int) -> None:
    if tuple(model.feature_names) != FEATURE_NAMES or n_columns != len(FEATURE_NAMES):
        raise SchemaMismatchError("model feature schema does not match the input")


def predict_proba(model: Model, data) -> np.ndarray | float:
    """P-probability for a FeatureVector, a Dataset, or a feature matrix."""
    if isinstance(data, FeatureVector):
        X = np.asarray([data.as_tuple()], dtype=np.float64)
        _check_schema(model, X.shape[1])
        return float(model.predict_proba_matrix(X)[0])
    if isinstance(data, Dataset):
        X = data.X
    else:
        X = np.asarray(data, dtype=np.float64)
    _check_schema(model, X.shape[1])
    return model.predict_proba_matrix(X)


@dataclass(frozen=True)
class LearnerSpec:
    """What to train: forest or bayes, with the knobs that matter for each."""

    kind: str = "forest"
    n_trees: int = 100
    params: TreeParams | None = None
    bootstrap: bool = True
    reweight: CostMatrix | None = None

    def __post_init__(self):
        if self.kind not in ("forest", "bayes"):
            raise ValueError(f"unknown learner kind: {self.kind!r}")


def train_model(dataset: Dataset, spec: LearnerSpec, seed: int, threads: int = 1) -> Model:
    if spec.kind == "forest":
        return train_forest(
            dataset,
            n_trees=spec.n_trees,
            seed=seed,
            params=spec.params,
            bootstrap=spec.bootstrap,
            reweight=spec.reweight,
            threads=threads,
        )
    return train_bayes(dataset, reweight=spec.reweight)


def _tree_to_dict(tree: TreeModel) -> dict:
    return {
        "feature": tree.feature.tolist(),
        "threshold": tree.threshold.tolist(),
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "counts": tree.counts.tolist(),
    }


def _tree_from_dict(d: dict) -> TreeModel:
    """Rebuild a tree, rejecting any structure prediction could loop or fail on.

    The grower numbers nodes in pre-order, so every child comes after its
    parent; that rules out cycles, and with them a prediction that never ends.
    """
    tree = TreeModel(
        np.asarray(d["feature"], dtype=np.int32),
        np.asarray(d["threshold"], dtype=np.float64),
        np.asarray(d["left"], dtype=np.int32),
        np.asarray(d["right"], dtype=np.int32),
        np.asarray(d["counts"], dtype=np.float64),
    )
    n = tree.n_nodes
    if (n == 0 or tree.counts.shape != (n, 2)
            or any(a.shape != (n,) for a in (tree.feature, tree.threshold, tree.left, tree.right))):
        raise DataError("model tree arrays are empty or disagree in length")
    if np.any(tree.feature < -1) or np.any(tree.feature >= len(FEATURE_NAMES)):
        raise DataError("model tree has a feature index out of range")
    split = tree.feature >= 0
    parent = np.flatnonzero(split)
    for child in (tree.left[split], tree.right[split]):
        if np.any(child <= parent) or np.any(child >= n):
            raise DataError("model tree has a child index out of range or not after its parent")
    leaf_counts = tree.counts[~split]
    if (not np.all(np.isfinite(leaf_counts) & (leaf_counts >= 0))
            or np.any(leaf_counts.sum(axis=1) <= 0)):
        raise DataError("model tree leaf counts must be finite, non-negative, not all 0")
    return tree


def save_model(model: Model, fp: IO[str]) -> None:
    doc: dict = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "feature_schema": SCHEMA_VERSION,
        "feature_names": list(model.feature_names),
    }
    if isinstance(model, ForestModel):
        doc["learner"] = "forest"
        doc["seed"] = model.seed
        doc["params"] = {
            "n_trees": model.n_trees,
            "features_per_split": model.params.features_per_split,
            "min_leaf": model.params.min_leaf,
            "max_depth": model.params.max_depth,
            "bootstrap": model.bootstrap,
        }
        doc["trees"] = [_tree_to_dict(t) for t in model.trees]
    elif isinstance(model, TreeModel):
        doc["learner"] = "tree"
        doc["tree"] = _tree_to_dict(model)
    elif isinstance(model, BayesModel):
        doc["learner"] = "bayes"
        doc["bayes"] = {
            "prior_p": model.prior_p,
            "mean": model.mean.tolist(),
            "var": model.var.tolist(),
        }
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    json.dump(doc, fp)


def load_model(fp: IO[str]) -> Model:
    """Read a model file; a malformed or inconsistent one raises DataError."""
    try:
        return _model_from_doc(json.load(fp))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"malformed model file: {exc!r}") from exc


def _model_from_doc(doc) -> Model:
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise DataError("not a model file")
    if doc.get("version") != MODEL_VERSION:
        raise DataError(f"unsupported model version: {doc.get('version')}")
    if doc.get("feature_schema") != SCHEMA_VERSION or tuple(
        doc.get("feature_names", ())
    ) != FEATURE_NAMES:
        raise SchemaMismatchError("model was built against a different feature schema")
    kind = doc.get("learner")
    if kind == "forest":
        p = doc["params"]
        params = TreeParams(p["features_per_split"], p["min_leaf"], p["max_depth"])
        if not doc["trees"] or len(doc["trees"]) != p["n_trees"]:
            raise DataError(f"forest has {len(doc['trees'])} trees, expected {p['n_trees']} (>= 1)")
        return ForestModel(
            [_tree_from_dict(t) for t in doc["trees"]],
            seed=doc["seed"],
            n_trees=p["n_trees"],
            params=params,
            bootstrap=p["bootstrap"],
        )
    if kind == "tree":
        return _tree_from_dict(doc["tree"])
    if kind == "bayes":
        b = doc["bayes"]
        model = BayesModel(b["prior_p"], np.asarray(b["mean"], dtype=np.float64),
                           np.asarray(b["var"], dtype=np.float64))
        shape = (2, len(FEATURE_NAMES))
        if (not 0 < model.prior_p < 1 or model.mean.shape != shape or model.var.shape != shape
                or not np.all(np.isfinite(model.mean) & np.isfinite(model.var) & (model.var > 0))):
            raise DataError("Bayes model needs 0 < prior_p < 1, finite means and positive "
                            "finite variances, one per class and feature")
        return model
    raise DataError(f"unknown learner kind in model file: {kind!r}")
