"""Classifiers and imbalance handling.

Trees are grown from scratch: greedy binary splits chosen to maximize the
Gini impurity decrease over a random feature subset per node, midpoint
thresholds, class-frequency leaves. A forest is a bag of such trees trained
on bootstrap resamples with per-tree seeds derived up front, so training is
bit-deterministic regardless of thread count. The Bayes classifier assumes
conditional independence with per-class Gaussian likelihoods.

Split search works on integer class counts. A bootstrap resample is kept as
per-row multiplicities (a bincount of the drawn rows), so a node holds each
distinct training row once, with its count. A node searches all its
candidate features in one batch: one gather, one argsort per feature row,
and cumulative integer P and nP counts, which become class masses only when
multiplied by the costs (c_fn per P row, c_fp per nP row). Integer sums do
not depend on the order in which tied values were sorted, so the argsort
need not be stable, and the chosen split depends only on the set of rows at
the node. Children are split by value (value <= the last value left of the
cut), never by re-reading the midpoint threshold.

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
            fn_cost, fp_cost = (float(part) for part in text.split(":"))
        except ValueError as exc:
            raise ValueError(f"cost matrix must look like '20:1', got {text!r}") from exc
        return cls(fn_cost, fp_cost)


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


def _best_split(XT, rows, counts, feats, min_leaf, costs):
    """Best (feature, value, threshold) over candidate features, or None.

    All candidate features are searched in one batch: a (k, d) gather of the
    node's d distinct rows, one argsort along each feature's row, and one
    cumulative sum of the packed integer P/nP counts (see _grow_tree). A cut
    after sorted position i sends the rows with value <= vs[i] left. The
    score maximized is the sum over children of (P^2 + N^2) / T with
    cost-weighted class masses, which orders splits identically to Gini
    impurity decrease. First-encountered maximum wins in ascending feature
    order, then ascending value order, so ties are deterministic.
    """
    c_fn, c_fp = costs
    k, d = len(feats), len(rows)
    V = np.take(XT[feats], rows, axis=1)
    order = np.argsort(V, axis=1)
    vs = np.take(V, order + np.arange(0, k * d, d)[:, None])
    cut = np.flatnonzero(vs[:, 1:] != vs[:, :-1])
    if len(cut) == 0:
        return None
    cut += cut // (d - 1)  # flat index of the last row left of each cut
    node = counts[rows]
    left = np.cumsum(node[order], axis=1).ravel()[cut]
    total = int(node.sum())
    lm, lp = left & _ROWS, left >> 32
    rm, rp = (total & _ROWS) - lm, (total >> 32) - lp
    if min_leaf > 1:  # every cut leaves at least one row on each side
        keep = (lm >= min_leaf) & (rm >= min_leaf)
        cut, lm, lp, rm, rp = cut[keep], lm[keep], lp[keep], rm[keep], rp[keep]
        if len(cut) == 0:
            return None
    lp, ln = c_fn * lp, c_fp * (lm - lp)
    rp, rn = c_fn * rp, c_fp * (rm - rp)
    score = (lp * lp + ln * ln) / (lp + ln) + (rp * rp + rn * rn) / (rp + rn)
    i, at = divmod(int(cut[np.argmax(score)]), d)
    lo, hi = float(vs.flat[i * d + at]), float(vs.flat[i * d + at + 1])
    thr = (lo + hi) / 2.0
    if thr >= hi:  # guard float rounding at adjacent values
        thr = lo
    return int(feats[i]), lo, thr


def _grow_tree(XT, counts, costs, params: TreeParams,
               rng: np.random.Generator) -> TreeModel:
    """Grow one tree on the rows r with counts[r] > 0.

    XT is the feature matrix transposed (features x rows). counts packs each
    row's integer multiplicity (a bootstrap counts a row once per draw) in
    its low 32 bits and, for a P row, the same multiplicity again above them
    (see _packed_counts), so one sum or cumulative sum yields both the row
    count and the P count. costs = (c_fn, c_fp) weights the two class masses.
    """
    n_features = XT.shape[0]
    k = params.features_per_split
    c_fn, c_fp = costs
    feature, threshold, left, right, masses = [], [], [], [], []

    # Explicit pre-order stack (left subtree fully built before the right one)
    # so trees on large pathological data cannot hit the recursion limit.
    stack = [(np.flatnonzero(counts), 0, -1, False)]  # rows, depth, parent, is_right
    while stack:
        rows, depth, parent, is_right = stack.pop()
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        if parent >= 0:
            (right if is_right else left)[parent] = node
        total = int(counts[rows].sum())
        n_rows, n_p = total & _ROWS, total >> 32
        masses.append((c_fn * n_p, c_fp * (n_rows - n_p)))
        if (
            n_p == 0
            or n_p == n_rows
            or n_rows < 2 * params.min_leaf
            or (params.max_depth is not None and depth >= params.max_depth)
        ):
            continue
        if k is not None and k < n_features:
            cands = np.sort(rng.choice(n_features, size=k, replace=False))
            split = _best_split(XT, rows, counts, cands, params.min_leaf, costs)
            if split is None:
                # Candidate features were constant here; fall back to the rest
                # so consistent data always reaches pure leaves.
                rest = np.setdiff1d(np.arange(n_features), cands)
                split = _best_split(XT, rows, counts, rest, params.min_leaf, costs)
        else:
            split = _best_split(XT, rows, counts, np.arange(n_features),
                                params.min_leaf, costs)
        if split is None:
            continue
        f, value, thr = split
        feature[node] = f
        threshold[node] = thr
        go_left = XT[f, rows] <= value
        stack.append((rows[~go_left], depth + 1, node, True))
        stack.append((rows[go_left], depth + 1, node, False))

    return TreeModel(
        np.asarray(feature, dtype=np.int32),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.int32),
        np.asarray(right, dtype=np.int32),
        np.asarray(masses, dtype=np.float64),
    )


def _class_costs(reweight: CostMatrix | None) -> tuple[float, float]:
    """(c_fn, c_fp): the mass of one P and of one nP training row."""
    if reweight is None:
        return 1.0, 1.0
    return float(reweight.c_fn), float(reweight.c_fp)


_ROWS = (1 << 32) - 1  # low half of a packed count: the row multiplicity


def _packed_counts(y: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Each row's multiplicity, plus the same shifted 32 bits up for a P row.

    Both halves stay exact while a node holds fewer than 2**32 rows, which
    any feature matrix that fits in memory guarantees.
    """
    return mult | ((mult * (y == 1)) << 32)


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
    X, y = dataset.X, dataset.y
    counts = _packed_counts(y, np.ones(len(y), dtype=np.int64))
    return _grow_tree(np.ascontiguousarray(X.T), counts, _class_costs(reweight),
                      params, np.random.default_rng(seed))


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
    XT = np.ascontiguousarray(X.T)
    costs = _class_costs(reweight)
    tree_seeds = derive_seeds(seed, n_trees)

    def build(i: int) -> TreeModel:
        rng = np.random.default_rng(tree_seeds[i])
        if bootstrap:
            mult = np.bincount(rng.integers(0, len(X), size=len(X)), minlength=len(X))
        else:
            mult = np.ones(len(X), dtype=np.int64)
        return _grow_tree(XT, _packed_counts(y, mult), costs, params, rng)

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
