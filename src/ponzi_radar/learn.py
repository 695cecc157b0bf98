"""Classifiers and imbalance handling.

A forest is a bag of trees grown from scratch, and only its tree count and
an optional training reweight can be set. Each tree trains on a bootstrap
resample and grows until every leaf is pure or cannot be split. At each
node it takes the binary split with the largest Gini impurity decrease over
FEATURES_PER_SPLIT = log2(20) + 1 = 5 features drawn at random (the other
15 only when those 5 are constant there), with a midpoint threshold; a leaf
holds its class masses. Per-tree seeds are derived up front, and the trees
are shared among the usable CPUs (`share.share`) and joined in tree order,
so training is bit-deterministic for any worker count. The Bayes
classifier assumes conditional independence with per-class Gaussian
likelihoods.

Split search works on value codes and integer class counts. Once per fit,
each feature is coded (its sorted distinct values go into a table, and each
row gets its rank in that table), and each code is packed with its row's
position into a unique sort key. A bootstrap resample is kept as per-row
multiplicities (a bincount of the drawn rows), so a node holds each distinct
training row once, with its count. A node searches all its candidate
features in one batch: one gather of keys, one in-place sort per feature
row, which orders the rows by code and ties by position as a stable sort of
the codes would, and cumulative integer P and nP counts, which become class
masses only when multiplied by the costs (c_fn per P row, c_fp per nP row).
Codes keep the order and equality of the values, and integer sums do not
depend on the order of tied rows, so the chosen split depends only on the
set of rows at the node, exactly as a search on the float values would. The
threshold is the midpoint of the table values either side of the cut, and
children are split by code (code <= the last code left of the cut), never by
re-reading the threshold. A forest scores rows with all its trees at once.

Cost sensitivity is applied by minimum-expected-cost thresholding of the
predicted probability, in `cost_sensitive_predict` alone: predict P iff
p >= c_fp / (c_fp + c_fn). Training-set reweighting is available as an
alternate mode (weights proportional to the misclassification cost of each
class).
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass
from typing import IO

import numpy as np

from . import share
from .dataset import Dataset
from .errors import DataError, SchemaMismatchError
from .features import FEATURE_NAMES, SCHEMA_VERSION

logger = logging.getLogger(__name__)

MODEL_FORMAT = "ponzi-radar-model"
MODEL_VERSION = 1

# The fixed forest (see above), as model files record it under "params".
FEATURES_PER_SPLIT = int(math.log2(len(FEATURE_NAMES))) + 1
FOREST_PARAMS = {"features_per_split": FEATURES_PER_SPLIT, "min_leaf": 1,
                 "max_depth": None, "bootstrap": True}


@dataclass(frozen=True)
class CostMatrix:
    """Misclassification costs; the diagonal (correct predictions) is 0.

    c_fn is the cost of predicting nP for an actual P, c_fp the cost of
    predicting P for an actual nP.
    """

    c_fn: float
    c_fp: float

    def __post_init__(self):
        if not (0 < self.c_fn < math.inf and 0 < self.c_fp < math.inf):
            raise ValueError("both misclassification costs must be positive and finite")

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


def cost_sensitive_predict(p: np.ndarray, cm: CostMatrix) -> np.ndarray:
    """Where predicting P minimizes expected cost, for P-probabilities p; ties go to P."""
    return np.asarray(p) >= cm.threshold


def derive_seeds(seed: int, n: int) -> list[int]:
    """n child seeds, derived up front so each unit of work owns its stream."""
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**63, size=n)]


def undersample(dataset: Dataset, ratio: float, seed: int) -> Dataset:
    """Keep all P instances and floor(ratio * |P|) randomly chosen nP instances.

    Intended for training splits only; test data keeps its class distribution.
    """
    rows = undersample_rows(dataset.y, ratio, seed)
    return dataset if rows is None else dataset.take(rows)


def undersample_rows(y: np.ndarray, ratio: float, seed: int) -> list[int] | None:
    """The ascending positions in labels `y` that `undersample` keeps, or None for all."""
    if ratio < 1:
        raise ValueError("undersampling ratio must be >= 1")
    pos = np.flatnonzero(y == 1).tolist()
    neg = np.flatnonzero(y == 0).tolist()
    if not pos or not neg:
        raise DataError("undersampling requires both classes to be present")
    target = int(ratio * len(pos))
    if target >= len(neg):
        if target > len(neg):
            logger.warning(
                "undersampling target %d exceeds %d available nP instances; keeping all",
                target, len(neg),
            )
        return None
    return sorted(pos + random.Random(seed).sample(neg, target))


@dataclass
class TreeModel:
    """Flat-array binary tree; feature[i] == -1 marks a leaf."""

    feature: np.ndarray  # int32
    threshold: np.ndarray  # float64
    left: np.ndarray  # int32
    right: np.ndarray  # int32
    counts: np.ndarray  # float64 (n_nodes, 2): [P weight, nP weight]

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


Coded = tuple[np.ndarray, list[np.ndarray]]  # what _value_codes returns


def _value_codes(X: np.ndarray) -> Coded:
    """Each feature's sorted distinct values, and each row's dense rank among them.

    The ranks are stored features x rows, in the smallest unsigned dtype that
    holds len(X) - 1: up to 65 536 rows that is 8 or 16 bits (see
    _sort_keys). Ranks keep the order and the equality of the values they
    code, so 0.0 and -0.0 share one.
    """
    codes = np.empty((X.shape[1], len(X)), dtype=np.min_scalar_type(max(len(X) - 1, 0)))
    values = []
    for f in range(X.shape[1]):
        distinct, codes[f] = np.unique(X[:, f], return_inverse=True)
        values.append(distinct)
    return codes, values


def _sort_keys(codes: np.ndarray) -> np.ndarray:
    """Unique keys (code << s) | row position: uint32 with s = 16 for codes of
    8 or 16 bits (up to 65 536 rows), else uint64 with s = 32."""
    dtype = np.uint32 if codes.itemsize <= 2 else np.uint64
    s = 4 * np.dtype(dtype).itemsize  # half the key's bits
    return codes.astype(dtype) << s | np.arange(codes.shape[1], dtype=dtype)


def _best_split(keys, values, rows, counts, total, feats, costs):
    """Best (feature, code, threshold) over candidate features, or None.

    All candidate features are searched in one batch: a (k, d) gather of the
    sort keys (see _sort_keys) of the node's d distinct rows, one in-place
    sort along each feature's row, and one cumulative sum, in that order, of
    the rows' packed integer P/nP `counts` (indexed by row position), which
    add up to `total` (see _grow_tree). A cut after sorted position i sends the rows with code <=
    the i-th sorted code left. The score maximized is the sum over children
    of (P^2 + N^2) / T with cost-weighted class masses, which orders splits
    identically to Gini impurity decrease. First-encountered maximum wins in
    ascending feature order, then ascending value order, so ties are
    deterministic. The threshold is the midpoint of the two values either
    side of the cut, read from the feature's table in `values`.
    """
    c_fn, c_fp = costs
    d = len(rows)
    s = 4 * keys.itemsize
    sk = np.take(keys[feats], rows, axis=1)
    sk.sort(axis=1)
    sk = sk.ravel()
    cs = sk >> s  # the sorted codes, feature after feature
    cut = cs[1:] != cs[:-1]
    cut[d - 1::d] = False  # no cut across the boundary of two features
    cut = np.flatnonzero(cut)  # flat index of the last row left of each cut
    if len(cut) == 0:
        return None
    sk &= (1 << s) - 1  # the sorted positions
    left = np.cumsum(np.take(counts, sk).reshape(-1, d), axis=1).ravel()[cut]
    # Exact float64 counts, then (lp^2 + ln^2) / (lp + ln) + (rp^2 + rn^2) /
    # (rp + rn) in place but in the expression's order: every score keeps its bits.
    lm, lp = (left & _ROWS).astype(np.float64), (left >> 32).astype(np.float64)
    rm, rp = (total & _ROWS) - lm, (total >> 32) - lp
    lm -= lp  # nP rows left
    rm -= rp
    lp *= c_fn
    ln = np.multiply(lm, c_fp, out=lm)
    rp *= c_fn
    rn = np.multiply(rm, c_fp, out=rm)
    score, tmp = lp * lp, ln * ln
    score += tmp
    score /= np.add(lp, ln, out=tmp)
    right, tmp = rp * rp, np.multiply(rn, rn, out=tmp)
    right += tmp
    right /= np.add(rp, rn, out=tmp)
    score += right
    at = int(cut[np.argmax(score)])
    lo_code = int(cs[at])
    f = int(feats[at // d])
    lo, hi = float(values[f][lo_code]), float(values[f][cs[at + 1]])
    thr = (lo + hi) / 2.0
    if thr >= hi:  # guard float rounding at adjacent values
        thr = lo
    return f, lo_code, thr


def _grow_tree(keys, values, counts, costs, rng: np.random.Generator) -> TreeModel:
    """Grow one tree on the rows r with counts[r] > 0, down to pure leaves.

    keys and values are the fit's sort keys and value tables (see _sort_keys
    and _value_codes). counts packs each row's integer multiplicity (a
    bootstrap counts a row once per draw) in its low 32 bits and, for a P
    row, the same multiplicity again above them (see _packed_counts), so one
    sum or cumulative sum yields both the row count and the P count. costs =
    (c_fn, c_fp) weights the two class masses. A node that cannot be split
    is a leaf.
    """
    n_features = keys.shape[0]
    s = 4 * keys.itemsize
    c_fn, c_fp = costs
    feature, threshold, left, right, masses = [], [], [], [], []

    # Explicit pre-order stack (left subtree fully built before the right one)
    # so trees on large pathological data cannot hit the recursion limit.
    stack = [(np.flatnonzero(counts), -1, False)]  # rows, parent, is_right
    while stack:
        rows, parent, is_right = stack.pop()
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
        if n_p == 0 or n_p == n_rows:
            continue
        search = (keys, values, rows, counts, total)
        cands = np.sort(rng.choice(n_features, size=FEATURES_PER_SPLIT, replace=False))
        split = _best_split(*search, cands, costs)
        if split is None:
            # Candidate features were constant here; fall back to the rest
            # so consistent data always reaches pure leaves.
            split = _best_split(*search, np.setdiff1d(np.arange(n_features), cands), costs)
        if split is None:
            continue
        f, lo_code, thr = split
        feature[node] = f
        threshold[node] = thr
        go_left = keys[f, rows] >> s <= lo_code
        stack.append((rows[~go_left], node, True))
        stack.append((rows[go_left], node, False))

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


PREDICT_BLOCK = 1 << 14  # tree x row entries that a forest walks at once


@dataclass
class ForestModel:
    trees: list[TreeModel]
    seed: int

    def predict_proba_matrix(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf P-probability, all trees walked at once over blocks of
        PREDICT_BLOCK // len(trees) rows (at least one), on node tables
        concatenated with child indices offset by each tree's first node. Each
        tree's row is added in tree order: every score has the bits of a
        tree-by-tree sum."""
        trees = self.trees
        root = np.cumsum([0] + [tree.n_nodes for tree in trees[:-1]])
        feature = np.concatenate([tree.feature for tree in trees])
        threshold = np.concatenate([tree.threshold for tree in trees])
        left = np.concatenate([tree.left + r for tree, r in zip(trees, root)])
        right = np.concatenate([tree.right + r for tree, r in zip(trees, root)])
        leaf = feature < 0
        counts = np.concatenate([tree.counts for tree in trees])[leaf]
        p_leaf = np.zeros(len(feature))
        p_leaf[leaf] = counts[:, 0] / counts.sum(axis=1)
        acc = np.zeros(len(X), dtype=np.float64)
        n_features, step = X.shape[1], max(1, PREDICT_BLOCK // len(trees))
        for lo in range(0, len(X), step):
            block = np.ravel(X[lo:lo + step])
            b = len(block) // n_features
            # Entry t * b + i walks tree t for row i, whose cells start at cell[i].
            cell = np.tile(np.arange(0, len(block), n_features), len(trees))
            node = np.repeat(root, b)
            active = np.flatnonzero(~leaf[node])
            while len(active):
                cur = node[active]
                go_left = block[cell[active] + feature[cur]] <= threshold[cur]
                node[active] = np.where(go_left, left[cur], right[cur])
                active = active[~leaf[node[active]]]
            for p in p_leaf[node].reshape(len(trees), b):
                acc[lo:lo + b] += p
        return acc / len(trees)


def train_forest(
    dataset: Dataset,
    n_trees: int = 100,
    seed: int = 0,
    reweight: CostMatrix | None = None,
    coded: Coded | None = None,
) -> ForestModel:
    """Train a random forest with per-tree derived seeds.

    Every tree's bootstrap resample and node-level feature subsets depend
    only on its own seed, so tree i grows alike on any worker of the pool
    (`share.share`), and the trees come back in tree order; inside a
    cross-validation fold they grow in the fold's worker, one after
    another. The features are coded and keyed once for all the trees,
    before the share, so forked workers read them from shared memory:
    by `_value_codes(dataset.X)`, or as `coded` gives them, the columns of
    the dataset's rows in the codes of a superset of its rows, with that
    superset's value tables. The trees are the same either way, because
    codes keep the order and equality of values, and `_best_split` reads
    both ends of a threshold from the codes present at the node.
    """
    if n_trees < 1:
        raise ValueError(f"a forest needs at least one tree, got n_trees={n_trees}")
    X, y = dataset.X, dataset.y
    if len(dataset) == 0:
        raise DataError("cannot train on an empty dataset")
    codes, values = _value_codes(X) if coded is None else coded
    keys = _sort_keys(codes)
    costs = _class_costs(reweight)
    seeds = derive_seeds(seed, n_trees)

    def grow(i: int) -> TreeModel:
        rng = np.random.default_rng(seeds[i])
        mult = np.bincount(rng.integers(0, len(X), size=len(X)), minlength=len(X))
        return _grow_tree(keys, values, _packed_counts(y, mult), costs, rng)

    return ForestModel(share.share(grow, n_trees, share.usable_cpus()), seed)


@dataclass
class BayesModel:
    """Class priors plus per-feature, per-class Gaussian parameters."""

    prior_p: float
    mean: np.ndarray  # (2, F), row 0 = nP, row 1 = P
    var: np.ndarray  # (2, F)

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
    w = np.where(y == 1, *_class_costs(reweight))
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


Model = ForestModel | BayesModel


@dataclass(frozen=True)
class LearnerSpec:
    """What to train: a forest of n_trees, or Gaussian Bayes; either may reweight."""

    kind: str = "forest"
    n_trees: int = 100
    reweight: CostMatrix | None = None

    def __post_init__(self):
        if self.kind not in ("forest", "bayes"):
            raise ValueError(f"unknown learner kind: {self.kind!r}")


def train_model(dataset: Dataset, spec: LearnerSpec, seed: int, threads: int = 1, *,
                coded: Coded | None = None) -> Model:
    """Train what `spec` names, on data that holds a P instance.

    A forest shares its trees among the usable CPUs (see `train_forest`).
    `threads` is ignored, and stays only because `bench/worker.py` passes
    it. `coded` goes to `train_forest`; a Bayes model does not read it.
    """
    if spec.kind == "forest":
        if not dataset.y.any():  # its trees would score every row 0
            raise DataError("forest training requires at least one P instance")
        return train_forest(dataset, n_trees=spec.n_trees, seed=seed, reweight=spec.reweight,
                            coded=coded)
    return train_bayes(dataset, reweight=spec.reweight)


def _tree_to_dict(tree: TreeModel) -> dict:
    return {
        "feature": tree.feature.tolist(),
        "threshold": tree.threshold.tolist(),
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "counts": tree.counts.tolist(),
    }


def _numbers(value, what: str, dtype=np.float64) -> np.ndarray:
    """`value` as `dtype` if it holds only JSON numbers, integers for int32: a
    cast alone would take "0.5" and true, and truncate 1.5 to 1."""
    kinds = {int} if dtype == np.int32 else {int, float}
    if not set(map(type, np.asarray(value, dtype=object).ravel())) <= kinds:
        raise DataError(f"{what} must be {'numbers' if float in kinds else 'integers'}")
    return np.asarray(value, dtype=dtype)


def _tree_from_dict(d: dict) -> TreeModel:
    """Rebuild a tree, rejecting any structure prediction could loop or fail on.

    The grower numbers nodes in pre-order, so every child comes after its
    parent; that rules out cycles, and with them a prediction that never ends.
    """
    tree = TreeModel(
        _numbers(d["feature"], "model tree feature", np.int32),
        _numbers(d["threshold"], "model tree threshold"),
        _numbers(d["left"], "model tree left", np.int32),
        _numbers(d["right"], "model tree right", np.int32),
        _numbers(d["counts"], "model tree counts"),
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
    # json.load takes NaN and Infinity; a model holding them could not be saved.
    if not np.all(np.isfinite(tree.threshold)):
        raise DataError("model tree has a threshold that is not finite")
    if (not np.all(np.isfinite(tree.counts) & (tree.counts >= 0))
            or np.any(tree.counts[~split].sum(axis=1) <= 0)):
        raise DataError("model tree counts must be finite, non-negative, not all 0 at a leaf")
    return tree


def save_model(model: Model, fp: IO[str]) -> None:
    doc: dict = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "feature_schema": SCHEMA_VERSION,
        "feature_names": list(FEATURE_NAMES),
    }
    if isinstance(model, ForestModel):
        doc["learner"] = "forest"
        doc["seed"] = model.seed
        doc["params"] = {"n_trees": len(model.trees), **FOREST_PARAMS}
        doc["trees"] = [_tree_to_dict(t) for t in model.trees]
    elif isinstance(model, BayesModel):
        doc["learner"] = "bayes"
        doc["bayes"] = {
            "prior_p": model.prior_p,
            "mean": model.mean.tolist(),
            "var": model.var.tolist(),
        }
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    json.dump(doc, fp, allow_nan=False)


def load_model(fp: IO[str]) -> Model:
    """Read a model file; a malformed or inconsistent one raises DataError."""
    try:
        return _model_from_doc(json.load(fp))
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
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
        # Compared as JSON text, so that 1 does not pass for true, nor 5.0 for 5.
        fixed = json.dumps({name: p.get(name) for name in FOREST_PARAMS})
        if fixed != json.dumps(FOREST_PARAMS):
            raise DataError(f"forest parameters {fixed} are not the fixed "
                            f"{json.dumps(FOREST_PARAMS)}")
        # `type(...) is int`: save_model writes neither true nor 3.0 here.
        if (not doc["trees"] or type(p["n_trees"]) is not int
                or len(doc["trees"]) != p["n_trees"]):
            raise DataError(f"forest has {len(doc['trees'])} trees, expected {p['n_trees']} (>= 1)")
        if type(doc["seed"]) is not int or not 0 <= doc["seed"] < 2**64:
            raise DataError(f"forest seed must be an integer from 0 to 2**64 - 1, "
                            f"got {doc['seed']!r}")
        return ForestModel([_tree_from_dict(t) for t in doc["trees"]], seed=doc["seed"])
    if kind == "bayes":
        b = doc["bayes"]
        model = BayesModel(b["prior_p"], _numbers(b["mean"], "Bayes model mean"),
                           _numbers(b["var"], "Bayes model variances"))
        shape = (2, len(FEATURE_NAMES))
        if (not 0 < model.prior_p < 1 or model.mean.shape != shape or model.var.shape != shape
                or not np.all(np.isfinite(model.mean) & np.isfinite(model.var) & (model.var > 0))):
            raise DataError("Bayes model needs 0 < prior_p < 1, finite means and positive "
                            "finite variances, one per class and feature")
        return model
    raise DataError(f"unknown learner kind in model file: {kind!r}")
