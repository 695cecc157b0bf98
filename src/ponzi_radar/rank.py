"""Feature relevance ranking: four entropy/rule rankers plus ReliefF.

The entropy-based rankers (information gain, gain ratio, symmetrical
uncertainty) and OneR work on discretized columns; discretization is
equal-frequency binning with cut points snapped to the nearest boundary
between distinct values, so heavily tied columns simply produce fewer bins.
ReliefF works on min-max normalized numeric columns directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset
from .errors import DataError
from .features import FEATURE_NAMES

RANKER_NAMES = ("info_gain", "gain_ratio", "sym_uncertainty", "one_r", "relieff")


def discretize(values: Sequence[float], bins: int) -> np.ndarray:
    """Equal-frequency bin labels (0-based) for a numeric column.

    Cut points are placed at midpoints between adjacent distinct values,
    snapped to the value boundaries nearest the exact quantile positions.
    A constant column yields a single bin; every produced bin is non-empty.
    """
    if bins < 2:
        raise ValueError("bins must be at least 2")
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    boundaries = np.nonzero(sorted_v[:-1] != sorted_v[1:])[0] + 1  # cut before this pos
    if len(boundaries) == 0:
        return np.zeros(n, dtype=np.int64)
    desired = np.arange(1, bins) * n / bins
    chosen = sorted({int(boundaries[np.argmin(np.abs(boundaries - d))]) for d in desired})
    labels = np.zeros(n, dtype=np.int64)
    for b, cut in enumerate(chosen, start=1):
        labels[order[cut:]] = b
    return labels


def _entropy_of_counts(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _contingency(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    xs = np.unique(x)
    ys = np.unique(y)
    table = np.zeros((len(xs), len(ys)), dtype=np.int64)
    for i, xv in enumerate(xs):
        for j, yv in enumerate(ys):
            table[i, j] = int(np.sum((x == xv) & (y == yv)))
    return table


def entropy(labels: Sequence) -> float:
    """Shannon entropy in bits of a discrete label sequence."""
    _, counts = np.unique(np.asarray(labels), return_counts=True)
    return _entropy_of_counts(counts)


def info_gain(x: Sequence, y: Sequence) -> float:
    """H(Y) - H(Y | X) in bits for discrete x."""
    table = _contingency(np.asarray(x), np.asarray(y))
    n = table.sum()
    h_y = _entropy_of_counts(table.sum(axis=0))
    h_y_given_x = 0.0
    for row in table:
        h_y_given_x += row.sum() / n * _entropy_of_counts(row)
    ig = h_y - h_y_given_x
    return max(ig, 0.0)  # clamp tiny negative float residue


def gain_ratio(x: Sequence, y: Sequence) -> float:
    h_x = entropy(x)
    if h_x == 0.0:
        return 0.0
    return info_gain(x, y) / h_x


def sym_uncertainty(x: Sequence, y: Sequence) -> float:
    h_x = entropy(x)
    h_y = entropy(y)
    if h_x + h_y == 0.0:
        return 0.0
    return 2.0 * info_gain(x, y) / (h_x + h_y)


def one_r(x: Sequence, y: Sequence) -> float:
    """Training accuracy of the one-feature rule mapping bins to majority class.

    Per-bin ties go to the positive (P) class.
    """
    xa = np.asarray(x)
    ya = np.asarray(y)
    n = len(ya)
    if n == 0:
        raise DataError("one_r requires a non-empty column")
    correct = 0
    for bin_value in np.unique(xa):
        rows = xa == bin_value
        pos = int(np.sum(ya[rows] == 1))
        neg = int(np.sum(rows)) - pos
        correct += pos if pos >= neg else neg
    return correct / n


@dataclass
class ReliefFResult:
    weights: np.ndarray
    notes: list[str]


def relieff(
    dataset: Dataset, k: int = 10, m: int | None = None, seed: int = 0
) -> ReliefFResult:
    """ReliefF weights over min-max normalized features.

    For every sampled instance, the k nearest hits and (per other class) the
    k nearest misses pull each feature's weight down or up by the mean
    per-feature difference; miss contributions are weighted by class prior.
    Distance ties are broken by instance index. m is the number of sampled
    instances (default: all, in index order).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    X, y = dataset.X, dataset.y
    n, n_feat = X.shape
    if n == 0:
        raise DataError("relieff requires a non-empty dataset")
    if m is not None and m > n:
        raise ValueError("m cannot exceed the dataset size")
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    span[span == 0] = 1.0  # constant features contribute zero differences
    Z = (X - lo) / span

    if m is None:
        sample = np.arange(n)
    else:
        rng = np.random.default_rng(seed)
        sample = np.sort(rng.choice(n, size=m, replace=False))

    classes, class_counts = np.unique(y, return_counts=True)
    priors = {int(c): cnt / n for c, cnt in zip(classes, class_counts)}
    notes: list[str] = []
    short: set[int] = set()
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
    return ReliefFResult(weights, notes)


@dataclass(frozen=True)
class Ranking:
    method: str
    entries: tuple[tuple[str, float], ...]  # sorted by score desc, schema-order ties


def _to_ranking(method: str, scores: Sequence[float]) -> Ranking:
    order = sorted(range(len(FEATURE_NAMES)), key=lambda i: (-scores[i], i))
    return Ranking(method, tuple((FEATURE_NAMES[i], float(scores[i])) for i in order))


def rank_features(
    dataset: Dataset,
    method: str,
    bins: int = 10,
    relieff_k: int = 10,
    relieff_m: int | None = None,
    seed: int = 0,
) -> Ranking:
    """Score every feature with one ranker and return the sorted ranking."""
    if method not in RANKER_NAMES:
        raise ValueError(f"unknown ranking method: {method!r}")
    if method == "relieff":
        return _to_ranking(method, relieff(dataset, k=relieff_k, m=relieff_m, seed=seed).weights)
    scorer = {
        "info_gain": info_gain,
        "gain_ratio": gain_ratio,
        "sym_uncertainty": sym_uncertainty,
        "one_r": one_r,
    }[method]
    X, y = dataset.X, dataset.y
    scores = [scorer(discretize(X[:, i], bins), y) for i in range(X.shape[1])]
    return _to_ranking(method, scores)


def all_rankings(
    dataset: Dataset,
    bins: int = 10,
    relieff_k: int = 10,
    relieff_m: int | None = None,
    seed: int = 0,
) -> list[Ranking]:
    return [
        rank_features(dataset, method, bins=bins,
                      relieff_k=relieff_k, relieff_m=relieff_m, seed=seed)
        for method in RANKER_NAMES
    ]


def consensus_rank(rankings: Sequence[Ranking], top_n: int = 8) -> list[tuple[str, int, float]]:
    """Features ordered by how often they land in each ranking's top_n.

    Returns (feature, occurrence count, mean rank) tuples; ties are broken by
    mean rank across all rankings, then by schema order.
    """
    if not rankings:
        raise ValueError("at least one ranking is required")
    votes = {name: 0 for name in FEATURE_NAMES}
    rank_sums = {name: 0.0 for name in FEATURE_NAMES}
    for ranking in rankings:
        for pos, (name, _) in enumerate(ranking.entries):
            rank_sums[name] += pos + 1
            if pos < top_n:
                votes[name] += 1
    mean_rank = {name: rank_sums[name] / len(rankings) for name in FEATURE_NAMES}
    order = sorted(
        range(len(FEATURE_NAMES)),
        key=lambda i: (-votes[FEATURE_NAMES[i]], mean_rank[FEATURE_NAMES[i]], i),
    )
    return [(FEATURE_NAMES[i], votes[FEATURE_NAMES[i]], mean_rank[FEATURE_NAMES[i]])
            for i in order]
