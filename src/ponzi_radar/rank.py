"""Feature relevance ranking: four entropy/rule rankers plus ReliefF.

The entropy-based rankers (information gain, gain ratio, symmetrical
uncertainty) and OneR work on discretized columns; discretization is
equal-frequency binning with cut points snapped to the nearest boundary
between distinct values, so heavily tied columns simply produce fewer bins.
Their contingency tables come from one bincount over (bin, class) codes.

ReliefF works on min-max normalized numeric columns directly, in blocks of
sampled rows. Per class, a block's L1 distances are summed one feature at a
time; every member within EPS of a row's approximate k-th distance is a
candidate, and the candidates' exact row-wise distances pick and order the
k neighbours. Means and weights are summed in the order of the per-row loop
this replaced, so the weights are bit-identical to it (README, "How ReliefF
is computed").
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
    """Counts of each (x value, y value) pair, both in ascending order."""
    xs, xi = np.unique(x, return_inverse=True)
    ys, yi = np.unique(y, return_inverse=True)
    cells = np.bincount(xi * len(ys) + yi, minlength=len(xs) * len(ys))
    return cells.reshape(len(xs), len(ys))


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


# Two summation orders of 20 terms in [0, 1] differ by less than 1e-13, so a
# true neighbour is always within EPS of the approximate k-th distance.
_EPS = 1e-12
# Distance cells per class in one block of sampled rows (16 rows at 6 000).
_BLOCK_CELLS = 100_000


def relieff(
    dataset: Dataset, k: int = 10, m: int | None = None, seed: int = 0
) -> ReliefFResult:
    """ReliefF weights over min-max normalized features.

    For every sampled instance, the k nearest hits and (per other class) the
    k nearest misses pull each feature's weight down or up by the mean
    per-feature difference; miss contributions are weighted by class prior.
    Distance ties are broken by instance index. m is the number of sampled
    instances (default: all, in index order). Sampled rows are handled in
    blocks; see the module docstring.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if m is not None and m < 1:
        raise ValueError("m must be at least 1")
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

    classes, cls, class_counts = np.unique(y, return_inverse=True, return_counts=True)
    priors = class_counts / n
    notes = _relieff_notes(classes, class_counts, cls[sample], k)
    members = [np.nonzero(cls == c)[0] for c in range(len(classes))]
    columns = [np.ascontiguousarray(Z[rows].T) for rows in members]
    # A row alone in its class has no hits and contributes nothing.
    active = sample[class_counts[cls[sample]] > 1]
    block = max(1, _BLOCK_CELLS // (n + min(k, n) * n_feat))
    weights = np.zeros(n_feat, dtype=np.float64)
    for start in range(0, len(active), block):
        rows = active[start:start + block]
        own = cls[rows]
        hit_diff = np.empty((len(rows), n_feat))
        miss_diff = np.zeros((len(rows), n_feat))
        for c, (mem, cols) in enumerate(zip(members, columns)):
            hit = own == c
            kk = np.where(hit, min(k, len(mem) - 1), min(k, len(mem)))
            means = _neighbour_means(Z, rows, hit, mem, cols, kk)
            hit_diff[hit] = means[hit]
            miss = ~hit
            w_c = priors[c] / (1.0 - priors[own[miss]])
            miss_diff[miss] += w_c[:, None] * means[miss]
        for diff in miss_diff - hit_diff:  # one row at a time, in sample order
            weights += diff
    weights /= len(sample)
    return ReliefFResult(weights, notes)


def _relieff_notes(classes, class_counts, sample_cls, k) -> list[str]:
    """Notes for classes too small for k neighbours, in the order the sample meets them."""
    notes: list[str] = []
    short: set[int] = set()
    _, first = np.unique(sample_cls, return_index=True)
    for own in sample_cls[np.sort(first)].tolist():
        n_hits = class_counts[own] - 1
        if n_hits == 0:
            continue
        if n_hits < k and own not in short:
            short.add(own)
            notes.append(f"class {int(classes[own])}: fewer than k+1 members; "
                         f"using all {n_hits} hits")
        for c, count in enumerate(class_counts):
            if c != own and count < k and c not in short:
                short.add(c)
                notes.append(f"class {int(classes[c])}: fewer than k members; "
                             f"using all {count} misses")
    return notes


def _neighbour_means(Z, rows, hit, members, columns, kk) -> np.ndarray:
    """Mean |Z[j] - Z[i]| over the kk nearest members j of each row i, i ≠ j.

    Distances are accumulated one feature at a time; every member within EPS
    of a row's approximate kk-th distance is a candidate, and candidates are
    ordered by the exact row-wise distance, then by index.
    """
    dist = np.zeros((len(rows), len(members)))
    term = np.empty_like(dist)
    for f, col in enumerate(columns):
        np.subtract(col, Z[rows, f, None], out=term)
        dist += np.abs(term, out=term)
    self_rows = np.nonzero(hit)[0]
    dist[self_rows, np.searchsorted(members, rows[self_rows])] = np.inf
    term[...] = dist
    term.partition(np.unique(kk) - 1, axis=1)
    kth = term[np.arange(len(rows)), kk - 1]
    r, j = np.nonzero(dist <= (kth + _EPS)[:, None])
    cand = members[j]
    exact = np.empty(len(cand))
    step = max(1, _BLOCK_CELLS // Z.shape[1])
    for s in range(0, len(cand), step):
        part = slice(s, s + step)
        exact[part] = np.abs(Z[cand[part]] - Z[rows[r[part]]]).sum(axis=1)
    cand = cand[np.lexsort((cand, exact, r))]
    starts = np.searchsorted(r, np.arange(len(rows)))
    means = np.empty((len(rows), Z.shape[1]))
    for kv in np.unique(kk):
        g = np.nonzero(kk == kv)[0]
        nearest = cand[starts[g, None] + np.arange(kv)]
        means[g] = np.abs(Z[nearest] - Z[rows[g], None]).mean(axis=1)
    return means


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
