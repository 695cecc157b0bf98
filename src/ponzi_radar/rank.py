"""Feature relevance ranking: four entropy/rule rankers plus ReliefF.

The entropy-based rankers (information gain, gain ratio, symmetrical
uncertainty) and OneR work on discretized columns; discretization is
equal-frequency binning with cut points snapped to the nearest boundary
between distinct values, so heavily tied columns simply produce fewer bins.
`rank_features` counts each column's (bin, class) table with one bincount,
and the four scorers read that table alone; OneR's score is the sum of each
bin's largest class count, over n. The tables of the last (X, y, bins)
ranked are kept, keyed by X's and y's exact bytes, so the four table
rankers of one `rank` run discretize each column once between them.

ReliefF works on min-max normalized numeric columns directly, in blocks of
sampled rows, and returns the weights alone. Per class, a block's L1
distances are summed in float32, one feature at a time; every member within
EPS of a row's approximate k-th distance is a candidate, found by one flat
scan of the block's (rows x members) mask, and the candidates' exact
float64 row-wise distances pick and order the k neighbours. Means and
weights are summed in the order of the per-row loop this replaced, so the
weights are bit-identical to it (README, "How ReliefF is computed"). The
blocks are independent, so they go to the pool that cross-validation uses
(`share.share`), whose forked children read Z and the class columns from the
memory they share with this process and send back their blocks' row
differences. Those rows are added into the weights in sample order here, so
the weights are the same for any worker count.

The window EPS. With F = 20 features, Z lies in [0, 1], so rounding a value
to float32 moves it by at most 2**-25, and each float32 term |Z[j] - Z[i]|
is off by at most 3 * 2**-25 (two inputs and the subtraction). The first of
the F additions into a zero sum is exact; the other F - 1 have partial sums
below 32 and round by at most 2**-20 each. So each approximate distance lies
within d = 3F * 2**-25 + (F - 1) * 2**-20 (about 2.0e-5) of the true one,
and the float64 exact distance within (F - 1) * F * 2**-53 + F * 2**-54
(under 5e-14) of it. A true neighbour's approximate distance is then at most
the approximate k-th plus 2d plus twice the float64 error, and rounding
`kth + EPS` to float32 takes off at most another 2**-20: 4.1e-5 in all,
which EPS = 1e-4 covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import share
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
    sorted_v = np.sort(v)
    boundaries = np.nonzero(sorted_v[:-1] != sorted_v[1:])[0] + 1  # cut before this pos
    if len(boundaries) == 0:
        return np.zeros(n, dtype=np.int64)
    desired = np.arange(1, bins) * n / bins
    # The nearest boundary to each desired position, the lower one on a tie.
    above = np.searchsorted(boundaries, desired)
    lower = boundaries[np.maximum(above - 1, 0)]
    upper = boundaries[np.minimum(above, len(boundaries) - 1)]
    nearest = np.where(np.abs(lower - desired) <= np.abs(upper - desired), lower, upper)
    # Ties never straddle a boundary, so a value's bin is the number of cut
    # values at or below it.
    return np.searchsorted(sorted_v[np.unique(nearest)], v, side="right")


def _entropy_of_counts(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log2(p)).sum())


def _info_gain(table: np.ndarray) -> float:
    """H(Y) - H(Y | X) in bits."""
    n = table.sum()
    h_y = _entropy_of_counts(table.sum(axis=0))
    h_y_given_x = 0.0
    for row in table:
        h_y_given_x += row.sum() / n * _entropy_of_counts(row)
    ig = h_y - h_y_given_x
    return max(ig, 0.0)  # clamp tiny negative float residue


def _gain_ratio(table: np.ndarray) -> float:
    h_x = _entropy_of_counts(table.sum(axis=1))
    if h_x == 0.0:
        return 0.0
    return _info_gain(table) / h_x


def _sym_uncertainty(table: np.ndarray) -> float:
    h_x = _entropy_of_counts(table.sum(axis=1))
    h_y = _entropy_of_counts(table.sum(axis=0))
    if h_x + h_y == 0.0:
        return 0.0
    return 2.0 * _info_gain(table) / (h_x + h_y)


def _one_r(table: np.ndarray) -> float:
    return int(table.max(axis=1).sum()) / int(table.sum())


_TABLE_SCORERS = {
    "info_gain": _info_gain,
    "gain_ratio": _gain_ratio,
    "sym_uncertainty": _sym_uncertainty,
    "one_r": _one_r,
}


# Every true neighbour lies within EPS of the approximate float32 k-th
# distance; the module docstring derives the 4.1e-5 that EPS must cover.
_EPS = 1e-4
# Distance cells per class in one block of sampled rows (16 rows at 6 000).
_BLOCK_CELLS = 100_000


def relieff(
    dataset: Dataset, k: int = 10, m: int | None = None, seed: int = 0
) -> np.ndarray:
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

    _, cls, class_counts = np.unique(y, return_inverse=True, return_counts=True)
    priors = class_counts / n
    members = [np.nonzero(cls == c)[0] for c in range(len(class_counts))]
    columns = [np.ascontiguousarray(Z[rows].T, dtype=np.float32) for rows in members]
    # A row alone in its class has no hits and contributes nothing.
    active = sample[class_counts[cls[sample]] > 1]
    block = max(1, _BLOCK_CELLS // (n + min(k, n) * n_feat))

    def work(b: int) -> np.ndarray:
        rows = active[b * block:(b + 1) * block]
        own = cls[rows]
        near = Z[rows].astype(np.float32)
        hit_diff = np.empty((len(rows), n_feat))
        miss_diff = np.zeros((len(rows), n_feat))
        for c, (mem, cols) in enumerate(zip(members, columns)):
            hit = own == c
            kk = np.where(hit, min(k, len(mem) - 1), min(k, len(mem)))
            # the module global, looked up per call, so a wrapped one sees every block
            means = _neighbour_means(Z, rows, near, hit, mem, cols, kk)
            hit_diff[hit] = means[hit]
            miss = ~hit
            w_c = priors[c] / (1.0 - priors[own[miss]])
            miss_diff[miss] += w_c[:, None] * means[miss]
        return miss_diff - hit_diff

    n_blocks = -(-len(active) // block)
    weights = np.zeros(n_feat, dtype=np.float64)
    for diffs in share.share(work, n_blocks):
        for diff in diffs:  # one row at a time, in sample order
            weights += diff
    weights /= len(sample)
    return weights


def _neighbour_means(Z, rows, near, hit, members, columns, kk) -> np.ndarray:
    """Mean |Z[j] - Z[i]| over the kk nearest members j of each row i, i ≠ j.

    `near` and `columns` are the rows' and the members' Z in float32.
    Distances are accumulated in float32, one feature at a time; every member
    within EPS of a row's approximate kk-th distance is a candidate, and
    candidates are ordered by the exact float64 row-wise distance, then by
    index.
    """
    dist = np.zeros((len(rows), len(members)), dtype=np.float32)
    term = np.empty_like(dist)
    for f, col in enumerate(columns):
        np.subtract(col, near[:, f, None], out=term)
        dist += np.abs(term, out=term)
    self_rows = np.nonzero(hit)[0]
    dist[self_rows, np.searchsorted(members, rows[self_rows])] = np.inf
    term[...] = dist
    term.partition(np.unique(kk) - 1, axis=1)
    kth = term[np.arange(len(rows)), kk - 1]
    r, j = np.divmod(np.flatnonzero(dist <= (kth + _EPS)[:, None]), len(members))
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
    if len(dataset) == 0:
        raise DataError("dataset has no rows")
    if method == "relieff":
        return _to_ranking(method, relieff(dataset, k=relieff_k, m=relieff_m, seed=seed))
    scorer = _TABLE_SCORERS[method]
    return _to_ranking(method, [scorer(table) for table in _tables_of(dataset.X, dataset.y, bins)])


# The (bin, class) tables of the last (X, y, bins) ranked, as at most one
# (key, tables) pair. The key holds X's and y's exact bytes, so a dataset
# edited in place, or any other one, builds its own tables.
_tables: list[tuple[tuple, list[np.ndarray]]] = []


def _tables_of(X: np.ndarray, y: np.ndarray, bins: int) -> list[np.ndarray]:
    """Each column's (bin, class) counts, one bincount per column."""
    key = (X.shape, X.tobytes(), y.shape, y.tobytes(), bins)
    for kept, tables in _tables:
        if kept == key:
            return tables
    present = np.bincount(y, minlength=2) > 0  # a class that never occurs has no column
    tables = []
    for col in X.T:
        bins_of = discretize(col, bins)
        cells = np.bincount(2 * bins_of + y, minlength=2 * (bins_of.max() + 1))
        tables.append(cells.reshape(-1, 2)[:, present])
    _tables[:] = [(key, tables)]
    return tables


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
