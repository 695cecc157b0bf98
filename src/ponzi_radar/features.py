"""Per-cluster behavioral features.

A cluster is treated as one super-address: money entering from outside is an
incoming event, money leaving is an outgoing event, and transactions fully
internal to the cluster contribute nothing. Exact definitions, units and the
column order of the v1 schema are documented in FEATURES.md.

All features are total functions: degenerate cases (no events, no outgoing
transactions, single-day lifetime, ...) produce the documented sentinel 0
rather than NaN, so downstream classifiers never see missing values.

Ledgers and features are computed for all clusters at once, on arrays.
`build_all_ledgers`, the one builder of a `LedgerBatch`, sums the inputs and
outputs of each (transaction, cluster) pair, drops fully internal
transactions and sorts the events by (cluster, transaction); a
`ClusterLedger` is a view of one cluster of that batch. The first
`extract_features` call then reduces the events of every cluster into the
feature columns with segment reductions. The arithmetic is exact:

- Integer sums run in int64 while the total magnitude of the values is
  below 2**62, and on Python ints otherwise (`chain.exact_ints`). Timestamps
  lie within (-2**62, 2**62), so every delay fits in int64.
- Means divide one exact integer sum by a count: `math.fsum` of integers up
  to 2**53, as in the per-cluster definition, equals the float of their
  exact sum, so the division is the same IEEE operation.
- The Gini numerator sum_i (2i - n - 1) x_(i) is summed in int64 while
  (n - 1) * sum(x) <= 2**52: then every term is exact in float64 and the
  int64 sum cannot overflow, so `fsum` of the terms equals the float of the
  int64 sum. Other clusters go through `gini` itself.
- Standard deviations keep `math.fsum` of rounded float squares per cluster.

An integer feature above 2**53 raises DataError when that cluster's row is
asked for.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence, get_type_hints

import numpy as np

from .chain import TxLog, exact_ints, segment_reduce, segment_starts
from .clustering import ClusterSet
from .errors import DataError

SCHEMA_VERSION = "v1"

# Integer features above this would not stay exact in a float64 matrix.
MAX_EXACT_INT = 2**53

SECONDS_PER_DAY = 86_400


class FeatureVector(NamedTuple):
    """One cluster's features, in the column order of the v1 schema.

    Changing the fields or their order changes the schema.
    """

    n_addr: int
    lifetime_days: int
    activity_days: int
    max_daily_tx: int
    gini_in: float
    gini_out: float
    sum_in: int
    sum_out: int
    count_in: int
    count_out: int
    in_share: float
    avg_in: float
    std_in: float
    avg_out: float
    std_out: float
    paid_back_addrs: int
    delay_min: int
    delay_max: int
    delay_avg: float
    max_daily_balance_delta: int


FEATURE_NAMES: tuple[str, ...] = FeatureVector._fields
# get_type_hints, not __annotations__: with postponed annotations the latter
# holds unresolved forward references, which no `is int` test would match.
INT_FEATURES: frozenset[str] = frozenset(
    name for name, kind in get_type_hints(FeatureVector).items() if kind is int)


def gini(values: Sequence[float] | Sequence[int]) -> float:
    """Inequality of a set of non-negative values, on [0, 1].

    Computed as sum_i sum_j |x_i - x_j| / (2 n sum(x)). 0 means all values
    equal; the upper bound for n values is 1 - 1/n. By convention an empty or
    all-zero list scores 0 (the undefined-feature sentinel).
    """
    n = len(values)
    if n == 0:
        return 0.0
    if any(v < 0 for v in values):
        raise ValueError("gini is defined for non-negative values only")
    ordered = sorted(values)
    total = math.fsum(ordered)
    if total == 0:
        return 0.0
    # Equivalent to the pairwise double sum: sum_i (2i - n - 1) x_(i), 1-based.
    weighted = math.fsum((2 * i - n - 1) * x for i, x in enumerate(ordered, start=1))
    return weighted / (n * total)


@dataclass(frozen=True, slots=True)
class LedgerEvent:
    timestamp: int
    txid: str
    amount: int
    counterparts: frozenset[str]


class _Side:
    """The events of one direction for many clusters, sorted by (cluster, tx).

    `tx` is a transaction key, an index into the batch's txids: the
    transaction's position in the log. `start[c]:start[c + 1]` are cluster
    `c`'s events. Counterpart pair k names address `pair_addr[k]` as one on
    the other side of event `pair_event[k]`'s transaction; pairs are in event
    order and an address may repeat.
    """

    __slots__ = ("cluster", "tx", "time", "amount", "start", "pair_event", "pair_addr")

    def __init__(self, n_clusters: int, cluster: np.ndarray, tx: np.ndarray, time: np.ndarray,
                 amount: np.ndarray, pair_event: np.ndarray, pair_addr: np.ndarray):
        self.cluster, self.tx, self.time, self.amount = cluster, tx, time, amount
        self.start = segment_starts(np.bincount(cluster, minlength=n_clusters))
        self.pair_event, self.pair_addr = pair_event, pair_addr


class LedgerBatch(Mapping):
    """The ledgers of many clusters as event arrays: cluster index -> ClusterLedger.

    The ledgers it hands out are views that build their event tuples only
    when read. The feature columns of every cluster are computed together,
    on the first `features` call.
    """

    def __init__(self, n_clusters: int, incoming: _Side, outgoing: _Side,
                 txids: Sequence[str], names: Sequence[str]):
        self.n_clusters = n_clusters
        self.incoming, self.outgoing = incoming, outgoing
        self._txids, self._names = txids, names
        self._rows: list[tuple] | None = None  # computed on first use
        self._over: list[str] = []

    def __getitem__(self, ci: int) -> "ClusterLedger":
        if not isinstance(ci, (int, np.integer)) or not 0 <= ci < self.n_clusters:
            raise KeyError(ci)
        return ClusterLedger(self, int(ci))

    def __len__(self) -> int:
        return self.n_clusters

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n_clusters))

    def events(self, ci: int, incoming: bool) -> tuple[LedgerEvent, ...]:
        """Cluster `ci`'s incoming or outgoing events, in log order."""
        side = self.incoming if incoming else self.outgoing
        lo, hi = side.start[ci:ci + 2].tolist()
        first, last = np.searchsorted(side.pair_event, [lo, hi]).tolist()
        others: dict[int, set[str]] = {}
        for k, addr in zip(side.pair_event[first:last].tolist(),
                           side.pair_addr[first:last].tolist()):
            others.setdefault(k, set()).add(self._names[addr])
        return tuple(
            LedgerEvent(t, self._txids[x], amount, frozenset(others.get(k, ())))
            for k, x, t, amount in zip(range(lo, hi), side.tx[lo:hi].tolist(),
                                       side.time[lo:hi].tolist(), side.amount[lo:hi].tolist())
        )

    def features(self, ci: int, n_addr: int) -> FeatureVector:
        """Cluster `ci`'s feature vector; DataError if an integer feature is above 2**53."""
        if self._rows is None:
            self._compute()
        over = "n_addr" if n_addr > MAX_EXACT_INT else self._over[ci]
        if over:
            raise DataError(f"feature {over} is above 2**53, the bound of integer features")
        return FeatureVector(n_addr, *self._rows[ci])

    def _compute(self) -> None:
        """Every cluster's features but `n_addr` in schema order, and per
        cluster the first integer feature above 2**53 ("" when none)."""
        columns = _feature_columns(self)
        over = np.full(self.n_clusters, "", dtype=object)
        for name in reversed([n for n in FEATURE_NAMES[1:] if n in INT_FEATURES]):
            over[columns[name] > MAX_EXACT_INT] = name
        self._rows = list(zip(*(columns[name].tolist() for name in FEATURE_NAMES[1:])))
        self._over = over.tolist()


class ClusterLedger:
    """Money movements of one cluster, aggregated per transaction.

    incoming: one event per transaction that pays the cluster from outside
    (amount = sum of outputs to cluster members, counterparts = the paying
    input addresses). outgoing: one event per transaction that spends cluster
    outputs (amount = sum of cluster-owned input values, counterparts = the
    non-cluster output addresses). A transaction can appear in both lists when
    it spends cluster coins and also pays the cluster (e.g. change).

    A ledger is a view of cluster `ci` of a `LedgerBatch`, handed out by
    `batch[ci]`; its events are built only when read.
    """

    __slots__ = ("_batch", "_ci")

    def __init__(self, batch: LedgerBatch, ci: int):
        self._batch, self._ci = batch, ci

    @property
    def incoming(self) -> tuple[LedgerEvent, ...]:
        return self._batch.events(self._ci, incoming=True)

    @property
    def outgoing(self) -> tuple[LedgerEvent, ...]:
        return self._batch.events(self._ci, incoming=False)


def _per_tx_cluster(tx: np.ndarray, cluster: np.ndarray,
                    values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (tx, cluster) pairs, in that order, and the sum of values of each."""
    order = np.lexsort((cluster, tx))
    tx, cluster = tx[order], cluster[order]
    first = np.ones(len(tx), dtype=bool)
    first[1:] = (tx[1:] != tx[:-1]) | (cluster[1:] != cluster[:-1])
    starts = np.append(np.flatnonzero(first), len(tx))
    return tx[starts[:-1]], cluster[starts[:-1]], segment_reduce(np.add, values[order], starts)


def _only_cluster(tx: np.ndarray, cluster: np.ndarray, n_tx: int) -> np.ndarray:
    """Per transaction, its one cluster among the (tx, cluster) pairs, or -1."""
    only = np.full(n_tx, -1, dtype=np.int64)
    only[tx] = cluster
    only[np.bincount(tx, minlength=n_tx) != 1] = -1
    return only


def _log_side(n_clusters: int, time: np.ndarray, tx: np.ndarray, cluster: np.ndarray,
              amount: np.ndarray, item_start: np.ndarray, item_addr: np.ndarray,
              item_cluster: np.ndarray) -> _Side:
    """Events in (tx, cluster) order, with the items (addresses on the other side
    of each tx, `item_start[t]:item_start[t + 1]`) of other clusters as counterparts."""
    order = np.argsort(cluster, kind="stable")
    tx, cluster, amount = tx[order], cluster[order], amount[order]
    lo = item_start[tx]
    n = item_start[tx + 1] - lo
    event = np.repeat(np.arange(len(tx)), n)
    item = np.arange(len(event)) - np.repeat(np.cumsum(n) - n, n) + lo[event]
    other = item_cluster[item] != cluster[event]
    return _Side(n_clusters, cluster, tx, time[tx], amount, event[other], item_addr[item[other]])


def build_all_ledgers(log: TxLog, clusters: ClusterSet) -> LedgerBatch:
    """The ledger of every cluster, from one pass over the log's arrays.

    Inputs and outputs are summed per (transaction, cluster); a transaction
    whose outputs all go to one cluster that also owns all its resolved
    inputs is fully internal and makes no events.
    """
    n_clusters, n_tx = clusters.n_clusters, len(log)
    index_of = clusters.index_of
    cluster_of = np.array([index_of[addr] for addr in log.addresses], dtype=np.int64)
    resolved = np.flatnonzero(log.in_addr >= 0)
    in_tx, in_addr = log.in_tx[resolved], log.in_addr[resolved]
    in_cluster, out_cluster = cluster_of[in_addr], cluster_of[log.out_addr]
    in_value, out_value = exact_ints(log.in_value[resolved], log.out_value)

    spend_tx, spend_cluster, spent = _per_tx_cluster(in_tx, in_cluster, in_value)
    pay_tx, pay_cluster, paid = _per_tx_cluster(log.out_tx, out_cluster, out_value)
    only_in = _only_cluster(spend_tx, spend_cluster, n_tx)
    only_out = _only_cluster(pay_tx, pay_cluster, n_tx)
    external = (only_out < 0) | (only_in != only_out)
    pays, spends = external[pay_tx], external[spend_tx]

    in_start = segment_starts(np.bincount(in_tx, minlength=n_tx))
    incoming = _log_side(n_clusters, log.time, pay_tx[pays], pay_cluster[pays], paid[pays],
                         in_start, in_addr, in_cluster)
    outgoing = _log_side(n_clusters, log.time, spend_tx[spends], spend_cluster[spends],
                         spent[spends], log.out_start, log.out_addr, out_cluster)
    return LedgerBatch(n_clusters, incoming, outgoing, log.txids, log.addresses)


def _gini_column(side: _Side, amount: np.ndarray, count: np.ndarray,
                 total: np.ndarray) -> np.ndarray:
    """`gini` of each cluster's amounts; see the module docstring for exactness."""
    order = np.argsort(amount, kind="stable")
    order = order[np.argsort(side.cluster[order], kind="stable")]
    total_f = total.astype(np.float64)
    fast = ((count - 1) * total_f <= 2.0**52) & (segment_reduce(np.minimum, amount, side.start) >= 0)
    x = np.where(np.repeat(fast, count), amount[order], 0)
    rank = np.arange(len(x)) - np.repeat(side.start[:-1], count)
    weights = 2 * rank + 1 - np.repeat(count, count)
    weighted = segment_reduce(np.add, weights * x, side.start).astype(np.float64)
    out = np.divide(weighted, count * total_f, out=np.zeros(len(count)), where=total_f > 0)
    for c in np.flatnonzero(~fast).tolist():
        out[c] = gini(amount[side.start[c]:side.start[c + 1]].tolist())
    return out


def _mean_std_columns(side: _Side, amount: np.ndarray, count: np.ndarray,
                      total: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population standard deviation of each cluster's amounts."""
    mean = np.divide(total.astype(np.float64), count, out=np.zeros(len(count)),
                     where=count > 0)
    std = np.zeros(len(count))
    values = amount.tolist()
    several = np.flatnonzero(count > 1)
    for c, lo, hi, m in zip(several.tolist(), side.start[several].tolist(),
                            side.start[several + 1].tolist(), mean[several].tolist()):
        std[c] = math.sqrt(math.fsum([(a - m) ** 2 for a in values[lo:hi]]) / (hi - lo))
    return mean, std


def _paid_back_column(batch: LedgerBatch) -> np.ndarray:
    """Per cluster, the addresses whose first payment in precedes a payment out."""
    n_names = max(len(batch._names), 1)

    def keyed(side: _Side, last: bool) -> tuple[np.ndarray, np.ndarray]:
        key = side.cluster[side.pair_event] * n_names + side.pair_addr
        time = side.time[side.pair_event]
        order = np.lexsort((time, key))
        key, time = key[order], time[order]
        edge = np.ones(len(key), dtype=bool)
        if last:
            edge[:-1] = key[1:] != key[:-1]
        else:
            edge[1:] = key[1:] != key[:-1]
        return key[edge], time[edge]

    payer, first_in = keyed(batch.incoming, last=False)
    payee, last_out = keyed(batch.outgoing, last=True)
    both, i, j = np.intersect1d(payer, payee, assume_unique=True, return_indices=True)
    paid_back = both[first_in[i] < last_out[j]] // n_names
    return np.bincount(paid_back, minlength=batch.n_clusters)


def _feature_columns(batch: LedgerBatch) -> dict[str, np.ndarray]:
    """Every cluster's features but `n_addr`, one array per column."""
    n_clusters, inc, out = batch.n_clusters, batch.incoming, batch.outgoing
    in_amount, out_amount = exact_ints(inc.amount, out.amount)
    count_in, count_out = np.diff(inc.start), np.diff(out.start)
    sum_in = segment_reduce(np.add, in_amount, inc.start)
    sum_out = segment_reduce(np.add, out_amount, out.start)
    columns: dict[str, np.ndarray] = dict(
        gini_in=_gini_column(inc, in_amount, count_in, sum_in),
        gini_out=_gini_column(out, out_amount, count_out, sum_out),
        sum_in=sum_in, sum_out=sum_out, count_in=count_in, count_out=count_out,
        in_share=np.divide(count_in, count_in + count_out, out=np.zeros(n_clusters),
                           where=count_in + count_out > 0),
        paid_back_addrs=_paid_back_column(batch),
    )
    columns["avg_in"], columns["std_in"] = _mean_std_columns(inc, in_amount, count_in, sum_in)
    columns["avg_out"], columns["std_out"] = _mean_std_columns(out, out_amount, count_out, sum_out)

    # Calendar features over the events of both directions, per (cluster, day).
    cluster = np.concatenate((inc.cluster, out.cluster))
    time = np.concatenate((inc.time, out.time))
    tx = np.concatenate((inc.tx, out.tx))
    day = time // SECONDS_PER_DAY
    order = np.lexsort((tx, day, cluster))
    c, d, tx = cluster[order], day[order], tx[order]
    new_day = np.ones(len(c), dtype=bool)
    new_day[1:] = (c[1:] != c[:-1]) | (d[1:] != d[:-1])
    new_tx = new_day.copy()
    new_tx[1:] |= tx[1:] != tx[:-1]
    day_starts = np.append(np.flatnonzero(new_day), len(c))
    day_cluster, day_of = c[day_starts[:-1]], d[day_starts[:-1]]
    by_cluster = segment_starts(np.bincount(day_cluster, minlength=n_clusters))
    activity_days = np.diff(by_cluster)
    net = np.concatenate((in_amount, -out_amount))[order]
    # A day's end-of-day balance minus the previous day's is that day's net
    # flow, and a quiet day's is 0: the largest delta over the event span is
    # the largest absolute net flow of an event day after the first.
    after_first = np.ones(len(day_cluster), dtype=bool)
    after_first[by_cluster[:-1][activity_days > 0]] = False
    delta = np.where(after_first, np.abs(segment_reduce(np.add, net, day_starts)), 0)
    last_day = np.zeros(n_clusters, dtype=np.int64)
    last_day[activity_days > 0] = day_of[by_cluster[1:][activity_days > 0] - 1]
    first_in_day = segment_reduce(np.minimum, inc.time // SECONDS_PER_DAY, inc.start)
    columns.update(
        lifetime_days=np.where(count_in > 0, last_day - first_in_day, 0),
        activity_days=activity_days,
        max_daily_tx=segment_reduce(
            np.maximum, segment_reduce(np.add, new_tx.astype(np.int64), day_starts), by_cluster),
        max_daily_balance_delta=segment_reduce(np.maximum, delta, by_cluster),
    )

    # Delay of each outgoing event behind the latest incoming at or before it.
    outgoing = np.concatenate((np.zeros(len(inc.time), dtype=bool),
                               np.ones(len(out.time), dtype=bool)))
    order = np.lexsort((outgoing, time, cluster))
    c, t, is_out = cluster[order], time[order], outgoing[order]
    latest_in = np.maximum.accumulate(np.where(is_out, -1, np.arange(len(c))))
    paired = is_out & (latest_in >= 0)
    paired[paired] = c[latest_in[paired]] == c[paired]
    delay = t[paired] - t[latest_in[paired]]
    delay_start = segment_starts(np.bincount(c[paired], minlength=n_clusters))
    n_delays = np.diff(delay_start)
    (exact_delay,) = exact_ints(delay)
    columns.update(
        delay_min=segment_reduce(np.minimum, delay, delay_start),
        delay_max=segment_reduce(np.maximum, delay, delay_start),
        delay_avg=np.divide(segment_reduce(np.add, exact_delay, delay_start).astype(np.float64),
                            n_delays, out=np.zeros(n_clusters), where=n_delays > 0),
    )
    return columns


def extract_features(ledger: ClusterLedger, n_addr: int) -> FeatureVector:
    """Compute the full v1 feature vector of a cluster ledger.

    Lifetime runs from the UTC date of the first incoming event to the date
    of the last event in either direction. Delays pair each outgoing event
    with the latest incoming event at or before it; outgoing events with no
    earlier incoming are skipped. Daily balances are end-of-UTC-day
    cumulative net flow, and the balance delta is the largest absolute
    day-over-day change within the lifetime. An integer feature above 2**53
    raises DataError, as float64 matrices could not hold it exactly.

    The row comes from the ledger's batch, whose columns are computed once
    for all its clusters.
    """
    return ledger._batch.features(ledger._ci, n_addr)


def cluster_feature_table(log: TxLog, clusters: ClusterSet) -> dict[int, FeatureVector]:
    """Feature vector of every cluster, keyed by cluster id in id order: the
    mapping that `dataset.write_features_csv` and `dataset.assemble` take."""
    batch = build_all_ledgers(log, clusters)
    return {ci: batch.features(ci, len(members)) for ci, members in enumerate(clusters.members)}
