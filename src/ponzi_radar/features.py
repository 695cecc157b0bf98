"""Per-cluster behavioral features.

A cluster is treated as one super-address: money entering from outside is an
incoming event, money leaving is an outgoing event, and transactions fully
internal to the cluster contribute nothing. Exact definitions, units and the
column order of the v1 schema are documented in FEATURES.md.

All features are total functions: degenerate cases (no events, no outgoing
transactions, single-day lifetime, ...) produce the documented sentinel 0
rather than NaN, so downstream classifiers never see missing values.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Sequence

from .chain import TxLog
from .clustering import ClusterSet

SCHEMA_VERSION = "v1"

# Column order of the v1 feature schema. Changing this changes the schema.
FEATURE_NAMES: tuple[str, ...] = (
    "n_addr",
    "lifetime_days",
    "activity_days",
    "max_daily_tx",
    "gini_in",
    "gini_out",
    "sum_in",
    "sum_out",
    "count_in",
    "count_out",
    "in_share",
    "avg_in",
    "std_in",
    "avg_out",
    "std_out",
    "paid_back_addrs",
    "delay_min",
    "delay_max",
    "delay_avg",
    "max_daily_balance_delta",
)

INT_FEATURES: frozenset[str] = frozenset({
    "n_addr", "lifetime_days", "activity_days", "max_daily_tx",
    "sum_in", "sum_out", "count_in", "count_out", "paid_back_addrs",
    "delay_min", "delay_max", "max_daily_balance_delta",
})

SECONDS_PER_DAY = 86_400


@dataclass(frozen=True, slots=True)
class FeatureVector:
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

    def as_tuple(self) -> tuple:
        return _feature_row(self)


assert tuple(f.name for f in fields(FeatureVector)) == FEATURE_NAMES
_feature_row = attrgetter(*FEATURE_NAMES)


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


@dataclass(frozen=True, slots=True)
class ClusterLedger:
    """Money movements of one cluster, aggregated per transaction.

    incoming: one event per transaction that pays the cluster from outside
    (amount = sum of outputs to cluster members, counterparts = the paying
    input addresses). outgoing: one event per transaction that spends cluster
    outputs (amount = sum of cluster-owned input values, counterparts = the
    non-cluster output addresses). A transaction can appear in both lists when
    it spends cluster coins and also pays the cluster (e.g. change).
    """

    incoming: tuple[LedgerEvent, ...]
    outgoing: tuple[LedgerEvent, ...]


def build_ledger(log: TxLog, clusters: ClusterSet, index: int) -> ClusterLedger:
    if not 0 <= index < clusters.n_clusters:
        raise ValueError(f"cluster index out of range: {index}")
    return build_all_ledgers(log, clusters, only={index})[index]


_NO_ADDRS: frozenset[str] = frozenset()


def _others(addrs_by_cluster: dict[int, set[str]], ci: int) -> frozenset[str]:
    """The addresses of every cluster but `ci`: the counterparts of its event."""
    if len(addrs_by_cluster) == 1:
        (cj, addrs), = addrs_by_cluster.items()
        return _NO_ADDRS if cj == ci else frozenset(addrs)
    return frozenset(a for cj, addrs in addrs_by_cluster.items() if cj != ci for a in addrs)


def build_all_ledgers(
    log: TxLog, clusters: ClusterSet, only: set[int] | None = None
) -> dict[int, ClusterLedger]:
    """One pass over the log building the ledger of every (selected) cluster."""
    incoming: dict[int, list[LedgerEvent]] = {}
    outgoing: dict[int, list[LedgerEvent]] = {}
    idx_of = clusters.index_of

    for tx in log.transactions:
        in_by_cluster: dict[int, int] = {}
        in_addrs_by_cluster: dict[int, set[str]] = {}
        for txin in tx.inputs:
            if txin.addr is None:
                continue
            ci = idx_of[txin.addr]
            in_by_cluster[ci] = in_by_cluster.get(ci, 0) + txin.value
            in_addrs_by_cluster.setdefault(ci, set()).add(txin.addr)
        out_by_cluster: dict[int, int] = {}
        out_addrs_by_cluster: dict[int, set[str]] = {}
        for txout in tx.outputs:
            ci = idx_of[txout.addr]
            out_by_cluster[ci] = out_by_cluster.get(ci, 0) + txout.value
            out_addrs_by_cluster.setdefault(ci, set()).add(txout.addr)

        if len(out_by_cluster) == 1 and in_by_cluster.keys() == out_by_cluster.keys():
            continue  # fully internal: no events
        for ci, amount in out_by_cluster.items():
            if only is None or ci in only:
                incoming.setdefault(ci, []).append(LedgerEvent(
                    tx.timestamp, tx.txid, amount, _others(in_addrs_by_cluster, ci)))
        for ci, amount in in_by_cluster.items():
            if only is None or ci in only:
                outgoing.setdefault(ci, []).append(LedgerEvent(
                    tx.timestamp, tx.txid, amount, _others(out_addrs_by_cluster, ci)))

    wanted = only if only is not None else range(clusters.n_clusters)
    return {
        ci: ClusterLedger(tuple(incoming.get(ci, ())), tuple(outgoing.get(ci, ())))
        for ci in wanted
    }


def paid_back_count(ledger: ClusterLedger) -> int:
    """Addresses that paid the cluster and strictly later got paid by it."""
    first_paid_in: dict[str, int] = {}
    for ev in ledger.incoming:
        for addr in ev.counterparts:
            if addr not in first_paid_in or ev.timestamp < first_paid_in[addr]:
                first_paid_in[addr] = ev.timestamp
    paid_back: set[str] = set()
    for ev in ledger.outgoing:
        for addr in ev.counterparts:
            t_in = first_paid_in.get(addr)
            if t_in is not None and ev.timestamp > t_in:
                paid_back.add(addr)
    return len(paid_back)


def _mean_std(amounts: Sequence[int]) -> tuple[float, float]:
    if not amounts:
        return 0.0, 0.0
    n = len(amounts)
    mean = math.fsum(amounts) / n
    var = math.fsum((a - mean) ** 2 for a in amounts) / n  # population variance
    return mean, math.sqrt(var)


def extract_features(ledger: ClusterLedger, n_addr: int) -> FeatureVector:
    """Compute the full v1 feature vector of a cluster ledger.

    Lifetime runs from the UTC date of the first incoming event to the date
    of the last event in either direction. Delays pair each outgoing event
    with the latest incoming event at or before it; outgoing events with no
    earlier incoming are skipped. Daily balances are end-of-UTC-day
    cumulative net flow, and the balance delta is the largest absolute
    day-over-day change within the lifetime.
    """
    events = sorted(
        ledger.incoming + ledger.outgoing, key=lambda e: (e.timestamp, e.txid)
    )
    in_amounts = [e.amount for e in ledger.incoming]
    out_amounts = [e.amount for e in ledger.outgoing]
    count_in, count_out = len(in_amounts), len(out_amounts)

    # Calendar features on UTC epoch days.
    event_days = [e.timestamp // SECONDS_PER_DAY for e in events]
    activity_days = len(set(event_days))
    if ledger.incoming:
        first_in_day = min(e.timestamp // SECONDS_PER_DAY for e in ledger.incoming)
        lifetime_days = event_days[-1] - first_in_day if events else 0
    else:
        lifetime_days = 0

    max_daily_tx = 0
    if events:
        daily_tx: dict[int, set[str]] = {}
        for ev in events:
            daily_tx.setdefault(ev.timestamp // SECONDS_PER_DAY, set()).add(ev.txid)
        max_daily_tx = max(len(txids) for txids in daily_tx.values())

    # A day's end-of-day balance minus the previous day's is that day's net
    # flow, and a quiet day's is 0: the largest delta over the event span is
    # the largest absolute net flow of an event day after the first.
    max_delta = 0
    if events:
        net_by_day: dict[int, int] = {}
        for ev in ledger.incoming:
            d = ev.timestamp // SECONDS_PER_DAY
            net_by_day[d] = net_by_day.get(d, 0) + ev.amount
        for ev in ledger.outgoing:
            d = ev.timestamp // SECONDS_PER_DAY
            net_by_day[d] = net_by_day.get(d, 0) - ev.amount
        first_day = event_days[0]
        max_delta = max((abs(net) for d, net in net_by_day.items() if d != first_day),
                        default=0)

    # Delay of each outgoing event behind the latest incoming at or before it.
    delays: list[int] = []
    in_times = [e.timestamp for e in ledger.incoming]
    in_times.sort()
    for ev in ledger.outgoing:
        pos = bisect_right(in_times, ev.timestamp)
        if pos > 0:
            delays.append(ev.timestamp - in_times[pos - 1])
    if delays:
        delay_min, delay_max = min(delays), max(delays)
        delay_avg = math.fsum(delays) / len(delays)
    else:
        delay_min = delay_max = 0
        delay_avg = 0.0

    avg_in, std_in = _mean_std(in_amounts)
    avg_out, std_out = _mean_std(out_amounts)
    total_events = count_in + count_out
    in_share = count_in / total_events if total_events else 0.0

    return FeatureVector(
        n_addr=n_addr,
        lifetime_days=lifetime_days,
        activity_days=activity_days,
        max_daily_tx=max_daily_tx,
        gini_in=gini(in_amounts),
        gini_out=gini(out_amounts),
        sum_in=sum(in_amounts),
        sum_out=sum(out_amounts),
        count_in=count_in,
        count_out=count_out,
        in_share=in_share,
        avg_in=avg_in,
        std_in=std_in,
        avg_out=avg_out,
        std_out=std_out,
        paid_back_addrs=paid_back_count(ledger),
        delay_min=delay_min,
        delay_max=delay_max,
        delay_avg=delay_avg,
        max_daily_balance_delta=max_delta,
    )


def cluster_feature_table(log: TxLog, clusters: ClusterSet) -> list[FeatureVector]:
    """Feature vector of every cluster, indexed by cluster id."""
    ledgers = build_all_ledgers(log, clusters)
    return [
        extract_features(ledgers[i], len(clusters.members[i]))
        for i in range(clusters.n_clusters)
    ]
