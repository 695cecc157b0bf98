"""The columnar ingest path against the per-object code it replaced, kept here
as references.

`reference_parse` builds every record as a Transaction, and
`reference_resolve` resolves each one through an OutPoint-keyed output map. `reference_clusters` interns address strings per transaction,
`reference_ledgers` walks each transaction into per-cluster LedgerEvents, and
`reference_features` is the per-cluster Python feature code, with
`reference_balance_delta` walking every calendar day of a lifetime. The
current code must give equal transactions, validation reports, clusters,
ledgers and feature vectors, and raise the same DataError for a row whose
integer feature is above 2**53.
"""

import bisect
import json
import math
import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from ponzi_radar import chain, features
from ponzi_radar.chain import (
    DanglingInput,
    DoubleSpend,
    LogBuilder,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
    ValidationReport,
    parse_tx_log,
    validate_tx_log,
)
from ponzi_radar.cli import main
from ponzi_radar.clustering import ClusterSet, UnionFind, build_clusters
from ponzi_radar.errors import DataError, ParseError
from ponzi_radar.features import (
    MAX_EXACT_INT,
    SECONDS_PER_DAY,
    ClusterLedger,
    FeatureVector,
    LedgerEvent,
    build_all_ledgers,
    extract_features,
)
from ponzi_radar.synth import SynthParams, generate

from conftest import canonical_lines, random_valid_log, tx_line, txid_of


# --- references -----------------------------------------------------------

def reference_record(obj, line):
    for key in ("txid", "time", "coinbase", "in", "out"):
        if key not in obj:
            raise ParseError(f"missing field: {key}", line)
    return Transaction(
        obj["txid"].lower(), obj["time"], obj["coinbase"],
        tuple(TxInput(OutPoint(e["tx"].lower(), e["idx"])) for e in obj["in"]),
        tuple(TxOutput(e["addr"], e["val"]) for e in obj["out"]),
    )


def reference_resolve(txs):
    ordered = sorted(txs, key=lambda tx: (tx.timestamp, tx.txid))
    outputs = {}  # op -> [addr, value, spent_by|None]
    dangling, extra_spenders, negative_fees, resolved = [], {}, [], []
    for tx in ordered:
        new_inputs, in_sum, fully_resolved = [], 0, True
        for i, txin in enumerate(tx.inputs):
            rec = outputs.get(txin.prev)
            if rec is None:
                dangling.append(DanglingInput(tx.txid, i, txin.prev))
                new_inputs.append(TxInput(txin.prev))
                fully_resolved = False
                continue
            addr, value, spent_by = rec
            if spent_by is None:
                rec[2] = tx.txid
            else:
                extra_spenders.setdefault(txin.prev, []).append(tx.txid)
            new_inputs.append(TxInput(txin.prev, addr, value))
            in_sum += value
        out_sum = 0
        for idx, txout in enumerate(tx.outputs):
            outputs[OutPoint(tx.txid, idx)] = [txout.addr, txout.value, None]
            out_sum += txout.value
        if not tx.coinbase and fully_resolved and in_sum < out_sum:
            negative_fees.append((tx.txid, in_sum - out_sum))
        resolved.append(Transaction(tx.txid, tx.timestamp, tx.coinbase,
                                    tuple(new_inputs), tx.outputs))
    report = ValidationReport(
        dangling=tuple(dangling),
        double_spends=tuple(DoubleSpend(op, (outputs[op][2], *spenders))
                            for op, spenders in extra_spenders.items()),
        negative_fees=tuple(negative_fees),
    )
    return tuple(resolved), report


def reference_parse(lines):
    return reference_resolve(
        reference_record(json.loads(line), n) for n, line in enumerate(lines, start=1))


class RefLedger(NamedTuple):
    """A cluster's events as the reference builds them, held apart from
    `ClusterLedger` so that no reference reads them back through a batch."""
    incoming: tuple
    outgoing: tuple


def reference_ledgers(log, clusters):
    incoming, outgoing = {}, {}
    idx_of = clusters.index_of
    for tx in log.transactions:
        in_by_cluster, in_addrs = {}, {}
        for txin in tx.inputs:
            if txin.addr is None:
                continue
            ci = idx_of[txin.addr]
            in_by_cluster[ci] = in_by_cluster.get(ci, 0) + txin.value
            in_addrs.setdefault(ci, set()).add(txin.addr)
        out_by_cluster, out_addrs = {}, {}
        for txout in tx.outputs:
            ci = idx_of[txout.addr]
            out_by_cluster[ci] = out_by_cluster.get(ci, 0) + txout.value
            out_addrs.setdefault(ci, set()).add(txout.addr)
        spenders, payees = set(in_by_cluster), set(out_by_cluster)
        for ci in payees:
            if spenders == {ci} and payees == {ci}:
                continue
            senders = frozenset(a for cj, s in in_addrs.items() if cj != ci for a in s)
            incoming.setdefault(ci, []).append(
                LedgerEvent(tx.timestamp, tx.txid, out_by_cluster[ci], senders))
        for ci in spenders:
            if spenders == {ci} and payees == {ci}:
                continue
            receivers = frozenset(a for cj, s in out_addrs.items() if cj != ci for a in s)
            outgoing.setdefault(ci, []).append(
                LedgerEvent(tx.timestamp, tx.txid, in_by_cluster[ci], receivers))
    return {ci: RefLedger(tuple(incoming.get(ci, ())), tuple(outgoing.get(ci, ())))
            for ci in range(clusters.n_clusters)}


def reference_balance_delta(ledger):
    """Largest day-over-day change of the end-of-day balance, day by day."""
    events = ledger.incoming + ledger.outgoing
    if not events:
        return 0
    net_by_day = {}
    for ev in ledger.incoming:
        d = ev.timestamp // SECONDS_PER_DAY
        net_by_day[d] = net_by_day.get(d, 0) + ev.amount
    for ev in ledger.outgoing:
        d = ev.timestamp // SECONDS_PER_DAY
        net_by_day[d] = net_by_day.get(d, 0) - ev.amount
    balance, prev_balance, max_delta = 0, None, 0
    for day in range(min(net_by_day), max(net_by_day) + 1):
        balance += net_by_day.get(day, 0)
        if prev_balance is not None:
            max_delta = max(max_delta, abs(balance - prev_balance))
        prev_balance = balance
    return max_delta


def reference_clusters(log):
    ids = {}
    for tx in log.transactions:
        for out in tx.outputs:
            ids.setdefault(out.addr, len(ids))
        for txin in tx.inputs:
            if txin.addr is not None:
                ids.setdefault(txin.addr, len(ids))
    uf = UnionFind(len(ids))
    for tx in log.transactions:
        in_addrs = [i.addr for i in tx.inputs if i.addr is not None]
        if tx.coinbase or len(in_addrs) < 2:
            continue
        for addr in in_addrs[1:]:
            uf.union(ids[in_addrs[0]], ids[addr])
    groups = {}
    for addr in ids:
        groups.setdefault(uf.find(ids[addr]), []).append(addr)
    members = tuple(tuple(g) for g in sorted((sorted(g) for g in groups.values()),
                                             key=lambda g: g[0]))
    return ClusterSet(members, {a: i for i, group in enumerate(members) for a in group})


def reference_gini(values):
    n = len(values)
    if n == 0:
        return 0.0
    ordered = sorted(values)
    total = math.fsum(ordered)
    if total == 0:
        return 0.0
    weighted = math.fsum((2 * i - n - 1) * x for i, x in enumerate(ordered, start=1))
    return weighted / (n * total)


def reference_paid_back(ledger):
    first_paid_in = {}
    for ev in ledger.incoming:
        for addr in ev.counterparts:
            if addr not in first_paid_in or ev.timestamp < first_paid_in[addr]:
                first_paid_in[addr] = ev.timestamp
    return len({addr for ev in ledger.outgoing for addr in ev.counterparts
                if addr in first_paid_in and ev.timestamp > first_paid_in[addr]})


def reference_mean_std(amounts):
    if not amounts:
        return 0.0, 0.0
    n = len(amounts)
    mean = math.fsum(amounts) / n
    return mean, math.sqrt(math.fsum((a - mean) ** 2 for a in amounts) / n)


def reference_features(ledger, n_addr):
    """The per-cluster feature code, on one ledger's event objects."""
    events = sorted(ledger.incoming + ledger.outgoing, key=lambda e: (e.timestamp, e.txid))
    in_amounts = [e.amount for e in ledger.incoming]
    out_amounts = [e.amount for e in ledger.outgoing]
    event_days = [e.timestamp // SECONDS_PER_DAY for e in events]
    lifetime_days = 0
    if ledger.incoming:
        lifetime_days = event_days[-1] - min(e.timestamp // SECONDS_PER_DAY
                                             for e in ledger.incoming)
    daily_tx, net_by_day = {}, {}
    for ev in events:
        daily_tx.setdefault(ev.timestamp // SECONDS_PER_DAY, set()).add(ev.txid)
    for sign, side in ((1, ledger.incoming), (-1, ledger.outgoing)):
        for ev in side:
            d = ev.timestamp // SECONDS_PER_DAY
            net_by_day[d] = net_by_day.get(d, 0) + sign * ev.amount
    in_times = sorted(e.timestamp for e in ledger.incoming)
    delays = []
    for ev in ledger.outgoing:
        pos = bisect.bisect_right(in_times, ev.timestamp)
        if pos > 0:
            delays.append(ev.timestamp - in_times[pos - 1])
    integers = dict(
        n_addr=n_addr,
        lifetime_days=lifetime_days,
        activity_days=len(set(event_days)),
        max_daily_tx=max((len(t) for t in daily_tx.values()), default=0),
        sum_in=sum(in_amounts),
        sum_out=sum(out_amounts),
        count_in=len(in_amounts),
        count_out=len(out_amounts),
        paid_back_addrs=reference_paid_back(ledger),
        delay_min=min(delays, default=0),
        delay_max=max(delays, default=0),
        max_daily_balance_delta=max((abs(net) for d, net in net_by_day.items()
                                     if d != event_days[0]), default=0),
    )
    for name, value in integers.items():
        if value > MAX_EXACT_INT:
            raise DataError(f"feature {name} is above 2**53, the bound of integer features")
    avg_in, std_in = reference_mean_std(in_amounts)
    avg_out, std_out = reference_mean_std(out_amounts)
    total = len(in_amounts) + len(out_amounts)
    return FeatureVector(
        **integers, gini_in=reference_gini(in_amounts), gini_out=reference_gini(out_amounts),
        in_share=len(in_amounts) / total if total else 0.0, avg_in=avg_in, std_in=std_in,
        avg_out=avg_out, std_out=std_out,
        delay_avg=math.fsum(delays) / len(delays) if delays else 0.0,
    )


def outcome(compute, *args):
    """The result, or the message of the DataError raised."""
    try:
        return compute(*args)
    except DataError as err:
        return f"DataError: {err}"


# --- inputs ---------------------------------------------------------------

def messy_lines(rng, n_tx):
    """A random valid log plus dangling inputs, double spends and negative
    fees, in shuffled line order."""
    lines = canonical_lines(random_valid_log(rng, n_tx, n_addrs=12))
    records = [json.loads(line) for line in lines]
    outpoints = [(r["txid"], i, r["time"]) for r in records for i in range(len(r["out"]))]
    t_end = max((r["time"] for r in records), default=0) + 1
    extra = []
    for k in range(max(3, n_tx // 4)):
        ts = t_end + rng.randint(0, 3) * SECONDS_PER_DAY // 2
        kind = rng.choice(["double", "dangling", "index", "later", "twice", "mixed"])
        if not outpoints:
            kind = "dangling"
        if kind == "double":
            prevs = [rng.choice(outpoints)[:2]]
        elif kind == "dangling":
            prevs = [(txid_of(("nowhere", k)), rng.randint(0, 2))]
        elif kind == "index":
            prevs = [(rng.choice(outpoints)[0], 7)]
        elif kind == "later":
            ts = min(o[2] for o in outpoints) - 1
            prevs = [rng.choice(outpoints)[:2]]
        elif kind == "twice":
            prevs = [rng.choice(outpoints)[:2]] * 2
        else:
            prevs = [rng.choice(outpoints)[:2], (txid_of(("gone", k)), 0)]
        outs = [(f"a{rng.randrange(12):03d}", rng.randint(0, 90_000_000))
                for _ in range(rng.randint(0, 3))]
        extra.append(tx_line(txid_of(("extra", k)), ts, inputs=prevs, outputs=outs))
    mixed = lines + extra
    rng.shuffle(mixed)
    return mixed


def random_partition(rng, log, n_clusters):
    """Any partition of the log's addresses, not only a multi-input one, so
    that one transaction can spend from several clusters."""
    addrs = sorted({out.addr for tx in log.transactions for out in tx.outputs})
    groups = {}
    for addr in addrs:
        groups.setdefault(rng.randrange(n_clusters), []).append(addr)
    members = tuple(tuple(g) for g in sorted(groups.values()))
    return ClusterSet(members, {a: i for i, g in enumerate(members) for a in g})


def ledger_days(ledger):
    """(first event day, last event day, number of event days)."""
    days = {ev.timestamp // SECONDS_PER_DAY for ev in ledger.incoming + ledger.outgoing}
    return (min(days), max(days), len(days)) if days else (0, 0, 0)


def assert_ingest_matches(lines, clusters=None):
    log = parse_tx_log(lines)
    ref_txs, ref_report = reference_parse(lines)
    assert log.transactions == ref_txs
    assert validate_tx_log(log) == ref_report
    assert build_clusters(log) == reference_clusters(log)
    clusters = clusters or build_clusters(log)
    ledgers = build_all_ledgers(log, clusters)
    ref_ledgers = reference_ledgers(log, clusters)
    # Features first, so that the views' events are built after the columns.
    for ci, ledger in ledgers.items():
        n_addr = len(clusters.members[ci])
        expected = outcome(reference_features, ref_ledgers[ci], n_addr)
        assert outcome(extract_features, ledger, n_addr) == expected
        # A ledger built by hand goes through a batch of one.
        assert outcome(extract_features, ClusterLedger(*ref_ledgers[ci]), n_addr) == expected
        first, last, _ = ledger_days(ref_ledgers[ci])
        if isinstance(expected, FeatureVector) and last - first < 10_000:
            assert expected.max_daily_balance_delta == reference_balance_delta(ref_ledgers[ci])
    assert {ci: (ledger.incoming, ledger.outgoing) for ci, ledger in ledgers.items()} == ref_ledgers
    return log, clusters


# --- tests ----------------------------------------------------------------

@pytest.mark.parametrize("seed", range(12))
def test_random_valid_logs(seed):
    rng = random.Random(seed)
    log, _ = assert_ingest_matches(canonical_lines(random_valid_log(rng, rng.randint(0, 120))))
    assert validate_tx_log(log).ok


@pytest.mark.parametrize("seed", range(12))
def test_dangling_double_spends_and_shuffled_lines(seed):
    rng = random.Random(1000 + seed)
    log, _ = assert_ingest_matches(messy_lines(rng, rng.randint(0, 80)))
    report = validate_tx_log(log)
    assert report.dangling or report.double_spends or not log.transactions


def test_messy_logs_cover_every_report_kind():
    reports = [validate_tx_log(parse_tx_log(messy_lines(random.Random(1000 + s), 60)))
               for s in range(12)]
    assert any(r.dangling for r in reports)
    assert any(r.double_spends for r in reports)
    assert any(r.negative_fees for r in reports)
    assert any(len(d.spenders) > 2 for r in reports for d in r.double_spends)


@pytest.mark.parametrize("seed", range(12))
def test_arbitrary_partitions(seed):
    rng = random.Random(2000 + seed)
    lines = messy_lines(rng, rng.randint(20, 80))
    log = parse_tx_log(lines)
    clusters = random_partition(rng, log, rng.randint(1, 5))
    assert_ingest_matches(lines, clusters)


def test_arbitrary_partitions_spend_from_several_clusters():
    rng = random.Random(2000)
    lines = messy_lines(rng, 80)
    log = parse_tx_log(lines)
    clusters = random_partition(rng, log, 3)
    idx = clusters.index_of
    assert any(len({idx[i.addr] for i in tx.inputs if i.addr is not None}) > 1
               and {idx[i.addr] for i in tx.inputs if i.addr is not None}
               == {idx[o.addr] for o in tx.outputs}
               for tx in log.transactions)


@pytest.fixture(scope="module")
def synth_world():
    return generate(SynthParams(n_ponzi=8, n_background=300, seed=3))


def test_synth_world_parse(synth_world):
    log, _ = synth_world
    lines = canonical_lines(log)
    parsed, clusters = assert_ingest_matches(lines)
    assert parsed.transactions == log.transactions
    # Clusters whose lifetime spans quiet days, so the day walk has gaps.
    days = [ledger_days(ledger) for ledger in build_all_ledgers(parsed, clusters).values()]
    assert any(last - first + 1 > n for first, last, n in days if n)


def test_out_of_range_input_index_dangles():
    # A negative index cannot come from a log line, only from whole columns.
    t0, t1 = txid_of("src"), txid_of("spend")
    builder = LogBuilder()
    builder.extend([t1, t0], [2, 1], [False, True], [1, 0], [(t0, -1)], [1, 1],
                   [("b", 1), ("a", 1)])
    log = builder.build()
    ref_txs, ref_report = reference_resolve([
        Transaction(t1, 2, False, (TxInput(OutPoint(t0, -1)),), (TxOutput("b", 1),)),
        Transaction(t0, 1, True, (), (TxOutput("a", 1),)),
    ])
    assert log.transactions == ref_txs
    assert validate_tx_log(log) == ref_report
    assert len(ref_report.dangling) == 1


# --- amounts and times at the edges of int64 ---------------------------------

_DAY = SECONDS_PER_DAY
# UTC-day boundaries on both sides of the epoch, times at the bound of the
# log, and ordinary times.
_TIMES = st.one_of(
    st.builds(lambda k, dt: k * _DAY + dt, st.integers(-3, 3), st.sampled_from([-1, 0, 1])),
    st.sampled_from([-(2**62) + 1, 2**62 - 1, -(2**53), 2**53 + 1]),
    st.integers(-5 * _DAY, 5 * _DAY),
)
# Amounts whose sums pass 2**53 (the bound of integer features) and 2**63
# (int64), and ordinary ones.
_VALUES = st.one_of(
    st.sampled_from([0, 1, 2**52, 2**52 + 1, 2**53 - 1, 2**53, 2**53 + 1, 2**62, 2**63 - 1]),
    st.integers(0, 2**63 - 1),
    st.integers(0, 10**9),
)


@st.composite
def edge_logs(draw):
    """Log lines over a few addresses, so counterparts repeat, with inputs
    that may dangle, spend twice or spend a later output; and a partition of
    the addresses into up to three clusters, so a transaction can spend from
    several."""
    addrs = [f"e{i}" for i in range(draw(st.integers(1, 5)))]
    lines, outpoints = [], []
    for i in range(draw(st.integers(1, 9))):
        txid = txid_of(("edge", i))
        coinbase = not outpoints or draw(st.integers(0, 3)) == 0
        prevs = [] if coinbase else draw(st.lists(st.sampled_from(outpoints), min_size=1,
                                                  max_size=4))
        outs, total = [], 0
        for _ in range(draw(st.integers(0, 4))):
            value = min(draw(_VALUES), 2**63 - 1 - total)
            total += value
            outs.append((draw(st.sampled_from(addrs)), value))
        lines.append(tx_line(txid, draw(_TIMES), coinbase=coinbase, inputs=prevs,
                             outputs=outs))
        outpoints += [(txid, k) for k in range(len(outs))]
    owner = draw(st.lists(st.integers(0, 2), min_size=len(addrs), max_size=len(addrs)))
    return lines, dict(zip(addrs, owner))


def partition(log, owner):
    groups = {}
    for addr in sorted({out.addr for tx in log.transactions for out in tx.outputs}):
        groups.setdefault(owner[addr], []).append(addr)
    members = tuple(tuple(g) for g in sorted(groups.values()))
    return ClusterSet(members, {a: i for i, g in enumerate(members) for a in g})


@settings(max_examples=300, deadline=None)
@given(edge_logs())
def test_edge_amounts_and_times_match_references(drawn):
    lines, owner = drawn
    log, _ = assert_ingest_matches(lines)
    assert_ingest_matches(lines, partition(log, owner))


def test_sums_past_int64_match_references():
    # Two outputs of 2**63 - 1 spent together: the fee, the outgoing event
    # and the cluster sums pass int64, and only the fee stays exact in a row.
    top = 2**63 - 1
    t0, t1, t2 = txid_of("big0"), txid_of("big1"), txid_of("join")
    lines = [
        tx_line(t0, -_DAY, coinbase=True, outputs=[("a", top)]),
        tx_line(t1, -1, coinbase=True, outputs=[("b", top)]),
        tx_line(t2, 0, inputs=[(t0, 0), (t1, 0)], outputs=[("c", 5)]),
    ]
    log, clusters = assert_ingest_matches(lines)
    assert validate_tx_log(log).ok
    ledger = build_all_ledgers(log, clusters)[clusters.index_of["a"]]
    assert ledger.outgoing[0].amount == 2 * top
    with pytest.raises(DataError, match="feature sum_in is above 2\\*\\*53"):
        extract_features(ledger, 2)
    assert extract_features(build_all_ledgers(log, clusters)[clusters.index_of["c"]], 1).sum_in == 5


def test_negative_fees_past_int64_are_exact():
    # Amounts whose total passes 2**62 put the fee sums on Python ints; each
    # negative fee is still listed exactly, in log order.
    top = 2**63 - 1
    t0, t1, t2, t3, t4 = (txid_of(("over", i)) for i in range(5))
    lines = [
        tx_line(t0, 1, coinbase=True, outputs=[("a", 5)]),
        tx_line(t1, 2, coinbase=True, outputs=[("b", top)]),
        tx_line(t2, 3, inputs=[(t0, 0)], outputs=[("c", top)]),
        tx_line(t3, 4, inputs=[(t1, 0)], outputs=[("d", top - 1)]),
        tx_line(t4, 5, inputs=[(t3, 0)], outputs=[("e", top)]),
    ]
    log, _ = assert_ingest_matches(lines)
    assert validate_tx_log(log).negative_fees == ((t2, 5 - top), (t4, -1))


def test_gini_terms_past_two_to_53_match_reference():
    # (n - 1) * sum(x) > 2**52 while sum(x) <= 2**53: the Gini numerator goes
    # through `gini` itself, whose terms round in float64. Here 3 * x_(4) is
    # odd above 2**53, and the float of the exact numerator differs from
    # `fsum` of the rounded terms in the last bit.
    amounts = [5, 0, 2, 2**52 - 35]
    ref = RefLedger(tuple(LedgerEvent(i, txid_of(("g", i)), a, frozenset())
                          for i, a in enumerate(amounts)), ())
    ledger = ClusterLedger(*ref)
    assert extract_features(ledger, 1) == reference_features(ref, 1)
    assert extract_features(ledger, 1).gini_in == 0.7499999999999991


def test_timestamps_at_the_bound_parse():
    for t in (2**62 - 1, -(2**62) + 1):
        log = parse_tx_log([tx_line(txid_of(t), t, coinbase=True, outputs=[("a", 1)])])
        assert log.transactions[0].timestamp == t
    for t in (2**62, -(2**62), 2**70, -(2**70)):
        with pytest.raises(ValueError, match="outside"):
            LogBuilder().extend([txid_of(t)], [t], [True], [0], [], [1], [("a", 1)])


def test_cli_ingest_builds_no_per_object_log(tmp_path, monkeypatch):
    # `features` and `dataset` run on the arrays alone: no Transaction or
    # LedgerEvent is built on the way.
    log, labels = generate(SynthParams(n_ponzi=3, n_background=40, seed=9))
    (tmp_path / "log.jsonl").write_text("\n".join(canonical_lines(log)) + "\n")
    (tmp_path / "labels.csv").write_text(
        "cluster_seed_address,label\n" + "".join(f"{a},{v}\n" for a, v in labels.items()))

    def refuse(*args, **kwargs):
        raise AssertionError("per-object ingest")

    monkeypatch.setattr(chain, "Transaction", refuse)
    monkeypatch.setattr(features, "LedgerEvent", refuse)
    assert main(["features", str(tmp_path / "log.jsonl"), "-o", str(tmp_path / "f.csv")]) == 0
    assert main(["dataset", "--log", str(tmp_path / "log.jsonl"), "--labels",
                 str(tmp_path / "labels.csv"), "-o", str(tmp_path / "d.csv")]) == 0


def test_input_index_beyond_int64_dangles_and_round_trips():
    t0, t1 = txid_of("small-src"), txid_of("far-index")
    lines = [
        tx_line(t0, 1, coinbase=True, outputs=[("a", 10)]),
        tx_line(t1, 2, inputs=[(t0, 2**64), (t0, 0), (txid_of("elsewhere"), 2**70)],
                outputs=[("b", 3)]),
    ]
    log, _ = assert_ingest_matches(lines)
    assert [d.prev for d in validate_tx_log(log).dangling] == [
        (t0, 2**64), (txid_of("elsewhere"), 2**70)]
    assert canonical_lines(log) == [json.dumps(json.loads(line), separators=(",", ":"))
                                    for line in lines]
