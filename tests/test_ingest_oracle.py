"""The ingest path against the simpler code it replaced, kept here as references.

`reference_parse` is the former two-step parser: it builds every record as a
Transaction, then `reference_from_transactions` rebuilds each one with its
inputs resolved through an OutPoint-keyed output map. `reference_ledgers` is
the former `build_all_ledgers`, and `reference_balance_delta` walks every
calendar day of a cluster's lifetime. The current code must give equal
transactions, validation reports, ledgers and feature vectors.
"""

import dataclasses
import json
import random

import pytest

from ponzi_radar.chain import (
    DanglingInput,
    DoubleSpend,
    OutPoint,
    Transaction,
    TxInput,
    TxLog,
    TxOutput,
    ValidationReport,
    parse_tx_log,
    validate_tx_log,
)
from ponzi_radar.clustering import ClusterSet, build_clusters
from ponzi_radar.errors import ParseError
from ponzi_radar.features import (
    SECONDS_PER_DAY,
    ClusterLedger,
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


def reference_from_transactions(txs):
    ordered = sorted(txs, key=lambda tx: (tx.timestamp, tx.txid))
    outputs = {}  # op -> [addr, value, spent_by|None]
    dangling, extra_spenders, negative_fees, fees, resolved = [], {}, [], {}, []
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
        if not tx.coinbase and fully_resolved:
            fees[tx.txid] = in_sum - out_sum
            if in_sum - out_sum < 0:
                negative_fees.append((tx.txid, in_sum - out_sum))
        resolved.append(Transaction(tx.txid, tx.timestamp, tx.coinbase,
                                    tuple(new_inputs), tx.outputs))
    report = ValidationReport(
        dangling=tuple(dangling),
        double_spends=tuple(DoubleSpend(op, (outputs[op][2], *spenders))
                            for op, spenders in extra_spenders.items()),
        negative_fees=tuple(negative_fees),
        fees=fees,
    )
    return tuple(resolved), report


def reference_parse(lines):
    return reference_from_transactions(
        reference_record(json.loads(line), n) for n, line in enumerate(lines, start=1))


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
    return {ci: ClusterLedger(tuple(incoming.get(ci, ())), tuple(outgoing.get(ci, ())))
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


def reference_features(ledger, n_addr):
    fv = extract_features(ledger, n_addr)
    return dataclasses.replace(fv, max_daily_balance_delta=reference_balance_delta(ledger))


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
    clusters = clusters or build_clusters(log)
    ledgers = build_all_ledgers(log, clusters)
    ref_ledgers = reference_ledgers(log, clusters)
    assert ledgers == ref_ledgers
    for ci, ledger in ledgers.items():
        n_addr = len(clusters.members[ci])
        assert extract_features(ledger, n_addr) == reference_features(ledger, n_addr)
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


def test_synth_world_from_transactions(synth_world):
    log, _ = synth_world
    unresolved = [Transaction(tx.txid, tx.timestamp, tx.coinbase,
                              tuple(TxInput(i.prev) for i in tx.inputs), tx.outputs)
                  for tx in log.transactions]
    random.Random(5).shuffle(unresolved)
    ref_txs, ref_report = reference_from_transactions(unresolved)
    rebuilt = TxLog.from_transactions(unresolved)
    assert rebuilt.transactions == ref_txs == log.transactions
    assert validate_tx_log(rebuilt) == ref_report == validate_tx_log(log)


def test_from_transactions_rejects_duplicate_txids():
    tx = Transaction("ab" * 32, 1, True, (), (TxOutput("a", 1),))
    with pytest.raises(ValueError, match="duplicate txid"):
        TxLog.from_transactions([tx, tx])


def test_out_of_range_input_index_dangles():
    t0 = txid_of("src")
    tx = Transaction(txid_of("spend"), 2, False, (TxInput(OutPoint(t0, -1)),),
                     (TxOutput("b", 1),))
    base = Transaction(t0, 1, True, (), (TxOutput("a", 1),))
    ref_txs, ref_report = reference_from_transactions([base, tx])
    log = TxLog.from_transactions([base, tx])
    assert log.transactions == ref_txs
    assert validate_tx_log(log) == ref_report
    assert len(ref_report.dangling) == 1
