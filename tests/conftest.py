"""Shared builders for transaction logs and datasets used across tests."""

from __future__ import annotations

import io
import json
import random

import numpy as np
import pytest

from ponzi_radar.chain import MAX_ABS_TIME, TxLog, parse_tx_log, serialize_tx_log
from ponzi_radar.dataset import Dataset
from ponzi_radar.features import (
    FEATURE_NAMES,
    INT_FEATURES,
    ClusterLedger,
    FeatureVector,
    LedgerBatch,
    _Side,
)

BTC = 100_000_000


def txid_of(tag) -> str:
    """Deterministic fake 64-hex txid from any short tag."""
    import hashlib

    return hashlib.sha256(str(tag).encode()).hexdigest()


def tx_line(txid, time, coinbase=False, inputs=(), outputs=()) -> str:
    return json.dumps({
        "txid": txid,
        "time": time,
        "coinbase": coinbase,
        "in": [{"tx": t, "idx": i} for t, i in inputs],
        "out": [{"addr": a, "val": v} for a, v in outputs],
    })


def parse_lines(lines) -> TxLog:
    return parse_tx_log(io.StringIO("\n".join(lines) + ("\n" if lines else "")))


def fan_out_then_join_lines():
    """Three-transaction chain: a coinbase fans out to two addresses, one
    branch makes change, and a 2-input join spends 2.9 BTC into 2.5 (fee 0.4).
    """
    t0, t1, t2 = txid_of("base"), txid_of("spend-a"), txid_of("join-b")
    return [
        tx_line(t0, 1000, coinbase=True, outputs=[("addr_a", 1 * BTC), ("addr_b", 2 * BTC)]),
        tx_line(t1, 2000, inputs=[(t0, 0)],
                outputs=[("addr_b2", 90_000_000), ("addr_a", 10_000_000)]),
        tx_line(t2, 3000, inputs=[(t0, 1), (t1, 0)], outputs=[("addr_c", 250_000_000)]),
    ], (t0, t1, t2)


# Lines that once escaped as RecursionError, a raw ValueError, or a string
# that cannot be written back out as UTF-8.
HOSTILE_LINES = {
    "deep_nesting": "[" * 100_000,
    "huge_time": ('{"txid":"' + "a" * 64 + '","time":' + "9" * 5000
                  + ',"coinbase":true,"in":[],"out":[{"addr":"x","val":1}]}'),
    "lone_surrogate": ('{"txid":"' + "a" * 64 + '","time":1,"coinbase":true,"in":[],'
                       '"out":[{"addr":"\\ud800","val":1}]}'),
}


def random_valid_log(rng: random.Random, n_tx: int, n_addrs: int = 24) -> TxLog:
    """A structurally valid random log: every spend hits an existing unspent
    output of a strictly earlier timestamp; timestamps may tie otherwise.
    """
    addrs = [f"a{i:03d}" for i in range(n_addrs)]
    lines = []
    utxos = []  # (txid, idx, value, created_ts)
    ts = 10_000
    for i in range(n_tx):
        ts += rng.choice([0, 1, 1, 60])
        txid = f"{i:08x}{rng.getrandbits(32):08x}".ljust(64, "e")
        spendable = [u for u in utxos if u[3] < ts]
        if not spendable or rng.random() < 0.3:
            outs = [(rng.choice(addrs), rng.randint(1, 50) * 1_000_000)
                    for _ in range(rng.randint(1, 3))]
            lines.append(tx_line(txid, ts, coinbase=True, outputs=outs))
        else:
            k = min(len(spendable), rng.randint(1, 3))
            picks = rng.sample(spendable, k)
            for u in picks:
                utxos.remove(u)
            total = sum(u[2] for u in picks)
            fee = rng.randint(0, max(0, min(total - 1, 1000)))
            n_out = rng.randint(1, 3)
            outs, rest = [], total - fee
            for j in range(n_out):
                v = rest if j == n_out - 1 else rng.randint(0, rest)
                outs.append((rng.choice(addrs), v))
                rest -= v
            lines.append(tx_line(txid, ts, inputs=[(u[0], u[1]) for u in picks], outputs=outs))
        for idx, (_, value) in enumerate(outs):
            utxos.append((txid, idx, value, ts))
    return parse_lines(lines)


_DEFAULT_FEATURES = {name: (0 if name in INT_FEATURES else 0.0) for name in FEATURE_NAMES}


def make_features(**overrides) -> FeatureVector:
    values = dict(_DEFAULT_FEATURES)
    values.update(overrides)
    return FeatureVector(**values)


def dataset_of(rows) -> Dataset:
    """A Dataset of (id, "P" or "nP", FeatureVector) rows, in that order."""
    rows = list(rows)
    return Dataset(tuple(id_ for id_, _, _ in rows),
                   np.array([label == "P" for _, label, _ in rows], dtype=np.int8),
                   np.array([fv for _, _, fv in rows],
                            dtype=np.float64).reshape(len(rows), len(FEATURE_NAMES)))


def make_dataset(n_ponzi: int, n_other: int, seed: int = 0,
                 separable: bool = True) -> Dataset:
    """Small labeled dataset; when separable, sum_in cleanly splits classes."""
    rng = random.Random(seed)
    rows = []
    for i in range(n_ponzi):
        base = 1000 + rng.randint(0, 200) if separable else rng.randint(0, 2000)
        rows.append((f"p{i}", "P",
                     make_features(sum_in=base, count_in=rng.randint(5, 50),
                                   gini_out=rng.random())))
    for i in range(n_other):
        base = rng.randint(0, 500) if separable else rng.randint(0, 2000)
        rows.append((f"c{i}", "nP",
                     make_features(sum_in=base, count_in=rng.randint(0, 8),
                                   gini_out=rng.random())))
    return dataset_of(rows)


def canonical_lines(log: TxLog) -> list[str]:
    return list(serialize_tx_log(log))


def hand_ledger(incoming, outgoing) -> ClusterLedger:
    """A ledger built by hand from `LedgerEvent`s: cluster 0 of a batch of one.

    Amounts are int64 arrays, or Python ints when one does not fit, and
    timestamps must lie within (-2**62, 2**62), as in a parsed log. Transaction
    keys and counterpart ids number the txids and addresses as first seen.
    """
    txids: dict[str, int] = {}
    names: dict[str, int] = {}
    sides = []
    for events in (incoming, outgoing):
        times = [ev.timestamp for ev in events]
        if not all(-MAX_ABS_TIME < t < MAX_ABS_TIME for t in times):
            raise ValueError("ledger event timestamps must lie within (-2**62, 2**62)")
        amounts = [ev.amount for ev in events]
        try:
            amount = np.array(amounts, dtype=np.int64)
        except OverflowError:
            amount = np.array(amounts, dtype=object)
        pairs = [(k, names.setdefault(addr, len(names)))
                 for k, ev in enumerate(events) for addr in ev.counterparts]
        sides.append(_Side(
            1, np.zeros(len(events), dtype=np.int64),
            np.array([txids.setdefault(ev.txid, len(txids)) for ev in events], dtype=np.int64),
            np.array(times, dtype=np.int64), amount,
            np.array([k for k, _ in pairs], dtype=np.int64),
            np.array([a for _, a in pairs], dtype=np.int64)))
    return LedgerBatch(1, *sides, tuple(txids), tuple(names))[0]


@pytest.fixture
def fan_out_then_join():
    lines, txids = fan_out_then_join_lines()
    return parse_lines(lines), txids
