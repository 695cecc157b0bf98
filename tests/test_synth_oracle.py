"""The columnar synthetic world generator against the per-transaction
generator it replaced, kept here as the reference.

`reference_generate` makes every draw as the old code did: a
`Generator.choice` call per wallet size, one scalar `lognormal` call per
coinbase output, one sha256 and one `Transaction` per emitted transaction,
and a `TxLog.from_transactions` at the end. It labels only the schemes that
reach the log. `generate` must write the same log lines and labels, and its
`TxLog` must equal, array for array, the one parsed back from its own lines.
The bulk builder entry both go through is checked at its edges below.
"""

import hashlib
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ponzi_radar.chain import (
    LogBuilder,
    OutPoint,
    Transaction,
    TxInput,
    TxLog,
    TxOutput,
    parse_tx_log,
    serialize_tx_log,
    validate_tx_log,
)
from ponzi_radar.synth import (
    DAY,
    DEPOSIT_COUNT_MU,
    DEPOSIT_COUNT_SIGMA,
    FEE,
    IMPLOSION_FRACTION,
    PAYOUT_DELAY_MU,
    PAYOUT_DELAY_SIGMA,
    PAYOUT_MULTIPLIER,
    SEND_RATE,
    SPAN_DAYS,
    T0,
    VALUE_MU,
    VALUE_SIGMA,
    SynthParams,
    generate,
)

from conftest import txid_of


# --- reference ---------------------------------------------------------------

class _RefUser:
    def __init__(self, addrs, coin_time, n_extra):
        self.addrs = addrs
        self.coin_time = coin_time
        self.n_extra = n_extra
        self.budget = n_extra + (1 if len(addrs) == 1 else 0)
        self.pool = deque()  # (OutPoint, value, addr)
        self.reserved = []


class _RefScheme:
    def __init__(self, addrs):
        self.addrs = addrs
        self.pool = deque()  # (OutPoint, value, addr)
        self.merged = len(addrs) == 1
        self.deposits = {}  # seq -> (value, payer, user)


def reference_generate(params):
    hard = params.hard_mode
    count_mu = DEPOSIT_COUNT_MU - 0.9 if hard else DEPOSIT_COUNT_MU
    delay_mu = PAYOUT_DELAY_MU + 2.0 if hard else PAYOUT_DELAY_MU
    delay_sigma = PAYOUT_DELAY_SIGMA + 0.4 if hard else PAYOUT_DELAY_SIGMA
    implosion = IMPLOSION_FRACTION + 0.25 if hard else IMPLOSION_FRACTION
    send_rate = SEND_RATE * 3.0 if hard else SEND_RATE
    rng = np.random.default_rng(params.seed)
    span = SPAN_DAYS * DAY

    def lognormal_value():
        return max(int(rng.lognormal(VALUE_MU, VALUE_SIGMA)), 100_000)

    users = []
    for u in range(params.n_background):
        n_addr = int(rng.choice([1, 2, 3], p=[0.7, 0.2, 0.1]))
        addrs = [f"bg{u:05d}x{j}" for j in range(n_addr)]
        coin_time = T0 + float(rng.uniform(0, span * 0.5))
        users.append(_RefUser(addrs, coin_time, n_extra=int(rng.integers(2, 5))))

    plan = []

    def add(t, kind, payload):
        plan.append((t, len(plan), kind, payload))
        return len(plan) - 1

    for ui, user in enumerate(users):
        add(user.coin_time, "coinbase", (ui,))
        if len(user.addrs) > 1:
            recipient = int(rng.integers(0, params.n_background))
            if recipient == ui:
                recipient = (recipient + 1) % params.n_background
            add(user.coin_time + 600, "merge_send", (ui, recipient))
        n_sends = min(int(rng.poisson(send_rate)), user.budget)
        for _ in range(n_sends):
            t = float(rng.uniform(user.coin_time + 7200, T0 + span))
            recipient = int(rng.integers(0, params.n_background))
            if recipient == ui:
                recipient = (recipient + 1) % params.n_background
            add(t, "send", (ui, recipient))
            user.budget -= 1

    schemes = []
    for s in range(params.n_ponzi):
        n_addr = int(rng.choice([1, 2, 3, 4, 6, 8], p=[0.4, 0.2, 0.15, 0.1, 0.1, 0.05]))
        addrs = [f"px{s:03d}x{j}" for j in range(n_addr)]
        window_start = T0 + float(rng.uniform(span * 0.10, span * 0.55))
        duration = float(rng.uniform(10 * DAY, 50 * DAY))
        count = max(4 * n_addr, int(round(rng.lognormal(count_mu, DEPOSIT_COUNT_SIGMA))))
        dep_times = np.sort(rng.uniform(window_start, window_start + duration, size=count))
        depositors = []
        for t in dep_times:
            depositor = None
            for _ in range(200):
                cand = int(rng.integers(0, params.n_background))
                if users[cand].budget > 0 and users[cand].coin_time + 7200 <= t:
                    depositor = cand
                    break
            if depositor is not None:
                users[depositor].budget -= 1
            depositors.append(depositor)
        funded = [d for d in range(count) if depositors[d] is not None]
        if len(funded) < n_addr:
            n_addr = max(1, len(funded))
            addrs = addrs[:n_addr]
        scheme = _RefScheme(addrs)
        schemes.append(scheme)
        dep_seqs = [None] * count
        for rank, d in enumerate(funded):
            dep_seqs[d] = add(float(dep_times[d]), "deposit", (depositors[d], s, rank % n_addr))
        if not funded:
            continue
        n_payable = math.ceil((1.0 - implosion) * count)
        covered = funded[: min(n_addr, len(funded))]
        merge_ready = float(dep_times[covered[-1]]) + 600.0
        for d in range(n_payable):
            if dep_seqs[d] is None:
                continue
            delay = float(rng.lognormal(delay_mu, delay_sigma))
            t = max(float(dep_times[d]) + delay, merge_ready)
            add(t, "payout", (s, dep_seqs[d]))

    ordered = sorted(plan, key=lambda entry: (entry[0], entry[1]))

    txs = []
    clock = 0

    def emit(t, coinbase, inputs, outputs):
        nonlocal clock
        clock = max(clock + 1, int(t))
        txid = hashlib.sha256(f"{params.seed}:{len(txs)}".encode()).hexdigest()
        txs.append(Transaction(txid, clock, coinbase, tuple(TxInput(op) for op in inputs),
                               tuple(TxOutput(a, v) for a, v in outputs)))
        return txid

    def fee_for(total):
        return FEE if total > 10 * FEE else 0

    for t, sq, kind, payload in ordered:
        if kind == "coinbase":
            (ui,) = payload
            user = users[ui]
            outs = [(addr, lognormal_value()) for addr in user.addrs]
            outs += [(user.addrs[0], lognormal_value()) for _ in range(user.n_extra)]
            txid = emit(t, True, [], outs)
            for idx, (addr, val) in enumerate(outs):
                entry = (OutPoint(txid, idx), val, addr)
                if len(user.addrs) > 1 and idx < len(user.addrs):
                    user.reserved.append(entry)
                else:
                    user.pool.append(entry)
        elif kind == "merge_send":
            ui, recipient = payload
            user = users[ui]
            total = sum(v for _, v, _ in user.reserved)
            fee = fee_for(total)
            inputs = [op for op, _, _ in user.reserved]
            user.reserved.clear()
            dest = users[recipient].addrs[0]
            txid = emit(t, False, inputs, [(dest, total - fee)])
            users[recipient].pool.append((OutPoint(txid, 0), total - fee, dest))
        elif kind == "send":
            ui, recipient = payload
            op, val, _ = users[ui].pool.popleft()
            fee = fee_for(val)
            dest = users[recipient].addrs[0]
            txid = emit(t, False, [op], [(dest, val - fee)])
            users[recipient].pool.append((OutPoint(txid, 0), val - fee, dest))
        elif kind == "deposit":
            ui, s, target_addr = payload
            scheme = schemes[s]
            op, val, payer_addr = users[ui].pool.popleft()
            fee = fee_for(val)
            dest = scheme.addrs[target_addr]
            txid = emit(t, False, [op], [(dest, val - fee)])
            scheme.pool.append((OutPoint(txid, 0), val - fee, dest))
            scheme.deposits[sq] = (val - fee, payer_addr, ui)
        elif kind == "payout":
            s, dep_seq = payload
            scheme = schemes[s]
            dep = scheme.deposits.get(dep_seq)
            if dep is None:
                continue
            dep_value, payer_addr, payer_user = dep
            target = int(round(PAYOUT_MULTIPLIER * dep_value))
            inputs = []
            collected = 0
            if not scheme.merged:
                by_addr = {}
                for entry in scheme.pool:
                    if entry[2] not in by_addr:
                        by_addr[entry[2]] = entry
                if len(by_addr) == len(scheme.addrs):
                    for entry in by_addr.values():
                        scheme.pool.remove(entry)
                        inputs.append(entry[0])
                        collected += entry[1]
                    scheme.merged = True
            while collected < target + FEE and scheme.pool:
                op, val, _ = scheme.pool.popleft()
                inputs.append(op)
                collected += val
            if not inputs or collected <= FEE:
                continue
            if collected >= target + FEE:
                change = collected - target - FEE
                outs = [(payer_addr, target)]
                if change > 0:
                    outs.append((scheme.addrs[0], change))
            else:
                outs = [(payer_addr, collected - fee_for(collected))]
            txid = emit(t, False, inputs, outs)
            users[payer_user].pool.append((OutPoint(txid, 0), outs[0][1], payer_addr))
            if len(outs) > 1:
                scheme.pool.append((OutPoint(txid, 1), outs[1][1], scheme.addrs[0]))

    labels = {}
    for scheme in schemes:
        if scheme.deposits:  # a scheme without a deposit never reaches the log
            labels[scheme.addrs[0]] = "P"
    for user in users:
        labels[user.addrs[0]] = "nP"
    return TxLog.from_transactions(txs), labels


# --- generator against reference ------------------------------------------

_ARRAYS = ("time", "coinbase", "in_tx", "in_start", "in_prev_tx", "in_prev_idx",
           "in_addr", "in_value", "out_tx", "out_start", "out_addr", "out_value")


def assert_same_arrays(a: TxLog, b: TxLog) -> None:
    assert a.txids == b.txids
    assert a.addresses == b.addresses
    assert a.odd_prevs == b.odd_prevs
    for name in _ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def assert_matches_reference(params: SynthParams) -> None:
    log, labels = generate(params)
    ref_log, ref_labels = reference_generate(params)
    lines = list(serialize_tx_log(log))
    assert lines == list(serialize_tx_log(ref_log))
    assert list(labels.items()) == list(ref_labels.items())
    # In-memory callers see the same address ids as readers of the file.
    assert_same_arrays(log, parse_tx_log(lines))


@pytest.mark.parametrize("params", [
    SynthParams(30, 2000, 42),
    SynthParams(30, 2000, 7, hard_mode=True),
    SynthParams(50, 10, 1),
    SynthParams(30, 300, 1, hard_mode=True),
    SynthParams(0, 40, 1),
], ids=str)
def test_matches_reference(params):
    assert_matches_reference(params)


@st.composite
def synth_params(draw):
    n_ponzi = draw(st.integers(0, 40))
    n_background = draw(st.integers(10 if n_ponzi else 0, 800))
    return SynthParams(n_ponzi, n_background, draw(st.integers(0, 2**32)), draw(st.booleans()))


@settings(max_examples=20, deadline=None)
@given(synth_params())
def test_matches_reference_on_any_world(params):
    assert_matches_reference(params)


# --- the bulk builder entry at its edges ------------------------------------

def test_empty_world_builds():
    log, labels = generate(SynthParams(0, 0, 1))
    assert len(log) == 0 and labels == {}
    assert list(serialize_tx_log(log)) == []
    assert validate_tx_log(log).ok


def test_extend_rejects_repeated_txids():
    t = txid_of("twice")
    with pytest.raises(ValueError, match="duplicate txid"):
        LogBuilder().extend([t, t], [1, 2], [True, True], [0, 0], [], [1, 1],
                            [("a", 1), ("b", 1)])
    builder = LogBuilder()
    builder.extend([t], [1], [True], [0], [], [1], [("a", 1)])
    with pytest.raises(ValueError, match="duplicate txid"):
        builder.extend([t], [2], [True], [0], [], [1], [("b", 1)])


def test_extend_interns_addresses_in_output_order():
    builder = LogBuilder()
    builder.extend([txid_of(1), txid_of(2)], [2, 1], [True, True], [0, 0], [],
                   [2, 2], [("b", 1), ("a", 2), ("c", 3), ("b", 4)])
    log = builder.build()
    assert log.addresses == ("b", "a", "c")
    assert [[(o.addr, o.value) for o in tx.outputs] for tx in log.transactions] == [
        [("c", 3), ("b", 4)], [("b", 1), ("a", 2)]]


def test_input_of_an_unknown_txid_dangles():
    base, spend, missing = txid_of("base"), txid_of("spend"), txid_of("missing")
    log = TxLog.from_transactions([
        Transaction(base, 1, True, (), (TxOutput("a", 5),)),
        Transaction(spend, 2, False, (TxInput(OutPoint(base, 0)), TxInput(OutPoint(missing, 3))),
                    (TxOutput("b", 4),)),
    ])
    report = validate_tx_log(log)
    assert [(d.txid, d.input_index, d.prev) for d in report.dangling] == [
        (spend, 1, OutPoint(missing, 3))]
    assert log.transactions[1].inputs[0] == TxInput(OutPoint(base, 0), "a", 5)
    assert log.odd_prevs == {1: OutPoint(missing, 3)}
