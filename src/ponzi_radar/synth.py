"""Synthetic transaction logs with labeled Ponzi-like and background clusters.

The generator is a test fixture, not an economic simulation. Ponzi clusters
receive many smallish deposits, repay earlier depositors about
multiplier-times their deposit after a short delay, and stop paying near the
end of life (the implosion tail). Background clusters are ordinary users
funded by coinbase outputs who occasionally pay each other. Every generated
log validates: no dangling references, no double spends, fees >= 0.

Generation is fully deterministic under the seed: identical params produce a
byte-identical serialized log.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import deque
from dataclasses import dataclass, replace
from typing import IO

import numpy as np

from .chain import OutPoint, Transaction, TxInput, TxLog, TxOutput
from .errors import DataError

T0 = 1_483_228_800  # 2017-01-01T00:00:00Z
DAY = 86_400


@dataclass(frozen=True)
class SynthParams:
    n_ponzi: int = 30
    n_background: int = 6000
    seed: int = 42
    span_days: int = 180
    # Deposits per scheme: log-normal count. Output values (hence deposit
    # sizes, since payments spend whole outputs) are log-normal satoshi.
    deposit_count_mu: float = 3.3
    deposit_count_sigma: float = 0.7
    value_mu: float = 17.5
    value_sigma: float = 1.0
    payout_multiplier: float = 1.5
    payout_delay_mu: float = 10.0  # log-normal seconds; exp(10) ~ 6 hours
    payout_delay_sigma: float = 0.8
    implosion_fraction: float = 0.25
    send_rate: float = 1.5  # mean background payments per user
    fee: int = 1000
    hard_mode: bool = False

    def __post_init__(self):
        if self.n_ponzi < 0 or self.n_background < 0:
            raise ValueError("cluster counts must be non-negative")
        if not 0.0 <= self.implosion_fraction <= 1.0:
            raise ValueError("implosion fraction must be in [0, 1]")
        if self.n_ponzi > 0 and self.n_background < 10:
            raise DataError("schemes need a population of depositors (>= 10 users)")


def _effective(params: SynthParams) -> SynthParams:
    if not params.hard_mode:
        return params
    # Hard mode: pull the two populations toward each other.
    return replace(
        params,
        hard_mode=False,
        deposit_count_mu=params.deposit_count_mu - 0.9,
        payout_delay_mu=params.payout_delay_mu + 2.0,
        payout_delay_sigma=params.payout_delay_sigma + 0.4,
        implosion_fraction=min(1.0, params.implosion_fraction + 0.25),
        send_rate=params.send_rate * 3.0,
    )


class _User:
    __slots__ = ("addrs", "coin_time", "n_extra", "budget", "pool", "reserved")

    def __init__(self, addrs: list[str], coin_time: float, n_extra: int):
        self.addrs = addrs
        self.coin_time = coin_time
        self.n_extra = n_extra
        # Planned spends never exceed the initial freely spendable outputs,
        # so a planned payment always finds an unspent output to consume.
        self.budget = n_extra + (1 if len(addrs) == 1 else 0)
        self.pool: deque = deque()  # (OutPoint, value, addr)
        self.reserved: list = []  # outputs set aside for the merge payment


class _Scheme:
    __slots__ = ("addrs", "pool", "merged", "deposits")

    def __init__(self, addrs: list[str]):
        self.addrs = addrs
        self.pool: deque = deque()  # (OutPoint, value, addr)
        self.merged = len(addrs) == 1
        self.deposits: dict[int, tuple[int, str, int]] = {}  # seq -> (value, payer, user)


def generate(params: SynthParams) -> tuple[TxLog, dict[str, str]]:
    """Build (TxLog, seed-address -> P/nP label map) for the given parameters."""
    p = _effective(params)
    rng = np.random.default_rng(p.seed)
    span = p.span_days * DAY

    def lognormal_value() -> int:
        return max(int(rng.lognormal(p.value_mu, p.value_sigma)), 100_000)

    users: list[_User] = []
    for u in range(p.n_background):
        n_addr = int(rng.choice([1, 2, 3], p=[0.7, 0.2, 0.1]))
        addrs = [f"bg{u:05d}x{j}" for j in range(n_addr)]
        coin_time = T0 + float(rng.uniform(0, span * 0.5))
        users.append(_User(addrs, coin_time, n_extra=int(rng.integers(2, 5))))

    # Planned actions: (time, seq, kind, payload); seq keeps the sort stable
    # and identifies deposits for their matching payouts.
    plan: list[tuple] = []

    def add(t: float, kind: str, payload: tuple) -> int:
        plan.append((t, len(plan), kind, payload))
        return len(plan) - 1

    for ui, user in enumerate(users):
        add(user.coin_time, "coinbase", (ui,))
        if len(user.addrs) > 1:
            # The user's first payment co-spends one output per address so the
            # multi-input heuristic always reunites the wallet.
            recipient = int(rng.integers(0, p.n_background))
            if recipient == ui:
                recipient = (recipient + 1) % p.n_background
            add(user.coin_time + 600, "merge_send", (ui, recipient))
        n_sends = min(int(rng.poisson(p.send_rate)), user.budget)
        for _ in range(n_sends):
            t = float(rng.uniform(user.coin_time + 7200, T0 + span))
            recipient = int(rng.integers(0, p.n_background))
            if recipient == ui:
                recipient = (recipient + 1) % p.n_background
            add(t, "send", (ui, recipient))
            user.budget -= 1

    schemes: list[_Scheme] = []
    for s in range(p.n_ponzi):
        n_addr = int(rng.choice([1, 2, 3, 4, 6, 8], p=[0.4, 0.2, 0.15, 0.1, 0.1, 0.05]))
        addrs = [f"px{s:03d}x{j}" for j in range(n_addr)]
        window_start = T0 + float(rng.uniform(span * 0.10, span * 0.55))
        duration = float(rng.uniform(10 * DAY, 50 * DAY))
        count = max(4 * n_addr, int(round(rng.lognormal(p.deposit_count_mu,
                                                        p.deposit_count_sigma))))
        dep_times = np.sort(rng.uniform(window_start, window_start + duration, size=count))
        depositors: list[int | None] = []
        for t in dep_times:
            depositor = None
            for _ in range(200):
                cand = int(rng.integers(0, p.n_background))
                if users[cand].budget > 0 and users[cand].coin_time + 7200 <= t:
                    depositor = cand
                    break
            if depositor is not None:
                users[depositor].budget -= 1
            depositors.append(depositor)
        funded = [d for d in range(count) if depositors[d] is not None]
        if len(funded) < n_addr:
            # Not enough depositors to cover every address; shrink the wallet
            # so the merge payout stays reachable.
            n_addr = max(1, len(funded))
            addrs = addrs[:n_addr]
        scheme = _Scheme(addrs)
        schemes.append(scheme)
        dep_seqs: list[int | None] = [None] * count
        for rank, d in enumerate(funded):
            # Round-robin over funded deposits so every address receives one.
            target_addr = rank % n_addr
            dep_seqs[d] = add(float(dep_times[d]), "deposit",
                              (depositors[d], s, target_addr))
        if not funded:
            continue
        n_payable = math.ceil((1.0 - p.implosion_fraction) * count)
        covered = funded[: min(n_addr, len(funded))]
        merge_ready = float(dep_times[covered[-1]]) + 600.0
        for d in range(n_payable):
            if dep_seqs[d] is None:
                continue
            delay = float(rng.lognormal(p.payout_delay_mu, p.payout_delay_sigma))
            # No payout before every address holds a deposit, so the first
            # one can always co-spend across the whole wallet.
            t = max(float(dep_times[d]) + delay, merge_ready)
            add(t, "payout", (s, dep_seqs[d]))

    ordered = sorted(plan, key=lambda entry: (entry[0], entry[1]))

    # Materialize in time order; the clock is strictly increasing so the
    # sorted log order always sees an output before the input that spends it.
    txs: list[Transaction] = []
    clock = 0

    def emit(t: float, coinbase: bool, inputs: list, outputs: list) -> str:
        nonlocal clock
        clock = max(clock + 1, int(t))
        txid = hashlib.sha256(f"{p.seed}:{len(txs)}".encode()).hexdigest()
        txs.append(Transaction(
            txid, clock, coinbase,
            tuple(TxInput(op) for op in inputs),
            tuple(TxOutput(addr, val) for addr, val in outputs),
        ))
        return txid

    def fee_for(total: int) -> int:
        return p.fee if total > 10 * p.fee else 0

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
            user = users[ui]
            op, val, _ = user.pool.popleft()
            fee = fee_for(val)
            dest = users[recipient].addrs[0]
            txid = emit(t, False, [op], [(dest, val - fee)])
            users[recipient].pool.append((OutPoint(txid, 0), val - fee, dest))
        elif kind == "deposit":
            ui, s, target_addr = payload
            user = users[ui]
            scheme = schemes[s]
            op, val, payer_addr = user.pool.popleft()
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
                continue  # the deposit itself never happened
            dep_value, payer_addr, payer_user = dep
            target = int(round(p.payout_multiplier * dep_value))
            inputs: list = []
            collected = 0
            if not scheme.merged:
                # First payout co-spends one output per scheme address, which
                # merges the whole wallet for the clustering heuristic.
                by_addr: dict[str, tuple] = {}
                for entry in scheme.pool:
                    if entry[2] not in by_addr:
                        by_addr[entry[2]] = entry
                if len(by_addr) == len(scheme.addrs):
                    for entry in by_addr.values():
                        scheme.pool.remove(entry)
                        inputs.append(entry[0])
                        collected += entry[1]
                    scheme.merged = True
            while collected < target + p.fee and scheme.pool:
                op, val, _ = scheme.pool.popleft()
                inputs.append(op)
                collected += val
            if not inputs or collected <= p.fee:
                continue
            if collected >= target + p.fee:
                change = collected - target - p.fee
                outs = [(payer_addr, target)]
                if change > 0:
                    outs.append((scheme.addrs[0], change))
            else:
                outs = [(payer_addr, collected - fee_for(collected))]
            txid = emit(t, False, inputs, outs)
            users[payer_user].pool.append((OutPoint(txid, 0), outs[0][1], payer_addr))
            if len(outs) > 1:
                scheme.pool.append((OutPoint(txid, 1), outs[1][1], scheme.addrs[0]))

    labels: dict[str, str] = {}
    for scheme in schemes:
        labels[scheme.addrs[0]] = "P"
    for user in users:
        labels[user.addrs[0]] = "nP"
    return TxLog.from_transactions(txs), labels


_LABELS_HEADER = ["cluster_seed_address", "label"]


def write_labels(labels: dict[str, str], fp: IO[str]) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(_LABELS_HEADER)
    writer.writerows(labels.items())


def read_labels(fp: IO[str]) -> dict[str, str]:
    """Seed address -> P or nP; blank rows are skipped, repeated addresses rejected."""
    reader = csv.reader(fp)
    if next(reader, None) != _LABELS_HEADER:
        raise DataError("labels file must start with header 'cluster_seed_address,label'")
    labels: dict[str, str] = {}
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2 or not row[0] or row[1] not in ("P", "nP"):
            raise DataError(f"labels file row {row_no}: expected 'address,P|nP'")
        if row[0] in labels:
            raise DataError(f"labels file row {row_no}: repeated address {row[0]!r}")
        labels[row[0]] = row[1]
    return labels
