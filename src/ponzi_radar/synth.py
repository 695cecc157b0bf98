"""Synthetic transaction logs with labeled Ponzi-like and background clusters.

The generator stands in for real scheme logs; it is no economic simulation.
Ponzi clusters receive many smallish deposits, repay earlier depositors about
multiplier-times their deposit after a short delay, and stop paying near the
end of life (the implosion tail). Background clusters are ordinary users
funded by coinbase outputs who occasionally pay each other. Every generated
log validates: no dangling references, no double spends, fees >= 0.

The shape of both populations is set by module constants; a world's size,
seed and `hard_mode` are its only settings. Hard mode pulls the two classes
together: fewer deposits per scheme, later and looser payouts, a larger
unpaid tail and three times the background payments.

Generation is fully deterministic under the seed: identical params produce a
byte-identical serialized log. Every action is planned, then replayed in time
order into the columns that `LogBuilder.extend` takes; the replay's only
draws, the coinbase output values, come from one call. A scheme that finds no
depositor never reaches the log and is not labeled.
"""

from __future__ import annotations

import hashlib
import logging
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import IO

import numpy as np

from .chain import LogBuilder, TxLog
from .csvrows import read_rows, text_cells, write_rows
from .dataset import LABEL_OF, LABEL_OTHER, LABEL_PONZI
from .errors import DataError

T0 = 1_483_228_800  # 2017-01-01T00:00:00Z
DAY = 86_400
SPAN_DAYS = 180
# Deposits per scheme: log-normal count. Output values (hence deposit sizes,
# since payments spend whole outputs) are log-normal satoshi.
DEPOSIT_COUNT_MU = 3.3
DEPOSIT_COUNT_SIGMA = 0.7
VALUE_MU = 17.5
VALUE_SIGMA = 1.0
PAYOUT_MULTIPLIER = 1.5
PAYOUT_DELAY_MU = 10.0  # log-normal seconds; exp(10) ~ 6 hours
PAYOUT_DELAY_SIGMA = 0.8
IMPLOSION_FRACTION = 0.25  # share of deposits, the last ones, never paid back
SEND_RATE = 1.5  # mean background payments per user
FEE = 1000  # satoshi per payment

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SynthParams:
    n_ponzi: int = 30
    n_background: int = 6000
    seed: int = 42
    hard_mode: bool = False

    def __post_init__(self):
        if self.n_ponzi < 0 or self.n_background < 0:
            raise ValueError("cluster counts must be non-negative")
        if self.n_ponzi > 0 and self.n_background < 10:
            raise DataError("schemes need a population of depositors (>= 10 users)")


class _User:
    __slots__ = ("addrs", "coin_time", "n_extra", "budget", "pool", "reserved")

    def __init__(self, addrs: list[str], coin_time: float, n_extra: int):
        self.addrs = addrs
        self.coin_time = coin_time
        self.n_extra = n_extra
        # Planned spends never exceed the initial freely spendable outputs,
        # so a planned payment always finds an unspent output to consume.
        self.budget = n_extra + (1 if len(addrs) == 1 else 0)
        self.pool: deque = deque()  # ((position, index), value, addr)
        self.reserved: list = []  # outputs set aside for the merge payment


class _Scheme:
    __slots__ = ("addrs", "pool", "merged", "deposits")

    def __init__(self, addrs: list[str]):
        self.addrs = addrs
        self.pool: deque = deque()  # ((position, index), value, addr)
        self.merged = len(addrs) == 1
        self.deposits: dict[int, tuple[int, str, int]] = {}  # seq -> (value, payer, user)


def generate(params: SynthParams) -> tuple[TxLog, dict[str, str]]:
    """Build (TxLog, seed-address -> P/nP label map) for the given parameters."""
    hard = params.hard_mode  # pulls the two classes together
    count_mu = DEPOSIT_COUNT_MU - 0.9 if hard else DEPOSIT_COUNT_MU
    delay_mu = PAYOUT_DELAY_MU + 2.0 if hard else PAYOUT_DELAY_MU
    delay_sigma = PAYOUT_DELAY_SIGMA + 0.4 if hard else PAYOUT_DELAY_SIGMA
    implosion = IMPLOSION_FRACTION + 0.25 if hard else IMPLOSION_FRACTION
    send_rate = SEND_RATE * 3.0 if hard else SEND_RATE
    rng = np.random.default_rng(params.seed)
    span = SPAN_DAYS * DAY
    # `rng.choice(a, p=p)` takes the entry at the count of these cumulative
    # weights that are <= one `rng.random()`; so does `bisect_right`.
    user_cdf, scheme_cdf = ((np.cumsum(p) / np.cumsum(p)[-1]).tolist()
                            for p in ([0.7, 0.2, 0.1], [0.4, 0.2, 0.15, 0.1, 0.1, 0.05]))

    users: list[_User] = []
    for u in range(params.n_background):
        n_addr = [1, 2, 3][bisect_right(user_cdf, rng.random())]
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

    schemes: list[_Scheme] = []
    for s in range(params.n_ponzi):
        n_addr = [1, 2, 3, 4, 6, 8][bisect_right(scheme_cdf, rng.random())]
        addrs = [f"px{s:03d}x{j}" for j in range(n_addr)]
        window_start = T0 + float(rng.uniform(span * 0.10, span * 0.55))
        duration = float(rng.uniform(10 * DAY, 50 * DAY))
        count = max(4 * n_addr, int(round(rng.lognormal(count_mu, DEPOSIT_COUNT_SIGMA))))
        dep_times = np.sort(rng.uniform(window_start, window_start + duration, size=count))
        depositors: list[int | None] = []
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
        n_payable = math.ceil((1.0 - implosion) * count)
        covered = funded[: min(n_addr, len(funded))]
        merge_ready = float(dep_times[covered[-1]]) + 600.0
        for d in range(n_payable):
            if dep_seqs[d] is None:
                continue
            delay = float(rng.lognormal(delay_mu, delay_sigma))
            # No payout before every address holds a deposit, so the first
            # one can always co-spend across the whole wallet.
            t = max(float(dep_times[d]) + delay, merge_ready)
            add(t, "payout", (s, dep_seqs[d]))

    plan.sort()  # by (time, seq); seq is unique

    # The loop below draws only the coinbase output values, in emission order;
    # one call draws them all, element by element as scalar calls do.
    values = rng.lognormal(VALUE_MU, VALUE_SIGMA, size=sum(len(u.addrs) + u.n_extra for u in users))
    values = iter(np.maximum(values.astype(np.int64), 100_000).tolist())

    # Materialize in time order into columns; the clock is strictly increasing
    # so the sorted log order always sees an output before the input spending it.
    times, coinbase, n_in, prevs, n_out, outputs = [], [], [], [], [], []
    clock = 0

    def emit(t: float, is_coinbase: bool, inputs: list, outs: list) -> int:
        nonlocal clock
        clock = max(clock + 1, int(t))
        times.append(clock)
        coinbase.append(is_coinbase)
        n_in.append(len(inputs))
        prevs.extend(inputs)
        n_out.append(len(outs))
        outputs.extend(outs)
        return len(times) - 1

    def fee_for(total: int) -> int:
        return FEE if total > 10 * FEE else 0

    for t, sq, kind, payload in plan:
        if kind == "coinbase":
            (ui,) = payload
            user = users[ui]
            outs = [(addr, next(values)) for addr in user.addrs]
            outs += [(user.addrs[0], next(values)) for _ in range(user.n_extra)]
            pos = emit(t, True, [], outs)
            for idx, (addr, val) in enumerate(outs):
                entry = ((pos, idx), val, addr)
                if len(user.addrs) > 1 and idx < len(user.addrs):
                    user.reserved.append(entry)
                else:
                    user.pool.append(entry)
        elif kind == "merge_send":
            ui, recipient = payload
            reserved = users[ui].reserved
            val = sum(v for _, v, _ in reserved)
            val -= fee_for(val)
            dest = users[recipient].addrs[0]
            pos = emit(t, False, [op for op, _, _ in reserved], [(dest, val)])
            users[recipient].pool.append(((pos, 0), val, dest))
        elif kind == "send":
            ui, recipient = payload
            op, val, _ = users[ui].pool.popleft()
            val -= fee_for(val)
            dest = users[recipient].addrs[0]
            pos = emit(t, False, [op], [(dest, val)])
            users[recipient].pool.append(((pos, 0), val, dest))
        elif kind == "deposit":
            ui, s, target_addr = payload
            scheme = schemes[s]
            op, val, payer_addr = users[ui].pool.popleft()
            val -= fee_for(val)
            dest = scheme.addrs[target_addr]
            pos = emit(t, False, [op], [(dest, val)])
            scheme.pool.append(((pos, 0), val, dest))
            scheme.deposits[sq] = (val, payer_addr, ui)
        elif kind == "payout":
            s, dep_seq = payload
            scheme = schemes[s]
            dep = scheme.deposits.get(dep_seq)
            if dep is None:
                continue  # the deposit itself never happened
            dep_value, payer_addr, payer_user = dep
            target = int(round(PAYOUT_MULTIPLIER * dep_value))
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
            pos = emit(t, False, inputs, outs)
            users[payer_user].pool.append(((pos, 0), outs[0][1], payer_addr))
            if len(outs) > 1:
                scheme.pool.append(((pos, 1), outs[1][1], scheme.addrs[0]))

    labels = {scheme.addrs[0]: LABEL_PONZI for scheme in schemes if scheme.deposits}
    if len(labels) < len(schemes):
        logger.warning("%d of %d schemes found no depositor and are left out of the labels",
                       len(schemes) - len(labels), len(schemes))
    for user in users:
        labels[user.addrs[0]] = LABEL_OTHER
    txids = [hashlib.sha256(f"{params.seed}:{i}".encode()).hexdigest() for i in range(len(times))]
    log = LogBuilder()
    log.extend(txids, times, coinbase, n_in, [(txids[p], k) for p, k in prevs], n_out, outputs)
    return log.build(), labels


_LABELS_HEADER = ("cluster_seed_address", "label")


def write_labels(labels: dict[str, str], fp: IO[str]) -> None:
    write_rows(fp, _LABELS_HEADER, "%s,%s\n",
               zip(text_cells(labels), text_cells(labels.values())))


def read_labels(fp: IO[str]) -> dict[str, str]:
    """Seed address -> P or nP; blank rows are skipped, repeated addresses rejected."""
    labels: dict[str, str] = {}
    for row_no, row in read_rows(fp, "labels file", _LABELS_HEADER):
        if not row:
            continue
        if len(row) != 2 or not row[0] or row[1] not in LABEL_OF:
            raise DataError(f"labels file row {row_no}: expected 'address,P|nP'")
        if row[0] in labels:
            raise DataError(f"labels file row {row_no}: repeated address {row[0]!r}")
        labels[row[0]] = row[1]
    return labels
