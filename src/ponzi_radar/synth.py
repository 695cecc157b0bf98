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
order into the columns that `LogBuilder.extend` takes, each txid hashed as its
transaction is emitted; the replay's only draws, the coinbase output values,
come from one call. The plan names wallets by index and holds no objects, so
the garbage collector stops tracking it. Every payment spends whole outputs
from the front of its payer's pool. A wallet with several addresses, a
user's or a scheme's, spends one output per address the first time it
spends, so the multi-input heuristic reunites it. A scheme that finds no
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
    __slots__ = ("addrs", "coin_time", "n_extra", "budget", "pool")

    def __init__(self, addrs: list[str], coin_time: float, n_extra: int):
        self.addrs = addrs
        self.coin_time = coin_time
        self.n_extra = n_extra
        # Planned spends never exceed the initial freely spendable outputs,
        # so a planned payment always finds an unspent output to consume.
        self.budget = n_extra + (1 if len(addrs) == 1 else 0)
        # ((txid, index), value), spent from the front. A multi-address
        # coinbase puts its one output per address first, for the merging first
        # spend; every other output a user holds is on its first address.
        self.pool: deque = deque()


class _Scheme:
    __slots__ = ("addrs", "pool")

    def __init__(self, addrs: list[str]):
        self.addrs = addrs
        # ((txid, index), value), spent from the front; deposits are dealt
        # round-robin, so the first len(addrs) hold one per address.
        self.pool: deque = deque()


def _spend(pool: deque, n: int, need: int = 0) -> tuple[list, int]:
    """Pop n outputs from the front of pool, then more while their values sum
    below need; return their outpoints and that sum."""
    ops, total = [], 0
    while len(ops) < n or (total < need and pool):
        op, value = pool.popleft()
        ops.append(op)
        total += value
    return ops, total


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
    # and keys each deposit's value in the deposit book. A payload names
    # wallets by index: user u is wallet u, the i-th scheme that finds a
    # depositor wallet n_background + i.
    plan: list[tuple] = []

    def add(t: float, kind: str, payload) -> int:
        plan.append((t, len(plan), kind, payload))
        return len(plan) - 1

    # A user's first spend, 600 s after its coinbase, comes before any other
    # payment or deposit of its own: a multi-address wallet merges there.
    def send(t: float, ui: int, n_spent: int) -> None:
        """Plan user ui's payment of n_spent outputs to another drawn user."""
        other = int(rng.integers(0, params.n_background))
        payee = (other + 1) % params.n_background if other == ui else other
        add(t, "pay", (ui, n_spent, users[payee].addrs[0], payee))

    for ui, user in enumerate(users):
        add(user.coin_time, "coinbase", ui)
        if len(user.addrs) > 1:
            send(user.coin_time + 600, ui, len(user.addrs))
        n_sends = min(int(rng.poisson(send_rate)), user.budget)
        for _ in range(n_sends):
            send(float(rng.uniform(user.coin_time + 7200, T0 + span)), ui, 1)
        user.budget -= n_sends

    schemes: list[_Scheme] = []  # those that find a depositor
    for s in range(params.n_ponzi):
        n_addr = [1, 2, 3, 4, 6, 8][bisect_right(scheme_cdf, rng.random())]
        scheme = _Scheme([f"px{s:03d}x{j}" for j in range(n_addr)])
        wallet = params.n_background + len(schemes)
        window_start = T0 + float(rng.uniform(span * 0.10, span * 0.55))
        duration = float(rng.uniform(10 * DAY, 50 * DAY))
        count = max(4 * n_addr, int(round(rng.lognormal(count_mu, DEPOSIT_COUNT_SIGMA))))
        dep_times = np.sort(rng.uniform(window_start, window_start + duration, size=count)).tolist()
        funded: dict[int, tuple] = {}  # deposit index -> (seq of its payment, payer index)
        for d, t in enumerate(dep_times):
            for _ in range(200):
                pi = int(rng.integers(0, params.n_background))
                payer = users[pi]
                if payer.budget > 0 and payer.coin_time + 7200 <= t:
                    payer.budget -= 1
                    # Round-robin over funded deposits so every address receives one.
                    seq = add(t, "pay", (pi, 1, scheme.addrs[len(funded) % n_addr], wallet))
                    funded[d] = (seq, pi)
                    break
        if not funded:
            continue
        schemes.append(scheme)
        # Too few deposits to cover every address: the wallet shrinks to the
        # addresses paid, so its merging first payout stays reachable.
        del scheme.addrs[len(funded):]
        n_payable = math.ceil((1.0 - implosion) * count)
        # No payout before every address holds a deposit, so the first one,
        # which pops one deposit per address, co-spends across the wallet.
        merge_ready = dep_times[list(funded)[len(scheme.addrs) - 1]] + 600.0
        # In time order, ties by deposit: the order the plan's sort gives them.
        payouts = sorted((max(dep_times[d] + float(rng.lognormal(delay_mu, delay_sigma)),
                              merge_ready), seq, payer)
                         for d, (seq, payer) in funded.items() if d < n_payable)
        for i, (t, dep_seq, payer) in enumerate(payouts):
            add(t, "payout", (wallet, dep_seq, 0 if i else len(scheme.addrs), payer))

    plan.sort()  # by (time, seq); seq is unique

    # The loop below draws only the coinbase output values, in emission order;
    # one call draws them all, element by element as scalar calls do.
    values = rng.lognormal(VALUE_MU, VALUE_SIGMA, size=sum(len(u.addrs) + u.n_extra for u in users))
    values = iter(np.maximum(values.astype(np.int64), 100_000).tolist())

    # Materialize in time order into columns; the clock is strictly increasing
    # so the sorted log order always sees an output before the input spending it.
    txids, times, coinbase, n_in, prevs, n_out, outputs = [], [], [], [], [], [], []
    clock = 0
    wallets = users + schemes
    deposits: dict[int, int] = {}  # deposit seq -> value received

    def emit(t: float, ops: list, outs: list) -> str:
        """Append one transaction spending the outpoints `ops`, which only a
        coinbase leaves empty; return its txid."""
        nonlocal clock
        clock = max(clock + 1, int(t))
        txid = hashlib.sha256(f"{params.seed}:{len(txids)}".encode()).hexdigest()
        txids.append(txid)
        times.append(clock)
        coinbase.append(not ops)
        n_in.append(len(ops))
        prevs.extend(ops)
        n_out.append(len(outs))
        outputs.extend(outs)
        return txid

    def fee_for(total: int) -> int:
        return FEE if total > 10 * FEE else 0

    for t, sq, kind, payload in plan:
        if kind == "coinbase":
            user = users[payload]
            outs = [(addr, next(values)) for addr in user.addrs]
            outs += [(user.addrs[0], next(values)) for _ in range(user.n_extra)]
            txid = emit(t, [], outs)
            entries = [((txid, k), val) for k, (_, val) in enumerate(outs)]
            n_front = len(user.addrs) if len(user.addrs) > 1 else 0
            user.pool.extendleft(reversed(entries[:n_front]))
            user.pool.extend(entries[n_front:])
        elif kind == "pay":
            payer, n_spent, dest, payee = payload
            ops, val = _spend(wallets[payer].pool, n_spent)
            val -= fee_for(val)
            txid = emit(t, ops, [(dest, val)])
            wallets[payee].pool.append(((txid, 0), val))
            if payee >= len(users):  # a deposit
                deposits[sq] = val
        elif kind == "payout":
            s, dep_seq, n_spent, pi = payload
            scheme, payer = wallets[s], users[pi]
            target = int(round(PAYOUT_MULTIPLIER * deposits[dep_seq]))
            ops, collected = _spend(scheme.pool, n_spent, target + FEE)
            if collected <= FEE:
                continue
            # The deposit spent an output on the payer's first address; repay it there.
            paid = target if collected >= target + FEE else collected - fee_for(collected)
            change = collected - paid - FEE  # positive only if the target is paid
            outs = [(payer.addrs[0], paid)]
            if change > 0:
                outs.append((scheme.addrs[0], change))
            txid = emit(t, ops, outs)
            payer.pool.append(((txid, 0), paid))
            if change > 0:
                scheme.pool.append(((txid, 1), change))

    labels = {scheme.addrs[0]: LABEL_PONZI for scheme in schemes}
    if len(schemes) < params.n_ponzi:
        logger.warning("%d of %d schemes found no depositor and are left out of the labels",
                       params.n_ponzi - len(schemes), params.n_ponzi)
    for user in users:
        labels[user.addrs[0]] = LABEL_OTHER
    log = LogBuilder()
    log.extend(txids, times, coinbase, n_in, prevs, n_out, outputs)
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
