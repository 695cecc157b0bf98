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
byte-identical serialized log. Every action is planned as one flat tuple
(time, seq, kind, wallets by index, ...) of numbers and strings, which the
garbage collector stops tracking; a stable sort on time alone puts the plan in
(time, seq) order. The plan is then replayed in one loop into the columns that
`LogBuilder.extend` takes, each txid hashed as its transaction is emitted; the
replay's only draws, the coinbase output values, come from one call. The
scalar draws go through bound methods, and `rng.uniform(a, b)` is written as
`a + (b - a) * rng.random()`, which is how numpy computes it, so the draw
stream stays that of one `uniform` call each. Every payment spends whole
outputs, flat (txid, index, value) entries, from the front of its payer's
pool. A wallet with several addresses, a user's or a scheme's, spends one
output per address the first time it spends, so the multi-input heuristic
reunites it. A scheme that finds no depositor never reaches the log and is
not labeled.
"""

from __future__ import annotations

import hashlib
import logging
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
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


# Planned action kinds.
_COINBASE, _PAY, _PAYOUT = 0, 1, 2


def generate(params: SynthParams) -> tuple[TxLog, dict[str, str]]:
    """Build (TxLog, seed-address -> P/nP label map) for the given parameters."""
    hard = params.hard_mode  # pulls the two classes together
    count_mu = DEPOSIT_COUNT_MU - 0.9 if hard else DEPOSIT_COUNT_MU
    delay_mu = PAYOUT_DELAY_MU + 2.0 if hard else PAYOUT_DELAY_MU
    delay_sigma = PAYOUT_DELAY_SIGMA + 0.4 if hard else PAYOUT_DELAY_SIGMA
    implosion = IMPLOSION_FRACTION + 0.25 if hard else IMPLOSION_FRACTION
    send_rate = SEND_RATE * 3.0 if hard else SEND_RATE
    rng = np.random.default_rng(params.seed)
    # A scalar `rng.uniform(a, b)` is `a + (b - a) * rng.random()`, bit for bit.
    random, integers, poisson = rng.random, rng.integers, rng.poisson
    span = SPAN_DAYS * DAY
    n_users = params.n_background
    # `rng.choice(a, p=p)` takes the entry at the count of these cumulative
    # weights that are <= one `rng.random()`; so does `bisect_right`.
    user_cdf, scheme_cdf = ((np.cumsum(p) / np.cumsum(p)[-1]).tolist()
                            for p in ([0.7, 0.2, 0.1], [0.4, 0.2, 0.15, 0.1, 0.1, 0.05]))

    # Wallet w's addresses: user u is wallet u, and the i-th scheme that finds
    # a depositor is wallet n_users + i. Per user: coinbase time, extra coinbase
    # outputs (all on its first address) and budget. Planned spends never
    # exceed the initial freely spendable outputs, so a planned payment always
    # finds an unspent output to consume.
    addrs_of: list[list[str]] = []
    coin_time, n_extra, budget = [], [], []
    for u in range(n_users):
        addrs = [f"bg{u:05d}x{j}" for j in range(1 + bisect_right(user_cdf, random()))]
        addrs_of.append(addrs)
        coin_time.append(T0 + span * 0.5 * random())
        n_extra.append(int(integers(2, 5)))
        budget.append(n_extra[-1] + (len(addrs) == 1))

    # Planned actions, flat: (time, seq, kind, payer wallet, outputs it spends
    # at least, payee address, payee wallet, deposit seq of a payout); seq
    # keeps the sort stable and keys each deposit's value in the deposit book.
    plan: list[tuple] = []
    add = plan.append

    # A user's first spend, 600 s after its coinbase, comes before any other
    # payment or deposit of its own: a multi-address wallet merges there.
    def send(t: float, ui: int, n_spent: int) -> None:
        """Plan user ui's payment of n_spent outputs to another drawn user."""
        other = int(integers(0, n_users))
        payee = (other + 1) % n_users if other == ui else other
        add((t, len(plan), _PAY, ui, n_spent, addrs_of[payee][0], payee, 0))

    end = T0 + span
    for ui, addrs in enumerate(addrs_of):
        t0 = coin_time[ui]
        add((t0, len(plan), _COINBASE, ui, 0, "", 0, 0))
        if len(addrs) > 1:
            send(t0 + 600, ui, len(addrs))
        n_sends = min(int(poisson(send_rate)), budget[ui])
        budget[ui] -= n_sends
        lo = t0 + 7200
        for _ in range(n_sends):
            send(lo + (end - lo) * random(), ui, 1)

    for s in range(params.n_ponzi):
        n_addr = [1, 2, 3, 4, 6, 8][bisect_right(scheme_cdf, random())]
        addrs = [f"px{s:03d}x{j}" for j in range(n_addr)]
        wallet = len(addrs_of)
        window_start = T0 + float(rng.uniform(span * 0.10, span * 0.55))
        duration = float(rng.uniform(10 * DAY, 50 * DAY))
        count = max(4 * n_addr, int(round(rng.lognormal(count_mu, DEPOSIT_COUNT_SIGMA))))
        dep_times = np.sort(rng.uniform(window_start, window_start + duration, size=count)).tolist()
        funded: dict[int, tuple] = {}  # deposit index -> (seq of its payment, payer)
        for d, t in enumerate(dep_times):
            for _ in range(200):
                pi = int(integers(0, n_users))
                if budget[pi] > 0 and coin_time[pi] + 7200 <= t:
                    budget[pi] -= 1
                    # Round-robin over funded deposits so every address receives one.
                    funded[d] = (len(plan), pi)
                    add((t, len(plan), _PAY, pi, 1, addrs[(len(funded) - 1) % n_addr], wallet, 0))
                    break
        if not funded:
            continue
        # Too few deposits to cover every address: the wallet shrinks to the
        # addresses paid, so its merging first payout stays reachable.
        del addrs[len(funded):]
        addrs_of.append(addrs)
        n_payable = math.ceil((1.0 - implosion) * count)
        # No payout before every address holds a deposit, so the first one,
        # which pops one deposit per address, co-spends across the wallet.
        merge_ready = dep_times[list(funded)[len(addrs) - 1]] + 600.0
        # In time order, ties by deposit: the order the plan's sort gives them.
        payouts = sorted((max(dep_times[d] + float(rng.lognormal(delay_mu, delay_sigma)),
                              merge_ready), seq, payer)
                         for d, (seq, payer) in funded.items() if d < n_payable)
        for i, (t, dep_seq, payer) in enumerate(payouts):
            # The deposit spent an output on the payer's first address; repay it there.
            add((t, len(plan), _PAYOUT, wallet, 0 if i else len(addrs),
                 addrs_of[payer][0], payer, dep_seq))

    plan.sort(key=itemgetter(0))  # by time; a stable sort keeps ties in seq order

    # The loop below draws only the coinbase output values, in emission order;
    # one call draws them all, element by element as scalar calls do.
    values = rng.lognormal(VALUE_MU, VALUE_SIGMA, size=sum(map(len, addrs_of)) + sum(n_extra))
    values = np.maximum(values.astype(np.int64), 100_000).tolist()

    # Materialize in time order into columns; the clock is strictly increasing
    # so the sorted log order always sees an output before the input spending it.
    txids, times, coinbase, n_in, prevs, n_out, outputs = [], [], [], [], [], [], []
    # Each wallet's unspent (txid, index, value), spent from the front. A
    # multi-address coinbase puts its one output per address first, for the
    # merging first spend; deposits are dealt round-robin, so a scheme's
    # first len(addrs) hold one per address.
    pools = [deque() for _ in addrs_of]
    deposits: dict[int, int] = {}  # deposit seq -> value received
    prefix = f"{params.seed}:".encode()
    sha256 = hashlib.sha256
    clock = n_values = 0
    for t, sq, kind, w, n_spent, dest, payee, dep in plan:
        pool = pools[w]
        if kind == _COINBASE:
            addrs = addrs_of[w]
            vals = values[n_values:n_values + len(addrs) + n_extra[w]]
            n_values += len(vals)
            ops, outs = (), list(zip(addrs + addrs[:1] * n_extra[w], vals))
        else:
            # Pop n_spent outputs, then, for a payout, more while they sum
            # below its target plus the fee.
            need = round(PAYOUT_MULTIPLIER * deposits[dep]) + FEE if kind == _PAYOUT else 0
            ops, total = [], 0
            while len(ops) < n_spent or (total < need and pool):
                tx, k, value = pool.popleft()
                ops.append((tx, k))
                total += value
            paid = total - FEE if total > 10 * FEE else total  # a small one pays no fee
            change = 0
            if kind == _PAYOUT:
                if total <= FEE:
                    continue
                if total >= need:
                    paid = need - FEE
                change = total - paid - FEE  # positive only if the target is paid
            outs = [(dest, paid), (addrs_of[w][0], change)] if change > 0 else [(dest, paid)]
        c = int(t)
        clock = c if c > clock else clock + 1
        txid = sha256(prefix + b"%d" % len(txids)).hexdigest()
        txids.append(txid)
        times.append(clock)
        coinbase.append(kind == _COINBASE)
        n_in.append(len(ops))
        prevs += ops
        n_out.append(len(outs))
        outputs += outs
        if kind == _COINBASE:
            entries = list(zip(repeat(txid), range(len(vals)), vals))
            n_front = len(addrs) if len(addrs) > 1 else 0
            pool.extendleft(reversed(entries[:n_front]))
            pool.extend(entries[n_front:])
        else:
            pools[payee].append((txid, 0, paid))
            if change > 0:
                pool.append((txid, 1, change))
            if payee >= n_users:  # a deposit
                deposits[sq] = paid
    del plan, pools

    labels = {addrs[0]: LABEL_PONZI for addrs in addrs_of[n_users:]}
    if len(addrs_of) - n_users < params.n_ponzi:
        logger.warning("%d of %d schemes found no depositor and are left out of the labels",
                       params.n_ponzi - len(addrs_of) + n_users, params.n_ponzi)
    for addrs in addrs_of[:n_users]:
        labels[addrs[0]] = LABEL_OTHER
    log = LogBuilder()
    log.extend(txids, times, coinbase, n_in, prevs, n_out, outputs)
    del txids, times, coinbase, n_in, prevs, n_out, outputs
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
