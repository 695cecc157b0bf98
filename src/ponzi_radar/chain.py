"""Simplified UTXO transaction log: parsing, validation, serialization.

The log is UTF-8 text, one JSON object per line:

    {"txid": <64 hex>, "time": <unix seconds>, "coinbase": <bool>,
     "in":  [{"tx": <64 hex>, "idx": <uint>}, ...],
     "out": [{"addr": <string>, "val": <uint satoshi>}, ...]}

Each input references a previous output by (txid, index). Amounts are integer
satoshi end to end, so feature sums never accumulate float drift. A timestamp
must lie strictly between -2**62 and 2**62, so that the difference of any two
fits in int64; each transaction's outputs sum to at most 2**63 - 1. The parser
takes text: a file opened as UTF-8 text, lines or a str.

The log is held as arrays, not as per-transaction objects. Parsing checks each
line and appends its fields to flat columns (`LogBuilder.add_record`);
`LogBuilder.extend` appends whole columns. Each address string is stored once,
in first-seen output order, and named by an integer id from then on. The
resolve pass (`LogBuilder.build`) sorts the transactions by (timestamp, txid)
and resolves every input at once: an input resolves to an output of an
earlier transaction whose index is in range, even one that another input also
spends. `validate_tx_log` finds dangling references, double spends and
negative fees in the same arrays. `TxLog.transactions` builds `Transaction`
objects only when asked; `serialize_tx_log` writes the arrays.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii as _json_str
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ParseError

_MAX_SATOSHI = 2**63 - 1
MAX_ABS_TIME = 2**62  # |timestamp| must be below this
_is_hex64 = re.compile("[0-9a-fA-F]{64}").fullmatch
_TX_FIELDS = frozenset({"txid", "time", "coinbase", "in", "out"})
_IN_FIELDS = frozenset({"tx", "idx"})
_OUT_FIELDS = frozenset({"addr", "val"})
_INT64 = range(-2**63, 2**63)


class OutPoint(NamedTuple):
    txid: str
    index: int


class TxInput(NamedTuple):
    """An input reference, plus the (address, value) it resolves to.

    `addr`/`value` are None until the log resolves the input, and stay None for
    dangling references.
    """

    prev: OutPoint
    addr: str | None = None
    value: int | None = None


class TxOutput(NamedTuple):
    addr: str
    value: int


@dataclass(frozen=True, slots=True)
class Transaction:
    txid: str
    timestamp: int
    coinbase: bool
    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]


class DanglingInput(NamedTuple):
    txid: str
    input_index: int
    prev: OutPoint


class DoubleSpend(NamedTuple):
    prev: OutPoint
    spenders: tuple[str, ...]


@dataclass(frozen=True)
class ValidationReport:
    dangling: tuple[DanglingInput, ...]
    double_spends: tuple[DoubleSpend, ...]
    negative_fees: tuple[tuple[str, int], ...]

    @property
    def ok(self) -> bool:
        return not (self.dangling or self.double_spends or self.negative_fees)


_SAFE_TOTAL = 2.0**62


def exact_ints(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The int64 arrays as they are, or as Python ints if a sum could overflow.

    Every partial sum or difference of sums of the values is bounded by the
    total of their magnitudes. While that total is below 2**62 (estimated in
    float64, far more precisely than the margin to 2**63), int64 arithmetic
    on them is exact; otherwise the same numpy code runs on object arrays.
    """
    total = sum(float(np.abs(a.astype(np.float64)).sum()) for a in arrays)
    if total < _SAFE_TOTAL:
        return arrays
    return tuple(a.astype(object) for a in arrays)


def segment_reduce(ufunc: np.ufunc, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """`ufunc` reduced over each `values[starts[i]:starts[i + 1]]`, 0 for an empty one.

    `np.add` sums are exact for `exact_ints` values.
    """
    out = np.zeros(len(starts) - 1, dtype=values.dtype)
    nonempty = np.flatnonzero(starts[1:] > starts[:-1])
    if len(nonempty):
        out[nonempty] = ufunc.reduceat(values, starts[nonempty])
    return out


def segment_starts(counts: np.ndarray) -> np.ndarray:
    """Where each of consecutive segments of these lengths starts, and the end."""
    starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return starts


@dataclass(frozen=True, eq=False)
class TxLog:
    """An immutable, resolved transaction log held as arrays.

    Transactions are numbered by their position in (timestamp, txid) order.
    Per transaction: `txids`, `time` (int64) and `coinbase` (bool); its inputs
    are rows `in_start[i]:in_start[i + 1]` of the per-input arrays and its
    outputs rows `out_start[i]:out_start[i + 1]` of the per-output arrays.

    - Per input: `in_tx` (position of the spending transaction),
      `in_prev_tx` (position of the referenced transaction, -1 if its txid
      is not in the log or its index is beyond int64), `in_prev_idx`, and the
      resolved `in_addr` (address id, -1 if dangling) and `in_value` (0 if
      dangling).
    - Per output: `out_tx`, `out_addr` (address id) and `out_value`.
    - `addresses[a]` is the address string of id `a`.
    - `odd_prevs` maps each input whose `in_prev_tx` is -1 to its outpoint.

    Construction resolves every input whose output lies earlier in the sorted
    log, a second spender's input included (`validate_tx_log` reports it).
    """

    txids: tuple[str, ...]
    time: np.ndarray
    coinbase: np.ndarray
    in_tx: np.ndarray
    in_start: np.ndarray
    in_prev_tx: np.ndarray
    in_prev_idx: np.ndarray
    in_addr: np.ndarray
    in_value: np.ndarray
    out_tx: np.ndarray
    out_start: np.ndarray
    out_addr: np.ndarray
    out_value: np.ndarray
    addresses: tuple[str, ...]
    odd_prevs: dict[int, OutPoint]

    def __len__(self) -> int:
        return len(self.txids)

    def prev(self, j: int) -> OutPoint:
        """The outpoint that input `j` references."""
        odd = self.odd_prevs.get(j)
        if odd is not None:
            return odd
        return OutPoint(self.txids[self.in_prev_tx[j]], int(self.in_prev_idx[j]))

    @cached_property
    def transactions(self) -> tuple[Transaction, ...]:
        """The log as Transaction objects, in sorted order; built on first use."""
        addresses = self.addresses
        inputs = [TxInput(self.prev(j), addresses[a], v) if a >= 0 else TxInput(self.prev(j))
                  for j, (a, v) in enumerate(zip(self.in_addr.tolist(),
                                                 self.in_value.tolist()))]
        outputs = [TxOutput(addresses[a], v)
                   for a, v in zip(self.out_addr.tolist(), self.out_value.tolist())]
        in_start, out_start = self.in_start.tolist(), self.out_start.tolist()
        return tuple(
            Transaction(txid, t, cb, tuple(inputs[in_start[i]:in_start[i + 1]]),
                        tuple(outputs[out_start[i]:out_start[i + 1]]))
            for i, (txid, t, cb) in enumerate(zip(self.txids, self.time.tolist(),
                                                  self.coinbase.tolist()))
        )


def _not_hex64(value: object, what: str, line: int) -> ParseError:
    """The error for a `what` that is not a 64-character hex string."""
    if type(value) is str and len(value) == 64:
        return ParseError(f"{what} contains non-hex characters", line)
    return ParseError(f"{what} must be a 64-character hex string", line)


def _not_uint(value: object, what: str, line: int) -> ParseError:
    """The error for a `what` that is not a non-negative integer."""
    if type(value) is int:
        return ParseError(f"negative value for {what}", line)
    return ParseError(f"{what} must be an integer", line)


class LogBuilder:
    """Transactions in any order as flat columns; `build` resolves them.

    Each address string is interned once into an integer id. Txids must be
    unique.
    """

    def __init__(self):
        self.txids: list[str] = []
        self.index: dict[str, int] = {}  # txid -> arrival position
        self.times: list[int] = []
        self.coinbase: list[bool] = []
        self.n_in: list[int] = []
        self.prev_txids: list[str] = []
        self.prev_idx: list[int] = []
        self.n_out: list[int] = []
        self.out_addr: list[int] = []
        self.out_value: list[int] = []
        self.addr_ids: dict[str, int] = {}

    def extend(self, txids: list[str], times: list[int], coinbase: list[bool],
               n_in: list[int], prevs: list[tuple[str, int]],
               n_out: list[int], outputs: list[tuple[str, int]]) -> None:
        """Append whole columns: per transaction txid, time, coinbase flag and
        input and output counts, then every input's (txid, index) and every
        output's (address, value). A repeated txid or a time outside
        (-2**62, 2**62) raises ValueError.
        """
        start, index = len(self.txids), self.index
        index.update(zip(txids, range(start, start + len(txids))))
        if len(index) != start + len(txids):
            raise ValueError("transaction log has duplicate txids")
        bad = next((t for t in times if not -MAX_ABS_TIME < t < MAX_ABS_TIME), None)
        if bad is not None:
            raise ValueError(f"timestamp {bad} is outside (-2**62, 2**62)")
        ids = self.addr_ids
        self.txids += txids
        self.times += times
        self.coinbase += coinbase
        self.n_in += n_in
        self.prev_txids += [t for t, _ in prevs]
        self.prev_idx += [k for _, k in prevs]
        self.n_out += n_out
        self.out_addr += [ids.setdefault(a, len(ids)) for a, _ in outputs]
        self.out_value += [v for _, v in outputs]

    def add_record(self, obj: object, line: int) -> None:
        """Check one parsed log line and append it; errors name `line`."""
        if type(obj) is not dict:
            raise ParseError("record is not a JSON object", line)
        if obj.keys() != _TX_FIELDS:
            unknown = obj.keys() - _TX_FIELDS
            if unknown:
                raise ParseError(f"unknown field(s): {', '.join(sorted(unknown))}", line)
            for key in ("txid", "time", "coinbase", "in", "out"):
                if key not in obj:
                    raise ParseError(f"missing field: {key}", line)

        txid = obj["txid"]
        if type(txid) is not str or not _is_hex64(txid):
            raise _not_hex64(txid, "txid", line)
        txid = txid.lower()
        ts = obj["time"]
        if type(ts) is not int:
            raise ParseError("timestamp not parseable (expected integer seconds)", line)
        if not -MAX_ABS_TIME < ts < MAX_ABS_TIME:
            raise ParseError("timestamp out of range (|time| must be below 2**62)", line)
        coinbase = obj["coinbase"]
        if type(coinbase) is not bool:
            raise ParseError("coinbase must be a boolean", line)

        raw_in = obj["in"]
        if type(raw_in) is not list:
            raise ParseError("'in' must be a list", line)
        prev_txids, prev_idx = self.prev_txids, self.prev_idx
        for entry in raw_in:
            if type(entry) is not dict or entry.keys() != _IN_FIELDS:
                raise ParseError("input must be an object with fields tx, idx", line)
            prev = entry["tx"]
            if type(prev) is not str or not _is_hex64(prev):
                raise _not_hex64(prev, "input tx", line)
            prev_txids.append(prev.lower())
            idx = entry["idx"]
            if type(idx) is not int or idx < 0:
                raise _not_uint(idx, "input idx", line)
            prev_idx.append(idx)
        if coinbase and raw_in:
            raise ParseError("coinbase transaction must have no inputs", line)
        if not coinbase and not raw_in:
            raise ParseError("non-coinbase transaction must have at least one input", line)

        raw_out = obj["out"]
        if type(raw_out) is not list:
            raise ParseError("'out' must be a list", line)
        ids, out_addr, out_value = self.addr_ids, self.out_addr, self.out_value
        total = 0
        for entry in raw_out:
            if type(entry) is not dict or entry.keys() != _OUT_FIELDS:
                raise ParseError("output must be an object with fields addr, val", line)
            addr = entry["addr"]
            aid = ids.get(addr) if type(addr) is str else None
            if aid is None:  # a new address: check it once
                if type(addr) is not str or not addr:
                    raise ParseError("output addr must be a non-empty string", line)
                if not addr.isascii():
                    try:
                        addr.encode("utf-8")
                    except UnicodeEncodeError as exc:
                        raise ParseError(
                            f"output addr is not valid UTF-8: {exc.reason}", line) from exc
                aid = ids[addr] = len(ids)
            val = entry["val"]
            if type(val) is not int or val < 0:
                raise _not_uint(val, "output val", line)
            total += val
            if total > _MAX_SATOSHI:
                raise ParseError("sum of output values exceeds 63-bit satoshi range", line)
            out_addr.append(aid)
            out_value.append(val)

        n = len(self.txids)
        first = self.index.setdefault(txid, n)
        if first != n:
            raise ParseError(f"duplicate txid {txid} (first seen on line {first + 1})", line)
        self.txids.append(txid)
        self.times.append(ts)
        self.coinbase.append(coinbase)
        self.n_in.append(len(raw_in))
        self.n_out.append(len(raw_out))

    def build(self) -> TxLog:
        """The resolve pass: sort by (timestamp, txid), then resolve every input."""
        n = len(self.txids)
        time = np.array(self.times, dtype=np.int64)
        txid_rank = np.empty(n, dtype=np.int64)
        txid_rank[sorted(range(n), key=self.txids.__getitem__)] = np.arange(n)
        order = np.lexsort((txid_rank, time))
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        txids = tuple([self.txids[i] for i in order.tolist()])

        n_in = np.array(self.n_in, dtype=np.int64)
        in_perm = np.argsort(np.repeat(rank, n_in), kind="stable")
        in_tx = np.repeat(np.arange(n), n_in[order])
        in_start = segment_starts(n_in[order])
        n_out = np.array(self.n_out, dtype=np.int64)[order]
        out_perm = np.argsort(np.repeat(rank, np.array(self.n_out, dtype=np.int64)),
                              kind="stable")
        out_tx = np.repeat(np.arange(n), n_out)
        out_start = segment_starts(n_out)
        out_addr = np.array(self.out_addr, dtype=np.int64)[out_perm]
        out_value = np.array(self.out_value, dtype=np.int64)[out_perm]

        # The referenced transaction and index of each input; a txid not in
        # the log or an index beyond int64 keeps its outpoint as it was given.
        index = self.index
        prev_tx = np.array([index.get(t, -1) for t in self.prev_txids], dtype=np.int64)
        try:
            prev_idx = np.array(self.prev_idx, dtype=np.int64)
        except OverflowError:
            prev_idx = np.array([i if i in _INT64 else -1 for i in self.prev_idx],
                                dtype=np.int64)
            prev_tx[[i not in _INT64 for i in self.prev_idx]] = -1
        prev_tx = np.where(prev_tx >= 0, rank[prev_tx], -1)[in_perm]
        prev_idx = prev_idx[in_perm]
        odd = np.flatnonzero(prev_tx < 0)
        odd_prevs = {k: OutPoint(self.prev_txids[j], self.prev_idx[j])
                     for k, j in zip(odd.tolist(), in_perm[odd].tolist())}

        # Resolve: an earlier transaction, an index in range.
        tx_of_prev = np.maximum(prev_tx, 0)
        valid = (prev_tx >= 0) & (prev_tx < in_tx) & (prev_idx >= 0)
        valid &= prev_idx < np.where(valid, n_out[tx_of_prev], 0)
        source = out_start[tx_of_prev[valid]] + prev_idx[valid]
        in_addr = np.full(len(in_tx), -1, dtype=np.int64)
        in_value = np.zeros(len(in_tx), dtype=np.int64)
        in_addr[valid] = out_addr[source]
        in_value[valid] = out_value[source]
        return TxLog(
            txids=txids, time=time[order], coinbase=np.array(self.coinbase, dtype=bool)[order],
            in_tx=in_tx, in_start=in_start, in_prev_tx=prev_tx, in_prev_idx=prev_idx,
            in_addr=in_addr, in_value=in_value,
            out_tx=out_tx, out_start=out_start, out_addr=out_addr, out_value=out_value,
            addresses=tuple(self.addr_ids), odd_prevs=odd_prevs,
        )


_scan_json = json.JSONDecoder().scan_once


def parse_tx_log(stream: IO[str] | Iterable[str]) -> TxLog:
    """Parse a line-delimited transaction log, given as text, into a TxLog.

    Malformed lines raise ParseError with the offending line number (and
    column, for JSON syntax errors). Duplicate txids are rejected. A str is
    split into lines as a text file is read: at LF, CR and CR LF only.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream, newline="")
    builder = LogBuilder()
    add = builder.add_record
    for line_no, raw in enumerate(stream, start=1):
        text = raw.strip()
        if not text:
            raise ParseError("blank line", line_no)
        # The scanner decodes one value from the start; json.loads reports
        # anything else (the line is stripped of JSON whitespace already).
        try:
            obj, end = _scan_json(text, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(text):
            obj = _loads(text, line_no)
        add(obj, line_no)
    return builder.build()


def _loads(text: str, line_no: int) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line_no, exc.colno) from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply", line_no) from exc
    except ValueError as exc:  # e.g. an integer beyond the digit limit
        raise ParseError(f"invalid JSON: {exc}", line_no) from exc


def load_tx_log(path: str) -> TxLog:
    with open(path, "r", encoding="utf-8", newline="") as fp:
        return parse_tx_log(fp)


def validate_tx_log(log: TxLog) -> ValidationReport:
    """Report dangling references, double spends and negative fees.

    Problems are report entries, not exceptions; `report.ok` is True iff all
    three lists are empty. A double-spent output is listed with its spenders
    in sorted order. A fee is checked only for a non-coinbase transaction
    whose inputs all resolve; negative ones are listed in log order with
    their exact value.
    """
    txids, in_tx, in_start = log.txids, log.in_tx, log.in_start.tolist()
    resolved = log.in_addr >= 0
    dangling = tuple(
        DanglingInput(txids[t], j - in_start[t], log.prev(j))
        for j, t in zip(np.flatnonzero(~resolved).tolist(), in_tx[~resolved].tolist())
    )

    # Inputs that resolve to one output, in sorted order; the spends are
    # listed in the order their second spender comes.
    spends = np.flatnonzero(resolved)
    source = log.out_start[log.in_prev_tx[spends]] + log.in_prev_idx[spends]
    by_output = np.argsort(source, kind="stable")
    first = np.ones(len(spends), dtype=bool)
    first[1:] = source[by_output[1:]] != source[by_output[:-1]]
    group_start = np.flatnonzero(first)
    group_end = np.append(group_start[1:], len(spends))
    shared = np.flatnonzero(group_end - group_start > 1)
    shared = shared[np.argsort(by_output[group_start[shared] + 1])]
    double_spends = tuple(
        DoubleSpend(log.prev(int(spends[by_output[lo]])),
                    tuple(txids[t] for t in in_tx[spends[by_output[lo:hi]]].tolist()))
        for lo, hi in zip(group_start[shared].tolist(), group_end[shared].tolist())
    )

    in_value, out_value = exact_ints(log.in_value, log.out_value)
    fee = (segment_reduce(np.add, in_value, log.in_start)
           - segment_reduce(np.add, out_value, log.out_start))
    unresolved = np.bincount(in_tx[~resolved], minlength=len(txids))
    negative = np.flatnonzero(~log.coinbase & (unresolved == 0) & (fee < 0))
    return ValidationReport(
        dangling=dangling,
        double_spends=double_spends,
        negative_fees=tuple(zip([txids[i] for i in negative.tolist()], fee[negative].tolist())),
    )


def serialize_tx_log(log: TxLog) -> Iterator[str]:
    """Yield canonical log lines: sorted order, compact JSON, fixed key order."""
    addr_json = [_json_str(a) for a in log.addresses]
    txid_json = [_json_str(t) for t in log.txids]
    ins = ['{"tx":%s,"idx":%d}' % ((txid_json[p], k) if p >= 0 else
                                   (_json_str(log.odd_prevs[j].txid), log.odd_prevs[j].index))
           for j, (p, k) in enumerate(zip(log.in_prev_tx.tolist(), log.in_prev_idx.tolist()))]
    outs = ['{"addr":%s,"val":%d}' % (addr_json[a], v)
            for a, v in zip(log.out_addr.tolist(), log.out_value.tolist())]
    in_start, out_start = log.in_start.tolist(), log.out_start.tolist()
    for i, (txid, t, cb) in enumerate(zip(txid_json, log.time.tolist(), log.coinbase.tolist())):
        yield '{"txid":%s,"time":%d,"coinbase":%s,"in":[%s],"out":[%s]}' % (
            txid, t, "true" if cb else "false", ",".join(ins[in_start[i]:in_start[i + 1]]),
            ",".join(outs[out_start[i]:out_start[i + 1]]))


def write_tx_log(log: TxLog, fp: IO[str]) -> None:
    for line in serialize_tx_log(log):
        fp.write(line)
        fp.write("\n")
