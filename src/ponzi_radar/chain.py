"""Simplified UTXO transaction log: parsing, validation, serialization.

The log is UTF-8 text, one JSON object per line:

    {"txid": <64 hex>, "time": <unix seconds>, "coinbase": <bool>,
     "in":  [{"tx": <64 hex>, "idx": <uint>}, ...],
     "out": [{"addr": <string>, "val": <uint satoshi>}, ...]}

Each input references a previous output by (txid, index). Amounts are integer
satoshi end to end, so feature sums never accumulate float drift.

Parsing checks each line into a plain record (timestamp, txid, coinbase,
input outpoints, outputs). One resolve pass then sorts the records by
(timestamp, txid) and walks them once: each input is looked up among the
outputs of the transactions already seen, the spends, dangling references
and fees of the validation report are noted, and each Transaction is built
once, with its inputs resolved. `TxLog.from_transactions` turns transactions
into the same records and runs the same pass.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import ParseError

_MAX_SATOSHI = 2**63 - 1
_HEX64 = re.compile("[0-9a-fA-F]{64}")
_TX_FIELDS = frozenset({"txid", "time", "coinbase", "in", "out"})
_IN_FIELDS = frozenset({"tx", "idx"})
_OUT_FIELDS = frozenset({"addr", "val"})


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
    fees: dict[str, int]

    @property
    def ok(self) -> bool:
        return not (self.dangling or self.double_spends or self.negative_fees)


@dataclass(frozen=True)
class TxLog:
    """An immutable transaction log with resolved inputs.

    `transactions` are sorted by (timestamp, txid). Construction resolves
    inputs in order, so a reference is only valid if its output exists
    earlier in the sorted log and was not already spent.
    """

    transactions: tuple[Transaction, ...]
    _report: ValidationReport = field(repr=False)

    @classmethod
    def from_transactions(cls, txs: Iterable[Transaction]) -> "TxLog":
        """Resolve the inputs of transactions with unique txids, in any order."""
        return _resolve([
            (tx.timestamp, tx.txid, tx.coinbase, tuple(i.prev for i in tx.inputs), tx.outputs)
            for tx in txs
        ])

    def __len__(self) -> int:
        return len(self.transactions)


# (timestamp, txid, coinbase, input outpoints, outputs): one transaction
# before its inputs are resolved.
_Record = tuple[int, str, bool, tuple[OutPoint, ...], tuple[TxOutput, ...]]


def _resolve(records: list[_Record]) -> TxLog:
    """The resolve pass: sort the records, then build each Transaction once.

    Txids are unique, so sorting the records sorts by (timestamp, txid). An
    input resolves to an output of a transaction earlier in that order,
    looked up through that transaction's txid.
    """
    records.sort()
    outputs_of: dict[str, tuple[TxOutput, ...]] = {}
    spent_by: dict[OutPoint, str] = {}
    dangling: list[DanglingInput] = []
    extra_spenders: dict[OutPoint, list[str]] = {}
    negative_fees: list[tuple[str, int]] = []
    fees: dict[str, int] = {}
    resolved: list[Transaction] = []

    for ts, txid, coinbase, prevs, outputs in records:
        inputs: list[TxInput] = []
        in_sum = 0
        fully_resolved = True
        for i, prev in enumerate(prevs):
            prev_txid, idx = prev
            prev_outputs = outputs_of.get(prev_txid)
            if prev_outputs is None or not 0 <= idx < len(prev_outputs):
                dangling.append(DanglingInput(txid, i, prev))
                inputs.append(TxInput(prev))
                fully_resolved = False
                continue
            addr, value = prev_outputs[idx]
            if prev in spent_by:
                extra_spenders.setdefault(prev, []).append(txid)
            else:
                spent_by[prev] = txid
            inputs.append(TxInput(prev, addr, value))
            in_sum += value
        outputs_of[txid] = outputs
        if not coinbase and fully_resolved:
            fee = in_sum - sum([out[1] for out in outputs])
            fees[txid] = fee
            if fee < 0:
                negative_fees.append((txid, fee))
        resolved.append(Transaction(txid, ts, coinbase, tuple(inputs), outputs))
    if len(outputs_of) != len(records):
        raise ValueError("transaction log has duplicate txids")

    report = ValidationReport(
        dangling=tuple(dangling),
        double_spends=tuple(
            DoubleSpend(op, (spent_by[op], *spenders))
            for op, spenders in extra_spenders.items()
        ),
        negative_fees=tuple(negative_fees),
        fees=fees,
    )
    return TxLog(tuple(resolved), report)


def _hex64(value: object, what: str, line: int) -> str:
    if isinstance(value, str) and _HEX64.fullmatch(value):
        return value.lower()
    if not isinstance(value, str) or len(value) != 64:
        raise ParseError(f"{what} must be a 64-character hex string", line)
    raise ParseError(f"{what} contains non-hex characters", line)


def _uint(value: object, what: str, line: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer", line)
    if value < 0:
        raise ParseError(f"negative value for {what}", line)
    return value


def _parse_record(obj: object, line: int) -> _Record:
    if not isinstance(obj, dict):
        raise ParseError("record is not a JSON object", line)
    if obj.keys() != _TX_FIELDS:
        unknown = obj.keys() - _TX_FIELDS
        if unknown:
            raise ParseError(f"unknown field(s): {', '.join(sorted(unknown))}", line)
        for key in ("txid", "time", "coinbase", "in", "out"):
            if key not in obj:
                raise ParseError(f"missing field: {key}", line)

    txid = _hex64(obj["txid"], "txid", line)
    ts = obj["time"]
    if isinstance(ts, bool) or not isinstance(ts, int):
        raise ParseError("timestamp not parseable (expected integer seconds)", line)
    coinbase = obj["coinbase"]
    if not isinstance(coinbase, bool):
        raise ParseError("coinbase must be a boolean", line)

    raw_in = obj["in"]
    if not isinstance(raw_in, list):
        raise ParseError("'in' must be a list", line)
    prevs = []
    for entry in raw_in:
        if not isinstance(entry, dict) or entry.keys() != _IN_FIELDS:
            raise ParseError("input must be an object with fields tx, idx", line)
        prevs.append(OutPoint(_hex64(entry["tx"], "input tx", line),
                              _uint(entry["idx"], "input idx", line)))
    if coinbase and prevs:
        raise ParseError("coinbase transaction must have no inputs", line)
    if not coinbase and not prevs:
        raise ParseError("non-coinbase transaction must have at least one input", line)

    raw_out = obj["out"]
    if not isinstance(raw_out, list):
        raise ParseError("'out' must be a list", line)
    outputs = []
    total = 0
    for entry in raw_out:
        if not isinstance(entry, dict) or entry.keys() != _OUT_FIELDS:
            raise ParseError("output must be an object with fields addr, val", line)
        addr = entry["addr"]
        if not isinstance(addr, str) or not addr:
            raise ParseError("output addr must be a non-empty string", line)
        if not addr.isascii():
            try:
                addr.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ParseError(f"output addr is not valid UTF-8: {exc.reason}", line) from exc
        val = _uint(entry["val"], "output val", line)
        total += val
        if total > _MAX_SATOSHI:
            raise ParseError("sum of output values exceeds 63-bit satoshi range", line)
        outputs.append(TxOutput(addr, val))

    return ts, txid, coinbase, tuple(prevs), tuple(outputs)


def parse_tx_log(stream: IO[str] | IO[bytes] | Iterable[str]) -> TxLog:
    """Parse a line-delimited transaction log into a TxLog.

    Malformed lines raise ParseError with the offending line number (and
    column, for JSON syntax errors). Duplicate txids are rejected. A str is
    split into lines as a text file is read: at LF, CR and CR LF only.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream, newline=None)
    seen: dict[str, int] = {}
    records: list[_Record] = []
    for line_no, raw in enumerate(stream, start=1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"invalid UTF-8: {exc.reason}", line_no) from exc
        text = raw.strip()
        if not text:
            raise ParseError("blank line", line_no)
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line_no, exc.colno) from exc
        except RecursionError as exc:
            raise ParseError("invalid JSON: nested too deeply", line_no) from exc
        except ValueError as exc:  # e.g. an integer beyond the digit limit
            raise ParseError(f"invalid JSON: {exc}", line_no) from exc
        record = _parse_record(obj, line_no)
        txid = record[1]
        first = seen.setdefault(txid, line_no)
        if first != line_no:
            raise ParseError(f"duplicate txid {txid} (first seen on line {first})", line_no)
        records.append(record)
    return _resolve(records)


def load_tx_log(path: str) -> TxLog:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_tx_log(fp)


def validate_tx_log(log: TxLog) -> ValidationReport:
    """Report dangling references, double spends and negative fees.

    Problems are report entries, not exceptions; `report.ok` is True iff all
    three lists are empty. Fees are listed for every fully resolved
    non-coinbase transaction.
    """
    return log._report


def serialize_tx_log(log: TxLog) -> Iterator[str]:
    """Yield canonical log lines: sorted order, compact JSON, fixed key order."""
    for tx in log.transactions:
        rec = {
            "txid": tx.txid,
            "time": tx.timestamp,
            "coinbase": tx.coinbase,
            "in": [{"tx": i.prev.txid, "idx": i.prev.index} for i in tx.inputs],
            "out": [{"addr": o.addr, "val": o.value} for o in tx.outputs],
        }
        yield json.dumps(rec, separators=(",", ":"))


def write_tx_log(log: TxLog, fp: IO[str]) -> None:
    for line in serialize_tx_log(log):
        fp.write(line)
        fp.write("\n")
