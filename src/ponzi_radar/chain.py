"""Simplified UTXO transaction log: parsing, validation, USD conversion.

The log is UTF-8 text, one JSON object per line:

    {"txid": <64 hex>, "time": <unix seconds>, "coinbase": <bool>,
     "in":  [{"tx": <64 hex>, "idx": <uint>}, ...],
     "out": [{"addr": <string>, "val": <uint satoshi>}, ...]}

Each input references a previous output by (txid, index). Amounts are integer
satoshi end to end; conversion to USD happens only at reporting time through a
daily rate table, so feature sums never accumulate float drift.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import date
from decimal import Decimal, InvalidOperation, ROUND_HALF_EVEN
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import DataError, MissingRateError, ParseError

SATOSHI_PER_BTC = 100_000_000
_MAX_SATOSHI = 2**63 - 1
_HEX_DIGITS = set("0123456789abcdef")
_CENTS = Decimal("0.01")


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


@dataclass(frozen=True)
class Transaction:
    txid: str
    timestamp: int
    coinbase: bool
    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]

    def sort_key(self) -> tuple[int, str]:
        # Total deterministic order: timestamp ties broken by txid.
        return (self.timestamp, self.txid)


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
        ordered = sorted(txs, key=Transaction.sort_key)
        outputs: dict[OutPoint, list] = {}  # op -> [addr, value, spent_by|None]
        dangling: list[DanglingInput] = []
        extra_spenders: dict[OutPoint, list[str]] = {}
        negative_fees: list[tuple[str, int]] = []
        fees: dict[str, int] = {}
        resolved: list[Transaction] = []

        for tx in ordered:
            new_inputs: list[TxInput] = []
            in_sum = 0
            fully_resolved = True
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
                fee = in_sum - out_sum
                fees[tx.txid] = fee
                if fee < 0:
                    negative_fees.append((tx.txid, fee))
            resolved.append(
                Transaction(tx.txid, tx.timestamp, tx.coinbase,
                            tuple(new_inputs), tx.outputs)
            )

        double_spends = tuple(
            DoubleSpend(op, (outputs[op][2], *spenders))
            for op, spenders in extra_spenders.items()
        )
        report = ValidationReport(
            dangling=tuple(dangling),
            double_spends=double_spends,
            negative_fees=tuple(negative_fees),
            fees=fees,
        )
        return cls(tuple(resolved), report)

    def __len__(self) -> int:
        return len(self.transactions)


def _hex64(value: object, what: str, line: int) -> str:
    if not isinstance(value, str) or len(value) != 64:
        raise ParseError(f"{what} must be a 64-character hex string", line)
    low = value.lower()
    if not set(low) <= _HEX_DIGITS:
        raise ParseError(f"{what} contains non-hex characters", line)
    return low


def _uint(value: object, what: str, line: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer", line)
    if value < 0:
        raise ParseError(f"negative value for {what}", line)
    return value


def _parse_record(obj: object, line: int) -> Transaction:
    if not isinstance(obj, dict):
        raise ParseError("record is not a JSON object", line)
    unknown = set(obj) - {"txid", "time", "coinbase", "in", "out"}
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
    inputs = []
    for entry in raw_in:
        if not isinstance(entry, dict) or set(entry) != {"tx", "idx"}:
            raise ParseError("input must be an object with fields tx, idx", line)
        inputs.append(TxInput(OutPoint(_hex64(entry["tx"], "input tx", line),
                                       _uint(entry["idx"], "input idx", line))))
    if coinbase and inputs:
        raise ParseError("coinbase transaction must have no inputs", line)
    if not coinbase and not inputs:
        raise ParseError("non-coinbase transaction must have at least one input", line)

    raw_out = obj["out"]
    if not isinstance(raw_out, list):
        raise ParseError("'out' must be a list", line)
    outputs = []
    total = 0
    for entry in raw_out:
        if not isinstance(entry, dict) or set(entry) != {"addr", "val"}:
            raise ParseError("output must be an object with fields addr, val", line)
        addr = entry["addr"]
        if not isinstance(addr, str) or not addr:
            raise ParseError("output addr must be a non-empty string", line)
        val = _uint(entry["val"], "output val", line)
        total += val
        if total > _MAX_SATOSHI:
            raise ParseError("sum of output values exceeds 63-bit satoshi range", line)
        outputs.append(TxOutput(addr, val))

    return Transaction(txid, ts, coinbase, tuple(inputs), tuple(outputs))


def parse_tx_log(stream: IO[str] | IO[bytes] | Iterable[str]) -> TxLog:
    """Parse a line-delimited transaction log into a TxLog.

    Malformed lines raise ParseError with the offending line number (and
    column, for JSON syntax errors). Duplicate txids are rejected.
    """
    if isinstance(stream, str):
        stream = stream.splitlines()
    seen: dict[str, int] = {}
    txs: list[Transaction] = []
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
        tx = _parse_record(obj, line_no)
        if tx.txid in seen:
            raise ParseError(
                f"duplicate txid {tx.txid} (first seen on line {seen[tx.txid]})", line_no
            )
        seen[tx.txid] = line_no
        txs.append(tx)
    return TxLog.from_transactions(txs)


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


@dataclass(frozen=True)
class RateTable:
    """Daily USD-per-BTC average rates keyed by UTC date."""

    rates: dict[date, Decimal]

    def rate(self, day: date) -> Decimal:
        try:
            return self.rates[day]
        except KeyError:
            raise MissingRateError(f"no exchange rate for {day.isoformat()}") from None

    @classmethod
    def from_csv(cls, fp: IO[str]) -> "RateTable":
        reader = csv.reader(fp)
        header = next(reader, None)
        if header != ["date", "usd_per_btc"]:
            raise DataError("rate table must start with header 'date,usd_per_btc'")
        rates: dict[date, Decimal] = {}
        for row_no, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise DataError(f"rate table row {row_no}: expected 2 columns")
            try:
                day = date.fromisoformat(row[0])
            except ValueError as exc:
                raise DataError(f"rate table row {row_no}: bad date {row[0]!r}") from exc
            try:
                rate = Decimal(row[1])
            except InvalidOperation as exc:
                raise DataError(f"rate table row {row_no}: bad rate {row[1]!r}") from exc
            if rate <= 0:
                raise DataError(f"rate table row {row_no}: rate must be positive")
            if day in rates:
                raise DataError(f"rate table row {row_no}: duplicate date {row[0]}")
            rates[day] = rate
        return cls(rates)


def to_usd(value: int, day: date, rates: RateTable) -> Decimal:
    """Convert satoshi to USD at the given day's rate, rounded to cents half-even.

    No interpolation: a missing date raises MissingRateError.
    """
    if value < 0:
        raise ValueError("satoshi value must be non-negative")
    usd = Decimal(value) * rates.rate(day) / SATOSHI_PER_BTC
    return usd.quantize(_CENTS, rounding=ROUND_HALF_EVEN)
