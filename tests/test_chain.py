import io
import random
from datetime import date
from decimal import Decimal

import pytest

from ponzi_radar.chain import (
    RateTable,
    parse_tx_log,
    to_usd,
    validate_tx_log,
)
from ponzi_radar.errors import DataError, MissingRateError, ParseError

from conftest import (
    BTC,
    canonical_lines,
    fan_out_then_join_lines,
    parse_lines,
    random_valid_log,
    tx_line,
    txid_of,
)


class TestParse:
    def test_empty_stream(self):
        log = parse_tx_log(io.StringIO(""))
        assert len(log) == 0

    def test_single_coinbase(self):
        log = parse_lines([
            tx_line(txid_of("cb"), 500, coinbase=True, outputs=[("A", 50 * BTC)])
        ])
        (tx,) = log.transactions
        assert tx.coinbase and tx.inputs == ()
        assert [(out.addr, out.value) for out in tx.outputs] == [("A", 5_000_000_000)]

    def test_join_transaction_fee(self):
        lines, (t0, t1, t2) = fan_out_then_join_lines()
        log = parse_lines(lines)
        report = validate_tx_log(log)
        # 1 + 0.9 + 2 BTC enter the join's inputs... the join spends 2 + 0.9
        # and emits 2.5, leaving 0.4 BTC to the miners.
        assert report.fees[t2] == 40_000_000

    def test_sorted_with_txid_tiebreak(self):
        a, b = "ff" * 32, "aa" * 32
        log = parse_lines([
            tx_line(a, 100, coinbase=True, outputs=[("x", 1)]),
            tx_line(b, 100, coinbase=True, outputs=[("y", 1)]),
        ])
        assert [t.txid for t in log.transactions] == [b, a]

    def test_line_order_irrelevant(self):
        lines, _ = fan_out_then_join_lines()
        log1 = parse_lines(lines)
        log2 = parse_lines(list(reversed(lines)))
        assert canonical_lines(log1) == canonical_lines(log2)

    def test_syntax_error_carries_line_and_column(self):
        with pytest.raises(ParseError) as err:
            parse_lines(['{"txid": }'])
        assert err.value.line == 1
        assert err.value.column is not None

    def test_duplicate_txid(self):
        line = tx_line(txid_of("dup"), 5, coinbase=True, outputs=[("a", 1)])
        with pytest.raises(ParseError, match="duplicate txid"):
            parse_lines([line, line])

    def test_negative_value(self):
        with pytest.raises(ParseError, match="negative value"):
            parse_lines([tx_line(txid_of("neg"), 5, coinbase=True, outputs=[("a", -3)])])

    def test_bad_timestamp(self):
        bad = tx_line(txid_of("ts"), 5, coinbase=True, outputs=[]).replace('"time": 5', '"time": "soon"')
        with pytest.raises(ParseError, match="timestamp"):
            parse_lines([bad])

    def test_coinbase_with_inputs_rejected(self):
        with pytest.raises(ParseError, match="coinbase"):
            parse_lines([tx_line(txid_of("cbin"), 5, coinbase=True,
                                 inputs=[(txid_of("x"), 0)], outputs=[("a", 1)])])

    def test_noncoinbase_without_inputs_rejected(self):
        with pytest.raises(ParseError, match="at least one input"):
            parse_lines([tx_line(txid_of("noin"), 5, outputs=[("a", 1)])])

    def test_missing_field(self):
        with pytest.raises(ParseError, match="missing field"):
            parse_lines(['{"txid": "' + "0" * 64 + '", "time": 1, "coinbase": true, "in": []}'])


class TestValidate:
    def test_valid_chain_is_ok(self, fan_out_then_join):
        log, (t0, t1, t2) = fan_out_then_join
        report = validate_tx_log(log)
        assert report.ok
        assert report.fees == {t1: 0, t2: 40_000_000}

    def test_double_spend_names_both_spenders(self):
        t0 = txid_of("src")
        s1, s2 = txid_of("spend1"), txid_of("spend2")
        log = parse_lines([
            tx_line(t0, 10, coinbase=True, outputs=[("a", 100)]),
            tx_line(s1, 20, inputs=[(t0, 0)], outputs=[("b", 100)]),
            tx_line(s2, 30, inputs=[(t0, 0)], outputs=[("c", 100)]),
        ])
        report = validate_tx_log(log)
        assert not report.ok
        assert len(report.double_spends) == 1
        entry = report.double_spends[0]
        assert entry.prev == (t0, 0)
        assert set(entry.spenders) == {s1, s2}

    def test_dangling_reference(self):
        log = parse_lines([
            tx_line(txid_of("ghost-spend"), 10, inputs=[(txid_of("nowhere"), 0)],
                    outputs=[("a", 5)]),
        ])
        report = validate_tx_log(log)
        assert not report.ok
        assert len(report.dangling) == 1
        assert report.dangling[0].prev == (txid_of("nowhere"), 0)

    def test_negative_fee_reported(self):
        t0 = txid_of("small")
        log = parse_lines([
            tx_line(t0, 10, coinbase=True, outputs=[("a", 100)]),
            tx_line(txid_of("inflate"), 20, inputs=[(t0, 0)], outputs=[("b", 150)]),
        ])
        report = validate_tx_log(log)
        assert report.negative_fees == ((txid_of("inflate"), -50),)


class TestInvariants:
    def test_round_trip_fixed_point(self):
        rng = random.Random(7)
        for _ in range(20):
            log = random_valid_log(rng, rng.randint(0, 60))
            first = canonical_lines(log)
            again = canonical_lines(parse_lines(first))
            assert first == again

    def test_value_conservation(self):
        rng = random.Random(11)
        for _ in range(20):
            log = random_valid_log(rng, rng.randint(1, 80))
            report = validate_tx_log(log)
            assert report.ok
            spent = sum(
                inp.value
                for tx in log.transactions if not tx.coinbase
                for inp in tx.inputs
            )
            redistributed = sum(
                out.value for tx in log.transactions if not tx.coinbase
                for out in tx.outputs
            )
            assert sum(report.fees.values()) + redistributed == spent


class TestUsd:
    RATES = RateTable({
        date(2014, 3, 1): Decimal("500.00"),
        date(2014, 3, 2): Decimal("10000.00"),
    })

    def test_unit_rate(self):
        assert to_usd(BTC, date(2014, 3, 1), self.RATES) == Decimal("500.00")

    def test_zero(self):
        assert to_usd(0, date(2014, 3, 1), self.RATES) == Decimal("0.00")

    def test_half_even_cents(self):
        # 12345 sat * 10000 / 1e8 = 1.2345 -> 1.23
        assert to_usd(12345, date(2014, 3, 2), self.RATES) == Decimal("1.23")
        # 12350 sat -> 1.235: half rounds to the even cent, 1.24
        assert to_usd(12350, date(2014, 3, 2), self.RATES) == Decimal("1.24")
        # 12450 sat -> 1.245: half rounds down to the even cent, 1.24
        assert to_usd(12450, date(2014, 3, 2), self.RATES) == Decimal("1.24")

    def test_missing_date(self):
        with pytest.raises(MissingRateError):
            to_usd(1, date(1999, 1, 1), self.RATES)

    def test_rate_table_csv(self):
        table = RateTable.from_csv(io.StringIO(
            "date,usd_per_btc\n2014-03-01,500.00\n2014-03-02,612.50\n"))
        assert table.rate(date(2014, 3, 2)) == Decimal("612.50")

    def test_rate_table_rejects_duplicates_and_nonpositive(self):
        with pytest.raises(DataError, match="duplicate"):
            RateTable.from_csv(io.StringIO(
                "date,usd_per_btc\n2014-03-01,500\n2014-03-01,501\n"))
        with pytest.raises(DataError, match="positive"):
            RateTable.from_csv(io.StringIO("date,usd_per_btc\n2014-03-01,0\n"))
