import io
import json
import random

import pytest

from ponzi_radar.chain import load_tx_log, parse_tx_log, validate_tx_log
from ponzi_radar.errors import ParseError

from conftest import (
    BTC,
    HOSTILE_LINES,
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
        # The join spends 2 + 0.9 BTC and emits 2.5, leaving 0.4 BTC to the
        # miners.
        join = log.transactions[2]
        assert join.txid == t2
        assert [i.value for i in join.inputs] == [2 * BTC, 90_000_000]
        assert sum(i.value for i in join.inputs) - join.outputs[0].value == 40_000_000
        assert validate_tx_log(log).negative_fees == ()

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

    @pytest.mark.parametrize("time", [2**62, -(2**62), 10**30])
    def test_timestamp_out_of_range_names_its_line(self, time):
        good = tx_line(txid_of("ok"), 1, coinbase=True, outputs=[("a", 1)])
        bad = tx_line(txid_of("far"), time, coinbase=True, outputs=[("a", 1)])
        with pytest.raises(ParseError, match="timestamp out of range") as err:
            parse_lines([good, bad])
        assert err.value.line == 2

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


class TestHostileLines:
    @pytest.mark.parametrize("name", sorted(HOSTILE_LINES))
    def test_raises_parse_error_on_its_line(self, name):
        good = tx_line(txid_of("ok"), 1, coinbase=True, outputs=[("a", 1)])
        with pytest.raises(ParseError) as err:
            parse_lines([good, HOSTILE_LINES[name]])
        assert err.value.line == 2
        assert str(err.value).startswith("line 2: ")

    def test_nesting_and_digits_are_invalid_json(self):
        for name in ("deep_nesting", "huge_time"):
            with pytest.raises(ParseError, match="invalid JSON"):
                parse_lines([HOSTILE_LINES[name]])

    def test_surrogate_address_named(self):
        with pytest.raises(ParseError, match="output addr is not valid UTF-8"):
            parse_lines([HOSTILE_LINES["lone_surrogate"]])

    def test_non_ascii_address_accepted(self):
        log = parse_lines([tx_line(txid_of("u"), 1, coinbase=True, outputs=[("adresse-é", 1)])])
        assert log.transactions[0].outputs[0].addr == "adresse-é"


def _outcome(parse, source):
    try:
        return parse(source).transactions
    except ParseError as err:
        return str(err)


class TestStringInput:
    """A str is split into lines exactly as a log file is read."""

    @staticmethod
    def both_ways(tmp_path, text):
        path = tmp_path / "log.jsonl"
        path.write_bytes(text.encode("utf-8"))
        from_file = _outcome(load_tx_log, str(path))
        assert _outcome(parse_tx_log, text) == from_file
        return from_file

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c",
                                      "\x1c", "\x1d", "\x1e"])
    def test_line_break_character_inside_address(self, tmp_path, char):
        lines = [tx_line(txid_of("first"), 1, coinbase=True, outputs=[("a", 1)]),
                 tx_line(txid_of("second"), 2, coinbase=True,
                         outputs=[("x|y", 2)]).replace("x|y", f"x{char}y")]
        outcome = self.both_ways(tmp_path, "\n".join(lines) + "\n")
        if char < " ":  # JSON strings may not hold raw control characters
            assert outcome.startswith("line 2, column ")
        else:
            assert outcome[1].outputs[0].addr == f"x{char}y"

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_other_newlines(self, tmp_path, newline):
        lines, _ = fan_out_then_join_lines()
        outcome = self.both_ways(tmp_path, newline.join(lines) + newline)
        assert len(outcome) == 3


class TestParseMessages:
    def test_uppercase_hex_txid_normalized(self):
        txid = txid_of("upper")
        log = parse_lines([tx_line(txid.upper(), 1, coinbase=True, outputs=[("a", 1)])])
        assert log.transactions[0].txid == txid

    @pytest.mark.parametrize("txid, message", [
        ("ab" * 31, "64-character"),
        (7, "64-character"),
        ("g" * 64, "non-hex"),
        ("\u0130" + "a" * 63, "non-hex"),
    ])
    def test_bad_txid_messages(self, txid, message):
        line = tx_line("0" * 64, 1, coinbase=True, outputs=[("a", 1)])
        line = line.replace('"' + "0" * 64 + '"', json.dumps(txid))
        with pytest.raises(ParseError, match=message):
            parse_lines([line])

    @pytest.mark.parametrize("record, message", [
        ({"txid": "0" * 64, "time": 1, "coinbase": True, "in": [], "out": [], "x": 1, "a": 2},
         "unknown field\\(s\\): a, x"),
        ({"txid": "0" * 64, "coinbase": True, "out": []}, "missing field: time"),
        ({"txid": "0" * 64, "time": 1, "coinbase": False, "in": [{"tx": "0" * 64}], "out": []},
         "input must be an object with fields tx, idx"),
        ({"txid": "0" * 64, "time": 1, "coinbase": True, "in": [],
          "out": [{"addr": "a", "val": 1, "x": 0}]},
         "output must be an object with fields addr, val"),
    ])
    def test_field_messages(self, record, message):
        with pytest.raises(ParseError, match=message):
            parse_lines([json.dumps(record)])


class TestValidate:
    def test_valid_chain_is_ok(self, fan_out_then_join):
        log, _ = fan_out_then_join
        assert validate_tx_log(log).ok

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
            assert validate_tx_log(log).ok
            # Every input carries the value of the output it spends, and no
            # transaction pays out more than it takes in.
            outputs = {(tx.txid, k): out.value
                       for tx in log.transactions for k, out in enumerate(tx.outputs)}
            for tx in log.transactions:
                assert all(inp.value == outputs[inp.prev] for inp in tx.inputs)
                if not tx.coinbase:
                    assert (sum(inp.value for inp in tx.inputs)
                            >= sum(out.value for out in tx.outputs))
