import io
import itertools
import logging
import random
from collections import deque

import pytest

from ponzi_radar.clustering import (
    build_clusters,
    expand_seeds,
    read_clusters,
    read_seeds,
    write_clusters,
)
from ponzi_radar.cli import _ponzi_cluster_map
from ponzi_radar.errors import DataError

from conftest import canonical_lines, parse_lines, random_valid_log, tx_line, txid_of


def co_spend_components(log):
    """Oracle: BFS connected components of the graph with one edge per
    input-address pair per multi-input transaction.
    """
    nodes = set()
    adj = {}
    for tx in log.transactions:
        for out in tx.outputs:
            nodes.add(out.addr)
        in_addrs = [i.addr for i in tx.inputs if i.addr is not None]
        nodes.update(in_addrs)
        if tx.coinbase or len(in_addrs) < 2:
            continue
        for a in in_addrs:
            for b in in_addrs:
                if a != b:
                    adj.setdefault(a, set()).add(b)
    components = set()
    seen = set()
    for start in nodes:
        if start in seen:
            continue
        comp = []
        queue = deque([start])
        seen.add(start)
        while queue:
            cur = queue.popleft()
            comp.append(cur)
            for nxt in adj.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        components.add(frozenset(comp))
    return components


def partition_of(clusters):
    return {frozenset(group) for group in clusters.members}


def test_single_input_log_gives_singletons():
    t0 = txid_of("c0")
    log = parse_lines([
        tx_line(t0, 10, coinbase=True, outputs=[("a", 100), ("b", 200)]),
        tx_line(txid_of("s"), 20, inputs=[(t0, 0)], outputs=[("c", 100)]),
    ])
    clusters = build_clusters(log)
    assert partition_of(clusters) == {frozenset({"a"}), frozenset({"b"}), frozenset({"c"})}


def test_join_merges_distinct_change_addresses(fan_out_then_join):
    # The 2-input join spends outputs held by addr_b and addr_b2, so the
    # heuristic concludes one user controls both.
    log, _ = fan_out_then_join
    clusters = build_clusters(log)
    assert clusters.index_of["addr_b"] == clusters.index_of["addr_b2"]
    assert clusters.index_of["addr_a"] != clusters.index_of["addr_b"]


def co_spend_log(groups):
    """A log whose k-th spend co-spends one coinbase output of each address of
    groups[k], in that order, so its first address is the first input."""
    fund = txid_of("fund")
    lines = [tx_line(fund, 10, coinbase=True,
                     outputs=[(addr, 10) for group in groups for addr in group])]
    index = itertools.count()
    for k, group in enumerate(groups):
        lines.append(tx_line(txid_of(f"spend{k}"), 20, inputs=[(fund, next(index)) for _ in group],
                             outputs=[(group[0], 10 * len(group))]))
    return parse_lines(lines)


def zigzag(n, prefix):
    """n names whose ranks run 0, n-1, 1, n-2, ... along the list."""
    return [f"{prefix}{i // 2 if i % 2 == 0 else n - 1 - i // 2:04d}" for i in range(n)]


def adversarial_logs():
    """Shapes that make hooking slow or wrong if done carelessly: a star whose
    centre has the largest name, a path whose names zigzag low/high, a
    caterpillar (a zigzag spine with three legs a node) and a chain of two-input
    merges across 2 000 transactions."""
    path, spine = zigzag(301, "p"), zigzag(60, "m")
    return [
        co_spend_log([("z", f"a{i:03d}") for i in range(200)]),
        co_spend_log(list(zip(path, path[1:]))),
        co_spend_log([*zip(spine, spine[1:]),
                      *((f"{leg}{i:02d}", s) for i, s in enumerate(spine) for leg in "alz")]),
        co_spend_log([(f"c{i + 1:04d}", f"c{i:04d}") for i in range(2000)]),
    ]


def test_matches_bfs_components_on_random_logs():
    rng = random.Random(23)
    logs = [random_valid_log(rng, rng.randint(1, 120), n_addrs=12) for _ in range(40)]
    for log in [*logs, *adversarial_logs()]:
        clusters = build_clusters(log)
        assert partition_of(clusters) == co_spend_components(log)


def test_cluster_of_transitive_chain():
    t0 = txid_of("fund")
    log = parse_lines([
        tx_line(t0, 10, coinbase=True,
                outputs=[("a", 10), ("b", 10), ("b", 10), ("c", 10)]),
        tx_line(txid_of("t1"), 20, inputs=[(t0, 0), (t0, 1)], outputs=[("x", 20)]),
        tx_line(txid_of("t2"), 30, inputs=[(t0, 2), (t0, 3)], outputs=[("y", 20)]),
    ])
    clusters = build_clusters(log)
    assert clusters.index_of["a"] == clusters.index_of["c"]


def test_cluster_of_unknown_address(fan_out_then_join, caplog):
    # An address the log never shows is in no cluster: a label seed naming
    # it is skipped with a warning, not mapped to some cluster.
    log, _ = fan_out_then_join
    clusters = build_clusters(log)
    assert "never_seen" not in clusters.index_of
    with caplog.at_level(logging.WARNING):
        ponzi = _ponzi_cluster_map(clusters.index_of, {"never_seen": "P", "addr_a": "P"})
    assert ponzi == {clusters.index_of["addr_a"]: "addr_a"}
    assert "never_seen" in caplog.text


def test_indices_ordered_by_smallest_member():
    t0 = txid_of("seed")
    log = parse_lines([
        tx_line(t0, 10, coinbase=True, outputs=[("z", 1), ("m", 1), ("a", 1)]),
    ])
    clusters = build_clusters(log)
    assert clusters.members == (("a",), ("m",), ("z",))
    # Merged, {a, z} comes before {m} by its smallest member, not its largest.
    assert build_clusters(co_spend_log([("z", "a"), ("m",)])).members == (("a", "z"), ("m",))


def test_order_independence():
    from ponzi_radar.chain import serialize_tx_log

    rng = random.Random(5)
    log = random_valid_log(rng, 80, n_addrs=10)
    lines = list(serialize_tx_log(log))
    base = partition_of(build_clusters(log))
    for _ in range(5):
        shuffled = lines[:]
        rng.shuffle(shuffled)
        assert partition_of(build_clusters(parse_lines(shuffled))) == base


def test_monotonicity_adding_tx_never_splits():
    rng = random.Random(9)
    for _ in range(10):
        log = random_valid_log(rng, 60, n_addrs=10)
        n = rng.randint(1, len(log))
        prefix = parse_lines(canonical_lines(log)[:n])
        before = partition_of(build_clusters(prefix))
        after = partition_of(build_clusters(log))
        for group in before:
            assert any(group <= bigger for bigger in after)


class TestSeeds:
    def test_singleton_seed(self):
        log = parse_lines([
            tx_line(txid_of("one"), 5, coinbase=True, outputs=[("solo", 7)]),
        ])
        clusters = build_clusters(log)
        expansion = expand_seeds(clusters, [("scheme1", "solo")])
        (idx,) = expansion.by_label["scheme1"]
        assert len(clusters.members[idx]) == 1
        assert not expansion.collisions

    def test_expansion_reaches_co_spent_wallet(self):
        # One deposit address co-spent with 490 others: the seed expands to
        # the full 491-address wallet.
        n = 491
        t0 = txid_of("w")
        log = parse_lines([
            tx_line(t0, 10, coinbase=True, outputs=[(f"w{i:03d}", 10) for i in range(n)]),
            tx_line(txid_of("sweep"), 20, inputs=[(t0, i) for i in range(n)],
                    outputs=[("sink", 10 * n)]),
        ])
        clusters = build_clusters(log)
        expansion = expand_seeds(clusters, [("wallet", "w000")])
        (idx,) = expansion.by_label["wallet"]
        assert len(clusters.members[idx]) == n

    def test_collision_and_unresolved(self):
        t0 = txid_of("shared")
        log = parse_lines([
            tx_line(t0, 10, coinbase=True, outputs=[("p", 10), ("q", 10)]),
            tx_line(txid_of("merge"), 20, inputs=[(t0, 0), (t0, 1)],
                    outputs=[("r", 20)]),
        ])
        clusters = build_clusters(log)
        expansion = expand_seeds(
            clusters, [("s1", "p"), ("s2", "q"), ("s3", "missing")])
        assert expansion.by_label["s1"] == expansion.by_label["s2"]
        assert expansion.unresolved == (("s3", "missing"),)
        assert len(expansion.collisions) == 1
        assert set(expansion.collisions[0][1]) == {"s1", "s2"}


def test_cluster_csv_round_trip(fan_out_then_join):
    log, _ = fan_out_then_join
    clusters = build_clusters(log)
    buf = io.StringIO()
    write_clusters(clusters, buf)
    buf.seek(0)
    assert read_clusters(buf) == clusters


def test_read_clusters_names_the_id_range_it_expects():
    with pytest.raises(DataError, match=r"^cluster dump ids are not 0\.\.1$"):
        read_clusters(io.StringIO("cluster_id,address\n0,a\n2,b\n"))


def test_read_seeds_rejects_bad_header():
    with pytest.raises(DataError):
        read_seeds(io.StringIO("nope,format\n"))
