"""Address clustering with the multi-input heuristic.

Every non-coinbase transaction with two or more inputs merges all of its
input addresses into one cluster (they are assumed to be controlled by the
same user). No other merges occur; coinbase transactions have no inputs and
never merge anything.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Iterable, NamedTuple

from .chain import TxLog
from .errors import DataError


class UnionFind:
    """Disjoint sets over dense integer ids, path compression + union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


@dataclass(frozen=True)
class ClusterSet:
    """A partition of all log addresses into user clusters.

    Cluster indices are dense and deterministic: clusters are numbered by the
    rank of their lexicographically smallest member address, so the same log
    always yields the same indices.
    """

    members: tuple[tuple[str, ...], ...]  # index -> sorted member addresses
    index_of: dict[str, int]

    @property
    def n_clusters(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)


def _finalize(addresses: Iterable[str], uf: UnionFind, ids: dict[str, int]) -> ClusterSet:
    groups: dict[int, list[str]] = {}
    for addr in addresses:
        groups.setdefault(uf.find(ids[addr]), []).append(addr)
    components = sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])
    members = tuple(tuple(g) for g in components)
    index_of = {addr: i for i, group in enumerate(members) for addr in group}
    return ClusterSet(members, index_of)


def build_clusters(log: TxLog) -> ClusterSet:
    """Partition the log's addresses by the multi-input heuristic."""
    ids: dict[str, int] = {}

    def intern(addr: str) -> int:
        if addr not in ids:
            ids[addr] = len(ids)
        return ids[addr]

    for tx in log.transactions:
        for out in tx.outputs:
            intern(out.addr)
        for txin in tx.inputs:
            if txin.addr is not None:
                intern(txin.addr)

    uf = UnionFind(len(ids))
    for tx in log.transactions:
        if tx.coinbase:
            continue
        in_addrs = [i.addr for i in tx.inputs if i.addr is not None]
        if len(in_addrs) < 2:
            continue
        first = ids[in_addrs[0]]
        for addr in in_addrs[1:]:
            uf.union(first, ids[addr])
    return _finalize(ids, uf, ids)


class SeedExpansion(NamedTuple):
    by_label: dict[str, tuple[int, ...]]  # label -> sorted cluster indices
    unresolved: tuple[tuple[str, str], ...]  # (label, address) not in the log
    collisions: tuple[tuple[int, tuple[str, ...]], ...]  # cluster shared by labels


def expand_seeds(clusters: ClusterSet, seeds: Iterable[tuple[str, str]]) -> SeedExpansion:
    """Map labeled seed addresses to the clusters that contain them.

    Distinct labels landing in the same cluster are reported as collisions;
    seed addresses absent from the log are recorded as unresolved, not fatal.
    """
    by_label: dict[str, set[int]] = {}
    unresolved: list[tuple[str, str]] = []
    owners: dict[int, list[str]] = {}
    for label, addr in seeds:
        idx = clusters.index_of.get(addr)
        if idx is None:
            unresolved.append((label, addr))
            continue
        by_label.setdefault(label, set()).add(idx)
        prior = owners.setdefault(idx, [])
        if label not in prior:
            prior.append(label)
    collisions = tuple(
        (idx, tuple(labels))
        for idx, labels in sorted(owners.items())
        if len(labels) > 1
    )
    return SeedExpansion(
        {label: tuple(sorted(ixs)) for label, ixs in by_label.items()},
        tuple(unresolved),
        collisions,
    )


def write_clusters(clusters: ClusterSet, fp: IO[str]) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["cluster_id", "address"])
    for idx, group in enumerate(clusters.members):
        for addr in group:
            writer.writerow([idx, addr])


def read_clusters(fp: IO[str]) -> ClusterSet:
    """Read a cluster dump back; its cluster ids must run 0..n-1."""
    reader = csv.reader(fp)
    header = next(reader, None)
    if header != ["cluster_id", "address"]:
        raise DataError("cluster dump must start with header 'cluster_id,address'")
    index_of: dict[str, int] = {}
    for row_no, row in enumerate(reader, start=2):
        if len(row) != 2:
            raise DataError(f"cluster dump row {row_no}: expected 2 columns")
        try:
            idx = int(row[0])
        except ValueError as exc:
            raise DataError(f"cluster dump row {row_no}: bad cluster id") from exc
        if row[1] in index_of:
            raise DataError(f"cluster dump row {row_no}: duplicate address {row[1]}")
        index_of[row[1]] = idx
    groups: dict[int, list[str]] = {}
    for addr in sorted(index_of):
        groups.setdefault(index_of[addr], []).append(addr)
    if sorted(groups) != list(range(len(groups))):
        raise DataError(f"cluster dump ids are not 0..{len(groups) - 1}")
    return ClusterSet(tuple(tuple(groups[i]) for i in range(len(groups))), index_of)


def read_seeds(fp: IO[str]) -> list[tuple[str, str]]:
    reader = csv.reader(fp)
    header = next(reader, None)
    if header != ["label", "address"]:
        raise DataError("seed file must start with header 'label,address'")
    out = []
    for row_no, row in enumerate(reader, start=2):
        if len(row) != 2 or not row[0] or not row[1]:
            raise DataError(f"seed file row {row_no}: expected 'label,address'")
        out.append((row[0], row[1]))
    return out
