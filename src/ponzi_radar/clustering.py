"""Address clustering with the multi-input heuristic.

Every non-coinbase transaction with two or more inputs merges all of its
input addresses into one cluster (they are assumed to be controlled by the
same user); nothing else merges. The clusters are found on arrays, by
hooking and pointer jumping on the ranks of the address names.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import IO, Iterable, NamedTuple

import numpy as np

from .chain import TxLog
from .csvrows import read_rows, text_cells, write_rows
from .errors import DataError


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


def build_clusters(log: TxLog) -> ClusterSet:
    """Partition the log's addresses by the multi-input heuristic.

    Addresses are named by their rank among the names, and the merge edges
    join the first resolved input of each non-coinbase transaction to each
    of its other resolved inputs. Each round hooks the larger root of every
    edge whose ends differ under the smaller one, then jumps pointers until
    every address points at a root. Roots only decrease, so each address
    ends at the smallest name of its cluster, which numbers the clusters.
    After a round, a root that neither hooked nor was hooked has only
    smaller roots beside it, so it hooks in the next; each root that was
    hooked has a hooker of its own. So two rounds at least halve the roots
    of each component: at most 2*ceil(log2 n) + 1 rounds for n addresses.
    """
    spends = np.flatnonzero((log.in_addr >= 0) & ~log.coinbase[log.in_tx])
    tx, addr = log.in_tx[spends], log.in_addr[spends]
    first = np.ones(len(tx), dtype=bool)
    first[1:] = tx[1:] != tx[:-1]
    first_addr = addr[np.maximum.accumulate(np.where(first, np.arange(len(tx)), 0))]
    names = log.addresses
    by_name = np.array(sorted(range(len(names)), key=names.__getitem__), dtype=np.int64)
    rank = np.argsort(by_name)  # the inverse permutation
    a, b = rank[first_addr[~first]], rank[addr[~first]]
    root = np.arange(len(names))
    while len(a):
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(root, jumped := root[root]):
            root = jumped
        a, b = root[a], root[b]
        a, b = a[a != b], b[a != b]
    roots, cluster = np.unique(root, return_inverse=True)  # cluster by name rank
    grouped = np.argsort(cluster, kind="stable")
    ordered = [names[i] for i in by_name[grouped].tolist()]
    ends = np.cumsum(np.bincount(cluster, minlength=len(roots))).tolist()
    members = tuple(tuple(ordered[lo:hi]) for lo, hi in zip([0, *ends], ends))
    return ClusterSet(members, dict(zip(ordered, cluster[grouped].tolist())))


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


_DUMP_HEADER = ("cluster_id", "address")


def write_clusters(clusters: ClusterSet, fp: IO[str]) -> None:
    """One `cluster_id,address` row per address, clusters in index order."""
    addresses = text_cells(tuple(itertools.chain.from_iterable(clusters.members)))
    ids = itertools.chain.from_iterable(
        itertools.repeat(idx, len(group)) for idx, group in enumerate(clusters.members))
    write_rows(fp, _DUMP_HEADER, "%d,%s\n", zip(ids, addresses))


def read_clusters(fp: IO[str]) -> ClusterSet:
    """Read a cluster dump back; its cluster ids must run 0..n-1."""
    index_of: dict[str, int] = {}
    for row_no, (cell, addr) in read_rows(fp, "cluster dump", _DUMP_HEADER, width=2):
        try:
            idx = int(cell)
        except ValueError as exc:
            raise DataError(f"cluster dump row {row_no}: bad cluster id") from exc
        if addr in index_of:
            raise DataError(f"cluster dump row {row_no}: duplicate address {addr}")
        index_of[addr] = idx
    groups: dict[int, list[str]] = {}
    for addr in sorted(index_of):
        groups.setdefault(index_of[addr], []).append(addr)
    if sorted(groups) != list(range(len(groups))):
        raise DataError(f"cluster dump ids are not 0..{len(groups) - 1}")
    return ClusterSet(tuple(tuple(groups[i]) for i in range(len(groups))), index_of)


def read_seeds(fp: IO[str]) -> list[tuple[str, str]]:
    out = []
    for row_no, row in read_rows(fp, "seed file", ("label", "address")):
        if len(row) != 2 or not row[0] or not row[1]:
            raise DataError(f"seed file row {row_no}: expected 'label,address'")
        out.append((row[0], row[1]))
    return out
