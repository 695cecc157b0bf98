"""The pool that cross-validation and ReliefF share (`ponzi_radar.share`).

The cross-validation cases of the error model live in `tests/test_evaluate.py`;
here are the pool's own contract and the ReliefF cases: a killed child, a
raising child, an interrupted parent and a failed fork each leave the weights
bit for bit those of one worker, and no child behind.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from ponzi_radar import rank, share
from ponzi_radar.errors import DataError
from ponzi_radar.rank import relieff

from conftest import make_dataset


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def forks_counted(monkeypatch) -> list:
    """Count os.fork calls; the list grows by one per fork."""
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_results_in_item_order_with_no_idle_child(monkeypatch, n, workers):
    forks = forks_counted(monkeypatch)
    got = share.share(lambda i: (i, i * i), n, workers)
    assert got == [(i, i * i) for i in range(n)]
    assert len(forks) == max(0, min(workers, n) - 1)
    assert_no_child_left()


# 600 rows make blocks of 125 rows (rank._BLOCK_CELLS): 5 blocks in all.
@pytest.fixture(scope="module")
def blocks_world():
    return make_dataset(30, 570, seed=9, separable=False)


@pytest.fixture(scope="module")
def one_worker(blocks_world):
    """The one-worker weights, and the first row of each block in block order."""
    firsts, means = [], rank._neighbour_means

    def record(Z, rows, *args):
        if int(rows[0]) not in firsts:
            firsts.append(int(rows[0]))
        return means(Z, rows, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(share, "usable_cpus", lambda: 1)
        mp.setattr(rank, "_neighbour_means", record)
        weights = relieff(blocks_world, k=10)
    assert len(firsts) == 5
    return weights, firsts


def blocks_fail(monkeypatch, firsts, blocks, fail) -> list[int]:
    """Wrap rank._neighbour_means: `fail(b, seen)` runs when a process starts
    a block b of `blocks`, given the blocks that process started before it.
    The list returned grows by each block this process starts."""
    parent, started, means = os.getpid(), {}, rank._neighbour_means

    def wrapped(Z, rows, *args):
        b = firsts.index(int(rows[0]))
        seen = started.setdefault(os.getpid(), [])
        if b not in seen:
            if b in blocks:
                fail(b, seen)
            seen.append(b)
        return means(Z, rows, *args)

    monkeypatch.setattr(rank, "_neighbour_means", wrapped)
    return started.setdefault(parent, [])


def test_relieff_child_killed_on_its_second_block(monkeypatch, blocks_world, one_worker):
    # 2 workers: the child has blocks 1 and 3, and dies by SIGKILL, as the
    # OOM killer kills, on its second; it sends nothing, so this process
    # runs its own blocks 0, 2 and 4 and then 1 and 3.
    want, firsts = one_worker
    parent = os.getpid()

    def kill(b, seen):
        if os.getpid() != parent and len(seen) == 1:
            os.kill(os.getpid(), signal.SIGKILL)

    parent_blocks = blocks_fail(monkeypatch, firsts, {3}, kill)
    monkeypatch.setattr(share, "usable_cpus", lambda: 2)
    got = relieff(blocks_world, k=10)
    assert_no_child_left()
    assert parent_blocks == [0, 2, 4, 1, 3]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("workers, parent_share", [(2, [0, 2, 4]), (3, [0, 3])])
def test_relieff_child_raising_on_one_block(monkeypatch, blocks_world, one_worker,
                                            workers, parent_share):
    # The child with block 1 finishes it and raises on its next block, which
    # this process then runs; the other blocks come from the children.
    want, firsts = one_worker
    parent, failing = os.getpid(), 1 + workers

    def raise_in_child(b, seen):
        if os.getpid() != parent:
            raise DataError("only a child fails")

    parent_blocks = blocks_fail(monkeypatch, firsts, {failing}, raise_in_child)
    monkeypatch.setattr(share, "usable_cpus", lambda: workers)
    got = relieff(blocks_world, k=10)
    assert_no_child_left()
    assert parent_blocks == [*parent_share, failing]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_relieff_block_error_raises_as_one_worker_raises_it(monkeypatch, blocks_world,
                                                            one_worker, workers):
    # Blocks 2 and 4 fail in every process: block 2's error is raised, the
    # one that one worker meets first.
    _, firsts = one_worker

    def raise_everywhere(b, seen):
        raise DataError(f"block {b} cannot be ranked")

    blocks_fail(monkeypatch, firsts, {2, 4}, raise_everywhere)
    monkeypatch.setattr(share, "usable_cpus", lambda: workers)
    with pytest.raises(DataError, match="^block 2 cannot be ranked$"):
        relieff(blocks_world, k=10)
    assert_no_child_left()


def test_relieff_interrupted_parent_kills_its_children(monkeypatch, blocks_world, one_worker):
    want, _ = one_worker
    parent, means = os.getpid(), rank._neighbour_means

    def interrupted(*args):
        if os.getpid() != parent:
            time.sleep(60)  # killed long before
        raise KeyboardInterrupt

    monkeypatch.setattr(rank, "_neighbour_means", interrupted)
    monkeypatch.setattr(share, "usable_cpus", lambda: 3)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        relieff(blocks_world, k=10)
    assert time.perf_counter() - t0 < 30
    assert_no_child_left()
    monkeypatch.setattr(rank, "_neighbour_means", means)
    assert relieff(blocks_world, k=10).tobytes() == want.tobytes()
    assert_no_child_left()


def test_relieff_failed_fork_leaves_every_block_to_the_parent(monkeypatch, blocks_world,
                                                              one_worker):
    want, firsts = one_worker

    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    parent_blocks = blocks_fail(monkeypatch, firsts, (), None)
    monkeypatch.setattr(share, "usable_cpus", lambda: 2)
    got = relieff(blocks_world, k=10)
    assert parent_blocks == [0, 2, 4, 1, 3]
    assert got.tobytes() == want.tobytes()
    assert_no_child_left()
