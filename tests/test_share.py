"""The pool that cross-validation, ReliefF and the forest share (`ponzi_radar.share`).

The cross-validation cases of the error model live in `tests/test_evaluate.py`;
here are the pool's own contract, its nesting rule, and the ReliefF and tree
cases: a killed child, a raising child, an interrupted parent and a failed
fork each leave the weights, or the model file, bit for bit those of one
worker, and no child behind.
"""

from __future__ import annotations

import io
import os
import signal
import time
from typing import Callable

import pytest

from ponzi_radar import learn, rank, share
from ponzi_radar.errors import DataError
from ponzi_radar.evaluate import cross_validate
from ponzi_radar.learn import CostMatrix, LearnerSpec, derive_seeds, save_model, train_model
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


def forks_logged(monkeypatch, path) -> Callable[[], int]:
    """Count os.fork calls in this process and in every child it forks: each
    call appends its caller's pid to the file at `path`. The function
    returned reads the count."""
    fork = os.fork

    def logged():
        with open(path, "a", encoding="ascii") as fp:
            fp.write(f"{os.getpid()}\n")
        return fork()

    monkeypatch.setattr(os, "fork", logged)
    return lambda: len(path.read_text(encoding="ascii").split()) if path.exists() else 0


def test_share_inside_an_item_runs_in_that_items_worker(monkeypatch, tmp_path):
    # 2 outer workers: item 1 runs in a child. Each item starts a share of 3
    # items on 3 workers, which must run in the item's own process.
    forks = forks_logged(monkeypatch, tmp_path / "forks")

    def item(i):
        inner = share.share(lambda j: (os.getpid(), 10 * i + j), 3, 3)
        return os.getpid(), inner

    got = share.share(item, 2, 2)
    assert_no_child_left()
    assert forks() == 1
    assert got[0][0] == os.getpid() != got[1][0]
    for i, (pid, inner) in enumerate(got):
        assert inner == [(pid, 10 * i + j) for j in range(3)]


def test_forest_cv_forks_for_its_folds_only(monkeypatch, tmp_path):
    # k = 5 on 3 workers: two children, whose folds' forests, like this
    # process's, grow their trees where the fold is.
    forks = forks_logged(monkeypatch, tmp_path / "forks")
    monkeypatch.setattr(share, "usable_cpus", lambda: 3)
    ds = make_dataset(8, 60, seed=13, separable=False)
    cross_validate(ds, LearnerSpec(n_trees=4), CostMatrix(20, 1), k=5, seed=6)
    assert_no_child_left()
    assert forks() == 2


def raise_in_every_process(i):
    raise DataError(f"item {i} fails")


def interrupt_the_parent(parent):
    def item(i):
        if os.getpid() != parent:
            time.sleep(60)  # killed long before
        raise KeyboardInterrupt
    return item


@pytest.mark.parametrize("failing", ["raising", "interrupted"])
def test_share_after_a_failed_share_forks_again(monkeypatch, failing):
    forks = forks_counted(monkeypatch)
    if failing == "raising":
        with pytest.raises(DataError, match="^item 0 fails$"):
            share.share(raise_in_every_process, 2, 2)
    else:
        with pytest.raises(KeyboardInterrupt):
            share.share(interrupt_the_parent(os.getpid()), 2, 2)
    assert_no_child_left()
    assert len(forks) == 1
    assert share.share(lambda i: i, 3, 3) == [0, 1, 2]
    assert len(forks) == 3
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


def model_bytes(model) -> str:
    fp = io.StringIO()
    save_model(model, fp)
    return fp.getvalue()


# A forest's trees on 1, 2 and 3 workers: the model file is the one-worker file.
@pytest.fixture(scope="module")
def trees_world():
    return make_dataset(30, 570, seed=9, separable=False)


@pytest.mark.parametrize("learner", [LearnerSpec(n_trees=7),
                                     LearnerSpec(n_trees=7, reweight=CostMatrix(20, 1)),
                                     LearnerSpec(n_trees=1)],
                         ids=["plain", "reweighted", "one_tree"])
def test_forest_is_the_one_worker_forest_on_any_worker_count(monkeypatch, trees_world,
                                                             learner):
    got = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(share, "usable_cpus", lambda: workers)
        forks = forks_counted(monkeypatch)
        got.append(model_bytes(train_model(trees_world, learner, 11)))
        assert len(forks) == min(workers, learner.n_trees) - 1
        assert_no_child_left()
    assert got[1] == got[2] == got[0]


TREES = 5  # as many as the ReliefF cases' blocks, so the shares read alike


def train_trees(trees_world) -> str:
    return model_bytes(train_model(trees_world, LearnerSpec(n_trees=TREES), 11))


@pytest.fixture(scope="module")
def one_worker_forest(trees_world):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(share, "usable_cpus", lambda: 1)
        return train_trees(trees_world)


def trees_fail(monkeypatch, trees, fail) -> list[int]:
    """Wrap learn._grow_tree: `fail(t, seen)` runs when a process starts a
    tree t of `trees`, given the trees that process started before it. The
    list returned grows by each tree this process starts."""
    parent, started, grow = os.getpid(), {}, learn._grow_tree
    seeds = derive_seeds(11, TREES)

    def wrapped(keys, values, counts, costs, rng):
        t = seeds.index(rng.bit_generator.seed_seq.entropy)
        seen = started.setdefault(os.getpid(), [])
        if t in trees:
            fail(t, seen)
        seen.append(t)
        return grow(keys, values, counts, costs, rng)

    monkeypatch.setattr(learn, "_grow_tree", wrapped)
    return started.setdefault(parent, [])


def test_tree_child_killed_on_its_second_tree(monkeypatch, trees_world, one_worker_forest):
    # 2 workers: the child has trees 1 and 3, and dies by SIGKILL on its
    # second; it sends nothing, so this process grows 0, 2 and 4, then 1 and 3.
    parent = os.getpid()

    def kill(t, seen):
        if os.getpid() != parent and len(seen) == 1:
            os.kill(os.getpid(), signal.SIGKILL)

    parent_trees = trees_fail(monkeypatch, {3}, kill)
    monkeypatch.setattr(share, "usable_cpus", lambda: 2)
    got = train_trees(trees_world)
    assert_no_child_left()
    assert parent_trees == [0, 2, 4, 1, 3]
    assert got == one_worker_forest


@pytest.mark.parametrize("workers, parent_share", [(2, [0, 2, 4]), (3, [0, 3])])
def test_tree_child_raising_on_one_tree(monkeypatch, trees_world, one_worker_forest,
                                        workers, parent_share):
    # The child with tree 1 grows it and raises on its next tree, which this
    # process then grows; the other trees come from the children.
    parent, failing = os.getpid(), 1 + workers

    def raise_in_child(t, seen):
        if os.getpid() != parent:
            raise DataError("only a child fails")

    parent_trees = trees_fail(monkeypatch, {failing}, raise_in_child)
    monkeypatch.setattr(share, "usable_cpus", lambda: workers)
    got = train_trees(trees_world)
    assert_no_child_left()
    assert parent_trees == [*parent_share, failing]
    assert got == one_worker_forest


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_tree_error_raises_as_one_worker_raises_it(monkeypatch, trees_world, workers):
    # Trees 2 and 4 fail in every process: tree 2's error is raised, the one
    # that one worker meets first.
    def raise_everywhere(t, seen):
        raise DataError(f"tree {t} cannot grow")

    trees_fail(monkeypatch, {2, 4}, raise_everywhere)
    monkeypatch.setattr(share, "usable_cpus", lambda: workers)
    with pytest.raises(DataError, match="^tree 2 cannot grow$"):
        train_trees(trees_world)
    assert_no_child_left()


def test_tree_interrupted_parent_kills_its_children(monkeypatch, trees_world,
                                                    one_worker_forest):
    parent, grow = os.getpid(), learn._grow_tree

    def interrupted(*args):
        if os.getpid() != parent:
            time.sleep(60)  # killed long before
        raise KeyboardInterrupt

    monkeypatch.setattr(learn, "_grow_tree", interrupted)
    monkeypatch.setattr(share, "usable_cpus", lambda: 3)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        train_trees(trees_world)
    assert time.perf_counter() - t0 < 30
    assert_no_child_left()
    monkeypatch.setattr(learn, "_grow_tree", grow)
    assert train_trees(trees_world) == one_worker_forest
    assert_no_child_left()


def test_tree_failed_fork_leaves_every_tree_to_the_parent(monkeypatch, trees_world,
                                                          one_worker_forest):
    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    parent_trees = trees_fail(monkeypatch, (), None)
    monkeypatch.setattr(share, "usable_cpus", lambda: 2)
    got = train_trees(trees_world)
    assert parent_trees == [0, 2, 4, 1, 3]
    assert got == one_worker_forest
    assert_no_child_left()
