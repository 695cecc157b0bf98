"""The pool that cross-validation, ReliefF and the forest share (`ponzi_radar.share`).

First its own contract and nesting rule. Then one failure suite for its three
users, each sharing 5 items (folds, ReliefF blocks, trees): a killed or
raising child, an error in every process, an interrupted parent and a refused
fork leave the one-worker result bit for bit, or its error, and no child
behind. The cross-validation cases are named in `tests/test_evaluate.py`.
"""

from __future__ import annotations

import functools
import io
import os
import signal
import time
from dataclasses import dataclass
from typing import Callable

import pytest

from ponzi_radar import evaluate, learn, rank, share
from ponzi_radar.errors import DataError, ParseError
from ponzi_radar.evaluate import cross_validate
from ponzi_radar.learn import CostMatrix, LearnerSpec, save_model, train_model
from ponzi_radar.rank import relieff

from conftest import make_dataset


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def forks_counted(monkeypatch, path) -> Callable[[], int]:
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


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_results_in_item_order_with_no_idle_child(monkeypatch, tmp_path, n, workers):
    forks = forks_counted(monkeypatch, tmp_path / "forks")
    monkeypatch.setattr(share, "usable_cpus", lambda: workers)
    got = share.share(lambda i: (i, i * i), n)
    assert got == [(i, i * i) for i in range(n)]
    assert forks() == max(0, min(workers, n) - 1)
    assert_no_child_left()


def test_share_inside_an_item_runs_in_that_items_worker(monkeypatch, tmp_path):
    # 3 usable CPUs, 2 outer items: item 1 runs in a child. Each item starts
    # a share of 3 items, which must run in the item's own process.
    forks = forks_counted(monkeypatch, tmp_path / "forks")
    monkeypatch.setattr(share, "usable_cpus", lambda: 3)

    def item(i):
        inner = share.share(lambda j: (os.getpid(), 10 * i + j), 3)
        return os.getpid(), inner

    got = share.share(item, 2)
    assert_no_child_left()
    assert forks() == 1
    assert got[0][0] == os.getpid() != got[1][0]
    for i, (pid, inner) in enumerate(got):
        assert inner == [(pid, 10 * i + j) for j in range(3)]


def test_forest_cv_forks_for_its_folds_only(monkeypatch, tmp_path):
    # k = 5 on 3 workers: two children, whose folds' forests, like this
    # process's, grow their trees where the fold is.
    forks = forks_counted(monkeypatch, tmp_path / "forks")
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
def test_share_after_a_failed_share_forks_again(monkeypatch, tmp_path, failing):
    forks = forks_counted(monkeypatch, tmp_path / "forks")
    monkeypatch.setattr(share, "usable_cpus", lambda: 3)
    if failing == "raising":
        with pytest.raises(DataError, match="^item 0 fails$"):
            share.share(raise_in_every_process, 2)
    else:
        with pytest.raises(KeyboardInterrupt):
            share.share(interrupt_the_parent(os.getpid()), 2)
    assert_no_child_left()
    assert forks() == 1
    assert share.share(lambda i: i, 3) == [0, 1, 2]
    assert forks() == 3
    assert_no_child_left()


def model_bytes(model) -> str:
    fp = io.StringIO()
    save_model(model, fp)
    return fp.getvalue()


@functools.cache
def world():
    """600 rows: ReliefF's blocks of 125 rows (rank._BLOCK_CELLS) are 5."""
    return make_dataset(30, 570, seed=9, separable=False)


# A forest's trees on 1, 2 and 3 workers: the model file is the one-worker file.
@pytest.mark.parametrize("learner", [LearnerSpec(n_trees=7),
                                     LearnerSpec(n_trees=7, reweight=CostMatrix(20, 1)),
                                     LearnerSpec(n_trees=1)],
                         ids=["plain", "reweighted", "one_tree"])
def test_forest_is_the_one_worker_forest_on_any_worker_count(monkeypatch, tmp_path,
                                                             learner):
    got = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(share, "usable_cpus", lambda: workers)
        forks = forks_counted(monkeypatch, tmp_path / f"forks{workers}")
        got.append(model_bytes(train_model(world(), learner, 11)))
        assert forks() == min(workers, learner.n_trees) - 1
        assert_no_child_left()
    assert got[1] == got[2] == got[0]


# The failure suite. Every user shares N items.
N = 5


def cv_outcome(result) -> tuple:
    return result.confusion, result.metrics, [
        (f.confusion, f.labels.tobytes(), f.scores.tobytes()) for f in result.folds]


@dataclass
class User:
    """A caller of the pool. `run()` shares N items and returns what must
    equal the one-worker result; the function `module.attr` does each item's
    work (ReliefF's, once per class of a block), and `key` of the arguments
    of a call to it tells the items apart."""

    run: Callable[[], object]
    module: object
    attr: str
    key: Callable[[tuple], object]

    @functools.cached_property
    def one_worker(self) -> tuple[object, list]:
        """The one-worker result, and the key of each item in item order."""
        keys, work = [], getattr(self.module, self.attr)

        def recorded(*args, **kwargs):
            if self.key(args) not in keys:
                keys.append(self.key(args))
            return work(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(share, "usable_cpus", lambda: 1)
            mp.setattr(self.module, self.attr, recorded)
            result = self.run()
        assert len(keys) == N
        return result, keys


FOLDS = User(lambda: cv_outcome(cross_validate(
                 make_dataset(8, 60, seed=13, separable=False), LearnerSpec(n_trees=4),
                 CostMatrix(20, 1), k=N, seed=6)),
             evaluate, "train_model", lambda args: args[2])  # the fold's training seed
BLOCKS = User(lambda: relieff(world(), k=10).tobytes(),
              rank, "_neighbour_means", lambda args: int(args[1][0]))  # the block's first row
TREES = User(lambda: model_bytes(train_model(world(), LearnerSpec(n_trees=N), 11)),
             learn, "_grow_tree",
             lambda args: args[4].bit_generator.seed_seq.entropy)  # the tree's seed


def hooked(monkeypatch, user: User, fail: Callable[[int, int], None]) -> list[int]:
    """Wrap the user's item work: `fail(i, before)` runs when a process
    starts item i, given how many items that process started before it.
    The list returned grows by each item this process starts."""
    _, keys = user.one_worker
    parent, started, work = os.getpid(), {}, getattr(user.module, user.attr)

    def wrapped(*args, **kwargs):
        i = keys.index(user.key(args))
        seen = started.setdefault(os.getpid(), [])
        if i not in seen:
            seen.append(i)
            fail(i, len(seen) - 1)
        return work(*args, **kwargs)

    monkeypatch.setattr(user.module, user.attr, wrapped)
    return started.setdefault(parent, [])


def failing_child(kill: bool) -> Callable[[int, int], None]:
    """A `fail` for `hooked`: a child, on its second item, dies by SIGKILL,
    as the OOM killer kills, or raises an error this process would not."""
    parent = os.getpid()

    def fail(i, before):
        if os.getpid() != parent and before == 1:
            if kill:
                os.kill(os.getpid(), signal.SIGKILL)
            raise DataError("only a child fails")

    return fail


def child_fails_on_its_second_item(monkeypatch, user: User, workers: int, kill: bool,
                                   parent_items: list[int]) -> None:
    """The child with items 1 and 1 + workers finishes item 1 and fails on
    its second. Killed, it sends nothing; raising, it sends item 1. This
    process runs `parent_items`, and the result is the one-worker result."""
    want, _ = user.one_worker
    started = hooked(monkeypatch, user, failing_child(kill))
    monkeypatch.setattr(share, "usable_cpus", lambda: workers)
    got = user.run()
    assert_no_child_left()
    assert started == parent_items
    assert got == want


def error_everywhere(monkeypatch, user: User, workers: int, failing: set[int],
                     parent_items: list[int]) -> None:
    """Items `failing` raise in every process. This process runs
    `parent_items`, the last of them the first failing item, the one that
    one worker meets first, and raises its error: a ParseError(message,
    line), which would unpickle as ParseError(text), keeps its type, text
    and line, since no exception crosses a pipe."""

    def fail(i, before):
        if i in failing:
            raise ParseError(f"item {i} fails", 3)

    started = hooked(monkeypatch, user, fail)
    monkeypatch.setattr(share, "usable_cpus", lambda: workers)
    with pytest.raises(ParseError, match=f"^line 3: item {min(failing)} fails$") as info:
        user.run()
    assert type(info.value) is ParseError and info.value.line == 3
    assert started == parent_items
    assert_no_child_left()


def interrupted_parent(monkeypatch, user: User) -> None:
    """KeyboardInterrupt in this process's first item, while 2 children
    sleep in theirs: they are killed and reaped at once, and the next share
    gives the one-worker result."""
    want, _ = user.one_worker
    parent = os.getpid()

    def interrupt(i, before):
        if os.getpid() != parent:
            time.sleep(60)  # killed long before
        raise KeyboardInterrupt

    monkeypatch.setattr(share, "usable_cpus", lambda: 3)
    with pytest.MonkeyPatch.context() as mp:
        hooked(mp, user, interrupt)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            user.run()
        assert time.perf_counter() - t0 < 30
    assert_no_child_left()
    assert user.run() == want
    assert_no_child_left()


def refused_fork(monkeypatch, user: User) -> None:
    """On 2 workers with os.fork refused, this process runs its own items,
    then the child's, and the result is the one-worker result."""
    want, _ = user.one_worker

    def no_fork():
        raise OSError("fork refused")

    started = hooked(monkeypatch, user, lambda i, before: None)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(share, "usable_cpus", lambda: 2)
    got = user.run()
    assert started == [0, 2, 4, 1, 3]
    assert got == want
    assert_no_child_left()


def test_relieff_child_killed_on_its_second_block(monkeypatch):
    child_fails_on_its_second_item(monkeypatch, BLOCKS, 2, True, [0, 2, 4, 1, 3])


@pytest.mark.parametrize("workers, parent_share", [(2, [0, 2, 4]), (3, [0, 3])])
def test_relieff_child_raising_on_one_block(monkeypatch, workers, parent_share):
    child_fails_on_its_second_item(monkeypatch, BLOCKS, workers, False,
                                   [*parent_share, 1 + workers])


# Items 2 and 4 fail everywhere: what this process runs, by worker count.
RAN_TO_ITEM_2 = {1: [0, 1, 2], 2: [0, 2], 3: [0, 3, 2]}


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_relieff_block_error_raises_as_one_worker_raises_it(monkeypatch, workers):
    error_everywhere(monkeypatch, BLOCKS, workers, {2, 4}, RAN_TO_ITEM_2[workers])


def test_relieff_interrupted_parent_kills_its_children(monkeypatch):
    interrupted_parent(monkeypatch, BLOCKS)


def test_relieff_failed_fork_leaves_every_block_to_the_parent(monkeypatch):
    refused_fork(monkeypatch, BLOCKS)


def test_tree_child_killed_on_its_second_tree(monkeypatch):
    child_fails_on_its_second_item(monkeypatch, TREES, 2, True, [0, 2, 4, 1, 3])


@pytest.mark.parametrize("workers, parent_share", [(2, [0, 2, 4]), (3, [0, 3])])
def test_tree_child_raising_on_one_tree(monkeypatch, workers, parent_share):
    child_fails_on_its_second_item(monkeypatch, TREES, workers, False,
                                   [*parent_share, 1 + workers])


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_tree_error_raises_as_one_worker_raises_it(monkeypatch, workers):
    error_everywhere(monkeypatch, TREES, workers, {2, 4}, RAN_TO_ITEM_2[workers])


def test_tree_interrupted_parent_kills_its_children(monkeypatch):
    interrupted_parent(monkeypatch, TREES)


def test_tree_failed_fork_leaves_every_tree_to_the_parent(monkeypatch):
    refused_fork(monkeypatch, TREES)
