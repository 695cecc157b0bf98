import io
import math
import os
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ponzi_radar import evaluate, share
from ponzi_radar.cli import main
from ponzi_radar.dataset import Dataset, write_csv
from ponzi_radar.errors import DataError
from ponzi_radar.evaluate import (
    ConfusionMatrix,
    apply_model,
    cross_validate,
    format_metric,
    metrics_from_confusion,
    metrics_with_auc,
    roc_auc,
    stratified_folds,
    write_report_csv,
    report_row,
)
from ponzi_radar.learn import (
    CostMatrix,
    LearnerSpec,
    cost_sensitive_predict,
    train_forest,
    train_model,
)

from conftest import dataset_of, make_dataset
from test_share import (
    FOLDS,
    assert_no_child_left,
    child_fails_on_its_second_item,
    cv_outcome,
    error_everywhere,
    failing_child,
    hooked,
    interrupted_parent,
    refused_fork,
)


class TestMetrics:
    def test_all_ones_matrix(self):
        m = metrics_from_confusion(ConfusionMatrix(1, 1, 1, 1))
        assert m.accuracy == 0.5
        assert m.recall == 0.5
        assert m.precision == 0.5
        assert m.f_measure == 0.5
        assert m.g_mean == 0.5

    def test_no_positives_present(self):
        m = metrics_from_confusion(ConfusionMatrix(0, 0, 0, 37))
        assert m.accuracy == 1.0
        assert m.recall is None
        assert m.specificity == 1.0
        assert m.precision is None

    def test_zero_recall_zero_precision_makes_f_undefined(self):
        m = metrics_from_confusion(ConfusionMatrix(0, 5, 0, 5))
        assert m.recall == 0.0
        assert m.precision is None
        assert m.f_measure is None

    def test_formulas_against_counts(self):
        rng = random.Random(5)
        cells = [(tp, fn, fp, tn)
                 for tp in range(3) for fn in range(3)
                 for fp in range(3) for tn in range(3)]
        cells += [tuple(rng.randint(0, 50) for _ in range(4)) for _ in range(2000)]
        for tp, fn, fp, tn in cells:
            if tp + fn + fp + tn == 0:
                continue
            m = metrics_from_confusion(ConfusionMatrix(tp, fn, fp, tn))
            assert m.accuracy * (tp + fn + fp + tn) == pytest.approx(tp + tn)
            if m.recall is not None:
                assert m.recall * (tp + fn) == pytest.approx(tp)
            if m.specificity is not None:
                assert m.specificity * (tn + fp) == pytest.approx(tn)
            if m.precision is not None:
                assert m.precision * (tp + fp) == pytest.approx(tp)
            if m.f_measure is not None:
                assert m.f_measure == pytest.approx(2 * tp / (2 * tp + fp + fn))

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError):
            metrics_from_confusion(ConfusionMatrix(0, 0, 0, 0))


class TestAuc:
    def test_perfect_ranking(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_pure_ties(self):
        assert roc_auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_pairwise_example(self):
        # pos {0.9, 0.4}, neg {0.6, 0.1}: 3 wins of 4 pairs
        assert roc_auc([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0]) == 0.75

    def test_matches_pairwise_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            n_pos, n_neg = rng.randint(1, 25), rng.randint(1, 25)
            pos = [rng.choice([rng.random(), 0.25, 0.5]) for _ in range(n_pos)]
            neg = [rng.choice([rng.random(), 0.25, 0.5]) for _ in range(n_neg)]
            wins = sum(1 for a in pos for b in neg if a > b)
            ties = sum(1 for a in pos for b in neg if a == b)
            expected = (wins + 0.5 * ties) / (n_pos * n_neg)
            got = roc_auc(pos + neg, [1] * n_pos + [0] * n_neg)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_rank_form_equals_trapezoid(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(2, 80)
            labels = [1] * rng.randint(1, n - 1)
            labels += [0] * (n - len(labels))
            scores = [rng.choice([rng.random(), 0.3, 0.7]) for _ in range(n)]
            assert roc_auc(scores, labels) == pytest.approx(
                auc_trapezoid(scores, labels), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            roc_auc([0.1, 0.2], [1, 1])


def roc_curve(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """ROC points from (0,0) to (1,1), one per distinct score threshold."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC requires at least one positive and one negative")
    order = np.argsort(-s, kind="stable")
    sorted_s = s[order]
    sorted_y = y[order]
    cum_tp = np.cumsum(sorted_y)
    cum_fp = np.cumsum(1 - sorted_y)
    # Keep only the last point of each tied-score run.
    last = np.nonzero(np.append(sorted_s[1:] != sorted_s[:-1], True))[0]
    tpr = np.concatenate(([0.0], cum_tp[last] / n_pos))
    fpr = np.concatenate(([0.0], cum_fp[last] / n_neg))
    return fpr, tpr


def auc_trapezoid(scores, labels) -> float:
    """Trapezoidal ROC area: the reference that roc_auc must agree with, ties included."""
    fpr, tpr = roc_curve(scores, labels)
    return float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0))


def loop_roc_auc(scores, labels):
    """The rank-sum AUC with tied scores walked one run at a time."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    order = np.argsort(s, kind="stable")
    sorted_s = s[order]
    ranks = np.empty(len(s), dtype=np.float64)
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i: j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    u = float(ranks[y == 1].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1 / 3, 1e-300, float("inf")]),
    st.floats(allow_nan=False),
)


@given(st.lists(st.tuples(_SCORES, st.booleans()), min_size=2, max_size=200)
       .filter(lambda pairs: len({p for _, p in pairs}) == 2))
def test_roc_auc_equals_loop_oracle_exactly(pairs):
    scores = [s for s, _ in pairs]
    labels = [int(p) for _, p in pairs]
    want = loop_roc_auc(scores, labels)
    assert roc_auc(scores, labels) == want
    assert roc_auc(np.array(scores), np.array(labels, dtype=np.int8)) == want


class TestFolds:
    def test_pigeonhole_32_into_10(self):
        ds = make_dataset(32, 100, seed=1)
        folds = stratified_folds(ds, 10, seed=4)
        p_counts = sorted(
            sum(1 for i in fold if ds.y[i] == 1) for fold in folds
        )
        assert p_counts == [3] * 8 + [4] * 2

    def test_partition_property(self):
        ds = make_dataset(9, 61, seed=2)
        for k in (2, 5, 10):
            folds = stratified_folds(ds, k, seed=11)
            flat = [i for fold in folds for i in fold]
            assert sorted(flat) == list(range(len(ds)))
            assert len(set(flat)) == len(flat)

    def test_leave_one_out(self):
        ds = make_dataset(3, 5, seed=3)
        folds = stratified_folds(ds, len(ds), seed=0)
        assert all(len(fold) == 1 for fold in folds)

    def test_deterministic(self):
        ds = make_dataset(6, 40, seed=4)
        assert stratified_folds(ds, 5, seed=9) == stratified_folds(ds, 5, seed=9)
        assert stratified_folds(ds, 5, seed=9) != stratified_folds(ds, 5, seed=10)

    def test_k_larger_than_dataset(self):
        ds = make_dataset(2, 3, seed=5)
        with pytest.raises(DataError):
            stratified_folds(ds, 6, seed=0)


class TestCrossValidate:
    def test_majority_predictor_accuracy(self):
        # An always-nP rule on the 32/6400 shape: the classic imbalance trap.
        cm_counts = Counter()
        cm = CostMatrix(1, 1)
        ds = make_dataset(32, 6400, seed=6, separable=False)
        for actual, predicted_p in zip(ds.y, cost_sensitive_predict(np.zeros(len(ds)), cm)):
            cm_counts[("P" if actual else "nP", "P" if predicted_p else "nP")] += 1
        confusion = ConfusionMatrix(
            tp=cm_counts[("P", "P")], fn=cm_counts[("P", "nP")],
            fp=cm_counts[("nP", "P")], tn=cm_counts[("nP", "nP")],
        )
        metrics = metrics_from_confusion(confusion)
        assert metrics.accuracy == pytest.approx(6400 / 6432, abs=1e-9)
        assert format_metric(metrics.accuracy) == "0.995"
        assert metrics.recall == 0.0

    def test_separable_dataset_perfect(self):
        ds = make_dataset(10, 90, seed=7)
        result = cross_validate(ds, LearnerSpec(n_trees=10), CostMatrix(1, 1),
                                k=5, seed=1)
        assert result.confusion.tp == 10
        assert result.confusion.fp == 0
        assert result.metrics.auc == 1.0

    def test_fold_sum_equals_aggregate(self):
        # The total is counted once, over the pooled predictions; it must
        # equal the field-wise sum of the fold matrices.
        ds = make_dataset(8, 60, seed=8, separable=False)
        result = cross_validate(ds, LearnerSpec(n_trees=5), CostMatrix(10, 1),
                                k=4, seed=3)
        for field in ("tp", "fn", "fp", "tn"):
            assert getattr(result.confusion, field) == sum(
                getattr(fold.confusion, field) for fold in result.folds), field

    @pytest.mark.parametrize("kind", ["forest", "bayes"])
    @pytest.mark.parametrize("ratio", [None, 4])
    def test_fold_metrics_are_the_folds_metrics_with_auc(self, kind, ratio):
        # 3 P rows in 5 folds: two folds test on nP rows only, so their AUC
        # is undefined.
        ds = make_dataset(3, 60, seed=14, separable=False)
        result = cross_validate(ds, LearnerSpec(kind=kind, n_trees=5), CostMatrix(10, 1),
                                k=5, seed=6, sampling_ratio=ratio)
        for fold in result.folds:
            assert fold.metrics == metrics_with_auc(fold.confusion, fold.scores, fold.labels)
        assert [fold.metrics.auc is None for fold in result.folds].count(True) == 2

    def test_every_instance_scored_once(self):
        ds = make_dataset(6, 30, seed=9)
        result = cross_validate(ds, LearnerSpec(n_trees=3), CostMatrix(1, 1),
                                k=3, seed=2)
        assert sum(len(fold.scores) for fold in result.folds) == len(ds)
        assert result.confusion.total == len(ds)

    def test_class_distribution_of_tests_untouched_by_sampling(self):
        ds = make_dataset(10, 200, seed=10, separable=False)
        result = cross_validate(ds, LearnerSpec(n_trees=5), CostMatrix(5, 1),
                                k=5, seed=4, sampling_ratio=3)
        assert result.confusion.tp + result.confusion.fn == 10
        assert result.confusion.fp + result.confusion.tn == 200

    def test_bayes_learner_works(self):
        ds = make_dataset(10, 50, seed=11)
        result = cross_validate(ds, LearnerSpec(kind="bayes"), CostMatrix(1, 1),
                                k=5, seed=5)
        assert result.confusion.total == 60

    def test_all_p_in_one_fold_is_hard_error(self):
        # k=2 with a single P instance: the fold holding it trains without P.
        ds = make_dataset(1, 9, seed=12)
        with pytest.raises(DataError, match="lost every P"):
            cross_validate(ds, LearnerSpec(n_trees=2), CostMatrix(1, 1), k=2, seed=0)

    def test_thread_count_does_not_change_result(self, monkeypatch):
        # Folds are shared among the workers (`share.share`): every worker
        # count gives the same folds, bit for bit.
        ds = make_dataset(8, 60, seed=13, separable=False)
        runs = [
            (LearnerSpec(n_trees=8), None),
            (LearnerSpec(n_trees=8), 1),
            (LearnerSpec(n_trees=8, reweight=CostMatrix(5, 1)), None),
            (LearnerSpec(kind="bayes"), None),
        ]
        for learner, ratio in runs:
            results = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(share, "usable_cpus", lambda: workers)
                parent_fits = count_parent_fits(monkeypatch)
                results.append(cross_validate(ds, learner, CostMatrix(20, 1), k=4, seed=6,
                                              sampling_ratio=ratio, threads=workers))
                assert len(parent_fits) == len(range(0, 4, workers))
            assert cv_outcome(results[1]) == cv_outcome(results[2]) == cv_outcome(results[0])
        assert_no_child_left()


def count_parent_fits(monkeypatch) -> list:
    """Wrap evaluate.train_model; the list it returns grows by one per fit in this process."""
    fits, parent, train = [], os.getpid(), train_model

    def counted(*args, **kwargs):
        if os.getpid() == parent:
            fits.append(args[2])
        return train(*args, **kwargs)

    monkeypatch.setattr(evaluate, "train_model", counted)
    return fits


@pytest.mark.parametrize("failing, parent_folds", [
    ({1, 2}, {1: [0, 1], 2: [0, 2, 1]}), ({2, 3}, {1: [0, 1, 2], 2: [0, 2]}),
], ids=["child_first", "parent_first"])
def test_fold_errors_raise_as_one_worker_raises_them(failing, parent_folds):
    # 2 workers: this process trains folds 0, 2 and 4, the child 1 and 3.
    for workers in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            error_everywhere(mp, FOLDS, workers, failing, parent_folds[workers])


@pytest.mark.parametrize("workers, kill, missing", [
    (2, True, [1, 3]), (3, True, [1, 4]), (2, False, [3]), (3, False, [4]),
], ids=["2_workers_killed", "3_workers_killed", "2_workers_raising", "3_workers_raising"])
def test_failed_child_costs_time_not_the_run(monkeypatch, workers, kill, missing):
    # With 3 workers, fold 2's child sends its scores either way.
    child_fails_on_its_second_item(monkeypatch, FOLDS, workers, kill,
                                   [*range(0, 5, workers), *missing])


def test_cv_command_with_a_killed_child_writes_the_one_worker_report(monkeypatch, tmp_path):
    with open(tmp_path / "dataset.csv", "w", encoding="utf-8", newline="") as fp:
        write_csv(make_dataset(8, 60, seed=13, separable=False), fp)
    argv = ["cv", str(tmp_path / "dataset.csv"), "--trees", "4", "--k", "5", "--seed", "6"]
    monkeypatch.setattr(share, "usable_cpus", lambda: 1)
    assert main([*argv, "-o", str(tmp_path / "one.csv")]) == 0
    hooked(monkeypatch, FOLDS, failing_child(kill=True))  # FOLDS's k, seed and data
    monkeypatch.setattr(share, "usable_cpus", lambda: 2)
    assert main([*argv, "-o", str(tmp_path / "killed.csv")]) == 0
    assert_no_child_left()
    assert (tmp_path / "killed.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fold_error_that_does_not_pickle_raises_with_its_type_and_text(monkeypatch, workers):
    # its own share up to fold 1, then fold 1 once if a child had it
    error_everywhere(monkeypatch, FOLDS, workers, {1},
                     {1: [0, 1], 2: [0, 2, 4, 1], 3: [0, 3, 1]}[workers])


def test_interrupted_parent_kills_its_children(monkeypatch):
    interrupted_parent(monkeypatch, FOLDS)


def test_failed_fork_leaves_the_share_to_the_parent(monkeypatch):
    refused_fork(monkeypatch, FOLDS)


def tie_heavy_dataset(n, seed):
    """Integer columns of four values each, one column of 0.0, -0.0, the
    smallest subnormal and 1.0, and one of distinct reals."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(n, 20)).astype(np.float64)
    X[:, 3] = rng.choice([0.0, -0.0, 5e-324, 1.0], size=n)
    X[:, 7] = rng.random(n)
    y = (X[:, 0] + X[:, 3] + rng.random(n) > 3.2).astype(np.int8)
    return Dataset(tuple(f"r{i}" for i in range(n)), y, X)


@pytest.mark.parametrize("ratio", [None, 1], ids=["plain", "ratio_1"])
def test_folds_coded_once_grow_the_trees_of_per_fold_coding(monkeypatch, ratio):
    # cross_validate codes the features once and hands each fold the columns
    # of its rows; a fold trained on its own coding must grow the same trees.
    ds = tie_heavy_dataset(300, 21)
    fits = []

    def record(data, learner, seed, *args, **kwargs):
        model = train_model(data, learner, seed, *args, **kwargs)
        fits.append((data, learner, seed, kwargs, model))
        return model

    monkeypatch.setattr(evaluate, "train_model", record)
    # one worker: a child's calls would not reach `fits`
    monkeypatch.setattr(share, "usable_cpus", lambda: 1)
    cross_validate(ds, LearnerSpec(n_trees=8), CostMatrix(20, 1), k=5, seed=8,
                   sampling_ratio=ratio)
    assert len(fits) == 5
    split_features = set()
    for data, learner, seed, kwargs, model in fits:
        assert kwargs["coded"] is not None
        if ratio == 1:
            assert len(data) == 2 * data.n_ponzi
        alone = train_model(data, learner, seed)
        assert len(model.trees) == len(alone.trees)
        for got, want in zip(model.trees, alone.trees):
            for name in ("feature", "threshold", "left", "right", "counts"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            split_features.update(got.feature.tolist())
    assert {0, 3, 7} <= split_features  # the tied, signed-zero and distinct columns


class TestApply:
    def test_frozen_model_on_independent_world(self):
        # Ex-post style: train on one synthetic world, score a freshly
        # generated one. The matrix keeps the new world's class totals and
        # the model should carry over.
        from ponzi_radar.clustering import build_clusters
        from ponzi_radar.dataset import assemble
        from ponzi_radar.features import cluster_feature_table
        from ponzi_radar.synth import SynthParams, generate

        def world(seed, n_p, n_bg):
            log, labels = generate(SynthParams(n_ponzi=n_p, n_background=n_bg,
                                               seed=seed))
            clusters = build_clusters(log)
            table = cluster_feature_table(log, clusters)
            ponzi = {clusters.index_of[a]: a
                     for a, lbl in labels.items() if lbl == "P"}
            return assemble(table, ponzi)

        train_ds = world(1, 8, 500)
        fresh_ds = world(2, 6, 400)
        model = train_forest(train_ds, n_trees=50, seed=3)
        result = apply_model(model, CostMatrix(20, 1), fresh_ds)
        assert result.confusion.tp + result.confusion.fn == 6
        assert result.confusion.fp + result.confusion.tn == 400
        assert result.confusion.tp >= 5

    def test_apply_to_own_training_set(self):
        ds = make_dataset(10, 40, seed=14)
        model = train_forest(ds, n_trees=10, seed=1)
        result = apply_model(model, CostMatrix(20, 1), ds)
        assert result.confusion.tp == 10
        assert result.confusion.fp == 0
        assert len(result.predictions) == 50
        assert {p.predicted for p in result.predictions} == {"P", "nP"}

    def test_empty_dataset(self):
        ds = make_dataset(4, 10, seed=15)
        model = train_forest(ds, n_trees=3, seed=1)
        result = apply_model(model, CostMatrix(1, 1), dataset_of([]))
        assert result.confusion == ConfusionMatrix(0, 0, 0, 0)
        assert result.predictions == []


class TestReport:
    def test_format_metric_three_decimals_half_even(self):
        assert format_metric(None) == "undefined"
        assert format_metric(0.96875) == "0.969"
        assert format_metric(1.0) == "1.000"
        assert format_metric(0.0625) == "0.062"  # .0625 rounds half to even
        # Every exact tie in [0, 1] is an odd multiple of 1/16; each rounds to
        # the even neighbour, the float just below it down and just above it up.
        ties = {0.0625: ("0.062", "0.062", "0.063"), 0.1875: ("0.188", "0.187", "0.188"),
                0.3125: ("0.312", "0.312", "0.313"), 0.4375: ("0.438", "0.437", "0.438"),
                0.5625: ("0.562", "0.562", "0.563"), 0.6875: ("0.688", "0.687", "0.688"),
                0.8125: ("0.812", "0.812", "0.813"), 0.9375: ("0.938", "0.937", "0.938")}
        for tie, (at, below, above) in ties.items():
            assert format_metric(tie) == at
            assert format_metric(math.nextafter(tie, 0.0)) == below
            assert format_metric(math.nextafter(tie, 1.0)) == above

    def test_report_csv_shape(self):
        cm = ConfusionMatrix(31, 1, 77, 6323)
        row = report_row("rf-cm20", cm, metrics_from_confusion(cm))
        buf = io.StringIO()
        write_report_csv([row], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("# ponzi-radar report schema=")
        assert lines[1] == ("setting,tp,fn,fp,tn,accuracy,recall,specificity,"
                            "precision,f,gmean,auc")
        assert lines[2].startswith("rf-cm20,31,1,77,6323,0.988,0.969,0.988,0.287,")
