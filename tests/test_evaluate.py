import io
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ponzi_radar.errors import DataError
from ponzi_radar.evaluate import (
    ConfusionMatrix,
    apply_model,
    cross_validate,
    format_metric,
    metrics_from_confusion,
    roc_auc,
    stratified_folds,
    write_report_csv,
    report_row,
)
from ponzi_radar.learn import CostMatrix, LearnerSpec, cost_sensitive_predict, train_forest

from conftest import dataset_of, make_dataset


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
        assert roc_auc([0.9, 0.8, 0.2, 0.1], ["P", "P", "nP", "nP"]) == 1.0

    def test_pure_ties(self):
        assert roc_auc([0.5] * 6, ["P", "nP", "P", "nP", "P", "nP"]) == 0.5

    def test_pairwise_example(self):
        # pos {0.9, 0.4}, neg {0.6, 0.1}: 3 wins of 4 pairs
        assert roc_auc([0.9, 0.4, 0.6, 0.1], ["P", "P", "nP", "nP"]) == 0.75

    def test_matches_pairwise_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            n_pos, n_neg = rng.randint(1, 25), rng.randint(1, 25)
            pos = [rng.choice([rng.random(), 0.25, 0.5]) for _ in range(n_pos)]
            neg = [rng.choice([rng.random(), 0.25, 0.5]) for _ in range(n_neg)]
            wins = sum(1 for a in pos for b in neg if a > b)
            ties = sum(1 for a in pos for b in neg if a == b)
            expected = (wins + 0.5 * ties) / (n_pos * n_neg)
            got = roc_auc(pos + neg, ["P"] * n_pos + ["nP"] * n_neg)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_rank_form_equals_trapezoid(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(2, 80)
            labels = ["P"] * rng.randint(1, n - 1)
            labels += ["nP"] * (n - len(labels))
            scores = [rng.choice([rng.random(), 0.3, 0.7]) for _ in range(n)]
            assert roc_auc(scores, labels) == pytest.approx(
                auc_trapezoid(scores, labels), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            roc_auc([0.1, 0.2], ["P", "P"])


def roc_curve(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """ROC points from (0,0) to (1,1), one per distinct score threshold."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray([1 if lbl in (1, True, "P") else 0 for lbl in labels])
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
    y = np.asarray([1 if lbl in (1, True, "P") else 0 for lbl in labels])
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
    labels = ["P" if p else "nP" for _, p in pairs]
    want = loop_roc_auc(scores, labels)
    assert roc_auc(scores, labels) == want
    assert roc_auc(np.array(scores), np.array([int(p) for _, p in pairs], dtype=np.int8)) == want


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
        for actual in ds.y:
            predicted = cost_sensitive_predict(0.0, cm)
            cm_counts[("P" if actual else "nP", predicted)] += 1
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
        ds = make_dataset(8, 60, seed=8, separable=False)
        result = cross_validate(ds, LearnerSpec(n_trees=5), CostMatrix(10, 1),
                                k=4, seed=3)
        total = ConfusionMatrix(0, 0, 0, 0)
        for fold in result.folds:
            total = total + fold.confusion
        assert total == result.confusion

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

    def test_thread_count_does_not_change_result(self):
        ds = make_dataset(8, 60, seed=13, separable=False)
        a = cross_validate(ds, LearnerSpec(n_trees=8), CostMatrix(20, 1),
                           k=4, seed=6, threads=1)
        b = cross_validate(ds, LearnerSpec(n_trees=8), CostMatrix(20, 1),
                           k=4, seed=6, threads=4)
        assert a.confusion == b.confusion
        for fold_a, fold_b in zip(a.folds, b.folds):
            assert np.array_equal(fold_a.scores, fold_b.scores)


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
            table = dict(enumerate(cluster_feature_table(log, clusters)))
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
