import io
import json
import random

import numpy as np
import pytest

from ponzi_radar.errors import DataError, SchemaMismatchError
from ponzi_radar.learn import (
    BayesModel,
    CostMatrix,
    ForestModel,
    TreeModel,
    TreeParams,
    cost_sensitive_predict,
    derive_seeds,
    load_model,
    predict_proba,
    save_model,
    train_bayes,
    train_forest,
    train_tree,
    undersample,
)

from conftest import dataset_of, make_dataset, make_features


def two_class(p_values, np_values, feature="sum_in"):
    instances = [
        (f"p{i}", "P", make_features(**{feature: v}))
        for i, v in enumerate(p_values)
    ] + [
        (f"n{i}", "nP", make_features(**{feature: v}))
        for i, v in enumerate(np_values)
    ]
    return dataset_of(instances)


def training_accuracy(model, dataset):
    p = model.predict_proba_matrix(dataset.X)
    predicted = (p >= 0.5).astype(int)
    return float((predicted == dataset.y).mean())


def tree_depth(tree: TreeModel) -> int:
    def walk(node, d):
        if tree.feature[node] < 0:
            return d
        return max(walk(tree.left[node], d + 1), walk(tree.right[node], d + 1))

    return walk(0, 0)


class TestCostRule:
    def test_cm20_threshold(self):
        cm = CostMatrix(20, 1)
        assert cm.threshold == 1 / 21
        assert cost_sensitive_predict(0.05, cm) == "P"

    def test_symmetric_costs(self):
        assert CostMatrix(3, 3).threshold == 0.5

    def test_zero_probability_always_np(self):
        for c_fn in (1, 5, 10, 20, 40):
            assert cost_sensitive_predict(0.0, CostMatrix(c_fn, 1)) == "nP"

    def test_tie_goes_to_p(self):
        cm = CostMatrix(19, 1)
        assert cost_sensitive_predict(cm.threshold, cm) == "P"

    def test_monotone_in_fn_cost(self):
        rng = random.Random(2)
        scores = [rng.random() for _ in range(500)]
        previous: set[int] = set()
        for c_fn in (1, 5, 10, 20, 40):
            cm = CostMatrix(c_fn, 1)
            current = {i for i, s in enumerate(scores) if s >= cm.threshold}
            assert previous <= current
            previous = current

    def test_invalid_costs(self):
        with pytest.raises(ValueError):
            CostMatrix(0, 1)
        with pytest.raises(ValueError):
            CostMatrix.parse("20")

    @pytest.mark.parametrize("text", ["1:0", "-2:1", "nan:1"])
    def test_parse_names_nonpositive_cost(self, text):
        with pytest.raises(ValueError, match="must be positive") as err:
            CostMatrix.parse(text)
        assert "must look like" not in str(err.value)

    @pytest.mark.parametrize("text", ["20", "a:b", "1:2:3", ""])
    def test_parse_names_bad_syntax(self, text):
        with pytest.raises(ValueError, match="must look like"):
            CostMatrix.parse(text)


class TestTree:
    def test_separable_feature_gives_depth_one(self):
        ds = two_class([100, 110, 120], [1, 2, 3, 4])
        tree = train_tree(ds, seed=1)
        assert tree_depth(tree) == 1
        assert training_accuracy(tree, ds) == 1.0

    def test_unsplittable_single_leaf_majority(self):
        ds = two_class([7], [7, 7, 7])
        tree = train_tree(ds, seed=1)
        assert tree.n_nodes == 1
        assert tuple(tree.counts[0]) == (1.0, 3.0)
        assert tree.predict_proba_matrix(ds.X)[0] == 0.25

    def test_xor_layout_reaches_full_accuracy(self):
        instances = []
        for i, (a, b) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)] * 3):
            label = "P" if a != b else "nP"
            instances.append((
                f"i{i}_{a}{b}", label, make_features(sum_in=a * 1000, count_in=b * 1000)))
        ds = dataset_of(instances)
        tree = train_tree(ds, seed=3)
        assert training_accuracy(tree, ds) == 1.0
        assert tree_depth(tree) >= 2

    def test_consistent_data_always_fits_exactly(self):
        rng = random.Random(11)
        for trial in range(10):
            n = rng.randint(2, 60)
            instances = [
                (f"r{i}", rng.choice(["P", "nP"]),
                         make_features(sum_in=i, count_in=rng.randint(0, 5)))
                for i in range(n)
            ]
            ds = dataset_of(instances)
            for params in (TreeParams(), TreeParams(features_per_split=2)):
                tree = train_tree(ds, params=params, seed=trial)
                assert training_accuracy(tree, ds) == 1.0

    def test_min_leaf_respected(self):
        ds = two_class([100, 110, 120], [1, 2, 3, 4])
        tree = train_tree(ds, params=TreeParams(min_leaf=3), seed=0)
        leaf_sizes = [c.sum() for i, c in enumerate(tree.counts) if tree.feature[i] < 0]
        assert all(size >= 3 for size in leaf_sizes)

    def test_single_class_dataset(self):
        ds = two_class([5, 6], [])
        tree = train_tree(ds.take([0, 1]), seed=0)
        assert tree.n_nodes == 1

    def test_structural_invariants(self):
        import numpy as np

        ds = make_dataset(12, 80, seed=21, separable=False)
        for seed in range(5):
            tree = train_tree(ds, params=TreeParams(features_per_split=3), seed=seed)
            for node in range(tree.n_nodes):
                if tree.feature[node] >= 0:  # internal: both children exist
                    assert tree.left[node] >= 0 and tree.right[node] >= 0
                    assert np.isfinite(tree.threshold[node])
                    # node mass equals the sum of its children's masses
                    assert tree.counts[node].sum() == pytest.approx(
                        tree.counts[tree.left[node]].sum()
                        + tree.counts[tree.right[node]].sum())
            assert tree.counts[0].sum() == len(ds)


class TestForest:
    def test_one_tree_without_bootstrap_equals_train_tree(self):
        ds = make_dataset(5, 20, seed=1)
        params = TreeParams(features_per_split=4)
        forest = train_forest(ds, n_trees=1, seed=9, params=params, bootstrap=False)
        lone = train_tree(ds, params=params, seed=derive_seeds(9, 1)[0])
        t = forest.trees[0]
        assert np.array_equal(t.feature, lone.feature)
        assert np.array_equal(t.threshold, lone.threshold)
        assert np.array_equal(t.counts, lone.counts)

    def test_separable_training_accuracy(self):
        ds = make_dataset(20, 80, seed=2)
        forest = train_forest(ds, n_trees=15, seed=4)
        assert training_accuracy(forest, ds) == 1.0

    def test_seed_determinism_across_runs_and_threads(self):
        ds = make_dataset(8, 40, seed=3)

        def fingerprint(threads):
            forest = train_forest(ds, n_trees=12, seed=77, threads=threads)
            buf = io.StringIO()
            save_model(forest, buf)
            return buf.getvalue()

        assert fingerprint(1) == fingerprint(1)
        assert fingerprint(1) == fingerprint(8)

    def test_different_seeds_differ(self):
        ds = make_dataset(8, 40, seed=3)
        a = train_forest(ds, n_trees=5, seed=1)
        b = train_forest(ds, n_trees=5, seed=2)
        fp = lambda m: [t.threshold.tolist() for t in m.trees]
        assert fp(a) != fp(b)


class TestPredict:
    def test_pure_p_region_scores_one(self):
        # Every feature separates the classes, so every tree's leaf for the
        # P prototype is pure P and the vote average is exactly 1.
        p_proto = dict(sum_in=1000, count_in=30, gini_out=0.9)
        instances = tuple(
            [(f"p{i}", "P", make_features(**p_proto)) for i in range(20)]
            + [(f"n{i}", "nP", make_features()) for i in range(80)]
        )
        forest = train_forest(dataset_of(instances), n_trees=20, seed=6)
        assert predict_proba(forest, make_features(**p_proto)) == 1.0

    def test_two_tree_mean(self):
        leaf_p = TreeModel(
            np.array([-1], np.int32), np.zeros(1), np.array([-1], np.int32),
            np.array([-1], np.int32), np.array([[3.0, 0.0]]))
        leaf_np = TreeModel(
            np.array([-1], np.int32), np.zeros(1), np.array([-1], np.int32),
            np.array([-1], np.int32), np.array([[0.0, 2.0]]))
        forest = ForestModel([leaf_p, leaf_np], seed=0, n_trees=2,
                             params=TreeParams(), bootstrap=False)
        assert predict_proba(forest, make_features()) == 0.5

    def test_schema_mismatch_rejected(self):
        ds = make_dataset(3, 5, seed=1)
        forest = train_forest(ds, n_trees=2, seed=0)
        with pytest.raises(SchemaMismatchError):
            predict_proba(forest, np.zeros((2, 7)))


class TestBayes:
    def test_closed_form_two_cluster_case(self):
        ds = two_class([0, 2], [10, 12])
        model = train_bayes(ds)
        f = 6  # sum_in column
        assert model.mean[1][f] == pytest.approx(1.0)
        assert model.mean[0][f] == pytest.approx(11.0)
        p = predict_proba(model, make_features(sum_in=1))
        assert p > 0.99

    def test_identical_distributions_fall_back_to_prior(self):
        ds = two_class([1, 2, 3], [1, 2, 3])
        model = train_bayes(ds)
        for x in (0, 1, 5, 100):
            assert predict_proba(model, make_features(sum_in=x)) == pytest.approx(0.5)

    def test_symmetric_midpoint(self):
        ds = two_class([0, 2], [4, 6])
        model = train_bayes(ds)
        assert predict_proba(model, make_features(sum_in=3)) == pytest.approx(0.5)

    def test_imbalanced_priors(self):
        ds = make_dataset(32, 6400, seed=0)
        model = train_bayes(ds)
        assert model.prior_p == pytest.approx(32 / 6432)

    def test_single_class_rejected(self):
        ds = two_class([1, 2], [])
        with pytest.raises(DataError):
            train_bayes(ds.take([0, 1]))


class TestUndersample:
    def test_paper_shape_ratio_five(self):
        ds = make_dataset(32, 6400, seed=1)
        out = undersample(ds, 5, seed=3)
        assert out.n_ponzi == 32
        assert out.n_other == 160

    def test_noop_bound(self):
        ds = make_dataset(4, 20, seed=1)
        assert undersample(ds, 5, seed=0) is ds
        assert undersample(ds, 99, seed=0) is ds  # warns, keeps all

    def test_same_seed_identical(self):
        ds = make_dataset(6, 200, seed=2)
        a = undersample(ds, 3, seed=5)
        b = undersample(ds, 3, seed=5)
        assert a == b

    def test_never_removes_p(self):
        ds = make_dataset(10, 300, seed=4)
        for seed in range(25):
            out = undersample(ds, 2, seed=seed)
            assert out.n_ponzi == 10
            assert out.n_other == 20

    def test_ratio_below_one_rejected(self):
        ds = make_dataset(3, 9, seed=0)
        with pytest.raises(ValueError):
            undersample(ds, 0.5, seed=0)


class TestSerialization:
    def test_forest_round_trip(self):
        ds = make_dataset(6, 30, seed=8)
        forest = train_forest(ds, n_trees=7, seed=2)
        buf = io.StringIO()
        save_model(forest, buf)
        buf.seek(0)
        loaded = load_model(buf)
        X = ds.X
        assert np.array_equal(loaded.predict_proba_matrix(X),
                              forest.predict_proba_matrix(X))

    def test_bayes_round_trip(self):
        ds = make_dataset(6, 30, seed=8)
        model = train_bayes(ds)
        buf = io.StringIO()
        save_model(model, buf)
        buf.seek(0)
        loaded = load_model(buf)
        assert isinstance(loaded, BayesModel)
        X = ds.X
        assert np.array_equal(loaded.predict_proba_matrix(X),
                              model.predict_proba_matrix(X))

    def test_non_finite_value_not_written(self):
        model = train_bayes(make_dataset(6, 30, seed=8))
        model.var[0, 0] = np.nan
        with pytest.raises(ValueError, match="JSON compliant"):
            save_model(model, io.StringIO())

    def test_mismatched_schema_rejected(self):
        ds = make_dataset(3, 9, seed=0)
        buf = io.StringIO()
        save_model(train_bayes(ds), buf)
        doc = json.loads(buf.getvalue())
        doc["feature_names"][0] = "renamed"
        with pytest.raises(SchemaMismatchError):
            load_model(io.StringIO(json.dumps(doc)))

    def test_not_a_model(self):
        with pytest.raises(DataError):
            load_model(io.StringIO('{"format": "something-else"}'))


def _forest_doc():
    buf = io.StringIO()
    save_model(train_forest(make_dataset(6, 30, seed=8), n_trees=3, seed=2), buf)
    doc = json.loads(buf.getvalue())
    assert len(doc["trees"][0]["feature"]) > 2 and doc["trees"][0]["feature"][0] >= 0
    return doc


def _self_loop(tree):
    tree["left"][0] = 0


def _child_out_of_range(tree):
    tree["right"][0] = len(tree["feature"])


def _child_before_parent(tree):
    split = next(i for i, f in enumerate(tree["feature"]) if f >= 0 and i > 0)
    tree["left"][split] = split - 1


def _short_threshold(tree):
    tree["threshold"].pop()


def _feature_out_of_range(tree):
    tree["feature"][0] = 20


def _negative_feature(tree):
    tree["feature"][0] = -2


def _empty_leaf(tree):
    leaf = tree["feature"].index(-1)
    tree["counts"][leaf] = [0.0, 0.0]


class TestLoadRejectsBadTrees:
    @pytest.mark.parametrize("corrupt", [
        _self_loop, _child_out_of_range, _child_before_parent, _short_threshold,
        _feature_out_of_range, _negative_feature, _empty_leaf,
    ])
    def test_corrupt_tree(self, corrupt):
        doc = _forest_doc()
        corrupt(doc["trees"][1])
        with pytest.raises(DataError):
            load_model(io.StringIO(json.dumps(doc)))

    def test_forest_without_trees(self):
        doc = _forest_doc()
        doc["trees"], doc["params"]["n_trees"] = [], 0
        with pytest.raises(DataError):
            load_model(io.StringIO(json.dumps(doc)))

    def test_missing_key(self):
        doc = _forest_doc()
        del doc["trees"][0]["counts"]
        with pytest.raises(DataError):
            load_model(io.StringIO(json.dumps(doc)))

    def test_bayes_variance_must_be_positive(self):
        buf = io.StringIO()
        save_model(train_bayes(make_dataset(3, 9, seed=0)), buf)
        doc = json.loads(buf.getvalue())
        doc["bayes"]["var"][0][0] = 0.0
        with pytest.raises(DataError):
            load_model(io.StringIO(json.dumps(doc)))


def test_forest_needs_a_tree():
    with pytest.raises(ValueError, match="at least one tree"):
        train_forest(make_dataset(3, 9, seed=0), n_trees=0)
