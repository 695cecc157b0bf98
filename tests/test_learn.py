import io
import json
import random

import numpy as np
import pytest

from ponzi_radar.errors import DataError, SchemaMismatchError
from ponzi_radar.features import FEATURE_NAMES
from ponzi_radar.learn import (
    PREDICT_BLOCK,
    BayesModel,
    CostMatrix,
    ForestModel,
    TreeModel,
    cost_sensitive_predict,
    load_model,
    save_model,
    train_bayes,
    train_forest,
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


def matrix(*rows):
    """Feature vectors as a feature matrix."""
    return np.array(rows, dtype=np.float64).reshape(len(rows), -1)


def both_classes(tree: TreeModel) -> bool:
    """Whether the tree's bootstrap resample drew rows of both classes."""
    return bool(np.all(tree.counts[0] > 0))


def training_accuracy(model, dataset):
    p = model.predict_proba_matrix(dataset.X)
    predicted = (p >= 0.5).astype(int)
    return float((predicted == dataset.y).mean())


def tree_proba(tree: TreeModel, X: np.ndarray) -> np.ndarray:
    """Each row's leaf P-probability, one tree walked on its own: the
    reference for the forest, which walks all its trees at once."""
    node = np.zeros(len(X), dtype=np.int32)
    active = np.nonzero(tree.feature[node] >= 0)[0]
    while len(active):
        cur = node[active]
        go_left = X[active, tree.feature[cur]] <= tree.threshold[cur]
        node[active] = np.where(go_left, tree.left[cur], tree.right[cur])
        active = active[tree.feature[node[active]] >= 0]
    c = tree.counts[node]
    return c[:, 0] / c.sum(axis=1)


def forest_proba(forest: ForestModel, X: np.ndarray) -> np.ndarray:
    """The forest's scores summed tree by tree, in tree order."""
    acc = np.zeros(len(X), dtype=np.float64)
    for tree in forest.trees:
        acc += tree_proba(tree, X)
    return acc / len(forest.trees)


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
        assert cost_sensitive_predict(np.array([0.05, 0.04]), cm).tolist() == [True, False]

    def test_symmetric_costs(self):
        assert CostMatrix(3, 3).threshold == 0.5

    def test_zero_probability_always_np(self):
        for c_fn in (1, 5, 10, 20, 40):
            assert not cost_sensitive_predict(np.zeros(3), CostMatrix(c_fn, 1)).any()

    def test_tie_goes_to_p(self):
        cm = CostMatrix(19, 1)
        assert cost_sensitive_predict(np.array([cm.threshold]), cm).all()

    def test_monotone_in_fn_cost(self):
        rng = random.Random(2)
        scores = np.array([rng.random() for _ in range(500)])
        previous = np.zeros(len(scores), dtype=bool)
        for c_fn in (1, 5, 10, 20, 40):
            current = cost_sensitive_predict(scores, CostMatrix(c_fn, 1))
            assert current.dtype == bool and np.all(previous <= current)
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

    @pytest.mark.parametrize("text", ["inf:1", "1:inf", "1e309:1", "1:-inf"])
    def test_parse_rejects_non_finite_cost(self, text):
        # An infinite cost makes the threshold 0 or 1 and reweighted masses NaN.
        with pytest.raises(ValueError) as err:
            CostMatrix.parse(text)
        assert str(err.value) == "both misclassification costs must be positive and finite"

    @pytest.mark.parametrize("text", ["20", "a:b", "1:2:3", ""])
    def test_parse_names_bad_syntax(self, text):
        with pytest.raises(ValueError, match="must look like"):
            CostMatrix.parse(text)


class TestTree:
    """The trees of a forest: each fits its bootstrap resample."""

    def test_separable_feature_gives_depth_one(self):
        ds = two_class([100, 110, 120], [1, 2, 3, 4])
        forest = train_forest(ds, n_trees=8, seed=1)
        assert any(both_classes(t) for t in forest.trees)
        for tree in forest.trees:
            assert tree_depth(tree) == (1 if both_classes(tree) else 0)
        assert training_accuracy(forest, ds) == 1.0

    def test_unsplittable_single_leaf_majority(self):
        ds = two_class([7], [7, 7, 7])
        forest = train_forest(ds, n_trees=8, seed=1)
        for tree in forest.trees:
            assert tree.n_nodes == 1
            assert tree.counts[0].sum() == 4.0  # one count per bootstrap draw
            one_tree = ForestModel([tree], seed=0)
            assert np.all(one_tree.predict_proba_matrix(ds.X) == tree.counts[0, 0] / 4)

    def test_xor_layout_reaches_full_accuracy(self):
        instances = []
        for i, (a, b) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)] * 3):
            label = "P" if a != b else "nP"
            instances.append((
                f"i{i}_{a}{b}", label, make_features(sum_in=a * 1000, count_in=b * 1000)))
        ds = dataset_of(instances)
        forest = train_forest(ds, n_trees=10, seed=3)
        assert training_accuracy(forest, ds) == 1.0
        assert max(tree_depth(t) for t in forest.trees) >= 2

    def test_consistent_data_always_fits_exactly(self):
        # Two informative features of 20: many nodes draw 5 constant ones and
        # must fall back to the rest to reach pure leaves.
        rng = random.Random(11)
        for trial in range(10):
            n = rng.randint(2, 60)
            instances = [
                (f"r{i}", rng.choice(["P", "nP"]),
                         make_features(sum_in=i, count_in=rng.randint(0, 5)))
                for i in range(n)
            ]
            forest = train_forest(dataset_of(instances), n_trees=4, seed=trial)
            for tree in forest.trees:
                leaves = tree.counts[tree.feature < 0]
                assert np.all(leaves.min(axis=1) == 0)  # every leaf is pure

    def test_single_class_dataset(self):
        ds = two_class([5, 6], [])
        forest = train_forest(ds.take([0, 1]), n_trees=3, seed=0)
        assert all(t.n_nodes == 1 for t in forest.trees)

    def test_structural_invariants(self):
        ds = make_dataset(12, 80, seed=21, separable=False)
        for tree in train_forest(ds, n_trees=5, seed=0).trees:
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
    def test_separable_training_accuracy(self):
        ds = make_dataset(20, 80, seed=2)
        forest = train_forest(ds, n_trees=15, seed=4)
        assert training_accuracy(forest, ds) == 1.0

    def test_seed_determinism_across_runs(self):
        ds = make_dataset(8, 40, seed=3)

        def fingerprint():
            forest = train_forest(ds, n_trees=12, seed=77)
            buf = io.StringIO()
            save_model(forest, buf)
            return buf.getvalue()

        first = fingerprint()
        assert fingerprint() == first
        assert fingerprint() == first

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
        assert forest.predict_proba_matrix(matrix(make_features(**p_proto))).tolist() == [1.0]

    def test_two_tree_mean(self):
        leaf_p = TreeModel(
            np.array([-1], np.int32), np.zeros(1), np.array([-1], np.int32),
            np.array([-1], np.int32), np.array([[3.0, 0.0]]))
        leaf_np = TreeModel(
            np.array([-1], np.int32), np.zeros(1), np.array([-1], np.int32),
            np.array([-1], np.int32), np.array([[0.0, 2.0]]))
        forest = ForestModel([leaf_p, leaf_np], seed=0)
        assert forest.predict_proba_matrix(matrix(make_features())).tolist() == [0.5]


def leaf(p_mass: float, np_mass: float) -> TreeModel:
    """A tree of depth 0."""
    return TreeModel(np.array([-1], np.int32), np.zeros(1), np.array([-1], np.int32),
                     np.array([-1], np.int32), np.array([[p_mass, np_mass]]))


def chain(depth: int) -> TreeModel:
    """A deep chain: split j tests feature j % 20 against j // 20; its left
    child is a leaf, its right child the next split, numbered in pre-order."""
    n = 2 * depth + 1
    node = np.arange(n)
    split = (node % 2 == 0) & (node < n - 1)
    j = node // 2
    feature = np.where(split, j % len(FEATURE_NAMES), -1).astype(np.int32)
    left = np.where(split, node + 1, -1).astype(np.int32)
    right = np.where(split, node + 2, -1).astype(np.int32)
    counts = np.stack([node + 0.5, np.ones(n)], axis=1)  # a distinct P share per node
    return TreeModel(feature, (j // len(FEATURE_NAMES)).astype(np.float64), left, right, counts)


def scoring_rows(n: int, seed: int = 0) -> np.ndarray:
    """n rows of values 0 to 30 in steps of 0.5, so that some rows hit a
    threshold exactly."""
    return np.random.default_rng(seed).integers(0, 61, (n, len(FEATURE_NAMES))) / 2.0


def trained_trees(n_trees: int) -> list[TreeModel]:
    ds = make_dataset(40, 160, seed=n_trees, separable=False)
    return train_forest(ds, n_trees=n_trees, seed=n_trees).trees


def forests() -> dict[str, ForestModel]:
    out = {}
    for n_trees in (1, 3, 100):
        trained = trained_trees(n_trees)
        out[f"trained_{n_trees}"] = ForestModel(trained, seed=0)
        mixed = [leaf(2.0, 3.0), chain(60), *trained][:n_trees]
        out[f"leaf_chain_trained_{n_trees}"] = ForestModel(mixed, seed=0)
    out["depth_0"] = ForestModel([leaf(1.0, 0.0), leaf(0.25, 3.0)], seed=0)
    return out


FORESTS = forests()


class TestBlockwiseScoring:
    """The forest walks all trees over blocks of rows; its scores must have
    the bits of the tree-by-tree sum."""

    @pytest.mark.parametrize("name", list(FORESTS))
    def test_matches_tree_by_tree_walk(self, name):
        forest = FORESTS[name]
        block = max(1, PREDICT_BLOCK // len(forest.trees))  # rows per block
        for n in sorted({0, 1, block - 1, block, block + 1, 3 * block + 1}):
            X = scoring_rows(n, seed=n)
            got = forest.predict_proba_matrix(X)
            assert got.dtype == np.float64 and got.shape == (n,)
            assert np.array_equal(got, forest_proba(forest, X)), n

    def test_chain_reaches_every_depth(self):
        tree = chain(60)
        p = ForestModel([tree], seed=0).predict_proba_matrix(scoring_rows(4000))
        leaf_p = tree.counts[:, 0] / tree.counts.sum(axis=1)
        assert set(p.tolist()) == set(leaf_p[tree.feature < 0].tolist())

    @pytest.mark.parametrize("name", ["trained_100", "leaf_chain_trained_3"])
    def test_reloaded_model(self, name):
        forest = FORESTS[name]
        buf = io.StringIO()
        save_model(forest, buf)
        buf.seek(0)
        loaded = load_model(buf)
        X = scoring_rows(3 * max(1, PREDICT_BLOCK // len(forest.trees)) + 1, seed=9)
        assert np.array_equal(loaded.predict_proba_matrix(X), forest_proba(loaded, X))
        assert np.array_equal(loaded.predict_proba_matrix(X), forest.predict_proba_matrix(X))


class TestBayes:
    def test_closed_form_two_cluster_case(self):
        ds = two_class([0, 2], [10, 12])
        model = train_bayes(ds)
        f = 6  # sum_in column
        assert model.mean[1][f] == pytest.approx(1.0)
        assert model.mean[0][f] == pytest.approx(11.0)
        (p,) = model.predict_proba_matrix(matrix(make_features(sum_in=1)))
        assert p > 0.99

    def test_identical_distributions_fall_back_to_prior(self):
        ds = two_class([1, 2, 3], [1, 2, 3])
        model = train_bayes(ds)
        p = model.predict_proba_matrix(matrix(*(make_features(sum_in=x) for x in (0, 1, 5, 100))))
        assert p == pytest.approx([0.5] * 4)

    def test_symmetric_midpoint(self):
        ds = two_class([0, 2], [4, 6])
        model = train_bayes(ds)
        assert model.predict_proba_matrix(matrix(make_features(sum_in=3))) == pytest.approx([0.5])

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


def _fractional_child(tree):  # once truncated to a valid index
    tree["left"][0] = tree["left"][0] + 0.5


def _boolean_feature(tree):
    tree["feature"][0] = True


def _nan_threshold(tree):  # json.dumps writes NaN, which json.load takes
    tree["threshold"][0] = float("nan")


def _infinite_threshold(tree):
    tree["threshold"][0] = float("inf")


def _nan_split_counts(tree):
    tree["counts"][0] = [float("nan"), 1.0]


def _string_threshold(tree):  # a float64 cast would parse it
    tree["threshold"][0] = "0.5"


def _boolean_threshold(tree):
    tree["threshold"][0] = True


def _boolean_leaf_count(tree):  # a float64 cast would take it as 1.0
    leaf = tree["feature"].index(-1)
    tree["counts"][leaf][0] = True


def _string_counts_row(tree):
    tree["counts"][0] = "12"


class TestLoadRejectsBadTrees:
    @pytest.mark.parametrize("corrupt", [
        _self_loop, _child_out_of_range, _child_before_parent, _short_threshold,
        _feature_out_of_range, _negative_feature, _empty_leaf, _nan_threshold,
        _infinite_threshold, _nan_split_counts, _fractional_child, _boolean_feature,
        _string_threshold, _boolean_threshold, _boolean_leaf_count, _string_counts_row,
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

    @pytest.mark.parametrize("name, value", [
        ("features_per_split", 4), ("min_leaf", 3), ("max_depth", 2), ("bootstrap", False),
        ("bootstrap", 1), ("features_per_split", 5.0),
    ])
    def test_forest_params_must_be_the_fixed_ones(self, name, value):
        doc = _forest_doc()
        doc["params"][name] = value
        with pytest.raises(DataError, match="forest parameters .* are not the fixed"):
            load_model(io.StringIO(json.dumps(doc)))

    @pytest.mark.parametrize("seed", [float("nan"), 1.5, "7", True, None])
    def test_forest_seed_must_be_an_integer(self, seed):
        doc = _forest_doc()
        doc["seed"] = seed
        with pytest.raises(DataError, match="seed"):
            load_model(io.StringIO(json.dumps(doc)))

    @pytest.mark.parametrize("n_trees", [True, 3.0])
    def test_tree_count_must_be_an_integer(self, n_trees):
        doc = _forest_doc()
        doc["trees"] = doc["trees"][:int(n_trees)]
        doc["params"]["n_trees"] = n_trees
        with pytest.raises(DataError, match="trees"):
            load_model(io.StringIO(json.dumps(doc)))

    def test_single_tree_kind_rejected(self):
        doc = _forest_doc()
        doc["tree"] = doc.pop("trees")[0]
        del doc["params"], doc["seed"]
        doc["learner"] = "tree"
        with pytest.raises(DataError, match="unknown learner kind"):
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

    @pytest.mark.parametrize("key, value", [
        ("mean", "0.5"), ("mean", True), ("var", True), ("var", "2"), ("var", None),
    ])
    def test_bayes_parameters_must_be_numbers(self, key, value):
        buf = io.StringIO()
        save_model(train_bayes(make_dataset(3, 9, seed=0)), buf)
        doc = json.loads(buf.getvalue())
        doc["bayes"][key][1][3] = value
        with pytest.raises(DataError, match=f"Bayes model {key}"):
            load_model(io.StringIO(json.dumps(doc)))


def test_forest_needs_a_tree():
    with pytest.raises(ValueError, match="at least one tree"):
        train_forest(make_dataset(3, 9, seed=0), n_trees=0)
