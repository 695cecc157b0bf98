"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import random
import time

import numpy as np
import pytest

from ponzi_radar.cli import main
from ponzi_radar.clustering import build_clusters
from ponzi_radar.evaluate import (
    ConfusionMatrix,
    metrics_from_confusion,
    roc_auc,
    stratified_folds,
)
from ponzi_radar.features import FEATURE_NAMES, gini
from ponzi_radar.learn import CostMatrix, cost_sensitive_predict
from ponzi_radar.rank import (
    RANKER_NAMES,
    discretize,
    entropy,
    info_gain,
    rank_features,
    relieff,
)

from conftest import dataset_of, make_dataset, make_features, random_valid_log
from test_clustering import co_spend_components, partition_of
from test_evaluate import auc_trapezoid
from test_features import gini_pairwise

TOL = 0.0015


def note(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} PASS: {message}")


def test_criterion_01_metric_formula_reproduction():
    published = {
        # setting: (tp, fn, fp, tn), then accuracy, recall, specificity,
        # f-measure, precision, g-mean as printed in the reference tables.
        "CM5": ((25, 7, 13, 6387), 0.997, 0.781, 0.998, 0.714, 0.658, 0.883),
        "CM10": ((29, 3, 26, 6374), 0.995, 0.906, 0.995, 0.667, 0.527, 0.949),
        "CM20": ((31, 1, 77, 6323), 0.988, 0.969, 0.987, 0.443, 0.287, 0.978),
        "CM40": ((31, 1, 132, 6268), 0.979, 0.969, 0.979, 0.318, 0.190, 0.973),
    }
    start = time.perf_counter()
    for setting, (cells, acc, rec, spec, f, prec, g) in published.items():
        m = metrics_from_confusion(ConfusionMatrix(*cells))
        for name, got, want in [
            ("accuracy", m.accuracy, acc),
            ("recall", m.recall, rec),
            ("specificity", m.specificity, spec),
            ("f_measure", m.f_measure, f),
            ("precision", m.precision, prec),
            ("g_mean", m.g_mean, g),
        ]:
            assert abs(got - want) <= TOL, f"{setting} {name}: {got} vs {want}"
    elapsed = time.perf_counter() - start
    note(1, f"4 confusion matrices x 6 metrics within ±{TOL} ({elapsed * 1e3:.1f} ms)")


def test_criterion_02_majority_baseline():
    ds = make_dataset(32, 6400, seed=0, separable=False)
    counts = {"tp": 0, "fn": 0, "fp": 0, "tn": 0}
    always_np = cost_sensitive_predict(np.zeros(len(ds)), CostMatrix(1, 1))
    for actual, predicted_p in zip(ds.y, always_np):
        if actual == 1:
            counts["tp" if predicted_p else "fn"] += 1
        else:
            counts["fp" if predicted_p else "tn"] += 1
    m = metrics_from_confusion(ConfusionMatrix(**counts))
    assert abs(m.accuracy - 0.995) <= TOL
    assert m.recall == 0.0
    note(2, f"always-nP on 32P/6400nP: accuracy {m.accuracy:.4f}, recall 0")


def test_criterion_03_clustering_oracle_equivalence():
    rng = random.Random(1234)
    start = time.perf_counter()
    matches = 0
    for i in range(500):
        n_tx = rng.randint(10, 250) if i % 25 else rng.randint(600, 1000)
        log = random_valid_log(rng, n_tx, n_addrs=rng.randint(6, 40))
        assert partition_of(build_clusters(log)) == co_spend_components(log)
        matches += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    note(3, f"union-find == BFS components on {matches}/500 random logs "
            f"({elapsed:.2f} s)")


def test_criterion_04_gini_oracle_equivalence():
    rng = random.Random(99)
    start = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(1, 200)
        kind = rng.random()
        if kind < 0.3:
            xs = [float(rng.randint(0, 5)) for _ in range(n)]
        elif kind < 0.6:
            xs = [rng.random() * 10 ** rng.randint(0, 8) for _ in range(n)]
        else:
            xs = [abs(rng.gauss(100, 40)) for _ in range(n)]
        assert gini(xs) == pytest.approx(gini_pairwise(xs), abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    note(4, f"1000 vectors (n<=200) match the pairwise oracle within 1e-9 "
            f"({elapsed:.2f} s)")


def test_criterion_05_cost_threshold_monotonicity():
    rng = random.Random(7)
    scores = [rng.random() for _ in range(10_000)]
    start = time.perf_counter()
    previous: set[int] = set()
    for c_fn in (1, 5, 10, 20, 40):
        cm = CostMatrix(c_fn, 1)
        assert cm.threshold == 1 / (1 + c_fn)
        current = set(np.flatnonzero(cost_sensitive_predict(scores, cm)).tolist())
        assert previous <= current
        previous = current
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    note(5, f"predicted-P sets nest across c_fn in {{1,5,10,20,40}} on 10^4 "
            f"scores; threshold exact ({elapsed:.2f} s)")


def test_criterion_06_stratification_contract():
    rng = random.Random(55)
    start = time.perf_counter()
    for trial in range(200):
        n_p = rng.randint(1, 40)
        n_n = rng.randint(1, 200)
        ds = make_dataset(n_p, n_n, seed=trial)
        for k in (2, 5, 10):
            if k > len(ds):
                continue
            folds = stratified_folds(ds, k, seed=trial)
            flat = sorted(i for fold in folds for i in fold)
            assert flat == list(range(len(ds)))
            for label in (1, 0):
                counts = [sum(1 for i in fold if ds.y[i] == label) for fold in folds]
                assert max(counts) - min(counts) <= 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    note(6, f"200 datasets x K in {{2,5,10}}: partitions exact, per-class "
            f"spread <= 1 ({elapsed:.2f} s)")


def test_criterion_07_auc_cross_check():
    rng = random.Random(77)
    start = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(2, 120)
        n_pos = rng.randint(1, n - 1)
        labels = [1] * n_pos + [0] * (n - n_pos)
        tie_pool = [0.1, 0.5, 0.9]
        scores = [rng.choice(tie_pool) if rng.random() < 0.4 else rng.random()
                  for _ in range(n)]
        mw = roc_auc(scores, labels)
        trap = auc_trapezoid(scores, labels)
        assert abs(mw - trap) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    note(7, f"Mann-Whitney vs trapezoid within 1e-12 on 1000 score sets "
            f"({elapsed:.2f} s)")


@pytest.fixture(scope="module")
def full_pipeline(tmp_path_factory):
    """Criterion 8/9 pipeline: synth defaults -> dataset -> cv, twice."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {
        "log": root / "log.jsonl",
        "log2": root / "log2.jsonl",
        "labels": root / "labels.csv",
        "labels2": root / "labels2.csv",
        "dataset": root / "dataset.csv",
        "dataset2": root / "dataset2.csv",
        "report": root / "report.csv",
        "report2": root / "report2.csv",
    }
    start = time.perf_counter()
    assert main(["synth", "--seed", "42", "--ponzi", "30", "--background", "6000",
                 "--labels", str(paths["labels"]), "-o", str(paths["log"])]) == 0
    assert main(["dataset", "--log", str(paths["log"]), "--labels",
                 str(paths["labels"]), "-o", str(paths["dataset"])]) == 0
    cv = ["cv", str(paths["dataset"]), "--learner", "forest", "--trees", "100",
          "--cost", "20:1", "--k", "10", "--seed", "1"]
    assert main(cv + ["-o", str(paths["report"])]) == 0
    first_run = time.perf_counter() - start
    # Second full run for the determinism criterion.
    assert main(["synth", "--seed", "42", "--ponzi", "30", "--background", "6000",
                 "--labels", str(paths["labels2"]), "-o", str(paths["log2"])]) == 0
    assert main(["dataset", "--log", str(paths["log2"]), "--labels",
                 str(paths["labels2"]), "-o", str(paths["dataset2"])]) == 0
    assert main(cv + ["-o", str(paths["report2"])]) == 0
    total = time.perf_counter() - start
    return paths, first_run, total


def _aggregate_row(report_path):
    lines = report_path.read_text().splitlines()
    cells = lines[2].split(",")
    return {
        "tp": int(cells[1]), "fn": int(cells[2]),
        "fp": int(cells[3]), "tn": int(cells[4]),
        "recall": cells[6], "auc": cells[11],
    }


def test_criterion_08_end_to_end_synthetic_detection(full_pipeline):
    paths, first_run, _ = full_pipeline
    row = _aggregate_row(paths["report"])
    recall = row["tp"] / (row["tp"] + row["fn"])
    auc = float(row["auc"])
    assert recall >= 0.90
    assert auc >= 0.95
    assert first_run < 120.0
    note(8, f"synth(42, 30P, 6000nP) -> 10-fold RF+CM20: recall {recall:.3f}, "
            f"pooled AUC {auc:.3f} ({first_run:.1f} s)")


def test_criterion_09_pipeline_determinism(full_pipeline):
    paths, _, total = full_pipeline
    assert paths["log"].read_bytes() == paths["log2"].read_bytes()
    assert paths["dataset"].read_bytes() == paths["dataset2"].read_bytes()
    assert paths["report"].read_bytes() == paths["report2"].read_bytes()
    assert total < 240.0
    note(9, f"two full runs byte-identical ({total:.1f} s)")


def test_criterion_10_ranker_sanity():
    start = time.perf_counter()
    rng = random.Random(4242)
    copy_name, noise_name = "sum_in", "gini_out"
    n_p, n_n = 30, 70

    def build(seed):
        r = random.Random(seed)
        instances = [
            (f"p{i}", "P",
                     make_features(sum_in=1, gini_in=0.0, gini_out=r.random()))
            for i in range(n_p)
        ] + [
            (f"n{i}", "nP",
                     make_features(sum_in=0, gini_in=0.0, gini_out=r.random()))
            for i in range(n_n)
        ]
        return dataset_of(instances)

    ds = build(0)
    rankings = [rank_features(ds, method, bins=10, relieff_k=10, seed=0)
                for method in RANKER_NAMES]
    for ranking in rankings:
        assert ranking.entries[0][0] == copy_name, ranking.method

    labels = [1] * n_p + [0] * n_n
    column = [1.0] * n_p + [0.0] * n_n
    ig = info_gain(discretize(column, 10), labels)
    assert abs(ig - entropy(labels)) <= 1e-9

    wins = 0
    copy_idx = FEATURE_NAMES.index(copy_name)
    noise_idx = FEATURE_NAMES.index(noise_name)
    for seed in range(100):
        weights = relieff(build(seed), k=10, seed=seed)
        if weights[copy_idx] > weights[noise_idx]:
            wins += 1
    elapsed = time.perf_counter() - start
    assert wins >= 95
    assert elapsed < 10.0
    note(10, f"all 5 rankers put the class-copying feature first; "
             f"IG == H(class) within 1e-9; ReliefF wins {wins}/100 seeds "
             f"({elapsed:.2f} s)")
