import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ponzi_radar
from ponzi_radar.cli import main

from conftest import tx_line, txid_of


def run(argv, capsys=None):
    code = main(argv)
    return code


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A small synth world with log, labels, and dataset on disk."""
    root = tmp_path_factory.mktemp("world")
    log = root / "log.jsonl"
    labels = root / "labels.csv"
    dataset = root / "dataset.csv"
    assert main(["synth", "--seed", "11", "--ponzi", "4", "--background", "150",
                 "--labels", str(labels), "-o", str(log)]) == 0
    assert main(["dataset", "--log", str(log), "--labels", str(labels),
                 "-o", str(dataset)]) == 0
    return root


def test_dataset_counts_match_generator_params(world):
    lines = (world / "dataset.csv").read_text().splitlines()
    header, rows = lines[0], lines[1:]
    assert header.startswith("schema=v1,id,label,")
    labels = [row.split(",")[1] for row in rows]
    assert labels.count("P") == 4
    assert labels.count("nP") == 150


def test_validate_ok(world):
    assert main(["validate", str(world / "log.jsonl")]) == 0


def test_validate_detects_double_spend(tmp_path, capsys):
    t0 = txid_of("v0")
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([
        tx_line(t0, 10, coinbase=True, outputs=[("a", 10)]),
        tx_line(txid_of("v1"), 20, inputs=[(t0, 0)], outputs=[("b", 10)]),
        tx_line(txid_of("v2"), 30, inputs=[(t0, 0)], outputs=[("c", 10)]),
    ]) + "\n")
    assert main(["validate", str(bad)]) == 2
    out = capsys.readouterr().out
    assert "double spends: 1" in out


def test_cluster_and_features_outputs(world, tmp_path):
    clusters = tmp_path / "clusters.csv"
    feats = tmp_path / "features.csv"
    assert main(["cluster", str(world / "log.jsonl"), "-o", str(clusters)]) == 0
    assert clusters.read_text().startswith("cluster_id,address\n")
    assert main(["features", str(world / "log.jsonl"), "-o", str(feats)]) == 0
    assert feats.read_text().startswith("schema=v1,cluster_id,n_addr,")


def test_dataset_from_staged_files(world, tmp_path):
    # cluster + features + labels joined without re-reading the log
    clusters = tmp_path / "clusters.csv"
    feats = tmp_path / "features.csv"
    out = tmp_path / "ds.csv"
    main(["cluster", str(world / "log.jsonl"), "-o", str(clusters)])
    main(["features", str(world / "log.jsonl"), "-o", str(feats)])
    assert main(["dataset", "--features", str(feats), "--clusters", str(clusters),
                 "--labels", str(world / "labels.csv"), "-o", str(out)]) == 0
    assert out.read_text() == (world / "dataset.csv").read_text()


def test_cv_report(world, tmp_path, capsys):
    report = tmp_path / "report.csv"
    code = main(["cv", str(world / "dataset.csv"), "--learner", "forest",
                 "--trees", "10", "--cost", "20:1", "--k", "4", "--seed", "1",
                 "-o", str(report)])
    assert code == 0
    lines = report.read_text().splitlines()
    assert lines[1].startswith("setting,tp,fn,fp,tn,")
    aggregate = lines[2].split(",")
    assert aggregate[0] == "forest-t10-cm20_1-r0-k4-seed1"
    tp, fn, fp, tn = map(int, aggregate[1:5])
    assert tp + fn == 4
    assert fp + tn == 150
    assert len(lines) == 2 + 1 + 4  # comment, header, aggregate, one per fold


def test_cv_deterministic_across_runs_and_threads(world, tmp_path):
    args = ["cv", str(world / "dataset.csv"), "--trees", "8", "--cost", "10:1",
            "--k", "3", "--seed", "9"]
    r1, r2, r8 = (tmp_path / f"r{i}.csv" for i in range(3))
    assert main(args + ["--threads", "1", "-o", str(r1)]) == 0
    assert main(args + ["--threads", "1", "-o", str(r2)]) == 0
    assert main(args + ["--threads", "8", "-o", str(r8)]) == 0
    assert r1.read_bytes() == r2.read_bytes() == r8.read_bytes()


def test_train_then_apply(world, tmp_path, capsys):
    model = tmp_path / "model.json"
    preds = tmp_path / "preds.csv"
    assert main(["train", str(world / "dataset.csv"), "--trees", "10",
                 "--seed", "3", "-o", str(model)]) == 0
    doc = json.loads(model.read_text())
    assert doc["learner"] == "forest" and doc["seed"] == 3
    assert main(["apply", str(world / "dataset.csv"), "--model", str(model),
                 "--cost", "20:1", "-o", str(preds)]) == 0
    lines = preds.read_text().splitlines()
    assert lines[0] == "id,label,score,predicted"
    assert len(lines) == 1 + 4 + 150


def test_rank_report(world, tmp_path, capsys):
    out = tmp_path / "rankings.csv"
    assert main(["rank", str(world / "dataset.csv"), "--seed", "2",
                 "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,feature,score,rank"
    methods = {line.split(",")[0] for line in lines[1:]}
    assert methods == {"info_gain", "gain_ratio", "sym_uncertainty",
                       "one_r", "relieff", "consensus"}
    assert len(lines) == 1 + 6 * 20


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["cv", "--no-such-flag"])
    assert err.value.code == 1


def test_missing_input_exits_two(capsys):
    assert main(["validate", "/nonexistent/path.jsonl"]) == 2


@pytest.mark.parametrize("argv", [
    ["cv", "--cost", "abc"],
    ["cv", "--cost", "1:0"],
    ["cv", "--reweight-cost", "x"],
    ["train", "--reweight-cost", "x"],
    ["cv", "--k", "1"],
    ["cv", "--ratio", "0.5"],
    ["cv", "--trees", "0"],
    ["train", "--trees", "0"],
    ["rank", "--bins", "1"],
    ["rank", "--relieff-k", "0"],
    ["apply", "--model", "model.json", "--cost", "foo"],
], ids=["cost", "cost_zero", "cv_reweight", "train_reweight", "k", "ratio",
        "cv_trees", "train_trees", "bins", "relieff_k", "apply_cost"])
def test_bad_option_value_exits_one(world, argv, capsys):
    command, *options = argv
    with pytest.raises(SystemExit) as err:
        main([command, str(world / "dataset.csv"), *options])
    assert err.value.code == 1


def test_apply_rejects_self_loop_model(world, tmp_path):
    # Run apart, under a timeout: predicting with this tree would never end.
    model, preds = tmp_path / "model.json", tmp_path / "preds.csv"
    assert main(["train", str(world / "dataset.csv"), "--trees", "2", "-o", str(model)]) == 0
    doc = json.loads(model.read_text())
    assert doc["trees"][0]["feature"][0] >= 0
    doc["trees"][0]["left"][0] = 0
    model.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "ponzi_radar.cli", "apply", str(world / "dataset.csv"),
         "--model", str(model), "-o", str(preds)],
        env={**os.environ, "PYTHONPATH": str(Path(ponzi_radar.__file__).parents[1])},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "child index" in proc.stderr
    assert not preds.exists()


def test_train_bayes_learner(world, tmp_path):
    model = tmp_path / "bayes.json"
    assert main(["train", str(world / "dataset.csv"), "--learner", "bayes",
                 "-o", str(model)]) == 0
    assert json.loads(model.read_text())["learner"] == "bayes"


def test_log_env_var_accepted(world, monkeypatch, capsys):
    monkeypatch.setenv("PONZI_RADAR_LOG", "info")
    assert main(["validate", str(world / "log.jsonl")]) == 0


def test_dataset_without_inputs_exits_two(world):
    assert main(["dataset", "--labels", str(world / "labels.csv")]) == 2
