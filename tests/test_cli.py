import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ponzi_radar
from ponzi_radar import dataset as ds
from ponzi_radar.cli import main
from ponzi_radar.learn import load_model, save_model

from conftest import HOSTILE_LINES, tx_line, txid_of


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


def test_cv_deterministic_across_runs(world, tmp_path):
    args = ["cv", str(world / "dataset.csv"), "--trees", "8", "--cost", "10:1",
            "--k", "3", "--seed", "9"]
    r1, r2 = (tmp_path / f"r{i}.csv" for i in range(2))
    assert main(args + ["-o", str(r1)]) == 0
    assert main(args + ["-o", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


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


def test_apply_quotes_ids(world, forest_doc, tmp_path):
    # A dataset id is a seed address, which may hold a comma, a quote or a
    # line break; predictions.csv quotes it as dataset.csv does.
    odd = 'we,ird "id"\nx'
    with open(world / "dataset.csv", encoding="utf-8", newline="") as fp:
        data = ds.read_csv(fp)
    dataset, model, preds = (tmp_path / name for name in ("ds.csv", "model.json", "preds.csv"))
    with open(dataset, "w", encoding="utf-8", newline="") as fp:
        ds.write_csv(ds.Dataset((odd, *data.ids[1:]), data.y, data.X), fp)
    model.write_text(json.dumps(forest_doc))
    assert main(["apply", str(dataset), "--model", str(model), "-o", str(preds)]) == 0
    with open(preds, encoding="utf-8", newline="") as fp:
        rows = list(csv.reader(fp))
    assert rows[0] == ["id", "label", "score", "predicted"]
    assert [row[0] for row in rows[1:]] == [odd, *data.ids[1:]]
    assert {len(row) for row in rows} == {4}


def test_rank_report(world, tmp_path, capsys):
    out = tmp_path / "rankings.csv"
    assert main(["rank", str(world / "dataset.csv"), "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,feature,score,rank"
    methods = {line.split(",")[0] for line in lines[1:]}
    assert methods == {"info_gain", "gain_ratio", "sym_uncertainty",
                       "one_r", "relieff", "consensus"}
    assert len(lines) == 1 + 6 * 20


def test_rank_header_only_dataset_exits_two(world, tmp_path, capsys):
    header = (world / "dataset.csv").read_text().splitlines()[0]
    data = tmp_path / "empty.csv"
    data.write_text(header + "\n")
    out = tmp_path / "rankings.csv"
    assert main(["rank", str(data), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "dataset has no rows" in err and "one_r" not in err
    assert not out.exists()


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
    ["cv", "--threads", "2"],
    ["train", "--threads", "2"],
    ["rank", "--seed", "2"],
    ["rank", "--top", "-2"],
    ["rank", "--top", "0"],
    ["cv", "--cost", "inf:1"],
    ["cv", "--cost", "1:inf"],
    ["cv", "--cost", "1e309:1"],
    ["cv", "--reweight-cost", "inf:1"],
], ids=["cost", "cost_zero", "cv_reweight", "train_reweight", "k", "ratio",
        "cv_trees", "train_trees", "bins", "relieff_k", "apply_cost",
        "cv_threads", "train_threads", "rank_seed", "top_negative", "top_zero",
        "cost_inf_fn", "cost_inf_fp", "cost_overflow", "cv_reweight_inf"])
def test_bad_option_value_exits_one(world, argv, capsys):
    command, *options = argv
    with pytest.raises(SystemExit) as err:
        main([command, str(world / "dataset.csv"), *options])
    assert err.value.code == 1


@pytest.mark.parametrize("sources", [
    [],
    ["--features", "{dir}/features.csv"],
    ["--clusters", "{dir}/clusters.csv"],
    ["--log", "{dir}/log.jsonl", "--features", "/nonexistent/features.csv",
     "--clusters", "/nonexistent/clusters.csv"],
    ["--log", "{dir}/log.jsonl", "--clusters", "/nonexistent/clusters.csv"],
], ids=["neither", "features_only", "clusters_only", "log_and_pair", "log_and_clusters"])
def test_dataset_sources_exit_one(world, tmp_path, sources, capsys):
    argv = [a.format(dir=world) for a in sources]
    with pytest.raises(SystemExit) as err:
        main(["dataset", "--labels", str(world / "labels.csv"), *argv,
              "-o", str(tmp_path / "out")])
    assert err.value.code == 1
    assert "--log" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--ponzi", "-1"],
    ["synth", "--background", "-5"],
    ["dataset", "--labels", "labels.csv", "--sample", "-1"],
], ids=["synth_ponzi", "synth_background", "dataset_sample"])
def test_bad_count_exits_one(world, tmp_path, argv, capsys):
    with pytest.raises(SystemExit) as err:
        main([*argv, "-o", str(tmp_path / "out")])
    assert err.value.code == 1
    assert "must be at least 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "1.5"])
@pytest.mark.parametrize("argv", [
    ["synth", "--labels", "{out}.labels"],
    ["dataset", "--log", "{dir}/log.jsonl", "--labels", "{dir}/labels.csv"],
    ["train", "{dir}/dataset.csv"],
    ["cv", "{dir}/dataset.csv"],
    ["rank", "{dir}/dataset.csv"],
], ids=["synth", "dataset", "train", "cv", "rank"])
def test_seed_out_of_range_exits_one(world, tmp_path, argv, seed, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main([*(a.format(dir=world, out=out) for a in argv), "--seed", seed, "-o", str(out)])
    assert err.value.code == 1
    # `rank` samples nothing, so it takes no --seed at all.
    expected = "unrecognized arguments: --seed" if argv[0] == "rank" else "argument --seed"
    assert expected in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "out.labels").exists()


def test_largest_seed_is_accepted(world, tmp_path):
    model = tmp_path / "model.json"
    assert main(["train", str(world / "dataset.csv"), "--trees", "2",
                 "--seed", str(2**64 - 1), "-o", str(model)]) == 0
    assert json.loads(model.read_text())["seed"] == 2**64 - 1


def test_forest_train_without_p_exits_two(world, tmp_path, capsys):
    with open(world / "dataset.csv", encoding="utf-8", newline="") as fp:
        data = ds.read_csv(fp)
    only_np, model = tmp_path / "only_np.csv", tmp_path / "model.json"
    with open(only_np, "w", encoding="utf-8", newline="") as fp:
        ds.write_csv(data.take([i for i, label in enumerate(data.y) if label == 0]), fp)
    assert main(["train", str(only_np), "--trees", "2", "-o", str(model)]) == 2
    assert "at least one P instance" in capsys.readouterr().err
    assert not model.exists()


def test_cost_usage_error_names_the_fault(world, capsys):
    with pytest.raises(SystemExit):
        main(["cv", str(world / "dataset.csv"), "--cost", "1:0"])
    err = capsys.readouterr().err
    assert "must be positive" in err and "must look like" not in err


class _Boom(RuntimeError):
    pass


def _half_then_raise(*args):
    fp = args[-1]
    fp.write("partial output\n" * 1000)
    fp.flush()
    raise _Boom("writer failed part-way")


@pytest.mark.parametrize("command, target, writer", [
    ("cv", "report.csv", "ponzi_radar.evaluate.write_report_csv"),
    ("train", "model.json", "ponzi_radar.learn.save_model"),
    ("dataset", "dataset.csv", "ponzi_radar.dataset.write_csv"),
    ("synth", "log.jsonl", "ponzi_radar.chain.write_tx_log"),
    ("synth", "labels.csv", "ponzi_radar.synth.write_labels"),
])
def test_failed_write_leaves_earlier_output_untouched(world, tmp_path, monkeypatch,
                                                      command, target, writer):
    out = tmp_path / target
    out.write_text("earlier run\n")
    argv = {
        "cv": ["cv", str(world / "dataset.csv"), "--trees", "2", "--k", "2", "-o", str(out)],
        "train": ["train", str(world / "dataset.csv"), "--trees", "2", "-o", str(out)],
        "dataset": ["dataset", "--log", str(world / "log.jsonl"),
                    "--labels", str(world / "labels.csv"), "-o", str(out)],
        "synth": ["synth", "--ponzi", "1", "--background", "20",
                  "-o", str(tmp_path / "log.jsonl"), "--labels", str(tmp_path / "labels.csv")],
    }[command]
    monkeypatch.setattr(writer, _half_then_raise)
    with pytest.raises(_Boom):
        main(argv)
    assert out.read_text() == "earlier run\n"
    leftovers = {p.name for p in tmp_path.iterdir()} - {target, "log.jsonl"}
    assert leftovers == set()


def test_output_mode_follows_umask(world, tmp_path):
    out = tmp_path / "dataset.csv"
    old = os.umask(0o027)
    try:
        assert main(["dataset", "--log", str(world / "log.jsonl"),
                     "--labels", str(world / "labels.csv"), "-o", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o640


def test_output_to_device_written_in_place(world):
    assert main(["dataset", "--log", str(world / "log.jsonl"),
                 "--labels", str(world / "labels.csv"), "-o", os.devnull]) == 0


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


def test_apply_deeply_nested_model_exits_two(world, tmp_path):
    # json.load gives up on this nesting with a RecursionError.
    model, preds = tmp_path / "model.json", tmp_path / "preds.csv"
    model.write_text("[" * 100_000)
    proc = subprocess.run(
        [sys.executable, "-m", "ponzi_radar.cli", "apply", str(world / "dataset.csv"),
         "--model", str(model), "-o", str(preds)],
        env={**os.environ, "PYTHONPATH": str(Path(ponzi_radar.__file__).parents[1])},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("ponzi-radar: error: malformed model file")
    assert proc.stderr.count("\n") == 1
    assert not preds.exists()


def test_train_bayes_learner(world, tmp_path):
    model = tmp_path / "bayes.json"
    assert main(["train", str(world / "dataset.csv"), "--learner", "bayes",
                 "-o", str(model)]) == 0
    assert json.loads(model.read_text())["learner"] == "bayes"


@pytest.mark.parametrize("learner", ["forest", "bayes"])
def test_model_file_survives_load_and_save(world, tmp_path, learner):
    model = tmp_path / "model.json"
    assert main(["train", str(world / "dataset.csv"), "--learner", learner, "--trees", "4",
                 "-o", str(model)]) == 0
    with open(model, encoding="utf-8") as fp:
        loaded = load_model(fp)
    buf = io.StringIO()
    save_model(loaded, buf)
    assert buf.getvalue() == model.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def forest_doc(world, tmp_path_factory):
    model = tmp_path_factory.mktemp("forest") / "model.json"
    assert main(["train", str(world / "dataset.csv"), "--trees", "2", "-o", str(model)]) == 0
    return json.loads(model.read_text())


def _single_tree(doc):
    doc["tree"] = doc.pop("trees")[0]
    del doc["params"], doc["seed"]
    doc["learner"] = "tree"


# Edits of a valid forest file, each with what the error must name.
_MODEL_FAULTS = {
    "features_per_split": (lambda doc: doc["params"].update(features_per_split=4),
                           "forest parameters"),
    "min_leaf": (lambda doc: doc["params"].update(min_leaf=3), "forest parameters"),
    "max_depth": (lambda doc: doc["params"].update(max_depth=2), "forest parameters"),
    "bootstrap": (lambda doc: doc["params"].update(bootstrap=False), "forest parameters"),
    "tree_kind": (_single_tree, "unknown learner kind"),
    "nan_threshold": (lambda doc: doc["trees"][1]["threshold"].__setitem__(0, float("nan")),
                      "threshold"),
    "infinite_threshold": (lambda doc: doc["trees"][0]["threshold"].__setitem__(0, float("inf")),
                           "threshold"),
    "string_threshold": (lambda doc: doc["trees"][0]["threshold"].__setitem__(0, "0.5"),
                         "threshold must be numbers"),
    "boolean_count": (lambda doc: doc["trees"][1]["counts"][-1].__setitem__(0, True),
                      "counts must be numbers"),
    "negative_seed": (lambda doc: doc.update(seed=-1), "forest seed"),
    "seed_past_u64": (lambda doc: doc.update(seed=2**64), "forest seed"),
}


@pytest.mark.parametrize("fault", list(_MODEL_FAULTS))
def test_apply_rejects_model_file(world, forest_doc, tmp_path, capsys, fault):
    doc = json.loads(json.dumps(forest_doc))
    assert doc["trees"][0]["feature"][0] >= 0 and doc["trees"][1]["feature"][0] >= 0
    change, message = _MODEL_FAULTS[fault]
    change(doc)
    model, preds = tmp_path / "model.json", tmp_path / "preds.csv"
    model.write_text(json.dumps(doc))  # writes NaN and Infinity as json.load takes them
    assert main(["apply", str(world / "dataset.csv"), "--model", str(model),
                 "-o", str(preds)]) == 2
    assert message in capsys.readouterr().err
    assert not preds.exists()


def test_log_env_var_accepted(world, monkeypatch, capsys):
    monkeypatch.setenv("PONZI_RADAR_LOG", "info")
    assert main(["validate", str(world / "log.jsonl")]) == 0


def test_dataset_without_inputs_exits_two(world, tmp_path):
    out = tmp_path / "out.csv"
    assert main(["dataset", "--labels", str(world / "labels.csv"),
                 "--features", str(tmp_path / "missing.csv"),
                 "--clusters", str(tmp_path / "missing_clusters.csv"), "-o", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "cluster", "features"])
@pytest.mark.parametrize("name", sorted(HOSTILE_LINES))
def test_hostile_log_line_exits_two(tmp_path, capsys, command, name):
    log = tmp_path / "log.jsonl"
    log.write_text(HOSTILE_LINES[name] + "\n")
    argv = [command, str(log)] + ([] if command == "validate" else ["-o", str(tmp_path / "out")])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("ponzi-radar: error: line 1: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["cv", "train", "apply", "rank"])
@pytest.mark.parametrize("column, cell", [
    ("gini_in", "nan"),
    ("avg_in", "-inf"),
    ("sum_in", "9" * 400),
    ("n_addr", "-3"),
    ("sum_in", str(2**53 + 1)),
], ids=["nan", "minus_inf", "400_digits", "negative", "above_2_53"])
def test_hostile_dataset_cell_exits_two(world, tmp_path, capsys, command, column, cell):
    lines = (world / "dataset.csv").read_text().splitlines()
    cells = lines[5].split(",")
    cells[lines[0].split(",").index(column) - 1] = cell  # the schema cell heads no column
    lines[5] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    if command == "apply":
        model = tmp_path / "model.json"
        assert main(["train", str(world / "dataset.csv"), "--trees", "2", "-o", str(model)]) == 0
        argv = ["apply", str(bad), "--model", str(model)]
    else:
        argv = [command, str(bad)]
    assert main([*argv, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"row 6, column {column}: " in err
    assert "Traceback" not in err
    assert not out.exists()


def test_feature_above_integer_bound_exits_two(tmp_path, capsys):
    t0 = txid_of("big")
    log = tmp_path / "log.jsonl"
    log.write_text(tx_line(t0, 10, coinbase=True,
                           outputs=[("a", 2**52), ("a", 2**52 + 1)]) + "\n")
    assert main(["features", str(log), "-o", str(tmp_path / "out")]) == 2
    assert "feature sum_in is above 2**53" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_oversized_csv_field_exits_two(world, tmp_path, capsys):
    labels = tmp_path / "labels.csv"
    labels.write_text("cluster_seed_address,label\n" + "a" * 200_000 + ",P\n")
    assert main(["dataset", "--log", str(world / "log.jsonl"), "--labels", str(labels),
                 "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "field larger than field limit" in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["labels file", "seed file", "cluster dump"])
def test_oversized_cell_names_file_and_row(world, tmp_path, capsys, kind):
    big = "a" * 200_000
    labels, seeds, clusters = (tmp_path / name for name in ("labels.csv", "seeds.csv",
                                                             "clusters.csv"))
    labels.write_text("cluster_seed_address,label\nx,nP\n" + big + ",P\n")
    seeds.write_text("label,address\ns1,x\n" + big + ",y\n")
    clusters.write_text("cluster_id,address\n0,x\n1," + big + "\n")
    log, out = str(world / "log.jsonl"), str(tmp_path / "out")
    features = str(tmp_path / "features.csv")
    assert main(["features", log, "-o", features]) == 0
    argv = {
        "labels file": ["dataset", "--log", log, "--labels", str(labels)],
        "seed file": ["cluster", log, "--seeds", str(seeds)],
        "cluster dump": ["dataset", "--features", features, "--clusters", str(clusters),
                         "--labels", str(world / "labels.csv")],
    }[kind]
    assert main([*argv, "-o", out]) == 2
    err = capsys.readouterr().err
    assert err == (f"ponzi-radar: error: {kind} row 3: "
                   "field larger than field limit (131072)\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "dataset"])
def test_reading_stdin_leaves_it_open(world, tmp_path, monkeypatch, command):
    source = world / ("log.jsonl" if command == "validate" else "labels.csv")
    argv = {
        "validate": ["validate", "-"],
        "dataset": ["dataset", "--log", str(world / "log.jsonl"), "--labels", "-",
                    "-o", str(tmp_path / "dataset.csv")],
    }[command]
    with open(source, encoding="utf-8") as stdin:
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(argv) == 0
        assert not stdin.closed
        os.fstat(stdin.fileno())  # the descriptor is still open
    if command == "dataset":
        assert (tmp_path / "dataset.csv").read_bytes() == (world / "dataset.csv").read_bytes()


@pytest.fixture(scope="module")
def seeds(world, tmp_path_factory):
    path = tmp_path_factory.mktemp("seeds") / "seeds.csv"
    path.write_text("label,address\nfirst,px000x0\nsecond,px001x0\nlost,nowhere\n")
    return path


@pytest.mark.parametrize("command, first_row", [
    ("apply", ["id", "label", "score", "predicted"]),
    ("rank", ["method", "feature", "score", "rank"]),
    ("cluster", ["cluster_id", "address"]),
    ("cv", ["# ponzi-radar report schema=v1"]),
], ids=["apply", "rank", "cluster", "cv"])
def test_table_on_stdout_has_stdout_to_itself(world, forest_doc, seeds, tmp_path, capsys,
                                              command, first_row):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(forest_doc))
    argv = {
        "apply": ["apply", str(world / "dataset.csv"), "--model", str(model)],
        "rank": ["rank", str(world / "dataset.csv")],
        "cluster": ["cluster", str(world / "log.jsonl"), "--seeds", str(seeds)],
        "cv": ["cv", str(world / "dataset.csv"), "--trees", "2", "--k", "2"],
    }[command]
    saved = tmp_path / "table.csv"
    assert main([*argv, "-o", str(saved)]) == 0
    summary = capsys.readouterr().out
    assert summary  # with -o, the summary stays on stdout
    for out in ([], ["-o", "-"]):
        assert main([*argv, *out]) == 0
        captured = capsys.readouterr()
        assert captured.out == saved.read_bytes().decode()
        rows = list(csv.reader(io.StringIO(captured.out, newline="")))
        assert rows[0] == first_row
        assert rows == list(csv.reader(io.StringIO(saved.read_bytes().decode(), newline="")))
        assert captured.err == summary


def test_synth_writes_neither_output_unless_both_can_be(tmp_path):
    log = tmp_path / "x.jsonl"
    argv = ["synth", "--ponzi", "1", "--background", "20",
            "--labels", str(tmp_path / "nodir" / "l.csv"), "-o", str(log)]
    assert main(argv) == 2
    assert list(tmp_path.iterdir()) == []
    log.write_text("earlier run\n")
    assert main(argv) == 2
    assert log.read_text() == "earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["x.jsonl"]


def test_unwritable_output_names_the_target(world, tmp_path, capsys):
    target = tmp_path / "nodir" / "f.csv"
    assert main(["features", str(world / "log.jsonl"), "-o", str(target)]) == 2
    err = capsys.readouterr().err
    assert err == f"ponzi-radar: error: [Errno 2] No such file or directory: '{target}'\n"
    assert ".tmp" not in err


def test_validate_lists_negative_fees(tmp_path, capsys):
    # In log order, each with its value; a coinbase pays no fee.
    t0, t1, t2 = txid_of("nf0"), txid_of("nf1"), txid_of("nf2")
    log = tmp_path / "log.jsonl"
    log.write_text("\n".join([
        tx_line(t0, 10, coinbase=True, outputs=[("a", 10), ("b", 20)]),
        tx_line(t1, 20, inputs=[(t0, 1)], outputs=[("c", 25)]),
        tx_line(t2, 30, inputs=[(t0, 0)], outputs=[("d", 11)]),
    ]) + "\n")
    assert main(["validate", str(log)]) == 2
    assert capsys.readouterr().out == (
        "transactions: 3\n"
        "dangling references: 0\n"
        "double spends: 0\n"
        f"negative fees: 2\n  {t1}: -5\n  {t2}: -1\n"
        "ok: false\n")
