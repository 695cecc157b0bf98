"""Golden digests: every CLI artifact of a small synthetic world, byte for byte.

The pipeline runs in-process through `cli.main`, stage by stage with file
handoffs, and the sha256 of each artifact is compared with the digest
recorded below. What each command prints is compared too, stdout and stderr
as the CLI splits them. A change that alters any artifact or summary, even in
the last bit of a score, fails here; a change that means to do so records the
new digests and text and says why.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ponzi_radar.cli import main

GOLDEN = {
    "log.jsonl": "b796cd386daa3ed5d2db00d156f771dad38e1990bdd93d1a6d12c724151beb40",
    "labels.csv": "132d18d47c31f87ea8ea283278fe3952dd3617839426a55902062cc572620587",
    "hard_log.jsonl": "ef19ec691d120d46bec476fb93e0e6e9d62996d0217c06fd32d4c1e64f3ad6d7",
    "hard_labels.csv": "132d18d47c31f87ea8ea283278fe3952dd3617839426a55902062cc572620587",
    "clusters.csv": "cb3befc5df42f1ab3cd7e84e426b465bbc355646df8f333d9fc76b867a634c5b",
    "features.csv": "1f00010bdca3d7778e08e454cdf37a1278def5803f53bc45f32afe19169b840f",
    "dataset.csv": "4b9c43045e107d518c7332335f2c83e834e0327c3e7e09b1a999f527d621d1ca",
    "sample_log.csv": "edd523042d325beaef8619c2fe1775a82cc28f5452ee5fe1be6d1b78c9fcb1e9",
    "sample.csv": "edd523042d325beaef8619c2fe1775a82cc28f5452ee5fe1be6d1b78c9fcb1e9",
    "cv_forest.csv": "50c5b9ec3cb9e956c22a9b03127a0c823a594562de736c3a7eb5378bc5d28617",
    "cv_forest_ratio.csv": "14d18d5db1697a96962e95ef3734bd89253f9c350411c91ed2a5e0d43f353661",
    "cv_bayes_ratio.csv": "943e0d3eb1c9e852c95c45b746a229aefd1d61cc305bd1a2918e95ad8fe10485",
    "model.json": "d8a1cb739baf64992d624554fd6316c65a9d5641edc4f998e8aa7d0446c24f39",
    "predictions.csv": "b289031dfc9d69ca4771e5be38e55f3524ca2110f8191a374d6ffc6f49d96869",
    "model_bayes.json": "247e6bbb53da031f665189226fbb33a522137b86a05b717e2ce5f76a8561d779",
    "predictions_bayes.csv": "4817bb1959b6866ae8ec1012b547d086e758c513b7aef8abdc707454178a7880",
    "rankings.csv": "baf4164db03445385a0281286000a9df64749244fd83c7e25de465f8a95312c9",
}

# What each command of the run below prints, as (stdout, stderr): a stage under
# the artifact it writes, `validate` under its name. The rest print nothing.
SUMMARIES = {
    "validate": (
        "transactions: 1347\n"
        "dangling references: 0\n"
        "double spends: 0\n"
        "negative fees: 0\n"
        "ok: true\n",
        ""),
    "cv_forest.csv": (
        "setting                        tp  fn  fp  tn   accuracy  "
        "recall  specificity  precision  f      gmean  auc\n"
        "forest-t20-cm20_1-r0-k5-seed1  10  0   3   297  0.990     "
        "1.000   0.990        0.769      0.870  0.995  1.000\n",
        ""),
    "cv_forest_ratio.csv": (
        "setting                        tp  fn  fp  tn   accuracy  "
        "recall  specificity  precision  f      gmean  auc\n"
        "forest-t20-cm20_1-r3-k5-seed2  10  0   70  230  0.774     "
        "1.000   0.767        0.125      0.222  0.876  1.000\n",
        ""),
    "cv_bayes_ratio.csv": (
        "setting                   tp  fn  fp  tn   accuracy  recall  "
        "specificity  precision  f      gmean  auc\n"
        "bayes-cm10_1-r2-k4-seed3  10  0   1   299  0.997     1.000   "
        "0.997        0.909      0.952  0.998  0.998\n",
        ""),
    "predictions.csv": (
        "tp=10 fn=0 fp=14 tn=286\n"
        "setting       tp  fn  fp  tn   accuracy  recall  specificity  "
        "precision  f      gmean  auc\n"
        "apply-cm20_1  10  0   14  286  0.955     1.000   0.953        "
        "0.417      0.588  0.976  1.000\n",
        ""),
    "predictions_bayes.csv": (
        "tp=10 fn=0 fp=0 tn=100\n"
        "setting      tp  fn  fp  tn   accuracy  recall  specificity  "
        "precision  f      gmean  auc\n"
        "apply-cm5_1  10  0   0   100  1.000     1.000   1.000        "
        "1.000      1.000  1.000  1.000\n",
        ""),
    "rankings.csv": (
        "consensus (top 8 occurrences across 5 rankings):\n"
        "  max_daily_tx: in top-8 of 5/5, mean rank 1.6\n"
        "  activity_days: in top-8 of 5/5, mean rank 4.8\n"
        "  sum_in: in top-8 of 5/5, mean rank 6.8\n"
        "  paid_back_addrs: in top-8 of 4/5, mean rank 4.8\n"
        "  delay_min: in top-8 of 4/5, mean rank 5.8\n"
        "  sum_out: in top-8 of 4/5, mean rank 7.0\n"
        "  count_out: in top-8 of 3/5, mean rank 5.8\n"
        "  count_in: in top-8 of 3/5, mean rank 7.4\n",
        ""),
}

STAGES = [
    ("clusters.csv", ["cluster", "{log}"]),
    ("features.csv", ["features", "{log}"]),
    ("dataset.csv", ["dataset", "--log", "{log}", "--labels", "{labels}"]),
    ("sample_log.csv", ["dataset", "--log", "{log}", "--labels", "{labels}",
                        "--sample", "100", "--seed", "5"]),
    ("sample.csv", ["dataset", "--features", "{dir}/features.csv",
                    "--clusters", "{dir}/clusters.csv", "--labels", "{labels}",
                    "--sample", "100", "--seed", "5"]),
    ("cv_forest.csv", ["cv", "{dir}/dataset.csv", "--trees", "20", "--cost", "20:1",
                       "--k", "5", "--seed", "1"]),
    ("cv_forest_ratio.csv", ["cv", "{dir}/dataset.csv", "--trees", "20", "--cost", "20:1",
                             "--ratio", "3", "--k", "5", "--seed", "2"]),
    ("cv_bayes_ratio.csv", ["cv", "{dir}/dataset.csv", "--learner", "bayes",
                            "--cost", "10:1", "--ratio", "2", "--k", "4", "--seed", "3"]),
    ("model.json", ["train", "{dir}/sample.csv", "--trees", "20", "--seed", "4"]),
    ("predictions.csv", ["apply", "{dir}/dataset.csv", "--model", "{dir}/model.json",
                         "--cost", "20:1"]),
    ("model_bayes.json", ["train", "{dir}/dataset.csv", "--learner", "bayes"]),
    ("predictions_bayes.csv", ["apply", "{dir}/sample.csv", "--model", "{dir}/model_bayes.json",
                               "--cost", "5:1"]),
    ("rankings.csv", ["rank", "{dir}/dataset.csv"]),
]


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """Every stage run once: (artifact name -> digest, command -> (stdout, stderr))."""
    root = tmp_path_factory.mktemp("golden")
    log, labels = root / "log.jsonl", root / "labels.csv"
    hard_log, hard_labels = root / "hard_log.jsonl", root / "hard_labels.csv"
    printed = {}

    def run(key, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert main(argv) == 0, key
        printed[key] = (out.getvalue(), err.getvalue())

    world = ["synth", "--seed", "21", "--ponzi", "10", "--background", "300"]
    run("synth", [*world, "--labels", str(labels), "-o", str(log)])
    run("synth --hard", [*world, "--hard", "--labels", str(hard_labels), "-o", str(hard_log)])
    run("validate", ["validate", str(log)])
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (log, labels, hard_log, hard_labels)}
    for name, argv in STAGES:
        argv = [a.format(log=log, labels=labels, dir=root) for a in argv]
        run(name, [*argv, "-o", str(root / name)])
        digests[name] = hashlib.sha256((root / name).read_bytes()).hexdigest()
    run("rank to stdout", ["rank", str(root / "dataset.csv")])
    return digests, printed


@pytest.fixture(scope="module")
def artifacts(golden_run):
    return golden_run[0]


@pytest.mark.parametrize("name", list(GOLDEN))
def test_artifact_digest(artifacts, name):
    assert artifacts[name] == GOLDEN[name]


def test_both_dataset_paths_sample_alike(artifacts):
    assert artifacts["sample_log.csv"] == artifacts["sample.csv"]


@pytest.mark.parametrize("command", ["synth", "synth --hard", "validate",
                                     *(name for name, _ in STAGES)])
def test_printed_summary(golden_run, command):
    assert golden_run[1][command] == SUMMARIES.get(command, ("", ""))


def test_rank_summary_goes_to_stderr_when_the_table_goes_to_stdout(golden_run):
    table, summary = golden_run[1]["rank to stdout"]
    assert hashlib.sha256(table.encode()).hexdigest() == GOLDEN["rankings.csv"]
    assert summary == SUMMARIES["rankings.csv"][0]
