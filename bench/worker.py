"""One benchmark process: build a workload's inputs, or measure its timed path.

    python3 bench/worker.py setup CONFIG_JSON DIR [--trace]
    python3 bench/worker.py run CONFIG_JSON DIR OUT [--trace]

`setup` writes the synthetic world (log.jsonl, labels.csv and, when the
config names one, the independent dataset other.csv) into DIR. `run` runs
one round of the timed path: it drives the package's public functions in the
order of the CLI subcommands, with file handoffs: log -> clusters.csv,
features.csv, dataset.csv -> CV report -> model.json -> predictions.csv ->
rankings.csv, all written into OUT. It records the wall time of each phase
and, after its timers stop, the sha256 of every artifact it wrote. Each
process prints one JSON object on stdout; bench/run.py starts a fresh one
for every set-up and every round, so no heap carries over between them.

Every call into a package layer goes through `Probe.layer`, which counts and
times the call and scales its self time by the machine's speed (see `Probe`).
In a traced round it also records the call's wall and CPU time, the garbage
collector time and collections inside it (through `gc.callbacks`), and the
process's peak RSS when it returns. Calls nest only where each CV fold's
training sits inside `evaluate.cv`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from ponzi_radar import (  # noqa: E402
    chain,
    clustering,
    dataset as ds,
    evaluate,
    features,
    learn,
    rank,
    synth,
)

N_PONZI = 30
K_FOLDS = 10
COST = "20:1"
TREES = 100
TOP_N = 8


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB -> MB


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fp:
        for block in iter(lambda: fp.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# The fixed task that measures the machine's speed: JSON decoding and dict
# building, a numpy sort and a Python arithmetic loop, as in the pipeline. Its
# inputs are built once per process. Never change it: scaled times are only
# comparable while it stays the same.
REF_S = 0.010
SAMPLE_EVERY_S = 0.3  # a sample takes about 20 ms
_REF_LINES = [
    json.dumps({"txid": f"{i:064x}", "inputs": [{"addr": f"a{i % 997}", "value": i}],
                "outputs": [{"addr": f"b{i}", "value": 3 * i}], "time": i})
    for i in range(1000)
]
_REF_ARRAY = np.random.default_rng(0).random(20000)


def reference_task() -> float:
    """Run the fixed speed-reference task twice; return the faster wall time.

    The first run after a pipeline call often finds its data evicted from
    the caches; the second measures the machine's speed.
    """
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        by_addr: dict[str, list] = {}
        for line in _REF_LINES:
            tx = json.loads(line)
            by_addr.setdefault(tx["inputs"][0]["addr"], []).append(
                (tx["time"], tx["outputs"][0]["value"]))
        sorted(by_addr.items())
        for _ in range(2):
            _REF_ARRAY[np.argsort(_REF_ARRAY, kind="stable")].cumsum()
        acc = 0.0
        for i in range(40000):
            acc += (i % 7) * 0.5 if i & 1 else -1.0
        best = min(best, time.perf_counter() - t0)
    return best


class Probe:
    """Times the calls into package layers; in a traced round, also probes them.

    Every round records each call's self time (its wall time minus that of
    the calls nested in it) as a piece, keyed by phase and layer; calls of
    one layer in one phase add up into one piece. A traced round also
    records, per layer, the calls' wall and CPU time, the garbage collector
    time and collections inside them (through `gc.callbacks`), and the
    process's peak RSS when the call returns.

    The probe also samples the machine's speed with `reference_task` at the
    start of the round, at the end of each phase, and before any call that
    starts SAMPLE_EVERY_S or more after the last sample. It scales every
    piece to the speed at which that task takes REF_S: a piece is multiplied
    by REF_S over the mean of the two samples around it. Time spent sampling
    is left out of every piece, phase and span.
    """

    def __init__(self) -> None:
        self.traced = False
        self.calls = 0
        self.current = ""
        self.phase = ""
        self.folds = 0
        self.phases: dict[str, float] = {}
        self.pieces: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        self.rest: dict[str, float] = {}
        self.refs: list[float] = []
        self.spans: dict[str, dict[str, float]] = {}
        self._pending: dict[str, float] = {}
        self._sampling_s = 0.0
        self._sampled_at = 0.0
        self._stack: list[list] = []
        self._gc_s = 0.0
        self._gc_n = 0
        self._gc_t0 = 0.0

    def begin(self, traced: bool) -> None:
        self.traced = traced
        if traced:
            gc.callbacks.append(self._on_gc)
        self.sample_speed()

    def end(self) -> dict:
        if self.traced:
            gc.callbacks.remove(self._on_gc)
        return {"traced": self.traced, "phases": self.phases, "pieces": self.pieces,
                "scaled": self.scaled, "rest": self.rest, "refs": self.refs,
                "spans": self.spans}

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self._gc_s += time.perf_counter() - self._gc_t0
            self._gc_n += 1

    def sample_speed(self) -> None:
        """Time `reference_task`; scale the pieces recorded since the last sample."""
        t0 = time.perf_counter()
        ref = reference_task()
        if self.refs:
            scale = REF_S / ((self.refs[-1] + ref) / 2)
            for key, seconds in self._pending.items():
                self.scaled[key] = self.scaled.get(key, 0.0) + seconds * scale
        self._pending = {}
        self.refs.append(ref)
        self._sampled_at = time.perf_counter()
        self._sampling_s += self._sampled_at - t0

    @contextlib.contextmanager
    def timed(self, phase: str):
        """Time one phase of the round."""
        self.phase = phase
        start_ref, s0 = self.refs[-1], self._sampling_s
        t0 = time.perf_counter()
        yield
        wall = time.perf_counter() - t0 - (self._sampling_s - s0)
        self.sample_speed()
        self.phases[phase] = wall
        covered = sum(s for key, s in self.pieces.items() if key.startswith(phase + "/"))
        self.rest[phase] = (wall - covered) * REF_S / ((start_ref + self.refs[-1]) / 2)

    def layer(self, name: str) -> "Probe":
        self.current = name
        return self

    def __enter__(self) -> "Probe":
        self.calls += 1
        if time.perf_counter() - self._sampled_at >= SAMPLE_EVERY_S:
            self.sample_speed()
        # name, wall and CPU clocks, GC time and collections, sampling time,
        # nested calls' wall time
        self._stack.append([self.current, time.perf_counter(), time.process_time(),
                            self._gc_s, self._gc_n, self._sampling_s, 0.0])
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        name, t0, c0, g0, n0, s0, nested = self._stack.pop()
        if exc_type is not None:
            return False
        sampling = self._sampling_s - s0
        wall = time.perf_counter() - t0 - sampling
        if self._stack:
            self._stack[-1][6] += wall
        key = f"{self.phase}/{name}"
        self.pieces[key] = self.pieces.get(key, 0.0) + wall - nested
        self._pending[key] = self._pending.get(key, 0.0) + wall - nested
        if self.traced:
            span = self.spans.setdefault(
                name, {"s": 0.0, "cpu_s": 0.0, "gc_s": 0.0, "gc_n": 0, "calls": 0}
            )
            span["s"] += wall
            span["cpu_s"] += time.process_time() - c0 - sampling
            span["gc_s"] += self._gc_s - g0
            span["gc_n"] += self._gc_n - n0
            span["calls"] += 1
            span["rss_hw_mb"] = peak_rss_mb()
        return False


def time_cv_folds(probe: Probe) -> None:
    """Make each fold's training inside `evaluate.cross_validate` a call of its own.

    A CV takes seconds and its folds a tenth of that each, short enough to
    fall between the slow stretches of a shared machine, so each fold is a
    piece of its own. If `evaluate` stops calling `train_model`, or calls it
    from other threads, which the probe does not follow, the whole CV is one
    piece again.
    """
    train_model = evaluate.train_model

    def train_fold(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            return train_model(*args, **kwargs)
        with probe.layer(f"evaluate.cv.fold{probe.folds}"):
            probe.folds += 1
            return train_model(*args, **kwargs)

    evaluate.train_model = train_fold


def write_text(path: Path, write) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fp:
        write(fp)


def read_dataset(path: Path) -> ds.Dataset:
    with open(path, "r", encoding="utf-8") as fp:
        return ds.read_csv(fp)


def ponzi_cluster_map(index_of: dict[str, int], labels: dict[str, str]) -> dict[int, str]:
    """Cluster index -> scheme id, joined as the CLI's `dataset` subcommand does.

    A scheme whose seed address never appears in the log is skipped, as there.
    """
    ponzi: dict[int, str] = {}
    for addr, label in labels.items():
        ci = index_of.get(addr)
        if label == ds.LABEL_PONZI and ci is not None:
            ponzi[ci] = f"{ponzi[ci]}+{addr}" if ci in ponzi else addr
    return ponzi


def ingest(probe: Probe, log_path: Path, labels_path: Path, out: Path,
           sample: int | None, seed: int) -> dict:
    """Log file -> clusters.csv, features.csv, dataset.csv (and sample.csv).

    Returns the dataset's row count and, in a traced round, the layers' work
    counts.
    """
    with probe.timed("parse"):
        with probe.layer("chain.parse"):
            log = chain.load_tx_log(str(log_path))
            report = chain.validate_tx_log(log)
        if not report.ok:
            raise AssertionError("generated log does not validate")
    with probe.timed("cluster"):
        with probe.layer("clustering.build"):
            clusters = clustering.build_clusters(log)
        with probe.layer("clustering.write"):
            write_text(out / "clusters.csv", lambda fp: clustering.write_clusters(clusters, fp))
    with probe.timed("features"):
        with probe.layer("features.ledgers"):
            ledgers = features.build_all_ledgers(log, clusters)
        with probe.layer("features.extract"):
            table = {
                ci: features.extract_features(ledgers[ci], len(clusters.members[ci]))
                for ci in range(clusters.n_clusters)
            }
        counts = {}
        if probe.traced:
            counts = {
                "tx": len(log),
                "addresses": len(clusters.index_of),
                "clusters": clusters.n_clusters,
                "merge_tx": sum(
                    1 for tx in log.transactions
                    if not tx.coinbase and sum(i.addr is not None for i in tx.inputs) >= 2
                ),
                "events": sum(len(lg.incoming) + len(lg.outgoing) for lg in ledgers.values()),
            }
        del ledgers
        with probe.layer("dataset.write"):
            write_text(out / "features.csv", lambda fp: ds.write_features_csv(table, fp))
    with probe.timed("dataset"):
        with probe.layer("dataset.assemble"):
            with open(labels_path, "r", encoding="utf-8") as fp:
                labels = synth.read_labels(fp)
            ponzi = ponzi_cluster_map(clusters.index_of, labels)
            data = ds.assemble(table, ponzi)
        with probe.layer("dataset.write"):
            write_text(out / "dataset.csv", lambda fp: ds.write_csv(data, fp))
        if not 0 < data.n_ponzi <= N_PONZI or len(data) != clusters.n_clusters:
            raise AssertionError(f"dataset has {data.n_ponzi} P of {len(data)} rows")
        if sample is not None:
            with probe.layer("dataset.assemble"):
                keep = ds.sample_background(clusters, sample, seed, exclude=ponzi)
                subset = ds.assemble({ci: table[ci] for ci in (*ponzi, *keep)}, ponzi)
            with probe.layer("dataset.write"):
                write_text(out / "sample.csv", lambda fp: ds.write_csv(subset, fp))
    counts["dataset_rows"] = len(data)
    return counts


def write_world(probe: Probe, out: Path, config: dict, seed: int) -> None:
    params = synth.SynthParams(n_ponzi=N_PONZI, n_background=config["background"],
                               seed=seed, hard_mode=config["hard"])
    with probe.layer("synth.generate"):
        log, labels = synth.generate(params)
    with probe.layer("synth.write"):
        write_text(out / "log.jsonl", lambda fp: chain.write_tx_log(log, fp))
        write_text(out / "labels.csv", lambda fp: synth.write_labels(labels, fp))


def setup(config: dict, out: Path, probe: Probe, traced: bool) -> dict:
    """Write the inputs; `scale` is REF_S over the mean reference time around it."""
    probe.begin(traced)
    write_world(probe, out, config, config["world_seed"])
    if config.get("other"):
        # The README's `apply other.csv`: the dataset of an independent world.
        other = out / "other"
        other.mkdir()
        write_world(probe, other, config, config["world_seed"] + 1)
        ingest(probe, other / "log.jsonl", other / "labels.csv", other, None, config["seed"])
        (other / "dataset.csv").rename(out / "other.csv")
        shutil.rmtree(other)
    probe.sample_speed()
    record = probe.end()
    return {"spans": record["spans"], "scale": REF_S / statistics.mean(record["refs"]),
            "digests": {p.name: sha256_of(p) for p in sorted(out.iterdir())}}


def setting(learner: str, ratio: float, seed: int, extra: str = "") -> str:
    parts = [learner, f"t{TREES}" if learner == "forest" else "",
             f"cm{COST.replace(':', '_')}", f"r{ratio:g}", f"k{K_FOLDS}", f"seed{seed}", extra]
    return "-".join(p for p in parts if p)


def cv_rows(result, name: str, ratio: float, seed: int) -> list[tuple]:
    rows = [evaluate.report_row(setting(name, ratio, seed), result.confusion, result.metrics)]
    for i, fold in enumerate(result.folds):
        metrics = evaluate.metrics_from_confusion(fold.confusion)
        if len(set(fold.labels)) == 2:
            metrics = dataclasses.replace(metrics, auc=evaluate.roc_auc(fold.scores, fold.labels))
        rows.append(evaluate.report_row(setting(name, ratio, seed, f"fold{i}"),
                                        fold.confusion, metrics))
    return rows


def run_round(config: dict, setup_dir: Path, out: Path, probe: Probe) -> dict:
    """One pass of the timed path; garbage is collected, untimed, between stages."""
    seed = config["seed"]
    threads = config["threads"]
    cost = learn.CostMatrix.parse(COST)
    forest = learn.LearnerSpec(kind="forest", n_trees=TREES)
    learn_csv = out / ("sample.csv" if config.get("sample") else "dataset.csv")
    apply_csv = setup_dir / "other.csv" if config.get("other") else learn_csv

    gc.collect()
    counts = ingest(probe, setup_dir / "log.jsonl", setup_dir / "labels.csv", out,
                    config.get("sample"), seed)

    gc.collect()
    with probe.timed("cv"):
        with probe.layer("dataset.read"):
            data = read_dataset(learn_csv)
        rows: list[tuple] = []
        quality = None
        for name, ratio in config["cv"]:
            spec = forest if name == "forest" else learn.LearnerSpec(kind="bayes")
            with probe.layer("evaluate.cv"):
                result = evaluate.cross_validate(data, spec, cost, k=K_FOLDS, seed=seed,
                                                 sampling_ratio=ratio or None, threads=threads)
            with probe.layer("evaluate.report"):
                rows.extend(cv_rows(result, name, ratio, seed))
            if name == "forest" and quality is None:
                quality = result.metrics
        with probe.layer("evaluate.report"):
            write_text(out / "report.csv", lambda fp: evaluate.write_report_csv(rows, fp))
        del data, result

    gc.collect()
    with probe.timed("train_apply"):
        with probe.layer("dataset.read"):
            train_data = read_dataset(learn_csv)
        with probe.layer("learn.train"):
            if config.get("train_ratio"):
                train_data = learn.undersample(train_data, config["train_ratio"], seed)
            model = learn.train_model(train_data, forest, seed, threads=threads)
        with probe.layer("learn.save"):
            write_text(out / "model.json", lambda fp: learn.save_model(model, fp))
        nodes = sum(tree.n_nodes for tree in model.trees)
        del train_data, model
        with probe.layer("learn.load"):
            with open(out / "model.json", "r", encoding="utf-8") as fp:
                model = learn.load_model(fp)
        with probe.layer("dataset.read"):
            target = read_dataset(apply_csv)
        with probe.layer("evaluate.apply"):
            applied = evaluate.apply_model(model, cost, target)
        with probe.layer("evaluate.report"):
            write_text(out / "predictions.csv", lambda fp: write_predictions(applied, fp))
        apply_rows = len(target)
        del model, target, applied

    gc.collect()
    with probe.timed("rank"):
        with probe.layer("dataset.read"):
            data = read_dataset(learn_csv)
        rankings = []
        for method in rank.RANKER_NAMES:
            with probe.layer(f"rank.{method}"):
                rankings.append(rank.rank_features(data, method,
                                                   relieff_m=config.get("relieff_m"), seed=seed))
        with probe.layer("rank.consensus"):
            consensus = rank.consensus_rank(rankings, top_n=TOP_N)
        with probe.layer("rank.write"):
            write_text(out / "rankings.csv", lambda fp: write_rankings(rankings, consensus, fp))
        del data

    probe.current = "output check"
    if config.get("quality_bar"):
        recall_min, auc_min = config["quality_bar"]
        if quality.recall < recall_min or quality.auc < auc_min:
            raise AssertionError(f"forest CV recall {quality.recall} / AUC {quality.auc} "
                                 f"below {recall_min} / {auc_min}")
    check_outputs(out, counts["dataset_rows"], apply_rows, len(rows))
    counts.update(nodes=nodes, apply_rows=apply_rows, folds=K_FOLDS * len(config["cv"]))
    return {
        "counts": counts,
        "quality": {"recall": quality.recall, "gmean": quality.g_mean, "auc": quality.auc},
        "sizes": {p.name: p.stat().st_size for p in out.iterdir()},
        "digests": {p.name: sha256_of(p) for p in sorted(out.iterdir())},
    }


def write_predictions(applied, fp) -> None:
    fp.write("id,label,score,predicted\n")
    for pr in applied.predictions:
        fp.write(f"{pr.id},{pr.label},{format(pr.score, '.17g')},{pr.predicted}\n")


def write_rankings(rankings, consensus, fp) -> None:
    fp.write("method,feature,score,rank\n")
    for ranking in rankings:
        for pos, (name, score) in enumerate(ranking.entries, start=1):
            fp.write(f"{ranking.method},{name},{format(score, '.17g')},{pos}\n")
    for pos, (name, votes, _) in enumerate(consensus, start=1):
        fp.write(f"consensus,{name},{votes},{pos}\n")


def check_outputs(out: Path, dataset_rows: int, apply_rows: int, report_rows: int) -> None:
    """Shape checks that hold for every seed, on top of the digest comparison."""
    def lines(name: str) -> int:
        with open(out / name, "r", encoding="utf-8") as fp:
            return sum(1 for _ in fp)

    n_features = len(features.FEATURE_NAMES)
    expected = {
        "dataset.csv": dataset_rows + 1,
        "features.csv": dataset_rows + 1,
        "predictions.csv": apply_rows + 1,
        "report.csv": report_rows + 2,
        "rankings.csv": 1 + (len(rank.RANKER_NAMES) + 1) * n_features,
    }
    for name, want in expected.items():
        got = lines(name)
        if got != want:
            raise AssertionError(f"{name} has {got} lines, expected {want}")


def environment() -> dict:
    numpy = sys.modules["numpy"]
    umath = getattr(getattr(numpy, "_core", None), "_multiarray_umath", None)
    found = getattr(umath, "__cpu_features__", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cpu_features": sorted(name for name, ok in found.items() if ok),
    }


def main(argv: list[str]) -> int:
    command, config, directory = argv[0], json.loads(argv[1]), Path(argv[2])
    trace = "--trace" in argv
    probe = Probe()
    try:
        if command == "setup":
            result = setup(config, directory, probe, trace)
        else:
            time_cv_folds(probe)
            probe.begin(trace)
            result = run_round(config, directory, Path(argv[3]), probe)
            result.update(probe.end())
        status = 0
    except Exception:  # reported to bench/run.py, which counts the failed call
        result = {"error": traceback.format_exc(), "failed_call": probe.current}
        status = 1
    result.update(calls=probe.calls, rss_mb=peak_rss_mb(), env=environment(),
                  package=str(Path(chain.__file__).parent))
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
