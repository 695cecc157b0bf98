"""ponzi-radar benchmark.

    python3 bench/run.py --workload detect-6k --seed 42 --seconds 35 --trace 0

Run from the root of a source checkout: the package is imported from
`src/`, never from an installed copy. Each run

1. builds the workload's synthetic world N_SETUPS times, each in a fresh
   process (`setup_s` is their median wall time; the copies must be
   byte-identical), and keeps the first copy as input;
2. runs the timed path (bench/worker.py) in rounds, each in a fresh process,
   until --seconds have passed and at least MIN_ROUNDS times, timing the
   pieces of every round; each time metric is built from the pieces' fastest
   rounds; with --trace 1 traced and untraced rounds alternate, and
   `trace.overhead_s` compares the two kinds;
3. checks every artifact's sha256 against the digest recorded in
   bench/digests.json for this workload and seed, and, for every seed, against
   the first copy of the run: set-ups, untraced and traced rounds alike;
4. prints the environment as one JSON line, then the result as the last line:
   end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

The full record of the run (environment, every round, every span) goes to
.bench_results/. `--record` stores this run's digests in bench/digests.json.
See bench/README.md for why each workload exists and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"

N_SETUPS = 3  # setup_s is their median
MIN_ROUNDS = 2
# The synth seed of every workload's world (other.csv: WORLD_SEED + 1). The
# worlds are fixed so that a run's work does not depend on --seed: across synth
# seeds the forests' size, and with it CV and train time, varies by +-30 %.
# --seed sets the rest: CV folds, bootstraps, feature subsets, undersampling,
# the ingest-12k sample and ReliefF's sample. To confirm an ingest claim on
# another world, change this constant on both commits.
WORLD_SEED = 42
DEADLINE_S = 170  # a run must end within 180 s

# background: users beside the 30 schemes; hard: `synth --hard`; other: apply
# the model to the dataset of the independent world WORLD_SEED + 1; sample:
# background clusters kept in the dataset that CV, train, apply and rank use
# (the full dataset is still written); cv: (learner, undersampling
# ratio) per CV, the first is the forest whose aggregate row gives cv_recall,
# cv_gmean and cv_auc; train_ratio: undersample before `train`; relieff_m:
# ReliefF sample size (None = every instance); quality_bar: minimum forest CV
# recall and AUC.
WORKLOADS = {
    "ingest-12k": {"background": 12000, "hard": False, "sample": 500,
                   "cv": [["forest", 0]]},
    # ReliefF samples 1 000 of the 6 030 instances and compares each with all
    # of them: with every instance sampled, one call takes 6-8 s, and too few
    # rounds of that fit in a run for its fastest round to be steady.
    "detect-6k": {"background": 6000, "hard": False, "other": True,
                  "cv": [["forest", 0]], "relieff_m": 1000, "quality_bar": [0.90, 0.95]},
    # Not in BENCHMARK.json: run by hand to check a claim on tiny undersampled
    # folds, the Bayes path or a dense log.
    "hard-6k-us": {"background": 6000, "hard": True, "cv": [["forest", 1], ["bayes", 0]],
                   "train_ratio": 1, "relieff_m": 600},
    # Not in BENCHMARK.json: the tiny world that bench/smoke.py runs.
    "smoke": {"background": 300, "hard": False, "sample": 100, "other": True,
              "cv": [["forest", 0], ["bayes", 0]], "train_ratio": 1, "relieff_m": 50},
}

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ingest_tx_per_s": "tx/s",
    "cv_s": "s", "train_apply_s": "s", "rank_s": "s", "cv_recall": "share",
    "cv_gmean": "share", "cv_auc": "share", "ops_ok_share": "share",
}
# The phases of a round that bench/worker.py times; the first four are the
# ingest path, log file -> dataset.csv.
INGEST_PHASES = ("parse", "cluster", "features", "dataset")
PHASES = (*INGEST_PHASES, "cv", "train_apply", "rank")
RANKERS = ("info_gain", "gain_ratio", "sym_uncertainty", "one_r", "relieff", "consensus")


def call_worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run bench/worker.py in a fresh interpreter; return its JSON and wall time."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT,
            stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        return {"error": "timed out", "calls": 1}, time.perf_counter() - t0
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": f"worker exited {proc.returncode} without a result", "calls": 1}
    if proc.returncode != 0 and "error" not in result:
        result["error"] = f"worker exited {proc.returncode}"
    return result, wall


class Ledger:
    """Calls attempted and failed, and the digest each artifact must have."""

    def __init__(self, recorded: dict[str, str]):
        self.attempted = 0
        self.failed = 0
        self.expected = dict(recorded)
        self.errors: list[str] = []

    def count(self, result: dict, what: str) -> bool:
        self.attempted += result.get("calls", 1)
        if "error" in result:
            self.failed += 1
            self.errors.append(f"{what}: {result.get('failed_call', '')}: {result['error']}")
            return False
        for name, digest in result["digests"].items():
            want = self.expected.setdefault(name, digest)
            if digest != want:
                self.failed += 1
                self.errors.append(f"{what}: {name} digest {digest[:12]} != {want[:12]}")
        return True


def fastest(rounds: list[dict]) -> dict[str, float]:
    """Each phase's time, built from the fastest round of each of its pieces.

    A piece is the self time of the calls into one layer, or one CV fold's
    training; the rest of the phase is one more piece. bench/worker.py scales
    every piece to the speed at which its reference task takes REF_S. The
    shared virtual machines this benchmark was tuned on run at half to two
    thirds of full speed for stretches of seconds to minutes, and faster for
    moments in between: scaling takes out most of a slow stretch, and the
    fastest round of each piece most of what is left.
    """
    best = {}
    for phase in PHASES:
        keys = [key for key in rounds[0]["scaled"] if key.startswith(phase + "/")]
        best[phase] = (min(r["rest"][phase] for r in rounds)
                       + sum(min(r["scaled"][key] for r in rounds) for key in keys))
    return best


def layer_metrics(rnd: dict, tx: int, log_bytes: int) -> dict[str, tuple[float, str]]:
    spans, counts, sizes = rnd["spans"], rnd["counts"], rnd["sizes"]

    def s(name: str, key: str = "s") -> float:
        return spans[name][key]

    parse_s = s("chain.parse")
    m = {
        "chain.parse_s": (parse_s, "s"),
        "chain.us_per_tx": (parse_s / tx * 1e6, "us"),
        "chain.tx": (counts["tx"], "count"),
        "chain.log_mb": (log_bytes / 1e6, "MB"),
        "chain.gc_s": (s("chain.parse", "gc_s"), "s"),
        "chain.gc_collections": (s("chain.parse", "gc_n"), "count"),
        "chain.rss_hw_mb": (s("chain.parse", "rss_hw_mb"), "MB"),
        "clustering.build_s": (s("clustering.build"), "s"),
        "clustering.write_s": (s("clustering.write"), "s"),
        "clustering.addresses": (counts["addresses"], "count"),
        "clustering.clusters": (counts["clusters"], "count"),
        "clustering.merge_tx": (counts["merge_tx"], "count"),
        "features.ledgers_s": (s("features.ledgers"), "s"),
        "features.extract_s": (s("features.extract"), "s"),
        "features.events": (counts["events"], "count"),
        "features.gc_s": (s("features.ledgers", "gc_s") + s("features.extract", "gc_s"), "s"),
        "features.rss_hw_mb": (s("features.extract", "rss_hw_mb"), "MB"),
        "dataset.assemble_s": (s("dataset.assemble"), "s"),
        "dataset.write_s": (s("dataset.write"), "s"),
        "dataset.read_s": (s("dataset.read"), "s"),
        "dataset.rows": (counts["dataset_rows"], "count"),
        "dataset.csv_mb": (sizes["dataset.csv"] / 1e6, "MB"),
        "learn.train_s": (s("learn.train"), "s"),
        "learn.train_cpu_s": (s("learn.train", "cpu_s"), "s"),
        "learn.nodes": (counts["nodes"], "count"),
        "learn.save_s": (s("learn.save"), "s"),
        "learn.load_s": (s("learn.load"), "s"),
        "learn.model_mb": (sizes["model.json"] / 1e6, "MB"),
        "evaluate.cv_s": (s("evaluate.cv"), "s"),
        "evaluate.cv_cpu_s": (s("evaluate.cv", "cpu_s"), "s"),
        "evaluate.folds": (counts["folds"], "count"),
        "evaluate.apply_s": (s("evaluate.apply"), "s"),
        "evaluate.apply_rows": (counts["apply_rows"], "count"),
        "trace.uncovered_s": (sum(rnd["phases"].values()) - sum(rnd["pieces"].values()), "s"),
    }
    for name in RANKERS:
        m[f"rank.{name}_s"] = (s(f"rank.{name}"), "s")
    return m


def environment(worker_env: dict, threads: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "threads": threads,
        **worker_env,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's artifact digests in bench/digests.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ponzi_radar" / "__init__.py").is_file():
        print(f"bench: no ponzi_radar sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    threads = min(2, os.cpu_count() or 1)
    config = dict(WORKLOADS[args.workload], seed=args.seed, world_seed=WORLD_SEED,
                  threads=threads)
    config_json = json.dumps(config)
    trace_flag = ["--trace"] if args.trace else []
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    ledger = Ledger(recorded.get(args.workload, {}).get(str(args.seed), {}))
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setups = []
        for i in range(N_SETUPS):
            (work / f"setup{i}").mkdir()
            result, wall = call_worker(["setup", config_json, str(work / f"setup{i}"),
                                        *trace_flag], deadline)
            if not ledger.count(result, f"setup {i}"):
                print("\n".join(ledger.errors), file=sys.stderr)
                return 1
            setups.append((result, wall))
        for i in range(1, N_SETUPS):
            shutil.rmtree(work / f"setup{i}")
        inputs = work / "setup0"
        log_bytes = (inputs / "log.jsonl").stat().st_size
        with open(inputs / "log.jsonl", "rb") as fp:
            tx = sum(1 for _ in fp)
        (work / "out").mkdir()
        rounds: list[dict] = []
        t_loop = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - t_loop < args.seconds:
            # Traced runs alternate the two kinds; each pair swaps which goes first.
            i = len(rounds)
            traced_round = args.trace and (i % 2 == 1) != (i // 2 % 2 == 1)
            result, wall = call_worker(["run", config_json, str(inputs), str(work / "out"),
                                        *(["--trace"] if traced_round else [])], deadline)
            if not ledger.count(result, f"round {i}"):
                break
            rounds.append(result)
            if time.perf_counter() + wall > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((ROOT / ".bench_work").iterdir()):
            (ROOT / ".bench_work").rmdir()

    if ledger.errors:
        print("\n".join(ledger.errors), file=sys.stderr)
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    if not plain or (args.trace and not traced):
        return 1

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        per_round = [layer_metrics(r, tx, log_bytes) for r in traced]
        for name, (_, unit) in per_round[0].items():
            metrics[name] = (min(m[name][0] for m in per_round), unit)
        for key in ("generate", "write"):
            metrics[f"synth.{key}_s"] = (
                statistics.median(res["spans"][f"synth.{key}"]["s"] for res, _ in setups), "s")
        metrics["trace.overhead_s"] = (sum(fastest(traced).values())
                                       - sum(fastest(plain).values()), "s")
    else:
        best = fastest(plain)
        quality = plain[0]["quality"]
        values = {
            "setup_s": statistics.median(wall * res["scale"] for res, wall in setups),
            "wall_s": sum(best.values()),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
            "ingest_tx_per_s": tx / sum(best[name] for name in INGEST_PHASES),
            "cv_s": best["cv"],
            "train_apply_s": best["train_apply"],
            "rank_s": best["rank"],
            "cv_recall": quality["recall"],
            "cv_gmean": quality["gmean"],
            "cv_auc": quality["auc"],
            "ops_ok_share": 1.0 - ledger.failed / ledger.attempted,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    env = environment(setups[0][0]["env"], threads)
    # The machine's speed over the run: the reference task's median time.
    env["ref_ms"] = statistics.median(ref for r in rounds for ref in r["refs"]) * 1e3
    digests = dict(ledger.expected)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "digests": digests, "errors": ledger.errors,
        "setup_walls": [wall for _, wall in setups], "setups": [res for res, _ in setups],
        "rounds": rounds,
    }
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1))
    if args.record and not ledger.failed:
        recorded.setdefault(args.workload, {})[str(args.seed)] = dict(sorted(digests.items()))
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
