"""Command-line surface: one subcommand per pipeline stage.

    synth    generate a labeled synthetic transaction log
    validate check a log for dangling refs, double spends, negative fees
    cluster  dump the multi-input clustering (optionally expand seed labels)
    features per-cluster feature table
    dataset  assemble a labeled dataset from a log plus a labels file
    train    fit a forest or bayes model and save it
    cv       stratified cross-validation report
    apply    score a dataset with a frozen model
    rank     feature relevance rankings plus the consensus table

Exit codes: 0 success, 1 usage error, 2 data error. All randomness derives
from --seed; machine-readable outputs never contain wall-clock timestamps.
A table sent to stdout (no -o, or -o -) has stdout to itself: the command's
summary goes to stderr.
Set PONZI_RADAR_LOG=debug|info|warning for logging verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import logging
import math
import os
import secrets
import sys
from typing import IO, Callable, Iterator, TypeVar

from . import chain, clustering, dataset as ds, evaluate, features, learn, rank, synth
from .csvrows import text_cells, write_rows
from .errors import DataError, PonziRadarError

logger = logging.getLogger(__name__)
T = TypeVar("T")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _summary(out: str | None) -> contextlib.redirect_stdout:
    """Where a command prints its summary: stderr while stdout carries its table."""
    return contextlib.redirect_stdout(sys.stderr if out in (None, "-") else sys.stdout)


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[IO[str]]:
    """Stdout for None or "-"; otherwise a file that appears only when complete.

    The text goes to a temp file in the target's directory, which replaces
    the target only after the last write succeeded. A failure part-way
    leaves no partial file, and any earlier file at `path` untouched.
    Devices and pipes (such as /dev/null) are written in place.
    """
    if path in (None, "-"):
        yield sys.stdout
        return
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="") as fp:
            yield fp
        return
    head, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(head, f".{name}.{secrets.token_hex(4)}.tmp")
    try:
        fp = open(tmp, "x", encoding="utf-8", newline="")  # same mode as "w" gives
    except OSError as exc:  # name the file asked for, not the temp file
        exc.filename = path
        raise
    try:
        with fp:
            yield fp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _read(path: str, read: Callable[[IO[str]], T]) -> T:
    """`read` applied to an input opened as UTF-8 text with newline="", as the
    csv module needs; "-" is stdin, which is left open.

    The log and model readers split lines in this mode as universal newlines
    would.
    """
    source = sys.stdin.fileno() if path == "-" else path
    with open(source, "r", encoding="utf-8", newline="", closefd=path != "-") as fp:
        return read(fp)


# argparse types: a bad value is a usage error, which _Parser.error exits 1 on.
def _cost_spec(text: str) -> str:
    """A valid fn:fp cost spec, kept as text for the report's setting names."""
    try:
        learn.CostMatrix.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _seed(text: str) -> int:
    """A --seed: an integer from 0 to 2**64 - 1."""
    value = _int_at_least(0)(text)
    if value >= 2**64:
        raise argparse.ArgumentTypeError(f"must be below 2**64, got {value}")
    return value


def _ratio(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (value == 0 or 1 <= value < math.inf):
        raise argparse.ArgumentTypeError(f"must be 0 (off) or at least 1, got {text}")
    return value


def _cmd_synth(args) -> int:
    params = synth.SynthParams(
        n_ponzi=args.ponzi,
        n_background=args.background,
        seed=args.seed,
        hard_mode=args.hard,
    )
    log, labels = synth.generate(params)
    # Neither output replaces its target unless both are complete.
    with _output(args.out) as out, _output(args.labels) as fp:
        chain.write_tx_log(log, out)
        synth.write_labels(labels, fp)
    logger.info("generated %d transactions, %d labeled clusters", len(log), len(labels))
    return EXIT_OK


def _cmd_validate(args) -> int:
    log = _read(args.log, chain.parse_tx_log)
    report = chain.validate_tx_log(log)
    print(f"transactions: {len(log)}")
    print(f"dangling references: {len(report.dangling)}")
    for item in report.dangling:
        print(f"  {item.txid} input {item.input_index} -> "
              f"{item.prev.txid}:{item.prev.index}")
    print(f"double spends: {len(report.double_spends)}")
    for spend in report.double_spends:
        print(f"  {spend.prev.txid}:{spend.prev.index} spent by "
              + ", ".join(spend.spenders))
    print(f"negative fees: {len(report.negative_fees)}")
    for txid, fee in report.negative_fees:
        print(f"  {txid}: {fee}")
    print(f"ok: {str(report.ok).lower()}")
    return EXIT_OK if report.ok else EXIT_DATA


def _cmd_cluster(args) -> int:
    log = _read(args.log, chain.parse_tx_log)
    seeds = _read(args.seeds, clustering.read_seeds) if args.seeds else None
    clusters = clustering.build_clusters(log)
    with _output(args.out) as out:
        clustering.write_clusters(clusters, out)
    if seeds is None:
        return EXIT_OK
    expansion = clustering.expand_seeds(clusters, seeds)
    with _summary(args.out):
        for label in sorted(expansion.by_label):
            sizes = [len(clusters.members[i]) for i in expansion.by_label[label]]
            print(f"{label}: clusters {list(expansion.by_label[label])} sizes {sizes}")
        for label, addr in expansion.unresolved:
            print(f"unresolved: {label} {addr}")
        for idx, labels in expansion.collisions:
            print(f"collision: cluster {idx} shared by {', '.join(labels)}")
    return EXIT_OK


def _cmd_features(args) -> int:
    log = _read(args.log, chain.parse_tx_log)
    clusters = clustering.build_clusters(log)
    table = features.cluster_feature_table(log, clusters)
    with _output(args.out) as out:
        ds.write_features_csv(dict(enumerate(table)), out)
    return EXIT_OK


def _ponzi_cluster_map(index_of: dict[str, int], labels: dict[str, str]) -> dict[int, str]:
    ponzi: dict[int, str] = {}
    for addr, label in labels.items():
        if label != ds.LABEL_PONZI:
            continue
        ci = index_of.get(addr)
        if ci is None:
            logger.warning("label seed address not in log: %s", addr)
            continue
        ponzi[ci] = f"{ponzi[ci]}+{addr}" if ci in ponzi else addr
    return ponzi


def _cmd_dataset(args) -> int:
    labels = _read(args.labels, synth.read_labels)
    if args.log is not None:
        log = _read(args.log, chain.parse_tx_log)
        clusters = clustering.build_clusters(log)
        table = dict(enumerate(features.cluster_feature_table(log, clusters)))
    else:
        table = _read(args.features, ds.read_features_csv)
        clusters = _read(args.clusters, clustering.read_clusters)
        if sorted(table) != list(range(clusters.n_clusters)):
            raise DataError("feature table cluster ids do not match the cluster dump")
    ponzi = _ponzi_cluster_map(clusters.index_of, labels)
    if args.sample is not None:
        keep = ds.sample_background(clusters, args.sample, args.seed, exclude=ponzi)
        table = {ci: table[ci] for ci in (*ponzi, *keep)}
    built = ds.assemble(table, ponzi)
    with _output(args.out) as out:
        ds.write_csv(built, out)
    logger.info("dataset: %d P, %d nP", built.n_ponzi, built.n_other)
    return EXIT_OK


def _learner_spec(args) -> learn.LearnerSpec:
    reweight = learn.CostMatrix.parse(args.reweight_cost) if args.reweight_cost else None
    return learn.LearnerSpec(kind=args.learner, n_trees=args.trees, reweight=reweight)


def _cmd_train(args) -> int:
    data = _read(args.dataset, ds.read_csv)
    model = learn.train_model(data, _learner_spec(args), args.seed)
    with _output(args.out) as out:
        learn.save_model(model, out)
    return EXIT_OK


def _setting(args, extra: str = "") -> str:
    parts = [
        args.learner,
        f"t{args.trees}" if args.learner == "forest" else "",
        f"cm{args.cost.replace(':', '_')}",
        f"r{args.ratio:g}",
        f"k{args.k}",
        f"seed{args.seed}",
        extra,
    ]
    return "-".join(p for p in parts if p)


def _cmd_cv(args) -> int:
    data = _read(args.dataset, ds.read_csv)
    cost = learn.CostMatrix.parse(args.cost)
    result = evaluate.cross_validate(
        data,
        _learner_spec(args),
        cost,
        k=args.k,
        seed=args.seed,
        sampling_ratio=args.ratio if args.ratio else None,
    )
    rows = [evaluate.report_row(_setting(args), result.confusion, result.metrics)]
    for i, fold in enumerate(result.folds):
        fold_metrics = evaluate.metrics_with_auc(fold.confusion, fold.scores, fold.labels)
        rows.append(evaluate.report_row(
            _setting(args, f"fold{i}"), fold.confusion, fold_metrics))
    with _output(args.out) as out:
        evaluate.write_report_csv(rows, out)
    with _summary(args.out):
        print(evaluate.format_report_table(rows[:1]))
    return EXIT_OK


def _cmd_apply(args) -> int:
    model = _read(args.model, learn.load_model)
    data = _read(args.dataset, ds.read_csv)
    cost = learn.CostMatrix.parse(args.cost)
    result = evaluate.apply_model(model, cost, data)
    ids = text_cells(pr.id for pr in result.predictions)
    with _output(args.out) as out:
        write_rows(out, ("id", "label", "score", "predicted"), "%s,%s,%.17g,%s\n",
                   ((id_, pr.label, pr.score, pr.predicted)
                    for id_, pr in zip(ids, result.predictions)))
    cm = result.confusion
    with _summary(args.out):
        print(f"tp={cm.tp} fn={cm.fn} fp={cm.fp} tn={cm.tn}")
        if result.metrics is not None:
            row = evaluate.report_row(f"apply-cm{args.cost.replace(':', '_')}",
                                      cm, result.metrics)
            print(evaluate.format_report_table([row]))
    return EXIT_OK


def _cmd_rank(args) -> int:
    data = _read(args.dataset, ds.read_csv)
    rankings = [
        rank.rank_features(data, method, bins=args.bins, relieff_k=args.relieff_k)
        for method in rank.RANKER_NAMES
    ]
    consensus = rank.consensus_rank(rankings, top_n=args.top)
    # Method and feature names are fixed identifiers: no cell needs quoting.
    rows = [(ranking.method, name, format(score, ".17g"), pos)
            for ranking in rankings
            for pos, (name, score) in enumerate(ranking.entries, start=1)]
    rows += [("consensus", name, votes, pos)
             for pos, (name, votes, _) in enumerate(consensus, start=1)]
    with _output(args.out) as out:
        write_rows(out, ("method", "feature", "score", "rank"), "%s,%s,%s,%d\n", rows)
    with _summary(args.out):
        print(f"consensus (top {args.top} occurrences across {len(rankings)} rankings):")
        for name, votes, mean_rank in consensus[: args.top]:
            print(f"  {name}: in top-{args.top} of {votes}/{len(rankings)}, "
                  f"mean rank {mean_rank:.1f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ponzi-radar", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic log")
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--ponzi", type=_int_at_least(0), default=30)
    p.add_argument("--background", type=_int_at_least(0), default=6000)
    p.add_argument("--hard", action="store_true", help="overlap the class distributions")
    p.add_argument("--labels", default="labels.csv", help="labels output path")
    p.add_argument("-o", "--out", default=None, help="log output path (default stdout)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("validate", help="validate a transaction log")
    p.add_argument("log")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("cluster", help="multi-input address clustering")
    p.add_argument("log")
    p.add_argument("--seeds", default=None, help="label,address CSV to expand")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("features", help="per-cluster feature table")
    p.add_argument("log")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("dataset", help="assemble a labeled dataset")
    p.add_argument("--log", default=None, help="transaction log path")
    p.add_argument("--features", default=None, help="precomputed feature table")
    p.add_argument("--clusters", default=None, help="cluster dump for --features")
    p.add_argument("--labels", required=True)
    p.add_argument("--sample", type=_int_at_least(0), default=None,
                   help="subsample this many background clusters")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_dataset)

    learner = argparse.ArgumentParser(add_help=False)  # what train and cv share
    learner.add_argument("dataset")
    learner.add_argument("--learner", choices=["forest", "bayes"], default="forest")
    learner.add_argument("--trees", type=_int_at_least(1), default=100)
    learner.add_argument("--reweight-cost", type=_cost_spec, default=None,
                         help="fn:fp, train with cost-proportional instance weights")
    learner.add_argument("--seed", type=_seed, default=0)
    learner.add_argument("-o", "--out", default=None)

    p = sub.add_parser("train", parents=[learner], help="train and save a model")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("cv", parents=[learner], help="stratified k-fold cross-validation")
    p.add_argument("--cost", type=_cost_spec, default="1:1",
                   help="false-negative:false-positive costs")
    p.add_argument("--ratio", type=_ratio, default=0,
                   help="undersampling ratio for training folds (0 = off)")
    p.add_argument("--k", type=_int_at_least(2), default=10)
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser("apply", help="apply a frozen model to a dataset")
    p.add_argument("dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--cost", type=_cost_spec, default="1:1")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("rank", help="feature relevance rankings")
    p.add_argument("dataset")
    p.add_argument("--bins", type=_int_at_least(2), default=10)
    p.add_argument("--top", type=_int_at_least(1), default=8)
    p.add_argument("--relieff-k", type=_int_at_least(1), default=10)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_rank)

    return parser


def _check_dataset_sources(parser: argparse.ArgumentParser, args) -> None:
    """`dataset` reads --log, or --features with --clusters: never both, never neither."""
    pair = (args.features, args.clusters)
    if args.log is not None and pair != (None, None):
        parser.error("dataset takes --log or --features/--clusters, not both")
    if args.log is None and None in pair:
        parser.error("dataset needs --log, or both --features and --clusters")


def _configure_logging() -> None:
    level = os.environ.get("PONZI_RADAR_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "dataset":
        _check_dataset_sources(parser, args)
    try:
        return args.func(args)
    except (PonziRadarError, OSError, ValueError, csv.Error) as exc:
        print(f"ponzi-radar: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
