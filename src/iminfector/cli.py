"""Command-line pipeline: split, train, rank, seed, evaluate, and friends.

Every run writes a JSON manifest recording parameters, input digests and
wall times, so a run can be reproduced from its artifacts alone. Exit
codes: 0 success, 2 usage, 3 input format, 4 numeric failure during
training, 5 degenerate data.
"""

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .cascades import (
    derive_edges,
    initiator_stats,
    load_cascades,
    load_edges,
    save_cascades,
    save_edges,
    temporal_split,
)
from .context import build_training_stream, dump_pairs
from .diffusion import build_matrix, compute_budgets, load_matrix, save_matrix
from .evaluation import avg_size_ranking, dni, kcore_ranking
from .exceptions import (
    CascadeFormatError,
    CorruptFile,
    FormatVersionMismatch,
    NonFiniteUpdate,
)
from .model import (
    ModelConfig,
    init_model,
    load_embeddings,
    save_embeddings,
    train,
)
from .seeding import load_seed_ids, save_seeds, select_seeds_celf
from .synth import generate_corpus


class UsageError(Exception):
    pass


def _require_file(path, flag):
    if not os.path.isfile(path):
        raise UsageError(f"{flag}: file not found: {path}")


def _require(condition, message):
    if not condition:
        raise UsageError(message)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path, subcommand, params, inputs, outputs, wall_times, extra=None):
    doc = {
        "tool": "iminfector",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": params,
        "inputs": {flag: {"path": p, "sha256": _sha256(p)} for flag, p in inputs.items()},
        "outputs": outputs,
        "wall_times": wall_times,
    }
    if extra:
        doc.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _params(args):
    skip = {"func", "manifest"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _manifest_path(args, primary_out):
    return args.manifest if args.manifest else primary_out + ".manifest.json"


def _write_result(path, seed_ids, result):
    """Cumulative DNI per seed prefix, one row per seed line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rank\tnode_id\tnew_nodes\tcumulative_dni\n")
        cumulative = 0
        reported = set()
        for rank, seed in enumerate(seed_ids, start=1):
            added = 0 if seed in reported else result.per_seed_contribution[seed]
            reported.add(seed)
            cumulative += added
            fh.write(f"{rank}\t{seed}\t{added}\t{cumulative}\n")


def cmd_synth(args):
    _require(args.nodes >= 20, "--nodes must be at least 20")
    _require(args.cascades >= 10, "--cascades must be at least 10")
    _require(args.planted >= 1, "--planted must be at least 1")
    _require(args.lures >= 0, "--lures must be non-negative")
    t0 = time.perf_counter()
    rng = np.random.default_rng(args.rng_seed)
    corpus = generate_corpus(
        rng,
        n_nodes=args.nodes,
        n_cascades=args.cascades,
        n_planted=args.planted,
        n_lures=args.lures,
    )
    save_cascades(corpus, args.out)
    outputs = [args.out]
    if args.edges_out:
        save_edges(derive_edges(corpus), args.edges_out)
        outputs.append(args.edges_out)
    _write_manifest(
        _manifest_path(args, args.out),
        "synth",
        _params(args),
        {},
        outputs,
        {"synth": time.perf_counter() - t0},
        extra={"n_nodes": corpus.n_nodes, "n_cascades": corpus.n_cascades},
    )
    return 0


def cmd_split(args):
    _require_file(args.cascades, "--cascades")
    _require(0.0 < args.train_frac < 1.0, "--train-frac must be in (0, 1)")
    t0 = time.perf_counter()
    corpus = load_cascades(args.cascades)
    train_corpus, test_corpus = temporal_split(corpus, args.train_frac)
    save_cascades(train_corpus, args.train_out)
    save_cascades(test_corpus, args.test_out)
    _write_manifest(
        _manifest_path(args, args.train_out),
        "split",
        _params(args),
        {"--cascades": args.cascades},
        [args.train_out, args.test_out],
        {"split": time.perf_counter() - t0},
        extra={
            "n_train": train_corpus.n_cascades,
            "n_test": test_corpus.n_cascades,
        },
    )
    return 0


def cmd_stats(args):
    _require_file(args.train, "--train")
    _require_file(args.test, "--test")
    t0 = time.perf_counter()
    train_corpus = load_cascades(args.train)
    test_corpus = load_cascades(args.test)
    stats = initiator_stats(train_corpus, test_corpus)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(
            "node_id\ttrain_started\ttrain_participated\t"
            "test_started\ttest_total_size\ttest_dni\n"
        )
        for node in sorted(stats):
            r = stats[node]
            fh.write(
                f"{node}\t{r.cascades_started}\t{r.cascades_participated}\t"
                f"{r.test_count}\t{r.test_total_size}\t{r.test_dni}\n"
            )
    _write_manifest(
        _manifest_path(args, args.out),
        "stats",
        _params(args),
        {"--train": args.train, "--test": args.test},
        [args.out],
        {"stats": time.perf_counter() - t0},
    )
    return 0


def _train_model(corpus, args, keep_first_stream=False):
    """Train on ``corpus``; returns (model, report, epoch 0's stream or None)."""
    config = ModelConfig(
        embed_dim=args.embed_dim,
        learning_rate=args.lr,
        epochs=args.epochs,
        rng_seed=args.rng_seed,
    )
    model = init_model(
        config,
        corpus.n_influencers,
        corpus.n_nodes,
        influencer_ids=corpus.influencer_ids(),
        node_ids=corpus.node_ids(),
    )

    first_stream = None

    def stream_producer(epoch):
        nonlocal first_stream
        stream = build_training_stream(corpus, args.oversample, args.rng_seed + epoch)
        if epoch == 0 and keep_first_stream:
            first_stream = stream
        return stream

    model, report = train(model, stream_producer, config)
    return model, report, first_stream


def _validate_train_flags(args):
    _require(args.embed_dim >= 1, "--embed-dim must be at least 1")
    _require(args.epochs >= 1, "--epochs must be at least 1")
    _require(args.lr >= 0.0, "--lr must be non-negative")
    _require(args.oversample > 0.0, "--oversample must be positive")


def cmd_train(args):
    _require_file(args.cascades, "--cascades")
    _validate_train_flags(args)
    t0 = time.perf_counter()
    corpus = load_cascades(args.cascades)
    model, report, first_stream = _train_model(corpus, args, bool(args.dump_pairs))
    save_embeddings(model, args.out)
    outputs = [args.out]
    if args.dump_pairs:
        dump_pairs(first_stream, args.dump_pairs)
        outputs.append(args.dump_pairs)
    _write_manifest(
        _manifest_path(args, args.out),
        "train",
        _params(args),
        {"--cascades": args.cascades},
        outputs,
        {"train": time.perf_counter() - t0},
        extra={
            "epoch_loss_classify": report.classify_loss,
            "epoch_loss_regress": report.regress_loss,
            "epoch_classify_steps": report.classify_steps,
            "epoch_regress_steps": report.regress_steps,
            "epoch_seconds": report.epoch_seconds,
        },
    )
    return 0


def cmd_rank(args):
    _require_file(args.model, "--model")
    _require(0.0 < args.prune_percent <= 100.0, "--prune-percent must be in (0, 100]")
    t0 = time.perf_counter()
    model = load_embeddings(args.model)
    # without them candidates would be named by row number, which a later
    # evaluate would read as node ids
    if model.influencer_ids is None:
        raise CorruptFile(f"{args.model}: no id tables (cut short, or saved without ids)")
    matrix = build_matrix(model, args.prune_percent)
    budgets = compute_budgets(matrix, model.n_nodes)
    save_matrix(matrix, budgets, args.out)
    _write_manifest(
        _manifest_path(args, args.out),
        "rank",
        _params(args),
        {"--model": args.model},
        [args.out],
        {"rank": time.perf_counter() - t0},
        extra={"n_candidates": matrix.n_candidates},
    )
    return 0


def cmd_seed(args):
    _require_file(args.dmatrix, "--dmatrix")
    _require(args.size >= 1, "--size must be at least 1")
    t0 = time.perf_counter()
    matrix, budgets = load_matrix(args.dmatrix)
    selection = select_seeds_celf(matrix, budgets, args.size)
    if selection.truncated:
        print(
            f"note: selected {len(selection.seeds)} of {args.size} requested seeds "
            "(candidates or uninfected nodes ran out)",
            file=sys.stderr,
        )
    save_seeds(selection, args.out)
    _write_manifest(
        _manifest_path(args, args.out),
        "seed",
        _params(args),
        {"--dmatrix": args.dmatrix},
        [args.out],
        {"seed": time.perf_counter() - t0},
        extra={"n_selected": len(selection.seeds), "truncated": selection.truncated},
    )
    return 0


def cmd_evaluate(args):
    _require_file(args.seeds, "--seeds")
    _require_file(args.test, "--test")
    t0 = time.perf_counter()
    seed_ids = load_seed_ids(args.seeds)
    test_corpus = load_cascades(args.test)
    result = dni(seed_ids, test_corpus)
    _write_result(args.out, seed_ids, result)
    print(f"dni\t{result.dni}")
    _write_manifest(
        _manifest_path(args, args.out),
        "evaluate",
        _params(args),
        {"--seeds": args.seeds, "--test": args.test},
        [args.out],
        {"evaluate": time.perf_counter() - t0},
        extra={"dni": result.dni},
    )
    return 0


def cmd_baseline(args):
    _require(args.size >= 1, "--size must be at least 1")
    t0 = time.perf_counter()
    inputs = {}
    if args.method == "kcore":
        _require(args.edges, "--edges is required for --method kcore")
        _require_file(args.edges, "--edges")
        inputs["--edges"] = args.edges
        ranking = kcore_ranking(load_edges(args.edges))
    else:
        _require(args.train, "--train is required for --method avgsize")
        _require_file(args.train, "--train")
        inputs["--train"] = args.train
        ranking = avg_size_ranking(load_cascades(args.train))
    top = ranking.ranking[: args.size]
    if len(top) < args.size:
        print(
            f"note: ranking has only {len(top)} of {args.size} requested seeds",
            file=sys.stderr,
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        for rank, (node, score) in enumerate(top, start=1):
            fh.write(f"{rank}\t{node}\t{score!r}\n")
    _write_manifest(
        _manifest_path(args, args.out),
        "baseline",
        _params(args),
        inputs,
        [args.out],
        {"baseline": time.perf_counter() - t0},
        extra={"n_selected": len(top)},
    )
    return 0


def cmd_pipeline(args):
    _require_file(args.cascades, "--cascades")
    _require(0.0 < args.train_frac < 1.0, "--train-frac must be in (0, 1)")
    _validate_train_flags(args)
    _require(0.0 < args.prune_percent <= 100.0, "--prune-percent must be in (0, 100]")
    _require(args.size >= 1, "--size must be at least 1")
    os.makedirs(args.outdir, exist_ok=True)
    paths = {
        name: os.path.join(args.outdir, name)
        for name in (
            "train.txt",
            "test.txt",
            "model.infv",
            "dmatrix.bin",
            "seeds.txt",
            "result.tsv",
            "baseline_avgsize_seeds.txt",
            "baseline_avgsize_result.tsv",
        )
    }
    wall = {}

    t = time.perf_counter()
    corpus = load_cascades(args.cascades)
    train_corpus, test_corpus = temporal_split(corpus, args.train_frac)
    save_cascades(train_corpus, paths["train.txt"])
    save_cascades(test_corpus, paths["test.txt"])
    wall["split"] = time.perf_counter() - t

    t = time.perf_counter()
    model, report, _ = _train_model(train_corpus, args)
    save_embeddings(model, paths["model.infv"])
    wall["train"] = time.perf_counter() - t

    t = time.perf_counter()
    matrix = build_matrix(model, args.prune_percent)
    budgets = compute_budgets(matrix, model.n_nodes)
    save_matrix(matrix, budgets, paths["dmatrix.bin"])
    wall["rank"] = time.perf_counter() - t

    t = time.perf_counter()
    selection = select_seeds_celf(matrix, budgets, args.size)
    if selection.truncated:
        print(
            f"note: selected {len(selection.seeds)} of {args.size} requested seeds",
            file=sys.stderr,
        )
    save_seeds(selection, paths["seeds.txt"])
    wall["seed"] = time.perf_counter() - t

    t = time.perf_counter()
    seed_ids = selection.seed_ids()
    result = dni(seed_ids, test_corpus)
    _write_result(paths["result.tsv"], seed_ids, result)
    wall["evaluate"] = time.perf_counter() - t

    t = time.perf_counter()
    baseline_ids = avg_size_ranking(train_corpus).top(args.size)
    baseline_result = dni(baseline_ids, test_corpus)
    with open(paths["baseline_avgsize_seeds.txt"], "w", encoding="utf-8") as fh:
        for rank, node in enumerate(baseline_ids, start=1):
            fh.write(f"{rank}\t{node}\t0.0\n")
    _write_result(paths["baseline_avgsize_result.tsv"], baseline_ids, baseline_result)
    wall["baseline"] = time.perf_counter() - t

    print(f"dni\timinfector={result.dni}\tavgsize={baseline_result.dni}")
    manifest = args.manifest if args.manifest else os.path.join(args.outdir, "manifest.json")
    _write_manifest(
        manifest,
        "pipeline",
        _params(args),
        {"--cascades": args.cascades},
        sorted(paths.values()),
        wall,
        extra={
            "epoch_loss_classify": report.classify_loss,
            "epoch_loss_regress": report.regress_loss,
            "epoch_classify_steps": report.classify_steps,
            "epoch_regress_steps": report.regress_steps,
            "epoch_seconds": report.epoch_seconds,
            "n_candidates": matrix.n_candidates,
            "n_selected": len(selection.seeds),
            "dni": result.dni,
            "dni_avgsize": baseline_result.dni,
        },
    )
    return 0


def _add_common(sub, *flags):
    if "rng_seed" in flags:
        sub.add_argument("--rng-seed", type=int, default=0, help="master RNG seed")
    sub.add_argument("--manifest", default=None, help="manifest path override")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="iminfector",
        description="Influence maximization from diffusion cascades.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("synth", help="generate a synthetic corpus with planted influencers")
    p.add_argument("--nodes", type=int, default=300)
    p.add_argument("--cascades", type=int, default=500)
    p.add_argument("--planted", type=int, default=5)
    p.add_argument("--lures", type=int, default=6)
    p.add_argument("--out", required=True)
    p.add_argument("--edges-out", default=None, help="also write the implied edge list")
    _add_common(p, "rng_seed")
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("split", help="temporal 80/20 split of a cascade file")
    p.add_argument("--cascades", required=True)
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_split)

    p = subs.add_parser("stats", help="per-node activity and test-side influence table")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    p = subs.add_parser("train", help="train the embedding model on a train split")
    p.add_argument("--cascades", required=True)
    p.add_argument("--embed-dim", type=int, default=50)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--oversample", type=float, default=1.2)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-pairs", default=None, help="write the epoch-0 stream as TSV")
    _add_common(p, "rng_seed")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("rank", help="build the pruned diffusion matrix and budgets")
    p.add_argument("--model", required=True)
    p.add_argument("--prune-percent", type=float, default=10.0)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_rank)

    p = subs.add_parser("seed", help="select seeds by lazy greedy over a diffusion matrix")
    p.add_argument("--dmatrix", required=True)
    p.add_argument("--size", type=int, default=10)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_seed)

    p = subs.add_parser("evaluate", help="distinct nodes influenced over a test split")
    p.add_argument("--seeds", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("baseline", help="k-core or average-cascade-size ranking")
    p.add_argument("--method", choices=("kcore", "avgsize"), required=True)
    p.add_argument("--edges", default=None)
    p.add_argument("--train", default=None)
    p.add_argument("--size", type=int, default=10)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_baseline)

    p = subs.add_parser("pipeline", help="split, train, rank, seed and evaluate in one run")
    p.add_argument("--cascades", required=True)
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--embed-dim", type=int, default=50)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--oversample", type=float, default=1.2)
    p.add_argument("--prune-percent", type=float, default=10.0)
    p.add_argument("--size", type=int, default=10)
    p.add_argument("--outdir", required=True)
    _add_common(p, "rng_seed")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatVersionMismatch, CorruptFile, CascadeFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NonFiniteUpdate as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        # DegenerateSplit, AllZeroNorms, EmptyMatrix, NonFiniteMatrix and kin
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
