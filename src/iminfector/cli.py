"""Command line: the pipeline's stages and the subcommands that run them.

There is one function per stage: split, train, rank, seed, evaluate and
the baseline ranking. Each computes its artifacts, writes them and returns
them. Each subcommand loads its inputs and runs one stage; ``pipeline``
runs them all in order, so its artifacts equal those of the chain of
subcommands. The flags that several subcommands share are declared and
range-checked once, at parse time, so a bad value exits 2 before any file
is written.

Every run writes a JSON manifest recording parameters, input digests and
wall times, so a run can be reproduced from its artifacts alone. Every
artifact is written to a temp file that replaces its target only when
complete. Exit codes: 0 success, 2 usage, 3 input format, 4 numeric failure
during training, 5 degenerate data.
"""

import argparse
import contextlib
import hashlib
import json
import math
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
from ._util import atomic_write


class UsageError(Exception):
    pass


def _require_file(path, flag):
    if not os.path.isfile(path):
        raise UsageError(f"{flag}: file not found: {path}")


def _checked(kind, ok, requirement):
    """An argparse ``type``: parse with ``kind``, then exit 2 unless ``ok(value)``."""

    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid float value" names it
    return parse


_AT_LEAST_1 = _checked(int, lambda v: v >= 1, "at least 1")

# The flags that several subcommands share, each declared and checked once.
FLAGS = {
    "--train-frac": dict(type=_checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)"), default=0.8),
    "--embed-dim": dict(type=_AT_LEAST_1, default=50),
    "--epochs": dict(type=_AT_LEAST_1, default=5),
    "--lr": dict(
        type=_checked(float, lambda v: 0.0 <= v < math.inf, "finite and non-negative"), default=0.1
    ),
    "--oversample": dict(
        type=_checked(float, lambda v: 0.0 < v < math.inf, "finite and positive"), default=1.2
    ),
    "--prune-percent": dict(
        type=_checked(float, lambda v: 0.0 < v <= 100.0, "in (0, 100]"), default=10.0
    ),
    "--size": dict(type=_AT_LEAST_1, default=10),
    "--rng-seed": dict(type=int, default=0, help="master RNG seed"),
    "--manifest": dict(default=None, help="manifest path override"),
}
TRAIN_FLAGS = ("--embed-dim", "--epochs", "--lr", "--oversample")


def _add_flags(parser, *flags):
    for flag in flags:
        parser.add_argument(flag, **FLAGS[flag])


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(args, inputs, outputs, wall_times, path=None, **extra):
    """Write the run's JSON manifest to ``--manifest``, else ``path``, else
    beside the first output. ``inputs`` are the flags whose files are
    digested; the parameters are every parsed flag."""
    paths = {flag: getattr(args, flag[2:].replace("-", "_")) for flag in inputs}
    doc = {
        "tool": "iminfector",
        "version": __version__,
        "subcommand": args.subcommand,
        "parameters": {k: v for k, v in vars(args).items() if k not in ("func", "manifest")},
        "inputs": {flag: {"path": p, "sha256": _sha256(p)} for flag, p in paths.items()},
        "outputs": outputs,
        "wall_times": wall_times,
        **extra,
    }
    with atomic_write(args.manifest or path or outputs[0] + ".manifest.json") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextlib.contextmanager
def _timed(wall_times, stage):
    """Record the block's wall time in ``wall_times[stage]``."""
    t0 = time.perf_counter()
    yield
    wall_times[stage] = time.perf_counter() - t0


def _epoch_fields(report):
    return {
        "epoch_loss_classify": report.classify_loss,
        "epoch_loss_regress": report.regress_loss,
        "epoch_classify_steps": report.classify_steps,
        "epoch_regress_steps": report.regress_steps,
        "epoch_seconds": report.epoch_seconds,
        "classify_kernel": report.classify_kernel,
        "classify_isa": report.classify_isa,
    }


# The stages. Each computes its artifacts, writes them and returns them; the
# subcommands run one stage each, pipeline runs them all in order.


def split_stage(args, corpus, train_out, test_out):
    """Temporal split of ``corpus``; writes and returns (train, test)."""
    train_corpus, test_corpus = temporal_split(corpus, args.train_frac)
    save_cascades(train_corpus, train_out)
    save_cascades(test_corpus, test_out)
    return train_corpus, test_corpus


def train_stage(args, corpus, out, pairs_out=None):
    """Train on ``corpus`` and write the model; returns (model, report).

    With ``pairs_out``, the stream epoch 0 trained on is written there too.
    """
    config = ModelConfig(
        embed_dim=args.embed_dim,
        learning_rate=args.lr,
        epochs=args.epochs,
        rng_seed=args.rng_seed,
    )
    E, I, N = args.embed_dim, corpus.n_influencers, corpus.n_nodes
    try:
        model = init_model(
            config, I, N, influencer_ids=corpus.influencer_ids(), node_ids=corpus.node_ids()
        )
    except MemoryError:
        # O, T, b_t and C, float64
        need = 8 * (I * E + E * N + N + E)
        raise UsageError(
            f"--embed-dim {E}: a model of E={E}, I={I}, N={N} needs {need} bytes, "
            "more than could be allocated"
        ) from None
    first_stream = None

    def stream_producer(epoch):
        nonlocal first_stream
        stream = build_training_stream(corpus, args.oversample, args.rng_seed + epoch)
        if epoch == 0 and pairs_out:
            first_stream = stream
        return stream

    model, report = train(model, stream_producer, config)
    save_embeddings(model, out)
    if pairs_out:
        dump_pairs(first_stream, pairs_out)
    return model, report


def rank_stage(args, model, out):
    """Pruned diffusion matrix and budgets of ``model``; writes and returns them."""
    matrix = build_matrix(model, args.prune_percent)
    budgets = compute_budgets(matrix, model.n_nodes)
    save_matrix(matrix, budgets, out)
    return matrix, budgets


def seed_stage(args, matrix, budgets, out):
    """CELF seed selection; notes a short selection, writes and returns it."""
    selection = select_seeds_celf(matrix, budgets, args.size)
    if selection.truncated:
        print(
            f"note: selected {len(selection.seeds)} of {args.size} requested seeds "
            "(candidates or uninfected nodes ran out)",
            file=sys.stderr,
        )
    save_seeds(selection, out)
    return selection


def evaluate_stage(seed_ids, test_corpus, out):
    """DNI of ``seed_ids`` on the test corpus; writes the cumulative table
    (one row per seed line) and returns the result."""
    result = dni(seed_ids, test_corpus)
    with atomic_write(out) as fh:
        fh.write("rank\tnode_id\tnew_nodes\tcumulative_dni\n")
        cumulative = 0
        reported = set()
        for rank, seed in enumerate(seed_ids, start=1):
            added = 0 if seed in reported else result.per_seed_contribution[seed]
            reported.add(seed)
            cumulative += added
            fh.write(f"{rank}\t{seed}\t{added}\t{cumulative}\n")
    return result


def baseline_stage(args, ranking, out):
    """Top ``--size`` of a baseline ranking; notes a short ranking, writes
    ``rank TAB node TAB score`` rows and returns the node ids."""
    top = ranking.ranking[: args.size]
    if len(top) < args.size:
        print(f"note: ranking has only {len(top)} of {args.size} requested seeds", file=sys.stderr)
    with atomic_write(out) as fh:
        for rank, (node, score) in enumerate(top, start=1):
            fh.write(f"{rank}\t{node}\t{score!r}\n")
    return [node for node, _ in top]


def cmd_synth(args):
    wall = {}
    with _timed(wall, "synth"):
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
        args, [], outputs, wall, n_nodes=corpus.n_nodes, n_cascades=corpus.n_cascades
    )


def cmd_split(args):
    _require_file(args.cascades, "--cascades")
    wall = {}
    with _timed(wall, "split"):
        corpus = load_cascades(args.cascades)
        train_corpus, test_corpus = split_stage(args, corpus, args.train_out, args.test_out)
    _write_manifest(
        args,
        ["--cascades"],
        [args.train_out, args.test_out],
        wall,
        n_train=train_corpus.n_cascades,
        n_test=test_corpus.n_cascades,
    )


def cmd_stats(args):
    _require_file(args.train, "--train")
    _require_file(args.test, "--test")
    wall = {}
    with _timed(wall, "stats"):
        stats = initiator_stats(load_cascades(args.train), load_cascades(args.test))
        with atomic_write(args.out) as fh:
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
    _write_manifest(args, ["--train", "--test"], [args.out], wall)


def cmd_train(args):
    _require_file(args.cascades, "--cascades")
    wall = {}
    with _timed(wall, "train"):
        corpus = load_cascades(args.cascades)
        _, report = train_stage(args, corpus, args.out, args.dump_pairs)
    outputs = [args.out] + ([args.dump_pairs] if args.dump_pairs else [])
    _write_manifest(args, ["--cascades"], outputs, wall, **_epoch_fields(report))


def cmd_rank(args):
    _require_file(args.model, "--model")
    wall = {}
    with _timed(wall, "rank"):
        model = load_embeddings(args.model)
        # without them candidates would be named by row number, which a later
        # evaluate would read as node ids
        if model.influencer_ids is None:
            raise CorruptFile(f"{args.model}: no id tables (cut short, or saved without ids)")
        matrix, _ = rank_stage(args, model, args.out)
    _write_manifest(args, ["--model"], [args.out], wall, n_candidates=matrix.n_candidates)


def cmd_seed(args):
    _require_file(args.dmatrix, "--dmatrix")
    wall = {}
    with _timed(wall, "seed"):
        selection = seed_stage(args, *load_matrix(args.dmatrix), args.out)
    _write_manifest(
        args,
        ["--dmatrix"],
        [args.out],
        wall,
        n_selected=len(selection.seeds),
        truncated=selection.truncated,
    )


def cmd_evaluate(args):
    _require_file(args.seeds, "--seeds")
    _require_file(args.test, "--test")
    wall = {}
    with _timed(wall, "evaluate"):
        seed_ids = load_seed_ids(args.seeds)
        result = evaluate_stage(seed_ids, load_cascades(args.test), args.out)
    print(f"dni\t{result.dni}")
    _write_manifest(args, ["--seeds", "--test"], [args.out], wall, dni=result.dni)


def cmd_baseline(args):
    flag = "--edges" if args.method == "kcore" else "--train"
    path = getattr(args, flag[2:])
    if not path:
        raise UsageError(f"{flag} is required for --method {args.method}")
    _require_file(path, flag)
    wall = {}
    with _timed(wall, "baseline"):
        if args.method == "kcore":
            ranking = kcore_ranking(load_edges(path))
        else:
            ranking = avg_size_ranking(load_cascades(path))
        top = baseline_stage(args, ranking, args.out)
    _write_manifest(args, [flag], [args.out], wall, n_selected=len(top))


def cmd_pipeline(args):
    _require_file(args.cascades, "--cascades")
    os.makedirs(args.outdir, exist_ok=True)
    outputs = []

    def out(name):
        outputs.append(os.path.join(args.outdir, name))
        return outputs[-1]

    wall = {}
    with _timed(wall, "split"):
        corpus = load_cascades(args.cascades)
        train_corpus, test_corpus = split_stage(args, corpus, out("train.txt"), out("test.txt"))
    with _timed(wall, "train"):
        model, report = train_stage(args, train_corpus, out("model.infv"))
    with _timed(wall, "rank"):
        matrix, budgets = rank_stage(args, model, out("dmatrix.bin"))
    with _timed(wall, "seed"):
        selection = seed_stage(args, matrix, budgets, out("seeds.txt"))
    with _timed(wall, "evaluate"):
        result = evaluate_stage(selection.seed_ids(), test_corpus, out("result.tsv"))
    with _timed(wall, "baseline"):
        ranking = avg_size_ranking(train_corpus)
        baseline_ids = baseline_stage(args, ranking, out("baseline_avgsize_seeds.txt"))
        baseline_result = evaluate_stage(
            baseline_ids, test_corpus, out("baseline_avgsize_result.tsv")
        )
    print(f"dni\timinfector={result.dni}\tavgsize={baseline_result.dni}")
    _write_manifest(
        args,
        ["--cascades"],
        sorted(outputs),
        wall,
        path=os.path.join(args.outdir, "manifest.json"),
        **_epoch_fields(report),
        n_candidates=matrix.n_candidates,
        n_selected=len(selection.seeds),
        dni=result.dni,
        dni_avgsize=baseline_result.dni,
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="iminfector",
        description="Influence maximization from diffusion cascades.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("synth", help="generate a synthetic corpus with planted influencers")
    p.add_argument("--nodes", type=_checked(int, lambda v: v >= 20, "at least 20"), default=300)
    p.add_argument("--cascades", type=_checked(int, lambda v: v >= 10, "at least 10"), default=500)
    p.add_argument("--planted", type=_AT_LEAST_1, default=5)
    p.add_argument("--lures", type=_checked(int, lambda v: v >= 0, "non-negative"), default=6)
    p.add_argument("--out", required=True)
    p.add_argument("--edges-out", default=None, help="also write the implied edge list")
    _add_flags(p, "--rng-seed", "--manifest")
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("split", help="temporal 80/20 split of a cascade file")
    p.add_argument("--cascades", required=True)
    _add_flags(p, "--train-frac")
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", required=True)
    _add_flags(p, "--manifest")
    p.set_defaults(func=cmd_split)

    p = subs.add_parser("stats", help="per-node activity and test-side influence table")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True)
    _add_flags(p, "--manifest")
    p.set_defaults(func=cmd_stats)

    p = subs.add_parser("train", help="train the embedding model on a train split")
    p.add_argument("--cascades", required=True)
    _add_flags(p, *TRAIN_FLAGS)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-pairs", default=None, help="write the epoch-0 stream as TSV")
    _add_flags(p, "--rng-seed", "--manifest")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("rank", help="build the pruned diffusion matrix and budgets")
    p.add_argument("--model", required=True)
    _add_flags(p, "--prune-percent")
    p.add_argument("--out", required=True)
    _add_flags(p, "--manifest")
    p.set_defaults(func=cmd_rank)

    p = subs.add_parser("seed", help="select seeds by lazy greedy over a diffusion matrix")
    p.add_argument("--dmatrix", required=True)
    _add_flags(p, "--size")
    p.add_argument("--out", required=True)
    _add_flags(p, "--manifest")
    p.set_defaults(func=cmd_seed)

    p = subs.add_parser("evaluate", help="distinct nodes influenced over a test split")
    p.add_argument("--seeds", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True)
    _add_flags(p, "--manifest")
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("baseline", help="k-core or average-cascade-size ranking")
    p.add_argument("--method", choices=("kcore", "avgsize"), required=True)
    p.add_argument("--edges", default=None)
    p.add_argument("--train", default=None)
    _add_flags(p, "--size")
    p.add_argument("--out", required=True)
    _add_flags(p, "--manifest")
    p.set_defaults(func=cmd_baseline)

    p = subs.add_parser("pipeline", help="split, train, rank, seed and evaluate in one run")
    p.add_argument("--cascades", required=True)
    _add_flags(p, "--train-frac", *TRAIN_FLAGS, "--prune-percent", "--size")
    p.add_argument("--outdir", required=True)
    _add_flags(p, "--rng-seed", "--manifest")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.func(args)
        return 0
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
