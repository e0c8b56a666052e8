"""Command line: the pipeline's stages and the subcommands that run them.

There is one function per stage: train, rank, seed, evaluate and the
baseline ranking. Each computes its artifacts, writes them and returns
them. Each subcommand loads its inputs and runs one stage, or for split
two library calls; ``pipeline`` runs them all in order, so its artifacts
equal those of the chain of subcommands. Every flag is declared and
checked once, at parse time: an out-of-range value, a missing or
unreadable input file or an output target that cannot be replaced (its
directory not writable, say) exits 2 before any file is written, as does
an output that names the same file as an input or as another output.

``main`` times each subcommand and writes its JSON manifest, recording
parameters, input digests and wall times, so a run can be reproduced from
its artifacts alone. Every artifact is written to a temp file that
replaces its target only when complete. Exit codes: 0 success, 2 usage, 3
input format, 4 numeric failure during training, 5 degenerate data.
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

from . import __version__, _native
from .cascades import (
    derive_edges,
    initiator_stats,
    load_cascades,
    load_edges,
    save_cascades,
    save_edges,
    temporal_split,
)
from .context import build_training_stream, context_draws, dump_pairs
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
from .synth import generate_corpus, size_error
from ._util import atomic_write


class UsageError(Exception):
    pass


class InputPath(str):
    """The value of an input-file flag; the manifest digests every one."""


def _input_file(path):
    """An argparse ``type`` for an input file: exit 2 unless it exists and
    is readable."""
    if not os.path.isfile(path):
        raise argparse.ArgumentTypeError(f"file not found: {path}")
    if not os.access(path, os.R_OK):
        raise argparse.ArgumentTypeError(f"file not readable: {path}")
    return InputPath(path)


INPUT = dict(type=_input_file, required=True)  # a required input-file flag


class OutputPath(str):
    """The value of an output-file flag."""


def _check_writable_dir(path):
    """Exit 2 unless the directory ``path`` lets this process make and
    replace files in it: atomic_write makes a temp file there and renames
    it over its target."""
    if not os.access(path, os.W_OK | os.X_OK):
        raise argparse.ArgumentTypeError(f"directory not writable: {path}")


def _output_file(path):
    """An argparse ``type`` for an output file: exit 2 unless its directory
    exists and is writable and the path names a file that is absent or
    regular, which atomic_write replaces."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"directory not found: {parent}")
    _check_writable_dir(parent)
    if not os.path.basename(path) or (os.path.lexists(path) and not os.path.isfile(path)):
        raise argparse.ArgumentTypeError(f"not a regular file: {path}")
    return OutputPath(path)


# The files pipeline writes into --outdir, besides its manifest.
PIPELINE_FILES = (
    "train.txt", "test.txt", "model.infv", "dmatrix.bin", "seeds.txt", "result.tsv",
    "baseline_avgsize_seeds.txt", "baseline_avgsize_result.tsv",
)


def _missing_dirs(path):
    """The missing directories on ``path``, ``path`` first, each spelled as
    in ``path``: those os.makedirs(path) makes (``0/..`` makes ``0``)."""
    missing = []
    while path and not os.path.lexists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def _output_dir(path):
    """An argparse ``type`` for pipeline's --outdir, made if missing: exit 2
    unless it is a writable directory, or is missing and the nearest of its
    parents that exists is one; and exit 2 if it holds something other than
    a regular file at the name of a file pipeline writes."""
    missing = _missing_dirs(path)
    existing = os.path.dirname(missing[-1]) if missing else path
    if not path or (existing and not os.path.isdir(existing)):
        raise argparse.ArgumentTypeError(f"not a directory: {path}")
    _check_writable_dir(existing or ".")
    if existing == path:
        for name in PIPELINE_FILES:
            _output_file(os.path.join(path, name))
    return path


OUTPUT = dict(type=_output_file, required=True)  # a required output-file flag


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
_NON_NEGATIVE = _checked(int, lambda v: v >= 0, "non-negative")

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
    "--rng-seed": dict(type=_NON_NEGATIVE, default=0, help="master RNG seed"),
    "--out": OUTPUT,
    "--manifest": dict(type=_output_file, default=None, help="manifest path override"),
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


def _manifest_path(args):
    """``--manifest``, else manifest.json in ``--outdir``, else the first
    output's path plus ``.manifest.json``. A derived path that names
    something other than a regular file is a usage error."""
    if args.manifest:
        return args.manifest
    if "outdir" in args:
        path = os.path.join(args.outdir, "manifest.json")
    else:
        path = (args.out if "out" in args else args.train_out) + ".manifest.json"
    if os.path.lexists(path) and not os.path.isfile(path):
        raise UsageError(f"manifest path is not a regular file: {path}")
    return path


def _same_file(a, b):
    """Whether paths ``a`` and ``b`` name one file: the same real path or,
    where both exist, the same file under two links."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:
        return False


def _check_distinct_outputs(args, manifest):
    """A usage error if a file the command writes is one that it reads or
    that it writes under another name: the write would replace the input,
    or keep only one of two outputs. Two inputs may be one file."""
    named = [("--" + k.replace("_", "-"), v) for k, v in vars(args).items() if k != "manifest"]
    inputs = [(flag, v) for flag, v in named if isinstance(v, InputPath)]
    outputs = [(flag, v) for flag, v in named if isinstance(v, OutputPath)]
    if "outdir" in args:
        # the directories pipeline makes are outputs too, each once
        made = {os.path.realpath(path): path for path in reversed(_missing_dirs(args.outdir))}
        made.pop(os.path.realpath(args.outdir), None)
        outdir = [args.outdir, *made.values()]
        outdir += [os.path.join(args.outdir, name) for name in PIPELINE_FILES]
        outputs += [("--outdir", path) for path in outdir]
    outputs.append(("manifest", manifest))
    for i, (flag, path) in enumerate(outputs):
        for other_flag, other in inputs + outputs[:i]:
            if _same_file(path, other):
                raise UsageError(f"{flag} {path} and {other_flag} {other} name the same file")


def _peak_rss_mb():
    """This process's peak resident set size in MB: VmHWM from
    /proc/self/status, which starts afresh at exec, so that a command run
    from a larger parent reports its own peak; else ru_maxrss, which a
    child can inherit from its parent."""
    with contextlib.suppress(OSError, ValueError):
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1024)  # bytes there, kB elsewhere


def _write_manifest(args, path, outputs, fields):
    """Write the run's JSON manifest to ``path``. The parameters are every
    parsed flag; the inputs are the files given to input-file flags, with
    their digests; peak_rss_mb is the process's peak memory so far."""
    parameters = {k: v for k, v in vars(args).items() if k not in ("func", "manifest")}
    doc = {
        "tool": "iminfector",
        "version": __version__,
        "subcommand": args.subcommand,
        "parameters": parameters,
        "inputs": {
            "--" + k.replace("_", "-"): {"path": v, "sha256": _sha256(v)}
            for k, v in parameters.items()
            if isinstance(v, InputPath)
        },
        "outputs": outputs,
        **fields,
        "peak_rss_mb": _peak_rss_mb(),
    }
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextlib.contextmanager
def _timed(wall_times, stage):
    """Record the block's wall time in ``wall_times[stage]``."""
    t0 = time.perf_counter()
    yield
    wall_times[stage] = time.perf_counter() - t0


def _float64_targets():
    """The SIMD target each float64 loop of numpy's exp, log, add and
    maximum runs on this CPU, from numpy.lib.introspect; None where numpy
    does not say."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return None
    found = opt_func_info(func_name="^(exp|log|add|maximum)$", signature="float64")
    return {
        name: loops[chars]["current"]
        for name, loops in sorted(found.items())
        for chars in loops
        if set(chars) == {"d"}
    }


def _epoch_fields(report):
    """The training fields of a manifest, with what decides the model's
    bits besides the inputs: the classify path, numpy's version, the kernel
    set of numpy's BLAS (None without the native library) and the SIMD
    targets of numpy's float64 loops; and what drew epoch 0's contexts."""
    lib = _native.load()
    return {
        "epoch_loss_classify": report.classify_loss,
        "epoch_loss_regress": report.regress_loss,
        "epoch_classify_steps": report.classify_steps,
        "epoch_regress_steps": report.regress_steps,
        "epoch_seconds": report.epoch_seconds,
        "classify_kernel": report.classify_kernel,
        "classify_isa": report.classify_isa,
        "stream_draws": report.stream_draws,
        "blas_core": None if lib is None else lib.blas_core,
        "numpy_version": np.__version__,
        "numpy_float64_targets": _float64_targets(),
    }


def _reader(*corpora):
    """The manifest's ``cascade_reader``: ``"c"`` if the native scanner read
    every corpus load_cascades returned, else ``"python"``."""
    return "c" if all(corpus.reader == "c" for corpus in corpora) else "python"


def _model_config(args):
    return ModelConfig(
        embed_dim=args.embed_dim, learning_rate=args.lr, epochs=args.epochs, rng_seed=args.rng_seed
    )


# The stages. Each computes its artifacts, writes them and returns them; the
# subcommands run one stage each, pipeline runs them all in order.


def new_model(args, corpus):
    """A fresh model for ``corpus``; one too large to index or allocate is a
    usage error."""
    E, I, N = args.embed_dim, corpus.n_influencers, corpus.n_nodes
    try:
        if max(I, N) * E > np.iinfo(np.intp).max // 8:  # the bytes of O or T
            raise MemoryError
        return init_model(_model_config(args), corpus.influencer_ids(), corpus.node_ids())
    except MemoryError:
        need = 8 * (I * E + E * N + N + E)  # O, T, b_t and C, float64
        raise UsageError(
            f"--embed-dim {E}: a model of E={E}, I={I}, N={N} needs {need} bytes, "
            "more than could be allocated"
        ) from None


def epoch_stream(args, corpus, epoch):
    """The training stream of ``corpus`` for ``epoch``; one too large to
    allocate is a usage error."""
    try:
        return build_training_stream(corpus, args.oversample, args.rng_seed + epoch)
    except MemoryError:
        pairs = context_draws(corpus, args.oversample)[1]
        # Past int64 the exact count runs to hundreds of digits, so it is
        # given to 3 figures; Decimal, as the count can pass the largest float.
        from decimal import Decimal

        count = pairs if pairs < 2**63 else f"{Decimal(pairs):.3g}"
        raise UsageError(f"--oversample {args.oversample!r}: a stream of {count} pairs is "
                         "more than could be allocated") from None


def train_stage(args, corpus, model, out, pairs_out=None, built=None):
    """Train ``model`` on ``corpus`` and write it; returns the TrainReport.

    ``built`` maps epochs to streams made beforehand by epoch_stream; each
    is taken out of it when its epoch starts, so that it is freed with the
    epoch. With ``pairs_out``, the stream epoch 0 trained on is written
    there too. A stream too large to allocate is a usage error, and writes
    nothing.
    """
    built = {} if built is None else built
    first_stream = None

    def stream_producer(epoch):
        nonlocal first_stream
        stream = built.pop(epoch) if epoch in built else epoch_stream(args, corpus, epoch)
        if epoch == 0 and pairs_out:
            first_stream = stream
        return stream

    model, report = train(model, stream_producer, _model_config(args))
    save_embeddings(model, out)
    if pairs_out:
        dump_pairs(first_stream, pairs_out)
    return report


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
    (one row per seed line) and returns the result and the DNI curve, the
    table's cumulative DNI after each seed line."""
    result = dni(seed_ids, test_corpus)
    curve = []
    with atomic_write(out) as fh:
        fh.write("rank\tnode_id\tnew_nodes\tcumulative_dni\n")
        cumulative = 0
        reported = set()
        for rank, seed in enumerate(seed_ids, start=1):
            added = 0 if seed in reported else result.per_seed_contribution[seed]
            reported.add(seed)
            cumulative += added
            curve.append(cumulative)
            fh.write(f"{rank}\t{seed}\t{added}\t{cumulative}\n")
    return result, curve


def baseline_stage(args, ranking, out):
    """Top ``--size`` of a baseline ranking; notes a short ranking, writes
    ``rank TAB node TAB score`` rows and returns the node ids."""
    top = ranking[: args.size]
    if len(top) < args.size:
        print(f"note: ranking has only {len(top)} of {args.size} requested seeds", file=sys.stderr)
    with atomic_write(out) as fh:
        for rank, (node, score) in enumerate(top, start=1):
            fh.write(f"{rank}\t{node}\t{score!r}\n")
    return [node for node, _ in top]


# The subcommands. Each loads its inputs and runs its stage, and returns its
# outputs and the manifest fields of its own; main times the call and
# writes the manifest.


def cmd_synth(args):
    # a combination of sizes generate_corpus cannot build is a usage error
    # (exit 2) before any write, not degenerate data
    error = size_error(args.nodes, args.cascades, args.planted, args.lures)
    if error:
        raise UsageError(f"{error} (--nodes {args.nodes}, --cascades {args.cascades}, "
                         f"--planted {args.planted}, --lures {args.lures})")
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
    return outputs, dict(n_nodes=corpus.n_nodes, n_cascades=corpus.n_cascades)


def cmd_split(args):
    corpus = load_cascades(args.cascades)
    reader = _reader(corpus)
    train_corpus, test_corpus = temporal_split(corpus, args.train_frac)
    del corpus  # freed before the saves, as only the two sides are written
    save_cascades(train_corpus, args.train_out)
    save_cascades(test_corpus, args.test_out)
    outputs = [args.train_out, args.test_out]
    return outputs, dict(
        n_train=train_corpus.n_cascades, n_test=test_corpus.n_cascades, cascade_reader=reader
    )


def cmd_stats(args):
    train_corpus, test_corpus = load_cascades(args.train), load_cascades(args.test)
    ids, columns = initiator_stats(train_corpus, test_corpus)
    with atomic_write(args.out) as fh:
        fh.write("\t".join(["node_id", *columns]) + "\n")
        for row in zip(ids, *(column.tolist() for column in columns.values())):
            fh.write("\t".join(map(str, row)) + "\n")
    return [args.out], dict(cascade_reader=_reader(train_corpus, test_corpus))


def cmd_train(args):
    corpus = load_cascades(args.cascades)
    report = train_stage(args, corpus, new_model(args, corpus), args.out, args.dump_pairs)
    outputs = [args.out] + ([args.dump_pairs] if args.dump_pairs else [])
    return outputs, dict(**_epoch_fields(report), cascade_reader=_reader(corpus))


def cmd_rank(args):
    matrix, _ = rank_stage(args, load_embeddings(args.model), args.out)
    return [args.out], dict(n_candidates=matrix.n_candidates)


def cmd_seed(args):
    selection = seed_stage(args, *load_matrix(args.dmatrix), args.out)
    return [args.out], dict(n_selected=len(selection.seeds), truncated=selection.truncated)


def cmd_evaluate(args):
    test_corpus = load_cascades(args.test)
    result, curve = evaluate_stage(load_seed_ids(args.seeds), test_corpus, args.out)
    print(f"dni\t{result.dni}")
    return [args.out], dict(dni=result.dni, dni_curve=curve, cascade_reader=_reader(test_corpus))


def cmd_baseline(args):
    flag = "--edges" if args.method == "kcore" else "--train"
    path = getattr(args, flag[2:])
    if not path:
        raise UsageError(f"{flag} is required for --method {args.method}")
    fields = {}
    if args.method == "kcore":
        ranking = kcore_ranking(load_edges(path))
    else:
        corpus = load_cascades(path)
        ranking = avg_size_ranking(corpus)
        fields["cascade_reader"] = _reader(corpus)
    return [args.out], dict(n_selected=len(baseline_stage(args, ranking, args.out)), **fields)


def cmd_pipeline(args):
    outputs = []

    def out(name):
        outputs.append(os.path.join(args.outdir, name))
        return outputs[-1]

    wall = {}
    with _timed(wall, "split"):
        corpus = load_cascades(args.cascades)
        reader = _reader(corpus)
        train_corpus, test_corpus = temporal_split(corpus, args.train_frac)
        del corpus  # freed before training, which keeps only the two sides
        # made before the first write, so that a model or stream too large
        # to allocate leaves no file
        model = new_model(args, train_corpus)
        built = {0: epoch_stream(args, train_corpus, 0)}
        os.makedirs(args.outdir, exist_ok=True)
        save_cascades(train_corpus, out("train.txt"))
        save_cascades(test_corpus, out("test.txt"))
    with _timed(wall, "train"):
        report = train_stage(args, train_corpus, model, out("model.infv"), built=built)
    with _timed(wall, "rank"):
        matrix, budgets = rank_stage(args, model, out("dmatrix.bin"))
    with _timed(wall, "seed"):
        selection = seed_stage(args, matrix, budgets, out("seeds.txt"))
    with _timed(wall, "evaluate"):
        result, curve = evaluate_stage(selection.seed_ids(), test_corpus, out("result.tsv"))
    with _timed(wall, "baseline"):
        ranking = avg_size_ranking(train_corpus)
        baseline_ids = baseline_stage(args, ranking, out("baseline_avgsize_seeds.txt"))
        baseline_result, _ = evaluate_stage(
            baseline_ids, test_corpus, out("baseline_avgsize_result.tsv")
        )
    print(f"dni\timinfector={result.dni}\tavgsize={baseline_result.dni}")
    return sorted(outputs), dict(
        wall_times=wall,
        **_epoch_fields(report),
        n_candidates=matrix.n_candidates,
        n_selected=len(selection.seeds),
        dni=result.dni,
        dni_curve=curve,
        dni_avgsize=baseline_result.dni,
        cascade_reader=reader,
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
    p.add_argument("--lures", type=_NON_NEGATIVE, default=6)
    p.add_argument("--edges-out", type=_output_file, help="also write the implied edge list")
    _add_flags(p, "--out", "--rng-seed", "--manifest")
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("split", help="temporal 80/20 split of a cascade file")
    p.add_argument("--cascades", **INPUT)
    p.add_argument("--train-out", **OUTPUT)
    p.add_argument("--test-out", **OUTPUT)
    _add_flags(p, "--train-frac", "--manifest")
    p.set_defaults(func=cmd_split)

    p = subs.add_parser("stats", help="per-node activity and test-side influence table")
    p.add_argument("--train", **INPUT)
    p.add_argument("--test", **INPUT)
    _add_flags(p, "--out", "--manifest")
    p.set_defaults(func=cmd_stats)

    p = subs.add_parser("train", help="train the embedding model on a train split")
    p.add_argument("--cascades", **INPUT)
    p.add_argument("--dump-pairs", type=_output_file, help="write the epoch-0 stream as TSV")
    _add_flags(p, *TRAIN_FLAGS, "--out", "--rng-seed", "--manifest")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("rank", help="build the pruned diffusion matrix and budgets")
    p.add_argument("--model", **INPUT)
    _add_flags(p, "--prune-percent", "--out", "--manifest")
    p.set_defaults(func=cmd_rank)

    p = subs.add_parser("seed", help="select seeds by lazy greedy over a diffusion matrix")
    p.add_argument("--dmatrix", **INPUT)
    _add_flags(p, "--size", "--out", "--manifest")
    p.set_defaults(func=cmd_seed)

    p = subs.add_parser("evaluate", help="distinct nodes influenced over a test split")
    p.add_argument("--seeds", **INPUT)
    p.add_argument("--test", **INPUT)
    _add_flags(p, "--out", "--manifest")
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("baseline", help="k-core or average-cascade-size ranking")
    p.add_argument("--method", choices=("kcore", "avgsize"), required=True)
    p.add_argument("--edges", type=_input_file)
    p.add_argument("--train", type=_input_file)
    _add_flags(p, "--size", "--out", "--manifest")
    p.set_defaults(func=cmd_baseline)

    p = subs.add_parser("pipeline", help="split, train, rank, seed and evaluate in one run")
    p.add_argument("--cascades", **INPUT)
    p.add_argument("--outdir", type=_output_dir, required=True)
    _add_flags(p, "--train-frac", *TRAIN_FLAGS, "--prune-percent", "--size", "--rng-seed")
    _add_flags(p, "--manifest")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        manifest = _manifest_path(args)
        _check_distinct_outputs(args, manifest)
        wall = {}
        with _timed(wall, args.subcommand):
            outputs, fields = args.func(args)
        _write_manifest(args, manifest, outputs, {"wall_times": wall, **fields})
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
