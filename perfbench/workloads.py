"""The benchmark's workloads: the corpus each one synthesises, and its job.

Load model: a closed loop of batch jobs. One client runs one job at a time,
each in a fresh process with BLAS pinned to one thread, and starts the next
job when the previous one has ended.

Corpora come from ``iminfector synth`` seeded with the workload seed; the
jobs see only the generated files. Why each workload exists, and which
ROADMAP item each one should show, is in BENCHMARK.json and README.md.
"""

import os
from dataclasses import dataclass

OVERSAMPLE = 1.2
SEED_SET_SIZE = 10


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "pipeline" or "ingest"
    synth: tuple  # synth flags other than --rng-seed, --out and --edges-out
    epochs: int = 0  # training epochs, pipelines only


WORKLOADS = {
    w.name: w
    for w in (
        # README reference configuration: small N, so fixed per-call cost
        # is a large share of each classify step.
        Workload("ref-300", "pipeline", ("--nodes", "300", "--cascades", "500"), epochs=5),
        # N close to 3,000: T and the step's E x N temporaries overflow L2.
        Workload("wide-3000", "pipeline", ("--nodes", "3000", "--cascades", "100"), epochs=1),
        # Data preparation on 596k events; no training at all.
        Workload("ingest-3000", "ingest", ("--nodes", "3000", "--cascades", "5000")),
    )
}

# Every code path and check of each workload, on corpora that take seconds.
SMOKE = {
    "ref-300": Workload(
        "ref-300", "pipeline",
        ("--nodes", "60", "--cascades", "60", "--planted", "2", "--lures", "2"), epochs=2,
    ),
    "wide-3000": Workload(
        "wide-3000", "pipeline",
        ("--nodes", "60", "--cascades", "20", "--planted", "2", "--lures", "2"), epochs=1,
    ),
    "ingest-3000": Workload(
        "ingest-3000", "ingest",
        ("--nodes", "60", "--cascades", "200", "--planted", "2", "--lures", "2"),
    ),
}


def synth_argv(workload, seed, corpus_dir):
    argv = ["synth", *workload.synth, "--rng-seed", str(seed),
            "--out", os.path.join(corpus_dir, "cascades.txt")]
    if workload.kind == "ingest":
        argv += ["--edges-out", os.path.join(corpus_dir, "edges.txt")]
    return argv


def job_steps(workload, seed, corpus_dir, job_dir):
    """The steps job.py runs for one job, in order."""
    corpus = os.path.join(corpus_dir, "cascades.txt")
    if workload.kind == "pipeline":
        return [{"argv": [
            "pipeline", "--cascades", corpus, "--outdir", job_dir,
            "--rng-seed", str(seed), "--epochs", str(workload.epochs),
            "--size", str(SEED_SET_SIZE),
        ]}]

    def out(name):
        return os.path.join(job_dir, name)

    # Each subcommand re-parses its inputs, as separate user commands would.
    return [
        {"argv": ["split", "--cascades", corpus,
                  "--train-out", out("train.txt"), "--test-out", out("test.txt")]},
        {"argv": ["stats", "--train", out("train.txt"), "--test", out("test.txt"),
                  "--out", out("stats.tsv")]},
        {"argv": ["baseline", "--method", "avgsize", "--train", out("train.txt"),
                  "--size", str(SEED_SET_SIZE), "--out", out("avgsize_seeds.txt")]},
        {"argv": ["baseline", "--method", "kcore",
                  "--edges", os.path.join(corpus_dir, "edges.txt"),
                  "--size", str(SEED_SET_SIZE), "--out", out("kcore_seeds.txt")]},
        {"argv": ["evaluate", "--seeds", out("avgsize_seeds.txt"), "--test", out("test.txt"),
                  "--out", out("avgsize_result.tsv")]},
        {"argv": ["evaluate", "--seeds", out("kcore_seeds.txt"), "--test", out("test.txt"),
                  "--out", out("kcore_result.tsv")]},
        {"stream": {"train": out("train.txt"), "oversample": OVERSAMPLE, "rng_seed": seed}},
    ]

