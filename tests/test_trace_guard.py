"""The benchmark's traced run still sees every layer of the command line.

``perfbench/layers.py`` times layers by replacing module attributes, such
as ``iminfector.cli.train``, with wrappers. A refactor of ``cli.py`` that
stops calling one of those names leaves its layer at zero without any
error. This test installs the tracer in a fresh process, as a traced
benchmark job does, runs ``pipeline`` and the subcommands the ingest
workload runs on a small ``synth`` corpus, and checks that every wrapped
attribute exists and was called and that the work counters are non-zero.
"""

import json
import os
import subprocess
import sys

import iminfector

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import importlib, json, os, sys

perfbench, workdir = sys.argv[1:]
sys.path.insert(0, perfbench)
import layers
from iminfector import cli

tracer = layers.Tracer()
tracer.install()
resolved = [
    hasattr(getattr(importlib.import_module(module), attr), "__wrapped__")
    for module, attr, _, _ in layers.WRAPPED
]


def path(name):
    return os.path.join(workdir, name)


runs = [
    ["synth", "--nodes", "60", "--cascades", "60", "--planted", "2", "--lures", "2",
     "--out", path("cascades.txt"), "--edges-out", path("edges.txt")],
    ["pipeline", "--cascades", path("cascades.txt"), "--outdir", path("run"),
     "--epochs", "1", "--embed-dim", "8"],
    ["stats", "--train", path("run/train.txt"), "--test", path("run/test.txt"),
     "--out", path("stats.tsv")],
    ["baseline", "--method", "kcore", "--edges", path("edges.txt"), "--out", path("kcore.txt")],
    ["evaluate", "--seeds", path("kcore.txt"), "--test", path("run/test.txt"),
     "--out", path("kcore_result.tsv")],
]
codes = [cli.main(argv) for argv in runs]
# the job-side stream build, as the ingest workload's last step makes it
from iminfector import cascades, context
context.build_training_stream(cascades.load_cascades(path("run/train.txt")), 1.2, 0)
report = tracer.report()
never_called = sorted({name for _, _, name, _ in layers.WRAPPED
                       if report["totals"].get(name, [0])[0] == 0})
print(json.dumps({"codes": codes, "resolved": resolved, "never_called": never_called,
                  "counts": report["counts"]}))
"""


def test_tracer_sees_every_layer(tmp_path):
    src = os.path.dirname(os.path.dirname(iminfector.__file__))
    path = os.environ.get("PYTHONPATH")
    # no bytecode cache: the benchmark's directory is only read
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else ""),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "perfbench"), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0] * 5
    assert all(result["resolved"])
    assert result["never_called"] == []
    for counter in ("cascades.events", "context.pairs", "diffusion.candidates", "seeding.seeds"):
        assert result["counts"].get(counter, 0) > 0, counter
