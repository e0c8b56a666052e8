"""The benchmark's own tests, on the smoke corpora.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from iminfector import cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_runs_every_workload_and_check(trace):
    proc = run_bench("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])["workloads"]
    assert set(results) == set(workloads.WORKLOADS)
    mode = "per_layer" if trace == "1" else "end_to_end"
    for result in results.values():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        assert list(result["metrics"]) == [m["name"] for m in SPEC[mode]]
        for m in SPEC[mode]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if trace == "0":
            assert all(v["value"] > 0 for v in result["metrics"].values())
        else:
            m = {k: v["value"] for k, v in result["metrics"].items()}
            selfs = sum(m[f"{layer}.self_s"] for layer in (*layers.LAYERS, "cli"))
            assert selfs == pytest.approx(m["trace.run_s"], rel=1e-9)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "ref-300", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def run_job(workload, tmp_path):
    corpus_dir, job_dir = str(tmp_path / "corpus"), str(tmp_path / "job")
    os.makedirs(corpus_dir)
    os.makedirs(job_dir)
    assert cli.main(workloads.synth_argv(workload, 5, corpus_dir)) == 0
    printed = []
    for step in workloads.job_steps(workload, 5, corpus_dir, job_dir):
        if "argv" in step:
            proc = subprocess.run(
                [sys.executable, "-m", "iminfector", *step["argv"]],
                env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
                capture_output=True, text=True, check=True,
            )
            printed.append({"argv": step["argv"], "stdout": proc.stdout})
    return corpus_dir, job_dir, printed


def test_pipeline_checks_catch_wrong_outputs(tmp_path):
    corpus_dir, job_dir, printed = run_job(workloads.SMOKE["ref-300"], tmp_path)
    corpus = os.path.join(corpus_dir, "cascades.txt")
    stdout = printed[0]["stdout"]
    facts = checks.check_pipeline(corpus, job_dir, stdout)
    assert facts["dni"] > 0

    dni = facts["dni"]
    with pytest.raises(checks.CheckFailed):
        checks.check_pipeline(corpus, job_dir, stdout.replace(f"iminfector={dni}", f"iminfector={dni + 1}"))
    seeds = os.path.join(job_dir, "seeds.txt")
    with open(seeds, encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    with open(seeds, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows[:-1]) + "\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_pipeline(corpus, job_dir, stdout)


def test_ingest_checks_catch_wrong_outputs(tmp_path):
    corpus_dir, job_dir, printed = run_job(workloads.SMOKE["ingest-3000"], tmp_path)
    train = checks.read_cascades(os.path.join(job_dir, "train.txt"))
    stream = {"pairs": checks.stream_pairs(train), "seconds": 1.0}
    checks.check_ingest(corpus_dir, job_dir, printed, stream)

    with pytest.raises(checks.CheckFailed):
        checks.check_ingest(corpus_dir, job_dir, printed, {"pairs": stream["pairs"] + 1})
    kcore = os.path.join(job_dir, "kcore_seeds.txt")
    rows = checks.read_rows(kcore)
    rows[0][2] = str(int(rows[0][2]) + 1)
    with open(kcore, "w", encoding="utf-8") as fh:
        fh.write("".join("\t".join(r) + "\n" for r in rows))
    with pytest.raises(checks.CheckFailed):
        checks.check_ingest(corpus_dir, job_dir, printed, stream)
