"""Benchmark of the iminfector package, driven from outside through its CLI.

    python3 perfbench/run.py --workload ref-300 --seed 1 --seconds 30 --trace 0

Run from the repository root (any directory holding ``src/iminfector``).
Set-up synthesises the workload's corpus SETUP_REPS times, each in a fresh
``iminfector synth`` process, and reports the median as ``setup_s``. Then
jobs run one after another, each in a fresh process, until another job
would overrun ``--seconds`` (at least one job; two in traced and smoke
runs). Every job's outputs are checked outside its timed region.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced jobs and reports the per-layer metrics of the traced
ones, plus the tracing overhead. Metric names and units come from
BENCHMARK.json. ``--workload all`` interleaves the three workloads and
prints every table; ``--smoke`` swaps in 60-node corpora.

Stdout: a table of every metric with its sample count, the environment,
and as the last line one JSON object with the keys correct, attempted,
failed and metrics. Work files go under ``.bench_out/`` and are removed at
the end except each run's ``result.json``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 3
RUN_BUDGET_S = 170  # a run must end within 180 s, checks included


class Deadline(Exception):
    pass


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(q, value) of the highest percentile with at least ten samples above it."""
    q = layers.tail_quantile(len(values))
    return (q, layers.percentile(sorted(values), q)) if q else None


def host_probe_ms():
    """A fixed numpy and Python loop; tracks how fast the host runs right now."""
    import numpy as np

    a = np.random.default_rng(0).random((160, 160))
    t0 = time.perf_counter()
    for _ in range(40):
        a = a @ a
        a /= np.abs(a).max()
    total = 0
    for i in range(100_000):
        total += i * i
    return (time.perf_counter() - t0) * 1e3


def environment(args):
    import numpy as np

    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        def field(name, index=index):
            with open(os.path.join(index, name), encoding="ascii") as fh:
                return fh.read().strip()

        if field("type") in ("Unified", "Data"):
            caches[f"L{field('level')}"] = field("size")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "iminfector", "*.py"))):
        source.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            source.update(fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class WorkloadRun:
    """Set-up, jobs, checks and metrics of one workload at one seed."""

    def __init__(self, workload, seed, trace, deadline):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.deadline = deadline
        self.dir = os.path.join(OUT, f"{workload.name}-s{seed}-t{int(trace)}")
        self.corpus_dir = os.path.join(self.dir, "corpus0")
        self.setup_s = []
        self.jobs = []
        self.errors = []
        self.first = None  # (outputs, facts) of the first good job

    def _run(self, argv):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Deadline("run budget spent")
        try:
            return subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                                  text=True, timeout=remaining, check=False)
        except subprocess.TimeoutExpired as exc:
            raise Deadline(f"{argv[1:3]} overran the run budget") from exc

    def set_up(self):
        """Synthesise the corpus SETUP_REPS times; every copy must be identical."""
        shutil.rmtree(self.dir, ignore_errors=True)
        digests = []
        for rep in range(SETUP_REPS):
            corpus_dir = os.path.join(self.dir, f"corpus{rep}")
            os.makedirs(corpus_dir)
            argv = [sys.executable, "-m", "iminfector",
                    *workloads.synth_argv(self.workload, self.seed, corpus_dir)]
            t0 = time.perf_counter()
            proc = self._run(argv)
            self.setup_s.append(time.perf_counter() - t0)
            checks.require(proc.returncode == 0, f"synth exited {proc.returncode}: {proc.stderr}")
            digests.append(checks.artifact_digests(corpus_dir))
            if rep:
                shutil.rmtree(corpus_dir)
        checks.require(all(d == digests[0] for d in digests), "synth is not deterministic")

    def run_job(self, traced):
        job_dir = os.path.join(self.dir, f"job{len(self.jobs)}")
        os.makedirs(job_dir)
        report_path = os.path.join(job_dir, "report.json")
        steps = workloads.job_steps(self.workload, self.seed, self.corpus_dir, job_dir)
        spec = {"src": SRC, "steps": steps, "trace": traced, "report": report_path}
        job = {"traced": traced, "probe_ms": host_probe_ms(), "ok": False}
        self.jobs.append(job)
        t0 = time.perf_counter()
        proc = self._run([sys.executable, os.path.join(HERE, "job.py"), json.dumps(spec)])
        job["wall_s"] = time.perf_counter() - t0
        try:
            checks.require(proc.returncode == 0 and os.path.exists(report_path),
                           f"job exited {proc.returncode}: {proc.stderr[-2000:]}")
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
            for step in report["steps"]:
                checks.require(step["rc"] == 0, f"{step['argv'][0]} exited {step['rc']}")
            job.update(self._check(job_dir, report))
            job["ok"] = True
        except checks.CheckFailed as exc:
            job["error"] = str(exc)
            self.errors.append(f"job {len(self.jobs) - 1}: {exc}")
        finally:
            shutil.rmtree(job_dir, ignore_errors=True)

    def _check(self, job_dir, report):
        """Full output checks on the first good job; identity with it afterwards."""
        outputs = [s["stdout"] for s in report["steps"]]
        seen = (checks.artifact_digests(job_dir), outputs, report["stream"] and report["stream"]["pairs"])
        if self.first is None:
            if self.workload.kind == "pipeline":
                facts = checks.check_pipeline(
                    os.path.join(self.corpus_dir, "cascades.txt"), job_dir, outputs[0])
            else:
                facts = checks.check_ingest(self.corpus_dir, job_dir, report["steps"], report["stream"])
            self.first = (seen, facts)
        else:
            checks.require(seen == self.first[0], "outputs differ from the run's first job")
        facts = self.first[1]
        if self.workload.kind == "pipeline":
            with open(os.path.join(job_dir, "manifest.json"), encoding="utf-8") as fh:
                train_s = json.load(fh)["wall_times"]["train"]
            pairs_per_s = self.workload.epochs * facts["epoch_pairs"] / train_s
        else:
            pairs_per_s = report["stream"]["pairs"] / report["stream"]["seconds"]
        return {
            "peak_rss_mb": report["peak_rss_mb"],
            "import_s": report["import_s"],
            "train_pairs_per_s": pairs_per_s,
            "facts": facts,
            "trace": report["trace"],
        }

    def good(self, traced):
        return [j for j in self.jobs if j["ok"] and j["traced"] == traced]

    def samples(self):
        """Per-sample values of each end-to-end metric, from untraced jobs."""
        jobs = self.good(False)
        return {
            "setup_s": self.setup_s,
            "run_s": [j["wall_s"] for j in jobs],
            "peak_rss_mb": [j["peak_rss_mb"] for j in jobs],
            "train_pairs_per_s": [j["train_pairs_per_s"] for j in jobs],
        }

    def layer_samples(self):
        """Per-traced-job values of each per-layer metric."""
        untraced = median([j["wall_s"] for j in self.good(False)])
        out = {}
        for job in self.good(True):
            m = layers.layer_metrics(job["trace"], job["wall_s"])
            m["cli.import_s"] = job["import_s"]
            m["host.probe_ms"] = job["probe_ms"]
            for key in ("dni", "dni_avgsize", "dni_kcore"):
                m[f"evaluation.{key}"] = job["facts"].get(key, 0)
            m["trace.run_s"] = job["wall_s"]
            m["trace.untraced_run_s"] = untraced
            m["trace.overhead_s"] = job["wall_s"] - untraced
            for key, value in m.items():
                out.setdefault(key, []).append(value)
        return out

    def result(self, spec):
        """The result line: every metric of the run's mode, by BENCHMARK.json."""
        if self.jobs:
            attempted, failed = len(self.jobs), len([j for j in self.jobs if not j["ok"]])
        else:
            attempted, failed = 1, 1  # set-up failed
        samples = self.layer_samples() if self.trace else self.samples()
        wanted = spec["per_layer" if self.trace else "end_to_end"]
        missing = [m["name"] for m in wanted if not samples.get(m["name"])]
        if missing and not failed:
            self.errors.append(f"no samples for {missing}")
        metrics = {}
        if not failed and not missing:
            metrics = {m["name"]: {"value": median(samples[m["name"]]), "unit": m["unit"]}
                       for m in wanted}
        return {
            "correct": not failed and not self.errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }, samples

    def table(self, spec, result, samples):
        mode = "per_layer" if self.trace else "end_to_end"
        lines = [f"# {self.workload.name} seed={self.seed} trace={int(self.trace)} "
                 f"jobs={len(self.jobs)} failed={result['failed']}"]
        lines += [f"# error: {e}" for e in self.errors]
        lines.append(f"{'metric':34} {'median':>14} {'unit':8} {'n':>5}  tail")
        for m in spec[mode]:
            values = samples.get(m["name"], [])
            t = tail(values)
            tail_text = f"p{t[0]:.1f}={t[1]:.6g}" if t else "-"
            lines.append(f"{m['name']:34} {median(values):14.6g} {m['unit']:8} {len(values):5}  {tail_text}")
        if not self.trace and self.first:
            facts = self.first[1]
            quality = "  ".join(f"{k}={facts[k]}" for k in ("dni", "dni_avgsize", "dni_kcore") if k in facts)
            lines.append(f"# quality (exact counts): {quality}")
            lines.append(f"# host.probe_ms median {median([j['probe_ms'] for j in self.jobs]):.3f}")
        lines.append(f"# error_rate {result['failed']}/{result['attempted']}")
        if self.trace and samples.get("trace.run_s"):
            selfs = sum(median(samples[f"{layer}.self_s"]) for layer in (*layers.LAYERS, "cli"))
            lines.append(f"# layer self times sum to {selfs:.4f} s of traced run_s "
                         f"{median(samples['trace.run_s']):.4f} s")
        return "\n".join(lines)


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="60-node corpora, for tests")
    return parser.parse_args(argv)


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "iminfector", "cli.py")):
        print(f"perfbench: no iminfector sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    args = parse_args(argv, list(workloads.WORKLOADS))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    table = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    names = list(table) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_BUDGET_S * len(names)
    runs = [WorkloadRun(table[n], args.seed, bool(args.trace), deadline) for n in names]
    env = environment(args)
    live = []
    for run in runs:
        try:
            run.set_up()
            live.append(run)
        except (checks.CheckFailed, Deadline) as exc:
            run.errors.append(f"set-up: {exc}")
    min_rounds = 2 if args.trace or args.smoke else 1
    rounds = 0
    start = time.monotonic()
    try:
        while live:
            for run in live:
                run.run_job(traced=bool(args.trace) and len(run.jobs) % 2 == 1)
            rounds += 1
            elapsed = time.monotonic() - start
            if rounds >= min_rounds and elapsed + elapsed / rounds > args.seconds:
                break
    except Deadline as exc:
        for run in live:
            run.errors.append(str(exc))

    results = {}
    for run in runs:
        result, samples = run.result(spec)
        results[run.workload.name] = result
        print(run.table(spec, result, samples))
        record = {"env": env, "result": result, "samples": samples, "errors": run.errors,
                  "jobs": run.jobs}
        shutil.rmtree(run.dir, ignore_errors=True)
        os.makedirs(run.dir)
        with open(os.path.join(run.dir, "result.json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    print("# env " + json.dumps(env, sort_keys=True))
    if len(runs) == 1:
        final = results[runs[0].workload.name]
    else:
        final = {"workloads": results}
    print(json.dumps(final))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
