"""Run-to-run spread of the end-to-end metrics across workload seeds.

    python3 perfbench/spread.py --workloads ref-300,wide-3000 --seeds 1-10 [--out FILE]

Runs run.py once per seed and workload, one run at a time, with
BENCHMARK.json's run_seconds; the workloads take turns within each seed so
that slow spells of the host fall on all of them. For each workload and
end-to-end metric it prints the median of the runs
and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound; a spread above a third of its bound is flagged. Every
run's result line, with the environment, goes to FILE when given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", type=lambda text: text.split(","), required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    runs = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for workload in args.workloads:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            env = next((json.loads(l[6:]) for l in lines if l.startswith("# env ")), None)
            result = json.loads(lines[-1]) if lines else None
            runs[workload].append({"seed": seed, "exit": proc.returncode, "env": env, "result": result})
            values = {k: round(v["value"], 4) for k, v in (result or {}).get("metrics", {}).items()}
            print(f"{workload} seed {seed}: exit {proc.returncode} {values}", flush=True)

    ok = all(r["exit"] == 0 and r["result"]["correct"] for rs in runs.values() for r in rs)
    summary = {}
    for workload, rs in runs.items():
        print(f"{workload:22} {'median':>14} {'spread':>8} {'bound':>6}")
        summary[workload] = {}
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in rs if r["exit"] == 0]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[workload][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                            "n": len(values)}
            flag = "" if spread < m["bound"] / 3 else "  above a third of the bound"
            print(f"  {m['name']:20} {med:14.6g} {spread:8.4f} {m['bound']:6.2f}{flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"all_correct": ok, "summary": summary, "runs": runs}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
