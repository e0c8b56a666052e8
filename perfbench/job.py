"""One benchmark job, run in a fresh process by run.py.

Usage: python3 perfbench/job.py SPEC_JSON

SPEC_JSON holds ``src`` (the directory holding the ``iminfector``
package), ``steps``, ``trace`` and ``report`` (where to write the job
report). A step is either ``{"argv": [...]}``, run through
``iminfector.cli.main`` in this process as a user's command would be, or
``{"stream": {"train": PATH, "oversample": X, "rng_seed": S}}``, which
parses a train split and builds one epoch's training stream through the
public functions.

The report records each step's exit code and printed output, the stream
size and the time from the train split file to the stream, the import
time, the peak RSS of this process, and, when traced, the layer spans.
The process exits 1 if any step exits non-zero.
"""

import contextlib
import io
import json
import resource
import sys
import time


def run_steps(steps):
    from iminfector import cascades, cli, context

    results = []
    stream = None
    for step in steps:
        if "argv" in step:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(step["argv"])
            results.append(
                {"argv": step["argv"], "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
            )
        else:
            s = step["stream"]
            t0 = time.perf_counter()
            train = cascades.load_cascades(s["train"])
            pairs = context.build_training_stream(train, s["oversample"], s["rng_seed"])
            stream = {"pairs": len(pairs), "seconds": time.perf_counter() - t0}
    return results, stream


def main(argv):
    spec = json.loads(argv[1])
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import iminfector.cli  # noqa: F401  (timed: the job pays for its imports)

    import_s = time.perf_counter() - t0
    tracer = None
    if spec["trace"]:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    results, stream = run_steps(spec["steps"])
    report = {
        "steps": results,
        "stream": stream,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.report() if tracer else None,
    }
    with open(spec["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0 if all(r["rc"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
