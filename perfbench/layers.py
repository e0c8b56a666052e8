"""Layer spans for the traced run, recorded from outside the program.

The traced job replaces module attributes of ``iminfector`` with timing
wrappers before any subcommand runs. Each wrapper sits on the name the
program looks up at call time: ``iminfector.cli.train`` for the pipeline's
train stage, ``iminfector.model.step_classify`` for the steps ``train``
takes, ``iminfector.seeding.sigma`` for the evaluations CELF makes. The
source tree is untouched.

A span's self time is its duration minus the time of the spans it caused.
Per-step and per-sigma spans are only aggregated (count, total, and for
steps the individual durations), so the stored span list stays small.
"""

import importlib
import math
import time

# (module, attribute, span name, kind). Several attributes may feed one
# span name. Kind "span" keeps every span in the list, "step" keeps the
# durations for percentiles, "tally" keeps count and total only.
WRAPPED = (
    ("iminfector.cli", "load_cascades", "cascades.parse", "span"),
    ("iminfector.cascades", "load_cascades", "cascades.parse", "span"),
    ("iminfector.cli", "load_edges", "cascades.edges", "span"),
    ("iminfector.cli", "temporal_split", "cascades.split", "span"),
    ("iminfector.cli", "save_cascades", "cascades.save", "span"),
    ("iminfector.cli", "initiator_stats", "cascades.stats", "span"),
    ("iminfector.cli", "build_training_stream", "context.stream", "span"),
    ("iminfector.context", "build_training_stream", "context.stream", "span"),
    ("iminfector.cli", "init_model", "model.init", "span"),
    ("iminfector.cli", "train", "model.train", "span"),
    ("iminfector.model", "step_classify", "model.classify", "step"),
    ("iminfector.model", "step_regress", "model.regress", "tally"),
    ("iminfector.cli", "save_embeddings", "model.save", "span"),
    ("iminfector.cli", "build_matrix", "diffusion.build", "span"),
    ("iminfector.cli", "compute_budgets", "diffusion.build", "span"),
    ("iminfector.cli", "save_matrix", "diffusion.save", "span"),
    ("iminfector.cli", "select_seeds_celf", "seeding.celf", "span"),
    ("iminfector.seeding", "sigma", "seeding.sigma", "tally"),
    ("iminfector.cli", "save_seeds", "seeding.save", "span"),
    ("iminfector.cli", "load_seed_ids", "seeding.load", "span"),
    ("iminfector.cli", "dni", "evaluation.dni", "span"),
    ("iminfector.cli", "avg_size_ranking", "evaluation.avgsize", "span"),
    ("iminfector.cli", "kcore_ranking", "evaluation.kcore", "span"),
)

LAYERS = ("cascades", "context", "model", "diffusion", "seeding", "evaluation")


def _events(result):
    return sum(len(c.events) for c in result.cascades)


def _train_shape(result):
    model, _ = result
    return model.embed_dim, model.n_nodes


# Work counted from a wrapped call's return value, after its span closes.
COUNTERS = {
    "cascades.parse": ("cascades.events", _events),
    "context.stream": ("context.pairs", len),
    # compute_budgets shares the span and returns budgets, not a matrix
    "diffusion.build": ("diffusion.candidates", lambda r: getattr(r, "n_candidates", 0)),
    "seeding.celf": ("seeding.seeds", lambda r: len(r.seeds)),
}


class Tracer:
    """Span recorder shared by every wrapper of one job process."""

    def __init__(self):
        self.open = []  # child seconds accumulated by each open span
        self.totals = {}  # span name -> [calls, seconds, self seconds]
        self.spans = []  # (name, start, end, parent index or -1)
        self.span_stack = []  # index into self.spans for each open "span" kind
        self.steps = {}  # span name -> durations
        self.counts = {}
        self.top_level_s = 0.0
        self.train_shape = None

    def _wrap(self, fn, name, kind):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        durations = self.steps.setdefault(name, []) if kind == "step" else None
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        keep = kind == "span"

        def traced(*args, **kwargs):
            children = [0.0]
            self.open.append(children)
            if keep:
                parent = self.span_stack[-1] if self.span_stack else -1
                self.spans.append(None)
                self.span_stack.append(len(self.spans) - 1)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                self.open.pop()
                totals[0] += 1
                totals[1] += dt
                totals[2] += dt - children[0]
                if self.open:
                    self.open[-1][0] += dt
                else:
                    self.top_level_s += dt
                if durations is not None:
                    durations.append(dt)
                if keep:
                    self.spans[self.span_stack.pop()] = (name, start, start + dt, parent)
            if counter is not None:
                key, count = counter
                self.counts[key] = self.counts.get(key, 0) + count(result)
            if name == "model.train":
                self.train_shape = _train_shape(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every attribute in WRAPPED with its timing wrapper."""
        for module_name, attr, name, kind in WRAPPED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(getattr(module, attr), name, kind))

    def report(self):
        """Plain-data summary written into the job report."""
        return {
            "totals": self.totals,
            "counts": self.counts,
            "steps": {name: step_summary(d) for name, d in self.steps.items()},
            "spans": self.spans,
            "top_level_s": self.top_level_s,
            "train_shape": self.train_shape,
        }


def percentile(ordered, q):
    """Nearest-rank percentile of sorted values, q in (0, 100]."""
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1]


def tail_quantile(n):
    """Highest percentile with at least ten of n samples above it, or None."""
    return 100.0 * (n - 10) / n if n > 10 else None


def step_summary(durations):
    """Count, total and percentiles (in microseconds) of per-step durations."""
    us = sorted(dt * 1e6 for dt in durations)
    q = tail_quantile(len(us))
    return {
        "n": len(us),
        "total_s": sum(durations),
        "p50_us": percentile(us, 50) if us else 0.0,
        "p99_us": percentile(us, 99) if us else 0.0,
        "tail_q": q,
        "tail_us": percentile(us, q) if q else None,
    }


def classify_flops(embed_dim, n_nodes):
    """Floating-point operations of one step_classify, computed from E and N.

    Two E x N matrix-vector products (logits and grad_O_u) at 2EN each, the
    outer product, its scaling and the T update at EN each: 7EN. The
    softmax, loss, gradient and bias update add about 8N. Cache misses and
    the finiteness scans are not counted.
    """
    return 7 * embed_dim * n_nodes + 8 * n_nodes


def layer_metrics(trace, run_s):
    """Per-layer metrics of one traced job whose wall time was ``run_s``."""
    totals = trace["totals"]
    counts = trace["counts"]

    def total(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    steps = trace["steps"].get("model.classify") or step_summary([])
    classify_s = total("model.classify")
    gflops = 0.0
    if steps["n"] and trace["train_shape"]:
        embed_dim, n_nodes = trace["train_shape"]
        gflops = steps["n"] * classify_flops(embed_dim, n_nodes) / classify_s / 1e9
    sigma_calls = calls("seeding.sigma")
    seeds = counts.get("seeding.seeds", 0)
    m = {
        "cascades.parse_s": total("cascades.parse"),
        "cascades.events": counts.get("cascades.events", 0),
        "cascades.edges_s": total("cascades.edges"),
        "cascades.split_s": total("cascades.split"),
        "cascades.save_s": total("cascades.save"),
        "cascades.stats_s": total("cascades.stats"),
        "context.stream_s": total("context.stream"),
        "context.streams": calls("context.stream"),
        "context.pairs": counts.get("context.pairs", 0),
        "model.train_s": total("model.train"),
        "model.classify_steps": steps["n"],
        "model.classify_s": classify_s,
        "model.classify_step_us.p50": steps["p50_us"],
        "model.classify_step_us.p99": steps["p99_us"],
        "model.classify_gflops": gflops,
        "model.regress_steps": calls("model.regress"),
        "model.regress_s": total("model.regress"),
        "model.loop_self_s": totals.get("model.train", [0, 0.0, 0.0])[2],
        "model.save_s": total("model.save"),
        "diffusion.build_s": total("diffusion.build"),
        "diffusion.candidates": counts.get("diffusion.candidates", 0),
        "diffusion.save_s": total("diffusion.save"),
        "seeding.celf_s": total("seeding.celf"),
        "seeding.sigma_calls": sigma_calls,
        "seeding.seeds": seeds,
        "seeding.sigma_calls_per_seed": sigma_calls / seeds if seeds else 0.0,
        "evaluation.dni_s": total("evaluation.dni"),
        "evaluation.avgsize_s": total("evaluation.avgsize"),
        "evaluation.kcore_s": total("evaluation.kcore"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            t[2] for name, t in totals.items() if name.startswith(layer + ".")
        )
    # Everything outside the wrapped calls: interpreter start, imports,
    # argument parsing, manifests and their sha256, result files.
    m["cli.self_s"] = run_s - trace["top_level_s"]
    return m
