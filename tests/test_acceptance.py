"""Acceptance suite: eight end-to-end criteria with stated tolerances.

Each test prints one `acceptance N: PASS/FAIL - ...` line straight to the
terminal (bypassing capture) so a full `pytest` run shows the verdicts.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from iminfector.cascades import parse_cascades
from iminfector.cli import main
from iminfector.context import build_training_stream
from iminfector.diffusion import DiffusionMatrix
from iminfector.evaluation import dni
from iminfector.model import (
    ModelConfig,
    forward_classify,
    init_model,
    load_embeddings,
    step_classify,
    step_regress,
)
from iminfector.seeding import select_seeds_celf, select_seeds_naive, sigma
from iminfector.synth import planted_ids

INSTANCE_SEED = 7070  # criteria 3 and 4 must run on the same 200 instances


class acceptance:
    """Context manager printing the verdict line for one criterion."""

    def __init__(self, capsys, number, description):
        self.capsys = capsys
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        with self.capsys.disabled():
            print(f"acceptance {self.number}: {verdict} - {self.description}")
        return False


def ids(prefix, n):
    return [f"{prefix}{i}" for i in range(n)]


def walkthrough_instance():
    probs = np.array(
        [
            [0.1, 0.3, 0.2, 0.2, 0.2],
            [0.4, 0.2, 0.2, 0.1, 0.2],
            [0.5, 0.1, 0.2, 0.2, 0.0],
        ]
    )
    mat = DiffusionMatrix(
        candidate_ids=["S1", "S2", "S3"],
        probs=probs,
        norms=np.ones(3),
    )
    return mat, np.array([2, 2, 3])


def random_instance(rng):
    n = int(rng.integers(1, 21))
    N = int(rng.integers(2, 51))
    probs = rng.random((n, N)) + 1e-12
    probs /= probs.sum(axis=1, keepdims=True)
    mat = DiffusionMatrix(
        candidate_ids=[f"u{i:03d}" for i in range(n)],
        probs=probs,
        norms=rng.random(n) + 0.01,
    )
    return mat, rng.integers(1, N + 1, size=n)


def test_acceptance_1_walkthrough(capsys):
    with acceptance(capsys, 1, "two-seed walkthrough exact to 1e-12, under 1 ms"):
        mat, bud = walkthrough_instance()
        select_seeds_celf(mat, bud, 2)  # warm-up, timing below
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            sel = select_seeds_celf(mat, bud, 2)
            best = min(best, time.perf_counter() - t0)
        assert sel.seed_ids() == ["S3", "S1"]
        assert abs(sel.seeds[0].spread - 0.9) <= 1e-12
        assert abs(sel.seeds[1].spread - 0.5) <= 1e-12
        assert best < 1e-3


def test_acceptance_2_gradients(capsys):
    with acceptance(capsys, 2, "analytic gradients match finite differences on 50 models"):
        t0 = time.perf_counter()

        def nll(O, T, b_t, u, y):
            z = O[u] @ T + b_t
            z = z - z.max()
            p = np.exp(z)
            return -math.log(p[y] / p.sum())

        def sq(O, b_c, u, y_c):
            z = float(O[u].sum()) + b_c
            phi = 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))
            return (y_c - phi) ** 2

        def central(f, x, h=1e-5):
            g = np.zeros_like(x)
            flat, gf = x.reshape(-1), g.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                hi = f()
                flat[i] = keep - h
                lo = f()
                flat[i] = keep
                gf[i] = (hi - lo) / (2 * h)
            return g

        def close(analytic, fd):
            return (np.abs(analytic - fd) <= 1e-4 * np.maximum(1.0, np.abs(fd))).all()

        rng = np.random.default_rng(100)
        for _ in range(50):
            I, N, E = (int(rng.integers(1, k)) for k in (6, 9, 7))
            N = max(N, 2)
            m = init_model(ModelConfig(embed_dim=E, rng_seed=0), ids("u", I), ids("v", N))
            m.O += rng.normal(0, 0.5, m.O.shape)
            m.T += rng.normal(0, 0.5, m.T.shape)
            m.b_t += rng.normal(0, 0.2, m.b_t.shape)
            m.b_c = float(rng.normal(0, 0.2))
            u, y = int(rng.integers(0, I)), int(rng.integers(0, N))
            y_c = float(rng.uniform(0, 1))

            O0, T0, bt0, bc0 = m.O.copy(), m.T.copy(), m.b_t.copy(), m.b_c
            step_classify(m, u, y, lr=1.0)
            assert close(O0 - m.O, central(lambda: nll(O0, T0, bt0, u, y), O0))
            assert close(T0 - m.T, central(lambda: nll(O0, T0, bt0, u, y), T0))
            assert close(bt0 - m.b_t, central(lambda: nll(O0, T0, bt0, u, y), bt0))

            m.O[:], m.T[:], m.b_t[:], m.b_c = O0, T0, bt0, bc0
            step_regress(m, u, y_c, lr=1.0)
            box = np.array([bc0])
            assert close(O0 - m.O, central(lambda: sq(O0, float(box[0]), u, y_c), O0))
            assert close(
                np.array([bc0 - m.b_c]), central(lambda: sq(O0, float(box[0]), u, y_c), box)
            )

        # collapsed softmax/NLL gradient equals the explicit Jacobian product
        m = init_model(ModelConfig(embed_dim=4, rng_seed=1), ids("u", 2), ids("v", 5))
        m.O += np.random.default_rng(2).normal(0, 0.5, m.O.shape)
        m.T += np.random.default_rng(3).normal(0, 0.5, m.T.shape)
        phi = forward_classify(m, 0)
        y = 3
        J = np.diag(phi) - np.outer(phi, phi)
        dl_dphi = np.zeros(5)
        dl_dphi[y] = -1.0 / phi[y]
        collapsed = phi.copy()
        collapsed[y] -= 1.0
        assert np.abs(dl_dphi @ J - collapsed).max() <= 1e-10
        assert time.perf_counter() - t0 < 10.0


def test_acceptance_3_submodularity(capsys):
    with acceptance(capsys, 3, "greedy marginals non-negative and non-increasing, exact"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(INSTANCE_SEED)
        for _ in range(200):
            mat, bud = random_instance(rng)
            size = min(10, mat.n_candidates)
            sel = select_seeds_naive(mat, bud, size)
            spreads = [s.spread for s in sel.seeds]
            assert all(sp >= 0.0 for sp in spreads)
            infected = set()
            frontiers = []
            for s in sel.seeds:
                frontiers.append(
                    np.array(sorted(set(range(mat.n_nodes)) - infected), dtype=np.int64)
                )
                infected |= set(s.influenced)
            for cand in range(mat.n_candidates):
                previous = math.inf
                for F in frontiers:
                    spread, _ = sigma(mat, bud, cand, F)
                    assert spread <= previous
                    previous = spread
        assert time.perf_counter() - t0 < 5.0


def test_acceptance_4_celf_equals_naive(capsys):
    with acceptance(capsys, 4, "lazy greedy identical to naive greedy on 200 instances"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(INSTANCE_SEED)
        for _ in range(200):
            mat, bud = random_instance(rng)
            size = min(10, mat.n_candidates)
            lazy = select_seeds_celf(mat, bud, size)
            naive = select_seeds_naive(mat, bud, size)
            assert [s.candidate for s in lazy.seeds] == [s.candidate for s in naive.seeds]
            assert [s.spread for s in lazy.seeds] == [s.spread for s in naive.seeds]
        assert time.perf_counter() - t0 < 10.0


def test_acceptance_5_sampling_law(capsys):
    with acceptance(capsys, 5, "context frequencies within 3 SE of the inverse-delay law"):
        t0 = time.perf_counter()
        corpus = parse_cascades(["u:0\ta:2 b:4\n"])
        n_draws = 100_000
        stream = build_training_stream(corpus, oversample=n_draws / 2, rng_seed=0)
        contexts = stream.context.tolist()
        assert len(contexts) == n_draws
        freq_a = contexts.count(corpus.node_index["a"]) / n_draws
        p = 2 / 3
        se = math.sqrt(p * (1 - p) / n_draws)
        assert abs(freq_a - p) <= 3 * se
        assert time.perf_counter() - t0 < 1.0


def test_acceptance_6_end_to_end_synthetic(capsys, tmp_path):
    with acceptance(capsys, 6, "planted influencers learned and seeded on >= 9/10 rng seeds"):
        t0 = time.perf_counter()
        passed = 0
        for seed in range(10):
            base = tmp_path / f"s{seed}"
            base.mkdir()
            cascades = base / "cascades.txt"
            assert main(["synth", "--rng-seed", str(seed), "--out", str(cascades)]) == 0
            assert main(
                ["pipeline", "--cascades", str(cascades), "--outdir", str(base / "run"),
                 "--rng-seed", str(seed)]
            ) == 0
            with open(base / "run" / "manifest.json", encoding="utf-8") as fh:
                doc = json.load(fh)

            losses = doc["epoch_loss_classify"]
            a = len(losses) == 5 and all(b < a_ for a_, b in zip(losses, losses[1:]))

            model = load_embeddings(base / "run" / "model.infv")
            norms = np.linalg.norm(model.O, axis=1)
            ids = model.influencer_ids
            order = sorted(range(len(ids)), key=lambda u: (-norms[u], ids[u]))
            cutoff = math.ceil(0.1 * len(ids))
            top = {ids[u] for u in order[:cutoff]}
            b = set(planted_ids(5)) <= top

            c = doc["dni"] >= doc["dni_avgsize"]
            passed += a and b and c
        assert passed >= 9
        assert time.perf_counter() - t0 < 120.0


def test_acceptance_7_dni_oracle(capsys):
    with acceptance(capsys, 7, "dni equals brute-force set union on 100 configurations"):
        rng = np.random.default_rng(11)
        names = [f"v{i}" for i in range(25)]
        for _ in range(100):
            lines = []
            for _ in range(int(rng.integers(1, 15))):
                initiator = names[int(rng.integers(0, 25))]
                start = int(rng.integers(0, 50))
                others = [x for x in names if x != initiator]
                chosen = rng.choice(others, size=int(rng.integers(1, 6)), replace=False)
                events = " ".join(f"{v}:{start + int(rng.integers(1, 9))}" for v in chosen)
                lines.append(f"{initiator}:{start}\t{events}\n")
            test = parse_cascades(lines)
            seeds = [names[int(rng.integers(0, 25))] for _ in range(int(rng.integers(0, 8)))]
            expected = set()
            for c in test.cascades:
                if c.initiator in seeds:
                    expected |= {node for node, _ in c.events}
            assert dni(seeds, test).dni == len(expected)


def test_acceptance_8_scope_statement(capsys):
    description = (
        "full-scale social-media datasets are not reproduced at desk scale; "
        "criteria 1-7 stand in with property-based and golden-example checks"
    )
    with acceptance(capsys, 8, description):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        assert "not reproduced" in readme.read_text(encoding="utf-8")
