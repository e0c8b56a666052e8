"""Norm pruning, spread budgets, and the diffusion-matrix file format."""

import tracemalloc

import numpy as np
import pytest

from iminfector.diffusion import (
    DiffusionMatrix,
    build_matrix,
    compute_budgets,
    load_matrix,
    save_matrix,
)
from iminfector.exceptions import AllZeroNorms, CorruptFile, FormatVersionMismatch
from iminfector.model import InfectorModel, ModelConfig, forward_classify, init_model


def model_from_rows(rows, ids=None, n_nodes=3):
    O = np.array(rows, dtype=np.float64)
    E = O.shape[1]
    ids = ids or [f"u{i}" for i in range(len(O))]
    rng = np.random.default_rng(0)
    return InfectorModel(
        O=O,
        T=rng.normal(0, 0.3, (E, n_nodes)),
        b_t=np.zeros(n_nodes),
        b_c=0.0,
        C=np.ones(E),
        influencer_ids=ids,
        node_ids=[f"v{i}" for i in range(n_nodes)],
    )


def test_prune_count_large():
    rng = np.random.default_rng(0)
    m = model_from_rows(rng.normal(0, 1, (537, 2)))
    mat = build_matrix(m, 40.0)
    # ceil(40 * 537 / 100) = ceil(214.8)
    assert mat.n_candidates == 215


def test_prune_keeps_top_norms_ties_by_id():
    m = model_from_rows([[3.0], [1.0], [2.0], [2.0]], ids=["d", "a", "c", "b"])
    mat = build_matrix(m, 75.0)
    assert mat.n_candidates == 3
    assert mat.candidate_ids == ["d", "b", "c"]
    assert np.allclose(mat.norms, [3.0, 2.0, 2.0])


def test_rows_are_softmax_distributions():
    rng = np.random.default_rng(5)
    m = model_from_rows(rng.normal(0, 1, (6, 4)), n_nodes=9)
    mat = build_matrix(m, 50.0)
    assert mat.probs.shape == (3, 9)
    assert np.allclose(mat.probs.sum(axis=1), 1.0, atol=1e-12)
    assert (mat.probs > 0).all()


def test_build_matrix_holds_one_matrix():
    # 100 candidates x 20,000 nodes, a 15.3 MiB matrix. Each row is filled
    # in place: the peak measured 17.3 MiB, the matrix plus the finiteness
    # check's boolean temporary, against 30.6 MiB when the rows were kept
    # in a list and stacked.
    model = init_model(ModelConfig(embed_dim=8, rng_seed=3), [f"u{i}" for i in range(1000)],
                       [f"v{i}" for i in range(20000)])
    tracemalloc.start()
    try:
        mat = build_matrix(model, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mat.probs.shape == (100, 20000)
    assert peak < 1.25 * mat.probs.nbytes
    # the rows are forward_classify's, bit for bit
    rows = [model.influencer_ids.index(u) for u in mat.candidate_ids[:3]]
    assert np.array_equal(mat.probs[:3], [forward_classify(model, u) for u in rows])


def test_prune_percent_validation():
    m = model_from_rows([[1.0]])
    for bad in [0.0, -5.0, 100.5]:
        with pytest.raises(ValueError):
            build_matrix(m, bad)
    assert build_matrix(m, 100.0).n_candidates == 1


def test_budget_values():
    mat = DiffusionMatrix(
        candidate_ids=["a", "b"],
        probs=np.full((2, 5), 0.2),
        norms=np.array([1.0, 3.0]),
    )
    lam = compute_budgets(mat)
    # ceil(5/4) = 2, ceil(15/4) = 4, with N = 5 the matrix's node count
    assert lam.tolist() == [2, 4] and lam.dtype == np.int64


def test_budget_uniform_norms_stay_at_exact_share():
    mat = DiffusionMatrix(
        candidate_ids=["a", "b", "c"],
        probs=np.full((3, 3), 1 / 3),
        norms=np.ones(3),
    )
    # 3 * 1 / 3 = 1 exactly; float slack must not push it to 2
    assert compute_budgets(mat).tolist() == [1, 1, 1]


def test_budget_clamped_to_one():
    mat = DiffusionMatrix(
        candidate_ids=["a", "b"],
        probs=np.full((2, 4), 0.25),
        norms=np.array([1e-9, 10.0]),
    )
    lam = compute_budgets(mat)
    assert lam[0] == 1


def test_budget_all_zero_norms():
    mat = DiffusionMatrix(
        candidate_ids=["a"],
        probs=np.full((1, 2), 0.5),
        norms=np.zeros(1),
    )
    with pytest.raises(AllZeroNorms):
        compute_budgets(mat)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    for trial in range(5):
        n, N = int(rng.integers(1, 6)), int(rng.integers(2, 8))
        probs = rng.random((n, N))
        probs /= probs.sum(axis=1, keepdims=True)
        mat = DiffusionMatrix(
            candidate_ids=[f"u{i}" for i in range(n)],
            probs=probs,
            norms=rng.random(n) + 0.1,
        )
        bud = compute_budgets(mat)
        path = tmp_path / f"d{trial}.bin"
        save_matrix(mat, bud, path)
        back, bud2 = load_matrix(path)
        assert back.candidate_ids == mat.candidate_ids
        assert (back.probs == mat.probs).all()
        assert (back.norms == mat.norms).all()
        assert (bud2 == bud).all()


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"INFV1" + b"\x00" * 32)  # an embeddings file, not a matrix
    with pytest.raises(FormatVersionMismatch):
        load_matrix(path)


def test_load_rejects_truncation_and_trailing(tmp_path):
    mat = DiffusionMatrix(
        candidate_ids=["a", "b"],
        probs=np.full((2, 3), 1 / 3),
        norms=np.array([1.0, 2.0]),
    )
    path = tmp_path / "d.bin"
    save_matrix(mat, compute_budgets(mat), path)
    blob = path.read_bytes()
    for cut in [8, len(blob) // 2, len(blob) - 2]:
        clipped = tmp_path / "clip.bin"
        clipped.write_bytes(blob[:cut])
        with pytest.raises(CorruptFile):
            load_matrix(clipped)
    padded = tmp_path / "pad.bin"
    padded.write_bytes(blob + b"!")
    with pytest.raises(CorruptFile):
        load_matrix(padded)
