"""The INFV1 and DPM1 byte layouts, packed by hand from the README's table.

Each test packs a small file with ``struct``, field by field, and checks
that the save function writes exactly those bytes and that the load
function reads them back.
"""

import struct

import numpy as np

from iminfector.diffusion import DiffusionMatrix, SpreadBudget, load_matrix, save_matrix
from iminfector.model import InfectorModel, load_embeddings, save_embeddings


def id_table(ids):
    """Each id as a little-endian u32 byte length, then its UTF-8 bytes."""
    return b"".join(struct.pack("<I", len(s.encode())) + s.encode() for s in ids)


def f64s(values):
    values = np.asarray(values, dtype=float).ravel().tolist()
    return struct.pack(f"<{len(values)}d", *values)


def test_infv1_layout(tmp_path):
    E, I, N = 2, 2, 3
    O = [[0.5, -1.25], [3.0, 0.125]]  # I x E
    T = [[1.0, 2.0, -3.0], [0.25, -0.5, 4.0]]  # E x N
    b_t, b_c = [0.1, -0.2, 0.3], -0.75
    influencers, nodes = ["u1", "é"], ["é", "u1", "v22"]  # "é" is 2 UTF-8 bytes
    packed = (
        b"INFV1"
        + struct.pack("<3Q", E, I, N)
        + f64s(O) + f64s(T) + f64s(b_t) + f64s([b_c])
        + id_table(influencers) + id_table(nodes)
    )
    model = InfectorModel(
        np.array(O), np.array(T), np.array(b_t), b_c, np.ones(E), influencers, nodes
    )
    path = tmp_path / "m.infv"
    save_embeddings(model, path)
    assert path.read_bytes() == packed
    path.write_bytes(packed)
    loaded = load_embeddings(path)
    for name in ("O", "T", "b_t", "C"):
        assert np.array_equal(getattr(loaded, name), getattr(model, name)), name
    assert loaded.b_c == b_c
    assert (loaded.influencer_ids, loaded.node_ids) == (influencers, nodes)


def test_dpm1_layout(tmp_path):
    n, N = 2, 3
    ids = ["é", "u1"]
    norms, lambdas = [2.0, 1.5], [2, 1]
    probs = [[0.5, 0.25, 0.25], [0.125, 0.375, 0.5]]  # rows sum to 1 exactly
    packed = (
        b"DPM1"
        + struct.pack("<2Q", n, N)
        + id_table(ids)
        + f64s(norms)
        + struct.pack(f"<{n}Q", *lambdas)
        + f64s(probs)
    )
    matrix = DiffusionMatrix(candidate_ids=ids, probs=np.array(probs), norms=np.array(norms))
    path = tmp_path / "d.bin"
    save_matrix(matrix, SpreadBudget(lambdas=np.array(lambdas, dtype=np.int64)), path)
    assert path.read_bytes() == packed
    path.write_bytes(packed)
    loaded, budgets = load_matrix(path)
    assert loaded.candidate_ids == ids
    assert np.array_equal(loaded.norms, norms) and np.array_equal(loaded.probs, probs)
    assert budgets.lambdas.tolist() == lambdas and budgets.lambdas.dtype == np.int64
