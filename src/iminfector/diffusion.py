"""Diffusion-probability matrix: norm pruning and per-candidate budgets.

Candidates are the trained influencer rows, ranked by the Euclidean norm of
their source embedding. The top P percent are kept; each keeps a softmax
row over all nodes as its diffusion probabilities, and a budget lambda_u
proportional to its share of the total candidate norm.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .exceptions import AllZeroNorms, CorruptFile, FormatVersionMismatch, NonFiniteMatrix
from .model import forward_classify
from ._util import atomic_write, pack_ids, read_ids, slack_ceil, take

MAGIC = b"DPM1"


@dataclass
class DiffusionMatrix:
    candidate_ids: list  # id strings, pruned order
    probs: np.ndarray  # one softmax distribution over the N nodes per candidate
    norms: np.ndarray  # Euclidean norm of O_u per candidate

    @property
    def n_candidates(self):
        return len(self.candidate_ids)

    @property
    def n_nodes(self):
        return self.probs.shape[1]


@dataclass
class SpreadBudget:
    lambdas: np.ndarray  # positive ints, one per candidate


def build_matrix(model, prune_percent):
    """Keep the top ceil(P * I / 100) influencers by embedding norm.

    Order is norm descending, ties by id ascending (index ascending when the
    model carries no id table). Rows are forward_classify outputs, so they
    match the training-time softmax bit for bit. A kept norm or row that is
    not finite (the model's values overflow) raises NonFiniteMatrix.
    """
    if not 0.0 < prune_percent <= 100.0:
        raise ValueError(f"prune_percent must be in (0, 100], got {prune_percent}")
    I = model.n_influencers
    # an overflow is reported below as NonFiniteMatrix, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(model.O, axis=1)
    if model.influencer_ids is not None:
        order = sorted(range(I), key=lambda u: (-norms[u], model.influencer_ids[u]))
    else:
        order = sorted(range(I), key=lambda u: (-norms[u], u))
    kept = order[: slack_ceil(prune_percent * I / 100.0)]
    if model.influencer_ids is not None:
        ids = [model.influencer_ids[u] for u in kept]
    else:
        ids = [str(u) for u in kept]
    with np.errstate(over="ignore", invalid="ignore"):
        probs = np.stack([forward_classify(model, u) for u in kept])
    if not (np.isfinite(norms[kept]).all() and np.isfinite(probs).all()):
        raise NonFiniteMatrix("a candidate's norm or diffusion probabilities overflow")
    return DiffusionMatrix(candidate_ids=ids, probs=probs, norms=norms[kept].copy())


def compute_budgets(matrix, n_nodes):
    """lambda_u = ceil(N * norm_u / sum of candidate norms), clamped to >= 1.

    The denominator runs over the pruned candidate set. A zero-norm
    candidate would get ceil(0) = 0 and sit inert in the queue forever, so
    it is clamped to 1.
    """
    total = math.fsum(matrix.norms)
    if total == 0.0:
        raise AllZeroNorms("every candidate has a zero-norm embedding")
    lambdas = np.array(
        [max(1, slack_ceil(n_nodes * norm / total)) for norm in matrix.norms],
        dtype=np.int64,
    )
    return SpreadBudget(lambdas=lambdas)


def save_matrix(matrix, budgets, path):
    """Write the DPM1 binary: magic, dims, candidate ids, norms, lambdas, rows."""
    n, N = matrix.probs.shape
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<QQ", n, N))
        fh.write(pack_ids(matrix.candidate_ids))
        fh.write(np.ascontiguousarray(matrix.norms, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(budgets.lambdas, dtype="<u8").tobytes())
        fh.write(np.ascontiguousarray(matrix.probs, dtype="<f8").tobytes())


def load_matrix(path):
    """Read a DPM1 file back into (DiffusionMatrix, SpreadBudget).

    Model row numbers are not stored: downstream stages address candidates
    by row position or id string. A repeated candidate id, budgets outside
    [1, N], negative or non-finite norms, probabilities outside [0, 1] (NaN
    included) and rows whose sum is further than N * 2**-52 from 1 raise
    CorruptFile.

    The row tolerance holds for every row build_matrix writes, whatever the
    summation order: each entry e_j / s rounds once, the denominator s and
    the sum checked here each carry at most (N - 1) roundings of
    non-negative terms, so a row sums to 1 within (2N - 1) * 2**-53 plus
    higher-order terms. Measured rows deviate by at most 2.2e-16 at N = 296.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < len(MAGIC) or buf[: len(MAGIC)] != MAGIC:
        raise FormatVersionMismatch(f"{path}: not a DPM1 diffusion-matrix file")
    offset = len(MAGIC)
    raw, offset = take(buf, offset, 16, path)
    n, N = struct.unpack("<QQ", raw)
    if n < 1 or N < 1:
        raise CorruptFile(f"{path}: bad dimensions candidates={n} nodes={N}")
    ids, offset = read_ids(buf, offset, n, path)
    raw, offset = take(buf, offset, n * 8, path)
    norms = np.frombuffer(raw, dtype="<f8").copy()
    raw, offset = take(buf, offset, n * 8, path)
    lambdas = np.frombuffer(raw, dtype="<u8")
    raw, offset = take(buf, offset, n * N * 8, path)
    probs = np.frombuffer(raw, dtype="<f8").reshape(n, N).copy()
    if offset != len(buf):
        raise CorruptFile(f"{path}: {len(buf) - offset} trailing bytes")
    if len(set(ids)) != n:
        raise CorruptFile(f"{path}: a candidate id appears more than once")
    # checked on the u8 values: a budget >= 2**63 would wrap negative in int64
    if not ((lambdas >= 1) & (lambdas <= N)).all():
        raise CorruptFile(f"{path}: a budget lies outside [1, {N}]")
    if not (np.isfinite(norms) & (norms >= 0)).all():
        raise CorruptFile(f"{path}: a norm is negative or not finite")
    if not ((probs >= 0) & (probs <= 1)).all():  # False for NaN too
        raise CorruptFile(f"{path}: a probability is not finite or lies outside [0, 1]")
    if not (np.abs(np.add.reduce(probs, axis=1) - 1.0) <= N * 2.0**-52).all():
        raise CorruptFile(f"{path}: a row of probabilities does not sum to 1")
    matrix = DiffusionMatrix(candidate_ids=ids, probs=probs, norms=norms)
    return matrix, SpreadBudget(lambdas=lambdas.astype(np.int64))
