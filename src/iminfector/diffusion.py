"""Diffusion-probability matrix: norm pruning and per-candidate budgets.

Candidates are the trained influencer rows, ranked by the Euclidean norm of
their source embedding. The top P percent are kept; each keeps a softmax
row over all nodes as its diffusion probabilities, and a budget lambda_u
proportional to its share of the total candidate norm.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import AllZeroNorms, CorruptFile, NonFiniteMatrix
from .model import forward_classify
from ._util import BinaryReader, slack_ceil, write_binary

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


def build_matrix(model, prune_percent):
    """Keep the top ceil(P * I / 100) influencers by embedding norm, at least one.

    Order is norm descending, ties by id ascending. Rows are
    forward_classify outputs, so they match the training-time softmax bit
    for bit. A kept norm or row that is not finite (the model's values
    overflow) raises NonFiniteMatrix.
    """
    if not 0.0 < prune_percent <= 100.0:
        raise ValueError(f"prune_percent must be in (0, 100], got {prune_percent}")
    I = model.n_influencers
    # an overflow is reported below as NonFiniteMatrix, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(model.O, axis=1)
    order = sorted(range(I), key=lambda u: (-norms[u], model.influencer_ids[u]))
    kept = order[: max(1, slack_ceil(prune_percent * I / 100.0))]
    ids = [model.influencer_ids[u] for u in kept]
    probs = np.empty((len(kept), model.n_nodes))
    with np.errstate(over="ignore", invalid="ignore"):
        for row, u in zip(probs, kept):
            forward_classify(model, u, out=row)
    # min and max propagate NaN, and make no full-size temporary
    if not (np.isfinite(norms[kept]).all() and np.isfinite([probs.min(), probs.max()]).all()):
        raise NonFiniteMatrix("a candidate's norm or diffusion probabilities overflow")
    return DiffusionMatrix(candidate_ids=ids, probs=probs, norms=norms[kept].copy())


def compute_budgets(matrix):
    """The budgets: an int64 array of lambda_u = ceil(N * norm_u / sum of
    candidate norms), clamped to >= 1, one per candidate, with N the
    matrix's node count.

    The denominator runs over the pruned candidate set. A zero-norm
    candidate would get ceil(0) = 0 and sit inert in the queue forever, so
    it is clamped to 1.
    """
    total = math.fsum(matrix.norms)
    if total == 0.0:
        raise AllZeroNorms("every candidate has a zero-norm embedding")
    n_nodes = matrix.n_nodes
    return np.array(
        [max(1, slack_ceil(n_nodes * norm / total)) for norm in matrix.norms],
        dtype=np.int64,
    )


def save_matrix(matrix, budgets, path):
    """Write the DPM1 binary: magic, dims, candidate ids, norms, lambdas, rows."""
    write_binary(path, MAGIC, matrix.probs.shape, [
        matrix.candidate_ids,
        np.asarray(matrix.norms, dtype="<f8"),
        np.asarray(budgets, dtype="<u8"),
        np.asarray(matrix.probs, dtype="<f8"),
    ])


def load_matrix(path):
    """Read a DPM1 file back into (DiffusionMatrix, budgets), the budgets
    an int64 array as compute_budgets returns it.

    Model row numbers are not stored: downstream stages address candidates
    by row position or id string. A candidate id that a cascade log could
    not hold, a repeated candidate id, budgets outside [1, N], negative or
    non-finite norms, probabilities outside [0, 1] (NaN included) and rows
    whose sum is further than N * 2**-52 from 1 raise CorruptFile.

    The row tolerance holds for every row build_matrix writes, whatever the
    summation order: each entry e_j / s rounds once, the denominator s and
    the sum checked here each carry at most (N - 1) roundings of
    non-negative terms, so a row sums to 1 within (2N - 1) * 2**-53 plus
    higher-order terms. Measured rows deviate by at most 2.2e-16 at N = 296.
    """
    with open(path, "rb") as fh:
        reader = BinaryReader(fh, MAGIC, 2, "a DPM1 diffusion-matrix file")
        n, N = reader.dims
        if n < 1 or N < 1:
            raise CorruptFile(f"{path}: bad dimensions candidates={n} nodes={N}")
        ids = reader.ids(n)
        norms = reader.array("<f8", n)
        lambdas = reader.array("<u8", n)
        probs = reader.array("<f8", n, N)
    reader.end()
    if len(set(ids)) != n:
        raise CorruptFile(f"{path}: a candidate id appears more than once")
    # checked on the u8 values: a budget >= 2**63 would wrap negative in int64
    if not ((lambdas >= 1) & (lambdas <= N)).all():
        raise CorruptFile(f"{path}: a budget lies outside [1, {N}]")
    if not (np.isfinite(norms) & (norms >= 0)).all():
        raise CorruptFile(f"{path}: a norm is negative or not finite")
    if not (probs.min() >= 0 and probs.max() <= 1):  # False for NaN too
        raise CorruptFile(f"{path}: a probability is not finite or lies outside [0, 1]")
    if not (np.abs(np.add.reduce(probs, axis=1) - 1.0) <= N * 2.0**-52).all():
        raise CorruptFile(f"{path}: a row of probabilities does not sum to 1")
    matrix = DiffusionMatrix(candidate_ids=ids, probs=probs, norms=norms)
    return matrix, lambdas.astype(np.int64)
