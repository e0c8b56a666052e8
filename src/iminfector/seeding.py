"""Greedy seed selection over the diffusion matrix.

The spread of a candidate is the sum of its top-lambda diffusion
probabilities over still-uninfected nodes. That function is monotone and
submodular, so lazy greedy (CELF) returns the same sequence as full greedy:
a stale queue entry is an upper bound on the candidate's current marginal,
and only the queue top ever needs re-evaluation.

All spread sums go through math.fsum, which returns the correctly rounded
float of the exact sum. Shrinking the uninfected set can only shrink the
exact sum, so submodularity comparisons hold exactly in float too, and the
CELF / naive-greedy equivalence is bitwise.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import EmptyMatrix, MalformedLine
from ._util import ID_RE, atomic_write, text_lines


@dataclass(frozen=True)
class SelectedSeed:
    candidate: int  # row position in the diffusion matrix
    candidate_id: str
    spread: float  # marginal spread at selection time
    influenced: tuple  # node indices claimed by this seed, rank order


@dataclass
class SeedSelection:
    seeds: list  # SelectedSeed, in selection order
    truncated: bool  # fewer seeds than requested (candidates or nodes ran out)

    def seed_ids(self):
        return [s.candidate_id for s in self.seeds]


def sigma(matrix, budgets, s, uninfected):
    """Spread of candidate s over the uninfected node array, with
    ``budgets`` the lambda array of compute_budgets.

    Returns (spread, chosen) where chosen holds the min(lambda_s, |F|)
    uninfected columns with the largest probabilities, largest first, ties
    by node index ascending.
    """
    if uninfected.size == 0:
        return 0.0, ()
    row = matrix.probs[s, uninfected]
    k = min(int(budgets[s]), uninfected.size)
    # lexsort: primary value descending, secondary node index ascending
    order = np.lexsort((uninfected, -row))[:k]
    spread = math.fsum(row[order])
    return spread, tuple(int(v) for v in uninfected[order])


def _check_nonempty(matrix):
    if matrix.n_candidates == 0 or matrix.probs.size == 0:
        raise EmptyMatrix("diffusion matrix has no candidates")


def select_seeds_celf(matrix, budgets, size):
    """Lazy-greedy selection of up to ``size`` seeds.

    Queue entries carry the seed count at their last evaluation. The popped
    maximum is selected outright when still fresh; otherwise it is re-scored
    against the current uninfected set and pushed back. Ties break toward
    the lower row position, matching the naive scan order.
    """
    _check_nonempty(matrix)
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    uninfected = np.arange(matrix.n_nodes)
    heap = []
    for pos in range(matrix.n_candidates):
        spread, chosen = sigma(matrix, budgets, pos, uninfected)
        heap.append((-spread, pos, 0, chosen))
    heapq.heapify(heap)

    seeds = []
    while heap and len(seeds) < size and uninfected.size > 0:
        neg_spread, pos, last_updated, chosen = heapq.heappop(heap)
        if last_updated == len(seeds):
            seeds.append(
                SelectedSeed(pos, matrix.candidate_ids[pos], -neg_spread, chosen)
            )
            uninfected = np.setdiff1d(
                uninfected, np.array(chosen, dtype=np.int64), assume_unique=True
            )
        else:
            spread, chosen = sigma(matrix, budgets, pos, uninfected)
            heapq.heappush(heap, (-spread, pos, len(seeds), chosen))
    return SeedSelection(seeds, truncated=len(seeds) < size)


def select_seeds_naive(matrix, budgets, size):
    """Full greedy: re-score every remaining candidate at every step.

    Semantically identical to CELF; kept as the plain-reading oracle for
    equivalence tests.
    """
    _check_nonempty(matrix)
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    uninfected = np.arange(matrix.n_nodes)
    remaining = list(range(matrix.n_candidates))
    seeds = []
    while remaining and len(seeds) < size and uninfected.size > 0:
        best = None
        for pos in remaining:
            spread, chosen = sigma(matrix, budgets, pos, uninfected)
            if best is None or spread > best[0]:
                best = (spread, pos, chosen)
        spread, pos, chosen = best
        seeds.append(SelectedSeed(pos, matrix.candidate_ids[pos], spread, chosen))
        uninfected = np.setdiff1d(
            uninfected, np.array(chosen, dtype=np.int64), assume_unique=True
        )
        remaining.remove(pos)
    return SeedSelection(seeds, truncated=len(seeds) < size)


def save_seeds(selection, path):
    """Write seeds.txt: rank TAB candidate id TAB marginal spread, no header."""
    with atomic_write(path) as fh:
        for rank, seed in enumerate(selection.seeds, start=1):
            fh.write(f"{rank}\t{seed.candidate_id}\t{seed.spread!r}\n")


def load_seed_ids(path):
    """Read the candidate ids back from a seeds.txt file, in line order: the
    id field of each line, its rank and spread fields unread. In every file
    seed and baseline write, line order is rank order.

    A line without three tab-separated fields, an id that a cascade log
    could not hold (empty, or with whitespace or ``:``), or invalid UTF-8
    raises MalformedLine with its 1-based line number.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    ids = []
    for line_number, line in enumerate(text_lines(data), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedLine(f"bad seed line: {line!r}", line_number)
        if not ID_RE.match(fields[1]):
            raise MalformedLine(f"bad seed id {fields[1]!r}", line_number)
        ids.append(fields[1])
    return ids
