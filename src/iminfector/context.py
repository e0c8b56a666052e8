"""Turn train cascades into the interleaved multi-task training stream.

Each cascade contributes ceil(oversample * m) influencer-context pairs, at
least one, drawn with replacement from a distribution inversely
proportional to the copying time of each participant, followed by one
influencer-size pair whose target is the min-max normalized cascade length.

The draws are numpy's ``Generator.choice``, one call per cascade on a
generator seeded with the stream's seed (choice_contexts). The native
library's draw_contexts makes the same draws from one ``rng.random`` call
for the whole stream, with choice's own arithmetic, so its contexts are
choice's bit for bit; tests/test_context.py pins the two together. Without
the library, or where it refuses the arrays, choice_contexts draws them.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _native
from ._util import atomic_write, slack_ceil

# Context value that marks an influencer-size pair in a TrainingStream.
SIZE_PAIR = -1


@dataclass(frozen=True, eq=False)
class TrainingStream:
    """One epoch's pairs as three aligned arrays, one entry per pair.

    ``influencer`` holds dense influencer indices. ``context`` holds the
    dense context node index of a classification pair, or SIZE_PAIR for a
    regression pair, whose normalized size in [0, 1] is in ``size_target``
    (NaN on classification pairs).
    """

    influencer: np.ndarray
    context: np.ndarray
    size_target: np.ndarray

    def __len__(self):
        return len(self.influencer)


def sampling_weights(corpus):
    """Unnormalized context-draw weight of every event of the corpus.

    P(v) within a cascade is proportional to 1 / max(t_v - t_u, 1) where
    t_u is the cascade start time; delays under one tick are clamped to 1
    so simultaneous reposts stay finite and keep the fast-copier ordering.
    """
    delays = corpus.times - np.repeat(corpus.start_time, corpus.sizes())
    return 1.0 / np.maximum(delays, 1).astype(np.float64)


def size_targets(train):
    """Min-max normalized cascade sizes, in corpus order.

    All-equal sizes carry no signal, so the degenerate case maps every
    cascade to 0.5 instead of raising.
    """
    sizes = train.sizes().astype(np.float64)
    m_min, m_max = sizes.min(), sizes.max()
    if m_max == m_min:
        return np.full(len(sizes), 0.5)
    return (sizes - m_min) / (m_max - m_min)


def context_draws(train, oversample):
    """Each cascade's number of context pairs, ceil(oversample * m) for m
    events and at least 1, and the stream's number of pairs: Python ints.

    Where oversample * m overflows a float, the count is the exact
    int(oversample) * m: a float that large is an integer."""
    draws = [
        max(1, slack_ceil(oversample * m)) if oversample * m < math.inf else int(oversample) * m
        for m in train.sizes().tolist()
    ]
    return draws, sum(draws) + len(draws)


def build_training_stream(train, oversample=1.2, rng_seed=0):
    """Materialize one epoch's training stream.

    Stream order follows cascade input order; within a cascade all context
    pairs precede the single size pair. Identical rng_seed values reproduce
    the identical stream. A stream whose arrays numpy cannot index or
    allocate raises MemoryError.
    """
    if not train.n_cascades:
        raise ValueError("empty train corpus")
    weights = sampling_weights(train)
    draws, n_pairs = context_draws(train, oversample)
    if n_pairs > np.iinfo(np.intp).max // 8:  # the bytes of an int64 or float64 array
        raise MemoryError(f"a stream of {n_pairs} pairs cannot be indexed")
    draws = np.array(draws, dtype=np.int64)
    pairs = draws + 1
    size_rows = np.cumsum(pairs) - 1
    context = np.full(n_pairs, SIZE_PAIR, dtype=np.int32)
    size_target = np.full(n_pairs, np.nan)
    size_target[size_rows] = size_targets(train)
    lib = _native.load()
    if lib is None or not lib.direct or not lib.draw_contexts(
        weights, train.offsets, train.node_idx, draws,
        np.random.default_rng(rng_seed).random(int(draws.sum())), context,
    ):
        choice_contexts(train, weights, draws, rng_seed, context)
    influencer = np.repeat(train.cascade_influencers(), pairs)
    return TrainingStream(influencer, context, size_target)


def choice_contexts(train, weights, draws, rng_seed, context):
    """Fill each cascade's context rows of ``context`` with its draws:
    ``rng.choice`` over the cascade's events with probabilities ``weights``
    normalized, ``draws[i]`` of them for cascade i, from a generator seeded
    with ``rng_seed``. The row after a cascade's draws, its size pair's,
    is left as it is."""
    rng = np.random.default_rng(rng_seed)
    offsets = train.offsets.tolist()
    row = 0
    for a, b, n_draws in zip(offsets, offsets[1:], draws.tolist()):
        w = weights[a:b]
        context[row : row + n_draws] = rng.choice(
            train.node_idx[a:b], size=n_draws, replace=True, p=w / w.sum()
        )
        row += n_draws + 1


def dump_pairs(stream, path):
    """Write a stream as TSV: influencer, target, kind (C|S), value."""
    with atomic_write(path) as fh:
        fh.write("influencer\ttarget\tkind\tvalue\n")
        for u, v, y in zip(
            stream.influencer.tolist(), stream.context.tolist(), stream.size_target.tolist()
        ):
            if v == SIZE_PAIR:
                fh.write(f"{u}\t-\tS\t{y!r}\n")
            else:
                fh.write(f"{u}\t{v}\tC\t1\n")
