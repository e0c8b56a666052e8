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
the library, or where it refuses the call, choice_contexts draws them; the
stream's ``draws`` names which did.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _native
from ._util import atomic_write, slack_ceil

@dataclass(frozen=True, eq=False)
class TrainingStream:
    """One epoch's pairs, cascade by cascade.

    Cascade i contributes the context pairs (influencer[i], context[k]) for
    k in offsets[i]:offsets[i+1], in that order, then one size pair of
    influencer[i] whose normalized size in [0, 1] is size_target[i].
    ``influencer`` (dense influencer indices) and ``size_target`` hold one
    entry per cascade and ``offsets`` one more, from 0 up to len(context);
    ``context`` holds dense context node indices. The length of a stream is
    its number of pairs, context and size pairs together.

    ``draws`` says what drew the contexts of a stream that
    build_training_stream returns: ``"c"`` for the native library's
    draw_contexts, ``"choice"`` for choice_contexts. It is None for any
    other stream.
    """

    influencer: np.ndarray
    size_target: np.ndarray
    offsets: np.ndarray
    context: np.ndarray
    draws: str = None

    def __len__(self):
        return len(self.context) + len(self.influencer)


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
    offsets = np.concatenate(([0], np.cumsum(draws)))
    context = np.empty(offsets[-1], dtype=np.int32)
    lib = _native.load()
    drawn = "c"
    if lib is None or not lib.draw_contexts(
        weights, train.offsets, train.node_idx, draws,
        np.random.default_rng(rng_seed).random(len(context)), context,
    ):
        choice_contexts(train, weights, draws, rng_seed, context)
        drawn = "choice"
    return TrainingStream(train.cascade_influencers(), size_targets(train), offsets, context, drawn)


def choice_contexts(train, weights, draws, rng_seed, context):
    """Fill ``context`` with the cascades' draws, in cascade order:
    ``rng.choice`` over the cascade's events with probabilities ``weights``
    normalized, ``draws[i]`` of them for cascade i, from a generator seeded
    with ``rng_seed``."""
    rng = np.random.default_rng(rng_seed)
    offsets = train.offsets.tolist()
    row = 0
    for a, b, n_draws in zip(offsets, offsets[1:], draws.tolist()):
        w = weights[a:b]
        context[row : row + n_draws] = rng.choice(
            train.node_idx[a:b], size=n_draws, replace=True, p=w / w.sum()
        )
        row += n_draws


def dump_pairs(stream, path):
    """Write a stream as TSV, a row per pair in stream order: influencer,
    target, kind (C|S), value."""
    context, offsets = stream.context.tolist(), stream.offsets.tolist()
    with atomic_write(path) as fh:
        fh.write("influencer\ttarget\tkind\tvalue\n")
        for u, y, a, b in zip(
            stream.influencer.tolist(), stream.size_target.tolist(), offsets, offsets[1:]
        ):
            fh.writelines(f"{u}\t{v}\tC\t1\n" for v in context[a:b])
            fh.write(f"{u}\t-\tS\t{y!r}\n")
