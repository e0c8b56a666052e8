"""Context sampling and training-stream construction, and the native
library's context draws against rng.choice's."""

import ctypes
import datetime
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iminfector import _native, context
from iminfector._util import slack_ceil
from iminfector.cascades import CascadeCorpus, parse_cascades, temporal_split
from iminfector.context import (
    build_training_stream,
    choice_contexts,
    sampling_weights,
    size_targets,
)
from iminfector.synth import generate_corpus
from test_cascade_io import read_only
from test_columnar_equivalence import stream_pairs
from test_diffusion import traced_peak


def same_stream(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("influencer", "size_target", "offsets", "context"))


def sampling_distribution(line):
    weights = sampling_weights(parse_cascades([line]))
    return weights / weights.sum()


def test_sampling_distribution_closed_form():
    probs = sampling_distribution("u:100\ta:102 b:104\n")
    # weights 1/2 and 1/4 normalize to 2/3 and 1/3
    assert np.allclose(probs, [2 / 3, 1 / 3], atol=1e-15)


def test_sampling_distribution_clamps_small_delays():
    probs = sampling_distribution("u:100\ta:100 b:101 c:103\n")
    # zero delay clamps to 1, matching the delay-1 participant
    assert probs[0] == probs[1]
    assert np.allclose(probs, [3 / 7, 3 / 7, 1 / 7], atol=1e-15)
    assert math.isclose(probs.sum(), 1.0, abs_tol=1e-12)


def test_sampling_law_three_standard_errors():
    # empirical frequency over many draws against the 2/3 - 1/3 law
    corpus = parse_cascades(["u:0\ta:2 b:4\n"])
    n_draws = 100_000
    stream = build_training_stream(corpus, oversample=n_draws / 2, rng_seed=7)
    contexts = stream.context.tolist()
    assert len(contexts) == n_draws
    a_idx = corpus.node_index["a"]
    freq = sum(1 for ctx in contexts if ctx == a_idx) / n_draws
    p = 2 / 3
    se = math.sqrt(p * (1 - p) / n_draws)
    assert abs(freq - p) <= 3 * se


def test_size_targets_min_max():
    corpus = parse_cascades(
        ["u1:0\ta:1\n", "u2:0\ta:1 b:2 c:3\n", "u3:0\ta:1 b:2\n"]
    )
    targets = size_targets(corpus)
    assert np.allclose(targets, [0.0, 1.0, 0.5])


def test_size_targets_degenerate_all_equal():
    corpus = parse_cascades(["u1:0\ta:1 b:2\n", "u2:0\tc:1 d:2\n"])
    assert np.allclose(size_targets(corpus), [0.5, 0.5])


def test_stream_shape_and_order():
    corpus = parse_cascades(["u1:0\ta:1 b:2 c:3\n", "u2:0\ta:5\n"])
    stream = build_training_stream(corpus, oversample=1.2, rng_seed=0)
    # ceil(1.2 * 3) = 4 contexts + size, then ceil(1.2 * 1) = 2 + size
    pairs = stream_pairs(stream)
    assert [kind for kind, _, _ in pairs] == ["C", "C", "C", "C", "S", "C", "C", "S"]
    assert len(stream) == 8
    assert stream.offsets.tolist() == [0, 4, 6]
    u1 = corpus.influencer_ids().index("u1")
    u2 = corpus.influencer_ids().index("u2")
    assert stream.influencer.tolist() == [u1, u2]
    assert [u for _, u, _ in pairs] == [u1] * 5 + [u2] * 3
    assert stream.size_target.tolist() == [1.0, 0.0]
    assert (stream.influencer.dtype, stream.size_target.dtype, stream.offsets.dtype,
            stream.context.dtype) == (np.int64, np.float64, np.int64, np.int32)
    # contexts are dense node indices drawn from the cascade's own events
    allowed = {corpus.node_index[x] for x in ["a", "b", "c"]}
    assert set(stream.context[:4].tolist()) <= allowed
    assert stream.context[4:].tolist() == [corpus.node_index["a"]] * 2


def test_stream_deterministic_per_seed():
    corpus = parse_cascades(["u1:0\ta:1 b:2 c:3 d:9\n", "u2:3\tb:4 c:8\n"])
    s1 = build_training_stream(corpus, 1.2, rng_seed=5)
    s2 = build_training_stream(corpus, 1.2, rng_seed=5)
    s3 = build_training_stream(corpus, 1.2, rng_seed=6)
    assert same_stream(s1, s2)
    assert not same_stream(s1, s3)


def test_stream_build_holds_little_more_than_the_stream(direct_library):
    # The library weighs each cascade's events in its cdf room and takes
    # each uniform from the bit generator, so the only array of the
    # stream's size is the stream's own: the peak measured 1.04 times the
    # stream's bytes, against 4.8 times with arrays of every event's
    # weight and of every draw's uniform.
    corpus = generate_corpus(np.random.default_rng(9001), n_nodes=3000, n_cascades=5000)
    train, _ = temporal_split(corpus, 0.8)
    stream, peak = traced_peak(lambda: build_training_stream(train, 1.2, 9001))
    kept = sum(a.nbytes for a in (stream.influencer, stream.size_target, stream.offsets,
                                  stream.context))
    assert stream.draws == "c"
    assert peak <= 1.1 * kept, (peak, kept)


def test_stream_empty_corpus_rejected():
    with pytest.raises(ValueError):
        build_training_stream(parse_cascades([]), 1.2, 0)


@pytest.mark.parametrize("oversample", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
def test_stream_refuses_an_oversample_that_is_not_finite_and_positive(oversample, monkeypatch):
    # --oversample's rule, checked before any context is drawn
    corpus = parse_cascades(["u1:0\ta:1 b:2\n"])

    def drawn(*args):
        raise AssertionError("a context was drawn")

    monkeypatch.setattr(context, "context_draws", drawn)
    monkeypatch.setattr(context, "choice_contexts", drawn)
    monkeypatch.setattr(_native, "load", drawn)
    with pytest.raises(ValueError, match="oversample must be finite and > 0"):
        build_training_stream(corpus, oversample, 0)


# parsed in draw_args, not at import: parse_cascades loads the native
# library, which must come from the session's cache (conftest.py)
DRAW_LOG = ["u1:0\ta:1 b:2 c:3 d:9\n", "u2:3\tb:4\n", "u3:5\ta:5 c:5 e:5\n", "u1:9\tb:10 e:30\n"]


def corpus_args(corpus):
    """draw_contexts's corpus arguments: start, offsets, node_idx, times."""
    return [corpus.start_time, corpus.offsets, corpus.node_idx, corpus.times]


def draw_args(seed=0, draws=None):
    """draw_contexts's arguments for DRAW_LOG's stream, or for ``draws``
    draws per cascade, every context at -1, which no draw gives, and the
    bit generator of a generator seeded with ``seed``."""
    corpus = parse_cascades(DRAW_LOG)
    if draws is None:
        draws = [slack_ceil(1.2 * m) for m in corpus.sizes().tolist()]
    draws = np.array(draws, np.int64)
    contexts = np.full(int(draws.sum()), -1, dtype=np.int32)
    return [*corpus_args(corpus), draws, contexts, np.random.default_rng(seed).bit_generator]


def changed(k, change):
    """A change of draw_args's argument k by ``change``, on a copy."""
    def apply(args):
        args = list(args)
        args[k] = change(args[k].copy())
        return args
    return apply


def set_entry(k, index, value):
    def put(array):
        array[index] = value
        return array
    return changed(k, put)


def context_over_node_idx(args):
    """node_idx and context in one buffer, sharing one entry."""
    node_idx, contexts = args[2], args[5]
    shared = np.zeros(len(node_idx) + len(contexts) - 1, dtype=np.int32)
    shared[: len(node_idx)] = node_idx
    return [*args[:2], shared[: len(node_idx)], *args[3:5], shared[len(node_idx) - 1 :],
            args[6]]


def empty_first_cascade(args):
    start, offsets, node_idx, times, draws, contexts, generator = args
    return [np.concatenate([[0], start]), np.concatenate([[0], offsets]), node_idx, times,
            np.concatenate([[0], draws]), contexts, generator]


# Each makes draw_args's arguments ones draw_contexts does not take: of
# another kind or layout, of lengths that do not fit, or values outside the
# domain where its draws are choice's.
MISFIT_DRAWS = {
    "int32 start": changed(0, lambda a: a.astype(np.int32)),
    "a negative start": set_entry(0, 0, -1),
    "start one short": changed(0, lambda a: a[:-1]),
    "int32 offsets": changed(1, lambda a: a.astype(np.int32)),
    "offsets past the events": set_entry(1, -1, 12),
    "an offset past the events, then back": set_entry(1, 1, 11),
    "offsets from 1": set_entry(1, 0, 1),
    "descending offsets": set_entry(1, 2, 3),
    "an empty cascade": empty_first_cascade,
    "int64 node_idx": changed(2, lambda a: a.astype(np.int64)),
    "strided node_idx": changed(2, lambda a: np.repeat(a, 2)[::2]),
    "node_idx one short": changed(2, lambda a: a[:-1]),
    "float64 times": changed(3, lambda a: a.astype(np.float64)),
    "a time before its start": set_entry(3, -1, 0),
    "times one short": changed(3, lambda a: a[:-1]),
    "a negative draw": set_entry(4, 0, -1),
    "draws one short": changed(4, lambda a: a[:-1]),
    "contexts one short": changed(5, lambda a: a[:-1]),
    "int64 contexts": changed(5, lambda a: a.astype(np.int64)),
    "read-only contexts": changed(5, read_only),
    "contexts over node_idx": context_over_node_idx,
    "2-D contexts": changed(5, lambda a: a.reshape(1, -1)),
}


def assert_misfit_draws_refused(lib):
    """draw_contexts refuses every MISFIT_DRAWS case and changes none of
    its arguments: no array, and not the generator's state."""
    for what, misfit in MISFIT_DRAWS.items():
        *arrays, generator = misfit(draw_args())
        before, state = [a.copy() for a in arrays], generator.state
        assert lib.draw_contexts(*arrays, generator) is False, what
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before)), what
        assert generator.state == state, what


def test_draw_contexts_refuses_arrays_it_cannot_take(direct_library):
    assert_misfit_draws_refused(direct_library)
    *arrays, generator = draw_args()
    with pytest.raises(TypeError):
        direct_library.draw_contexts(*arrays)
    # the generator must be a bit generator: a Generator, its state, a
    # capsule or an object with a capsule of another name is a TypeError
    others = [np.random.default_rng(0), generator.state, generator.capsule, None,
              SimpleNamespace(capsule=datetime.datetime_CAPI)]
    for other in others:
        with pytest.raises(TypeError):
            direct_library.draw_contexts(*arrays, other)
    assert (arrays[5] == -1).all()


def counting_choice(monkeypatch):
    """The calls build_training_stream makes to choice_contexts."""
    calls = []

    def count(*args):
        calls.append(args)
        return choice_contexts(*args)

    monkeypatch.setattr(context, "choice_contexts", count)
    return calls


def corpus_with(corpus, **arrays):
    parts = {name: getattr(corpus, name) for name in
             ("ids", "initiator", "start_time", "offsets", "node_idx", "times")}
    return CascadeCorpus(**{**parts, **arrays})


def test_stream_falls_back_to_choice_with_the_same_stream(native_library, numpy_calls,
                                                          monkeypatch):
    corpus = generate_corpus(np.random.default_rng(8), n_nodes=80, n_cascades=60,
                             n_planted=2, n_lures=2)
    want = build_training_stream(corpus, 1.2, 3)
    assert want.draws == ("c" if numpy_calls else "choice")
    calls = counting_choice(monkeypatch)
    assert same_stream(build_training_stream(corpus, 1.2, 3), want)
    assert len(calls) == (0 if numpy_calls else 1)
    misfits = {
        "int64 node_idx": corpus_with(corpus, node_idx=corpus.node_idx.astype(np.int64)),
        "int32 offsets": corpus_with(corpus, offsets=corpus.offsets.astype(np.int32)),
        "strided offsets": corpus_with(corpus, offsets=np.repeat(corpus.offsets, 2)[::2]),
    }
    for what, misfit in misfits.items():
        del calls[:]
        stream = build_training_stream(misfit, 1.2, 3)
        assert same_stream(stream, want) and stream.draws == "choice", what
        assert len(calls) == 1, what
    for what in ("no library", "draws refused"):
        with monkeypatch.context() as mp:
            if what == "no library":
                mp.setattr(_native, "load", lambda: None)
            elif native_library is not None:
                # the library build_training_stream loads now: a test that
                # cleared load's cache made it another module than this one
                mp.setattr(_native.load(), "draw_contexts", lambda *args: False)
            del calls[:]
            stream = build_training_stream(corpus, 1.2, 3)
            assert same_stream(stream, want) and stream.draws == "choice", what
            assert len(calls) == 1, what


NEXT_DOUBLE = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)
CAPSULE_NEW = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p,
                               ctypes.c_void_p)(("PyCapsule_New", ctypes.pythonapi))


class Bitgen(ctypes.Structure):
    """numpy/random/bitgen.h's bitgen_t."""

    _fields_ = [("state", ctypes.c_void_p), ("next_uint64", ctypes.c_void_p),
                ("next_uint32", ctypes.c_void_p), ("next_double", NEXT_DOUBLE),
                ("next_raw", ctypes.c_void_p)]


class ReplayedUniforms:
    """A bit generator whose next_double gives ``values`` in order; it has
    no other output."""

    NAME = b"BitGenerator"  # the capsule keeps a pointer to these bytes

    def __init__(self, values):
        values = iter(values.tolist())
        self.next_double = NEXT_DOUBLE(lambda state: next(values))
        self.bitgen = Bitgen(next_double=self.next_double)
        self.capsule = CAPSULE_NEW(ctypes.addressof(self.bitgen), self.NAME, None)


def test_draw_contexts_splits_at_choice_s_own_cdf(direct_library):
    # uniforms at each cdf value numpy's choice computes, and one ulp
    # below it, fall on either side of that value only if the library's
    # cdf has the very same bits: its weights, sum, division and
    # cumulative sum. Every other cascade's delays are past 2**53, where
    # their conversion to double rounds.
    rng = np.random.default_rng(61)
    sizes = [1, 2, 7, 9, 100, 1000, 10_000]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    start = rng.integers(0, 10**6, len(sizes))
    delays = [rng.integers(2**53, 2**62, m) if i % 2 else rng.integers(0, 10**6, m)
              for i, m in enumerate(sizes)]
    times = np.repeat(start, sizes) + np.concatenate(delays)
    node_idx = rng.permutation(offsets[-1]).astype(np.int32)
    corpus = CascadeCorpus([], np.zeros(len(sizes), np.int32), start, offsets, node_idx, times)
    weights = sampling_weights(corpus)
    uniforms, want = [], []
    for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        p = weights[a:b] / weights[a:b].sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        x = np.concatenate([[0.0], cdf[:-1], np.nextafter(cdf[:-1], 0.0)])
        uniforms.append(x)
        want.append(node_idx[a:b][cdf.searchsorted(x, side="right")])
    draws = np.array([len(x) for x in uniforms], dtype=np.int64)
    contexts = np.full(int(draws.sum()), -1, dtype=np.int32)
    generator = ReplayedUniforms(np.concatenate(uniforms))
    assert direct_library.draw_contexts(*corpus_args(corpus), draws, contexts, generator) is True
    assert np.array_equal(contexts, np.concatenate(want))


# delays of 0 and 1, which weigh alike, small ones, and ones past 2**53,
# where a delay's conversion from int64 to double rounds
DELAYS = st.one_of(st.sampled_from([0, 1]), st.integers(2, 1000),
                   st.integers(2**53 + 1, 2**62 - 1))


@st.composite
def drawn_streams(draw):
    """(corpus, draws, seed): cascades of 1 to 13 events at DELAYS past
    start times of at most 2**62, with 0 to 17 draws each, every array of
    its own length."""
    cascades = draw(st.lists(
        st.tuples(st.integers(0, 2**62), st.lists(DELAYS, min_size=1, max_size=13),
                  st.integers(0, 17)),
        min_size=1, max_size=8,
    ))
    offsets = np.cumsum([0] + [len(delays) for _, delays, _ in cascades], dtype=np.int64)
    times = np.array([t0 + d for t0, delays, _ in cascades for d in delays], np.int64)
    corpus = CascadeCorpus([], np.zeros(len(cascades), np.int32),
                           np.array([t0 for t0, _, _ in cascades], np.int64), offsets,
                           np.arange(len(times), dtype=np.int32), times)
    draws = np.array([n for _, _, n in cascades], np.int64)
    return corpus, draws, draw(st.integers(0, 2**32 - 1))


def assert_draws_are_choice(lib, stream):
    """draw_contexts takes a drawn_streams stream, and draws choice_contexts'
    contexts from a bit generator of the stream's seed."""
    corpus, draws, seed = stream
    want = np.full(int(draws.sum()), -1, dtype=np.int32)
    choice_contexts(corpus, draws, seed, want)
    got = np.full_like(want, -1)
    generator = np.random.default_rng(seed).bit_generator
    assert lib.draw_contexts(*corpus_args(corpus), draws, got, generator) is True
    assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(drawn_streams())
def test_draw_contexts_takes_any_count_of_draws_as_choice(direct_library, stream):
    # the library searches 8 draws at a time, then one at a time: every
    # count from 0 to 17 per cascade, so every remainder, in one stream
    assert_draws_are_choice(direct_library, stream)
