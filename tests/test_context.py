"""Context sampling and training-stream construction, and the native
library's context draws against rng.choice's."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iminfector import _native, context
from iminfector._util import slack_ceil
from iminfector.cascades import CascadeCorpus, parse_cascades
from iminfector.context import (
    build_training_stream,
    choice_contexts,
    sampling_weights,
    size_targets,
)
from iminfector.synth import generate_corpus
from test_cascade_io import read_only
from test_columnar_equivalence import stream_pairs


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


def test_stream_empty_corpus_rejected():
    with pytest.raises(ValueError):
        build_training_stream(parse_cascades([]), 1.2, 0)


DRAW_CORPUS = parse_cascades(
    ["u1:0\ta:1 b:2 c:3 d:9\n", "u2:3\tb:4\n", "u3:5\ta:5 c:5 e:5\n", "u1:9\tb:10 e:30\n"]
)


def draw_args(seed=0, draws=None):
    """draw_contexts's arguments for DRAW_CORPUS's stream, or for ``draws``
    draws per cascade, every context at -1, which no draw gives."""
    weights = sampling_weights(DRAW_CORPUS)
    if draws is None:
        draws = [slack_ceil(1.2 * m) for m in DRAW_CORPUS.sizes().tolist()]
    draws = np.array(draws, np.int64)
    uniforms = np.random.default_rng(seed).random(int(draws.sum()))
    contexts = np.full(len(uniforms), -1, dtype=np.int32)
    return [weights, DRAW_CORPUS.offsets, DRAW_CORPUS.node_idx, draws, uniforms, contexts]


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
    return [*args[:2], shared[: len(node_idx)], *args[3:5], shared[len(node_idx) - 1 :]]


def empty_first_cascade(args):
    weights, offsets, node_idx, draws, uniforms, contexts = args
    return [weights, np.concatenate([[0], offsets]), node_idx, np.concatenate([[0], draws]),
            uniforms, contexts]


# Each makes draw_args's arguments ones draw_contexts does not take: of
# another kind or layout, of lengths that do not fit, or values outside the
# domain where its draws are choice's.
MISFIT_DRAWS = {
    "float32 weights": changed(0, lambda a: a.astype(np.float32)),
    "a weight of 0": set_entry(0, 0, 0.0),
    "a weight above 1": set_entry(0, 1, 1.5),
    "a NaN weight": set_entry(0, 2, np.nan),
    "int32 offsets": changed(1, lambda a: a.astype(np.int32)),
    "offsets past the events": set_entry(1, -1, 12),
    "offsets from 1": set_entry(1, 0, 1),
    "descending offsets": set_entry(1, 2, 3),
    "an empty cascade": empty_first_cascade,
    "int64 node_idx": changed(2, lambda a: a.astype(np.int64)),
    "strided node_idx": changed(2, lambda a: np.repeat(a, 2)[::2]),
    "node_idx one short": changed(2, lambda a: a[:-1]),
    "a negative draw": set_entry(3, 0, -1),
    "draws one short": changed(3, lambda a: a[:-1]),
    "a uniform of 1": set_entry(4, 0, 1.0),
    "a negative uniform": set_entry(4, 1, -1e-300),
    "a NaN uniform": set_entry(4, 2, np.nan),
    "uniforms one short": changed(4, lambda a: a[:-1]),
    "contexts one short": changed(5, lambda a: a[:-1]),
    "int64 contexts": changed(5, lambda a: a.astype(np.int64)),
    "read-only contexts": changed(5, read_only),
    "contexts over node_idx": context_over_node_idx,
    "2-D contexts": changed(5, lambda a: a.reshape(1, -1)),
}


def assert_misfit_draws_refused(lib):
    """draw_contexts refuses every MISFIT_DRAWS case and changes none of
    its arguments."""
    for what, misfit in MISFIT_DRAWS.items():
        args = misfit(draw_args())
        before = [a.copy() for a in args]
        assert lib.draw_contexts(*args) is False, what
        for a, b in zip(args, before):
            assert np.array_equal(a, b, equal_nan=True), what


def test_draw_contexts_refuses_arrays_it_cannot_take(direct_library):
    assert_misfit_draws_refused(direct_library)
    with pytest.raises(TypeError):
        direct_library.draw_contexts(*draw_args()[:-1])


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


def test_draw_contexts_splits_at_choice_s_own_cdf(direct_library):
    # uniforms at each cdf value numpy's choice computes, and one ulp
    # below it, fall on either side of that value only if the library's
    # cdf has the very same bits: its sum, division and cumulative sum
    rng = np.random.default_rng(61)
    sizes = [1, 2, 7, 9, 100, 1000, 10_000]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    weights = 1.0 / rng.integers(1, 10**6, offsets[-1]).astype(np.float64)
    node_idx = rng.permutation(offsets[-1]).astype(np.int32)
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
    args = weights, offsets, node_idx, draws, np.concatenate(uniforms), contexts
    assert direct_library.draw_contexts(*args) is True
    assert np.array_equal(contexts, np.concatenate(want))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 13), st.integers(0, 17)), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
def test_draw_contexts_takes_any_count_of_draws_as_choice(direct_library, cascades, seed):
    # the library searches 8 draws at a time, then one at a time: every
    # count from 0 to 17 per cascade, so every remainder, in one stream
    lines = [f"u{i}:5\t" + " ".join(f"n{k}:{5 + (3 * k + i) % 11}" for k in range(m))
             for i, (m, _) in enumerate(cascades)]
    corpus = parse_cascades(lines)
    weights = sampling_weights(corpus)
    draws = np.array([n for _, n in cascades], dtype=np.int64)
    want = np.full(int(draws.sum()), -1, dtype=np.int32)
    choice_contexts(corpus, weights, draws, seed, want)
    got = np.full_like(want, -1)
    uniforms = np.random.default_rng(seed).random(int(draws.sum()))
    assert direct_library.draw_contexts(weights, corpus.offsets, corpus.node_idx, draws,
                                        uniforms, got) is True
    assert np.array_equal(got, want)
