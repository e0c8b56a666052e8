"""Context sampling and training-stream construction."""

import math

import numpy as np
import pytest

from iminfector.cascades import parse_cascades
from iminfector.context import (
    SIZE_PAIR,
    build_training_stream,
    sampling_weights,
    size_targets,
)


def same_stream(a, b):
    return (
        np.array_equal(a.influencer, b.influencer)
        and np.array_equal(a.context, b.context)
        and np.array_equal(a.size_target, b.size_target, equal_nan=True)
    )


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
    contexts = [v for v in stream.context.tolist() if v != SIZE_PAIR]
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
    kinds = ["S" if v == SIZE_PAIR else "C" for v in stream.context.tolist()]
    assert kinds == ["C", "C", "C", "C", "S", "C", "C", "S"]
    assert len(stream) == 8
    u1 = corpus.influencer_ids().index("u1")
    u2 = corpus.influencer_ids().index("u2")
    assert stream.influencer.tolist() == [u1] * 5 + [u2] * 3
    sizes = stream.size_target[stream.context == SIZE_PAIR]
    assert sizes.tolist() == [1.0, 0.0]
    assert np.isnan(stream.size_target[stream.context != SIZE_PAIR]).all()
    # contexts are dense node indices drawn from the cascade's own events
    allowed = {corpus.node_index[x] for x in ["a", "b", "c"]}
    assert set(stream.context[:4].tolist()) <= allowed


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
