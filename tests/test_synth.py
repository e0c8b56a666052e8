"""Synthetic corpus generator properties."""

import numpy as np
import pytest

from iminfector.synth import LURE_TIME_CAP, generate_corpus, lure_ids, planted_ids


def test_counts_and_prefixes():
    corpus = generate_corpus(np.random.default_rng(0))
    assert len(corpus.cascades) == 500
    initiators = {c.initiator for c in corpus.cascades}
    assert set(planted_ids(5)) <= initiators
    assert set(lure_ids(6)) <= initiators
    by_prefix = {"s": 0, "l": 0, "n": 0}
    for c in corpus.cascades:
        by_prefix[c.initiator[0]] += 1
    assert by_prefix["s"] == 5 * 55
    assert by_prefix["l"] == 6
    assert by_prefix["n"] == 500 - 5 * 55 - 6


def test_deterministic_under_seed():
    a = generate_corpus(np.random.default_rng(9))
    b = generate_corpus(np.random.default_rng(9))
    c = generate_corpus(np.random.default_rng(10))
    assert a.cascades == b.cascades
    assert a.cascades != c.cascades


def test_planted_dominate_activity():
    corpus = generate_corpus(np.random.default_rng(1))
    per_initiator = {}
    for c in corpus.cascades:
        per_initiator.setdefault(c.initiator, []).append(c)
    for s in planted_ids(5):
        assert len(per_initiator[s]) == 55
    # background initiators start one cascade each, lures exactly one
    for u, cs in per_initiator.items():
        if not u.startswith("s"):
            assert len(cs) == 1


def test_lures_start_early_and_outsize_the_planted_mean():
    corpus = generate_corpus(np.random.default_rng(2))
    planted_sizes = []
    for c in corpus.cascades:
        if c.initiator.startswith("l"):
            assert c.start_time < LURE_TIME_CAP
        if c.initiator.startswith("s"):
            planted_sizes.append(c.size)
    lure_sizes = [c.size for c in corpus.cascades if c.initiator.startswith("l")]
    assert min(lure_sizes) > np.mean(planted_sizes)


def test_participants_never_include_planted_or_lures():
    corpus = generate_corpus(np.random.default_rng(3))
    for c in corpus.cascades:
        for node in c.nodes:
            assert node.startswith("n")


def test_too_small_universe_rejected():
    with pytest.raises(ValueError):
        generate_corpus(np.random.default_rng(0), n_nodes=30, n_cascades=100, n_planted=5)
    with pytest.raises(ValueError):
        generate_corpus(np.random.default_rng(0), n_nodes=300, n_cascades=5)
