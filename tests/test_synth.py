"""Synthetic corpus generator properties, read from the corpus arrays."""

import hashlib

import numpy as np
import pytest

from iminfector.cli import main
from iminfector.synth import LURE_TIME_CAP, generate_corpus, lure_ids, planted_ids


def initiator_ids(corpus):
    """The initiator id of each cascade, in cascade order."""
    return [corpus.ids[u] for u in corpus.initiator.tolist()]


def same_corpus(a, b):
    """Whether two corpora have the same id table and the same five arrays."""
    names = ("initiator", "start_time", "offsets", "node_idx", "times")
    return a.ids == b.ids and all(np.array_equal(getattr(a, n), getattr(b, n)) for n in names)


def test_counts_and_prefixes():
    corpus = generate_corpus(np.random.default_rng(0))
    assert corpus.n_cascades == 500
    initiators = initiator_ids(corpus)
    assert set(planted_ids(5)) <= set(initiators)
    assert set(lure_ids(6)) <= set(initiators)
    by_prefix = {"s": 0, "l": 0, "n": 0}
    for u in initiators:
        by_prefix[u[0]] += 1
    assert by_prefix["s"] == 5 * 55
    assert by_prefix["l"] == 6
    assert by_prefix["n"] == 500 - 5 * 55 - 6


def test_deterministic_under_seed():
    a = generate_corpus(np.random.default_rng(9))
    b = generate_corpus(np.random.default_rng(9))
    c = generate_corpus(np.random.default_rng(10))
    assert same_corpus(a, b)
    assert not same_corpus(a, c)


# sha256 of synth's cascade log and --edges-out edge list at --rng-seed 0.
# They pin how the draws consume the RNG stream, which two runs of one
# build cannot show. At 1,200 nodes the audiences, the susceptible pool and
# the ordinary nodes each hold over 1,000 ids.
SYNTH_DIGESTS = {
    ("300", "500"): ("c9384e9dcfab03a217c970f5b1ef768109fcb05964c736f24b0144408c6d6410",
                     "df6df845dd4b2fbc3dafbd0e664e5d709247368bbed5f039922e088a393a8a56"),
    ("1200", "800"): ("4913181389c5941f44b56b2e5c60dad6d20f978352a4774f1d0ef8ef1bc62ec8",
                      "a79ee0a9df74f43603ea01c214203b24ad3ac1c0050ba3bc5bf8577623e066ae"),
}


@pytest.mark.parametrize("nodes, cascades", sorted(SYNTH_DIGESTS))
def test_synth_bytes_are_pinned(tmp_path, nodes, cascades):
    log, edges = tmp_path / "c.txt", tmp_path / "e.txt"
    assert main(["synth", "--nodes", nodes, "--cascades", cascades, "--rng-seed", "0",
                 "--out", str(log), "--edges-out", str(edges)]) == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (log, edges))
    assert digests == SYNTH_DIGESTS[nodes, cascades]


class PoolRecorder:
    """A Generator that records the type of each pool drawn from or
    shuffled, and otherwise passes every call through."""

    def __init__(self, rng):
        self.rng = rng
        self.pools = []

    def choice(self, pool, *args, **kwargs):
        self.pools.append(type(pool))
        return self.rng.choice(pool, *args, **kwargs)

    def shuffle(self, pool, *args, **kwargs):
        self.pools.append(type(pool))
        return self.rng.shuffle(pool, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_every_pool_is_an_array():
    # rng.choice turns a list pool into an array on each call, which makes
    # the corpus cost cascades times nodes; an array pool is taken as is
    recorder = PoolRecorder(np.random.default_rng(4))
    corpus = generate_corpus(recorder, n_nodes=400, n_cascades=300)
    # a shuffle, 5 * 33 planted draws (int(0.55 * 300) // 5 each), 6 lure
    # draws, the background initiators and one draw per background cascade
    assert len(recorder.pools) == 1 + 165 + 6 + 1 + (300 - 165 - 6)
    assert set(recorder.pools) == {np.ndarray}
    assert same_corpus(corpus, generate_corpus(np.random.default_rng(4), n_nodes=400,
                                               n_cascades=300))


def test_planted_dominate_activity():
    corpus = generate_corpus(np.random.default_rng(1))
    started = np.bincount(corpus.initiator, minlength=corpus.n_nodes)
    for s in planted_ids(5):
        assert started[corpus.ids.index(s)] == 55
    # background initiators start one cascade each, lures exactly one
    for u, count in zip(corpus.ids, started.tolist()):
        if count and not u.startswith("s"):
            assert count == 1


def test_lures_start_early_and_outsize_the_planted_mean():
    corpus = generate_corpus(np.random.default_rng(2))
    prefixes = np.array([u[0] for u in initiator_ids(corpus)])
    lures, planted = prefixes == "l", prefixes == "s"
    assert lures.sum() == 6
    assert np.all(corpus.start_time[lures] < LURE_TIME_CAP)
    sizes = corpus.sizes()
    assert sizes[lures].min() > np.mean(sizes[planted])


def test_participants_never_include_planted_or_lures():
    corpus = generate_corpus(np.random.default_rng(3))
    assert len(corpus.node_idx) > 0
    for v in np.unique(corpus.node_idx).tolist():
        assert corpus.ids[v].startswith("n")


def test_too_small_universe_rejected():
    with pytest.raises(ValueError):
        generate_corpus(np.random.default_rng(0), n_nodes=30, n_cascades=100, n_planted=5)
    with pytest.raises(ValueError):
        generate_corpus(np.random.default_rng(0), n_nodes=300, n_cascades=5)
