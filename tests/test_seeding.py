"""Seed selection: golden walkthrough, CELF vs naive, submodularity."""

import math

import numpy as np
import pytest

from iminfector.diffusion import DiffusionMatrix
from iminfector.exceptions import EmptyMatrix
from iminfector.seeding import (
    load_seed_ids,
    save_seeds,
    select_seeds_celf,
    select_seeds_naive,
    sigma,
)


def golden_instance():
    # three candidates, five nodes, hand-checkable end to end
    probs = np.array(
        [
            [0.1, 0.3, 0.2, 0.2, 0.2],
            [0.4, 0.2, 0.2, 0.1, 0.2],
            [0.5, 0.1, 0.2, 0.2, 0.0],
        ]
    )
    mat = DiffusionMatrix(
        candidate_ids=["S1", "S2", "S3"],
        probs=probs,
        norms=np.array([1.0, 1.0, 1.0]),
    )
    return mat, np.array([2, 2, 3])


def random_instance(rng):
    n = int(rng.integers(1, 21))
    N = int(rng.integers(2, 51))
    probs = rng.random((n, N)) + 1e-12
    probs /= probs.sum(axis=1, keepdims=True)
    mat = DiffusionMatrix(
        candidate_ids=[f"u{i:03d}" for i in range(n)],
        probs=probs,
        norms=rng.random(n) + 0.01,
    )
    return mat, rng.integers(1, N + 1, size=n)


def test_two_seed_walkthrough():
    mat, bud = golden_instance()
    sel = select_seeds_celf(mat, bud, 2)
    assert sel.seed_ids() == ["S3", "S1"]
    assert abs(sel.seeds[0].spread - 0.9) <= 1e-12
    assert abs(sel.seeds[1].spread - 0.5) <= 1e-12
    # S3 claims its lambda = 3 best nodes, value ties broken by node index
    assert sel.seeds[0].influenced == (0, 2, 3)
    assert sel.seeds[1].influenced == (1, 4)
    assert sel.truncated is False


def test_walkthrough_spreads_are_exact_sums():
    mat, bud = golden_instance()
    sel = select_seeds_celf(mat, bud, 2)
    # fsum returns the correctly rounded double for both marginals
    assert sel.seeds[0].spread == 0.9
    assert sel.seeds[1].spread == 0.5


def test_sigma_basics():
    mat, bud = golden_instance()
    spread, chosen = sigma(mat, bud, 2, np.arange(5))
    assert chosen == (0, 2, 3)
    assert spread == 0.9
    # lambda larger than the uninfected pool truncates to the pool
    spread, chosen = sigma(mat, bud, 2, np.array([1, 4]))
    assert chosen == (1, 4)
    assert spread == pytest.approx(0.1, abs=1e-15)
    spread, chosen = sigma(mat, bud, 0, np.array([], dtype=np.int64))
    assert spread == 0.0 and chosen == ()


def test_equal_probability_ties_take_smallest_node_index():
    mat = DiffusionMatrix(
        candidate_ids=["u"],
        probs=np.array([[0.25, 0.25, 0.25, 0.25]]),
        norms=np.ones(1),
    )
    bud = np.array([2])
    _, chosen = sigma(mat, bud, 0, np.arange(4))
    assert chosen == (0, 1)


def test_equal_spread_candidates_take_smallest_position():
    row = np.array([0.5, 0.3, 0.2])
    mat = DiffusionMatrix(
        candidate_ids=["b", "a"],
        probs=np.vstack([row, row]),
        norms=np.ones(2),
    )
    bud = np.array([1, 1])
    sel = select_seeds_celf(mat, bud, 2)
    assert [s.candidate for s in sel.seeds] == [0, 1]


def test_requesting_more_seeds_than_candidates_truncates():
    mat, bud = golden_instance()
    # the first two seeds claim every node, so the third is never taken
    sel = select_seeds_celf(mat, bud, 7)
    assert len(sel.seeds) == 2
    assert sel.truncated is True
    # with nodes left over, the candidate pool is the binding limit
    mat.probs[2] = np.array([0.5, 0.1, 0.2, 0.2, 0.0])
    small = DiffusionMatrix(
        candidate_ids=["S1"],
        probs=mat.probs[:1],
        norms=mat.norms[:1],
    )
    small_bud = np.array([2])
    sel = select_seeds_celf(small, small_bud, 3)
    assert len(sel.seeds) == 1
    assert sel.truncated is True


def test_stops_when_every_node_is_infected():
    mat = DiffusionMatrix(
        candidate_ids=["a", "b", "c"],
        probs=np.full((3, 2), 0.5),
        norms=np.ones(3),
    )
    bud = np.array([2, 2, 2])
    sel = select_seeds_celf(mat, bud, 3)
    assert len(sel.seeds) == 1  # first seed claims both nodes
    assert sel.truncated is True


def test_empty_matrix_rejected():
    mat = DiffusionMatrix(candidate_ids=[], probs=np.zeros((0, 4)), norms=np.zeros(0))
    bud = np.zeros(0, dtype=np.int64)
    with pytest.raises(EmptyMatrix):
        select_seeds_celf(mat, bud, 1)
    with pytest.raises(ValueError):
        select_seeds_celf(*golden_instance(), 0)


def test_celf_matches_naive_on_random_instances():
    rng = np.random.default_rng(42)
    for trial in range(200):
        mat, bud = random_instance(rng)
        size = min(10, mat.n_candidates)
        lazy = select_seeds_celf(mat, bud, size)
        naive = select_seeds_naive(mat, bud, size)
        assert [s.candidate for s in lazy.seeds] == [s.candidate for s in naive.seeds]
        assert [s.spread for s in lazy.seeds] == [s.spread for s in naive.seeds]
        assert [s.influenced for s in lazy.seeds] == [s.influenced for s in naive.seeds]
        assert lazy.truncated == naive.truncated


def test_greedy_marginals_nonnegative_and_nonincreasing():
    rng = np.random.default_rng(7)
    for trial in range(200):
        mat, bud = random_instance(rng)
        size = min(10, mat.n_candidates)
        sel = select_seeds_naive(mat, bud, size)
        # selected marginal sequence is the running maximum, so it must fall
        spreads = [s.spread for s in sel.seeds]
        assert all(sp >= 0.0 for sp in spreads)
        # fixed-candidate marginal never grows as the infected set grows
        infected = set()
        frontiers = []
        for s in sel.seeds:
            frontiers.append(
                np.array(sorted(set(range(mat.n_nodes)) - infected), dtype=np.int64)
            )
            infected |= set(s.influenced)
        for cand in range(mat.n_candidates):
            previous = math.inf
            for F in frontiers:
                spread, _ = sigma(mat, bud, cand, F)
                assert spread <= previous
                previous = spread


def test_save_load_round_trip(tmp_path):
    mat, bud = golden_instance()
    sel = select_seeds_celf(mat, bud, 2)
    path = tmp_path / "seeds.txt"
    save_seeds(sel, path)
    lines = path.read_text().splitlines()
    assert lines[0].split("\t") == ["1", "S3", "0.9"]
    assert lines[1].split("\t") == ["2", "S1", "0.5"]
    assert load_seed_ids(path) == ["S3", "S1"]
