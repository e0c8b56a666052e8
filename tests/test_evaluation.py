"""DNI metric, k-core baseline, average-size baseline."""

import networkx as nx
import numpy as np
import pytest

from iminfector.cascades import edge_list, parse_cascades
from iminfector.evaluation import (
    avg_size_ranking,
    dni,
    kcore_ranking,
)


def random_corpus(rng, n_nodes=25, n_cascades=12):
    names = [f"v{i}" for i in range(n_nodes)]
    lines = []
    for _ in range(n_cascades):
        initiator = names[int(rng.integers(0, n_nodes))]
        start = int(rng.integers(0, 100))
        others = [x for x in names if x != initiator]
        k = int(rng.integers(1, 6))
        chosen = rng.choice(others, size=k, replace=False)
        events = " ".join(f"{v}:{start + int(rng.integers(1, 9))}" for v in chosen)
        lines.append(f"{initiator}:{start}\t{events}\n")
    return parse_cascades(lines)


def brute_force_dni(seeds, test):
    """(DNI, per-seed contributions in seed order) by direct set unions over
    each seed's cascades: a repeated seed is counted once, and a seed that
    starts no cascade adds nothing."""
    union = set()
    contributions = {}
    for seed in seeds:
        if seed in contributions:
            continue
        reached = set()
        for c in test.cascades:
            if c.initiator == seed:
                reached |= {node for node, _ in c.events}
        contributions[seed] = len(reached - union)
        union |= reached
    return len(union), contributions


def test_dni_matches_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(100):
        test = random_corpus(rng)
        pool = [f"v{i}" for i in range(25)] + ["ghost"]
        k = int(rng.integers(0, 8))
        drawn = [pool[int(rng.integers(0, len(pool)))] for _ in range(k)]
        # every trial also repeats its first seed and asks for one not in the corpus
        seeds = drawn + drawn[:1] + ["ghost"]
        result = dni(seeds, test)
        want_dni, want_contributions = brute_force_dni(seeds, test)
        assert result.dni == want_dni
        assert list(result.per_seed_contribution.items()) == list(want_contributions.items())
        assert sum(result.per_seed_contribution.values()) == result.dni


def test_dni_counts_participants_not_initiators():
    test = parse_cascades(["a:0\tx:1 y:2\n", "b:0\ta:1\n"])
    r = dni(["a"], test)
    # a influenced x and y; a's own appearance in b's cascade is b's doing
    assert r.dni == 2
    assert r.per_seed_contribution == {"a": 2}
    # a as a participant counts once b is seeded
    assert dni(["a", "b"], test).dni == 3


def test_dni_duplicates_and_unknown_seeds():
    test = parse_cascades(["a:0\tx:1 y:2\n"])
    r = dni(["a", "a", "nobody"], test)
    assert r.dni == 2
    assert r.per_seed_contribution == {"a": 2, "nobody": 0}


def test_dni_contribution_order_is_seed_order():
    test = parse_cascades(["a:0\tx:1 y:2\n", "b:0\ty:1 z:2\n"])
    r = dni(["b", "a"], test)
    assert list(r.per_seed_contribution) == ["b", "a"]
    # y is claimed by b first, so a only adds x
    assert r.per_seed_contribution == {"b": 2, "a": 1}
    assert r.dni == 3


def test_core_numbers_clique_with_pendant():
    clique = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    edges = clique + [("d", "e")]
    cores = dict(kcore_ranking(edge_list(edges)))
    assert cores == {"a": 3, "b": 3, "c": 3, "d": 3, "e": 1}


def test_core_numbers_match_networkx():
    rng = np.random.default_rng(17)
    for trial in range(25):
        n = int(rng.integers(3, 30))
        p = float(rng.uniform(0.05, 0.5))
        edges = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges.add((f"n{i}", f"n{j}"))
        if not edges:
            continue
        g = nx.Graph()
        g.add_edges_from(edges)
        assert dict(kcore_ranking(edge_list(sorted(edges)))) == nx.core_number(g)


def test_core_numbers_match_networkx_on_skewed_degrees():
    # hubs and stars leave degrees with no node at all, so peeling moves
    # nodes into buckets that started empty
    for seed in range(12):
        g = nx.barabasi_albert_graph(60 + 20 * seed, 1 + seed % 4, seed=seed)
        g.add_edges_from((0, 1000 + k) for k in range(3 * seed + 1))  # a pendant star
        edges = [(f"n{u}", f"n{v}") for u, v in g.edges()]
        expected = {f"n{v}": k for v, k in nx.core_number(g).items()}
        assert dict(kcore_ranking(edge_list(edges))) == expected


def test_kcore_ranking_order_and_empty():
    edges = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")]
    ranking = kcore_ranking(edge_list(edges))
    assert ranking == [("a", 2), ("b", 2), ("c", 2), ("d", 1)]
    with pytest.raises(ValueError):
        kcore_ranking(edge_list([]))


def test_avg_size_ranking():
    train = parse_cascades(
        [
            "u1:0\ta:1 b:2\n",
            "u1:5\ta:6 b:7 c:8 d:9\n",  # u1 mean 3
            "u2:0\ta:1 b:2 c:3 d:4\n",  # u2 mean 4
            "u3:0\ta:1 b:2 c:3\n",  # u3 mean 3, ties u1 by id
        ]
    )
    assert avg_size_ranking(train) == [("u2", 4.0), ("u1", 3.0), ("u3", 3.0)]
