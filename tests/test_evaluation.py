"""DNI metric, k-core baseline, average-size baseline."""

import networkx as nx
import numpy as np
import pytest

from iminfector.cascades import parse_cascades
from iminfector.evaluation import (
    avg_size_ranking,
    core_numbers,
    dni,
    influenced_sets,
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
    # independent route: direct union over matching cascades
    union = set()
    for c in test.cascades:
        if c.initiator in set(seeds):
            union |= set(c.nodes)
    return len(union)


def test_dni_matches_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(100):
        test = random_corpus(rng)
        pool = [f"v{i}" for i in range(25)] + ["ghost"]
        k = int(rng.integers(0, 8))
        seeds = [pool[int(rng.integers(0, len(pool)))] for _ in range(k)]
        result = dni(seeds, test)
        assert result.dni == brute_force_dni(seeds, test)
        assert result.seed_set_size == len(seeds)
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
    assert r.seed_set_size == 3
    assert r.per_seed_contribution == {"a": 2, "nobody": 0}


def test_dni_contribution_order_is_seed_order():
    test = parse_cascades(["a:0\tx:1 y:2\n", "b:0\ty:1 z:2\n"])
    r = dni(["b", "a"], test)
    assert list(r.per_seed_contribution) == ["b", "a"]
    # y is claimed by b first, so a only adds x
    assert r.per_seed_contribution == {"b": 2, "a": 1}
    assert r.dni == 3


def test_influenced_sets_unions_cascades_per_initiator():
    test = parse_cascades(["a:0\tx:1\n", "a:5\ty:6\n", "b:0\tx:1\n"])
    sets = influenced_sets(test)
    assert sets == {"a": {"x", "y"}, "b": {"x"}}


def test_core_numbers_clique_with_pendant():
    clique = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    edges = clique + [("d", "e")]
    cores = core_numbers(edges)
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
        assert core_numbers(sorted(edges)) == nx.core_number(g)


def test_core_numbers_match_networkx_on_skewed_degrees():
    # hubs and stars leave degrees with no node at all, so peeling moves
    # nodes into buckets that started empty
    for seed in range(12):
        g = nx.barabasi_albert_graph(60 + 20 * seed, 1 + seed % 4, seed=seed)
        g.add_edges_from((0, 1000 + k) for k in range(3 * seed + 1))  # a pendant star
        edges = [(f"n{u}", f"n{v}") for u, v in g.edges()]
        expected = {f"n{v}": k for v, k in nx.core_number(g).items()}
        assert core_numbers(edges) == expected


def test_kcore_ranking_order_and_empty():
    edges = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")]
    ranking = kcore_ranking(edges).ranking
    assert ranking == [("a", 2), ("b", 2), ("c", 2), ("d", 1)]
    with pytest.raises(ValueError):
        kcore_ranking([])


def test_avg_size_ranking():
    train = parse_cascades(
        [
            "u1:0\ta:1 b:2\n",
            "u1:5\ta:6 b:7 c:8 d:9\n",  # u1 mean 3
            "u2:0\ta:1 b:2 c:3 d:4\n",  # u2 mean 4
            "u3:0\ta:1 b:2 c:3\n",  # u3 mean 3, ties u1 by id
        ]
    )
    baseline = avg_size_ranking(train)
    assert baseline.method == "avgsize"
    assert baseline.ranking == [("u2", 4.0), ("u1", 3.0), ("u3", 3.0)]
    assert baseline.top(2) == ["u2", "u1"]
