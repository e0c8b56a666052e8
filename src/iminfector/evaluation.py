"""Held-out evaluation (distinct nodes influenced) and ranking baselines.

A seed's influence evidence is the set of participants in the test cascades
it initiated; the metric is the size of the union over the whole seed set,
so overlapping audiences are only counted once. Seeds never count
themselves. Baselines produce plain rankings whose top slice is evaluated
with the same metric.
"""

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np


@dataclass
class EvaluationResult:
    seed_set_size: int
    dni: int
    per_seed_contribution: dict = field(default_factory=dict)  # seed id -> new nodes


@dataclass
class RankedBaseline:
    method: str
    ranking: list  # (node id, score), score non-increasing, ties id-ascending

    def top(self, size):
        return [node for node, _ in self.ranking[:size]]


def influenced_sets(test):
    """Map each test initiator to the union of its cascades' event nodes."""
    by_initiator = {}
    for c in test.cascades:
        by_initiator.setdefault(c.initiator, set()).update(c.nodes)
    return by_initiator


def dni(seeds, test):
    """Distinct nodes influenced by the seed set over the test corpus.

    Seeds are processed in order; each contributes whatever its test
    cascades add beyond nodes already claimed. Seeds without test cascades
    (and repeated seeds) contribute zero.
    """
    evidence = influenced_sets(test)
    union = set()
    contributions = {}
    for seed in seeds:
        if seed in contributions:
            continue
        added = evidence.get(seed, set()) - union
        union |= added
        contributions[seed] = len(added)
    return EvaluationResult(
        seed_set_size=len(seeds), dni=len(union), per_seed_contribution=contributions
    )


def _adjacency(edges):
    adj = {}
    for src, dst in edges:
        adj.setdefault(src, set()).add(dst)
        adj.setdefault(dst, set()).add(src)
    return adj


def core_numbers(edges):
    """Core number of every node of the undirected simple graph.

    Bucket peeling (Batagelj & Zaversnik 2003, "An O(m) Algorithm for Cores
    Decomposition of Networks"): ``vert`` holds the nodes sorted by current
    degree, ``start[d]`` is where degree d begins in it, and ``pos`` is each
    node's place. Nodes are taken in that order; a node's degree when it
    is taken is its core number, and each neighbour of higher degree moves
    to the front of its bucket and down one degree. O(V + E). Core numbers
    do not depend on the peeling order.
    """
    adj = _adjacency(edges)
    nodes = list(adj)
    index = {v: i for i, v in enumerate(nodes)}
    nbrs = [[index[w] for w in adj[v]] for v in nodes]
    degree = [len(ns) for ns in nbrs]
    vert = sorted(range(len(nodes)), key=degree.__getitem__)
    pos = [0] * len(nodes)
    for i, v in enumerate(vert):
        pos[v] = i
    counts = [0] * (max(degree, default=0) + 2)
    for d in degree:
        counts[d + 1] += 1
    start = list(accumulate(counts))  # nodes of degree below d, empty buckets too
    for v in vert:
        for u in nbrs[v]:
            du = degree[u]
            if du > degree[v]:
                # swap u with the first node of its bucket, then shrink the bucket
                pu, pw = pos[u], start[du]
                w = vert[pw]
                vert[pu], vert[pw] = w, u
                pos[u], pos[w] = pw, pu
                start[du] += 1
                degree[u] = du - 1
    return {nodes[v]: d for v, d in enumerate(degree)}


def kcore_ranking(edges):
    """Rank nodes by core number descending, ties by id ascending."""
    if not edges:
        raise ValueError("empty edge list")
    cores = core_numbers(edges)
    ranking = sorted(cores.items(), key=lambda kv: (-kv[1], kv[0]))
    return RankedBaseline(method="kcore", ranking=ranking)


def avg_size_ranking(train):
    """Rank train initiators by mean cascade event count, descending."""
    totals = np.bincount(train.initiator, weights=train.sizes(), minlength=train.n_nodes)
    counts = np.bincount(train.initiator, minlength=train.n_nodes)
    started = train.influencers
    scores = zip(train.influencer_ids(), (totals[started] / counts[started]).tolist())
    ranking = sorted(scores, key=lambda kv: (-kv[1], kv[0]))
    return RankedBaseline(method="avgsize", ranking=ranking)
