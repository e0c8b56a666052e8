"""Held-out evaluation (distinct nodes influenced) and ranking baselines.

A seed's influence evidence is the set of participants in the test cascades
it initiated; the metric is the size of the union over the whole seed set,
so overlapping audiences are only counted once. Seeds never count
themselves. Baselines produce plain rankings whose top slice is evaluated
with the same metric.
"""

from dataclasses import dataclass, field

import numpy as np

from ._util import sorted_distinct
from .cascades import reach_pairs


@dataclass
class EvaluationResult:
    dni: int
    per_seed_contribution: dict = field(default_factory=dict)  # seed id -> new nodes


def dni(seeds, test):
    """Distinct nodes influenced by the seed set over the test corpus.

    Seeds are processed in order; each contributes whatever its test
    cascades add beyond nodes already claimed. Seeds without test cascades
    (and repeated seeds) contribute zero.
    """
    initiators, participants = reach_pairs(test)
    # seed v's distinct participants are participants[start[v]:start[v + 1]]
    start = np.searchsorted(initiators, np.arange(test.n_nodes + 1))
    claimed = np.zeros(test.n_nodes, dtype=bool)
    contributions = {}
    for seed in seeds:
        if seed in contributions:
            continue
        v = test.node_index.get(seed)
        if v is None:
            contributions[seed] = 0
            continue
        reached = participants[start[v] : start[v + 1]]
        added = reached[~claimed[reached]]
        claimed[added] = True
        contributions[seed] = len(added)
    return EvaluationResult(dni=int(np.count_nonzero(claimed)), per_seed_contribution=contributions)


def _peeled(edges):
    """Core number of each id of an EdgeList in its undirected simple
    graph, as an int64 array; -1 for an id on no edge.

    Bucket peeling (Batagelj & Zaversnik 2003, "An O(m) Algorithm for Cores
    Decomposition of Networks"): ``vert`` holds the nodes sorted by current
    degree, ``start[d]`` is where degree d begins in it, and ``pos`` is each
    node's place. Nodes are taken in that order; a node's degree when it
    is taken is its core number, and each neighbour of higher degree moves
    to the front of its bucket and down one degree. O(V + E). Core numbers
    do not depend on the peeling order.
    """
    n = len(edges.ids)
    ends = np.concatenate([edges.src, edges.dst]).astype(np.int64)
    # each edge both ways, and each of those once: node v's neighbours are
    # nbrs[first[v]:first[v + 1]]
    key = sorted_distinct(ends * n + np.concatenate([edges.dst, edges.src]))
    owner, nbrs = np.divmod(key, n)
    degree = np.bincount(owner, minlength=n)
    first = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=first[1:])
    vert = np.argsort(degree, kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[vert] = np.arange(n)
    start = np.zeros(int(degree.max(initial=0)) + 2, dtype=np.int64)
    # nodes of degree below d, empty buckets too
    np.cumsum(np.bincount(degree, minlength=len(start) - 1), out=start[1:])
    isolated = degree == 0
    vert, pos, start, first, nbrs, degree = (
        a.tolist() for a in (vert, pos, start, first, nbrs, degree))
    for v in vert:
        dv = degree[v]
        for u in nbrs[first[v] : first[v + 1]]:
            du = degree[u]
            if du > dv:
                # swap u with the first node of its bucket, then shrink the bucket
                pu, pw = pos[u], start[du]
                w = vert[pw]
                vert[pu], vert[pw] = w, u
                pos[u], pos[w] = pw, pu
                start[du] += 1
                degree[u] = du - 1
    cores = np.array(degree, dtype=np.int64)
    cores[isolated] = -1
    return cores


def kcore_ranking(edges):
    """(node id, core number) pairs of the EdgeList ``edges``, core number
    descending, ties by id ascending. ``dict`` of it gives each id's core
    number; ``edge_list(pairs)`` makes an EdgeList of (src, dst) id pairs."""
    if not len(edges.src):
        raise ValueError("empty edge list")
    cores = _peeled(edges)
    ids = edges.ids
    by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.int64)
    ranked = by_id[np.argsort(-cores[by_id], kind="stable")]
    ranked = ranked[cores[ranked] >= 0]
    return list(zip([ids[v] for v in ranked.tolist()], cores[ranked].tolist()))


def avg_size_ranking(train):
    """(initiator id, mean cascade event count) pairs, mean descending, ties
    by id ascending. A corpus of no cascades raises ValueError, as an empty
    edge list does for kcore_ranking."""
    if not train.n_cascades:
        raise ValueError("no cascades to rank")
    totals = np.bincount(train.initiator, weights=train.sizes(), minlength=train.n_nodes)
    counts = np.bincount(train.initiator, minlength=train.n_nodes)
    started = train.influencers
    scores = zip(train.influencer_ids(), (totals[started] / counts[started]).tolist())
    return sorted(scores, key=lambda kv: (-kv[1], kv[0]))
