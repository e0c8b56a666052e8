"""Seeded synthetic cascade corpora with planted influencers.

The planted initiators (ids prefixed ``s``) each own a private audience and
start many fast, mid-sized cascades spread over the whole time range, so
they keep influencing in the held-out tail and their embeddings get the
bulk of the training updates. A few lure initiators (prefix ``l``) start
one early cascade apiece, sized just above the planted average: they top
any average-size ranking while contributing nothing after the split. The
remaining nodes (prefix ``n``) start at most one tiny background cascade.
Audiences tile nearly all ordinary nodes, so the participant pool is
uniformly hot and no initiator group can coast on rare targets.
"""

import numpy as np

from .cascades import build_corpus

TIME_RANGE = 100_000
LURE_TIME_CAP = 40_000  # early enough to land in the train side at 80/20


def planted_ids(n_planted):
    return [f"s{i:02d}" for i in range(n_planted)]


def lure_ids(n_lures):
    return [f"l{i:02d}" for i in range(n_lures)]


def size_error(n_nodes, n_cascades, n_planted, n_lures):
    """Why generate_corpus cannot build a corpus of these sizes, or None."""
    if n_nodes - n_planted - n_lures < 20 * n_planted:
        return "too few nodes for the requested planted/lure counts"
    if n_cascades - n_planted * max(1, int(0.55 * n_cascades) // n_planted) - n_lures < 1:
        return "too few cascades for the requested planted/lure counts"
    return None


def generate_corpus(rng, n_nodes=300, n_cascades=500, n_planted=5, n_lures=6):
    """Build a synthetic corpus over a universe of ``n_nodes`` node ids.

    ``rng`` is a numpy Generator; every draw flows through it, so equal
    seeds give equal corpora. Nodes are drawn as positions in the id table;
    the draws depend only on pool sizes, so they match drawing the ids.
    Every pool is an int64 array, made once, so the time is linear in the
    events: ``rng.choice`` turns a list pool into an array on every call.
    An array draws and shuffles as the equal list does.
    """
    error = size_error(n_nodes, n_cascades, n_planted, n_lures)
    if error:
        raise ValueError(error)
    n_ordinary = n_nodes - n_planted - n_lures
    ids = planted_ids(n_planted) + lure_ids(n_lures) + [f"n{i:03d}" for i in range(n_ordinary)]
    planted = range(n_planted)
    lures = range(n_planted, n_planted + n_lures)
    ordinary = np.arange(n_planted + n_lures, len(ids), dtype=np.int64)

    shuffled = ordinary.copy()
    rng.shuffle(shuffled)
    # wide audiences: the more distinct targets a planted row must lift
    # above the bias baseline, the larger its embedding norm settles
    audience_size = max(8, n_ordinary // n_planted - 1)
    audiences = [
        shuffled[i * audience_size : (i + 1) * audience_size] for i in range(n_planted)
    ]
    # every cascade draws its participants from this shared pool, so no
    # initiator can rack up updates on targets nobody else ever predicts
    susceptible = shuffled[: n_planted * audience_size]

    per_planted = max(1, int(0.55 * n_cascades) // n_planted)
    n_background = n_cascades - n_planted * per_planted - n_lures

    initiators, starts, nodes, times = [], [], [], []

    def emit(initiator, start, participants, max_delay):
        delays = rng.integers(1, max_delay + 1, size=len(participants))
        initiators.append(initiator)
        starts.append(start)
        nodes.append(participants)
        times.append(start + delays)

    draw_lo = max(2, int(0.29 * audience_size))
    draw_hi = max(draw_lo, int(0.43 * audience_size))
    for u, audience in zip(planted, audiences):
        for _ in range(per_planted):
            start = rng.integers(0, TIME_RANGE)
            size = rng.integers(draw_lo, draw_hi + 1)
            participants = rng.choice(audience, size=size, replace=False)
            emit(u, start, participants, max_delay=5)

    # a hair above the planted mean cascade size: enough to win the
    # average-size ranking without the update count that would let the
    # lure embeddings random-walk past the planted norms
    lure_lo = max(2, (draw_lo + draw_hi) // 2 + 2)
    lure_hi = max(lure_lo, draw_hi)
    for u in lures:
        start = rng.integers(0, LURE_TIME_CAP)
        size = rng.integers(lure_lo, lure_hi + 1)
        participants = rng.choice(susceptible, size=size, replace=False)
        emit(u, start, participants, max_delay=500)

    # one tiny cascade per background initiator keeps their update counts,
    # and hence their embedding norms, well below the planted influencers'
    n_distinct = min(n_background, n_ordinary)
    background_initiators = list(rng.choice(ordinary, size=n_distinct, replace=False))
    while len(background_initiators) < n_background:
        background_initiators.append(ordinary[rng.integers(0, n_ordinary)])
    bg_size = min(3, len(susceptible))
    for u in background_initiators:
        start = rng.integers(0, TIME_RANGE)
        # the initiator may come up in its own draw; build_corpus drops it
        participants = rng.choice(susceptible, size=bg_size, replace=False)
        emit(u, start, participants, max_delay=500)

    offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum([len(p) for p in nodes], out=offsets[1:])
    return build_corpus(
        ids, initiators, starts, offsets, np.concatenate(nodes), np.concatenate(times)
    )
