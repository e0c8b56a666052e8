"""Output checks for one job, run after the job and outside its timed region.

The oracles are independent of the code under test where that is cheap:
a plain reader of the cascade format, brute-force DNI unions, a direct
average-size ranking and networkx core numbers. Seed selection is checked
against ``select_seeds_naive``, the plain greedy the package keeps as the
reference for CELF. A failed check raises CheckFailed.
"""

import hashlib
import os

from workloads import SEED_SET_SIZE


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def read_rows(path):
    """Tab-separated fields of every non-blank line."""
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh if line.strip()]


def read_cascades(path):
    """(initiator, start time, event node ids) per cascade line."""
    cascades = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            head, events = line.rstrip("\n").split("\t")
            initiator, start = head.split(":")
            nodes = [token.split(":")[0] for token in events.split()]
            cascades.append((initiator, int(start), nodes))
    return cascades


def stream_pairs(train):
    """Pairs in one epoch's stream: ceil(1.2 m) context pairs per cascade plus one size pair."""
    return sum(-(-6 * len(nodes) // 5) for _, _, nodes in train) + len(train)


def brute_force_dni(seed_ids, test):
    seeds = set(seed_ids)
    union = set()
    for initiator, _, nodes in test:
        if initiator in seeds:
            union.update(nodes)
    return len(union)


def avgsize_ranking(train):
    totals, counts = {}, {}
    for initiator, _, nodes in train:
        totals[initiator] = totals.get(initiator, 0) + len(nodes)
        counts[initiator] = counts.get(initiator, 0) + 1
    scores = {u: totals[u] / counts[u] for u in totals}
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def artifact_digests(job_dir):
    """sha256 of every artifact a job wrote; manifests hold wall times and are skipped."""
    digests = {}
    for name in sorted(os.listdir(job_dir)):
        if name.endswith("manifest.json") or name == "report.json":
            continue
        with open(os.path.join(job_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def check_split(corpus_path, job_dir):
    corpus = read_cascades(corpus_path)
    train = read_cascades(os.path.join(job_dir, "train.txt"))
    test = read_cascades(os.path.join(job_dir, "test.txt"))
    require(len(train) == -(-4 * len(corpus) // 5), "train split is not the first 80%")
    require(len(train) + len(test) == len(corpus), "split lost or added cascades")
    require(max(s for _, s, _ in train) <= min(s for _, s, _ in test),
            "a test cascade starts before a train cascade")
    return train, test


def check_ranking_file(path, expected, parse_score):
    rows = read_rows(path)
    require(len(rows) == len(expected), f"{os.path.basename(path)}: wrong number of rows")
    for rank, (row, (node, score)) in enumerate(zip(rows, expected), start=1):
        require(row[0] == str(rank) and row[1] == node and parse_score(row[2]) == score,
                f"{os.path.basename(path)} row {rank}: {row} != {node} {score}")


def check_pipeline(corpus_path, job_dir, stdout):
    """Checks one pipeline job; returns the facts the metrics need."""
    from iminfector.diffusion import load_matrix
    from iminfector.seeding import select_seeds_naive

    train, test = check_split(corpus_path, job_dir)
    matrix, budgets = load_matrix(os.path.join(job_dir, "dmatrix.bin"))
    naive = select_seeds_naive(matrix, budgets, SEED_SET_SIZE)
    seeds = [(s.candidate_id, s.spread) for s in naive.seeds]
    check_ranking_file(os.path.join(job_dir, "seeds.txt"), seeds, float)

    baseline = read_rows(os.path.join(job_dir, "baseline_avgsize_seeds.txt"))
    expected = [node for node, _ in avgsize_ranking(train)[:SEED_SET_SIZE]]
    require([row[1] for row in baseline] == expected, "avgsize baseline ranking differs")

    lines = [line for line in stdout.splitlines() if line.startswith("dni\t")]
    require(len(lines) == 1, f"pipeline printed no dni line: {stdout!r}")
    printed = dict(field.split("=") for field in lines[0].split("\t")[1:])
    dni = brute_force_dni([node for node, _ in seeds], test)
    dni_avgsize = brute_force_dni(expected, test)
    require(int(printed["iminfector"]) == dni, f"printed dni {printed} != brute force {dni}")
    require(int(printed["avgsize"]) == dni_avgsize,
            f"printed avgsize dni {printed} != brute force {dni_avgsize}")
    return {"dni": dni, "dni_avgsize": dni_avgsize, "epoch_pairs": stream_pairs(train)}


def check_ingest(corpus_dir, job_dir, steps, stream):
    """Checks one ingest job; returns the facts the metrics need."""
    import networkx as nx

    train, test = check_split(os.path.join(corpus_dir, "cascades.txt"), job_dir)

    stats = read_rows(os.path.join(job_dir, "stats.tsv"))[1:]
    nodes = {u for u, _, _ in train + test} | {v for _, _, vs in train + test for v in vs}
    require(sorted(row[0] for row in stats) == sorted(nodes), "stats rows != corpus nodes")
    columns = [sum(int(row[i]) for row in stats) for i in range(1, 6)]
    test_dni = {}
    for u, _, vs in test:
        test_dni.setdefault(u, set()).update(vs)
    require(columns == [
        len(train),
        sum(len(vs) for _, _, vs in train),
        len(test),
        sum(len(vs) for _, _, vs in test),
        sum(len(vs) for vs in test_dni.values()),
    ], f"stats column sums {columns} disagree with the split")

    avgsize = avgsize_ranking(train)[:SEED_SET_SIZE]
    check_ranking_file(os.path.join(job_dir, "avgsize_seeds.txt"), avgsize, float)

    graph = nx.Graph()
    graph.add_edges_from(
        (src, dst) for src, dst in read_rows(os.path.join(corpus_dir, "edges.txt")) if src != dst
    )
    cores = sorted(nx.core_number(graph).items(), key=lambda kv: (-kv[1], kv[0]))
    kcore = cores[:SEED_SET_SIZE]
    check_ranking_file(os.path.join(job_dir, "kcore_seeds.txt"), kcore, int)

    printed = [s["stdout"] for s in steps if s["argv"][0] == "evaluate"]
    dni_avgsize = brute_force_dni([node for node, _ in avgsize], test)
    dni_kcore = brute_force_dni([node for node, _ in kcore], test)
    require(printed == [f"dni\t{dni_avgsize}\n", f"dni\t{dni_kcore}\n"],
            f"printed {printed} != brute force {dni_avgsize}, {dni_kcore}")

    pairs = stream_pairs(train)
    require(stream["pairs"] == pairs, f"stream holds {stream['pairs']} pairs, expected {pairs}")
    return {"dni_avgsize": dni_avgsize, "dni_kcore": dni_kcore, "epoch_pairs": pairs}
