"""Input definitions shared by the workload process and the reference builder.

Nothing here imports factorspec: the inputs are fixed by constants in this
file and by the run's seed, and the program only ever sees the files and
argument lists made from them.  numpy is imported inside the functions that
need it, so that importing this module costs nothing inside the timed
set-up window.
"""

from __future__ import annotations

import random

CATALOG_DIR = "tests/data"
GRID = ((1, 2), (1, 3), (2, 3))
GRID_ARG = ";".join(f"{a},{b}" for a, b in GRID)

# suite: a fixed sample of connected catalog graphs, drawn once with this
# seed and without looking at any verdict.  The run's seed only orders it.
SUITE_SAMPLE_SEED = 20221207
SUITE_CHUNK = 10
SUITE_INTEGER = {"nmax": 7, "graphs": 120}  # 12 chunks
SUITE_FRACTIONAL = {"nmax": 8, "graphs": 240}  # 24 chunks

# mine-hong: MINE_CHUNKS slices of MINE_CHUNK consecutive records, spread
# evenly over the order-8 catalog from its first record to its last (the
# catalog grows denser towards its end, where the graphs that pass sit).
MINE_ORDER = 8
MINE_CHUNK = 50
MINE_CHUNKS = 15

# check: the decision inputs are a fixed pool of seeded random graphs (their
# verdicts are in references.json); the random rho input is drawn from the
# run's seed, and the rho checks need no reference.
POOL_SEED = 16180339
# The sizes are chosen so that the middle five requests of a round take about
# the same time (0.35-0.55 s on the reference machine): the median then sits
# inside that cluster, with three cheaper requests below it and three dearer
# ones above, and does not jump between two request kinds from run to run.
DECISION_POOL = (
    # (name, mode, n, edge probability, a, b) for integer / fractional;
    # (name, "gf", n, edge probability, g low, g high, f - g at most)
    ("int-n10-p50", "integer", 10, 0.5, 1, 2),
    ("int-n11-p50", "integer", 11, 0.5, 1, 2),
    ("int-n11-p80", "integer", 11, 0.8, 2, 3),
    ("gf-n10-p60", "gf", 10, 0.6, 1, 2, 1),
    ("gf-n10-p80", "gf", 10, 0.8, 2, 3, 1),
    ("frac-n17-p60", "fractional", 17, 0.6, 2, 3),
    ("frac-n18-p50", "fractional", 18, 0.5, 1, 3),
)
HNB_DECISIONS = (
    # (name, mode, n, b, a): hnb(n, b) must fail [a, b] by the hub lemma
    ("hnb-int-n10-b3", "integer", 10, 3, 2),
    ("hnb-frac-n16-b4", "fractional", 16, 4, 1),
)
RHO_RANDOM = ((1000, 0.5),)  # (n, edge probability)
RHO_HNB = ((600, 5),)  # (n, b)


def chunk_lines(lines: list[str], size: int) -> list[list[str]]:
    return [lines[i:i + size] for i in range(0, len(lines), size)]


def mine_chunk_starts(catalog_size: int) -> list[int]:
    last = catalog_size - MINE_CHUNK
    return [j * last // (MINE_CHUNKS - 1) for j in range(MINE_CHUNKS)]


def random_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(u, v) for v in range(1, n) for u in range(v) if rng.random() < p]


def decision_pool() -> list[dict]:
    """The check workload's decision inputs: seeded G(n, p) graphs, with
    random per-vertex (g, f) bounds for the gf ones.  Same on every run."""
    rng = random.Random(POOL_SEED)
    pool = []
    for name, mode, n, p, *rest in DECISION_POOL:
        item = {"name": name, "mode": mode, "n": n, "edges": random_edges(rng, n, p)}
        if mode == "gf":
            lo, hi, spread = rest
            gvals = [rng.randint(lo, hi) for _ in range(n)]
            item["g"] = gvals
            item["f"] = [gv + rng.randint(0, spread) for gv in gvals]
        else:
            item["a"], item["b"] = rest
        pool.append(item)
    return pool


def graph6_from_edges(n: int, edges) -> str:
    """Encode a simple graph with n <= 258047 vertices as graph6."""
    import numpy as np

    adj = np.zeros((n, n), dtype=np.uint8)
    if len(edges):
        e = np.asarray(edges)
        adj[e[:, 0], e[:, 1]] = 1
        adj[e[:, 1], e[:, 0]] = 1
    return graph6_from_matrix(adj)


def graph6_from_matrix(adj) -> str:
    """graph6 of a symmetric 0/1 matrix: the upper triangle column by column,
    x(0,1), x(0,2), x(1,2), ..., six bits to a byte, each byte plus 63."""
    import numpy as np

    n = adj.shape[0]
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    bits = adj[np.tril_indices(n, -1)].astype(np.uint8)
    bits = np.concatenate([bits, np.zeros(-len(bits) % 6, dtype=np.uint8)])
    body = bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8) + 63
    return (head + body.astype(np.uint8).tobytes()).decode("ascii")


def matrix_from_graph6(record: str):
    """Adjacency matrix of a graph6 record (the inverse of graph6_from_matrix)."""
    import numpy as np

    data = record.encode("ascii")
    if data[0] == 126:
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n, body = data[0] - 63, data[1:]
    groups = np.frombuffer(body, dtype=np.uint8) - 63
    bits = ((groups[:, None] >> np.arange(5, -1, -1)) & 1).reshape(-1)
    adj = np.zeros((n, n), dtype=np.float64)
    rows, cols = np.tril_indices(n, -1)
    adj[rows, cols] = bits[: len(rows)]
    return adj + adj.T


def rho_random_graphs(seed: int) -> list[tuple[str, int, str]]:
    """(name, n, graph6) of the run's seeded G(n, p) rho inputs."""
    import numpy as np

    rng = np.random.default_rng(seed)
    out = []
    for n, p in RHO_RANDOM:
        upper = np.triu(rng.random((n, n)) < p, 1)
        out.append((f"rho-n{n}-p{int(p * 100)}", n, graph6_from_matrix(upper | upper.T)))
    return out
