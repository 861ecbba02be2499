"""Naive reference implementations used as independent test oracles.

Everything here is deliberately brute force (triple enumeration,
Floyd-Warshall over dicts, exhaustive labelling) and shares no code with
the package's metric implementations. `edge_set` and `snapshot_from_edges`
convert between the oracles' edge sets and the package's adjacency
matrices. `RangeOracle` is the range model on (x, y) tuples and a dict of
occupied tiles, the reference for the package's padded int grid.
"""

from __future__ import annotations

import math

import numpy as np

from rangesim.metrics import NetworkSnapshot

INF = math.inf


def edge_set(adj):
    """Unordered (i, j) pairs with i < j of a symmetric boolean matrix."""
    iu, ju = np.nonzero(np.triu(adj, k=1))
    return {(int(i), int(j)) for i, j in zip(iu, ju)}


def snapshot_from_edges(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-link on node {i}")
        adj[i, j] = adj[j, i] = True
    return NetworkSnapshot(adj)


def adjacency_sets(n, edges):
    nbrs = {i: set() for i in range(n)}
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    return nbrs


def degree_oracle(n, edges):
    return 2 * len(set(edges)) / n


def clustering_oracle(n, edges):
    nbrs = adjacency_sets(n, edges)
    total = 0.0
    for i in range(n):
        k = len(nbrs[i])
        if k < 2:
            continue
        ns = sorted(nbrs[i])
        closed = 0
        for a in range(len(ns)):
            for b in range(a + 1, len(ns)):
                if ns[b] in nbrs[ns[a]]:
                    closed += 1
        total += closed / (k * (k - 1) / 2)
    return total / n


def floyd_warshall_oracle(n, edges):
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for i, j in edges:
        dist[i][j] = dist[j][i] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = dist[i][k] + dist[k][j]
                if through < dist[i][j]:
                    dist[i][j] = through
    return dist


def aspl_oracle(n, edges):
    dist = floyd_warshall_oracle(n, edges)
    finite = [dist[i][j] for i in range(n) for j in range(i + 1, n)
              if dist[i][j] < INF]
    return sum(finite) / len(finite) if finite else 0.0


def components_oracle(n, edges):
    nbrs = adjacency_sets(n, edges)
    label = [None] * n
    count = 0
    sizes = []
    for start in range(n):
        if label[start] is not None:
            continue
        stack = [start]
        label[start] = count
        size = 0
        while stack:
            node = stack.pop()
            size += 1
            for other in nbrs[node]:
                if label[other] is None:
                    label[other] = count
                    stack.append(other)
        sizes.append(size)
        count += 1
    return count, max(sizes)


def small_world_oracle(n, edges, reference_graphs):
    """Direct evaluation of the index formula on given reference graphs.

    `reference_graphs` are (n, edges) pairs; sharing the sampled
    references with the implementation under test is what makes the
    comparison meaningful, while C and L come from the oracles above.
    """
    c_g = clustering_oracle(n, edges)
    l_g = aspl_oracle(n, edges)
    c_r = sum(clustering_oracle(rn, re) for rn, re in reference_graphs) / len(reference_graphs)
    l_r = sum(aspl_oracle(rn, re) for rn, re in reference_graphs) / len(reference_graphs)
    if c_r == 0.0 or l_r == 0.0 or l_g == 0.0:
        return None
    return (c_g / c_r) / (l_g / l_r)


def in_range_links_oracle(positions, r):
    """All unordered pairs whose Euclidean distance is at most r."""
    links = set()
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            dx = positions[i][0] - positions[j][0]
            dy = positions[i][1] - positions[j][1]
            if math.sqrt(dx * dx + dy * dy) <= r:
                links.add((i, j))
    return links


def agent_xy(world):
    """Every agent's (x, y) tile of a WorldState, as tuples."""
    return [tuple(xy) for xy in world.coordinates().tolist()]


def tile_xy(world, tile):
    """(x, y) of a flat index into a WorldState's padded grid."""
    x, y = divmod(tile, world.g + 2)
    return x - 1, y - 1


class RangeOracle:
    """Range model on (x, y) tuples with a dict from tile to agent.

    Draws from `rng` exactly as the model does: the placement shuffle,
    then per step one agent-order permutation and one bounded integer
    per agent.
    """

    def __init__(self, g, n, r, rng):
        self.g, self.r, self.rng = g, r, rng
        self.positions = [divmod(int(t), g) for t in rng.permutation(g * g)[:n]]
        self.occupancy = {pos: agent for agent, pos in enumerate(self.positions)}

    def candidate_moves(self, agent):
        x, y = self.positions[agent]
        moves = []
        for dx in (-1, 0, 1):
            nx = x + dx
            if not 0 <= nx < self.g:
                continue
            for dy in (-1, 0, 1):
                ny = y + dy
                if not 0 <= ny < self.g:
                    continue
                holder = self.occupancy.get((nx, ny))
                if holder is None or holder == agent:
                    moves.append((nx, ny))
        return moves

    def step(self):
        """Move every agent once; returns the in-range link set."""
        for agent in self.rng.permutation(len(self.positions)):
            agent = int(agent)
            moves = self.candidate_moves(agent)
            target = moves[int(self.rng.integers(len(moves)))]
            current = self.positions[agent]
            if target != current:
                del self.occupancy[current]
                self.occupancy[target] = agent
                self.positions[agent] = target
        return in_range_links_oracle(self.positions, self.r)


def random_graph(n, rng, p=None):
    """Random test graph as an edge set (for oracle-equivalence sweeps)."""
    if p is None:
        p = rng.random()
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
    return edges
