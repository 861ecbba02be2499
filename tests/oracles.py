"""Naive reference implementations used as independent test oracles.

Everything here is deliberately brute force (triple enumeration,
Floyd-Warshall over dicts, exhaustive labelling) and shares no code with
the package's metric implementations. `edge_set` and `snapshot_from_edges`
convert between the oracles' edge sets and the package's adjacency
matrices. `RangeOracle` is the range model on (x, y) tuples and a dict of
occupied tiles, the reference for the package's padded int grid. The
`*_oracle` diffusion steps hold potion inventories as sets of item names
and find neighbors with one `flatnonzero` per agent, the reference for
the package's int-bitmask inventories and per-snapshot neighbor lists.
`two_pass_kernel_oracle` is the batched metrics kernel as two separate
passes, float64 clustering and a BFS that runs every level, the
reference for the package's single pass with its shared first product
and early stop.
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


def two_pass_kernel_oracle(stack):
    """(mean clustering, hop sums, pair counts, component labels) of a
    (b, n, n) boolean stack, as `metrics._hop_distances` returns them.

    Clustering takes its own float64 A @ A; the float32 BFS then runs
    until a level finds no new pair in any graph, so a connected graph
    pays for one empty level.
    """
    a = stack.astype(np.float64)
    k = a.sum(axis=2)
    closed = (np.matmul(a, a) * a).sum(axis=2)
    possible = k * (k - 1.0)
    local = np.divide(closed, possible, out=np.zeros_like(closed), where=possible > 0)
    n = stack.shape[1]
    adj = stack.astype(np.float32)
    frontier = adj.copy()
    unreached = ~stack
    unreached[:, np.arange(n), np.arange(n)] = False
    found = np.count_nonzero(stack, axis=(1, 2))
    hops = found.copy()
    pairs = found.copy()
    level = 1
    while found.any():
        level += 1
        nxt = (np.matmul(frontier, adj) > 0) & unreached
        found = np.count_nonzero(nxt, axis=(1, 2))
        unreached ^= nxt
        hops += level * found
        pairs += found
        frontier = nxt.astype(np.float32)
    return local.mean(axis=1), hops, pairs, np.argmin(unreached, axis=2)


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


def cultural_step_oracle(snap, traits, cfg, rng):
    """Cultural transmission, drawing as the package does: per agent with a
    neighbor, one bounded integer, then one uniform if the traits differ."""
    new = traits.copy()
    for i in range(snap.n):
        nbrs = np.flatnonzero(snap.adj[i])
        if nbrs.size == 0:
            continue
        j = int(nbrs[rng.integers(nbrs.size)])
        if traits[j] == traits[i]:
            continue
        p = cfg.p_a if traits[j] == 0 else cfg.p_b
        if rng.random() < p:
            new[i] = traits[j]
    return new


def weighted_pick_oracle(items, count, scores, rng):
    """`count` distinct items by score-weighted draws over the sorted names,
    in pick order; None when fewer than `count` items are given."""
    if len(items) < count:
        return None
    pool = sorted(items)
    weights = [scores[item] for item in pool]
    total = sum(weights)
    picked = []
    for _ in range(count):
        u = rng.random() * total
        acc = 0.0
        idx = len(pool) - 1
        for pos, wgt in enumerate(weights):
            acc += wgt
            if u < acc:
                idx = pos
                break
        picked.append(pool.pop(idx))
        total -= weights.pop(idx)
    return picked


def try_combine_oracle(inv_i, inv_j, cfg, rng):
    """One combination attempt on sets of names; the product name or None."""
    count_i = int(rng.integers(1, 3))
    picks_i = weighted_pick_oracle(list(inv_i), count_i, cfg.item_scores, rng)
    if picks_i is None:
        return None
    remaining = [item for item in inv_j if item not in picks_i]
    picks_j = weighted_pick_oracle(remaining, 3 - count_i, cfg.item_scores, rng)
    if picks_j is None:
        return None
    recipes = {rec.inputs: rec.product for rec in cfg.recipes}
    return recipes.get(frozenset(picks_i + picks_j))


def potion_step_oracle(snap, inventories, cfg, rng):
    """One potion step on sets of names; (new inventories, created names)."""
    additions = [set() for _ in range(snap.n)]
    created = []
    for agent in rng.permutation(snap.n):
        i = int(agent)
        nbrs = np.flatnonzero(snap.adj[i])
        if nbrs.size == 0:
            continue
        j = int(nbrs[rng.integers(nbrs.size)])
        product = try_combine_oracle(inventories[i], inventories[j], cfg, rng)
        if product is None:
            continue
        created.append(product)
        additions[i].add(product)
        additions[j].add(product)
        if product not in inventories[i] or product not in inventories[j]:
            for participant in (i, j):
                for k in np.flatnonzero(snap.adj[participant]):
                    if rng.random() < cfg.p_diff:
                        additions[int(k)].add(product)
    return [inv | add for inv, add in zip(inventories, additions)], created
