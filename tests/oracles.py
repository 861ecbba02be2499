"""Naive reference implementations used as independent test oracles.

Everything here is deliberately brute force (triple enumeration,
Floyd-Warshall over dicts, exhaustive labelling) and shares no code with
the package's metric implementations. `edge_set` and `snapshot_from_edges`
convert between the oracles' edge sets and the package's adjacency
matrices, and `edge_count` counts an adjacency's edges. `RangeOracle` is
the range model on (x, y) tuples and a dict of occupied tiles, the
reference for the package's padded int grid. The
`*_oracle` diffusion steps hold potion inventories as sets of item names
and find neighbors with one `flatnonzero` per agent, the reference for
the package's int-bitmask inventories and per-snapshot neighbor lists.
`two_pass_kernel_oracle` is the batched metrics kernel as two separate
passes, float64 closed pairs and a BFS that runs every level, the
reference for the package's single pass with its shared first product
and early stop; `kernel_measures_oracle` divides its counts into the
kernel's per-graph measures. `choice_oracle` is numpy's `choice` without replacement
drawn one 32-bit output at a time, and `pair_sets_oracle` the loop of one
`choice` call per reference graph: the references for the package's
batched G(n, m) sampler.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf


def edge_set(adj):
    """Unordered (i, j) pairs with i < j of a symmetric boolean matrix."""
    iu, ju = np.nonzero(np.triu(adj, k=1))
    return {(int(i), int(j)) for i, j in zip(iu, ju)}


def edge_count(adj):
    """Unordered linked pairs of a symmetric boolean matrix."""
    return len(edge_set(adj))


def snapshot_from_edges(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-link on node {i}")
        adj[i, j] = adj[j, i] = True
    return adj


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
    """(closed pairs, degrees, hop sums, pair counts, component sizes) of
    a (b, n, n) boolean stack, as `metrics._dense_pass` returns them: per
    node, its closed pairs, degree and component size; per graph, the
    hop sum and count of its ordered connected pairs.

    Closed pairs take their own float64 A @ A; the float32 BFS then runs
    until a level finds no new pair in any graph, so a connected graph
    pays for one empty level. A node's component size is the number of
    nodes that share its label, the lowest-indexed node it reaches.
    """
    a = stack.astype(np.float64)
    closed = (np.matmul(a, a) * a).sum(axis=2)
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
    labels = np.argmin(unreached, axis=2)
    sizes = np.count_nonzero(labels[:, :, None] == labels[:, None, :], axis=2)
    return closed, a.sum(axis=2), hops, pairs, sizes


def kernel_measures_oracle(stack):
    """(mean clustering, ASPL, component count, largest component size) of
    each graph of a (b, n, n) boolean stack, as `metrics._graph_measures`
    returns them: float64 quotients of `two_pass_kernel_oracle`'s counts,
    and `components_oracle` for the components."""
    closed, degrees, hops, pairs, _ = two_pass_kernel_oracle(stack)
    possible = degrees * (degrees - 1.0)
    local = np.divide(closed, possible, out=np.zeros_like(closed), where=possible > 0)
    aspl = np.divide(hops, pairs, out=np.zeros(len(stack)), where=pairs > 0)
    counts, largest = zip(*(components_oracle(len(adj), edge_set(adj)) for adj in stack))
    return local.mean(axis=1), aspl, np.array(counts), np.array(largest)


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


def choice_oracle(rng, pop, m):
    """`rng.choice(pop, m, replace=False)` on numpy's Floyd path (pop <=
    10000 or m <= pop // 50), one 32-bit draw at a time.

    Returns the chosen list in numpy's order and the number of draws
    rejected and redrawn, and leaves the generator where numpy would.
    Floyd's algorithm (Bentley & Floyd, CACM 30(9), 1987) draws a value in
    [0, j] for each j = pop - m, ..., pop - 1 (j = 0 draws nothing) and
    takes j instead when the value is already chosen; a Fisher-Yates
    pass then swaps each i = m - 1, ..., 1 with a draw in [0, i]. A draw
    in [0, j] is Lemire's multiply-and-reject on 32-bit outputs (ACM
    TOMACS 29(1), 2019), which take a PCG64 word's low half, then its
    high half.
    """
    bits = rng.bit_generator
    state = bits.state
    buffered = [state["uinteger"]] if state["has_uint32"] else []
    high = state["uinteger"]
    rejected = 0

    def next32():
        nonlocal high
        if buffered:
            return buffered.pop()
        word = int(bits.random_raw())
        high = word >> 32
        buffered.append(high)
        return word & 0xFFFFFFFF

    def bounded(j):
        nonlocal rejected
        while True:
            product = next32() * (j + 1)
            low = product & 0xFFFFFFFF
            if low >= j + 1 or low >= (1 << 32) % (j + 1):
                return product >> 32
            rejected += 1

    order, chosen = [], set()
    for j in range(pop - m, pop):
        value = bounded(j) if j else 0
        if value in chosen:
            value = j
        chosen.add(value)
        order.append(value)
    for i in range(m - 1, 0, -1):
        k = bounded(i)
        order[i], order[k] = order[k], order[i]
    bits.state = {**bits.state, "has_uint32": len(buffered), "uinteger": high}
    return order, rejected


def pair_sets_oracle(pairs, sizes, rng):
    """One `rng.choice(pairs, m, replace=False)` per size m (none for m = 0),
    as a (len(sizes), pairs) boolean array: the per-reference loop that
    drew the small-world reference graphs before they were batched."""
    sets = np.zeros((len(sizes), pairs), dtype=bool)
    for row, m in zip(sets, sizes):
        if m > 0:
            row[rng.choice(pairs, size=m, replace=False)] = True
    return sets


def reference_means_oracle(n, edge_counts, n_ref, rng):
    """(C_R, L_R) per edge count over n_ref references drawn by
    `pair_sets_oracle`, each measured by the brute-force oracles above.
    Pair p is the p-th pair i < j in row-major order."""
    iu, ju = np.triu_indices(n, k=1)
    means = []
    for m in edge_counts:
        graphs = [list(zip(iu[row].tolist(), ju[row].tolist()))
                  for row in pair_sets_oracle(len(iu), [m] * n_ref, rng)]
        means.append((sum(clustering_oracle(n, edges) for edges in graphs) / n_ref,
                      sum(aspl_oracle(n, edges) for edges in graphs) / n_ref))
    return means


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


def cultural_step_oracle(adj, traits, cfg, rng):
    """Cultural transmission, drawing as the package does: per agent with a
    neighbor, one bounded integer, then one uniform if the traits differ."""
    new = traits.copy()
    for i in range(len(adj)):
        nbrs = np.flatnonzero(adj[i])
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


def potion_step_oracle(adj, inventories, cfg, rng):
    """One potion step on sets of names; (new inventories, created names)."""
    additions = [set() for _ in range(len(adj))]
    created = []
    for agent in rng.permutation(len(adj)):
        i = int(agent)
        nbrs = np.flatnonzero(adj[i])
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
                for k in np.flatnonzero(adj[participant]):
                    if rng.random() < cfg.p_diff:
                        additions[int(k)].add(product)
    return [inv | add for inv, add in zip(inventories, additions)], created
