"""Per-timestep network measures on immutable graph snapshots.

Six measures per snapshot: average degree, average clustering, average
shortest path length, number of connected components, size of the
largest component, and the small-world index against sampled same-size
random graphs. `metrics_rows` computes all six for a chunk of snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .core import RngStream

DEFAULT_N_REF = 20


@dataclass(frozen=True)
class NetworkSnapshot:
    """Simple undirected graph for one timestep.

    Wraps a symmetric boolean adjacency matrix with a False diagonal.
    Instances are read-only and cache their degrees and neighbor lists;
    the measures come from `metrics_rows`.
    """

    adj: np.ndarray

    def __post_init__(self) -> None:
        adj = self.adj
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1] or adj.dtype != np.bool_:
            raise ValueError("adjacency must be a square boolean matrix")
        adj.setflags(write=False)

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.count_nonzero(self.adj, axis=1)

    @property
    def edge_count(self) -> int:
        return int(self.degrees.sum()) // 2

    @cached_property
    def neighbor_lists(self) -> list[list[int]]:
        """Each node's neighbors in ascending order, as Python ints."""
        cols = _neighbors(self.adj).tolist()
        ends = np.cumsum(self.degrees).tolist()
        return [cols[start:end] for start, end in zip([0, *ends], ends)]


@dataclass(frozen=True)
class MetricsRow:
    """The six per-timestep measures; small_world is None when undefined."""

    avg_degree: float
    clustering: float
    aspl: float
    n_components: int
    largest_component: int
    small_world: float | None
    timestep: int

METRIC_NAMES = ("avg_degree", "clustering", "aspl", "n_components",
                "largest_component", "small_world")


# Snapshots and reference graphs are evaluated in chunks of at most this
# many adjacency entries (one graph at least): 40 graphs at n = 20, one
# graph from n = 128 up, which keeps each (b, n, n) temporary small.
_BATCH_ELEMENTS = 1 << 14


def chunk_size(n: int) -> int:
    """Graphs of n nodes evaluated per kernel call."""
    return max(1, _BATCH_ELEMENTS // (n * n))


# The dense pass counts each level's pairs in float32, exactly while
# n(n - 1) stays below 2^24.
_DENSE_MAX_NODES = 4096


@lru_cache(maxsize=8)
def _kernel_buffers(b: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`_dense_pass`' three float32 (b, n, n) work arrays and n*n ones.

    One set per recent shape, overwritten by every call: fresh arrays each
    timestep cost page faults once the allocator returns their memory.
    """
    return (*(np.empty((b, n, n), dtype=np.float32) for _ in range(3)),
            np.ones(n * n, dtype=np.float32))


def _neighbors(adj: np.ndarray) -> np.ndarray:
    """The column indices of a compressed sparse row (CSR) adjacency:
    each node's neighbors in ascending order, node after node."""
    return np.flatnonzero(adj) % adj.shape[1]


def _mean_clustering(closed: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Mean local clustering per graph from (b, n) closed-pair counts,
    each edge among a node's neighbors counted twice."""
    k = degrees.astype(np.float64)
    possible = k * (k - 1.0)
    local = np.divide(closed, possible, out=np.zeros_like(closed), where=possible > 0)
    return local.mean(axis=1)


def _hop_distances(stack: np.ndarray, degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Clustering and hop counts of a (b, n, n) stack of graphs with (b, n)
    node degrees, in one pass.

    Returns (clustering, hops, pairs, reps): per graph, the mean local
    clustering, the hop sum over ordered connected pairs and their
    count; per node, the lowest-indexed node it reaches (its component
    label). A stack whose every graph `_bitsets_pay` for takes
    `_bitset_pass` graph by graph, any other `_dense_pass`; both count
    in integers, so their results are equal.
    """
    n = stack.shape[1]
    if all(_bitsets_pay(n, int(k.sum()) // 2) for k in degrees):
        results = [_bitset_pass(adj, k) for adj, k in zip(stack, degrees)]
        return tuple(np.concatenate(parts) for parts in zip(*results))
    return _dense_pass(stack, degrees)


def _bitsets_pay(n: int, m: int) -> bool:
    """Whether `_bitset_pass` beats `_dense_pass` on a graph of n nodes
    and m edges, or is the only exact one.

    A BFS level costs the dense pass n³ multiply-adds and the bitset pass
    about 2m·n / 64 word operations, so the choice follows the density.
    Measured on G(n, m), where levels are fewest and the bitsets' fixed
    costs weigh most, the bitsets are at most about 10% slower and mostly
    faster from n = 128 up while the mean degree 2m / n is at most n / 14.
    """
    return n > _DENSE_MAX_NODES or (n >= 128 and 28 * m <= n * n)


def _dense_pass(stack: np.ndarray, degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`_hop_distances` by level-synchronous BFS on dense float32 products.

    BFS from every source of every graph at once, one float32
    `frontier @ A` product per level into reused buffers; the first,
    A @ A, also counts closed triangles, and the loop stops once no
    graph can reach another pair. Each level's pairs are counted as a
    float32 dot product of the frontier with ones. Every count is an
    integer below 2^24 for n up to 4096, so float32 holds it exactly.
    """
    b, n = stack.shape[:2]
    a, product, frontier, ones = _kernel_buffers(b, n)
    np.copyto(a, stack)
    np.matmul(a, a, out=product)
    # (A² ∘ A) row sums count each edge among a node's neighbors twice;
    # their buffer holds the frontier from level 2 on
    np.multiply(product, a, out=frontier)
    clustering = _mean_clustering(frontier.sum(axis=2, dtype=np.float64), degrees)
    unreached = ~stack
    unreached[:, np.arange(n), np.arange(n)] = False
    found = np.dot(a.reshape(b, -1), ones).astype(np.int64)
    hops, pairs = found.copy(), found.copy()
    nxt = np.empty_like(stack)
    level = 1
    # a graph is done once a level finds nothing or no pair is left unreached
    while np.any((found > 0) & (pairs < n * (n - 1))):
        if level > 1:
            np.matmul(frontier, a, out=product)
        level += 1
        np.greater(product, 0, out=nxt)
        nxt &= unreached
        unreached ^= nxt
        frontier[...] = nxt
        found = np.dot(frontier.reshape(b, -1), ones).astype(np.int64)
        hops += level * found
        pairs += found
    return clustering, hops, pairs, np.argmin(unreached, axis=2)


# Words `_bitset_pass` gathers at once (at least one node's entries):
# 512 KiB, a range graph of 400 nodes in one block.
_GATHER_WORDS = 1 << 16

_M1, _M2, _M4, _H01 = (np.uint64(0x5555555555555555), np.uint64(0x3333333333333333),
                        np.uint64(0x0F0F0F0F0F0F0F0F), np.uint64(0x0101010101010101))


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each uint64 word, by SWAR arithmetic on uint64 only
    (numpy 1.x turns uint64 mixed with int64 into float64)."""
    one, two, four = np.uint64(1), np.uint64(2), np.uint64(4)
    x = words - ((words >> one) & _M1)
    x = (x & _M2) + ((x >> two) & _M2)
    x = (x + (x >> four)) & _M4
    return (x * _H01) >> np.uint64(56)


def _bitset_pass(adj: np.ndarray, degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`_hop_distances` of one graph by bit-parallel multi-source BFS.

    Every node keeps the set of sources that have reached it as bits
    over ceil(n / 64) uint64 words (Then et al., PVLDB 8(4), 2014). A
    level gathers the frontier words of every neighbor entry in CSR
    order and ORs them per node with one `reduceat`; the new bits are
    those not yet seen. Clustering counts the bits that the packed rows
    at the two ends of each entry share. Entries are gathered in blocks
    of whole nodes of about `_GATHER_WORDS` words, so that memory stays
    bounded on dense graphs.
    """
    n = len(adj)
    words = -(-n // 64)
    # an isolated node's one entry is node n, whose row stays all zero,
    # so that no reduceat segment is empty
    extended = np.zeros((n, n + 1), dtype=bool)
    extended[:, :n] = adj
    extended[:, n] = degrees == 0
    cols = _neighbors(extended)
    entries = np.maximum(degrees, 1)
    bounds = np.concatenate(([0], np.cumsum(entries)))
    # each block starts at the node holding every (_GATHER_WORDS / words)-th
    # entry; per block: its nodes, their neighbor entries, segment starts
    firsts = list(dict.fromkeys((np.searchsorted(
        bounds, np.arange(0, len(cols), max(1, _GATHER_WORDS // words)), side="right") - 1).tolist()))
    blocks = [(slice(v0, v1), cols[bounds[v0]:bounds[v1]], bounds[v0:v1] - bounds[v0])
              for v0, v1 in zip(firsts, [*firsts[1:], n])]
    # row v: bit s of word s // 64 is set when source s reached v at the
    # last level; at level 1, when s is a neighbor of v
    bits = np.zeros((n + 1, 8 * words), dtype=np.uint8)
    bits[:n, :-(-n // 8)] = np.packbits(adj, axis=1, bitorder="little")
    frontier = bits.view("<u8")
    closed = np.empty(n, dtype=np.uint64)
    for nodes, neighbors, segments in blocks:
        shared = frontier.take(neighbors, axis=0) & frontier[nodes].repeat(entries[nodes], axis=0)
        closed[nodes] = np.add.reduceat(_popcount(shared).ravel(), segments * words)
    clustering = _mean_clustering(closed.astype(np.float64)[None], degrees[None])
    node = np.arange(n)
    unseen = ~frontier[:n]
    unseen[node, node // 64] ^= np.uint64(1) << (node % 64).astype(np.uint64)
    new = np.empty_like(unseen)
    found = hops = pairs = int(degrees.sum())
    level = 1
    # done once a level finds nothing or no pair is left unreached
    while found and pairs < n * (n - 1):
        level += 1
        for nodes, neighbors, segments in blocks:
            np.bitwise_or.reduceat(frontier.take(neighbors, axis=0), segments, axis=0,
                                   out=new[nodes])
        new &= unseen
        unseen ^= new
        frontier[:n] = new
        # two calls count a level's bits, faster than `_popcount` at this size
        found = int(np.count_nonzero(np.unpackbits(new.view(np.uint8))))
        hops += level * found
        pairs += found
    # the component label is the lowest set bit; every node sees itself
    seen = ~unseen
    first = np.argmax(seen != 0, axis=1)
    word = seen[node, first]
    reps = 64 * first + np.frexp((word & (~word + np.uint64(1))).astype(np.float64))[1] - 1
    return clustering, np.array([hops]), np.array([pairs]), reps[None]


def _clustering_and_paths(stack: np.ndarray, degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean clustering, ASPL and component labels of each graph of a stack,
    given its node degrees.

    Each graph's ASPL is 0 when no pair is connected. Both hop counts
    are exact integers in float64 and twice the unordered ones, so the
    rounded quotient is bit-identical to the mean over unordered pairs.
    """
    clustering, hops, pairs, reps = _hop_distances(stack, degrees)
    aspl = np.divide(hops, pairs, out=np.zeros(len(stack)), where=pairs > 0)
    return clustering, aspl, reps


def _snapshot_stats(snaps: Sequence[NetworkSnapshot]) -> list[tuple[float, float, int, int]]:
    """(clustering, ASPL, component count, largest component) per snapshot."""
    clustering, aspl, reps = _clustering_and_paths(np.stack([snap.adj for snap in snaps]),
                                                   np.stack([snap.degrees for snap in snaps]))
    b, n = reps.shape
    # component sizes of every graph from one count over offset labels
    sizes = np.bincount((reps + n * np.arange(b)[:, None]).ravel(),
                        minlength=b * n).reshape(b, n)
    return list(zip(clustering.tolist(), aspl.tolist(),
                    np.count_nonzero(sizes, axis=1).tolist(), sizes.max(axis=1).tolist()))


@lru_cache(maxsize=None)
def _upper_flat(n: int) -> np.ndarray:
    """Flat indices i*n + j of the pairs i < j of an n-by-n matrix, row-major."""
    iu, ju = np.triu_indices(n, k=1)
    flat = iu * n + ju
    flat.setflags(write=False)  # shared by every caller
    return flat


def _draw_gnm(row: np.ndarray, n: int, m: int, rng: RngStream) -> None:
    """Set m uniformly chosen upper-triangle entries of a flat False n*n row.

    One `choice` draw of m pairs; m = 0 draws nothing.
    """
    if m > 0:
        upper = _upper_flat(n)
        row[upper[rng.choice(upper.size, size=m, replace=False)]] = True


def _symmetric(rows: np.ndarray, n: int) -> np.ndarray:
    upper = rows.reshape(-1, n, n)
    return upper | upper.transpose(0, 2, 1)


def _reference_means(n: int, edge_counts: Sequence[int], n_ref: int,
                     rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """(C_R, L_R) for each edge count: means over n_ref sampled G(n, m) graphs.

    References are drawn in order, n_ref per edge count, into one
    chunk-sized buffer that is evaluated whenever it fills, so memory
    stays bounded by the chunk. Each mean is summed reference by
    reference, left to right, as a running total rounds.
    """
    total = len(edge_counts) * n_ref
    clustering = np.empty(total)
    aspl = np.empty(total)
    buffer = np.zeros((min(chunk_size(n), total), n * n), dtype=bool)
    done = filled = 0
    for m in edge_counts:
        for _ in range(n_ref):
            _draw_gnm(buffer[filled], n, m, rng)
            filled += 1
            if filled == len(buffer) or done + filled == total:
                stack = _symmetric(buffer[:filled], n)
                c, l, _ = _clustering_and_paths(stack, np.count_nonzero(stack, axis=2))
                clustering[done:done + filled] = c
                aspl[done:done + filled] = l
                done += filled
                filled = 0
                buffer[:] = False
    return (np.cumsum(clustering.reshape(-1, n_ref), axis=1)[:, -1] / n_ref,
            np.cumsum(aspl.reshape(-1, n_ref), axis=1)[:, -1] / n_ref)


def metrics_rows(snaps: Sequence[NetworkSnapshot], timesteps: Sequence[int],
                 rng: RngStream, n_ref: int = DEFAULT_N_REF,
                 small_world: bool = True) -> list[MetricsRow]:
    """All six measures for each of a run of same-size snapshots.

    Clustering is the mean local coefficient, nodes with fewer than two
    neighbors counting 0; ASPL is the mean hop count over connected
    pairs, 0 if none are. The small-world index is (C_G/C_R) / (L_G/L_R)
    against the means C_R and L_R over n_ref uniform graphs with the
    snapshot's node and edge counts, and None when C_R, L_R or L_G is 0;
    small_world=False leaves it None and draws nothing.

    The snapshots' statistics come from one kernel call, so pass at most
    `chunk_size(n)` of them. References are drawn in snapshot order, and
    none for an edgeless snapshot, so the rows and the generator's state
    afterwards do not depend on how a run is split into calls.
    """
    if small_world and n_ref < 1:
        raise ValueError(f"need at least one reference graph, got n_ref={n_ref}")
    stats = _snapshot_stats(snaps)
    index: list[float | None] = [None] * len(snaps)
    if small_world:
        linked = [k for k, snap in enumerate(snaps) if snap.edge_count > 0]
        c_r, l_r = _reference_means(snaps[0].n, [snaps[k].edge_count for k in linked],
                                    n_ref, rng)
        for k, c, l in zip(linked, c_r.tolist(), l_r.tolist()):
            c_g, l_g = stats[k][:2]
            if c != 0.0 and l != 0.0 and l_g != 0.0:
                index[k] = (c_g / c) / (l_g / l)
    # `stats` holds the four measures between degree and small_world
    return [MetricsRow(2.0 * snap.edge_count / snap.n, *values, small_world=sw, timestep=t)
            for snap, values, t, sw in zip(snaps, stats, timesteps, index)]
