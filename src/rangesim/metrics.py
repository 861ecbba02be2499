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
        return self.adj.sum(axis=1)

    @property
    def edge_count(self) -> int:
        return int(self.degrees.sum()) // 2

    @cached_property
    def neighbor_lists(self) -> list[list[int]]:
        """Each node's neighbors in ascending order, as Python ints."""
        cols = np.nonzero(self.adj)[1].tolist()
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


def _local_clustering(stack: np.ndarray) -> np.ndarray:
    """Local clustering coefficient of every node of a (b, n, n) stack."""
    a = stack.astype(np.float64)
    k = a.sum(axis=2)
    # ((A@A) * A) row-sums count each edge among a node's neighbors twice
    closed = (np.matmul(a, a) * a).sum(axis=2)
    possible = k * (k - 1.0)
    return np.divide(closed, possible, out=np.zeros_like(closed),
                     where=possible > 0)


def _hop_distances(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shortest-path hop counts of a (b, n, n) stack of graphs.

    Returns (hops, pairs, reps): per graph, the sum of hop counts over
    ordered connected pairs and the number of those pairs; per node, the
    lowest-indexed node it reaches, which labels its component.

    Level-synchronous BFS from every source of every graph at once: one
    float32 `frontier @ A` product per level.
    """
    n = stack.shape[1]
    frontier = stack.astype(np.float32)
    a = frontier.copy()
    unreached = ~stack
    unreached[:, np.arange(n), np.arange(n)] = False
    found = np.count_nonzero(stack, axis=(1, 2))
    hops = found.copy()
    pairs = found.copy()
    nxt = np.empty_like(stack)
    level = 1
    while found.any():
        level += 1
        np.greater(np.matmul(frontier, a), 0, out=nxt)
        nxt &= unreached
        found = np.count_nonzero(nxt, axis=(1, 2))
        unreached ^= nxt
        hops += level * found
        pairs += found
        frontier[...] = nxt
    return hops, pairs, np.argmin(unreached, axis=2)


def _clustering_and_paths(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean clustering, ASPL and component labels of each graph of a stack.

    Each graph's mean is taken over its own row, and its ASPL is 0 when
    no pair is connected. Both hop counts are exact integers in float64
    and twice the unordered ones, so the rounded quotient is
    bit-identical to the mean over unordered pairs.
    """
    hops, pairs, reps = _hop_distances(stack)
    aspl = np.divide(hops, pairs, out=np.zeros(len(stack)), where=pairs > 0)
    return _local_clustering(stack).mean(axis=1), aspl, reps


def _snapshot_stats(stack: np.ndarray) -> list[tuple[float, float, int, int]]:
    """(clustering, ASPL, component count, largest component) per graph."""
    clustering, aspl, reps = _clustering_and_paths(stack)
    stats = []
    for c, l, labels in zip(clustering.tolist(), aspl.tolist(), reps):
        _, sizes = np.unique(labels, return_counts=True)
        stats.append((c, l, int(sizes.size), int(sizes.max())))
    return stats


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
                c, l, _ = _clustering_and_paths(_symmetric(buffer[:filled], n))
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
    stats = _snapshot_stats(np.stack([snap.adj for snap in snaps]))
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
