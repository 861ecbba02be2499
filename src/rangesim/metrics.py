"""Per-timestep network measures on immutable graph snapshots.

Six measures per snapshot: average degree, average clustering, average
shortest path length, number of connected components, size of the
largest component, and the small-world index against sampled same-size
random graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import RngStream

DEFAULT_N_REF = 20


@dataclass(frozen=True)
class NetworkSnapshot:
    """Simple undirected graph for one timestep.

    Wraps a symmetric boolean adjacency matrix with a False diagonal.
    Instances are read-only; degrees, clustering and the path-length and
    component statistics are derived lazily, each once.
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

    def neighbors(self, node: int) -> np.ndarray:
        return np.flatnonzero(self.adj[node])

    @cached_property
    def _clustering(self) -> float:
        return float(_local_clustering(self.adj[None])[0].mean())

    @cached_property
    def _path_stats(self) -> tuple[float, int, int]:
        """(ASPL, component count, largest component) from one kernel call."""
        hops, pairs, reps = _hop_distances(self.adj[None])
        return (_aspl(hops[0], pairs[0]), *_component_stats(reps[0]))


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


def average_degree(snap: NetworkSnapshot) -> float:
    """Population mean of node degrees, 2m/n."""
    return 2.0 * snap.edge_count / snap.n


# Reference graphs are sampled and evaluated in chunks of at most this many
# adjacency entries (one graph at least), which bounds each (b, n, n) float
# temporary to a few MB.
_BATCH_ELEMENTS = 1 << 20


def _local_clustering(stack: np.ndarray) -> np.ndarray:
    """Local clustering coefficient of every node of a (b, n, n) stack."""
    a = stack.astype(np.float64)
    k = a.sum(axis=2)
    # ((A@A) * A) row-sums count each edge among a node's neighbors twice
    closed = (np.matmul(a, a) * a).sum(axis=2)
    possible = k * (k - 1.0)
    return np.divide(closed, possible, out=np.zeros_like(closed),
                     where=possible > 0)


def average_clustering(snap: NetworkSnapshot) -> float:
    """Mean local clustering coefficient.

    Per node: linked neighbor pairs over possible neighbor pairs; nodes
    with fewer than two neighbors contribute 0.
    """
    return snap._clustering


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


def _aspl(hops, pairs) -> float:
    # Both counts are exact integers in float64 and twice the unordered
    # ones, so the rounded quotient is bit-identical to the mean over
    # unordered pairs.
    return float(hops / pairs) if pairs else 0.0


def _component_stats(reps: np.ndarray) -> tuple[int, int]:
    _, sizes = np.unique(reps, return_counts=True)
    return int(sizes.size), int(sizes.max())


def average_shortest_path_length(snap: NetworkSnapshot) -> float:
    """Mean shortest path length over connected node pairs; 0 if none are."""
    return snap._path_stats[0]


def components(snap: NetworkSnapshot) -> tuple[int, int]:
    """(number of connected components, size of the largest one)."""
    return snap._path_stats[1:]


_PAIR_INDEX_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    cached = _PAIR_INDEX_CACHE.get(n)
    if cached is None:
        cached = np.triu_indices(n, k=1)
        _PAIR_INDEX_CACHE[n] = cached
    return cached


def sample_gnm(n: int, m: int, rng: RngStream) -> NetworkSnapshot:
    """One uniform sample from the simple graphs with n nodes and m edges."""
    iu, ju = _pair_indices(n)
    n_pairs = iu.size
    if m > n_pairs:
        raise ValueError(f"cannot place {m} edges on {n} nodes")
    adj = np.zeros((n, n), dtype=bool)
    if m > 0:
        chosen = rng.choice(n_pairs, size=m, replace=False)
        adj[iu[chosen], ju[chosen]] = True
        adj |= adj.T
    return NetworkSnapshot(adj)


def small_world_index(snap: NetworkSnapshot, rng: RngStream,
                      n_ref: int = DEFAULT_N_REF) -> float | None:
    """Clustering and path-length ratios against same-size random graphs.

    The reference clustering C_R and path length L_R are means over n_ref
    graphs sampled uniformly with the snapshot's node and edge counts.
    Returns (C_G/C_R) / (L_G/L_R), or None whenever a ratio is undefined
    (C_R = 0, L_R = 0, or L_G = 0). An edgeless snapshot samples nothing.
    """
    if n_ref < 1:
        raise ValueError(f"need at least one reference graph, got n_ref={n_ref}")
    n, m = snap.n, snap.edge_count
    if m == 0:
        return None
    c_g = snap._clustering
    l_g = snap._path_stats[0]
    c_total = 0.0
    l_total = 0.0
    per_chunk = max(1, _BATCH_ELEMENTS // (n * n))
    for start in range(0, n_ref, per_chunk):
        # sampling draws in reference order; the computation draws nothing
        refs = np.stack([sample_gnm(n, m, rng).adj
                         for _ in range(min(per_chunk, n_ref - start))])
        local = _local_clustering(refs)
        hops, pairs, _ = _hop_distances(refs)
        # one reference at a time, so the sums round as they always have
        for k in range(len(refs)):
            c_total += float(local[k].mean())
            l_total += _aspl(hops[k], pairs[k])
    c_r = c_total / n_ref
    l_r = l_total / n_ref
    if c_r == 0.0 or l_r == 0.0 or l_g == 0.0:
        return None
    return (c_g / c_r) / (l_g / l_r)


def metrics_snapshot(snap: NetworkSnapshot, rng: RngStream, timestep: int = 0,
                     n_ref: int = DEFAULT_N_REF,
                     small_world: bool = True) -> MetricsRow:
    """All six measures for one snapshot.

    Small-world reference sampling is the only randomized part and
    consumes the generator deterministically; pass small_world=False to
    skip it (the column is then None).

    Path lengths and components share one distance computation, and the
    small-world index reuses the snapshot's clustering and path length;
    the results are identical to calling the individual operations.
    """
    aspl, count, largest = snap._path_stats
    clustering = average_clustering(snap)
    sw = small_world_index(snap, rng, n_ref=n_ref) if small_world else None
    return MetricsRow(
        avg_degree=average_degree(snap),
        clustering=clustering,
        aspl=aspl,
        n_components=count,
        largest_component=largest,
        small_world=sw,
        timestep=timestep,
    )
