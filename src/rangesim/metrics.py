"""Per-timestep network measures on graph snapshots: each an (n, n)
symmetric boolean adjacency with a False diagonal.

Six measures per snapshot: average degree, average clustering, average
shortest path length, number of connected components, size of the
largest component, and the small-world index against sampled same-size
random graphs. `metric_chunks` computes all six for a run of snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import RngStream

DEFAULT_N_REF = 20


@dataclass(frozen=True)
class MetricsRow:
    """The six per-timestep measures; small_world is None when undefined."""

    avg_degree: float
    clustering: float
    aspl: float
    n_components: int
    largest_component: int
    small_world: float | None


METRIC_NAMES = ("avg_degree", "clustering", "aspl", "n_components",
                "largest_component", "small_world")


# Graphs go through the distance kernel in stacks of at most this many
# adjacency entries (one graph at least): 163 graphs at n = 20, 40 at
# n = 40, 10 at n = 80 and one from n = 182 up. Timed through
# `_dense_pass` on G(n, m), that is a quarter to two fifths less per
# graph than stacks of a quarter the size from n = 20 to 128; larger
# stacks lose again on sparse graphs.
_STACK_ELEMENTS = 1 << 16


def _stack_size(n: int) -> int:
    """Graphs of n nodes evaluated per kernel call."""
    return max(1, _STACK_ELEMENTS // (n * n))


# The dense pass counts each level's pairs in float32, exactly while
# n(n - 1) stays below 2^24.
_DENSE_MAX_NODES = 4096


@lru_cache(maxsize=8)
def _kernel_buffers(n: int) -> tuple[np.ndarray, ...]:
    """`_dense_pass`' four float32 (b, n, n) work arrays, b = `_stack_size(n)`,
    and n*n ones.

    One set per node count, overwritten by every call, which works in
    [:b] views of it: fresh arrays each timestep cost page faults once
    the allocator returns their memory.
    """
    return (*(np.empty((_stack_size(n), n, n), dtype=np.float32) for _ in range(4)),
            np.ones(n * n, dtype=np.float32))


def csr(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The compressed sparse row (CSR) form of an adjacency: each node's neighbors
    in ascending order, node after node, and the n + 1 bounds of their runs."""
    flat = np.flatnonzero(adj)
    return flat % len(adj), np.searchsorted(flat, np.arange(0, adj.size + 1, len(adj)))


def _graph_measures(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mean clustering, ASPL, component count and largest component size
    of each graph of a (b, n, n) stack, from one pass's counts.

    A stack whose every graph `_bitsets_pay` for, edges counted only
    where it can, takes `_bitset_pass` graph by graph, any other
    `_dense_pass`. Both count in integers, so their counts are equal:
    per node, closed pairs (each edge among its neighbors twice), degree
    and component size (itself included); per graph, the hop sum over
    ordered connected pairs and their count. Every division is made
    here. Both hop counts are exact in float64 and twice the unordered
    ones, so the rounded quotient is bit-identical to the mean over
    unordered pairs. A component of s nodes adds s terms 1/s to the
    count of components, so the float sum lies within n² 2^-53 of it
    and rounds to it exactly.
    """
    n = stack.shape[1]
    bitsets = _bitsets_pay(n, 0) and all(
        _bitsets_pay(n, np.count_nonzero(adj) // 2) for adj in stack)
    closed, degrees, hops, pairs, sizes = (
        map(np.concatenate, zip(*map(_bitset_pass, stack))) if bitsets else _dense_pass(stack))
    k = degrees.astype(np.float64)
    possible = k * (k - 1.0)
    local = np.divide(closed, possible, out=np.zeros_like(possible), where=possible > 0)
    aspl = np.divide(hops, pairs, out=np.zeros(len(stack)), where=pairs > 0)
    components = np.rint((1.0 / sizes).sum(axis=1)).astype(np.int64)
    return local.mean(axis=1), aspl, components, sizes.max(axis=1)


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


def _dense_pass(stack: np.ndarray) -> tuple[np.ndarray, ...]:
    """`_graph_measures`' counts by level-synchronous BFS on dense float32 products.

    BFS from every source of every graph at once, one float32
    `frontier @ A` product per level into reused buffers; the first,
    A @ A, also counts closed triangles and holds the degrees on its
    diagonal, and the loop stops once no graph can reach another pair.
    Closed pairs, pair counts and sizes are products with ones; a level's
    new pairs are the minimum of its walk counts and a 0/1 mask of the
    pairs not yet reached. Every count is an integer below 2^24 for n up
    to 4096, so float32 holds it exactly. A stack holds at most
    `_stack_size(n)` graphs, which the buffers fit.

    OpenBLAS's gemv now and then flags "invalid value" on these finite
    operands, with the right result: the flag is ignored, and a count that
    is not a whole number in its range raises FloatingPointError.
    """
    b, n = stack.shape[:2]
    *work, ones = _kernel_buffers(n)
    a, paths, frontier, unreached = (array[:b] for array in work)
    np.copyto(a, stack)
    with np.errstate(invalid="ignore"):
        np.matmul(a, a, out=paths)
        degrees = paths.diagonal(axis1=1, axis2=2).copy()
        # (A² ∘ A) row sums count each edge among a node's neighbors twice;
        # their buffer holds the frontier from level 2 on
        np.multiply(paths, a, out=frontier)
        closed = np.dot(frontier.reshape(b * n, n), ones[:n]).reshape(b, n)
        np.subtract(1, a, out=unreached)
        unreached.reshape(b, -1)[:, ::n + 1] = 0  # every node reaches itself
        found = np.dot(degrees, ones[:n]).astype(np.int64)
        hops, pairs = found.copy(), found.copy()
        level = 1
        # a graph is done once a level finds nothing or no pair is left unreached
        while np.any((found > 0) & (pairs < n * (n - 1))):
            if level > 1:
                np.matmul(frontier, a, out=paths)
            level += 1
            np.minimum(paths, unreached, out=frontier)
            unreached -= frontier
            found = np.dot(frontier.reshape(b, -1), ones).astype(np.int64)
            hops += level * found
            pairs += found
        sizes = n - np.dot(unreached.reshape(b * n, n), ones[:n]).astype(np.int64).reshape(b, n)
        # NaN fails every comparison; the int64 counts are whole by their type
        for counts, high in ((degrees, n - 1), (closed, n * n), (pairs, n * (n - 1)), (sizes, n)):
            if not (counts.min() >= 0 and counts.max() <= high
                    and (counts.dtype == np.int64 or np.array_equal(np.rint(counts), counts))):
                raise FloatingPointError("a kernel count is not a whole number in its range")
    return closed, degrees, hops, pairs, sizes


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


def _bitset_pass(adj: np.ndarray) -> tuple[np.ndarray, ...]:
    """`_dense_pass`' counts of one graph by bit-parallel multi-source BFS.

    Every node keeps the set of sources that have reached it as bits
    over ceil(n / 64) uint64 words (Then et al., PVLDB 8(4), 2014). A
    level gathers the frontier words of every neighbor entry in CSR
    order and ORs them per node with one `reduceat`; the new bits are
    those not yet seen, and a node's component size is the count of the
    bits it has seen. Closed pairs count the bits that the packed rows at
    the two ends of each entry share. Entries are gathered in blocks
    of whole nodes of about `_GATHER_WORDS` words, so that memory stays
    bounded on dense graphs.
    """
    n = len(adj)
    words = -(-n // 64)
    cols, bounds = csr(adj)
    degrees = np.diff(bounds)
    if not degrees.all():
        # an isolated node's one entry is node n, whose row stays zero: no empty segment
        cols = np.insert(cols, bounds[:-1][degrees == 0], n)
        bounds = np.concatenate(([0], np.cumsum(np.maximum(degrees, 1))))
    entries = np.diff(bounds)
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
    # padding bits past node n - 1 stay set in `unseen`
    sizes = _popcount(~unseen).sum(axis=1)
    return closed[None], degrees[None], np.array([hops]), np.array([pairs]), sizes[None]


@lru_cache(maxsize=None)
def _upper_flat(n: int) -> np.ndarray:
    """Flat indices i*n + j of the pairs i < j of an n-by-n matrix, row-major."""
    iu, ju = np.triu_indices(n, k=1)
    flat = iu * n + ju
    flat.setflags(write=False)  # shared by every caller
    return flat


def pair_adjacency(sets: np.ndarray, n: int) -> np.ndarray:
    """The (b, n, n) symmetric boolean adjacency, with a False diagonal,
    of b graphs given as (b, n(n - 1)/2) pair sets; pair k is the k-th
    pair i < j in row-major order."""
    upper = np.zeros((len(sets), n * n), dtype=bool)
    upper[:, _upper_flat(n)] = sets
    upper = upper.reshape(len(sets), n, n)
    return upper | upper.transpose(0, 2, 1)


# Reference graphs are drawn in blocks of at most this many slots (one
# stack at least), a reference counting max(n_pairs + 1, 2 * the
# call's largest edge count): 326 to 652 references at n = 20. A Floyd
# step costs a block a few µs whatever it holds, so blocks pay up to
# where their memory shows; this bounds a block's Floyd values, pair
# sets whatever n_ref is, to about 1 MB.
_BLOCK_SLOTS = 1 << 17

# Draws `_floyd_pair_sets` takes and checks at once (a reference's at
# least), which bounds their temporaries to about 100 KB: the 20
# references of a snapshot at n = 20 at once.
_RUN_DRAWS = 1 << 13

_SHIFT32 = np.uint64(32)


def _on_floyd_path(pairs: int, m: int) -> bool:
    """Whether numpy's `choice(pairs, m, replace=False)` runs Floyd's
    algorithm; above these sizes it shuffles the tail of an arange."""
    return pairs <= 10000 or m <= pairs // 50


def _floyd_batch_pays(refs: int, longest: int, pairs: int) -> bool:
    """Whether `_floyd_pair_sets` beats one `choice` call per reference
    for a block of refs references on `pairs` pairs, the largest of
    `longest` edges.

    Timed at n = 20 to 80, the batch costs about 3 µs per Floyd step of
    the longest reference and pairs / 25 µs besides, a `choice` call
    about 9 µs. The rule asks for a tenth to a third more references
    than where the two are level.
    """
    return 10 * refs >= 3 * longest + pairs // 25 + 30


def _floyd_pair_sets(pairs: int, sizes: Sequence[int], rng: RngStream) -> np.ndarray | None:
    """The pair sets of `_gnm_pairs` for sizes all on the Floyd path, every
    reference at once, as a (len(sizes), pairs) boolean array of the
    pairs chosen; pairs < 2**32, sizes at least 1.

    The draws are taken a run of equal sizes at a time, as the
    generator's 32-bit outputs (full-range uint32 `integers`). Each is
    numpy's bounded draw by Lemire's multiply-and-reject, as in
    `core.ExactDraws.integers`: output * bound >> 32, unless the low half
    of that product, the uint32 product, is below 2**32 % bound. Floyd's
    insertions then run one step for all references at once; the
    shuffle's draws are checked but not applied, since the set does not
    depend on the order. Returns None, with the generator put back, if
    any draw would be rejected and redrawn.
    """
    # runs of equal sizes (m, references), cut to about `_RUN_DRAWS` draws
    runs = []
    for m, group in groupby(sizes):
        count, most = len(list(group)), max(1, _RUN_DRAWS // (2 * m))
        runs += [(m, min(most, count - lo)) for lo in range(0, count, most)]
    refs = len(sizes)
    chosen = np.zeros((refs, pairs), dtype=bool)
    # per Floyd step, the values drawn as flat indices into `chosen`, one
    # column per reference short of every pair: the longest first, so
    # that the active[step] references still stepping lead, and `fresh`
    # holds the step's j in the column's row, pairs - m + step
    columns, stepping = {}, 0
    for k in sorted(range(len(runs)), key=lambda k: -runs[k][0]):
        if runs[k][0] < pairs:
            columns[k] = slice(stepping, stepping + runs[k][1])
            stepping += runs[k][1]
    value = np.empty((max((m for m, _ in runs if m < pairs), default=0), stepping), dtype=np.intp)
    fresh = np.empty(stepping, dtype=np.intp)
    active = np.zeros(len(value), dtype=np.intp)
    start = rng.bit_generator.state
    first = 0
    for k, (m, count) in enumerate(runs):
        # the exclusive bounds: Floyd's step j = pairs - m, ..., pairs - 1
        # draws below j + 1, except j = 0, which draws nothing; the
        # shuffle's step i = m - 1, ..., 1 draws below i + 1
        bound = np.concatenate((np.arange(max(pairs - m, 1) + 1, pairs + 1, dtype=np.uint32),
                                np.arange(m, 1, -1, dtype=np.uint32)))
        outputs = rng.integers(0, 1 << 32, size=(count, len(bound)), dtype=np.uint32)
        # -bound % bound is 2**32 % bound in uint32
        if np.any(outputs * bound < -bound % bound):
            rng.bit_generator.state = start
            return None
        if m == pairs:
            chosen[first:first + count] = True
        else:
            drawn = outputs[:, :m].T.astype(np.uint64)
            drawn *= bound[:m, None]
            drawn >>= _SHIFT32
            rows = pairs * np.arange(first, first + count, dtype=np.intp)
            value[:m, columns[k]] = drawn
            value[:m, columns[k]] += rows
            fresh[columns[k]] = rows + (pairs - m)
            active[:m] += count
        first += count
    flat = chosen.reshape(-1)
    for v, width in zip(value, active.tolist()):
        v = v[:width]
        np.copyto(v, fresh[:width], where=flat[v])
        flat[v] = True
        fresh += 1
    return chosen


def _gnm_pairs(n: int, sizes: Sequence[int], rng: RngStream) -> np.ndarray:
    """G(n, m) reference graphs, one per size m, as a (len(sizes),
    n(n - 1)/2) boolean array of the pairs chosen, in the order of
    `pair_adjacency`.

    The pairs are those of consecutive `rng.choice(n_pairs, m,
    replace=False)` calls, which the generator ends after. Sizes of at
    least one edge on the Floyd path go through `_floyd_pair_sets` where
    its rule says the batch pays; everything else, and a batch that
    meets a rejected draw, calls `choice` once per size.
    """
    pairs = n * (n - 1) // 2
    if (min(sizes) > 0 and _floyd_batch_pays(len(sizes), max(sizes), pairs)
            and all(_on_floyd_path(pairs, m) for m in set(sizes))):
        sets = _floyd_pair_sets(pairs, sizes, rng)
        if sets is not None:
            return sets
    sets = np.zeros((len(sizes), pairs), dtype=bool)
    for row, m in zip(sets, sizes):
        if m > 0:
            row[rng.choice(pairs, size=m, replace=False)] = True
    return sets


def _reference_means(n: int, edge_counts: Sequence[int], n_ref: int,
                     rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """(C_R, L_R) for each edge count: means over n_ref sampled G(n, m) graphs.

    References are drawn in order, n_ref per edge count, a block of
    `_gnm_pairs` at a time; each block is evaluated in stacks of
    `_stack_size(n)` and dropped, so memory stays bounded whatever
    n_ref is. Each mean is summed reference by reference, left to
    right, as a running total. From n = 3 up a complete graph's C and L
    are 1 exactly, so the references of a complete snapshot are drawn,
    which keeps the stream, but not measured.
    """
    pairs = n * (n - 1) // 2
    complete = pairs if n >= 3 else -1
    total = len(edge_counts) * n_ref
    stack = _stack_size(n)
    block = max(stack, _BLOCK_SLOTS // max(pairs + 1, 2 * max(edge_counts, default=0))
                // stack * stack)
    sums = [[float(n_ref)] * 2 if m == complete else [0.0, 0.0] for m in edge_counts]
    for first in range(0, total, block):
        refs = range(first, min(first + block, total))
        sets = _gnm_pairs(n, [edge_counts[ref // n_ref] for ref in refs], rng)
        measured = [ref for ref in refs if edge_counts[ref // n_ref] != complete]
        for lo in range(0, len(measured), stack):
            adj = pair_adjacency(sets[[ref - first for ref in measured[lo:lo + stack]]], n)
            c, l, _, _ = _graph_measures(adj)
            for ref, c_ref, l_ref in zip(measured[lo:], c.tolist(), l.tolist()):
                running = sums[ref // n_ref]
                running[0] += c_ref
                running[1] += l_ref
        sets = adj = None  # dropped before the next block is drawn
    means = np.array(sums).reshape(-1, 2) / n_ref
    return means[:, 0], means[:, 1]


def _metrics_rows(snaps: Sequence[np.ndarray], rng: RngStream,
                  n_ref: int | None) -> list[MetricsRow]:
    """`metric_chunks`' rows of one stack of snapshots."""
    n = len(snaps[0])
    # graph by graph: at n = 200 a count_nonzero with an axis takes 8 times as long
    edges = [np.count_nonzero(adj) // 2 for adj in snaps]
    measures = _graph_measures(np.stack(snaps))
    clustering, aspl, counts, largest = (values.tolist() for values in measures)
    index: list[float | None] = [None] * len(snaps)
    if n_ref is not None:
        linked = [k for k, m in enumerate(edges) if m > 0]
        c_r, l_r = _reference_means(n, [edges[k] for k in linked], n_ref, rng)
        for k, c, l in zip(linked, c_r.tolist(), l_r.tolist()):
            if c != 0.0 and l != 0.0 and aspl[k] != 0.0:
                index[k] = (clustering[k] / c) / (aspl[k] / l)
    return [MetricsRow(2.0 * m / n, *values)
            for m, *values in zip(edges, clustering, aspl, counts, largest, index)]


def metric_chunks(snaps: Iterable[np.ndarray], rng: RngStream,
                  n_ref: int | None) -> Iterator[list[MetricsRow]]:
    """All six measures of each of a run of same-size snapshots, in order:
    the rows of each stack of `_stack_size(n)` snapshots (the last may be
    shorter), one kernel call each, yielded as soon as it is measured.

    Clustering is the mean local coefficient, nodes with fewer than two
    neighbors counting 0; ASPL is the mean hop count over connected
    pairs, 0 if none are. The small-world index is (C_G/C_R) / (L_G/L_R)
    against the means C_R and L_R over n_ref uniform graphs with the
    snapshot's node and edge counts, and None when C_R, L_R or L_G is 0;
    n_ref=None leaves it None and draws nothing, and an n_ref below 1
    raises ValueError at the first `next`.

    References are drawn in snapshot order, and none for an edgeless
    snapshot, so the rows and the generator's state afterwards do not
    depend on where the stacks fall.
    """
    if n_ref is not None and n_ref < 1:
        raise ValueError(f"need at least one reference graph, got n_ref={n_ref}")
    snaps = iter(snaps)
    for first in snaps:
        yield _metrics_rows([first, *islice(snaps, _stack_size(len(first)) - 1)], rng, n_ref)
