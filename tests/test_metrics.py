import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components, shortest_path

from rangesim import metrics
from rangesim.cli import main
from rangesim.core import ModelKind, SimConfig, make_rng
from rangesim.harness import iter_model
from rangesim.range_model import max_sq_distance, range_links

from measures import (
    average_clustering,
    average_degree,
    average_shortest_path_length,
    components,
    metrics_snapshot,
    patch_stack_size,
    sample_gnm,
    small_world_index,
)
from oracles import (
    aspl_oracle,
    choice_oracle,
    clustering_oracle,
    components_oracle,
    degree_oracle,
    edge_count,
    edge_set,
    kernel_measures_oracle,
    pair_sets_oracle,
    random_graph,
    reference_means_oracle,
    small_world_oracle,
    snapshot_from_edges,
    two_pass_kernel_oracle,
)


def snap(n, edges):
    return snapshot_from_edges(n, edges)


def complete(n):
    return snap(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestWorkedExamples:
    def test_degree_empty(self):
        assert average_degree(snap(7, [])) == 0.0

    def test_degree_complete(self):
        assert average_degree(complete(6)) == 5.0

    def test_degree_path(self):
        assert average_degree(snap(3, [(0, 1), (1, 2)])) == pytest.approx(4 / 3)

    def test_clustering_one_third_node(self):
        # hub 0 linked to 1,2,3 with only 1-2 closed: local coefficient 1/3
        g = snap(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        a = g.astype(float)
        local_hub = ((a @ a) * a)[0].sum() / (3 * 2)
        assert local_hub == pytest.approx(1 / 3)
        assert average_clustering(g) == pytest.approx((1 / 3 + 1 + 1 + 0) / 4)

    def test_clustering_complete_is_one(self):
        assert average_clustering(complete(5)) == 1.0

    def test_aspl_no_edges(self):
        assert average_shortest_path_length(snap(6, [])) == 0.0

    def test_aspl_complete_is_one(self):
        assert average_shortest_path_length(complete(5)) == 1.0

    def test_aspl_path_three(self):
        assert average_shortest_path_length(snap(3, [(0, 1), (1, 2)])) == pytest.approx(4 / 3)

    def test_components_no_edges(self):
        assert components(snap(8, [])) == (8, 1)

    def test_components_connected(self):
        assert components(complete(6)) == (1, 6)

    def test_components_two_pairs(self):
        assert components(snap(5, [(0, 1), (2, 3)])) == (3, 2)

    def test_small_world_complete_is_one(self):
        assert small_world_index(complete(5), make_rng(1, 0), n_ref=4) == pytest.approx(1.0)

    def test_small_world_empty_missing(self):
        assert small_world_index(snap(5, []), make_rng(1, 0), n_ref=4) is None


class TestMetricsSnapshot:
    def test_empty_graph_row(self):
        row = metrics_snapshot(snap(5, []), make_rng(1, 0))
        assert (row.avg_degree, row.clustering, row.aspl) == (0.0, 0.0, 0.0)
        assert (row.n_components, row.largest_component) == (5, 1)
        assert row.small_world is None

    def test_complete_graph_row(self):
        row = metrics_snapshot(complete(5), make_rng(1, 0))
        assert (row.avg_degree, row.clustering, row.aspl) == (4.0, 1.0, 1.0)
        assert (row.n_components, row.largest_component) == (1, 5)
        assert row.small_world == pytest.approx(1.0)

    def test_composition_matches_parts(self):
        g = snap(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        row = metrics_snapshot(g, make_rng(4, 0), n_ref=6)
        assert row.avg_degree == average_degree(g)
        assert row.clustering == average_clustering(g)
        assert row.aspl == average_shortest_path_length(g)
        assert (row.n_components, row.largest_component) == components(g)
        assert row.small_world == small_world_index(g, make_rng(4, 0), n_ref=6)

    def test_small_world_disabled(self):
        row = metrics_snapshot(complete(4), make_rng(1, 0), n_ref=None)
        assert row.small_world is None

    def test_single_node_row(self):
        row = metrics_snapshot(snap(1, []), make_rng(1, 0))
        assert (row.avg_degree, row.aspl, row.n_components, row.largest_component) == (
            0.0, 0.0, 1, 1)
        assert row.small_world is None


def fw_reference(g):
    """(ASPL, components) from scipy Floyd-Warshall and connected_components."""
    dist = shortest_path(g.astype(np.float64), method="FW", directed=False)
    pair_dists = dist[np.triu_indices(len(g), k=1)]
    finite = pair_dists[np.isfinite(pair_dists)]
    aspl = float(finite.mean()) if finite.size else 0.0
    count, labels = connected_components(csr_array(g), directed=False)
    return aspl, (int(count), int(np.bincount(labels).max()))


def path(n):
    return snap(n, [(i, i + 1) for i in range(n - 1)])


def kernel_cases(n, rng):
    """Range, null and G(n,m) graphs, sparse and dense, plus edge cases."""
    g = int(np.ceil(np.sqrt(2 * n)))
    graphs = []
    for r in (1.0, 1.5, 2.0, 3.0):
        tiles = rng.choice(g * g, size=n, replace=False)
        graphs.append(range_links(tiles, g, max_sq_distance(r, g)))
    for mean_degree in (1, 2, 3.5, 4, 8):
        p = min(1.0, mean_degree / (n - 1))
        upper = np.triu(rng.random((n, n)) < p, k=1)
        graphs.append(upper | upper.T)
        m = int(mean_degree * n / 2)
        graphs.append(sample_gnm(n, m, make_rng(int(rng.integers(1 << 30)), 0)))
    graphs += [snap(n, []), path(n), complete(n)]
    return graphs


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [20, 40, 80, 200])
    def test_kernel_matches_floyd_warshall_exactly(self, n):
        graphs = kernel_cases(n, np.random.default_rng(n))
        for g in graphs:
            aspl, comps = fw_reference(g)
            assert average_shortest_path_length(g) == aspl
            assert components(g) == comps
            row = metrics_snapshot(g, make_rng(0, 0), n_ref=None)
            assert (row.aspl, (row.n_components, row.largest_component)) == (aspl, comps)

    def test_single_node_and_edgeless(self):
        for g in (snap(1, []), snap(2, []), snap(150, [])):
            assert average_shortest_path_length(g) == 0.0
            assert components(g) == (len(g), 1)
        assert fw_reference(snap(150, [])) == (0.0, (150, 1))

    def test_small_world_matches_sequential_loop(self):
        rng = np.random.default_rng(20)
        for seed in range(30):
            g = snap(20, random_graph(20, rng, p=rng.uniform(0.05, 0.5)))
            value = small_world_index(g, make_rng(seed, 0), n_ref=20)
            refs_rng = make_rng(seed, 0)
            c_total = l_total = 0.0
            for _ in range(20):
                ref = sample_gnm(20, edge_count(g), refs_rng)
                c_total += average_clustering(ref)
                l_total += fw_reference(ref)[0]
            c_r, l_r = c_total / 20, l_total / 20
            l_g = fw_reference(g)[0]
            if c_r == 0.0 or l_r == 0.0 or l_g == 0.0:
                assert value is None
            else:
                assert value == (average_clustering(g) / c_r) / (l_g / l_r)

    def test_reference_chunks_do_not_change_the_index(self, monkeypatch):
        g = snap(20, random_graph(20, np.random.default_rng(3), p=0.2))
        whole = small_world_index(g, make_rng(5, 0), n_ref=20)
        # three references per stack: 20 = 3 * 6 + 2
        patch_stack_size(monkeypatch, 20, 3)
        assert small_world_index(g, make_rng(5, 0), n_ref=20) == whole
        assert whole is not None

    def test_edgeless_snapshot_samples_nothing(self):
        rng = make_rng(4, 0)
        assert small_world_index(snap(10, []), rng, n_ref=20) is None
        assert rng.random() == make_rng(4, 0).random()

    def test_snapshot_distances_computed_once(self, monkeypatch):
        batches = []
        kernel = metrics._graph_measures
        monkeypatch.setattr(metrics, "_graph_measures", lambda stack:
                            batches.append(len(stack)) or kernel(stack))
        g = snap(20, random_graph(20, np.random.default_rng(8), p=0.2))
        row = metrics_snapshot(g, make_rng(6, 0), n_ref=20)
        assert row.aspl > 0 and row.n_components >= 1
        # the snapshot once, then its 20 references in one batch
        assert batches == [1, 20]

    def test_random_graphs_match_oracles(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            edges = random_graph(n, rng)
            g = snap(n, edges)
            assert abs(average_degree(g) - degree_oracle(n, edges)) <= 1e-12
            assert abs(average_clustering(g) - clustering_oracle(n, edges)) <= 1e-12
            assert abs(average_shortest_path_length(g) - aspl_oracle(n, edges)) <= 1e-12
            assert components(g) == components_oracle(n, edges)

    def test_small_world_matches_direct_formula(self):
        # same sampled references, independently coded C and L routines
        rng = np.random.default_rng(7)
        for seed in range(25):
            n = int(rng.integers(2, 13))
            edges = random_graph(n, rng)
            g = snap(n, edges)
            value = small_world_index(g, make_rng(seed, 0), n_ref=5)
            refs_rng = make_rng(seed, 0)
            refs = [sample_gnm(n, edge_count(g), refs_rng) for _ in range(5)]
            expected = small_world_oracle(n, edges, [(len(r), edge_set(r)) for r in refs])
            if expected is None:
                assert value is None
            else:
                assert value == pytest.approx(expected, abs=1e-12)


GRAPH_KINDS = ("connected", "disconnected", "edgeless", "complete", "path", "random")


def kernel_graph(kind, n, rng):
    """A boolean adjacency matrix of one kind, on shuffled node labels.

    "connected" is a random tree plus random chords; "disconnected" is
    two of those on a random split of the nodes.
    """
    adj = np.zeros((n, n), dtype=bool)
    order = rng.permutation(n)
    if kind == "complete":
        adj[:] = True
    elif kind == "path":
        adj[order[:-1], order[1:]] = True
    elif kind == "random":
        adj = rng.random((n, n)) < rng.random() ** 2
    elif kind != "edgeless":
        cut = int(rng.integers(1, n)) if kind == "disconnected" else n
        for part in (order[:cut], order[cut:]):
            for t in range(1, len(part)):
                adj[part[t], part[rng.integers(t)]] = True
            chords = rng.random((len(part), len(part))) < rng.random() * 3 / n
            adj[np.ix_(part, part)] |= chords
    adj = np.triu(adj | adj.T, k=1)
    return adj | adj.T


class TestFusedKernel:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.sampled_from([5, 20, 127, 128, 200]), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_matches_two_pass_kernel(self, n, seed, data):
        # up to 40 graphs per stack at n = 20; from n = 127 up a few, which
        # keeps a 200-node path's 199 levels cheap, and no more than a stack
        kinds = data.draw(st.lists(st.sampled_from(GRAPH_KINDS), min_size=1,
                                   max_size=min(40 if n <= 20 else 3, metrics._stack_size(n))),
                          label="kinds")
        rng = np.random.default_rng(seed)
        stack = np.stack([kernel_graph(kind, n, rng) for kind in kinds])
        expected = [values.tolist() for values in two_pass_kernel_oracle(stack)]
        assert [values.tolist() for values in metrics._dense_pass(stack)] == expected
        bitsets = map(np.concatenate, zip(*map(metrics._bitset_pass, stack)))
        assert [values.tolist() for values in bitsets] == expected
        measures = metrics._graph_measures(stack)
        assert [values.tolist() for values in measures] == [
            values.tolist() for values in kernel_measures_oracle(stack)]
        assert [(row.n_components, row.largest_component) for row in metrics.metric_rows(
            list(stack), None, None)] == [
            components_oracle(n, edge_set(adj)) for adj in stack]

    @pytest.mark.parametrize("b,n", [(40, 20), (3, 5), (1, 200)])
    def test_results_survive_the_next_call_of_the_same_shape(self, b, n):
        # the float32 work arrays are reused per shape; the results are not
        rng = np.random.default_rng(b * n)
        first, second = (np.stack([kernel_graph(kind, n, rng) for kind in
                                   itertools.islice(itertools.cycle(GRAPH_KINDS), b)])
                         for _ in range(2))
        results = metrics._graph_measures(first)
        kept = [values.tolist() for values in results]
        again = metrics._graph_measures(second)
        assert [values.tolist() for values in results] == kept
        assert [values.tolist() for values in again] == [
            values.tolist() for values in kernel_measures_oracle(second)]

    def test_one_buffer_set_per_node_count(self, monkeypatch):
        # every stack size from 1 to the largest, each on [:b] views of the
        # buffers the sizes before it left dirty
        n, largest = 20, metrics._stack_size(20)
        rng = np.random.default_rng(17)
        stack = np.stack([kernel_graph(kind, n, rng) for kind in
                          itertools.islice(itertools.cycle(GRAPH_KINDS), largest)])
        metrics._kernel_buffers.cache_clear()
        on_views = [metrics._dense_pass(stack[:b]) for b in range(1, largest + 1)]
        assert metrics._kernel_buffers.cache_info().currsize == 1
        assert [len(work) for work in metrics._kernel_buffers(n)[:4]] == [largest] * 4
        for b, results in enumerate(on_views, start=1):
            # fresh arrays of exactly b graphs, filled with NaN
            monkeypatch.setattr(metrics, "_kernel_buffers", lambda n, b=b: (
                *(np.full((b, n, n), np.nan, dtype=np.float32) for _ in range(4)),
                np.ones(n * n, dtype=np.float32)))
            fresh = metrics._dense_pass(stack[:b])
            assert [values.tobytes() for values in results] == [values.tobytes() for values in fresh]

    def test_a_count_that_is_no_whole_number_raises(self, monkeypatch):
        # NaN ones stand for a product gone wrong: the "invalid value" flag
        # the pass ignores must not let it through
        monkeypatch.setattr(metrics, "_kernel_buffers", lambda n: (
            *(np.empty((1, n, n), dtype=np.float32) for _ in range(4)),
            np.full(n * n, np.nan, dtype=np.float32)))
        with pytest.raises(FloatingPointError, match="whole number"):
            metrics._dense_pass(kernel_graph("connected", 5, np.random.default_rng(0))[None])

    @pytest.mark.parametrize("n", [2, 3, 20])
    def test_dense_pass_on_edgeless_partial_and_complete_graphs(self, n):
        # one stack: no edges, a connected graph minus its isolated nodes
        # (the last third, at least one), every edge
        rng = np.random.default_rng(n)
        partial = kernel_graph("connected", n, rng)
        cut = np.arange(n - max(1, n // 3), n)
        partial[cut] = partial[:, cut] = False
        stack = np.stack([kernel_graph("edgeless", n, rng), partial,
                          kernel_graph("complete", n, rng)])
        results = metrics._dense_pass(stack)
        assert [values.tolist() for values in results] == [
            values.tolist() for values in two_pass_kernel_oracle(stack)]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.sampled_from([63, 64, 65, 127, 128, 129, 200]), kind=st.sampled_from(GRAPH_KINDS),
           isolated=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_bitset_pass_matches_two_pass_kernel(self, n, kind, isolated, seed):
        # 63 to 65 and 127 to 129 nodes straddle the 64-bit word edges
        rng = np.random.default_rng(seed)
        adj = kernel_graph(kind, n, rng)
        cut = rng.choice(n, size=isolated, replace=False)
        adj[cut] = adj[:, cut] = False
        results = metrics._bitset_pass(adj)
        assert [values.tolist() for values in results] == [
            values.tolist() for values in two_pass_kernel_oracle(adj[None])]

    @pytest.mark.parametrize("gather_words", [1, 8, 64])
    def test_bitset_blocks_do_not_change_results(self, gather_words, monkeypatch):
        # blocks of one node, of a few nodes and of a few dozen nodes
        monkeypatch.setattr(metrics, "_GATHER_WORDS", gather_words)
        rng = np.random.default_rng(gather_words)
        for kind in GRAPH_KINDS:
            adj = kernel_graph(kind, 130, rng)
            adj[7] = adj[:, 7] = False
            results = metrics._bitset_pass(adj)
            assert [values.tolist() for values in results] == [
                values.tolist() for values in two_pass_kernel_oracle(adj[None])]

    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(n=st.sampled_from([127, 128, 129, 200]), above=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_both_sides_of_the_switch_match(self, n, above, seed):
        # the bitsets take G(n, m) from n = 128 up while 28 m <= n², so
        # their graphs make no np.matmul call
        m = n * n // 28 + above
        g = sample_gnm(n, m, make_rng(seed, 0))
        with pytest.MonkeyPatch.context() as patch:
            assert (self.products(patch, g) == 0) == (n >= 128 and not above)
        results = metrics._graph_measures(g[None])
        assert [values.tolist() for values in results] == [
            values.tolist() for values in kernel_measures_oracle(g[None])]

    def test_graph_above_4096_nodes_has_closed_form_measures(self):
        # a star with 4100 leaves, a triangle and two isolated nodes on
        # shuffled labels; the dense pass's float32 pair counts would pass 2^24
        leaves, n = 4100, 4106
        order = np.random.default_rng(0).permutation(n)
        hub, spokes, triangle = order[0], order[1:leaves + 1], order[leaves + 1:leaves + 4]
        adj = np.zeros((n, n), dtype=bool)
        adj[hub, spokes] = adj[spokes, hub] = True
        for i, j in itertools.combinations(triangle, 2):
            adj[i, j] = adj[j, i] = True
        row = metrics_snapshot(adj, make_rng(0, 0), n_ref=None)
        hops = 2 * leaves + 2 * leaves * (leaves - 1) + 6
        pairs = 2 * leaves + leaves * (leaves - 1) + 6
        assert row.aspl == hops / pairs
        assert (row.n_components, row.largest_component) == (4, leaves + 1)
        assert row.clustering == 3 / n
        assert row.avg_degree == 2 * (leaves + 3) / n

    @staticmethod
    def cliques(sizes, isolated, rng):
        """Disjoint cliques of the given sizes and isolated nodes, on
        shuffled labels."""
        order = rng.permutation(sum(sizes) + isolated)
        adj = np.zeros((len(order), len(order)), dtype=bool)
        for lo, size in zip(np.cumsum([0, *sizes]), sizes):
            members = order[lo:lo + size]
            adj[np.ix_(members, members)] = True
        np.fill_diagonal(adj, False)
        return adj

    def test_components_whose_reciprocals_are_inexact(self):
        # components of 3 and 7 nodes sum thirds and sevenths, which
        # float64 rounds; the count must still come out exact
        rng = np.random.default_rng(21)
        dense = np.stack([self.cliques([3] * 7, 0, rng), self.cliques([7] * 3, 0, rng),
                          self.cliques([3, 3, 7], 8, rng)])
        _, _, counts, largest = metrics._graph_measures(dense)
        assert (counts.tolist(), largest.tolist()) == ([7, 3, 11], [3, 7, 7])
        # 4210 nodes: above 4096, so the bitset pass
        big = self.cliques([3] * 1400, 10, rng)
        _, _, counts, largest = metrics._graph_measures(big[None])
        assert (counts.tolist(), largest.tolist()) == ([1410], [3])

    def test_graphs_above_4096_nodes_never_take_the_dense_pass(self):
        # its float32 pair counts are exact only while n(n - 1) < 2^24
        assert metrics._bitsets_pay(4097, 4097 * 4096 // 2)
        assert not metrics._bitsets_pay(4096, 4096 * 4095 // 2)

    def test_run_above_4096_nodes_writes_its_rows(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["run", "--model", "null", "--n", "4100", "--p-connect", "0.0005",
                     "--steps", "2", "--no-small-world", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 2

    @staticmethod
    def products(monkeypatch, g):
        """np.matmul calls made to measure one snapshot without the index."""
        calls = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda *args, **kwargs:
                            calls.append(None) or matmul(*args, **kwargs))
        metrics_snapshot(g, make_rng(0, 0), n_ref=None)
        monkeypatch.undo()
        return len(calls)

    @pytest.mark.parametrize("n", [2, 3, 20, 128])
    def test_complete_graph_takes_the_shared_square_only(self, n, monkeypatch):
        # dense graphs stay on the dense pass at any size
        assert self.products(monkeypatch, complete(n)) == 1

    @pytest.mark.parametrize("n", [128, 200])
    def test_sparse_graph_above_the_switch_takes_no_product(self, n, monkeypatch):
        assert self.products(monkeypatch, path(n)) == 0

    @pytest.mark.parametrize("n", [3, 4, 20, 60])
    def test_path_takes_one_product_per_level_past_the_first(self, n, monkeypatch):
        # levels 2 to n - 1, the first of them the square clustering reuses;
        # a separate clustering product and an empty level n would make n
        assert self.products(monkeypatch, path(n)) == n - 2


def networkx_graph(nx, g):
    graph = nx.Graph()
    graph.add_nodes_from(range(len(g)))
    graph.add_edges_from(edge_set(g))
    return graph


def networkx_aspl(nx, graph):
    """Mean hop count over connected pairs, across components; 0 if none."""
    hops = [d for _, dists in nx.all_pairs_shortest_path_length(graph)
            for d in dists.values() if d > 0]
    return sum(hops) / len(hops) if hops else 0.0


@settings(max_examples=50, deadline=None, derandomize=True)
@given(n=st.integers(1, 70), density=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
def test_neighbor_lists_are_the_adjacency_rows(n, density, seed):
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < density, k=1)
    adj = upper | upper.T
    cols, bounds = metrics.csr(adj)
    assert [cols[start:end].tolist() for start, end in zip(bounds, bounds[1:])] == [
        np.flatnonzero(row).tolist() for row in adj]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 40), density=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
def test_random_graphs_match_networkx(n, density, seed):
    nx = pytest.importorskip("networkx")
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < density, k=1)
    g = upper | upper.T
    row = metrics_snapshot(g, make_rng(seed, 0), n_ref=3)
    graph = networkx_graph(nx, g)
    c_g, l_g = nx.average_clustering(graph), networkx_aspl(nx, graph)
    assert row.clustering == pytest.approx(c_g, abs=1e-12)
    assert row.aspl == l_g  # both are exact integer sums over the same pairs
    sizes = [len(part) for part in nx.connected_components(graph)]
    assert (row.n_components, row.largest_component) == (len(sizes), max(sizes))
    if edge_count(g) == 0:
        assert row.small_world is None
        return
    # the index by its direct formula, over the references the row drew
    refs_rng = make_rng(seed, 0)
    refs = [networkx_graph(nx, sample_gnm(n, edge_count(g), refs_rng)) for _ in range(3)]
    c_r = sum(nx.average_clustering(ref) for ref in refs) / 3
    l_r = sum(networkx_aspl(nx, ref) for ref in refs) / 3
    if c_r == 0.0 or l_r == 0.0 or l_g == 0.0:
        assert row.small_world is None
    else:
        assert row.small_world == pytest.approx((c_g / c_r) / (l_g / l_r), rel=1e-9)


class TestInvariants:
    def test_avg_degree_is_two_m_over_n(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(1, 15))
            g = snap(n, random_graph(n, rng))
            assert average_degree(g) == 2 * edge_count(g) / n

    def test_clustering_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            g = snap(10, random_graph(10, rng))
            assert 0.0 <= average_clustering(g) <= 1.0

    def test_aspl_one_for_complete_graphs(self):
        # aspl averages connected pairs only, so any disjoint union of
        # cliques scores exactly 1; complete graphs always do
        from oracles import floyd_warshall_oracle

        for n in range(2, 8):
            assert average_shortest_path_length(complete(n)) == 1.0
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            edges = random_graph(n, rng)
            if average_shortest_path_length(snap(n, edges)) == 1.0:
                fw = floyd_warshall_oracle(n, edges)
                for i in range(n):
                    for j in range(i + 1, n):
                        assert fw[i][j] == 1 or fw[i][j] == np.inf

    def test_component_count_n_iff_edgeless(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            g = snap(n, random_graph(n, rng))
            assert (components(g)[0] == n) == (edge_count(g) == 0)

    def test_row_bounds(self):
        rng = np.random.default_rng(14)
        for seed in range(40):
            n = int(rng.integers(1, 14))
            row = metrics_snapshot(snap(n, random_graph(n, rng)), make_rng(seed, 0), n_ref=3)
            assert row.avg_degree <= n - 1 or n == 1
            assert row.largest_component <= n
            assert row.n_components + row.largest_component <= n + 1

    def test_pure_given_rng_state(self):
        g = snap(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)])
        rows = [metrics_snapshot(g, make_rng(3, 1), n_ref=8) for _ in range(2)]
        assert rows[0] == rows[1]

    def test_relabelling_preserves_all_metrics(self):
        rng = np.random.default_rng(12)
        for seed in range(20):
            n = int(rng.integers(2, 11))
            edges = random_graph(n, rng)
            perm = rng.permutation(n)
            relabelled = {tuple(sorted((int(perm[i]), int(perm[j])))) for i, j in edges}
            a = metrics_snapshot(snap(n, edges), make_rng(seed, 0), n_ref=5)
            b = metrics_snapshot(snap(n, relabelled), make_rng(seed, 0), n_ref=5)
            assert a.avg_degree == b.avg_degree
            assert a.clustering == pytest.approx(b.clustering, abs=1e-12)
            assert a.aspl == pytest.approx(b.aspl, abs=1e-12)
            assert (a.n_components, a.largest_component) == (b.n_components, b.largest_component)
            if a.small_world is None:
                assert b.small_world is None
            else:
                assert a.small_world == pytest.approx(b.small_world, abs=1e-9)


class TestSampleGnm:
    def test_exact_edge_count_and_simple(self):
        rng = make_rng(5, 0)
        for m in (0, 1, 5, 10):
            g = sample_gnm(6, m, rng)
            assert edge_count(g) == m
            assert not g.diagonal().any()
            assert (g == g.T).all()

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            sample_gnm(4, 7, make_rng(1, 0))

    def test_rough_uniformity_over_pairs(self):
        rng = make_rng(9, 0)
        counts = np.zeros((5, 5))
        trials = 3000
        for _ in range(trials):
            counts += sample_gnm(5, 3, rng)
        frequency = counts[np.triu_indices(5, k=1)] / trials
        # each of the 10 pairs should be present in 3/10 of samples
        assert np.all(np.abs(frequency - 0.3) < 0.05)


@pytest.mark.parametrize("n", [1, 2, 3, 20])
def test_pair_adjacency_matches_edge_set(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]  # row-major i < j
    sets = np.random.default_rng(n).random((5, len(pairs))) < 0.4
    sets[0], sets[-1] = False, True  # edgeless and complete
    adj = metrics.pair_adjacency(sets, n)
    assert adj.shape == (5, n, n) and adj.dtype == np.bool_
    assert (adj == adj.transpose(0, 2, 1)).all()
    assert not adj[:, np.arange(n), np.arange(n)].any()
    for graph, chosen in zip(adj, sets):
        assert edge_set(graph) == {pair for pair, on in zip(pairs, chosen) if on}


def same_streams(seed, pending):
    """Two generators at the same position; with `pending`, PCG64 holds a
    word's high half for its next 32-bit draw."""
    a, b = make_rng(seed), make_rng(seed)
    if pending:
        assert a.integers(5) == b.integers(5)
    return a, b


def assert_same_stream(a, b):
    assert a.bit_generator.state == b.bit_generator.state
    assert a.integers(1 << 31, size=4).tolist() == b.integers(1 << 31, size=4).tolist()
    assert a.integers(7) == b.integers(7)


def gnm_pair_sets(n, sizes, rng):
    """`metrics._gnm_pairs`: (len(sizes), n_pairs) pair sets, each of
    its size's pairs."""
    sets = metrics._gnm_pairs(n, sizes, rng)
    assert sets.shape == (len(sizes), n * (n - 1) // 2)
    assert sets.sum(axis=1).tolist() == list(sizes)
    return sets


class TestPairSets:
    """The batched G(n, m) reference sampler against plain `choice` calls:
    the same pair sets, and the generator left at the same position."""

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("pop, m", [(10, 3), (190, 100), (190, 190), (1, 1), (2, 1),
                                        (10001, 200), (19900, 398)])
    def test_oracle_is_choice_on_the_floyd_path(self, pop, m, pending):
        a, b = same_streams(pop + m, pending)
        assert metrics._on_floyd_path(pop, m)
        assert choice_oracle(a, pop, m)[0] == b.choice(pop, m, replace=False).tolist()
        assert_same_stream(a, b)

    @pytest.mark.parametrize("pop, m", [(10001, 201), (19900, 399)])
    def test_tail_shuffle_sizes_go_through_choice(self, pop, m):
        # numpy shuffles an arange's tail here, so Floyd's mirror differs
        assert not metrics._on_floyd_path(pop, m)
        a, b = make_rng(4), make_rng(4)
        assert choice_oracle(a, pop, m)[0] != b.choice(pop, m, replace=False).tolist()
        n, refs = 200, 210  # enough references that the batch would pay, were it exact
        assert metrics._floyd_batch_pays(refs, 399, 19900)
        a, b = same_streams(6, True)
        assert (gnm_pair_sets(n, [399] * refs, a) == pair_sets_oracle(19900, [399] * refs, b)).all()
        assert_same_stream(a, b)

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("n, sizes", [
        (2, [1] * 40),
        (20, [1] * 20 + [189] * 20 + [190] * 20 + [1, 190, 189]),
        (3, [3, 2, 1, 3, 3]),
    ])
    def test_extreme_sizes(self, n, sizes, pending):
        pairs = n * (n - 1) // 2
        a, b = same_streams(len(sizes), pending)
        assert (metrics._floyd_pair_sets(pairs, sizes, a) == pair_sets_oracle(pairs, sizes, b)).all()
        assert_same_stream(a, b)
        a, b = same_streams(len(sizes), pending)
        assert (gnm_pair_sets(n, sizes, a) == pair_sets_oracle(pairs, sizes, b)).all()
        assert_same_stream(a, b)

    def test_blocks_cut_inside_a_snapshots_references(self, monkeypatch):
        n, edge_counts, n_ref = 20, [12, 40, 95, 3, 60], 13
        whole = metrics._reference_means(n, edge_counts, n_ref, make_rng(8))
        # blocks of 40 references, two stacks of 20, which the batch pays
        # for: the first ends inside the fourth snapshot's 13 references
        monkeypatch.setattr(metrics, "_BLOCK_SLOTS", 40 * 191)
        patch_stack_size(monkeypatch, n, 20)
        assert metrics._floyd_batch_pays(40, max(edge_counts), 190)
        assert metrics._floyd_batch_pays(25, max(edge_counts[3:]), 190)
        a, b = make_rng(8), make_rng(8)
        cut = metrics._reference_means(n, edge_counts, n_ref, a)
        expected = reference_means_oracle(n, edge_counts, n_ref, b)
        assert [c.tolist() for c in cut] == [c.tolist() for c in whole]
        means = [x for pair in zip(*(c.tolist() for c in cut)) for x in pair]
        assert means == pytest.approx([x for pair in expected for x in pair], rel=1e-12)
        assert_same_stream(a, b)

    # a block holds whole stacks: "reference" keeps the real stack of 163
    # graphs, "chunk" and "half-chunk" patch stacks of 40 and 20
    @pytest.mark.parametrize("block, stack", [(None, "reference"), (None, "chunk"),
                                              (80, "chunk"), (80, "half-chunk")])
    def test_complete_snapshots_are_drawn_not_measured(self, stack, block, monkeypatch):
        n, n_ref, complete = 20, 30, 190
        edge_counts = [complete, 40, complete, 95, 60, complete, complete]
        if stack != "reference":
            # stacks cut inside a snapshot's 30 references
            patch_stack_size(monkeypatch, n, {"chunk": 40, "half-chunk": 20}[stack])
        if block:
            # blocks of 80 references, a largest edge count taking 2 * 190
            # slots: the cuts at 80 and 160 fall inside the third and the
            # sixth snapshot's references, both complete
            monkeypatch.setattr(metrics, "_BLOCK_SLOTS", block * 2 * complete)
            assert metrics._floyd_batch_pays(block, complete, complete)
        measured = []
        kernel = metrics._graph_measures
        monkeypatch.setattr(metrics, "_graph_measures", lambda stack:
                            measured.append(len(stack)) or kernel(stack))
        a, b = same_streams(9, True)
        c_r, l_r = metrics._reference_means(n, edge_counts, n_ref, a)
        expected = reference_means_oracle(n, edge_counts, n_ref, b)
        assert_same_stream(a, b)
        assert sum(measured) == n_ref * sum(m < complete for m in edge_counts)
        assert max(measured) <= metrics._stack_size(n)
        for m, c, l, oracle in zip(edge_counts, c_r.tolist(), l_r.tolist(), expected):
            if m == complete:
                assert (c, l) == oracle == (1.0, 1.0)
            else:
                assert (c, l) == pytest.approx(oracle, rel=1e-12)

    def test_complete_references_below_three_nodes_are_measured(self):
        # K_2's clustering is 0, so the shortcut must not claim 1
        c_r, l_r = metrics._reference_means(2, [1], 3, make_rng(1))
        assert (c_r.tolist(), l_r.tolist()) == ([0.0], [1.0])

    def test_split_calls_match_one_loop(self):
        sizes = [30] * 20 + [7] * 20
        a, b = same_streams(2, True)
        split = np.concatenate([gnm_pair_sets(20, sizes[:27], a), gnm_pair_sets(20, sizes[27:], a)])
        assert (split == pair_sets_oracle(190, sizes, b)).all()
        assert_same_stream(a, b)

    def test_lemire_rejection_falls_back_to_choice(self):
        # seed found with `choice_oracle`: fifty 20-edge references on
        # n = 141 nodes (9870 pairs) meet one rejected draw
        n, pairs, sizes, seed = 141, 9870, [20] * 50, 1727
        rng = make_rng(seed)
        assert sum(choice_oracle(rng, pairs, m)[1] for m in sizes) == 1
        assert metrics._floyd_batch_pays(len(sizes), 20, pairs)
        a, b = make_rng(seed), make_rng(seed)
        assert metrics._floyd_pair_sets(pairs, sizes, a) is None
        assert_same_stream(a, b)  # untouched
        a, b = make_rng(seed), make_rng(seed)
        assert (gnm_pair_sets(n, sizes, a) == pair_sets_oracle(pairs, sizes, b)).all()
        assert_same_stream(a, b)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n=st.integers(2, 25), fractions=st.lists(st.floats(0, 1), min_size=1, max_size=6),
           n_ref=st.integers(1, 25), seed=st.integers(0, 2**32 - 1), pending=st.booleans())
    def test_matches_choice_calls(self, n, fractions, n_ref, seed, pending):
        pairs = n * (n - 1) // 2
        sizes = [1 + round(f * (pairs - 1)) for f in fractions for _ in range(n_ref)]
        a, b = same_streams(seed, pending)
        batch = metrics._floyd_pair_sets(pairs, sizes, a)
        if batch is not None:
            assert (batch == pair_sets_oracle(pairs, sizes, b)).all()
            assert_same_stream(a, b)
        a, b = same_streams(seed, pending)
        assert (gnm_pair_sets(n, sizes, a) == pair_sets_oracle(pairs, sizes, b)).all()
        assert_same_stream(a, b)

    def test_memory_does_not_grow_with_n_ref(self):
        # one stack of snapshots, one kernel call
        cfg = SimConfig(model=ModelKind.RANGE, n=20, g=10, r=2.0, steps=metrics._stack_size(20))
        snaps = list(iter_model(cfg, make_rng(5)))
        list(metrics.metric_rows(snaps, make_rng(1), 20))  # caches filled before measuring
        peaks = {}
        # references are drawn and measured a block at a time; keeping the
        # measures of every reference until the means grows the peak about
        # fourfold from n_ref = 20 to 500
        for n_ref in (20, 500):
            tracemalloc.start()
            list(metrics.metric_rows(snaps, make_rng(1), n_ref))
            peaks[n_ref] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peaks[500] <= 1.5 * peaks[20]
