import numpy as np

from rangesim.core import ModelKind, SimConfig, make_rng
from rangesim.metrics import pair_adjacency
from rangesim.null_model import null_snapshots, step_null

from oracles import edge_set


def empty_links(n):
    return np.zeros(n * (n - 1) // 2, dtype=bool)


def test_p_zero_stays_empty():
    links = empty_links(12)
    rng = make_rng(1, 0)
    for _ in range(20):
        links = step_null(links, 0.0, rng)
        assert links.sum() == 0


def test_p_one_complete_from_first_step():
    links = empty_links(9)
    rng = make_rng(1, 0)
    for _ in range(5):
        links = step_null(links, 1.0, rng)
        assert links.sum() == 9 * 8 // 2


def test_long_run_density_matches_p():
    # each pair relinks independently with probability p every step, so the
    # time-and-pair average is a mean of iid Bernoulli(p) indicators
    n, steps, p = 20, 2000, 0.3
    links = empty_links(n)
    rng = make_rng(7, 0)
    n_pairs = n * (n - 1) // 2
    total = 0
    for _ in range(steps):
        links = step_null(links, p, rng)
        total += int(links.sum())
    density = total / (steps * n_pairs)
    sigma = np.sqrt(p * (1 - p) / (steps * n_pairs))
    assert abs(density - p) < 3.5 * sigma


def test_pairs_evolve_independently():
    n, steps, p = 6, 4000, 0.4
    links = empty_links(n)
    rng = make_rng(3, 0)
    history = np.empty((steps, links.size), dtype=bool)
    for t in range(steps):
        links = step_null(links, p, rng)
        history[t] = links
    corr = np.corrcoef(history[:, 0], history[:, 1])[0, 1]
    assert abs(corr) < 4 / np.sqrt(steps)


def test_links_view_matches_snapshot():
    cfg = SimConfig(model=ModelKind.NULL, n=7, p_connect=0.5)
    links = empty_links(7)
    rng = make_rng(2, 0)
    iu, ju = np.triu_indices(7, k=1)
    for _, snap in zip(range(5), null_snapshots(cfg, make_rng(2, 0))):
        links = step_null(links, 0.5, rng)
        assert np.array_equal(snap.adj, pair_adjacency(links[None], 7)[0])
        assert {(int(i), int(j)) for i, j in zip(iu[links], ju[links])} == edge_set(snap.adj)
