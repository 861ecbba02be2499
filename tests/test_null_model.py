import numpy as np
import pytest

from rangesim.core import ConfigError, make_rng
from rangesim.null_model import NullState, step_null

from oracles import edge_set


def test_p_zero_stays_empty():
    state = NullState.initial(12)
    rng = make_rng(1, 0)
    for _ in range(20):
        snap = step_null(state, 0.0, rng)
        assert snap.edge_count == 0


def test_p_one_complete_from_first_step():
    state = NullState.initial(9)
    rng = make_rng(1, 0)
    for _ in range(5):
        snap = step_null(state, 1.0, rng)
        assert snap.edge_count == 9 * 8 // 2


def test_invalid_probability_rejected():
    with pytest.raises(ConfigError):
        step_null(NullState.initial(4), 1.2, make_rng(1, 0))


def test_long_run_density_matches_p():
    # each pair relinks independently with probability p every step, so the
    # time-and-pair average is a mean of iid Bernoulli(p) indicators
    n, steps, p = 20, 2000, 0.3
    state = NullState.initial(n)
    rng = make_rng(7, 0)
    n_pairs = n * (n - 1) // 2
    total = 0
    for _ in range(steps):
        step_null(state, p, rng)
        total += int(state.link_vector.sum())
    density = total / (steps * n_pairs)
    sigma = np.sqrt(p * (1 - p) / (steps * n_pairs))
    assert abs(density - p) < 3.5 * sigma


def test_pairs_evolve_independently():
    n, steps, p = 6, 4000, 0.4
    state = NullState.initial(n)
    rng = make_rng(3, 0)
    history = np.empty((steps, state.link_vector.size), dtype=bool)
    for t in range(steps):
        step_null(state, p, rng)
        history[t] = state.link_vector
    corr = np.corrcoef(history[:, 0], history[:, 1])[0, 1]
    assert abs(corr) < 4 / np.sqrt(steps)


def test_links_view_matches_snapshot():
    state = NullState.initial(7)
    rng = make_rng(2, 0)
    snap = step_null(state, 0.5, rng)
    iu, ju = np.triu_indices(7, k=1)
    on = state.link_vector
    assert {(int(i), int(j)) for i, j in zip(iu[on], ju[on])} == edge_set(snap.adj)
