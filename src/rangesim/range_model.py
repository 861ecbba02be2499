"""Spatial model timestep: move, connect while in range, disconnect.

Every timestep a fresh random agent order is drawn; each agent moves to
a uniform choice among its legal tiles, then links to every agent within
range r and drops links to agents beyond r.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .core import Coordinate, RngStream, SimConfig, WorldState, candidate_moves, init_population
from .metrics import NetworkSnapshot


def range_links(positions: Sequence[Coordinate], r: float) -> np.ndarray:
    """Boolean link matrix: pair (i, j) linked iff their distance is <= r."""
    pos = np.asarray(positions, dtype=np.int64)
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    linked = dist <= r
    np.fill_diagonal(linked, False)
    return linked


def step_range(world: WorldState, config: SimConfig, rng: RngStream) -> NetworkSnapshot:
    """Advance the world one timestep and return the resulting network.

    Movement is applied agent by agent in the drawn order, since occupancy
    makes move legality order-dependent. The per-agent connect/disconnect
    passes consume no randomness and always converge to the distance<=r
    graph on the final positions, so links are evaluated once at the end
    of the sweep; the draw sequence is identical to the interleaved form.
    """
    order = rng.permutation(world.n)
    positions = world.positions
    occupancy = world.occupancy
    for agent in order:
        agent = int(agent)
        moves = candidate_moves(world, agent)
        target = moves[int(rng.integers(len(moves)))]
        current = positions[agent]
        if target != current:
            del occupancy[current]
            occupancy[target] = agent
            positions[agent] = target
    world.link_matrix = range_links(positions, config.r)
    return NetworkSnapshot(world.link_matrix.copy())


def range_stepper(config: SimConfig, rng: RngStream) -> Callable[[], NetworkSnapshot]:
    """Place a fresh population and return a function that advances it one timestep."""
    world = init_population(config, rng)
    return lambda: step_range(world, config, rng)
