"""Dynamic non-spatial baseline.

Every timestep each unconnected pair links with probability P(connect)
and each connected pair unlinks with probability 1 - P(connect). There
are no positions; only the link set evolves.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .core import RngStream, SimConfig
from .metrics import NetworkSnapshot, pair_adjacency


def step_null(links: np.ndarray, p_connect: float, rng: RngStream) -> np.ndarray:
    """The link indicators after one timestep, over the n*(n-1)/2
    unordered pairs in row-major i < j order.

    Every pair is visited once, in pair order: unlinked pairs link with
    probability p_connect, linked pairs unlink with probability
    1 - p_connect. One uniform draw per pair per step.
    """
    u = rng.random(links.size)
    # linked pairs survive when u >= 1-p (prob p); unlinked pairs form when u < p
    return np.where(links, u >= 1.0 - p_connect, u < p_connect)


def null_snapshots(config: SimConfig, rng: RngStream) -> Iterator[NetworkSnapshot]:
    """Start from an empty link set and yield the network after each
    timestep, without end."""
    n = config.n
    links = np.zeros(n * (n - 1) // 2, dtype=bool)
    while True:
        links = step_null(links, config.p_connect, rng)
        yield NetworkSnapshot(pair_adjacency(links[None], n)[0])
