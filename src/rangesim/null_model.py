"""Dynamic non-spatial baseline.

Every timestep each unconnected pair links with probability P(connect)
and each connected pair unlinks with probability 1 - P(connect). There
are no positions; only the link set evolves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ConfigError, RngStream, SimConfig
from .metrics import NetworkSnapshot, pair_adjacency


@dataclass
class NullState:
    """Link indicators over the n*(n-1)/2 unordered pairs, row-major i < j."""

    n: int
    link_vector: np.ndarray

    @classmethod
    def initial(cls, n: int) -> "NullState":
        return cls(n=n, link_vector=np.zeros(n * (n - 1) // 2, dtype=bool))

    def snapshot(self) -> NetworkSnapshot:
        return NetworkSnapshot(pair_adjacency(self.link_vector[None], self.n)[0])


def step_null(state: NullState, p_connect: float, rng: RngStream) -> NetworkSnapshot:
    """Visit every pair once, in pair order, and retoggle its link.

    Unlinked pairs link with probability p_connect; linked pairs unlink
    with probability 1 - p_connect. One uniform draw per pair per step.
    """
    if not 0.0 <= p_connect <= 1.0:
        raise ConfigError(f"p_connect must be in [0, 1], got {p_connect}")
    u = rng.random(state.link_vector.size)
    on = state.link_vector
    # linked pairs survive when u >= 1-p (prob p); unlinked pairs form when u < p
    state.link_vector = np.where(on, u >= 1.0 - p_connect, u < p_connect)
    return state.snapshot()


def null_stepper(config: SimConfig, rng: RngStream) -> Callable[[], NetworkSnapshot]:
    """Start from an empty link set and return a function that advances it one timestep."""
    state = NullState.initial(config.n)
    return lambda: step_null(state, config.p_connect, rng)
