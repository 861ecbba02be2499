"""Domain types, seeded RNG streams, grid geometry, and population setup.

Shared by both network models. Coordinates are integers on a bounded
g-by-g grid: both components live in [0, g-1], giving exactly g*g tiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

RngStream = np.random.Generator

# Substream labels. Each concern (model dynamics, metric reference
# sampling, diffusion) gets an independent generator so that attaching or
# detaching one observer cannot perturb the draws seen by another.
STREAM_MODEL = 0
STREAM_METRICS = 1
STREAM_DIFFUSION = 2


class ConfigError(ValueError):
    """A simulation parameter violates a model precondition."""


class ModelKind(str, Enum):
    RANGE = "range"
    NULL = "null"


class Coordinate(NamedTuple):
    x: int
    y: int


def make_rng(seed: int, round_idx: int = 0, stream: int = STREAM_MODEL) -> RngStream:
    """Deterministic PCG64 stream for (seed, round, purpose).

    Streams for distinct (seed, round_idx, stream) triples are
    statistically independent, so rounds can run in parallel and still
    reproduce the serial trajectory bit for bit.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(round_idx, stream))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class SimConfig:
    """All model parameters for one simulation.

    `r` applies to the range model only, `p_connect` to the null model
    only; the unused one may be left as None.
    """

    model: ModelKind
    n: int
    g: int = 10
    r: float | None = None
    p_connect: float | None = None
    steps: int = 100
    rounds: int = 100
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"population size must be positive, got {self.n}")
        if self.g < 1:
            raise ConfigError(f"grid side must be positive, got {self.g}")
        if self.steps < 0:
            raise ConfigError(f"steps must be non-negative, got {self.steps}")
        if self.rounds < 1:
            raise ConfigError(f"rounds must be positive, got {self.rounds}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.model is ModelKind.RANGE:
            if self.r is None:
                raise ConfigError("range model requires a communication range r")
            if not self.r >= 0:  # also rejects NaN, which no distance is <= to
                raise ConfigError(f"communication range must be non-negative, got {self.r}")
            if self.n > self.g * self.g:
                raise ConfigError(
                    f"range model needs unique positions: N={self.n} exceeds "
                    f"g*g={self.g * self.g} tiles"
                )
        else:
            if self.p_connect is None:
                raise ConfigError("null model requires a connection probability p_connect")
            if not 0.0 <= self.p_connect <= 1.0:
                raise ConfigError(f"p_connect must be in [0, 1], got {self.p_connect}")


@dataclass
class WorldState:
    """Agent positions on the grid plus the current undirected link set.

    `occupancy` is the inverse of `positions` and is kept a bijection onto
    the occupied tiles: no two agents ever share a tile. Links are stored
    as a symmetric boolean matrix with a False diagonal.
    """

    g: int
    positions: list[Coordinate]
    occupancy: dict[Coordinate, int] = field(repr=False)
    link_matrix: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.link_matrix.shape[0]


def init_population(config: SimConfig, rng: RngStream) -> WorldState:
    """Place N agents on distinct uniformly random tiles with no links.

    Placement shuffles the g*g tile indices and takes the first N, which
    is uniform without replacement and consumes a fixed amount of
    randomness.
    """
    n = config.n
    tiles = rng.permutation(config.g * config.g)[:n]
    positions = [Coordinate(int(t) // config.g, int(t) % config.g) for t in tiles]
    occupancy = {pos: agent for agent, pos in enumerate(positions)}
    return WorldState(g=config.g, positions=positions, occupancy=occupancy,
                      link_matrix=np.zeros((n, n), dtype=bool))


def candidate_moves(world: WorldState, agent: int) -> list[Coordinate]:
    """Legal move targets for one agent: its tile plus free in-bounds Moore neighbors.

    The current tile is always included, so the list is never empty --
    an agent boxed in by the boundary and other agents stays in place.
    Order is row-major over the 3x3 neighborhood, making index selection
    by RNG reproducible.
    """
    x, y = world.positions[agent]
    g = world.g
    moves = []
    for dx in (-1, 0, 1):
        nx = x + dx
        if not 0 <= nx < g:
            continue
        for dy in (-1, 0, 1):
            ny = y + dy
            if not 0 <= ny < g:
                continue
            holder = world.occupancy.get(Coordinate(nx, ny))
            if holder is None or holder == agent:
                moves.append(Coordinate(nx, ny))
    return moves
