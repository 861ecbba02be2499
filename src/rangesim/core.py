"""Domain types, seeded RNG streams, grid geometry, and population setup.

Shared by both network models. Coordinates are integers on a bounded
g-by-g grid: both components live in [0, g-1], giving exactly g*g tiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

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


# Tile values of the padded occupancy grid besides agent indices.
FREE = -1
BORDER = -2


@dataclass
class WorldState:
    """Agent positions on the grid.

    The grid is stored with a one-tile BORDER frame, as a flat row-major
    list of (g+2)*(g+2) ints: tile (x, y) is `grid[(x+1)*(g+2) + y+1]` and
    holds the agent on it or FREE. `positions[agent]` is the flat index of
    the agent's tile, and `grid` is kept its inverse on the occupied tiles:
    no two agents ever share a tile.
    """

    g: int
    grid: list[int] = field(repr=False)
    positions: list[int]
    # flat offsets of the Moore neighborhood and the tile itself, row-major
    moore: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        width = self.g + 2
        self.moore = tuple(dx * width + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1))

    @classmethod
    def place(cls, g: int, coordinates) -> "WorldState":
        """A world with agent i on tile coordinates[i]."""
        width = g + 2
        grid = [BORDER] * (width * width)
        for x in range(1, g + 1):
            grid[x * width + 1:x * width + g + 1] = [FREE] * g
        positions = [(x + 1) * width + y + 1 for x, y in coordinates]
        for agent, tile in enumerate(positions):
            grid[tile] = agent
        return cls(g=g, grid=grid, positions=positions)

    @property
    def n(self) -> int:
        return len(self.positions)

    def move(self, agent: int, tile: int) -> None:
        """Put `agent` on the flat grid index `tile`, freeing its old tile."""
        self.grid[self.positions[agent]] = FREE
        self.grid[tile] = agent
        self.positions[agent] = tile

    def coordinates(self) -> np.ndarray:
        """(n, 2) int array of every agent's (x, y) tile."""
        x, y = np.divmod(np.array(self.positions, dtype=np.int64), self.g + 2)
        return np.stack([x - 1, y - 1], axis=1)


def init_population(config: SimConfig, rng: RngStream) -> WorldState:
    """Place N agents on distinct uniformly random tiles.

    Placement shuffles the g*g tile indices and takes the first N, which
    is uniform without replacement and consumes a fixed amount of
    randomness.
    """
    g = config.g
    tiles = rng.permutation(g * g)[:config.n].tolist()
    return WorldState.place(g, [divmod(t, g) for t in tiles])


def candidate_moves(world: WorldState, agent: int) -> list[int]:
    """Legal move targets for one agent: its tile plus free in-bounds Moore neighbors.

    Targets are flat grid indices. The current tile is always included,
    so the list is never empty -- an agent boxed in by the border and
    other agents stays in place. Order is row-major over the 3x3
    neighborhood, making index selection by RNG reproducible.
    """
    here = world.positions[agent]
    grid = world.grid
    return [here + d for d in world.moore if d == 0 or grid[here + d] == FREE]
