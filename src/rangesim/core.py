"""Domain types, seeded RNG streams, grid geometry, and population setup.

Shared by both network models. Coordinates are integers on a bounded
g-by-g grid: both components live in [0, g-1], giving exactly g*g tiles.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

RngStream = np.random.Generator

# Substream labels. Each concern (model dynamics, metric reference
# sampling, diffusion) gets an independent generator, so that the draws
# of one can never change those seen by another.
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


class ExactDraws:
    """Scalar draws of a PCG64 Generator, served from bulk words.

    `integers(k)`, `random()` and `permutation(n)` return what the
    wrapped Generator's calls of the same names would, and leave its
    stream where they would, at a fraction of a scalar call's cost. The
    wrapper owns the Generator: nothing else may draw from it.

    Words come from `random_raw` in blocks. `random()` takes a word's top
    53 bits. `integers(k)` is numpy's bounded draw, Lemire's
    multiply-and-reject method on 32-bit outputs, which take a word's low
    half and then its high half, like PCG64's own 32-bit buffer; that
    buffer survives the `random()` calls in between. `permutation` puts
    the Generator back at the exact position, lets numpy shuffle, and
    refills.
    """

    def __init__(self, rng: RngStream, block: int = 64):
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise TypeError(f"ExactDraws needs a PCG64 stream, got "
                            f"{type(rng.bit_generator).__name__}")
        self._rng = rng
        self._block = block
        self._restart()

    def _restart(self) -> None:
        """Take over the stream where the Generator stands, half word included."""
        self._fill()
        self._half = self._state["uinteger"] if self._state["has_uint32"] else None

    def _fill(self) -> None:
        bits = self._rng.bit_generator
        self._state = bits.state  # where the block starts, for `permutation`
        self._words = iter(bits.random_raw(self._block).tolist())
        self._next = self._words.__next__

    def _word(self) -> int:
        self._fill()
        return self._next()

    def integers(self, k: int) -> int:
        """Uniform int in [0, k), for 1 <= k < 2**32; k = 1 draws nothing."""
        if not 1 <= k < 0x100000000:
            raise ValueError(f"ExactDraws.integers needs 1 <= k < 2**32, got {k}")
        if k == 1:
            return 0
        while True:
            half = self._half
            if half is None:
                try:
                    word = self._next()
                except StopIteration:
                    word = self._word()
                self._half = word >> 32
                half = word & 0xFFFFFFFF
            else:
                self._half = None
            m = half * k
            low = m & 0xFFFFFFFF
            if low >= k or low >= 0x100000000 % k:
                return m >> 32

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        try:
            word = self._next()
        except StopIteration:
            word = self._word()
        return (word >> 11) * 2.0 ** -53

    def permutation(self, n: int) -> list[int]:
        """A shuffled `list(range(n))`, drawn by the Generator itself."""
        bits = self._rng.bit_generator
        half = self._half
        bits.state = {**self._state, "has_uint32": int(half is not None),
                      "uinteger": half or 0}
        bits.random_raw(self._block - operator.length_hint(self._words))
        order = self._rng.permutation(n).tolist()
        self._restart()
        return order


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
