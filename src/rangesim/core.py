"""Domain types and seeded RNG streams, shared by both network models.

The range model's grid (its occupancy layout and population setup)
belongs to `range_model`, the only module that reads it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
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


# Raw words `ExactDraws` takes from the generator at a time.
_DRAW_BLOCK = 64


class ExactDraws:
    """Scalar draws of a PCG64 Generator, served from bulk words.

    `integers(k)`, `random()` and `permutation(n)` return what the
    wrapped Generator's calls of the same names would, and leave its
    stream where they would, at a fraction of a scalar call's cost. The
    wrapper owns the Generator: nothing else may draw from it.

    Words come from `random_raw` in blocks of `_DRAW_BLOCK`. `random()`
    takes a word's top 53 bits. `integers(k)` is numpy's bounded draw,
    Lemire's multiply-and-reject method on 32-bit outputs, which take a
    word's low half and then its high half, like PCG64's own 32-bit
    buffer; that buffer survives the `random()` calls in between. `permutation` puts
    the Generator back at the exact position, lets numpy shuffle, and
    refills. `lend` hands a caller the unread words and the pending half
    to parse the same way itself, and `settle` takes the position back.
    """

    def __init__(self, rng: RngStream):
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise TypeError(f"ExactDraws needs a PCG64 stream, got "
                            f"{type(rng.bit_generator).__name__}")
        self._rng = rng
        self._restart()

    def _restart(self) -> None:
        """Take over the stream where the Generator stands, half word included."""
        self._fill()
        self._half = self._state["uinteger"] if self._state["has_uint32"] else None

    def _fill(self) -> None:
        bits = self._rng.bit_generator
        self._state = bits.state  # where the block starts, for `permutation`
        self._drawn = _DRAW_BLOCK  # words drawn since `_state`
        self._words = iter(bits.random_raw(_DRAW_BLOCK).tolist())
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

    def lend(self, count: int) -> tuple[list[int], int | None]:
        """The unread words, topped up to at least `count`, and the pending
        32-bit half. The caller reads words in order and must hand the
        position back with `settle` before any other call."""
        self._lent = [*self._words]
        short = count - len(self._lent)
        if short > 0:
            self._lent += self._rng.bit_generator.random_raw(short).tolist()
            self._drawn += short
        return self._lent, self._half

    def settle(self, used: int, half: int | None) -> None:
        """Take back a `lend`: its first `used` words were read, and `half`
        is pending (None when no half is)."""
        self._words = iter(self._lent[used:])
        self._next = self._words.__next__
        self._half = half

    def permutation(self, n: int) -> list[int]:
        """A shuffled `list(range(n))`, drawn by the Generator itself."""
        bits = self._rng.bit_generator
        half = self._half
        bits.state = {**self._state, "has_uint32": int(half is not None),
                      "uinteger": half or 0}
        bits.random_raw(self._drawn - operator.length_hint(self._words))
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
