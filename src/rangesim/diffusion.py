"""Four transmission processes over either model's snapshots, each an
(n, n) symmetric boolean adjacency with a False diagonal.

`run_process` runs one round of a process: it takes the snapshots one
at a time, steps the agents on each, and stops taking them once the
process fixes. All four read the pre-step network and pre-step agent
states only (synchronous updates), so a trajectory depends on the
snapshot sequence and the diffusion RNG stream, never on agent
processing order.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Iterator

import numpy as np

from .core import ConfigError, ExactDraws, RngStream
from .metrics import csr

TRAIT_A = 0
TRAIT_B = 1


@dataclass(frozen=True)
class SIConfig:
    """Susceptible/Infected transmission over network links.

    `exposure` selects the trial semantics: "per_neighbor" runs one
    Bernoulli(p_infect) trial per infected neighbor; "per_agent" runs a
    single trial for any exposed agent.
    """

    p_infect: float = 0.1
    n_init: int = 1
    exposure: str = "per_neighbor"

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_infect <= 1.0:
            raise ConfigError(f"p_infect must be in [0, 1], got {self.p_infect}")
        if self.n_init < 1:
            raise ConfigError("n_init must be positive")
        if self.exposure not in ("per_neighbor", "per_agent"):
            raise ConfigError(f"unknown exposure mode {self.exposure!r}")


@dataclass(frozen=True)
class ComplexContagionConfig:
    """Contagion whose per-step infection probability grows with exposure."""

    p_base: float = 0.01
    w: float = 1.0
    n_init: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_base <= 1.0:
            raise ConfigError(f"p_base must be in [0, 1], got {self.p_base}")
        if not self.w >= 0:  # also rejects NaN, which would make every p_eff NaN
            raise ConfigError(f"social weight must be non-negative, got {self.w}")
        if self.n_init < 1:
            raise ConfigError("n_init must be positive")


@dataclass(frozen=True)
class CulturalConfig:
    """Two-trait transmission with per-trait adoption probabilities."""

    p_a: float = 0.1
    p_b: float = 0.2
    init_split: float = 0.5

    def __post_init__(self) -> None:
        for name, p in (("p_a", self.p_a), ("p_b", self.p_b), ("init_split", self.init_split)):
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {p}")


@dataclass(frozen=True)
class Recipe:
    inputs: frozenset[str]
    product: str
    tier: int
    score: float


@dataclass(frozen=True)
class PotionConfig:
    """Item-combination task over two crafting trajectories.

    Recipes take an unordered triple of distinct items to a product;
    the single top-tier recipe requires the top items of both
    trajectories, and item scores rise steeply with tier so weighted
    selection prefers a population's most advanced items.
    """

    recipes: tuple[Recipe, ...]
    starting_inventory: tuple[str, ...]
    item_scores: dict[str, float]
    p_diff: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_diff <= 1.0:
            raise ConfigError(f"p_diff must be in [0, 1], got {self.p_diff}")
        if not self.starting_inventory or not self.recipes:
            raise ConfigError("starting inventory and recipe table must not be empty")
        tiers: dict[int, list[float]] = {}
        products: dict[frozenset[str], str] = {}
        for rec in self.recipes:
            if len(rec.inputs) != 3:
                raise ConfigError(f"recipe for {rec.product} must take 3 distinct items")
            if rec.inputs in products:  # the recipe lookup could reach only one of them
                raise ConfigError(f"recipes for {products[rec.inputs]} and {rec.product} "
                                  f"take the same inputs {sorted(rec.inputs)}")
            products[rec.inputs] = rec.product
            tiers.setdefault(rec.tier, []).append(rec.score)
        for low, high in zip(sorted(tiers), sorted(tiers)[1:]):
            if max(tiers[low]) >= min(tiers[high]):
                raise ConfigError("recipe scores must strictly increase with tier")
        if sum(rec.tier == max(tiers) for rec in self.recipes) != 1:
            raise ConfigError("exactly one top-tier crossover recipe is required")
        used = set(self.starting_inventory).union(
            *(rec.inputs | {rec.product} for rec in self.recipes))
        for item in sorted(used):
            if item not in self.item_scores:
                raise ConfigError(f"no score known for item {item!r}")
        for item, score in self.item_scores.items():
            if not (math.isfinite(score) and score >= 0):
                raise ConfigError(f"score of {item!r} must be finite and non-negative, "
                                  f"got {score}")
        # in `PotionTable`'s order, left to right, so that no pool's total overflows either
        if not math.isfinite([*accumulate((self.item_scores[item] for item in
                                           sorted(self.item_scores)), initial=0.0)][-1]):
            raise ConfigError("item scores must have a finite sum")


def default_potion_config(p_diff: float = 0.5) -> PotionConfig:
    """Two 3-tier crafting trajectories plus one crossover recipe.

    Base items score 1 and products quadruple per tier, so agents
    strongly prefer combining their best known items.
    """
    base = ("a1", "a2", "a3", "b1", "b2", "b3")
    recipes = (
        Recipe(frozenset({"a1", "a2", "b1"}), "A1", 1, 4.0),
        Recipe(frozenset({"a1", "a3", "b2"}), "B1", 1, 4.0),
        Recipe(frozenset({"A1", "a2", "b3"}), "A2", 2, 16.0),
        Recipe(frozenset({"B1", "a3", "b3"}), "B2", 2, 16.0),
        Recipe(frozenset({"A2", "b1", "b2"}), "A3", 3, 64.0),
        Recipe(frozenset({"B2", "a1", "a2"}), "B3", 3, 64.0),
        Recipe(frozenset({"A3", "B3", "a1"}), "X", 4, 256.0),
    )
    scores = {item: 1.0 for item in base}
    scores.update({rec.product: rec.score for rec in recipes})
    return PotionConfig(recipes=recipes, starting_inventory=base,
                        item_scores=scores, p_diff=p_diff)


def _typed(value, kinds, rule: str):
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise TypeError(f"{rule}, got {value!r}")
    return value


def _inputs(value) -> frozenset[str]:
    if not (isinstance(value, list) and len(value) == 3):
        raise TypeError(f"inputs must be a list of 3 item names, got {value!r}")
    return frozenset(_typed(item, str, "inputs must be item names") for item in value)


def load_potion_config(path: str, p_diff: float = 0.5) -> PotionConfig:
    """Read a recipe table from a JSON file (format documented in README)."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"recipe table {path} is not valid JSON: {exc}") from exc
    try:
        base = tuple(_typed(entry["item"], str, "item must be a string")
                     for entry in data["starting_inventory"])
        scores = {entry["item"]: float(_typed(entry["score"], (int, float),
                                              "score must be a number"))
                  for entry in data["starting_inventory"]}
        recipes = tuple(
            Recipe(_inputs(entry["inputs"]),
                   _typed(entry["product"], str, "product must be a string"),
                   _typed(entry["tier"], int, "tier must be an integer"),
                   float(_typed(entry["score"], (int, float), "score must be a number")))
            for entry in data["recipes"]
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ConfigError(f"malformed recipe table {path}: {exc}") from exc
    scores.update({rec.product: rec.score for rec in recipes})
    return PotionConfig(recipes=recipes, starting_inventory=base,
                        item_scores=scores, p_diff=p_diff)


@dataclass
class DiffusionTrajectory:
    """Per-timestep trait frequencies plus fixation/crossover times.

    Frequencies are infected fractions in [0, 1] for SI and complex
    contagion, the signed fraction (n_A - n_B)/N in [-1, 1] for cultural
    transmission, and the fraction holding the crossover item for the
    potion task (which has no fixation notion).
    """

    frequencies: list[float] = field(default_factory=list)
    fixation_time: int | None = None
    crossover_time: int | None = None


def _infect(adj: np.ndarray, states: np.ndarray, p_eff,
            rng: RngStream) -> np.ndarray:
    """The new infected mask after one trial per exposed agent (one with
    an infected neighbor before the step), in agent-index order.
    `p_eff` maps the exposed agents' infected-neighbor counts to their
    infection probabilities."""
    counts = (adj & states[None, :]).sum(axis=1)
    exposed = np.flatnonzero(~states & (counts > 0))
    new = states.copy()
    new[exposed[rng.random(exposed.size) < p_eff(counts[exposed])]] = True
    return new


def si_step(adj: np.ndarray, states: np.ndarray, cfg: SIConfig,
            rng: RngStream) -> np.ndarray:
    """One synchronous SI update; returns the new infected mask.

    Exposure is evaluated against the pre-step states: an S-agent with k
    infected neighbors is infected with probability 1-(1-p)^k under
    per-neighbor trials, or p under the per-agent variant. One uniform is
    drawn per exposed agent, in agent-index order.
    """
    if cfg.exposure == "per_neighbor":
        return _infect(adj, states, lambda k: 1.0 - (1.0 - cfg.p_infect) ** k, rng)
    return _infect(adj, states, lambda k: cfg.p_infect, rng)


def complex_contagion_step(adj: np.ndarray, states: np.ndarray,
                           cfg: ComplexContagionConfig, rng: RngStream) -> np.ndarray:
    """One synchronous complex-contagion update.

    An S-agent with k >= 1 infected neighbors (pre-step) is infected with
    probability clamp(p_base + (k/N) * w, 0, 1); one trial per agent.
    """
    return _infect(adj, states,
                   lambda k: np.clip(cfg.p_base + k / len(adj) * cfg.w, 0.0, 1.0), rng)


def cultural_step(adj: np.ndarray, traits: np.ndarray, cfg: CulturalConfig,
                  draws: ExactDraws) -> np.ndarray:
    """One synchronous cultural-transmission update.

    Each agent with at least one neighbor picks one uniformly (pre-step
    traits); a differing trait is adopted with that trait's transmission
    probability. Agents are visited in index order, which fixes the draw
    sequence without affecting the outcome distribution.
    """
    new = traits.copy()
    old = traits.tolist()
    cols, bounds = (part.tolist() for part in csr(adj))
    for i, (start, end) in enumerate(zip(bounds, bounds[1:])):
        if start == end:
            continue
        j = cols[start + draws.integers(end - start)]
        if old[j] == old[i]:
            continue
        if draws.random() < (cfg.p_a if old[j] == TRAIT_A else cfg.p_b):
            new[i] = old[j]
    return new


class PotionTable:
    """A PotionConfig compiled for inventories held as int bitmasks.

    Bit i stands for the i-th item name in sorted order, so ascending
    bits visit a pool in the sorted-name order that makes weighted picks
    reproducible. Recipes are keyed by the mask of their three inputs.
    Each inventory mask's pool is built once, on first use.
    """

    def __init__(self, cfg: PotionConfig):
        names = sorted(cfg.item_scores)
        self.bit = {name: 1 << i for i, name in enumerate(names)}
        self.scores = [cfg.item_scores[name] for name in names]
        self.recipes = {self.mask(rec.inputs): self.bit[rec.product] for rec in cfg.recipes}
        top = max(rec.tier for rec in cfg.recipes)
        self.crossover = next(self.bit[rec.product] for rec in cfg.recipes if rec.tier == top)
        self.start = self.mask(cfg.starting_inventory)
        self.p_diff = cfg.p_diff
        self.pools: dict[int, tuple[list[int], list[float], list[float], float]] = {}

    def mask(self, items) -> int:
        """The mask of a collection of item names."""
        return sum(self.bit[item] for item in set(items))

    def pool(self, mask: int) -> tuple[list[int], list[float], list[float], float]:
        """A mask's item bits, their scores, the running sums of the scores
        (the last one replaced by infinity) and their total, all added left
        to right from 0.0."""
        bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
        weights = [self.scores[bit.bit_length() - 1] for bit in bits]
        sums = [*accumulate(weights, initial=0.0)]
        pool = self.pools[mask] = (bits, weights, sums[1:-1] + [math.inf], sums[-1])
        return pool


def potion_step(adj: np.ndarray, inventories: list[int], table: PotionTable,
                draws: ExactDraws) -> tuple[list[int], list[int]]:
    """One synchronous potion-task step.

    Agents are visited in a fresh random order; each with a neighbor
    picks one uniformly and attempts a combination against the pre-step
    inventories. A fair coin decides whether the agent gives 1 or 2
    distinct items and the neighbor the rest, none already picked; the
    attempt fails when either runs short. Each pick is weighted by score:
    one uniform, scaled by the pool's total, selects the first item whose
    running sum exceeds it (the last item if none does), and the total
    then drops by the picked score. A recipe's product goes to both
    participants and, when new to either, is offered to each one's
    neighbors with probability p_diff. All additions land together at the
    end of the step. Returns the new inventory masks and the bits of the
    products created this step, in creation order.

    The draws are those of `ExactDraws.integers` (neighbor, coin) and
    `random` (picks, offers), parsed inline from a lent word buffer.
    """
    cols, bounds = csr(adj)
    # words an attempt reads at most, Lemire rejections aside: two 32-bit
    # draws, three picks and an offer to every neighbor of both participants
    need = 5 + 2 * int(np.diff(bounds).max())
    # words lent at a time: every attempt's draws but offers and rejections, and one more
    ahead = need + 5 * len(adj)
    cols, bounds = cols.tolist(), bounds.tolist()
    pools, pool, recipes, p_diff = table.pools, table.pool, table.recipes, table.p_diff
    additions = [0] * len(adj)
    created: list[int] = []
    order = draws.permutation(len(adj))
    words, half = draws.lend(ahead)
    pos, last = 0, len(words) - need
    for i in order:
        start = bounds[i]
        deg = bounds[i + 1] - start
        if not deg:
            continue
        while True:  # `integers(deg)`, after topping up the words
            if pos > last:
                draws.settle(pos, half)
                words, half = draws.lend(ahead)
                pos, last = 0, len(words) - need
            if deg == 1:
                j = cols[start]
                break
            if half is None:
                word = words[pos]
                pos += 1
                m = (word & 0xFFFFFFFF) * deg
                half = word >> 32
            else:
                m = half * deg
                half = None
            if m & 0xFFFFFFFF >= 0x100000000 % deg:  # else Lemire rejects the draw
                j = cols[start + (m >> 32)]
                break
        if half is None:  # `integers(2)`, a 32-bit half's top bit: does the agent give two?
            word = words[pos]
            pos += 1
            two = word >> 31 & 1
            half = word >> 32
        else:
            two = half >> 31
            half = None
        inv_i = inventories[i]
        bits, weights, running, total = pools.get(inv_i) or pool(inv_i)
        if len(bits) <= two:
            continue
        idx = bisect_right(running, (words[pos] >> 11) * 2.0 ** -53 * total)
        pos += 1
        picked = bits[idx]
        if two:
            total -= weights[idx]
            bits, weights, running, _ = pools.get(inv_i ^ picked) or pool(inv_i ^ picked)
            idx = bisect_right(running, (words[pos] >> 11) * 2.0 ** -53 * total)
            pos += 1
            picked |= bits[idx]
        rest = inventories[j] & ~picked
        bits, weights, running, total = pools.get(rest) or pool(rest)
        if len(bits) < 2 - two:
            continue
        idx = bisect_right(running, (words[pos] >> 11) * 2.0 ** -53 * total)
        pos += 1
        picked |= bits[idx]
        if not two:
            total -= weights[idx]
            rest ^= bits[idx]
            bits, weights, running, _ = pools.get(rest) or pool(rest)
            idx = bisect_right(running, (words[pos] >> 11) * 2.0 ** -53 * total)
            pos += 1
            picked |= bits[idx]
        product = recipes.get(picked)
        if product is None:
            continue
        created.append(product)
        additions[i] |= product
        additions[j] |= product
        if not inv_i & inventories[j] & product:
            for k in cols[start:start + deg] + cols[bounds[j]:bounds[j + 1]]:
                if (words[pos] >> 11) * 2.0 ** -53 < p_diff:
                    additions[k] |= product
                pos += 1
    draws.settle(pos, half)
    return [inv | add for inv, add in zip(inventories, additions)], created


ProcessConfig = SIConfig | ComplexContagionConfig | CulturalConfig | PotionConfig


def check_population(cfg: ProcessConfig, n: int) -> None:
    """Raise ConfigError if the process seeds more agents than there are."""
    if isinstance(cfg, (SIConfig, ComplexContagionConfig)) and cfg.n_init > n:
        raise ConfigError(f"n_init={cfg.n_init} exceeds population {n}")


def _contagion(cfg: SIConfig | ComplexContagionConfig, snaps: Iterable[np.ndarray],
               n: int, rng: RngStream) -> Iterator[float]:
    """The infected fraction after each snapshot, from `n_init` agents."""
    check_population(cfg, n)
    states = np.zeros(n, dtype=bool)
    states[rng.choice(n, size=cfg.n_init, replace=False)] = True
    step = si_step if isinstance(cfg, SIConfig) else complex_contagion_step
    for snap in snaps:
        states = step(snap, states, cfg, rng)
        yield float(states.mean())


def _cultural(cfg: CulturalConfig, snaps: Iterable[np.ndarray], n: int,
              rng: RngStream) -> Iterator[float]:
    """The signed frequency (n_A - n_B)/N after each snapshot."""
    traits = np.full(n, TRAIT_B, dtype=np.int8)
    traits[rng.choice(n, size=round(cfg.init_split * n), replace=False)] = TRAIT_A
    draws = ExactDraws(rng)
    for snap in snaps:
        traits = cultural_step(snap, traits, cfg, draws)
        yield (2 * int((traits == TRAIT_A).sum()) - n) / n


def _potion(cfg: PotionConfig, snaps: Iterable[np.ndarray], n: int,
            rng: RngStream) -> DiffusionTrajectory:
    """The crossover-item holder fraction after every snapshot, and the
    timestep the crossover item was first made; the task never fixes."""
    table = PotionTable(cfg)
    draws = ExactDraws(rng)
    inventories = [table.start] * n
    trajectory = DiffusionTrajectory()
    for t, snap in enumerate(snaps, start=1):
        inventories, created = potion_step(snap, inventories, table, draws)
        if table.crossover in created and trajectory.crossover_time is None:
            trajectory.crossover_time = t
        holders = sum(1 for inv in inventories if inv & table.crossover)
        trajectory.frequencies.append(holders / n)
    return trajectory


def run_process(cfg: ProcessConfig, snaps: Iterable[np.ndarray], n: int,
                steps: int, rng: RngStream) -> DiffusionTrajectory:
    """Run a process over a round's snapshots of `n` agents.

    SI, complex contagion and cultural transmission fix at the first
    timestep whose frequency is 1 (or -1): no further snapshot is taken
    from `snaps`, and the frequencies are padded to `steps` entries with
    the fixed value.
    """
    if isinstance(cfg, PotionConfig):
        return _potion(cfg, snaps, n, rng)
    process = _cultural if isinstance(cfg, CulturalConfig) else _contagion
    trajectory = DiffusionTrajectory()
    for t, freq in enumerate(process(cfg, snaps, n, rng), start=1):
        trajectory.frequencies.append(freq)
        if abs(freq) == 1.0:
            trajectory.fixation_time = t
            trajectory.frequencies += [freq] * (steps - t)
            break
    return trajectory
