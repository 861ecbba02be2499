"""Four transmission processes run as per-step observers on either model.

All four read the pre-step network and pre-step agent states only
(synchronous updates), so a trajectory depends on the snapshot sequence
and the diffusion RNG stream, never on agent processing order.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .core import ConfigError, RngStream
from .metrics import NetworkSnapshot

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
        if self.w < 0:
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
    return frozenset(value)


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
    except (KeyError, TypeError) as exc:
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


def _infection_counts(snap: NetworkSnapshot, infected: np.ndarray) -> np.ndarray:
    return (snap.adj & infected[None, :]).sum(axis=1)


def si_step(snap: NetworkSnapshot, states: np.ndarray, cfg: SIConfig,
            rng: RngStream) -> np.ndarray:
    """One synchronous SI update; returns the new infected mask.

    Exposure is evaluated against the pre-step states: an S-agent with k
    infected neighbors is infected with probability 1-(1-p)^k under
    per-neighbor trials, or p under the per-agent variant. One uniform is
    drawn per exposed agent, in agent-index order.
    """
    counts = _infection_counts(snap, states)
    exposed = np.flatnonzero(~states & (counts > 0))
    new = states.copy()
    if exposed.size == 0:
        return new
    if cfg.exposure == "per_neighbor":
        p_eff = 1.0 - (1.0 - cfg.p_infect) ** counts[exposed]
    else:
        p_eff = cfg.p_infect
    new[exposed[rng.random(exposed.size) < p_eff]] = True
    return new


def complex_contagion_step(snap: NetworkSnapshot, states: np.ndarray,
                           cfg: ComplexContagionConfig, rng: RngStream) -> np.ndarray:
    """One synchronous complex-contagion update.

    An S-agent with k >= 1 infected neighbors (pre-step) is infected with
    probability clamp(p_base + (k/N) * w, 0, 1); one trial per agent.
    """
    counts = _infection_counts(snap, states)
    exposed = np.flatnonzero(~states & (counts > 0))
    new = states.copy()
    if exposed.size == 0:
        return new
    p_eff = np.clip(cfg.p_base + counts[exposed] / snap.n * cfg.w, 0.0, 1.0)
    new[exposed[rng.random(exposed.size) < p_eff]] = True
    return new


def cultural_step(snap: NetworkSnapshot, traits: np.ndarray, cfg: CulturalConfig,
                  rng: RngStream) -> np.ndarray:
    """One synchronous cultural-transmission update.

    Each agent with at least one neighbor picks one uniformly (pre-step
    traits); a differing trait is adopted with that trait's transmission
    probability. Agents are visited in index order, which fixes the draw
    sequence without affecting the outcome distribution.
    """
    new = traits.copy()
    old = traits.tolist()
    for i, nbrs in enumerate(snap.neighbor_lists):
        if not nbrs:
            continue
        j = nbrs[rng.integers(len(nbrs))]
        if old[j] == old[i]:
            continue
        if rng.random() < (cfg.p_a if old[j] == TRAIT_A else cfg.p_b):
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
        self._pools: dict[int, tuple[list[int], list[float], list[float], float]] = {}

    def mask(self, items) -> int:
        """The mask of a collection of item names."""
        return sum(self.bit[item] for item in set(items))

    def _pool(self, mask: int) -> tuple[list[int], list[float], list[float], float]:
        """A mask's item bits, their scores, the running sums of the scores
        (added left to right from 0.0, the last one replaced by infinity)
        and their total (builtin `sum`)."""
        items = [i for i in range(mask.bit_length()) if mask >> i & 1]
        weights = [self.scores[i] for i in items]
        running = [*accumulate(weights[:-1], initial=0.0)][1:] + [math.inf]
        pool = self._pools[mask] = ([1 << i for i in items], weights, running, sum(weights))
        return pool

    def pick(self, mask: int, count: int, rng: RngStream) -> int | None:
        """Mask of `count` (at least 1) distinct items of `mask`, drawn with
        probability proportional to score; None when `mask` holds fewer.

        One uniform per pick, scaled by the total, selects the first item
        whose running sum exceeds it, or the last item if none does.
        After each pick the total drops by the picked score.
        """
        pools = self._pools
        bits, weights, running, total = pools.get(mask) or self._pool(mask)
        if len(bits) < count:
            return None
        idx = bisect_right(running, rng.random() * total)
        picked = bits[idx]
        for _ in range(count - 1):
            total -= weights[idx]
            rest = mask ^ picked
            bits, weights, running, _ = pools.get(rest) or self._pool(rest)
            idx = bisect_right(running, rng.random() * total)
            picked |= bits[idx]
        return picked


def try_combine(inv_i: int, inv_j: int, table: PotionTable, rng: RngStream) -> int | None:
    """Draw a 3-item triple from two inventory masks and look it up.

    A fair coin decides whether the first agent contributes 1 or 2 items;
    the second contributes the remainder, excluding items already picked
    so the triple is always distinct. Higher-scored items are more likely
    to be chosen. Returns the product's bit, or None for an invalid
    triple or when a contributor runs out of distinct items.
    """
    count_i = int(rng.integers(1, 3))
    picked = table.pick(inv_i, count_i, rng)
    if picked is None:
        return None
    rest = table.pick(inv_j & ~picked, 3 - count_i, rng)
    if rest is None:
        return None
    return table.recipes.get(picked | rest)


def potion_step(snap: NetworkSnapshot, inventories: list[int], table: PotionTable,
                rng: RngStream) -> tuple[list[int], list[int]]:
    """One synchronous potion-task step.

    Agents are visited in a fresh random order; each with a neighbor
    picks one uniformly and attempts a combination against the pre-step
    inventories. Products new to either participant are additionally
    offered to each participant's neighbors with probability p_diff.
    All additions land together at the end of the step. Returns the new
    inventory masks and the bits of the products created this step, in
    creation order.
    """
    neighbor_lists = snap.neighbor_lists
    additions = [0] * snap.n
    created: list[int] = []
    for i in rng.permutation(snap.n).tolist():
        nbrs = neighbor_lists[i]
        if not nbrs:
            continue
        j = nbrs[rng.integers(len(nbrs))]
        product = try_combine(inventories[i], inventories[j], table, rng)
        if product is None:
            continue
        created.append(product)
        additions[i] |= product
        additions[j] |= product
        if not inventories[i] & inventories[j] & product:
            for participant in (i, j):
                for k in neighbor_lists[participant]:
                    if rng.random() < table.p_diff:
                        additions[k] |= product
    return [inv | add for inv, add in zip(inventories, additions)], created


class _ContagionObserver:
    """Shared infected-state tracking for the SI-style processes."""

    def __init__(self, cfg, n: int, rng: RngStream):
        check_population(cfg, n)
        self.cfg = cfg
        self.rng = rng
        self.states = np.zeros(n, dtype=bool)
        self.states[rng.choice(n, size=cfg.n_init, replace=False)] = True
        self.trajectory = DiffusionTrajectory()
        self.done = False

    def _advance(self, snap: NetworkSnapshot) -> None:
        raise NotImplementedError

    def __call__(self, t: int, snap: NetworkSnapshot) -> None:
        if not self.done:
            self._advance(snap)
        freq = self.states.mean()
        self.trajectory.frequencies.append(float(freq))
        if freq == 1.0 and self.trajectory.fixation_time is None:
            self.trajectory.fixation_time = t
            self.done = True


class SIObserver(_ContagionObserver):
    def _advance(self, snap: NetworkSnapshot) -> None:
        self.states = si_step(snap, self.states, self.cfg, self.rng)


class ComplexContagionObserver(_ContagionObserver):
    def _advance(self, snap: NetworkSnapshot) -> None:
        self.states = complex_contagion_step(snap, self.states, self.cfg, self.rng)


class CulturalObserver:
    """Tracks two-trait transmission; frequency is signed, (n_A - n_B)/N."""

    def __init__(self, cfg: CulturalConfig, n: int, rng: RngStream):
        self.cfg = cfg
        self.rng = rng
        n_a = round(cfg.init_split * n)
        self.traits = np.full(n, TRAIT_B, dtype=np.int8)
        self.traits[rng.choice(n, size=n_a, replace=False)] = TRAIT_A
        self.trajectory = DiffusionTrajectory()
        self.done = bool(n_a in (0, n))

    def __call__(self, t: int, snap: NetworkSnapshot) -> None:
        if not self.done:
            self.traits = cultural_step(snap, self.traits, self.cfg, self.rng)
        n_a = int((self.traits == TRAIT_A).sum())
        signed = (2 * n_a - self.traits.size) / self.traits.size
        self.trajectory.frequencies.append(signed)
        if abs(signed) == 1.0 and self.trajectory.fixation_time is None:
            self.trajectory.fixation_time = t
            self.done = True


class PotionObserver:
    """Tracks the potion task; frequency is the crossover-item holder fraction."""

    def __init__(self, cfg: PotionConfig, n: int, rng: RngStream):
        self.table = PotionTable(cfg)
        self.rng = rng
        self.inventories = [self.table.start] * n
        self.trajectory = DiffusionTrajectory()
        self.done = False

    def __call__(self, t: int, snap: NetworkSnapshot) -> None:
        self.inventories, created = potion_step(snap, self.inventories, self.table, self.rng)
        crossover = self.table.crossover
        if crossover in created and self.trajectory.crossover_time is None:
            self.trajectory.crossover_time = t
        holders = sum(1 for inv in self.inventories if inv & crossover)
        self.trajectory.frequencies.append(holders / len(self.inventories))


ProcessConfig = SIConfig | ComplexContagionConfig | CulturalConfig | PotionConfig

_OBSERVERS = {
    SIConfig: SIObserver,
    ComplexContagionConfig: ComplexContagionObserver,
    CulturalConfig: CulturalObserver,
    PotionConfig: PotionObserver,
}


def check_population(cfg: ProcessConfig, n: int) -> None:
    """Raise ConfigError if the process seeds more agents than there are."""
    if isinstance(cfg, (SIConfig, ComplexContagionConfig)) and cfg.n_init > n:
        raise ConfigError(f"n_init={cfg.n_init} exceeds population {n}")


def make_observer(cfg: ProcessConfig, n: int, rng: RngStream):
    """Observer instance for a process config; raises ConfigError on unknown types."""
    cls = _OBSERVERS.get(type(cfg))
    if cls is None:
        raise ConfigError(f"unknown diffusion process config: {type(cfg).__name__}")
    return cls(cfg, n, rng)


def padded_frequencies(traj: DiffusionTrajectory, steps: int) -> list[float]:
    """Frequencies extended to `steps` entries by repeating the absorbed value."""
    freqs = list(traj.frequencies)
    if freqs and len(freqs) < steps:
        freqs.extend([freqs[-1]] * (steps - len(freqs)))
    return freqs
