"""Four transmission processes run as per-step observers on either model.

All four read the pre-step network and pre-step agent states only
(synchronous updates), so a trajectory depends on the snapshot sequence
and the diffusion RNG stream, never on agent processing order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

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
        for rec in self.recipes:
            if len(rec.inputs) != 3:
                raise ConfigError(f"recipe for {rec.product} must take 3 distinct items")
            tiers.setdefault(rec.tier, []).append(rec.score)
        for low, high in zip(sorted(tiers), sorted(tiers)[1:]):
            if max(tiers[low]) >= min(tiers[high]):
                raise ConfigError("recipe scores must strictly increase with tier")
        if sum(rec.tier == max(tiers) for rec in self.recipes) != 1:
            raise ConfigError("exactly one top-tier crossover recipe is required")
        for item in set().union(*(rec.inputs for rec in self.recipes)):
            if item not in self.item_scores:
                raise ConfigError(f"no score known for item {item!r}")

    @property
    def crossover_item(self) -> str:
        top_tier = max(rec.tier for rec in self.recipes)
        return next(rec.product for rec in self.recipes if rec.tier == top_tier)

    @property
    def recipe_index(self) -> dict[frozenset[str], str]:
        return {rec.inputs: rec.product for rec in self.recipes}


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


def load_potion_config(path: str, p_diff: float = 0.5) -> PotionConfig:
    """Read a recipe table from a JSON file (format documented in README)."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        base = tuple(entry["item"] for entry in data["starting_inventory"])
        scores = {entry["item"]: float(entry["score"]) for entry in data["starting_inventory"]}
        recipes = tuple(
            Recipe(frozenset(entry["inputs"]), entry["product"],
                   int(entry["tier"]), float(entry["score"]))
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
    for i in range(snap.n):
        nbrs = snap.neighbors(i)
        if nbrs.size == 0:
            continue
        j = int(nbrs[rng.integers(nbrs.size)])
        if traits[j] == traits[i]:
            continue
        p = cfg.p_a if traits[j] == TRAIT_A else cfg.p_b
        if rng.random() < p:
            new[i] = traits[j]
    return new


def _weighted_pick(items: Sequence[str], count: int, scores: dict[str, float],
                   rng: RngStream) -> list[str] | None:
    """Sample `count` distinct items with probability proportional to score.

    Items are considered in sorted-name order so draws are reproducible.
    Returns None when fewer than `count` distinct items are available.
    One uniform draw per picked item.
    """
    if len(items) < count:
        return None
    pool = sorted(items)
    weights = [scores[item] for item in pool]
    total = sum(weights)
    picked = []
    for _ in range(count):
        u = rng.random() * total
        acc = 0.0
        idx = len(pool) - 1
        for pos, wgt in enumerate(weights):
            acc += wgt
            if u < acc:
                idx = pos
                break
        picked.append(pool.pop(idx))
        total -= weights.pop(idx)
    return picked


def try_combine(inv_i: set[str], inv_j: set[str], cfg: PotionConfig,
                rng: RngStream) -> str | None:
    """Draw a 3-item triple from two inventories and look it up.

    A fair coin decides whether the first agent contributes 1 or 2 items;
    the second contributes the remainder, excluding items already picked
    so the triple is always distinct. Higher-scored items are more likely
    to be chosen. Returns the recipe product, or None for an invalid
    triple or when a contributor runs out of distinct items.
    """
    count_i = int(rng.integers(1, 3))
    picks_i = _weighted_pick(list(inv_i), count_i, cfg.item_scores, rng)
    if picks_i is None:
        return None
    remaining = [item for item in inv_j if item not in picks_i]
    picks_j = _weighted_pick(remaining, 3 - count_i, cfg.item_scores, rng)
    if picks_j is None:
        return None
    return cfg.recipe_index.get(frozenset(picks_i + picks_j))


def potion_step(snap: NetworkSnapshot, inventories: list[set[str]],
                cfg: PotionConfig, rng: RngStream) -> tuple[list[set[str]], list[str]]:
    """One synchronous potion-task step.

    Agents are visited in a fresh random order; each with a neighbor
    picks one uniformly and attempts a combination against the pre-step
    inventories. Products new to either participant are additionally
    offered to each participant's neighbors with probability p_diff.
    All additions land together at the end of the step. Returns the new
    inventories and the products created this step, in creation order.
    """
    additions: list[set[str]] = [set() for _ in range(snap.n)]
    created: list[str] = []
    for agent in rng.permutation(snap.n):
        i = int(agent)
        nbrs = snap.neighbors(i)
        if nbrs.size == 0:
            continue
        j = int(nbrs[rng.integers(nbrs.size)])
        product = try_combine(inventories[i], inventories[j], cfg, rng)
        if product is None:
            continue
        created.append(product)
        additions[i].add(product)
        additions[j].add(product)
        if product not in inventories[i] or product not in inventories[j]:
            for participant in (i, j):
                for k in snap.neighbors(participant):
                    if rng.random() < cfg.p_diff:
                        additions[int(k)].add(product)
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
        self.cfg = cfg
        self.rng = rng
        self.inventories = [set(cfg.starting_inventory) for _ in range(n)]
        self.trajectory = DiffusionTrajectory()
        self.done = False

    def __call__(self, t: int, snap: NetworkSnapshot) -> None:
        self.inventories, created = potion_step(snap, self.inventories, self.cfg, self.rng)
        if self.cfg.crossover_item in created and self.trajectory.crossover_time is None:
            self.trajectory.crossover_time = t
        holders = sum(self.cfg.crossover_item in inv for inv in self.inventories)
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
