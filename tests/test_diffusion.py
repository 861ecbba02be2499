import dataclasses
import json
import os
import tempfile
from itertools import accumulate, combinations, repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangesim import diffusion
from rangesim.cli import main
from rangesim.core import ConfigError, ExactDraws, ModelKind, SimConfig, make_rng
from rangesim.diffusion import (
    TRAIT_A,
    TRAIT_B,
    ComplexContagionConfig,
    CulturalConfig,
    PotionConfig,
    PotionTable,
    Recipe,
    SIConfig,
    complex_contagion_step,
    cultural_step,
    default_potion_config,
    load_potion_config,
    run_process,
    si_step,
)
from rangesim.harness import iter_model

from measures import run_model
from oracles import (
    ScriptedWords,
    cultural_step_oracle,
    halves_word,
    potion_step_oracle,
    random_graph,
    snapshot_from_edges,
    try_combine_oracle,
    uniform_word,
    weighted_pick_oracle,
)
from potion_names import names, potion_step


def snap(n, edges):
    return snapshot_from_edges(n, edges)


def run_snapshots(config, rng):
    snaps = []
    run_model(config, rng, [lambda t, s: snaps.append(s)])
    return snaps


def star(leaves):
    return snap(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestSIStep:
    def test_zero_probability_freezes_states(self):
        g = star(5)
        states = np.zeros(6, dtype=bool)
        states[0] = True
        rng = make_rng(1, 0)
        for _ in range(20):
            states = si_step(g, states, SIConfig(p_infect=0.0), rng)
        assert states.sum() == 1

    def test_certain_infection_travels_one_hop_per_step(self):
        # path 0-1-2-3: diameter 3, so full infection after 3 steps
        g = snap(4, [(0, 1), (1, 2), (2, 3)])
        states = np.array([True, False, False, False])
        rng = make_rng(1, 0)
        for step in range(1, 4):
            states = si_step(g, states, SIConfig(p_infect=1.0), rng)
            assert states.sum() == step + 1
        assert states.all()

    def test_star_center_infects_half_the_leaves(self):
        # one Bernoulli(0.5) trial per leaf per step: mean 2.5 new infections
        g = star(5)
        cfg = SIConfig(p_infect=0.5)
        rng = make_rng(2, 0)
        trials = 10_000
        total = 0
        seed_states = np.zeros(6, dtype=bool)
        seed_states[0] = True
        for _ in range(trials):
            after = si_step(g, seed_states, cfg, rng)
            total += int(after.sum()) - 1
        mean = total / trials
        sigma = np.sqrt(5 * 0.25 / trials)
        assert abs(mean - 2.5) < 3 * sigma

    def test_per_neighbor_exposure_raises_risk(self):
        # with two infected neighbors the per-neighbor variant infects with
        # probability 1-(1-p)^2, the per-agent variant with p
        g = snap(3, [(0, 2), (1, 2)])
        states = np.array([True, True, False])
        trials = 10_000
        rng = make_rng(3, 0)
        hits = {"per_neighbor": 0, "per_agent": 0}
        for mode in hits:
            cfg = SIConfig(p_infect=0.3, exposure=mode)
            for _ in range(trials):
                hits[mode] += int(si_step(g, states, cfg, rng)[2])
        assert abs(hits["per_neighbor"] / trials - 0.51) < 0.02
        assert abs(hits["per_agent"] / trials - 0.30) < 0.02

    def test_monotone_nondecreasing(self):
        g = snap(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
        states = np.array([True, False, False, True, False, False])
        rng = make_rng(4, 0)
        for _ in range(15):
            after = si_step(g, states, SIConfig(p_infect=0.4), rng)
            assert (after | states).sum() == after.sum()
            states = after

    def test_fixation_almost_sure_on_static_connected_graph(self):
        # one seed, p > 0, cycle graph: every run reaches full infection
        n = 8
        g = snap(n, [(i, (i + 1) % n) for i in range(n)])
        rng = make_rng(5, 0)
        for _ in range(50):
            states = np.zeros(n, dtype=bool)
            states[0] = True
            for _ in range(2000):
                states = si_step(g, states, SIConfig(p_infect=0.3), rng)
                if states.all():
                    break
            assert states.all()


class TestComplexContagion:
    def test_no_exposure_no_baseline_infection(self):
        g = snap(4, [(0, 1)])
        states = np.array([False, False, True, False])  # infected node isolated? no: 2 isolated
        rng = make_rng(1, 0)
        after = complex_contagion_step(g, states, ComplexContagionConfig(p_base=0.0, w=2.0), rng)
        assert (after == states).all()

    def test_unexposed_agents_never_infected(self):
        # agents without an infected neighbor take no trial even with p_base > 0
        g = snap(5, [(0, 1), (2, 3)])
        states = np.array([True, False, False, False, False])
        cfg = ComplexContagionConfig(p_base=0.9, w=0.0)
        rng = make_rng(2, 0)
        for _ in range(50):
            after = complex_contagion_step(g, states, cfg, rng)
            assert not after[2] and not after[3] and not after[4]

    def test_probability_clamps_at_one(self):
        g = star(9)
        states = np.ones(10, dtype=bool)
        states[0] = False
        states = states  # center susceptible, 9 infected neighbors
        cfg = ComplexContagionConfig(p_base=0.0, w=50.0)
        after = complex_contagion_step(g, states, cfg, make_rng(3, 0))
        assert after[0]

    def test_three_infected_neighbors_gives_point_two(self):
        # N=10, Ij=3, p_base=0.05, w=0.5: per-step probability 0.20
        edges = [(0, 1), (0, 2), (0, 3)]
        g = snap(10, edges)
        states = np.zeros(10, dtype=bool)
        states[[1, 2, 3]] = True
        cfg = ComplexContagionConfig(p_base=0.05, w=0.5)
        rng = make_rng(4, 0)
        trials = 10_000
        hits = sum(int(complex_contagion_step(g, states, cfg, rng)[0])
                   for _ in range(trials))
        sigma = np.sqrt(0.2 * 0.8 / trials)
        assert abs(hits / trials - 0.2) < 3 * sigma

    def test_w_zero_identical_to_per_agent_si(self):
        # same stream, same draw pattern: trajectories must match exactly
        cfg_sim = SimConfig(model=ModelKind.RANGE, n=12, g=6, r=2.0, steps=40, seed=8)
        snaps = run_snapshots(cfg_sim, make_rng(8, 0))
        cc = ComplexContagionConfig(p_base=0.2, w=0.0)
        si = SIConfig(p_infect=0.2, exposure="per_agent")
        states_cc = np.zeros(12, dtype=bool)
        states_cc[0] = True
        states_si = states_cc.copy()
        rng_cc = make_rng(9, 0)
        rng_si = make_rng(9, 0)
        for s in snaps:
            states_cc = complex_contagion_step(s, states_cc, cc, rng_cc)
            states_si = si_step(s, states_si, si, rng_si)
            assert (states_cc == states_si).all()


class TestCultural:
    def test_zero_probabilities_freeze_traits(self):
        g = star(4)
        traits = np.array([0, 1, 0, 1, 0], dtype=np.int8)
        draws = ExactDraws(make_rng(1, 0))
        for _ in range(20):
            assert (cultural_step(g, traits, CulturalConfig(p_a=0, p_b=0), draws) == traits).all()

    def test_consensus_is_absorbing(self):
        g = snap(4, [(0, 1), (1, 2), (2, 3)])
        traits = np.full(4, TRAIT_B, dtype=np.int8)
        draws = ExactDraws(make_rng(2, 0))
        for _ in range(20):
            traits = cultural_step(g, traits, CulturalConfig(p_a=0.9, p_b=0.9), draws)
            assert (traits == TRAIT_B).all()

    def test_unbiased_drift_fixation_probability(self):
        # complete graph, equal transmission: P(A fixates) equals the
        # initial frequency of A (checked to 3 sigma over 1000 rounds)
        n = 10
        g = snap(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        cfg = CulturalConfig(p_a=0.5, p_b=0.5, init_split=0.5)
        rounds = 1000
        a_wins = 0
        fixed = 0
        draws = ExactDraws(make_rng(11, 0))
        for _ in range(rounds):
            traits = np.array([TRAIT_A] * (n // 2) + [TRAIT_B] * (n // 2), dtype=np.int8)
            for _ in range(10_000):
                traits = cultural_step(g, traits, cfg, draws)
                first = traits[0]
                if (traits == first).all():
                    fixed += 1
                    a_wins += int(first == TRAIT_A)
                    break
        assert fixed == rounds
        p_hat = a_wins / rounds
        assert abs(p_hat - 0.5) < 3 * np.sqrt(0.25 / rounds)

    def test_isolated_agents_never_adopt(self):
        g = snap(3, [(0, 1)])
        traits = np.array([TRAIT_A, TRAIT_B, TRAIT_B], dtype=np.int8)
        draws = ExactDraws(make_rng(5, 0))
        for _ in range(30):
            traits = cultural_step(g, traits, CulturalConfig(p_a=1.0, p_b=1.0), draws)
            assert traits[2] == TRAIT_B


def combine(inv_i, inv_j, cfg, draws):
    """The products of one `potion_step` on two linked agents holding
    `inv_i` and `inv_j`: each makes one combination attempt."""
    return potion_step(snap(2, [(0, 1)]), [set(inv_i), set(inv_j)], cfg, draws)[1]


class TestTryCombine:
    """Combination attempts, made by `potion_step` on a linked pair."""

    def test_known_recipe_triple(self):
        cfg = default_potion_config()
        inv = {"a1", "a3", "b2"}
        # both sides hold exactly the recipe items: every split yields the triple
        for seed in range(50):
            assert combine(inv, inv, cfg, ExactDraws(make_rng(seed, 0))) == ["B1", "B1"]

    def test_invalid_triple_gives_nothing(self):
        cfg = default_potion_config()
        inv = {"a1", "a2", "a3"}
        for seed in range(50):
            assert combine(inv, inv, cfg, ExactDraws(make_rng(seed, 0))) == []

    def test_insufficient_distinct_items(self):
        cfg = default_potion_config()
        for seed in range(20):
            assert combine({"a1"}, {"a1"}, cfg, ExactDraws(make_rng(seed, 0))) == []

    def test_higher_scores_picked_more_often(self):
        # an attempt makes X or Y when the pair gives one of x, y (scores 64
        # and 1) and both of p, q; which one follows the weighted pick
        cfg = PotionConfig(recipes=(Recipe(frozenset("ypq"), "Y", 1, 4.0),
                                    Recipe(frozenset("xpq"), "X", 2, 16.0)),
                           starting_inventory=("x", "y", "p", "q"),
                           item_scores={"x": 64.0, "y": 1.0, "p": 1.0, "q": 1.0,
                                        "X": 16.0, "Y": 4.0})
        draws = ExactDraws(make_rng(7, 0))
        made = [product for _ in range(2000) for product in combine("xy", "pq", cfg, draws)]
        share = made.count("X") / len(made)  # expected 64/65
        assert abs(share - 64 / 65) < 3 * np.sqrt((64 / 65) * (1 / 65) / len(made))


class TestPotionStep:
    def test_no_neighbors_no_change(self):
        cfg = default_potion_config()
        g = snap(4, [])
        inventories = [set(cfg.starting_inventory) for _ in range(4)]
        draws = ExactDraws(make_rng(1, 0))
        for _ in range(10):
            inventories, created = potion_step(g, inventories, cfg, draws)
            assert created == []
            assert all(inv == set(cfg.starting_inventory) for inv in inventories)

    def test_certain_diffusion_reaches_all_neighbors(self):
        # star where every inventory is exactly one recipe: every combine
        # makes A1, and with p_diff=1 it lands on every agent this step
        cfg = dataclasses.replace(default_potion_config(p_diff=1.0),
                                  starting_inventory=("a1", "a2", "b1"))
        g = star(3)
        inventories = [set(cfg.starting_inventory) for _ in range(4)]
        inventories, created = potion_step(g, inventories, cfg, ExactDraws(make_rng(2, 0)))
        assert "A1" in created
        assert all("A1" in inv for inv in inventories)

    def test_inventories_only_grow_and_stay_derivable(self):
        # audit: an item may appear in an inventory only once a combination
        # event has actually created it somewhere
        cfg = default_potion_config()
        base = set(cfg.starting_inventory)
        sim = SimConfig(model=ModelKind.RANGE, n=20, g=5, r=2.0, steps=40, seed=3)
        snaps = run_snapshots(sim, make_rng(sim.seed, 0))
        draws = ExactDraws(make_rng(sim.seed, 0, 2))
        inventories = [set(base) for _ in range(sim.n)]
        created_so_far = set()
        for snapshot in snaps:
            before = [set(inv) for inv in inventories]
            inventories, created = potion_step(snapshot, inventories, cfg, draws)
            created_so_far |= set(created)
            for prev, now in zip(before, inventories):
                assert prev <= now
                assert now - base <= created_so_far

    def test_crossover_recorded_on_tier_four_creation(self):
        cfg = dataclasses.replace(default_potion_config(),
                                  starting_inventory=("A3", "B3", "a1"))
        g = snap(2, [(0, 1)])
        traj = run_process(cfg, [g], 2, 1, make_rng(1, 0))
        assert traj.crossover_time == 1
        assert traj.frequencies == [1.0]  # both agents hold X


class TestObservers:
    """`run_process`: one process over a round's snapshots."""

    def test_si_frequency_never_decreases(self):
        sim = SimConfig(model=ModelKind.RANGE, n=15, g=6, r=2.0, steps=60, seed=6)
        traj = run_process(SIConfig(p_infect=0.3), iter_model(sim, make_rng(sim.seed, 0)),
                           sim.n, sim.steps, make_rng(sim.seed, 0, 2))
        freqs = traj.frequencies
        assert all(b >= a for a, b in zip(freqs, freqs[1:]))
        if traj.fixation_time is not None:
            assert freqs[traj.fixation_time - 1] == 1.0

    def test_initial_infected_count(self):
        traj = run_process(SIConfig(n_init=3), [snap(10, [])], 10, 1, make_rng(1, 0, 2))
        assert traj.frequencies == [0.3]

    def test_n_init_larger_than_population_rejected(self):
        with pytest.raises(ConfigError):
            run_process(SIConfig(n_init=5), [snap(3, [])], 3, 1, make_rng(1, 0, 2))

    @pytest.mark.parametrize("n,frequency", [(10, 0.0), (5, -0.2), (7, 1 / 7)])
    def test_cultural_signed_frequency(self, n, frequency):
        # round(0.5 * n) agents start with A, halves rounding to even (2 of
        # 5, 4 of 7), and nothing changes without links
        traj = run_process(CulturalConfig(init_split=0.5), [snap(n, [])], n, 1,
                           make_rng(2, 0, 2))
        assert traj.frequencies == [frequency]

    def test_fixation_stops_taking_snapshots(self):
        # an endless supply of complete graphs: the run returns only
        # because it stops at fixation
        g = snap(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        traj = run_process(SIConfig(p_infect=1.0), repeat(g), 4, 5, make_rng(3, 0, 2))
        assert traj.fixation_time == 1
        assert traj.frequencies == [1.0] * 5


class TestRecipeIO:
    def test_roundtrip_from_file(self, tmp_path):
        import json

        cfg = default_potion_config()
        payload = {
            "starting_inventory": [{"item": item, "score": cfg.item_scores[item]}
                                   for item in cfg.starting_inventory],
            "recipes": [{"inputs": sorted(rec.inputs), "product": rec.product,
                         "tier": rec.tier, "score": rec.score}
                        for rec in cfg.recipes],
        }
        path = tmp_path / "recipes.json"
        path.write_text(json.dumps(payload))
        loaded = load_potion_config(str(path))
        assert loaded.recipes == cfg.recipes
        assert loaded.starting_inventory == cfg.starting_inventory
        assert loaded.item_scores == cfg.item_scores

    def test_malformed_table_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"starting_inventory": [], "recipes": []}')
        with pytest.raises(ConfigError):
            load_potion_config(str(path))

    def test_scores_must_increase_with_tier(self):
        with pytest.raises(ConfigError):
            PotionConfig(
                recipes=(
                    Recipe(frozenset({"a", "b", "c"}), "P1", 1, 10.0),
                    Recipe(frozenset({"P1", "b", "c"}), "P2", 2, 5.0),
                ),
                starting_inventory=("a", "b", "c"),
                item_scores={"a": 1, "b": 1, "c": 1, "P1": 10.0, "P2": 5.0},
            )


# Scores that are not integers, so a running total that drops by each
# picked score drifts from the sum of what is left.
FRACTIONS = (0.1, 0.7, 3.3, 0.3, 0.2, 1.3, 0.9)
ITEM_NAMES = ("a1", "a2", "b1", "b2", "c", "A1", "B1", "X", "p", "Q", "z3", "m")


@st.composite
def recipe_tables(draw):
    """A `load_potion_config` payload: 3-6 base items and 1-3 tiers of
    recipes over items known so far, scored inside separate bands."""
    pool = list(draw(st.permutations(ITEM_NAMES)))
    base = [pool.pop() for _ in range(draw(st.integers(3, 6)))]
    inventory = [{"item": item, "score": draw(st.sampled_from(FRACTIONS))} for item in base]
    known, recipes = list(base), []
    top = draw(st.integers(1, 3))
    for tier in range(1, top + 1):
        # each recipe takes a triple no earlier one takes; three items have one
        free = [list(ins) for ins in combinations(known, 3)
                if all(set(ins) != set(rec["inputs"]) for rec in recipes)]
        count = 1 if tier == top else draw(st.integers(1, min(2, len(free))))
        products = [pool.pop() for _ in range(count)]
        for product in products:
            inputs = draw(st.sampled_from(free))
            free.remove(inputs)
            recipes.append({"inputs": inputs, "product": product, "tier": tier,
                            "score": 4.0 ** tier + draw(st.sampled_from(FRACTIONS))})
        known += products
    return {"starting_inventory": inventory, "recipes": recipes}


def load_payload(payload, p_diff=0.5):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "recipes.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return load_potion_config(path, p_diff=p_diff)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(payload=recipe_tables(), n=st.integers(1, 30), density=st.floats(0, 1),
       p_diff=st.floats(0, 1), seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 3),
       data=st.data())
def test_potion_step_matches_name_set_oracle(payload, n, density, p_diff, seed, steps, data):
    cfg = load_payload(payload, p_diff)
    table = PotionTable(cfg)
    items = sorted(cfg.item_scores)
    g = snapshot_from_edges(n, random_graph(n, np.random.default_rng(seed), density))
    # most inventories hold some recipe's inputs, so combinations succeed
    triples = [frozenset(), *(rec.inputs for rec in cfg.recipes)]
    inventory = st.builds(frozenset.union, st.sampled_from(triples),
                          st.frozensets(st.sampled_from(items), max_size=3))
    start = data.draw(st.lists(inventory, min_size=n, max_size=n), label="inventories")
    ours, theirs = [table.mask(inv) for inv in start], [set(inv) for inv in start]
    rng_ours, rng_theirs = make_rng(seed, 1), make_rng(seed, 1)
    draws = ExactDraws(rng_ours)
    for _ in range(steps):
        ours, created = diffusion.potion_step(g, ours, table, draws)
        theirs, created_oracle = potion_step_oracle(g, theirs, cfg, rng_theirs)
        assert [names(table, mask) for mask in ours] == theirs
        assert [name for bit in created for name in names(table, bit)] == created_oracle
    assert draws.random() == rng_theirs.random()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(1, 30), density=st.floats(0, 1), p_a=st.floats(0, 1),
       p_b=st.floats(0, 1), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_cultural_step_matches_oracle(n, density, p_a, p_b, seed, data):
    cfg = CulturalConfig(p_a=p_a, p_b=p_b)
    g = snapshot_from_edges(n, random_graph(n, np.random.default_rng(seed), density))
    traits = np.array(data.draw(st.lists(st.sampled_from((TRAIT_A, TRAIT_B)),
                                         min_size=n, max_size=n), label="traits"),
                      dtype=np.int8)
    rng_ours, rng_theirs = make_rng(seed, 1), make_rng(seed, 1)
    draws = ExactDraws(rng_ours)
    ours = cultural_step(g, traits, cfg, draws)
    theirs = cultural_step_oracle(g, traits, cfg, rng_theirs)
    assert ours.dtype == theirs.dtype
    assert (ours == theirs).all()
    assert draws.random() == rng_theirs.random()


ALMOST_ONE = 1.0 - 2.0 ** -53  # the largest double below 1, a `FILL` word's `random()`

SCORES = {"a": 0.1, "b": 0.7, "c": 0.2, "d": 1.0}
ABCD = PotionConfig(recipes=(Recipe(frozenset("abc"), "P", 1, 5.5),
                             Recipe(frozenset("bcd"), "Q", 2, 22.0)),
                    starting_inventory=("a", "b", "c", "d"),
                    item_scores={**SCORES, "P": 5.5, "Q": 22.0})


def scripted_step(adj, inventories, words):
    """`potion_step` and its oracle on the same scripted words; both must
    agree and stop at the same word and half. Returns the products."""
    ours, theirs = ScriptedWords(words), ScriptedWords(words)
    result = potion_step(adj, inventories, ABCD, ours)
    assert result == potion_step_oracle(adj, inventories, ABCD, theirs)
    assert (ours.pos, ours.half) == (theirs.pos, theirs.half)
    return result[1]


def test_pick_past_the_running_sums_takes_the_last_item():
    # the first pick takes c; the second draw, scaled by the total less
    # 0.2, lies at or past 0.1 + 0.7, so no running sum exceeds it and
    # both implementations fall back to the last item left, b
    assert (0.1 + 0.7 + 0.2 - 0.2) * ALMOST_ONE >= 0.1 + 0.7
    assert weighted_pick_oracle(["a", "b", "c"], 2, SCORES, ScriptedWords()) == ["c", "b"]
    # the first agent gives two items (c, then b), the second gives a
    assert try_combine_oracle({"a", "b", "c"}, {"a", "b", "c"}, ABCD, ScriptedWords()) == "P"
    # every coin says two items: agent 0 gives c and b, agent 1 then d, and
    # agent 1's own attempt finds no second item
    assert scripted_step(snap(2, [(0, 1)]), [{"a", "b", "c"}, {"d"}], []) == ["Q"]


def test_second_pick_scales_by_total_less_first_score():
    # after c is picked, 0.125 times (total - 0.2) reaches a's running sum
    # 0.1 and selects b; 0.125 times the sum of what is left, a and b,
    # would fall short of it and select a
    total = 0.1 + 0.7 + 0.2
    assert 0.125 * (total - 0.2) >= 0.1 > 0.125 * (0.1 + 0.7)
    picks = [uniform_word(ALMOST_ONE), uniform_word(0.125)]
    assert weighted_pick_oracle(["a", "b", "c"], 2, SCORES, ScriptedWords(picks)) == ["c", "b"]
    # both agents' coins say two items (the first word's halves), then the picks
    words = [ScriptedWords.FILL, *picks]
    assert scripted_step(snap(2, [(0, 1)]), [{"a", "b", "c"}, {"d"}], words) == ["Q"]


def test_neighbor_pick_redraws_a_rejected_half():
    # agent 0 has 3 neighbors: the low half 0 times 3 leaves 0 < 2^32 % 3,
    # so numpy rejects it and draws again from the high half, 2^32 - 1,
    # which picks the last neighbor, 3, the only one holding c
    star3 = star(3)
    inventories = [{"a", "b"}, {"d"}, {"d"}, {"c"}]
    assert scripted_step(star3, inventories, [halves_word(0, 2**32 - 1)]) == ["P"]
    # without the rejection, the low half would pick neighbor 1
    assert scripted_step(star3, inventories, [halves_word(1, 2**32 - 1)]) == []


def test_pool_totals_are_left_to_right_sums():
    # builtin `sum` is compensated from Python 3.12 on; the running sums
    # and the totals that scale the draws are added left to right
    table = PotionTable(load_potion_config(os.path.join(os.path.dirname(__file__),
                                                        "recipes_fractional.json")))
    for mask in range(1, 1 << len(table.scores)):
        bits, weights, running, total = table.pool(mask)
        expected = 0.0
        for weight in weights:
            expected += weight
        assert total == expected
        assert running[:-1] == [*accumulate(weights[:-1])]


BASE_TABLE = {
    "starting_inventory": [{"item": "a", "score": 0.1}, {"item": "b", "score": 0.7},
                           {"item": "c", "score": 3.3}],
    "recipes": [{"inputs": ["a", "b", "c"], "product": "P", "tier": 1, "score": 4.5}],
}


# abc makes both P and Q, so a lookup by inputs could reach only one of them
DUPLICATE_INPUTS_TABLE = {**BASE_TABLE, "recipes": [
    {"inputs": ["a", "b", "c"], "product": "P", "tier": 1, "score": 4.0},
    {"inputs": ["a", "b", "c"], "product": "Q", "tier": 1, "score": 4.5},
    {"inputs": ["a", "b", "P"], "product": "X", "tier": 2, "score": 16.0}]}


def _with_recipe(**changes):
    return {**BASE_TABLE, "recipes": [{**BASE_TABLE["recipes"][0], **changes}]}


@pytest.mark.parametrize("text", [
    pytest.param("{not json", id="not-json"),
    pytest.param(json.dumps({**BASE_TABLE, "starting_inventory": [
        {"item": "a", "score": "high"}, {"item": "b", "score": 0.7},
        {"item": "c", "score": 3.3}]}), id="score-not-numeric"),
    pytest.param(json.dumps(_with_recipe(score="4.5")), id="recipe-score-string"),
    # an integer beyond float's range: float() raises OverflowError
    pytest.param(json.dumps(_with_recipe(score=10 ** 400)), id="recipe-score-overflow"),
    pytest.param(json.dumps(_with_recipe(tier="one")), id="tier-not-numeric"),
    pytest.param(json.dumps(_with_recipe(inputs="abc")), id="inputs-string"),
    pytest.param(json.dumps(_with_recipe(inputs=["a", "a", "b"])), id="inputs-repeated"),
    pytest.param(json.dumps(_with_recipe(product=7)), id="product-not-string"),
    pytest.param(json.dumps(DUPLICATE_INPUTS_TABLE), id="inputs-duplicated"),
    pytest.param(json.dumps({**BASE_TABLE, "starting_inventory": [
        {"item": 1, "score": 0.1}, {"item": "b", "score": 0.7},
        {"item": "c", "score": 3.3}]}), id="item-not-string"),
    # each score finite, their sum not: a weighted pick would overrun its pool
    pytest.param(json.dumps({"starting_inventory": [
        {"item": item, "score": 1e308} for item in "abc"], "recipes": [
        {"inputs": ["a", "b", "c"], "product": "X", "tier": 1, "score": 1.5e308}]}),
        id="scores-sum-overflows"),
])
def test_bad_recipe_table_is_config_error(text, tmp_path, capsys):
    path = tmp_path / "recipes.json"
    path.write_text(text)
    out = tmp_path / "out.csv"
    code = main(["diffusion", "--process", "potion", "--r", "2", "--n", "5", "--g", "4",
                 "--steps", "3", "--recipes", str(path), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("rangesim: config error: ")
    assert not out.exists()


@pytest.mark.parametrize("inputs", [[1, 2, 3], ["a", "b", 3]], ids=["numbers", "one-number"])
def test_non_string_recipe_inputs_are_config_error(inputs, tmp_path, capsys):
    path = tmp_path / "recipes.json"
    path.write_text(json.dumps(_with_recipe(inputs=inputs)))
    out = tmp_path / "out.csv"
    code = main(["diffusion", "--process", "potion", "--r", "2", "--n", "5", "--g", "4",
                 "--steps", "3", "--recipes", str(path), "--out", str(out)])
    assert code == 2
    assert "malformed recipe table" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("score", [-0.1, float("nan"), float("inf")])
def test_recipe_scores_must_be_finite_and_non_negative(score):
    table = {**BASE_TABLE, "starting_inventory": [
        {"item": "a", "score": score}, {"item": "b", "score": 0.7}, {"item": "c", "score": 3.3}]}
    with pytest.raises(ConfigError, match="non-negative"):
        load_payload(table)


def test_recipes_with_the_same_inputs_are_rejected():
    with pytest.raises(ConfigError, match=r"recipes for P and Q take the same inputs"):
        load_payload(DUPLICATE_INPUTS_TABLE)
