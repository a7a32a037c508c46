"""Bit-flip framework: flips, environments, composition, trace probabilities."""

import itertools
from fractions import Fraction
from random import Random

import pytest

from ftnilab.faultlab import (
    TAU,
    Composition,
    EnvironmentSpec,
    FaultProneSystem,
    TableSystem,
    augmented_step,
    compose_step,
    enumerate_runs,
    environment_from_text,
    environment_to_text,
    faulted_step,
    low,
    output,
    scripted_environment,
    uniform_environment,
)
from ftnilab.verify import random_table_system


def bits(spec: str):
    """'a,b|c' -> names a, b, c with a, b faulty and c fault-tolerant."""
    head, _, tail = spec.partition("|")
    faulty = [n for n in head.split(",") if n]
    return faulty + [n for n in tail.split(",") if n], faulty


def idle_three_bit_system():
    """Every state steps silently to itself, so a faulted step's successor
    is the flipped state."""
    return TableSystem(*bits("a,b,c|"), {state: (TAU, state) for state in range(8)})


def test_flip_named_bits_only():
    system = idle_three_bit_system()
    state = system.state_of({"a": 0, "b": 1, "c": 0})
    _, flipped = faulted_step(system, state, system.mask_of({"a", "c"}))
    assert system.bits_of(flipped) == {"a": 1, "b": 1, "c": 1}


def test_flip_empty_set_is_identity():
    system = idle_three_bit_system()
    state = system.state_of({"a": 0, "b": 1, "c": 0})
    assert faulted_step(system, state, 0) == (TAU, state)


def test_flip_is_an_involution():
    system = idle_three_bit_system()
    rng = Random(7)
    for _ in range(50):
        state = rng.randrange(8)
        mask = system.mask_of({n for n in "abc" if rng.randrange(2)})
        _, once = faulted_step(system, state, mask)
        assert faulted_step(system, once, mask) == (TAU, state)


def test_system_names_the_faulty_bits_in_its_mask():
    system = TableSystem(*bits("a,c|b,d"), {})
    assert system.names == ("a", "c", "b", "d")
    assert system.faulty_names == frozenset({"a", "c"})
    assert system.faulty_mask == 0b0011


@pytest.mark.parametrize("cls", [FaultProneSystem, TableSystem])
def test_system_rejects_a_faulty_name_outside_its_names(cls):
    extra = ({},) if cls is TableSystem else ()
    with pytest.raises(ValueError, match=r"faulty names outside the system: \['z'\]"):
        cls(["a", "b"], ["a", "z"], *extra)


@pytest.mark.parametrize("cls", [FaultProneSystem, TableSystem])
def test_system_rejects_duplicate_names(cls):
    extra = ({},) if cls is TableSystem else ()
    with pytest.raises(ValueError, match="location names must be unique"):
        cls(["a", "b", "a"], ["a"], *extra)


def test_flip_rejects_fault_tolerant_locations():
    """An attacker may flip only faulty locations."""
    system = TableSystem(*bits("a|t"), {})
    for names, message in (({"t"}, r"\['t'\]"), ({"nope"}, r"\['nope'\]")):
        env = uniform_environment(Fraction(1, 4), names)
        with pytest.raises(ValueError, match=f"fault set {message} not within faulty locations"):
            env.validate(system.faulty_names)


def test_low_projection_laws():
    actions = [TAU, output("low", 3), output("high", 3), output("low", 0)]
    for a in actions:
        assert low(low(a)) == low(a)
        if a.channel == "low":
            assert low(a) == a
        else:
            assert low(a) == TAU


def test_uniform_environment_single_set_probability():
    env = uniform_environment(Fraction(1, 4), {"a", "b", "c"})
    dist = env.fault_distribution("E0")
    assert dist[frozenset({"a"})] == Fraction(9, 64)
    assert dist[frozenset()] == Fraction(27, 64)


def test_uniform_environment_mass_sums_to_one():
    env = uniform_environment(Fraction(1, 4), {"a", "b", "c"})
    total = sum(env.fault_distribution("E0").values(), Fraction(0))
    assert total == 1
    assert len(env.fault_distribution("E0")) == 8
    env.validate(frozenset({"a", "b", "c"}))


def test_uniform_environment_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        uniform_environment(Fraction(3, 2), {"a"})


def test_compose_step_one_bit_example():
    # b=0 emits 'a' into the stuck state b=1; b=1 is stuck.
    system = TableSystem(*bits("b|"), {0: (output("low", 0), 1)})
    env = uniform_environment(Fraction(1, 4), {"b"})
    entries = compose_step(system, 0, "E0", env)
    assert set(entries) == {
        (output("low", 0), Fraction(3, 4), 1, "E0"),
        (TAU, Fraction(1, 4), 1, "E0"),
    }


def test_compose_step_stuck_state_loops_with_mass_one():
    system = TableSystem(*bits("b|"), {0: (output("low", 0), 1)})
    env = uniform_environment(Fraction(1, 4), {"b"})
    assert compose_step(system, 1, "E0", env) == [(TAU, Fraction(1), 1, "E0")]


def test_compose_step_total_mass_on_random_systems():
    rng = Random(11)
    for _ in range(20):
        system = random_table_system(rng, n_locations=4, n_faulty=rng.randrange(5))
        env = uniform_environment(Fraction(1, 3), system.faulty_names)
        for state in system.all_states():
            entries = compose_step(system, state, "E0", env)
            assert sum(p for _, p, _, _ in entries) == 1
            assert all(p >= 0 for _, p, _, _ in entries)


def test_compose_step_mass_with_six_faulty_bits():
    rng = Random(5)
    system = random_table_system(rng, n_locations=6, n_faulty=6)
    env = uniform_environment(Fraction(2, 7), system.faulty_names)
    for state in system.all_states():
        entries = compose_step(system, state, "E0", env)
        assert sum(p for _, p, _, _ in entries) == 1


def test_augmented_step_one_bit_example():
    system = TableSystem(*bits("b|"), {0: (output("low", 0), 1)})
    assert set(augmented_step(system, 0)) == {
        (frozenset(), output("low", 0), 1),
        (frozenset({"b"}), TAU, 1),
    }


def test_augmented_step_stuck_keeps_state():
    system = TableSystem(*bits("a,b|"), {})
    entries = augmented_step(system, 2)
    assert len(entries) == 4
    assert all(act == TAU and succ == 2 for _, act, succ in entries)


def test_augmented_step_counts_and_injectivity():
    rng = Random(3)
    for _ in range(10):
        system = random_table_system(rng, n_locations=4, n_faulty=3)
        for state in system.all_states():
            entries = augmented_step(system, state)
            assert len(entries) == 8
            assert len({subset for subset, _, _ in entries}) == 8


def test_augmented_step_respects_scope():
    system = TableSystem(*bits("a,b,c|"), {0: (TAU, 1)})
    entries = augmented_step(system, 0, scope={"a"})
    assert len(entries) == 2
    assert {subset for subset, _, _ in entries} == {frozenset(), frozenset({"a"})}


def test_termination_transparent_step():
    # the fault-free step (mask 0): a stuck state idles silently
    system = TableSystem(*bits("a|"), {0: (output("low", 1), 1)})
    assert faulted_step(system, 0, 0) == (output("low", 1), 1)
    state = 1
    for _ in range(5):
        action, state = faulted_step(system, state, 0)
        assert action == TAU and state == 1


def test_trace_probability_empty_trace():
    system = TableSystem(*bits("a,b,c|"), {})
    env = uniform_environment(Fraction(1, 2), system.faulty_names)
    assert Composition(system, env).trace_probability(0, "E0", ()) == 1


def test_trace_probability_leaky_demo():
    # One fault-tolerant bit holding the secret, emitted on the low channel.
    transitions = {0: (output("low", 0), 0), 1: (output("low", 1), 1)}
    system = TableSystem(*bits("|s"), transitions)
    env = uniform_environment(Fraction(1, 4), frozenset())
    comp = Composition(system, env)
    assert comp.trace_probability(1, "E0", (output("low", 1),)) == 1
    assert comp.trace_probability(0, "E0", (output("low", 1),)) == 0


def test_trace_distribution_sums_to_one_small_depths():
    rng = Random(23)
    for _ in range(6):
        system = random_table_system(rng, n_locations=4, n_faulty=3)
        env = uniform_environment(Fraction(1, 4), system.faulty_names)
        comp = Composition(system, env)
        for state in list(system.all_states())[:4]:
            for depth in range(5):
                dist = comp.trace_distribution(state, "E0", depth)
                assert sum(dist.values(), Fraction(0)) == 1


def test_trace_distribution_matches_run_enumeration():
    rng = Random(41)
    system = random_table_system(rng, n_locations=3, n_faulty=2)
    env = uniform_environment(Fraction(1, 3), system.faulty_names)
    for state in system.all_states():
        by_runs: dict = {}
        for run in enumerate_runs(system, env, state, "E0", 3):
            by_runs[run.trace] = by_runs.get(run.trace, Fraction(0)) + run.probability
        dist = Composition(system, env).trace_distribution(state, "E0", 3)
        by_runs = {t: p for t, p in by_runs.items() if p != 0}
        dist = {t: p for t, p in dist.items() if p != 0}
        assert by_runs == dist


def test_environment_table_round_trip():
    env = uniform_environment(Fraction(1, 4), {"a", "b"})
    text = environment_to_text(env)
    back = environment_from_text(text)
    assert back.initial == env.initial
    assert back.faults == env.faults
    assert environment_to_text(back) == text


def test_environment_table_parse_error_carries_line():
    with pytest.raises(ValueError, match="line 2"):
        environment_from_text("start E0\nfault E0 a notafraction\n")


def test_environment_requires_total_mass():
    env = EnvironmentSpec(
        states=("E0",),
        initial="E0",
        transitions={("E0", "*"): "E0"},
        faults={"E0": {frozenset(): Fraction(1, 2)}},
    )
    with pytest.raises(ValueError, match="sums"):
        env.validate(frozenset())


def test_scripted_environment_advances_on_low_then_steps():
    strike = scripted_environment(
        [
            ({frozenset(): Fraction(1)}, "low"),
            ({frozenset({"a"}): Fraction(1)}, "step"),
        ]
    )
    state = strike.initial
    state = strike.advance(state, TAU)
    assert strike.fault_distribution(state) == {frozenset(): Fraction(1)}
    state = strike.advance(state, output("low", 1))
    assert strike.fault_distribution(state) == {frozenset({"a"}): Fraction(1)}
    state = strike.advance(state, TAU)
    assert strike.fault_distribution(state) == {frozenset(): Fraction(1)}
    assert strike.advance(state, output("low", 0)) == state


def test_table_system_is_deterministic_by_construction():
    rng = Random(9)
    system = random_table_system(rng, n_locations=4, n_faulty=2)
    for state in system.all_states():
        results = {system.step(state) for _ in range(3)}
        assert len(results) == 1


def test_trace_probability_matches_run_enumeration_for_every_short_trace():
    # an attacker that reads the observation: explicit tau and low!0
    # transitions, a wildcard for the rest, mixed odds and a zero-odds set
    rng = Random(57)
    alphabet = (TAU, output("low", 0), output("low", 1))
    for _ in range(4):
        system = random_table_system(rng, n_locations=3, n_faulty=2)
        a, b = sorted(system.faulty_names)
        env = EnvironmentSpec(
            states=("E0", "E1"),
            initial="E0",
            transitions={
                ("E0", TAU): "E0",
                ("E0", output("low", 0)): "E1",
                ("E0", "*"): "E1",
                ("E1", "*"): "E0",
            },
            faults={
                "E0": {
                    frozenset(): Fraction(2, 3),
                    frozenset({a}): Fraction(1, 3),
                    frozenset({b}): Fraction(0),
                },
                "E1": {frozenset({b}): Fraction(1, 4), frozenset({a, b}): Fraction(3, 4)},
            },
        )
        comp = Composition(system, env)
        for state in system.all_states():
            for length in range(4):
                by_runs: dict = {}
                for run in enumerate_runs(system, env, state, "E0", length):
                    by_runs[run.trace] = by_runs.get(run.trace, Fraction(0)) + run.probability
                for trace in itertools.product(alphabet, repeat=length):
                    assert comp.trace_probability(state, "E0", trace) == by_runs.get(
                        trace, Fraction(0)
                    )
            assert comp.trace_probability(state, "E0", (output("high", 0),)) == 0
            assert comp.trace_probability(state, "E0", (TAU, output("low", 7))) == 0
            fresh = Composition(system, env)
            assert fresh.trace_probability(state, "E1", (output("low", 7),)) == 0


# two attacker states that read tau and low!0 and catch the rest
OBSERVING_TRANSITIONS = {
    ("E0", TAU): "E0",
    ("E0", output("low", 0)): "E1",
    ("E0", "*"): "E0",
    ("E1", TAU): "E1",
    ("E1", "*"): "E0",
}


def random_attacker(rng: Random, faulty: frozenset[str]) -> EnvironmentSpec:
    """Two attacker states that read tau and low!0 and catch the rest, each
    with random integer odds over a random choice of fault sets, some of
    them zero."""
    names = sorted(faulty)
    subsets = [
        frozenset(combo) for r in range(len(names) + 1) for combo in itertools.combinations(names, r)
    ]
    faults = {}
    for state in ("E0", "E1"):
        chosen = rng.sample(subsets, rng.randint(1, len(subsets)))
        odds = [rng.randrange(4) for _ in chosen]
        odds[rng.randrange(len(odds))] += 1  # some mass, so the odds normalise
        faults[state] = {sub: Fraction(w, sum(odds)) for sub, w in zip(chosen, odds)}
    return EnvironmentSpec(("E0", "E1"), "E0", OBSERVING_TRANSITIONS, faults)


def test_composition_step_equals_the_oracle_step_grouped_by_public_action():
    # compose_step sums the attacker's Fractions over full actions; grouped on
    # (public action, successor) in the order first met, it must be the
    # kernel's integer step, weight for weight and entry for entry
    rng = Random(61)
    for _ in range(40):
        system = random_table_system(rng, n_locations=4, n_faulty=rng.randint(1, 3))
        env = random_attacker(rng, system.faulty_names)
        env.validate(system.faulty_names)
        comp = Composition(system, env)
        for state in system.all_states():
            for env_state in env.states:
                grouped: dict = {}
                for action, prob, succ, e2 in compose_step(system, state, env_state, env):
                    key = (low(action), succ, e2)
                    grouped[key] = grouped.get(key, Fraction(0)) + prob
                assert [(*key[:2], prob, key[2]) for key, prob in grouped.items()] == [
                    (system.observations[code], succ, Fraction(weight, comp.denominator), e2)
                    for code, weight, succ, e2 in comp.step(state, env_state)
                ]


def test_trace_counts_with_a_prefix_follow_only_the_matching_steps():
    rng = Random(58)
    system = random_table_system(rng, n_locations=3, n_faulty=2)
    env = uniform_environment(Fraction(1, 4), system.faulty_names)
    for state in system.all_states():
        comp = Composition(system, env)
        every = comp.trace_counts(state, "E0", 3)
        for trace in every:
            actions = tuple(system.observations[code] for code in trace)
            for cut in range(4):
                assert comp.trace_counts(state, "E0", 3, actions[:cut]) == {
                    t: count
                    for t, count in every.items()
                    if tuple(system.observations[code] for code in t[:cut]) == actions[:cut]
                }
        fresh = Composition(system, env)
        assert fresh.trace_probability(state, "E0", (output("high", 5),) * 3) == 0
        assert fresh.steps_taken == 4  # the start state's 4 fault sets, and no more


# -- product-form attackers ---------------------------------------------------------


def expanded(env: EnvironmentSpec) -> EnvironmentSpec:
    """The same attacker with each state's product expanded into its joint
    table, and no flips."""
    faults = {state: env.fault_distribution(state) for state in env.states}
    return EnvironmentSpec(env.states, env.initial, env.transitions, faults)


FLIP_ODDS = (Fraction(0), Fraction(1), Fraction(1, 4), Fraction(1, 2), Fraction(2, 3))


def random_product_attacker(rng: Random, faulty) -> EnvironmentSpec:
    """Two attacker states that read tau and low!0 and catch the rest; each
    flips a random part of the faulty bits, some with odds 0 or 1, and has
    a random joint table over some subsets of the others, some of odds 0."""
    names = sorted(faulty)
    faults, flips = {}, {}
    for state in ("E0", "E1"):
        flipped = [name for name in names if rng.randrange(2)]
        rest = [name for name in names if name not in flipped]
        subsets = [
            frozenset(combo)
            for r in range(len(rest) + 1)
            for combo in itertools.combinations(rest, r)
        ]
        chosen = rng.sample(subsets, rng.randint(1, min(len(subsets), 4)))
        odds = [rng.randrange(4) for _ in chosen]
        odds[rng.randrange(len(odds))] += 1  # some mass, so the odds normalise
        faults[state] = {sub: Fraction(w, sum(odds)) for sub, w in zip(chosen, odds)}
        flips[state] = {name: rng.choice(FLIP_ODDS) for name in flipped}
    return EnvironmentSpec(("E0", "E1"), "E0", OBSERVING_TRANSITIONS, faults, flips)


def test_uniform_attacker_is_the_empty_set_times_one_flip_per_bit():
    env = uniform_environment(Fraction(1, 4), {"c", "a", "b"})
    assert env.faults == {"E0": {frozenset(): Fraction(1)}}
    assert env.flips == {"E0": {"a": Fraction(1, 4), "b": Fraction(1, 4), "c": Fraction(1, 4)}}
    assert environment_to_text(env) == (
        "start E0\ntrans E0 * E0\nfault E0 - 1\n"
        "flip E0 a 1/4\nflip E0 b 1/4\nflip E0 c 1/4\n"
    )
    assert uniform_environment(Fraction(1, 4), ()).flips == {}


def test_fault_distribution_expands_the_product():
    env = EnvironmentSpec(
        ("E0",),
        "E0",
        {("E0", "*"): "E0"},
        {"E0": {frozenset(): Fraction(1, 3), frozenset({"a"}): Fraction(2, 3)}},
        {"E0": {"b": Fraction(1, 4)}},
    )
    assert env.fault_distribution("E0") == {
        frozenset(): Fraction(1, 4),
        frozenset({"a"}): Fraction(1, 2),
        frozenset({"b"}): Fraction(1, 12),
        frozenset({"a", "b"}): Fraction(1, 6),
    }
    env.validate(frozenset({"a", "b"}))


def test_uniform_cut_tables_equal_those_of_the_expanded_table_in_order():
    """A uniform attacker's cut tables list the cuts in the order its
    expanded table, sorted and cut, gives them, with the same weights over
    the same denominator, so the composition expands states in one order
    and a budget trips at one count."""
    rng = Random(71)
    for _ in range(60):
        n = rng.randint(1, 5)
        system = random_table_system(rng, n_locations=n, n_faulty=rng.randint(0, n))
        env = uniform_environment(rng.choice(FLIP_ODDS), system.faulty_names)
        product, joint = Composition(system, env), Composition(system, expanded(env))
        assert product.denominator == joint.denominator
        for cut in range(system.faulty_mask + 1):
            cut &= system.faulty_mask
            assert product._cut_table("E0", cut) == joint._cut_table("E0", cut)


def test_product_cut_tables_hold_the_expanded_odds():
    rng = Random(72)
    for _ in range(60):
        n = rng.randint(1, 5)
        system = random_table_system(rng, n_locations=n, n_faulty=rng.randint(0, n))
        env = random_product_attacker(rng, system.faulty_names)
        env.validate(system.faulty_names)
        product, joint = Composition(system, env), Composition(system, expanded(env))
        for state in env.states:
            for cut in range(system.faulty_mask + 1):
                cut &= system.faulty_mask
                masks, weights = product._cut_table(state, cut)
                assert len(set(masks)) == len(masks)
                assert {
                    mask: Fraction(weight, product.denominator)
                    for mask, weight in zip(masks, weights)
                } == {
                    mask: Fraction(weight, joint.denominator)
                    for mask, weight in zip(*joint._cut_table(state, cut))
                }


def test_composition_step_equals_the_oracle_step_on_product_attackers():
    rng = Random(73)
    for _ in range(40):
        system = random_table_system(rng, n_locations=4, n_faulty=rng.randint(1, 4))
        env = random_product_attacker(rng, system.faulty_names)
        comp = Composition(system, env)
        for state in system.all_states():
            for env_state in env.states:
                oracle: dict = {}
                for action, prob, succ, e2 in compose_step(system, state, env_state, env):
                    key = (low(action), succ, e2)
                    oracle[key] = oracle.get(key, Fraction(0)) + prob
                assert oracle == {
                    (system.observations[code], succ, e2): Fraction(weight, comp.denominator)
                    for code, weight, succ, e2 in comp.step(state, env_state)
                }


def test_trace_distributions_of_product_attackers_match_run_enumeration():
    rng = Random(74)
    for _ in range(6):
        system = random_table_system(rng, n_locations=3, n_faulty=3)
        env = random_product_attacker(rng, system.faulty_names)
        comp = Composition(system, env)
        for state in system.all_states():
            by_runs: dict = {}
            for run in enumerate_runs(system, env, state, "E0", 3):
                by_runs[run.trace] = by_runs.get(run.trace, Fraction(0)) + run.probability
            by_runs = {t: p for t, p in by_runs.items() if p != 0}
            dist = {t: p for t, p in comp.trace_distribution(state, "E0", 3).items() if p != 0}
            assert by_runs == dist


def test_a_cut_table_is_charged_before_it_is_built():
    # 12 flips inside the cut make 4,096 cuts; a charge that refuses them
    # stops the step before the table exists
    names = [f"b{i}" for i in range(12)]
    system = TableSystem(names, names, {0: (TAU, 0)})
    seen = []

    def charge(taken):
        seen.append((taken, len(comp._cut_tables)))
        raise RuntimeError("over")

    comp = Composition(system, uniform_environment(Fraction(1, 4), names), charge=charge)
    with pytest.raises(RuntimeError, match="over"):
        comp.step(0, "E0")
    assert seen == [(4096, 0)] and comp._cut_tables == {}


def test_product_attacker_table_round_trip():
    rng = Random(75)
    for _ in range(20):
        env = random_product_attacker(rng, {"a", "b", "c", "d"})
        assert environment_from_text(environment_to_text(env)) == env


def test_a_state_with_flips_and_no_fault_line_has_the_empty_set_joint():
    env = environment_from_text("start E0\ntrans E0 * E0\nflip E0 a 1/4\nflip E0 b 1/4\n")
    assert env.faults == {"E0": {frozenset(): Fraction(1)}}
    assert env == uniform_environment(Fraction(1, 4), {"a", "b"})


@pytest.mark.parametrize(
    "lines, message",
    [
        ("flip E0 a 1/4\nflip E0 a 1/4", "line 4: a second flip of a for E0"),
        ("flip E0 a half", "line 3: "),
    ],
)
def test_environment_table_refuses_a_bad_flip_line(lines, message):
    with pytest.raises(ValueError, match=message):
        environment_from_text(f"start E0\ntrans E0 * E0\n{lines}\n")


NOTHING = {frozenset(): Fraction(1)}


@pytest.mark.parametrize(
    "faults, flips, message",
    [
        pytest.param(
            {frozenset({"a"}): Fraction(1)}, {"a": Fraction(1, 4)},
            "E0 flips a, which its fault sets name", id="joint-bit",
        ),
        pytest.param(
            {frozenset({"a"}): Fraction(0), **NOTHING}, {"a": Fraction(1, 4)},
            "E0 flips a, which its fault sets name", id="joint-bit-of-odds-0",
        ),
        pytest.param(
            NOTHING, {"a": Fraction(3, 2)}, r"flip odds 3/2 of a in E0 outside \[0, 1\]",
            id="above-1",
        ),
        pytest.param(
            NOTHING, {"a": Fraction(-1, 4)}, r"flip odds -1/4 of a in E0 outside \[0, 1\]",
            id="negative",
        ),
        pytest.param(
            NOTHING, {"t": Fraction(1, 4)}, r"fault set \['t'\] not within faulty locations",
            id="fault-tolerant",
        ),
    ],
)
def test_validate_refuses_a_bad_flip(faults, flips, message):
    system = TableSystem(*bits("a,b|t"), {})
    env = EnvironmentSpec(("E0",), "E0", {("E0", "*"): "E0"}, {"E0": faults}, {"E0": flips})
    with pytest.raises(ValueError, match=message):
        env.validate(system.faulty_names)
