"""Bit-level fault laboratory.

Models deterministic transition systems over named bit locations, attackers
that flip subsets of the faulty bits with exact rational probabilities, and
the three ways system and attacker interact: probabilistic composition,
nondeterministic fault-labelled transitions, and termination-transparent
fault-free execution.  All probability arithmetic is exact: the composition
works in integer weights over the attacker's common denominator, and
fractions.Fraction appears only at its interface; floating point is never
used.

The fault checkers run on an integer kernel.  A system's public step,
``FaultProneSystem.public_step``, gives each state's successor with an
observation code in place of the action projected by ``low``: a small int
that ``observations`` maps back to the public action, with 0 for the silent
one and the others numbered as they are first met.  The possibilistic rows,
the composition and its trace counts hold only these codes and int states;
``Action`` objects are rebuilt at the interface (``trace_distribution``,
``trace_probability`` and the witnesses).  ``compose_step`` and
``enumerate_runs`` are the oracle the kernel is tested against: full
actions and ``Fraction`` odds, sharing no code with ``Composition``.

A fault is applied only by ``faulted_steps``.  An experiment's fault scope
is one mask: POni walks the masks within it, and ``Composition`` cuts the
attacker's fault sets to it, so the attacker is composed as given.

An attacker state's fault distribution is a product: a joint table over
sets of bits times independent one-bit flips, each with its own odds.  The
uniform attacker is the empty set with odds 1 times one flip per bit, so it
is n factors, not 2^n sets.  ``Composition`` cuts the factors to each
state's live bits in scope and multiplies only those; the joint
distribution over every set is built only by
``EnvironmentSpec.fault_distribution``, the oracle's view.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Optional


class Action(NamedTuple):
    """An observable event: an output on a channel, or the silent tick.

    A named tuple, so that it is built, hashed and compared in C; it hashes
    as ``(channel, value)``.
    """

    channel: str | None = None
    value: int | None = None

    @property
    def silent(self) -> bool:
        return self.channel is None

    def __str__(self) -> str:
        if self.channel is None:
            return "tau"
        return f"{self.channel}!{self.value}"


TAU = Action()

UNSEEN = object()  # marks a state missing from a step cache, where None means stuck


def output(channel: str, value: int) -> Action:
    return Action(channel, value)


def low(action: Action) -> Action:
    """Public projection: low-channel outputs pass through, everything else is silent."""
    return action if action.channel == "low" else TAU


def parse_action(text: str) -> Action:
    if text == "tau":
        return TAU
    if "!" in text:
        channel, _, value = text.partition("!")
        return Action(channel, int(value))
    raise ValueError(f"unrecognized action {text!r}")


class FaultProneSystem:
    """Deterministic labelled transition system over named bits.

    States are ints; bit i of a state is the value of ``names[i]``.  The
    bits named in ``faulty`` are the ones an attacker may flip
    (``faulty_names``, ``faulty_mask``); the rest are fault-tolerant.
    Subclasses implement ``step``, returning the unique successor or None
    when the state is stuck.  ``public_step`` is its public view, the one
    for every system, cached per state: (observation code, successor), where
    ``observations[code]`` is the public action and code 0 is ``TAU``.  The
    other codes are assigned in the order the actions are first seen.
    """

    names: tuple[str, ...] = ()

    def __init__(self, names: Iterable[str], faulty: Iterable[str]):
        self.names = tuple(names)
        self._index = {name: i for i, name in enumerate(self.names)}
        if len(self._index) != len(self.names):
            raise ValueError("location names must be unique")
        self.faulty_names = frozenset(faulty)
        unknown = self.faulty_names - self._index.keys()
        if unknown:
            raise ValueError(f"faulty names outside the system: {sorted(unknown)}")
        self.faulty_mask = self.mask_of(self.faulty_names)
        self._start_public_view()

    def _start_public_view(self) -> None:
        """Give this system its own public view: ``observations`` holding
        only ``TAU`` and an empty ``public_step`` cache.  A subclass that
        takes its bit-name table from elsewhere calls it in place of
        ``__init__``."""
        self.observations: list[Action] = [TAU]
        self._codes = {TAU: 0}
        self._public: dict[int, tuple[int, int] | None] = {}

    def step(self, state: int) -> tuple[Action, int] | None:
        raise NotImplementedError

    def canonical(self, state: int) -> int:
        """The representative of the states whose public futures, faults
        included, equal this one's; ``faulted_steps`` returns these to the
        checkers.  Here every state stands for itself."""
        return state

    def relevant(self, state: int) -> int:
        """The faulty bits whose flips can change the state's public faulted
        step: masks that agree on them take the same one (see
        ``faulted_steps``).  Here every faulty bit."""
        return self.faulty_mask

    def public_step(self, state: int) -> tuple[int, int] | None:
        found = self._public.get(state, UNSEEN)
        if found is UNSEEN:
            found = self.step(state)
            if found is not None:
                obs = low(found[0])
                code = self._codes.get(obs)
                if code is None:
                    code = self._codes[obs] = len(self.observations)
                    self.observations.append(obs)
                found = (code, found[1])
            self._public[state] = found
        return found

    def mask_of(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self._index[name]
        return mask

    def names_of(self, mask: int) -> frozenset[str]:
        return frozenset(name for i, name in enumerate(self.names) if mask >> i & 1)

    def state_of(self, bits: dict[str, int]) -> int:
        if set(bits) != set(self._index):
            raise ValueError("state must assign every location")
        return sum((bits[name] & 1) << i for i, name in enumerate(self.names))

    def bits_of(self, state: int) -> dict[str, int]:
        return {name: state >> i & 1 for i, name in enumerate(self.names)}

    def all_states(self) -> range:
        return range(1 << len(self.names))


class TableSystem(FaultProneSystem):
    """Fault-prone system given extensionally by a transition table."""

    def __init__(
        self,
        names: Iterable[str],
        faulty: Iterable[str],
        transitions: dict[int, tuple[Action, int]],
    ):
        super().__init__(names, faulty)
        limit = 1 << len(self.names)
        for src, (_, dst) in transitions.items():
            if not (0 <= src < limit and 0 <= dst < limit):
                raise ValueError("transition outside the state space")
        self.transitions = dict(transitions)

    def step(self, state: int) -> tuple[Action, int] | None:
        return self.transitions.get(state)


# ---------------------------------------------------------------------------
# Fault environments (attackers)
# ---------------------------------------------------------------------------

WILDCARD = "*"

FaultDist = dict[frozenset, Fraction]


@dataclass(frozen=True)
class EnvironmentSpec:
    """An attacker: a deterministic observer automaton plus per-state fault odds.

    ``transitions`` maps (state, observation) to the next state; an entry with
    the observation ``WILDCARD`` catches every observation not listed
    explicitly, which keeps the table finite for wide machine words.
    A state's fault distribution is the product of two factors:
    ``faults[state]``, the joint table, an exact probability distribution
    over sets of location names (absent sets have probability zero), and
    ``flips[state]``, which maps a location name to the odds that the state
    flips it, independently of the joint table and of every other flip.
    The joint table names no bit the state flips.  ``flips`` defaults to
    none, so an attacker given by joint tables alone is built as before; a
    state that flips nothing is dropped from it, so equal attackers compare
    equal.
    """

    states: tuple[str, ...]
    initial: str
    transitions: dict[tuple[str, object], str]
    faults: dict[str, FaultDist]
    flips: dict[str, dict[str, Fraction]] = field(default_factory=dict)

    def __post_init__(self):
        flips = {state: odds for state, odds in self.flips.items() if odds}
        object.__setattr__(self, "flips", flips)

    def advance(self, state: str, observation: Action) -> str:
        key = (state, observation)
        if key in self.transitions:
            return self.transitions[key]
        wild = (state, WILDCARD)
        if wild in self.transitions:
            return self.transitions[wild]
        raise ValueError(f"environment has no transition from {state} on {observation}")

    def fault_distribution(self, state: str) -> FaultDist:
        """The state's joint distribution over every fault set: the joint
        table times each flip, expanded here and nowhere else."""
        dist = self.faults[state]
        for name, odds in sorted(self.flips.get(state, {}).items()):
            with_flip = {subset | {name}: prob * odds for subset, prob in dist.items()}
            dist = {subset: prob * (1 - odds) for subset, prob in dist.items()}
            dist.update(with_flip)
        return dist

    def validate(self, faulty: frozenset[str]) -> None:
        """Check the joint tables and the flips of every state: their bits
        are faulty, the joint odds are nonnegative and sum to 1, each flip's
        odds lie in [0, 1], and no flip names a bit of its joint table."""
        if self.initial not in self.states:
            raise ValueError("initial state missing from state set")
        for state in self.states:
            dist = self.faults.get(state)
            if dist is None:
                raise ValueError(f"state {state} has no fault distribution")
            for subset, prob in dist.items():
                if not faulty.issuperset(subset):
                    raise ValueError(f"fault set {sorted(subset)} not within faulty locations")
                if prob.numerator < 0:
                    raise ValueError("negative probability")
            # summed as integers over the lcm of the denominators
            den = math.lcm(*(prob.denominator for prob in dist.values()))
            total = sum(prob.numerator * (den // prob.denominator) for prob in dist.values())
            if total != den:
                raise ValueError(
                    f"fault distribution of {state} sums to {Fraction(total, den)}, not 1"
                )
            joint = frozenset().union(*dist)
            for name, odds in self.flips.get(state, {}).items():
                if name not in faulty:
                    raise ValueError(f"fault set {[name]} not within faulty locations")
                if not 0 <= odds <= 1:
                    raise ValueError(f"flip odds {odds} of {name} in {state} outside [0, 1]")
                if name in joint:
                    raise ValueError(f"{state} flips {name}, which its fault sets name")


def _subsets(names: tuple[str, ...]) -> Iterator[frozenset[str]]:
    for r in range(len(names) + 1):
        for combo in itertools.combinations(names, r):
            yield frozenset(combo)


def uniform_environment(epsilon: Fraction, faulty: Iterable[str]) -> EnvironmentSpec:
    """Single-state attacker flipping each faulty bit independently with odds
    epsilon: the joint table {empty set: 1} and one flip per bit, so its size
    is linear in the number of bits."""
    eps = Fraction(epsilon)
    if not 0 <= eps <= 1:
        raise ValueError("epsilon must lie in [0, 1]")
    state = "E0"
    return EnvironmentSpec(
        states=(state,),
        initial=state,
        transitions={(state, WILDCARD): state},
        faults={state: {frozenset(): Fraction(1)}},
        flips={state: dict.fromkeys(sorted(set(faulty)), eps)},
    )


def scripted_environment(stages: Iterable[tuple[FaultDist, str]]) -> EnvironmentSpec:
    """Attacker that walks an ordered script of fault tables.

    Each stage is (distribution, advance) with advance either ``"low"``
    (move on when a low output is observed, stay on silent steps) or
    ``"step"`` (move on after one step regardless of the observation).
    After the last stage the attacker stays put and stops flipping.
    """
    stage_list = list(stages)
    states = tuple(f"S{i}" for i in range(len(stage_list) + 1))
    final = states[-1]
    transitions: dict[tuple[str, object], str] = {(final, WILDCARD): final}
    faults: dict[str, FaultDist] = {final: {frozenset(): Fraction(1)}}
    for i, (dist, advance) in enumerate(stage_list):
        here, there = states[i], states[i + 1]
        faults[here] = dict(dist)
        if advance not in ("step", "low"):
            raise ValueError(f"unknown advance mode {advance!r}")
        transitions[(here, WILDCARD)] = there
        if advance == "low":
            transitions[(here, TAU)] = here
    return EnvironmentSpec(states, states[0], transitions, faults)


def _render_fault_set(subset: frozenset[str]) -> str:
    return ",".join(sorted(subset)) if subset else "-"


def _parse_fault_set(text: str) -> frozenset[str]:
    if text == "-":
        return frozenset()
    return frozenset(text.split(","))


def environment_to_text(env: EnvironmentSpec) -> str:
    """Serialize an environment as the line-oriented table format."""
    lines = [f"start {env.initial}"]
    for (state, obs), dest in sorted(
        env.transitions.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
    ):
        obs_text = WILDCARD if obs == WILDCARD else str(obs)
        lines.append(f"trans {state} {obs_text} {dest}")
    for state in env.states:
        for subset, prob in sorted(env.faults[state].items(), key=lambda kv: sorted(kv[0])):
            lines.append(f"fault {state} {_render_fault_set(subset)} {prob}")
        for name, odds in sorted(env.flips.get(state, {}).items()):
            lines.append(f"flip {state} {name} {odds}")
    return "\n".join(lines) + "\n"


def environment_from_text(text: str) -> EnvironmentSpec:
    """Parse the table format: ``start S``, ``trans S obs S'``, ``fault S
    set p/q`` (the joint table) and ``flip S loc p/q`` (one independent
    flip).  A state with flips and no ``fault`` line has the joint table
    {empty set: 1}."""
    initial: str | None = None
    transitions: dict[tuple[str, object], str] = {}
    faults: dict[str, FaultDist] = {}
    flips: dict[str, dict[str, Fraction]] = {}
    states: list[str] = []

    def note_state(name: str) -> None:
        if name not in states:
            states.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "start" and len(parts) == 2:
                if initial is not None:
                    raise ValueError(f"a second start state {parts[1]!r}")
                initial = parts[1]
                note_state(parts[1])
            elif parts[0] == "trans" and len(parts) == 4:
                state, obs_text, dest = parts[1:]
                obs = WILDCARD if obs_text == WILDCARD else parse_action(obs_text)
                if (state, obs) in transitions:
                    raise ValueError(f"a second transition of {state} on {obs_text}")
                transitions[(state, obs)] = dest
                note_state(state)
                note_state(dest)
            elif parts[0] == "fault" and len(parts) == 4:
                state, set_text, prob_text = parts[1:]
                note_state(state)
                dist = faults.setdefault(state, {})
                subset = _parse_fault_set(set_text)
                if subset in dist:
                    raise ValueError(f"a second fault set {set_text} for {state}")
                dist[subset] = Fraction(prob_text)
            elif parts[0] == "flip" and len(parts) == 4:
                state, name, odds_text = parts[1:]
                note_state(state)
                odds = flips.setdefault(state, {})
                if name in odds:
                    raise ValueError(f"a second flip of {name} for {state}")
                odds[name] = Fraction(odds_text)
            else:
                raise ValueError(f"unrecognized directive {parts[0]!r}")
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"environment table line {lineno}: {exc}") from exc
    if initial is None:
        raise ValueError("environment table declares no start state")
    for state in flips:
        faults.setdefault(state, {frozenset(): Fraction(1)})
    return EnvironmentSpec(tuple(states), initial, transitions, faults, flips)


# ---------------------------------------------------------------------------
# System/environment composition and fault-labelled transitions
# ---------------------------------------------------------------------------


def faulted_steps(
    system: FaultProneSystem, state: int, masks: Iterable[int], public: bool = False
) -> list[tuple]:
    """One step under each fault mask: the single definition of a faulted step.

    A stuck state idles silently and takes no flip.  Otherwise the masked
    bits are flipped and the flipped state steps; if the flip made it stuck,
    it idles silently and keeps the flipped bits.  Entries are (action,
    successor), or with ``public`` (observation code, canonical successor)
    from ``system.public_step`` and ``system.canonical``: the checkers' view,
    in which states with equal public futures are one state, and masks
    with equal ``mask & system.relevant(state)`` take one step.
    """
    step, idle = (system.public_step, 0) if public else (system.step, TAU)
    if step(state) is None:
        row = [(idle, state) for _ in masks]
    else:
        row = []
        for mask in masks:
            flipped = state ^ mask
            result = step(flipped)
            row.append((idle, flipped) if result is None else result)
    if public:
        canonical = system.canonical
        return [(code, canonical(succ)) for code, succ in row]
    return row


def faulted_step(system: FaultProneSystem, state: int, mask: int) -> tuple[Action, int]:
    """One step under one fault mask (see ``faulted_steps``)."""
    return faulted_steps(system, state, (mask,))[0]


def compose_step(
    system: FaultProneSystem,
    state: int,
    env_state: str,
    env: EnvironmentSpec,
) -> list[tuple[Action, Fraction, int, str]]:
    """One probabilistic step of the system running inside the environment.

    Entries are aggregated on identical (action, successor); the attacker
    advances by the public view of the action.  Each fault set takes a
    faulted step, which never halts, so total probability mass is exactly 1.
    The attacker's own odds are summed as ``Fraction`` over its fault sets
    in sorted order: an oracle that shares no code with ``Composition``.
    """
    dist = env.fault_distribution(env_state)
    subsets = sorted((s for s, prob in dist.items() if prob != 0), key=sorted)
    steps = faulted_steps(system, state, [system.mask_of(s) for s in subsets])
    acc: dict[tuple[Action, int], Fraction] = {}
    for subset, outcome in zip(subsets, steps):
        acc[outcome] = acc.get(outcome, Fraction(0)) + dist[subset]
    return [
        (action, prob, succ, env.advance(env_state, low(action)))
        for (action, succ), prob in acc.items()
    ]


def augmented_step(
    system: FaultProneSystem,
    state: int,
    scope: Optional[Iterable[str]] = None,
) -> list[tuple[frozenset[str], Action, int]]:
    """All fault-labelled transitions: one entry per subset of the fault scope."""
    names = tuple(sorted(system.faulty_names if scope is None else set(scope)))
    return [
        (subset, *faulted_step(system, state, system.mask_of(subset)))
        for subset in _subsets(names)
    ]


# ---------------------------------------------------------------------------
# Runs and trace probabilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Run:
    """A finite run of the composed system, with its exact probability."""

    origin: tuple[int, str]
    steps: tuple[tuple[Action, Fraction, int, str], ...] = ()

    @property
    def probability(self) -> Fraction:
        prob = Fraction(1)
        for _, p, _, _ in self.steps:
            prob *= p
        return prob

    @property
    def trace(self) -> tuple[Action, ...]:
        return tuple(low(action) for action, _, _, _ in self.steps)


def enumerate_runs(
    system: FaultProneSystem,
    env: EnvironmentSpec,
    state: int,
    env_state: str,
    length: int,
) -> Iterator[Run]:
    """Exhaustively yield every run of the given length (oracle-grade, slow)."""

    def go(s: int, e: str, n: int) -> Iterator[tuple[tuple[Action, Fraction, int, str], ...]]:
        if n == 0:
            yield ()
            return
        for entry in compose_step(system, s, e, env):
            _, _, s2, e2 = entry
            for rest in go(s2, e2, n - 1):
                yield (entry,) + rest

    for steps in go(state, env_state, length):
        yield Run((state, env_state), steps)


@dataclass(frozen=True)
class AugmentedRun:
    """A run of the fault-labelled system: each step names the flipped set."""

    origin: int
    steps: tuple[tuple[frozenset, Action], ...] = ()

    @property
    def trace(self) -> tuple[tuple[frozenset, Action], ...]:
        return tuple((subset, low(action)) for subset, action in self.steps)


def enumerate_augmented_runs(
    system: FaultProneSystem,
    state: int,
    length: int,
    scope: Optional[Iterable[str]] = None,
) -> Iterator[AugmentedRun]:
    """Every fault-labelled run of the given length (oracle-grade, slow)."""

    def go(s: int, n: int) -> Iterator[tuple[tuple[frozenset, Action, int], ...]]:
        if n == 0:
            yield ()
            return
        for subset, action, succ in augmented_step(system, s, scope):
            for rest in go(succ, n - 1):
                yield ((subset, action, succ),) + rest

    for steps in go(state, length):
        yield AugmentedRun(state, tuple((sub, act) for sub, act, _ in steps))


class Composition:
    """Memoizing view of a system composed with one environment.

    Probabilities are kept as integer weights over one common denominator,
    ``denominator``: the lcm over the attacker's states of the lcm of the
    joint table's denominators times the product of the flips'
    denominators.  A step's weights sum to ``denominator``, and a trace of
    length n has a count over ``denominator ** n``.  Steps and traces carry
    the system's observation codes; Fractions and ``Action`` objects are
    built only at the interface: ``trace_distribution`` and
    ``trace_probability``.

    Each state's fault sets are cut to ``system.relevant(state) & scope``,
    where ``scope`` is a mask of faulty bits, by default all of them: a flip
    outside the scope never happens.  ``charge``, when given, is called with
    the running number of faulted steps taken (per composed state expanded,
    the distinct cuts of its nonzero fault sets) before each new expansion,
    and before a new cut table is built, and may raise to stop the run.
    """

    def __init__(
        self,
        system: FaultProneSystem,
        env: EnvironmentSpec,
        scope: Optional[int] = None,
        charge: Optional[Callable[[int], None]] = None,
    ):
        self.system = system
        self.env = env
        self.scope = system.faulty_mask if scope is None else scope
        mask_of = system.mask_of
        # per attacker state: the joint table's nonzero rows in sorted order,
        # as (mask, weight over the table's lcm), that lcm, and the flips in
        # name order as (mask, odds)
        self._factors: dict[str, tuple[list, int, list]] = {}
        for state, dist in env.faults.items():
            den = math.lcm(*(prob.denominator for prob in dist.values()))
            rows = [
                (mask_of(subset), prob.numerator * (den // prob.denominator))
                for subset, prob in sorted(dist.items(), key=lambda item: sorted(item[0]))
                if prob != 0
            ]
            odds = sorted(env.flips.get(state, {}).items())
            flips = [(mask_of((name,)), p) for name, p in odds]
            self._factors[state] = (rows, den, flips)
        self.denominator = math.lcm(
            *(
                den * math.prod(odds.denominator for _, odds in flips)
                for _, den, flips in self._factors.values()
            )
        )
        self.charge = charge
        self.steps_taken = 0
        self._cut_tables: dict[tuple[str, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self._steps: dict[tuple[int, str], list[tuple[int, int, int, str]]] = {}
        self._counts: dict[tuple, dict[tuple[int, ...], int]] = {}

    def _cut_table(self, env_state: str, cut: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The attacker state's nonzero fault sets cut to ``cut``, as masks,
        and their weights over ``denominator``.  The joint table's rows are
        cut and the weights of equal cuts summed, each cut in the place of
        its first row in sorted order; each is then joined with every choice
        of the flips inside ``cut`` with nonzero odds, in the sorted order of
        their names.  A flip outside ``cut`` drops out, as its two weights
        sum to its denominator.  So a uniform attacker's cuts come in the
        order that its expanded table, sorted and cut, would give.  A new
        table is charged as the step that needs it before it is built."""
        key = (env_state, cut)
        table = self._cut_tables.get(key)
        if table is None:
            rows, den, flips = self._factors[env_state]
            joint: dict[int, int] = {}
            for mask, weight in rows:
                joint[mask & cut] = joint.get(mask & cut, 0) + weight
            inside = [(mask, odds) for mask, odds in flips if mask & cut]
            if self.charge is not None:
                split = sum(0 < odds < 1 for _, odds in inside)
                self.charge(self.steps_taken + (len(joint) << split))
            # the flips' choices, from the last name back, each list in the
            # sorted order of the chosen names: the empty choice first, then
            # every choice with the first name, then the rest
            choices = [(0, 1)]
            for mask, odds in reversed(inside):
                hit, miss = odds.numerator, odds.denominator - odds.numerator
                with_flip = [(mask | m, hit * w) for m, w in choices] if hit else []
                without = [(m, miss * w) for m, w in choices] if miss else []
                if without and without[0][0] == 0:
                    choices = without[:1] + with_flip + without[1:]
                else:
                    choices = with_flip + without
            scale = self.denominator // (den * math.prod(odds.denominator for _, odds in inside))
            table = self._cut_tables[key] = (
                tuple(j | m for j in joint for m, _ in choices),
                tuple(scale * jw * w for jw in joint.values() for _, w in choices),
            )
        return table

    def step(self, state: int, env_state: str) -> list[tuple[int, int, int, str]]:
        """(observation code, weight over ``denominator``, successor, attacker
        state) entries, aggregated on identical (code, successor): the public
        faulted steps (see ``faulted_steps``), one per mask cut to
        ``system.relevant(state) & scope``."""
        key = (state, env_state)
        entries = self._steps.get(key)
        if entries is None:
            system = self.system
            masks, weights = self._cut_table(env_state, system.relevant(state) & self.scope)
            self.steps_taken += len(masks)
            if self.charge is not None:
                self.charge(self.steps_taken)
            acc: dict[tuple[int, int], int] = {}
            for outcome, weight in zip(faulted_steps(system, state, masks, True), weights):
                acc[outcome] = acc.get(outcome, 0) + weight
            observations, advance = system.observations, self.env.advance
            entries = self._steps[key] = [
                (code, weight, succ, advance(env_state, observations[code]))
                for (code, succ), weight in acc.items()
            ]
        return entries

    def trace_counts(
        self, state: int, env_state: str, depth: int, prefix: tuple[Action, ...] = ()
    ) -> dict[tuple[int, ...], int]:
        """Weight of every public trace of exactly the given length, over
        ``denominator ** depth``; a trace is a tuple of observation codes.

        With ``prefix``, only the traces that begin with those public actions
        are counted, and the recursion follows only the steps that match.
        """
        key = (state, env_state, depth, prefix)
        counts = self._counts.get(key)
        if counts is None:
            if depth == 0:
                counts = {} if prefix else {(): 1}
            else:
                counts = {}
                observations, rest = self.system.observations, prefix[1:]
                for code, weight, s2, e2 in self.step(state, env_state):
                    if prefix and observations[code] != prefix[0]:
                        continue
                    for suffix, count in self.trace_counts(s2, e2, depth - 1, rest).items():
                        trace = (code,) + suffix
                        counts[trace] = counts.get(trace, 0) + weight * count
            self._counts[key] = counts
        return counts

    def trace_distribution(
        self, state: int, env_state: str, depth: int
    ) -> dict[tuple[Action, ...], Fraction]:
        """Probability of every public trace of exactly the given length."""
        scale = self.denominator ** depth
        observations = self.system.observations
        return {
            tuple(observations[code] for code in trace): Fraction(count, scale)
            for trace, count in self.trace_counts(state, env_state, depth).items()
        }

    def trace_probability(
        self, state: int, env_state: str, trace: tuple[Action, ...]
    ) -> Fraction:
        """Summed probability of all runs whose public trace equals ``trace``."""
        counts = self.trace_counts(state, env_state, len(trace), tuple(trace))
        return Fraction(sum(counts.values()), self.denominator ** len(trace))

