"""Exhaustive machine checkers for the three security properties.

All three checkers enumerate concrete state spaces at small word widths:

* ``check_strong_security`` computes the greatest bisimulation over program
  points of the termination-transparent fault-free machine, quantifying over
  every pair of low-equal data states at each step.  A point pair is checked
  only over the low cells its two instructions read or write, with zeros in
  the rest; this is exact, because a cell that neither step reads or writes
  holds one value before and after on both sides, so it cannot tell them
  apart, and the zeros make a witness name the first failing low part of
  the whole low space.
* ``check_poni`` compares the sets of fault-annotated traces of low-equal
  initial states, with the fault locations made observable.
* ``check_pni`` compares exact rational trace probabilities of low-equal
  initial states composed with a concrete attacker.

Verdicts are ``secure-up-to-bound`` or ``violation``; violations carry a
replayable witness.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .faultlab import (
    TAU,
    Composition,
    EnvironmentSpec,
    Location,
    TableSystem,
    Tolerance,
    faulted_step,
    low,
    output,
    parse_action,
    scripted_environment,
    uniform_environment,
)
from .machine import (
    HIGH,
    LOW,
    Instruction,
    MachineConfig,
    MachineState,
    RiscProgram,
    RiscSystem,
    decode,
    effect,
    step as machine_step,
)
from .seccomp import CompileResult

DEFAULT_BUDGET = 2_000_000


class BudgetExceeded(Exception):
    """The state/fault space outgrew the configured ceiling."""


def _charge(size: int, what: str, budget: int) -> None:
    """Refuse, before it starts, an enumeration of ``size`` items."""
    if size > budget:
        raise BudgetExceeded(f"{what} exceeds {budget}")


@dataclass(frozen=True)
class CheckConfig:
    """Knobs shared by the checkers.

    ``fault_scope`` restricts which faulty locations an experiment exposes
    (None exposes all of them); ``depth`` bounds trace length for the
    possibilistic and probabilistic checkers; ``budget`` caps explored state
    counts, defaulting to the FTNI_BUDGET environment variable;
    ``init_value_bound`` caps the per-cell values enumerated for initial
    states (None enumerates the full word range).
    """

    depth: int = 4
    fault_scope: tuple[str, ...] | None = None
    budget: int | None = None
    init_value_bound: int | None = None

    def effective_budget(self) -> int:
        if self.budget is not None:
            return self.budget
        return int(os.environ.get("FTNI_BUDGET", DEFAULT_BUDGET))


@dataclass(frozen=True)
class Verdict:
    checker: str
    status: str  # "secure-up-to-bound" | "violation"
    bound: int | None
    witness: dict | None = None

    @property
    def secure(self) -> bool:
        return self.status == "secure-up-to-bound"

    def to_json(self) -> dict:
        doc: dict = {"checker": self.checker, "status": self.status, "bound": self.bound}
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


# ---------------------------------------------------------------------------
# Initial-state enumeration shared by the checkers
# ---------------------------------------------------------------------------


def _cells_by_level(cfg: MachineConfig):
    lows: list[tuple[str, int]] = []
    highs: list[tuple[str, int]] = []
    for i, (_, level) in enumerate(cfg.registers):
        (lows if level is LOW else highs).append(("reg", i))
    for addr, level in enumerate(cfg.memory_levels):
        (lows if level is LOW else highs).append(("mem", addr))
    return lows, highs


def _values(cfg: MachineConfig, bound: int | None):
    top = cfg.word_values if bound is None else min(bound, cfg.word_values)
    return range(top)


def _build_state(cfg, lows, highs, lo_vec, hi_vec, pc: int = 0) -> MachineState:
    regs = [0] * len(cfg.registers)
    mem = [0] * cfg.memory_size
    for (kind, idx), value in zip(lows, lo_vec):
        (regs if kind == "reg" else mem)[idx] = value
    for (kind, idx), value in zip(highs, hi_vec):
        (regs if kind == "reg" else mem)[idx] = value
    return MachineState(pc, tuple(regs), tuple(mem))


def _scope_names(system: RiscSystem, check: CheckConfig) -> tuple[str, ...]:
    if check.fault_scope is None:
        return tuple(sorted(system.faulty_names))
    names = tuple(check.fault_scope)
    unknown = set(names) - system.faulty_names
    if unknown:
        raise ValueError(f"fault scope outside the faulty locations: {sorted(unknown)}")
    return names


def default_scope(system: RiscSystem, max_bits: int = 4) -> tuple[str, ...]:
    """A small representative scope: one bit per level per storage kind."""
    cfg = system.cfg
    picks: list[str] = []
    for level in (LOW, HIGH):
        regs = cfg.registers_of_level(level)
        if regs:
            picks.append(f"{regs[0]}_0")
    for level in (LOW, HIGH):
        for addr, lev in enumerate(cfg.memory_levels):
            if lev is level:
                picks.append(f"m{addr}_0")
                break
    seen: list[str] = []
    for name in picks:
        if name not in seen:
            seen.append(name)
    for name in sorted(system.faulty_names):
        if len(seen) >= max_bits:
            break
        if name not in seen:
            seen.append(name)
    return tuple(seen[:max_bits])


def _bits_named(system: RiscSystem, state: int, mask: int) -> dict[str, int]:
    return {
        loc.name: state >> i & 1
        for i, loc in enumerate(system.locations)
        if mask >> i & 1
    }


# ---------------------------------------------------------------------------
# Strong security: greatest bisimulation over program points
# ---------------------------------------------------------------------------


class _SSTables:
    """Successor summaries per program point, over the low cells it touches.

    An entry of pc is a (public action, low write, next pc) triple reachable
    as the high part ranges over all values.  The low write is ``(slot,
    value)``, or ``()`` when no low slot changes, so entries with equal action
    and write leave equal low parts.  Entries come from ``machine.effect``
    run over the value sets of the cells the instruction reads (a singleton
    for a low cell, every word for a high one), so the high space is never
    enumerated.  They depend only on the low slots the instruction reads or
    writes (``touched``), are memoised on those slots' values, and are
    sorted, so checks and witnesses meet them in one order on every run.
    A point pair is checked only over the slots either side touches, which
    is exact (see the module docstring).
    """

    def __init__(self, program: RiscProgram, cfg: MachineConfig):
        self.program = program
        self.cfg = cfg
        self.ops = decode(program, cfg)
        self.lows, self.highs = _cells_by_level(cfg)
        nregs = len(cfg.registers)
        slots = self.slot_of_cell = {
            (idx if kind == "reg" else nregs + idx): slot
            for slot, (kind, idx) in enumerate(self.lows)
        }
        self.touched = {
            pc: tuple(sorted({slots[c] for c in (*op.sources, op.dest) if c in slots}))
            for pc, op in enumerate(self.ops)
        }
        self._entries: dict[tuple[int, tuple], tuple] = {}

    def entries(self, pc: int, lo: tuple) -> tuple:
        """The sorted summary entries of pc from the low part ``lo``."""
        key = (pc, tuple(lo[slot] for slot in self.touched.get(pc, ())))
        if key not in self._entries:
            self._entries[key] = self._summarize(pc, lo)
        return self._entries[key]

    def _summarize(self, pc: int, lo: tuple) -> tuple:
        if not 0 <= pc < len(self.ops):
            return ((TAU, (), pc),)
        instr = self.ops[pc]
        slots = self.slot_of_cell
        every = range(self.cfg.word_values)
        value_sets = [
            (lo[slots[c]],) if c in slots else every for c in instr.sources
        ]
        dest = slots.get(instr.dest)
        width = self.cfg.width
        out = set()
        for args in itertools.product(*value_sets):
            action, value, nxt = effect(instr, args, pc, width)
            write = () if dest is None or value in (None, lo[dest]) else (dest, value)
            out.add((low(action), write, nxt))
        return tuple(sorted(out, key=lambda e: (str(e[0]), e[1], e[2])))

    @staticmethod
    def after(lo: tuple, entry: tuple) -> tuple:
        """The entry as (public action, low part after the step, next pc) from ``lo``."""
        action, write, nxt = entry
        if write:
            slot, value = write
            lo = lo[:slot] + (value,) + lo[slot + 1 :]
        return (action, lo, nxt)

    def realize(self, pc: int, lo: tuple, entry: tuple) -> MachineState | None:
        """Find a concrete state whose summarized step matches the entry."""
        for hi_vec in itertools.product(_values(self.cfg, None), repeat=len(self.highs)):
            state = _build_state(self.cfg, self.lows, self.highs, lo, hi_vec, pc)
            if self.observe(state) == entry:
                return state
        return None

    def observe(self, state: MachineState) -> tuple:
        """Project one termination-transparent step to (public action, low part, pc)."""
        action, succ = machine_step(self.program, state, self.cfg) or (TAU, state)
        return (low(action), _cells_of(succ, self.lows), succ.pc)


def check_strong_security(
    program: RiscProgram, cfg: MachineConfig, check: CheckConfig = CheckConfig()
) -> Verdict:
    """Decide strong low-bisimilarity of the program with itself.

    Program points are related optimistically and killed when some pair of
    low-equal data states makes their one-step behavior publicly different,
    or when every continuation leads to a killed pair.  The program is secure
    iff the entry point survives paired with itself.
    """
    tables = _SSTables(program, cfg)
    budget = check.effective_budget()
    points, lo_states = len(program) + 1, cfg.word_values ** len(tables.lows)
    _charge(points * lo_states, f"{points} points x {lo_states} low states", budget)
    every = range(cfg.word_values)
    start = (0, 0)
    status: dict[tuple[int, int], bool] = {}
    reasons: dict[tuple[int, int], tuple] = {}
    # deps[pair][succ]: the first (low part, entry at p, entry at q) leading to succ
    deps: dict[tuple[int, int], dict] = {}
    rdeps: dict[tuple[int, int], list] = {}

    queue = deque([start])
    status[start] = True
    while queue:
        pair = queue.popleft()
        p, q = pair
        touched = {*tables.touched.get(p, ()), *tables.touched.get(q, ())}
        value_sets = [every if s in touched else (0,) for s in range(len(tables.lows))]
        pair_deps: dict = {}
        failure = None
        for lo in itertools.product(*value_sets):
            e1s, e2s = tables.entries(p, lo), tables.entries(q, lo)
            split = next(((a, b) for a in e1s for b in e2s if a[:2] != b[:2]), None)
            if split is not None:
                failure = ("mismatch", lo, *split)
                break
            for e1 in e1s:
                for e2 in e2s:
                    pair_deps.setdefault((e1[2], e2[2]), (lo, e1, e2))
        if failure is not None:
            status[pair] = False
            reasons[pair] = failure
            continue
        deps[pair] = pair_deps
        for succ in pair_deps:
            rdeps.setdefault(succ, []).append(pair)
            if succ not in status:
                status[succ] = True
                queue.append(succ)
                if len(status) > budget:
                    raise BudgetExceeded(f"more than {budget} program-point pairs")

    dead = deque(pair for pair, alive in status.items() if not alive)
    while dead:
        gone = dead.popleft()
        for parent in rdeps.get(gone, ()):
            if status[parent]:
                status[parent] = False
                reasons[parent] = ("dep", *deps[parent][gone], gone)
                dead.append(parent)

    if status[start]:
        return Verdict("ss", "secure-up-to-bound", None)
    witness = _ss_witness(tables, start, reasons)
    return Verdict("ss", "violation", None, witness)


def _ss_witness(tables: _SSTables, start, reasons) -> dict:
    steps = []
    pair = start
    first = None
    while True:
        reason = reasons[pair]
        kind, lo = reason[0], reason[1]
        e1, e2 = tables.after(lo, reason[2]), tables.after(lo, reason[3])
        state_a = tables.realize(pair[0], lo, e1)
        state_b = tables.realize(pair[1], lo, e2)
        if first is None:
            first = (state_a, state_b)
        steps.append(
            {
                "pc_a": pair[0],
                "pc_b": pair[1],
                "regs_a": list(state_a.regs),
                "mem_a": list(state_a.mem),
                "regs_b": list(state_b.regs),
                "mem_b": list(state_b.mem),
                "action_a": str(e1[0]),
                "action_b": str(e2[0]),
                "low_after_a": list(e1[1]),
                "low_after_b": list(e2[1]),
            }
        )
        if kind == "mismatch":
            break
        pair = reason[4]
    state_a, state_b = first
    return {
        "initial_low": _cells_named(state_a, tables.lows),
        "initial_high_a": _cells_named(state_a, tables.highs),
        "initial_high_b": _cells_named(state_b, tables.highs),
        "trace": steps,
    }


def _cells_of(state: MachineState, cells) -> tuple:
    return tuple(state.regs[idx] if kind == "reg" else state.mem[idx] for kind, idx in cells)


def _cells_named(state: MachineState, cells) -> dict:
    return {f"{kind}{idx}": value for (kind, idx), value in zip(cells, _cells_of(state, cells))}


def replay_ss_witness(program: RiscProgram, cfg: MachineConfig, witness: dict) -> bool:
    """Re-execute every step of the witness; the last one must publicly differ."""
    tables = _SSTables(program, cfg)
    for i, entry in enumerate(witness["trace"]):
        state_a = MachineState(entry["pc_a"], tuple(entry["regs_a"]), tuple(entry["mem_a"]))
        state_b = MachineState(entry["pc_b"], tuple(entry["regs_b"]), tuple(entry["mem_b"]))
        act_a, lo_a, _ = tables.observe(state_a)
        act_b, lo_b, _ = tables.observe(state_b)
        if str(act_a) != entry["action_a"] or str(act_b) != entry["action_b"]:
            return False
        if list(lo_a) != entry["low_after_a"] or list(lo_b) != entry["low_after_b"]:
            return False
        last = i == len(witness["trace"]) - 1
        differs = act_a != act_b or lo_a != lo_b
        if differs != last:
            return False
    return True


# ---------------------------------------------------------------------------
# Possibilistic checking: fault locations made observable
# ---------------------------------------------------------------------------


def _initial_groups(system: RiscSystem, check: CheckConfig):
    """Yield (lo_vec, [encoded states sharing that low part])."""
    cfg = system.cfg
    lows, highs = _cells_by_level(cfg)
    values = _values(cfg, check.init_value_bound)
    for lo_vec in itertools.product(values, repeat=len(lows)):
        states = [
            system.encode(_build_state(cfg, lows, highs, lo_vec, hi_vec))
            for hi_vec in itertools.product(values, repeat=len(highs))
        ]
        yield lo_vec, states


def check_poni(
    program: RiscProgram, cfg: MachineConfig, check: CheckConfig = CheckConfig()
) -> Verdict:
    """Compare fault-annotated trace sets of every low-equal pair of starts.

    The fault-labelled system is deterministic once the flipped set is part
    of the label, so trace-set equality reduces to a synchronized walk: both
    sides take the same fault sequence and must show the same public actions.
    """
    system = RiscSystem(program, cfg)
    scope = _scope_names(system, check)
    budget = check.effective_budget()
    _charge(2 ** len(scope), f"{2 ** len(scope)} fault masks", budget)
    # the seed pairs below: each low part's first state with every other one
    lows, highs = _cells_by_level(cfg)
    words = len(_values(cfg, check.init_value_bound))
    pairs = words ** len(lows) * (words ** len(highs) - 1)
    _charge(pairs, f"{pairs} initial state pairs", budget)
    masks = sorted(
        system.mask_of(sub)
        for sub in (frozenset(c) for r in range(len(scope) + 1)
                    for c in itertools.combinations(scope, r))
    )

    parent: dict[tuple[int, int], tuple | None] = {
        (states[0], other): None
        for _, states in _initial_groups(system, check)
        for other in states[1:]
    }
    frontier = list(parent)

    violation = None
    for _ in range(check.depth):
        if violation or not frontier:
            break
        nxt: list[tuple[int, int]] = []
        for pair in frontier:
            sa, sb = pair
            for mask in masks:
                act_a, succ_a = faulted_step(system, sa, mask)
                act_b, succ_b = faulted_step(system, sb, mask)
                if low(act_a) != low(act_b):
                    violation = (pair, mask, act_a, act_b)
                    break
                succ = (succ_a, succ_b)
                if succ not in parent:
                    parent[succ] = (pair, mask, act_a, act_b)
                    nxt.append(succ)
            if violation:
                break
        if len(parent) > budget:
            raise BudgetExceeded(f"more than {budget} state pairs explored")
        frontier = nxt

    if violation is None:
        return Verdict("poni", "secure-up-to-bound", check.depth)

    origin_a, origin_b = _trace_origin(parent, violation[0])
    witness = {
        "initial_low": _bits_named(system, origin_a, system.low_mask),
        "initial_high_a": _bits_named(system, origin_a, system.high_mask),
        "initial_high_b": _bits_named(system, origin_b, system.high_mask),
        "trace": _poni_trace(system, parent, violation),
    }
    return Verdict("poni", "violation", check.depth, witness)


def _trace_origin(parent, pair):
    while parent[pair] is not None:
        pair = parent[pair][0]
    return pair


def _poni_trace(system, parent, violation) -> list[dict]:
    pair, mask, act_a, act_b = violation
    chain = [(mask, act_a, act_b)]
    while parent[pair] is not None:
        prev_pair, prev_mask, prev_a, prev_b = parent[pair]
        chain.append((prev_mask, prev_a, prev_b))
        pair = prev_pair
    chain.reverse()
    return [
        {
            "faults": sorted(system.names_of(m)),
            "low_a": str(low(a)),
            "low_b": str(low(b)),
        }
        for m, a, b in chain
    ]


def replay_poni_witness(program: RiscProgram, cfg: MachineConfig, witness: dict) -> bool:
    """Drive both initial states through the fault sequence; they must split."""
    system = RiscSystem(program, cfg)
    bits_a = dict(witness["initial_low"])
    bits_a.update(witness["initial_high_a"])
    bits_b = dict(witness["initial_low"])
    bits_b.update(witness["initial_high_b"])
    for i, loc in enumerate(system.locations):
        bits_a.setdefault(loc.name, 0)
        bits_b.setdefault(loc.name, 0)
    sa = system.state_of(bits_a)
    sb = system.state_of(bits_b)
    for i, entry in enumerate(witness["trace"]):
        mask = system.mask_of(entry["faults"])
        act_a, sa = faulted_step(system, sa, mask)
        act_b, sb = faulted_step(system, sb, mask)
        if str(low(act_a)) != entry["low_a"] or str(low(act_b)) != entry["low_b"]:
            return False
        last = i == len(witness["trace"]) - 1
        if (low(act_a) != low(act_b)) != last:
            return False
    return True


# ---------------------------------------------------------------------------
# Probabilistic checking against a concrete attacker
# ---------------------------------------------------------------------------


def check_pni(
    program: RiscProgram,
    cfg: MachineConfig,
    env: EnvironmentSpec,
    check: CheckConfig = CheckConfig(),
) -> Verdict:
    """Exact trace-probability comparison under one environment.

    Distributions of length-``depth`` traces determine the probability of
    every shorter trace by marginalization, so equality is tested at the
    bound only; a violation witness reports the shortest differing trace.
    """
    system = RiscSystem(program, cfg)
    scope = _scope_names(system, check)
    env.validate(system.faulty_names)
    scoped = env.restricted(scope)
    comp = Composition(system, scoped)
    budget = check.effective_budget()

    for _, states in _initial_groups(system, check):
        ref = states[0]
        ref_dist = comp.trace_distribution(ref, scoped.initial, check.depth)
        for other in states[1:]:
            if other == ref:
                continue
            dist = comp.trace_distribution(other, scoped.initial, check.depth)
            if len(comp._steps) > budget:
                raise BudgetExceeded(f"more than {budget} composed states expanded")
            if dist != ref_dist:
                witness = _pni_witness(system, comp, scoped, ref, other, check.depth)
                return Verdict("pni", "violation", check.depth, witness)
    return Verdict("pni", "secure-up-to-bound", check.depth)


def _marginal(dist: dict, length: int) -> dict:
    out: dict = {}
    for trace, prob in dist.items():
        key = trace[:length]
        out[key] = out.get(key, Fraction(0)) + prob
    return out


def _pni_witness(system, comp, env, ref, other, depth) -> dict:
    dist_a = comp.trace_distribution(ref, env.initial, depth)
    dist_b = comp.trace_distribution(other, env.initial, depth)
    for length in range(1, depth + 1):
        ma = _marginal(dist_a, length)
        mb = _marginal(dist_b, length)
        diffs = [
            t
            for t in sorted(set(ma) | set(mb), key=lambda t: tuple(map(str, t)))
            if ma.get(t, Fraction(0)) != mb.get(t, Fraction(0))
        ]
        if diffs:
            trace = diffs[0]
            return {
                "initial_low": _bits_named(system, ref, system.low_mask),
                "initial_high_a": _bits_named(system, ref, system.high_mask),
                "initial_high_b": _bits_named(system, other, system.high_mask),
                "trace": [str(a) for a in trace],
                "probabilities": [
                    str(ma.get(trace, Fraction(0))),
                    str(mb.get(trace, Fraction(0))),
                ],
            }
    raise AssertionError("distributions differ but no differing trace found")


def replay_pni_witness(
    program: RiscProgram,
    cfg: MachineConfig,
    env: EnvironmentSpec,
    witness: dict,
    check: CheckConfig = CheckConfig(),
) -> bool:
    """Recompute the two trace probabilities claimed by the witness."""
    system = RiscSystem(program, cfg)
    scoped = env.restricted(_scope_names(system, check))
    comp = Composition(system, scoped)
    bits_a = dict(witness["initial_low"], **witness["initial_high_a"])
    bits_b = dict(witness["initial_low"], **witness["initial_high_b"])
    for loc in system.locations:
        bits_a.setdefault(loc.name, 0)
        bits_b.setdefault(loc.name, 0)
    trace = tuple(parse_action(t) for t in witness["trace"])
    pa = comp.trace_probability(system.state_of(bits_a), scoped.initial, trace)
    pb = comp.trace_probability(system.state_of(bits_b), scoped.initial, trace)
    return (str(pa), str(pb)) == tuple(witness["probabilities"]) and pa != pb


# ---------------------------------------------------------------------------
# Bridging checks
# ---------------------------------------------------------------------------


def check_ss_implies_poni(
    programs: list[tuple[str, RiscProgram]],
    cfg: MachineConfig,
    check: CheckConfig = CheckConfig(),
) -> dict:
    """No program may be strongly secure yet possibilistically leaky."""
    counterexamples = []
    results = []
    for name, program in programs:
        ss = check_strong_security(program, cfg, check)
        poni = check_poni(program, cfg, check)
        results.append({"program": name, "ss": ss.status, "poni": poni.status})
        if ss.secure and not poni.secure:
            counterexamples.append(name)
    return {
        "programs": len(programs),
        "results": results,
        "counterexamples": counterexamples,
    }


def check_timing_balance(
    result: CompileResult,
    cfg: MachineConfig,
    low_values: dict[int, int] | None = None,
    max_steps: int = 10_000,
) -> tuple[bool, dict]:
    """Padded-conditional audit: equal branch sizes, secret-blind low timing.

    Statically, both padded branch regions of every high conditional must
    contain the same number of instructions.  Dynamically, runs from every
    assignment of the high memory cells (low cells fixed) must produce
    identical sequences of (step index, low output).  Termination time by
    itself is not an observation: stuck states silently idle in this model.
    """
    program = result.program
    sites = []
    balanced = True
    for site in result.if_h_sites:
        then_len = site.then_end - site.then_start
        else_len = site.else_end - site.else_start
        ok = then_len == else_len
        balanced = balanced and ok
        sites.append({"then_len": then_len, "else_len": else_len, "balanced": ok})

    lows, highs = _cells_by_level(cfg)
    low_cells = dict(low_values or {})
    observations = None
    sweep_ok = True
    witness = None
    for hi_vec in itertools.product(range(cfg.word_values), repeat=len(highs)):
        regs = [0] * len(cfg.registers)
        mem = [0] * cfg.memory_size
        for (kind, idx), value in zip(highs, hi_vec):
            (regs if kind == "reg" else mem)[idx] = value
        for addr, value in low_cells.items():
            mem[addr] = value % cfg.word_values
        state = MachineState(0, tuple(regs), tuple(mem))
        timed: list[tuple[int, str]] = []
        steps = 0
        while steps < max_steps:
            outcome = machine_step(program, state, cfg)
            if outcome is None:
                break
            action, state = outcome
            steps += 1
            if action.channel == "low":
                timed.append((steps, str(action)))
        if observations is None:
            observations = timed
        elif timed != observations:
            sweep_ok = False
            witness = {"high": list(hi_vec), "observed": timed, "expected": observations}
            break
    ok = balanced and sweep_ok
    return ok, {"sites": sites, "sweep_identical": sweep_ok, "sweep_witness": witness}


# ---------------------------------------------------------------------------
# Environment family and random generators for desk-scale experiments
# ---------------------------------------------------------------------------


def environment_family(scope: tuple[str, ...]) -> list[tuple[str, EnvironmentSpec]]:
    """The shipped attackers: three uniform densities and one aimed strike."""
    family = [
        ("uniform-0", uniform_environment(Fraction(0), scope)),
        ("uniform-1-4", uniform_environment(Fraction(1, 4), scope)),
        ("uniform-1-2", uniform_environment(Fraction(1, 2), scope)),
    ]
    if scope:
        strike = scripted_environment(
            [
                ({frozenset(): Fraction(1)}, "low"),
                ({frozenset({scope[0]}): Fraction(1)}, "step"),
            ],
        )
        family.append(("strike-after-first-low", strike))
    return family


def random_table_system(
    rng: Random,
    n_locations: int = 4,
    n_faulty: int = 3,
) -> TableSystem:
    """A random deterministic fault-prone system on a few bits."""
    assert n_faulty <= n_locations
    faulty = set(rng.sample(range(n_locations), n_faulty))
    locations = [
        Location(f"b{i}", Tolerance.FAULTY if i in faulty else Tolerance.FAULT_TOLERANT)
        for i in range(n_locations)
    ]
    actions = [TAU, TAU, output("low", 0), output("low", 1), output("high", 0)]
    transitions = {}
    for state in range(1 << n_locations):
        if rng.randrange(5) == 0:
            continue  # stuck state
        transitions[state] = (
            actions[rng.randrange(len(actions))],
            rng.randrange(1 << n_locations),
        )
    return TableSystem(locations, transitions)


def random_risc_program(rng: Random, cfg: MachineConfig, length: int = 8) -> RiscProgram:
    """A random raw assembly program; many of these are insecure on purpose."""
    regs = cfg.register_names()
    ops = ["load", "store", "movek", "mover", "add", "sub", "and", "nop", "out", "jz"]
    chosen = []
    for _ in range(length):
        op = ops[rng.randrange(len(ops))]
        chosen.append(op)
    targets = {}
    for i, op in enumerate(chosen):
        if op == "jz":
            targets[i] = rng.randrange(length)
    labelled = set(targets.values())
    instrs = []
    for i, op in enumerate(chosen):
        label = f"t{i}" if i in labelled else None
        reg = regs[rng.randrange(len(regs))]
        reg2 = regs[rng.randrange(len(regs))]
        addr = rng.randrange(cfg.memory_size) if cfg.memory_size else 0
        if op == "load":
            instrs.append(Instruction("load", label, reg=reg, addr=addr))
        elif op == "store":
            instrs.append(Instruction("store", label, reg=reg, addr=addr))
        elif op == "movek":
            instrs.append(
                Instruction("movek", label, reg=reg, value=rng.randrange(cfg.word_values))
            )
        elif op == "mover":
            instrs.append(Instruction("mover", label, reg=reg, reg2=reg2))
        elif op in ("add", "sub", "and"):
            instrs.append(Instruction(op, label, reg=reg, reg2=reg2))
        elif op == "nop":
            instrs.append(Instruction("nop", label))
        elif op == "out":
            channel = "low" if rng.randrange(2) else "high"
            instrs.append(Instruction("out", label, channel=channel, reg=reg))
        elif op == "jz":
            instrs.append(Instruction("jz", label, target=f"t{targets[i]}", reg=reg))
    return RiscProgram(instrs)
