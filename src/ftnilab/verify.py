"""Exhaustive machine checkers for the three security properties.

All three checkers enumerate concrete state spaces at small word widths:

* ``check_strong_security`` walks the program point pairs of the
  termination-transparent fault-free machine breadth first from (0, 0),
  quantifying over every pair of low-equal data states at each pair, and
  stops at the first pair whose two steps differ publicly.  A point pair is
  checked only over the low cells its two instructions read or write, with
  zeros in the rest; this is exact, because a cell that neither step reads
  or writes holds one value before and after on both sides, so it cannot
  tell them apart, and the zeros make a witness name the first failing low
  part of the whole low space.  A silent step (no jump, no low write, not
  ``out low``) takes one public step whatever it reads, so its side adds no
  cell.  A diagonal pair (p, p) whose instruction reads no high cell takes
  one deterministic step on both sides, so it cannot split.  A ``jz``/``jlez``
  is walked over its low source, the one cell that moves its next pc; any
  other such pair, or a silent one, is fixed: it goes with the all-zero low
  part to the next pc the code gives and builds no summary.  The first
  low part that reaches each successor is the same, so verdicts and
  witnesses are those of the full walk.  Each witness step is read off its
  summary entry (a fixed step's is built with the witness, uncharged): the
  low part, the first value of the one high cell the step reads that
  yields the entry, and every other cell 0, which is the first state in
  high-vector order that steps alike.  ``_ss_witness`` writes the trace's
  lists straight from these values and the entry's low write, with no
  machine state built; ``replay_ss_witness`` is the one re-execution, on
  ``machine.effect`` over one cell list per side, as ``machine.run``
  steps.
* ``check_poni`` compares the sets of fault-annotated traces of low-equal
  initial states, with the fault locations made observable.
* ``check_pni`` compares exact trace probabilities of low-equal initial
  states composed with a concrete attacker, as integer counts over a power
  of the attacker's common denominator.  It runs the strong-security walk
  first and answers a strongly secure program from the decoded program
  alone, building the bit-level ``RiscSystem`` only to compose: a fault
  flips the same bits on both sides, so low-equal states stay low-equal,
  and the fault-tolerant pc keeps faulted runs inside the point pairs the
  walk has cleared; so strong security implies possibilistic security at
  every depth and scope, which implies probabilistic security under every
  attacker.

The two fault checkers walk the liveness quotient of the machine: each
state is taken with the cells dead at its pc zeroed
(``RiscSystem.canonical``), and ``faulted_steps`` with ``public`` returns
canonical successors.  This is exact.  A dead cell is written on every path
from its pc before it is read, and faults never move the pc off those
paths, so states with one canonical form show the same public actions
under every fault sequence, and their successors under one mask again
share a canonical form.  The starts are drawn over the cells live at pc 0
only, with every other cell 0 (``_initial_groups``, which the timing sweep
of ``check_timing_balance`` draws from too), so they are canonical
already.  Verdicts and witnesses are those of a walk from every concrete
start: in product order, a class's first concrete member is the one with
every dead cell zero, its canonical state, and two such members compare as
their live cells do.

They also quotient the masks by the same liveness.  A flip of a cell dead
at the pc (outside ``RiscSystem.relevant``) is not read, and is overwritten
or zeroed in the canonical successor, so masks with one cut
``mask & relevant(state)`` take one public faulted step, and both checkers
take it, and charge it, once per cut.  POni walks a pair over the submasks
of the union of its sides' relevance masks within the scope, in ascending
order; every other mask repeats the step of its cut, an earlier mask, so
the first splitting mask and the first mask to reach each successor pair,
and with them the witnesses, are unchanged.  No list of every mask in
scope is built.  The composition cuts the attacker's fault sets to the same
scope mask and sums their weights per cut.

Verdicts are ``secure-up-to-bound`` or ``violation``; violations carry a
replayable witness.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .faultlab import (
    TAU,
    Composition,
    EnvironmentSpec,
    TableSystem,
    faulted_step,
    faulted_steps,
    low,
    output,
    parse_action,
    scripted_environment,
    uniform_environment,
)
from .machine import (
    HIGH,
    LOW,
    OPERANDS,
    CellLayout,
    Instruction,
    MachineConfig,
    RiscProgram,
    RiscSystem,
    decode,
    effect,
)
from .seccomp import CompileResult

DEFAULT_BUDGET = 2_000_000


class BudgetExceeded(Exception):
    """The state/fault space outgrew the configured ceiling."""


def _charge(size: int, what: str, budget: int) -> None:
    """The one budget check: refuse ``size`` items of ``what`` over the limit.

    Checkers call it before they build an enumeration and as a table grows.
    """
    if size > budget:
        raise BudgetExceeded(f"{what}: {size} exceeds the limit of {budget}")


@dataclass(frozen=True)
class CheckConfig:
    """Knobs shared by the checkers.

    ``fault_scope`` restricts which faulty locations an experiment exposes
    (None exposes all of them).  Both fault checkers take it as one mask and
    cut each state's faults to it: POni walks only the masks within it, and
    PNI's ``Composition`` cuts the attacker's fault sets to it, so the
    attacker is passed as given.  ``depth`` bounds trace length for the
    possibilistic and probabilistic checkers; ``budget`` is the one limit on
    work, charged by every checker: strong security, the running total of
    low assignments it walks over the point pairs it reaches before it walks
    each pair (the values of the low slots its non-silent sides touch, or
    one for a diagonal pair whose step is fixed), and the running total of
    ``effect`` evaluations its summaries make before it builds each (none
    for a silent step, and a fixed diagonal step builds no summary); PNI,
    first the two totals of strong security, a trip there falling through to
    the composition; POni and PNI, the running total of their initial states
    (over the cells live at pc 0) before they build each low group; then
    POni the running total of faulted step pairs before it walks each level,
    per canonical frontier pair the masks in scope within its sides'
    relevance masks, counted from those masks before any is listed; and PNI
    the running total of faulted steps the composition takes before it takes
    each state's, per canonical composed state the distinct cuts of its fault
    sets to the bits in scope live there; the timing sweep, its starts, as
    ``initial states``.  A negative depth is refused; depth 0 is the vacuous
    bound.
    """

    depth: int = 4
    fault_scope: tuple[str, ...] | None = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError(f"depth must be at least 0, not {self.depth}")


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
# Fault scopes and named bits shared by the checkers
# ---------------------------------------------------------------------------


def _scope_names(faulty: frozenset[str], check: CheckConfig) -> tuple[str, ...]:
    if check.fault_scope is None:
        return tuple(sorted(faulty))
    names = tuple(check.fault_scope)
    unknown = set(names) - faulty
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
    seen = list(dict.fromkeys(picks))
    for name in sorted(system.faulty_names):
        if len(seen) >= max_bits:
            break
        if name not in seen:
            seen.append(name)
    return tuple(seen[:max_bits])


def _bits_named(system: RiscSystem, state: int, mask: int) -> dict[str, int]:
    return {name: state >> i & 1 for i, name in enumerate(system.names) if mask >> i & 1}


# ---------------------------------------------------------------------------
# Strong security: one forward walk over program point pairs
# ---------------------------------------------------------------------------


class _SSTables:
    """Successor summaries per program point, over the low cells it touches.

    An entry of pc is a (public action, low write, next pc, operands) tuple
    reachable as the high part ranges over all values.  The low write is
    ``(slot, value)``, or ``()`` when no low slot changes, so entries with
    equal action and write leave equal low parts.  Entries come from
    ``machine.effect`` run over the value sets of the cells the instruction
    reads (a singleton for a low cell, every word for a high one), so the
    high space is never enumerated.  A ``silent`` step (no jump target, no
    low write, not ``out low``) has the one entry (tau, (), pc + 1, ())
    whatever it reads and runs no ``effect``.  Any other step reads at most
    one high cell; its operands are the ``(cell, value)`` pairs of the cells
    it reads, with the first value of that high cell, in ascending order,
    that yields the entry.  Only the first three fields tell entries apart.
    Entries depend only on the low slots in ``touched`` (those a non-silent
    instruction reads or writes), are memoised on their values, and are
    sorted, so checks and witnesses meet them in one order on every run.  A
    point pair is checked only over the slots either side touches, and a
    diagonal pair whose step is ``fixed`` goes to its one next pc with no
    entries built (see the module docstring).

    The running number of ``effect`` evaluations (``word_values ** #high
    cells read`` per summary that runs them) is charged against ``budget``
    as ``summary evaluations`` before each new such summary is built; the
    pair walk (``_ss_split``) charges its low assignments against it too.
    """

    def __init__(self, program: RiscProgram, cfg: MachineConfig, budget: int = DEFAULT_BUDGET):
        self.cfg = cfg
        self.budget = budget
        self.evaluations = 0
        self.ops = decode(program, cfg)
        layout = cfg.layout
        self.lows, self.highs = layout.lows, layout.highs
        slots = self.slot_of_cell = layout.slot_of_cell
        self.silent = [
            op.target is None and op.dest not in slots and (op.op, op.channel) != ("out", "low")
            for op in self.ops
        ]
        self.touched = {
            pc: ()
            if self.silent[pc]
            else tuple(sorted({slots[c] for c in (*op.sources, op.dest) if c in slots}))
            for pc, op in enumerate(self.ops)
        }
        # per pc, the next pc of a diagonal pair (pc, pc) whose step the code
        # fixes, or None: a silent step, or one that reads no high cell and
        # is no conditional jump, moves both sides alike to one pc
        self.fixed = {
            pc: (op.target if op.op == "jmp" else pc + 1)
            if self.silent[pc]
            or (op.op not in ("jz", "jlez") and all(c in slots for c in op.sources))
            else None
            for pc, op in enumerate(self.ops)
        }
        # a silent step has its one entry whatever it reads, and the pc past
        # the end is stuck; neither runs ``effect``
        end = len(self.ops)
        self._entries: dict[tuple[int, tuple], tuple] = {
            (pc,): ((TAU, (), pc + 1, ()),) for pc in range(end) if self.silent[pc]
        }
        self._entries[end,] = ((TAU, (), end, ()),)

    def entries(self, pc: int, lo: tuple) -> tuple:
        """The sorted summary entries of pc from the low part ``lo``; a new
        summary is charged before it is built."""
        key = (pc, *map(lo.__getitem__, self.touched.get(pc, ())))
        if key not in self._entries:
            highs = sum(c not in self.slot_of_cell for c in self.ops[pc].sources)
            self.evaluations += self.cfg.word_values**highs
            _charge(self.evaluations, "summary evaluations", self.budget)
            self._entries[key] = self._summarize(pc, lo)
        return self._entries[key]

    def _summarize(self, pc: int, lo: tuple) -> tuple:
        """The sorted entries of the instruction at pc from the low part
        ``lo``, uncharged."""
        instr = self.ops[pc]
        slots = self.slot_of_cell
        every = range(self.cfg.word_values)
        value_sets = [(lo[slots[c]],) if c in slots else every for c in instr.sources]
        dest = slots.get(instr.dest)
        width = self.cfg.width
        out: dict[tuple, tuple] = {}
        for args in itertools.product(*value_sets):
            action, value, nxt = effect(instr, args, pc, width)
            write = () if dest is None or value in (None, lo[dest]) else (dest, value)
            key = (low(action), write, nxt)
            if key not in out:
                out[key] = (*key, tuple(zip(instr.sources, args)))
        return tuple(sorted(out.values(), key=lambda e: (str(e[0]), e[1], e[2])))


def check_strong_security(
    program: RiscProgram, cfg: MachineConfig, check: CheckConfig = CheckConfig()
) -> Verdict:
    """Decide strong low-bisimilarity of the program with itself.

    The program is deterministic, so this comes down to one breadth-first
    walk over the point pairs reachable from (0, 0) (``_ss_split``); the
    witness of a split is the chain of pairs that first reached it.
    """
    tables = _SSTables(program, cfg, check.budget)
    chain = _ss_split(tables)
    if chain is None:
        return Verdict("ss", "secure-up-to-bound", None)
    return Verdict("ss", "violation", None, _ss_witness(tables, chain))


def _ss_split(tables: _SSTables) -> list[tuple] | None:
    """The ``_chain`` of the first split of the strong-security walk, or None.

    A pair is reached when some low part takes the two points to it with
    publicly equal steps, and the program is secure iff no reached pair has
    a low part whose two steps differ publicly.  A pair is walked over the
    low slots its two instructions touch, except that a diagonal pair whose
    step is fixed goes to its one next pc for the all-zero low part, and
    its step keeps no entries (``_ss_witness`` builds them uncharged); the
    running total of low assignments walked is charged before each pair.

    Each other pair is one comparison loop per low part, over the sorted
    entries of p, then of q: the first pair of entries whose public actions
    or low writes differ is the split, and every pair before it records its
    next point pair, if new, in that a-major order.
    """
    nlows, budget = len(tables.lows), tables.budget
    values = tables.cfg.word_values
    every = range(values)
    zeros = ((0,) * nlows,)
    walked = 0  # low assignments walked over the point pairs reached so far
    # each reached pair maps to the step that first reached it:
    # (the pair it came from, the low part, the entry at p, the entry at q),
    # with None for both entries of a fixed step
    parent: dict[tuple[int, int], tuple | None] = {(0, 0): None}
    queue = deque(parent)
    while queue:
        pair = queue.popleft()
        p, q = pair
        fixed = tables.fixed.get(p, p) if p == q else None  # p past the end stays
        slots = {*tables.touched.get(p, ()), *tables.touched.get(q, ())} if fixed is None else ()
        walked += values ** len(slots)
        _charge(walked, "low assignments walked", budget)
        if fixed is not None:
            if (fixed, fixed) not in parent:
                parent[fixed, fixed] = (pair, zeros[0], None, None)
                queue.append((fixed, fixed))
            continue
        if slots:
            value_sets = [every if s in slots else (0,) for s in range(nlows)]
            lows = itertools.product(*value_sets)
        else:
            lows = zeros
        for lo in lows:
            e1s, e2s = tables.entries(p, lo), tables.entries(q, lo)
            for a in e1s:
                for b in e2s:
                    if a[0] != b[0] or a[1] != b[1]:
                        return _chain(parent, (pair, lo, a, b))
                    succ = (a[2], b[2])
                    if succ not in parent:
                        parent[succ] = (pair, lo, a, b)
                        queue.append(succ)
    return None


def _chain(parent: dict, last: tuple) -> list[tuple]:
    """The steps of a pair walk from its start to ``last``, in order.

    A step is a tuple whose first item is the pair it leaves; ``parent`` maps
    each pair to the step that first reached it, or to None at a start.
    """
    chain = [last]
    while parent[chain[-1][0]] is not None:
        chain.append(parent[chain[-1][0]])
    chain.reverse()
    return chain


def _ss_witness(tables: _SSTables, chain: list[tuple]) -> dict:
    """One concrete step pair per (pair, low part, entry at p, entry at q),
    written straight into the trace lists: each state holds the low part and
    its entry's operands, and every other cell 0, and each side's low part
    after the step is the low part with its entry's low write."""
    layout = tables.cfg.layout
    nregs = len(tables.cfg.registers)
    ncells = nregs + tables.cfg.memory_size
    initial = None
    trace = []
    for (p, q), lo, e1, e2 in chain:
        if e1 is None:  # a fixed diagonal step keeps no entry: a silent one's
            # is in the tables, any other reads only low cells, so its one is
            # built here; neither read is charged, as the walk is over
            e1 = e2 = (tables.entries if tables.silent[p] else tables._summarize)(p, lo)[0]
        base = [0] * ncells
        for cell, value in zip(tables.lows, lo):
            base[cell] = value
        sides = []
        for _, write, _, operands in (e1, e2):
            data = base.copy()
            for cell, value in operands:
                data[cell] = value
            low_after = list(lo)
            if write:
                low_after[write[0]] = write[1]
            sides.append((data, low_after))
        (a, after_a), (b, after_b) = sides
        if initial is None:
            initial = _ss_initial(layout, a, b)
        trace.append(
            {
                "pc_a": p,
                "pc_b": q,
                "regs_a": a[:nregs],
                "mem_a": a[nregs:],
                "regs_b": b[:nregs],
                "mem_b": b[nregs:],
                "action_a": str(e1[0]),
                "action_b": str(e2[0]),
                "low_after_a": after_a,
                "low_after_b": after_b,
            }
        )
    return {**initial, "trace": trace}


def _ss_initial(layout: CellLayout, cells_a: list[int], cells_b: list[int]) -> dict:
    """The ``initial_*`` fields of an SS witness whose first step holds the
    cells ``cells_a`` and ``cells_b`` (``regs + mem``): side a's low cells
    and each side's high cells, keyed by ``CellLayout.cell_names``."""
    names = layout.cell_names
    return {
        "initial_low": {names[c]: cells_a[c] for c in layout.lows},
        "initial_high_a": {names[c]: cells_a[c] for c in layout.highs},
        "initial_high_b": {names[c]: cells_b[c] for c in layout.highs},
    }


def replay_ss_witness(program: RiscProgram, cfg: MachineConfig, witness: dict) -> bool:
    """Re-execute every step of the witness on ``machine.effect``; the last
    one must publicly differ.

    Every step's ``regs_*`` and ``mem_*`` are lists of words of the
    configuration's lengths, and the ``initial_*`` fields name the first
    step's cells as ``_ss_witness`` writes them.  The first step is at pcs
    (0, 0), the two states of each step hold one low part, and each later
    step is at the pcs the step before moved to.  A step's low part need not
    be the one the step before left: the walk takes each pair over its own
    low parts.  Each step checks, in order: its pcs, its two low parts, then
    per side the public action and the low part after; then whether it
    splits.

    One pass over the trace checks the lists and joins each side's into one
    cell list, ``regs + mem``; each side then steps on its list as
    ``machine.run`` does, and a pc outside the code is stuck: it stays, with
    a silent action.  A field that is missing or of the wrong type makes
    the replay fail, as the three replays do alike: every field a checker
    writes as an int must be an ``int``, so neither ``1.0`` nor ``True``
    stands for 1, and each side steps on the pc the replay computed.
    """
    ops = decode(program, cfg)
    layout = cfg.layout
    lows = layout.lows
    nregs, nmem, values = len(cfg.registers), cfg.memory_size, cfg.word_values
    trace = witness.get("trace")
    if type(trace) is not list or not trace:
        return False
    states = []  # per step, side a's cell list, then side b's
    for entry in trace:
        if type(entry) is not dict:
            return False
        for regs_key, mem_key in (("regs_a", "mem_a"), ("regs_b", "mem_b")):
            regs, mem = entry.get(regs_key), entry.get(mem_key)
            if type(regs) is not list or type(mem) is not list:
                return False
            if len(regs) != nregs or len(mem) != nmem:
                return False
            cells = regs + mem
            for value in cells:
                if type(value) is not int or not 0 <= value < values:
                    return False
            states.append(cells)
    for key, named in _ss_initial(layout, states[0], states[1]).items():
        given = witness.get(key)
        if given != named:
            return False
        for value in given.values():
            if type(value) is not int:
                return False
    end, width = len(ops), cfg.width
    last = len(trace) - 1
    pcs = (0, 0)
    for i, entry in enumerate(trace):
        pc_a, pc_b = entry.get("pc_a"), entry.get("pc_b")
        if (pc_a, pc_b) != pcs or type(pc_a) is not int or type(pc_b) is not int:
            return False
        cells_a, cells_b = states[2 * i], states[2 * i + 1]
        for cell in lows:
            if cells_a[cell] != cells_b[cell]:
                return False
        seen = []
        for pc, cells, action_key, after_key in (
            (pcs[0], cells_a, "action_a", "low_after_a"),
            (pcs[1], cells_b, "action_b", "low_after_b"),
        ):
            public = TAU  # a pc outside the code is stuck
            if 0 <= pc < end:
                instr = ops[pc]
                action, value, pc = effect(instr, [cells[c] for c in instr.sources], pc, width)
                if value is not None:
                    cells[instr.dest] = value
                public = low(action)
            if str(public) != entry.get(action_key):
                return False
            lo = [cells[cell] for cell in lows]
            given = entry.get(after_key)
            if lo != given:
                return False
            for value in given:
                if type(value) is not int:
                    return False
            seen.append((public, lo, pc))
        (public_a, lo_a, pc_a), (public_b, lo_b, pc_b) = seen
        pcs = (pc_a, pc_b)
        if (public_a != public_b or lo_a != lo_b) != (i == last):
            return False
    return True


# ---------------------------------------------------------------------------
# Possibilistic checking: fault locations made observable
# ---------------------------------------------------------------------------


def _initial_groups(system: RiscSystem, budget: int):
    """The start states: the states at pc 0 over the low and high cells live
    there, grouped by their low part, in product order over the live low and
    then the live high cells; every other cell is 0, so each state is
    canonical.  The first group has every low cell at 0.

    The cells of each level come from the config's shared ``CellLayout``
    and their liveness from the system's own liveness masks; the high parts
    are packed once per call, after the first group is charged, and each
    group is its low part joined with each of them.  The running total of
    states, ``word_values ** #live high`` per group, is charged as
    ``initial states`` before each group is built, so a caller that stops
    early pays only for the groups it took.
    """
    cfg = system.cfg
    layout = cfg.layout
    live = system.relevant(0)
    lows, highs = (
        [cell for cell in cells if live & layout.cell_masks[cell]]
        for cells in (layout.lows, layout.highs)
    )
    values = range(cfg.word_values)
    size = cfg.word_values ** len(highs)
    his: list[int] = []
    for n, lo_vec in enumerate(itertools.product(values, repeat=len(lows)), 1):
        _charge(n * size, "initial states", budget)
        if n == 1:
            his = [system.pack(highs, v) for v in itertools.product(values, repeat=len(highs))]
        lo = system.pack(lows, lo_vec)
        yield [lo | hi for hi in his]


def check_poni(
    program: RiscProgram, cfg: MachineConfig, check: CheckConfig = CheckConfig()
) -> Verdict:
    """Compare fault-annotated trace sets of every low-equal pair of starts.

    The fault-labelled system is deterministic once the flipped set is part
    of the label, so trace-set equality reduces to a synchronized walk: both
    sides take the same fault sequence and must show the same public actions.
    Each state's public faulted steps under the masks within its relevance
    mask (its row) are taken once, and a pair compares the two rows'
    observation codes at each mask cut to each side's relevance mask.

    The walk runs on canonical pairs (see the module docstring).  Its seeds
    pair each low group's first state with every other one, in
    ``_initial_groups`` order.
    """
    system = RiscSystem(program, cfg)
    scope_mask = system.mask_of(_scope_names(system.faulty_names, check))
    # each explored pair maps to (the pair it came from, the mask it took)
    parent: dict[tuple[int, int], tuple | None] = {
        (states[0], other): None
        for states in _initial_groups(system, check.budget)
        for other in states[1:]
    }
    relevant = system.relevant
    # per relevance mask, the masks in scope within it, ascending
    classes: dict[int, list[int]] = {}

    def within(rel: int) -> list[int]:
        found = classes.get(rel)
        if found is None:
            cut = rel & scope_mask
            found = classes[rel] = [0]
            while mask := (found[-1] - cut) & cut:
                found.append(mask)
        return found

    # per state, its public faulted step under each mask within its relevance mask
    rows: dict[int, dict[int, tuple[int, int]]] = {}

    def row(state: int) -> dict[int, tuple[int, int]]:
        found = rows.get(state)
        if found is None:
            cuts = within(relevant(state))
            found = rows[state] = dict(zip(cuts, faulted_steps(system, state, cuts, True)))
        return found

    frontier = list(parent)

    violation = None
    walked = 0
    for _ in range(check.depth):
        if not frontier:
            break
        walked += sum(
            1 << ((relevant(a) | relevant(b)) & scope_mask).bit_count() for a, b in frontier
        )
        _charge(walked, "faulted step pairs", check.budget)
        nxt: list[tuple[int, int]] = []
        for pair in frontier:
            row_a, row_b = row(pair[0]), row(pair[1])
            rel_a, rel_b = relevant(pair[0]), relevant(pair[1])
            for mask in within(rel_a | rel_b):
                code_a, succ_a = row_a[mask & rel_a]
                code_b, succ_b = row_b[mask & rel_b]
                if code_a != code_b:
                    violation = (pair, mask)
                    break
                succ = (succ_a, succ_b)
                if succ not in parent:
                    parent[succ] = (pair, mask)
                    nxt.append(succ)
            if violation:
                break
        if violation:
            break
        frontier = nxt

    if violation is None:
        return Verdict("poni", "secure-up-to-bound", check.depth)

    chain = _chain(parent, violation)
    origin_a, origin_b = chain[0][0]
    observations = system.observations
    witness = {
        "initial_low": _bits_named(system, origin_a, system.low_mask),
        "initial_high_a": _bits_named(system, origin_a, system.high_mask),
        "initial_high_b": _bits_named(system, origin_b, system.high_mask),
        "trace": [
            {
                "faults": sorted(system.names_of(mask)),
                "low_a": str(observations[rows[sa][mask & relevant(sa)][0]]),
                "low_b": str(observations[rows[sb][mask & relevant(sb)][0]]),
            }
            for (sa, sb), mask in chain
        ],
    }
    return Verdict("poni", "violation", check.depth, witness)


def _witness_states(system: RiscSystem, witness: dict) -> tuple[int, int] | None:
    """The two initial states a POni or PNI witness names; unnamed bits are
    0.  None when one is not a JSON object, ``initial_low`` names anything
    but low data bits, an ``initial_high_*`` anything but high data bits, or
    a value is not 0 or 1."""
    named = [(witness.get("initial_low"), system.low_mask)] + [
        (witness.get(f"initial_high_{side}"), system.high_mask) for side in "ab"
    ]
    if any(type(bits) is not dict for bits, _ in named):
        return None
    if any(not system.names_of(mask).issuperset(bits) for bits, mask in named) or any(
        type(value) is not int or value not in (0, 1) for bits, _ in named for value in bits.values()
    ):
        return None
    zeros = dict.fromkeys(system.names, 0)
    return tuple(
        system.state_of({**zeros, **witness["initial_low"], **witness[f"initial_high_{side}"]})
        for side in "ab"
    )


def replay_poni_witness(program: RiscProgram, cfg: MachineConfig, witness: dict) -> bool:
    """Drive both initial states through the fault sequence; they must split
    at its last step and only there, so an empty sequence is refused.

    A fault may name only a faulty location, and a missing field fails.
    """
    system = RiscSystem(program, cfg)
    states = _witness_states(system, witness)
    trace = witness.get("trace")
    if states is None or type(trace) is not list or not trace:
        return False
    sa, sb = states
    for i, entry in enumerate(trace):
        faults = entry.get("faults") if type(entry) is dict else None
        if type(faults) is not list or any(
            type(name) is not str or name not in system.faulty_names for name in faults
        ):
            return False
        mask = system.mask_of(faults)
        act_a, sa = faulted_step(system, sa, mask)
        act_b, sb = faulted_step(system, sb, mask)
        if str(low(act_a)) != entry.get("low_a") or str(low(act_b)) != entry.get("low_b"):
            return False
        if (low(act_a) != low(act_b)) != (i == len(trace) - 1):
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

    A strongly secure program is PNI-secure under every attacker and at
    every depth (see the module docstring), so once the attacker is
    validated the strong-security walk runs first, under the same budget,
    and settles such a program.  Any other program, or one whose walk
    exceeds the budget, is composed with the attacker (``_composed_pni``).
    The faulty bits' names are read off the configuration's shared layout
    (``CellLayout.faulty_names``), so the bit-level ``RiscSystem`` is built
    only to compose.
    """
    decode(program, cfg)  # refuses an ill-formed program first
    faulty = cfg.layout.faulty_names
    scope = _scope_names(faulty, check)
    env.validate(faulty)
    try:
        if _ss_split(_SSTables(program, cfg, check.budget)) is None:
            return Verdict("pni", "secure-up-to-bound", check.depth)
    except BudgetExceeded:
        pass
    system = RiscSystem(program, cfg)
    return _composed_pni(system, env, system.mask_of(scope), check)


def _composed_pni(
    system: RiscSystem, env: EnvironmentSpec, scope: int, check: CheckConfig
) -> Verdict:
    """PNI by composition with the attacker, its fault sets cut to the
    ``scope`` mask.

    Distributions of length-``depth`` traces determine the probability of
    every shorter trace by marginalization, so equality is tested at the
    bound only, on the integer trace counts of ``Composition.trace_counts``;
    a violation witness reports the shortest differing trace.

    Counts are taken from the canonical states of ``_initial_groups`` (see
    the module docstring); the witness names the first state and the first
    violating state of the first violating group.
    """
    comp = Composition(
        system, env, scope, lambda taken: _charge(taken, "faulted steps composed", check.budget)
    )
    for states in _initial_groups(system, check.budget):
        ref_counts = comp.trace_counts(states[0], env.initial, check.depth)
        for other in states[1:]:
            if comp.trace_counts(other, env.initial, check.depth) != ref_counts:
                witness = _pni_witness(system, comp, env, states[0], other, check.depth)
                return Verdict("pni", "violation", check.depth, witness)
    return Verdict("pni", "secure-up-to-bound", check.depth)


def _pni_witness(system, comp, env, ref, other, depth) -> dict:
    """The first differing trace, in ``str`` order, of the shortest length at
    which the two states' trace distributions differ."""
    for length in range(1, depth + 1):
        da = comp.trace_distribution(ref, env.initial, length)
        db = comp.trace_distribution(other, env.initial, length)
        diffs = [
            t
            for t in sorted(set(da) | set(db), key=lambda t: tuple(map(str, t)))
            if da.get(t, 0) != db.get(t, 0)
        ]
        if diffs:
            trace = diffs[0]
            return {
                "initial_low": _bits_named(system, ref, system.low_mask),
                "initial_high_a": _bits_named(system, ref, system.high_mask),
                "initial_high_b": _bits_named(system, other, system.high_mask),
                "trace": [str(a) for a in trace],
                "probabilities": [str(da.get(trace, 0)), str(db.get(trace, 0))],
            }
    raise AssertionError("distributions differ but no differing trace found")


def replay_pni_witness(
    program: RiscProgram,
    cfg: MachineConfig,
    env: EnvironmentSpec,
    witness: dict,
    check: CheckConfig = CheckConfig(),
) -> bool:
    """Recompute the two trace probabilities claimed by the witness, after
    checking the program, the scope and the attacker as ``check_pni`` does;
    a missing field fails."""
    system = RiscSystem(program, cfg)
    scope = system.mask_of(_scope_names(system.faulty_names, check))
    env.validate(system.faulty_names)
    comp = Composition(system, env, scope)
    states = _witness_states(system, witness)
    if states is None:
        return False
    sa, sb = states
    texts = witness.get("trace")
    if type(texts) is not list or any(type(text) is not str for text in texts):
        return False
    try:
        trace = tuple(parse_action(text) for text in texts)
    except ValueError:  # an entry that names no action
        return False
    pa = comp.trace_probability(sa, env.initial, trace)
    pb = comp.trace_probability(sb, env.initial, trace)
    return [str(pa), str(pb)] == witness.get("probabilities") and pa != pb


# ---------------------------------------------------------------------------
# Timing balance
# ---------------------------------------------------------------------------


TIMING_MAX_STEPS = 10_000


def check_timing_balance(
    result: CompileResult, cfg: MachineConfig, check: CheckConfig = CheckConfig()
) -> tuple[bool, dict]:
    """Padded-conditional audit: equal branch step counts, secret-blind low timing.

    Statically, both padded branch regions of every high conditional must
    take the same number of steps (``then_len``/``else_len``): walking a
    region from its start, a ``jmp`` follows its target, every other
    instruction (a ``jz`` included) falls through, and each pc counts once.
    A nested padded conditional thus counts one arm, as a run takes it.
    Dynamically, runs on ``RiscSystem.step`` from the first
    ``_initial_groups`` group (every low cell 0) must produce identical
    sequences of (step index, low output).  That is the sweep over every
    assignment of the high cells: a cell dead at pc 0 cannot change a run,
    so the first failing assignment in product order has it at 0, and the
    witness's ``high`` reads every high cell of that start.  The starts are
    charged as ``initial states`` against ``check.budget``.
    Termination time by itself is not an observation: stuck states
    silently idle in this model.
    """
    program = result.program
    ops = decode(program, cfg)

    def steps(start: int, end: int) -> int:
        seen = set()
        pc = start
        while start <= pc < end and pc not in seen:
            seen.add(pc)
            pc = ops[pc].target if ops[pc].op == "jmp" else pc + 1
        return len(seen)

    sites = []
    balanced = True
    for site in result.if_h_sites:
        then_len = steps(site.then_start, site.then_end)
        else_len = steps(site.else_start, site.else_end)
        ok = then_len == else_len
        balanced = balanced and ok
        sites.append({"then_len": then_len, "else_len": else_len, "balanced": ok})

    system = RiscSystem(program, cfg)
    observations = None
    sweep_ok = True
    witness = None
    for start in next(_initial_groups(system, check.budget)):
        state = start
        timed: list[tuple[int, str]] = []
        for index in range(1, TIMING_MAX_STEPS + 1):
            outcome = system.step(state)
            if outcome is None:
                break
            action, state = outcome
            if action.channel == "low":
                timed.append((index, str(action)))
        if observations is None:
            observations = timed
        elif timed != observations:
            sweep_ok = False
            decoded = system.decode(start)
            cells = decoded.regs + decoded.mem
            high = [cells[cell] for cell in cfg.layout.highs]
            witness = {"high": high, "observed": timed, "expected": observations}
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
    names = [f"b{i}" for i in range(n_locations)]
    faulty = [names[i] for i in rng.sample(range(n_locations), n_faulty)]
    actions = [TAU, TAU, output("low", 0), output("low", 1), output("high", 0)]
    transitions = {}
    for state in range(1 << n_locations):
        if rng.randrange(5) == 0:
            continue  # stuck state
        transitions[state] = (
            actions[rng.randrange(len(actions))],
            rng.randrange(1 << n_locations),
        )
    return TableSystem(names, faulty, transitions)


def random_risc_program(rng: Random, cfg: MachineConfig, length: int = 8) -> RiscProgram:
    """A random raw assembly program; many of these are insecure on purpose.

    ``load`` and ``store`` are drawn only when the config has memory, and
    ``jlez`` only when it enables ``jlez``, so every program fits its machine.
    """
    regs = cfg.register_names()
    ops = ["load", "store", "movek", "mover", "add", "sub", "and", "nop", "out", "jz"]
    if cfg.enable_jlez:
        ops.append("jlez")
    if not cfg.memory_size:
        ops = [op for op in ops if "addr" not in OPERANDS[op]]
    chosen = [ops[rng.randrange(len(ops))] for _ in range(length)]
    targets = {
        i: rng.randrange(length) for i, op in enumerate(chosen) if "target" in OPERANDS[op]
    }
    labelled = set(targets.values())
    instrs = []
    for i, op in enumerate(chosen):
        fields = OPERANDS[op]
        drawn = {
            "reg": regs[rng.randrange(len(regs))],
            "reg2": regs[rng.randrange(len(regs))],
            "addr": rng.randrange(cfg.memory_size) if cfg.memory_size else 0,
            "target": f"t{targets.get(i)}",
        }
        if "value" in fields:
            drawn["value"] = rng.randrange(cfg.word_values)
        if "channel" in fields:
            drawn["channel"] = "low" if rng.randrange(2) else "high"
        label = f"t{i}" if i in labelled else None
        instrs.append(Instruction(op, label, **{f: drawn[f] for f in fields}))
    return RiscProgram(instrs)
