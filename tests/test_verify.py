"""Checkers: strong security, possibilistic and probabilistic noninterference."""

import copy
import dataclasses
import functools
import itertools
from collections import Counter, deque
from fractions import Fraction
from random import Random

import pytest

from ftnilab.corpus import CORPUS, SHRUNKEN_HASH, config_for_source, hash_config, hash_source
from ftnilab.faultlab import (
    TAU,
    WILDCARD,
    Composition,
    EnvironmentSpec,
    enumerate_runs,
    environment_from_text,
    environment_to_text,
    faulted_step,
    low,
    output,
    scripted_environment,
    uniform_environment,
)
from ftnilab.lang import parse
from ftnilab.machine import (
    HIGH,
    LOW,
    AssemblyError,
    Instruction,
    MachineConfig,
    MachineState,
    RiscProgram,
    assemble,
    decode,
    disassemble,
    effect,
    initial_state,
    run,
    standard_config,
    step,
)
from ftnilab.seccomp import (
    Timing,
    WriteEffect,
    CompileResult,
    compile_program,
)
from ftnilab.verify import (
    DEFAULT_BUDGET,
    TIMING_MAX_STEPS,
    BudgetExceeded,
    CheckConfig,
    Verdict,
    _SSTables,
    _chain,
    _composed_pni,
    _initial_groups,
    check_pni,
    check_poni,
    check_strong_security,
    check_timing_balance,
    default_scope,
    environment_family,
    random_risc_program,
    replay_pni_witness,
    replay_poni_witness,
    replay_ss_witness,
)
from ftnilab.machine import RiscSystem


def tiny_cfg(width=1, mem=(LOW, HIGH), jlez=False):
    return standard_config(width, 2, 2, mem, jlez)


CONSTANT_OUT = "movek rl0 1\nout low rl0"
LEAKY_OUT = "load rh0 1\nout low rh0"


def observe(program, cfg, state):
    """One termination-transparent step on ``machine.step``, projected to
    (public action, low part after, next pc)."""
    action, succ = step(program, state, cfg) or (TAU, state)
    return (low(action), _cells(succ, cfg.cells_of_level(LOW)), succ.pc)


def realize(program, cfg, pc, lo, seen):
    """The first state at pc, in high-vector order over the high cells the
    step reads (every other high cell 0), with low part ``lo`` and the
    observation ``seen``."""
    ops = decode(program, cfg)
    reads = ops[pc].sources if 0 <= pc < len(ops) else ()
    highs = cfg.cells_of_level(HIGH)
    value_sets = [range(cfg.word_values) if cell in reads else (0,) for cell in highs]
    for hi_vec in itertools.product(*value_sets):
        state = _state_at(cfg, pc, cfg.cells_of_level(LOW) + highs, lo + hi_vec)
        if observe(program, cfg, state) == seen:
            return state
    return None


def _state_at(cfg, pc, cells, values):
    """The state at pc with the cells set to the values, and every other cell 0."""
    return _with_cells(initial_state(cfg)._replace(pc=pc), cells, values)


def _with_cells(state, cells, values):
    # cells index regs + mem
    data = list(state.regs + state.mem)
    for cell, val in zip(cells, values):
        data[cell] = val
    nregs = len(state.regs)
    return MachineState(state.pc, tuple(data[:nregs]), tuple(data[nregs:]))


def _cells(state, cells):
    data = state.regs + state.mem
    return tuple(data[cell] for cell in cells)


def after(lo, entry):
    """An ``_SSTables`` entry as (public action, low part after the step, next
    pc) from the low part ``lo``."""
    action, write, nxt, _ = entry
    if write:
        slot, value = write
        lo = lo[:slot] + (value,) + lo[slot + 1 :]
    return (action, lo, nxt)


# -- strong security ------------------------------------------------------------


def test_ss_constant_output_secure():
    cfg = tiny_cfg()
    verdict = check_strong_security(assemble(CONSTANT_OUT), cfg)
    assert verdict.secure


def test_ss_secret_output_violation_with_replayable_witness():
    cfg = tiny_cfg()
    verdict = check_strong_security(assemble(LEAKY_OUT), cfg)
    assert not verdict.secure
    assert replay_ss_witness(assemble(LEAKY_OUT), cfg, verdict.witness)
    last = verdict.witness["trace"][-1]
    assert last["action_a"] != last["action_b"] or last["low_after_a"] != last["low_after_b"]


def test_ss_replay_rejects_a_changed_high_value():
    program, cfg = assemble(LEAKY_OUT), tiny_cfg()
    witness = check_strong_security(program, cfg).witness
    last = witness["trace"][-1]
    assert (last["pc_a"], last["regs_a"], last["regs_b"]) == (1, [0, 0, 0, 0], [0, 0, 1, 0])
    tampered = copy.deepcopy(witness)
    tampered["trace"][-1]["regs_b"][2] = 0  # rh0 as on side a: the output no longer differs
    assert not replay_ss_witness(program, cfg, tampered)


JZ_OUT = "jz l1 rl0\nout low rl0\nl1: nop"


def forged_step(pcs, rl0s, actions):
    """A hand-made SS witness step on ``standard_config(1, 2, 2, (LOW, HIGH))``:
    rl0 holds ``rl0s`` on the two sides and every other cell 0, and each
    side's observations are those its state shows."""
    step = {}
    for side, pc, rl0, action in zip("ab", pcs, rl0s, actions):
        step.update(
            {
                f"pc_{side}": pc,
                f"regs_{side}": [rl0, 0, 0, 0],
                f"mem_{side}": [0, 0],
                f"action_{side}": action,
                f"low_after_{side}": [rl0, 0, 0],
            }
        )
    return step


@pytest.mark.parametrize(
    "text, trace",
    [
        pytest.param(JZ_OUT, [forged_step((1, 2), (1, 1), ("low!1", "tau"))], id="off-start"),
        pytest.param(
            "out low rl0", [forged_step((0, 0), (0, 1), ("low!0", "low!1"))], id="two-low-parts"
        ),
        pytest.param(
            JZ_OUT,
            [
                forged_step((0, 0), (1, 1), ("tau", "tau")),
                forged_step((1, 2), (1, 1), ("low!1", "tau")),
            ],
            id="not-the-next-pcs",
        ),
        pytest.param(JZ_OUT, [], id="empty"),
    ],
)
def test_ss_replay_rejects_a_forged_trace(text, trace):
    """Each step re-executes as claimed and only the last one splits, and the
    initial fields match the first step, but the trace is not one the walk
    can take, on a strongly secure program."""
    program, cfg = assemble(text), standard_config(1, 2, 2, (LOW, HIGH))
    assert check_strong_security(program, cfg).secure
    first = trace[0] if trace else forged_step((0, 0), (0, 0), ("tau", "tau"))
    witness = {**ss_initial_fields(cfg, first), "trace": trace}
    assert not replay_ss_witness(program, cfg, witness)


def ss_leak_witness(text):
    """A program, its config and its SS witness on ``standard_config(1, 1, 1,
    (LOW, HIGH))``; the witness replays."""
    program, cfg = assemble(text), standard_config(1, 1, 1, (LOW, HIGH))
    witness = check_strong_security(program, cfg).witness
    assert replay_ss_witness(program, cfg, witness)
    return program, cfg, witness


def test_ss_replay_rejects_a_step_with_a_cut_register_list():
    program, cfg, witness = ss_leak_witness("out low rh0")
    tampered = copy.deepcopy(witness)
    tampered["trace"][0]["regs_a"] = [0]
    assert not replay_ss_witness(program, cfg, tampered)


def test_ss_replay_rejects_initial_fields_that_are_not_the_first_step():
    program, cfg, witness = ss_leak_witness("out low rh0")
    assert not replay_ss_witness(program, cfg, {**witness, "initial_low": {"bogus": 9}})
    assert not replay_ss_witness(program, cfg, {**witness, "initial_high_b": {}})


def test_ss_replay_rejects_a_trace_that_is_not_a_list_of_steps():
    program, cfg, witness = ss_leak_witness("out low rh0")
    for trace in (5, [5], [witness["trace"][0]["regs_a"]]):
        assert not replay_ss_witness(program, cfg, {**witness, "trace": trace})


def test_ss_replay_rejects_a_cell_that_is_not_a_word():
    program, cfg, witness = ss_leak_witness("jz l rh0\nmovek rl0 1\nl: out low rl0")
    rh0 = cfg.layout.highs[0]
    side = next(s for s in "ab" if witness["trace"][0][f"regs_{s}"][rh0])
    tampered = copy.deepcopy(witness)
    tampered["trace"][0][f"regs_{side}"][rh0] = 7
    tampered[f"initial_high_{side}"][f"reg{rh0}"] = 7
    assert not replay_ss_witness(program, cfg, tampered)


def test_ss_single_nop_secure():
    verdict = check_strong_security(assemble("nop"), tiny_cfg())
    assert verdict.secure


def test_ss_empty_program_secure():
    verdict = check_strong_security(RiscProgram(()), tiny_cfg())
    assert verdict.secure


def test_ss_high_branching_on_secret_is_secure_when_silent():
    # Secret-dependent control flow with no public effect anywhere.
    text = "l0: jz l1 rh0\nnop\nl1: nop"
    verdict = check_strong_security(assemble(text), tiny_cfg())
    assert verdict.secure


def test_ss_secret_branch_with_low_write_violation():
    text = "jz l1 rh0\nmovek rl0 1\nl1: nop"
    verdict = check_strong_security(assemble(text), tiny_cfg())
    assert not verdict.secure
    assert replay_ss_witness(assemble(text), tiny_cfg(), verdict.witness)


def test_ss_witness_starts_from_the_first_failing_low_part():
    # The leak needs rl0 != 0; slots no instruction on the path touches are 0,
    # as in the first failing vector of the whole low space.
    text = "jz l1 rl0\nout low rh0\nl1: nop"
    verdict = check_strong_security(assemble(text), tiny_cfg())
    assert verdict.witness["initial_low"] == {"reg0": 1, "reg1": 0, "mem0": 0}
    assert replay_ss_witness(assemble(text), tiny_cfg(), verdict.witness)


def test_ss_witnesses_of_random_programs_replay():
    # A witness picks one of possibly many mismatching summary entries; the
    # one it picks must replay.
    for width in (1, 2):
        rng = Random(7)
        cfg = standard_config(width, 1, 1, (LOW, HIGH))
        for draw in range(400):
            program = random_risc_program(rng, cfg, 8)
            verdict = check_strong_security(program, cfg)
            if not verdict.secure:
                assert replay_ss_witness(program, cfg, verdict.witness), (width, draw)


def ss_initial_fields(cfg, first):
    """The ``initial_*`` fields of an SS witness whose first step is ``first``."""
    nregs = len(cfg.registers)

    def named(side, level):
        data = first[f"regs_{side}"] + first[f"mem_{side}"]
        cells = cfg.cells_of_level(level)
        return {f"reg{c}" if c < nregs else f"mem{c - nregs}": data[c] for c in cells}

    return {
        "initial_low": named("a", LOW),
        "initial_high_a": named("a", HIGH),
        "initial_high_b": named("b", HIGH),
    }


def reference_replay_ss_witness(program, cfg, witness):
    """``replay_ss_witness`` in its per-step form, kept as the reference for
    its checks and their order: the cell lists and initial fields first, then
    side keys built per step, and the low parts compared as tuples of cells."""
    lows = cfg.cells_of_level(LOW)
    trace = witness["trace"]
    if not trace:
        return False
    for entry in trace:
        for side in "ab":
            for key, size in ((f"regs_{side}", len(cfg.registers)), (f"mem_{side}", cfg.memory_size)):
                cells = entry[key]
                if not isinstance(cells, list) or len(cells) != size:
                    return False
                if any(type(v) is not int or not 0 <= v < cfg.word_values for v in cells):
                    return False
    for key, fields in ss_initial_fields(cfg, trace[0]).items():
        if witness.get(key) != fields or not is_ints(witness[key].values()):
            return False
    pcs = (0, 0)
    for i, entry in enumerate(trace):
        if not is_ints((entry["pc_a"], entry["pc_b"])):
            return False
        states = [
            MachineState(
                entry[f"pc_{side}"], tuple(entry[f"regs_{side}"]), tuple(entry[f"mem_{side}"])
            )
            for side in "ab"
        ]
        if (states[0].pc, states[1].pc) != pcs:
            return False
        if _cells(states[0], lows) != _cells(states[1], lows):
            return False
        seen = []
        succs = []
        for side, state in zip("ab", states):
            action, succ = step(program, state, cfg) or (TAU, state)
            if str(low(action)) != entry[f"action_{side}"]:
                return False
            lo = list(_cells(succ, lows))
            if lo != entry[f"low_after_{side}"] or not is_ints(entry[f"low_after_{side}"]):
                return False
            seen.append((low(action), lo))
            succs.append(succ.pc)
        pcs = tuple(succs)
        last = i == len(trace) - 1
        if (seen[0] != seen[1]) != last:
            return False
    return True


def is_ints(values):
    return all(type(value) is int for value in values)


def retyped(value):
    """The values equal to the int ``value`` that JSON can spell otherwise:
    its float, and its bool when it is 0 or 1."""
    return (float(value), *((bool(value),) if value in (0, 1) else ()))


def ss_witness_retypings(witness):
    """The witness with one int field given as an equal float or bool: each
    ``initial_*`` value, and per step each pc and ``low_after`` cell."""
    for key in ("initial_low", "initial_high_a", "initial_high_b"):
        for name, value in witness[key].items():
            for replaced in retyped(value):
                yield {**witness, key: {**witness[key], name: replaced}}
    trace = witness["trace"]
    for i, entry in enumerate(trace):
        for side in "ab":
            fields = [(f"pc_{side}", replaced) for replaced in retyped(entry[f"pc_{side}"])]
            after = entry[f"low_after_{side}"]
            for cell, value in enumerate(after):
                for replaced in retyped(value):
                    cells = list(after)
                    cells[cell] = replaced
                    fields.append((f"low_after_{side}", cells))
            for key, replaced in fields:
                yield {**witness, "trace": [*trace[:i], {**entry, key: replaced}, *trace[i + 1 :]]}


def ss_witness_mutations(witness, word_values, code_length):
    """The witness with one field changed: per step, each pc +-1, each
    ``regs``, ``mem`` and ``low_after`` cell + 1 mod the word, each ``regs``
    and ``mem`` cell set to ``True``, ``word_values``, -1 or its float, each
    ``regs`` list given as a tuple, or the two actions swapped; per later
    step, each pc set to -1 or to ``code_length``, the first pc outside the
    code; the last step dropped, or repeated; or one of
    ``ss_witness_retypings``."""
    trace = witness["trace"]

    def changed(i, fields):
        return {**witness, "trace": [*trace[:i], {**trace[i], **fields}, *trace[i + 1 :]]}

    for i, entry in enumerate(trace):
        for side in "ab":
            pc = entry[f"pc_{side}"]
            for moved in (pc + 1, pc - 1, *((-1, code_length) if i else ())):
                yield changed(i, {f"pc_{side}": moved})
            for key in (f"regs_{side}", f"mem_{side}", f"low_after_{side}"):
                for cell, value in enumerate(entry[key]):
                    bad = (True, word_values, -1, float(value))
                    if key == f"low_after_{side}":
                        bad = ()
                    for replaced in ((value + 1) % word_values, *bad):
                        cells = list(entry[key])
                        cells[cell] = replaced
                        yield changed(i, {key: cells})
            yield changed(i, {f"regs_{side}": tuple(entry[f"regs_{side}"])})
        yield changed(i, {"action_a": entry["action_b"], "action_b": entry["action_a"]})
    yield {**witness, "trace": trace[:-1]}
    yield {**witness, "trace": trace + trace[-1:]}
    yield from ss_witness_retypings(witness)


# Leaking programs whose witnesses pass through a ``jmp``, which
# ``random_risc_program`` never draws: a diagonal jump to the leak, a
# backward jump, and a jump on one side of a split pair, past a low write
# or past a low output onto the last instruction.
JMP_LEAKS = (
    "jmp l1\nnop\nl1: out low rh0",
    "jmp l1\nl0: out low rh0\nl1: jmp l0",
    "jz l1 rh0\njmp l2\nl1: movek rl0 1\nl2: out low rl0",
    "jz l1 rh0\njmp l2\nl1: out low rl0\nl2: nop",
)


def test_ss_replay_keeps_every_check_of_the_reference_replay():
    """On every strong-security witness of a random pool and of the ``jmp``
    leaks, and on each of its one-field mutations, ``replay_ss_witness``
    answers as the per-step reference on ``machine.step`` does: the same
    bool, or an exception of the same type."""

    def outcome(replay, program, cfg, witness):
        try:
            return replay(program, cfg, witness)
        except Exception as exc:  # the type is compared
            return type(exc)

    def compare(program, cfg, witness, where):
        assert replay_ss_witness(program, cfg, witness), where
        for mutant in ss_witness_mutations(witness, cfg.word_values, len(program)):
            expected = outcome(reference_replay_ss_witness, program, cfg, mutant)
            assert outcome(replay_ss_witness, program, cfg, mutant) == expected, where
            seen[expected] += 1

    seen = Counter()
    for width in (1, 2):
        rng = Random(20 + width)
        cfg = standard_config(width, 1, 1, (LOW, HIGH), True)
        for draw in range(150):
            program = random_risc_program(rng, cfg, 8)
            verdict = check_strong_security(program, cfg)
            if verdict.secure:
                continue
            seen["witness"] += 1
            compare(program, cfg, verdict.witness, (width, draw))
        for text in JMP_LEAKS:
            program = assemble(text)
            witness = check_strong_security(program, cfg).witness
            jumps = {pc for pc, instr in enumerate(program.instructions) if instr.op == "jmp"}
            assert any(
                entry[f"pc_{side}"] in jumps for entry in witness["trace"] for side in "ab"
            ), (width, text)
            compare(program, cfg, witness, (width, text))
    assert seen["witness"] >= 150 and min(seen[True], seen[False]) >= 100, seen


def test_ss_replay_refuses_a_float_or_bool_for_an_int():
    """A pc, low part after or initial cell that equals the checker's int but
    is a float or bool fails the replay; nothing raises."""
    retypings = 0
    for width in (1, 2):
        rng = Random(20 + width)
        cfg = standard_config(width, 1, 1, (LOW, HIGH), True)
        programs = [random_risc_program(rng, cfg, 8) for _ in range(40)]
        for program in programs + [assemble(text) for text in JMP_LEAKS]:
            verdict = check_strong_security(program, cfg)
            if verdict.secure:
                continue
            for mutant in ss_witness_retypings(verdict.witness):
                assert replay_ss_witness(program, cfg, mutant) is False, (width, mutant)
                retypings += 1
    assert retypings >= 500, retypings


def test_ss_witness_high_parts_are_the_first_matching_high_vectors():
    # Each witness state holds its entry's operands; its high part must be the
    # first full high vector, in product order, that steps alike.
    for width in (1, 2):
        rng = Random(23)
        cfg = standard_config(width, 1, 1, (LOW, HIGH))
        violations = 0
        for draw in range(150):
            program = random_risc_program(rng, cfg, 6)
            verdict = check_strong_security(program, cfg)
            if verdict.secure:
                continue
            violations += 1
            highs = cfg.cells_of_level(HIGH)
            for entry in verdict.witness["trace"]:
                for side in "ab":
                    pc = entry[f"pc_{side}"]
                    regs, mem = entry[f"regs_{side}"], entry[f"mem_{side}"]
                    state = MachineState(pc, tuple(regs), tuple(mem))
                    seen = observe(program, cfg, state)
                    first = next(
                        hi_vec
                        for hi_vec in itertools.product(range(cfg.word_values), repeat=len(highs))
                        if observe(program, cfg, _with_cells(state, highs, hi_vec)) == seen
                    )
                    assert _cells(state, highs) == first, (width, draw, pc)
        assert violations, width


def test_ss_summaries_match_brute_force_enumeration():
    # The per-pc summaries, memoised on the low slots each pc touches and
    # lifted onto every full low vector, must agree with direct enumeration
    # of every high assignment, and each entry's operands must give the
    # first high vector that steps to it.
    rng = Random(13)
    cfg = tiny_cfg(mem=(LOW, HIGH, HIGH))
    for _ in range(12):
        program = random_risc_program(rng, cfg, length=6)
        tables = _SSTables(program, cfg)
        hi_cells = tables.highs
        for pc in range(len(program) + 1):
            for lo in itertools.product(range(cfg.word_values), repeat=len(tables.lows)):
                brute = set()
                for hi_vec in itertools.product(range(cfg.word_values), repeat=len(hi_cells)):
                    data = [0] * (len(cfg.registers) + cfg.memory_size)
                    for cell, val in zip(tables.lows + hi_cells, lo + hi_vec):
                        data[cell] = val
                    nregs = len(cfg.registers)
                    state = MachineState(pc, tuple(data[:nregs]), tuple(data[nregs:]))
                    brute.add(observe(program, cfg, state))
                lifted = {after(lo, e) for e in tables.entries(pc, lo)}
                assert brute == lifted, (pc, lo)
                for entry in tables.entries(pc, lo):
                    cells, values = tuple(zip(*entry[3])) or ((), ())
                    state = _state_at(cfg, pc, tables.lows + cells, lo + values)
                    first = realize(program, cfg, pc, lo, after(lo, entry))
                    assert state == first, (pc, lo, entry)


def brute_force_strong_security(program, cfg):
    """Independent oracle: full refinement over all point pairs and data pairs."""
    lows = cfg.cells_of_level(LOW)
    values = range(cfg.word_values)
    data_states = [
        (regs, mem)
        for regs in itertools.product(values, repeat=len(cfg.registers))
        for mem in itertools.product(values, repeat=cfg.memory_size)
    ]
    low_of = {}
    for regs, mem in data_states:
        key = tuple((regs + mem)[cell] for cell in lows)
        low_of[(regs, mem)] = key
    groups: dict = {}
    for d in data_states:
        groups.setdefault(low_of[d], []).append(d)
    points = range(len(program) + 1)
    # the one-step observations of every data state in a low group, per point
    seen = {
        (pc, lo): {observe(program, cfg, MachineState(pc, regs, mem)) for regs, mem in group}
        for pc in points
        for lo, group in groups.items()
    }
    related = {(p, q) for p in points for q in points}
    changed = True
    while changed:
        changed = False
        for pair in sorted(related):
            p, q = pair
            ok = all(
                act_a == act_b and lo_a == lo_b and (pc_a, pc_b) in related
                for lo in groups
                for act_a, lo_a, pc_a in seen[(p, lo)]
                for act_b, lo_b, pc_b in seen[(q, lo)]
            )
            if not ok:
                related.discard(pair)
                changed = True
    return (0, 0) in related


def test_ss_matches_brute_force_refinement():
    # Both configs have two low registers and a low cell; random programs mix
    # them, so the low slots touched by the two points of a pair differ.
    for cfg in (tiny_cfg(mem=(LOW, HIGH)), standard_config(2, 2, 1, (LOW, HIGH))):
        rng = Random(59)
        programs = [random_risc_program(rng, cfg, length=5) for _ in range(40)]
        programs.append(assemble(CONSTANT_OUT))
        programs.append(assemble(LEAKY_OUT))
        for program in programs:
            expected = brute_force_strong_security(program, cfg)
            got = check_strong_security(program, cfg).secure
            assert got == expected, (cfg.width, disassemble_for_debug(program))


def disassemble_for_debug(program):
    from ftnilab.machine import disassemble

    return disassemble(program)


class _FullSummaries(_SSTables):
    """Summaries with no shortcut: ``effect`` runs over every word of every
    high cell an instruction reads, silent steps included, and every
    instruction touches the low slots it reads or writes.  Entries carry no
    operands; the oracle's witness states come from ``realize``."""

    def __init__(self, program, cfg):
        super().__init__(program, cfg)
        slots = self.slot_of_cell
        self.touched = {
            pc: tuple(sorted({slots[c] for c in (*op.sources, op.dest) if c in slots}))
            for pc, op in enumerate(self.ops)
        }

    def _summarize(self, pc, lo):
        if not 0 <= pc < len(self.ops):
            return ((TAU, (), pc, ()),)
        instr = self.ops[pc]
        slots = self.slot_of_cell
        every = range(self.cfg.word_values)
        value_sets = [(lo[slots[c]],) if c in slots else every for c in instr.sources]
        dest = slots.get(instr.dest)
        out = set()
        for args in itertools.product(*value_sets):
            action, value, nxt = effect(instr, args, pc, self.cfg.width)
            write = () if dest is None or value in (None, lo[dest]) else (dest, value)
            out.add((low(action), write, nxt, ()))
        return tuple(sorted(out, key=lambda e: (str(e[0]), e[1], e[2])))


def ss_full_enumeration_oracle(program, cfg):
    """Independent oracle for ``check_strong_security``: the same breadth-first
    pair walk, but every reached pair, diagonal or not, is walked over every
    value of the low slots its two instructions touch, on full summaries,
    and each witness state is the first one ``realize`` finds on
    ``machine.step``."""
    tables = _FullSummaries(program, cfg)
    every = range(cfg.word_values)
    parent = {(0, 0): None}
    queue = deque(parent)
    while queue:
        pair = queue.popleft()
        p, q = pair
        touched = {*tables.touched.get(p, ()), *tables.touched.get(q, ())}
        value_sets = [every if s in touched else (0,) for s in range(len(tables.lows))]
        for lo in itertools.product(*value_sets):
            e1s, e2s = tables.entries(p, lo), tables.entries(q, lo)
            split = next(((a, b) for a in e1s for b in e2s if a[:2] != b[:2]), None)
            if split is not None:
                chain = _chain(parent, (pair, lo, *split))
                return Verdict("ss", "violation", None, _oracle_witness(program, cfg, tables, chain))
            for e1 in e1s:
                for e2 in e2s:
                    succ = (e1[2], e2[2])
                    if succ not in parent:
                        parent[succ] = (pair, lo, e1, e2)
                        queue.append(succ)
    return Verdict("ss", "secure-up-to-bound", None)


def _oracle_witness(program, cfg, tables, chain):
    """The witness of a chain of (pair, low part, entry at p, entry at q),
    with each state the first one ``realize`` finds for its entry."""
    lows, highs, nregs = cfg.cells_of_level(LOW), cfg.cells_of_level(HIGH), len(cfg.registers)

    def named(state, cells):
        return {
            f"reg{cell}" if cell < nregs else f"mem{cell - nregs}": value
            for cell, value in zip(cells, _cells(state, cells))
        }

    steps = []
    for (p, q), lo, e1, e2 in chain:
        seen = after(lo, e1), after(lo, e2)
        steps.append((*(realize(program, cfg, pc, lo, o) for pc, o in zip((p, q), seen)), *seen))
    first_a, first_b = steps[0][:2]
    trace = [
        {
            "pc_a": a.pc, "pc_b": b.pc,
            "regs_a": list(a.regs), "mem_a": list(a.mem),
            "regs_b": list(b.regs), "mem_b": list(b.mem),
            "action_a": str(seen_a[0]), "action_b": str(seen_b[0]),
            "low_after_a": list(seen_a[1]), "low_after_b": list(seen_b[1]),
        }
        for a, b, seen_a, seen_b in steps
    ]
    return {
        "initial_low": named(first_a, lows),
        "initial_high_a": named(first_a, highs),
        "initial_high_b": named(first_b, highs),
        "trace": trace,
    }


def ss_cases():
    """The corpus and the shrunken hash at widths 1-3, and random programs,
    ``jlez`` among their opcodes, at widths 1-3 on machines with memory."""
    for width in (1, 2, 3):
        for name, text in CORPUS:
            src = parse(text)
            cfg = config_for_source(src, width)
            yield f"{name} w{width}", compile_program(src, cfg).program, cfg
        src = parse(SHRUNKEN_HASH, allow_positive_guards=True)
        cfg = config_for_source(src, width, enable_jlez=True)
        yield f"shrunken hash w{width}", compile_program(src, cfg).program, cfg
    configs = (
        standard_config(1, 2, 2, (LOW, HIGH), enable_jlez=True),
        standard_config(2, 1, 2, (HIGH, LOW), enable_jlez=True),
        standard_config(3, 2, 1, (HIGH,), enable_jlez=True),
    )
    for seed in range(300):
        cfg = configs[seed % 3]
        program = random_risc_program(Random(seed), cfg, 6 + seed % 5)
        yield f"draw {seed} w{cfg.width}", program, cfg


def test_ss_matches_the_full_enumeration_oracle():
    # Diagonal pairs that read no high cell walk only a conditional jump's
    # low source, and silent summaries run no ``effect``; neither may change
    # a verdict or a witness.
    violations = 0
    for case, program, cfg in ss_cases():
        expected = ss_full_enumeration_oracle(program, cfg).to_json()
        assert check_strong_security(program, cfg).to_json() == expected, case
        violations += expected["status"] == "violation"
    assert violations >= 150


@pytest.mark.parametrize(
    "source, width, jlez",
    [
        pytest.param(SHRUNKEN_HASH, 4, True, id="shrunken_hash-w4"),
        pytest.param(dict(CORPUS)["cache_churn"], 3, False, id="cache_churn-w3"),
        pytest.param(dict(CORPUS)["cache_churn"], 4, False, id="cache_churn-w4"),
    ],
)
def test_ss_secure_over_large_low_spaces(source, width, jlez):
    # 16**4, 8**5 and 16**5 low states: each point pair is checked over the
    # few low cells its two instructions touch, never over the whole low
    # space, and the budget is charged for those cells only.
    src = parse(source, allow_positive_guards=jlez)
    cfg = config_for_source(src, width, enable_jlez=jlez)
    assert check_strong_security(compile_program(src, cfg).program, cfg).secure


def test_ss_budget_guard():
    # (0, 0) and the diagonal (1, 1) walk one low assignment each; the
    # off-diagonal (1, 2) that the secret jump reaches walks the 8**2 values
    # of the two low registers its adds touch
    cfg = standard_config(3, 2, 2, (LOW,) * 4)
    program = assemble("jz l1 rh0\nadd rl0 rl1\nl1: add rl0 rl1")
    with pytest.raises(BudgetExceeded, match="low assignments walked: 66 exceeds the limit of 10"):
        check_strong_security(program, cfg, CheckConfig(budget=10))


def test_ss_silent_side_walks_no_slot():
    # (1, 2) pairs the silent ``load rh1 0`` with an add of the two low
    # registers: it walks their 8**2 values, but not the low cell mem0 that
    # only the silent side reads, so the split there costs 1 + 1 + 64
    cfg = standard_config(3, 2, 2, (LOW,) * 4)
    program = assemble("jz l1 rh0\nload rh1 0\nl1: add rl0 rl1")
    verdict = check_strong_security(program, cfg, CheckConfig(budget=66))
    assert verdict.status == "violation"
    assert [(s["pc_a"], s["pc_b"]) for s in verdict.witness["trace"]] == [(0, 0), (1, 2)]
    assert verdict.witness["trace"][-1]["low_after_b"] == [1, 1, 0, 0, 0, 0]
    assert replay_ss_witness(program, cfg, verdict.witness)


def test_ss_stops_at_the_first_split():
    # (0, 0) and (1, 1) walk one low assignment each, and (1, 1) splits on the
    # secret output; walking on to (1, 2), whose add reads both 8-word low
    # registers, would charge 64 more and pass the limit of 20
    cfg = standard_config(3, 2, 2, ())
    program = assemble("jz l1 rh0\nout low rh0\nl1: add rl0 rl1")
    verdict = check_strong_security(program, cfg, CheckConfig(budget=20))
    assert verdict.status == "violation"
    assert [(s["pc_a"], s["pc_b"]) for s in verdict.witness["trace"]] == [(0, 0), (1, 1)]
    assert replay_ss_witness(program, cfg, verdict.witness)
    assert verdict == check_strong_security(program, cfg)


def test_ss_fixed_diagonal_steps_build_no_summary():
    # (0, 0) and (1, 1) are fixed by the code: the movek reads no cell and the
    # add is silent, so each walks one low assignment and builds no summary;
    # only the secret output at (2, 2) runs ``effect``, over the 8 words of rh0
    cfg = standard_config(3, 1, 2, ())
    program = assemble("movek rl0 1\nadd rh0 rh1\nout low rh0")
    with pytest.raises(BudgetExceeded, match="summary evaluations: 8 exceeds the limit of 7$"):
        check_strong_security(program, cfg, CheckConfig(budget=7))
    verdict = check_strong_security(program, cfg)
    trace = verdict.witness["trace"]
    assert [(s["pc_a"], s["pc_b"]) for s in trace] == [(0, 0), (1, 1), (2, 2)]
    # the movek step's entry is built with the witness: both sides write rl0 = 1
    assert trace[0]["low_after_a"] == trace[0]["low_after_b"] == [1]
    assert (trace[0]["action_a"], trace[0]["action_b"]) == ("tau", "tau")
    assert replay_ss_witness(program, cfg, verdict.witness)


def test_ss_fixed_jmp_goes_to_its_target():
    # a diagonal jmp is a fixed step to its target: it skips the secret
    # output in the first program and lands on it in the second
    cfg = standard_config(2, 1, 1, ())
    skipped = assemble("jmp l1\nout low rh0\nl1: out low rl0")
    assert check_strong_security(skipped, cfg).secure
    program = assemble("jmp l1\nnop\nl1: out low rh0")
    verdict = check_strong_security(program, cfg)
    trace = verdict.witness["trace"]
    assert [(s["pc_a"], s["pc_b"]) for s in trace] == [(0, 0), (2, 2)]
    assert replay_ss_witness(program, cfg, verdict.witness)


# -- possibilistic checking ------------------------------------------------------


def test_poni_secure_with_empty_scope():
    cfg = tiny_cfg()
    verdict = check_poni(assemble(CONSTANT_OUT), cfg, CheckConfig(depth=3, fault_scope=()))
    assert verdict.secure and verdict.bound == 3


def test_poni_leak_found_and_witness_replays():
    cfg = tiny_cfg()
    program = assemble(LEAKY_OUT)
    verdict = check_poni(program, cfg, CheckConfig(depth=3))
    assert not verdict.secure
    assert verdict.witness["trace"][-1]["low_a"] != verdict.witness["trace"][-1]["low_b"]
    assert replay_poni_witness(program, cfg, verdict.witness)


def test_poni_replay_rejects_a_changed_high_value_or_fault_set():
    # The ``and`` clears its secret operand unless the flip of rl1_0 before
    # it keeps rl1 at 1; only then does the low output show rh0.
    program = assemble("movek rl1 0\nand rl1 rh0\nout low rl1")
    cfg = tiny_cfg()
    assert check_poni(program, cfg, CheckConfig(depth=3, fault_scope=())).secure
    witness = check_poni(program, cfg, CheckConfig(depth=3)).witness
    assert [step["faults"] for step in witness["trace"]] == [[], ["rl1_0"], []]
    assert replay_poni_witness(program, cfg, witness)
    same_high = copy.deepcopy(witness)
    same_high["initial_high_b"] = dict(witness["initial_high_a"])
    no_fault = copy.deepcopy(witness)
    no_fault["trace"][1]["faults"] = []
    assert not replay_poni_witness(program, cfg, same_high)
    assert not replay_poni_witness(program, cfg, no_fault)


def test_poni_walks_the_masks_either_side_tells_apart():
    """After the ``jz`` the sides sit at pcs 2 and 1, where rl1 and rl0 with
    rl1 are live: a flip of rl0, which side a cannot tell from none, splits
    them, and it is the least mask that does."""
    program, cfg = assemble("jz l rh0\nout low rl0\nl: out low rl1"), standard_config(1, 2, 1, ())
    witness = check_poni(program, cfg, CheckConfig(depth=2)).witness
    assert witness["trace"] == [
        {"faults": [], "low_a": "tau", "low_b": "tau"},
        {"faults": ["rl0_0"], "low_a": "low!0", "low_b": "low!1"},
    ]
    assert replay_poni_witness(program, cfg, witness)


# ``end`` is the only pc a run reaches after pc 0: the ``out`` at pc 1 is
# skipped, so the program is POni- and PNI-secure, and only a run started at
# pc 1, or a flip of the fault-tolerant pc, shows rh0.
SKIPPED_OUT = "jmp end\nout low rh0\nend: nop"


def forged_poni_witness(initial_low, high_b, faults, lows):
    return {
        "initial_low": initial_low,
        "initial_high_a": {},
        "initial_high_b": high_b,
        "trace": [{"faults": faults, "low_a": lows[0], "low_b": lows[1]}],
    }


@pytest.mark.parametrize(
    "text, witness",
    [
        pytest.param(
            SKIPPED_OUT,
            forged_poni_witness({}, {"rh0_0": 1}, ["pc_0"], ("low!0", "low!1")),
            id="fault-tolerant-fault",
        ),
        pytest.param(
            SKIPPED_OUT,
            forged_poni_witness({}, {"rh0_0": 1}, ["no_such_bit"], ("low!0", "low!1")),
            id="unknown-fault",
        ),
        pytest.param(
            SKIPPED_OUT,
            forged_poni_witness({"pc_0": 1}, {"rh0_0": 1}, [], ("low!0", "low!1")),
            id="low-names-the-pc",
        ),
        pytest.param(
            SKIPPED_OUT,
            forged_poni_witness({}, {"pc_0": 1}, [], ("tau", "low!0")),
            id="high-names-the-pc",
        ),
        pytest.param(
            "out low rl0",
            forged_poni_witness({}, {"rl0_0": 1}, [], ("low!0", "low!1")),
            id="high-names-a-low-bit",
        ),
        pytest.param(
            SKIPPED_OUT,
            forged_poni_witness([], {"rh0_0": 1}, [], ("low!0", "low!1")),
            id="low-not-an-object",
        ),
        pytest.param(
            SKIPPED_OUT,
            {**forged_poni_witness({}, {"rh0_0": 1}, [], ("low!0", "low!1")), "trace": 5},
            id="trace-not-a-list",
        ),
        pytest.param(
            SKIPPED_OUT,
            {**forged_poni_witness({}, {"rh0_0": 1}, [], ("low!0", "low!1")), "trace": [5]},
            id="step-not-an-object",
        ),
        pytest.param(
            SKIPPED_OUT,
            forged_poni_witness({}, {"rh0_0": 1}, [["x"]], ("low!0", "low!1")),
            id="fault-not-a-name",
        ),
    ],
)
def test_poni_replay_rejects_a_forged_witness(text, witness):
    """Each step re-executes as claimed, but from a start the checker never
    takes or under a flip the attacker cannot make, on a secure program."""
    program, cfg = assemble(text), standard_config(1, 1, 1, (LOW, HIGH))
    assert check_poni(program, cfg, CheckConfig(depth=3)).secure
    assert not replay_poni_witness(program, cfg, witness)


def test_poni_replay_refuses_an_empty_trace():
    """A trace with no step has no last step to split at."""
    program, cfg = assemble(CONSTANT_OUT), tiny_cfg()
    assert check_poni(program, cfg, CheckConfig(depth=3)).secure
    witness = {"initial_low": {}, "initial_high_a": {}, "initial_high_b": {}, "trace": []}
    assert not replay_poni_witness(program, cfg, witness)


def test_poni_empty_program_secure():
    verdict = check_poni(RiscProgram(()), tiny_cfg(), CheckConfig(depth=4))
    assert verdict.secure


def test_poni_flip_can_reveal_branching():
    # Constant-looking program whose low cell is flipped into the output path.
    text = "load rl0 0\nout low rl0"
    cfg = tiny_cfg(mem=(LOW, HIGH))
    verdict = check_poni(assemble(text), cfg, CheckConfig(depth=3))
    assert verdict.secure  # low-cell differences are part of the shared low state


def test_poni_budget_guard():
    cfg = tiny_cfg()
    with pytest.raises(BudgetExceeded):
        check_poni(assemble(LEAKY_OUT + "\njmp l0\nl0: nop"), cfg, CheckConfig(depth=6, budget=3))


# -- probabilistic checking -------------------------------------------------------


def test_pni_depth_zero_always_secure():
    cfg = tiny_cfg()
    system = RiscSystem(assemble(LEAKY_OUT), cfg)
    env = uniform_environment(Fraction(1, 4), system.faulty_names)
    verdict = check_pni(assemble(LEAKY_OUT), cfg, env, CheckConfig(depth=0))
    assert verdict.secure


def test_check_config_refuses_a_negative_depth():
    with pytest.raises(ValueError, match="depth must be at least 0, not -1"):
        CheckConfig(depth=-1)
    # depth 0 stays the vacuous bound of both checkers; depth 1 sees the leak
    program, cfg = assemble("out low rh0"), standard_config(1, 1, 1, (LOW, HIGH))
    env = uniform_environment(Fraction(1, 4), RiscSystem(program, cfg).faulty_names)
    assert check_poni(program, cfg, CheckConfig(depth=0)).to_json() == {
        "checker": "poni", "status": "secure-up-to-bound", "bound": 0
    }
    assert check_pni(program, cfg, env, CheckConfig(depth=0)).secure
    assert not check_poni(program, cfg, CheckConfig(depth=1)).secure
    assert not check_pni(program, cfg, env, CheckConfig(depth=1)).secure


def test_pni_faultfree_environment_sees_the_leak():
    cfg = tiny_cfg()
    program = assemble(LEAKY_OUT)
    system = RiscSystem(program, cfg)
    env = uniform_environment(Fraction(0), system.faulty_names)
    verdict = check_pni(program, cfg, env, CheckConfig(depth=3))
    assert not verdict.secure
    pa, pb = verdict.witness["probabilities"]
    assert {pa, pb} == {"1", "0"}
    assert replay_pni_witness(program, cfg, env, verdict.witness, CheckConfig(depth=3))


def test_pni_replay_rejects_a_changed_probability_or_high_value():
    program, cfg = assemble(LEAKY_OUT), tiny_cfg()
    env = uniform_environment(Fraction(1, 4), RiscSystem(program, cfg).faulty_names)
    witness = check_pni(program, cfg, env, CheckConfig(depth=3)).witness
    assert replay_pni_witness(program, cfg, env, witness)
    pa, pb = witness["probabilities"]
    for probabilities in ([pa, pa], [pb, pa], [pa, "1/3"]):
        tampered = {**witness, "probabilities": probabilities}
        assert not replay_pni_witness(program, cfg, env, tampered)
    same_high = {**witness, "initial_high_b": witness["initial_high_a"]}
    assert not replay_pni_witness(program, cfg, env, same_high)


@pytest.mark.parametrize(
    "text, initial_low, high_b, trace, probabilities",
    [
        pytest.param(
            SKIPPED_OUT, {"pc_0": 1}, {"rh0_0": 1}, ["low!0"], ["1", "0"], id="low-names-the-pc"
        ),
        pytest.param(SKIPPED_OUT, {}, {"pc_0": 1}, ["low!0"], ["0", "1"], id="high-names-the-pc"),
        pytest.param(
            "out low rl0", {}, {"rl0_0": 1}, ["low!0"], ["1", "0"], id="high-names-a-low-bit"
        ),
        pytest.param(SKIPPED_OUT, [], {"rh0_0": 1}, ["low!0"], ["1", "0"], id="low-not-an-object"),
        pytest.param(SKIPPED_OUT, {}, {"rh0_0": 1}, 5, ["1", "0"], id="trace-not-a-list"),
        pytest.param(SKIPPED_OUT, {}, {"rh0_0": 1}, [1], ["1", "0"], id="action-not-a-string"),
    ],
)
def test_pni_replay_rejects_a_forged_start(text, initial_low, high_b, trace, probabilities):
    program, cfg = assemble(text), standard_config(1, 1, 1, (LOW, HIGH))
    env = uniform_environment(Fraction(0), cfg.data_bit_names())
    assert check_pni(program, cfg, env, CheckConfig(depth=3)).secure
    witness = {
        "initial_low": initial_low,
        "initial_high_a": {},
        "initial_high_b": high_b,
        "trace": trace,
        "probabilities": probabilities,
    }
    assert not replay_pni_witness(program, cfg, env, witness)


def test_poni_and_pni_replays_reject_a_bit_value_other_than_0_or_1():
    """A witness names each bit 0 or 1; a 3 is not read as its bit 0."""
    program, cfg = assemble("out low rh0"), standard_config(1, 1, 1, (LOW, HIGH))
    env = uniform_environment(Fraction(1, 4), cfg.data_bit_names())
    poni = check_poni(program, cfg, CheckConfig(depth=3)).witness
    pni = check_pni(program, cfg, env, CheckConfig(depth=3)).witness
    assert poni["initial_high_b"] == pni["initial_high_b"] == {"rh0_0": 1, "m1_0": 0}
    assert replay_poni_witness(program, cfg, poni) and replay_pni_witness(program, cfg, env, pni)
    assert not replay_poni_witness(program, cfg, {**poni, "initial_high_b": {"rh0_0": 3}})
    assert not replay_pni_witness(program, cfg, env, {**pni, "initial_high_b": {"rh0_0": 3}})


def test_pni_replay_rejects_a_trace_entry_that_names_no_action():
    program, cfg = assemble("out low rh0"), standard_config(1, 1, 1, (LOW, HIGH))
    env = uniform_environment(Fraction(1, 4), cfg.data_bit_names())
    witness = check_pni(program, cfg, env, CheckConfig(depth=3)).witness
    assert replay_pni_witness(program, cfg, env, witness)
    assert not replay_pni_witness(program, cfg, env, {**witness, "trace": ["bogus"]})


def test_pni_constant_program_secure_across_family():
    cfg = tiny_cfg()
    program = assemble(CONSTANT_OUT)
    scope = default_scope(RiscSystem(program, cfg))
    for name, env in environment_family(scope):
        verdict = check_pni(program, cfg, env, CheckConfig(depth=3, fault_scope=scope))
        assert verdict.secure, name


def test_pni_agrees_with_poni_on_examples():
    cfg = tiny_cfg()
    for text in (CONSTANT_OUT, LEAKY_OUT):
        program = assemble(text)
        scope = default_scope(RiscSystem(program, cfg))
        check = CheckConfig(depth=3, fault_scope=scope)
        poni = check_poni(program, cfg, check)
        pni_results = [
            check_pni(program, cfg, env, check).secure
            for _, env in environment_family(scope)
        ]
        assert poni.secure == all(pni_results)


@pytest.mark.parametrize(
    "faults, message",
    [
        pytest.param(
            {frozenset({"bogus_0"}): Fraction(1)},
            "fault set ['bogus_0'] not within faulty locations",
            id="outside-the-faulty-locations",
        ),
        pytest.param(
            {frozenset(): Fraction(1, 3), frozenset({"rl0_0"}): Fraction(1, 4)},
            "fault distribution of E0 sums to 7/12, not 1",
            id="sum-7-12",
        ),
        pytest.param(
            {frozenset(): Fraction(3, 2), frozenset({"rl0_0"}): Fraction(-1, 2)},
            "negative probability",
            id="negative",
        ),
    ],
)
def test_pni_refuses_a_bad_attacker_on_a_strongly_secure_program(faults, message):
    # strong security would settle the program, but the attacker is checked
    # first; the replay refuses it alike
    program, cfg = assemble(CONSTANT_OUT), tiny_cfg()
    assert check_strong_security(program, cfg).secure
    env = EnvironmentSpec(("E0",), "E0", {("E0", WILDCARD): "E0"}, {"E0": faults})
    witness = {"initial_low": {}, "initial_high_a": {}, "initial_high_b": {}, "trace": ["tau"]}
    for check in (
        lambda: check_pni(program, cfg, env, CheckConfig(depth=3)),
        lambda: replay_pni_witness(program, cfg, env, {**witness, "probabilities": ["1", "0"]}),
    ):
        with pytest.raises(ValueError) as refused:
            check()
        assert str(refused.value) == message


def test_pni_builds_the_bit_level_system_only_to_compose(monkeypatch):
    built = []

    class CountingSystem(RiscSystem):
        def __init__(self, program, cfg):
            built.append(program)
            super().__init__(program, cfg)

    monkeypatch.setattr("ftnilab.verify.RiscSystem", CountingSystem)
    check = CheckConfig(depth=2, fault_scope=("rl0_0",))
    env = uniform_environment(Fraction(1, 4), ("rl0_0",))
    # the corpus is strongly secure, so the walk settles it: nothing is built
    for name, text in CORPUS:
        src = parse(text)
        cfg = config_for_source(src, 1)
        program = compile_program(src, cfg).program
        assert check_strong_security(program, cfg).secure, name
        assert check_pni(program, cfg, env, check).secure, name
    assert built == []
    # the padded conditional without its padding is SS-insecure: one build
    program = assemble(
        "load rh0 0\njz br0 rh0\nmovek rh1 1\nstore 0 rh1\nbr0: movek rl0 3\nout low rl0"
    )
    cfg = standard_config(1, 2, 2, (HIGH, LOW))
    assert not check_strong_security(program, cfg).secure
    check_pni(program, cfg, env, check)
    assert built == [program]
    # errors keep their order: the program, then the scope, then the attacker
    bad = EnvironmentSpec(("E0",), "E0", {("E0", WILDCARD): "E0"}, {"E0": {}})
    with pytest.raises(AssemblyError, match="unknown register 'rx9'"):
        check_pni(assemble("out low rx9"), cfg, bad, check)
    with pytest.raises(ValueError) as refused:
        check_pni(program, cfg, bad, CheckConfig(fault_scope=("pc_0", "rl0_0")))
    assert str(refused.value) == "fault scope outside the faulty locations: ['pc_0']"
    assert built == [program]


@pytest.mark.parametrize(
    "text, width, budget, tripped, status",
    [
        # strong security summarises ``out low rh0`` over all 2**16 words of
        # rh0, while the composition sees rh0 written first: one start
        pytest.param(
            "movek rh0 0\nout low rh0", 16, 1_000, "summary evaluations: 65536",
            "secure-up-to-bound", id="secure",
        ),
        # the walk pays 8**2 low assignments at (1, 2), while the composition
        # meets the timing leak in its first group of 8 starts
        pytest.param(
            "jz l1 rh0\nadd rl0 rl1\nl1: out low rl0", 3, 20, "low assignments walked: 66",
            "violation", id="violation",
        ),
    ],
)
def test_pni_composes_when_strong_security_exceeds_the_budget(
    text, width, budget, tripped, status
):
    program, cfg = assemble(text), standard_config(width, 2, 1, ())
    system = RiscSystem(program, cfg)
    scope = ("rh0_0",)
    check = CheckConfig(depth=3, fault_scope=scope, budget=budget)
    with pytest.raises(BudgetExceeded, match=f"{tripped} exceeds the limit of {budget}"):
        check_strong_security(program, cfg, check)
    for name, env in environment_family(scope):
        verdict = check_pni(program, cfg, env, check)
        assert verdict == _composed_pni(system, env, system.mask_of(scope), check), name
        assert verdict.status == status, name


def every_initial_group(system):
    """Every data state at pc 0, in product order over the registers and then
    the memory, encoded and grouped by the values of its low cells: the
    oracles compare every concrete start, whatever is live."""
    cfg = system.cfg
    values = range(cfg.word_values)
    groups: dict = {}
    for regs in itertools.product(values, repeat=len(cfg.registers)):
        for mem in itertools.product(values, repeat=cfg.memory_size):
            low_part = tuple(
                v for v, (_, lev) in zip(regs, cfg.registers) if lev is LOW
            ) + tuple(v for v, lev in zip(mem, cfg.memory_levels) if lev is LOW)
            state = system.encode(MachineState(0, regs, mem))
            groups.setdefault(low_part, []).append(state)
    return list(groups.values())


@pytest.mark.parametrize(
    "cfg",
    [
        standard_config(1, 2, 2, (HIGH, LOW, HIGH)),
        standard_config(2, 2, 2, (HIGH, LOW, HIGH)),
        standard_config(2, 1, 1, (LOW, HIGH)),
    ],
    ids=["w1-interleaved", "w2-interleaved", "w2-pool"],
)
def test_initial_groups_match_a_state_by_state_enumeration(cfg):
    # The seeds are the full enumeration taken to canonical form, with the
    # states and groups that repeat an earlier one dropped.  The programs
    # leave every cell dead at pc 0 (nop), or some low and some high cells
    # live and others dead.
    for text in (
        "nop",
        "out low rl0\nload rh0 1\nout low rh0",
        "out high rh0\nmovek rl0 1\nout low rl0",
        "jz l0 rh0\nload rl0 0\nl0: out low rl0",
    ):
        system = RiscSystem(assemble(text), cfg)
        every = every_initial_group(system)
        expected: list = []
        for states in every:
            canonical = list(dict.fromkeys(map(system.canonical, states)))
            if canonical not in expected:
                expected.append(canonical)
        assert list(_initial_groups(system, DEFAULT_BUDGET)) == expected, text

    data_bits = cfg.width * (len(cfg.registers) + cfg.memory_size)
    assert system.low_mask & system.high_mask == 0
    assert system.low_mask | system.high_mask == (1 << data_bits) - 1
    # the low mask keeps exactly what the low cells hold
    low_parts = [{s & system.low_mask for s in states} for states in every]
    assert all(len(parts) == 1 for parts in low_parts)
    assert len(set().union(*low_parts)) == len(every)


def reference_initial_groups(system, budget):
    """A test-only copy of ``_initial_groups`` that finds the live cells
    through ``canonical`` and packs every group's high parts anew, where the
    code reads ``relevant(0)`` and packs the high parts once per call."""
    cfg = system.cfg
    lows, highs = (
        [c for c in cfg.cells_of_level(level) if system.canonical(system.pack((c,), (1,)))]
        for level in (LOW, HIGH)
    )
    values = range(cfg.word_values)
    size = cfg.word_values ** len(highs)
    for n, lo_vec in enumerate(itertools.product(values, repeat=len(lows)), 1):
        if n * size > budget:
            raise BudgetExceeded(f"initial states: {n * size} exceeds the limit of {budget}")
        lo = system.pack(lows, lo_vec)
        hi_vecs = itertools.product(values, repeat=len(highs))
        yield [lo | system.pack(highs, hi_vec) for hi_vec in hi_vecs]


def drain(groups):
    """The groups a start enumeration yields, and the budget message it stops
    with, if any."""
    taken = []
    try:
        for group in groups:
            taken.append(group)
    except BudgetExceeded as exc:
        return taken, str(exc)
    return taken, None


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("memory", [(), (LOW, HIGH)], ids=["no-mem", "mem"])
@pytest.mark.parametrize("jlez", [False, True], ids=["jz", "jlez"])
def test_initial_groups_match_the_per_group_product(width, memory, jlez):
    """The same groups, in the same order, and the same budget exits."""
    cfg = standard_config(width, 2, 1, memory, jlez)
    rng = Random(width * 4 + len(memory) + jlez)
    exits = 0
    for _ in range(30):
        system = RiscSystem(random_risc_program(rng, cfg, 6), cfg)
        full = drain(reference_initial_groups(system, DEFAULT_BUDGET))
        assert drain(_initial_groups(system, DEFAULT_BUDGET)) == full
        assert full[1] is None
        for budget in (1, len(full[0][0]), len(full[0][0]) * 2 + 1):
            expected = drain(reference_initial_groups(system, budget))
            assert drain(_initial_groups(system, budget)) == expected
            exits += expected[1] is not None
    assert exits


def test_initial_groups_charge_the_first_group_before_packing_and_pack_highs_once():
    # Cells rl0, rh0, m0 (low), m1 (high), all live at pc 0: two live low
    # cells and two live high ones, so 4 groups of 4 starts at width 1.
    cfg = standard_config(1, 1, 1, (LOW, HIGH))
    system = RiscSystem(
        assemble("out low rh0\nout low rl0\nload rl0 0\nload rh0 1\nout low rh0"), cfg
    )
    packed = []
    pack = system.pack
    system.pack = lambda cells, values: packed.append(tuple(cells)) or pack(cells, values)
    with pytest.raises(BudgetExceeded, match="initial states: 4 exceeds the limit of 3"):
        next(_initial_groups(system, 3))
    assert packed == []

    groups = list(_initial_groups(system, DEFAULT_BUDGET))
    assert [len(group) for group in groups] == [4, 4, 4, 4]
    assert packed.count((1, 3)) == 4  # each high part once, not once per group
    assert packed.count((0, 2)) == 4
    assert groups == list(reference_initial_groups(system, DEFAULT_BUDGET))


def brute_force_poni(program, cfg, check):
    """Independent oracle: materialize and compare fault-annotated trace sets."""
    from ftnilab.faultlab import enumerate_augmented_runs
    from ftnilab.verify import _scope_names

    system = RiscSystem(program, cfg)
    scope = _scope_names(system.faulty_names, check)
    for states in every_initial_group(system):
        sets = [
            frozenset(run.trace for run in enumerate_augmented_runs(system, s, check.depth, scope))
            for s in states
        ]
        if any(s != sets[0] for s in sets[1:]):
            return False
    return True


# Raw random programs at width 1; this seed's eight draws are half secure and
# half leaky at the scope below.
_RNG = Random(5)
RANDOM_W1_DRAWS = [disassemble(random_risc_program(_RNG, tiny_cfg(), 8)) for _ in range(8)]


@pytest.mark.parametrize(
    "text,mem",
    [
        (CONSTANT_OUT, (LOW, HIGH)),
        (LEAKY_OUT, (LOW, HIGH)),
        ("load rl0 0\nout low rl0", (LOW, HIGH)),
        ("load rh0 1\nstore 0 rh0", (LOW, HIGH)),
        ("jz l0 rh0\nnop\nl0: out low rl0", (LOW,)),
    ]
    + [
        pytest.param(text, (LOW, HIGH), id=f"draw{i}")
        for i, text in enumerate(RANDOM_W1_DRAWS)
    ],
)
def test_poni_matches_brute_force_trace_sets(text, mem):
    program = assemble(text)
    cfg = tiny_cfg(mem=mem)
    scope = ("rl0_0", "rh0_0")
    check = CheckConfig(depth=3, fault_scope=scope)
    expected = brute_force_poni(program, cfg, check)
    verdict = check_poni(program, cfg, check)
    assert verdict.secure == expected
    assert verdict.secure or replay_poni_witness(program, cfg, verdict.witness)


def per_mask_poni(program, cfg, check, pairs=None):
    """The POni pair walk with one faulted step per mask in scope, as
    ``check_poni`` ran before it took one per class of masks a state tells
    apart (``RiscSystem.relevant``); the same charges (each pair's cuts, by
    the union of its sides' relevance masks), the same JSON.  The pairs it
    walks are appended to ``pairs`` when it is given."""
    from ftnilab.faultlab import _subsets, faulted_steps
    from ftnilab.verify import _bits_named, _charge, _scope_names

    system = RiscSystem(program, cfg)
    scope = _scope_names(system.faulty_names, check)
    scope_mask = system.mask_of(scope)
    parent = {
        (states[0], other): None
        for states in _initial_groups(system, check.budget)
        for other in states[1:]
    }
    masks = sorted(system.mask_of(subset) for subset in _subsets(scope))
    rows = {}

    def row(state):
        if state not in rows:
            rows[state] = tuple(zip(*faulted_steps(system, state, masks, True)))
        return rows[state]

    frontier, violation, walked = list(parent), None, 0
    for _ in range(check.depth):
        if not frontier:
            break
        walked += sum(
            2 ** len(system.names_of((system.relevant(a) | system.relevant(b)) & scope_mask))
            for a, b in frontier
        )
        _charge(walked, "faulted step pairs", check.budget)
        nxt = []
        if pairs is not None:
            pairs.extend(frontier)
        for pair in frontier:
            (lows_a, succs_a), (lows_b, succs_b) = row(pair[0]), row(pair[1])
            if lows_a != lows_b:
                violation = (pair, next(i for i, x in enumerate(lows_a) if x != lows_b[i]))
                break
            for i, succ in enumerate(zip(succs_a, succs_b)):
                if succ not in parent:
                    parent[succ] = (pair, i)
                    nxt.append(succ)
        if violation:
            break
        frontier = nxt
    if violation is None:
        return Verdict("poni", "secure-up-to-bound", check.depth)
    chain = _chain(parent, violation)
    origin_a, origin_b = chain[0][0]
    witness = {
        "initial_low": _bits_named(system, origin_a, system.low_mask),
        "initial_high_a": _bits_named(system, origin_a, system.high_mask),
        "initial_high_b": _bits_named(system, origin_b, system.high_mask),
        "trace": [
            {
                "faults": sorted(system.names_of(masks[i])),
                "low_a": str(system.observations[rows[sa][0][i]]),
                "low_b": str(system.observations[rows[sb][0][i]]),
            }
            for (sa, sb), i in chain
        ],
    }
    return Verdict("poni", "violation", check.depth, witness)


def compare_poni_with_per_mask_poni(draws):
    """``check_poni`` against ``per_mask_poni`` on each (draw, program,
    config, depth), at full scope, at default scope, and at default scope
    under a budget of 400: the JSON or the budget exit must be equal.  Counts
    each outcome, and as ``"split relevance"`` the walked pairs whose sides
    have different relevance masks."""
    seen = Counter()
    for draw, program, cfg, depth in draws:
        system = RiscSystem(program, cfg)
        scope = default_scope(system)
        for fault_scope, budget in ((None, DEFAULT_BUDGET), (scope, DEFAULT_BUDGET), (scope, 400)):
            check = CheckConfig(depth=depth, fault_scope=fault_scope, budget=budget)
            walked = []
            outcomes = []
            for walk in (check_poni, functools.partial(per_mask_poni, pairs=walked)):
                try:
                    outcomes.append(walk(program, cfg, check).to_json())
                except BudgetExceeded as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (draw, fault_scope, budget)
            seen[outcomes[0]["status"] if isinstance(outcomes[0], dict) else "budget"] += 1
            seen["split relevance"] += sum(
                system.relevant(a) != system.relevant(b) for a, b in walked
            )
    return seen


def test_poni_mask_classes_keep_every_verdict_witness_and_budget_exit():
    """``check_poni`` takes one faulted step per class of masks; on programs
    over every opcode, ``jmp`` included, its JSON and its budget exits are
    those of the per-mask walk, at full and default scope."""
    from test_machine import random_kernel_program

    rng = Random(19)
    draws = []
    for draw in range(200):
        width = 1 + draw % 2
        cfg = standard_config(width, 1, 1, (LOW, HIGH) if width == 1 else (HIGH,), True)
        draws.append((draw, random_kernel_program(rng, cfg, 4 + draw % 5), cfg, 2 + draw % 3))
    assert "jmp" in {instr.op for _, program, _, _ in draws for instr in program.instructions}
    seen = compare_poni_with_per_mask_poni(draws)
    assert min(seen["secure-up-to-bound"], seen["violation"], seen["budget"]) >= 10, seen


def high_jz_program(rng, cfg, length):
    """A random kernel program whose ``jz`` on the high register jumps forward
    over an ``out low`` to another ``out low``: after it, a pair's two sides
    sit at pcs with different live cells, so with different relevance masks,
    and each outputs a register the other side may not read."""
    from test_machine import random_kernel_program

    instrs = list(random_kernel_program(rng, cfg, length).instructions)
    jz = rng.randrange(length - 2)
    target = rng.randrange(jz + 2, length)
    high = cfg.registers_of_level(HIGH)[0]
    instrs[jz] = Instruction("jz", f"l{jz}", reg=high, target=f"l{target}")
    for pc in (rng.randrange(jz + 1, target), target):
        reg = rng.choice(cfg.register_names())
        instrs[pc] = Instruction("out", f"l{pc}", reg=reg, channel="low")
    return RiscProgram(instrs)


def test_poni_mask_classes_keep_every_verdict_on_high_branches():
    """The per-mask differential on draws that split at a high ``jz``, on a
    machine with two low registers: many walked pairs, and many violations,
    meet two relevance masks, and a walk over one side's masks only misses
    the least mask that splits some of them."""
    rng = Random(20)
    cfg = standard_config(1, 2, 1, (LOW, HIGH), True)
    draws = [
        (draw, high_jz_program(rng, cfg, 4 + draw % 5), cfg, 2 + draw % 3) for draw in range(120)
    ]
    seen = compare_poni_with_per_mask_poni(draws)
    assert seen["violation"] >= 30 and seen["split relevance"] >= 1, seen


def charge_ladder(walk, program, cfg, check):
    """Every running total ``walk`` charges, read off its budget exits by
    raising the budget to each total in turn, then its JSON."""
    charges = []
    while True:
        try:
            return charges, walk(program, cfg, check).to_json()
        except BudgetExceeded as exc:
            what, _, rest = str(exc).partition(": ")
            charges.append((what, int(rest.split()[0])))
            check = dataclasses.replace(check, budget=charges[-1][1])


def test_poni_charges_each_pair_the_cuts_of_both_sides():
    """Every charge of ``check_poni``, not only those a fixed budget trips
    on, is that of the per-mask walk, on draws whose pairs meet two
    relevance masks: a pair is charged for the masks within the union of
    its sides' masks, not for either side's alone."""
    rng = Random(22)
    cfg = standard_config(1, 2, 1, (LOW, HIGH), True)
    levels = 0
    for draw in range(40):
        program = high_jz_program(rng, cfg, 4 + draw % 5)
        check = CheckConfig(depth=2 + draw % 3, budget=0)
        ladder = charge_ladder(check_poni, program, cfg, check)
        assert ladder == charge_ladder(per_mask_poni, program, cfg, check), draw
        levels += sum(what == "faulted step pairs" for what, _ in ladder[0])
    assert levels >= 60, levels


def fault_sequence_oracle(system, env, state, depth):
    """Trace probabilities summed over every sequence of fault sets with
    nonzero odds, one faulted step each, in Fractions and unaggregated."""
    dist: dict = {}

    def go(s, e, n, prob, trace):
        if n == 0:
            dist[trace] = dist.get(trace, Fraction(0)) + prob
            return
        for subset, odds in env.fault_distribution(e).items():
            if odds:
                action, succ = faulted_step(system, s, system.mask_of(subset))
                obs = low(action)
                go(succ, env.advance(e, obs), n - 1, prob * odds, trace + (obs,))

    go(state, env.initial, depth, Fraction(1), ())
    return dist


# Fault odds with denominators 3 and 4 (a common denominator of 12) and one
# fault set of odds zero; the attacker moves on after each step.
MIXED_ODDS_ENV = scripted_environment(
    [
        (
            {
                frozenset(): Fraction(2, 3),
                frozenset({"rh0_0"}): Fraction(1, 3),
                frozenset({"rl0_0"}): Fraction(0),
            },
            "step",
        ),
        ({frozenset(): Fraction(1, 4), frozenset({"rl0_0", "rh0_0"}): Fraction(3, 4)}, "step"),
    ]
)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(CONSTANT_OUT, id="constant"),
        pytest.param(LEAKY_OUT, id="leaky"),
        pytest.param("load rl0 0\nout low rl0", id="low-load"),
        pytest.param("jz l0 rh0\nnop\nl0: out low rl0", id="high-branch"),
    ]
    + [pytest.param(text, id=f"draw{i}") for i, text in enumerate(RANDOM_W1_DRAWS[:4])],
)
def test_pni_integer_weights_match_the_fraction_oracle(text):
    """Trace distributions equal summed run probabilities, and check_pni's
    verdict equals the comparison of those oracle distributions."""
    program = assemble(text)
    cfg = tiny_cfg()
    system = RiscSystem(program, cfg)
    env = MIXED_ODDS_ENV
    depth = 3
    comp = Composition(system, env)
    assert comp.denominator == 12
    for env_state in env.states:
        masks, weights = comp._cut_table(env_state, system.faulty_mask)
        assert dict(zip(masks, weights)) == {
            system.mask_of(subset): int(prob * comp.denominator)
            for subset, prob in env.fault_distribution(env_state).items()
            if prob
        }
    secure = True
    for states in every_initial_group(system):
        dists = []
        for state in states:
            oracle: dict = {}
            for run in enumerate_runs(system, env, state, env.initial, depth):
                oracle[run.trace] = oracle.get(run.trace, Fraction(0)) + run.probability
            assert comp.trace_distribution(state, env.initial, depth) == oracle
            assert fault_sequence_oracle(system, env, state, depth) == oracle
            dists.append(oracle)
        secure = secure and all(dist == dists[0] for dist in dists)
    check = CheckConfig(depth=depth, fault_scope=("rl0_0", "rh0_0"))
    verdict = check_pni(program, cfg, env, check)
    assert verdict.secure == secure
    assert secure or replay_pni_witness(program, cfg, env, verdict.witness, check)


# An attacker that reads the public channel: its transitions name tau, low!0
# and low!1 explicitly, and every other observation (low!2 and low!3 at
# width 2) falls to the wildcard.
OBSERVING_ENV = EnvironmentSpec(
    ("A", "B", "C"),
    "A",
    {
        ("A", TAU): "A",
        ("A", output("low", 0)): "B",
        ("A", output("low", 1)): "C",
        ("A", WILDCARD): "B",
        ("B", output("low", 1)): "A",
        ("B", WILDCARD): "C",
        ("C", TAU): "C",
        ("C", output("low", 0)): "B",
        ("C", WILDCARD): "A",
    },
    {
        "A": {frozenset(): Fraction(1, 2), frozenset({"rh0_0"}): Fraction(1, 2)},
        "B": {frozenset(): Fraction(1, 3), frozenset({"rl0_0"}): Fraction(2, 3)},
        "C": {frozenset(): Fraction(3, 4), frozenset({"rl0_0", "rh0_0"}): Fraction(1, 4)},
    },
)


@pytest.mark.parametrize(
    "text,width",
    [
        pytest.param(CONSTANT_OUT, 1, id="constant-w1"),
        pytest.param(LEAKY_OUT, 1, id="masked-by-the-flips-w1"),
        pytest.param("out low rh1\nout low rl0", 1, id="leaky-w1"),
        pytest.param("load rl0 0\nout low rl0\nout low rl0", 1, id="low-load-w1"),
        pytest.param(RANDOM_W1_DRAWS[0], 1, id="draw0-w1"),
        pytest.param(RANDOM_W1_DRAWS[1], 1, id="draw1-w1"),
        pytest.param("movek rl0 3\nout low rl0\nout low rl0", 2, id="constant-w2"),
        pytest.param("load rl0 0\nout low rl0\nadd rl0 rl0\nout low rl0", 2, id="low-w2"),
        pytest.param("load rh0 1\nout low rh0\nout low rh0", 2, id="leaky-w2"),
    ],
)
def test_pni_matches_the_run_oracle_under_an_observing_attacker(text, width):
    """The composition advances the attacker per (attacker state, observation
    code); distributions, verdicts and witnesses must match the run oracle."""
    program = assemble(text)
    cfg = standard_config(width, 1, 1, (LOW, HIGH)) if width == 2 else tiny_cfg()
    system = RiscSystem(program, cfg)
    env = OBSERVING_ENV
    depth = 3
    comp = Composition(system, env)
    secure = True
    for states in every_initial_group(system):
        dists = []
        for state in states:
            oracle: dict = {}
            for run in enumerate_runs(system, env, state, env.initial, depth):
                oracle[run.trace] = oracle.get(run.trace, Fraction(0)) + run.probability
            assert comp.trace_distribution(state, env.initial, depth) == oracle
            dists.append(oracle)
        secure = secure and all(dist == dists[0] for dist in dists)
    check = CheckConfig(depth=depth, fault_scope=("rl0_0", "rh0_0"))
    verdict = check_pni(program, cfg, env, check)
    assert verdict.secure == secure
    assert secure or replay_pni_witness(program, cfg, env, verdict.witness, check)


# A two-bit fault scope inside wider attackers, each beside its copy written
# inside the scope: independent flips of the wide bits give the same flips of
# the scope's bits as the uniform attacker on the scope alone, and the strike
# script's sets are clipped by hand, with the odds of equal clipped sets summed.
SCOPE = ("rl0_0", "rh0_0")
WIDE_STRIKE = scripted_environment(
    [
        (
            {
                frozenset(): Fraction(1, 2),
                frozenset({"rl1_0"}): Fraction(1, 4),
                frozenset({"rh0_0", "m1_0"}): Fraction(1, 4),
            },
            "step",
        ),
        (
            {frozenset({"rl0_0", "rh1_0"}): Fraction(2, 3), frozenset({"rh0_0"}): Fraction(1, 3)},
            "low",
        ),
    ]
)
CLIPPED_STRIKE = scripted_environment(
    [
        ({frozenset(): Fraction(3, 4), frozenset({"rh0_0"}): Fraction(1, 4)}, "step"),
        ({frozenset({"rl0_0"}): Fraction(2, 3), frozenset({"rh0_0"}): Fraction(1, 3)}, "low"),
    ]
)


@pytest.mark.parametrize(
    "wide, clipped",
    [
        pytest.param(
            uniform_environment(Fraction(1, 4), tiny_cfg().layout.faulty_names),
            uniform_environment(Fraction(1, 4), SCOPE),
            id="uniform",
        ),
        pytest.param(WIDE_STRIKE, CLIPPED_STRIKE, id="strike"),
    ],
)
def test_scope_cuts_a_wider_attacker_as_its_copy_inside_the_scope(wide, clipped):
    """Under a scope, an attacker whose sets reach outside it composes as its
    copy inside the scope: equal trace distributions and faulted step
    totals, verdicts, replays and budget exits."""
    cfg = tiny_cfg()
    check = CheckConfig(depth=3, fault_scope=SCOPE)

    def outcome(program, env, budget):
        budgeted = dataclasses.replace(check, budget=budget)
        try:
            return check_pni(program, cfg, env, budgeted).to_json()
        except BudgetExceeded as exc:
            return str(exc)

    violations = exits = 0
    for text in [CONSTANT_OUT, LEAKY_OUT, "jz l0 rh0\nnop\nl0: out low rl0", *RANDOM_W1_DRAWS]:
        program = assemble(text)
        system = RiscSystem(program, cfg)
        comps = [Composition(system, wide, system.mask_of(SCOPE)), Composition(system, clipped)]
        for states in every_initial_group(system):
            for state in states:
                dist_wide, dist_clipped = (
                    comp.trace_distribution(state, comp.env.initial, check.depth) for comp in comps
                )
                assert dist_wide == dist_clipped, text
        assert comps[0].steps_taken == comps[1].steps_taken, text
        verdict = check_pni(program, cfg, wide, check)
        assert verdict == check_pni(program, cfg, clipped, check), text
        if not verdict.secure:
            violations += 1
            for env in (wide, clipped):
                assert replay_pni_witness(program, cfg, env, verdict.witness, check), text
        for budget in (10, 40, 160):
            found = outcome(program, wide, budget)
            assert found == outcome(program, clipped, budget), (text, budget)
            exits += isinstance(found, str)
    assert violations and exits


# -- bridging property -------------------------------------------------------------


# Raw programs at widths 1-2, on machines with memory and jlez, drawn from
# one seed; 71 of the 240 draws are strongly secure.
SS_POOL_CONFIGS = (
    standard_config(1, 1, 1, (LOW, HIGH), True),
    standard_config(2, 1, 1, (LOW, HIGH), True),
    tiny_cfg(jlez=True),
)


@functools.cache
def ss_secure_draws():
    rng = Random(1717)
    draws = []
    for i in range(240):
        cfg = SS_POOL_CONFIGS[i % len(SS_POOL_CONFIGS)]
        program = random_risc_program(rng, cfg, length=6)
        if check_strong_security(program, cfg).secure:
            draws.append((program, cfg))
    return tuple(draws)


def test_no_program_is_ss_secure_but_poni_leaky():
    draws = ss_secure_draws()
    assert len(draws) >= 50
    for program, cfg in draws:
        assert check_poni(program, cfg, CheckConfig(depth=4)).secure, disassemble(program)


def test_ss_secure_draws_are_pni_secure_by_composition():
    """What ``check_pni`` answers through strong security, the composition
    itself answers too, for every shipped attacker at depths 2 and 3."""
    for program, cfg in ss_secure_draws():
        system = RiscSystem(program, cfg)
        scope = default_scope(system)
        for depth in (2, 3):
            check = CheckConfig(depth=depth, fault_scope=scope)
            for name, env in environment_family(scope):
                verdict = _composed_pni(system, env, system.mask_of(scope), check)
                assert verdict.secure, (name, depth, disassemble(program))


def test_ss_violating_program_is_outside_the_implication():
    cfg = tiny_cfg()
    program = assemble(LEAKY_OUT)
    check = CheckConfig(depth=3)
    assert check_strong_security(program, cfg, check).status == "violation"
    assert not check_poni(program, cfg, check).secure


# -- timing balance -----------------------------------------------------------------


def compile_text(text, width=2, jlez=False):
    src = parse(text, allow_positive_guards=jlez)
    cfg = config_for_source(src, width, enable_jlez=jlez)
    return compile_program(src, cfg), cfg


def test_timing_balance_padded_conditional():
    result, cfg = compile_text("high h; low x; if h then h := 1 else { h := 1; h := 2 }; out low 3")
    ok, detail = check_timing_balance(result, cfg)
    assert ok
    assert all(site["balanced"] for site in detail["sites"])


def test_timing_balance_detects_hand_unpadded_variant():
    # Same control shape but without the padding: the low output's step
    # index depends on the secret.
    text = (
        "load rh0 0\n"
        "jz br rh0\n"
        "movek rh1 1\n"
        "store 0 rh1\n"
        "jmp ex\n"
        "br: nop\n"
        "ex: movek rl0 3\n"
        "out low rl0"
    )
    program = assemble(text)
    cfg = standard_config(2, 2, 2, (HIGH,))
    fake = CompileResult(
        program=program,
        timing=Timing.exact(7),
        write_effect=WriteEffect.ANY,
        v2p={"h": 0},
        register_levels={"rl0": "L", "rl1": "L", "rh0": "H", "rh1": "H"},
        memory_levels=("H",),
        width=2,
        if_h_sites=(type(compile_text("high h; if h then skip else skip")[0].if_h_sites[0])(
            1, 2, 5, 5, 6
        ),),
    )
    ok, detail = check_timing_balance(fake, cfg)
    assert not ok
    assert not detail["sites"][0]["balanced"]
    assert not detail["sweep_identical"]


def test_timing_balance_counts_steps_through_a_nested_conditional():
    # The then arm holds a padded conditional: more instructions than the
    # straight-line else arm, but the same number of steps on every run.
    result, cfg = compile_text(
        "high h; high g;"
        " if h then { if g then h := 1 else h := 2 }"
        " else { h := 1; h := 2; h := 3 }"
    )
    site = result.if_h_sites[-1]
    assert site.then_end - site.then_start != site.else_end - site.else_start
    ok, detail = check_timing_balance(result, cfg)
    assert ok, detail
    assert detail["sites"][-1]["then_len"] == detail["sites"][-1]["else_len"]


def test_timing_balance_trivial_skip_conditional():
    result, cfg = compile_text("high h; if h then skip else skip")
    ok, detail = check_timing_balance(result, cfg)
    assert ok and detail["sites"][0]["then_len"] == detail["sites"][0]["else_len"]


def timing_sweep_oracle(program, cfg):
    """Independent oracle for the dynamic half of the timing audit: a run on
    ``machine.step`` from every assignment of every high cell, in product
    order, with the low cells at 0; returns (identical, witness)."""
    highs = cfg.cells_of_level(HIGH)
    expected = None
    for hi_vec in itertools.product(range(cfg.word_values), repeat=len(highs)):
        state = _with_cells(initial_state(cfg), highs, hi_vec)
        timed = []
        for index in range(1, TIMING_MAX_STEPS + 1):
            outcome = step(program, state, cfg)
            if outcome is None:
                break
            action, state = outcome
            if action.channel == "low":
                timed.append((index, str(action)))
        if expected is None:
            expected = timed
        elif timed != expected:
            return False, {"high": list(hi_vec), "observed": timed, "expected": expected}
    return True, None


def timing_cases():
    """The corpus at widths 1-2, the shrunken hash, and raw random programs
    whose jumps all go forward: a looping draw runs to the step cap from
    every start, which is slow on the oracle."""
    for width in (1, 2):
        for name, text in CORPUS:
            src = parse(text)
            cfg = config_for_source(src, width)
            yield f"{name} w{width}", compile_program(src, cfg), cfg
    src = parse(SHRUNKEN_HASH, allow_positive_guards=True)
    cfg = config_for_source(src, 2, enable_jlez=True)
    yield "shrunken hash w2", compile_program(src, cfg), cfg
    configs = (standard_config(1, 2, 2, (LOW, HIGH)), standard_config(2, 1, 2, (HIGH, LOW)))
    for seed in range(300):
        cfg = configs[seed % 2]
        program = random_risc_program(Random(seed), cfg, 8)
        jumps = [(pc, instr.target) for pc, instr in enumerate(program) if instr.target]
        if all(program.labels()[target] > pc for pc, target in jumps):
            raw = CompileResult(program, Timing.exact(1), WriteEffect.ANY, {}, {}, (), cfg.width, ())
            yield f"random {seed}", raw, cfg


def test_timing_sweep_matches_the_full_product_oracle():
    # The sweep runs only the starts over the high cells live at pc 0, on the
    # integer machine; its verdict and witness must be the full product's.
    failing = 0
    for case, result, cfg in timing_cases():
        ok, detail = check_timing_balance(result, cfg)
        identical, witness = timing_sweep_oracle(result.program, cfg)
        balanced = all(site["balanced"] for site in detail["sites"])
        sweep = {"sweep_identical": identical, "sweep_witness": witness}
        assert (ok, detail) == (balanced and identical, {"sites": detail["sites"], **sweep}), case
        failing += not identical
    assert failing >= 50


def test_timing_sweep_runs_past_a_long_low_countdown():
    # Two moves and 200 rounds of a three-instruction countdown on a low
    # register take 602 steps; the secret output comes at step 604, so a
    # sweep that stopped early would see every run alike.
    program = assemble(
        "movek rl0 200\nmovek rl1 1\nl0: jz l1 rl0\nsub rl0 rl1\njmp l0\nl1: out low rh0"
    )
    cfg = standard_config(8, 2, 1, ())
    raw = CompileResult(program, Timing.exact(1), WriteEffect.ANY, {}, {}, (), cfg.width, ())
    ok, detail = check_timing_balance(raw, cfg)
    witness = {"high": [1], "observed": [(604, "low!1")], "expected": [(604, "low!0")]}
    assert (ok, detail["sweep_witness"]) == (False, witness)
    assert timing_sweep_oracle(program, cfg) == (False, witness)


def test_timing_sweep_charges_its_starts_against_the_check_budget():
    # rh0 and rh1 are both live at pc 0: one group of 2 ** 2 starts at width 1
    program = assemble("out high rh0\nout high rh1")
    cfg = tiny_cfg()
    raw = CompileResult(program, Timing.exact(2), WriteEffect.ANY, {}, {}, (), cfg.width, ())
    with pytest.raises(BudgetExceeded, match="initial states: 4 exceeds the limit of 3"):
        check_timing_balance(raw, cfg, CheckConfig(budget=3))
    assert check_timing_balance(raw, cfg, CheckConfig(budget=4))[0]


def test_pni_charges_initial_states_one_low_group_at_a_time():
    # 2 live low cells and 1 live high cell at width 8: 16,777,216 starts in
    # all, but the first group of 256 already holds the violation.
    program = assemble("out low rl0\nout low rl1\nout low rh0")
    cfg = standard_config(8, 2, 1, ())
    scope = default_scope(RiscSystem(program, cfg))
    env = uniform_environment(Fraction(1, 4), scope)
    verdict = check_pni(program, cfg, env, CheckConfig(depth=3, fault_scope=scope))
    assert verdict.status == "violation"
    assert replay_pni_witness(program, cfg, env, verdict.witness, CheckConfig(fault_scope=scope))


# -- compiled programs pass the checkers ----------------------------------------------


def test_compiled_program_is_ss_and_poni_secure():
    result, cfg = compile_text("high h; low x; if h then h := 1 else skip; out low 3", width=1)
    assert check_strong_security(result.program, cfg).secure
    scope = default_scope(RiscSystem(result.program, cfg))
    assert check_poni(result.program, cfg, CheckConfig(depth=4, fault_scope=scope)).secure


def test_ss_is_secure_on_the_full_hash_at_width_8():
    """The 51-instruction keyed hash: diagonal pairs that read no high cell
    walk one low assignment, or a conditional jump's source, and a silent
    side walks no slot, so the walk charges 403 low assignments where full
    enumeration charged 593,278; a budget of 1,000, far below the default,
    holds it."""
    src = hash_source()
    cfg = hash_config(8)
    program = compile_program(src, cfg).program
    assert check_strong_security(program, cfg, CheckConfig(budget=1_000)).secure


def test_full_scope_poni_is_secure_on_the_width_2_corpus():
    """Every faulty bit in scope, under the default budget: the liveness
    quotient keeps each walk to the cells live at each pc."""
    for name, text in CORPUS:
        src = parse(text)
        cfg = config_for_source(src, 2)
        program = compile_program(src, cfg).program
        assert check_poni(program, cfg, CheckConfig(depth=4)).secure, name


def test_full_scope_poni_is_secure_on_the_width_3_corpus():
    """At width 3 the machines have 15 to 21 faulty bits, but each level is
    charged only for the cuts its pairs walk, so every walk returns under
    the default budget."""
    for name, text in CORPUS:
        src = parse(text)
        cfg = config_for_source(src, 3)
        program = compile_program(src, cfg).program
        verdict = check_poni(program, cfg, CheckConfig(depth=4))
        assert verdict.status == "secure-up-to-bound", name


def test_fault_checkers_are_secure_on_the_width_4_corpus():
    """At width 4, under the default budget and the default scope: the seeds
    are drawn over the cells live at pc 0 only, so ``out_after_padded_if``
    seeds 15 pairs where the whole initial product has 16,773,120."""
    for name, text in CORPUS:
        src = parse(text)
        cfg = config_for_source(src, 4)
        program = compile_program(src, cfg).program
        scope = default_scope(RiscSystem(program, cfg))
        poni = check_poni(program, cfg, CheckConfig(depth=4, fault_scope=scope))
        assert poni.status == "secure-up-to-bound", name
        env = uniform_environment(Fraction(1, 4), scope)
        pni = check_pni(program, cfg, env, CheckConfig(depth=3, fault_scope=scope))
        assert pni.status == "secure-up-to-bound", name


# -- ill-formed programs -------------------------------------------------------------


def _entry_points():
    env = uniform_environment(Fraction(1, 4), ("rl0_0",))
    empty = {"initial_low": {}, "initial_high_a": {}, "initial_high_b": {}, "trace": []}
    return {
        "strong-security": lambda program, cfg: check_strong_security(program, cfg),
        "poni": lambda program, cfg: check_poni(program, cfg),
        "pni": lambda program, cfg: check_pni(program, cfg, env),
        "run": lambda program, cfg: run(program, initial_state(cfg), cfg, 10),
        "step": lambda program, cfg: step(program, initial_state(cfg), cfg),
        "replay-ss": lambda program, cfg: replay_ss_witness(program, cfg, empty),
        "replay-poni": lambda program, cfg: replay_poni_witness(program, cfg, empty),
        "replay-pni": lambda program, cfg: replay_pni_witness(
            program, cfg, env, {**empty, "probabilities": ["1", "1"]}
        ),
    }


CLASHING_CONFIG = MachineConfig(1, (("rl0", LOW), ("m0", HIGH)), (LOW, HIGH))


@pytest.mark.parametrize("entry", list(_entry_points()))
@pytest.mark.parametrize(
    "source, message, cfg",
    [
        pytest.param("load rl0 7", "instruction 0: address 7 out of range", None, id="address"),
        pytest.param("out low rx9", "instruction 0: unknown register 'rx9'", None, id="register"),
        pytest.param("mover rl0 rx9", "instruction 0: unknown register 'rx9'", None, id="reg2"),
        pytest.param(
            "jlez l0 rl0\nl0: nop",
            "instruction 0: jlez requires the extension flag",
            None,
            id="jlez",
        ),
        pytest.param(
            "jlez l0 rx9\nl0: load rl0 7",
            "instruction 0: unknown register 'rx9'",
            None,
            id="register-before-flag",
        ),
        pytest.param(
            "nop\nload rl0 7",
            "instruction 1: address 7 out of range",
            None,
            id="second-instruction",
        ),
        pytest.param(
            "nop",
            "register 'm0' clashes with another location's bit names",
            CLASHING_CONFIG,
            id="config",
        ),
        pytest.param(
            Instruction("out", channel="bogus", reg="rh0"),
            "instruction 0: channel must be low or high, got 'bogus'",
            None,
            id="channel",
        ),
        pytest.param(
            Instruction("jmp", target="l0", reg="rh0", label="l0"),
            "instruction 0: jmp takes no reg operand",
            None,
            id="unlisted-reg",
        ),
        pytest.param(
            Instruction("nop", reg="rl0"),
            "instruction 0: nop takes no reg operand",
            None,
            id="unlisted-nop-reg",
        ),
        pytest.param(
            Instruction("movek", reg="rl0", value=1, addr=0),
            "instruction 0: movek takes no addr operand",
            None,
            id="unlisted-addr",
        ),
        pytest.param(
            Instruction("out", channel="bogus", reg="rh0", reg2="rx9"),
            "instruction 0: out takes no reg2 operand",
            None,
            id="unlisted-before-channel",
        ),
    ],
)
def test_every_entry_point_refuses_an_ill_formed_program(source, message, cfg, entry):
    """``source`` is assembly text, or one instruction built in code that
    ``assemble`` would refuse as text."""
    cfg = cfg or standard_config(1, 1, 1, (LOW, HIGH))
    program = assemble(source) if type(source) is str else RiscProgram([source])
    with pytest.raises(AssemblyError) as refused:
        _entry_points()[entry](program, cfg)
    assert str(refused.value) == message


# -- random generators ---------------------------------------------------------------


def test_random_programs_draw_jlez_only_where_the_config_enables_it():
    # Configs without ``jlez`` draw the stream they drew before it was added,
    # which the golden files and the benchmark's expected verdicts pin.
    for width in (1, 2, 3):
        for jlez in (False, True):
            cfg = standard_config(width, 1, 1, (LOW, HIGH), jlez)
            drawn = {
                instr.op
                for seed in range(50)
                for instr in random_risc_program(Random(seed), cfg, 8).instructions
            }
            assert ("jlez" in drawn) == jlez, (width, jlez)
            assert "jz" in drawn


def test_random_programs_fit_a_machine_without_memory():
    cfg = standard_config(2, 1, 1, ())
    for seed in range(50):
        program = random_risc_program(Random(seed), cfg, 8)
        RiscSystem(program, cfg)
        assert not {"load", "store"} & {instr.op for instr in program.instructions}


# -- product-form attackers ---------------------------------------------------------


def _pni_outcome(program, cfg, env, check):
    try:
        return check_pni(program, cfg, env, check).to_json()
    except BudgetExceeded as exc:
        return str(exc)


def _differential_cells():
    """(program, config, whether to check the full scope too): the corpus at
    widths 1-3, at full scope only at width 1, where the expanded attacker
    stays small, and random pools at widths 1-3, a machine of three cells at
    width 3, each at both scopes."""
    for name, text in CORPUS:
        src = parse(text)
        for width in (1, 2, 3):
            cfg = config_for_source(src, width)
            yield compile_program(src, cfg).program, cfg, width == 1
    for width, draws, memory in ((1, 60, (LOW, HIGH)), (2, 20, (LOW, HIGH)), (3, 10, (HIGH,))):
        rng = Random(40 + width)
        cfg = standard_config(width, 1, 1, memory)
        for _ in range(draws):
            yield random_risc_program(rng, cfg, 8), cfg, True


def test_pni_on_a_product_attacker_equals_pni_on_its_expansion():
    """Each attacker of ``environment_family``, and a random two-state
    attacker with a joint table on some bits and flips on the others, gives
    the verdict and witness (or budget exit) that the same attacker gives
    with its product expanded into joint tables."""
    from test_faultlab import expanded, random_product_attacker

    rng = Random(83)
    verdicts = Counter()
    for program, cfg, full in _differential_cells():
        system = RiscSystem(program, cfg)
        for scope in (default_scope(system), None) if full else (default_scope(system),):
            names = tuple(sorted(system.faulty_names)) if scope is None else scope
            check = CheckConfig(depth=3, fault_scope=scope)
            attackers = [env for _, env in environment_family(names)]
            attackers.append(random_product_attacker(rng, names))
            for env in attackers:
                found = _pni_outcome(program, cfg, env, check)
                assert found == _pni_outcome(program, cfg, expanded(env), check)
                verdicts[found["status"] if type(found) is dict else "exit"] += 1
    assert verdicts["violation"] >= 10 and verdicts["secure-up-to-bound"] >= 500, verdicts


def test_environment_family_table_round_trip():
    for scope in ((), ("rl0_0",), ("rl0_0", "rh0_0", "m0_1")):
        for name, env in environment_family(scope):
            assert environment_from_text(environment_to_text(env)) == env, name


@pytest.mark.parametrize("entry", list(_entry_points()))
@pytest.mark.parametrize(
    "instr, message",
    [
        pytest.param(Instruction("bogus"), "instruction 0: unknown opcode 'bogus'", id="opcode"),
        pytest.param(
            Instruction("load", reg="rl0"), "instruction 0: load lacks its addr operand", id="addr"
        ),
        pytest.param(
            Instruction("out", reg="rl0"),
            "instruction 0: out lacks its channel operand",
            id="channel",
        ),
        pytest.param(
            Instruction("movek", reg="rx9"),
            "instruction 0: movek lacks its value operand",
            id="field-before-register",
        ),
    ],
)
def test_every_entry_point_refuses_an_instruction_outside_the_syntax(instr, message, entry):
    """``decode`` checks the opcode, then the fields ``OPERANDS`` lists for
    it, before the registers: programs built in code, not assembled, meet
    the gate that ``assemble`` keeps for text."""
    cfg = standard_config(1, 1, 1, (LOW, HIGH))
    with pytest.raises(AssemblyError) as refused:
        _entry_points()[entry](RiscProgram([instr]), cfg)
    assert str(refused.value) == message


def _witness_pool():
    """(replay, witness) pairs of real violations: SS, POni and PNI
    witnesses of random programs at width 1."""
    cfg = standard_config(1, 1, 1, (LOW, HIGH))
    check = CheckConfig(depth=3)
    env = uniform_environment(Fraction(1, 4), cfg.layout.faulty_names)
    rng = Random(84)
    pool = []
    kinds = Counter()
    while min(kinds["ss"], kinds["poni"], kinds["pni"]) < 4:
        program = random_risc_program(rng, cfg, 6)
        for kind, verdict, replay in (
            ("ss", check_strong_security(program, cfg), replay_ss_witness),
            ("poni", check_poni(program, cfg, check), replay_poni_witness),
            (
                "pni",
                check_pni(program, cfg, env, check),
                functools.partial(replay_pni_witness, env=env, check=check),
            ),
        ):
            if not verdict.secure and kinds[kind] < 4:
                kinds[kind] += 1
                assert replay(program, cfg, witness=verdict.witness)
                pool.append((kind, program, cfg, replay, verdict.witness))
    return pool


def test_replays_return_false_on_a_witness_missing_any_field():
    for kind, program, cfg, replay, witness in _witness_pool():
        for key in witness:
            cut = {k: v for k, v in witness.items() if k != key}
            assert replay(program, cfg, witness=cut) is False, (kind, key)
        for i, entry in enumerate(witness["trace"]):
            if type(entry) is not dict:
                continue
            for key in entry:
                cut = copy.deepcopy(witness)
                del cut["trace"][i][key]
                assert replay(program, cfg, witness=cut) is False, (kind, i, key)
