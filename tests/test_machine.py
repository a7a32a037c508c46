"""Machine semantics, assembler, bit encoding, structural comparison."""

import itertools
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from ftnilab.faultlab import (
    TAU,
    Action,
    FaultProneSystem,
    faulted_steps,
    low,
    output,
    uniform_environment,
)
from ftnilab.machine import (
    HIGH,
    LOW,
    AssemblyError,
    Instruction,
    MachineConfig,
    MachineState,
    RiscProgram,
    RiscSystem,
    assemble,
    decode,
    disassemble,
    initial_state,
    run,
    signed,
    standard_config,
    step,
    structurally_equivalent,
)
from ftnilab.verify import default_scope, random_risc_program


def cfg_w(width, mem=2, enable_jlez=False):
    levels = tuple(LOW if i % 2 == 0 else HIGH for i in range(mem))
    return standard_config(width, 2, 2, levels, enable_jlez)


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("mem", [(), (LOW, HIGH, LOW)])
def test_data_bit_names_are_the_faulty_locations_in_order(width, mem):
    cfg = standard_config(width, 2, 1, mem)
    system = RiscSystem(assemble("nop\nnop\nnop"), cfg)
    names = cfg.data_bit_names()
    assert len(names) == width * (3 + len(mem))
    assert list(system.names[: len(names)]) == names
    assert system.faulty_names == frozenset(names)
    assert system.faulty_mask == (1 << len(names)) - 1
    # the pc bits follow, fault-tolerant
    assert system.names[len(names) :] == ("pc_0", "pc_1")
    assert system.faulty_mask >> len(names) == 0


def test_resolve_label_examples():
    program = assemble("nop\nl1: jmp l1")
    assert program.labels() == {"l1": 1}
    assert decode(program, cfg_w(1))[1].target == 1
    assert assemble("l0: nop").labels() == {"l0": 0}
    with pytest.raises(AssemblyError, match="unknown label 'lX'"):
        assemble("jmp lX")


def test_duplicate_label_rejected():
    with pytest.raises(AssemblyError, match="duplicate"):
        assemble("l0: nop\nl0: nop")


def test_unknown_jump_target_rejected():
    with pytest.raises(AssemblyError, match="unknown label"):
        assemble("jmp nowhere")


def test_parse_error_carries_line():
    with pytest.raises(AssemblyError, match="line 2"):
        assemble("nop\nfrobnicate rl0")


def test_actions_and_states_hash_print_and_compare_as_their_fields():
    """``Action`` and ``MachineState`` hash as their field tuples, so set and
    dict orders, and with them the witnesses, follow the field values; their
    ``repr`` and ``str`` are the dataclass forms."""
    for channel, value in ((None, None), ("low", 1), ("high", 0)):
        assert hash(Action(channel, value)) == hash((channel, value))
    for pc, regs, mem in ((0, (0, 0), ()), (3, (1, 2), (0, 3))):
        assert hash(MachineState(pc, regs, mem)) == hash((pc, regs, mem))
    assert TAU == Action() and TAU.silent and not output("low", 1).silent
    assert (repr(TAU), str(TAU)) == ("Action(channel=None, value=None)", "tau")
    assert (repr(output("low", 1)), str(output("low", 1))) == (
        "Action(channel='low', value=1)",
        "low!1",
    )
    state = MachineState(3, (1, 2), (0,))
    assert repr(state) == str(state) == "MachineState(pc=3, regs=(1, 2), mem=(0,))"


def test_instructions_hash_print_and_compare_as_their_fields():
    """An ``Instruction`` hashes as its field tuple, in declaration order, so
    set and dict orders over programs follow the field values; its ``repr``
    is the dataclass form and ``render`` its assembly line."""
    fields = ("op", "label", "reg", "reg2", "addr", "value", "target", "channel")
    for instr in (
        Instruction("nop"),
        Instruction("load", "l0", reg="rl0", addr=1),
        Instruction("add", reg="rh0", reg2="rh1"),
        Instruction("jz", target="br0", reg="rl1"),
        Instruction("movek", reg="rl0", value=3),
        Instruction("out", channel="low", reg="rl0"),
    ):
        values = tuple(getattr(instr, f) for f in fields)
        assert hash(instr) == hash(values)
        assert instr == Instruction(*values) and instr != Instruction("halt")
    load = Instruction("load", "l0", reg="rl0", addr=1)
    assert repr(load) == str(load) == (
        "Instruction(op='load', label='l0', reg='rl0', reg2=None, addr=1,"
        " value=None, target=None, channel=None)"
    )
    assert load.render() == "l0: load rl0 1" and load.registers() == ("rl0",)
    assert Instruction("mover", reg="rl0", reg2="rh0").registers() == ("rl0", "rh0")


def test_load_reads_memory_cell():
    cfg = standard_config(8, 1, 1, (LOW,) * 6)
    program = assemble("load rl0 5")
    state = MachineState(0, (0, 0), (0, 0, 0, 0, 0, 3))
    action, after = step(program, state, cfg)
    assert action == TAU
    assert after.regs[0] == 3
    assert after.pc == 1


def test_store_writes_memory_cell():
    cfg = cfg_w(8)
    program = assemble("store 1 rl1")
    state = MachineState(0, (0, 7, 0, 0), (0, 0))
    _, after = step(program, state, cfg)
    assert after.mem == (0, 7)


def test_jz_taken_and_not_taken():
    cfg = cfg_w(8)
    program = assemble("jz l0 rl0\nl0: nop")
    _, after = step(program, MachineState(0, (0, 0, 0, 0), (0, 0)), cfg)
    assert after.pc == 1
    _, after = step(program, MachineState(0, (2, 0, 0, 0), (0, 0)), cfg)
    assert after.pc == 1  # fall-through also lands on index 1 here
    program = assemble("jz l0 rl0\nnop\nl0: nop")
    _, after = step(program, MachineState(0, (2, 0, 0, 0), (0, 0)), cfg)
    assert after.pc == 1
    _, after = step(program, MachineState(0, (0, 0, 0, 0), (0, 0)), cfg)
    assert after.pc == 2


def test_out_emits_and_touches_nothing():
    cfg = cfg_w(8)
    program = assemble("out low rl0")
    state = MachineState(0, (2, 0, 0, 0), (5, 6))
    action, after = step(program, state, cfg)
    assert action == output("low", 2)
    assert (after.regs, after.mem) == (state.regs, state.mem)


def test_arithmetic_wraps_modulo_width():
    cfg = cfg_w(2)
    program = assemble("movek rl0 3\nmovek rl1 2\nadd rl0 rl1\nmul rl0 rl1\nsub rl0 rl1")
    state = initial_state(cfg)
    for _ in range(3):
        _, state = step(program, state, cfg)
    assert state.regs[0] == (3 + 2) % 4
    _, state = step(program, state, cfg)
    assert state.regs[0] == (1 * 2) % 4
    _, state = step(program, state, cfg)
    assert state.regs[0] == (2 - 2) % 4


def test_mover_and_and():
    cfg = cfg_w(4)
    program = assemble("movek rl0 12\nmovek rl1 10\nand rl0 rl1\nmover rl1 rl0")
    state = initial_state(cfg)
    for _ in range(4):
        _, state = step(program, state, cfg)
    assert state.regs[0] == 12 & 10
    assert state.regs[1] == 12 & 10


def test_jlez_uses_twos_complement():
    cfg = cfg_w(4, enable_jlez=True)
    program = assemble("jlez l0 rl0\nnop\nl0: nop")
    for value, taken in ((0, True), (1, False), (7, False), (8, True), (15, True)):
        _, after = step(program, MachineState(0, (value, 0, 0, 0), (0, 0)), cfg)
        assert (after.pc == 2) == taken, value


def test_jlez_always_jumps_at_width_one():
    # At width 1 the values are 0 and -1, both of which are <= 0.
    cfg = cfg_w(1, enable_jlez=True)
    program = assemble("jlez l0 rl0\nnop\nl0: nop")
    for value in (0, 1):
        _, after = step(program, MachineState(0, (value, 0, 0, 0), (0, 0)), cfg)
        assert after.pc == 2


def test_jlez_requires_extension_flag():
    cfg = cfg_w(2, enable_jlez=False)
    with pytest.raises(AssemblyError, match="jlez"):
        decode(assemble("jlez l0 rl0\nl0: nop"), cfg)


def test_stuck_when_pc_leaves_program():
    cfg = cfg_w(2)
    program = assemble("nop")
    _, after = step(program, initial_state(cfg), cfg)
    assert step(program, after, cfg) is None


def test_step_follows_the_config_it_is_given():
    # The decoded program is cached; a config with another register order
    # must be decoded afresh, and switching back must work too.
    program = assemble("movek rl0 1\nstore 0 rl0")
    a = MachineConfig(1, (("rl0", LOW), ("rh0", HIGH)), (LOW,))
    b = MachineConfig(1, (("rh0", HIGH), ("rl0", LOW)), (LOW,))
    for cfg, regs in ((a, (1, 0)), (b, (0, 1)), (a, (1, 0))):
        _, final, done = run(program, initial_state(cfg), cfg, 5)
        assert done and final.regs == regs and final.mem == (1,)


def test_signed_helper():
    assert signed(0, 4) == 0
    assert signed(7, 4) == 7
    assert signed(8, 4) == -8
    assert signed(15, 4) == -1


def test_run_collects_outputs_and_terminates():
    cfg = cfg_w(8)
    program = assemble("movek rl0 1\nout low rl0\nout high rl0")
    outs, _, done = run(program, initial_state(cfg), cfg, 100)
    assert outs == [output("low", 1), output("high", 1)]
    assert done


def run_by_steps(program, state, cfg, max_steps):
    """The reference for ``run``: a fold of ``step``."""
    outs = []
    for _ in range(max_steps):
        result = step(program, state, cfg)
        if result is None:
            break
        action, state = result
        if not action.silent:
            outs.append(action)
    return outs, state, step(program, state, cfg) is None


@pytest.mark.parametrize(
    "width, mem, jlez", [(1, 0, False), (2, 2, False), (2, 0, True), (3, 3, True)]
)
def test_run_equals_a_fold_of_step_on_random_programs(width, mem, jlez):
    cfg = cfg_w(width, mem, jlez)
    rng = Random(width * 100 + mem * 10 + jlez)
    for _ in range(60):
        program = random_risc_program(rng, cfg, length=rng.randrange(1, 12))
        state = MachineState(
            rng.randrange(len(program) + 2),  # at times past the end
            tuple(rng.randrange(cfg.word_values) for _ in cfg.registers),
            tuple(rng.randrange(cfg.word_values) for _ in range(mem)),
        )
        for max_steps in (0, 1, 2, 7, 40):
            assert run(program, state, cfg, max_steps) == run_by_steps(
                program, state, cfg, max_steps
            )


@pytest.mark.parametrize(
    "text",
    [
        # jumps the random programs never draw; the loops use up max_steps
        "top: movek rl0 1\nout low rl0\nstore 1 rl0\njmp top",
        "jmp end\nout high rh0\nend: add rl0 rl1\nstore 0 rl0\nout low rl0",
        "spin: jmp spin",
        "load rl0 1\nloop: sub rl0 rl1\nout low rl0\njz done rl0\njmp loop\ndone: store 0 rl0",
    ],
)
def test_run_equals_a_fold_of_step_on_jumps_and_loops(text):
    cfg = cfg_w(2)
    program = assemble(text)
    starts = [MachineState(pc, (1, 3, 2, 0), (0, 2)) for pc in range(len(program) + 2)]
    for state in [initial_state(cfg, {1: 3}), *starts]:
        for max_steps in (0, 1, 3, 5, 12, 100):
            assert run(program, state, cfg, max_steps) == run_by_steps(
                program, state, cfg, max_steps
            )


def test_assembly_round_trip_is_canonical():
    text = "l0: movek rl0 1\nout low rl0\n"
    program = assemble(text)
    assert disassemble(program) == text
    assert disassemble(assemble(disassemble(program))) == disassemble(program)


def test_assembly_round_trip_random_corpus():
    rng = Random(17)
    cfg = cfg_w(2, mem=3)
    for _ in range(25):
        program = random_risc_program(rng, cfg, length=10)
        rendered = disassemble(program)
        assert disassemble(assemble(rendered)) == rendered


def test_decode_checks_operands():
    cfg = cfg_w(2, mem=2)
    with pytest.raises(AssemblyError, match="unknown register"):
        decode(assemble("movek r9 1"), cfg)
    with pytest.raises(AssemblyError, match="address"):
        decode(assemble("load rl0 7"), cfg)


def test_encode_decode_bijection_exhaustive_small_widths():
    for width in (1, 2, 3):
        cfg = MachineConfig(width, (("rl0", LOW), ("rh0", HIGH)), (LOW,))
        program = assemble("nop\nnop")
        system = RiscSystem(program, cfg)
        seen = set()
        values = range(cfg.word_values)
        for pc in range(len(program) + 1):
            for regs in itertools.product(values, repeat=2):
                for mem in itertools.product(values, repeat=1):
                    state = MachineState(pc, regs, mem)
                    bits = system.encode(state)
                    assert system.decode(bits) == state
                    assert bits not in seen
                    seen.add(bits)


def test_encode_decode_random_round_trip_wide():
    cfg = cfg_w(8, mem=3)
    program = assemble("nop\nnop\nnop")
    system = RiscSystem(program, cfg)
    rng = Random(29)
    for _ in range(200):
        state = MachineState(
            rng.randrange(len(program) + 1),
            tuple(rng.randrange(256) for _ in range(4)),
            tuple(rng.randrange(256) for _ in range(3)),
        )
        assert system.decode(system.encode(state)) == state


def test_encoding_is_lsb_first():
    cfg = MachineConfig(2, (("rl0", LOW),), ())
    system = RiscSystem(assemble("nop"), cfg)
    bits = system.encode(MachineState(0, (2,), ()))
    assert system.bits_of(bits)["rl0_0"] == 0
    assert system.bits_of(bits)["rl0_1"] == 1


def test_pc_bits_are_fault_tolerant():
    cfg = cfg_w(1)
    system = RiscSystem(assemble("nop\nnop"), cfg)
    assert system.mask_of({"pc_0"}) & system.faulty_mask == 0
    with pytest.raises(ValueError, match=r"fault set \['pc_0'\] not within faulty locations"):
        uniform_environment(Fraction(1, 2), {"pc_0"}).validate(system.faulty_names)


def test_machine_step_determinism_through_bits():
    cfg = cfg_w(1, mem=2)
    rng = Random(31)
    program = random_risc_program(rng, cfg, length=6)
    system = RiscSystem(program, cfg)
    for state in list(system.all_states())[:64]:
        assert system.step(state) == system.step(state)


KERNEL_OPS = ("load", "store", "movek", "mover", "add", "sub", "mul", "and", "nop",
              "jmp", "jz", "jlez", "out")


def random_kernel_program(rng, cfg, length):
    """A random program over every opcode, jumping to labels at any pc."""
    regs = cfg.register_names()
    instrs = []
    for i in range(length):
        op = rng.choice(KERNEL_OPS)
        reg, reg2 = rng.choice(regs), rng.choice(regs)
        fields = {"label": f"l{i}"}
        if op in ("load", "store"):
            fields.update(reg=reg, addr=rng.randrange(cfg.memory_size))
        elif op == "movek":
            fields.update(reg=reg, value=rng.randrange(cfg.word_values))
        elif op in ("mover", "add", "sub", "mul", "and"):
            fields.update(reg=reg, reg2=reg2)
        elif op == "jmp":
            fields.update(target=f"l{rng.randrange(length)}")
        elif op in ("jz", "jlez"):
            fields.update(target=f"l{rng.randrange(length)}", reg=reg)
        elif op == "out":
            fields.update(channel=rng.choice(("low", "high")), reg=reg)
        instrs.append(Instruction(op, **fields))
    return RiscProgram(instrs)


def test_integer_kernel_agrees_with_machine_step():
    """RiscSystem steps the encoded int in place; from every encoded state,
    pcs past the end included, it must match decode, machine.step, encode,
    and its public step must carry the code of the public action."""
    rng = Random(6)
    seen = set()
    for width, memory, draws in ((1, (LOW, HIGH), 5), (2, (LOW, HIGH), 3), (3, (HIGH,), 2)):
        cfg = standard_config(width, 1, 1, memory, enable_jlez=True)
        for _ in range(draws):
            program = random_kernel_program(rng, cfg, 7)
            seen.update((i.op, i.channel) for i in program.instructions)
            system = RiscSystem(program, cfg)
            assert system.pc_bits == 3  # pc 7 is past the end
            for state in system.all_states():
                expected = step(program, system.decode(state), cfg)
                public = system.public_step(state)
                if expected is None:
                    assert system.step(state) is None and public is None
                    continue
                action, succ = expected
                assert system.step(state) == (action, system.encode(succ))
                assert public[1] == system.encode(succ)
                assert system.observations[public[0]] == low(action)
    assert {(op, None) for op in KERNEL_OPS if op != "out"} < seen
    assert {("out", "low"), ("out", "high")} < seen


# Cells: rl0, rh0, m0, m1.  The loop 1-4 has its back edge at 4, the jz at 1
# leaves it for 5 or falls through to 2, rl0 is overwritten before it is read
# at 0 and at 2, both outs read rl0, m1 is never read, and pcs 6 and 7 are
# past the end.
LIVENESS_PROGRAM = """\
movek rl0 1
top: jz done rh0
load rl0 0
out low rl0
jmp top
done: out low rl0
"""
LIVE_AT = ["rh0 m0", "rl0 rh0 m0", "rh0 m0", "rl0 rh0 m0", "rl0 rh0 m0", "rl0", "", ""]


def test_canonical_keeps_the_pc_and_the_cells_live_there():
    cfg = standard_config(2, 1, 1, (LOW, HIGH))
    system = RiscSystem(assemble(LIVENESS_PROGRAM), cfg)
    # built on first use, with the fault-relevance masks, not by the constructor
    assert system._keep is None
    assert system.pc_bits == 3
    for pc, names in enumerate(LIVE_AT):
        full = system.encode(MachineState(pc, (3, 3), (3, 3)))
        kept = system.canonical(full)
        assert system.decode(kept).pc == pc
        ones = {name for name, bit in system.bits_of(kept).items() if bit}
        pc_ones = {f"pc_{b}" for b in range(3) if pc >> b & 1}
        live = {f"{cell}_{b}" for cell in names.split() for b in (0, 1)}
        assert ones == pc_ones | live
        # the fault-relevance mask: the live cells, whatever the data
        assert system.relevant(full) == system.relevant(kept) == system.mask_of(live)


def reference_keep(system):
    """A test-only copy of ``_build_keep`` that packs each pc's mask from a
    word per live cell, where the code ORs the layout's cell masks."""
    ops = decode(system.program, system.cfg)
    n = len(ops)
    live = [0] * (n + 1)
    changed = True
    while changed:
        changed = False
        for pc in reversed(range(n)):
            instr = ops[pc]
            if instr.op == "jmp":
                out = live[instr.target]
            elif instr.target is not None:
                out = live[instr.target] | live[pc + 1]
            else:
                out = live[pc + 1]
            if instr.dest is not None:
                out &= ~(1 << instr.dest)
            for cell in instr.sources:
                out |= 1 << cell
            if out != live[pc]:
                live[pc] = out
                changed = True
    word = (1 << system.cfg.width) - 1
    pc_mask = ((1 << system.pc_bits) - 1) << system._pc_shift
    cells = range(len(system.cfg.registers) + system.cfg.memory_size)
    keep = [
        pc_mask | system.pack(cells, [word if cells_live >> c & 1 else 0 for c in cells])
        for cells_live in live[:n]
    ]
    return tuple(keep + [pc_mask] * ((1 << system.pc_bits) - n))


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("memory", [(), (LOW, HIGH)], ids=["no-mem", "mem"])
@pytest.mark.parametrize("jlez", [False, True], ids=["jz", "jlez"])
def test_build_keep_matches_the_packed_reference(width, memory, jlez):
    cfg = standard_config(width, 2, 1, memory, jlez)
    rng = Random(width * 4 + len(memory) + jlez)
    ops = set()
    for _ in range(40):
        program = random_risc_program(rng, cfg, 8)
        ops.update(instr.op for instr in program.instructions)
        system = RiscSystem(program, cfg)
        assert system._build_keep() == reference_keep(system), disassemble(program)
    assert ("jlez" in ops) == jlez and ("load" in ops) == bool(memory)
    system = RiscSystem(assemble(LIVENESS_PROGRAM), standard_config(2, 1, 1, (LOW, HIGH)))
    assert system._build_keep() == reference_keep(system)


def test_systems_share_their_layout_but_not_their_public_view():
    """Systems on one config, or on equal configs built apart, read one bit
    layout; each numbers its own observations and caches its own steps."""
    cfg = standard_config(2, 1, 1, (LOW, HIGH))
    program = assemble("movek rl0 3\nout low rl0")
    first, second = RiscSystem(program, cfg), RiscSystem(program, cfg)
    assert first.names is second.names

    at_out = first.encode(MachineState(1, (3, 0), (0, 0)))
    assert first.public_step(at_out) == (1, first.encode(MachineState(2, (3, 0), (0, 0))))
    assert first.observations == [TAU, output("low", 3)]
    assert second.observations == [TAU]
    assert second._codes == {TAU: 0} and second._public == {}
    # the second system numbers its own first output 1 as well
    other = second.encode(MachineState(1, (2, 0), (0, 0)))
    assert second.public_step(other)[0] == 1
    assert second.observations == [TAU, output("low", 2)]
    assert first.observations == [TAU, output("low", 3)]
    assert first.public_step(other)[0] == 2

    twin = standard_config(2, 1, 1, (LOW, HIGH))
    assert twin == cfg and twin is not cfg
    third = RiscSystem(program, twin)
    assert third.observations == [TAU]
    # the shared layout equals one built from scratch for the same bits
    expected = FaultProneSystem(
        [*cfg.data_bit_names(), "pc_0", "pc_1"], cfg.data_bit_names()
    )
    word = (1 << cfg.width) - 1
    for system in (first, second, third):
        assert system.names is first.names
        assert system.names == expected.names
        assert system._index == expected._index
        assert system.faulty_names == expected.faulty_names
        assert system.faulty_mask == expected.faulty_mask
        assert system.low_mask == system.pack((0, 2), (word, word))
        assert system.high_mask == system.pack((1, 3), (word, word))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 2))
def test_canonical_states_take_the_same_public_faulted_steps(seed, width):
    """The quotient is exact: from every state, under every mask in scope,
    the checkers' faulted steps equal those of its canonical form, and the
    canonical form is its own."""
    cfg = standard_config(width, 1, 1, (LOW, HIGH), enable_jlez=True)
    system = RiscSystem(random_kernel_program(Random(seed), cfg, 6), cfg)
    scope = sorted(system.faulty_names) if width == 1 else default_scope(system)
    masks = [system.mask_of(names) for names in itertools.chain.from_iterable(
        itertools.combinations(scope, r) for r in range(len(scope) + 1))]
    for state in system.all_states():
        canon = system.canonical(state)
        assert system.canonical(canon) == canon
        assert canon & ~state == 0
        assert faulted_steps(system, state, masks, True) == faulted_steps(
            system, canon, masks, True
        )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 2))
def test_masks_that_agree_on_the_relevant_bits_take_one_public_step(seed, width):
    """The mask quotient is exact: from every state, under every mask of the
    full scope, the public faulted step equals the one under the mask cut to
    the state's relevance mask, which is 0 past the end."""
    cfg = standard_config(width, 1, 1, (LOW, HIGH) if width == 1 else (HIGH,), True)
    program = random_kernel_program(Random(seed), cfg, 6)
    system = RiscSystem(program, cfg)
    names = sorted(system.faulty_names)
    masks = [system.mask_of(combo) for r in range(len(names) + 1)
             for combo in itertools.combinations(names, r)]
    for state in system.all_states():
        rel = system.relevant(state)
        assert rel & ~system.faulty_mask == 0
        if system.decode(state).pc >= len(program):
            assert rel == 0
        assert faulted_steps(system, state, masks, True) == faulted_steps(
            system, state, [mask & rel for mask in masks], True
        )


def test_structural_equivalence_ignores_register_names():
    a = assemble("movek rl0 1\nstore 0 rl0\nl0: jz l0 rl0")
    b = assemble("movek rh1 1\nstore 0 rh1\nx: jz x rh1")
    ok, _ = structurally_equivalent(a, b)
    assert ok


def test_structural_equivalence_detects_changes():
    a = assemble("movek rl0 1\nstore 0 rl0")
    b = assemble("movek rl0 1\nstore 1 rl0")
    ok, why = structurally_equivalent(a, b)
    assert not ok and "block 0" in why
    c = assemble("movek rl0 1\nstore 0 rl0\nnop")
    ok, why = structurally_equivalent(a, c)
    assert not ok


def test_structural_equivalence_checks_label_graph():
    a = assemble("l0: jz l0 rl0\nl1: jmp l0")
    b = assemble("l0: jz l1 rl0\nl1: jmp l1")
    ok, _ = structurally_equivalent(a, b)
    assert not ok


ALL_OPCODES = [
    ("load rl0 1", Instruction("load", reg="rl0", addr=1)),
    ("store 1 rh0", Instruction("store", reg="rh0", addr=1)),
    ("t0: jmp t0", Instruction("jmp", "t0", target="t0")),
    ("jz t0 rl1", Instruction("jz", target="t0", reg="rl1")),
    ("jlez t0 rh1", Instruction("jlez", target="t0", reg="rh1")),
    ("nop", Instruction("nop")),
    ("movek rl0 7", Instruction("movek", reg="rl0", value=7)),
    ("mover rl0 rh0", Instruction("mover", reg="rl0", reg2="rh0")),
    ("add rl0 rl1", Instruction("add", reg="rl0", reg2="rl1")),
    ("sub rh0 rl1", Instruction("sub", reg="rh0", reg2="rl1")),
    ("mul rh0 rh1", Instruction("mul", reg="rh0", reg2="rh1")),
    ("and rl1 rh1", Instruction("and", reg="rl1", reg2="rh1")),
    ("out high rl0", Instruction("out", channel="high", reg="rl0")),
]


def test_every_opcode_round_trips_through_the_assembler():
    text = "".join(line + "\n" for line, _ in ALL_OPCODES)
    program = assemble(text)
    assert list(program.instructions) == [instr for _, instr in ALL_OPCODES]
    assert len({instr.op for instr in program.instructions}) == 13
    assert disassemble(program) == text


@pytest.mark.parametrize(
    "text, message",
    [
        ("load rl0", "load expects 2 operand(s), got 1 (line 1)"),
        ("nop\nnop rl0", "nop expects 0 operand(s), got 1 (line 2)"),
        ("jmp", "jmp expects 1 operand(s), got 0 (line 1)"),
        ("out mid", "out expects 2 operand(s), got 1 (line 1)"),
        ("add rl0 rl1 rh0", "add expects 2 operand(s), got 3 (line 1)"),
        ("load rl0 x", "expected a decimal number, got 'x' (line 1)"),
        ("store -1 rl0", "expected a decimal number, got '-1' (line 1)"),
        ("movek rl0 0x1", "expected a decimal number, got '0x1' (line 1)"),
        ("out mid rl0", "channel must be low or high, got 'mid' (line 1)"),
        ("nop\n  frob rl0", "unknown mnemonic 'frob' (line 2, col 3)"),
        ("l0: frob", "unknown mnemonic 'frob' (line 1, col 5)"),
        ("lo: l", "unknown mnemonic 'l' (line 1, col 5)"),
        ("1x: nop", "bad label '1x' (line 1, col 1)"),
        ("x\u0663: nop\njmp x\u0663", "bad label 'x\u0663' (line 1, col 1)"),
        ("l0:", "label with no instruction (line 1)"),
    ],
)
def test_assembler_error_messages(text, message):
    with pytest.raises(AssemblyError) as exc:
        assemble(text)
    assert str(exc.value) == message
