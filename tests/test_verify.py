"""Checkers: strong security, possibilistic and probabilistic noninterference."""

import itertools
from fractions import Fraction
from random import Random

import pytest

from ftnilab.corpus import CORPUS, SHRUNKEN_HASH, config_for_source
from ftnilab.faultlab import uniform_environment
from ftnilab.lang import parse
from ftnilab.machine import (
    HIGH,
    LOW,
    MachineState,
    RiscProgram,
    assemble,
    standard_config,
)
from ftnilab.seccomp import (
    EMPTY_RECORD,
    Timing,
    WriteEffect,
    CompileResult,
    compile_program,
)
from ftnilab.verify import (
    BudgetExceeded,
    CheckConfig,
    _SSTables,
    check_pni,
    check_poni,
    check_ss_implies_poni,
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


def test_ss_summaries_match_brute_force_enumeration():
    # The per-pc summaries, memoised on the low slots each pc touches and
    # lifted onto every full low vector, must agree with direct enumeration
    # of every high assignment.
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
                    regs = [0] * len(cfg.registers)
                    mem = [0] * cfg.memory_size
                    for (kind, idx), val in zip(tables.lows, lo):
                        (regs if kind == "reg" else mem)[idx] = val
                    for (kind, idx), val in zip(hi_cells, hi_vec):
                        (regs if kind == "reg" else mem)[idx] = val
                    state = MachineState(pc, tuple(regs), tuple(mem))
                    brute.add(tables.observe(state))
                lifted = {tables.after(lo, e) for e in tables.entries(pc, lo)}
                assert brute == lifted, (pc, lo)


def brute_force_strong_security(program, cfg):
    """Independent oracle: full refinement over all point pairs and data pairs."""
    tables = _SSTables(program, cfg)
    values = range(cfg.word_values)
    data_states = [
        (regs, mem)
        for regs in itertools.product(values, repeat=len(cfg.registers))
        for mem in itertools.product(values, repeat=cfg.memory_size)
    ]
    low_of = {}
    for regs, mem in data_states:
        key = tuple(
            (regs[i] if kind == "reg" else mem[i]) for kind, i in tables.lows
        )
        low_of[(regs, mem)] = key
    groups: dict = {}
    for d in data_states:
        groups.setdefault(low_of[d], []).append(d)
    points = range(len(program) + 1)
    # the one-step observations of every data state in a low group, per point
    seen = {
        (pc, lo): {tables.observe(MachineState(pc, regs, mem)) for regs, mem in group}
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


@pytest.mark.parametrize(
    "source, width, jlez",
    [
        pytest.param(SHRUNKEN_HASH, 4, True, id="shrunken_hash-w4"),
        pytest.param(dict(CORPUS)["cache_churn"], 3, False, id="cache_churn-w3"),
    ],
)
def test_ss_secure_over_large_low_spaces(source, width, jlez):
    # 16**4 and 8**5 low states: each point pair is checked over the few low
    # cells its two instructions touch, never over the whole low space.
    src = parse(source, allow_positive_guards=jlez)
    cfg = config_for_source(src, width, enable_jlez=jlez)
    assert check_strong_security(compile_program(src, cfg).program, cfg).secure


def test_ss_budget_guard():
    cfg = standard_config(3, 2, 2, (LOW,) * 4)
    program = assemble("nop")
    with pytest.raises(BudgetExceeded):
        check_strong_security(program, cfg, CheckConfig(budget=10))


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


def brute_force_poni(program, cfg, check):
    """Independent oracle: materialize and compare fault-annotated trace sets."""
    from ftnilab.faultlab import enumerate_augmented_runs
    from ftnilab.verify import _initial_groups, _scope_names

    system = RiscSystem(program, cfg)
    scope = _scope_names(system, check)
    for _, states in _initial_groups(system, check):
        sets = [
            frozenset(run.trace for run in enumerate_augmented_runs(system, s, check.depth, scope))
            for s in states
        ]
        if any(s != sets[0] for s in sets[1:]):
            return False
    return True


@pytest.mark.parametrize(
    "text,mem",
    [
        (CONSTANT_OUT, (LOW, HIGH)),
        (LEAKY_OUT, (LOW, HIGH)),
        ("load rl0 0\nout low rl0", (LOW, HIGH)),
        ("load rh0 1\nstore 0 rh0", (LOW, HIGH)),
        ("jz l0 rh0\nnop\nl0: out low rl0", (LOW,)),
    ],
)
def test_poni_matches_brute_force_trace_sets(text, mem):
    program = assemble(text)
    cfg = tiny_cfg(mem=mem)
    scope = ("rl0_0", "rh0_0")
    check = CheckConfig(depth=3, fault_scope=scope)
    expected = brute_force_poni(program, cfg, check)
    assert check_poni(program, cfg, check).secure == expected


# -- bridging property -------------------------------------------------------------


def test_no_program_is_ss_secure_but_poni_leaky():
    rng = Random(101)
    cfg = tiny_cfg(mem=(LOW, HIGH))
    programs = [(f"r{i}", random_risc_program(rng, cfg, length=6)) for i in range(10)]
    scope = ("rl0_0", "rh0_0", "m0_0", "m1_0")
    report = check_ss_implies_poni(programs, cfg, CheckConfig(depth=4, fault_scope=scope))
    assert report["counterexamples"] == []
    assert report["programs"] == 10


def test_ss_violating_program_is_outside_the_implication():
    cfg = tiny_cfg()
    program = assemble(LEAKY_OUT)
    report = check_ss_implies_poni([("leak", program)], cfg, CheckConfig(depth=3))
    assert report["counterexamples"] == []
    assert report["results"][0]["ss"] == "violation"


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
        record=EMPTY_RECORD,
    )
    ok, detail = check_timing_balance(fake, cfg)
    assert not ok
    assert not detail["sites"][0]["balanced"]
    assert not detail["sweep_identical"]


def test_timing_balance_trivial_skip_conditional():
    result, cfg = compile_text("high h; if h then skip else skip")
    ok, detail = check_timing_balance(result, cfg)
    assert ok and detail["sites"][0]["then_len"] == detail["sites"][0]["else_len"]


# -- compiled programs pass the checkers ----------------------------------------------


def test_compiled_program_is_ss_and_poni_secure():
    result, cfg = compile_text("high h; low x; if h then h := 1 else skip; out low 3", width=1)
    assert check_strong_security(result.program, cfg).secure
    scope = default_scope(RiscSystem(result.program, cfg))
    assert check_poni(result.program, cfg, CheckConfig(depth=4, fault_scope=scope)).secure
