"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import time
from fractions import Fraction
from random import Random

import pytest

from ftnilab.corpus import (
    HASH_EXPECTED_SHAPE,
    HASH_SAMPLES,
    config_for_source,
    corpus_sources,
    hash_config,
    hash_reference,
    hash_source,
)
from ftnilab.faultlab import Composition, uniform_environment
from ftnilab.lang import run_while
from ftnilab.machine import (
    RiscSystem,
    assemble,
    initial_state,
    run as machine_run,
    structurally_equivalent,
)
from ftnilab.seccomp import CompileError, compile_program
from ftnilab.verify import (
    CheckConfig,
    check_pni,
    check_poni,
    check_strong_security,
    check_timing_balance,
    default_scope,
    environment_family,
    random_risc_program,
    random_table_system,
)


@pytest.fixture(scope="module")
def corpus_w1():
    out = []
    for name, src in corpus_sources():
        cfg = config_for_source(src, 1)
        out.append((name, src, cfg, compile_program(src, cfg)))
    return out


@pytest.fixture(scope="module")
def corpus_w2():
    out = []
    for name, src in corpus_sources():
        cfg = config_for_source(src, 2)
        out.append((name, src, cfg, compile_program(src, cfg)))
    return out


def test_criterion_1_probability_closure():
    """Trace probabilities form a distribution: exact unit mass at every depth."""
    started = time.monotonic()
    rng = Random(2024)
    epsilons = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 5)]
    for index in range(50):
        n_locations = 3 + index % 3
        n_faulty = min(n_locations, 1 + index % 4)
        system = random_table_system(rng, n_locations=n_locations, n_faulty=n_faulty)
        env = uniform_environment(epsilons[index % len(epsilons)], system.faulty_names)
        comp = Composition(system, env)
        for state in system.all_states():
            for depth in range(5):
                total = sum(
                    comp.trace_distribution(state, env.initial, depth).values(),
                    Fraction(0),
                )
                assert total == 1, (index, state, depth)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"probability closure took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: unit trace mass on 50 systems, depths <= 4 ({elapsed:.1f}s)")


def test_criterion_2_compiled_corpus_is_strongly_secure(corpus_w1, corpus_w2):
    """Every well-typed program compiles and is strongly secure at widths 1 and 2."""
    assert len(corpus_w1) >= 25
    started = time.monotonic()
    violations = []
    for compiled in (corpus_w1, corpus_w2):
        for name, _, cfg, result in compiled:
            verdict = check_strong_security(result.program, cfg)
            if not verdict.secure:
                violations.append((name, cfg.width))
    elapsed = time.monotonic() - started
    assert violations == []
    assert elapsed < 120.0, f"strong-security sweep took {elapsed:.1f}s"
    print(
        f"\nPASS criterion 2: {len(corpus_w1)} programs strongly secure"
        f" at widths 1 and 2 ({elapsed:.1f}s)"
    )


def test_criterion_3_strong_security_implies_possibilistic(corpus_w1):
    """No program, compiled or random, is strongly secure yet leaks possibilistically."""
    rng = Random(77)
    raw_cfg = config_for_source(corpus_sources()[4][1], 1)  # two low, two high cells
    entries = [(name, cfg, result.program) for name, _, cfg, result in corpus_w1]
    for i in range(20):
        entries.append((f"random{i}", raw_cfg, random_risc_program(rng, raw_cfg, length=7)))
    counterexamples = []
    for name, cfg, program in entries:
        scope = default_scope(RiscSystem(program, cfg), max_bits=4)
        check = CheckConfig(depth=6, fault_scope=scope)
        ss = check_strong_security(program, cfg, check)
        if not ss.secure:
            continue
        poni = check_poni(program, cfg, check)
        if not poni.secure:
            counterexamples.append(name)
    assert counterexamples == []
    print(f"\nPASS criterion 3: zero SS-secure programs violate PoNI ({len(entries)} programs)")


def test_criterion_4_probabilistic_matches_possibilistic(corpus_w1):
    """Verdicts of the two noninterference checkers agree across the attacker family."""
    disagreements = []
    for name, _, cfg, result in corpus_w1:
        scope = default_scope(RiscSystem(result.program, cfg), max_bits=4)
        check = CheckConfig(depth=4, fault_scope=scope)
        poni = check_poni(result.program, cfg, check)
        for env_name, env in environment_family(scope):
            pni = check_pni(result.program, cfg, env, check)
            if pni.secure != poni.secure:
                disagreements.append((name, env_name))
    assert disagreements == []
    print(f"\nPASS criterion 4: checker verdicts agree on {len(corpus_w1)} programs x 4 attackers")


REJECTIONS = (
    ("explicit flow", "low x; high h; x := h", "assign"),
    ("output flow", "high h; out low h + 1", "out"),
    ("implicit flow", "high h; low x; if h then x := 1 else skip", "if-any"),
    ("timing after high", "high h; low x; while h do skip; x := 1", "seq"),
    ("high guard, low-writing body", "high h; low x; while h do x := 1", "while"),
)


def test_criterion_5_rejection_suite():
    """Each insecure shape is rejected with the offending rule named."""
    from ftnilab.lang import parse

    rejected = 0
    for label, text, rule in REJECTIONS:
        src = parse(text)
        cfg = config_for_source(src, 2)
        with pytest.raises(CompileError) as err:
            compile_program(src, cfg)
        assert err.value.rule == rule, label
        rejected += 1
    assert rejected == 5
    print("\nPASS criterion 5: 5/5 insecure programs rejected with the correct rule named")


def test_criterion_6_padded_conditionals_balance(corpus_w2):
    """Every padded conditional has branches of equal step count and secret-blind low timing."""
    sites = 0
    for name, _, cfg, result in corpus_w2:
        if not result.if_h_sites:
            continue
        ok, detail = check_timing_balance(result, cfg)
        assert ok, (name, detail)
        sites += len(result.if_h_sites)
    assert sites > 0
    print(f"\nPASS criterion 6: {sites} padded conditional sites balanced, sweeps identical")


def test_criterion_7_semantic_preservation(corpus_w2):
    """Interpreter and compiled machine agree on outputs for every initial memory."""
    budget = 10_000
    checked = 0
    for name, src, cfg, result in corpus_w2:
        variables = src.variables()
        for values in itertools.product(range(cfg.word_values), repeat=len(variables)):
            memory = dict(zip(variables, values))
            ref_out, _, _, ref_done = run_while(src.body, dict(memory), cfg.width, budget)
            mem_cells = {result.v2p[var]: memory[var] for var in variables}
            mach_out, _, mach_done = machine_run(
                result.program, initial_state(cfg, mem_cells), cfg, budget
            )
            assert ref_done and mach_done, (name, memory)
            assert ref_out == mach_out, (name, memory, ref_out, mach_out)
            checked += 1
    print(f"\nPASS criterion 7: outputs preserved on {checked} program/memory combinations")


def test_criterion_8_hash_golden():
    """The showcase hash compiles, matches its reference formula and expected shape."""
    src = hash_source()
    cfg = hash_config(8)
    result = compile_program(src, cfg)  # must type-check with the published levels
    ok, why = structurally_equivalent(result.program, assemble(HASH_EXPECTED_SHAPE))
    assert ok, why
    assert len(HASH_SAMPLES) >= 5
    for (i, j, p, q, r, m) in HASH_SAMPLES:
        mem = {
            result.v2p["i"]: i,
            result.v2p["p"]: p,
            result.v2p["q"]: q,
            result.v2p["r"]: r,
            result.v2p["m"]: m,
        }
        _, final, done = machine_run(result.program, initial_state(cfg, mem), cfg, 100_000)
        assert done
        assert final.mem[result.v2p["source"]] == hash_reference(i, p, q, r, m), (i, j, p, q, r, m)
    print(
        f"\nPASS criterion 8: hash matches the reference on {len(HASH_SAMPLES)} inputs,"
        " expected shape reproduced"
    )
