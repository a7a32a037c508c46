"""Typed compilation: lattices, register records, rule shapes, rejections."""

import itertools

import pytest

from ftnilab.corpus import config_for_source, corpus_sources
from ftnilab.lang import If, Seq, While, parse
from ftnilab.machine import (
    LOW,
    AssemblyError,
    disassemble,
    initial_state,
    step as machine_step,
)
from ftnilab.seccomp import (
    EMPTY_RECORD,
    CompileError,
    RegisterRecord,
    Timing,
    TIMING_HIGH,
    TIMING_LOW,
    WriteEffect,
    compile_program,
    _Compiler,
)


def cfg_for(text, width=2, **kw):
    return config_for_source(parse(text, allow_positive_guards=kw.pop("jlez", False)), width, **kw)


def compile_src(text, width=2, **kw):
    jlez = kw.pop("jlez", False)
    src = parse(text, allow_positive_guards=jlez)
    cfg = config_for_source(src, width, enable_jlez=jlez, **kw)
    return compile_program(src, cfg), cfg


# -- register records --------------------------------------------------------


def test_record_update_restores_bijection():
    rec = RegisterRecord({"r0": "x"})
    assert rec.update("r1", "x").items() == (("r1", "x"),)


def test_record_meet_keeps_agreement():
    a = RegisterRecord({"r0": "x"})
    b = RegisterRecord({"r0": "x", "r1": "y"})
    assert a.meet(b) == a
    assert b.meet(a) == a


def test_record_break_binding():
    assert RegisterRecord({"r0": "x"}).without("r0") == EMPTY_RECORD


def test_record_leq_is_containment():
    small = RegisterRecord({"r0": "x"})
    big = RegisterRecord({"r0": "x", "r1": "y"})
    assert small <= big
    assert not big <= small
    assert big <= big


def test_record_rejects_duplicate_variable():
    with pytest.raises(ValueError):
        RegisterRecord({"r0": "x", "r1": "x"})


# -- timing lattice ----------------------------------------------------------

TIMINGS = [Timing.exact(0), Timing.exact(1), Timing.exact(3), TIMING_LOW, TIMING_HIGH]


def test_timing_order_chain():
    assert Timing.exact(0) <= Timing.exact(3) <= TIMING_LOW <= TIMING_HIGH
    assert not TIMING_LOW <= Timing.exact(3)


def test_blur_and_then_are_commutative_and_associative():
    for a, b in itertools.product(TIMINGS, repeat=2):
        assert a.blur(b) == b.blur(a)
        assert a.then(b) == b.then(a)
    for a, b, c in itertools.product(TIMINGS, repeat=3):
        assert a.blur(b).blur(c) == a.blur(b.blur(c))
        assert a.then(b).then(c) == a.then(b.then(c))


def test_then_has_zero_identity_and_monotone():
    zero = Timing.exact(0)
    for t in TIMINGS:
        assert zero.then(t) == t
    for a, b in itertools.product(TIMINGS, repeat=2):
        if a <= b:
            for c in TIMINGS:
                assert a.then(c) <= b.then(c)
                assert a.blur(c) <= b.blur(c)


def test_write_effect_lattice():
    assert WriteEffect.HIGH_ONLY <= WriteEffect.ANY
    assert WriteEffect.HIGH_ONLY.join(WriteEffect.ANY) is WriteEffect.ANY
    for w in WriteEffect:
        assert w.join(w) is w
    assert WriteEffect.ANY.join(WriteEffect.HIGH_ONLY) is WriteEffect.ANY


# -- expression compilation ---------------------------------------------------


def expr_compiler(text="low x; low y; high h; skip", width=2):
    src = parse(text)
    cfg = config_for_source(src, width)
    return _Compiler(src, cfg)


def test_expr_constant_shape():
    comp = expr_compiler()
    n, reg, rec = comp.compile_expr(EMPTY_RECORD, frozenset(), None, parse("low x; x := 7").body.expr, LOW)
    assert n == 1 and reg == "rl0" and rec == EMPTY_RECORD
    assert [i.op for i in comp.em.instrs] == ["movek"]
    assert comp.em.instrs[0].value == 7 % 4


def test_expr_cached_variable_emits_nothing():
    comp = expr_compiler()
    rec = RegisterRecord({"rl1": "x"})
    n, reg, rec2 = comp.compile_expr(rec, frozenset(), None, parse("low x; x := x").body.expr, LOW)
    assert (n, reg, rec2) == (0, "rl1", rec)
    assert comp.em.instrs == []


def test_expr_uncached_plus_constant_shape():
    comp = expr_compiler()
    expr = parse("low x; x := x + 2").body.expr
    n, reg, rec = comp.compile_expr(EMPTY_RECORD, frozenset(), None, expr, LOW)
    assert n == 3
    assert [i.op for i in comp.em.instrs] == ["load", "movek", "add"]
    assert rec == EMPTY_RECORD  # the combining write clears the result register


def test_expr_cache_reserved_by_outer_operand_reloads():
    # x cached in the register holding the first operand: the second use
    # must reload rather than alias, or the inner product would clobber it.
    src = parse("low x; x := x + x * 2")
    comp = _Compiler(src, config_for_source(src, 2, low_regs=3))
    n, reg, rec = comp.compile_expr(
        RegisterRecord({"rl0": "x"}), frozenset(), None, src.body.expr, LOW
    )
    ops = [i.op for i in comp.em.instrs]
    assert ops == ["load", "movek", "mul", "add"]
    assert comp.em.instrs[0].reg != "rl0"
    assert reg == "rl0"


def test_expr_no_register_error():
    comp = expr_compiler()
    expr = parse("low x; low y; x := (x + y) + (x + y)").body.expr
    with pytest.raises(CompileError) as err:
        comp.compile_expr(EMPTY_RECORD, frozenset(), None, expr, LOW)
    assert err.value.reason == "no-register"


def test_expr_level_mismatch():
    comp = expr_compiler()
    with pytest.raises(CompileError) as err:
        comp.compile_expr(EMPTY_RECORD, frozenset(), None, parse("high h; h := h").body.expr, LOW)
    assert err.value.reason == "level-mismatch"


# -- command compilation -------------------------------------------------------


def test_assign_high_constant_shape_and_timing():
    result, _ = compile_src("high h; h := 1")
    assert [i.op for i in result.program.instructions] == ["movek", "store"]
    assert result.timing == Timing.exact(2)
    assert result.write_effect is WriteEffect.HIGH_ONLY


def test_low_assign_then_out_prefers_cache():
    # The emitted output reuses the register still caching x, so the
    # program is three instructions, not four.
    result, _ = compile_src("low x; x := 1; out low x")
    assert [i.op for i in result.program.instructions] == ["movek", "store", "out"]
    assert result.timing == TIMING_LOW
    assert result.write_effect is WriteEffect.ANY


def test_skip_compiles_to_nop():
    result, _ = compile_src("low x; skip")
    assert [i.op for i in result.program.instructions] == ["nop"]
    assert result.timing == Timing.exact(1)
    assert result.write_effect is WriteEffect.HIGH_ONLY


def test_padded_conditional_arithmetic():
    # guard 1 step, branches 1 and 3 steps: the then branch gains two
    # nops and the whole conditional runs in 1 + 3 + 2 = 6 steps.
    result, cfg = compile_src("high h; if h then skip else { h := 1; skip }")
    assert result.timing == Timing.exact(6 + 1)  # +1: landing nop for the exit label
    site = result.if_h_sites[0]
    assert site.then_end - site.then_start == site.else_end - site.else_start
    for mem_h in range(4):
        state = initial_state(cfg, {0: mem_h})
        steps = 0
        while True:
            outcome = machine_step(result.program, state, cfg)
            if outcome is None:
                break
            _, state = outcome
            steps += 1
        assert steps == result.timing.steps


def test_exact_timing_matches_execution_everywhere():
    result, cfg = compile_src("high h; h := 1; h := h + 1")
    assert result.timing.is_exact
    values = range(cfg.word_values)
    for h in values:
        state = initial_state(cfg, {0: h})
        steps = 0
        while (outcome := machine_step(result.program, state, cfg)) is not None:
            _, state = outcome
            steps += 1
        assert steps == result.timing.steps


def test_nested_conditional_timing_stays_exact_despite_unequal_arm_sizes():
    # One arm holds a nested conditional (more instructions than steps), the
    # other is straight-line.  Step-count padding cannot equalize instruction
    # counts here, but every execution still takes exactly the declared time.
    text = (
        "high h; high g;"
        " if h then { if g then h := 1 else h := 2 }"
        " else { h := 1; h := 2; h := 3 }"
    )
    result, cfg = compile_src(text)
    assert result.timing.is_exact
    for h in range(cfg.word_values):
        for g in range(cfg.word_values):
            state = initial_state(cfg, {0: h, 1: g})
            steps = 0
            while (outcome := machine_step(result.program, state, cfg)) is not None:
                _, state = outcome
                steps += 1
            assert steps == result.timing.steps, (h, g)


def test_guard_that_fits_only_the_low_registers_compiles_unpadded():
    # x + y needs two registers: the two low ones hold it, the one high one
    # does not, so the conditional takes its guard's own level.
    result, _ = compile_src(
        "low x; low y; high h; if x + y then h := 1 else h := 2", low_regs=2, high_regs=1
    )
    assert result.timing == TIMING_LOW
    assert result.if_h_sites == ()


def test_nested_guard_that_does_not_fit_at_h_leaves_the_outer_conditional_unpadded():
    text = "low x; low y; high h; if x then { if x + y then h := 1 else h := 2 } else h := 3"
    result, _ = compile_src(text, low_regs=2, high_regs=1)
    assert result.timing == TIMING_LOW
    assert result.if_h_sites == ()
    # With a second high register both conditionals are padded.
    padded, _ = compile_src(text, low_regs=2, high_regs=2)
    assert padded.timing.is_exact
    assert len(padded.if_h_sites) == 2


def test_while_emits_reload_store_preamble():
    result, _ = compile_src("low x; while x do skip")
    ops = [i.op for i in result.program.instructions]
    # reload/copy-back pairs around the guarded jump, plus the exit landing
    assert ops == ["load", "store", "jz", "nop", "load", "store", "jmp", "nop"]
    assert result.program.instructions[1].addr == result.program.instructions[0].addr


def test_positive_guard_compiles_to_signed_jump():
    result, _ = compile_src("high g; while g > 0 do g := g - 1", jlez=True)
    assert any(i.op == "jlez" for i in result.program.instructions)
    assert all(i.op != "jz" for i in result.program.instructions)


def test_positive_guard_on_a_config_without_jlez_is_refused_at_its_jump():
    text = "low a; high g; a := 1; while g > 0 do { g := g - 1 }"
    src = parse(text, allow_positive_guards=True)
    with pytest.raises(AssemblyError) as refused:
        compile_program(src, config_for_source(src, 2))
    assert str(refused.value) == "instruction 4: jlez requires the extension flag"


def test_a_type_error_after_a_positive_guard_wins_over_the_missing_jlez():
    text = "low a; high g; while g > 0 do { g := g - 1 }; a := g"
    src = parse(text, allow_positive_guards=True)
    with pytest.raises(CompileError, match="variable g has level H"):
        compile_program(src, config_for_source(src, 2))


def test_compilation_is_deterministic():
    text = "high h; low x; if h then h := 1 else h := 2; x := 7; out low x"
    a, _ = compile_src(text)
    b, _ = compile_src(text)
    assert disassemble(a.program) == disassemble(b.program)
    assert a.meta() == b.meta()


def test_corpus_compiles_well_formed_at_both_widths():
    for name, src in corpus_sources():
        for width in (1, 2):
            cfg = config_for_source(src, width)
            result = compile_program(src, cfg)
            assert len(result.program) > 0, name
            # construction re-checks label uniqueness and jump resolution
            assert result.program.labels() is not None


# -- loop record fixpoint ------------------------------------------------------


def test_fixpoint_untouched_body_converges_immediately():
    src = parse("low x; low y; while x do skip")
    loop = src.body
    assert isinstance(loop, While)
    rec = RegisterRecord({"rl0": "y"})
    _, _, _, out = _Compiler(src, config_for_source(src, 2)).compile_while(rec, None, loop)
    assert out == RegisterRecord({"rl0": "y", "rl1": "x"})


def test_fixpoint_shrinks_when_body_moves_the_guard_variable():
    src = parse("low x; low y; while x do x := y")
    rec = RegisterRecord({"rl0": "y"})
    loop = src.body.second if hasattr(src.body, "second") else src.body
    _, _, _, out = _Compiler(src, config_for_source(src, 2)).compile_while(rec, None, loop)
    assert out == RegisterRecord({"rl1": "x"})


def test_fixpoint_iterations_bounded_by_record_size():
    # The candidate record only ever shrinks, so |record| + 1 passes suffice.
    src = parse("low x; low y; while x do x := y")
    comp = _Compiler(src, config_for_source(src, 2))
    rec = RegisterRecord({"rl0": "y"})
    loop = src.body.second if hasattr(src.body, "second") else src.body
    calls = 0
    original = comp.compile_cmd

    def counting(rec_b, label, cmd):
        nonlocal calls
        calls += cmd is loop.body
        return original(rec_b, label, cmd)

    comp.compile_cmd = counting
    comp.compile_while(rec, None, loop)
    assert calls <= 2 + 1


# -- one judgement per command --------------------------------------------------


def commands(cmd):
    """Every command of an AST except the sequences that join them."""
    stack, found = [cmd], []
    while stack:
        cmd = stack.pop()
        if isinstance(cmd, Seq):
            stack += (cmd.first, cmd.second)
            continue
        found.append(cmd)
        if isinstance(cmd, If):
            stack += (cmd.then_cmd, cmd.else_cmd)
        elif isinstance(cmd, While):
            stack.append(cmd.body)
    return found


@pytest.mark.parametrize(
    "text",
    [
        "low x; " + "if x then { " * 12 + "x := 1" + " } else skip" * 12,
        "low x; " + "while x do { " * 10 + "skip" + "; x := x - 1 }" * 10,
    ],
    ids=["low-guard-conditionals-12", "loops-10"],
)
def test_each_command_is_compiled_once(text):
    src = parse(text)
    comp = _Compiler(src, config_for_source(src, 2))
    calls = 0
    original = comp.compile_cmd

    def counting(rec, label, cmd):
        nonlocal calls
        calls += not isinstance(cmd, Seq)
        return original(rec, label, cmd)

    comp.compile_cmd = counting
    comp.compile_cmd(EMPTY_RECORD, None, src.body)
    assert calls == len(commands(src.body))


# -- rejection suite -----------------------------------------------------------


def reject(text, **kw):
    with pytest.raises(CompileError) as err:
        compile_src(text, **kw)
    return err.value


def test_reject_explicit_flow():
    err = reject("low x; high h; x := h")
    assert err.rule == "assign" and err.reason == "level-mismatch"


def test_reject_output_flow():
    err = reject("high h; out low h + 1")
    assert err.rule == "out" and err.reason == "level-mismatch"


def test_reject_implicit_flow():
    err = reject("high h; low x; if h then x := 1 else skip")
    assert err.rule == "if-any" and err.reason == "implicit-flow"


def test_reject_timing_after_high():
    err = reject("high h; low x; while h do skip; x := 1")
    assert err.rule == "seq" and err.reason == "timing-after-high"


def test_reject_high_guard_low_writing_loop():
    err = reject("high h; low x; while h do x := 1")
    assert err.rule == "while" and err.reason == "implicit-flow"


def test_reject_low_guard_loop_with_secret_timing_body():
    err = reject("low x; high h; while x do { while h do skip }")
    assert err.rule == "while" and err.reason == "timing-after-high"


def test_reject_names_the_rule_when_no_register_fits():
    for text, rule in (
        ("low x; while x do skip", "while"),
        ("low x; x := 1", "assign"),
        ("low x; out low x", "out"),
    ):
        err = reject(text, low_regs=0)
        assert (err.rule, err.reason) == (rule, "no-register"), text


def test_error_carries_offending_command():
    err = reject("high h; low x; if h then x := 1 else skip")
    assert "x := 1" in err.command


# -- showcase program -----------------------------------------------------------


def test_hash_program_types_with_published_levels():
    from ftnilab import corpus

    result = compile_program(corpus.hash_source(), corpus.hash_config(8))
    assert result.timing == TIMING_HIGH
    assert result.write_effect is WriteEffect.ANY
    assert len(result.program) == 51
