"""Source language: parser, pretty-printer, reference interpreter."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from ftnilab.faultlab import TAU, output
from ftnilab.lang import (
    BINOPS,
    Assign,
    BinOp,
    Const,
    DONE,
    Done,
    If,
    Out,
    ParseError,
    Seq,
    Skip,
    SourceProgram,
    Var,
    While,
    eval_expr,
    guard_holds,
    low_equal,
    parse,
    render_source,
    run_while,
    step_while,
    _tokenize,
)
from ftnilab.machine import HIGH, LOW


def test_parse_assign_then_out():
    program = parse("low x; x := 1; out low x")
    assert program.levels == (("x", LOW),)
    assert program.body == Seq(Assign("x", Const(1)), Out("low", Var("x")))


def test_parse_rejects_expression_while_guard():
    with pytest.raises(ParseError, match="guard must be a variable"):
        parse("high h; while h+1 do skip")


def test_parse_rejects_duplicate_declaration():
    with pytest.raises(ParseError, match="duplicate"):
        parse("low x; high x; skip")


def test_parse_rejects_undeclared_variable():
    with pytest.raises(ParseError, match="undeclared"):
        parse("low x; y := 1")


def test_parse_if_with_expression_guard():
    program = parse("low x; if x + 1 then skip else x := 0")
    assert isinstance(program.body, If)
    assert program.body.guard == BinOp("+", Var("x"), Const(1))


def test_positive_guard_needs_extension():
    with pytest.raises(ParseError, match="jlez"):
        parse("low x; while x > 0 do skip")
    program = parse("low x; while x > 0 do skip", allow_positive_guards=True)
    assert isinstance(program.body, While) and program.body.positive


def test_precedence_and_parentheses():
    program = parse("low x; x := 1 + 2 * 3")
    assert program.body == Assign("x", BinOp("+", Const(1), BinOp("*", Const(2), Const(3))))
    program = parse("low x; x := (1 + 2) * 3")
    assert program.body == Assign("x", BinOp("*", BinOp("+", Const(1), Const(2)), Const(3)))


@pytest.mark.parametrize(
    "text, expr",
    [
        ("1 - 2 & 3", BinOp("-", Const(1), BinOp("&", Const(2), Const(3)))),
        ("1 & 2 + 3", BinOp("+", BinOp("&", Const(1), Const(2)), Const(3))),
        ("1 - 2 + 3", BinOp("+", BinOp("-", Const(1), Const(2)), Const(3))),
        ("1 * 2 & 3", BinOp("&", BinOp("*", Const(1), Const(2)), Const(3))),
        ("1 - (2 - 3)", BinOp("-", Const(1), BinOp("-", Const(2), Const(3)))),
    ],
)
def test_and_binds_as_times_and_equal_bindings_nest_left(text, expr):
    assert parse(f"low x; x := {text}").body == Assign("x", expr)


def test_render_parse_round_trip():
    texts = [
        "low x; x := 1; out low x",
        "high h; low x; if h then h := 1 else { h := 2; skip }",
        "low x; while x do { x := x - 1; out low x }",
        "low a; low b; a := (a + b) * 2 & 3",
    ]
    for text in texts:
        program = parse(text)
        rendered = render_source(program)
        assert parse(rendered) == program


def test_render_parse_round_trip_positive_guard():
    program = parse("high g; while g > 0 do g := g - 1", allow_positive_guards=True)
    assert parse(render_source(program), allow_positive_guards=True) == program


NAMES = ("x", "y", "h")
EXPRS = st.recursive(
    st.integers(0, 2**16).map(Const) | st.sampled_from(NAMES).map(Var),
    lambda inner: st.builds(BinOp, st.sampled_from(BINOPS), inner, inner),
    max_leaves=12,
)


def spine(cmd):
    """The non-sequence commands of a left-nested sequence, in order."""
    seconds = []
    while isinstance(cmd, Seq):
        seconds.append(cmd.second)
        cmd = cmd.first
    return [cmd, *reversed(seconds)]


def compound(inner):
    """Conditionals and loops over ``inner`` bodies, and sequences built as
    the parser builds them: a left spine of non-sequence commands."""
    return (
        st.builds(If, EXPRS, inner, inner)
        | st.builds(While, st.sampled_from(NAMES), inner, st.booleans())
        | st.lists(inner, min_size=2, max_size=4).map(
            lambda cmds: functools.reduce(Seq, [part for cmd in cmds for part in spine(cmd)])
        )
    )


COMMANDS = st.recursive(
    st.just(Skip())
    | st.builds(Assign, st.sampled_from(NAMES), EXPRS)
    | st.builds(Out, st.sampled_from(("low", "high")), EXPRS),
    compound,
    max_leaves=16,
)
PROGRAMS = st.builds(
    SourceProgram,
    st.tuples(*(st.tuples(st.just(name), st.sampled_from((LOW, HIGH))) for name in NAMES)),
    COMMANDS,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(program=PROGRAMS)
def test_parse_reads_back_every_rendered_program(program):
    assert parse(render_source(program), allow_positive_guards=True) == program


def test_eval_expr_examples():
    assert eval_expr(BinOp("+", Var("x"), Const(2)), {"x": 1}, 8) == 3
    assert eval_expr(Const(9), {}, 8) == 9
    assert eval_expr(BinOp("+", Const(3), Const(2)), {}, 2) == 1  # wraps at width 2


def test_eval_expr_rejects_unknown_variable():
    with pytest.raises(KeyError):
        eval_expr(Var("zz"), {"x": 0}, 8)


def test_step_assign_then_out():
    program = parse("low x; x := 1; out low x")
    action, cmd, mem = step_while(program.body, {"x": 0}, 8)
    assert action == TAU and mem == {"x": 1}
    action, cmd, mem = step_while(cmd, mem, 8)
    assert action == output("low", 1)
    assert isinstance(cmd, Done)
    assert step_while(cmd, mem, 8) is None


def test_step_while_zero_guard_terminates():
    body = parse("low x; while x do skip").body
    action, cmd, mem = step_while(body, {"x": 0}, 8)
    assert action == TAU and cmd == DONE and mem == {"x": 0}


def test_step_if_picks_else_on_zero():
    body = parse("low x; if 0 then skip else out low 1").body
    action, cmd, _ = step_while(body, {"x": 0}, 8)
    assert action == TAU and cmd == Out("low", Const(1))


def test_step_while_unrolls_on_nonzero():
    body = parse("low x; while x do x := x - 1").body
    action, cmd, _ = step_while(body, {"x": 2}, 8)
    assert action == TAU
    assert cmd == Seq(Assign("x", BinOp("-", Var("x"), Const(1))), body)


def test_sequence_contracts_when_head_finishes():
    body = parse("low x; skip; x := 1").body
    action, cmd, mem = step_while(body, {"x": 0}, 8)
    assert cmd == Assign("x", Const(1))


def test_interpreter_is_deterministic_and_total():
    body = parse("low x; low y; while x do { y := y + 1; x := x - 1 }").body
    mem = {"x": 3, "y": 0}
    cmd = body
    for _ in range(50):
        first = step_while(cmd, mem, 4)
        second = step_while(cmd, mem, 4)
        assert first == second
        if first is None:
            break
        _, cmd, mem = first
        assert set(mem) == {"x", "y"}
    assert mem == {"x": 0, "y": 3}


def test_positive_guard_matches_signed_reading():
    for width in (2, 4):
        half = 1 << (width - 1)
        for value in range(1 << width):
            assert guard_holds(value, True, width) == (0 < value < half)
            assert guard_holds(value, False, width) == (value != 0)


def test_run_while_budget_and_outputs():
    body = parse("low x; x := 2; while x do { out low x; x := x - 1 }").body
    outs, mem, steps, done = run_while(body, {"x": 0}, 8, 100)
    assert done and [str(a) for a in outs] == ["low!2", "low!1"]
    outs, _, steps, done = run_while(body, {"x": 0}, 8, 3)
    assert not done and steps == 3


def test_run_while_steps_a_long_sequence():
    # the parser nests a sequence to the left, 2,000 levels deep here
    body = parse("low x;" + " x := x + 1;" * 1999 + " out low x").body
    outs, mem, steps, done = run_while(body, {"x": 0}, 16, 10_000)
    assert done and steps == 2000 and mem == {"x": 1999}
    assert [str(a) for a in outs] == ["low!1999"]


def test_low_equal_ignores_high_variables():
    levels = {"x": LOW, "h": HIGH}
    assert low_equal({"x": 1, "h": 0}, {"x": 1, "h": 3}, levels)
    assert not low_equal({"x": 1, "h": 0}, {"x": 2, "h": 0}, levels)


def test_high_write_commands_preserve_low_view():
    # Commands whose annotation is high-only-writes never touch low memory
    # and never emit a low-visible action; checked directly on the stepper.
    from ftnilab import seccomp
    from ftnilab.corpus import config_for_source

    text = "high h; low x; h := 3"
    program = parse(text)
    cfg = config_for_source(program, 2)
    result = seccomp.compile_program(
        parse("high h; low x; h := 3"), cfg
    )
    assert result.write_effect is seccomp.WriteEffect.HIGH_ONLY
    levels = dict(program.levels)
    for h in range(4):
        for x in range(4):
            mem = {"h": h, "x": x}
            cmd = program.body
            while True:
                outcome = step_while(cmd, mem, 2)
                if outcome is None:
                    break
                action, cmd, mem2 = outcome
                assert action.channel != "low"
                assert low_equal(mem, mem2, levels)
                mem = mem2


@pytest.mark.parametrize(
    "text, message",
    [
        ("low x;\nx := y", "undeclared variable 'y' (line 2, col 6)"),
        ("low x;\ny := x", "undeclared variable 'y' (line 2, col 1)"),
        ("low x;\nwhile y do skip", "undeclared variable 'y' (line 2, col 7)"),
        ("low x;\nif x then out low z else skip", "undeclared variable 'z' (line 2, col 19)"),
    ],
)
def test_parse_reports_an_undeclared_variable_where_it_is_used(text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_tokenize_pins_kinds_texts_and_positions():
    """Tabs and blanks count one column each, a ``#`` comment runs to the
    end of its line, and blank or comment-only lines yield no token."""
    text = (
        "low x;\thigh h; # a comment := here\n"
        "\twhile x > 0 do {x:=x-1}  \n"
        "  \n"
        "# only a comment\n"
        "out\thigh (h&3)*x;\t \n"
    )
    stream = [(t.kind, t.text, t.line, t.column) for t in _tokenize(text)]
    assert stream == [
        ("id", "low", 1, 1), ("id", "x", 1, 5), ("op", ";", 1, 6),
        ("id", "high", 1, 8), ("id", "h", 1, 13), ("op", ";", 1, 14),
        ("id", "while", 2, 2), ("id", "x", 2, 8), ("op", ">", 2, 10),
        ("num", "0", 2, 12), ("id", "do", 2, 14), ("op", "{", 2, 17),
        ("id", "x", 2, 18), ("op", ":=", 2, 19), ("id", "x", 2, 21),
        ("op", "-", 2, 22), ("num", "1", 2, 23), ("op", "}", 2, 24),
        ("id", "out", 5, 1), ("id", "high", 5, 5), ("op", "(", 5, 10),
        ("id", "h", 5, 11), ("op", "&", 5, 12), ("num", "3", 5, 13),
        ("op", ")", 5, 14), ("op", "*", 5, 15), ("id", "x", 5, 16),
        ("op", ";", 5, 17),
    ]


@pytest.mark.parametrize(
    "text, message",
    [
        ("low x;\n x := 1 $ 2", "unexpected character '$' (line 2, col 9)"),
        ("low x;\n\tx := 1é", "unexpected character 'é' (line 2, col 8)"),
        ("low x; x := ٣٣; out low x", "unexpected character '٣' (line 1, col 13)"),
        ("low x٣; x٣ := 1; out low x٣", "unexpected character '٣' (line 1, col 6)"),
        ("low x; x := 1 # $ is inside a comment\n@", "unexpected character '@' (line 2, col 1)"),
        ("low x; x := 1 +", "expected an expression at end of input (line 1, col 15)"),
        ("low x; x :=\n# trailing\n  ", "expected an expression at end of input (line 1, col 10)"),
        ("low x;\n\twhile x", "while guard must be a variable at end of input (line 2, col 8)"),
        ("", "expected a statement at end of input (line 1, col 1)"),
        ("# only a comment\n", "expected a statement at end of input (line 1, col 1)"),
    ],
)
def test_parse_errors_name_their_line_and_column(text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message
