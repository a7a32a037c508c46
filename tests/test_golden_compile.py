"""Golden compiles: the compiler's output pinned byte for byte.

``golden_compile.json`` holds, for every program on three register
configurations (two low and two high registers, one of each, and two low
with one high, where a guard can fit the low registers but not the high
ones) at width 2, either the disassembly and ``meta()`` of the compiled
program or the text of the ``CompileError`` that rejected it.  The programs are the
corpus, the keyed-hash source and its shrunken variant, a few hand-picked
shapes (a loop under a high guard, a nested padded conditional with arms
of unequal size, one program per rejection rule) and a pool of seeded
random sources rendered with ``lang.render_source``.  Any change to rule
selection, register choice, padding, label naming or the padded-site
ranges shows up here.

Regenerate (only when a change to the compiled output is intended) with
``PYTHONPATH=src python tests/test_golden_compile.py > tests/golden_compile.json``.
"""

import json
from pathlib import Path
from random import Random

from ftnilab.corpus import CORPUS, HASH_SOURCE, SHRUNKEN_HASH, config_for_source
from ftnilab.lang import (
    BINOPS,
    Assign,
    BinOp,
    Const,
    If,
    Out,
    Seq,
    Skip,
    SourceProgram,
    Var,
    While,
    parse,
    render_source,
)
from ftnilab.machine import HIGH, LOW, assemble, disassemble
from ftnilab.seccomp import CompileError, compile_program

GOLDEN = Path(__file__).with_name("golden_compile.json")
WIDTH = 2
REGISTERS = {"2+2": (2, 2), "1+1": (1, 1), "2+1": (2, 1)}
RANDOM_SEED = 11
RANDOM_DRAWS = 240

EXTRA = (
    ("high_guard_loop_in_branch", "high h; low x; if h then { while h do h := h - 1 } else h := 1"),
    (
        "nested_if_h_unequal_arms",
        "high h; high g; if h then { if g then h := 1 else h := 2 }"
        " else { h := 1; h := 2; h := 3 }",
    ),
    ("reject_assign", "low x; high h; x := h"),
    ("reject_out", "high h; out low h + 1"),
    ("reject_seq", "high h; low x; while h do skip; x := 1"),
    ("reject_if_any", "high h; low x; if h then x := 1 else skip"),
    ("reject_while_implicit_flow", "high h; low x; while h do x := 1"),
    ("reject_while_timing", "low x; high h; while x do { while h do skip }"),
    ("reject_no_register", "low x; low y; x := (x + y) + (x + y)"),
)

# Every rule a compile on these configurations can be rejected by.
REJECTION_RULES = {"assign", "out", "seq", "if-any", "while"}


def random_source(rng: Random) -> str:
    """A small random source program over one to three declared variables.

    Most expressions read only variables the context may read, so most
    draws type-check; the rest exercise the rejection rules.
    """
    names = [f"v{i}" for i in range(rng.randint(1, 3))]
    levels = tuple((name, rng.choice((LOW, HIGH, HIGH))) for name in names)
    lows = [name for name, level in levels if level is LOW]

    def expr(depth: int, pool: list[str]):
        pool = pool if pool and rng.random() < 0.85 else names
        if depth == 0 or rng.random() < 0.6:
            return Const(rng.randint(0, 3)) if rng.random() < 0.4 else Var(rng.choice(pool))
        return BinOp(rng.choice(BINOPS), expr(depth - 1, pool), expr(depth - 1, pool))

    def cmd(depth: int):
        kind = rng.choice(
            ("skip", "assign", "assign", "out") + (("if", "if", "while", "seq", "seq") if depth else ())
        )
        if kind == "skip":
            return Skip()
        if kind == "assign":
            var = rng.choice(names)
            return Assign(var, expr(1, names if var not in lows else lows))
        if kind == "out":
            channel = rng.choice(("low", "high"))
            return Out(channel, expr(1, lows if channel == "low" else names))
        if kind == "if":
            return If(expr(1, names), cmd(depth - 1), cmd(depth - 1))
        if kind == "while":
            return While(rng.choice(names), cmd(depth - 1), rng.random() < 0.3)
        return Seq(cmd(depth - 1), cmd(depth - 1))

    return render_source(SourceProgram(levels, Seq(cmd(3), cmd(2))))


def programs() -> list[tuple[str, str, bool]]:
    """(name, source text, positive guards allowed) for every pinned program."""
    named = [(name, text, False) for name, text in CORPUS + EXTRA]
    named += [("hash", HASH_SOURCE, True), ("shrunken_hash", SHRUNKEN_HASH, True)]
    rng = Random(RANDOM_SEED)
    named += [(f"random_{i}", random_source(rng), True) for i in range(RANDOM_DRAWS)]
    return named


def compile_entry(text: str, jlez: bool, low_regs: int, high_regs: int) -> dict:
    src = parse(text, allow_positive_guards=jlez)
    cfg = config_for_source(src, WIDTH, low_regs, high_regs, enable_jlez=jlez)
    try:
        result = compile_program(src, cfg)
    except CompileError as err:
        return {"error": str(err)}
    return {"asm": disassemble(result.program).splitlines(), "meta": result.meta()}


def compute_golden() -> dict:
    doc = {}
    for name, text, jlez in programs():
        entry = {"source": text}
        for key, (low_regs, high_regs) in REGISTERS.items():
            entry[key] = compile_entry(text, jlez, low_regs, high_regs)
        doc[name] = entry
    return doc


def render(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def test_compiles_match_golden_file():
    assert render(compute_golden()) == GOLDEN.read_text(encoding="utf-8")


def test_golden_file_covers_padding_and_every_rejection_rule():
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    compiles = [entry[key] for entry in doc.values() for key in REGISTERS]
    assert doc["padded_if_low_guard"]["2+2"]["meta"]["if_h_sites"]
    assert doc["nested_if_h_unequal_arms"]["2+2"]["meta"]["if_h_sites"]
    assert "error" not in doc["high_guard_loop_in_branch"]["2+2"]
    rules = {c["error"].split(":")[0].removeprefix("rule ") for c in compiles if "error" in c}
    assert rules == REJECTION_RULES
    assert sum(len(c["meta"]["if_h_sites"]) for c in compiles if "meta" in c) >= 100


def test_assembler_undoes_the_disassembly_of_every_golden_compile():
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    compiled = 0
    for name, text, jlez in programs():
        src = parse(text, allow_positive_guards=jlez)
        for key, (low_regs, high_regs) in REGISTERS.items():
            if "asm" not in doc[name][key]:
                continue
            cfg = config_for_source(src, WIDTH, low_regs, high_regs, enable_jlez=jlez)
            program = compile_program(src, cfg).program
            assert disassemble(program).splitlines() == doc[name][key]["asm"]
            assert assemble(disassemble(program)) == program
            compiled += 1
    assert compiled > 300


if __name__ == "__main__":
    print(render(compute_golden()), end="")
