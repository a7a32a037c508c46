"""Program corpus for the desk-scale security experiments.

A suite of small well-typed source programs covering every typing rule,
plus the keyed-hash showcase: its source, the register levels it expects,
a reference transcription of its expected compiled shape, and an
independent formula to validate the computed hashes against.
"""

from __future__ import annotations

from .lang import SourceProgram, parse
from .machine import MachineConfig, standard_config

# name -> source text; all compile with two registers per level.
CORPUS: tuple[tuple[str, str], ...] = (
    ("skip_only", "low x; skip"),
    ("assign_low_const", "low x; x := 1"),
    ("assign_high_const", "high h; h := 1"),
    ("emit_constant", "low x; x := 1; out low x"),
    ("emit_sum", "low x; low y; x := 2; y := 3; out low x + y"),
    ("high_chain", "high h; high g; h := 5; g := h + 1"),
    ("out_high", "high h; h := 3; out high h"),
    ("if_low_guard", "low x; low y; if x then y := 1 else y := 2; out low y"),
    ("if_high_simple", "high h; if h then h := 1 else skip"),
    (
        "low_after_high_if",
        "high h; low x; if h then h := 1 else h := 2; x := 7; out low x",
    ),
    ("if_high_unbalanced", "high h; if h then h := 1 else { h := 1; h := 2 }"),
    (
        "if_high_nested",
        "high h; high g; if h then { if g then h := 1 else h := 2 }"
        " else { if g then g := 1 else h := 3 }",
    ),
    ("while_low_count", "low x; x := 3; while x do x := x - 1; out low 0"),
    ("while_high_count", "high h; h := 2; while h do h := h - 1"),
    (
        "nested_while",
        "low x; low y; x := 2; while x do { y := 2; while y do y := y - 1; x := x - 1 }",
    ),
    ("out_after_padded_if", "high h; low x; if h then h := 1 else skip; out low 3"),
    ("seq_chain", "low a; low b; a := 1; b := a; out low b; skip"),
    ("if_high_with_outs", "high h; if h then out high h else { out high 0; skip }"),
    (
        "while_with_if_body",
        "low x; low y; x := 2; while x do { if y then x := x - 1 else x := x - 1 }",
    ),
    ("cache_churn", "low a; low b; low c; a := 1; b := a + a; c := b + 1; out low c"),
    (
        "high_loop_high_out",
        "high h; h := 2; while h do { h := h - 1; out high h }",
    ),
    (
        "padded_if_low_guard",
        "high h; low x; if x then h := 1 else h := 2; out low x",
    ),
    ("and_op", "low x; low y; x := 3; y := x & 1; out low y"),
    ("square_high", "high h; high g; h := 3; g := h * h"),
    ("low_into_high", "high h; low x; x := 2; h := x + 3; out high h"),
    ("deep_seq", "low x; x := 1; x := x + 1; x := x + 1; out low x"),
    (
        "summing_loop",
        "low x; low s; x := 2; s := 0; while x do { s := s + x; x := x - 1 }; out low s",
    ),
)


def corpus_sources() -> list[tuple[str, SourceProgram]]:
    return [(name, parse(text)) for name, text in CORPUS]


def config_for_source(
    src: SourceProgram,
    width: int,
    low_regs: int = 2,
    high_regs: int = 2,
    enable_jlez: bool = False,
) -> MachineConfig:
    """Machine sized for a source program: one memory cell per declaration."""
    levels = tuple(level for _, level in src.levels)
    return standard_config(width, low_regs, high_regs, levels, enable_jlez)


# ---------------------------------------------------------------------------
# The keyed-hash showcase
# ---------------------------------------------------------------------------

# h(m) = ((q*m + r) mod p) mod 2^i, with the modular reductions done by
# repeated subtraction driven by signed guards.  limit, i, m, p are public;
# q, source, guard, r are secret.
HASH_SOURCE = """\
low limit;
low i;
low m;
low p;
high q;
high source;
high guard;
high r;
limit := 1;
while i do { limit := limit * 2; i := i - 1 };
source := q * m;
source := source + r;
guard := source - p;
while guard > 0 do { guard := guard - p; source := source - p };
guard := source - limit;
while guard > 0 do { guard := guard - limit; source := source - limit }
"""

# Expected compiled shape (register names are immaterial; the structural
# diff erases them).  Addresses follow declaration order:
# limit=0 i=1 m=2 p=3 q=4 source=5 guard=6 r=7.
HASH_EXPECTED_SHAPE = """\
movek r_lim 1
store 0 r_lim
load r_i 1
store 1 r_i
loop1: jz exit_loop1 r_i
movek r_2 2
mul r_lim r_2
store 0 r_lim
movek r_1 1
sub r_i r_1
store 1 r_i
load r_i 1
store 1 r_i
jmp loop1
exit_loop1: load r_g 4
load r_m 2
mul r_g r_m
store 5 r_g
load r_r 7
add r_g r_r
store 5 r_g
load r_p 3
sub r_g r_p
store 6 r_g
load r_g 6
store 6 r_g
loop2: jlez exit_loop2 r_g
sub r_g r_p
store 6 r_g
load r_s 5
sub r_s r_p
store 5 r_s
load r_g 6
store 6 r_g
jmp loop2
exit_loop2: load r_hlim 0
load r_g 5
sub r_g r_hlim
store 6 r_g
load r_g 6
store 6 r_g
loop3: jlez exit_loop3 r_g
sub r_g r_hlim
store 6 r_g
load r_s 5
sub r_s r_hlim
store 5 r_s
load r_g 6
store 6 r_g
jmp loop3
exit_loop3: nop
"""


def hash_source() -> SourceProgram:
    return parse(HASH_SOURCE, allow_positive_guards=True)


def hash_config(width: int = 8) -> MachineConfig:
    """The showcase machine: four public and six secret registers."""
    src = hash_source()
    return config_for_source(src, width, low_regs=4, high_regs=6, enable_jlez=True)


def hash_reference(i: int, p: int, q: int, r: int, m: int) -> int:
    return ((q * m + r) % p) % (2**i)


# (i, j, p, q, r, m); j only constrains the choice of p and never appears
# in the program.  Inputs keep every intermediate reduction away from exact
# multiples, where repeated subtraction and the mod operator part ways.
HASH_SAMPLES: tuple[tuple[int, int, int, int, int, int], ...] = (
    (4, 2, 5, 3, 2, 9),
    (3, 2, 5, 3, 1, 4),
    (2, 1, 3, 2, 1, 5),
    (4, 2, 7, 4, 3, 6),
    (3, 3, 11, 5, 7, 6),
    (2, 2, 5, 1, 1, 5),
)


# Reduced variant for exhaustive secret sweeps at tiny word widths.
SHRUNKEN_HASH = """\
low m;
low p;
high q;
high src;
high g;
src := q * m;
g := src - p;
while g > 0 do { g := g - p; src := src - p }
"""
