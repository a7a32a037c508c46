"""The benchmark's workloads: lists of independent, self-checking operations.

Every operation calls ftnilab's public functions through their modules, so
a traced run can wrap them in place, and raises ``Wrong`` when the program
answers differently from what the workload expects.

* ``typed-ss``: the fault-free path of typed code -- parse and compile the
  corpus at widths 1-3, strong security at widths 1-3, the timing-balance
  sweep at width 3, interpreter/machine agreement at width 2, and
  ``ftni demo-hash``.  Nothing here touches the fault composition layers.
* ``fault-secure``: the fault layers on secure code, so every check runs to
  its bound -- POni at width 2, PNI at width 1 against the whole attacker
  family, PNI at width 2 on a fixed draw of the corpus.
* ``leaky``: search, stop at the first violation, build the witness and
  replay it -- corpus mutants that leak by construction within the depth
  bound, and a fixed pool of random raw programs whose verdicts are stored
  in ``expected.json``.

Every workload also re-compiles the sources its checks start from, so
``compile_s`` is measured on each of them; the compiled program must equal
the one built at set-up.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable

from ftnilab import cli, corpus, faultlab, lang, machine, seccomp, verify

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_FILE = BENCH_DIR / "expected.json"
DEMO_GOLDEN_FILE = BENCH_DIR / "demo_hash.golden"

SECURE = "secure-up-to-bound"
VIOLATION = "violation"

# Checker settings shared by the workloads and by expected.json.
POOL_SEED = 7
POOL_SIZE = 400  # random draws per width; strong security runs on all of them
POOL_LENGTH = 8
POOL_PONI_W1 = 100  # the first draws also get POni and PNI at width 1
POOL_PONI_W2 = 20  # and the first of those POni at width 2
PONI_DEPTH = 4
PNI_DEPTH_W1 = 3
PNI_DEPTH_W2 = 2
PNI_EPSILON = Fraction(1, 4)
SCOPE_BITS = 4
PNI_W2_DRAW = 4  # corpus programs in the fixed width-2 PNI draw
PNI_W2_DRAW_SEED = 0
# Size caps that keep one pass near 4 s, so that a 40 s run times every
# operation six to nine times (NOTES.md, Noise).  SS at width 3 skips programs
# with more low cells (only cache_churn, 3.7 s alone); POni at width 2 runs
# on the programs with at most this many cells (one declared variable).
SS_W3_MAX_LOW_CELLS = 4
PONI_W2_MAX_CELLS = 5


class Wrong(Exception):
    """The program returned an answer other than the expected one."""


@dataclass(frozen=True)
class Op:
    kind: str  # compile | ss | poni | pni | timing | agree | demo
    label: str
    run: Callable[[], None]


def pool_config(width: int) -> machine.MachineConfig:
    """The machine the random pool runs on: one register and one cell per level."""
    return machine.standard_config(width, 1, 1, (machine.LOW, machine.HIGH))


def low_cells(cfg: machine.MachineConfig) -> int:
    levels = [lev for _, lev in cfg.registers] + list(cfg.memory_levels)
    return sum(1 for lev in levels if lev is machine.LOW)


def cells(cfg: machine.MachineConfig) -> int:
    return len(cfg.registers) + cfg.memory_size


def scope_of(program, cfg) -> tuple[str, ...]:
    return verify.default_scope(machine.RiscSystem(program, cfg), SCOPE_BITS)


def uniform(scope: tuple[str, ...]):
    return faultlab.uniform_environment(PNI_EPSILON, scope)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _expect(verdict, expected: str) -> None:
    if verdict.status != expected:
        raise Wrong(f"{verdict.checker} returned {verdict.status}, expected {expected}")


def compile_op(name: str, text: str, width: int, expected) -> Op:
    def run():
        src = lang.parse(text)
        cfg = corpus.config_for_source(src, width)
        if seccomp.compile_program(src, cfg).program != expected:
            raise Wrong("compiled program differs from the set-up compile")

    return Op("compile", f"compile {name} w{width}", run)


def ss_op(label: str, program, cfg, expected: str) -> Op:
    def run():
        verdict = verify.check_strong_security(program, cfg)
        _expect(verdict, expected)
        if not verdict.secure and not verify.replay_ss_witness(program, cfg, verdict.witness):
            raise Wrong("strong-security witness does not replay")

    return Op("ss", f"ss {label} w{cfg.width}", run)


def poni_op(label: str, program, cfg, depth: int, expected: str) -> Op:
    check = verify.CheckConfig(depth=depth, fault_scope=scope_of(program, cfg))

    def run():
        verdict = verify.check_poni(program, cfg, check)
        _expect(verdict, expected)
        if not verdict.secure and not verify.replay_poni_witness(program, cfg, verdict.witness):
            raise Wrong("POni witness does not replay")

    return Op("poni", f"poni {label} w{cfg.width} d{depth}", run)


def pni_op(label: str, program, cfg, env, depth: int, expected: str) -> Op:
    check = verify.CheckConfig(depth=depth, fault_scope=scope_of(program, cfg))

    def run():
        verdict = verify.check_pni(program, cfg, env, check)
        _expect(verdict, expected)
        if not verdict.secure and not verify.replay_pni_witness(
            program, cfg, env, verdict.witness, check
        ):
            raise Wrong("PNI witness does not replay")

    return Op("pni", f"pni {label} w{cfg.width} d{depth}", run)


def timing_op(name: str, result, cfg) -> Op:
    def run():
        ok, detail = verify.check_timing_balance(result, cfg)
        if not ok:
            raise Wrong(f"timing balance failed: {detail}")

    return Op("timing", f"timing {name} w{cfg.width}", run)


def agree_op(name: str, src, result, cfg) -> Op:
    """Interpreter and machine produce the same outputs from every initial memory."""
    variables = src.variables()

    def run():
        for values in itertools.product(range(cfg.word_values), repeat=len(variables)):
            memory = dict(zip(variables, values))
            ref_out, _, _, ref_done = lang.run_while(src.body, dict(memory), cfg.width, 10_000)
            cells = {result.v2p[var]: memory[var] for var in variables}
            out, _, done = machine.run(
                result.program, machine.initial_state(cfg, cells), cfg, 10_000
            )
            if not (ref_done and done and ref_out == out):
                raise Wrong(f"outputs differ from memory {memory}")

    return Op("agree", f"agree {name} w{cfg.width}", run)


def demo_op(golden: bytes) -> Op:
    def run():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(["demo-hash"])
        if code != 0:
            raise Wrong(f"demo-hash exited {code}")
        if buffer.getvalue().encode("utf-8") != golden:
            raise Wrong("demo-hash stdout differs from the golden bytes")

    return Op("demo", "demo-hash", run)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def compiled_corpus(width: int) -> list[tuple[str, str, object, object, object]]:
    """(name, text, source, config, compile result) for every corpus program."""
    out = []
    for name, text in corpus.CORPUS:
        src = lang.parse(text)
        cfg = corpus.config_for_source(src, width)
        out.append((name, text, src, cfg, seccomp.compile_program(src, cfg)))
    return out


def leak_mutant(program, cfg, rng: Random, max_steps: int):
    """Insert a secret-to-low-channel flow that fires at one of the last two
    steps within ``max_steps`` (seeded).

    The leak goes before the first jump, so the fault-free run reaches it at
    a known step.  Its source is a high register or high memory cell that the
    preceding instructions leave untouched, so its value is still the secret
    initial one; it reaches the low channel directly (``out low rh``) or
    through a low register.  Keeping the step near the bound keeps the search
    effort, and so the workload's cost, alike from seed to seed.  Returns the
    mutant and the step of the leak.
    """
    instrs = list(program.instructions)
    first_jump = next(
        (i for i, ins in enumerate(instrs) if ins.op in machine.JUMP_OPS), len(instrs)
    )
    high_regs = cfg.registers_of_level(machine.HIGH)
    low_regs = cfg.registers_of_level(machine.LOW)
    high_cells = [a for a, lev in enumerate(cfg.memory_levels) if lev is machine.HIGH]
    forms = ["direct", "mover"] + (["load"] if high_cells else [])
    form = forms[rng.randrange(len(forms))]
    size = 1 if form == "direct" else 2
    last = min(max_steps, first_jump + size)
    step = max(size, last - rng.randrange(2))
    at = step - size
    written_regs = {ins.reg for ins in instrs[:at] if ins.op not in ("store", "out")}
    written_cells = {ins.addr for ins in instrs[:at] if ins.op == "store"}
    if form == "load":
        fresh = [a for a in high_cells if a not in written_cells]
    else:
        fresh = [r for r in high_regs if r not in written_regs]
    if not fresh:  # nothing secret survives the prefix: leak at the very start
        at, fresh = 0, list(high_cells if form == "load" else high_regs)
    source = fresh[rng.randrange(len(fresh))]
    carrier = low_regs[rng.randrange(len(low_regs))]
    if form == "direct":
        leak = [machine.Instruction("out", channel="low", reg=source)]
    elif form == "mover":
        leak = [
            machine.Instruction("mover", reg=carrier, reg2=source),
            machine.Instruction("out", channel="low", reg=carrier),
        ]
    else:
        leak = [
            machine.Instruction("load", reg=carrier, addr=source),
            machine.Instruction("out", channel="low", reg=carrier),
        ]
    mutant = machine.RiscProgram(instrs[:at] + leak + instrs[at:])
    return mutant, at + size


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))


def pool_programs(expected: dict, width: int) -> list[tuple[object, dict]]:
    """(program, expected verdicts) for every stored random draw at a width."""
    entries = expected["pool"][f"w{width}"]
    return [(machine.assemble(e["asm"]), e) for e in entries]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def typed_ss(seed: int) -> list[Op]:
    ops: list[Op] = []
    by_width = {w: compiled_corpus(w) for w in (1, 2, 3)}
    for width, programs in by_width.items():
        for name, text, _, cfg, result in programs:
            ops.append(compile_op(name, text, width, result.program))
            if width < 3 or low_cells(cfg) <= SS_W3_MAX_LOW_CELLS:
                ops.append(ss_op(name, result.program, cfg, SECURE))
    for name, _, _, cfg, result in by_width[3]:
        ops.append(timing_op(name, result, cfg))
    for name, _, src, cfg, result in by_width[2]:
        ops.append(agree_op(name, src, result, cfg))
    ops.append(demo_op(DEMO_GOLDEN_FILE.read_bytes()))
    Random(seed).shuffle(ops)
    return ops


def fault_secure(seed: int) -> list[Op]:
    ops: list[Op] = []
    w1, w2 = compiled_corpus(1), compiled_corpus(2)
    for width, programs in ((1, w1), (2, w2)):
        for name, text, _, _, result in programs:
            ops.append(compile_op(name, text, width, result.program))
    for name, _, _, cfg, result in w2:
        if cells(cfg) <= PONI_W2_MAX_CELLS:
            ops.append(poni_op(name, result.program, cfg, PONI_DEPTH, SECURE))
    for name, _, _, cfg, result in w1:
        scope = scope_of(result.program, cfg)
        for env_name, env in verify.environment_family(scope):
            ops.append(
                pni_op(f"{name} {env_name}", result.program, cfg, env, PNI_DEPTH_W1, SECURE)
            )
    for name, _, _, cfg, result in Random(PNI_W2_DRAW_SEED).sample(w2, PNI_W2_DRAW):
        env = uniform(scope_of(result.program, cfg))
        ops.append(pni_op(name, result.program, cfg, env, PNI_DEPTH_W2, SECURE))
    Random(seed).shuffle(ops)
    return ops


def leaky(seed: int) -> list[Op]:
    """Mutants of every corpus program: SS at width 2, POni at width 1 and, for
    the programs within ``PONI_W2_MAX_CELLS``, at width 2, PNI at width 1."""
    rng = Random(seed)
    ops: list[Op] = []
    compiled = {w: compiled_corpus(w) for w in (1, 2)}
    for width, programs in compiled.items():
        for name, text, _, _, result in programs:
            ops.append(compile_op(name, text, width, result.program))
    for index, (name, *_) in enumerate(compiled[1]):
        for width, kind in ((2, "ss"), (1, "poni"), (2, "poni"), (1, "pni")):
            _, _, _, cfg, result = compiled[width][index]
            if kind == "poni" and width == 2 and cells(cfg) > PONI_W2_MAX_CELLS:
                continue
            depth = PONI_DEPTH if kind == "poni" else PNI_DEPTH_W1
            mutant, step = leak_mutant(result.program, cfg, rng, depth)
            label = f"{name}+leak@{step}"
            if kind == "ss":
                ops.append(ss_op(label, mutant, cfg, VIOLATION))
            elif kind == "poni":
                ops.append(poni_op(label, mutant, cfg, depth, VIOLATION))
            else:
                env = uniform(scope_of(mutant, cfg))
                ops.append(pni_op(label, mutant, cfg, env, depth, VIOLATION))
    expected = load_expected()
    for width in (1, 2):
        cfg = pool_config(width)
        for index, (program, want) in enumerate(pool_programs(expected, width)):
            label = f"draw{index}"
            ops.append(ss_op(label, program, cfg, want["ss"]))
            if "poni" in want:
                ops.append(poni_op(label, program, cfg, PONI_DEPTH, want["poni"]))
            if "pni" in want:
                env = uniform(scope_of(program, cfg))
                ops.append(pni_op(label, program, cfg, env, PNI_DEPTH_W1, want["pni"]))
    rng.shuffle(ops)
    return ops


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "typed-ss": typed_ss,
    "fault-secure": fault_secure,
    "leaky": leaky,
}
