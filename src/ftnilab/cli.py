"""Batch command-line entry point.

Subcommands: ``compile`` a source file to assembly plus a JSON side-car,
``run`` an assembly file (optionally under a scripted fault injection),
``inject`` (run with a mandatory fault script), ``check`` an assembly file
against one of the three security properties, and ``demo-hash`` for the
bundled keyed-hash showcase.

Exit codes: 0 success/secure, 1 I/O or parse error, 2 type error,
3 violation, 4 resource budget exceeded, 5 demo mismatch, 64 usage error.
The environment variable FTNI_BUDGET, a positive decimal integer read once
by ``check`` and ``demo-hash``, sets the checkers' one limit on work
(default 2000000): strong security charges the low assignments it walks
(the low cells its non-silent sides touch, one on a diagonal pair whose
next pc the code fixes) and the running total of effect evaluations its
per-point summaries make (word values to the power of the high cells
read, none for a step that writes no low cell, outputs nothing low and
does not jump, and no summary for a fixed diagonal step) before each
summary; both fault checkers the running total of their initial states,
over the cells live at pc 0, before they build each low group of them; then
the possibilistic checker the running total of faulted step pairs (per
frontier pair, the masks it walks: 2 to the number of bits in scope live on
either side) before each level, and the probabilistic checker the running
total of faulted steps it composes (per composed state, the distinct cuts
of its fault sets to the bits in scope live there) before each expansion;
the timing sweep of ``demo-hash`` its starts.
Any other value exits 64, as do a ``--width``, ``--depth`` or ``--steps``
that is not ASCII decimal digits, a ``--width`` or ``--depth`` below 1 (a
``--width`` below 8 for ``demo-hash``), a ``--steps`` below 0, a ``--mem``
address or value that is not ASCII decimal digits after at most one ``-``,
a ``--mem`` value outside the machine word and a second ``--mem`` for one
address.  A side-car that is not JSON or does not describe a machine (a
width below 1, a level other than "L" or "H") exits 1 with ``side-car
error: ...``.  A sequence of any length compiles, as do 987 nested
parentheses, 494 nested blocks, 493 nested conditionals and 494 nested
loops, with braced bodies or not (measured on CPython 3.11); a source nested
deeper exits 1 with ``source error: ...``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import corpus, lang, seccomp
from .faultlab import environment_from_text, faulted_step
from .machine import (
    HIGH,
    LOW,
    AssemblyError,
    MachineConfig,
    RiscProgram,
    RiscSystem,
    assemble,
    decode,
    disassemble,
    initial_state,
    run as machine_run,
    structurally_equivalent,
)
from .verify import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CheckConfig,
    check_pni,
    check_poni,
    check_strong_security,
    check_timing_balance,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_TYPE = 2
EXIT_VIOLATION = 3
EXIT_BUDGET = 4
EXIT_MISMATCH = 5
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must not collide with type errors
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _decimal(text: str) -> int | None:
    """``text`` as an int when it is ASCII digits only, else None; ``int``
    alone would also take a sign, underscores, spaces and other scripts'
    digits."""
    return int(text) if text.isascii() and text.isdigit() else None


def _integer(text: str) -> int | None:
    """``text`` as an int when it is ASCII digits after at most one ``-``,
    else None."""
    value = _decimal(text.removeprefix("-"))
    return -value if value is not None and text.startswith("-") else value


def _at_least(low: int):
    """An argparse type: a decimal integer no smaller than ``low``.  A
    negative one is read only to say so."""

    def parse(text: str) -> int:
        value = _integer(text)
        if value is None:
            raise ValueError(text)
        if text.startswith("-") or value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {text}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _budget() -> int:
    """The checkers' limit from FTNI_BUDGET, or the default when it is unset."""
    text = os.environ.get("FTNI_BUDGET")
    if text is None:
        return DEFAULT_BUDGET
    value = _decimal(text)
    if not value:
        print(f"FTNI_BUDGET must be a positive decimal integer, not {text!r}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return value


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def cmd_compile(args) -> int:
    try:
        text = _read(args.source)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read {args.source}: {exc}")
    try:
        src = lang.parse(text, allow_positive_guards=args.jlez)
        cfg = corpus.config_for_source(src, args.width, enable_jlez=args.jlez)
        result = seccomp.compile_program(src, cfg)
    except lang.ParseError as exc:
        return _fail(EXIT_IO, f"parse error: {exc}")
    except seccomp.CompileError as exc:
        return _fail(EXIT_TYPE, f"type error: {exc}")
    except RecursionError:
        return _fail(EXIT_IO, "source error: nested too deeply to parse or compile")
    try:
        Path(args.out).write_text(disassemble(result.program), encoding="utf-8")
        Path(args.meta).write_text(
            json.dumps(result.meta(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write output: {exc}")
    print(f"compiled {len(result.program)} instructions;"
          f" timing {result.timing.render()}, writes {result.write_effect.value}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# configuration recovery for run/check
# ---------------------------------------------------------------------------


class SidecarError(Exception):
    """A compile side-car that is not JSON or does not describe a machine."""


def _sidecar(asm_path: str) -> dict | None:
    """The checked side-car next to the assembly file, or None when there is none."""
    base = Path(asm_path)
    for candidate in (base.with_suffix(".meta.json"), Path(str(base) + ".meta.json")):
        if candidate.exists():
            try:
                meta = json.loads(candidate.read_text(encoding="utf-8"))
            except ValueError as exc:  # not UTF-8, or not JSON
                raise SidecarError(f"{candidate}: {exc}") from exc
            problem = _sidecar_problem(meta)
            if problem is not None:
                raise SidecarError(f"{candidate}: {problem}")
            return meta
    return None


def _sidecar_problem(meta) -> str | None:
    """What makes a parsed side-car unusable, or None when it describes a machine."""
    if not isinstance(meta, dict):
        return "not a JSON object"
    for key in ("register_levels", "memory_levels", "width"):
        if key not in meta:
            return f"no {key!r} entry"
    width, regs, mem = meta["width"], meta["register_levels"], meta["memory_levels"]
    if type(width) is not int or width < 1:
        return f"width must be a positive integer, not {width!r}"
    if not isinstance(regs, dict):
        return "register_levels must be a JSON object"
    if not isinstance(mem, list):
        return "memory_levels must be a JSON list"
    levels = [(f"register {name!r}", lev) for name, lev in regs.items()]
    levels += [(f"memory cell {addr}", lev) for addr, lev in enumerate(mem)]
    for where, level in levels:
        if level not in ("L", "H"):
            return f"{where} has level {level!r}, not \"L\" or \"H\""
    return None


def _config_from_meta(meta: dict, width: int | None) -> MachineConfig:
    regs = tuple(
        (name, LOW if lev == "L" else HIGH)
        for name, lev in sorted(meta["register_levels"].items())
    )
    mem = tuple(LOW if lev == "L" else HIGH for lev in meta["memory_levels"])
    return MachineConfig(width or meta["width"], regs, mem, enable_jlez=True)


def _inferred_config(program: RiscProgram, width: int) -> MachineConfig:
    """Fallback when no side-car exists: levels by register-name convention.

    Registers named rl* are low and rh* are high; anything else, and every
    memory cell, is treated as high (the conservative choice for secrecy).
    """
    names = sorted({name for instr in program.instructions for name in instr.registers()})
    regs = tuple((name, LOW if name.startswith("rl") else HIGH) for name in names)
    cells = max((i.addr + 1 for i in program.instructions if i.addr is not None), default=0)
    return MachineConfig(width, regs, (HIGH,) * cells, enable_jlez=True)


def _load_program(asm_path: str, width: int | None):
    program = assemble(_read(asm_path))
    meta = _sidecar(asm_path)
    if meta is not None:
        cfg = _config_from_meta(meta, width)
    else:
        cfg = _inferred_config(program, width or 8)
    decode(program, cfg)  # refuses an ill-formed program; the checkers hit its cache
    return program, cfg, meta


# ---------------------------------------------------------------------------
# run / inject
# ---------------------------------------------------------------------------


def _parse_fault_script(text: str) -> dict[int, frozenset[str]]:
    script: dict[int, frozenset[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        index = _decimal(head.strip())
        if index is None:
            raise ValueError(f"fault script line {lineno}: bad step index {head!r}")
        if index in script:
            raise ValueError(f"fault script line {lineno}: a second line for step {index}")
        names = rest.strip()
        if names in ("", "-"):
            script[index] = frozenset()
            continue
        flips = [name.strip() for name in names.split(",")]
        if "" in flips:
            raise ValueError(f"fault script line {lineno}: an empty location name in {names!r}")
        script[index] = frozenset(flips)
    return script


def cmd_run(args) -> int:
    try:
        program, cfg, _ = _load_program(args.asm, None)
    except (OSError, AssemblyError) as exc:
        return _fail(EXIT_IO, f"assembly error: {exc}")
    except SidecarError as exc:
        return _fail(EXIT_IO, f"side-car error: {exc}")
    mem: dict[int, int] = {}
    for item in args.mem or ():
        key, _, value = item.partition("=")
        addr, word = _integer(key), _integer(value)
        if addr is None or word is None:
            return _fail(EXIT_USAGE, f"bad --mem entry {item!r}")
        if addr in mem:
            return _fail(EXIT_USAGE, f"a second --mem for address {addr}")
        mem[addr] = word
        if not 0 <= addr < cfg.memory_size:
            return _fail(
                EXIT_USAGE, f"--mem address {addr} outside memory of {cfg.memory_size} cells"
            )
        if not 0 <= word < cfg.word_values:
            return _fail(EXIT_USAGE, f"--mem value {word} outside the {cfg.width}-bit word")
    script: dict[int, frozenset[str]] = {}
    if args.faults:
        try:
            script = _parse_fault_script(_read(args.faults))
        except (OSError, ValueError) as exc:
            return _fail(EXIT_IO, f"fault script error: {exc}")

    system = RiscSystem(program, cfg)
    bad = frozenset().union(*script.values()) - system.faulty_names
    if bad:
        return _fail(EXIT_IO, f"fault script names non-flippable locations: {sorted(bad)}")
    state = system.encode(initial_state(cfg, mem))
    limit = args.steps if args.steps is not None else 10_000
    for index in range(limit):
        stuck_before = system.step(state) is None
        if stuck_before and args.steps is None and index >= max(script, default=-1) + 1:
            break
        faults = script.get(index, frozenset())
        pc = system.decode(state).pc
        action, state = faulted_step(system, state, system.mask_of(faults))
        rendered = ",".join(sorted(faults))
        print(f"{pc}; {action}; flipped={{{rendered}}}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    check = CheckConfig(depth=args.depth, budget=_budget())
    try:
        program, cfg, _ = _load_program(args.asm, args.width)
    except (OSError, AssemblyError) as exc:
        return _fail(EXIT_IO, f"assembly error: {exc}")
    except SidecarError as exc:
        return _fail(EXIT_IO, f"side-car error: {exc}")
    try:
        if args.mode == "ss":
            verdict = check_strong_security(program, cfg, check)
        elif args.mode == "poni":
            verdict = check_poni(program, cfg, check)
        else:
            if not args.env:
                return _fail(EXIT_USAGE, "--mode pni requires --env")
            try:
                env = environment_from_text(_read(args.env))
            except (OSError, ValueError) as exc:
                return _fail(EXIT_IO, f"environment file error: {exc}")
            try:
                verdict = check_pni(program, cfg, env, check)
            except ValueError as exc:
                return _fail(EXIT_IO, f"environment error: {exc}")
    except BudgetExceeded as exc:
        return _fail(EXIT_BUDGET, f"resource budget exceeded: {exc}")
    print(json.dumps(verdict.to_json(), sort_keys=True))
    return EXIT_OK if verdict.secure else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# demo-hash
# ---------------------------------------------------------------------------


def cmd_demo_hash(args) -> int:
    check = CheckConfig(budget=_budget())
    src = corpus.hash_source()
    cfg = corpus.hash_config(args.width)
    try:
        result = seccomp.compile_program(src, cfg)
    except seccomp.CompileError as exc:
        return _fail(EXIT_MISMATCH, f"hash program failed to type-check: {exc}")
    print(f"hash program compiled: {len(result.program)} instructions,"
          f" timing {result.timing.render()}, writes {result.write_effect.value}")

    expected_shape = assemble(corpus.HASH_EXPECTED_SHAPE)
    ok, detail = structurally_equivalent(result.program, expected_shape)
    print(f"structural shape check: {'ok' if ok else detail}")
    if not ok:
        return EXIT_MISMATCH

    for (i, j, p, q, r, m) in corpus.HASH_SAMPLES:
        mem = {
            result.v2p["i"]: i,
            result.v2p["p"]: p,
            result.v2p["q"]: q,
            result.v2p["r"]: r,
            result.v2p["m"]: m,
        }
        _, final, done = machine_run(result.program, initial_state(cfg, mem), cfg, 100_000)
        got = final.mem[result.v2p["source"]]
        want = corpus.hash_reference(i, p, q, r, m)
        status = "ok" if done and got == want else "MISMATCH"
        print(f"hash(i={i}, j={j}, p={p}, q={q}, r={r}, m={m}) = {got}, reference {want}: {status}")
        if status != "ok":
            return EXIT_MISMATCH

    small_src = lang.parse(corpus.SHRUNKEN_HASH, allow_positive_guards=True)
    small_cfg = corpus.config_for_source(small_src, 2, enable_jlez=True)
    small = seccomp.compile_program(small_src, small_cfg)
    try:
        verdict = check_strong_security(small.program, small_cfg, check)
        print(f"reduced variant at width 2: strong security {verdict.status}")
        balanced, _ = check_timing_balance(small, small_cfg, check)
    except BudgetExceeded as exc:
        return _fail(EXIT_BUDGET, f"resource budget exceeded: {exc}")
    print(f"reduced variant secret sweep: {'identical public timing' if balanced else 'DIVERGED'}")
    if not verdict.secure or not balanced:
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ftni", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a source file to assembly")
    c.add_argument("source")
    c.add_argument("--width", type=_at_least(1), default=8)
    c.add_argument("--jlez", action="store_true", help="enable the signed-jump extension")
    c.add_argument("--out", required=True, help="assembly output path")
    c.add_argument("--meta", required=True, help="JSON side-car output path")
    c.set_defaults(func=cmd_compile)

    r = sub.add_parser("run", help="execute an assembly file")
    r.add_argument("asm")
    r.add_argument("--mem", action="append", metavar="ADDR=VAL")
    r.add_argument("--steps", type=_at_least(0), default=None)
    r.add_argument("--faults", help="fault script: lines 'step: loc1,loc2' ('-' for none)")
    r.set_defaults(func=cmd_run)

    i = sub.add_parser("inject", help="run under a mandatory fault script")
    i.add_argument("asm")
    i.add_argument("--mem", action="append", metavar="ADDR=VAL")
    i.add_argument("--steps", type=_at_least(0), default=None)
    i.add_argument("--faults", required=True)
    i.set_defaults(func=cmd_run)

    k = sub.add_parser("check", help="check a security property")
    k.add_argument("asm")
    k.add_argument("--mode", required=True, choices=("ss", "poni", "pni"))
    k.add_argument("--depth", type=_at_least(1), default=4)
    k.add_argument("--width", type=_at_least(1), default=None)
    k.add_argument("--env", help="environment table (required for pni)")
    k.set_defaults(func=cmd_check)

    d = sub.add_parser("demo-hash", help="compile and validate the keyed-hash showcase")
    d.add_argument("--width", type=_at_least(8), default=8)
    d.set_defaults(func=cmd_demo_hash)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
