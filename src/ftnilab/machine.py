"""RISC-like target machine.

Instruction set, assembly text format, label resolution, the deterministic
small-step semantics, and the bit-level encoding that exposes a machine as a
fault-prone system (registers and data memory faulty, program counter and
code shielded).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from collections import Counter
from typing import NamedTuple

from .faultlab import (
    Action,
    FaultProneSystem,
    TAU,
    output,
)


class SecurityLevel(Enum):
    LOW = "L"
    HIGH = "H"

    def __le__(self, other: "SecurityLevel") -> bool:
        return self is other or (self is SecurityLevel.LOW and other is SecurityLevel.HIGH)


LOW = SecurityLevel.LOW
HIGH = SecurityLevel.HIGH

BINARY_OPS = ("add", "sub", "mul", "and")
JUMP_OPS = ("jmp", "jz", "jlez")
CHANNELS = ("low", "high")

# The assembly syntax: each opcode's operands, as ``Instruction`` fields in
# the order the text gives them.  ``addr`` and ``value`` are decimal numbers,
# ``channel`` is one of ``CHANNELS``; the other fields are names.
OPERANDS: dict[str, tuple[str, ...]] = {
    "load": ("reg", "addr"),
    "store": ("addr", "reg"),
    "jmp": ("target",),
    "jz": ("target", "reg"),
    "jlez": ("target", "reg"),
    "nop": (),
    "movek": ("reg", "value"),
    "mover": ("reg", "reg2"),
    **{op: ("reg", "reg2") for op in BINARY_OPS},
    "out": ("channel", "reg"),
}


class AssemblyError(Exception):
    """Raised for malformed assembly text or ill-formed programs."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = f" (line {line}" + (f", col {column}" if column is not None else "") + ")" if line else ""
        super().__init__(message + loc)
        self.line = line
        self.column = column


class Instruction(NamedTuple):
    """One assembly instruction: a value, equal and hashed as its fields."""

    op: str
    label: str | None = None
    reg: str | None = None
    reg2: str | None = None
    addr: int | None = None
    value: int | None = None
    target: str | None = None
    channel: str | None = None

    def render(self) -> str:
        if self.op not in OPERANDS:
            raise ValueError(f"unknown opcode {self.op}")
        body = " ".join([self.op, *(str(getattr(self, f)) for f in OPERANDS[self.op])])
        return f"{self.label}: {body}" if self.label else body

    def registers(self) -> tuple[str, ...]:
        return tuple(r for r in (self.reg, self.reg2) if r is not None)


# Every operand field of ``Instruction``: all but the opcode and the label.
OPERAND_FIELDS = Instruction._fields[2:]


class RiscProgram:
    """An ordered, well-formed instruction list with resolvable labels."""

    def __init__(self, instructions: tuple[Instruction, ...] | list[Instruction]):
        self.instructions = tuple(instructions)
        labels: dict[str, int] = {}
        for i, instr in enumerate(self.instructions):
            if instr.label is not None:
                if instr.label in labels:
                    raise AssemblyError(f"duplicate label {instr.label!r}")
                labels[instr.label] = i
        self._labels = labels
        for instr in self.instructions:
            if instr.target is not None and instr.target not in labels:
                raise AssemblyError(f"unknown label {instr.target!r}")
        self._decoded: tuple[MachineConfig, tuple[Decoded, ...]] | None = None

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, i: int) -> Instruction:
        return self.instructions[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, RiscProgram) and self.instructions == other.instructions

    def __hash__(self) -> int:
        return hash(self.instructions)

    def labels(self) -> dict[str, int]:
        return dict(self._labels)


_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def assemble(text: str) -> RiscProgram:
    """Parse assembly text: one instruction per line, optional 'label:' prefix."""
    instructions: list[Instruction] = []
    seen_labels: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        start = 0  # where ``line`` begins in ``raw``
        label = None
        if ":" in line:
            head, _, line = line.partition(":")
            label = head.strip()
            if not _LABEL_RE.match(label):
                raise AssemblyError(f"bad label {label!r}", lineno, _column(head, 0))
            if label in seen_labels:
                raise AssemblyError(f"duplicate label {label!r}", lineno)
            seen_labels.add(label)
            start = len(head) + 1
        parts = line.split()
        if not parts:
            raise AssemblyError("label with no instruction", lineno)
        op, args = parts[0], parts[1:]
        fields = OPERANDS.get(op)
        if fields is None:
            raise AssemblyError(f"unknown mnemonic {op!r}", lineno, _column(line, start))
        if len(args) != len(fields):
            raise AssemblyError(f"{op} expects {len(fields)} operand(s), got {len(args)}", lineno)
        operands: dict[str, str | int] = {}
        for field, arg in zip(fields, args):
            if field in ("addr", "value"):
                if not (arg.isascii() and arg.isdigit()):
                    raise AssemblyError(f"expected a decimal number, got {arg!r}", lineno)
                operands[field] = int(arg)
            elif field == "channel" and arg not in CHANNELS:
                raise AssemblyError(f"channel must be low or high, got {arg!r}", lineno)
            else:
                operands[field] = arg
        instructions.append(Instruction(op, label, **operands))
    return RiscProgram(instructions)


def _column(text: str, start: int) -> int:
    """The column, counted from 1, of the first token of ``text``, which
    begins at index ``start`` of its line."""
    return start + len(text) - len(text.lstrip()) + 1


def disassemble(program: RiscProgram) -> str:
    return "\n".join(instr.render() for instr in program.instructions) + "\n"


# ---------------------------------------------------------------------------
# Machine configuration, states, and semantics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MachineConfig:
    """Word width, the register bank with levels, and the data memory layout."""

    width: int
    registers: tuple[tuple[str, SecurityLevel], ...]
    memory_levels: tuple[SecurityLevel, ...]
    enable_jlez: bool = False

    @property
    def word_values(self) -> int:
        return 1 << self.width

    @property
    def memory_size(self) -> int:
        return len(self.memory_levels)

    def register_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.registers)

    def registers_of_level(self, level: SecurityLevel) -> tuple[str, ...]:
        return tuple(name for name, lev in self.registers if lev is level)

    def cells_of_level(self, level: SecurityLevel) -> tuple[int, ...]:
        """The data cells of one level, as indices into ``regs + mem`` (see ``Decoded``)."""
        levels = [lev for _, lev in self.registers] + list(self.memory_levels)
        return tuple(cell for cell, lev in enumerate(levels) if lev is level)

    def data_bit_names(self) -> list[str]:
        """The names of the data bits in state-bit order: "<reg>_<bit>", then
        "m<addr>_<bit>", LSB first; ``RiscSystem`` makes these its faulty bits."""
        words = [*self.register_names(), *(f"m{addr}" for addr in range(self.memory_size))]
        return [f"{word}_{b}" for word in words for b in range(self.width)]

    @cached_property
    def layout(self) -> "CellLayout":
        """This config's ``CellLayout``: one per value, shared by equal
        configs built apart (``_LAYOUTS``), and kept on this object after
        the first lookup (the fields, equality and hash are untouched)."""
        layout = _LAYOUTS.get(self)
        if layout is None:
            layout = _LAYOUTS[self] = CellLayout(self)
        return layout


class CellLayout:
    """Where the data cells of one configuration sit in an encoded state,
    and which bits are faulty.

    In this machine only the pc and the code are fault-tolerant, so all of
    this depends on the configuration alone, and the bit-name table on the
    pc width too.  It is built once per configuration value
    (``MachineConfig.layout``) and shared, read only, by every
    ``RiscSystem``, strong-security table, start enumeration and replay on
    that config:

    * ``lows`` and ``highs``, the cells of each level (``cells_of_level``),
      and ``slot_of_cell``, each low cell's index in ``lows``;
    * ``cell_names``, each cell's name in a strong-security witness,
      ``reg<index>`` or ``mem<address>``;
    * ``cell_masks``, the bits of each cell in an encoded state, and
      ``low_mask``, ``high_mask`` and ``faulty_mask``, those of every low,
      high and data cell; ``pc_shift``, the offset of the pc above them;
    * ``register_cells``, each register's cell by name (None for an absent
      operand), which ``decode`` resolves operands in; a register named
      twice, "pc" or "m<addr>" is refused with an ``AssemblyError``, as one
      of its bit names, "<name>_<bit>", would be taken;
    * ``faulty_names``, the names of the data bits, and per pc width the
      bit-name table (``bit_names``), built on first use.
    """

    def __init__(self, cfg: MachineConfig):
        self.cfg = cfg
        taken = {"pc", *(f"m{addr}" for addr in range(cfg.memory_size))}
        self.register_cells: dict[str | None, int | None] = {None: None}
        for cell, name in enumerate(cfg.register_names()):
            if name in taken or name in self.register_cells:
                raise AssemblyError(f"register {name!r} clashes with another location's bit names")
            self.register_cells[name] = cell
        word = (1 << cfg.width) - 1
        ncells = len(cfg.registers) + cfg.memory_size
        self.lows = cfg.cells_of_level(LOW)
        self.highs = cfg.cells_of_level(HIGH)
        self.slot_of_cell = {cell: slot for slot, cell in enumerate(self.lows)}
        nregs = len(cfg.registers)
        self.cell_names = tuple(
            f"reg{cell}" if cell < nregs else f"mem{cell - nregs}" for cell in range(ncells)
        )
        self.cell_masks = tuple(word << cell * cfg.width for cell in range(ncells))
        self.low_mask = sum(self.cell_masks[cell] for cell in self.lows)
        self.high_mask = sum(self.cell_masks[cell] for cell in self.highs)
        self.pc_shift = cfg.width * ncells
        self.faulty_mask = (1 << self.pc_shift) - 1
        self._tables: dict[int, tuple[tuple[str, ...], dict[str, int]]] = {}

    @cached_property
    def faulty_names(self) -> frozenset[str]:
        return frozenset(self.cfg.data_bit_names())

    def bit_names(self, pc_bits: int) -> tuple[tuple[str, ...], dict[str, int]]:
        """The bit names of a machine with a ``pc_bits``-bit pc, the data
        bits in ``data_bit_names`` order then the fault-tolerant "pc_<bit>",
        and each name's index; built once per pc width."""
        table = self._tables.get(pc_bits)
        if table is None:
            names = (*self.cfg.data_bit_names(), *(f"pc_{b}" for b in range(pc_bits)))
            index = {name: i for i, name in enumerate(names)}
            table = self._tables[pc_bits] = (names, index)
        return table


# Every layout built so far, by config value.  Programs are often checked on
# equal configs built apart (the corpus makes one per program), and sharing
# their layout keeps one set of bit-name tables per distinct config.
_LAYOUTS: dict[MachineConfig, CellLayout] = {}


def standard_config(
    width: int,
    low_regs: int = 2,
    high_regs: int = 2,
    memory_levels: tuple[SecurityLevel, ...] = (),
    enable_jlez: bool = False,
) -> MachineConfig:
    regs = tuple((f"rl{i}", LOW) for i in range(low_regs)) + tuple(
        (f"rh{i}", HIGH) for i in range(high_regs)
    )
    return MachineConfig(width, regs, tuple(memory_levels), enable_jlez)


class MachineState(NamedTuple):
    """A program counter and the register and memory words; a named tuple,
    so that building, hashing and comparing states run in C."""

    pc: int
    regs: tuple[int, ...]
    mem: tuple[int, ...]


def initial_state(cfg: MachineConfig, mem: dict[int, int] | None = None) -> MachineState:
    cells = [0] * cfg.memory_size
    for addr, val in (mem or {}).items():
        cells[addr] = val % cfg.word_values
    return MachineState(0, (0,) * len(cfg.registers), tuple(cells))


def signed(value: int, width: int) -> int:
    """Two's-complement reading of a machine word."""
    half = 1 << (width - 1)
    return value - (1 << width) if value >= half else value


class Decoded(NamedTuple):
    """An instruction resolved against a machine configuration.

    Cells index the concatenation ``regs + mem`` of a machine state.
    """

    op: str
    dest: int | None  # the cell written, if any
    sources: tuple[int, ...]  # the cells read, in operand order
    const: int | None  # the movek constant, masked to the word
    target: int | None  # the jump target pc
    channel: str | None


def decode(program: RiscProgram, cfg: MachineConfig) -> tuple[Decoded, ...]:
    """The one gate from a program to its machine: one pass, cached on the
    program, checks each instruction against the config and resolves it, so
    every run, step, checker and replay refuses an ill-formed program alike.
    The first bad instruction raises ``AssemblyError`` for its opcode (one
    of ``OPERANDS``), a missing operand field that ``OPERANDS`` lists for
    it, a present one that it does not list, an ``out`` channel outside
    ``CHANNELS``, its register, its second register (both looked up in
    ``CellLayout.register_cells``), its address or the ``jlez`` flag,
    checked in that order."""
    cached = program._decoded
    if cached is not None and (cached[0] is cfg or cached[0] == cfg):
        return cached[1]
    cell_of = cfg.layout.register_cells
    nregs, word = len(cfg.registers), cfg.word_values - 1
    ops = []
    for i, instr in enumerate(program.instructions):
        op, addr = instr.op, instr.addr
        fields = OPERANDS.get(op)
        if fields is None:
            raise AssemblyError(f"instruction {i}: unknown opcode {op!r}")
        for field in fields:
            if getattr(instr, field) is None:
                raise AssemblyError(f"instruction {i}: {op} lacks its {field} operand")
        for field in OPERAND_FIELDS:
            if field not in fields and getattr(instr, field) is not None:
                raise AssemblyError(f"instruction {i}: {op} takes no {field} operand")
        if instr.channel is not None and instr.channel not in CHANNELS:
            raise AssemblyError(
                f"instruction {i}: channel must be low or high, got {instr.channel!r}"
            )
        for name in (instr.reg, instr.reg2):
            if name not in cell_of:
                raise AssemblyError(f"instruction {i}: unknown register {name!r}")
        if addr is not None and not 0 <= addr < cfg.memory_size:
            raise AssemblyError(f"instruction {i}: address {addr} out of range")
        if op == "jlez" and not cfg.enable_jlez:
            raise AssemblyError(f"instruction {i}: jlez requires the extension flag")
        reg, reg2 = cell_of[instr.reg], cell_of[instr.reg2]
        cell = None if addr is None else nregs + addr
        if op == "load":
            dest, sources = reg, (cell,)
        elif op == "store":
            dest, sources = cell, (reg,)
        elif op == "movek":
            dest, sources = reg, ()
        elif op == "mover":
            dest, sources = reg, (reg2,)
        elif op in BINARY_OPS:
            dest, sources = reg, (reg, reg2)
        else:
            dest, sources = None, () if reg is None else (reg,)
        const = None if instr.value is None else instr.value & word
        target = None if instr.target is None else program._labels[instr.target]
        ops.append(Decoded(op, dest, sources, const, target, instr.channel))
    program._decoded = (cfg, tuple(ops))
    return program._decoded[1]


def effect(
    instr: Decoded, args: tuple[int, ...] | list[int], pc: int, width: int
) -> tuple[Action, int | None, int]:
    """The instruction semantics: (action, value written to ``dest`` or None, next pc).

    ``args`` holds the values of ``instr.sources``, in order.  This is the
    only opcode switch that executes anything: the machine run and step and
    the strong-security summaries all call it.
    """
    op = instr.op
    nxt = pc + 1
    if op in ("load", "store", "mover"):
        return (TAU, args[0], nxt)
    if op == "movek":
        return (TAU, instr.const, nxt)
    if op == "add":
        return (TAU, (args[0] + args[1]) & ((1 << width) - 1), nxt)
    if op == "sub":
        return (TAU, (args[0] - args[1]) & ((1 << width) - 1), nxt)
    if op == "mul":
        return (TAU, (args[0] * args[1]) & ((1 << width) - 1), nxt)
    if op == "and":
        return (TAU, args[0] & args[1], nxt)
    if op == "jmp":
        return (TAU, None, instr.target)
    if op == "jz":
        return (TAU, None, instr.target if args[0] == 0 else nxt)
    if op == "jlez":
        return (TAU, None, instr.target if signed(args[0], width) <= 0 else nxt)
    if op == "nop":
        return (TAU, None, nxt)
    if op == "out":
        return (output(instr.channel, args[0]), None, nxt)
    raise AssemblyError(f"unknown opcode {op}")


def step(
    program: RiscProgram, state: MachineState, cfg: MachineConfig
) -> tuple[Action, MachineState] | None:
    """Execute one instruction; None when the program counter has left the code."""
    ops = decode(program, cfg)
    pc = state.pc
    if not 0 <= pc < len(ops):
        return None
    instr = ops[pc]
    regs, mem = state.regs, state.mem
    cells = regs + mem
    action, value, nxt = effect(instr, [cells[c] for c in instr.sources], pc, cfg.width)
    if value is not None:
        dest = instr.dest
        if dest < len(regs):
            written = list(regs)
            written[dest] = value
            regs = tuple(written)
        else:
            written = list(mem)
            written[dest - len(regs)] = value
            mem = tuple(written)
    return (action, MachineState(nxt, regs, mem))


def run(
    program: RiscProgram,
    state: MachineState,
    cfg: MachineConfig,
    max_steps: int,
) -> tuple[list[Action], MachineState, bool]:
    """Fault-free execution; returns (output actions, final state, terminated).

    The run drives ``effect`` on one mutable cell list, ``regs + mem``,
    decoding (and so checking) the program once and building one
    ``MachineState`` at the end; it gives what a fold of ``step`` gives.
    Strong-security witness replay (``verify.replay_ss_witness``) drives
    ``effect`` the same way, on one cell list per side; ``step`` is the
    one-step form, kept as the tests' reference for both.  ``terminated``
    says the pc is outside the code after the last step.
    """
    ops = decode(program, cfg)
    width = cfg.width
    nregs = len(state.regs)
    cells = [*state.regs, *state.mem]
    pc = state.pc
    end = len(ops)
    outputs: list[Action] = []
    for _ in range(max_steps):
        if not 0 <= pc < end:
            break
        instr = ops[pc]
        action, value, pc = effect(instr, [cells[c] for c in instr.sources], pc, width)
        if value is not None:
            cells[instr.dest] = value
        if action.channel is not None:  # not silent
            outputs.append(action)
    final = MachineState(pc, tuple(cells[:nregs]), tuple(cells[nregs:]))
    return outputs, final, not 0 <= pc < end


# ---------------------------------------------------------------------------
# Bit-level view: the machine as a fault-prone system
# ---------------------------------------------------------------------------


class RiscSystem(FaultProneSystem):
    """A program plus machine configuration, exposed as named bits.

    Register and memory bits are faulty; program-counter bits are
    fault-tolerant (the code itself is a fixed parameter, never encoded).
    Bit order within a word is LSB first; bit names are "<reg>_<bit>",
    "m<addr>_<bit>", and "pc_<bit>".

    The bit layout (``names``, the name index, ``faulty_names``, the
    masks and the pc offset) is the config's ``CellLayout``, shared by every
    system on the config and never written.  Each system keeps its own
    public view (``observations``, its codes and the ``public_step`` cache)
    and builds its own per-program tables, the step kernel and the liveness
    masks, on first use.
    """

    def __init__(self, program: RiscProgram, cfg: MachineConfig):
        decode(program, cfg)  # refuses an ill-formed program here
        self.program = program
        self.cfg = cfg
        self.pc_bits = max(1, (len(program)).bit_length())
        layout = cfg.layout
        self.names, self._index = layout.bit_names(self.pc_bits)
        self.faulty_names = layout.faulty_names
        self.faulty_mask = layout.faulty_mask
        self.low_mask = layout.low_mask
        self.high_mask = layout.high_mask
        self._pc_shift = layout.pc_shift
        self._start_public_view()
        self._kernel: tuple | None = None
        self._keep: tuple[int, ...] | None = None

    def pack(self, cells, values) -> int:
        """The encoded state at pc 0 whose ``cells`` (indices into ``regs +
        mem``) hold the words ``values``, with every other cell 0."""
        w = self.cfg.width
        return sum(value << cell * w for cell, value in zip(cells, values))

    def encode(self, state: MachineState) -> int:
        if not 0 <= state.pc < (1 << self.pc_bits):
            raise ValueError(f"pc {state.pc} not encodable in {self.pc_bits} bits")
        word = (1 << self.cfg.width) - 1
        data = [value & word for value in state.regs + state.mem]
        return self.pack(range(len(data)), data) | state.pc << self._pc_shift

    def decode(self, bits: int) -> MachineState:
        w = self.cfg.width
        word = (1 << w) - 1
        cells = range(len(self.cfg.registers) + self.cfg.memory_size)
        values = [bits >> cell * w & word for cell in cells]
        nregs = len(self.cfg.registers)
        pc = bits >> self._pc_shift & ((1 << self.pc_bits) - 1)
        return MachineState(pc, tuple(values[:nregs]), tuple(values[nregs:]))

    def step(self, state: int) -> tuple[Action, int] | None:
        """``machine.step`` on the encoded int, with no ``MachineState`` built.

        The source cells are shifted and masked out of the int, ``effect``
        runs, and the written word and the next pc are put back by mask.
        """
        kernel = self._kernel
        if kernel is None:
            kernel = self._kernel = self._build_kernel()
        pc = state >> self._pc_shift
        if pc >= len(kernel):
            return None
        instr, shifts, keep, dest = kernel[pc]
        word = (1 << self.cfg.width) - 1
        action, value, nxt = effect(
            instr, [state >> shift & word for shift in shifts], pc, self.cfg.width
        )
        if value is not None:
            return action, state & keep | value << dest | nxt << self._pc_shift
        return action, state & keep | nxt << self._pc_shift

    def canonical(self, state: int) -> int:
        """The state with every cell dead at its pc zeroed.

        A cell is dead at a pc when every path from the pc writes it before
        reading it, so no run from the state, faults included, can show its
        value: the pc is fault-tolerant, and a flip of a dead cell is
        overwritten before anything reads it.  States with equal canonical
        forms therefore have equal public futures.
        """
        keep = self._keep
        if keep is None:
            keep = self._keep = self._build_keep()
        return state & keep[state >> self._pc_shift]

    def relevant(self, state: int) -> int:
        """The bits of the cells live at the state's pc, 0 past the end.

        These are the cells the instruction reads plus those live at a
        successor pc, less the one it writes (``_build_keep``).  A flip of
        any other cell is not read, and is overwritten or dead at every
        successor, so masks that agree here take one public faulted step.
        """
        keep = self._keep
        if keep is None:
            keep = self._keep = self._build_keep()
        return keep[state >> self._pc_shift] & self.faulty_mask

    def _build_keep(self) -> tuple[int, ...]:
        """Per encoded pc, the mask of the pc bits and the bits of the cells
        live there; a pc past the end keeps only its pc bits.

        Liveness is the backward dataflow fixpoint over ``decode``:
        ``live_in = sources | (live_out - {dest})``, where ``live_out`` joins
        the successors' ``live_in`` (a ``jmp`` goes to its target, ``jz`` and
        ``jlez`` to their target and pc + 1, every other instruction to pc +
        1) and falling off the end reaches an exit where nothing is live.
        """
        ops = decode(self.program, self.cfg)
        n = len(ops)
        live = [0] * (n + 1)  # sets of cells as bits; live[n] is the exit
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
        pc_mask = ((1 << self.pc_bits) - 1) << self._pc_shift
        cell_masks = self.cfg.layout.cell_masks
        keep = []
        for cells_live in live[:n]:
            mask = pc_mask
            for cell, cell_mask in enumerate(cell_masks):
                if cells_live >> cell & 1:
                    mask |= cell_mask
            keep.append(mask)
        return tuple(keep + [pc_mask] * ((1 << self.pc_bits) - n))

    def _build_kernel(self) -> tuple:
        """Per pc: the decoded instruction, its source cells' bit offsets, the
        mask of the data bits the step keeps, and the written cell's offset."""
        w = self.cfg.width
        data = (1 << self._pc_shift) - 1
        kernel = []
        for instr in decode(self.program, self.cfg):
            shifts = tuple(cell * w for cell in instr.sources)
            if instr.dest is None:
                kernel.append((instr, shifts, data, None))
            else:
                dest = instr.dest * w
                kernel.append((instr, shifts, data & ~(((1 << w) - 1) << dest), dest))
        return tuple(kernel)


# ---------------------------------------------------------------------------
# Block-structural program comparison
# ---------------------------------------------------------------------------


def _erase(instr: Instruction, block_of_label: dict[str, int]) -> tuple:
    """Drop register identities, keep everything structurally meaningful."""
    target = block_of_label[instr.target] if instr.target is not None else None
    return (instr.op, instr.addr, instr.value, instr.channel, target)


def block_profile(program: RiscProgram):
    """Split at labelled instructions; summarize each block up to register names."""
    leaders = sorted({0} | {i for i, ins in enumerate(program.instructions) if ins.label})
    if not program.instructions:
        return [], []
    bounds = leaders + [len(program)]
    block_of_index = {}
    for b, start in enumerate(leaders):
        for i in range(start, bounds[b + 1]):
            block_of_index[i] = b
    block_of_label = {
        label: block_of_index[idx] for label, idx in program.labels().items()
    }
    profiles = []
    edges = []
    for b, start in enumerate(leaders):
        chunk = program.instructions[start : bounds[b + 1]]
        profiles.append(Counter(_erase(ins, block_of_label) for ins in chunk))
        succ = set()
        for ins in chunk:
            if ins.target is not None:
                succ.add(block_of_label[ins.target])
        last = chunk[-1]
        if last.op != "jmp" and b + 1 < len(leaders):
            succ.add(b + 1)
        edges.append(frozenset(succ))
    return profiles, edges


def structurally_equivalent(a: RiscProgram, b: RiscProgram) -> tuple[bool, str]:
    """Same label graph and per-block instruction multisets, registers erased."""
    pa, ea = block_profile(a)
    pb, eb = block_profile(b)
    if len(pa) != len(pb):
        return False, f"block counts differ: {len(pa)} vs {len(pb)}"
    for i, (ca, cb) in enumerate(zip(pa, pb)):
        if ca != cb:
            missing = ca - cb
            extra = cb - ca
            return False, f"block {i} differs: -{sorted(missing)} +{sorted(extra)}"
    if ea != eb:
        return False, f"label graphs differ: {ea} vs {eb}"
    return True, "equivalent"
