"""Security-typed compilation from the while-language to RISC code.

Every compiled fragment carries a security annotation: a timing label
(exact step count, low-dependent, or possibly secret-dependent) and a write
effect (writes confined to high locations, or unrestricted).  Programs whose
annotations cannot be justified are rejected with an error naming the typing
rule and the violated side condition.

Rule selection is deterministic even though several derivations usually
exist, and each command is compiled once: expression compilation prefers a
cached register; a conditional takes its guard at H and pads the shorter
branch with nops when ``_Compiler._pads`` finds that the whole conditional
has exact timing at H (it holds only skips, high assignments, high outputs,
sequences and such conditionals, and every expression fits the high
registers), else takes the guard's own level with blurred timing; and
register choice takes the lowest-indexed register of the demanded level,
preferring registers that cache nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .lang import (
    Assign,
    BinOp,
    Cmd,
    Const,
    Expr,
    If,
    Out,
    Seq,
    Skip,
    SourceProgram,
    Var,
    While,
    render_cmd,
    render_expr,
)
from .machine import (
    HIGH,
    LOW,
    AssemblyError,
    Instruction,
    MachineConfig,
    RiscProgram,
    SecurityLevel,
)


class WriteEffect(Enum):
    HIGH_ONLY = "high-only"
    ANY = "any"

    def __le__(self, other: "WriteEffect") -> bool:
        return self is other or (self is WriteEffect.HIGH_ONLY and other is WriteEffect.ANY)

    def join(self, other: "WriteEffect") -> "WriteEffect":
        return WriteEffect.ANY if WriteEffect.ANY in (self, other) else WriteEffect.HIGH_ONLY


@dataclass(frozen=True)
class Timing:
    """Timing label: exact step count, low-dependent, or secret-dependent."""

    kind: str  # "exact" | "low" | "high"
    steps: int | None = None

    @staticmethod
    def exact(steps: int) -> "Timing":
        return Timing("exact", steps)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def __le__(self, other: "Timing") -> bool:
        order = {"exact": 0, "low": 1, "high": 2}
        if self.is_exact and other.is_exact:
            return self.steps <= other.steps
        return order[self.kind] <= order[other.kind]

    def blur(self, other: "Timing") -> "Timing":
        """Forget step counts: low-dependent if both sides are, else secret-dependent."""
        if self <= TIMING_LOW and other <= TIMING_LOW:
            return TIMING_LOW
        return TIMING_HIGH

    def then(self, other: "Timing") -> "Timing":
        """Sequential combination: exact counts add, anything else blurs."""
        if self.is_exact and other.is_exact:
            return Timing.exact(self.steps + other.steps)
        return self.blur(other)

    def render(self) -> str:
        return f"exact:{self.steps}" if self.is_exact else self.kind


TIMING_LOW = Timing("low")
TIMING_HIGH = Timing("high")


def write_bound(level: SecurityLevel) -> WriteEffect:
    return WriteEffect.HIGH_ONLY if level is HIGH else WriteEffect.ANY


def timing_bound(level: SecurityLevel) -> Timing:
    return TIMING_HIGH if level is HIGH else TIMING_LOW


class RegisterRecord:
    """Partial bijection between registers and the variables they cache."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs: dict[str, str] | None = None):
        pairs = dict(pairs or {})
        if len(set(pairs.values())) != len(pairs):
            raise ValueError("a variable may be cached in at most one register")
        self._pairs = pairs

    def variable_of(self, reg: str) -> str | None:
        return self._pairs.get(reg)

    def register_of(self, var: str) -> str | None:
        for reg, cached in self._pairs.items():
            if cached == var:
                return reg
        return None

    @staticmethod
    def _of(pairs: dict[str, str]) -> "RegisterRecord":
        """A record owning ``pairs``, which must already be a bijection."""
        rec = RegisterRecord.__new__(RegisterRecord)
        rec._pairs = pairs
        return rec

    # Each of these keeps a subset of a bijection's pairs, plus at most one
    # pair whose register and variable it has just removed, so none re-checks.
    def update(self, reg: str, var: str) -> "RegisterRecord":
        """Minimal change binding reg to var while staying a bijection."""
        pairs = {r: v for r, v in self._pairs.items() if r != reg and v != var}
        pairs[reg] = var
        return RegisterRecord._of(pairs)

    def without(self, reg: str) -> "RegisterRecord":
        return RegisterRecord._of({r: v for r, v in self._pairs.items() if r != reg})

    def meet(self, other: "RegisterRecord") -> "RegisterRecord":
        pairs = {
            r: v for r, v in self._pairs.items() if other._pairs.get(r) == v
        }
        return RegisterRecord._of(pairs)

    def __le__(self, other: "RegisterRecord") -> bool:
        return all(other._pairs.get(r) == v for r, v in self._pairs.items())

    def items(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self._pairs.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, RegisterRecord) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self.items())

    def __repr__(self) -> str:
        inside = ", ".join(f"{r}->{v}" for r, v in self.items())
        return f"RegisterRecord({{{inside}}})"


EMPTY_RECORD = RegisterRecord()


class CompileError(Exception):
    """Typing failure; names the rule, the side condition, and the offender."""

    def __init__(self, rule: str, reason: str, command: str, detail: str):
        super().__init__(f"rule {rule}: {reason}: {detail} (in: {command})")
        self.rule = rule
        self.reason = reason
        self.command = command
        self.detail = detail


@dataclass(frozen=True)
class IfHSite:
    """Index ranges (end-exclusive) of the two padded branch regions."""

    jz_index: int
    then_start: int
    then_end: int
    else_start: int
    else_end: int


@dataclass(frozen=True)
class CompileResult:
    program: RiscProgram
    timing: Timing
    write_effect: WriteEffect
    v2p: dict[str, int]
    register_levels: dict[str, str]
    memory_levels: tuple[str, ...]
    width: int
    if_h_sites: tuple[IfHSite, ...]

    def meta(self) -> dict:
        return {
            "timing": self.timing.render(),
            "write_effect": self.write_effect.value,
            "v2p": dict(self.v2p),
            "register_levels": dict(self.register_levels),
            "memory_levels": list(self.memory_levels),
            "width": self.width,
            "if_h_sites": [
                {
                    "jz": s.jz_index,
                    "then": [s.then_start, s.then_end],
                    "else": [s.else_start, s.else_end],
                }
                for s in self.if_h_sites
            ],
        }


class _Emitter:
    """Append-only instruction buffer with a pending head label."""

    def __init__(self):
        self.instrs: list[Instruction] = []
        self.pending: str | None = None

    def pend(self, label: str | None) -> None:
        if label is None:
            return
        assert self.pending is None, "two labels cannot target the same instruction"
        self.pending = label

    def emit(self, instr: Instruction) -> None:
        if self.pending is not None:
            instr = instr._replace(label=self.pending)
            self.pending = None
        self.instrs.append(instr)


def _registers_needed(expr: Expr) -> int:
    """Registers `compile_expr` holds at once: one per pending left operand."""
    if isinstance(expr, BinOp):
        return max(_registers_needed(expr.left), _registers_needed(expr.right) + 1)
    return 1


class _Compiler:
    def __init__(self, src: SourceProgram, cfg: MachineConfig):
        self.cfg = cfg
        self.register_level = dict(cfg.registers)
        self.pools: dict[SecurityLevel, list[str]] = {LOW: [], HIGH: []}
        for reg, level in cfg.registers:
            self.pools[level].append(reg)
        self.levels = {name: level for name, level in src.levels}
        self.v2p = {name: addr for addr, (name, _) in enumerate(src.levels)}
        if cfg.memory_size < len(self.v2p):
            raise CompileError(
                "program", "level-mismatch", "<declarations>",
                f"machine memory holds {cfg.memory_size} cells, program needs {len(self.v2p)}",
            )
        self.fresh = 0
        self.em = _Emitter()
        self.sites: list[tuple[str, str]] = []  # (else label, exit label) per padded site
        self.jlez = False  # whether a loop with a positive guard was compiled

    # helpers ---------------------------------------------------------------
    def fresh_label(self, prefix: str) -> str:
        label = f"{prefix}{self.fresh}"
        self.fresh += 1
        return label

    def var_level(self, name: str) -> SecurityLevel:
        return self.levels[name]

    def expr_level(self, expr: Expr) -> SecurityLevel:
        if isinstance(expr, Const):
            return LOW
        if isinstance(expr, Var):
            return self.var_level(expr.name)
        left = self.expr_level(expr.left)
        return HIGH if left is HIGH else self.expr_level(expr.right)

    def pick_register(
        self,
        level: SecurityLevel,
        avoid: frozenset[str],
        rec: RegisterRecord,
        context: Expr | Cmd,
        rule: str = "expr",
    ) -> str:
        """The register to compute into; ``context``, the expression or
        command it is for, is rendered only into the error when none is left."""
        pool = self.pools[level]
        for reg in pool:
            if reg not in avoid and rec.variable_of(reg) is None:
                return reg
        for reg in pool:
            if reg not in avoid:
                return reg
        shown = render_expr(context) if isinstance(context, Expr) else render_cmd(context)
        raise CompileError(
            rule, "no-register",
            shown, f"no level-{level.value} register outside {sorted(avoid)}",
        )

    # expressions -----------------------------------------------------------
    def compile_expr(
        self,
        rec: RegisterRecord,
        avoid: frozenset[str],
        label: str | None,
        expr: Expr,
        level: SecurityLevel,
    ) -> tuple[int, str, RegisterRecord]:
        """Emit code leaving the value in a level-matching register.

        Returns (step count, result register, record).  The pending label
        rides along when a cached variable produces no code at all.
        """
        if isinstance(expr, Const):
            reg = self.pick_register(level, avoid, rec, expr)
            self.em.pend(label)
            self.em.emit(Instruction("movek", reg=reg, value=expr.value % self.cfg.word_values))
            return (1, reg, rec.without(reg))
        if isinstance(expr, Var):
            cached = rec.register_of(expr.name)
            # A register reserved by an enclosing operand cannot double as a
            # result register, so the cache only helps when it is free.
            if (
                cached is not None
                and cached not in avoid
                and self.register_level[cached] is level
            ):
                self.em.pend(label)
                return (0, cached, rec)
            if not (self.var_level(expr.name) <= level):
                raise CompileError(
                    "expr", "level-mismatch", render_expr(expr),
                    f"variable {expr.name} has level {self.var_level(expr.name).value},"
                    f" context demands {level.value}",
                )
            reg = self.pick_register(level, avoid, rec, expr)
            self.em.pend(label)
            self.em.emit(Instruction("load", reg=reg, addr=self.v2p[expr.name]))
            return (1, reg, rec.update(reg, expr.name))
        if isinstance(expr, BinOp):
            n1, reg, rec1 = self.compile_expr(rec, avoid, label, expr.left, level)
            n2, reg2, rec2 = self.compile_expr(rec1, avoid | {reg}, None, expr.right, level)
            opname = {"+": "add", "-": "sub", "*": "mul", "&": "and"}[expr.op]
            self.em.emit(Instruction(opname, reg=reg, reg2=reg2))
            return (n1 + n2 + 1, reg, rec2.without(reg))
        raise TypeError(f"not an expression: {expr!r}")

    def command_expr(
        self,
        rule: str,
        rec: RegisterRecord,
        label: str | None,
        expr: Expr,
        level: SecurityLevel,
        command: Cmd,
    ) -> tuple[int, str, RegisterRecord]:
        """Compile a command's expression, re-attributing failures to the rule."""
        try:
            return self.compile_expr(rec, frozenset(), label, expr, level)
        except CompileError as err:
            if err.rule != "expr":
                raise
            raise CompileError(rule, err.reason, render_cmd(command), err.detail) from err

    # commands --------------------------------------------------------------
    def compile_cmd(
        self, rec: RegisterRecord, label: str | None, cmd: Cmd
    ) -> tuple[Timing, WriteEffect, str | None, RegisterRecord]:
        if isinstance(cmd, Skip):
            self.em.pend(label)
            self.em.emit(Instruction("nop"))
            return (Timing.exact(1), WriteEffect.HIGH_ONLY, None, rec)

        if isinstance(cmd, Assign):
            level = self.var_level(cmd.var)
            n, reg, rec1 = self.command_expr("assign", rec, label, cmd.expr, level, cmd)
            self.em.emit(Instruction("store", reg=reg, addr=self.v2p[cmd.var]))
            rec2 = rec1.update(reg, cmd.var)
            if level is HIGH:
                return (Timing.exact(n + 1), WriteEffect.HIGH_ONLY, None, rec2)
            return (TIMING_LOW, WriteEffect.ANY, None, rec2)

        if isinstance(cmd, Out):
            level = HIGH if cmd.channel == "high" else LOW
            n, reg, rec1 = self.command_expr("out", rec, label, cmd.expr, level, cmd)
            self.em.emit(Instruction("out", channel=cmd.channel, reg=reg))
            if level is HIGH:
                return (Timing.exact(n + 1), WriteEffect.HIGH_ONLY, None, rec1)
            return (TIMING_LOW, WriteEffect.ANY, None, rec1)

        if isinstance(cmd, Seq):
            # The parser nests sequences to the left: walk that spine in a loop.
            seconds = []
            while isinstance(cmd, Seq):
                seconds.append(cmd.second)
                cmd = cmd.first
            t, w, label, rec = self.compile_cmd(rec, label, cmd)
            for second in reversed(seconds):
                t2, w2, label, rec = self.compile_cmd(rec, label, second)
                if t == TIMING_HIGH and w2 is not WriteEffect.HIGH_ONLY:
                    raise CompileError(
                        "seq", "timing-after-high", render_cmd(second),
                        "a command after secret-dependent timing must write only high locations",
                    )
                t, w = t.then(t2), w.join(w2)
            return (t, w, label, rec)

        if isinstance(cmd, If):
            return self.compile_if(rec, label, cmd)

        if isinstance(cmd, While):
            return self.compile_while(rec, label, cmd)

        raise TypeError(f"not a compilable command: {cmd!r}")

    # conditionals ----------------------------------------------------------
    def _pads(self, cmd: Cmd) -> bool:
        """Whether `cmd` has exact timing with every guard at H.

        It must hold only skips, high assignments, high outputs, sequences
        and conditionals, and every guard and expression must fit the high
        registers.  All of that is syntactic: no record changes the answer.
        """
        high_regs = len(self.pools[HIGH])
        stack = [cmd]
        while stack:
            cmd = stack.pop()
            if isinstance(cmd, Seq):
                stack += (cmd.first, cmd.second)
                continue
            if isinstance(cmd, If):
                stack += (cmd.then_cmd, cmd.else_cmd)
                expr = cmd.guard
            elif isinstance(cmd, Assign) and self.var_level(cmd.var) is HIGH:
                expr = cmd.expr
            elif isinstance(cmd, Out) and cmd.channel == "high":
                expr = cmd.expr
            elif isinstance(cmd, Skip):
                continue
            else:
                return False
            if _registers_needed(expr) > high_regs:
                return False
        return True

    def compile_if(self, rec: RegisterRecord, label: str | None, cmd: If):
        """Guard at H with branches padded to equal steps if `_pads`, else at its own level."""
        padded = self._pads(cmd)
        level = HIGH if padded else self.expr_level(cmd.guard)
        bound = write_bound(level)
        n0, reg, rec1 = self.command_expr("if-any", rec, label, cmd.guard, level, cmd)
        br = self.fresh_label("br")
        ex = self.fresh_label("ex")
        self.em.emit(Instruction("jz", target=br, reg=reg))
        t1, w1, out1, rec_t = self.compile_cmd(rec1, None, cmd.then_cmd)
        self.em.pend(out1)
        jmp = len(self.em.instrs)
        self.em.emit(Instruction("jmp", target=ex))
        t2, w2, out2, rec_e = self.compile_cmd(rec1, br, cmd.else_cmd)
        for branch, effect in ((cmd.then_cmd, w1), (cmd.else_cmd, w2)):
            if not effect <= bound:
                raise CompileError(
                    "if-any", "implicit-flow", render_cmd(branch),
                    f"branch writes {effect.value} under a level-{level.value} guard",
                )
        n1, n2 = (t1.steps, t2.steps) if padded else (0, 0)
        if n2 > n1:
            # The then-branch's nops go before its jmp and take over its label.
            instrs = self.em.instrs
            nops = [Instruction("nop", label=instrs[jmp].label)]
            nops += [Instruction("nop")] * (n2 - n1 - 1)
            instrs[jmp:jmp + 1] = nops + [instrs[jmp]._replace(label=None)]
        self.em.pend(out2)
        for _ in range(n1 - n2):
            self.em.emit(Instruction("nop"))
        self.em.emit(Instruction("nop"))
        if padded:
            self.sites.append((br, ex))
            timing = Timing.exact(n0 + max(n1, n2) + 2)
        else:
            timing = timing_bound(level).blur(t1).blur(t2)
        return (timing, bound, ex, rec_t.meet(rec_e))

    # loops -------------------------------------------------------------------
    def compile_while(self, rec: RegisterRecord, label: str | None, cmd: While):
        level = self.var_level(cmd.var)
        bound = write_bound(level)
        reg = self.pick_register(level, frozenset(), rec, cmd, "while")
        lp = self.fresh_label("lp")
        ex = self.fresh_label("ex")
        addr = self.v2p[cmd.var]
        jump_op = "jlez" if cmd.positive else "jz"
        self.jlez |= cmd.positive
        self.em.pend(label)
        self.em.emit(Instruction("load", reg=reg, addr=addr))
        self.em.emit(Instruction("store", reg=reg, addr=addr))
        self.em.pend(lp)
        self.em.emit(Instruction(jump_op, target=ex, reg=reg))
        # Shrink the loop record until it survives one body compilation.
        rec_b = rec.update(reg, cmd.var)
        count, fresh, nsites = len(self.em.instrs), self.fresh, len(self.sites)
        while True:
            t, w, body_label, rec_e = self.compile_cmd(rec_b, None, cmd.body)
            rec_next = rec_b.meet(rec_e.update(reg, cmd.var))
            if rec_next == rec_b:
                break
            rec_b = rec_next
            del self.em.instrs[count:], self.sites[nsites:]
            self.fresh = fresh
        if not w <= bound:
            raise CompileError(
                "while", "implicit-flow", render_cmd(cmd),
                f"body writes {w.value} under a level-{level.value} guard",
            )
        if t == TIMING_HIGH and bound is not WriteEffect.HIGH_ONLY:
            raise CompileError(
                "while", "timing-after-high", render_cmd(cmd),
                "a body with secret-dependent timing needs a high guard",
            )
        self.em.pend(body_label)
        self.em.emit(Instruction("load", reg=reg, addr=addr))
        self.em.emit(Instruction("store", reg=reg, addr=addr))
        self.em.emit(Instruction("jmp", target=lp))
        return (timing_bound(level).blur(t), bound, ex, rec_b)


def compile_program(src: SourceProgram, cfg: MachineConfig) -> CompileResult:
    """Compile a declared source program, starting from the empty record."""
    compiler = _Compiler(src, cfg)
    timing, effect, out_label, _ = compiler.compile_cmd(EMPTY_RECORD, None, src.body)
    if out_label is not None:
        # A trailing exit label needs a landing instruction; account for its
        # step so exact timings stay exact.
        compiler.em.pend(out_label)
        compiler.em.emit(Instruction("nop"))
        timing = timing.then(Timing.exact(1))
        effect = effect.join(WriteEffect.HIGH_ONLY)
    if compiler.jlez and not cfg.enable_jlez:
        # The one check of ``decode`` that compiled code can fail: its registers
        # come from the config's pools, its addresses are bounded in ``_Compiler``.
        pc = next(pc for pc, instr in enumerate(compiler.em.instrs) if instr.op == "jlez")
        raise AssemblyError(f"instruction {pc}: jlez requires the extension flag")
    program = RiscProgram(compiler.em.instrs)
    labels = program.labels()
    jz_of = {i.target: pc for pc, i in enumerate(program.instructions) if i.op == "jz"}
    sites = tuple(
        IfHSite(jz_of[br], jz_of[br] + 1, labels[br], labels[br], labels[ex])
        for br, ex in compiler.sites
    )
    return CompileResult(
        program=program,
        timing=timing,
        write_effect=effect,
        v2p=dict(compiler.v2p),
        register_levels={name: lev.value for name, lev in cfg.registers},
        memory_levels=tuple(lev.value for lev in cfg.memory_levels),
        width=cfg.width,
        if_h_sites=sites,
    )
