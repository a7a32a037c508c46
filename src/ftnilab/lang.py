"""Source while-language: AST, parser with level declarations, interpreter.

The shape of the language is deliberately small: binary arithmetic
expressions, assignments, outputs on a low or high channel, conditionals
with arbitrary guards, and loops whose guard must be a bare variable.
``while x > 0`` is accepted only when the positive-guard extension is on;
it is compiled with a signed-comparison jump and interpreted to match.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .faultlab import Action, TAU, output
from .machine import SecurityLevel, LOW, HIGH, signed

# Each binary operator and how tightly it binds: ``*`` and ``&`` before ``+`` and ``-``.
_BINDING = {"+": 0, "-": 0, "*": 1, "&": 1}
BINOPS = tuple(_BINDING)

# The AST nodes are frozen dataclasses, not named tuples, because tuples
# compare by their fields alone: as tuples, Skip() would equal Done().

@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


Expr = Const | Var | BinOp


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Assign:
    var: str
    expr: Expr


@dataclass(frozen=True)
class Out:
    channel: str
    expr: Expr


@dataclass(frozen=True)
class If:
    guard: Expr
    then_cmd: "Cmd"
    else_cmd: "Cmd"


@dataclass(frozen=True)
class Seq:
    first: "Cmd"
    second: "Cmd"


@dataclass(frozen=True)
class While:
    var: str
    body: "Cmd"
    positive: bool = False


@dataclass(frozen=True)
class Done:
    """The terminated program; never written in source."""


Cmd = Skip | Assign | Out | If | Seq | While | Done

DONE = Done()


@dataclass(frozen=True)
class SourceProgram:
    levels: tuple[tuple[str, SecurityLevel], ...]
    body: Cmd

    def variables(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.levels)


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, col {column})")
        self.line = line
        self.column = column


# Every non-blank character starts a match, so a search over a line skips
# exactly its blanks and columns count from the line's first character.
_TOKEN_RE = re.compile(
    r"(?P<num>[0-9]+)|(?P<id>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>:=|[+\-*&;{}()>])|(?P<bad>\S)"
)
_KEYWORDS = {"low", "high", "skip", "out", "if", "then", "else", "while", "do"}


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        for m in _TOKEN_RE.finditer(raw.split("#", 1)[0]):
            kind = m.lastgroup
            if kind == "bad":
                raise ParseError(f"unexpected character {m.group()!r}", lineno, m.start() + 1)
            tokens.append(_Token(kind, m.group(), lineno, m.start() + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], allow_positive_guards: bool):
        self.tokens = tokens
        # Each token's text, then None for the end of input: what ``at`` reads.
        self.texts = [tok.text for tok in tokens] + [None]
        self.pos = 0
        self.allow_positive_guards = allow_positive_guards
        self.declared: set[str] = set()

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", "", 1, 1)
            return ParseError(message + " at end of input", last.line, last.column)
        return ParseError(f"{message}, got {tok.text!r}", tok.line, tok.column)

    def take(self, text: str | None = None, kind: str | None = None) -> _Token:
        tok = self.peek()
        if tok is None or (text is not None and tok.text != text) or (
            kind is not None and tok.kind != kind
        ):
            raise self.error(f"expected {text or kind}")
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def variable(self, tok: _Token) -> str:
        """The name a variable token uses, which must be declared."""
        if tok.text not in self.declared:
            raise ParseError(f"undeclared variable {tok.text!r}", tok.line, tok.column)
        return tok.text

    # declarations ---------------------------------------------------------
    def declarations(self) -> list[tuple[str, SecurityLevel]]:
        decls: list[tuple[str, SecurityLevel]] = []
        while self.at("low") or self.at("high"):
            # "out low E" also starts with a keyword; declarations end there.
            nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            if nxt is None or nxt.kind != "id" or nxt.text in _KEYWORDS:
                break
            level = LOW if self.take().text == "low" else HIGH
            name_tok = self.take(kind="id")
            if name_tok.text in self.declared:
                raise ParseError(
                    f"duplicate declaration of {name_tok.text!r}",
                    name_tok.line,
                    name_tok.column,
                )
            self.declared.add(name_tok.text)
            decls.append((name_tok.text, level))
            self.take(";")
        return decls

    # expressions ----------------------------------------------------------
    def expr(self, level: int = 0) -> Expr:
        """An operand, then each next operator binding at least ``level``, its
        right operand read one binding tighter (precedence climbing)."""
        tok = self.peek()
        if tok is None:
            raise self.error("expected an expression")
        if tok.kind == "num":
            self.take()
            node: Expr = Const(int(tok.text))
        elif tok.kind == "id" and tok.text not in _KEYWORDS:
            self.take()
            node = Var(self.variable(tok))
        elif tok.text == "(":
            self.take()
            node = self.expr()
            self.take(")")
        else:
            raise self.error("expected an expression")
        while (binding := _BINDING.get(self.texts[self.pos], -1)) >= level:
            op = self.take().text
            node = BinOp(op, node, self.expr(binding + 1))
        return node

    # commands -------------------------------------------------------------
    def command(self, braced: bool = False) -> Cmd:
        """Statements separated by ``;``; ``braced``, a block, whose ``{``
        and ``}`` are taken here.  Conditional and loop bodies call this
        straight for a block, so a nest of them costs two frames a level."""
        if braced:
            self.take("{")
        node = self.basic()
        while self.at(";"):
            self.take(";")
            if self.peek() is None or self.at("}"):
                break
            node = Seq(node, self.basic())
        if braced:
            self.take("}")
        return node

    def basic(self) -> Cmd:
        tok = self.peek()
        if tok is None:
            raise self.error("expected a statement")
        if tok.text == "{":
            return self.command(True)
        if tok.text == "skip":
            self.take()
            return Skip()
        if tok.text == "out":
            self.take()
            chan = self.take(kind="id").text
            if chan not in ("low", "high"):
                raise self.error("channel must be low or high")
            return Out(chan, self.expr())
        if tok.text == "if":
            self.take()
            guard = self.expr()
            self.take("then")
            then_cmd = self.command(True) if self.at("{") else self.basic()
            self.take("else")
            else_cmd = self.command(True) if self.at("{") else self.basic()
            return If(guard, then_cmd, else_cmd)
        if tok.text == "while":
            self.take()
            var_tok = self.peek()
            if var_tok is None or var_tok.kind != "id" or var_tok.text in _KEYWORDS:
                raise self.error("while guard must be a variable")
            self.take()
            name = self.variable(var_tok)
            positive = False
            if self.at(">"):
                if not self.allow_positive_guards:
                    raise self.error("while x > 0 requires the jlez extension")
                self.take(">")
                zero = self.take(kind="num")
                if zero.text != "0":
                    raise ParseError("guard comparison must be > 0", zero.line, zero.column)
                positive = True
            if not self.at("do"):
                raise self.error("while guard must be a variable")
            self.take("do")
            body = self.command(True) if self.at("{") else self.basic()
            return While(name, body, positive)
        if tok.kind == "id" and tok.text not in _KEYWORDS:
            self.take()
            self.take(":=")
            return Assign(self.variable(tok), self.expr())
        raise self.error("expected a statement")


def parse(text: str, allow_positive_guards: bool = False) -> SourceProgram:
    parser = _Parser(_tokenize(text), allow_positive_guards)
    decls = parser.declarations()
    body = parser.command()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return SourceProgram(tuple(decls), body)


def render_expr(expr: Expr) -> str:
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    left, right = expr.left, expr.right
    lt = render_expr(left)
    rt = render_expr(right)
    if isinstance(left, BinOp) and _BINDING[left.op] < _BINDING[expr.op]:
        lt = f"({lt})"
    if isinstance(right, BinOp):
        rt = f"({rt})"
    return f"{lt} {expr.op} {rt}"


def render_cmd(cmd: Cmd) -> str:
    if isinstance(cmd, Skip):
        return "skip"
    if isinstance(cmd, Assign):
        return f"{cmd.var} := {render_expr(cmd.expr)}"
    if isinstance(cmd, Out):
        return f"out {cmd.channel} {render_expr(cmd.expr)}"
    if isinstance(cmd, If):
        return (
            f"if {render_expr(cmd.guard)} then {{ {render_cmd(cmd.then_cmd)} }}"
            f" else {{ {render_cmd(cmd.else_cmd)} }}"
        )
    if isinstance(cmd, Seq):
        # The parser nests sequences to the left: walk that spine in a loop.
        seconds = []
        while isinstance(cmd, Seq):
            seconds.append(cmd.second)
            cmd = cmd.first
        return "; ".join(render_cmd(part) for part in [cmd, *reversed(seconds)])
    if isinstance(cmd, While):
        guard = f"{cmd.var} > 0" if cmd.positive else cmd.var
        return f"while {guard} do {{ {render_cmd(cmd.body)} }}"
    raise ValueError(f"cannot render {cmd}")


def render_source(program: SourceProgram) -> str:
    decls = "".join(
        f"{'low' if level is LOW else 'high'} {name};\n" for name, level in program.levels
    )
    return decls + render_cmd(program.body) + "\n"


# ---------------------------------------------------------------------------
# Reference interpreter
# ---------------------------------------------------------------------------

Memory = dict[str, int]


def eval_expr(expr: Expr, memory: Memory, width: int) -> int:
    mask = (1 << width) - 1
    if isinstance(expr, Const):
        return expr.value & mask
    if isinstance(expr, Var):
        if expr.name not in memory:
            raise KeyError(f"undeclared variable {expr.name!r}")
        return memory[expr.name]
    a = eval_expr(expr.left, memory, width)
    b = eval_expr(expr.right, memory, width)
    if expr.op == "+":
        return (a + b) & mask
    if expr.op == "-":
        return (a - b) & mask
    if expr.op == "*":
        return (a * b) & mask
    if expr.op == "&":
        return a & b
    raise ValueError(f"unknown operator {expr.op}")


def guard_holds(value: int, positive: bool, width: int) -> bool:
    if positive:
        return signed(value, width) > 0
    return value != 0


def step_while(cmd: Cmd, memory: Memory, width: int) -> tuple[Action, Cmd, Memory] | None:
    """One small step; sequences contract in the same step their head finishes.

    The residual is ``_step_seq``'s head with its pending commands folded back on.
    """
    rest: list[Cmd] = []
    result = _step_seq(cmd, rest, memory, width)
    if result is None:
        return None
    action, residual, memory = result
    for second in reversed(rest):
        residual = Seq(residual, second)
    return (action, residual, memory)


def _step_seq(
    cmd: Cmd, rest: list[Cmd], memory: Memory, width: int
) -> tuple[Action, Cmd, Memory] | None:
    """One small step of ``cmd`` followed by the stack ``rest`` (next on top).

    The left spine is pushed onto ``rest`` and its first command steps; a
    finished head gives way to the next pending command.  ``run_while`` keeps
    ``rest`` across steps, so a straight-line run costs linear time.
    """
    while isinstance(cmd, Seq):
        rest.append(cmd.second)
        cmd = cmd.first
    result = _step_head(cmd, memory, width)
    if result is None:
        if rest:
            raise ValueError("sequence head is already terminated")
        return None
    action, cmd, memory = result
    while isinstance(cmd, Done) and rest:
        cmd = rest.pop()
    return (action, cmd, memory)


def _step_head(cmd: Cmd, memory: Memory, width: int) -> tuple[Action, Cmd, Memory] | None:
    """One small step of a command that is not a sequence."""
    if isinstance(cmd, Done):
        return None
    if isinstance(cmd, Skip):
        return (TAU, DONE, memory)
    if isinstance(cmd, Assign):
        value = eval_expr(cmd.expr, memory, width)
        updated = dict(memory)
        updated[cmd.var] = value
        return (TAU, DONE, updated)
    if isinstance(cmd, Out):
        value = eval_expr(cmd.expr, memory, width)
        return (output(cmd.channel, value), DONE, memory)
    if isinstance(cmd, If):
        if eval_expr(cmd.guard, memory, width) != 0:
            return (TAU, cmd.then_cmd, memory)
        return (TAU, cmd.else_cmd, memory)
    if isinstance(cmd, While):
        if guard_holds(memory[cmd.var], cmd.positive, width):
            return (TAU, Seq(cmd.body, cmd), memory)
        return (TAU, DONE, memory)
    raise ValueError(f"cannot step {cmd}")


def run_while(
    cmd: Cmd, memory: Memory, width: int, max_steps: int
) -> tuple[list[Action], Memory, int, bool]:
    """Run to termination or budget; returns (outputs, memory, steps, terminated)."""
    outputs: list[Action] = []
    rest: list[Cmd] = []
    steps = 0
    while steps < max_steps:
        result = _step_seq(cmd, rest, memory, width)
        if result is None:
            return outputs, memory, steps, True
        action, cmd, memory = result
        steps += 1
        if not action.silent:
            outputs.append(action)
    return outputs, memory, steps, isinstance(cmd, Done)


def low_equal(m1: Memory, m2: Memory, levels: dict[str, SecurityLevel]) -> bool:
    return all(m1[v] == m2[v] for v, lev in levels.items() if lev is LOW)
