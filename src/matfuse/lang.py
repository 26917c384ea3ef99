"""Kernel language: lexer, parser, AST, and printer.

A kernel file names the routine, declares typed inputs and outputs, and
gives a block of assignment statements over +, -, * and postfix transpose:

    BATAX
    in:
        x : vector(column), beta : scalar,
        A : matrix(row)
    out:
        y : vector(column)
    {
        y = beta * A' * (A * x)
    }

Grammar (whitespace and newlines are insignificant except that they
separate tokens):

    kernel     ::=  NAME "in" ":" decls "out" ":" decls "{" statement* "}"
    decls      ::=  decl ("," decl)*
    decl       ::=  IDENT ":" type
    type       ::=  "scalar" | "vector" "(" orient ")" | "matrix" "(" orient ")"
    orient     ::=  "row" | "column"
    statement  ::=  IDENT "=" expr
    expr       ::=  term (("+" | "-") term)*
    term       ::=  factor ("*" factor)*
    factor     ::=  primary "'"*
    primary    ::=  IDENT | "(" expr ")"

Transpose binds tighter than *, which binds tighter than + and -; both
binary levels associate left.
"""

from __future__ import annotations

from dataclasses import dataclass


class KernelSyntaxError(ValueError):
    """Malformed kernel text; carries a 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class KernelSpecError(ValueError):
    """Structurally well-formed text that violates a declaration rule."""


@dataclass(frozen=True)
class DeclaredType:
    kind: str  # "scalar" | "vector" | "matrix"
    orientation: str | None = None  # "row" | "column", None iff scalar

    def __post_init__(self):
        if self.kind == "scalar":
            if self.orientation is not None:
                raise ValueError("scalar carries no orientation")
        elif self.kind in ("vector", "matrix"):
            if self.orientation not in ("row", "column"):
                raise ValueError(f"{self.kind} needs row or column orientation")
        else:
            raise ValueError(f"unknown type kind {self.kind!r}")

    def __str__(self):
        if self.kind == "scalar":
            return "scalar"
        return f"{self.kind}({self.orientation})"


SCALAR = DeclaredType("scalar")


# Expression AST. Frozen so specs compare by value (parse/print round trips).

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Transpose:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # "+", "-", "*"
    left: "Expr"
    right: "Expr"


Expr = Var | Transpose | BinOp


@dataclass(frozen=True)
class Assign:
    target: str
    value: Expr


@dataclass(frozen=True)
class KernelSpec:
    name: str
    inputs: tuple[tuple[str, DeclaredType], ...]
    outputs: tuple[tuple[str, DeclaredType], ...]
    statements: tuple[Assign, ...]

    def declared(self) -> dict[str, DeclaredType]:
        return dict(self.inputs) | dict(self.outputs)


# ---------------------------------------------------------------------------
# Lexer

_PUNCT = {":", ",", "(", ")", "{", "}", "=", "+", "-", "*", "'"}


@dataclass(frozen=True)
class _Tok:
    kind: str  # "ident" | punctuation literal | "eof"
    text: str
    line: int
    col: int


def _lex(text: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if c in _PUNCT:
            toks.append(_Tok(c, c, line, col))
            col += 1
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise KernelSyntaxError(f"unexpected character {c!r}", line, col)
    toks.append(_Tok("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> _Tok:
        tok = self.peek()
        if tok.kind != kind:
            want = what or repr(kind)
            raise KernelSyntaxError(
                f"expected {want}, found {tok.text or 'end of input'!r}",
                tok.line, tok.col,
            )
        return self.next()

    def expect_word(self, word: str) -> None:
        tok = self.expect("ident", repr(word))
        if tok.text != word:
            raise KernelSyntaxError(
                f"expected {word!r}, found {tok.text!r}", tok.line, tok.col
            )

    def kernel(self) -> KernelSpec:
        name = self.expect("ident", "kernel name").text
        self.expect_word("in")
        self.expect(":")
        inputs = self.decls(stop_word="out")
        self.expect_word("out")
        self.expect(":")
        outputs = self.decls(stop_word=None)
        self.expect("{")
        stmts = []
        while self.peek().kind != "}":
            stmts.append(self.statement())
        self.expect("}")
        tok = self.peek()
        if tok.kind != "eof":
            raise KernelSyntaxError(
                f"trailing input after kernel body: {tok.text!r}", tok.line, tok.col
            )
        return KernelSpec(name, tuple(inputs), tuple(outputs), tuple(stmts))

    def decls(self, stop_word: str | None) -> list[tuple[str, DeclaredType]]:
        out = [self.decl()]
        while self.peek().kind == ",":
            self.next()
            out.append(self.decl())
        # Declaration lists in the source have no terminator; they end at the
        # "out" keyword or at the statement block.
        tok = self.peek()
        if stop_word is not None:
            if not (tok.kind == "ident" and tok.text == stop_word):
                raise KernelSyntaxError(
                    f"expected ',' or {stop_word!r} after declaration",
                    tok.line, tok.col,
                )
        elif tok.kind != "{":
            raise KernelSyntaxError(
                "expected ',' or '{' after declaration", tok.line, tok.col
            )
        return out

    def decl(self) -> tuple[str, DeclaredType]:
        name = self.expect("ident", "declared name").text
        self.expect(":")
        return name, self.type()

    def type(self) -> DeclaredType:
        tok = self.expect("ident", "type")
        if tok.text == "scalar":
            return SCALAR
        if tok.text in ("vector", "matrix"):
            self.expect("(")
            orient = self.expect("ident", "'row' or 'column'")
            if orient.text not in ("row", "column"):
                raise KernelSyntaxError(
                    f"expected 'row' or 'column', found {orient.text!r}",
                    orient.line, orient.col,
                )
            self.expect(")")
            return DeclaredType(tok.text, orient.text)
        raise KernelSyntaxError(f"unknown type {tok.text!r}", tok.line, tok.col)

    def statement(self) -> Assign:
        target = self.expect("ident", "assignment target").text
        self.expect("=")
        return Assign(target, self.expr())

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind == "*":
            self.next()
            node = BinOp("*", node, self.factor())
        return node

    def factor(self) -> Expr:
        node = self.primary()
        while self.peek().kind == "'":
            self.next()
            node = Transpose(node)
        return node

    def primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            # An identifier followed by '=' starts the next statement, so it
            # can never be consumed as an operand here: expressions only reach
            # primary when an operand is required.
            self.next()
            return Var(tok.text)
        raise KernelSyntaxError(
            f"expected operand, found {tok.text or 'end of input'!r}",
            tok.line, tok.col,
        )


def _check_spec(spec: KernelSpec) -> KernelSpec:
    seen: dict[str, DeclaredType] = {}
    for name, ty in spec.inputs + spec.outputs:
        if name in seen:
            raise KernelSpecError(f"{name!r} declared twice")
        seen[name] = ty
    inputs = {n for n, _ in spec.inputs}
    outputs = {n for n, _ in spec.outputs}
    defined: set[str] = set(inputs)
    assigned: set[str] = set()
    for stmt in spec.statements:
        for var in free_vars(stmt.value):
            if var not in defined:
                raise KernelSpecError(
                    f"{var!r} used before it is declared or assigned"
                )
        if stmt.target in inputs:
            raise KernelSpecError(f"cannot assign to input {stmt.target!r}")
        if stmt.target in assigned:
            raise KernelSpecError(f"{stmt.target!r} assigned more than once")
        assigned.add(stmt.target)
        defined.add(stmt.target)
    for out in outputs:
        if out not in assigned:
            raise KernelSpecError(f"output {out!r} is never assigned")
    return spec


def free_vars(e: Expr) -> list[str]:
    """The variables an expression reads, in reading order."""
    if isinstance(e, Var):
        return [e.name]
    if isinstance(e, Transpose):
        return free_vars(e.operand)
    return free_vars(e.left) + free_vars(e.right)


def parse_kernel(text: str) -> KernelSpec:
    """Parse kernel source into a validated KernelSpec.

    Raises KernelSyntaxError with line/column on malformed text and
    KernelSpecError on declaration violations (undeclared identifier,
    output never assigned, double assignment).
    """
    return _check_spec(_Parser(text).kernel())


# ---------------------------------------------------------------------------
# Printer

def _fmt_expr(e: Expr, parent_prec: int = 0) -> str:
    # precedence: + - = 1, * = 2, transpose = 3
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Transpose):
        inner = _fmt_expr(e.operand, 3)
        return inner + "'"
    prec = 2 if e.op == "*" else 1
    left = _fmt_expr(e.left, prec - 1)
    right = _fmt_expr(e.right, prec)  # left-assoc: parenthesize right at equal prec
    text = f"{left} {e.op} {right}"
    return f"({text})" if prec <= parent_prec else text


def format_expr(e: Expr) -> str:
    return _fmt_expr(e, 0)


def print_kernel(spec: KernelSpec) -> str:
    """Render a KernelSpec back to kernel-language source.

    parse_kernel(print_kernel(s)) == s for every valid spec.
    """
    lines = [spec.name, "in:"]
    lines.append("    " + ", ".join(f"{n} : {t}" for n, t in spec.inputs))
    lines.append("out:")
    lines.append("    " + ", ".join(f"{n} : {t}" for n, t in spec.outputs))
    lines.append("{")
    for stmt in spec.statements:
        lines.append(f"    {stmt.target} = {format_expr(stmt.value)}")
    lines.append("}")
    return "\n".join(lines) + "\n"
