"""Arithmetic expression front-end: tokenizer, recursive-descent parser, compiled evaluator.

Expressions are written in the two variables x and y with the usual operators
(+ - * / ^, unary minus, parentheses) and a fixed whitelist of calls
(sqrt, exp, ln, abs, min, max).  Grammar:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' factor)?
    base   := number | ident | ident '(' expr (',' expr)* ')' | '(' expr ')'

'^' is right-associative and binds tighter than unary minus, so -x^2 parses
as -(x^2).  The invalid operations are division by zero, sqrt of a negative
value, ln of a non-positive value, a fractional power of a negative base and
a negative power of zero.

as_function compiles a tree once into nested closures, one per node; that is
the one evaluation path.  It builds a strict and a NaN-masked closure tree
and picks one per call.  Evaluation at a point (floats) is strict: an
invalid operation raises EvalError rather than producing an infinity.
Evaluation on numpy arrays is NaN-masked: an invalid operation gives NaN at
the offending elements only, and the NaN propagates to the result, also
through x^0, 1^x, min and max, where IEEE arithmetic would drop it.  So an
array result is NaN exactly where evaluation at that point would raise, and
elsewhere it agrees with it up to numpy's vectorised pow (within an ulp).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Union

import numpy as np

# token kinds
NUMBER = "number"
IDENT = "ident"
PLUS = "plus"
MINUS = "minus"
STAR = "star"
SLASH = "slash"
CARET = "caret"
LPAREN = "lparen"
RPAREN = "rparen"
COMMA = "comma"

_SINGLE_CHAR = {
    "+": PLUS,
    "-": MINUS,
    "*": STAR,
    "/": SLASH,
    "^": CARET,
    "(": LPAREN,
    ")": RPAREN,
    ",": COMMA,
}

# call name -> arity
CALL_WHITELIST = {"sqrt": 1, "exp": 1, "ln": 1, "abs": 1, "min": 2, "max": 2}

VARIABLES = ("x", "y")


class LexError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class EvalError(ValueError):
    """Raised when evaluation hits a domain violation (division by zero, ...)."""

    def __init__(self, message: str, subexpr: "Expr | None" = None):
        if subexpr is not None:
            message = f"{message} in '{to_string(subexpr)}'"
        super().__init__(message)
        self.subexpr = subexpr


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    position: int


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # add | sub | mul | div | pow
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Expr", ...]


Expr = Union[Const, Var, Neg, BinOp, Call]


def tokenize(src: str) -> list[Token]:
    """Lex a source string into tokens; whitespace separates, everything else must lex."""
    if not src.strip():
        raise LexError("empty expression", 0)
    tokens: list[Token] = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _SINGLE_CHAR:
            tokens.append(Token(_SINGLE_CHAR[c], c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j < n and src[j] == ".":
                j += 1
                while j < n and src[j].isdigit():
                    j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            tokens.append(Token(NUMBER, src[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(Token(IDENT, src[i:j], i))
            i = j
            continue
        raise LexError(f"illegal character {c!r}", i)
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], src_len: int):
        self.tokens = tokens
        self.pos = 0
        self.src_len = src_len

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {kind}, found end of input", self.src_len)
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text!r}", tok.position)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.text!r}", tok.position)
        return e

    def expr(self) -> Expr:
        node = self.term()
        while (tok := self.peek()) is not None and tok.kind in (PLUS, MINUS):
            self.advance()
            rhs = self.term()
            node = BinOp("add" if tok.kind == PLUS else "sub", node, rhs)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while (tok := self.peek()) is not None and tok.kind in (STAR, SLASH):
            self.advance()
            rhs = self.factor()
            node = BinOp("mul" if tok.kind == STAR else "div", node, rhs)
        return node

    def factor(self) -> Expr:
        tok = self.peek()
        if tok is not None and tok.kind == MINUS:
            self.advance()
            return Neg(self.factor())
        node = self.base()
        tok = self.peek()
        if tok is not None and tok.kind == CARET:
            self.advance()
            return BinOp("pow", node, self.factor())
        return node

    def base(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected expression, found end of input", self.src_len)
        if tok.kind == NUMBER:
            self.advance()
            value = float(tok.text)
            if not np.isfinite(value):
                raise ParseError(f"constant {tok.text!r} overflows", tok.position)
            return Const(value)
        if tok.kind == LPAREN:
            self.advance()
            inner = self.expr()
            self.expect(RPAREN)
            return inner
        if tok.kind == IDENT:
            self.advance()
            nxt = self.peek()
            if nxt is not None and nxt.kind == LPAREN:
                if tok.text not in CALL_WHITELIST:
                    raise ParseError(f"unknown function {tok.text!r}", tok.position)
                self.advance()
                args = [self.expr()]
                while (t := self.peek()) is not None and t.kind == COMMA:
                    self.advance()
                    args.append(self.expr())
                self.expect(RPAREN)
                arity = CALL_WHITELIST[tok.text]
                if len(args) != arity:
                    raise ParseError(
                        f"{tok.text} takes {arity} argument(s), got {len(args)}",
                        tok.position,
                    )
                return Call(tok.text, tuple(args))
            if tok.text in VARIABLES:
                return Var(tok.text)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.position)
        raise ParseError(f"unexpected {tok.text!r}", tok.position)


def parse_tokens(tokens: list[Token], src_len: int = 0) -> Expr:
    return _Parser(tokens, src_len).parse()


def parse(src: str) -> Expr:
    return parse_tokens(tokenize(src), len(src))


def _is_integer_exponent(e) -> bool:
    arr = np.asarray(e, dtype=float)
    return bool(np.all(arr == np.floor(arr)))


def _invalid(masked: bool, bad, node: Expr, message: str):
    """The mask of invalid elements, or None if there are none.

    On floats (masked False) an invalid operand raises EvalError instead.
    """
    if not np.any(bad):
        return None
    if not masked:
        raise EvalError(message, node)
    return bad


def _pow(node: BinOp, a, b, masked: bool):
    if not masked:
        if a < 0.0 and not _is_integer_exponent(b):
            raise EvalError("negative base with non-integer exponent", node)
        if a == 0.0 and b < 0.0:
            raise EvalError("zero base with negative exponent", node)
        return float(a) ** float(b)
    # a negative base with a non-integer exponent gives NaN by itself; IEEE
    # gives NaN^0 = 1^NaN = 1, but a failed operand must still fail
    out = np.power(a, b)
    if isinstance(b, np.ndarray) and b.ndim:
        bad = ((a == 0.0) & (b < 0.0)) | (np.isnan(a) & (b == 0.0)) | ((a == 1.0) & np.isnan(b))
    elif b < 0.0:
        bad = a == 0.0
    elif b == 0.0:
        bad = np.isnan(a)
    elif b != b:
        bad = a == 1.0
    else:
        return out
    return np.where(bad, np.nan, out) if np.any(bad) else out


_ARITHMETIC = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
_ELEMENTWISE = {"exp": np.exp, "abs": np.abs, "min": np.minimum, "max": np.maximum}


def _compile(node: Expr, masked: bool):
    """node as a closure of (x, y), built once: strict (masked False) or NaN-masked."""
    if isinstance(node, Const):
        value = node.value
        return lambda x, y: value
    if isinstance(node, Var):
        return (lambda x, y: x) if node.name == "x" else (lambda x, y: y)
    if isinstance(node, Neg):
        operand = _compile(node.operand, masked)
        return lambda x, y: -operand(x, y)
    if isinstance(node, BinOp):
        left, right = _compile(node.left, masked), _compile(node.right, masked)
        if node.op in _ARITHMETIC:
            return lambda x, y, op=_ARITHMETIC[node.op]: op(left(x, y), right(x, y))
        if node.op == "div":
            def div(x, y):
                a, b = left(x, y), right(x, y)
                bad = _invalid(masked, b == 0.0, node, "division by zero")
                return a / b if bad is None else np.where(bad, np.nan, a / np.where(bad, 1.0, b))
            return div
        if masked and isinstance(node.right, Const) and node.right.value > 0.0:
            # no element can fail a power with this exponent
            return lambda x, y, e=node.right.value: np.power(left(x, y), e)
        return lambda x, y: _pow(node, left(x, y), right(x, y), masked)
    if isinstance(node, Call):
        args = [_compile(arg, masked) for arg in node.args]
        if node.name in _ELEMENTWISE:  # min and max propagate a NaN operand
            return lambda x, y, fn=_ELEMENTWISE[node.name]: fn(*[arg(x, y) for arg in args])
        (arg,) = args
        if node.name == "sqrt":
            def sqrt(x, y):
                a = arg(x, y)
                if not masked:  # on arrays a negative element gives NaN by itself
                    _invalid(False, a < 0.0, node, "sqrt of negative value")
                return np.sqrt(a)
            return sqrt

        def ln(x, y):
            a = arg(x, y)
            bad = _invalid(masked, a <= 0.0, node, "ln of non-positive value")
            return np.log(a) if bad is None else np.where(bad, np.nan, np.log(a))
        return ln
    raise TypeError(f"not an expression node: {node!r}")


def _evaluator(node: Expr):
    """node compiled once: strict on floats, NaN-masked when x or y is an array."""
    strict = _compile(node, False)
    masked = _compile(node, True)

    def f(x, y):
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            with np.errstate(all="ignore"):
                return masked(x, y)
        return strict(x, y)

    return f


def evaluate(node: Expr, x: float = 0.0, y: float = 0.0) -> float:
    """Evaluate at a point. Pure: identical inputs give bit-identical outputs."""
    return float(_evaluator(node)(x, y))


def as_function(node: Expr):
    """Compile to a two-argument callable f(x, y) accepting floats or arrays."""
    return _evaluator(node)


_PRECEDENCE = {"add": 1, "sub": 1, "mul": 2, "div": 2, "pow": 4}


def _render(node: Expr, parent_prec: int) -> str:
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _render(node.operand, 3)
        s = f"-{inner}"
        return f"({s})" if parent_prec > 3 else s
    if isinstance(node, BinOp):
        prec = _PRECEDENCE[node.op]
        if node.op == "pow":
            # right-associative; the left side must be an atom
            left = _render(node.left, prec + 1)
            right = _render(node.right, prec)
            s = f"{left}^{right}"
        else:
            sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[node.op]
            left = _render(node.left, prec)
            # left-associative: the right operand needs the next tighter level
            right = _render(node.right, prec + 1)
            s = f"{left}{sym}{right}"
        return f"({s})" if parent_prec > prec else s
    if isinstance(node, Call):
        return f"{node.name}({','.join(_render(a, 0) for a in node.args)})"
    raise TypeError(f"not an expression node: {node!r}")


def to_string(node: Expr) -> str:
    """Pretty-print; parse(to_string(e)) is structurally identical to e."""
    return _render(node, 0)
