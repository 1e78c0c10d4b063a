"""Arithmetic expression front-end: a whitelisted reading of Python's parse, compiled evaluator.

Expressions are written in the two variables x and y with the usual operators
(+ - * / ^, unary minus, parentheses) and a fixed whitelist of calls
(sqrt, exp, ln, abs, min, max).  The language is

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' factor)?
    base   := number | 'x' | 'y' | call '(' expr (',' expr)* ')' | '(' expr ')'

with decimal numbers (digits, an optional fraction, an optional exponent;
leading zeros allowed) and blanks anywhere between tokens, at most
MAX_DEPTH levels deep (a chain of n operators is n + 1 levels).  '^' is
right-associative and binds tighter than unary minus, so -x^2 parses as
-(x^2).  Python's own grammar orders these operators the same way once '^'
is read as '**', so parse hands the source to ast.parse and admits only the
nodes of this language from the result; nothing is compiled or evaluated
by Python.

as_function compiles a tree once into nested closures, one per node, and
every evaluation runs through that one tree.  An invalid operation (division
by zero, sqrt of a negative value, ln of a non-positive value, a fractional
power of a negative base, a negative power of zero) gives NaN at the
offending elements only, and the NaN propagates to the result, also through
x^0, 1^x, min and max, where IEEE arithmetic would drop it.  Arrays come back
with NaN where the expression has no value.  A point (x and y floats) runs
through the same tree as float64 scalars and comes back as a float; where
its value is NaN, which includes a NaN coordinate and inf - inf, it raises
EvalError instead.  An overflow gives an infinity at a point as on arrays.
A point agrees with the array element at it, except where numpy's
vectorised pow differs from its scalar pow in the last bit, which a later
operation can magnify.

nondecreasing proves from a tree, with one evaluation per node at the
largest node of a grid, that the computed values on that grid are
nondecreasing in x and in y, ≥ +0 and free of −0.0; the Sugeno integral
counts its level sets along staircases where it holds.
"""

from __future__ import annotations

import ast
import math
import operator
import re
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

# call name -> arity
CALL_WHITELIST = {"sqrt": 1, "exp": 1, "ln": 1, "abs": 1, "min": 2, "max": 2}

VARIABLES = ("x", "y")
# levels a tree may have: compiling and evaluating take a frame or two per
# level, so this keeps both far inside Python's recursion limit
MAX_DEPTH = 400


class LexError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class EvalError(ValueError):
    """Raised when an expression has no value at a point (division by zero, ...)."""


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

# on the source with every whitespace character made a blank: a character
# outside the language, or a '.' that cannot belong to a number
_ILLEGAL = re.compile(r"[^0-9A-Za-z_.+\-*/^(), ]|(?<!\d)\.(?!\d)")
# Python reads a written '**' and a trailing comma in a call; the language does not
_UNEXPECTED = re.compile(r"\*\*|, *\)")
# zeros that lead the integer part of a number, which Python refuses
_LEADING_ZEROS = re.compile(r"(?<![\w.])(?<![eE][+-])0+(?=\d)")
_DECIMAL = frozenset("0123456789.eE+-")
_BINARY = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div", ast.Pow: "pow"}


def parse(src: str) -> Expr:
    """The tree of src; LexError or ParseError, at a position in src, if src is not in the language."""
    text = re.sub(r"\s", " ", src)
    if bad := _ILLEGAL.search(text):
        raise LexError(f"illegal character {bad.group()!r}", bad.start())
    body = _LEADING_ZEROS.sub(lambda m: " " * len(m.group()), text).lstrip(" ")
    if not body:
        raise LexError("empty expression", 0)
    lead = len(text) - len(body)
    if bad := _UNEXPECTED.search(body):
        raise ParseError(f"unexpected {bad.group()[-1]!r}", lead + bad.end() - 1)
    py = body.replace("^", "**")

    def error(message: str, column: int) -> ParseError:
        # each '^' of body is two columns of py
        cols = [i for i, c in enumerate(body) for _ in range(1 + (c == "^"))]
        return ParseError(message, lead + cols[column] if column < len(cols) else len(src))

    def tree(node: ast.expr, depth: int = 1) -> Expr:
        if depth > MAX_DEPTH:
            raise error("expression nested too deeply", node.col_offset)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return BinOp(_BINARY[type(node.op)], tree(node.left, depth + 1),
                         tree(node.right, depth + 1))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return Neg(tree(node.operand, depth + 1))
        if isinstance(node, ast.Constant):  # also True, None, 0x1, 1_0 and 1j
            literal = py[node.col_offset:node.end_col_offset]
            if set(literal) <= _DECIMAL:
                value = float(literal)
                if not np.isfinite(value):
                    raise error(f"constant {literal!r} overflows", node.col_offset)
                return Const(value)
        if isinstance(node, ast.Name):
            if node.id in VARIABLES:
                return Var(node.id)
            raise error(f"unknown identifier {node.id!r}", node.col_offset)
        # a call names its function, unparenthesized; '=' does not lex, so a
        # keyword can only be the ** of a '^' that starts an argument
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.col_offset == node.col_offset:
            name, args = node.func.id, node.args
            if name not in CALL_WHITELIST:
                raise error(f"unknown function {name!r}", node.col_offset)
            if node.keywords:
                raise error("unexpected '^'", node.keywords[0].col_offset)
            if len(args) != CALL_WHITELIST[name]:
                raise error(f"{name} takes {CALL_WHITELIST[name]} argument(s), got {len(args)}",
                            node.col_offset)
            return Call(name, tuple(tree(arg, depth + 1) for arg in args))
        if isinstance(node, ast.Call):
            raise error("unexpected '('", py.index("(", node.func.end_col_offset))
        raise error(f"unexpected {py[node.col_offset:node.end_col_offset]!r}", node.col_offset)

    try:
        with warnings.catch_warnings():  # a number run into a keyword (1if) only warns
            warnings.simplefilter("error", SyntaxWarning)
            return tree(ast.parse(py, mode="eval").body)
    except SyntaxError as e:
        raise error(e.msg, (e.offset or 1) - 1) from None
    except (RecursionError, MemoryError):  # nested deeper than Python's parser or stack allows
        raise error("expression nested too deeply", 0) from None


def _nan_where(bad, out):
    return np.where(bad, np.nan, out) if np.any(bad) else out


def _pow(a, b):
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
    return _nan_where(bad, out)


_OPERATORS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
              "div": lambda a, b: _nan_where(b == 0.0, np.divide(a, b)), "pow": _pow}
# a negative sqrt argument gives NaN by itself; min and max propagate a NaN operand
_CALLS = {"sqrt": np.sqrt, "exp": np.exp, "abs": np.abs, "min": np.minimum, "max": np.maximum,
          "ln": lambda a: _nan_where(a <= 0.0, np.log(a))}


def _compile(node: Expr):
    """node as a NaN-masked closure of (x, y), built once."""
    if isinstance(node, Const):
        value = node.value
        return lambda x, y: value
    if isinstance(node, Var):
        return (lambda x, y: x) if node.name == "x" else (lambda x, y: y)
    if isinstance(node, Neg):
        operand = _compile(node.operand)
        return lambda x, y: -operand(x, y)
    if isinstance(node, BinOp):
        left, right = _compile(node.left), _compile(node.right)
        return lambda x, y, op=_OPERATORS[node.op]: op(left(x, y), right(x, y))
    if isinstance(node, Call):
        args = [_compile(arg) for arg in node.args]
        return lambda x, y, fn=_CALLS[node.name]: fn(*[arg(x, y) for arg in args])
    raise TypeError(f"not an expression node: {node!r}")


def _evaluator(node: Expr):
    """node compiled once; a float point gives a float, or EvalError where the value is NaN."""
    tree = _compile(node)

    def f(x, y):
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            with np.errstate(all="ignore"):
                return tree(x, y)
        with np.errstate(all="ignore"):
            value = float(tree(np.float64(x), np.float64(y)))
        if value != value:
            raise EvalError(f"no value at x={x!r}, y={y!r} in '{to_string(node)}'")
        return value

    return f


def evaluate(node: Expr, x: float = 0.0, y: float = 0.0) -> float:
    """Evaluate at a point. Pure: identical inputs give bit-identical outputs."""
    return float(_evaluator(node)(x, y))


def as_function(node: Expr):
    """Compile to a two-argument callable f(x, y) accepting floats or arrays."""
    try:
        return _evaluator(node)
    except RecursionError:  # a tree parsed higher up the stack than it is compiled
        raise ParseError("expression nested too deeply", 0) from None


def nondecreasing(node: Expr, x: float, y: float) -> bool:
    """Whether node is proved nondecreasing in x and y, ≥ +0 and free of −0.0 on [+0, x] × [+0, y].

    The proof holds for the computed values of the array path.  node must be
    built from finite constants ≥ +0, x, y, +, ×, sqrt, min, max, and ÷ or ^
    by a constant > 0: each maps values ≥ +0 to values ≥ +0 and is
    nondecreasing in every argument in floating point (numpy's pow by a
    scalar exponent is pinned by the tests, the rest are exact or correctly
    rounded).  Every sub-expression must also be finite at the largest node
    (x, y), so it is finite at every other node, and no inf·0 leaves a NaN
    inside a grid whose corners are finite.  Each node is evaluated once,
    on 1-element arrays, with the operations its compiled closure uses.
    """
    point = np.array([x]), np.array([y])

    def value(n: Expr):
        """n at (x, y), or None where the proof fails."""
        if isinstance(n, Var):
            return point[n.name != "x"]
        if isinstance(n, Const):
            return n.value if n.value < math.inf and math.copysign(1.0, n.value) > 0.0 else None
        if isinstance(n, BinOp) and (n.op in ("add", "mul") or n.op in ("div", "pow")
                                     and isinstance(n.right, Const) and n.right.value > 0.0):
            fn, args = _OPERATORS[n.op], [value(n.left), value(n.right)]
        elif isinstance(n, Call) and n.name in ("sqrt", "min", "max"):
            fn, args = _CALLS[n.name], [value(arg) for arg in n.args]
        else:
            return None
        v = None if any(arg is None for arg in args) else fn(*args)
        return v if v is not None and np.isfinite(v).all() else None

    with np.errstate(all="ignore"):
        return value(node) is not None


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
