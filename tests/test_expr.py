"""Parser and evaluator tests."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudocalc import expr
from pseudocalc.expr import (
    BinOp,
    Call,
    Const,
    EvalError,
    LexError,
    Neg,
    ParseError,
    Var,
    evaluate,
    parse,
    to_string,
)
from pseudocalc.harness import FuzzConfig, build_trial_scenario


class TestTokenize:
    def test_paren_mean(self):
        assert parse("(x+y)/2") == BinOp("div", BinOp("add", Var("x"), Var("y")), Const(2.0))

    def test_illegal_character_position(self):
        with pytest.raises(LexError) as err:
            parse("x $ y")
        assert err.value.position == 2

    def test_scientific_and_leading_dot(self):
        assert parse("1.5e-3") == Const(1.5e-3)
        assert parse(".5") == Const(0.5)

    def test_empty_is_error(self):
        with pytest.raises(LexError):
            parse("   ")


X, Y = Var("x"), Var("y")

# the language, pinned input by input: the tree, or the error class (the
# hand-written lexer and recursive-descent parser gave the same results)
LANGUAGE = [
    ("01", Const(1.0)),
    ("00", Const(0.0)),
    (".5", Const(0.5)),
    ("5.", Const(5.0)),
    ("1.e3", Const(1000.0)),
    ("1E+5", Const(100000.0)),
    ("3.0e-07*x^2", BinOp("mul", Const(3e-07), BinOp("pow", X, Const(2.0)))),
    ("1e01", Const(10.0)),
    ("2^-x^2", BinOp("pow", Const(2.0), Neg(BinOp("pow", X, Const(2.0))))),
    ("x--y", BinOp("sub", X, Neg(Y))),
    ("sqrt (x)", Call("sqrt", (X,))),
    ("x\n+y", BinOp("add", X, Y)),
    ("\tx", X),
    ("x +y", BinOp("add", X, Y)),
    ("x**2", ParseError),
    ("x* *2", ParseError),
    ("min(x,y,)", ParseError),
    ("min(x,y, )", ParseError),
    ("min(x,^y)", ParseError),
    ("+x", ParseError),
    ("(x,y)", ParseError),
    ("(x)(y)", ParseError),
    ("(sqrt)(x)", ParseError),
    ("0x1", ParseError),
    ("1_0", ParseError),
    ("1j", ParseError),
    ("True", ParseError),
    ("x<y", LexError),
    ("x if y else 1", ParseError),
    ("[x]", LexError),
    ("x.y", LexError),
    ("x%y", LexError),
    ("x//y", ParseError),
    ("min(x,y=1)", LexError),
    ("sin(x)", ParseError),
    ("z", ParseError),
    ("1e400", ParseError),
    ("9" * 400, ParseError),
]


@pytest.mark.parametrize("src, want", LANGUAGE, ids=[repr(src)[:24] for src, _ in LANGUAGE])
def test_language(src, want):
    if isinstance(want, type):
        with pytest.raises(want):
            parse(src)
    else:
        assert parse(src) == want


def test_positions_are_source_positions():
    # each '^' is read as two characters and leading blanks are dropped; a
    # reported position still indexes the source string
    for src, position in [("x**2", 2), ("x* *2", 3), ("min(x,y,)", 8), ("min(x,\n)", 7),
                          ("x^2^ *y", 5), ("  z", 2), ("x^y^(1e400)", 5), ("min(x,^y)", 6),
                          ("(x)(y)", 3)]:
        with pytest.raises(ParseError) as err:
            parse(src)
        assert err.value.position == position, src


def test_non_ascii_digits_do_not_lex():
    with pytest.raises(LexError) as err:
        parse("x+\u0663")  # ARABIC-INDIC DIGIT THREE
    assert err.value.position == 2


@pytest.mark.parametrize("src", ["(" * 400 + "x" + ")" * 400, "+".join(["x"] * 3000),
                                 "^".join(["x"] * 3000)])
def test_deep_input_is_a_parse_error(src):
    with pytest.raises(ParseError):
        parse(src)


@pytest.mark.parametrize("op", ["+", "^"])
def test_depth_limit(op):
    # a chain of MAX_DEPTH terms has MAX_DEPTH levels and evaluates; one more term does not parse
    src = op.join(["x"] * expr.MAX_DEPTH)
    f = expr.as_function(parse(src))
    assert f(1.0, 0.0) == (expr.MAX_DEPTH if op == "+" else 1.0)
    assert f(np.ones(3), 0.0).tolist() == [f(1.0, 0.0)] * 3
    with pytest.raises(ParseError, match="nested too deeply"):
        parse(src + op + "x")


def test_compiling_a_tree_deeper_than_the_stack_is_a_parse_error():
    tree = X
    for _ in range(5000):
        tree = Neg(tree)
    with pytest.raises(ParseError):
        expr.as_function(tree)


class TestParse:
    def test_product_of_powers(self):
        assert parse("x^2*y^2") == BinOp(
            "mul",
            BinOp("pow", Var("x"), Const(2.0)),
            BinOp("pow", Var("y"), Const(2.0)),
        )

    def test_dangling_operator(self):
        with pytest.raises(ParseError) as err:
            parse("x+*y")
        assert err.value.position == 2

    def test_unary_minus_binds_looser_than_power(self):
        assert parse("-x^2") == Neg(BinOp("pow", Var("x"), Const(2.0)))

    def test_power_right_associative(self):
        assert parse("x^2^3") == BinOp(
            "pow", Var("x"), BinOp("pow", Const(2.0), Const(3.0))
        )

    def test_calls(self):
        assert parse("min(x, y)") == Call("min", (Var("x"), Var("y")))
        with pytest.raises(ParseError):
            parse("min(x)")
        with pytest.raises(ParseError):
            parse("sin(x)")

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse("x + z")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("(x+y")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("x y")


class TestEvaluate:
    def test_examples(self):
        assert evaluate(parse("x^2*y^2"), 0.5, 0.5) == 0.0625
        assert evaluate(parse("(x+y)/2"), 1.0, 0.0) == 0.5

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            evaluate(parse("1/(x*y)"), 0.0, 0.5)

    def test_ln_domain(self):
        assert evaluate(parse("ln(x)"), 1.0) == 0.0
        with pytest.raises(EvalError):
            evaluate(parse("ln(x)"), 0.0)

    def test_sqrt_domain(self):
        with pytest.raises(EvalError):
            evaluate(parse("sqrt(x-y)"), 0.0, 1.0)

    def test_negative_base_fractional_power(self):
        with pytest.raises(EvalError):
            evaluate(parse("(x-y)^0.5"), 0.0, 1.0)
        # integer exponents of negative bases are fine
        assert evaluate(parse("(x-y)^3"), 0.0, 1.0) == -1.0

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalError):
            evaluate(parse("x^(-2)"), 0.0)

    def test_pure(self):
        e = parse("sqrt(x)*exp(y)/3 - min(x,y)^2")
        a = evaluate(e, 0.37, 0.91)
        b = evaluate(e, 0.37, 0.91)
        assert a == b  # bit-identical

    def test_calls_numeric(self):
        assert evaluate(parse("max(x, y)"), 0.2, 0.9) == 0.9
        assert evaluate(parse("abs(x-y)"), 0.2, 0.9) == pytest.approx(0.7)
        assert evaluate(parse("exp(x)"), 0.0) == 1.0

    def test_array_evaluation_matches_scalar(self):
        e = parse("x^2*y + sqrt(y)/2")
        xs = np.array([0.1, 0.5, 0.9])
        ys = np.array([0.2, 0.4, 0.8])
        arr = np.broadcast_to(expr.as_function(e)(xs, ys), xs.shape)
        for i in range(3):
            assert arr[i] == pytest.approx(evaluate(e, float(xs[i]), float(ys[i])), abs=0)


# round-trip property: pretty-print then reparse gives an identical tree

_constants = st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                       allow_infinity=False)


def _exprs(depth: int):
    if depth == 0:
        return st.one_of(
            _constants.map(Const),
            st.sampled_from([Var("x"), Var("y")]),
        )
    sub = _exprs(depth - 1)
    return st.one_of(
        _constants.map(Const),
        st.sampled_from([Var("x"), Var("y")]),
        sub.map(Neg),
        st.tuples(st.sampled_from(["add", "sub", "mul", "div", "pow"]), sub, sub).map(
            lambda t: BinOp(*t)
        ),
        st.tuples(st.sampled_from(["sqrt", "exp", "ln", "abs"]), sub).map(
            lambda t: Call(t[0], (t[1],))
        ),
        st.tuples(st.sampled_from(["min", "max"]), sub, sub).map(
            lambda t: Call(t[0], (t[1], t[2]))
        ),
    )


@given(_exprs(3))
def test_roundtrip_print_parse(tree):
    assert parse(to_string(tree)) == tree


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_corpus_roundtrip_and_agreement(x, y):
    for src in ("x^2*y^2", "(x+y)/2", "1-min(x,y)^2", "0.25*(x+y)/2+x*y/4"):
        tree = parse(src)
        again = parse(to_string(tree))
        assert again == tree
        assert evaluate(again, x, y) == evaluate(tree, x, y)


# masked array evaluation: NaN exactly where scalar evaluation raises

_GRID = np.array([-1.5, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0])


def _pow_free(depth: int):
    leaf = st.one_of(
        st.floats(min_value=0.0, max_value=3.0).map(Const),
        st.sampled_from([Var("x"), Var("y")]),
    )
    if depth == 0:
        return leaf
    sub = _pow_free(depth - 1)
    return st.one_of(
        leaf,
        sub.map(Neg),
        st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), sub, sub).map(
            lambda t: BinOp(*t)
        ),
        st.tuples(st.sampled_from(["sqrt", "ln", "abs"]), sub).map(
            lambda t: Call(t[0], (t[1],))
        ),
        st.tuples(st.sampled_from(["min", "max"]), sub, sub).map(
            lambda t: Call(t[0], (t[1], t[2]))
        ),
    )


# numpy's vectorised pow may differ from the scalar one by an ulp, and a later
# subtraction could magnify that, so '^' appears only at the root here
_masking_trees = st.one_of(
    _pow_free(3),
    st.tuples(_pow_free(2), _pow_free(2)).map(lambda t: BinOp("pow", *t)),
)


@given(_masking_trees)
def test_array_nan_exactly_where_scalar_raises(tree):
    X, Y = np.meshgrid(_GRID, _GRID, indexing="ij")
    arr = np.broadcast_to(expr.as_function(tree)(X, Y), X.shape)
    for i, j in np.ndindex(X.shape):
        try:
            want = evaluate(tree, float(X[i, j]), float(Y[i, j]))
        except EvalError:
            assert np.isnan(arr[i, j]), (to_string(tree), X[i, j], Y[i, j])
            continue
        except OverflowError:
            continue
        got = arr[i, j]
        assert not np.isnan(got), (to_string(tree), X[i, j], Y[i, j])
        if np.isfinite(want):
            assert abs(got - want) <= np.spacing(max(abs(got), abs(want)))


@pytest.mark.parametrize("src", ["(1/x)^0", "1^ln(x)", "min(1/x,1)", "max(ln(x),0)"])
def test_failed_operand_propagates(src):
    # IEEE gives NaN^0 = 1^NaN = 1 and min/max may drop a NaN; a failed node
    # must still fail, and only that node
    xs = np.array([0.0, 2.0])
    got = np.broadcast_to(expr.as_function(parse(src))(xs, 0.0), xs.shape)
    assert np.isnan(got[0]) and np.isfinite(got[1])
    assert got[1] == evaluate(parse(src), 2.0)
    with pytest.raises(EvalError):
        evaluate(parse(src), 0.0)


class TestPointThroughTheMaskedTree:
    """A point runs through the one NaN-masked tree: NaN raises, overflow is inf."""

    def test_overflow_is_infinite(self):
        # Python's float pow raised OverflowError here
        assert evaluate(parse("10^x"), 400.0) == np.inf
        assert evaluate(parse("-exp(x)"), 1000.0) == -np.inf

    @pytest.mark.parametrize("src,x,y", [
        ("x+1", np.nan, 0.0),          # a NaN coordinate
        ("x-y", np.inf, np.inf),       # inf - inf
        ("1/(x-y)", 0.5, 0.5),
        ("x + 1/0", 0.5, 0.0),         # constant operands, no ZeroDivisionError
    ])
    def test_nan_raises_naming_the_expression(self, src, x, y):
        with pytest.raises(EvalError, match=re.escape(f"in '{to_string(parse(src))}'")):
            evaluate(parse(src), x, y)

    def test_point_gives_a_python_float(self):
        f = expr.as_function(parse("2.5"))
        assert type(f(0.3, 0.7)) is float and type(f(1, 2)) is float
        assert type(expr.as_function(parse("x*y"))(np.float64(0.5), 0.5)) is float


# every node type, evaluated at the point (0.3, 0.7) (float.hex of the value, or
# "raises") and on the arrays x = (0, 0.3, 2, 0.75), y = (0.5, 0.7, 0.25, 0)
# ("nan" marks a failed node), recorded on the tree-walking evaluator that
# the compiled closures replaced: the bits are the same on both paths
EVALUATION_BITS = {
    "2.5": ("0x1.4000000000000p+1",
           ["0x1.4000000000000p+1", "0x1.4000000000000p+1", "0x1.4000000000000p+1", "0x1.4000000000000p+1"]),
    "x": ("0x1.3333333333333p-2",
         ["0x0.0p+0", "0x1.3333333333333p-2", "0x1.0000000000000p+1", "0x1.8000000000000p-1"]),
    "y": ("0x1.6666666666666p-1",
         ["0x1.0000000000000p-1", "0x1.6666666666666p-1", "0x1.0000000000000p-2", "0x0.0p+0"]),
    "-x": ("-0x1.3333333333333p-2",
          ["-0x0.0p+0", "-0x1.3333333333333p-2", "-0x1.0000000000000p+1", "-0x1.8000000000000p-1"]),
    "x+y": ("0x1.0000000000000p+0",
           ["0x1.0000000000000p-1", "0x1.0000000000000p+0", "0x1.2000000000000p+1", "0x1.8000000000000p-1"]),
    "x-y": ("-0x1.9999999999999p-2",
           ["-0x1.0000000000000p-1", "-0x1.9999999999999p-2", "0x1.c000000000000p+0", "0x1.8000000000000p-1"]),
    "x*y": ("0x1.ae147ae147ae1p-3",
           ["0x0.0p+0", "0x1.ae147ae147ae1p-3", "0x1.0000000000000p-1", "0x0.0p+0"]),
    "x/y": ("0x1.b6db6db6db6dcp-2",
           ["0x0.0p+0", "0x1.b6db6db6db6dcp-2", "0x1.0000000000000p+3", "nan"]),
    "1/x": ("0x1.aaaaaaaaaaaabp+1",
           ["nan", "0x1.aaaaaaaaaaaabp+1", "0x1.0000000000000p-1", "0x1.5555555555555p+0"]),
    "x^2.5": ("0x1.93d32bceafc29p-5",
             ["0x0.0p+0", "0x1.93d32bceafc29p-5", "0x1.6a09e667f3bcdp+2", "0x1.f2d4a45635640p-2"]),
    "x^(-1.5)": ("0x1.857dd943cb7f5p+2",
                ["nan", "0x1.857dd943cb7f5p+2", "0x1.6a09e667f3bcdp-2", "0x1.8a2345cc04426p+0"]),
    "x^0": ("0x1.0000000000000p+0",
           ["0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"]),
    "x^y": ("0x1.b8d809c615f41p-2",
           ["0x0.0p+0", "0x1.b8d809c615f41p-2", "0x1.306fe0a31b715p+0", "0x1.0000000000000p+0"]),
    "y^x": ("0x1.cc0b43ba5c3d9p-1",
           ["0x1.0000000000000p+0", "0x1.cc0b43ba5c3d9p-1", "0x1.0000000000000p-4", "0x0.0p+0"]),
    "1^ln(x)": ("0x1.0000000000000p+0",
               ["nan", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"]),
    "(1/x)^0": ("0x1.0000000000000p+0",
               ["nan", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0"]),
    "sqrt(x-0.1)": ("0x1.c9f25c5bfedd9p-2",
                   ["nan", "0x1.c9f25c5bfedd9p-2", "0x1.60df2453ab723p+0", "0x1.9cc99ff02c481p-1"]),
    "exp(x*y)": ("0x1.3bd253494e939p+0",
                ["0x1.0000000000000p+0", "0x1.3bd253494e939p+0", "0x1.a61298e1e069cp+0", "0x1.0000000000000p+0"]),
    "ln(x)": ("-0x1.34378fcbda721p+0",
             ["nan", "-0x1.34378fcbda721p+0", "0x1.62e42fefa39efp-1", "-0x1.269621134db92p-2"]),
    "abs(x-y)": ("0x1.9999999999999p-2",
                ["0x1.0000000000000p-1", "0x1.9999999999999p-2", "0x1.c000000000000p+0", "0x1.8000000000000p-1"]),
    "min(x,y)": ("0x1.3333333333333p-2",
                ["0x0.0p+0", "0x1.3333333333333p-2", "0x1.0000000000000p-2", "0x0.0p+0"]),
    "max(x,y)": ("0x1.6666666666666p-1",
                ["0x1.0000000000000p-1", "0x1.6666666666666p-1", "0x1.0000000000000p+1", "0x1.8000000000000p-1"]),
    "min(1/x,1)": ("0x1.0000000000000p+0",
                  ["nan", "0x1.0000000000000p+0", "0x1.0000000000000p-1", "0x1.0000000000000p+0"]),
    "max(ln(x),0)": ("0x0.0p+0",
                    ["nan", "0x0.0p+0", "0x1.62e42fefa39efp-1", "0x0.0p+0"]),
    "-x^2+3*x*y-y/2": ("0x1.851eb851eb850p-3",
                      ["-0x1.0000000000000p-2", "0x1.851eb851eb850p-3", "-0x1.5000000000000p+1", "-0x1.2000000000000p-1"]),
    "(x+y)^(1/3)*exp(-x)": ("0x1.7b4c869c37c05p-1",
                           ["0x1.965fea53d6e3dp-1", "0x1.7b4c869c37c05p-1", "0x1.6b30e9ef6a989p-3", "0x1.b77941b85a894p-2"]),
    "(x-y)^3": ("-0x1.0624dd2f1a9fbp-4",
               ["-0x1.0000000000000p-3", "-0x1.0624dd2f1a9fbp-4", "0x1.5700000000000p+2", "0x1.b000000000000p-2"]),
    "x^(y-0.5)": ("0x1.926eff16629a5p-1",
                 ["0x1.0000000000000p+0", "0x1.926eff16629a5p-1", "0x1.ae89f995ad3adp-1", "0x1.279a74590331cp+0"]),
    "ln(x-y)": ("raises",
               ["nan", "nan", "0x1.1e85f5e7040d0p-1", "-0x1.269621134db92p-2"]),
    "sqrt(x-y)": ("raises",
                 ["nan", "nan", "0x1.52a7fa9d2f8eap+0", "0x1.bb67ae8584caap-1"]),
    "(x-y)^0.5": ("raises",
                 ["nan", "nan", "0x1.52a7fa9d2f8eap+0", "0x1.bb67ae8584caap-1"]),
    "x^(-2)": ("0x1.638e38e38e38fp+3",
              ["nan", "0x1.638e38e38e38fp+3", "0x1.0000000000000p-2", "0x1.c71c71c71c71cp+0"]),
}
_XS = np.array([0.0, 0.3, 2.0, 0.75])
_YS = np.array([0.5, 0.7, 0.25, 0.0])


def _bits(v) -> str:
    v = float(v)
    return "nan" if np.isnan(v) else v.hex()


@pytest.mark.parametrize("src", sorted(EVALUATION_BITS))
def test_compiled_evaluation_keeps_the_recorded_bits(src):
    at_point, on_arrays = EVALUATION_BITS[src]
    tree = parse(src)
    try:
        got = _bits(evaluate(tree, 0.3, 0.7))
    except EvalError:
        got = "raises"
    assert got == at_point
    f = expr.as_function(tree)
    assert [_bits(v) for v in np.broadcast_to(f(_XS, _YS), _XS.shape)] == on_arrays
    # a float point and an array run through the same compiled f
    if at_point != "raises":
        assert _bits(f(0.3, 0.7)) == at_point


def _monotone_exprs(depth: int):
    """Trees of expr's grammar, mostly of the nodes expr.nondecreasing admits.

    Constants reach 1e300 and exponents 500, so some sub-expressions
    overflow or underflow, and now and then a node the proof refuses (−,
    unary −, exp, ÷ and ^ by an expression) is drawn.
    """
    leaf = st.one_of(
        st.sampled_from([Var("x"), Var("y")]),
        st.sampled_from([0.0, 1e-300, 0.5, 2.0, 1e300]).map(Const),
        st.floats(min_value=0.0, max_value=10.0).map(Const),
    )
    if depth == 0:
        return leaf
    sub = _monotone_exprs(depth - 1)
    binary = ["add"] * 4 + ["mul"] * 4 + ["sub", "div", "pow"]
    return st.one_of(
        st.sampled_from([Var("x"), Var("y")]),
        st.tuples(st.sampled_from(binary), sub, sub).map(lambda t: BinOp(*t)),
        st.tuples(st.sampled_from(["div", "pow"]), sub,
                  st.floats(min_value=0.0, max_value=500.0).map(Const)).map(lambda t: BinOp(*t)),
        st.tuples(st.sampled_from(["sqrt"] * 4 + ["exp", "neg"]), sub).map(
            lambda t: Neg(t[1]) if t[0] == "neg" else Call(t[0], (t[1],))),
        st.tuples(st.sampled_from(["min", "max"]), sub, sub).map(
            lambda t: Call(t[0], (t[1], t[2]))),
    )


# the proof that f is nondecreasing, ≥ +0 and free of −0.0 (expr.nondecreasing)

_MIDPOINTS = (np.arange(129) + 0.5) / 129


def _campaign_sources(seed: int) -> set[str]:
    cfg = FuzzConfig(seed=seed)
    return {build_trial_scenario(cfg, index).f_src for index in range(cfg.trials)}


class TestNondecreasing:
    @pytest.mark.parametrize("seed", [FuzzConfig().seed, 1, 2, 3, 4, 5])
    def test_proves_every_campaign_f(self, seed):
        sources = _campaign_sources(seed)
        assert len(sources) > 400
        assert all(expr.nondecreasing(parse(src), 1.0, 1.0) for src in sources)

    @pytest.mark.parametrize("src", ["min(x,y)", "max(x,y)", "x*y", "0.7", "0*x", "1e200*x*y",
                                     "sqrt(x)*max(x,y)/3", "(x+y)/2", "x^400"])
    def test_proves(self, src):
        assert expr.nondecreasing(parse(src), 1.0, 1.0)

    @pytest.mark.parametrize("src", ["16*x*(1-x)*y*(1-y)", "x-0.5", "1/(x-0.5)", "(x*y)^(-2)",
                                     "x^y", "exp(x)", "-0*x", "x^0", "x/0", "abs(x)", "ln(1+x)"])
    def test_refuses(self, src):
        assert not expr.nondecreasing(parse(src), 1.0, 1.0)

    def test_refuses_a_constant_of_minus_zero_or_inf(self):
        for c in (-0.0, math.inf, math.nan):
            assert not expr.nondecreasing(BinOp("mul", Const(c), Var("x")), 1.0, 1.0)
        assert not expr.nondecreasing(BinOp("pow", Var("x"), Const(math.inf)), 1.0, 1.0)

    def test_refuses_a_sub_expression_that_overflows_at_the_largest_node(self):
        # 1e308 + 1e308·x overflows near x = 1 while y^400 underflows near
        # y = 0: inf·0 is NaN inside the grid, though f's first and largest
        # nodes are finite
        tree = parse("min((1e308+1e308*x)*y^400, 1)")
        xs = (np.arange(1024) + 0.5) / 1024
        values = expr.as_function(tree)(xs[:, np.newaxis], xs[np.newaxis, :])
        assert np.count_nonzero(np.isnan(values)) == 32_913
        assert np.isfinite(values[0, 0]) and np.isfinite(values[-1, -1])
        assert not expr.nondecreasing(tree, xs[-1], xs[-1])

    @settings(max_examples=200)
    @given(_monotone_exprs(4))
    def test_proved_values_are_nondecreasing_finite_and_not_minus_zero(self, tree):
        top = float(_MIDPOINTS[-1])
        if not expr.nondecreasing(tree, top, top):
            return
        f = expr.as_function(tree)
        grid = np.broadcast_to(f(_MIDPOINTS[:, np.newaxis], _MIDPOINTS[np.newaxis, :]),
                               (129, 129))
        assert np.all(np.isfinite(grid)) and not np.any(np.signbit(grid))
        assert np.all(grid[1:] >= grid[:-1]) and np.all(grid[:, 1:] >= grid[:, :-1])
        # a cell evaluated with others gathered in any order has its grid bits
        cells = np.random.default_rng(0).permutation(129 * 129)[:500]
        i, j = cells // 129, cells % 129
        gathered = np.broadcast_to(f(_MIDPOINTS[i], _MIDPOINTS[j]), cells.shape)
        assert gathered.tobytes() == grid[i, j].tobytes()
