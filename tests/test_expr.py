"""Tests for the small symbolic expression language."""

import math

import numpy as np
import pytest

from cartandev import expr as ex
from cartandev.errors import ExprSyntaxError, UnknownIdentifier


# -- parsing and evaluation ---------------------------------------------------


@pytest.mark.parametrize(
    "text,env,value",
    [
        ("1 + 2 * 3", {}, 7.0),
        ("(1 + 2) * 3", {}, 9.0),
        ("-x^2", {"x": 3.0}, -9.0),        # unary minus binds looser than ^
        ("2 - 3 - 4", {}, -5.0),           # left-associative subtraction
        ("12 / 4 / 3", {}, 1.0),
        ("-y/2", {"y": 4.0}, -2.0),
        ("sin(0)", {}, 0.0),
        ("cos(0)", {}, 1.0),
        ("exp(1)", {}, math.e),
        ("x*y + sin(x)*cos(y)", {"x": 0.5, "y": 1.5},
         0.5 * 1.5 + math.sin(0.5) * math.cos(1.5)),
        ("1.5 * 100 + 0.5", {}, 150.5),
    ],
)
def test_parse_and_evaluate(text, env, value):
    assert ex.parse(text)(env) == pytest.approx(value, rel=1e-15)


def test_vectorized_evaluation():
    e = ex.parse("sin(x) * y + x^2")
    x = np.linspace(-1.0, 1.0, 7)
    y = np.linspace(0.0, 2.0, 7)
    out = e({"x": x, "y": y})
    assert np.allclose(out, np.sin(x) * y + x**2)


def test_variables_collected():
    assert ex.parse("sin(x)*y + z/x").variables() == {"x", "y", "z"}
    assert ex.parse("3.5").variables() == set()


def test_unknown_identifier_at_evaluation():
    e = ex.parse("x + q")
    with pytest.raises(UnknownIdentifier):
        e({"x": 1.0})


# -- syntax errors with positions ---------------------------------------------


@pytest.mark.parametrize(
    "text,position",
    [
        ("x +", 3),          # dangling operator
        ("(x + 1", 6),       # unclosed parenthesis
        ("x ^ -1", 4),       # exponent must be a nonnegative integer literal
        ("x ^ 1.5", 4),
        ("sin x", 4),        # call requires parentheses
        ("1 @ 2", 2),        # unknown character
        ("", 0),
    ],
)
def test_syntax_error_positions(text, position):
    with pytest.raises(ExprSyntaxError) as info:
        ex.parse(text)
    assert info.value.position == position


# -- differentiation ----------------------------------------------------------


FIELDS = [
    "x^3 + 2*x*y",
    "sin(x)*cos(y)",
    "exp(x*y) / (1 + x^2)",
    "-y/2 + x^2*sin(y)",
]


@pytest.mark.parametrize("text", FIELDS)
@pytest.mark.parametrize("var", ["x", "y"])
def test_diff_matches_finite_differences(text, var):
    e = ex.parse(text)
    d = e.diff(var)
    rng = np.random.default_rng(7)
    for _ in range(5):
        env = {"x": rng.uniform(0.2, 1.0), "y": rng.uniform(0.2, 1.0)}
        h = 1e-6
        up = dict(env)
        dn = dict(env)
        up[var] += h
        dn[var] -= h
        fd = (e(up) - e(dn)) / (2 * h)
        assert d(env) == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_diff_constant_folding():
    assert ex.parse("3*x + 7").diff("x") == ex.Const(3.0)
    assert ex.parse("y^2").diff("x") == ex.Const(0.0)


# -- shared-subexpression evaluation ---------------------------------------------


def test_compiled_shares_repeated_subtrees():
    # x, sin(x), the product and the sum: the second sin(x) and the second
    # product share slots, whether or not they are the same objects
    roots = [ex.parse("sin(x)*sin(x) + sin(x)*sin(x)"), ex.parse("sin(x)")]
    prog = ex.Compiled(roots)
    assert len(prog.values) == 4 and len(prog.ops) == 3
    x = np.linspace(-1.0, 1.0, 9)
    out = prog({"x": x})
    assert all(np.array_equal(o, r({"x": x})) for o, r in zip(out, roots))


def test_compiled_keeps_signed_zeros_and_int_exponents_apart():
    roots = [ex.Mul(ex.Var("x"), ex.Const(0.0)), ex.Mul(ex.Var("x"), ex.Const(-0.0)),
             ex.Pow(ex.Var("x"), 2), ex.Mul(ex.Var("x"), ex.Const(2.0))]
    out = ex.Compiled(roots)({"x": np.array([1.0, -3.0])})
    assert [np.signbit(o).tolist() for o in out[:2]] == [[False, True], [True, False]]
    assert out[2].tolist() == [1.0, 9.0] and out[3].tolist() == [2.0, -6.0]


@pytest.mark.parametrize("k", range(8))
def test_power_on_scalars_has_array_bits(k):
    # one point is evaluated on np.float64 scalars; x^k must give the bits
    # of the same power of an array, signed zeros, infinities and nan included
    rng = np.random.default_rng(17)
    x = np.concatenate([[-0.0, 0.0, np.inf, -np.inf, np.nan, 1e-300, -1e300],
                        rng.uniform(-3.0, 3.0, 2000), rng.lognormal(0.0, 20.0, 2000)])
    tree = ex.Pow(ex.Var("x"), k)
    prog = ex.Compiled([tree])
    with np.errstate(over="ignore", under="ignore"):
        want = tree({"x": x})
        assert np.array_equal(prog({"x": x})[0], want, equal_nan=True)
        for f in (tree, lambda env: prog(env)[0]):
            got = np.array([f({"x": v}) for v in x])
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("text", FIELDS)
def test_compiled_equals_tree_evaluation(text):
    e = ex.parse(text)
    roots = [e, e.diff("x"), e.diff("y"), e.diff("x").diff("y")]
    rng = np.random.default_rng(5)
    env = {"x": rng.uniform(0.2, 1.0, 50), "y": rng.uniform(0.2, 1.0, 50)}
    out = ex.Compiled(roots)(env)
    assert all(np.array_equal(o, r(env)) for o, r in zip(out, roots))


def test_compiled_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        ex.Compiled([ex.parse("x + q")])({"x": 1.0})


# -- printing round-trip --------------------------------------------------------


@pytest.mark.parametrize("text", FIELDS + ["x^0", "2^3", "cos(x*y - 1)"])
def test_str_round_trip(text):
    e = ex.parse(text)
    again = ex.parse(str(e))
    rng = np.random.default_rng(11)
    for _ in range(3):
        env = {"x": rng.uniform(-1, 1), "y": rng.uniform(-1, 1)}
        assert again(env) == pytest.approx(e(env), rel=1e-15, abs=1e-15)
