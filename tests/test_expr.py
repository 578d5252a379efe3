"""Tests for the small symbolic expression language."""

import inspect
import math
import struct
import tracemalloc
import traceback

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
        ("foo(x)", 0),       # unknown function
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


@pytest.mark.parametrize("text,value", [("1/0", math.inf), ("-1/0", -math.inf),
                                        ("2/(1-1)", math.inf), ("0/0", math.nan)])
def test_constant_division_folds_to_its_ieee_value(text, value):
    # a division of constants is folded, by zero too, so nothing is left for
    # evaluation to divide on Python floats (a ZeroDivisionError)
    e = ex.parse(text)
    assert isinstance(e, ex.Const)
    assert repr(e.value) == repr(value)
    assert repr(ex.Compiled([e])({})[0]) == repr(value)


def test_constant_power_folds_to_the_bits_of_its_evaluation():
    # a folded c^k has the bits of x^k evaluated at x = c (np.power), not
    # those of Python's ** (libm pow), which differ in the last bit at ~5%
    # of these bases
    rng = np.random.default_rng(0)
    for k in (3, 4, 5):
        xs = rng.uniform(0.1, 10.0, 4000)
        folded = np.array([ex.parse(f"{c!r}^{k}").value for c in xs.tolist()])
        assert folded.tobytes() == ex.parse(f"x^{k}")({"x": xs}).tobytes()
    assert ex.parse("5.115851922062516^3").value == 133.8917740983896


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


# -- the generated evaluator -------------------------------------------------------


def random_dag(seed, size=40):
    """Random Expr DAG over x and y, built with the raw node classes (no
    folding): operands are drawn from every node so far, so subtrees are
    shared, and each op has at least one non-constant operand."""
    rng = np.random.default_rng(seed)
    x, y = ex.Var("x"), ex.Var("y")
    consts = [ex.Const(c) for c in (-0.0, 0.0, 1.5, -2.0, 0.5)]
    pool = [x, y, ex.Div(x, ex.Const(0.0)), ex.Div(x, ex.Const(-0.0)),
            ex.Div(ex.Const(1.0), y), ex.Mul(x, ex.Const(-0.0))]
    binary = (ex.Add, ex.Sub, ex.Mul, ex.Div)
    for _ in range(size):
        a = pool[rng.integers(len(pool))]
        kind = rng.integers(8)
        if kind < 4:
            b = (pool[rng.integers(len(pool))] if rng.random() < 0.7
                 else consts[rng.integers(len(consts))])
            node = binary[kind](*((a, b) if rng.random() < 0.5 else (b, a)))
        elif kind == 4:
            node = ex.Neg(a)
        elif kind == 5:
            node = ex.Pow(a, int(rng.integers(5)))
        else:
            node = ex.Call(("sin", "cos", "exp")[rng.integers(3)], a)
        pool.append(node)
    return pool[2:6] + pool[-8:] + [pool[rng.integers(len(pool))] for _ in range(4)]


def same_bytes(got, want):
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


@pytest.mark.parametrize("seed", range(12))
def test_generated_program_equals_tree_evaluation_on_random_dags(seed):
    # on one np.float64 point and on batches, signed zeros, x/0 = +-inf or
    # nan, integer powers and the ufuncs included, byte for byte
    roots = random_dag(seed)
    prog = ex.Compiled(roots)
    xs = np.array([0.0, -0.0, 0.7, -1.3, 2.0, np.inf])
    ys = np.array([0.0, 2.0, -0.0, 0.5, -3.0, 1.0])
    envs = [{"x": a, "y": b} for a, b in zip(xs, ys)] + [{"x": xs, "y": ys}]
    with np.errstate(all="ignore"):
        for env in envs:
            got = prog(env)
            assert all(same_bytes(g, r(env)) for g, r in zip(got, roots))


def test_program_is_generated_once_not_per_call(monkeypatch):
    compiled = []

    def counting(*args):
        compiled.append(args[1])
        return compile(*args)

    monkeypatch.setattr(ex, "compile", counting, raising=False)
    prog = ex.Compiled([ex.parse("sin(x) * y + x^2")], "once")
    run = prog._run
    for v in np.linspace(0.0, 1.0, 50):
        prog({"x": np.float64(v), "y": 2.0})
    assert len(compiled) == 1 and "once" in compiled[0] and prog._run is run


def test_traced_program_records_operators_and_ufuncs():
    def fn(v):
        s, d = v[0] + v[1], v[0] - v[1]
        return [np.sin(v[0]) * 2.0 + s / d, -np.power(v[1], 3), 0 + v[0],
                2.0 - v[0] / (3.0 / v[1]), 1.25]

    prog = ex.Compiled.trace(fn, 2, "traced")
    assert len(prog.ops) == 12
    for a, b in ((0.3, 0.1), (0.0, -0.0), (1.0, 1.0)):
        env = [np.float64(a), np.float64(b)]
        with np.errstate(all="ignore"):
            assert all(same_bytes(g, w) for g, w in zip(prog(env), fn(env)))
    with pytest.raises(TypeError, match="truth value"):
        ex.Compiled.trace(lambda v: [v[0] if v[1] else v[0]], 2, "branch")


# a quiet nan with a payload, which an operation could lose
PAYLOAD_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_1234))[0]
EDGE_VALUES = (0.3, -0.0, math.inf, PAYLOAD_NAN)


def test_traced_unit_operands_record_no_op_and_keep_every_bit():
    # x * 1.0, 1.0 * x, x / 1.0 and x - 0.0 are x itself, on scalars,
    # columns and Python floats: the program returns its input's bytes
    def fn(v):
        return [v[0] * 1.0, 1.0 * v[0], v[0] / 1.0, v[0] - 0.0]

    for scalars in (False, True):
        prog = ex.Compiled.trace(fn, 1, "units", scalars=scalars)
        assert prog.ops == []
        for x in EDGE_VALUES:
            for value in ((x,) if scalars else (np.float64(x), np.array([x, 2.0]))):
                assert all(same_bytes(got, value) for got in prog([value]))


@pytest.mark.parametrize("text", ["x + 0.0", "0.0 + x", "0.0 - x", "x * 0.0", "0.0 * x",
                                  "x - -0.0", "x * 1", "x / 1"])
def test_traced_zero_sums_and_products_are_recorded(text):
    # these are not x at some input: each stays one op, with the bytes of
    # the untraced expression (x + 0.0 is +0.0 at x = -0.0, x * 0.0 nan at
    # inf); an int 1 is not folded either
    def fn(v):
        return [eval(text, {"x": v[0]})]

    prog = ex.Compiled.trace(fn, 1, text)
    assert len(prog.ops) == 1
    with np.errstate(invalid="ignore"):
        for x in EDGE_VALUES:
            assert same_bytes(prog([np.float64(x)])[0], fn([np.float64(x)])[0])


def test_check_is_recorded_on_traced_values_and_made_at_once_on_others():
    # a traced value is checked by its program when it runs, in the order
    # of the checks; a scalar or an array, a constant while tracing included,
    # is checked at once and never reaches the program
    def fn(v):
        ex.check("nonzero", [v[0], 1.0], ValueError("zero"))
        ex.check("finite", [np.ones(2), v[1], v[0]], ValueError("not finite"))
        return [v[0] * v[1]]

    prog = ex.Compiled.trace(fn, 2, "checked", scalars=True)
    checks = [(op[0], args) for _, op, args in prog.ops if isinstance(op, tuple)]
    [(x, _), (y, _)] = prog.names
    assert checks == [("nonzero", (x,)), ("finite", (y, x))]
    assert prog([2.0, 3.0]) == [6.0]
    with pytest.raises(ValueError, match="^zero$"):
        prog([0.0, math.nan])
    with pytest.raises(ValueError, match="^not finite$"):
        prog([2.0, math.inf])
    columns = ex.Compiled.trace(fn, 2, "checked columns")
    assert columns([np.ones(2), np.full(2, 3.0)])[0].tolist() == [3.0, 3.0]
    with pytest.raises(ValueError, match="^zero$"):
        columns([np.array([1.0, 0.0]), np.ones(2)])
    with pytest.raises(ValueError, match="^not finite$"):
        columns([np.ones(2), np.array([1.0, math.nan])])
    with pytest.raises(ValueError, match="^zero$"):
        ex.Compiled.trace(lambda v: ex.check("nonzero", [v[0], 0.0], ValueError("zero")), 1, "x")
    for test, values in (("nonzero", [1.0, np.array([2.0, 0.0])]), ("finite", [0.0, math.nan]),
                         ("finite", [np.array([[1.0], [-math.inf]])])):
        with pytest.raises(ValueError):
            ex.check(test, values, ValueError())
    ex.check("nonzero", [-1.0, np.array([2.0, 3.0])], ValueError())
    ex.check("finite", [0.0, np.zeros((2, 3))], ValueError())


def test_generated_lines_show_in_tracebacks_and_source():
    # a Python float divided by zero raises inside the generated function
    prog = ex.Compiled.trace(lambda v: [v[0] * 3.0 / v[1]], 2, "ratio step")
    with pytest.raises(ZeroDivisionError) as info:
        prog([1.0, 0.0])
    last = traceback.extract_tb(info.value.__traceback__)[-1]
    assert "ratio step" in last.filename and last.line == "v4 = v3 / v1"
    tb = info.value.__traceback__
    while tb.tb_next:
        tb = tb.tb_next
    assert "v4 = v3 / v1" in inspect.getsource(tb.tb_frame.f_code)


def test_unread_operator_results_get_no_line():
    # a product and a ufunc nobody reads are left out, and the sum only
    # they read with them
    def fn(v):
        np.sin(v[0] * v[1] + 1.0)
        return [v[0] - v[1]]

    prog = ex.Compiled.trace(fn, 2, "dead ops")
    source = inspect.getsource(prog._run)
    assert "v0, v1, = env" in source
    assert not any(op in source for op in ("*", "+", "_sin"))
    assert prog([2.0, 0.5]) == fn([2.0, 0.5]) == [1.5]


def test_program_frees_each_value_after_its_last_use():
    # a 30-op chain on 10^6-element arrays holds the value it reads and the
    # one it makes, not every intermediate until it returns
    def chain(v):
        y = v[0]
        for k in range(30):
            y = y * 1.5 if k % 2 else y + 1.0
        return [y]

    program = ex.Compiled.trace(chain, 1, "chain")
    x = np.ones(10 ** 6)
    tracemalloc.start()
    try:
        got = program([x])[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == chain([x])[0].tobytes()
    assert peak <= 4 * x.nbytes
