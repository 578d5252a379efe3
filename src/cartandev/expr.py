"""Small closed-form expression language for frame coefficients.

Grammar (loosest to tightest binding):

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # right-associative, exponent uint
    atom    := number | name | name '(' expr ')' | '(' expr ')'

Names are either coordinate variables or the functions sin, cos, exp.
Expressions support exact symbolic differentiation and vectorized
evaluation on numpy arrays, one tree at a time or, through ``Compiled``,
several trees at once with every shared subtree evaluated once. Every
operation is an IEEE operator or a numpy ufunc, so an env of np.float64
scalars gives bit for bit the values an env of arrays gives at each point.

A ``Compiled`` program runs as one straight-line Python function generated
from its op list. ``Compiled.trace`` records such a program from Python code
run once on ``Traced`` values, as every simulator does with its step, so a
traced program too is made only of IEEE operators, ufuncs and the checks
``check`` records. A program deletes each value after its last use.
"""

from __future__ import annotations

import itertools
import linecache
import math
import operator
import re
import struct
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ExprSyntaxError, UnknownIdentifier

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


class Expr:
    """Base class; subclasses are immutable AST nodes."""

    def __call__(self, env):
        """Evaluate with env mapping variable names to floats or arrays."""
        raise NotImplementedError

    def diff(self, var):
        raise NotImplementedError

    def variables(self):
        out = set()
        self._collect(out)
        return out

    def _collect(self, out):
        pass

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"


@dataclass(frozen=True, repr=False)
class Const(Expr):
    value: float

    def __call__(self, env):
        return self.value

    def diff(self, var):
        return Const(0.0)

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True, repr=False)
class Var(Expr):
    name: str

    def __call__(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise UnknownIdentifier(f"unknown variable {self.name!r}") from None

    def diff(self, var):
        return Const(1.0 if var == self.name else 0.0)

    def _collect(self, out):
        out.add(self.name)

    def __str__(self):
        return self.name


def _is_const(e, v=None):
    return isinstance(e, Const) and (v is None or e.value == v)


@dataclass(frozen=True, repr=False)
class Neg(Expr):
    arg: Expr

    def __call__(self, env):
        return -self.arg(env)

    def diff(self, var):
        return neg(self.arg.diff(var))

    def _collect(self, out):
        self.arg._collect(out)

    def __str__(self):
        return f"(-{self.arg})"


@dataclass(frozen=True, repr=False)
class _Binary(Expr):
    """A node op(left, right); each subclass sets op, its symbol and diff."""

    left: Expr
    right: Expr

    def __call__(self, env):
        return self.op(self.left(env), self.right(env))

    def _collect(self, out):
        self.left._collect(out)
        self.right._collect(out)

    def __str__(self):
        return f"({self.left} {self.symbol} {self.right})"


class Add(_Binary):
    op, symbol = operator.add, "+"

    def diff(self, var):
        return add(self.left.diff(var), self.right.diff(var))


class Sub(_Binary):
    op, symbol = operator.sub, "-"

    def diff(self, var):
        return sub(self.left.diff(var), self.right.diff(var))


class Mul(_Binary):
    op, symbol = operator.mul, "*"

    def diff(self, var):
        return add(mul(self.left.diff(var), self.right),
                   mul(self.left, self.right.diff(var)))


class Div(_Binary):
    op, symbol = operator.truediv, "/"

    def diff(self, var):
        num = sub(mul(self.left.diff(var), self.right),
                  mul(self.left, self.right.diff(var)))
        return div(num, Pow(self.right, 2))


@dataclass(frozen=True, repr=False)
class Pow(Expr):
    base: Expr
    exponent: int     # non-negative integer only

    def __call__(self, env):
        # the ufunc, not **: on a numpy scalar ** is scalar-math pow, whose
        # last bits can differ from those of the same power of an array
        return np.power(self.base(env), self.exponent)

    def diff(self, var):
        if self.exponent == 0:
            return Const(0.0)
        return mul(mul(Const(float(self.exponent)),
                       pow_(self.base, self.exponent - 1)),
                   self.base.diff(var))

    def _collect(self, out):
        self.base._collect(out)

    def __str__(self):
        return f"({self.base}^{self.exponent})"


@dataclass(frozen=True, repr=False)
class Call(Expr):
    func: str        # 'sin' | 'cos' | 'exp'
    arg: Expr

    def __call__(self, env):
        return _FUNCS[self.func](self.arg(env))

    def diff(self, var):
        inner = self.arg.diff(var)
        if self.func == "sin":
            outer = Call("cos", self.arg)
        elif self.func == "cos":
            outer = neg(Call("sin", self.arg))
        else:
            outer = self
        return mul(outer, inner)

    def _collect(self, out):
        self.arg._collect(out)

    def __str__(self):
        return f"{self.func}({self.arg})"


# -- constant-folding constructors -------------------------------------------

def neg(e):
    if _is_const(e):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.arg
    return Neg(e)


def add(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a, b):
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def _fold(fn, *values):
    """fn on np.float64 constants, with evaluation's bits: c/0 and overflows
    give inf or nan, for the finiteness checks to catch, not a Python
    exception, and a power has np.power's bits, not those of **."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return Const(float(fn(*map(np.float64, values))))


def div(a, b):
    if _is_const(a) and _is_const(b):
        return _fold(operator.truediv, a.value, b.value)
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def pow_(a, k):
    if k == 0:
        return Const(1.0)
    if k == 1:
        return a
    if _is_const(a):
        return _fold(np.power, a.value, k)
    return Pow(a, k)


# -- shared-subexpression evaluation -------------------------------------------

_INFIX = {operator.add: "+", operator.sub: "-", operator.mul: "*", operator.truediv: "/"}
_UNITS = {(operator.mul, 0): 1.0, (operator.mul, 1): 1.0, (operator.truediv, 1): 1.0,
          (operator.sub, 1): 0.0}     # (op, side): the float there that gives the other operand
_serial = itertools.count()


def _const_key(value):
    """Slot key of a constant; equal keys only for interchangeable constants.

    A float keys by its type and bytes (-0.0 is not 0.0, nor is one nan
    another), an int by its type and value (an int exponent is not a float),
    anything else, such as an array, by identity.
    """
    if isinstance(value, float):
        return ("const", type(value), struct.pack("<d", value))
    if isinstance(value, int):
        return ("const", type(value), value)
    return ("const", id(value))


class Compiled:
    """A program of ops without repeated subtrees, run as one generated function.

    Every distinct value gets one slot of ``values``: a constant is stored
    there, a variable is read from env, and an op (slot, fn, args) stores
    fn(*args), args being slots. Ops are keyed by fn and operand slots, so
    structurally equal subtrees share one slot and are evaluated once per
    call. From Expr roots, each op applies the same operation to the same
    operands as the tree node it replaces, so every output equals its root's
    own evaluation bit for bit; ``trace`` records a program from Python code.

    The ops become straight-line Python generated once per program, one line
    per op: an IEEE operator is written as its operator (``v7 = v3 * v5``),
    a ufunc as a call of a bound name, and constants are bound names too; an
    operator or ufunc that nothing reads, even transitively, gets no line,
    and a check is an ``if`` line. Lowered to Python floats, whose operators
    cost less than np.float64's, a program binds constants as floats, passes
    each ufunc result through float() (keeping its bits) and writes a
    division by a computed or zero b as ``a / b if b else _div(a, b)``, so
    x/0 is numpy's inf or nan, not ZeroDivisionError. The source is
    registered in linecache under a filename that names the program, so
    tracebacks show its lines.
    """

    def __init__(self, roots, name="expr"):
        self._start()
        memo = {}                      # id(node) -> slot: a DAG is lowered once per node
        self._finish([self._lower(r, memo) for r in roots], name)

    @classmethod
    def trace(cls, fn, arity, name, scalars=False):
        """The program of fn(inputs), run once on recorded values.

        fn takes a list of arity inputs and returns a flat list of outputs.
        Each operator or ufunc applied to an input, or to a value computed
        from one, is recorded as an op in the order fn applies it, with any
        other operand as a constant, and so is each ``check`` fn makes of a
        traced value; the rest of fn (arithmetic on constants, its control
        flow) runs once, here. So fn must not branch on an input. The
        program takes env as a sequence of arity values and returns fn's
        outputs for them bit for bit, on Python floats with scalars. x * 1.0,
        1.0 * x, x / 1.0 and x - 0.0 are x, bit for bit, and not recorded;
        0.0 + x, x + 0.0 (+0.0 at -0.0), 0.0 - x, x * 0.0 and 0.0 * x are.
        """
        self = cls.__new__(cls)
        self._start()
        inputs = [Traced(self, self._var(i)) for i in range(arity)]
        self._finish([self._operand(o) for o in fn(inputs)], name, scalars)
        return self

    def _start(self):
        self.values, self.names, self.ops = [], [], []
        self._slots = {}

    def _slot(self, key, value=None):
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = len(self.values)
            self.values.append(value)
        return slot

    def _const(self, value):
        return self._slot(_const_key(value), value)

    def _var(self, name):
        key = ("var", name)
        if key not in self._slots:
            self.names.append((self._slot(key), name))
        return self._slots[key]

    def _op(self, fn, args):
        """The slot of fn(*args)."""
        new = len(self.values)
        slot = self._slot((fn, args))
        if slot == new:
            self.ops.append((slot, fn, args))
        return slot

    def _lower(self, e, memo):
        slot = memo.get(id(e))
        if slot is not None:
            return slot
        if isinstance(e, Const):
            slot = self._const(e.value)
        elif isinstance(e, Var):
            slot = self._var(e.name)
        elif isinstance(e, Neg):
            slot = self._op(operator.neg, (self._lower(e.arg, memo),))
        elif isinstance(e, Call):
            slot = self._op(_FUNCS[e.func], (self._lower(e.arg, memo),))
        elif isinstance(e, Pow):
            slot = self._op(np.power, (self._lower(e.base, memo), self._const(e.exponent)))
        else:
            slot = self._op(e.op, (self._lower(e.left, memo), self._lower(e.right, memo)))
        memo[id(e)] = slot
        return slot

    def _operand(self, x):
        """The slot of a traced value or a constant."""
        if isinstance(x, Traced):
            if x.program is not self:
                raise ValueError("a value traced by another program")
            return x.slot
        return self._const(x)

    def _record(self, fn, args):
        for i, x in enumerate(args):
            if isinstance(x, float) and x == _UNITS.get((fn, i)) and math.copysign(1.0, x) > 0:
                return Traced(self, self._operand(args[1 - i]))
        return Traced(self, self._op(fn, tuple(map(self._operand, args))))

    def _finish(self, outputs, name, scalars=False):
        del self._slots
        self.outputs = outputs
        self.name = name
        self._run = self._generate(scalars)

    def _generate(self, scalars):
        """Compile the ops into one function env -> list of output values.

        Each computed value is deleted after the op that reads it last (or
        at once when nothing reads it), so a program on arrays holds only
        the values it still needs.
        """
        live, ops = set(self.outputs), []   # a check stays
        for slot, fn, args in reversed(self.ops):
            if isinstance(fn, tuple) or slot in live:
                live.update(args)
                ops.insert(0, (slot, fn, args))
        computed = {s for s, _ in self.names} | {
            s for s, fn, _ in ops if not isinstance(fn, tuple)}
        last = {}                      # computed slot -> index of the op reading it last
        for n, (_, _, args) in enumerate(ops):
            for a in args:
                if a in computed:
                    last[a] = n
        for a in self.outputs:
            last[a] = len(ops)         # returned: never freed
        bound = {}                     # bound name -> object, in order
        fn_names = {}

        def ref(a):
            if a in computed:
                return f"v{a}"
            if f"c{a}" not in bound:
                v = self.values[a]
                bound[f"c{a}"] = float(v) if scalars and isinstance(v, np.floating) else v
            return f"c{a}"

        def fn_name(fn):
            if fn not in fn_names:
                name = base = "_" + getattr(fn, "__name__", "")
                if not base.isidentifier():
                    name = base = "_fn"
                for k in itertools.count(1):
                    if name not in bound:
                        break
                    name = f"{base}{k}"
                fn_names[fn] = name
                bound[name] = fn
            return fn_names[fn]

        def freed(n, slots, args):
            """del lines for the values op n reads for the last time and its unread results."""
            dead = [a for a in dict.fromkeys(args) if last.get(a) == n]
            dead += [s for s in slots if s not in last]
            return [f"del {', '.join(f'v{a}' for a in dead)}"] if dead else []

        body = []
        if self.names and isinstance(self.names[0][1], str):
            body += ["try:"]
            body += [f"    v{slot} = env[{name!r}]" for slot, name in self.names]
            body += ["except KeyError as e:",
                     "    raise UnknownIdentifier(f'unknown variable {e.args[0]!r}') from None"]
        elif self.names:
            body += ["".join(f"v{slot}, " for slot, _ in self.names) + "= env"]
        body += freed(-1, [slot for slot, _ in self.names], ())
        for n, (slot, fn, args) in enumerate(ops):
            if isinstance(fn, tuple):                   # a check
                test, error = fn
                raised = f"raise {fn_name(type(error))}({', '.join(map(repr, error.args))})"
                for a in args:              # computed: a constant was checked while tracing
                    tested = ref(a) if test == "nonzero" else \
                        f"{fn_name(math.isfinite if scalars else np.isfinite)}({ref(a)})"
                    body.append(f"if not {tested}{'' if scalars else '.all()'}: {raised}")
                body += freed(n, (), args)
                continue
            if fn in _INFIX and len(args) == 2:
                a, b = map(ref, args)
                rhs = f"{a} {_INFIX[fn]} {b}"
                if scalars and fn is operator.truediv and (
                        args[1] in computed or not self.values[args[1]]):
                    rhs += f" if {b} else {fn_name(_div)}({a}, {b})"
            elif fn is operator.neg:
                rhs = f"-{ref(args[0])}"
            else:
                rhs = f"{fn_name(fn)}({', '.join(map(ref, args))})"
                if scalars and isinstance(fn, np.ufunc):
                    rhs = f"float({rhs})"
            body.append(f"v{slot} = {rhs}")
            body += freed(n, (slot,), args)
        body.append(f"return [{', '.join(map(ref, self.outputs))}]")
        source = "\n".join([f"def _bind({', '.join(bound)}):", "    def run(env):",
                            *("        " + line for line in body), "    return run", ""])
        filename = f"<compiled {self.name} #{next(_serial)}>"
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        weakref.finalize(self, linecache.cache.pop, filename, None)
        scope = {"__name__": __name__, "UnknownIdentifier": UnknownIdentifier}
        exec(compile(source, filename, "exec"), scope)
        return scope["_bind"](*bound.values())

    def __call__(self, env):
        """Values of the outputs, in order, with env as for Expr.__call__
        (a sequence of the inputs for a traced program)."""
        return self._run(env)


def _div(a, b):
    """a / b for a Python float divisor b == 0: numpy's inf or nan, not ZeroDivisionError."""
    return float(np.float64(a) / b)


def _recorded(fn, reflected=False):
    """The method of Traced that records fn(self, other), or fn(other, self)."""
    def method(self, other):
        return self.program._record(fn, (other, self) if reflected else (self, other))
    return method


class Traced:
    """A value of a program being traced: each operation on it is recorded.

    Python operators record themselves and numpy ufuncs through
    ``__array_ufunc__``. A traced value has no truth value, so code that
    branches on an input cannot be traced.
    """

    __slots__ = ("program", "slot")

    def __init__(self, program, slot):
        self.program, self.slot = program, slot

    __add__, __radd__ = _recorded(operator.add), _recorded(operator.add, True)
    __sub__, __rsub__ = _recorded(operator.sub), _recorded(operator.sub, True)
    __mul__, __rmul__ = _recorded(operator.mul), _recorded(operator.mul, True)
    __truediv__, __rtruediv__ = _recorded(operator.truediv), _recorded(operator.truediv, True)

    def __neg__(self):
        return self.program._record(operator.neg, (self,))

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        return self.program._record(ufunc, inputs)

    def __bool__(self):
        raise TypeError("a traced value has no truth value: traced code must not branch on it")


def check(test, values, error):
    """Raise error if a value is zero (test "nonzero") or inf or nan ("finite").

    Traced values are checked by their program, which records the check as
    an op ((), (test, error), slots) after its ops so far. Any other value,
    a scalar or an array, is checked at once: a constant while tracing.
    """
    traced = [v for v in values if isinstance(v, Traced)]
    if traced:
        program = traced[0].program
        program.ops.append(((), (test, error), tuple(map(program._operand, traced))))
    for v in values:
        if not isinstance(v, Traced) and not np.all(v if test == "nonzero" else np.isfinite(v)):
            raise error


# -- parser -------------------------------------------------------------------

_TOKEN = re.compile(r"""\s*(?:
    (?P<number>\d+\.\d*|\.\d+|\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
)""", re.VERBOSE)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {text[at]!r}", at)
        kind = m.lastgroup          # "number", "name" or "op"
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self):
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {val!r}", pos)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                e = add(e, rhs) if val == "+" else sub(e, rhs)
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.factor()
                e = mul(e, rhs) if val == "*" else div(e, rhs)
            else:
                return e

    def factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, pos = self.peek()
            if kind != "number" or not val.isdigit():
                raise ExprSyntaxError(
                    "exponent must be a non-negative integer literal", pos)
            self.advance()
            return pow_(base, int(val))
        return base

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "number":
            return Const(float(val))
        if kind == "name":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if val not in _FUNCS:
                    raise ExprSyntaxError(f"unknown function {val!r}", pos)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                if _is_const(arg):
                    return _fold(_FUNCS[val], arg.value)
                return Call(val, arg)
            return Var(val)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(f"unexpected token {val!r}" if val else
                              "unexpected end of input", pos)


def parse(text):
    """Parse an expression string into an Expr tree (constant-folded)."""
    return _Parser(text).parse()
