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
"""

from __future__ import annotations

import math
import operator
import re
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


def div(a, b):
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b) and b.value != 0:
        return Const(a.value / b.value)
    return Div(a, b)


def pow_(a, k):
    if k == 0:
        return Const(1.0)
    if k == 1:
        return a
    if _is_const(a):
        return Const(a.value ** k)
    return Pow(a, k)


# -- shared-subexpression evaluation -------------------------------------------

class Compiled:
    """Several Expr roots lowered to one op list without repeated subtrees.

    Every distinct subtree gets one slot of a value list: a constant is
    stored in ``values``, a variable is read from env, and an op
    (slot, fn, a, b) stores fn(slot a) or, for a binary node, fn(slot a,
    slot b); a Pow's integer exponent is a constant. Slots are keyed by fn
    and operand slots, so structurally equal subtrees share one and are
    evaluated once per call. Each op applies the same operation to the same
    operands as the tree node it replaces, so every output equals its
    root's own evaluation bit for bit.
    """

    def __init__(self, roots):
        self.values, self.names, self.ops = [], [], []
        slots = {}
        self.outputs = [self._lower(r, slots) for r in roots]

    def _lower(self, e, slots):
        if isinstance(e, Const):
            # repr keeps -0.0 apart from 0.0 and an int exponent from a float
            key = ("const", repr(e.value))
        elif isinstance(e, Var):
            key = ("var", e.name)
        elif isinstance(e, Neg):
            key = (operator.neg, self._lower(e.arg, slots), None)
        elif isinstance(e, Call):
            key = (_FUNCS[e.func], self._lower(e.arg, slots), None)
        elif isinstance(e, Pow):
            key = (np.power, self._lower(e.base, slots),
                   self._lower(Const(e.exponent), slots))
        else:
            key = (e.op, self._lower(e.left, slots), self._lower(e.right, slots))
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(self.values)
            self.values.append(e.value if isinstance(e, Const) else None)
            if isinstance(e, Var):
                self.names.append((slot, e.name))
            elif not isinstance(e, Const):
                self.ops.append((slot,) + key)
        return slot

    def __call__(self, env):
        """Values of the roots, in order, with env as for Expr.__call__."""
        vals = list(self.values)
        for slot, name in self.names:
            try:
                vals[slot] = env[name]
            except KeyError:
                raise UnknownIdentifier(f"unknown variable {name!r}") from None
        for slot, fn, a, b in self.ops:
            vals[slot] = fn(vals[a]) if b is None else fn(vals[a], vals[b])
        return [vals[i] for i in self.outputs]


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
        self.text = text
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
                    return Const(float(_FUNCS[val](arg.value)))
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
