"""Analytic scalar fields over chart coordinates.

Expressions are parsed from a small text grammar over the variables
``x1 .. x<n>`` and evaluated with exact second-order forward-mode
derivatives: one pass yields the value together with the exact gradient
and Hessian.  No finite differences are used anywhere in this module.

Evaluation runs on a `Program`, a flat list of numpy calls built once from
the parsed trees of one expression or of many (B and C of a chart, G of a
metric), in which the value and every first and second partial of each
node that does not vanish identically is its own array of the batch shape.
Each is formed by the exact chain rules term by term in a fixed order,
leaving out the terms that vanish identically; the Hessian is mirrored
from m <= l, so it is symmetric to the bit.  A point outside the real
domain of a node raises `EvalDomainError` naming that subexpression, also
where the value of the node does not reach the result (``log(x1)^0``):
division by zero, log or sqrt of a non-positive value, a non-positive base
under a non-integer or variable exponent, a zero base under a negative
integer exponent.

Grammar (EBNF)::

    expr    = term , { ("+" | "-") , term } ;
    term    = unary , { ("*" | "/") , unary } ;
    unary   = "-" , unary | power ;
    power   = atom , [ "^" , unary ] ;
    atom    = number | variable | function , "(" , expr , ")"
            | "(" , expr , ")" ;

``^`` is right-associative and binds tighter than unary minus; ``*``, ``/``,
``+`` and ``-`` are left-associative.  Variables are ``x1`` .. ``x<n>``
(1-based).  Functions: ``sin cos tan exp log sqrt sinh cosh``.  Numbers are
decimal literals with optional exponent (``2``, ``0.5``, ``1e-3``); a
literal that overflows a double (``1e999``) is a `ParseError`.

The parser builds the tree as written.  Constants are folded once, when
a program is built (`Program._f`): an operation whose arguments are all
constants, whose domain check passes and whose function gives a finite
value is that value.  A field made of literals runs no op per point.
Expressions are immutable and evaluation is pure; they can be shared
freely between threads.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError

__all__ = [
    "Expression",
    "EvalResult",
    "ExpressionError",
    "ParseError",
    "EvalDomainError",
    "Jet",
    "Program",
    "parse",
]


class ExpressionError(InputError):
    """Base class for expression parsing and evaluation failures."""


class ParseError(ExpressionError):
    """Raised on malformed input; carries the 0-based text position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalDomainError(ExpressionError):
    """Raised when an evaluation point leaves the real domain of a node."""

    def __init__(self, message, node):
        super().__init__(f"{message} in subexpression '{node}'")
        self.node = node


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


@dataclass(frozen=True)
class _Node:
    def prec(self):
        raise NotImplementedError


@dataclass(frozen=True)
class Const(_Node):
    value: float

    def prec(self):
        return _PREC_ATOM

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(_Node):
    index: int  # 1-based

    def prec(self):
        return _PREC_ATOM

    def __str__(self):
        return f"x{self.index}"


@dataclass(frozen=True)
class Neg(_Node):
    arg: _Node

    def prec(self):
        return _PREC_NEG

    def __str__(self):
        return f"-{_wrap(self.arg, _PREC_NEG)}"


@dataclass(frozen=True)
class BinOp(_Node):
    op: str  # one of + - * / ^
    lhs: _Node
    rhs: _Node

    def prec(self):
        return {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL, "^": _PREC_POW}[self.op]

    def __str__(self):
        if self.op != "^":
            # parse is left-associative: a right operand at the same
            # precedence level must keep its parentheses
            p = self.prec()
            return f"{_wrap(self.lhs, p)} {self.op} {_wrap(self.rhs, p + 1)}"
        # power: base must be atomic, exponent parses as a unary
        lhs = _wrap(self.lhs, _PREC_ATOM)
        rhs = self.rhs if self.rhs.prec() >= _PREC_NEG else f"({self.rhs})"
        return f"{lhs} ^ {rhs}"


@dataclass(frozen=True)
class Call(_Node):
    func: str
    arg: _Node

    def prec(self):
        return _PREC_ATOM

    def __str__(self):
        return f"{self.func}({self.arg})"


def _wrap(node, min_prec):
    return f"({node})" if node.prec() < min_prec else node


# ---------------------------------------------------------------------------
# Parser (recursive descent)
# ---------------------------------------------------------------------------

_FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh")  # run as numpy's

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_VAR_RE = re.compile(r"^x(\d+)$")


class _Parser:
    def __init__(self, text, n):
        self.text = text
        self.n = n
        self.pos = 0
        self.tok = None
        self.tok_pos = 0
        self._advance()

    def _advance(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            self.tok = None
            self.tok_pos = self.pos
            return
        m = _TOKEN_RE.match(self.text, self.pos)
        if m is None or m.start() != self.pos:
            raise ParseError(f"unexpected character {self.text[self.pos]!r}", self.pos)
        self.tok_pos = m.start(m.lastgroup)
        self.tok = (m.lastgroup, m.group(m.lastgroup))
        self.pos = m.end()

    def _expect_op(self, op):
        if self.tok != ("op", op):
            raise ParseError(f"expected {op!r}", self.tok_pos)
        self._advance()

    def parse(self):
        node = self.expr()
        if self.tok is not None:
            raise ParseError(f"unexpected token {self.tok[1]!r}", self.tok_pos)
        return node

    def expr(self):
        return self._left_assoc(self.term, "+-")

    def term(self):
        return self._left_assoc(self.unary, "*/")

    def _left_assoc(self, operand, ops):
        node = operand()
        while self.tok is not None and self.tok[0] == "op" and self.tok[1] in ops:
            op = self.tok[1]
            self._advance()
            node = BinOp(op, node, operand())
        return node

    def unary(self):
        if self.tok == ("op", "-"):
            self._advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.tok == ("op", "^"):
            self._advance()
            node = BinOp("^", node, self.unary())
        return node

    def atom(self):
        if self.tok is None:
            raise ParseError("unexpected end of input", self.tok_pos)
        kind, value = self.tok
        pos = self.tok_pos
        if kind == "num":
            number = float(value)
            if math.isinf(number):  # its printed form could not be read back
                raise ParseError(f"number {value!r} out of range", pos)
            self._advance()
            return Const(number)
        if kind == "name":
            self._advance()
            m = _VAR_RE.match(value)
            if m is not None:
                idx = int(m.group(1))
                if not 1 <= idx <= self.n:
                    raise ParseError(
                        f"variable x{idx} out of range for {self.n} variable(s)", pos
                    )
                return Var(idx)
            if value in _FUNCTIONS:
                self._expect_op("(")
                arg = self.expr()
                self._expect_op(")")
                return Call(value, arg)
            raise ParseError(f"unknown identifier {value!r}", pos)
        if value == "(":
            self._advance()
            node = self.expr()
            self._expect_op(")")
            return node
        raise ParseError(f"unexpected token {value!r}", pos)


# ---------------------------------------------------------------------------
# Programs: per-component straight-line evaluation
#
# Slots 0 .. n-1 of a program's value list are the coordinates, followed by
# any value-only coordinates; every other slot is a constant fixed at build
# time or the output of one op.  Ops are hash-consed on (function,
# argument slots), so a subexpression shared between entries runs once per
# evaluation.  Folding happens here and only here: an op whose arguments
# are all constants, whose domain check passes and whose function gives a
# finite value is that constant.  The jet of a
# node maps () to the slot of its value, (m,) to that of d_m and (m, l),
# m <= l, to that of d_m d_l; a partial that vanishes identically has no
# slot (None).  An op is data: (function, out slot, argument slots a and b,
# domain check or None), b None for a unary function.  `Program.run` is its
# one interpreter, and a second one (over intervals, say) can walk the same
# list.  Ops are interpreted, not compiled per program: every CLI verb
# builds its chart anew, and compiling would
# cost more than that.
# ---------------------------------------------------------------------------

_ADD, _SUB, _MUL, _DIV, _NEG = (
    operator.add, operator.sub, operator.mul, operator.truediv, operator.neg
)


class Jet(NamedTuple):
    """Values (batch shape), first partials (..., n) and second partials
    (..., n, n); a derivative above the order asked for is None."""

    v: np.ndarray
    g: np.ndarray | None
    h: np.ndarray | None


class Program:
    """One straight-line program over n coordinates, built from expressions.

    `add_group` declares a group of output arrays: values, partials and
    second partials up to the group's order.  The ops are plain tuples
    (function, out slot, a, b, check) over the slots of `_vals`, and `run`
    is their interpreter: on a batch of points it runs only the ops the
    groups asked for need, and the domain checks of their expressions, as
    a loop of plain numpy calls on arrays of the batch shape.

    `values` more coordinates may follow the n: slots n .. n + values - 1,
    read for their values only (no partial is taken along them, and no
    expression names them).  A group can also be built from slots rather
    than expressions: `slots` gives the slots of a declared group and
    `const` those of constants, `op` combines slots through the same
    folding rule, and `add_group` takes the resulting slots as entries of
    a values-only group.  A group of expressions can be declared at given
    slots (`add_group`'s `at`): it then holds the expressions and their
    partials at the point those slots make, so one program can evaluate
    a chart at several points that are themselves computed in it.  The
    geodesic program of `~algebroid.metric` has two plans (the runs of two
    tuples of orders, each copying only the slots it reaches): the field, a
    group of slots over the base point x and the fiber point mu, and the
    RK4 step, groups declared later at each stage's point (`SlotVector`).
    """

    @classmethod
    def of(cls, owner):
        """The program of an expression, section, chart or metric: built
        from its `_declare` on first use and kept on it."""
        prog = owner.__dict__.get("_program")
        if prog is None:
            prog = cls(owner.n)
            owner._declare(prog)
            object.__setattr__(owner, "_program", prog)
        return prog

    def __init__(self, n, values=0):
        self.n = n  # the coordinates with partials
        self._width = n + values  # all coordinates, the value-only ones last
        self._vals = [None] * self._width  # constants; None marks a per-point slot
        self._ops = []  # (function, out slot, a, b or None, check or None)
        self._memo = {}
        self._groups = []  # per group: (order, one spec per level, checked slots)
        self._plans = {}

    # -- building -----------------------------------------------------------

    def _k(self, c):
        key = float(c).hex()  # keeps -0.0 apart from 0.0
        if key not in self._memo:
            self._memo[key] = len(self._vals)
            self._vals.append(float(c))
        return self._memo[key]

    def _f(self, f, *args, check=None):
        """Slot of f(*args), an op run after the domain check (test, slot of
        an argument, message, node) if one is given.  Exact folds: a None
        argument vanishes identically (0 * y = 0, x + 0 = x - 0 = x, 0 - y =
        -y), a factor 1.0 is dropped, a / 1.0 is a, and a check that a
        constant passes is dropped (one it fails stays: the op raises at
        every point).  The one folding rule: where every argument is a
        constant, no check is left and f gives a finite value there, the
        slot is that constant, the bits the op would give at every point."""
        if None in args:
            if f is _MUL or f is _NEG:
                return None
            a, b = args
            return a if b is None else b if f is _ADD else self._f(_NEG, b)
        ks = [self._vals[a] for a in args]
        if check and self._vals[check[1]] is not None and not check[0](self._vals[check[1]], 0.0):
            check = None
        if f is _MUL and 1.0 in ks:
            return args[1 - ks.index(1.0)]
        if f is _DIV and ks[1] == 1.0 and check is None:
            return args[0]
        if None not in ks and check is None:
            with np.errstate(all="ignore"):
                v = f(*ks)
            if math.isfinite(v):
                return self._k(v)
        if f is _ADD or f is _MUL:
            args = tuple(sorted(args))  # commutative: same bits either way
        key = f, args, check and check[:3]
        s = self._memo.get(key)
        if s is None:
            s = self._memo[key] = len(self._vals)
            self._vals.append(None)
            a, b = (*args, None)[:2]
            self._ops.append((f, s, a, b, check))
        if check is not None:
            self._checked.add(s)
        return s

    def const(self, c):
        """Slot of the constant c, or None (zero) for c = 0.0."""
        return self._k(c) if c else None

    def op(self, f, a, b, check=None):
        """Slot of f(a, b), f one of operator.add, operator.sub,
        operator.mul and operator.truediv, for slots a and b of this program
        (None: zero), through the folding rule of `_f`.  A constant 0.0
        counts as zero here, so a term with a factor that cancels to 0.0 is
        left out: exact wherever the other factor is finite.  A quotient
        takes `check`, a (message, node) pair: the op raises
        EvalDomainError(message, node) wherever b <= 0, before it divides
        (a zero divisor fails at every point), and 0 / b is zero."""
        vals = self._vals
        if a is not None and vals[a] == 0.0:
            a = None
        if b is not None and vals[b] == 0.0:
            b = None
        if f is _DIV:
            if a is None:
                return None
            b = self._k(0.0) if b is None else b
            return self._f(f, a, b, check=(operator.le, b, *check))
        return self._f(f, a, b)

    def _pow(self, a, e, check=None):
        # pow(x, 0) = 1 for every x, NaN included, and pow(x, 1) = x
        if e == 0 or e == 1:
            return self._k(1.0) if e == 0 else a
        return self._f(np.power, a, self._k(e), check=check)

    def _map(self, f, *jets):
        """The jet of a linear op, applied slot by slot."""
        return {key: self._f(f, *(jet.get(key) for jet in jets)) for key in self._keys}

    def _jet(self, node):
        f = self._f
        if isinstance(node, Const):
            return {(): self._k(node.value)}
        if isinstance(node, Var):
            return {(): self._at[node.index - 1], (node.index - 1,): self._k(1.0)}
        if isinstance(node, Neg):
            return self._map(_NEG, self._jet(node.arg))
        if isinstance(node, Call):
            a = self._jet(node.arg)
            return self._chain(a, *self._function(node.func, a[()], node))
        if node.op == "^":
            return self._power(node)
        a, b = self._jet(node.lhs), self._jet(node.rhs)
        if node.op == "*":
            return self._product(a, b)
        if node.op == "/":
            # a * (1/b), with d(1/b) = -q^2 db and d2(1/b) = 2 q^3 (db)^2, q = 1/b
            q = f(_DIV, self._k(1.0), b[()], check=(operator.eq, b[()], "division by zero", node))
            q2 = f(_MUL, q, q)
            return self._product(a, self._chain(
                b, q, lambda: f(_NEG, q2), lambda: f(_MUL, self._k(2.0), f(_MUL, q2, q))
            ))
        return self._map(_ADD if node.op == "+" else _SUB, a, b)

    def _product(self, a, b):
        # d_m (ab) = a_m b + b_m a;
        # d_m d_l (ab) = (a_ml b + b_ml a) + (a_m b_l + b_m a_l)
        f, av, bv = self._f, a[()], b[()]
        out = {(): f(_MUL, av, bv)}
        for key in self._keys[1:]:
            out[key] = f(_ADD, f(_MUL, a.get(key), bv), f(_MUL, b.get(key), av))
            if len(key) == 2:
                m, l = key[:1], key[1:]
                cross = f(_ADD, f(_MUL, a.get(m), b.get(l)), f(_MUL, b.get(m), a.get(l)))
                out[key] = f(_ADD, out[key], cross)
        return out

    def _chain(self, a, v, d1, d2):
        """phi(a) from the slot v of phi(a) and thunks giving the slots of
        phi'(a) and phi''(a); a thunk that is None stands for zero.
        d_m = phi' a_m;  d_m d_l = phi' a_ml + phi'' (a_m a_l)."""
        out = {(): v}
        if all(a.get(key) is None for key in self._keys if len(key) == 1):
            return out
        f = self._f
        d1 = d1 and d1()
        d2 = d2() if d2 and self._order >= 2 else None
        for key in self._keys[1:]:
            out[key] = f(_MUL, d1, a.get(key))
            if len(key) == 2:
                square = f(_MUL, a.get(key[:1]), a.get(key[1:]))
                out[key] = f(_ADD, out[key], f(_MUL, d2, square))
        return out

    def _function(self, name, x, node, message=None):
        """Slot of name(x) and thunks of the slots of its first and second
        derivatives; log and sqrt check their argument (with `message` if
        given)."""
        f, k, check = self._f, self._k, None
        if name in ("log", "sqrt"):
            check = operator.le, x, message or f"{name} of a non-positive value", node
        v = f(getattr(np, name), x, check=check)
        sec2 = lambda: f(_ADD, k(1.0), f(_MUL, v, v))
        return (v,) + {
            "sin": (lambda: f(np.cos, x), lambda: f(_NEG, v)),
            "cos": (lambda: f(_NEG, f(np.sin, x)), lambda: f(_NEG, v)),
            "tan": (sec2, lambda: f(_MUL, f(_MUL, k(2.0), v), sec2())),
            "exp": (lambda: v, lambda: v),
            "log": (lambda: f(_DIV, k(1.0), x), lambda: f(_DIV, k(-1.0), f(_MUL, x, x))),
            "sqrt": (lambda: f(_DIV, k(0.5), v), lambda: f(_DIV, k(-0.25), f(_MUL, v, x))),
            "sinh": (lambda: f(np.cosh, x), lambda: v),
            "cosh": (lambda: f(np.sinh, x), lambda: v),
        }[name]

    def _power(self, node):
        a, b = self._jet(node.lhs), self._jet(node.rhs)
        x, c, f, k = a[()], self._vals[b[()]], self._f, self._k
        if c is not None:
            check = None
            if not (c == round(c) and abs(c) < 2**31):
                check = operator.le, x, "non-positive base with non-integer exponent", node
            elif c < 0:
                check = operator.eq, x, "zero base with negative exponent", node
            return self._chain(
                a,
                self._pow(x, c, check),
                None if c == 0 else lambda: f(_MUL, k(c), self._pow(x, c - 1)),
                None if c in (0, 1) else lambda: f(_MUL, k(c * (c - 1)), self._pow(x, c - 2)),
            )
        # a^b = exp(b log a), for a > 0
        log_a = self._function("log", x, node, "non-positive base with variable exponent")
        w = self._product(b, self._chain(a, *log_a))
        e = f(np.exp, w[()])
        return self._chain(w, e, lambda: e, lambda: e)

    # -- output groups ------------------------------------------------------

    def add_group(self, shape, order, entries, reads=(), at=None):
        """Declare the arrays of shape `shape` (values), shape + (n,) and
        shape + (n, n) (partials) up to `order`; returns the group number.

        `entries` are (expression, places) pairs, a place being an (index,
        sign) pair: the expression, negated for sign -1, sits at `index` of
        the values and at index + (m,) / index + (m, l) of the partials.
        Entries left out are zero.  In a group of order 0 an entry may give
        a slot of this program (an int) for the expression; the domain
        checks of the groups `reads`, whose slots it is built from, are
        then its own too, so it checks what running them would.

        `at` gives the n slots the expressions read for x1 .. x<n> (by
        default the coordinates themselves): variable x<i> takes its value
        from at[i - 1], while its partials stay those along coordinate i,
        so the group holds the expressions and their partials at the point
        those slots make.  Like `reads`, it says what the group reads.
        """
        n = self.n
        self._at = range(n) if at is None else at
        self._order, self._checked = order, set().union(*(self._groups[g][2] for g in reads))
        self._keys = [()] + [(m,) for m in range(n) if order >= 1]
        self._keys += [(m, l) for m in range(n) for l in range(m, n) if order >= 2]
        tmpls = [np.zeros(tuple(shape) + (n,) * k) for k in range(order + 1)]
        points = [[] for _ in tmpls]
        zero = [True for _ in tmpls]
        for expr, places in entries:
            jet = {(): expr} if isinstance(expr, int) else self._jet(expr.root)
            for index, sign in places:
                signed = jet if sign > 0 else self._map(_NEG, jet)
                for key in self._keys:
                    s = signed.get(key)
                    if s is None:
                        continue
                    level, c = len(key), self._vals[s]
                    for cell in {index + key, index + key[::-1]}:
                        if c is None:
                            points[level].append((cell, (Ellipsis,) + cell, s))
                        else:
                            tmpls[level][cell] = c
                        zero[level] = zero[level] and c == 0.0
        for tmpl in tmpls:
            tmpl.flags.writeable = False
        specs = [(t, tuple(p), z) for t, p, z in zip(tmpls, points, zero)]
        self._groups.append((order, specs, frozenset(self._checked)))
        self._plans.clear()
        return len(self._groups) - 1

    def slots(self, group, level=0):
        """The slots of a level of a group, as nested lists of its shape:
        the slot of a cell that points change, a constant slot for any
        other nonzero cell, None for a zero cell."""
        tmpl, point, _ = self._groups[group][1][level]
        out = np.full(tmpl.shape, None, dtype=object)
        for cell in zip(*np.nonzero(tmpl)):
            out[cell] = self._k(tmpl[cell])
        for cell, _, s in point:
            out[cell] = s
        return out.tolist()

    def constant(self, group):
        """The read-only values of a group if no point changes them (no
        per-point cell, no domain check in the group), else None."""
        tmpl, point, _ = self._groups[group][1][0]
        return None if point or self._groups[group][2] else tmpl

    def is_zero(self, group, level=0):
        """Whether a level vanishes identically."""
        return self._groups[group][1][level][2]

    def _plan(self, orders):
        """(ops to run, coordinates they read, the levels to fill as (group,
        level, template, per-point cells, vanishes), the number of slots
        they reach).  Every domain check of a group asked for runs, also
        where the value it guards is folded away, as in log(x1)^0."""
        levels, need = [], set()
        for g, ((top, specs, checked), order) in enumerate(zip(self._groups, orders)):
            if order is not None:
                need |= checked
                for k, spec in enumerate(specs[: min(order, top) + 1]):
                    levels.append((g, k) + spec)
                    need.update(s for _, _, s in spec[1])
        for _, out, a, b, _ in reversed(self._ops):
            if out in need:
                need.update((a, b))
        ops = tuple(op for op in self._ops if op[1] in need)
        inputs = [i for i in range(self._width) if i in need]
        # every slot an op reads comes before its own, the last op's the highest
        top = 1 + max(ops[-1][1] if ops else -1, inputs[-1] if inputs else -1)
        self._plans[orders] = plan = ops, inputs, levels, top
        return plan

    def run(self, points, orders):
        """Evaluate on points (..., n + values) with one derivative order
        per group (None skips the group).  Returns per group [values,
        partials, second partials], None above the order asked for: fresh
        arrays with the leading axes of points.  A run copies only the
        slots its plan reaches, which later groups do not change."""
        ops, inputs, levels, top = self._plans.get(orders) or self._plan(orders)
        base = points.shape[:-1]
        vals = self._vals
        if ops or inputs:
            vals = vals[:top]
            for i in inputs:
                # contiguous columns: numpy's kernels take the same path as
                # for any other array of the batch
                vals[i] = points[..., i].copy() if base else points[i]
            for f, out, a, b, check in ops:
                if check is not None:
                    test, x, message, node = check
                    bad = test(vals[x], 0.0)
                    if bad.any() if isinstance(bad, np.ndarray) else bad:
                        raise EvalDomainError(message, node)
                vals[out] = f(vals[a]) if b is None else f(vals[a], vals[b])
        out = [[None, None, None] for _ in orders]
        for g, k, tmpl, point, _ in levels:
            # a single point takes the cheaper copy and plain indices
            a = out[g][k] = np.empty(base + tmpl.shape) if base else tmpl.copy()
            if base:
                a[...] = tmpl
            for cell, index, s in point:
                a[index if base else cell] = vals[s]
        return out


class SlotVector:
    """Slots of a program as a vector under numpy's elementwise arithmetic.

    `+`, `*` and `/` with another SlotVector (one of a single slot
    broadcasts) or a float (on the right; for `*` on either side) build one
    op per component through the folding rule of `Program._f`, in the
    order Python evaluates the expression, so
    a formula written for numpy vectors, run on SlotVectors, builds the
    ops that give its bits.  A zero component is the constant 0.0 and is
    never left out: y + 0.0 is an op, as it turns -0.0 into 0.0."""

    def __init__(self, prog, slots):
        zero = prog._k(0.0)
        self.prog, self.slots = prog, [zero if s is None else s for s in slots]

    def _apply(self, f, a, b):
        prog = self.prog
        a, b = (v.slots if isinstance(v, SlotVector) else [prog._k(v)] for v in (a, b))
        size = max(len(a), len(b))
        a, b = (v * size if len(v) == 1 else v for v in (a, b))
        return SlotVector(prog, [prog._f(f, s, t) for s, t in zip(a, b)])

    __add__ = lambda self, other: self._apply(_ADD, self, other)
    __mul__ = lambda self, other: self._apply(_MUL, self, other)
    __rmul__ = lambda self, other: self._apply(_MUL, other, self)
    __truediv__ = lambda self, other: self._apply(_DIV, self, other)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


@dataclass
class EvalResult:
    """Value with exact first and second partial derivatives."""

    value: float
    gradient: np.ndarray  # shape (n,)
    hessian: np.ndarray  # shape (n, n), symmetric to the bit


@dataclass(frozen=True)
class Expression:
    """An analytic expression over chart variables ``x1 .. x<n>``.

    Immutable; printing with ``str()`` and re-parsing reproduces the same
    tree (round-trip stability).  Its one-entry program is built on the
    first evaluation and kept on the instance.
    """

    root: _Node
    n: int

    def __str__(self):
        return str(self.root)

    def evaluate(self, x) -> EvalResult:
        """Evaluate at a single point with exact gradient and Hessian."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise InputError(f"expected a point of dimension {self.n}, got {x.shape}")
        t = self.eval_raw(x, order=2)
        return EvalResult(float(t.v), t.g, t.h)

    def eval_raw(self, points, order=0) -> Jet:
        """Evaluate on points of shape (..., n).

        order 0 fills only values, 1 adds gradients (..., n), 2 adds
        Hessians (..., n, n).
        """
        points = np.asarray(points, dtype=float)
        if points.shape[-1] != self.n:
            raise InputError(
                f"expected points with last axis {self.n}, got {points.shape}"
            )
        return Jet(*Program.of(self).run(points, (order,))[0])

    def _declare(self, prog):
        prog.add_group((), 2, [(self, [((), 1)])])

    def values(self, points):
        """Values only, on points of shape (..., n)."""
        return self.eval_raw(points, order=0).v


def parse(text: str, n: int) -> Expression:
    """Parse `text` over variables ``x1 .. x<n>``.

    Raises ParseError (with position) on syntax errors, unknown identifiers
    and variable indices above `n`.
    """
    if n < 0:
        raise InputError("variable count must be nonnegative")
    return Expression(_Parser(text, n).parse(), n)

