"""Expression DSL with exact forward-mode derivatives.

Grammar (standard precedence, highest first: ``^``, unary ``-``,
``* /``, ``+ -``)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | var | func '(' expr ')' | '(' expr ')' | '-' factor
    var    := 'x' digits          (1-based: x1 .. xN)
    func   := 'sin' | 'cos' | 'exp' | 'log'

Unary minus is parsed as ``'-' factor`` so that the exponent binds
tighter (``-x1^2`` means ``-(x1^2)``).  Each walk of a tree (evaluation,
printing, ``max_var_index`` and ``differentiate``) is one loop over
``Expr.postorder`` with a stack of operand results, so a tree of any
depth walks; only the parser recurses, once per level of parenthesis
or unary-minus nesting, and a nesting deeper than the interpreter's
recursion limit fails there.  Derivatives are propagated
through the tree in forward mode with one jet type, a truncated Taylor
value of order 1 (gradients and Jacobians) or 2 (Hessians) in the
variables it depends on, so they are exact up to rounding; ``gradient``
and ``hessian`` return every lower order from the same walk.  Evaluation
takes a (B, n) stack of points, and a single point is a stack of one.
A point is outside the domain where a denominator or a base with a
negative exponent is zero, a log argument is not positive, or the
result is not finite: its row comes back all NaN.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ParseError

FUNCTIONS = ("sin", "cos", "exp", "log")


# ---------------------------------------------------------------------------
# AST


class Expr:
    """Base expression node.  Trees come from ``parse_expression`` or
    from the node constructors below, such as ``Add(Var(1), Const(2.0))``."""

    def __str__(self):
        return _fmt(self)

    @functools.cached_property
    def postorder(self) -> list:
        """The nodes of the tree, each after its operands and a left
        operand before a right one: the one order every walk loops over
        (Griewank & Walther, *Evaluating Derivatives*, 2008, ch. 2),
        built without recursion once per tree."""
        order, todo = [], [self]
        while todo:  # root, right, left: the postorder reversed
            e = todo.pop()
            order.append(e)
            todo += _operands(e)
        order.reverse()
        return order


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 1-based, prints as x{index}


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Sub(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Mul(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Div(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr


def _operands(e: Expr) -> tuple:
    """The operands of a node, left before right."""
    t = type(e)
    if t is Const or t is Var:
        return ()
    if t is Neg or t is Call:
        return (e.arg,)
    if t is Pow:
        return (e.base,)
    return (e.lhs, e.rhs)


def max_var_index(expr: Expr) -> int:
    """Largest variable index appearing in the tree (0 if none)."""
    return max((e.index for e in expr.postorder if type(e) is Var),
               default=0)


# ---------------------------------------------------------------------------
# Printing (round-trips through the parser)

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5
_BINARY = {Add: ("+", _PREC_ADD), Sub: ("-", _PREC_ADD),
           Mul: ("*", _PREC_MUL), Div: ("/", _PREC_MUL)}


def _fmt(expr: Expr) -> str:
    """The text of the tree, with the parentheses the grammar needs."""
    stack = []  # (text, precedence) of each operand not yet consumed
    for e in expr.postorder:
        t = type(e)
        if t is Const:
            stack.append((repr(e.value),
                          _PREC_ATOM if e.value >= 0 else _PREC_NEG))
        elif t is Var:
            stack.append((f"x{e.index}", _PREC_ATOM))
        elif t is Call:
            stack.append((f"{e.func}({stack.pop()[0]})", _PREC_ATOM))
        elif t is Neg:
            a, p = stack.pop()
            stack.append((f"-({a})" if p < _PREC_NEG else f"-{a}", _PREC_NEG))
        elif t is Pow:
            a, p = stack.pop()
            a = f"({a})" if p < _PREC_ATOM else a
            stack.append((f"{a}^{e.exponent}", _PREC_POW))
        else:
            op, my = _BINARY[t]
            (rt, rp), (lt, lp) = stack.pop(), stack.pop()
            lt = f"({lt})" if lp < my else lt
            rt = f"({rt})" if rp <= my else rt  # left-associative grammar
            stack.append((f"{lt} {op} {rt}", my))
    return stack[0][0]


# ---------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)
_VAR_RE = re.compile(r"^x([1-9][0-9]*)$")


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, n):
        self.tokens = tokens
        self.n = n
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}, found {text or 'end of input'!r}",
                             pos)
        return self.advance()

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if text == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.factor()
                node = Mul(node, rhs) if text == "*" else Div(node, rhs)
            else:
                return node

    def factor(self) -> Expr:
        node = self.base()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            node = Pow(node, self.integer())
        return node

    def integer(self) -> int:
        sign = 1
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            sign = -1
            self.advance()
            kind, text, pos = self.peek()
        if kind != "number" or not text.isdigit():
            raise ParseError(f"integer exponent required, found {text!r}", pos)
        self.advance()
        return sign * int(text)

    def base(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "number":
            return Const(float(text))
        if kind == "op" and text == "-":
            return Neg(self.factor())
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            m = _VAR_RE.match(text)
            if m:
                index = int(m.group(1))
                if index > self.n:
                    raise ParseError(
                        f"variable index {index} > dimension {self.n}", pos)
                return Var(index)
            raise ParseError(f"unknown identifier {text!r}", pos)
        raise ParseError(f"unexpected token {text or 'end of input'!r}", pos)


def parse_expression(text: str, n: int) -> Expr:
    """Parse an expression over variables x1..xn."""
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    parser = _Parser(_tokenize(text), n)
    node = parser.expr()
    kind, text_, pos = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing token {text_!r}", pos)
    return node


# ---------------------------------------------------------------------------
# Forward-mode values (vectorized over a batch axis)


def _outer(g1, g2):
    return g1[:, :, None] * g2[:, None, :]


@functools.lru_cache(maxsize=1024)
def _placement(vars, union):
    """(rows, cols) of a block over ``vars`` in one over ``union``, as
    slices where they are contiguous (faster to assign than arrays)."""
    pos = [union.index(v) for v in vars]
    if pos[-1] - pos[0] == len(pos) - 1:
        cols = slice(pos[0], pos[-1] + 1)
        return cols, cols
    cols = np.array(pos)
    return cols[:, None], cols


def _place(block, vars, union, out=None):
    """A derivative block over ``vars`` (gradients (B, k) or Hessians
    (B, k, k)) written into its place in ``out``, a zeroed block over the
    sorted superset ``union`` (a new one when None), which it returns;
    the block itself when it covers ``union`` and no ``out`` is given."""
    if out is None and vars == union:
        return block
    if out is None:
        out = np.zeros(block.shape[:1] + (len(union),) * (block.ndim - 1))
    rows, cols = _placement(vars, union)
    if block.ndim == 2:
        out[:, cols] = block
    else:
        out[:, rows, cols] = block
    return out


class Jet:
    """Truncated Taylor value over a batch, sparse in the variables:
    ``vars`` is the sorted tuple of the 0-based variables it depends on,
    and value (B,), gradient (B, k) and, for a second-order jet, Hessian
    (B, k, k) cover those k variables; ``hess`` is None at order 1.

    A rule on two jets first widens both to the union of their ``vars``
    with zeros, then computes as a dense jet would, so each column it
    keeps is the dense one (Griewank & Walther, *Evaluating
    Derivatives*, 2008, ch. 7).  The Hessian is built from symmetric
    outer-product pairs, so its skew part is zero up to the exact
    commutativity of IEEE addition and multiplication.
    """

    __slots__ = ("val", "grad", "hess", "vars")

    def __init__(self, val, grad, hess=None, *, vars):
        self.val = val
        self.grad = grad
        self.hess = hess
        self.vars = vars

    def _like(self, val, grad, hess=None):
        return Jet(val, grad, hess, vars=self.vars)

    def _widen(self, union):
        """This jet over the variables ``union``, a sorted superset of
        its own, with zero derivatives in the variables it lacks."""
        if union == self.vars:
            return self
        return Jet(self.val, _place(self.grad, self.vars, union),
                   None if self.hess is None
                   else _place(self.hess, self.vars, union), vars=union)

    def _union(self, o):
        """self and o widened to the union of their variables."""
        if self.vars == o.vars:
            return self, o
        union = tuple(sorted({*self.vars, *o.vars}))
        return self._widen(union), o._widen(union)

    def __add__(self, o):
        if isinstance(o, Jet):
            a, o = self._union(o)
            return a._like(a.val + o.val, a.grad + o.grad,
                           None if a.hess is None else a.hess + o.hess)
        return self._like(self.val + o, self.grad, self.hess)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Jet):
            a, o = self._union(o)
            return a._like(a.val - o.val, a.grad - o.grad,
                           None if a.hess is None else a.hess - o.hess)
        return self._like(self.val - o, self.grad, self.hess)

    def __rsub__(self, o):
        return -self + o  # o - a == (-a) + o exactly in IEEE arithmetic

    def __neg__(self):
        return self._like(-self.val, -self.grad,
                          None if self.hess is None else -self.hess)

    def __mul__(self, o):
        if not isinstance(o, Jet):
            return self._like(self.val * o, self.grad * o,
                              None if self.hess is None else self.hess * o)
        a, o = self._union(o)
        v1, v2 = a.val, o.val
        grad = v1[:, None] * o.grad + v2[:, None] * a.grad
        if a.hess is None:
            return a._like(v1 * v2, grad)
        return a._like(v1 * v2, grad,
                       v1[:, None, None] * o.hess + v2[:, None, None] * a.hess
                       + _outer(a.grad, o.grad) + _outer(o.grad, a.grad))

    __rmul__ = __mul__

    def __truediv__(self, o):
        if not isinstance(o, Jet):
            return self._like(self.val / o, self.grad / o,
                              None if self.hess is None else self.hess / o)
        a, o = self._union(o)
        w = o.val
        v = a.val / w
        g = (a.grad - v[:, None] * o.grad) / w[:, None]
        if a.hess is None:
            return a._like(v, g)
        return a._like(v, g, (a.hess - v[:, None, None] * o.hess
                              - _outer(g, o.grad) - _outer(o.grad, g))
                       / w[:, None, None])

    def __rtruediv__(self, o):
        w = self.val
        v = o / w
        g = -(v / w)[:, None] * self.grad
        if self.hess is None:
            return self._like(v, g)
        return self._like(v, g, (-_outer(g, self.grad) - _outer(self.grad, g)
                                 - v[:, None, None] * self.hess)
                          / w[:, None, None])

    def __pow__(self, k: int):
        if k == 0:
            return self._like(np.ones_like(self.val), np.zeros_like(self.grad),
                              None if self.hess is None
                              else np.zeros_like(self.hess))
        if k == 1:
            return self
        return self._chain(self.val ** k, k * self.val ** (k - 1),
                           lambda: k * (k - 1) * self.val ** (k - 2))

    def _chain(self, v, d1, d2, grad=None):
        """g(self) for a scalar function g with value v and g' = d1;
        d2() gives g'' and is called only for a second-order jet."""
        if grad is None:
            grad = d1[:, None] * self.grad
        if self.hess is None:
            return self._like(v, grad)
        return self._like(v, grad, d1[:, None, None] * self.hess
                          + d2()[:, None, None] * _outer(self.grad, self.grad))

    def sin(self):
        s, c = np.sin(self.val), np.cos(self.val)
        return self._chain(s, c, lambda: -s)

    def cos(self):
        s, c = np.sin(self.val), np.cos(self.val)
        return self._chain(c, -s, lambda: -c)

    def exp(self):
        e = np.exp(self.val)
        return self._chain(e, e, lambda: e)

    def log(self):
        inv = 1.0 / self.val
        return self._chain(np.log(self.val), inv, lambda: -inv * inv,
                           grad=self.grad / self.val[:, None])


# ---------------------------------------------------------------------------
# Evaluation


def _flag(undefined, flags: list):
    """Records the mask ``undefined`` if it holds on any row."""
    if np.any(undefined):
        flags.append(undefined)


def _undefined(flags: list, *checked) -> list:
    """The masks of flags and of the rows where a checked array is not
    finite, as a new list."""
    masks = list(flags)
    for a in checked:
        finite = np.isfinite(a)
        if not finite.all():
            _flag(~finite.all(axis=tuple(range(1, a.ndim))), masks)
    return masks


def _settle(flags: list, out, *checked):
    """out with NaN in the rows that are flagged or where a checked array
    is not finite."""
    for undefined in _undefined(flags, *checked):
        out[undefined] = np.nan
    return out


def _raw(v):
    return getattr(v, "val", v)  # a jet's value; a plain value as it is


def _eval(expr, seeds, flags: list):
    """Value of the tree on the seeds, plain arrays or jets (any type
    with a ``val`` and Jet's rules); the rows in flags are meaningless.
    One loop over the postorder with a stack of operand values: a
    binary node pops its left operand (``pop(-2)``) before its right
    one, so each operation runs in the order of a recursive walk and no
    operand outlives the operation that uses it."""
    stack = []
    for e in expr.postorder:
        t = type(e)
        if t is Var:
            try:
                stack.append(seeds[e.index - 1])
            except IndexError:
                raise DimensionMismatch(f"variable x{e.index} exceeds "
                                        f"dimension {len(seeds)}") from None
        # the explicit checks catch undefined points whose value is finite,
        # such as exp(-1/x1^2) or (1/x1)^0 at x1 = 0
        elif t is Pow:
            if e.exponent < 0:
                _flag(_raw(stack[-1]) == 0.0, flags)
            stack.append(stack.pop() ** e.exponent)
        elif t is Add:
            stack.append(stack.pop(-2) + stack.pop())
        elif t is Const:  # a numpy scalar divides by 0 without a Python error
            stack.append(np.float64(e.value))
        elif t is Sub:
            stack.append(stack.pop(-2) - stack.pop())
        elif t is Mul:
            stack.append(stack.pop(-2) * stack.pop())
        elif t is Div:
            _flag(_raw(stack[-1]) == 0.0, flags)
            stack.append(stack.pop(-2) / stack.pop())
        elif t is Neg:
            stack.append(-stack.pop())
        elif t is Call:
            if e.func == "log":
                _flag(_raw(stack[-1]) <= 0.0, flags)
            arg = stack.pop()
            stack.append(getattr(arg, e.func)() if hasattr(arg, "val")
                         else getattr(np, e.func)(arg))
        else:  # pragma: no cover
            raise TypeError(f"unknown node {e!r}")
    return stack[0]


def _as_batch(x):
    """x as a float (B, n) stack of points; any other shape raises
    DimensionMismatch."""
    X = np.asarray(x, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(
            f"expected a (B, n) stack of points, got shape {X.shape}")
    return X


def evaluate(expr: Expr, x):
    """Value of the expression on a (B, n) stack: (B,), NaN in the rows
    outside the domain."""
    X = _as_batch(x)
    flags = []
    with np.errstate(all="ignore"):
        out = _eval(expr, [X[:, i] for i in range(X.shape[1])], flags)
    out = np.array(np.broadcast_to(np.asarray(out, dtype=float), (len(X),)))
    return _settle(flags, out, out)


def _jet(expr: Expr, x, order: int, out=None):
    """Value, gradient and, at order 2, symmetric Hessian of the
    expression on a (B, n) stack from one jet walk: (value, gradient) or
    (value, gradient, Hessian), of shapes (B,), (B, n) and (B, n, n).
    Each is NaN in the rows that are flagged, where the value is not
    finite, or where the output itself is not (a non-finite Hessian
    leaves the gradient alone).  The gradient is written into ``out``, a
    zeroed (B, n) array such as a row block of a Jacobian stack, when
    one is given."""
    X = _as_batch(x)
    B, n = X.shape
    ones = np.ones((B, 1))  # shared: no rule writes into a jet's arrays
    zeros = np.zeros((B, 1, 1)) if order == 2 else None
    seeds = [Jet(X[:, i], ones, zeros, vars=(i,)) for i in range(n)]
    flags = []
    with np.errstate(all="ignore"):
        top = _eval(expr, seeds, flags)
    if not isinstance(top, Jet):  # constant expression
        top = Jet(np.broadcast_to(np.asarray(top, float), (B,)),
                  np.zeros((B, n)), np.zeros((B, n, n)) if order == 2
                  else None, vars=tuple(range(n)))
    flags, every = _undefined(flags, top.val), tuple(range(n))
    value = _settle(flags, np.array(top.val))
    grad = _settle(flags, _place(top.grad, top.vars, every, out), top.grad)
    if order == 1:
        return value, grad
    hess = _settle(flags, _place(top.hess, top.vars, every), top.hess)
    return value, grad, 0.5 * (hess + hess.transpose(0, 2, 1))


def gradient(expr: Expr, x, out=None):
    """(value, gradient) on a (B, n) stack from one first-order walk:
    (B,) and (B, n), NaN in the rows outside the domain; the gradient is
    written into ``out``, a zeroed (B, n) array, when one is given."""
    return _jet(expr, x, 1, out)


def hessian(expr: Expr, x):
    """(value, gradient, Hessian) on a (B, n) stack from one second-order
    walk: the value and gradient bit for bit those of ``gradient``, and a
    symmetric (B, n, n) Hessian, NaN in the rows outside the domain."""
    return _jet(expr, x, 2)


# ---------------------------------------------------------------------------
# Symbolic differentiation (used to emit gradient-like fields)


def _const(v: float) -> Expr:
    return Neg(Const(-float(v))) if v < 0 else Const(float(v))


def _is_const(e: Expr, v: float) -> bool:
    return isinstance(e, Const) and e.value == v


def _is_neg_one(e: Expr) -> bool:
    return _is_const(e, -1.0) or (isinstance(e, Neg) and _is_const(e.arg, 1.0))


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(b, Neg):
        return Sub(a, b.arg)
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Sub(a, b)


def _neg(a: Expr) -> Expr:
    if _is_const(a, 0.0):
        return a
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_neg_one(a):
        return _neg(b)
    if _is_neg_one(b):
        return _neg(a)
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return a
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def _pow(a: Expr, k: int) -> Expr:
    if k == 0:
        return Const(1.0)
    if k == 1:
        return a
    return Pow(a, k)


def linear_combination(coeffs, exprs) -> Expr:
    """Sum of coeff * expr over the pair lists, folding 0/±1 coefficients."""
    acc: Expr = Const(0.0)
    for c, e in zip(coeffs, exprs, strict=True):
        acc = _add(acc, _mul(_const(float(c)), e))
    return acc


def differentiate(expr: Expr, var_index: int) -> Expr:
    """Symbolic partial derivative with respect to x{var_index}."""
    if var_index < 1:
        raise ValueError("variable indices are 1-based")
    stack = []  # the derivative of each operand not yet consumed
    for e in expr.postorder:
        t = type(e)
        if t is Const:
            d = Const(0.0)
        elif t is Var:
            d = Const(1.0 if e.index == var_index else 0.0)
        elif t is Neg:
            d = _neg(stack.pop())
        elif t is Pow:
            db = stack.pop()
            d = Const(0.0) if e.exponent == 0 else _mul(
                _mul(_const(e.exponent), _pow(e.base, e.exponent - 1)), db)
        elif t is Call:
            u, du = e.arg, stack.pop()
            if e.func == "sin":
                d = _mul(Call("cos", u), du)
            elif e.func == "cos":
                d = _neg(_mul(Call("sin", u), du))
            elif e.func == "exp":
                d = _mul(Call("exp", u), du)
            elif e.func == "log":
                d = _div(du, u)
            else:  # pragma: no cover
                raise TypeError(f"unknown function {e.func!r}")
        else:
            dr, dl = stack.pop(), stack.pop()
            if t is Add:
                d = _add(dl, dr)
            elif t is Sub:
                d = _sub(dl, dr)
            elif t is Mul:
                d = _add(_mul(dl, e.rhs), _mul(e.lhs, dr))
            else:  # Div
                d = _div(_sub(_mul(dl, e.rhs), _mul(e.lhs, dr)),
                         _pow(e.rhs, 2))
        stack.append(d)
    return stack[0]
