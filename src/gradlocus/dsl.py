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
tighter (``-x1^2`` means ``-(x1^2)``).  Each walk of a tree (printing,
``repr``, equality, hashing, ``max_var_index``, ``differentiate`` and
compiling) is one loop over ``Expr.postorder``, so a tree of any depth
walks; only the parser recurses, once per level of parenthesis or
unary-minus nesting, and a nesting deeper than the interpreter's
recursion limit fails there.  Evaluation runs a ``Tape``: an expression,
or the components of a field, compiled once into one list of nodes in
which equal subtrees are one node, with each node's variables fixed at
compile time and each result dropped after its last use.  Derivatives
are propagated in forward mode with one jet, a truncated Taylor value of
order 1 (gradients and Jacobians) or 2 (Hessians) in the variables a
node depends on, so they are exact up to rounding; ``gradient`` and
``hessian`` return every lower order from the same run.  Evaluation
takes a (B, n) stack of points, and a single point is a stack of one.
A point is outside the domain where a denominator or a base with a
negative exponent is zero, a log argument is not positive, or the
result is not finite: its row comes back all NaN.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import re

import numpy as np

from .errors import DimensionMismatch, ParseError

FUNCTIONS = ("sin", "cos", "exp", "log")


# ---------------------------------------------------------------------------
# AST


class Expr:
    """Base expression node.  Trees come from ``parse_expression`` or
    from the node constructors below, such as ``Add(Var(1), Const(2.0))``.
    Equality, hashing, printing and ``repr`` are loops over the
    postorder, so a tree of any depth compares, hashes and prints; two
    trees are equal when their nodes are, constants by ``==``."""

    def __str__(self):
        return _fmt(self)

    def __repr__(self):
        return _repr(self)

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        a, b = self.postorder, other.postorder
        return len(a) == len(b) and all(
            type(x) is type(y) and _leaf(x) == _leaf(y)
            for x, y in zip(a, b))

    def __hash__(self):
        return hash(tuple((type(e), _leaf(e)) for e in self.postorder))

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

    @functools.cached_property
    def tape(self) -> "Tape":  # compiled once, for direct dsl calls
        return Tape(self)


_node = dataclasses.dataclass(frozen=True, eq=False, repr=False)


@_node
class Const(Expr):
    value: float


@_node
class Var(Expr):
    index: int  # 1-based, prints as x{index}


@_node
class Neg(Expr):
    arg: Expr


@_node
class _Binary(Expr):
    lhs: Expr
    rhs: Expr


class Add(_Binary): ...  # the binary nodes differ only in type
class Sub(_Binary): ...
class Mul(_Binary): ...
class Div(_Binary): ...


@_node
class Pow(Expr):
    base: Expr
    exponent: int


@_node
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


_LEAF = {Const: "value", Var: "index", Pow: "exponent", Call: "func"}


def _leaf(e: Expr) -> tuple:
    """The fields of a node that are not operands."""
    name = _LEAF.get(type(e))
    return () if name is None else (getattr(e, name),)


def _repr(expr: Expr) -> str:
    """The constructor text of the tree, ``Add(lhs=Var(index=1), ...)``."""
    stack = []  # the text of each operand not yet consumed
    for e in expr.postorder:
        k = len(_operands(e))
        ops = iter(stack[len(stack) - k:])
        del stack[len(stack) - k:]
        stack.append(f"{type(e).__name__}(" + ", ".join(
            f"{f.name}={next(ops) if isinstance(v, Expr) else repr(v)}"
            for f in dataclasses.fields(e)
            for v in (getattr(e, f.name),)) + ")")
    return stack[0]


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
# Jet rules.  At order 1 or 2 a node that depends on variables is a jet,
# a triple (value (B,), gradient (B, k), Hessian (B, k, k) or None at
# order 1) over the k variables of the node; a node that depends on none
# is a plain value, as every node is at order 0.  Each rule computes as a
# dense jet would on operands widened with zeros to the same variables,
# so each column it keeps is the dense one (Griewank & Walther, 2008,
# ch. 7), and builds the Hessian from symmetric outer-product pairs.


def _outer(g1, g2):
    return g1[:, :, None] * g2[:, None, :]


def _widen(at, k, x):
    """The jet x over k variables, a superset of its own, with zero
    derivatives in the ones it lacks; ``at`` indexes its blocks."""
    v, g, h = x
    grad = np.zeros((len(g), k))
    grad[at[0]] = g
    if h is None:
        return v, grad, None
    hess = np.zeros((len(h), k, k))
    hess[at[1]] = h
    return v, grad, hess


def _termwise(op):  # op, + or -, on two jets over the same variables
    return lambda x, y: (op(x[0], y[0]), op(x[1], y[1]),
                         None if x[2] is None else op(x[2], y[2]))


def _shift(op):  # op, + or -, on a jet and a plain value
    return lambda x, c: (op(x[0], c), x[1], x[2])


def _scale(op):  # op, * or /, on a jet and a plain value
    return lambda x, c: (op(x[0], c), op(x[1], c),
                         None if x[2] is None else op(x[2], c))


def _mul_jj(x, y):
    (v1, g1, h1), (v2, g2, h2) = x, y
    grad = v1[:, None] * g2 + v2[:, None] * g1
    if h1 is None:
        return v1 * v2, grad, None
    return v1 * v2, grad, (v1[:, None, None] * h2 + v2[:, None, None] * h1
                           + _outer(g1, g2) + _outer(g2, g1))


def _div_jj(x, y):
    (v1, g1, h1), (w, g2, h2) = x, y
    v = v1 / w
    g = (g1 - v[:, None] * g2) / w[:, None]
    if h1 is None:
        return v, g, None
    return v, g, ((h1 - v[:, None, None] * h2 - _outer(g, g2) - _outer(g2, g))
                  / w[:, None, None])


def _div_cj(c, y):
    w, g1, h1 = y
    v = c / w
    g = -(v / w)[:, None] * g1
    if h1 is None:
        return v, g, None
    return v, g, ((-_outer(g, g1) - _outer(g1, g) - v[:, None, None] * h1)
                  / w[:, None, None])


def _neg_j(x):
    return -x[0], -x[1], None if x[2] is None else -x[2]


def _chain(x, v, d1, d2, grad=None):
    """g(x) for a scalar function g with value v and g' = d1; d2() gives
    g'' and is called only for a second-order jet."""
    _, g, h = x
    if grad is None:
        grad = d1[:, None] * g
    if h is None:
        return v, grad, None
    return v, grad, (d1[:, None, None] * h
                     + d2()[:, None, None] * _outer(g, g))


def _pow_j(k: int, x):
    v, g, h = x
    if k == 0:
        return (np.ones_like(v), np.zeros_like(g),
                None if h is None else np.zeros_like(h))
    if k == 1:
        return x
    if k == 2:  # k * v ** (k - 1) and k * (k - 1) * v ** (k - 2), exactly
        d1 = 2 * v
        return v ** 2, d1[:, None] * g, None if h is None else (
            d1[:, None, None] * h + 2.0 * _outer(g, g))
    return _chain(x, v ** k, k * v ** (k - 1),
                  lambda: k * (k - 1) * v ** (k - 2))


def _sin_j(x):
    s, c = np.sin(x[0]), np.cos(x[0])
    return _chain(x, s, c, lambda: -s)


def _cos_j(x):
    s, c = np.sin(x[0]), np.cos(x[0])
    return _chain(x, c, -s, lambda: -c)


def _exp_j(x):
    e = np.exp(x[0])
    return _chain(x, e, e, lambda: e)


def _log_j(x):
    v, g, _ = x
    inv = 1.0 / v
    return _chain(x, np.log(v), inv, lambda: -inv * inv, grad=g / v[:, None])


# per node type: the rule on plain values, then on a plain value and a
# jet, on a jet and a plain value, and on two jets (for a unary node, on
# a jet); c - y is (-y) + c, equal in IEEE arithmetic
_add_jc, _mul_jc = _shift(operator.add), _scale(operator.mul)
_RULES = {
    Add: (operator.add, lambda c, y: _add_jc(y, c), _add_jc,
          _termwise(operator.add)),
    Sub: (operator.sub, lambda c, y: _add_jc(_neg_j(y), c),
          _shift(operator.sub), _termwise(operator.sub)),
    Mul: (operator.mul, lambda c, y: _mul_jc(y, c), _mul_jc, _mul_jj),
    Div: (operator.truediv, _div_cj, _scale(operator.truediv), _div_jj),
    Neg: (operator.neg, _neg_j),
    "sin": (np.sin, _sin_j), "cos": (np.cos, _cos_j),
    "exp": (np.exp, _exp_j), "log": (np.log, _log_j),
}


# ---------------------------------------------------------------------------
# Tapes


@functools.lru_cache(maxsize=1024)
def _placement(vars, union):
    """Index tuples of a gradient and of a Hessian block over ``vars`` in
    one over the sorted superset ``union``, with slices where the block
    is contiguous (faster to assign than arrays)."""
    pos = [union.index(v) for v in vars]
    if pos[-1] - pos[0] == len(pos) - 1:
        rows = cols = slice(pos[0], pos[-1] + 1)
    else:
        cols = np.array(pos)
        rows = cols[:, None]
    return (slice(None), cols), (slice(None), rows, cols)


class Tape:
    """Roots, one expression or a tuple of components, compiled into one
    list of nodes, each after its operands, in which equal subtrees are
    one node (constants equal by their bits, so 0.0 and -0.0 stay apart).
    Each node's variables, its operands' widenings (shared nodes too) and
    the results each step uses last are fixed here; a run applies the
    rules and flags undefined rows for the roots that contain the node."""

    def __init__(self, roots):
        self.shape = () if isinstance(roots, Expr) else (len(roots),)
        roots = (roots,) if isinstance(roots, Expr) else tuple(roots)
        interned, nodes, within, self.roots = {}, [], [], []
        for r, root in enumerate(roots):
            stack = []  # the node of each operand not yet consumed
            for e in root.postorder:
                k, (arg,), t = len(_operands(e)), _leaf(e) or (None,), type(e)
                ops = tuple(stack[len(stack) - k:])
                del stack[len(stack) - k:]
                key = (t, float(arg).hex() if t is Const else arg, ops)
                i = interned.setdefault(key, len(nodes))
                if i == len(nodes):
                    nodes.append((t, arg, ops))
                    within.append(0)
                within[i] |= 1 << r  # bit r: root r contains node i
                stack.append(i)
            self.roots += stack
        self.leaves, self.vars, code = [], [], ([], [])
        for i, (t, arg, ops) in enumerate(nodes):
            if not ops:  # (node, 0-based variable or None, constant)
                self.leaves.append((i, arg - 1 if t is Var else None, arg))
                self.vars.append((arg - 1,) if t is Var else ())
                continue
            vs = [self.vars[o] for o in ops]
            union = tuple(sorted({*vs[0], *vs[-1]}))
            self.vars.append(union)
            mode = (2 * bool(vs[0]) + bool(vs[1]) if len(ops) == 2
                    else int(bool(vs[0])))
            rules = ((lambda x, k=arg: x ** k, functools.partial(_pow_j, arg))
                     if t is Pow else _RULES[arg if t is Call else t])
            test = None  # an undefined point where test(last operand, 0.0)
            if t is Div or (t is Pow and arg < 0) or arg == "log":
                test = (operator.le if t is Call else operator.eq,
                        [r for r in range(len(roots)) if within[i] >> r & 1])
            code[0].append((rules[0], i, ops, test))
            if mode == 3:  # widen each operand over fewer variables, once
                ops = list(ops)
                for k, v in enumerate(vs):
                    key = ("widen", ops[k], union)
                    if v != union and key not in interned:
                        interned[key] = len(interned)
                        code[1].append((functools.partial(
                            _widen, _placement(v, union), len(union)),
                            interned[key], (ops[k],), None))
                    ops[k] = interned.get(key, ops[k])
            code[1].append((rules[mode], i, tuple(ops), test))
        self.size = len(interned)
        self.nvars = max((v + 1 for _, v, _ in self.leaves if v is not None),
                         default=0)
        self.code = tuple(self._schedule(c) for c in code)

    def _schedule(self, code):
        """Steps (rule, node, operands, test of the last operand, results
        used last and dropped, never a root's)."""
        last = {o: n for n, (_, _, ops, _) in enumerate(code) for o in ops}
        gone = [[] for _ in code]
        for o, n in last.items():
            if o not in self.roots:
                gone[n].append(o)
        return [(*step, tuple(g)) for step, g in zip(code, gone)]


def _run(tape: Tape, X, order: int):
    """Every node on the (B, n) stack X in one loop, plain values at order
    0 and jets at 1 or 2, each dropped after its last use; returns the
    results (the roots' remain) and the (rows, roots) of each test that
    finds undefined points."""
    B = len(X)
    ones = np.ones((B, 1))  # shared: no rule writes into a jet's arrays
    zeros = np.zeros((B, 1, 1)) if order == 2 else None
    out = [None] * tape.size
    for i, var, value in tape.leaves:
        out[i] = (np.float64(value) if var is None else
                  (X[:, var], ones, zeros) if order else X[:, var])
    flags = []
    # the explicit tests catch undefined points whose value is finite,
    # such as exp(-1/x1^2) or (1/x1)^0 at x1 = 0
    for rule, i, ops, test, gone in tape.code[order > 0]:
        x, y = out[ops[0]], out[ops[-1]]
        if test is not None:
            if np.any(undefined := test[0](y[0] if type(y) is tuple else y,
                                           0.0)):
                flags.append((undefined, test[1]))
        out[i] = rule(x, y) if len(ops) == 2 else rule(x)
        for o in gone:
            out[o] = None
    return out, flags


def _as_batch(x):
    """x as a float (B, n) stack of points; any other shape raises
    DimensionMismatch."""
    X = np.asarray(x, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatch(
            f"expected a (B, n) stack of points, got shape {X.shape}")
    return X


def _derive(expr, x, order: int):
    """Value and derivatives up to ``order`` from one run: (B,), (B, n) and
    (B, n, n), with a root axis after B for a tape of components, each
    NaN in the rows a test flags, where the value is not finite, or where
    it is not (a non-finite Hessian leaves the gradient alone)."""
    tape = expr if isinstance(expr, Tape) else expr.tape
    X = _as_batch(x)
    B, n = X.shape
    if tape.nvars > n:
        raise DimensionMismatch(f"variable x{tape.nvars} exceeds "
                                f"dimension {n}")
    with np.errstate(all="ignore"):
        results, flags = _run(tape, X, order)
    k, every = len(tape.roots), tuple(range(n))
    tops = [results[i] for i in tape.roots]
    # a root's arrays are copied or only read, never settled in place; a
    # lone root over every variable needs no placing
    alone = (k == 1 and type(tops[0]) is tuple
             and len(tape.vars[tape.roots[0]]) == n)
    outs = [np.empty((B, k))] + [
        tops[0][d].reshape((B, 1) + (n,) * d) if alone
        else np.zeros((B, k) + (n,) * d) for d in range(1, order + 1)]
    for r, (i, top) in enumerate(zip(tape.roots, tops)):
        jet = type(top) is tuple
        outs[0][:, r] = top[0] if jet else top
        for d, at in enumerate(_placement(tape.vars[i], every)[:order]
                               if jet and not alone else (), 1):
            outs[d][(slice(None), r) + at[1:]] = top[d]
    undefined = np.zeros((B, k), bool) if flags else None
    for mask, roots in flags:
        undefined[:, roots] |= np.reshape(mask, (-1, 1))
    for d, out in enumerate(outs):
        finite, bad = np.isfinite(out), undefined
        if not finite.all():
            rows = ~finite.reshape(B, k, -1).all(axis=2)
            bad = rows if bad is None else bad | rows
        undefined = bad if d == 0 else undefined
        if d == 2:
            out = outs[2] = 0.5 * (out + out.swapaxes(-1, -2))
        elif d == 1 and alone and bad is not None:
            out = outs[1] = out.copy()
        if bad is not None:
            out[bad] = np.nan
    outs = [o.reshape((B,) + tape.shape + o.shape[2:]) for o in outs]
    return tuple(outs) if order else outs[0]


def evaluate(expr, x):
    """Value of an expression on a (B, n) stack: (B,), NaN in the rows
    outside the domain; a tape of k components gives (B, k)."""
    return _derive(expr, x, 0)


def gradient(expr, x):
    """(value, gradient) on a (B, n) stack from one first-order run:
    (B,) and (B, n), NaN in the rows outside the domain; a tape of k
    components gives (B, k) and the (B, k, n) Jacobian."""
    return _derive(expr, x, 1)


def hessian(expr, x):
    """(value, gradient, Hessian) on a (B, n) stack from one second-order
    run: the value and gradient bit for bit those of ``gradient``, and a
    symmetric (B, n, n) Hessian, NaN in the rows outside the domain."""
    return _derive(expr, x, 2)


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
