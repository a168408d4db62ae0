"""Expression DSL with exact symbolic derivatives.

Grammar (standard precedence, highest first: ``^``, unary ``-``,
``* /``, ``+ -``)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | var | func '(' expr ')' | '(' expr ')' | '-' factor
    var    := 'x' digits          (1-based: x1 .. xN)
    func   := 'sin' | 'cos' | 'exp' | 'log'

Unary minus is parsed as ``'-' factor`` so that the exponent binds
tighter (``-x1^2`` means ``-(x1^2)``).  Only the parser recurses, once
per level of parenthesis or unary-minus nesting (a nesting deeper than
the interpreter's recursion limit fails there); every other walk of a
tree is a loop.  Derivatives have one set of rules,
``_Graph.derivative``, on a graph of interned nodes in which equal
subtrees are one node and each node is differentiated at most once per
variable, so ``differentiate`` and compiling are linear in the graph.
A ``Tape`` compiles an expression, or the components of a field, with
its partial derivatives up to the order asked for into one list of
nodes; a run is one loop over plain values, each dropped after its
last use (Griewank & Walther, *Evaluating Derivatives*, 2nd ed. 2008,
ch. 3).  So derivatives are exact up to rounding, and ``gradient`` and
``hessian`` return every lower order from the same run.  Evaluation
takes a (B, n) stack of points, and a single point is a stack of one.
A point is outside the domain where a denominator or a base with a
negative exponent is zero, a log argument is not positive, or the
result is not finite: its row comes back NaN.
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
        operand before a right one, built without recursion once per
        tree: the order printing, equality, hashing and repr loop over."""
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
# Tapes


# the operation of each node type on plain values
_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
        Div: operator.truediv, Neg: operator.neg, "sin": np.sin,
        "cos": np.cos, "exp": np.exp, "log": np.log}


class Program:
    """Targets, each (node, component, derivative index), and the nodes
    they need, each after its operands, renumbered as one loop:
    ``leaves`` are (node, 0-based variable or None, constant); each step
    is (operation, node, operands, test of the last operand, results
    used last and dropped, never a target's); ``places`` are (node,
    order, output index, mirrored output index or None)."""

    def __init__(self, nodes, targets):
        within = [0] * len(nodes)  # bit r: target r contains node i
        for r, (i, _, _) in enumerate(targets):
            within[i] |= 1 << r
        for i in range(len(nodes) - 1, -1, -1):
            for o in nodes[i][2]:
                within[o] |= within[i]
        live = [i for i, w in enumerate(within) if w]  # what a target needs
        slot = {i: n for n, i in enumerate(live)}
        self.size, self.leaves, steps = len(live), [], []
        for n, i in enumerate(live):
            (t, arg, ops), w = nodes[i], within[i]
            if not ops:
                self.leaves.append((n, arg - 1 if t is Var else None, arg))
                continue
            test = None  # an undefined point where test(last operand, 0.0)
            if t is Div or (t is Pow and arg < 0) or arg == "log":
                where = {}  # order: the components whose targets hold node i
                for r, (_, c, at) in enumerate(targets):
                    if w >> r & 1:
                        where.setdefault(len(at), set()).add(c)
                test = (operator.le if t is Call else operator.eq,
                        [(d, sorted(c)) for d, c in where.items()])
            steps.append(((lambda x, k=arg: x ** k) if t is Pow
                          else _OPS[arg if t is Call else t], n,
                          tuple([slot[o] for o in ops]), test))
        last = {o: s for s, (_, _, ops, _) in enumerate(steps) for o in ops}
        gone, kept = [[] for _ in steps], {slot[i] for i, _, _ in targets}
        for o, s in last.items():
            if o not in kept:
                gone[s].append(o)
        self.steps = [(*step, tuple(g)) for step, g in zip(steps, gone)]
        self.places = [
            (slot[i], len(at), (slice(None), c, *at),
             (slice(None), c, at[1], at[0]) if len(at) == 2 and at[0] != at[1]
             else None) for i, c, at in targets]


class Tape:
    """Roots, one expression or a tuple of components, in one graph, and
    the programs that evaluate them with their derivatives.
    ``program(order)`` compiles, the first time that order is asked for,
    the roots (order 0), each root's partial derivative in each variable
    it contains (order 1) and the partials d/dx_j of each first one for
    j >= i (order 2); a derivative that folds to 0 is no target."""

    def __init__(self, roots):
        self.shape = () if isinstance(roots, Expr) else (len(roots),)
        self.roots = (roots,) if isinstance(roots, Expr) else tuple(roots)
        self._graph = g = _Graph()
        # per order, the targets: (node, component, derivative index)
        self._levels = [[(g.intern(e), c, ())
                         for c, e in enumerate(self.roots)]]
        self.nvars = max(g.masks).bit_length()  # the largest variable
        self._partials = [{} for _ in range(self.nvars)]  # per variable
        self._programs = {}

    def program(self, order: int) -> Program:
        g = self._graph
        while len(self._levels) <= order:
            self._levels.append([
                (d, c, at + (v,)) for i, c, at in self._levels[-1]
                for v in range(at[-1] if at else 0, self.nvars)
                if g.masks[i] >> v & 1
                for d in (g.derivative(i, v + 1, self._partials[v]),)
                if not g.is_const(d, 0.0)])
        if order not in self._programs:
            self._programs[order] = Program(g.nodes, [
                t for level in self._levels[:order + 1] for t in level])
        return self._programs[order]


def _run(program: Program, X):
    """Every node of the program on the (B, n) stack X in one loop, each
    result dropped after its last use; returns the results (the
    targets' remain) and the (rows, where) of each test that finds
    undefined points."""
    out = [None] * program.size
    for i, var, value in program.leaves:
        out[i] = np.float64(value) if var is None else X[:, var]
    flags = []
    # the explicit tests catch undefined points whose value is finite,
    # such as exp(-1/x1^2) or (1/x1)^0 at x1 = 0
    for op, i, ops, test, gone in program.steps:
        y = out[ops[-1]]
        if test is not None and np.any(undefined := test[0](y, 0.0)):
            flags.append((undefined, test[1]))
        out[i] = op(out[ops[0]], y) if len(ops) == 2 else op(y)
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
    (B, n, n), with a root axis after B for a tape of components.  A
    component's value is NaN in the rows a test of its root flags or
    where it is not finite, and then so is each of its derivatives; a
    derivative is NaN also where a test of its own targets flags or one
    of its entries is not finite (a non-finite Hessian leaves the
    gradient alone)."""
    tape = expr if isinstance(expr, Tape) else expr.tape
    X = _as_batch(x)
    B, n = X.shape
    if tape.nvars > n:
        raise DimensionMismatch(f"variable x{tape.nvars} exceeds "
                                f"dimension {n}")
    program, k = tape.program(order), len(tape.roots)
    outs = [np.empty((B, k))] + [np.zeros((B, k) + (n,) * d)
                                 for d in range(1, order + 1)]
    with np.errstate(all="ignore"):
        results, flags = _run(program, X)
    for i, d, at, mirror in program.places:
        outs[d][at] = results[i]
        if mirror is not None:
            outs[d][mirror] = results[i]
    del results
    bad = [None] * (order + 1)
    for mask, where in flags:
        for d, comps in where:
            if bad[d] is None:
                bad[d] = np.zeros((B, k), bool)
            bad[d][:, comps] |= np.reshape(mask, (-1, 1))
    for d, out in enumerate(outs):
        if not np.isfinite(out).all():
            rows = ~np.isfinite(out).reshape(B, k, -1).all(axis=2)
            bad[d] = rows if bad[d] is None else bad[d] | rows
        if d and bad[0] is not None:
            bad[d] = bad[0] if bad[d] is None else bad[d] | bad[0]
        if bad[d] is not None:
            out[bad[d]] = np.nan
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
# Symbolic differentiation on interned nodes: the derivative rules of
# tapes and of gradient-like fields


class _Graph:
    """Expressions as one list of nodes (type, leaf field or None, operand
    nodes), each after its operands and with its variables as a bit mask
    (bit i: x{i+1}); equal subtrees are one node, constants equal by their
    bits.  The constructors fold 0 and +-1; ``derivative`` has the rules."""

    def __init__(self):
        self.nodes, self.masks, self._keys = [], [], {}
        self.zero, self.one = self.node(Const, 0.0), self.node(Const, 1.0)

    def node(self, t, arg=None, ops=()) -> int:
        key = (t, float(arg).hex() if t is Const else arg, ops)
        i = self._keys.setdefault(key, len(self.nodes))
        if i == len(self.nodes):
            self.nodes.append((t, arg, ops))
            self.masks.append(1 << arg - 1 if t is Var else functools.reduce(
                operator.or_, [self.masks[o] for o in ops], 0))
        return i

    def intern(self, root: Expr) -> int:
        """The node of the tree ``root``, each of its subtrees, by
        identity, interned once."""
        ids, todo = {}, [root]
        while todo:
            e = todo.pop()
            if id(e) in ids:
                continue
            missing = [o for o in _operands(e) if id(o) not in ids]
            if missing:
                todo += (e, *reversed(missing))
                continue
            ids[id(e)] = self.node(type(e), *_leaf(e) or (None,), tuple(
                [ids[id(o)] for o in _operands(e)]))
        return ids[id(root)]

    def expr(self, root: int) -> Expr:
        """The tree of node ``root``; a shared node is one object."""
        made = []
        for t, arg, ops in self.nodes[:root + 1]:
            a = [made[o] for o in ops]
            made.append(t(*a) if arg is None else t(arg) if not a
                        else t(a[0], arg) if t is Pow else t(arg, a[0]))
        return made[root]

    def const(self, v: float) -> int:
        return (self.node(Neg, None, (self.node(Const, -float(v)),)) if v < 0
                else self.node(Const, float(v)))

    def is_const(self, i: int, v: float) -> bool:
        t, arg, _ = self.nodes[i]
        return t is Const and arg == v

    def add(self, a: int, b: int) -> int:
        t, _, ops = self.nodes[b]
        return (b if self.is_const(a, 0.0) else a if self.is_const(b, 0.0)
                else self.node(Sub, None, (a, ops[0])) if t is Neg
                else self.node(Add, None, (a, b)))

    def sub(self, a: int, b: int) -> int:
        return (a if self.is_const(b, 0.0) else self.neg(b)
                if self.is_const(a, 0.0) else self.node(Sub, None, (a, b)))

    def neg(self, a: int) -> int:
        t, _, ops = self.nodes[a]
        return (a if self.is_const(a, 0.0) else ops[0] if t is Neg
                else self.node(Neg, None, (a,)))

    def mul(self, a: int, b: int) -> int:
        if self.is_const(a, 0.0) or self.is_const(b, 0.0):
            return self.zero
        for x, y in ((a, b), (b, a)):
            if self.is_const(x, 1.0):
                return y
        for x, y in ((a, b), (b, a)):  # x is -1 or -(1)
            t, _, ops = self.nodes[x]
            if (self.is_const(x, -1.0)
                    or t is Neg and self.is_const(ops[0], 1.0)):
                return self.neg(y)
        return self.node(Mul, None, (a, b))

    def div(self, a: int, b: int) -> int:
        return (a if self.is_const(a, 0.0) or self.is_const(b, 1.0)
                else self.node(Div, None, (a, b)))

    def derivative(self, root: int, var: int, memo: dict) -> int:
        """The node of d(root)/dx{var}, each node differentiated once; ``memo``
        (node -> derivative in this variable) carries over calls."""
        todo = [root]
        while todo:
            i = todo.pop()
            if i in memo:
                continue
            t, arg, ops = self.nodes[i]
            if not self.masks[i] >> (var - 1) & 1:  # folds to 0 by the rules
                memo[i] = self.zero
                continue
            missing = [o for o in ops if o not in memo]
            if missing:
                todo += (i, *missing)
                continue
            ds = [memo[o] for o in ops]
            if t is Var:
                d = self.one
            elif t is Neg:
                d = self.neg(ds[0])
            elif t is Pow and arg == 0:
                d = self.zero
            elif t is Pow:  # k x^(k-1) dx, with x^0 = 1 and x^1 = x
                p = (self.one if arg == 1 else ops[0] if arg == 2
                     else self.node(Pow, arg - 1, ops))
                d = self.mul(self.mul(self.const(arg), p), ds[0])
            elif t is Call:
                u, du = ops[0], ds[0]
                if arg == "sin":
                    d = self.mul(self.node(Call, "cos", (u,)), du)
                elif arg == "cos":
                    d = self.neg(self.mul(self.node(Call, "sin", (u,)), du))
                elif arg == "exp":
                    d = self.mul(i, du)
                elif arg == "log":
                    d = self.div(du, u)
                else:  # pragma: no cover
                    raise TypeError(f"unknown function {arg!r}")
            elif t is Add:
                d = self.add(*ds)
            elif t is Sub:
                d = self.sub(*ds)
            elif t is Mul:
                d = self.add(self.mul(ds[0], ops[1]), self.mul(ops[0], ds[1]))
            else:  # Div, in forward-mode form: (da - (a/b) db) / b
                d = self.div(self.sub(ds[0], self.mul(i, ds[1])), ops[1])
            memo[i] = d
        return memo[root]


def linear_combination(coeffs, exprs) -> Expr:
    """Sum of coeff * expr over the pair lists, folding 0/+-1 coefficients."""
    g = _Graph()
    acc = g.zero
    for c, e in zip(coeffs, exprs, strict=True):
        acc = g.add(acc, g.mul(g.const(float(c)), g.intern(e)))
    return g.expr(acc)


def differentiate(expr: Expr, var_index: int) -> Expr:
    """Symbolic partial derivative with respect to x{var_index}."""
    if var_index < 1:
        raise ValueError("variable indices are 1-based")
    g = _Graph()
    return g.expr(g.derivative(g.intern(expr), var_index, {}))
