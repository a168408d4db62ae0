"""Scalar and vector fields over R^n with gradient-like operators.

The left gradient of f with respect to a structure b satisfies
b(grad_L f, v) = df . v and equals Bstar grad f; the right gradient
satisfies b(v, grad_R f) = df . v and equals B grad f.  For symmetric
b the two coincide; for skew-symmetric (symplectic) b the left
gradient is the Hamiltonian field of f and equals minus the right one.
Each derivative method returns every lower order from one run of the
field's tape (``dsl.Tape``), compiled once per field: a vector field's
components are one tape, in which their equal subtrees are one node.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import dsl
from .errors import DimensionMismatch, NotSymplectic
from .geometry import FormKind, GeometricPair


@dataclass(frozen=True)
class ScalarField:
    """A C^2 scalar field given by an expression over x1..xdim; on a
    (B, dim) stack, value gives (B,), gradient (value, (B, dim)) and
    hessian (value, gradient, (B, dim, dim))."""

    dim: int
    expr: dsl.Expr

    def __post_init__(self):
        if dsl.max_var_index(self.expr) > self.dim:
            raise DimensionMismatch(
                f"expression uses variables beyond x{self.dim}")

    @classmethod
    def parse(cls, text: str, dim: int) -> "ScalarField":
        return cls(dim=dim, expr=dsl.parse_expression(text, dim))

    def value(self, x):
        return dsl.evaluate(self.expr.tape, _check_point(x, self.dim))

    def gradient(self, x):
        return dsl.gradient(self.expr.tape, _check_point(x, self.dim))

    def hessian(self, x):
        return dsl.hessian(self.expr.tape, _check_point(x, self.dim))

    def gradient_field(self) -> "VectorField":
        """Symbolic gradient as a vector field."""
        comps = tuple(dsl.differentiate(self.expr, i + 1)
                      for i in range(self.dim))
        return VectorField(dim=self.dim, components=comps)


@dataclass(frozen=True)
class VectorField:
    """A C^1 vector field with one expression per component."""

    dim: int
    components: tuple[dsl.Expr, ...]

    def __post_init__(self):
        if len(self.components) != self.dim:
            raise DimensionMismatch(
                f"expected {self.dim} components, got {len(self.components)}")
        for c in self.components:
            if dsl.max_var_index(c) > self.dim:
                raise DimensionMismatch(
                    f"component '{c}' uses variables beyond x{self.dim}")

    @classmethod
    def parse(cls, texts, dim: int) -> "VectorField":
        comps = tuple(dsl.parse_expression(t, dim) for t in texts)
        return cls(dim=dim, components=comps)

    @functools.cached_property
    def tape(self) -> dsl.Tape:
        """The components compiled once, as one tape."""
        return dsl.Tape(self.components)

    def value(self, x):
        """(B, n) -> (B, n), from one run of the tape."""
        return dsl.evaluate(self.tape, _check_point(x, self.dim))

    def jacobian(self, x):
        """(values, DF) with DF[b, i, j] = dF_i/dx_j at row b: (B, n) ->
        (B, n) and (B, n, n), from one first-order run of the tape."""
        return dsl.gradient(self.tape, _check_point(x, self.dim))


def _check_point(x, dim: int):
    """x as a float (B, dim) stack of points, the one shape check of
    every field evaluation: any other shape raises DimensionMismatch."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != dim:
        raise DimensionMismatch(
            f"points must have shape (B, {dim}), got {x.shape}")
    return x


def matrix_apply(M, F: VectorField) -> VectorField:
    """Vector field with components (M F)_i, emitted symbolically."""
    M = np.asarray(M, dtype=float)
    n = F.dim
    if M.shape != (n, n):
        raise DimensionMismatch(f"matrix must be {n}x{n}, got {M.shape}")
    comps = tuple(dsl.linear_combination(M[i], F.components) for i in range(n))
    return VectorField(dim=n, components=comps)


def gradient_like_field(pair: GeometricPair, f: ScalarField,
                        side: str = "left") -> VectorField:
    """Symbolic Bstar grad f (left) or B grad f (right)."""
    if f.dim != pair.dim:
        raise DimensionMismatch("field and pair dimensions differ")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    M = pair.Bstar if side == "left" else pair.B
    return matrix_apply(M, f.gradient_field())


def left_gradient(pair: GeometricPair, f: ScalarField, x):
    """Bstar grad f at each row of the (B, n) stack x."""
    _check_dims(pair, f)
    return f.gradient(x)[1] @ pair.Bstar.T


def right_gradient(pair: GeometricPair, f: ScalarField, x):
    """B grad f at each row of the (B, n) stack x."""
    _check_dims(pair, f)
    return f.gradient(x)[1] @ pair.B.T


def hamiltonian_field(pair: GeometricPair, f: ScalarField, x):
    """Left gradient for a symplectic structure at each row of the
    (B, n) stack x; checked against minus the right gradient."""
    if pair.form.kind is not FormKind.SKEW_SYMMETRIC or pair.dim % 2:
        raise NotSymplectic(
            "Hamiltonian fields require a skew-symmetric form of even dimension")
    left = left_gradient(pair, f, x)
    right = right_gradient(pair, f, x)
    scale = 1.0 + float(np.abs(left).max(initial=0.0))
    dev = float(np.abs(left + right).max(initial=0.0))
    if dev > 1e-9 * scale:  # pragma: no cover - companion maps make this exact
        raise NotSymplectic(
            f"left and minus-right gradients disagree by {dev:.3e}")
    return left


def _check_dims(pair: GeometricPair, f: ScalarField):
    if f.dim != pair.dim:
        raise DimensionMismatch(
            f"field dimension {f.dim} != structure dimension {pair.dim}")
