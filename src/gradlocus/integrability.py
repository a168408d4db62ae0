"""Pointwise integrability residuals and the wedge-power obstruction.

For a structure with Gram matrix Q and companion B = Q^{-1}, the
inverse matrices entering the conditions are available exactly:
(Bstar)^{-1} = Q^T and B^{-1} = Q, so no numerical inversion is
performed here.  A field is an exact left gradient on a contractible
domain iff Q^T DF(x) is symmetric everywhere; the module measures the
Frobenius norm of the antisymmetric defect, and the top wedge power of
the antisymmetry operator applied to the same matrix as the
non-integrability obstruction.  Both depend on DF(x) alone, so the
functions take a (B, n, n) stack of Jacobians, one per point, and never
evaluate a field; the named residuals evaluate ``F.jacobian`` on a
(B, n) stack of points.

The sides that apply to a form are ``conditions(pair)``.  Numbers of
N = C DF are computed once per distinct C, not per side: symmetric and
symplectic equal right (C = Q), and left shares C when Q^T = Q.

Each verdict has one rule, shared by ``check`` and certification:
with scale = m! ||C DF||_F^m + floor, ``integrable`` needs the relative
residual and |value| / scale at most tol, ``decisive`` needs
|value| / scale above GRAY_FACTOR * tol, and in between is a gray zone
with no verdict.  Verdicts are pointwise only:
no attempt is made to verify that the sampled domain is contractible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotSymplectic, OddDimension
from .exterior import antisymmetric_part, gamma_power
from .fields import VectorField
from .geometry import FormKind, GeometricPair

TOL_GAMMA = 1e-8
GAMMA_FLOOR = 1e-300
GRAY_FACTOR = 10.0

SIDES = ("left", "right", "symmetric", "symplectic")


def _stack(pair: GeometricPair, DF):
    """DF as a float (B, n, n) stack of Jacobians; any other shape
    raises DimensionMismatch."""
    DF = np.asarray(DF, dtype=float)
    if DF.ndim != 3 or DF.shape[1:] != (pair.dim, pair.dim):
        raise DimensionMismatch(f"Jacobians of shape {DF.shape} for a "
                                f"structure of dimension {pair.dim}")
    return DF


def _fro(mats):
    return np.sqrt(np.sum(mats * mats, axis=(1, 2)))


def conditions(pair: GeometricPair) -> tuple[str, ...]:
    """The sides whose condition applies to the pair's form."""
    kind = pair.form.kind
    if kind is FormKind.SYMMETRIC:
        return ("left", "right", "symmetric")
    if kind is FormKind.SKEW_SYMMETRIC and pair.dim % 2 == 0:
        return ("left", "right", "symplectic")
    return ("left", "right")


def residual(pair: GeometricPair, DF, side: str):
    """||N - N^T||_F with N = C DF, the side's integrability defect, at
    each Jacobian of the stack DF: (B, n, n) -> (B,).

    Every condition is this norm: C = Q^T for left and C = Q for right,
    symmetric and symplectic (then ||(DF)^T B^{-1} + B^{-1} DF||_F); a
    side outside ``conditions(pair)`` raises.
    """
    C = obstruction_matrix(pair, side)
    if side not in conditions(pair):
        if side == "symmetric":
            raise ValueError("symmetric residual requires a symmetric form")
        raise NotSymplectic(
            "symplectic residual requires a skew form of even dimension")
    return _fro(antisymmetric_part(C @ _stack(pair, DF)))


def left_residual(pair: GeometricPair, F: VectorField, x):
    """|| (DF)^T B^{-1} - (Bstar)^{-1} DF ||_F, i.e. the antisymmetric
    defect of Q^T DF."""
    return residual(pair, F.jacobian(x), "left")


def right_residual(pair: GeometricPair, F: VectorField, x):
    """|| (DF)^T (Bstar)^{-1} - B^{-1} DF ||_F, i.e. the antisymmetric
    defect of Q DF."""
    return residual(pair, F.jacobian(x), "right")


def symmetric_residual(pair: GeometricPair, F: VectorField, x):
    """Gradient condition for symmetric structures."""
    return residual(pair, F.jacobian(x), "symmetric")


def symplectic_residual(pair: GeometricPair, F: VectorField, x):
    """Hamiltonian condition (DF)^T B^{-1} + B^{-1} DF = 0."""
    return residual(pair, F.jacobian(x), "symplectic")


def obstruction_matrix(pair: GeometricPair, side: str) -> np.ndarray:
    """The exact inverse C with which DF is premultiplied."""
    Q = pair.form.Q
    if side == "left":
        return Q.T
    if side in ("right", "symmetric", "symplectic"):
        return np.array(Q)
    raise ValueError(f"side must be one of {SIDES}, got {side!r}")


def distinct_sides(pair: GeometricPair, sides) -> dict:
    """{side: the first of ``sides`` with the same obstruction matrix};
    sides that share C share every number derived from C DF."""
    first = {}
    return {side: first.setdefault(obstruction_matrix(pair, side).tobytes(),
                                   side) for side in sides}


def gamma_obstruction(pair: GeometricPair, DF, side: str = "left"):
    """(values, scales): top wedge-power coefficient of C DF and its
    degree-m normalizer m! ||C DF||_F^m + floor, as (B,) arrays for the
    stack DF (B, n, n)."""
    n = pair.dim
    if n % 2:
        raise OddDimension(f"obstruction needs even dimension, got {n}")
    m = n // 2
    M = obstruction_matrix(pair, side) @ _stack(pair, DF)
    norms = _fro(M)
    values = gamma_power(M, m)
    scales = math.factorial(m) * norms ** m + GAMMA_FLOOR
    return values, scales


def decisive(value, scale, tol: float):
    """Whether an obstruction is decisively nonzero: |value| / scale >
    GRAY_FACTOR * tol, elementwise on arrays."""
    return np.abs(value) / scale > GRAY_FACTOR * tol


def integrable(residual_rel, gamma_rel, tol: float):
    """Relative residual and |value| / scale both <= tol, elementwise."""
    return (residual_rel <= tol) & (gamma_rel <= tol)


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of the residual/obstruction equivalence probe, with the
    largest relative residual ||N - N^T||_F / (1 + ||N||_F) per side."""

    points: int
    checks: int
    violations: int
    gray_excluded: int
    tol: float
    violation_details: tuple[tuple[int, str, float, float], ...] = ()
    max_relative: tuple[tuple[str, float], ...] = ()


def equivalence_probe(pair: GeometricPair, DF,
                      tol: float = TOL_GAMMA) -> ProbeReport:
    """Check (residual ~ 0) <=> (all antisymmetry coefficients ~ 0) at
    each point, for both the left and right conditions, from the
    (B, n, n) stack DF of Jacobians at the points.

    Points within a factor GRAY_FACTOR of the threshold on either
    measure are excluded from the violation count and reported.  Both
    are counted per side, though a C shared by the sides is checked once.
    """
    DF = _stack(pair, DF)
    lo, hi = tol / GRAY_FACTOR, tol * GRAY_FACTOR
    violations, gray, max_relative, rel = [], 0, [], {}
    for side, first in distinct_sides(pair, ("left", "right")).items():
        if first == side:
            N = obstruction_matrix(pair, side) @ DF
            scale = 1.0 + _fro(N)
            D = antisymmetric_part(N)
            del N  # N, D and D * D never coexist: a third less peak memory
            # D is antisymmetric, so its largest entry is its largest |entry|
            rel[side] = _fro(D) / scale, D.max(axis=(1, 2)) / scale
        res_rel, coeff_rel = rel[first]
        in_gray = (((lo <= res_rel) & (res_rel <= hi))
                   | ((lo <= coeff_rel) & (coeff_rel <= hi)))
        bad = ~in_gray & ((res_rel <= tol) != (coeff_rel <= tol))
        gray += int(np.count_nonzero(in_gray))
        violations += [(int(i), side, float(res_rel[i]), float(coeff_rel[i]))
                       for i in np.flatnonzero(bad)]
        max_relative.append((side, float(res_rel.max(initial=0.0))))
    return ProbeReport(points=len(DF), checks=2 * len(DF),
                       violations=len(violations), gray_excluded=gray, tol=tol,
                       violation_details=tuple(violations),
                       max_relative=tuple(max_relative))
