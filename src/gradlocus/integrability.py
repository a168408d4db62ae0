"""Pointwise integrability residuals and the wedge-power obstruction.

For a structure with Gram matrix Q and companion B = Q^{-1}, the
inverse matrices entering the conditions are available exactly:
(Bstar)^{-1} = Q^T and B^{-1} = Q, so no numerical inversion is
performed here.  A field is an exact left gradient on a contractible
domain iff Q^T DF(x) is symmetric everywhere; the module measures the
Frobenius norm of the antisymmetric defect, and the top wedge power of
the antisymmetry operator applied to the same matrix as the
non-integrability obstruction.

"Nonzero" is decided with the scale-aware threshold
|value| > tol * (m! ||C DF||_F^m + floor); points within a factor 10
of the threshold fall in a gray zone where no verdict is issued.
Verdicts are pointwise only: no attempt is made to verify that the
sampled domain is contractible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotSymplectic, OddDimension
from .exterior import gamma_power
from .fields import VectorField
from .geometry import FormKind, GeometricPair

TOL_GAMMA = 1e-8
GAMMA_FLOOR = 1e-300
GRAY_FACTOR = 10.0

SIDES = ("left", "right", "symmetric", "symplectic")


def _jacobians(pair: GeometricPair, F: VectorField, x):
    if F.dim != pair.dim:
        raise DimensionMismatch(
            f"field dimension {F.dim} != structure dimension {pair.dim}")
    DF = F.jacobian(x)  # lifted after evaluating, so a single point can raise
    single = np.ndim(x) == 1
    return (DF[None] if single else DF), single


def _fro(mats):
    return np.sqrt(np.sum(mats * mats, axis=(1, 2)))


def _defect(N):
    """N - N^T for each matrix of a (B, n, n) stack."""
    return N - np.swapaxes(N, 1, 2)


def _side_product(pair: GeometricPair, F: VectorField, x, side: str):
    """(N, single): N = C DF(x) for the side's exact inverse C, after
    checking that the form has the kind the side's condition needs."""
    C = obstruction_matrix(pair, side)
    if side == "symmetric" and pair.form.kind is not FormKind.SYMMETRIC:
        raise ValueError("symmetric residual requires a symmetric form")
    if side == "symplectic" and (pair.form.kind is not FormKind.SKEW_SYMMETRIC
                                 or pair.dim % 2):
        raise NotSymplectic(
            "symplectic residual requires a skew form of even dimension")
    DF, single = _jacobians(pair, F, x)
    return C @ DF, single


def residual(pair: GeometricPair, F: VectorField, x, side: str):
    """||N - N^T||_F with N = C DF(x), the side's integrability defect.

    Every condition is this norm: C = Q^T for left and C = Q for right,
    symmetric (symmetric forms only) and symplectic (skew forms of even
    dimension only, where it equals ||(DF)^T B^{-1} + B^{-1} DF||_F).
    """
    N, single = _side_product(pair, F, x, side)
    out = _fro(_defect(N))
    return float(out[0]) if single else out


def left_residual(pair: GeometricPair, F: VectorField, x):
    """|| (DF)^T B^{-1} - (Bstar)^{-1} DF ||_F, i.e. the antisymmetric
    defect of Q^T DF."""
    return residual(pair, F, x, "left")


def right_residual(pair: GeometricPair, F: VectorField, x):
    """|| (DF)^T (Bstar)^{-1} - B^{-1} DF ||_F, i.e. the antisymmetric
    defect of Q DF."""
    return residual(pair, F, x, "right")


def symmetric_residual(pair: GeometricPair, F: VectorField, x):
    """Gradient condition for symmetric structures."""
    return residual(pair, F, x, "symmetric")


def symplectic_residual(pair: GeometricPair, F: VectorField, x):
    """Hamiltonian condition (DF)^T B^{-1} + B^{-1} DF = 0."""
    return residual(pair, F, x, "symplectic")


def obstruction_matrix(pair: GeometricPair, side: str) -> np.ndarray:
    """The exact inverse C with which DF is premultiplied."""
    Q = pair.form.Q
    if side == "left":
        return Q.T
    if side in ("right", "symmetric", "symplectic"):
        return np.array(Q)
    raise ValueError(f"side must be one of {SIDES}, got {side!r}")


def gamma_obstruction(pair: GeometricPair, F: VectorField, x,
                      side: str = "left"):
    """(value, scale): top wedge-power coefficient of C DF(x) and its
    degree-m normalizer m! ||C DF||_F^m + floor."""
    n = pair.dim
    if n % 2:
        raise OddDimension(f"obstruction needs even dimension, got {n}")
    m = n // 2
    C = obstruction_matrix(pair, side)
    DF, single = _jacobians(pair, F, x)
    M = C @ DF
    norms = _fro(M)
    values = gamma_power(M, m)
    scales = math.factorial(m) * norms ** m + GAMMA_FLOOR
    if single:
        return float(values[0]), float(scales[0])
    return values, scales


@dataclass(frozen=True)
class IntegrabilityReport:
    """Pointwise verdict; both flags stay False in the gray zone.

    ``residual`` is the Frobenius defect of the side's condition,
    ``gamma_value``/``gamma_scale`` the obstruction and its normalizer,
    and ``tol`` the threshold the verdicts were derived with (the
    thresholding scheme is an artifact decision, hence recorded).
    """

    point: tuple[float, ...]
    side: str
    residual: float
    gamma_value: float
    gamma_scale: float
    verdict_integrable: bool
    verdict_nonintegrable: bool
    tol: float


def point_report(pair: GeometricPair, F: VectorField, x, side: str = "left",
                 tol: float = TOL_GAMMA) -> IntegrabilityReport:
    """Evaluate one condition and the obstruction at a single point."""
    x = np.asarray(x, dtype=float)
    N, _ = _side_product(pair, F, x, side)
    res = float(_fro(_defect(N))[0])
    value, scale = gamma_obstruction(pair, F, x, side)
    n_scale = 1.0 + float(_fro(N)[0])
    res_rel = res / n_scale
    gamma_rel = abs(value) / scale
    return IntegrabilityReport(
        point=tuple(float(v) for v in x),
        side=side,
        residual=res,
        gamma_value=value,
        gamma_scale=scale,
        verdict_integrable=(res_rel <= tol and gamma_rel <= tol),
        verdict_nonintegrable=(gamma_rel > GRAY_FACTOR * tol),
        tol=tol,
    )


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of the residual/obstruction equivalence probe."""

    points: int
    checks: int
    violations: int
    gray_excluded: int
    tol: float
    violation_details: tuple[tuple[int, str, float, float], ...] = ()


def equivalence_probe(pair: GeometricPair, F: VectorField, sample_points,
                      tol: float = TOL_GAMMA) -> ProbeReport:
    """Check (residual ~ 0) <=> (all antisymmetry coefficients ~ 0) at
    each point, for both the left and right conditions.

    Points within a factor GRAY_FACTOR of the threshold on either
    measure are excluded from the violation count and reported.
    """
    X = np.asarray(sample_points, dtype=float)
    DF = F.jacobian(X)
    if X.ndim == 1:
        X, DF = X[None, :], DF[None]
    lo, hi = tol / GRAY_FACTOR, tol * GRAY_FACTOR
    violations = []
    gray = 0
    for side in ("left", "right"):
        N = obstruction_matrix(pair, side) @ DF
        D = _defect(N)
        scale = 1.0 + _fro(N)
        res_rel = _fro(D) / scale
        coeff_rel = np.abs(D).max(axis=(1, 2)) / scale
        in_gray = (((lo <= res_rel) & (res_rel <= hi))
                   | ((lo <= coeff_rel) & (coeff_rel <= hi)))
        bad = ~in_gray & ((res_rel <= tol) != (coeff_rel <= tol))
        gray += int(np.count_nonzero(in_gray))
        violations += [(int(i), side, float(res_rel[i]), float(coeff_rel[i]))
                       for i in np.flatnonzero(bad)]
    return ProbeReport(
        points=X.shape[0],
        checks=2 * X.shape[0],
        violations=len(violations),
        gray_excluded=gray,
        tol=tol,
        violation_details=tuple(violations),
    )
