"""Pointwise integrability residuals and the wedge-power obstruction.

For a structure with Gram matrix Q and companion B = Q^{-1}, the
inverse matrices entering the conditions are available exactly:
(Bstar)^{-1} = Q^T and B^{-1} = Q, so no numerical inversion is
performed here.  A field is an exact left gradient on a contractible
domain iff Q^T DF(x) is symmetric everywhere; the module measures the
Frobenius norm of the antisymmetric defect, and the top wedge power of
the antisymmetry operator applied to the same matrix as the
non-integrability obstruction.  Both are numbers of N = C DF(x) alone,
so ``residual`` and ``gamma_obstruction`` take a (B, n, n) stack N,
one matrix per point, and never evaluate a field: the side only picks
C, through ``obstruction_matrix``, and the caller forms N with
``premultiply``.  The named residuals and ``check``, the pass of
``gradlocus check``, evaluate ``F.jacobian`` on a (B, n) stack of points.

The sides that apply to a form are ``conditions(pair)``.  Sides that
share C share N, so a caller forms it once per distinct C
(``distinct_sides``): symmetric and symplectic equal right (C = Q), and
left shares C when Q^T = Q.

Each verdict has one rule, shared by ``check`` and certification:
with scale = m! ||N||_F^m + floor, ``integrable`` needs the relative
residual and |value| / scale at most tol, ``decisive`` needs
|value| / scale above GRAY_FACTOR * tol, and in between is a gray zone
with no verdict.  Verdicts are pointwise only:
no attempt is made to verify that the sampled domain is contractible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (DimensionMismatch, GradlocusError, NotSymplectic,
                     OddDimension)
from .exterior import _antisymmetric_rows, gamma_power
from .fields import VectorField
from .geometry import FormKind, GeometricPair

TOL_GAMMA = 1e-8
GAMMA_FLOOR = 1e-300
GRAY_FACTOR = 10.0
# chunk budgets, read at call time: check's (B, n, n) stacks (2048 at n = 8,
# in cache) and chart submatrices (1 MiB was 3-10% slower at m = 3-4)
CHECK_STACK_BYTES = 1 << 20
CHART_STACK_BYTES = 1 << 23

SIDES = ("left", "right", "symmetric", "symplectic")


def _stack(pair: GeometricPair, N):
    """N as a float (B, n, n) stack of matrices; any other shape raises
    DimensionMismatch."""
    N = np.asarray(N, dtype=float)
    if N.ndim != 3 or N.shape[1:] != (pair.dim, pair.dim):
        raise DimensionMismatch(f"matrices of shape {N.shape} for a "
                                f"structure of dimension {pair.dim}")
    return N


def chunk_rows(budget: int, row_bytes: int) -> int:
    """Rows of one chunk: as many as fit ``budget`` bytes at ``row_bytes``
    a row, and at least one."""
    return max(1, budget // row_bytes)


def conditions(pair: GeometricPair) -> tuple[str, ...]:
    """The sides whose condition applies to the pair's form."""
    kind = pair.form.kind
    if kind is FormKind.SYMMETRIC:
        return ("left", "right", "symmetric")
    if kind is FormKind.SKEW_SYMMETRIC and pair.dim % 2 == 0:
        return ("left", "right", "symplectic")
    return ("left", "right")


class Defect(NamedTuple):
    """Per-matrix reductions of a stack N = C DF, each a (B,) array."""

    norm: np.ndarray      # ||N||_F
    residual: np.ndarray  # ||N - N^T||_F, the integrability defect
    peak: np.ndarray      # max(N - N^T), the largest antisymmetry coefficient


def residual(pair: GeometricPair, N) -> Defect:
    """The defect of each matrix of the stack N = C DF (B, n, n).

    Every condition is ||N - N^T||_F = 0 for the C that
    ``obstruction_matrix`` gives its side: C = Q^T for left and C = Q
    for right, symmetric and symplectic (then ||(DF)^T B^{-1} +
    B^{-1} DF||_F).  N - N^T is read once, as its n(n-1)/2 coefficients
    S_k = N_pq - N_qp above the diagonal: the peak is max_k |S_k|, which
    is max(N - N^T), and the residual is sqrt(2 sum_k S_k^2), summed in
    key order.  A matrix whose reductions overflow gets NaN in all
    three, as a matrix outside the domain does.
    """
    N = _stack(pair, N)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.sqrt(np.sum(np.multiply(N, N), axis=(1, 2)))
        S = _antisymmetric_rows(N)[1]
        np.abs(S, out=S)
        peak = np.max(S, axis=0, initial=0.0)
        np.multiply(S, S, out=S)
        # row by row, since np.add.reduce would sum a stack of one matrix
        # pairwise, and a matrix's residual would depend on its stack
        total = np.zeros(len(N))
        for square in S:
            total += square
        res = np.sqrt(2.0 * total)
    return Defect(*_overflow_as_nan(norm, res, peak))


def _overflow_as_nan(*rows):
    """The (B,) arrays ``rows``, with NaN in every one of them at each
    index where one of them is not finite (an overflow, or a matrix
    outside the domain)."""
    bad = ~np.all(np.isfinite(rows), axis=0)
    if not bad.any():
        return rows
    return tuple(np.where(bad, np.nan, row) for row in rows)


def premultiply(C, DF):
    """The stack N = C DF of a (B, n, n) stack DF.  An entry that
    overflows is inf, with no warning, so ``residual`` and
    ``gamma_obstruction`` give its matrix NaN numbers."""
    with np.errstate(over="ignore"):
        return C @ DF


def _named_residual(pair: GeometricPair, F: VectorField, x, side: str):
    """||N - N^T||_F at each point of the (B, n) stack x, with N the
    side's C times DF(x); a side outside ``conditions(pair)`` raises."""
    C = obstruction_matrix(pair, side)
    if side not in conditions(pair):
        if side == "symmetric":
            raise ValueError("symmetric residual requires a symmetric form")
        raise NotSymplectic(
            "symplectic residual requires a skew form of even dimension")
    return residual(pair, premultiply(C, F.jacobian(x)[1])).residual


def left_residual(pair: GeometricPair, F: VectorField, x):
    """|| (DF)^T B^{-1} - (Bstar)^{-1} DF ||_F, i.e. the antisymmetric
    defect of Q^T DF."""
    return _named_residual(pair, F, x, "left")


def right_residual(pair: GeometricPair, F: VectorField, x):
    """|| (DF)^T (Bstar)^{-1} - B^{-1} DF ||_F, i.e. the antisymmetric
    defect of Q DF."""
    return _named_residual(pair, F, x, "right")


def symmetric_residual(pair: GeometricPair, F: VectorField, x):
    """Gradient condition for symmetric structures."""
    return _named_residual(pair, F, x, "symmetric")


def symplectic_residual(pair: GeometricPair, F: VectorField, x):
    """Hamiltonian condition (DF)^T B^{-1} + B^{-1} DF = 0."""
    return _named_residual(pair, F, x, "symplectic")


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


def gamma_obstruction(pair: GeometricPair, N, norm=None):
    """(values, scales): top wedge-power coefficient of each matrix of
    the stack N = C DF (B, n, n) and its degree-m normalizer
    m! ||N||_F^m + floor, as (B,) arrays; ``norm``, when given, is
    ||N||_F from ``residual``.  A matrix whose value or scale overflows
    gets NaN in both, as a matrix outside the domain does."""
    n = pair.dim
    if n % 2:
        raise OddDimension(f"obstruction needs even dimension, got {n}")
    m = n // 2
    N = _stack(pair, N)
    with np.errstate(over="ignore", invalid="ignore"):
        if norm is None:
            norm = np.sqrt(np.sum(N * N, axis=(1, 2)))
        values = gamma_power(N, m)
        scales = math.factorial(m) * norm ** m + GAMMA_FLOOR
    return _overflow_as_nan(values, scales)


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


def equivalence_probe(defects: dict, tol: float = TOL_GAMMA) -> ProbeReport:
    """Check (residual ~ 0) <=> (all antisymmetry coefficients ~ 0) at
    each point, for both the left and right conditions, from
    ``defects = {"left": residual(pair, Q^T DF), "right": residual(pair,
    Q DF)}`` (the same Defect twice when Q^T = Q).

    Points within a factor GRAY_FACTOR of the threshold on either
    measure are excluded from the violation count and reported.  Both
    are counted per side.
    """
    lo, hi = tol / GRAY_FACTOR, tol * GRAY_FACTOR
    violations, gray, max_relative = [], 0, []
    for side in ("left", "right"):
        d = defects[side]
        scale = 1.0 + d.norm
        res_rel, coeff_rel = d.residual / scale, d.peak / scale
        in_gray = (((lo <= res_rel) & (res_rel <= hi))
                   | ((lo <= coeff_rel) & (coeff_rel <= hi)))
        bad = ~in_gray & ((res_rel <= tol) != (coeff_rel <= tol))
        gray += int(np.count_nonzero(in_gray))
        violations += [(int(i), side, float(res_rel[i]), float(coeff_rel[i]))
                       for i in np.flatnonzero(bad)]
        max_relative.append((side, float(res_rel.max(initial=0.0))))
    points = len(defects["left"].norm)
    return ProbeReport(points=points, checks=2 * points,
                       violations=len(violations), gray_excluded=gray, tol=tol,
                       violation_details=tuple(violations),
                       max_relative=tuple(max_relative))


def check(pair: GeometricPair, F: VectorField, side: str, box, n_points: int,
          rng_seed: int, tol: float = TOL_GAMMA) -> dict:
    """Every number and the verdict of ``check.json`` at the points
    ``box_halton(box, n_points, rng_seed)``, drawn here and freed before
    the reductions.  Per chunk of CHECK_STACK_BYTES of (B, n, n) stacks,
    one DF and one N = C DF per distinct C give that C's ``residual``
    and, on ``side`` in an even dimension, ``gamma_obstruction``.  A point
    with a non-finite number (DF undefined, N overflowing) is counted in
    ``domain_excluded`` (none left raises GradlocusError); the rest are
    reduced once, so nothing depends on the chunk size."""
    from .locus import box_halton  # locus imports this module
    first = distinct_sides(pair, conditions(pair))
    matrices = {s: obstruction_matrix(pair, s)
                for s in dict.fromkeys(first.values())}
    gamma_side = first[side] if pair.dim % 2 == 0 else None
    pts = box_halton(box, n_points, rng_seed)
    step = chunk_rows(CHECK_STACK_BYTES, 8 * pair.dim ** 2)
    blocks = []
    for lo in range(0, n_points, step):
        # one Jacobian for every condition, NaN where it is undefined
        DF = F.jacobian(pts[lo:lo + step])[1]
        rows, obstruction = [], ()
        for s, C in matrices.items():
            N = premultiply(C, DF)
            defect = residual(pair, N)
            rows += defect
            if s == gamma_side:
                obstruction = gamma_obstruction(pair, N, defect.norm)
            del N
        blocks.append(np.array([*rows, *obstruction]))
        del DF
    del pts  # the points are not held through the reductions
    table = np.concatenate(blocks, axis=1)
    del blocks
    finite = np.all(np.isfinite(table), axis=0)
    excluded = n_points - int(np.count_nonzero(finite))
    if excluded == n_points:
        raise GradlocusError(f"check: all {n_points} points are "
                             "outside the domain of the field or overflow")
    table = table[:, finite]
    defects = {s: Defect(*table[3 * i:3 * i + 3])
               for i, s in enumerate(matrices)}
    probe = equivalence_probe(
        {s: defects[first[s]] for s in ("left", "right")}, tol=tol)
    per_side = {s: {"max": float(defects[c].residual.max()),
                    "mean": float(defects[c].residual.mean()),
                    "max_relative": dict(probe.max_relative)[c]}
                for s, c in first.items()}
    gamma_rel_max, n_decisive = 0.0, 0
    if gamma_side:  # the last two rows
        values, scales = table[3 * len(matrices):]
        gamma_rel_max = float((np.abs(values) / scales).max())
        n_decisive = int(np.count_nonzero(decisive(values, scales, tol)))
    verdict = ("integrable everywhere sampled"
               if integrable(per_side[side]["max_relative"], gamma_rel_max, tol)
               else "non-integrable obstruction present" if n_decisive
               else "indeterminate")
    return {
        "domain_excluded": excluded,
        "conditions": per_side,
        "obstruction": {"max_relative": gamma_rel_max,
                        "decisive_nonzero_points": n_decisive},
        "equivalence_probe": {key: getattr(probe, key) for key in (
            "points", "checks", "violations", "gray_excluded")},
        "verdict": verdict,
    }
