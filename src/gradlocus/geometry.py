"""Nondegenerate bilinear structures on R^n and their companion maps.

A structure is represented by its Gram matrix ``Q`` in the canonical
basis, so that ``b(x, y) = x^T Q y``.  The companion map ``B`` is the
unique linear map with ``<x, y> = b(x, B y)`` for the canonical inner
product, i.e. ``B = Q^{-1}``; its adjoint with respect to ``b`` equals
the Euclidean transpose ``B^T``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateForm, DimensionMismatch

TOL_DEGENERATE = 1e-10
"""Smallest acceptable ratio of extreme singular values of Q."""

TOL_SYM = 1e-12
"""Classification threshold for symmetric / skew-symmetric, relative."""


class FormKind(enum.Enum):
    SYMMETRIC = "symmetric"
    SKEW_SYMMETRIC = "skew_symmetric"
    GENERAL = "general"


@dataclass(frozen=True)
class BilinearForm:
    """A nondegenerate bilinear form b(x, y) = x^T Q y on R^dim.

    ``signature`` is the pair (positives, negatives) of eigenvalue signs
    and is present exactly for symmetric forms.
    """

    dim: int
    Q: np.ndarray
    kind: FormKind
    signature: tuple[int, int] | None = None

    def value(self, x, y) -> float:
        """Evaluate b(x, y)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise DimensionMismatch(
                f"expected two vectors of length {self.dim}, "
                f"got shapes {x.shape} and {y.shape}"
            )
        return float(x @ self.Q @ y)


@dataclass(frozen=True)
class GeometricPair:
    """A form together with its companion map B and the b-adjoint of B.

    The container itself performs no validation (so that deliberately
    corrupted pairs can be fed to :func:`verify_pair` as negative
    controls); pairs built by :func:`companion_map` satisfy
    ``Q B = I`` and ``Bstar = B^T``.
    """

    form: BilinearForm
    B: np.ndarray
    Bstar: np.ndarray

    @property
    def dim(self) -> int:
        return self.form.dim


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def make_form(Q) -> BilinearForm:
    """Classify a square matrix as a bilinear structure.

    Raises DegenerateForm when the singular-value ratio of Q falls
    below ``TOL_DEGENERATE`` or, for symmetric Q, when an eigenvalue
    cannot be signed reliably.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise DimensionMismatch(f"Q must be square, got shape {Q.shape}")
    if Q.shape[0] == 0:
        raise DimensionMismatch("Q must be nonempty")
    if not np.all(np.isfinite(Q)):
        raise ValueError("Q has non-finite entries")
    n = Q.shape[0]

    sv = np.linalg.svd(Q, compute_uv=False)
    ratio = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    if ratio <= TOL_DEGENERATE:
        raise DegenerateForm(
            f"form is numerically degenerate: singular-value ratio "
            f"{ratio:.3e} <= {TOL_DEGENERATE:.0e}",
            sv_ratio=ratio,
        )

    scale = max(1.0, float(np.abs(Q).max()))
    if np.abs(Q - Q.T).max() <= TOL_SYM * scale:
        kind = FormKind.SYMMETRIC
    elif np.abs(Q + Q.T).max() <= TOL_SYM * scale:
        kind = FormKind.SKEW_SYMMETRIC
    else:
        kind = FormKind.GENERAL

    signature = None
    if kind is FormKind.SYMMETRIC:
        eigs = np.linalg.eigvalsh(0.5 * (Q + Q.T))
        thresh = 1e-10 * float(np.abs(eigs).max())
        if np.any(np.abs(eigs) <= thresh):
            raise DegenerateForm(
                "symmetric form has an eigenvalue indistinguishable from zero",
                sv_ratio=ratio,
            )
        p = int(np.sum(eigs > 0))
        signature = (p, n - p)

    return BilinearForm(dim=n, Q=_freeze(Q), kind=kind, signature=signature)


def standard_euclidean(n: int) -> BilinearForm:
    """Canonical inner product on R^n (Q = I)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return make_form(np.eye(n))


def standard_symplectic(m: int) -> BilinearForm:
    """Canonical symplectic form on R^{2m}: Q = [[0, I_m], [-I_m, 0]]."""
    if m < 1:
        raise ValueError("m must be >= 1")
    Q = np.zeros((2 * m, 2 * m))
    Q[:m, m:] = np.eye(m)
    Q[m:, :m] = -np.eye(m)
    return make_form(Q)


def pseudo_euclidean(p: int, q: int) -> BilinearForm:
    """Diagonal form with p entries +1 followed by q entries -1."""
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError("need p, q >= 0 with p + q >= 1")
    return make_form(np.diag(np.concatenate([np.ones(p), -np.ones(q)])))


def minkowski(n: int) -> BilinearForm:
    """Symmetric form of signature (n-1, 1)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return pseudo_euclidean(n - 1, 1)


def companion_map(form: BilinearForm) -> GeometricPair:
    """Solve Q B = I for the companion map and attach its adjoint B^T."""
    try:
        B = np.linalg.solve(form.Q, np.eye(form.dim))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by make_form
        raise DegenerateForm(f"cannot invert Q: {exc}") from exc
    return GeometricPair(form=form, B=_freeze(B), Bstar=_freeze(B.T))


@dataclass(frozen=True)
class PairCheck:
    """Result of randomized verification of the geometric-pair identities."""

    passed: bool
    trials: int
    tol: float
    max_inner_residual: float
    max_adjoint_residual: float


def verify_pair(pair: GeometricPair, trials: int = 100, tol: float = 1e-10,
                seed: int = 0) -> PairCheck:
    """Check <x,y> = b(x, By) and b(B*x, y) = b(x, By) on random vectors.

    Residuals are measured relative to ||x|| ||y|| (1 + ||Q||).
    """
    rng = np.random.default_rng(seed)
    Q = pair.form.Q
    norm_q = 1.0 + float(np.linalg.norm(Q))
    worst_inner = 0.0
    worst_adjoint = 0.0
    for _ in range(trials):
        x = rng.standard_normal(pair.dim)
        y = rng.standard_normal(pair.dim)
        scale = float(np.linalg.norm(x) * np.linalg.norm(y)) * norm_q
        rhs = x @ Q @ (pair.B @ y)
        worst_inner = max(worst_inner, abs(float(x @ y - rhs)) / scale)
        lhs = (pair.Bstar @ x) @ Q @ y
        worst_adjoint = max(worst_adjoint, abs(float(lhs - rhs)) / scale)
    return PairCheck(
        passed=worst_inner <= tol and worst_adjoint <= tol,
        trials=trials,
        tol=tol,
        max_inner_residual=worst_inner,
        max_adjoint_residual=worst_adjoint,
    )
