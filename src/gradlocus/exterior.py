"""Sparse exterior algebra over R^n and the antisymmetry operator.

Multivectors are graded, with basis monomials e_{i1} ^ ... ^ e_{ik}
(i1 < ... < ik) encoded as bitmasks over the n coordinate axes.  The
module hosts the operator that maps a square matrix M to the 2-vector
with coefficient (M_pq - M_qp) on e_p ^ e_q, its m-th wedge power on
R^{2m}, and a Pfaffian that serves as an independent cross-check of
the top-power coefficient.

Everything works on batches: a coefficient is an array over the batch,
so one wedge power of a (B, n, n) stack costs a few numpy calls per key
pair instead of B Python-level wedges.  A single matrix is the same
code on a batch of shape ().
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotAntisymmetric, OddDimension

PRUNE_REL = 1e-14
PRUNE_FLOOR = 1e-300


def _merge_sign(a: int, b: int) -> int:
    # Parity of the permutation that sorts the concatenation of the two
    # ascending index lists: count pairs (i in a, j in b) with i > j.
    swaps = 0
    a >>= 1
    while a:
        swaps += (a & b).bit_count()
        a >>= 1
    return -1 if swaps & 1 else 1


def _mask_to_indices(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _indices_to_mask(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << (i - 1)
    return mask


def _peak(S) -> np.ndarray:
    """Max |coefficient| of each row; S stacks one coefficient array per
    key along axis 0."""
    return np.max(np.abs(S), axis=0, initial=0.0)


def _pruned(dim: int, grade: int, keys, S, shape) -> "MultiVector":
    """Multivector with coefficient S[i] on keys[i], pruned row by row.

    In each row a coefficient at or below PRUNE_REL * that row's
    max|coeff| (floor PRUNE_FLOOR) becomes 0; a key is dropped only when
    it is 0 in every row.  NaN and inf are never pruned: neither is 0.
    """
    size = np.abs(S)
    cutoff = np.maximum(PRUNE_REL * np.max(size, axis=0, initial=0.0),
                        PRUNE_FLOOR)
    keep = ~(np.isfinite(S) & (size <= cutoff))
    del size  # not held alongside the pruned copy
    S = np.where(keep, S, 0.0)
    alive = np.any(keep, axis=tuple(range(1, keep.ndim)))
    coeffs = {k: S[i] for i, k in enumerate(keys) if alive[i]}
    return MultiVector(dim, grade, coeffs, shape)


@dataclass(frozen=True)
class MultiVector:
    """Element of Lambda^grade R^dim, or a batch of them, with sparse
    bitmask-keyed coefficients.

    Every coefficient is an array of the batch ``shape``: () for a single
    multivector, whose coefficients are then numpy floats, and (B,) for
    a batch of B (inferred from the coefficients when not given).  Keys
    have population count ``grade`` and fit in ``dim`` bits.  The zero
    element may carry a nominal grade above ``dim`` (the result of
    wedging past the top grade); it necessarily has no coefficients.
    """

    dim: int
    grade: int
    coeffs: dict[int, np.ndarray] = field(default_factory=dict)
    shape: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch("dim must be >= 1")
        if self.grade < 0:
            raise ValueError("grade must be >= 0")
        if self.grade > self.dim and self.coeffs:
            raise ValueError("grade exceeds dim for a nonzero multivector")
        for key in self.coeffs:
            if key >> self.dim:
                raise ValueError(f"key {key:b} does not fit in {self.dim} bits")
            if key.bit_count() != self.grade:
                raise ValueError(f"key {key:b} has wrong grade")
        values = {k: np.asarray(v, dtype=float) for k, v in self.coeffs.items()}
        if self.shape is not None:
            shape = tuple(self.shape)
        else:
            shape = next(iter(values.values())).shape if values else ()
        if any(v.shape != shape for v in values.values()):
            raise DimensionMismatch(
                f"coefficient shapes differ from the batch shape {shape}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "coeffs", {k: v[()] for k, v in values.items()})

    @classmethod
    def zero(cls, dim: int, grade: int, shape=()) -> "MultiVector":
        return cls(dim=dim, grade=grade, coeffs={}, shape=shape)

    @classmethod
    def basis_vector(cls, dim: int, i: int) -> "MultiVector":
        """e_i as a 1-vector (1-based index)."""
        if not 1 <= i <= dim:
            raise DimensionMismatch(f"index {i} outside 1..{dim}")
        return cls(dim=dim, grade=1, coeffs={1 << (i - 1): 1.0})

    @classmethod
    def from_vector(cls, v) -> "MultiVector":
        """Dense coordinate vector (or a (..., n) stack) -> grade-1
        multivector; axes that are 0 in every row are left out."""
        v = np.asarray(v, dtype=float)
        n = v.shape[-1]
        coeffs = {1 << i: v[..., i] for i in range(n) if np.any(v[..., i])}
        return cls(dim=n, grade=1, coeffs=coeffs, shape=v.shape[:-1])

    def coefficient(self, indices):
        """Coefficient of e_{i1} ^ ... ^ e_{ik} for ascending 1-based indices."""
        indices = tuple(indices)
        if any(not 1 <= i <= self.dim for i in indices):
            raise DimensionMismatch(f"indices {indices} outside 1..{self.dim}")
        if list(indices) != sorted(set(indices)) or len(indices) != self.grade:
            raise ValueError(f"expected {self.grade} strictly increasing indices")
        return self.coeffs.get(_indices_to_mask(indices),
                               np.zeros(self.shape)[()])

    def terms(self):
        """Sorted (indices, coefficient) pairs."""
        return [(_mask_to_indices(k), v) for k, v in sorted(self.coeffs.items())]

    def __eq__(self, other):
        if not isinstance(other, MultiVector):
            return NotImplemented
        return ((self.dim, self.grade, self.shape, self.coeffs.keys())
                == (other.dim, other.grade, other.shape, other.coeffs.keys())
                and all(np.array_equal(v, other.coeffs[k])
                        for k, v in self.coeffs.items()))

    def _rows(self):
        """Sorted keys and their coefficients stacked along axis 0."""
        keys = sorted(self.coeffs)
        S = np.array([self.coeffs[k] for k in keys], dtype=float)
        return keys, S.reshape((len(keys),) + self.shape)

    def max_abs(self):
        return _peak(self._rows()[1])

    def is_zero(self, tol: float = 0.0):
        return self.max_abs() <= tol

    def prune(self) -> "MultiVector":
        """Drop coefficients below PRUNE_REL * max|coeff| (floor
        PRUNE_FLOOR), row by row."""
        return _pruned(self.dim, self.grade, *self._rows(), self.shape)

    def __add__(self, other: "MultiVector") -> "MultiVector":
        if self.dim != other.dim or self.shape != other.shape:
            raise DimensionMismatch(
                "dimension or batch shape mismatch in addition")
        if self.grade != other.grade:
            raise ValueError("grade mismatch in addition")
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0.0) + v
        return MultiVector(self.dim, self.grade, coeffs, self.shape).prune()

    def __xor__(self, other: "MultiVector") -> "MultiVector":
        return wedge(self, other)


@functools.lru_cache(maxsize=64)
def _schedule(keys_a: tuple[int, ...], keys_b: tuple[int, ...]):
    """(keys, terms) of a wedge: one term (i, j, slot, positive) per pair
    of disjoint keys (e_i ^ e_i = 0), in the sorted order of the pairs,
    with keys[slot] = keys_a[i] | keys_b[j] and ``positive`` whether the
    merge sign is +1."""
    slot: dict[int, int] = {}
    terms = []
    for i, ka in enumerate(keys_a):
        for j, kb in enumerate(keys_b):
            if not ka & kb:
                k = slot.setdefault(ka | kb, len(slot))
                terms.append((i, j, k, _merge_sign(ka, kb) > 0))
    return tuple(slot), tuple(terms)


def wedge(a: MultiVector, b: MultiVector) -> MultiVector:
    """Exterior product; bilinear, associative, sign by merge parity.

    Batches of equal shape are wedged row by row.  Every result
    coefficient sums its terms in the sorted order of the key pairs, so
    a row's arithmetic does not depend on the other rows of its batch.
    A term of sign -1 is subtracted, which in IEEE arithmetic is bit for
    bit the addition of its negated product.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(
            f"wedge of multivectors with dims {a.dim} and {b.dim}"
        )
    if a.shape != b.shape:
        raise DimensionMismatch(
            f"wedge of batches with shapes {a.shape} and {b.shape}")
    grade = a.grade + b.grade
    if grade > a.dim:
        return MultiVector.zero(a.dim, grade, a.shape)
    keys_a, A = a._rows()
    keys_b, B = b._rows()
    keys, terms = _schedule(tuple(keys_a), tuple(keys_b))
    S = np.zeros((len(keys),) + a.shape)
    term = np.empty(a.shape)  # one product buffer for every term
    for i, j, k, positive in terms:
        np.multiply(A[i], B[j], out=term)
        if positive:
            S[k] += term
        else:
            S[k] -= term
    return _pruned(a.dim, grade, keys, S, a.shape)


def _square_stack(M) -> np.ndarray:
    """M as a float (n, n) matrix or (B, n, n) stack."""
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise DimensionMismatch(f"M must be square, got {M.shape}")
    return M


@functools.lru_cache(maxsize=None)
def _upper_pairs(n: int):
    """Row-major flat indices (p n + q, q n + p) of each entry M_pq above
    the diagonal and of its mirror M_qp, in that order, and the key
    e_p ^ e_q of each."""
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    return (tuple((p * n + q, q * n + p) for p, q in pairs),
            tuple((1 << p) | (1 << q) for p, q in pairs))


def _antisymmetric_rows(M):
    """(keys, S) of a float (n, n) matrix or (B, n, n) stack M: S has
    shape (K,) or (K, B) with K = n(n-1)/2, and its row k is M_pq - M_qp
    for the k-th pair p < q of ``_upper_pairs``, with key e_p ^ e_q.

    Each row is one contiguous subtraction of two columns of the
    flattened stack, so nothing (B, n, n) is formed.
    """
    n = M.shape[-1]
    entries, keys = _upper_pairs(n)
    flat = M.reshape(math.prod(M.shape[:-2]), n * n)
    S = np.empty((len(keys), len(flat)))
    for row, (pq, qp) in zip(S, entries):
        np.subtract(flat[:, pq], flat[:, qp], out=row)
    return keys, S.reshape((len(keys),) + M.shape[:-2])


def gamma(M, basis=None) -> MultiVector:
    """2-vector sum of (M u_i) ^ u_i over an orthonormal basis.

    M is one (n, n) matrix or a (B, n, n) stack, which gives a batch of
    B 2-vectors.  With the canonical basis the coefficient on e_p ^ e_q
    (p < q) is M_pq - M_qp, so the result vanishes exactly on symmetric
    M; they are read key by key (``_antisymmetric_rows``), never as a
    (B, n, n) difference.  A supplied basis must be orthonormal
    (columns); the result does not depend on the choice, which tests
    exercise statistically.
    """
    M = _square_stack(M)
    n = M.shape[-1]
    if basis is None:
        return _pruned(n, 2, *_antisymmetric_rows(M), M.shape[:-2])

    U = np.asarray(basis, dtype=float)
    if U.shape != (n, n):
        raise DimensionMismatch(f"basis must be {n}x{n}, got {U.shape}")
    gram_dev = float(np.abs(U.T @ U - np.eye(n)).max())
    if gram_dev > 1e-10:
        raise ValueError(
            f"supplied basis is not orthonormal (Gram deviation {gram_dev:.3e})"
        )
    total = MultiVector.zero(n, 2, M.shape[:-2])
    for i in range(n):
        Mu = M @ U[:, i]
        total = total + wedge(MultiVector.from_vector(Mu),
                              MultiVector.from_vector(
                                  np.broadcast_to(U[:, i], Mu.shape)))
    return total


def gamma_power(M, m: int | None = None):
    """Coefficient of e_1 ^ ... ^ e_{2m} in the m-th wedge power of gamma(M).

    M is one (n, n) matrix, which gives a float, or a (B, n, n) stack,
    which gives a (B,) array whose rows equal the single-matrix results
    exactly.  A matrix with a non-finite entry gives NaN.  Requires
    n = 2m nonzero and even.  Tests validate the identity with
    m! * Pf(M - M^T) against the independent Pfaffian below; the raw
    value is returned, thresholding is the caller's concern.
    """
    M = _square_stack(M)
    n = M.shape[-1]
    if n == 0:
        raise DimensionMismatch("n = 0 is not allowed")
    if n % 2:
        raise OddDimension(f"gamma power needs even dimension, got {n}")
    if m is None:
        m = n // 2
    elif 2 * m != n:
        raise DimensionMismatch(f"m = {m} inconsistent with n = {n}")
    if not np.all(np.isfinite(M)):  # NaN rows, so no inf meets a 0 below
        M = np.where(np.all(np.isfinite(M), axis=(-2, -1))[..., None, None],
                     M, np.nan)
    g = gamma(M)
    power = g
    for _ in range(m - 1):
        power = wedge(power, g)
    top = power.coefficient(range(1, n + 1))
    return float(top) if M.ndim == 2 else top


def antisymmetric_part(M) -> np.ndarray:
    """M - M^T (unhalved, matching the gamma coefficient convention) for
    one (n, n) matrix or each matrix of an (..., n, n) stack."""
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DimensionMismatch(f"M must be square, got {M.shape}")
    return M - np.swapaxes(M, -1, -2)


def _pfaffian_expand(A: np.ndarray, rows: tuple[int, ...]) -> float:
    """Laplace-style expansion along the first remaining row, memoized."""
    cache: dict[tuple[int, ...], float] = {}

    def rec(active: tuple[int, ...]) -> float:
        if not active:
            return 1.0
        if active in cache:
            return cache[active]
        i0 = active[0]
        rest = active[1:]
        total = 0.0
        for pos, j in enumerate(rest):
            a = A[i0, j]
            if a != 0.0:
                sign = -1.0 if pos & 1 else 1.0
                total += sign * a * rec(rest[:pos] + rest[pos + 1:])
        cache[active] = total
        return total

    return rec(rows)


def pfaffian(A) -> float:
    """Pfaffian of an antisymmetric matrix of even dimension.

    Computed by the memoized first-row expansion; Pf(A)^2 = det(A).
    Raises NotAntisymmetric when ||A + A^T|| exceeds 1e-10 ||A||.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    n = A.shape[0]
    if n % 2:
        raise OddDimension(f"Pfaffian needs even dimension, got {n}")
    if n == 0:
        return 1.0
    scale = float(np.abs(A).max())
    if scale > 0 and float(np.abs(A + A.T).max()) > 1e-10 * scale:
        raise NotAntisymmetric("matrix is not antisymmetric within tolerance")
    return _pfaffian_expand(A, tuple(range(n)))
