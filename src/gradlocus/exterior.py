"""Sparse exterior algebra over R^n and the antisymmetry operator.

A multivector of grade k keeps its basis monomials e_{i1} ^ ... ^ e_{ik}
(i1 < ... < ik) as bitmasks over the n coordinate axes, in one strictly
increasing tuple of keys, and its coefficients as one stack: row i
holds the coefficient of keys[i].  The module hosts the operator that
maps a square matrix M to the 2-vector with coefficient (M_pq - M_qp)
on e_p ^ e_q, its m-th wedge power on R^{2m}, and a Pfaffian that
serves as an independent cross-check of the top-power coefficient.

Everything works on batches: a coefficient is an array over the batch,
so one wedge power of a (B, n, n) stack costs a few numpy calls per key
pair instead of B Python-level wedges.  A single matrix is the same
code on a batch of shape ().
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotAntisymmetric, OddDimension

PRUNE_REL = 1e-14
PRUNE_FLOOR = 1e-300
_LARGEST = float(np.finfo(float).max)


def _merge_sign(a: int, b: int) -> int:
    # Parity of the permutation that sorts the concatenation of the two
    # ascending index lists: count pairs (i in a, j in b) with i > j.
    swaps = 0
    a >>= 1
    while a:
        swaps += (a & b).bit_count()
        a >>= 1
    return -1 if swaps & 1 else 1


def _pruned(dim: int, grade: int, keys, S) -> "MultiVector":
    """Multivector with coefficient S[i] on keys[i], pruned row by row;
    S is zeroed in place and copied only when a key is dropped.

    In each row a coefficient at or below PRUNE_REL * that row's
    max|coeff| (floor PRUNE_FLOOR) becomes 0; a key is dropped only when
    it is 0 in every row.  NaN and inf are never pruned: NaN fails every
    comparison, and the cutoff is capped at the largest float, which an
    inf exceeds; a row holding either has a peak that is not finite.
    """
    size = np.abs(S)
    cutoff = np.minimum(np.maximum(
        PRUNE_REL * np.max(size, axis=0, initial=0.0), PRUNE_FLOOR), _LARGEST)
    drop = size <= cutoff
    del size  # freed before a dropped key copies S
    np.copyto(S, 0.0, where=drop)
    alive = ~np.all(drop, axis=tuple(range(1, S.ndim)))
    if not alive.all():
        keys, S = tuple(itertools.compress(keys, alive)), S[alive]
    return MultiVector(dim, grade, keys, S)


@dataclass(frozen=True)
class MultiVector:
    """Element of Lambda^grade R^dim, or a batch of them: ``stack[i]`` is
    the coefficient of the basis monomial ``keys[i]``.

    ``keys`` is a strictly increasing tuple of bitmasks, each with
    population count ``grade`` and fitting in ``dim`` bits; ``stack`` is
    a float array of shape (len(keys),) + ``shape``, where the batch
    shape is () for a single multivector, whose coefficients are then
    numpy floats, and (B,) for a batch of B.  The zero element may carry
    a nominal grade above ``dim`` (the result of wedging past the top
    grade); it necessarily has no keys.
    """

    dim: int
    grade: int
    keys: tuple[int, ...]
    stack: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch("dim must be >= 1")
        if self.grade < 0:
            raise ValueError("grade must be >= 0")
        keys = tuple(self.keys)
        if self.grade > self.dim and keys:
            raise ValueError("grade exceeds dim for a nonzero multivector")
        for key in keys:
            if key >> self.dim:
                raise ValueError(f"key {key:b} does not fit in {self.dim} bits")
            if key.bit_count() != self.grade:
                raise ValueError(f"key {key:b} has wrong grade")
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("keys must be strictly increasing")
        stack = np.asarray(self.stack, dtype=float)
        if stack.ndim < 1 or len(stack) != len(keys):
            raise DimensionMismatch(
                f"a coefficient stack of shape {stack.shape} for "
                f"{len(keys)} keys")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "stack", stack)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.stack.shape[1:]

    @classmethod
    def zero(cls, dim: int, grade: int, shape=()) -> "MultiVector":
        return cls(dim, grade, (), np.zeros((0,) + tuple(shape)))

    def coefficient(self, indices):
        """Coefficient of e_{i1} ^ ... ^ e_{ik} for ascending 1-based indices."""
        indices = tuple(indices)
        if any(not 1 <= i <= self.dim for i in indices):
            raise DimensionMismatch(f"indices {indices} outside 1..{self.dim}")
        if list(indices) != sorted(set(indices)) or len(indices) != self.grade:
            raise ValueError(f"expected {self.grade} strictly increasing indices")
        key = sum(1 << (i - 1) for i in indices)
        if key in self.keys:
            return self.stack[self.keys.index(key)]
        return np.zeros(self.shape)[()]

    def __eq__(self, other):
        if not isinstance(other, MultiVector):
            return NotImplemented
        return ((self.dim, self.grade, self.shape, self.keys)
                == (other.dim, other.grade, other.shape, other.keys)
                and np.array_equal(self.stack, other.stack))

    def max_abs(self):
        """Max |coefficient| of each row of the batch."""
        return np.max(np.abs(self.stack), axis=0, initial=0.0)


@functools.lru_cache(maxsize=64)
def _schedule(keys_a: tuple[int, ...], keys_b: tuple[int, ...]):
    """(keys, terms) of a wedge: the sorted keys of the result, and one
    term (i, j, slot, positive) per pair of disjoint keys (e_i ^ e_i =
    0), in the sorted order of the pairs, with keys[slot] = keys_a[i] |
    keys_b[j] and ``positive`` whether the merge sign is +1."""
    pairs = [(i, j, ka | kb, _merge_sign(ka, kb) > 0)
             for i, ka in enumerate(keys_a)
             for j, kb in enumerate(keys_b) if not ka & kb]
    keys = tuple(sorted({k for _, _, k, _ in pairs}))
    slot = {k: s for s, k in enumerate(keys)}
    return keys, tuple((i, j, slot[k], positive)
                       for i, j, k, positive in pairs)


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
            f"wedge of multivectors with dims {a.dim} and {b.dim}")
    if a.shape != b.shape:
        raise DimensionMismatch(
            f"wedge of batches with shapes {a.shape} and {b.shape}")
    grade = a.grade + b.grade
    if grade > a.dim:
        return MultiVector.zero(a.dim, grade, a.shape)
    keys, terms = _schedule(a.keys, b.keys)
    A, B = a.stack, b.stack
    S = np.zeros((len(keys),) + a.shape)
    term = np.empty(a.shape)  # one product buffer for every term
    for i, j, k, positive in terms:
        np.multiply(A[i], B[j], out=term)
        if positive:
            S[k] += term
        else:
            S[k] -= term
    return _pruned(a.dim, grade, keys, S)


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
    e_p ^ e_q of each; then the keys in increasing order, and the index
    of the pair of each."""
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    keys = tuple((1 << p) | (1 << q) for p, q in pairs)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return (tuple((p * n + q, q * n + p) for p, q in pairs), keys,
            tuple(keys[k] for k in order), np.array(order, dtype=np.intp))


def _antisymmetric_rows(M):
    """(keys, S) of a float (n, n) matrix or (B, n, n) stack M: S has
    shape (K,) or (K, B) with K = n(n-1)/2, and its row k is M_pq - M_qp
    for the k-th pair p < q of ``_upper_pairs``, with key e_p ^ e_q.

    Each row is one contiguous subtraction of two columns of the
    flattened stack, so nothing (B, n, n) is formed.
    """
    n = M.shape[-1]
    entries, keys = _upper_pairs(n)[:2]
    flat = M.reshape(math.prod(M.shape[:-2]), n * n)
    S = np.empty((len(keys), len(flat)))
    for row, (pq, qp) in zip(S, entries):
        np.subtract(flat[:, pq], flat[:, qp], out=row)
    return keys, S.reshape((len(keys),) + M.shape[:-2])


def gamma(M) -> MultiVector:
    """2-vector sum of (M e_i) ^ e_i over the canonical basis.

    M is one (n, n) matrix or a (B, n, n) stack, which gives a batch of
    B 2-vectors.  The coefficient on e_p ^ e_q (p < q) is M_pq - M_qp,
    so the result vanishes exactly on symmetric M; the coefficients are
    read pair by pair (``_antisymmetric_rows``), never as a (B, n, n)
    difference, and put in key order once.  The sum is the same over
    every orthonormal basis, which tests check against an oracle.
    """
    M = _square_stack(M)
    n = M.shape[-1]
    keys, order = _upper_pairs(n)[2:]
    return _pruned(n, 2, keys, _antisymmetric_rows(M)[1][order])


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
