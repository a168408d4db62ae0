"""Independent oracles shared by the test modules.

Everything here is deliberately written by a different route than the
library code: wedge signs come from explicit inversion counting on
index tuples, the antisymmetry 2-vector is accumulated straight from
its defining sum, and derivatives are approximated with central
differences.
"""

import numpy as np

from gradlocus import dsl
from gradlocus.geometry import (make_form, minkowski, pseudo_euclidean,
                                standard_euclidean, standard_symplectic)

GENERAL_Q = np.array([[1.0, 1.0], [0.0, 1.0]])


def builtin_structures():
    """(name, BilinearForm) pairs used across the acceptance suite."""
    return [
        ("euclidean-2", standard_euclidean(2)),
        ("euclidean-4", standard_euclidean(4)),
        ("symplectic-1", standard_symplectic(1)),
        ("symplectic-2", standard_symplectic(2)),
        ("minkowski-2", minkowski(2)),
        ("minkowski-4", minkowski(4)),
        ("pseudo-2-2", pseudo_euclidean(2, 2)),
        ("general-2", make_form(GENERAL_Q)),
    ]


# ---------------------------------------------------------------------------
# Exterior-algebra oracles on index-tuple-keyed dictionaries


def inversion_sign(seq) -> int:
    """Permutation sign via explicit O(k^2) inversion counting."""
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def dict_wedge(a: dict, b: dict) -> dict:
    """Wedge of {ascending index tuple: coeff} dictionaries."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            if set(ka) & set(kb):
                continue
            merged = ka + kb
            key = tuple(sorted(merged))
            out[key] = out.get(key, 0.0) + inversion_sign(merged) * va * vb
    return {k: v for k, v in out.items() if v != 0.0}


def dict_gamma(M) -> dict:
    """Sum of (M e_i) ^ e_i accumulated from the definition."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    total = {}
    for i in range(n):
        image = {(p + 1,): M[p, i] for p in range(n) if M[p, i] != 0.0}
        term = dict_wedge(image, {(i + 1,): 1.0})
        for k, v in term.items():
            total[k] = total.get(k, 0.0) + v
    return {k: v for k, v in total.items() if v != 0.0}


def dict_top_power(M, m: int) -> float:
    """Coefficient of e_1 ^ ... ^ e_{2m} in gamma(M)^m, by brute force."""
    g = dict_gamma(M)
    power = g
    for _ in range(m - 1):
        power = dict_wedge(power, g)
    return power.get(tuple(range(1, 2 * m + 1)), 0.0)


def antisymmetric_defect_norm(Q, DF, side) -> np.ndarray:
    """||N - N^T||_F at each point, N = C DF with C = Q^T on the left
    side and C = Q on every other side, one matrix at a time."""
    Q = np.asarray(Q, dtype=float)
    C = Q.T if side == "left" else Q
    return np.array([np.linalg.norm(C @ J - (C @ J).T, "fro") for J in DF])


# ---------------------------------------------------------------------------
# Derivative oracles


def central_gradient(fun, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (fun(xp) - fun(xm)) / (2 * h)
    return out


def central_jacobian(fun, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((np.asarray(fun(xp)) - np.asarray(fun(xm))) / (2 * h))
    return np.stack(cols, axis=-1)


# ---------------------------------------------------------------------------
# Random expression generators (domain-safe on boxes around the origin)


def random_polynomial(rng, n, degree=4, terms=6) -> dsl.Expr:
    """Random polynomial with coefficients in [-1, 1] and total degree
    <= degree."""
    expr = dsl.Const(float(rng.uniform(-1, 1)))
    for _ in range(terms):
        c = float(rng.uniform(-1, 1))
        term: dsl.Expr = dsl.Const(abs(c) + 1e-3)
        if c < 0:
            term = dsl.Neg(term)
        remaining = degree
        for i in rng.permutation(n):
            if remaining == 0:
                break
            k = int(rng.integers(0, remaining + 1))
            if k > 0:
                term = dsl.Mul(term, dsl.Pow(dsl.Var(int(i) + 1), k)
                               if k > 1 else dsl.Var(int(i) + 1))
                remaining -= k
        expr = dsl.Add(expr, term)
    return expr


def random_smooth(rng, n, depth=3) -> dsl.Expr:
    """Random expression mixing the full grammar, safe on [-2, 2]^n."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return dsl.Var(int(rng.integers(1, n + 1)))
        return dsl.Const(float(rng.uniform(0.1, 2.0)))
    pick = rng.random()
    if pick < 0.2:
        return dsl.Add(random_smooth(rng, n, depth - 1),
                       random_smooth(rng, n, depth - 1))
    if pick < 0.35:
        return dsl.Sub(random_smooth(rng, n, depth - 1),
                       random_smooth(rng, n, depth - 1))
    if pick < 0.55:
        return dsl.Mul(random_smooth(rng, n, depth - 1),
                       random_smooth(rng, n, depth - 1))
    if pick < 0.65:
        # keep the denominator bounded away from zero
        den = dsl.Add(dsl.Const(float(rng.uniform(1.0, 3.0))),
                      dsl.Pow(dsl.Var(int(rng.integers(1, n + 1))), 2))
        return dsl.Div(random_smooth(rng, n, depth - 1), den)
    if pick < 0.75:
        return dsl.Pow(random_smooth(rng, n, depth - 1),
                       int(rng.integers(2, 4)))
    if pick < 0.85:
        return dsl.Call("sin", random_smooth(rng, n, depth - 1))
    if pick < 0.92:
        return dsl.Call("cos", random_smooth(rng, n, depth - 1))
    if pick < 0.97:
        # tame the argument so exp stays finite
        return dsl.Call("exp", dsl.Call("sin", random_smooth(rng, n, depth - 1)))
    arg = dsl.Add(dsl.Const(float(rng.uniform(1.0, 3.0))),
                  dsl.Pow(dsl.Var(int(rng.integers(1, n + 1))), 2))
    return dsl.Call("log", arg)


def random_points(rng, count, n, halfwidth=2.0):
    return rng.uniform(-halfwidth, halfwidth, size=(count, n))
