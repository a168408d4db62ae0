"""Closed-form scenarios with a prescribed locus, on any structure.

Write x = (u, v) with u, v in R^m, pick an integer 2m x m matrix M of
rank m and g: R^m -> R^m with g_i(u) = 0.5 sin(u_i) + 0.3 u_{i+1}^2
(indices cyclic), and set

    Psi(x) = M (v - g(u)),    f = |x|^2 / 2 + x1 x_n,
    F = C^{-1} (grad f - Psi),

with C = Q^T on the left side and C = Q on the right.  For the integer
unimodular Q used here C^{-1} is an integer matrix, so F is an exact DSL
string, and Phi = grad f - C F is Psi up to rounding.  Hence:

* the locus is the graph {v = g(u)}, of dimension m;
* DPhi = DPsi = M [-Dg, I] on every row;
* chart alpha (m rows of DPhi) has rank m exactly when det M[alpha] != 0;
* N = C DF = Hess f - DPsi, so N - N^T = DPsi^T - DPsi and the top
  coefficient of Gamma(N)^m is m! Pf(DPsi^T - DPsi), whose absolute
  value is m! sqrt|det(DPsi^T - DPsi)|.

Nothing here imports gradlocus: the oracles are independent of the code
they check (Lee, *Introduction to Smooth Manifolds*, 2nd ed. 2013,
ch. 5, on graphs and regular level sets).
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

KINDS = ("euclidean", "symplectic", "minkowski", "pseudo_euclidean",
         "general")

# integer 2m x m matrices of rank m; each holds the rows of I_m, so its
# smallest singular value is at least 1, and some of its m x m blocks
# are singular, so some charts are empty
MATRICES = {
    2: np.array([[1, 0], [2, 0], [0, 1], [1, 1]]),
    3: np.array([[1, 0, 0], [0, 1, 0], [2, 0, 0], [0, 0, 1], [1, 1, 0],
                 [0, 1, -1]]),
}


def structure(kind: str, m: int):
    """(Q, the scenario's "structure" object) for one structure kind on
    R^{2m}, with the library's conventions for each kind."""
    n = 2 * m
    if kind == "euclidean":
        return np.eye(n), {"kind": kind, "dim": n}
    if kind == "symplectic":
        Q = np.zeros((n, n))
        Q[:m, m:], Q[m:, :m] = np.eye(m), -np.eye(m)
        return Q, {"kind": kind, "dim": n}
    if kind == "minkowski":
        return np.diag([1.0] * (n - 1) + [-1.0]), {"kind": kind, "dim": n}
    if kind == "pseudo_euclidean":
        return (np.diag([1.0] * m + [-1.0] * m),
                {"kind": kind, "p": m, "q": m})
    if kind == "general":  # I plus ones on the superdiagonal: unimodular
        Q = np.eye(n) + np.eye(n, k=1)
        return Q, {"kind": kind, "Q": Q.tolist()}
    raise ValueError(f"unknown kind {kind!r}")


def _sum(terms) -> str:
    """The DSL text of sum(c * text) over (integer c, text) pairs."""
    out = ""
    for c, text in terms:
        if c:
            sign = "-" if c < 0 else "+"
            out += f" {sign} {abs(c)} * ({text})" if out else \
                f"{c} * ({text})"
    return out or "0"


def scenario(kind: str, m: int, side: str, n_seeds: int = 200,
             rng_seed: int = 7) -> dict:
    """The scenario dictionary of one (structure, side) pair on R^{2m},
    with the box [-2, 2]^{2m}, which holds the graph over it."""
    n, M = 2 * m, MATRICES[m]
    Q, spec = structure(kind, m)
    C = Q.T if side == "left" else Q
    Cinv = np.linalg.inv(C)
    assert np.array_equal(Cinv, np.round(Cinv)), "C^{-1} must be integer"
    Cinv = np.round(Cinv).astype(int)
    grad = [f"x{k}" + (f" + x{n}" if k == 1 else f" + x1" if k == n else "")
            for k in range(1, n + 1)]
    w = [f"x{m + i} - (0.5 * sin(x{i}) + 0.3 * x{i % m + 1}^2)"
         for i in range(1, m + 1)]
    psi = [_sum(zip(map(int, M[j]), w)) for j in range(n)]
    F = [_sum((int(Cinv[i, j]), f"{grad[j]} - ({psi[j]})") for j in range(n))
         for i in range(n)]
    return {"name": f"closed-form-{kind}-m{m}-{side}", "dim": n,
            "structure": spec,
            "f": "(" + " + ".join(f"x{k}^2" for k in range(1, n + 1))
                 + f") / 2 + x1 * x{n}",
            "F": F, "side": side, "box": [[-2.0, 2.0]] * n,
            "n_seeds": n_seeds, "rng_seed": rng_seed}


def graph_defect(X, m: int):
    """|v - g(u)| at each row of the (B, 2m) stack X."""
    u, v = X[:, :m], X[:, m:]
    g = 0.5 * np.sin(u) + 0.3 * np.roll(u, -1, axis=1) ** 2
    return np.linalg.norm(v - g, axis=1)


def dpsi(X, m: int):
    """DPsi = M [-Dg, I] at each row of X, (B, 2m, 2m)."""
    B, M = len(X), MATRICES[m]
    Dg = np.zeros((B, m, m))
    i = np.arange(m)
    Dg[:, i, i] = 0.5 * np.cos(X[:, :m])
    Dg[:, i, (i + 1) % m] = 0.6 * np.roll(X[:, :m], -1, axis=1)
    return M @ np.concatenate([-Dg, np.broadcast_to(np.eye(m), Dg.shape)],
                              axis=2)


def charts(m: int):
    """[det M[alpha] != 0] over the charts alpha in lexicographic order."""
    M = MATRICES[m]
    return np.array([round(np.linalg.det(M[list(a)])) != 0
                     for a in combinations(range(2 * m), m)])


def gamma_abs(X, m: int):
    """|m! Pf(DPsi^T - DPsi)| at each row of X, as m! sqrt|det|."""
    D = dpsi(X, m)
    return math.factorial(m) * np.sqrt(np.abs(np.linalg.det(
        D.transpose(0, 2, 1) - D)))
