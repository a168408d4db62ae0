"""Independent oracles shared by the test modules.

Everything here is deliberately written by a different route than the
library code: wedge signs come from explicit inversion counting on
index tuples, the antisymmetry 2-vector is accumulated straight from
its defining sum, and derivatives are approximated with central
differences; the dense jet carries every derivative over all
variables, where the sparse ``Jet`` of the reference walk carries only
those a value depends on, and the reference walk evaluates each
component's tree on its own, where a ``dsl.Tape`` shares equal subtrees.
"""

import csv
import functools
import math
from types import SimpleNamespace

import numpy as np

from gradlocus import dsl
from gradlocus.errors import DimensionMismatch, reading
from gradlocus.geometry import (FormKind, companion_map, make_form,
                                minkowski, pseudo_euclidean,
                                standard_euclidean, standard_symplectic)
from gradlocus.integrability import (GRAY_FACTOR, TOL_GAMMA, ProbeReport,
                                     decisive, equivalence_probe,
                                     gamma_obstruction, integrable,
                                     obstruction_matrix, residual)
from gradlocus.locus import _PRIMES, all_charts, box_halton

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


def pfaffian_matchings(A) -> float:
    """Pfaffian by its definition: the signed sum over the perfect
    matchings of {0..n-1}.  The sign of the matching (i1 j1)(i2 j2)...
    with i1 < i2 < ... and ik < jk is that of the permutation
    (i1 j1 i2 j2 ...)."""
    A = np.asarray(A, dtype=float)

    def matchings(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for k, second in enumerate(rest):
            for tail in matchings(rest[:k] + rest[k + 1:]):
                yield [(first, second)] + tail

    total = 0.0
    for pairing in matchings(list(range(A.shape[0]))):
        prod = 1.0
        for i, j in pairing:
            prod *= A[i, j]
        total += inversion_sign([k for pair in pairing for k in pair]) * prod
    return total


def antisymmetric_defect_norm(Q, DF, side) -> np.ndarray:
    """||N - N^T||_F at each point, N = C DF with C = Q^T on the left
    side and C = Q on every other side, one matrix at a time."""
    Q = np.asarray(Q, dtype=float)
    C = Q.T if side == "left" else Q
    return np.array([np.linalg.norm(C @ J - (C @ J).T, "fro") for J in DF])


def side_residual(pair, DF, side):
    """``residual`` of the side's N = C DF for each Jacobian of DF."""
    return residual(pair, obstruction_matrix(pair, side) @ DF).residual


def probe(pair, DF, tol=TOL_GAMMA):
    """``equivalence_probe`` on the Jacobian stack DF, with the left and
    right defects each from its own N."""
    return equivalence_probe(
        {side: residual(pair, obstruction_matrix(pair, side) @ DF)
         for side in ("left", "right")}, tol)


def probe_loop(pair, DF, tol):
    """The residual/obstruction equivalence probe one (point, side)
    check at a time, on a (B, n, n) Jacobian stack: the loop the masked
    ``equivalence_probe`` must reproduce, report and violation order
    included."""
    n = DF.shape[-1]
    violations, gray, checks, max_relative = [], 0, 0, []
    for side in ("left", "right"):
        N = obstruction_matrix(pair, side) @ DF
        D = N - np.swapaxes(N, 1, 2)
        res = np.empty(len(DF))
        for i, A in enumerate(D):
            # sqrt(2 sum_{p<q} (N_pq - N_qp)^2), the entries above the
            # diagonal row by row
            acc = 0.0
            for p in range(n):
                for q in range(p + 1, n):
                    acc += float(A[p, q]) * float(A[p, q])
            res[i] = math.sqrt(2.0 * acc)
        coeff = np.abs(D).max(axis=(1, 2))
        scale = 1.0 + np.sqrt(np.sum(N * N, axis=(1, 2)))
        res_rel = res / scale
        coeff_rel = coeff / scale
        for i in range(len(DF)):
            checks += 1
            in_gray = (
                tol / GRAY_FACTOR <= res_rel[i] <= tol * GRAY_FACTOR
                or tol / GRAY_FACTOR <= coeff_rel[i] <= tol * GRAY_FACTOR
            )
            if in_gray:
                gray += 1
                continue
            if (res_rel[i] <= tol) != (coeff_rel[i] <= tol):
                violations.append((i, side, float(res_rel[i]),
                                   float(coeff_rel[i])))
        max_relative.append((side, max(map(float, res_rel), default=0.0)))
    return ProbeReport(points=len(DF), checks=checks,
                       violations=len(violations), gray_excluded=gray,
                       tol=tol, violation_details=tuple(violations),
                       max_relative=tuple(max_relative))


def point_report(pair, F, x, side="left", tol=TOL_GAMMA):
    """The integrability verdicts at the one point x, from its stack of
    one: the per-point rules whose count and conjunction ``check``
    reports.  Both verdicts stay False in the gray zone and where DF is
    undefined."""
    N = obstruction_matrix(pair, side) @ F.jacobian(
        np.asarray(x, dtype=float)[None])[1]
    res = float(residual(pair, N).residual[0])
    values, scales = gamma_obstruction(pair, N)
    value, scale = float(values[0]), float(scales[0])
    return SimpleNamespace(
        residual=res, gamma_value=value, gamma_scale=scale, tol=tol,
        verdict_integrable=bool(integrable(
            res / (1.0 + np.sqrt(np.sum(N * N))), abs(value) / scale, tol)),
        verdict_nonintegrable=bool(decisive(value, scale, tol)))


def check_by_side(scenario, n_points):
    """The ``check.json`` payload without ``generated_at``, with the
    residual, its relative norm and the probe run once per side, whether
    or not sides share their obstruction matrix, and DF from the dense
    jets: the loop the one-pass-per-matrix ``cmd_check`` must reproduce
    bit for bit."""
    pair = companion_map(scenario.form)
    opts = scenario.options
    DF = dense_jacobian(scenario.F, box_halton(scenario.box_array(),
                                               n_points, opts.rng_seed))
    DF = DF[np.all(np.isfinite(DF), axis=(1, 2))]
    sides = ["left", "right"]
    if scenario.form.kind is FormKind.SYMMETRIC:
        sides.append("symmetric")
    if scenario.form.kind is FormKind.SKEW_SYMMETRIC and scenario.dim % 2 == 0:
        sides.append("symplectic")
    conditions = {}
    for side in sides:
        res = side_residual(pair, DF, side)
        rel = res / (1.0 + np.sqrt(np.sum(
            (obstruction_matrix(pair, side) @ DF) ** 2, axis=(1, 2))))
        conditions[side] = {"max": float(res.max()), "mean": float(res.mean()),
                            "max_relative": float(rel.max())}
    gamma_rel_max, n_decisive = 0.0, 0
    if scenario.dim % 2 == 0:
        values, scales = gamma_obstruction(
            pair, obstruction_matrix(pair, scenario.side) @ DF)
        gamma_rel_max = float((np.abs(values) / scales).max())
        n_decisive = int(np.count_nonzero(decisive(values, scales,
                                                   opts.tol_gamma)))
    report = probe_loop(pair, DF, opts.tol_gamma)
    if (conditions[scenario.side]["max_relative"] <= opts.tol_gamma
            and gamma_rel_max <= opts.tol_gamma):
        verdict = "integrable everywhere sampled"
    elif n_decisive > 0:
        verdict = "non-integrable obstruction present"
    else:
        verdict = "indeterminate"
    return {
        "scenario": scenario.name,
        "dim": scenario.dim,
        "side": scenario.side,
        "n_points": n_points,
        "domain_excluded": n_points - len(DF),
        "rng_seed": opts.rng_seed,
        "conditions": conditions,
        "obstruction": {"max_relative": gamma_rel_max,
                        "decisive_nonzero_points": n_decisive},
        "equivalence_probe": {"points": report.points,
                              "checks": report.checks,
                              "violations": report.violations,
                              "gray_excluded": report.gray_excluded},
        "verdict": verdict,
        "tolerances": {"residual": opts.tol_residual,
                       "gamma": opts.tol_gamma, "rank": opts.tol_rank},
        "note": "nonzero decisions use |value| > tol * scale with a 10x "
                "gray zone",
    }


# ---------------------------------------------------------------------------
# Solver oracle


def scalar_lm(phi, x0, opts):
    """Levenberg-Marquardt from one seed, one point at a time: the
    per-seed loop the lockstep batch solver must reproduce.  Returns the
    last point and its outcome, one of ``locus.OUTCOMES``; a point where
    Phi or DPhi is not finite (outside the domain, where the stack of
    one comes back NaN) ends the iteration with "domain"."""
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (phi.dim,):
        raise DimensionMismatch(f"seed must have shape ({phi.dim},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("seed has non-finite entries")
    lam = opts.damping
    eye = np.eye(phi.dim)
    r = phi.phi(x[None])[0]
    if not np.all(np.isfinite(r)):
        return x, "domain"
    rnorm = float(np.linalg.norm(r))
    for _ in range(opts.max_iters):
        if rnorm <= opts.tol_residual:
            return x, "converged"
        J = phi.dphi(x[None])[1][0]
        if not np.all(np.isfinite(J)):
            return x, "domain"
        JtJ = J.T @ J
        g = J.T @ r
        accepted = False
        while lam <= 1e12:
            try:
                step = np.linalg.solve(JtJ + lam * eye, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if not np.all(np.isfinite(step)):
                return x, "non-finite step"
            r_new = phi.phi((x + step)[None])[0]
            rn_new = float(np.linalg.norm(r_new))
            if np.isfinite(rn_new) and rn_new < rnorm:
                x = x + step
                r, rnorm = r_new, rn_new
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            return x, "damping exhausted"
    if rnorm <= opts.tol_residual:
        return x, "converged"
    return x, "iteration cap"


def scalar_lm_rows(phi, X, opts):
    """``scalar_lm`` over the rows of X, reported like ``solve_from_seed``:
    the final points and one outcome per row."""
    pts, outcome = np.array(X, dtype=float), []
    for i, x0 in enumerate(X):
        pts[i], reason = scalar_lm(phi, x0, opts)
        outcome.append(reason)
    return pts, np.array(outcome)


# ---------------------------------------------------------------------------
# Dedup oracle


def greedy_dedup(pts, radius_sq):
    """Mask of the rows of pts that the greedy loop keeps: in order, a row
    is kept when its squared distance to every kept row is at least
    radius_sq.  The one-row-at-a-time loop the windowed ``locus.dedup``
    must reproduce."""
    keep = np.zeros(len(pts), dtype=bool)
    buf = np.empty_like(pts)
    k = 0
    for i, p in enumerate(pts):
        if k == 0 or np.min(np.sum((buf[:k] - p) ** 2, axis=1)) >= radius_sq:
            buf[k] = p
            k += 1
            keep[i] = True
    return keep


# ---------------------------------------------------------------------------
# Chart oracle


def chart_loop(phi, X, opts):
    """Chart matrix of the rows of X the way ``certify`` reports it (row
    i, column k: x_i lies on chart ``all_charts(m)[k]``), one point and
    one m x 2m submatrix SVD at a time: the loop the stacked
    ``chart_memberships`` must reproduce.  Rows off the locus, or where
    Phi or DPhi is not finite, get none."""
    X = np.asarray(X, dtype=float)
    charts = all_charts(phi.m)
    out = np.zeros((len(X), len(charts)), dtype=bool)
    for i, x in enumerate(X):
        J = phi.dphi(x[None])[1][0]
        if not (np.linalg.norm(phi.phi(x[None])[0]) <= opts.tol_residual
                and np.all(np.isfinite(J))):
            continue
        global_s1 = float(np.linalg.norm(J, 2))
        for k, alpha in enumerate(charts):
            sub = J[[a - 1 for a in alpha], :]
            sv = np.linalg.svd(sub, compute_uv=False)
            s1 = float(sv[0])
            ref = s1 if s1 > 1e-12 * global_s1 else global_s1
            if ref == 0.0:
                continue
            if int(np.sum(sv > opts.tol_rank * ref)) == phi.m:
                out[i, k] = True
    return out


# ---------------------------------------------------------------------------
# CSV oracle


def sample_rows(samples):
    """The rows of a ``Samples`` table as one record each, the way the
    per-row writer reads them: x a tuple of floats, the charts a set of
    index tuples, and certified when obstructed and on some chart."""
    charts = all_charts(samples.x.shape[1] // 2)
    return [SimpleNamespace(
        x=tuple(x), phi_norm=r, gamma_value=v, gamma_scale=s,
        charts=frozenset(c for c, on in zip(charts, row) if on),
        certified=ok and any(row))
        for x, r, v, s, row, ok in zip(
            samples.x.tolist(), samples.phi_norm.tolist(),
            samples.gamma_value.tolist(), samples.gamma_scale.tolist(),
            samples.charts.tolist(), samples.obstructed.tolist())]


def _fmt_float(v) -> str:
    return repr(float(v))


def write_points_csv(path, dim: int, m: int, samples):
    """points.csv of the per-row records ``sample_rows`` gives, one
    ``csv.writer`` row each with the chart mask summed bit by bit: the
    writer the columnar ``cli._write_points_csv`` must match byte for
    byte."""
    chart_pos = {c: i for i, c in enumerate(all_charts(m))}
    with reading("out"), open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{i + 1}" for i in range(dim)]
                        + ["phi_norm", "gamma_value", "gamma_scale",
                           "chart_mask", "certified"])
        for s in samples:
            mask = sum(1 << chart_pos[c] for c in s.charts)
            writer.writerow([_fmt_float(v) for v in s.x]
                            + [_fmt_float(s.phi_norm),
                               _fmt_float(s.gamma_value),
                               _fmt_float(s.gamma_scale),
                               str(mask), "1" if s.certified else "0"])


# ---------------------------------------------------------------------------
# Halton oracle


def halton_loop(count, dim, shift=None):
    """The first ``count`` Halton points in [0, 1)^dim, one integer
    base-p digit at a time until every index is spent, then rotated by
    ``shift`` with ``% 1.0``: the loop the level-by-level build of
    ``halton_sequence`` must reproduce bit for bit."""
    out = np.empty((count, dim))
    for d in range(dim):
        base = _PRIMES[d]
        idx = np.arange(1, count + 1)
        col = np.zeros(count)
        factor = 1.0 / base
        while idx.max() > 0:
            col += (idx % base) * factor
            idx //= base
            factor /= base
        out[:, d] = col
    if shift is not None:
        out = (out + np.asarray(shift, dtype=float)) % 1.0
    return out


# ---------------------------------------------------------------------------
# Per-component reference walk

# The walk that ``dsl`` ran before its tapes: one tree at a time, one
# ``Jet`` object per node, the union of two operands' variables formed
# and both widened each time a rule runs, no subtree shared.  The tape
# applies the same rules operation for operation, so the two agree bit
# for bit, the sign of zero included.


@functools.lru_cache(maxsize=1024)
def _placement(vars, union):
    """(rows, cols) of a block over ``vars`` in one over ``union``, as
    slices where they are contiguous (faster to assign than arrays)."""
    pos = [union.index(v) for v in vars]
    if pos[-1] - pos[0] == len(pos) - 1:
        cols = slice(pos[0], pos[-1] + 1)
        return cols, cols
    cols = np.array(pos)
    return cols[:, None], cols


def _place(block, vars, union, out=None):
    """A derivative block over ``vars`` (gradients (B, k) or Hessians
    (B, k, k)) written into its place in ``out``, a zeroed block over the
    sorted superset ``union`` (a new one when None), which it returns;
    the block itself when it covers ``union`` and no ``out`` is given."""
    if out is None and vars == union:
        return block
    if out is None:
        out = np.zeros(block.shape[:1] + (len(union),) * (block.ndim - 1))
    rows, cols = _placement(vars, union)
    if block.ndim == 2:
        out[:, cols] = block
    else:
        out[:, rows, cols] = block
    return out


class Jet:
    """Truncated Taylor value over a batch, sparse in the variables:
    ``vars`` is the sorted tuple of the 0-based variables it depends on,
    and value (B,), gradient (B, k) and, for a second-order jet, Hessian
    (B, k, k) cover those k variables; ``hess`` is None at order 1.

    A rule on two jets first widens both to the union of their ``vars``
    with zeros, then computes as a dense jet would, so each column it
    keeps is the dense one (Griewank & Walther, *Evaluating
    Derivatives*, 2008, ch. 7).  The Hessian is built from symmetric
    outer-product pairs, so its skew part is zero up to the exact
    commutativity of IEEE addition and multiplication.
    """

    __slots__ = ("val", "grad", "hess", "vars")

    def __init__(self, val, grad, hess=None, *, vars):
        self.val = val
        self.grad = grad
        self.hess = hess
        self.vars = vars

    def _like(self, val, grad, hess=None):
        return Jet(val, grad, hess, vars=self.vars)

    def _widen(self, union):
        """This jet over the variables ``union``, a sorted superset of
        its own, with zero derivatives in the variables it lacks."""
        if union == self.vars:
            return self
        return Jet(self.val, _place(self.grad, self.vars, union),
                   None if self.hess is None
                   else _place(self.hess, self.vars, union), vars=union)

    def _union(self, o):
        """self and o widened to the union of their variables."""
        if self.vars == o.vars:
            return self, o
        union = tuple(sorted({*self.vars, *o.vars}))
        return self._widen(union), o._widen(union)

    def __add__(self, o):
        if isinstance(o, Jet):
            a, o = self._union(o)
            return a._like(a.val + o.val, a.grad + o.grad,
                           None if a.hess is None else a.hess + o.hess)
        return self._like(self.val + o, self.grad, self.hess)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Jet):
            a, o = self._union(o)
            return a._like(a.val - o.val, a.grad - o.grad,
                           None if a.hess is None else a.hess - o.hess)
        return self._like(self.val - o, self.grad, self.hess)

    def __rsub__(self, o):
        return -self + o  # o - a == (-a) + o exactly in IEEE arithmetic

    def __neg__(self):
        return self._like(-self.val, -self.grad,
                          None if self.hess is None else -self.hess)

    def __mul__(self, o):
        if not isinstance(o, Jet):
            return self._like(self.val * o, self.grad * o,
                              None if self.hess is None else self.hess * o)
        a, o = self._union(o)
        v1, v2 = a.val, o.val
        grad = v1[:, None] * o.grad + v2[:, None] * a.grad
        if a.hess is None:
            return a._like(v1 * v2, grad)
        return a._like(v1 * v2, grad,
                       v1[:, None, None] * o.hess + v2[:, None, None] * a.hess
                       + _outer(a.grad, o.grad) + _outer(o.grad, a.grad))

    __rmul__ = __mul__

    def __truediv__(self, o):
        if not isinstance(o, Jet):
            return self._like(self.val / o, self.grad / o,
                              None if self.hess is None else self.hess / o)
        a, o = self._union(o)
        w = o.val
        v = a.val / w
        g = (a.grad - v[:, None] * o.grad) / w[:, None]
        if a.hess is None:
            return a._like(v, g)
        return a._like(v, g, (a.hess - v[:, None, None] * o.hess
                              - _outer(g, o.grad) - _outer(o.grad, g))
                       / w[:, None, None])

    def __rtruediv__(self, o):
        w = self.val
        v = o / w
        g = -(v / w)[:, None] * self.grad
        if self.hess is None:
            return self._like(v, g)
        return self._like(v, g, (-_outer(g, self.grad) - _outer(self.grad, g)
                                 - v[:, None, None] * self.hess)
                          / w[:, None, None])

    def __pow__(self, k: int):
        if k == 0:
            return self._like(np.ones_like(self.val), np.zeros_like(self.grad),
                              None if self.hess is None
                              else np.zeros_like(self.hess))
        if k == 1:
            return self
        return self._chain(self.val ** k, k * self.val ** (k - 1),
                           lambda: k * (k - 1) * self.val ** (k - 2))

    def _chain(self, v, d1, d2, grad=None):
        """g(self) for a scalar function g with value v and g' = d1;
        d2() gives g'' and is called only for a second-order jet."""
        if grad is None:
            grad = d1[:, None] * self.grad
        if self.hess is None:
            return self._like(v, grad)
        return self._like(v, grad, d1[:, None, None] * self.hess
                          + d2()[:, None, None] * _outer(self.grad, self.grad))

    def sin(self):
        s, c = np.sin(self.val), np.cos(self.val)
        return self._chain(s, c, lambda: -s)

    def cos(self):
        s, c = np.sin(self.val), np.cos(self.val)
        return self._chain(c, -s, lambda: -c)

    def exp(self):
        e = np.exp(self.val)
        return self._chain(e, e, lambda: e)

    def log(self):
        inv = 1.0 / self.val
        return self._chain(np.log(self.val), inv, lambda: -inv * inv,
                           grad=self.grad / self.val[:, None])


def _flag(undefined, flags: list):
    """Records the mask ``undefined`` if it holds on any row."""
    if np.any(undefined):
        flags.append(undefined)


def _undefined(flags: list, *checked) -> list:
    """The masks of flags and of the rows where a checked array is not
    finite, as a new list."""
    masks = list(flags)
    for a in checked:
        finite = np.isfinite(a)
        if not finite.all():
            _flag(~finite.all(axis=tuple(range(1, a.ndim))), masks)
    return masks


def settle(flags: list, out, *checked):
    """out with NaN in the rows that are flagged or where a checked array
    is not finite."""
    for undefined in _undefined(flags, *checked):
        out[undefined] = np.nan
    return out


def _raw(v):
    return getattr(v, "val", v)  # a jet's value; a plain value as it is


def walk(expr, seeds, flags: list):
    """Value of the tree on the seeds, plain arrays or jets (any type
    with a ``val`` and Jet's rules); the rows in flags are meaningless.
    One loop over the postorder with a stack of operand values: a
    binary node pops its left operand (``pop(-2)``) before its right
    one, so each operation runs in the order of a recursive walk and no
    operand outlives the operation that uses it."""
    stack = []
    for e in expr.postorder:
        t = type(e)
        if t is dsl.Var:
            try:
                stack.append(seeds[e.index - 1])
            except IndexError:
                raise DimensionMismatch(f"variable x{e.index} exceeds "
                                        f"dimension {len(seeds)}") from None
        # the explicit checks catch undefined points whose value is finite,
        # such as exp(-1/x1^2) or (1/x1)^0 at x1 = 0
        elif t is dsl.Pow:
            if e.exponent < 0:
                _flag(_raw(stack[-1]) == 0.0, flags)
            stack.append(stack.pop() ** e.exponent)
        elif t is dsl.Add:
            stack.append(stack.pop(-2) + stack.pop())
        elif t is dsl.Const:  # a numpy scalar divides by 0 with no error
            stack.append(np.float64(e.value))
        elif t is dsl.Sub:
            stack.append(stack.pop(-2) - stack.pop())
        elif t is dsl.Mul:
            stack.append(stack.pop(-2) * stack.pop())
        elif t is dsl.Div:
            _flag(_raw(stack[-1]) == 0.0, flags)
            stack.append(stack.pop(-2) / stack.pop())
        elif t is dsl.Neg:
            stack.append(-stack.pop())
        elif t is dsl.Call:
            if e.func == "log":
                _flag(_raw(stack[-1]) <= 0.0, flags)
            arg = stack.pop()
            stack.append(getattr(arg, e.func)() if hasattr(arg, "val")
                         else getattr(np, e.func)(arg))
    return stack[0]


def walk_evaluate(expr, x):
    """``dsl.evaluate`` of one tree by the reference walk."""
    X = dsl._as_batch(x)
    flags = []
    with np.errstate(all="ignore"):
        out = walk(expr, [X[:, i] for i in range(X.shape[1])], flags)
    out = np.array(np.broadcast_to(np.asarray(out, dtype=float), (len(X),)))
    return settle(flags, out, out)


def walk_jet(expr, x, order: int):
    """``dsl.gradient`` (order 1) or ``dsl.hessian`` (order 2) of one
    tree by the reference walk, with the same outputs and NaN rows."""
    X = dsl._as_batch(x)
    B, n = X.shape
    ones = np.ones((B, 1))
    zeros = np.zeros((B, 1, 1)) if order == 2 else None
    seeds = [Jet(X[:, i], ones, zeros, vars=(i,)) for i in range(n)]
    flags = []
    with np.errstate(all="ignore"):
        top = walk(expr, seeds, flags)
    if not isinstance(top, Jet):  # constant expression
        top = Jet(np.broadcast_to(np.asarray(top, float), (B,)),
                  np.zeros((B, n)), np.zeros((B, n, n)) if order == 2
                  else None, vars=tuple(range(n)))
    flags, every = _undefined(flags, top.val), tuple(range(n))
    value = settle(flags, np.array(top.val))
    grad = settle(flags, _place(np.array(top.grad), top.vars, every),
                  top.grad)
    if order == 1:
        return value, grad
    hess = settle(flags, _place(np.array(top.hess), top.vars, every),
                  top.hess)
    return value, grad, 0.5 * (hess + hess.transpose(0, 2, 1))


def walk_components(components, x, order: int):
    """``dsl.evaluate`` (order 0), ``gradient`` or ``hessian`` of a tape
    of components, one reference walk per component, stacked on the
    component axis."""
    if order == 0:
        return np.stack([walk_evaluate(c, x) for c in components], axis=1)
    parts = [walk_jet(c, x, order) for c in components]
    return tuple(np.stack(p, axis=1) for p in zip(*parts))


# ---------------------------------------------------------------------------
# Derivative oracles


def _outer(g1, g2):
    return g1[:, :, None] * g2[:, None, :]


class DenseJet:
    """Jet dense in the variables, the oracle of the sparse ``Jet``:
    value (B,), gradient (B, n) and, for a second-order jet, Hessian
    (B, n, n) over every variable, whether the value depends on it or
    not; ``hess`` is None for a first-order jet.

    Each rule computes the gradient the same way at both orders and the
    Hessian term only when there is one.  The Hessian is built from
    symmetric outer-product pairs, so its skew part is zero up to the
    exact commutativity of IEEE addition and multiplication.
    """

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad, hess=None):
        self.val = val
        self.grad = grad
        self.hess = hess

    def __add__(self, o):
        if isinstance(o, DenseJet):
            return DenseJet(self.val + o.val, self.grad + o.grad,
                            None if self.hess is None else self.hess + o.hess)
        return DenseJet(self.val + o, self.grad, self.hess)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, DenseJet):
            return DenseJet(self.val - o.val, self.grad - o.grad,
                            None if self.hess is None else self.hess - o.hess)
        return DenseJet(self.val - o, self.grad, self.hess)

    def __rsub__(self, o):
        return -self + o  # o - a == (-a) + o exactly in IEEE arithmetic

    def __neg__(self):
        return DenseJet(-self.val, -self.grad,
                        None if self.hess is None else -self.hess)

    def __mul__(self, o):
        if not isinstance(o, DenseJet):
            return DenseJet(self.val * o, self.grad * o,
                            None if self.hess is None else self.hess * o)
        v1, v2 = self.val, o.val
        grad = v1[:, None] * o.grad + v2[:, None] * self.grad
        if self.hess is None:
            return DenseJet(v1 * v2, grad)
        return DenseJet(v1 * v2, grad,
                        v1[:, None, None] * o.hess
                        + v2[:, None, None] * self.hess
                        + _outer(self.grad, o.grad)
                        + _outer(o.grad, self.grad))

    __rmul__ = __mul__

    def __truediv__(self, o):
        if not isinstance(o, DenseJet):
            return DenseJet(self.val / o, self.grad / o,
                            None if self.hess is None else self.hess / o)
        w = o.val
        v = self.val / w
        g = (self.grad - v[:, None] * o.grad) / w[:, None]
        if self.hess is None:
            return DenseJet(v, g)
        return DenseJet(v, g, (self.hess - v[:, None, None] * o.hess
                               - _outer(g, o.grad) - _outer(o.grad, g))
                        / w[:, None, None])

    def __rtruediv__(self, o):
        w = self.val
        v = o / w
        g = -(v / w)[:, None] * self.grad
        if self.hess is None:
            return DenseJet(v, g)
        return DenseJet(v, g, (-_outer(g, self.grad) - _outer(self.grad, g)
                               - v[:, None, None] * self.hess)
                        / w[:, None, None])

    def __pow__(self, k: int):
        if k == 0:
            return DenseJet(np.ones_like(self.val), np.zeros_like(self.grad),
                            None if self.hess is None
                            else np.zeros_like(self.hess))
        if k == 1:
            return self
        return self._chain(self.val ** k, k * self.val ** (k - 1),
                           lambda: k * (k - 1) * self.val ** (k - 2))

    def _chain(self, v, d1, d2, grad=None):
        """g(self) for a scalar function g with value v and g' = d1;
        d2() gives g'' and is called only for a second-order jet."""
        if grad is None:
            grad = d1[:, None] * self.grad
        if self.hess is None:
            return DenseJet(v, grad)
        return DenseJet(v, grad, d1[:, None, None] * self.hess
                        + d2()[:, None, None] * _outer(self.grad, self.grad))

    def sin(self):
        s, c = np.sin(self.val), np.cos(self.val)
        return self._chain(s, c, lambda: -s)

    def cos(self):
        s, c = np.sin(self.val), np.cos(self.val)
        return self._chain(c, -s, lambda: -c)

    def exp(self):
        e = np.exp(self.val)
        return self._chain(e, e, lambda: e)

    def log(self):
        inv = 1.0 / self.val
        return self._chain(np.log(self.val), inv, lambda: -inv * inv,
                           grad=self.grad / self.val[:, None])


def dense_derivative(expr, X, order):
    """``dsl.gradient`` (order 1) or ``dsl.hessian`` (order 2) on a
    (B, n) stack computed with DenseJet: the same tree walk and domain
    rules, with every derivative carried over all n variables."""
    X = dsl._as_batch(X)
    B, n = X.shape
    seeds = []
    for i in range(n):
        g = np.zeros((B, n))
        g[:, i] = 1.0
        seeds.append(DenseJet(X[:, i], g,
                              np.zeros((B, n, n)) if order == 2 else None))
    flags = []
    with np.errstate(all="ignore"):
        out = walk(expr, seeds, flags)
    if isinstance(out, DenseJet):
        val, top = out.val, out.grad if order == 1 else out.hess
    else:  # constant expression
        val, top = np.asarray(out, float), np.zeros((B,) + (n,) * order)
    top = np.array(top)
    settle(flags, top, top, val)
    if order == 2:
        top = 0.5 * (top + top.transpose(0, 2, 1))
    return top


def dense_jacobian(F, X):
    """``F.jacobian`` on a (B, n) batch, from ``dense_derivative``."""
    return np.stack([dense_derivative(c, X, 1) for c in F.components],
                    axis=-2)


def dense_phi(phi, X):
    """(Phi, DPhi) of a ``PhiSystem`` on a (B, n) stack, assembled from
    separate walks: grad f - F C^T and Hess f - C DF, with the
    derivatives from ``dense_derivative`` and ``dense_jacobian``."""
    F = np.stack([dsl.evaluate(c, X) for c in phi.F.components], axis=1)
    return (dense_derivative(phi.f.expr, X, 1) - F @ phi.C.T,
            dense_derivative(phi.f.expr, X, 2)
            - phi.C @ dense_jacobian(phi.F, X))


def central_gradient(fun, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (fun(xp) - fun(xm)) / (2 * h)
    return out


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
