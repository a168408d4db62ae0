"""Extraction and certification of the prescribed-gradient locus.

The locus of interest is the set of points where grad f(x) = C F(x)
(C the exact inverse attached to the chosen side) while the top wedge
power of C DF(x) is decisively nonzero (``integrability.decisive``).
Writing Phi = grad f - C F, ``on_locus`` is the one test of Phi = 0
(the solver's and ``certify``'s).  The certified
claims are: every such point lies on at least one chart (a choice of m
components of Phi whose m x 2m Jacobian block has numerical rank m), at
most binom(2m, m) distinct charts occur, and the point cloud's
box-counting dimension does not exceed m.

Box counting is a computable surrogate for the Hausdorff bound; every
report downstream carries that caveat.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, replace
from itertools import combinations
from numbers import Integral, Real

import numpy as np

from .errors import (DimensionMismatch, GradlocusError, InvalidOption,
                     OddDimension, TooFewPoints)
from .fields import ScalarField, VectorField
from .geometry import GeometricPair
from .integrability import (CHART_STACK_BYTES, TOL_GAMMA, _stack, chunk_rows,
                            decisive, gamma_obstruction, obstruction_matrix,
                            premultiply)

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# byte budget of the candidate pairs ``dedup`` tests at once
_DEDUP_BYTES = 1 << 22


@dataclass(frozen=True)
class LocusOptions:
    """Tolerances and knobs for locus extraction, the one owner of their
    pinned desk-scale defaults: every locus function reads them here.

    Construction raises InvalidOption unless the float fields are finite
    real numbers (not bool) above 0 (dedup_factor: at least 0), max_iters
    is an integer >= 1 and rng_seed an integer >= 0.
    """

    max_iters: int = 50
    tol_residual: float = 1e-10
    damping: float = 1e-3
    tol_gamma: float = TOL_GAMMA
    tol_rank: float = 1e-6
    dedup_factor: float = 1e-3
    rng_seed: int = 0

    def __post_init__(self):
        for name, least in (("max_iters", 1), ("rng_seed", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Integral) or v < least:
                raise InvalidOption(
                    name, f"expected an integer >= {least}, got {v!r}")
        for name in ("tol_residual", "damping", "tol_gamma", "tol_rank",
                     "dedup_factor"):
            v = getattr(self, name)
            op = ">=" if name == "dedup_factor" else ">"
            # abs(v) <= max is False for NaN, inf and ints beyond floats
            if (isinstance(v, bool) or not isinstance(v, Real)
                    or not abs(v) <= sys.float_info.max
                    or v < 0 or (v == 0 and op == ">")):
                raise InvalidOption(
                    name, f"expected a finite number {op} 0, got {v!r}")

    def with_overrides(self, **kw) -> "LocusOptions":
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw)


def on_locus(phi_norm, opts: LocusOptions):
    """||Phi|| <= opts.tol_residual, elementwise: the one on-locus test."""
    return phi_norm <= opts.tol_residual


@dataclass(frozen=True)
class PhiSystem:
    """Phi = grad f - C F with its Jacobian DPhi = Hess f - C DF."""

    pair: GeometricPair
    f: ScalarField
    F: VectorField
    side: str
    C: np.ndarray

    @property
    def dim(self) -> int:
        return self.pair.dim

    @property
    def m(self) -> int:
        return self.pair.dim // 2

    def phi(self, x):
        """(B, n) -> (B, n), NaN in the rows outside the domain; a row
        whose products overflow is not finite, with no warning."""
        grad, values = self.f.gradient(x)[1], self.F.value(x)
        with np.errstate(over="ignore", invalid="ignore"):
            return grad - values @ self.C.T

    def dphi(self, x):
        """(Phi, DPhi) on a (B, n) stack, (B, n) and (B, n, n), from one
        run of f's tape and one of F's; Phi is bit for bit phi(x), and
        each is NaN in the rows where it is undefined; a row whose
        products overflow is not finite, with no warning."""
        _, grad, hess = self.f.hessian(x)
        values, DF = self.F.jacobian(x)
        with np.errstate(over="ignore", invalid="ignore"):
            return grad - values @ self.C.T, hess - self.C @ DF


def build_phi(pair: GeometricPair, f: ScalarField, F: VectorField,
              side: str = "left") -> PhiSystem:
    """Assemble the Phi system for one side of the prescribed-gradient
    equation (left: C = Q^T, right: C = Q)."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    n = pair.dim
    if n % 2:
        raise OddDimension(f"dim: locus systems need even dimension, got {n}")
    if f.dim != n or F.dim != n:
        raise DimensionMismatch(
            f"field dimensions ({f.dim}, {F.dim}) != structure dimension {n}")
    return PhiSystem(pair=pair, f=f, F=F, side=side,
                     C=obstruction_matrix(pair, side))


OUTCOMES = ("converged", "domain", "non-finite step", "damping exhausted",
            "iteration cap")
_ACTIVE, _CONVERGED, _DOMAIN, _NONFINITE, _EXHAUSTED, _CAP = -1, 0, 1, 2, 3, 4


def _solve_rows(A, b):
    """Stacked solve of A x = b; a singular stack falls back to per-row
    solves.  Returns the solutions and the mask of rows solved."""
    try:
        return (np.linalg.solve(A, b[..., None])[..., 0],
                np.ones(len(A), dtype=bool))
    except np.linalg.LinAlgError:
        pass
    out = np.zeros_like(b)
    solved = np.ones(len(A), dtype=bool)
    for i in range(len(A)):
        try:
            out[i] = np.linalg.solve(A[i], b[i])
        except np.linalg.LinAlgError:
            solved[i] = False
    return out, solved


def _row_norms(r):
    """||r|| of each row of a (B, n) stack; one that overflows is inf,
    with no warning."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(r, axis=1)


def solve_from_seed(phi: PhiSystem, x0, opts: LocusOptions = LocusOptions()):
    """Damped least-squares (Levenberg-Marquardt) iteration on
    0.5 ||Phi||^2 from each seed, all seeds in lockstep.

    Every row keeps its own damping and iteration count: a step is taken
    when the new ||Phi|| is finite and smaller (damping / 3, floored at
    1e-14), otherwise the damping grows tenfold.  A row stops when
    ``on_locus`` holds, at the iteration cap, when the damping
    exceeds 1e12, on a non-finite step, or when Phi or DPhi is undefined
    at its current point (a non-finite row; a step to such a point is
    rejected).  A rank-deficient DPhi at the solution is the expected
    situation (the zero set is m-dimensional) and is no obstacle to the
    damped steps.  A row's result does not depend on the other rows, so
    a single seed is a batch of one.

    Phi and DPhi come from one ``PhiSystem.dphi`` at the seeds and at
    every trial point; an accepted row keeps only J^T J, J^T Phi and
    whether its DPhi is finite, which retires it as "domain" after the
    convergence and iteration-cap tests.

    x0 of shape (B, n) returns the final points and the per-row outcome,
    one of OUTCOMES; any other shape raises DimensionMismatch.
    """
    x = np.array(x0, dtype=float)
    n = phi.dim
    if x.ndim != 2 or x.shape[1] != n:
        raise DimensionMismatch(
            f"seeds must have shape (B, {n}), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("seed has non-finite entries")
    B = len(x)
    status = np.full(B, _ACTIVE)
    lam = np.full(B, float(opts.damping))
    iters = np.zeros(B, dtype=int)
    r, J = phi.dphi(x)
    status[~np.all(np.isfinite(r), axis=1)] = _DOMAIN
    rnorm = _row_norms(r)
    JtJ = np.empty((B, n, n))
    g = np.empty((B, n))
    defined = np.empty(B, dtype=bool)  # DPhi finite at the row's point

    def normal_equations(rows, J):
        """Store J^T J, J^T Phi and ``defined`` for rows with DPhi J."""
        Jt = J.transpose(0, 2, 1)
        with np.errstate(over="ignore"):  # overflow: a non-finite step
            JtJ[rows] = Jt @ J
            g[rows] = (Jt @ r[rows, :, None])[..., 0]
        defined[rows] = np.all(np.isfinite(J), axis=(1, 2))

    normal_equations(np.arange(B), J)
    eye = np.eye(n)
    while True:
        # a row whose last step was rejected fails these tests again
        status[(status == _ACTIVE) & on_locus(rnorm, opts)] = _CONVERGED
        status[(status == _ACTIVE) & (iters >= opts.max_iters)] = _CAP
        status[(status == _ACTIVE) & ~defined] = _DOMAIN
        status[(status == _ACTIVE) & (lam > 1e12)] = _EXHAUSTED
        idx = np.flatnonzero(status == _ACTIVE)
        if not idx.size:
            break
        step, solved = _solve_rows(JtJ[idx] + lam[idx, None, None] * eye,
                                   -g[idx])
        lam[idx[~solved]] *= 10.0
        finite = np.all(np.isfinite(step), axis=1)
        status[idx[solved & ~finite]] = _NONFINITE
        keep = solved & finite
        idx, trial = idx[keep], x[idx[keep]] + step[keep]
        r_new, J = phi.dphi(trial)
        rn_new = _row_norms(r_new)
        accept = np.isfinite(rn_new) & (rn_new < rnorm[idx])
        up = idx[accept]
        x[up], r[up], rnorm[up] = trial[accept], r_new[accept], rn_new[accept]
        normal_equations(up, J[accept])
        lam[up] = np.maximum(lam[up] / 3.0, 1e-14)
        iters[up] += 1
        lam[idx[~accept]] *= 10.0
    return x, np.array(OUTCOMES)[status]


def halton_sequence(count: int, dim: int, shift=None) -> np.ndarray:
    """First ``count`` Halton points in [0,1)^dim (bases: first dim
    primes), optionally rotated modulo 1 by a fixed shift vector
    (Cranley-Patterson).

    The radical inverses in base b are built level by level: those of
    0..b^(j+1)-1 are those of 0..b^j-1 plus d * b^-(j+1) for the new top
    digit d, added last, so each index sums its digits from the lowest
    up.  The last level stops at the digit of ``count``.
    """
    if dim > len(_PRIMES):
        raise DimensionMismatch(f"no Halton bases beyond dim {len(_PRIMES)}")
    out = np.empty((count, dim))
    if shift is not None:
        shift = np.broadcast_to(np.asarray(shift, dtype=float), (dim,))
    for d in range(dim):
        base = _PRIMES[d]
        col = np.zeros(1)  # the radical inverse of index 0
        factor = 1.0 / base
        while col.size <= count:
            top = min(base, count // col.size + 1)
            col = (col + (np.arange(top) * factor)[:, None]).ravel()
            factor /= base
        col = col[1:count + 1]
        if shift is not None:
            col += shift[d]
            col -= np.floor(col)  # bit for bit % 1.0 on finite values
        out[:, d] = col
    return out


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uniform_draw(seed: int, count: int) -> list[float]:
    """``numpy.random.default_rng(seed).random(count)`` bit for bit, as a
    list, without importing numpy.random (6 MB of resident memory).

    numpy's default generator is PCG64 (O'Neill, HMC-CS-2014-0905)
    seeded through SeedSequence: the seed's 32-bit words, least
    significant first, are hash-mixed into a pool of four words, which
    generate_state(4, uint64) expands into the 128-bit initial state and
    stream.  Each draw is one 128-bit LCG step with the XSL-RR output,
    whose top 53 bits make the double.  A negative seed raises
    ValueError, as numpy does.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    h = 0x43B0D7E5  # SeedSequence's running hash constant, for hashmix

    def hashmix(value):
        nonlocal h
        value ^= h
        h = h * 0x931E8875 & _MASK32
        value = value * h & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight 32-bit words, paired little-endian
    h, state = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ h
        h = h * 0x58F38DED & _MASK32
        value = value * h & _MASK32
        state.append(value ^ value >> 16)
    s0, s1, i0, i1 = (state[k] | state[k + 1] << 32 for k in range(0, 8, 2))
    # PCG64's srandom: state 0, step, add the initial state, step
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    s = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
    out = []
    for _ in range(count):
        s = (s * _PCG_MULT + inc) & _MASK128
        rot, x = s >> 122, (s >> 64 ^ s) & _MASK64
        x = (x >> rot | x << (-rot & 63)) & _MASK64
        out.append((x >> 11) * 2.0 ** -53)
    return out


def box_halton(box, count: int, rng_seed: int) -> np.ndarray:
    """The first ``count`` Halton points, rotated by a shift drawn from
    ``rng_seed``, mapped into a (dim, 2) box.

    The shift is ``numpy.random.default_rng(rng_seed).random(dim)`` bit
    for bit, computed without numpy.random (``_uniform_draw``); programs
    that recompute the points, such as the benchmark's oracles, rely on
    this.  A negative seed raises ValueError."""
    b = np.asarray(box, dtype=float)
    shift = _uniform_draw(rng_seed, len(b))
    pts = halton_sequence(count, len(b), shift)
    pts *= b[:, 1] - b[:, 0]
    pts += b[:, 0]
    return pts


def _box_array(box, dim: int) -> np.ndarray:
    b = np.asarray(box, dtype=float)
    if b.shape != (dim, 2):
        raise DimensionMismatch(f"box must have shape ({dim}, 2), got {b.shape}")
    # hi - lo is finite exactly when lo and hi are and it does not overflow
    with np.errstate(over="ignore"):
        if not np.all((b[:, 0] < b[:, 1]) & np.isfinite(b[:, 1] - b[:, 0])):
            raise ValueError("box intervals must satisfy lo < hi with a "
                             "finite hi - lo")
    return b


@dataclass(frozen=True, eq=False)
class Samples:
    """The verdicts ``certify`` gave a (B, n) stack, one row a point, as
    columns: ``x`` (B, n); ``phi_norm``, ``gamma_value``, ``gamma_scale``
    and ``obstructed`` (B,), a row being obstructed when it lies on the
    locus and its Gamma-power passes ``decisive``; and ``charts``, a
    (B, binom(2m, m)) bool matrix, column k for chart ``all_charts(m)[k]``.
    Compare two tables column by column (``np.array_equal``)."""

    x: np.ndarray
    phi_norm: np.ndarray
    gamma_value: np.ndarray
    gamma_scale: np.ndarray
    obstructed: np.ndarray
    charts: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    @property
    def certified(self) -> np.ndarray:
        return self.obstructed & self.charts.any(1)


def all_charts(m: int) -> list[tuple[int, ...]]:
    """Lexicographic enumeration of the binom(2m, m) index tuples."""
    return list(combinations(range(1, 2 * m + 1), m))


def chart_memberships(phi: PhiSystem, DPhi,
                      opts: LocusOptions = LocusOptions()):
    """Charts containing locus points: index tuples alpha whose rows of
    DPhi(x) form a matrix of numerical rank m at opts.tol_rank.  A
    (B, 2m, 2m) stack DPhi, the Jacobians at B points on the locus (as
    ``certify`` forms them), gives a (B, binom(2m, m)) bool matrix,
    column k for chart ``all_charts(m)[k]``; any other shape raises
    DimensionMismatch.  DPhi is not changed.

    A submatrix whose largest singular value is negligible against the
    full Jacobian (below 1e-12 of its spectral norm) is treated as
    zero, with the full Jacobian's scale as rank reference; otherwise
    the submatrix's own scale is used.  The spectral norm is computed
    only at the points where the Frobenius norm, its upper bound, leaves
    this open for some chart.  A point where DPhi is undefined lies on
    no chart.  All binom(2m, m) submatrices of all points go through one
    stacked SVD, in chunks of at most CHART_STACK_BYTES.
    """
    DPhi = _stack(phi.pair, DPhi)
    m = phi.m
    rows = np.array(all_charts(m)) - 1
    step = chunk_rows(CHART_STACK_BYTES, len(rows) * m * 2 * m * 8)
    members = np.empty((len(DPhi), len(rows)), dtype=bool)
    for lo in range(0, len(DPhi), step):
        J = DPhi[lo:lo + step]
        if not np.isfinite(J).all():  # a row where J is undefined: no chart
            J = np.where(np.isfinite(J).all((1, 2))[:, None, None], J, 0.0)
        sv = np.linalg.svd(J[:, rows, :], compute_uv=False)
        ref = sv[..., 0].copy()
        # sigma_1(J) <= ||J||_F, so a row whose every block has sigma_1 above
        # 2e-12 ||J||_F keeps its own; only the others need the spectral norm
        with np.errstate(over="ignore"):  # an inf takes the exact path
            fro = np.linalg.norm(J, axis=(1, 2))[:, None]
        exact = ~np.all(ref > 2e-12 * fro, axis=1)
        if exact.any():
            global_s1 = np.linalg.norm(J[exact], 2, axis=(1, 2))[:, None]
            ref[exact] = np.where(ref[exact] > 1e-12 * global_s1, ref[exact],
                                  global_s1)
        members[lo:lo + step] = np.sum(
            sv > opts.tol_rank * ref[..., None], axis=-1) == m
    return members


def certify(phi: PhiSystem, X,
            opts: LocusOptions = LocusOptions()) -> Samples:
    """The ``Samples`` table of the (B, n) stack X, one row per row of X,
    in order; any other shape raises DimensionMismatch.

    A row is obstructed when it lies on the locus (``on_locus``) and
    passes ``decisive`` with tol_gamma, and certified when it is
    obstructed and lies on at least one chart.  Charts are computed, in
    one batch, only for rows on the locus; rows off it get none and are
    never certified.  F's tape runs once, for N = C DF, and the charts'
    DPhi is Hess f - N on the rows on the locus, as ``PhiSystem.dphi``'s.
    """
    X = np.array(X, dtype=float)
    phi_norm = _row_norms(phi.phi(X))
    N = premultiply(phi.C, phi.F.jacobian(X)[1])
    values, scales = gamma_obstruction(phi.pair, N)
    on = on_locus(phi_norm, opts)
    DPhi = phi.f.hessian(X[on])[2]
    with np.errstate(over="ignore", invalid="ignore"):
        DPhi -= N[on]
    del N
    charts = np.zeros((len(X), math.comb(2 * phi.m, phi.m)), dtype=bool)
    charts[on] = chart_memberships(phi, DPhi, opts)
    return Samples(x=X, phi_norm=phi_norm, gamma_value=values,
                   gamma_scale=scales, charts=charts,
                   obstructed=on & decisive(values, scales, opts.tol_gamma))


def sample_locus(phi: PhiSystem, box, n_seeds: int,
                 opts: LocusOptions = LocusOptions()) -> Samples:
    """Extract locus samples from low-discrepancy seeds in the box.

    Seeds are ``box_halton(box, n_seeds, opts.rng_seed)``, solved in one
    batch by ``solve_from_seed``; converged points outside the box are
    dropped, the rest are sorted lexicographically, thinned by ``dedup``
    to a minimum separation of dedup_factor times the box diameter (the
    greedy rule in sorted order, compared within an x1 window) and
    certified, so the output is a deterministic function of (phi, box,
    n_seeds, opts).  A table of 0 rows is valid.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    b = _box_array(box, phi.dim)
    pts, outcome = solve_from_seed(phi, box_halton(b, n_seeds, opts.rng_seed),
                                   opts)
    pts = pts[(outcome == "converged") & np.all(pts >= b[:, 0], axis=1)
              & np.all(pts <= b[:, 1], axis=1)]
    order = np.lexsort(tuple(pts[:, d] for d in range(pts.shape[1] - 1, -1, -1)))
    pts = pts[order]

    radius = opts.dedup_factor * box_diameter(b[:, 0], b[:, 1])
    try:
        radius_sq = radius ** 2
    except OverflowError:  # beyond 1.3e154: every finite square is closer
        radius_sq = math.inf
    return certify(phi, pts[dedup(pts, radius_sq)], opts)


def dedup(pts, radius_sq: float):
    """Mask of the rows of the lexsorted (N, n) stack pts that the greedy
    rule keeps: a row is kept when no kept earlier row q has
    sum((q - p)**2) < radius_sq.

    A row closer than the radius to an earlier one has an x1 within the
    radius of that row's, so each row is compared only with the earlier
    rows in an ``np.searchsorted`` window on x1 that reaches back twice
    the radius plus the rounding of x1 (a superset of the pairs the test
    can find close).  Each pair is decided by the greedy rule's own
    expression, and only the rows with a close earlier row are resolved,
    in order.  The pairs are formed in chunks of at most _DEDUP_BYTES,
    so points sharing x1 cost O(N^2) time but not O(N^2) memory.  A
    squared distance that overflows reads inf and so is never close.
    """
    N, n = pts.shape
    keep = np.ones(N, dtype=bool)
    x1 = pts[:, 0]
    reach = (2.0 * math.sqrt(radius_sq)
             + 4.0 * np.spacing(np.abs(x1).max(initial=0.0)))
    first = np.searchsorted(x1, x1 - reach)  # first earlier row in reach
    count = np.arange(N) - first
    total = np.cumsum(count)  # pairs up to and including each row
    budget = chunk_rows(_DEDUP_BYTES, 8 * (2 * n + 3))  # pairs a chunk
    lo = 0
    while lo < N:
        hi = max(lo + 1, int(np.searchsorted(
            total, total[lo] - count[lo] + budget, side="right")))
        k = count[lo:hi]
        # row i pairs with first[i], ..., i - 1: a run of k[i] pairs
        rows = np.repeat(np.arange(lo, hi), k)
        run_start = np.cumsum(k) - k
        cols = np.arange(len(rows)) + np.repeat(first[lo:hi] - run_start, k)
        with np.errstate(over="ignore"):  # an overflow reads inf: not close
            close = np.sum((pts[cols] - pts[rows]) ** 2, axis=1) < radius_sq
        rows, cols = rows[close], cols[close]
        if rows.size:
            cuts = np.flatnonzero(np.diff(rows)) + 1
            for i, earlier in zip(rows[np.r_[0, cuts]].tolist(),
                                  np.split(cols, cuts)):
                keep[i] = not keep[earlier].any()
        lo = hi
    return keep


@dataclass(frozen=True)
class CoverReport:
    """Chart coverage accounting over one ``Samples`` table.

    ``uncovered_count`` counts samples that ``certify`` judged
    obstructed yet lie on no chart; the chart construction guarantees
    this stays zero.  ``per_chart`` counts the certified samples on each
    chart used, in ``all_charts`` order; the counts carry no nonemptiness
    claim.
    """

    total_samples: int
    certified_count: int
    uncovered_count: int
    charts_used: int
    chart_bound: int
    per_chart: dict[tuple[int, ...], int]

    @property
    def ok(self) -> bool:
        return self.uncovered_count == 0 and self.charts_used <= self.chart_bound


def verify_cover(samples: Samples) -> CoverReport:
    """Tally certification, uncovered points and distinct charts (bound:
    binom(2m, m), with 2m the width of ``samples.x``) from the columns
    ``certify`` filled."""
    m = samples.x.shape[1] // 2
    certified = samples.certified
    counts = samples.charts[certified].sum(0).tolist()
    per_chart = {c: k for c, k in zip(all_charts(m), counts) if k}
    return CoverReport(
        total_samples=len(samples),
        certified_count=int(certified.sum()),
        uncovered_count=int(np.sum(samples.obstructed
                                   & ~samples.charts.any(1))),
        charts_used=len(per_chart),
        chart_bound=math.comb(2 * m, m),
        per_chart=per_chart,
    )


DIMENSION_CAVEAT = (
    "box-counting slope is a finite-sample surrogate for the Hausdorff "
    "dimension bound"
)
MIN_DIMENSION_POINTS = 50


@dataclass(frozen=True)
class DimensionEstimate:
    estimate: float
    fit_r2: float
    scales: tuple[float, ...]
    counts: tuple[int, ...]
    used: tuple[bool, ...]
    note: str = DIMENSION_CAVEAT


def box_diameter(lo, hi) -> float:
    """||hi - lo||, the diagonal of the box [lo, hi]: the bits of
    ``np.linalg.norm(hi - lo)`` where that does not overflow, and
    otherwise the norm of hi - lo scaled by its largest |entry|, so the
    diameter is finite whenever the diagonal is."""
    with np.errstate(over="ignore"):
        width = np.subtract(hi, lo, dtype=float)
        diam = float(np.linalg.norm(width))
        top = float(np.abs(width).max(initial=0.0))
        if diam == math.inf and top < math.inf:
            diam = top * float(np.linalg.norm(width / top))
    return diam


def default_scales(diameter: float, n_scales: int = 8,
                   ratio: float = 2.0) -> tuple[float, ...]:
    """Geometric ladder: n_scales values starting at diameter/4."""
    if diameter <= 0:
        raise ValueError("diameter must be positive")
    return tuple(diameter / 4.0 / ratio ** k for k in range(n_scales))


def box_counting_dimension(points, scales=None) -> DimensionEstimate:
    """Least-squares slope of log N(eps) against log(1/eps).

    ``scales`` defaults to the geometric ladder over the point cloud's
    bounding box; pass an explicit ladder (e.g. built from a sampling
    box) to measure against an external reference frame.  Scales whose
    counts are saturated (close to the number of points) or nearly
    degenerate (fewer than 10 boxes) carry no slope information at
    finite sample size and are excluded from the fit whenever at least
    two informative scales remain.  Fewer than MIN_DIMENSION_POINTS
    points raise TooFewPoints, and a cloud whose extent hi - lo is not
    finite raises GradlocusError.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise DimensionMismatch(f"points must be 2-d, got shape {pts.shape}")
    if pts.shape[0] < MIN_DIMENSION_POINTS:
        raise TooFewPoints(f"need at least {MIN_DIMENSION_POINTS} points, "
                           f"got {pts.shape[0]}")
    lo = pts.min(axis=0)
    diam = box_diameter(lo, pts.max(axis=0))
    if not math.isfinite(diam):  # exactly when hi - lo is not finite
        raise GradlocusError("the extent hi - lo of the point cloud "
                             "is not finite")
    if scales is None:
        if diam == 0.0:
            return DimensionEstimate(estimate=0.0, fit_r2=1.0, scales=(),
                                     counts=(), used=())
        scales = default_scales(diam)
    scales = tuple(float(s) for s in scales)
    if not scales or any(s <= 0 for s in scales):
        raise ValueError("scales must be positive")

    counts = []
    for eps in scales:
        cells = np.floor((pts - lo) / eps).astype(np.int64)
        # distinct rows by a lexsort and a row-difference mask;
        # np.unique(axis=0) would import numpy.ma (~0.9 MB of peak RSS)
        cells = cells[np.lexsort(cells.T)]
        counts.append(1 + int(np.count_nonzero(
            np.any(cells[1:] != cells[:-1], axis=1))))
    counts_arr = np.array(counts)

    cap = max(8, pts.shape[0] // 3)
    mask = (counts_arr < cap) & (counts_arr >= 10)
    if mask.sum() < 2:
        mask = counts_arr < cap
    if mask.sum() < 2:
        mask = np.ones(len(scales), dtype=bool)

    xs = np.log(1.0 / np.array(scales)[mask])
    ys = np.log(counts_arr[mask].astype(float))
    A = np.vstack([xs, np.ones_like(xs)]).T
    sol, *_ = np.linalg.lstsq(A, ys, rcond=None)
    fitted = A @ sol
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DimensionEstimate(
        estimate=float(sol[0]),
        fit_r2=r2,
        scales=scales,
        counts=tuple(int(c) for c in counts_arr),
        used=tuple(bool(u) for u in mask),
    )
