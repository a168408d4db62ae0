"""Extraction and certification of the prescribed-gradient locus.

The locus of interest is the set of points where grad f(x) = C F(x)
(C the exact inverse attached to the chosen side) while the top wedge
power of C DF(x) stays away from zero.  Writing Phi = grad f - C F,
the certified claims are: every such point lies on at least one chart
(a choice of m components of Phi whose m x 2m Jacobian block has
numerical rank m), at most binom(2m, m) distinct charts occur, and the
point cloud's box-counting dimension does not exceed m.

Box counting is a computable surrogate for the Hausdorff bound; every
report downstream carries that caveat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .errors import (DimensionMismatch, Diverged, DomainError, GradlocusError,
                     OddDimension, TooFewPoints)
from .fields import ScalarField, VectorField
from .geometry import GeometricPair
from .integrability import gamma_obstruction, obstruction_matrix

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class LocusOptions:
    """Tolerances and knobs for locus extraction; defaults are the
    pinned desk-scale values."""

    max_iters: int = 50
    tol_residual: float = 1e-10
    damping: float = 1e-3
    tol_gamma: float = 1e-8
    tol_rank: float = 1e-6
    dedup_factor: float = 1e-3
    rng_seed: int = 0

    def with_overrides(self, **kw) -> "LocusOptions":
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw)


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
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = x[None, :] if single else x
        out = self.f.gradient(X) - self.F.value(X) @ self.C.T
        return out[0] if single else out

    def dphi(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = x[None, :] if single else x
        out = self.f.hessian(X) - self.C @ self.F.jacobian(X)
        return out[0] if single else out


def build_phi(pair: GeometricPair, f: ScalarField, F: VectorField,
              side: str = "left") -> PhiSystem:
    """Assemble the Phi system for one side of the prescribed-gradient
    equation (left: C = Q^T, right: C = Q)."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    n = pair.dim
    if n % 2:
        raise OddDimension(f"locus systems need even dimension, got {n}")
    if f.dim != n or F.dim != n:
        raise DimensionMismatch(
            f"field dimensions ({f.dim}, {F.dim}) != structure dimension {n}")
    return PhiSystem(pair=pair, f=f, F=F, side=side,
                     C=obstruction_matrix(pair, side))


def solve_from_seed(phi: PhiSystem, x0, opts: LocusOptions = LocusOptions()):
    """Damped least-squares (Levenberg-Marquardt) iteration on
    0.5 ||Phi||^2 from the given seed.

    Returns the converged point (||Phi|| <= tol_residual).  A
    rank-deficient DPhi at the solution is the expected situation (the
    zero set is m-dimensional) and is no obstacle to the damped steps.
    Raises Diverged on the iteration cap, a non-finite step, or
    unbounded damping growth.
    """
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (phi.dim,):
        raise DimensionMismatch(f"seed must have shape ({phi.dim},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("seed has non-finite entries")
    lam = opts.damping
    eye = np.eye(phi.dim)
    r = phi.phi(x)
    rnorm = float(np.linalg.norm(r))
    for _ in range(opts.max_iters):
        if rnorm <= opts.tol_residual:
            return x
        J = phi.dphi(x)
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
                raise Diverged("non-finite step", last_point=x,
                               last_residual=rnorm)
            try:
                r_new = phi.phi(x + step)
                rn_new = float(np.linalg.norm(r_new))
            except DomainError:
                rn_new = np.inf
            if np.isfinite(rn_new) and rn_new < rnorm:
                x = x + step
                r, rnorm = r_new, rn_new
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            raise Diverged("damping exhausted without residual decrease",
                           last_point=x, last_residual=rnorm)
    if rnorm <= opts.tol_residual:
        return x
    raise Diverged(f"no convergence in {opts.max_iters} iterations",
                   last_point=x, last_residual=rnorm)


def halton_sequence(count: int, dim: int, shift=None) -> np.ndarray:
    """First ``count`` Halton points in [0,1)^dim (bases: first dim
    primes), optionally rotated modulo 1 by a fixed shift vector
    (Cranley-Patterson)."""
    if dim > len(_PRIMES):
        raise DimensionMismatch(f"no Halton bases beyond dim {len(_PRIMES)}")
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


def _box_array(box, dim: int) -> np.ndarray:
    b = np.asarray(box, dtype=float)
    if b.shape != (dim, 2):
        raise DimensionMismatch(f"box must have shape ({dim}, 2), got {b.shape}")
    if not np.all(b[:, 0] < b[:, 1]):
        raise ValueError("box intervals must satisfy lo < hi")
    return b


@dataclass(frozen=True)
class LocusSample:
    """A converged near-zero of Phi with its certification data."""

    x: tuple[float, ...]
    phi_norm: float
    gamma_value: float
    gamma_scale: float
    charts: frozenset[tuple[int, ...]]
    certified: bool

    @property
    def point(self) -> np.ndarray:
        return np.array(self.x)


def all_charts(m: int) -> list[tuple[int, ...]]:
    """Lexicographic enumeration of the binom(2m, m) index tuples."""
    return list(combinations(range(1, 2 * m + 1), m))


def rank_with_tolerance(mat, tol: float) -> int:
    """Number of singular values above tol * sigma_max (0 for the zero
    matrix)."""
    sv = np.linalg.svd(np.asarray(mat, dtype=float), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def chart_memberships(phi: PhiSystem, x, tol_rank: float = 1e-6,
                      tol_residual: float = 1e-10) -> frozenset:
    """Charts containing a locus point: index tuples alpha whose rows
    of DPhi(x) form a matrix of numerical rank m.

    A submatrix whose largest singular value is negligible against the
    full Jacobian (below 1e-12 of its spectral norm) is treated as
    zero, with the full Jacobian's scale as rank reference; otherwise
    the submatrix's own scale is used.
    """
    x = np.asarray(x, dtype=float)
    res = float(np.linalg.norm(phi.phi(x)))
    if res > tol_residual:
        raise GradlocusError(
            f"chart membership requested off the locus: ||Phi|| = {res:.3e}")
    J = phi.dphi(x)
    global_s1 = float(np.linalg.norm(J, 2))
    m = phi.m
    members = []
    for alpha in all_charts(m):
        sub = J[[a - 1 for a in alpha], :]
        sv = np.linalg.svd(sub, compute_uv=False)
        s1 = float(sv[0])
        ref = s1 if s1 > 1e-12 * global_s1 else global_s1
        if ref == 0.0:
            continue
        if int(np.sum(sv > tol_rank * ref)) == m:
            members.append(alpha)
    return frozenset(members)


def certify(phi: PhiSystem, X,
            opts: LocusOptions = LocusOptions()) -> list[LocusSample]:
    """Certification data for each row of X, in order.

    A row is certified when it lies on the locus (||Phi|| <=
    tol_residual), is obstructed (|Gamma| > tol_gamma * scale) and lies
    on at least one chart.  Charts are computed only for rows on the
    locus; rows off it get none and are never certified.
    """
    X = np.asarray(X, dtype=float)
    phi_norms = np.linalg.norm(phi.phi(X), axis=1)
    values, scales = gamma_obstruction(phi.pair, phi.F, X, phi.side)
    samples = []
    for x, phi_norm, value, scale in zip(X, phi_norms, values, scales):
        on_locus = phi_norm <= opts.tol_residual
        charts = (chart_memberships(phi, x, tol_rank=opts.tol_rank,
                                    tol_residual=opts.tol_residual)
                  if on_locus else frozenset())
        samples.append(LocusSample(
            x=tuple(float(v) for v in x),
            phi_norm=float(phi_norm),
            gamma_value=float(value),
            gamma_scale=float(scale),
            charts=charts,
            certified=bool(on_locus and abs(value) > opts.tol_gamma * scale
                           and charts),
        ))
    return samples


def sample_locus(phi: PhiSystem, box, n_seeds: int,
                 opts: LocusOptions = LocusOptions()) -> list[LocusSample]:
    """Extract locus samples from low-discrepancy seeds in the box.

    Seeds follow the Halton sequence rotated by an rng_seed-derived
    shift; converged points outside the box are dropped, the rest are
    sorted lexicographically, thinned to a minimum separation of
    dedup_factor times the box diameter and certified, so the output
    is a deterministic function of (phi, box, n_seeds, opts).  An
    empty result is valid.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    b = _box_array(box, phi.dim)
    rng = np.random.default_rng(opts.rng_seed)
    shift = rng.random(phi.dim)
    seeds = halton_sequence(n_seeds, phi.dim, shift)
    seeds = b[:, 0] + seeds * (b[:, 1] - b[:, 0])

    converged = []
    for seed in seeds:
        try:
            x = solve_from_seed(phi, seed, opts)
        except (Diverged, DomainError):
            continue
        if np.all(x >= b[:, 0]) and np.all(x <= b[:, 1]):
            converged.append(x)
    if not converged:
        return []
    pts = np.array(converged)
    order = np.lexsort(tuple(pts[:, d] for d in range(pts.shape[1] - 1, -1, -1)))
    pts = pts[order]

    diam = float(np.linalg.norm(b[:, 1] - b[:, 0]))
    radius_sq = (opts.dedup_factor * diam) ** 2
    buf = np.empty_like(pts)
    k = 0
    for p in pts:
        if k == 0 or np.min(np.sum((buf[:k] - p) ** 2, axis=1)) >= radius_sq:
            buf[k] = p
            k += 1
    return certify(phi, buf[:k], opts)


@dataclass(frozen=True)
class CoverReport:
    """Chart coverage accounting over one sample list.

    ``uncovered_count`` counts samples that satisfy the analytic
    membership conditions yet lie on no chart; the chart construction
    guarantees this stays zero.  Per-chart counts are reported without
    any nonemptiness claim for individual charts.
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


def verify_cover(samples, m: int, tol_residual: float = 1e-10,
                 tol_gamma: float = 1e-8) -> CoverReport:
    """Tally certification, uncovered points and distinct charts."""
    certified = [s for s in samples if s.certified]
    uncovered = [
        s for s in samples
        if s.phi_norm <= tol_residual
        and abs(s.gamma_value) > tol_gamma * s.gamma_scale
        and not s.charts
    ]
    per_chart: dict[tuple[int, ...], int] = {}
    for s in certified:
        for chart in sorted(s.charts):
            per_chart[chart] = per_chart.get(chart, 0) + 1
    return CoverReport(
        total_samples=len(samples),
        certified_count=len(certified),
        uncovered_count=len(uncovered),
        charts_used=len(per_chart),
        chart_bound=math.comb(2 * m, m),
        per_chart=per_chart,
    )


DIMENSION_CAVEAT = (
    "box-counting slope is a finite-sample surrogate for the Hausdorff "
    "dimension bound"
)


@dataclass(frozen=True)
class DimensionEstimate:
    estimate: float
    fit_r2: float
    scales: tuple[float, ...]
    counts: tuple[int, ...]
    used: tuple[bool, ...]
    note: str = DIMENSION_CAVEAT


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
    two informative scales remain.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise DimensionMismatch(f"points must be 2-d, got shape {pts.shape}")
    if pts.shape[0] < 50:
        raise TooFewPoints(
            f"need at least 50 points, got {pts.shape[0]}")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    diam = float(np.linalg.norm(hi - lo))
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
        counts.append(len(set(map(tuple, cells))))
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
