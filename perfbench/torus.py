"""The torus-m{m} scenario family, the benchmark workloads built on it,
and closed-form output oracles written in plain numpy.

torus-m{m} is Euclidean R^{2m} made of m copies of the built-in
circle-m1 demo: f = sum_k x_k^2 / 2 and, on block i with coordinates
(a, b) = (x_{2i-1}, x_{2i}) and s = a^2 + b^2 - 1,

    F_{2i-1} = a + s*b,    F_{2i} = b - s*a.

Phi = grad f - F equals -s*(b, -a) on each block, so the locus is the
set where every block sits on its unit circle or at its origin, and
everything the CLI reports has a closed form:

* DPhi is block diagonal.  On a unit-circle block its rows are
  -2b*(a, b) and 2a*(a, b), which are parallel; on an origin block they
  are (0, 1) and (-1, 0).  A chart (m rows of DPhi with rank m) takes
  exactly one nonzero row from each unit-circle block and any rows from
  origin blocks.
* N = DF has N - N^T block diagonal with the entry 2(2r^2 - 1) on block
  i (r its radius), so Gamma(N)^m = m! * prod_i 2(2 r_i^2 - 1) and
  |Gamma(N)^m| / (m! ||N||_F^m) = sqrt|det(N - N^T)| / ||N||_F^m.

Nothing here imports gradlocus: the oracles are independent of the
code they check.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

TOL_RESIDUAL = 1e-10  # gradlocus defaults, written into every scenario
TOL_GAMMA = 1e-8
TOL_RANK = 1e-6
BOX_HALFWIDTH = 2.0
ON_LOCUS = 1e-6        # |r - 1| or r below this puts a block on the locus
ROW_ZERO = 1e-9        # a unit-circle coordinate below this zeroes its row
ROW_GRAY = 1e-3        # coordinates in [ROW_ZERO, ROW_GRAY] are rank gray
REL = 1e-9             # relative agreement required of closed-form floats
HALTON_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class Workload:
    """One gradlocus verb on torus-m{m}; why each was chosen is recorded
    in BENCHMARK.json."""

    name: str
    verb: str      # the gradlocus verb one call runs
    m: int         # torus-m{m}, so R^{2m}
    size: int      # seeds or points per call
    unit: str      # what size counts
    skips: frozenset  # traced layers (span names) the verb never reaches


WORKLOADS = {w.name: w for w in (
    Workload("locus-torus-m2", "locus", 2, 150, "seeds", frozenset({
        "integrability.residual", "integrability.probe"})),
    Workload("check-torus-m4", "check", 4, 8000, "points", frozenset({
        "dsl.evaluate", "dsl.hessian", "fields.value", "fields.gradient",
        "fields.hessian", "locus.phi", "locus.dphi", "locus.solve",
        "locus.sample_locus", "locus.charts", "locus.verify_cover",
        "locus.box_counting"})),
)}


# ---------------------------------------------------------------------------
# the family and its closed forms


def scenario(m: int, n_seeds: int, rng_seed: int) -> dict:
    F = []
    for i in range(m):
        a, b = f"x{2 * i + 1}", f"x{2 * i + 2}"
        s = f"({a}^2 + {b}^2 - 1)"
        F += [f"{a} + {s} * {b}", f"{b} - {s} * {a}"]
    f = " + ".join(f"x{k}^2" for k in range(1, 2 * m + 1))
    return {
        "name": f"torus-m{m}",
        "dim": 2 * m,
        "structure": {"kind": "euclidean", "dim": 2 * m},
        "f": f"({f}) / 2",
        "F": F,
        "side": "left",
        "box": [[-BOX_HALFWIDTH, BOX_HALFWIDTH]] * (2 * m),
        "n_seeds": n_seeds,
        "rng_seed": rng_seed,
        "tolerances": {"residual": TOL_RESIDUAL, "gamma": TOL_GAMMA,
                       "rank": TOL_RANK},
    }


def _blocks(X):
    return X[:, 0::2], X[:, 1::2]


def phi(X) -> np.ndarray:
    """Phi = x - F(x), evaluated as the DSL evaluates F."""
    a, b = _blocks(X)
    s = a ** 2 + b ** 2 - 1
    out = np.empty_like(X)
    out[:, 0::2] = a - (a + s * b)
    out[:, 1::2] = b - (b - s * a)
    return out


def gamma(X):
    """(Gamma(DF)^m, m! ||DF||_F^m + 1e-300) at each row of X."""
    a, b = _blocks(X)
    m = a.shape[1]
    s = a ** 2 + b ** 2 - 1
    pf = np.prod(2 * (2 * (a ** 2 + b ** 2) - 1), axis=1)
    fro2 = np.sum((1 + 2 * a * b) ** 2 + (s + 2 * b ** 2) ** 2
                  + (s + 2 * a ** 2) ** 2 + (1 - 2 * a * b) ** 2, axis=1)
    return math.factorial(m) * pf, math.factorial(m) * fro2 ** (m / 2) + 1e-300


def gamma_relative(X) -> np.ndarray:
    """sqrt|det(N - N^T)| / ||N||_F^m with N = DF, by dense linear algebra."""
    a, b = _blocks(X)
    n = X.shape[1]
    N = np.zeros((X.shape[0], n, n))
    s = a ** 2 + b ** 2 - 1
    for i in range(n // 2):
        p, q = 2 * i, 2 * i + 1
        N[:, p, p] = 1 + 2 * a[:, i] * b[:, i]
        N[:, p, q] = s[:, i] + 2 * b[:, i] ** 2
        N[:, q, p] = -s[:, i] - 2 * a[:, i] ** 2
        N[:, q, q] = 1 - 2 * a[:, i] * b[:, i]
    det = np.linalg.det(N - np.swapaxes(N, 1, 2))
    fro = np.sqrt(np.sum(N * N, axis=(1, 2)))
    return np.sqrt(np.abs(det)) / fro ** (n // 2)


def chart_masks(X):
    """Closed-form chart bitmask of each locus point (bit k is the k-th
    lexicographic m-subset of rows), or None for a point in the rank gray
    zone.  Raises ValueError for a point off the locus."""
    n = X.shape[1]
    m = n // 2
    charts = list(combinations(range(n), m))
    out = []
    for x in X:
        a, b = x[0::2], x[1::2]
        r = np.hypot(a, b)
        ring = np.abs(r - 1) <= ON_LOCUS
        if not np.all(ring | (r <= ON_LOCUS)):
            raise ValueError(f"point {x.tolist()} is off the locus")
        coord = np.abs(np.where(ring[:, None], np.stack([b, a], 1), 1.0))
        if np.any((coord >= ROW_ZERO) & (coord <= ROW_GRAY)):
            out.append(None)
            continue
        nonzero = (coord > ROW_GRAY).ravel()  # row 2i uses b, row 2i+1 uses a
        mask = 0
        for k, rows in enumerate(charts):
            per_block = np.bincount([j // 2 for j in rows], minlength=m)
            if (all(nonzero[j] for j in rows)
                    and np.all((per_block <= 1) | ~ring)):
                mask |= 1 << k
        out.append(mask)
    return out


def halton(count: int, dim: int, shift) -> np.ndarray:
    """Halton points (radical inverse in the first dim primes, indices
    1..count), rotated modulo 1 by shift."""
    out = np.empty((count, dim))
    for d in range(dim):
        base = HALTON_PRIMES[d]
        idx = np.arange(1, count + 1)
        col = np.zeros(count)
        scale = 1.0
        while np.any(idx):
            scale /= base
            col += scale * (idx % base)
            idx //= base
        out[:, d] = col
    return (out + shift) % 1.0


# ---------------------------------------------------------------------------
# inputs


def prepare(w: Workload, seed: int, workdir: Path, size: int | None = None) -> dict:
    """Write the scenario of one workload, drawn from seed, and return the
    job: the CLI arguments of one call and what the oracle needs.  The
    closed-form answers of check are computed here, outside the worker,
    so that the worker's peak memory is that of gradlocus."""
    size = size or w.size
    workdir.mkdir(parents=True, exist_ok=True)
    rng_seed = int(np.random.default_rng(seed).integers(2 ** 31))
    scen = workdir / "scenario.json"
    scen.write_text(json.dumps(scenario(w.m, size, rng_seed), indent=2),
                    encoding="utf-8")
    out = workdir / "out"
    expect = None
    if w.verb == "locus":
        argv = ["locus", "--scenario", str(scen), "--out", str(out)]
    elif w.verb == "check":
        argv = ["check", "--scenario", str(scen), "--points", str(size),
                "--out", str(out)]
        out.mkdir(parents=True, exist_ok=True)
        expect = check_expect(w.m, size, rng_seed)
    else:
        raise ValueError(f"unknown verb {w.verb!r}")
    return {"workload": w.name, "verb": w.verb, "m": w.m, "size": size,
            "seed": seed, "rng_seed": rng_seed, "workdir": str(workdir),
            "scenario": str(scen), "out": str(out), "argv": argv,
            "expect": expect}


def check_expect(m: int, size: int, rng_seed: int) -> dict:
    """Closed-form answers of check: its points are the scenario's shifted
    Halton points, mapped into the box."""
    n = 2 * m
    shift = np.random.default_rng(rng_seed).random(n)
    X = -BOX_HALFWIDTH + halton(size, n, shift) * (2 * BOX_HALFWIDTH)
    rel = gamma_relative(X)
    return {"max_relative": float(rel.max()),
            "decisive": [int(np.sum(rel > 10 * TOL_GAMMA * 10)),
                         int(np.sum(rel > 10 * TOL_GAMMA / 10))]}


# ---------------------------------------------------------------------------
# oracles


@dataclass
class Verdict:
    problems: list
    yield_ratio: float = 0.0
    info: dict | None = None


def _read_rows(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def _close(got, want) -> bool:
    return abs(got - want) <= REL * max(abs(want), 1e-300)


def check_locus(job, rc) -> Verdict:
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    out = Path(job["out"])
    n = 2 * job["m"]
    header, rows = _read_rows(out / "points.csv")
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    want = [f"x{i + 1}" for i in range(n)] + [
        "phi_norm", "gamma_value", "gamma_scale", "chart_mask", "certified"]
    if header != want:
        problems.append(f"csv header {header} != {want}")
        rows = []
    X = np.array([[float(v) for v in row[:n]] for row in rows]).reshape(-1, n)
    cols = np.array([[float(v) for v in row[n:n + 3]] for row in rows]).reshape(-1, 3)
    masks = [int(row[n + 3]) for row in rows]
    cert = [row[n + 4] == "1" for row in rows]
    phi_norm = np.linalg.norm(phi(X), axis=1)
    value, scale = gamma(X)
    try:
        expected = chart_masks(X)
    except ValueError as exc:
        problems.append(str(exc))
        expected = [None] * len(rows)
    for i in range(len(rows)):
        if not phi_norm[i] <= TOL_RESIDUAL or not cols[i, 0] <= TOL_RESIDUAL:
            problems.append(f"row {i}: ||Phi|| = {phi_norm[i]:.3e}, "
                            f"reported {cols[i, 0]:.3e}, tol {TOL_RESIDUAL}")
        if not (_close(cols[i, 1], value[i]) and _close(cols[i, 2], scale[i])):
            problems.append(f"row {i}: gamma {cols[i, 1:3].tolist()} != "
                            f"closed form {[value[i], scale[i]]}")
        if expected[i] is None:
            continue
        if masks[i] != expected[i]:
            problems.append(f"row {i}: chart mask {masks[i]:#x} != "
                            f"closed form {expected[i]:#x}")
        if not cert[i]:
            problems.append(f"row {i}: not certified")
    bound = math.comb(n, n // 2)
    if summary["charts_used"] > bound or summary["chart_bound"] != bound:
        problems.append(f"charts_used {summary['charts_used']} against "
                        f"bound {summary['chart_bound']} (C(n, m) = {bound})")
    if summary["sample_count"] != len(rows):
        problems.append(f"sample_count {summary['sample_count']} != "
                        f"{len(rows)} csv rows")
    if summary["certified_count"] != sum(cert):
        problems.append(f"certified_count {summary['certified_count']} != "
                        f"{sum(cert)} certified csv rows")
    return Verdict(problems, summary["certified_count"] / job["size"],
                   {"dimension_estimate": summary["dimension_estimate"]})


def check_check(job, rc) -> Verdict:
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    report = json.loads((Path(job["out"]) / "check.json").read_text(
        encoding="utf-8"))
    got = report["obstruction"]["max_relative"]
    want = job["expect"]["max_relative"]
    if not _close(got, want):
        problems.append(f"obstruction max_relative {got!r} != closed form "
                        f"{want!r}")
    lo, hi = job["expect"]["decisive"]
    decisive = report["obstruction"]["decisive_nonzero_points"]
    if not lo <= decisive <= hi:
        problems.append(f"decisive points {decisive} outside the closed "
                        f"form range [{lo}, {hi}]")
    if report["n_points"] != job["size"]:
        problems.append(f"n_points {report['n_points']} != {job['size']}")
    if report["equivalence_probe"]["violations"] != 0:
        problems.append("equivalence probe reports violations")
    if report["verdict"] != "non-integrable obstruction present":
        problems.append(f"verdict {report['verdict']!r}")
    return Verdict(problems, decisive / job["size"])


ORACLES = {"locus": check_locus, "check": check_check}
