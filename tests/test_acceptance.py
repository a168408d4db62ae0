"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines alongside the pytest verdicts.
"""

import json
import math
import time

import numpy as np
import pytest

from gradlocus import (ScalarField, VectorField, box_counting_dimension,
                       companion_map, default_scales, gamma, gamma_power,
                       gradient_like_field, antisymmetric_part, pfaffian,
                       verify_pair)
from gradlocus.cli import main
from gradlocus.dsl import Add, linear_combination, Var
from gradlocus.geometry import FormKind
from gradlocus.integrability import obstruction_matrix

from oracles import (builtin_structures, probe, random_points,
                     random_polynomial, side_residual)


def _report(n, message):
    print(f"ACCEPTANCE {n} PASS: {message}")


def test_criterion_01_geometric_pair_identities():
    rng = np.random.default_rng(101)
    for name, form in builtin_structures():
        pair = companion_map(form)
        X = rng.standard_normal((1000, form.dim))
        Y = rng.standard_normal((1000, form.dim))
        inner = np.sum(X * Y, axis=1)
        via_b = np.sum((X @ form.Q) * (Y @ pair.B.T), axis=1)
        adj = np.sum(((X @ pair.Bstar.T) @ form.Q) * Y, axis=1)
        scale = (np.linalg.norm(X, axis=1) * np.linalg.norm(Y, axis=1)
                 * (1.0 + np.linalg.norm(form.Q)))
        assert np.all(np.abs(inner - via_b) <= 1e-10 * scale), name
        assert np.all(np.abs(adj - via_b) <= 1e-10 * scale), name
        if form.kind is FormKind.SYMMETRIC:
            assert np.abs(pair.Bstar - pair.B).max() <= 1e-12, name
        if form.kind is FormKind.SKEW_SYMMETRIC:
            assert np.abs(pair.Bstar + pair.B).max() <= 1e-12, name
        assert verify_pair(pair, trials=100, tol=1e-10).passed, name
    _report(1, "pair identities hold on 1000 random vector pairs per "
               "built-in structure")


def test_criterion_02_gamma_characterization():
    rng = np.random.default_rng(102)
    threshold = 1e-12
    gray = 0
    checked = 0
    for n in (2, 3, 4, 6):
        mats = []
        for _ in range(700):
            mats.append(rng.standard_normal((n, n)))
        for _ in range(150):
            S = rng.standard_normal((n, n))
            mats.append(S + S.T)
        for _ in range(150):
            S = rng.standard_normal((n, n))
            S = S + S.T
            P = S.copy()
            mag = 10.0 ** rng.uniform(-16, -6)
            P[0, -1] += mag * np.abs(S).max()
            mats.append(P)
        for M in mats:
            scale = max(np.abs(M).max(), 1e-300)
            g_rel = gamma(M).max_abs() / scale
            s_rel = np.abs(M - M.T).max() / scale
            in_gray = (threshold / 10 <= g_rel <= threshold * 10
                       or threshold / 10 <= s_rel <= threshold * 10)
            if in_gray:
                gray += 1
                continue
            checked += 1
            assert (g_rel <= threshold) == (s_rel <= threshold)
    _report(2, f"gamma vanishes exactly on symmetric matrices "
               f"({checked} decided, {gray} gray-zone excluded)")


def test_criterion_03_gamma_power_pfaffian_oracle():
    rng = np.random.default_rng(103)
    for n in (2, 4, 6):
        m = n // 2
        fact = math.factorial(m)
        for _ in range(1000):
            M = rng.standard_normal((n, n)) * rng.uniform(0.2, 2.0)
            lhs = gamma_power(M, m)
            rhs = fact * pfaffian(antisymmetric_part(M))
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + np.linalg.norm(M) ** m)
    for n in (2, 4, 6, 8):
        for _ in range(250):
            M = rng.standard_normal((n, n))
            A = M - M.T
            assert pfaffian(A) ** 2 == pytest.approx(np.linalg.det(A),
                                                     rel=1e-8, abs=1e-8)
    _report(3, "wedge-power coefficient matches m! Pf(M - M^T) on 3000 "
               "matrices; Pf^2 = det")


def _perturbation(pair, side):
    """A linear field whose Jacobian breaks the side's condition."""
    n = pair.dim
    C = obstruction_matrix(pair, side)
    candidates = []
    rot = np.zeros((n, n))
    rot[0, 1], rot[1, 0] = -1.0, 1.0
    candidates.append(rot)
    candidates.append(np.eye(n))
    sym = np.zeros((n, n))
    sym[0, 1] = sym[1, 0] = 1.0
    candidates.append(sym)
    for E in candidates:
        if np.linalg.norm(antisymmetric_part(C @ E)) >= 0.5:
            comps = tuple(linear_combination(E[i], [Var(j + 1)
                                                    for j in range(n)])
                          for i in range(n))
            return VectorField(dim=n, components=comps)
    raise AssertionError("no symmetry-breaking perturbation found")


def add_fields(F, G):
    comps = tuple(Add(a, b) for a, b in zip(F.components, G.components))
    return VectorField(dim=F.dim, components=comps)


def test_criterion_04_poincare_soundness_and_perturbation():
    rng = np.random.default_rng(104)
    for name, form in builtin_structures():
        pair = companion_map(form)
        n = form.dim
        for _ in range(20):
            f = ScalarField(n, random_polynomial(rng, n, degree=4, terms=5))
            X = random_points(rng, 200, n)
            for side in ("left", "right"):
                F = gradient_like_field(pair, f, side)
                DF = F.jacobian(X)[1]
                DF_scale = 1.0 + np.abs(DF).max()
                res = side_residual(pair, DF, side)
                assert res.max() <= 1e-8 * DF_scale, (name, side)
                if form.kind is FormKind.SYMMETRIC:
                    extra = side_residual(pair, DF, "symmetric")
                    assert np.max(extra) <= 1e-8 * DF_scale, name
                if form.kind is FormKind.SKEW_SYMMETRIC and side == "left":
                    extra = side_residual(pair, DF, "symplectic")
                    assert np.max(extra) <= 1e-8 * DF_scale, name
                perturbed = add_fields(F, _perturbation(pair, side))
                res_p = side_residual(pair, perturbed.jacobian(X)[1], side)
                assert np.mean(res_p > 1e-2) >= 0.95, (name, side)
    _report(4, "exact gradient-like fields pass all matched conditions at "
               "1e-8; first-order perturbations break them at >= 95% of "
               "points")


def test_criterion_05_equivalence_probe():
    rng = np.random.default_rng(105)
    structures = builtin_structures()
    total_checks = 0
    total_gray = 0
    for combo in range(50):
        name, form = structures[combo % len(structures)]
        pair = companion_map(form)
        n = form.dim
        if combo % 3 == 0:
            f = ScalarField(n, random_polynomial(rng, n))
            F = gradient_like_field(pair, f, "left")
        else:
            F = VectorField(n, tuple(
                random_polynomial(rng, n, degree=3, terms=4)
                for _ in range(n)))
        report = probe(pair, F.jacobian(random_points(rng, 100, n))[1])
        assert report.violations == 0, (combo, name)
        total_checks += report.checks
        total_gray += report.gray_excluded
    assert total_gray <= 0.05 * total_checks
    _report(5, f"0 violations over 50 combos x 100 points "
               f"({total_gray}/{total_checks} checks gray-excluded)")


def _read_summary(path):
    with open(path / "summary.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_points(path):
    rows = (path / "points.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    data = [dict(zip(header, line.split(","))) for line in rows[1:]]
    return data


def test_criterion_06_circle_coverage(tmp_path):
    start = time.perf_counter()
    code = main(["demo", "circle-m1", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    assert code == 0
    summary = _read_summary(tmp_path)
    assert summary["certified_count"] >= 100
    assert summary["uncovered_count"] == 0
    assert summary["charts_used"] == 2
    assert summary["chart_bound"] == 2
    for row in _read_points(tmp_path):
        r = math.hypot(float(row["x1"]), float(row["x2"]))
        assert abs(r - 1.0) <= 1e-7 or r <= 1e-7
    assert 0.85 <= summary["dimension_estimate"] <= 1.1
    assert elapsed < 10.0
    _report(6, f"circle demo: {summary['certified_count']} certified, "
               f"2 charts, dimension {summary['dimension_estimate']:.3f}, "
               f"{elapsed:.1f}s")


def test_criterion_07_plane_coverage(tmp_path):
    start = time.perf_counter()
    code = main(["demo", "plane-m2", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    assert code == 0
    summary = _read_summary(tmp_path)
    assert summary["uncovered_count"] == 0
    assert summary["charts_used"] <= 6
    assert summary["chart_bound"] == 6
    for row in _read_points(tmp_path):
        if row["certified"] == "1":
            assert abs(float(row["x3"])) <= 1e-7
            assert abs(float(row["x4"])) <= 1e-7
    assert 1.8 <= summary["dimension_estimate"] <= 2.2
    assert elapsed < 60.0
    _report(7, f"plane demo: {summary['certified_count']} certified, "
               f"{summary['charts_used']} chart(s), dimension "
               f"{summary['dimension_estimate']:.3f}, {elapsed:.1f}s")


def test_criterion_08_negative_control(tmp_path):
    code = main(["demo", "minkowski-grad", "--out", str(tmp_path)])
    assert code == 0
    summary = _read_summary(tmp_path)
    assert summary["certified_count"] == 0
    rows = _read_points(tmp_path)
    assert rows, "exact-gradient scenario should still converge"
    for row in rows:
        assert abs(float(row["gamma_value"])) <= \
            1e-8 * float(row["gamma_scale"])
    _report(8, "exact pseudo-Euclidean gradient certifies nothing "
               f"({len(rows)} uncertified near-zeros)")


def test_criterion_09_determinism(tmp_path):
    for sub in ("a", "b"):
        code = main(["demo", "circle-m1", "--out", str(tmp_path / sub),
                     "--points", "200"])
        assert code == 0
    csv_a = (tmp_path / "a/points.csv").read_bytes()
    csv_b = (tmp_path / "b/points.csv").read_bytes()
    assert csv_a == csv_b

    def strip(path):
        return "\n".join(line for line in path.read_text().splitlines()
                         if "generated_at" not in line)

    assert strip(tmp_path / "a/summary.json") == \
        strip(tmp_path / "b/summary.json")
    _report(9, "repeated runs are byte-identical (timestamp excluded)")


def test_criterion_10_dimension_calibration():
    rng = np.random.default_rng(110)
    point_cloud = np.tile(rng.uniform(-1, 1, 3), (200, 1))
    est0 = box_counting_dimension(point_cloud)
    assert abs(est0.estimate - 0.0) <= 0.2
    jitter = point_cloud + rng.normal(scale=1e-13, size=point_cloud.shape)
    est0b = box_counting_dimension(jitter, scales=default_scales(2.0))
    assert abs(est0b.estimate - 0.0) <= 0.2

    theta = rng.uniform(0, 2 * np.pi, 1000)
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    est1 = box_counting_dimension(circle)
    assert abs(est1.estimate - 1.0) <= 0.2

    plane = np.zeros((1000, 4))
    plane[:, :2] = rng.uniform(-1, 1, (1000, 2))
    est2 = box_counting_dimension(plane)
    assert abs(est2.estimate - 2.0) <= 0.2
    _report(10, f"estimator recovers 0/1/2 as "
                f"{est0.estimate:.2f}/{est1.estimate:.2f}/{est2.estimate:.2f}")
