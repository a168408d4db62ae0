import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from gradlocus import (DimensionMismatch, GradlocusError, InvalidOption,
                       LocusOptions, OddDimension, PhiSystem, ScalarField,
                       TooFewPoints, VectorField, all_charts,
                       box_counting_dimension, builtin_demos, build_phi,
                       certify, chart_memberships, companion_map,
                       default_scales, halton_sequence, make_form,
                       pseudo_euclidean, sample_locus, scenario_from_dict,
                       solve_from_seed, standard_euclidean,
                       standard_symplectic, verify_cover)
from gradlocus import locus
from gradlocus.cli import main
from gradlocus.exterior import antisymmetric_part
from gradlocus.integrability import CHART_STACK_BYTES, premultiply

from oracles import (chart_loop, dense_phi, greedy_dedup, halton_loop,
                     random_points, random_smooth, scalar_lm_rows)


def columns(samples):
    """The columns of a ``Samples`` table by name."""
    return {f.name: getattr(samples, f.name)
            for f in dataclasses.fields(samples)}


def same_table(a, b):
    """Whether two ``Samples`` tables are equal, column by column."""
    return all(np.array_equal(col, getattr(b, name))
               for name, col in columns(a).items())


def demo_phi(name):
    s = builtin_demos()[name]
    pair = companion_map(s.form)
    return s, build_phi(pair, s.f, s.F, s.side)


def demo_seeds(s):
    """The Halton seeds sample_locus draws for a demo at its defaults."""
    return locus.box_halton(s.box_array(), s.n_seeds, s.options.rng_seed)


def euclidean_phi(f, F):
    pair = companion_map(standard_euclidean(len(F)))
    return build_phi(pair, ScalarField.parse(f, len(F)),
                     VectorField.parse(F, len(F)), "left")


# Phi = (x1 - log(x1) - x2, x2 - x1 x2) is undefined for x1 <= 0, so on
# [-2, 2]^2 about half of the seeds fail with a domain outcome.
MIXED_DOMAIN = ("(x1^2+x2^2)/2", ["log(x1) + x2", "x1*x2"])


class PoisonedDphi(PhiSystem):
    """DPhi is undefined at the point POISON, by the DSL's contract for a
    batch: a NaN row."""

    POISON = np.array([1.5, 0.1])

    def dphi(self, x):
        r, J = super().dphi(x)
        J[np.all(x == self.POISON, axis=1)] = np.nan
        return r, J


class TestLocusOptions:
    def test_accepts_boundary_and_numpy_values(self):
        opts = LocusOptions(dedup_factor=0, max_iters=np.int64(5),
                            tol_rank=np.float64(1e-3), damping=1, rng_seed=0)
        assert opts.dedup_factor == 0 and opts.max_iters == 5

    @pytest.mark.parametrize("field, value", [
        ("tol_residual", 0.0), ("tol_gamma", -1e-8), ("tol_rank", np.inf),
        ("damping", np.nan), ("dedup_factor", -1e-3), ("tol_rank", "1e-6"),
        ("tol_gamma", None), ("damping", True), ("tol_residual", 10**400),
        ("max_iters", 0), ("max_iters", 3.0), ("max_iters", False),
        ("rng_seed", -1), ("rng_seed", 1.5)])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(InvalidOption) as info:
            LocusOptions(**{field: value})
        assert info.value.field == field
        assert str(info.value).startswith(f"{field}: expected")

    def test_overrides_are_validated(self):
        with pytest.raises(InvalidOption, match="^tol_residual: "):
            LocusOptions().with_overrides(tol_residual=-1.0)


class TestBuildPhi:
    def test_euclidean_left_uses_identity(self):
        pair = companion_map(standard_euclidean(2))
        f = ScalarField.parse("x1", 2)
        F = VectorField.parse(["0", "0"], 2)
        phi = build_phi(pair, f, F, "left")
        assert np.array_equal(phi.C, np.eye(2))

    def test_symplectic_left_uses_minus_q(self):
        pair = companion_map(standard_symplectic(1))
        f = ScalarField.parse("x1", 2)
        F = VectorField.parse(["0", "0"], 2)
        phi = build_phi(pair, f, F, "left")
        assert np.array_equal(phi.C, -pair.form.Q)

    def test_pseudo_euclidean_same_both_sides(self):
        pair = companion_map(pseudo_euclidean(1, 1))
        f = ScalarField.parse("x1", 2)
        F = VectorField.parse(["0", "0"], 2)
        for side in ("left", "right"):
            phi = build_phi(pair, f, F, side)
            assert np.array_equal(phi.C, np.diag([1.0, -1.0]))

    def test_odd_dimension_rejected(self):
        pair = companion_map(standard_euclidean(3))
        f = ScalarField.parse("x1", 3)
        F = VectorField.parse(["0", "0", "0"], 3)
        with pytest.raises(OddDimension):
            build_phi(pair, f, F, "left")

    def test_dimension_mismatch_rejected(self):
        pair = companion_map(standard_euclidean(2))
        f = ScalarField.parse("x1", 2)
        F = VectorField.parse(["0", "0", "0", "0"], 4)
        with pytest.raises(DimensionMismatch):
            build_phi(pair, f, F, "left")

    def test_circle_phi_matches_closed_form(self):
        _, phi = demo_phi("circle-m1")
        rng = np.random.default_rng(51)
        X = random_points(rng, 50, 2)
        want = np.stack([
            -(X[:, 0] ** 2 + X[:, 1] ** 2 - 1) * X[:, 1],
            (X[:, 0] ** 2 + X[:, 1] ** 2 - 1) * X[:, 0],
        ], axis=1)
        assert np.abs(phi.phi(X) - want).max() <= 1e-12

    def test_empty_batch(self):
        _, phi = demo_phi("plane-m2")
        assert phi.phi(np.empty((0, 4))).shape == (0, 4)
        assert [a.shape for a in phi.dphi(np.empty((0, 4)))] == [
            (0, 4), (0, 4, 4)]

    def test_plane_phi_matches_closed_form(self):
        _, phi = demo_phi("plane-m2")
        rng = np.random.default_rng(52)
        X = random_points(rng, 50, 4)
        want = np.column_stack([X[:, 2], X[:, 3],
                                np.zeros(50), np.zeros(50)])
        assert np.abs(phi.phi(X) - want).max() <= 1e-14

    def test_side_consistency(self):
        # symmetric forms: both sides give the same Phi; skew forms:
        # the left system for F matches the right system for -F
        from gradlocus import matrix_apply
        rng = np.random.default_rng(58)
        s, _ = demo_phi("minkowski-grad")
        pair = companion_map(s.form)
        X = random_points(rng, 20, 2)
        left = build_phi(pair, s.f, s.F, "left")
        right = build_phi(pair, s.f, s.F, "right")
        assert np.abs(left.phi(X) - right.phi(X)).max() == 0.0

        sp, _ = demo_phi("plane-m2")
        pair = companion_map(sp.form)
        X = random_points(rng, 20, 4)
        left = build_phi(pair, sp.f, sp.F, "left")
        right_neg = build_phi(pair, sp.f,
                              matrix_apply(-np.eye(4), sp.F), "right")
        assert np.abs(left.phi(X) - right_neg.phi(X)).max() <= 1e-13

    def test_linearise_is_phi_and_dphi(self):
        # one tape run per field gives Phi byte for byte as phi does,
        # and (Phi, DPhi) as the dense two-walk oracle does, NaN rows
        # included (a zero may differ in sign): the demos, torus-m2, the
        # mixed domain and random trees on Euclidean, symplectic and
        # pseudo-Euclidean R^2 and R^4, at points that include x1 = 0, -1
        # and 1e200
        rng = np.random.default_rng(59)
        systems = [demo_phi(name)[1]
                   for name in ("circle-m1", "plane-m2", "minkowski-grad")]
        systems += [torus_phi(2), euclidean_phi(*MIXED_DOMAIN)]
        for k in range(12):
            m = 1 + k % 2
            form = (standard_euclidean(2 * m), standard_symplectic(m),
                    pseudo_euclidean(m, m))[k % 3]
            n = 2 * m
            systems.append(build_phi(
                companion_map(form), ScalarField(n, random_smooth(rng, n)),
                VectorField(n, tuple(random_smooth(rng, n)
                                     for _ in range(n))),
                ("left", "right")[k % 2]))
        undefined = []
        for phi in systems:
            X = random_points(rng, 40, phi.dim)
            X[:3, 0] = [0.0, -1.0, 1e200]
            r, J = phi.dphi(X)
            assert r.tobytes() == phi.phi(X).tobytes()
            for got, want in zip((r, J), dense_phi(phi, X), strict=True):
                assert np.array_equal(got, want, equal_nan=True)
            undefined.append(int(np.isnan(J).all(axis=(1, 2)).sum()))
        assert undefined[4] >= 20 and sum(undefined) > undefined[4]

    def test_antisymmetry_transfer(self):
        # skew part of DPhi equals minus the skew part of C DF wherever
        # the Hessian is symmetric
        for name in ("circle-m1", "plane-m2", "minkowski-grad"):
            s, phi = demo_phi(name)
            rng = np.random.default_rng(53)
            X = random_points(rng, 20, s.dim)
            dphi = phi.dphi(X)[1]
            cdf = phi.C @ s.F.jacobian(X)[1]
            dev = np.abs(antisymmetric_part(dphi)
                         + antisymmetric_part(cdf)).max(axis=(1, 2))
            assert np.all(dev <= 1e-8 * (1.0 + np.abs(cdf).max(axis=(1, 2)))), \
                name


class TestSolveFromSeed:
    def test_circle_converges_to_zero_set(self):
        _, phi = demo_phi("circle-m1")
        (x,), outcome = solve_from_seed(phi, np.array([[1.5, 0.1]]))
        assert outcome.tolist() == ["converged"]
        r = np.linalg.norm(x)
        assert abs(r - 1.0) <= 1e-8 or r <= 1e-8

    def test_constant_nonzero_phi_diverges(self):
        pair = companion_map(standard_euclidean(2))
        f = ScalarField.parse("0", 2)
        F = VectorField.parse(["1", "0"], 2)
        phi = build_phi(pair, f, F, "left")
        seed = np.array([[0.3, -0.8]])
        pts, outcome = solve_from_seed(phi, seed)
        assert outcome.tolist() == ["damping exhausted"]
        assert np.array_equal(pts, seed)
        assert np.linalg.norm(phi.phi(pts)) == pytest.approx(1.0)

    def test_plane_zeroes_trailing_coordinates(self):
        _, phi = demo_phi("plane-m2")
        seed = np.array([[1.2, -0.4, 1.7, -1.9]])
        (x,), outcome = solve_from_seed(phi, seed)
        assert outcome.tolist() == ["converged"]
        assert abs(x[2]) <= 1e-8 and abs(x[3]) <= 1e-8

    def test_seed_validation(self):
        _, phi = demo_phi("circle-m1")
        for bad in (np.zeros(3), np.zeros((4, 3)), np.zeros((1, 2, 1))):
            with pytest.raises(DimensionMismatch):
                solve_from_seed(phi, bad)
        with pytest.raises(ValueError):
            solve_from_seed(phi, np.array([[np.nan, 0.0]]))

    def test_batch_matches_scalar_oracle(self):
        for name in ("circle-m1", "plane-m2", "minkowski-grad"):
            s, phi = demo_phi(name)
            seeds = demo_seeds(s)
            pts, outcome = solve_from_seed(phi, seeds, s.options)
            want, want_outcome = scalar_lm_rows(phi, seeds, s.options)
            assert np.array_equal(outcome == "converged",
                                  want_outcome == "converged"), name
            assert np.abs(pts - want).max() <= 1e-8, name

    def test_rows_do_not_depend_on_batching(self):
        for name in ("circle-m1", "plane-m2"):
            s, phi = demo_phi(name)
            seeds = demo_seeds(s)
            pts, outcome = solve_from_seed(phi, seeds, s.options)
            for i in range(len(seeds)):
                alone, alone_outcome = solve_from_seed(phi, seeds[i:i + 1],
                                                       s.options)
                assert np.array_equal(alone[0], pts[i]), (name, i)
                assert alone_outcome[0] == outcome[i], (name, i)

    def test_single_seed_is_a_batch_of_one(self):
        _, phi = demo_phi("circle-m1")
        seed = np.array([1.5, 0.1])
        pts, outcome = solve_from_seed(phi, seed[None])
        assert outcome.tolist() == ["converged"]
        both, _ = solve_from_seed(phi, np.array([seed, [0.3, -0.8]]))
        assert np.array_equal(both[:1], pts)
        with pytest.raises(DimensionMismatch, match=r"\(B, 2\)"):
            solve_from_seed(phi, seed)

    def test_dphi_domain_error_retires_only_its_row(self):
        s, phi = demo_phi("circle-m1")
        poisoned = PoisonedDphi(phi.pair, phi.f, phi.F, phi.side, phi.C)
        seeds = np.array([[0.4, -1.3], PoisonedDphi.POISON, [-0.7, 1.8]])
        pts, outcome = solve_from_seed(poisoned, seeds, s.options)
        assert outcome.tolist() == ["converged", "domain", "converged"]
        healthy, _ = solve_from_seed(phi, seeds[[0, 2]], s.options)
        assert np.array_equal(pts[[0, 2]], healthy)

    def test_singular_normal_equations_fall_back_per_row(self, monkeypatch):
        # DPhi = [[1e8 + 3 x1^2, 1e8], [0, 0]]: near the origin
        # J^T J + lam I rounds to an exactly singular matrix, so the
        # stacked solve raises and the damping of those rows grows
        phi = euclidean_phi("0", ["-100000000*(x1+x2) - x1^3", "0"])
        seeds = np.array([[0.3, 0.2], [1.0, -0.5], [-1.2, 0.7]])
        failures = []
        solve = np.linalg.solve

        def spy(A, b):
            try:
                return solve(A, b)
            except np.linalg.LinAlgError:
                failures.append(np.shape(A))
                raise
        monkeypatch.setattr(np.linalg, "solve", spy)
        opts = LocusOptions()
        pts, outcome = solve_from_seed(phi, seeds, opts)
        assert (3, 2, 2) in failures
        want, want_outcome = scalar_lm_rows(phi, seeds, opts)
        assert np.array_equal(outcome, want_outcome)
        assert np.abs(pts - want).max() <= 1e-8

    def test_overflowing_norms_end_as_non_finite_steps(self):
        # f = 1e160 |x|^2 / 2: ||Phi||, J^T J and J^T Phi overflow at every
        # seed, so every step is non-finite, with no floating-point warning
        s, _ = demo_phi("circle-m1")
        phi = build_phi(companion_map(s.form),
                        ScalarField.parse("1e160 * (x1^2 + x2^2) / 2", 2),
                        s.F, s.side)
        seeds = locus.box_halton(s.box_array(), 20, s.options.rng_seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts, outcome = solve_from_seed(phi, seeds, s.options)
        assert outcome.tolist() == ["non-finite step"] * 20
        assert np.array_equal(pts, seeds)

    def test_overflowing_products_are_not_finite(self):
        # Phi = -C F and DPhi = -C DF with C = Q^T, Q = [[1, 1], [0, 1]]:
        # the second component of C F (2e308 sin x1) overflows near
        # x1 = pi/2 and that of C DF (2e308 cos x1) near x1 = 0
        pair = companion_map(make_form(np.array([[1.0, 1.0], [0.0, 1.0]])))
        phi = build_phi(pair, ScalarField.parse("0", 2), VectorField.parse(
            ["1e308 * sin(x1)", "1e308 * sin(x1)"], 2), "left")
        X = np.array([[0.785, 0.0], [0.0, 0.0], [1.5708, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, J = phi.dphi(X)
            assert np.array_equal(phi.phi(X), r, equal_nan=True)
        assert np.all(np.isfinite(r[[0, 1]])) and not np.isfinite(r[2]).all()
        assert np.all(np.isfinite(J[[0, 2]])) and not np.isfinite(J[1]).all()
        alone_r, alone_J = phi.dphi(X[:1])
        assert np.array_equal(alone_r[0], r[0])
        assert np.array_equal(alone_J[0], J[0])


class TestSampleLocus:
    def test_circle_demo_population(self):
        s, phi = demo_phi("circle-m1")
        samples = sample_locus(phi, s.box_array(), 500, s.options)
        assert samples.certified.sum() >= 100
        r = np.linalg.norm(samples.x, axis=1)
        assert np.all((np.abs(r - 1.0) <= 1e-7) | (r <= 1e-7))

    def test_gradient_only_scenario_certifies_nothing(self):
        s, phi = demo_phi("minkowski-grad")
        samples = sample_locus(phi, s.box_array(), 100, s.options)
        assert len(samples)  # Phi vanishes identically, so seeds converge
        assert not samples.certified.any()
        assert np.all(np.abs(samples.gamma_value)
                      <= 1e-10 * samples.gamma_scale)

    def test_plane_demo_fills_patch(self):
        s, phi = demo_phi("plane-m2")
        samples = sample_locus(phi, s.box_array(), 200, s.options)
        pts = samples.x[samples.certified]
        assert len(pts) >= 150
        assert np.abs(pts[:, 2:]).max() <= 1e-7
        # the patch is genuinely 2-dimensional: both coordinates spread
        assert pts[:, 0].std() > 0.5 and pts[:, 1].std() > 0.5

    def test_empty_result_for_empty_zero_set(self):
        pair = companion_map(standard_euclidean(2))
        f = ScalarField.parse("0", 2)
        F = VectorField.parse(["1", "0"], 2)
        phi = build_phi(pair, f, F, "left")
        empty = sample_locus(phi, [[-1, 1], [-1, 1]], 25)
        assert len(empty) == 0
        assert {name: col.shape for name, col in columns(empty).items()} == {
            "x": (0, 2), "phi_norm": (0,), "gamma_value": (0,),
            "gamma_scale": (0,), "obstructed": (0,), "charts": (0, 2)}

    def test_min_separation_holds(self):
        s, phi = demo_phi("circle-m1")
        pts = sample_locus(phi, s.box_array(), 300, s.options).x
        radius = s.options.dedup_factor * np.linalg.norm(
            s.box_array()[:, 1] - s.box_array()[:, 0])
        dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        assert dists.min() >= radius

    def test_reproducibility_bitwise(self):
        s, phi = demo_phi("circle-m1")
        a = sample_locus(phi, s.box_array(), 120, s.options)
        b = sample_locus(phi, s.box_array(), 120, s.options)
        assert same_table(a, b)

    def test_domain_errors_stay_in_their_rows(self, monkeypatch):
        phi = euclidean_phi(*MIXED_DOMAIN)
        box = [[-2.0, 2.0], [-2.0, 2.0]]
        got = sample_locus(phi, box, 100)
        assert len(got) == 1
        monkeypatch.setattr(locus, "solve_from_seed", scalar_lm_rows)
        assert same_table(got, sample_locus(phi, box, 100))

    def test_box_whose_width_overflows_is_refused(self):
        # lo < hi holds, but hi - lo overflows: no seed could be drawn
        s, phi = demo_phi("circle-m1")
        for box in ([[-1e308, 1e308], [0.0, 1.0]], [[0.0, 1.0], [2.0, 1.0]],
                    [[0.0, np.inf], [0.0, 1.0]]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="lo < hi"):
                    sample_locus(phi, box, 20, s.options)

    def test_seed_changes_output(self):
        s, phi = demo_phi("circle-m1")
        a = sample_locus(phi, s.box_array(), 60, s.options)
        other = s.options.with_overrides(rng_seed=s.options.rng_seed + 1)
        b = sample_locus(phi, s.box_array(), 60, other)
        assert not same_table(a, b)


def clustered_cloud(rng, count, n):
    """Lexsorted points around a few centres at spreads from 1e-4 to 1,
    a fifth of them exact copies of one point."""
    centres = rng.uniform(-2.0, 2.0, (int(rng.integers(1, 30)), n))
    pts = centres[rng.integers(0, len(centres), count)] + rng.normal(
        0.0, 10.0 ** rng.uniform(-4.0, 0.0), (count, n))
    pts[rng.random(count) < 0.2] = pts[0]
    return pts[np.lexsort(pts.T[::-1])]


class TestDedup:
    """The windowed ``locus.dedup`` keeps the rows the greedy loop
    ``greedy_dedup`` keeps."""

    def test_clustered_clouds(self):
        rng = np.random.default_rng(71)
        for n in range(1, 13):
            for _ in range(15):
                pts = clustered_cloud(rng, int(rng.integers(1, 300)), n)
                radius_sq = float(10.0 ** rng.uniform(-6.0, 0.5))
                assert np.array_equal(locus.dedup(pts, radius_sq),
                                      greedy_dedup(pts, radius_sq)), n

    def test_zero_radius_keeps_every_row(self):
        pts = clustered_cloud(np.random.default_rng(72), 200, 3)
        assert locus.dedup(pts, 0.0).all()
        s, phi = demo_phi("circle-m1")
        opts = s.options.with_overrides(dedup_factor=0.0)
        assert len(sample_locus(phi, s.box_array(), 300, opts)) > len(
            sample_locus(phi, s.box_array(), 300, s.options))

    def test_shared_x1_pairs_fit_the_budget(self):
        # every row has every earlier row in its window: O(N^2) pairs,
        # formed in chunks of at most _DEDUP_BYTES, so the peak stays
        # near one chunk where one batch of pairs would take about 180 MB
        rng = np.random.default_rng(73)
        pts = rng.uniform(-2.0, 2.0, (2000, 4))
        pts[:, 0] = 0.25
        pts = pts[np.lexsort(pts.T[::-1])]
        want = greedy_dedup(pts, 0.01)
        tracemalloc.start()
        try:
            got = locus.dedup(pts, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert 0 < (~got).sum() and peak <= 2 * locus._DEDUP_BYTES

    def test_torus_samples_match_the_greedy_loop(self, monkeypatch):
        # torus-m2 at 2000 seeds drops rows at the default dedup_factor
        # and none at 0
        s = scenario_from_dict(TORUS_M2)
        phi = build_phi(companion_map(s.form), s.f, s.F, s.side)
        runs = {factor: sample_locus(
            phi, s.box_array(), s.n_seeds,
            s.options.with_overrides(dedup_factor=factor))
            for factor in (s.options.dedup_factor, 0.0)}
        assert len(runs[s.options.dedup_factor]) < len(runs[0.0])
        monkeypatch.setattr(locus, "dedup", greedy_dedup)
        for factor, got in runs.items():
            assert same_table(got, sample_locus(
                phi, s.box_array(), s.n_seeds,
                s.options.with_overrides(dedup_factor=factor))), factor


class TestCertify:
    def test_rows_do_not_depend_on_batching(self):
        # a permuted stack gives the permuted table, a split stack the
        # concatenated one
        s, phi = demo_phi("plane-m2")
        samples = sample_locus(phi, s.box_array(), 120, s.options)
        X = samples.x
        perm = np.random.default_rng(5).permutation(len(X))
        half = len(X) // 2
        permuted = columns(certify(phi, X[perm], s.options))
        head = columns(certify(phi, X[:half], s.options))
        tail = columns(certify(phi, X[half:], s.options))
        for name, col in columns(samples).items():
            assert np.array_equal(permuted[name], col[perm]), name
            assert np.array_equal(
                np.concatenate([head[name], tail[name]]), col), name

    def test_off_locus_row_gets_no_charts(self):
        s, phi = demo_phi("circle-m1")
        # row 0 on the locus, row 1 off it; the charts are (1,) and (2,)
        samples = certify(phi, np.array([[0.0, 1.0], [1.5, 1.5]]),
                          s.options)
        assert samples.certified.tolist() == [True, False]
        assert samples.charts.tolist() == [[True, False], [False, False]]
        assert samples.phi_norm[1] > s.options.tol_residual
        assert locus.on_locus(samples.phi_norm, s.options).tolist() == [
            True, False]

    def test_one_pass_of_each_field(self, monkeypatch):
        # certify evaluates Phi and F's Jacobian once on every row and f's
        # Hessian once on the rows on the locus, and the charts rank the
        # DPhi formed from that N: no PhiSystem.dphi call
        s, phi = demo_phi("circle-m1")
        calls = []

        def counting(cls, name):
            method = getattr(cls, name)

            def counted(self, x):
                calls.append((name, len(x)))
                return method(self, x)
            monkeypatch.setattr(cls, name, counted)

        for cls, name in ((PhiSystem, "phi"), (PhiSystem, "dphi"),
                          (VectorField, "jacobian"), (ScalarField, "hessian")):
            counting(cls, name)
        X = np.array([[0.0, 1.0], [0.6, 0.8], [1.5, 1.5]])
        assert certify(phi, X, s.options).certified.tolist() == [
            True, True, False]
        assert sorted(calls) == [("hessian", 2), ("jacobian", 3), ("phi", 3)]

    # DPhi in certify is Hess f - N with N = premultiply(C, DF), the
    # bits of PhiSystem.dphi; on a general Q, C = Q^T and C = Q differ
    @pytest.mark.parametrize("case", ["circle-m1", "plane-m2",
                                      "minkowski-grad", "torus-m2",
                                      "torus-m4", "general-q-left",
                                      "general-q-right", "mixed-domain"])
    def test_dphi_from_n_is_bitwise_dphi(self, case):
        rng = np.random.default_rng(64)
        if case in builtin_demos():
            s, phi = demo_phi(case)
            X = np.vstack([sample_locus(phi, s.box_array(), 100,
                                        s.options).x,
                           rng.uniform(-2.0, 2.0, (20, s.dim))])
        elif case.startswith("torus"):
            m = int(case[-1])
            phi = torus_phi(m)
            X = np.vstack([torus_points(rng, m, 60),
                           rng.uniform(-2.0, 2.0, (20, 2 * m))])
        elif case.startswith("general-q"):
            Q = np.eye(4) + np.eye(4, k=1)
            torus = torus_phi(2)
            phi = build_phi(companion_map(make_form(Q)), torus.f, torus.F,
                            case.rpartition("-")[2])
            X = np.vstack([torus_points(rng, 2, 60),
                           rng.uniform(-2.0, 2.0, (20, 4))])
        else:  # a row with x1 <= 0 lies outside the domain
            phi = euclidean_phi(*MIXED_DOMAIN)
            X = rng.uniform(-2.0, 2.0, (80, 2))
        got = (phi.f.hessian(X)[2]
               - premultiply(phi.C, phi.F.jacobian(X)[1]))
        want = phi.dphi(X)[1]
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert (case != "mixed-domain") == (not nan.any())
        assert got[~nan].tobytes() == want[~nan].tobytes()

    # numpy reports its allocations to tracemalloc; a stack is one (B, n, n)
    # array over the B rows, all on the locus here.  Walking F again for
    # each chart chunk peaked at 5.9 stacks on torus-m2 (the chart
    # submatrices of all rows are 3) and 11.4 on torus-m4 (one chunk of
    # CHART_STACK_BYTES of submatrices is 8.2); keeping DPhi = Hess f - N
    # through the chart SVDs may cost one stack more, and no more
    @pytest.mark.parametrize("m, count, stacks", [(2, 3896, 6.9),
                                                  (4, 2000, 12.4)])
    def test_peak_memory(self, m, count, stacks):
        phi = torus_phi(m)
        X = torus_points(np.random.default_rng(65), m, count)
        certify(phi, X[:3])  # the one-time caches
        tracemalloc.start()
        try:
            samples = certify(phi, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert samples.charts.any(1).all()
        assert peak <= stacks * count * 8 * (2 * m) ** 2

    def test_point_stack_required(self):
        # the field layer's shape check raises before any row is read
        s, phi = demo_phi("circle-m1")
        for X in (np.array([1.0, 0.0]), np.zeros((2, 3)), np.zeros((1, 1, 2))):
            with pytest.raises(DimensionMismatch):
                certify(phi, X, s.options)

    def test_on_locus_is_inclusive_and_rejects_nan(self):
        opts = LocusOptions(tol_residual=1e-10)
        norms = np.array([0.0, 1e-10, np.nextafter(1e-10, 1.0), np.nan])
        assert locus.on_locus(norms, opts).tolist() == [True, True,
                                                        False, False]


def torus_phi(m):
    """torus-m{m}: m copies of the circle-m1 demo on R^{2m}.  Its locus
    puts each block (x_{2i-1}, x_{2i}) on its unit circle or at 0."""
    F = []
    for i in range(1, m + 1):
        a, b = f"x{2 * i - 1}", f"x{2 * i}"
        F += [f"{a} + ({a}^2 + {b}^2 - 1) * {b}",
              f"{b} - ({a}^2 + {b}^2 - 1) * {a}"]
    f = " + ".join(f"x{k}^2" for k in range(1, 2 * m + 1))
    return euclidean_phi(f"({f}) / 2", F)


def torus_points(rng, m, count):
    """Locus points of torus-m{m}: each block at a random angle on its
    unit circle, or at the origin with probability 1/5."""
    theta = rng.uniform(0.0, 2.0 * np.pi, (count, m))
    X = np.empty((count, 2 * m))
    X[:, 0::2], X[:, 1::2] = np.cos(theta), np.sin(theta)
    X[np.repeat(rng.random((count, m)) < 0.2, 2, axis=1)] = 0.0
    return X


class TestChartsAgainstOracle:
    """The stacked chart test equals the per-point loop ``chart_loop``."""

    def check(self, phi, X, opts=LocusOptions()):
        got = certify(phi, X, opts).charts
        assert np.array_equal(got, chart_loop(phi, X, opts))
        return got

    def test_demos(self):
        for name in ("circle-m1", "plane-m2", "minkowski-grad"):
            s, phi = demo_phi(name)
            samples = sample_locus(phi, s.box_array(), 200, s.options)
            assert len(samples), name
            assert np.array_equal(self.check(phi, samples.x, s.options),
                                  samples.charts), name

    def test_torus(self):
        rng = np.random.default_rng(61)
        for m in (2, 3, 4):
            phi = torus_phi(m)
            charts = self.check(phi, torus_points(rng, m, 60))
            # every row on some chart, and not all rows on the same ones
            assert charts.any(1).all() and (charts != charts[0]).any(), m

    def test_rank_gray_rows(self):
        # a unit-circle coordinate t scales one row of DPhi by t, so the
        # rank decision at tol_rank = 1e-6 is close for t in [1e-9, 1e-3];
        # below 1e-12 of the full Jacobian a sub-block takes its scale
        t = np.geomspace(1e-15, 1e-3, 61)
        b = np.sqrt(1.0 - t * t)
        blocks = np.concatenate([np.stack(v, axis=1) for v in (
            (t, b), (b, t), (-t, b), (b, -t))])
        for m in (1, 2):
            charts = self.check(torus_phi(m), np.tile(blocks, m))
            assert (charts != charts[0]).any(), m
        other = torus_points(np.random.default_rng(62), 1, len(blocks))
        self.check(torus_phi(2), np.hstack([blocks, other]))

    def test_stack_longer_than_one_chunk(self):
        m = 6
        per_chunk = CHART_STACK_BYTES // (len(all_charts(m)) * m * 2 * m * 8)
        X = torus_points(np.random.default_rng(63), m, per_chunk + 3)
        phi = torus_phi(m)
        assert np.array_equal(
            chart_memberships(phi, phi.dphi(X)[1]),
            chart_loop(phi, X, LocusOptions()))

    def test_zero_rows(self):
        s, phi = demo_phi("plane-m2")
        samples = certify(phi, np.empty((0, 4)), s.options)
        assert len(samples) == 0 and samples.charts.shape == (0, 6)
        assert chart_memberships(phi, np.empty((0, 4, 4))).shape == (0, 6)

    def test_undefined_dphi_lies_on_no_chart(self):
        class PoisonedOnLocus(PoisonedDphi):
            POISON = np.array([0.0, 1.0])

        _, phi = demo_phi("circle-m1")
        poisoned = PoisonedOnLocus(phi.pair, phi.f, phi.F, phi.side, phi.C)
        X = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        DPhi = poisoned.dphi(X)[1]
        before = DPhi.copy()
        got = chart_memberships(poisoned, DPhi)
        assert got.tolist() == [[False, True], [False, False], [True, True]]
        assert np.array_equal(got, chart_loop(poisoned, X, LocusOptions()))
        assert np.array_equal(DPhi, before, equal_nan=True)


def charts_at(phi, X):
    """chart_memberships on the DPhi stack at the points X."""
    return chart_memberships(phi, phi.dphi(np.asarray(X))[1])


class TestChartMemberships:
    def test_circle_axis_points(self):
        _, phi = demo_phi("circle-m1")
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        # columns: the charts (1,) and (2,)
        assert charts_at(phi, X).tolist() == [[True, False], [False, True]]

    def test_circle_generic_point_lies_in_both(self):
        _, phi = demo_phi("circle-m1")
        X = np.array([[np.sqrt(0.5), np.sqrt(0.5)]])
        assert charts_at(phi, X).tolist() == [[True, True]]

    def test_plane_uses_leading_pair(self):
        _, phi = demo_phi("plane-m2")
        got = charts_at(phi, [[0.3, -1.2, 0.0, 0.0]])
        assert got.tolist() == [[c == (1, 2) for c in all_charts(2)]]

    def test_single_point_is_a_stack_of_one(self):
        # only a (B, 2m, 2m) stack is taken: not one matrix, not the
        # points, not matrices of another dimension, also with 0 rows
        _, phi = demo_phi("circle-m1")
        for bad in (np.eye(2), np.zeros((1, 2)), np.zeros((1, 3, 3)),
                    np.zeros((0, 2, 3)), np.zeros((1, 1, 2, 2))):
            with pytest.raises(DimensionMismatch, match="shape"):
                chart_memberships(phi, bad)

    def test_chart_enumeration(self):
        assert all_charts(1) == [(1,), (2,)]
        assert all_charts(2) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                                 (3, 4)]


class TestVerifyCover:
    def test_circle_cover(self):
        s, phi = demo_phi("circle-m1")
        samples = sample_locus(phi, s.box_array(), 400, s.options)
        report = verify_cover(samples)
        assert report.uncovered_count == 0
        assert report.charts_used == 2
        assert report.chart_bound == 2
        assert report.ok

    def test_plane_cover(self):
        s, phi = demo_phi("plane-m2")
        samples = sample_locus(phi, s.box_array(), 150, s.options)
        report = verify_cover(samples)
        assert report.uncovered_count == 0
        assert 1 <= report.charts_used <= 6
        assert report.chart_bound == 6
        assert (1, 2) in report.per_chart

    def test_counts_the_verdicts_of_certify(self):
        # F rotates grad f by 7e-7, so |Gamma| / scale = 9.9e-7 at the
        # origin: decisive at the default tol_gamma, gray at 1e-6; a rank
        # tolerance of 10 leaves the origin on no chart
        phi = euclidean_phi("(x1^2 + x2^2) / 2",
                            ["x1 - 7e-7 * x2", "x2 + 7e-7 * x1"])
        origin = np.zeros((1, 2))
        gray = certify(phi, origin, LocusOptions(tol_gamma=1e-6, tol_rank=10))
        assert abs(gray.gamma_value[0]) / gray.gamma_scale[0] == pytest.approx(
            9.9e-7, rel=1e-2)
        assert not (gray.obstructed[0] or gray.charts.any()
                    or gray.certified[0])
        report = verify_cover(gray)
        assert report.uncovered_count == 0 and report.ok
        bare = certify(phi, origin, LocusOptions(tol_rank=10))
        assert bare.obstructed[0] and not bare.certified[0]
        report = verify_cover(bare)
        assert report.uncovered_count == 1 and not report.ok

    def test_empty_sample_list_vacuous(self):
        _, phi = demo_phi("circle-m1")
        report = verify_cover(certify(phi, np.empty((0, 2))))
        assert report.certified_count == 0
        assert report.uncovered_count == 0
        assert report.ok


def stiff_phi(K):
    """The stiff scenario on Euclidean R^4: f = K (x1+x2+x3+x4)^2 / 8 and
    F = (x3, x4, -x1, -x2).  Phi is linear with its one zero at the
    origin, where |Gamma| / scale = 1 and DPhi = K u u^T - J has
    sigma_2 = 1, so rank DPhi >= m = 2 there whatever K is."""
    return euclidean_phi(f"{K} * (x1 + x2 + x3 + x4)^2 / 8",
                         ["x3", "x4", "-x1", "-x2"])


# torus-m2 at 2000 seeds: perfbench/torus.py:scenario(2, 2000, 11)
TORUS_M2 = {
    "name": "torus-m2", "dim": 4,
    "structure": {"kind": "euclidean", "dim": 4},
    "f": "(x1^2 + x2^2 + x3^2 + x4^2) / 2",
    "F": ["x1 + (x1^2 + x2^2 - 1) * x2", "x2 - (x1^2 + x2^2 - 1) * x1",
          "x3 + (x3^2 + x4^2 - 1) * x4", "x4 - (x3^2 + x4^2 - 1) * x3"],
    "side": "left", "box": [[-2.0, 2.0]] * 4, "n_seeds": 2000,
    "rng_seed": 11,
    "tolerances": {"residual": 1e-10, "gamma": 1e-8, "rank": 1e-6},
}


def known_defect(reason):
    """A defect listed in ROADMAP.md that reproduces today: the change
    that mends it must flip the test, and only a failed assertion counts
    as the expected failure."""
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=reason)


class TestKnownDefects:
    @known_defect("the LM step squares cond DPhi ~ K^2 (ROADMAP item 2)")
    def test_stiff_scenario_converges(self):
        seeds = locus.box_halton([[-2.0, 2.0]] * 4, 20, 7)
        _, outcome = solve_from_seed(stiff_phi("1e5"), seeds)
        assert outcome.tolist() == ["converged"] * 20

    @known_defect("the damping starts at an absolute 1e-3 (ROADMAP item 2)")
    def test_rotation_scenario_converges(self):
        phi = euclidean_phi("(x1^2 + x2^2) / 2",
                            ["x1 - 3e-8 * x2", "x2 + 3e-8 * x1"])
        seeds = locus.box_halton([[-2.0, 2.0]] * 2, 50, 7)
        _, outcome = solve_from_seed(phi, seeds)
        assert outcome.tolist() == ["converged"] * 50

    @known_defect("each chart block is ranked against its own sigma_1 "
                  "(ROADMAP item 7)")
    def test_stiff_origin_lies_on_a_chart(self):
        samples = certify(stiff_phi("2e6"), np.zeros((1, 4)))
        assert samples.obstructed[0]
        assert verify_cover(samples).ok

    @known_defect("box counting reads about 2m on curved loci "
                  "(ROADMAP item 1)")
    def test_torus_dimension_estimate_reads_m(self, tmp_path):
        scenario = tmp_path / "torus-m2.json"
        scenario.write_text(json.dumps(TORUS_M2), encoding="utf-8")
        assert main(["locus", "--scenario", str(scenario),
                     "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text(
            encoding="utf-8"))
        assert abs(summary["dimension_estimate"] - 2) <= 0.3


class TestBoxCounting:
    def test_circle_dimension(self):
        rng = np.random.default_rng(54)
        theta = rng.uniform(0, 2 * np.pi, 1000)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        est = box_counting_dimension(pts)
        assert 0.85 <= est.estimate <= 1.1
        assert est.fit_r2 > 0.98

    def test_plane_patch_in_r4(self):
        rng = np.random.default_rng(55)
        pts = np.zeros((1000, 4))
        pts[:, :2] = rng.uniform(-2, 2, (1000, 2))
        est = box_counting_dimension(pts)
        assert 1.8 <= est.estimate <= 2.2

    def test_identical_points_have_dimension_zero(self):
        pts = np.tile([0.3, 0.7], (100, 1))
        est = box_counting_dimension(pts)
        assert est.estimate == 0.0
        assert est.fit_r2 == 1.0

    def test_near_identical_cluster_with_external_ladder(self):
        rng = np.random.default_rng(56)
        pts = np.full((100, 2), 0.25) + rng.normal(scale=1e-12, size=(100, 2))
        est = box_counting_dimension(pts, scales=default_scales(1.0))
        assert est.estimate == pytest.approx(0.0)
        assert all(c == 1 for c in est.counts)

    def test_counts_match_set_count(self):
        pts = np.random.default_rng(59).uniform(-1, 1, size=(1000, 3))
        est = box_counting_dimension(pts)
        lo = pts.min(axis=0)
        want = [len(set(map(tuple, np.floor((pts - lo) / eps).astype(int))))
                for eps in est.scales]
        assert list(est.counts) == want

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            box_counting_dimension(np.zeros((10, 2)))

    def test_invalid_scales(self):
        pts = np.random.default_rng(57).uniform(size=(60, 2))
        with pytest.raises(ValueError):
            box_counting_dimension(pts, scales=[0.5, 0.0])

    def test_diameter_is_finite_when_the_diagonal_is(self):
        rng = np.random.default_rng(61)
        for n in (1, 2, 5):
            lo, hi = rng.normal(size=(2, n)) * 10.0 ** rng.integers(-5, 5, n)
            assert locus.box_diameter(lo, hi) == float(
                np.linalg.norm(hi - lo))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = locus.box_diameter([0.0, 0.0], [1e200, 1.0])
            assert huge == 1e200
            assert locus.box_diameter([0.0, 0.0], [1e200, 1e200]) == \
                pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
            assert locus.box_diameter([-1e308], [1e308]) == np.inf

    def test_points_whose_diameter_overflows(self):
        # the squared widths of a cloud up to 1e200 overflow; its ladder
        # starts at a quarter of its diameter, as any cloud's does
        pts = np.random.default_rng(62).uniform(size=(60, 2)) * [1e200, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = box_counting_dimension(pts)
        diam = np.ptp(pts[:, 0]) * np.hypot(1.0, np.ptp(pts[:, 1])
                                             / np.ptp(pts[:, 0]))
        assert est.scales[0] == pytest.approx(diam / 4.0, rel=1e-15)
        assert np.isfinite(est.estimate) and np.isfinite(est.fit_r2)

    def test_cloud_whose_extent_overflows_is_refused(self):
        # x1 alternates between -1.7e308 and 1.7e308, so hi - lo is inf
        pts = np.column_stack([np.resize([-1.7e308, 1.7e308], 60),
                               np.arange(60) / 60])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GradlocusError, match="not finite"):
                box_counting_dimension(pts)
            with pytest.raises(GradlocusError, match="not finite"):
                box_counting_dimension(pts, scales=default_scales(1.0))


class TestHalton:
    def test_deterministic_and_in_unit_cube(self):
        a = halton_sequence(100, 3)
        b = halton_sequence(100, 3)
        assert np.array_equal(a, b)
        assert np.all((a >= 0) & (a < 1))

    def test_base_two_prefix(self):
        pts = halton_sequence(7, 1)[:, 0]
        assert np.allclose(pts, [0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875])

    def test_shift_wraps(self):
        plain = halton_sequence(10, 2)
        shifted = halton_sequence(10, 2, shift=[0.5, 0.5])
        assert np.allclose(shifted, (plain + 0.5) % 1.0)

    @pytest.mark.parametrize("count", [1, 7, 150, 8000, 30_000])
    def test_digit_loop_matches_the_oracle(self, count):
        rng = np.random.default_rng(count)
        for dim in range(1, 13):
            # no shift, shifts in [0, 1) and shifts that wrap more than once
            for shift in (None, rng.random(dim), rng.uniform(-3.0, 4.0, dim)):
                assert halton_sequence(count, dim, shift).tobytes() == \
                    halton_loop(count, dim, shift).tobytes(), (dim, shift)

    @pytest.mark.parametrize("d", range(12))
    def test_levels_match_the_oracle_at_powers_of_each_base(self, d):
        # the level loop's last level is cut at count's top digit: b^k - 1
        # fills level k, b^k and b^k + 1 open level k + 1 by one or two
        base = locus._PRIMES[d]
        rng = np.random.default_rng(base)
        counts = {1}
        for k in range(1, 14):
            if base ** k > 10_000:
                break
            counts |= {base ** k - 1, base ** k, base ** k + 1}
        for count in sorted(counts):
            for shift in (None, rng.random(d + 1)):
                assert halton_sequence(count, d + 1, shift).tobytes() == \
                    halton_loop(count, d + 1, shift).tobytes(), (count, shift)

    def test_shift_is_numpys_default_generator_bit_for_bit(self):
        # numpy.random is the oracle of the draw box_halton makes without
        # it: SeedSequence's mixing of seeds of one to six 32-bit words,
        # and the PCG64 stream
        rng = np.random.default_rng(2024)
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 10**30, 2**128 + 5]
        seeds += rng.integers(0, 2**63, 1000).tolist()
        seeds += [int.from_bytes(rng.bytes(k), "little")
                  for k in rng.integers(1, 25, 1000).tolist()]
        for seed in seeds:
            for dim in range(1, 13):
                assert np.array(locus._uniform_draw(seed, dim)).tobytes() \
                    == np.random.default_rng(seed).random(dim).tobytes(), \
                    (seed, dim)

    def test_box_halton_rejects_seeds_numpy_rejects(self):
        for seed, error in ((-1, ValueError), (-2**40, ValueError),
                            (1.5, TypeError)):
            with pytest.raises(error):
                np.random.default_rng(seed)
            with pytest.raises(error):
                locus.box_halton([[0.0, 1.0]], 3, seed)

    def test_box_halton_is_the_seeded_sequence_in_the_box(self):
        box = np.array([[-2.0, 2.0], [0.5, 1.0], [3.0, 7.0]])
        shift = np.random.default_rng(13).random(3)
        expect = box[:, 0] + halton_sequence(40, 3, shift) * (box[:, 1]
                                                              - box[:, 0])
        assert np.array_equal(locus.box_halton(box, 40, 13), expect)
