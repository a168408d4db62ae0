import numpy as np
import pytest

from gradlocus import (DimensionMismatch, Diverged, GradlocusError,
                       OddDimension, ScalarField, TooFewPoints,
                       VectorField, all_charts, box_counting_dimension,
                       builtin_demos, build_phi, certify,
                       chart_memberships, companion_map, default_scales,
                       halton_sequence, pseudo_euclidean, rank_with_tolerance,
                       sample_locus, solve_from_seed, standard_euclidean,
                       standard_symplectic, verify_cover)
from gradlocus.exterior import antisymmetric_part

from oracles import random_points


def demo_phi(name):
    s = builtin_demos()[name]
    pair = companion_map(s.form)
    return s, build_phi(pair, s.f, s.F, s.side)


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

    def test_antisymmetry_transfer(self):
        # skew part of DPhi equals minus the skew part of C DF wherever
        # the Hessian is symmetric
        for name in ("circle-m1", "plane-m2", "minkowski-grad"):
            s, phi = demo_phi(name)
            rng = np.random.default_rng(53)
            for x in random_points(rng, 20, s.dim):
                dphi = phi.dphi(x)
                cdf = phi.C @ s.F.jacobian(x)
                dev = np.abs(antisymmetric_part(dphi)
                             + antisymmetric_part(cdf)).max()
                assert dev <= 1e-8 * (1.0 + np.abs(cdf).max()), name


class TestSolveFromSeed:
    def test_circle_converges_to_zero_set(self):
        _, phi = demo_phi("circle-m1")
        x = solve_from_seed(phi, np.array([1.5, 0.1]))
        r = np.linalg.norm(x)
        assert abs(r - 1.0) <= 1e-8 or r <= 1e-8

    def test_constant_nonzero_phi_diverges(self):
        pair = companion_map(standard_euclidean(2))
        f = ScalarField.parse("0", 2)
        F = VectorField.parse(["1", "0"], 2)
        phi = build_phi(pair, f, F, "left")
        with pytest.raises(Diverged) as err:
            solve_from_seed(phi, np.array([0.3, -0.8]))
        assert err.value.last_residual == pytest.approx(1.0)

    def test_plane_zeroes_trailing_coordinates(self):
        _, phi = demo_phi("plane-m2")
        x = solve_from_seed(phi, np.array([1.2, -0.4, 1.7, -1.9]))
        assert abs(x[2]) <= 1e-8 and abs(x[3]) <= 1e-8

    def test_seed_validation(self):
        _, phi = demo_phi("circle-m1")
        with pytest.raises(DimensionMismatch):
            solve_from_seed(phi, np.zeros(3))
        with pytest.raises(ValueError):
            solve_from_seed(phi, np.array([np.nan, 0.0]))


class TestSampleLocus:
    def test_circle_demo_population(self):
        s, phi = demo_phi("circle-m1")
        samples = sample_locus(phi, s.box_array(), 500, s.options)
        certified = [m for m in samples if m.certified]
        assert len(certified) >= 100
        for m in samples:
            r = np.linalg.norm(m.x)
            assert abs(r - 1.0) <= 1e-7 or r <= 1e-7

    def test_gradient_only_scenario_certifies_nothing(self):
        s, phi = demo_phi("minkowski-grad")
        samples = sample_locus(phi, s.box_array(), 100, s.options)
        assert samples  # Phi vanishes identically, so seeds converge
        assert all(not m.certified for m in samples)
        assert all(abs(m.gamma_value) <= 1e-10 * m.gamma_scale
                   for m in samples)

    def test_plane_demo_fills_patch(self):
        s, phi = demo_phi("plane-m2")
        samples = sample_locus(phi, s.box_array(), 200, s.options)
        certified = [m for m in samples if m.certified]
        assert len(certified) >= 150
        pts = np.array([m.x for m in certified])
        assert np.abs(pts[:, 2:]).max() <= 1e-7
        # the patch is genuinely 2-dimensional: both coordinates spread
        assert pts[:, 0].std() > 0.5 and pts[:, 1].std() > 0.5

    def test_empty_result_for_empty_zero_set(self):
        pair = companion_map(standard_euclidean(2))
        f = ScalarField.parse("0", 2)
        F = VectorField.parse(["1", "0"], 2)
        phi = build_phi(pair, f, F, "left")
        assert sample_locus(phi, [[-1, 1], [-1, 1]], 25) == []

    def test_min_separation_holds(self):
        s, phi = demo_phi("circle-m1")
        samples = sample_locus(phi, s.box_array(), 300, s.options)
        pts = np.array([m.x for m in samples])
        radius = s.options.dedup_factor * np.linalg.norm(
            s.box_array()[:, 1] - s.box_array()[:, 0])
        dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        assert dists.min() >= radius

    def test_reproducibility_bitwise(self):
        s, phi = demo_phi("circle-m1")
        a = sample_locus(phi, s.box_array(), 120, s.options)
        b = sample_locus(phi, s.box_array(), 120, s.options)
        assert a == b

    def test_seed_changes_output(self):
        s, phi = demo_phi("circle-m1")
        a = sample_locus(phi, s.box_array(), 60, s.options)
        other = s.options.with_overrides(rng_seed=s.options.rng_seed + 1)
        b = sample_locus(phi, s.box_array(), 60, other)
        assert a != b


class TestCertify:
    def test_rows_do_not_depend_on_batching(self):
        s, phi = demo_phi("plane-m2")
        samples = sample_locus(phi, s.box_array(), 120, s.options)
        X = np.array([m.x for m in samples])
        perm = np.random.default_rng(5).permutation(len(X))
        permuted = certify(phi, X[perm], s.options)
        assert [permuted[i] for i in np.argsort(perm)] == samples
        half = len(X) // 2
        assert (certify(phi, X[:half], s.options)
                + certify(phi, X[half:], s.options)) == samples

    def test_off_locus_row_gets_no_charts(self):
        s, phi = demo_phi("circle-m1")
        on, off = certify(phi, np.array([[0.0, 1.0], [1.5, 1.5]]),
                          s.options)
        assert on.certified and on.charts == {(1,)}
        assert off.phi_norm > s.options.tol_residual
        assert off.charts == frozenset() and not off.certified


class TestChartMemberships:
    def test_circle_axis_points(self):
        _, phi = demo_phi("circle-m1")
        assert chart_memberships(phi, np.array([0.0, 1.0])) == {(1,)}
        assert chart_memberships(phi, np.array([1.0, 0.0])) == {(2,)}

    def test_circle_generic_point_lies_in_both(self):
        _, phi = demo_phi("circle-m1")
        x = np.array([np.sqrt(0.5), np.sqrt(0.5)])
        assert chart_memberships(phi, x) == {(1,), (2,)}

    def test_plane_uses_leading_pair(self):
        _, phi = demo_phi("plane-m2")
        got = chart_memberships(phi, np.array([0.3, -1.2, 0.0, 0.0]))
        assert got == {(1, 2)}

    def test_off_locus_precondition(self):
        _, phi = demo_phi("circle-m1")
        with pytest.raises(GradlocusError, match="off the locus"):
            chart_memberships(phi, np.array([1.5, 1.5]))

    def test_chart_enumeration(self):
        assert all_charts(1) == [(1,), (2,)]
        assert all_charts(2) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                                 (3, 4)]


class TestVerifyCover:
    def test_circle_cover(self):
        s, phi = demo_phi("circle-m1")
        samples = sample_locus(phi, s.box_array(), 400, s.options)
        report = verify_cover(samples, phi.m)
        assert report.uncovered_count == 0
        assert report.charts_used == 2
        assert report.chart_bound == 2
        assert report.ok

    def test_plane_cover(self):
        s, phi = demo_phi("plane-m2")
        samples = sample_locus(phi, s.box_array(), 150, s.options)
        report = verify_cover(samples, phi.m)
        assert report.uncovered_count == 0
        assert 1 <= report.charts_used <= 6
        assert report.chart_bound == 6
        assert (1, 2) in report.per_chart

    def test_empty_sample_list_vacuous(self):
        report = verify_cover([], 1)
        assert report.certified_count == 0
        assert report.uncovered_count == 0
        assert report.ok


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

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            box_counting_dimension(np.zeros((10, 2)))

    def test_invalid_scales(self):
        pts = np.random.default_rng(57).uniform(size=(60, 2))
        with pytest.raises(ValueError):
            box_counting_dimension(pts, scales=[0.5, 0.0])


class TestRankWithTolerance:
    def test_identity(self):
        assert rank_with_tolerance(np.eye(4), 1e-6) == 4

    def test_zero_matrix(self):
        assert rank_with_tolerance(np.zeros((3, 3)), 1e-6) == 0

    def test_small_singular_value_below_threshold(self):
        assert rank_with_tolerance(np.diag([1.0, 1e-14]), 1e-6) == 1


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
