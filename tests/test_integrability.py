import numpy as np
import pytest

from gradlocus import (NotSymplectic, ScalarField, VectorField, companion_map,
                       equivalence_probe, gamma_obstruction,
                       gradient_like_field, left_residual, make_form,
                       matrix_apply, point_report, right_residual,
                       standard_euclidean, standard_symplectic,
                       symmetric_residual, symplectic_residual)
from gradlocus.geometry import FormKind
from gradlocus.integrability import residual

from oracles import (GENERAL_Q, antisymmetric_defect_norm,
                     builtin_structures, random_points, random_polynomial)

ROTATION = VectorField.parse(["-x2", "x1"], 2)


def negate(F: VectorField) -> VectorField:
    return matrix_apply(-np.eye(F.dim), F)


class TestResiduals:
    def test_exact_gradient_fields_have_tiny_left_residual(self):
        rng = np.random.default_rng(41)
        pair = companion_map(standard_euclidean(2))
        f = ScalarField(2, random_polynomial(rng, 2))
        F = gradient_like_field(pair, f, "left")
        X = random_points(rng, 100, 2)
        DF_scale = 1.0 + np.abs(F.jacobian(X)).max()
        assert np.max(left_residual(pair, F, X)) <= 1e-10 * DF_scale

    def test_rotation_field_constant_residual(self):
        pair = companion_map(standard_euclidean(2))
        x = np.array([0.2, -1.3])
        assert left_residual(pair, ROTATION, x) == pytest.approx(2 * np.sqrt(2))

    def test_shear_gradient_is_integrable(self):
        # (x2, x1) is the gradient of x1 x2
        pair = companion_map(standard_euclidean(2))
        F = VectorField.parse(["x2", "x1"], 2)
        assert left_residual(pair, F, [1.0, 2.0]) == 0.0

    def test_symmetric_equals_left_for_symmetric_forms(self):
        rng = np.random.default_rng(42)
        for name, form in builtin_structures():
            if form.kind is not FormKind.SYMMETRIC:
                continue
            pair = companion_map(form)
            F = VectorField(form.dim, tuple(
                random_polynomial(rng, form.dim, degree=3, terms=4)
                for _ in range(form.dim)))
            X = random_points(rng, 25, form.dim)
            left = left_residual(pair, F, X)
            right = right_residual(pair, F, X)
            sym = symmetric_residual(pair, F, X)
            assert np.abs(left - right).max() <= 1e-12 * (1 + left.max()), name
            assert np.abs(left - sym).max() <= 1e-12 * (1 + left.max()), name

    def test_named_residuals_match_defect_oracle(self):
        rng = np.random.default_rng(44)
        for name, form in builtin_structures():
            pair = companion_map(form)
            F = VectorField(form.dim, tuple(
                random_polynomial(rng, form.dim, degree=3, terms=4)
                for _ in range(form.dim)))
            X = random_points(rng, 40, form.dim)
            named = {"left": left_residual, "right": right_residual}
            if form.kind is FormKind.SYMMETRIC:
                named["symmetric"] = symmetric_residual
            if form.kind is FormKind.SKEW_SYMMETRIC:
                named["symplectic"] = symplectic_residual
            DF = F.jacobian(X)
            for side, fn in named.items():
                np.testing.assert_allclose(
                    fn(pair, F, X), antisymmetric_defect_norm(form.Q, DF, side),
                    rtol=1e-12, atol=1e-12, err_msg=f"{name} {side}")

    def test_skew_left_equals_right_of_negated(self):
        rng = np.random.default_rng(43)
        pair = companion_map(standard_symplectic(2))
        F = VectorField(4, tuple(random_polynomial(rng, 4, degree=3, terms=4)
                                 for _ in range(4)))
        X = random_points(rng, 25, 4)
        left = left_residual(pair, F, X)
        right = right_residual(pair, negate(F), X)
        assert np.abs(left - right).max() <= 1e-12 * (1 + left.max())

    def test_left_differs_from_right_for_general_pair(self):
        pair = companion_map(make_form(GENERAL_Q))
        F = VectorField.parse(["x1^2", "x1 * x2"], 2)
        x = np.array([1.0, 2.0])
        assert abs(left_residual(pair, F, x) - right_residual(pair, F, x)) > 0.1

    def test_hamiltonian_field_is_symplectically_integrable(self):
        pair = companion_map(standard_symplectic(1))
        f = ScalarField.parse("x1 * x2", 2)
        Xf = gradient_like_field(pair, f, "left")
        x = np.array([0.7, -0.4])
        assert symplectic_residual(pair, Xf, x) <= 1e-12
        # skew adjoint swap: -X_f is an exact right gradient
        assert right_residual(pair, negate(Xf), x) <= 1e-12

    def test_radial_field_breaks_symplectic_condition(self):
        pair = companion_map(standard_symplectic(1))
        F = VectorField.parse(["x1", "x2"], 2)
        assert symplectic_residual(pair, F, [0.3, 0.4]) > 1.0

    def test_zero_field(self):
        pair = companion_map(standard_symplectic(1))
        F = VectorField.parse(["0", "0"], 2)
        assert symplectic_residual(pair, F, [1.0, 1.0]) == 0.0

    def test_side_dispatch_and_guards(self):
        pair = companion_map(standard_euclidean(2))
        x = np.array([1.0, 1.0])
        assert residual(pair, ROTATION, x, "left") == \
            left_residual(pair, ROTATION, x)
        with pytest.raises(NotSymplectic):
            symplectic_residual(pair, ROTATION, x)
        with pytest.raises(ValueError):
            symmetric_residual(companion_map(standard_symplectic(1)),
                               ROTATION, x)
        with pytest.raises(ValueError):
            residual(pair, ROTATION, x, "sideways")


class TestGammaObstruction:
    def test_exact_gradient_vanishes(self):
        rng = np.random.default_rng(44)
        pair = companion_map(standard_euclidean(2))
        f = ScalarField(2, random_polynomial(rng, 2))
        F = gradient_like_field(pair, f, "left")
        for x in random_points(rng, 20, 2):
            value, scale = gamma_obstruction(pair, F, x, "left")
            assert abs(value) <= 1e-10 * scale

    def test_rotation_value(self):
        pair = companion_map(standard_euclidean(2))
        value, scale = gamma_obstruction(pair, ROTATION, [5.0, -1.0], "left")
        assert value == pytest.approx(-2.0)
        assert scale == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_plane_demo_field_constant_value(self):
        from gradlocus import builtin_demos
        s = builtin_demos()["plane-m2"]
        pair = companion_map(s.form)
        rng = np.random.default_rng(45)
        for x in random_points(rng, 10, 4):
            value, _ = gamma_obstruction(pair, s.F, x, "left")
            assert value == pytest.approx(-2.0)

    def test_batched_matches_single(self):
        pair = companion_map(standard_euclidean(2))
        F = VectorField.parse(["x1^2 - x2", "x1 * x2"], 2)
        X = random_points(np.random.default_rng(46), 12, 2)
        values, scales = gamma_obstruction(pair, F, X, "left")
        for i in range(12):
            v, s = gamma_obstruction(pair, F, X[i], "left")
            assert values[i] == pytest.approx(v)
            assert scales[i] == pytest.approx(s)


class TestPointReport:
    def test_integrable_verdict(self):
        pair = companion_map(standard_euclidean(2))
        f = ScalarField.parse("x1^2 + x1 * x2", 2)
        F = gradient_like_field(pair, f, "left")
        report = point_report(pair, F, [0.4, 0.6], "left")
        assert report.verdict_integrable
        assert not report.verdict_nonintegrable

    def test_nonintegrable_verdict(self):
        pair = companion_map(standard_euclidean(2))
        report = point_report(pair, ROTATION, [0.0, 0.0], "left")
        assert report.verdict_nonintegrable
        assert not report.verdict_integrable

    def test_gray_zone_has_no_verdict(self):
        pair = companion_map(standard_euclidean(2))
        # gradient field plus a rotation scaled into the gray band
        eps = 2e-8
        F = VectorField.parse(
            [f"2 * x1 - {eps} * x2", f"2 * x2 + {eps} * x1"], 2)
        report = point_report(pair, F, [1.0, 1.0], "left", tol=1e-8)
        rel = abs(report.gamma_value) / report.gamma_scale
        assert report.tol < rel <= 10 * report.tol
        assert not report.verdict_integrable
        assert not report.verdict_nonintegrable

    def test_verdicts_never_both_true(self):
        rng = np.random.default_rng(47)
        pair = companion_map(standard_euclidean(2))
        for _ in range(50):
            F = VectorField(2, (random_polynomial(rng, 2, degree=2, terms=3),
                                random_polynomial(rng, 2, degree=2, terms=3)))
            report = point_report(pair, F, rng.uniform(-2, 2, 2), "left")
            assert not (report.verdict_integrable
                        and report.verdict_nonintegrable)


class TestEquivalenceProbe:
    def test_exact_gradients_probe_clean(self):
        rng = np.random.default_rng(48)
        for name, form in builtin_structures():
            pair = companion_map(form)
            f = ScalarField(form.dim, random_polynomial(rng, form.dim))
            F = gradient_like_field(pair, f, "left")
            probe = equivalence_probe(pair, F, random_points(rng, 50, form.dim))
            assert probe.violations == 0, name

    def test_rotation_probe_clean(self):
        pair = companion_map(standard_euclidean(2))
        probe = equivalence_probe(pair, ROTATION,
                                  random_points(np.random.default_rng(49), 100, 2))
        assert probe.violations == 0
        assert probe.gray_excluded == 0

    def test_mixed_field_probe_clean(self):
        # gradient of x1^2 plus a rotation modulated by (x1^2 + x2^2 - 1)
        pair = companion_map(standard_euclidean(2))
        F = VectorField.parse(
            ["2 * x1 + (x1^2 + x2^2 - 1) * x2",
             "-(x1^2 + x2^2 - 1) * x1"], 2)
        probe = equivalence_probe(pair, F,
                                  random_points(np.random.default_rng(50), 200, 2))
        assert probe.violations == 0
