import warnings

import numpy as np
import pytest

from gradlocus import (NotSymplectic, ScalarField, VectorField,
                       companion_map, gamma_obstruction,
                       gradient_like_field, left_residual, make_form,
                       matrix_apply, right_residual, standard_euclidean,
                       standard_symplectic, symmetric_residual,
                       symplectic_residual)
from gradlocus.geometry import FormKind
from gradlocus.integrability import (conditions, distinct_sides,
                                     equivalence_probe, obstruction_matrix,
                                     residual)

from oracles import (GENERAL_Q, antisymmetric_defect_norm,
                     builtin_structures, point_report, probe, probe_loop,
                     random_points, random_polynomial, side_residual)

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
        DF_scale = 1.0 + np.abs(F.jacobian(X)[1]).max()
        assert np.max(left_residual(pair, F, X)) <= 1e-10 * DF_scale

    def test_rotation_field_constant_residual(self):
        pair = companion_map(standard_euclidean(2))
        x = np.array([[0.2, -1.3]])
        assert left_residual(pair, ROTATION, x)[0] == \
            pytest.approx(2 * np.sqrt(2))

    def test_shear_gradient_is_integrable(self):
        # (x2, x1) is the gradient of x1 x2
        pair = companion_map(standard_euclidean(2))
        F = VectorField.parse(["x2", "x1"], 2)
        assert left_residual(pair, F, [[1.0, 2.0]])[0] == 0.0

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
            DF = F.jacobian(X)[1]
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
        x = np.array([[1.0, 2.0]])
        assert abs(left_residual(pair, F, x)[0]
                   - right_residual(pair, F, x)[0]) > 0.1

    def test_hamiltonian_field_is_symplectically_integrable(self):
        pair = companion_map(standard_symplectic(1))
        f = ScalarField.parse("x1 * x2", 2)
        Xf = gradient_like_field(pair, f, "left")
        x = np.array([[0.7, -0.4]])
        assert symplectic_residual(pair, Xf, x)[0] <= 1e-12
        # skew adjoint swap: -X_f is an exact right gradient
        assert right_residual(pair, negate(Xf), x)[0] <= 1e-12

    def test_radial_field_breaks_symplectic_condition(self):
        pair = companion_map(standard_symplectic(1))
        F = VectorField.parse(["x1", "x2"], 2)
        assert symplectic_residual(pair, F, [[0.3, 0.4]])[0] > 1.0

    def test_zero_field(self):
        pair = companion_map(standard_symplectic(1))
        F = VectorField.parse(["0", "0"], 2)
        assert symplectic_residual(pair, F, [[1.0, 1.0]])[0] == 0.0

    def test_side_dispatch_and_guards(self):
        pair = companion_map(standard_euclidean(2))
        x = np.array([[1.0, 1.0]])
        assert np.array_equal(
            side_residual(pair, ROTATION.jacobian(x)[1], "left"),
            left_residual(pair, ROTATION, x))
        with pytest.raises(NotSymplectic):
            symplectic_residual(pair, ROTATION, x)
        with pytest.raises(ValueError):
            symmetric_residual(companion_map(standard_symplectic(1)),
                               ROTATION, x)
        with pytest.raises(ValueError):
            obstruction_matrix(pair, "sideways")

    @pytest.mark.parametrize("form, extra", [
        (standard_euclidean(3), ("symmetric",)),
        (standard_symplectic(2), ("symplectic",)),
        (make_form(GENERAL_Q), ())], ids=["symmetric", "skew", "general"])
    def test_conditions_follow_the_form_kind(self, form, extra):
        pair = companion_map(form)
        assert conditions(pair) == ("left", "right") + extra
        for side in conditions(pair):  # every listed side is measurable
            assert side_residual(pair, np.eye(pair.dim)[None], side)[0] >= 0.0


class TestGammaObstruction:
    def test_exact_gradient_vanishes(self):
        rng = np.random.default_rng(44)
        pair = companion_map(standard_euclidean(2))
        f = ScalarField(2, random_polynomial(rng, 2))
        F = gradient_like_field(pair, f, "left")
        values, scales = gamma_obstruction(
            pair, F.jacobian(random_points(rng, 20, 2))[1])
        assert np.all(np.abs(values) <= 1e-10 * scales)

    def test_rotation_value(self):
        pair = companion_map(standard_euclidean(2))
        value, scale = gamma_obstruction(
            pair, ROTATION.jacobian([[5.0, -1.0]])[1])
        assert value[0] == pytest.approx(-2.0)
        assert scale[0] == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_plane_demo_field_constant_value(self):
        from gradlocus import builtin_demos
        s = builtin_demos()["plane-m2"]
        pair = companion_map(s.form)
        rng = np.random.default_rng(45)
        DF = s.F.jacobian(random_points(rng, 10, 4))[1]
        values, _ = gamma_obstruction(
            pair, obstruction_matrix(pair, "left") @ DF)
        assert values == pytest.approx(np.full(10, -2.0))

    def test_batched_matches_single(self):
        # a point alone, as a stack of one, gives exactly its row of the
        # batch; where DF is undefined (log at x1 <= 0) the row is NaN
        pair = companion_map(standard_euclidean(2))
        X = random_points(np.random.default_rng(46), 12, 2)
        for texts, defined in ((["x1^2 - x2", "x1 * x2"], np.ones(12, bool)),
                               (["log(x1) + x2", "x1 * x2"], X[:, 0] > 0)):
            F = VectorField.parse(texts, 2)
            values, scales = gamma_obstruction(pair, F.jacobian(X)[1])
            res = residual(pair, F.jacobian(X)[1]).residual
            for i in range(12):
                DF = F.jacobian(X[i:i + 1])[1]
                v, s = gamma_obstruction(pair, DF)
                one = [v[0], s[0], residual(pair, DF).residual[0],
                       left_residual(pair, F, X[i:i + 1])[0]]
                assert np.array_equal(one, [values[i], scales[i], res[i],
                                            res[i]], equal_nan=True)
                assert np.isnan(one).all() != defined[i]


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
    def test_distinct_sides(self):
        sides = ("left", "right", "symmetric", "symplectic")
        euclidean = companion_map(standard_euclidean(2))
        assert distinct_sides(euclidean, sides[:3]) == dict.fromkeys(
            sides[:3], "left")
        for form in (standard_symplectic(1), make_form(GENERAL_Q)):
            assert distinct_sides(companion_map(form), sides) == {
                "left": "left", "right": "right", "symmetric": "right",
                "symplectic": "right"}

    def test_exact_gradients_probe_clean(self):
        rng = np.random.default_rng(48)
        for name, form in builtin_structures():
            pair = companion_map(form)
            f = ScalarField(form.dim, random_polynomial(rng, form.dim))
            F = gradient_like_field(pair, f, "left")
            report = probe(
                pair, F.jacobian(random_points(rng, 50, form.dim))[1])
            assert report.violations == 0, name

    def test_rotation_probe_clean(self):
        pair = companion_map(standard_euclidean(2))
        report = probe(pair, ROTATION.jacobian(
            random_points(np.random.default_rng(49), 100, 2))[1])
        assert report.violations == 0
        assert report.gray_excluded == 0

    def test_mixed_field_probe_clean(self):
        # gradient of x1^2 plus a rotation modulated by (x1^2 + x2^2 - 1)
        pair = companion_map(standard_euclidean(2))
        F = VectorField.parse(
            ["2 * x1 + (x1^2 + x2^2 - 1) * x2",
             "-(x1^2 + x2^2 - 1) * x1"], 2)
        report = probe(pair, F.jacobian(
            random_points(np.random.default_rng(50), 200, 2))[1])
        assert report.violations == 0

    def test_masks_match_loop_oracle(self):
        # N = I + c A with A the all-ones antisymmetric sign pattern:
        # max|N - N^T| = 2c and ||N - N^T||_F = 2c sqrt(n(n - 1)), so at
        # n = 120 a coefficient just under tol / 10 puts the residual
        # above 10 tol, which is a violation outside the gray zone.
        n, tol = 120, 1e-8
        A = np.triu(np.ones((n, n)), 1)
        A = A - A.T
        rel = np.array([0.0, tol / 11, 1.0, tol, tol / 11, 0.3 * tol,
                        tol / 11.5, 5.0 * tol])
        c = rel * (1.0 + np.sqrt(n)) / 2.0
        DF = np.eye(n) + c[:, None, None] * A
        pair = companion_map(standard_euclidean(n))
        report = probe(pair, DF, tol=tol)
        assert report == probe_loop(pair, DF, tol)
        assert report.violations == 6 and report.gray_excluded == 6
        assert [d[:2] for d in report.violation_details] == [
            (1, "left"), (4, "left"), (6, "left"),
            (1, "right"), (4, "right"), (6, "right")]

    def test_masks_match_loop_oracle_on_fields(self):
        rng = np.random.default_rng(51)
        for name, form in builtin_structures():
            pair = companion_map(form)
            F = VectorField(form.dim, tuple(
                random_polynomial(rng, form.dim, degree=3, terms=4)
                for _ in range(form.dim)))
            DF = F.jacobian(random_points(rng, 60, form.dim))[1]
            for tol in (1e-8, 1e-1, 10.0):
                assert probe(pair, DF, tol=tol) == \
                    probe_loop(pair, DF, tol), (name, tol)


@pytest.mark.parametrize("n", [2, 8])
def test_empty_stack_gives_empty_rows(n):
    # an empty stack gives empty rows, and a probe over them counts nothing
    pair = companion_map(standard_euclidean(n))
    defect = residual(pair, np.empty((0, n, n)))
    assert [field.shape for field in defect] == [(0,)] * 3
    values, scales = gamma_obstruction(pair, np.empty((0, n, n)), defect.norm)
    assert values.shape == scales.shape == (0,)
    probe = equivalence_probe({"left": defect, "right": defect})
    assert (probe.points, probe.checks, probe.violations,
            probe.gray_excluded) == (0, 0, 0, 0)
    assert dict(probe.max_relative) == {"left": 0.0, "right": 0.0}


def test_overflowing_matrices_read_nan():
    # a matrix whose numbers overflow reads NaN in all of them, as one
    # outside the domain does, with no warning; the others keep their
    # bits.  At m = 4, a norm of 1e80 overflows the Gamma-power and its
    # scale m! ||N||^4, but not the defect
    pair = companion_map(standard_euclidean(8))
    N = np.random.default_rng(60).standard_normal((4, 8, 8))
    N[1, 0, 1] = 1e200
    N[2] *= 1e80
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        defect = residual(pair, N)
        gamma = gamma_obstruction(pair, N, defect.norm)
    for numbers, huge in ((defect, [1]), (gamma, [1, 2])):
        keep = [i for i in range(4) if i not in huge]
        alone = (residual(pair, N[keep]) if numbers is defect
                 else gamma_obstruction(pair, N[keep]))
        for got, expect in zip(numbers, alone):
            assert np.all(np.isnan(got[huge]))
            assert got[keep].tobytes() == expect.tobytes()


def test_named_residuals_obey_the_overflow_rule():
    # F = (1e308 x1, 1e308 x1) under Q = [[1, 1], [0, 1]]: a sum of two
    # entries of C DF overflows for both sides, so each named residual
    # reads NaN, as ``residual`` reads the overflowing N, with no warning
    pair = companion_map(make_form(GENERAL_Q))
    F = VectorField.parse(["1e308 * x1", "1e308 * x1"], 2)
    x = np.array([[0.5, -1.0], [2.0, 3.0]])
    for side, named in (("left", left_residual), ("right", right_residual)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = named(pair, F, x)
        with np.errstate(over="ignore"):
            N = obstruction_matrix(pair, side) @ F.jacobian(x)[1]
        assert np.all(np.isnan(got))
        assert np.array_equal(got, residual(pair, N).residual, equal_nan=True)


def _defect_stacks():
    # n = 2..8, one magnitude per matrix between 1e-100 and 1e100, so no
    # square underflows to a subnormal or overflows
    rng = np.random.default_rng(70)
    for n in range(2, 9):
        N = rng.standard_normal((40, n, n)) * 10.0 ** rng.uniform(
            -100, 100, (40, 1, 1))
        yield companion_map(standard_euclidean(n)), N


def test_residual_rows_do_not_depend_on_the_stack():
    for pair, N in _defect_stacks():
        N[3, 0, 1] = np.nan
        N[5, 1, 0] = np.inf
        N[7] = -0.0
        stack = residual(pair, N)
        for i in range(len(N)):
            for got, alone in zip(stack, residual(pair, N[i:i + 1])):
                assert got[i:i + 1].tobytes() == alone.tobytes()


def test_residual_is_within_4_ulp_of_the_frobenius_norm():
    for pair, N in _defect_stacks():
        expect = np.linalg.norm(N - np.swapaxes(N, 1, 2), "fro", axis=(1, 2))
        got = residual(pair, N).residual
        assert np.all(np.abs(got - expect) <= 4 * np.spacing(expect))


def test_peak_is_the_largest_antisymmetric_entry():
    for pair, N in _defect_stacks():
        N[4] = N[4] + N[4].T  # symmetric: every entry of N - N^T is 0
        assert residual(pair, N).peak.tobytes() == \
            np.max(N - np.swapaxes(N, 1, 2), axis=(1, 2)).tobytes()
