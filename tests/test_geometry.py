import numpy as np
import pytest

from gradlocus import (DegenerateForm, DimensionMismatch, FormKind,
                       GeometricPair, companion_map, make_form,
                       minkowski, pseudo_euclidean, standard_euclidean,
                       standard_symplectic, verify_pair)

from oracles import builtin_structures, GENERAL_Q

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestMakeForm:
    def test_identity_is_euclidean(self):
        form = make_form(np.eye(2))
        assert form.kind is FormKind.SYMMETRIC
        assert form.signature == (2, 0)

    def test_canonical_symplectic_is_skew(self):
        form = make_form(J2)
        assert form.kind is FormKind.SKEW_SYMMETRIC
        assert form.signature is None

    def test_minkowski_signature(self):
        form = make_form(np.diag([1.0, 1.0, 1.0, -1.0]))
        assert form.kind is FormKind.SYMMETRIC
        assert form.signature == (3, 1)

    def test_upper_triangular_is_general(self):
        form = make_form(GENERAL_Q)
        assert form.kind is FormKind.GENERAL

    def test_degenerate_reports_sv_ratio(self):
        with pytest.raises(DegenerateForm) as err:
            make_form(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert err.value.sv_ratio is not None
        assert err.value.sv_ratio <= 1e-10

    def test_nearly_degenerate(self):
        with pytest.raises(DegenerateForm):
            make_form(np.diag([1.0, 1e-12]))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            make_form(np.ones((2, 3)))

    def test_odd_dimension_accepted(self):
        assert make_form(np.eye(3)).dim == 3

    def test_signature_respects_sylvester_inertia(self):
        # congruence transforms preserve the signature
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            p = int(rng.integers(0, n + 1))
            signs = np.diag(np.concatenate([np.ones(p), -np.ones(n - p)]))
            S = rng.standard_normal((n, n))
            while abs(np.linalg.det(S)) < 1e-2:
                S = rng.standard_normal((n, n))
            form = make_form(S @ signs @ S.T)
            assert form.signature == (p, n - p)


class TestCanonicalConstructors:
    def test_symplectic_block(self):
        assert np.array_equal(standard_symplectic(1).Q, J2)
        Q = standard_symplectic(2).Q
        assert np.array_equal(Q[:2, 2:], np.eye(2))
        assert np.array_equal(Q[2:, :2], -np.eye(2))

    def test_pseudo_euclidean_diag(self):
        assert np.array_equal(pseudo_euclidean(1, 1).Q, np.diag([1.0, -1.0]))

    def test_minkowski_convention(self):
        form = minkowski(4)
        assert np.array_equal(form.Q, np.diag([1.0, 1.0, 1.0, -1.0]))
        assert form.signature == (3, 1)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            standard_euclidean(0)
        with pytest.raises(ValueError):
            standard_symplectic(0)
        with pytest.raises(ValueError):
            pseudo_euclidean(0, 0)


class TestCompanionMap:
    def test_euclidean_identity(self):
        pair = companion_map(standard_euclidean(3))
        assert np.allclose(pair.B, np.eye(3))
        assert np.allclose(pair.Bstar, np.eye(3))

    def test_symplectic_inverse_is_minus_q(self):
        pair = companion_map(standard_symplectic(1))
        assert np.allclose(pair.B, -J2)
        assert np.allclose(pair.Bstar, J2)
        assert np.allclose(pair.form.Q @ pair.B, np.eye(2))

    def test_minkowski_involution(self):
        pair = companion_map(minkowski(4))
        assert np.allclose(pair.B, pair.form.Q)
        assert np.allclose(pair.Bstar, pair.B)

    def test_general_example(self):
        pair = companion_map(make_form(GENERAL_Q))
        assert np.allclose(pair.B, [[1.0, -1.0], [0.0, 1.0]])
        assert np.allclose(pair.Bstar, [[1.0, 0.0], [-1.0, 1.0]])

    def test_residual_of_inversion(self):
        for _, form in builtin_structures():
            pair = companion_map(form)
            bound = 1e-12 * np.abs(form.Q).max() * np.abs(pair.B).max()
            assert np.abs(form.Q @ pair.B - np.eye(form.dim)).max() <= \
                max(bound, 1e-15)


class TestEvaluate:
    def test_euclidean_unit(self):
        form = standard_euclidean(2)
        assert form.value([1, 0], [1, 0]) == 1.0

    def test_symplectic_skewness(self):
        form = standard_symplectic(1)
        e1, e2 = [1, 0], [0, 1]
        assert form.value(e1, e2) == 1.0
        assert form.value(e2, e1) == -1.0

    def test_minkowski_timelike(self):
        form = minkowski(4)
        e4 = [0, 0, 0, 1]
        assert form.value(e4, e4) == -1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            standard_euclidean(2).value([1, 0, 0], [1, 0])


class TestVerifyPair:
    def test_constructed_pairs_pass(self):
        for name, form in builtin_structures():
            report = verify_pair(companion_map(form), trials=100, tol=1e-10)
            assert report.passed, name

    def test_corrupted_adjoint_fails(self):
        pair = companion_map(standard_symplectic(1))
        bad = GeometricPair(form=pair.form, B=pair.B, Bstar=pair.Bstar + 0.5)
        report = verify_pair(bad, trials=100, tol=1e-10)
        assert not report.passed
        assert report.max_adjoint_residual > 1e-10

    def test_general_pair_adjoint_is_transpose(self):
        report = verify_pair(companion_map(make_form(GENERAL_Q)))
        assert report.passed


class TestPairProperties:
    def test_inner_product_identity_randomized(self):
        rng = np.random.default_rng(11)
        for name, form in builtin_structures():
            pair = companion_map(form)
            X = rng.standard_normal((1000, form.dim))
            Y = rng.standard_normal((1000, form.dim))
            lhs = np.sum(X * Y, axis=1)
            rhs = np.sum((X @ form.Q) * (Y @ pair.B.T), axis=1)
            scale = (np.linalg.norm(X, axis=1) * np.linalg.norm(Y, axis=1)
                     * np.linalg.norm(form.Q))
            assert np.all(np.abs(lhs - rhs) <= 1e-10 * scale), name

    def test_adjoint_matches_kind(self):
        for name, form in builtin_structures():
            pair = companion_map(form)
            if form.kind is FormKind.SYMMETRIC:
                assert np.abs(pair.Bstar - pair.B).max() <= 1e-12, name
            elif form.kind is FormKind.SKEW_SYMMETRIC:
                assert np.abs(pair.Bstar + pair.B).max() <= 1e-12, name

    def test_double_adjoint_probe(self):
        # the b-adjoint of A solves X^T Q = Q A, so the double adjoint
        # is Q^{-T} Bstar^T Q^T; it equals B for symmetric and skew
        # forms but not for the general example
        for name, form in builtin_structures():
            pair = companion_map(form)
            double = np.linalg.solve(form.Q.T, pair.Bstar.T @ form.Q.T)
            if form.kind is FormKind.GENERAL:
                assert np.abs(double - pair.B).max() > 0.5, name
            else:
                assert np.allclose(double, pair.B, atol=1e-10), name
