import numpy as np
import pytest

from gradlocus import (DimensionMismatch, NotSymplectic, ScalarField,
                       VectorField, companion_map, gradient_like_field, hamiltonian_field, left_gradient,
                       matrix_apply, pseudo_euclidean,
                       right_gradient, standard_euclidean,
                       standard_symplectic)
from gradlocus.geometry import FormKind

from oracles import builtin_structures, random_points, random_polynomial


class TestFieldTypes:
    def test_scalar_field_dimension_guard(self):
        from gradlocus import ParseError
        from gradlocus.dsl import Var
        with pytest.raises(ParseError):
            ScalarField.parse("x1 + x3", 2)
        with pytest.raises(DimensionMismatch):
            ScalarField(2, Var(3))

    def test_vector_field_component_count(self):
        with pytest.raises(DimensionMismatch):
            VectorField.parse(["x1"], 2)

    def test_vector_value_and_jacobian(self):
        F = VectorField.parse(["-x2", "x1"], 2)
        assert np.allclose(F.value([[3.0, 4.0]]), [[-4.0, 3.0]])
        assert np.allclose(F.jacobian([[3.0, 4.0]])[1],
                           [[[0.0, -1.0], [1.0, 0.0]]])

    def test_batched_value(self):
        F = VectorField.parse(["x1 * x2", "0"], 2)
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(F.value(X), [[2.0, 0.0], [12.0, 0.0]])


    def test_scalar_value_and_gradient(self):
        f = ScalarField.parse("x1^1 * x2 + x2^2", 2)
        X = np.array([[3.0, 2.0], [1.0, -1.0]])
        assert np.array_equal(f.value(X), [10.0, 0.0])
        assert np.array_equal(f.gradient(X)[1], [[2.0, 7.0], [-1.0, -1.0]])


class TestGradientOperators:
    def test_euclidean_reduces_to_gradient(self):
        pair = companion_map(standard_euclidean(2))
        f = ScalarField.parse("x1^2 * x2", 2)
        x = [[1.5, -2.0]]
        assert np.allclose(left_gradient(pair, f, x), f.gradient(x)[1])
        assert np.allclose(right_gradient(pair, f, x), f.gradient(x)[1])

    def test_pseudo_euclidean_flips_sign(self):
        pair = companion_map(pseudo_euclidean(1, 1))
        f = ScalarField.parse("x1^2 + x2^2", 2)
        assert np.allclose(left_gradient(pair, f, [[1.0, 1.0]]), [[2.0, -2.0]])

    def test_symplectic_rotation(self):
        pair = companion_map(standard_symplectic(1))
        f = ScalarField.parse("(x1^2 + x2^2) / 2", 2)
        x = np.array([[0.3, -0.7]])
        left = left_gradient(pair, f, x)
        right = right_gradient(pair, f, x)
        assert np.allclose(left, [[x[0, 1], -x[0, 0]]])
        assert np.allclose(right, -left)

    def test_defining_relations(self):
        # b(grad_L f, v) = df.v and b(v, grad_R f) = df.v on basis vectors
        rng = np.random.default_rng(31)
        for name, form in builtin_structures():
            pair = companion_map(form)
            n = form.dim
            f = ScalarField(n, random_polynomial(rng, n))
            X = random_points(rng, 100, n)
            G = f.gradient(X)[1]
            L = G @ pair.Bstar.T
            R = G @ pair.B.T
            scale = 1e-9 * (1.0 + np.abs(G).max()) * (1 + np.abs(form.Q).max())
            for j in range(n):
                v = np.zeros(n)
                v[j] = 1.0
                assert np.abs(L @ form.Q @ v - G[:, j]).max() <= scale, name
                assert np.abs((v @ form.Q) @ R.T - G[:, j]).max() <= scale, name

    def test_left_right_relation_by_kind(self):
        rng = np.random.default_rng(32)
        for name, form in builtin_structures():
            pair = companion_map(form)
            f = ScalarField(form.dim, random_polynomial(rng, form.dim))
            X = random_points(rng, 50, form.dim)
            L = left_gradient(pair, f, X)
            R = right_gradient(pair, f, X)
            scale = 1e-12 * (1.0 + np.abs(L).max())
            if form.kind is FormKind.SYMMETRIC:
                assert np.abs(L - R).max() <= scale, name
            elif form.kind is FormKind.SKEW_SYMMETRIC:
                assert np.abs(L + R).max() <= scale, name
            # general relation grad_L = Bstar B^{-1} grad_R
            M = pair.Bstar @ np.linalg.inv(pair.B)
            assert np.abs(L - R @ M.T).max() <= 1e-9 * (1 + np.abs(L).max())


class TestHamiltonianField:
    def test_rotation_example(self):
        pair = companion_map(standard_symplectic(1))
        f = ScalarField.parse("(x1^2 + x2^2) / 2", 2)
        assert np.allclose(hamiltonian_field(pair, f, [[1.0, 0.0]]),
                           [[0.0, -1.0]])

    def test_constant_potential(self):
        pair = companion_map(standard_symplectic(2))
        f = ScalarField.parse("3.5", 4)
        assert np.allclose(hamiltonian_field(pair, f, np.zeros((1, 4))),
                           np.zeros((1, 4)))
        assert hamiltonian_field(pair, f, np.empty((0, 4))).shape == (0, 4)

    def test_rejects_non_symplectic(self):
        pair = companion_map(standard_euclidean(2))
        f = ScalarField.parse("x1", 2)
        with pytest.raises(NotSymplectic):
            hamiltonian_field(pair, f, [[0.0, 0.0]])


class TestSymbolicEmission:
    def test_gradient_like_field_matches_pointwise(self):
        rng = np.random.default_rng(33)
        for name, form in builtin_structures():
            pair = companion_map(form)
            f = ScalarField(form.dim, random_polynomial(rng, form.dim))
            for side, op in (("left", left_gradient), ("right", right_gradient)):
                F = gradient_like_field(pair, f, side)
                X = random_points(rng, 25, form.dim)
                want = op(pair, f, X)
                got = F.value(X)
                assert np.abs(got - want).max() <= \
                    1e-11 * (1.0 + np.abs(want).max()), (name, side)

    def test_matrix_apply(self):
        F = VectorField.parse(["x1", "x2"], 2)
        M = np.array([[0.0, 1.0], [-1.0, 0.0]])
        G = matrix_apply(M, F)
        assert np.allclose(G.value([[2.0, 5.0]]), [[5.0, -2.0]])

    def test_symplectic_emission_is_hamiltonian(self):
        pair = companion_map(standard_symplectic(1))
        f = ScalarField.parse("x1 * x2", 2)
        F = gradient_like_field(pair, f, "left")
        x = np.array([[0.4, 1.1]])
        assert np.allclose(F.value(x), hamiltonian_field(pair, f, x))


def test_form_evaluation_consistency():
    # b(x, y) through the form equals the matrix sandwich
    rng = np.random.default_rng(34)
    for name, form in builtin_structures():
        x = rng.standard_normal(form.dim)
        y = rng.standard_normal(form.dim)
        assert form.value(x, y) == pytest.approx(float(x @ form.Q @ y))
