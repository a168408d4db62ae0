import re

import numpy as np
import pytest

from gradlocus import DomainError, ParseError, differentiate, parse_expression
from gradlocus.dsl import (Add, Call, Const, Div, Jet, Mul, Neg, Pow, Sub,
                           Var, _eval, evaluate, gradient, hessian,
                           linear_combination, max_var_index)
from gradlocus.fields import ScalarField, VectorField
from gradlocus.geometry import companion_map, standard_symplectic
from gradlocus.locus import build_phi

from oracles import (central_gradient, dense_derivative, random_points,
                     random_polynomial, random_smooth)


class TestParser:
    def test_sum_of_squares(self):
        assert parse_expression("x1^2 + x2^2", 2) == \
            Add(Pow(Var(1), 2), Pow(Var(2), 2))

    def test_variable_index_beyond_dimension(self):
        with pytest.raises(ParseError) as err:
            parse_expression("sin(x1)*x3", 2)
        assert "3" in str(err.value)

    def test_parenthesized_product(self):
        assert parse_expression("(x1*x2 - 1)", 2) == \
            Sub(Mul(Var(1), Var(2)), Const(1.0))

    def test_precedence_power_over_unary_minus(self):
        assert parse_expression("-x1^2", 1) == Neg(Pow(Var(1), 2))

    def test_precedence_mul_over_add(self):
        assert parse_expression("1 + 2*x1", 1) == \
            Add(Const(1.0), Mul(Const(2.0), Var(1)))

    def test_left_associativity(self):
        assert parse_expression("x1 - x1 - x1", 1) == \
            Sub(Sub(Var(1), Var(1)), Var(1))
        assert parse_expression("x1 / x1 / x1", 1) == \
            Div(Div(Var(1), Var(1)), Var(1))

    def test_function_application(self):
        assert parse_expression("exp(log(x1))", 1) == \
            Call("exp", Call("log", Var(1)))

    def test_scientific_literals(self):
        assert parse_expression("1e-05 + .5", 1) == \
            Add(Const(1e-05), Const(0.5))

    def test_negative_exponent(self):
        assert parse_expression("x1^-2", 1) == Pow(Var(1), -2)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_expression("tan(x1)", 1)
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_expression("x0 + 1", 1)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("x1 + ", 1)
        assert err.value.position == 5
        with pytest.raises(ParseError) as err:
            parse_expression("x1 @ x1", 1)
        assert err.value.position == 3

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError, match="integer exponent"):
            parse_expression("x1^2.5", 1)

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("x1 x1", 1)
        with pytest.raises(ParseError):
            parse_expression("x1^2^3", 1)


class TestRoundTrip:
    CORPUS = [
        "x1^2 + x2^2",
        "(x1 * x2 - 1) / (1.0 + x2^2)",
        "-x1^2 - -x2",
        "sin(x1) * cos(x2) - exp(x1 - x2)",
        "log(2.0 + x1^2) / x2^3",
        "1e-05 * x1 - 0.5",
        "x1 - (x2 - x1)",
        "x1 / (x2 / x1)",
        "(-x1)^2",
        "-(x1 + x2)",
    ]

    def test_corpus(self):
        for text in self.CORPUS:
            first = parse_expression(text, 2)
            assert parse_expression(str(first), 2) == first, text

    def test_random_trees(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            tree = random_smooth(rng, 3, depth=4)
            assert parse_expression(str(tree), 3) == tree, str(tree)


class TestEvaluate:
    def test_basic_values(self):
        e = parse_expression("x1^2 + x2^2", 2)
        assert evaluate(e, [1.0, 2.0]) == 5.0

    def test_batched_matches_pointwise(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            e = random_smooth(rng, 2, depth=3)
            X = random_points(rng, 10, 2)
            batch = evaluate(e, X)
            for i in range(10):
                assert batch[i] == pytest.approx(evaluate(e, X[i]), rel=1e-14)

    def test_division_by_zero(self):
        e = parse_expression("1 / x1", 1)
        with pytest.raises(DomainError) as err:
            evaluate(e, [0.0])
        assert "1.0 / x1" in str(err.value)

    def test_log_of_nonpositive(self):
        e = parse_expression("log(x1)", 1)
        with pytest.raises(DomainError):
            evaluate(e, [0.0])
        with pytest.raises(DomainError):
            evaluate(e, [-1.0])

    def test_zero_base_negative_exponent(self):
        e = parse_expression("x1^-1", 1)
        with pytest.raises(DomainError):
            evaluate(e, [0.0])

    def test_overflow_surfaces_as_domain_error(self):
        e = parse_expression("exp(exp(x1))", 1)
        with pytest.raises(DomainError):
            evaluate(e, [100.0])

    def test_constant_expression_broadcasts(self):
        e = parse_expression("2.5", 3)
        out = evaluate(e, np.zeros((4, 3)))
        assert np.array_equal(out, np.full(4, 2.5))


class TestDerivatives:
    def test_sum_of_squares(self):
        e = parse_expression("x1^2 + x2^2", 2)
        assert np.allclose(gradient(e, [1.0, 2.0]), [2.0, 4.0])
        assert np.allclose(hessian(e, [1.0, 2.0]), 2 * np.eye(2))

    def test_sin_product(self):
        e = parse_expression("sin(x1) * x2", 2)
        g = gradient(e, [0.0, 3.0])
        assert np.allclose(g, [3.0, 0.0])
        fd = central_gradient(lambda x: evaluate(e, x), np.array([0.0, 3.0]))
        assert np.allclose(g, fd, atol=1e-9)

    def test_against_central_differences(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 50:
            e = random_smooth(rng, 3, depth=3)
            x = rng.uniform(-1.5, 1.5, size=3)
            try:
                g = gradient(e, x)
            except DomainError:
                continue
            fd = central_gradient(lambda p: evaluate(e, p), x)
            scale = 1.0 + np.abs(g).max()
            assert np.abs(g - fd).max() <= 1e-6 * scale, str(e)
            checked += 1

    def test_hessian_against_gradient_differences(self):
        rng = np.random.default_rng(24)
        checked = 0
        while checked < 25:
            e = random_smooth(rng, 2, depth=3)
            x = rng.uniform(-1.5, 1.5, size=2)
            try:
                H = hessian(e, x)
            except DomainError:
                continue
            fd = np.column_stack([
                central_gradient(lambda p, i=i: gradient(e, p)[i], x)
                for i in range(2)
            ])
            scale = 1.0 + np.abs(H).max()
            assert np.abs(H - 0.5 * (fd + fd.T)).max() <= 1e-5 * scale
            checked += 1

    def test_empty_batch(self):
        e = parse_expression("sin(x1) * x2^2", 2)
        assert gradient(e, np.empty((0, 2))).shape == (0, 2)
        assert hessian(e, np.empty((0, 2))).shape == (0, 2, 2)

    def test_raw_hessian_is_exactly_symmetric(self):
        # white box: the second-order Jet rules only combine symmetric
        # outer pairs
        rng = np.random.default_rng(25)
        for _ in range(50):
            e = random_smooth(rng, 3, depth=3)
            X = random_points(rng, 5, 3)
            seeds = [Jet(X[:, i], np.ones((5, 1)), np.zeros((5, 1, 1)),
                         vars=(i,)) for i in range(3)]
            flags = []
            with np.errstate(all="ignore"):
                out = _eval(e, seeds, flags)
            if isinstance(out, Jet):
                defined = np.ones(5, dtype=bool)
                for undefined, _, _ in flags:
                    defined &= ~undefined
                H = out.hess[defined]
                skew = np.abs(H - H.transpose(0, 2, 1)).max(initial=0.0)
                assert skew <= 1e-12 * (1.0 + np.abs(H).max(initial=0.0))

    def test_sparse_jets_match_the_dense_oracle(self):
        # the sparse jets widen to the union of their variables and then
        # compute as the dense ones do, so derivatives, undefined rows and
        # single-point errors all agree exactly; the trees are wrapped in
        # 1/xi, log(xi), (1/xi)^0 or exp(tree^2), and the points put xi
        # at 0 and -1 and one entry at 1e200, so rows fall outside the
        # domain
        rng = np.random.default_rng(28)
        for n in range(1, 7):
            for make in (random_smooth, random_polynomial):
                for _ in range(8):
                    tree = make(rng, n)
                    xi = Var(int(rng.integers(1, n + 1)))
                    e = [tree, Div(tree, xi), Mul(Call("log", xi), tree),
                         Add(tree, Pow(Div(Const(1.0), xi), 0)),
                         Call("exp", Mul(tree, tree))][rng.integers(5)]
                    X = random_points(rng, 8, n)
                    X[:2, xi.index - 1] = [0.0, -1.0]
                    X[2, rng.integers(n)] = 1e200
                    for order, sparse in ((1, gradient), (2, hessian)):
                        dense = dense_derivative(e, X, order)
                        assert np.array_equal(sparse(e, X), dense,
                                              equal_nan=True), (str(e), order)
                        for x, row in zip(X, dense, strict=True):
                            if np.isnan(row).all():
                                with pytest.raises(DomainError) as sparse_err:
                                    sparse(e, x)
                                with pytest.raises(DomainError) as dense_err:
                                    dense_derivative(e, x, order)
                                assert str(sparse_err.value) == \
                                    str(dense_err.value)
                            else:
                                assert np.array_equal(sparse(e, x), row)

    def test_batched_derivatives_match_single(self):
        # a point alone gives exactly its row of the batch, through the
        # DSL, the fields and the Phi system; a point outside the domain
        # is an all-NaN row of the batch and raises DomainError alone
        rng = np.random.default_rng(26)
        X = random_points(rng, 10, 2)
        X[:5, 0] = [0.0, -1.3, 7.5, 0.8, 0.0]
        x1 = X[:, 0]
        everywhere = np.ones(len(X), dtype=bool)
        cases = [  # (expression, rows inside its domain, reason outside)
            ("sin(x1 * x2) + x1^3 / (1.0 + x2^2)", everywhere, None),
            ("log(x1^2 + 1) * cos(x2) - 2 / (3 + x1 * x2)", everywhere, None),
            ("1/x1", x1 != 0, "division by zero in '1.0 / x1'"),
            ("log(x1)", x1 > 0, "log of non-positive value in 'log(x1)'"),
            ("x1^-1", x1 != 0, "zero base with negative exponent in 'x1^-1'"),
            ("exp(-1/x1^2)", x1 != 0, "division by zero in '-1.0 / x1^2'"),
            ("(1/x1)^0", x1 != 0, "division by zero in '1.0 / x1'"),
            ("exp(exp(x1))", x1 < 6, "non-finite value in 'exp(exp(x1))'"),
        ]
        for text, defined, reason in cases:
            assert 0 < defined.sum()
            e = parse_expression(text, 2)
            F = VectorField.parse([text, f"x2 * ({text})"], 2)
            phi = build_phi(companion_map(standard_symplectic(1)),
                            ScalarField.parse(text, 2), F, "left")
            calls = [lambda x: evaluate(e, x), lambda x: gradient(e, x),
                     lambda x: hessian(e, x), F.value, F.jacobian, phi.phi,
                     phi.dphi]
            batched = [call(X) for call in calls]
            for i in range(len(X)):
                for call, many in zip(calls, batched, strict=True):
                    if defined[i]:
                        one = call(X[i])
                        assert np.shape(one) == many[i].shape
                        assert np.array_equal(one, many[i]), (text, i)
                    else:
                        assert np.all(np.isnan(many[i])), (text, i)
                        with pytest.raises(DomainError,
                                           match=re.escape(reason)):
                            call(X[i])


class TestSymbolic:
    def test_differentiate_matches_ad(self):
        rng = np.random.default_rng(27)
        for _ in range(30):
            e = random_smooth(rng, 2, depth=3)
            x = rng.uniform(-1.5, 1.5, size=2)
            try:
                g = gradient(e, x)
                d1 = evaluate(differentiate(e, 1), x)
                d2 = evaluate(differentiate(e, 2), x)
            except DomainError:
                continue
            assert np.allclose([d1, d2], g, rtol=1e-10, atol=1e-10)

    def test_linear_combination_folds(self):
        terms = [Var(1), Var(2), Var(3)]
        out = linear_combination([0.0, 1.0, -1.0], terms)
        assert out == Sub(Var(2), Var(3))
        assert linear_combination([0.0, 0.0, 0.0], terms) == Const(0.0)

    def test_max_var_index(self):
        e = parse_expression("x1 + sin(x3) * x2", 3)
        assert max_var_index(e) == 3
        assert max_var_index(Const(1.0)) == 0
