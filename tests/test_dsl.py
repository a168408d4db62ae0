import time
import tracemalloc

import numpy as np
import pytest

from gradlocus import ParseError, differentiate, parse_expression
from gradlocus.dsl import (Add, Call, Const, Div, Mul, Neg, Pow, Sub, Tape,
                           Var, evaluate, gradient, hessian,
                           linear_combination, max_var_index)
from gradlocus.fields import ScalarField, VectorField
from gradlocus.errors import DimensionMismatch
from gradlocus.geometry import companion_map, standard_symplectic
from gradlocus.integrability import (ProbeReport, equivalence_probe,
                                     gamma_obstruction, left_residual,
                                     residual)
from gradlocus.locus import build_phi

from oracles import (Jet, central_gradient, close_or_nan, dense_derivative,
                     random_points, random_polynomial, random_smooth, walk,
                     walk_components, walk_evaluate, walk_jet)


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
        assert np.array_equal(evaluate(e, [[1.0, 2.0], [0.0, 3.0]]),
                              [5.0, 9.0])

    def test_batched_matches_pointwise(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            e = random_smooth(rng, 2, depth=3)
            X = random_points(rng, 10, 2)
            batch = evaluate(e, X)
            for i in range(10):
                assert batch[i] == pytest.approx(evaluate(e, X[i:i + 1])[0],
                                                 rel=1e-14)

    def test_division_by_zero(self):
        out = evaluate(parse_expression("1 / x1", 1), [[0.0], [2.0]])
        assert np.isnan(out[0]) and out[1] == 0.5

    def test_log_of_nonpositive(self):
        out = evaluate(parse_expression("log(x1)", 1), [[0.0], [-1.0], [1.0]])
        assert np.isnan(out[:2]).all() and out[2] == 0.0

    def test_zero_base_negative_exponent(self):
        out = evaluate(parse_expression("x1^-1", 1), [[0.0], [4.0]])
        assert np.isnan(out[0]) and out[1] == 0.25

    def test_overflow_surfaces_as_domain_error(self):
        out = evaluate(parse_expression("exp(exp(x1))", 1), [[100.0], [0.0]])
        assert np.isnan(out[0]) and out[1] == np.exp(1.0)

    def test_constant_expression_broadcasts(self):
        e = parse_expression("2.5", 3)
        out = evaluate(e, np.zeros((4, 3)))
        assert np.array_equal(out, np.full(4, 2.5))


class TestDerivatives:
    def test_sum_of_squares(self):
        e = parse_expression("x1^2 + x2^2", 2)
        assert np.allclose(gradient(e, [[1.0, 2.0]])[1], [[2.0, 4.0]])
        assert np.allclose(hessian(e, [[1.0, 2.0]])[2], 2 * np.eye(2)[None])

    def test_sin_product(self):
        e = parse_expression("sin(x1) * x2", 2)
        g = gradient(e, [[0.0, 3.0]])[1][0]
        assert np.allclose(g, [3.0, 0.0])
        fd = central_gradient(lambda x: evaluate(e, x[None])[0],
                              np.array([0.0, 3.0]))
        assert np.allclose(g, fd, atol=1e-9)

    def test_against_central_differences(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 50:
            e = random_smooth(rng, 3, depth=3)
            x = rng.uniform(-1.5, 1.5, size=3)
            g = gradient(e, x[None])[1][0]
            if not np.isfinite(g).all():
                continue
            fd = central_gradient(lambda p: evaluate(e, p[None])[0], x)
            scale = 1.0 + np.abs(g).max()
            assert np.abs(g - fd).max() <= 1e-6 * scale, str(e)
            checked += 1

    def test_hessian_against_gradient_differences(self):
        rng = np.random.default_rng(24)
        checked = 0
        while checked < 25:
            e = random_smooth(rng, 2, depth=3)
            x = rng.uniform(-1.5, 1.5, size=2)
            H = hessian(e, x[None])[2][0]
            if not np.isfinite(H).all():
                continue
            fd = np.column_stack([
                central_gradient(
                    lambda p, i=i: gradient(e, p[None])[1][0, i], x)
                for i in range(2)
            ])
            scale = 1.0 + np.abs(H).max()
            assert np.abs(H - 0.5 * (fd + fd.T)).max() <= 1e-5 * scale
            checked += 1

    def test_empty_batch(self):
        e = parse_expression("sin(x1) * x2^2", 2)
        assert [a.shape for a in gradient(e, np.empty((0, 2)))] == [
            (0,), (0, 2)]
        assert [a.shape for a in hessian(e, np.empty((0, 2)))] == [
            (0,), (0, 2), (0, 2, 2)]

    def test_jet_matches_the_separate_walks(self):
        # each walk gives evaluate's value, and the second-order walk the
        # first-order walk's gradient, bit for bit, NaN rows included:
        # log(x1) at x1 = 1e-200 has a finite gradient
        # and an overflowing Hessian, 1/x1 at 0 is flagged, exp(exp(x1))
        # overflows at 7.5, and a constant or a variable alone is a jet
        # over all or one of the variables
        rng = np.random.default_rng(28)
        X = random_points(rng, 12, 3)
        X[:5, 0] = [1e-200, 0.0, -1.3, 7.5, 0.0]
        trees = [parse_expression(text, 3) for text in (
            "log(x1)", "1/x1 + x2", "exp(exp(x1)) * x3", "x2", "2.5",
            "(1/x1)^0", "x1 * x2 - sin(x3) / (1 + x2^2)")]
        trees += [random_smooth(rng, 3, depth=3) for _ in range(40)]
        for e in trees:
            want = (evaluate(e, X), gradient(e, X)[1])
            for order, got in ((1, gradient(e, X)), (2, hessian(e, X))):
                assert len(got) == order + 1
                for a, b in zip(got, want, strict=False):
                    assert np.array_equal(a, b, equal_nan=True), (
                        str(e), order)
        grad, hess = hessian(trees[0], X[:1])[1:]
        assert np.isfinite(grad).all() and np.isnan(hess).all()

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
                out = walk(e, seeds, flags)
            if isinstance(out, Jet):
                defined = np.ones(5, dtype=bool)
                for undefined in flags:
                    defined &= ~undefined
                H = out.hess[defined]
                skew = np.abs(H - H.transpose(0, 2, 1)).max(initial=0.0)
                assert skew <= 1e-12 * (1.0 + np.abs(H).max(initial=0.0))

    def test_derivatives_match_the_dense_oracle(self):
        # the symbolic derivatives agree with the dense jets to rounding
        # and in their undefined rows, on the stack, and each stack of one
        # gives exactly its row; the trees are wrapped in 1/xi, log(xi),
        # (1/xi)^0 or exp(tree^2), and the points put xi at 0 and -1 and
        # one entry at 1e200, so rows fall outside the domain
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
                    for order, run in ((1, gradient), (2, hessian)):
                        dense = dense_derivative(e, X, order)
                        got = run(e, X)[order]
                        assert close_or_nan(got, dense), (str(e), order)
                        for x, row, ref in zip(X, got, dense, strict=True):
                            assert np.array_equal(run(e, x[None])[order][0],
                                                  row, equal_nan=True)
                            assert np.array_equal(
                                dense_derivative(e, x[None], order)[0], ref,
                                equal_nan=True)

    def test_batched_derivatives_match_single(self):
        # a point alone, as a stack of one, gives exactly its row of the
        # batch, through the DSL, the fields and the Phi system; a point
        # outside the domain is an all-NaN row either way
        rng = np.random.default_rng(26)
        X = random_points(rng, 10, 2)
        X[:5, 0] = [0.0, -1.3, 7.5, 0.8, 0.0]
        x1 = X[:, 0]
        cases = [  # (expression, rows inside its domain)
            ("sin(x1 * x2) + x1^3 / (1.0 + x2^2)", np.ones(len(X), bool)),
            ("log(x1^2 + 1) * cos(x2) - 2 / (3 + x1 * x2)",
             np.ones(len(X), bool)),
            ("1/x1", x1 != 0),
            ("log(x1)", x1 > 0),
            ("x1^-1", x1 != 0),
            ("exp(-1/x1^2)", x1 != 0),  # finite at 0, undefined there
            ("(1/x1)^0", x1 != 0),
            ("exp(exp(x1))", x1 < 6),
        ]
        for text, defined in cases:
            assert 0 < defined.sum()
            e = parse_expression(text, 2)
            F = VectorField.parse([text, f"x2 * ({text})"], 2)
            phi = build_phi(companion_map(standard_symplectic(1)),
                            ScalarField.parse(text, 2), F, "left")
            calls = [lambda x: evaluate(e, x), lambda x: gradient(e, x)[1],
                     lambda x: hessian(e, x)[2], F.value,
                     lambda x: F.jacobian(x)[1], phi.phi,
                     lambda x: phi.dphi(x)[1]]
            batched = [call(X) for call in calls]
            for i in range(len(X)):
                for call, many in zip(calls, batched, strict=True):
                    one = call(X[i:i + 1])
                    assert one.shape == (1,) + many[i].shape
                    assert np.array_equal(one[0], many[i], equal_nan=True)
                    assert np.isnan(many[i]).all() != defined[i], (text, i)


_PAIR = companion_map(standard_symplectic(1))
_F = VectorField.parse(["x1 * x2^2", "sin(x1) - x2"], 2)
_f = ScalarField.parse("x1^2 * cos(x2)", 2)
_PHI = build_phi(_PAIR, _f, _F, "left")
_EVALUATORS = {  # name: (evaluator, whether it takes Jacobians, not points)
    "dsl.evaluate": (lambda x: evaluate(_f.expr, x), False),
    "dsl.gradient": (lambda x: gradient(_f.expr, x), False),
    "dsl.hessian": (lambda x: hessian(_f.expr, x), False),
    "ScalarField.value": (_f.value, False),
    "ScalarField.gradient": (_f.gradient, False),
    "ScalarField.hessian": (_f.hessian, False),
    "VectorField.value": (_F.value, False),
    "VectorField.jacobian": (_F.jacobian, False),
    "PhiSystem.phi": (_PHI.phi, False),
    "PhiSystem.dphi": (_PHI.dphi, False),
    "left_residual": (lambda x: left_residual(_PAIR, _F, x), False),
    "residual": (lambda N: residual(_PAIR, N), True),
    "gamma_obstruction": (lambda N: gamma_obstruction(_PAIR, N), True),
    "equivalence_probe": (lambda N: equivalence_probe(
        dict.fromkeys(("left", "right"), residual(_PAIR, N))), True),
}


@pytest.mark.parametrize("name", list(_EVALUATORS))
def test_evaluators_take_only_stacks(name):
    # the evaluation layers take only stacks: one point (n,), one
    # Jacobian (n, n) and any other 1-D input raise; a stack of one gives
    # exactly its row of a larger stack
    call, takes_jacobians = _EVALUATORS[name]
    X = random_points(np.random.default_rng(29), 6, 2)
    stack = _F.jacobian(X)[1] if takes_jacobians else X
    for single in (stack[0], stack[0].reshape(-1)):
        with pytest.raises(DimensionMismatch):
            call(single)
    many = call(stack)
    ones = [call(stack[i:i + 1]) for i in range(len(stack))]
    if isinstance(many, ProbeReport):  # per-row counts and maxima add up
        assert [r.points for r in ones] == [1] * len(stack)
        assert sum(r.violations for r in ones) == many.violations
        assert sum(r.gray_excluded for r in ones) == many.gray_excluded
        for k, (side, value) in enumerate(many.max_relative):
            assert max(r.max_relative[k][1] for r in ones) == value, side
        return
    many = many if isinstance(many, tuple) else (many,)
    for i, one in enumerate(ones):
        one = one if isinstance(one, tuple) else (one,)
        for one_part, many_part in zip(one, many, strict=True):
            assert one_part.shape == (1,) + many_part.shape[1:]
            assert np.array_equal(one_part[0], many_part[i]), (name, i)


class TestSymbolic:
    def test_differentiate_matches_ad(self):
        rng = np.random.default_rng(27)
        for _ in range(30):
            e = random_smooth(rng, 2, depth=3)
            x = rng.uniform(-1.5, 1.5, size=(1, 2))
            g = gradient(e, x)[1][0]
            d = [evaluate(differentiate(e, i), x)[0] for i in (1, 2)]
            if not (np.isfinite(g).all() and np.isfinite(d).all()):
                continue
            assert np.allclose(d, g, rtol=1e-10, atol=1e-10)

    def test_linear_combination_folds(self):
        terms = [Var(1), Var(2), Var(3)]
        out = linear_combination([0.0, 1.0, -1.0], terms)
        assert out == Sub(Var(2), Var(3))
        assert linear_combination([0.0, 0.0, 0.0], terms) == Const(0.0)

    def test_linear_combination_of_trees_made_on_the_fly(self):
        # each tree from a generator is freed after use, so a later tree
        # may reuse its ids: interning by identity holds only within a tree
        texts = ["x1 * x2", "x2 - x1", "x1 + x2", "x2 * x2", "x1 - x2"]
        got = linear_combination([1.0] * 5,
                                 (parse_expression(t, 2) for t in texts))
        assert got == parse_expression(
            " + ".join(f"({t})" for t in texts), 2)

    def test_max_var_index(self):
        e = parse_expression("x1 + sin(x3) * x2", 3)
        assert max_var_index(e) == 3
        assert max_var_index(Const(1.0)) == 0


def _torus(m):
    """f and F of the torus-m{m} scenario: m copies of circle-m1, whose
    components share x_{2i-1}^2 + x_{2i}^2 - 1."""
    f = " + ".join(f"x{k}^2" for k in range(1, 2 * m + 1))
    F = []
    for i in range(m):
        a, b = f"x{2 * i + 1}", f"x{2 * i + 2}"
        s = f"({a}^2 + {b}^2 - 1)"
        F += [f"{a} + {s} * {b}", f"{b} - {s} * {a}"]
    return f"({f}) / 2", F


# a product of 40 factors x_i + c over 8 variables, also in CI's
# "Large expressions run"
PRODUCT_40 = " * ".join(f"(x{k % 8 + 1} + {1 + k / 40!r})" for k in range(40))


def _bits_equal(a, b):
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


class TestTape:
    def test_tape_matches_the_reference_walk(self):
        # values keep the reference walk's bits, the sign of zero
        # included, and derivatives agree with its jets to rounding and in
        # their undefined rows: on one tree and on fields whose components
        # share subtrees, at orders 0, 1 and 2, with rows outside the
        # domain (xi at 0 and -1, an entry at 1e200) and signed zeros
        rng = np.random.default_rng(30)
        for trial in range(60):
            n = int(rng.integers(1, 5))
            make = (random_smooth, random_polynomial)[trial % 2]
            shared, other = make(rng, n), make(rng, n)
            xi = Var(int(rng.integers(1, n + 1)))
            comps = (shared, Add(shared, other), Mul(other, shared),
                     Div(shared, xi), Mul(Call("log", xi), shared),
                     Add(shared, Pow(Div(Const(1.0), xi), 0)),
                     Sub(Const(-0.0), Mul(Const(0.0), xi)), Const(-0.0), xi)
            X = random_points(rng, 7, n)
            X[:2, xi.index - 1] = [0.0, -1.0]
            X[2, rng.integers(n)] = 1e200
            X[3, rng.integers(n)] = -0.0
            tape = Tape(comps)
            assert _bits_equal(evaluate(tape, X), walk_components(comps, X, 0))
            for order, run in ((1, gradient), (2, hessian)):
                got, want = run(tape, X), walk_components(comps, X, order)
                assert _bits_equal(got[0], want[0]), (trial, order)
                for a, b in zip(got[1:], want[1:], strict=True):
                    assert close_or_nan(a, b), (trial, order)
            for e in comps:
                assert _bits_equal(evaluate(e, X), walk_evaluate(e, X))
                for order, run in ((1, gradient), (2, hessian)):
                    got, want = run(e, X), walk_jet(e, X, order)
                    assert _bits_equal(got[0], want[0]), (str(e), order)
                    for a, b in zip(got[1:], want[1:], strict=True):
                        assert close_or_nan(a, b), (str(e), order)

    def test_equal_subtrees_are_one_node(self):
        # torus-m2's F has 44 nodes, of which 21 are distinct
        F = VectorField.parse(_torus(2)[1], 4)
        assert sum(len(c.postorder) for c in F.components) == 44
        assert F.tape.program(0).size == 21
        assert F.tape is F.tape

    def test_a_shared_node_flags_only_its_components(self):
        # 1/x1 is one node, undefined at x1 = 0 in components 1 and 3
        F = VectorField.parse(["1/x1 + x2", "x2", "x2 * (1/x1)"], 3)
        X = np.array([[0.0, 2.0, 1.0], [0.5, 2.0, 1.0]])
        values, DF = F.jacobian(X)
        for out in (F.value(X), values, DF):
            assert np.isnan(out[0, [0, 2]]).all()
            assert np.isfinite(out[0, 1]).all() and np.isfinite(out[1]).all()
        assert np.array_equal(values[0, 1], 2.0)
        assert np.array_equal(DF[0, 1], [0.0, 1.0, 0.0])

    def test_signed_zero_constants_stay_apart(self):
        # 0.0 == -0.0, but their bits differ, so the tape keeps two nodes
        comps = (Add(Const(0.0), Var(1)), Add(Const(-0.0), Var(1)),
                 Const(0.0), Const(-0.0))
        X = np.array([[-0.0], [1.0]])
        values, grads = gradient(Tape(comps), X)
        assert np.array_equal(np.signbit(values[0]),
                              [False, True, False, True])
        assert np.array_equal(np.signbit(evaluate(Tape(comps), X)),
                              np.signbit(values))
        assert not np.signbit(grads).any()

    def test_hessian_peak_memory_is_not_above_the_reference_walk(self):
        # each node's arrays are dropped after their last use: the peak of
        # hessian of torus-m4's f on 2048 points is not above the walk's
        f = parse_expression(_torus(4)[0], 8)
        X = random_points(np.random.default_rng(31), 2048, 8)

        def peak(call):
            call()  # warm caches: the tape and the placements
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                call()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        tape = peak(lambda: hessian(f, X))
        assert 0 < tape <= peak(lambda: walk_jet(f, X, 2))

    def test_hessian_of_a_long_sum_is_not_widened_term_by_term(self):
        # the Hessian of sum_k x_k^2 / 2 over 12 variables (torus-m6's f)
        # at 2048 points is I exactly, and its memory peak stays below
        # twice the bytes of the Hessian it returns: no running (B, k, k)
        # block per term
        f = parse_expression(_torus(6)[0], 12)
        X = random_points(np.random.default_rng(32), 2048, 12)
        hessian(f, X)  # compile the program
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            hess = hessian(f, X)[2]
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.array_equal(hess, np.broadcast_to(np.eye(12), hess.shape))
        assert peak <= 2 * hess.nbytes

    def test_compiled_products_stay_small(self):
        # the Hessian program of a product of 40 factors in R^8 (a tree of
        # 159 nodes, whose second derivatives swell as trees) has at most
        # 2000 distinct nodes
        f = parse_expression(PRODUCT_40, 8)
        assert len(f.postorder) == 159
        assert f.tape.program(2).size <= 2000

    def test_a_product_of_1000_factors_compiles_in_linear_time(self):
        # each node is differentiated at most once per variable, so the
        # Hessian of a product of 1000 factors in R^2 (a tree 1000 levels
        # deep, whose second derivatives as trees would hold about 10^6
        # nodes) compiles and runs within 5 s and a 40 MB memory peak, and
        # matches its closed form: with S_i = sum_j 1/(x_i + c_j) and T_i
        # the sum of the squares, df/dx_i = f S_i and the Hessian is
        # f (S_i S_j - [i = j] T_i), on rows where f is about 1e176
        k, c = 1000, 1 + np.arange(1000) / 1000
        text = " * ".join(f"(x{j % 2 + 1} + {float(c[j])!r})"
                          for j in range(k))
        X = np.random.default_rng(33).uniform(-0.1, 0.1, (64, 2))
        start = time.perf_counter()
        value, grad, hess = hessian(parse_expression(text, 2), X)
        assert time.perf_counter() - start < 5.0
        tracemalloc.start()
        try:
            f = parse_expression(text, 2)
            assert _bits_equal(hessian(f, X)[2], hess)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40e6
        terms = 1 / (X[:, np.arange(k) % 2] + c)  # (B, k): 1/(x + c_j)
        S = np.stack([terms[:, i::2].sum(axis=1) for i in (0, 1)], axis=1)
        T = np.stack([(terms[:, i::2] ** 2).sum(axis=1) for i in (0, 1)],
                     axis=1)
        want = np.prod(X[:, np.arange(k) % 2] + c, axis=1)
        assert np.allclose(value, want, rtol=1e-10, atol=0)
        assert np.allclose(grad, want[:, None] * S, rtol=1e-10, atol=0)
        assert np.allclose(hess, want[:, None, None] * (
            S[:, :, None] * S[:, None, :] - T[:, :, None] * np.eye(2)),
            rtol=1e-10, atol=0)
        assert np.array_equal(evaluate(differentiate(f, 2), X), grad[:, 1])


class TestDeepTrees:
    def test_postorder_puts_operands_first_and_left_before_right(self):
        e = Sub(Neg(Var(1)), Mul(Call("sin", Var(2)), Pow(Const(3.0), 2)))
        assert e.postorder == [
            Var(1), Neg(Var(1)), Var(2), Call("sin", Var(2)), Const(3.0),
            Pow(Const(3.0), 2), e.rhs, e]

    def test_a_tree_5000_levels_deep_walks(self):
        # x1 + x2*x3 + x3^2 - x2 + x1 + ..., 1250 times each, with the
        # integer closed form 1250 (x1 + x2 x3 + x3^2 - x2)
        terms = [Var(1), Mul(Var(2), Var(3)), Pow(Var(3), 2), Neg(Var(2))]
        e = terms[0]
        for k in range(1, 5000):
            e = Add(e, terms[k % 4])
        assert len(e.postorder) == 4999 + 1250 * (1 + 3 + 2 + 2)
        X = np.array([[1.0, 2.0, 3.0], [-1.0, 0.0, 2.0], [4.0, -3.0, 1.0]])
        x1, x2, x3 = X.T
        assert np.array_equal(evaluate(e, X),
                              1250 * (x1 + x2 * x3 + x3 ** 2 - x2))
        value, grad, hess = hessian(e, X)
        assert np.array_equal(value, evaluate(e, X))
        assert np.array_equal(grad, 1250 * np.stack(
            [np.ones(3), x3 - 1, x2 + 2 * x3], axis=1))
        assert np.array_equal(hess, np.broadcast_to(
            1250.0 * np.array([[0, 0, 0], [0, 0, 1], [0, 1, 2]]), (3, 3, 3)))
        assert np.array_equal(gradient(e, X)[1], grad)
        assert max_var_index(e) == 3
        for i in (1, 2, 3):
            assert np.array_equal(evaluate(differentiate(e, i), X),
                                  grad[:, i - 1])
        text = str(e)
        assert parse_expression(text, 3) == e
        assert text.startswith("x1 + x2 * x3 + x3^2 + -x2 + x1")

    def test_a_tree_5000_levels_deep_compares_hashes_and_reprs(self):
        # equality, hashing and repr loop over the postorder: on a sum of
        # 5000 terms each would overflow the stack if it recursed
        e = parse_expression(" + ".join(["x1"] * 5000), 1)
        e2 = parse_expression(" + ".join(["x1"] * 5000), 1)
        e3 = parse_expression(" + ".join(["x1"] * 4999 + ["x2"]), 2)
        assert e == e2 and hash(e) == hash(e2) and e != e3
        assert len({e, e2, e3}) == 2
        assert repr(e) == repr(e2) != repr(e3)
        assert repr(e).startswith("Add(lhs=Add(lhs=Add(lhs=")
        assert repr(e).endswith("rhs=Var(index=1)), rhs=Var(index=1))")

    def test_equality_is_structural(self):
        # constants compare by ==, so 0.0 equals -0.0, as the dataclass
        # fields compared; a node of another type never equals one
        assert Const(0.0) == Const(-0.0)
        assert hash(Const(0.0)) == hash(Const(-0.0))
        assert Add(Var(1), Var(2)) != Mul(Var(1), Var(2))
        assert Add(Var(1), Var(2)) != Add(Var(2), Var(1))
        assert Pow(Var(1), 2) != Pow(Var(1), 3)
        assert Call("sin", Var(1)) != Call("cos", Var(1))
        assert Var(1) != 1 and Var(1) != Const(1.0)
        assert repr(Pow(Call("sin", Var(1)), -2)) == (
            "Pow(base=Call(func='sin', arg=Var(index=1)), exponent=-2)")
