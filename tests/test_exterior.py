import math

import numpy as np
import pytest

from gradlocus import (DimensionMismatch, MultiVector, NotAntisymmetric,
                       OddDimension, antisymmetric_part, gamma, gamma_power,
                       pfaffian, wedge)
from gradlocus.exterior import _antisymmetric_rows
from oracles import dict_gamma, dict_top_power, dict_wedge, pfaffian_matchings


def e(dim, *indices):
    out = MultiVector.basis_vector(dim, indices[0])
    for i in indices[1:]:
        out = wedge(out, MultiVector.basis_vector(dim, i))
    return out


def as_dict(mv):
    return {k: v for k, v in mv.terms()}


class TestWedge:
    def test_basis_order(self):
        assert as_dict(e(2, 1, 2)) == {(1, 2): 1.0}
        assert as_dict(e(2, 2, 1)) == {(1, 2): -1.0}

    def test_grade_two_blocks(self):
        assert as_dict(wedge(e(4, 1, 2), e(4, 3, 4))) == {(1, 2, 3, 4): 1.0}
        assert as_dict(wedge(e(4, 1, 3), e(4, 2, 4))) == {(1, 2, 3, 4): -1.0}

    def test_repeated_axis_vanishes(self):
        assert wedge(e(3, 1), e(3, 1)).is_zero()

    def test_grade_overflow_returns_zero(self):
        out = wedge(e(2, 1, 2), e(2, 1))
        assert out.is_zero()
        assert out.grade == 3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            wedge(e(2, 1), e(3, 1))

    def test_against_inversion_count_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            ga = int(rng.integers(1, 3))
            gb = int(rng.integers(1, 3))
            a = _random_mv(rng, n, ga)
            b = _random_mv(rng, n, gb)
            got = as_dict(wedge(a, b))
            want = dict_wedge(as_dict(a), as_dict(b))
            keys = set(got) | set(want)
            for k in keys:
                assert got.get(k, 0.0) == pytest.approx(want.get(k, 0.0),
                                                        abs=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = 6
            a = _random_mv(rng, n, 1)
            b = _random_mv(rng, n, 2)
            c = _random_mv(rng, n, 1)
            left = wedge(wedge(a, b), c)
            right = wedge(a, wedge(b, c))
            for k in set(as_dict(left)) | set(as_dict(right)):
                assert as_dict(left).get(k, 0.0) == pytest.approx(
                    as_dict(right).get(k, 0.0), rel=1e-12, abs=1e-12)

    def test_xor_operator(self):
        assert as_dict(e(3, 1) ^ e(3, 2)) == {(1, 2): 1.0}


def _random_mv(rng, n, grade):
    mv = MultiVector.zero(n, grade)
    for _ in range(3):
        idx = sorted(rng.choice(np.arange(1, n + 1), size=grade,
                                replace=False).tolist())
        single = MultiVector(n, grade, {
            sum(1 << (i - 1) for i in idx): float(rng.uniform(-2, 2))})
        mv = mv + single
    return mv


class TestMultiVector:
    def test_key_validation(self):
        with pytest.raises(ValueError):
            MultiVector(2, 1, {0b11: 1.0})  # popcount 2, grade 1
        with pytest.raises(ValueError):
            MultiVector(2, 1, {0b100: 1.0})  # index beyond dim

    def test_prune_drops_noise_keeps_grade(self):
        mv = MultiVector(3, 1, {0b001: 1.0, 0b010: 1e-20})
        pruned = mv.prune()
        assert as_dict(pruned) == {(1,): 1.0}
        assert pruned.grade == 1

    def test_coefficient_accessor(self):
        mv = wedge(e(4, 1, 3), e(4, 2, 4))
        assert mv.coefficient((1, 2, 3, 4)) == -1.0
        with pytest.raises(ValueError):
            mv.coefficient((1, 2))


class TestGamma:
    def test_symmetric_vanishes(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4, 6):
            A = rng.standard_normal((n, n))
            assert gamma(A + A.T).is_zero()

    def test_rotation_generator(self):
        M = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert as_dict(gamma(M)) == {(1, 2): -2.0}

    def test_identity_vanishes(self):
        assert gamma(np.eye(5)).is_zero()

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            M = rng.standard_normal((n, n))
            got = as_dict(gamma(M))
            want = dict_gamma(M)
            for k in set(got) | set(want):
                assert got.get(k, 0.0) == pytest.approx(want.get(k, 0.0),
                                                        rel=1e-12, abs=1e-12)

    def test_zero_iff_symmetric(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 4, 6):
            for _ in range(1000):
                M = rng.standard_normal((n, n))
                scale = np.abs(M).max()
                is_sym = np.abs(M - M.T).max() <= 1e-12 * scale
                g_small = gamma(M).max_abs() <= 1e-12 * scale
                assert is_sym == g_small
            # constructed borderline cases
            S = rng.standard_normal((n, n))
            S = S + S.T
            assert gamma(S).is_zero()
            P = S.copy()
            P[0, -1] += 1e-6 * np.abs(S).max()
            assert not gamma(P).is_zero(tol=1e-12 * np.abs(P).max())

    def test_basis_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            M = rng.standard_normal((n, n))
            U, _ = np.linalg.qr(rng.standard_normal((n, n)))
            base = gamma(M)
            other = gamma(M, basis=U)
            scale = max(base.max_abs(), 1e-30)
            for k in set(as_dict(base)) | set(as_dict(other)):
                dev = abs(as_dict(base).get(k, 0.0) - as_dict(other).get(k, 0.0))
                assert dev <= 1e-9 * scale

    def test_infinite_entry_is_not_pruned(self):
        # an infinite coefficient pruned to 0 would read as symmetric
        for bad in (np.inf, -np.inf):
            assert as_dict(gamma(np.array([[0.0, bad], [0.0, 0.0]]))) == \
                {(1, 2): bad}

    def test_infinite_row_keeps_finite_rows_exact(self):
        rng = np.random.default_rng(11)
        stack = rng.standard_normal((5, 4, 4))
        stack[2, 0, 3] = np.inf
        g = gamma(stack)
        assert g.coeffs[0b1001][2] == np.inf
        for i in (0, 1, 3, 4):
            row = {k: v[i] for k, v in g.coeffs.items() if v[i] != 0.0}
            alone = gamma(stack[i]).coeffs
            assert row.keys() == alone.keys()
            assert all(row[k].tobytes() == alone[k].tobytes() for k in row)

    def test_non_orthonormal_basis_rejected(self):
        M = np.eye(2)
        with pytest.raises(ValueError):
            gamma(M, basis=np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestGammaPower:
    def test_two_dim_example(self):
        M = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert gamma_power(M, 1) == pytest.approx(-2.0)
        A = antisymmetric_part(M)
        assert gamma_power(M, 1) == pytest.approx(math.factorial(1) * pfaffian(A))

    def test_symmetric_gives_zero(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 6):
            S = rng.standard_normal((n, n))
            assert gamma_power(S + S.T, n // 2) == 0.0

    def test_four_dim_cross_block(self):
        M = np.zeros((4, 4))
        M[0, 2] = 1.0
        M[1, 3] = 1.0
        assert gamma_power(M, 2) == pytest.approx(-2.0)
        assert dict_top_power(M, 2) == pytest.approx(-2.0)

    def test_odd_and_zero_dimension_rejected(self):
        with pytest.raises(OddDimension):
            gamma_power(np.zeros((3, 3)))
        with pytest.raises(DimensionMismatch):
            gamma_power(np.zeros((0, 0)))
        with pytest.raises(DimensionMismatch):
            gamma_power(np.zeros((4, 4)), m=1)

    def test_pfaffian_identity_randomized(self):
        # the identity gamma(M)^m = m! Pf(M - M^T) e_1...e_2m is relied
        # on downstream; validate it exhaustively at desk scale
        rng = np.random.default_rng(12)
        for n in (2, 4, 6):
            m = n // 2
            fact = math.factorial(m)
            for _ in range(1000):
                M = rng.standard_normal((n, n)) * rng.uniform(0.1, 3.0)
                got = gamma_power(M, m)
                want = fact * pfaffian(antisymmetric_part(M))
                bound = 1e-9 * (1.0 + np.linalg.norm(M) ** m)
                assert abs(got - want) <= bound

    def test_brute_force_wedge_oracle(self):
        rng = np.random.default_rng(13)
        for n in (2, 4, 6):
            for _ in range(25):
                M = rng.standard_normal((n, n))
                got = gamma_power(M, n // 2)
                want = dict_top_power(M, n // 2)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_nonzero_power_implies_nonzero_gamma(self):
        rng = np.random.default_rng(14)
        for n in (2, 4, 6):
            m = n // 2
            for _ in range(200):
                M = rng.standard_normal((n, n))
                scale = math.factorial(m) * np.linalg.norm(M) ** m + 1e-300
                if abs(gamma_power(M, m)) > 1e-8 * scale:
                    assert gamma(M).max_abs() > 1e-8 * np.linalg.norm(M)


def _stacks(rng, n, rows=5):
    """Named (rows, n, n) stacks: dense, dense with rows of very
    different scales, block-diagonal, symmetric, and one mixing zero
    rows with nonzero rows."""
    dense = rng.standard_normal((rows, n, n)) * rng.uniform(0.1, 3.0,
                                                            (rows, 1, 1))
    block = np.zeros((rows, n, n))
    for p in range(0, n, 2):
        block[:, p:p + 2, p:p + 2] = rng.standard_normal((rows, 2, 2))
    sym = rng.standard_normal((rows, n, n))
    mixed = dense.copy()
    mixed[::2] = 0.0
    mixed[1] = sym[1] + sym[1].T
    scaled = dense * 10.0 ** rng.integers(-30, 30, (rows, 1, 1))
    return {"dense": dense, "scaled": scaled, "block": block,
            "symmetric": sym + np.swapaxes(sym, 1, 2), "mixed": mixed}


class TestBatchedGammaPower:
    def test_rows_equal_single_matrix(self):
        rng = np.random.default_rng(18)
        for n in range(2, 11, 2):
            for name, stack in _stacks(rng, n).items():
                got = gamma_power(stack)
                want = np.array([gamma_power(M) for M in stack])
                assert got.shape == (stack.shape[0],)
                assert np.array_equal(got, want), (n, name)
                if name == "symmetric":
                    assert np.array_equal(got, np.zeros(stack.shape[0]))

    def test_rows_do_not_depend_on_batch_order(self):
        rng = np.random.default_rng(19)
        stack = np.concatenate(list(_stacks(rng, 6).values()))
        perm = rng.permutation(stack.shape[0])
        assert np.array_equal(gamma_power(stack[perm]), gamma_power(stack)[perm])

    def test_agrees_with_dict_wedge_and_pfaffian(self):
        rng = np.random.default_rng(20)
        for n in range(2, 11, 2):
            m = n // 2
            for name, stack in _stacks(rng, n, rows=3).items():
                got = gamma_power(stack)
                for M, value in zip(stack, got):
                    floor = 1e-12 * math.factorial(m) * np.linalg.norm(M) ** m
                    for want in (dict_top_power(M, m),
                                 math.factorial(m) * pfaffian(antisymmetric_part(M))):
                        assert abs(value - want) <= 1e-12 * abs(want) + floor, \
                            (n, name)

    def test_block_diagonal_keeps_sparsity(self):
        rng = np.random.default_rng(21)
        stack = _stacks(rng, 8)["block"]
        g = gamma(stack)
        assert sorted(g.coeffs) == [0b11, 0b1100, 0b110000, 0b11000000]
        assert len(wedge(g, g).coeffs) == 6

    def test_empty_stack(self):
        assert gamma_power(np.zeros((0, 4, 4))).shape == (0,)

    def test_non_finite_matrix_gives_nan(self):
        # pruning must not turn NaN or inf into 0, which reads as integrable
        rng = np.random.default_rng(22)
        for n in (2, 4, 6):
            stack = _stacks(rng, n)["dense"]
            assert np.isnan(gamma_power(np.full((n, n), np.nan)))
            for bad in (np.nan, np.inf, -np.inf):
                M = np.zeros((n, n))
                M[0, n - 1] = bad
                assert np.isnan(gamma_power(M)), (n, bad)
                mixed = stack.copy()
                mixed[2, 0, n - 1] = bad
                got = gamma_power(mixed)
                assert np.isnan(got[2]), (n, bad)
                rest = [0, 1, 3, 4]
                assert np.array_equal(got[rest], [gamma_power(M)
                                                  for M in stack[rest]])

    def test_single_matrix_contract(self):
        M = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert type(gamma_power(M)) is float
        assert type(gamma_power(np.zeros((4, 4)))) is float
        for bad, err in ((np.zeros((3, 3)), OddDimension),
                         (np.zeros((2, 3, 3)), OddDimension),
                         (np.zeros((0, 0)), DimensionMismatch),
                         (np.zeros((2, 3)), DimensionMismatch),
                         (np.zeros(4), DimensionMismatch),
                         (np.zeros((1, 1, 4, 4)), DimensionMismatch)):
            with pytest.raises(err):
                gamma_power(bad)
        with pytest.raises(DimensionMismatch):
            gamma_power(np.zeros((4, 4)), m=1)
        with pytest.raises(DimensionMismatch):
            gamma_power(np.zeros((3, 4, 4)), m=1)


class TestBatchedWedge:
    def test_matches_row_by_row(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            rows = int(rng.integers(1, 6))
            a = _random_batch(rng, n, int(rng.integers(1, 3)), rows)
            b = _random_batch(rng, n, int(rng.integers(1, 3)), rows)
            got = wedge(a, b)
            assert got.shape == (rows,)
            for i in range(rows):
                want = wedge(_row(a, i), _row(b, i))
                assert set(want.coeffs) <= set(got.coeffs)
                for k, v in got.coeffs.items():
                    assert v[i] == want.coeffs.get(k, 0.0)

    def test_prune_is_per_row(self):
        # row 0 has cutoff 1e-14, row 1 has cutoff 1e-30
        mv = MultiVector(3, 1, {0b001: [1.0, 1e-29], 0b010: [1e-20, 1e-16],
                                0b100: [1e-20, 1e-40]})
        pruned = mv.prune()
        assert sorted(pruned.coeffs) == [0b001, 0b010]
        assert np.array_equal(pruned.coeffs[0b001], [1.0, 1e-29])
        assert np.array_equal(pruned.coeffs[0b010], [0.0, 1e-16])
        assert np.array_equal(mv.max_abs(), [1.0, 1e-16])

    def test_batch_shape_checks(self):
        a = MultiVector(2, 1, {0b01: [1.0, 2.0]})
        assert a.shape == (2,)
        assert a == MultiVector(2, 1, {0b01: np.array([1.0, 2.0])})
        assert a != MultiVector(2, 1, {0b01: [1.0, 3.0]})
        assert e(2, 1) == MultiVector.basis_vector(2, 1) != e(2, 2)
        assert MultiVector.zero(2, 1, (3,)).max_abs().shape == (3,)
        with pytest.raises(DimensionMismatch):
            wedge(a, MultiVector.basis_vector(2, 2))
        with pytest.raises(DimensionMismatch):
            MultiVector(2, 1, {0b01: [1.0, 2.0], 0b10: 1.0})


def _random_batch(rng, n, grade, rows):
    """A (rows,) batch with three random keys, each zero in some rows."""
    coeffs = {}
    for _ in range(3):
        idx = rng.choice(n, size=grade, replace=False)
        v = rng.uniform(-2, 2, rows) * (rng.random(rows) < 0.7)
        coeffs[sum(1 << int(i) for i in idx)] = v
    return MultiVector(n, grade, coeffs)


def _row(mv, i):
    return MultiVector(mv.dim, mv.grade, {k: v[i] for k, v in mv.coeffs.items()})


class TestPfaffian:
    def test_two_by_two(self):
        assert pfaffian([[0.0, 2.5], [-2.5, 0.0]]) == 2.5

    def test_block_diagonal(self):
        A = np.zeros((4, 4))
        A[0, 1], A[1, 0] = 1.0, -1.0
        A[2, 3], A[3, 2] = 1.0, -1.0
        assert pfaffian(A) == pytest.approx(1.0)
        assert pfaffian(A) ** 2 == pytest.approx(np.linalg.det(A))

    def test_zero_matrix(self):
        assert pfaffian(np.zeros((4, 4))) == 0.0

    def test_empty_matrix(self):
        assert pfaffian(np.zeros((0, 0))) == 1.0

    def test_squares_to_determinant(self):
        rng = np.random.default_rng(15)
        for n in (2, 4, 6, 8):
            for _ in range(100):
                M = rng.standard_normal((n, n))
                A = M - M.T
                pf = pfaffian(A)
                det = np.linalg.det(A)
                assert pf * pf == pytest.approx(det, rel=1e-8, abs=1e-8)

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(NotAntisymmetric):
            pfaffian(np.eye(2))

    def test_rejects_odd_dimension(self):
        with pytest.raises(OddDimension):
            pfaffian(np.zeros((3, 3)))

    def test_matchings_and_expansion_agree(self):
        rng = np.random.default_rng(16)
        for n in (4, 6, 8, 10):
            for _ in range(25):
                M = rng.standard_normal((n, n))
                A = M - M.T
                direct = pfaffian_matchings(A)
                expanded = pfaffian(A)
                assert direct == pytest.approx(expanded, rel=1e-10, abs=1e-12)

    def test_large_dimension_uses_expansion(self):
        rng = np.random.default_rng(17)
        M = rng.standard_normal((10, 10))
        A = M - M.T
        assert pfaffian(A) ** 2 == pytest.approx(np.linalg.det(A), rel=1e-8)


class TestAntisymmetricPart:
    def test_symmetric_maps_to_zero(self):
        A = np.array([[1.0, 2.0], [2.0, 5.0]])
        assert np.array_equal(antisymmetric_part(A), np.zeros((2, 2)))

    def test_rotation_generator_doubles(self):
        M = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.array_equal(antisymmetric_part(M),
                              [[0.0, -2.0], [2.0, 0.0]])

    def test_stack_matches_matrix_by_matrix(self):
        M = np.random.default_rng(18).standard_normal((3, 4, 5, 5))
        got = antisymmetric_part(M)
        assert got.shape == M.shape
        for idx in np.ndindex(M.shape[:-2]):
            assert np.array_equal(got[idx], antisymmetric_part(M[idx]))

    def test_rejects_non_square(self):
        for shape in ((3,), (2, 3), (4, 2, 3)):
            with pytest.raises(DimensionMismatch):
                antisymmetric_part(np.zeros(shape))

    def test_unhalved_convention(self):
        M = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert np.array_equal(antisymmetric_part(M),
                              [[0.0, 2.0], [-2.0, 0.0]])


class TestAntisymmetricRows:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_are_the_upper_entries_of_the_antisymmetric_part(self, n):
        # bit for bit, NaN, inf and -0.0 included, on a stack and on each
        # of its matrices alone
        rng = np.random.default_rng(n)
        M = rng.standard_normal((6, n, n)) * 10.0 ** rng.uniform(-300, 300,
                                                                  (6, 1, 1))
        M[1, 0, -1], M[2, -1, 0], M[3, 0, 0] = np.nan, np.inf, -np.inf
        M[4] = -0.0
        M[5, n // 2] = -0.0
        p, q = np.triu_indices(n, 1)
        with np.errstate(invalid="ignore"):
            expect = antisymmetric_part(M)[:, p, q].T
            keys, S = _antisymmetric_rows(M)
            assert S.shape == (n * (n - 1) // 2, 6)
            assert S.tobytes() == np.ascontiguousarray(expect).tobytes()
            assert keys == tuple((1 << i) | (1 << j) for i, j in zip(p, q))
            for b in range(6):
                assert _antisymmetric_rows(M[b])[1].tobytes() == \
                    S[:, b].tobytes()
