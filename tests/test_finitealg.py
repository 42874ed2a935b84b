import pytest

from maxord.errors import DimensionTooLarge
from maxord.exactlin import PrimeField, kernel, rref, solve
from maxord.finitealg import FiniteAlgebra, charpoly_mod

F5 = PrimeField(5)


def f_p_matrix_algebra(p, n):
    """Structure table of Mat_n(F_p) on the basis E_ab."""
    dim = n * n

    def idx(a, b):
        return a * n + b

    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if b == c:
                        table[idx(a, b)][idx(c, d)][idx(a, d)] = 1
    one = [0] * dim
    for a in range(n):
        one[idx(a, a)] = 1
    return FiniteAlgebra(p, table, one)


def f_p_group_algebra_c2(p):
    """F_p[C_2]: basis 1, g with g^2 = 1."""
    table = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    return FiniteAlgebra(p, table, [1, 0])


def dual_numbers(p):
    """F_p[x]/(x^2): basis 1, x."""
    table = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    return FiniteAlgebra(p, table, [1, 0])


def upper_triangular_2(p):
    """Upper triangular 2x2 matrices over F_p: basis e11, e12, e22."""
    table = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
    ]
    return FiniteAlgebra(p, table, [1, 0, 1])


class TestModLinearAlgebra:
    def test_rref_mod(self):
        red, piv = rref(F5, [[2, 4], [1, 3]])
        assert piv == [0, 1]
        assert red == [[1, 0], [0, 1]]

    def test_solve_mod(self):
        rows = [[1, 1], [0, 1]]
        sol = solve(F5, rows, [[3, 2]])[0]
        combo = [sum(sol[i] * rows[i][j] for i in range(2)) % 5
                 for j in range(2)]
        assert combo == [3, 2]
        assert solve(F5, [[1, 0]], [[0, 1]]) is None

    def test_kernel_mod(self):
        ker = kernel(PrimeField(3), [[1, 1], [1, 1]])
        assert len(ker) == 1
        x = ker[0]
        assert (x[0] + x[1]) % 3 == 0

    def test_charpoly_mod(self):
        cp = charpoly_mod([[0, 1], [1, 0]], 5)
        assert cp == [4, 0, 1]  # x^2 - 1 mod 5


class TestRadical:
    def test_semisimple_has_zero_radical(self):
        assert f_p_matrix_algebra(3, 2).radical_basis() == []
        assert f_p_group_algebra_c2(3).radical_basis() == []

    def test_dual_numbers(self):
        rad = dual_numbers(5).radical_basis()
        assert len(rad) == 1
        assert rad[0][0] == 0  # spanned by x

    def test_group_algebra_modular_case(self):
        # F_2[C_2] is local: radical spanned by 1 + g
        rad = f_p_group_algebra_c2(2).radical_basis()
        assert rad == [[1, 1]]

    def test_upper_triangular(self):
        rad = upper_triangular_2(7).radical_basis()
        assert len(rad) == 1  # spanned by e12
        assert rad[0][1] != 0 and rad[0][0] == 0 and rad[0][2] == 0

    def test_small_characteristic_tower(self):
        # F_2[x]/(x^4): radical is (x), dimension 3; needs the iterated
        # tower since p=2 < dim
        table = [[[0] * 4 for _ in range(4)] for _ in range(4)]
        for i in range(4):
            for j in range(4):
                if i + j < 4:
                    table[i][j][i + j] = 1
        a = FiniteAlgebra(2, table, [1, 0, 0, 0])
        assert len(a.radical_basis()) == 3


class TestSemisimpleStructure:
    def test_simple_factor_counts(self):
        assert f_p_matrix_algebra(2, 2).count_simple_factors() == 1
        assert f_p_group_algebra_c2(3).count_simple_factors() == 2
        assert f_p_group_algebra_c2(2).count_simple_factors() == 1
        assert upper_triangular_2(5).count_simple_factors() == 2

    def test_field_extension_is_one_factor(self):
        # F_4 = F_2[x]/(x^2 + x + 1)
        table = [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]
        a = FiniteAlgebra(2, table, [1, 0])
        assert a.count_simple_factors() == 1
        assert a.radical_basis() == []

    def test_primitive_idempotents(self):
        a = f_p_group_algebra_c2(3)
        idems = a.primitive_central_idempotents()
        assert len(idems) == 2
        for e in idems:
            assert a.mul(e, e) == e
        total = [(x + y) % 3 for x, y in zip(*idems)]
        assert total == [1, 0]

    def test_quotient_round_trip(self):
        a = upper_triangular_2(5)
        rad = a.radical_basis()
        quot, project, lift = a.quotient(rad)
        assert quot.dim == 2
        for qb in quot.basis():
            assert project(lift(qb)) == qb


class TestIdeals:
    def test_matrix_algebra_is_simple(self):
        a = f_p_matrix_algebra(2, 2)
        ideals = a.all_two_sided_ideals()
        assert len(ideals) == 2  # zero and everything

    def test_product_has_four(self):
        a = f_p_group_algebra_c2(3)  # F_3 x F_3
        assert len(a.all_two_sided_ideals()) == 4

    def test_dual_numbers_chain(self):
        a = dual_numbers(3)
        assert len(a.all_two_sided_ideals()) == 3  # 0, (x), all

    def test_guard(self):
        a = f_p_matrix_algebra(7, 2)  # 7^4 = 2401 elements: fine
        a.all_two_sided_ideals()
        with pytest.raises(DimensionTooLarge):
            f_p_matrix_algebra(11, 2).all_two_sided_ideals(max_elements=10000)
