import pytest

from maxord.algebras import (
    decompose,
    matrix_algebra,
    matrix_over_algebra,
    poly_quotient_algebra,
    product_algebra,
    quaternion_algebra,
)
from maxord.errors import BadIdempotents, NotSemisimple
from maxord.exactlin import FractionField, Matrix, solve
from maxord.rings import ZZ, Frac, poly_ring

F2T = poly_ring(2)


def F(n, d=1):
    return Frac(ZZ, n, d)


class TestConstruction:
    def test_matrix_algebra_units(self):
        m2 = matrix_algebra(ZZ, 2)
        assert m2.dim == 4
        e11 = m2.basis_element(0)
        e12 = m2.basis_element(1)
        e21 = m2.basis_element(2)
        assert (e11 * e12).coords == e12.coords
        assert (e12 * e21).coords == e11.coords
        assert (e12 * e12).coords == m2.zero().coords
        assert (m2.one() * e12).coords == e12.coords

    def test_quaternion_table(self):
        h = quaternion_algebra(ZZ, -1, -1)
        one, i, j, k = (h.basis_element(a) for a in range(4))
        assert (i * i).coords == (-one).coords
        assert (j * j).coords == (-one).coords
        assert (i * j).coords == k.coords
        assert (j * i).coords == (-k).coords
        assert (k * k).coords == (-one).coords

    def test_poly_quotient(self):
        # Q[x]/(x^2 + 1)
        a = poly_quotient_algebra(ZZ, [F(1), F(0), F(1)])
        x = a.basis_element(1)
        assert (x * x).coords == (-a.one()).coords

    def test_validation_rejects_nonassociative(self):
        # tweak one structure constant of M_2(Q) and expect failure
        m2 = matrix_algebra(ZZ, 2)
        table = [[list(v) for v in row] for row in m2.table]
        table[1][2][0] = F(2)
        from maxord.algebras import Algebra
        with pytest.raises(Exception):
            Algebra(ZZ, table, m2.one_coords, validate=True)

    def test_product_algebra(self):
        p = product_algebra([matrix_algebra(ZZ, 1), matrix_algebra(ZZ, 2)])
        assert p.dim == 5
        assert p.one().coords == [F(1)] + [F(1), F(0), F(0), F(1)]


class TestStructure:
    def test_center_of_matrix_algebra(self):
        m2 = matrix_algebra(ZZ, 2)
        c = m2.center()
        assert len(c) == 1

    def test_center_of_quaternions(self):
        h = quaternion_algebra(ZZ, -1, -1)
        assert len(h.center()) == 1
        assert not h.is_commutative()

    def test_charpoly_and_minpoly(self):
        a = poly_quotient_algebra(ZZ, [F(-2), F(0), F(1)])  # Q(sqrt 2)
        x = a.basis_element(1)
        mp = a.min_poly(x)
        assert [str(c) for c in mp] == ["-2", "0", "1"]
        cp = a.charpoly(x)
        assert [str(c) for c in cp] == ["-2", "0", "1"]

    def test_trace(self):
        m2 = matrix_algebra(ZZ, 2)
        # reduced vs. regular: the regular trace of E11 in M_2 is 2
        assert m2.trace(m2.basis_element(0)) == F(2)

    def test_semisimplicity_detection(self):
        m2 = matrix_algebra(ZZ, 2)
        assert m2.is_separable_semisimple()
        # Q[x]/(x^2): nilpotents, degenerate trace form
        nil = poly_quotient_algebra(ZZ, [F(0), F(0), F(1)])
        assert not nil.is_separable_semisimple()

    def test_inseparable_field_needs_trust(self):
        # F_2(t)[x]/(x^2 - t) is a field but its trace form vanishes
        t = Frac.of(F2T, (0, 1))
        a = poly_quotient_algebra(F2T, [-t, Frac.of(F2T, F2T.zero),
                                        Frac.of(F2T, F2T.one)])
        assert not a.is_separable_semisimple()


class TestIdempotentsAndDecomposition:
    def test_split_quadratic(self):
        # Q[x]/(x^2 - 1) = Q x Q
        a = poly_quotient_algebra(ZZ, [F(-1), F(0), F(1)])
        idems = a.central_idempotents(seed=5)
        assert len(idems) == 2
        for e in idems:
            assert (e * e).coords == e.coords
        s = idems[0] + idems[1]
        assert s.coords == a.one().coords
        assert (idems[0] * idems[1]).coords == a.zero().coords

    def test_nonsplit_quadratic(self):
        a = poly_quotient_algebra(ZZ, [F(1), F(0), F(1)])  # Q(i)
        assert len(a.central_idempotents(seed=5)) == 1

    def test_three_factor_product(self):
        p = product_algebra([matrix_algebra(ZZ, 1)] * 3)
        idems = p.central_idempotents(seed=7)
        assert len(idems) == 3

    def test_decompose_product(self):
        p = product_algebra([matrix_algebra(ZZ, 2), matrix_algebra(ZZ, 1)])
        idems = p.central_idempotents(seed=3)
        dec = decompose(p, idems)
        dims = sorted(f.dim for f in dec.factors)
        assert dims == [1, 4]
        # embeddings respect multiplication inside each factor
        for fi, f in enumerate(dec.factors):
            x = f.basis_element(0)
            y = f.one()
            lhs = dec.embed(fi, x * y)
            rhs = dec.embed(fi, x) * dec.embed(fi, y)
            assert lhs.coords == rhs.coords

    def test_bad_idempotent_system_rejected(self):
        p = product_algebra([matrix_algebra(ZZ, 1)] * 2)
        bad = [p.one(), p.one()]
        with pytest.raises(BadIdempotents):
            p.check_idempotent_system(bad)

    def test_nonsemisimple_raises(self):
        nil = poly_quotient_algebra(ZZ, [F(0), F(0), F(1)])
        with pytest.raises(NotSemisimple):
            nil.central_idempotents(seed=1)


class TestMatrixOverAlgebra:
    def test_dims_and_unit(self):
        inner = poly_quotient_algebra(ZZ, [F(1), F(0), F(1)])
        m = matrix_over_algebra(inner, 2)
        assert m.dim == 8
        one = m.one()
        x = m.basis_element(3)
        assert (one * x).coords == x.coords
        assert (x * one).coords == x.coords

    def test_matches_m2(self):
        inner = matrix_algebra(ZZ, 1)
        m = matrix_over_algebra(inner, 2)
        m2 = matrix_algebra(ZZ, 2)
        assert m.table == m2.table


class TestSolveLeft:
    def test_basic(self):
        b = Matrix(ZZ, [[1, 1], [0, 1]], 2)
        x = solve(FractionField(ZZ), b.rows,
                  [[Frac.of(ZZ, 2), Frac.of(ZZ, 3)]])
        assert [str(c) for c in x[0]] == ["2", "1"]
