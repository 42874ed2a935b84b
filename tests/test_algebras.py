import random

import pytest

from maxord.algebras import (
    Algebra,
    Order,
    center_rows,
    discriminant,
    is_commutative,
    matrix_algebra,
    matrix_over_algebra,
    poly_quotient_algebra,
    product_algebra,
    quaternion_algebra,
    scalar_algebra,
)
from maxord.decompose import decompose
from maxord.errors import BadIdempotents, NotSemisimple
from maxord.exactlin import (FractionField, Lattice, Matrix, PrimeField,
                             charpoly, rref, solve)
from maxord.finitealg import FiniteAlgebra
from maxord.orders import maximal_order, residue_algebra
from maxord.rings import ZZ, Frac, frac0, frac1, pnorm, poly_ring
from maxord.serialize import parse_algebra
from tables import dense, sparse

F2T = poly_ring(2)


def F(n, d=1):
    return Frac(ZZ, n, d)


def left_mul_matrix(alg, a):
    """The matrix M with coords(a·x) = coords(x)·M."""
    return Matrix(alg.ring, [alg.mul_coords(a.coords, b.coords)
                             for b in alg.basis()], alg.dim)


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
        table = dense(m2.table, F(0))
        table[1][2][0] = F(2)
        from maxord.algebras import Algebra
        with pytest.raises(Exception):
            Algebra(ZZ, sparse(table), m2.one_coords, validate=True)

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
        assert not is_commutative(h.table)

    def test_charpoly_and_minpoly(self):
        a = poly_quotient_algebra(ZZ, [F(-2), F(0), F(1)])  # Q(sqrt 2)
        x = a.basis_element(1)
        mp = a.min_poly(x)
        assert [str(c) for c in mp] == ["-2", "0", "1"]
        cp = charpoly(FractionField(ZZ), left_mul_matrix(a, x).rows)
        assert [str(c) for c in cp] == ["-2", "0", "1"]

    def test_trace(self):
        # the discriminant is the Gram determinant of the regular trace:
        # Tr(E11) = 2 in M_2, so Mat_2(Z) has discriminant 2^4·(-1) = -16,
        # where the reduced trace would give -1
        m2 = matrix_algebra(ZZ, 2)
        assert discriminant(Order(m2, Lattice.standard(ZZ, 4))) == -16

    def test_semisimplicity_detection(self):
        # an algebra not trusted semisimple needs a nonzero discriminant
        m2 = matrix_algebra(ZZ, 2)
        order = Order(Algebra(ZZ, m2.table, m2.one_coords),
                      Lattice.standard(ZZ, 4))
        assert not order.algebra.trusted_semisimple
        assert maximal_order(order).lattice == order.lattice
        # Q[x]/(x^2): nilpotents, degenerate trace form
        nil = poly_quotient_algebra(ZZ, [F(0), F(0), F(1)])
        with pytest.raises(NotSemisimple):
            maximal_order(Order(nil, Lattice.standard(ZZ, 2)))
        # (0, 1 | Q) has the nil ideal Q·i + Q·k.  In characteristic 0 its
        # vanishing discriminant proves that, trusted or not
        assert not quaternion_algebra(ZZ, -1, -1).trusted_semisimple
        for trusted in (False, True):
            alg = quaternion_algebra(ZZ, 0, 1, trusted_semisimple=trusted)
            with pytest.raises(NotSemisimple):
                maximal_order(Order(alg, Lattice.standard(ZZ, 4)),
                              extra_primes=[2])

    def test_inseparable_field_needs_trust(self):
        # F_2(t)[x]/(x^2 - t) is a field but its trace form vanishes
        t = F2T.canonical((0, 1))
        modulus = [Frac.of(F2T, c) for c in (t, F2T.zero, F2T.one)]
        a = poly_quotient_algebra(F2T, modulus)
        with pytest.raises(NotSemisimple):
            maximal_order(Order(a, Lattice.standard(F2T, 2)), extra_primes=[t])
        trusted = Order(poly_quotient_algebra(F2T, modulus,
                                              trusted_semisimple=True),
                        Lattice.standard(F2T, 2))
        assert discriminant(trusted) == F2T.zero
        assert maximal_order(trusted, extra_primes=[t]).lattice == \
            trusted.lattice


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
        def embed(fi, x):
            row = Matrix(ZZ, [x.coords], x.algebra.dim)
            return p.element((row * dec.embeddings[fi]).rows[0])

        for fi, f in enumerate(dec.factors):
            x = f.basis_element(0)
            y = f.one()
            lhs = embed(fi, x * y)
            rhs = embed(fi, x) * embed(fi, y)
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

    @pytest.mark.parametrize("seed", range(8))
    def test_idempotents_match_sympy_route(self, seed):
        """The idempotents equal those of the former route: the minimal
        polynomial f of a central element generating the center, factored
        by sympy, and e_i = u·(f/f_i) mod f from sympy's gcdex."""
        import sympy

        rng = random.Random(seed)
        x = sympy.Symbol("x")

        def irreducible():  # monic, of degree 1-3
            while True:
                g = sympy.Poly([1] + [sympy.Rational(rng.randint(-6, 6),
                                                     rng.randint(1, 3))
                                      for _ in range(rng.randint(1, 3))], x)
                if g.is_irreducible:
                    return g

        def over_q(poly):
            return [F(int(sympy.numer(c)), int(sympy.denom(c)))
                    for c in reversed(poly.all_coeffs())]

        product = irreducible()
        for _ in range(rng.randint(1, 2)):
            g = irreducible()
            if (product * g).is_sqf:
                product *= g
        parts = [poly_quotient_algebra(ZZ, over_q(product)),
                 poly_quotient_algebra(ZZ, over_q(irreducible())),
                 matrix_algebra(ZZ, 2), quaternion_algebra(ZZ, -1, -3)]
        alg = product_algebra(rng.sample(parts, rng.randint(2, 4)))
        zbasis = alg.center()
        while True:
            z = alg.zero()
            for zb in zbasis:
                z = z + zb.scaled(F(rng.randint(-9, 9)))
            mp = alg.min_poly(z)
            if len(mp) - 1 == len(zbasis):
                break
        poly = sympy.Poly([sympy.Rational(c.num, c.den)
                           for c in reversed(mp)], x)
        want = []
        for f_i, _ in poly.factor_list()[1]:
            g_i = sympy.exquo(poly, f_i)
            u, _, _ = sympy.gcdex(g_i, f_i)
            e_poly = (u * g_i).rem(poly)
            want.append(alg.eval_poly(over_q(e_poly), z))
        got = alg.central_idempotents(seed=seed)
        assert len(got) > 1
        key = lambda e: [str(c) for c in e.coords]  # noqa: E731
        assert sorted(got, key=key) == sorted(want, key=key)


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

    @pytest.mark.parametrize("ring", [ZZ, poly_ring(3)], ids=["Z", "F3[t]"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matrix_algebra_matches_definition(self, ring, n):
        """e_ab·e_cd = δ_bc·e_ad with unit Σ e_aa, for e_ab at a·n + b."""
        zero, one = frac0(ring), frac1(ring)
        pairs = [(a, b) for a in range(n) for b in range(n)]

        def e(a, b):
            return [one if pair == (a, b) else zero for pair in pairs]

        alg = matrix_algebra(ring, n)
        assert dense(alg.table, zero) == [
            [e(a, d) if b == c else [zero] * (n * n) for c, d in pairs]
            for a, b in pairs]
        assert alg.one_coords == [one if a == b else zero for a, b in pairs]
        assert alg.trusted_semisimple


class TestSolveLeft:
    def test_basic(self):
        b = Matrix(ZZ, [[1, 1], [0, 1]], 2)
        x = solve(FractionField(ZZ), b.rows,
                  [[Frac.of(ZZ, 2), Frac.of(ZZ, 3)]])
        assert [str(c) for c in x[0]] == ["2", "1"]


class TestTrustedConstructors:
    """poly_quotient_algebra and quaternion_algebra skip Algebra._validate;
    run explicitly, it passes on every table they build."""

    def test_poly_quotient_over_z(self):
        rng = random.Random(11)
        moduli = [[0, 0, 1], [0, 0, 0, 0, 1], [-1, 3, -3, 1],  # x^2, x^4, (x-1)^3
                  [4, -4, -3, 2, 1]]  # (x - 1)^2 (x + 2)^2
        moduli += [[rng.randint(-9, 9) for _ in range(n)] + [1]
                   for n in range(1, 7) for _ in range(3)]
        for f in moduli:
            poly_quotient_algebra(ZZ, f)._validate()

    def test_poly_quotient_over_fp_t(self):
        rng = random.Random(12)
        for p in (2, 3, 5):
            ring = poly_ring(p)
            for n in range(1, 4):
                for _ in range(2):
                    g = [pnorm([rng.randrange(p) for _ in range(3)], p)
                         for _ in range(n)] + [ring.one]
                    # g and its square, which is not squarefree
                    square = [ring.zero] * (2 * n + 1)
                    for i, a in enumerate(g):
                        for j, b in enumerate(g):
                            square[i + j] = ring.add(square[i + j],
                                                     ring.mul(a, b))
                    for f in (g, square):
                        poly_quotient_algebra(ring, f)._validate()

    def test_quaternions_with_small_parameters(self):
        for a in range(-7, 8):
            for b in range(-7, 8):
                quaternion_algebra(ZZ, a, b)._validate()

    def test_one_wrong_sign_fails(self):
        h = quaternion_algebra(ZZ, -1, -3)
        full = dense(h.table, F(0))
        flips = 0
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    if full[i][j][k]:
                        table = dense(h.table, F(0))
                        table[i][j][k] = -table[i][j][k]
                        with pytest.raises(ValueError):
                            Algebra(ZZ, sparse(table), h.one_coords)
                        flips += 1
        assert flips == 16
        # x·x^2 = 2 but x^2·x = -2 in a copy of Q[x]/(x^3 - 2)
        table = dense(poly_quotient_algebra(ZZ, [-2, 0, 0, 1]).table, F(0))
        table[1][2][0] = -table[1][2][0]
        with pytest.raises(ValueError):
            Algebra(ZZ, sparse(table), [1, 0, 0])


def seeded_algebras(seed):
    """Matrix, quaternion and product algebras over Q with small integral
    structure constants, drawn from seed."""
    rng = random.Random(seed)

    def quaternions():
        return quaternion_algebra(ZZ, rng.choice([-3, -1, 1, 2, 5]),
                                  rng.choice([-7, -1, 1, 3]))

    def part():
        return rng.choice([
            lambda: matrix_algebra(ZZ, rng.randint(1, 3)),
            quaternions,
            lambda: poly_quotient_algebra(
                ZZ, [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
                + [1]),
        ])()

    return [matrix_algebra(ZZ, rng.randint(1, 3)), quaternions(),
            matrix_over_algebra(quaternions(), 2),
            product_algebra([part() for _ in range(rng.randint(2, 3))])]


def center_by_products(alg):
    """The center, over Q as sympy rows in rref: the x with x·b = b·x for
    each basis element b, from products of basis elements."""
    import sympy

    basis = alg.basis()
    rows = [[sympy.Rational(c.num, c.den)
             for b in basis for c in (a * b - b * a).coords] for a in basis]
    kernel = sympy.Matrix(rows).T.nullspace()
    return sympy.Matrix([list(v) for v in kernel]).rref()[0] if kernel \
        else sympy.Matrix(0, alg.dim, [])


@pytest.mark.parametrize("seed", range(6))
def test_center_rows_over_q_and_mod_p(seed):
    """center_rows and is_commutative give Algebra.center() over Q and the
    center of FiniteAlgebra mod a large prime, against the kernel of
    x ↦ (x·b − b·x)_b built from products of basis elements.  Mat_n, n =
    seed % 4 + 1, stops at a centralizer of dimension 1, and a product
    with a noncommutative factor, whose center has dimension above 1,
    runs the loop over every generator."""
    p = 1000003
    rng = random.Random(seed)
    extra = [matrix_algebra(ZZ, seed % 4 + 1), product_algebra([
        rng.choice([matrix_algebra(ZZ, 2), quaternion_algebra(ZZ, -1, -3)]),
        poly_quotient_algebra(ZZ, [rng.randint(-5, 5), 0, 1])])]
    for alg in seeded_algebras(seed) + extra:
        want = center_by_products(alg)
        commutative = all(x * y == y * x for x in alg.basis()
                          for y in alg.basis())
        assert is_commutative(alg.table) == commutative
        assert [[Frac(ZZ, int(x.p), int(x.q)) for x in want.row(i)]
                for i in range(want.rows)] == [z.coords for z in alg.center()]
        # the same table mod p, all of its constants being integral
        fa = FiniteAlgebra(p, [[[(k, c.num % p) for k, c in cell]
                                for cell in row] for row in alg.table],
                           [c.num for c in alg.one_coords])
        assert is_commutative(fa.table) == commutative
        mod_p = [[int(x.p) * pow(int(x.q), -1, p) % p for x in want.row(i)]
                 for i in range(want.rows)]
        assert rref(fa.field, center_rows(fa.field, fa.table))[0] == mod_p
        assert rref(alg.field, center_rows(alg.field, alg.table))[0] == [
            z.coords for z in alg.center()]
    assert len(extra[1].center()) > 1 and not is_commutative(extra[1].table)


def assert_canonical(table, p=None):
    """Each cell sorted by k, with no zero constant (and, mod p, every
    constant in [1, p)): the form whose equality is_commutative reads."""
    n = len(table)
    for row in table:
        assert len(row) == n
        for cell in row:
            ks = [k for k, _ in cell]
            assert ks == sorted(set(ks)) and all(0 <= k < n for k in ks)
            assert all(c and (p is None or 0 < c < p) for _, c in cell)


@pytest.mark.parametrize("seed", range(4))
def test_tables_are_canonical(seed):
    """Every producer of a structure table gives canonical cells: the
    constructors, with quaternions of a = 0 or b = 0 and moduli with zero
    coefficients; a full-form document with explicit zeros; the factors
    of decompose; residue algebras over Z and over F_3[t] at primes of
    degree 2 and 3; and their quotients by the radical."""
    rng = random.Random(seed)
    f3t = poly_ring(3)
    algebras = [
        scalar_algebra(ZZ), matrix_algebra(ZZ, rng.randint(1, 3)),
        quaternion_algebra(ZZ, 0, rng.choice([-3, 0, 2])),
        quaternion_algebra(ZZ, rng.choice([-1, 5]), 0),
        poly_quotient_algebra(ZZ, [rng.choice([0, 0, 1, -2])
                                   for _ in range(rng.randint(1, 4))] + [1]),
        matrix_over_algebra(quaternion_algebra(ZZ, -1, rng.choice([-1, -3])),
                            2),
    ] + seeded_algebras(seed)  # ending in a product algebra
    for alg in algebras:
        assert_canonical(alg.table)
    # explicit zeros in a full-form document are dropped
    base = rng.choice(algebras[:5])
    doc = {"dim": base.dim, "one": [str(c) for c in base.one_coords],
           "mul": [[[str(c) if c else rng.choice(["0", "-0", "0/7"])
                     for c in cell] for cell in row]
                   for row in dense(base.table, F(0))]}
    assert parse_algebra(doc).table == base.table
    product = algebras[-1]
    for factor in decompose(product, product.central_idempotents(
            seed=seed)).factors:
        assert_canonical(factor.table)
    # residue algebras and their semisimple quotients
    polys = [(1, 0, 1), (0, 1), (2,), (1, 1), (2, 0, 1)]
    cases = [(Order(alg, Lattice.standard(ZZ, alg.dim)), p)
             for alg in algebras[1:5] for p in (2, 3)]
    cases += [(Order(alg, Lattice.standard(f3t, 4)), p)
              for alg in [quaternion_algebra(f3t, rng.choice(polys),
                                             rng.choice(polys))]
              for p in [(1, 0, 1), (1, 2, 0, 1)]]
    for order, p in cases:
        res = residue_algebra(order, p)[0]
        assert_canonical(res.table, res.p)
        assert_canonical(res.quotient(res.radical_basis())[0].table, res.p)


def test_validate_names_the_first_nonassociative_triple():
    """One structure constant changed: _validate raises on the first
    (i, j, k), in row-major order, with (b_i·b_j)·b_k ≠ b_i·(b_j·b_k) over
    products of basis elements, or on the unit when it fails first."""
    rng = random.Random(3)
    bases = [matrix_algebra(ZZ, 2), quaternion_algebra(ZZ, -1, -3),
             poly_quotient_algebra(ZZ, [-2, 0, 0, 1])]
    named = set()
    for _ in range(60):
        base = rng.choice(bases)
        n = base.dim
        table = dense(base.table, F(0))
        i, j, k = (rng.randrange(n) for _ in range(3))
        table[i][j][k] = table[i][j][k] + F(rng.choice([-2, -1, 1, 2]))
        alg = Algebra(ZZ, sparse(table), base.one_coords, validate=False)
        one, b = alg.one(), alg.basis()
        if any(one * x != x or x * one != x for x in b):
            want = "declared unit is not a two-sided identity"
        else:
            triple = next(t for t in ((x, y, z) for x in range(n)
                                      for y in range(n) for z in range(n))
                          if (b[t[0]] * b[t[1]]) * b[t[2]]
                          != b[t[0]] * (b[t[1]] * b[t[2]]))
            named.add(triple)
            want = "structure constants are not associative at (%d, %d, " \
                "%d)" % triple
        with pytest.raises(ValueError) as err:
            Algebra(ZZ, sparse(table), base.one_coords)
        assert str(err.value) == want
    assert len(named) > 5


def min_poly_by_solves(alg, a):
    """The minimal polynomial by one solve per degree: the lowest k with
    a^k in the span of 1, a, ..., a^(k-1)."""
    rows, power = [alg.one().coords], alg.one()
    while True:
        power = power * a
        sol = solve(alg.field, rows, [power.coords])
        if sol is not None:
            return [-c for c in sol[0]] + [frac1(alg.ring)]
        rows.append(power.coords)


def test_min_poly_matches_one_solve_per_degree():
    rng = random.Random(5)
    f5t = poly_ring(5)
    algebras = [
        quaternion_algebra(ZZ, -1, -3),
        matrix_algebra(ZZ, 3),
        poly_quotient_algebra(ZZ, [3, 0, 0, 0, 1]),
        poly_quotient_algebra(ZZ, [0, 0, 1, 1]),  # x^2 (x + 1): not reduced
        product_algebra([poly_quotient_algebra(ZZ, [2, 0, 1]),
                         matrix_algebra(ZZ, 2)]),
        poly_quotient_algebra(f5t, [(0, 1), (), (), (1,)]),
    ]
    for alg in algebras:
        elements = [alg.zero(), alg.one()] + [alg.basis_element(i)
                                              for i in range(alg.dim)]
        for _ in range(12):
            if alg.ring is ZZ:
                coords = [Frac(ZZ, rng.randint(-4, 4), rng.randint(1, 3))
                          for _ in range(alg.dim)]
            else:
                coords = [Frac.of(f5t, pnorm([rng.randrange(5)
                                              for _ in range(2)], 5))
                          for _ in range(alg.dim)]
            elements.append(alg.element(coords))
        for a in elements:
            assert alg.min_poly(a) == min_poly_by_solves(alg, a)
