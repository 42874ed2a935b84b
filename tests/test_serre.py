import collections
import random

import pytest

from maxord.algebras import (
    Algebra,
    poly_quotient_algebra,
    quaternion_algebra,
)
from maxord.errors import (
    ActionMismatch,
    EmbeddingNotAlgebraMap,
    NotAModuleMap,
    NotContained,
    NotIntegral,
)
from maxord.exactlin import Lattice, Matrix
from maxord.orders import Order, maximal_order
from maxord.rings import ZZ, Frac, poly_ring
from maxord import serre
from maxord.selftest import upper_triangular_order
from maxord.serre import (
    IsogenyFactor,
    IsogenyType,
    ModulePresentation,
    PeriodLattice,
    check_naturality,
    minimal_isogeny,
    tensor_isogeny_class,
    tensor_lattice,
)
from test_exactlin import small_element

HALF = Frac(ZZ, 1, 2)
F3T = poly_ring(3)

RATIONAL = Algebra(ZZ, [[[1]]], [1], trusted_semisimple=True)


def quadratic_order(d):
    alg = poly_quotient_algebra(
        ZZ, [Frac.of(ZZ, -d), Frac.of(ZZ, 0), Frac.of(ZZ, 1)],
        trusted_semisimple=True)
    return Order(alg, Lattice.standard(ZZ, 2))


def standard_period_lattice(order, prime="generic"):
    """The order acting on itself by left multiplication, one action
    matrix per order basis element, in ambient coordinates."""
    alg = order.algebra
    action = [alg.left_mul_matrix(alg.element(order.bmat.rows[i]))
              for i in range(order.dim)]
    return PeriodLattice(order, order.lattice, action, prime=prime)


class TestWorkedMultiplicities:
    """Cokernels of e11, e22, and (e12, e22) over the upper-triangular
    order, tensored against a 2-dimensional product type."""

    def setup_method(self):
        self.order = upper_triangular_order()
        self.itype = IsogenyType([IsogenyFactor("E", 1, RATIONAL, 2)])
        self.emb = Matrix(ZZ, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], 4)

    def test_golden_vectors(self):
        alg = self.order.algebra
        e11, e12, e22 = (alg.basis_element(i) for i in range(3))
        expected = [(1, 1), (1, 1), (0, 0)]
        got = []
        for alpha in ([[e11]], [[e22]], [[e12], [e22]]):
            res = tensor_isogeny_class(
                ModulePresentation(self.order, alpha), self.itype, self.emb)
            got.append((res.factors[0].mult, res.total_dimension()))
        assert got == expected

    def test_free_module_recovers_type(self):
        pres = ModulePresentation(self.order, [], s=1)
        res = tensor_isogeny_class(pres, self.itype, self.emb)
        assert res.factors[0].mult == 2
        assert res.total_dimension() == 2

    def test_bad_embedding_rejected(self):
        bad = Matrix(ZZ, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4)
        pres = ModulePresentation(self.order, [], s=1)
        with pytest.raises(EmbeddingNotAlgebraMap):
            tensor_isogeny_class(pres, self.itype, bad)


class TestTensorLattice:
    def test_quadratic_conductor_module(self):
        # over Z[a], a^2 = -3: the module generated by 1 and (1+a)/2,
        # presented by the single relation (1+a)·x1 = 2·x2
        o = quadratic_order(-3)
        alg = o.algebra
        a = alg.basis_element(1)
        one = alg.one()
        alpha = [[-(one + a), one.scaled(Frac.of(ZZ, 2))]]
        pres = ModulePresentation(o, alpha)
        t = standard_period_lattice(o, prime=2)
        out, divisors = tensor_lattice(pres, t)
        assert out.lattice.rank == 2
        assert divisors == [2]

    def test_free_rank_one(self):
        o = quadratic_order(-3)
        pres = ModulePresentation(o, [], s=1)
        t = standard_period_lattice(o)
        out, divisors = tensor_lattice(pres, t)
        assert out.lattice.rank == 2
        assert divisors == []

    def test_torsion_module_rank_zero(self):
        o = quadratic_order(-3)
        two = o.algebra.one().scaled(Frac.of(ZZ, 2))
        zero = o.algebra.zero()
        alpha = [[two, zero], [zero, two]]
        pres = ModulePresentation(o, alpha)
        t = standard_period_lattice(o)
        out, divisors = tensor_lattice(pres, t)
        assert out.lattice.rank == 0
        assert sorted(divisors) == [2, 2, 2, 2]

    def test_descended_action_commutative(self):
        o = quadratic_order(-1)
        pres = ModulePresentation(o, [], s=2)
        t = standard_period_lattice(o)
        out, _ = tensor_lattice(pres, t)
        assert out.action is not None
        # descended action satisfies the structure constants
        sc = o.structure_constants()
        for i in range(o.dim):
            for j in range(o.dim):
                lhs = out.action[i] * out.action[j]
                rhs = sum(
                    (out.action[k].scaled(Frac.of(ZZ, sc[j][i][k]))
                     for k in range(o.dim)),
                    start=out.action[0].scaled(Frac.of(ZZ, 0)),
                )
                assert lhs == rhs or (out.action[j] * out.action[i]) == rhs

    def test_action_mismatch_rejected(self):
        o1 = quadratic_order(-1)
        o2 = quadratic_order(-3)
        pres = ModulePresentation(o1, [], s=1)
        t = standard_period_lattice(o2)
        with pytest.raises(ActionMismatch):
            tensor_lattice(pres, t)


class TestMinimalIsogeny:
    def setup_method(self):
        self.o = quadratic_order(-3)
        self.o_prime = maximal_order(self.o)
        self.itype = IsogenyType([IsogenyFactor("E", 1, RATIONAL, 1)])

    def test_conductor_degree(self):
        t = standard_period_lattice(self.o, prime=2)
        desc = minimal_isogeny(self.o, self.o_prime, self.itype, [t])
        assert desc.degree == 2
        assert desc.per_lattice_divisors == [
            {"prime": 2, "elementaryDivisors": [2]}
        ]

    def test_already_stable_degree_one(self):
        amb = self.o_prime.algebra
        # the bigger order's lattice is already stable under the smaller one
        act = [amb.left_mul_matrix(amb.basis_element(i)) for i in range(2)]
        stable = PeriodLattice(self.o, self.o_prime.lattice, act)
        desc = minimal_isogeny(self.o, self.o_prime, self.itype, [stable])
        assert desc.degree == 1
        assert desc.per_lattice_divisors[0]["elementaryDivisors"] == []

    def test_multiplicative_over_lattices(self):
        t1 = standard_period_lattice(self.o, prime=2)
        t2 = standard_period_lattice(self.o, prime=3)
        desc = minimal_isogeny(self.o, self.o_prime, self.itype, [t1, t2])
        assert desc.degree == 4

    def test_not_contained_rejected(self):
        t = standard_period_lattice(self.o_prime)
        with pytest.raises(NotContained):
            minimal_isogeny(self.o_prime, self.o, self.itype, [t])


class TestNaturality:
    def setup_method(self):
        self.o = quadratic_order(-1)
        self.alg = self.o.algebra
        self.t = standard_period_lattice(self.o)

    def test_identity_map(self):
        two = self.alg.one().scaled(Frac.of(ZZ, 2))
        pres = ModulePresentation(self.o, [[two]])
        phi = [[self.alg.one()]]
        assert check_naturality(pres, pres, phi, self.t)

    def test_zero_map(self):
        two = self.alg.one().scaled(Frac.of(ZZ, 2))
        three = self.alg.one().scaled(Frac.of(ZZ, 3))
        pres1 = ModulePresentation(self.o, [[two]])
        pres2 = ModulePresentation(self.o, [[three]])
        phi = [[self.alg.zero()]]
        assert check_naturality(pres1, pres2, phi, self.t)

    def test_multiplication_map(self):
        # x -> 3x descends on O/2O since 3·2 = 2·3
        two = self.alg.one().scaled(Frac.of(ZZ, 2))
        pres = ModulePresentation(self.o, [[two]])
        phi = [[self.alg.one().scaled(Frac.of(ZZ, 3))]]
        assert check_naturality(pres, pres, phi, self.t)

    def test_non_module_map_rejected(self):
        two = self.alg.one().scaled(Frac.of(ZZ, 2))
        three = self.alg.one().scaled(Frac.of(ZZ, 3))
        pres1 = ModulePresentation(self.o, [[two]])
        pres2 = ModulePresentation(self.o, [[three]])
        phi = [[self.alg.one()]]
        with pytest.raises(NotAModuleMap):
            check_naturality(pres1, pres2, phi, self.t)

    def test_square_that_does_not_commute_is_false(self, monkeypatch):
        # O --0--> O has the free cokernel O, so the square is not empty;
        # doubling the section of side 1 breaks it
        pres = ModulePresentation(self.o, [[self.alg.zero()]])
        phi = [[self.alg.one()]]
        assert check_naturality(pres, pres, phi, self.t)
        real, calls = serre.tensor_lattice, []

        def skewed(p, t):
            out, divisors = real(p, t)
            if not calls:
                out.section = out.section.scaled(2)
            calls.append(p)
            return out, divisors

        monkeypatch.setattr(serre, "tensor_lattice", skewed)
        assert not check_naturality(pres, pres, phi, self.t)
        assert len(calls) == 2


class TestRandomizedProperties:
    """Seeded cross-checks between the class-level and lattice-level
    pictures for random presentations over a commutative order."""

    def random_presentation(self, o, rng, r, s):
        alg = o.algebra
        alpha = [
            [alg.element([Frac.of(ZZ, rng.randint(-3, 3))
                          for _ in range(alg.dim)]) for _ in range(s)]
            for _ in range(r)
        ]
        return ModulePresentation(o, alpha, s=s)

    def test_rank_matches_class_dimension(self):
        o = quadratic_order(-1)
        itype = IsogenyType([IsogenyFactor("E", 1, o.algebra, 1)])
        emb = Matrix.identity(ZZ, 2)
        t = standard_period_lattice(o)
        rng = random.Random(7)
        for _ in range(15):
            r, s = rng.randint(0, 2), rng.randint(1, 2)
            pres = self.random_presentation(o, rng, r, s)
            res = tensor_isogeny_class(pres, itype, emb)
            out, _ = tensor_lattice(pres, t)
            # rank of the period lattice = 2·dim of the class (dim D = 2)
            assert out.lattice.rank == 2 * res.total_dimension()

    def test_invertible_alpha_gives_finite_cokernel(self):
        o = quadratic_order(-1)
        t = standard_period_lattice(o)
        rng = random.Random(11)
        found = 0
        while found < 10:
            pres = self.random_presentation(o, rng, 2, 2)
            rel = pres.relation_matrix()
            if rel.det().is_zero():
                continue
            found += 1
            out, divisors = tensor_lattice(pres, t)
            assert out.lattice.rank == 0
            prod = 1
            for d in divisors:
                prod *= abs(d)
            det = abs(rel.det().integral_value())
            assert prod == det


def base_orders(ring):
    """(algebra, lattice rows) of orders whose bases have denominators or
    are standard: over Z, Z[x/2] in Q[x]/(x^2 - 20), Z[x] in Q[x]/(x^3 - 2)
    and the Hurwitz order; over F_3[t], F_3[t][x/t] in F_3(t)[x]/(x^2 -
    t^2(t + 1)), F_3[t][x] in F_3(t)[x]/(x^3 - t) and the standard order
    of (t, t + 1 | F_3(t))."""
    def standard(n):
        return [[Frac.of(ring, ring.one if i == j else ring.zero)
                 for j in range(n)] for i in range(n)]

    if ring == ZZ:
        return [
            (poly_quotient_algebra(ZZ, [-20, 0, 1]), [[1, 0], [0, HALF]]),
            (poly_quotient_algebra(ZZ, [-2, 0, 0, 1]), standard(3)),
            (quaternion_algebra(ZZ, -1, -1),
             [[HALF] * 4, [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        ]
    t = (0, 1)
    return [
        (poly_quotient_algebra(ring, [(0, 0, 2, 2), (), (1,)]),
         [[(1,), ()], [(), Frac(ring, (1,), t)]]),
        (poly_quotient_algebra(ring, [(0, 2), (), (), (1,)]), standard(3)),
        (quaternion_algebra(ring, Frac(ring, t), Frac(ring, (1, 1))),
         standard(4)),
    ]


def basis_inverse_struct(alg, lat):
    """The structure constants of the order on lat through the inverse of
    its basis, or the message of the first pair (i, j) in order whose
    product escapes."""
    binv = lat.basis.inverse()
    rows = lat.basis.rows
    struct = []
    for i, a in enumerate(rows):
        struct.append([])
        for j, b in enumerate(rows):
            t = (Matrix(alg.ring, [alg.mul_coords(a, b)], alg.dim)
                 * binv).rows[0]
            if not all(x.is_integral() for x in t):
                return ("order basis is not multiplicatively closed "
                        "(b_%d * b_%d escapes)" % (i, j))
            struct[-1].append([x.integral_value() for x in t])
    return struct


@pytest.mark.parametrize("ring", [ZZ, F3T], ids=repr)
def test_coordinates_match_basis_inverse(ring):
    """Structure constants, unit and order coordinates, PeriodLattice.act
    and _in_basis, all read by back-substitution, agree with products by
    the inverse of the basis, on seeded orders R + c·Λ and R[a] inside the
    base orders, on period lattices Λ·y, and on lattices containing 1 that
    are not closed, which raise with the message of the first escape."""
    rng = random.Random(37)

    def frac(scale):
        den = small_element(ring, rng)
        return Frac(ring, small_element(ring, rng),
                    ring.one if ring.is_zero(den) or rng.random() > scale
                    else den)

    kinds = collections.Counter()
    for alg, base in base_orders(ring) * 6:
        n, mul = alg.dim, alg.mul_coords
        base = Lattice.from_rows(ring, base, n).basis.rows
        c = Frac.of(ring, small_element(ring, rng))
        coeffs = [Frac.of(ring, small_element(ring, rng)) for _ in base]
        a = [sum((k * x for k, x in zip(coeffs, col)), Frac.of(ring, 0))
             for col in zip(*base)]
        powers = [alg.one_coords]
        while len(powers) < n:
            powers.append(mul(powers[-1], a))
        candidates = [[alg.one_coords] + [[c * x for x in b] for b in base],
                      powers,
                      [alg.one_coords] + [[frac(0.5) for _ in range(n)]
                                          for _ in range(n - 1)]]
        for rows in candidates:
            lat = Lattice.from_rows(ring, rows, n)
            if lat.rank != n:
                continue
            want = basis_inverse_struct(alg, lat)
            if isinstance(want, str):
                with pytest.raises(NotIntegral) as err:
                    Order(alg, lat)
                assert str(err.value) == want
                kinds["escapes"] += 1
                continue
            kinds["closed"] += 1
            o = Order(alg, lat)
            binv = lat.basis.inverse()

            def ref_coords(vec):
                return (Matrix(ring, [vec], n) * binv).rows[0]

            assert o.structure_constants() == want
            assert o.unit_coords() == [
                x.integral_value() for x in ref_coords(alg.one_coords)]
            for v in ([frac(0.0) for _ in range(n)],
                      [frac(0.5) for _ in range(n)]):
                ref = ref_coords(v)
                assert o.order_coords(v) == (
                    [x.integral_value() for x in ref]
                    if all(x.is_integral() for x in ref) else None)
            # the period lattice Λ·y, with Λ acting by left multiplication
            y = [frac(0.0) for _ in range(n)]
            t_rows = [mul(b, y) for b in lat.basis.rows]
            if Lattice.from_rows(ring, t_rows, n).rank != n:
                t_rows = lat.basis.rows
            action = [alg.left_mul_matrix(alg.element(b))
                      for b in lat.basis.rows]
            t = PeriodLattice(o, Lattice.from_rows(ring, t_rows, n), action)
            x = alg.element([frac(0.5) for _ in range(n)])
            ref = Matrix(ring, [[0] * n for _ in range(n)], n)
            for k, m in zip(ref_coords(x.coords), action):
                ref = ref + m.scaled(k)
            assert t.act(x) == ref == alg.left_mul_matrix(x)
            m = Matrix(ring, [[frac(0.5) for _ in range(n)]
                              for _ in range(n)], n)
            tb = t.lattice.basis
            assert serre._in_basis(t, m) == tb * m * tb.inverse()
    assert kinds["closed"] >= 8 and kinds["escapes"] >= 6, kinds
