import collections
import fractions
import json
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
from maxord import exactlin
from maxord.algebras import Order, is_commutative, matrix_algebra
from maxord.cli import main
from maxord.exactlin import Lattice, Matrix, lattice_index, snf
from maxord.orders import maximal_order
from maxord.rings import ZZ, Frac, poly_ring
from maxord.serialize import (parse_order, parse_period_lattice,
                              parse_presentation)
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
from test_acceptance import (
    _functor_fixture_gaussian,
    _functor_fixture_upper_triangular,
    _functor_fixture_z,
    ambient_action,
    random_presentation,
    relation_matrix,
)
from test_algebras import left_mul_matrix
from test_exactlin import small_element
from test_fuzz import CASES

HALF = Frac(ZZ, 1, 2)
F3T = poly_ring(3)

RATIONAL = Algebra(ZZ, [[[(0, 1)]]], [1], trusted_semisimple=True)


def quadratic_order(d):
    alg = poly_quotient_algebra(
        ZZ, [Frac.of(ZZ, -d), Frac.of(ZZ, 0), Frac.of(ZZ, 1)],
        trusted_semisimple=True)
    return Order(alg, Lattice.standard(ZZ, 2))


def standard_period_lattice(order, prime="generic"):
    """The order acting on itself by left multiplication, one action
    matrix per order basis element, in ambient coordinates."""
    alg = order.algebra
    action = [left_mul_matrix(alg, alg.element(order.lattice.basis.rows[i]))
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

    @pytest.mark.parametrize("rows, message", [
        ([[1, 0, 0, 0], [0, 1, 0, 0]], "wrong shape"),
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], "unit is not sent to 1"),
        # e12 to E21: e11·e12 = e12 is the first product that fails
        ([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
         r"multiplicativity fails on basis pair \(0, 1\)"),
    ])
    def test_embedding_checks_in_order(self, rows, message):
        pres = ModulePresentation(self.order, [], s=1)
        with pytest.raises(EmbeddingNotAlgebraMap, match=message):
            tensor_isogeny_class(pres, self.itype, Matrix(ZZ, rows, 4))


def rational_rank(rows):
    """Rank over Q by elimination on Fractions, independent of exactlin."""
    rows = [[fractions.Fraction(x) for x in row] for row in rows]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            q = rows[i][j] / rows[rank][j]
            rows[i] = [a - q * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestMultiplicitiesOverSplitOrders:
    """Z[c·x] inside Q[x]/∏(x − rᵢ), tensored against ∏ Eᵢ^mᵢ with x sent
    to rᵢ on factor i: the multiplicity of Eᵢ is mᵢ·(s − rank α(rᵢ)).  For
    c > 1 the order's basis (c·x)^j is not the algebra's basis x^j."""

    def split_case(self, rng, c):
        k = rng.randint(2, 3)
        roots = rng.sample(range(-3, 4), k)
        f = [1]
        for root in roots:
            f = [a - root * b for a, b in zip([0] + f, f + [0])]
        alg = poly_quotient_algebra(ZZ, [Frac.of(ZZ, a) for a in f],
                                    trusted_semisimple=True)
        order = Order(alg, Lattice.from_rows(ZZ, [
            [c ** j if i == j else 0 for i in range(k)] for j in range(k)]))
        mults = [rng.randint(1, 2) for _ in roots]
        if rng.random() < 0.5:
            mults[rng.randrange(k)] = 0
        width = sum(m * m for m in mults)
        emb, off = [[0] * width for _ in range(k)], 0
        for root, m in zip(roots, mults):
            for j in range(k):
                for d in range(m):
                    emb[j][off + d * m + d] = (c * root) ** j
            off += m * m
        # α = U·diag(c·x − c·ρ)·V, each ρ a root or not: entry (t, w) is
        # a·(c·x) + b, which lies in Z[c·x]
        r, s = rng.randint(1, 2), rng.randint(1, 3)
        rhos = [rng.choice(roots + [4]) for _ in range(r)]
        u = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
        v = [[rng.randint(-2, 2) for _ in range(s)] for _ in range(r)]
        ab = [[(sum(u[t][q] * v[q][w] for q in range(r)),
                -c * sum(u[t][q] * v[q][w] * rhos[q] for q in range(r)))
               for w in range(s)] for t in range(r)]
        alpha = [[alg.element([Frac.of(ZZ, x)
                               for x in [b, c * a] + [0] * (k - 2)])
                  for a, b in row] for row in ab]
        expected = [m * (s - rational_rank([[b + c * a * root for a, b in row]
                                            for row in ab]))
                    for root, m in zip(roots, mults)]
        itype = IsogenyType([IsogenyFactor("E%d" % i, 1, RATIONAL, m)
                             for i, m in enumerate(mults)])
        return (ModulePresentation(order, alpha), itype,
                Matrix(ZZ, emb, width), expected)

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_matches_closed_form(self, c):
        rng = random.Random("split/%d" % c)
        for _ in range(20):
            pres, itype, emb, expected = self.split_case(rng, c)
            res = tensor_isogeny_class(pres, itype, emb)
            assert [f.mult for f in res.factors] == expected


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


class TestPeriodLatticeValidation:
    """A parsed period lattice is checked in a fixed order: one matrix per
    basis element, the product relations, the unit, then stability."""

    def setup_method(self):
        self.o = quadratic_order(-3)
        # Z[ω], ω = (1 + √-3)/2: its action matrices have denominator 2
        self.o_max = maximal_order(self.o)

    def test_one_matrix_per_basis_element(self):
        t = standard_period_lattice(self.o)
        with pytest.raises(ActionMismatch, match="need one action matrix"):
            PeriodLattice(self.o, t.lattice, t.action[:1])

    def test_product_relations_over_a_common_denominator(self):
        # the basis ω, √-3 of Z[ω] acts by matrices with denominator 2
        t = standard_period_lattice(self.o_max)
        assert not all(x.is_integral() for x in t.action[0].rows[1])
        assert PeriodLattice(self.o_max, t.lattice, t.action).action
        wrong = Matrix(ZZ, [[HALF, HALF], [Frac(ZZ, -1, 2), HALF]], 2)
        with pytest.raises(ActionMismatch, match="violate b_0·b_0"):
            PeriodLattice(self.o_max, t.lattice, [wrong, t.action[1]])
        # on 1, √-3 only (√-3)² = -3 fails for a wrong matrix of √-3
        t = standard_period_lattice(self.o)
        wrong = Matrix(ZZ, [[0, 1], [-2, 0]], 2)
        with pytest.raises(ActionMismatch, match="violate b_1·b_1"):
            PeriodLattice(self.o, t.lattice, [t.action[0], wrong])

    def test_unit_acts_as_identity(self):
        # Z[x]/(x² − 1) by the idempotent diag(1, 0) for both 1 and x: the
        # product relations hold and the lattice is not stable, but the
        # unit is checked first
        o = Order(poly_quotient_algebra(ZZ, [-1, 0, 1],
                                        trusted_semisimple=True),
                  Lattice.standard(ZZ, 2))
        e = Matrix(ZZ, [[1, 0], [0, 0]], 2)
        lat = Lattice.from_rows(ZZ, [[1, 1], [0, 2]], 2)
        with pytest.raises(ActionMismatch, match="unit does not act"):
            PeriodLattice(o, lat, [e, e])

    def test_lattice_stable_under_each_basis_element(self):
        t = standard_period_lattice(self.o)
        lat = Lattice.from_rows(ZZ, [[1, 0], [0, 2]], 2)
        with pytest.raises(ActionMismatch, match="not stable under b_1"):
            PeriodLattice(self.o, lat, t.action)
        stable = Lattice.from_rows(ZZ, [[2, 0], [0, 2]], 2)
        assert PeriodLattice(self.o, stable, t.action).lattice == stable

    def test_first_unstable_basis_element_is_named(self):
        # Z + 2√-3·Z is stable under neither ω nor √-3, the basis of Z[ω]
        t = standard_period_lattice(self.o_max)
        lat = Lattice.from_rows(ZZ, [[1, 0], [0, 2]], 2)
        assert not any(lat.contains_rows((lat.basis * m).rows)
                       for m in t.action)
        with pytest.raises(ActionMismatch, match="not stable under b_0"):
            PeriodLattice(self.o_max, lat, t.action)

    @pytest.mark.parametrize("alg, rows", [
        (matrix_algebra(ZZ, 2),
         [[int(i == j) for j in range(4)] for i in range(4)]),
        (quaternion_algebra(ZZ, -1, -1),
         [[HALF] * 4, [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
    ], ids=["Mat2(Z)", "Hurwitz"])
    def test_stability_is_one_back_substitution(self, alg, rows, monkeypatch):
        o = Order(alg, Lattice.from_rows(ZZ, rows, 4))
        action = [left_mul_matrix(alg, alg.element(b))
                  for b in o.lattice.basis.rows]
        calls = count_solves(monkeypatch)
        t = PeriodLattice(o, o.lattice, action)
        assert len(calls) == 1
        b = o.lattice.basis
        assert [Matrix(ZZ, m, 4) for m in t.basis_action] == [
            b * m * b.inverse() for m in action]


class TestMinimalIsogeny:
    def setup_method(self):
        self.o = quadratic_order(-3)
        self.o_prime = maximal_order(self.o)

    def test_conductor_degree(self):
        t = standard_period_lattice(self.o, prime=2)
        desc = minimal_isogeny(self.o, self.o_prime, [t])
        assert desc.degree == 2
        assert desc.per_lattice_divisors == [
            {"prime": 2, "elementaryDivisors": [2]}
        ]

    def test_already_stable_degree_one(self):
        amb = self.o_prime.algebra
        # the bigger order's lattice is already stable under the smaller one
        act = [left_mul_matrix(amb, amb.basis_element(i)) for i in range(2)]
        stable = PeriodLattice(self.o, self.o_prime.lattice, act)
        desc = minimal_isogeny(self.o, self.o_prime, [stable])
        assert desc.degree == 1
        assert desc.per_lattice_divisors[0]["elementaryDivisors"] == []

    def test_multiplicative_over_lattices(self):
        t1 = standard_period_lattice(self.o, prime=2)
        t2 = standard_period_lattice(self.o, prime=3)
        desc = minimal_isogeny(self.o, self.o_prime, [t1, t2])
        assert desc.degree == 4

    def test_acts_once_per_basis_element(self, monkeypatch):
        calls = []
        real = PeriodLattice.act

        def counted(t, coords):
            calls.append(len(coords))
            return real(t, coords)

        monkeypatch.setattr(PeriodLattice, "act", counted)
        lattices = [standard_period_lattice(self.o, prime=p) for p in (2, 3)]
        minimal_isogeny(self.o, self.o_prime, lattices)
        # one call per lattice, on the rows of all basis elements of O'
        assert calls == [self.o_prime.dim] * len(lattices)

    def test_not_contained_rejected(self):
        t = standard_period_lattice(self.o_prime)
        with pytest.raises(NotContained):
            minimal_isogeny(self.o_prime, self.o, [t])

    def test_degree_is_the_product_of_indices(self):
        """The degree, read off the elementary divisors, is ∏ [O'·T : T],
        with O'·T grown by saturation until O'-stable, on conductor orders
        Z + f·O' of quadratic orders and of Mat_2(Z), for T the order
        itself and O·v for seeded v."""
        rng = random.Random(23)
        cases = []
        for d in (-1, -3, 5, -7):
            top = maximal_order(quadratic_order(d))
            cases += [(top, f) for f in (2, 3, 6)]
        cases += [(Order(matrix_algebra(ZZ, 2), Lattice.standard(ZZ, 4)), f)
                  for f in (2, 3)]
        for top, f in cases:
            alg, n = top.algebra, top.dim
            o = Order(alg, Lattice.from_rows(ZZ, [alg.one_coords] + [
                [x * f for x in row] for row in top.lattice.basis.rows], n))
            action = [left_mul_matrix(alg, alg.element(b))
                      for b in o.lattice.basis.rows]
            lattices = [PeriodLattice(o, o.lattice, action)]
            while len(lattices) < 3:
                v = Matrix(ZZ, [[rng.randint(-3, 3) for _ in range(n)]], n)
                span = Lattice.from_rows(
                    ZZ, [(v * m).rows[0] for m in action], n)
                if span.rank == n:
                    lattices.append(PeriodLattice(o, span, action))
            expected = 1
            for t in lattices:
                cur = t.lattice
                while True:
                    nxt = Lattice.from_rows(ZZ, list(cur.basis.rows) + [
                        r for b in top.lattice.basis.rows for r in (
                            cur.basis * left_mul_matrix(alg, alg.element(b))
                        ).rows], n)
                    if nxt == cur:
                        break
                    cur = nxt
                expected *= lattice_index(t.lattice, cur)
            assert minimal_isogeny(o, top, lattices).degree == expected


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


def eager_maps(pres, t):
    """(projection, section, action) of tensor_lattice(pres, t), built in
    one pass: the Smith transform v of the relation matrix in T-basis
    coordinates, the Hermite basis of its kernel columns, v⁻¹ as a
    rational inverse, and the action section·diag(m, ..., m)·projection
    for m the action on T in T-basis coordinates."""
    o, ring = pres.order, pres.order.algebra.ring
    b = t.lattice.basis
    binv, rho = b.inverse(), t.lattice.rank
    n = pres.s * rho
    rows = [[x for u in range(pres.s)
             for x in (b * ambient_action(t, pres.alpha[i][u])
                       * binv).rows[a]]
            for i in range(pres.r) for a in range(rho)]
    s_mat, v = snf(Matrix(ring, rows, n))
    rank = sum(1 for k in range(min(s_mat.nrows, n)) if s_mat.rows[k][k])
    cols = v.transpose().rows
    cols[rank:] = Lattice.from_rows(ring, cols[rank:], n).basis.rows
    v = Matrix(ring, cols, n).transpose()
    proj = v.submatrix(range(n), range(rank, n))
    section = v.inverse().submatrix(range(rank, n), range(n))
    if not is_commutative(o.algebra.table) or rank == n:
        return proj, section, None
    action = []
    for m in t.action:
        m = b * m * binv
        diag = [[m.rows[a % rho][c % rho] if a // rho == c // rho else 0
                 for c in range(n)] for a in range(n)]
        action.append(section * Matrix(ring, diag, n) * proj)
    return proj, section, action


def test_maps_built_on_read_match_an_eager_build():
    """section, projection and action, read in any order after
    tensor_lattice returns, equal the eager build, on seeded presentations
    over Z, Z[i], the Eisenstein order at a prime lattice and the
    upper-triangular order; a map assigned before the other is read
    stays."""
    rng = random.Random(19)
    eisenstein = quadratic_order(-3)
    fixtures = [(f[0], f[1]) for f in (_functor_fixture_z(),
                                       _functor_fixture_gaussian(),
                                       _functor_fixture_upper_triangular())]
    fixtures.append((eisenstein, standard_period_lattice(eisenstein, 2)))
    names = ("projection", "section", "action")
    acted = 0
    for k in range(60):
        o, t = fixtures[k % len(fixtures)]
        pres = random_presentation(rng, o, rng.randint(0, 2),
                                   rng.randint(1, 2))
        out, _ = tensor_lattice(pres, t)
        expected = dict(zip(names, eager_maps(pres, t)))
        first = names[k % 3]
        assert getattr(out, first) == expected[first]
        assert [getattr(out, x) for x in names] == list(expected.values())
        acted += out.action is not None
    assert acted >= 20
    pres = random_presentation(rng, eisenstein, 1, 2)
    out, _ = tensor_lattice(pres, fixtures[-1][1])
    out.section = None
    assert out.projection == eager_maps(pres, fixtures[-1][1])[0]
    assert out.section is None


def count_solves(monkeypatch):
    """The list that each solve_echelon call appends to from now on."""
    calls, real = [], exactlin.solve_echelon

    def counted(ring, basis, rows):
        calls.append(len(rows))
        return real(ring, basis, rows)

    for module in (exactlin, serre):
        monkeypatch.setattr(module, "solve_echelon", counted)
    return calls


def test_tensor_lattice_takes_no_back_substitution(monkeypatch):
    """The period lattice and the presentation of a serre-lattice document
    hold their order coordinates from parsing, so tensor_lattice solves
    nothing, on the seed-1 benchmark documents."""
    cases = [c.doc for c in CASES if c.command == "serre-lattice"
             and "alpha" in c.doc]
    assert len(cases) >= 2
    for doc in cases:
        order = parse_order(doc["order"])
        pres = parse_presentation(doc, order=order)
        t = parse_period_lattice(doc["lattice"], order)
        calls = count_solves(monkeypatch)
        out, _ = tensor_lattice(pres, t)
        assert out.lattice.rank > 0 and calls == []
        monkeypatch.undo()


def test_serre_lattice_commands_take_no_transforms(tmp_path, monkeypatch,
                                                   capsys):
    """maxord serre-lattice on the benchmark documents takes the Smith
    form without transforms and no Hermite form of a Matrix."""
    hnf_calls, snf_calls = [], []
    real_snf = exactlin.snf

    def counted_snf(m, transform=True):
        snf_calls.append(transform)
        return real_snf(m, transform)

    for module in (exactlin, serre):
        monkeypatch.setattr(module, "hnf",
                            lambda *args, **kw: hnf_calls.append(args))
        monkeypatch.setattr(module, "snf", counted_snf)
    codes = []
    for case in (c for c in CASES if c.command == "serre-lattice"):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(case.doc))
        codes.append(main(case.argv(str(path))))
    capsys.readouterr()
    assert codes.count(0) >= 2
    assert not hnf_calls
    assert snf_calls and not any(snf_calls)


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
            rel = relation_matrix(pres)
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
    """Structure constants, unit and order coordinates, and a period
    lattice's action on its own basis and PeriodLattice.act, all read by
    back-substitution, agree with products by the inverse of the basis, on
    seeded orders R + c·Λ and R[a] inside the base orders, on period
    lattices Λ·y, and on lattices containing 1 that are not closed, which
    raise with the message of the first escape."""
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
            action = [left_mul_matrix(alg, alg.element(b))
                      for b in lat.basis.rows]
            t = PeriodLattice(o, Lattice.from_rows(ring, t_rows, n), action)
            tb = t.lattice.basis
            tb_inv = tb.inverse()
            assert [Matrix(ring, m, n) for m in t.basis_action] == [
                tb * m * tb_inv for m in action]
            x = alg.element([frac(0.5) for _ in range(n)])
            ref = Matrix(ring, [[0] * n for _ in range(n)], n)
            for k, m in zip(ref_coords(x.coords), action):
                ref = ref + m.scaled(k)
            assert ref == left_mul_matrix(alg, x)
            assert t.act([ref_coords(x.coords)]) == [tb * ref * tb_inv]
    assert kinds["closed"] >= 8 and kinds["escapes"] >= 6, kinds
