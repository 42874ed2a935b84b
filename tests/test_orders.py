import random

import pytest
from hypothesis import given, settings, strategies as st

from maxord.algebras import (
    Algebra,
    Order,
    discriminant,
    matrix_algebra,
    poly_quotient_algebra,
    product_algebra,
    quaternion_algebra,
)
from maxord import orders, serre
from maxord.decompose import decompose
from maxord.errors import (BoundExceeded, NotFullRank, NotIntegral, NotPrime,
                           NotSemisimple)
from maxord.exactlin import (FractionField, Lattice, Matrix, charpoly,
                              lattice_index, solve)
from maxord.orders import (
    candidate_primes,
    idealizer,
    is_maximal_at_p,
    maximal_order,
    p_maximal_order,
    radical_mod_p,
    residue_algebra,
)
from maxord.rings import ZZ, Frac, poly_ring
from maxord.serre import endomorphism_order
from ideal_oracle import two_sided_ideals_over_p
from test_algebras import left_mul_matrix
from test_acceptance import (
    brute_force_maximal_order,
    lattice_product,
    squarefree,
)
from test_certificates import (
    equation_order,
    f2t_inseparable_order,
    f5t_kummer_order,
    S3,
)
from test_finitealg import simple_factor_count
from test_p_steps import idealizer_over_r

F2T = poly_ring(2)
HALF = Frac(ZZ, 1, 2)


def quadratic_algebra(d):
    """Q(sqrt d) on the basis 1, sqrt(d)."""
    return poly_quotient_algebra(
        ZZ, [Frac.of(ZZ, -d), Frac.of(ZZ, 0), Frac.of(ZZ, 1)],
        trusted_semisimple=True)


def quadratic_equation_order(d):
    alg = quadratic_algebra(d)
    return alg, Order(alg, Lattice.standard(ZZ, 2))


def expected_maximal_quadratic(alg, d):
    """Closed-form ring of integers of Q(sqrt d) for squarefree d."""
    if d % 4 == 1:
        rows = [[1, 0], [HALF, HALF]]
    else:
        rows = [[1, 0], [0, 1]]
    return Order(alg, Lattice.from_rows(ZZ, rows, 2))


def order_closure(alg, gens, max_steps=64):
    """The smallest order containing 1 and the generators: their lattice,
    closed under products; NotIntegral for a generator whose
    characteristic polynomial is not over Z."""
    for g in gens:
        if not all(c.is_integral() for c in charpoly(
                FractionField(alg.ring), left_mul_matrix(alg, g).rows)):
            raise NotIntegral("generator %r is not integral" % (g,))
    lat = Lattice.from_rows(
        alg.ring, [alg.one_coords] + [g.coords for g in gens], alg.dim)
    for _ in range(max_steps):
        nxt = Lattice.from_rows(alg.ring, lat.basis.rows + lattice_product(
            alg, lat, lat).basis.rows, alg.dim)
        if nxt == lat:
            if lat.rank != alg.dim:
                raise NotFullRank("generators span a proper subalgebra")
            return Order(alg, lat)
        lat = nxt
    raise NotIntegral("multiplicative closure did not stabilize")


class TestOrderBasics:
    def test_structure_constants_integral(self):
        alg, order = quadratic_equation_order(-1)
        sc = order.structure_constants()
        assert sc[1][1] == [-1, 0]

    def test_non_closed_rejected(self):
        alg = quadratic_algebra(-1)
        lat = Lattice.from_rows(ZZ, [[1, 0], [0, HALF]], 2)
        with pytest.raises(NotIntegral):
            Order(alg, lat).structure_constants()

    def test_order_closure_adjoins_generator(self):
        alg = quadratic_algebra(5)
        w = alg.element([HALF, HALF])  # (1 + sqrt5)/2, integral
        o = order_closure(alg, [alg.one(), w])
        assert o.lattice.contains_vector([HALF, HALF])
        assert lattice_index(Lattice.standard(ZZ, 2), o.lattice) == 2

    def test_order_closure_rejects_non_integral(self):
        alg = quadratic_algebra(2)
        with pytest.raises(NotIntegral):
            order_closure(alg, [alg.one(), alg.element([0, HALF])])


class TestResidueAndRadical:
    def test_residue_split_prime(self):
        alg, order = quadratic_equation_order(-1)
        res, reduce_c, lift_c = residue_algebra(order, 5)
        assert res.dim == 2 and res.p == 5
        assert simple_factor_count(res) == 2  # 5 splits in Z[i]

    def test_residue_inert_prime(self):
        alg, order = quadratic_equation_order(-1)
        res, _, _ = residue_algebra(order, 3)
        assert simple_factor_count(res) == 1  # 3 inert in Z[i]

    def test_residue_not_prime(self):
        alg, order = quadratic_equation_order(-1)
        with pytest.raises(NotPrime):
            residue_algebra(order, 6)

    def test_radical_ramified_prime(self):
        alg, order = quadratic_equation_order(-1)
        j = radical_mod_p(order, 2)
        # J = (1 + i, 2): index 2 in the order
        assert lattice_index(j.lattice, order.lattice) == 2

    def test_radical_good_prime(self):
        alg, order = quadratic_equation_order(-1)
        j = radical_mod_p(order, 3)
        assert lattice_index(j.lattice, order.lattice) == 9  # J = 3*Lambda

    def test_degree_two_prime_restriction_of_scalars(self):
        t = Frac.of(F2T, (0, 1))
        alg = poly_quotient_algebra(
            F2T, [-t, Frac.of(F2T, ()), Frac.of(F2T, (1,))],
            trusted_semisimple=True)
        order = Order(alg, Lattice.standard(F2T, 2))
        res, _, _ = residue_algebra(order, (1, 1, 1))  # t^2 + t + 1
        assert res.dim == 4  # rank 2 over a degree-2 prime, viewed over F_2


class TestIdealizerAndSaturation:
    def test_gaussian_integers_from_conductor_order(self):
        # Z[2i] inside Q(i)
        alg = quadratic_algebra(-1)
        sub = Order(alg, Lattice.from_rows(ZZ, [[1, 0], [0, 2]], 2))
        sat = p_maximal_order(sub, 2)
        assert sat.lattice == Lattice.standard(ZZ, 2)

    def test_idealizer_grows_at_bad_prime(self):
        alg, order = quadratic_equation_order(-3)
        j = radical_mod_p(order, 2)
        grown = idealizer(order, j)
        assert lattice_index(order.lattice, grown.lattice) == 2
        assert grown.lattice.contains_vector([HALF, HALF])

    def test_hurwitz_from_lipschitz(self):
        alg = quaternion_algebra(ZZ, -1, -1)
        lip = Order(alg, Lattice.standard(ZZ, 4))
        hur = p_maximal_order(lip, 2)
        assert lattice_index(lip.lattice, hur.lattice) == 2
        assert hur.lattice.contains_vector([HALF, HALF, HALF, HALF])
        assert is_maximal_at_p(hur, 2)["verdict"]
        assert discriminant(lip) // discriminant(hur) == 4

    def test_maximal_order_full_pipeline(self):
        alg, order = quadratic_equation_order(-3)
        mo = maximal_order(order)
        assert mo.lattice.contains_vector([HALF, HALF])
        assert is_maximal_at_p(mo, 2)["verdict"]

    def test_matrix_order_already_maximal(self):
        alg = matrix_algebra(ZZ, 2)
        order = Order(alg, Lattice.standard(ZZ, 4))
        mo = maximal_order(order)
        assert mo.lattice == order.lattice

    def test_conductor_matrix_order(self):
        # Z + 5 Mat_2(Z): non-maximal at 5 only
        alg = matrix_algebra(ZZ, 2)
        rows = [[1, 0, 0, 1], [5, 0, 0, 0], [0, 5, 0, 0], [0, 0, 5, 0]]
        order = Order(alg, Lattice.from_rows(ZZ, rows, 4))
        cert = is_maximal_at_p(order, 5)
        assert not cert["verdict"]
        mo = p_maximal_order(order, 5)
        assert mo.lattice == Lattice.standard(ZZ, 4)

    def test_closure_independent_of_start(self):
        alg = quadratic_algebra(5)
        a = Order(alg, Lattice.standard(ZZ, 2))
        b = Order(alg, Lattice.from_rows(ZZ, [[1, 0], [0, 3]], 2))
        ca = maximal_order(a)
        cb = maximal_order(b)
        assert ca.lattice == cb.lattice

    def test_function_field_example(self):
        # F_2(t)(sqrt t): order F_2[t][t*x] saturates to F_2[t][x] at (t)
        t = Frac.of(F2T, (0, 1))
        alg = poly_quotient_algebra(
            F2T, [-t, Frac.of(F2T, ()), Frac.of(F2T, (1,))],
            trusted_semisimple=True)
        sub = Order(alg, Lattice.from_rows(F2T, [[Frac.of(F2T, (1,)), Frac.of(F2T, ())],
                                                 [Frac.of(F2T, ()), t]], 2))
        sat = p_maximal_order(sub, (0, 1))
        assert sat.lattice == Lattice.standard(F2T, 2)
        assert is_maximal_at_p(sat, (0, 1))["verdict"]


@pytest.mark.parametrize("trusted", [False, True], ids=["plain", "trusted"])
def test_p_maximal_order_applies_the_characteristic_0_rule(trusted,
                                                           monkeypatch):
    # (0, 1 | Q) has the nil ideal Q·i + Q·k, which its vanishing
    # discriminant proves in characteristic 0, before any step is taken
    monkeypatch.setattr(orders, "p_step", lambda order, p: pytest.fail(
        "p_maximal_order took a step"))
    alg = quaternion_algebra(ZZ, 0, 1, trusted_semisimple=trusted)
    with pytest.raises(NotSemisimple):
        p_maximal_order(Order(alg, Lattice.standard(ZZ, 4)), 2)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("trusted", [False, True], ids=["plain", "trusted"])
def test_is_maximal_at_p_applies_the_characteristic_0_rule(trusted, p,
                                                           monkeypatch):
    # a certificate for Z<i, j> in (0, 1 | Q) would read a step over a nil
    # ideal; the vanishing discriminant rules the algebra out first, as in
    # certify and p_maximal_order
    monkeypatch.setattr(orders, "p_step", lambda order, p: pytest.fail(
        "is_maximal_at_p took a step"))
    alg = quaternion_algebra(ZZ, 0, 1, trusted_semisimple=trusted)
    with pytest.raises(NotSemisimple):
        is_maximal_at_p(Order(alg, Lattice.standard(ZZ, 4)), p)


@pytest.mark.parametrize("trusted", [False, True], ids=["plain", "trusted"])
def test_step_budget_names_only_a_declared_trust(trusted):
    # F_2(t)[x]/(x^2) is not semisimple, but in characteristic 2 its
    # vanishing discriminant does not prove that: p-maximalization at t has
    # only a budget of 64·dim steps, and the order x/t^k grows past it
    zero, one = Frac.of(F2T, F2T.zero), Frac.of(F2T, F2T.one)
    alg = poly_quotient_algebra(F2T, [zero, zero, one],
                                trusted_semisimple=trusted)
    with pytest.raises(BoundExceeded) as exc:
        p_maximal_order(Order(alg, Lattice.standard(F2T, 2)), (0, 1))
    assert "128 steps" in str(exc.value)
    assert ("trusted_semisimple" in str(exc.value)) == trusted


def decomposition_route(start):
    """The maximal order by the former route over Z: split the center over
    Q, close the projection of the start in each factor, maximalize each
    closure at its own discriminant primes, and put the factors back."""
    alg = start.algebra
    idems = alg.central_idempotents()
    dec = decompose(alg, idems)
    rows = []
    for e, factor, emb in zip(idems, dec.factors, dec.embeddings):
        sols = solve(alg.field, emb.rows,
                     [(e * alg.element(b)).coords
                      for b in start.lattice.basis.rows])
        sub = order_closure(factor, [factor.element(x) for x in sols])
        for q in candidate_primes(sub):
            sub = p_maximal_order(sub, q)
        rows.extend((sub.lattice.basis * emb).rows)
    return Lattice.from_rows(ZZ, rows, alg.dim)


def split_algebras():
    """Algebras over Q whose centers split, each with a starting order:
    Z[x] in Q[x]/(x^3 - x) and in Q[x]/((x^2 + 1)(x^2 - 2)), and the
    standard product orders of (-1,-1|Q) x Q(sqrt 5) and of Mat_2(Q) x
    (-3,-5|Q)."""
    cubic = poly_quotient_algebra(ZZ, [0, -1, 0, 1], trusted_semisimple=True)
    quartic = poly_quotient_algebra(ZZ, [-2, 0, -1, 0, 1],
                                    trusted_semisimple=True)
    hamilton = product_algebra([quaternion_algebra(ZZ, -1, -1),
                                quadratic_algebra(5)])
    mixed = product_algebra([matrix_algebra(ZZ, 2),
                             quaternion_algebra(ZZ, -3, -5)])
    return [Order(alg, Lattice.standard(ZZ, alg.dim))
            for alg in (cubic, quartic, hamilton, mixed)]


@pytest.mark.parametrize("index", range(4))
def test_split_algebras_take_the_single_path(index, monkeypatch):
    """maximal_order saturates the start prime by prime, with no center
    split: it gives the lattice of the decomposition route, calls neither
    central_idempotents nor min_poly, and its certificates hold."""
    start = split_algebras()[index]
    calls = []
    for name in ("central_idempotents", "min_poly"):
        def counted(self, *args, _name=name, _f=getattr(Algebra, name)):
            calls.append(_name)
            return _f(self, *args)
        monkeypatch.setattr(Algebra, name, counted)
    out = maximal_order(start)
    assert calls == []
    assert len(start.algebra.central_idempotents()) > 1
    assert out.lattice == decomposition_route(start)
    for q in candidate_primes(out):
        assert is_maximal_at_p(out, q)["verdict"]


def assert_inherits_structure(grown):
    """A grown order, built from its parent's constants, has the structure
    constants and unit of the order validated from its lattice alone."""
    validated = Order(grown.algebra, grown.lattice)
    assert grown.structure_constants() == validated.structure_constants()
    assert grown.unit_coords() == validated.unit_coords()


def test_grown_lattice_that_is_not_closed_raises():
    # Z[x]/(x^2 + 3) and Z + Z·x/2: (x/2)^2 = -3/4 is outside
    alg = poly_quotient_algebra(ZZ, [3, 0, 1])
    order = Order(alg, Lattice.standard(ZZ, 2))
    lat = Lattice.from_rows(ZZ, [[1, 0], [0, HALF]], 2)
    with pytest.raises(NotIntegral):
        Order(alg, lat)
    # _grown_order takes P = 2·(the basis in Λ-coordinates)
    with pytest.raises(NotIntegral):
        orders._grown_order(order, 2, [[2, 0], [0, 1]])
    # Z + Z·(1 + x)/2 is the maximal order, and is grown without error
    lat = Lattice.from_rows(ZZ, [[1, 0], [HALF, HALF]], 2)
    grown = orders._grown_order(order, 2, [[2, 0], [1, 1]])
    assert grown.lattice == lat
    assert_inherits_structure(grown)


def right_mul_maps(alg, lat):
    """For each basis vector w of lat, the matrix M with coords(x·w) =
    coords(x)·M."""
    return [Matrix(alg.ring, [alg.mul_coords(b.coords, w) for b in alg.basis()],
                   alg.dim) for w in lat.basis.rows]


class TestIdealizerOverFp:
    """The left idealizers of J and of every maximal ideal over p, computed
    as kernels over F_p, equal the stabilizer orders of their lattices and
    the idealizers from a solve over R, along the whole p-maximalization
    chain."""

    def check_chain(self, order, p):
        checked = 0
        while order is not None:
            for ideal in orders._p_step_ideals(order, p):
                fast = idealizer(order, ideal)
                if fast is not order:
                    assert_inherits_structure(fast)
                alg, lat = order.algebra, ideal.lattice
                reference = serre._stabilizer_order(
                    alg, lat, right_mul_maps(alg, lat))
                assert fast.lattice == reference.lattice, p
                assert fast.lattice == idealizer_over_r(order, ideal), p
                checked += 1
            order = orders.step_at(order, p)[0]
        return checked

    def test_cubic_and_quartic_orders(self):
        rng = random.Random(7)
        cases = 0
        while cases < 6:
            n = 3 + cases % 2
            coeffs = [rng.randint(-9, 9) for _ in range(n)] + [1]
            order = equation_order(ZZ, coeffs)
            disc = discriminant(order)
            primes = [p for p in (2, 3, 5) if disc and disc % p == 0]
            if not primes:
                continue
            cases += 1
            for p in primes:
                self.check_chain(order, p)

    def test_lipschitz_order(self):
        lip = Order(quaternion_algebra(ZZ, -1, -1), Lattice.standard(ZZ, 4))
        assert self.check_chain(lip, 2) > 2

    def test_conductor_order_in_mat3(self):
        # Z + 6·Mat_3(Z)
        alg = matrix_algebra(ZZ, 3)
        rows = [alg.one_coords] + [[6 * int(i == j) for j in range(9)]
                                   for i in range(9)]
        order = Order(alg, Lattice.from_rows(ZZ, rows, 9))
        for p in (2, 3):
            assert self.check_chain(order, p) > 2

    def test_eichler_order_of_level_p_squared(self):
        # [[Z, Z], [p^2 Z, Z]]: two maximal ideals over p
        alg = matrix_algebra(ZZ, 2)
        for p in (2, 3):
            order = Order(alg, Lattice.from_rows(
                ZZ, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, p * p, 0],
                     [0, 0, 0, 1]], 4))
            assert self.check_chain(order, p) > 4

    def test_function_field_orders(self):
        t = (0, 1)
        for order, p in ((f5t_kummer_order(), (2, 1)),
                         (f5t_kummer_order(), (3, 0, 1)),
                         (f2t_inseparable_order(), t),
                         (f2t_inseparable_order(), S3)):
            assert self.check_chain(order, p) >= 2


def test_radical_idealizer_decides_commutative_orders(monkeypatch):
    """Pohst-Zassenhaus: in a commutative semisimple algebra, wherever
    O_l(J) = Λ along a p-maximalization chain, O_l(I) = Λ for every
    maximal ideal I over p too, and p_step computes O_l(J) alone.  Seeded
    orders over Z (fields and products of fields) and over F_p[t]."""
    rng = random.Random(3)
    cases = [(f5t_kummer_order(), (2, 1)), (f5t_kummer_order(), (3, 0, 1)),
             (f2t_inseparable_order(), (0, 1)), (f2t_inseparable_order(), S3)]
    while len(cases) < 20:
        n = rng.randint(2, 5)
        order = equation_order(ZZ, [rng.randint(-9, 9) for _ in range(n)]
                               + [1])
        disc = discriminant(order)
        cases += [(order, p) for p in (2, 3, 5) if disc and disc % p == 0]
    calls = []
    idealize = orders.idealizer
    monkeypatch.setattr(orders, "idealizer",
                        lambda *args: calls.append(args) or idealize(*args))
    fixed = 0
    for order, p in cases:
        while order is not None:
            grows = [idealize(order, ideal).lattice != order.lattice
                     for ideal in orders._p_step_ideals(order, p)]
            calls.clear()
            grown, facts = orders.step_at(order, p)
            assert facts["maximalIdeals"] == len(grows) - 1
            if not grows[0]:
                assert not any(grows) and grown is None
                assert len(calls) == 1
                fixed += 1
            order = grown
    assert fixed >= len(cases)


class TestQuadraticSweepAgainstOracles:
    def test_closed_form_small(self):
        for d in (-1, -3, 2, 5, -7, 13):
            alg, order = quadratic_equation_order(d)
            mo = maximal_order(order)
            assert mo.lattice == expected_maximal_quadratic(alg, d).lattice

    def test_brute_force_oracle_small(self):
        for d in (-3, -1, 5, -7, 17, 21):
            alg, order = quadratic_equation_order(d)
            mo = maximal_order(order)
            disc = discriminant(order)
            primes = sorted({p for p, _ in ZZ.factor(disc)})
            oracle = brute_force_maximal_order(order, primes)
            assert mo.lattice == oracle.lattice

    def test_brute_force_oracle_quaternion(self):
        alg = quaternion_algebra(ZZ, -1, -1)
        lip = Order(alg, Lattice.standard(ZZ, 4))
        mo = maximal_order(lip)
        oracle = brute_force_maximal_order(lip, [2])
        assert mo.lattice == oracle.lattice


class TestDiscriminant:
    def test_gaussian(self):
        _, order = quadratic_equation_order(-1)
        assert discriminant(order) == -4

    def test_scaling_under_index(self):
        alg = quadratic_algebra(5)
        big = maximal_order(Order(alg, Lattice.standard(ZZ, 2)))
        small = Order(alg, Lattice.standard(ZZ, 2))
        # disc scales by the square of the index
        assert discriminant(small) == 4 * discriminant(big)


class TestEndomorphismOrders:
    def test_free_module_gives_full_matrix_order(self):
        alg = quadratic_algebra(-1)
        o = Order(alg, Lattice.standard(ZZ, 2))
        delta = o
        e = endomorphism_order(delta, Lattice.standard(ZZ, 4))
        assert e.lattice == Lattice.standard(ZZ, e.algebra.dim)

    def test_non_free_module(self):
        # End of Z (+) 2Z over Z: b entries in (1/2)Z scaled model or
        # concretely: upper-right entries halved, lower-left doubled
        alg = matrix_algebra(ZZ, 1)
        o = Order(alg, Lattice.standard(ZZ, 1))
        lat = Lattice.from_rows(ZZ, [[1, 0], [0, 2]], 2)
        e = endomorphism_order(o, lat)
        # a, d integers; c in 2Z; b in (1/2)Z
        assert e.lattice.contains_vector([0, HALF, 0, 0])
        assert not e.lattice.contains_vector([0, 0, 1, 0])
        assert e.lattice.contains_vector([0, 0, 2, 0])
        assert e.lattice.contains_vector([1, 0, 0, 0])


class TestIdealsAndValuations:
    def test_gaussian_ideals_at_two(self):
        _, order = quadratic_equation_order(-1)
        mo = p_maximal_order(order, 2)
        ideals = two_sided_ideals_over_p(mo, 2)
        indices = sorted(lattice_index(i.lattice, mo.lattice) for i in ideals)
        assert indices == [1, 2, 4]

    def test_hurwitz_power_law(self):
        alg = quaternion_algebra(ZZ, -1, -1)
        hur = p_maximal_order(Order(alg, Lattice.standard(ZZ, 4)), 2)
        ideals = two_sided_ideals_over_p(hur, 2)
        indices = sorted(lattice_index(i.lattice, hur.lattice) for i in ideals)
        assert indices == [1, 4, 16]  # powers of the unique maximal ideal

    def test_matrix_order_ideals(self):
        alg = matrix_algebra(ZZ, 2)
        order = Order(alg, Lattice.standard(ZZ, 4))
        ideals = two_sided_ideals_over_p(order, 3)
        indices = sorted(lattice_index(i.lattice, order.lattice) for i in ideals)
        assert indices == [1, 81]  # 0 and 3*Lambda mod p: module index 3^4


class TestMaximalityProperties:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(-30, 30))
    def test_sweep_matches_closed_form(self, d):
        if not squarefree(d):
            return
        alg, order = quadratic_equation_order(d)
        mo = maximal_order(order)
        assert mo.lattice == expected_maximal_quadratic(alg, d).lattice
        # the certificate applies at primes of the *output* discriminant
        for p, _ in ZZ.factor(discriminant(mo)):
            assert is_maximal_at_p(mo, p)["verdict"]

    def test_idempotence(self):
        for d in (-3, 5, -15):
            alg, order = quadratic_equation_order(d)
            mo = maximal_order(order)
            again = maximal_order(mo)
            assert again.lattice == mo.lattice
