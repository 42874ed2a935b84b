"""Oracles for the p-step: the idealizer against a solve over R, residue
tables against products of scalars, inherited certificates against fresh
orders, and grown discriminants against Gram determinants."""

import gc
import random
import weakref

import pytest

from maxord import orders
from maxord.algebras import (Order, discriminant, is_commutative,
                             matrix_algebra, quaternion_algebra)
from maxord.exactlin import (Lattice, Matrix, PrimeField, hnf, kernel,
                             solve_echelon)
from maxord.finitealg import FiniteAlgebra
from maxord.orders import (
    candidate_primes,
    idealizer,
    is_maximal_at_p,
    maximal_order,
    p_maximal_order,
    residue_algebra,
)
from maxord.rings import ZZ, Frac, pnorm, poly_ring, ptrim
from ideal_oracle import two_sided_ideal_generated
from tables import sparse
from test_certificates import equation_order, f5t_kummer_order

F3T, F5T = poly_ring(3), poly_ring(5)
# primes of degree 1, 2 and 3 over F_3 and F_5
PRIMES = {F3T: [(0, 1), (1, 0, 1), (1, 2, 0, 1)],
          F5T: [(1, 1), (2, 0, 1), (1, 1, 0, 1)]}


def scalar_maps(ring, p, n):
    """(q, scalars, reduce, lift) for Λ/pΛ over F_q, slot i·d + e standing
    for scalars[e]·b_i: the scalars 1 over Z, t^e over F_q[t]."""
    if ring is ZZ:
        q = abs(p)
        return q, [1], lambda cs: [c % q for c in cs], \
            lambda rs: [int(c) for c in rs]
    q, d = ring.p, len(p) - 1

    def reduce(coords):
        out = []
        for c in coords:
            r = ring.divmod(c, p)[1]
            out.extend(r + (0,) * (d - len(r)))
        return out

    def lift(res):
        return [pnorm(res[k * d:(k + 1) * d], q) for k in range(n)]

    return q, [(0,) * e + (1,) for e in range(d)], reduce, lift


def lincomb(ring, coeffs, vecs):
    acc = [ring.zero] * len(vecs[0])
    for c, v in zip(coeffs, vecs):
        acc = [ring.add(x, ring.mul(c, y)) for x, y in zip(acc, v)]
    return acc


def lifted(order, p, rows):
    """The residue rows lifted to Λ-coordinates."""
    lift = scalar_maps(order.algebra.ring, p, order.dim)[3]
    return [lift(list(r)) for r in rows]


def basis_by_hnf(order, ideal):
    """I's basis in Λ-coordinates, the first n rows of hnf([p·I; lifts]),
    for the lifts of I's residue rows."""
    p, ring, n = ideal.prime, order.algebra.ring, order.dim
    eye = [[p if a == b else ring.zero for b in range(n)] for a in range(n)]
    h, _ = hnf(Matrix(ring, eye + lifted(order, p, ideal.rows), n),
               transform=False)
    return [[x.num for x in row] for row in h.rows[:n]]


def idealizer_over_r(order, ideal):
    """The lattice of O_l(I), by the ambient route from the lifts of the
    kernel of kernel_over_r."""
    p = ideal.prime
    return ambient_route(order, p,
                         lifted(order, p, kernel_over_r(order, ideal)))


def kernel_over_r(order, ideal):
    """The y ∈ Λ/pΛ with yI ⊆ pI, in residue coordinates: the
    I-coordinates of each b_i·w_k solved over R, and each scalar multiple
    reduced mod p on its own."""
    p, ring, n = ideal.prime, order.algebra.ring, order.dim
    q, scalars, reduce, _ = scalar_maps(ring, p, n)
    w = basis_by_hnf(order, ideal)
    struct = order.structure_constants()
    cond = []
    for i in range(n):
        images = solve_echelon(ring, w, [lincomb(ring, wk, struct[i])
                                         for wk in w])
        for s in scalars:
            cond.append([x for t in images
                         for x in reduce([ring.mul(s, c) for c in t])])
    return kernel(PrimeField(q), cond)


def ambient_route(order, p, lifts):
    """The lattice of Λ + (1/p)·(lifts, in Λ-coordinates), from the
    2n rows of Λ's basis and the lifts' ambient coordinates over Frac(R)."""
    ring, n, basis = order.algebra.ring, order.dim, order.lattice.basis
    grown = (Matrix(ring, lifts, n) * basis).scaled(Frac(ring, ring.one, p))
    return Lattice.from_rows(ring, basis.rows + grown.rows, n)


def residue_table_by_products(order, p):
    """Λ/pΛ's table, entry (i, e), (j, f) the reduction of s_e·s_f·c_ij."""
    ring = order.algebra.ring
    _, scalars, reduce, _ = scalar_maps(ring, p, order.dim)
    struct = order.structure_constants()
    slots = [(i, s) for i in range(order.dim) for s in scalars]
    return sparse([
        [reduce([ring.mul(ring.mul(si, sj), c) for c in struct[i][j]])
         for j, sj in slots] for i, si in slots])


def random_poly(rng, ring, deg):
    return ptrim(tuple(rng.randrange(ring.p) for _ in range(deg)))


def seeded_cases():
    """(order, p): equation orders over Z, F_3[t] and F_5[t] made
    non-maximal at p, with nonzero discriminants and primes of degree 1 to
    3 over F_q[t], two noncommutative orders over Z, and F_3[t]⟨i, j⟩ in
    (π, t | F_3(t)) at π of degree 2 and 3, whose residue algebras are
    noncommutative over R/π."""
    rng = random.Random(16)
    cases = []
    for ring, primes in [(ZZ, [2, 3, 5])] + list(PRIMES.items()):
        for p in primes:
            assert ring.is_prime(p)
            while True:
                n = rng.randint(2, 3 if ring.p else 4)
                p2 = ring.mul(p, p)
                coeffs = [ring.mul(p2, random_poly(rng, ring, 2) if ring.p
                                   else rng.randint(-4, 4))
                          for _ in range(n)] + [ring.one]
                coeffs[0] = ring.mul(ring.mul(p2, p), ring.add(
                    random_poly(rng, ring, 2) if ring.p
                    else rng.randint(0, 3), ring.one))
                order = equation_order(ring, coeffs)
                if discriminant(order) != ring.zero:
                    break
            cases.append((order, p))
    lip = Order(quaternion_algebra(ZZ, -1, -1), Lattice.standard(ZZ, 4))
    alg = matrix_algebra(ZZ, 2)
    eichler = Order(alg, Lattice.from_rows(
        ZZ, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 9, 0], [0, 0, 0, 1]], 4))
    t = (0, 1)
    quaternions = [(Order(quaternion_algebra(F3T, p, t),
                          Lattice.standard(F3T, 4)), p)
                   for p in PRIMES[F3T][1:]]
    return cases + [(lip, 2), (eichler, 3)] + quaternions


def ideals_to_check(order, p, rng):
    """The p-radical, the maximal ideals over p, and two ideals generated
    by random residue elements."""
    res = residue_algebra(order, p)[0]
    out = orders._p_step_ideals(order, p)
    for _ in range(2):
        x = [rng.randrange(res.p) for _ in range(res.dim)]
        out.append(orders.LatticeIdeal(
            order, p, two_sided_ideal_generated(res, x)))
    return out


def test_idealizer_matches_a_solve_over_r():
    """Conditions built mod p² give the idealizer that a solve over R
    gives, on every ideal checked along each p-maximalization chain."""
    rng = random.Random(5)
    checked = grown = 0
    degrees, noncommutative = set(), set()
    for order, p in seeded_cases():
        degree = len(p) - 1 if isinstance(p, tuple) else 1
        degrees.add(degree)
        if not is_commutative(order.algebra.table):
            noncommutative.add(degree)
        while order is not None:
            for ideal in ideals_to_check(order, p, rng):
                fast = idealizer(order, ideal).lattice
                assert fast == idealizer_over_r(order, ideal), p
                checked += 1
                grown += fast != order.lattice
            order = orders.step_at(order, p)[0]
    assert degrees == noncommutative == {1, 2, 3}
    assert checked >= 120 and grown >= 40


def structure_constants_over_frac(order):
    """Order coordinates of the b_i·b_j, from products over Frac(R) read
    by Lattice.coordinates."""
    rows, n = order.lattice.basis.rows, order.dim
    mul = order.algebra.mul_coords
    flat = [[x.integral_value() for x in t] for t in order.lattice.coordinates(
        [mul(a, b) for a in rows for b in rows])]
    return [flat[i * n:(i + 1) * n] for i in range(n)]


def test_p_step_bases_match_the_fraction_route():
    """On every ideal checked along each chain: the basis over p is the
    Hermite form of [p·I; lifts]; the order grown from the kernel (P from
    its rref over F_q, the rows with t⁰ pivots lifted) has the lattice,
    with its hash, of the 2n-row Lattice.from_rows over Frac(R) on the
    kernel's lifts; and structure constants over R, of each order
    validated afresh and of each grown one, are those of the products
    over Frac(R)."""
    rng = random.Random(9)
    grown = residue_fields = 0
    for order, p in seeded_cases():
        ring, n = order.algebra.ring, order.dim
        while order is not None:
            want = structure_constants_over_frac(order)
            assert order.structure_constants() == want, p
            fresh = Order(order.algebra, order.lattice)
            assert fresh.structure_constants() == want, p
            for ideal in ideals_to_check(order, p, rng):
                assert orders._basis_over_p(ring, p, ideal.rows, n) == \
                    basis_by_hnf(order, ideal), p
                ker = kernel_over_r(order, ideal)
                if not ker:
                    continue
                big_p = orders._basis_over_p(ring, p, ker, n)
                lattice = orders._grown_order(order, p, big_p).lattice
                ref = ambient_route(order, p, lifted(order, p, ker))
                assert lattice == ref and hash(lattice) == hash(ref), p
                assert idealizer(order, ideal).lattice == ref, p
                grown += 1
                residue_fields += isinstance(p, tuple) and len(p) > 2
            order = orders.step_at(order, p)[0]
    assert grown >= 45 and residue_fields >= 12


def test_p_steps_build_no_fractions(monkeypatch):
    """Once an order's structure constants (and its discriminant, a Gram
    determinant over Frac(R)) are known, p-maximalization builds no Frac:
    ideal bases, idealizer conditions, grown lattices, their structure
    constants and discriminants are all over R or R/p.  Seeded orders
    over Z and F_5[t], the Lipschitz and an Eichler order among them."""
    cases = [(o, p) for o, p in seeded_cases() if o.algebra.ring in (ZZ, F5T)]
    for order, _ in cases:
        order.structure_constants()
        discriminant(order)
    made = []
    init = Frac.__init__
    monkeypatch.setattr(Frac, "__init__", lambda self, *args, **kwargs: (
        made.append(args), init(self, *args, **kwargs))[1])
    steps = 0
    for order, p in cases:
        out = p_maximal_order(order, p)
        steps += out.lattice != order.lattice
    monkeypatch.undo()
    assert not made
    assert steps == len(cases)
    assert any(not is_commutative(o.algebra.table) for o, _ in cases)


@pytest.mark.parametrize("ring", [ZZ, F3T, F5T], ids=["Z", "F3t", "F5t"])
def test_residue_tables_match_products(ring):
    """Each table entry t^(e+f)·c_ij, formed from c_ij mod p by
    multiplications by t, is the reduction of the full product."""
    checked = 0
    for order, p in seeded_cases():
        if order.algebra.ring != ring:
            continue
        while order is not None:
            res = residue_algebra(order, p)[0]
            assert res.table == residue_table_by_products(order, p), p
            checked += 1
            order = orders.step_at(order, p)[0]
    assert checked >= 5


def certificate_cases():
    """Orders with several candidate primes, over Z and F_5[t]."""
    rng = random.Random(11)
    out = [equation_order(ZZ, [-135, 0, 1]), f5t_kummer_order()]
    while len(out) < 8:
        coeffs = [rng.choice([2, 3, 6]) * rng.randint(-9, 9)
                  for _ in range(3)] + [1]
        order = equation_order(ZZ, coeffs)
        if discriminant(order) and len(candidate_primes(order)) >= 2:
            out.append(order)
    return out


def test_inherited_certificates_match_fresh_orders(monkeypatch):
    """Certificates of a maximal order, some inherited along its chain,
    equal those of an order built afresh on its lattice, at every
    candidate prime.  Each start order is certified first, its primes in
    reverse order, so that it holds verdicts "not maximal" at later primes
    when it grows at earlier ones; only verdicts "maximal" pass on."""
    computed = set()
    p_step = orders.p_step
    monkeypatch.setattr(orders, "p_step", lambda order, p: computed.add(
        (order.lattice, p)) or p_step(order, p))
    inherited = 0
    for start in certificate_cases():
        for q in reversed(candidate_primes(start)):
            is_maximal_at_p(start, q)
        out = maximal_order(start)
        fresh = Order(out.algebra, out.lattice)
        for q in candidate_primes(out):
            cert = is_maximal_at_p(out, q)
            inherited += (out.lattice, q) not in computed
            assert cert["verdict"], q
            assert cert == is_maximal_at_p(fresh, q), q
    assert inherited >= 10


def gram_determinant(order):
    return discriminant(Order(order.algebra, order.lattice))


def test_grown_discriminants_match_gram_determinants():
    """disc(Γ), read off disc(Λ) and the pivots of both bases, is the Gram
    determinant of the trace form on Γ's basis, along whole chains."""
    chains = 0
    for start, p in seeded_cases():
        if not discriminant(start):
            continue
        order, steps = start, 0
        while order is not None:
            assert order._disc is not None
            assert order._disc == gram_determinant(order), p
            order, steps = orders.step_at(order, p)[0], steps + 1
        chains += steps > 1
    assert chains >= 10


def test_maximal_ideals_are_counted_once_when_read(monkeypatch):
    """A commutative p-step counts the maximal ideals over p only when a
    certificate reads the count, and at most once per order and prime; the
    count is the dimension of the Frobenius-fixed center of Λ/J."""
    calls = []
    count = FiniteAlgebra.frobenius_fixed_center

    def counted(self):
        calls.append(self)
        return count(self)

    monkeypatch.setattr(FiniteAlgebra, "frobenius_fixed_center", counted)
    start = equation_order(ZZ, [-135, 0, 1])
    out = maximal_order(start)
    assert not calls
    primes = candidate_primes(out)
    first = [is_maximal_at_p(out, q) for q in primes]
    assert len(calls) == len(primes) == 3
    assert [is_maximal_at_p(out, q) for q in primes] == first
    assert len(calls) == 3
    assert [c["residueSimple"] for c in first] == [True, True, True]


def test_steps_hold_no_order_they_came_from():
    """Steps and their facts, inherited ones and lazy counts included, hold
    no reference back to an order, so reference counting alone frees each
    order of a chain: an order kept alive, or a cycle left to the
    collector, raises the peak memory of every maximalization."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for build in (lambda: equation_order(ZZ, [-135, 0, 1]),
                      f5t_kummer_order):
            start = build()
            out = maximal_order(start)
            for q in candidate_primes(out):
                is_maximal_at_p(out, q)
            refs = [weakref.ref(start), weakref.ref(out)]
            del start
            assert refs[0]() is None
            del out
            assert refs[1]() is None
    finally:
        if enabled:
            gc.enable()


def test_constants_are_reduced_once_per_order_and_prime(monkeypatch):
    """A noncommutative p-step reduces Λ's structure constants mod p² once,
    for the radical's idealizer and each maximal ideal's: on the Eichler
    order of level 3 at 3, which grows at a maximal ideal, and on the
    Hurwitz order at 2, which is maximal there."""
    calls = []
    real = orders.idealizer

    def counted(order, ideal):
        calls.append(order)
        return real(order, ideal)

    class Stores(dict):
        def __setitem__(self, key, value):
            stores.append(key)
            super().__setitem__(key, value)

    monkeypatch.setattr(orders, "idealizer", counted)
    eichler = Order(matrix_algebra(ZZ, 2), Lattice.from_rows(
        ZZ, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 3, 0], [0, 0, 0, 1]], 4))
    hurwitz = maximal_order(
        Order(quaternion_algebra(ZZ, -1, -1), Lattice.standard(ZZ, 4)))
    for order, p, grows in ((eichler, 3, True), (hurwitz, 2, False)):
        calls.clear()
        stores = []
        order._mod_p2 = Stores()
        grown, facts = orders.p_step(order, p)
        assert (grown is not None) == grows
        assert facts["idealizerFixed"]
        assert len(calls) == 2 and stores == [p]
