"""Regression tests for the per-prime maximality test shared by
`is_maximal_at_p` and `p_maximal_order`, and for residue algebras over
F_p[t]."""

import json
import random

from maxord import cli, orders
from maxord.algebras import Order, discriminant, poly_quotient_algebra
from maxord.exactlin import Lattice, lattice_index
from maxord.orders import is_maximal_at_p, maximal_order, residue_algebra
from maxord.rings import ZZ, Frac, poly_ring
from test_acceptance import brute_force_maximal_order

F5T = poly_ring(5)
F2T = poly_ring(2)
S3 = (1, 1, 0, 1)  # t^3+t+1, prime over F_2


def equation_order(ring, coeffs):
    """R[x]/(f) on the basis 1, x, ..., for f monic, lowest degree first."""
    alg = poly_quotient_algebra(ring, coeffs, trusted_semisimple=True)
    return Order(alg, Lattice.standard(ring, alg.dim))


def test_split_product_is_maximal_at_two():
    # Q[x]/(x^2 - 1) = Q x Q; Z x Z is spanned by (1 ± x)/2
    order = equation_order(ZZ, [-1, 0, 1])
    zxz = Order(order.algebra, Lattice.from_rows(
        ZZ, [[Frac(ZZ, 1, 2), Frac(ZZ, 1, 2)],
             [Frac(ZZ, 1, 2), Frac(ZZ, -1, 2)]], 2))
    cert = is_maximal_at_p(zxz, 2)
    assert cert["verdict"] is True
    assert cert["idealizerFixed"] is True
    assert cert["residueSimple"] is False  # 2 splits: two maximal ideals
    assert not is_maximal_at_p(order, 2)["verdict"]


def test_cubic_sweep_matches_brute_force():
    """Seeded monic cubics: the certificate agrees with the superlattice
    oracle on the equation order and accepts the oracle's p-maximal order,
    at every prime p <= 7 dividing the discriminant."""
    rng = random.Random(2024)
    cases = verdicts = split = 0
    while cases < 20:
        coeffs = [rng.randint(-9, 9) for _ in range(3)] + [1]
        order = equation_order(ZZ, coeffs)
        disc = discriminant(order)
        primes = [p for p in (2, 3, 5, 7) if disc and disc % p == 0]
        if not primes:
            continue
        cases += 1
        for p in primes:
            oracle = brute_force_maximal_order(order, [p])
            cert = is_maximal_at_p(order, p)
            assert cert["verdict"] == (oracle.lattice == order.lattice), \
                (coeffs, p)
            top = is_maximal_at_p(oracle, p)
            assert top["verdict"], (coeffs, p)
            verdicts += not cert["verdict"]
            split += not top["residueSimple"]
    # the sweep reaches non-maximal orders and split maximal ones
    assert verdicts and split


def test_quartic_sweep_matches_brute_force():
    """Seeded monic quartics, irreducible and squarefree-reducible: at
    each p in {2, 3} dividing the discriminant the certificate agrees with
    the superlattice oracle, and the oracle's order certifies."""
    import sympy

    rng = random.Random(44)
    x = sympy.Symbol("x")
    kinds = {True: 0, False: 0}  # irreducible -> cases
    pairs = verdicts = 0
    while min(kinds.values()) < 4:
        if rng.random() < 0.5:
            coeffs = [rng.randint(-6, 6) for _ in range(4)] + [1]
        else:
            # a product of two monic factors, of degrees 1 and 3 or 2 and 2
            d = rng.choice([1, 2])
            a = [rng.randint(-4, 4) for _ in range(d)] + [1]
            b = [rng.randint(-4, 4) for _ in range(4 - d)] + [1]
            coeffs = [sum(a[i] * b[k - i] for i in range(len(a))
                          if 0 <= k - i < len(b)) for k in range(5)]
        irreducible = sympy.Poly(list(reversed(coeffs)), x).is_irreducible
        order = equation_order(ZZ, coeffs)
        disc = discriminant(order)
        primes = [p for p in (2, 3) if disc and disc % p == 0]
        if not primes or kinds[irreducible] >= 4:
            continue
        kinds[irreducible] += 1
        for p in primes:
            oracle = brute_force_maximal_order(order, [p])
            cert = is_maximal_at_p(order, p)
            assert cert["verdict"] == (oracle.lattice == order.lattice), \
                (coeffs, p)
            assert is_maximal_at_p(oracle, p)["verdict"], (coeffs, p)
            pairs += 1
            verdicts += not cert["verdict"]
    # the sweep reaches non-maximal equation orders
    assert verdicts and pairs > verdicts


def f5t_kummer_order():
    """y^3 = (t+2)^3 (t^2+3) over F_5[t]; t^2+3 is a prime of degree 2."""
    s = (2, 1)
    c = F5T.mul(F5T.mul(F5T.mul(s, s), s), (3, 0, 1))
    return equation_order(F5T, [F5T.neg(c), F5T.zero, F5T.zero, F5T.one])


def f2t_inseparable_order():
    """y^4 = t·s^4 over F_2[t] with s = t^3+t+1: purely inseparable, so
    the discriminant is 0 and the primes t and s are supplied."""
    s4 = F2T.mul(F2T.mul(S3, S3), F2T.mul(S3, S3))
    return equation_order(F2T, [F2T.mul((0, 1), s4), F2T.zero, F2T.zero,
                                F2T.zero, F2T.one])


def test_f5t_kummer_order():
    # the maximal order adjoins y/(t+2) and y^2/(t+2)^2
    s = (2, 1)
    order = f5t_kummer_order()
    out = maximal_order(order)
    inv_s = Frac(F5T, F5T.one, s)
    assert out.lattice == Lattice.from_rows(
        F5T, [[1, 0, 0], [0, inv_s, 0], [0, 0, inv_s * inv_s]], 3)
    assert lattice_index(order.lattice, out.lattice) == F5T.mul(F5T.mul(s, s), s)
    for q, _ in F5T.factor(discriminant(out)):
        assert is_maximal_at_p(out, q)["verdict"]


def test_f2t_inseparable_order():
    # the maximal order is F_2[t^(1/4)], spanned by (y/s)^i
    order = f2t_inseparable_order()
    assert discriminant(order) == F2T.zero
    out = maximal_order(order, extra_primes=[(0, 1), S3])
    powers = [Frac(F2T, F2T.one)]
    for _ in range(3):
        powers.append(powers[-1] * Frac(F2T, F2T.one, S3))
    assert out.lattice == Lattice.from_rows(
        F2T, [[powers[i] if i == j else 0 for j in range(4)]
              for i in range(4)], 4)
    for q in ((0, 1), S3):
        assert is_maximal_at_p(out, q)["verdict"]


def test_residue_lift_inverts_reduce_over_f5t():
    order = equation_order(F5T, [(1,), F5T.zero, F5T.zero, F5T.one])
    # a degree-1 prime: residues are constants
    _, reduce_coords, lift = residue_algebra(order, (2, 1))
    v = [(4,), (1,), (2,)]
    assert lift(reduce_coords(v)) == v
    # a degree-2 prime: residues are polynomials of degree < 2
    _, reduce_coords, lift = residue_algebra(order, (3, 0, 1))
    v = [(2,), (1, 2), ()]
    assert lift(reduce_coords(v)) == v


def test_conductor_suborders_keep_the_discriminant():
    """All maximal orders of an algebra share one discriminant: maximalizing
    Z + f·O for a maximal O must give O's discriminant back.  O is the
    superlattice oracle's maximal order of a cubic equation order: a field
    (x^3+x+1, x^3+x^2+7x-1 with index 8, x^3-2) or Q^3 (x^3-x)."""
    for coeffs in ([1, 1, 0, 1], [-1, 7, 1, 1], [-2, 0, 0, 1], [0, -1, 0, 1]):
        order = equation_order(ZZ, coeffs)
        disc = discriminant(order)
        top = brute_force_maximal_order(
            order, [q for q, e in ZZ.factor(disc) if e > 1])
        for f in (2, 3, 6):
            rows = [order.algebra.one_coords] + [
                [x * f for x in row] for row in top.lattice.basis.rows]
            sub = Order(order.algebra, Lattice.from_rows(ZZ, rows, 3))
            assert discriminant(sub) == f ** 4 * discriminant(top)
            out = maximal_order(sub)
            assert discriminant(out) == discriminant(top), (coeffs, f)
            assert out.lattice.contains_lattice(sub.lattice)


def test_maximal_order_runs_each_p_step_once(tmp_path, monkeypatch, capsys):
    """The certificates of `maximal-order` reuse the last p-step that
    maximalization ran on the same order: no (lattice, prime) pair is
    computed twice."""
    computed = []
    p_step = orders.p_step

    def counted(order, p):
        computed.append((order.lattice, p))
        return p_step(order, p)

    monkeypatch.setattr(orders, "p_step", counted)
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps({
        "algebra": {"poly_quotient": {"modulus": "x^3+x^2+7x-1"}},
        "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}))
    assert cli.main(["maximal-order", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert all(c["verdict"] for c in out["certificates"])
    assert len(computed) > len(out["certificates"])
    assert len(set(computed)) == len(computed)


def test_field_discriminants_match_round_two():
    """discriminant(maximal_order(Z[x]/(f))) is the field discriminant that
    sympy's Round Two finds, for one seeded irreducible monic f of each
    degree 5 to 12.  Each f is s^n·g(x/s) for g a shifted radical
    (x - c)^n - a or a shifted cyclotomic polynomial, so Z[x]/(f) has
    index a power of s in Z[x]/(g) on top of g's own; s ∈ {1, 2} below
    degree 9 and s = 1 from there, where Round Two in sympy takes seconds
    on the extra index.  Both families have discriminants with small
    prime factors only, so one more f has a large one: the sextic below,
    whose discriminant has the prime factor 17,015,347.
    """
    import sympy
    from sympy.polys.numberfields.basis import round_two

    x = sympy.Symbol("x")
    cyclotomic = {6: [7, 9, 14, 18], 8: [15, 16, 20, 24, 30], 10: [11, 22],
                  12: [13, 21, 26, 28, 36, 42]}  # m with φ(m) = n
    rng = random.Random(7)
    polys = [sympy.Poly(x**6 + 8*x**5 + 4*x**4 + 32*x**3 - 32*x + 256, x)]
    for n in range(5, 13):
        while True:
            c, s = rng.randint(-2, 2), rng.choice([1, 2] if n < 9 else [1])
            if n in cyclotomic and rng.random() < 0.5:
                g = sympy.cyclotomic_poly(rng.choice(cyclotomic[n]), x - c)
            else:
                a = rng.choice([-1, 1]) * rng.choice(
                    [2, 3, 5, 6, 7, 10, 12, 18, 20, 24, 45, 54])
                g = (x - c) ** n - a
            top_first = sympy.Poly(g, x).all_coeffs()
            f = sympy.Poly([co * s ** k for k, co in enumerate(top_first)], x)
            if f.is_irreducible:
                polys.append(f)
                break
    for f in polys:
        _, field_disc = round_two(f)
        order = equation_order(ZZ, [int(co) for co in reversed(f.all_coeffs())])
        assert discriminant(maximal_order(order)) == int(field_disc), f
