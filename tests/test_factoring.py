"""Primality and factoring over Z, F_p[t] and Q against sympy as the oracle.

The ground rings factor with their own code (trial division over Z,
Cantor-Zassenhaus over F_p[t], Hensel lifting and recombination over Q)
and call sympy only for integers trial division cannot settle, so these
tests compare both paths with sympy's answers."""

import functools
import random

import pytest
import sympy

from maxord import decompose, rings
from maxord.decompose import rational_factors
from maxord.errors import ZeroElement
from maxord.rings import (TRIAL_BOUND, ZZ, Frac, int_factorization, pmul,
                          pnorm, poly_ring, ptrim, trial_primes)

# strong pseudoprimes to the first 1, 1, 4 and 9 prime bases
PSEUDOPRIMES = [561, 2047, 3215031751, 3825123056546413051]
# a prime above 3.3e24, where 13 Miller-Rabin bases no longer suffice
BIG_PRIME = sympy.nextprime(3317044064679887385961981)
EDGE_CASES = PSEUDOPRIMES + [
    -1, 1, 2, -2, 65537 ** 2, 65537 * 65539, 65521 * 65537, 65521 ** 2,
    TRIAL_BOUND ** 2 - 5, TRIAL_BOUND ** 2 - 1, TRIAL_BOUND ** 2 + 1,
    (1 << 61) - 1, BIG_PRIME, 3 * BIG_PRIME, 2 ** 5 * BIG_PRIME,
    sympy.nextprime(10 ** 12) * sympy.nextprime(10 ** 13),
]


def sympy_int_factor(n):
    return sorted((int(q), int(e)) for q, e in sympy.factorint(abs(n)).items())


class TestIntegers:
    def test_zero(self):
        assert not ZZ.is_prime(0)
        with pytest.raises(ZeroElement):
            ZZ.factor(0)

    @pytest.mark.parametrize("n", EDGE_CASES)
    def test_edge_cases(self, n):
        assert ZZ.is_prime(n) == sympy.isprime(abs(n))
        assert ZZ.factor(n) == sympy_int_factor(n)

    def test_seeded_sweep(self):
        rng = random.Random(7)
        values = list(range(-300, 0)) + list(range(1, 3000))
        values += [rng.randrange(1, 10 ** rng.randint(4, 16))
                   for _ in range(300)]
        values += [sympy.nextprime(rng.randrange(2, 2 ** rng.randint(17, 64)))
                   * sympy.nextprime(rng.randrange(2, 2 ** 20))
                   for _ in range(40)]
        for n in values:
            assert ZZ.is_prime(n) == sympy.isprime(abs(n)), n
            assert ZZ.factor(n) == sympy_int_factor(n), n


# where rings sieves the next block of trial primes
BLOCK_EDGES = [1 << k for k in range(8, 17)]


class TestTrialDivision:
    def test_trial_primes_are_the_primes_below_the_bound(self):
        assert list(trial_primes()) == list(sympy.primerange(TRIAL_BOUND))

    def test_factorization_across_block_edges(self, monkeypatch):
        # from an empty cache, so each block is sieved as trial division
        # first reaches it
        monkeypatch.setattr(rings, "_trial_blocks", [])
        rng = random.Random(11)
        values = [65521 ** 2, 65521 * 65537]  # the second takes sympy
        for edge in BLOCK_EDGES:
            below, above = sympy.prevprime(edge), sympy.nextprime(edge)
            values += [below ** 2, above ** 2, below * above,
                       below * rng.randrange(2, edge),
                       above * rng.randrange(2, edge)]
        values += [rng.randrange(2, 2 ** rng.randint(2, 40))
                   for _ in range(200)]
        for n in sorted(values):
            assert int_factorization(n) == sympy_int_factor(n), n
        assert len(rings._trial_blocks) == len(BLOCK_EDGES)

    def test_small_n_sieves_only_the_first_block(self, monkeypatch):
        monkeypatch.setattr(rings, "_trial_blocks", [])
        assert int_factorization(720) == [(2, 4), (3, 2), (5, 1)]
        assert [max(b) for b in rings._trial_blocks] == [251]
        # the control: 257 * 263 reaches the block [2^8, 2^9)
        assert int_factorization(257 * 263) == [(257, 1), (263, 1)]
        assert len(rings._trial_blocks) == 2


def sympy_poly_factor(ring, a):
    t = sympy.Symbol("t")
    poly = sympy.Poly(list(reversed(a)), t, modulus=ring.p, symmetric=False)
    _, factors = poly.factor_list()
    out = [(ring.canonical(ptrim([int(c) % ring.p
                                  for c in reversed(f.all_coeffs())])), e)
           for f, e in factors]
    return sorted((q, e) for q, e in out if len(q) > 1)


def check_poly(ring, a):
    want = sympy_poly_factor(ring, a)
    assert ring.factor(a) == want, (ring, a)
    assert ring.is_prime(a) == (len(want) == 1 and want[0][1] == 1), (ring, a)


def power(a, e, p):
    out = (1,)
    for _ in range(e):
        out = pmul(out, a, p)
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
class TestPolynomials:
    def test_zero_and_units(self, p):
        ring = poly_ring(p)
        with pytest.raises(ZeroElement):
            ring.factor(())
        assert not ring.is_prime(())
        for c in range(1, p):
            assert ring.factor((c,)) == [] and not ring.is_prime((c,))

    def test_seeded_sweep(self, p):
        ring = poly_ring(p)
        rng = random.Random(p)

        def rand_poly(max_deg):
            return ptrim([rng.randrange(p)
                          for _ in range(rng.randint(1, max_deg + 1))])

        for _ in range(120):
            a = rand_poly(12)
            if rng.random() < 0.5:  # repeated factors
                a = pmul(a, power(rand_poly(3), rng.randint(2, 4), p), p)
            if a:
                check_poly(ring, a)

    def test_inseparable(self, p):
        ring = poly_ring(p)
        rng = random.Random(100 + p)
        check_poly(ring, power((1, 1, 1), 2, p))  # (t^2+t+1)^2
        for _ in range(10):  # g(t^p)
            g = ptrim([rng.randrange(p) for _ in range(rng.randint(2, 5))])
            if len(g) > 1:
                gp = [0] * (p * (len(g) - 1) + 1)
                gp[::p] = g
                check_poly(ring, tuple(gp))
        for b in range(p):  # (t+b)^p (t^2+3)
            check_poly(ring, pmul(power((b, 1), p, p), ptrim((3 % p, 0, 1)),
                                  p))
            check_poly(ring, pmul(power((b, 1), p * p + 1, p), (3 % p, 1),
                                  p))


def over_q(coeffs):
    return [c if isinstance(c, Frac) else Frac(ZZ, c) for c in coeffs]


def sympy_rational_factors(coeffs):
    """The monic factors of sympy's factor_list, as Frac lists."""
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.num, c.den) for c in reversed(coeffs)],
                      x)
    _, factors = poly.factor_list()
    assert all(e == 1 for _, e in factors)
    out = [[Frac(ZZ, int(sympy.numer(c)), int(sympy.denom(c)))
            for c in reversed(f.monic().all_coeffs())] for f, _ in factors]
    return sorted(out, key=str)


def test_irreducibility_by_reduction(monkeypatch):
    """The degrees of the factors mod small primes settle a field with no
    Hensel lifting, and that verdict is a proof (sympy agrees):
    x^12 - 3*2^12 is proved irreducible although it is reducible mod every
    prime.  x^4 + 1, of degrees (1, 1, 1, 1) or (2, 2) mod every prime, is
    proved irreducible by lifting and recombination."""
    lifts = []
    lift = decompose._hensel_lift
    monkeypatch.setattr(decompose, "_hensel_lift",
                        lambda *args: lifts.append(args) or lift(*args))

    def verdict(coeffs):
        """(irreducible, whether a lift was needed)."""
        lifts.clear()
        return len(rational_factors(coeffs)) == 1, bool(lifts)

    assert verdict(over_q([-3 * 2 ** 12] + [0] * 11 + [1])) == (True, False)
    assert verdict(over_q([Frac(ZZ, -5, 4), 0, 1])) == (True, False)
    assert verdict(over_q([-1, 0, 1])) == (False, True)
    assert verdict(over_q([2, 0, 3, 0, 1])) == (False, True)
    assert verdict(over_q([1, 0, 0, 0, 1])) == (True, True)
    x = sympy.Symbol("x")
    rng = random.Random(5)
    proved = 0
    for _ in range(60):
        n = rng.randint(2, 6)
        coeffs = [Frac(ZZ, rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(n)] + [Frac(ZZ, 1)]
        if rng.random() < 0.3:  # a product of two monic factors
            k = rng.randint(1, n - 1)
            f = sympy.Poly(x ** k + rng.randint(-5, 5), x) * sympy.Poly(
                x ** (n - k) + rng.randint(-5, 5) * x + 1, x)
            coeffs = [Frac(ZZ, int(c)) for c in reversed(f.all_coeffs())]
        poly = sympy.Poly([sympy.Rational(c.num, c.den)
                           for c in reversed(coeffs)], x)
        if not poly.is_sqf:
            continue
        irreducible, lifted = verdict(coeffs)
        assert irreducible == poly.is_irreducible, coeffs
        proved += irreducible and not lifted
    assert proved >= 20


def cyclotomic(n):
    x = sympy.Symbol("x")
    return over_q([int(c) for c in reversed(
        sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs())])


# the Swinnerton-Dyer polynomial of sqrt 2, sqrt 3 and sqrt 5 (without the
# sqrt 5): irreducible, and a product of factors of degree <= 2 mod every
# prime
SWINNERTON_DYER = [576, 0, -960, 0, 352, 0, -40, 0, 1]


@pytest.mark.parametrize("coeffs", [
    [1, 0, 0, 0, 1],
    SWINNERTON_DYER,
    [-1] + [0] * 23 + [1],                    # x^24 - 1: eight cyclotomics
    [-1] + [0] * 29 + [1],                    # x^30 - 1
    [1, 0, -1, 0, 2, 0, -1, 0, 1],            # (x^4 + 1)(x^4 - x^2 + 1)
    [Frac(ZZ, -1, 6), 0, Frac(ZZ, 1, 3), 0, 0, 0, 3],  # non-monic
    [-7 * 13, 0, 0, 7 + 13, 0, 0, -1],        # (7 - x^3)(x^3 - 13)
] + [cyclotomic(n) for n in range(1, 31)],
    ids=lambda c: "deg%d" % (len(c) - 1))
def test_rational_factors_match_sympy(coeffs):
    coeffs = over_q(coeffs)
    assert sorted(rational_factors(coeffs), key=str) == \
        sympy_rational_factors(coeffs)


def test_rational_factors_seeded_products():
    """Products of 2-4 distinct irreducibles of degree 1-4, with rational
    and non-monic coefficients."""
    x = sympy.Symbol("x")
    rng = random.Random(11)

    def irreducible(d):
        while True:
            f = sympy.Poly([sympy.Rational(rng.choice([-3, -2, -1, 1, 2, 5]),
                                           rng.randint(1, 4))]
                           + [sympy.Rational(rng.randint(-9, 9),
                                             rng.randint(1, 5))
                              for _ in range(d)], x)
            if f.is_irreducible:
                return f

    for _ in range(40):
        factors = []
        for _ in range(rng.randint(2, 4)):
            f = irreducible(rng.randint(1, 4))
            if all(f.monic() != g.monic() for g in factors):
                factors.append(f)
        prod = functools.reduce(lambda a, b: a * b, factors)
        coeffs = [Frac(ZZ, int(sympy.numer(c)), int(sympy.denom(c)))
                  for c in reversed(prod.all_coeffs())]
        got = rational_factors(coeffs)
        assert len(got) == len(factors), prod
        assert sorted(got, key=str) == sympy_rational_factors(coeffs), prod


@pytest.mark.parametrize("coeffs, p, k", [
    (SWINNERTON_DYER, 7, 9), ([-1] + [0] * 23 + [1], 5, 30),
    ([-3 * 2 ** 12] + [0] * 11 + [1], 11, 6)])
def test_hensel_lift(coeffs, p, k):
    """The lifts multiply to f mod p^k and reduce to the factors mod p."""
    factors = [q for q, _ in poly_ring(p).factor(pnorm(coeffs, p))]
    lifted = decompose._hensel_lift(coeffs, factors, p, k)
    assert decompose._pprod(lifted, p ** k) == pnorm(coeffs, p ** k)
    assert [pnorm(h, p) for h in lifted] == factors


@pytest.mark.parametrize("coeffs", [
    [1, -2, 1], [0, 0, 1, 1], [4, 0, 0, -4, 0, 0, 1],  # (x^3 - 2)^2
    [0, 0, Frac(ZZ, 1, 9), Frac(ZZ, 2, 3), 1],  # x^2 (x + 1/3)^2
])
def test_rational_factors_not_squarefree(coeffs):
    assert rational_factors(over_q(coeffs)) is None
