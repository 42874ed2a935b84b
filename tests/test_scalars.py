"""Seeded checks of the two ground rings (Z on plain ints, F_p[t] on
coefficient tuples), of their fractions, and of lattices built from rows
against the Hermite form with its transform, and of the Smith transform."""

import random

import pytest

from maxord.exactlin import Lattice, Matrix, hnf, snf
from maxord.rings import ZZ, Frac, IntegerRing, PolyRing, poly_ring

F5T = poly_ring(5)
RINGS = [ZZ, poly_ring(2), poly_ring(3), F5T]


def random_element(ring, rng, size=30):
    if ring == ZZ:
        return rng.randint(-size, size)
    coeffs = [rng.randrange(ring.p) for _ in range(rng.randint(0, 4))]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def is_canonical(ring, a):
    """Nonnegative over Z, monic (or zero) over F_p[t]."""
    if ring == ZZ:
        return a >= 0
    return not a or a[-1] == 1


def test_ring_classes():
    assert isinstance(ZZ, IntegerRing)
    assert isinstance(F5T, PolyRing)
    assert poly_ring(5) is F5T
    assert ZZ != F5T and poly_ring(2) != poly_ring(3)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_xgcd_bezout_and_normalized(ring):
    rng = random.Random(7)
    for _ in range(200):
        a, b = random_element(ring, rng), random_element(ring, rng)
        g, x, y = ring.xgcd(a, b)
        assert ring.add(ring.mul(x, a), ring.mul(y, b)) == g
        assert is_canonical(ring, g)
        assert g == ring.gcd(a, b)
        if not ring.is_zero(g):
            assert ring.divides(g, a) and ring.divides(g, b)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_gcd_of_zeros(ring):
    assert ring.gcd(ring.zero, ring.zero) == ring.zero
    assert ring.xgcd(ring.zero, ring.zero)[0] == ring.zero


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_unit_normalize(ring):
    rng = random.Random(11)
    assert ring.unit_normalize(ring.zero) == (ring.one, ring.zero)
    for _ in range(100):
        a = random_element(ring, rng)
        u, n = ring.unit_normalize(a)
        assert ring.is_unit(u) and is_canonical(ring, n)
        assert ring.mul(u, n) == a
        assert ring.canonical(n) == n


def test_unit_normalize_integers():
    assert ZZ.unit_normalize(-6) == (-1, 6)
    assert ZZ.unit_normalize(0) == (1, 0)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_frac_canonical_form(ring):
    rng = random.Random(13)
    for _ in range(200):
        num, den = random_element(ring, rng), random_element(ring, rng)
        if ring.is_zero(den):
            with pytest.raises(ZeroDivisionError):
                Frac(ring, num, den)
            continue
        f = Frac(ring, num, den)
        # same value, lowest terms, canonical denominator
        assert ring.mul(f.num, den) == ring.mul(num, f.den)
        assert is_canonical(ring, f.den) and not ring.is_zero(f.den)
        assert ring.gcd(f.num, f.den) == ring.one
        if ring.is_zero(num):
            assert (f.num, f.den) == (ring.zero, ring.one)
        # a unit multiple of (num, den) gives the same representation
        u = ring.from_int(-1) if ring == ZZ else (rng.randrange(1, ring.p),)
        g = Frac(ring, ring.mul(u, num), ring.mul(u, den))
        assert (g.num, g.den) == (f.num, f.den)


def test_frac_signs_over_z():
    assert (Frac(ZZ, -6, -4).num, Frac(ZZ, -6, -4).den) == (3, 2)
    assert (Frac(ZZ, 6, -4).num, Frac(ZZ, 6, -4).den) == (-3, 2)
    assert (Frac(ZZ, 0, -5).num, Frac(ZZ, 0, -5).den) == (0, 1)
    assert (Frac(ZZ, -3).num, Frac(ZZ, -3).den) == (-3, 1)
    with pytest.raises(ZeroDivisionError):
        Frac(ZZ, 0, 0)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_frac_arithmetic_matches_cross_multiplication(ring):
    rng = random.Random(17)
    for _ in range(100):
        x = Frac(ring, random_element(ring, rng), random_element(ring, rng)
                 or ring.one)
        y = Frac(ring, random_element(ring, rng), random_element(ring, rng)
                 or ring.one)
        s = x + y
        want = Frac(ring, ring.add(ring.mul(x.num, y.den),
                                   ring.mul(y.num, x.den)),
                    ring.mul(x.den, y.den))
        assert (s.num, s.den) == (want.num, want.den)
        assert x - y == x + (-y)
        assert x * y == Frac(ring, ring.mul(x.num, y.num),
                             ring.mul(x.den, y.den))
        if y:
            assert (x / y) * y == x


def random_rows(ring, rng, nrows, ncols):
    """Rational rows over the ring, with small denominators."""
    out = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            den = random_element(ring, rng, 3)
            row.append(Frac(ring, random_element(ring, rng, 9),
                            den if not ring.is_zero(den) else ring.one))
        out.append(row)
    return out


def tall_matrices(ring):
    """25 seeded tall matrices of rational rows."""
    rng = random.Random(19)
    for _ in range(25):
        ncols = rng.randint(1, 4)
        nrows = ncols + rng.randint(1, 4)
        yield Matrix(ring, random_rows(ring, rng, nrows, ncols), ncols)


@pytest.mark.parametrize("ring", [ZZ, F5T], ids=repr)
def test_from_rows_is_hnf_over_common_denominator(ring):
    """On tall matrices, the canonical basis of Lattice.from_rows is the
    Hermite form with its transform, of the rows times their common
    denominator d, divided by d."""
    for m in tall_matrices(ring):
        d = m.denominator_lcm()
        scaled = m.scaled(Frac(ring, d))
        h, u = hnf(scaled)
        assert u * scaled == h
        lat = Lattice.from_rows(ring, m)
        nonzero = [row for row in h.rows if any(row)]
        assert lat.basis.scaled(Frac(ring, d)).rows == nonzero
        assert hnf(scaled, transform=False) == (h, None)


def test_smith_transform_is_unimodular_over_f5t():
    """On the cleared tall matrices above, the column transform of the Smith
    form has a nonzero constant determinant, and m·v spans the lattice of
    the Smith form."""
    for m in tall_matrices(F5T):
        rows, _ = m.cleared()
        cleared = Matrix(F5T, rows, m.ncols)
        s, v = snf(cleared)
        assert F5T.is_unit(v.det().integral_value())
        assert Lattice.from_rows(F5T, cleared * v) == Lattice.from_rows(F5T, s)


def test_denominator_lcm():
    m = Matrix(ZZ, [[Frac(ZZ, 1, 4), Frac(ZZ, 1, 6)], [Frac(ZZ, 5, 2), 3]], 2)
    assert m.denominator_lcm() == 12
    t, t1 = (0, 1), (1, 1)
    m = Matrix(F5T, [[Frac(F5T, (1,), F5T.mul(t, t)),
                      Frac(F5T, (2,), F5T.mul(t, t1))]], 2)
    assert m.denominator_lcm() == F5T.mul(F5T.mul(t, t), t1)
