import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from maxord.exactlin import (
    FractionField,
    Lattice,
    Matrix,
    charpoly,
    hnf,
    lattice_index,
    snf,
    solve,
)
from maxord.errors import NotSublattice
from maxord.rings import ZZ, Frac, frac0, poly_ring

F2T = poly_ring(2)
F3T = poly_ring(3)

small_int = st.integers(min_value=-9, max_value=9)


def int_matrix(nr, nc):
    return st.lists(
        st.lists(small_int, min_size=nc, max_size=nc),
        min_size=nr, max_size=nr,
    ).map(lambda rows: Matrix(ZZ, rows, nc))


dims = st.tuples(st.integers(1, 4), st.integers(1, 4))


def random_unimodular(rng_rows, n):
    """Build a unimodular matrix from shear generators encoded by rows."""
    m = Matrix.identity(ZZ, n)
    for (i, j, c) in rng_rows:
        i, j = i % n, j % n
        if i == j:
            continue
        shear = Matrix.identity(ZZ, n).to_ring_rows()
        shear[i][j] = c
        m = m * Matrix(ZZ, shear, n)
    return m


def small_element(ring, rng):
    if ring == ZZ:
        return rng.randint(-6, 6)
    coeffs = [rng.randrange(ring.p) for _ in range(rng.randint(0, 3))]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def assert_smith_pair(m, s, v):
    """v is unimodular, and m·v spans the row lattice of s."""
    ring = m.ring
    assert ring.is_unit(v.det().integral_value())
    assert Lattice.from_rows(ring, m * v) == Lattice.from_rows(ring, s)


class TestHnf:
    def test_identity(self):
        m = Matrix.identity(ZZ, 2)
        h, u = hnf(m)
        assert h == m and u == m

    def test_hand_example(self):
        h, _ = hnf(Matrix(ZZ, [[2, 4], [6, 8]], 2))
        assert h == Matrix(ZZ, [[2, 0], [0, 4]], 2)

    def test_poly_diagonal(self):
        t = Frac.of(F2T, (0, 1))
        m = Matrix(F2T, [[t, 0], [0, t]], 2)
        h, _ = hnf(m)
        assert h == m

    @settings(max_examples=60, deadline=None)
    @given(dims.flatmap(lambda d: int_matrix(*d)),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                              st.integers(-3, 3)), max_size=6))
    def test_canonicity_under_unimodular(self, m, shears):
        u = random_unimodular(shears, m.nrows) if m.nrows else None
        h1, u1 = hnf(m)
        assert u1 * m == h1
        if u is not None:
            h2, _ = hnf(u * m)
            assert h1 == h2

    @settings(max_examples=40, deadline=None)
    @given(dims.flatmap(lambda d: int_matrix(*d)))
    def test_transform_unimodular(self, m):
        _, u = hnf(m)
        det = u.det()
        assert det.integral_value() in (1, -1)


class TestSnf:
    def test_gcd_lcm(self):
        s, _ = snf(Matrix(ZZ, [[2, 0], [0, 3]], 2))
        assert s == Matrix(ZZ, [[1, 0], [0, 6]], 2)

    def test_zero(self):
        m = Matrix(ZZ, [[0, 0], [0, 0]], 2)
        s, _ = snf(m)
        assert s == m

    def test_unimodular_input(self):
        s, _ = snf(Matrix.identity(ZZ, 2))
        assert s == Matrix.identity(ZZ, 2)

    @settings(max_examples=80, deadline=None)
    @given(dims.flatmap(lambda d: int_matrix(*d)))
    def test_reconstruction_and_chain(self, m):
        s, v = snf(m)
        assert_smith_pair(m, s, v)
        diag = [s.rows[i][i] for i in range(min(m.nrows, m.ncols))]
        for a, b in zip(diag, diag[1:]):
            if a.is_zero():
                assert b.is_zero()
            elif not b.is_zero():
                assert b.integral_value() % a.integral_value() == 0
        for i in range(m.nrows):
            for j in range(m.ncols):
                if i != j:
                    assert s.rows[i][j].is_zero()

    def test_regression_gcd_step_terminates(self):
        # a gcd step could once swap pivot and entry without progress when
        # one already divided the other, and loop forever
        m = Matrix(ZZ, [[-1, -1, 2, 0], [3, -1, 0, 2],
                        [1, -1, 1, 1], [3, 1, -3, 1]], 4)
        s, v = snf(m)
        assert_smith_pair(m, s, v)
        diag = [s.rows[i][i].integral_value() for i in range(4)]
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0

    @pytest.mark.parametrize("ring", [ZZ, F3T], ids=repr)
    def test_diagonal_is_determinantal_divisors(self, ring):
        """d_k = D_k / D_(k-1), for D_k the gcd of the k×k minors, found by
        enumeration."""
        rng = random.Random(23)
        for _ in range(40):
            nr, nc = rng.randint(1, 4), rng.randint(1, 4)
            m = Matrix(ring, [[small_element(ring, rng) for _ in range(nc)]
                              for _ in range(nr)], nc)
            s, v = snf(m, transform=rng.random() < 0.5)
            gcds = [ring.one]
            for k in range(1, min(nr, nc) + 1):
                g = ring.zero
                for rows in itertools.combinations(range(nr), k):
                    for cols in itertools.combinations(range(nc), k):
                        minor = m.submatrix(rows, cols).det().integral_value()
                        g = ring.gcd(g, minor)
                gcds.append(g)
            for k in range(min(nr, nc)):
                want = (ring.zero if ring.is_zero(gcds[k + 1])
                        else ring.exact_div(gcds[k + 1], gcds[k]))
                assert s.rows[k][k].integral_value() == want
            if v is not None:
                assert_smith_pair(m, s, v)

    def test_divisors_poly(self):
        t = Frac.of(F2T, (0, 1))
        m = Matrix(F2T, [[t, 0], [0, t * t]], 2)
        s = snf(m, transform=False)[0]
        assert [s.rows[k][k].integral_value() for k in range(2)] == [
            (0, 1), (0, 0, 1)]


class TestLattice:
    def test_canonical_equality(self):
        a = Lattice.from_rows(ZZ, [[2, 0], [1, 1]], 2)
        b = Lattice.from_rows(ZZ, [[1, 1], [0, 2]], 2)
        assert a == b

    def test_denominators(self):
        half = Frac(ZZ, 1, 2)
        lat = Lattice.from_rows(ZZ, [[half, half], [0, 1]], 2)
        assert lat.contains_vector([half, half])
        assert not lat.contains_vector([half, 0])

    def test_index_examples(self):
        sup = Lattice.standard(ZZ, 2)
        assert lattice_index(Lattice.from_rows(ZZ, [[2, 0], [0, 2]], 2), sup) == 4
        assert lattice_index(sup, sup) == 1
        assert lattice_index(Lattice.from_rows(ZZ, [[1, 0], [0, 3]], 2), sup) == 3

    def test_index_non_sublattice(self):
        sup = Lattice.from_rows(ZZ, [[2, 0], [0, 2]], 2)
        try:
            lattice_index(Lattice.standard(ZZ, 2), sup)
        except NotSublattice:
            pass
        else:
            raise AssertionError("expected NotSublattice")

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2),
                    min_size=2, max_size=2))
    def test_index_matches_quotient_count(self, rows):
        m = Matrix(ZZ, rows, 2)
        if m.det().is_zero():
            return
        sub = Lattice.from_rows(ZZ, rows, 2)
        idx = lattice_index(sub, Lattice.standard(ZZ, 2))
        if idx > 24:
            return
        # brute-force coset count: scan a box large enough to meet every coset
        seen = []
        for x, y in itertools.product(range(idx), repeat=2):
            if all(not sub.contains_vector([x - px, y - py]) for px, py in seen):
                seen.append((x, y))
        assert len(seen) == idx

    @pytest.mark.parametrize("ring", [ZZ, F3T], ids=repr)
    def test_back_substitution_matches_rational_solve(self, ring):
        """coordinates, contains_rows and lattice_index, which back-substitute
        against the HNF basis, agree with a rational solve and a
        determinant, on full-rank and rank-deficient lattices."""
        rng = random.Random(29)
        field = FractionField(ring)

        def frac(scale):
            den = small_element(ring, rng)
            return Frac(ring, small_element(ring, rng),
                        ring.one if ring.is_zero(den) or rng.random() > scale
                        else den)

        def combos(rows, k, scale):
            out = []
            for _ in range(k):
                acc = [frac0(ring)] * len(rows[0])
                for row in rows:
                    c = frac(scale)
                    acc = [a + c * b for a, b in zip(acc, row)]
                out.append(acc)
            return out

        kinds = collections.Counter()
        for _ in range(60):
            n = rng.randint(1, 4)
            rank = rng.randint(1, n)
            lat = Lattice.from_rows(
                ring, [[frac(0.3) for _ in range(n)] for _ in range(rank)], n)
            if lat.rank != rank:
                continue
            basis = lat.basis.rows
            for vecs in (combos(basis, 2, 0.0),  # in the lattice
                         combos(basis, 2, 0.5),  # in its span
                         [[frac(0.3) for _ in range(n)]]):  # anywhere
                want = solve(field, basis, vecs)
                inside = want is not None and all(
                    x.is_integral() for row in want for x in row)
                kinds[inside, want is None] += 1
                assert lat.coordinates(vecs) == want
                assert lat.contains_rows(vecs) == inside
            sub = Lattice.from_rows(ring, combos(basis, rank, 0.0), n)
            if sub.rank == rank:
                det = Matrix(ring, solve(field, basis, sub.basis.rows),
                             rank).det()
                assert lattice_index(sub, lat) == ring.canonical(
                    det.integral_value())
                if sub != lat:
                    with pytest.raises(NotSublattice):
                        lattice_index(lat, sub)
        # every case was met: inside, in the span only, outside the span
        assert set(kinds) == {(True, False), (False, False), (False, True)}

    def test_dual_inverse_transpose(self):
        lat = Lattice.from_rows(ZZ, [[2, 1], [0, 3]], 2)
        dual = lat.dual()
        for x in lat.basis.rows:
            for y in dual.basis.rows:
                dot = sum(a * b for a, b in zip(x, y))
                assert dot.is_integral()


class TestCharpoly:
    def test_companion(self):
        m = Matrix(ZZ, [[0, 1], [1, 0]], 2)
        cp = charpoly(FractionField(ZZ), m.rows)
        assert [str(c) for c in cp] == ["-1", "0", "1"]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(small_int, min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_det_and_trace_coefficients(self, rows):
        m = Matrix(ZZ, rows, 3)
        cp = charpoly(FractionField(ZZ), m.rows)
        # constant term = (-1)^n det; next-to-top coefficient = -trace
        assert cp[0] == -m.det()
        assert cp[2] == -sum(m.rows[i][i] for i in range(3))
        assert str(cp[3]) == "1"

    @pytest.mark.parametrize("ring", [ZZ, F3T], ids=repr)
    def test_det_matches_leibniz_sum(self, ring):
        """det, read off the charpoly, is the signed sum over permutations
        of products of entries: seeded matrices of sizes 1 to 5 with
        fractional entries, a third of them with two proportional rows."""
        rng = random.Random(41)

        def frac():
            den = small_element(ring, rng)
            return Frac(ring, small_element(ring, rng),
                        ring.one if ring.is_zero(den) else den)

        zero = frac0(ring)
        singular = 0
        for n in range(1, 6):
            for k in range(6):
                rows = [[frac() for _ in range(n)] for _ in range(n)]
                if n > 1 and k % 3 == 0:
                    c = frac()
                    rows[-1] = [c * x for x in rows[0]]
                want = zero
                for perm in itertools.permutations(range(n)):
                    term = Frac.of(ring, (-1) ** sum(
                        perm[i] > perm[j] for i in range(n)
                        for j in range(i + 1, n)))
                    for i, j in enumerate(perm):
                        term = term * rows[i][j]
                    want = want + term
                singular += want.is_zero()
                assert Matrix(ring, rows, n).det() == want
        assert singular >= 8
