import itertools
import json
import random

import pytest

from maxord import cli, finitealg
from maxord.exactlin import PrimeField, kernel, rref, solve
from maxord.finitealg import FiniteAlgebra, charpoly_mod
from maxord.orders import residue_algebra
from maxord.rings import ZZ, pmul, poly_ring
from ideal_oracle import all_two_sided_ideals
from tables import sparse
from test_certificates import equation_order

F5 = PrimeField(5)


def f_p_matrix_algebra(p, n):
    """Structure table of Mat_n(F_p) on the basis E_ab."""
    dim = n * n

    def idx(a, b):
        return a * n + b

    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if b == c:
                        table[idx(a, b)][idx(c, d)][idx(a, d)] = 1
    one = [0] * dim
    for a in range(n):
        one[idx(a, a)] = 1
    return FiniteAlgebra(p, sparse(table), one)


def f_p_group_algebra_c2(p):
    """F_p[C_2]: basis 1, g with g^2 = 1."""
    table = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    return FiniteAlgebra(p, sparse(table), [1, 0])


def dual_numbers(p):
    """F_p[x]/(x^2): basis 1, x."""
    table = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    return FiniteAlgebra(p, sparse(table), [1, 0])


def upper_triangular_2(p):
    """Upper triangular 2x2 matrices over F_p: basis e11, e12, e22."""
    table = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
    ]
    return FiniteAlgebra(p, sparse(table), [1, 0, 1])


class TestModLinearAlgebra:
    def test_rref_mod(self):
        red, piv = rref(F5, [[2, 4], [1, 3]])
        assert piv == [0, 1]
        assert red == [[1, 0], [0, 1]]

    def test_solve_mod(self):
        rows = [[1, 1], [0, 1]]
        sol = solve(F5, rows, [[3, 2]])[0]
        combo = [sum(sol[i] * rows[i][j] for i in range(2)) % 5
                 for j in range(2)]
        assert combo == [3, 2]
        assert solve(F5, [[1, 0]], [[0, 1]]) is None

    def test_kernel_mod(self):
        ker = kernel(PrimeField(3), [[1, 1], [1, 1]])
        assert len(ker) == 1
        x = ker[0]
        assert (x[0] + x[1]) % 3 == 0

    def test_charpoly_mod(self):
        cp = charpoly_mod([[0, 1], [1, 0]], 5)
        assert cp == [4, 0, 1]  # x^2 - 1 mod 5


class TestRadical:
    def test_semisimple_has_zero_radical(self):
        assert f_p_matrix_algebra(3, 2).radical_basis() == []
        assert f_p_group_algebra_c2(3).radical_basis() == []

    def test_dual_numbers(self):
        rad = dual_numbers(5).radical_basis()
        assert len(rad) == 1
        assert rad[0][0] == 0  # spanned by x

    def test_group_algebra_modular_case(self):
        # F_2[C_2] is local: radical spanned by 1 + g
        rad = f_p_group_algebra_c2(2).radical_basis()
        assert rad == [[1, 1]]

    def test_upper_triangular(self):
        rad = upper_triangular_2(7).radical_basis()
        assert len(rad) == 1  # spanned by e12
        assert rad[0][1] != 0 and rad[0][0] == 0 and rad[0][2] == 0

    def test_small_characteristic_tower(self):
        # F_2[x]/(x^4): radical is (x), dimension 3; needs the iterated
        # tower since p=2 < dim
        table = [[[0] * 4 for _ in range(4)] for _ in range(4)]
        for i in range(4):
            for j in range(4):
                if i + j < 4:
                    table[i][j][i + j] = 1
        a = FiniteAlgebra(2, sparse(table), [1, 0, 0, 0])
        assert len(a.radical_basis()) == 3


def simple_factor_count(a):
    """The number of simple factors of A/rad(A): its primitive central
    idempotents."""
    quot, _, _ = a.quotient(a.radical_basis())
    return len(quot.primitive_central_idempotents())


def poly_quotient_fp(p, f):
    """F_p[x]/(f) on the basis 1, x, ..., for f monic, lowest degree first."""
    n = len(f) - 1

    def reduce(c):
        c = list(c) + [0] * n
        for k in range(len(c) - 1, n - 1, -1):
            for m in range(n + 1):
                c[k - n + m] -= c[k] * f[m]
        return [x % p for x in c[:n]]

    table = [[reduce([0] * (i + j) + [1]) for j in range(n)]
             for i in range(n)]
    return FiniteAlgebra(p, sparse(table), [1] + [0] * (n - 1))


def random_monic(rng, p, deg):
    return tuple(rng.randrange(p) for _ in range(deg)) + (1,)


@pytest.fixture
def frobenius_calls(monkeypatch):
    """Counts the radicals that take the Frobenius-kernel path."""
    calls = []
    frobenius = FiniteAlgebra._frobenius_radical

    def counted(self):
        calls.append(self.dim)
        return frobenius(self)

    monkeypatch.setattr(FiniteAlgebra, "_frobenius_radical", counted)
    return calls


class TestFrobeniusRadical:
    def test_matches_brute_force_nilpotents(self, frobenius_calls):
        """F_p[x]/(g^2 h): the radical's span is exactly the set of
        nilpotent elements, found by enumerating all p^dim of them."""
        rng = random.Random(5)
        cases = 0
        for p, max_dim in ((2, 6), (3, 6), (5, 4)):
            for _ in range(4):
                g = random_monic(rng, p, rng.randint(1, max_dim // 2))
                h = random_monic(rng, p, rng.randint(
                    0, max_dim - 2 * (len(g) - 1)))
                f = pmul(pmul(g, g, p), h, p)
                a = poly_quotient_fp(p, f)
                n = a.dim
                nilpotent = set()
                for x in itertools.product(range(p), repeat=n):
                    power = list(x)
                    for _ in range(n - 1):
                        power = a.mul(power, x)
                    if not any(power):
                        nilpotent.add(x)
                rad = a.radical_basis()
                span = {tuple(sum(c * r[t] for c, r in zip(cs, rad)) % p
                              for t in range(n))
                        for cs in itertools.product(range(p),
                                                    repeat=len(rad))}
                assert span == nilpotent, (p, f)
                assert rad == rref(a.field, rad)[0]
                cases += 1
        assert len(frobenius_calls) == cases

    def test_residue_algebras_match_the_tower(self, frobenius_calls):
        """Residue algebras of seeded cubic and quartic orders over Z at
        p <= 7, and of F_p[t] orders at primes of degree 2."""
        rng = random.Random(11)
        residues = []
        for n in (3, 3, 4, 4):
            coeffs = [rng.randint(-9, 9) for _ in range(n)] + [1]
            # constant and linear terms that are multiples of 2·3·5·7, at
            # random, give x | f or x^2 | f mod each of those primes
            for k in (0, 1):
                if rng.random() < 0.5:
                    coeffs[k] *= 210
            order = equation_order(ZZ, coeffs)
            residues.extend(residue_algebra(order, p)[0] for p in (2, 3, 5, 7))
        for p, prime in ((2, (1, 1, 1)), (3, (1, 0, 1)), (5, (2, 0, 1))):
            ring = poly_ring(p)
            for n in (2, 3):
                # coefficients divisible by the prime, or not, at random
                coeffs = [ring.mul(prime, random_monic(rng, p, 1))
                          if rng.random() < 0.6 else random_monic(rng, p, 1)
                          for _ in range(n)] + [ring.one]
                order = equation_order(ring, coeffs)
                residues.append(residue_algebra(order, prime)[0])
        nonzero = 0
        for res in residues:
            rad = res.radical_basis()
            assert rad == res._tower_radical()
            nonzero += bool(rad)
        assert len(frobenius_calls) == len(residues)
        assert 0 < nonzero < len(residues)  # both kinds are reached

    def test_noncommutative_algebra_keeps_the_tower(self, frobenius_calls):
        assert len(upper_triangular_2(2).radical_basis()) == 1
        assert f_p_matrix_algebra(2, 2).radical_basis() == []
        assert not frobenius_calls


def run_maximal_order(tmp_path, monkeypatch, doc):
    """Calls of charpoly_mod while `maximal-order` runs in-process."""
    calls = []
    charpoly = finitealg.charpoly_mod

    def counted(mat, p):
        calls.append(p)
        return charpoly(mat, p)

    monkeypatch.setattr(finitealg, "charpoly_mod", counted)
    path = tmp_path / "order.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["maximal-order", str(path)] + doc.pop("flags", [])) == 0
    return calls


def test_commutative_orders_make_no_charpoly(tmp_path, monkeypatch, capsys):
    """The radicals of commutative residue algebras are Frobenius kernels:
    maximal-order on Z[x]/(x^8 - 3·2^8) and on the inseparable F_2[t]
    order of x^4 = t·(t^3+t+1)^4 computes no characteristic polynomial
    over F_p."""
    x8 = {"algebra": {"poly_quotient": {"modulus": "x^8-768"}},
          "basis": [[str(int(i == j)) for j in range(8)] for i in range(8)]}
    assert run_maximal_order(tmp_path, monkeypatch, x8) == []
    f2t = {"algebra": {"ground": {"poly": {"p": 2, "var": "t"}},
                       "poly_quotient": {"modulus": "x^4+t^13+t^5+t"},
                       "trusted_semisimple": True},
           "basis": [[str(int(i == j)) for j in range(4)] for i in range(4)],
           "flags": ["--primes", "t,t^3+t+1"]}
    assert run_maximal_order(tmp_path, monkeypatch, f2t) == []
    # control: the Lipschitz order is not commutative
    lipschitz = {"algebra": {"quaternion": {"a": "-1", "b": "-1"}},
                 "basis": [[str(int(i == j)) for j in range(4)]
                           for i in range(4)]}
    assert run_maximal_order(tmp_path, monkeypatch, lipschitz)


class TestSemisimpleStructure:
    def test_simple_factor_counts(self):
        assert simple_factor_count(f_p_matrix_algebra(2, 2)) == 1
        assert simple_factor_count(f_p_group_algebra_c2(3)) == 2
        assert simple_factor_count(f_p_group_algebra_c2(2)) == 1
        assert simple_factor_count(upper_triangular_2(5)) == 2

    def test_field_extension_is_one_factor(self):
        # F_4 = F_2[x]/(x^2 + x + 1)
        table = [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]
        a = FiniteAlgebra(2, sparse(table), [1, 0])
        assert simple_factor_count(a) == 1
        assert a.radical_basis() == []

    def test_primitive_idempotents(self):
        a = f_p_group_algebra_c2(3)
        idems = a.primitive_central_idempotents()
        assert len(idems) == 2
        for e in idems:
            assert a.mul(e, e) == e
        total = [(x + y) % 3 for x, y in zip(*idems)]
        assert total == [1, 0]

    def test_quotient_round_trip(self):
        a = upper_triangular_2(5)
        rad = a.radical_basis()
        quot, project, lift = a.quotient(rad)
        assert quot.dim == 2
        for qb in quot.basis():
            assert project(lift(qb)) == qb


class TestIdeals:
    def test_matrix_algebra_is_simple(self):
        a = f_p_matrix_algebra(2, 2)
        ideals = all_two_sided_ideals(a)
        assert len(ideals) == 2  # zero and everything

    def test_product_has_four(self):
        a = f_p_group_algebra_c2(3)  # F_3 x F_3
        assert len(all_two_sided_ideals(a)) == 4

    def test_dual_numbers_chain(self):
        a = dual_numbers(3)
        assert len(all_two_sided_ideals(a)) == 3  # 0, (x), all
