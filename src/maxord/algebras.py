"""Finite-dimensional algebras over the fraction field, presented by
structure constants, and R-orders in them with their discriminants; the
p-steps on orders are in maxord.orders.

Coordinates are row vectors; for an element a, ``coords(a*x) =
coords(x) * Lmat(a)``.
"""

import functools
import operator
import random

from .errors import (
    AlgebraMismatch,
    BadIdempotents,
    InternalError,
    NeedsSuppliedIdempotents,
    NotFullRank,
    NotIntegral,
    NotSemisimple,
)
from .exactlin import (FractionField, Matrix, kernel, matmul, power_relation,
                       rref, solve_echelon)
from .rings import Frac, frac0, frac1


class Algebra:
    """A finite-dimensional unital associative algebra over Frac(R)."""

    def __init__(self, ring, table, one_coords, trusted_semisimple=False,
                 validate=True):
        self.ring = ring
        self.dim = len(table)
        # table[i][j]: the nonzero (k, c_ijk) of b_i·b_j, sorted by k
        self.table = [[[(k, Frac.of(ring, c)) for k, c in cell] for cell in row]
                      for row in table]
        self.one_coords = [Frac.of(ring, c) for c in one_coords]
        self.trusted_semisimple = trusted_semisimple
        self.field = FractionField(ring)
        if self.dim < 1:
            raise ValueError("algebra must have dim >= 1")
        if validate:
            self._validate()

    # -- internals ------------------------------------------------------------

    def _validate(self):
        """The unit is two-sided, and (b_i·b_j)·b_k = b_i·(b_j·b_k), with
        b_i·b_j read from the table."""
        n, mul = self.dim, self.mul_coords
        basis = [b.coords for b in self.basis()]
        for b in basis:
            if mul(self.one_coords, b) != b or mul(b, self.one_coords) != b:
                raise ValueError("declared unit is not a two-sided identity")
        t = [[mul(x, y) for y in basis] for x in basis]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if mul(t[i][j], basis[k]) != mul(basis[i], t[j][k]):
                        raise ValueError(
                            "structure constants are not associative at "
                            "(%d, %d, %d)" % (i, j, k)
                        )

    # -- elements -------------------------------------------------------------

    def element(self, coords):
        return AlgebraElement(self, coords)

    def zero(self):
        return self.element([frac0(self.ring)] * self.dim)

    def one(self):
        return self.element(self.one_coords)

    def basis_element(self, i):
        coords = [frac0(self.ring)] * self.dim
        coords[i] = frac1(self.ring)
        return self.element(coords)

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def mul_coords(self, x, y):
        out = [frac0(self.ring)] * self.dim
        # a Frac is zero exactly when its numerator is falsy
        ys = [(j, yj) for j, yj in enumerate(y) if yj.num]
        for xi, ti in zip(x, self.table):
            if not xi.num:
                continue
            for j, yj in ys:
                terms = ti[j]
                if terms:
                    f = xi * yj
                    for k, c in terms:
                        out[k] = out[k] + f * c
        return out

    # -- representations ------------------------------------------------------

    def min_poly(self, a):
        """Monic minimal polynomial coefficients, lowest degree first."""
        return power_relation(self.field, self.one_coords,
                              lambda v: self.mul_coords(v, a.coords))

    def eval_poly(self, coeffs, a):
        """Evaluate a polynomial (lowest degree first) at element a."""
        acc = self.zero()
        power = self.one()
        for c in coeffs:
            c = Frac.of(self.ring, c)
            if c:
                acc = acc + power.scaled(c)
            power = power * a
        return acc

    # -- structure ------------------------------------------------------------

    def center(self):
        """Basis of the center, as a list of elements (rref-canonical)."""
        if is_commutative(self.table):
            return self.basis()
        return [self.element(row) for row in
                rref(self.field, center_rows(self.field, self.table))[0]]

    def check_idempotent_system(self, idems):
        one = self.one()
        acc = self.zero()
        for i, e in enumerate(idems):
            if e.algebra is not self:
                raise AlgebraMismatch("idempotent from a different algebra")
            for b in self.basis():
                if (e * b).coords != (b * e).coords:
                    raise BadIdempotents("idempotent %d is not central" % i)
            for j, f in enumerate(idems):
                prod = e * f
                want = e if i == j else self.zero()
                if prod.coords != want.coords:
                    raise BadIdempotents(
                        "idempotents %d, %d are not orthogonal idempotents" % (i, j)
                    )
            acc = acc + e
        if acc.coords != one.coords:
            raise BadIdempotents("idempotents do not sum to 1")

    def central_idempotents(self, seed=0):
        """Complete set of primitive central idempotents (characteristic 0).

        A central z whose minimal polynomial f has degree dim Z(A)
        generates Z(A) ≅ Q[x]/(f).  For f = f_1···f_r over Q, y =
        (f/f_i)(z) is 0 in the other factors of Z(A) and a unit in the
        i-th, so its minimal polynomial is x·h(x) with h(0) ≠ 0, and e_i =
        1 - h(y)/h(0).  The coefficients of z are drawn from a range that
        widens with the attempt: k idempotent basis vectors need k values.
        """
        if self.ring.characteristic != 0:
            raise NeedsSuppliedIdempotents(
                "central idempotents must be supplied in characteristic p"
            )
        from .decompose import rational_factors
        zbasis = self.center()
        dim_z = len(zbasis)
        if dim_z == 1:
            return [self.one()]
        rng = random.Random(seed)
        for attempt in range(64):
            bound = 2 + attempt * dim_z
            z = self.zero()
            for zb in zbasis:
                z = z + zb.scaled(Frac.of(self.ring,
                                          rng.randint(-bound, bound)))
            mp = self.min_poly(z)
            if len(mp) - 1 < dim_z:
                continue
            factors = rational_factors(mp)
            if factors is None:
                raise NotSemisimple(
                    "center has a non-squarefree minimal polynomial"
                )
            if len(factors) == 1:
                return [self.one()]  # the center Q[z] is a field
            values = [self.eval_poly(f_i, z) for f_i in factors]
            idems = []
            for i in range(len(factors)):
                y = functools.reduce(operator.mul, values[:i] + values[i + 1:])
                h = self.min_poly(y)[1:]
                idems.append(self.one() - self.eval_poly(h, y).scaled(
                    h[0].inverse()))
            self.check_idempotent_system(idems)
            idems.sort(key=lambda e: [str(c) for c in e.coords])
            return idems
        raise InternalError("failed to find a primitive center element")


def nonzero(vec):
    """The cell of a structure table for the coordinate vector vec: its
    nonzero (k, c_k), sorted by k.  Two cells are equal exactly when their
    vectors are, which is_commutative relies on."""
    return [(k, c) for k, c in enumerate(vec) if c]


def is_commutative(table):
    """Whether the structure table is symmetric: b_i·b_j = b_j·b_i."""
    return all(table[i][j] == table[j][i]
               for i in range(len(table)) for j in range(i))


def center_rows(field, table):
    """Independent rows spanning the center of the algebra with this
    structure table over field.

    Z_j, the centralizer of b_0, ..., b_(j-1), shrinks one generator at a
    time: Z_(j+1) is the kernel of x ↦ x·b_j − b_j·x on Z_j, read from the
    nonzero constants, and Z_n = Z(A).  Z(A) ⊆ Z_j for every j, and 1 ∈
    Z(A), so the loop stops at the first Z_j of dimension 1: then Z_j =
    K·1 = Z(A).  For Mat_n that is Z_n after e_11, ..., e_1n.
    """
    n = len(table)
    rows = [field.row([int(a == b) for b in range(n)]) for a in range(n)]

    def bracket(z, j):  # z·b_j − b_j·z
        out = [field.zero] * n
        for l, x in enumerate(z):
            if x:
                for k, c in table[l][j]:
                    out[k] = out[k] + x * c
                for k, c in table[j][l]:
                    out[k] = out[k] - x * c
        return field.row(out)

    def combine(ys, zs):  # Σ_r ys[r]·zs[r]
        out = [field.zero] * n
        for y, z in zip(ys, zs):
            if y:
                out = field.sub_mul(out, -y, z)
        return out

    for j in range(n):
        if len(rows) == 1:
            break
        brackets = [bracket(z, j) for z in rows]
        if any(map(any, brackets)):
            rows = [combine(ys, rows) for ys in kernel(field, brackets)]
    return rows


class AlgebraElement:
    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        ring = algebra.ring
        self.coords = [c if type(c) is Frac else Frac.of(ring, c)
                       for c in coords]
        if len(self.coords) != algebra.dim:
            raise ValueError("coordinate length mismatch")

    def _check(self, other):
        if not isinstance(other, AlgebraElement):
            raise TypeError("expected an algebra element")
        if other.algebra is not self.algebra:
            raise AlgebraMismatch("elements live in different algebras")

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(
            self.algebra, [a + b for a, b in zip(self.coords, other.coords)]
        )

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(
            self.algebra, [a - b for a, b in zip(self.coords, other.coords)]
        )

    def __neg__(self):
        return AlgebraElement(self.algebra, [-a for a in self.coords])

    def scaled(self, c):
        c = Frac.of(self.algebra.ring, c)
        return AlgebraElement(self.algebra, [a * c for a in self.coords])

    def __mul__(self, other):
        self._check(other)
        return AlgebraElement(
            self.algebra, self.algebra.mul_coords(self.coords, other.coords)
        )

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and other.algebra is self.algebra
            and other.coords == self.coords
        )

    def __repr__(self):
        return "[%s]" % ", ".join(map(str, self.coords))


# ---------------------------------------------------------------------------
# constructors
#
# Each builds a table that is associative with unit 1 for every input
# (K[x]/(f), (a, b | K), matrices, products), so none runs
# Algebra._validate; that check is for tables given in full form.


def scalar_algebra(ring):
    """K itself, the one 1-dimensional algebra."""
    return Algebra(ring, [[[(0, 1)]]], [1], trusted_semisimple=True,
                   validate=False)


def matrix_algebra(ring, n):
    """Mat_n(K), with basis e_11, e_12, ..., e_nn (row-major)."""
    return matrix_over_algebra(scalar_algebra(ring), n)


def poly_quotient_algebra(ring, modulus, trusted_semisimple=False):
    """K[x]/(modulus); modulus is a monic coefficient list, lowest first."""
    modulus = [Frac.of(ring, c) for c in modulus]
    n = len(modulus) - 1
    if n < 1 or modulus[-1] != frac1(ring):
        raise ValueError("modulus must be monic of degree >= 1")
    zero, one = frac0(ring), frac1(ring)
    red = [[-c for c in modulus[:n]]]  # x^n coords
    for _ in range(n - 1):
        prev = red[-1]
        shifted = [zero] + prev[:-1]
        top = prev[-1]
        if top:
            shifted = [s - top * m for s, m in zip(shifted, modulus[:n])]
        red.append(shifted)
    # the cell of x^k, shared by every b_i·b_j with i + j = k
    xpow = [[(k, one)] for k in range(n)] + [nonzero(r) for r in red]
    table = [[xpow[i + j] for j in range(n)] for i in range(n)]
    one_coords = [one] + [zero] * (n - 1)
    return Algebra(ring, table, one_coords,
                   trusted_semisimple=trusted_semisimple, validate=False)


def quaternion_algebra(ring, a, b, trusted_semisimple=False):
    """The quaternion algebra (a, b | K): i^2 = a, j^2 = b, ij = -ji = k."""
    a = Frac.of(ring, a)
    b = Frac.of(ring, b)
    zero, one = frac0(ring), frac1(ring)

    def term(k, c):  # the cell c·b_k
        return [(k, c)] if c else []

    table = [
        [[(0, one)], [(1, one)], [(2, one)], [(3, one)]],
        [[(1, one)], term(0, a), [(3, one)], term(2, a)],
        [[(2, one)], [(3, -one)], term(0, b), term(1, -b)],
        [[(3, one)], term(2, -a), term(1, b), term(0, -a * b)],
    ]
    return Algebra(ring, table, [one, zero, zero, zero],
                   trusted_semisimple=trusted_semisimple, validate=False)


def matrix_over_algebra(inner, n):
    """Mat_n(D) for an algebra D, basis E_ab (x) d_c, row-major blocks.
    The only nonzero products are (E_ab (x) d_c)·(E_bf (x) d_g) =
    E_af (x) d_c·d_g, the cell of d_c·d_g offset to the block of E_af."""
    ring, m = inner.ring, inner.dim
    one_coords = [frac0(ring)] * (n * n * m)
    for a in range(n):
        one_coords[(a * n + a) * m:(a * n + a + 1) * m] = inner.one_coords
    table = [[[((a * n + f) * m + k, x) for k, x in inner.table[c][g]]
              if b == b2 else [] for b2 in range(n) for f in range(n)
              for g in range(m)]
             for a in range(n) for b in range(n) for c in range(m)]
    return Algebra(ring, table, one_coords,
                   trusted_semisimple=inner.trusted_semisimple, validate=False)


def product_algebra(algebras):
    """Direct product of algebras over a common ground ring."""
    ring = algebras[0].ring
    dim = sum(a.dim for a in algebras)
    table = [[[] for _ in range(dim)] for _ in range(dim)]
    one_coords, o = [], 0
    for alg in algebras:
        one_coords += alg.one_coords
        for i, row in enumerate(alg.table):
            for j, cell in enumerate(row):
                table[o + i][o + j] = [(o + k, c) for k, c in cell]
        o += alg.dim
    return Algebra(ring, table, one_coords, trusted_semisimple=all(
        a.trusted_semisimple for a in algebras), validate=False)


# ---------------------------------------------------------------------------
# orders


class Order:
    """An R-order: a full-rank multiplicatively closed lattice containing 1."""

    def __init__(self, algebra, lattice, validate=True):
        self.algebra = algebra
        self.lattice = lattice
        self.dim = algebra.dim
        if lattice.ambient_dim != self.dim or lattice.rank != self.dim:
            raise NotFullRank("order basis must be square of full rank")
        self._struct = None
        self._unit = None
        self._disc = None
        self._steps, self._mod_p2 = {}, {}  # per prime p, for maxord.orders
        if validate:
            self.structure_constants()
            if self.unit_coords() is None:
                raise NotIntegral("order does not contain 1")

    def unit_coords(self):
        """Order coordinates of 1 (ring elements), or None when 1 is not
        in the lattice."""
        if self._unit is None:
            self._unit = self.order_coords(self.algebra.one_coords)
        return self._unit

    def order_coords(self, ambient_coords):
        """Integral order-basis coordinates (ring elements), or None."""
        row = self.lattice.coordinates([ambient_coords])[0]
        return [x.num for x in row] if all(
            x.is_integral() for x in row) else None

    def structure_constants(self):
        """c[i][j] = order coords of b_i * b_j, as ring elements.

        For the basis h/d and the algebra's constants A/e, h and A over R,
        b_i·b_j = y_ij/(d²·e) with y_ij = Σ_kl h_ik·h_jl·A_kl, whose
        coordinates c_ij solve c_ij·(d·e·h) = y_ij: all n² products over R
        in one back-substitution.
        """
        if self._struct is None:
            ring, n, lat = self.algebra.ring, self.dim, self.lattice
            zero = frac0(ring)
            big_a, e = Matrix._of(ring, [  # rows (c_ijk)_jk, each cell a dict
                [c.get(k, zero) for c in map(dict, t) for k in range(n)]
                for t in self.algebra.table], n * n).cleared()
            ys = [y for left in matmul(ring, lat.h, big_a)  # rows Σ_k h_ik A_k
                  for y in matmul(ring, lat.h, [left[l * n:(l + 1) * n]
                                                for l in range(n)])]
            self._struct = closed_products(ring, lat.h, ys, ring.mul(lat.d, e),
                                           "order basis")
        return self._struct


def closed_products(ring, h, ys, den, what):
    """[[c_ij]] for c_ij·(den·h) = y_ij, the y_ij in row-major order and h
    in echelon form.  A basis is closed under multiplication exactly when
    every c_ij is over R, that is when back-substitution over R succeeds;
    else NotIntegral names the first b_i·b_j, in row-major order, that
    escapes."""
    n, h = len(h), [[ring.mul(den, x) for x in row] for row in h]
    cs = solve_echelon(ring, h, ys)
    if cs is None:
        k = next(k for k, y in enumerate(ys)
                 if solve_echelon(ring, h, [y]) is None)
        raise NotIntegral("%s is not multiplicatively closed (b_%d * b_%d "
                          "escapes)" % ((what,) + divmod(k, n)))
    return [cs[i * n:(i + 1) * n] for i in range(n)]


def discriminant(order):
    """Gram determinant of the trace form on an order basis (ring element):
    G_ij = Tr(b_i·b_j) = Σ_k c_ijk·Tr(b_k), with Tr(b_k) = Σ_j c_kjj the
    trace of left multiplication in the order basis.  Computed once per
    order; a grown order reads it off its parent's (orders._grown_order)."""
    if order._disc is not None:
        return order._disc
    ring = order.algebra.ring
    struct = order.structure_constants()

    def total(xs):
        return functools.reduce(ring.add, xs, ring.zero)

    traces = [total(c[j] for j, c in enumerate(row)) for row in struct]
    gram = [[total(map(ring.mul, c, traces)) for c in row] for row in struct]
    order._disc = Matrix(ring, gram, order.dim).det().integral_value()
    return order._disc
