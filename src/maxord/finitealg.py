"""Algebra structure over prime fields F_p.

Everything here works with plain ints reduced mod p, row-vector
convention as elsewhere in the package; the linear algebra is the shared
kernel of ``exactlin`` over ``PrimeField``.
"""

from .algebras import center_rows, is_commutative, nonzero
from .errors import InternalError
from .exactlin import (PrimeField, charpoly, kernel, matmul, power_relation,
                       quotient_space, rref, solve)
from .rings import ZZ, poly_ring


def charpoly_mod(mat, p):
    """Characteristic polynomial over F_p, lowest degree first, monic."""
    return charpoly(PrimeField(p), mat)


class FiniteAlgebra:
    """Associative unital algebra over F_p given by structure constants."""

    def __init__(self, p, table, one_coords):
        self.p = p
        self.field = PrimeField(p)
        self.dim = len(table)
        # table[i][j]: the nonzero (k, c_ijk) of b_i·b_j, sorted by k, with
        # c_ijk in [1, p)
        self.table = table
        self.one_coords = [c % p for c in one_coords]
        # trace(x) = sum_k x_k tau_k with tau_k = sum_t c_{k,t,t}
        self.trace_form = [sum(c for t, cell in enumerate(row)
                               for k, c in cell if k == t) % p
                           for row in table]

    def mul(self, x, y):
        p = self.p
        out = [0] * self.dim
        for xi, ti in zip(x, self.table):
            if not xi % p:
                continue
            for yj, terms in zip(y, ti):
                if not yj % p:
                    continue
                f = (xi * yj) % p
                for k, c in terms:
                    out[k] = (out[k] + f * c) % p
        return out

    def basis(self):
        out = []
        for i in range(self.dim):
            v = [0] * self.dim
            v[i] = 1
            out.append(v)
        return out

    # -- radical (characteristic-p safe) --------------------------------------

    def radical_basis(self):
        """Basis of the Jacobson radical, in rref.

        A commutative algebra (symmetric structure table) takes the
        Frobenius kernel, any other the charpoly tower.
        """
        if is_commutative(self.table):
            return self._frobenius_radical()
        return self._tower_radical()

    def _frobenius_radical(self):
        """Kernel of x -> x^q for q the least power of p that is >= dim.

        In a commutative algebra of characteristic p the radical is the set
        of nilpotents, x^dim = 0 for each of them, and x -> x^p is F_p-linear
        (Cohen, GTM 138, Alg. 6.1.8).
        """
        q = self.p
        while q < self.dim:
            q *= self.p
        images = [self._elt_pow(b, q) for b in self.basis()]
        return rref(self.field, kernel(self.field, images))[0]

    def _tower_radical(self):
        """The radical of any algebra, by a tower of subspaces.

        The tower is cut out by the characteristic-polynomial coefficient
        maps g_i(x) = [lambda^(n - p^i)] charpoly(L_x), which are F_p-linear
        on each successive subspace; the final subspace is the radical.  The
        first, g_0 = -trace, is read off the trace form; L_z has the rows
        z·b_k.
        """
        p, n, basis = self.p, self.dim, self.basis()
        current = basis  # rows spanning R_i
        power = 1  # p^i
        while current:
            # g_i(x*y) for x, y in current: x indexes rows, y columns, and
            # R_{i+1} is the kernel over the x-coefficients
            prods = [[self.mul(x, y) for y in current] for x in current]
            if power == 1:
                tau = self.trace_form
                cond = [[-sum(c * t for c, t in zip(z, tau)) % p for z in row]
                        for row in prods]
            else:
                cond = [[charpoly_mod([self.mul(z, b) for b in basis],
                                      p)[n - power] for z in row]
                        for row in prods]
            # rref reduces the product over Z mod p
            current = rref(self.field,
                           matmul(ZZ, kernel(self.field, cond), current))[0]
            if power * p > n:
                return current
            power *= p
        return []

    # -- quotients ------------------------------------------------------------

    def quotient(self, ideal_rows):
        """Quotient by a two-sided ideal.

        Returns (quotient_algebra, project, lift) where project maps parent
        coords to quotient coords and lift picks representatives.
        """
        project, lift, q = quotient_space(self.field, ideal_rows, self.dim)
        basis = [lift([int(t == a) for t in range(q)]) for a in range(q)]
        table = [[nonzero(project(self.mul(a, b))) for b in basis]
                 for a in basis]
        quot = FiniteAlgebra(self.p, table, project(self.one_coords))
        return quot, project, lift

    # -- center and simple factors --------------------------------------------

    def frobenius_fixed_center(self):
        """Basis of {z in center : z^p = z}, whose F_p-dimension equals the
        number of simple factors when the algebra is semisimple."""
        p = self.p
        zb = center_rows(self.field, self.table)
        if not zb:
            return []
        # matrix of z -> z^p - z on the center, in the zb coordinates
        diffs = [[(a - b) % p for a, b in zip(self._elt_pow(z, p), z)]
                 for z in zb]
        rows = solve(self.field, zb, diffs)
        if rows is None:
            raise InternalError("center is not closed under x -> x^p")
        return rref(self.field, matmul(ZZ, kernel(self.field, rows), zb))[0]

    def _elt_pow(self, z, e):
        acc = list(self.one_coords)
        base = z
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def primitive_central_idempotents(self):
        """Primitive central idempotents; requires the algebra semisimple."""
        p, n = self.p, self.dim
        if n == 0:
            return []
        fixed = self.frobenius_fixed_center()
        idems = [list(self.one_coords)]
        for z in fixed:
            refined = []
            for e in idems:
                w = self.mul(z, e)
                # the roots of the minimal relation among e, w, w^2, ...
                # are the eigenvalues of w on e·A, all in F_p
                rel = power_relation(self.field, e, lambda v: self.mul(v, w))
                roots = [-g[0] % p for g, _ in poly_ring(p).factor(tuple(rel))
                         if len(g) == 2]
                if len(roots) != len(rel) - 1:
                    raise InternalError(
                        "central element has eigenvalues outside F_p"
                    )
                for a in roots:
                    ea = list(e)
                    denom = 1
                    for b in roots:
                        if b == a:
                            continue
                        ea = self.mul(
                            ea, [(w[t] - b * e[t]) % p for t in range(n)]
                        )
                        denom = (denom * (a - b)) % p
                    ea = self.field.scale(ea, self.field.inv(denom))
                    if any(ea):
                        refined.append(ea)
            idems = refined
        # sanity: orthogonal idempotents summing to one
        total = [0] * n
        for e in idems:
            if self.mul(e, e) != e:
                raise InternalError("idempotent refinement failed")
            total = [(a + b) % p for a, b in zip(total, e)]
        if total != self.one_coords:
            raise InternalError("idempotents do not sum to 1")
        idems.sort()
        return idems
