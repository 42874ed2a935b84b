"""Exact linear algebra over the ground ring and its fraction field.

Echelon form, quotient spaces, kernels, solving, relations among powers
and the Hessenberg characteristic polynomial are written once, over a
field interface with two instances: Frac(R) and a prime field F_q.  A
residue field R/p of F_q[t] is worked in over F_q, on coordinates
t^e·b_i: the echelon rows of an R/p-subspace are its F_q echelon rows
with a t⁰ pivot (see orders._basis_over_p).  Matrices carry fraction
entries.  Over R there is one elimination, ``hermite`` on rows of ring
elements: Smith forms alternate Hermite forms of rows and columns, and a
lattice is one Hermite form h over R and one denominator d, so that
lattice equality is representation equality; coordinates are read by
back-substitution.
"""

import functools
import itertools

from .errors import InputNotIntegral, NotSublattice, RankDeficient
from .rings import Frac, frac0, frac1


# ---------------------------------------------------------------------------
# one linear-algebra kernel for every field
#
# A matrix is a list of rows and x * M is the row vector x times M.  A field
# supplies its scalars and the two row operations the kernel needs, so F_p
# stays on plain ints with no wrapper object per element.


class FractionField:
    """Frac(R) on Frac elements: Q over Z, F_p(t) over F_p[t]."""

    def __init__(self, ring):
        self.ring, self.zero, self.one = ring, frac0(ring), frac1(ring)

    def row(self, xs):
        ring = self.ring
        return [x if type(x) is Frac else Frac.of(ring, x) for x in xs]

    def inv(self, x):
        return x.inverse()

    def scale(self, row, c):
        return [x * c for x in row]

    def sub_mul(self, row, c, piv):
        """row - c * piv."""
        return [a - c * b if b else a for a, b in zip(row, piv)]


class PrimeField:
    """F_p on plain ints in [0, p)."""

    zero, one = 0, 1

    def __init__(self, p):
        self.p = p

    def row(self, xs):
        p = self.p
        return [x % p for x in xs]

    def inv(self, x):
        return pow(x, self.p - 2, self.p)

    def scale(self, row, c):
        p = self.p
        return [x * c % p for x in row]

    def sub_mul(self, row, c, piv):
        p = self.p
        return [(a - c * b) % p for a, b in zip(row, piv)]


def rref(F, rows):
    """Reduced row echelon form over F: (nonzero rows, pivot columns)."""
    m = [F.row(row) for row in rows]
    pivots = []
    for j in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        i = next((i for i in range(r, len(m)) if m[i][j]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        piv = m[r] = F.scale(m[r], F.inv(m[r][j]))
        for i in range(len(m)):
            if i != r and m[i][j]:
                m[i] = F.sub_mul(m[i], m[i][j], piv)
        pivots.append(j)
    return m[:len(pivots)], pivots


def quotient_space(F, rows, ncols):
    """F^ncols modulo the span of rows: (project, lift, dim).

    Quotient coordinates sit on the non-pivot columns of rref(rows);
    project reduces a vector against the echelon rows and reads them off,
    lift puts quotient coordinates back on those columns.
    """
    red, pivots = rref(F, rows)
    free = [c for c in range(ncols) if c not in pivots]

    def project(vec):
        v = F.row(vec)
        for row, c in zip(red, pivots):
            if v[c]:
                v = F.sub_mul(v, v[c], row)
        return [v[c] for c in free]

    def lift(qvec):
        out = [F.zero] * ncols
        for c, x in zip(free, qvec):
            out[c] = x
        return F.row(out)

    return project, lift, len(free)


def kernel(F, rows):
    """Basis of {x : x * M = 0} for the matrix M with these rows."""
    red, pivots = rref(F, [list(col) for col in zip(*rows)])
    out = []
    for f in range(len(rows)):
        if f not in pivots:
            v = [F.zero] * len(rows)
            v[f] = F.one
            for row, c in zip(red, pivots):
                v[c] = -row[f]
            out.append(F.row(v))
    return out


def solve(F, rows, vecs):
    """Rows x with x * M = v for each v in vecs (M has these rows), or None
    when some v is outside the row space; unknowns left free are 0."""
    m = len(rows)
    red, pivots = rref(F, [list(col) for col in zip(*rows, *vecs)])
    if pivots and pivots[-1] >= m:
        return None
    out = [[F.zero] * m for _ in vecs]
    for row, c in zip(red, pivots):
        for x, value in zip(out, row[m:]):
            x[c] = value
    return out


def power_relation(F, one, times_a):
    """The monic relation of least degree among one, one·a, one·a^2, ...,
    where times_a(v) is v·a: coefficients c, lowest degree first, with
    Σ c_k·(one·a^k) = 0 and c[-1] = 1.  For one the unit, that is the
    minimal polynomial of a.

    One echelon pass: one·a^k is reduced against the echelon rows of the
    lower powers, each row carrying the combination of powers it stands
    for.  Every row has zeros on the pivots of the rows before it, so one
    sweep in order clears all pivots; a power reducing to 0 gives the
    relation.  Some power does by k = len(one), as len(one) + 1 vectors
    are dependent.
    """
    echelon = []  # (pivot, row, combination of powers)
    power = one
    for k in range(len(one) + 1):
        v = power
        comb = [F.one if i == k else F.zero for i in range(len(one) + 1)]
        for piv, row, rcomb in echelon:
            c = v[piv]
            if c:
                v = F.sub_mul(v, c, row)
                comb = F.sub_mul(comb, c, rcomb)
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return comb[:k + 1]
        inv = F.inv(v[piv])
        echelon.append((piv, F.scale(v, inv), F.scale(comb, inv)))
        power = times_a(power)


def charpoly(F, mat):
    """Coefficients of det(xI - mat), lowest degree first, monic: similarity
    reduction to upper Hessenberg form, then the recurrence on leading
    principal characteristic polynomials."""
    n = len(mat)
    h = [F.row(row) for row in mat]
    for j in range(n - 2):
        p = next((i for i in range(j + 1, n) if h[i][j]), None)
        if p is None:
            continue
        if p != j + 1:
            h[j + 1], h[p] = h[p], h[j + 1]
            for row in h:
                row[j + 1], row[p] = row[p], row[j + 1]
        # the row operations that clear column j below row j + 1 commute:
        # apply them all, then their inverses as column operations, which
        # all land on column j + 1
        inv = F.inv(h[j + 1][j])
        ts = [(i, h[i][j] * inv) for i in range(j + 2, n) if h[i][j]]
        for i, t in ts:
            h[i] = F.sub_mul(h[i], t, h[j + 1])
        if ts:
            col = [row[j + 1] for row in h]
            for i, t in ts:
                col = F.sub_mul(col, -t, [row[i] for row in h])
            for row, x in zip(h, col):
                row[j + 1] = x
    polys = [[F.one]]
    for m in range(1, n + 1):
        prev = polys[-1]
        cur = F.sub_mul([F.zero] + prev, h[m - 1][m - 1], prev + [F.zero])
        run = F.one
        for i in range(m - 1, 0, -1):
            run = run * h[i][i - 1]
            if not run:
                break
            coef = h[i - 1][m - 1] * run
            if coef:
                cur[:i] = F.sub_mul(cur[:i], coef, polys[i - 1])
        polys.append(cur)
    return polys[n]


class Matrix:
    """A dense rectangular matrix with Frac entries."""

    __slots__ = ("ring", "rows", "ncols")

    def __init__(self, ring, rows, ncols=None):
        self.ring = ring
        self.rows = [[x if type(x) is Frac else Frac.of(ring, x) for x in row]
                     for row in rows]
        if self.rows:
            self.ncols = len(self.rows[0])
            for row in self.rows:
                if len(row) != self.ncols:
                    raise ValueError("ragged matrix")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs explicit ncols")
            self.ncols = ncols

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _of(cls, ring, rows, ncols):
        """A matrix on rows of Frac entries of equal length, kept as given."""
        m = cls.__new__(cls)
        m.ring, m.rows, m.ncols = ring, rows, ncols
        return m

    @classmethod
    def identity(cls, ring, n):
        one, zero = frac1(ring), frac0(ring)
        return cls._of(ring, [[one if i == j else zero for j in range(n)]
                              for i in range(n)], n)

    @property
    def nrows(self):
        return len(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        return Matrix._of(
            self.ring,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.ncols,
        )

    def scaled(self, c):
        c = Frac.of(self.ring, c)
        return Matrix._of(self.ring, [[a * c for a in row] for row in self.rows],
                          self.ncols)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("matrix shape mismatch")
        zero, out = frac0(self.ring), []
        for row in self.rows:
            acc = [zero] * other.ncols
            for a, brow in zip(row, other.rows):
                if a.num:  # a Frac is zero exactly when its numerator is
                    for j, b in enumerate(brow):
                        if b.num:
                            acc[j] = acc[j] + a * b
            out.append(acc)
        return Matrix._of(self.ring, out, other.ncols)

    def transpose(self):
        if not self.rows:
            return Matrix._of(self.ring, [[] for _ in range(self.ncols)], 0)
        return Matrix._of(self.ring, [list(col) for col in zip(*self.rows)],
                          self.nrows)

    def submatrix(self, row_idx, col_idx):
        return Matrix._of(
            self.ring,
            [[self.rows[i][j] for j in col_idx] for i in row_idx],
            len(col_idx),
        )

    # -- integrality ----------------------------------------------------------

    def to_ring_rows(self):
        """The entries as ring elements; the matrix must be integral."""
        if not all(x.is_integral() for row in self.rows for x in row):
            raise InputNotIntegral("matrix has a non-integral entry")
        return [[x.num for x in row] for row in self.rows]

    def denominator_lcm(self):
        """Canonical lcm of all entry denominators."""
        r = self.ring
        d = r.one
        for den in {x.den for row in self.rows for x in row}:
            d = r.mul(d, r.exact_div(den, r.gcd(d, den)))
        return d

    def cleared(self):
        """(rows, d): the entries are rows/d, with rows over the ground ring
        and d the denominator_lcm."""
        r = self.ring
        d = self.denominator_lcm()
        if d == r.one:
            return [[x.num for x in row] for row in self.rows], d
        return [[r.mul(x.num, r.exact_div(d, x.den)) for x in row]
                for row in self.rows], d

    # -- Gaussian machinery over the fraction field ---------------------------

    def rank(self):
        return len(rref(FractionField(self.ring), self.rows)[1])

    def det(self):
        """(-1)^n times the constant term of the characteristic polynomial."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of non-square matrix")
        c = charpoly(FractionField(self.ring), self.rows)[0]
        return -c if self.nrows % 2 else c

    def inverse(self):
        x = solve(FractionField(self.ring), self.rows,
                  Matrix.identity(self.ring, self.ncols).rows)
        if x is None or self.nrows != self.ncols:
            raise ValueError("matrix is singular or not square")
        return Matrix._of(self.ring, x, self.ncols)


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms (row style, over the ground ring)


def _combine_rows(ring, mats, i, k, x, y, z, w):
    """(row_i, row_k) <- (x*row_i + y*row_k, z*row_i + w*row_k) in mats."""
    add, mul = ring.add, ring.mul
    for mat in mats:
        ri, rk = mat[i], mat[k]
        mat[i] = [add(mul(x, a), mul(y, b)) for a, b in zip(ri, rk)]
        mat[k] = [add(mul(z, a), mul(w, b)) for a, b in zip(ri, rk)]


def _frac_rows(ring, rows, ncols):
    return Matrix._of(ring, [[Frac(ring, x) for x in row] for row in rows],
                      ncols)


def _identity_rows(ring, n):
    return [[ring.one if i == j else ring.zero for j in range(n)]
            for i in range(n)]


def hermite(ring, rows, ncols, transform=False):
    """Row Hermite normal form over R of the matrix with these rows, of
    ring elements: (h, u) with u unimodular and h = u·rows, zero rows
    last; u is None when transform is False.

    Pivots are unit-normalized (positive / monic) and the entries above
    each pivot are reduced, so the output is canonical for the row space.
    """
    a = [list(row) for row in rows]
    nr = len(a)
    u = _identity_rows(ring, nr) if transform else None
    mats = (a, u) if transform else (a,)

    r = 0
    for j in range(ncols):
        pivot = next((i for i in range(r, nr) if a[i][j]), None)
        if pivot is None:
            continue
        if pivot != r:
            for mat in mats:
                mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(r + 1, nr):
            if not a[i][j]:
                continue
            g, x, y = ring.xgcd(a[r][j], a[i][j])
            _combine_rows(ring, mats, r, i, x, y,
                          ring.neg(ring.exact_div(a[i][j], g)),
                          ring.exact_div(a[r][j], g))
        unit, _ = ring.unit_normalize(a[r][j])
        if unit != ring.one:
            inv = ring.unit_inverse(unit)
            for mat in mats:
                mat[r] = [ring.mul(inv, c) for c in mat[r]]
        for i in range(r):
            if a[i][j]:
                q, _ = ring.divmod(a[i][j], a[r][j])
                if q:
                    nq = ring.neg(q)
                    for mat in mats:
                        mat[i] = [ring.add(c, ring.mul(nq, d))
                                  for c, d in zip(mat[i], mat[r])]
        r += 1
        if r == nr:
            break
    return a, u


def hnf(m, transform=True):
    """hermite on a Matrix over R: (h, u) as Matrices, u None when
    transform is False."""
    h, u = hermite(m.ring, m.to_ring_rows(), m.ncols, transform)
    return (_frac_rows(m.ring, h, m.ncols),
            _frac_rows(m.ring, u, m.nrows) if transform else None)


def solve_echelon(ring, basis, rows):
    """X over R with X·basis = rows, for basis rows over R in row echelon
    form, by back-substitution: one division by each pivot, which must be
    exact, after which every column must be clear; None when some row is
    no R-combination of the basis rows."""
    sub, mul, one = ring.sub, ring.mul, ring.one
    terms = [[(k, c) for k, c in enumerate(b) if c] for b in basis]
    out = []
    for v in rows:
        v, x = list(v), []
        for ts in terms:
            j, c = ts[0]
            xa, r = (v[j], None) if c == one else ring.divmod(v[j], c)
            if r:
                return None
            x.append(xa)
            if xa:
                for k, y in ts:
                    v[k] = sub(v[k], mul(xa, y))
        if any(v):
            return None
        out.append(x)
    return out


def matmul(ring, a, b):
    """a·b for matrices over R given by their rows, over the nonzero
    entries only."""
    add, mul = ring.add, ring.mul
    terms = [[(k, y) for k, y in enumerate(row) if y] for row in b]
    out = [[ring.zero] * len(b[0]) for _ in a]
    for row, acc in zip(a, out):
        for c, ts in zip(row, terms):
            if c:
                for k, y in ts:
                    acc[k] = add(acc[k], mul(c, y))
    return out


def _is_diagonal(a):
    return not any(x for i, row in enumerate(a)
                   for j, x in enumerate(row) if i != j)


def snf(m, transform=True):
    """Smith normal form: (s, v) with s diagonal, d_i | d_(i+1), the d_i
    unit-normalized, and v unimodular with u·m·v = s for some unimodular
    u; v is None when transform is False.

    Hermite forms of the rows and of the columns alternate until the
    matrix is diagonal, as each round either replaces the corner entry by
    a proper divisor or clears its row and column (Kannan & Bachem, SIAM
    J. Comput. 8, 1979; Cohen, GTM 138, §2.4).  Then gcd/lcm steps on
    pairs of diagonal entries make the chain."""
    ring, nr, nc = m.ring, m.nrows, m.ncols
    w = _identity_rows(ring, nc) if transform else None  # v transposed
    a = hermite(ring, m.to_ring_rows(), nc)[0]
    while not _is_diagonal(a):
        h, u = hermite(ring, list(zip(*a)), nr, transform)
        w = matmul(ring, u, w) if transform else None
        a = [list(col) for col in zip(*h)]
        if not _is_diagonal(a):
            a = hermite(ring, a, nc)[0]
    d = [a[k][k] for k in range(min(nr, nc))]
    for i, j in itertools.combinations(range(len(d)), 2):
        if not ring.divides(d[i], d[j]):
            g, x, y = ring.xgcd(d[i], d[j])
            ag, bg = ring.exact_div(d[i], g), ring.exact_div(d[j], g)
            d[i], d[j] = g, ring.mul(d[i], bg)
            a[i][i], a[j][j] = d[i], d[j]
            if transform:  # columns (v_i, v_j) times [[1, -y·b/g], [1, x·a/g]]
                c, e = ring.neg(ring.mul(y, bg)), ring.mul(x, ag)
                wi, wj = w[i], w[j]
                w[i] = [ring.add(p, q) for p, q in zip(wi, wj)]
                w[j] = [ring.add(ring.mul(c, p), ring.mul(e, q))
                        for p, q in zip(wi, wj)]
    return (_frac_rows(ring, a, nc),
            _frac_rows(ring, list(zip(*w)), nc) if transform else None)


# ---------------------------------------------------------------------------
# lattices


class Lattice:
    """A finitely generated R-lattice in K^n, kept as h/d: h over R in
    Hermite form with no zero rows, and d the least denominator, so that
    gcd(content(h), d) = 1.  Equal lattices have equal (h, d).  c is the
    product of h's pivots.  The rank r = len(h) <= n; rank 0 (the zero
    lattice) is allowed.
    """

    __slots__ = ("ring", "ambient_dim", "h", "d", "c", "_basis")

    def __init__(self, ring, ambient_dim, h, d):
        if d != ring.one:
            g = functools.reduce(ring.gcd, (x for row in h for x in row if x), d)
            if g != ring.one:
                h = [[ring.exact_div(x, g) for x in row] for row in h]
                d = ring.exact_div(d, g)
        self.ring, self.ambient_dim, self.h, self.d = ring, ambient_dim, h, d
        self.c = functools.reduce(ring.mul, [next(x for x in row if x)
                                             for row in h], ring.one)
        self._basis = None

    @classmethod
    def from_rows(cls, ring, rows, ambient_dim=None):
        """The lattice spanned by rows over Frac(R), or by a Matrix."""
        if not isinstance(rows, Matrix):
            rows = Matrix(ring, rows, ambient_dim)
        h, d = rows.cleared()
        h = hermite(ring, h, rows.ncols)[0]
        return cls(ring, rows.ncols, [row for row in h if any(row)], d)

    @classmethod
    def standard(cls, ring, n):
        return cls(ring, n, _identity_rows(ring, n), ring.one)

    @property
    def basis(self):
        """h/d as a Matrix over Frac(R), built when first read."""
        if self._basis is None:
            ring, d = self.ring, self.d
            self._basis = Matrix._of(ring, [[Frac(ring, x, d) for x in row]
                                            for row in self.h], self.ambient_dim)
        return self._basis

    @property
    def rank(self):
        return len(self.h)

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.ambient_dim == other.ambient_dim
            and self.d == other.d
            and self.h == other.h
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.d, tuple(map(tuple, self.h))))

    def coordinates(self, vecs):
        """Rows t with t * basis = v for each v in vecs, or None when some v
        is outside the rational span.  For basis = h/d and vecs = w/e over
        R, (c·e·t)·h = c·d·w is over R for c the product of h's pivots."""
        ring, h, c = self.ring, self.h, self.c
        w, e = Matrix(ring, vecs, self.ambient_dim).cleared()
        cd = ring.mul(c, self.d)
        x = solve_echelon(ring, h, [[ring.mul(cd, y) for y in r] for r in w])
        return None if x is None else [
            [Frac(ring, y, ring.mul(c, e)) for y in r] for r in x]

    def contains_vector(self, vec):
        return self.contains_rows([vec])

    def contains_lattice(self, other):
        return self._contains(other.h, other.d)

    def contains_rows(self, vecs):
        return self._contains(*Matrix(self.ring, vecs, self.ambient_dim).cleared())

    def _contains(self, w, e):
        """Whether each row of w/e, w over R, is in the lattice: whether
        y·h = d·w has a solution over R with e | y (y = e·t)."""
        ring = self.ring
        y = solve_echelon(ring, self.h, [[ring.mul(self.d, x) for x in r]
                                         for r in w])
        return y is not None and all(ring.divides(e, x) for r in y for x in r)

    def scaled(self, c):
        return Lattice.from_rows(self.ring, self.basis.scaled(c), self.ambient_dim)

    def dual(self):
        """For a full-rank square lattice: {y : y . x in R for all x}."""
        if self.rank != self.ambient_dim:
            raise RankDeficient("dual of a non-full-rank lattice")
        inv_t = self.basis.inverse().transpose()
        return Lattice.from_rows(self.ring, inv_t, self.ambient_dim)


def lattice_index(sub, sup):
    """Generalized index [sup : sub] as a canonical ring element: for sub ⊆
    sup of equal rank, both Hermite bases have the same pivot columns, and
    the index is the product of the ratios of their pivots,
    c_sub·d_sup^r / (c_sup·d_sub^r) for the bases h/d."""
    if sub.ambient_dim != sup.ambient_dim or sub.rank != sup.rank:
        raise NotSublattice("lattices are not commensurable")
    if not sup.contains_lattice(sub):
        raise NotSublattice("sub is not contained in sup")
    ring, r = sub.ring, sub.rank
    return ring.canonical(ring.exact_div(
        functools.reduce(ring.mul, [sup.d] * r, sub.c),
        functools.reduce(ring.mul, [sub.d] * r, sup.c)))
