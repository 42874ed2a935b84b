"""Tensoring abelian-variety data by a finitely presented module over an
endomorphism order: isogeny-class multiplicities, period-lattice images,
minimal isogenies to a bigger order, and naturality checks.

Abelian varieties are modeled formally: an isogeny type (simple factors
with endomorphism algebras and multiplicities) plus optional period
lattices carrying an explicit order action.
"""

from .errors import (
    ActionMismatch,
    EmbeddingNotAlgebraMap,
    InternalError,
    NotAModuleMap,
    NotContained,
    NotIntegral,
)
from .exactlin import Lattice, Matrix, hnf, matmul, snf
from .algebras import matrix_over_algebra, product_algebra
from .rings import Frac, frac0


class IsogenyFactor:
    __slots__ = ("label", "dimB", "endo", "mult")

    def __init__(self, label, dimB, endo, mult):
        self.label = label
        self.dimB = dimB
        self.endo = endo  # Algebra over Q (the division algebra D_i)
        self.mult = mult

    def __repr__(self):
        return "%s^%d" % (self.label, self.mult)


class IsogenyType:
    def __init__(self, factors):
        self.factors = list(factors)
        labels = [f.label for f in self.factors]
        if len(set(labels)) != len(labels):
            raise ValueError("factor labels must be distinct")

    def total_dimension(self):
        return sum(f.mult * f.dimB for f in self.factors)

    def with_multiplicities(self, mults):
        return IsogenyType([
            IsogenyFactor(f.label, f.dimB, f.endo, m)
            for f, m in zip(self.factors, mults)
        ])

    def model_dim(self):
        """dim E for the model algebra E = ∏ Mat_n(D) of model()."""
        return sum(f.mult ** 2 * f.endo.dim for f in self.factors)

    def model(self):
        """(E, coordinate range of each factor's block) for E = ∏ Mat_n(D).

        Factors of multiplicity 0 contribute nothing; their range is empty.
        """
        live = [f for f in self.factors if f.mult > 0]
        if not live:
            raise ValueError("cannot build the model of the zero type")
        blocks = [matrix_over_algebra(f.endo, f.mult) for f in live]
        big = product_algebra(blocks) if len(blocks) > 1 else blocks[0]
        ranges, offset = [], 0
        for f in self.factors:
            size = f.mult ** 2 * f.endo.dim
            ranges.append(range(offset, offset + size))
            offset += size
        return big, ranges

    def __repr__(self):
        return "[" + " x ".join(repr(f) for f in self.factors) + "]"


class ModulePresentation:
    """coker(α: O^r → O^s) as a right O-module.

    Right-module maps are left multiplications: α sends the column vector
    x ∈ O^r to the column vector with entries (α·x)_u = Σ_t α[t][u]·x_t,
    so the image is R-spanned by the vectors (α[t][u]·b_a)_u.
    """

    def __init__(self, order, alpha, s=None):
        self.order = order
        self.alpha = alpha  # r x s nested list of AlgebraElements
        self.r = len(alpha)
        if alpha:
            self.s = len(alpha[0])
        elif s is None:
            raise ValueError("free presentation needs an explicit target rank")
        else:
            self.s = s
        for row in alpha:
            if len(row) != self.s:
                raise ValueError("ragged presentation matrix")
            for a in row:
                if order.order_coords(a.coords) is None:
                    raise NotIntegral("presentation entry outside the order")

    def image_rows(self, basis_rows):
        """Ambient coordinates of the relations α(b·e_t) in A^s: row (t, b)
        is (α[t][u]·b)_u, for b running over basis_rows."""
        mul = self.order.algebra.mul_coords
        return [[x for u in range(self.s)
                 for x in mul(self.alpha[t][u].coords, b)]
                for t in range(self.r) for b in basis_rows]


class PeriodLattice:
    """A lattice with a left action of the order, one matrix per order
    basis element: coords(b_i·v) = coords(v)·action[i]."""

    def __init__(self, order, lattice, action, prime="generic", validate=True):
        self.order = order
        self.lattice = lattice
        self.action = action  # list of Matrix, or None (no action recorded)
        self.prime = prime
        if validate and action is not None:
            self._validate()

    def _validate(self):
        """The product relations and the unit on D·action over R, for one
        common denominator D, over the nonzero constants only; stability."""
        o = self.order
        n, ring, dim = o.dim, o.algebra.ring, self.lattice.ambient_dim
        if len(self.action) != n:
            raise ActionMismatch("need one action matrix per order basis element")
        flat, den = Matrix._of(ring, [r for m in self.action for r in m.rows],
                               dim).cleared()
        mats = [flat[k * dim:(k + 1) * dim] for k in range(n)]
        # rows i·n + j, D·Σ_k c_ijk·action[k], and D·Σ_k u_k·action[k]
        combos = matmul(ring, [c for row in o.structure_constants()
                               for c in row] + [o.unit_coords()],
                        [sum(m, []) for m in mats])
        for k in range(n * n):
            i, j = divmod(k, n)
            if sum(matmul(ring, mats[j], mats[i]), []) != [
                    ring.mul(den, x) for x in combos[k]]:
                raise ActionMismatch(
                    "action matrices violate b_%d·b_%d" % (i, j))
        if combos[-1] != [den if a == b else ring.zero
                          for a in range(dim) for b in range(dim)]:
            raise ActionMismatch("unit does not act as the identity")
        for i in range(n):
            if not self.lattice.contains_rows(
                    (self.lattice.basis * self.action[i]).rows):
                raise ActionMismatch("lattice is not stable under b_%d" % i)

    def act(self, element):
        """Action matrix of an arbitrary algebra element (rational coords
        in the order basis are allowed): Σ_k c_k·action[k]."""
        ring, dim = self.order.algebra.ring, self.lattice.ambient_dim
        coords = self.order.lattice.coordinates([element.coords])
        flat = (Matrix._of(ring, coords, len(self.action)) * Matrix._of(
            ring, [[x for r in m.rows for x in r] for m in self.action],
            dim * dim)).rows[0]
        return Matrix._of(ring, [flat[a * dim:(a + 1) * dim]
                                 for a in range(dim)], dim)


def _in_basis(t, m):
    """B·m·B⁻¹, for B the basis of the full-rank lattice of t: the map m
    on ambient coordinates, read in lattice coordinates."""
    lat = t.lattice
    return Matrix._of(lat.ring, lat.coordinates((lat.basis * m).rows),
                      lat.rank)


def _block_rows(t, elements):
    """Rows of the block matrix (B·act(x)·B⁻¹) over a matrix of algebra
    elements x, for B the basis of the lattice of t."""
    rows = []
    for row in elements:
        blocks = [_in_basis(t, t.act(x)).rows for x in row]
        rows.extend([x for b in blocks for x in b[a]]
                    for a in range(t.lattice.rank))
    return rows


class IsogenyDescriptor:
    def __init__(self, per_lattice_divisors, degree):
        self.per_lattice_divisors = per_lattice_divisors
        self.degree = degree


# ---------------------------------------------------------------------------
# isogeny-class computation


def tensor_isogeny_class(pres, itype, embedding):
    """Isogeny type of M ⊗_O A, read off M ⊗_O E = E^s / α·E^r (the tensor
    product is right exact) one factor block B = Mat_n(D) of E at a time.

    `embedding` is an (order dim)×(dim E) matrix whose rows are the images
    of the order's basis elements inside the type's model algebra E.
    """
    o = pres.order
    ring = o.algebra.ring
    n = o.dim
    if embedding.nrows != n or embedding.ncols != itype.model_dim():
        raise EmbeddingNotAlgebraMap("embedding matrix has the wrong shape")
    E, ranges = itype.model()
    emb = [E.element(row) for row in embedding.rows]
    struct = o.structure_constants()
    acc = E.zero()
    for c, e in zip(o.unit_coords(), emb):
        acc = acc + e.scaled(Frac.of(ring, c))
    if acc.coords != E.one_coords:
        raise EmbeddingNotAlgebraMap("unit is not sent to 1")
    for i in range(n):
        for j in range(n):
            lhs = emb[i] * emb[j]
            rhs = E.zero()
            for c, e in zip(struct[i][j], emb):
                if c:
                    rhs = rhs + e.scaled(Frac.of(ring, c))
            if lhs.coords != rhs.coords:
                raise EmbeddingNotAlgebraMap(
                    "multiplicativity fails on basis pair (%d, %d)" % (i, j)
                )
    s = pres.s
    flat = [a.coords for row in pres.alpha for a in row]
    images = (Matrix(ring, o.lattice.coordinates(flat), n) * embedding).rows
    mults = []
    for f, block in zip(itype.factors, ranges):
        if f.mult == 0:
            mults.append(0)
            continue
        # the relations α·(y·e_t) for y in B, which lie in B^s as B is an
        # ideal of E
        basis = [E.basis_element(y).coords for y in block]
        lo, hi = block.start, block.stop
        rows = [[x for u in range(s)
                 for x in E.mul_coords(images[t * s + u], y)[lo:hi]]
                for t in range(pres.r) for y in basis]
        dim_img = s * len(block) - Matrix(ring, rows, s * len(block)).rank()
        denom = f.mult * f.endo.dim
        if dim_img % denom:
            raise ActionMismatch(
                "block dimension %d is not a multiple of n·dim D = %d"
                % (dim_img, denom)
            )
        mults.append(dim_img // denom)
    return itype.with_multiplicities(mults)


# ---------------------------------------------------------------------------
# lattice-level computation


def tensor_lattice(pres, t):
    """(period lattice of M ⊗_O A, elementary divisors of the torsion).

    The output lattice lives in the free quotient T^s/⟨image of α⊗id⟩ and
    is expressed in the coordinates cut out by the SNF transition matrix;
    the descended order action is recorded when the order is commutative.
    Rank and divisors need the Smith form alone; see _TensorLattice.
    """
    o = pres.order
    if t.order is not o:
        raise ActionMismatch("period lattice belongs to a different order")
    ring = o.algebra.ring
    rho = t.lattice.rank
    if rho != t.lattice.ambient_dim:
        raise ActionMismatch("period lattice must be full rank")
    phi = Matrix(ring, _block_rows(t, pres.alpha), pres.s * rho)
    if not phi.is_integral():
        raise ActionMismatch("presentation does not preserve the lattice")
    rank, divisors = _elementary_divisors(ring, snf(phi, transform=False)[0])
    return _TensorLattice(t, phi, rank), divisors


class _TensorLattice(PeriodLattice):
    """The period lattice of tensor_lattice.  Its projection, section and
    action are built when first read, then kept as plain attributes."""

    def __init__(self, t, phi, rank):
        self.order, self.prime, self._made = t.order, t.prime, (t, phi, rank)
        self.lattice = Lattice.standard(phi.ring, phi.ncols - rank)

    def __getattr__(self, name):
        if name not in ("section", "projection", "action"):
            raise AttributeError(name)
        t, phi, rank = self._made
        ring, n, q, rho = phi.ring, phi.ncols, phi.ncols - rank, t.lattice.rank
        if name == "action":
            action = None
            if self.order.algebra.is_commutative() and q > 0:
                # the order acts on T^s block-diagonally, by the action m_i
                # on T in T-basis coordinates: Σ_u section_u·m_i·proj_u
                blocks = [range(u, u + rho) for u in range(0, n, rho)]
                sec = [self.section.submatrix(range(q), b) for b in blocks]
                proj = [self.projection.submatrix(b, range(q)) for b in blocks]
                action = []
                for m in (_in_basis(t, x) for x in t.action):
                    terms = [a * m * b for a, b in zip(sec, proj)]
                    action.append(sum(terms[1:], terms[0]))
            self.action = action
            return action
        # coordinates on the free quotient: last q coords of x·V.  Those
        # columns of V are a basis of the kernel of phi; its Hermite basis
        # keeps the entries of the descended action small
        cols = snf(phi)[1].transpose().rows
        cols[rank:] = Lattice.from_rows(ring, cols[rank:], n).basis.rows
        v_mat = Matrix._of(ring, cols, n).transpose()
        # v is unimodular, so its Hermite form is I and the transform is v⁻¹
        h, v_inv = hnf(v_mat)
        if h != Matrix.identity(ring, n):
            raise InternalError("Smith transform is not unimodular")
        # with one of the two assigned, a read of the other keeps it
        vars(self).setdefault("projection",
                              v_mat.submatrix(range(n), range(rank, n)))
        vars(self).setdefault("section",
                              v_inv.submatrix(range(rank, n), range(n)))
        return vars(self)[name]


def _elementary_divisors(ring, s_mat):
    """(rank, elementary divisors) of a Smith normal form: the number of
    nonzero diagonal entries, which come first, and those that are not
    units, as ring elements."""
    diag = [d.integral_value() for d in
            (s_mat.rows[i][i] for i in range(min(s_mat.nrows, s_mat.ncols)))
            if d]
    return len(diag), [d for d in diag if not ring.is_unit(d)]


# ---------------------------------------------------------------------------
# minimal isogenies


def minimal_isogeny(o, o_prime, lattices):
    """The canonical isogeny A₀ → O'⊗_O A₀: per lattice, the smallest
    O'-stable lattice containing T, with its elementary divisors."""
    if not o_prime.lattice.contains_lattice(o.lattice):
        raise NotContained("the second order does not contain the first")
    ring = o.algebra.ring
    per = []
    degree = ring.one
    prime_basis = o_prime.basis_elements()
    for t in lattices:
        # O'·T = Σ b·T is O'-stable, as O' is closed under products, and
        # holds T, as 1 lies in O'
        cur = Lattice.from_rows(
            ring, [r for b in prime_basis for r in
                   (t.lattice.basis * t.act(b)).rows], t.lattice.ambient_dim)
        # elementary divisors of cur/t.lattice, unit-normalized: their
        # product is the index [cur : t.lattice]
        cmat = Matrix(ring, cur.coordinates(t.lattice.basis.rows), cur.rank)
        if not cmat.is_integral():
            raise NotContained("saturated lattice does not contain the input")
        _, divs = _elementary_divisors(ring, snf(cmat, transform=False)[0])
        per.append({"prime": t.prime, "elementaryDivisors": divs})
        for d in divs:
            degree = ring.mul(degree, d)
    return IsogenyDescriptor(per, degree)


# ---------------------------------------------------------------------------
# naturality


def check_naturality(pres1, pres2, phi, t):
    """Verify that the square relating φ⊗1 on presentations and the induced
    map on tensored period lattices commutes.

    `phi` is an s1×s2 matrix of order elements mapping O^{s1} → O^{s2} by
    x ↦ x·phi, required to descend to a right-module map coker(α1) →
    coker(α2).
    """
    o = pres1.order
    if pres2.order is not o or t.order is not o:
        raise ActionMismatch("presentations and lattice must share an order")
    alg = o.algebra
    ring = alg.ring
    n = o.dim
    # descent: rows of α1·φ must lie in the O-submodule generated by α2 rows
    gen_rows = pres2.image_rows(o.bmat.rows)
    gen_lat = Lattice.from_rows(ring, gen_rows, pres2.s * alg.dim)
    for ti in range(pres1.r):
        for a in range(n):
            ba = o.bmat.rows[a]
            img = []
            for u2 in range(pres2.s):
                acc = [frac0(ring)] * alg.dim
                for u1 in range(pres1.s):
                    prod = alg.mul_coords(
                        phi[u1][u2].coords,
                        alg.mul_coords(pres1.alpha[ti][u1].coords, ba),
                    )
                    acc = [x + y for x, y in zip(acc, prod)]
                img.extend(acc)
            if not gen_lat.contains_vector(img):
                raise NotAModuleMap(
                    "φ does not send the relations of M₁ into those of M₂"
                )
    # lattice level
    out1, _ = tensor_lattice(pres1, t)
    out2, _ = tensor_lattice(pres2, t)
    phi_mat = Matrix(ring, _block_rows(t, phi), pres2.s * t.lattice.rank)
    # the induced map on free quotients, defined via the section of side 1;
    # the square ξ₂∘(φ⊗1) = T(φ)∘ξ₁ commutes iff this agrees with pushing
    # every generator of T^{s1} through φ⊗1 and projecting on side 2 (this
    # also forces φ⊗1 to kill the kernel of ξ₁, i.e. well-definedness)
    induced = out1.section * phi_mat * out2.projection
    return phi_mat * out2.projection == out1.projection * induced
