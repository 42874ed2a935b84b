"""Tensoring abelian-variety data by a finitely presented module over an
endomorphism order: isogeny-class multiplicities, period-lattice images,
minimal isogenies to a bigger order, naturality checks, and the
endomorphism orders End_Δ(M) of lattices.

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
    RankDeficient,
)
from .exactlin import Lattice, Matrix, hnf, matmul, snf, solve_echelon
from .algebras import (Order, is_commutative, matrix_over_algebra,
                       product_algebra)
from .rings import Frac


class IsogenyFactor:
    __slots__ = ("label", "dimB", "endo", "mult")

    def __init__(self, label, dimB, endo, mult):
        self.label = label
        self.dimB = dimB
        self.endo = endo  # Algebra over Q (the division algebra D_i)
        self.mult = mult


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


class ModulePresentation:
    """coker(α: O^r → O^s) as a right O-module.

    Right-module maps are left multiplications: α sends the column vector
    x ∈ O^r to the column vector with entries (α·x)_u = Σ_t α[t][u]·x_t,
    so the image is R-spanned by the vectors (α[t][u]·b_a)_u.  coords
    holds the entries in order coordinates over R, in row-major order.
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
        if any(len(row) != self.s for row in alpha):
            raise ValueError("ragged presentation matrix")
        coords = order.lattice.coordinates([a.coords for row in alpha
                                            for a in row])
        if not all(x.is_integral() for c in coords for x in c):
            raise NotIntegral("presentation entry outside the order")
        self.coords = [[x.num for x in c] for c in coords]

    def image_rows(self, basis_rows):
        """Ambient coordinates of the relations α(b·e_t) in A^s: row (t, b)
        is (α[t][u]·b)_u, for b running over basis_rows."""
        mul = self.order.algebra.mul_coords
        return [[x for u in range(self.s)
                 for x in mul(self.alpha[t][u].coords, b)]
                for t in range(self.r) for b in basis_rows]


class PeriodLattice:
    """A lattice T with a left action of the order, one matrix per order
    basis element: coords(b_i·v) = coords(v)·action[i] in ambient
    coordinates, and basis_action[i] = B·action[i]·B⁻¹, rows over R, on
    T-basis coordinates, for B the basis of T."""

    def __init__(self, order, lattice, action, prime="generic"):
        self.order = order
        self.lattice = lattice
        self.action = action  # list of Matrix, or None (no action recorded)
        self.prime = prime
        if action is not None:
            self.basis_action = self._validate()

    def _validate(self):
        """Checks the action and returns basis_action.  The product
        relations and the unit are checked on D·action over R, for one
        common denominator D, over the nonzero constants only.  For T = h/d
        and Y·h = h·(D·action[i]), T is stable under b_i exactly when Y is
        over R with D | Y, and then Y/D is the action on T-basis
        coordinates: one back-substitution for all i."""
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
        h, rank = self.lattice.h, self.lattice.rank

        def on_basis(ms):
            ys = solve_echelon(ring, h, [y for m in ms
                                         for y in matmul(ring, h, m)])
            if ys is not None and all(ring.divides(den, y)
                                      for row in ys for y in row):
                return [[ring.exact_div(y, den) for y in row] for row in ys]

        ys = on_basis(mats)
        if ys is None:
            i = next(i for i, m in enumerate(mats) if on_basis([m]) is None)
            raise ActionMismatch("lattice is not stable under b_%d" % i)
        return [ys[i * rank:(i + 1) * rank] for i in range(n)]

    def act(self, coords):
        """Σ_k c_k·basis_action[k], the action on T-basis coordinates, as
        one Matrix per row c of order coordinates (fractions allowed)."""
        ring, rho = self.order.algebra.ring, self.lattice.rank
        w, e = Matrix(ring, coords, self.order.dim).cleared()
        flat = matmul(ring, w, [sum(m, []) for m in self.basis_action])
        return [Matrix._of(ring, [[Frac(ring, x, e) for x in row[a:a + rho]]
                                  for a in range(0, rho * rho, rho)], rho)
                for row in flat]


def _block_rows(t, coords, s):
    """Rows of the block matrix over an r×s matrix of order elements, given
    by their order coordinates in row-major order: block (i, u) is the
    action of entry (i, u) on T-basis coordinates."""
    blocks = t.act(coords)
    return [[x for m in blocks[i:i + s] for x in m.rows[a]]
            for i in range(0, len(blocks), s or 1)
            for a in range(t.lattice.rank)]


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
    # the images of 1, of each b_i·b_j and of α's entries, in one product
    images = (Matrix(ring, [o.unit_coords()] + [
        c for row in o.structure_constants() for c in row] + pres.coords,
        n) * embedding).rows
    if images[0] != E.one_coords:
        raise EmbeddingNotAlgebraMap("unit is not sent to 1")
    emb = embedding.rows
    for k in range(n * n):
        if E.mul_coords(emb[k // n], emb[k % n]) != images[1 + k]:
            raise EmbeddingNotAlgebraMap(
                "multiplicativity fails on basis pair (%d, %d)" % divmod(k, n)
            )
    s = pres.s
    images = images[1 + n * n:]  # of α's entries, row-major
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
    phi = Matrix._of(ring, _block_rows(t, pres.coords, pres.s), pres.s * rho)
    rank, divisors = _elementary_divisors(ring, snf(phi, transform=False)[0])
    return _TensorLattice(t, phi, rank), divisors


class _TensorLattice(PeriodLattice):
    """The period lattice of tensor_lattice.  Its projection, section,
    action and basis_action are built when first read, then kept as plain
    attributes."""

    def __init__(self, t, phi, rank):
        self.order, self.prime, self._made = t.order, t.prime, (t, phi, rank)
        self.lattice = Lattice.standard(phi.ring, phi.ncols - rank)

    def __getattr__(self, name):
        if name not in ("section", "projection", "action", "basis_action"):
            raise AttributeError(name)
        t, phi, rank = self._made
        ring, n, q, rho = phi.ring, phi.ncols, phi.ncols - rank, t.lattice.rank
        if name == "basis_action":  # the lattice is standard
            self.basis_action = None if self.action is None else [
                m.to_ring_rows() for m in self.action]
            return self.basis_action
        if name == "action":
            action = None
            if is_commutative(self.order.algebra.table) and q > 0:
                # the order acts on T^s block-diagonally, by basis_action[i]
                # on each T: Σ_u section_u·basis_action[i]·proj_u
                blocks = [range(u, u + rho) for u in range(0, n, rho)]
                sec = [self.section.submatrix(range(q), b) for b in blocks]
                proj = [self.projection.submatrix(b, range(q)) for b in blocks]
                action = []
                for m in (Matrix(ring, m, rho) for m in t.basis_action):
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
    per, degree = [], ring.one
    for t in lattices:
        # on T-basis coordinates, T = R^ρ and O'·T = Σ b·T, which is
        # O'-stable, as O' is closed under products, and holds R^ρ, as 1
        # lies in O' and acts as I
        rho = t.lattice.rank
        coords = t.order.lattice.coordinates(o_prime.lattice.basis.rows)
        cur = Lattice.from_rows(ring, [r for m in t.act(coords)
                                       for r in m.rows], rho)
        # elementary divisors of cur/R^ρ, unit-normalized: their product is
        # the index [cur : R^ρ]
        cmat = Matrix._of(ring, cur.coordinates(
            Matrix.identity(ring, rho).rows), rho)
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
    # descent: the relations of M₁ pushed through φ, the rows (β[t][u]·b)_u
    # for β[t][u] = Σ_v φ[v][u]·α1[t][v], must lie in the O-submodule
    # generated by α2's rows
    beta = [[sum((phi[v][u] * row[v] for v in range(pres1.s)), alg.zero())
             for u in range(pres2.s)] for row in pres1.alpha]
    basis = o.lattice.basis.rows
    imgs = [[x for a in row for x in alg.mul_coords(a.coords, b)]
            for row in beta for b in basis]
    gen_lat = Lattice.from_rows(ring, pres2.image_rows(basis),
                                pres2.s * alg.dim)
    if not gen_lat.contains_rows(imgs):
        raise NotAModuleMap(
            "φ does not send the relations of M₁ into those of M₂")
    # lattice level
    out1, _ = tensor_lattice(pres1, t)
    out2, _ = tensor_lattice(pres2, t)
    coords = o.lattice.coordinates([x.coords for row in phi for x in row])
    phi_mat = Matrix._of(ring, _block_rows(t, coords, pres2.s),
                         pres2.s * t.lattice.rank)
    # the induced map on free quotients, defined via the section of side 1;
    # the square ξ₂∘(φ⊗1) = T(φ)∘ξ₁ commutes iff this agrees with pushing
    # every generator of T^{s1} through φ⊗1 and projecting on side 2 (this
    # also forces φ⊗1 to kill the kernel of ξ₁, i.e. well-definedness)
    induced = out1.section * phi_mat * out2.projection
    return phi_mat * out2.projection == out1.projection * induced


# ---------------------------------------------------------------------------
# endomorphism orders


def endomorphism_order(delta, m):
    """End_Δ(M) = {x ∈ Mat_r(D) : xM ⊆ M} in the matrix model algebra.

    M lives in D^r, r = width / dim D, with block coordinates (r blocks of
    dim D each); the matrix model acts by column-vector convention
    (x·v)_a = Σ_b x_ab v_b.
    """
    dalg = delta.algebra
    ring = dalg.ring
    d = dalg.dim
    if m.ambient_dim % d != 0:
        raise RankDeficient("ambient dimension is not a multiple of dim D")
    r = m.ambient_dim // d
    if m.rank != r * d:
        raise RankDeficient("lattice must be full rank in D^r")
    model = matrix_over_algebra(dalg, r)
    maps = []
    for w in m.basis.rows:
        blocks = [w[b * d:(b + 1) * d] for b in range(r)]
        rows = []
        for a in range(r):
            for b in range(r):
                for c in range(d):
                    # E_ab (x) d_c applied to w: block a receives d_c * w_b
                    img = [Frac.of(ring, 0)] * (r * d)
                    img[a * d:(a + 1) * d] = dalg.mul_coords(
                        dalg.basis_element(c).coords, blocks[b])
                    rows.append(img)
        maps.append(Matrix(ring, rows, r * d))
    return _stabilizer_order(model, m, maps)


def _stabilizer_order(alg, lat, maps):
    """The order {x in alg : x·maps[i] ∈ lat for every i}.

    maps[i] multiplies coordinates by the i-th basis vector w_i of lat:
    x·maps[i] is x·w_i.  In lattice coordinates x is in the order iff it
    pairs integrally with every column of maps[i]·basis⁻¹, whose rows are
    those of maps[i] in lattice coordinates, so the order is the dual of
    the lattice those columns span.
    """
    cols = [col for m in maps for col in zip(*lat.coordinates(m.rows))]
    col_lat = Lattice.from_rows(alg.ring, cols, alg.dim)
    if col_lat.rank != alg.dim:
        raise InternalError("stabilizer condition system is rank-deficient")
    return Order(alg, col_lat.dual())
