"""The p-steps on R-orders: residue algebras, radicals, idealizers,
p-maximalization, maximality certificates, and global maximal orders.
Orders themselves, with their structure constants and discriminants,
are in maxord.algebras."""

import functools

from .errors import (
    BoundExceeded,
    InternalError,
    NeedsSuppliedPrimes,
    NotPrime,
    NotSemisimple,
)
from .exactlin import (
    Lattice,
    PrimeField,
    hermite,
    kernel,
    matmul,
    rref,
    solve_echelon,
)
from .finitealg import FiniteAlgebra
from .algebras import Order, closed_products, discriminant, is_commutative
from .rings import pnorm


class LatticeIdeal:
    """A two-sided ideal I of an order Λ over a prime p of R: pΛ ⊆ I ⊆ Λ.

    I is kept as rows over F_q spanning I/pΛ in the residue coordinates of
    _residue_maps; its lattice in the algebra, Hermite(W·H_Λ)/d_Λ for W
    its basis over p and Λ = H_Λ/d_Λ, is built when first read.
    """

    __slots__ = ("order", "prime", "rows", "_lattice")

    def __init__(self, order, prime, rows):
        self.order = order
        self.prime = prime
        self.rows = rows
        self._lattice = None

    @property
    def lattice(self):
        if self._lattice is None:
            order = self.order
            ring, lam, n = order.algebra.ring, order.lattice, order.dim
            w = _basis_over_p(ring, self.prime, self.rows, n)
            self._lattice = Lattice(ring, n, hermite(
                ring, matmul(ring, w, lam.h), n)[0], lam.d)
        return self._lattice


# ---------------------------------------------------------------------------
# residue algebras


def _residue_maps(ring, p, n):
    """(q, d, reduce, lift, powers) for Λ/pΛ as a space over F_q, q the
    characteristic of R/p and Λ of rank n.

    Residue slot i·d + e stands for t^e·b_i, e < d: d = 1 over Z, d = deg p
    over F_q[t].  reduce maps R-coordinates to residue coordinates; lift
    picks the representatives in [0, q) or of degree < d; powers(v, k) is
    [v, t·v, ..., t^(k-1)·v] in residue coordinates.
    """
    if ring.characteristic == 0:
        q = p if p > 0 else -p
        return (q, 1, lambda coords: [c % q for c in coords],
                lambda res: [int(c) for c in res], lambda v, k: [v])

    q, d = ring.p, len(p) - 1
    # t^d ≡ Σ_e tail[e]·t^e mod p
    tail = [(-c * pow(p[-1], q - 2, q)) % q for c in p[:d]]

    def reduce(coords):
        rs = [ring.divmod(c, p)[1] for c in coords]
        return [x for r in rs for x in r + (0,) * (d - len(r))]

    def lift(res_coords):
        return [pnorm(res_coords[k * d:(k + 1) * d], q) for k in range(n)]

    def powers(v, k):
        out = [v]
        while len(out) < k:
            v = [(x + v[b + d - 1] * c) % q for b in range(0, len(v), d)
                 for x, c in zip([0] + v[b:b + d - 1], tail)]
            out.append(v)
        return out

    return q, d, reduce, lift, powers


def _basis_over_p(ring, p, rows, n):
    """The Hermite form of pR^n + R·lift(rows), for residue rows over F_q:
    each echelon row over R/p, lifted, on its pivot column, p·e_j on every
    other column j.  It is upper triangular with pivots 1 and p, and the
    entries above a pivot p are remainders mod p, so it is in Hermite form
    (Cohen, GTM 138, §2.4).

    Lemma: if the rows span, over F_q, an R/p-subspace W, the echelon rows
    r_l of W over R/p are the rows of W's rref over F_q with a t⁰ pivot
    (pivot % d = 0).  Proof: r_l is 0 before its pivot column j_l, 1 on
    it and 0 on the other pivot columns, so t^e·r_l, e < d, is 0 before
    slot j_l·d + e, 1 there and 0 on every other slot j_m·d + f.  These
    span W over F_q, W being an R/p-space, so they are its reduced echelon
    basis over F_q, which is unique; those with pivot j_l·d are the r_l.
    """
    p = ring.canonical(p)
    q, d, _, lift, _ = _residue_maps(ring, p, n)
    out = [[p if a == b else ring.zero for b in range(n)] for a in range(n)]
    red, pivots = rref(PrimeField(q), rows)
    for row, j in zip(red, pivots):
        if j % d == 0:
            out[j // d] = lift(row)
    return out


def residue_algebra(order, p):
    """(Λ/pΛ as an F_p-algebra, reduce, lift) for a prime p of R.

    For a polynomial ground ring and a prime of degree d the residue field
    F_{p^d} is restricted to F_p, so the output dimension is dim(Λ)·d and
    basis slot (i, e) stands for b_i·t^e.  Each nonzero structure constant
    c_ijk is reduced mod p once; t^s·c_ijk, s = e + f < 2d − 1, comes from
    it by multiplications by t, and its coefficient on t^g is the constant
    on slot k·d + g.
    """
    ring = order.algebra.ring
    if not ring.is_prime(p):
        raise NotPrime("%s is not prime in the ground ring" % ring.to_str(p))
    struct, n = order.structure_constants(), order.dim
    q, d, reduce, lift, powers = _residue_maps(ring, p, n)
    pw = [[[(k, powers(reduce([c]), 2 * d - 1)) for k, c in enumerate(cs) if c]
           for cs in row] for row in struct]
    table = [[[(k * d + g, x) for k, ts in pw[a // d][b // d]
               for g, x in enumerate(ts[a % d + b % d]) if x]
              for b in range(n * d)] for a in range(n * d)]
    return FiniteAlgebra(q, table, reduce(order.unit_coords())), reduce, lift


# ---------------------------------------------------------------------------
# radicals, idealizers, certificates


def radical_mod_p(order, p):
    """Two-sided ideal J with J/pΛ = Jacobson radical of Λ/pΛ."""
    return _radical_and_maximal(order, p)[0]


def idealizer(order, ideal):
    """O_l(I) = (1/p)·{y ∈ Λ : yI ⊆ pI} for an ideal pΛ ⊆ I ⊆ Λ over p; an
    order containing Λ.

    y ↦ (I-coordinates of y·w_k mod p)_k, for w_k an R-basis of I, is
    R/p-linear on Λ/pΛ, so the y form pΛ plus the lifts of its kernel, an
    R/p-subspace found over F_q (Cohen, GTM 138, §6.1).  Λ itself when
    that kernel is 0.

    Lemma: for W the basis of I in Λ-coordinates, M = p·W⁻¹ is integral,
    as pΛ ⊆ I, and v ∈ I has I-coordinates v·M/p.  If v ≡ v′ mod p²Λ then
    v·M/p − v′·M/p = p·(u·M) ≡ 0 mod p for some u over R.  So the
    conditions mod p come from W, M and Λ's structure constants, all mod
    p², with one exact division by p at the end.  W is the Hermite form of
    _basis_over_p, with rows e_j + r_j (r_j on the columns of pivot p) and
    p·e_f, so M has rows p·e_j − r_j and e_f: p/W_jj on the diagonal, −W
    off it.  The kernel gives P, the basis of p·O_l(I), the same way.
    """
    ring, n = order.algebra.ring, order.dim
    p = ring.canonical(ideal.prime)
    q, d, reduce, _, powers = _residue_maps(ring, p, n)
    p2 = ring.mul(p, p)

    def mod_p2(row):
        return [ring.divmod(x, p2)[1] if x else x for x in row]

    w = _basis_over_p(ring, p, ideal.rows, n)
    m = [[ring.exact_div(p, x) if a == b else ring.neg(x)
          for b, x in enumerate(row)] for a, row in enumerate(w)]
    if p not in order._mod_p2:  # Λ's constants, for every ideal over p
        order._mod_p2[p] = [mod_p2(c) for row in order.structure_constants()
                            for c in row]
    sm = [mod_p2(r) for r in matmul(ring, order._mod_p2[p], m)]  # c_ia·M
    cond = []
    for i in range(n):
        # I-coordinates mod p of the b_i·w_k, W·(c_i·M)/p, times each t^e
        block = matmul(ring, w, sm[i * n:(i + 1) * n])
        cond += powers(reduce([ring.exact_div(x, p) if x else x
                               for r in block for x in r]), d)
    ker = kernel(PrimeField(q), cond)
    if not ker:
        return order
    return _grown_order(order, p, _basis_over_p(ring, p, ker, n))


def _grown_order(order, p, big_p):
    """The order Γ = (1/p)·P·Λ, for p canonical and P over R of full rank
    with Λ ⊆ Γ, its structure constants taken from Λ's in ring arithmetic.

    For Λ = H_Λ/d_Λ, Γ's lattice is Hermite(P·H_Λ)/(p·d_Λ).  That pass
    carries P along, so that afterwards P = p·(Γ's Hermite basis in
    Λ-coordinates); P·H_Λ is upper triangular when P is, and then the
    pass only reduces entries above the pivots.  For g_i = (1/p)Σ_a
    P_ia λ_a, p²·g_i·g_j has Λ-coordinates

        y_ij = Σ_ab P_ia P_jb c^Λ_ab,  and  c^Γ_ij·(p·P) = y_ij:

    one back-substitution against p·P, upper triangular as both bases
    are, whose divisions are exact exactly when Γ is closed under
    multiplication, so a lattice that is not raises NotIntegral.
    1 ∈ Λ ⊆ Γ has Γ-coordinates z with z·P = p·u, for u its
    Λ-coordinates.  disc(Γ) = disc(Λ)·(det P / p^n)², read off P's
    pivots.  Γ and Λ agree away from p, so Γ inherits Λ's verdicts
    "maximal" there.
    """
    ring, n, lam = order.algebra.ring, order.dim, order.lattice
    both = hermite(ring, [a + b for a, b in zip(matmul(ring, big_p, lam.h),
                                                 big_p)], 2 * n)[0]
    lattice = Lattice(ring, n, [r[:n] for r in both], ring.mul(p, lam.d))
    big_p = [r[n:] for r in both]
    # c^Λ_ab contracted with row i of P on a, then row j of P on b
    left = matmul(ring, big_p, [[x for c in row for x in c]
                                for row in order.structure_constants()])
    ys = [y for row in left for y in matmul(
        ring, big_p, [row[b * n:(b + 1) * n] for b in range(n)])]
    grown = Order(order.algebra, lattice, validate=False)
    grown._struct = closed_products(ring, big_p, ys, p, "grown lattice")
    grown._unit = solve_echelon(ring, big_p, [[ring.mul(p, x) for x in
                                               order.unit_coords()]])[0]
    if order._disc is not None:
        det = functools.reduce(ring.mul, [big_p[k][k] for k in range(n)])
        grown._disc = ring.exact_div(
            functools.reduce(ring.mul, [det, det, order._disc]),
            functools.reduce(ring.mul, [p] * (2 * n)))
    grown._steps = {q: step for q, step in order._steps.items()
                    if q != p and step[0] is None}
    return grown


def _radical_and_maximal(order, p):
    """(J, maximal, count): the p-radical of Λ, and functions that list and
    count the maximal two-sided ideals over p, from one residue algebra
    and its radical; count holds no reference to Λ.  The count is that of
    the simple factors of Λ/J, the F_p-dimension of the Frobenius-fixed
    part of its center: the center is ∏ F_(p^f), fixed part ∏ F_p."""
    res = residue_algebra(order, p)[0]
    rad = res.radical_basis()

    def maximal():
        quot, _, lift_q = res.quotient(rad)
        ideals = []
        for e in quot.primitive_central_idempotents():
            # Λ/I is the simple factor e·(Λ/J) of the semisimple quotient
            one_minus = [(a - b) % res.p for a, b in zip(quot.one_coords, e)]
            ideals.append(LatticeIdeal(order, p, rad + [
                lift_q(quot.mul(b, one_minus)) for b in quot.basis()]))
        return ideals

    return (LatticeIdeal(order, p, rad), maximal,
            lambda: len(res.quotient(rad)[0].frobenius_fixed_center()))


def _p_step_ideals(order, p):
    """[J, I_1, ..., I_k]: the p-radical and the maximal ideals over p."""
    j, maximal, _ = _radical_and_maximal(order, p)
    return [j] + maximal()


class _StepFacts(dict):
    """p_step's facts; "maximalIdeals" is self.count() when first read."""

    def __missing__(self, key):
        if key != "maximalIdeals":
            raise KeyError(key)
        self[key] = vars(self).pop("count")()
        return self[key]


def p_step(order, p):
    """One saturation step at p, and the test for maximality at p.

    Λ is maximal at p exactly when neither O_l(J), for J the p-radical,
    nor O_l(I), for any maximal two-sided ideal I ⊇ pΛ, is larger than Λ
    (Reiner §§17–18; Ivanyos & Rónyai 1993).  Returns (grown, facts):
    grown is the first of those idealizers that is strictly larger than
    Λ, or None; facts says whether O_l(J) = Λ and how many maximal ideals
    lie over p.  Callers go through step_at, which runs it once per order
    and prime.

    In a commutative semisimple algebra O_l(J) = Λ already proves Λ
    p-maximal (Pohst–Zassenhaus; Cohen, GTM 138, §6.1), so the maximal
    ideals are only counted, when a certificate reads the count.  Proof: R
    is Japanese, so the integral closure Õ of R in A is a finite R-module,
    and Λ is p-maximal iff Λ = U = {x ∈ Õ : p^j·x ∈ Λ for some j}.  Else,
    as p^j·U ⊆ Λ for one j and J^m ⊆ pΛ, U·J^k ⊆ Λ for a least k ≥ 1;
    take y ∈ U·J^(k-1) outside Λ.  For a ∈ J, ya ∈ Λ lies in every prime
    of Õ over p, as a does, so in every prime of Λ over p (lying over):
    ya ∈ J, so y ∈ O_l(J) ≠ Λ.
    """
    facts = _StepFacts(idealizerFixed=True)
    if is_commutative(order.algebra.table):
        j, _, facts.count = _radical_and_maximal(order, p)
        ideals = [j]
    else:
        ideals = _p_step_ideals(order, p)
        facts["maximalIdeals"] = len(ideals) - 1
    for k, ideal in enumerate(ideals):
        grown = idealizer(order, ideal)
        if grown.lattice != order.lattice:
            facts["idealizerFixed"] = k > 0
            return grown, facts
    return None, facts


def step_at(order, p):
    """p_step(order, p), computed once per order and prime."""
    p = order.algebra.ring.canonical(p)
    if p not in order._steps:
        order._steps[p] = p_step(order, p)
    return order._steps[p]


def is_maximal_at_p(order, p):
    """Per-prime maximality certificate: the verdict of p_step, plus
    whether O_l(J) = Λ and whether exactly one maximal ideal lies over p.
    NotSemisimple in characteristic 0 (_checked_discriminant)."""
    _checked_discriminant(order)
    grown, facts = step_at(order, p)
    return {
        "prime": p,
        "idealizerFixed": facts["idealizerFixed"],
        "residueSimple": facts["maximalIdeals"] == 1,
        "verdict": grown is None,
    }


def p_maximal_order(order, p):
    """Grow the order until its localization at p is maximal.  A nonzero
    discriminant bounds the steps; a vanishing one leaves a budget of
    64·dim steps, which is no proved bound."""
    ring = order.algebra.ring
    disc = _checked_discriminant(order)
    if disc != ring.zero:
        bound = order.dim * order.dim * ring.valuation(disc, p) + order.dim + 4
    else:
        bound = 64 * order.dim
    cur = order
    for _ in range(bound):
        grown, _ = step_at(cur, p)
        if grown is None:
            return cur
        cur = grown
    if disc == ring.zero:
        declared = (", declared trusted_semisimple,"
                    if order.algebra.trusted_semisimple else "")
        raise BoundExceeded(
            "p-maximalization at %s ran past its budget of %d steps, no "
            "proved bound as the discriminant vanishes; is the algebra%s "
            "semisimple?" % (ring.to_str(p), bound, declared))
    raise InternalError("p-maximalization did not terminate within its bound")


# ---------------------------------------------------------------------------
# global maximal orders


def _checked_discriminant(order):
    """disc(Λ), which must not vanish in characteristic 0: the kernel N of
    the trace form is a two-sided ideal, each x ∈ N has Tr(x^k) = 0 for
    all k ≥ 1, so x is nilpotent by Newton's identities, and N ≠ 0 is a
    nil ideal.  NotSemisimple when it does, whatever the algebra declares."""
    ring = order.algebra.ring
    disc = discriminant(order)
    if disc == ring.zero and not ring.characteristic:
        raise NotSemisimple("trace form is degenerate in characteristic "
                            "0, so the algebra has a nonzero nil ideal")
    return disc


def maximal_order(start, extra_primes=None):
    """Maximal order containing the input, by p-saturation at each candidate
    prime.  Unless the algebra is trusted semisimple, its trace form must be
    nondegenerate: disc(Λ) = det(B)²·det(trace Gram) ≠ 0.  In
    characteristic 0 it must be, trusted or not (_checked_discriminant)."""
    if (_checked_discriminant(start) == start.algebra.ring.zero
            and not start.algebra.trusted_semisimple):
        raise NotSemisimple(
            "trace form is degenerate; pass a trusted-semisimple algebra")
    cur = start
    for q in candidate_primes(start, extra_primes):
        cur = p_maximal_order(cur, q)
    return cur


def candidate_primes(order, extra_primes=None):
    """The primes to check the order at: those dividing its discriminant
    (it is maximal at every other prime), then those of extra_primes not
    among them.  A vanishing discriminant names no prime, so then
    extra_primes must; NeedsSuppliedPrimes when it is empty, and
    NotSemisimple in characteristic 0 (_checked_discriminant)."""
    ring = order.algebra.ring
    disc = _checked_discriminant(order)
    primes = []
    if disc != ring.zero:
        primes = [q for q, _ in ring.factor(disc)]
    elif not extra_primes:
        raise NeedsSuppliedPrimes(
            "discriminant vanishes; supply candidate primes"
        )
    for q in extra_primes or []:
        q = ring.canonical(q)
        if q not in primes:
            primes.append(q)
    return primes
