"""The `decompose` command's path: factoring over Q, which splits the
center of an algebra in characteristic 0 (`Algebra.central_idempotents`),
and the splitting of an algebra along central orthogonal idempotents.
Nothing else imports it, so the other commands do not compile it."""

import functools
import itertools
import math

from .algebras import Algebra, nonzero
from .errors import BadIdempotents
from .exactlin import Matrix, rref, solve
from .rings import (TRIAL_BOUND, ZZ, Frac, distinct_degree_parts,
                    int_is_prime, padd, pdeg, pdivmod, pmul, pneg, pnorm,
                    poly_ring, squarefree_parts, trial_primes)


# ---------------------------------------------------------------------------
# factoring over Q (Zassenhaus; Cohen, GTM 138, §3.5): factor mod a small
# prime p, Hensel-lift the factors to p^k, recombine the lifts over Z

IRREDUCIBILITY_PRIMES = 25  # primes at which factor degrees are compared


def _pprod(polys, m):
    return functools.reduce(lambda a, b: pmul(a, b, m), polys, (1,))


def _hensel_lift(f, factors, p, k):
    """The monic lifts mod p^k, with product f, of the monic factors mod p,
    pairwise coprime, of the monic f.  From f ≡ a·b, s·a + t·b = 1 (mod
    p), a step from q to q·p adds q·dA to A and q·dB to B, where a·dB +
    b·dA ≡ (f - A·B)/q (mod p) and deg dA < deg a."""
    if len(factors) == 1:
        return [pnorm(f, p ** k)]
    half = len(factors) // 2
    a, b = _pprod(factors[:half], p), _pprod(factors[half:], p)
    _, s, t = poly_ring(p).xgcd(a, b)
    big_a, big_b, q = a, b, p
    for _ in range(k - 1):
        qp = q * p
        e = [c // q for c in padd(f, pneg(pmul(big_a, big_b, qp), qp), qp)]
        quo, d_a = pdivmod(pmul(e, t, p), a, p)
        d_b = padd(pmul(e, s, p), pmul(quo, b, p), p)
        big_a = padd(big_a, [q * c for c in d_a], qp)
        big_b = padd(big_b, [q * c for c in d_b], qp)
        q = qp
    return (_hensel_lift(big_a, factors[:half], p, k)
            + _hensel_lift(big_b, factors[half:], p, k))


def _exact_quotient(f, h):
    """f/h over Z for the monic h, or None when h does not divide f."""
    f, dh = list(f), pdeg(h)
    quo = [0] * (len(f) - dh)
    for i in range(len(quo) - 1, -1, -1):
        c = quo[i] = f[i + dh]
        if c:
            for j, hj in enumerate(h):
                f[i + j] -= c * hj
    return None if any(f[:dh]) else quo


def rational_factors(coeffs):
    """The monic irreducible factors over Q of the nonconstant coeffs (Fracs
    over Z, lowest degree first), by degree; None unless it is squarefree.

    For F = D·f primitive over Z with leading coefficient L, g(y) =
    L^(n-1)·F(y/L) is monic, and its monic factor h gives h(L·x)/L^deg h.
    Primes not keeping g squarefree divide disc g; when their product
    passes |g|^(n-1)·|g'|^n ≥ |disc g|, disc g = 0.  A factor over Q has
    a degree that is a sum of degrees of factors mod p: when the sums at
    IRREDUCIBILITY_PRIMES primes allow only 0 and n, f is irreducible.
    Otherwise the factors at the prime with the fewest are lifted to p^k
    above twice Mignotte's bound C(n, n/2)·|g| on the coefficients of a
    factor of g, and recombined.
    """
    n = len(coeffs) - 1
    den = math.lcm(*(c.den for c in coeffs))
    ints = [c.num * (den // c.den) for c in coeffs]
    content = math.gcd(*ints)
    lead = ints[-1] // content
    g = [c // content * lead ** (n - 1 - i)
         for i, c in enumerate(ints[:-1])] + [1]
    norm = math.isqrt(sum(c * c for c in g)) + 1
    disc_bound = norm ** (n - 1) * (math.isqrt(sum(
        (i * c) ** 2 for i, c in enumerate(g))) + 1) ** n
    possible, best, good, bad = set(range(n + 1)), (n + 1, 0), 0, 1
    for p in itertools.chain(trial_primes(), filter(
            int_is_prime, itertools.count(TRIAL_BOUND))):
        ring, gp = poly_ring(p), pnorm(g, p)
        if squarefree_parts(ring, gp) != [(gp, 1)]:
            bad *= p
            if bad > disc_bound:
                return None
            continue
        degrees = [d for h, d in distinct_degree_parts(ring, gp)
                   for _ in range(pdeg(h) // d)]
        sums = {0}
        for d in degrees:
            sums |= {s + d for s in sums}
        possible &= sums
        if len(possible) == 2:  # only 0 and n
            return [[c / coeffs[-1] for c in coeffs]]
        best, good = min(best, (len(degrees), p)), good + 1
        if good == IRREDUCIBILITY_PRIMES:
            break
    p, k = best[1], 1
    while p ** k <= 2 * math.comb(n, n // 2) * norm:
        k += 1
    m = p ** k
    lifted = _hensel_lift(g, [q for q, _ in poly_ring(p).factor(pnorm(g, p))],
                          p, k)
    found, size = [], 1
    while 2 * size <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), size):
            if sum(pdeg(lifted[i]) for i in subset) not in possible:
                continue
            h = [c - m if 2 * c > m else c
                 for c in _pprod([lifted[i] for i in subset], m)]
            quo = _exact_quotient(g, h)
            if quo is not None:
                found.append(h)
                g = quo
                lifted = [x for i, x in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    found.append(g)
    found.sort(key=lambda h: (len(h), h))
    return [[Frac(ZZ, c, lead ** (len(h) - 1 - i)) for i, c in enumerate(h)]
            for h in found]


# ---------------------------------------------------------------------------
# splitting along central idempotents


class Decomposition:
    """A = prod A_i realized by central orthogonal idempotents."""

    def __init__(self, idempotents, factors, embeddings):
        self.idempotents = idempotents
        self.factors = factors
        self.embeddings = embeddings  # per factor: d_i x dim matrix of coords


def decompose(alg, idems):
    """Split the algebra along a central orthogonal idempotent system."""
    alg.check_idempotent_system(idems)
    ring = alg.ring
    factors = []
    embeddings = []
    total = 0
    for e in idems:
        basis_rows, _ = rref(alg.field,
                             [(e * b * e).coords for b in alg.basis()])
        d = len(basis_rows)
        total += d
        prods = [alg.mul_coords(x, y) for x in basis_rows for y in basis_rows]
        sol = solve(alg.field, basis_rows, prods + [e.coords])
        if sol is None:
            raise BadIdempotents("idempotent block is not closed")
        table = [[nonzero(c) for c in sol[i * d:(i + 1) * d]]
                 for i in range(d)]
        factors.append(Algebra(ring, table, sol[-1],
                               trusted_semisimple=alg.trusted_semisimple,
                               validate=False))
        embeddings.append(Matrix(ring, basis_rows, alg.dim))
    if total != alg.dim:
        raise BadIdempotents("blocks do not fill the algebra")
    return Decomposition(list(idems), factors, embeddings)
