"""Ground rings and their fraction fields.

Two principal-ideal ground rings are supported, as two classes with one
interface: ``IntegerRing`` (the integers ``ZZ``, on plain ints, with
``math.gcd``) and ``PolyRing`` (F_p[t] for a word-sized prime p, from
``poly_ring``, on tuples of coefficients mod p, lowest degree first, with
no trailing zeros; the empty tuple is zero).  In both, zero is the only
falsy element.  All arithmetic is exact.
"""

import functools
import itertools
import math
import operator
import random
import re

from .errors import InputNotIntegral, NotPrime, ParseError, ZeroElement


# ---------------------------------------------------------------------------
# raw polynomial arithmetic over F_p (tuples, lowest degree first)


def ptrim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def pnorm(coeffs, p):
    return ptrim([c % p for c in coeffs])


def pdeg(a):
    return len(a) - 1  # -1 for zero


def padd(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return ptrim(out)


def pneg(a, p):
    return tuple((-c) % p for c in a)


def pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return ptrim(out)


def pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, la = pdeg(b), len(a)
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(la - db, 0)
    for i in range(la - db - 1, -1, -1):
        c = (a[i + db] * inv_lead) % p
        if c:
            q[i] = c
            for j, cb in enumerate(b):
                a[i + j] = (a[i + j] - c * cb) % p
    return ptrim(q), ptrim(a)


# ---------------------------------------------------------------------------
# primality and factoring over Z
#
# Trial division by the primes below TRIAL_BOUND settles every n below
# TRIAL_BOUND**2; sympy is imported only for a larger cofactor.

TRIAL_BOUND = 1 << 16
_trial_blocks = []  # the primes below 2^8, 2^9, ..., 2^16 by block


def _trial_block(i):
    """The primes in [2, 2^8) for i = 0, else in [2^(7+i), 2^(8+i)),
    sieved by those of block 0 the first time trial division reaches it."""
    if i == len(_trial_blocks):
        lo, hi = (1 << (7 + i) if i else 2), 1 << (8 + i)
        sieve = bytearray([1]) * (hi - lo)
        for q in _trial_blocks[0] if i else range(2, 16):
            start = max(q * q, -(-lo // q) * q)
            sieve[start - lo::q] = bytes(len(range(start, hi, q)))
        _trial_blocks.append(tuple(itertools.compress(range(lo, hi), sieve)))
    return _trial_blocks[i]


def trial_primes():
    """The primes below TRIAL_BOUND, in order."""
    return itertools.chain.from_iterable(map(_trial_block, range(9)))


def int_factorization(n):
    """[(prime, exponent)] of n >= 1, sorted."""
    out = []
    for q in trial_primes():
        if q * q > n:
            break
        if n % q == 0:
            e = 0
            while n % q == 0:
                n, e = n // q, e + 1
            out.append((q, e))
    else:
        # n has no prime factor below TRIAL_BOUND, so below TRIAL_BOUND**2
        # it is a prime
        if n >= TRIAL_BOUND ** 2:
            import sympy

            out.extend((int(q), int(e)) for q, e in sympy.factorint(n).items())
            return sorted(out)
    if n > 1:
        out.append((n, 1))
    return out


def int_is_prime(n):
    if n >= TRIAL_BOUND ** 2:
        import sympy

        return bool(sympy.isprime(n))
    return n >= 2 and int_factorization(n) == [(n, 1)]


# ---------------------------------------------------------------------------
# factoring over F_p[t] (Cohen, GTM 138, §3.4)
#
# The helpers take the ring F_p[t] and monic polynomials.  Factoring
# splits off squarefree parts, then the product of the irreducibles of
# each degree, then those irreducibles one by one (Cantor-Zassenhaus).
# Factoring over Q (maxord.decompose) uses the first two steps.


def _powmod(ring, a, e, f):
    """a^e mod f."""
    out, a = ring.one, ring.divmod(a, f)[1]
    while e:
        if e & 1:
            out = ring.divmod(ring.mul(out, a), f)[1]
        e >>= 1
        if e:
            a = ring.divmod(ring.mul(a, a), f)[1]
    return out


def squarefree_parts(ring, f):
    """[(g, e)] with f = prod g^e, the g monic, squarefree, pairwise
    coprime and nonconstant."""
    p = ring.p
    out, mult = [], 1
    while pdeg(f) >= 1:
        c = ring.gcd(f, ptrim([i * x % p for i, x in enumerate(f)][1:]))
        w, i = ring.exact_div(f, c), 1
        while pdeg(w) >= 1:
            y = ring.gcd(w, c)
            z = ring.exact_div(w, y)
            if pdeg(z) >= 1:
                out.append((z, i * mult))
            w, c, i = y, ring.exact_div(c, y), i + 1
        # what is left is a polynomial in t^p: take its p-th root
        f, mult = c[::p], mult * p
    return out


def distinct_degree_parts(ring, f):
    """[(g, d)]: g is the product of the degree-d irreducible factors of
    the squarefree f."""
    t = (0, 1)
    out, h, d = [], t, 1
    while 2 * d <= pdeg(f):
        h = _powmod(ring, h, ring.p, f)
        g = ring.gcd(f, ring.sub(h, t))
        if pdeg(g) >= 1:
            out.append((g, d))
            f = ring.exact_div(f, g)
            h = ring.divmod(h, f)[1]
        d += 1
    if pdeg(f) >= 1:
        out.append((f, pdeg(f)))
    return out


def _equal_degree_split(ring, f, d, rng):
    """The irreducible factors of the squarefree f, all of degree d."""
    n, p = pdeg(f), ring.p
    if n == d:
        return [f]
    while True:
        a = ptrim([rng.randrange(p) for _ in range(n)])
        if pdeg(a) < 1:
            continue
        if p == 2:  # the trace a + a^2 + ... + a^(2^(d-1))
            b = s = a
            for _ in range(d - 1):
                b = ring.divmod(ring.mul(b, b), f)[1]
                s = ring.add(s, b)
        else:
            s = ring.sub(_powmod(ring, a, (p ** d - 1) // 2, f), ring.one)
        g = ring.gcd(f, s)
        if 1 <= pdeg(g) < n:
            return (_equal_degree_split(ring, g, d, rng)
                    + _equal_degree_split(ring, ring.exact_div(f, g), d, rng))


def poly_factorization(ring, a):
    """[(monic irreducible, exponent)] of the nonzero a, sorted."""
    rng = random.Random(0)
    out = []
    for g, e in squarefree_parts(ring, ring.canonical(a)):
        for h, d in distinct_degree_parts(ring, g):
            out.extend((q, e) for q in _equal_degree_split(ring, h, d, rng))
    return sorted(out)


# ---------------------------------------------------------------------------


class GroundRing:
    """The base PID R; the operations both rings share.

    Subclasses define the element arithmetic, ``xgcd``/``gcd``, unit
    normalization, ``reduce`` (a fraction to lowest terms), factoring
    and parsing.
    """

    def __eq__(self, other):
        return (type(other) is type(self) and self.p == other.p
                and self.var == other.var)

    def __hash__(self):
        return hash((type(self).__name__, self.p, self.var))

    def is_zero(self, a):
        return a == self.zero

    def divides(self, a, b):
        """Whether a | b."""
        if self.is_zero(a):
            return self.is_zero(b)
        return self.is_zero(self.divmod(b, a)[1])

    def exact_div(self, a, b):
        q, r = self.divmod(a, b)
        if not self.is_zero(r):
            raise ZeroDivisionError("non-exact division")
        return q

    def canonical(self, a):
        return self.unit_normalize(a)[1]

    def valuation(self, a, prime):
        if self.is_zero(a):
            raise ZeroElement("valuation of zero")
        v = 0
        while True:
            q, r = self.divmod(a, prime)
            if not self.is_zero(r):
                return v
            a, v = q, v + 1


class IntegerRing(GroundRing):
    """Z, on plain Python ints."""

    p = None
    var = None
    characteristic = 0
    zero = 0
    one = 1

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    gcd = staticmethod(math.gcd)

    def __repr__(self):
        return "Z"

    def divmod(self, a, b):
        q, r = divmod(a, b)
        if r < 0:  # keep 0 <= r < |b|
            q, r = q + 1, r - b
        return q, r

    def exact_div(self, a, b):
        q, r = divmod(a, b)
        if r:
            raise ZeroDivisionError("non-exact division")
        return q

    def xgcd(self, a, b):
        """Return (g, x, y) with g = x*a + y*b and g >= 0."""
        x0, x1, y0, y1 = 1, 0, 0, 1
        while b:
            q, r = divmod(a, b)
            if r < 0:
                q, r = q + 1, r - b
            a, b = b, r
            x0, x1 = x1, x0 - q * x1
            y0, y1 = y1, y0 - q * y1
        if a < 0:
            return -a, -x0, -y0
        return a, x0, y0

    def reduce(self, num, den):
        """(num, den) in lowest terms with den > 0."""
        if den == 1:
            return num, 1
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = math.gcd(num, den)
        if den < 0:
            g = -g
        return num // g, den // g

    def is_unit(self, a):
        return a == 1 or a == -1

    def unit_inverse(self, u):
        return u

    def unit_normalize(self, a):
        """Return (u, n) with a = u*n, u = +-1 and n >= 0; zero gives (1, 0)."""
        return (1, a) if a >= 0 else (-1, -a)

    def from_int(self, n):
        return n

    def is_prime(self, a):
        return int_is_prime(abs(a))

    def factor(self, a):
        """Factor a nonzero integer into positive primes: [(prime, exp)]."""
        if not a:
            raise ZeroElement("cannot factor zero")
        return int_factorization(abs(a))

    def to_str(self, a):
        return str(a)

    def from_str(self, s):
        s = s.strip().replace(" ", "")
        if not re.fullmatch(r"-?\d+", s):
            raise ParseError("bad integer %r" % (s,))
        return int(s)


class PolyRing(GroundRing):
    """F_p[t] for a small prime p, on coefficient tuples."""

    zero = ()
    one = (1,)

    def __init__(self, p, var="t"):
        if not isinstance(p, int) or not int_is_prime(p):
            raise NotPrime("F_p[t] needs a prime p, got %r" % (p,))
        self.p = self.characteristic = int(p)
        self.var = var

    def __repr__(self):
        return "F_%d[%s]" % (self.p, self.var)

    def add(self, a, b):
        return padd(a, b, self.p)

    def sub(self, a, b):
        return padd(a, pneg(b, self.p), self.p)

    def neg(self, a):
        return pneg(a, self.p)

    def mul(self, a, b):
        return pmul(a, b, self.p)

    def divmod(self, a, b):
        return pdivmod(a, b, self.p)

    def xgcd(self, a, b):
        """Return (g, x, y) with g = x*a + y*b, g monic (or zero)."""
        x0, x1, y0, y1 = self.one, self.zero, self.zero, self.one
        g, g1 = a, b
        while g1:
            q, r = self.divmod(g, g1)
            g, g1 = g1, r
            x0, x1 = x1, self.sub(x0, self.mul(q, x1))
            y0, y1 = y1, self.sub(y0, self.mul(q, y1))
        u, g_n = self.unit_normalize(g)
        if u != self.one:
            ui = self.unit_inverse(u)
            x0, y0 = self.mul(ui, x0), self.mul(ui, y0)
        return g_n, x0, y0

    def gcd(self, a, b):
        """The monic gcd (zero for gcd(0, 0))."""
        p = self.p
        while b:
            a, b = b, pdivmod(a, b, p)[1]
        return self.canonical(a)

    def reduce(self, num, den):
        """(num, den) in lowest terms with den monic."""
        if den == (1,):
            return num, den
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return (), (1,)
        g = self.gcd(num, den)
        if g != (1,):
            num, den = self.exact_div(num, g), self.exact_div(den, g)
        u, den = self.unit_normalize(den)
        if u != (1,):
            num = self.mul(self.unit_inverse(u), num)
        return num, den

    def is_unit(self, a):
        return len(a) == 1

    def unit_inverse(self, u):
        return (pow(u[0], self.p - 2, self.p),)

    def unit_normalize(self, a):
        """Return (u, n) with a = u*n, u a unit and n monic; zero gives
        (1, 0)."""
        if not a or a[-1] == 1:
            return self.one, a
        lead, p = a[-1], self.p
        inv = pow(lead, p - 2, p)
        return (lead,), tuple((c * inv) % p for c in a)

    def from_int(self, n):
        return ptrim([n % self.p])

    def is_prime(self, a):
        if pdeg(a) < 1:
            return False
        fac = self.factor(a)
        return len(fac) == 1 and fac[0][1] == 1

    def factor(self, a):
        """Factor a nonzero polynomial into monic primes: [(prime, exp)]."""
        if not a:
            raise ZeroElement("cannot factor zero")
        return poly_factorization(self, a)

    def to_str(self, a):
        if not a:
            return "0"
        terms = []
        for i in range(len(a) - 1, -1, -1):
            c = a[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("%s%s" % ("" if c == 1 else c, self.var))
            else:
                terms.append("%s%s^%d" % ("" if c == 1 else c, self.var, i))
        return "+".join(terms)

    def from_str(self, s):
        s = s.strip().replace(" ", "")
        if not s:
            raise ParseError("empty polynomial string")
        if not re.fullmatch(r"[-0-9%s^+]+" % re.escape(self.var), s):
            raise ParseError("bad polynomial %r" % (s,))
        coeffs = {}
        for term in s.replace("-", "+-").split("+"):
            if not term:
                continue
            m = re.fullmatch(
                r"(-?)(\d*)(?:(%s)(?:\^(\d+))?)?" % re.escape(self.var), term
            )
            if not m or (not m.group(2) and not m.group(3)):
                raise ParseError("bad polynomial term %r" % (term,))
            sign = -1 if m.group(1) else 1
            c = int(m.group(2)) if m.group(2) else 1
            if m.group(3):
                e = int(m.group(4)) if m.group(4) else 1
            else:
                e = 0
            coeffs[e] = coeffs.get(e, 0) + sign * c
        if not coeffs:
            return self.zero
        out = [0] * (max(coeffs) + 1)
        for e, c in coeffs.items():
            out[e] = c % self.p
        return ptrim(out)


ZZ = IntegerRing()


@functools.lru_cache(maxsize=None)
def poly_ring(p, var="t"):
    return PolyRing(p, var)


# ---------------------------------------------------------------------------


class Frac:
    """A reduced fraction of ground-ring elements.

    The denominator is always unit-normalized (positive / monic), so equal
    fractions have identical representations.  ``ring.reduce`` brings a
    (num, den) pair to lowest terms.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring, num, den=None, _normalized=False):
        self.ring = ring
        if den is None:
            self.num, self.den = num, ring.one
        elif _normalized:
            self.num, self.den = num, den
        else:
            self.num, self.den = ring.reduce(num, den)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def of(ring, value):
        if isinstance(value, Frac):
            return value
        if isinstance(value, int):
            return Frac(ring, ring.from_int(value))
        return Frac(ring, value)

    def _coerce(self, other):
        if isinstance(other, Frac):
            if other.ring != self.ring:
                raise TypeError("fraction ring mismatch")
            return other
        if isinstance(other, int):
            return Frac(self.ring, self.ring.from_int(other))
        return NotImplemented

    # -- predicates -----------------------------------------------------------

    def is_zero(self):
        return not self.num  # 0 over Z, () over F_p[t]

    def is_integral(self):
        return self.den == self.ring.one

    def integral_value(self):
        if not self.is_integral():
            raise InputNotIntegral("entry %s is not in the ground ring" % (self,))
        return self.num

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Frac or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        r = self.ring
        return Frac(
            r,
            r.add(r.mul(self.num, other.den), r.mul(other.num, self.den)),
            r.mul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return Frac(self.ring, self.ring.neg(self.num), self.den, _normalized=True)

    def __sub__(self, other):
        if type(other) is not Frac or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        r = self.ring
        return Frac(
            r,
            r.sub(r.mul(self.num, other.den), r.mul(other.num, self.den)),
            r.mul(self.den, other.den),
        )

    def __mul__(self, other):
        if type(other) is not Frac or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        r = self.ring
        return Frac(r, r.mul(self.num, other.num), r.mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero fraction")
        r = self.ring
        return Frac(r, r.mul(self.num, other.den), r.mul(self.den, other.num))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        r = self.ring
        return Frac(r, self.den, self.num)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._coerce(other)
        return (
            isinstance(other, Frac)
            and (self.ring is other.ring or self.ring == other.ring)
            and self.num == other.num
            and self.den == other.den
        )

    def __bool__(self):
        return bool(self.num)

    # -- formatting -----------------------------------------------------------

    def __str__(self):
        r = self.ring
        if self.den == r.one:
            return r.to_str(self.num)
        return "%s/%s" % (r.to_str(self.num), r.to_str(self.den))

    def __repr__(self):
        return "Frac(%s)" % (self,)

    @staticmethod
    def from_str(ring, s):
        s = s.strip()
        if "/" in s:
            num_s, den_s = s.split("/", 1)
            return Frac(ring, ring.from_str(num_s), ring.from_str(den_s))
        return Frac(ring, ring.from_str(s))


def frac0(ring):
    return Frac(ring, ring.zero, _normalized=True)


def frac1(ring):
    return Frac(ring, ring.one, _normalized=True)
