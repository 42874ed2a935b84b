"""Ground rings and their fraction fields.

Two principal-ideal ground rings are supported: the integers, and the
polynomial ring F_p[t] for a word-sized prime p.  Ring elements are plain
ints (for Z) or tuples of coefficients mod p, lowest degree first, with no
trailing zeros (for F_p[t]); the empty tuple is zero.  All arithmetic is
exact.
"""

import functools
import itertools
import random
import re

from .errors import NotPrime, ParseError, ZeroElement

INT = "Z"
POLY = "poly"


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


@functools.lru_cache(maxsize=1)
def _trial_primes():
    sieve = bytearray([1]) * TRIAL_BOUND
    sieve[:2] = b"\0\0"
    for i in range(2, int(TRIAL_BOUND ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, TRIAL_BOUND, i)))
    return tuple(itertools.compress(range(TRIAL_BOUND), sieve))


def int_factorization(n):
    """[(prime, exponent)] of n >= 1, sorted."""
    out = []
    for q in _trial_primes():
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


def _squarefree_parts(ring, f):
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


def _distinct_degree_parts(ring, f):
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
    for g, e in _squarefree_parts(ring, ring.canonical(a)):
        for h, d in _distinct_degree_parts(ring, g):
            out.extend((q, e) for q in _equal_degree_split(ring, h, d, rng))
    return sorted(out)


# ---------------------------------------------------------------------------


class GroundRing:
    """The base PID R: the integers, or F_p[t] for small prime p."""

    def __init__(self, kind, p=None, var="t"):
        if kind not in (INT, POLY):
            raise ParseError("unknown ground ring kind %r" % (kind,))
        self.kind = kind
        if kind == POLY:
            if not isinstance(p, int) or not int_is_prime(p):
                raise NotPrime("F_p[t] needs a prime p, got %r" % (p,))
            self.p = int(p)
            self.var = var
            self.characteristic = self.p
            self.zero = ()
            self.one = (1,)
        else:
            self.p = None
            self.var = None
            self.characteristic = 0
            self.zero = 0
            self.one = 1

    # -- identity / comparison ------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, GroundRing)
            and self.kind == other.kind
            and self.p == other.p
            and self.var == other.var
        )

    def __hash__(self):
        return hash((self.kind, self.p, self.var))

    def __repr__(self):
        if self.kind == INT:
            return "Z"
        return "F_%d[%s]" % (self.p, self.var)

    # -- basic arithmetic on raw elements ------------------------------------

    def is_zero(self, a):
        return a == self.zero

    def add(self, a, b):
        if self.kind == INT:
            return a + b
        return padd(a, b, self.p)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        if self.kind == INT:
            return -a
        return pneg(a, self.p)

    def mul(self, a, b):
        if self.kind == INT:
            return a * b
        return pmul(a, b, self.p)

    def divmod(self, a, b):
        if self.kind == INT:
            q, r = divmod(a, b)
            if r < 0:  # keep 0 <= r < |b|
                q, r = q + 1, r - b
            return q, r
        return pdivmod(a, b, self.p)

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

    def xgcd(self, a, b):
        """Return (g, x, y) with g = x*a + y*b, g unit-normalized."""
        x0, x1, y0, y1 = self.one, self.zero, self.zero, self.one
        g, g1 = a, b
        while not self.is_zero(g1):
            q, r = self.divmod(g, g1)
            g, g1 = g1, r
            x0, x1 = x1, self.sub(x0, self.mul(q, x1))
            y0, y1 = y1, self.sub(y0, self.mul(q, y1))
        u, g_n = self.unit_normalize(g)
        if not self.is_unit_value(u, check_one=True):
            ui = self.unit_inverse(u)
            x0, y0 = self.mul(ui, x0), self.mul(ui, y0)
        return g_n, x0, y0

    def gcd(self, a, b):
        return self.xgcd(a, b)[0]

    def size(self, a):
        """A Euclidean size used for pivot selection."""
        if self.kind == INT:
            return abs(a)
        return len(a)

    # -- units / normalization ------------------------------------------------

    def is_unit(self, a):
        if self.kind == INT:
            return a in (1, -1)
        return len(a) == 1

    def is_unit_value(self, u, check_one=False):
        if check_one:
            return u == self.one
        return self.is_unit(u)

    def unit_inverse(self, u):
        if self.kind == INT:
            return u
        return (pow(u[0], self.p - 2, self.p),)

    def unit_normalize(self, a):
        """Return (u, n) with a = u*n, u a unit and n canonical.

        Canonical means nonnegative for Z and monic for F_p[t]; zero
        normalizes to (1, 0).
        """
        if self.is_zero(a):
            return self.one, self.zero
        if self.kind == INT:
            return (1, a) if a > 0 else (-1, -a)
        lead = a[-1]
        if lead == 1:
            return self.one, a
        inv = pow(lead, self.p - 2, self.p)
        return (lead,), tuple((c * inv) % self.p for c in a)

    def canonical(self, a):
        return self.unit_normalize(a)[1]

    def from_int(self, n):
        if self.kind == INT:
            return n
        return ptrim([n % self.p])

    # -- primes ---------------------------------------------------------------

    def is_prime(self, a):
        if self.kind == INT:
            return int_is_prime(abs(a))
        if pdeg(a) < 1:
            return False
        fac = self.factor(a)
        return len(fac) == 1 and fac[0][1] == 1

    def factor(self, a):
        """Factor a nonzero element into canonical primes: [(prime, exp)]."""
        if self.is_zero(a):
            raise ZeroElement("cannot factor zero")
        if self.kind == INT:
            return int_factorization(abs(a))
        return poly_factorization(self, a)

    def valuation(self, a, prime):
        if self.is_zero(a):
            raise ZeroElement("valuation of zero")
        v = 0
        while True:
            q, r = self.divmod(a, prime)
            if not self.is_zero(r):
                return v
            a, v = q, v + 1

    # -- parsing / formatting -------------------------------------------------

    def to_str(self, a):
        if self.kind == INT:
            return str(a)
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
        if self.kind == INT:
            if not re.fullmatch(r"-?\d+", s):
                raise ParseError("bad integer %r" % (s,))
            return int(s)
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


ZZ = GroundRing(INT)


def poly_ring(p, var="t"):
    return GroundRing(POLY, p=p, var=var)


# ---------------------------------------------------------------------------


class Frac:
    """A reduced fraction of ground-ring elements.

    The denominator is always unit-normalized (positive / monic), so equal
    fractions have identical representations.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring, num, den=None, _normalized=False):
        self.ring = ring
        if den is None:
            den = ring.one
        if _normalized:
            self.num, self.den = num, den
            return
        if ring.is_zero(den):
            raise ZeroDivisionError("zero denominator")
        if ring.is_zero(num):
            self.num, self.den = ring.zero, ring.one
            return
        g = ring.gcd(num, den)
        if not ring.is_unit(g):
            num = ring.exact_div(num, g)
            den = ring.exact_div(den, g)
        u, den = ring.unit_normalize(den)
        if not ring.is_unit_value(u, check_one=True):
            num = ring.mul(ring.unit_inverse(u), num)
        self.num, self.den = num, den

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def of(ring, value):
        if isinstance(value, Frac):
            return value
        if isinstance(value, int):
            return Frac(ring, ring.from_int(value), _normalized=True) \
                if ring.kind == POLY else Frac(ring, value, _normalized=True)
        return Frac(ring, value, _normalized=True)

    def _coerce(self, other):
        if isinstance(other, Frac):
            if other.ring != self.ring:
                raise TypeError("fraction ring mismatch")
            return other
        if isinstance(other, int):
            return Frac(self.ring, self.ring.from_int(other), _normalized=True)
        return NotImplemented

    # -- predicates -----------------------------------------------------------

    def is_zero(self):
        return self.ring.is_zero(self.num)

    def is_integral(self):
        return self.den == self.ring.one

    def integral_value(self):
        from .errors import InputNotIntegral

        if not self.is_integral():
            raise InputNotIntegral("entry %s is not in the ground ring" % (self,))
        return self.num

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
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
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
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

    def __rtruediv__(self, other):
        return Frac.of(self.ring, other) / self

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
            and self.ring == other.ring
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

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
