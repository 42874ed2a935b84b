"""Exact arithmetic for the benchmark's generator and correctness oracles.

Written without the package under test, so that its answers are checked
against a second implementation: rational linear algebra over
``fractions.Fraction``, integer polynomials, algebras given by structure
constants, Hilbert symbols, and polynomials over F_p.
"""

from fractions import Fraction
from math import gcd


# -- rational matrices ------------------------------------------------------


def to_fracs(rows):
    return [[Fraction(x) for x in row] for row in rows]


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col) if x and y) for col in cols]
            for row in a]


def _eliminate(m):
    """Row echelon form in place; returns (rank, determinant sign/product)."""
    m = to_fracs(m)
    nr = len(m)
    nc = len(m[0]) if m else 0
    r, det = 0, Fraction(1)
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            det = -det
        det *= m[r][c]
        inv = 1 / m[r][c]
        for i in range(r + 1, nr):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == nr:
            break
    return r, det


def det(m):
    return _eliminate(m)[1] if len(m) == len(m[0]) else Fraction(0)


def rank(m):
    return _eliminate(m)[0] if m else 0


def inverse(m):
    n = len(m)
    aug = [row + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(to_fracs(m))]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def unimodular(rng, n, steps=None):
    """A random integer matrix of determinant +-1 with small entries."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    if n == 1:
        return [[rng.choice((-1, 1))]]
    for _ in range(steps if steps is not None else 2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    rng.shuffle(u)
    return u


# -- integer polynomials (coefficient lists, lowest degree first) ----------


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_mod(a, f):
    """Remainder of a modulo the monic polynomial f."""
    a = list(a)
    n = len(f) - 1
    for k in range(len(a) - 1, n - 1, -1):
        c = a[k]
        if c:
            for i in range(n + 1):
                a[k - n + i] -= c * f[i]
    return (a + [0] * n)[:n]


def poly_eval(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def poly_str(f, var="x"):
    """Format like "x^3-2x+5" (highest degree first)."""
    terms = []
    for k in range(len(f) - 1, -1, -1):
        c = f[k]
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            body = (("" if mag == 1 else str(mag)) + var
                    + ("^%d" % k if k > 1 else ""))
        terms.append(sign + body)
    text = "".join(terms)
    return text[1:] if text.startswith("+") else text


def poly_disc(f):
    """Discriminant of a monic integer polynomial, via the Sylvester matrix."""
    n = len(f) - 1
    df = [k * f[k] for k in range(1, n + 1)]
    m = n - 1
    size = n + m
    syl = []
    for i in range(m):
        row = [0] * size
        for k, c in enumerate(reversed(f)):
            row[i + k] = c
        syl.append(row)
    for i in range(n):
        row = [0] * size
        for k, c in enumerate(reversed(df)):
            row[i + k] = c
        syl.append(row)
    res = det(syl)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return int(sign * res)


def companion_table(f):
    """Structure constants of Q[x]/(f) in the basis 1, x, ..., x^(n-1)."""
    n = len(f) - 1
    pows = []
    for k in range(2 * n - 1):
        pows.append(poly_mod([0] * k + [1], f))
    return [[pows[i + j] for j in range(n)] for i in range(n)]


# -- algebras given by structure constants ---------------------------------


def alg_mul(table, x, y):
    n = len(table)
    out = [Fraction(0)] * n
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            f = xi * yj
            for k, c in enumerate(table[i][j]):
                if c:
                    out[k] += f * c
    return out


def trace_gram(table):
    """Gram matrix of the regular trace form on the algebra basis."""
    n = len(table)
    tr = [sum(Fraction(table[i][k][k]) for k in range(n)) for i in range(n)]
    return [[sum(Fraction(c) * t for c, t in zip(table[i][j], tr))
             for j in range(n)] for i in range(n)]


def order_disc(table, basis, gram=None):
    b = to_fracs(basis)
    g = gram if gram is not None else trace_gram(table)
    bt = [list(col) for col in zip(*b)]
    return det(mat_mul(mat_mul(b, g), bt))


def is_integral_row(row):
    return all(x.denominator == 1 for x in row)


def lattice_contains(sup, sub):
    """Whether the Z-span of the rows of sup contains every row of sub."""
    inv = inverse(sup)
    return all(is_integral_row(r) for r in mat_mul(to_fracs(sub), inv))


def is_order(table, basis, one):
    """Whether the rows of basis span a ring containing one."""
    b = to_fracs(basis)
    inv = inverse(b)
    if not is_integral_row(mat_mul([to_fracs([one])[0]], inv)[0]):
        return False
    prods = [alg_mul(table, x, y) for x in b for y in b]
    return all(is_integral_row(r) for r in mat_mul(prods, inv))


# -- finite abelian groups ---------------------------------------------------


def invariant_factors(orders):
    """Invariant factors (ascending, units dropped) of the direct sum of
    cyclic groups of the given orders; gcd/lcm exchange, no factoring."""
    a = [abs(x) for x in orders]
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            g = gcd(a[i], a[j])
            if g:
                a[i], a[j] = g, a[i] * a[j] // g
    return [x for x in a if x != 1]


# -- quaternion algebras over Q ----------------------------------------------


def _legendre(a, p):
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _split_p(a, p):
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v, a


def hilbert(a, b, p):
    """Hilbert symbol (a, b)_p for nonzero integers a, b and a prime p."""
    alpha, u = _split_p(a, p)
    beta, v = _split_p(b, p)
    if p == 2:
        eps = lambda x: ((x - 1) // 2) % 2
        omega = lambda x: ((x * x - 1) // 8) % 2
        e = eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)
        return -1 if e % 2 else 1
    s = (-1) ** (alpha * beta * ((p - 1) // 2))
    return s * _legendre(u, p) ** beta * _legendre(v, p) ** alpha


def prime_divisors(n):
    n, out, k = abs(n), [], 2
    while k * k <= n:
        if n % k == 0:
            out.append(k)
            while n % k == 0:
                n //= k
        k += 1
    if n > 1:
        out.append(n)
    return out


def ramified_primes(a, b):
    """Finite primes at which the quaternion algebra (a, b | Q) ramifies."""
    return [p for p in prime_divisors(2 * a * b) if hilbert(a, b, p) == -1]


def quaternion_table(a, b):
    """Structure constants of (a, b | Q) in the basis 1, i, j, k."""
    z = [0, 0, 0, 0]

    def vec(k, c=1):
        v = list(z)
        v[k] = c
        return v

    return [
        [vec(0), vec(1), vec(2), vec(3)],
        [vec(1), vec(0, a), vec(3), vec(2, a)],
        [vec(2), vec(3, -1), vec(0, b), vec(1, -b)],
        [vec(3), vec(2, -a), vec(1, b), vec(0, -a * b)],
    ]


def matrix_table(n):
    """Structure constants of Mat_n(Q), basis e_11, e_12, ..., e_nn."""
    dim = n * n
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(n):
        for b in range(n):
            for d in range(n):
                table[a * n + b][b * n + d][a * n + d] = 1
    return table


# -- polynomials over F_p (tuples, lowest degree first, no trailing zeros) --


def fp_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def fp_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return fp_trim(out)


def fp_pow(a, e, p):
    out = (1,)
    for _ in range(e):
        out = fp_mul(out, a, p)
    return out


def fp_str(a, var="t"):
    """Format like "t^2+2t+1" (highest degree first, "0" for zero)."""
    if not a:
        return "0"
    terms = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if not c:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            terms.append(("" if c == 1 else str(c)) + var
                         + ("^%d" % k if k > 1 else ""))
    return "+".join(terms)


def fp_parse(s, p, var="t"):
    coeffs = {}
    for term in s.replace("-", "+-").split("+"):
        if not term:
            continue
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        if var in term:
            head, _, tail = term.partition(var)
            c = int(head) if head else 1
            e = int(tail[1:]) if tail.startswith("^") else 1
        else:
            c, e = int(term), 0
        coeffs[e] = (coeffs.get(e, 0) + sign * c) % p
    if not coeffs:
        return ()
    return fp_trim([coeffs.get(k, 0) for k in range(max(coeffs) + 1)])


def fp_frac_parse(s, p, var="t"):
    """An entry "num" or "num/den" as a (num, den) pair of tuples."""
    num, _, den = s.partition("/")
    return fp_parse(num, p, var), fp_parse(den, p, var) if den else (1,)
