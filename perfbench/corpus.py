"""Seeded corpora of ordinary maxord CLI documents, each with its oracle.

``generate(workload, seed)`` returns a list of ``Case`` objects.  A case
holds the JSON document the program reads, the CLI command and flags, and
``check``: a function from the program's outcome to a verdict.  Oracles
use only ``exact`` (closed forms, a second exact implementation, or values
pinned from an independent implementation), never the package under test.
``known`` holds the exact messages of the defects the program had when the
benchmark was written, for this document only (see ``Case.verdict``).

The seed picks parameters from pools whose members cost about the same,
and a random unimodular presentation of each input basis, so that runs
with different seeds measure comparable work.
"""

import json
import random
from fractions import Fraction
from math import isqrt, prod

from exact import (
    alg_mul,
    companion_table,
    fp_frac_parse,
    fp_mul,
    fp_pow,
    fp_str,
    fp_trim,
    invariant_factors,
    is_order,
    lattice_contains,
    mat_mul,
    matrix_table,
    order_disc,
    poly_disc,
    poly_eval,
    poly_mul,
    poly_str,
    prime_divisors,
    quaternion_table,
    ramified_primes,
    rank,
    to_fracs,
    trace_gram,
    unimodular,
)

# Discriminants of the maximal orders of Q[x]/(f), pinned from SymPy's
# independent Round Two implementation by perfbench/pin_fields.py.
FIELD_DISC = {
    "x^8-768": -36691771392,
    "x^8-2816": -326940477095936,
    "x^8-4864": -14996679241498624,
    "x^6-326592": 784147392,
    "x^6-513216": 7513995456,
    "x^6-1073088": 300294019008,
    "x^6-1446336": 1335721669056,
    "x^6-5103000000": 784147392,
    "x^6-8019000000": 7513995456,
}

# ROADMAP item 1(a), as it stands where this benchmark was written: the
# certificates of the (correct) maximal order are false at these primes.
CERT_REJECTED = {
    "x^6-326592": ["2", "3"],
    "x^6-513216": ["2"],
    "x^6-1073088": ["2"],
    "x^6-1446336": ["2", "3"],
    "x^6-5103000000": ["2", "3"],
    "x^6-8019000000": ["2"],
}

# found by this benchmark: y^3 = s^3 (t^2 + 3) over F_5[t], s = t + b for
# b in {2, 3, 4}
BOUND_EXCEEDED = ("exit 1, InternalError: p-maximalization did not "
                  "terminate within its bound")


class Case:
    def __init__(self, name, command, doc, check, flags=(), known=()):
        self.name = name
        self.command = command
        self.doc = doc
        self.check = check
        self.flags = list(flags)
        self.known = set(known)

    def argv(self, path):
        return [self.command, path] + self.flags

    def verdict(self, outcome):
        """("ok", ""), or ("known", msg) when the oracle's message is one
        pinned for this document, or ("fail", msg).  Known defects count in
        fail_ratio but not as failures of the run; any other difference, a
        known kind on another document or at another prime included, is a
        failure."""
        status, msg = self.check(outcome)
        if status == "fail" and msg in self.known:
            return ("known", msg)
        return (status, msg)


class Outcome:
    """Exit code plus the parsed stdout document or stderr error record."""

    def __init__(self, code, stdout, stderr):
        self.code = code
        self.out = _json_or_none(stdout)
        self.err = _json_or_none(stderr)


def _json_or_none(text):
    try:
        return json.loads(text) if text.strip() else None
    except ValueError:
        return None


OK = ("ok", "")


def fail(msg):
    return ("fail", msg)


def _error(o):
    err = o.err or {}
    return "exit %d, %s: %s" % (o.code, err.get("code"), err.get("message"))


# -- small helpers ------------------------------------------------------------


def _s(x):
    return str(Fraction(x))


def _rows(m):
    return [[_s(x) for x in row] for row in m]


def _parse_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _squarefree(n):
    return n != 0 and all(n % (p * p) for p in prime_divisors(n))


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _present(rng, basis):
    """The same lattice, presented by a random unimodular change of basis."""
    return mat_mul(to_fracs(unimodular(rng, len(basis))), to_fracs(basis))


def _poly_algebra(f):
    return {"poly_quotient": {"modulus": poly_str(f)}}


SQUAREFREE = [d for d in range(-30, 31) if d not in (0, 1) and _squarefree(d)]
# +-p = 1 mod 4 for a prime p: one odd ramified prime, as cheap as any other
PRIME_ONE_MOD_4 = [d for d in SQUAREFREE
                   if d % 4 == 1 and len(prime_divisors(d)) == 1]


def _certificates(o, primes):
    """Verdict on the certificate list of a maximal-order output."""
    certs = o.out.get("certificates", [])
    got = sorted(c["prime"] for c in certs)
    if got != sorted(primes):
        return fail("certificates at %s, expected %s" % (got, sorted(primes)))
    bad = [c["prime"] for c in certs if not c["verdict"]]
    if bad:
        return fail(_rejected(sorted(bad)))
    return OK


def _rejected(primes):
    return "maximal output rejected at %s" % ",".join(primes)


# -- oracles ------------------------------------------------------------------


def check_max_order_z(table, one, start, disc_max, basis=None):
    """maximal-order over Z: the output is an order containing the input,
    its discriminant is that of every maximal order of the algebra, its
    index agrees with the discriminant ratio, and every certificate says
    maximal."""
    gram = trace_gram(table)
    disc_start = order_disc(table, start, gram)
    index = isqrt(int(disc_start / disc_max))
    primes = [str(p) for p in prime_divisors(int(disc_max))]

    def check(o):
        if o.code != 0 or not o.out:
            return fail(_error(o))
        out = _parse_rows(o.out["basis"])
        if basis is not None and out != to_fracs(basis):
            return fail("basis %s" % o.out["basis"])
        if not is_order(table, out, one):
            return fail("output basis is not an order")
        if not lattice_contains(out, start):
            return fail("output does not contain the input order")
        disc = order_disc(table, out, gram)
        if disc != disc_max:
            return fail("discriminant %s, expected %s" % (disc, disc_max))
        if o.out["index"] != str(index):
            return fail("index %s, expected %s" % (o.out["index"], index))
        return _certificates(o, primes)

    return check


def check_max_order_fp(p, rows, index, primes):
    """maximal-order over F_p[t] against a closed-form basis; rows and
    index are (num, den) pairs and a polynomial, as tuples."""

    def check(o):
        if o.code != 0 or not o.out:
            return fail(_error(o))
        got = [[fp_frac_parse(x, p) for x in row] for row in o.out["basis"]]
        if got != rows:
            return fail("basis %s" % o.out["basis"])
        if o.out["index"] != fp_str(index):
            return fail("index %s, expected %s"
                        % (o.out["index"], fp_str(index)))
        return _certificates(o, primes)

    return check


def check_certify(maximal, failing=None):
    def check(o):
        if o.out is None:
            return fail(_error(o))
        if maximal:
            if o.code == 0 and o.out["verdict"] is True:
                return OK
            return fail("exit %d, failing prime %s"
                        % (o.code, o.out.get("failing_prime")))
        if (o.code == 2 and o.out["verdict"] is False
                and o.out.get("failing_prime") == str(failing)):
            return OK
        return fail("exit %d, failing prime %r, expected 2 and %s"
                    % (o.code, o.out.get("failing_prime"), failing))

    return check


def check_parse_error(o):
    if o.code == 1 and (o.err or {}).get("code") == "ParseError":
        return OK
    return fail(_error(o))


def check_doc(expected):
    """Exit 0 and an output document equal to the expected one, with
    numeric strings compared as rationals."""

    def norm(v):
        if isinstance(v, dict):
            return {k: norm(x) for k, x in v.items()}
        if isinstance(v, list):
            return [norm(x) for x in v]
        if isinstance(v, str):
            try:
                return Fraction(v)
            except ValueError:
                return v
        return v

    def check(o):
        if o.code != 0 or o.out is None:
            return fail(_error(o))
        if norm(o.out) != norm(expected):
            return fail("output %s, expected %s" % (o.out, expected))
        return OK

    return check


# -- document builders --------------------------------------------------------


def regular_lattice(f, basis=None, prime=None):
    """Period lattice of Z[x]/(f) acting on itself (or on the sublattice
    with the given basis rows) by multiplication."""
    table = companion_table(f)
    n = len(table)
    doc = {
        "basis": _rows(basis if basis is not None else _identity(n)),
        "action": [_rows([table[i][j] for j in range(n)]) for i in range(n)],
    }
    if prime is not None:
        doc["prime"] = str(prime)
    return doc


def diagonal_presentation(rng, roots, r, s, n):
    """Coordinates over Z[x]/(f), f of degree n, of alpha = U diag(x -
    root_k) V with U, V random unimodular over Z: coker(alpha), and so the
    work on it, does not depend on U and V."""
    u, v = unimodular(rng, r), unimodular(rng, s)
    alpha = []
    for t in range(r):
        row = []
        for w in range(s):
            a = sum(u[t][k] * v[k][w] for k in range(r))
            b = sum(u[t][k] * v[k][w] * -roots[k] for k in range(r))
            row.append([b, a] + [0] * (n - 2))
        alpha.append(row)
    return alpha


def serre_lattice_case(rng, name, f, r, s):
    """coker(alpha) for alpha = U diag(x - c_k) V with U, V unimodular over
    Z; O/(x - c)O is cyclic of order |f(c)|, so the torsion of the
    tensored lattice has the invariant factors of the |f(c_k)|."""
    n = len(f) - 1
    cs = rng.sample([c for c in range(-3, 4) if poly_eval(f, c)], r)
    alpha = diagonal_presentation(rng, cs, r, s, n)
    doc = {
        "order": {"algebra": _poly_algebra(f), "basis": _rows(_identity(n))},
        "alpha": [_rows(row) for row in alpha],
        "lattice": regular_lattice(f),
    }
    expected = {
        "rank": (s - r) * n,
        "basis": _rows(_identity((s - r) * n)),
        "kernel_divisors": [str(d) for d in
                            invariant_factors([poly_eval(f, c) for c in cs])],
    }
    return Case(name, "serre-lattice", doc, check_doc(expected))


def serre_class_case(rng, name, roots, mults, r, s):
    """Isogeny type of coker(alpha) tensored with prod E_i^(m_i), where
    O = Z[x]/prod(x - root_i) maps x to root_i on factor i; the
    multiplicity of E_i is m_i * (s - rank alpha(root_i))."""
    f = [1]
    for a in roots:
        f = poly_mul(f, [-a, 1])
    n = len(roots)
    alpha = diagonal_presentation(rng, roots, r, s, n)
    # image of x^k in E = prod Mat_{m_i}(Q), block by block
    dim_e = sum(m * m for m in mults)
    emb = []
    for k in range(n):
        row, off = [0] * dim_e, 0
        for a, m in zip(roots, mults):
            for d in range(m):
                row[off + d * m + d] = a ** k
            off += m * m
        emb.append(row)
    factors, got = [], []
    for i, (a, m) in enumerate(zip(roots, mults)):
        value = [[poly_eval(e, a) for e in row] for row in alpha]
        mult = m * (s - rank(value))
        factors.append({"label": "E%d" % (i + 1), "dim": 1, "endo": "Q",
                        "mult": m})
        got.append({"label": "E%d" % (i + 1), "mult": mult})
    doc = {
        "order": {"algebra": _poly_algebra(f), "basis": _rows(_identity(n))},
        "alpha": [_rows(row) for row in alpha],
        "type": {"factors": factors},
        "embedding": _rows(emb),
    }
    expected = {"factors": got, "dimension": sum(g["mult"] for g in got)}
    return Case(name, "serre-class", doc, check_doc(expected))


def minimal_isogeny_case(name, n, q, m, shifts, prime):
    """O = Z[x]/(x^n - q m^n) inside O' = Z[x/m]; for T = O and for the
    ideals (x - c)O the smallest O'-stable lattice is O'T, and
    O'T/T = O'/O has elementary divisors m, m^2, ..., m^(n-1)."""
    f = [-q * m ** n] + [0] * (n - 1) + [1]
    table = companion_table(f)
    lattices = [regular_lattice(f, prime=prime)]
    for c in shifts:
        gen = [-c, 1] + [0] * (n - 2)
        sub = [alg_mul(table, to_fracs([gen])[0], e)
               for e in to_fracs(_identity(n))]
        lattices.append(regular_lattice(f, basis=sub, prime=prime))
    divs = [str(m ** k) for k in range(1, n)]
    doc = {
        "order": {"algebra": _poly_algebra(f), "basis": _rows(_identity(n))},
        "orderPrime": {"basis": _rows([[Fraction(int(i == j), m ** i)
                                        for j in range(n)]
                                       for i in range(n)])},
        "type": {"factors": [{"label": "E", "dim": 1, "endo": "Q",
                              "mult": 1}]},
        "lattices": lattices,
    }
    expected = {
        "degree": str(m ** (n * (n - 1) // 2 * len(lattices))),
        "kernels": [{"prime": str(prime), "elementary_divisors": divs}
                    for _ in lattices],
    }
    return Case(name, "minimal-isogeny", doc, check_doc(expected))


def z_field_case(rng, name, f):
    """maximal-order on the equation order Z[x]/(f), degree >= 3."""
    table = companion_table(f)
    one = [1] + [0] * (len(f) - 2)
    start = _present(rng, _identity(len(f) - 1))
    doc = {"algebra": _poly_algebra(f), "basis": _rows(start)}
    check = check_max_order_z(table, one, start, FIELD_DISC[poly_str(f)])
    rejected = CERT_REJECTED.get(poly_str(f))
    return Case(name, "maximal-order", doc, check,
                known=[_rejected(rejected)] if rejected else [])


def _order_doc(algebra, start):
    return {"algebra": algebra, "basis": _rows(start)}


# -- workloads ----------------------------------------------------------------


def cli_small(rng):
    """Every command once or twice on small inputs: start-up and document
    (de)serialization dominate, the compute layers are nearly idle."""
    cases = []

    d = rng.choice(SQUAREFREE)
    f = [-d, 0, 1]
    start = _present(rng, _identity(2))
    cases.append(Case("disc-quadratic", "disc",
                      _order_doc(_poly_algebra(f), start),
                      check_doc({"discriminant": str(4 * d)})))

    a, b = rng.choice([-1, -2, -3, -5]), rng.choice([-1, -3, -7, 2, 3])
    cases.append(Case("center-quaternion", "center",
                      {"quaternion": {"a": str(a), "b": str(b)}},
                      check_doc({"center": [["1", "0", "0", "0"]], "dim": 1})))

    root, b = rng.randint(-3, 3), rng.choice([2, 3, 5, 7])
    f = poly_mul([-root, 1], [-b, 0, 1])

    def check_decompose(o, f=f):
        if o.code != 0 or o.out is None:
            return fail(_error(o))
        table = companion_table(f)
        idems = _parse_rows(o.out["idempotents"])
        if sorted(o.out["factor_dims"]) != [1, 2]:
            return fail("factor dims %s" % o.out["factor_dims"])
        total = [sum(col) for col in zip(*idems)]
        if total != [1, 0, 0] or any(alg_mul(table, e, e) != e for e in idems):
            return fail("not a complete set of idempotents")
        return OK

    cases.append(Case("decompose-split-cubic", "decompose", _poly_algebra(f),
                      check_decompose))

    d = rng.choice(PRIME_ONE_MOD_4)
    f = [-d, 0, 1]
    start = _present(rng, _identity(2))
    cases.append(Case("maximal-order-quadratic", "maximal-order",
                      _order_doc(_poly_algebra(f), start),
                      check_max_order_z(companion_table(f), [1, 0], start, d,
                                        basis=[[Fraction(1, 2)] * 2, [0, 1]])))

    table = quaternion_table(-1, -1)
    start = _present(rng, _identity(4))
    hurwitz = [[Fraction(1, 2)] * 4, [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    cases.append(Case("maximal-order-hurwitz", "maximal-order",
                      _order_doc({"quaternion": {"a": "-1", "b": "-1"}},
                                 start),
                      check_max_order_z(table, [1, 0, 0, 0], start, -64,
                                        basis=hurwitz)))

    t = (0, 1)
    cases.append(Case(
        "maximal-order-f2t-inseparable", "maximal-order",
        {"algebra": {"ground": {"poly": {"p": 2, "var": "t"}},
                     "poly_quotient": {"modulus": "x^2+t"},
                     "trusted_semisimple": True},
         "basis": [["1", "0"], ["0", "t"]]},
        check_max_order_fp(2, [[((1,), (1,)), ((), (1,))],
                               [((), (1,)), ((1,), (1,))]], t, ["t"]),
        flags=["--primes", "t"]))

    # ROADMAP 1(a): disc(x^3+x+1) = -31 is squarefree, so Z[x]/(f) is
    # maximal and certify must exit 0
    f = [1, 1, 0, 1]
    start = _present(rng, _identity(3))
    cases.append(Case("certify-x3+x+1", "certify",
                      _order_doc(_poly_algebra(f), start),
                      check_certify(_squarefree(poly_disc(f))),
                      known=["exit 2, failing prime 31"]))

    d = rng.choice(PRIME_ONE_MOD_4)
    start = _present(rng, _identity(2))
    cases.append(Case("certify-quadratic-nonmaximal", "certify",
                      _order_doc(_poly_algebra([-d, 0, 1]), start),
                      check_certify(False, 2)))

    cond = rng.choice([3, 5, 7])
    conductor = [[1, 0, 0, 1], [cond, 0, 0, 0], [0, cond, 0, 0],
                 [0, 0, cond, 0]]
    cases.append(Case("certify-mat2-conductor", "certify",
                      _order_doc({"matrix": {"n": 2}},
                                 _present(rng, conductor)),
                      check_certify(False, prime_divisors(cond)[0])))

    # ROADMAP 1(a): Z x Z inside Q[x]/(x^2 - m^2) has discriminant 1
    m = rng.choice([1, 3, 5])
    f = [-m * m, 0, 1]
    zxz = [[Fraction(1, 2), Fraction(1, 2 * m)],
           [Fraction(1, 2), Fraction(-1, 2 * m)]]
    disc = order_disc(companion_table(f), zxz)
    cases.append(Case("certify-split-zxz", "certify",
                      _order_doc(_poly_algebra(f), zxz),
                      check_certify(_squarefree(int(disc))),
                      flags=["--primes", "2"],
                      known=["exit 2, failing prime 2"]))

    d, p = rng.choice(SQUAREFREE), rng.choice([2, 3, 5, 7])
    if p == 2:
        rad = [[1, 1], [0, 2]] if d % 2 else [[2, 0], [0, 1]]
    else:
        rad = [[p, 0], [0, 1]] if d % p == 0 else [[p, 0], [0, p]]
    cases.append(Case("radical-quadratic", "radical",
                      _order_doc(_poly_algebra([-d, 0, 1]),
                                 _present(rng, _identity(2))),
                      check_doc({"prime": str(p), "basis": _rows(rad)}),
                      flags=["--primes", str(p)]))

    m = rng.randint(2, 9)
    cases.append(Case(
        "endo-order", "endo-order",
        {"delta": {"algebra": "Q", "basis": [["1"]]},
         "lattice": _rows(_present(rng, [[1, 0], [0, m]])), "r": 2},
        check_doc({"basis": _rows([[1, 0, 0, 0], [0, Fraction(1, m), 0, 0],
                                   [0, 0, m, 0], [0, 0, 0, 1]])})))

    roots = rng.sample(range(-3, 4), 2)
    cases.append(serre_class_case(rng, "serre-class-split", roots, [2, 1],
                                  1, 2))

    d = rng.choice(SQUAREFREE)
    lattice = serre_lattice_case(rng, "serre-lattice-quadratic", [-d, 0, 1],
                                 1, 2)
    cases.append(lattice)

    cases.append(minimal_isogeny_case("minimal-isogeny-quadratic", 2,
                                      rng.choice([-1, 2, 3, -5]), 2, [], 2))

    # ROADMAP 1(b): malformed documents must be ParseError, not InternalError
    broken = {k: v for k, v in lattice.doc.items() if k != "alpha"}
    cases.append(Case("malformed-serre-lattice", "serre-lattice", broken,
                      check_parse_error,
                      known=["exit 1, InternalError: 'alpha'"]))
    size = rng.choice(["x", "two", "2.5"])
    cases.append(Case("malformed-matrix-size", "center",
                      {"matrix": {"n": size}}, check_parse_error,
                      known=["exit 1, InternalError: invalid literal for "
                             "int() with base 10: '%s'" % size]))
    return cases


def zfields(rng):
    """Commutative orders over Z with several non-maximal primes: the Z
    path of rings, HNF, central idempotents and radicals at small p."""
    q = rng.choice([3, 11, 19])
    c = rng.choice([7, 11, 23, 31])
    c30 = rng.choice([7, 11])
    return [
        z_field_case(rng, "maximal-order-x8", [-q * 2 ** 8] + [0] * 7 + [1]),
        z_field_case(rng, "maximal-order-x6", [-c * 6 ** 6] + [0] * 5 + [1]),
        z_field_case(rng, "maximal-order-x6-30",
                     [-c30 * 30 ** 6] + [0] * 5 + [1]),
    ]


def noncomm_fp(rng):
    """Non-commutative orders over Z and function-field orders over
    F_p[t]: residue algebras with several simple factors, polynomial
    scalars, no central idempotent search in characteristic p."""
    cases = []

    # Z + 6 Mat3(Z); every maximal order of Mat3(Q) has the discriminant
    # of Mat3(Z)
    table = matrix_table(3)
    one = [1, 0, 0, 0, 1, 0, 0, 0, 1]
    rows = [one] + [[6 * int(k == e) for k in range(9)] for e in range(8)]
    start = _present(rng, rows)
    cases.append(Case("maximal-order-z+6mat3", "maximal-order",
                      _order_doc({"matrix": {"n": 3}}, start),
                      check_max_order_z(table, one, start,
                                        order_disc(table, _identity(9)))))

    # Z<i, j> in (a, b | Q): a maximal order has discriminant -16 D^2 for
    # D the product of the finite ramified primes
    a, b = rng.choice([(-3, -7), (-7, -11), (-3, -11)])
    table = quaternion_table(a, b)
    disc_max = -16 * prod(ramified_primes(a, b)) ** 2
    start = _present(rng, _identity(4))
    cases.append(Case("maximal-order-quaternion", "maximal-order",
                      _order_doc({"quaternion": {"a": str(a), "b": str(b)}},
                                 start),
                      check_max_order_z(table, [1, 0, 0, 0], start, disc_max)))

    # y^3 = s^3 D0 over F_p[t] with D0 squarefree and p not 3: the maximal
    # order is F_p[t][y/s], by Eisenstein at the primes of D0
    cases.append(_kummer_case(rng, "maximal-order-f7t-kummer", 7, 3,
                              [(1, 1), (3, 1)],
                              rng.choice([(1, 0, 1), (2, 0, 1)]), True))
    # over F_5 with D0 = t^2 + 3 and s = t + 2, t + 3 or t + 4 the program
    # exceeds its iteration bound
    cases.append(_kummer_case(rng, "maximal-order-f5t-kummer", 5, 3,
                              [rng.choice([(2, 1), (3, 1), (4, 1)])],
                              (3, 0, 1), True, known=[BOUND_EXCEEDED]))

    # x^4 = t s^4 over F_2[t] is purely inseparable; the maximal order is
    # F_2[t^(1/4)], reached through --primes
    cases.append(_kummer_case(rng, "maximal-order-f2t-inseparable", 2, 4,
                              [(1, 1, 0, 1)], (0, 1), False))
    return cases


def _kummer_case(rng, name, p, n, factors, d0, separable, known=()):
    s = (1,)
    for fac in factors:
        s = fp_mul(s, fac, p)
    const = fp_mul(fp_pow(s, n, p), d0, p)
    neg = fp_trim([(-c) % p for c in const])
    modulus = "x^%d+%s" % (n, fp_str(neg))
    rows = []
    for i in range(n):
        rows.append([((1,), fp_pow(s, i, p)) if j == i else ((), (1,))
                     for j in range(n)])
    # certificates cover the primes of the output's discriminant (those
    # of D0) or, when the trace form vanishes, exactly the --primes list
    primes, flags = [fp_str(d0)], []
    if not separable:
        primes = sorted(set(fp_str(fac) for fac in factors) | {fp_str(d0)})
        flags = ["--primes", ",".join(primes)]
    algebra = {"ground": {"poly": {"p": p, "var": "t"}},
               "poly_quotient": {"modulus": modulus}}
    if not separable:
        algebra["trusted_semisimple"] = True
    start = [[str(x % p) for x in row] for row in unimodular(rng, n)]
    return Case(name, "maximal-order", {"algebra": algebra, "basis": start},
                check_max_order_fp(p, rows, fp_pow(s, n * (n - 1) // 2, p),
                                   primes),
                flags=flags, known=known)


def serre(rng):
    """Tensor constructions on presentations over orders of degree 4 and
    6: the only corpus where serre and Smith normal form do real work."""
    f = [5, 2, -1, 0, 1, 0, 1]
    cases = [serre_lattice_case(rng, "serre-lattice-3x4", f, 3, 4)]
    roots = rng.sample([-3, -2, -1, 1, 2, 3], 4)
    cases.append(serre_class_case(rng, "serre-class-quartic", roots,
                                  [2, 1, 2, 1], 2, 3))
    q = rng.choice([3, 5, 7])
    cases.append(minimal_isogeny_case("minimal-isogeny-sextic", 6, q, 2,
                                      [rng.randint(1, 4)], 2))
    return cases


def compute(rng):
    """The zfields, noncomm-fp and serre corpora as one workload.  With two
    workloads instead of four, each run can be long enough to sample every
    document several times within the benchmark's time budget."""
    return zfields(rng) + noncomm_fp(rng) + serre(rng)


WORKLOADS = {
    "cli-small": cli_small,
    "zfields": zfields,
    "noncomm-fp": noncomm_fp,
    "serre": serre,
    "compute": compute,
}


def generate(workload, seed):
    return WORKLOADS[workload](random.Random("%s/%d" % (workload, seed)))
