"""JSON (de)serialization for ground rings, matrices, algebras, orders,
isogeny types, presentations, and period lattices.

All numbers travel as strings: "n" or "n/d" over Z, coefficient strings
like "t^2+1" over a polynomial ground ring.  No floats anywhere.
"""

import contextlib
import re

from .errors import ParseError
from .exactlin import Lattice, Matrix
from .algebras import (
    Algebra,
    Order,
    matrix_algebra,
    nonzero,
    poly_quotient_algebra,
    quaternion_algebra,
    scalar_algebra,
)
from .rings import ZZ, Frac, poly_ring

# the largest dimension of an algebra given by a shorthand (Mat_n, or
# K[x]/(f) for f of this degree), checked before its table or coefficient
# list is built
MAX_SHORTHAND_DIM = 64


# -- document access --------------------------------------------------------


def _pointer(path):
    return "".join("/%s" % key for key in path)


@contextlib.contextmanager
def located(pointer):
    """Errors that a malformed document raises in the block become
    ParseError; locations get the JSON pointer of the block in front."""
    try:
        yield
    except ParseError as exc:
        exc.location = pointer + (exc.location or "")
        raise
    except (AttributeError, IndexError, KeyError, TypeError,
            ValueError) as exc:
        raise ParseError("malformed document: %s" % exc, pointer)


def field(obj, *path):
    """The value at path inside a document, or a ParseError located at the
    first step that is missing."""
    for i, key in enumerate(path):
        try:
            obj = obj[key]
        except (IndexError, KeyError, TypeError):
            where = _pointer(path[:i + 1])
            raise ParseError("missing %s" % where, where)
    return obj


def integer(obj, *path):
    """The integer (a JSON number or a decimal string) at path."""
    value = field(obj, *path)
    with contextlib.suppress(ValueError):
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            return int(value)
    raise ParseError("expected an integer, got %r" % (value,), _pointer(path))


def parse_at(obj, key, parse):
    """parse(obj[key]), with errors located under /key."""
    value = field(obj, key)
    with located("/%s" % key):
        return parse(value)


# -- ground rings -----------------------------------------------------------


def parse_ground(obj):
    if obj == "Z":
        return ZZ
    if isinstance(obj, dict) and "poly" in obj:
        p = integer(obj, "poly", "p")
        return poly_ring(p, obj["poly"].get("var", "t"))
    raise ParseError("unrecognized ground ring %r" % (obj,))


# -- scalars and matrices ---------------------------------------------------


def parse_frac(ring, s):
    try:
        return Frac.from_str(ring, s)
    except Exception as exc:
        raise ParseError("bad number %r: %s" % (s, exc))


def parse_matrix(ring, rows, ncols=None):
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise ParseError("matrix must be an array of arrays")
    if ncols is None:
        if not rows:
            raise ParseError("empty matrix needs an explicit width")
        ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ParseError("matrix rows must have %d entries" % ncols)
    return Matrix(ring, [[parse_frac(ring, x) for x in row] for row in rows],
                  ncols)


def format_matrix(m):
    return [[str(x) for x in row] for row in m.rows]


# -- polynomial strings (for poly_quotient moduli) --------------------------

def parse_poly_string(ring, s, var="x"):
    """Parse a monic-friendly polynomial like "x^2-5" or "x^2+t" into a
    coefficient list (lowest degree first) of Frac over the ring.

    Coefficients must be single terms (integers, fractions, or ring
    monomials like "t^2"); parenthesized coefficients are not supported.
    """
    s = s.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial string")
    chunks = re.findall(r"[+-]?[^+-]+", s)
    coeffs = {}
    for chunk in chunks:
        sign = -1 if chunk.startswith("-") else 1
        body = chunk.lstrip("+-")
        if var in body:
            head, _, tail = body.partition(var)
            exp = 1
            if tail.startswith("^"):
                exp = int(tail[1:])
            elif tail:
                raise ParseError("bad term %r" % chunk)
            head = head.rstrip("*")
            coef = parse_frac(ring, head) if head else Frac.of(ring, ring.one)
        else:
            exp = 0
            coef = parse_frac(ring, body)
        if sign < 0:
            coef = -coef
        coeffs[exp] = coeffs.get(exp, Frac.of(ring, ring.zero)) + coef
    deg = max(coeffs)
    if deg > MAX_SHORTHAND_DIM:
        raise ParseError("degree %d is above %d" % (deg, MAX_SHORTHAND_DIM))
    return [coeffs.get(k, Frac.of(ring, ring.zero)) for k in range(deg + 1)]


# -- algebras ---------------------------------------------------------------


def _sized(value, dim, where):
    """value, when it is an array of dim entries; else a ParseError at
    where."""
    if not isinstance(value, list) or len(value) != dim:
        raise ParseError("expected an array of %d entries" % dim, where)
    return value


def parse_algebra(obj):
    if obj == "Q":
        return scalar_algebra(ZZ)
    if not isinstance(obj, dict):
        raise ParseError("algebra must be an object or \"Q\"")
    ring = parse_at(obj, "ground", parse_ground) if "ground" in obj else ZZ
    trusted = bool(obj.get("trusted_semisimple", False))
    if "matrix" in obj:
        n = integer(obj, "matrix", "n")
        if n < 1 or n * n > MAX_SHORTHAND_DIM:
            raise ParseError("Mat_n needs n >= 1 and n^2 <= %d, got n = %d"
                             % (MAX_SHORTHAND_DIM, n), "/matrix/n")
        return matrix_algebra(ring, n)
    if "quaternion" in obj:
        return quaternion_algebra(
            ring, parse_frac(ring, field(obj, "quaternion", "a")),
            parse_frac(ring, field(obj, "quaternion", "b")),
            trusted_semisimple=trusted)
    if "poly_quotient" in obj:
        var = obj["poly_quotient"].get("var", "x")
        modulus = field(obj, "poly_quotient", "modulus")
        with located("/poly_quotient/modulus"):
            coeffs = parse_poly_string(ring, modulus, var)
        return poly_quotient_algebra(ring, coeffs, trusted_semisimple=trusted)
    if "mul" in obj:
        dim = integer(obj, "dim")
        if dim < 1:
            raise ParseError("dim must be >= 1, got %d" % dim, "/dim")
        for i, row in enumerate(_sized(field(obj, "mul"), dim, "/mul")):
            for j, cell in enumerate(_sized(row, dim, "/mul/%d" % i)):
                _sized(cell, dim, "/mul/%d/%d" % (i, j))
        _sized(field(obj, "one"), dim, "/one")
        table = parse_at(obj, "mul", lambda mul: [
            [nonzero([parse_frac(ring, c) for c in cell]) for cell in row]
            for row in mul])
        one = parse_at(obj, "one",
                       lambda one: [parse_frac(ring, c) for c in one])
        return Algebra(ring, table, one, trusted_semisimple=trusted)
    raise ParseError("unrecognized algebra spec")


# -- orders -----------------------------------------------------------------


def parse_order(obj, algebra=None):
    if algebra is None:
        algebra = parse_at(obj, "algebra", parse_algebra)
    ring, dim = algebra.ring, algebra.dim
    basis = parse_at(obj, "basis", lambda rows: parse_matrix(ring, rows, dim))
    return Order(algebra, Lattice.from_rows(ring, basis, dim))


def format_order(order):
    return {"basis": format_matrix(order.lattice.basis)}


def format_certificate(ring, cert):
    return {
        "prime": ring.to_str(cert["prime"]),
        "idealizer_fixed": cert["idealizerFixed"],
        "residue_simple": cert["residueSimple"],
        "verdict": cert["verdict"],
    }


# -- primes -----------------------------------------------------------------


def parse_primes(ring, text):
    """Parse a --primes flag value like "2,3" or "t,t^2+t+1"."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            out.append(ring.from_str(chunk))
        except Exception as exc:
            raise ParseError("bad prime %r: %s" % (chunk, exc))
    return out


# -- Serre tensor data ------------------------------------------------------


def parse_isogeny_type(obj):
    from .serre import IsogenyFactor, IsogenyType

    def factor(f):
        return IsogenyFactor(field(f, "label"), integer(f, "dim"),
                             parse_at(f, "endo", parse_algebra),
                             integer(f, "mult"))

    factors = parse_at(obj, "factors", lambda fs: [
        parse_at(fs, i, factor) for i in range(len(fs))])
    mults = [f.mult for f in factors]
    if min(mults, default=0) < 0 or not any(mults):
        raise ParseError("multiplicities must be >= 0, not all 0", "/factors")
    itype = IsogenyType(factors)
    # the model algebra ∏ Mat_mult(D) is built like a Mat_n shorthand
    dim = itype.model_dim()
    if dim > MAX_SHORTHAND_DIM:
        raise ParseError("model algebra dimension %d is above %d"
                         % (dim, MAX_SHORTHAND_DIM), "/factors")
    return itype


def parse_presentation(obj, order):
    from .serre import ModulePresentation

    alg = order.algebra
    alpha = [[alg.element([parse_frac(alg.ring, c) for c in entry])
              for entry in row] for row in field(obj, "alpha")]
    s = integer(obj, "s") if obj.get("s") else None
    return ModulePresentation(order, alpha, s=s)


def parse_period_lattice(obj, order):
    from .serre import PeriodLattice

    ring = order.algebra.ring
    basis = parse_at(obj, "basis", lambda rows: parse_matrix(ring, rows))
    lat = Lattice.from_rows(ring, basis, basis.ncols)

    def square(rows):
        m = parse_matrix(ring, rows, basis.ncols)
        if m.nrows != m.ncols:
            raise ParseError("action matrix must be %d×%d" % (m.ncols, m.ncols))
        return m

    action = parse_at(obj, "action", lambda mats: [
        parse_at(mats, k, square) for k in range(len(mats))])
    prime = obj.get("prime", "generic")
    if not isinstance(prime, str):
        raise ParseError("expected a string, got %r" % (prime,), "/prime")
    return PeriodLattice(order, lat, action, prime=prime)
