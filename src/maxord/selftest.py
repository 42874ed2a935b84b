"""Built-in fixture suite for the `selftest` CLI command.

Runs the golden-vector checks (worked multiplicity example, quaternion
saturation, the F₂[t] inseparable fixture, ideal power laws) plus a
quadratic-field sweep against the classical closed-form ring of integers.
"""

from .rings import ZZ, Frac, poly_ring
from .exactlin import Lattice, Matrix, lattice_index
from .algebras import Algebra, Order, discriminant, matrix_algebra, \
    poly_quotient_algebra, quaternion_algebra, scalar_algebra
from .orders import is_maximal_at_p, maximal_order, radical_mod_p
from .serre import (
    IsogenyFactor,
    IsogenyType,
    ModulePresentation,
    tensor_isogeny_class,
)


def upper_triangular_order():
    table = [
        [[(0, 1)], [(1, 1)], []],
        [[], [], [(1, 1)]],
        [[], [], [(2, 1)]],
    ]
    alg = Algebra(ZZ, table, [1, 0, 1])
    return Order(alg, Lattice.standard(ZZ, 3))


def run():
    checks = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    # golden multiplicity vectors
    o = upper_triangular_order()
    alg = o.algebra
    itype = IsogenyType([IsogenyFactor("E", 1, scalar_algebra(ZZ), 2)])
    emb = Matrix(ZZ, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], 4)
    e11, e12, e22 = (alg.basis_element(i) for i in range(3))
    got = []
    for alpha in ([[e11]], [[e22]], [[e12], [e22]]):
        res = tensor_isogeny_class(ModulePresentation(o, alpha), itype, emb)
        got.append((res.factors[0].mult, res.total_dimension()))
    check("tensor multiplicities", got == [(1, 1), (1, 1), (0, 0)], str(got))

    # quaternion saturation
    quat = quaternion_algebra(ZZ, -1, -1)
    lip = Order(quat, Lattice.standard(ZZ, 4))
    hur = maximal_order(lip)
    half = [Frac(ZZ, 1, 2)] * 4
    check(
        "quaternion index-2 saturation",
        lattice_index(lip.lattice, hur.lattice) == 2
        and hur.lattice.contains_vector(half)
        and is_maximal_at_p(hur, 2)["verdict"]
        and discriminant(lip) == discriminant(hur) * 4,
    )

    # inseparable function-field fixture
    ring2 = poly_ring(2)
    t = ring2.canonical((0, 1))
    field = poly_quotient_algebra(ring2, [t, ring2.zero, ring2.one],
                                  trusted_semisimple=True)
    start = Order(field, Lattice.from_rows(
        ring2, [[Frac.of(ring2, ring2.one), Frac.of(ring2, ring2.zero)],
                [Frac.of(ring2, ring2.zero), Frac.of(ring2, t)]], 2))
    closed = maximal_order(start, extra_primes=[t])
    check(
        "inseparable closure over F2[t]",
        closed.lattice == Lattice.standard(ring2, 2)
        and is_maximal_at_p(closed, t)["verdict"],
    )

    # ideal power law for Mat2(Z)
    m2 = Order(matrix_algebra(ZZ, 2), Lattice.standard(ZZ, 4))
    for p in (2, 3):
        rad = radical_mod_p(m2, p)
        check(
            "power law Mat2(Z) at %d" % p,
            is_maximal_at_p(m2, p)["residueSimple"]
            and rad.lattice == m2.lattice.scaled(p),
        )

    # quadratic sweep against the classical ring of integers
    bad = []
    for d in range(-50, 51):
        if d in (0, 1) or any(e > 1 for _, e in ZZ.factor(d)):
            continue
        qf = poly_quotient_algebra(ZZ, [-d, 0, 1])
        start = Order(qf, Lattice.standard(ZZ, 2))
        out = maximal_order(start)
        if d % 4 == 1:
            expect = Lattice.from_rows(
                ZZ, [[Frac(ZZ, 1, 2), Frac(ZZ, 1, 2)], [0, 1]], 2)
        else:
            expect = Lattice.standard(ZZ, 2)
        if out.lattice != expect:
            bad.append(d)
    check("quadratic sweep |d| <= 50", not bad, str(bad))

    return {"ok": all(c["ok"] for c in checks), "checks": checks}
