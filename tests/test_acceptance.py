"""End-to-end acceptance suite.

Each test covers one acceptance criterion, enforces its runtime budget,
and prints a single PASS/FAIL line (run with -s to see them live).
"""

import itertools
import json
import random
import time

from maxord.algebras import (
    Algebra,
    Order,
    discriminant,
    matrix_algebra,
    poly_quotient_algebra,
    quaternion_algebra,
)
from maxord.cli import main
from maxord.exactlin import Lattice, Matrix, lattice_index
from maxord.errors import NotIntegral
from maxord.orders import (
    is_maximal_at_p,
    maximal_order,
    p_maximal_order,
    radical_mod_p,
)
from maxord.rings import ZZ, Frac, poly_ring
from maxord.selftest import upper_triangular_order
from maxord.serre import (
    IsogenyFactor,
    IsogenyType,
    ModulePresentation,
    PeriodLattice,
    check_naturality,
    minimal_isogeny,
    tensor_isogeny_class,
    tensor_lattice,
)
from ideal_oracle import two_sided_ideals_over_p
from test_algebras import left_mul_matrix

HALF = Frac(ZZ, 1, 2)
RATIONAL = Algebra(ZZ, [[[(0, 1)]]], [1], trusted_semisimple=True)


def relation_matrix(pres):
    """The (r·n)×(s·n) matrix of α⊗(order basis) over the ground ring:
    row (t, a) is the order-basis expansion of b_a·α[t][·]."""
    o, n = pres.order, pres.order.dim
    rows = [[c for u in range(pres.s)
             for c in o.order_coords(row[u * n:(u + 1) * n])]
            for row in pres.image_rows(o.lattice.basis.rows)]
    return Matrix(o.algebra.ring, rows, pres.s * n)


def report(num, label, ok, budget, elapsed):
    line = "%s criterion %d: %s (%.2fs / budget %.0fs)" % (
        "PASS" if ok else "FAIL", num, label, elapsed, budget)
    print(line)
    assert ok, line
    assert elapsed < budget, line


def quadratic_order(d):
    alg = poly_quotient_algebra(
        ZZ, [Frac.of(ZZ, -d), Frac.of(ZZ, 0), Frac.of(ZZ, 1)],
        trusted_semisimple=True)
    return Order(alg, Lattice.standard(ZZ, 2))


def squarefree(d):
    """Whether d is a squarefree integer other than 0 and 1."""
    return d not in (0, 1) and all(e == 1 for _, e in ZZ.factor(d))


def lattice_product(alg, a, b):
    """The lattice spanned by the products of the basis rows of a and b."""
    rows = [alg.mul_coords(ra, rb)
            for ra in a.basis.rows for rb in b.basis.rows]
    return Lattice.from_rows(alg.ring, rows, alg.dim)


def regular_period_lattice(order, prime="generic"):
    alg = order.algebra
    action = [left_mul_matrix(alg, alg.element(order.lattice.basis.rows[i]))
              for i in range(order.dim)]
    return PeriodLattice(order, order.lattice, action, prime=prime)


def ambient_action(t, element):
    """The action of an algebra element on the ambient coordinates of the
    period lattice t, Σ_k c_k·action[k] for c its coordinates in the order
    basis, read through the inverse of that basis."""
    o = t.order
    c = (Matrix(o.algebra.ring, [element.coords], o.dim)
         * o.lattice.basis.inverse()).rows[0]
    out = t.action[0].scaled(0)
    for k, m in zip(c, t.action):
        out = out + m.scaled(k)
    return out


def subspaces(p, n):
    """Every nonzero subspace of F_p^n, once each, as rref basis rows."""
    for k in range(1, n + 1):
        for pivots in itertools.combinations(range(n), k):
            free = [(r, c) for r in range(k) for c in range(pivots[r] + 1, n)
                    if c not in pivots]
            for values in itertools.product(range(p), repeat=len(free)):
                rows = [[int(c == pivots[r]) for c in range(n)]
                        for r in range(k)]
                for (r, c), v in zip(free, values):
                    rows[r][c] = v
                yield rows


def brute_force_maximal_order(order, primes):
    """Independent oracle: enumerate every lattice strictly between Λ and
    (1/p)Λ, keep the unital ring-closed ones, repeat until stable.

    Every lattice in between is tried, not only those of index p: an order
    that is not maximal at p may have no overorder of index p (Z + pO for
    p inert in a cubic field is one), but for a commutative order it always
    has one inside (1/p)Λ, the idealizer of its p-radical.
    """
    alg = order.algebra
    n = order.dim
    cur = order
    changed = True
    while changed:
        changed = False
        for p in primes:
            for rows in subspaces(p, n):
                extra = Matrix(ZZ, [[Frac(ZZ, v, p) for v in row]
                                    for row in rows], n)
                lat = Lattice.from_rows(
                    ZZ, list(cur.lattice.basis.rows)
                    + (extra * cur.lattice.basis).rows, n)
                cand = Order(alg, lat, validate=False)
                try:
                    cand.structure_constants()
                except NotIntegral:
                    continue
                if cand.order_coords(alg.one().coords) is None:
                    continue
                cur = cand
                changed = True
                break
            if changed:
                break
    return cur


def test_criterion_1_golden_vectors():
    start = time.monotonic()
    o = upper_triangular_order()
    alg = o.algebra
    itype = IsogenyType([IsogenyFactor("E", 1, RATIONAL, 2)])
    emb = Matrix(ZZ, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], 4)
    e11, e12, e22 = (alg.basis_element(i) for i in range(3))
    got = []
    for alpha in ([[e11]], [[e22]], [[e12], [e22]]):
        res = tensor_isogeny_class(ModulePresentation(o, alpha), itype, emb)
        got.append((res.factors[0].mult, res.total_dimension()))
    ok = got == [(1, 1), (1, 1), (0, 0)]
    report(1, "golden multiplicity/dimension vectors", ok,
           1.0, time.monotonic() - start)


def test_criterion_2_quadratic_oracle_sweep():
    start = time.monotonic()
    ok = True
    for d in range(-50, 51):
        if not squarefree(d):
            continue
        order = quadratic_order(d)
        mine = maximal_order(order)
        primes = sorted({p for p, _ in ZZ.factor(discriminant(order))})
        oracle = brute_force_maximal_order(order, primes)
        if mine.lattice != oracle.lattice:
            ok = False
            break
    report(2, "quadratic sweep vs. superlattice oracle", ok,
           30.0, time.monotonic() - start)


def test_criterion_3_quaternion_fixture():
    start = time.monotonic()
    alg = quaternion_algebra(ZZ, -1, -1)
    lip = Order(alg, Lattice.standard(ZZ, 4))
    out = maximal_order(lip)
    index = lattice_index(lip.lattice, out.lattice)
    ok = (
        index == 2
        and out.lattice.contains_vector([HALF, HALF, HALF, HALF])
        and is_maximal_at_p(out, 2)["verdict"]
        and discriminant(lip) == discriminant(out) * index * index
    )
    report(3, "Lipschitz-to-Hurwitz saturation", ok,
           5.0, time.monotonic() - start)


def test_criterion_4_inseparable_fixture():
    start = time.monotonic()
    ring = poly_ring(2)
    t = ring.canonical((0, 1))
    field = poly_quotient_algebra(ring, [t, ring.zero, ring.one],
                                  trusted_semisimple=True)
    sub = Order(field, Lattice.from_rows(
        ring, [[Frac.of(ring, ring.one), Frac.of(ring, ring.zero)],
               [Frac.of(ring, ring.zero), Frac.of(ring, t)]], 2))
    out = p_maximal_order(sub, t)
    ok = (out.lattice == Lattice.standard(ring, 2)
          and is_maximal_at_p(out, t)["verdict"])
    report(4, "inseparable F2[t] saturation at t", ok,
           1.0, time.monotonic() - start)


def test_criterion_5_ideal_power_law():
    start = time.monotonic()

    def is_power_law(order, p):
        if not is_maximal_at_p(order, p)["verdict"]:
            return False
        alg = order.algebra
        rad = radical_mod_p(order, p)
        p_lat = order.lattice.scaled(Frac.of(alg.ring, p))
        powers = [order.lattice]
        cur = order.lattice
        for _ in range(order.dim + 1):
            cur = Lattice.from_rows(alg.ring, lattice_product(
                alg, cur, rad.lattice).basis.rows + p_lat.basis.rows,
                order.dim)
            if cur == powers[-1]:
                break
            powers.append(cur)
        ideals = {i.lattice for i in two_sided_ideals_over_p(order, p)}
        return ideals == set(powers)

    m2 = Order(matrix_algebra(ZZ, 2), Lattice.standard(ZZ, 4))
    zi = quadratic_order(-1)
    hur = p_maximal_order(Order(quaternion_algebra(ZZ, -1, -1),
                                Lattice.standard(ZZ, 4)), 2)
    ring2 = poly_ring(2)
    t = ring2.canonical((0, 1))
    f2t = Order(
        poly_quotient_algebra(ring2, [t, ring2.zero, ring2.one],
                              trusted_semisimple=True),
        Lattice.standard(ring2, 2))
    ring_of_int_cases = [
        (maximal_order(quadratic_order(-3)), 3),
        (maximal_order(quadratic_order(5)), 5),
        (maximal_order(quadratic_order(-2)), 2),
    ]
    fixtures = (
        [(m2, 2), (m2, 3), (m2, 5), (zi, 2), (zi, 3), (hur, 2), (f2t, t)]
        + ring_of_int_cases
    )
    assert len(fixtures) == 10
    ok = all(is_power_law(o, p) for o, p in fixtures)
    report(5, "two-sided ideals are radical powers (10 fixtures)", ok,
           10.0, time.monotonic() - start)


def _functor_fixture_z():
    """Z acting on the rank-2 period lattice of a generic elliptic curve."""
    o = Order(matrix_algebra(ZZ, 1), Lattice.standard(ZZ, 1))
    t = PeriodLattice(o, Lattice.standard(ZZ, 2), [Matrix.identity(ZZ, 2)])
    itype = IsogenyType([IsogenyFactor("E", 1, RATIONAL, 1)])
    emb = Matrix(ZZ, [[1]], 1)
    return o, t, itype, emb


def _functor_fixture_gaussian():
    """Z[i] acting on itself: a CM elliptic curve."""
    o = quadratic_order(-1)
    t = regular_period_lattice(o)
    itype = IsogenyType([IsogenyFactor("E", 1, o.algebra, 1)])
    emb = Matrix.identity(ZZ, 2)
    return o, t, itype, emb


def _functor_fixture_upper_triangular():
    """The upper-triangular order acting block-wise on the rank-4 period
    lattice of E x E (no CM)."""
    o = upper_triangular_order()
    mats = {
        0: [[1, 0], [0, 0]],  # e11
        1: [[0, 1], [0, 0]],  # e12
        2: [[0, 0], [0, 1]],  # e22
    }
    action = []
    for b in range(3):
        m = mats[b]
        rows = [[0] * 4 for _ in range(4)]
        # column action on (x_0, x_1), x_w in Z^2:
        # coords(b·v)[2u+i] = sum_w m[u][w]·coords(v)[2w+i]
        for u in range(2):
            for w in range(2):
                for i in range(2):
                    rows[2 * w + i][2 * u + i] = m[u][w]
        action.append(Matrix(ZZ, rows, 4))
    t = PeriodLattice(o, Lattice.standard(ZZ, 4), action)
    itype = IsogenyType([IsogenyFactor("E", 1, RATIONAL, 2)])
    emb = Matrix(ZZ, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], 4)
    return o, t, itype, emb


def random_presentation(rng, o, r, s):
    """coker(α) for an r×s matrix α of order elements with small entries."""
    alg = o.algebra
    alpha = [
        [alg.element([Frac.of(ZZ, rng.randint(-3, 3))
                      for _ in range(alg.dim)]) for _ in range(s)]
        for _ in range(r)
    ]
    return ModulePresentation(o, alpha, s=s)


def test_criterion_6_functor_property_suite():
    start = time.monotonic()
    rng = random.Random(20240826)
    fixtures = [
        _functor_fixture_z(),
        _functor_fixture_gaussian(),
        _functor_fixture_upper_triangular(),
    ]
    count = 0
    ok = True

    for o, t, itype, emb in fixtures:
        rho = t.lattice.rank
        binv = t.lattice.basis.inverse()
        for _ in range(34):
            count += 1
            r, s = rng.randint(0, 2), rng.randint(1, 2)
            pres = random_presentation(rng, o, r, s)
            out, divisors = tensor_lattice(pres, t)
            # (e) lattice rank doubles the class dimension
            res = tensor_isogeny_class(pres, itype, emb)
            if out.lattice.rank != 2 * res.total_dimension():
                ok = False
            # (b) right-exactness: the tensored relations die in the
            # quotient, and the projection hits all of it
            rel_rows = []
            for ti in range(pres.r):
                for a in range(rho):
                    tau = Matrix(ZZ, [t.lattice.basis.rows[a]], rho)
                    row = []
                    for u in range(pres.s):
                        row.extend((tau * ambient_action(t, pres.alpha[ti][u])
                                    * binv).rows[0])
                    rel_rows.append(row)
            if rel_rows:
                pushed = Matrix(ZZ, rel_rows, pres.s * rho) * out.projection
                if any(any(x for x in row) for row in pushed.rows):
                    ok = False
            if out.projection.rank() != out.lattice.rank:
                ok = False
            # (a) torsion modules give rank zero
            rel = relation_matrix(pres)
            if rel.nrows and rel.rank() == pres.s * o.dim:
                if out.lattice.rank != 0:
                    ok = False
            # (d) rationally invertible maps give finite cokernels whose
            # size matches an independent HNF index computation
            if out.lattice.rank == 0 and rel_rows:
                image = Lattice.from_rows(ZZ, rel_rows, pres.s * rho)
                prod = 1
                for dv in divisors:
                    prod *= abs(dv)
                if (image.rank != pres.s * rho
                        or prod != lattice_index(
                            image, Lattice.standard(ZZ, pres.s * rho))):
                    ok = False
            # (c) naturality against a scalar multiplication map
            c = rng.randint(1, 4)
            scal = o.algebra.one().scaled(Frac.of(ZZ, c))
            phi = [[scal if i == j else o.algebra.zero()
                    for j in range(pres.s)] for i in range(pres.s)]
            if not check_naturality(pres, pres, phi, t):
                ok = False
    assert count >= 100
    report(6, "functor property suite (%d presentations)" % count, ok,
           60.0, time.monotonic() - start)


def test_built_period_lattices_pass_validation():
    """tensor_lattice builds its period lattice without validating it; on
    the commutative fixtures of criterion 6, validation accepts every
    descended action it builds."""
    rng = random.Random(20240826)
    checked = 0
    for o, t, _, _ in (_functor_fixture_z(), _functor_fixture_gaussian()):
        for _ in range(34):
            r, s = rng.randint(0, 2), rng.randint(1, 2)
            out, _ = tensor_lattice(random_presentation(rng, o, r, s), t)
            if out.action is not None:
                PeriodLattice(o, out.lattice, out.action)
                checked += 1
    assert checked >= 30


def test_criterion_7_minimal_isogeny_chains():
    start = time.monotonic()
    ok = True

    def chain_check(o, o_mid, o_top):
        nonlocal ok
        if not (o_top.lattice.contains_lattice(o_mid.lattice)
                and o_mid.lattice.contains_lattice(o.lattice)):
            ok = False
            return
        t = regular_period_lattice(o)
        full = minimal_isogeny(o, o_top, [t])
        first = minimal_isogeny(o, o_mid, [t])
        # continue from the saturated middle lattice
        alg = o.algebra
        cur = t.lattice
        while True:
            rows = list(cur.basis.rows)
            for b in o_mid.lattice.basis.rows:
                rows.extend((cur.basis * ambient_action(
                    t, alg.element(b))).rows)
            nxt = Lattice.from_rows(ZZ, rows, cur.ambient_dim)
            if nxt == cur:
                break
            cur = nxt
        action = [left_mul_matrix(alg,
                                  alg.element(o_mid.lattice.basis.rows[i]))
                  for i in range(o_mid.dim)]
        t_mid = PeriodLattice(o_mid, cur, action)
        second = minimal_isogeny(o_mid, o_top, [t_mid])
        if full.degree != first.degree * second.degree:
            ok = False

    # quadratic conductor chains
    for d in (-1, -3, 5):
        top = maximal_order(quadratic_order(d))
        alg = top.algebra
        for f in (2, 3):
            mid_rows = [[1, 0]] + [
                [x * f for x in top.lattice.basis.rows[1]]]
            bot_rows = [[1, 0]] + [
                [x * f * f for x in top.lattice.basis.rows[1]]]
            o_mid = Order(alg, Lattice.from_rows(ZZ, mid_rows, 2))
            o_bot = Order(alg, Lattice.from_rows(ZZ, bot_rows, 2))
            chain_check(o_bot, o_mid, top)

    # matrix-algebra conductor chain Z + 4M ⊆ Z + 2M ⊆ M = Mat2(Z)
    m2 = matrix_algebra(ZZ, 2)
    top = Order(m2, Lattice.standard(ZZ, 4))

    def conductor_order(f):
        rows = [[1, 0, 0, 1]]
        for i in range(4):
            rows.append([f if j == i else 0 for j in range(4)])
        return Order(m2, Lattice.from_rows(ZZ, rows, 4))

    chain_check(conductor_order(4), conductor_order(2), top)
    report(7, "minimal-isogeny degree multiplicativity", ok,
           10.0, time.monotonic() - start)


def test_criterion_8_negative_controls(tmp_path, capsys):
    start = time.monotonic()
    docs = [
        {
            "algebra": {"poly_quotient": {"modulus": "x^2+3"}},
            "basis": [["1", "0"], ["0", "1"]],
        },
        {
            "algebra": {"matrix": {"n": 2}},
            "basis": [["1", "0", "0", "1"], ["5", "0", "0", "0"],
                      ["0", "5", "0", "0"], ["0", "0", "5", "0"]],
        },
    ]
    codes = []
    failing = []
    for i, doc in enumerate(docs):
        path = tmp_path / ("neg%d.json" % i)
        path.write_text(json.dumps(doc))
        codes.append(main(["certify", str(path)]))
        failing.append(json.loads(capsys.readouterr().out)["failing_prime"])
    # rad^2 = 2·rad in the non-maximal order Z[sqrt(-3)]
    o = quadratic_order(-3)
    rad = radical_mod_p(o, 2)
    rad_sq = lattice_product(o.algebra, rad.lattice, rad.lattice)
    ok = (codes == [2, 2] and failing == ["2", "5"]
          and rad_sq == rad.lattice.scaled(Frac.of(ZZ, 2)))
    with capsys.disabled():
        report(8, "negative controls (exit 2, rad^2 = 2·rad)", ok,
               10.0, time.monotonic() - start)
