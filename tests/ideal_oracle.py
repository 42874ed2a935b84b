"""Brute-force enumeration of two-sided ideals, the oracle of the ideal
tests: every cyclic ideal of a residue algebra over F_p, from all p^dim
of its elements, closed under sums.  It imports no test module, so any
test module can import it."""

from maxord.exactlin import lattice_index, rref
from maxord.orders import LatticeIdeal, residue_algebra


def two_sided_ideal_generated(alg, x):
    """Rref basis of the two-sided ideal of the F_p-algebra alg generated
    by x (with 1 in alg)."""
    basis = alg.basis()
    return rref(alg.field, [alg.mul(alg.mul(bi, x), bj)
                            for bi in basis for bj in basis])[0]


def all_two_sided_ideals(alg):
    """Every two-sided ideal of alg, as sorted tuples of rref basis rows."""
    p, n = alg.p, alg.dim
    seen = {()}  # the zero ideal
    vec = [0] * n
    for count in range(1, p ** n):
        rem = count
        for t in range(n):
            vec[t] = rem % p
            rem //= p
        ideal = two_sided_ideal_generated(alg, vec)
        seen.add(tuple(tuple(r) for r in ideal))
    changed = True
    while changed:
        changed = False
        items = list(seen)
        for a in items:
            for b in items:
                key = tuple(tuple(r) for r in rref(alg.field, a + b)[0])
                if key not in seen:
                    seen.add(key)
                    changed = True
    return sorted(seen)


def two_sided_ideals_over_p(order, p):
    """All two-sided ideals I with pΛ ⊆ I ⊆ Λ, by index in Λ."""
    res = residue_algebra(order, p)[0]
    out = [LatticeIdeal(order, p, rows)
           for rows in all_two_sided_ideals(res)]
    out.sort(key=lambda i: str(lattice_index(i.lattice, order.lattice)))
    return out
