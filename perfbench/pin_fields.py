"""Print the pinned maximal-order discriminants used by corpus.FIELD_DISC.

They come from SymPy's Round Two implementation, which shares no code
with maxord.  Run from the repository root:

    python3 perfbench/pin_fields.py
"""

from sympy import Poly, symbols
from sympy.polys.numberfields.basis import round_two

# (degree, constant factor, scale): x^n - c * m^n for each pool member
FAMILIES = ([(8, q, 2) for q in (3, 11, 19)]
            + [(6, c, 6) for c in (7, 11, 23, 31)]
            + [(6, c, 30) for c in (7, 11)])


def main():
    x = symbols("x")
    for n, c, m in FAMILIES:
        _, disc = round_two(Poly(x ** n - c * m ** n, x))
        print('    "x^%d-%d": %d,' % (n, c * m ** n, disc))


if __name__ == "__main__":
    main()
