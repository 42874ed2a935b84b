"""Structure tables written or read entry by entry in tests.

maxord keeps one table form, table[i][j] the nonzero (k, c_ijk) of
b_i·b_j sorted by k; sparse turns a dense table, table[i][j][k] = c_ijk,
into it through algebras.nonzero, and dense turns it back.
"""

from maxord.algebras import nonzero


def sparse(table):
    return [[nonzero(cell) for cell in row] for row in table]


def dense(table, zero=0):
    n = len(table)

    def vec(cell):
        out = [zero] * n
        for k, c in cell:
            out[k] = c
        return out

    return [[vec(cell) for cell in row] for row in table]
