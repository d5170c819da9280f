"""Pure-Python integer Gauss-Jordan kernel.

This is the package's one elimination kernel.  Everything upstream
(kernels, images, solvers, hom spaces) reduces to this routine, so it is the
hot loop of the whole package.

Contract of :func:`rref_int`:

* input: a list of integer rows (denominators already cleared row by row;
  row scaling does not change the row space) and the column count,
* output: ``(pivot_cols, out_rows, denoms)`` where row ``r`` of the rational
  reduced row echelon form equals ``out_rows[r] / denoms[r]``.  Pivot rows
  come first in pivot-column order, zero rows are kept at the bottom with
  denominator 1, every ``out_rows[r]`` has content 1 and ``denoms[r] > 0``.

Since the rational RREF of a matrix is unique, this output is canonical:
it does not depend on the elimination order, only the intermediate integer
growth does.
"""

from math import gcd


def _row_content(row):
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
            if g == 1:
                return 1
    return g


def rref_int(rows, ncols):
    rows = [list(r) for r in rows]
    m = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, m):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(m):
            if i == r:
                continue
            irow = rows[i]
            q = irow[c]
            if not q:
                continue
            for j in range(ncols):
                irow[j] = p * irow[j] - q * prow[j]
            g = _row_content(irow)
            if g > 1:
                for j in range(ncols):
                    irow[j] //= g
        pivots.append(c)
        r += 1
    denoms = []
    for idx in range(m):
        row = rows[idx]
        if idx < len(pivots):
            g = _row_content(row)
            if g > 1:
                for j in range(ncols):
                    row[j] //= g
            p = row[pivots[idx]]
            if p < 0:
                for j in range(ncols):
                    row[j] = -row[j]
                p = -p
            denoms.append(p)
        else:
            denoms.append(1)
    return pivots, rows, denoms
