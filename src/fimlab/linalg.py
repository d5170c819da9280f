"""Exact linear algebra over the rationals.

Everything in the package that touches a linear map goes through this
module: matrices are dense grids of ``fractions.Fraction`` entries, and all
rank-type computations reduce to the integer Gauss-Jordan kernel
:func:`fimlab._rref_py.rref_int`.  No floating point anywhere.

A :class:`Subspace` is always stored through the reduced row echelon form of
a spanning set, so subspace equality is plain matrix equality, and its pivot
columns give coordinates, containment and quotient maps without a further
elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._rref_py import rref_int

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class RationalMatrix:
    """Immutable dense matrix with exact rational entries."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, nrows=None, ncols=None):
        rows = tuple(tuple(_as_fraction(x) for x in row) for row in rows)
        if rows:
            width = len(rows[0])
            if any(len(row) != width for row in rows):
                raise ValueError("ragged rows")
        else:
            width = 0
        self.rows = rows
        self.nrows = len(rows) if nrows is None else nrows
        self.ncols = width if ncols is None else ncols
        if self.nrows != len(rows) or (rows and self.ncols != width):
            raise ValueError("row grid does not match declared shape")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "RationalMatrix":
        return RationalMatrix([[_ZERO] * ncols for _ in range(nrows)], nrows, ncols)

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix(
            [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)], n, n
        )

    @staticmethod
    def column(vec) -> "RationalMatrix":
        return RationalMatrix([[_as_fraction(x)] for x in vec])

    # -- basics --------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self):
        if self.nrows * self.ncols > 36:
            return f"RationalMatrix({self.nrows}x{self.ncols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"RationalMatrix[{body}]"

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def col(self, j):
        return tuple(row[j] for row in self.rows)

    def columns(self, cols) -> "RationalMatrix":
        """The submatrix of the given columns, in the given order."""
        return RationalMatrix(
            [[row[j] for j in cols] for row in self.rows], self.nrows, len(cols)
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [self.col(j) for j in range(self.ncols)], self.ncols, self.nrows
        )

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch in +")
        return RationalMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
            self.nrows,
            self.ncols,
        )

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch in -")
        return RationalMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
            self.nrows,
            self.ncols,
        )

    def __neg__(self):
        return RationalMatrix(
            [[-a for a in row] for row in self.rows], self.nrows, self.ncols
        )

    def scale(self, c) -> "RationalMatrix":
        c = _as_fraction(c)
        return RationalMatrix(
            [[c * a for a in row] for row in self.rows], self.nrows, self.ncols
        )

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch in *: {self.shape} by {other.shape}"
            )
        orows = other.rows
        out = []
        for arow in self.rows:
            acc = [_ZERO] * other.ncols
            for k, a in enumerate(arow):
                if a:
                    brow = orows[k]
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] += a * b
            out.append(acc)
        return RationalMatrix(out, self.nrows, other.ncols)

    def apply(self, vec):
        """Matrix times column vector (a tuple of Fractions)."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple(
            sum((a * v for a, v in zip(row, vec) if a and v), _ZERO)
            for row in self.rows
        )

    # -- stacking ------------------------------------------------------

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        return RationalMatrix(
            [ra + rb for ra, rb in zip(self.rows, other.rows)],
            self.nrows,
            self.ncols + other.ncols,
        )


def block_diag(blocks) -> RationalMatrix:
    blocks = list(blocks)
    nr = sum(b.nrows for b in blocks)
    nc = sum(b.ncols for b in blocks)
    out = [[_ZERO] * nc for _ in range(nr)]
    ro = co = 0
    for b in blocks:
        for i, row in enumerate(b.rows):
            orow = out[ro + i]
            for j, x in enumerate(row):
                orow[co + j] = x
        ro += b.nrows
        co += b.ncols
    return RationalMatrix(out, nr, nc)


def kron(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Kronecker product; realizes objectwise tensor of linear maps."""
    out = []
    for arow in a.rows:
        for brow in b.rows:
            row = []
            for x in arow:
                if x:
                    row.extend(x * y for y in brow)
                else:
                    row.extend([_ZERO] * b.ncols)
            out.append(row)
    return RationalMatrix(out, a.nrows * b.nrows, a.ncols * b.ncols)


# -- echelon form and friends -----------------------------------------


def _clear_denominators(row):
    den = 1
    for x in row:
        den = den * x.denominator // gcd(den, x.denominator)
    return [int(x * den) for x in row]


def _divisors(x: int) -> set:
    x = abs(x)
    out = set()
    d = 1
    while d * d <= x:
        if x % d == 0:
            out.update((d, x // d))
        d += 1
    return out


def rational_roots(coeffs) -> list:
    """The distinct rational roots of a polynomial with rational
    coefficients, given highest degree first.

    0 comes first when it is a root; the others are found by the
    rational-root theorem, trying p/q and -p/q for p dividing the constant
    term and q the leading coefficient, in a fixed order.
    """
    ints = _clear_denominators(coeffs)
    roots = []
    if ints and ints[-1] == 0:
        roots.append(_ZERO)
        while ints and ints[-1] == 0:
            ints.pop()
    if len(ints) <= 1:
        return roots
    for p in _divisors(ints[-1]):
        for q in _divisors(ints[0]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                val = _ZERO
                for c in ints:
                    val = val * cand + c
                if val == 0:
                    roots.append(cand)
    return roots


def rref(mat: RationalMatrix) -> RationalMatrix:
    """Reduced row echelon form (canonical; zero rows kept at the bottom)."""
    if mat.nrows == 0 or mat.ncols == 0:
        return mat
    int_rows = [_clear_denominators(row) for row in mat.rows]
    _, out_rows, denoms = rref_int(int_rows, mat.ncols)
    return RationalMatrix(
        [[Fraction(x, d) for x in row] for row, d in zip(out_rows, denoms)],
        mat.nrows,
        mat.ncols,
    )


def rank(mat: RationalMatrix) -> int:
    if mat.nrows == 0 or mat.ncols == 0:
        return 0
    int_rows = [_clear_denominators(row) for row in mat.rows]
    pivots, _, _ = rref_int(int_rows, mat.ncols)
    return len(pivots)


class Subspace:
    """A subspace of Q^d, stored as an RREF basis (rows) of the span."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: RationalMatrix):
        if basis.ncols != ambient_dim and basis.nrows > 0:
            raise ValueError("basis width must equal ambient dimension")
        self.ambient_dim = ambient_dim
        self.basis = basis

    @staticmethod
    def from_spanning(ambient_dim: int, vectors) -> "Subspace":
        vecs = [tuple(_as_fraction(x) for x in v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("spanning vector has wrong length")
        if not vecs:
            return Subspace(ambient_dim, RationalMatrix([], 0, ambient_dim))
        red = rref(RationalMatrix(vecs))
        keep = [row for row in red.rows if any(x != 0 for x in row)]
        return Subspace(
            ambient_dim, RationalMatrix(keep, len(keep), ambient_dim)
        )

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, RationalMatrix([], 0, ambient_dim))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, RationalMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    @property
    def pivots(self) -> tuple:
        """Pivot column of each basis row (its leading nonzero entry)."""
        return tuple(
            next(j for j, x in enumerate(row) if x) for row in self.basis.rows
        )

    @property
    def free_columns(self) -> list:
        """The non-pivot columns, in increasing order."""
        pivot_set = set(self.pivots)
        return [j for j in range(self.ambient_dim) if j not in pivot_set]

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def coordinates(self, mat: RationalMatrix) -> RationalMatrix | None:
        """The unique X with basis^T X = mat, or None if a column of ``mat``
        lies outside the subspace.

        Basis row r is 1 at its pivot p_r and every other row is 0 there,
        so row r of X is row p_r of ``mat``; the product checks the rest.
        """
        if mat.nrows != self.ambient_dim:
            raise ValueError("coordinates need one row per ambient coordinate")
        x = RationalMatrix([mat.rows[p] for p in self.pivots], self.dim, mat.ncols)
        return x if self.basis.transpose() * x == mat else None

    def contains(self, vec) -> bool:
        return self.coordinates(RationalMatrix.column(vec)) is not None

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.from_spanning(
            self.ambient_dim, self.basis.rows + other.basis.rows
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus-free intersection via a kernel computation."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        # x in both spans: x = a^T u = b^T v; solve [A^T | -B^T] null space.
        at = self.basis.transpose()
        bt = other.basis.transpose()
        nul = kernel_basis(at.hstack(bt.scale(-1)))
        vecs = []
        for coeffs in nul.basis.rows:
            u = coeffs[: self.dim]
            vecs.append(
                tuple(
                    sum((c * row[j] for c, row in zip(u, self.basis.rows)), _ZERO)
                    for j in range(self.ambient_dim)
                )
            )
        return Subspace.from_spanning(self.ambient_dim, vecs)


def kernel_basis(mat: RationalMatrix) -> Subspace:
    """Canonical basis of the null space {x : M x = 0}."""
    n = mat.ncols
    if n == 0:
        return Subspace.zero(0)
    if mat.nrows == 0:
        return Subspace.full(n)
    int_rows = [_clear_denominators(row) for row in mat.rows]
    pivots, out_rows, denoms = rref_int(int_rows, n)
    pivot_set = set(pivots)
    free_cols = [j for j in range(n) if j not in pivot_set]
    vecs = []
    for f in free_cols:
        vec = [_ZERO] * n
        vec[f] = _ONE
        for r, c in enumerate(pivots):
            entry = Fraction(out_rows[r][f], denoms[r])
            if entry:
                vec[c] = -entry
        vecs.append(vec)
    return Subspace.from_spanning(n, vecs)


def image_basis(mat: RationalMatrix) -> Subspace:
    """Canonical basis of the column space."""
    return Subspace.from_spanning(mat.nrows, mat.transpose().rows)


def _solve_augmented(mat: RationalMatrix, rhs_rows, k: int):
    """Rows of one solution X of M X = B from the RREF of [M | B].

    ``rhs_rows`` are the rows of the k-column right-hand side B.  A pivot
    among B's columns marks an inconsistent column, and the answer is None.
    Free variables are zero, so column j of X is what eliminating [M | b_j]
    alone would give.
    """
    n = mat.ncols
    int_rows = [
        _clear_denominators(row + tuple(b)) for row, b in zip(mat.rows, rhs_rows)
    ]
    pivots, out_rows, denoms = rref_int(int_rows, n + k)
    if pivots and pivots[-1] >= n:
        return None
    x = [[_ZERO] * k for _ in range(n)]
    for r, c in enumerate(pivots):
        orow = out_rows[r]
        x[c] = [Fraction(orow[n + j], denoms[r]) for j in range(k)]
    return x


def solve(mat: RationalMatrix, b) -> tuple | None:
    """One solution of M x = b, or None when the system is inconsistent."""
    b = tuple(_as_fraction(x) for x in b)
    if len(b) != mat.nrows:
        raise ValueError("right-hand side length mismatch")
    x = _solve_augmented(mat, [(bi,) for bi in b], 1)
    return None if x is None else tuple(row[0] for row in x)


def solve_matrix(mat: RationalMatrix, rhs: RationalMatrix) -> RationalMatrix | None:
    """Solve M X = B in one elimination; None if any column is inconsistent."""
    if rhs.nrows != mat.nrows:
        raise ValueError("right-hand side length mismatch")
    x = _solve_augmented(mat, rhs.rows, rhs.ncols)
    return None if x is None else RationalMatrix(x, mat.ncols, rhs.ncols)


def inverse(mat: RationalMatrix) -> RationalMatrix | None:
    if mat.nrows != mat.ncols:
        return None
    ident = RationalMatrix.identity(mat.nrows)
    sol = solve_matrix(mat, ident)
    if sol is None or mat * sol != ident:
        return None
    return sol


def quotient_map(ambient_dim: int, sub: Subspace) -> RationalMatrix:
    """The surjection Q: Q^d -> Q^(d-dim sub) with kernel sub, canonically.

    The complement is spanned by the unit vectors e_f at the non-pivot
    columns f of the subspace basis, and Q v lists the coordinates of v
    along them.  As v = sum_r v[p_r] b_r + sum_f c_f e_f, row f of Q is
    e_f - sum_r b_r[f] e_{p_r}: read off the RREF, with no elimination.
    """
    if sub.ambient_dim != ambient_dim:
        raise ValueError("subspace has wrong ambient dimension")
    pivots = sub.pivots
    rows = []
    for f in sub.free_columns:
        row = [_ZERO] * ambient_dim
        row[f] = _ONE
        for p, b in zip(pivots, sub.basis.rows):
            if b[f]:
                row[p] = -b[f]
        rows.append(row)
    return RationalMatrix(rows, len(rows), ambient_dim)
