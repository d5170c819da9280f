"""Exact linear algebra over the rationals.

Everything in the package that touches a linear map goes through this
module.  A matrix keeps its entries as dense rows of Python ints over one
positive denominator, with the gcd of every entry and the denominator equal
to 1, so equal matrices have equal rows and hashes.  Products, sums,
Kronecker products, stacking and eliminations work on those ints;
``fractions.Fraction`` appears only where entries cross the API: indexing,
``col``, ``apply`` and the constructor.  All rank-type computations feed
the stored rows to the integer Gauss-Jordan kernel :func:`rref_int`
(scaling a row does not change its span).  No floating point anywhere.

A :class:`Subspace` is always stored through the reduced row echelon form of
a spanning set, so subspace equality is plain matrix equality, and its pivot
columns give coordinates, containment and quotient maps without a further
elimination.

Both types are immutable, so the values fixed by a shape alone are built
once per key (``lru_cache``) and shared: ``RationalMatrix.zeros(r, c)``,
``RationalMatrix.identity(n)`` (on the shared :func:`_identity_rows`),
``Subspace.zero(d)`` and ``Subspace.full(d)``.  Only ``_make`` and the two
constructors write their fields.  The shared row tables :func:`_unit_rows`
and :func:`_unit_index` are read-only ``MappingProxyType`` views.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from math import gcd, lcm
from operator import add, itemgetter, sub
from types import MappingProxyType

_ZERO = Fraction(0)


# -- the elimination kernel ----------------------------------------------
#
# The package's one elimination path: everything upstream (kernels, images,
# solvers, hom spaces) reduces to :func:`rref_int`, so it is the hot loop of
# the whole package.


def _row_content(row):
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
            if g == 1:
                return 1
    return g


def rref_int(rows, ncols):
    """Integer Gauss-Jordan elimination of a list of integer rows
    (denominators already cleared row by row; row scaling does not change
    the row space) with ``ncols`` columns.

    Returns ``(pivot_cols, out_rows, denoms)``, where row ``r`` of the
    rational reduced row echelon form equals ``out_rows[r] / denoms[r]``.
    Pivot rows come first in pivot-column order, zero rows are kept at the
    bottom with denominator 1, every ``out_rows[r]`` has content 1 and
    ``denoms[r] > 0``.  The rational RREF of a matrix is unique, so this
    output is canonical: it does not depend on the elimination order, only
    the intermediate integer growth does.
    """
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


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@lru_cache(maxsize=None)
def _identity_rows(n):
    """The rows of the n x n identity, shared by every identity built and
    by the identity test in products."""
    zero = (0,) * n
    return tuple(zero[:i] + (1,) + zero[i + 1:] for i in range(n))


@lru_cache(maxsize=None)
def _unit_rows(n):
    """{c: e_c} for c in range(n), the shared identity rows, and {None: 0},
    read-only."""
    return MappingProxyType({None: (0,) * n, **dict(enumerate(_identity_rows(n)))})


@lru_cache(maxsize=None)
def _unit_index(n):
    """{e_c: c} for the rows e_c of the n x n identity and {0: n} for the
    zero row, read-only: the row of a product's right operand, with a zero
    row appended, that a unit or zero left row picks.  Rows are found by
    value, not only as the shared tuples."""
    return MappingProxyType({(0,) * n: n, **{e: c for c, e in enumerate(_identity_rows(n))}})


def _is_identity(mat) -> bool:
    return mat.den == 1 and mat.nrows == mat.ncols and mat.rows == _identity_rows(mat.nrows)


def _make(rows, den, nrows, ncols):
    """The matrix of int row tuples ``rows`` over ``den``, already reduced."""
    m = object.__new__(RationalMatrix)
    m.rows = rows
    m.den = den
    m.nrows = nrows
    m.ncols = ncols
    return m


def _reduced(rows, den, nrows, ncols):
    """The matrix of int row tuples ``rows`` over a positive ``den``, with
    the gcd of the entries and ``den`` divided out."""
    if den != 1:
        g = den
        for row in rows:
            g = gcd(g, *row)
            if g == 1:
                break
        if g != 1:
            rows = tuple(tuple(x // g for x in row) for row in rows)
            den //= g
    return _make(rows, den, nrows, ncols)


def _stack_rows(pairs, ncols):
    """The matrix whose rows are the int rows r over d, for (r, d) in
    ``pairs``, each of length ``ncols``."""
    pairs = list(pairs)
    den = lcm(*(d for _, d in pairs))
    rows = tuple(tuple(r) if d == den else tuple(x * (den // d) for x in r)
                 for r, d in pairs)
    return _reduced(rows, den, len(rows), ncols)


def _scaled(rows, f):
    return rows if f == 1 else tuple(tuple(x * f for x in row) for row in rows)


def _over_common_den(a, b):
    """The int rows of matrices a and b over their least common
    denominator, and that denominator."""
    den = lcm(a.den, b.den)
    return _scaled(a.rows, den // a.den), _scaled(b.rows, den // b.den), den


class RationalMatrix:
    """Immutable dense matrix with exact rational entries: int ``rows``
    over the positive ``den``, reduced."""

    __slots__ = ("rows", "den", "nrows", "ncols")

    def __init__(self, rows, nrows=None, ncols=None):
        rows = [tuple(row) for row in rows]
        widths = set(map(len, rows))
        if len(widths) > 1:
            raise ValueError("ragged rows")
        width = widths.pop() if widths else 0
        den = 1
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            fracs = [[_as_fraction(x) for x in row] for row in rows]
            den = lcm(*(x.denominator for row in fracs for x in row))
            rows = [tuple(x.numerator * (den // x.denominator) for x in row)
                    for row in fracs]
        self.rows = tuple(rows)
        self.den = den
        self.nrows = len(rows) if nrows is None else nrows
        self.ncols = width if ncols is None else ncols
        if self.nrows != len(rows) or (rows and self.ncols != width):
            raise ValueError("row grid does not match declared shape")

    # -- constructors -------------------------------------------------

    @staticmethod
    @lru_cache(maxsize=None)
    def zeros(nrows: int, ncols: int) -> "RationalMatrix":
        """The zero matrix of this shape, built once and shared."""
        return _make(((0,) * ncols,) * nrows, 1, nrows, ncols)

    @staticmethod
    @lru_cache(maxsize=None)
    def identity(n: int) -> "RationalMatrix":
        """The n x n identity on the shared :func:`_identity_rows`, built
        once and shared."""
        return _make(_identity_rows(n), 1, n, n)

    @staticmethod
    def column(vec) -> "RationalMatrix":
        return RationalMatrix([[x] for x in vec])

    # -- basics --------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.den == other.den
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.den, self.rows))

    def __repr__(self):
        if self.nrows * self.ncols > 36:
            return f"RationalMatrix({self.nrows}x{self.ncols})"
        body = "; ".join(
            " ".join(str(Fraction(x, self.den)) for x in row) for row in self.rows
        )
        return f"RationalMatrix[{body}]"

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.rows[i][j], self.den)

    def col(self, j):
        den = self.den
        return tuple(Fraction(row[j], den) for row in self.rows)

    def columns(self, cols) -> "RationalMatrix":
        """The submatrix of the given columns, in the given order."""
        cols = tuple(cols)
        if len(cols) > 1:
            pick = itemgetter(*cols)
            rows = tuple(map(pick, self.rows))
        else:  # itemgetter of one column returns an entry, of none fails
            rows = tuple((row[cols[0]],) if cols else () for row in self.rows)
        return _reduced(rows, self.den, self.nrows, len(cols))

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.rows)

    def transpose(self) -> "RationalMatrix":
        rows = tuple(zip(*self.rows)) if self.nrows else ((),) * self.ncols
        return _make(rows, self.den, self.ncols, self.nrows)

    # -- arithmetic ----------------------------------------------------

    def _combine(self, other, op, name):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch in {name}")
        ra, rb, den = _over_common_den(self, other)
        rows = tuple(tuple(map(op, a, b)) for a, b in zip(ra, rb))
        return _reduced(rows, den, self.nrows, self.ncols)

    def __add__(self, other):
        return self._combine(other, add, "+")

    def __sub__(self, other):
        return self._combine(other, sub, "-")

    def __neg__(self):
        return _make(
            tuple(tuple(-a for a in row) for row in self.rows),
            self.den, self.nrows, self.ncols,
        )

    def scale(self, c) -> "RationalMatrix":
        c = _as_fraction(c)
        return _reduced(
            _scaled(self.rows, c.numerator),
            self.den * c.denominator, self.nrows, self.ncols,
        )

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch in *: {self.shape} by {other.shape}"
            )
        nc = other.ncols
        # an identity operand gives the other one back (matrices are
        # immutable); a left one must be square: a 0 x k matrix has the
        # (empty) rows of the 0 x 0 identity
        if _is_identity(other):
            return self
        if _is_identity(self):
            return other
        if not (self.nrows and self.ncols and nc):
            return RationalMatrix.zeros(self.nrows, nc)
        # a unit row e_c (a monomial generator action) takes right row c as
        # is, and a zero row the zero row appended at index ncols, in one
        # lookup; any other row pays for its nonzero entries only
        orows = other.rows + ((0,) * nc,)
        unit = _unit_index(self.ncols).get
        cols = range(self.ncols)
        out = []
        for arow in self.rows:
            c = unit(arow)
            if c is not None:
                out.append(orows[c])
                continue
            nz = list(compress(cols, arow))
            j = nz[0]
            a = arow[j]
            acc = [a * b for b in orows[j]]
            for j in nz[1:]:
                a = arow[j]
                acc = [x + a * b for x, b in zip(acc, orows[j])]
            out.append(tuple(acc))
        return _reduced(tuple(out), self.den * other.den, self.nrows, nc)

    def apply(self, vec):
        """Matrix times column vector (a tuple of Fractions)."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        den = self.den
        return tuple(
            sum((a * v for a, v in zip(row, vec) if a and v), _ZERO) / den
            for row in self.rows
        )

    # -- stacking ------------------------------------------------------

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        ra, rb, den = _over_common_den(self, other)
        return _reduced(
            tuple(a + b for a, b in zip(ra, rb)),
            den, self.nrows, self.ncols + other.ncols,
        )


def block_diag(blocks) -> RationalMatrix:
    blocks = list(blocks)
    nr = sum(b.nrows for b in blocks)
    nc = sum(b.ncols for b in blocks)
    den = lcm(*(b.den for b in blocks))
    out = []
    co = 0
    for b in blocks:
        left = (0,) * co
        right = (0,) * (nc - co - b.ncols)
        out += [left + row + right for row in _scaled(b.rows, den // b.den)]
        co += b.ncols
    return _reduced(tuple(out), den, nr, nc)


def kron(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Kronecker product; realizes objectwise tensor of linear maps."""
    out = []
    bzero = (0,) * b.ncols
    for arow in a.rows:
        for brow in b.rows:
            row = []
            for x in arow:
                if x:
                    row.extend([x * y for y in brow])
                else:
                    row.extend(bzero)
            out.append(tuple(row))
    return _reduced(tuple(out), a.den * b.den, a.nrows * b.nrows, a.ncols * b.ncols)


# -- echelon form and friends -----------------------------------------


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
    ints = list(RationalMatrix([coeffs]).rows[0])  # times their common denominator
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


def rank(mat: RationalMatrix) -> int:
    if mat.nrows == 0 or mat.ncols == 0:
        return 0
    pivots, _, _ = rref_int(mat.rows, mat.ncols)
    return len(pivots)


class Subspace:
    """A subspace of Q^d, stored as an RREF basis (rows) of the span, with
    the pivot column of each basis row.  The pivots are derived from the
    basis, so they take no part in equality or hashing."""

    __slots__ = ("ambient_dim", "basis", "_pivots")

    def __init__(self, ambient_dim: int, basis: RationalMatrix, pivots: tuple):
        if basis.ncols != ambient_dim and basis.nrows > 0:
            raise ValueError("basis width must equal ambient dimension")
        if len(pivots) != basis.nrows:
            raise ValueError("need one pivot per basis row")
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._pivots = pivots

    @staticmethod
    def from_spanning(ambient_dim: int, vectors) -> "Subspace":
        """The span of ``vectors``.  Int rows go to :func:`rref_int` as they
        are; any other entry (Fraction, bool, str) is read by the
        :class:`RationalMatrix` constructor, which clears denominators."""
        vecs = [tuple(v) for v in vectors]
        if any(len(v) != ambient_dim for v in vecs):
            raise ValueError("spanning vector has wrong length")
        if not vecs or ambient_dim == 0:
            return Subspace.zero(ambient_dim)
        if not set(map(type, chain.from_iterable(vecs))) <= {int}:
            vecs = RationalMatrix(vecs, len(vecs), ambient_dim).rows
        pivots, out_rows, denoms = rref_int(vecs, ambient_dim)
        r = len(pivots)
        return Subspace(ambient_dim, _stack_rows(zip(out_rows[:r], denoms[:r]), ambient_dim),
                        tuple(pivots))

    @staticmethod
    @lru_cache(maxsize=None)
    def zero(ambient_dim: int) -> "Subspace":
        """The zero subspace of Q^d, built once per d and shared."""
        return Subspace(ambient_dim, RationalMatrix.zeros(0, ambient_dim), ())

    @staticmethod
    @lru_cache(maxsize=None)
    def full(ambient_dim: int) -> "Subspace":
        """Q^d itself, on the shared identity, built once per d and shared."""
        return Subspace(ambient_dim, RationalMatrix.identity(ambient_dim),
                        tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    @property
    def pivots(self) -> tuple:
        """Pivot column of each basis row (its leading nonzero entry)."""
        return self._pivots

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
        The full space has the identity basis, so X is ``mat``; where X is
        empty, basis^T X is zero.
        """
        if mat.nrows != self.ambient_dim:
            raise ValueError("coordinates need one row per ambient coordinate")
        if self.dim == self.ambient_dim:
            return mat
        if not (self.dim and mat.ncols):
            return RationalMatrix.zeros(self.dim, mat.ncols) if mat.is_zero() else None
        x = _reduced(tuple(mat.rows[p] for p in self.pivots), mat.den, self.dim, mat.ncols)
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
        """The kernel of the two quotient maps stacked (:func:`quotient_map`,
        read off the RREF bases): one elimination.  Scaling a row keeps the
        kernel, so their int rows stack as they are."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        qa, qb = (quotient_map(self.ambient_dim, s) for s in (self, other))
        return kernel_basis(_make(qa.rows + qb.rows, 1, qa.nrows + qb.nrows,
                                  self.ambient_dim))


def kernel_basis(mat: RationalMatrix) -> Subspace:
    """Canonical basis of the null space {x : M x = 0}."""
    n = mat.ncols
    if n == 0:
        return Subspace.zero(0)
    if mat.nrows == 0:
        return Subspace.full(n)
    if _is_identity(mat):
        return Subspace.zero(n)
    pivots, out_rows, denoms = rref_int(mat.rows, n)
    pivot_set = set(pivots)
    vecs = []
    for f in range(n):
        if f in pivot_set:
            continue
        # e_f minus the pivot variables it forces, times their denominators
        terms = [(c, out_rows[r][f], denoms[r])
                 for r, c in enumerate(pivots) if out_rows[r][f]]
        den = lcm(*(d for _, _, d in terms))
        vec = [0] * n
        vec[f] = den
        for c, x, d in terms:
            vec[c] = -x * (den // d)
        vecs.append(vec)
    return Subspace.from_spanning(n, vecs)


def image_basis(mat: RationalMatrix) -> Subspace:
    """Canonical basis of the column space."""
    return Subspace.from_spanning(mat.nrows, mat.transpose().rows)


def _solve_augmented(mat: RationalMatrix, rhs: RationalMatrix):
    """One solution X of M X = B from the RREF of [M | B], or None.

    A pivot among B's columns marks an inconsistent column.  Free variables
    are zero, so column j of X is what eliminating [M | b_j] alone would
    give.  An identity M gives B back, as a product does.
    """
    if _is_identity(mat):
        return rhs
    n, k = mat.ncols, rhs.ncols
    if mat.nrows == 0:  # no equations: the free variables are everything
        return RationalMatrix.zeros(n, k)
    pivots, out_rows, denoms = rref_int(mat.hstack(rhs).rows, n + k)
    if pivots and pivots[-1] >= n:
        return None
    x = [((0,) * k, 1)] * n
    for r, c in enumerate(pivots):
        x[c] = (out_rows[r][n:], denoms[r])
    return _stack_rows(x, k)


def solve(mat: RationalMatrix, b) -> tuple | None:
    """One solution of M x = b, or None when the system is inconsistent."""
    b = tuple(b)
    if len(b) != mat.nrows:
        raise ValueError("right-hand side length mismatch")
    x = _solve_augmented(mat, RationalMatrix([[bi] for bi in b], len(b), 1))
    return None if x is None else x.col(0)


def solve_matrix(mat: RationalMatrix, rhs: RationalMatrix) -> RationalMatrix | None:
    """Solve M X = B in one elimination; None if any column is inconsistent."""
    if rhs.nrows != mat.nrows:
        raise ValueError("right-hand side length mismatch")
    return _solve_augmented(mat, rhs)


def inverse(mat: RationalMatrix) -> RationalMatrix | None:
    if mat.nrows != mat.ncols:
        return None
    # a singular M leaves a pivot in the identity block, so a returned X
    # already satisfies M X = I exactly
    return solve_matrix(mat, RationalMatrix.identity(mat.nrows))


def quotient_map(ambient_dim: int, sub: Subspace) -> RationalMatrix:
    """The surjection Q: Q^d -> Q^(d-dim sub) with kernel sub, canonically.

    The complement is spanned by the unit vectors e_f at the non-pivot
    columns f of the subspace basis, and Q v lists the coordinates of v
    along them.  As v = sum_r v[p_r] b_r + sum_f c_f e_f, row f of Q is
    e_f - sum_r b_r[f] e_{p_r}: read off the RREF, with no elimination.
    """
    if sub.ambient_dim != ambient_dim:
        raise ValueError("subspace has wrong ambient dimension")
    # times the basis denominator: den e_f - sum_r (den b_r)[f] e_{p_r}
    den = sub.basis.den
    pairs = list(zip(sub.pivots, sub.basis.rows))
    rows = []
    for f in sub.free_columns:
        row = [0] * ambient_dim
        row[f] = den
        for p, b in pairs:
            if b[f]:
                row[p] = -b[f]
        rows.append(tuple(row))
    return _reduced(tuple(rows), den, len(rows), ambient_dim)
