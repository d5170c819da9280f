import random
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fimlab.linalg
import fimlab.modules
from fimlab.category import GroupTable, Window, sub, unit
from fimlab.linalg import (
    RationalMatrix,
    Subspace,
    image_basis,
    inverse,
    kernel_basis,
    kron,
    quotient_map,
    rank,
    rational_roots,
    rref_int,
    solve,
    solve_matrix,
)
from fimlab.modules import (
    TruncatedModule,
    close_under_actions,
    make_free,
    positive_degree_image,
    quotient,
    submodule_from_stable_subspaces,
)

from oracles import enumerate_injections, evaluate, rref

F = Fraction


def naive_row_reduce(rows):
    """Independent oracle: textbook Gaussian elimination on Fraction lists."""
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return rows
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        rows[r] = [x / p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                q = rows[i][c]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return rows


def rand_matrix(rng, nr, nc, span=9):
    return RationalMatrix(
        [[F(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(nc)] for _ in range(nr)]
    )


def test_rref_zero_fixed_point():
    m = RationalMatrix([[0]])
    assert rref(m) == m


def test_rref_rank_one_collapse():
    m = RationalMatrix([[2, 4], [1, 2]])
    assert rref(m) == RationalMatrix([[1, 2], [0, 0]])


# Degenerate kernel inputs: no rows, a zero row, a zero 1x1, a rank-one
# collapse with a trailing zero row.
DEGENERATE_KERNEL_INPUTS = [
    ([], 3),
    ([[0, 0, 0]], 3),
    ([[1]], 1),
    ([[0]], 1),
    ([[2, 4], [1, 2], [0, 0]], 2),
]


def test_rref_invertible_to_identity_and_matches_naive():
    m = RationalMatrix([[1, 2], [3, 4]])
    assert rref(m) == RationalMatrix.identity(2)
    extra = [rows for rows, _ in DEGENERATE_KERNEL_INPUTS]
    for rows in [[[1, 2], [3, 4]], [[0, 1, 2], [1, 1, 1], [2, 3, 4]], [[5]]] + extra:
        got = rref(RationalMatrix(rows))
        want = naive_row_reduce(rows)
        assert got == RationalMatrix(want)


@pytest.mark.parametrize("rows,ncols", DEGENERATE_KERNEL_INPUTS)
def test_rref_int_contract_on_degenerate_input(rows, ncols):
    pivots, out_rows, denoms = rref_int([r[:] for r in rows], ncols)
    want = naive_row_reduce(rows)
    assert [[F(x, d) for x in row] for row, d in zip(out_rows, denoms)] == want
    assert pivots == [next(j for j, x in enumerate(r) if x) for r in want if any(r)]
    for r, (row, d) in enumerate(zip(out_rows, denoms)):
        assert d > 0
        if r >= len(pivots):
            assert d == 1 and not any(row)


def with_degenerate_examples(test):
    for rows, _ in DEGENERATE_KERNEL_INPUTS:
        test = example(rows)(test)
    return test


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
@with_degenerate_examples
def test_rref_idempotent_and_matches_naive(rows):
    m = RationalMatrix(rows)
    red = rref(m)
    assert rref(red) == red
    assert red == RationalMatrix(naive_row_reduce(rows))


def test_kernel_of_identity_is_zero():
    assert kernel_basis(RationalMatrix.identity(3)).dim == 0


def test_kernel_of_zero_map_is_full():
    assert kernel_basis(RationalMatrix.zeros(2, 3)) == Subspace.full(3)


def test_kernel_vectors_annihilated():
    m = RationalMatrix([[1, 1, 0]])
    ker = kernel_basis(m)
    assert ker.dim == 2
    for b in ker.basis.rows:
        assert all(x == 0 for x in m.apply(b))


def test_rank_nullity_random():
    rng = random.Random(4)
    for _ in range(25):
        nr = rng.randint(1, 12)
        nc = rng.randint(1, 12)
        m = rand_matrix(rng, nr, nc)
        assert kernel_basis(m).dim + image_basis(m).dim == nc


def test_solve_and_substitute_back():
    m = RationalMatrix([[1, 2], [3, 4]])
    x = solve(m, (1, 1))
    assert x == (F(-1), F(1))
    assert m.apply(x) == (F(1), F(1))


def test_solve_inconsistent_returns_none():
    m = RationalMatrix([[1, 1], [1, 1]])
    assert solve(m, (0, 1)) is None


def test_quotient_map_kills_subspace():
    sub = Subspace.from_spanning(2, [(1, 0)])
    q = quotient_map(2, sub)
    assert q.shape == (1, 2)
    assert q.apply((1, 0)) == (F(0),)
    assert rank(q) == 1


def test_quotient_map_random_properties():
    rng = random.Random(11)
    for _ in range(15):
        d = rng.randint(1, 6)
        k = rng.randint(0, d)
        sub = Subspace.from_spanning(
            d, [[rng.randint(-3, 3) for _ in range(d)] for _ in range(k)]
        )
        q = quotient_map(d, sub)
        assert rank(q) == d - sub.dim
        for b in sub.basis.rows:
            assert all(x == 0 for x in q.apply(b))


def test_kron_identities():
    assert kron(RationalMatrix.identity(2), RationalMatrix.identity(3)) == RationalMatrix.identity(6)


def test_kron_mixed_product():
    rng = random.Random(7)
    a = rand_matrix(rng, 2, 3)
    b = rand_matrix(rng, 3, 2)
    c = rand_matrix(rng, 3, 2)
    d = rand_matrix(rng, 2, 4)
    assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


def test_subspace_algebra():
    u = Subspace.from_spanning(3, [(1, 0, 0), (0, 1, 0)])
    v = Subspace.from_spanning(3, [(0, 1, 0), (0, 0, 1)])
    assert u.add(v) == Subspace.full(3)
    assert u.intersect(v) == Subspace.from_spanning(3, [(0, 1, 0)])
    assert u.contains((2, 5, 0)) and not u.contains((0, 0, 1))


def test_shape_values_are_shared_and_equal_fresh_ones():
    """zeros, identity, Subspace.zero and Subspace.full return one shared
    value per shape, equal to the same value built afresh."""
    for r, c in ((0, 0), (0, 3), (2, 0), (2, 3)):
        z = RationalMatrix.zeros(r, c)
        assert z is RationalMatrix.zeros(r, c)
        assert z == RationalMatrix([[0] * c for _ in range(r)], r, c) and z.shape == (r, c)
    for n in (0, 1, 4):
        one = RationalMatrix.identity(n)
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        assert one is RationalMatrix.identity(n)
        assert one == RationalMatrix(rows, n, n)
        assert one.rows is fimlab.linalg._identity_rows(n)
        zero, full = Subspace.zero(n), Subspace.full(n)
        assert zero is Subspace.zero(n) and full is Subspace.full(n)
        assert zero == Subspace(n, RationalMatrix([], 0, n), ()) and zero.pivots == ()
        assert full == Subspace(n, RationalMatrix(rows, n, n), tuple(range(n)))
        assert full.pivots == tuple(range(n)) and full.dim == n


SPANNING_INTS = [(2, 4, 0, -6), (1, 2, 3, 0), (0, 0, 0, 0), (3, 6, 3, -6)]


@pytest.mark.parametrize("convert", [
    Fraction,
    lambda x: F(x, 3),
    lambda x: str(F(x, 7)),
    lambda x: x if x % 2 else F(x),
], ids=["integral Fraction", "Fraction", "str", "mixed int and Fraction"])
def test_from_spanning_reads_every_entry_type_alike(convert):
    """Int rows reach the kernel as they are; any other entry goes through
    the RationalMatrix constructor.  Both give the same subspace, which
    the textbook elimination confirms."""
    want = Subspace.from_spanning(4, SPANNING_INTS)
    assert want.dim == 2 and want.pivots == (0, 2)
    assert want.basis == RationalMatrix(
        [r for r in naive_row_reduce(SPANNING_INTS) if any(r)])
    got = Subspace.from_spanning(4, [[convert(x) for x in v] for v in SPANNING_INTS])
    assert got == want and got.pivots == want.pivots


def test_from_spanning_reads_bool_entries_as_0_and_1():
    bools = [(True, False, True), (False, True, True), (True, True, False)]
    got = Subspace.from_spanning(3, bools)
    assert got == Subspace.from_spanning(3, [tuple(map(int, v)) for v in bools])
    assert got == Subspace.full(3) and got.pivots == (0, 1, 2)


def test_from_spanning_rejects_a_wrong_length_or_inexact_vector():
    for dim, vecs in ((3, [(1, 2)]), (3, [(1, 2, 3), (1, 2, 3, 4)]), (3, [(F(1, 2), 1)]),
                      (3, [(True,)]), (2, [()]), (0, [(1,)])):
        with pytest.raises(ValueError, match="wrong length"):
            Subspace.from_spanning(dim, vecs)
    with pytest.raises(TypeError):
        Subspace.from_spanning(2, [(1, 0.5)])


def test_inverse_round_trip():
    m = RationalMatrix([[1, 2], [3, 5]])
    mi = inverse(m)
    assert mi is not None and m * mi == RationalMatrix.identity(2)
    assert inverse(RationalMatrix([[1, 2], [2, 4]])) is None


def test_entries_reduced_fractions():
    m = rref(RationalMatrix([[2, 3], [4, 7]]))
    for i in range(m.nrows):
        for j in range(m.ncols):
            assert isinstance(m[i, j], Fraction)
    # stored as int rows over one denominator, sharing no factor with it
    half = rref(RationalMatrix([[2, 1, 3]]))
    assert half.rows == ((2, 1, 3),) and half.den == 2
    assert half[0, 1] == F(1, 2) and half.col(2) == (F(3, 2),)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [3]])


def test_integral_matrices_build_no_fraction(monkeypatch):
    """Products, Kronecker products, transposes, stacking, ranks, kernels
    and quotient maps work on the stored ints: on integral matrices none of
    them builds a Fraction."""
    a = RationalMatrix([[1, 0, 2], [0, -1, 3]])
    b = RationalMatrix([[2, 1], [0, 1], [1, 1]])
    sub = Subspace.from_spanning(3, [(1, 2, 0), (0, 2, 1)])
    quotient = RationalMatrix([["1", "-1/2", "1"]])
    kernel = RationalMatrix([["1", "-3/2", "-1/2"]])

    def forbidden(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(fimlab.linalg, "Fraction", forbidden)
    assert a * b == RationalMatrix([[4, 3], [3, 2]])
    assert kron(a, b).shape == (6, 6) and kron(b, a).rows[5][5] == 3
    assert a.transpose() == RationalMatrix([[1, 0], [0, -1], [2, 3]])
    assert a.hstack(a).shape == (2, 6)
    assert fimlab.linalg.block_diag([a, b]).shape == (5, 5)
    assert rank(a) == 2 and rank(b * a) == 2
    assert kernel_basis(a).basis == kernel
    # a kernel with a non-integral RREF basis: (1, -1/2, 0) spans it
    assert kernel_basis(RationalMatrix([[1, 2, 0], [0, 0, 1]])).dim == 1
    assert kernel_basis(RationalMatrix([[2, 4, 1]])).basis.den == 1
    assert quotient_map(3, sub) == quotient


def test_canonical_form_makes_equal_matrices_equal():
    half = RationalMatrix([["2/4"]])
    assert half == RationalMatrix([[Fraction(1, 2)]]) == RationalMatrix([[F(2, 4)]])
    assert hash(half) == hash(RationalMatrix([[Fraction(1, 2)]]))
    assert half.rows == ((1,),) and half.den == 2
    # results of int arithmetic land in the same form
    assert half * RationalMatrix([[2]]) == RationalMatrix.identity(1)
    assert (half + half).den == 1 and (half - half) == RationalMatrix.zeros(1, 1)
    assert RationalMatrix([[2, 4]]).scale(F(1, 4)) == RationalMatrix([["1/2", "1"]])


# -- solvers and quotient maps against independent constructions -----------

rational = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def matrices(max_rows=5, max_cols=5, min_rows=0, min_cols=0):
    return st.integers(min_rows, max_rows).flatmap(
        lambda nr: st.integers(min_cols, max_cols).flatmap(
            lambda nc: st.lists(
                st.lists(rational, min_size=nc, max_size=nc),
                min_size=nr,
                max_size=nr,
            ).map(lambda rows: RationalMatrix(rows, nr, nc))
        )
    )


def _sympy_dm(mat):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    qq = sympy.QQ
    return DomainMatrix(
        [[qq(x.numerator, x.denominator) for x in row] for row in _entries(mat)],
        mat.shape,
        qq,
    )


def _entries(mat):
    """The entries of a RationalMatrix as lists of Fractions, read through
    indexing."""
    return [[mat[i, j] for j in range(mat.ncols)] for i in range(mat.nrows)]


def _from_sympy(x):
    return F(int(x.numerator), int(x.denominator))


def sympy_solve_matrix(mat, rhs):
    """Oracle: sympy's RREF of [M | B]; free variables set to zero."""
    n = mat.ncols
    red, pivots = _sympy_dm(mat).hstack(_sympy_dm(rhs)).rref()
    if any(p >= n for p in pivots):
        return None
    out = [[F(0)] * rhs.ncols for _ in range(n)]
    rows = red.to_list()
    for r, p in enumerate(pivots):
        out[p] = [_from_sympy(x) for x in rows[r][n:]]
    return RationalMatrix(out, n, rhs.ncols)


@settings(max_examples=80, deadline=None)
@given(matrices(), st.integers(0, 3), st.randoms(use_true_random=False))
def test_solve_matrix_matches_sympy(mat, k, rnd):
    # Half the right-hand sides are images M X, so consistent systems show up.
    if rnd.random() < 0.5:
        x = RationalMatrix(
            [[F(rnd.randint(-3, 3)) for _ in range(k)] for _ in range(mat.ncols)],
            mat.ncols,
            k,
        )
        rhs = mat * x
    else:
        rhs = RationalMatrix(
            [[F(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in range(k)]
             for _ in range(mat.nrows)],
            mat.nrows,
            k,
        )
    got = solve_matrix(mat, rhs)
    assert got == sympy_solve_matrix(mat, rhs)
    if got is not None:
        assert mat * got == rhs


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: matrices(n, n, n, n)))
def test_inverse_matches_sympy(mat):
    dm = _sympy_dm(mat)
    got = inverse(mat)
    if dm.det() == 0:
        assert got is None
    else:
        want = [[_from_sympy(x) for x in row] for row in dm.inv().to_list()]
        assert got == RationalMatrix(want)


def test_inverse_of_a_singular_matrix_is_none():
    assert inverse(RationalMatrix([[1, 2], [2, 4]])) is None
    assert inverse(RationalMatrix([["1/2", 1], [0, 0]])) is None


# Left operands of products: dense, mostly zero, and monomial (one entry
# per row, +-1 or a fraction), the shape of a generator action.
sparse_rational = st.one_of(st.just(F(0)), st.just(F(0)), st.just(F(0)), rational)
monomial_entry = st.sampled_from([F(1), F(-1), F(1, 2), F(-3, 4), F(5, 3)])


def _monomial_rows(nr, k):
    if k == 0:
        return st.just([[] for _ in range(nr)])
    row = st.tuples(st.integers(0, k - 1), monomial_entry).map(
        lambda ce: [ce[1] if j == ce[0] else F(0) for j in range(k)])
    return st.lists(row, min_size=nr, max_size=nr)


def _entry_rows(entry, nr, k):
    return st.lists(st.lists(entry, min_size=k, max_size=k), min_size=nr, max_size=nr)


@st.composite
def products(draw):
    nr, k, nc = (draw(st.integers(0, 5)) for _ in range(3))
    kind = draw(st.sampled_from(["dense", "sparse", "monomial"]))
    if kind == "monomial":
        left = draw(_monomial_rows(nr, k))
    else:
        left = draw(_entry_rows(rational if kind == "dense" else sparse_rational, nr, k))
    right = draw(_entry_rows(draw(st.sampled_from([rational, sparse_rational])), k, nc))
    return RationalMatrix(left, nr, k), RationalMatrix(right, k, nc)


@settings(max_examples=150, deadline=None)
@given(products())
@example((RationalMatrix([], 0, 3), RationalMatrix.identity(3)))
@example((RationalMatrix([[], []], 2, 0), RationalMatrix([], 0, 3)))
@example((RationalMatrix([[1, 2], [0, 1]]), RationalMatrix([[], []], 2, 0)))
@example((RationalMatrix([[0, 1], [1, 0], [0, 0]]), RationalMatrix([["1/2", 3], [2, 0]])))
def test_product_matches_sympy(pair):
    a, b = pair
    got = a * b
    want = _sympy_dm(a) * _sympy_dm(b)
    assert got.shape == want.shape
    assert got == RationalMatrix(_sympy_rows(want), *want.shape)


def _fraction_product(a, b):
    return [[sum((a[i, k] * b[k, j] for k in range(a.ncols)), F(0))
             for j in range(b.ncols)] for i in range(a.nrows)]


@st.composite
def identity_or_empty_products(draw):
    """A product with an identity on one side, or an empty dimension."""
    side = draw(st.sampled_from(["identity left", "identity right", "empty"]))
    if side == "empty":
        dims = [draw(st.integers(0, 3)) for _ in range(3)]
        dims[draw(st.integers(0, 2))] = 0
        nr, k, nc = dims
    else:
        nr, k, nc = (draw(st.integers(0, 4)) for _ in range(3))
    left = draw(matrices(nr, k, nr, k))
    right = draw(matrices(k, nc, k, nc))
    if side == "identity left":
        left = RationalMatrix.identity(k)
    elif side == "identity right":
        right = RationalMatrix.identity(k)
    return left, right


@settings(max_examples=80, deadline=None)
@given(identity_or_empty_products())
@example((RationalMatrix([], 0, 3), RationalMatrix.identity(3)))
@example((RationalMatrix.identity(0), RationalMatrix([], 0, 3)))
@example((RationalMatrix([], 0, 0), RationalMatrix([], 0, 2)))
@example((RationalMatrix([], 0, 2), RationalMatrix([[1], [2]])))
@example((RationalMatrix([[], []], 2, 0), RationalMatrix.identity(0)))
@example((RationalMatrix.identity(2), RationalMatrix([[], []], 2, 0)))
@example((RationalMatrix([[1, 0], [0, 1]]), RationalMatrix([["1/2", 3], [2, 0]])))
def test_product_with_an_identity_or_empty_operand_matches_fractions(pair):
    """Shape and value agree with a Fraction product, and an identity
    operand hands the other one back."""
    a, b = pair
    got = a * b
    assert got.shape == (a.nrows, b.ncols)
    assert [[got[i, j] for j in range(got.ncols)] for i in range(got.nrows)] \
        == _fraction_product(a, b)
    if b == RationalMatrix.identity(b.nrows):
        assert got is a
    elif a == RationalMatrix.identity(a.nrows):
        assert got is b


def _left_row(kind, c, k, rng):
    """A left row of width k: the shared unit row e_c, an equal fresh copy of
    it, the zero row, -e_c, 2 e_c, or a general row."""
    if kind == "shared unit":
        return fimlab.linalg._identity_rows(k)[c]
    if kind == "general":
        return tuple(rng.randint(-3, 3) for _ in range(k))
    scale = {"fresh unit": 1, "zero": 0, "minus unit": -1, "twice unit": 2}[kind]
    return tuple(scale * int(j == c) for j in range(k))


LEFT_ROW_KINDS = ("shared unit", "fresh unit", "zero", "minus unit", "twice unit", "general")


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("den", [1, 3])
def test_unit_and_zero_left_rows_match_the_fraction_product(k, den):
    """A left row found by value as e_c or 0 takes the right row c or zero;
    every other row is multiplied out.  Rows of every kind, at every c,
    against the textbook Fraction product."""
    rng = random.Random(k * 10 + den)
    rows = [_left_row(kind, c, k, rng) for kind in LEFT_ROW_KINDS for c in range(k)]
    rows.append(tuple(1 for _ in range(k)))
    a = fimlab.linalg._reduced(tuple(rows), den, len(rows), k)
    shared = fimlab.linalg._identity_rows(k)
    assert a.rows[0] is shared[0] and a.rows[k] == shared[0] and a.rows[k] is not shared[0]
    for nc in (1, 3):
        b = rand_matrix(rng, k, nc)
        got = a * b
        assert got.shape == (a.nrows, nc)
        assert [[got[i, j] for j in range(nc)] for i in range(got.nrows)] \
            == _fraction_product(a, b)


def test_shared_row_tables_are_read_only():
    """The unit-row tables are process-wide; writing into one raises."""
    from fimlab.linalg import _unit_index, _unit_rows

    for n in (0, 2):
        with pytest.raises(TypeError):
            _unit_rows(n)[0] = (5,) * n
        with pytest.raises(TypeError):
            _unit_index(n)[(0,) * n] = 0
    assert dict(_unit_index(2)) == {(0, 0): 2, (1, 0): 0, (0, 1): 1}
    assert dict(_unit_rows(2)) == {None: (0, 0), 0: (1, 0), 1: (0, 1)}


def test_solve_matrix_with_no_rows():
    m = RationalMatrix([], 0, 3)
    rhs = RationalMatrix([], 0, 2)
    assert solve_matrix(m, rhs) == RationalMatrix.zeros(3, 2)
    assert solve(m, ()) == (F(0),) * 3


def test_solve_matrix_with_no_columns_on_the_right():
    m = RationalMatrix([[1, 2], [2, 4]])
    got = solve_matrix(m, RationalMatrix([[], []], 2, 0))
    assert got is not None and got.shape == (2, 0)


def test_solve_matrix_one_inconsistent_column_gives_none():
    m = RationalMatrix([[1, 1], [1, 1], [0, 0]])
    good = RationalMatrix([[2, 0], [2, 0], [0, 0]])
    assert solve_matrix(m, good) is not None
    bad = RationalMatrix([[2, 0, 1], [2, 0, 1], [0, 0, 1]])
    assert solve_matrix(m, bad) is None
    assert solve_matrix(m, RationalMatrix([[1, 1, 3], [1, 2, 3], [0, 0, 0]])) is None


def test_solve_matrix_rejects_wrong_rhs_height():
    with pytest.raises(ValueError):
        solve_matrix(RationalMatrix.identity(2), RationalMatrix.identity(3))


def test_solve_is_one_column_of_solve_matrix():
    rng = random.Random(17)
    for _ in range(30):
        nr, nc, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 3)
        m = rand_matrix(rng, nr, nc, span=3)
        rhs = m * rand_matrix(rng, nc, k, span=3)
        sol = solve_matrix(m, rhs)
        for j in range(k):
            assert solve(m, rhs.col(j)) == sol.col(j)


def _count_kernel_calls(monkeypatch):
    calls = []
    kernel = fimlab.linalg.rref_int

    def counting(rows, ncols):
        calls.append(ncols)
        return kernel(rows, ncols)

    monkeypatch.setattr(fimlab.linalg, "rref_int", counting)
    return calls


def test_each_solver_is_one_elimination(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    m = RationalMatrix([[1, 2, 0], [3, 5, 1], [0, 1, 4]])
    solve(m, (1, 2, 3))
    assert len(calls) == 1
    solve_matrix(m, RationalMatrix.identity(3))
    assert len(calls) == 2
    inverse(m)
    assert len(calls) == 3
    sub = Subspace.from_spanning(3, [(1, 2, 0)])
    del calls[:]
    quotient_map(3, sub)
    assert calls == []


@pytest.mark.parametrize("n", range(6))
def test_an_identity_is_solved_and_has_zero_kernel_without_elimination(monkeypatch, n):
    calls = _count_kernel_calls(monkeypatch)
    ident = RationalMatrix.identity(n)
    rhs = RationalMatrix([[F(i - j, j + 2) for j in range(3)] for i in range(n)], n, 3)
    assert solve_matrix(ident, rhs) is rhs
    assert kernel_basis(ident) == Subspace.zero(n)
    assert calls == []


# Matrices with an identity's entries in part, which are not identities.
IDENTITY_LOOK_ALIKES = {
    "permutation": RationalMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
    "zero row appended": RationalMatrix([[1, 0], [0, 1], [0, 0]]),
    "identity prefix": RationalMatrix([[1, 0, 0], [0, 1, 0]]),
}


@pytest.mark.parametrize("name", sorted(IDENTITY_LOOK_ALIKES))
def test_identity_look_alikes_are_eliminated(monkeypatch, name):
    mat = IDENTITY_LOOK_ALIKES[name]
    calls = _count_kernel_calls(monkeypatch)
    x = RationalMatrix([[F(i + j, 3) for j in range(2)] for i in range(mat.ncols)],
                       mat.ncols, 2)
    for rhs in (mat * x, RationalMatrix.identity(mat.nrows)):
        assert solve_matrix(mat, rhs) == sympy_solve_matrix(mat, rhs)
    assert len(calls) == 2
    want = _sympy_span(_sympy_rows(_sympy_dm(mat).nullspace()), mat.ncols)
    assert _entries(kernel_basis(mat).basis) == want
    assert len(calls) > 2


def test_quotient_makes_no_solve_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("quotient called a solver")

    monkeypatch.setattr(fimlab.modules, "solve", refuse)
    monkeypatch.setattr(fimlab.modules, "solve_matrix", refuse)
    p = make_free((1,), Window((3,)))
    seeds = {(2,): Subspace.from_spanning(2, [(1, -1)])}
    q, proj = quotient(p, close_under_actions(p, seeds))
    assert q.dims == {(0,): 0, (1,): 1, (2,): 1, (3,): 1}
    assert proj.is_natural()


def test_positive_degree_image_is_one_elimination_per_coordinate(monkeypatch):
    """I_S V(n) takes at most one kernel call per i in S with n_i > 0, and
    it is the span of the images of every injection n - o_i -> n, for a
    free module and for its plain copy, which takes the general route."""
    free = make_free((1, 0), Window((3, 3)), GroupTable.symmetric(2))
    calls = _count_kernel_calls(monkeypatch)
    for v, n in product((free, TruncatedModule.from_dict(free.to_dict())),
                        free.window.objects()):
        for S in ((1,), (2,), (1, 2)):
            del calls[:]
            got = positive_degree_image(v, S, n)
            assert len(calls) <= sum(1 for i in S if n[i - 1])
            images = [evaluate(v, beta) for i in S if n[i - 1]
                      for beta in enumerate_injections(sub(n, unit(2, i)), n)]
            if images:
                assert got == image_basis(reduce(RationalMatrix.hstack, images))
            else:
                assert got == Subspace.zero(v.dims[n])


def test_quotient_rejects_unstable_subspaces():
    p = make_free((1,), Window((2,)))
    spaces = {n: Subspace.zero(d) for n, d in p.dims.items()}
    spaces[(1,)] = Subspace.full(1)
    with pytest.raises(ValueError, match="not action-stable"):
        quotient(p, spaces)


def test_subspace_pivots():
    sub = Subspace.from_spanning(4, [(0, 2, 4, 0), (0, 0, 0, 3), (0, 1, 2, 1)])
    assert sub.pivots == (1, 3)
    assert Subspace.zero(3).pivots == ()
    assert Subspace.full(3).pivots == (0, 1, 2)


def inverse_based_quotient_map(d, sub):
    """The construction quotient_map replaced: invert [basis; complement]^T
    and keep the complement coordinates."""
    if sub.dim == 0:
        return RationalMatrix.identity(d)
    free = [j for j in range(d) if j not in sub.pivots]
    comp = [[int(j == f) for j in range(d)] for f in free]
    inv = inverse(RationalMatrix(_entries(sub.basis) + comp, d, d).transpose())
    return RationalMatrix(_entries(inv)[sub.dim:], d - sub.dim, d)


def test_quotient_map_matches_inverse_construction():
    rng = random.Random(23)
    for _ in range(40):
        d = rng.randint(1, 7)
        k = rng.randint(0, d + 1)
        sub = Subspace.from_spanning(
            d,
            [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
             for _ in range(k)],
        )
        assert quotient_map(d, sub) == inverse_based_quotient_map(d, sub)
    assert quotient_map(0, Subspace.zero(0)) == RationalMatrix.identity(0)


# -- pivot coordinates -------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(matrices(), st.integers(0, 3), st.randoms(use_true_random=False))
@example(RationalMatrix([], 0, 3), 2, random.Random(0))
@example(RationalMatrix([[1, 2, 0]]), 0, random.Random(0))
@example(RationalMatrix([[0, 0]]), 1, random.Random(1))
def test_coordinates_match_solve_matrix_and_sympy(span, k, rnd):
    d = span.ncols
    sub = Subspace.from_spanning(d, span.rows)
    bt = sub.basis.transpose()
    # Columns inside the subspace (images of basis^T) and, half the time,
    # arbitrary columns that usually fall outside it.
    inside = bt * RationalMatrix(
        [[F(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in range(k)]
         for _ in range(sub.dim)],
        sub.dim,
        k,
    )
    outside = RationalMatrix(
        [[F(rnd.randint(-3, 3)) for _ in range(k)] for _ in range(d)], d, k
    )
    for mat in (inside, outside) if rnd.random() < 0.5 else (inside,):
        got = sub.coordinates(mat)
        assert got == solve_matrix(bt, mat)
        assert got == sympy_solve_matrix(bt, mat)
        if got is not None:
            assert got.shape == (sub.dim, k) and bt * got == mat
        for j in range(k):
            col = mat.col(j)
            stacked = rank(RationalMatrix(sub.basis.rows + (col,), sub.dim + 1, d))
            assert sub.contains(col) == (stacked == sub.dim)


def test_coordinates_degenerate_shapes():
    zero = Subspace.zero(3)
    assert zero.coordinates(RationalMatrix.zeros(3, 2)) == RationalMatrix([], 0, 2)
    assert zero.coordinates(RationalMatrix([[0], [1], [0]])) is None
    sub = Subspace.from_spanning(3, [(1, 2, 0), (0, 0, 1)])
    assert sub.coordinates(RationalMatrix([[], [], []], 3, 0)).shape == (2, 0)
    assert Subspace.zero(0).coordinates(RationalMatrix([], 0, 2)).shape == (0, 2)
    with pytest.raises(ValueError):
        sub.coordinates(RationalMatrix.identity(2))


def test_coordinates_make_no_elimination(monkeypatch):
    sub = Subspace.from_spanning(4, [(1, 2, 0, 1), (0, 1, 1, 0)])
    calls = _count_kernel_calls(monkeypatch)
    mat = RationalMatrix([[1, 0], [2, 1], [0, 1], [1, 0]])
    assert sub.coordinates(mat) == RationalMatrix([[1, 0], [2, 1]])
    assert sub.contains((1, 3, 1, 1)) and not sub.contains((0, 0, 0, 1))
    assert calls == []


def test_submodule_makes_no_solve_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("submodule_from_stable_subspaces called a solver")

    monkeypatch.setattr(fimlab.modules, "solve", refuse)
    monkeypatch.setattr(fimlab.modules, "solve_matrix", refuse)
    p = make_free((1,), Window((3,)))
    seeds = {(2,): Subspace.from_spanning(2, [(1, -1)])}
    sub, incl = submodule_from_stable_subspaces(p, close_under_actions(p, seeds))
    assert sub.dims == {(0,): 0, (1,): 0, (2,): 1, (3,): 2}
    assert sub.validate().ok and incl.is_natural()


def test_submodule_rejects_unstable_subspaces():
    p = make_free((1,), Window((2,)))
    spaces = {n: Subspace.zero(d) for n, d in p.dims.items()}
    spaces[(1,)] = Subspace.full(1)
    with pytest.raises(ValueError, match="not action-stable"):
        submodule_from_stable_subspaces(p, spaces)


# -- rref, kernels, images, quotients and intersections against sympy --------


def _sympy_rows(dm):
    return [[_from_sympy(x) for x in row] for row in dm.to_list()]


def _sympy_span(rows, d):
    """The nonzero rows of sympy's RREF of ``rows`` in Q^d: the canonical
    basis of their span."""
    if not rows:
        return []
    red, pivots = _sympy_dm(RationalMatrix(rows, len(rows), d)).rref()
    return _sympy_rows(red)[: len(pivots)]


def _sympy_perp(rows, d):
    """A basis of {x : r . x = 0 for every r in rows}, by sympy's nullspace."""
    return _sympy_rows(_sympy_dm(RationalMatrix(rows, len(rows), d)).nullspace())


# 0 x n, n x 0, 0 x 0 and non-integral inputs, on top of the drawn ones.
ORACLE_EXAMPLES = [
    RationalMatrix([], 0, 3),
    RationalMatrix([[], []], 2, 0),
    RationalMatrix([], 0, 0),
    RationalMatrix([[F(1, 2), F(-2, 3), 0], [F(3, 4), F(1, 3), F(5, 6)]]),
    RationalMatrix([[F(1, 3), F(2, 3)], [F(1, 6), F(1, 3)]]),
]


def with_oracle_examples(test):
    for mat in ORACLE_EXAMPLES:
        test = example(mat)(test)
    return test


@settings(max_examples=60, deadline=None)
@given(matrices())
@with_oracle_examples
def test_rref_matches_sympy(mat):
    red = rref(mat)
    assert red.shape == mat.shape
    assert _entries(red) == _sympy_rows(_sympy_dm(mat).rref()[0])


@settings(max_examples=60, deadline=None)
@given(matrices())
@with_oracle_examples
def test_kernel_basis_matches_sympy(mat):
    ker = kernel_basis(mat)
    assert ker.ambient_dim == mat.ncols
    want = _sympy_span(_sympy_rows(_sympy_dm(mat).nullspace()), mat.ncols)
    assert _entries(ker.basis) == want


@settings(max_examples=60, deadline=None)
@given(matrices())
@with_oracle_examples
def test_image_basis_matches_sympy(mat):
    img = image_basis(mat)
    assert img.ambient_dim == mat.nrows
    cols = _sympy_dm(mat).columnspace().transpose()
    assert _entries(img.basis) == _sympy_span(_sympy_rows(cols), mat.nrows)


@settings(max_examples=60, deadline=None)
@given(matrices())
@with_oracle_examples
def test_stored_pivots_match_sympy(mat):
    """The pivots a subspace keeps from its elimination are sympy's RREF
    pivots, and the leading entries of its kernel and image bases."""
    sub = Subspace.from_spanning(mat.ncols, _entries(mat))
    assert sub.pivots == tuple(_sympy_dm(mat).rref()[1])
    for space in (sub, kernel_basis(mat), image_basis(mat)):
        assert space.pivots == tuple(
            next(j for j, x in enumerate(row) if x) for row in space.basis.rows)


@settings(max_examples=60, deadline=None)
@given(matrices())
@with_oracle_examples
def test_quotient_map_matches_sympy(span):
    """Q is the last d - k rows of the inverse of [b_1 .. b_k e_f ..]: the
    coordinates along the complement's unit vectors."""
    d = span.ncols
    sub = Subspace.from_spanning(d, _entries(span))
    free = [j for j in range(d) if j not in sub.pivots]
    change = _entries(sub.basis) + [[F(int(j == f)) for j in range(d)] for f in free]
    if d:
        inv = _sympy_dm(RationalMatrix(change, d, d).transpose()).inv()
        want = _sympy_rows(inv)[sub.dim:]
    else:
        want = []
    got = quotient_map(d, sub)
    assert got.shape == (d - sub.dim, d)
    assert _entries(got) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda d: st.tuples(matrices(4, d, 0, d), matrices(4, d, 0, d))))
@example((RationalMatrix([], 0, 3), RationalMatrix([[1, 2, 3]])))
@example((RationalMatrix([[], []], 2, 0), RationalMatrix([[]], 1, 0)))
@example((RationalMatrix([[F(1, 2), F(1, 3), 0], [0, F(2, 5), 1]]),
          RationalMatrix([[F(3, 2), F(17, 15), 1], [0, 0, F(1, 7)]])))
def test_intersect_matches_sympy(pair):
    """U ∩ V = (U^perp + V^perp)^perp, each perp a sympy nullspace."""
    a, b = pair
    d = a.ncols
    u = Subspace.from_spanning(d, _entries(a))
    v = Subspace.from_spanning(d, _entries(b))
    want = _sympy_span(_sympy_perp(_sympy_perp(_entries(a), d)
                                   + _sympy_perp(_entries(b), d), d), d)
    got = u.intersect(v)
    assert got.ambient_dim == d
    assert _entries(got.basis) == want


# -- rational roots -----------------------------------------------------------


def _poly_mul(a, b):
    """Product of coefficient lists, highest degree first."""
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_value(coeffs, t):
    val = F(0)
    for c in coeffs:
        val = val * t + c
    return val


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 6)), max_size=5),
    st.booleans(),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
)
@example(factors=[(0, 1), (0, 2), (3, 2)], irreducible=False, scale=F(1))
@example(factors=[], irreducible=True, scale=F(-1, 2))
def test_rational_roots_of_products_of_linear_factors(factors, irreducible, scale):
    """prod (q t - p), times t^2 + 1 or not, scaled: the roots are exactly
    the p/q, each once, 0 first."""
    coeffs = [scale]
    for p, q in factors:
        coeffs = _poly_mul(coeffs, [F(q), F(-p)])
    if irreducible:
        coeffs = _poly_mul(coeffs, [F(1), F(0), F(1)])
    roots = rational_roots(coeffs)
    assert all(_poly_value(coeffs, r) == 0 for r in roots)
    assert len(set(roots)) == len(roots)
    assert set(roots) == {F(p, q) for p, q in factors}
    if F(0) in roots:
        assert roots[0] == 0


def test_rational_roots_of_constants_and_the_zero_polynomial():
    assert rational_roots([F(5)]) == []
    assert rational_roots([F(1), F(0), F(1)]) == []
    assert rational_roots([F(0), F(0)]) == [F(0)]
    assert rational_roots([F(1, 2), F(-1, 3)]) == [F(2, 3)]
