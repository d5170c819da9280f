from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fimlab.category import GroupTable
from fimlab.linalg import RationalMatrix
from fimlab.symrep import (
    group_failures,
    hook_length_dim,
    regular_rep_matrices,
    specht,
    standard_tableaux,
)

from oracles import (
    CharacterVector,
    IrrationalCharacterError,
    ProductRep,
    character,
    character_inner,
    class_representative,
    cycle_type_class_size,
    decompose,
    is_representation_by_fixed_space,
    matrix_of_perm,
    mn_character,
    partitions_of,
    polytabloid_matrix,
    rational_character_table,
    specht_by_solve,
    trace,
)

F = Fraction


def test_partitions_of():
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
    assert partitions_of(0) == ((),)
    assert len(partitions_of(6)) == 11


def test_hook_lengths():
    assert hook_length_dim((3,)) == 1
    assert hook_length_dim((2, 1)) == 2  # 3!/(3*1*1)
    assert hook_length_dim((2, 2)) == 2
    assert hook_length_dim((3, 2)) == 5
    for n in range(1, 7):
        assert all(
            hook_length_dim(lam) == len(standard_tableaux(lam))
            for lam in partitions_of(n)
        )


def test_specht_trivial_and_sign():
    triv = specht((3,))
    assert triv.dim == 1
    assert all(g == RationalMatrix.identity(1) for g in triv.gens)
    sign = specht((1, 1))
    assert sign.dim == 1
    assert sign.gens[0] == RationalMatrix([[-1]])


def test_specht_standard_rep_s3():
    rep = specht((2, 1))
    assert rep.dim == 2
    a, b = rep.gens
    ident = RationalMatrix.identity(2)
    assert a * a == ident and b * b == ident
    assert a * b * a == b * a * b


def test_specht_dim_squares_sum_to_group_order():
    for n in range(1, 7):
        assert sum(specht(lam).dim ** 2 for lam in partitions_of(n)) == factorial(n)


SMALL_PARTITIONS = [lam for n in range(8) for lam in partitions_of(n)]


@pytest.mark.parametrize("lam", SMALL_PARTITIONS + [(3, 3, 2)], ids=str)
def test_specht_equals_the_solve_in_every_tabloid_coordinate(lam):
    """Substitution at the standard tabloids gives the swap matrices that
    eliminating over all tabloids gives, entry for entry."""
    assert specht(lam).gens == specht_by_solve(lam).gens


@pytest.mark.parametrize("lam", [lam for lam in SMALL_PARTITIONS if lam], ids=str)
def test_standard_polytabloids_are_unitriangular_at_the_standard_tabloids(lam):
    """The fact ``specht`` substitutes through, read off the full
    polytabloid matrix: at the tabloids of the standard tableaux, in
    ``standard_tableaux`` order, the polytabloid of the i-th standard
    tableau has 1 at i and 0 before it."""
    tabloids, basis = polytabloid_matrix(lam)
    block = basis.columns([tabloids.index(t) for t in standard_tableaux(lam)])
    assert block.den == 1
    for i, row in enumerate(block.rows):
        assert row[i] == 1 and not any(row[:i])


@st.composite
def _group_matrices(draw):
    """A group among 1, C2, C3 and S3 with the generator matrices of its
    regular, trivial or sign representation, or random ones with entries in
    -1..1 in dimension 1 or 2; in half the draws one entry is moved by 1."""
    group = draw(st.sampled_from((GroupTable.trivial(), GroupTable.cyclic(2),
                                  GroupTable.cyclic(3), GroupTable.symmetric(3))))
    k = len(group.generators)
    kind = draw(st.sampled_from(("regular", "trivial", "sign", "random")))
    if kind == "regular":
        dim, mats = group.order, list(regular_rep_matrices(group))
    elif kind == "random":
        dim = draw(st.integers(1, 2))
        row = st.lists(st.integers(-1, 1), min_size=dim, max_size=dim)
        mats = [RationalMatrix(draw(st.lists(row, min_size=dim, max_size=dim)))
                for _ in range(k)]
    else:
        dim, mats = 1, [RationalMatrix([[1 if kind == "trivial" else -1]])] * k
    if k and draw(st.booleans()):
        j, r, c = (draw(st.integers(0, b - 1)) for b in (k, dim, dim))
        rows = [list(x) for x in mats[j].rows]
        rows[r][c] += draw(st.sampled_from((-1, 1)))
        mats[j] = RationalMatrix(rows)
    return group, mats, dim


@settings(max_examples=80, deadline=None)
@given(_group_matrices())
@example((GroupTable.cyclic(3), [RationalMatrix([[-1]])], 1))
@example((GroupTable.symmetric(3), [RationalMatrix([[1, 0], [0, -1]]),
                                    RationalMatrix([[0, 1], [1, 0]])], 2))
def test_group_failures_agree_with_the_fixed_space(case):
    """The generator check refuses exactly the matrices whose L(g) x rho(g)
    fixed space on kG x V is not of dimension dim V."""
    group, mats, dim = case
    ok = group_failures(group, mats, dim, "V") == []
    assert ok == is_representation_by_fixed_space(group, mats, dim)


def test_class_representative_and_sizes():
    for n in range(1, 6):
        total = 0
        for mu in partitions_of(n):
            rep = class_representative(mu, n)
            assert sorted(rep) == list(range(1, n + 1))
            total += cycle_type_class_size(mu, n)
        assert total == factorial(n)


def test_mn_character_basics():
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert mn_character((n,), mu) == 1
            nparts = len(mu)
            assert mn_character((1,) * n, mu) == (-1) ** (n - nparts)
        for lam in partitions_of(n):
            assert mn_character(lam, (1,) * n) == hook_length_dim(lam)


def test_character_orthonormality():
    for n in (2, 3, 4):
        chars = [character(lam) for lam in partitions_of(n)]
        for i, a in enumerate(chars):
            for j, b in enumerate(chars):
                assert character_inner(a, b) == (1 if i == j else 0)


def test_character_vector_dim():
    chi = character((2, 1))
    assert isinstance(chi, CharacterVector)
    assert chi.dim == 2


def test_specht_matrices_match_mn_traces():
    """Matrix traces of class representatives equal the MN character."""
    for lam in ((2, 1), (2, 2), (3, 1), (2, 1, 1)):
        rep = specht(lam)
        n = rep.n
        for mu in partitions_of(n):
            mat = matrix_of_perm(rep, class_representative(mu, n))
            assert trace(mat) == mn_character(lam, mu)


def test_rational_character_table_s3():
    table = rational_character_table(GroupTable.symmetric(3))
    dims = sorted(int(row[0]) for row in table.table)
    assert dims == [1, 1, 2]
    # orthogonality of rows
    sizes = [len(c) for c in table.classes]
    order = 6
    for i, a in enumerate(table.table):
        for j, b in enumerate(table.table):
            val = sum(s * x * y for s, x, y in zip(sizes, a, b))
            assert val == (order if i == j else 0)


def test_rational_character_table_klein():
    v4 = GroupTable.product(GroupTable.cyclic(2), GroupTable.cyclic(2))
    table = rational_character_table(v4)
    assert [int(r[0]) for r in table.table] == [1, 1, 1, 1]


def test_c3_character_table_is_irrational():
    with pytest.raises(IrrationalCharacterError):
        rational_character_table(GroupTable.cyclic(3))


def _perm_rep_s3():
    """Permutation representation of S_3 on Q^3 as a ProductRep."""
    def swap_mat(k):
        rows = [[F(0)] * 3 for _ in range(3)]
        img = list(range(3))
        img[k - 1], img[k] = img[k], img[k - 1]
        for a in range(3):
            rows[img[a]][a] = F(1)
        return RationalMatrix(rows)

    return ProductRep(
        ns=(3,),
        group=GroupTable.trivial(),
        dim=3,
        swap_mats={(1, 1): swap_mat(1), (1, 2): swap_mat(2)},
        group_mats=[],
    )


def test_decompose_permutation_rep():
    rep = _perm_rep_s3()
    assert decompose(rep) == {(((3,),), 0): 1, (((2, 1),), 0): 1}


def test_decompose_regular_rep_s3():
    group = GroupTable.symmetric(3)
    mats = regular_rep_matrices(group)
    # the regular rep of S3 as a rep of the *group factor* with no S_n part
    rep = ProductRep(ns=(), group=group, dim=6, swap_mats={}, group_mats=mats)
    got = decompose(rep)
    dims = {0: None}
    table = rational_character_table(group)
    expected = {((), i): int(table.table[i][0]) for i in range(3)}
    assert got == expected


def test_decompose_trivial_rep_of_product():
    rep = ProductRep(
        ns=(2, 2),
        group=GroupTable.trivial(),
        dim=1,
        swap_mats={(1, 1): RationalMatrix([[1]]), (2, 1): RationalMatrix([[1]])},
        group_mats=[],
    )
    assert decompose(rep) == {(((2,), (2,)), 0): 1}


def test_decompose_round_trip_specht():
    for lam in ((2, 1), (3, 1), (2, 2)):
        rep = specht(lam)
        prep = ProductRep(
            ns=(rep.n,),
            group=GroupTable.trivial(),
            dim=rep.dim,
            swap_mats={(1, k): rep.gens[k - 1] for k in range(1, rep.n)},
            group_mats=[],
        )
        assert decompose(prep) == {((lam,), 0): 1}


def test_decompose_rejects_invalid_rep():
    bad = ProductRep(
        ns=(2,),
        group=GroupTable.trivial(),
        dim=1,
        swap_mats={(1, 1): RationalMatrix([[2]])},  # not an involution
        group_mats=[],
    )
    with pytest.raises(ValueError):
        decompose(bad)
