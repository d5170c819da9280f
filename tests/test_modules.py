import json
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fimlab.category import (
    GroupTable,
    Window,
    degree,
    generator_keys,
    key_ends,
    leq,
)
from fimlab.linalg import RationalMatrix, Subspace, rank
from fimlab.modules import (
    MarginError,
    ModuleMap,
    Presentation,
    TruncatedModule,
    close_under_actions,
    cover_blocks,
    direct_sum,
    external_tensor,
    hom_space,
    make_cofree,
    make_coinduced,
    make_free,
    make_free_sum,
    quotient,
    restrict_window,
    submodule_generated,
    zero_module,
    _free_tables,
    _monomial,
)
from fimlab.functors import make_induced
from fimlab.samples import random_presented_module
from fimlab.symrep import GroupRep

from oracles import (
    aut_rep_at,
    compose,
    cover_block_by_evaluate,
    decompose,
    enumerate_injections,
    evaluate,
    evaluate_basis,
    free_sum_by_direct_sum,
    functorial_on_window,
    h0_generators_by_images,
    make_cofree_by_compose,
    make_coinduced_by_compose,
    make_free_by_compose,
    partitions_of,
    permute_coords,
    solution_blocks_every_object,
    solution_map_by_dot_products,
    solve_with_conditions_one_map,
    solver_by_kernel_basis,
)

F = Fraction
TRIV = GroupTable.trivial()


def test_make_free_constant_module():
    v = make_free((0,), Window((3,)), TRIV)
    assert all(v.dims[t] == 1 for t in v.window.objects())
    assert v.validate().ok
    for key, mat in v.actions.items():
        assert mat == RationalMatrix.identity(1)


def test_make_free_dims():
    v = make_free((1,), Window((3,)), TRIV)
    assert v.dims[(3,)] == 3
    w = make_free((1, 1), Window((2, 2)), TRIV)
    assert w.dims[(2, 2)] == 4
    assert w.validate().ok


def test_free_dims_closed_form():
    for m, bound in (((1,), (4,)), ((1, 1), (3, 3))):
        window = Window(bound)
        for n in window.objects():
            v = make_free(n, window, TRIV)
            for t in window.objects():
                expected = 1
                ok = leq(n, t)
                for a, b in zip(n, t):
                    if ok:
                        expected *= factorial(b) // factorial(b - a)
                assert v.dims[t] == (expected if ok else 0)


def test_make_free_with_group():
    g = GroupTable.symmetric(2)
    v = make_free((1,), Window((2,)), g)
    assert v.dims[(2,)] == 4  # 2 injections x |G|
    assert v.validate().ok


def test_make_free_outside_window():
    with pytest.raises(MarginError):
        make_free((3,), Window((2,)), TRIV)


def test_make_cofree_dims():
    v = make_cofree((2,), Window((4,)), TRIV)
    assert [v.dims[(t,)] for t in range(5)] == [1, 2, 2, 0, 0]
    assert v.validate().ok
    e0 = make_cofree((0,), Window((3,)), TRIV)
    assert [e0.dims[(t,)] for t in range(4)] == [1, 0, 0, 0]


_BUILDER_GROUPS = {"trivial": TRIV, "C2": GroupTable.cyclic(2),
                   "S3": GroupTable.symmetric(3)}
# per m, the largest window bound coordinate: every builder stays small
_BUILDER_BOUND = {1: 4, 2: 2, 3: 1}


@st.composite
def _window_and_object(draw):
    """A window with m in {1, 2, 3}, zero bounds allowed, and an object of
    it: the origin, the corner, or any other."""
    m = draw(st.integers(1, 3))
    bound = tuple(draw(st.lists(st.integers(0, _BUILDER_BOUND[m]), min_size=m, max_size=m)))
    n = draw(st.one_of(st.just((0,) * m), st.just(bound),
                       st.tuples(*[st.integers(0, b) for b in bound])))
    return Window(bound), n


@settings(max_examples=60, deadline=None)
@given(_window_and_object(), st.sampled_from(sorted(_BUILDER_GROUPS)))
@example((Window((0,)), (0,)), "trivial")
@example((Window((4,)), (4,)), "S3")
@example((Window((2, 0)), (0, 0)), "C2")
@example((Window((2, 2)), (2, 2)), "S3")
@example((Window((1, 0, 1)), (1, 0, 1)), "C2")
@example((Window((1, 1, 1)), (0, 0, 0)), "trivial")
def test_free_and_cofree_match_the_compose_builders(window_and_object, group):
    """Reading generator actions off injection indices gives the modules
    that composing generator morphisms with every injection gives."""
    window, n = window_and_object
    g = _BUILDER_GROUPS[group]
    for build, reference in ((make_free, make_free_by_compose),
                             (make_cofree, make_cofree_by_compose)):
        got, want = build(n, window, g), reference(n, window, g)
        assert got.dims == want.dims
        assert got.actions == want.actions
        assert got.to_dict() == want.to_dict()


def test_free_and_coinduced_match_generator_morphisms_on_3_3_with_s2():
    """The index maps of make_free and make_coinduced give the actions
    that composing generator morphisms with every injection gives."""
    window, s2 = Window((3, 3)), GroupTable.symmetric(2)
    for n in ((0, 0), (1, 0), (1, 1), (2, 1)):
        assert make_free(n, window, s2).actions == make_free_by_compose(n, window, s2).actions
    for lambdas in (((2,), (1,)), ((1, 1), (1,)), ((2, 1), (1,)), ((1,), (1, 1))):
        got, want = make_coinduced(lambdas, window, s2), make_coinduced_by_compose(lambdas, window, s2)
        assert got.dims == want.dims
        assert got.actions == want.actions


_SUM_GROUPS = {"trivial": TRIV, "S2": GroupTable.symmetric(2), "C3": GroupTable.cyclic(3)}


@st.composite
def coinduced_cases(draw):
    """lambda over m <= 2 coordinates with |lambda_i| <= 3, on the window l
    or one past it in each coordinate, over 1, S2 or C3."""
    small = [p for size in range(4) for p in partitions_of(size)]
    lambdas = tuple(draw(st.sampled_from(small)) for _ in range(draw(st.integers(1, 2))))
    bound = tuple(sum(p) + draw(st.integers(0, 1)) for p in lambdas)
    return lambdas, Window(bound), draw(st.sampled_from(list(_SUM_GROUPS.values())))


@settings(max_examples=30, deadline=None)
@given(coinduced_cases())
@example((((2, 1),), Window((3,)), TRIV))
@example((((2, 1), (1, 1)), Window((3, 2)), GroupTable.cyclic(3)))
def test_coinduced_module_matches_the_fixed_space_of_composed_morphisms(case):
    """E(lambda) written down from the Specht invariants of one injection's
    stabiliser has the dims and actions of the fixed vectors of
    (co-free) x X under every swap composed with every injection."""
    lambdas, window, group = case
    got = make_coinduced(lambdas, window, group)
    want = make_coinduced_by_compose(lambdas, window, group)
    assert got.dims == want.dims
    assert got.actions == want.actions


@st.composite
def free_sum_cases(draw):
    window = Window(draw(st.sampled_from([(4,), (2, 2), (3, 2), (1, 1, 1)])))
    objs = draw(st.lists(st.sampled_from(window.objects()), max_size=4))
    return window, objs, draw(st.sampled_from(sorted(_SUM_GROUPS)))


@settings(max_examples=60, deadline=None)
@given(free_sum_cases())
@example((Window((4,)), [], "trivial"))
@example((Window((2, 2)), [(2, 2), (0, 1), (2, 2)], "S2"))
@example((Window((3, 2)), [(1, 0), (1, 0), (3, 2)], "C3"))
@example((Window((1, 1, 1)), [(1, 1, 1), (0, 0, 0)], "C3"))
def test_free_sum_is_the_direct_sum_of_free_modules(case):
    """One pass over the summands' offsets writes, byte for byte, the
    module that summing compose-built free modules writes: on a cold or
    warm table, and on one built again after the tables are dropped."""
    window, objs, group = case
    g = _SUM_GROUPS[group]
    want = free_sum_by_direct_sum(objs, window, g).to_json()
    builds = [make_free_sum(objs, window, g), make_free_sum(objs, window, g)]
    _free_tables.cache_clear()
    builds.append(make_free_sum(objs, window, g))
    for got in builds:
        assert got.to_json() == want
        assert got.validate().ok


def test_free_tables_are_shared_read_only():
    """A free module owns its dims and actions, so writing into one build
    leaves the next build of the same key as it was; the shared layout
    refuses writes."""
    window, c2 = Window((2, 1)), GroupTable.cyclic(2)
    objs = [(1, 0), (0, 1), (1, 0)]
    want = free_sum_by_direct_sum(objs, window, c2).to_json()
    first = make_free_sum(objs, window, c2)
    key = ("incl", 1, (1, 1))
    first.actions[key] = RationalMatrix.zeros(*first.actions[key].shape)
    first.dims[(0, 0)] += 1
    with pytest.raises(TypeError):
        first.layout[(1, 1)] = ()
    with pytest.raises(TypeError):
        first.layout[(1, 1)][0] = range(0)
    assert make_free_sum(objs, window, c2).to_json() == want


def test_free_module_keeps_the_callers_group_and_name():
    """C2 and S2 have one table and share one entry, but each module
    carries the group and name it was built with."""
    window = Window((2,))
    c2, s2 = GroupTable.cyclic(2), GroupTable.symmetric(2)
    assert c2 == s2
    assert make_free_sum([(1,)], window, c2, "a").to_dict()["group_ref"]["name"] == "C2"
    got = make_free_sum([(1,)], window, s2, "b")
    assert got.group is s2 and got.name == "b"
    assert json.loads(got.to_json())["group_ref"]["name"] == "S2"


def test_free_sum_refuses_a_generator_outside_the_window():
    with pytest.raises(MarginError, match=r"generator object \(3, 0\)"):
        make_free_sum([(1, 0), (3, 0)], Window((2, 2)), TRIV)


@pytest.mark.parametrize("cols, nrows, ncols, message", [
    ([0, 3], 2, 3, r"monomial column 3 outside range\(3\)"),
    ([None, -1], 2, 3, r"monomial column -1 outside range\(3\)"),
    ([0, 1], 3, 3, "2 monomial columns for 3 rows"),
    ([0, 1, 2, None], 3, 3, "4 monomial columns for 3 rows"),
])
def test_monomial_rejects_a_bad_column_or_row_count(cols, nrows, ncols, message):
    """Shared unit rows would turn column -1 into the last unit row; the
    range and the row count are checked instead."""
    with pytest.raises(ValueError, match=message):
        _monomial(cols, nrows, ncols)


@st.composite
def monomial_cases(draw):
    ncols = draw(st.integers(0, 6))
    col = st.none() if ncols == 0 else st.one_of(st.none(), st.integers(0, ncols - 1))
    return draw(st.lists(col, max_size=7)), ncols


@settings(max_examples=80, deadline=None)
@given(monomial_cases())
def test_monomial_equals_the_dense_build(case):
    """``_monomial`` from shared unit rows is the matrix the constructor
    builds from fresh dense rows: the same rows, denominator and shape."""
    cols, ncols = case
    zero = (0,) * ncols
    dense = RationalMatrix([zero if c is None else zero[:c] + (1,) + zero[c + 1:]
                            for c in cols], len(cols), ncols)
    got = _monomial(cols, len(cols), ncols)
    assert got == dense
    assert (got.rows, got.den, got.shape) == (dense.rows, dense.den, dense.shape)


@pytest.mark.parametrize("dim", [2.5, True, "3"])
def test_module_refuses_a_dimension_that_is_not_an_integer(dim):
    window = Window((0,))
    with pytest.raises(ValueError, match=r"dimension at \(0,\) is not an integer"):
        TruncatedModule(window, TRIV, {(0,): dim},
                        {key: RationalMatrix.zeros(0, 0) for key in generator_keys(window, TRIV)})


def test_free_and_cofree_build_no_morphism(morphism_builds):
    """make_free and make_cofree compose no morphisms and build none, even
    with the generator and injection tables cold: they match the references
    that compose every generator with every basis injection."""
    import fimlab.category as category

    cases = [((1, 1), Window((2, 3)), TRIV), ((2, 0), Window((3, 1)), GroupTable.symmetric(3))]
    category.injection_index_table.cache_clear()
    category.generator_index_map.cache_clear()
    category.window_generators.cache_clear()
    built = [(make_free(n, window, g), make_cofree(n, window, g))
             for n, window, g in cases]
    assert morphism_builds == []
    for (n, window, g), (free, cofree) in zip(cases, built):
        assert free == make_free_by_compose(n, window, g)
        assert cofree == make_cofree_by_compose(n, window, g)


def test_cofree_vanishes_above_cogenerator():
    v = make_cofree((1, 1), Window((2, 2)), TRIV)
    for t in v.window.objects():
        if not leq(t, (1, 1)):
            assert v.dims[t] == 0
        else:
            assert v.dims[t] == len(enumerate_injections(t, (1, 1)))
    assert v.validate().ok


def test_make_induced_matches_free_for_lambda_1():
    v = make_induced(((1,),), Window((3,)), TRIV)
    w = make_free((1,), Window((3,)), TRIV)
    assert v.dims == w.dims


def test_make_induced_dims_triv_and_sign():
    v = make_induced(((2,),), Window((3,)), TRIV)
    assert v.dims[(2,)] == 1 and v.dims[(3,)] == 3
    s = make_induced(((1, 1),), Window((3,)), TRIV)
    assert s.dims[(2,)] == 1
    # sign-isotypic rank of the regular S2-rep inside M(2)((2)) is 1
    assert s.validate().ok and v.validate().ok


def test_make_induced_aut_rep_decomposes_correctly():
    v = make_induced(((2,),), Window((3,)), TRIV)
    rep = aut_rep_at(v, (2,))
    assert decompose(rep) == {(((2,),), 0): 1}


def test_make_induced_rejects_a_group_rep_that_is_not_a_representation():
    c3, s3 = GroupTable.cyclic(3), GroupTable.symmetric(3)
    bads = [
        # g -> -1 has g^3 = -1, so it does not represent C3
        GroupRep(c3, 1, (RationalMatrix([[F(-1)]]),)),
        # two involutions whose product has order 4, not 3
        GroupRep(s3, 2, (RationalMatrix([[F(1), F(0)], [F(0), F(-1)]]),
                         RationalMatrix([[F(0), F(1)], [F(1), F(0)]]))),
    ]
    for bad in bads:
        with pytest.raises(ValueError, match="group relations fail"):
            make_induced(((1,),), Window((3,)), bad.group, g_rep=bad)


def test_make_coinduced_sign():
    e = make_coinduced(((1, 1),), Window((3,)), TRIV)
    assert [e.dims[(t,)] for t in range(4)] == [0, 1, 1, 0]
    assert e.validate().ok


def test_external_tensor_of_frees():
    a = make_free((1,), Window((2,)), TRIV)
    b = make_free((1,), Window((2,)), TRIV)
    t = external_tensor(a, b)
    f = make_free((1, 1), Window((2, 2)), TRIV)
    assert t.dims == f.dims
    assert t.validate().ok
    # explicit isomorphism exists
    maps = hom_space(t, f)
    isos = [mp for mp in maps if mp.is_iso()]
    if not isos and len(maps) >= 2:
        isos = [maps[0].add(maps[1]) ]
        isos = [mp for mp in isos if mp.is_iso()]
    assert any(mp.is_iso() for mp in maps) or isos


def test_external_tensor_unit():
    a = make_free((1,), Window((2,)), TRIV)
    point = make_free((), Window(()), TRIV)
    t = external_tensor(a, point)
    assert t.m == 1 and t.dims[(2,)] == a.dims[(2,)]


def test_external_tensor_dims_product():
    e = make_cofree((1,), Window((2,)), TRIV)
    mfree = make_free((1,), Window((2,)), TRIV)
    t = external_tensor(e, mfree)
    assert t.dims[(1, 2)] == 1 * 2


def test_direct_sum_and_inclusions():
    w = Window((2,))
    a = make_free((0,), w, TRIV)
    b = make_free((1,), w, TRIV)
    s, (ia, ib) = direct_sum(a, b)
    assert s.dims[(2,)] == a.dims[(2,)] + b.dims[(2,)]
    assert ia.is_natural() and ib.is_natural()
    assert s.validate().ok


def test_submodule_generated_closure():
    w = Window((3,))
    v = make_free((1,), w, TRIV)
    seed = {(2,): Subspace.full(v.dims[(2,)])}
    sub, incl = submodule_generated(v, seed)
    assert [sub.dims[(t,)] for t in range(4)] == [0, 0, 2, 3]
    assert incl.is_natural()
    assert sub.validate().ok


def test_submodule_of_constant_at_zero_is_everything():
    w = Window((2,))
    v = make_free((0,), w, TRIV)
    sub, _ = submodule_generated(v, {(0,): Subspace.full(1)})
    assert sub.dims == v.dims


def test_quotient_by_self_is_zero():
    w = Window((2,))
    v = make_free((1,), w, TRIV)
    full = {n: Subspace.full(v.dims[n]) for n in w.objects()}
    q, proj = quotient(v, full)
    assert q.is_zero()
    assert proj.is_natural()


def test_quotient_point_module():
    """M(0) modulo the submodule generated in degree 1 is the point module."""
    w = Window((3,))
    v = make_free((0,), w, TRIV)
    spaces = close_under_actions(v, {(1,): Subspace.full(1)})
    q, proj = quotient(v, spaces)
    assert [q.dims[(t,)] for t in range(4)] == [1, 0, 0, 0]
    assert q.validate().ok and proj.is_natural()


def test_validate_flags_corruption():
    v = make_free((1,), Window((2,)), TRIV)
    bad_actions = dict(v.actions)
    key = ("swap", 1, 1, (2,))
    bad_actions[key] = RationalMatrix([[0, 1], [1, 1]])
    bad = TruncatedModule(v.window, v.group, v.dims, bad_actions)
    report = bad.validate()
    assert not report.ok
    assert report.first_failure() is not None


def test_validate_builds_no_morphism(morphism_builds):
    v = make_free((2,), Window((10,)), TRIV)
    assert v.validate().ok
    assert morphism_builds == []


def _sign_constant():
    """The constant module on (2,) with the swap acting by -1.  It breaks
    one relation only: the swap of the two new points no longer fixes the
    double inclusion (0,) -> (2,)."""
    v = make_free((0,), Window((2,)), TRIV)
    actions = {**v.actions, ("swap", 1, 1, (2,)): RationalMatrix([[-1]])}
    return TruncatedModule(v.window, v.group, v.dims, actions)


def _second_generator_sign():
    """The one-dimensional module on (1,) over S3 on which the first
    generator acts as 1 and the second as -1.  It breaks one relation only:
    (s_1 s_2)^3 = 1 fails, which no relation of the first generator sees."""
    actions = {("incl", 1, (0,)): RationalMatrix([[1]])}
    for n in ((0,), (1,)):
        actions[("grp", 0, n)] = RationalMatrix([[1]])
        actions[("grp", 1, n)] = RationalMatrix([[-1]])
    return TruncatedModule(Window((1,)), GroupTable.symmetric(3), {(0,): 1, (1,): 1}, actions)


def test_validate_names_each_failing_group_generator_once():
    failures = _second_generator_sign().validate().failures
    assert len(failures) == len(set(failures))
    for n in ((0,), (1,)):
        assert any(f.startswith(f"group relations fail at {n}") for f in failures)


@st.composite
def _maybe_broken_modules(draw):
    """F(n), E(l), the coinduced sign module or a random presented module
    over the trivial group, S2, C3 or S3, on (3,) or (2,2), or on (4,) over
    the first two (the exhaustive oracle over S3 on (4,) takes seconds per
    module), as built or with one action entry bumped, one action scaled or
    one action's rows reversed."""
    group = draw(st.sampled_from((TRIV, GroupTable.symmetric(2), GroupTable.cyclic(3),
                                  GroupTable.symmetric(3))))
    windows = (Window((3,)), Window((2, 2)))
    window = draw(st.sampled_from(windows + (Window((4,)),) if group.order <= 2 else windows))
    kind = draw(st.sampled_from(("free", "cofree", "coinduced", "random")))
    if kind == "coinduced":
        v = make_coinduced(((1, 1),), Window((3,)))
    elif kind == "random":
        v = random_presented_module(window, draw(st.integers(0, 30)), group)
    else:
        build = make_free if kind == "free" else make_cofree
        v = build(draw(st.sampled_from(window.objects())), window, group)
    keys = sorted(key for key, mat in v.actions.items() if mat.nrows and mat.ncols)
    mutation = draw(st.sampled_from(("none", "bump", "scale", "reverse")))
    if mutation == "none" or not keys:
        return v
    key = draw(st.sampled_from(keys))
    mat = v.actions[key]
    if mutation == "scale":
        new = mat.scale(draw(st.sampled_from((F(-1), F(2), F(1, 3)))))
    else:
        rows = [[mat[i, j] for j in range(mat.ncols)] for i in range(mat.nrows)]
        if mutation == "bump":
            rows[draw(st.integers(0, mat.nrows - 1))][draw(st.integers(0, mat.ncols - 1))] += 1
        else:
            rows.reverse()
        new = RationalMatrix(rows, mat.nrows, mat.ncols)
    return TruncatedModule(v.window, v.group, v.dims, {**v.actions, key: new})


@settings(max_examples=30, deadline=None)
@given(_maybe_broken_modules())
@example(_sign_constant())
@example(_second_generator_sign())
@example(make_free((0,), Window((3,)), TRIV))
@example(make_free((1, 1), Window((2, 2)), TRIV))
@example(make_cofree((2,), Window((4,)), TRIV))
@example(make_coinduced(((1, 1),), Window((3,)), TRIV))
def test_validate_is_exactly_functoriality_on_the_window(v):
    """The generator relations that ``validate`` checks hold exactly when
    V(g o f) = V(g) V(f) for every composable pair of window morphisms and
    group parts: on a box window they present the category."""
    assert v.validate().ok == functorial_on_window(v)


def test_hom_space_endomorphisms_of_constant():
    w = Window((2,))
    v = make_free((0,), w, TRIV)
    maps = hom_space(v, v)
    assert len(maps) == 1
    assert maps[0].is_natural()


def test_hom_space_yoneda():
    w = Window((3,))
    m1 = make_free((1,), w, TRIV)
    m0 = make_free((0,), w, TRIV)
    assert len(hom_space(m1, m0)) == 1  # = dim M(0)((1,))
    assert len(hom_space(m0, m1)) == 0  # M(1) has nothing in degree 0
    e0 = make_cofree((0,), w, TRIV)
    # hand computation at object (0): a map out of the point module must
    # send the degree-0 line to an element killed by the inclusion, so
    # Hom(E(0), M(0)) = 0, while the augmentation spans Hom(M(0), E(0)).
    assert len(hom_space(e0, m0)) == 0
    assert len(hom_space(m0, e0)) == 1


def test_hom_space_identity_present():
    w = Window((2,))
    v = make_free((1,), w, TRIV)
    maps = hom_space(v, v)
    assert len(maps) == 1
    blocks_id = ModuleMap.identity(v)
    combo = maps[0]
    ratio = None
    n = (1,)
    assert combo.blocks[n][0, 0] != 0
    scaled = combo.scale(F(1) / combo.blocks[n][0, 0])
    assert scaled == blocks_id


def test_hom_requires_presentation_margin():
    w = Window((2,))
    v = make_free((1,), w, TRIV)
    stripped = TruncatedModule(v.window, v.group, v.dims, v.actions, None)
    with pytest.raises(MarginError):
        hom_space(stripped, v)


def test_hom_dim_free_pair():
    """Hom(M(a), M(b)) has dimension dim M(b)(a) by the Yoneda lemma."""
    w = Window((3,))
    for a in range(3):
        for b in range(3):
            va = make_free((a,), w, TRIV)
            vb = make_free((b,), w, TRIV)
            assert len(hom_space(va, vb)) == vb.dims[(a,)]


def test_module_maps_natural_and_compose():
    w = Window((2,))
    v = make_free((1,), w, TRIV)
    maps = hom_space(v, v)
    f = maps[0]
    assert f.compose(f).is_natural()


def test_module_map_refuses_modules_over_different_groups():
    from fimlab.functors import ind, res

    a = ind(make_cofree((1,), Window((2,))), GroupTable.cyclic(2))
    blocks = {n: RationalMatrix.identity(d) for n, d in a.dims.items()}
    for source, target in ((res(a), a), (a, res(a))):
        with pytest.raises(ValueError, match="^source and target groups differ$"):
            ModuleMap(source, target, blocks)


def test_serialization_round_trip():
    for mod in (
        make_free((1,), Window((2,)), GroupTable.symmetric(2)),
        make_cofree((1, 1), Window((2, 2)), TRIV),
        make_induced(((2,),), Window((3,)), TRIV),
    ):
        text = mod.to_json()
        back = TruncatedModule.from_json(text)
        assert back == mod
        assert back.to_json() == text  # bit-exact round trip


def _json_paths(node, path=()):
    """Every (path, value) below a parsed JSON document."""
    yield path, node
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _json_paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _json_paths(v, path + (i,))


def _mutated(doc, path, value, delete=False):
    doc = json.loads(json.dumps(doc))
    node = doc
    for k in path[:-1]:
        node = node[k]
    if delete:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def test_from_dict_rejects_malformed_fields_with_value_error():
    mod = make_induced(((1, 1),), Window((2,)), GroupTable.cyclic(2))
    doc = mod.to_dict()
    assert doc["presentation"] is not None
    for path, _ in list(_json_paths(doc))[1:]:
        variants = [_mutated(doc, path, v) for v in (None, 7, True, "x", "(9)", [], {})]
        if isinstance(path[-1], str):
            variants.append(_mutated(doc, path, None, delete=True))
        for bad in variants:
            try:
                TruncatedModule.from_dict(bad)
            except ValueError:
                pass


@pytest.mark.parametrize(
    "doc,field",
    [
        ({"m": 1}, "group_ref: missing field"),
        ([], "document: expected an object"),
        ({"m": 1, "group_ref": {"order": 1}}, "group_ref.mult: missing field"),
        ({"m": 1, "group_ref": {"order": 1, "mult": [[0, 1]]}}, "group_ref.mult: "),
        ({"m": 1, "group_ref": {"order": 2, "mult": [[0]]}}, "group_ref.order: "),
        (
            {"m": 1, "group_ref": {"order": 1, "mult": [[0]], "generators": [3]}},
            "group_ref.generators[0]: ",
        ),
        (
            {"m": 1, "group_ref": {**GroupTable.cyclic(4).to_dict(), "generators": [2]}},
            "group_ref.generators: declared generators do not generate the group",
        ),
    ],
)
def test_from_dict_names_the_bad_field(doc, field):
    with pytest.raises(ValueError) as info:
        TruncatedModule.from_dict(doc)
    assert str(info.value).startswith(field)


def test_from_dict_names_nested_module_fields():
    doc = make_free((1,), Window((2,)), TRIV).to_dict()
    cases = [
        (("window",), "(1,x)", "window: "),
        (("m",), 2, "m: "),
        (("dims", "(1)"), "1", "dims.(1): expected an integer"),
        (("dims", "(1)"), -2, "dims.(1): expected a non-negative integer"),
        (("window",), "(-1)", "window: bound -1 in coordinate 1 is negative"),
        (("dims",), {"(0)": 0, "(2)": 2}, "dims: not one entry per object"),
        (("dims",), {"(0)": 0, "(1)": 1, "(3)": 2}, "dims.(3): outside the window"),
        (("actions", 1, "matrix"), [["1/0"]], "actions[1].matrix: "),
        # the wire format writes fraction strings; JSON numbers and booleans
        # would load inexact (0.5, 1e300) or as something else (true)
        (("actions", 1, "matrix"), [["0"], [0.5]], "actions[1].matrix: entry 0.5 "),
        (("actions", 1, "matrix"), [["0"], [1e300]], "actions[1].matrix: entry 1e+300 "),
        (("actions", 1, "matrix"), [["0"], [True]], "actions[1].matrix: entry True "),
        (("actions", 1, "matrix"), [["0"], [1]], "actions[1].matrix: entry 1 "),
        (("actions", 1, "matrix"), ["0", "1"], "actions[1].matrix: row '0' "),
        (("presentation", "generators", 0, "at"), 3,
         "presentation.generators[0].at: expected a string"),
        (("presentation", "observed_only"), "yes",
         "presentation.observed_only: expected a boolean"),
        (("actions", 0, "gen"), {"incl": 5, "at": "(1)"},
         "actions[0].gen: no such generator on the window"),
        (("actions", 1), doc["actions"][0], "actions[1].gen: generator given twice"),
    ]
    for path, value, field in cases:
        with pytest.raises(ValueError) as info:
            TruncatedModule.from_dict(_mutated(doc, path, value))
        assert str(info.value).startswith(field), (path, str(info.value))


def test_group_table_from_dict_round_trip_and_checks():
    g = GroupTable.symmetric(3)
    assert GroupTable.from_dict(g.to_dict()) == g
    with pytest.raises(ValueError, match=r"^mult\[1\]: "):
        GroupTable.from_dict({"order": 2, "mult": [[0, 1], "10"]})
    with pytest.raises(ValueError, match=r"^generators: declared generators do not generate"):
        GroupTable.from_dict({**GroupTable.cyclic(3).to_dict(), "generators": []})


def test_constructor_rejects_negative_dims_and_stray_keys():
    v = make_free((1,), Window((2,)), TRIV)
    stray_action = ("incl", 1, (2,))  # (2,) is the window's top object
    cases = [
        ({**v.dims, (1,): -1}, v.actions, "negative dimension -1 at (1,)"),
        ({**v.dims, (3,): 0}, v.actions, "dimension given at (3,), outside the window"),
        (v.dims, {**v.actions, stray_action: RationalMatrix.zeros(0, 2)},
         "action given for ('incl', 1, (2,)), not a generator of the window"),
    ]
    for dims, actions, message in cases:
        with pytest.raises(ValueError) as info:
            TruncatedModule(v.window, v.group, dims, actions)
        assert str(info.value) == message


def test_serialization_rational_strings():
    mod = make_induced(((1, 1),), Window((2,)), TRIV)
    d = mod.to_dict()
    flat = json.dumps(d)
    assert "/" in flat or all(
        mat.den == 1 for mat in mod.actions.values()
    )


def test_restrict_and_permute():
    v = make_free((1, 0), Window((2, 1)), TRIV)
    r = restrict_window(v, Window((1, 1)))
    assert r.dims[(1, 1)] == v.dims[(1, 1)]
    p = permute_coords(v, (2, 1))
    assert p.window.bound == (1, 2)
    assert p.dims[(0, 1)] == v.dims[(1, 0)]
    assert p.validate().ok


def test_zero_module():
    z = zero_module(Window((1, 1)), TRIV)
    assert z.is_zero() and z.validate().ok


def test_presentation_fits():
    p = Presentation.make([((1, 1), None)], (2, 1))
    assert p.fits(Window((2, 2)))
    assert not p.fits(Window((1, 2)))


def test_evaluate_free_module_is_composition():
    """On a free module, evaluation acts by post-composition on the basis."""
    from fimlab.category import leq as _leq

    w = Window((3,))
    v = make_free((1,), w, TRIV)
    for a in w.objects():
        if not _leq((1,), a):
            continue
        basis_a = enumerate_injections((1,), a)
        for b in w.objects():
            if not _leq(a, b):
                continue
            index_b = {
                f.maps: i for i, f in enumerate(enumerate_injections((1,), b))
            }
            for f in enumerate_injections(a, b):
                mat = evaluate(v, f)
                for col, beta in enumerate(basis_a):
                    comp = compose(f, beta)
                    column = mat.col(col)
                    assert [x != 0 for x in column].count(True) == 1
                    assert column[index_b[comp.maps]] == 1


def test_make_coinduced_m2_dims():
    """E over a two-coordinate Specht pair has the product symmetrized
    dims; the top object carries the outer tensor dimension."""
    from fimlab.modules import make_coinduced as mc

    e = mc(((1, 1), (1,)), Window((3, 2)), TRIV)
    assert e.dims[(2, 1)] == 1  # dim S^(1,1) x dim S^(1)
    assert e.dims[(1, 1)] == 1  # sign-isotypic part survives one level down
    assert e.dims[(0, 1)] == 0  # killed by antisymmetry
    assert all(e.dims[n] == 0 for n in e.window.objects() if n[0] == 3)
    assert e.validate().ok


# -- Hom against the definition ---------------------------------------------


def _vectorized(mp):
    return [b[i, j] for b in map(mp.blocks.get, mp.source.window.objects())
            for i in range(b.nrows) for j in range(b.ncols)]


def _hom_by_definition(v, w):
    """Natural transformations V -> W straight from the definition: every
    block entry X_n[r, c] is an unknown, and each generator g: s -> t adds
    one row per entry of W(g) X_s - X_t V(g)."""
    from fimlab.category import generator_keys, key_ends
    from fimlab.linalg import kernel_basis

    offset, total = {}, 0
    for n in v.window.objects():
        offset[n] = total
        total += w.dims[n] * v.dims[n]
    rows = []
    for key in generator_keys(v.window, v.group):
        s, t = key_ends(key)
        va, wa = v.actions[key], w.actions[key]
        for r in range(w.dims[t]):
            for c in range(v.dims[s]):
                row = [F(0)] * total
                for k in range(w.dims[s]):
                    row[offset[s] + k * v.dims[s] + c] += wa[r, k]
                for k in range(v.dims[t]):
                    row[offset[t] + r * v.dims[t] + k] -= va[k, c]
                rows.append(row)
    return kernel_basis(RationalMatrix(rows, len(rows), total))


def _oracle_pairs():
    from fimlab.functors import ind
    from fimlab.samples import point_module, random_presented_module, truncated_constant

    pairs = []
    for bound in ((2, 2), (3,)):
        mods = [random_presented_module(Window(bound), s) for s in range(12)]
        mods += [point_module(Window(bound)), truncated_constant(Window(bound), 2)]
        for a, b in zip(mods, mods[1:] + mods[:1]):
            pairs += [(a, b), (a, a)]
    w3 = Window((3,))
    for l in ((0,), (1,), (2,)):
        pairs.append((make_cofree(l, w3, TRIV), make_induced(((1, 1),), w3, TRIV)))
        pairs.append((make_cofree(l, w3, TRIV), make_induced(((2,),), w3, TRIV)))
    for la, lb in ((((2,),), ((1, 1),)), (((2,),), ((2,),)), (((1,),), ((2,),))):
        pairs.append((make_coinduced(la, w3, TRIV), make_coinduced(lb, w3, TRIV)))
    s2 = GroupTable.symmetric(2)
    induced_e1 = ind(make_cofree((1,), w3, TRIV), s2)
    induced_point = ind(point_module(w3), s2)
    pairs += [(induced_e1, induced_e1), (make_free((1,), w3, s2), induced_e1),
              (induced_point, induced_e1), (induced_point, make_free((0,), w3, s2))]
    # no presentation, as the horseshoe step solves on restricted modules
    v = random_presented_module(w3, 0)
    bare = TruncatedModule(v.window, v.group, v.dims, v.actions, None)
    pairs += [(bare, v), (bare, make_cofree((2,), w3, TRIV))]
    return pairs


def test_hom_matches_the_definition():
    from fimlab.modules import NaturalitySolver

    for v, w in _oracle_pairs():
        oracle = _hom_by_definition(v, w)
        basis = NaturalitySolver(v, w).basis()
        assert len(basis) == oracle.dim, (v.name, w.name)
        assert all(mp.is_natural() for mp in basis)
        span = Subspace.from_spanning(oracle.ambient_dim,
                                      [_vectorized(mp) for mp in basis])
        assert span == oracle, (v.name, w.name)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(3,), (2, 2)]), st.sampled_from(["trivial", "S2", "C3"]),
       st.integers(0, 500), st.sampled_from(["itself", "random", "cofree"]),
       st.randoms(use_true_random=False))
def test_constraints_read_off_the_section_match_the_kernel_route(bound, group, seed_v,
                                                                 target, rnd):
    """The Hom space, its basis maps and an extension problem come out the
    same from the constraint rows read off each section as from those of a
    kernel basis of each cover block."""
    from fimlab.modules import NaturalitySolver
    from fimlab.samples import random_presented_module

    window, g = Window(bound), _GROUPS[group]
    v = random_presented_module(window, seed_v, g)
    w = {"itself": lambda: v,
         "random": lambda: random_presented_module(window, seed_v + 1000, g),
         "cofree": lambda: make_cofree((1,) * window.m, window, g)}[target]()
    solver, ref = NaturalitySolver(v, w), solver_by_kernel_basis(v, w)
    assert solver.dim == ref.dim
    basis = solver.basis()
    assert [b.blocks for b in basis] == [b.blocks for b in ref.basis()]
    # block(n) r = c, with c the image of r under a random natural map,
    # moved off it half of the time
    objects = [x for x in window.objects() if v.dims[x] and w.dims[x]]
    if not objects:
        return
    n = rnd.choice(objects)
    r = RationalMatrix([[rnd.randint(-2, 2)] for _ in range(v.dims[n])])
    phi = ModuleMap.zero(v, w)
    for b in basis:
        phi = phi.add(b.scale(rnd.randint(-2, 2)))
    c = phi.blocks[n] * r
    if rnd.random() < 0.5:
        c = c + RationalMatrix([[rnd.randint(-1, 1)] for _ in range(w.dims[n])])
    got = solver.solve_with_conditions([(n, r, c)])
    want = ref.solve_with_conditions([(n, r, c)])
    assert (got is None) == (want is None)
    assert got is None or got.blocks == want.blocks


# Pairs (V, W) on a window over a group, by the kernel of the solver's
# constraint rows: full (no rows bind), empty (no map, with or without
# parameters) or partial; the sources are free or presented.
_HOM_KERNELS = {
    "free sum into a free sum, sections permute": ("full", lambda w, g: (
        make_free_sum([(2,), (1,)], w, g), make_free_sum([(1,), (2,)], w, g))),
    "free into a zero value": ("empty", lambda w, g: (
        make_free((3,), w, g), make_cofree((2,), w, g))),
    "cofree into the constant": ("empty", lambda w, g: (
        make_cofree((1,), w, g), make_free((0,), w, g))),
    "presented into itself": ("partial", lambda w, g: (
        random_presented_module(w, 0, g),) * 2),
    "presented into a cofree": ("partial", lambda w, g: (
        random_presented_module(w, 0, g), make_cofree((2,), w, g))),
    "presented into its rescaling": ("partial", lambda w, g: (
        random_presented_module(w, 0, g), _rescaled(random_presented_module(w, 0, g))[0])),
}


def _hom_kernel_case(case, group):
    from fimlab.modules import NaturalitySolver

    kind, build = _HOM_KERNELS[case]
    solver = NaturalitySolver(*build(Window((3,)), _GROUPS[group]))
    dim, nparams = solver.dim, solver.nparams
    assert {"full": 0 < dim == nparams, "empty": dim == 0,
            "partial": 0 < dim < nparams}[kind], (dim, nparams)
    return solver


@pytest.mark.parametrize("group", ["C3", "S2"])
@pytest.mark.parametrize("case", sorted(_HOM_KERNELS))
def test_hom_basis_built_at_once_matches_the_one_map_routes(case, group):
    """``basis()`` builds every map from one product per term; each map
    equals the one-map dot-product route and the every-object route."""
    solver = _hom_kernel_case(case, group)
    basis, kernel = solver.basis(), solver._kernel.basis
    assert len(basis) == solver.dim
    assert basis == [solution_map_by_dot_products(solver, t, kernel.den) for t in kernel.rows]
    assert [mp.blocks for mp in basis] == solution_blocks_every_object(solver)


@pytest.mark.parametrize("group", ["C3", "S2"])
@pytest.mark.parametrize("case", sorted(_HOM_KERNELS))
def test_solve_with_conditions_matches_the_one_map_route(case, group):
    """The extension problem's map, through the shared helper, equals the
    one-map route's; it meets its conditions and is natural.  Conditions
    read off a random natural map are solvable; moved off it, they may not
    be."""
    solver = _hom_kernel_case(case, group)
    v, w = solver.v, solver.w
    rnd = random.Random(f"{case} {group}")
    objects = [x for x in v.window.objects() if v.dims[x] and w.dims[x]]
    trials = [([], True)]  # (conditions, read off a natural map)
    for trial in range(6 if objects else 0):
        phi = ModuleMap.zero(v, w)
        for b in solver.basis():
            phi = phi.add(b.scale(rnd.randint(-2, 2)))
        n = rnd.choice(objects)
        r = RationalMatrix([[rnd.randint(-2, 2) for _ in range(2)]
                            for _ in range(v.dims[n])])
        c = phi.blocks[n] * r
        if trial % 2:
            c = c + RationalMatrix([[rnd.randint(-1, 1) for _ in range(2)]
                                    for _ in range(w.dims[n])])
        trials.append(([(n, r, c)], trial % 2 == 0))
    for conditions, solvable in trials:
        got = solver.solve_with_conditions(conditions)
        assert got == solve_with_conditions_one_map(solver, conditions)
        assert got is not None or not solvable
        if got is not None:
            assert got.is_natural()
            assert all(got.blocks[n] * r == c for n, r, c in conditions)


# -- generated submodules and I_S V against the definitions ------------------


_GROUPS = {"trivial": TRIV, "S2": GroupTable.symmetric(2), "C3": GroupTable.cyclic(3)}


def _close_by_sweep(v, seeds):
    """The global sweep ``close_under_actions`` replaced, kept as the
    reference: push the family along every generator until nothing grows."""
    from fimlab.category import generator_keys, key_ends
    from fimlab.linalg import image_basis

    spaces = {n: Subspace.zero(v.dims[n]) for n in v.window.objects()}
    for n, s in seeds.items():
        spaces[n] = spaces[n].add(s)
    changed = True
    while changed:
        changed = False
        for key in generator_keys(v.window, v.group):
            src, tgt = key_ends(key)
            img = image_basis(v.actions[key] * spaces[src].basis.transpose())
            new = spaces[tgt].add(img)
            if new.dim != spaces[tgt].dim:
                spaces[tgt] = new
                changed = True
    return spaces


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(3, 3), (5,)]), st.sampled_from(sorted(_GROUPS)),
       st.integers(0, 500), st.randoms(use_true_random=False))
def test_close_under_actions_matches_the_sweep(bound, group, module_seed, rnd):
    from fimlab.samples import random_presented_module

    v = random_presented_module(Window(bound), module_seed, _GROUPS[group])
    objs = v.window.objects()
    seeds = {}
    for n in rnd.sample(objs, rnd.randint(1, 3)):
        vecs = [[rnd.randint(-2, 2) for _ in range(v.dims[n])]
                for _ in range(rnd.randint(1, 2))]
        seeds[n] = Subspace.from_spanning(v.dims[n], vecs)
    got = close_under_actions(v, seeds)
    assert list(got) == objs
    assert got == _close_by_sweep(v, seeds)


def _image_by_definition(v, S, n):
    """(I_S V)(n) from the definition: the span of V(beta) over every
    injection beta: a -> n of positive S-degree."""
    cols = []
    for a in v.window.objects():
        if leq(a, n) and any(a[i - 1] < n[i - 1] for i in S):
            for beta in enumerate_injections(a, n):
                cols.extend(evaluate(v, beta).transpose().rows)
    return Subspace.from_spanning(v.dims[n], cols)


@pytest.mark.parametrize("group", ["S2", "C3"])
@pytest.mark.parametrize("bound", [(3, 3), (4,)])
def test_positive_degree_image_matches_the_definition(bound, group):
    from itertools import combinations

    from fimlab.modules import positive_degree_image
    from fimlab.samples import random_presented_module

    window, g = Window(bound), _GROUPS[group]
    subsets = [S for r in range(1, window.m + 1)
               for S in combinations(range(1, window.m + 1), r)]
    mods = [make_free((1,) * window.m, window, g)]
    mods += [TruncatedModule.from_dict(mods[0].to_dict())]  # the general route
    mods += [random_presented_module(window, s, g) for s in range(2)]
    for v in mods:
        for n in window.objects():
            for S in subsets:
                assert positive_degree_image(v, S, n) == _image_by_definition(v, S, n)


def test_no_fixpoint_sweeps(monkeypatch):
    """I_S V(n) takes no automorphism closure, and a generated family takes
    no sweep over the generator keys."""
    import fimlab.modules as modules

    def forbidden(*args):
        raise AssertionError("fixpoint sweep")

    v = make_free((1, 0), Window((3, 3)), GroupTable.symmetric(2))
    with monkeypatch.context() as patch:
        patch.setattr(modules, "_close_subspace_under", forbidden)
        for mod in (v, TruncatedModule.from_dict(v.to_dict())):  # direct, general route
            for n in v.window.objects():
                modules.positive_degree_image(mod, (1, 2), n)
    monkeypatch.setattr(modules, "generator_keys", forbidden)
    monkeypatch.setattr(modules, "window_generators", forbidden)
    seed = Subspace.from_spanning(v.dims[(1, 1)], [range(v.dims[(1, 1)])])
    spaces = close_under_actions(v, {(1, 1): seed})
    assert spaces[(3, 3)].dim > 0


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(3, 3), (5,)]), st.sampled_from(sorted(_GROUPS)),
       st.integers(0, 500), st.randoms(use_true_random=False))
def test_orbit_walk_matches_evaluate(bound, group, module_seed, rnd):
    """The cover blocks, and the walk of an identity from a random object,
    agree with factoring every basis morphism (beta, h) through evaluate."""
    from fimlab.modules import _orbit_walk, cover_blocks, generators_and_cover
    from fimlab.samples import random_presented_module

    v = random_presented_module(Window(bound), module_seed, _GROUPS[group])
    objs = v.window.objects()
    gens = generators_and_cover(v)[0]
    blocks = cover_blocks(v, gens)
    assert list(blocks) == objs
    for x in objs:
        assert blocks[x] == cover_block_by_evaluate(v, gens, x)
    n = rnd.choice(objs)
    walk = _orbit_walk(v, n, RationalMatrix.identity(v.dims[n]))
    assert list(walk) == [x for x in objs if leq(n, x)]
    for x, mats in walk.items():
        assert mats == evaluate_basis(v, n, x)


@st.composite
def cover_sources(draw):
    """A random presented, co-free or induced module on a small window,
    over the trivial group or C2."""
    window = Window(draw(st.sampled_from([(3,), (4,), (2, 2), (3, 2)])))
    group = draw(st.sampled_from([TRIV, GroupTable.cyclic(2)]))
    kind = draw(st.sampled_from(["presented", "cofree", "induced"]))
    if kind == "presented":
        return random_presented_module(window, draw(st.integers(0, 500)), group)
    n = draw(st.sampled_from(window.objects()))
    if kind == "cofree":
        return make_cofree(n, window, group)
    lambdas = tuple(draw(st.sampled_from(partitions_of(k))) for k in n)
    return make_induced(lambdas, window, group)


@settings(max_examples=60, deadline=None)
@given(cover_sources())
def test_one_walk_finds_the_generators_and_the_cover(v):
    """The generators and cover found in one pass are those of I(n) by
    inclusion images and of a separate cover walk, and at every object the
    columns of the generators of lower degree span I(n)."""
    from fimlab.modules import generators_and_cover, positive_degree_image

    gens, blocks = generators_and_cover(v)
    assert gens == h0_generators_by_images(v)
    assert blocks == cover_blocks(v, gens)
    full_s = tuple(range(1, v.m + 1))
    objs = v.window.objects()
    for deg in sorted({degree(n) for n in objs}):
        below = cover_blocks(v, [(g, lifts) for g, lifts in gens if degree(g) < deg])
        for n in objs:
            if degree(n) == deg:
                span = Subspace.from_spanning(v.dims[n], below[n].transpose().rows)
                assert span == positive_degree_image(v, full_s, n)


_FREE_GROUPS = {**_SUM_GROUPS, "C2": GroupTable.cyclic(2)}


@st.composite
def free_module_cases(draw):
    window = Window(draw(st.sampled_from([(3,), (4,), (2, 2), (3, 2), (1, 1, 1)])))
    objs = draw(st.lists(st.sampled_from(window.objects()), max_size=2))
    l = draw(st.sampled_from(window.objects()))
    return window, objs, draw(st.sampled_from(sorted(_FREE_GROUPS))), l


@settings(max_examples=80, deadline=None)
@given(free_module_cases())
@example((Window((3,)), [], "trivial", (3,)))
@example((Window((3, 2)), [(2, 1), (1, 0)], "C2", (2, 1)))
@example((Window((2, 2)), [(0, 1), (0, 1)], "S2", (1, 1)))
@example((Window((1, 1, 1)), [(1, 1, 1), (0, 1, 0), (1, 0, 0)], "C2", (1, 1, 0)))
@example((Window((4,)), [(3,), (0,), (2,)], "S2", (2,)))
@example((Window((2, 2)), [], "C3", (1, 1)))
def test_a_free_module_is_answered_as_the_search_answers(case):
    """Reading a free module's generators, cover and I_S off its summands
    gives, exactly, what the general routes give on the same data as a
    plain module: the same lifts and blocks, Hom basis into a co-free
    module, free cover, and for every nonempty S the positive-degree image
    at every object, H_0 with its projection, and H_1."""
    from itertools import combinations

    from fimlab.homology import free_cover, h0, h1
    from fimlab.modules import generators_and_cover, positive_degree_image

    window, objs, group, l = case
    free = make_free_sum(objs, window, _FREE_GROUPS[group])
    plain = TruncatedModule.from_dict(free.to_dict())
    assert type(plain) is TruncatedModule
    assert generators_and_cover(free) == generators_and_cover(plain)
    target = make_cofree(l, window, _FREE_GROUPS[group])
    assert ([phi.blocks for phi in hom_space(free, target)]
            == [phi.blocks for phi in hom_space(plain, target)])
    cover, plain_cover = free_cover(free), free_cover(plain)
    p, pi, k, _ = cover
    q, rho, kq, _ = plain_cover
    assert (p.to_json(), pi.blocks, k.to_json()) == (q.to_json(), rho.blocks, kq.to_json())
    for S in (S for r in range(1, window.m + 1)
              for S in combinations(range(1, window.m + 1), r)):
        for n in window.objects():
            assert positive_degree_image(free, S, n) == positive_degree_image(plain, S, n)
        rep, plain_rep = h0(free, S), h0(plain, S)
        assert rep.to_dict() == plain_rep.to_dict()
        assert rep.h0_module.to_json() == plain_rep.h0_module.to_json()
        assert (quotient(free, rep.spaces)[1].blocks
                == quotient(plain, plain_rep.spaces)[1].blocks)
        assert h1(free, S, cover).to_dict() == h1(plain, S, plain_cover).to_dict()


def test_a_free_module_is_covered_and_solved_without_search(monkeypatch):
    """F(n) is its own cover, read off with no walk of it, and the identity
    cover's kernels and sections take no elimination."""
    import fimlab.linalg
    import fimlab.modules
    from fimlab.homology import free_cover
    from fimlab.modules import NaturalitySolver

    walks, eliminations = [], []
    walk, kernel = fimlab.modules._orbit_walk, fimlab.linalg.rref_int
    monkeypatch.setattr(fimlab.modules, "_orbit_walk",
                        lambda *a: walks.append(a[1]) or walk(*a))
    monkeypatch.setattr(fimlab.linalg, "rref_int",
                        lambda *a: eliminations.append(a[1]) or kernel(*a))
    f = make_free((2,), Window((5,)))
    free_cover(f)
    assert (walks, eliminations) == ([], [])
    NaturalitySolver(f, f)
    assert (walks, eliminations) == ([(2,)], [])  # the target's walk only


def test_yoneda_paths_never_evaluate(morphism_builds):
    """Hom, the free cover, the Lemma 2.3 isomorphisms and the co-free
    embedding read every V(beta, h) off orbit walks: the package has no
    ``evaluate`` to factor a morphism through, and none of them builds one."""
    from fimlab import theorems
    from fimlab.functors import derivative_free_decomposition, shift_free_decomposition
    from fimlab.homology import free_cover
    from fimlab.modules import NaturalitySolver
    from fimlab.samples import random_presented_module

    window, s2 = Window((3, 2)), GroupTable.symmetric(2)
    v = random_presented_module(window, 0, s2)
    e = make_cofree((2, 1), window, s2)
    assert not hasattr(TruncatedModule, "evaluate")
    assert len(hom_space(v, v)) == NaturalitySolver(v, v).dim > 0
    assert NaturalitySolver(v, e).dim > 0
    _, pi, _, _ = free_cover(v)
    assert all(rank(b) == pi.target.dims[n] for n, b in pi.blocks.items())
    for decomposition in (shift_free_decomposition, derivative_free_decomposition):
        assert decomposition((1, 1), 1, window, s2)[0].is_iso()
    _, emb, _ = theorems._finite_dim_embedding(e, s2)
    assert emb.is_injective_objectwise()
    assert morphism_builds == []


# -- Yoneda coordinates against a solve ------------------------------------


def _coordinates_by_solve(basis, phi):
    """The route ``NaturalitySolver.coordinates`` replaced in end_ring:
    vectorize the basis maps and solve for phi's vector."""
    from fimlab.linalg import solve

    if not basis:
        return () if all(b.is_zero() for b in phi.blocks.values()) else None
    bmat = RationalMatrix([_vectorized(b) for b in basis]).transpose()
    return solve(bmat, _vectorized(phi))


def _check_coordinates(solver, maps):
    """``coordinates`` agrees with the solve, and sum c_a basis_a rebuilds
    each map at every object, where the runtime check reads only the
    generator values."""
    basis = solver.basis()
    assert solver.dim == len(basis)
    for phi in maps:
        coords = solver.coordinates(phi)
        assert coords is not None and coords == _coordinates_by_solve(basis, phi)
        rebuilt = ModuleMap.zero(solver.v, solver.w)
        for c, b in zip(coords, basis):
            rebuilt = rebuilt.add(b.scale(c))
        assert rebuilt.blocks == phi.blocks


def test_coordinates_match_the_solve_on_the_oracle_pairs():
    from fimlab.modules import NaturalitySolver

    for v, w in _oracle_pairs():
        solver = NaturalitySolver(v, w)
        basis = solver.basis()
        maps = list(basis)
        if basis:
            combo = basis[0]
            for k, b in enumerate(basis[1:], 2):
                combo = combo.add(b.scale((-1) ** k * k))
            maps.append(combo)
        if v is w:
            maps += [a.compose(b) for a in basis for b in basis]
            maps.append(ModuleMap.identity(v))
        _check_coordinates(solver, maps)


def _end_ring_fields(er):
    """Every field of an ``EndRingData``, maps as their blocks, with the
    type of every coordinate entry (a tuple of ints equals one of Fractions)."""
    coords = [c for row in er.structure_constants for c in row] + [er.identity_coords]
    return (er.dim, er.structure_constants, er.radical_dim, er.is_local,
            er.search_exhausted, [b.blocks for b in er.basis], er.identity_coords,
            er.idempotent_coords, {type(x) for c in coords for x in c})


def _end_ring_by_solver(v):
    """end_ring(v) with the H0 test disabled, so it always builds the solver."""
    from fimlab import theorems

    with pytest.MonkeyPatch.context() as m:
        m.setattr(theorems, "_h0_dims", lambda v: {})
        return theorems.end_ring(v)


def test_end_ring_structure_constants_match_the_solve():
    """end_ring agrees with the Hom solver's basis and coordinates, and
    field by field with its own solver path, also where it skips the
    solver (one Yoneda parameter: F(1), E(1) and the tensors)."""
    from fimlab.modules import NaturalitySolver
    from fimlab.theorems import end_ring

    w, c3 = Window((3,)), GroupTable.cyclic(3)
    mods = [
        direct_sum(make_free((1,), w, TRIV), make_free((1,), w, TRIV))[0],
        direct_sum(make_free((1,), w, TRIV), make_cofree((1,), w, TRIV))[0],
        external_tensor(make_induced(((1,),), w, TRIV),
                        make_coinduced(((1,),), w, TRIV)),
        external_tensor(make_coinduced(((2,),), w, TRIV),
                        make_induced(((1, 1),), w, TRIV)),
        external_tensor(make_induced(((1, 1),), w, TRIV),
                        make_induced(((1, 1),), w, TRIV)),
        make_free((1,), w, TRIV),
        make_free((2,), w, TRIV),
        make_free((1,), w, c3),
        make_cofree((1,), w, TRIV),
        zero_module(w, TRIV),
    ]
    counts = [NaturalitySolver(v, v).nparams for v in mods]
    assert counts == [4, 3, 1, 1, 1, 1, 2, 3, 1, 0]
    for v in mods:
        er = end_ring(v)
        solver = NaturalitySolver(v, v)
        assert [b.blocks for b in er.basis] == [b.blocks for b in solver.basis()]
        comps = [a.compose(b) for a in er.basis for b in er.basis]
        _check_coordinates(solver, comps + [ModuleMap.identity(v)])
        assert solver.dim == er.dim == len(er.basis)
        flat = [c for row in er.structure_constants for c in row]
        assert flat == [_coordinates_by_solve(er.basis, comp) for comp in comps]
        assert er.identity_coords == _coordinates_by_solve(er.basis, ModuleMap.identity(v))
        assert _end_ring_fields(er) == _end_ring_fields(_end_ring_by_solver(v))


@st.composite
def _end_ring_modules(draw):
    """A module with a presentation: random presented over 1, S2 or C3,
    co-free, induced, a tensor of induced and co-induced factors, or zero."""
    group = draw(st.sampled_from(tuple(_GROUPS.values())))
    kind = draw(st.sampled_from(("random", "cofree", "induced", "tensor", "zero")))
    bound = draw(st.sampled_from(((3,), (2, 2))))
    w = Window(bound)
    if kind == "random":
        return random_presented_module(w, draw(st.integers(0, 99)), group)
    if kind == "zero":
        return zero_module(w, group)
    if kind == "tensor":  # co-induced sizes stay below the bound, as E(l)'s relations sit at l + 1
        w1 = Window((3,))
        lam_a, lam_b = (draw(st.sampled_from(partitions_of(draw(st.integers(0, 2)))))
                        for _ in range(2))
        return external_tensor(make_induced((lam_a,), w1, group),
                               make_coinduced((lam_b,), w1, TRIV))
    if kind == "cofree":
        return make_cofree(tuple(draw(st.integers(0, b - 1)) for b in bound), w, group)
    n = tuple(draw(st.integers(0, b)) for b in bound)
    return make_induced(tuple(draw(st.sampled_from(partitions_of(k))) for k in n), w, group)


@settings(max_examples=40, deadline=None)
@given(_end_ring_modules())
def test_end_ring_equals_the_solver_in_every_field(v):
    """end_ring skips the solver exactly where V's generators leave one
    Yoneda parameter, and gives, field by field, what the solver gives."""
    from fimlab import theorems
    from fimlab.modules import NaturalitySolver

    built = []

    def counting(*args):
        built.append(args)
        return NaturalitySolver(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(theorems, "NaturalitySolver", counting)
        er = theorems.end_ring(v)
    solver = NaturalitySolver(v, v)
    assert (built == []) == (solver.nparams == 1)
    assert _end_ring_fields(er) == _end_ring_fields(_end_ring_by_solver(v))
    assert er.dim == solver.dim


def test_coordinates_reject_generator_values_outside_the_kernel():
    """Hom(point, F(0)) = 0: the map sending the point's generator to 1 is
    not natural, and its generator value lies outside the kernel."""
    from fimlab.modules import NaturalitySolver
    from fimlab.samples import point_module

    w = Window((3,))
    v, t = point_module(w), make_free((0,), w, TRIV)
    solver = NaturalitySolver(v, t)
    assert solver.nparams == 1 and solver.dim == 0
    blocks = {n: RationalMatrix.zeros(t.dims[n], v.dims[n]) for n in w.objects()}
    blocks[(0,)] = RationalMatrix.identity(1)
    assert solver.coordinates(ModuleMap(v, t, blocks)) is None
    assert solver.coordinates(ModuleMap.zero(v, t)) == ()


def test_map_predicates_match_the_inverse_and_the_kernel():
    """is_iso and is_injective_objectwise take a rank per block; the oracle
    is the route they replaced, an inverse and a kernel per block."""
    from fimlab.linalg import inverse, kernel_basis

    w = Window((3,))
    v, inclusions = direct_sum(make_free((1,), w, TRIV), make_cofree((1,), w, TRIV))
    maps = hom_space(v, v) + [ModuleMap.identity(v), ModuleMap.zero(v, v)]
    maps += list(inclusions)
    maps += [m for a, b in _oracle_pairs()[:6] for m in hom_space(a, b)]
    verdicts = set()
    for mp in maps:
        blocks = mp.blocks.values()
        iso = all(b.nrows == b.ncols and (b.nrows == 0 or inverse(b) is not None)
                  for b in blocks)
        injective = all(kernel_basis(b).dim == 0 for b in blocks)
        assert mp.is_iso() == iso and mp.is_injective_objectwise() == injective
        verdicts.add((iso, injective))
    assert verdicts >= {(True, True), (False, True), (False, False)}


def test_hom_of_free_has_one_parameter_block():
    """Hom(F(2), F(2)) is F(2)(2): one generator, two parameters, no
    constraint, two maps."""
    from fimlab.modules import NaturalitySolver

    v = make_free((2,), Window((6,)), TRIV)
    solver = NaturalitySolver(v, v)
    assert solver.nparams == 2 and solver.rows == []
    maps = solver.basis()
    assert len(maps) == 2 and all(mp.is_natural() for mp in maps)


def test_hom_is_additive_over_direct_sums():
    from fimlab.samples import random_presented_module

    w = Window((2, 2))
    a, b, c = (random_presented_module(w, s) for s in (1, 2, 3))
    ab, _ = direct_sum(a, b)
    assert len(hom_space(ab, c)) == len(hom_space(a, c)) + len(hom_space(b, c))
    assert len(hom_space(c, ab)) == len(hom_space(c, a)) + len(hom_space(c, b))


def test_solve_with_conditions():
    from fimlab.modules import NaturalitySolver
    from fimlab.samples import random_presented_module

    w = Window((3,))
    v = random_presented_module(w, 4)
    t = make_cofree((2,), w, TRIV)
    solver = NaturalitySolver(v, t)
    basis = solver.basis()
    assert basis
    target = basis[0]
    for mp in basis[1:]:
        target = target.add(mp.scale(2))
    # conditions read off a natural map are solvable
    conds = [(n, RationalMatrix.identity(v.dims[n]), target.blocks[n])
             for n in ((1,), (2,))]
    got = solver.solve_with_conditions(conds)
    assert got is not None and got.is_natural()
    for n, r, c in conds:
        assert got.blocks[n] * r == c
    # Hom(F(1), F(1)) is the scalars: no map sends e_0 to e_1 at (2,)
    f1 = make_free((1,), w, TRIV)
    e0 = RationalMatrix([[1], [0]])
    e1 = RationalMatrix([[0], [1]])
    one = NaturalitySolver(f1, f1)
    assert one.solve_with_conditions([((2,), e0, e1)]) is None
    assert one.solve_with_conditions([((2,), e0, e0)]) == ModuleMap.identity(f1)
    # non-integral actions and conditions
    scaled, phi = _rescaled(f1)
    solver = NaturalitySolver(f1, scaled)
    assert [mp.is_natural() for mp in solver.basis()] == [True]
    r = RationalMatrix([[F(1, 3)], [F(2, 5)]])
    assert solver.solve_with_conditions([((2,), r, phi.blocks[(2,)] * r)]) == phi


def _rescaled(v):
    """(W, phi): W is V with basis vector j of each W(n) standing for
    (j + 1) e_j, so its actions are not integral, and phi: V -> W is the
    isomorphism."""
    def diag(entries):
        k = len(entries)
        return RationalMatrix([[x if i == j else 0 for j, x in enumerate(entries)]
                               for i in range(k)], k, k)

    up = {n: diag([F(j + 1) for j in range(d)]) for n, d in v.dims.items()}
    down = {n: diag([F(1, j + 1) for j in range(d)]) for n, d in v.dims.items()}
    actions = {key: down[key_ends(key)[1]] * a * up[key_ends(key)[0]]
               for key, a in v.actions.items()}
    w = TruncatedModule(v.window, v.group, dict(v.dims), actions)
    assert w.validate().ok and any(a.den != 1 for a in actions.values())
    phi = ModuleMap(v, w, down)
    assert phi.is_natural()
    return w, phi


def test_coordinates_match_the_solve_over_non_integral_actions():
    """Hom into rescaled modules, where the RREF basis of the solutions has
    a denominator: the basis maps carry it, and maps pushed through the
    rescaling have the coordinates the solve gives."""
    from fimlab.modules import NaturalitySolver
    from fimlab.samples import random_presented_module

    w = Window((2,))
    v = random_presented_module(w, 0)
    for target in (make_cofree((2,), w, TRIV), v):
        scaled, phi = _rescaled(target)
        solver = NaturalitySolver(v, scaled)
        basis = solver.basis()
        assert basis and all(mp.is_natural() for mp in basis)
        pushed = [phi.compose(b) for b in NaturalitySolver(v, target).basis()]
        _check_coordinates(solver, basis + pushed + [basis[0].scale(F(3, 2))])
        # the rescaled source has the same Hom, and the same wire round trip
        assert NaturalitySolver(scaled, target).dim == NaturalitySolver(target, target).dim
        assert TruncatedModule.from_dict(scaled.to_dict()).actions == scaled.actions


def test_from_dict_bounds_the_window_before_enumerating():
    doc = make_free((0, 0), Window((1, 1)), TRIV).to_dict()
    doc["window"] = "(1000000000,1000000000)"
    doc["dims"] = {"(0,0)": 1}
    with pytest.raises(ValueError) as info:
        TruncatedModule.from_dict(doc)
    assert str(info.value).startswith("dims")


@st.composite
def kunneth_factors(draw):
    """Two modules on the window (2,) or (3,), each F(n), E(n) or a seeded
    presented module over the trivial group; half the time the second is
    the first, so that Hom is End and nonzero."""
    window = Window(draw(st.sampled_from([(2,), (3,)])))

    def module():
        kind = draw(st.sampled_from(["free", "cofree", "presented"]))
        if kind == "presented":
            return random_presented_module(window, draw(st.integers(0, 500)))
        n = (draw(st.integers(0, window.bound[0])),)
        return (make_free if kind == "free" else make_cofree)(n, window, TRIV)

    a = module()
    return a, a if draw(st.booleans()) else module()


@settings(max_examples=25, deadline=None)
@given(kunneth_factors(), kunneth_factors())
def test_hom_between_external_tensors_is_the_product(ac, bd):
    """Over the trivial group, dim Hom(A ⊠ B, C ⊠ D) = dim Hom(A, C) ·
    dim Hom(B, D)."""
    from fimlab.modules import NaturalitySolver

    (a, c), (b, d) = ac, bd
    got = NaturalitySolver(external_tensor(a, b), external_tensor(c, d)).dim
    assert got == NaturalitySolver(a, c).dim * NaturalitySolver(b, d).dim
