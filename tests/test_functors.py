import importlib
import itertools
import pkgutil
import random
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fimlab
from fimlab import linalg, symrep
from fimlab.category import (
    GroupTable,
    Window,
    aut_swaps,
    generator_index_map,
    generator_keys,
    injection_index_table,
    leq,
)
from fimlab.linalg import RationalMatrix, Subspace, image_basis, kron
from fimlab.modules import (
    MarginError,
    ModuleMap,
    NaturalitySolver,
    TruncatedModule,
    external_tensor,
    hom_space,
    make_cofree,
    make_coinduced,
    make_free,
)
from fimlab.functors import (
    aut_table,
    averaging_splitting,
    canonical_map,
    derivative,
    derivative_free_decomposition,
    derivative_sum,
    ind,
    induced_module,
    kernel_functor,
    kernel_sum,
    make_induced,
    res,
    rs_group,
    shift,
    shift_free_decomposition,
    shift_prod,
    shift_sum,
)
from fimlab.homology import slice_module
from fimlab.samples import random_presented_module, truncated_constant

from oracles import (
    Morphism,
    aut_rep_at,
    aut_table_by_fold,
    compose,
    cyclic_table,
    decompose,
    derivative_decomposition_by_indexing,
    enumerate_injections,
    exact_four_term_check,
    induced_by_free_fixed_space,
    induced_module_by_fixed_space,
    invert_perm,
    morphism_of_key,
    partitions_of,
    regular_rep,
    rs_group_by_tables,
    shift_decomposition_by_indexing,
    symmetric_table,
    with_trivial_group_action,
)
from test_category import assert_same_group
from test_invariants import process_caches

TRIV = GroupTable.trivial()


def test_shift_constant_module():
    v = make_free((0,), Window((3,)), TRIV)
    s = shift(v, 1)
    assert all(s.dims[t] == 1 for t in s.window.objects())
    assert s.validate().ok


def test_shift_free_dims_lemma():
    # Shift M(1) has dims t + 1 = dims of M(1) + M(0)
    v = make_free((1,), Window((4,)), TRIV)
    s = shift(v, 1)
    for t in range(4):
        assert s.dims[(t,)] == t + 1


def test_shift_two_coordinates_dims():
    v = make_free((1, 1), Window((2, 2)), TRIV)
    s = shift(v, 2)
    m11 = make_free((1, 1), Window((2, 1)), TRIV)
    m10 = make_free((1, 0), Window((2, 1)), TRIV)
    for t in s.window.objects():
        assert s.dims[t] == m11.dims[t] + m10.dims[t]
    assert s.validate().ok


def test_shift_free_decomposition_is_iso():
    for n, i, bound in (((1,), 1, (3,)), ((2,), 1, (3,)), ((1, 1), 2, (2, 2))):
        iso, big, shifted = shift_free_decomposition(n, i, Window(bound), TRIV)
        assert iso.is_natural()
        assert iso.is_iso()


def test_derivative_free_decomposition_is_iso():
    for n, i, bound in (((1,), 1, (3,)), ((2,), 1, (3,)), ((1, 1), 1, (2, 2))):
        iso, big, derived = derivative_free_decomposition(n, i, Window(bound), TRIV)
        assert iso.is_natural()
        assert iso.is_iso()


@pytest.mark.parametrize("group", [TRIV, GroupTable.symmetric(2), GroupTable.cyclic(3)],
                         ids=["1", "S2", "C3"])
@pytest.mark.parametrize("bound", [(3,), (2, 2), (2, 1, 1)])
def test_free_decompositions_match_the_injection_indexing(bound, group):
    """Every n and i of the window: the Yoneda maps from generator values
    equal the decompositions written out injection by injection."""
    window = Window(bound)
    for n in window.objects():
        for i in range(1, window.m + 1):
            iso, _, _ = shift_free_decomposition(n, i, window, group)
            assert iso.blocks == shift_decomposition_by_indexing(n, i, window, group)
            iso, _, _ = derivative_free_decomposition(n, i, window, group)
            assert iso.blocks == derivative_decomposition_by_indexing(n, i, window, group)


def test_derivative_of_free_m1():
    v = make_free((1,), Window((3,)), TRIV)
    d = derivative(v, 1)
    m0 = make_free((0,), Window((2,)), TRIV)
    assert d.dims == m0.dims
    assert d.validate().ok


def test_kernel_of_free_is_zero():
    for n in ((0,), (1,), (2,)):
        v = make_free(n, Window((3,)), TRIV)
        assert kernel_functor(v, 1).is_zero()


def test_kernel_of_point_module():
    e0 = make_cofree((0,), Window((2,)), TRIV)
    k = kernel_functor(e0, 1)
    assert k.dims[(0,)] == 1
    assert all(k.dims[(t,)] == 0 for t in range(1, 2))


def test_canonical_map_properties():
    v = make_free((0,), Window((2,)), TRIV)
    can = canonical_map(v, 1)
    assert can.is_natural()
    assert all(b == RationalMatrix.identity(1) for b in can.blocks.values())
    w = make_free((1,), Window((3,)), TRIV)
    canw = canonical_map(w, 1)
    assert canw.is_natural() and canw.is_injective_objectwise()


def test_exact_four_term():
    for n in ((0,), (1,)):
        v = make_free(n, Window((3,)), TRIV)
        assert exact_four_term_check(v, 1)
    e = make_cofree((1,), Window((3,)), TRIV)
    assert exact_four_term_check(e, 1)


def test_shift_commutation_data_equality():
    v = make_free((1, 1), Window((3, 3)), TRIV)
    a = shift(shift(v, 1), 2)
    b = shift(shift(v, 2), 1)
    assert a == b


def test_shift_derivative_commute_up_to_data():
    v = make_free((1, 1), Window((3, 3)), TRIV)
    a = shift(derivative(v, 2), 1)
    b = derivative(shift(v, 1), 2)
    assert a.dims == b.dims
    # construct an isomorphism between them
    maps = hom_space(a, b)
    assert any(mp.is_iso() for mp in maps) or _iso_from_combo(maps)


def _iso_from_combo(maps, tries=25, seed=3):
    rng = random.Random(seed)
    for _ in range(tries):
        combo = None
        for mp in maps:
            c = Fraction(rng.randint(-3, 3))
            piece = mp.scale(c)
            combo = piece if combo is None else combo.add(piece)
        if combo is not None and combo.is_iso():
            return combo
    return None


def test_shift_prod_margins_and_unit():
    v = make_free((1,), Window((4,)), TRIV)
    assert shift_prod(v, {1}, 1) == shift(v, 1)
    assert shift_prod(v, {1}, 0) == v
    with pytest.raises(MarginError):
        shift_prod(v, {1}, 5)


def test_shift_prod_constant():
    v = make_free((0, 0), Window((2, 2)), TRIV)
    s = shift_prod(v, {1, 2}, 1)
    assert all(s.dims[t] == 1 for t in s.window.objects())


def test_sum_variants_shapes():
    v = make_free((1, 0), Window((2, 2)), TRIV)
    ssum = shift_sum(v, {1, 2})
    dsum = derivative_sum(v, {1, 2})
    ksum = kernel_sum(v, {1, 2})
    assert ssum.window.bound == (1, 1)
    for t in ssum.window.objects():
        assert ssum.dims[t] == shift(v, 1).dims[t] + shift(v, 2).dims[t]
    assert ksum.is_zero()
    assert dsum.validate().ok


def test_ind_matches_free_with_group():
    g = GroupTable.symmetric(2)
    v = make_free((1,), Window((2,)), TRIV)
    w = ind(v, g)
    direct = make_free((1,), Window((2,)), g)
    assert w == direct


def test_ind_res_dims_and_trivial():
    g = GroupTable.cyclic(2)
    v = make_free((0,), Window((2,)), TRIV)
    w = ind(v, g)
    assert all(w.dims[n] == 2 * v.dims[n] for n in v.dims)
    assert ind(v, TRIV) == v
    back = res(w)
    assert back.dims == w.dims and back.group.is_trivial()


def test_averaging_splitting_identity():
    g = GroupTable.symmetric(2)
    v = make_free((0,), Window((2,)), g)
    phi, eps = averaging_splitting(v)
    assert phi.is_natural() and eps.is_natural()
    comp = eps.compose(phi)
    assert comp == ModuleMap.identity(v)


def test_averaging_splitting_trivial_group():
    v = make_free((1,), Window((2,)), TRIV)
    phi, eps = averaging_splitting(v)
    assert eps.compose(phi) == ModuleMap.identity(v)


def test_induced_module_unit_case():
    # s = (1) with trivial Aut: F_s(M(1) over the other coordinate) = M((1,1))
    w1 = Window((2,))
    w_rs = make_free((1,), w1, rs_group((1,), TRIV))
    out = induced_module((1,), (1,), w_rs, TRIV, Window((2, 2)))
    f = make_free((1, 1), Window((2, 2)), TRIV)
    assert out.dims == f.dims
    assert out.validate().ok
    maps = hom_space(out, f)
    assert any(mp.is_iso() for mp in maps) or _iso_from_combo(maps)


def test_induced_module_regular_aut_input_is_product():
    # F_s(W' boxtimes kAut(s)) has the dims of M(s) boxtimes W'
    s = (2,)
    g_rs = rs_group(s, TRIV)
    w_prime = make_free((0,), Window((2,)), TRIV)
    w_rs = ind(w_prime, g_rs)  # regular Aut(s)-action
    out = induced_module(s, (1,), w_rs, TRIV, Window((3, 2)))
    ms = make_free((2,), Window((3,)), TRIV)
    tensor = external_tensor(ms, w_prime)
    assert out.dims == tensor.dims
    assert out.validate().ok
    maps = hom_space(out, tensor)
    assert any(mp.is_iso() for mp in maps) or _iso_from_combo(maps)


def test_f_s_preserves_surjections():
    """F_s of a surjection has objectwise surjective blocks."""
    s = (1,)
    g_rs = rs_group(s, TRIV)
    big = make_free((0,), Window((2,)), g_rs)
    # surjection M(0) -> point module over the complement coordinate
    from fimlab.modules import close_under_actions, quotient
    from fimlab.linalg import Subspace

    spaces = close_under_actions(big, {(1,): Subspace.full(big.dims[(1,)])})
    small, proj = quotient(big, spaces)
    fs_big = induced_module(s, (1,), big, TRIV, Window((2, 2)))
    fs_small = induced_module(s, (1,), small, TRIV, Window((2, 2)))
    assert all(
        fs_big.dims[n] >= fs_small.dims[n] for n in fs_big.window.objects()
    )


def test_aut_table_orders():
    assert aut_table_by_fold((2,)).order == 2
    assert aut_table_by_fold((2, 3)).order == 12
    assert aut_table_by_fold(()).order == 1
    for s in ((2,), (2, 3), ()):
        assert_same_group(aut_table(s), aut_table_by_fold(s))


RS_SHAPES = [(), (3,), (2, 2), (1, 3), (3, 2), (4,), (2, 1, 2), (0, 3)]
# each group with its full-table reference
RS_GROUPS = {"1": (TRIV, GroupTable(((0,),), (), name="1")),
             "C2": (GroupTable.cyclic(2), cyclic_table(2)),
             "S2": (GroupTable.symmetric(2), symmetric_table(2)),
             "C3": (GroupTable.cyclic(3), cyclic_table(3)),
             "S3": (GroupTable.symmetric(3), symmetric_table(3))}


@pytest.mark.parametrize("g", list(RS_GROUPS))
@pytest.mark.parametrize("s", RS_SHAPES, ids=str)
def test_rs_group_equals_the_product_of_full_tables(s, g):
    """Aut(s) x G written from the generators' left rows equals the left
    fold of full-table products, entry for entry."""
    group, ref = RS_GROUPS[g]
    assert_same_group(rs_group(s, group), rs_group_by_tables(s, ref))


@pytest.mark.parametrize("s", RS_SHAPES, ids=str)
def test_aut_group_left_rows_are_the_swap_index_maps(s):
    """Aut(s) x 1 indexes Aut(s) as Inj(s, s) does: the left row of its
    j-th generator is the index map of the j-th swap of ``aut_swaps(s)``."""
    aut = rs_group(s, TRIV)
    assert aut.left == tuple(generator_index_map(s, ("swap", i, k, s))
                             for i, k in aut_swaps(s))


def test_rs_group_keeps_the_name_of_an_equal_group():
    # C2 and S2 have the same table, so they compare equal; the slice
    # groups built from them must still carry their own names
    c2, s2 = GroupTable.cyclic(2), GroupTable.symmetric(2)
    assert c2 == s2
    assert rs_group((1,), c2).name == "1xS1xC2"
    assert rs_group((1,), s2).name == "1xS1xS2"
    assert rs_group((1,), c2) is rs_group((1,), c2)


@pytest.mark.parametrize("s", [(), (1,), (3,), (2, 3), (3, 1, 2)])
def test_aut_swaps_are_aut_table_generators_in_order(s):
    def swap(c, k):
        img = [list(range(1, x + 1)) for x in s]
        img[c - 1][k - 1], img[c - 1][k] = k + 1, k
        return tuple(map(tuple, img))

    assert [aut_element_index(s, swap(c, k)) for c, k in aut_swaps(s)] == list(
        aut_table(s).generators)
    assert_same_group(aut_table(s), aut_table_by_fold(s))


def test_induced_constructors_enumerate_no_group_elements(monkeypatch):
    """Invariants are read off the generators: M(lambda), E(lambda) and
    F_s(W) list no element of Aut x G.  M(lambda) lists the elements of G
    alone, once, to check that ``g_rep`` represents G.  Every fimlab module
    that binds ``_rep_elements`` has its binding patched."""
    s3 = GroupTable.symmetric(3)
    regular = regular_rep(s3)
    w_rs = ind(make_free((0,), Window((1,)), TRIV), rs_group((3,), TRIV))
    listed = []
    rep_elements = symrep._rep_elements
    binders = [mod for mod in (importlib.import_module(f"fimlab.{info.name}")
                               for info in pkgutil.iter_modules(fimlab.__path__))
               if hasattr(mod, "_rep_elements")]
    assert symrep in binders

    def g_only(group, *args):
        listed.append(group)
        if group != s3:
            raise AssertionError("group elements enumerated")
        return rep_elements(group, *args)

    def refuse(*args):
        raise AssertionError("group elements enumerated")

    def patch(fn):
        for mod in binders:
            monkeypatch.setattr(mod, "_rep_elements", fn)

    monkeypatch.setattr(TruncatedModule, "group_elements_at", refuse)
    patch(g_only)
    assert make_induced(((2, 1),), Window((3,)), s3, g_rep=regular).dims[(3,)] == 12
    assert listed == [s3]
    patch(refuse)
    assert make_coinduced(((2, 1), (1,)), Window((3, 1)), s3).dims[(3, 1)] == 2
    assert induced_module((3,), (1,), w_rs, TRIV, Window((3, 1))).dims[(3, 1)] == 6


def test_shift_preserves_exactness():
    """Shifting a cover sequence stays objectwise exact."""
    from fimlab.homology import free_cover
    from fimlab.linalg import rank, kernel_basis
    from fimlab.samples import random_presented_module

    for seed in (2, 5):
        v = random_presented_module(Window((3,)), seed)
        p, pi, k, k_incl = free_cover(v)
        sp, s_pi_blocks = shift(p, 1), None
        sv = shift(v, 1)
        sk = shift(k, 1)
        # shifted maps: the blocks at t are the original blocks at t+1
        for t in sp.window.objects():
            up = (t[0] + 1,)
            blk_pi = pi.blocks[up]
            blk_incl = k_incl.blocks[up]
            assert rank(blk_pi) == sv.dims[t]  # still surjective
            assert kernel_basis(blk_pi).dim == sk.dims[t]  # kernel matches


def test_fs_universal_property_dimensions():
    """Hom(F_s(W), N) has the dimension of Hom_{R_s}(W, N[[s]])."""
    from fimlab.homology import slice_module
    from fimlab.modules import hom_space as hs

    s = (1,)
    S = (1,)
    g_rs = rs_group(s, TRIV)
    w_rs = make_free((1,), Window((2,)), g_rs)
    fsw = induced_module(s, S, w_rs, TRIV, Window((2, 2)))
    for target_obj in ((1, 1), (0, 0)):
        n_mod = make_free(target_obj, Window((2, 2)), TRIV)
        lhs = len(hs(fsw, n_mod))
        rhs = len(hs(w_rs, slice_module(n_mod, s, S)))
        assert lhs == rhs, (target_obj, lhs, rhs)


def test_kernel_vanishes_eventually_for_samples():
    """Some window shift makes the kernel functor vanish, or the window is
    too small and the loop reports nothing (never a wrong positive)."""
    v = truncated_constant(Window((4,)), 2)
    found = None
    cur = v
    for n in range(4):
        if kernel_functor(cur, 1).is_zero():
            found = n
            break
        cur = shift(cur, 1)
    assert found == 2


def test_induced_module_at_zero_object_is_constant_along_s():
    """F at s = (0): the value is W(t) at every S-level, with identity
    S-direction actions."""
    w_rs = with_trivial_group_action(
        make_free((1,), Window((2,)), TRIV), rs_group((0,), TRIV)
    )
    out = induced_module((0,), (1,), w_rs, TRIV, Window((2, 2)))
    for s_level in range(3):
        for t in range(3):
            assert out.dims[(s_level, t)] == w_rs.dims[(t,)]
    assert out.actions[("incl", 1, (0, 1))] == RationalMatrix.identity(1)
    assert out.validate().ok


def test_induced_module_matches_make_induced():
    """F_s along one coordinate of an irreducible agrees with M(lambda),
    F_n along every coordinate."""
    from fimlab.modules import hom_space

    # W = trivial S_2-rep tensor the constant module on the complement
    g_rs = rs_group((2,), TRIV)
    w_rs = with_trivial_group_action(make_free((0,), Window((2,)), TRIV), g_rs)
    fs = induced_module((2,), (1,), w_rs, TRIV, Window((3, 2)))
    direct = make_induced(((2,), ()), Window((3, 2)), TRIV)
    assert fs.dims == direct.dims
    maps = hom_space(fs, direct)
    assert any(mp.is_iso() for mp in maps) or _iso_from_combo(maps)


_S2, _S3, _C3 = GroupTable.symmetric(2), GroupTable.symmetric(3), GroupTable.cyclic(3)


@pytest.mark.parametrize("lambdas, bound, group, regular", [
    (((3,),), (4,), _S3, False),
    (((1, 1, 1),), (4,), _S3, False),
    (((2,), (1, 1)), (3, 3), TRIV, False),
    (((2,), ()), (3, 2), _C3, True),
    (((2, 1),), (3,), _C3, True),
    (((2, 1),), (3,), _S3, True),
    ((), (), _C3, True),
], ids=["S3-3", "S3-111", "2x11", "C3reg-2x0", "C3reg-21", "S3reg-21", "C3reg-m0"])
def test_make_induced_matches_the_free_fixed_space(lambdas, bound, group, regular):
    """M(lambda) as F_n of its Specht representation is, byte for byte, the
    fixed space of Aut(n) x G on (F(n) x G) x X that it replaced."""
    g_rep = regular_rep(group) if regular else None
    got = make_induced(lambdas, Window(bound), group, g_rep=g_rep)
    assert got.to_json() == induced_by_free_fixed_space(lambdas, Window(bound), group,
                                                        g_rep).to_json()


# -- single-coordinate functors refuse coordinates out of range --------------


@pytest.mark.parametrize("i", [0, 3, -1])
@pytest.mark.parametrize("op", [shift, canonical_map, kernel_functor, derivative])
def test_functors_reject_coordinates_out_of_range(op, i):
    v = make_free((1, 0), Window((2, 2)), TRIV)
    with pytest.raises(ValueError, match=f"coordinate {i} out of range for m=2"):
        op(v, i)


@pytest.mark.parametrize("i", [0, 3])
@pytest.mark.parametrize(
    "decompose", [shift_free_decomposition, derivative_free_decomposition])
def test_free_decompositions_reject_coordinates_out_of_range(decompose, i):
    with pytest.raises(ValueError, match="out of range"):
        decompose((1, 1), i, Window((2, 2)), TRIV)


# -- F_s(W) against the per-key permutation construction ---------------------


def aut_element_index(s, sigma) -> int:
    """Index of (sigma_1, ..., sigma_k) in ``aut_table_by_fold(s)``."""
    idx = 0
    for x, si in zip(s, sigma):
        perms = list(itertools.permutations(range(1, x + 1)))
        idx = idx * len(perms) + perms.index(tuple(si))
    return idx


def _induced_by_permutations(s, S, w_rs, group, window):
    """The ambient module of F_s(W), written out from the definition: at
    (s' x t) it is Inj(s, s') x W(t); an S-coordinate generator f acts by
    beta -> f o beta on the injections, any other generator acts on W, and
    the averaging idempotent pairs beta -> beta o sigma with rho(sigma^-1).
    Returns (idempotent images, actions)."""
    not_S = tuple(i for i in range(1, window.m + 1) if i not in S)
    auts = list(itertools.product(
        *[itertools.permutations(range(1, x + 1)) for x in s]))
    n_aut_gens = len(aut_table_by_fold(s).generators)

    def split(n):
        return tuple(n[i - 1] for i in S), tuple(n[i - 1] for i in not_S)

    def injections(a):
        return enumerate_injections(s, a) if leq(s, a) else []

    def perm_matrix(f, a, b):
        """The matrix of beta -> f(beta) from Inj(s, a) to Inj(s, b)."""
        index = injection_index_table(s, b) if leq(s, b) else {}
        rows = [[Fraction(0)] * len(injections(a)) for _ in index]
        for j, beta in enumerate(injections(a)):
            rows[index[f(beta).maps]][j] = Fraction(1)
        return RationalMatrix(rows, len(index), len(injections(a)))

    def ident(d):
        return RationalMatrix.identity(d)

    spaces = {}
    for n in window.objects():
        sp, t = split(n)
        d = len(injections(sp)) * w_rs.dims[t]
        if d == 0:
            spaces[n] = Subspace.zero(0)
            continue
        rho = w_rs.group_elements_at(t)
        acc = RationalMatrix.zeros(d, d)
        for sigma in auts:
            sig = Morphism(s, s, sigma)
            p = perm_matrix(lambda beta: compose(beta, sig), sp, sp)
            inv = aut_element_index(s, tuple(invert_perm(x) for x in sigma))
            acc = acc + kron(p, rho[inv * group.order])
        spaces[n] = image_basis(acc.scale(Fraction(1, len(auts))))
    actions = {}
    for key in generator_keys(window, group):
        mor = morphism_of_key(key, group)
        (sa, ta), (sb, _) = split(mor.source), split(mor.target)
        if key[0] == "grp":
            wkey = ("grp", n_aut_gens + key[1], ta)
            actions[key] = kron(ident(len(injections(sa))), w_rs.actions[wkey])
        elif key[1] in S:
            f = Morphism(sa, sb, tuple(mor.maps[i - 1] for i in S))
            p = perm_matrix(lambda beta: compose(f, beta), sa, sb)
            actions[key] = kron(p, ident(w_rs.dims[ta]))
        else:
            pos = not_S.index(key[1]) + 1
            wkey = (("incl", pos, ta) if key[0] == "incl"
                    else ("swap", pos, key[2], ta))
            actions[key] = kron(ident(len(injections(sa))), w_rs.actions[wkey])
    return spaces, actions


def _induced_cases():
    from fimlab.samples import random_presented_module

    s2, c3 = GroupTable.symmetric(2), GroupTable.cyclic(3)
    return [
        ((1,), (1,), (2, 2), s2, make_free((1,), Window((2,)), rs_group((1,), s2))),
        ((2,), (2,), (2, 2), c3, ind(make_free((0,), Window((2,)), TRIV),
                                     rs_group((2,), c3))),
        ((1, 1), (1, 2), (2, 2, 1), s2, ind(make_free((0,), Window((1,)), TRIV),
                                            rs_group((1, 1), s2))),
        ((2,), (1,), (3, 2), s2, with_trivial_group_action(
            random_presented_module(Window((2,)), 3), rs_group((2,), s2))),
    ]


@pytest.mark.parametrize("case", _induced_cases(),
                         ids=["S1-S2", "S2-C3", "S12-S2", "S1-S2-quotient"])
def test_induced_module_matches_the_permutation_construction(case):
    s, S, bound, group, w_rs = case
    window = Window(bound)
    mod = induced_module(s, S, w_rs, group, window)
    incl = induced_module_by_fixed_space(s, S, w_rs, group, window)[1].blocks
    spaces, actions = _induced_by_permutations(s, S, w_rs, group, window)
    big = TruncatedModule(window, group, {n: sp.ambient_dim for n, sp in spaces.items()},
                          actions)
    for n in window.objects():
        assert image_basis(incl[n]) == spaces[n]
    assert ModuleMap(mod, big, incl).is_natural() and mod.validate().ok


@st.composite
def _induced_inputs(draw):
    """(s, S, W, group, window) for F_s(W): W a slice V[[s]] of a random
    presented module V over the window, or ``ind`` of a free module to
    Aut(s) x G, on one or two coordinates over 1, S2 or C3."""
    group = draw(st.sampled_from((TRIV, _S2, _C3)))
    bound = draw(st.sampled_from(((3,), (4,), (2, 2), (3, 2))))
    S = draw(st.sampled_from([S for r in range(1, len(bound) + 1)
                              for S in itertools.combinations(range(1, len(bound) + 1), r)]))
    not_S = [i for i in range(1, len(bound) + 1) if i not in S]
    s = tuple(draw(st.integers(0, bound[i - 1])) for i in S)
    if draw(st.booleans()):
        v = random_presented_module(Window(bound), draw(st.integers(0, 99)), group)
        w_rs = slice_module(v, s, S)
    else:
        t_bound = tuple(bound[i - 1] for i in not_S)
        n = tuple(draw(st.integers(0, b)) for b in t_bound)
        w_rs = ind(make_free(n, Window(t_bound)), rs_group(s, group))
    return s, S, w_rs, group, Window(bound)


@settings(max_examples=40, deadline=None)
@given(_induced_inputs())
def test_induced_module_matches_the_fixed_space_byte_for_byte(case):
    """The orbit-sum basis written down is the reduced row echelon basis of
    the fixed space that F_s(W) was solved for: the module JSON agrees
    byte for byte."""
    s, S, w_rs, group, window = case
    mod = induced_module(s, S, w_rs, group, window)
    ref, _ = induced_module_by_fixed_space(s, S, w_rs, group, window)
    assert mod.to_json() == ref.to_json()


def _hom_test_modules(kind, window, seed):
    objs = window.objects()
    if kind == "random":
        return random_presented_module(window, seed)
    if kind == "free":
        return make_free(objs[seed % len(objs)], window)
    if kind == "constant":
        return truncated_constant(window, 1 + seed % sum(window.bound))
    return make_cofree(objs[seed % len(objs)], window)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(("random", "free", "cofree")), st.sampled_from(((4,), (3, 3))),
       st.integers(0, 99), st.integers(0, 15))
def test_hom_out_of_an_induced_module_counts_its_specht_factor(kind, bound, seed, pick):
    """Hom(M(lambda), W) = Hom over Aut(n) from S^lambda to W(n), so its
    dimension is the multiplicity of lambda in W(n), for every lambda of n."""
    window = Window(bound)
    w = _hom_test_modules(kind, window, seed)
    n = window.objects()[pick % len(window.objects())]
    mult = decompose(aut_rep_at(w, n))
    for lambdas in itertools.product(*(partitions_of(x) for x in n)):
        assert (NaturalitySolver(make_induced(lambdas, window), w).dim
                == mult.get((lambdas, 0), 0)), lambdas


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(("random", "free", "cofree", "constant")), st.sampled_from(((4,), (3, 3))),
       st.integers(0, 99), st.integers(0, 15))
def test_hom_into_a_coinduced_module_counts_its_specht_factor(kind, bound, seed, pick):
    """E(lambda) is co-induced from l, so Hom(W, E(lambda)) = Hom over Aut(l)
    from W(l) to S^lambda: its dimension is the multiplicity of lambda in
    W(l), for every lambda of l."""
    window = Window(bound)
    w = _hom_test_modules(kind, window, seed)
    l = window.objects()[pick % len(window.objects())]
    mult = decompose(aut_rep_at(w, l))
    for lambdas in itertools.product(*(partitions_of(x) for x in l)):
        assert (NaturalitySolver(w, make_coinduced(lambdas, window)).dim
                == mult.get((lambdas, 0), 0)), lambdas


def _hook_length_dim(mu) -> int:
    """f^mu, the number of standard tableaux of shape mu, by the hook length
    formula."""
    cols = [sum(1 for row in mu if row > c) for c in range(mu[0])] if mu else []
    return factorial(sum(mu)) // prod(mu[r] - c + cols[c] - r - 1
                                      for r in range(len(mu)) for c in range(mu[r]))


@pytest.mark.parametrize("lam", [(3, 2), (4, 1)])
def test_coinduced_dims_follow_the_branching_rule(lam):
    """dim E(lambda)(t) is the dimension of the S_(l - t)-invariants of
    S^lambda restricted to S_t x S_(l - t): by Pieri's rule, the sum of f^mu
    over the mu inside lambda with lambda/mu a horizontal strip (mu_j between
    lambda_(j+1) and lambda_j) of l - t boxes."""
    l = sum(lam)
    e = make_coinduced((lam,), Window((l,)))
    below = lam[1:] + (0,)
    strips = [tuple(x for x in mu if x)
              for mu in itertools.product(*(range(b, a + 1) for a, b in zip(lam, below)))]
    for t in range(l + 1):
        assert e.dims[(t,)] == sum(_hook_length_dim(mu) for mu in strips if sum(mu) == t), t


def _identity_widths(build):
    """The module ``build()`` makes from cleared process caches, and the
    widths it asks ``_identity_rows`` for; every width asked stays cached
    for the life of the process."""
    for fn in process_caches():
        fn.cache_clear()
    asked = []
    rows = linalg._identity_rows

    def recording(n):
        asked.append(n)
        return rows(n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_identity_rows", recording)
        mod = build()
    return mod, asked


def test_induced_module_builds_no_identity_wider_than_its_values():
    """Writing F_n(X) down asks ``_identity_rows`` for no width beyond its
    widest value (45 at (6,) for lambda = (3, 1))."""
    mod, asked = _identity_widths(lambda: make_induced(((3, 1),), Window((6,))))
    assert max(mod.dims.values()) == 45
    assert asked and max(asked) <= 45


def test_coinduced_module_builds_no_identity_wider_than_its_values():
    """Writing E(lambda) down asks ``_identity_rows`` for no width beyond
    dim S^lambda (5 for lambda = (3, 2), its value at (5,)), although
    (co-free) x S^lambda is 600 wide at (2,)."""
    mod, asked = _identity_widths(lambda: make_coinduced(((3, 2),), Window((5,))))
    assert max(mod.dims.values()) == 5
    assert asked and max(asked) <= 5


@pytest.mark.parametrize("s, mats", [
    ((2,), [[[2]]]),
    ((3,), [[[0, 1], [1, 0]], [[1, 0], [0, -1]]]),
], ids=["square", "braid"])
def test_induced_module_rejects_a_w_that_is_not_an_aut_representation(s, mats):
    """Swaps that fail s^2 = 1, or the braid relation, are not a
    representation of Aut(s); the fixed space then falls short of its
    dimension, and writing F_s(W) down raises as solving for it does."""
    d = len(mats[0])
    w_rs = TruncatedModule(Window(()), rs_group(s, TRIV), {(): d},
                           {("grp", j, ()): RationalMatrix(m) for j, m in enumerate(mats)})
    for build in (induced_module, induced_module_by_fixed_space):
        with pytest.raises(ValueError):
            build(s, (1,), w_rs, TRIV, Window((3,)))
