"""Module builders and map checks on modules that are zero at most objects.

F(n) vanishes below n, E(l) and torsion pieces above their support, and a
shifted module wherever its source did.  Each test compares fimlab's answer
with the reference in ``oracles.py`` that visits every generator and object,
zero values included, and requires equal dims, actions, blocks and
``is_natural`` verdicts.  ``detect_torsion`` is compared with its old
composite-chain route and with the definition, on these modules and on
random presented ones.  The last tests check that the builders,
``is_natural`` and ``detect_torsion`` make no product with an empty operand
on such modules, and that ``detect_torsion`` multiplies into no identity.
"""

import sys
from contextlib import contextmanager
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fimlab.category import GroupTable, Window, add, unit
from fimlab.functors import ind, induced_module, rs_group, shift
from fimlab.homology import detect_torsion
from fimlab.linalg import RationalMatrix, Subspace, image_basis
from fimlab.modules import (
    ModuleMap,
    NaturalitySolver,
    TruncatedModule,
    _images_from_below,
    close_under_actions,
    direct_sum,
    external_tensor,
    make_cofree,
    make_free,
    quotient,
    submodule_from_stable_subspaces,
)
from fimlab.samples import random_presented_module, truncated_constant

from oracles import (
    compose_every_object,
    coordinates_by_product,
    direct_sum_every_generator,
    external_tensor_every_generator,
    images_from_below_every_coordinate,
    ind_every_generator,
    induced_big_actions_every_generator,
    induced_module_by_fixed_space,
    is_natural_every_generator,
    quotient_every_generator,
    shift_every_generator,
    solution_blocks_every_object,
    submodule_every_generator,
    torsion_by_composites,
    torsion_by_definition,
    with_trivial_group_action,
)

TRIV = GroupTable.trivial()
C2 = GroupTable.cyclic(2)
S2 = GroupTable.symmetric(2)
C3 = GroupTable.cyclic(3)
WINDOWS = {1: Window((3,)), 2: Window((2, 2))}
KINDS = ("free", "cofree", "torsion", "shifted")


def _module(kind, m, group, pick, seed, i):
    """One module on ``WINDOWS[m]`` over ``group`` with many zero values;
    ``pick`` chooses an object of the window, ``seed`` a random presented
    module and ``i`` a coordinate."""
    w = WINDOWS[m]
    objs = w.objects()
    n = objs[pick % len(objs)]
    if kind == "free":
        return make_free(n, w, group)
    if kind == "cofree":
        return make_cofree(n, w, group)
    if kind == "torsion":
        v, _ = direct_sum(random_presented_module(w, seed, group),
                          make_cofree(n, w, group))
        return submodule_from_stable_subspaces(v, detect_torsion(v, (i,)).spaces)[0]
    big = Window(add(w.bound, unit(m, i)))
    base = (make_free, make_cofree)[seed % 2](n, big, group)
    return shift(base, i)


@st.composite
def zero_heavy_modules(draw, m=None, group=None, count=1):
    """``count`` modules on one window and group."""
    m = m or draw(st.sampled_from((1, 2)))
    group = group or draw(st.sampled_from((TRIV, C2)))
    return [_module(draw(st.sampled_from(KINDS)), m, group,
                    draw(st.integers(0, 24)), draw(st.integers(0, 9)),
                    draw(st.integers(1, m)))
            for _ in range(count)]


def _stable_family(v, rnd):
    """The action-closure of random seed vectors at up to two objects."""
    seeds = {}
    for n in rnd.sample(v.window.objects(), 2):
        if v.dims[n]:
            vec = [rnd.randint(-2, 2) for _ in range(v.dims[n])]
            seeds[n] = Subspace.from_spanning(v.dims[n], [vec])
    return close_under_actions(v, seeds)


@st.composite
def torsion_cases(draw):
    """A zero-heavy module, or a random presented one on (3,), (2,2) or
    (2,2,1), over 1, S2 or C3.  A co-free summand on the random one makes
    T(n + o_i) neither 0 nor all of V(n + o_i) at some objects."""
    group = draw(st.sampled_from((TRIV, S2, C3)))
    if draw(st.booleans()):
        return draw(zero_heavy_modules(group=group))[0]
    window = Window(draw(st.sampled_from(((3,), (2, 2), (2, 2, 1)))))
    v = random_presented_module(window, draw(st.integers(0, 499)), group)
    if draw(st.booleans()):
        top = draw(st.sampled_from(window.objects()))
        v, _ = direct_sum(v, make_cofree(top, window, group))
    return v


@settings(max_examples=100, deadline=None)
@given(torsion_cases())
def test_detect_torsion_matches_the_composites_and_the_definition(v):
    """For every nonempty S, each T(n) is the kernel of the composite
    inclusion to the top of the window, closed under the action (the old
    route), and the union of the kernels of every window morphism out of n
    that raises only S-coordinates."""
    for k in range(1, v.m + 1):
        for S in combinations(range(1, v.m + 1), k):
            spaces = detect_torsion(v, S).spaces
            assert spaces == torsion_by_composites(v, S)
            assert spaces == torsion_by_definition(v, S)


@settings(max_examples=40, deadline=None)
@given(zero_heavy_modules(), st.randoms(use_true_random=False))
def test_quotient_submodule_and_their_maps_match_every_generator(mods, rnd):
    (v,) = mods
    spaces = _stable_family(v, rnd)
    q, proj = quotient(v, spaces)
    dims, actions, projs = quotient_every_generator(v, spaces)
    assert (q.dims, q.actions, proj.blocks) == (dims, actions, projs)
    sub, incl = submodule_from_stable_subspaces(v, spaces)
    dims, actions, blocks = submodule_every_generator(v, spaces)
    assert (sub.dims, sub.actions, incl.blocks) == (dims, actions, blocks)
    both = proj.compose(incl)
    assert both.blocks == compose_every_object(proj, incl)
    for mp in (proj, incl, both, ModuleMap.identity(v)):
        assert mp.is_natural() and is_natural_every_generator(mp)


@pytest.mark.parametrize("v", [
    make_free((1,), Window((2,))),
    make_cofree((2,), Window((3,))),
    make_free((1, 0), Window((2, 1)), C2),
    shift(make_cofree((1, 2), Window((2, 2)), C2), 2),
], ids=["F(1)", "E(2)", "F(1,0)-C2", "shifted-E(1,2)-C2"])
def test_zero_ends_inside_nonzero_values_are_still_checked(v):
    # the family is all of V at the source of a nonzero incl and zero at its
    # target: the submodule is zero at a target where V is not, and the
    # quotient zero at a source where V is not, so both must refuse it
    key = next(key for key, mat in v.actions.items()
               if key[0] == "incl" and not mat.is_zero())
    src = key[-1]
    spaces = {n: Subspace.full(d) if n == src else Subspace.zero(d)
              for n, d in v.dims.items()}
    with pytest.raises(ValueError, match="not action-stable"):
        submodule_from_stable_subspaces(v, spaces)
    with pytest.raises(ValueError, match="not action-stable"):
        quotient(v, spaces)


@settings(max_examples=40, deadline=None)
@given(zero_heavy_modules(count=2), st.randoms(use_true_random=False))
def test_is_natural_matches_every_generator_on_arbitrary_blocks(mods, rnd):
    v, w = mods

    def block(n):
        return RationalMatrix([[rnd.randint(-1, 1) for _ in range(v.dims[n])]
                               for _ in range(w.dims[n])], w.dims[n], v.dims[n])

    for mp in (ModuleMap.zero(v, w),
               ModuleMap(v, w, {n: block(n) for n in v.window.objects()})):
        assert mp.is_natural() == is_natural_every_generator(mp)


@settings(max_examples=30, deadline=None)
@given(zero_heavy_modules(count=2))
def test_shift_and_hom_basis_match_every_generator(mods):
    v, w = mods
    for i in range(1, v.m + 1):
        out = shift(v, i)
        assert (out.dims, out.actions) == shift_every_generator(v, i)
    solver = NaturalitySolver(v, w)
    assert [mp.blocks for mp in solver.basis()] == solution_blocks_every_object(solver)


@settings(max_examples=40, deadline=None)
@given(zero_heavy_modules(count=3))
def test_direct_sum_matches_every_generator(mods):
    total, incls = direct_sum(*mods)
    dims, actions, blocks = direct_sum_every_generator(*mods)
    assert (total.dims, total.actions) == (dims, actions)
    assert [mp.blocks for mp in incls] == blocks
    assert all(mp.is_natural() for mp in incls)


@settings(max_examples=25, deadline=None)
@given(zero_heavy_modules(), zero_heavy_modules(m=1, group=TRIV))
def test_external_tensor_matches_every_generator(left, right):
    (v,), (w,) = left, right
    for a, b in ((v, w), (w, v)):
        out = external_tensor(a, b)
        assert (out.dims, out.actions) == external_tensor_every_generator(a, b)


@settings(max_examples=25, deadline=None)
@given(zero_heavy_modules(group=TRIV), st.sampled_from((C2, GroupTable.symmetric(3))))
def test_ind_matches_every_generator(mods, group):
    (v,) = mods
    out = ind(v, group)
    assert (out.dims, out.actions) == ind_every_generator(v, group)


@settings(max_examples=15, deadline=None)
@given(zero_heavy_modules(m=1, group=TRIV), st.sampled_from(((1,), (2,))),
       st.sampled_from((TRIV, C2)))
def test_induced_module_matches_every_generator(mods, s, group):
    (v,) = mods
    w_rs = with_trivial_group_action(v, rs_group(s, group))
    window = Window((2,) + v.window.bound)
    mod = induced_module(s, (1,), w_rs, group, window)
    incl = induced_module_by_fixed_space(s, (1,), w_rs, group, window)[1].blocks
    big = TruncatedModule(window, group, {n: b.nrows for n, b in incl.items()},
                          induced_big_actions_every_generator(s, (1,), w_rs, group, window))
    spaces = {n: image_basis(b) for n, b in incl.items()}
    assert (mod.dims, mod.actions, incl) == submodule_every_generator(big, spaces)


@settings(max_examples=40, deadline=None)
@given(zero_heavy_modules(), st.randoms(use_true_random=False))
def test_images_from_below_match_every_coordinate(mods, rnd):
    (v,) = mods
    full = tuple(range(1, v.m + 1))
    spaces = _stable_family(v, rnd)
    for n in v.window.objects():
        for S in {full, (rnd.randint(1, v.m),)}:
            for below in (None, spaces):
                assert (_images_from_below(v, S, n, below)
                        == images_from_below_every_coordinate(v, S, n, below))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.booleans(), st.randoms(use_true_random=False))
def test_coordinates_match_the_product_check(d, k, cols, inside, rnd):
    def rows(r, c):
        return [[rnd.randint(-2, 2) for _ in range(c)] for _ in range(r)]

    space = Subspace.from_spanning(d, rows(min(k, d), d))
    for s in (space, Subspace.zero(d), Subspace.full(d)):
        mat = RationalMatrix(rows(d, cols), d, cols)
        if inside:
            mat = s.basis.transpose() * RationalMatrix(rows(s.dim, cols), s.dim, cols)
        assert s.coordinates(mat) == coordinates_by_product(s, mat)


@contextmanager
def _products(keep):
    """The operand shapes of every product made inside the block for which
    ``keep(a, b, caller)`` holds, ``caller`` naming the function that
    multiplies."""
    seen = []
    mul = RationalMatrix.__mul__

    def recording(a, b):
        if keep(a, b, sys._getframe(1).f_code.co_name):
            seen.append((a.shape, b.shape))
        return mul(a, b)

    RationalMatrix.__mul__ = recording
    try:
        yield seen
    finally:
        RationalMatrix.__mul__ = mul


def _empty_products():
    """Every product with an empty operand."""
    return _products(lambda a, b, _: not (a.nrows and a.ncols and b.ncols))


def _identity_products(caller: str):
    """Every product with an identity right operand that the function
    named ``caller`` itself makes."""
    return _products(lambda a, b, name: name == caller and b.nrows == b.ncols
                     and b == RationalMatrix.identity(b.nrows))


@settings(max_examples=40, deadline=None)
@given(zero_heavy_modules(count=2), zero_heavy_modules(m=1, group=TRIV),
       st.randoms(use_true_random=False))
def test_builders_and_checks_make_no_empty_product(mods, right, rnd):
    v, w = mods
    spaces = _stable_family(v, rnd)
    with _empty_products() as seen:
        _, proj = quotient(v, spaces)
        _, incl = submodule_from_stable_subspaces(v, spaces)
        _, incls = direct_sum(v, w)
        external_tensor(v, right[0])
        assert all(mp.is_natural() for mp in (proj, incl, ModuleMap.zero(v, w), *incls))
    assert seen == []


@pytest.mark.parametrize("bound,S", [((5,), (1,)), ((3, 3), (1,)), ((3, 3), (1, 2))])
def test_detect_torsion_stops_at_the_first_zero_value(bound, S):
    """Walking down from the top of the window, V is zero above degree 1,
    so T(n + o_i) is all of V(n + o_i) and all of V(n) is torsion with no
    kernel taken: no product with an empty operand is made, and none with
    an identity."""
    v = truncated_constant(Window(bound), 2)
    with _empty_products() as seen, _identity_products("detect_torsion") as identities:
        tv = detect_torsion(v, S)
    assert seen == []
    assert identities == []
    assert tv.spaces == {n: Subspace.full(d) for n, d in v.dims.items()}
