import random
from fractions import Fraction

import pytest

from fimlab.category import GroupTable, Window
from fimlab.linalg import RationalMatrix
from fimlab.modules import (
    MarginError,
    ModuleMap,
    direct_sum,
    external_tensor,
    hom_space,
    make_cofree,
    make_free,
    make_coinduced,
)
from fimlab.functors import ind, make_induced, res, rs_group
from fimlab.homology import EXACT
from fimlab.samples import point_module, truncated_constant
from fimlab.theorems import (
    build_member,
    UMemberDesc,
    _Inconclusive,
    _induced_functor_map,
    cogenerate,
    embed_into_shift,
    end_ring,
    ext1_vanishes,
    find_iso,
    identify_summands,
    is_local_end,
    shift_theorem_search,
)

from oracles import induced_map_by_inclusions

TRIV = GroupTable.trivial()


def test_shift_search_free_is_zero_steps():
    v = make_free((1,), Window((5,)), TRIV)
    out = shift_theorem_search(v, (1,), 3)
    assert out.n == 0 and out.status == EXACT


def test_shift_search_point_module():
    e = point_module(Window((5,)))
    out = shift_theorem_search(e, (1,), 3)
    assert out.n == 1  # the shifted point module is zero, vacuously ok
    assert out.status == EXACT


def test_shift_search_torsion_quotient():
    tc = truncated_constant(Window((5,)), 2)
    out = shift_theorem_search(tc, (1,), 3)
    assert out.n == 2 and out.status == EXACT
    assert out.certificate.verify(__import__("fimlab.functors", fromlist=["shift_prod"]).shift_prod(tc, (1,), 2))
    assert [e["semi_induced"] for e in out.log] == [False, False, True]


def test_shift_search_budget_guard():
    tc = truncated_constant(Window((3,)), 2)
    with pytest.raises(MarginError):
        shift_theorem_search(tc, (1,), 4)


def _record_calls(monkeypatch, name):
    """Record every call of ``fimlab.homology.<name>`` by patching each
    fimlab module that binds it; returns the list of argument tuples."""
    import sys

    import fimlab.homology

    real = getattr(fimlab.homology, name)
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("fimlab") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, recording)
    return calls


def test_shift_search_checks_each_shift_once(monkeypatch):
    """A found certificate is verified, not recomputed on a fresh shift: one
    semi-induced check per n tried."""
    from fimlab.functors import shift_prod

    calls = _record_calls(monkeypatch, "is_S_semi_induced")
    v = truncated_constant(Window((5,)), 2)
    out = shift_theorem_search(v, (1,), 3)
    assert out.n == 2 and len(calls) == 3
    assert out.certificate.verify(shift_prod(v, (1,), out.n))


def test_negative_search_bounds_are_input_errors():
    v = make_free((1,), Window((4,)), TRIV)
    with pytest.raises(ValueError, match="max_n"):
        shift_theorem_search(v, (1,), -1)
    with pytest.raises(ValueError, match="max_shift"):
        cogenerate(v, max_shift=-2)


def test_embed_into_shift_free():
    v = make_free((0,), Window((3,)), TRIV)
    emb = embed_into_shift(v, (1,), 1)
    assert emb.is_injective_objectwise() and emb.is_natural()
    w = make_free((1,), Window((3,)), TRIV)
    emb2 = embed_into_shift(w, (1,), 1)
    assert emb2.is_injective_objectwise()


def test_embed_into_shift_rejects_torsion():
    e = point_module(Window((3,)))
    with pytest.raises(ValueError):
        embed_into_shift(e, (1,), 1)


def test_cogenerate_m1_mixed():
    w = Window((4,))
    v, _ = direct_sum(make_free((0,), w, TRIV), point_module(w))
    wit = cogenerate(v, max_shift=2)
    assert wit.status == EXACT and wit.verify()
    assert len(wit.members) == 2


def test_cogenerate_m2_cases():
    w = Window((3, 3))
    for mod, expect_members in (
        (point_module(w), 1),
        (make_free((1, 1), w, TRIV), 1),
    ):
        wit = cogenerate(mod, max_shift=2)
        assert wit.status == EXACT and wit.verify()
        assert len(wit.members) == expect_members


def test_cogenerate_m2_torsion():
    w = Window((3, 3))
    tc = truncated_constant(w, 2)
    wit = cogenerate(tc, max_shift=2)
    assert wit.status == EXACT and wit.verify()
    # finite-dimensional module lands in co-free members only
    assert all(
        all(kind == "cofree" for kind, _ in m.factors) for m in wit.members
    )


def test_cogenerate_checks_each_peeled_piece_once(monkeypatch):
    """The embedding walks the semi-induced certificate's filtration: one
    induced check per peel step, and none of its own."""
    from fimlab.homology import is_S_semi_induced

    w = Window((4,))
    v, _ = direct_sum(make_free((1,), w, TRIV), make_free((0,), w, TRIV))
    _, cert, _ = is_S_semi_induced(v, (1,))
    calls = _record_calls(monkeypatch, "is_S_induced")
    wit = cogenerate(v)
    assert wit.status == EXACT and wit.verify()
    assert len(calls) == len(cert.steps) == 2


def test_induced_verdicts_build_no_counit(monkeypatch):
    """is_S_induced and is_S_semi_induced decide without the counit map,
    for verdicts of both kinds; reading a verdict's ``iso`` builds it once."""
    from fimlab.homology import is_S_induced, is_S_semi_induced

    calls = _record_calls(monkeypatch, "_counit_map")
    w = Window((4,))
    cases = [(make_induced(((2, 1),), w), (1,)), (point_module(w), (1,)),
             (direct_sum(make_free((1,), w, TRIV), make_free((0,), w, TRIV))[0], (1,)),
             (make_free((1, 0), Window((2, 2)), TRIV), (1, 2))]
    verdicts = []
    for v, S in cases:
        verdicts.append(is_S_induced(v, S))
        verdicts += [step.verdict for step in is_S_semi_induced(v, S)[1].steps]
    assert calls == []
    assert {ver.ok for ver in verdicts} == {True, False} and len(verdicts) == 8
    assert verdicts[0].iso is verdicts[0].iso and verdicts[0].iso.is_iso()
    assert len(calls) == 1


def test_end_ring_scalars():
    er = end_ring(make_free((0,), Window((3,)), TRIV))
    assert er.dim == 1 and er.radical_dim == 0 and er.is_local


def test_end_ring_matrix_algebra():
    w = Window((3,))
    x, _ = direct_sum(make_free((0,), w, TRIV), make_free((0,), w, TRIV))
    er = end_ring(x)
    assert er.dim == 4 and er.radical_dim == 0
    assert not er.is_local
    assert er.idempotent_coords is not None
    # the found idempotent squares to itself
    assert er.multiply(er.idempotent_coords, er.idempotent_coords) == er.idempotent_coords


def test_end_ring_raises_a_failed_invariant(monkeypatch):
    """An invariant failure in the idempotent search propagates; it is not
    read as 'no idempotent here', which would report a local ring."""
    from fimlab import theorems

    def fail(*args):
        raise AssertionError("minimal polynomial search overflow")

    monkeypatch.setattr(theorems, "_min_poly_in_algebra", fail)
    w = Window((3,))
    x, _ = direct_sum(make_free((0,), w, TRIV), make_free((0,), w, TRIV))
    with pytest.raises(AssertionError):
        end_ring(x)


def test_one_parameter_end_rings_build_no_hom_solver(monkeypatch):
    """Where V's generators leave one Yoneda parameter, End(V) = Q id_V is
    answered without the Hom solver: F(1) and three of thm2's tensors are
    local of dim 1 with the solver unavailable, while F(2), one generator
    in a 2-dimensional F(2)(2), still needs it."""
    from fimlab import theorems

    def unavailable(*args):
        raise AssertionError("NaturalitySolver built")

    monkeypatch.setattr(theorems, "NaturalitySolver", unavailable)
    w = Window((3,))
    factor = {"M": make_induced, "E": make_coinduced}
    mods = [make_free((1,), w, TRIV)] + [
        external_tensor(factor[k1]((l1,), w, TRIV), factor[k2]((l2,), w, TRIV))
        for (k1, l1), (k2, l2) in ((("M", (1,)), ("E", (1,))),
                                   (("E", (2,)), ("M", (1, 1))),
                                   (("M", (1, 1)), ("M", (1, 1))))]
    for v in mods:
        er = end_ring(v)
        assert er.dim == 1 and er.is_local and er.radical_dim == 0
        assert is_local_end(v)
    with pytest.raises(AssertionError, match="NaturalitySolver built"):
        end_ring(make_free((2,), w, TRIV))


def test_end_rings_of_the_suites_build_the_cover_only_in_the_solver(monkeypatch):
    """In run_all(0), the 39 one-parameter end rings walk no cover, and the
    two others (dim 3 and 5) build it once, in the Hom solver.  A profile
    hook counts the calls of ``generators_and_cover``'s code under any name."""
    import sys
    from collections import Counter

    from fimlab import modules, theorems
    from fimlab.suites import run_all

    code, ring, calls = modules.generators_and_cover.__code__, theorems.end_ring, []

    def counted(v):
        covers, hook = [], sys.getprofile()
        sys.setprofile(lambda frame, event, arg: event == "call" and frame.f_code is code
                       and covers.append(event))
        try:
            er = ring(v)
        finally:
            sys.setprofile(hook)
        calls.append((er.dim, len(covers)))
        return er

    monkeypatch.setattr(theorems, "end_ring", counted)
    run_all(0)
    assert Counter(calls) == {(1, 0): 39, (3, 1): 1, (5, 1): 1}


def test_end_ring_induced_tensor_coinduced_local():
    w1 = Window((3,))
    a = make_induced(((2,),), w1, TRIV)
    b = make_coinduced(((1, 1),), w1, TRIV)
    t = external_tensor(a, b)
    assert is_local_end(t)


def test_ext1_projective_source_vanishes():
    w = Window((3,))
    p = make_free((1,), w, TRIV)
    for target in (make_free((0,), w, TRIV), point_module(w)):
        rep = ext1_vanishes(p, target)
        assert rep.dim == 0 and rep.vanishes


def test_ext1_point_module_values():
    w = Window((3,))
    e0 = point_module(w)
    rep1 = ext1_vanishes(e0, make_free((0,), w, TRIV))
    assert rep1.dim == 0  # computed by the explicit cover
    rep2 = ext1_vanishes(e0, make_cofree((0,), w, TRIV))
    assert rep2.dim == 0 and rep2.status == EXACT
    rep3 = ext1_vanishes(e0, make_cofree((1,), w, TRIV))
    assert rep3.vanishes and rep3.status == EXACT


def test_ext1_detects_nonvanishing():
    """Hand oracle: an extension of the degree-0 point module by a degree-1
    point module is nonsplit exactly when the connecting map is nonzero, so
    Ext^1(k_0, k_1) is one-dimensional."""
    w = Window((3,))
    from fimlab.modules import close_under_actions, quotient
    from fimlab.linalg import Subspace

    m1 = make_free((1,), w, TRIV)
    spaces = close_under_actions(m1, {(2,): Subspace.full(m1.dims[(2,)])})
    k1, _ = quotient(m1, spaces, rel_objects=[(2,)])  # supported in degree 1
    rep = ext1_vanishes(point_module(w), k1)
    assert rep.dim == 1 and not rep.vanishes


def test_identify_summands_basic():
    w = Window((3,))
    m0 = make_free((0,), w, TRIV)
    e0 = make_cofree((0,), w, TRIV)
    x, _ = direct_sum(m0, e0)
    rep = identify_summands(x, [make_free((0,), w, TRIV), make_cofree((0,), w, TRIV)])
    assert rep.status == EXACT
    assert sorted(m.member_index for m in rep.matches) == [0, 1]


def test_identify_summands_multiplicity():
    w = Window((3,))
    m1 = make_free((1,), w, TRIV)
    x, _ = direct_sum(m1, make_free((1,), w, TRIV))
    rep = identify_summands(x, [make_free((1,), w, TRIV)])
    assert rep.status == EXACT
    assert [m.member_index for m in rep.matches] == [0, 0]


@pytest.mark.parametrize("k", [4, 5, 6])
def test_identify_summands_splits_k_points_in_2k_minus_1_end_rings(monkeypatch, k):
    """A sum of k points at different objects splits into its k points:
    each split cuts a piece into two nonzero ones, so the split tree has k
    leaves and 2k - 1 nodes, one End ring each."""
    from fimlab import theorems
    from oracles import point_sum

    w = Window((3, 3))
    objs = w.objects()[:k]
    rings, real = [], theorems.end_ring
    monkeypatch.setattr(theorems, "end_ring", lambda v: rings.append(v) or real(v))
    rep = identify_summands(point_sum(w, objs), [point_sum(w, [n]) for n in objs])
    assert rep.status == EXACT and len(rep.matches) == k
    assert sorted(m.member_index for m in rep.matches) == list(range(k))
    assert len(rings) == 2 * k - 1


def test_adjunction_dimension_equality():
    w = Window((3,))
    for g in (GroupTable.symmetric(2), GroupTable.cyclic(3)):
        for v_obj, w_obj in (((0,), (0,)), ((1,), (0,)), ((1,), (1,))):
            v = make_free(v_obj, w, TRIV)
            wmod = make_free(w_obj, w, g)
            lhs = len(hom_space(ind(v, g), wmod))
            rhs = len(hom_space(v, res(wmod)))
            assert lhs == rhs


def test_build_member():
    w = Window((2, 2))
    desc = UMemberDesc((("free", 1), ("cofree", 1)), with_group=False)
    mod = build_member(desc, w, TRIV)
    assert mod.dims[(1, 1)] == 1 * 1
    assert mod.validate().ok
    assert "M(1)" in desc.describe() and "E(1)" in desc.describe()


def test_find_iso_rejects_nonisomorphic():
    w = Window((2,))
    assert find_iso(make_free((0,), w, TRIV), make_cofree((0,), w, TRIV)) is None


def test_cogenerate_shift_requiring_layer():
    """A torsion-free layer that only becomes semi-induced after a shift."""
    from fimlab.linalg import Subspace
    from fimlab.modules import submodule_generated

    w = Window((4,))
    m0 = make_free((0,), w, TRIV)
    tail, _ = submodule_generated(m0, {(1,): Subspace.full(1)})
    v, _ = direct_sum(tail, point_module(w))
    wit = cogenerate(v, max_shift=3)
    assert wit.status == EXACT and wit.verify()
    kinds = sorted(m.describe() for m in wit.members)
    assert kinds == ["E(0)", "M(0)"]


def test_cogenerate_with_group_factor():
    from fimlab.functors import ind

    g = GroupTable.symmetric(2)
    w = Window((4,))
    v, _ = direct_sum(make_free((0,), w, g), ind(point_module(w), g))
    wit = cogenerate(v, max_shift=2)
    assert wit.status == EXACT and wit.verify()
    assert all(m.with_group for m in wit.members)


def _ext1_dim_by_restriction(v, i_mod):
    """The construction ext1_vanishes replaced: restrict a basis of Hom(P, I)
    along K -> P and take the rank of the result in Hom(K, I)."""
    from fimlab.homology import free_cover
    from fimlab.linalg import RationalMatrix, rank, solve
    from fimlab.modules import NaturalitySolver

    p, _, k, k_incl = free_cover(v)
    hom_k = NaturalitySolver(k, i_mod).basis()
    if not hom_k:
        return 0
    objs = sorted(v.window.objects())

    def vec(mp):
        return [b[i, j] for b in map(mp.blocks.get, objs)
                for i in range(b.nrows) for j in range(b.ncols)]

    bk = RationalMatrix([vec(b) for b in hom_k]).transpose()
    image = [solve(bk, vec(phi.compose(k_incl)))
             for phi in NaturalitySolver(p, i_mod).basis()]
    assert all(c is not None for c in image)
    return len(hom_k) - (rank(RationalMatrix(image)) if image else 0)


def test_ext1_matches_restriction_construction():
    """Left exactness and Yoneda give the same dimension as restricting an
    explicit Hom(P, I) basis, on the Ext battery's modules and injectives."""
    from fimlab.modules import restrict_window
    from fimlab.samples import random_presented_module

    w1, w2 = Window((3,)), Window((2, 2))
    lams = ((1,), (2,), (1, 1))
    factors = [make_induced((lam,), w1, TRIV) for lam in lams]
    factors += [make_coinduced((lam,), w1, TRIV) for lam in lams]
    injectives = [
        restrict_window(external_tensor(factors[a], factors[b]), w2)
        for a, b in ((0, 0), (1, 5), (3, 0), (3, 1), (4, 0), (5, 5))
    ]
    nonzero = 0
    for seed in range(500, 510):
        v = random_presented_module(w2, seed)
        for i_mod in injectives:
            rep = ext1_vanishes(v, i_mod)
            assert rep.dim == _ext1_dim_by_restriction(v, i_mod), seed
            assert rep.vanishes == (rep.dim == 0)
            nonzero += rep.dim > 0
    assert nonzero >= 4  # 6 of the 60 pairs have nonzero Ext^1


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: on the (2, 2) truncation Ext^1 gives dim 1 "
    "(WINDOW_BOUNDED), the failing thm2 check at seeds 102, 203 and 508"))
def test_ext1_into_an_injective_tensor_vanishes():
    """E(1) x M(1, 1) is injective by the classification, so Ext^1 into it
    vanishes for every module."""
    from fimlab.modules import restrict_window
    from fimlab.samples import random_presented_module

    w3 = Window((3,))
    injective = restrict_window(
        external_tensor(make_coinduced(((1,),), w3), make_induced(((1, 1),), w3)),
        Window((2, 2)))
    assert ext1_vanishes(random_presented_module(Window((2, 2)), 610), injective).vanishes


@pytest.mark.parametrize("group", [TRIV, GroupTable.cyclic(3)], ids=["1", "C3"])
def test_induced_map_is_orbit_blocks_of_an_equivariant_map(group):
    """F_s(f) is f_t on every orbit block, as the fixed-space inclusions
    give it, when f commutes with Aut(s); any other f does not restrict,
    by either route.  W is the regular Aut(2) x G module on (1,)."""
    s, S, window = (2,), (1,), Window((3, 1))
    w = ind(make_free((0,), Window((1,))), rs_group(s, group))
    rnd = random.Random(7)
    swaps = {t: w.actions[("grp", 0, t)] for t in w.window.objects()}
    restricts = []
    for trial in range(6):
        blocks = {}
        for t, d in w.dims.items():
            a, b = (Fraction(rnd.randint(-3, 3), rnd.randint(1, 2)) for _ in range(2))
            blocks[t] = (RationalMatrix.identity(d).scale(a) + swaps[t].scale(b) if trial % 2
                         else RationalMatrix([[rnd.randint(-2, 2) for _ in range(d)]
                                              for _ in range(d)], d, d))
        f = ModuleMap(w, w, blocks)
        ref = induced_map_by_inclusions(s, S, f, group, window)
        restricts.append(ref is not None)
        if ref is None:
            with pytest.raises(_Inconclusive):
                _induced_functor_map(s, S, f, group, window)
        else:
            assert _induced_functor_map(s, S, f, group, window).blocks == ref
    assert restricts == [False, True] * 3
