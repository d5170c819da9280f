from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fimlab import homology
from fimlab.category import GroupTable, Window
from fimlab.linalg import RationalMatrix, Subspace, rank
from fimlab.modules import (
    close_under_actions,
    direct_sum,
    external_tensor,
    make_cofree,
    make_coinduced,
    make_free,
    NaturalitySolver,
    Presentation,
    TruncatedModule,
    quotient,
    submodule_from_stable_subspaces,
    zero_module,
)
from fimlab.functors import (
    derivative_sum,
    ind,
    kernel_sum,
    make_induced,
    shift,
    shift_prod,
)
from fimlab.homology import (
    EXACT,
    INCONCLUSIVE,
    WINDOW_BOUNDED,
    detect_torsion,
    free_cover,
    h0,
    h1,
    is_S_induced,
    is_S_semi_induced,
    slice_module,
    subquotient,
    tor_filtration,
)
from fimlab.samples import (
    point_module,
    random_presented_module,
    truncated_constant,
)

from oracles import counit_blocks_by_evaluate, enumerate_injections, evaluate

TRIV = GroupTable.trivial()


def test_slice_of_constant_module():
    v = make_free((0, 0), Window((2, 2)), TRIV)
    sl = slice_module(v, (0,), (1,))
    assert all(sl.dims[t] == 1 for t in sl.window.objects())
    assert sl.validate().ok


def test_slice_of_free_m2():
    v = make_free((1, 0), Window((2, 2)), TRIV)
    sl = slice_module(v, (1,), (1,))
    assert {t: sl.dims[t] for t in sl.window.objects()} == {(0,): 1, (1,): 1, (2,): 1}


def test_slice_zero_column():
    v = make_free((1, 1), Window((2, 2)), TRIV)
    sl = slice_module(v, (0,), (1,))
    assert sl.is_zero()


def test_detect_torsion_free_modules():
    for n in ((0,), (1,), (2,)):
        v = make_free(n, Window((3,)), TRIV)
        tv = detect_torsion(v, (1,))
        assert tv.is_zero() and tv.status == EXACT


def test_detect_torsion_point_module():
    e = point_module(Window((2,)))
    tv = detect_torsion(e, (1,))
    assert tv.dims()[(0,)] == 1 and tv.status == EXACT


def test_detect_torsion_equivalence_with_kernel():
    """Lemma-style equivalence: no torsion detected iff K_S vanishes."""
    for seed in range(20):
        v = random_presented_module(Window((3,)), seed)
        tv = detect_torsion(v, (1,))
        ks = kernel_sum(v, (1,))
        assert tv.is_zero() == ks.is_zero(), f"seed {seed}"


@st.composite
def torsion_modules(draw):
    """A module of a kind the golden torsion documents pin (random
    presented, truncated constant, point, co-free), or, on two coordinates
    or more, M(lambda) on the first (x) E((1,), ...) on the rest; on (3,),
    (3,3) or (2,2,1), over 1, S2 or C3."""
    group = draw(st.sampled_from((TRIV, GroupTable.symmetric(2), GroupTable.cyclic(3))))
    bound = draw(st.sampled_from(((3,), (3, 3), (2, 2, 1))))
    w = Window(bound)
    kinds = ("random", "constant", "point", "cofree") + (("tensor",) if w.m > 1 else ())
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        return random_presented_module(w, draw(st.integers(0, 99)), group)
    if kind == "constant":
        return truncated_constant(w, draw(st.integers(0, sum(bound))), group)
    if kind == "point":
        return point_module(w, group)
    if kind == "cofree":
        return make_cofree(draw(st.sampled_from(w.objects())), w, group)
    lam = draw(st.sampled_from(((1,), (2,), (1, 1))))
    return external_tensor(make_induced((lam,), Window(bound[:1]), group),
                           make_coinduced(((1,),) * (w.m - 1), Window(bound[1:])))


@settings(max_examples=100, deadline=None)
@given(torsion_modules())
def test_torsion_stable_is_submodule(v):
    """For every nonempty S the torsion spaces are action-stable: the
    submodule they span builds, validates, and its inclusion is natural."""
    for k in range(1, v.m + 1):
        for S in combinations(range(1, v.m + 1), k):
            mod, incl = submodule_from_stable_subspaces(v, detect_torsion(v, S).spaces)
            assert mod.validate().ok and incl.is_natural()


def test_torsion_free_preserved_by_shift():
    for seed in (3, 7, 11):
        v = random_presented_module(Window((4,)), seed)
        tv = detect_torsion(v, (1,))
        if tv.is_zero():
            sv = shift(v, 1)
            assert detect_torsion(sv, (1,)).is_zero()


def test_torsion_free_closed_under_sums():
    a = make_free((1,), Window((3,)), TRIV)
    b = make_free((0,), Window((3,)), TRIV)
    s, _ = direct_sum(a, b)
    assert detect_torsion(s, (1,)).is_zero()


def test_tor_filtration_free_is_zero():
    v = make_free((1, 0), Window((2, 2)), TRIV)
    terms, verdicts, status = tor_filtration(v)
    assert all(all(s.dim == 0 for s in t.values()) for t in terms)
    assert status == EXACT


def test_tor_filtration_point_m2():
    e = point_module(Window((2, 2)))
    terms, _, status = tor_filtration(e)
    for t in terms:
        assert t[(0, 0)].dim == 1
    assert status == EXACT


def test_tor_filtration_mixed_summand():
    w = Window((3,))
    v, _ = direct_sum(make_free((0,), w, TRIV), point_module(w))
    terms, _, _ = tor_filtration(v)
    assert terms[0][(0,)].dim == 1
    assert all(terms[0][(t,)].dim == 0 for t in range(1, 4))


def test_tor_filtration_quotients_torsion_free():
    w = Window((2, 2))
    v, _ = direct_sum(make_free((1, 0), w, TRIV), point_module(w))
    terms, verdicts, _ = tor_filtration(v)
    full = {n: Subspace.full(v.dims[n]) for n in w.objects()}
    q1 = subquotient(v, full, terms[0])
    assert detect_torsion(q1, (1,)).is_zero()
    q2 = subquotient(v, terms[0], terms[1])
    assert detect_torsion(q2, (2,)).is_zero()


def test_h0_free_single_slice():
    for n, S in (((2,), (1,)), ((1, 1), (1,)), ((1, 1), (1, 2))):
        bound = (3,) if len(n) == 1 else (2, 2)
        v = make_free(n, Window(bound), TRIV)
        rep = h0(v, S)
        assert len(rep.h0_slices) == 1
        s = next(iter(rep.h0_slices))
        expected_s = tuple(n[i - 1] for i in S)
        assert s == expected_s
        assert rep.t0 == sum(expected_s)
        assert rep.status_t0 == EXACT


def test_h0_point_module_is_itself():
    e = point_module(Window((2,)))
    rep = h0(e, (1,))
    assert rep.t0 == 0
    assert rep.h0_module.dims[(0,)] == 1


def test_h0_additive():
    w = Window((2,))
    a = make_free((1,), w, TRIV)
    b = point_module(w)
    s, _ = direct_sum(a, b)
    ra, rb, rs = h0(a, (1,)), h0(b, (1,)), h0(s, (1,))
    for n in w.objects():
        assert rs.h0_module.dims[n] == ra.h0_module.dims[n] + rb.h0_module.dims[n]


def test_free_cover_of_free_is_identity_like():
    w = Window((2, 2))
    two, _ = direct_sum(make_free((1, 0), w, TRIV), make_free((0, 2), w, TRIV))
    for v, slots, rel in ((make_free((1,), Window((3,)), TRIV), [(1,)], (1,)),
                          (two, [(1, 0), (0, 2)], (1, 2))):
        p, pi, k, _ = free_cover(v)
        assert p.dims == v.dims
        assert k.is_zero()
        assert all(rank(b) == pi.target.dims[n] for n, b in pi.blocks.items())
        assert pi.is_injective_objectwise()
        # free: no relations beyond the generators' own degrees
        assert p.presentation == Presentation.make([(n, None) for n in slots], rel)


def test_a_cover_that_misses_a_generator_raises(monkeypatch):
    """With the last generator's columns zeroed where its walk appends
    them, pi is no longer onto at that generator's object, and both the
    free cover and the Hom solver refuse it."""
    from fimlab import modules
    from fimlab.modules import NaturalitySolver, generators_and_cover

    v = random_presented_module(Window((3,)), 0)
    n_last = generators_and_cover(v)[0][-1][0]
    real = modules._walk_generator

    def dropping(v, n, lifts, cols):
        if n == n_last:
            lifts = lifts[:-1] + [(0,) * len(lifts[-1])]
        real(v, n, lifts, cols)

    monkeypatch.setattr(modules, "_walk_generator", dropping)
    with pytest.raises(AssertionError):
        free_cover(v)
    with pytest.raises(AssertionError):
        NaturalitySolver(v, v)


def test_each_cover_block_is_eliminated_once(monkeypatch):
    """The Hom solver reads ker pi_x off its section, and the free cover
    reads that pi is onto off the kernel it computes, so neither takes a
    second elimination of a cover block."""
    from fimlab import modules
    from fimlab.modules import NaturalitySolver

    def forbidden(*args):
        raise AssertionError("a cover block eliminated twice")

    v = random_presented_module(Window((3,)), 0)
    with monkeypatch.context() as patch:
        patch.setattr(modules, "kernel_basis", forbidden)
        NaturalitySolver(v, v)
    with monkeypatch.context() as patch:
        patch.setattr(modules, "rank", forbidden)
        free_cover(v)


def test_free_cover_point_module_kernel():
    e = point_module(Window((3,)))
    p, pi, k, _ = free_cover(e)
    assert [p.dims[(t,)] for t in range(4)] == [1, 1, 1, 1]  # M(0)
    assert [k.dims[(t,)] for t in range(4)] == [0, 1, 1, 1]
    assert all(rank(b) == pi.target.dims[n] for n, b in pi.blocks.items())


def test_free_cover_induced():
    v = make_induced(((1, 1),), Window((3,)), TRIV)
    p, pi, k, _ = free_cover(v)
    # one generator in degree 2, so the cover is a single copy of M(2)
    assert p.dims[(2,)] == 2 and p.dims[(3,)] == 6
    assert v.dims[(2,)] == 1
    assert all(rank(b) == pi.target.dims[n] for n, b in pi.blocks.items())


def test_h1_free_vanishes():
    for n in ((0,), (1,), (2,)):
        v = make_free(n, Window((3,)), TRIV)
        rep = h1(v, (1,))
        assert rep.t1 == -1 and rep.h1_is_zero()
        assert rep.status_t1 == EXACT


def test_h1_induced_vanishes():
    v = make_induced(((2,),), Window((3,)), TRIV)
    rep = h1(v, (1,))
    assert rep.h1_is_zero() and rep.status_t1 == EXACT


def test_h1_point_module():
    e = point_module(Window((2,)))
    rep = h1(e, (1,))
    assert not rep.h1_is_zero()
    assert rep.t1 == 1
    assert rep.h1_dims[(1,)] == 1


def test_h1_additive():
    w = Window((2,))
    a = make_free((0,), w, TRIV)
    b = point_module(w)
    s, _ = direct_sum(a, b)
    ra, rb, rs = h1(a, (1,)), h1(b, (1,)), h1(s, (1,))
    for n in w.objects():
        assert rs.h1_dims[n] == ra.h1_dims[n] + rb.h1_dims[n]


def test_h1_independent_of_cover():
    """A padded (non-minimal) cover gives the same H1 dimensions."""
    from fimlab.linalg import RationalMatrix, kernel_basis
    from fimlab.modules import (
        ModuleMap,
        Presentation,
        submodule_from_stable_subspaces,
    )

    e = point_module(Window((3,)))
    rep_min = h1(e, (1,))
    p, pi, k, kincl = free_cover(e)
    extra = make_free((1,), Window((3,)), TRIV)
    p2, _ = direct_sum(p, extra)
    blocks = {}
    for n in p2.window.objects():
        z = RationalMatrix.zeros(e.dims[n], extra.dims[n])
        blocks[n] = pi.blocks[n].hstack(z)
    pi2 = ModuleMap(p2, e, blocks)
    ker_spaces = {n: kernel_basis(b) for n, b in pi2.blocks.items()}
    k2, k2incl = submodule_from_stable_subspaces(
        p2, ker_spaces, Presentation.make([((1,), None)], None)
    )
    rep_pad = h1(e, (1,), cover=(p2, pi2, k2, k2incl))
    assert rep_pad.h1_dims == rep_min.h1_dims


def test_h1_rejects_another_modules_cover():
    """A cover of another module is refused rather than counted: counted
    against it, H_1 of the free F(1) would read -1, 1, 1 at 0, 1, 2.  V's
    own cover is taken for V and for an equal copy of V."""
    window = Window((4,))
    v = make_free((1,), window)
    with pytest.raises(ValueError, match="cover"):
        h1(v, (1,), free_cover(random_presented_module(window, 3)))
    cover = free_cover(v)
    for u in (v, TruncatedModule.from_dict(v.to_dict())):
        assert set(h1(u, (1,), cover).h1_dims.values()) == {0}


def test_is_S_induced_round_trip():
    for lam in (((2,),), ((1, 1),)):
        v = make_induced(lam, Window((3,)), TRIV)
        ver = is_S_induced(v, (1,))
        assert ver.ok and ver.iso.is_iso()
    v = make_free((1, 1), Window((2, 2)), TRIV)
    for S in ((1,), (2,), (1, 2)):
        assert is_S_induced(v, S).ok


_COUNIT_GROUPS = {"1": TRIV, "S2": GroupTable.symmetric(2), "C3": GroupTable.cyclic(3)}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(4,), (2, 2), (3, 2)]), st.sampled_from(sorted(_COUNIT_GROUPS)),
       st.booleans(), st.integers(0, 300), st.integers(0, 2), st.integers(0, 11))
@example((3, 2), "S2", False, 0, 0, 4)
@example((2, 2), "1", False, 1, 2, 4)
def test_counit_matches_evaluating_every_injection(bound, group, constant, seed,
                                                   s_choice, s_index):
    """The counit F_s(V[[s]]) -> V read off the orbit walks of V's S-part
    equals the one that factors every V(beta x id_t) into generators, for
    proper and full S and any s, on modules with and without zero values."""
    window, g = Window(bound), _COUNIT_GROUPS[group]
    v = (truncated_constant(window, 1 + seed % sum(bound), g) if constant
         else random_presented_module(window, seed, g))
    subsets = [S for r in range(1, window.m + 1)
               for S in combinations(range(1, window.m + 1), r)]
    S = subsets[s_choice % len(subsets)]
    s_parts = Window(tuple(bound[i - 1] for i in S)).objects()
    s = s_parts[s_index % len(s_parts)]
    witness = slice_module(v, s, S)
    counit = homology._counit_map(v, s, S, witness)
    assert counit.blocks == counit_blocks_by_evaluate(v, s, S, witness)
    assert counit.is_natural()


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(((4,), (3, 3), (2, 2, 2))), st.integers(0, 299),
       st.sampled_from(sorted(_COUNIT_GROUPS)), st.integers(0, 1),
       st.sampled_from(((1,), (2,), (1, 1))))
def test_induced_by_count_matches_the_counit(bound, seed, group, n, lam):
    """Counting dimensions gives the verdict, slice and status that building
    the counit and testing it for an isomorphism gave, and the witness and
    counit built on first read are the ones built outright; on shifted
    random modules, points, M(lambda), E(lambda) and sums, along every S."""
    from oracles import is_S_induced_by_counit

    window, g = Window(bound), _COUNIT_GROUPS[group]
    lams = tuple(lam if i == seed % window.m else () for i in range(window.m))
    v = random_presented_module(window, seed, g)
    m_lam, e_lam = make_induced(lams, window, g), make_coinduced(lams, window, g)
    fixed = [point_module(window, g), m_lam, e_lam, direct_sum(m_lam, m_lam)[0],
             direct_sum(m_lam, make_free(tuple([1] * window.m), window, g))[0]]
    seen = set()
    for S in _subsets(window.m):
        shifted = shift_prod(v, S, n)
        for u in [shifted, direct_sum(shifted, shift_prod(e_lam, S, n))[0], *fixed]:
            got, want = is_S_induced(u, S), is_S_induced_by_counit(u, S)
            assert (got.ok, got.s, got.status) == (want.ok, want.s, want.status)
            assert (got.iso is None) == (want.iso is None)
            assert got.iso is None or got.iso.blocks == want.iso.blocks
            assert (got.witness is None
                    or got.witness.to_json() == want.witness.to_json())
            seen.add(got.ok)
    assert seen == {True, False}


def test_point_module_not_induced_or_semi():
    e = point_module(Window((2,)))
    assert not is_S_induced(e, (1,)).ok
    ok, cert, rep = is_S_semi_induced(e, (1,))
    assert not ok


def test_semi_induced_free_and_certificate():
    v = make_free((1,), Window((3,)), TRIV)
    ok, cert, rep = is_S_semi_induced(v, (1,))
    assert ok and cert.verify(v)
    s, _ = direct_sum(v, make_free((0,), Window((3,)), TRIV))
    ok2, cert2, _ = is_S_semi_induced(s, (1,))
    assert ok2 and cert2.verify(s)
    assert len(cert2.steps) == 2


def test_semi_induced_certificate_steps_nest():
    """Each peel step works on the previous step's rest, down to zero."""
    cases = [
        (direct_sum(make_free((1,), Window((4,)), TRIV),
                    make_free((0,), Window((4,)), TRIV))[0], (1,)),
        (make_induced(((2,), (1,)), Window((3, 2)), TRIV), (1,)),
        (direct_sum(make_free((1, 0), Window((3, 3)), TRIV),
                    make_free((0, 1), Window((3, 3)), TRIV))[0], (1, 2)),
    ]
    for v, S in cases:
        ok, cert, rep = is_S_semi_induced(v, S)
        assert ok and rep.status_t1 != INCONCLUSIVE and cert.verify(v)
        assert cert.steps and cert.steps[0].module is v
        for step, nxt in zip(cert.steps, cert.steps[1:]):
            assert step.rest is nxt.module
        assert cert.steps[-1].rest.is_zero()
        for step in cert.steps:
            assert step.rest_incl.source is step.rest
            assert all(step.rest.dims[n] == step.rest_spaces[n].dim
                       for n in v.window.objects())
            assert step.rest_incl.target is step.module
            assert step.piece_proj.source is step.module
            assert step.verdict.ok and step.verdict.s == step.s
            assert all(step.rest.dims[n] + step.piece.dims[n] == step.module.dims[n]
                       for n in v.window.objects())


_GROUPS = (TRIV, GroupTable.symmetric(2), GroupTable.cyclic(3))


def _subsets(m):
    return [S for r in range(1, m + 1) for S in combinations(range(1, m + 1), r)]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(((4,), (3, 3), (2, 2, 2))), st.integers(0, 299),
       st.sampled_from(_GROUPS), st.integers(0, 1))
def test_semi_induced_peel_matches_the_h0_recount(bound, seed, group, n):
    """Peeling each H0 slice of V once, in the order H0 gives, takes the
    steps that recounting H0 of every rest took: the same slice, rest and
    piece at every step, the same verdicts and the same status."""
    from oracles import semi_induced_by_recount

    for S in _subsets(len(bound)):
        v = shift_prod(random_presented_module(Window(bound), seed, group), S, n)
        ok, cert, rep = is_S_semi_induced(v, S)
        ok_ref, ref, ref_status, _ = semi_induced_by_recount(v, S)
        assert (ok, rep.status_t1, len(cert.steps)) == (ok_ref, ref_status, len(ref.steps))
        for step, want in zip(cert.steps, ref.steps):
            assert step.s == want.s and step.verdict.ok == want.verdict.ok
            assert step.rest.dims == want.rest.dims
            assert step.piece.dims == want.piece.dims


@pytest.mark.parametrize("bound,seed,group", [
    ((4,), 3, TRIV), ((3, 3), 5, TRIV), ((3, 3), 11, GroupTable.symmetric(2)),
    ((2, 2, 2), 7, GroupTable.cyclic(3)),
])
def test_rest_of_a_peel_has_h0_on_the_other_slices(bound, seed, group):
    """The lemma behind the peel: the submodule that V generates at all its
    H0 slices but one has H0 on exactly those slices."""
    v, _ = direct_sum(random_presented_module(Window(bound), seed, group),
                      make_free(tuple([1] * len(bound)), Window(bound), group))
    peeled = 0
    for S in _subsets(v.m):
        slices = h0(v, S).slice_keys
        for s in slices:
            others = tuple(t for t in slices if t != s)
            step = homology._peel(v, S, s, others)
            assert h0(step.rest, S).slice_keys == others
            peeled += len(others) > 0
    assert peeled


def test_semi_induced_peel_counts_no_h0_of_a_rest(monkeypatch):
    """The peel reads each rest's slices off V's H0: ``h0`` never runs on a
    rest."""
    w = Window((4,))
    v, _ = direct_sum(make_free((2,), w, TRIV), make_free((1,), w, TRIV),
                      make_free((0,), w, TRIV))
    seen = []
    real = homology.h0
    monkeypatch.setattr(homology, "h0", lambda mod, S: seen.append(mod) or real(mod, S))
    ok, cert, rep = is_S_semi_induced(v, (1,))
    assert ok and rep.status_t1 == EXACT and len(cert.steps) == 3
    assert seen and not any(mod is step.rest for mod in seen for step in cert.steps)


def test_semi_induced_certificate_verifies_only_its_module():
    """A certificate checks the module it peels, not only the dims: the one
    for F(1) + F(0) refuses F(1) + Q (Q at every object, every inclusion 0),
    which has the same dims and is not semi-induced; a certificate with its
    last step cut off, or with no steps, refuses a nonzero module."""
    from oracles import point_sum

    w = Window((4,))
    v, _ = direct_sum(make_free((1,), w, TRIV), make_free((0,), w, TRIV))
    u, _ = direct_sum(make_free((1,), w, TRIV), point_sum(w, w.objects()))
    ok, cert, _ = is_S_semi_induced(v, (1,))
    assert ok and cert.verify(v) and u.dims == v.dims
    assert not is_S_semi_induced(u, (1,))[0]
    assert not cert.verify(u)
    assert not homology.SemiInducedCertificate(cert.steps[:1]).verify(v)
    assert not homology.SemiInducedCertificate([]).verify(v)
    assert homology.SemiInducedCertificate([]).verify(zero_module(w, TRIV))


def test_h0_of_a_module_with_no_coordinates_is_the_module():
    """Over FI^0 there is no positive degree, so I_S V = 0 and H0 along the
    empty subset is V; only m = 0 takes the empty subset."""
    for group in _GROUPS:
        v = make_free((), Window(()), group)
        rep = h0(v, ())
        assert rep.h0_dims == v.dims and rep.slice_keys == ((),)
    with pytest.raises(ValueError, match="nonempty"):
        h0(make_free((0,), Window((2,)), TRIV), ())


def test_shift_of_semi_induced_is_semi_induced():
    v = make_free((1,), Window((4,)), TRIV)
    sv = shift(v, 1)
    ok, cert, _ = is_S_semi_induced(sv, (1,))
    assert ok and cert.verify(sv)


def test_degree_drop_lemma():
    """t0 of the derivative sum is one less than t0."""
    w = Window((4,))
    cases = [
        make_free((1,), w, TRIV),
        make_free((2,), w, TRIV),
        make_induced(((2,),), w, TRIV),
        point_module(w),
    ]
    for v in cases:
        rep = h0(v, (1,))
        dv = derivative_sum(v, (1,))
        repd = h0(dv, (1,))
        assert repd.t0 == rep.t0 - 1, v.name


def test_degree_inequalities_on_ses():
    """t0(V) <= max(t0(K), t0(V'')), t1(V'') <= max(t1(P), t0(K))."""
    for seed in range(6):
        w = Window((3,))
        v = random_presented_module(w, seed)
        p, pi, k, _ = free_cover(v)
        t0_p = h0(p, (1,)).t0
        t0_k = h0(k, (1,)).t0
        rep_v = h1(v, (1,))
        assert t0_p <= max(t0_k, rep_v.t0) or t0_k == -1
        assert rep_v.t1 <= t0_k or rep_v.t1 == -1


def test_window_bounded_status_without_presentation():
    v = make_free((1,), Window((3,)), TRIV)
    stripped_actions = dict(v.actions)
    from fimlab.modules import TruncatedModule
    bare = TruncatedModule(v.window, v.group, v.dims, stripped_actions, None)
    assert h0(bare, (1,)).status_t0 == WINDOW_BOUNDED
    assert detect_torsion(bare, (1,)).status == WINDOW_BOUNDED


def test_semi_induced_implies_torsion_free():
    for v in (
        make_free((1,), Window((3,)), TRIV),
        make_induced(((2,),), Window((3,)), TRIV),
    ):
        ok, cert, _ = is_S_semi_induced(v, (1,))
        assert ok
        assert detect_torsion(v, (1,)).is_zero()


def test_derivative_of_semi_induced_is_semi_induced():
    """Closure property: the derivative of a semi-induced module stays one."""
    from fimlab.functors import derivative

    for v in (
        make_free((1,), Window((4,)), TRIV),
        make_free((2,), Window((4,)), TRIV),
    ):
        dv = derivative(v, 1)
        ok, cert, rep = is_S_semi_induced(dv, (1,))
        assert ok and cert.verify(dv)


def test_derivative_semi_induced_implication():
    """If the derivative sum is semi-induced and the module torsion-free,
    the module is semi-induced (checked as an implication on samples)."""
    from fimlab.samples import random_presented_module

    for seed in range(8):
        v = random_presented_module(Window((4,)), seed + 40)
        if v.is_zero():
            continue
        tor = detect_torsion(v, (1,))
        dv = derivative_sum(v, (1,))
        ok_dv, _, _ = is_S_semi_induced(dv, (1,))
        if tor.is_zero() and ok_dv:
            ok_v, _, _ = is_S_semi_induced(v, (1,))
            assert ok_v, f"seed {seed + 40}"


def test_detect_torsion_matches_brute_force_scan():
    """The quotient of M(1) by everything above degree 1 is all torsion at
    (1); a brute-force kernel scan over every window morphism agrees."""
    from fimlab.category import leq as _leq
    from fimlab.linalg import kernel_basis
    from fimlab.modules import close_under_actions, quotient
    from fimlab.linalg import Subspace as Sub

    w = Window((3,))
    m1 = make_free((1,), w, TRIV)
    spaces = close_under_actions(m1, {(2,): Sub.full(m1.dims[(2,)])})
    k1, _ = quotient(m1, spaces, rel_objects=[(2,)])
    tv = detect_torsion(k1, (1,))
    assert {n: s.dim for n, s in tv.spaces.items()} == {
        (0,): 0, (1,): 1, (2,): 0, (3,): 0
    }
    # brute force: union of kernels over every positive-degree morphism
    for n in w.objects():
        brute = Sub.zero(k1.dims[n])
        for t in w.objects():
            if t == n or not _leq(n, t):
                continue
            for f in enumerate_injections(n, t):
                brute = brute.add(kernel_basis(evaluate(k1, f)))
        assert brute == tv.spaces[n]


def test_observed_presentations_never_claim_exact():
    """Window-synthesized bounds drive searches but degrade statuses."""
    from fimlab.modules import TruncatedModule
    from fimlab.theorems import _synth_presentation

    v = make_free((1,), Window((3,)), TRIV)
    synth = _synth_presentation(v)
    assert synth.observed_only
    shadow = TruncatedModule(v.window, v.group, v.dims, v.actions, synth)
    assert h0(shadow, (1,)).status_t0 == WINDOW_BOUNDED
    assert h1(shadow, (1,)).status_t1 == WINDOW_BOUNDED
    assert detect_torsion(shadow, (1,)).status == WINDOW_BOUNDED


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(((3,), (2, 2), (3, 2))), st.integers(0, 99),
       st.sampled_from((TRIV, GroupTable.symmetric(2), GroupTable.cyclic(3))))
def test_h0_dims_are_the_full_h0_module(bound, seed, group):
    """For every nonempty S, H0 counted from dim I_S V (its dims, t0,
    status and slice S-parts, which h1, the induced tests and end_ring
    read) is what the quotient V / I_S V built outright gives, and the
    module and slices the report builds on first read are the oracle's,
    byte for byte, and valid."""
    from oracles import h0_by_quotient

    v = random_presented_module(Window(bound), seed, group)
    for S in (S for r in range(1, v.m + 1) for S in combinations(range(1, v.m + 1), r)):
        rep, ref = h0(v, S), h0_by_quotient(v, S)
        assert rep.h0_dims == ref.h0_module.dims
        assert (rep.t0, rep.status_t0) == (ref.t0, ref.status_t0)
        assert rep.slice_keys == tuple(ref.h0_slices)
        assert rep.h0_module.to_json() == ref.h0_module.to_json()
        assert rep.h0_module.validate().ok
        assert ({s: m.to_json() for s, m in rep.h0_slices.items()}
                == {s: m.to_json() for s, m in ref.h0_slices.items()})
        assert all(m.validate().ok for m in rep.h0_slices.values())


def test_library_readers_of_h0_build_no_quotient(monkeypatch):
    """h1, is_S_induced and end_ring read H0 by its counted fields: every
    report ``h0`` hands them still has no quotient or slice built, and no
    quotient is taken along the way.  Every fimlab module that binds
    ``h0`` or ``quotient`` has its binding patched."""
    import importlib
    import pkgutil

    import fimlab
    from fimlab import theorems

    reports = []

    def spy(v, S):
        reports.append(h0(v, S))
        return reports[-1]

    def refuse(*args, **kwargs):
        raise AssertionError("an H0 reader built a quotient")

    for info in pkgutil.iter_modules(fimlab.__path__):
        mod = importlib.import_module(f"fimlab.{info.name}")
        for name, patch in (("h0", spy), ("quotient", refuse)):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, patch)
    for v in (make_induced(((1,),), Window((3,)), TRIV), make_free((2,), Window((3,)), TRIV)):
        for call in (lambda: h1(v, (1,)), lambda: is_S_induced(v, (1,)),
                     lambda: theorems.end_ring(v)):
            reports.clear()
            call()
            assert reports
            assert not any({"h0_module", "h0_slices"} & set(vars(r)) for r in reports)


def test_free_cover_is_minimal_under_automorphisms():
    """A free module is its own cover even where its generator has
    automorphisms, with or without a group factor."""
    from fimlab.category import GroupTable

    for v in (make_free((2,), Window((4,)), TRIV),
              make_free((1,), Window((3,)), GroupTable.symmetric(2))):
        p, pi, k, _ = free_cover(v)
        assert p.dims == v.dims and k.is_zero()
        assert pi.is_natural() and pi.is_iso()


def test_subquotient_rejects_inner_family_outside_outer():
    v = point_module(Window((2,)))
    outer = {n: Subspace.zero(v.dims[n]) for n in v.window.objects()}
    inner = {n: Subspace.full(v.dims[n]) for n in v.window.objects()}
    with pytest.raises(ValueError, match="not contained"):
        subquotient(v, outer, inner)


def _h1_dims_by_solved_section(v, S):
    """The construction h1 replaced: map H_0(K) into H_0(P) through a section
    of the kernel's H_0 projection found by solve_matrix."""
    from fimlab.linalg import RationalMatrix, kernel_basis, solve_matrix

    p, _, k, k_incl = free_cover(v)
    (_, qk), (_, qp) = quotient(k, h0(k, S).spaces), quotient(p, h0(p, S).spaces)
    dims = {}
    for n in v.window.objects():
        q = qk.blocks[n]
        lift = solve_matrix(q, RationalMatrix.identity(q.nrows))
        dims[n] = kernel_basis(qp.blocks[n] * k_incl.blocks[n] * lift).dim
    return dims


def _h1_oracle_inputs():
    for bound in ((3, 3), (4,)):
        for seed in range(12):
            yield (bound, seed), random_presented_module(Window(bound), seed)
    # nontrivial groups: free modules carry |G| copies of every injection
    for group in (GroupTable.symmetric(2), GroupTable.cyclic(3)):
        w = Window((3,))
        for seed in range(4):
            yield (group.name, seed), random_presented_module(w, seed, group=group)
        yield (group.name, "ind point"), ind(point_module(w), group)
        yield (group.name, "free (1,)"), make_free((1,), w, group)


def test_h1_matches_solved_section_construction():
    nonzero = 0
    for label, v in _h1_oracle_inputs():
        subsets = [(1,), (2,), (1, 2)] if v.m == 2 else [(1,)]
        for S in subsets:
            got = h1(v, S).h1_dims
            assert got == _h1_dims_by_solved_section(v, S), (label, S)
            nonzero += any(got.values())
    assert nonzero >= 13  # 17 of the 60 reports have nonzero H_1


def test_h1_counts_h0_of_the_free_cover(monkeypatch):
    """With a prebuilt cover, h1 reads H_0 of the free P off its generator
    slots and never computes P's positive-degree image."""
    import fimlab.homology

    v = random_presented_module(Window((3, 3)), 0)
    cover = free_cover(v)
    real = fimlab.homology.positive_degree_image
    seen = []

    def recording(mod, S, n):
        seen.append(mod)
        return real(mod, S, n)

    monkeypatch.setattr(fimlab.homology, "positive_degree_image", recording)
    for S in ((1,), (2,), (1, 2)):
        h1(v, S, cover=cover)
    assert seen and not any(mod is cover[0] for mod in seen)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(((3,), (2, 2))), st.sampled_from((TRIV, GroupTable.cyclic(2))),
       st.integers(0, 60), st.integers(0, 60), st.integers(0, 3), st.data())
def test_h0_h1_and_hom_are_additive_over_direct_sums(bound, group, sv, sw, l, data):
    # H0, H1 and Hom are additive functors, so on V + W each is the sum;
    # W is a presented module plus a co-free E(l), zero above its support
    window = Window(bound)
    v = random_presented_module(window, sv, group)
    w, _ = direct_sum(random_presented_module(window, sw, group),
                      make_cofree(window.objects()[l], window, group))
    x = random_presented_module(window, sv + sw, group)
    vw, _ = direct_sum(v, w)
    S = data.draw(st.sampled_from([(1,), (window.m,), tuple(range(1, window.m + 1))]))

    def total(f):
        a, b = f(v), f(w)
        return {n: a[n] + b[n] for n in a}

    assert h0(vw, S).h0_dims == total(lambda u: h0(u, S).h0_dims)
    assert h1(vw, S).h1_dims == total(lambda u: h1(u, S).h1_dims)
    assert (NaturalitySolver(vw, x).dim
            == NaturalitySolver(v, x).dim + NaturalitySolver(w, x).dim)
    assert (NaturalitySolver(x, vw).dim
            == NaturalitySolver(x, v).dim + NaturalitySolver(x, w).dim)


@st.composite
def asymmetric_modules(draw):
    """A seeded presented, free or co-free module on (2,2) or (3,2), over
    the trivial group or C2."""
    window = Window(draw(st.sampled_from([(2, 2), (3, 2)])))
    group = draw(st.sampled_from([TRIV, GroupTable.cyclic(2)]))
    kind = draw(st.sampled_from(["presented", "free", "cofree"]))
    if kind == "presented":
        return random_presented_module(window, draw(st.integers(0, 500)), group)
    n = draw(st.sampled_from([(1, 0), (0, 1), (2, 1), (1, 2)]))
    return (make_free if kind == "free" else make_cofree)(n, window, group)


@settings(max_examples=25, deadline=None)
@given(asymmetric_modules())
def test_homology_and_hom_are_invariant_under_permuting_coordinates(v):
    """Relabelling the coordinates of V, with S relabelled to match, moves
    H0, H1 and torsion from n to the permuted object and keeps t0, t1 and
    dim End(V)."""
    from oracles import permute_coords

    p = permute_coords(v, (2, 1))

    def moved(dims):
        return {(n[1], n[0]): d for n, d in dims.items()}

    assert NaturalitySolver(p, p).dim == NaturalitySolver(v, v).dim
    for S in ((1,), (2,), (1, 2)):
        S_p = tuple(sorted(3 - i for i in S))
        a, b = h1(v, S), h1(p, S_p)
        assert (b.t0, b.t1) == (a.t0, a.t1)
        assert b.h0_dims == moved(a.h0_dims)
        assert b.h1_dims == moved(a.h1_dims)
        assert detect_torsion(p, S_p).dims() == moved(detect_torsion(v, S).dims())
