"""Test oracles: independent constructions that the tests check fimlab's
answers against, and small helpers that only tests need.  The package calls
none of them.

The symmetric-group part computes characters by the Murnaghan-Nakayama
rule, character tables of table groups by rational eigenspace splitting of
the class-sum matrices (a hard error when the table is not rational), and
multiplicities of irreducibles in representations of S_{n_1} x ... x
S_{n_m} x G.  The tests use them to check the isotypic type of
``make_induced`` and the Specht matrices.

pytest and ``golden_docs.py`` (run as a script) both import this file as
the top-level module ``oracles``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from operator import mul

from fimlab.category import (
    GroupTable,
    Window,
    add,
    aut_swaps,
    generator_keys,
    injection_index_table,
    key_ends,
    leq,
    rekey,
    split_generators,
    sub,
    unit,
    _injection_images,
)
from fimlab.functors import (
    canonical_map,
    complement_subset,
    derivative,
    induced_module,
    interleave,
    kernel_functor,
    normalize_subset,
    shift,
    split_obj,
    _induced_presentation,
)
from fimlab.linalg import (
    RationalMatrix,
    Subspace,
    block_diag,
    image_basis,
    kernel_basis,
    kron,
    quotient_map,
    rational_roots,
    rref_int,
    solve,
    solve_matrix,
    _stack_rows,
)
from fimlab.modules import (
    MarginError,
    ModuleMap,
    NaturalitySolver,
    Presentation,
    TruncatedModule,
    _automorphism_mats,
    _before_generator,
    _close_subspace_under,
    _fixed_space,
    _monomial,
    close_under_actions,
    cover_blocks,
    direct_sum,
    generators_and_cover,
    make_free,
    obj_str,
    positive_degree_image,
    quotient,
    submodule_from_stable_subspaces,
)
from fimlab.symrep import (
    GroupRep,
    _check_coxeter,
    _rep_elements,
    check_partition,
    hook_length_dim,
    regular_rep_matrices,
    specht,
)


# -- permutations, matrices and groups ---------------------------------------


def rref(mat: RationalMatrix) -> RationalMatrix:
    """Reduced row echelon form (canonical; zero rows kept at the bottom)."""
    if mat.nrows == 0 or mat.ncols == 0:
        return mat
    _, out_rows, denoms = rref_int(mat.rows, mat.ncols)
    return _stack_rows(zip(out_rows, denoms), mat.ncols)


def invert_perm(img: tuple) -> tuple:
    """Inverse of a permutation given as an image tuple."""
    inv = [0] * len(img)
    for x, y in enumerate(img, start=1):
        inv[y - 1] = x
    return tuple(inv)


def trace(mat: RationalMatrix) -> Fraction:
    if mat.nrows != mat.ncols:
        raise ValueError("trace of non-square matrix")
    return sum((mat[i, i] for i in range(mat.nrows)), Fraction(0))


def conjugacy_classes(group: GroupTable) -> list:
    """Sorted classes (each a sorted tuple), identity class first."""
    remaining = set(range(group.order))
    classes = []
    while remaining:
        a = min(remaining)
        orbit = {group.mult[group.mult[h][a]][group.inverse[h]] for h in range(group.order)}
        classes.append(tuple(sorted(orbit)))
        remaining -= orbit
    return classes


def regular_rep(group: GroupTable) -> GroupRep:
    """The left regular representation of a table group."""
    return GroupRep(group, group.order, tuple(regular_rep_matrices(group)))


def matrix_of_perm(rep, img: tuple) -> RationalMatrix:
    """The matrix of the permutation ``img`` on a Specht module, as the
    product of its adjacent-swap matrices."""
    mat = RationalMatrix.identity(rep.dim)
    for k in perm_to_adjacent(img):
        mat = mat * rep.gens[k - 1]
    return mat


# -- morphisms and their factorization into generators -----------------------


@dataclass(frozen=True)
class Morphism:
    """A morphism of the product injection category with group factor:
    componentwise injections plus a group element.

    ``maps[i]`` is the image tuple (f(1), ..., f(a_i)) of an injection
    [a_i] -> [b_i].
    """

    source: tuple
    target: tuple
    maps: tuple
    group_elt: int = 0

    def __post_init__(self):
        if not (len(self.source) == len(self.target) == len(self.maps)):
            raise ValueError("coordinate count mismatch")
        for a, b, img in zip(self.source, self.target, self.maps):
            if len(img) != a:
                raise ValueError("image tuple has wrong length")
            if len(set(img)) != len(img):
                raise ValueError("map is not injective")
            if any(not (1 <= x <= b) for x in img):
                raise ValueError("image out of range")


def compose(f: Morphism, g: Morphism, group: GroupTable | None = None) -> Morphism:
    """f after g; group parts multiply via the group table."""
    if g.target != f.source:
        raise ValueError(f"cannot compose: {g.target} != {f.source}")
    maps = tuple(
        tuple(fimg[x - 1] for x in gimg) for fimg, gimg in zip(f.maps, g.maps)
    )
    if f.group_elt == 0:
        ge = g.group_elt
    elif g.group_elt == 0:
        ge = f.group_elt
    else:
        if group is None:
            raise ValueError("need a group table to compose nontrivial group parts")
        ge = group.mult[f.group_elt][g.group_elt]
    return Morphism(g.source, f.target, maps, ge)


def enumerate_injections(a, b) -> list:
    """All injections a -> b (group part trivial), in basis order."""
    return [Morphism(a, b, maps, 0) for maps in _injection_images(a, b)]


def group_word(group: GroupTable, g: int) -> list:
    """g as a product of generators, as indices, read off the group's
    breadth-first tree; matrices multiply in the returned order (leftmost
    factor applied last)."""
    if g not in group.tree:
        raise ValueError(f"element {g} is not in the group")
    word = []
    while group.tree[g] is not None:
        j, g = group.tree[g]
        word.append(j)
    return word


def factor_injection(img: tuple, b: int):
    """Write an injection [a] -> [b] (image tuple img) as sigma o std^k.

    Returns (sigma, k) with k = b - a and sigma a permutation of [b] as an
    image tuple; std^k is x -> x + k.
    """
    a = len(img)
    k = b - a
    sigma = [0] * b
    for x, y in enumerate(img, start=1):
        sigma[x + k - 1] = y
    missing = sorted(set(range(1, b + 1)) - set(img))
    for slot, y in zip(range(k), missing):
        sigma[slot] = y
    return tuple(sigma), k


def perm_to_adjacent(sigma: tuple):
    """sigma as a composition s_{k_1} o ... o s_{k_t} of adjacent swaps.

    Swapping list positions k, k+1 of the image tuple precomposes with s_k,
    so bubble-sorting records a word with sigma o s_{w_1} o ... o s_{w_t} =
    id, i.e. sigma = s_{w_t} o ... o s_{w_1}.  The reversed word is returned,
    so action matrices multiply left to right over it.
    """
    n = len(sigma)
    word = []
    current = list(sigma)
    changed = True
    while changed:
        changed = False
        for k in range(1, n):
            if current[k - 1] > current[k]:
                current[k - 1], current[k] = current[k], current[k - 1]
                word.append(k)
                changed = True
    word.reverse()
    return word


def factor_morphism(mor: Morphism, group: GroupTable):
    """Factor a morphism into generator keys.

    Returns keys in matrix-composition order: the action matrix of ``mor``
    is the product of the generator action matrices taken left to right over
    the returned list.  Coordinates are raised in ascending order after the
    group part acts first.
    """
    m = len(mor.source)
    keys = []
    current = list(mor.source)
    stages = []  # collect per coordinate, then reverse for matrix order
    for i in range(1, m + 1):
        b = mor.target[i - 1]
        sigma, k = factor_injection(mor.maps[i - 1], b)
        incl_keys = []
        for _ in range(k):
            incl_keys.append(("incl", i, tuple(current)))
            current[i - 1] += 1
        at_top = tuple(current)
        swap_keys = [("swap", i, kk, at_top) for kk in perm_to_adjacent(sigma)]
        # matrix order: swaps (applied last) first, then inclusions from the
        # top object down to the source
        stages.append(swap_keys + incl_keys[::-1])
    # coordinate m raised last -> its matrices are leftmost
    for stage in reversed(stages):
        keys.extend(stage)
    if mor.group_elt != 0:
        keys.extend(("grp", j, mor.source) for j in group_word(group, mor.group_elt))
    return keys


def evaluate(v: TruncatedModule, mor: Morphism) -> RationalMatrix:
    """V(mor) for an arbitrary window morphism: the product of the
    generator actions along :func:`factor_morphism`'s word.  The reference
    for every V(beta) the package reads off an orbit walk."""
    if not (v.window.contains(mor.source) and v.window.contains(mor.target)):
        raise MarginError(f"morphism {mor} leaves the window")
    # right to left: the products stay as narrow as the source
    mat = RationalMatrix.identity(v.dims[mor.source])
    for key in reversed(factor_morphism(mor, v.group)):
        mat = v.actions[key] * mat
    if mat.shape != (v.dims[mor.target], v.dims[mor.source]):
        raise AssertionError("evaluation produced a wrong shape")
    return mat


# -- generators as morphisms ---------------------------------------------------


def identity_morphism(n) -> Morphism:
    return Morphism(n, n, tuple(tuple(range(1, a + 1)) for a in n), 0)


def std_incl(n, i: int) -> Morphism:
    """The standard inclusion n -> n + o_i, x -> x + 1 in coordinate i."""
    maps = []
    for j, a in enumerate(n):
        if j == i - 1:
            maps.append(tuple(range(2, a + 2)))
        else:
            maps.append(tuple(range(1, a + 1)))
    return Morphism(n, add(n, unit(len(n), i)), tuple(maps), 0)


def swap_morphism(n, i: int, k: int) -> Morphism:
    """The automorphism of n swapping k and k+1 in coordinate i."""
    if not (1 <= k < n[i - 1]):
        raise ValueError("transposition out of range")
    maps = []
    for j, a in enumerate(n):
        img = list(range(1, a + 1))
        if j == i - 1:
            img[k - 1], img[k] = img[k], img[k - 1]
        maps.append(tuple(img))
    return Morphism(n, n, tuple(maps), 0)


def group_morphism(n, g: int) -> Morphism:
    mor = identity_morphism(n)
    return Morphism(mor.source, mor.target, mor.maps, g)


def morphism_of_key(key, group: GroupTable) -> Morphism:
    kind = key[0]
    if kind == "incl":
        _, i, n = key
        return std_incl(n, i)
    if kind == "swap":
        _, i, k, n = key
        return swap_morphism(n, i, k)
    if kind == "grp":
        _, j, n = key
        return group_morphism(n, group.generators[j])
    raise ValueError(f"unknown generator key {key!r}")


def generators(window: Window, group: GroupTable):
    return [morphism_of_key(k, group) for k in generator_keys(window, group)]


# -- modules ------------------------------------------------------------------


def make_free_by_compose(n, window: Window, group: GroupTable | None = None,
                         name: str = "") -> TruncatedModule:
    """Reference for ``make_free``: each generator action found by composing
    the generator morphism with every basis injection."""
    n = tuple(n)
    group = group or GroupTable.trivial()
    if not window.contains(n):
        raise MarginError(f"generator object {n} lies outside the window")
    og = group.order
    dims = {}
    bases = {}
    for t in window.objects():
        if leq(n, t):
            injs = enumerate_injections(n, t)
            bases[t] = injs
            dims[t] = len(injs) * og
        else:
            bases[t] = []
            dims[t] = 0
    actions = {}
    for key in generator_keys(window, group):
        src, tgt = key_ends(key)
        mat = [[0] * dims[src] for _ in range(dims[tgt])]
        if dims[src]:
            index = injection_index_table(n, tgt)
            gen_mor = morphism_of_key(key, group)
            for bi, beta in enumerate(bases[src]):
                comp = compose(gen_mor, beta, group)
                new_idx = index[comp.maps]
                if key[0] == "grp":
                    g = group.generators[key[1]]
                    for h in range(og):
                        mat[new_idx * og + group.mult[g][h]][bi * og + h] = 1
                else:
                    for h in range(og):
                        mat[new_idx * og + h][bi * og + h] = 1
        actions[key] = RationalMatrix(mat, dims[tgt], dims[src])
    pres = Presentation.make([(n, None)], n)
    return TruncatedModule(window, group, dims, actions, pres, name or f"M{obj_str(n)}")


def free_sum_by_direct_sum(objs, window: Window, group: GroupTable) -> TruncatedModule:
    """Reference for ``make_free_sum``: the direct sum of one compose-built
    free module per object, and for no objects the zero module, with 0 x 0
    actions and the zero relation bound."""
    if objs:
        return direct_sum(*[make_free_by_compose(n, window, group) for n in objs])[0]
    actions = {key: RationalMatrix.zeros(0, 0) for key in generator_keys(window, group)}
    return TruncatedModule(window, group, {n: 0 for n in window.objects()}, actions,
                           Presentation.make([], (0,) * window.m))


def make_cofree_by_compose(l, window: Window, group: GroupTable | None = None,
                           name: str = "") -> TruncatedModule:
    """Reference for ``make_cofree``: each generator action found by
    precomposing every basis injection with the generator morphism."""
    l = tuple(l)
    group = group or GroupTable.trivial()
    if not window.contains(l):
        raise MarginError(f"cogenerator object {l} lies outside the window")
    dims = {}
    bases = {}
    for t in window.objects():
        if leq(t, l):
            injs = enumerate_injections(t, l)
            bases[t] = injs
            dims[t] = len(injs)
        else:
            bases[t] = []
            dims[t] = 0
    actions = {}
    for key in generator_keys(window, group):
        src, tgt = key_ends(key)
        mat = [[0] * dims[src] for _ in range(dims[tgt])]
        if dims[src] and dims[tgt]:
            if key[0] == "grp":
                for bi in range(dims[src]):
                    mat[bi][bi] = 1
            else:
                gen_mor = morphism_of_key(key, group)
                src_index = injection_index_table(src, l)
                for bi, beta in enumerate(bases[tgt]):
                    gamma = compose(beta, gen_mor, group)
                    mat[bi][src_index[gamma.maps]] = 1
        elif key[0] == "grp" and dims[src]:
            for bi in range(dims[src]):
                mat[bi][bi] = 1
        actions[key] = RationalMatrix(mat, dims[tgt], dims[src])
    slots = [(t, None) for t in window.objects_by_degree() if dims[t] > 0]
    rel = tuple(x + 1 for x in l)
    pres = Presentation.make(slots, rel)
    return TruncatedModule(window, group, dims, actions, pres, name or f"E{obj_str(l)}")


def make_coinduced_by_compose(lambdas, window: Window, group: GroupTable | None = None):
    """Reference for ``make_coinduced``'s dims and actions: the vectors of
    (co-free at l) x (outer Specht product) fixed by every swap tau of l,
    acting on an injection gamma by the composed morphism tau o gamma and
    on the Specht factor by its Coxeter generator."""
    group = group or GroupTable.trivial()
    l = tuple(sum(p) for p in lambdas)
    spechts = [specht(p) for p in lambdas]
    dim_s = prod(sp.dim for sp in spechts)
    base = make_cofree_by_compose(l, window, group)
    big = TruncatedModule(
        window, group, {t: d * dim_s for t, d in base.dims.items()},
        {key: kron(mat, RationalMatrix.identity(dim_s)) for key, mat in base.actions.items()})
    spaces = {}
    for t in window.objects():
        injs = enumerate_injections(t, l) if leq(t, l) else []
        index = injection_index_table(t, l) if injs else {}
        diffs = []
        for i, k in aut_swaps(l):
            tau = swap_morphism(l, i, k)
            perm = [[int(index[compose(tau, gamma).maps] == r) for gamma in injs]
                    for r in range(len(injs))]
            x_mat = RationalMatrix.identity(1)
            for j, sp in enumerate(spechts, start=1):
                x_mat = kron(x_mat, sp.gens[k - 1] if j == i else RationalMatrix.identity(sp.dim))
            mat = kron(RationalMatrix(perm, len(injs), len(injs)), x_mat)
            diffs.extend((mat - RationalMatrix.identity(big.dims[t])).rows)
        d = big.dims[t]
        spaces[t] = kernel_basis(RationalMatrix(diffs, len(diffs), d))
    mod, _ = submodule_from_stable_subspaces(big, spaces)
    return mod


def induced_by_free_fixed_space(lambdas, window: Window, group: GroupTable | None = None,
                                g_rep: GroupRep | None = None) -> TruncatedModule:
    """Reference for ``make_induced``: the vectors of (F(n) x G) x X, X =
    (outer Specht product) x (group rep), fixed by the generators of
    Aut(n) x G, where (sigma, g) sends the basis element (beta, h) of F(n)
    to the composed morphism (beta, h) o (sigma, g^-1) and acts on X by
    the Specht swap of sigma and rho(g).  The route that building M(lambda)
    as F_n of its Specht representation replaced, kept as its reference."""
    group = group or GroupTable.trivial()
    g_rep = g_rep or GroupRep.trivial(group)
    lambdas = tuple(tuple(l) for l in lambdas)
    n = tuple(sum(l) for l in lambdas)
    spechts = [specht(l) for l in lambdas]
    dim_s = prod(sp.dim for sp in spechts)
    dim_x = dim_s * g_rep.dim
    og = group.order
    free = make_free(n, window, group)
    big = TruncatedModule(
        window, group, {t: d * dim_x for t, d in free.dims.items()},
        {key: kron(mat, RationalMatrix.identity(dim_x)) for key, mat in free.actions.items()})

    def right_action(t, sigma: Morphism):
        index = injection_index_table(n, t)
        d = len(index) * og
        rows = [[0] * d for _ in range(d)]
        for beta, bi in index.items():
            for h in range(og):
                img = compose(Morphism(n, t, beta, h), sigma, group)
                rows[index[img.maps] * og + img.group_elt][bi * og + h] = 1
        return RationalMatrix(rows, d, d)

    spaces = {}
    for t in window.objects():
        d = big.dims[t]
        if not d:
            spaces[t] = Subspace.zero(0)
            continue
        mats = []
        for i, k in aut_swaps(n):
            x_mat = RationalMatrix.identity(1)
            for j, sp in enumerate(spechts, start=1):
                x_mat = kron(x_mat, sp.gens[k - 1] if j == i else RationalMatrix.identity(sp.dim))
            x_mat = kron(x_mat, RationalMatrix.identity(g_rep.dim))
            mats.append(kron(right_action(t, swap_morphism(n, i, k)), x_mat))
        for g, rho in zip(group.generators, g_rep.gen_mats):
            sigma = Morphism(n, n, identity_morphism(n).maps, group.inverse[g])
            mats.append(kron(right_action(t, sigma),
                             kron(RationalMatrix.identity(dim_s), rho)))
        diffs = [mat - RationalMatrix.identity(d) for mat in mats]
        spaces[t] = kernel_basis(_stack_rows(((row, a.den) for a in diffs for row in a.rows), d))
    mod, _ = submodule_from_stable_subspaces(big, spaces, Presentation.make([(n, lambdas)], n),
                                             f"M{lambdas}")
    return mod


def induced_module_by_fixed_space(s, S, w_rs: TruncatedModule, group: GroupTable,
                                  window: Window, name: str = "") -> tuple:
    """Reference for ``functors.induced_module``: F_s(W) solved for as the
    vectors of Inj(s, s') x W(t) fixed by each swap sigma of Aut(s), acting
    by beta -> beta o sigma paired with W's action of sigma, and restricted
    from the big module on those spaces.  The route that writing the
    orbit-sum basis down replaced, kept as its reference.  Returns (module,
    inclusion into the big module)."""
    m = window.m
    S = normalize_subset(S, m)
    not_S = complement_subset(S, m)
    s = tuple(s)
    swaps = [("swap", c, k, s) for c, k in aut_swaps(s)]
    free_s = make_free(s, Window(tuple(window.bound[i - 1] for i in S)))

    def right_action(s_part, swap):
        index = injection_index_table(s, s_part)
        cols = [None] * len(index)
        for bi, beta in enumerate(index):
            cols[index[_before_generator(swap, beta)]] = bi
        return _monomial(cols, len(index), len(index))

    spaces, big_dims = {}, {}
    for n in window.objects():
        s_part, t_part = split_obj(n, S, not_S)
        d = big_dims[n] = free_s.dims[s_part] * w_rs.dims[t_part]
        if d == 0:
            spaces[n] = Subspace.zero(0)
            continue
        mats = [kron(right_action(s_part, sw), w_rs.actions[("grp", j, t_part)])
                for j, sw in enumerate(swaps)]
        spaces[n] = _fixed_space(d, mats)
        expected = prod(comb(a, b) for a, b in zip(s_part, s)) * w_rs.dims[t_part]
        if spaces[n].dim != expected:
            raise ValueError(f"induced value at {n} has dimension "
                             f"{spaces[n].dim}, expected {expected}")
    live, rest = split_generators(window, group, big_dims, big_dims)
    big_actions = {key: RationalMatrix.zeros(big_dims[tgt], big_dims[src])
                   for key, src, tgt in rest}
    for key, src, _ in live:
        s_src, t_src = split_obj(src, S, not_S)
        if key[0] != "grp" and key[1] in S:
            skey = rekey(key, S.index(key[1]) + 1, s_src)
            big_actions[key] = kron(free_s.actions[skey],
                                    RationalMatrix.identity(w_rs.dims[t_src]))
        else:
            c = len(swaps) + key[1] if key[0] == "grp" else not_S.index(key[1]) + 1
            big_actions[key] = kron(RationalMatrix.identity(free_s.dims[s_src]),
                                    w_rs.actions[rekey(key, c, t_src)])
    big = TruncatedModule(window, group, big_dims, big_actions)
    pres = _induced_presentation(s, S, not_S, w_rs, m)
    return submodule_from_stable_subspaces(big, spaces, pres,
                                           name or f"F_{s}({w_rs.name})")


def induced_map_by_inclusions(s, S, f: ModuleMap, group: GroupTable, window: Window):
    """The blocks of F_s(f) for a map f of R_s-modules, read off the
    fixed-space inclusions: kron(I, f_t) on the source's inclusion, in the
    coordinates of the target's; None when an image leaves the target's
    fixed space.  The route that orbit blocks of f_t replaced in
    ``theorems._induced_functor_map``, kept as its reference."""
    _, src_incl = induced_module_by_fixed_space(s, S, f.source, group, window)
    _, tgt_incl = induced_module_by_fixed_space(s, S, f.target, group, window)
    S = normalize_subset(S, window.m)
    not_S = complement_subset(S, window.m)
    blocks = {}
    for n in window.objects():
        s_part, t_part = split_obj(n, S, not_S)
        ninj = len(injection_index_table(tuple(s), s_part)) if leq(tuple(s), s_part) else 0
        big = kron(RationalMatrix.identity(ninj), f.blocks[t_part])
        blocks[n] = image_basis(tgt_incl.blocks[n]).coordinates(big * src_incl.blocks[n])
        if blocks[n] is None:
            return None
    return blocks


def with_trivial_group_action(v: TruncatedModule, group: GroupTable) -> TruncatedModule:
    """Attach a group factor acting trivially (the group is a direct factor
    of the category, so identity actions are always functorial)."""
    if not v.group.is_trivial():
        raise ValueError("module already carries a group")
    actions = dict(v.actions)
    for key in generator_keys(v.window, group):
        if key[0] == "grp":
            _, _, n = key
            actions[key] = RationalMatrix.identity(v.dims[n])
    return TruncatedModule(v.window, group, dict(v.dims), actions,
                           v.presentation, v.name)


def permute_coords(v: TruncatedModule, perm) -> TruncatedModule:
    """Relabel coordinates: new coordinate j carries old coordinate perm[j]
    (1-based).  Pure bookkeeping; dims and matrices are reused."""
    perm = tuple(perm)
    m = v.m
    if sorted(perm) != list(range(1, m + 1)):
        raise ValueError("not a permutation of the coordinates")

    def to_old(n_new):
        return tuple(n_new[perm.index(i + 1)] for i in range(m))

    def to_new(n_old):
        return tuple(n_old[perm[j] - 1] for j in range(m))

    window = Window(to_new(v.window.bound))
    dims = {to_new(n): v.dims[n] for n in v.window.objects()}
    actions = {}
    for key in generator_keys(window, v.group):
        if key[0] == "incl":
            _, i, n = key
            actions[key] = v.actions[("incl", perm[i - 1], to_old(n))]
        elif key[0] == "swap":
            _, i, k, n = key
            actions[key] = v.actions[("swap", perm[i - 1], k, to_old(n))]
        else:
            _, j, n = key
            actions[key] = v.actions[("grp", j, to_old(n))]
    pres = None
    if v.presentation is not None:
        slots = tuple(
            (to_new(obj), None if lab is None else tuple(lab[perm[j] - 1] for j in range(m)))
            for obj, lab in v.presentation.generator_slots
        )
        rb = v.presentation.relation_bound
        pres = Presentation(slots, None if rb is None else to_new(rb),
                            v.presentation.observed_only)
    return TruncatedModule(window, v.group, dims, actions, pres, v.name)


def exact_four_term_check(v: TruncatedModule, i: int) -> bool:
    """0 -> K_i V -> V -> Shift_i V -> D_i V -> 0 is objectwise exact."""
    can = canonical_map(v, i)
    k = kernel_functor(v, i)
    d = derivative(v, i)
    for n in can.source.window.objects():
        r = can.source.dims[n] - k.dims[n]
        if r != image_basis(can.blocks[n]).dim:
            return False
        if can.target.dims[n] - r != d.dims[n]:
            return False
    return True


def shift_decomposition_by_indexing(n, i: int, window: Window, group: GroupTable) -> dict:
    """The blocks of M(n) + M(n - o_i)^(n_i) -> Shift_i M(n), written out
    injection by injection: a basis injection into t + o_i either misses
    the new point 1 (the M(n) part, all targets moved up by one) or sends
    x0 to it (copy x0 of the M(n - o_i) part)."""
    n = tuple(n)
    m = len(n)
    free = make_free(n, window, group)
    shifted = shift(free, i)
    og = group.order
    lower = sub(n, unit(m, i)) if n[i - 1] >= 1 else None
    blocks = {}
    for t in shifted.window.objects():
        rows = shifted.dims[t]
        columns = []  # the row index of each column's single 1
        if rows:
            index_up = injection_index_table(n, add(t, unit(m, i)))
            if leq(n, t):
                for beta in enumerate_injections(n, t):
                    maps = tuple(tuple(x + 1 for x in img) if j == i - 1 else img
                                 for j, img in enumerate(beta.maps))
                    columns += [index_up[maps] * og + h for h in range(og)]
            if lower is not None and leq(lower, t):
                for x0 in range(1, n[i - 1] + 1):
                    for beta in enumerate_injections(lower, t):
                        img = beta.maps[i - 1]
                        full = tuple(1 if y == x0 else img[y - 1] + 1 if y < x0
                                     else img[y - 2] + 1 for y in range(1, n[i - 1] + 1))
                        maps = beta.maps[:i - 1] + (full,) + beta.maps[i:]
                        columns += [index_up[maps] * og + h for h in range(og)]
        mat = [[Fraction(0)] * len(columns) for _ in range(rows)]
        for c, r in enumerate(columns):
            mat[r][c] = Fraction(1)
        blocks[t] = RationalMatrix(mat, rows, len(columns))
    return blocks


def derivative_decomposition_by_indexing(n, i: int, window: Window, group: GroupTable) -> dict:
    """The blocks of M(n - o_i)^(n_i) -> D_i M(n): the M(n - o_i) columns of
    :func:`shift_decomposition_by_indexing` followed by the projection onto
    the cokernel of the canonical map."""
    free = make_free(tuple(n), window, group)
    can = canonical_map(free, i)
    _, proj = quotient(can.target, {t: image_basis(b) for t, b in can.blocks.items()})
    blocks = {}
    for t, block in shift_decomposition_by_indexing(n, i, window, group).items():
        cols = list(range(free.dims[t], block.ncols))
        blocks[t] = proj.blocks[t] * block.columns(cols)
    return blocks


def evaluate_basis(v: TruncatedModule, n, x) -> list:
    """V(beta, h) for the basis (beta, h) of F(n)(x) in make_free's order,
    each morphism factored into generators by ``evaluate``: the route the
    orbit walk replaced, kept as its reference."""
    if not leq(n, x):
        return []
    return [evaluate(v, Morphism(b.source, b.target, b.maps, h))
            for b in enumerate_injections(n, x) for h in range(v.group.order)]


def functorial_on_window(v: TruncatedModule) -> bool:
    """Whether V(g o f) = V(g) V(f) for every composable pair f: a -> b,
    g: b -> c of window morphisms, every pair of group parts included: the
    definition of a functor on the window, checked exhaustively.  Each
    morphism's value comes from ``evaluate``; the reference for
    ``TruncatedModule.validate``, which checks only generator relations."""
    objs = v.window.objects()
    value = {}
    for a, b in itertools.product(objs, objs):
        if leq(a, b):
            mors = [Morphism(a, b, f.maps, h) for f in enumerate_injections(a, b)
                    for h in range(v.group.order)]
            value[a, b] = dict(zip(mors, evaluate_basis(v, a, b)))
    return all(
        value[a, c][compose(g, f, v.group)] == vg * vf
        for (a, b), fs in value.items()
        for c in objs if leq(b, c)
        for f, vf in fs.items()
        for g, vg in value[b, c].items()
    )


def h0_generators_by_images(v: TruncatedModule) -> list:
    """The generators of ``generators_and_cover``, with I(n) computed at
    every object by ``positive_degree_image`` over the full coordinate set,
    from the inclusion images and their swaps: the route that reading I(n)
    off the cover columns walked so far replaced, kept as its reference."""
    full_s = tuple(range(1, v.m + 1))
    out = []
    for n in v.window.objects_by_degree():
        d = v.dims[n]
        span = positive_degree_image(v, full_s, n)
        if span.dim == d:
            continue
        autos = _automorphism_mats(v, n)
        base = span.dim
        lifts = []
        for f in span.free_columns:
            e = tuple(int(r == f) for r in range(d))
            if span.dim > base + len(lifts) and span.contains(e):
                continue
            lifts.append(e)
            span = _close_subspace_under(
                autos, Subspace.from_spanning(d, span.basis.rows + (e,)))
        out.append((n, lifts))
    return out


def cover_block_by_evaluate(v: TruncatedModule, gens, x) -> RationalMatrix:
    """The block at x of the cover sending generator i to its lift u_i,
    column (i, beta, h) = V(beta, h) u_i, by :func:`evaluate_basis`."""
    cols = []
    for n, lifts in gens:
        lift_mat = RationalMatrix(lifts, len(lifts), v.dims[n]).transpose()
        images = [mat * lift_mat for mat in evaluate_basis(v, n, x)]
        for j in range(len(lifts)):
            cols.extend(img.col(j) for img in images)
    return RationalMatrix(cols, len(cols), v.dims[x]).transpose()


def counit_blocks_by_evaluate(v: TruncatedModule, s, S, witness: TruncatedModule) -> dict:
    """The blocks of the counit F_s(V[[s]]) -> V, beta (x) w -> V(beta x
    id_t) w, with every V(beta x id_t) factored into generators by
    :func:`evaluate`: the route the orbit walk of V's S-part replaced in
    ``homology._counit_map``, kept as its reference."""
    S = normalize_subset(S, v.m)
    not_S = complement_subset(S, v.m)
    s = tuple(s)
    _, fsw_incl = induced_module(s, S, witness, v.group, v.window)
    blocks = {}
    for n in v.window.objects():
        s_part, t_part = split_obj(n, S, not_S)
        cols = []
        if leq(s, s_part):
            ident = tuple(tuple(range(1, x + 1)) for x in t_part)
            for beta in enumerate_injections(s, s_part):
                act = evaluate(v, Morphism(interleave(S, not_S, s, t_part), n,
                                           interleave(S, not_S, beta.maps, ident), 0))
                cols += [act.col(c) for c in range(witness.dims[t_part])]
        block = RationalMatrix(cols, len(cols), v.dims[n]).transpose()
        blocks[n] = block * fsw_incl[n]
    return blocks


def solver_by_kernel_basis(v: TruncatedModule, w: TruncatedModule) -> NaturalitySolver:
    """NaturalitySolver(v, w) with its constraint rows built from the RREF
    kernel basis of each cover block pi_x, a second elimination per block:
    the route that reading ker pi_x off the section replaced, kept as its
    reference."""
    solver = NaturalitySolver(v, w)
    pis = cover_blocks(v, generators_and_cover(v)[0])
    solver.rows = []
    for x in v.window.objects():
        for k in kernel_basis(pis[x]).basis.rows:
            rows, _ = solver._rows_of(x, k)
            solver.rows.extend(row for row in rows if any(row))
    return solver


def solution_map_by_dot_products(solver: NaturalitySolver, t, den) -> ModuleMap:
    """The natural map with generator values t / den, t a sequence of ints,
    one map at a time: each column of each block is a dot product of every
    row of every W(beta, h) with the map's parameter slice.  The route that
    ``NaturalitySolver._maps``' one product per term replaced, kept as its
    reference."""
    blocks = {}
    for x, terms in solver._terms.items():
        if not (solver.v.dims[x] and solver.w.dims[x]):
            blocks[x] = RationalMatrix.zeros(solver.w.dims[x], solver.v.dims[x])
            continue
        cols = [(tuple(sum(map(mul, row, t[offset:offset + wm.ncols]))
                       for row in wm.rows), wm.den * den)
                for offset, wm in terms]
        blocks[x] = _stack_rows(cols, solver.w.dims[x]).transpose() * solver._sections[x]
    return ModuleMap(solver.v, solver.w, blocks)


def solve_with_conditions_one_map(solver: NaturalitySolver, conditions):
    """``NaturalitySolver.solve_with_conditions`` with the map built by
    :func:`solution_map_by_dot_products`."""
    rows = list(solver.rows)
    rhs = [0] * len(rows)
    for n, rmat, cmat in conditions:
        n = tuple(n)
        ys = solver._sections[n] * rmat
        for j, y in enumerate(ys.transpose().rows):
            block, den = solver._rows_of(n, y)
            rows.extend(block)
            rhs.extend(c * den * ys.den for c in cmat.col(j))
    sol = solve(RationalMatrix(rows, len(rows), solver.nparams), rhs)
    if sol is None:
        return None
    t = RationalMatrix([sol], 1, solver.nparams)
    return solution_map_by_dot_products(solver, t.rows[0], t.den)



# -- every generator, zero values included ------------------------------------
#
# The module builders and map checks below visit every generator and object of
# the window, also where a value is zero and the action or comparison is an
# empty matrix: the loops that skipping zero ends replaced, kept as their
# references.


def coordinates_by_product(space, mat: RationalMatrix) -> RationalMatrix | None:
    """``Subspace.coordinates`` with the product check always made."""
    x = _stack_rows(((mat.rows[p], mat.den) for p in space.pivots), mat.ncols)
    return x if space.basis.transpose() * x == mat else None


def quotient_every_generator(v: TruncatedModule, spaces):
    """(dims, actions, projection blocks) of ``quotient(v, spaces)``."""
    projs = {n: quotient_map(v.dims[n], spaces[n]) for n in v.window.objects()}
    actions = {}
    for key in generator_keys(v.window, v.group):
        src, tgt = key_ends(key)
        big = projs[tgt] * v.actions[key]
        b = big.columns(spaces[src].free_columns)
        if b * projs[src] != big:
            raise ValueError(f"subspaces are not action-stable at {key}")
        actions[key] = b
    return {n: q.nrows for n, q in projs.items()}, actions, projs


def submodule_every_generator(v: TruncatedModule, spaces):
    """(dims, actions, inclusion blocks) of
    ``submodule_from_stable_subspaces(v, spaces)``."""
    actions = {}
    for key in generator_keys(v.window, v.group):
        src, tgt = key_ends(key)
        rhs = v.actions[key] * spaces[src].basis.transpose()
        restricted = coordinates_by_product(spaces[tgt], rhs)
        if restricted is None:
            raise ValueError(f"subspaces are not action-stable at {key}")
        actions[key] = restricted
    dims = {n: spaces[n].dim for n in v.window.objects()}
    return dims, actions, {n: s.basis.transpose() for n, s in spaces.items()}


def is_natural_every_generator(mp) -> bool:
    """``ModuleMap.is_natural``, comparing both sides at every generator."""
    for key in generator_keys(mp.source.window, mp.source.group):
        src, tgt = key_ends(key)
        lhs = mp.blocks[tgt] * mp.source.actions[key]
        rhs = mp.target.actions[key] * mp.blocks[src]
        if lhs != rhs:
            return False
    return True


def compose_every_object(f, g) -> dict:
    """The blocks of ``f.compose(g)``, one product per object."""
    return {n: f.blocks[n] * g.blocks[n] for n in f.blocks}


def direct_sum_every_generator(*mods):
    """(dims, actions, [inclusion blocks per summand]) of
    ``direct_sum(*mods)``."""
    w, g = mods[0].window, mods[0].group
    dims = {n: sum(v.dims[n] for v in mods) for n in w.objects()}
    actions = {key: block_diag([v.actions[key] for v in mods])
               for key in generator_keys(w, g)}
    incls = [{n: block_diag([RationalMatrix.identity(u.dims[n]) if i == j
                             else RationalMatrix.zeros(u.dims[n], 0)
                             for i, u in enumerate(mods)])
              for n in w.objects()}
             for j in range(len(mods))]
    return dims, actions, incls


def external_tensor_every_generator(v: TruncatedModule, w: TruncatedModule):
    """(dims, actions) of ``external_tensor(v, w)``."""
    group = v.group if not v.group.is_trivial() else w.group
    g_on_v = not v.group.is_trivial()
    mv = v.m
    window = Window(v.window.bound + w.window.bound)
    dims = {a + b: v.dims[a] * w.dims[b]
            for a in v.window.objects() for b in w.window.objects()}
    actions = {}
    for key in generator_keys(window, group):
        n = key[-1]
        a, b = n[:mv], n[mv:]
        on_v = g_on_v if key[0] == "grp" else key[1] <= mv
        if on_v:
            actions[key] = kron(v.actions[key[:-1] + (a,)],
                                RationalMatrix.identity(w.dims[b]))
        else:
            c = key[1] if key[0] == "grp" else key[1] - mv
            actions[key] = kron(RationalMatrix.identity(v.dims[a]),
                                w.actions[(key[0], c) + key[2:-1] + (b,)])
    return dims, actions


def ind_every_generator(v: TruncatedModule, group: GroupTable):
    """(dims, actions) of ``functors.ind(v, group)`` for a nontrivial
    group."""
    og = group.order
    lreg = regular_rep_matrices(group)
    actions = {}
    for key in generator_keys(v.window, group):
        if key[0] == "grp":
            _, j, n = key
            actions[key] = kron(RationalMatrix.identity(v.dims[n]), lreg[j])
        else:
            actions[key] = kron(v.actions[key], RationalMatrix.identity(og))
    return {n: d * og for n, d in v.dims.items()}, actions


def induced_big_actions_every_generator(s, S, w_rs: TruncatedModule,
                                        group: GroupTable, window: Window) -> dict:
    """The generator actions on the big spaces Inj(s, s') x W(t) that
    ``functors.induced_module`` restricts to its fixed subspaces."""
    S = normalize_subset(S, window.m)
    not_S = complement_subset(S, window.m)
    n_swaps = len(aut_swaps(tuple(s)))
    free_s = make_free(tuple(s), Window(tuple(window.bound[i - 1] for i in S)))
    actions = {}
    for key in generator_keys(window, group):
        s_src, t_src = split_obj(key[-1], S, not_S)
        if key[0] != "grp" and key[1] in S:
            skey = (key[0], S.index(key[1]) + 1) + key[2:-1] + (s_src,)
            actions[key] = kron(free_s.actions[skey],
                                RationalMatrix.identity(w_rs.dims[t_src]))
        else:
            c = n_swaps + key[1] if key[0] == "grp" else not_S.index(key[1]) + 1
            actions[key] = kron(RationalMatrix.identity(free_s.dims[s_src]),
                                w_rs.actions[(key[0], c) + key[2:-1] + (t_src,)])
    return actions


def shift_every_generator(v: TruncatedModule, i: int):
    """(dims, actions) of ``functors.shift(v, i)``."""
    oi = unit(v.m, i)
    window = Window(sub(v.window.bound, oi))
    actions = {}
    for key in generator_keys(window, v.group):
        up = add(key[-1], oi)
        if key[:2] == ("swap", i):
            mat = v.actions[("swap", i, key[2] + 1, up)]
        else:
            mat = v.actions[key[:-1] + (up,)]
        if key[:2] == ("incl", i):
            mat = v.actions[("swap", i, 1, add(up, oi))] * mat
        actions[key] = mat
    return {n: v.dims[add(n, oi)] for n in window.objects()}, actions


def solution_blocks_every_object(solver: NaturalitySolver) -> list:
    """The blocks of each map in ``solver.basis()``, with the product by
    the section made at every object."""
    basis = solver._kernel.basis
    out = []
    for t in basis.rows:
        blocks = {}
        for x, terms in solver._terms.items():
            cols = [(tuple(sum(map(mul, row, t[offset:offset + wm.ncols]))
                           for row in wm.rows), wm.den * basis.den)
                    for offset, wm in terms]
            blocks[x] = (_stack_rows(cols, solver.w.dims[x]).transpose()
                         * solver._sections[x])
        out.append(blocks)
    return out


def images_from_below_every_coordinate(v: TruncatedModule, S, n, below):
    """``modules._images_from_below``, also at a zero value and through a
    zero ``below``."""
    d = v.dims[n]
    span = Subspace.zero(d)
    for i in S:
        if n[i - 1] == 0:
            continue
        low = sub(n, unit(v.m, i))
        img = v.actions[("incl", i, low)]
        if below is not None:
            img = img * below[low].basis.transpose()
        if img.is_zero():
            continue
        vecs = list(span.basis.rows) + list(img.transpose().rows)
        for k in range(1, n[i - 1]):
            img = v.actions[("swap", i, k, n)] * img
            vecs += img.transpose().rows
        span = Subspace.from_spanning(d, vecs)
        if span.dim == d:
            return span
    return span


def torsion_by_composites(v: TruncatedModule, S) -> dict:
    """The S-torsion spaces by the route ``detect_torsion`` once took: at
    each object n, the kernel of the composite of canonical inclusions that
    raises each coordinate of S in turn to its window bound (all of V(n)
    once the composite meets a zero value), closed under the action."""
    S = normalize_subset(S, v.m)
    seeds = {}
    for n in v.window.objects():
        target = list(n)
        for i in S:
            target[i - 1] = v.window.bound[i - 1]
        if tuple(target) == n or v.dims[n] == 0:
            seeds[n] = Subspace.zero(v.dims[n])
            continue
        mat, cur = RationalMatrix.identity(v.dims[n]), n
        for i in (i for i in S for _ in range(n[i - 1], v.window.bound[i - 1])):
            nxt = add(cur, unit(v.m, i))
            if v.dims[nxt] == 0:
                seeds[n] = Subspace.full(v.dims[n])
                break
            mat, cur = v.actions[("incl", i, cur)] * mat, nxt
        else:
            seeds[n] = kernel_basis(mat)
    return close_under_actions(v, seeds)


def torsion_by_definition(v: TruncatedModule, S) -> dict:
    """The S-torsion spaces from the definition: at each object n, the
    union of the kernels of V(f), by :func:`evaluate`, over every window
    morphism f: n -> n' != n, group part included, that raises only
    coordinates in S.  The union is a subspace because one of the kernels
    holds all the others; AssertionError if none does."""
    S = normalize_subset(S, v.m)
    out = {}
    for n in v.window.objects():
        kernels = [Subspace.zero(v.dims[n])]
        for tgt in v.window.objects():
            if tgt == n or not leq(n, tgt) or any(
                    tgt[j] != n[j] for j in range(v.m) if j + 1 not in S):
                continue
            for mor in enumerate_injections(n, tgt):
                for g in range(v.group.order):
                    kernels.append(kernel_basis(
                        evaluate(v, Morphism(n, tgt, mor.maps, g))))
        union = max(kernels, key=lambda k: k.dim)
        if any(k.add(union) != union for k in kernels):
            raise AssertionError(f"no kernel at {n} holds all the others")
        out[n] = union
    return out


# -- partitions and classes of S_n --------------------------------------------


@lru_cache(maxsize=None)
def partitions_of(n: int):
    """All partitions of n, descending lexicographic, (n) first."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)

    def gen(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(gen(n, n))


def cycle_type_class_size(mu, n: int) -> int:
    counts = {}
    for part in mu:
        counts[part] = counts.get(part, 0) + 1
    z = prod((k ** c) * factorial(c) for k, c in counts.items())
    return factorial(n) // z


def class_representative(mu, n: int) -> tuple:
    """A permutation of [n] with cycle type mu, as an image tuple."""
    img = list(range(1, n + 1))
    start = 1
    for part in mu:
        for x in range(start, start + part - 1):
            img[x - 1] = x + 1
        img[start + part - 2] = start
        start += part
    return tuple(img)


# -- Murnaghan-Nakayama -------------------------------------------------------


def _beta_set(lam, length: int):
    lam = tuple(lam) + (0,) * (length - len(lam))
    return frozenset(lam[i] + (length - 1 - i) for i in range(length))


@lru_cache(maxsize=None)
def _mn(beta: frozenset, mu: tuple) -> int:
    if not mu:
        return 1
    k = mu[0]
    rest = mu[1:]
    total = 0
    for b in beta:
        nb = b - k
        if nb >= 0 and nb not in beta:
            height = sum(1 for x in beta if nb < x < b)
            total += (-1) ** height * _mn(beta - {b} | {nb}, rest)
    return total


def mn_character(lam, mu) -> int:
    """chi^lam evaluated on the class of cycle type mu."""
    lam = check_partition(lam) if lam else ()
    n = sum(lam)
    if sum(mu) != n:
        raise ValueError("cycle type has the wrong size")
    if n == 0:
        return 1
    return _mn(_beta_set(lam, n), tuple(sorted(mu, reverse=True)))


@dataclass(frozen=True)
class CharacterVector:
    """Values of a class function of S_n, indexed by partitions_of(n)."""

    n: int
    values: tuple

    def at(self, mu) -> Fraction:
        return self.values[partitions_of(self.n).index(tuple(mu))]

    @property
    def dim(self) -> Fraction:
        return self.at((1,) * self.n) if self.n else self.values[0]


def character(lam) -> CharacterVector:
    lam = check_partition(lam) if lam else ()
    n = sum(lam)
    vals = tuple(Fraction(mn_character(lam, mu)) for mu in partitions_of(n))
    return CharacterVector(n, vals)


def character_inner(a: CharacterVector, b: CharacterVector) -> Fraction:
    if a.n != b.n:
        raise ValueError("characters of different groups")
    n = a.n
    total = Fraction(0)
    for mu, x, y in zip(partitions_of(n), a.values, b.values):
        total += cycle_type_class_size(mu, n) * x * y
    return total / factorial(n)


# -- rational character tables for table groups -------------------------------


def _char_poly(mat: RationalMatrix):
    """Faddeev-LeVerrier: coefficients of det(tI - M), highest first."""
    n = mat.nrows
    coeffs = [Fraction(1)]
    m = RationalMatrix.zeros(n, n)
    ident = RationalMatrix.identity(n)
    for k in range(1, n + 1):
        m = mat * m + ident.scale(coeffs[-1])
        coeffs.append(-trace(mat * m) / k)
    return coeffs


@dataclass(frozen=True)
class GroupCharacterTable:
    group: GroupTable
    classes: tuple  # tuple of sorted element tuples, identity class first
    table: tuple  # rows: irreducible characters, values per class

    @property
    def n_irreps(self):
        return len(self.table)

    def class_of(self, g: int) -> int:
        for i, cls in enumerate(self.classes):
            if g in cls:
                return i
        raise ValueError("element not in any class")


class IrrationalCharacterError(ValueError):
    """Raised when a group has irrational character values (unsupported)."""


@lru_cache(maxsize=None)
def rational_character_table(group: GroupTable) -> GroupCharacterTable:
    """Character table by splitting class-sum matrices over Q.

    Works exactly for groups whose character table is rational (symmetric
    groups, elementary abelian 2-groups, ...); raises
    IrrationalCharacterError otherwise.
    """
    classes = tuple(conjugacy_classes(group))
    r = len(classes)
    class_index = [0] * group.order
    for ci, cls in enumerate(classes):
        for g in cls:
            class_index[g] = ci
    # class multiplication: C_i C_j = sum_k a_ijk C_k, computed by counting.
    mats = []
    for i in range(r):
        rows = [[Fraction(0)] * r for _ in range(r)]
        for j in range(r):
            rep = classes[j][0]
            counts = [0] * r
            for x in classes[i]:
                counts[class_index[group.mult[x][rep]]] += 1
            # coefficient of C_k in C_i * C_j, as operator on class space
            for k in range(r):
                if counts[k]:
                    rows[k][j] = Fraction(counts[k])
        mats.append(RationalMatrix(rows))
    # split the class space into common eigenspaces
    spaces = [RationalMatrix.identity(r)]
    for m in mats:
        new_spaces = []
        for basis in spaces:
            if basis.nrows == 1:
                new_spaces.append(basis)
                continue
            # action of m on the subspace: m * basis^T = basis^T * a
            bt = basis.transpose()
            a = solve_matrix(bt, m * bt)
            if a is None:
                raise IrrationalCharacterError(
                    "class-sum action failed to restrict (irrational table?)"
                )
            found_dim = 0
            for eig in rational_roots(_char_poly(a)):
                ker = kernel_basis(a - RationalMatrix.identity(a.nrows).scale(eig))
                if ker.dim == 0:
                    continue
                new_spaces.append(ker.basis * basis)
                found_dim += ker.dim
            if found_dim != basis.nrows:
                raise IrrationalCharacterError(
                    "class-sum matrix does not split rationally; "
                    "the character table of this group is not rational"
                )
        spaces = new_spaces
    if any(s.nrows != 1 for s in spaces) or len(spaces) != r:
        raise IrrationalCharacterError(
            "character table of this group is not rational"
        )
    # each 1-dim space carries the central character omega
    inv_class = [class_index[group.inverse[classes[i][0]]] for i in range(r)]
    rows = []
    for s in spaces:
        omega = [s[0, j] for j in range(s.ncols)]
        if omega[0] == 0:
            raise IrrationalCharacterError("degenerate central character")
        omega = [x / omega[0] for x in omega]
        denom = Fraction(0)
        for j in range(r):
            denom += omega[j] * omega[inv_class[j]] / len(classes[j])
        dim = _fraction_sqrt(Fraction(group.order) / denom)
        if dim is None:
            raise IrrationalCharacterError("non-square dimension; irrational table")
        chi = [omega[j] * dim / len(classes[j]) for j in range(r)]
        rows.append(tuple(chi))
    rows.sort(key=lambda chi: (chi[0], chi))
    return GroupCharacterTable(group, classes, tuple(rows))


def _fraction_sqrt(x: Fraction):
    if x < 0:
        return None
    rn = _isqrt(x.numerator)
    rd = _isqrt(x.denominator)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def _isqrt(x: int):
    if x < 0:
        return None
    r = int(x**0.5)
    for cand in (r - 1, r, r + 1, r + 2):
        if cand >= 0 and cand * cand == x:
            return cand
    return None


# -- decomposition of product-group representations ---------------------------


@dataclass
class ProductRep:
    """Matrices of a representation of S_{n_1} x ... x S_{n_m} x G.

    swap_mats[(i, k)] is the matrix of the adjacent transposition (k, k+1)
    acting in coordinate i; group_mats[j] the matrix of the j-th generator
    of G.
    """

    ns: tuple
    group: GroupTable
    dim: int
    swap_mats: dict
    group_mats: list

    def validate(self):
        per_coord = [[self.swap_mats[(i, k)] for k in range(1, n)]
                     for i, n in enumerate(self.ns, start=1)]
        for gens in per_coord:
            for g in gens:
                if g.shape != (self.dim, self.dim):
                    raise ValueError("swap matrix has wrong shape")
            _check_coxeter(gens, self.dim)
        # distinct coordinates commute; group commutes with everything
        for a in range(len(per_coord)):
            for b in range(a + 1, len(per_coord)):
                for x in per_coord[a]:
                    for y in per_coord[b]:
                        if not (x * y == y * x):
                            raise ValueError("coordinate actions do not commute")
        for gm in self.group_mats:
            for x in itertools.chain.from_iterable(per_coord):
                if not (gm * x == x * gm):
                    raise ValueError("group action does not commute with Aut")
        # generator matrices must satisfy the group table
        rho = _rep_elements(self.group, self.group_mats, self.dim)
        for a in range(self.group.order):
            for b in range(self.group.order):
                if not (rho[a] * rho[b] == rho[self.group.mult[a][b]]):
                    raise ValueError("group relations fail")

    def perm_matrix(self, i: int, img: tuple) -> RationalMatrix:
        mat = RationalMatrix.identity(self.dim)
        for k in perm_to_adjacent(img):
            mat = mat * self.swap_mats[(i, k)]
        return mat


def aut_rep_at(v: TruncatedModule, n) -> ProductRep:
    """The Aut(n) x G representation carried by the value at n."""
    n = tuple(n)
    swap_mats = {(i, k): v.actions[("swap", i, k, n)] for i, k in aut_swaps(n)}
    group_mats = [
        v.actions[("grp", j, n)] for j in range(len(v.group.generators))
    ]
    return ProductRep(
        ns=n, group=v.group, dim=v.dims[n], swap_mats=swap_mats,
        group_mats=group_mats,
    )


def decompose(rep: ProductRep) -> dict:
    """Multiplicities of the irreducibles of S_{n_1} x ... x S_{n_m} x G.

    Keys are (tuple of partitions, G-irrep index); the G-irrep index refers
    to the row of rational_character_table(G).  Raises when the relations
    fail or when G has an irrational character table.
    """
    rep.validate()
    gtable = rational_character_table(rep.group)
    rho = _rep_elements(rep.group, rep.group_mats, rep.dim)
    coord_classes = [partitions_of(n) for n in rep.ns]

    # character of rep on a product class: trace of the product of the
    # coordinate representatives and the G representative.
    def rep_trace(mus, gclass_idx):
        mat = RationalMatrix.identity(rep.dim)
        for i, (mu, n) in enumerate(zip(mus, rep.ns), start=1):
            mat = mat * rep.perm_matrix(i, class_representative(mu, n))
        return trace(mat * rho[gtable.classes[gclass_idx][0]])

    order = prod(factorial(n) for n in rep.ns) * rep.group.order
    ginv_class = [
        gtable.class_of(rep.group.inverse[cls[0]]) for cls in gtable.classes
    ]
    traces = {}
    for mus in itertools.product(*coord_classes):
        for gc in range(len(gtable.classes)):
            traces[(mus, gc)] = rep_trace(mus, gc)
    result = {}
    for lams in itertools.product(*coord_classes):
        for irr_idx in range(gtable.n_irreps):
            total = Fraction(0)
            for mus in itertools.product(*coord_classes):
                size = prod(
                    cycle_type_class_size(mu, n) for mu, n in zip(mus, rep.ns)
                )
                schar = prod(mn_character(lam, mu) for lam, mu in zip(lams, mus))
                if schar == 0:
                    continue
                for gc in range(len(gtable.classes)):
                    gsize = len(gtable.classes[gc])
                    # chi_irr on the inverse class pairs with the rep trace
                    gval = gtable.table[irr_idx][ginv_class[gc]]
                    if gval == 0:
                        continue
                    total += size * gsize * schar * gval * traces[(mus, gc)]
            mult = total / order
            if mult:
                if mult.denominator != 1 or mult < 0:
                    raise ValueError(
                        f"non-integral multiplicity {mult}; invalid representation"
                    )
                result[(lams, irr_idx)] = int(mult)
    total_dim = sum(
        mult * prod(hook_length_dim(lam) for lam in lams)
        * int(gtable.table[irr][0])
        for (lams, irr), mult in result.items()
    )
    if total_dim != rep.dim:
        raise ValueError(
            f"multiplicities account for dim {total_dim}, rep has dim {rep.dim}"
        )
    return result
