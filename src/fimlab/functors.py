"""Shift, kernel and derivative functors, their composites over coordinate
subsets, the induced-module functor F_s with the induced modules M(lambda)
built through it, and the group induction/restriction pair with its
averaging splitting.

Window accounting: one application of the shift in coordinate i consumes one
unit of window in that coordinate; operations raise MarginError instead of
returning boundary data of unknown validity.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, prod

from .category import (
    GroupTable,
    Window,
    add,
    aut_orbit_table,
    aut_swaps,
    generator_index_map,
    injection_index_table,
    leq,
    rekey,
    split_generators,
    sub,
    unit,
    window_generators,
)
from .linalg import (
    RationalMatrix,
    block_diag,
    image_basis,
    kernel_basis,
    kron,
    _make,
    _stack_rows,
)
from .modules import (
    MarginError,
    ModuleMap,
    Presentation,
    TruncatedModule,
    _specht_swaps,
    cover_blocks,
    direct_sum,
    make_free,
    make_free_sum,
    quotient,
    restrict_window,
    submodule_from_stable_subspaces,
)
from .symrep import GroupRep, coxeter_failures, group_failures, regular_rep_matrices, specht


def normalize_subset(S, m: int) -> tuple:
    S = tuple(sorted(set(int(i) for i in S)))
    if not S and m:
        raise ValueError("coordinate subset must be nonempty")
    if any(not (1 <= i <= m) for i in S):
        raise ValueError(f"subset {S} out of range for m={m}")
    return S


def complement_subset(S, m: int) -> tuple:
    return tuple(i for i in range(1, m + 1) if i not in set(S))


# -- the shift functor -----------------------------------------------------


def shift(v: TruncatedModule, i: int) -> TruncatedModule:
    """Precompose with the self-embedding adding one point in coordinate i.

    The only generator whose transport needs a non-generator morphism is the
    coordinate-i inclusion, where the added point forces one extra adjacent
    swap: V(iota(incl_i)) = V(swap_(i,1)) V(incl_i) one level up.
    """
    m = v.m
    if not (1 <= i <= m):
        raise ValueError(f"coordinate {i} out of range for m={m}")
    if v.window.bound[i - 1] < 1:
        raise MarginError(f"window margin exhausted in coordinate {i}")
    oi = unit(m, i)
    new_window = Window(sub(v.window.bound, oi))
    dims = {n: v.dims[add(n, oi)] for n in new_window.objects()}
    live, rest = split_generators(new_window, v.group, dims, dims)
    actions = {key: RationalMatrix.zeros(dims[tgt], dims[src]) for key, src, tgt in rest}
    for key, _, _ in live:
        up = add(key[-1], oi)
        if key[:2] == ("swap", i):
            mat = v.actions[("swap", i, key[2] + 1, up)]
        else:
            mat = v.actions[rekey(key, key[1], up)]
        if key[:2] == ("incl", i):
            mat = v.actions[("swap", i, 1, add(up, oi))] * mat
        actions[key] = mat
    # shifting preserves generation and relation degree bounds
    return TruncatedModule(new_window, v.group, dims, actions, v.presentation,
                           f"Shift{i}({v.name})" if v.name else "")


def canonical_map(v: TruncatedModule, i: int) -> ModuleMap:
    """The natural transformation V -> Shift_i V (blocks: inclusion action)."""
    shifted = shift(v, i)
    restricted = restrict_window(v, shifted.window)
    blocks = {
        n: v.actions[("incl", i, n)] for n in shifted.window.objects()
    }
    return ModuleMap(restricted, shifted, blocks)


def kernel_functor(v: TruncatedModule, i: int) -> TruncatedModule:
    """K_i V: objectwise kernel of the canonical map, with its actions."""
    can = canonical_map(v, i)
    spaces = {n: kernel_basis(b) for n, b in can.blocks.items()}
    mod, _ = submodule_from_stable_subspaces(can.source, spaces, None,
                                             f"K{i}({v.name})" if v.name else "")
    return mod


def derivative(v: TruncatedModule, i: int) -> TruncatedModule:
    """D_i V: objectwise cokernel of the canonical map."""
    can = canonical_map(v, i)
    spaces = {n: image_basis(b) for n, b in can.blocks.items()}
    mod, _ = quotient(can.target, spaces,
                      name=f"D{i}({v.name})" if v.name else "")
    mod.presentation = _derivative_presentation(v.presentation, i, v.m)
    return mod


def _derivative_presentation(pres, i: int, m: int):
    if pres is None:
        return None
    slots = []
    for obj, lab in pres.generator_slots:
        if obj[i - 1] >= 1:
            slots.append((sub(obj, unit(m, i)), None))
    rb = pres.relation_bound
    if rb is not None:
        rb = tuple(max(0, x - (1 if j == i - 1 else 0)) for j, x in enumerate(rb))
    return Presentation(tuple(slots), rb, pres.observed_only)


# -- composites over a subset ---------------------------------------------


def shift_prod(v: TruncatedModule, S, n: int) -> TruncatedModule:
    """(prod_{i in S} Shift_i)^n; ascending coordinate order (the two orders
    produce identical data, asserted in the test suite)."""
    S = normalize_subset(S, v.m)
    if n < 0:
        raise ValueError("negative shift power")
    for i in S:
        if v.window.bound[i - 1] < n:
            raise MarginError(
                f"window cannot absorb {n} shifts in coordinate {i}"
            )
    out = v
    for _ in range(n):
        for i in S:
            out = shift(out, i)
    return out


def _common_reduced_window(v: TruncatedModule, S) -> Window:
    bound = list(v.window.bound)
    for i in S:
        bound[i - 1] -= 1
        if bound[i - 1] < 0:
            raise MarginError(f"window margin exhausted in coordinate {i}")
    return Window(tuple(bound))


def _functor_sum(functor, v: TruncatedModule, S) -> TruncatedModule:
    """The direct sum of ``functor(v, i)`` over i in S, on the common
    reduced window."""
    S = normalize_subset(S, v.m)
    w = _common_reduced_window(v, S)
    total, _ = direct_sum(*[restrict_window(functor(v, i), w) for i in S])
    return total


def shift_sum(v: TruncatedModule, S) -> TruncatedModule:
    return _functor_sum(shift, v, S)


def derivative_sum(v: TruncatedModule, S) -> TruncatedModule:
    return _functor_sum(derivative, v, S)


def kernel_sum(v: TruncatedModule, S) -> TruncatedModule:
    return _functor_sum(kernel_functor, v, S)


# -- group factor: aut tables, Ind/Res, averaging --------------------------


def aut_table(s) -> GroupTable:
    """Aut(s) = S_{s_1} x ... x S_{s_k}, the left fold of ``GroupTable.product``
    (no table); its generators are the swaps of ``aut_swaps(s)``, in order."""
    table = GroupTable.trivial()
    for x in s:
        table = GroupTable.product(table, GroupTable.symmetric(x))
    return table


def rs_group(s, group: GroupTable) -> GroupTable:
    """Aut(s) x G: the group carried by slice modules at s.  Built once per
    (s, group, name) and shared; a ``GroupTable`` is immutable."""
    return _rs_group(tuple(s), group, group.name)


@lru_cache(maxsize=None)
def _rs_group(s, group: GroupTable, name: str) -> GroupTable:
    # GroupTable equality ignores the name, but the product's name is built
    # from it, so C2 and S2 must not share an entry
    return GroupTable.product(aut_table(s), group)


def ind(v: TruncatedModule, group: GroupTable) -> TruncatedModule:
    """V (x) kG: multiply dims by |G| with the left regular action.

    The basis pairs each basis vector with the group elements, group index
    fastest, matching the free-module convention.
    """
    if not v.group.is_trivial():
        raise ValueError("ind expects a module with trivial group factor")
    if group.is_trivial():
        return v
    og = group.order
    ident_g = RationalMatrix.identity(og)
    lreg = regular_rep_matrices(group)
    dims = {n: d * og for n, d in v.dims.items()}
    live, rest = split_generators(v.window, group, dims, dims)
    actions = {key: RationalMatrix.zeros(dims[tgt], dims[src]) for key, src, tgt in rest}
    for key, _, _ in live:
        if key[0] == "grp":
            _, j, n = key
            actions[key] = kron(RationalMatrix.identity(v.dims[n]), lreg[j])
        else:
            actions[key] = kron(v.actions[key], ident_g)
    return TruncatedModule(v.window, group, dims, actions, v.presentation,
                           f"Ind({v.name})" if v.name else "")


def res(v: TruncatedModule) -> TruncatedModule:
    """Forget the group action (the categories share objects)."""
    triv = GroupTable.trivial()
    actions = {
        key: v.actions[key]
        for key, _, _ in window_generators(v.window, triv)
    }
    return TruncatedModule(v.window, triv, dict(v.dims), actions,
                           v.presentation, f"Res({v.name})" if v.name else "")


def averaging_splitting(v: TruncatedModule):
    """The pair phi: V -> Ind(Res V), eps: Ind(Res V) -> V with
    eps o phi = id; phi averages over the group orbit.

    On the basis (r, g) of Ind(Res V)(n), group index fastest, row (r, g)
    of phi is row r of rho(g^-1) / |G|, and eps sends (c, g) to column c of
    rho(g)."""
    group = v.group
    w = ind(res(v), group)
    og = group.order
    phi_blocks = {}
    eps_blocks = {}
    for n in v.window.objects():
        d = v.dims[n]
        rho = v.group_elements_at(n)
        inv = [rho[group.inverse[g]] for g in range(og)]
        phi_blocks[n] = _stack_rows(
            ((a.rows[r], a.den * og) for r in range(d) for a in inv), d)
        # column (c, g) of eps is row c of rho(g)^T
        rho_t = [rho[g].transpose() for g in range(og)]
        eps_blocks[n] = _stack_rows(
            ((a.rows[c], a.den) for c in range(d) for a in rho_t), d).transpose()
    return ModuleMap(v, w, phi_blocks), ModuleMap(w, v, eps_blocks)


# -- the induced module functor F_s ----------------------------------------


def interleave(S, not_S, s_part, t_part) -> tuple:
    m = len(S) + len(not_S)
    out = [0] * m
    for pos, i in enumerate(S):
        out[i - 1] = s_part[pos]
    for pos, i in enumerate(not_S):
        out[i - 1] = t_part[pos]
    return tuple(out)


def split_obj(n, S, not_S):
    return (
        tuple(n[i - 1] for i in S),
        tuple(n[i - 1] for i in not_S),
    )


def _swap_values(s, w_rs: TruncatedModule, t) -> dict:
    """W at t on the identity and the swaps of Aut(s), by their index in
    Inj(s, s), which indexes ``rs_group(s, 1)`` alike.  Swaps that break
    a Coxeter relation are not a representation of Aut(s): ValueError."""
    swaps = {ik: w_rs.actions[("grp", j, t)] for j, ik in enumerate(aut_swaps(s))}
    ident = RationalMatrix.identity(w_rs.dims[t])
    failures = coxeter_failures(swaps, ident, t)
    if failures:
        raise ValueError(f"the Aut{s} generators of {w_rs.name or 'W'} do not act "
                         f"as a representation: {failures[0]}")
    aut = rs_group(s, GroupTable.trivial())
    return {0: ident, **dict(zip(aut.generators, swaps.values()))}


def _block_monomial(blocks, nrow_blocks: int, ncol_blocks: int, d: int) -> RationalMatrix:
    """The matrix of d x d blocks, nrow_blocks by ncol_blocks, that is zero
    but for block (p, o) = mat for each p -> (o, mat) of ``blocks``."""
    width = ncol_blocks * d
    zero = (0,) * width
    pairs = []
    for p in range(nrow_blocks):
        if p in blocks:
            o, mat = blocks[p]
            left, right = (0,) * (o * d), (0,) * (width - (o + 1) * d)
            pairs += [(left + row + right, mat.den) for row in mat.rows]
        else:
            pairs += [(zero, 1)] * d
    dens = {mat.den for _, mat in blocks.values()}
    if len(dens) > 1:
        return _stack_rows(pairs, width)
    # reduced blocks over one denominator make a reduced matrix
    return _make(tuple(row for row, _ in pairs), dens.pop() if dens else 1,
                 nrow_blocks * d, width)


def _orbits(s, s_part) -> tuple:
    """:func:`aut_orbit_table` of Inj(s, s_part); no orbit, and no
    injection, when s does not embed in s_part."""
    return aut_orbit_table(s, s_part) if leq(s, s_part) else ((), ())


def induced_module(s, S, w_rs: TruncatedModule, group: GroupTable,
                   window: Window, name: str = "") -> TruncatedModule:
    """F_s(W): the induced module of an R_s-module along the coordinate
    subset S.

    ``w_rs`` lives over the complement coordinates and carries the product
    group Aut(s) x G (aut generators first).  The value at (s' x t) is the
    vectors of Inj(s, s') x W(t) fixed by each swap sigma of Aut(s),
    beta -> beta o sigma paired with W(sigma), written down: Aut(s) acts
    freely, so basis vector (O, k) of an orbit O with lowest injection r
    (:func:`aut_orbit_table`) is e_k at r and W(tau)^-1 e_k at r o tau.
    These are the RREF basis rows of the fixed space, as the orbits are
    disjoint and r's block comes first in O.  An S-coordinate generator g
    sends (O, k) to W(tau) e_k in the orbit of r', where g o r = r' o tau;
    a complement or group generator acts as W(g) on each orbit.  So W is
    read only at the swaps of Aut(s) (:func:`_swap_values`) where W(t) is
    nonzero; a W whose Aut(s) generators are not a representation raises
    ValueError.
    """
    m = window.m
    S = normalize_subset(S, m)
    not_S = complement_subset(S, m)
    s = tuple(s)
    if len(s) != len(S):
        raise ValueError("inducing object must match the subset length")
    if w_rs.m != len(not_S):
        raise ValueError("R_s module has wrong number of coordinates")
    expected_group = rs_group(s, group)
    if w_rs.group != expected_group:
        raise ValueError("R_s module must carry the group Aut(s) x G")
    for pos, i in enumerate(not_S):
        if window.bound[i - 1] != w_rs.window.bound[pos]:
            raise ValueError("window mismatch on complement coordinates")
    for pos, i in enumerate(S):
        if window.bound[i - 1] < s[pos]:
            raise MarginError("window too small for the inducing object")

    # the value at (s' x t) has the basis (O, k): orbit O of Inj(s, s'),
    # by its lowest index r, and basis vector k of W(t)
    parts, dims, values = {}, {}, {}
    for n in window.objects():
        s_part, t_part = split_obj(n, S, not_S)
        reps, split = _orbits(s, s_part)
        parts[n] = s_part, t_part, reps, split
        d_w = w_rs.dims[t_part]
        dims[n] = len(reps) * d_w
        expected = prod(comb(a, b) for a, b in zip(s_part, s)) * d_w
        if dims[n] != expected:
            raise ValueError(f"induced value at {n} has dimension "
                             f"{dims[n]}, expected {expected}")
        if dims[n] and t_part not in values:
            values[t_part] = _swap_values(s, w_rs, t_part)

    live, rest = split_generators(window, group, dims, dims)
    actions = {key: RationalMatrix.zeros(dims[tgt], dims[src]) for key, src, tgt in rest}
    n_swaps = len(aut_swaps(s))
    for key, src, tgt in live:
        s_src, t_src, reps, _ = parts[src]
        d_w = w_rs.dims[t_src]
        if key[0] != "grp" and key[1] in S:
            # g o r = r' o tau sends (O, k) to W(tau) e_k in the orbit of r';
            # tau is the identity or an adjacent swap, its own inverse
            _, _, tgt_reps, split = parts[tgt]
            step = generator_index_map(s, rekey(key, S.index(key[1]) + 1, s_src))
            vals = values[t_src]
            blocks = {}
            for o, r in enumerate(reps):
                p, tau = split[step[r]]
                blocks[p] = (o, vals[tau])
            actions[key] = _block_monomial(blocks, len(tgt_reps), len(reps), d_w)
        else:
            # a complement or group generator commutes with Aut(s): W(g) on
            # every orbit; G sits after the aut generators in the product group
            c = n_swaps + key[1] if key[0] == "grp" else not_S.index(key[1]) + 1
            mat = w_rs.actions[rekey(key, c, t_src)]
            actions[key] = mat if len(reps) == 1 else block_diag([mat] * len(reps))

    pres = _induced_presentation(s, S, not_S, w_rs, m)
    return TruncatedModule(window, group, dims, actions, pres,
                           name or f"F_{s}({w_rs.name})")


def make_induced(lambdas, window: Window, group: GroupTable | None = None,
                 g_rep=None, name: str = "") -> TruncatedModule:
    """M(lambda) = F_n(X), n = |lambda|: F_s of :func:`induced_module` along
    every coordinate, of the FI^0 module X = (outer
    Specht product) x (group rep) on which Aut(n) acts by the Specht swaps
    and G by ``g_rep``.

    ``g_rep`` is a symrep.GroupRep for the group factor (default trivial).
    One that is not a representation (:func:`~fimlab.symrep.group_failures`)
    raises ValueError.  F_s checks the Specht swaps by the Coxeter relations.
    """
    group = group or GroupTable.trivial()
    lambdas = tuple(tuple(l) for l in lambdas)
    if window.m != len(lambdas):
        raise ValueError("need one partition per coordinate")
    n = tuple(sum(l) for l in lambdas)
    if not window.contains(n):
        raise MarginError(f"generator object {n} lies outside the window")
    if g_rep is None:
        g_rep = GroupRep.trivial(group)
    spechts = [specht(l) for l in lambdas]
    dim_s = prod(r.dim for r in spechts)
    mats = _specht_swaps(n, spechts, g_rep.dim)
    mats += [kron(RationalMatrix.identity(dim_s), r) for r in g_rep.gen_mats]
    x = TruncatedModule(Window(()), rs_group(n, group), {(): dim_s * g_rep.dim},
                        {("grp", j, ()): mat for j, mat in enumerate(mats)})
    failures = group_failures(group, g_rep.gen_mats, g_rep.dim, "g_rep")
    if failures:
        raise ValueError(f"g_rep is not a representation: {failures[0]}")
    pres = Presentation.make([(n, lambdas)], n)
    name = name or f"M{lambdas}"
    if not window.m:  # F_() is the identity on FI^0 modules
        return TruncatedModule(window, group, x.dims, x.actions, pres, name)
    mod = induced_module(n, range(1, window.m + 1), x, group, window, name)
    mod.presentation = pres
    return mod


def _induced_presentation(s, S, not_S, w_rs, m):
    if w_rs.presentation is None:
        return None
    slots = []
    for obj, _ in w_rs.presentation.generator_slots:
        slots.append((interleave(S, not_S, s, obj), None))
    rb = w_rs.presentation.relation_bound
    rel = None if rb is None else interleave(S, not_S, s, rb)
    return Presentation(tuple(slots), rel, w_rs.presentation.observed_only)


# -- explicit free-module decompositions (shift and derivative) ------------


def _shift_generators(n, i: int, shifted: TruncatedModule) -> list:
    """Generator values of the Lemma 2.3 isomorphism in Shift_i F(n) =
    F(n)(- + o_i), whose new point is 1 in coordinate i: at n, the injection
    n -> n + o_i missing it; at n - o_i, for x0 = 1..n_i, the automorphism
    of n sending x0 to it and the points before x0 one up.  The first is
    dropped when n lies outside the shifted window.  As [(object, lifts)]
    for :func:`cover_blocks`."""
    m = len(n)
    og = shifted.group.order

    def unit_vector(obj, img):
        maps = tuple(img if j == i - 1 else tuple(range(1, x + 1))
                     for j, x in enumerate(n))
        r = injection_index_table(n, add(obj, unit(m, i)))[maps] * og
        return tuple(int(k == r) for k in range(shifted.dims[obj]))

    gens = []
    if shifted.window.contains(n):
        gens.append((n, [unit_vector(n, tuple(range(2, n[i - 1] + 2)))]))
    if n[i - 1]:
        lower = sub(n, unit(m, i))
        gens.append((lower, [
            unit_vector(lower, tuple(1 if y == x0 else y + 1 if y < x0 else y
                                     for y in range(1, n[i - 1] + 1)))
            for x0 in range(1, n[i - 1] + 1)]))
    return gens


def _lower_copies(n, i: int) -> list:
    """The generator objects of the n_i summands M(n - o_i) of Lemma 2.3."""
    if not n[i - 1]:
        return []
    return [sub(n, unit(len(n), i))] * n[i - 1]


def shift_free_decomposition(n, i: int, window: Window,
                             group: GroupTable | None = None):
    """The isomorphism M(n) + M(n - o_i)^(n_i) -> Shift_i M(n) of Lemma 2.3,
    the Yoneda map from the generator values of :func:`_shift_generators`.
    Returns (iso, big, shifted)."""
    group = group or GroupTable.trivial()
    n = tuple(n)
    free = make_free(n, window, group)
    shifted = shift(free, i)
    w2 = shifted.window
    big, _ = direct_sum(restrict_window(free, w2),
                        make_free_sum(_lower_copies(n, i), w2, group))
    gens = _shift_generators(n, i, shifted)
    iso = ModuleMap(big, shifted, cover_blocks(shifted, gens))
    return iso, big, shifted


def derivative_free_decomposition(n, i: int, window: Window,
                                  group: GroupTable | None = None):
    """The isomorphism M(n - o_i)^(n_i) -> D_i M(n), the Yoneda map from the
    automorphism generator values of :func:`_shift_generators` pushed
    through the projection Shift_i M(n) -> D_i M(n).  Returns (iso, big,
    derived)."""
    group = group or GroupTable.trivial()
    n = tuple(n)
    can = canonical_map(make_free(n, window, group), i)
    derived, proj = quotient(can.target, {t: image_basis(b) for t, b in can.blocks.items()})
    big = make_free_sum(_lower_copies(n, i), derived.window, group)
    gens = [(obj, [proj.blocks[obj].apply(u) for u in lifts])
            for obj, lifts in _shift_generators(n, i, can.target) if obj != n]
    iso = ModuleMap(big, derived, cover_blocks(derived, gens))
    return iso, big, derived
