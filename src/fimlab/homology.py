"""Torsion theory, slices, homology in degrees 0 and 1, homological degrees,
and detection of induced / semi-induced structure with checkable witnesses.

Status discipline: every result that speaks about the untruncated module
carries one of three flags.  EXACT requires a presentation whose degrees fit
inside the window (generators for degree-0 statements, generators and
relations for degree-1 and torsion statements); WINDOW_BOUNDED means the
reported data is exact for the truncated module but only a bound for the
infinite one; INCONCLUSIVE marks searches that hit the boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .category import (
    GroupTable,
    Window,
    add,
    aut_swaps,
    count_injections,
    degree,
    rekey,
    unit,
    window_generators,
)
from .linalg import RationalMatrix, Subspace, kernel_basis, quotient_map, _stack_rows
from .modules import (
    ModuleMap,
    Presentation,
    TruncatedModule,
    _orbit_walk,
    close_under_actions,
    generators_and_cover,
    make_free_sum,
    positive_degree_image,
    quotient,
    submodule_from_stable_subspaces,
    zero_module,
)
from .functors import (
    complement_subset,
    induced_module,
    interleave,
    normalize_subset,
    rs_group,
    split_obj,
    _orbits,
)

EXACT = "EXACT"
WINDOW_BOUNDED = "WINDOW_BOUNDED"
INCONCLUSIVE = "INCONCLUSIVE"

_TRIV = GroupTable.trivial()


# -- slices ---------------------------------------------------------------


def slice_module(v: TruncatedModule, s, S) -> TruncatedModule:
    """V[[s]]: the restriction to a fixed S-part, as a module over the
    complement coordinates with group Aut(s) x G (aut generators first)."""
    S = normalize_subset(S, v.m)
    not_S = complement_subset(S, v.m)
    s = tuple(s)
    group = rs_group(s, v.group)
    new_window = Window(tuple(v.window.bound[i - 1] for i in not_S))
    dims = {}
    for t in new_window.objects():
        dims[t] = v.dims[interleave(S, not_S, s, t)]
    actions = {}
    aut_gens = aut_swaps(s)
    for key, _, _ in window_generators(new_window, group):
        full = interleave(S, not_S, s, key[-1])
        j = key[1]
        if key[0] != "grp":
            actions[key] = v.actions[rekey(key, not_S[j - 1], full)]
        elif j < len(aut_gens):
            pos, k = aut_gens[j]
            actions[key] = v.actions[("swap", S[pos - 1], k, full)]
        else:
            actions[key] = v.actions[rekey(key, j - len(aut_gens), full)]
    return TruncatedModule(new_window, group, dims, actions, None,
                           f"{v.name}[[{s}]]" if v.name else "")


# -- H0 ---------------------------------------------------------------------


@dataclass
class HomologyReport:
    """H_0 along S counted from ``spaces`` = I_S V, and H_1 once :func:`h1`
    fills it in.  The quotient V / I_S V (``h0_module``, which ``quotient``
    checks is action-stable) and its slices are built on first read."""

    S: tuple
    v: TruncatedModule
    spaces: dict
    h0_dims: dict
    slice_keys: tuple
    t0: int
    status_t0: str
    t1: int | None = None
    status_t1: str | None = None
    h1_dims: dict | None = None

    @cached_property
    def h0_module(self) -> TruncatedModule:
        name = f"H0_{self.S}({self.v.name})" if self.v.name else ""
        return quotient(self.v, self.spaces, name=name)[0]

    @cached_property
    def h0_slices(self) -> dict:
        return {s: slice_module(self.h0_module, s, self.S) for s in self.slice_keys}

    def h1_is_zero(self) -> bool:
        if self.h1_dims is None:
            raise ValueError("h1 was not computed")
        return all(d == 0 for d in self.h1_dims.values())

    def to_dict(self) -> dict:
        out = {
            "S": list(self.S),
            "t0": self.t0,
            "status_t0": self.status_t0,
            "h0_slices": {
                str(tuple(s)): mod.to_dict() for s, mod in self.h0_slices.items()
            },
        }
        if self.t1 is not None:
            out["t1"] = self.t1
            out["status_t1"] = self.status_t1
            out["h1_dims"] = {str(k): v for k, v in sorted(self.h1_dims.items())}
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)


def _status(v: TruncatedModule, relations: bool) -> str:
    """EXACT when V carries a certified presentation whose generators, and
    with ``relations`` also its relations, lie inside the window."""
    pres = v.presentation
    if pres is None or pres.observed_only:
        return WINDOW_BOUNDED
    fits = pres.fits(v.window) if relations else pres.fits_generators(v.window)
    return EXACT if fits else WINDOW_BOUNDED


def h0(v: TruncatedModule, S) -> HomologyReport:
    """H_0 along S, counted from dim I_S V: dim V(n) - dim (I_S V)(n) at each
    n (a free V's I_S is read off its summand blocks), the S-parts where it
    is nonzero, by degree, then lexicographically, and t0, their top degree.
    The report builds the quotient and its slices on first read."""
    S = normalize_subset(S, v.m)
    not_S = complement_subset(S, v.m)
    spaces = {n: positive_degree_image(v, S, n) for n in v.window.objects()}
    dims = {n: v.dims[n] - space.dim for n, space in spaces.items()}
    keys = tuple(sorted({split_obj(n, S, not_S)[0] for n, d in dims.items() if d},
                        key=lambda s: (degree(s), s)))
    t0 = degree(keys[-1]) if keys else -1
    return HomologyReport(S, v, spaces, dims, keys, t0, _status(v, relations=False))


# -- free covers and H1 -----------------------------------------------------


def free_cover(v: TruncatedModule):
    """A surjection P -> V from a minimal free module, with its kernel.

    P has one copy of F(n) per generator of V (lifts of H_0 over the full
    coordinate set, in increasing degree), so the cover matches every
    S-homological degree t_0 at once.  The generators and pi's blocks come
    from one walk per generator object (``generators_and_cover``); a free
    V needs no walk, and F(n)'s identity pi no elimination for K.
    Returns (P, pi, K, K_incl).
    """
    gens, blocks = generators_and_cover(v)
    if not gens:
        p = zero_module(v.window, v.group)
        k = zero_module(v.window, v.group)
        return p, ModuleMap.zero(p, v), k, ModuleMap.zero(k, p)
    p = make_free_sum([n for n, lifts in gens for _ in lifts], v.window, v.group)
    pi = ModuleMap(p, v, blocks)
    ker_spaces = {n: kernel_basis(b) for n, b in pi.blocks.items()}
    # rank-nullity: pi is onto at n exactly when its kernel has this dimension
    if any(ker_spaces[n].dim != p.dims[n] - v.dims[n] for n in ker_spaces):
        raise AssertionError("minimal cover failed to surject inside the window")
    k_slots = [
        (n, None)
        for n in v.window.objects_by_degree()
        if ker_spaces[n].dim > 0
    ]
    k_pres = Presentation.make(k_slots, None) if k_slots else Presentation.make([], tuple([0] * v.m))
    k, k_incl = submodule_from_stable_subspaces(p, ker_spaces, k_pres)
    return p, pi, k, k_incl


def h1(v: TruncatedModule, S, cover=None) -> HomologyReport:
    """H_1 along S, ker(H_0(K) -> H_0(P)) for a free cover P -> V with
    kernel K (free P is S-acyclic): its dimension at each object
    (``h1_dims``) and t1, the largest S-degree where it is nonzero (-1 if
    none).  It is counted: pi maps I_S P onto I_S V, so H_0 of K -> P -> V
    -> 0 is exact and dim H_1 = dim H_0(K) - dim H_0(P) + dim H_0(V) at
    each n, each dim X(n) - dim (I_S X)(n) with no quotient built.  F(g)(n)
    (dim |G| * #Inj(g, n)) for a generator slot g of P survives in H_0
    exactly when n has g's S-part.  ValueError when ``cover`` is not V's."""
    S = normalize_subset(S, v.m)
    not_S = complement_subset(S, v.m)
    if cover is not None and not (cover[1].target is v or cover[1].target == v):
        raise ValueError("cover is not a cover of v: its pi has another target")
    rep = h0(v, S)
    p, _, k, _ = cover if cover is not None else free_cover(v)
    rep.h1_dims = {}
    for n in v.window.objects():
        s_part = split_obj(n, S, not_S)[0]
        h0_p = sum(count_injections(g, n) for g, _ in p.presentation.generator_slots
                   if split_obj(g, S, not_S)[0] == s_part)
        rep.h1_dims[n] = (k.dims[n] - positive_degree_image(k, S, n).dim
                          - v.group.order * h0_p + rep.h0_dims[n])
    rep.t1 = max((degree(split_obj(n, S, not_S)[0])
                  for n, d in rep.h1_dims.items() if d), default=-1)
    rep.status_t1 = _status(v, relations=True)
    return rep


# -- torsion ----------------------------------------------------------------


@dataclass
class TorsionVerdict:
    S: tuple
    spaces: dict
    status: str

    def is_zero(self) -> bool:
        return all(s.dim == 0 for s in self.spaces.values())

    def dims(self) -> dict:
        return {n: s.dim for n, s in self.spaces.items()}

    def to_dict(self) -> dict:
        return {
            "S": list(self.S),
            "status": self.status,
            "dims": {str(k): s.dim for k, s in sorted(self.spaces.items())},
        }


def detect_torsion(v: TruncatedModule, S) -> TorsionVerdict:
    """The S-torsion of V inside the window: at each object n, the elements
    killed by some window morphism n -> n' that raises only S-coordinates
    (n' != n, n'_j = n_j off S).  One that also raises a coordinate off S
    may kill more; those do not count.

    Such a morphism followed by the inclusion of n' into top_S(n), n with
    its S-coordinates at the window bound, is an injection n -> top_S(n),
    and these form one Aut(top_S(n))-orbit.  So T(n) is the kernel of the
    standard inclusion n -> top_S(n), and 0 where n = top_S(n).  With i the
    first coordinate of S where n has room, that inclusion is incl_i into
    n + o_i followed by the one from there (top_S(n + o_i) = top_S(n)), so
    from the top of the window down, T(n) is the preimage of T(n + o_i)
    under V(incl_i): one kernel per object.

    The family is action-stable as it stands: a morphism n -> p followed by
    an injection p -> top_S(p) is an injection n -> top_S(p), which factors
    through an injection n -> top_S(n), so it carries T(n) into T(p), and
    ``submodule_from_stable_subspaces`` builds the torsion submodule from
    ``spaces``.
    """
    S = normalize_subset(S, v.m)
    bound = v.window.bound
    spaces = dict.fromkeys(v.window.objects())
    for n in reversed(v.window.objects_by_degree()):
        i = next((i for i in S if n[i - 1] < bound[i - 1]), None)
        if i is None or v.dims[n] == 0:
            spaces[n] = Subspace.zero(v.dims[n])
            continue
        up = add(n, unit(v.m, i))
        above, step = spaces[up], v.actions[("incl", i, n)]
        if above.dim == v.dims[up]:
            spaces[n] = Subspace.full(v.dims[n])
        elif above.dim == 0:
            spaces[n] = kernel_basis(step)
        else:
            spaces[n] = kernel_basis(quotient_map(v.dims[up], above) * step)
    return TorsionVerdict(S, spaces, _status(v, relations=True))


def family_coordinates(outer: dict, inner: dict) -> dict | None:
    """The family ``inner`` in the coordinates of the submodule that
    ``outer`` spans (:func:`submodule_from_stable_subspaces`), or None when
    some inner space does not lie in the outer one."""
    out = {}
    for n, space in outer.items():
        coords = space.coordinates(inner[n].basis.transpose())
        if coords is None:
            return None
        out[n] = Subspace.from_spanning(space.dim, coords.transpose().rows)
    return out


def subquotient(v: TruncatedModule, outer: dict, inner: dict):
    """The module outer/inner for nested action-stable families in V."""
    outer_mod, _ = submodule_from_stable_subspaces(v, outer)
    inner_in_outer = family_coordinates(outer, inner)
    if inner_in_outer is None:
        raise ValueError("inner family is not contained in the outer one")
    q, _ = quotient(outer_mod, inner_in_outer)
    return q


def tor_filtration(v: TruncatedModule):
    """The nested chain 0 <= tor[m] <= ... <= tor[1] <= V of intersected
    coordinate torsion submodules; returns (terms, verdicts, status)."""
    verdicts = [detect_torsion(v, (i,)) for i in range(1, v.m + 1)]
    terms = []
    current = None
    for i in range(1, v.m + 1):
        spaces_i = verdicts[i - 1].spaces
        if current is None:
            current = dict(spaces_i)
        else:
            current = {
                n: current[n].intersect(spaces_i[n]) for n in v.window.objects()
            }
        terms.append(dict(current))
    status = (
        EXACT
        if all(ver.status == EXACT for ver in verdicts)
        else WINDOW_BOUNDED
    )
    return terms, verdicts, status


# -- induced and semi-induced detection ------------------------------------


@dataclass
class InducedVerdict:
    """The verdict of :func:`is_S_induced` on ``v`` along ``S``.  The
    witness V[[s]] and the counit F_s(V[[s]]) -> V (``iso``, an isomorphism
    when ``ok``) are built on first read; both are None without a slice s."""

    ok: bool
    s: tuple | None
    status: str
    reasons: list
    v: TruncatedModule
    S: tuple

    @cached_property
    def witness(self) -> TruncatedModule | None:
        return None if self.s is None else slice_module(self.v, self.s, self.S)

    @cached_property
    def iso(self) -> ModuleMap | None:
        return None if self.s is None else _counit_map(self.v, self.s, self.S, self.witness)


def _counit_map(v: TruncatedModule, s, S, witness: TruncatedModule) -> ModuleMap:
    """The evaluation map F_s(V[[s]]) -> V from the universal property: on
    the ambient space, beta (x) w -> V(beta) w, with beta: s -> s' in the S
    coordinates and the identity elsewhere.

    At each object t of the complement, one orbit walk of V's S-part from
    s lists V(beta x id_t) over Inj(s, s').  Basis vector (O, k) of
    F_s(V[[s]]) is W(tau)^-1 e_k at each r o tau of O
    (``functors.induced_module``), and V(r o tau) = V(r) W(tau), so column
    (O, k) is |Aut(s)| V(r x id_t) e_k."""
    S = normalize_subset(S, v.m)
    not_S = complement_subset(S, v.m)
    s = tuple(s)
    fsw = induced_module(s, S, witness, v.group, v.window)
    order = count_injections(s, s)
    s_window = Window(tuple(v.window.bound[i - 1] for i in S))
    walks = {}
    for t in witness.window.objects():
        dims = {u: v.dims[interleave(S, not_S, u, t)] for u in s_window.objects()}
        actions = {key: v.actions[rekey(key, S[key[1] - 1],
                                        interleave(S, not_S, key[-1], t))]
                   for key, _, _ in window_generators(s_window, _TRIV)}
        part = TruncatedModule(s_window, _TRIV, dims, actions)
        walks[t] = _orbit_walk(part, s, RationalMatrix.identity(dims[s]))
    blocks = {}
    for n in v.window.objects():
        s_part, t_part = split_obj(n, S, not_S)
        images = walks[t_part].get(s_part)
        cols = [(row, images[r].den) for r in _orbits(s, s_part)[0]
                for row in images[r].transpose().rows]
        block = _stack_rows(cols, v.dims[n]).transpose()
        blocks[n] = block if order == 1 else block.scale(order)
    return ModuleMap(fsw, v, blocks)


def is_S_induced(v: TruncatedModule, S) -> InducedVerdict:
    """Induced along S, decided by counting: H_0 lives on one slice s and

        dim V(n) = #Inj(s, n_S) / |Aut(s)| * dim V(s, n_notS)   at every n,

    the right side being dim F_s(V[[s]])(n), as Aut(s) acts freely on
    Inj(s, n_S).  The count decides because the counit F_s(V[[s]]) -> V
    is onto in the window.  Its image contains V(n) where n_S = s, as there
    it is |Aut(s)| times the identity of V[[s]].  Off S-part s, H_0(V)(n) =
    0, so V(n) = (I_S V)(n), spanned by the images of V(n - o_i), i in S,
    with n_notS fixed.  The image is a submodule, so by induction on the
    S-degree of n it is all of V(n).  An onto map of equal dimensions is an
    isomorphism.  No map is built; ``iso`` builds the counit on first
    read."""
    S = normalize_subset(S, v.m)
    rep = h0(v, S)
    if v.is_zero():
        return InducedVerdict(True, None, rep.status_t0, ["zero module"], v, S)
    if len(rep.slice_keys) != 1:
        reasons = [f"H0 lives on {len(rep.slice_keys)} slices, need exactly 1"]
        return InducedVerdict(False, None, rep.status_t0, reasons, v, S)
    s = rep.slice_keys[0]
    not_S = complement_subset(S, v.m)
    aut = count_injections(s, s)
    ok = all(d * aut == count_injections(s, u) * v.dims[interleave(S, not_S, s, t)]
             for n, d in v.dims.items() for u, t in [split_obj(n, S, not_S)])
    reasons = [] if ok else ["dims differ from those of F_s(V[[s]])"]
    return InducedVerdict(ok, s, rep.status_t0, reasons, v, S)


@dataclass
class PeelStep:
    """One layer of the semi-induced filtration.  ``module`` loses its
    top-degree, lex-smallest H_0 slice ``s``: ``rest`` (with inclusion
    ``rest_incl``) is the submodule that the other H_0 slices generate,
    spanned by the family ``rest_spaces``, and ``piece`` = module / rest
    (projection ``piece_proj``) is induced along S as ``verdict`` shows.
    The next step peels ``rest``."""

    module: TruncatedModule
    s: tuple
    rest_spaces: dict
    rest: TruncatedModule
    rest_incl: ModuleMap
    piece: TruncatedModule
    piece_proj: ModuleMap
    verdict: InducedVerdict


def _peel(v: TruncatedModule, S, s, others) -> PeelStep:
    """Peel the H_0 slice s off v: ``rest`` is the submodule that V
    generates at ``others``, the other H_0 slices of v, and ``piece`` is
    v / rest.  Lemma: H_0(rest) along S lives exactly on ``others``.  At
    any other S-part, rest is spanned by images along morphisms that raise
    the S-degree, so it is I_S rest there.  At a slice u in ``others``,
    rest(n) = V(n) for n with S-part u, and I_S rest(n) lies in I_S V(n),
    which is not V(n) at some such n."""
    not_S = complement_subset(S, v.m)
    seeds = {n: Subspace.full(v.dims[n]) for n in v.window.objects()
             if split_obj(n, S, not_S)[0] in others}
    rest_spaces = close_under_actions(v, seeds)
    rest, rest_incl = submodule_from_stable_subspaces(v, rest_spaces)
    piece, piece_proj = quotient(v, rest_spaces)
    return PeelStep(v, s, rest_spaces, rest, rest_incl, piece, piece_proj,
                    is_S_induced(piece, S))


@dataclass
class SemiInducedCertificate:
    steps: list  # PeelStep, each peeling the previous step's rest

    def verify(self, v: TruncatedModule) -> bool:
        """Re-check the steps independently of the search path: they peel v
        down to a zero rest, each rest and piece add up to their module's
        dims, and each piece's counit is a natural isomorphism."""
        cur = v
        for step in self.steps:
            iso = step.verdict.iso
            if (not (step.module is cur or step.module == cur) or iso is None
                    or not (iso.is_natural() and iso.is_iso())
                    or any(step.rest.dims[n] + step.piece.dims[n] != d
                           for n, d in cur.dims.items())):
                return False
            cur = step.rest
        return cur.is_zero()


def is_S_semi_induced(v: TruncatedModule, S):
    """Semi-induced along S: H_1 = 0, with a certificate that peels each
    H_0 slice of V once, top S-degree first, lex-smallest first.  By the
    lemma in :func:`_peel` each rest's H_0 lives on the slices not yet
    peeled, so the last rest is zero.

    Each piece is induced once H_1(V) = 0.  For 0 -> rest -> V -> piece ->
    0, the lemma makes H_0(rest) -> H_0(V) injective, so H_1(rest) ->
    H_1(V) -> H_1(piece) -> 0 is exact and H_1(piece) = 0.  The piece's
    H_0 lives on the one slice s, so its counit F_s(W) -> piece is onto
    (:func:`is_S_induced`), with kernel C.  F_s(W) is S-acyclic and its
    H_0 maps isomorphically onto the piece's, so H_0(C) is the image of
    H_1(piece) = 0, and C = 0.  A piece that is not induced or a nonzero
    last rest is a bug: it raises.  Returns (ok, certificate, report)."""
    S = normalize_subset(S, v.m)
    rep = h1(v, S)
    ok = rep.h1_is_zero()
    order = sorted(rep.slice_keys, key=lambda s: (-degree(s), s)) if ok else ()
    steps, cur = [], v
    for i, s in enumerate(order):
        steps.append(_peel(cur, S, s, order[i + 1:]))
        cur = steps[-1].rest
    if not all(step.verdict.ok for step in steps):
        raise AssertionError("a piece of a module with H1 = 0 is not induced")
    if ok and not cur.is_zero():
        raise AssertionError("a rest is nonzero after the last H0 slice was peeled")
    return ok, SemiInducedCertificate(steps), rep
