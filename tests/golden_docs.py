"""The byte-identity set: fimlab outputs that a refactor must not change.

``documents()`` yields (name, text) pairs and ``digests()`` maps each name
to the sha256 of its text; both compute the suite reports unless they are
given them.  ``test_golden.py`` pins the digests, so a change
that alters any answer or file fails there and names the document.  Run as a
script to print the current digests as JSON (it needs no pytest; it imports
``oracles.py`` from its own directory):

    PYTHONPATH=src python tests/golden_docs.py
"""

from __future__ import annotations

import hashlib
import json

from fimlab.category import GroupTable, Window
from fimlab.functors import (
    averaging_splitting,
    derivative,
    derivative_free_decomposition,
    ind,
    induced_module,
    kernel_functor,
    make_induced,
    rs_group,
    shift_free_decomposition,
)
from fimlab.homology import detect_torsion, free_cover, h1, is_S_induced, tor_filtration
from fimlab.modules import (
    MarginError,
    ModuleMap,
    direct_sum,
    external_tensor,
    fraction_str,
    hom_space,
    make_cofree,
    make_coinduced,
    make_free,
    matrix_to_lists,
    obj_str,
)
from fimlab.samples import point_module, random_presented_module, truncated_constant
from fimlab.suites import _thm1_battery, run_all
from fimlab.theorems import _finite_dim_embedding, cogenerate, end_ring, shift_theorem_search

from oracles import induced_module_by_fixed_space, regular_rep, with_trivial_group_action

TRIV = GroupTable.trivial()
GROUPS = {"1": TRIV, "S2": GroupTable.symmetric(2), "C3": GroupTable.cyclic(3)}


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def _blocks(mp: ModuleMap) -> str:
    return _block_dict(mp.blocks)


def _block_dict(blocks) -> str:
    return _dumps({obj_str(n): matrix_to_lists(b) for n, b in sorted(blocks.items())})


def _coords(xs):
    return None if xs is None else [fraction_str(x) for x in xs]


def _suites(reports=None):
    """The ``run_all(0)`` reports without their timings; ``reports`` passes
    in the same dicts already computed, as ``verify-paper`` prints them."""
    if reports is None:
        reports = [rep.to_dict() for rep in run_all(0)]
    for d in reports:
        yield f"suite/{d['suite']}", _dumps(
            {k: x for k, x in d.items() if k != "elapsed_seconds"})


def _random_modules():
    for bound in ((3, 3), (4,)):
        everything = tuple(range(1, len(bound) + 1))
        for seed in range(12):
            v = random_presented_module(Window(bound), seed)
            tag = f"random/{obj_str(bound)}/{seed}"
            cover = free_cover(v)
            yield f"{tag}/module", v.to_json()
            yield f"{tag}/cover_P", cover[0].to_json()
            yield f"{tag}/cover_K", cover[2].to_json()
            yield f"{tag}/h1_S1", h1(v, (1,), cover).to_json()
            yield f"{tag}/h1_all", h1(v, everything, cover).to_json()
            yield f"{tag}/derivative_1", derivative(v, 1).to_json()
            yield f"{tag}/kernel_1", kernel_functor(v, 1).to_json()


def _group_h1():
    """H_1 over the nontrivial groups, whose free modules carry |G| copies
    of every injection."""
    for gname in ("S2", "C3"):
        group = GROUPS[gname]
        mods = [(f"random/{seed}", random_presented_module(Window((3,)), seed, group=group))
                for seed in range(4)]
        mods.append(("ind_point", ind(point_module(Window((3,))), group)))
        mods.append(("free_(1,)", make_free((1,), Window((3,)), group)))
        for label, v in mods:
            yield f"h1/{gname}/{label}", h1(v, (1,)).to_json()


def _shift_search(v, S, max_n) -> str:
    try:
        out = shift_theorem_search(v, S, max_n)
    except MarginError as exc:
        return _dumps({"MarginError": str(exc)})
    return _dumps({"n": out.n, "status": out.status, "log": out.log})


def _shift_searches():
    for name, v, S in _thm1_battery():
        yield f"shift_search/thm1/{name}", _shift_search(v, S, 4)
    for seed in range(6):
        v = random_presented_module(Window((5,)), seed)
        for max_n in range(3):
            yield (f"shift_search/random/(5,)/{seed}/max_n={max_n}",
                   _shift_search(v, (1,), max_n))


def _specht_modules():
    w3 = Window((3,))
    for gname, group in GROUPS.items():
        for lam in ((1,), (2,), (1, 1), (2, 1)):
            yield (f"induced/{lam}/{gname}",
                   make_induced((lam,), w3, group).to_json())
            yield (f"coinduced/{lam}/{gname}",
                   make_coinduced((lam,), w3, group).to_json())
        yield (f"induced/(1,)x(1,)/{gname}",
               make_induced(((1,), (1,)), Window((2, 2)), group).to_json())
        w23 = Window((2, 3))
        yield (f"induced/(1,)x(2,)/{gname}",
               make_induced(((1,), (2,)), w23, group).to_json())
        yield (f"coinduced/(1, 1)x(1,)/{gname}",
               make_coinduced(((1, 1), (1,)), Window((2, 2)), group).to_json())
        if gname != "1":
            regular = regular_rep(group)
            yield (f"induced/(1,)/{gname}/regular",
                   make_induced(((1,),), w3, group, g_rep=regular).to_json())
            yield (f"induced/(1,)x(2,)/{gname}/regular",
                   make_induced(((1,), (2,)), w23, group, g_rep=regular).to_json())
    yield ("coinduced/(2, 1)/1/(4,)",
           make_coinduced(((2, 1),), Window((4,))).to_json())
    w4 = Window((4,))
    for gname, group in GROUPS.items():
        for lam in ((3, 1), (2, 2), (2, 1, 1)):
            yield (f"induced/{lam}/{gname}/(4,)",
                   make_induced((lam,), w4, group).to_json())
            yield (f"coinduced/{lam}/{gname}/(4,)",
                   make_coinduced((lam,), w4, group).to_json())
        # the stabiliser invariants are proper and nonzero below l
        yield (f"coinduced/(2, 1)x(1, 1)/{gname}/(3, 2)",
               make_coinduced(((2, 1), (1, 1)), Window((3, 2)), group).to_json())
        yield (f"coinduced/(3, 1)x(1,)/{gname}/(4, 1)",
               make_coinduced(((3, 1), (1,)), Window((4, 1)), group).to_json())


def _induced_modules():
    """F_s(W) for R_s-modules W carrying Aut(s) x G, over S = (1,), (2,)
    and (1,2), with free, regular and trivial Aut(s) x G actions; s = (3,)
    has a non-abelian Aut(s)."""
    for gname, group in GROUPS.items():
        cases = []
        if gname != "C3":
            cases.append(((3,), (1,), (3, 1), ind(make_free((0,), Window((1,))),
                                                  rs_group((3,), group))))
        if gname != "1":
            cases += [
                ((1,), (1,), (2, 2), make_free((1,), Window((2,)), rs_group((1,), group))),
                ((2,), (1,), (3, 2), ind(make_free((0,), Window((2,))),
                                         rs_group((2,), group))),
                ((1,), (2,), (2, 2), with_trivial_group_action(
                    make_free((1,), Window((2,))), rs_group((1,), group))),
                ((1, 1), (1, 2), (2, 2, 1), ind(make_free((0,), Window((1,))),
                                                 rs_group((1, 1), group))),
                ((2, 1), (1, 2), (2, 1, 1), ind(make_free((1,), Window((1,))),
                                                 rs_group((2, 1), group))),
            ]
        for s, S, bound, w_rs in cases:
            mod = induced_module(s, S, w_rs, group, Window(bound))
            _, incl = induced_module_by_fixed_space(s, S, w_rs, group, Window(bound))
            tag = f"induced_module/{gname}/{s}/{S}"
            yield f"{tag}/module", mod.to_json()
            yield f"{tag}/inclusion", _block_dict(incl.blocks)


def _structure(data) -> str:
    return _dumps({
        "radical_dim": data.radical_dim,
        "structure_constants": [[_coords(c) for c in row]
                                for row in data.structure_constants],
    })


def _end_rings():
    w = Window((3,))
    pairs = {
        "F(1)+F(1)": (make_free((1,), w), make_free((1,), w)),
        "F(1)+E(1)": (make_free((1,), w), make_cofree((1,), w)),
    }
    for label, mods in pairs.items():
        total, _ = direct_sum(*mods)
        data = end_ring(total)
        yield f"end_ring/{label}", _dumps({
            "dim": data.dim,
            "radical_dim": data.radical_dim,
            "is_local": data.is_local,
            "identity_coords": _coords(data.identity_coords),
            "idempotent_coords": _coords(data.idempotent_coords),
        })
        yield f"end_ring/{label}/structure", _structure(data)
    # three of thm2's tensors E(λ) ⊠ M(μ), M(λ) ⊠ M(μ), factors on (3,)
    factor = {"M": make_induced, "E": make_coinduced}
    for (k1, l1), (k2, l2) in ((("M", (1,)), ("E", (1,))),
                               (("E", (2,)), ("M", (1, 1))),
                               (("M", (1, 1)), ("M", (1, 1)))):
        tensor = external_tensor(factor[k1]((l1,), w, TRIV),
                                 factor[k2]((l2,), w, TRIV))
        yield f"end_ring/{k1}{l1} x {k2}{l2}/structure", _structure(end_ring(tensor))


def _hom_spaces():
    """Hom bases block by block: the basis is the RREF kernel of the
    naturality rows, so its maps are canonical, not just their span."""
    w = Window((3,))
    total, _ = direct_sum(make_free((1,), w), make_cofree((1,), w))
    pairs = {
        "random(3,)/4 -> E(2)": (random_presented_module(w, 4), make_cofree((2,), w)),
        "F(1)+E(1) -> F(1)+E(1)": (total, total),
    }
    for label, (v, t) in pairs.items():
        yield f"hom_space/{label}", _dumps([_blocks(mp) for mp in hom_space(v, t)])


def _direct_sums():
    w = Window((2, 2))
    s2 = GROUPS["S2"]
    summands = [make_free((1, 0), w, s2), make_cofree((1, 1), w, s2),
                make_free((0, 0), w, s2)]
    total, incls = direct_sum(*summands)
    yield "direct_sum/module", total.to_json()
    for j, incl in enumerate(incls):
        yield f"direct_sum/inclusion_{j}", _blocks(incl)


def _free_decompositions():
    """Lemma 2.3: the isomorphisms M(n) + M(n - o_i)^(n_i) -> Shift_i M(n)
    and M(n - o_i)^(n_i) -> D_i M(n), with their source and target, for
    every n and i of the two windows the lemma2.3 suite checks."""
    decompositions = {"shift": shift_free_decomposition,
                      "derivative": derivative_free_decomposition}
    for bound in ((3,), (2, 2)):
        window = Window(bound)
        for gname, group in GROUPS.items():
            for n in window.objects():
                for i in range(1, window.m + 1):
                    for kind, decompose in decompositions.items():
                        iso, big, target = decompose(n, i, window, group)
                        yield (f"decomposition/{kind}/{obj_str(bound)}/{gname}/"
                               f"{obj_str(n)}/{i}", _dumps({
                                   "iso": json.loads(_blocks(iso)),
                                   "big": big.to_dict(),
                                   "target": target.to_dict()}))


def _averaging_splittings():
    w = Window((3,))
    for gname in ("S2", "C3"):
        group = GROUPS[gname]
        mods = {"free_(1,)": make_free((1,), w, group),
                "ind_cofree_(1,)": ind(make_cofree((1,), w), group)}
        for seed in range(2):
            mods[f"random/{seed}"] = random_presented_module(w, seed, group=group)
        for label, v in mods.items():
            phi, eps = averaging_splitting(v)
            yield f"averaging/{gname}/{label}/phi", _blocks(phi)
            yield f"averaging/{gname}/{label}/eps", _blocks(eps)


def _cogenerations():
    """cogenerate's witnesses, and the co-free embedding of its
    finite-dimensional layers taken directly, over 1, S2 and C3."""
    w = Window((3,))
    mods = {"cofree_(2,)": make_cofree((2,), w)}
    for seed in range(4):
        mods[f"random/{seed}"] = random_presented_module(w, seed)
    for seed in (0, 3):
        mods[f"S2/random/{seed}"] = random_presented_module(w, seed, group=GROUPS["S2"])
    for label, v in mods.items():
        wit = cogenerate(v)
        yield f"cogenerate/{label}", _dumps({
            "status": wit.status,
            "members": [m.describe() for m in wit.members],
            "embedding": None if wit.embedding is None
            else json.loads(_blocks(wit.embedding)),
        })
    for gname, group in GROUPS.items():
        for seed in (0, 3):
            v = random_presented_module(w, seed, group=group)
            members, emb, total = _finite_dim_embedding(v, group)
            yield f"finite_dim_embedding/{gname}/random/{seed}", _dumps({
                "members": [m.describe() for m in members],
                "embedding": json.loads(_blocks(emb)),
                "target": total.to_dict(),
            })


def _counits():
    """The counit F_s(V[[s]]) -> V that certifies V induced along S; the
    induced modules on (4,) and (3, 2) have slices s with Aut(s)
    nontrivial, so their counits carry the factor |Aut(s)| next to the
    group."""
    for gname, group in GROUPS.items():
        mods = {"free_(1, 1)": make_free((1, 1), Window((2, 2)), group),
                "induced_(1,)x(1,)": make_induced(((1,), (1,)), Window((2, 2)), group),
                "induced_(2,)/(4,)": make_induced(((2,),), Window((4,)), group),
                "induced_(2, 1)/(4,)": make_induced(((2, 1),), Window((4,)), group),
                "induced_(2,)x(1,)/(3, 2)": make_induced(((2,), (1,)), Window((3, 2)),
                                                          group)}
        for label, v in mods.items():
            for S in ((1,),) if v.m == 1 else ((1,), (2,), (1, 2)):
                verdict = is_S_induced(v, S)
                yield f"counit/{gname}/{label}/{S}", _blocks(verdict.iso)


def _spaces(spaces) -> dict:
    return {obj_str(n): matrix_to_lists(s.basis) for n, s in sorted(spaces.items())}


def _torsion():
    """The S-torsion spaces of ``detect_torsion`` for every nonempty S, and
    the terms of ``tor_filtration``, as RREF bases: random presented
    modules, a truncated constant, the point module and a co-free module,
    over 1, S2 and C3."""
    for bound in ((3,), (5,), (3, 3), (2, 2, 1)):
        w = Window(bound)
        subsets = [S for mask in range(1, 2 ** w.m)
                   for S in [tuple(i + 1 for i in range(w.m) if mask >> i & 1)]]
        for gname, group in GROUPS.items():
            mods = {f"random/{seed}": random_presented_module(w, seed, group=group)
                    for seed in range(4)}
            mods["truncated_constant_2"] = truncated_constant(w, 2, group)
            mods["point"] = point_module(w, group)
            top = tuple(b - 1 for b in bound)
            mods[f"cofree_{obj_str(top)}"] = make_cofree(top, w, group)
            for label, v in mods.items():
                tag = f"{obj_str(bound)}/{gname}/{label}"
                for S in subsets:
                    tv = detect_torsion(v, S)
                    yield f"torsion/{tag}/{S}", _dumps(
                        {"verdict": tv.to_dict(), "spaces": _spaces(tv.spaces)})
                terms, _, status = tor_filtration(v)
                yield f"tor_filtration/{tag}", _dumps(
                    {"status": status, "terms": [_spaces(t) for t in terms]})


def documents(suite_reports=None):
    yield from _suites(suite_reports)
    yield from _random_modules()
    yield from _group_h1()
    yield from _shift_searches()
    yield from _specht_modules()
    yield from _induced_modules()
    yield from _end_rings()
    yield from _hom_spaces()
    yield from _direct_sums()
    yield from _free_decompositions()
    yield from _averaging_splittings()
    yield from _cogenerations()
    yield from _counits()
    yield from _torsion()


def digests(suite_reports=None) -> dict:
    out = {}
    for name, text in documents(suite_reports):
        if name in out:
            raise ValueError(f"document {name} listed twice")
        out[name] = hashlib.sha256(text.encode()).hexdigest()
    return out


if __name__ == "__main__":
    print(_dumps(digests()))
