"""Verification suites: each acceptance target is a named battery that
returns a structured report; the CLI exposes them as `fimlab verify-paper
--suite <name>` with exit code 0 only when every check passes.

Windows and seeds are pinned here so runs are reproducible; the config file
can override the seed for the random batteries.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

from .category import GroupTable, Window
from .linalg import RationalMatrix, Subspace, rank
from .modules import (
    ModuleMap,
    NaturalitySolver,
    TruncatedModule,
    check_hom_source,
    direct_sum,
    external_tensor,
    make_cofree,
    make_coinduced,
    make_free,
    restrict_window,
    submodule_from_stable_subspaces,
)
from .functors import (
    averaging_splitting,
    derivative_sum,
    ind,
    kernel_functor,
    kernel_sum,
    make_induced,
    res,
    shift,
    shift_free_decomposition,
    derivative_free_decomposition,
)
from .homology import (
    EXACT,
    detect_torsion,
    free_cover,
    h0,
    h1,
    is_S_induced,
    subquotient,
    tor_filtration,
)
from .samples import (
    point_module,
    random_presented_module,
    truncated_constant,
)
from .theorems import (
    _is_window_finite,
    cogenerate,
    ext1_vanishes,
    identify_summands,
    is_local_end,
    shift_theorem_search,
)

TRIV = GroupTable.trivial()


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    passed: bool
    checks: list
    elapsed: float

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "elapsed_seconds": round(self.elapsed, 3),
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks
            ],
        }


SUITES = {}


def _suite(name: str):
    """Register a suite, a function of the seed returning its checks, under
    ``name`` in SUITES; the registered function times the checks and returns
    them as a SuiteReport."""
    def register(checks_of):
        @functools.wraps(checks_of)
        def run(seed: int = 0) -> SuiteReport:
            t0 = time.perf_counter()
            checks = checks_of(seed)
            return SuiteReport(name, all(c.ok for c in checks), checks,
                               time.perf_counter() - t0)
        SUITES[name] = run
        return run
    return register


# -- 1: shift and derivative decompositions of free modules ----------------


@_suite("lemma2.3")
def suite_lemma2_3(seed: int = 0) -> list:
    checks = []
    for bound in ((3,), (2, 2)):
        window = Window(bound)
        m = len(bound)
        for n in window.objects():
            for i in range(1, m + 1):
                if window.bound[i - 1] < 1:
                    continue
                iso_s, _, _ = shift_free_decomposition(n, i, window, TRIV)
                ok = iso_s.is_natural() and iso_s.is_iso()
                checks.append(Check(f"shift M{n} coord {i} window {bound}", ok))
                iso_d, _, _ = derivative_free_decomposition(n, i, window, TRIV)
                okd = iso_d.is_natural() and iso_d.is_iso()
                checks.append(Check(f"deriv M{n} coord {i} window {bound}", okd))
    return checks


# -- 2: commutation of shifts and kernels -----------------------------------


@_suite("commutation")
def suite_commutation(seed: int = 0) -> list:
    checks = []
    window = Window((3, 3))
    for k in range(10):
        v = random_presented_module(window, seed + 20 + k)
        a = shift(shift(v, 1), 2)
        b = shift(shift(v, 2), 1)
        checks.append(Check(f"shift commute data (seed {seed + 20 + k})", a == b))
        ka = kernel_functor(shift(v, 2), 1)
        kb = shift(kernel_functor(v, 1), 2)
        same_dims = ka.dims == kb.dims
        iso_ok = False
        if same_dims:
            blocks = {
                n: RationalMatrix.identity(ka.dims[n]) for n in ka.window.objects()
            }
            try:
                cand = ModuleMap(ka, kb, blocks)
                iso_ok = cand.is_natural() and cand.is_iso()
            except ValueError:
                iso_ok = False
        checks.append(
            Check(f"kernel/shift commute iso (seed {seed + 20 + k})", same_dims and iso_ok)
        )
    return checks


# -- 3: torsion -------------------------------------------------------------


@_suite("torsion")
def suite_torsion(seed: int = 0) -> list:
    checks = []
    mods = [random_presented_module(Window((3,)), seed + 100 + k) for k in range(10)]
    mods += [random_presented_module(Window((2, 2)), seed + 200 + k) for k in range(10)]
    for idx, v in enumerate(mods):
        S = tuple(range(1, v.m + 1)) if idx % 2 else (1,)
        tv = detect_torsion(v, S)
        ks = kernel_sum(v, S)
        checks.append(
            Check(
                f"torsion iff kernel (module {idx}, S={S})",
                tv.is_zero() == ks.is_zero(),
                f"torsion {sum(s.dim for s in tv.spaces.values())}, "
                f"kernel {ks.total_dim()}",
            )
        )
        terms, verdicts, status = tor_filtration(v)
        full = {n: Subspace.full(v.dims[n]) for n in v.window.objects()}
        chain = [full] + terms
        ok_tf = True
        for i in range(1, v.m + 1):
            q = subquotient(v, chain[i - 1], chain[i])
            if not detect_torsion(q, (i,)).is_zero():
                ok_tf = False
        checks.append(Check(f"filtration quotients torsion-free (module {idx})", ok_tf))
        if status == EXACT:
            top_mod, _ = submodule_from_stable_subspaces(v, terms[-1])
            checks.append(
                Check(
                    f"top term finite-dimensional (module {idx})",
                    _is_window_finite(top_mod),
                )
            )
    return checks


# -- 4: homological degrees --------------------------------------------------


@_suite("degree")
def suite_degree(seed: int = 0) -> list:
    checks = []
    count = 15
    made = 0
    k = 0
    while made < count and k < count * 6:
        w = Window((3,)) if made % 2 == 0 else Window((2, 2))
        v = random_presented_module(w, seed + 300 + k)
        k += 1
        if v.is_zero():
            continue
        made += 1
        S = (1,) if v.m == 1 else ((1,) if made % 2 else (1, 2))
        rep = h0(v, S)
        dv = derivative_sum(v, S)
        repd = h0(dv, S)
        ok = repd.t0 == rep.t0 - 1 and rep.status_t0 == EXACT
        checks.append(
            Check(
                f"derivative degree drop (module {made}, S={S})",
                ok,
                f"t0={rep.t0}, t0(D)={repd.t0}",
            )
        )
    made = 0
    k = 0
    while made < count and k < count * 6:
        w = Window((3,)) if made % 2 == 0 else Window((2, 2))
        v = random_presented_module(w, seed + 400 + k)
        k += 1
        if v.is_zero():
            continue
        made += 1
        S = (1,)
        cover = free_cover(v)
        p, _, kmod, _ = cover
        t0_p = h0(p, S).t0
        t0_k = h0(kmod, S).t0
        rep_v = h1(v, S, cover=cover)
        ok1 = t0_p <= max(t0_k, rep_v.t0)
        ok2 = rep_v.t1 <= max(-1, t0_k)
        checks.append(
            Check(
                f"ses degree inequalities (module {made})",
                ok1 and ok2,
                f"t0(P)={t0_p}, t0(K)={t0_k}, t0(V)={rep_v.t0}, t1(V)={rep_v.t1}",
            )
        )
    return checks


# -- 5: semi-induced ---------------------------------------------------------


@_suite("semiinduced")
def suite_semiinduced(seed: int = 0) -> list:
    checks = []
    w1 = Window((3,))
    frees = [make_free((n,), w1, TRIV) for n in range(4)]
    induceds = [
        make_induced((lam,), w1, TRIV)
        for lam in ((1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1))
    ]
    for v in frees + induceds:
        rep = h1(v, (1,))
        checks.append(
            Check(f"H1 vanishes for {v.name}", rep.h1_is_zero() and rep.status_t1 == EXACT)
        )
    w2 = Window((2, 2))
    for n in w2.objects():
        v = make_free(n, w2, TRIV)
        rep = h1(v, (1, 2))
        checks.append(Check(f"H1 vanishes for M{n} (m=2)", rep.h1_is_zero()))
    e = point_module(w1)
    rep_e = h1(e, (1,))
    checks.append(Check("H1 nonzero for the point module", not rep_e.h1_is_zero()))
    for lam in ((2,), (1, 1), (2, 1)):
        v = make_induced((lam,), w1, TRIV)
        ver = is_S_induced(v, (1,))
        checks.append(
            Check(
                f"induced round trip lambda={lam}",
                ver.ok and ver.iso is not None and ver.iso.is_iso(),
            )
        )
    lam2 = ((2,), (1,))
    v2 = make_induced(lam2, Window((3, 2)), TRIV)
    ver2 = is_S_induced(v2, (1, 2))
    checks.append(Check("induced round trip m=2", ver2.ok and ver2.iso.is_iso()))
    return checks


# -- 6: shift theorem --------------------------------------------------------


def _thm1_battery():
    out = []
    out.append(("trunc-const m=1", truncated_constant(Window((6,)), 2), (1,)))
    out.append(
        (
            "free + torsion m=1",
            direct_sum(
                make_free((1,), Window((6,)), TRIV),
                truncated_constant(Window((6,)), 2),
            )[0],
            (1,),
        )
    )
    out.append(("random m=1", random_presented_module(Window((6,)), 907), (1,)))
    out.append(("point m=2", point_module(Window((5, 5))), (1, 2)))
    out.append(
        (
            "free + point m=2",
            direct_sum(
                make_free((1, 0), Window((5, 5)), TRIV),
                point_module(Window((5, 5))),
            )[0],
            (1,),
        )
    )
    return out


@_suite("thm1")
def suite_thm1(seed: int = 0) -> list:
    checks = []
    for name, v, S in _thm1_battery():
        res_search = shift_theorem_search(v, S, max_n=4)
        ok = res_search.n is not None and res_search.status == EXACT
        torsion = sum(res_search.log[0]["torsion_dims"].values())  # n = 0: v itself
        detail = f"N={res_search.n}, torsion dims {torsion}"
        checks.append(Check(f"shift theorem: {name}", ok, detail))
    return checks


# -- 7: the group factor -----------------------------------------------------


@_suite("group")
def suite_group(seed: int = 0) -> list:
    checks = []
    w = Window((3,))
    pairs = [
        (GroupTable.symmetric(2), (0,), (0,)),
        (GroupTable.symmetric(2), (1,), (0,)),
        (GroupTable.symmetric(2), (1,), (1,)),
        (GroupTable.cyclic(3), (0,), (1,)),
        (GroupTable.cyclic(3), (1,), (1,)),
    ]
    for g, v_obj, w_obj in pairs:
        v = make_free(v_obj, w, TRIV)
        wmod = make_free(w_obj, w, g)
        v_ind = ind(v, g)
        check_hom_source(v_ind)
        check_hom_source(v)
        lhs = NaturalitySolver(v_ind, wmod).dim
        rhs = NaturalitySolver(v, res(wmod)).dim
        checks.append(
            Check(
                f"adjunction dims G={g.name} V=M{v_obj} W=M{w_obj}",
                lhs == rhs,
                f"{lhs} == {rhs}",
            )
        )
    for g in (GroupTable.symmetric(2), GroupTable.cyclic(3)):
        for mod in (
            make_free((0,), w, g),
            make_free((1,), w, g),
            ind(make_cofree((1,), w, TRIV), g),
        ):
            phi, eps = averaging_splitting(mod)
            ok = (
                phi.is_natural()
                and eps.is_natural()
                and eps.compose(phi) == ModuleMap.identity(mod)
            )
            checks.append(Check(f"averaging splits {mod.name} over {g.name}", ok))
    # a three-dimensional representation at a single object
    g = GroupTable.symmetric(2)
    swap3 = RationalMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    rep_mod = TruncatedModule(
        Window(()), g, {(): 3}, {("grp", 0, ()): swap3}
    )
    phi, eps = averaging_splitting(rep_mod)
    checks.append(
        Check(
            "averaging splits a 3-dim representation",
            eps.compose(phi) == ModuleMap.identity(rep_mod),
        )
    )
    for g in (GroupTable.symmetric(2), GroupTable.cyclic(3)):
        i_mod = ind(make_cofree((1,), w, TRIV), g)
        battery = [
            make_free((0,), w, g),
            make_free((1,), w, g),
            ind(point_module(w), g),
        ]
        for v in battery:
            rep = ext1_vanishes(v, i_mod)
            checks.append(
                Check(
                    f"Ext1({v.name}, Ind E(1)) = 0 over {g.name}",
                    rep.vanishes,
                    f"dim={rep.dim}",
                )
            )
    return checks


# -- 8: cogeneration ---------------------------------------------------------


def _thm410_battery():
    w = Window((3, 3))
    out = [
        ("point", point_module(w)),
        ("trunc const", truncated_constant(w, 2)),
        ("free M(1,1)", make_free((1, 1), w, TRIV)),
        ("free + point", direct_sum(make_free((1, 0), w, TRIV), point_module(w))[0]),
        (
            "free + trunc",
            direct_sum(
                make_free((0, 1), w, TRIV), truncated_constant(w, 1)
            )[0],
        ),
        ("induced M((1),(1))", make_induced(((1,), (1,)), w, TRIV)),
    ]
    return out


@_suite("thm4.10")
def suite_thm4_10(seed: int = 0) -> list:
    checks = []
    for name, v in _thm410_battery():
        wit = cogenerate(v, max_shift=2, seed=seed)
        ok = wit.status == EXACT and wit.verify()
        detail = "members: " + ", ".join(m.describe() for m in wit.members)
        if wit.notes:
            detail += "; " + "; ".join(wit.notes)
        if ok:
            # injectivity accounting: the stacked blocks have full column
            # rank, so the member projections jointly see all of V(n)
            ok = all(
                rank(wit.embedding.blocks[n]) == wit.embedding.source.dims[n]
                for n in wit.window.objects()
            )
        checks.append(Check(f"cogenerate: {name}", ok, detail))
    return checks


# -- 9: injective classification --------------------------------------------


@_suite("thm2")
def suite_thm2(seed: int = 0) -> list:
    checks = []
    w1 = Window((3,))
    proj_factors = [
        ("M", lam, make_induced((lam,), w1, TRIV)) for lam in ((1,), (2,), (1, 1))
    ]
    fin_factors = [
        ("E", lam, make_coinduced((lam,), w1, TRIV)) for lam in ((1,), (2,), (1, 1))
    ]
    factors = proj_factors + fin_factors
    tensors = []
    for k1, l1, f1 in factors:
        for k2, l2, f2 in factors:
            label = f"{k1}{l1} x {k2}{l2}"
            tensors.append((label, external_tensor(f1, f2)))
    for label, t in tensors:
        checks.append(Check(f"local end ring: {label}", is_local_end(t)))
    battery = []
    k = 0
    while len(battery) < 10 and k < 60:
        v = random_presented_module(Window((2, 2)), seed + 500 + k)
        k += 1
        if not v.is_zero():
            battery.append(v)
    for idx, v in enumerate(battery):
        label, i_mod = tensors[(idx * 7) % len(tensors)]
        i_small = restrict_window(i_mod, Window((2, 2)))
        rep = ext1_vanishes(v, i_small)
        checks.append(
            Check(
                f"Ext1 battery module {idx} vs {label}",
                rep.vanishes,
                f"dim={rep.dim}",
            )
        )
    # summand identification on a 3-member direct sum
    w2 = Window((2, 2))
    e1 = external_tensor(
        make_induced(((1,),), Window((2,)), TRIV),
        make_coinduced(((1,),), Window((2,)), TRIV),
    )
    e2 = external_tensor(
        make_coinduced(((1,),), Window((2,)), TRIV),
        make_induced(((1,),), Window((2,)), TRIV),
    )
    e3 = external_tensor(
        make_induced(((1,),), Window((2,)), TRIV),
        make_induced(((1,),), Window((2,)), TRIV),
    )
    x, _ = direct_sum(e1, e2, e3)
    members = [e1, e2, e3]
    rep = identify_summands(x, members, seed=seed)
    ok = rep.status == EXACT and sorted(m.member_index for m in rep.matches) == [0, 1, 2]
    checks.append(
        Check(
            "identify summands of a 3-member sum",
            ok,
            f"matches: {[m.member_index for m in rep.matches]}",
        )
    )
    return checks


# -- 10: round trip and validation -------------------------------------------


@_suite("roundtrip")
def suite_roundtrip(seed: int = 0) -> list:
    checks = []
    w1 = Window((3,))
    w2 = Window((2, 2))
    mods = [
        make_free((1,), w1, TRIV),
        make_free((1,), w1, GroupTable.symmetric(2)),
        make_cofree((2,), w1, TRIV),
        make_induced(((1, 1),), w1, TRIV),
        make_coinduced(((2,),), w1, TRIV),
        make_free((1, 1), w2, TRIV),
        external_tensor(make_free((1,), Window((2,)), TRIV),
                        make_cofree((1,), Window((2,)), TRIV)),
        truncated_constant(w1, 2),
        ind(make_cofree((1,), w1, TRIV), GroupTable.cyclic(2)),
    ]
    for v in mods:
        text = v.to_json()
        back = TruncatedModule.from_json(text)
        checks.append(
            Check(
                f"round trip {v.name or 'module'}",
                back == v and back.to_json() == text,
            )
        )
        checks.append(Check(f"validate {v.name or 'module'}", v.validate().ok))
    v = make_free((1,), w1, TRIV)
    bad_actions = dict(v.actions)
    key = ("swap", 1, 1, (2,))
    mat = bad_actions[key]
    rows = [list(r) for r in mat.rows]
    rows[0][0] = rows[0][0] + 1
    bad_actions[key] = RationalMatrix(rows)
    bad = TruncatedModule(v.window, v.group, v.dims, bad_actions)
    report = bad.validate()
    checks.append(
        Check(
            "validate flags a mutated control",
            not report.ok and report.first_failure() is not None,
            str(report.first_failure()),
        )
    )
    return checks


ALIASES = {
    "lemma2.8": "degree",
    "prop3.4": "semiinduced",
    "lemma2.7": "degree",
    "lemma2.2": "torsion",
    "thm4.10": "thm4.10",
}


def run_suite(name: str, seed: int = 0) -> SuiteReport:
    key = ALIASES.get(name, name)
    if key not in SUITES:
        raise ValueError(f"--suite: unknown suite {name!r}; known: {sorted(SUITES)}")
    return SUITES[key](seed=seed)


def run_all(seed: int = 0):
    return [SUITES[k](seed=seed) for k in SUITES]
