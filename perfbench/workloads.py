"""The benchmark's workloads: inputs built from the seed, the timed
operations, and the checks run on their outputs outside the timed region.

Every check is a mathematical identity that holds for any seed, so a
failed check is a wrong answer, never an unlucky input.

Library functions are looked up on their modules at call time, not bound
at import, so that the layer tracer's wrappers are the ones called during
a traced pass.
"""

from __future__ import annotations

import dataclasses
import random

from fimlab import homology, linalg, modules, samples, suites
from fimlab.category import GroupTable, Window, degree

TRIV = GroupTable.trivial()

# Random modules are built with these degree bounds, which the homology
# checks compare against.
GEN_DEGREE = 1
REL_DEGREE = 2
BATCH_WINDOWS = ((3, 3), (5,))
BATCH_PER_WINDOW = 3


@dataclasses.dataclass
class Op:
    """One timed operation and the checks on its output.

    ``check(output)`` returns a list of ``(label, ok)`` pairs.
    """

    name: str
    run: object
    check: object


def _batch_modules(seed: int):
    rng = random.Random(seed)
    out = []
    for bound in BATCH_WINDOWS:
        for _ in range(BATCH_PER_WINDOW):
            s = rng.randrange(1 << 30)
            v = samples.random_presented_module(
                Window(bound), s, gen_degree=GEN_DEGREE, rel_degree=REL_DEGREE
            )
            out.append((f"rand{s}{bound}", v))
    return out


# -- suites ------------------------------------------------------------------


def _check_suite(report):
    out = [(f"{report.suite}: {c.name}", bool(c.ok)) for c in report.checks]
    consistent = report.passed == all(c.ok for c in report.checks)
    out.append((f"{report.suite}: passed", bool(report.passed) and consistent))
    return out


# ``fimlab verify-paper`` runs the suites at seed 0 unless configured
# otherwise.  Other seeds are not used: about one seed in thirty makes
# ``suite_thm2`` fail (see README.md), and a benchmark workload must be one
# on which every operation succeeds.
SUITE_SEED = 0


def _suite_op(name: str) -> Op:
    return Op(name, lambda: suites.SUITES[name](seed=SUITE_SEED), _check_suite)


def build_suites(seed: int):
    """The ten suites of ``suites.run_all(SUITE_SEED)``, one operation each,
    in ``run_all``'s order.  ``seed`` does not change them."""
    return [_suite_op(name) for name in suites.SUITES]


# -- hom_ladder ----------------------------------------------------------------


def _check_hom(results):
    """Yoneda: Hom(F(n), W) has dimension dim W(n), every returned map is
    natural, and the maps' values on the generator of F(n) are linearly
    independent, so the maps are a basis.

    The generator is the identity injection, column 0 of F(n)(n): the
    group is trivial here and injections are listed in lexicographic
    order."""
    out = []
    for (label, n, _, w), hom in results:
        out.append((f"{label}: dim {len(hom)} == dim W{n} {w.dims[n]}",
                    len(hom) == w.dims[n]))
        for k, mp in enumerate(hom):
            out.append((f"{label}: map {k} natural", mp.is_natural()))
        values = linalg.RationalMatrix([mp.block(n).col(0) for mp in hom],
                                       len(hom), w.dims[n])
        out.append((f"{label}: values on the generator independent",
                    linalg.rank(values) == len(hom)))
    return out


def _hom_op(name: str, inputs) -> Op:
    """``inputs()`` returns the (label, n, F(n), W) to run."""

    def run():
        return [(item, modules.hom_space(item[2], item[3])) for item in inputs()]

    return Op(name, run, _check_hom)


def _hom_batch(seed: int):
    out = []
    for label, w in _batch_modules(seed):
        for n in w.window.objects():
            if degree(n) <= GEN_DEGREE:
                f = modules.make_free(n, w.window, w.group)
                out.append((f"{label} from F{n}", n, f, w))
    return out


def build_hom_ladder(seed: int):
    ops = []
    for n, bound in (((2,), (4,)), ((2,), (5,)), ((1, 1), (4, 4))):
        f = modules.make_free(n, Window(bound), TRIV)
        item = (f"F{n}{bound}", n, f, f)
        ops.append(_hom_op(f"hom F{n} {bound}", lambda item=item: [item]))
    # The seeded modules are built inside the timed operation: their cost
    # depends on the seed, and set-up is meant to repeat across seeds.
    ops.append(_hom_op("hom batch", lambda: _hom_batch(seed)))
    return ops


# -- homology_ladder -------------------------------------------------------------


def _cover_adds_up(v, cover):
    p, _, k, _ = cover
    return all(p.dims[n] == v.dims[n] + k.dims[n] for n in v.window.objects())


def _check_h1(results):
    out = []
    for (label, v, _, gen), rep, cover in results:
        out.append((f"{label}: dim P = dim V + dim K", _cover_adds_up(v, cover)))
        if gen is not None:
            out.append((f"{label}: H1 = 0", rep.h1_is_zero()))
            out.append((f"{label}: H1 status EXACT",
                        rep.status_t1 == homology.EXACT))
            out.append((f"{label}: t0 = {degree(gen)}", rep.t0 == degree(gen)))
        else:
            out.append((f"{label}: t0 {rep.t0} <= {GEN_DEGREE}",
                        rep.t0 <= GEN_DEGREE))
            out.append((f"{label}: t1 {rep.t1} <= {REL_DEGREE}",
                        rep.t1 <= REL_DEGREE))
    return out


def _h1_op(name: str, inputs) -> Op:
    """``inputs()`` returns the (label, module, S, free generator or None)
    to run."""

    def run():
        out = []
        for item in inputs():
            cover = homology.free_cover(item[1])
            out.append((item, homology.h1(item[1], item[2], cover=cover), cover))
        return out

    return Op(name, run, _check_h1)


def _h1_batch(seed: int):
    return [(label, v, tuple(range(1, v.m + 1)), None)
            for label, v in _batch_modules(seed)]


def build_homology_ladder(seed: int):
    ops = []
    for n, bound, s in (((2,), (5,), (1,)), ((2,), (6,), (1,)),
                        ((1, 1), (4, 4), (1, 2))):
        f = modules.make_free(n, Window(bound), TRIV)
        item = (f"F{n}{bound}", f, s, n)
        ops.append(_h1_op(f"h1 F{n} {bound}", lambda item=item: [item]))
    # Built inside the timed operation, as in ``build_hom_ladder``.
    ops.append(_h1_op("h1 batch", lambda: _h1_batch(seed)))
    return ops


WORKLOADS = {
    "suites": build_suites,
    "hom_ladder": build_hom_ladder,
    "homology_ladder": build_homology_ladder,
}


# -- negative controls ------------------------------------------------------------
# Each corrupts the output of its workload's first operation before the
# checks see it; the checker must count the corruption as a failure.


def _hom_off_by_one(results):
    item, hom = results[0]
    return [(item, hom + hom[:1])] + results[1:]


def _hom_repeated_map(results):
    # Keeps the count and naturality right; only independence can catch it.
    item, hom = results[0]
    return [(item, hom[:1] * len(hom))] + results[1:]


def _suite_failed_check(report):
    checks = report.checks + [suites.Check("injected failure", False)]
    return dataclasses.replace(report, checks=checks)


def _h1_nonzero_free(results):
    item, rep, cover = results[0]
    dims = dict(rep.h1_dims)
    dims[next(iter(dims))] = 1
    return [(item, dataclasses.replace(rep, h1_dims=dims), cover)] + results[1:]


# The workload each control applies to is named in run.py.
CONTROLS = {
    "hom_off_by_one": _hom_off_by_one,
    "hom_repeated_map": _hom_repeated_map,
    "suite_failed_check": _suite_failed_check,
    "h1_nonzero_free": _h1_nonzero_free,
}
