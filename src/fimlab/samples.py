"""Seeded random modules for the verification batteries.

Everything is driven by a ``random.Random(seed)`` so batteries are
reproducible from the config seed; the constructions keep honest
presentations (quotients of explicit free covers by explicitly generated
relation submodules, both inside the window).
"""

from __future__ import annotations

import random

from .category import GroupTable, Window, degree
from .linalg import Subspace
from .modules import (
    TruncatedModule,
    close_under_actions,
    make_cofree,
    make_free,
    make_free_sum,
    quotient,
)

TRIV = GroupTable.trivial()
# random_presented_module draws 1..MAX_GENS free generators and 0..MAX_RELS
# relation seeds
MAX_GENS = 2
MAX_RELS = 2


def point_module(window: Window, group: GroupTable | None = None) -> TruncatedModule:
    """The module supported at the zero object (co-free at 0)."""
    return make_cofree(tuple([0] * window.m), window, group or TRIV)


def random_vector(rng: random.Random, dim: int, span: int = 3):
    return [rng.randint(-span, span) for _ in range(dim)]


def random_presented_module(
    window: Window,
    seed: int,
    group: GroupTable | None = None,
    gen_degree: int = 1,
    rel_degree: int = 2,
) -> TruncatedModule:
    """A quotient of a small free module by a random relation submodule.

    The presentation is certified by construction: generators are the free
    slots, relations are generated exactly by the chosen seed vectors.
    """
    rng = random.Random(seed)
    group = group or TRIV
    objs = window.objects_by_degree()
    gen_objs = [n for n in objs if degree(n) <= gen_degree]
    rel_objs = [n for n in objs if 0 < degree(n) <= rel_degree]
    gens = [rng.choice(gen_objs) for _ in range(rng.randint(1, MAX_GENS))]
    p = make_free_sum(gens, window, group)
    n_rels = rng.randint(0, MAX_RELS)
    seeds = {}
    for _ in range(n_rels):
        at = rng.choice(rel_objs)
        if p.dims[at] == 0:
            continue
        vec = random_vector(rng, p.dims[at])
        if all(x == 0 for x in vec):
            continue
        cur = seeds.setdefault(at, [])
        cur.append(vec)
    if not seeds:
        return p
    spaces = close_under_actions(
        p, {n: Subspace.from_spanning(p.dims[n], vs) for n, vs in seeds.items()}
    )
    q, _ = quotient(p, spaces, name=f"rand{seed}", rel_objects=list(seeds))
    return q


def truncated_constant(window: Window, cut: int, group=None) -> TruncatedModule:
    """M(0)/(submodule generated in degree ``cut``): a torsion module
    supported in degrees < cut (all coordinates summed)."""
    group = group or TRIV
    v = make_free(tuple([0] * window.m), window, group)
    seeds = {
        n: Subspace.full(v.dims[n])
        for n in window.objects()
        if degree(n) == cut
    }
    spaces = close_under_actions(v, seeds)
    q, _ = quotient(v, spaces, name=f"M0/deg{cut}", rel_objects=list(seeds))
    return q
