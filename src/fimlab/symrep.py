"""Exact symmetric-group representation theory over Q, as far as the
induced and coinduced modules need it.

Specht modules are built on the standard polytabloid basis; each swap
matrix is read off the standard tabloids by substitution through a
unitriangular block, so every matrix is integral and the Coxeter relations
are verified by plain matrix multiplication.  Finite groups, carried by
their generators' left multiplications, act through generator matrices
(``GroupRep``), checked by :func:`group_failures`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .category import GroupTable
from .linalg import RationalMatrix


# -- partitions ---------------------------------------------------------


def check_partition(parts) -> tuple:
    parts = tuple(int(x) for x in parts)
    if any(x <= 0 for x in parts):
        raise ValueError(f"partition parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {parts}")
    return parts


def conjugate_partition(lam) -> tuple:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def hook_length_dim(lam) -> int:
    """Number of standard Young tableaux, by the hook length formula."""
    lam = check_partition(lam) if lam else ()
    n = sum(lam)
    if n == 0:
        return 1
    conj = conjugate_partition(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return factorial(n) // hooks


def standard_tableaux(lam):
    """All standard Young tableaux of the given shape, as row tuples."""
    lam = check_partition(lam) if lam else ()
    n = sum(lam)
    if n == 0:
        return [()]
    out = []

    def place(value, rows):
        if value > n:
            out.append(tuple(tuple(r) for r in rows))
            return
        for i in range(len(lam)):
            if len(rows[i]) < lam[i] and (i == 0 or len(rows[i - 1]) > len(rows[i])):
                rows[i].append(value)
                place(value + 1, rows)
                rows[i].pop()

    place(1, [[] for _ in lam])
    return out


# -- Specht modules -------------------------------------------------------


def _tabloid_of(rows) -> tuple:
    return tuple(tuple(sorted(r)) for r in rows)


def _apply_perm_to_rows(perm_map: dict, rows):
    return tuple(tuple(perm_map.get(x, x) for x in row) for row in rows)


def _column_group(tab):
    """Elements of the column stabilizer with signs: (perm map, sign)."""
    lam = tuple(len(r) for r in tab)
    ncols = lam[0] if lam else 0
    columns = []
    for j in range(ncols):
        col = [tab[i][j] for i in range(len(lam)) if lam[i] > j]
        columns.append(col)
    elements = [({}, 1)]
    for col in columns:
        new = []
        for perm in itertools.permutations(col):
            sign = _perm_sign(col, perm)
            for base_map, base_sign in elements:
                m = dict(base_map)
                m.update({a: b for a, b in zip(col, perm)})
                new.append((m, base_sign * sign))
        elements = new
    return elements


def _perm_sign(src, dst) -> int:
    pos = {x: i for i, x in enumerate(dst)}
    perm = [pos[x] for x in src]
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@dataclass(frozen=True)
class SpechtRep:
    """An irreducible S_n representation on the standard polytabloid basis.

    ``gens[k-1]`` is the matrix of the adjacent transposition (k, k+1).
    """

    lam: tuple
    n: int
    dim: int
    gens: tuple


def _at_standard(tab, index) -> list:
    """The polytabloid e_tab, the signed sum of the tabloids {pi tab} over
    pi in tab's column group, at the standard tabloids only: entry i is the
    coefficient of the tabloid of the i-th standard tableau (``index``)."""
    vec = [0] * len(index)
    for perm_map, sign in _column_group(tab):
        i = index.get(_tabloid_of(_apply_perm_to_rows(perm_map, tab)))
        if i is not None:
            vec[i] += sign
    return vec


@lru_cache(maxsize=None)
def specht(lam) -> SpechtRep:
    """The Specht module S^lam with exact matrices for adjacent swaps.

    Polytabloids are read at the standard tabloids only; a standard tableau
    is its own tabloid key.  There the standard polytabloids form an upper
    unitriangular block in ``standard_tableaux`` order, checked on every
    call: every other tabloid of e_T is dominated by {T} (James, The
    Representation Theory of the Symmetric Groups, LNM 682, section 8), and
    that order, lexicographic in the rows of 1, ..., n, lists it later.
    Column T of ``gens[k-1]`` is s_k e_T = e_{s_k T} in the standard
    polytabloids, read off by substitution through the block in that order.
    """
    lam = check_partition(lam) if lam else ()
    n = sum(lam)
    if n == 0:
        return SpechtRep((), 0, 1, ())
    tabs = standard_tableaux(lam)
    index = {t: i for i, t in enumerate(tabs)}
    dim = len(tabs)
    expected = hook_length_dim(lam)
    if dim != expected:
        raise AssertionError(
            f"standard tableau count {dim} disagrees with hook formula {expected}"
        )
    block = [_at_standard(t, index) for t in tabs]
    if any(row[i] != 1 or any(row[:i]) for i, row in enumerate(block)):
        raise ValueError(f"the standard polytabloids of S^{lam} are not upper "
                         f"unitriangular at the standard tabloids")
    gens = []
    for k in range(1, n):
        swap = {k: k + 1, k + 1: k}
        cols = []
        for t in tabs:
            coeffs = _at_standard(_apply_perm_to_rows(swap, t), index)
            for i, row in enumerate(block):
                if coeffs[i]:
                    for j in range(i + 1, dim):
                        coeffs[j] -= coeffs[i] * row[j]
            cols.append(coeffs)
        gens.append(RationalMatrix(zip(*cols)))
    rep = SpechtRep(lam, n, dim, tuple(gens))
    failures = coxeter_failures({(1, k): g for k, g in enumerate(rep.gens, 1)},
                                RationalMatrix.identity(dim), f"S^{lam}")
    if failures:
        raise ValueError(failures[0])
    return rep


def coxeter_failures(swaps: dict, ident, where) -> list:
    """The relations that the swaps ``swaps[(i, k)]`` of k and k + 1 in
    coordinate i, in ``aut_swaps`` order, break, as messages: each is an
    involution, adjacent swaps of one coordinate braid, and all other pairs
    commute.  These present Aut(n) = S_{n_1} x ... x S_{n_m} (Coxeter)."""
    failures = []
    for (i, k), s in swaps.items():
        if not (s * s == ident):
            failures.append(f"swap ({i},{k}) at {where} is not an involution")
    for ((i, k), s), ((j, l), t) in itertools.combinations(swaps.items(), 2):
        if i == j and abs(k - l) == 1:
            if not (s * t * s == t * s * t):
                failures.append(f"braid relation fails at {where} coord {i} ({k},{l})")
        elif not (s * t == t * s):
            failures.append(f"swaps ({i},{k}),({j},{l}) at {where} do not commute")
    return failures


# -- group representations ------------------------------------------------


def _rep_elements(group: GroupTable, gen_mats, dim):
    """The matrix of every group element, as products of the generator
    matrices along the group's breadth-first tree."""
    rho = {0: RationalMatrix.identity(dim)}
    for b, (j, a) in itertools.islice(group.tree.items(), 1, None):
        rho[b] = gen_mats[j] * rho[a]
    return rho


def group_failures(group: GroupTable, gen_mats, dim, where) -> list:
    """The generators j for which rho(g_j) rho(a) = rho(g_j a) fails at
    some element a, rho built along the group's tree from ``gen_mats``, as
    messages.  None fail exactly when the matrices represent the group: by
    induction on word length, every word then multiplies out to the matrix
    of its element."""
    rho = _rep_elements(group, gen_mats, dim)
    return [f"group relations fail at {where} for generator {j}"
            for j, (g, row) in enumerate(zip(gen_mats, group.left))
            if any(not (g * rho[a] == rho[b]) for a, b in enumerate(row))]


def regular_rep_matrices(group: GroupTable):
    """Left regular representation matrices of the group generators."""
    mats = []
    for row in group.left:
        rows = [[Fraction(0)] * group.order for _ in range(group.order)]
        for a, b in enumerate(row):
            rows[b][a] = Fraction(1)
        mats.append(RationalMatrix(rows))
    return mats


@dataclass(frozen=True)
class GroupRep:
    """A representation of a table group by generator matrices."""

    group: GroupTable
    dim: int
    gen_mats: tuple

    @staticmethod
    def trivial(group: GroupTable) -> "GroupRep":
        mats = tuple(RationalMatrix.identity(1) for _ in group.generators)
        return GroupRep(group, 1, mats)

