"""Exact symmetric-group representation theory over Q.

Specht modules are built on the standard polytabloid basis inside the
tabloid permutation module, which keeps every matrix rational (in fact
integral up to the basis change) and lets the Coxeter relations be verified
by plain matrix multiplication.  Characters come from the Murnaghan-Nakayama
rule; finite groups given by multiplication table get a character table by
rational eigenspace splitting of the class-sum matrices, with a hard error
when the table is not rational (out of scope by design).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .category import GroupTable, perm_to_adjacent
from .linalg import RationalMatrix, kernel_basis, rational_roots, solve_matrix


# -- partitions ---------------------------------------------------------


def check_partition(parts) -> tuple:
    parts = tuple(int(x) for x in parts)
    if any(x <= 0 for x in parts):
        raise ValueError(f"partition parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {parts}")
    return parts


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


# -- class data for S_n --------------------------------------------------


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


# -- Murnaghan-Nakayama ---------------------------------------------------


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


# -- Specht modules -------------------------------------------------------


def _tabloids(lam, n):
    """All tabloids: tuples of sorted row tuples partitioning [n]."""

    def fill(avail, row):
        if row == len(lam):
            return [()]
        res = []
        for combo in itertools.combinations(sorted(avail), lam[row]):
            rest = frozenset(avail - set(combo))
            for tail in fill(rest, row + 1):
                res.append((combo,) + tail)
        return res

    return sorted(fill(frozenset(range(1, n + 1)), 0))


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

    def matrix_of_perm(self, img: tuple) -> RationalMatrix:
        mat = RationalMatrix.identity(self.dim)
        for k in perm_to_adjacent(img):
            mat = mat * self.gens[k - 1]
        return mat


@lru_cache(maxsize=None)
def specht(lam) -> SpechtRep:
    """The Specht module S^lam with exact matrices for adjacent swaps."""
    lam = check_partition(lam) if lam else ()
    n = sum(lam)
    if n == 0:
        return SpechtRep((), 0, 1, ())
    tabs = standard_tableaux(lam)
    tabloids = _tabloids(lam, n)
    tab_index = {t: i for i, t in enumerate(tabloids)}
    dim = len(tabs)

    def polytabloid_vec(tab):
        vec = [Fraction(0)] * len(tabloids)
        for perm_map, sign in _column_group(tab):
            moved = _tabloid_of(_apply_perm_to_rows(perm_map, tab))
            vec[tab_index[moved]] += sign
        return vec

    basis = RationalMatrix([polytabloid_vec(t) for t in tabs])  # dim x #tabloids
    bt = basis.transpose()
    gens = []
    for k in range(1, n):
        swap = {k: k + 1, k + 1: k}
        prow_index = [
            tab_index[_tabloid_of(_apply_perm_to_rows(swap, t))] for t in tabloids
        ]
        # permutation action on tabloid coordinates: (P v)[new] = v[old]
        action_bt_cols = []
        for col in range(dim):
            vec = bt.col(col)
            out = [Fraction(0)] * len(tabloids)
            for old, x in enumerate(vec):
                if x:
                    out[prow_index[old]] += x
            action_bt_cols.append(out)
        rhs = RationalMatrix(
            [[action_bt_cols[c][r] for c in range(dim)] for r in range(len(tabloids))]
        )
        mat = solve_matrix(bt, rhs)
        if mat is None:
            raise AssertionError("polytabloid span was not stable under the swap")
        gens.append(mat)
    rep = SpechtRep(lam, n, dim, tuple(gens))
    expected = hook_length_dim(lam)
    if dim != expected:
        raise AssertionError(
            f"standard tableau count {dim} disagrees with hook formula {expected}"
        )
    _check_coxeter(rep.gens, dim)
    return rep


def _check_coxeter(gens, dim):
    ident = RationalMatrix.identity(dim)
    for i, g in enumerate(gens):
        if not (g * g == ident):
            raise ValueError(f"s_{i+1}^2 != 1")
        for j in range(i + 2, len(gens)):
            h = gens[j]
            if not (g * h == h * g):
                raise ValueError(f"s_{i+1} and s_{j+1} fail to commute")
    for i in range(len(gens) - 1):
        a, b = gens[i], gens[i + 1]
        if not (a * b * a == b * a * b):
            raise ValueError(f"braid relation fails at {i+1}")


# -- rational character tables for table groups ---------------------------


def _char_poly(mat: RationalMatrix):
    """Faddeev-LeVerrier: coefficients of det(tI - M), highest first."""
    n = mat.nrows
    coeffs = [Fraction(1)]
    m = RationalMatrix.zeros(n, n)
    ident = RationalMatrix.identity(n)
    for k in range(1, n + 1):
        m = mat * m + ident.scale(coeffs[-1])
        c = -(mat * m).trace() / k
        coeffs.append(c)
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
    classes = tuple(group.conjugacy_classes())
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
                vecs = []
                for row in ker.basis.rows:
                    vec = [Fraction(0)] * r
                    for c, brow in zip(row, basis.rows):
                        if c:
                            for t in range(r):
                                vec[t] += c * brow[t]
                    vecs.append(vec)
                new_spaces.append(RationalMatrix(vecs))
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
        omega = list(s.rows[0])
        if omega[0] == 0:
            raise IrrationalCharacterError("degenerate central character")
        omega = [x / omega[0] for x in omega]
        denom = Fraction(0)
        for j in range(r):
            denom += omega[j] * omega[inv_class[j]] / len(classes[j])
        dim_sq = Fraction(group.order) / denom
        dim = _fraction_sqrt(dim_sq)
        if dim is None:
            raise IrrationalCharacterError("non-square dimension; irrational table")
        chi = [omega[j] * dim / len(classes[j]) for j in range(r)]
        rows.append(tuple(chi))
    rows.sort(key=lambda chi: (chi[0], chi))
    return GroupCharacterTable(group, classes, tuple(rows))


def _fraction_sqrt(x: Fraction):
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn = _isqrt(num)
    rd = _isqrt(den)
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


# -- decomposition of product-group representations -----------------------


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
        ident = RationalMatrix.identity(self.dim)
        for i, n in enumerate(self.ns, start=1):
            gens = [self.swap_mats[(i, k)] for k in range(1, n)]
            for g in gens:
                if g.shape != (self.dim, self.dim):
                    raise ValueError("swap matrix has wrong shape")
            _check_coxeter(gens, self.dim)
        # distinct coordinates commute; group commutes with everything
        flat = [g for i, n in enumerate(self.ns, start=1) for g in
                [self.swap_mats[(i, k)] for k in range(1, n)]]
        per_coord = []
        for i, n in enumerate(self.ns, start=1):
            per_coord.append([self.swap_mats[(i, k)] for k in range(1, n)])
        for a in range(len(per_coord)):
            for b in range(a + 1, len(per_coord)):
                for x in per_coord[a]:
                    for y in per_coord[b]:
                        if not (x * y == y * x):
                            raise ValueError("coordinate actions do not commute")
        for gm in self.group_mats:
            for x in flat:
                if not (gm * x == x * gm):
                    raise ValueError("group action does not commute with Aut")
        # generator matrices must satisfy the group table
        rho = _rep_elements(self.group, self.group_mats, self.dim)
        for a in range(self.group.order):
            for b in range(self.group.order):
                if not (rho[a] * rho[b] == rho[self.group.mult[a][b]]):
                    raise ValueError("group relations fail")
        return ident

    def perm_matrix(self, i: int, img: tuple) -> RationalMatrix:
        mat = RationalMatrix.identity(self.dim)
        for k in perm_to_adjacent(img):
            mat = mat * self.swap_mats[(i, k)]
        return mat


def _rep_elements(group: GroupTable, gen_mats, dim):
    rho = {0: RationalMatrix.identity(dim)}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for j, gen in enumerate(group.generators):
                b = group.mult[gen][a]
                if b not in rho:
                    rho[b] = gen_mats[j] * rho[a]
                    nxt.append(b)
        frontier = nxt
    return rho


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
    m = len(rep.ns)

    # character of rep on a product class: trace of the product of the
    # coordinate representatives and the G representative.
    def rep_trace(mus, gclass_idx):
        mat = RationalMatrix.identity(rep.dim)
        for i in range(m):
            mat = mat * rep.perm_matrix(i + 1, class_representative(mus[i], rep.ns[i]))
        mat = mat * rho[gtable.classes[gclass_idx][0]]
        return mat.trace()

    order = prod(factorial(n) for n in rep.ns) * rep.group.order
    ginv_class = [
        gtable.class_of(rep.group.inverse[cls[0]]) for cls in gtable.classes
    ]
    result = {}
    lam_choices = [partitions_of(n) for n in rep.ns]
    traces = {}
    for mus in itertools.product(*coord_classes):
        for gc in range(len(gtable.classes)):
            traces[(mus, gc)] = rep_trace(mus, gc)
    for lams in itertools.product(*lam_choices):
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


def regular_rep_matrices(group: GroupTable):
    """Left regular representation matrices of the group generators."""
    mats = []
    for gen in group.generators:
        rows = [[Fraction(0)] * group.order for _ in range(group.order)]
        for a in range(group.order):
            rows[group.mult[gen][a]][a] = Fraction(1)
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

    @staticmethod
    def regular(group: GroupTable) -> "GroupRep":
        return GroupRep(group, group.order, tuple(regular_rep_matrices(group)))
