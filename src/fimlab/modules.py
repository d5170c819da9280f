"""Truncated modules over the product injection category (times a finite
group): the central value type of the package.

A :class:`TruncatedModule` stores a dimension per window object and one
exact rational matrix per category generator.  The free cover, Hom and
the counit of an induced module read the values V(beta, h) of other
morphisms off an orbit walk (:func:`_orbit_walk`), which reaches each
injection out of an object with one product.  Constructors cover free,
co-free, coinduced (Specht invariants of one injection's stabiliser),
external tensor, direct sums, submodules and quotients; the induced
modules M(lambda) are F_n of their Specht representation, built in
:mod:`fimlab.functors`.  Hom(V, W) is computed by Yoneda from generators of
V read off its own data: a map is a choice of values in W at the
generators, subject to killing the kernel of V's free cover; with a
certified presentation inside the window this is the honest Hom space of
the untruncated modules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, groupby
from math import lcm, prod
from types import MappingProxyType

from .category import (
    GroupTable,
    Window,
    add,
    aut_swaps,
    count_injections,
    generator_index_map,
    generator_keys,
    injection_index_table,
    json_field,
    leq,
    rekey,
    split_generators,
    sub,
    unit,
    window_generators,
    _is_int,
)
from .linalg import (
    RationalMatrix,
    Subspace,
    block_diag,
    inverse,
    kernel_basis,
    kron,
    quotient_map,
    rank,
    solve,
    solve_matrix,
    _make,
    _reduced,
    _stack_rows,
    _unit_rows,
)
from .symrep import coxeter_failures, group_failures, specht, _rep_elements

# -- wire-format helpers -------------------------------------------------


def fraction_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_fraction(s: str) -> Fraction:
    return Fraction(s)


def obj_str(n) -> str:
    return "(" + ",".join(str(x) for x in n) + ")"


def parse_obj(s: str) -> tuple:
    body = s.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"bad object string {s!r}")
    body = body[1:-1].strip()
    if not body:
        return ()
    return tuple(int(x) for x in body.split(","))


def matrix_to_lists(mat: RationalMatrix):
    den = mat.den
    if den == 1:
        return [[str(x) for x in row] for row in mat.rows]
    return [[fraction_str(Fraction(x, den)) for x in row] for row in mat.rows]


def _obj_field(d, key: str, path: str = "", optional: bool = False):
    """An object string field of parsed JSON, parsed; ValueError naming it."""
    text = json_field(d, key, str, path, optional)
    if text is None:
        return None
    try:
        return parse_obj(text)
    except ValueError as exc:
        where = f"{path}.{key}" if path else key
        raise ValueError(f"{where}: {exc}") from None


def matrix_from_lists(rows, nrows, ncols) -> RationalMatrix:
    """The matrix of the wire format: a list of rows, each a list of
    fraction strings.  Each distinct string is parsed once."""
    values = {}
    for row in rows:
        if not isinstance(row, list):
            raise ValueError(f"row {row!r} is not a list")
        for x in row:
            if not isinstance(x, str):
                raise ValueError(f"entry {x!r} is not a string")
            if x not in values:
                values[x] = parse_fraction(x)
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise ValueError("matrix shape does not match declared dims")
    den = lcm(*(x.denominator for x in values.values()))
    nums = {s: x.numerator * (den // x.denominator) for s, x in values.items()}
    return _stack_rows((([nums[x] for x in row], den) for row in rows), ncols)


# -- presentations -------------------------------------------------------


@dataclass(frozen=True)
class Presentation:
    """Certificate that a module is determined by window data.

    ``generator_slots`` lists objects (with an optional partition-tuple
    label) in whose degrees the module is generated; ``relation_bound`` is a
    componentwise bound on the generation degrees of the kernel of the
    corresponding free cover, or None when unknown.  Operations that need
    exactness check ``fits`` and refuse otherwise.

    ``observed_only`` marks bounds merely read off from window data rather
    than certified by a construction; they drive searches but never upgrade
    a status to EXACT.
    """

    generator_slots: tuple
    relation_bound: tuple | None
    observed_only: bool = False

    @staticmethod
    def make(slots, relation_bound, observed_only=False):
        """From (object, label) pairs and a bound, as tuples."""
        norm = tuple((tuple(obj), lab) for obj, lab in slots)
        rb = None if relation_bound is None else tuple(relation_bound)
        return Presentation(norm, rb, observed_only)

    def gen_bound(self, m: int) -> tuple:
        bound = [0] * m
        for obj, _ in self.generator_slots:
            for i, x in enumerate(obj):
                bound[i] = max(bound[i], x)
        return tuple(bound)

    def total_bound(self, m: int) -> tuple | None:
        g = self.gen_bound(m)
        if self.relation_bound is None:
            return None
        return tuple(max(a, b) for a, b in zip(g, self.relation_bound))

    def fits_generators(self, window: Window) -> bool:
        return leq(self.gen_bound(window.m), window.bound)

    def fits(self, window: Window) -> bool:
        total = self.total_bound(window.m)
        return total is not None and leq(total, window.bound)

    def to_dict(self) -> dict:
        return {
            "generators": [
                {
                    "at": obj_str(obj),
                    "label": None if lab is None else [list(p) for p in lab],
                }
                for obj, lab in self.generator_slots
            ],
            "relation_bound": None
            if self.relation_bound is None
            else obj_str(self.relation_bound),
            "observed_only": self.observed_only,
        }

    @staticmethod
    def from_dict(d: dict) -> "Presentation":
        slots = []
        for i, g in enumerate(json_field(d, "generators", list)):
            path = f"generators[{i}]"
            lab = json_field(g, "label", list, path, optional=True)
            if lab is not None:
                if not all(isinstance(p, list) and all(_is_int(x) for x in p)
                           for p in lab):
                    raise ValueError(f"{path}.label: expected integer lists")
                lab = tuple(tuple(p) for p in lab)
            slots.append((_obj_field(g, "at", path), lab))
        return Presentation(
            tuple(slots),
            _obj_field(d, "relation_bound", optional=True),
            bool(json_field(d, "observed_only", bool, optional=True)),
        )


class MarginError(RuntimeError):
    """Raised when an operation would need data beyond the window."""


# -- the module type ------------------------------------------------------


@dataclass
class ValidationReport:
    ok: bool
    failures: list

    def first_failure(self):
        return self.failures[0] if self.failures else None


class TruncatedModule:
    """A representation of the truncated category: dims plus generator
    actions, immutable after construction."""

    def __init__(self, window: Window, group: GroupTable, dims, actions,
                 presentation: Presentation | None = None, name: str = ""):
        self.window = window
        self.group = group
        self.dims = {tuple(k): v for k, v in dims.items()}
        self.actions = dict(actions)
        self.presentation = presentation
        self.name = name
        objects = window.objects()
        for n in objects:
            if n not in self.dims:
                raise ValueError(f"missing dimension at {n}")
        # every object has a dimension, so a longer dict has a stray key
        if len(self.dims) > len(objects):
            stray = next(n for n in self.dims if not window.contains(n))
            raise ValueError(f"dimension given at {stray}, outside the window")
        for n, d in self.dims.items():
            if type(d) is not int:
                raise ValueError(f"dimension at {n} is not an integer: {d!r}")
            if d < 0:
                raise ValueError(f"negative dimension {d} at {n}")
        gens = window_generators(window, group)
        for key, src, tgt in gens:
            mat = self.actions.get(key)
            if mat is None:
                raise ValueError(f"missing action for generator {key}")
            if mat.nrows != self.dims[tgt] or mat.ncols != self.dims[src]:
                raise ValueError(f"action {key} has shape {mat.shape}, expected "
                                 f"({self.dims[tgt]}, {self.dims[src]})")
        if len(self.actions) > len(gens):
            keys = {key for key, _, _ in gens}
            stray = next(key for key in self.actions if key not in keys)
            raise ValueError(f"action given for {stray}, not a generator of the window")

    @property
    def m(self) -> int:
        return self.window.m

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims.values())

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedModule)
            and self.window == other.window
            and self.group == other.group
            and self.dims == other.dims
            and self.actions == other.actions
        )

    def __repr__(self):
        total = self.total_dim()
        label = self.name or "module"
        return f"TruncatedModule({label}, window {self.window.bound}, total dim {total})"

    def group_elements_at(self, n):
        """rho(g) for every group element at object n."""
        gen_mats = [self.actions[("grp", j, tuple(n))] for j in range(len(self.group.generators))]
        return _rep_elements(self.group, gen_mats, self.dims[tuple(n)])

    # -- validation -----------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check the generator relations; the report lists each failure.
        They are the Coxeter relations of each Aut(n)
        (:func:`~fimlab.symrep.coxeter_failures`); inclusions move swaps up
        past the new point, commute with the swaps of other coordinates and
        with each other across coordinates; the swap of two new points fixes
        the double inclusion; G is represented
        (:func:`~fimlab.symrep.group_failures`, one message per failing
        generator) and commutes with all.

        Passing them makes V a functor on the window.  The relations hold in
        FI^m x G and present each FI factor (Church-Ellenberg-Farb, Duke
        Math. J. 164 (2015)); the product adds only that coordinates commute.
        Every morphism a -> b is sigma o (standard inclusions) o g, with g
        in G and sigma in Aut(b) a product of adjacent swaps, so a word in
        the generators from a to b meets only objects c with a <= c <= b,
        all in a box window: no rewriting leaves the window.
        """
        failures = []

        def check(cond, msg):
            if not cond:
                failures.append(msg)

        m = self.m
        for n in self.window.objects():
            swaps = {(i, k): self.actions[("swap", i, k, n)] for i, k in aut_swaps(n)}
            failures += coxeter_failures(swaps, RationalMatrix.identity(self.dims[n]), n)
            grp_mats = [
                self.actions[("grp", j, n)] for j in range(len(self.group.generators))
            ]
            for gm in grp_mats:
                for s in swaps.values():
                    check(gm * s == s * gm, f"group action does not commute with swaps at {n}")
            failures += group_failures(self.group, grp_mats, self.dims[n], n)
        # inclusion relations
        for n in self.window.objects():
            for i in range(1, m + 1):
                if n[i - 1] + 1 > self.window.bound[i - 1]:
                    continue
                ni = add(n, unit(m, i))
                inc = self.actions[("incl", i, n)]
                # swaps shift up past the new point
                for k in range(1, n[i - 1]):
                    lhs = inc * self.actions[("swap", i, k, n)]
                    rhs = self.actions[("swap", i, k + 1, ni)] * inc
                    check(lhs == rhs, f"incl/swap relation fails at {n} coord {i} k={k}")
                # swaps in other coordinates commute with the inclusion
                for j in range(1, m + 1):
                    if j == i:
                        continue
                    for k in range(1, n[j - 1]):
                        lhs = inc * self.actions[("swap", j, k, n)]
                        rhs = self.actions[("swap", j, k, ni)] * inc
                        check(lhs == rhs, f"incl {i} vs swap coord {j} fails at {n}")
                # group generators commute with inclusions
                for jg in range(len(self.group.generators)):
                    lhs = inc * self.actions[("grp", jg, n)]
                    rhs = self.actions[("grp", jg, ni)] * inc
                    check(lhs == rhs, f"incl {i} vs group gen {jg} fails at {n}")
                # double inclusion fixed by the swap of the two new points
                if n[i - 1] + 2 <= self.window.bound[i - 1]:
                    nii = add(ni, unit(m, i))
                    inc2 = self.actions[("incl", i, ni)]
                    s1 = self.actions[("swap", i, 1, nii)]
                    check(
                        s1 * inc2 * inc == inc2 * inc,
                        f"new-point swap relation fails at {n} coord {i}",
                    )
                # inclusions in different coordinates commute
                for j in range(i + 1, m + 1):
                    if n[j - 1] + 1 > self.window.bound[j - 1]:
                        continue
                    nj = add(n, unit(m, j))
                    lhs = self.actions[("incl", j, ni)] * inc
                    rhs = self.actions[("incl", i, nj)] * self.actions[("incl", j, n)]
                    check(lhs == rhs, f"inclusions {i},{j} fail to commute at {n}")
        return ValidationReport(not failures, failures)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        acts = []
        for key in sorted(self.actions.keys()):
            mat = self.actions[key]
            if key[0] == "incl":
                gen = {"incl": key[1], "at": obj_str(key[2])}
            elif key[0] == "swap":
                gen = {"swap": [key[1], key[2]], "at": obj_str(key[3])}
            else:
                gen = {"grp": key[1], "at": obj_str(key[2])}
            acts.append({"gen": gen, "matrix": matrix_to_lists(mat)})
        return {
            "m": self.m,
            "group_ref": self.group.to_dict(),
            "window": obj_str(self.window.bound),
            "dims": {obj_str(n): d for n, d in sorted(self.dims.items())},
            "actions": acts,
            "presentation": None
            if self.presentation is None
            else self.presentation.to_dict(),
            "name": self.name,
        }

    @staticmethod
    def from_dict(d: dict) -> "TruncatedModule":
        """Parse the wire format; a malformed field raises a ValueError whose
        message starts with the field's path."""
        group_ref = json_field(d, "group_ref", dict)
        try:
            group = GroupTable.from_dict(group_ref)
        except ValueError as exc:
            raise ValueError(f"group_ref.{exc}") from None
        bound = _obj_field(d, "window")
        try:
            window = Window(bound)
        except ValueError as exc:
            raise ValueError(f"window: {exc}") from None
        if window.m != json_field(d, "m", int):
            raise ValueError("m: window does not match declared m")
        dims = {}
        for k, dim in json_field(d, "dims", dict).items():
            try:
                n = parse_obj(k)
            except ValueError as exc:
                raise ValueError(f"dims.{k}: {exc}") from None
            if not _is_int(dim):
                raise ValueError(f"dims.{k}: expected an integer")
            if dim < 0:
                raise ValueError(f"dims.{k}: expected a non-negative integer")
            dims[n] = dim
        # checked before anything walks the window, which may be huge
        if len(dims) != prod(b + 1 for b in window.bound):
            raise ValueError("dims: not one entry per object of the window")
        for n in dims:
            if not window.contains(n):
                raise ValueError(f"dims.{obj_str(n)}: outside the window")
        ends = {key: (src, tgt) for key, src, tgt in window_generators(window, group)}
        actions = {}
        for idx, item in enumerate(json_field(d, "actions", list)):
            path = f"actions[{idx}]"
            gen = json_field(item, "gen", dict, path)
            at = _obj_field(gen, "at", f"{path}.gen")
            if sum(kind in gen for kind in ("incl", "swap", "grp")) != 1:
                raise ValueError(f"{path}.gen: expected exactly one of incl, swap, grp")
            if "incl" in gen:
                key = ("incl", json_field(gen, "incl", int, f"{path}.gen"), at)
            elif "swap" in gen:
                pair = json_field(gen, "swap", list, f"{path}.gen")
                if len(pair) != 2 or not all(_is_int(x) for x in pair):
                    raise ValueError(f"{path}.gen.swap: expected two integers")
                key = ("swap", pair[0], pair[1], at)
            else:
                key = ("grp", json_field(gen, "grp", int, f"{path}.gen"), at)
            if key not in ends:
                raise ValueError(f"{path}.gen: no such generator on the window")
            if key in actions:
                raise ValueError(f"{path}.gen: generator given twice")
            src, tgt = ends[key]
            rows = json_field(item, "matrix", list, path)
            try:
                actions[key] = matrix_from_lists(rows, dims[tgt], dims[src])
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{path}.matrix: {exc}") from None
        pres = json_field(d, "presentation", dict, optional=True)
        if pres is not None:
            try:
                pres = Presentation.from_dict(pres)
            except ValueError as exc:
                raise ValueError(f"presentation.{exc}") from None
            fields = [(f"generators[{i}].at", obj)
                      for i, (obj, _) in enumerate(pres.generator_slots)]
            if pres.relation_bound is not None:
                fields.append(("relation_bound", pres.relation_bound))
            for field, obj in fields:
                if len(obj) != window.m:
                    raise ValueError(f"presentation.{field}: expected {window.m} "
                                     f"coordinates, got {len(obj)}")
        name = json_field(d, "name", str, optional=True)
        return TruncatedModule(
            window, group, dims, actions, pres, "" if name is None else name
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    @staticmethod
    def from_json(text: str) -> "TruncatedModule":
        return TruncatedModule.from_dict(json.loads(text))

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @staticmethod
    def load(path) -> "TruncatedModule":
        with open(path) as fh:
            return TruncatedModule.from_json(fh.read())


# -- module maps ----------------------------------------------------------


class ModuleMap:
    """A natural transformation between truncated modules (same window)."""

    def __init__(self, source: TruncatedModule, target: TruncatedModule, blocks):
        if source.window != target.window:
            raise ValueError("source and target windows differ")
        if source.group != target.group:
            raise ValueError("source and target groups differ")
        self.source = source
        self.target = target
        self.blocks = {tuple(k): v for k, v in blocks.items()}
        for n in source.window.objects():
            blk = self.blocks.get(n)
            if blk is None:
                raise ValueError(f"missing block at {n}")
            if blk.shape != (target.dims[n], source.dims[n]):
                raise ValueError(f"block at {n} has shape {blk.shape}, expected "
                                 f"({target.dims[n]}, {source.dims[n]})")

    @staticmethod
    def identity(v: TruncatedModule) -> "ModuleMap":
        return ModuleMap(
            v, v, {n: RationalMatrix.identity(d) for n, d in v.dims.items()}
        )

    @staticmethod
    def zero(source: TruncatedModule, target: TruncatedModule) -> "ModuleMap":
        return ModuleMap(
            source,
            target,
            {
                n: RationalMatrix.zeros(target.dims[n], source.dims[n])
                for n in source.dims
            },
        )

    def block(self, n) -> RationalMatrix:
        return self.blocks[tuple(n)]

    def is_natural(self) -> bool:
        s, t = self.source, self.target
        live, _ = split_generators(s.window, s.group, s.dims, t.dims)
        for key, src, tgt in live:
            # a side through a zero value, the source's at tgt or the
            # target's at src, is the zero matrix
            lhs = self.blocks[tgt] * s.actions[key] if s.dims[tgt] else None
            rhs = t.actions[key] * self.blocks[src] if t.dims[src] else None
            if lhs is None or rhs is None:
                if not all(side is None or side.is_zero() for side in (lhs, rhs)):
                    return False
            elif lhs != rhs:
                return False
        return True

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self after other."""
        if other.target != self.source:
            raise ValueError("maps do not compose")
        rows, cols = self.target.dims, other.source.dims
        blocks = {}
        for n in self.blocks:
            blocks[n] = (self.blocks[n] * other.blocks[n] if rows[n] and cols[n]
                         else RationalMatrix.zeros(rows[n], cols[n]))
        return ModuleMap(other.source, self.target, blocks)

    def add(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(
            self.source,
            self.target,
            {n: self.blocks[n] + other.blocks[n] for n in self.blocks},
        )

    def scale(self, c) -> "ModuleMap":
        return ModuleMap(
            self.source, self.target, {n: b.scale(c) for n, b in self.blocks.items()}
        )

    def is_injective_objectwise(self) -> bool:
        return all(rank(b) == b.ncols for b in self.blocks.values())

    def is_iso(self) -> bool:
        return all(
            b.nrows == b.ncols and rank(b) == b.nrows for b in self.blocks.values()
        )

    def inverse_map(self) -> "ModuleMap":
        blocks = {}
        for n, b in self.blocks.items():
            inv = inverse(b)
            if inv is None:
                raise ValueError(f"block at {n} is not invertible")
            blocks[n] = inv
        return ModuleMap(self.target, self.source, blocks)

    def __eq__(self, other):
        return isinstance(other, ModuleMap) and self.blocks == other.blocks

    def __repr__(self):
        return f"ModuleMap(window {self.source.window.bound})"


# -- constructors ----------------------------------------------------------


def zero_module(window: Window, group: GroupTable) -> TruncatedModule:
    return make_free_sum([], window, group)


def _before_generator(key, maps) -> tuple:
    """The image tuples of beta o g for the incl or swap generator g of
    ``key`` and the injection beta with image tuples ``maps``: incl_i drops
    the first entry of coordinate i, swap_(i,k) exchanges its positions k
    and k + 1."""
    i = key[1]
    img = maps[i - 1]
    if key[0] == "incl":
        moved = img[1:]
    else:
        k = key[2]
        moved = img[:k - 1] + (img[k], img[k - 1]) + img[k + 1:]
    return maps[:i - 1] + (moved,) + maps[i:]


def _monomial(cols, nrows: int, ncols: int) -> RationalMatrix:
    """The 0/1 matrix whose row r is the shared unit row e_{cols[r]} (0 for None);
    ValueError unless ``cols`` has ``nrows`` entries, each None or in range(ncols)."""
    try:
        rows = tuple(map(_unit_rows(ncols).__getitem__, cols))
    except KeyError as exc:
        raise ValueError(f"monomial column {exc.args[0]!r} outside range({ncols})") from None
    if len(rows) != nrows:
        raise ValueError(f"{len(rows)} monomial columns for {nrows} rows")
    return _make(rows, 1, nrows, ncols)


def make_free(n, window: Window, group: GroupTable | None = None,
              name: str = "") -> TruncatedModule:
    """The representable projective at n (tensored with the group algebra):
    :func:`make_free_sum` on the one generator object n."""
    return make_free_sum([n], window, group, name or f"M{obj_str(n)}")


@lru_cache(maxsize=None)
def _free_tables(objs, window: Window, group: GroupTable) -> tuple:
    """The layout, dims, actions and presentation of the free module on
    ``objs``, built once per (objs, window, group) and shared read-only: the
    three tables are ``MappingProxyType`` views, each layout value a tuple
    of ranges, and every action an immutable ``RationalMatrix``.  The group
    enters only through its generators' left rows, so groups equal up to
    name share an entry, and no entry holds the group.

    Basis of the value at t: summand by summand, and within F(n_j) the
    injections n_j -> t in enumeration order, each paired with the group
    elements, group index varying fastest.  An incl or swap generator acts
    on each summand by a map of injection indices (a permutation for a
    swap, see :mod:`fimlab.category`) read off the shared
    ``generator_index_map`` and moved by the summand's row and column
    offsets, and a group generator g by (beta, h) -> (beta, g h); no
    morphism and no block matrix is built."""
    og = group.order
    layout, dims = {}, {}  # each summand's basis range at t, and its end
    for t in window.objects():
        blocks, a = [], 0
        for n in objs:
            d = count_injections(n, t) * og
            blocks.append(range(a, a + d))
            a += d
        layout[t], dims[t] = tuple(blocks), a
    actions = {}
    for key, src, tgt in window_generators(window, group):
        cols = [None] * dims[tgt]
        if key[0] == "grp":
            # every summand's block is a run of |G|-blocks, each (beta, h)
            row = group.left[key[1]]
            for bi in range(0, dims[src], og):
                for h in range(og):
                    cols[bi + row[h]] = bi + h
        elif dims[src]:
            for n, bs, bt in zip(objs, layout[src], layout[tgt]):
                if bs:
                    so, to = bs.start, bt.start
                    for bi, ti in enumerate(generator_index_map(n, key)):
                        for h in range(og):
                            cols[to + ti * og + h] = so + bi * og + h
        actions[key] = _monomial(cols, dims[tgt], dims[src])
    rel = tuple(max(x) for x in zip((0,) * window.m, *objs))
    pres = Presentation(tuple((n, None) for n in objs), rel, False)
    return (MappingProxyType(layout), MappingProxyType(dims),
            MappingProxyType(actions), pres)


class FreeModule(TruncatedModule):
    """The free module F(n_1) + ... + F(n_k) on the generator objects
    ``objs`` (repeats allowed, none for the zero module); its generators,
    cover and I_S V are read off :func:`_free_blocks`.

    Its data come from :func:`_free_tables`, built once per (objs, window,
    group) and shared read-only: each module copies the dims and actions
    into its own dicts, keeps the caller's group and name, and runs every
    shape check of :class:`TruncatedModule`; ``layout`` is the shared
    read-only view.  The result equals ``direct_sum`` of the single free
    modules, without its inclusions.
    """

    def __init__(self, objs, window: Window, group: GroupTable | None = None,
                 name: str = ""):
        objs = tuple(tuple(n) for n in objs)
        group = group or GroupTable.trivial()
        for n in objs:
            if not window.contains(n):
                raise MarginError(f"generator object {n} lies outside the window")
        layout, dims, actions, pres = _free_tables(objs, window, group)
        self.objs, self.layout = objs, layout
        # a proxy's copy() is its dict's one-step copy; dict(proxy) would
        # read it key by key
        super().__init__(window, group, dims, actions.copy(), pres, name)


def make_free_sum(objs, window: Window, group: GroupTable | None = None,
                  name: str = "") -> FreeModule:
    """The free module on the generator objects ``objs``, as a
    :class:`FreeModule`: a fresh module over tables shared read-only with
    every other build of the same (objs, window, group)."""
    return FreeModule(objs, window, group, name)


def _free_blocks(v: TruncatedModule, x):
    """Each summand's basis range at x, |G| #Inj(n_j, x) long; None unless v is free."""
    return v.layout[x] if isinstance(v, FreeModule) else None


def make_cofree(l, window: Window, group: GroupTable | None = None,
                name: str = "") -> TruncatedModule:
    """Functions on injections into l: the finite-dimensional co-free
    module.  The group factor acts trivially; tensor with the group algebra
    via functors.ind when the regular group action is wanted.  A generator
    g acts by precomposition, beta -> beta o g, read off the shared
    ``injection_index_table``."""
    l = tuple(l)
    group = group or GroupTable.trivial()
    if not window.contains(l):
        raise MarginError(f"cogenerator object {l} lies outside the window")
    dims = {t: count_injections(t, l) for t in window.objects()}
    actions = {}
    for key, src, tgt in window_generators(window, group):
        if not (dims[src] and dims[tgt]):
            cols = [None] * dims[tgt]
        elif key[0] == "grp":
            cols = range(dims[src])
        else:
            src_index = injection_index_table(src, l)
            cols = [src_index[_before_generator(key, beta)]
                    for beta in injection_index_table(tgt, l)]
        actions[key] = _monomial(cols, dims[tgt], dims[src])
    slots = [(t, None) for t in window.objects_by_degree() if dims[t] > 0]
    rel = tuple(x + 1 for x in l)
    pres = Presentation.make(slots, rel)
    return TruncatedModule(window, group, dims, actions, pres, name or f"E{obj_str(l)}")


def submodule_from_stable_subspaces(v: TruncatedModule, spaces,
                                    presentation=None, name=""):
    """Wrap action-stable subspaces as a module plus its inclusion map.

    The restricted action is read off the target space's pivot coordinates
    (:meth:`Subspace.coordinates`); an unstable family raises.
    """
    spaces = {tuple(k): s for k, s in spaces.items()}
    dims = {n: spaces[n].dim for n in v.window.objects()}
    # a zero target space inside a nonzero V(tgt) is still checked
    live, rest = split_generators(v.window, v.group, dims, v.dims)
    actions = {key: RationalMatrix.zeros(dims[tgt], dims[src]) for key, src, tgt in rest}
    blocks = {n: s.basis.transpose() for n, s in spaces.items()}  # the inclusion
    for key, src, tgt in live:
        restricted = spaces[tgt].coordinates(v.actions[key] * blocks[src])
        if restricted is None:
            raise ValueError(f"subspaces are not action-stable at {key}")
        actions[key] = restricted
    mod = TruncatedModule(v.window, v.group, dims, actions, presentation, name)
    incl = ModuleMap(mod, v, blocks)
    return mod, incl


def close_under_actions(v: TruncatedModule, seeds) -> dict:
    """Smallest action-stable family of subspaces containing the seed
    subspaces, keyed in ``window.objects()`` order.

    One pass in increasing degree: every positive-degree morphism into n
    factors through some n - o_i, so the family at n is spanned by the
    images of the family one degree down plus the automorphism closure of
    n's seed.
    """
    full_s = tuple(range(1, v.m + 1))
    spaces = dict.fromkeys(v.window.objects())
    for n in v.window.objects_by_degree():
        span = _images_from_below(v, full_s, n, spaces)
        seed = seeds.get(n)
        if seed is not None and seed.dim:
            span = _close_subspace_under(_automorphism_mats(v, n), span.add(seed))
        spaces[n] = span
    return spaces


def submodule_generated(v: TruncatedModule, seeds, name=""):
    """The submodule generated by the seed subspaces, with its inclusion."""
    spaces = close_under_actions(v, seeds)
    slots = [(n, None) for n, s in seeds.items() if s.dim > 0]
    pres = Presentation.make(slots, None)
    return submodule_from_stable_subspaces(v, spaces, pres, name)


def quotient(v: TruncatedModule, spaces, name="", rel_objects=None):
    """Quotient by an action-stable family of subspaces, with projection.

    ``rel_objects`` names the objects whose vectors generate the family (for
    the transported relation bound); default: every object with a nonzero
    subspace, which is correct but may be needlessly coarse.
    """
    spaces = {tuple(k): s for k, s in spaces.items()}
    projs = {}
    dims = {}
    for n in v.window.objects():
        q = quotient_map(v.dims[n], spaces[n])
        projs[n] = q
        dims[n] = q.nrows
    live, rest = split_generators(v.window, v.group, v.dims, dims)
    actions = {key: RationalMatrix.zeros(dims[tgt], dims[src]) for key, src, tgt in rest}
    for key, src, tgt in live:
        # induced action B with B . proj_src = proj_tgt . action; proj_src is
        # the identity on the source's free columns, so B is read off there.
        # Where the quotient is zero at a nonzero V(src), the action must die
        big = projs[tgt] * v.actions[key]
        b = big.columns(spaces[src].free_columns)
        if not (b * projs[src] == big if dims[src] else big.is_zero()):
            raise ValueError(f"subspaces are not action-stable at {key}")
        actions[key] = b
    pres = None
    if v.presentation is not None:
        if rel_objects is None:
            extra = [n for n, s in spaces.items() if s.dim > 0]
        else:
            extra = [tuple(n) for n in rel_objects]
        rb = v.presentation.relation_bound
        if rb is not None:
            bound = list(rb)
            for n in extra:
                bound = [max(a, b) for a, b in zip(bound, n)]
            pres = Presentation(
                v.presentation.generator_slots,
                tuple(bound),
                v.presentation.observed_only,
            )
    mod = TruncatedModule(v.window, v.group, dims, actions, pres, name)
    proj = ModuleMap(v, mod, projs)
    return mod, proj


def direct_sum(*mods, name="") -> tuple:
    """Direct sum with the canonical inclusion maps."""
    mods = list(mods)
    if not mods:
        raise ValueError("empty direct sum needs an explicit window")
    w = mods[0].window
    g = mods[0].group
    if any(v.window != w or v.group != g for v in mods):
        raise ValueError("summands live on different windows or groups")
    dims = {n: sum(v.dims[n] for v in mods) for n in w.objects()}
    live, rest = split_generators(w, g, dims, dims)
    actions = {key: RationalMatrix.zeros(dims[tgt], dims[src]) for key, src, tgt in rest}
    for key, _, _ in live:
        actions[key] = block_diag([v.actions[key] for v in mods])
    slots = []
    rel = [0] * w.m
    rel_known = True
    for v in mods:
        if v.presentation is None:
            rel_known = False
            continue
        slots.extend(v.presentation.generator_slots)
        if v.presentation.relation_bound is None:
            rel_known = False
        else:
            rel = [max(a, b) for a, b in zip(rel, v.presentation.relation_bound)]
    pres = None
    if all(v.presentation is not None for v in mods):
        observed = any(v.presentation.observed_only for v in mods)
        pres = Presentation(tuple(slots), tuple(rel) if rel_known else None, observed)
    total = TruncatedModule(w, g, dims, actions, pres, name)
    incls = []
    for j, v in enumerate(mods):
        # the identity on summand j, between 0-column blocks of the others;
        # empty where summand j is zero
        blocks = {
            n: block_diag([RationalMatrix.identity(u.dims[n]) if i == j
                           else RationalMatrix.zeros(u.dims[n], 0)
                           for i, u in enumerate(mods)])
            if v.dims[n] else RationalMatrix.zeros(dims[n], 0)
            for n in w.objects()
        }
        incls.append(ModuleMap(v, total, blocks))
    return total, incls


def external_tensor(v: TruncatedModule, w: TruncatedModule, name="") -> TruncatedModule:
    """Objectwise tensor over a product of coordinate sets (v first).

    At most one factor may carry a nontrivial group; the result carries it.
    """
    if not v.group.is_trivial() and not w.group.is_trivial():
        raise ValueError("both factors carry a nontrivial group")
    group = v.group if not v.group.is_trivial() else w.group
    g_on_v = not v.group.is_trivial()
    mv, mw = v.m, w.m
    window = Window(v.window.bound + w.window.bound)
    dims = {}
    for a in v.window.objects():
        for b in w.window.objects():
            dims[a + b] = v.dims[a] * w.dims[b]
    live, rest = split_generators(window, group, dims, dims)
    actions = {key: RationalMatrix.zeros(dims[tgt], dims[src]) for key, src, tgt in rest}
    for key, _, _ in live:
        a, b = key[-1][:mv], key[-1][mv:]
        on_v = g_on_v if key[0] == "grp" else key[1] <= mv
        if on_v:
            actions[key] = kron(v.actions[rekey(key, key[1], a)],
                                RationalMatrix.identity(w.dims[b]))
        else:
            c = key[1] if key[0] == "grp" else key[1] - mv
            actions[key] = kron(RationalMatrix.identity(v.dims[a]),
                                w.actions[rekey(key, c, b)])
    pres = None
    if v.presentation is not None and w.presentation is not None:
        slots = []
        for (oa, la) in v.presentation.generator_slots:
            for (ob, lb) in w.presentation.generator_slots:
                lab = None
                if la is not None and lb is not None:
                    lab = la + lb
                slots.append((oa + ob, lab))
        rv = v.presentation.total_bound(mv)
        rw = w.presentation.total_bound(mw)
        rel = (rv + rw) if (rv is not None and rw is not None) else None
        observed = v.presentation.observed_only or w.presentation.observed_only
        pres = Presentation(tuple(slots), rel, observed)
    return TruncatedModule(window, group, dims, actions, pres, name)


def restrict_window(v: TruncatedModule, new_window: Window) -> TruncatedModule:
    if not leq(new_window.bound, v.window.bound):
        raise MarginError("can only restrict to a smaller window")
    dims = {n: v.dims[n] for n in new_window.objects()}
    actions = {
        key: v.actions[key] for key in generator_keys(new_window, v.group)
    }
    return TruncatedModule(new_window, v.group, dims, actions, v.presentation, v.name)


def _fixed_space(d: int, mats) -> Subspace:
    """The vectors of Q^d fixed by every matrix in ``mats``: the invariants
    of the group they generate, as the kernel of the stacked (A - I)."""
    ident = RationalMatrix.identity(d)
    diffs = [mat - ident for mat in mats]
    return kernel_basis(_stack_rows(((row, a.den) for a in diffs for row in a.rows), d))


def _specht_swaps(n, spechts, tail_dim: int = 1) -> list:
    """Per entry of aut_swaps(n), the adjacent swap on the outer Specht
    product, tensored with the identity on a trailing factor."""
    return [
        reduce(kron, [sp.gens[k - 1] if j == i else RationalMatrix.identity(sp.dim)
                      for j, sp in enumerate(spechts, start=1)]
               + [RationalMatrix.identity(tail_dim)])
        for i, k in aut_swaps(n)
    ]


def make_coinduced(lambdas, window: Window, group: GroupTable | None = None,
                   name: str = "") -> TruncatedModule:
    """E(lambda): the Aut(l)-fixed vectors of (co-free at l) x X, X the outer
    Specht product and l = |lambda|, written down.  Aut(l) is transitive on
    Inj(t, l), so a fixed vector is its value at the standard inclusion beta0
    (injection index 0), in X^Stab(beta0): the vectors fixed by the swaps
    (i, k) with k > t_i.  Every pivot of the fixed space's RREF basis lies at
    beta0, so its basis is that of X^Stab(beta0).  A generator g: t -> t'
    acts by X(tau), beta0' o g = tau o beta0: a swap by its Specht generator,
    incl_i by X(s_(i,1)) ... X(s_(i,t_i)), and the group trivially."""
    group = group or GroupTable.trivial()
    lambdas = tuple(tuple(l) for l in lambdas)
    if window.m != len(lambdas):
        raise ValueError("need one partition per coordinate")
    l = tuple(sum(p) for p in lambdas)
    if not window.contains(l):
        raise MarginError(f"cogenerator object {l} lies outside the window")
    spechts = [specht(p) for p in lambdas]
    ident_x = RationalMatrix.identity(prod(r.dim for r in spechts))
    x_swap = dict(zip(aut_swaps(l), _specht_swaps(l, spechts)))
    spaces = {t: _fixed_space(ident_x.nrows, [x for (i, k), x in x_swap.items() if k > t[i - 1]])
              if leq(t, l) else Subspace.zero(0) for t in window.objects()}
    dims = {t: s.dim for t, s in spaces.items()}
    live, rest = split_generators(window, group, dims, dims)
    actions = {key: RationalMatrix.zeros(dims[tgt], dims[src]) for key, src, tgt in rest}
    for key, src, tgt in live:
        if key[0] == "swap":
            x_tau = x_swap[key[1], key[2]]
        elif key[0] == "incl":
            cycle = [x_swap[key[1], k] for k in range(1, src[key[1] - 1] + 1)]
            x_tau = reduce(RationalMatrix.__mul__, cycle, ident_x)
        else:
            x_tau = ident_x
        actions[key] = spaces[tgt].coordinates(x_tau * spaces[src].basis.transpose())
        if actions[key] is None:
            raise ValueError(f"Specht invariants are not action-stable at {key}")
    slots = [(t, None) for t in window.objects_by_degree() if dims[t] > 0]
    rel = tuple(x + 1 for x in l)
    return TruncatedModule(window, group, dims, actions, Presentation.make(slots, rel),
                           name or f"E{lambdas}")


# -- generators and the free cover ----------------------------------------


def _close_subspace_under(mats, space: Subspace) -> Subspace:
    changed = True
    while changed:
        changed = False
        for mat in mats:
            if space.dim in (0, space.ambient_dim):
                return space
            new = Subspace.from_spanning(
                space.ambient_dim, space.basis.rows + (space.basis * mat.transpose()).rows)
            if new.dim != space.dim:
                space = new
                changed = True
    return space


def _automorphism_mats(v: TruncatedModule, n) -> list:
    """The swap and group generator actions at n."""
    mats = [v.actions[("swap", i, k, n)] for i, k in aut_swaps(n)]
    return mats + [v.actions[("grp", j, n)] for j in range(len(v.group.generators))]


def _images_from_below(v: TruncatedModule, S, n, below) -> Subspace:
    """The span at n of the images of ``below[n - o_i]`` (all of
    V(n - o_i) when ``below`` is None) under every injection n - o_i -> n,
    for i in S.

    Up to automorphisms of n - o_i, such an injection is fixed by the point
    it misses in coordinate i: the standard inclusion misses 1, and
    swap_(i,k) after the injection missing k misses k + 1.  An action-stable
    ``below`` is kept in place by those automorphisms (and the group), so
    n_i moved images per i span everything.  The moved images of one i go
    into one elimination, as rows next to the span so far (scaling a row
    keeps its span); stops once the span is full.
    """
    d = v.dims[n]
    span = Subspace.zero(d)
    if not d:
        return span
    for i in S:
        if n[i - 1] == 0:
            continue
        low = sub(n, unit(v.m, i))
        img = v.actions[("incl", i, low)]
        if below is not None:
            if not below[low].dim:
                continue
            img = img * below[low].basis.transpose()
        if img.is_zero():
            continue
        vecs = list(span.basis.rows)
        vecs += img.transpose().rows
        for k in range(1, n[i - 1]):
            img = v.actions[("swap", i, k, n)] * img
            vecs += img.transpose().rows
        span = Subspace.from_spanning(d, vecs)
        if span.dim == d:
            return span
    return span


def positive_degree_image(v: TruncatedModule, S, n) -> Subspace:
    """(I_S V)(n): the span of images of all positive-S-degree morphisms.

    Each such morphism factors through some n - o_i -> n with i in S, so
    this is the span of the images of the V(n - o_i)
    (:func:`_images_from_below`).

    A :class:`FreeModule` takes no elimination: the RREF basis is the unit
    rows at the blocks (:func:`_free_blocks`) of the summands F(g) with
    g_S != n_S, as an injection g -> n factors through some n - o_i, i in S,
    exactly then.
    """
    n = tuple(n)
    blocks = _free_blocks(v, n)
    if blocks is None:
        return _images_from_below(v, S, n, None)
    cols = tuple(c for g, cs in zip(v.objs, blocks) if any(g[i - 1] != n[i - 1] for i in S)
                 for c in cs)
    return Subspace(v.dims[n], _monomial(cols, len(cols), v.dims[n]), cols)


def generators_and_cover(v: TruncatedModule):
    """Generators of V as a module and their cover, in one pass:
    ([(n, lifts)] in increasing degree, {x: the block P(x) -> V(x)} as
    :func:`cover_blocks` gives it for those generators).

    The lifts at n are unit vectors e_f at non-pivot coordinates f of the
    positive-degree image I(n), so ``quotient_map`` sends each to a unit
    vector and lifting costs no solve.  e_f is skipped when it already lies
    in the swap and group closure of I(n) and the lifts before it, so F(n)
    itself has one generator, not one per element of Aut(n) x G.  The
    images of the lifts under all window morphisms span V at every object.

    I(n) is read off the cover columns walked so far.  A morphism into n
    from a lower object factors through some n - o_i, and the generators at
    objects <= n - o_i span V there, so I(n) is the span at n of the
    images of the generators strictly below n.  Objects are taken in
    increasing degree, so all of those have been walked when n is reached,
    and no generator at n or at another object of n's degree reaches n.
    ``Subspace`` is canonical RREF, so this I(n) is
    ``positive_degree_image(v, full S, n)`` exactly, and so are the lifts.

    A :class:`FreeModule` gets the lifts this search would pick off its
    summand blocks (:func:`_free_blocks`).  I(n) is spanned by the blocks of
    the summands with n_j < n, and Aut(n) x G acts simply transitively on
    F(n)(n)'s basis, so the lifts are the first columns of the blocks at
    n_j, in (degree rank of n_j, j) order.  The cover permutes summand
    blocks from that order to ``objs`` order: the identity where they agree.
    """
    layout = {x: _free_blocks(v, x) for x in v.dims}
    if None not in layout.values():
        rank = {n: r for r, n in enumerate(v.window.objects_by_degree())}
        order = sorted(range(len(v.objs)), key=lambda j: rank[v.objs[j]])  # stable
        gens = [(n, [_unit_rows(v.dims[n])[layout[n][j].start] for j in js])
                for n, js in groupby(order, v.objs.__getitem__)]
        if order == sorted(order):
            return gens, {x: RationalMatrix.identity(d) for x, d in v.dims.items()}
        blocks = {}
        for x, d in v.dims.items():
            start = dict(zip(order, accumulate([len(layout[x][j]) for j in order], initial=0)))
            cols = [c for j, r in enumerate(layout[x]) for c in range(start[j], start[j] + len(r))]
            blocks[x] = _monomial(cols, d, d)
        return gens, blocks
    cols = {x: [] for x in v.window.objects()}  # (int column, denominator)
    gens = []
    for n in v.window.objects_by_degree():
        d = v.dims[n]
        span = Subspace.from_spanning(d, (c for c, _ in cols[n]))
        if span.dim == d:
            continue
        autos = _automorphism_mats(v, n)
        base = span.dim
        lifts = []
        for f in span.free_columns:
            e = tuple(int(r == f) for r in range(d))
            # the non-pivot unit vectors are independent modulo I(n), so e
            # can lie in the span only once a closure has added more
            if span.dim > base + len(lifts) and span.contains(e):
                continue
            lifts.append(e)
            span = _close_subspace_under(
                autos, Subspace.from_spanning(d, span.basis.rows + (e,)))
        gens.append((n, lifts))
        _walk_generator(v, n, lifts, cols)
    return gens, {x: _stack_rows(c, v.dims[x]).transpose() for x, c in cols.items()}


def _from_columns(cols, nrows: int) -> RationalMatrix:
    return RationalMatrix(cols, len(cols), nrows).transpose()


def _orbit_walk(v: TruncatedModule, n, mat: RationalMatrix) -> dict:
    """{x: [V(beta, h) mat for (beta, h) in make_free's basis of F(n)(x)]}
    for every window object x >= n.

    The injections n -> x form the Aut(x)-orbit of the standard inclusion,
    so a breadth-first walk from the identity of n reaches each one with a
    single product: V(incl_{i,y}) composes with a standard inclusion, V(s_k)
    with an adjacent swap of x.  The group factor is applied once, at the
    start: V(beta, h) = V(beta) rho_n(h), so the walk carries the blocks
    rho_n(h) mat side by side.  No step leaves an object where V is zero; an
    injection the walk misses factors through one, and acts by zero.
    """
    n = tuple(n)
    og = v.group.order
    width = mat.ncols
    start = mat
    if og > 1:
        rho = v.group_elements_at(n)
        for h in range(1, og):
            start = start.hstack(rho[h] * mat)
    # the incl and swap generators between nonzero values
    steps = {}
    live, _ = split_generators(v.window, v.group, v.dims, v.dims)
    for key, src, tgt in live:
        if key[0] != "grp":
            steps.setdefault(src, []).append((key, tgt))
    # injections n -> y by their basis index; the identity of n is index 0
    reached = {}
    frontier = []
    if v.dims[n]:
        reached[n] = {0: start}
        frontier.append((n, 0, start))
    while frontier:
        nxt = []
        for y, bi, img in frontier:
            for key, z in steps.get(y, ()):
                seen = reached.setdefault(z, {})
                beta = generator_index_map(n, key)[bi]
                if beta not in seen:
                    seen[beta] = v.actions[key] * img
                    nxt.append((z, beta, seen[beta]))
        frontier = nxt
    out = {}
    for x in v.window.objects():
        if not leq(n, x):
            continue
        seen = reached.get(x, {})
        mats, zeros = [], None
        for beta in range(count_injections(n, x)):
            img = seen.get(beta)
            if img is None:
                zeros = zeros or [RationalMatrix.zeros(v.dims[x], width)] * og
                mats.extend(zeros)
            elif og == 1:
                mats.append(img)
            else:
                mats.extend(img.columns(range(h * width, (h + 1) * width))
                            for h in range(og))
        out[x] = mats
    return out


def _walk_generator(v: TruncatedModule, n, lifts, cols) -> None:
    """Append to ``cols[x]``, at every window object x >= n, the columns
    V(beta, h) u of the lifts u at n as (int column, denominator), in
    :func:`cover_blocks`' order.  One orbit walk reaches every x."""
    walk = _orbit_walk(v, n, _from_columns(lifts, v.dims[n]))
    for x, images in walk.items():
        ts = [img.transpose() for img in images]
        cols[x].extend((t.rows[j], t.den) for j in range(len(lifts)) for t in ts)


def cover_blocks(v: TruncatedModule, gens) -> dict:
    """The cover P -> V sending generator i to its lift u_i, as {x: the
    block P(x) -> V(x)}: column (i, beta, h) is V(beta, h) u_i, generators
    in order and (beta, h) in the order of make_free's basis.  One orbit
    walk per generator object reaches every x; :func:`generators_and_cover`
    makes the same walks while it finds V's own generators."""
    cols = {x: [] for x in v.window.objects()}  # (int column, denominator)
    for n, lifts in gens:
        _walk_generator(v, n, lifts, cols)
    return {x: _stack_rows(c, v.dims[x]).transpose() for x, c in cols.items()}


# -- the naturality solver -------------------------------------------------


class NaturalitySolver:
    """Hom(V, W) by Yoneda from the generators of V.

    With generators u_i in V(n_i) and their cover pi: P = ⊕ F(n_i) -> V,
    a natural map P -> W is a free choice of t_i in W(n_i), acting by
    Phi_x(beta, h) = W(beta, h) t_i.  It factors through V exactly when
    Phi_x kills ker pi_x at every object x, and the map V -> W is then
    Phi_x S_x for a section S_x of pi_x.  ``nparams`` is the sum of
    dim W(n_i), which bounds dim Hom(V, W); ``rows`` are the
    constraints, the entries of Phi_x(t) k for k in a basis of each
    ker pi_x: the nonzero columns of I - S_x pi_x, which are pi_x's
    free-column kernel vectors, as S_x is zero at the free variables.  As pi is onto at every object of the
    window, the solutions are exactly the natural maps V -> W.

    The generators and every pi_x come from one pass of
    :func:`generators_and_cover`, which walks each generator object once
    and reads I(n) off the columns walked so far.  A :class:`FreeModule` V
    needs no walk, and for F(n) each pi_x and its section are identities.
    Every W(beta, h) comes from one orbit walk of the identity of W(n_i) per
    generator object (:func:`_orbit_walk`), with no morphism factored.

    The solutions form the kernel of ``rows``, computed once; :meth:`_maps`
    builds the maps of ``basis()``, its RREF basis, and of ``solve_with_conditions``.
    A map's coordinates in the basis are its generator values t_i at the pivots.
    """

    def __init__(self, v: TruncatedModule, w: TruncatedModule):
        if v.window != w.window or v.group != w.group:
            raise ValueError("hom requires matching window and group")
        self.v = v
        self.w = w
        gens, pis = generators_and_cover(v)
        self._gens = gens
        self.nparams = sum(len(lifts) * w.dims[n] for n, lifts in gens)
        self._terms = {}  # x -> (parameter offset, W(beta, h)) per column of pi_x
        self._sections = {}
        self.rows = []
        walks = [_orbit_walk(w, n, RationalMatrix.identity(w.dims[n])) for n, _ in gens]
        for x in v.window.objects():
            terms = []
            offset = 0
            for (n, lifts), walk in zip(gens, walks):
                for _ in lifts:
                    terms.extend((offset, wm) for wm in walk.get(x, ()))
                    offset += w.dims[n]
            self._terms[x] = terms
            pi_x = pis[x]
            section = solve_matrix(pi_x, RationalMatrix.identity(v.dims[x]))
            if section is None:
                raise AssertionError(f"the generators do not span V at {x}")
            self._sections[x] = section
            if pi_x.ncols > v.dims[x]:  # else pi_x is onto and square: no kernel
                residue = RationalMatrix.identity(pi_x.ncols) - section * pi_x
                for k in filter(any, residue.transpose().rows):
                    rows, _ = self._rows_of(x, k)
                    self.rows.extend(row for row in rows if any(row))

    def _rows_of(self, x, y):
        """The matrix of t -> Phi_x(t) y, for y in P(x) a sequence of ints,
        as int rows over the denominator returned with them."""
        terms = [(yc, offset, wm) for yc, (offset, wm) in zip(y, self._terms[x]) if yc]
        den = lcm(*(wm.den for _, _, wm in terms))
        rows = [[0] * self.nparams for _ in range(self.w.dims[x])]
        for yc, offset, wm in terms:
            c = yc * (den // wm.den)
            for row, wrow in zip(rows, wm.rows):
                for j, a in enumerate(wrow):
                    if a:
                        row[offset + j] += c * a
        return rows, den

    def _maps(self, t: RationalMatrix) -> list:
        """The maps whose generator values are the rows of t.  Column j of the one
        product W(beta, h) T[offset:offset + ncols] per term, T = t^T, is map j's."""
        tt, blocks = t.transpose(), [{} for _ in t.rows]
        for x, terms in self._terms.items():
            dw, dv = self.w.dims[x], self.v.dims[x]
            cols = [(wm * _reduced(tt.rows[o:o + wm.ncols], tt.den, wm.ncols, t.nrows))
                    .transpose() for o, wm in terms] if dw and dv else []
            for j, b in enumerate(blocks):
                b[x] = (_stack_rows(((c.rows[j], c.den) for c in cols), dw).transpose()
                        * self._sections[x]) if cols else RationalMatrix.zeros(dw, dv)
        return [ModuleMap(self.v, self.w, b) for b in blocks]

    @cached_property
    def _kernel(self) -> Subspace:
        return kernel_basis(RationalMatrix(self.rows, len(self.rows), self.nparams))

    @property
    def dim(self) -> int:
        """dim Hom(V, W)."""
        return self._kernel.dim

    def basis(self):
        return self._maps(self._kernel.basis)

    def coordinates(self, phi: ModuleMap) -> tuple | None:
        """The coordinates of a natural phi: V -> W in ``basis()``, or None
        when its generator values t_i = phi(u_i) lie outside the kernel.
        Only those values are read, so phi must be natural."""
        t = [c for n, lifts in self._gens for u in lifts for c in phi.block(n).apply(u)]
        coords = self._kernel.coordinates(RationalMatrix([[c] for c in t], len(t), 1))
        return None if coords is None else coords.col(0)

    def solve_with_conditions(self, conditions):
        """One natural map satisfying block(n) * r = c for each (n, r, c),
        or None.  Used for extension problems along inclusions."""
        rows = list(self.rows)
        rhs = [0] * len(rows)
        for n, rmat, cmat in conditions:
            n = tuple(n)
            ys = self._sections[n] * rmat  # block(n) r = Phi_n(t) S_n r
            for j, y in enumerate(ys.transpose().rows):
                # block t / den = Phi_n(t) y, and y / ys.den is column j of S_n r
                block, den = self._rows_of(n, y)
                rows.extend(block)
                rhs.extend(c * den * ys.den for c in cmat.col(j))
        sol = solve(RationalMatrix(rows, len(rows), self.nparams), rhs)
        return None if sol is None else self._maps(RationalMatrix([sol], 1, self.nparams))[0]


def check_hom_source(v: TruncatedModule) -> None:
    """Raise MarginError unless V carries a presentation that fits inside
    the window; then the window solution space equals the Hom space of the
    untruncated modules, so the answer is exact rather than an upper bound.
    """
    if v.presentation is None:
        raise MarginError("hom_space requires a presentation on the source")
    if not v.presentation.fits(v.window):
        raise MarginError(
            "presentation degrees exceed the window; the hom space would "
            "only be an upper bound"
        )


def hom_space(v: TruncatedModule, w: TruncatedModule):
    """A basis of Hom(V, W), exact under :func:`check_hom_source`."""
    check_hom_source(v)
    return NaturalitySolver(v, w).basis()
