"""The truncated product category of finite sets and injections, with an
optional finite group factor.

Objects are plain tuples ``n = (n_1, ..., n_m)`` of naturals.  A morphism
pairs a componentwise injection with a group element; the package never
builds one as a value.  An injection a -> b is named by its image tuples
(1-based) or by its index in :func:`injection_index_table`.  A
:class:`Window` is the componentwise degree box on which all module data
lives.

The generator set used throughout the package:

* ``("incl", i, n)`` -- the standard inclusion ``n -> n + o_i`` sending
  ``x`` to ``x + 1`` in coordinate ``i`` (the new point is 1, matching the
  self-embedding that defines the shift functor),
* ``("swap", i, k, n)`` -- the automorphism of ``n`` exchanging ``k`` and
  ``k + 1`` in coordinate ``i``,
* ``("grp", j, n)`` -- the automorphism ``(id, g_j)`` for the j-th group
  generator.

Every window morphism factors through these (tested exhaustively at small
windows), which is what lets a truncated module store only generator
actions.  :func:`window_generators` derives the generators of a (window,
group) pair once, with their ends, and every module builder reads that one
table; :func:`split_generators` sets apart those with a zero end, whose
actions are empty matrices.

The basis of the free module F(n)(t) is the set of injections n -> t, and
an incl or swap generator sends each of them to one injection: incl_i moves
every point of coordinate i up by one, swap_(i,k) exchanges k and k + 1
there (Church-Ellenberg-Farb, FI-modules and stability, Duke 2015).  So
every free and co-free generator action is a map of injection indices (a
permutation for a swap), read off the shared
:func:`injection_index_table` and :func:`generator_index_map`.  The same
maps drive the orbit walk (``modules._orbit_walk``), which gives V(beta)
for every injection beta out of an object.

The values the layers above ask for again and again are pure functions
of their tuple keys, built once per key (``lru_cache``) and shared, so each
is immutable (an int, a tuple or a read-only mapping): a window's objects
in both orders (:func:`_window_objects`, :func:`_objects_by_degree`),
:func:`unit`, :func:`count_injections`, the injection and generator index
tables, the Aut(a)-orbits of Inj(a, b) (:func:`aut_orbit_table`) and
:func:`window_generators`.  ``Window.objects()`` and
``objects_by_degree()`` still hand each caller a fresh list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial
from types import MappingProxyType


Obj = tuple  # tuple of m ints


def degree(n: Obj) -> int:
    return sum(n)


def leq(a: Obj, b: Obj) -> bool:
    """The hom-set partial order: injections exist componentwise."""
    if len(a) != len(b):
        raise ValueError("objects live over different numbers of coordinates")
    return all(x <= y for x, y in zip(a, b))


def add(a: Obj, b: Obj) -> Obj:
    return tuple(x + y for x, y in zip(a, b))


def sub(a: Obj, b: Obj) -> Obj:
    out = tuple(x - y for x, y in zip(a, b))
    if any(x < 0 for x in out):
        raise ValueError(f"{a} - {b} leaves the object grid")
    return out


@lru_cache(maxsize=None)
def unit(m: int, i: int) -> Obj:
    """o_i: the object with a single point in coordinate i (1-based)."""
    return tuple(1 if j == i - 1 else 0 for j in range(m))


# -- checked reads of parsed JSON ------------------------------------------

_JSON_KINDS = {dict: "an object", list: "a list", str: "a string",
               int: "an integer", bool: "a boolean"}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def json_field(d, key: str, kind: type, path: str = "", optional: bool = False):
    """``d[key]`` checked to be of JSON type ``kind``.

    Anything else raises a ValueError whose message starts with the field
    path (``path.key``).  An optional field may be absent or null, and then
    reads as None.
    """
    where = f"{path}.{key}" if path else key
    if not isinstance(d, dict):
        raise ValueError(f"{path or 'document'}: expected an object")
    val = d.get(key)
    if val is None:
        if optional:
            return None
        if key not in d:
            raise ValueError(f"{where}: missing field")
    if not (_is_int(val) if kind is int else isinstance(val, kind)):
        raise ValueError(f"{where}: expected {_JSON_KINDS[kind]}")
    return val


_NOT_GENERATED = "declared generators do not generate the group"


class GroupTable:
    """A finite group carried by its generators' left multiplications:
    ``left[j][a]`` is the index of g_j a, and index 0 is the identity.  A
    table from outside is checked to be a group law and kept; the
    constructors write ``left`` directly, with no table; ``mult`` is derived
    along the breadth-first tree on first read, and ``inverse`` from it.
    Equality and hash come from (generators, left), which fix the table.
    """

    def __init__(self, mult, generators=None, name: str = ""):
        mult = tuple(tuple(row) for row in mult)
        order = len(mult)
        if any(len(row) != order for row in mult):
            raise ValueError("multiplication table is not square")
        if order == 0:
            raise ValueError("empty group")
        for row in mult:
            for x in row:
                if not (0 <= x < order):
                    raise ValueError("table entry out of range")
        for a in range(order):
            if mult[a][0] != a or mult[0][a] != a:
                raise ValueError("index 0 is not an identity")
        inverse = [None] * order
        for a in range(order):
            for b in range(order):
                if mult[a][b] == 0:
                    inverse[a] = b
            if inverse[a] is None:
                raise ValueError(f"element {a} has no inverse")
        if generators is None:
            generators = range(1, order)
        self._carry(order, [mult[g] for g in generators], name)
        # Light's test: the g with (a g) c = a (g c) for all a, c are closed
        # under products, and the tree writes every element as one
        for g in self.generators:
            if any(mult[mult[a][g]] != tuple(map(mult[a].__getitem__, mult[g]))
                   for a in range(order)):
                raise ValueError("multiplication is not associative")
        self.mult, self.inverse = mult, tuple(inverse)

    def _carry(self, order: int, left, name: str):
        """Set the fields from the left rows, and the tree: breadth-first from
        the identity, {element: (generator index, predecessor)}."""
        self.order, self.identity, self.name = order, 0, name
        self.left = tuple(tuple(row) for row in left)
        self.generators = tuple(row[0] for row in self.left)
        self.tree = {0: None}
        frontier = [0]
        while frontier:
            nxt = []
            for a in frontier:
                for j, row in enumerate(self.left):
                    b = row[a]
                    if b not in self.tree:
                        self.tree[b] = (j, a)
                        nxt.append(b)
            frontier = nxt
        if len(self.tree) != order:
            raise ValueError(_NOT_GENERATED)
        # every cache lookup keyed by the group hashes it
        self._hash = hash((self.generators, self.left))

    @staticmethod
    def _from_left(order: int, left, name: str) -> "GroupTable":
        group = object.__new__(GroupTable)
        group._carry(order, left, name)
        return group

    @cached_property
    def mult(self) -> tuple:
        """The table: row g_j a is row a moved by g_j's left row."""
        rows = [tuple(range(self.order))] * self.order
        for b, (j, a) in itertools.islice(self.tree.items(), 1, None):
            rows[b] = tuple(map(self.left[j].__getitem__, rows[a]))
        return tuple(rows)

    @cached_property
    def inverse(self) -> tuple:
        return tuple(row.index(0) for row in self.mult)

    def __eq__(self, other):
        return isinstance(other, GroupTable) and (
            self.generators, self.left) == (other.generators, other.left)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        label = self.name or f"order {self.order}"
        return f"GroupTable({label})"

    def is_trivial(self) -> bool:
        return self.order == 1

    # -- constructors ----------------------------------------------------

    @staticmethod
    def trivial() -> "GroupTable":
        return GroupTable._from_left(1, (), "1")

    @staticmethod
    def cyclic(k: int) -> "GroupTable":
        left = [[(a + 1) % k for a in range(k)]] if k > 1 else []
        return GroupTable._from_left(k, left, f"C{k}")

    @staticmethod
    def symmetric(k: int) -> "GroupTable":
        """S_k on the element list itertools.permutations (identity first);
        generator t is the transposition (t, t+1), which exchanges the
        values t and t + 1 of each permutation it multiplies."""
        perms = list(itertools.permutations(range(1, k + 1)))
        index = {p: i for i, p in enumerate(perms)}
        left = [[index[tuple(t + 1 if x == t else t if x == t + 1 else x for x in p)]
                 for p in perms] for t in range(1, k)]
        return GroupTable._from_left(len(perms), left, f"S{k}")

    @staticmethod
    def product(a: "GroupTable", b: "GroupTable") -> "GroupTable":
        """Direct product; element (x, y) has index x * b.order + y."""
        ob = b.order
        left = [[row[x] * ob + y for x in range(a.order) for y in range(ob)]
                for row in a.left]
        left += [[x * ob + row[y] for x in range(a.order) for y in range(ob)]
                 for row in b.left]
        name = f"{a.name}x{b.name}" if a.name and b.name else ""
        return GroupTable._from_left(a.order * ob, left, name)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "mult": [list(row) for row in self.mult],
            "generators": list(self.generators),
            "name": self.name,
        }

    @staticmethod
    def from_dict(d: dict) -> "GroupTable":
        """Parse the wire format; a malformed field raises a ValueError whose
        message starts with the field's path."""
        mult = json_field(d, "mult", list)
        for i, row in enumerate(mult):
            if not (isinstance(row, list) and all(_is_int(x) for x in row)):
                raise ValueError(f"mult[{i}]: expected a list of integers")
        gens = json_field(d, "generators", list, optional=True) or []
        for i, x in enumerate(gens):
            if not (_is_int(x) and 0 <= x < len(mult)):
                raise ValueError(f"generators[{i}]: expected an element index")
        name = json_field(d, "name", str, optional=True)
        try:
            g = GroupTable(mult, tuple(gens), "" if name is None else name)
        except ValueError as exc:
            field = "generators" if str(exc) == _NOT_GENERATED else "mult"
            raise ValueError(f"{field}: {exc}") from None
        if g.order != json_field(d, "order", int):
            raise ValueError("order: declared order does not match table size")
        return g


@dataclass(frozen=True)
class Window:
    """Componentwise truncation box: objects n with n_i <= bound_i."""

    bound: Obj

    def __post_init__(self):
        for i, b in enumerate(self.bound, 1):
            if b < 0:
                raise ValueError(f"bound {b} in coordinate {i} is negative")

    @property
    def m(self) -> int:
        return len(self.bound)

    def contains(self, n: Obj) -> bool:
        return len(n) == self.m and all(0 <= x <= b for x, b in zip(n, self.bound))

    def objects(self):
        """All window objects, lexicographic (last coordinate fastest), as a
        fresh list of the shared :func:`_window_objects` tuple."""
        return list(_window_objects(self.bound))

    def objects_by_degree(self):
        """All window objects by degree, then lexicographic; a fresh list."""
        return list(_objects_by_degree(self.bound))


@lru_cache(maxsize=None)
def _window_objects(bound: Obj) -> tuple:
    """The objects of the window with this bound, lexicographic; built once
    per bound and shared, so a tuple."""
    return tuple(itertools.product(*[range(b + 1) for b in bound]))


@lru_cache(maxsize=None)
def _objects_by_degree(bound: Obj) -> tuple:
    """:func:`_window_objects` sorted by (degree, object), shared likewise."""
    return tuple(sorted(_window_objects(bound), key=lambda n: (degree(n), n)))


@lru_cache(maxsize=None)
def _injections_one(a: int, b: int):
    """All injections [a] -> [b] as image tuples, lexicographic."""
    if a > b:
        return ()
    return tuple(itertools.permutations(range(1, b + 1), a))


@lru_cache(maxsize=None)
def count_injections(a: Obj, b: Obj) -> int:
    total = 1
    for x, y in zip(a, b):
        if x > y:
            return 0
        total *= factorial(y) // factorial(y - x)
    return total


def _injection_images(a: Obj, b: Obj):
    """The image tuples of all injections a -> b, lexicographic on their
    concatenation; this order indexes free-module bases and is part of the
    file-format contract."""
    if not leq(a, b):
        raise ValueError(f"empty hom-set: {a} does not embed in {b}")
    return itertools.product(*[_injections_one(x, y) for x, y in zip(a, b)])


@lru_cache(maxsize=None)
def injection_index_table(a: Obj, b: Obj):
    """{image tuples: basis index} over the injections a -> b, in basis
    order.  Every caller shares it, so it is a read-only mapping."""
    return MappingProxyType(
        {maps: i for i, maps in enumerate(_injection_images(a, b))})


def _after_generator(key, maps) -> tuple:
    """The image tuples of g o beta for the incl or swap generator g of
    ``key`` and the injection beta with image tuples ``maps``: incl_i moves
    every point of coordinate i up by one, swap_(i,k) exchanges k and k + 1
    there."""
    i = key[1]
    if key[0] == "incl":
        moved = tuple(p + 1 for p in maps[i - 1])
    else:
        k = key[2]
        moved = tuple(k + 1 if p == k else k if p == k + 1 else p
                      for p in maps[i - 1])
    return maps[:i - 1] + (moved,) + maps[i:]


@lru_cache(maxsize=None)
def generator_index_map(n: Obj, key) -> tuple:
    """The action of the incl or swap generator ``key`` on injection
    indices, Inj(n, source) -> Inj(n, target): entry b is the basis index
    of g o beta for the b-th injection beta.  A swap gives a permutation.
    Shared by the free and coinduced builds and the orbit walk, so a
    tuple."""
    src, tgt = key_ends(key)
    index = injection_index_table(n, tgt)
    return tuple(index[_after_generator(key, beta)]
                 for beta in injection_index_table(n, src))


@lru_cache(maxsize=None)
def aut_orbit_table(a: Obj, b: Obj) -> tuple:
    """The orbits of Aut(a) on Inj(a, b), beta -> beta o sigma, as
    ``(reps, split)``: ``reps`` lists each orbit's lowest basis index, and
    ``split[bi]`` is ``(o, tau)`` with the bi-th injection beta = r_o o tau,
    tau by its index in Inj(a, a).  The basis
    is lexicographic on image tuples, so r_o is the orbit's one
    order-preserving injection and tau(x) is the rank of beta(x) in beta's
    image."""
    index = injection_index_table(a, b)
    auts = injection_index_table(a, a)
    reps, orbit_of, split = [], {}, []
    for bi, maps in enumerate(index):
        ranked = tuple(tuple(sorted(img)) for img in maps)
        if ranked not in orbit_of:
            orbit_of[ranked] = len(reps)
            reps.append(bi)
        tau = tuple(tuple(r.index(p) + 1 for p in img) for r, img in zip(ranked, maps))
        split.append((orbit_of[ranked], auts[tau]))
    return tuple(reps), tuple(split)


# -- generators --------------------------------------------------------


def aut_swaps(n: Obj) -> list:
    """The adjacent transpositions generating Aut(n) = S_{n_1} x ... x
    S_{n_m}, as (coordinate, k) for the swap of k and k+1: the generator
    order of ``functors.aut_table(n)``, whose j-th left row is
    :func:`generator_index_map` of the j-th swap, and of the swap keys at n."""
    return [(i, k) for i, x in enumerate(n, start=1) for k in range(1, x)]


def key_ends(key) -> tuple:
    """(source, target) of the generator ``key``; every key keeps its
    object, the source, as its last entry."""
    n = key[-1]
    if key[0] == "incl":
        return n, add(n, unit(len(n), key[1]))
    return n, n


def rekey(key, coord: int, obj: Obj) -> tuple:
    """``key`` with its coordinate (a group generator's index) replaced by
    ``coord`` and its object by ``obj``; a swap keeps its k.  The functors
    move generators with it."""
    return (key[0], coord) + key[2:-1] + (obj,)


@lru_cache(maxsize=None)
def window_generators(window: Window, group: GroupTable) -> tuple:
    """Every generator on the window as ``(key, source, target)``, in a
    deterministic order: per object of ``window.objects()``, its incls by
    coordinate, then its swaps in ``aut_swaps`` order, then its group
    generators.  Built once per (window, group) and shared, so it is a
    tuple of tuples that no caller can change."""
    out = []
    for n in window.objects():
        keys = [("incl", i, n) for i in range(1, window.m + 1)
                if n[i - 1] < window.bound[i - 1]]
        keys += [("swap", i, k, n) for i, k in aut_swaps(n)]
        keys += [("grp", j, n) for j in range(len(group.generators))]
        out.extend((key, *key_ends(key)) for key in keys)
    return tuple(out)


def split_generators(window: Window, group: GroupTable, src_dims, tgt_dims) -> tuple:
    """:func:`window_generators` as two lists: the generators whose source
    value in ``src_dims`` and target value in ``tgt_dims`` are both nonzero,
    and the rest.  A matrix from a zero value or into one is empty, and so
    is a comparison of two such matrices, so the module builders and map
    checks work on the first list only and give each generator of the
    second the empty ``RationalMatrix.zeros``."""
    live, rest = [], []
    for gen in window_generators(window, group):
        (live if src_dims[gen[1]] and tgt_dims[gen[2]] else rest).append(gen)
    return live, rest


def generator_keys(window: Window, group: GroupTable) -> list:
    """The keys of :func:`window_generators`, as a fresh list."""
    return [key for key, _, _ in window_generators(window, group)]

