import itertools
import random

import pytest

from fimlab.category import (
    GroupTable,
    Window,
    count_injections,
    degree,
    generator_index_map,
    generator_keys,
    injection_index_table,
    key_ends,
    leq,
    unit,
    window_generators,
)

from oracles import (
    Morphism,
    compose,
    conjugacy_classes,
    cyclic_table,
    enumerate_injections,
    factor_injection,
    factor_morphism,
    generators,
    group_word,
    identity_morphism,
    morphism_of_key,
    perm_to_adjacent,
    std_incl,
    swap_morphism,
    symmetric_table,
)


def apply_perm_word(word, n):
    """Compose adjacent transpositions s_k (leftmost applied last)."""
    img = list(range(1, n + 1))
    for k in reversed(word):
        img[k - 1], img[k] = img[k], img[k - 1]
        # applying s_k after the permutation built so far means relabelling
        # values, not positions; rebuild by composing functions instead.
    # safer: fold as functions
    def s(k):
        def f(x):
            if x == k:
                return k + 1
            if x == k + 1:
                return k
            return x

        return f

    funcs = [s(k) for k in word]

    def sigma(x):
        for f in reversed(funcs):
            x = f(x)
        return x

    return tuple(sigma(x) for x in range(1, n + 1))


def test_degrees():
    assert degree((0, 0)) == 0
    assert degree((2, 3)) == 5


def test_leq_examples():
    assert leq((1, 2), (1, 3))
    assert not leq((2, 1), (1, 3))
    rng = random.Random(0)
    for _ in range(20):
        n = tuple(rng.randint(0, 4) for _ in range(2))
        assert leq(n, n)


def test_leq_partial_order_on_window():
    objs = Window((2, 2)).objects()
    for a in objs:
        for b in objs:
            if leq(a, b) and leq(b, a):
                assert a == b
            for c in objs:
                if leq(a, b) and leq(b, c):
                    assert leq(a, c)


def test_enumerate_injections_counts():
    assert len(enumerate_injections((1,), (1,))) == 1
    assert enumerate_injections((1,), (1,)) == [identity_morphism((1,))]
    assert len(enumerate_injections((1,), (2,))) == 2
    assert len(enumerate_injections((1, 2), (2, 3))) == 12  # 2 * 6 by brute force
    for a in Window((3, 3)).objects():
        for b in Window((3, 3)).objects():
            if leq(a, b):
                assert len(enumerate_injections(a, b)) == count_injections(a, b)


def test_enumerate_injections_requires_leq():
    with pytest.raises(ValueError):
        enumerate_injections((2,), (1,))


def random_injection(a, b, rng):
    """A uniformly random injection a -> b: an ordered sample of a_i
    distinct points of [b_i] in each coordinate."""
    return Morphism(
        a, b, tuple(tuple(rng.sample(range(1, y + 1), x)) for x, y in zip(a, b)), 0
    )


def test_compose_identity_and_associativity():
    rng = random.Random(5)
    objs = [(a, b) for a in range(3) for b in range(3)]
    for _ in range(50):
        a = objs[rng.randrange(len(objs))]
        b = tuple(x + rng.randint(0, 2) for x in a)
        c = tuple(x + rng.randint(0, 2) for x in b)
        d = tuple(x + rng.randint(0, 2) for x in c)
        f = random_injection(c, d, rng)
        g = random_injection(b, c, rng)
        h = random_injection(a, b, rng)
        assert compose(f, compose(g, h)) == compose(compose(f, g), h)
        assert compose(f, identity_morphism(c)) == f
        assert compose(identity_morphism(d), f) == f


def test_group_table_s3():
    s3 = GroupTable.symmetric(3)
    assert s3.order == 6
    assert len(s3.generators) == 2
    assert sorted(len(c) for c in conjugacy_classes(s3)) == [1, 2, 3]
    for g in range(6):
        w = group_word(s3, g)
        acc = 0
        for j in reversed(w):
            acc = s3.mult[s3.generators[j]][acc]
        assert acc == g
    for g in (-1, 6):
        with pytest.raises(ValueError):
            group_word(s3, g)


def test_group_table_rejects_bad_tables():
    with pytest.raises(ValueError):
        GroupTable([[0, 1], [1, 1]])  # not a group law
    with pytest.raises(ValueError):
        GroupTable([[1, 0], [0, 1]])  # identity not at 0
    with pytest.raises(ValueError, match="do not generate"):
        GroupTable(GroupTable.cyclic(4).mult, (2,))  # 2 generates C2 only


# A loop of the smallest order that has one which is not a group: a Latin
# square with identity 0 (so every element has an inverse) whose law is not
# associative.  No such loop of order 5 has an element other than 0 that
# associates with everything.
LOOP_5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
# An order-6 loop in which 1 associates with everything, (a 1) c = a (1 c),
# and 2 does not; 1 and 2 generate it.
LOOP_6 = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
          [3, 2, 5, 4, 1, 0], [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]]


@pytest.mark.parametrize("mult, generators", [
    (LOOP_5, None), (LOOP_5, (1, 2)), (LOOP_6, None), (LOOP_6, (1, 2)), (LOOP_6, (2, 1)),
], ids=["5-default", "5-declared", "6-default", "6-declared-12", "6-declared-21"])
def test_group_table_rejects_a_loop_that_is_not_associative(mult, generators):
    """Associativity is checked at the declared generators (Light's test),
    and each of them counts: in the order-6 loop one of the two passes."""
    with pytest.raises(ValueError, match="not associative"):
        GroupTable(mult, generators)


def assert_same_group(group, ref):
    """``group`` equals the full-table reference ``ref`` entry for entry:
    order, generators, left rows, table, inverses, tree in discovery order,
    name and wire format; and it is ``==``, with one hash, to the checked
    table ``GroupTable(ref.mult, ref.generators)``, both ways."""
    plain = GroupTable(ref.mult, ref.generators)
    assert group == plain and plain == group and hash(group) == hash(plain)
    assert (group.order, group.generators, group.name) == (ref.order, ref.generators, ref.name)
    assert group.left == tuple(ref.mult[g] for g in ref.generators) == plain.left
    assert list(group.tree.items()) == list(ref.tree.items())
    assert group.inverse == ref.inverse
    assert group.mult == ref.mult
    assert group.to_dict() == ref.to_dict()


@pytest.mark.parametrize("k", range(6))
def test_symmetric_group_equals_its_full_table(k):
    assert_same_group(GroupTable.symmetric(k), symmetric_table(k))


@pytest.mark.parametrize("k", range(1, 7))
def test_cyclic_group_equals_its_full_table(k):
    assert_same_group(GroupTable.cyclic(k), cyclic_table(k))


def test_a_constructed_group_derives_its_table_on_first_read():
    """``symmetric`` writes the generators' left rows only; the table and
    the inverses are derived when read, and a table from outside is kept."""
    s4 = GroupTable.symmetric(4)
    assert "mult" not in vars(s4) and "inverse" not in vars(s4)
    assert s4.mult[s4.generators[1]] == s4.left[1]
    assert "mult" in vars(s4)
    ref = symmetric_table(4)
    assert vars(GroupTable(ref.mult, ref.generators))["mult"] == ref.mult


def test_group_product_order():
    g = GroupTable.product(GroupTable.symmetric(2), GroupTable.cyclic(3))
    assert g.order == 6
    assert conjugacy_classes(g)[0] == (0,)


def test_group_round_trip():
    g = GroupTable.cyclic(4)
    assert GroupTable.from_dict(g.to_dict()) == g


def test_generators_window_m1():
    w = Window((2,))
    keys = generator_keys(w, GroupTable.trivial())
    incls = [k for k in keys if k[0] == "incl"]
    swaps = [k for k in keys if k[0] == "swap"]
    assert {(k[2]) for k in incls} == {(0,), (1,)}
    assert swaps == [("swap", 1, 1, (2,))]


def test_generators_window_degenerate():
    assert generator_keys(Window((0,)), GroupTable.trivial()) == []
    keys = generator_keys(Window((1, 1)), GroupTable.trivial())
    assert len([k for k in keys if k[0] == "incl"]) == 4
    assert not [k for k in keys if k[0] == "swap"]


def test_generator_table_cannot_be_corrupted():
    """generator_keys hands out a fresh list over the shared, immutable
    window_generators table, whose ends are key_ends'."""
    w, g = Window((2, 1)), GroupTable.symmetric(2)
    table = window_generators(w, g)
    assert isinstance(table, tuple)
    assert all(type(entry) is tuple for entry in table)
    keys = generator_keys(w, g)
    expected = list(keys)
    keys.reverse()
    keys.append(("incl", 9, (9, 9)))
    del keys[0]
    assert generator_keys(w, g) == expected
    assert window_generators(w, g) is table
    assert [(key, *key_ends(key)) for key in expected] == list(table)


def test_window_objects_are_fresh_lists_over_a_shared_table():
    """objects() and objects_by_degree() read one table per bound, but each
    call hands out a fresh list: changing it leaves the next call, and the
    generator table derived from the objects, as they were."""
    bound = (1, 0, 2)
    lex = list(itertools.product(range(2), range(1), range(3)))
    by_degree = sorted(lex, key=lambda n: (degree(n), n))
    for read, want in (("objects", lex), ("objects_by_degree", by_degree)):
        objs = getattr(Window(bound), read)()
        assert type(objs) is list and objs == want
        objs.reverse()
        objs.append((9, 9, 9))
        del objs[0]
        again = getattr(Window(bound), read)()
        assert type(again) is list and again == want and again is not objs
    table = window_generators(Window(bound), GroupTable.trivial())
    assert list(dict.fromkeys(src for _, src, _ in table)) == lex


def test_cached_object_arithmetic_matches_its_definition():
    """unit and count_injections are shared per key and agree with their
    definitions: a single point in coordinate i, and the number of
    injections counted one by one."""
    for m in range(1, 4):
        for i in range(1, m + 1):
            assert unit(m, i) == tuple(int(j == i) for j in range(1, m + 1))
            assert unit(m, i) is unit(m, i)
    for a, b in (((0,), (3,)), ((2, 1), (3, 1)), ((1, 2), (2, 1)), ((2, 2), (3, 2))):
        want = len(enumerate_injections(a, b)) if leq(a, b) else 0
        assert count_injections(a, b) == want


def test_shared_index_tables_cannot_be_written():
    """injection_index_table and generator_index_map hand every caller the
    same value, so neither accepts item assignment."""
    index = injection_index_table((1, 0), (3, 1))
    moved = generator_index_map((1, 0), ("swap", 1, 1, (3, 1)))
    with pytest.raises(TypeError):
        index[((1,), ())] = 5
    with pytest.raises(TypeError):
        moved[0] = 5
    assert dict(index) == {maps: i for i, maps in enumerate(
        mor.maps for mor in enumerate_injections((1, 0), (3, 1)))}
    assert moved == (1, 0, 2)


def test_generator_index_map_matches_composed_morphisms():
    """Entry b is the index of g o beta_b, g the generator morphism."""
    w, g = Window((3, 2)), GroupTable.trivial()
    for n in w.objects():
        for key, src, tgt in window_generators(w, g):
            if key[0] == "grp" or not leq(n, src):
                continue
            index = injection_index_table(n, tgt)
            gen = morphism_of_key(key, g)
            assert generator_index_map(n, key) == tuple(
                index[compose(gen, beta).maps] for beta in enumerate_injections(n, src))


def test_equal_groups_share_one_generator_table():
    """The hash computed once per group agrees for equal tables, whatever
    their names, so equal groups meet in one cache entry."""
    a = GroupTable.symmetric(3)
    b = GroupTable(a.mult, a.generators, name="another S3")
    assert a is not b and a == b and hash(a) == hash(b)
    w = Window((2, 2))
    assert window_generators(w, a) is window_generators(w, b)


def test_perm_to_adjacent_reconstructs():
    rng = random.Random(9)
    for n in range(1, 7):
        for _ in range(10):
            sigma = list(range(1, n + 1))
            rng.shuffle(sigma)
            sigma = tuple(sigma)
            assert apply_perm_word(perm_to_adjacent(sigma), n) == sigma


def test_factor_injection():
    sigma, k = factor_injection((3, 1), 3)
    assert k == 1
    # sigma o std: std(1)=2, std(2)=3 then sigma gives (3, 1)
    assert (sigma[1], sigma[2]) == (3, 1)
    assert sorted(sigma) == [1, 2, 3]


def test_factor_morphism_recomposes():
    """Composing the generator keys must reproduce the morphism exactly."""
    group = GroupTable.symmetric(2)
    w = Window((3, 2))
    rng = random.Random(31)
    objs = w.objects()
    for _ in range(40):
        a = objs[rng.randrange(len(objs))]
        b = objs[rng.randrange(len(objs))]
        if not leq(a, b):
            continue
        f = rng.choice(enumerate_injections(a, b))
        f = Morphism(f.source, f.target, f.maps, rng.randrange(group.order))
        keys = factor_morphism(f, group)
        acc = identity_morphism(a)
        for key in reversed(keys):
            acc = compose(morphism_of_key(key, group), acc, group)
        assert acc == f


def test_std_incl_and_swap_shapes():
    f = std_incl((2, 1), 1)
    assert f.target == (3, 1)
    assert f.maps == ((2, 3), (1,))
    s = swap_morphism((3,), 1, 2)
    assert s.maps == ((1, 3, 2),)
    assert len(generators(Window((1,)), GroupTable.trivial())) == 1


def test_every_window_morphism_factors_through_generators():
    """Exhaustive check on the (3,3) window for m=2 and (3,) for m=1."""
    group = GroupTable.trivial()
    for bound in ((3,), (3, 3)):
        w = Window(bound)
        objs = w.objects()
        for a in objs:
            for b in objs:
                if not leq(a, b):
                    continue
                for f in enumerate_injections(a, b):
                    keys = factor_morphism(f, group)
                    acc = identity_morphism(a)
                    for key in reversed(keys):
                        acc = compose(morphism_of_key(key, group), acc, group)
                    assert acc == f


@pytest.mark.parametrize("bound", [(0,), (3,), (2, 2), (1, 1, 1)])
@pytest.mark.parametrize(
    "group", [GroupTable.trivial(), GroupTable.symmetric(2), GroupTable.cyclic(3)],
    ids=["1", "S2", "C3"],
)
def test_key_ends_match_the_generator_morphism(bound, group):
    for key in generator_keys(Window(bound), group):
        mor = morphism_of_key(key, group)
        assert key_ends(key) == (mor.source, mor.target)
