"""Invariants of the package source: its checks are explicit raises, so
``python -O`` keeps them, it calls a general solver only where listed,
every function it defines has a caller in the package, every callable
the benchmark's layer tracer names exists, only a module's constructor
writes its dims and actions, no direct sum is taken of free modules
alone, the generators and their cover come from one walk, and only
``make_free_sum`` builds a ``FreeModule`` and only ``_free_blocks`` tests
for one, only the cached ``_free_tables`` writes free-module actions, the
Hom solver builds its maps in one helper, torsion takes no closure
pass, only the constructors write a matrix's or a subspace's fields,
every process-lifetime cache is on the allow-list, induced and
co-induced modules are written down rather than solved for,
``end_ring`` walks no cover of its own, no library path reads a group's
whole multiplication table, and no package or test file imports a name it
never reads."""

import ast
import importlib
import importlib.util
from pathlib import Path

import fimlab
from fimlab.category import GroupTable, Window
from fimlab.functors import _rs_group, make_induced, rs_group
from fimlab.homology import h0
from fimlab.modules import _free_tables, make_free

SOURCE = Path(fimlab.__file__).parent
TESTS = Path(__file__).resolve().parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


# Every call of a general solver in the package, as (file, enclosing
# function, callee), with the reason no direct answer replaces it.  Where
# the mathematics gives one (Yoneda parameters, RREF pivot coordinates,
# ranks), it is used instead, so a new call needs an entry here.
GENERAL_SOLVES = {
    ("linalg.py", "inverse", "solve_matrix"):
        "the inverse itself: M X = I, checked by multiplying back",
    ("modules.py", "ModuleMap.inverse_map", "inverse"):
        "the inverse blocks are the answer",
    ("modules.py", "NaturalitySolver.__init__", "solve_matrix"):
        "a section S_x of each cover block, the inverse of its pivot block (the "
        "lifts are unit vectors only at generator objects); ker pi_x is read off it",
    ("modules.py", "NaturalitySolver.solve_with_conditions", "solve"):
        "an extension problem: the constraint rows with inhomogeneous conditions",
    ("theorems.py", "end_ring", "solve_matrix"):
        "the radical lift that seeds the Newton iteration",
    ("theorems.py", "_min_poly_in_algebra", "solve"):
        "powers of an algebra element, which are not an RREF basis",
}


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _general_solve_calls(path):
    """(file, enclosing function, callee) of each solve, solve_matrix and
    inverse call in one source file."""
    found = []

    def visit(node, scope, in_class=False):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, in_class=True)
            elif isinstance(child, ast.FunctionDef):
                # a method is Class.method; a nested helper counts for its outer function
                visit(child, f"{scope}.{child.name}" if in_class else scope or child.name)
            else:
                if isinstance(child, ast.Call):
                    name = _callee(child)
                    if name in ("solve", "solve_matrix", "inverse"):
                        found.append((path.name, scope, name))
                visit(child, scope, in_class)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def test_general_solves_are_on_the_allow_list():
    found = [c for path in sorted(SOURCE.glob("*.py")) for c in _general_solve_calls(path)]
    assert len(found) == len(set(found)), "a function calls one solver twice"
    assert sorted(found) == sorted(GENERAL_SOLVES)


# Package definitions that no package code reaches, as (file, qualified
# name), with the reason each stays.  Everything else is reached from
# module-level code, from an import in ``fimlab/__init__.py``, from a suite
# registered with ``suites._suite``, or from the body of a definition so
# reached.  Code that only tests use lives in ``tests/oracles.py``.
NO_PACKAGE_CALLER = {}


def _referenced(nodes):
    """Names that code in ``nodes`` reads: bare names, and ``.attr`` for
    attribute access."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add("." + sub.attr)
    return out


def _definitions(path):
    """The top-level functions and classes and the non-dunder methods of one
    source file, as {(file, qualified name): (names that reach it, names its
    body reads)}, and the names that module-level code reads.  A top-level
    function or class is reached by its bare name, a method through
    ``.name``; a dunder method's body counts as its class's."""
    defs, roots = {}, set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            roots |= _referenced([node])
            continue
        roots |= _referenced(node.decorator_list)
        if any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_suite"
               for d in node.decorator_list):
            roots.add(node.name)
        if isinstance(node, ast.FunctionDef):
            defs[(path.name, node.name)] = ({node.name},
                                            _referenced([node.args, *node.body]))
            continue
        methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
        dunders = [m for m in methods if m.name.startswith("__") and m.name.endswith("__")]
        body = [s for s in node.body if s not in methods] + node.bases + dunders
        defs[(path.name, node.name)] = ({node.name}, _referenced(body))
        for m in methods:
            roots |= _referenced(m.decorator_list)
            if m not in dunders:
                defs[(path.name, f"{node.name}.{m.name}")] = (
                    {"." + m.name}, _referenced([m.args, *m.body]))
    return defs, roots


def test_every_package_function_has_a_package_caller():
    defs, live_names = {}, set()
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            live_names |= {a.name for node in tree.body
                           if isinstance(node, ast.ImportFrom) for a in node.names}
            continue
        file_defs, roots = _definitions(path)
        defs.update(file_defs)
        live_names |= roots
    assert set(NO_PACKAGE_CALLER) <= set(defs), "an allow-list entry is gone"
    assert all(NO_PACKAGE_CALLER.values()), "an allow-list entry has no reason"
    # reach definitions from the roots; a method needs its class reached too
    live, grown = set(), True
    while grown:
        grown = False
        for key, (reached_by, body) in defs.items():
            owner = (key[0], key[1].rsplit(".", 1)[0])
            reached = reached_by & live_names and ("." not in key[1] or owner in live)
            if key not in live and (reached or key in NO_PACKAGE_CALLER):
                live.add(key)
                live_names |= body
                grown = True
    dead = [f"{file}:{name}" for file, name in sorted(set(defs) - live)]
    assert not dead, f"no caller in the package: {', '.join(dead)}"


# The word factorization: a Morphism value per injection, factored into a
# generator word and multiplied along it.  Every V(beta) in the package
# comes from the injection-index tables or the orbit walk instead; the
# factorization lives in ``tests/oracles.py`` as their reference.
WORD_FACTORIZATION = ("Morphism", "compose", "enumerate_injections", "evaluate",
                      "factor_injection", "factor_morphism", "perm_to_adjacent", "word")


def test_package_has_no_word_factorization():
    """The package defines, imports and calls none of the word
    factorization's names.  ``ModuleMap.compose`` composes natural maps, not
    morphisms, so a method call ``.compose`` is allowed."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name if node.name != "compose" else None
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr if node.attr != "compose" else None
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in WORD_FACTORIZATION:
                found.append(f"{path.name}:{node.lineno}:{name}")
    assert found == []
    top_level = [node.name for path in sorted(SOURCE.glob("*.py"))
                 for node in ast.parse(path.read_text()).body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert "compose" not in top_level


def test_tracer_names_live_callables():
    """Every qualified name in the layer tracer's ``GROUPS`` and every class
    in its ``CLASSES`` resolves to a callable in fimlab, so a rename cannot
    leave a group silently counting 0."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for modname, classes in tracer.CLASSES.items():
        module = importlib.import_module(modname)
        missing += [f"{modname}.{c}" for c in classes
                    if not isinstance(getattr(module, c, None), type)]
    for members in tracer.GROUPS.values():
        for qualname in members:
            modname, *attrs = qualname.split(".")
            obj = importlib.import_module(f"fimlab.{modname}")
            for attr in attrs:
                obj = getattr(obj, attr, None)
            if not callable(obj):
                missing.append(qualname)
    assert missing == []


MODULE_DATA = ("actions", "dims")
MUTATORS = ("update", "pop", "popitem", "clear", "setdefault")


def _attribute_writes(path, fields, allowed):
    """Each statement of one source file that assigns to an attribute named
    in ``fields``, assigns into one by item, calls a mutating dict method on
    one, or sets one by ``setattr``, outside the scopes (``Class.method``)
    for which ``allowed(scope)`` holds, as file:line."""
    found = []

    def is_field(node):
        return isinstance(node, ast.Attribute) and node.attr in fields

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if not allowed(scope):
                targets = []
                if isinstance(child, ast.Assign):
                    targets = child.targets
                elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                    targets = [child.target]
                written = [t.value if isinstance(t, ast.Subscript) else t
                           for t in targets]
                if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                    if child.func.attr in MUTATORS:
                        written.append(child.func.value)
                by_setattr = (isinstance(child, ast.Call) and _callee(child) == "setattr"
                              and len(child.args) > 1
                              and isinstance(child.args[1], ast.Constant)
                              and child.args[1].value in fields)
                if by_setattr or any(is_field(w) for w in written):
                    found.append(f"{path.name}:{child.lineno}")
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def test_module_data_is_written_only_by_its_constructor():
    """A TruncatedModule's dims and actions are set once, in ``__init__``,
    which checks their shapes; a later write would skip that check and
    change a module other code may share."""
    found = [w for path in sorted(SOURCE.glob("*.py"))
             for w in _attribute_writes(path, MODULE_DATA,
                                        lambda scope: scope == "TruncatedModule.__init__")]
    assert found == []


def _only_free_modules(arg):
    """Whether a call argument is ``make_free(...)``, or a starred
    comprehension of them."""
    if isinstance(arg, ast.Starred):
        arg = arg.value
        if not isinstance(arg, (ast.ListComp, ast.GeneratorExp)):
            return False
        arg = arg.elt
    return isinstance(arg, ast.Call) and _callee(arg) == "make_free"


def _free_only_direct_sums(path):
    """Each ``direct_sum`` call of one source file whose arguments are all
    free modules, as file:line."""
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call) and _callee(node) == "direct_sum"
            and node.args and all(map(_only_free_modules, node.args))]


def test_free_sums_are_built_in_one_pass():
    """A sum of free modules comes from ``make_free_sum``'s index
    arithmetic, not from ``direct_sum``'s block matrices and inclusions."""
    found = [c for path in sorted(SOURCE.glob("*.py")) for c in _free_only_direct_sums(path)]
    assert found == []


def _calls_by_function(path):
    """{function or Class.method: the names it calls} for one source file;
    a nested helper's calls count for its outer function."""
    out = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.FunctionDef):
            funcs = [(node.name, node)]
        elif isinstance(node, ast.ClassDef):
            funcs = [(f"{node.name}.{m.name}", m) for m in node.body
                     if isinstance(m, ast.FunctionDef)]
        else:
            continue
        for name, func in funcs:
            out[name] = {_callee(c) for c in ast.walk(func) if isinstance(c, ast.Call)}
    return out


def _reached(calls, root):
    """The functions of one file that ``root`` reaches through calls within
    it, given ``_calls_by_function`` of the file; ``root`` included."""
    reached, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [c for c in calls[name] if c in calls]
    return reached


def test_generators_and_cover_come_from_one_walk():
    """No package function finds the generators and then walks them again
    for their cover: ``generators_and_cover`` gives both, and reads I(n) off
    the columns it has walked rather than from inclusion images."""
    calls = {(path.name, name): called for path in sorted(SOURCE.glob("*.py"))
             for name, called in _calls_by_function(path).items()}
    both = [f"{file}:{name}" for (file, name), called in sorted(calls.items())
            if {"generators_and_cover", "cover_blocks"} <= called]
    assert both == []
    one_pass = calls[("modules.py", "generators_and_cover")]
    assert not one_pass & {"positive_degree_image", "_images_from_below"}


def _free_module_uses(path):
    """(file, enclosing function, use) for each ``FreeModule(...)`` call and
    each ``isinstance`` test against ``FreeModule`` in one source file."""
    found = []

    def names_free_module(node):
        return any(isinstance(n, ast.Name) and n.id == "FreeModule" for n in ast.walk(node))

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call):
                if _callee(child) == "FreeModule":
                    found.append((path.name, scope, "call"))
                elif _callee(child) == "isinstance" and names_free_module(child):
                    found.append((path.name, scope, "isinstance"))
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def test_free_modules_are_built_and_recognised_in_one_place_each():
    """A ``FreeModule`` promises its data is the free sum on its ``objs``,
    and ``generators_and_cover`` and ``positive_degree_image`` answer from
    that promise.  Only ``make_free_sum`` builds one, so the package cannot
    forge the promise, and only ``_free_blocks`` tests for one: both answers
    read the summand blocks from it."""
    found = [u for path in sorted(SOURCE.glob("*.py")) for u in _free_module_uses(path)]
    assert sorted(found) == [("modules.py", "_free_blocks", "isinstance"),
                             ("modules.py", "make_free_sum", "call")]
    calls = _calls_by_function(SOURCE / "modules.py")
    assert "_free_blocks" in calls["generators_and_cover"]
    assert "_free_blocks" in calls["positive_degree_image"]


def test_free_module_actions_are_written_by_one_cached_builder():
    """``FreeModule.__init__`` writes no action itself: it calls neither
    ``_monomial`` nor ``generator_index_map`` but takes its tables from
    ``_free_tables``, which is cached per (objs, window, group), so only
    ``_free_tables`` writes free-module actions."""
    calls = _calls_by_function(SOURCE / "modules.py")
    init = calls["FreeModule.__init__"]
    assert "_free_tables" in init
    assert not init & {"_monomial", "generator_index_map"}
    assert {"_monomial", "generator_index_map"} <= calls["_free_tables"]
    assert hasattr(_free_tables, "cache_info")


def test_hom_maps_are_built_by_one_helper():
    """``NaturalitySolver.basis`` and ``.solve_with_conditions`` build their
    maps through ``_maps``, one product per term for all maps at once, and
    no other solver method builds a ``ModuleMap``.  The one-map dot-product
    route ``_solution_to_map`` is gone from the package; it lives in
    ``tests/oracles.py`` as the reference."""
    calls = {name: called for name, called in _calls_by_function(SOURCE / "modules.py").items()
             if name.startswith("NaturalitySolver.")}
    assert "_maps" in calls["NaturalitySolver.basis"]
    assert "_maps" in calls["NaturalitySolver.solve_with_conditions"]
    assert [name for name, called in sorted(calls.items())
            if "ModuleMap" in called] == ["NaturalitySolver._maps"]
    assert [path.name for path in sorted(SOURCE.glob("*.py"))
            if "_solution_to_map" in path.read_text()] == []


def test_torsion_takes_one_kernel_per_object_and_no_closure():
    """``detect_torsion`` reads T(n) off T(n + o_i) as one kernel, and its
    family is action-stable as it stands, so it makes no
    ``close_under_actions`` pass, and builds no torsion submodule from it;
    the composite-chain route lives in ``tests/oracles.py`` as
    ``torsion_by_composites``.  ``Subspace.intersect`` is one kernel of the
    two stacked quotient maps, with no second elimination."""
    calls = _calls_by_function(SOURCE / "homology.py")["detect_torsion"]
    assert not calls & {"close_under_actions", "submodule_from_stable_subspaces"}
    intersect = _calls_by_function(SOURCE / "linalg.py")["Subspace.intersect"]
    assert "kernel_basis" in intersect and "from_spanning" not in intersect


# The fields of the two shared linear-algebra types.  ``RationalMatrix.zeros``
# and ``.identity`` and ``Subspace.zero`` and ``.full`` hand one value to
# every caller, so only the constructors may set these.
SHARED_FIELDS = ("rows", "den", "nrows", "ncols", "basis", "ambient_dim", "_pivots")
FIELD_WRITERS = ("_make", "RationalMatrix.__init__", "Subspace.__init__")
# Classes of their own whose attributes share a field name (the Hom
# solver's constraint ``rows``).
OTHER_CLASSES = ("NaturalitySolver",)


def test_shared_values_are_written_only_by_their_constructors():
    """A matrix's or a subspace's fields are set once, by ``_make`` or a
    constructor; a later write would change every holder of a shared
    zero, identity or full subspace."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        writers = FIELD_WRITERS if path.name == "linalg.py" else ()
        found += _attribute_writes(
            path, SHARED_FIELDS,
            lambda scope: scope in writers or scope.split(".")[0] in OTHER_CLASSES)
    assert found == []


# Every process-lifetime cache in the package, as (file, qualified name),
# with the key its value is a pure function of.  Each entry lives as long
# as the process, so a new cache needs an entry here.  ``cached_property``
# caches live and die with their instance, so they are not listed.
PROCESS_CACHES = {
    ("category.py", "unit"): "(m, i)",
    ("category.py", "_window_objects"): "the window bound",
    ("category.py", "_objects_by_degree"): "the window bound",
    ("category.py", "_injections_one"): "(a, b), two naturals",
    ("category.py", "count_injections"): "(a, b), two objects",
    ("category.py", "injection_index_table"): "(a, b), two objects",
    ("category.py", "generator_index_map"): "(n, generator key)",
    ("category.py", "aut_orbit_table"): "(a, b), two objects",
    ("category.py", "window_generators"): "(window, group table and generators)",
    ("functors.py", "_rs_group"): "(s, group table and generators, name)",
    ("linalg.py", "_identity_rows"): "n",
    ("linalg.py", "_unit_rows"): "n",
    ("linalg.py", "_unit_index"): "n, the row width",
    ("linalg.py", "RationalMatrix.zeros"): "(nrows, ncols)",
    ("linalg.py", "RationalMatrix.identity"): "n",
    ("linalg.py", "Subspace.zero"): "the ambient dimension",
    ("linalg.py", "Subspace.full"): "the ambient dimension",
    ("modules.py", "_free_tables"): "(objects, window, group table and generators)",
    ("symrep.py", "specht"): "the partition",
}
CACHE_DECORATORS = ("lru_cache", "cache")


def _decorator_name(dec):
    target = dec.func if isinstance(dec, ast.Call) else dec
    return target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)


def _cached_functions(path):
    """(file, qualified name) of each function or method of one source file
    decorated with ``lru_cache`` or ``cache``, called or bare."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                name = f"{scope}.{child.name}".lstrip(".")
                if isinstance(child, ast.FunctionDef) and any(
                        _decorator_name(d) in CACHE_DECORATORS for d in child.decorator_list):
                    found.append((path.name, name))
                visit(child, name)
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def process_caches():
    """The cached callables of ``PROCESS_CACHES``, resolved in fimlab;
    ``cache_clear()`` on each empties every process-lifetime cache."""
    out = []
    for file, qualname in PROCESS_CACHES:
        obj = importlib.import_module(f"fimlab.{file[:-3]}")
        for attr in qualname.split("."):
            obj = getattr(obj, attr)
        out.append(obj)
    return out


def test_every_process_cache_is_on_the_allow_list():
    found = [c for path in sorted(SOURCE.glob("*.py")) for c in _cached_functions(path)]
    assert len(found) == len(set(found))
    assert sorted(found) == sorted(PROCESS_CACHES)
    assert all(PROCESS_CACHES.values()), "an allow-list entry names no key"
    assert all(hasattr(fn, "cache_clear") for fn in process_caches())


# The steps of solving for F_s(W): the free module at s, the Kronecker
# product over Inj(s, s') x W(t), the fixed-space kernel and the
# restriction to it.
INDUCED_SOLVE = ("kron", "_fixed_space", "make_free", "submodule_from_stable_subspaces")


def test_induced_module_is_written_down_not_solved_for():
    """``induced_module`` and every functors.py helper it reaches write the
    orbit-sum basis and its block-monomial actions down by index
    arithmetic, and call none of the solve's steps; the fixed-space route
    lives in ``tests/oracles.py`` as ``induced_module_by_fixed_space``.
    They read W at the swaps of Aut(s) and list no element of Aut(s)."""
    calls = _calls_by_function(SOURCE / "functors.py")
    reached = _reached(calls, "induced_module")
    assert "_swap_values" in reached
    assert [f"{name}: {c}" for name in sorted(reached)
            for c in sorted(calls[name] & {*INDUCED_SOLVE, "_rep_elements"})] == []


# The steps of solving for E(lambda): the co-free module at l, its
# injection index maps, the Kronecker product over Inj(t, l) x X and the
# restriction to the fixed space.
COINDUCED_SOLVE = ("kron", "make_cofree", "_monomial", "generator_index_map",
                   "submodule_from_stable_subspaces")


def test_coinduced_module_is_written_down_not_solved_for():
    """``make_coinduced`` and every modules.py helper it reaches build
    nothing of size Inj(t, l): E(lambda)(t) is the invariants in the Specht
    product X of one injection's stabiliser, and none of the solve's steps
    is called; the fixed-space route lives in ``tests/oracles.py`` as
    ``make_coinduced_by_compose``."""
    calls = _calls_by_function(SOURCE / "modules.py")
    reached = _reached(calls, "make_coinduced")
    assert {"_fixed_space", "_specht_swaps"} <= reached
    assert [f"{name}: {c}" for name in sorted(reached)
            for c in sorted(calls[name] & set(COINDUCED_SOLVE))] == []


def test_end_ring_walks_no_cover_of_its_own():
    """``end_ring`` and every theorems.py helper it reaches read a
    one-parameter End(V) off H0 dimensions (``_h0_dims``) and walk no cover:
    any other End(V) goes to ``NaturalitySolver``, which builds it once."""
    calls = _calls_by_function(SOURCE / "theorems.py")
    reached = _reached(calls, "end_ring")
    assert "_h0_dims" in reached and "NaturalitySolver" in calls["end_ring"]
    walks = {"generators_and_cover", "cover_blocks", "_orbit_walk"}
    assert [f"{name}: {c}" for name in sorted(reached) for c in sorted(calls[name] & walks)] == []


def test_only_the_group_type_reads_a_multiplication_table():
    """Outside ``category.py`` (the group's input checks, its derivation of
    the table and its wire format) no package code reads ``.mult``: every
    reader takes the generators' left rows."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name != "category.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr == "mult"]
    assert found == []


def test_slices_and_induced_modules_build_no_aut_table():
    """H0 of F(6) and M((4,2)) on (6,) carry Aut(6) x 1 by its generators
    and never derive its 720 x 720 table."""
    _rs_group.cache_clear()
    report = h0(make_free((6,), Window((6,))), (1,))
    make_induced(((4, 2),), Window((6,)))
    group = rs_group((6,), GroupTable.trivial())
    assert report.h0_slices[(6,)].group is group and group.order == 720
    assert "mult" not in vars(group)


def _unused_imports(path):
    """Each name a top-level import of one source file binds that no code
    in the file reads, as file:line:name (``__future__`` flags aside)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update({a.asname or a.name.split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update({a.asname or a.name: node.lineno for a in node.names})
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}:{name}" for name, line in sorted(bound.items())
            if name not in read]


def test_no_file_imports_a_name_it_never_reads():
    """No linter runs here, so this is the unused-import check for the
    package (``__init__.py`` imports to re-export) and the tests."""
    paths = [p for p in sorted(SOURCE.glob("*.py")) if p.name != "__init__.py"]
    found = [u for path in paths + sorted(TESTS.glob("*.py")) for u in _unused_imports(path)]
    assert found == []
