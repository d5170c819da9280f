"""The fimlab command line interface.

Exit code 0 means every assertion of the invoked command passed; a nonzero
exit reports the first failure, with a JSON report on standard output.

Config files use a plain key=value format (# comments allowed):

    window = 4,4
    m = 2
    group = /path/to/group.json
    seed = 42

Command-line flags override config values.
"""

from __future__ import annotations

import argparse
import json
import sys

from .category import GroupTable, Window, _is_int
from .modules import (
    TruncatedModule,
    external_tensor,
    make_cofree,
    make_coinduced,
    make_free,
)
from .functors import (
    derivative,
    derivative_sum,
    kernel_functor,
    kernel_sum,
    make_induced,
    normalize_subset,
    shift,
    shift_sum,
)
from .homology import detect_torsion, h1
from .theorems import cogenerate, end_ring, shift_theorem_search
from .suites import ALIASES, SUITES, run_all, run_suite
from .symrep import check_partition


CONFIG_KEYS = ("window", "m", "group", "seed")


def load_config(path) -> dict:
    """The key = value pairs of a config file, as strings.  An unknown key,
    or an ``m`` or ``seed`` that is not an integer, raises a ValueError that
    names the key."""
    out = {}
    if path is None:
        return out
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = (x.strip() for x in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"{key}: unknown config key; known: {list(CONFIG_KEYS)}")
            if key in ("m", "seed"):
                try:
                    int(val)
                except ValueError:
                    raise ValueError(f"{key}: expected an integer, "
                                     f"got {val!r}") from None
            out[key] = val
    return out


def parse_coords(text) -> tuple:
    return tuple(int(x) for x in str(text).split(",") if x != "")


def _flag_coords(text, flag: str) -> tuple:
    """parse_coords of a required flag; a missing or malformed value raises
    a ValueError that names the flag."""
    if text is None:
        raise ValueError(f"{flag}: required")
    try:
        return parse_coords(text)
    except ValueError:
        raise ValueError(f"{flag}: expected comma-separated integers, "
                         f"got {text!r}") from None


def _flag_subset(text, flag: str, m: int) -> tuple:
    """The coordinate subset of a required flag, normalized for m; a missing,
    malformed, empty or out-of-range value raises a ValueError that names
    the flag."""
    coords = _flag_coords(text, flag)
    try:
        return normalize_subset(coords, m)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _flag_object(text, flag: str, window: Window) -> tuple:
    """The window object of a required flag; a missing or malformed value,
    a wrong coordinate count, a negative entry or an object outside the
    window raises a ValueError that names the flag."""
    n = _flag_coords(text, flag)
    if len(n) != window.m:
        raise ValueError(f"{flag}: expected {window.m} coordinates, got {len(n)}")
    if min(n, default=0) < 0:
        raise ValueError(f"{flag}: negative entry in {n}")
    if not window.contains(n):
        raise ValueError(f"{flag}: object {n} lies outside the window {window.bound}")
    return n


def _flag_lambdas(text, window: Window) -> tuple:
    """The partitions of --lambdas, one per coordinate of the window; a
    missing or malformed value, one that is not a list of partitions, the
    wrong number of partitions, or sizes outside the window raise a
    ValueError that names the flag."""
    if text is None:
        raise ValueError("--lambdas: required")
    try:
        lambdas = tuple(tuple(p) for p in json.loads(text))
        if not all(_is_int(x) for p in lambdas for x in p):
            raise TypeError
    except (TypeError, ValueError):
        raise ValueError(f"--lambdas: expected a JSON list of integer lists, "
                         f"got {text!r}") from None
    try:
        lambdas = tuple(check_partition(p) for p in lambdas)
    except ValueError as exc:
        raise ValueError(f"--lambdas: {exc}") from None
    if len(lambdas) != window.m:
        raise ValueError(f"--lambdas: expected {window.m} partitions, one per "
                         f"coordinate, got {len(lambdas)}")
    n = tuple(map(sum, lambdas))
    if not window.contains(n):
        raise ValueError(f"--lambdas: object {n} lies outside the window {window.bound}")
    return lambdas


def _flag_bound(value: int, flag: str) -> int:
    """A search bound flag; a negative value raises a ValueError that names
    the flag."""
    if value < 0:
        raise ValueError(f"{flag}: must be >= 0, got {value}")
    return value


def _emit(payload, code: int) -> int:
    print(json.dumps(payload, sort_keys=True, indent=1))
    return code


def _load_group(arg, config) -> GroupTable:
    """The group table of --group or the config's ``group``, else the
    trivial group.  A file that cannot be read or is not a group table
    raises a ValueError that starts with ``--group:`` or ``group:``."""
    path, where = (arg, "--group") if arg else (config.get("group"), "group")
    if path is None:
        return GroupTable.trivial()
    try:
        with open(path) as fh:
            return GroupTable.from_dict(json.load(fh))
    except OSError as exc:
        raise ValueError(f"{where}: cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _check_m(config, window: Window) -> None:
    """A config ``m`` must match the window's coordinate count."""
    if "m" in config and int(config["m"]) != window.m:
        raise ValueError(f"m: config says m = {config['m']}, but the window "
                         f"{window.bound} has {window.m} coordinates")


def _window_from(args, config) -> Window:
    """The window of --window or the config; a config ``m`` must match its
    coordinate count."""
    text = getattr(args, "window", None) or config.get("window")
    bound = _flag_coords(text, "--window")
    try:
        window = Window(bound)
    except ValueError as exc:
        raise ValueError(f"--window: {exc}") from None
    _check_m(config, window)
    return window


def _load_checked(path) -> TruncatedModule:
    """The module in a file; the first relation it breaks raises a ValueError."""
    mod = TruncatedModule.load(path)
    failure = mod.validate().first_failure()
    if failure is not None:
        raise ValueError(f"{path}: {failure}")
    return mod


def cmd_validate(args) -> int:
    mod = TruncatedModule.load(args.module)
    report = mod.validate()
    payload = {"ok": report.ok, "failures": report.failures[:10]}
    return _emit(payload, 0 if report.ok else 1)


def cmd_build(args) -> int:
    config = load_config(args.config)
    group = _load_group(args.group, config)
    if args.kind == "tensor":
        if len(args.inputs) != 2:
            raise ValueError("inputs: tensor takes exactly two module files")
        a = _load_checked(args.inputs[0])
        b = _load_checked(args.inputs[1])
        # the inputs fix the tensor's window; a given one must agree
        window = Window(a.window.bound + b.window.bound)
        _check_m(config, window)
        if args.window or "window" in config:
            given = _window_from(args, config)
            if given != window:
                raise ValueError(f"--window: {given.bound} differs from the "
                                 f"tensor's window {window.bound}")
        mod = external_tensor(a, b)
        # the inputs fix the tensor's group too; a given one must agree
        if (args.group or "group" in config) and group != mod.group:
            where = "--group" if args.group else "group"
            raise ValueError(f"{where}: the group of order {group.order} differs "
                             f"from the tensor's group, of order {mod.group.order}")
    else:
        window = _window_from(args, config)
        if args.kind == "free":
            mod = make_free(_flag_object(args.n, "--n", window), window, group)
        elif args.kind == "cofree":
            mod = make_cofree(_flag_object(args.l, "--l", window), window, group)
        elif args.kind == "induced":
            mod = make_induced(_flag_lambdas(args.lambdas, window), window, group)
        elif args.kind == "coinduced":
            mod = make_coinduced(_flag_lambdas(args.lambdas, window), window, group)
        else:
            raise SystemExit(f"unknown build kind {args.kind}")
    mod.save(args.output)
    dims = {str(k): v for k, v in sorted(mod.dims.items())}
    return _emit({"written": args.output, "dims": dims}, 0)


# each functor command: (the functor at one coordinate, its sum over a subset)
FUNCTORS = {
    "shift": (shift, shift_sum),
    "derivative": (derivative, derivative_sum),
    "kernel": (kernel_functor, kernel_sum),
}


def cmd_functor(args) -> int:
    mod = _load_checked(args.module)
    coords = _flag_coords(args.i, "-i")
    if not coords:
        raise ValueError("-i: expected a coordinate or a comma-separated subset")
    for i in coords:
        if not (1 <= i <= mod.m):
            raise ValueError(f"-i: coordinate {i} out of range for m={mod.m}")
    single, total = FUNCTORS[args.op]
    out = single(mod, coords[0]) if len(coords) == 1 else total(mod, coords)
    out.save(args.output)
    dims = {str(k): v for k, v in sorted(out.dims.items())}
    return _emit({"written": args.output, "dims": dims}, 0)


def cmd_homology(args) -> int:
    mod = _load_checked(args.module)
    rep = h1(mod, _flag_subset(args.S, "--S", mod.m))
    return _emit(rep.to_dict(), 0)


def cmd_torsion(args) -> int:
    mod = _load_checked(args.module)
    verdict = detect_torsion(mod, _flag_subset(args.S, "--S", mod.m))
    return _emit(verdict.to_dict(), 0)


def cmd_shift_theorem(args) -> int:
    max_n = _flag_bound(args.max_n, "--max-n")
    mod = _load_checked(args.module)
    result = shift_theorem_search(mod, _flag_subset(args.S, "--S", mod.m), max_n)
    payload = {"n": result.n, "status": result.status, "log": result.log}
    return _emit(payload, 0 if result.conclusive else 1)


def cmd_cogenerate(args) -> int:
    max_shift = _flag_bound(args.max_shift, "--max-shift")
    mod = _load_checked(args.module)
    wit = cogenerate(mod, max_shift=max_shift)
    payload = {
        "status": wit.status,
        "members": [m.describe() for m in wit.members],
        "verified": wit.verify(),
        "window": list(wit.window.bound) if wit.window else None,
        "notes": wit.notes,
    }
    return _emit(payload, 0 if payload["verified"] else 1)


def cmd_endring(args) -> int:
    mod = _load_checked(args.module)
    er = end_ring(mod)
    payload = {
        "dim": er.dim,
        "radical_dim": er.radical_dim,
        "is_local": er.is_local,
        "idempotent_found": er.idempotent_coords is not None,
        "search_exhausted": er.search_exhausted,
    }
    return _emit(payload, 0)


def cmd_verify_paper(args) -> int:
    config = load_config(args.config)
    # the suites pin their own windows and groups, but a config that build
    # would refuse is refused here too
    _load_group(None, config)
    if "window" in config:
        _window_from(args, config)
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    if args.suite == "all":
        reports = run_all(seed=seed)
    else:
        reports = [run_suite(args.suite, seed=seed)]
    payload = {
        "passed": all(r.passed for r in reports),
        "suites": [r.to_dict() for r in reports],
    }
    for r in reports:
        for c in r.checks:
            mark = "pass" if c.ok else "FAIL"
            print(f"[{mark}] {r.suite}: {c.name}", file=sys.stderr)
    return _emit(payload, 0 if payload["passed"] else 1)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fimlab")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a module file")
    v.add_argument("module")
    v.add_argument("--deep", action="store_true",
                   help="accepted; the relation checks already imply functoriality")
    v.set_defaults(func=cmd_validate)

    b = sub.add_parser("build", help="construct a module and write it")
    b.add_argument("kind", choices=["free", "induced", "cofree", "coinduced", "tensor"])
    b.add_argument("inputs", nargs="*", help="input modules for tensor")
    b.add_argument("--n", help="object for free, e.g. 1,0")
    b.add_argument("--l", help="object for cofree")
    b.add_argument("--lambdas", help='partitions as JSON, e.g. "[[2],[1,1]]"')
    b.add_argument("--window", help="window bound, e.g. 3,3")
    b.add_argument("--group", help="group table JSON file")
    b.add_argument("--config", help="key=value config file")
    b.add_argument("-o", "--output", required=True)
    b.set_defaults(func=cmd_build)

    for op in FUNCTORS:
        f = sub.add_parser(op, help=f"apply the {op} functor")
        f.add_argument("module")
        f.add_argument("-i", required=True, help="coordinate or comma subset")
        f.add_argument("-o", "--output", required=True)
        f.set_defaults(func=cmd_functor, op=op)

    h = sub.add_parser("homology", help="H0/H1 report along S")
    h.add_argument("module")
    h.add_argument("--S", required=True)
    h.set_defaults(func=cmd_homology)

    t = sub.add_parser("torsion", help="detect S-torsion")
    t.add_argument("module")
    t.add_argument("--S", required=True)
    t.set_defaults(func=cmd_torsion)

    st = sub.add_parser("shift-theorem", help="search for a semi-induced shift")
    st.add_argument("module")
    st.add_argument("--S", required=True)
    st.add_argument("--max-n", type=int, default=4)
    st.set_defaults(func=cmd_shift_theorem)

    cg = sub.add_parser("cogenerate", help="embed into injective members")
    cg.add_argument("module")
    cg.add_argument("--max-shift", type=int, default=3)
    cg.set_defaults(func=cmd_cogenerate)

    er = sub.add_parser("endring", help="endomorphism ring data")
    er.add_argument("module")
    er.set_defaults(func=cmd_endring)

    vp = sub.add_parser("verify-paper", help="run a verification suite")
    vp.add_argument(
        "--suite",
        required=True,
        help="one of %s, an alias (%s), or 'all'"
        % (sorted(SUITES), sorted(ALIASES)),
    )
    vp.add_argument("--seed", type=int)
    vp.add_argument("--config", help="key=value config file")
    vp.set_defaults(func=cmd_verify_paper)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a JSON error report, nonzero exit
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
