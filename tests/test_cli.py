import json

import pytest

from fimlab.category import GroupTable
from fimlab.cli import load_config, main, parse_coords


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_build_validate_round_trip(tmp_path, capsys):
    out = tmp_path / "m1.json"
    code, payload = run_cli(
        capsys, "build", "free", "--n", "1", "--window", "3", "-o", str(out)
    )
    assert code == 0 and payload["dims"]["(3,)"] == 3
    code, payload = run_cli(capsys, "validate", str(out))
    assert code == 0 and payload["ok"]


def test_build_tensor_and_functors(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    t = tmp_path / "t.json"
    run_cli(capsys, "build", "free", "--n", "1", "--window", "2", "-o", str(a))
    run_cli(capsys, "build", "cofree", "--l", "1", "--window", "2", "-o", str(b))
    code, payload = run_cli(capsys, "build", "tensor", str(a), str(b), "-o", str(t))
    assert code == 0
    assert payload["dims"]["(1, 2)"] == 0  # E(1) vanishes above degree 1
    s = tmp_path / "s.json"
    code, payload = run_cli(capsys, "shift", str(a), "-i", "1", "-o", str(s))
    assert code == 0 and payload["dims"]["(1,)"] == 2
    d = tmp_path / "d.json"
    code, payload = run_cli(capsys, "derivative", str(a), "-i", "1", "-o", str(d))
    assert code == 0
    k = tmp_path / "k.json"
    code, payload = run_cli(capsys, "kernel", str(a), "-i", "1", "-o", str(k))
    assert code == 0
    assert all(v == 0 for v in payload["dims"].values())


def test_homology_and_torsion_commands(tmp_path, capsys):
    mod = tmp_path / "e0.json"
    run_cli(capsys, "build", "cofree", "--l", "0", "--window", "3", "-o", str(mod))
    code, payload = run_cli(capsys, "homology", str(mod), "--S", "1")
    assert code == 0
    assert payload["t0"] == 0 and payload["t1"] == 1
    code, payload = run_cli(capsys, "torsion", str(mod), "--S", "1")
    assert code == 0 and payload["status"] in ("EXACT", "WINDOW_BOUNDED")
    assert payload["dims"]["(0,)"] == 1


def test_shift_theorem_command(tmp_path, capsys):
    mod = tmp_path / "m.json"
    run_cli(capsys, "build", "free", "--n", "1", "--window", "4", "-o", str(mod))
    code, payload = run_cli(
        capsys, "shift-theorem", str(mod), "--S", "1", "--max-n", "2"
    )
    assert code == 0 and payload["n"] == 0


def test_cogenerate_and_endring_commands(tmp_path, capsys):
    mod = tmp_path / "m.json"
    run_cli(capsys, "build", "free", "--n", "1", "--window", "3", "-o", str(mod))
    code, payload = run_cli(capsys, "cogenerate", str(mod), "--max-shift", "1")
    assert code == 0 and payload["verified"]
    code, payload = run_cli(capsys, "endring", str(mod))
    assert code == 0 and payload["dim"] == 1 and payload["is_local"]


def test_verify_paper_single_suite(capsys):
    code, payload = run_cli(capsys, "verify-paper", "--suite", "roundtrip")
    assert code == 0 and payload["passed"]
    names = [s["suite"] for s in payload["suites"]]
    assert names == ["roundtrip"]


def test_verify_paper_alias(capsys):
    code, payload = run_cli(capsys, "verify-paper", "--suite", "lemma2.8")
    assert code == 0
    assert payload["suites"][0]["suite"] == "degree"


def test_unknown_suite_fails(capsys):
    code, payload = run_cli(capsys, "verify-paper", "--suite", "bogus")
    assert code == 2 and "error" in payload
    assert payload["type"] == "ValueError"
    assert "--suite" in payload["error"] and "thm4.10" in payload["error"]


def test_config_parsing(tmp_path):
    cfg = tmp_path / "fimlab.cfg"
    cfg.write_text("# sample\nwindow = 3,3\nm = 2\nseed = 11\n")
    conf = load_config(str(cfg))
    assert conf == {"window": "3,3", "m": "2", "seed": "11"}
    assert parse_coords(conf["window"]) == (3, 3)


@pytest.mark.parametrize("text,argv,start", [
    ("windw = 3\n", ["build", "free", "--n", "1"], "windw:"),
    ("window = 3\nm = 2\n", ["build", "free", "--n", "1"], "m:"),
    ("m = 1\n", ["build", "free", "--n", "1", "--window", "3,3"], "m:"),
    ("seed = abc\n", ["verify-paper", "--suite", "roundtrip"], "seed:"),
], ids=["unknown-key", "m-vs-config-window", "m-vs-flag-window", "seed-not-int"])
def test_config_errors_exit_2_naming_the_key(tmp_path, capsys, text, argv, start):
    cfg = tmp_path / "fimlab.cfg"
    cfg.write_text(text)
    if argv[0] == "build":
        argv = argv + ["-o", str(tmp_path / "o.json")]
    code, payload = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2 and payload["type"] == "ValueError"
    assert payload["error"].startswith(start)


def _group_files(tmp_path):
    """Paths for the group config tests: a good S2 table, a missing file,
    a file that is not JSON, a table that is not a group law and a C4
    table whose declared generators do not generate it."""
    from fimlab.category import GroupTable

    files = {"good": GroupTable.symmetric(2).to_dict(),
             "not-json": "{",
             "bad-table": {"mult": [[0, 1], [0, 0]], "generators": [1], "order": 2},
             "not-generated": {**GroupTable.cyclic(4).to_dict(), "generators": [2]}}
    paths = {"missing": tmp_path / "missing.json"}
    for name, content in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(content if isinstance(content, str) else json.dumps(content))
    return paths


@pytest.mark.parametrize("group", ["missing", "not-json", "bad-table", "not-generated"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_bad_group_file_exits_2_naming_its_source(tmp_path, capsys, group, via):
    path = str(_group_files(tmp_path)[group])
    argv = ["build", "free", "--n", "0", "--window", "2", "-o", str(tmp_path / "o.json")]
    if via == "flag":
        argv += ["--group", path]
    else:
        cfg = tmp_path / "fimlab.cfg"
        cfg.write_text(f"group = {path}\n")
        argv += ["--config", str(cfg)]
    code, payload = run_cli(capsys, *argv)
    assert code == 2 and payload["type"] == "ValueError"
    source = "--group:" if via == "flag" else "group:"
    assert payload["error"].startswith(source)
    if group == "not-generated":
        assert payload["error"].startswith(f"{source} generators: ")


@pytest.mark.parametrize("text,start", [
    ("window = 3\nm = 2\ngroup = {missing}\n", "group:"),
    ("group = {not-json}\n", "group:"),
    ("group = {bad-table}\n", "group:"),
    ("window = 3\nm = 2\n", "m:"),
    ("window = 3\nm = 2\ngroup = {good}\n", "m:"),
], ids=["missing-group", "group-not-json", "group-not-a-table", "m-vs-window",
        "m-vs-window-good-group"])
def test_verify_paper_refuses_a_config_that_build_refuses(tmp_path, capsys, text, start):
    cfg = tmp_path / "fimlab.cfg"
    cfg.write_text(text.format(**_group_files(tmp_path)))
    code, payload = run_cli(capsys, "verify-paper", "--suite", "roundtrip", "--config", str(cfg))
    assert code == 2 and payload["type"] == "ValueError"
    assert payload["error"].startswith(start)


def test_verify_paper_accepts_a_config_that_build_accepts(tmp_path, capsys):
    cfg = tmp_path / "fimlab.cfg"
    cfg.write_text(f"window = 3,3\nm = 2\ngroup = {_group_files(tmp_path)['good']}\n")
    code, payload = run_cli(capsys, "verify-paper", "--suite", "roundtrip", "--config", str(cfg))
    assert code == 0 and payload["passed"]


def test_config_m_matching_the_window_builds(tmp_path, capsys):
    cfg = tmp_path / "fimlab.cfg"
    cfg.write_text("window = 2,2\nm = 2\n")
    code, payload = run_cli(capsys, "build", "free", "--n", "1,0", "--config", str(cfg),
                            "-o", str(tmp_path / "o.json"))
    assert code == 0 and payload["dims"]["(2, 2)"] == 2


def test_group_file_build(tmp_path, capsys):
    from fimlab.category import GroupTable

    gpath = tmp_path / "s2.json"
    gpath.write_text(json.dumps(GroupTable.symmetric(2).to_dict()))
    out = tmp_path / "mg.json"
    code, payload = run_cli(
        capsys, "build", "free", "--n", "0", "--window", "2",
        "--group", str(gpath), "-o", str(out),
    )
    assert code == 0 and payload["dims"]["(1,)"] == 2


def test_validate_malformed_module_exits_2_naming_the_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"m": 1}))
    code, payload = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert payload["type"] == "ValueError"
    assert "group_ref" in payload["error"]


@pytest.mark.parametrize("field,value,start", [
    ("dims", {"(0)": -2}, "dims.(0): expected a non-negative integer"),
    ("window", "(-1)", "window: bound -1 in coordinate 1 is negative"),
], ids=["negative-dim", "negative-window"])
@pytest.mark.parametrize("argv", [["validate"], ["endring"], ["homology", "--S", "1"]],
                         ids=["validate", "endring", "homology"])
def test_module_file_with_a_negative_size_exits_2(tmp_path, capsys, field, value, start, argv):
    doc = {"m": 1, "group_ref": GroupTable.trivial().to_dict(), "window": "(0)",
           "dims": {"(0)": 1}, "actions": [], "presentation": None, "name": ""}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**doc, field: value}))
    code, payload = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 2 and payload["type"] == "ValueError"
    assert payload["error"] == start


@pytest.mark.parametrize("op", ["shift", "derivative", "kernel"])
@pytest.mark.parametrize("i", ["0", "2", "-1", "1,5"])
def test_functor_coordinate_out_of_range_exits_2(tmp_path, capsys, op, i):
    mod = tmp_path / "f1.json"
    run_cli(capsys, "build", "free", "--n", "1", "--window", "3", "-o", str(mod))
    code, payload = run_cli(capsys, op, str(mod), "-i", i, "-o", str(tmp_path / "o.json"))
    assert code == 2 and payload["type"] == "ValueError"
    bad = i.split(",")[-1]
    assert payload["error"].startswith("-i:")
    assert f"coordinate {bad} out of range for m=1" in payload["error"]


@pytest.mark.parametrize("argv,flag", [
    (["build", "free", "--window", "3"], "--n"),
    (["build", "free", "--n", "x", "--window", "3"], "--n"),
    (["build", "cofree", "--window", "3"], "--l"),
    (["build", "induced", "--window", "3"], "--lambdas"),
    (["build", "coinduced", "--window", "3", "--lambdas", "[[2]"], "--lambdas"),
    (["build", "free", "--n", "1"], "--window"),
    (["build", "tensor"], "inputs"),
    (["build", "induced", "--window", "3", "--lambdas", "[[true]]"], "--lambdas"),
    (["build", "induced", "--window", "3", "--lambdas", "[[2.5]]"], "--lambdas"),
    (["build", "induced", "--window", "3", "--lambdas", '[["2"]]'], "--lambdas"),
    (["build", "induced", "--window", "3", "--lambdas", "[[1,2]]"], "--lambdas"),
    (["build", "tensor", "{a}", "{b}", "--config", "{m5}"], "m"),
    (["build", "tensor", "{a}", "{b}", "--window", "2,3"], "--window"),
    (["build", "tensor", "{a}", "{b}", "--window", "2"], "--window"),
    (["build", "tensor", "{a}", "{b}", "--config", "{w3}"], "--window"),
    (["build", "tensor", "{a}", "{b}", "--config", "{w22m1}"], "m"),
    (["build", "tensor", "{a}", "{b}", "--group", "{s2}"], "--group"),
    (["build", "tensor", "{a}", "{b}", "--config", "{gs2}"], "group"),
    (["build", "free", "--n", "0", "--window=-1"], "--window"),
    (["build", "free", "--n", "1", "--window", "3,3"], "--n"),
    (["build", "free", "--n", "-1", "--window", "3"], "--n"),
    (["build", "free", "--n", "4", "--window", "3"], "--n"),
    (["build", "cofree", "--l", "1,1,1", "--window", "3,3"], "--l"),
    (["build", "cofree", "--l", "-1", "--window", "3"], "--l"),
    (["build", "cofree", "--l", "2,4", "--window", "3,3"], "--l"),
    (["build", "induced", "--lambdas", "[[1],[1]]", "--window", "3"], "--lambdas"),
    (["build", "coinduced", "--lambdas", "[[1]]", "--window", "3,3"], "--lambdas"),
    (["build", "induced", "--lambdas", "[[2,2]]", "--window", "3"], "--lambdas"),
])
def test_build_names_the_missing_or_malformed_flag(tmp_path, capsys, argv, flag):
    """The tensor cases fill in two trivial-group m = 1 modules on the
    window 2, a group file for S_2, and config files whose ``m``, window or
    group disagree with the tensor's."""
    if "{a}" in argv:
        files = {}
        for name in ("a", "b"):
            files[name] = tmp_path / f"{name}.json"
            run_cli(capsys, "build", "free", "--n", "1", "--window", "2", "-o", str(files[name]))
        files["s2"] = tmp_path / "s2.json"
        files["s2"].write_text(json.dumps(GroupTable.symmetric(2).to_dict()))
        for name, text in (("m5", "m = 5\n"), ("w3", "window = 3\n"),
                           ("w22m1", "window = 2,2\nm = 1\n"),
                           ("gs2", f"group = {files['s2']}\n")):
            files[name] = tmp_path / f"{name}.cfg"
            files[name].write_text(text)
        argv = [arg.format(**files) for arg in argv]
    code, payload = run_cli(capsys, *argv, "-o", str(tmp_path / "o.json"))
    assert code == 2 and payload["type"] == "ValueError"
    assert payload["error"].startswith(f"{flag}:")


def test_build_tensor_accepts_the_group_of_its_inputs(tmp_path, capsys):
    """A given group equal to the tensor's is accepted, from --group or a
    config, and the tensor carries it."""
    s2 = tmp_path / "s2.json"
    s2.write_text(json.dumps(GroupTable.symmetric(2).to_dict()))
    cfg = tmp_path / "g.cfg"
    cfg.write_text(f"group = {s2}\n")
    a, b, t = (tmp_path / f"{name}.json" for name in "abt")
    run_cli(capsys, "build", "free", "--n", "1", "--window", "2", "--group", str(s2), "-o", str(a))
    run_cli(capsys, "build", "free", "--n", "1", "--window", "2", "-o", str(b))
    for flags in (["--group", str(s2)], ["--config", str(cfg)]):
        code, _ = run_cli(capsys, "build", "tensor", str(a), str(b), *flags, "-o", str(t))
        assert code == 0
        assert json.loads(t.read_text())["group_ref"] == GroupTable.symmetric(2).to_dict()


@pytest.mark.parametrize("i", ["", ",", "one"])
def test_functor_names_a_malformed_coordinate_flag(tmp_path, capsys, i):
    mod = tmp_path / "f1.json"
    run_cli(capsys, "build", "free", "--n", "1", "--window", "3", "-o", str(mod))
    code, payload = run_cli(capsys, "shift", str(mod), "-i", i, "-o", str(tmp_path / "o.json"))
    assert code == 2 and payload["type"] == "ValueError"
    assert payload["error"].startswith("-i:")


@pytest.mark.parametrize("command", ["homology", "torsion", "shift-theorem"])
@pytest.mark.parametrize("S,message", [
    ("a", "--S: expected comma-separated integers, got 'a'"),
    ("", "--S: coordinate subset must be nonempty"),
    ("5", "--S: subset (5,) out of range for m=1"),
])
def test_subset_flag_errors_name_the_flag(tmp_path, capsys, command, S, message):
    mod = tmp_path / "f1.json"
    run_cli(capsys, "build", "free", "--n", "1", "--window", "3", "-o", str(mod))
    code, payload = run_cli(capsys, command, str(mod), "--S", S)
    assert code == 2 and payload["type"] == "ValueError"
    assert payload["error"] == message


@pytest.mark.parametrize("argv,flag", [
    (["shift-theorem", "--S", "1", "--max-n", "-1"], "--max-n"),
    (["cogenerate", "--max-shift", "-2"], "--max-shift"),
])
def test_negative_search_bound_exits_2_naming_the_flag(tmp_path, capsys, argv, flag):
    mod = tmp_path / "f1.json"
    run_cli(capsys, "build", "free", "--n", "1", "--window", "4", "-o", str(mod))
    code, payload = run_cli(capsys, argv[0], str(mod), *argv[1:])
    assert code == 2 and payload["type"] == "ValueError"
    assert payload["error"].startswith(f"{flag}:")


def test_verify_paper_has_no_window_flag(capsys):
    """Suites pin their windows, so ``--window`` is an unknown flag."""
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "--suite", "roundtrip", "--window", "3"])
    assert exc.value.code == 2
    assert "--window" in capsys.readouterr().err


def _free_doc(tmp_path, capsys):
    """The JSON document of F(1) on the window 2."""
    path = tmp_path / "f1.json"
    code, _ = run_cli(capsys, "build", "free", "--n", "1", "--window", "2", "-o", str(path))
    assert code == 0
    return json.loads(path.read_text())


def test_validate_deep_prints_what_validate_prints(tmp_path, capsys, morphism_builds):
    """``--deep`` adds no work: on F(2) over (10,) and on a module with a
    broken swap it builds no morphism and prints the bytes and exit code of
    plain ``validate``."""
    f2 = tmp_path / "f2.json"
    run_cli(capsys, "build", "free", "--n", "2", "--window", "10", "-o", str(f2))
    doc = _free_doc(tmp_path, capsys)
    item = next(a for a in doc["actions"] if a["gen"] == {"swap": [1, 1], "at": "(2)"})
    item["matrix"] = [["0", "1"], ["1", "1"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for path, want in ((f2, 0), (bad, 1)):
        runs = []
        for argv in (["validate", str(path)], ["validate", "--deep", str(path)]):
            runs.append((main(argv), capsys.readouterr().out))
        assert runs[0] == runs[1] and runs[0][0] == want
    assert morphism_builds == []


@pytest.mark.parametrize("field,start", [
    ("at", "presentation.generators[0].at: expected 1 coordinates, got 2"),
    ("relation_bound", "presentation.relation_bound: expected 1 coordinates, got 2"),
], ids=["generator-at", "relation-bound"])
@pytest.mark.parametrize("argv", [["validate"], ["endring"], ["homology", "--S", "1"]],
                         ids=["validate", "endring", "homology"])
def test_presentation_object_of_the_wrong_arity_exits_2(tmp_path, capsys, field, start, argv):
    doc = _free_doc(tmp_path, capsys)
    if field == "at":
        doc["presentation"]["generators"][0]["at"] = "(1,1)"
    else:
        doc["presentation"]["relation_bound"] = "(1,1)"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, payload = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 2 and payload["type"] == "ValueError"
    assert payload["error"] == start


@pytest.mark.parametrize("extra", [{"swap": [1, 1]}, {"grp": 0}, {"swap": [1, 1], "grp": 0}],
                         ids=["incl-swap", "incl-grp", "all-three"])
def test_action_naming_two_generator_kinds_exits_2(tmp_path, capsys, extra):
    doc = _free_doc(tmp_path, capsys)
    idx, item = next((i, a) for i, a in enumerate(doc["actions"]) if "incl" in a["gen"])
    item["gen"].update(extra)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, payload = run_cli(capsys, "validate", str(path))
    assert code == 2 and payload["type"] == "ValueError"
    assert payload["error"] == f"actions[{idx}].gen: expected exactly one of incl, swap, grp"


@pytest.mark.parametrize("command,files,rest", [
    ("endring", 1, []), ("homology", 1, ["--S", "1"]), ("torsion", 1, ["--S", "1"]),
    ("shift-theorem", 1, ["--S", "1"]), ("cogenerate", 1, []),
    ("shift", 1, ["-i", "1", "-o", "out.json"]), ("build tensor", 2, ["-o", "out.json"]),
], ids=["endring", "homology", "torsion", "shift-theorem", "cogenerate", "functor", "tensor"])
def test_a_module_file_that_breaks_a_relation_exits_2(tmp_path, capsys, monkeypatch,
                                                       command, files, rest):
    """F(1) with the swap at (2) set to diag(2, 1), which squares to no
    identity: each command that reads a module file names the failure that
    ``validate`` reports first, and exits 2 with nothing written."""
    doc = _free_doc(tmp_path, capsys)
    item = next(a for a in doc["actions"] if a["gen"] == {"swap": [1, 1], "at": "(2)"})
    item["matrix"] = [["2", "0"], ["0", "1"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    code, payload = run_cli(capsys, *command.split(), *[str(bad)] * files, *rest)
    assert code == 2 and payload["type"] == "ValueError"
    assert payload["error"] == f"{bad}: swap (1,1) at (2,) is not an involution"
    assert not (tmp_path / "out.json").exists()
