"""Mutated algebra and map files through every CLI subcommand.

Whatever is wrong with an input file (a wrong type, a bool, a float, an
extra level of nesting, a missing key), the CLI must answer with its exit
code contract: 0 pass, 1 check failed, 2 bad input, and never a traceback.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from jordankit import cli

# a replacement for a value, or None to delete its key
MUTATIONS = [
    "x", "", "1/0", None, True, False, 0, -1, 7, 10**30, 0.5, 2.0, -0.0,
    float("nan"), [], {}, "nest-list", "nest-dict", "delete",
]


def paths(node, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from paths(value, prefix + (i,))


def mutate(doc, path, how):
    doc = json.loads(json.dumps(doc))
    if not path:
        return doc if how == "delete" else mutated_value(doc, how)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if how == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = mutated_value(parent[path[-1]], how)
    return doc


def mutated_value(value, how):
    if how == "nest-list":
        return [value]
    if how == "nest-dict":
        return {"value": value}
    return how


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for which in ("m2", "jordanified-m2"):
        out = str(root / f"{which}.alg")
        assert cli.run(["example", which, "--field", "p=3", "--out", out]).exit_code == 0
    algebra = json.loads((root / "jordanified-m2.alg").read_text())
    identity = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    maps = {
        "matrix": {"matrix": identity},
        "entries": {"entries": [{"in": f"{a},{b},0,0", "out": f"{a},{b},0,0"}
                                for a in range(3) for b in range(3)]},
    }
    return root, algebra, maps


def algebra_commands(alg, other, map_path):
    return [
        ["check", alg, "--require", "jordan"],
        ["idempotents", alg],
        ["peirce", alg, "--idempotent", "1,0,0,0"],
        ["check-map", alg, other, map_path, "--n", "2"],
        ["check-derivation", alg, map_path, "--n", "2"],
        ["inner-derivation", alg, "--y", "1,0,0,0", "--z", "0,1,0,0"],
        ["reduce-derivation", alg, map_path, "--idempotent", "1,0,0,0", "--n", "2"],
        ["audit", alg, "--n", "2", "--mode", "maps", "--budget-nodes", "20"],
    ]


def map_commands(alg, map_path):
    return [
        ["check-map", alg, alg, map_path, "--n", "2"],
        ["check-derivation", alg, map_path, "--n", "2"],
        ["reduce-derivation", alg, map_path, "--idempotent", "1,0,0,0", "--n", "2"],
    ]


def exit_code(monkeypatch, capsys, argv):
    return exit_and_stderr(monkeypatch, capsys, argv)[0]


def exit_and_stderr(monkeypatch, capsys, argv):
    monkeypatch.setattr("sys.argv", ["jordankit", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return exc.value.code, err


def assert_bad_input(monkeypatch, capsys, argv):
    """argv exits 2 with one 'error:' line on stderr."""
    code, err = exit_and_stderr(monkeypatch, capsys, argv)
    assert code == 2, argv
    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data(), st.sampled_from(MUTATIONS))
def test_mutated_algebra_file_keeps_exit_contract(inputs, monkeypatch, capsys, data, how):
    root, algebra, maps = inputs
    path = data.draw(st.sampled_from(sorted(paths(algebra), key=repr)))
    bad = root / "mutated.alg"
    bad.write_text(json.dumps(mutate(algebra, path, how)))
    map_path = root / "identity.map"
    map_path.write_text(json.dumps(maps["matrix"]))
    for argv in algebra_commands(str(bad), str(root / "m2.alg"), str(map_path)):
        assert exit_code(monkeypatch, capsys, argv) in (0, 1, 2), (path, how, argv)


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data(), st.sampled_from(["matrix", "entries"]), st.sampled_from(MUTATIONS))
def test_mutated_map_file_keeps_exit_contract(inputs, monkeypatch, capsys, data, kind, how):
    root, _, maps = inputs
    path = data.draw(st.sampled_from(sorted(paths(maps[kind]), key=repr)))
    bad = root / "mutated.map"
    bad.write_text(json.dumps(mutate(maps[kind], path, how)))
    for argv in map_commands(str(root / "jordanified-m2.alg"), str(bad)):
        assert exit_code(monkeypatch, capsys, argv) in (0, 1, 2), (path, how, argv)


# bytes that are not UTF-8, an integer past the interpreter's digit limit,
# and nesting past the decoder's recursion limit
UNDECODABLE = [
    b"\xff\xfe\x00bad",
    b'{"dim": ' + b"1" * 5000 + b"}",
    b"[" * 100_000 + b"]" * 100_000,
]
UNDECODABLE_IDS = ["not-utf8", "long-int", "deep-nesting"]


@pytest.mark.parametrize("content", UNDECODABLE, ids=UNDECODABLE_IDS)
def test_undecodable_algebra_file_exits_2(inputs, monkeypatch, capsys, content):
    root, _, maps = inputs
    bad = root / "undecodable.alg"
    bad.write_bytes(content)
    good = str(root / "jordanified-m2.alg")
    map_path = root / "identity.map"
    map_path.write_text(json.dumps(maps["matrix"]))
    argvs = algebra_commands(str(bad), good, str(map_path))
    argvs.append(["check-map", good, str(bad), str(map_path), "--n", "2"])
    for argv in argvs:
        assert_bad_input(monkeypatch, capsys, argv)


@pytest.mark.parametrize("content", UNDECODABLE, ids=UNDECODABLE_IDS)
def test_undecodable_map_file_exits_2(inputs, monkeypatch, capsys, content):
    root = inputs[0]
    bad = root / "undecodable.map"
    bad.write_bytes(content)
    for argv in map_commands(str(root / "jordanified-m2.alg"), str(bad)):
        assert_bad_input(monkeypatch, capsys, argv)


def test_algebra_name_with_lone_surrogate_exits_2(inputs, monkeypatch, capsys):
    root, algebra, maps = inputs
    bad = root / "surrogate.alg"
    bad.write_text(json.dumps({**algebra, "name": "x\ud800"}))  # the JSON escape \ud800
    assert "\\ud800" in bad.read_text()
    map_path = root / "identity.map"
    map_path.write_text(json.dumps(maps["matrix"]))
    for argv in algebra_commands(str(bad), str(root / "m2.alg"), str(map_path)):
        assert_bad_input(monkeypatch, capsys, argv)
