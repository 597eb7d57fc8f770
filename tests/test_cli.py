import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jordankit
from jordankit import cli, load_algebra
from jordankit.cli import run

from conftest import EHZ_F3, INT_DIGIT_LIMIT


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for which, field, name in (
        ("m2", "rational", "m2_q"),
        ("jordanified-m2", "rational", "k_q"),
        ("jordanified-m2", "p=3", "k_f3"),
        ("jordanified-m2", "p=5", "k_f5"),
    ):
        out = tmp_path / f"{name}.alg"
        report = run(["example", which, "--field", field, "--out", str(out)])
        assert report.exit_code == 0
        paths[name] = str(out)
    return paths


def output_of(capsys):
    return capsys.readouterr().out


def test_example_roundtrip(files, tmp_path):
    from jordankit import jordanify, matrix_units_algebra, prime_field

    loaded = load_algebra(files["k_f3"])
    built = jordanify(matrix_units_algebra(prime_field(3)))
    assert loaded.table == built.table
    assert loaded.basis_names == built.basis_names
    out = tmp_path / "m2_f3.alg"
    assert run(["example", "m2", "--field", "p=3", "--out", str(out)]).exit_code == 0
    assert load_algebra(out).table == matrix_units_algebra(prime_field(3)).table


def test_check_exit_codes(files, capsys):
    report = run(["check", files["m2_q"]])
    out = output_of(capsys)
    assert report.exit_code == 0
    assert "commutative: false" in out
    assert "associative: true" in out
    report = run(["check", files["m2_q"], "--require", "jordan"])
    assert report.exit_code == 1
    report = run(["check", files["m2_q"], "--require", "associative"])
    assert report.exit_code == 0
    report = run(["check", files["k_q"], "--require", "jordan"])
    assert report.exit_code == 0


def test_check_report_verdict_invariant(files):
    report = run(["check", files["m2_q"], "--require", "jordan"])
    assert report.exit_code == (0 if all(p for _, p, _ in report.verdicts) else 1)
    assert report.command == "check"


def test_peirce_report(files, capsys):
    report = run(["peirce", files["k_q"], "--idempotent", "1,0,0,0"])
    out = output_of(capsys)
    assert report.exit_code == 0
    assert "dims: J1=1 Jhalf=2 J0=1" in out
    assert out.count(": pass") == 8  # five relations + three conditions
    assert "result: PASS" in out


def test_peirce_requires_symmetrized_for_m2(files, capsys):
    report = run(["peirce", files["m2_q"], "--idempotent", "1,0,0,0"])
    assert report.exit_code == 2
    report = run(["peirce", files["m2_q"], "--idempotent", "1,0,0,0", "--symmetrized"])
    assert report.exit_code == 0


def test_noncommutative_refusals_name_cli_options(tmp_path, capsys):
    # the library's refusal names its allow_noncommutative keyword; the
    # CLI names its own option, or says that the command has none
    m3 = str(tmp_path / "m3.alg")
    zero = tmp_path / "zero.map"
    zero.write_text(json.dumps({"matrix": [["0"] * 4] * 4}))
    run(["example", "m2", "--field", "p=3", "--out", m3])
    capsys.readouterr()
    for argv, line in (
        (["peirce", m3, "--idempotent", "1,0,0,0"],
         "pass --symmetrized to decompose with the symmetrized operator"),
        (["audit", m3, "--n", "2", "--mode", "maps", "--idempotent", "1,0,0,0"],
         "audit needs a commutative algebra"),
        (["audit", m3, "--n", "2", "--mode", "derivations"],
         "audit needs a commutative algebra"),
        (["reduce-derivation", m3, str(zero), "--idempotent", "1,0,0,0", "--n", "2"],
         "reduce-derivation needs a commutative algebra"),
    ):
        assert run(argv).exit_code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: algebra is noncommutative; {line}"]


def test_peirce_bad_idempotent(files):
    report = run(["peirce", files["k_q"], "--idempotent", "0,1,0,0"])
    assert report.exit_code == 2
    report = run(["peirce", files["k_q"], "--idempotent", "1,0,1"])
    assert report.exit_code == 2


def test_idempotents_exhaustive(files, capsys):
    report = run(["idempotents", files["k_f3"], "--exhaustive"])
    out = output_of(capsys)
    assert report.exit_code == 0
    assert "count: 13" in out
    assert "idempotent: 1,0,0,1 class=trivial_identity" in out


def test_check_map_and_derivation(files, tmp_path, capsys):
    transpose = {"matrix": [["1", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "1", "0", "0"], ["0", "0", "0", "1"]]}
    map_path = tmp_path / "transpose.map"
    map_path.write_text(json.dumps(transpose))
    report = run(["check-map", files["k_f3"], files["k_f3"], str(map_path), "--n", "2"])
    out = output_of(capsys)
    assert report.exit_code == 0
    assert "verdict bijective: pass" in out
    assert "verdict 2-multiplicative (canonical): pass" in out
    report = run(
        ["check-map", files["k_f3"], files["k_f3"], str(map_path), "--n", "2", "--all-trees"]
    )
    assert report.exit_code == 0
    report = run(["check-derivation", files["k_f3"], str(map_path), "--n", "2"])
    assert report.exit_code == 1  # transpose is multiplicative, not a derivation


def test_check_map_failing(files, tmp_path, capsys):
    doubling = {"matrix": [["2", "0", "0", "0"], ["0", "2", "0", "0"], ["0", "0", "2", "0"], ["0", "0", "0", "2"]]}
    map_path = tmp_path / "double.map"
    map_path.write_text(json.dumps(doubling))
    report = run(["check-map", files["k_f5"], files["k_f5"], str(map_path), "--n", "2"])
    out = output_of(capsys)
    assert report.exit_code == 1
    assert "verdict 2-multiplicative (canonical): fail" in out
    assert "witness=" in out


def test_inner_derivation_report(files, capsys):
    report = run(["inner-derivation", files["k_q"], "--y", "0,1,0,0", "--z", "4,0,0,0"])
    out = output_of(capsys)
    assert report.exit_code == 0
    lines = out.splitlines()
    rows = [l.split(": ")[1] for l in lines if l.startswith("row: ")]
    # column 0 is the image of e11: 3*e10
    assert [r.split(",")[0] for r in rows] == ["0", "3", "0", "0"]
    assert "verdict 2-derivation (canonical): pass" in out


def test_reduce_derivation_cli(files, tmp_path, capsys):
    import numpy as np

    from jordankit import (
        DerivationTable,
        inner_derivation,
        jordanify,
        matrix_units_algebra,
        prime_field,
        save_map_table,
    )

    k5 = jordanify(matrix_units_algebra(prime_field(5)))
    d = inner_derivation(k5, k5.basis_element(1), k5.basis_element(3))
    d_table = DerivationTable(k5, table=d.index_table())
    map_path = tmp_path / "innerd.map"
    save_map_table(d_table, map_path)
    report = run(
        ["reduce-derivation", files["k_f5"], str(map_path), "--idempotent", "1,0,0,0", "--n", "2"]
    )
    out = output_of(capsys)
    assert report.exit_code == 0
    assert "verdict d(e) in Jhalf: pass" in out
    assert "verdict reduced derivation vanishes at e: pass" in out
    assert "verdict reduced derivation preserves components: pass" in out


def test_audit_maps(files, capsys):
    report = run(["audit", files["k_f3"], "--n", "2", "--mode", "maps"])
    out = output_of(capsys)
    assert report.exit_code == 0
    assert "witnesses: 48" in out
    assert "exhausted: true" in out
    assert "conditions: i=pass ii=pass iii=pass" in out
    assert "verdict all_additive: pass" in out


def test_audit_derivations(files, capsys):
    report = run(["audit", files["k_f3"], "--n", "2", "--mode", "derivations"])
    out = output_of(capsys)
    assert report.exit_code == 0
    assert "witnesses: 27" in out
    assert "verdict d(e) in Jhalf for all witnesses: pass" in out


@pytest.mark.parametrize("mode,witnesses", [("maps", 48), ("derivations", 27)])
def test_audit_higher_degrees(files, capsys, mode, witnesses):
    # n = 4 and 5 find the n = 2 witnesses; each is additive, so it is
    # re-verified on generators and basis tuples, not on 81^n tuples
    for n in ("4", "5"):
        report = run(["audit", files["k_f3"], "--n", n, "--mode", mode])
        out = output_of(capsys)
        assert report.exit_code == 0
        assert f"witnesses: {witnesses}" in out
        assert "exhausted: true" in out and "result: PASS" in out


@pytest.mark.parametrize("command", ["check-map", "check-derivation"])
def test_full_scan_beyond_budget_exits_2(files, tmp_path, capsys, command):
    # a table that is not additive is checked on every carrier tuple,
    # and at n = 5 that is 81^5 evaluations
    coords = [",".join(map(str, c)) for c in itertools.product(range(3), repeat=4)]
    images = coords.copy()
    images[1], images[2] = images[2], images[1]
    map_path = tmp_path / "swap.map"
    entries = [{"in": x, "out": y} for x, y in zip(coords, images)]
    map_path.write_text(json.dumps({"entries": entries}))
    algebras = [files["k_f3"]] * (2 if command == "check-map" else 1)
    report = run([command, *algebras, str(map_path), "--n", "5"])
    assert report.exit_code == 2
    assert "3486784401 evaluations exceed budget 100000000" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check-map", "check-derivation"])
def test_basis_tuples_beyond_budget_exit_2(files, tmp_path, capsys, command):
    # the identity and the zero map are additive, so they skip the full
    # scan, but at n = 16 their basis tuples are 4^16 evaluations
    coords = [",".join(map(str, c)) for c in itertools.product(range(3), repeat=4)]
    images = coords if command == "check-map" else ["0,0,0,0"] * len(coords)
    map_path = tmp_path / "additive.map"
    entries = [{"in": x, "out": y} for x, y in zip(coords, images)]
    map_path.write_text(json.dumps({"entries": entries}))
    algebras = [files["k_f3"]] * (2 if command == "check-map" else 1)
    report = run([command, *algebras, str(map_path), "--n", "16"])
    assert report.exit_code == 2
    assert "4294967296 evaluations exceed budget 100000000" in capsys.readouterr().err


def test_all_trees_budget_is_charged_before_any_tree_is_built(files, tmp_path, capsys):
    # Catalan(n - 1) trees of 4^n basis tuples each; listing the 742900
    # trees at n = 14 already took longer than a minute
    coords = [",".join(map(str, c)) for c in itertools.product(range(3), repeat=4)]
    map_path = tmp_path / "identity.map"
    map_path.write_text(json.dumps({"entries": [{"in": x, "out": x} for x in coords]}))
    for n, charge in (("12", 986265419776), ("14", 199420700262400), ("32", None)):
        report = run(["check-map", files["k_f3"], files["k_f3"], str(map_path), "--n", n,
                      "--all-trees"])
        assert report.exit_code == 2
        err = capsys.readouterr().err
        assert "evaluations exceed budget 100000000" in err
        assert charge is None or f"{charge} evaluations" in err


@pytest.mark.parametrize("n", ["33", "1000"])
@pytest.mark.parametrize("command", ["check-map", "check-derivation", "reduce-derivation",
                                     "audit"])
def test_degree_beyond_max_exits_2(files, tmp_path, capsys, monkeypatch, command, n):
    # a grid lays each slot on its own numpy axis, and a tree of degree
    # 1000 recurses past the interpreter's limit
    coords = [",".join(map(str, c)) for c in itertools.product(range(3), repeat=4)]
    map_path = tmp_path / "zero.map"
    map_path.write_text(json.dumps({"entries": [{"in": x, "out": "0,0,0,0"} for x in coords]}))
    argv = {
        "check-map": [files["k_f3"], files["k_f3"], str(map_path)],
        "check-derivation": [files["k_f3"], str(map_path)],
        "reduce-derivation": [files["k_f3"], str(map_path), "--idempotent", "1,0,0,0"],
        "audit": [files["k_f3"], "--mode", "derivations" if n == "33" else "maps"],
    }[command]
    monkeypatch.setattr(sys, "argv", ["jordankit", command, *argv, "--n", n])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "<= 32" in err[0]


@pytest.mark.parametrize("command", ["check-map", "check-derivation"])
def test_dim_1_identity_at_max_degree(tmp_path, capsys, command):
    # b0 b0 = 0 over F3: the identity is multiplicative and a derivation
    # of every degree, decided here on one basis tuple of 32 slots
    alg = tmp_path / "null.alg"
    alg.write_text(json.dumps({"field": {"type": "prime", "p": 3}, "dim": 1, "basis": ["b0"],
                               "products": []}))
    map_path = tmp_path / "identity.map"
    map_path.write_text(json.dumps({"entries": [{"in": x, "out": x} for x in "012"]}))
    algebras = [str(alg)] * (2 if command == "check-map" else 1)
    assert run([command, *algebras, str(map_path), "--n", "32"]).exit_code == 0
    assert "result: PASS" in output_of(capsys)


def f3_unit_identity(tmp_path):
    """Paths of F3 itself (b0 b0 = b0) and of its identity map."""
    alg = tmp_path / "f3.alg"
    alg.write_text(json.dumps({"name": "f3", "field": {"type": "prime", "p": 3}, "dim": 1,
                               "basis": ["b0"], "products": [{"i": 0, "j": 0, "k": 0, "c": "1"}]}))
    map_path = tmp_path / "identity.map"
    map_path.write_text(json.dumps({"matrix": [["1"]]}))
    return str(alg), str(map_path)


@pytest.mark.parametrize("n", [20, 32])
def test_additive_failure_beyond_the_scan_budget_exits_1(tmp_path, capsys, n):
    # 3^n carrier tuples exceed the budget, but the one basis tuple
    # (b0, ..., b0) already refutes the identity: n b0 != b0 over F3
    alg, map_path = f3_unit_identity(tmp_path)
    assert run(["check-derivation", alg, map_path, "--n", str(n)]).exit_code == 1
    out = output_of(capsys)
    assert f"verdict {n}-derivation (canonical): fail witness={';'.join(['1'] * n)}\n" in out
    assert out.endswith("result: FAIL\n")


@pytest.mark.parametrize("n", [2, 3])
def test_additive_failure_within_the_scan_budget_report(tmp_path, capsys, n):
    alg, map_path = f3_unit_identity(tmp_path)
    assert run(["check-derivation", alg, map_path, "--n", str(n)]).exit_code == 1
    assert output_of(capsys) == (
        "command: check-derivation\n"
        "algebra: f3 dim=1 field=F3\n"
        f"verdict {n}-derivation (canonical): fail witness={';'.join(['1'] * n)}\n"
        "additive: true\n"
        "result: FAIL\n"
    )


def test_audit_budget_flags(files, capsys):
    report = run(
        ["audit", files["k_f3"], "--n", "2", "--mode", "maps", "--budget-witnesses", "3"]
    )
    out = output_of(capsys)
    assert report.exit_code == 0
    assert "witnesses: 3" in out
    assert "exhausted: false" in out


def test_audit_explicit_idempotent(files, capsys):
    report = run(["audit", files["k_f3"], "--n", "2", "--mode", "maps", "--idempotent", "1,0,0,0"])
    out = output_of(capsys)
    assert report.exit_code == 0
    assert "idempotent: 1,0,0,0" in out


def test_map_entry_without_out_exits_2(files, tmp_path, capsys):
    entries = [{"in": "0,0,0,0", "out": "0,0,0,0"}, {"in": "0,0,0,1"}]
    map_path = tmp_path / "no_out.map"
    map_path.write_text(json.dumps({"entries": entries}))
    report = run(["check-derivation", files["k_f3"], str(map_path), "--n", "2"])
    assert report.exit_code == 2
    assert "'out'" in capsys.readouterr().err


def test_rational_zero_denominator_exits_2(files, tmp_path, capsys):
    data = json.loads(open(files["k_q"]).read())
    data["products"][0]["c"] = "1/0"
    path = tmp_path / "zero_denominator.alg"
    path.write_text(json.dumps(data))
    report = run(["check", str(path)])
    assert report.exit_code == 2
    assert "1/0" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    report = run(["check", "/nonexistent/file.alg"])
    assert report.exit_code == 2


def test_check_char2_exits_2(tmp_path):
    out = tmp_path / "m2_f2.alg"
    assert run(["example", "m2", "--field", "p=2", "--out", str(out)]).exit_code == 0
    assert run(["check", str(out)]).exit_code == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["peirce"])  # missing required arguments
    assert exc.value.code == 2


def test_bad_field_spec_exits_2(tmp_path):
    report = run(["example", "m2", "--field", "p=4", "--out", str(tmp_path / "x.alg")])
    assert report.exit_code == 2


def test_report_determinism(files, capsys):
    for argv in (
        ["peirce", files["k_q"], "--idempotent", "1,0,0,0"],
        ["audit", files["k_f3"], "--n", "2", "--mode", "maps"],
        ["check", files["m2_q"]],
    ):
        run(argv)
        first = output_of(capsys)
        run(argv)
        second = output_of(capsys)
        assert first == second


# map files as matrices of images: column j is the image of basis element j
PIN_MAPS = {
    "transpose": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    "double": [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
    # inner_derivation(K/F5, e10, e00): the derivation that reduce-derivation reduces
    "inner": [[0, 0, 2, 0], [3, 0, 0, 2], [0, 0, 0, 0], [0, 0, 3, 0]],
}

# the whole stdout and the exit code of one report per command and option;
# "{name}" is the path of the file of that name
FULL_OUTPUTS = {
    "example": (["example", "jordanified-m2", "--field", "p=3", "--out", "{out}"], 0, """\
command: example
wrote: {out} (jordanified-m2 over F3)
result: PASS
"""),
    "check": (["check", "{k_q}"], 0, """\
command: check
algebra: jordanified-m2 dim=4 field=Q
commutative: true
associative: false witness=1,0,0,0;1,0,0,0;0,1,0,0
flexible: true
jordan: true
result: PASS
"""),
    "check-require": (["check", "{m2_q}", "--require", "jordan"], 1, """\
command: check
algebra: m2 dim=4 field=Q
commutative: false witness=1,0,0,0;0,1,0,0
associative: true
flexible: true
jordan: false witness=1,0,0,0;0,1,0,0
verdict require jordan: fail
result: FAIL
"""),
    "idempotents": (["idempotents", "{k_f3}"], 0, """\
command: idempotents
algebra: jordanified-m2 dim=4 field=F3
mode: heuristic
count: 7
idempotent: 0,0,0,1 class=nontrivial
idempotent: 0,0,1,1 class=nontrivial
idempotent: 0,1,0,1 class=nontrivial
idempotent: 1,0,0,0 class=nontrivial
idempotent: 1,0,0,1 class=trivial_identity
idempotent: 1,0,1,0 class=nontrivial
idempotent: 1,1,0,0 class=nontrivial
result: PASS
"""),
    "idempotents-exhaustive": (["idempotents", "{k_f3}", "--exhaustive"], 0, """\
command: idempotents
algebra: jordanified-m2 dim=4 field=F3
mode: exhaustive
count: 13
idempotent: 0,0,0,1 class=nontrivial
idempotent: 0,0,1,1 class=nontrivial
idempotent: 0,0,2,1 class=nontrivial
idempotent: 0,1,0,1 class=nontrivial
idempotent: 0,2,0,1 class=nontrivial
idempotent: 1,0,0,0 class=nontrivial
idempotent: 1,0,0,1 class=trivial_identity
idempotent: 1,0,1,0 class=nontrivial
idempotent: 1,0,2,0 class=nontrivial
idempotent: 1,1,0,0 class=nontrivial
idempotent: 1,2,0,0 class=nontrivial
idempotent: 2,1,1,2 class=nontrivial
idempotent: 2,2,2,2 class=nontrivial
result: PASS
"""),
    "peirce": (["peirce", "{k_q}", "--idempotent", "1,0,0,0"], 0, """\
command: peirce
algebra: jordanified-m2 dim=4 field=Q
idempotent: 1,0,0,0 class=nontrivial
dims: J1=1 Jhalf=2 J0=1
basis J1: 1,0,0,0
basis Jhalf: 0,1,0,0;0,0,1,0
basis J0: 0,0,0,1
verdict relation J0*J0 <= J0: pass
verdict relation J1*J1 <= J1: pass
verdict relation J1*J0 = 0: pass
verdict relation (J1+J0)*Jhalf <= Jhalf: pass
verdict relation Jhalf*Jhalf <= J1+J0: pass
verdict condition (i): pass
verdict condition (ii): pass
verdict condition (iii): pass
result: PASS
"""),
    "peirce-symmetrized": (["peirce", "{m2_q}", "--idempotent", "1,0,0,0", "--symmetrized"], 0, """\
command: peirce
algebra: m2 dim=4 field=Q
idempotent: 1,0,0,0 class=nontrivial
dims: J1=1 Jhalf=2 J0=1
basis J1: 1,0,0,0
basis Jhalf: 0,1,0,0;0,0,1,0
basis J0: 0,0,0,1
verdict relation J0*J0 <= J0: pass
verdict relation J1*J1 <= J1: pass
verdict relation J1*J0 = 0: pass
verdict relation (J1+J0)*Jhalf <= Jhalf: pass
verdict relation Jhalf*Jhalf <= J1+J0: pass
verdict condition (i): pass
verdict condition (ii): pass
verdict condition (iii): pass
result: PASS
"""),
    "check-map": (["check-map", "{k_f3}", "{k_f3}", "{transpose}", "--n", "2"], 0, """\
command: check-map
algebra: jordanified-m2 dim=4 field=F3
algebra: jordanified-m2 dim=4 field=F3
verdict bijective: pass
verdict 2-multiplicative (canonical): pass
additive: true
result: PASS
"""),
    "check-map-all-trees": (
        ["check-map", "{k_f3}", "{k_f3}", "{transpose}", "--n", "2", "--all-trees"], 0, """\
command: check-map
algebra: jordanified-m2 dim=4 field=F3
algebra: jordanified-m2 dim=4 field=F3
verdict bijective: pass
verdict 2-multiplicative (all_trees): pass
additive: true
result: PASS
"""),
    "check-map-fail": (["check-map", "{k_f5}", "{k_f5}", "{double}", "--n", "2"], 1, """\
command: check-map
algebra: jordanified-m2 dim=4 field=F5
algebra: jordanified-m2 dim=4 field=F5
verdict bijective: pass
verdict 2-multiplicative (canonical): fail witness=0,0,0,1;0,0,0,1
additive: true
result: FAIL
"""),
    "inner-derivation": (["inner-derivation", "{k_q}", "--y", "0,1,0,0", "--z", "4,0,0,0"], 0, """\
command: inner-derivation
algebra: jordanified-m2 dim=4 field=Q
y: 0,1,0,0
z: 4,0,0,0
row: 0,0,-3,0
row: 3,0,0,-3
row: 0,0,0,0
row: 0,0,3,0
verdict 2-derivation (canonical): pass
result: PASS
"""),
    "reduce-derivation": (
        ["reduce-derivation", "{k_f5}", "{inner}", "--idempotent", "1,0,0,0", "--n", "2"], 0, """\
command: reduce-derivation
algebra: jordanified-m2 dim=4 field=F5
idempotent: 1,0,0,0
verdict 2-derivation (canonical): pass
d(e): 0,3,0,0
verdict d(e) in Jhalf: pass
verdict reduced derivation vanishes at e: pass
verdict reduced derivation preserves components: pass
result: PASS
"""),
    "reduce-derivation-fail": (
        ["reduce-derivation", "{k_f3}", "{transpose}", "--idempotent", "1,0,0,0", "--n", "2"], 1, """\
command: reduce-derivation
algebra: jordanified-m2 dim=4 field=F3
idempotent: 1,0,0,0
verdict 2-derivation (canonical): fail
result: FAIL
"""),
    "audit-maps": (["audit", "{k_f3}", "--n", "2", "--mode", "maps"], 0, """\
command: audit
algebra: jordanified-m2 dim=4 field=F3
idempotent: 0,0,0,1 (auto)
conditions: i=pass ii=pass iii=pass
mode: maps n=2
witnesses: 48
exhausted: true
verdict all_additive: pass
result: PASS
"""),
    "audit-derivations": (["audit", "{k_f3}", "--n", "2", "--mode", "derivations"], 0, """\
command: audit
algebra: jordanified-m2 dim=4 field=F3
idempotent: 0,0,0,1 (auto)
conditions: i=pass ii=pass iii=pass
mode: derivations n=2
witnesses: 27
exhausted: true
verdict all_additive: pass
verdict d(e) in Jhalf for all witnesses: pass
result: PASS
"""),
    "audit-budget-witnesses": (
        ["audit", "{k_f3}", "--n", "2", "--mode", "maps", "--budget-witnesses", "3"], 0, """\
command: audit
algebra: jordanified-m2 dim=4 field=F3
idempotent: 0,0,0,1 (auto)
conditions: i=pass ii=pass iii=pass
mode: maps n=2
witnesses: 3
exhausted: false
verdict all_additive: pass
result: PASS
"""),
}


@pytest.mark.parametrize("case", FULL_OUTPUTS)
def test_full_output(files, tmp_path, capsys, case):
    paths = {**files, "out": str(tmp_path / "out.alg")}
    for name, matrix in PIN_MAPS.items():
        path = tmp_path / f"{name}.map"
        path.write_text(json.dumps({"matrix": [[str(c) for c in row] for row in matrix]}))
        paths[name] = str(path)
    argv, code, out = FULL_OUTPUTS[case]
    assert run([arg.format(**paths) for arg in argv]).exit_code == code
    assert capsys.readouterr() == (out.format(**paths), "")


@pytest.mark.parametrize(
    "data", [{"entries": 5}, {"matrix": 5}, {"matrix": [5, 5, 5, 5]}]
)
def test_malformed_map_file_exits_2(files, tmp_path, capsys, data):
    map_path = tmp_path / "malformed.map"
    map_path.write_text(json.dumps(data))
    report = run(["check-derivation", files["k_f3"], str(map_path), "--n", "2"])
    assert report.exit_code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["products", "basis"])
def test_malformed_algebra_file_exits_2(files, tmp_path, key):
    data = json.loads(open(files["k_q"]).read())
    data[key] = 5
    path = tmp_path / "malformed.alg"
    path.write_text(json.dumps(data))
    assert run(["check", str(path)]).exit_code == 2


@pytest.mark.parametrize("key, value", [("basis", [1, 2, 3, 4]), ("name", 5)])
def test_algebra_file_with_non_string_names_exits_2(files, tmp_path, capsys, key, value):
    data = json.loads(open(files["k_q"]).read())
    data[key] = value
    path = tmp_path / "malformed.alg"
    path.write_text(json.dumps(data))
    assert run(["check", str(path)]).exit_code == 2
    assert "must be a string" in capsys.readouterr().err


@pytest.mark.parametrize(
    "dim, entry",
    [
        (2, {"i": True, "j": 0, "k": 0}),
        (2, {"i": 0, "j": 0, "k": False}),
        (True, {"i": 0, "j": 0, "k": 0}),
    ],
)
def test_algebra_file_with_bool_index_exits_2(tmp_path, dim, entry):
    # a bool is an int in Python: read as an integer, true is 1 and false 0
    data = {
        "field": {"type": "prime", "p": 3},
        "dim": dim,
        "basis": ["u", "v"][: int(dim)],
        "products": [{**entry, "c": "1"}],
    }
    path = tmp_path / "bool.alg"
    path.write_text(json.dumps(data))
    assert run(["check", str(path)]).exit_code == 2


def test_non_numeric_field_spec_exits_2(tmp_path):
    report = run(["example", "m2", "--field", "p=abc", "--out", str(tmp_path / "x.alg")])
    assert report.exit_code == 2


def one_error_line(capsys) -> str:
    """The one line of stderr, which must be an error: line; stdout is empty."""
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ")
    return line


def one_dim_algebra(tmp_path, field: dict, c: str) -> str:
    """The file of span(b0) over the field with b0 b0 = c b0."""
    path = tmp_path / "one_dim.alg"
    path.write_text(json.dumps({
        "field": field, "dim": 1, "basis": ["b0"],
        "products": [{"i": 0, "j": 0, "k": 0, "c": c}],
    }))
    return str(path)


# 2^61 - 1, a prime far past the 2^31 bound
MERSENNE_61 = 2305843009213693951


def test_huge_prime_modulus_exits_2_at_once(tmp_path, capsys):
    path = one_dim_algebra(tmp_path, {"type": "prime", "p": MERSENNE_61}, "1")
    assert run(["check", path]).exit_code == 2
    assert "modulus too large" in one_error_line(capsys)
    out = tmp_path / "x.alg"
    assert run(["example", "m2", "--field", f"p={MERSENNE_61}", "--out", str(out)]).exit_code == 2
    assert "modulus too large" in one_error_line(capsys)
    assert not out.exists()


def test_long_modulus_is_counted_not_echoed(tmp_path, capsys):
    # 4000 digits are under the digit limit, so the file and the spec parse
    digits = "1" * 4000
    path = one_dim_algebra(tmp_path, {"type": "prime", "p": int(digits)}, "1")
    out = str(tmp_path / "x.alg")
    for argv in (["check", path], ["example", "m2", "--field", f"p={digits}", "--out", out]):
        assert run(argv).exit_code == 2
        line = one_error_line(capsys)
        assert "modulus too large: 4000 digits" in line
        assert len(line.encode()) < 200 and digits not in line


TEXT_5000 = "x" * 5000
ONE_DIM_F3 = {"field": {"type": "prime", "p": 3}, "dim": 1, "basis": ["b0"], "products": []}


@pytest.mark.parametrize("kind, data", [
    ("algebra", {**ONE_DIM_F3, "field": {"type": "prime", "p": -int("1" * 4000)}}),
    ("algebra", {**ONE_DIM_F3, "field": {"type": TEXT_5000}}),
    ("algebra", {**ONE_DIM_F3, "field": TEXT_5000}),
    ("algebra", {**ONE_DIM_F3, "dim": int("1" * 4000)}),
    ("algebra", {**ONE_DIM_F3, "basis": [TEXT_5000, "b1"]}),
    ("algebra", {**ONE_DIM_F3, "basis": [{TEXT_5000: 0}]}),
    ("algebra", {**ONE_DIM_F3, "name": [TEXT_5000]}),
    ("algebra", {**ONE_DIM_F3, "name": "\ud800" + TEXT_5000}),
    ("algebra", {**ONE_DIM_F3, "products": {TEXT_5000: 1}}),
    ("algebra", {**ONE_DIM_F3, "products": [{"i": 0, "j": 0, "k": 1, "c": "1", TEXT_5000: 0}]}),
    ("algebra", {**ONE_DIM_F3, "products": [{"i": 0, "j": 0, TEXT_5000: 0}]}),
    ("algebra", {**ONE_DIM_F3, "products": [{"i": 0, "j": 0, "k": 0, "c": TEXT_5000}]}),
    ("algebra", {**ONE_DIM_F3, "field": {"type": "rational"},
                 "products": [{"i": 0, "j": 0, "k": 0, "c": TEXT_5000}]}),
    ("map", {"entries": TEXT_5000}),
    ("map", {"entries": [{"in": 0, "out": 0, TEXT_5000: 0}]}),
    ("map", {"entries": [{"in": TEXT_5000}]}),
    ("map", {"matrix": [TEXT_5000]}),
    ("map", {"matrix": [[TEXT_5000] * 4] * 4}),
    ("field", TEXT_5000),
    # past the interpreter's integer digit limit, which json.dumps would refuse
    ("algebra-text", json.dumps(ONE_DIM_F3).replace('"dim": 1', '"dim": ' + "1" * 5000)),
], ids=["negative-p", "field-type", "field-spec", "dim", "basis", "basis-name", "name",
        "name-utf8", "products",
        "product-indices", "product-entry", "prime-scalar", "rational-scalar", "entries",
        "entry-keys", "entry-without-out", "matrix-rows", "matrix-scalar", "field-argv",
        "dim-digits"])
def test_long_input_is_cut_in_the_error_line(files, tmp_path, capsys, kind, data):
    # each message shows at most about 80 characters of what it echoes; the
    # file's path is long enough to be cut too
    path = tmp_path / ("d" * 60) / f"long.{kind}"
    path.parent.mkdir()
    path.write_text(data if kind == "algebra-text" else json.dumps(data))
    argv = {
        "algebra": ["check", str(path)],
        "algebra-text": ["check", str(path)],
        "map": ["check-derivation", files["k_f3"], str(path), "--n", "2"],
        "field": ["example", "m2", "--field", str(data), "--out", str(tmp_path / "x.alg")],
    }[kind]
    capsys.readouterr()
    assert run(argv).exit_code == 2
    line = one_error_line(capsys)
    assert len(line.encode()) < 200 and "characters)" in line


def test_structure_constants_past_the_cap_exit_2(tmp_path, capsys):
    path = tmp_path / "dim101.alg"
    path.write_text(json.dumps({
        "field": {"type": "prime", "p": 3}, "dim": 101,
        "basis": [f"b{i}" for i in range(101)], "products": [],
    }))
    assert run(["check", str(path)]).exit_code == 2
    assert "101^3" in one_error_line(capsys)


def test_long_path_is_cut_in_the_error_line(tmp_path, capsys):
    # past the file-name limit, open() fails; a 400-character path that
    # opens holds text that is not JSON
    bad = tmp_path / ("d" * 200) / ("d" * 200) / "bad.alg"
    bad.parent.mkdir(parents=True)
    bad.write_text("{not json")
    assert len(str(bad)) > 400
    for path in (str(tmp_path / ("a" * 3000)), str(bad)):
        assert run(["check", path]).exit_code == 2
        line = one_error_line(capsys)
        assert len(line.encode()) < 200 and "characters)" in line


LONG = "1" * (INT_DIGIT_LIMIT + 700)


@pytest.mark.skipif(INT_DIGIT_LIMIT == 0, reason="the interpreter has no integer digit limit")
def test_numbers_past_the_digit_limit_exit_2(files, tmp_path, capsys):
    for field, c in (
        ({"type": "prime", "p": 3}, LONG),
        ({"type": "rational"}, LONG),
        ({"type": "rational"}, "1/" + LONG),
    ):
        assert run(["check", one_dim_algebra(tmp_path, field, c)]).exit_code == 2
        line = one_error_line(capsys)
        assert f"a number of {sum(ch.isdigit() for ch in c)} digits" in line
        assert LONG not in line
    assert run(["peirce", files["k_f3"], "--idempotent", LONG]).exit_code == 2
    assert f"a number of {len(LONG)} digits" in one_error_line(capsys)
    report = run(["example", "m2", "--field", f"p={LONG}", "--out", str(tmp_path / "x.alg")])
    assert report.exit_code == 2
    assert f"a number of {len(LONG)} digits" in one_error_line(capsys)


def test_nonadditive_audit_exits_1(tmp_path, capsys):
    path = tmp_path / "ehz.alg"
    path.write_text(json.dumps(EHZ_F3))
    argv = ["audit", str(path), "--n", "2", "--mode", "maps", "--idempotent", "1,0,0",
            "--budget-witnesses", "50"]
    assert run(argv).exit_code == 1
    assert output_of(capsys) == "\n".join([
        "command: audit",
        "algebra: (unnamed) dim=3 field=F3",
        "idempotent: 1,0,0",
        "conditions: i=fail ii=fail iii=fail",
        "mode: maps n=2",
        "witnesses: 50",
        "exhausted: false",
        "verdict all_additive: fail",
        "result: FAIL",
    ]) + "\n"


def test_reduce_derivation_of_the_identity_at_n4_over_f3(files, tmp_path, capsys):
    # in characteristic 3 the identity is a 4-derivation (4 = 1), and
    # d(e) = e lies in J1, not Jhalf
    map_path = tmp_path / "id.map"
    identity = [[str(int(i == j)) for j in range(4)] for i in range(4)]
    map_path.write_text(json.dumps({"matrix": identity}))
    argv = ["reduce-derivation", files["k_f3"], str(map_path), "--idempotent", "1,0,0,0", "--n", "4"]
    assert run(argv).exit_code == 1
    assert output_of(capsys) == "\n".join([
        "command: reduce-derivation",
        "algebra: jordanified-m2 dim=4 field=F3",
        "idempotent: 1,0,0,0",
        "verdict 4-derivation (canonical): pass",
        "d(e): 1,0,0,0",
        "verdict d(e) in Jhalf: fail witness=1,0,0,0",
        "result: FAIL",
    ]) + "\n"


@pytest.mark.parametrize(
    "flag", [["--budget-nodes", "0"], ["--budget-seconds", "-1"], ["--budget-witnesses", "-1"]]
)
def test_audit_bad_budget_exits_2(files, flag):
    with pytest.raises(SystemExit) as exc:
        run(["audit", files["k_f3"], "--n", "2", "--mode", "maps", *flag])
    assert exc.value.code == 2


@pytest.mark.parametrize("data", [None, [], 5, "matrix"])
def test_map_file_not_an_object_exits_2(files, tmp_path, capsys, data):
    map_path = tmp_path / "not_an_object.map"
    map_path.write_text(json.dumps(data))
    report = run(["check-derivation", files["k_f3"], str(map_path), "--n", "2"])
    assert report.exit_code == 2
    assert "must hold a JSON object" in capsys.readouterr().err


def fresh_python(script, *args):
    """The JSON that script prints last, run in a new interpreter on this jordankit."""
    env = {**os.environ, "PYTHONPATH": str(Path(jordankit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


AUDIT_MODES = ("maps", "derivations")

# the prelude of each script below: cli.run(argv) -> (exit code, stdout)
RUN_CLI = """
import contextlib, io, json, sys
from jordankit import cli

def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(list(argv)).exit_code
    return code, buf.getvalue()
"""

STARTUP = RUN_CLI + """
alg = sys.argv[1]
numpy_free = {}
for argv in (["example", "jordanified-m2", "--field", "p=3", "--out", alg],
             ["check", alg], ["idempotents", alg], ["idempotents", alg, "--exhaustive"],
             ["peirce", alg, "--idempotent", "1,0,0,0"]):
    code, _ = run(*argv)
    numpy_free[" ".join(argv[:1] + argv[2:])] = (code, "numpy" not in sys.modules)
audit = run("audit", alg, "--n", "2", "--mode", "maps")
numpy_after_audit = "numpy" in sys.modules

import jordankit
from jordankit import carrier_of, MapTable, enumerate_n_derivations
try:
    jordankit.no_such_name
    unknown = "no AttributeError"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"numpy_free": numpy_free, "audit": audit,
                  "numpy_after_audit": numpy_after_audit, "unknown": unknown,
                  "unresolved": [n for n in jordankit._LAZY if not hasattr(jordankit, n)]}))
"""


def test_commands_without_a_carrier_start_without_numpy(files, tmp_path, capsys):
    got = fresh_python(STARTUP, str(tmp_path / "k3.alg"))
    for argv, (code, numpy_free) in got["numpy_free"].items():
        assert code == 0 and numpy_free, argv
    assert got["numpy_after_audit"]
    assert run(["audit", files["k_f3"], "--n", "2", "--mode", "maps"]).exit_code == 0
    assert got["audit"] == [0, output_of(capsys)]
    assert got["unknown"] == "module 'jordankit' has no attribute 'no_such_name'"
    assert got["unresolved"] == []


PATCHED = ("enumerate_multiplicative_bijections", "enumerate_n_derivations")

PATCH_BEFORE_ANY_RUN = RUN_CLI + """
calls = dict.fromkeys(sys.argv[2:], 0)

def counting(name, original):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    return wrapper

for name in calls:
    setattr(cli, name, counting(name, getattr(cli, name)))
audits = {mode: run("audit", sys.argv[1], "--n", "2", "--mode", mode)
          for mode in ("maps", "derivations")}
print(json.dumps({"calls": calls, "audits": audits}))
"""


def test_patched_cli_search_is_the_one_that_runs(files, capsys, monkeypatch):
    """A patch of cli's search names, as the traced benchmark makes, is not rebound away."""
    argv = {mode: ["audit", files["k_f3"], "--n", "2", "--mode", mode] for mode in AUDIT_MODES}
    expected = {}
    for mode in AUDIT_MODES:
        expected[mode] = [run(argv[mode]).exit_code, output_of(capsys)]

    fresh = fresh_python(PATCH_BEFORE_ANY_RUN, files["k_f3"], *PATCHED)
    assert fresh == {"calls": dict.fromkeys(PATCHED, 1), "audits": expected}

    calls = dict.fromkeys(PATCHED, 0)
    for name in PATCHED:
        original = getattr(cli, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)
    for mode in AUDIT_MODES:
        assert [run(argv[mode]).exit_code, output_of(capsys)] == expected[mode]
    assert calls == dict.fromkeys(PATCHED, 1)
