"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Arithmetic is exact everywhere, so every comparison is equality;
the only tolerances are the stated runtime bounds.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from jordankit import (
    Algebra,
    DerivationTable,
    additivity_audit,
    carrier_of,
    check_theorem_conditions,
    derivation_peirce_check,
    enumerate_multiplicative_bijections,
    enumerate_n_derivations,
    identity_report,
    inner_derivation,
    is_additive,
    is_n_derivation,
    jordanify,
    matrix_units_algebra,
    peirce_decompose,
    peirce_project,
    prime_field,
    rational_field,
    reduce_derivation,
    verify_peirce_relations,
)

import oracles
from conftest import diagonal_product_algebra


def report_line(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_example_constructors():
    t0 = time.monotonic()
    pairs = [(1, 1), (1, 0), (0, 1), (0, 0)]
    ok = True
    for field in (rational_field(), prime_field(5)):
        m2 = matrix_units_algebra(field)
        # all 64 tensor entries against the Kronecker-delta formula
        for i, (a, b) in enumerate(pairs):
            for j, (c, d) in enumerate(pairs):
                for k, (x, y) in enumerate(pairs):
                    expected = field.one() if (b == c and (x, y) == (a, d)) else field.zero()
                    ok = ok and m2.table[i][j][k] == expected
        nonzero = sum(
            1
            for i in range(4)
            for j in range(4)
            for k in range(4)
            if not field.is_zero(m2.table[i][j][k])
        )
        ok = ok and nonzero == 8  # the delta table has 8 nonzero entries, not 12
        rep = identity_report(m2)
        ok = ok and rep.associative and not rep.commutative
        krep = identity_report(jordanify(m2))
        ok = ok and krep.jordan
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    report_line(1, "example constructors", ok)


def test_criterion_2_peirce_reproduction():
    t0 = time.monotonic()
    ok = True
    for field in (rational_field(), prime_field(3), prime_field(5)):
        k = jordanify(matrix_units_algebra(field))
        e11 = k.basis_element(0)
        dec = peirce_decompose(k, e11)
        ok = ok and dec.dims == (1, 2, 1)
        ok = ok and dec.basis1 == [e11]
        ok = ok and dec.basis_half == [k.basis_element(1), k.basis_element(2)]
        ok = ok and dec.basis0 == [k.basis_element(3)]
        ok = ok and verify_peirce_relations(dec).all_ok
        cond = check_theorem_conditions(dec)
        ok = ok and cond.cond_i and cond.cond_ii and cond.cond_iii
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    report_line(2, "Peirce reproduction", ok)


def test_criterion_3_inner_derivation_identity():
    t0 = time.monotonic()
    kq = jordanify(matrix_units_algebra(rational_field()))
    e11 = kq.basis_element(0)
    a_half = kq.basis_element(1)
    d = inner_derivation(kq, a_half, e11.scaled(4))
    ok = d.apply(e11) == a_half.scaled(3)
    kf5 = jordanify(matrix_units_algebra(prime_field(5)))
    for i in range(4):
        for j in range(4):
            inner = inner_derivation(kf5, kf5.basis_element(i), kf5.basis_element(j))
            as_table = DerivationTable(kf5, table=inner.index_table())
            ok = ok and is_n_derivation(as_table, 2).ok
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    report_line(3, "inner-derivation identity", ok)


def test_criterion_4_reduction_contract():
    kf5 = jordanify(matrix_units_algebra(prime_field(5)))
    e11 = kf5.basis_element(0)
    dec = peirce_decompose(kf5, e11)
    search = enumerate_n_derivations(kf5, 2)
    count = 0
    ok = True
    for d in search:
        count += 1
        delta = reduce_derivation(kf5, e11, d, 2, decomposition=dec)
        ok = ok and delta.apply(e11).is_zero()
        ok = ok and derivation_peirce_check(delta, dec).ok
    ok = ok and search.exhausted and count > 0
    report_line(4, f"reduction contract on {count} searched derivations", ok)


def random_commutative_algebra(field, dim, rng):
    zero = field.zero()
    table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            cell = [field.from_int(rng.randrange(field.characteristic)) for _ in range(dim)]
            for k in range(dim):
                table[i][j][k] = cell[k]
                table[j][i][k] = cell[k]
    return Algebra(field, tuple(f"b{i}" for i in range(dim)), table)


def test_criterion_5_oracle_equivalence_jordan():
    t0 = time.monotonic()
    f5 = prime_field(5)
    rng = random.Random(20260810)
    algebras = []
    for _ in range(20):
        algebras.append(random_commutative_algebra(f5, rng.choice([1, 2, 3]), rng))
    # constructed cases guaranteeing both verdicts appear
    algebras.append(diagonal_product_algebra(f5, 3))
    zero = f5.zero()
    algebras.append(Algebra(f5, ("u", "v"), [[[zero] * 2] * 2] * 2))
    bad = [[[zero] * 2 for _ in range(2)] for _ in range(2)]
    bad[0][0][1] = f5.one()
    bad[1][1][0] = f5.one()
    algebras.append(Algebra(f5, ("u", "v"), bad))
    verdicts = set()
    ok = True
    for a in algebras:
        linearized = identity_report(a).jordan  # p = 5: the per-slot candidate rule
        exhaustive = oracles.jordan_exhaustive(a)
        ok = ok and (linearized is exhaustive)
        verdicts.add(linearized)
    ok = ok and verdicts == {True, False}
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report_line(5, f"Jordan oracle equivalence on {len(algebras)} tables", ok)


def test_criterion_6_oracle_equivalence_conditions():
    ok = True
    for p in (3, 5):
        k = jordanify(matrix_units_algebra(prime_field(p)))
        dec = peirce_decompose(k, k.basis_element(0))
        cond = check_theorem_conditions(dec)
        oracle = oracles.conditions_bruteforce(dec)
        ok = ok and cond.cond_i is oracle["cond_i"]
        ok = ok and cond.cond_ii is oracle["cond_ii"]
        ok = ok and cond.cond_iii is oracle["cond_iii"]
    f3xf3 = diagonal_product_algebra(prime_field(3), 2)
    dec = peirce_decompose(f3xf3, f3xf3.element([1, 0]))
    cond = check_theorem_conditions(dec)
    oracle = oracles.conditions_bruteforce(dec)
    ok = ok and cond.cond_i is oracle["cond_i"] is False
    ok = ok and cond.cond_ii is oracle["cond_ii"]
    ok = ok and cond.cond_iii is oracle["cond_iii"]
    report_line(6, "condition oracle equivalence", ok)


def test_criterion_7_theorem_2_1_desk_scale():
    t0 = time.monotonic()
    kf3 = jordanify(matrix_units_algebra(prime_field(3)))
    dec = peirce_decompose(kf3, kf3.basis_element(0))
    search = enumerate_multiplicative_bijections(kf3, kf3, 2)
    report = additivity_audit(search, dec)
    ok = report.all_additive and report.exhausted
    ok = ok and report.witnesses_found == 48
    ok = ok and report.hypothesis_record.all_ok
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600.0
    report_line(7, f"Theorem 2.1 desk scale ({report.witnesses_found} bijections)", ok)


def test_criterion_8_theorem_3_1_desk_scale():
    t0 = time.monotonic()
    kf3 = jordanify(matrix_units_algebra(prime_field(3)))
    e11 = kf3.basis_element(0)
    dec = peirce_decompose(kf3, e11)
    search = enumerate_n_derivations(kf3, 2)
    tables = list(search)
    ok = search.exhausted and len(tables) == 27
    for t in tables:
        ok = ok and is_additive(t).ok
        p1, _, p0 = peirce_project(dec, t.apply(e11))
        ok = ok and p1.is_zero() and p0.is_zero()
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600.0
    report_line(8, f"Theorem 3.1 desk scale ({len(tables)} derivations)", ok)


def test_criterion_9_micro_completeness():
    t0 = time.monotonic()
    a = diagonal_product_algebra(prime_field(3), 2)
    search = enumerate_multiplicative_bijections(a, a, 2)
    found = sorted(tuple(t.index_table().tolist()) for t in search)
    ok = search.exhausted
    oracle = oracles.bijections_bruteforce(carrier_of(a).mul)
    ok = ok and found == oracle
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report_line(9, f"micro-instance completeness ({len(found)} of 9! bijections)", ok)


def cli_bytes(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "jordankit.cli"] + argv,
        capture_output=True,
        check=False,
    )
    return proc.stdout, proc.returncode


def test_criterion_10_determinism(tmp_path):
    paths = {}
    for which, field, name in (
        ("jordanified-m2", "rational", "k_q"),
        ("jordanified-m2", "p=3", "k_f3"),
        ("jordanified-m2", "p=5", "k_f5"),
    ):
        out = tmp_path / f"{name}.alg"
        cli_bytes(["example", which, "--field", field, "--out", str(out)])
        paths[name] = str(out)
    commands = [
        ["peirce", paths["k_q"], "--idempotent", "1,0,0,0"],
        ["peirce", paths["k_f3"], "--idempotent", "1,0,0,0"],
        ["peirce", paths["k_f5"], "--idempotent", "1,0,0,0"],
        ["inner-derivation", paths["k_q"], "--y", "0,1,0,0", "--z", "4,0,0,0"],
        ["audit", paths["k_f3"], "--n", "2", "--mode", "maps"],
    ]
    ok = True
    for argv in commands:
        out1, code1 = cli_bytes(argv)
        out2, code2 = cli_bytes(argv)
        ok = ok and out1 == out2 and code1 == code2 and code1 == 0
    report_line(10, "byte-identical CLI reports", ok)
