"""Command-line surface: load algebra and map files, run checks, print reports.

Every report is byte-deterministic for identical inputs. ``run`` makes,
finishes and prints the one report of an invocation, and each command only
adds its lines to it. Exit codes are the machine contract, set by ``run``:
0 all verdicts pass, 1 some check failed, 2 input or usage error.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from dataclasses import dataclass, field as dataclass_field

from . import _LAZY
from .algebra import (
    identity_report,
    jordanify,
    load_algebra,
    matrix_units_algebra,
    save_algebra,
)
from .errors import JordankitError, NoncommutativeDomain, shown
from .peirce import (
    _component_parts_zero,
    check_theorem_conditions,
    find_idempotents,
    idempotent_class,
    peirce_decompose,
    verify_peirce_relations,
)
from .scalars import _exact, prime_field, rational_field

# the names of jordankit._LAZY (carrier, maps and search, which import numpy)
# are bound on the first carrier command or outside read, so check, example,
# idempotents and peirce start without numpy
_NUMPY_FREE = {"check", "example", "idempotents", "peirce"}


def _bind_carrier_names():
    """Bind the names of ``jordankit._LAZY``, keeping any already set (a patch)."""
    package = importlib.import_module(__package__)
    for name in _LAZY:
        globals().setdefault(name, getattr(package, name))


def __getattr__(name):
    if name in _LAZY:
        _bind_carrier_names()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class RunReport:
    command: str
    verdicts: list = dataclass_field(default_factory=list)  # (name, passed, witness text)
    exit_code: int = 0
    lines: list = dataclass_field(default_factory=list)

    def info(self, line: str):
        self.lines.append(line)

    def verdict(self, name: str, passed: bool, witness: str = ""):
        self.verdicts.append((name, passed, witness))
        text = f"verdict {name}: {'pass' if passed else 'fail'}"
        if witness and not passed:
            text += f" witness={witness}"
        self.lines.append(text)

    def finish(self):
        ok = all(passed for _, passed, _ in self.verdicts)
        self.exit_code = 0 if ok else 1
        self.lines.append(f"result: {'PASS' if ok else 'FAIL'}")


def _field_text(f) -> str:
    return "Q" if f.characteristic == 0 else f"F{f.characteristic}"


def _tuple_text(elems) -> str:
    return ";".join(e.text() for e in elems)


def _parse_field_spec(text: str):
    if text == "rational":
        return rational_field()
    if text.startswith("p=") and text[2:].isdecimal():
        return prime_field(_exact(int, text[2:]))
    raise JordankitError(f"bad field spec {shown(text)}: use 'rational' or 'p=<prime>'")


def _decompose(command: str, a, e, symmetrized: bool = False):
    """peirce_decompose, with a noncommutative algebra refused in the terms of the CLI."""
    try:
        return peirce_decompose(a, e, allow_noncommutative=symmetrized)
    except NoncommutativeDomain:
        hint = ("pass --symmetrized to decompose with the symmetrized operator"
                if command == "peirce" else f"{command} needs a commutative algebra")
        raise JordankitError(f"algebra is noncommutative; {hint}") from None


# ---------------------------------------------------------------------------
# subcommands


def _load(rep, path):
    """The algebra of the file at path, its line added to the report."""
    a = load_algebra(path)
    rep.info(f"algebra: {a.name or '(unnamed)'} dim={a.dim} field={_field_text(a.field)}")
    return a


def _witness(v) -> str:
    """The argument tuple of a failing Verdict, or "" for a pass."""
    return _tuple_text(v.witness[1]) if v.witness else ""


def _cmd_check(args, rep):
    a = _load(rep, args.algebra)
    ir = identity_report(a)
    for prop in ("commutative", "associative", "flexible", "jordan"):
        val = getattr(ir, prop)
        line = f"{prop}: {'true' if val else 'false'}"
        if not val and ir.witnesses.get(prop):
            line += f" witness={_tuple_text(ir.witnesses[prop])}"
        rep.info(line)
    if args.require:
        rep.verdict(f"require {args.require}", bool(getattr(ir, args.require)))


def _cmd_idempotents(args, rep):
    a = _load(rep, args.algebra)
    mode = "exhaustive" if args.exhaustive else "heuristic"
    rep.info(f"mode: {mode}")
    hits = find_idempotents(a, mode=mode)
    rep.info(f"count: {len(hits)}")
    for hit in hits:
        rep.info(f"idempotent: {hit.element.text()} class={hit.classification}")


def _cmd_peirce(args, rep):
    a = _load(rep, args.algebra)
    e = a.parse_element(args.idempotent)
    rep.info(f"idempotent: {e.text()} class={idempotent_class(a, e)}")
    dec = _decompose("peirce", a, e, args.symmetrized)
    d1, dh, d0 = dec.dims
    rep.info(f"dims: J1={d1} Jhalf={dh} J0={d0}")
    for label, basis in (("J1", dec.basis1), ("Jhalf", dec.basis_half), ("J0", dec.basis0)):
        rep.info(f"basis {label}: {_tuple_text(basis) if basis else '(empty)'}")
    relations = verify_peirce_relations(dec)
    for check in relations.checks:
        rep.verdict(
            f"relation {check.name}",
            check.ok,
            _tuple_text(check.witness[:2]) if check.witness else "",
        )
    cond = check_theorem_conditions(dec)
    rep.verdict("condition (i)", cond.cond_i, _cond_witness(cond, ("i@J1", "i@J0")))
    rep.verdict("condition (ii)", cond.cond_ii, _cond_witness(cond, ("ii",)))
    rep.verdict("condition (iii)", cond.cond_iii, _cond_witness(cond, ("iii",)))


def _cond_witness(cond, keys) -> str:
    parts = [f"{k}:{cond.witnesses[k].text()}" for k in keys if k in cond.witnesses]
    return ",".join(parts)


def _identity_and_additivity(rep, name, v, table):
    """The verdict of a map identity, then whether the map is additive."""
    rep.verdict(name, v.ok, _witness(v))
    rep.info(f"additive: {'true' if is_additive(table).ok else 'false'}")


def _cmd_check_map(args, rep):
    dom = _load(rep, args.algebra)
    cod = _load(rep, args.algebra2)
    table = load_map_table(args.map, domain=dom, codomain=cod)
    rep.verdict("bijective", is_bijective(table))
    tree_mode = "all_trees" if args.all_trees else "canonical"
    v = is_n_multiplicative(table, args.n, tree_mode=tree_mode)
    _identity_and_additivity(rep, f"{args.n}-multiplicative ({tree_mode})", v, table)


def _cmd_check_derivation(args, rep):
    a = _load(rep, args.algebra)
    table = DerivationTable.from_map(load_map_table(args.map, domain=a, codomain=a))
    v = is_n_derivation(table, args.n)
    _identity_and_additivity(rep, f"{args.n}-derivation (canonical)", v, table)


def _cmd_inner_derivation(args, rep):
    a = _load(rep, args.algebra)
    y = a.parse_element(args.y)
    z = a.parse_element(args.z)
    rep.info(f"y: {y.text()}")
    rep.info(f"z: {z.text()}")
    d = inner_derivation(a, y, z)
    f = a.field
    for row in d.matrix:
        rep.info("row: " + ",".join(f.format(c) for c in row))
    v = is_n_derivation(d, 2)
    rep.verdict("2-derivation (canonical)", v.ok, _witness(v))


def _cmd_reduce_derivation(args, rep):
    a = _load(rep, args.algebra)
    e = a.parse_element(args.idempotent)
    rep.info(f"idempotent: {e.text()}")
    d = DerivationTable.from_map(load_map_table(args.map, domain=a, codomain=a))
    v = is_n_derivation(d, args.n)
    rep.verdict(f"{args.n}-derivation (canonical)", v.ok)
    if not v.ok:
        return
    dec = _decompose("reduce-derivation", a, e)
    de = d.apply(e)
    rep.info(f"d(e): {de.text()}")
    in_half = _component_parts_zero(dec, de, ("1", "0"))
    rep.verdict("d(e) in Jhalf", in_half, de.text() if not in_half else "")
    if not in_half:
        return
    delta = reduce_derivation(a, e, d, args.n, decomposition=dec)
    rep.verdict("reduced derivation vanishes at e", delta.apply(e).is_zero())
    pc = derivation_peirce_check(delta, dec)
    rep.verdict(
        "reduced derivation preserves components",
        pc.ok,
        f"{pc.witness[0]}:{pc.witness[1].text()}" if pc.witness else "",
    )


def _cmd_audit(args, rep):
    a = _load(rep, args.algebra)
    if args.idempotent:
        e = a.parse_element(args.idempotent)
        rep.info(f"idempotent: {e.text()}")
    else:
        hits = [h for h in find_idempotents(a, "heuristic") if h.classification == "nontrivial"]
        if not hits:
            raise JordankitError(
                "no nontrivial idempotent found by the 0/1 sweep; pass --idempotent"
            )
        e = hits[0].element
        rep.info(f"idempotent: {e.text()} (auto)")
    dec = _decompose("audit", a, e)
    budget = SearchBudget(
        max_nodes=args.budget_nodes,
        max_seconds=args.budget_seconds,
        max_witnesses=args.budget_witnesses,
    )
    if args.mode == "maps":
        search = enumerate_multiplicative_bijections(a, a, args.n, budget)
    else:
        search = enumerate_n_derivations(a, args.n, budget)
    report = additivity_audit(search, dec)
    hyp = report.hypothesis_record
    rep.info(
        "conditions: i={} ii={} iii={}".format(
            *["pass" if ok else "fail" for ok in (hyp.cond_i, hyp.cond_ii, hyp.cond_iii)]
        )
    )
    rep.info(f"mode: {args.mode} n={args.n}")
    rep.info(f"witnesses: {report.witnesses_found}")
    rep.info(f"exhausted: {'true' if report.exhausted else 'false'}")
    rep.verdict("all_additive", report.all_additive)
    if args.mode == "derivations":
        images = (table.apply(e) for table in report.tables)
        bad = next((de for de in images if not _component_parts_zero(dec, de, ("1", "0"))), None)
        rep.verdict("d(e) in Jhalf for all witnesses", bad is None, bad.text() if bad else "")


def _cmd_example(args, rep):
    f = _parse_field_spec(args.field)
    a = matrix_units_algebra(f)
    if args.which == "jordanified-m2":
        a = jordanify(a)
    save_algebra(a, args.out)
    rep.info(f"wrote: {args.out} ({a.name} over {_field_text(f)})")


# ---------------------------------------------------------------------------
# argument parsing


def _above(kind, bound):
    """An argparse type: a number of the given kind greater than bound."""

    def parse(text):
        value = kind(text)
        if not value > bound:
            raise argparse.ArgumentTypeError(f"must be > {bound}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jordankit",
        description="Exact checks on nonassociative structure-constant algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="identity report for an algebra file")
    p.add_argument("algebra")
    p.add_argument("--require", choices=["jordan", "commutative", "associative"])
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("idempotents", help="list nonzero idempotents")
    p.add_argument("algebra")
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(fn=_cmd_idempotents)

    p = sub.add_parser("peirce", help="Peirce decomposition and theorem conditions")
    p.add_argument("algebra")
    p.add_argument("--idempotent", required=True, help="coords c1,c2,...,cd")
    p.add_argument("--symmetrized", action="store_true",
                   help="allow noncommutative algebras (symmetrized operator)")
    p.set_defaults(fn=_cmd_peirce)

    p = sub.add_parser("check-map", help="bijectivity and n-multiplicativity of a map file")
    p.add_argument("algebra")
    p.add_argument("algebra2")
    p.add_argument("map")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--all-trees", action="store_true")
    p.set_defaults(fn=_cmd_check_map)

    p = sub.add_parser("check-derivation", help="n-derivation identity for a map file")
    p.add_argument("algebra")
    p.add_argument("map")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_check_derivation)

    p = sub.add_parser("inner-derivation", help="matrix of [L_y,L_z]+[L_y,R_z]+[R_y,R_z]")
    p.add_argument("algebra")
    p.add_argument("--y", required=True)
    p.add_argument("--z", required=True)
    p.set_defaults(fn=_cmd_inner_derivation)

    p = sub.add_parser("reduce-derivation", help="reduce d to a derivation vanishing at e")
    p.add_argument("algebra")
    p.add_argument("map")
    p.add_argument("--idempotent", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_reduce_derivation)

    p = sub.add_parser("audit", help="enumerate witnesses and audit additivity")
    p.add_argument("algebra")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["maps", "derivations"], required=True)
    p.add_argument("--budget-nodes", type=_above(int, 0), default=None)
    p.add_argument("--budget-seconds", type=_above(float, 0), default=None)
    p.add_argument("--budget-witnesses", type=_above(int, -1), default=None)
    p.add_argument("--idempotent", default=None)
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("example", help="write a built-in example algebra file")
    p.add_argument("which", choices=["m2", "jordanified-m2"])
    p.add_argument("--field", default="rational", help="'rational' or 'p=<prime>'")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_example)

    return parser


def _error_text(exc) -> str:
    """The message of a refusal; an OSError's file name is cut like any echoed input."""
    if isinstance(exc, OSError) and exc.filename is not None:
        return f"[Errno {exc.errno}] {exc.strerror}: {shown(exc.filename)}"
    return str(exc)


def run(argv) -> RunReport:
    """Execute one CLI invocation: the command adds its lines to a fresh report,
    which is finished, printed and returned; a refusal prints one error line."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command not in _NUMPY_FREE:
        _bind_carrier_names()
    report = RunReport(args.command)
    try:
        args.fn(args, report)
    except (JordankitError, OSError) as exc:
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return RunReport(args.command, exit_code=2)
    report.finish()
    print("\n".join([f"command: {report.command}"] + report.lines))
    return report


def main() -> None:
    sys.exit(run(sys.argv[1:]).exit_code)


if __name__ == "__main__":
    main()
