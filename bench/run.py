"""Benchmark of jordankit's exact verdicts on small Jordan rings.

Run from anywhere; the package is imported from ``src`` next to this
directory, never from an installed copy:

    python3 bench/run.py --workload k5_derivations_n2 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload cli_audit --seed 3 --seconds 30 --trace 1
    python3 bench/run.py --self-check

Workloads (BENCHMARK.json says why each was chosen):

- ``k5_derivations_n2``: K = jordanify(M2) over F5 (625 elements);
  n = 2 derivation search through ``additivity_audit``, then criterion 4's
  reduction contract on every table.
- ``k5_bijections_n2``: K/F5 n = 2 multiplicative bijections, audited.
- ``k3_degree3``: K/F3 bijections and derivations at n = 3, audited.
- ``cli_audit``: ``jordankit audit k3.alg --n 2 --mode maps`` and
  ``--mode derivations`` as subprocesses, one after the other.

With ``--trace 0`` the run prints the end-to-end metrics (tracing off):
``time_to_verdict_s``, ``setup_s`` and ``peak_rss_mb``, as medians over the
verdicts and set-ups of the run. With ``--trace 1`` it alternates untraced
and traced passes, prints the per-layer metrics (medians over traced
passes), the tracing overhead (traced minus untraced time to verdict), and
writes every span to ``.bench_run/``. A layer the workload never calls
reads 0. Each run also records the environment and the observed stream
and stdout hashes in ``.bench_run/``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (correctness checks) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def load_package():
    """Import jordankit from this checkout's sources, or stop with an error."""
    package = SRC / "jordankit"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no jordankit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jordankit

    if Path(jordankit.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported jordankit from {jordankit.__file__}, not {package}")


# ---------------------------------------------------------------------------
# environment record


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cache_sizes() -> dict:
    sizes = {}
    try:
        for index in sorted(CACHE_DIR.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            sizes[f"L{level}{suffix}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def environment() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# runs


def median_of(values):
    return statistics.median(values) if values else 0.0


def verdict_times(iterations) -> list[float]:
    return [t for it in iterations for t in it.verdict_times]


def timed_setup(wl, workload):
    wl.settle()
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def untraced_run(wl, workload, seconds):
    helper = None
    try:
        if isinstance(workload, wl.CliAudit):
            sampler = wl.SetupSampler(lambda: timed_setup(wl, workload))
        else:
            command = [sys.executable, str(BENCH / "run.py"), "--serve-setups", str(workload.p),
                       "--seed", str(workload.seed)]
            helper = wl.SetupHelper(command, dict(os.environ), ROOT, workload.checks)
            sampler = wl.SetupSampler(helper.setup_once)
            workload.setup()
        sampler.window(wl.SETUP_MIN_REPS)
        iterations = wl.closed_loop(seconds, lambda: workload.iterate(wl.NULL_TRACER, sampler))
    finally:
        if helper is not None:
            helper.close()
    metrics = {
        "time_to_verdict_s": (statistics.median(verdict_times(iterations)), "s"),
        "setup_s": (statistics.median(sampler.times), "s"),
        "peak_rss_mb": (wl.peak_rss_mb(children=isinstance(workload, wl.CliAudit)), "MB"),
    }
    return metrics, iterations, {"extra": {"setup_times_s": sampler.times}}


def iteration_layers(it) -> dict:
    """Per-layer numbers of one traced pass, from its spans and streams."""
    tr = it.tracer
    stream_s = tr.total("search.next")
    verify_s = tr.total("maps.verify")
    nodes = sum(s.nodes for s in it.streams)
    witnesses = sum(len(s.tables) for s in it.streams)
    evals = sum(len(s.tables) * s.size ** s.n for s in it.streams)
    firsts = [s.first_witness_at for s in it.streams if s.first_witness_at is not None]
    return {
        "peirce.conditions_s": tr.total("peirce.conditions"),
        "search.stream_s": stream_s,
        "search.propagate_s": stream_s - verify_s,
        "search.nodes": nodes,
        "search.nodes_per_s": nodes / stream_s if stream_s else 0.0,
        "search.witnesses": witnesses,
        "search.witnesses_per_node": witnesses / nodes if nodes else 0.0,
        "search.first_witness_s": min(firsts) - it.started if firsts else 0.0,
        "maps.verify_s": verify_s,
        "maps.verify_evals": evals,
        "maps.verify_evals_per_s": evals / verify_s if verify_s else 0.0,
        "maps.additive_s": tr.total("maps.additive"),
        "maps.reduce_s": tr.total("maps.reduce"),
        "maps.peirce_check_s": tr.total("maps.peirce_check"),
        "cli.run_s": median_of(it.cli_run_times),
    }


LAYER_UNITS = {
    "carrier.table_bytes": "bytes",
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.witnesses": "count",
    "search.witnesses_per_node": "ratio",
    "maps.verify_evals": "count",
    "maps.verify_evals_per_s": "1/s",
    "trace.overhead_share": "ratio",
}


def traced_run(wl, spans, workload, seconds):
    from jordankit import search as jk_search

    setup_times, setup_tracers = wl.timed_setups(workload, spans.Tracer)
    if isinstance(workload, wl.CliAudit):
        workload.in_process = True
    patches = [
        (jk_search, "is_n_derivation", "maps.verify"),
        (jk_search, "is_n_multiplicative", "maps.verify"),
        (jk_search, "is_additive", "maps.additive"),
        (jk_search, "check_theorem_conditions", "peirce.conditions"),
    ]

    def untraced_then_traced():
        plain = workload.iterate(wl.NULL_TRACER)
        wl.settle()
        tracer = spans.Tracer()
        with spans.instrumented(tracer, patches):
            traced = workload.iterate(tracer)
        return plain, traced

    # The first pass in a process runs a few percent slower; keep it out of
    # the traced-minus-untraced difference.
    workload.iterate(wl.NULL_TRACER)
    pairs = wl.closed_loop(seconds, untraced_then_traced)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]

    values = {
        "carrier.build_s": median_of([t.total("carrier.build") for t in setup_tracers]),
        "carrier.table_bytes": workload.ring.table_bytes,
        "algebra.identity_report_s": median_of(
            [t.total("algebra.identity_report") for t in setup_tracers]
        ),
        "peirce.decompose_s": median_of([t.total("peirce.decompose") for t in setup_tracers]),
    }
    per_pass = [iteration_layers(it) for it in traced]
    for key in per_pass[0]:
        values[key] = statistics.median(p[key] for p in per_pass)
    values.update(wl.startup_times(workload.checks, wl.child_env(SRC), ROOT))
    untraced_ttv = statistics.median(verdict_times(plain))
    traced_ttv = statistics.median(verdict_times(traced))
    values["trace.overhead_s"] = traced_ttv - untraced_ttv
    values["trace.overhead_share"] = (traced_ttv - untraced_ttv) / untraced_ttv
    metrics = {k: (v, LAYER_UNITS.get(k, "s")) for k, v in values.items()}

    dump = {
        "setup": [t.spans for t in setup_tracers],
        "iterations": [it.tracer.spans for it in traced],
        "self_times": [it.tracer.self_times() for it in traced],
    }
    extra = {"untraced_time_to_verdict_s": untraced_ttv, "traced_time_to_verdict_s": traced_ttv}
    return metrics, traced, {"spans": dump, "extra": extra}


# ---------------------------------------------------------------------------
# self-check


def self_check(wl, expected) -> int:
    """Tampered expectations must surface as failed checks, not as a crash."""
    pins = expected["self_check"]
    outcomes = []
    for tampered in (False, True):
        checks = wl.Checks()
        ring = wl.build_ring(3, 0, checks)
        it = wl.Iteration(wl.NULL_TRACER)
        stream, report = wl.audit(it, ring, "bijections", 2)
        expect = dict(pins["bijections_n2"])
        cli_expect = {"maps": dict(expected["cli_audit"]["maps"])}
        bad_tables = []
        if tampered:
            expect["witnesses"] += 1
            expect["sha256"] = "0" * 64
            cli_expect["maps"]["sha256"] = "0" * 64
            bad_tables = stream.tables[1:2]  # a bijection that is no derivation
        wl.check_stream(checks, "bijections_n2", stream, report, expect, pinned=True)
        wl.reduction_checks(checks, ring, bad_tables, it)
        cli = wl.CliAudit(0, cli_expect, checks, ROOT, SRC)
        cli.modes = ("maps",)
        cli.in_process = True
        cli.setup()
        cli.iterate(wl.NULL_TRACER)
        outcomes.append(checks)
    clean, dirty = outcomes
    ok = clean.failed == 0 and dirty.failed == 4
    print(f"self-check untampered: {clean.attempted} checks, {clean.failed} failed")
    print(f"self-check tampered: {dirty.attempted} checks, {dirty.failed} failed (4 expected)")
    for line in dirty.failures:
        print(f"  failed: {line}")
    print(f"self-check: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["k5_derivations_n2", "k5_bijections_n2",
                                               "k3_degree3", "cli_audit"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="check that tampered expectations show as failed checks")
    parser.add_argument("--serve-setups", type=int, metavar="P", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.self_check or args.serve_setups) and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    load_package()
    import spans
    import workloads as wl

    if args.serve_setups:
        return wl.serve_setups(args.serve_setups, args.seed)
    with open(BENCH / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    if args.self_check:
        return self_check(wl, expected)

    checks = wl.Checks()
    workload = wl.make_workload(args.workload, args.seed, expected[args.workload], checks,
                                ROOT, SRC)
    began = time.perf_counter()
    if args.trace:
        metrics, iterations, record = traced_run(wl, spans, workload, args.seconds)
    else:
        metrics, iterations, record = untraced_run(wl, workload, args.seconds)
    wall = time.perf_counter() - began

    env = environment()
    ratio = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"workload {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(iterations)} wall={wall:.3f}s")
    print("env " + json.dumps(env, sort_keys=True))
    for label, digest in sorted(checks.observed.items()):
        print(f"sha256 {label} {digest}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"metric failed_ops_ratio = {ratio:.6g} ratio ({checks.failed}/{checks.attempted})")
    for line in checks.failures:
        print(f"FAILED {line}")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "wall_s": wall, "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": checks.attempted, "failed": checks.failed,
        "failures": checks.failures, "observed_sha256": checks.observed,
        "verdict_times_s": verdict_times(iterations), **record.get("extra", {}),
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1, sort_keys=True)
    if "spans" in record:
        with open(f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(record["spans"], fh)

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
