"""The jordankit benchmark workloads: seeded inputs, timed loops and checks.

Every workload is a closed loop with one client in a single process: the
next verdict (or the next CLI call) starts only after the previous one has
ended. Each check of a verdict is one attempted operation; a check that
does not hold is a failed operation and is reported, never raised.

Import this module only after ``src`` is on ``sys.path`` (see run.py).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import jordankit
from jordankit import algebra as jk_algebra
from jordankit import carrier as jk_carrier
from jordankit import cli as jk_cli
from jordankit import maps as jk_maps
from jordankit import peirce as jk_peirce
from jordankit import search as jk_search
from jordankit.errors import JordankitError
from jordankit.linalg import invert, mat_vec

from spans import NullTracer, instrumented

NULL_TRACER = NullTracer()
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 1.5
SETUP_MAX_REPS = 200
SETUP_INTERVAL_S = 1.0
SETUP_MAX_SHARE = 0.2
STARTUP_REPS = 5
CHILD_TIMEOUT_S = 120


# ---------------------------------------------------------------------------
# seeded inputs


def basis_change(p: int, dim: int, seed: int) -> list[list[int]]:
    """The seeded change-of-basis matrix over F_p (columns: new basis vectors).

    Seed 0 is the identity, i.e. the textbook basis. Any other seed draws a
    random invertible diagonal matrix: each basis vector is rescaled by a
    nonzero scalar. Witness counts are isomorphism invariants, so they hold
    at every seed, while the element order (hence the stream bytes and the
    search tree) changes. Denser random bases are not used: they move a
    K/F5 search between about 4e3 and 4e5 nodes and 18 s to over 50 s, so
    runs at different seeds would measure different amounts of work.
    """
    rng = random.Random(seed)
    return [
        [(1 if seed == 0 else rng.randrange(1, p)) if i == j else 0 for j in range(dim)]
        for i in range(dim)
    ]


def change_basis(a, matrix):
    """Structure constants of ``a`` in the basis given by the matrix columns.

    Returns the new algebra and the inverse matrix, which maps old
    coordinates to new ones.
    """
    f = a.field
    d = a.dim
    entries = [[f.from_int(c) for c in row] for row in matrix]
    inverse = invert(f, entries)
    if inverse is None:
        raise ValueError("basis change is singular")
    new_basis = [a.element([entries[i][j] for i in range(d)]) for j in range(d)]
    table = [
        [list(mat_vec(f, inverse, list(jk_algebra.multiply(a, x, y).coords))) for y in new_basis]
        for x in new_basis
    ]
    return jk_algebra.Algebra(f, a.basis_names, table, name=a.name), inverse


def seeded_ring(p: int, seed: int):
    """K = jordanify(M2) over F_p in the seeded basis, with e11 mapped along."""
    base = jk_algebra.jordanify(jk_algebra.matrix_units_algebra(jordankit.prime_field(p)))
    k, inverse = change_basis(base, basis_change(p, base.dim, seed))
    e11 = k.element([row[0] for row in inverse])
    return k, e11


# ---------------------------------------------------------------------------
# checks and observations


@dataclass
class Checks:
    """Attempted and failed correctness checks of one benchmark run."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    observed: dict = field(default_factory=dict)  # label -> sha256 seen

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def guarded(self, name: str, fn):
        """Run fn(); a JordankitError counts as one failed check, not a crash."""
        try:
            return fn()
        except JordankitError as exc:
            self.check(name, False, f"{type(exc).__name__}: {exc}")
            return None


class Stream:
    """Iterates a search, timing each next() and hashing every table.

    When the search ends, its run record is copied and the search object
    (with its large per-run lists) is released, so that the memory of
    earlier passes does not add to the peak RSS of later ones.
    """

    def __init__(self, search, it: "Iteration"):
        self.search = search
        self.it = it
        self.tracer = it.tracer
        self.started = it.started
        self.n = search.n
        self.size = search.size
        self.nodes = 0
        self.exhausted = False
        self.budget_exceeded = False
        self.first_witness_at = None
        self.tables = []
        self.sha = hashlib.sha256()

    def __iter__(self):
        it = iter(self.search)
        while True:
            self.it.poll()
            with self.tracer.span("search.next"):
                table = next(it, None)
            if table is None:
                break
            if self.first_witness_at is None:
                self.first_witness_at = time.perf_counter()
            self.sha.update(table.index_table().astype("<i8").tobytes())
            self.tables.append(table)
            yield table
        search, self.search = self.search, None
        self.nodes = search.nodes
        self.exhausted = search.exhausted
        self.budget_exceeded = search.budget_exceeded


@dataclass
class Iteration:
    """One pass of a workload: its verdict times and what it observed.

    With a set-up sampler, the pass lets it time a set-up between its steps
    (see SetupSampler); the time that takes is kept out of the verdict time.
    """

    tracer: object
    sampler: object = None
    started: float = field(default_factory=time.perf_counter)
    paused: float = 0.0
    verdict_times: list = field(default_factory=list)
    streams: list = field(default_factory=list)
    cli_run_times: list = field(default_factory=list)

    def stream(self, search) -> Stream:
        s = Stream(search, self)
        self.streams.append(s)
        return s

    def poll(self):
        if self.sampler is not None:
            self.paused += self.sampler.poll()

    def verdict(self):
        self.verdict_times.append(time.perf_counter() - self.started - self.paused)


@dataclass
class Ring:
    algebra: object
    idempotent: object
    decomposition: object
    table_bytes: int


def build_ring(p: int, seed: int, checks: Checks, tracer=NULL_TRACER) -> Ring:
    """Set-up of the in-process workloads: K, carrier tables, Peirce, Jordan check."""
    k, e11 = seeded_ring(p, seed)
    with tracer.span("carrier.build"):
        carrier = jk_carrier.carrier_of(k)
        table_bytes = carrier.mul.nbytes + carrier.add.nbytes
    with tracer.span("algebra.identity_report"):
        report = jk_algebra.identity_report(k)
    with tracer.span("peirce.decompose"):
        dec = jk_peirce.peirce_decompose(k, e11)
    checks.check(f"K/F{p} is Jordan and commutative", report.jordan and report.commutative)
    checks.check(f"K/F{p} Peirce dims (1, 2, 1)", dec.dims == (1, 2, 1), str(dec.dims))
    return Ring(k, e11, dec, table_bytes)


def check_stream(checks: Checks, label: str, stream: Stream, report, expect: dict, pinned: bool):
    checks.check(f"{label} witnesses", report.witnesses_found == expect["witnesses"],
                 f"{report.witnesses_found} != {expect['witnesses']}")
    checks.check(f"{label} all_additive", report.all_additive)
    checks.check(f"{label} exhausted", report.exhausted and not report.budget_exceeded)
    checks.check(f"{label} theorem conditions", report.hypothesis_record.all_ok)
    got = checks.observed[label] = stream.sha.hexdigest()
    if pinned:
        checks.check(f"{label} stream sha256", got == expect["sha256"], got)


def audit(it: Iteration, ring: Ring, kind: str, n: int):
    """Search of the given kind at degree n, run through additivity_audit."""
    tracer = it.tracer
    with tracer.span("search.init"):
        if kind == "bijections":
            search = jk_search.enumerate_multiplicative_bijections(ring.algebra, ring.algebra, n)
        else:
            search = jk_search.enumerate_n_derivations(ring.algebra, n)
    stream = it.stream(search)
    with tracer.span("search.audit"):
        report = jk_search.additivity_audit(stream, ring.decomposition)
    return stream, report


def reduction_checks(checks: Checks, ring: Ring, tables, it: Iteration):
    """Criterion 4: reduce every n = 2 derivation and check the reduction contract."""
    tracer = it.tracer
    for i, d in enumerate(tables):
        it.poll()
        def reduce(d=d):
            with tracer.span("maps.reduce"):
                return jk_maps.reduce_derivation(
                    ring.algebra, ring.idempotent, d, 2, decomposition=ring.decomposition
                )

        delta = checks.guarded(f"reduce table {i}", reduce)
        if delta is None:
            continue
        checks.check(f"reduced table {i} vanishes at e", delta.apply(ring.idempotent).is_zero())

        def peirce_check(delta=delta):
            with tracer.span("maps.peirce_check"):
                return jk_maps.derivation_peirce_check(delta, ring.decomposition)

        verdict = checks.guarded(f"peirce check table {i}", peirce_check)
        if verdict is not None:
            checks.check(f"reduced table {i} preserves components", verdict.ok)


# ---------------------------------------------------------------------------
# workloads


class InProcessWorkload:
    """Searches and audits run inside the benchmark process."""

    p: int
    searches: tuple  # (kind, n)

    def __init__(self, seed: int, expect: dict, checks: Checks):
        self.seed = seed
        self.expect = expect
        self.checks = checks
        self.ring = None

    def setup(self, tracer=NULL_TRACER):
        self.ring = build_ring(self.p, self.seed, self.checks, tracer)
        return self.ring

    def iterate(self, tracer, sampler=None) -> Iteration:
        it = Iteration(tracer, sampler)
        for kind, n in self.searches:
            stream, report = audit(it, self.ring, kind, n)
            label = f"{kind}_n{n}"
            check_stream(self.checks, label, stream, report, self.expect[label], self.seed == 0)
            self.after_search(it, stream)
        it.verdict()
        return it

    def after_search(self, it: Iteration, stream: Stream):
        pass


class K5Derivations(InProcessWorkload):
    p = 5
    searches = (("derivations", 2),)

    def after_search(self, it, stream):
        reduction_checks(self.checks, self.ring, stream.tables, it)


class K5Bijections(InProcessWorkload):
    p = 5
    searches = (("bijections", 2),)


class K3Degree3(InProcessWorkload):
    p = 3
    searches = (("bijections", 3), ("derivations", 3))


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def spawn(argv, env, cwd) -> tuple[subprocess.CompletedProcess, float]:
    """Run a child to completion; a timeout (child killed) reads as exit code -1."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, env=env, cwd=cwd,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        proc = subprocess.CompletedProcess(argv, -1, exc.stdout or b"", exc.stderr or b"")
    return proc, time.perf_counter() - start


def check_cli_stdout(checks: Checks, label: str, code: int, out: bytes, expect: dict, pinned: bool):
    text = out.decode("utf-8", "replace")
    lines = text.splitlines()
    checks.check(f"{label} exit code", code == 0, str(code))
    checks.check(f"{label} witnesses", f"witnesses: {expect['witnesses']}" in lines)
    checks.check(f"{label} exhausted", "exhausted: true" in lines)
    checks.check(f"{label} result", "result: PASS" in lines)
    got = checks.observed[f"{label} stdout"] = hashlib.sha256(out).hexdigest()
    if pinned:
        checks.check(f"{label} stdout sha256", got == expect["sha256"], got)


class CliAudit:
    """Criterion 10's ``audit`` command on K/F3, one subprocess per call."""

    p = 3
    modes = ("maps", "derivations")

    def __init__(self, seed: int, expect: dict, checks: Checks, root: Path, src: Path):
        self.seed = seed
        self.expect = expect
        self.checks = checks
        self.root = root
        self.env = child_env(src)
        self.workdir = root / ".bench_run" / "cli"
        self.path = self.workdir / "k3.alg"
        self.extra = []
        self.ring = None
        self.in_process = False  # traced runs time in-process cli.run calls

    def command(self, *args) -> list[str]:
        return [sys.executable, "-m", "jordankit.cli", *args]

    def setup(self, tracer=NULL_TRACER):
        """Write the algebra file with ``jordankit example`` (and the seeded basis)."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        proc, _ = spawn(self.command("example", "jordanified-m2", "--field", f"p={self.p}",
                                     "--out", str(self.path)), self.env, self.root)
        self.checks.check("example exit code", proc.returncode == 0, str(proc.returncode))
        if self.seed != 0:
            k, e11 = seeded_ring(self.p, self.seed)
            jk_algebra.save_algebra(k, self.path)
            # the 0/1 sweep of the CLI need not find the rescaled e11
            self.extra = ["--idempotent", ",".join(str(int(c)) for c in e11.coords)]
        if tracer.enabled:
            self.ring = build_ring(self.p, self.seed, self.checks, tracer)

    def argv(self, mode: str) -> list[str]:
        return ["audit", str(self.path), "--n", "2", "--mode", mode, *self.extra]

    def iterate(self, tracer, sampler=None) -> Iteration:
        """One call per mode; the pass's verdict time is the mean time of a call."""
        it = Iteration(tracer, sampler)
        pinned = self.seed == 0
        total = 0.0
        for mode in self.modes:
            it.poll()
            if self.in_process:
                elapsed, code, out = self.run_in_process(it, mode)
            else:
                proc, elapsed = spawn(self.command(*self.argv(mode)), self.env, self.root)
                code, out = proc.returncode, proc.stdout
            total += elapsed
            check_cli_stdout(self.checks, f"audit {mode}", code, out, self.expect[mode], pinned)
        it.verdict_times.append(total / len(self.modes))
        return it

    def run_in_process(self, it: Iteration, mode: str):
        """cli.run(argv) inside this process, with the search objects recorded."""
        def recording(make):
            return lambda *args, **kwargs: it.stream(make(*args, **kwargs))

        patches = [
            (jk_cli, "enumerate_multiplicative_bijections", recording),
            (jk_cli, "enumerate_n_derivations", recording),
            (jk_cli, "peirce_decompose", "peirce.decompose"),
        ] if it.tracer.enabled else []
        buf = io.StringIO()
        with instrumented(it.tracer, patches), contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            with it.tracer.span("cli.run"):
                report = jk_cli.run(self.argv(mode))
            elapsed = time.perf_counter() - start
        it.cli_run_times.append(elapsed)
        return elapsed, report.exit_code, buf.getvalue().encode("utf-8")


def startup_times(checks: Checks, env: dict, root: Path) -> dict:
    """Median wall time of a bare interpreter and of ``import jordankit``."""
    out = {}
    for key, code in (("cli.interpreter_s", "pass"), ("cli.import_s", "import jordankit")):
        times = []
        for _ in range(STARTUP_REPS):
            proc, elapsed = spawn([sys.executable, "-c", code], env, root)
            checks.check(f"{key} exit code", proc.returncode == 0, str(proc.returncode))
            times.append(elapsed)
        out[key] = statistics.median(times)
    return out


WORKLOADS = {
    "k5_derivations_n2": K5Derivations,
    "k5_bijections_n2": K5Bijections,
    "k3_degree3": K3Degree3,
    "cli_audit": CliAudit,
}


def make_workload(name, seed, expect, checks, root, src):
    cls = WORKLOADS[name]
    if cls is CliAudit:
        return cls(seed, expect, checks, root, src)
    return cls(seed, expect, checks)


# ---------------------------------------------------------------------------
# measurement


def settle():
    """Free the garbage of the previous step, so each timed step starts alike.

    Rings and carriers refer to each other, so only the cyclic collector
    frees a discarded one; left to its own timing, it would make both the
    next step's time and the peak RSS depend on when it happened to run.
    """
    gc.collect()


def timed_setups(workload, tracer_factory) -> tuple[list[float], list]:
    """One window of set-ups: at least SETUP_MIN_REPS of them and SETUP_MIN_SECONDS."""
    times, tracers = [], []
    began = time.perf_counter()
    while True:
        tracer = tracer_factory()
        settle()
        start = time.perf_counter()
        workload.setup(tracer)
        times.append(time.perf_counter() - start)
        tracers.append(tracer)
        reps = len(times)
        if reps >= SETUP_MAX_REPS or (
            reps >= SETUP_MIN_REPS and time.perf_counter() - began >= SETUP_MIN_SECONDS
        ):
            return times, tracers


class SetupSampler:
    """Times set-ups spread over a whole run rather than in one window.

    The host's speed drifts over seconds, so set-ups timed in one window
    would time a single moment of it, while a K/F5 pass lasts most of a
    run. So a set-up is also timed between the steps of a pass (between
    two tables of a search, two reductions or two CLI calls) whenever
    SETUP_INTERVAL_S has passed, and less often if set-ups would take more
    than SETUP_MAX_SHARE of the time. ``setup_once()`` does one set-up and
    returns its duration.
    """

    def __init__(self, setup_once):
        self.setup_once = setup_once
        self.times: list[float] = []
        self.next_due = 0.0

    def window(self, reps: int):
        for _ in range(reps):
            self.poll(force=True)

    def poll(self, force: bool = False) -> float:
        """Time one set-up if one is due; return the seconds spent (0.0 if none)."""
        began = time.perf_counter()
        if not force and began < self.next_due:
            return 0.0
        duration = self.setup_once()
        self.times.append(duration)
        ended = time.perf_counter()
        self.next_due = ended + max(SETUP_INTERVAL_S, duration / SETUP_MAX_SHARE)
        return ended - began


class SetupHelper:
    """A child process that builds the ring on request, for in-process workloads.

    Set-ups timed in the middle of a pass run here, so that their tables
    neither add to the benchmark process's peak RSS nor replace the ring
    the pass is using. The pass waits for each reply, so the two processes
    never run at the same time.
    """

    def __init__(self, command: list, env: dict, cwd: Path, checks: Checks):
        self.checks = checks
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, cwd=cwd, text=True)

    def setup_once(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"set-up helper ended with code {self.proc.wait()}")
        reply = json.loads(line)
        self.checks.attempted += reply["attempted"]
        self.checks.failed += reply["failed"]
        self.checks.failures.extend(reply["failures"][: 20 - len(self.checks.failures)])
        return reply["seconds"]

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def serve_setups(p: int, seed: int) -> int:
    """The set-up helper's loop: one timed build_ring per line read from stdin."""
    for _ in sys.stdin:
        checks = Checks()
        settle()
        start = time.perf_counter()
        build_ring(p, seed, checks)
        seconds = time.perf_counter() - start
        reply = {"seconds": seconds, "attempted": checks.attempted, "failed": checks.failed,
                 "failures": checks.failures}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


def closed_loop(seconds: float, step) -> list:
    """Call step() back to back while the next call is expected to fit in the window.

    At least one call is made, so a verdict longer than the window still
    completes; the run then lasts about one verdict.
    """
    results, durations = [], []
    began = time.perf_counter()
    while True:
        settle()
        start = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - start)
        if time.perf_counter() - began + statistics.median(durations) > seconds:
            return results


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
