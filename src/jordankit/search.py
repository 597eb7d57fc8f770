"""Exhaustive enumeration of multiplicative bijections and derivations.

Both searches assign images to carrier elements in lexicographic order,
depth first, and close every assignment under the constraints of the
canonical monomial x1(x2(...(x_{n-1} x_n))). The closure works on pairs
(t, s): a level-k pair says that a level-k monomial over assigned
elements has value t and that the map must send t to s. Level 1 holds
the base pairs (x, img x); a level-(k+1) pair is a step of an assigned x
onto a level-k pair; a level-n pair forces img[t] = s.

The closure is semi-naive and runs in rounds over whole frontiers. Each
round commits the forced images found so far, then gathers, level by
level, only the products that involve something new: (new x) x (old
level-k pairs) and (all x) x (new level-k pairs). A round fails when a
forced image clashes with an assigned one, when one element is forced
to two images, or, for bijections, when an image is taken twice. The
closure is a least fixpoint and a conflict is a property of the closed
set, so neither depends on the order of computation.

The closure stops once every element has an image. Re-verification is
its last step: each complete table is checked by the maps-module
predicate of its kind and yielded only if it passes, which decides every
product the closure did not gather. That predicate implies the canonical
identity, so a table that a full closure would have refuted is rejected
here instead; the stream and the node count are the same either way, and
the stream is sound independently of the pruning logic. An additive
table is decided on generators and basis tuples, not on every carrier
tuple (see maps).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .algebra import ENUMERATION_CAP, Algebra, Element
from .carrier import carrier_of
from .errors import ArityMismatch, CarrierSizeMismatch, PreconditionViolated
from .maps import DerivationTable, MapTable, is_additive, is_n_derivation, is_n_multiplicative
from .peirce import PeirceDecomposition, check_theorem_conditions


@dataclass
class SearchBudget:
    """Limits for one enumeration run; exceeding any is a reported state."""

    max_nodes: int | None = None
    max_seconds: float | None = None
    max_witnesses: int | None = None

    def __post_init__(self):
        for name in ("max_nodes", "max_seconds"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError(f"{name} must be positive, got {v}")
        if self.max_witnesses is not None and self.max_witnesses < 0:
            raise ValueError(f"max_witnesses must be >= 0, got {self.max_witnesses}")


# Elements per gather in one propagation step. Bounds peak memory where many
# new elements meet many level-k pairs (n >= 3 on large carriers).
_GATHER_CHUNK = 1 << 18


def _gather(table: np.ndarray, rows, cols) -> np.ndarray:
    """table[rows, cols] for broadcasting index arrays, as one flat take."""
    return table.take(rows * table.shape[1] + cols)


class _TableSearch:
    """Shared DFS engine; subclasses fix the forcing step and the output."""

    bijective = False

    def __init__(self, domain: Algebra, codomain: Algebra, n: int,
                 budget: SearchBudget | None, cap: int, tree_mode: str):
        if n < 2:
            raise ArityMismatch(f"search needs monomial degree >= 2, got {n}")
        self.domain = domain
        self.codomain = codomain
        self.n = n
        self.tree_mode = tree_mode
        self.budget = budget or SearchBudget()
        dom = carrier_of(domain, cap)
        cod = carrier_of(codomain, cap)
        if self.bijective and dom.size != cod.size:
            raise CarrierSizeMismatch(
                f"no bijection between carriers of sizes {dom.size} and {cod.size}"
            )
        self.dom = dom
        self.cod = cod
        self.size = dom.size
        self.np_mul = dom.mul
        self.np_cod_mul = cod.mul
        self.np_cod_add = cod.add
        self._arange = np.arange(cod.size, dtype=np.int64)
        # search state: pairs[i][:, :counts[i]] holds the level-(i + 1)
        # pairs (t, s); level 1 is the assignment itself, in commit order.
        # seen[i] marks the pairs of pairs[i] by code t * cod.size + s.
        pair_cap = dom.size * cod.size
        self.img = np.full(self.size, -1, dtype=np.int64)
        self.used = np.zeros(cod.size, dtype=bool)
        self.pairs = [np.empty((2, self.size), dtype=np.int64)]
        self.pairs += [np.empty((2, pair_cap), dtype=np.int64) for _ in range(2, n)]
        self.counts = [0] * (n - 1)
        self.seen = [None] + [np.zeros(pair_cap, dtype=bool) for _ in range(2, n)]
        self.trail: list[list[int]] = []  # counts before each round
        self.domains: dict[int, list[int]] = {}
        # run record
        self.nodes = 0
        self.exhausted = False
        self.budget_exceeded = False
        self.witnesses_emitted = 0
        self._started = None

    # -- subclass hooks ----------------------------------------------------

    def _step(self, xs, vs, ts, ss):
        """(mul[xs, ts], forced image of xs * ts) for img xs = vs, img ts = ss.

        Arguments broadcast against each other like numpy index arrays.
        """
        raise NotImplementedError

    def _emit(self):
        raise NotImplementedError

    def _verify(self, table) -> bool:
        raise NotImplementedError

    # -- propagation ------------------------------------------------------

    def _assign(self, x: int, v: int) -> bool:
        """Set img[x] = v and close under forcing; False on a conflict.

        The state changes stay on the trail either way; _undo reverts them.
        """
        xs = np.array([x], dtype=np.int64)
        vs = np.array([v], dtype=np.int64)
        while xs.size:
            old = self.counts.copy()
            self.trail.append(old)
            if not self._commit(xs, vs):
                return False
            if self.counts[0] == self.size:
                return True  # complete: _verify decides the unchecked products
            forced = self._propagate(old)
            if forced is None:
                return False
            xs, vs = forced
        return True

    def _commit(self, xs: np.ndarray, vs: np.ndarray) -> bool:
        """Assign a frontier of unassigned elements; False if it is inconsistent.

        The frontier is committed before it is checked, so that _undo
        reverts a failed commit like any other.
        """
        if self.bijective and self.used[vs].any():
            return False  # an image already taken
        self.img[xs] = vs
        clash = False
        if xs.size > 1:
            clash = (self.img[xs] != vs).any()  # one element, two images
            new = np.zeros(self.size, dtype=bool)
            new[xs] = True
            xs = np.flatnonzero(new)
            vs = self.img[xs]
        m = self.counts[0]
        self.pairs[0][0, m:m + xs.size] = xs
        self.pairs[0][1, m:m + xs.size] = vs
        self.counts[0] = m + xs.size
        if clash:
            return False
        if self.bijective:
            self.used[vs] = True
            if np.count_nonzero(self.used) < self.counts[0]:
                return False  # an image taken twice within the frontier
        return True

    def _propagate(self, old: list[int]):
        """One semi-naive round after a commit; old holds the counts before it.

        Returns the forced images of unassigned elements as (xs, vs), or
        None when a forced image clashes with an assigned one. The top
        level stops gathering as soon as the forced elements cover every
        unassigned one: that frontier completes the table, and _verify
        decides the products left unchecked.
        """
        xs, vs = self.pairs[0][:, :self.counts[0]]
        new_x = slice(old[0], None)
        top = self.n - 2
        forced_x, forced_v = [], []
        hit = np.zeros(self.size, dtype=bool)
        free = self.size - self.counts[0]
        for i in range(top + 1):  # pairs[i] -> pairs[i + 1], or forced at the top
            pairs = self.pairs[i]
            for ex, ev, ts, ss in (
                (xs[new_x], vs[new_x], *pairs[:, :old[i]]),
                (xs, vs, *pairs[:, old[i]:self.counts[i]]),
            ):
                if not ex.size or not ts.size:
                    continue
                chunk = max(1, _GATHER_CHUNK // ex.size)
                for lo in range(0, ts.size, chunk):
                    hi = lo + chunk
                    z, t = self._step(ex[:, None], ev[:, None], ts[None, lo:hi], ss[None, lo:hi])
                    z, t = z.ravel(), t.ravel()
                    if i < top:
                        self._add_pairs(i + 1, z, t)
                        continue
                    have = self.img.take(z)
                    fresh = have != t  # an agreeing image is no news
                    if (have[fresh] != -1).any():
                        return None
                    forced_x.append(z[fresh])
                    forced_v.append(t[fresh])
                    hit[forced_x[-1]] = True
                    if np.count_nonzero(hit) == free:
                        return np.concatenate(forced_x), np.concatenate(forced_v)
        if not forced_x:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.concatenate(forced_x), np.concatenate(forced_v)

    def _add_pairs(self, i: int, ts: np.ndarray, ss: np.ndarray):
        """Append to pairs[i] those of the pairs (ts, ss) it does not hold yet."""
        nc = self.cod.size
        seen = self.seen[i]
        codes = ts * nc + ss
        codes = np.unique(codes[~seen[codes]])
        seen[codes] = True
        c = self.counts[i]
        self.pairs[i][0, c:c + codes.size] = codes // nc
        self.pairs[i][1, c:c + codes.size] = codes % nc
        self.counts[i] = c + codes.size

    def _undo(self, mark: int):
        """Revert every round recorded on the trail after position mark."""
        if len(self.trail) <= mark:
            return
        old = self.trail[mark]
        del self.trail[mark:]
        xs, vs = self.pairs[0][:, old[0]:self.counts[0]]
        self.img[xs] = -1
        if self.bijective:
            self.used[vs] = False
        for i in range(1, self.n - 1):
            ts, ss = self.pairs[i][:, old[i]:self.counts[i]]
            self.seen[i][ts * self.cod.size + ss] = False
        self.counts = old

    # -- candidate filtering -------------------------------------------------

    def _candidates(self, x: int) -> list[int]:
        """Images of x not refuted by the degree-2 step on x and an assigned element.

        For n = 2 this is a pure prefilter: a value it drops violates the
        canonical identity on a pair of assigned elements, so no table
        with that image would pass _verify, and the emitted stream and
        its order are unchanged (survivors stay in ascending order). The
        n-ary identity does not imply the degree-2 step for n >= 3, where
        this drops solutions: -id is 3-multiplicative but not
        multiplicative.
        """
        vs = self._arange
        mask = ~self.used if self.bijective else np.ones(self.cod.size, dtype=bool)
        restricted = self.domains.get(x)
        if restricted is not None:
            allowed = np.zeros(self.cod.size, dtype=bool)
            allowed[restricted] = True
            mask &= allowed
        z, t = self._step(x, vs, x, vs)
        if z == x:
            mask &= t == vs
        elif self.img[z] != -1:
            mask &= t == self.img[z]
        m = self.counts[0]
        if m:
            ys, ws = self.pairs[0][:, :m]
            zs_xy = self.np_mul[x, ys]
            have_xy = np.where(zs_xy == x, -2, self.img[zs_xy])
            rel = have_xy != -1
            if rel.any():
                _, t_xy = self._step(x, vs[:, None], ys[rel], ws[rel])  # (N, R)
                want = have_xy[rel][None, :]
                want = np.where(want == -2, vs[:, None], want)
                mask &= (t_xy == want).all(axis=1)
            zs_yx = self.np_mul[ys, x]
            have_yx = np.where(zs_yx == x, -2, self.img[zs_yx])
            rel = have_yx != -1
            if rel.any():
                _, t_yx = self._step(ys[rel][:, None], ws[rel][:, None], x, vs)  # (R, N)
                want = have_yx[rel][:, None]
                want = np.where(want == -2, vs[None, :], want)
                mask &= (t_yx == want).all(axis=0)
        return np.flatnonzero(mask).tolist()

    # -- DFS ----------------------------------------------------------------

    def _over_budget(self) -> bool:
        b = self.budget
        if b.max_nodes is not None and self.nodes >= b.max_nodes:
            return True
        if b.max_seconds is not None and time.monotonic() - self._started >= b.max_seconds:
            return True
        if b.max_witnesses is not None and self.witnesses_emitted >= b.max_witnesses:
            return True
        return False

    def _dfs(self):
        if self._over_budget():
            self.budget_exceeded = True
            return
        free = np.flatnonzero(self.img == -1)
        if not free.size:
            table = self._emit()
            if self._verify(table):
                self.witnesses_emitted += 1
                yield table
            return
        x = int(free[0])
        for v in self._candidates(x):
            self.nodes += 1
            mark = len(self.trail)
            if self._assign(x, v):
                yield from self._dfs()
            self._undo(mark)
            if self.budget_exceeded:
                return
            if self._over_budget():
                self.budget_exceeded = True
                return

    def __iter__(self):
        self._started = time.monotonic()
        yield from self._dfs()
        if not self.budget_exceeded:
            self.exhausted = True


class MultiplicativeBijectionSearch(_TableSearch):
    """All bijective tables with phi(m(x...)) = m(phi(x)...) canonically."""

    bijective = True

    def _step(self, xs, vs, ts, ss):
        # phi(x * t) = phi(x) * phi(t)
        return _gather(self.np_mul, xs, ts), _gather(self.np_cod_mul, vs, ss)

    def _emit(self):
        return MapTable(self.domain, self.codomain, table=self.img.copy())

    def _verify(self, table) -> bool:
        return bool(is_n_multiplicative(table, self.n, tree_mode=self.tree_mode))


class DerivationSearch(_TableSearch):
    """All total tables satisfying the canonical n-derivation identity."""

    bijective = False

    def _step(self, xs, vs, ts, ss):
        # d(x * t) = d(x) * t + x * d(t)
        mul = self.np_mul
        target = _gather(self.np_cod_add, _gather(mul, vs, ts), _gather(mul, xs, ss))
        return _gather(mul, xs, ts), target

    def _emit(self):
        return DerivationTable(self.domain, table=self.img.copy())

    def _verify(self, table) -> bool:
        return bool(is_n_derivation(table, self.n, tree_mode=self.tree_mode))


def enumerate_multiplicative_bijections(
    domain: Algebra,
    codomain: Algebra,
    n: int,
    budget: SearchBudget | None = None,
    tree_mode: str = "canonical",
    cap: int = ENUMERATION_CAP,
) -> MultiplicativeBijectionSearch:
    """Depth-first enumeration of n-multiplicative bijections; iterate to run."""
    return MultiplicativeBijectionSearch(domain, codomain, n, budget, cap, tree_mode)


def enumerate_n_derivations(
    a: Algebra,
    n: int,
    budget: SearchBudget | None = None,
    idempotent: Element | None = None,
    decomposition: PeirceDecomposition | None = None,
    tree_mode: str = "canonical",
    cap: int = ENUMERATION_CAP,
) -> DerivationSearch:
    """Depth-first enumeration of tables satisfying the n-derivation identity.

    d(0) = 0 is pre-seeded (it is forced by the identity on the all-zero
    tuple). When an idempotent is registered, the image of e is restricted
    to the half eigenspace; that is where d(e) provably lands whenever the
    field is (n-1)-torsion free, so register it only under that hypothesis.
    """
    search = DerivationSearch(a, a, n, budget, cap, tree_mode)
    if not search._assign(0, 0):
        raise PreconditionViolated("seeding d(0) = 0 failed; inconsistent tables")
    if idempotent is not None:
        from .peirce import peirce_decompose

        dec = decomposition if decomposition is not None else peirce_decompose(a, idempotent)
        if dec.idempotent != idempotent:
            raise PreconditionViolated("decomposition does not match the idempotent")
        e_idx = search.dom.index_of(idempotent)
        half = search.dom.span_indices(dec.basis_half)
        search.domains[e_idx] = [int(v) for v in half]
    return search


@dataclass
class AuditReport:
    """Outcome of auditing an enumeration stream for additivity."""

    witnesses_found: int
    all_additive: bool
    nonadditive_witnesses: list
    exhausted: bool
    hypothesis_record: object = None
    budget_exceeded: bool = False
    tables: list = field(default_factory=list)  # every audited table, in stream order

    def __post_init__(self):
        if self.all_additive != (not self.nonadditive_witnesses):
            raise ValueError("all_additive must mirror the nonadditive witness list")


def additivity_audit(stream, hypotheses: PeirceDecomposition | None = None) -> AuditReport:
    """Run is_additive on every emitted table and summarize the outcome.

    ``exhausted`` and ``budget_exceeded`` come from the stream's run record,
    read after the last table. A stream without one, such as a plain list
    of tables, is reported as not exhausted: nothing says it holds every
    witness.
    """
    hypothesis_record = (
        check_theorem_conditions(hypotheses) if hypotheses is not None else None
    )
    tables = []
    nonadditive = []
    for table in stream:
        tables.append(table)
        if not is_additive(table):
            nonadditive.append(table)
    return AuditReport(
        witnesses_found=len(tables),
        all_additive=not nonadditive,
        nonadditive_witnesses=nonadditive,
        exhausted=bool(getattr(stream, "exhausted", False)),
        hypothesis_record=hypothesis_record,
        budget_exceeded=bool(getattr(stream, "budget_exceeded", False)),
        tables=tables,
    )
