"""Exhaustive enumeration of multiplicative bijections and derivations.

Both searches assign images to carrier elements in lexicographic order,
depth first, and close every assignment under the canonical monomial
x1(x2(...(x_{n-1} x_n))) by the node rule of the maps predicates: if x
and t map to X and T, x t maps to rule(x, X, t, T), which is X T for a
bijection and X t + x T for a derivation. The closure works on pairs
(t, s): a level-k pair says that a level-k monomial over assigned
elements has value t and that the map must send t to s. Level 1 holds
the base pairs (x, img x); an assigned x steps onto a level-k pair to
give (x t, rule(x, img x, t, s)); a level-n pair forces img[t] = s.

The closure is semi-naive and runs in rounds. Each round takes the
images forced in the last one as new base pairs and gathers, level by
level, only the products that involve something new: (new x) x (old
level-k pairs) and (all x) x (new level-k pairs), where a level's new
pairs include those the level below found in the same round. At level 1
over commutative carriers x t and t x are one product, and both node
rules force one image on it, so the second block there is the triangle
(new x) x (new t <= x): each unordered pair once. A noncommutative
domain or codomain keeps both orders. The top level's products force
images. A round fails when a forced image clashes with an assigned one,
when one element is forced to two images, or, for bijections, when an
image is taken twice. The closure is a least fixpoint and a conflict is
a property of the closed set, so neither depends on the order of
computation.

Which elements a round touches does not depend on the value v tried for
the branching element x: a product z = mul[x, t] is a domain product, an
element is forced exactly when it is an unassigned z, and the stop rules
count elements. So the top-level gather of a round splits into a domain
plan and a value side. The plan (_Round, built once per state and cached
on the search) lists the operand positions of every product, with the
first occurrence of each forced element ahead of the rest, and for each
product the base column its image must equal: the forced elements take
the columns after the base, and a product that lands on an assigned
element is checked against that element's column. A round that completes
the table needs its gather only up to the product that completes it, so
the plan scans the products in blocks, the first of the N - |base|
products that completing the table takes and each later one twice as
long, and lays out none past that product: the last plan of a K/F5 n = 2
derivation search stops after 15 040 of its 160 820 products. The value
side runs the rounds of a closure for many candidates at once, one row
per candidate over shared columns. A round evaluates the node rule once
per product and row: the images of the first occurrences extend the
row's columns, every image is compared with the column the plan names,
and a row is dropped at its first conflict. Each surviving row is a
child state as it is, its values a row of the closure's matrices, and is
searched below without being closed again. A DFS state (_State) is a
value that nothing changes, so nothing is undone on the way back, and
DFS runs from sibling states of one search may interleave.

The candidates of x are prefiltered in the same terms: with the assigned
elements followed by x as the base, the level-1 gather of x as the one
new base element holds x y and x x for every assigned y, and y x too
over noncommutative carriers. The products that land on a base element
are checked against its image, one row per state and value tried, with
the value in x's column. Which products those are depends only on the
base, so they are cached per base, apart from the plans: a plan's gather
is cut once the table is complete, and the prefilter checks every
product.

The children that survive one closure call share their domain state:
the assigned elements and the t of every level, and so the next x, the
prefilter's products and the plans. Only their values differ. So the
walk expands them together, as a sibling group: one prefilter over the
rows (state, allowed value) and one closure over the rows (state,
candidate), each row taking its assigned prefix and, for bijections,
its owners from its own state. A group holds at most _GATHER_CHUNK // N
rows; a state with more candidates is a group alone, so the candidates
of one state are closed in one call and its children form a group
again. The walk counts nodes and checks the budget where a plain DFS
does, on entry to a state and after each of its candidates, refuted or
not, and descends in the same order, so the stream, the node count and
the budget state are those of a DFS that closes one node at a time. A
group is closed when the walk reaches its first state: the closures of
its later states are computed ahead of the walk and dropped if the
budget stops it first. On K/F3 a bijection search makes 87 closure
calls and a derivation search 48, at n = 2 and 3, where closing each
node's candidates on their own took 221 and 128.

For n >= 3 a state also holds the t of the pairs at each level >= 2;
s is per row. A new pair that repeats an earlier one, the same t and row
by row the same s, is dropped: in every row it only repeats a
constraint. For a single row this keeps one pair per (t, s), at most
N^2 a level, where pairs indexed by derivation would number m^k with m
assigned elements. Which pairs are dropped depends on the values, so the
t of every level are part of a plan's key. The gathers below the top
level have domain plans too (_Lower, cached apart from the top-level
ones): the products, the t of the pairs they give, and for each new pair
whose t occurred earlier the first pair with that t. A round evaluates
the node rule on the cached products and drops a new pair that equals
the first pair of its t in every row; only where some pair differs from
its first does the full comparison (_distinct) run, on what is left.
On K/F3 at n = 3 every repeated t repeats its first pair, and a K/F5
n = 3 bijection search runs _distinct in 1 of its 699 level-2 gathers.
The closures at one depth start from one state: a K/F3 bijection search
builds 12 plans at n = 2, and 9 plans and 9 lower plans at n = 3.

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

import itertools
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .algebra import Algebra
from .carrier import carrier_of
from .errors import CarrierSizeMismatch
from .maps import (
    DerivationTable,
    MapTable,
    _check_degree,
    _derivation_rule,
    _homomorphism_rule,
    _table_op,
    is_additive,
    is_n_derivation,
    is_n_multiplicative,
)
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
            if v is not None and not v > 0:
                raise ValueError(f"{name} must be positive, got {v}")
        if self.max_witnesses is not None and not self.max_witnesses >= 0:
            raise ValueError(f"max_witnesses must be >= 0, got {self.max_witnesses}")


# Products of one gather evaluated at once, counted over all candidate rows.
# Bounds the temporaries of a rule call where many candidates meet many
# products (n >= 3 on large carriers); the rows' values themselves, one
# per pair, and for bijections one owner per codomain element, are not
# chunked. It also bounds a sibling group to _GATHER_CHUNK // N rows, so
# that its values and owners, up to N a row, stay within it: a closure
# call holds that many rows unless one state's candidates are more, and a
# prefilter chunk that many or one state's allowed values.
_GATHER_CHUNK = 1 << 18


@dataclass
class _Columns:
    """Products ex * t of one gather, with the value columns of their operands.

    ex_pos is the base-pair column of the stepping element ex, and t_pos
    the column of the pair (t, s) it extends, at the gather's level.
    """

    ex: np.ndarray
    ex_pos: np.ndarray
    t: np.ndarray
    t_pos: np.ndarray

    def __len__(self) -> int:
        return self.ex.size

    def __getitem__(self, cols) -> _Columns:
        return _Columns(self.ex[cols], self.ex_pos[cols], self.t[cols], self.t_pos[cols])


def _blocks(base: np.ndarray, old_base: int, level_t: np.ndarray, old: int, unordered: bool):
    """The two blocks of a semi-naive gather, as (x0, t0, w, size).

    Row r of a block is the x at base column x0 + r times the pairs at
    columns t0 .. t0 + w - 1, or t0 .. t0 + r where w is None.
    """
    new = base.size - old_base
    yield old_base, 0, old, new * old
    if unordered:
        yield old_base, old, None, new * (new + 1) // 2
    else:
        yield 0, old, level_t.size - old, base.size * (level_t.size - old)


def _triangle_row(a: int) -> int:
    """The row of product a in a triangle whose row r holds r + 1 products."""
    return (math.isqrt(8 * a + 1) - 1) // 2


def _semi_naive(base: np.ndarray, old_base: int, level_t: np.ndarray, old: int,
                lo: int = 0, hi: int = sys.maxsize, unordered: bool = False) -> _Columns:
    """The products (new x) x (old pairs), then (all x) x (new pairs), row-major,
    from product lo up to hi (all of them by default).

    The first old_base base elements and the first old pairs, whose t are
    level_t, are old. An unordered gather is one at level 1 (level_t is
    base and old is old_base) over commutative carriers, where x t and t x
    are one product with one forced image: its second block is the
    triangle (new x) x (new t <= x), since (old x) x (new t) mirrors the
    first block and the new t > x mirror later rows. Only the rows of x
    that hold a product in the range are laid out, so the full range costs
    one repeat per block, as a plain layout would. The arrays are int32: a
    plan keeps its columns for the whole search.
    """
    ex_pos, t_pos = [], []
    for x0, t0, w, n in _blocks(base, old_base, level_t, old, unordered):
        a, b = max(lo, 0), min(hi, n)
        if a < b:
            if w is None:
                r0, r1 = _triangle_row(a), _triangle_row(b - 1) + 1
                width = np.arange(r0 + 1, r1 + 1, dtype=np.int32)
                skip = r0 * (r0 + 1) // 2
                ex = np.repeat(np.arange(x0 + r0, x0 + r1, dtype=np.int32), width)
                t = (np.arange(ex.size, dtype=np.int32)
                     - np.repeat(np.cumsum(width, dtype=np.int32) - width, width) + t0)
            else:
                r0, r1 = a // w, -(-b // w)
                skip = r0 * w
                ex = np.repeat(np.arange(x0 + r0, x0 + r1, dtype=np.int32), w)
                t = np.tile(np.arange(t0, t0 + w, dtype=np.int32), r1 - r0)
            if b - a < ex.size:  # the range starts or ends inside a row
                ex, t = ex[a - skip:b - skip], t[a - skip:b - skip]
            ex_pos.append(ex)
            t_pos.append(t)
        lo, hi = lo - n, hi - n
    if not ex_pos:
        ex_pos = t_pos = [np.empty(0, dtype=np.int32)]
    ex_pos, t_pos = np.concatenate(ex_pos), np.concatenate(t_pos)
    return _Columns(base[ex_pos].astype(np.int32), ex_pos, level_t[t_pos].astype(np.int32), t_pos)


def _distinct(t: np.ndarray, s: np.ndarray, old: int):
    """The pairs (t, s) without the new columns (from old on) that repeat one in every row.

    s holds one row per candidate. A column is dropped when an earlier
    column has the same t and, row by row, the same s: in every row it
    only repeats a constraint. A round runs it only on the columns that
    _Lower.distinct leaves, and only when some of them may still repeat.
    """
    key = np.vstack([t, s])
    order = np.lexsort(key)  # stable: a run of equal columns starts at its first
    runs = key[:, order]
    keep = np.ones(t.size, dtype=bool)
    keep[order[1:][(runs[:, 1:] == runs[:, :-1]).all(axis=0)]] = False
    keep[:old] = True
    return t[keep], s[:, keep]


def _repeats(t: np.ndarray, old: int):
    """The columns of t for _Lower: repeat, the new columns (from old on)
    whose t occurs in an earlier column; first, the first column with the
    t of each; rest, all the others. All are int32 positions."""
    _, first, group = np.unique(t, return_index=True, return_inverse=True)
    first = first[group.ravel()]
    again = first != np.arange(t.size)
    again[:old] = False
    repeat, rest = np.flatnonzero(again), np.flatnonzero(~again)
    return repeat.astype(np.int32), first[repeat].astype(np.int32), rest.astype(np.int32)


def _chunks(cols: _Columns, step: int):
    """(j, cols[j:j + step]) for every chunk of cols; cols itself if it fits in one."""
    if len(cols) <= step:
        return [(0, cols)]
    return ((j, cols[j:j + step]) for j in range(0, len(cols), step))


@dataclass
class _Round:
    """The domain side of a closure round's top-level gather, for every row.

    The gather starts from a state: the base elements (the t of the base
    pairs) and the t of the pairs at each level >= 2, each list split
    into an old prefix and a new rest. Its products are those of
    _semi_naive at the top level. The round's forced elements, in order,
    take the columns after the base. cols holds the first occurrence of
    each forced element, in that order, then the other products that force
    one, then the products on a base element. The image of product j must
    equal base column want[j]: for a first occurrence that is its own
    column, which it fills.
    """

    cols: _Columns
    want: np.ndarray
    elements: np.ndarray


@dataclass
class _Lower:
    """The domain side of a closure round's gather at level i + 1 below the top.

    cols are the products of _semi_naive at that level, and t the t of the
    level-(i + 2) pairs: the old ones, then z = mul[ex, t] for each
    product. repeat lists the new columns whose t occurs in an earlier
    column, first the first column with the t of each, and rest the other
    columns (see _repeats).
    """

    cols: _Columns
    t: np.ndarray
    repeat: np.ndarray
    first: np.ndarray
    rest: np.ndarray

    def distinct(self, s: np.ndarray, old: int):
        """What _distinct(self.t, s, old) returns, s holding one row per candidate.

        A new column that equals the first column of its t in every row
        is dropped, and _distinct runs on what is left only if some column
        differs from its first. That is exact: a column that repeats a
        dropped column repeats that column's first too, so it is dropped
        here as well, and a column whose t is new repeats nothing.
        """
        same = s.take(self.repeat, axis=1) == s.take(self.first, axis=1)
        if same.all():
            return self.t.take(self.rest), s.take(self.rest, axis=1)
        keep = np.ones(self.t.size, dtype=bool)
        keep[self.repeat[same.all(axis=0)]] = False
        return _distinct(self.t[keep], s[:, keep], old)


@dataclass(frozen=True)
class _State:
    """A node of the DFS, never changed once made: its arrays are read-only.

    ts[i] and ss[i] are the t and s of the level-(i + 1) pairs in the
    order rounds added them; level 1 is the assignment, so ts[0] holds the
    assigned elements and ss[0] their images. The children of one closure
    share ts, and each child's ss are its rows of the closure's value
    matrices, so a child that is not yet searched costs only its rows.
    """

    ts: tuple
    ss: tuple

    def __post_init__(self):
        for a in (*self.ts, *self.ss):
            a.flags.writeable = False


class _TableSearch:
    """Shared DFS engine; subclasses fix the node rule and the output."""

    bijective = False

    def __init__(self, domain: Algebra, codomain: Algebra, n: int, budget: SearchBudget | None):
        _check_degree(n)
        self.domain = domain
        self.codomain = codomain
        self.n = n
        self.budget = budget or SearchBudget()
        dom = carrier_of(domain)
        cod = carrier_of(codomain)
        if self.bijective and dom.size != cod.size:
            raise CarrierSizeMismatch(
                f"no bijection between carriers of sizes {dom.size} and {cod.size}"
            )
        self.dom = dom
        self.cod = cod
        self.size = dom.size
        self.mul = _table_op(dom.mul)
        # x t and t x force one image when both products commute
        self.commutative = all(np.array_equal(c.mul, c.mul.T) for c in (dom, cod))
        self.rule = self._rule()
        empty = tuple(np.empty(0, dtype=np.int64) for _ in range(1, n))
        self.root = _State(empty, empty)
        self._plans: dict[tuple, _Round] = {}
        self._lower_plans: dict[tuple, _Lower] = {}
        self._prefilters: dict[bytes, tuple[_Columns, np.ndarray]] = {}
        # rows of a sibling group: its values and owners hold N columns a row
        self._group_rows = max(1, _GATHER_CHUNK // self.size)
        # run record
        self.nodes = 0
        self.exhausted = False
        self.budget_exceeded = False
        self.witnesses_emitted = 0
        self._started = None

    # -- subclass hooks ----------------------------------------------------

    def _rule(self):
        """The maps-module node rule: rule(x, img x, t, img t) is the image
        x * t is forced to, on index arrays that broadcast like numpy's."""
        raise NotImplementedError

    def _emit(self, img: np.ndarray):
        raise NotImplementedError

    def _verify(self, table) -> bool:
        raise NotImplementedError

    # -- closure plans -------------------------------------------------------

    def _plan(self, ts: list, old: list) -> _Round:
        """The cached plan of the top-level gather from the state (ts, old)."""
        key = (tuple(old), tuple(t.tobytes() for t in ts))
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._build_plan(ts, old)
        return plan

    def _build_plan(self, ts: list, old: list) -> _Round:
        """Gather the top level on domain elements alone.

        A product on a base element is a check, and the distinct other
        ones are the round's forced elements. At n = 2 the top level is
        level 1, unordered on commutative carriers. The products are
        scanned in blocks for the one that completes the table: the first
        block holds the N - |base| products that must each force a new
        element to complete it, and each later block twice the one before.
        The gather is cut after that product, or used whole if the table
        stays incomplete. None of this reads an image.
        """
        top = self.n - 2
        base = ts[0]
        gather = (base, old[0], ts[top], old[top])
        unordered = self.commutative and top == 0
        stop = sum(n for *_, n in _blocks(*gather, unordered))
        seen = np.zeros(self.size, dtype=bool)
        seen[base] = True
        lo = 0
        missing = width = self.size - base.size
        while True:
            cols = _semi_naive(*gather, lo, lo + width, unordered)
            z = self.mul(cols.ex, cols.t)
            if stop - lo <= missing:  # only the last product could complete the table
                break
            new = np.flatnonzero(~seen[z])
            fresh, first = np.unique(z[new], return_index=True)
            if fresh.size == missing:  # complete: cut the gather
                stop = lo + new[first.max()] + 1
                break
            if lo + width >= stop:  # incomplete: use it whole
                break
            seen[fresh] = True
            missing -= fresh.size
            lo, width = lo + width, 2 * width
        if lo:  # the gather used spans blocks: lay it out from the start
            cols = _semi_naive(*gather, 0, stop, unordered)
            z = self.mul(cols.ex, cols.t)
        else:
            cols, z = cols[:stop], z[:stop]
        want = self._base_column(base, z)
        checked = np.flatnonzero(want != -1)
        free = np.flatnonzero(want == -1)
        elements, first, group = np.unique(z[free], return_index=True, return_inverse=True)
        want[free] = base.size + group
        rest = np.ones(free.size, dtype=bool)
        rest[first] = False
        order = np.concatenate([free[first], free[rest], checked])
        return _Round(cols[order], want[order].astype(np.int32), elements)

    def _lower(self, i: int, ts: list, old: list, keys: list) -> _Lower:
        """The cached plan of the level-(i + 1) gather from the state (ts, old).

        keys[k] is ts[k].tobytes(). The key holds everything the plan
        reads: the base, the t of the pairs it steps onto and those of the
        pairs one level up, and the old prefixes of the first two.
        """
        key = (i, old[0], old[i], keys[0], keys[i], keys[i + 1])
        plan = self._lower_plans.get(key)
        if plan is None:
            plan = self._lower_plans[key] = self._build_lower(
                i, old[0], old[i], ts[0], ts[i], ts[i + 1])
        return plan

    def _build_lower(self, i: int, old_base: int, old: int, base: np.ndarray,
                     level_t: np.ndarray, above: np.ndarray) -> _Lower:
        """Gather level i + 1 on domain elements alone: level 1 is the one
        unordered level. above holds the t of the level-(i + 2) pairs,
        all old."""
        cols = _semi_naive(base, old_base, level_t, old, unordered=self.commutative and not i)
        t = np.concatenate([above, self.mul(cols.ex, cols.t)])
        return _Lower(cols, t, *_repeats(t, above.size))

    def _base_column(self, base: np.ndarray, z: np.ndarray) -> np.ndarray:
        """The base column each element of z is at, or -1 off the base."""
        pos = np.full(self.size, -1, dtype=np.int64)
        pos[base] = np.arange(base.size)
        return pos[z]

    # -- closing the candidates of a sibling group -------------------------------

    def _targets(self, cols: _Columns, vals: list, i: int) -> np.ndarray:
        """The forced images of the products cols at level i + 1, one row per candidate."""
        return self.rule(cols.ex, vals[0].take(cols.ex_pos, axis=1),
                         cols.t, vals[i].take(cols.t_pos, axis=1))

    def _taken(self, owner: np.ndarray, rows: np.ndarray, images: np.ndarray, at: int):
        """Rows whose new images (base columns at..) are already taken or repeat.

        owner[row, v] is the base column that took image v, in the assigned
        prefix or in the row's closure so far, or -1; an image taken before,
        or two new columns writing one cell, is a conflict.
        """
        cols = np.arange(at, at + images.shape[1], dtype=owner.dtype)
        rows = rows[:, None]
        dead = (owner[rows, images] != -1).any(axis=1)
        owner[rows, images] = cols
        return dead | (owner[rows, images] != cols).any(axis=1)

    def _state(self, state: _State, x: int):
        """What a closure of img[x] below state starts from: all old but x.

        ts[0] are the assigned elements, then x, and ts[i] the t of the
        level-(i + 1) pairs; old gives the length of the old prefix of each.
        """
        return [np.concatenate([state.ts[0], [x]]), *state.ts[1:]], [t.size for t in state.ts]

    def _close_siblings(self, states: list, x: int, vs: list) -> list:
        """Close img[x] = v below sibling states, for every candidate v of each, at once.

        The states share ts; vs[k] lists the candidates of states[k].
        Returns, per state and candidate, None if the closure refutes it,
        else the child state. The rounds run with one row per (state,
        candidate): vals[0] holds the base-pair images by column (the
        assigned prefix, x, then each round's forced elements) and vals[i]
        the s of the level-(i + 1) pairs, and a row's prefix and, for
        bijections, its owners come from its own state. A round evaluates
        each level below the top on the products of its cached plan and
        keeps the new pairs that _Lower.distinct keeps, those that repeat
        no earlier pair in every row. Then it runs the top level by its
        plan, in one pass over its products: the images of the first
        occurrences extend vals[0], and each product's image is compared
        with the column it must equal. A row is dropped after the first
        round in which it conflicts: a product on a base element disagrees
        with its image, two products force one element to two images, or,
        for bijections, an image is taken twice. The closure ends when the
        table is complete or a round forces nothing. The surviving rows
        share the t of every level, so the children are siblings again.
        """
        counts = [len(v) for v in vs]
        sib = np.repeat(np.arange(len(states)), counts)
        cand = np.fromiter(itertools.chain.from_iterable(vs), dtype=np.int64, count=sib.size)
        ts, old = self._state(states[0], x)
        top = self.n - 2
        prefix = [np.array([state.ss[k] for state in states]) for k in range(len(ts))]
        live = np.arange(sib.size)
        if self.bijective:
            # base columns are below N: the narrowest signed type holding -N will do
            owner = np.full((sib.size, self.cod.size), -1, dtype=np.min_scalar_type(-self.size))
            owner[live[:, None], prefix[0][sib]] = np.arange(old[0], dtype=owner.dtype)
            live = live[~self._taken(owner, live, cand[:, None], old[0])]
        rows = sib[live]
        vals = [np.empty((live.size, old[0] + 1), dtype=np.int64), *(p[rows] for p in prefix[1:])]
        vals[0][:, :old[0]] = prefix[0][rows]
        vals[0][:, old[0]] = cand[live]
        keys = [None, *(t.tobytes() for t in ts[1:])]
        while live.size and old[0] < ts[0].size < self.size:
            step = max(1, _GATHER_CHUNK // live.size)
            if top:
                keys[0] = ts[0].tobytes()
            for i in range(top):
                low, above = self._lower(i, ts, old, keys), old[i + 1]
                s = np.empty((live.size, low.t.size), dtype=np.int64)
                s[:, :above] = vals[i + 1]
                for j, cols in _chunks(low.cols, step):
                    s[:, above + j:above + j + len(cols)] = self._targets(cols, vals, i)
                ts[i + 1], vals[i + 1] = low.distinct(s, above)
                keys[i + 1] = ts[i + 1].tobytes()
            rnd = self._plan(ts, old)
            ext = np.empty((live.size, ts[0].size + rnd.elements.size), dtype=np.int64)
            ext[:, :ts[0].size] = vals[0]
            vals[0], images = ext, ext[:, ts[0].size:]
            dead = np.zeros(live.size, dtype=bool)
            for j in range(0, len(rnd.cols), step):
                t = self._targets(rnd.cols[j:j + step], vals, top)
                firsts = images[:, j:j + step]
                firsts[...] = t[:, :firsts.shape[1]]
                dead |= (t != ext.take(rnd.want[j:j + step], axis=1)).any(axis=1)
            if self.bijective:
                dead |= self._taken(owner, live, images, ts[0].size)
            if dead.any():
                live, vals = live[~dead], [v[~dead] for v in vals]
            old = [t.size for t in ts]
            ts[0] = np.concatenate([ts[0], rnd.elements])
        ts, out = tuple(ts), [[None] * c for c in counts]
        first = list(itertools.accumulate(counts, initial=0))  # each state's first row
        sib = sib.tolist()
        for r, row in enumerate(live.tolist()):
            k = sib[row]
            out[k][row - first[k]] = _State(ts, tuple(v[r] for v in vals))
        return out

    # -- candidate filtering -------------------------------------------------

    def _candidates(self, states: list, x: int) -> list[list[int]]:
        """Per sibling state, the images of x not refuted by the degree-2
        step on x and an assigned element.

        For n = 2 this is a pure prefilter: a value it drops violates the
        canonical identity on a pair of assigned elements, so no table
        with that image would pass _verify, and the emitted stream and
        its order are unchanged (survivors stay in ascending order). The
        n-ary identity does not imply the degree-2 step for n >= 3, where
        this drops solutions: -id is 3-multiplicative but not
        multiplicative. One row per (state, allowed value) is checked, in
        chunks of _GATHER_CHUNK // N rows or of one state's rows.
        """
        m = states[0].ts[0].size
        base = np.concatenate([states[0].ts[0], [x]])
        key = base.tobytes()
        check = self._prefilters.get(key)
        if check is None:
            cols = _semi_naive(base, m, base, m, unordered=self.commutative)
            target = self._base_column(base, self.mul(cols.ex, cols.t))
            checked = np.flatnonzero(target != -1)
            check = self._prefilters[key] = (cols[checked], target[checked])
        cols, target = check
        assigned = np.array([state.ss[0] for state in states])
        allowed = self.cod.size - (m if self.bijective else 0)
        per = max(1, self._group_rows // allowed)
        out = []
        for k in range(0, len(states), per):
            prefix = assigned[k:k + per]
            free = np.ones((len(prefix), self.cod.size), dtype=bool)
            if self.bijective:
                free[np.arange(len(prefix))[:, None], prefix] = False  # the images taken
            sib, vs = np.nonzero(free)
            vals = np.empty((vs.size, m + 1), dtype=np.int64)
            vals[:, :m] = prefix[sib]
            vals[:, m] = vs
            ok = (self._targets(cols, [vals], 0) == vals.take(target, axis=1)).all(axis=1)
            ends = np.cumsum(np.bincount(sib[ok], minlength=len(prefix))).tolist()
            kept = vs[ok].tolist()
            out += [kept[a:b] for a, b in zip([0, *ends], ends)]
        return out

    # -- DFS ----------------------------------------------------------------

    def _image(self, state: _State) -> np.ndarray:
        """img[x] is the image of x under state, or -1 while x is unassigned."""
        img = np.full(self.size, -1, dtype=np.int64)
        img[state.ts[0]] = state.ss[0]
        return img

    def _over_budget(self) -> bool:
        b = self.budget
        if b.max_nodes is not None and self.nodes >= b.max_nodes:
            return True
        if b.max_seconds is not None and time.monotonic() - self._started >= b.max_seconds:
            return True
        if b.max_witnesses is not None and self.witnesses_emitted >= b.max_witnesses:
            return True
        return False

    def _ahead(self, states: list):
        """The children of each sibling state in turn, or None for a leaf.

        The states are the children of one closure call, so they share ts
        and with it x, the prefilter's products and the plans. One
        prefilter runs over all of them, then one closure for each group
        of states whose candidates make at most _GATHER_CHUNK // N rows; a
        state with more is a group alone. A state's candidates are closed
        in one call, so its children are siblings in the same sense. This
        is a generator: each group is closed when the walk asks for the
        children of its first state, and a budget stop drops the closures
        of later states that the group computed ahead.
        """
        ts = states[0].ts
        if ts[0].size == self.size:
            yield from [None] * len(states)
            return
        free = np.ones(self.size, dtype=bool)
        free[ts[0]] = False
        x = int(free.argmax())
        vs = self._candidates(states, x)
        a = 0
        while a < len(states):
            b, rows = a + 1, len(vs[a])
            while b < len(states) and rows + len(vs[b]) <= self._group_rows:
                rows, b = rows + len(vs[b]), b + 1
            if rows:
                yield from self._close_siblings(states[a:b], x, vs[a:b])
            else:  # the prefilter refuted every candidate
                yield from vs[a:b]
            a = b

    def _visit(self, state: _State, below):
        """The tables below state; next(below) gives state's children.

        The node count and the budget checks are those of a plain DFS: on
        entry to a state and after each of its candidates, counted whether
        the closure kept it or not.
        """
        if self._over_budget():
            self.budget_exceeded = True
            return
        kids = next(below)
        if kids is None:
            table = self._emit(self._image(state))
            if self._verify(table):
                self.witnesses_emitted += 1
                yield table
            return
        later = self._ahead([kid for kid in kids if kid is not None])
        for kid in kids:
            self.nodes += 1
            if kid is not None:
                yield from self._visit(kid, later)
            if self.budget_exceeded:
                return
            if self._over_budget():
                self.budget_exceeded = True
                return

    def _dfs(self, state: _State):
        """The tables below state, in lexicographic order."""
        return self._visit(state, self._ahead([state]))

    def __iter__(self):
        self._started = time.monotonic()
        yield from self._dfs(self.root)
        if not self.budget_exceeded:
            self.exhausted = True


class MultiplicativeBijectionSearch(_TableSearch):
    """All bijective tables with phi(m(x...)) = m(phi(x)...) canonically."""

    bijective = True

    def _rule(self):
        return _homomorphism_rule(_table_op(self.cod.mul))

    def _emit(self, img):
        return MapTable(self.domain, self.codomain, table=img)

    def _verify(self, table) -> bool:
        return bool(is_n_multiplicative(table, self.n))


class DerivationSearch(_TableSearch):
    """All total tables satisfying the canonical n-derivation identity."""

    def _rule(self):
        return _derivation_rule(self.mul, _table_op(self.cod.add))

    def _emit(self, img):
        return DerivationTable(self.domain, table=img)

    def _verify(self, table) -> bool:
        return bool(is_n_derivation(table, self.n))


def enumerate_multiplicative_bijections(
    domain: Algebra,
    codomain: Algebra,
    n: int,
    budget: SearchBudget | None = None,
) -> MultiplicativeBijectionSearch:
    """Depth-first enumeration of n-multiplicative bijections; iterate to run."""
    return MultiplicativeBijectionSearch(domain, codomain, n, budget)


def enumerate_n_derivations(
    a: Algebra,
    n: int,
    budget: SearchBudget | None = None,
) -> DerivationSearch:
    """Depth-first enumeration of tables satisfying the n-derivation identity.

    d(0) = 0 is pre-seeded (it is forced by the identity on the all-zero
    tuple). Its closure cannot conflict: every product with 0 is 0.
    """
    search = DerivationSearch(a, a, n, budget)
    ((search.root,),) = search._close_siblings([search.root], 0, [[0]])
    return search


@dataclass
class AuditReport:
    """Outcome of auditing an enumeration stream for additivity."""

    witnesses_found: int
    nonadditive_witnesses: list
    exhausted: bool
    hypothesis_record: object = None
    budget_exceeded: bool = False
    tables: list = field(default_factory=list)  # every audited table, in stream order

    @property
    def all_additive(self) -> bool:
        return not self.nonadditive_witnesses


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
        nonadditive_witnesses=nonadditive,
        exhausted=bool(getattr(stream, "exhausted", False)),
        hypothesis_record=hypothesis_record,
        budget_exceeded=bool(getattr(stream, "budget_exceeded", False)),
        tables=tables,
    )
