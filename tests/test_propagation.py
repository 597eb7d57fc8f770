"""The closure plans against a per-element forcing queue.

Both closures compute the same least fixpoint on a partial table. The
engine closes the candidates of a sibling group at once, as rows over
shared columns laid out by cached domain plans, ahead of its walk, and
stops once a table is complete, where the queue walks one node at a
time, closes one candidate at a time and runs on; re-verification
rejects any complete table the queue would refute. So a search must
emit the same tables in the same order, expand the same nodes and end
in the same budget state with either one, and also when every plan is
rebuilt.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jordankit import (
    Algebra,
    SearchBudget,
    carrier_of,
    enumerate_multiplicative_bijections,
    enumerate_n_derivations,
    prime_field,
)
from jordankit import search as search_module

import oracles
from strategies import f3_algebras


def run_tables(stream):
    return [tuple(t.index_table().tolist()) for t in stream]


def run(search):
    return run_tables(search), search.nodes, search.exhausted, search.budget_exceeded


def assert_same_run(search):
    reference = oracles.reference_search(search)
    got = run(search)
    assert got == run(reference)
    # the oracle's own hooks filtered and closed every node, not the
    # engine's plans and prefilter
    assert reference.closed >= got[1] and not reference._plans and not reference._prefilters
    assert not reference._lower_plans
    return got


def make_search(algebra, kind, n, **kwargs):
    if kind == "bijections":
        return enumerate_multiplicative_bijections(algebra, algebra, n, **kwargs)
    return enumerate_n_derivations(algebra, n, **kwargs)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["bijections", "derivations"])
def test_kf3_matches_reference(kf3, kind, n):
    tables, nodes, exhausted, _ = assert_same_run(make_search(kf3, kind, n))
    assert exhausted
    assert len(tables) == {"bijections": 48, "derivations": 27}[kind]
    assert nodes == {"bijections": 556, "derivations": 369}[kind]


@pytest.mark.parametrize("kind", ["bijections", "derivations"])
def test_node_budget_matches_reference(kf3, kind):
    search = make_search(kf3, kind, 2, budget=SearchBudget(max_nodes=40))
    _, nodes, exhausted, budget_exceeded = assert_same_run(search)
    assert budget_exceeded and not exhausted
    assert nodes == 40


@settings(max_examples=60, deadline=None, database=None)
@given(f3_algebras(), st.sampled_from(["bijections", "derivations"]), st.integers(2, 3), st.data())
def test_budget_stops_match_reference(algebra, kind, n, data):
    # the walk closes later siblings ahead of reaching them; a budget stop
    # drops that work, and the stream, the node count and the budget state
    # must be those of the queue's one-node-at-a-time walk
    full = make_search(algebra, kind, n, budget=SearchBudget(max_nodes=300))
    run(full)
    max_nodes = data.draw(st.sampled_from([1, 2]) | st.integers(1, full.nodes or 1))
    max_witnesses = data.draw(st.none() | st.integers(0, 3))
    budget = SearchBudget(max_nodes=max_nodes, max_witnesses=max_witnesses)
    assert_same_run(make_search(algebra, kind, n, budget=budget))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["bijections", "derivations"])
def test_node_budget_trips_on_entry_to_a_surviving_child(kf3, kind, n):
    # the first node survives and is no leaf: the walk counts it, enters
    # it and stops there on the budget, before closing anything below it
    search = make_search(kf3, kind, n, budget=SearchBudget(max_nodes=1))
    x = int(np.flatnonzero(search._image(search.root) == -1)[0])
    (kids,) = search._close_siblings([search.root], x, search._candidates([search.root], x))
    assert kids[0] is not None and children(search, kids[0])
    assert assert_same_run(search)[1:] == (1, False, True)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind,calls,prefilters", [("bijections", 6, 6), ("derivations", 6, 5)])
def test_closure_count_per_sibling_group(kf3, kind, n, calls, prefilters, monkeypatch):
    # the surviving children of one closure call are prefiltered and
    # closed together: closing each node's candidates on their own took
    # 221 and 128 closure calls (d(0) = 0 seeding included), and each
    # state's children together 87 and 48, with 100 and 47 prefilter
    # calls; a group whose candidates the prefilter all refutes makes no
    # closure call
    count = {"_close_siblings": 0, "_candidates": 0}
    for name in count:
        hook = getattr(search_module._TableSearch, name)

        def counting(*args, name=name, hook=hook):
            count[name] += 1
            return hook(*args)

        monkeypatch.setattr(search_module._TableSearch, name, counting)
    tables, nodes, _, _ = run(make_search(kf3, kind, n))
    assert (len(tables), nodes) == {"bijections": (48, 556), "derivations": (27, 369)}[kind]
    assert (count["_close_siblings"], count["_candidates"]) == (calls, prefilters)


@pytest.mark.parametrize("rows", [None, 16])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["bijections", "derivations"])
def test_look_ahead_is_one_group_per_depth(kf3, kind, n, rows, monkeypatch):
    # the walk closes a group when it reaches the group's first state, so
    # up to the first table it closes at most one group at each depth on
    # the way down; a walk that closed whole levels first would not stop
    # there. A K/F3 level is one group unless groups are cut to a few rows
    if rows:
        monkeypatch.setattr(search_module, "_GATHER_CHUNK", rows * carrier_of(kf3).size)
    first = run(make_search(kf3, kind, n))[0][:1]
    search = make_search(kf3, kind, n, budget=SearchBudget(max_witnesses=1))
    depth = {id(search.root): 0}
    kept, depths = [], []
    close = search._close_siblings

    def tracking(states, x, vs):
        kids = close(states, x, vs)
        d = depth[id(states[0])]
        depths.append(d)
        for kid in filter(None, sum(kids, [])):
            kept.append(kid)  # holds each id to its state
            depth[id(kid)] = d + 1
        return kids

    monkeypatch.setattr(search, "_close_siblings", tracking)
    stream = iter(search)
    tables = [tuple(next(stream).index_table().tolist())]
    before = list(depths)
    tables += run_tables(stream)
    assert sorted(set(before)) == before
    assert tables == first and search.budget_exceeded and not search.exhausted
    got = (tables, search.nodes, search.exhausted, search.budget_exceeded)
    assert got == run(oracles.reference_search(search))


@pytest.mark.parametrize("kind", ["bijections", "derivations"])
@pytest.mark.parametrize("name,n", [("f3xf3", 2), ("f3xf3", 3), ("m2f3", 2)])
def test_small_and_noncommutative_match_reference(request, name, n, kind):
    algebra = request.getfixturevalue(name)
    _, _, exhausted, _ = assert_same_run(make_search(algebra, kind, n))
    assert exhausted


@pytest.mark.parametrize("domain,codomain", [("kf3", "m2f3"), ("m2f3", "kf3")])
def test_one_noncommutative_carrier_keeps_both_orders(request, domain, codomain):
    # x t and t x force X T and T X, which differ in M2 however the domain
    # multiplies: a gather over the triangle alone loses those checks
    search = enumerate_multiplicative_bijections(
        request.getfixturevalue(domain), request.getfixturevalue(codomain), 2)
    assert not search.commutative
    tables, _, exhausted, _ = assert_same_run(search)
    assert tables == [] and exhausted
    assert_plans_match_full_gather(search)


def test_chunked_gathers_match_reference(kf3, monkeypatch):
    # a tiny chunk splits nearly every gather of the degree-3 closure
    monkeypatch.setattr(search_module, "_GATHER_CHUNK", 7)
    search = enumerate_n_derivations(kf3, 3, budget=SearchBudget(max_nodes=120))
    _, nodes, _, _ = assert_same_run(search)
    assert nodes == 120


def state(node):
    """The contents of a DFS state value, as lists."""
    return [t.tolist() for t in node.ts], [s.tolist() for s in node.ss]


F3_UNIT = [[[1]]]  # F3 itself: b0 b0 = b0
F3_TWICE = [[[2]]]  # b0 b0 = 2 b0


CONFLICTS = [
    # 0 * 0 = 0 is checked against img[0] = 2 itself: 2 * 2 = 1
    (F3_UNIT, "bijections", 0, 2, "clash with an assigned image"),
    # d(b1) = b1 forces two images on one element
    ([[[0, 1], [1, 2]], [[0, 2], [2, 2]]], "derivations", 1, 1, "two images for one element"),
    # after img[0] = 0
    (F3_UNIT, "bijections", 1, 0, "image already taken"),
    (F3_TWICE, "bijections", 1, 2, "image taken earlier in the closure"),
    ([[[2, 1], [2, 0]], [[0, 0], [1, 2]]], "bijections", 1, 5, "image taken twice in a round"),
]


def test_frontier_conflicts_fail_and_leave_the_state(monkeypatch):
    for table, kind, x, v, conflict in CONFLICTS:
        dim = len(table)
        algebra = Algebra(prime_field(3), tuple(f"b{i}" for i in range(dim)), table)
        search = make_search(algebra, kind, 2)
        node = search.root
        if x and kind == "bijections":
            ((node,),) = search._close_siblings([node], 0, [[0]])
        before = state(node)
        assert search._close_siblings([node], x, [[v]]) == [[None]], conflict
        assert state(node) == before  # a refuted row changes nothing
        if conflict.startswith("clash"):
            rnd = search._plan(*search._state(node, x))
            # nothing forced, one check: 0 * 0 against the image of 0
            assert rnd.elements.size == 0 and rnd.want.tolist() == [0]
        elif conflict.startswith("two"):
            assert not search.bijective  # no injectivity test at all
        else:
            # the only conflict is injectivity: without it the row survives
            monkeypatch.setattr(search, "_taken", lambda owner, rows, images, at:
                                np.zeros(len(rows), dtype=bool))
            assert search._close_siblings([node], x, [[v]]) != [[None]], conflict
            monkeypatch.undo()
        # a surviving sibling is a new state, and the parent stays as it was
        (kids,) = search._close_siblings([node], x, search._candidates([node], x))
        for kid in filter(None, kids):
            assert state(kid) != before
            assert state(node) == before


def children(search, node):
    """The states below node, one per surviving candidate of its first free element."""
    x = int(np.flatnonzero(search._image(node) == -1)[0])
    (kids,) = search._close_siblings([node], x, search._candidates([node], x))
    return [kid for kid in kids if kid is not None]


@pytest.mark.parametrize("kind", ["bijections", "derivations"])
def test_extend_leaves_the_parent_state_unchanged(kf3, kind):
    # at n = 3 a state also holds level-2 pairs
    search = make_search(kf3, kind, 3)
    node, steps = search.root, 0
    while node.ts[0].size < search.size:
        before = state(node)
        below = children(search, node)
        assert state(node) == before
        assert not any(a.flags.writeable for a in (*node.ts, *node.ss))
        if not below:
            break
        node, steps = below[-1], steps + 1
    assert steps > 2 and node.ts[1].size


@pytest.mark.parametrize("kind", ["bijections", "derivations"])
def test_sibling_searches_run_interleaved(kf3, kind):
    # two DFS generators from sibling states of one search, advanced in
    # turn, yield what each yields alone; they share the plan caches
    search = make_search(kf3, kind, 2)
    node = search.root
    while True:  # down to the first node where two siblings yield tables
        below = children(search, node)
        one_after_other = [run_tables(search._dfs(child)) for child in below]
        yielding = [child for child, tables in zip(below, one_after_other) if tables]
        if len(yielding) > 1:
            break
        (node,) = yielding
    interleaved = [[] for _ in below]
    live = dict(enumerate(search._dfs(child) for child in below))
    while live:
        for i, dfs in list(live.items()):
            table = next(dfs, None)
            if table is None:
                del live[i]
            else:
                interleaved[i].append(tuple(table.index_table().tolist()))
    assert interleaved == one_after_other
    # above the siblings, no other subtree yields a table
    assert sum(one_after_other, []) == run(make_search(kf3, kind, 2))[0]


def test_verify_rejects_tables_the_closure_left_unchecked(monkeypatch):
    # b0 * b0 = 2 b0 over F3: d(b0) = c b0 forces d(2 b0) = c b0, which
    # completes the table before the closure reaches d(b0 * 2 b0); only the
    # zero map is a derivation, so re-verification must reject the others.
    algebra = Algebra(prime_field(3), ("b0",), [[[2]]])
    search = make_search(algebra, "derivations", 2)
    verify = search._verify
    rejected = []

    def counting_verify(table):
        ok = verify(table)
        if not ok:
            rejected.append(tuple(table.index_table().tolist()))
        return ok

    monkeypatch.setattr(search, "_verify", counting_verify)
    tables, nodes, exhausted, _ = assert_same_run(search)
    assert tables == [(0, 0, 0)] and nodes == 3 and exhausted
    assert rejected == [(0, 1, 1), (0, 2, 2)]

    unverified = make_search(algebra, "derivations", 2)
    monkeypatch.setattr(unverified, "_verify", lambda table: True)
    assert run(unverified)[0] == [(0, 0, 0), (0, 1, 1), (0, 2, 2)]


@settings(max_examples=80, deadline=None, database=None)
@given(f3_algebras(), st.sampled_from(["bijections", "derivations"]), st.integers(2, 3))
def test_random_tables_match_reference(algebra, kind, n):
    assert_same_run(make_search(algebra, kind, n, budget=SearchBudget(max_nodes=150)))


@settings(max_examples=40, deadline=None, database=None)
@given(f3_algebras(), st.sampled_from(["bijections", "derivations"]), st.integers(2, 3))
def test_plans_are_value_independent(algebra, kind, n):
    # a plan cached at one closure state must serve every closure that
    # reaches the state: rebuilding it at every round changes nothing
    def fresh():
        return make_search(algebra, kind, n, budget=SearchBudget(max_nodes=150))

    rebuilt = fresh()
    rebuilt._plan = rebuilt._build_plan
    rebuilt._lower = lambda i, ts, old, keys: rebuilt._build_lower(
        i, old[0], old[i], ts[0], ts[i], ts[i + 1])
    rebuilt._plans.clear()  # the plans that seeded d(0) = 0
    rebuilt._lower_plans.clear()
    assert run(fresh()) == run(rebuilt)
    assert not rebuilt._plans and not rebuilt._lower_plans


def full_gather_plan(search, key):
    """The fields of the plan keyed by key, from the whole top-level gather.

    The products are laid out one by one in semi-naive order, and the
    gather is cut after the first product that completes the table. At
    level 1 (n = 2) over commutative carriers, x t and t x are one
    product: the new x meet the new t <= x only. Returns the fields as
    lists and whether the gather was cut.
    """
    old, ts = key
    ts = [np.frombuffer(t, dtype=np.int64).tolist() for t in ts]
    top = search.n - 2
    base, level_t = ts[0], ts[top]
    rows = [search.dom.mul.tolist(), search.cod.mul.tolist()]
    unordered = top == 0 and all(r == [list(c) for c in zip(*r)] for r in rows)
    products = [(e, t) for e in range(old[0], len(base)) for t in range(old[top])]
    if unordered:
        products += [(e, t) for e in range(old[0], len(base)) for t in range(old[0], e + 1)]
    else:
        products += [(e, t) for e in range(len(base)) for t in range(old[top], len(level_t))]
    column = {x: i for i, x in enumerate(base)}
    need = search.size - len(base)
    checked, target, free, firsts = [], [], [], {}
    for e, t in products:
        z = rows[0][base[e]][level_t[t]]
        if z in column:
            checked.append((e, t))
            target.append(column[z])
            continue
        free.append((e, t, z))
        firsts.setdefault(z, len(free) - 1)
        if len(firsts) == need:
            break
    elements = sorted(firsts)
    order = [firsts[z] for z in elements]
    order += sorted(set(range(len(free))) - set(order))
    products = [free[j][:2] for j in order] + checked
    want = [len(base) + elements.index(free[j][2]) for j in order] + target
    fields = ([base[e] for e, _ in products], [e for e, _ in products],
              [level_t[t] for _, t in products], [t for _, t in products], want, elements)
    return fields, len(firsts) == need


def assert_plans_match_full_gather(search):
    """Every plan the search built equals the full-gather one, field for
    field and dtype for dtype; returns whether each was cut."""
    cut = []
    for key, plan in search._plans.items():
        expected, complete = full_gather_plan(search, key)
        got = (plan.cols.ex, plan.cols.ex_pos, plan.cols.t, plan.cols.t_pos,
               plan.want, plan.elements)
        assert [a.tolist() for a in got] == list(expected)
        assert [a.dtype for a in got[:-1]] == [np.dtype(np.int32)] * 5
        cut.append(complete)
    return cut


@settings(max_examples=40, deadline=None, database=None)
@given(f3_algebras(), st.sampled_from(["bijections", "derivations"]), st.integers(2, 3))
def test_plans_match_the_full_gather(algebra, kind, n):
    # the block scan stops at the product that completes the table; the
    # first closure of a search, from one base element, never completes it
    search = make_search(algebra, kind, n, budget=SearchBudget(max_nodes=150))
    run(search)
    assert False in assert_plans_match_full_gather(search)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["bijections", "derivations"])
def test_kf3_plans_match_the_full_gather(kf3, kind, n):
    search = make_search(kf3, kind, n)
    run(search)
    assert set(assert_plans_match_full_gather(search)) == {False, True}


def traced_run(search):
    """The number of tables search yields, and the peak of memory traced meanwhile.

    The tables are counted, not kept: as tuples they would take 3.6 MiB
    on K/F5.
    """
    tracemalloc.start()
    try:
        count = sum(1 for _ in search)
        return count, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind,tables,nodes", [("derivations", 125, 4025),
                                               ("bijections", 240, 7376)])
def test_search_peak_memory(kf5, kind, tables, nodes):
    # the last plans of a K/F5 search are cut after 15 040 of their
    # 160 820 top-level products, one per unordered pair; laying out the
    # 321 200 of both orders whole peaked at 9.2 MiB
    carrier_of(kf5).mul
    search = make_search(kf5, kind, 2)
    count, peak = traced_run(search)
    assert (count, search.nodes, search.exhausted) == (tables, nodes, True)
    assert peak < 4 * 2**20


@pytest.mark.parametrize("kind,tables,nodes", [("derivations", 27, 369),
                                               ("bijections", 48, 556)])
def test_degree_3_look_ahead_peak_memory(kf3, kind, tables, nodes):
    # each depth of a K/F3 search is one group, whose closure holds its
    # value matrices in uint8 and evaluates the rule on at most
    # _GATHER_CHUNK values at a time: 0.9 MiB, where int64 values read
    # 1.55-2.3 MiB
    carrier_of(kf3).mul
    search = make_search(kf3, kind, 3)
    count, peak = traced_run(search)
    assert (count, search.nodes, search.exhausted) == (tables, nodes, True)
    assert peak < 1.25 * 2**20


@pytest.mark.parametrize("n,plans", [(2, 12), (3, 9)])
def test_plan_count_repeats(kf3, n, plans):
    # every closure at one depth starts from the same state, so a whole
    # search builds a few plans per depth
    search = make_search(kf3, "bijections", n)
    tables, nodes, _, _ = run(search)
    assert (len(tables), nodes) == (48, 556)
    assert len(search._plans) == plans


@pytest.mark.parametrize("n,lower", [(3, 9), (4, 18)])
@pytest.mark.parametrize("kind", ["bijections", "derivations"])
def test_lower_plan_count_repeats(kf3, kind, n, lower):
    # the levels below the top meet as few domain states as the top; a
    # key that read values would show as a count that grows with the nodes
    search = make_search(kf3, kind, n)
    run(search)
    assert len(search._lower_plans) == lower
    assert_lower_plans_match_their_keys(search)


def lower_fields(plan):
    return (plan.cols.ex, plan.cols.ex_pos, plan.cols.t, plan.cols.t_pos,
            plan.t, plan.repeat, plan.first, plan.rest)


def assert_lower_plans_match_their_keys(search):
    """Every cached lower plan equals the one built from its key alone,
    field for field and dtype for dtype; its t, repeat, first and rest
    also match a loop over its products."""
    for key, plan in search._lower_plans.items():
        i, old_base, old, *keys = key
        base, level_t, above = (np.frombuffer(k, dtype=np.int64) for k in keys)
        rebuilt = search._build_lower(i, old_base, old, base, level_t, above)
        for got, want in zip(lower_fields(plan), lower_fields(rebuilt)):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
        mul = search.dom.mul.tolist()
        t = above.tolist() + [mul[x][y] for x, y in zip(plan.cols.ex.tolist(),
                                                          plan.cols.t.tolist())]
        firsts, repeat, first = {}, [], []
        for c, z in enumerate(t):
            firsts.setdefault(z, c)
            if c >= above.size and firsts[z] != c:
                repeat.append(c)
                first.append(firsts[z])
        assert plan.t.tolist() == t
        assert (plan.repeat.tolist(), plan.first.tolist()) == (repeat, first)
        assert plan.rest.tolist() == sorted(set(range(len(t))) - set(repeat))


@settings(max_examples=40, deadline=None, database=None)
@given(f3_algebras(), st.sampled_from(["bijections", "derivations"]), st.integers(3, 4))
def test_lower_plans_match_their_keys(algebra, kind, n):
    search = make_search(algebra, kind, n, budget=SearchBudget(max_nodes=150))
    run(search)
    assert_lower_plans_match_their_keys(search)


def test_plans_are_keyed_by_the_state(f3xf3):
    # one element, two assigned prefixes: the plan cached for the first
    # must not serve the second
    search = make_search(f3xf3, "bijections", 2)
    on_empty = search._plan(*search._state(search.root, 1))
    ((child,),) = search._close_siblings([search.root], 0, [[0]])
    closure = search._state(child, 1)
    assert search._plan(*closure) is not on_empty
    assert search._plan(*closure).elements.tolist() == \
        search._build_plan(*closure).elements.tolist()
    assert len(search._plans) == 3


def assert_closures_match(search, rng):
    """Walk a random path; the prefilters must keep the same values, the
    closures must refute what the queue refutes, and every level must
    hold the queue's pairs as a set."""
    reference = oracles.reference_search(search)
    node, ref_node = search.root, reference.root
    while True:
        x = int(np.flatnonzero(search._image(node) == -1)[0])
        vs = search._candidates([node], x)
        assert vs == reference._candidates([ref_node], x)
        (kids,) = search._close_siblings([node], x, vs)
        (ref_kids,) = reference._close_siblings([ref_node], x, vs)
        for kid, ref_kid in zip(kids, ref_kids):
            if kid is None:
                assert ref_kid is None
            elif ref_kid is None:  # the engine stops at a complete table
                assert kid.ts[0].size == search.size
        survivors = [pair for pair in zip(kids, ref_kids) if pair[0] is not None]
        if not survivors:
            return
        node, ref_node = survivors[rng.integers(len(survivors))]
        if node.ts[0].size == search.size:
            return
        for k in range(2, search.n):
            pairs, ref_pairs = (set(zip(n.ts[k - 1].tolist(), n.ss[k - 1].tolist()))
                                for n in (node, ref_node))
            assert pairs == ref_pairs


@pytest.mark.parametrize("seed", range(3))
def test_closed_pairs_match_reference(seed):
    # random general tables: a product of a pair found in a round with an
    # element assigned before it, once lost, shows on these paths
    rng = np.random.default_rng(seed)
    for _ in range(10):
        dim = int(rng.integers(2, 4))
        table = rng.integers(0, 3, (dim, dim, dim)).tolist()
        algebra = Algebra(prime_field(3), tuple(f"b{i}" for i in range(dim)), table)
        for n in (4, 5):
            for kind in ("bijections", "derivations"):
                assert_closures_match(make_search(algebra, kind, n), rng)


def test_plans_are_keyed_by_every_level(kf3):
    # two states with one base and as many level-2 pairs, in another order
    search = make_search(kf3, "bijections", 3)
    node = search.root
    for x in (0, 1, 2):
        (kids,) = search._close_siblings([node], x, search._candidates([node], x))
        node = next(filter(None, kids))
    ts, old = search._state(node, 3)
    assert len(set(ts[1].tolist())) > 1
    swapped = [ts[0], ts[1][::-1].copy()]
    plan = search._plan(ts, old)
    assert search._plan(swapped, old) is not plan
    assert search._plan(swapped, old).want.tolist() == \
        search._build_plan(swapped, old).want.tolist()


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 7), st.booleans(), st.data())
def test_semi_naive_ranges_split_the_gather(old_base, new, level_size, unordered, data):
    # the block scan and the prefilter lay a gather out range by range;
    # the unordered one is at level 1, with the base as its pairs
    base = 3 * np.arange(old_base + new, dtype=np.int64) + 1
    if unordered:
        level_t, old = base, old_base
    else:
        level_t = 5 * np.arange(level_size, dtype=np.int64) + 2
        old = data.draw(st.integers(0, level_size))
    pairs = [(e, t) for e in range(old_base, base.size) for t in range(old)]
    if unordered:
        pairs += [(e, t) for e in range(old_base, base.size) for t in range(old_base, e + 1)]
    else:
        pairs += [(e, t) for e in range(base.size) for t in range(old, level_t.size)]
    whole = search_module._semi_naive(base, old_base, level_t, old, unordered=unordered)
    assert list(zip(whole.ex_pos.tolist(), whole.t_pos.tolist())) == pairs
    assert whole.ex.tolist() == base[whole.ex_pos].tolist()
    assert whole.t.tolist() == level_t[whole.t_pos].tolist()
    cuts = sorted(data.draw(st.lists(st.integers(0, len(pairs)), max_size=4)))
    bounds = [0, *cuts, len(pairs)]
    parts = [search_module._semi_naive(base, old_base, level_t, old, lo, hi, unordered)
             for lo, hi in zip(bounds, bounds[1:])]
    assert [len(part) for part in parts] == np.diff(bounds).tolist()
    for name in ("ex", "ex_pos", "t", "t_pos"):
        got = np.concatenate([getattr(part, name) for part in parts])
        assert got.dtype == np.int32 and got.tolist() == getattr(whole, name).tolist()
    if unordered:  # every pair of base columns with a new one, once, in one order
        assert sorted(tuple(sorted(p)) for p in pairs) == \
            [(a, b) for a in range(base.size) for b in range(max(a, old_base), base.size)]


def first_of_t(t, s, old):
    """The first-of-t dedup of a round's lower plan on the pairs (t, s)."""
    plan = search_module._Lower(None, t, *search_module._repeats(t, old))
    return plan.distinct(s, old)


def test_new_pairs_repeating_in_every_row_are_dropped():
    t = np.array([5, 5, 7, 5, 5, 7, 8, 5, 5])
    s = np.array([[1, 1, 2, 1, 1, 2, 0, 1, 1],
                  [3, 3, 4, 3, 9, 4, 0, 9, 8]])
    # old columns 0-2 stay as they are, repeats included; column 3 repeats
    # column 0 in both rows, column 5 repeats column 2; column 4 differs
    # from column 0 in the second row. Column 7 differs from column 0, the
    # first of its t, but repeats column 4; column 8 repeats nothing
    for dedup in (search_module._distinct, first_of_t):
        got_t, got_s = dedup(t, s, 3)
        assert got_t.tolist() == [5, 5, 7, 5, 8, 5]
        assert got_s.tolist() == [[1, 1, 2, 1, 0, 1], [3, 3, 4, 9, 0, 8]]


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(1, 4), st.integers(0, 12), st.data())
def test_first_of_t_dedup_is_distinct(rows, size, data):
    # few distinct t and few values, so that columns repeat one another
    # and the comparison with the first of a t fails in some rows
    t = np.array(data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)),
                 dtype=np.int64)
    s = np.array(data.draw(st.lists(st.integers(0, 2), min_size=rows * size,
                                    max_size=rows * size)), dtype=np.int64).reshape(rows, size)
    old = data.draw(st.integers(0, size))
    got, want = first_of_t(t, s, old), search_module._distinct(t, s, old)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tolist() == b.tolist()


@pytest.mark.parametrize("kind", ["bijections", "derivations"])
def test_degree_4_pair_lists_stay_bounded(kf3, kind, monkeypatch):
    # pairs indexed by derivation grow as m^k with m assigned elements;
    # deduplicated, a level holds at most one pair per (t, s)
    search = make_search(kf3, kind, 4, budget=SearchBudget(max_nodes=150))
    peak = [0] * 3
    close = search._close_siblings

    def counting_close(states, x, vs):
        kids = close(states, x, vs)
        for child in filter(None, sum(kids, [])):
            peak[:] = map(max, peak, (t.size for t in child.ts))
        return kids

    monkeypatch.setattr(search, "_close_siblings", counting_close)
    assert_same_run(search)
    assert max(peak[1:]) <= search.size**2
