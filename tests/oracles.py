"""Independent brute-force oracles the library routes are checked against.

Everything here recomputes results from first principles (structure
table, raw coordinate arithmetic, full enumeration) without going
through the code paths under test. The reference searches at the end
replace the engine's candidate prefilter, its closure and its walk, and
share with it the budget checks, the output and re-verification.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from jordankit.algebra import monomial_eval
from jordankit.search import DerivationSearch, MultiplicativeBijectionSearch, _State


def raw_multiply(algebra, xc, yc):
    """Bilinear extension computed directly from the structure table."""
    f = algebra.field
    d = algebra.dim
    out = [f.zero()] * d
    for i in range(d):
        for j in range(d):
            c = f.mul(xc[i], yc[j])
            if f.is_zero(c):
                continue
            for k in range(d):
                out[k] = f.add(out[k], f.mul(c, algebra.table[i][j][k]))
    return tuple(out)


def carrier_coords(p, dim):
    return list(itertools.product(range(p), repeat=dim))


def product_lookup(algebra):
    """All pairwise carrier products of a prime-field algebra, as a dict."""
    p = algebra.field.characteristic
    elems = carrier_coords(p, algebra.dim)
    return {(x, y): raw_multiply(algebra, x, y) for x in elems for y in elems}


def jordan_exhaustive(algebra):
    """Elementwise scan of (x*x, y, x) = 0 over the full carrier, x and y."""
    p = algebra.field.characteristic
    elems = carrier_coords(p, algebra.dim)
    prod = product_lookup(algebra)
    zero = tuple([algebra.field.zero()] * algebra.dim)
    sub = lambda u, v: tuple(algebra.field.sub(a, b) for a, b in zip(u, v))
    for x in elems:
        sq = prod[(x, x)]
        for y in elems:
            lhs = prod[(prod[(sq, y)], x)]
            rhs = prod[(sq, prod[(y, x)])]
            if sub(lhs, rhs) != zero:
                return False
    return True


def ring_identity_sides(algebra, prop, x, y, z=None):
    """Both sides of a ring identity at raw coordinate tuples x, y (and z)."""
    m = lambda u, v: raw_multiply(algebra, u, v)
    if prop == "commutative":
        return m(x, y), m(y, x)
    if prop == "associative":
        return m(m(x, y), z), m(x, m(y, z))
    if prop == "flexible":
        return m(m(x, y), x), m(x, m(y, x))
    sq = m(x, x)  # the Jordan law
    return m(m(sq, y), x), m(sq, m(y, x))


def ring_identities_bruteforce(algebra):
    """The four verdicts of identity_report, from raw coordinates.

    Each identity is linear in a slot used once, so such a slot runs over
    the basis. x, used more than once in the flexible and Jordan laws,
    runs over the whole carrier. A Jordan algebra is commutative.
    """
    f = algebra.field
    d = algebra.dim
    basis = [tuple(f.one() if i == j else f.zero() for j in range(d)) for i in range(d)]
    carrier = carrier_coords(f.characteristic, d)

    def holds(prop, xs, *rest):
        return all(
            lhs == rhs
            for x in xs
            for args in itertools.product(*rest)
            for lhs, rhs in [ring_identity_sides(algebra, prop, x, *args)]
        )

    verdicts = {
        "commutative": holds("commutative", basis, basis),
        "associative": holds("associative", basis, basis, basis),
        "flexible": holds("flexible", carrier, basis),
        "jordan": holds("jordan", carrier, basis),
    }
    verdicts["jordan"] = verdicts["jordan"] and verdicts["commutative"]
    return verdicts


def commutative_exhaustive(algebra):
    p = algebra.field.characteristic
    elems = carrier_coords(p, algebra.dim)
    prod = product_lookup(algebra)
    return all(prod[(x, y)] == prod[(y, x)] for x in elems for y in elems)


def symmetrized_raw(algebra, xc, yc):
    f = algebra.field
    half = f.inv(f.from_int(2))
    a = raw_multiply(algebra, xc, yc)
    b = raw_multiply(algebra, yc, xc)
    return tuple(f.mul(half, f.add(u, v)) for u, v in zip(a, b))


def span_coords(algebra, vectors):
    """All coordinate tuples in the F_p span of the given elements."""
    f = algebra.field
    p = f.characteristic
    if not vectors:
        return [tuple([f.zero()] * algebra.dim)]
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(vectors)):
        acc = [f.zero()] * algebra.dim
        for c, v in zip(coeffs, vectors):
            cv = f.from_int(c)
            for k in range(algebra.dim):
                acc[k] = f.add(acc[k], f.mul(cv, v.coords[k]))
        out.add(tuple(acc))
    return sorted(out)


def conditions_bruteforce(dec):
    """Full quantifier evaluation of conditions (i)-(iii) over component spans."""
    a = dec.algebra
    f = a.field
    zero = tuple([f.zero()] * a.dim)

    def annihilated(t_vectors, comp_vectors):
        # nonzero a in span(comp) with t o a = 0 for all t in span(t_vectors)?
        t_span = span_coords(a, t_vectors)
        for cand in span_coords(a, comp_vectors):
            if cand == zero:
                continue
            if all(symmetrized_raw(a, t, cand) == zero for t in t_span):
                return True
        return False

    return {
        "cond_i": not annihilated(dec.basis_half, dec.basis1)
        and not annihilated(dec.basis_half, dec.basis0),
        "cond_ii": not annihilated(dec.basis0, dec.basis0),
        "cond_iii": not annihilated(dec.basis0, dec.basis_half),
    }


def idempotents_bruteforce(algebra):
    """Coordinate tuples of all nonzero e with e*e = e, in lexicographic order."""
    p = algebra.field.characteristic
    hits = []
    for x in carrier_coords(p, algebra.dim):
        if any(x) and raw_multiply(algebra, x, x) == x:
            hits.append(x)
    return hits


def first_identity_failure(t, n, trees, derivation, slots=None):
    """The first (tree, args) where the n-ary identity fails, or None.

    Element-level: every monomial is evaluated with monomial_eval, trees in
    the given order and argument tuples in lexicographic carrier order.
    The identity is phi(m(x..)) = m(phi(x)..), or with derivation=True
    d(m(x..)) = sum_i m(x_1, .., d(x_i), .., x_n). slots, if given, lists
    the carrier indices each slot ranges over; by default every one.
    """
    dom, cod = t.domain_carrier(), t.codomain_carrier()
    elems = [dom.element_at(i) for i in range(dom.size)]
    images = [t.apply(x) for x in elems]
    for tree in trees:
        for idxs in itertools.product(*(slots or [range(dom.size)] * n)):
            args = [elems[i] for i in idxs]
            lhs = images[dom.index_of(monomial_eval(t.domain, tree, args))]
            if derivation:
                rhs = t.domain.zero()
                for i in range(n):
                    subbed = args[:i] + [images[idxs[i]]] + args[i + 1 :]
                    rhs = rhs + monomial_eval(t.domain, tree, subbed)
            else:
                rhs = monomial_eval(t.codomain, tree, [images[i] for i in idxs])
            if lhs != rhs:
                return tree, tuple(args)
    return None


def additive_on_generators(t):
    """phi(x + g) = phi(x) + phi(g) for every carrier x and g in {0} and the basis.

    Element-level. Generators of the additive group decide additivity, and
    an additive map over F_p is linear.
    """
    dom = t.domain_carrier()
    gens = [t.domain.zero()] + t.domain.basis_elements()
    elems = (dom.element_at(i) for i in range(dom.size))
    return all(t.apply(x + g) == t.apply(x) + t.apply(g) for x in elems for g in gens)


def first_additivity_failure(t):
    """The first carrier pair (x, y), lexicographically, with phi(x + y) !=
    phi(x) + phi(y), or None; Element-level."""
    dom = t.domain_carrier()
    elems = [dom.element_at(i) for i in range(dom.size)]
    images = [t.apply(x) for x in elems]
    for (i, x), (j, y) in itertools.product(enumerate(elems), repeat=2):
        if t.apply(x + y) != images[i] + images[j]:
            return x, y
    return None


def bijections_bruteforce(mul_table: np.ndarray, chunk: int = 20000):
    """All permutations of the carrier with phi(xy) = phi(x)phi(y).

    Filters every |carrier|! bijection in vectorized chunks; returns the
    sorted list of image tuples.
    """
    n = mul_table.shape[0]
    hits = []

    def flush(batch):
        perms = np.array(batch, dtype=np.int64)
        lhs = perms[:, mul_table]
        rhs = mul_table[perms[:, :, None], perms[:, None, :]]
        ok = (lhs == rhs).all(axis=(1, 2))
        hits.extend(tuple(map(int, row)) for row in perms[ok])

    batch = []
    for perm in itertools.permutations(range(n)):
        batch.append(perm)
        if len(batch) == chunk:
            flush(batch)
            batch = []
    if batch:
        flush(batch)
    return sorted(hits)


def leibniz_kernel(algebra, n=2):
    """Basis of the linear n-derivations D of a prime-field algebra, as d x d matrices.

    The unknowns are the entries D[r][c] (column c is D(b_c)). For every
    basis tuple idx and coordinate l there is one row: coordinate l of
    D(m(b_idx)) - sum_s m(b_idx with D applied in slot s), where m is the
    canonical monomial x1(x2(...(x_{n-1} x_n))). The identity is linear in
    D, and for n = 2 it is the Leibniz rule.
    """
    from jordankit.linalg import kernel_basis

    f = algebra.field
    d = algebra.dim
    c = algebra.table

    def monomial(idx):
        w = [f.one() if k == idx[-1] else f.zero() for k in range(d)]
        for i in reversed(idx[:-1]):  # w <- b_i w
            w = [functools.reduce(f.add, (f.mul(w[k], c[i][k][l]) for k in range(d)), f.zero())
                 for l in range(d)]
        return w

    rows = []
    for idx in itertools.product(range(d), repeat=n):
        lhs = monomial(idx)
        terms = [(r * d + idx[s], monomial(idx[:s] + (r,) + idx[s + 1:]))
                 for s in range(n) for r in range(d)]
        for l in range(d):
            row = [f.zero()] * (d * d)
            for k in range(d):
                row[l * d + k] = lhs[k]
            for unknown, value in terms:
                row[unknown] = f.sub(row[unknown], value[l])
            rows.append(row)
    return [[v[r * d:(r + 1) * d] for r in range(d)] for v in kernel_basis(f, rows)]


def span_matrices(field, matrices):
    """Every F_p linear combination of the given square matrices."""
    p = field.characteristic
    d = len(matrices[0])
    out = []
    for coeffs in itertools.product(range(p), repeat=len(matrices)):
        m = [[field.zero()] * d for _ in range(d)]
        for coeff, basis in zip(coeffs, matrices):
            cv = field.from_int(coeff)
            for r in range(d):
                for col in range(d):
                    m[r][col] = field.add(m[r][col], field.mul(cv, basis[r][col]))
        out.append(m)
    return out


def is_permutation_group(tables):
    """Whether index tables (permutations of range(N)) form a group."""
    perms = np.array(tables, dtype=np.int64)
    members = {row.tobytes() for row in perms}
    if len(members) != len(perms) or np.arange(perms.shape[1]).tobytes() not in members:
        return False
    for a in perms:
        if any(row.tobytes() not in members for row in a[perms]):  # a after b
            return False
        if np.argsort(a).tobytes() not in members:
            return False
    return True


# ---------------------------------------------------------------------------
# reference propagation for the table searches


class QueuePropagation:
    """Forcing one image at a time: the reference for the closure plans.

    Mixed in ahead of a search class, this replaces the prefilter
    _candidates, the sibling hook _close_siblings and the walk _dfs by
    code over Python lists, dicts and sets, with products read from
    list-of-lists tables. It shares no plan, no value rows, no closure
    code and no look-ahead with the engine.
    Both hooks take a list of sibling states and read each state value
    (the t and s of the pairs at each level) on its own, changing
    nothing in it. _candidates tries each allowed value of each state on
    its own against the degree-2 step, the engine's rule for every n.
    Each candidate is closed on its own fresh copy of its state, in
    order: level-k pairs (t, s) are extended by each assigned x to level
    k + 1, and a level-n pair forces img[t] = s; every pair is extended
    as soon as it appears, and pairs are kept once per (t, s). A
    surviving candidate gives the child state: its state's pairs, then
    those its closure added, level 1 being the new assignments. closed
    counts the candidates the hook closed, so a test can tell that the
    oracle, not the engine, ran.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.mul_rows = self.dom.mul.tolist()
        self.cod_mul_rows = self.cod.mul.tolist()
        self.cod_add_rows = self.cod.add.tolist()
        self.closed = 0

    def _product(self, x, v, t, s):
        """(x * t, the image x * t must take) when x maps to v and t to s."""
        raise NotImplementedError

    def _candidates(self, states, x):
        """Per state, the values v of x under which the degree-2 step gives
        each product x y, y x and x x (y assigned) that lands on x or an
        assigned element that element's image."""
        return [self._state_candidates(state, x) for state in states]

    def _state_candidates(self, state, x):
        assigned = state.ts[0].tolist()
        img = dict(zip(assigned, state.ss[0].tolist()))
        taken = set(img.values()) if self.bijective else set()
        out = []
        for v in range(self.cod.size):
            if v in taken:
                continue
            img[x] = v
            pairs = [(x, y) for y in img] + [(y, x) for y in assigned]
            products = (self._product(a, img[a], b, img[b]) for a, b in pairs)
            if all(img.get(z, s) == s for z, s in products):
                out.append(v)
        return out

    def _close_siblings(self, states, x, vs):
        rows = []
        for state, state_vs in zip(states, vs):
            rows.append([])
            for v in state_vs:
                self.closed += 1
                rows[-1].append(_QueueClosure(self, state).child(x, v))
        return rows

    def _dfs(self, state):
        """A plain DFS, one node at a time, each closed on its own: the
        reference for the engine's walk, which closes siblings ahead. The
        budget is checked on entry to a state and after each candidate,
        refuted or not."""
        if self._over_budget():
            self.budget_exceeded = True
            return
        img = images(self.size, state)
        if -1 not in img:
            table = self._emit(np.array(img))
            if self._verify(table):
                self.witnesses_emitted += 1
                yield table
            return
        x = img.index(-1)
        (kids,) = self._close_siblings([state], x, self._candidates([state], x))
        for kid in kids:
            self.nodes += 1
            if kid is not None:
                yield from self._dfs(kid)
            if self.budget_exceeded:
                return
            if self._over_budget():
                self.budget_exceeded = True
                return


def images(size, state):
    """img[x] under a DFS state, as a list: the image of x, or -1 while x is unassigned."""
    img = [-1] * size
    for t, s in zip(state.ts[0].tolist(), state.ss[0].tolist()):
        img[t] = s
    return img


class _QueueClosure:
    """One candidate's closure, on a fresh copy of a DFS state."""

    def __init__(self, search, state):
        self.search = search
        self.img = images(search.size, state)
        self.taken = set(state.ss[0].tolist())  # read for bijections only
        self.assigned = state.ts[0].tolist()
        self.levels = {k: list(zip(state.ts[k - 1].tolist(), state.ss[k - 1].tolist()))
                       for k in range(2, search.n)}
        self.seen = {k: set(pairs) for k, pairs in self.levels.items()}

    def child(self, x, v):
        """The state below img[x] = v, the state's pairs and then those its
        closure adds, or None if the closure conflicts."""
        if not self._assign(x, v):
            return None
        levels = [[(y, self.img[y]) for y in self.assigned]]
        levels += [self.levels[k] for k in sorted(self.levels)]
        return _State(*(tuple(np.array([pair[i] for pair in pairs], dtype=np.int64)
                              for pairs in levels) for i in (0, 1)))

    def _step(self, x, pair):
        return self.search._product(x, self.img[x], *pair)

    def _force(self, t, s, queue):
        cur = self.img[t]
        if cur != -1:
            return cur == s
        queue.append((t, s))
        return True

    def _add_pair(self, k, pair, queue):
        if k == self.search.n:
            return self._force(pair[0], pair[1], queue)
        if pair in self.seen[k]:
            return True
        self.seen[k].add(pair)
        self.levels[k].append(pair)
        for x in self.assigned:
            if not self._add_pair(k + 1, self._step(x, pair), queue):
                return False
        return True

    def _assign(self, x0, v0):
        queue = [(x0, v0)]
        while queue:
            x, v = queue.pop()
            cur = self.img[x]
            if cur != -1:
                if cur != v:
                    return False
                continue
            if self.search.bijective:
                if v in self.taken:
                    return False
                self.taken.add(v)
            self.img[x] = v
            self.assigned.append(x)
            # x extends every existing pair one level up
            for k in sorted(self.levels, reverse=True):
                for pair in list(self.levels[k]):
                    if not self._add_pair(k + 1, self._step(x, pair), queue):
                        return False
            for y in list(self.assigned):
                base = (y, self.img[y])
                if y == x:
                    # the new base pair, extended by every assigned element
                    for z in list(self.assigned):
                        if not self._add_pair(2, self._step(z, base), queue):
                            return False
                elif not self._add_pair(2, self._step(x, base), queue):
                    return False
        return True


class ReferenceBijectionSearch(QueuePropagation, MultiplicativeBijectionSearch):
    def _product(self, x, v, t, s):
        # phi(x * t) = phi(x) * phi(t)
        return self.mul_rows[x][t], self.cod_mul_rows[v][s]


class ReferenceDerivationSearch(QueuePropagation, DerivationSearch):
    def _product(self, x, v, t, s):
        # d(x * t) = d(x) * t + x * d(t)
        mul = self.mul_rows
        return mul[x][t], self.cod_add_rows[mul[v][t]][mul[x][s]]


def reference_search(search):
    """A fresh queue-propagation twin of a fresh engine search.

    Same algebras, degree and budget; a derivation twin seeds d(0) = 0 as
    enumerate_n_derivations does.
    """
    cls = ReferenceBijectionSearch if search.bijective else ReferenceDerivationSearch
    ref = cls(search.domain, search.codomain, search.n, search.budget)
    if not search.bijective:
        ((root,),) = ref._close_siblings([ref.root], 0, [[0]])
        if root is None:
            raise AssertionError("seeding d(0) = 0 failed in the reference")
        ref.root = root
    return ref
