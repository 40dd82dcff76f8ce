"""Exhaustive search for scalar and fractional linear solvability.

The search assigns edges of the DAG, in a fixed topological order, a
canonical description of what they could carry: the row space of the
edge's global transfer matrix (n rows, k columns per message), kept as a
reduced-echelon basis of at most n rows.  Scalar search is the case
(k, n) = (1, 1), where that row space is the span of the edge's global
coding vector: empty, or one vector whose first nonzero coordinate is 1.

That basis is unique, so each distinct one is interned as a small int:
states, candidates, joins, decoding tests and memo keys are all ids.
Bases come back only to rebuild a witness.

Each edge is restricted to subspaces of what its parents carry, and
invertible recombinations are factored out, which is exactly the
information any downstream node can use.  A completed assignment where
every terminal can recover its demand is turned back into an explicit
``FractionalCode`` witness; exhausting the canonical space without one
proves unsolvability at that (k, n, p).

Three sound prunings keep the space small:

- terminal check: a terminal is checked as soon as its last in-edge is
  assigned;
- frontier prune: a value smaller than its parent span is kept only if
  every pending terminal could still decode were each unassigned edge to
  carry its parents' full span;
- dominance: each edge takes only subspaces of maximal dimension,
  min(n, dim of its parent span) (``_Algebra.enumerate``).

Each loop over a position's candidates builds one test for its trials
(``_Engine._trial_test``); a loop over many candidates hoists both checks
out of it, exactly: each becomes a span the candidate must hold.  A state
is one candidate tried, and that includes the candidates such a loop
rejects in bulk: a run of candidates that cannot hold the span is counted
by its length without a trial each, which is the count and the budget stop
the trials would give (``_Engine._trial_test``).  Rejected candidates are
counted, never built: a parent span P has [dim P, d]_p candidates, the
Gaussian binomial with d = min(n, dim P), and such a loop builds only
those that hold its span (``_held``) or, when every one does, each one
only when its trial comes.

Explored-and-failed subtrees are also memoized on the values of the
edges still visible to the remaining suffix (the live frontier), so
assignments differing only in consumed edges are never explored twice.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Sequence

from .gf import FieldMatrix, PrimeModulus, _rref, _solve, as_modulus
from .lincode import SRC_PREFIX, CodeInput, FractionalCode
from .network import (
    ROLE_SOURCE,
    ROLE_TERMINAL,
    CodedNetwork,
    _int_at_least,
    _set,
    _Value,
    topological_order,
    validate,
)

SOLVABLE = "solvable"
UNSOLVABLE = "unsolvable"
INCONCLUSIVE = "inconclusive"

DEFAULT_BUDGET = 10**9
_MEMO_CAP = 4_000_000  # safety valve: stop growing memo tables past this
# Loops over more candidates than this hoist their checks.  The threshold is
# measured, not needed for soundness: hoisting every loop that may hoist left
# decisions, states and witnesses the same on the benchmark's search grid, but
# made its scalar certificates 20-80% and its witnesses 15-25% slower (2-CPU
# machine, alternating runs).
_HOIST_MIN = 16


class SearchConfig(_Value):
    __slots__ = ("node_budget",)

    def __init__(self, node_budget: int = DEFAULT_BUDGET) -> None:
        if not _int_at_least(node_budget, 1):
            raise ValueError("node_budget must be positive")
        _set(self, "node_budget", node_budget)


class SearchOutcome(_Value):
    __slots__ = ("status", "states_explored", "code")
    _defaults = (None,)


# -- tuple-based subspace helpers (hot path, kept free of FieldMatrix) --------


def _echelon(rows: Sequence[tuple[int, ...]], p: int) -> tuple[tuple[int, ...], ...]:
    """The reduced-echelon basis of the row span, as a hashable key."""
    mat, pivots = _rref(list(rows), p)
    return tuple(tuple(row) for row in mat[: len(pivots)])


def _blocks(r: int, d: int):
    """The pivot blocks of ``_subspaces``' order, first to last: C's pivots,
    one d-subset of the r basis rows per block in ``itertools.combinations``
    order, and C's free entries (row, column) row by row.  Within a block
    the free values run through GF(p) in lexicographic order of that list,
    so ``_subspaces`` and ``_held`` agree on every position."""
    for pivots in itertools.combinations(range(r), d):
        pivot_set = set(pivots)
        yield pivots, [
            (i, j)
            for i in range(d)
            for j in range(pivots[i] + 1, r)
            if j not in pivot_set
        ]


def _span_of(basis: tuple, pivots: tuple, free: list, vals: Sequence[int], p: int) -> tuple:
    """C·B for the C of ``pivots`` with its ``free`` entries set to ``vals``:
    row i is B's row q_i plus, for each free (i, j), vals times B's row j."""
    rows = [basis[q] for q in pivots]
    for (i, j), val in zip(free, vals):
        if val:
            rows[i] = [a + val * b for a, b in zip(rows[i], basis[j])]
    return tuple(tuple([a % p for a in row]) for row in rows)


def _subspaces(basis: tuple[tuple[int, ...], ...], p: int, maxdim: int):
    """All subspaces of the span with dim exactly min(maxdim, dim span), as
    reduced-echelon bases, one at a time; ``basis`` must be one, as every
    interned basis is.  There are [dim span, d]_p of them (``_count``).

    Each subspace is one reduced-echelon matrix C over the basis
    coordinates, and C times the basis B is its one reduced basis, the key
    equal subspaces share: row i has its leading 1 in the pivot column of
    B's row q_i, C's i-th pivot, a column 0 in B's other rows, and C's
    column q_i is 0 in C's other rows.  The zero span has one, itself.
    """
    r = len(basis)
    for pivots, free in _blocks(r, min(maxdim, r)):
        for vals in itertools.product(range(p), repeat=len(free)):
            yield _span_of(basis, pivots, free, vals, p)


def _count(r: int, d: int, p: int) -> int:
    """The Gaussian binomial [r, d]_p: how many d-dimensional subspaces an
    r-dimensional space over GF(p) has."""
    num = den = 1
    for i in range(d):
        num *= p ** (r - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _affine(rows: list, u: int, p: int) -> list[tuple[int, ...]]:
    """Every x in GF(p)^u with A x = b, for the rows [a | b] of [A | b]:
    one ``_rref``, then each value of the free variables in turn."""
    mat, pivots = _rref(rows, p)
    if pivots and pivots[-1] == u:
        return []
    free = [c for c in range(u) if c not in pivots]
    out = []
    for vals in itertools.product(range(p), repeat=len(free)):
        x = [0] * u
        for c, v in zip(free, vals):
            x[c] = v
        for row, c in zip(mat, pivots):
            x[c] = (row[u] - sum(row[f] * x[f] for f in free)) % p
        out.append(tuple(x))
    return out


def _held(basis: tuple, target: tuple, p: int, maxdim: int):
    """(position, subspace) for each subspace ``_subspaces`` lists that
    holds the span of ``target``, a reduced basis inside the span of
    ``basis``, in that order; the others are never built.

    C·B holds a vector of the span with coordinates y over B (its entries
    in B's pivot columns) iff y = sum_i y[q_i] C_i.  That holds at C's
    pivot columns anyway, and at any other column j it reads y[j] =
    sum over q_i < j of y[q_i] C[i][j], which involves column j's free
    entries alone.  So within one pivot block the values that hold the
    target form a product, over the non-pivot columns, of the solution
    sets of small affine systems (``_affine``; blocks with the same pivots
    below j share column j's).  A block's values run in lexicographic
    order, so a candidate's position is its block's offset plus its
    values read as a base-p number, each column adding its own digits.
    """
    r = len(basis)
    coords = [[t[row.index(1)] for row in basis] for t in target]
    solved: dict = {}
    offset = 0
    for pivots, free in _blocks(r, min(maxdim, r)):
        place = {f: p ** at for at, f in enumerate(reversed(free))}
        sums = [0]
        for j in range(r):
            if j in pivots:
                continue
            below = tuple(q for q in pivots if q < j)
            sols = solved.get((below, j))
            if sols is None:
                system = [[y[q] for q in below] + [y[j]] for y in coords]
                sols = solved[below, j] = _affine(system, len(below), p)
            sums = [
                s + sum(x * place[i, j] for i, x in enumerate(sol))
                for s in sums
                for sol in sols
            ]
            if not sums:
                break
        for index in sorted(sums):
            vals = [index // place[f] % p for f in free]
            yield offset + index, _span_of(basis, pivots, free, vals, p)
        offset += p ** len(free)


def _in_span(x: tuple[int, ...], basis: Sequence[tuple[int, ...]], p: int) -> bool:
    """Whether x lies in the row span of a reduced-echelon basis over GF(p).

    It does exactly when it equals the sum of the basis rows weighted by
    x's entries in their pivot columns (each row's first nonzero entry, a
    1): each pivot column is zero in every other row, so no other weights
    match x there.  For a unit vector that sum is the one row whose pivot
    it holds, if any, so a unit vector lies in the span iff it is a row.
    """
    if sum(x) == 1:  # entries are residues >= 0: x is a unit vector
        return x in basis
    y = [0] * len(x)
    for row in basis:
        if w := x[row.index(1)]:
            y = [a + w * b for a, b in zip(y, row)]
    return tuple([a % p for a in y]) == x


# -- search planning ----------------------------------------------------------


class _EdgeInfo(_Value):
    """One edge of the search order: ``parents`` are the sorted positions of
    the edges into its tail or, for a source tail, the one slot E + t (E
    edges, t the index of the message the tail generates); ``forced_demand``
    is the index of the message its head demands when the head is a
    terminal with this one in-edge, else None."""

    __slots__ = ("edge_id", "parents", "forced_demand")


class _Plan(_Value):
    """The search order and its checks, by position i: ``edges[i]`` is an
    ``_EdgeInfo``; ``checks_at[i]`` holds the (demand, positions) checks
    whose last position is i, and ``frontier_after[i]`` the (demand,
    frontier positions) checks of the prune once i is assigned;
    ``live_at[i]`` the positions before i that i or a later one reads;
    ``terminals`` a (terminal id, demand, in-edge positions) triple per
    terminal, by id.  A demand is an index into ``messages``."""

    __slots__ = ("messages", "edges", "checks_at", "frontier_after", "live_at", "terminals")


def _edge_order(net: CodedNetwork) -> list:
    """Topological edge order that pulls chains toward terminals, so
    terminal feasibility is checked as early as possible."""
    nodes = topological_order(net)
    big = len(net.edges) + len(net.nodes) + 1
    dist = {t.id: 0 for t in net.terminals()}
    for nid in reversed(nodes):
        if nid not in dist:
            dist[nid] = min(
                (1 + dist[e.head] for e in net.out_edges(nid)), default=big
            )
    # in-edges of each node not yet placed; its out-edges enter the heap at 0
    unplaced = {nid: len(net.in_edges(nid)) for nid in nodes}
    heap = [(dist[e.head], e.id, e) for e in net.edges if unplaced[e.tail] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, _, e = heapq.heappop(heap)
        order.append(e)
        unplaced[e.head] -= 1
        if unplaced[e.head] == 0:
            for nxt in net.out_edges(e.head):
                heapq.heappush(heap, (dist[nxt.head], nxt.id, nxt))
    return order


def _build_plan(net: CodedNetwork) -> _Plan:
    node_map = net.node_map()
    order = _edge_order(net)
    pos = {e.id: i for i, e in enumerate(order)}
    msg_index = {m: i for i, m in enumerate(net.messages)}
    E = len(order)

    infos: list[_EdgeInfo] = []
    for e in order:
        tail = node_map[e.tail]
        head = node_map[e.head]
        if tail.role == ROLE_SOURCE:
            # message t's slot E + t always holds its unit block
            parents = (E + msg_index[tail.generates],)
        else:
            parents = tuple(sorted(pos[pe.id] for pe in net.in_edges(e.tail)))
        forced = None
        if head.role == ROLE_TERMINAL and len(net.in_edges(e.head)) == 1:
            forced = msg_index[head.demands]
        infos.append(_EdgeInfo(e.id, parents, forced))

    checks: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in order]
    terminals: list[tuple[str, int, tuple[int, ...]]] = []
    for term in net.terminals():
        positions = tuple(sorted(pos[e.id] for e in net.in_edges(term.id)))
        didx = msg_index[term.demands]
        terminals.append((term.id, didx, positions))
        if positions:
            checks[max(positions)].append((didx, positions))

    last_use = list(range(E + len(net.messages)))
    for i, info in enumerate(infos):
        for par in info.parents:
            last_use[par] = max(last_use[par], i)
    for i, check_list in enumerate(checks):
        for _, positions in check_list:
            for j in positions:
                last_use[j] = max(last_use[j], i)
    # live_at[i]: the positions before i that i or a later position reads
    live: list[tuple[int, ...]] = []
    current: tuple[int, ...] = ()
    for i in range(E):
        live.append(current)
        current = tuple([j for j in (*current, i) if last_use[j] > i])

    # The frontier prune at position i lets every unassigned edge carry
    # its parents' full span.  A pending terminal then sees the join of the
    # assigned positions and message slots that feed its in-edges or their
    # unassigned cone: per check, (demand, frontier positions).  Walking i
    # downward turns one position at a time from assigned to unassigned,
    # which replaces it in every frontier holding it by its parents.  Each
    # check is [demand, frontier set, (demand, sorted frontier)]; frontiers
    # share that tuple, rebuilt only when the set moves.
    frontier: list[tuple] = [()] * E
    active: list[list] = []
    for i in range(E - 1, -1, -1):
        # checks that read position i first: they are the ones a new value
        # at i can break
        frontier[i] = tuple(c[2] for c in sorted(active, key=lambda c: i not in c[1]))
        active[:0] = [[didx, set(positions), None] for didx, positions in checks[i]]
        for c in active:
            if i in c[1]:
                c[1].discard(i)
                c[1].update(infos[i].parents)
                c[2] = (c[0], tuple(sorted(c[1])))

    return _Plan(
        net.messages,
        tuple(infos),
        tuple(tuple(c) for c in checks),
        tuple(frontier),
        tuple(live),
        tuple(sorted(terminals)),
    )


# -- the state algebra ---------------------------------------------------------


class _Algebra:
    """States are interned ids of row spaces of n x (k*m) transfer matrices.

    ``intern`` numbers each distinct reduced-echelon basis on first sight,
    so equal subspaces share one id; ``basis[id]`` and ``dim[id]`` read it
    back.  Candidates, joins and decoding tests take ids and cache on them.
    """

    def __init__(self, m: int, k: int, n: int, p: int):
        self.k = k
        self.n = n
        self.p = p
        self.basis: list[tuple] = []
        self.dim: list[int] = []
        self._ids: dict[tuple, int] = {}
        self.zero = self.intern(())
        self.unit_rows = tuple(
            tuple(
                tuple(1 if c == t * k + j else 0 for c in range(m * k))
                for j in range(k)
            )
            for t in range(m)
        )
        self.unit_ids = tuple(self.intern(u) for u in self.unit_rows)
        # count[r]: the candidates inside a span of dimension r
        self.count = [_count(r, min(n, r), p) for r in range(m * k + 1)]
        self._join_cache: dict = {}
        self._enum_cache: dict = {}
        self._steps_cache: dict = {}
        self._target_cache: dict = {}
        self._contains_cache: dict = {}

    def intern(self, basis: tuple) -> int:
        """The id of a reduced-echelon basis, assigned on first sight."""
        sid = self._ids.get(basis)
        if sid is None:
            sid = self._ids[basis] = len(self.basis)
            self.basis.append(basis)
            self.dim.append(len(basis))
        return sid

    def join(self, ids: tuple[int, ...]) -> int:
        """The id of the span of the given states; cached on the id tuple.

        A longer tuple folds left to right through joins of sorted pairs,
        so tuples that share a prefix share its joins and only a pair is
        ever reduced; the reduced basis of a span is unique, so the fold
        gives the id the whole tuple would.
        """
        sid = self._join_cache.get(ids)
        if sid is None:
            if len(ids) > 2:
                sid = ids[0]
                for x in ids[1:]:
                    sid = self.join((sid, x) if sid <= x else (x, sid))
            else:
                rows = [row for i in ids for row in self.basis[i]]
                sid = self.intern(_echelon(rows, self.p))
            self._join_cache[ids] = sid
        return sid

    def enumerate(self, sid: int) -> tuple:
        """Candidates inside span ``sid``: its subspaces of dimension
        exactly min(n, dim), so zero only when the span is zero; cached.

        Maximal-subspace dominance makes this sound.  Every constraint is
        monotone in edge spans: an edge may carry any subspace of its
        parents' join, and a terminal needs its demand inside the join of
        its in-edges, so enlarging spans never breaks either.  Take any
        solution and walk the edges in topological order.  An edge's
        parents have only grown, so its old subspace still lies in its
        parent span P; enlarge it to a subspace of P of dimension
        min(n, dim P) that contains it (source edges: P is the message's
        unit block, of dimension k).  Edges into a one-in-edge terminal are
        instead set to the demand's unit block, which the old span held.
        The result is again a solution, and every edge in it has maximal
        dimension, so searching those candidates alone loses no decision.
        """
        return tuple(self.lazy(sid))  # the cached tuple itself, once built

    def lazy(self, sid: int):
        """``enumerate``'s candidates, each built only when a loop over span
        ``sid`` reaches it; the first loop to reach the last one leaves
        them all in ``enumerate``'s cache.  Short loops take the tuple
        instead: stepping a generator costs them more than it saves."""
        cands = self._enum_cache.get(sid)
        return self._grow(sid) if cands is None else cands

    def _grow(self, sid: int):
        built = []
        for cand in map(self.intern, _subspaces(self.basis[sid], self.p, self.n)):
            built.append(cand)
            yield cand
        self._enum_cache[sid] = tuple(built)

    def steps(self, pspan: int, tid: int) -> tuple:
        """The candidates inside span ``pspan`` that hold span ``tid``, in
        ``enumerate``'s order, with each gap before, between and after them
        given as minus its length; cached.  Only the held candidates are
        built (``_held``): a gap is the difference of their positions, so
        the candidates that do not hold tid are counted, never built."""
        key = (pspan, tid)
        steps = self._steps_cache.get(key)
        if steps is None:
            out: list[int] = []
            at = 0
            for index, basis in _held(self.basis[pspan], self.basis[tid], self.p, self.n):
                if index > at:
                    out.append(at - index)
                out.append(self.intern(basis))
                at = index + 1
            total = self.count[self.dim[pspan]]
            if total > at:
                out.append(at - total)
            steps = self._steps_cache[key] = tuple(out)
        return steps

    def forced(self, sid: int, demand_idx: int) -> tuple:
        unit = self.unit_ids[demand_idx]
        return (unit,) if self.k <= self.n and self.contains(sid, unit) else ()

    def targets(self, pspan: int, rest: int, demand_idx: int) -> int | bool | None:
        """The span a candidate c inside ``pspan`` must hold for ``rest`` + c
        to hold the demand's unit block: its id, False when no c can, or
        None when the spans meet beyond 0 (keep the join test); cached.

        Write P and R for the spans.  If they meet only in 0, each u in
        P + R is x + r for one x in P and one r in R, and for c inside P, u
        lies in R + c iff x lies in c (u = y + r' with y in c forces y = x).
        Reducing the rows [b | b] for b in P's basis and [b | 0] for b in
        R's keeps each row of the form [v | x(v)]; a pivot in the right half
        marks a nonzero vector of both.  A unit row u's weight on a reduced
        row is its entry in that row's pivot column, so u is in P + R iff
        it is the left half of the row with u's pivot, x(u) its right half.
        """
        key = (pspan, rest, demand_idx)
        if key not in self._target_cache:
            width, units = len(self.unit_rows[0][0]), self.unit_rows[demand_idx]
            zero = (0,) * width
            rows = [b + b for b in self.basis[pspan]] + [b + zero for b in self.basis[rest]]
            mat, pivots = _rref(rows, self.p)
            out = None
            if not pivots or pivots[-1] < width:
                found = [dict(zip(pivots, mat)).get(u.index(1), zero) for u in units]
                fits = all(tuple(row[:width]) == u for row, u in zip(found, units))
                out = fits and self.intern(_echelon([row[width:] for row in found], self.p))
            self._target_cache[key] = out
        return self._target_cache[key]

    def contains(self, sid: int, tid: int) -> bool:
        """Whether span ``sid`` holds each row of span ``tid`` (``_in_span``);
        cached."""
        ok = self._contains_cache.get((sid, tid))
        if ok is None:
            basis, p = self.basis[sid], self.p
            ok = all(_in_span(x, basis, p) for x in self.basis[tid])
            self._contains_cache[(sid, tid)] = ok
        return ok


# -- backtracking engine -------------------------------------------------------


class _Engine:
    def __init__(self, plan: _Plan, algebra: _Algebra, budget: int):
        self.plan = plan
        self.alg = algebra
        self.budget = budget
        self.states = 0

    def _decodes(self, checks: tuple, values: list) -> bool:
        """Whether, for every (demand, positions) check, the join of the
        values at those positions holds the demand's unit block."""
        join, contains, units = self.alg.join, self.alg.contains, self.alg.unit_ids
        for didx, positions in checks:
            if not contains(join(tuple([values[j] for j in positions])), units[didx]):
                return False
        return True

    def _trial_test(self, i: int, values: list):
        """The steps of the loop at position i over its candidates, the
        subspaces of maximal dimension inside its parent span P
        (``_Algebra.enumerate``) or, for an edge into a one-in-edge
        terminal, ``_Algebra.forced``, and the test that decides a trial of
        each candidate step: ``_decodes`` over ``checks_at[i]`` and, when
        the candidates are smaller than P, over ``frontier_after[i]`` (the
        frontier prune).  A step is a candidate or minus the length of a
        run of candidates rejected in bulk, which are counted, never built.

        The frontier prune asks whether every pending terminal could still
        decode were each unassigned edge to carry its parents' full span.
        Actual edge states are subspaces of their parents' spans, so this
        forward closure dominates every completion; a terminal that fails
        here fails in all of them, making the prune certificate-safe.  Each
        terminal's closure span is one cached join over its frontier (see
        ``_build_plan``), the same subspace the whole closure would give.
        Leaving the prune out is sound too, so it runs only where a trial
        narrows P; the candidates of one loop share one dimension, so the
        prune is decided once per loop.

        A loop over at most ``_HOIST_MIN`` candidates steps through them
        all and tests that join, and so does a forced loop.  Any other
        loop's candidates are counted, not listed: there are [dim P, d]_p
        of them, d = min(n, dim P), ``_Algebra.count``.  It hoists the
        checks out of the loop: only ``values[i]`` changes in it, so a
        check that does not read i is one boolean, and one that does asks
        whether its demand lies in rest + c, rest being the join of its
        other positions; ``_Algebra.targets`` makes that one span c must
        hold, except where rest meets P and the join test stays.  The
        candidates that do not hold the join T of those spans fail, and the
        test of the others is the join tests alone.  If one check can pass
        for no candidate (a False boolean, or a demand that no c brings into
        reach) or T has more than d dimensions, every candidate fails and
        the loop is one negative step, building none.  If T is zero
        every candidate holds it, and the loop builds each one only when
        its trial comes (``_Algebra.lazy``).  Otherwise only the
        candidates that hold T are built, with the runs between them as
        negative steps (``_Algebra.steps``).  Bulk counting is exact: a
        rejected trial adds one state and changes nothing read later
        (``run`` writes ``values[i]`` again before the next test, or clears
        it when the loop ends), so a run of L adds L states or, if the
        budget runs out inside it, stops with the count at the budget, as
        its L trials would.  A state is still one candidate tried.
        """
        alg = self.alg
        info = self.plan.edges[i]
        pspan = alg.join(tuple([values[j] for j in info.parents]))
        checks = self.plan.checks_at[i]
        if info.forced_demand is not None:
            cands = alg.forced(pspan, info.forced_demand)
            if cands and alg.k < alg.dim[pspan]:
                checks += self.plan.frontier_after[i]
            return cands, lambda cand: self._decodes(checks, values)
        d = min(alg.n, alg.dim[pspan])
        if d < alg.dim[pspan]:
            checks += self.plan.frontier_after[i]
        count = alg.count[alg.dim[pspan]]
        if count <= _HOIST_MIN:
            return alg.enumerate(pspan), lambda cand: self._decodes(checks, values)
        need, joined = [], []
        for didx, positions in checks:
            rest = alg.join(tuple([values[j] for j in positions if j != i]))
            if i in positions:
                t = alg.targets(pspan, rest, didx)
            else:
                t = alg.zero if alg.contains(rest, alg.unit_ids[didx]) else False
            if t is False:
                return (-count,), None
            if t is None:
                joined.append((didx, positions))
            else:
                need.append(t)
        target, joined = alg.join(tuple(need)), tuple(joined)
        if alg.dim[target] > d:
            return (-count,), None
        # every candidate holds the zero span
        steps = alg.lazy(pspan) if target == alg.zero else alg.steps(pspan, target)
        return steps, lambda cand: self._decodes(joined, values)

    def run(self) -> tuple[str, list | None]:
        plan = self.plan
        E = len(plan.edges)
        failed: list[set] = [set() for _ in range(E)]
        # edge positions, then one fixed slot per message (see _build_plan)
        values: list = [None] * E + list(self.alg.unit_ids)
        keys: list = [None] * E
        loops: list = []  # per open position: (its untried steps, trial test)
        memo_entries = 0
        while True:
            i = len(loops)
            if i == E:
                return ("sat", values)
            key = tuple([values[j] for j in plan.live_at[i]])
            if key not in failed[i]:
                keys[i] = key
                steps, test = self._trial_test(i, values)
                loops.append((iter(steps), test))
            # advance the deepest open position to its next passing trial,
            # which opens the one after it; one out of candidates has failed
            while loops:
                i = len(loops) - 1
                steps, test = loops[i]
                for cand in steps:
                    if cand < 0:  # a run of -cand rejected candidates
                        if self.states - cand > self.budget:
                            self.states = self.budget
                            return ("budget", None)
                        self.states -= cand
                        continue
                    if self.states >= self.budget:
                        return ("budget", None)
                    self.states += 1
                    values[i] = cand
                    if test(cand):
                        break
                else:
                    if memo_entries <= _MEMO_CAP:
                        failed[i].add(keys[i])
                        memo_entries += 1
                    values[i] = None
                    loops.pop()
                    continue
                break
            else:
                return ("unsat", None)


# -- witness reconstruction ----------------------------------------------------


def _witness(
    plan: _Plan, values: list, k: int, n: int, mod: PrimeModulus
) -> FractionalCode:
    """The code that gives each edge its found basis padded to n rows and
    each terminal its demand's unit block, from its parents' padded bases:
    each rule is X with X S = T, one ``gf._solve`` of Sᵀ Xᵀ = Tᵀ on the
    transposed rows, which sets free variables to 0."""
    E = len(plan.edges)
    zero = (0,) * (len(plan.messages) * k)
    refs = [info.edge_id for info in plan.edges]
    refs += [SRC_PREFIX + msg for msg in plan.messages]

    def padded(j, size):
        return values[j] + (zero,) * (size - len(values[j]))

    def inputs(parents, target):
        """The nonzero blocks of X with X . vstack(parents) = target, one
        input per parent: an edge stacks n rows, a message slot k."""
        sizes = [n if j < E else k for j in parents]
        stacked = [row for j, size in zip(parents, sizes) for row in padded(j, size)]
        out_rows, out, top = len(target), [], 0
        xt = _solve(zip(*stacked), zip(*target), len(stacked), out_rows, mod.p)
        assert xt is not None, "witness state escaped its parent span"
        x = list(zip(*xt))  # the rows of X
        for j, size in zip(parents, sizes):
            flat = tuple([v for row in x for v in row[top : top + size]])
            top += size
            if any(flat):
                block = FieldMatrix._trusted(out_rows, size, flat, mod)
                out.append(CodeInput(refs[j], block))
        return tuple(out)

    er = {
        info.edge_id: inputs(info.parents, padded(i, n))
        for i, info in enumerate(plan.edges)
    }
    # message slot E + t holds message t's unit block (see _build_plan)
    dr = {
        term_id: inputs(positions, values[E + didx])
        for term_id, didx, positions in plan.terminals
    }
    return FractionalCode(k, n, mod, er, dr)


# -- drivers --------------------------------------------------------------------


def search_scalar(
    net: CodedNetwork, p: PrimeModulus | int, cfg: SearchConfig | None = None
) -> SearchOutcome:
    """Decide (1, 1) linear solvability over GF(p) by exhaustive search."""
    return search_fractional(net, 1, 1, p, cfg)


def search_fractional(
    net: CodedNetwork,
    k: int,
    n: int,
    p: PrimeModulus | int,
    cfg: SearchConfig | None = None,
) -> SearchOutcome:
    """Decide (k, n) linear solvability over GF(p) by subspace search."""
    if not (_int_at_least(k, 1) and _int_at_least(n, 1)):
        raise ValueError("k and n must be positive")
    cfg = cfg or SearchConfig()
    mod = as_modulus(p)
    report = validate(net)
    if not report.ok:
        raise ValueError(f"network is invalid: {report.violations[0].detail}")
    plan = _build_plan(net)
    if any(not positions for _, _, positions in plan.terminals):
        return SearchOutcome(UNSOLVABLE, 0)  # a terminal with no in-edge
    algebra = _Algebra(len(plan.messages), k, n, mod.p)
    engine = _Engine(plan, algebra, cfg.node_budget)
    status, values = engine.run()
    states = engine.states
    if status == "sat":
        values = [algebra.basis[v] for v in values]
        return SearchOutcome(SOLVABLE, states, _witness(plan, values, k, n, mod))
    if status == "unsat":
        return SearchOutcome(UNSOLVABLE, states)
    return SearchOutcome(INCONCLUSIVE, states)
