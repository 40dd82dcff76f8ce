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
out of it, exactly: each becomes a span the candidate must hold.

Explored-and-failed subtrees are also memoized on the values of the
edges still visible to the remaining suffix (the live frontier), so
assignments differing only in consumed edges are never explored twice.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Sequence

from .gf import FieldMatrix, PrimeModulus, _rref, as_modulus
from .lincode import SRC_PREFIX, CodeInput, FractionalCode
from .network import CodedNetwork, _int_at_least, topological_order, validate

SOLVABLE = "solvable"
UNSOLVABLE = "unsolvable"
INCONCLUSIVE = "inconclusive"

DEFAULT_BUDGET = 10**9
_MEMO_CAP = 4_000_000  # safety valve: stop growing memo tables past this
_HOIST_MIN = 16  # loops over more candidates than this hoist their checks


@dataclass(frozen=True)
class SearchConfig:
    node_budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        if not _int_at_least(self.node_budget, 1):
            raise ValueError("node_budget must be positive")


@dataclass(frozen=True)
class SearchOutcome:
    status: str
    states_explored: int
    code: FractionalCode | None = None


# -- tuple-based subspace helpers (hot path, kept free of FieldMatrix) --------


def _echelon(rows: Sequence[tuple[int, ...]], p: int) -> tuple[tuple[int, ...], ...]:
    """The reduced-echelon basis of the row span, as a hashable key."""
    mat, pivots = _rref(list(rows), p)
    return tuple(tuple(row) for row in mat[: len(pivots)])


def _subspaces(
    basis: tuple[tuple[int, ...], ...], p: int, maxdim: int
) -> list[tuple[tuple[int, ...], ...]]:
    """All subspaces of the span with dim exactly min(maxdim, dim span).

    Subspaces are enumerated as reduced-echelon matrices over the basis
    coordinates (one per subspace), then re-reduced in global coordinates
    so equal subspaces reached from different parent sets share one key.
    The zero span has one such subspace, itself.
    """
    r = len(basis)
    d = min(maxdim, r)
    columns = list(zip(*basis))
    out: list[tuple[tuple[int, ...], ...]] = []
    for pivots in itertools.combinations(range(r), d):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(d)
            for j in range(pivots[i] + 1, r)
            if j not in pivot_set
        ]
        for vals in itertools.product(range(p), repeat=len(free)):
            coord = [[0] * r for _ in range(d)]
            for i in range(d):
                coord[i][pivots[i]] = 1
            for (i, j), val in zip(free, vals):
                coord[i][j] = val
            rows = [
                tuple(sum(c * x for c, x in zip(crow, col)) % p for col in columns)
                for crow in coord
            ]
            out.append(_echelon(rows, p))
    return out


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


def decodable(
    vectors: Sequence[Sequence[int]],
    demand: int | str,
    p: PrimeModulus | int,
    messages: Sequence[str] | None = None,
) -> bool:
    """True iff the demand's unit vector lies in the row span of vectors
    (see ``_in_span``).

    ``demand`` is a coordinate index, or a message id resolved against
    ``messages`` (the coordinate order of the vectors).
    """
    mod = as_modulus(p)
    if isinstance(demand, str):
        if messages is None:
            raise ValueError("resolving a message id needs the messages sequence")
        try:
            demand = list(messages).index(demand)
        except ValueError as exc:
            raise ValueError(f"unknown message {demand!r}") from exc
    vecs = [tuple(int(x) % mod.p for x in v) for v in vectors]
    if not vecs:
        return False
    width = len(vecs[0])
    if any(len(v) != width for v in vecs):
        raise ValueError("vectors must share one length")
    if not (0 <= demand < width):
        raise ValueError("demand index out of range")
    unit = tuple(1 if i == demand else 0 for i in range(width))
    return _in_span(unit, _echelon(vecs, mod.p), mod.p)


# -- search planning ----------------------------------------------------------


@dataclass(frozen=True)
class _EdgeInfo:
    edge_id: str
    parents: tuple[int, ...]
    forced_demand: int | None


@dataclass(frozen=True)
class _Plan:
    messages: tuple[str, ...]
    edges: tuple[_EdgeInfo, ...]
    checks_at: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    frontier_after: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    live_at: tuple[tuple[int, ...], ...]
    terminals: tuple[tuple[str, int, tuple[int, ...]], ...]


def _edge_order(net: CodedNetwork) -> list:
    """Topological edge order that pulls chains toward terminals, so
    terminal feasibility is checked as early as possible."""
    node_map = net.node_map()
    out_by: dict[str, list] = {nid: [] for nid in node_map}
    in_deg: dict[str, int] = {nid: 0 for nid in node_map}
    for e in net.edges:
        out_by[e.tail].append(e)
        in_deg[e.head] += 1
    big = len(net.edges) + len(net.nodes) + 1
    dist: dict[str, int] = {}
    for nid in reversed(topological_order(net)):
        node = node_map[nid]
        if node.role == "terminal":
            dist[nid] = 0
        else:
            dist[nid] = min(
                (1 + dist[e.head] for e in out_by[nid]), default=big
            )
    placed_in: dict[str, int] = {nid: 0 for nid in node_map}
    heap = []
    for nid in node_map:
        if in_deg[nid] == 0:
            for e in out_by[nid]:
                heapq.heappush(heap, (dist[e.head], e.id, e))
    order = []
    while heap:
        _, _, e = heapq.heappop(heap)
        order.append(e)
        placed_in[e.head] += 1
        if placed_in[e.head] == in_deg[e.head]:
            for nxt in out_by[e.head]:
                heapq.heappush(heap, (dist[nxt.head], nxt.id, nxt))
    return order


def _build_plan(net: CodedNetwork) -> _Plan:
    node_map = net.node_map()
    order = _edge_order(net)
    pos = {e.id: i for i, e in enumerate(order)}
    in_edges: dict[str, list] = {nid: [] for nid in node_map}
    for e in net.edges:
        in_edges[e.head].append(e)
    msg_index = {m: i for i, m in enumerate(net.messages)}
    E = len(order)

    infos: list[_EdgeInfo] = []
    for e in order:
        tail = node_map[e.tail]
        head = node_map[e.head]
        if tail.role == "source":
            # message t's slot E + t always holds its unit block
            parents = (E + msg_index[tail.generates],)
        else:
            parents = tuple(sorted(pos[pe.id] for pe in in_edges[e.tail]))
        forced = None
        if head.role == "terminal" and len(in_edges[e.head]) == 1:
            forced = msg_index[head.demands]
        infos.append(_EdgeInfo(e.id, parents, forced))

    checks: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in order]
    terminals: list[tuple[str, int, tuple[int, ...]]] = []
    for term in net.terminals():
        positions = tuple(sorted(pos[e.id] for e in in_edges[term.id]))
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
    live = [tuple(j for j in range(i) if last_use[j] >= i) for i in range(E)]

    # The frontier prune at position i lets every unassigned edge carry
    # its parents' full span.  A pending terminal then sees the join of the
    # assigned positions and message slots that feed its in-edges or their
    # unassigned cone: per check, (demand, frontier positions).  Walking i
    # downward turns one position at a time from assigned to unassigned,
    # which replaces it in every frontier holding it by its parents.
    frontier: list[tuple] = [()] * E
    active: list[tuple[int, set[int]]] = []
    for i in range(E - 1, -1, -1):
        # checks that read position i first: they are the ones a new value
        # at i can break
        frontier[i] = tuple(
            (didx, tuple(sorted(fr)))
            for didx, fr in sorted(active, key=lambda c: i not in c[1])
        )
        active[:0] = [(didx, set(positions)) for didx, positions in checks[i]]
        for _, fr in active:
            if i in fr:
                fr.discard(i)
                fr.update(infos[i].parents)

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
        self._join_cache: dict = {}
        self._enum_cache: dict = {}
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
        """The id of the span of the given states; cached on the id tuple."""
        sid = self._join_cache.get(ids)
        if sid is None:
            rows = [row for i in ids for row in self.basis[i]]
            sid = self._join_cache[ids] = self.intern(_echelon(rows, self.p))
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
        cands = self._enum_cache.get(sid)
        if cands is None:
            cands = self._enum_cache[sid] = tuple(
                self.intern(b) for b in _subspaces(self.basis[sid], self.p, self.n)
            )
        return cands

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

    def _candidates(self, i: int, values: list) -> tuple[tuple, int]:
        """Candidate state ids for position i plus the id of the parent
        span they live in."""
        info = self.plan.edges[i]
        alg = self.alg
        span = alg.join(tuple([values[j] for j in info.parents]))
        if info.forced_demand is not None:
            return alg.forced(span, info.forced_demand), span
        return alg.enumerate(span), span

    def _decodes(self, checks: tuple, values: list) -> bool:
        """Whether, for every (demand, positions) check, the join of the
        values at those positions holds the demand's unit block."""
        join, contains, units = self.alg.join, self.alg.contains, self.alg.unit_ids
        for didx, positions in checks:
            if not contains(join(tuple([values[j] for j in positions])), units[didx]):
                return False
        return True

    def _trial_test(self, i: int, pspan: int, cands: tuple, values: list):
        """A trial's decision at position i as a function of its candidate,
        one of ``cands`` inside span ``pspan``: ``_decodes`` over
        ``checks_at[i]`` and, when the candidates are smaller than
        ``pspan``, over ``frontier_after[i]`` (the frontier prune).

        The frontier prune asks whether every pending terminal could still
        decode were each unassigned edge to carry its parents' full span.
        Actual edge states are subspaces of their parents' spans, so this
        forward closure dominates every completion; a terminal that fails
        here fails in all of them, making the prune certificate-safe.  Each
        terminal's closure span is one cached join over its frontier (see
        ``_build_plan``), the same subspace the whole closure would give.
        Leaving the prune out is sound too, so it runs only where a trial
        narrows its parent span; the candidates of one loop share one
        dimension (``_Algebra.enumerate``), so the first one decides.

        A loop over at most ``_HOIST_MIN`` candidates tests that join.  A
        longer one hoists the checks out of the loop: only ``values[i]``
        changes in it, so a check that does not read i is one boolean, and
        one that does asks whether its demand lies in rest + c, rest being
        the join of its other positions; ``_Algebra.targets`` makes that one
        span c must hold, except where rest meets ``pspan`` and the join
        test stays.
        """
        alg = self.alg
        checks = self.plan.checks_at[i]
        if cands and alg.dim[cands[0]] < alg.dim[pspan]:
            checks += self.plan.frontier_after[i]
        if len(cands) <= _HOIST_MIN:
            return lambda cand: self._decodes(checks, values)
        need, joined = [], []
        for didx, positions in checks:
            rest = alg.join(tuple([values[j] for j in positions if j != i]))
            if i in positions:
                t = alg.targets(pspan, rest, didx)
            else:
                t = alg.zero if alg.contains(rest, alg.unit_ids[didx]) else False
            if t is False:
                return lambda cand: False
            if t is None:
                joined.append((didx, positions))
            else:
                need.append(t)
        target, joined = alg.join(tuple(need)), tuple(joined)
        return lambda cand: alg.contains(cand, target) and self._decodes(joined, values)

    def run(self) -> tuple[str, list | None]:
        plan = self.plan
        E = len(plan.edges)
        failed: list[set] = [set() for _ in range(E)]
        # edge positions, then one fixed slot per message (see _build_plan)
        values: list = [None] * E + list(self.alg.unit_ids)
        keys: list = [None] * E
        loops: list = []  # per open position: (its untried candidates, trial test)
        memo_entries = 0
        while True:
            i = len(loops)
            if i == E:
                return ("sat", values)
            key = tuple([values[j] for j in plan.live_at[i]])
            if key not in failed[i]:
                keys[i] = key
                cands, pspan = self._candidates(i, values)
                loops.append((iter(cands), self._trial_test(i, pspan, cands, values)))
            # advance the deepest open position to its next passing trial,
            # which opens the one after it; one out of candidates has failed
            while loops:
                i = len(loops) - 1
                cands, test = loops[i]
                for cand in cands:
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
    one ``_rref`` per rule, of the system transposed; free variables are 0."""
    E = len(plan.edges)
    cols = len(plan.messages) * k
    zero = (0,) * cols
    refs = [info.edge_id for info in plan.edges]
    refs += [SRC_PREFIX + msg for msg in plan.messages]

    def padded(j, size):
        return values[j] + (zero,) * (size - len(values[j]))

    def inputs(parents, target):
        """The nonzero blocks of X with X . vstack(parents) = target, one
        input per parent: an edge stacks n rows, a message slot k."""
        sizes = [n if j < E else k for j in parents]
        stacked = [row for j, size in zip(parents, sizes) for row in padded(j, size)]
        width, out_rows = len(stacked), len(target)
        rows = [[s[c] for s in stacked] + [t[c] for t in target] for c in range(cols)]
        mat, pivots = _rref(rows, mod.p)
        assert not pivots or pivots[-1] < width, "witness state escaped its parent span"
        xt = [(0,) * out_rows] * width
        for r, c in enumerate(pivots):
            xt[c] = mat[r][width:]
        out, top = [], 0
        for j, size in zip(parents, sizes):
            flat = tuple(xt[top + r][c] for c in range(out_rows) for r in range(size))
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


def _prepare(net: CodedNetwork) -> _Plan:
    report = validate(net)
    if not report.ok:
        raise ValueError(f"network is invalid: {report.violations[0].detail}")
    return _build_plan(net)


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
    plan = _prepare(net)
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
