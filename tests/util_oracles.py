"""Shared test helpers: random instances and independent brute-force oracles.

The oracles here deliberately avoid the library's own search machinery:
the scalar and fractional solvability oracles enumerate every local
coefficient assignment directly and test decoding with their own rank
routine, which shares no elimination code with ncchar, the dense transfer
oracle does
its own tuple arithmetic, and the matrix helpers build block families
whose products are known by construction, from a random invertible
matrix and its inverse, both found by their own elimination.
"""

from __future__ import annotations

import itertools
import random

from ncchar import (
    CodeInput,
    CodedNetwork,
    FractionalCode,
    NetEdge,
    NetNode,
    SymbolicCode,
    SymMatrix,
    gen_fano,
    validate,
)
from ncchar.gf import FieldMatrix, PrimeModulus
from ncchar.network import topological_order


# ---------------------------------------------------------------------------
# random matrices
# ---------------------------------------------------------------------------

def rand_matrix(rows: int, cols: int, mod: PrimeModulus, rng: random.Random) -> FieldMatrix:
    flat = tuple(rng.randrange(mod.p) for _ in range(rows * cols))
    return FieldMatrix(rows, cols, flat, mod)


def rand_invertible(size: int, mod: PrimeModulus, rng: random.Random) -> FieldMatrix:
    while True:
        m = rand_matrix(size, size, mod, rng)
        if rank_mod_p(m.to_rows(), mod.p) == size:
            return m


def inverse(m: FieldMatrix) -> FieldMatrix:
    """The inverse of a square matrix by Gauss–Jordan elimination on
    [M | I], with Fermat inverses; raises ValueError when M is singular."""
    size, p = m.rows, m.modulus.p
    if m.cols != size:
        raise ValueError(f"non-square matrix {m.rows}x{m.cols}")
    rows = [list(m.row(i)) + [int(i == j) for j in range(size)] for i in range(size)]
    for c in range(size):
        piv = next((i for i in range(c, size) if rows[i][c]), None)
        if piv is None:
            raise ValueError("singular matrix")
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], p - 2, p)
        rows[c] = [x * inv % p for x in rows[c]]
        for i in range(size):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[c])]
    return FieldMatrix(size, size, tuple(x for r in rows for x in r[size:]), m.modulus)


def _columns(m: FieldMatrix, start: int, stop: int) -> FieldMatrix:
    flat = tuple(x for r in range(m.rows) for x in m.row(r)[start:stop])
    return FieldMatrix(m.rows, stop - start, flat, m.modulus)


def identity_block_family(d: int, n: int, mod: PrimeModulus, rng: random.Random):
    """Random (A_i, B_j) with A_i·B_j = δ_ij·I_d, via row/column blocks of
    a random invertible matrix and its inverse."""
    m = rand_invertible(d * n, mod, rng)
    minv = inverse(m)
    width = d * d * n  # entries in d rows of minv
    a_blocks = [
        FieldMatrix(d, d * n, minv.entries[i * width : (i + 1) * width], mod)
        for i in range(n)
    ]
    b_blocks = [_columns(m, j * d, (j + 1) * d) for j in range(n)]
    return a_blocks, b_blocks


def annihilating_block_family(d: int, n: int, mod: PrimeModulus, rng: random.Random):
    """Random (A_i, B_j) with A_i·B_j = 0 for every i, j: the A rows live in
    the span of the first r rows of an invertible M, the B columns in the
    last dn−r columns of M⁻¹."""
    dn = d * n
    r = rng.randrange(1, dn)
    m = rand_invertible(dn, mod, rng)
    minv = inverse(m)
    top = FieldMatrix(r, dn, m.entries[: r * dn], mod)
    right = _columns(minv, r, dn)
    a_blocks = [rand_matrix(d, r, mod, rng) @ top for _ in range(n)]
    b_blocks = [right @ rand_matrix(dn - r, d, mod, rng) for _ in range(n)]
    return a_blocks, b_blocks


def assert_block_products(a_blocks, b_blocks, diagonal: FieldMatrix | None) -> None:
    """Assert A_i·B_j == ``diagonal`` for i = j (zero when it is None) and
    A_i·B_j zero for i != j.  Block (i, j) of [A_1; ...; A_n]·[B_1 ... B_n]
    is A_i·B_j, so this checks that whole product block by block."""
    for i, a in enumerate(a_blocks):
        for j, b in enumerate(b_blocks):
            prod = a @ b
            if i == j and diagonal is not None:
                assert prod == diagonal, f"block ({i},{j}) is {prod.to_rows()}"
            else:
                assert prod.is_zero, f"block ({i},{j}) is {prod.to_rows()}"


# ---------------------------------------------------------------------------
# random networks and the raw scalar-solvability oracle
# ---------------------------------------------------------------------------

def coefficient_slots(net: CodedNetwork) -> int:
    """Number of free local coefficients in a scalar code for net."""
    node_map = net.node_map()
    total = 0
    for e in net.edges:
        tail = node_map[e.tail]
        total += 1 if tail.role == "source" else len(net.in_edges(e.tail))
    return total


def fractional_slots(net: CodedNetwork, k: int, n: int) -> int:
    """Number of free local block entries in a (k, n) code for net: n×k per
    source edge, n×n per parent of every other edge."""
    node_map = net.node_map()
    total = 0
    for e in net.edges:
        tail = node_map[e.tail]
        total += n * k if tail.role == "source" else n * n * len(net.in_edges(e.tail))
    return total


def random_network(
    rng: random.Random, max_slots: int = 14, max_edges: int | None = None
) -> CodedNetwork:
    """A small random valid DAG: ≤ 3 messages, ≤ 6 edges (≤ max_edges)."""
    while True:
        n_msgs = rng.randint(1, 3)
        messages = tuple(f"m{i}" for i in range(1, n_msgs + 1))
        nodes = [
            NetNode(f"s{i + 1}", "source", generates=m)
            for i, m in enumerate(messages)
        ]
        mids = [f"v{i + 1}" for i in range(rng.randint(0, 2))]
        nodes += [NetNode(v, "intermediate") for v in mids]
        terms = [f"t{i + 1}" for i in range(rng.randint(1, 2))]
        nodes += [
            NetNode(t, "terminal", demands=rng.choice(messages)) for t in terms
        ]
        srcs = [f"s{i + 1}" for i in range(n_msgs)]
        ranked = srcs + mids + terms
        rank_of = {nid: i for i, nid in enumerate(ranked)}
        tails = srcs + mids
        heads = mids + terms
        pairs = set()
        for _ in range(rng.randint(1, 6)):
            t = rng.choice(tails)
            h = rng.choice(heads)
            if rank_of[t] < rank_of[h]:
                pairs.add((t, h))
        if not pairs or (max_edges is not None and len(pairs) > max_edges):
            continue
        edges = tuple(NetEdge(f"{t}->{h}", t, h) for t, h in sorted(pairs))
        net = CodedNetwork("random", messages, tuple(nodes), edges)
        if validate(net).ok and coefficient_slots(net) <= max_slots:
            return net


def copy_clash():
    """A valid network whose terminal ``v#1`` is the name ``union_copies``
    gives the first copy of its intermediate ``v``."""
    nodes = (
        NetNode("s", "source", generates="a"),
        NetNode("v", "intermediate"),
        NetNode("v#1", "terminal", demands="a"),
    )
    edges = (NetEdge("s->v", "s", "v"), NetEdge("v->v#1", "v", "v#1"))
    return CodedNetwork("clash", ("a",), nodes, edges)


def gadget_edge_clash():
    """The Fano network with its edge ``a1->u1`` renamed ``x1#1->x4#1``,
    the id of the x1->x4 edge the gadget's first step adds."""
    fano = gen_fano()
    edges = tuple(
        NetEdge("x1#1->x4#1", e.tail, e.head) if e.id == "a1->u1" else e for e in fano.edges
    )
    return CodedNetwork(fano.name, fano.messages, fano.nodes, edges)


def off_unicast(generators, demanded):
    """Messages x and y; x comes from ``generators`` sources and y from one,
    and one terminal demands ``demanded``."""
    sources = tuple(NetNode(f"s{i}", "source", generates="x") for i in range(generators))
    nodes = sources + (
        NetNode("sy", "source", generates="y"),
        NetNode("t", "terminal", demands=demanded),
    )
    edges = tuple(NetEdge(f"{n.id}->t", n.id, "t") for n in nodes[:-1])
    return CodedNetwork("off", ("x", "y"), nodes, edges)


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) by forward elimination with Fermat inverses."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def decodes(vecs: list[list[int]], demand: int, p: int) -> bool:
    """True iff the demand's unit vector lies in the span of vecs."""
    if not vecs:
        return False
    unit = [1 if i == demand else 0 for i in range(len(vecs[0]))]
    return rank_mod_p(vecs + [unit], p) == rank_mod_p(vecs, p)


def brute_force_scalar(net: CodedNetwork, p: int) -> bool:
    """Raw decision: enumerate every local coefficient assignment over
    GF(p) and test whether some assignment lets every terminal decode."""
    node_map = net.node_map()
    msg_idx = {m: i for i, m in enumerate(net.messages)}
    m = len(net.messages)
    topo = {nid: i for i, nid in enumerate(topological_order(net))}
    order = sorted(net.edges, key=lambda e: (topo[e.tail], e.id))
    slots = []
    for e in order:
        tail = node_map[e.tail]
        if tail.role == "source":
            slots.append((e.id, [("src", msg_idx[tail.generates])]))
        else:
            slots.append(
                (e.id, [("edge", pe.id) for pe in net.in_edges(e.tail)])
            )
    width = sum(len(ins) for _, ins in slots)
    for combo in itertools.product(range(p), repeat=width):
        it = iter(combo)
        vec: dict[str, list[int]] = {}
        for eid, ins in slots:
            acc = [0] * m
            for kind, ref in ins:
                c = next(it)
                if not c:
                    continue
                if kind == "src":
                    acc[ref] = (acc[ref] + c) % p
                else:
                    parent = vec[ref]
                    for t in range(m):
                        acc[t] = (acc[t] + c * parent[t]) % p
            vec[eid] = acc
        good = True
        for term in net.terminals():
            vecs = [vec[e.id] for e in net.in_edges(term.id)]
            if not decodes(vecs, msg_idx[term.demands], p):
                good = False
                break
        if good:
            return True
    return False


def brute_force_fractional(net: CodedNetwork, k: int, n: int, p: int) -> bool:
    """Raw (k, n) decision: enumerate every assignment of local coding
    blocks over GF(p) and test whether one lets every terminal decode.

    Every edge carries n symbols.  A source edge applies an n×k block to
    its message, any other edge an n×n block to each in-edge of its tail,
    so an edge's transfer matrix is n rows over the m·k message columns.
    A terminal decodes iff its demand's k unit rows lie in the row span of
    its in-edges' rows (compared by rank_mod_p).  Edges are filled in
    topological order and each block runs over all p^(rows·cols) matrices.
    """
    node_map = net.node_map()
    msg_idx = {m: i for i, m in enumerate(net.messages)}
    width = len(net.messages) * k
    topo = {nid: i for i, nid in enumerate(topological_order(net))}
    order = sorted(net.edges, key=lambda e: (topo[e.tail], e.id))
    demands = []
    for term in net.terminals():
        d = msg_idx[term.demands]
        units = [[int(c == d * k + j) for c in range(width)] for j in range(k)]
        demands.append(([e.id for e in net.in_edges(term.id)], units))
    rows: dict[str, list[list[int]]] = {}

    def decodes_all() -> bool:
        for in_ids, units in demands:
            stacked = [row for eid in in_ids for row in rows[eid]]
            if not stacked or rank_mod_p(stacked + units, p) != rank_mod_p(stacked, p):
                return False
        return True

    def fill(i: int) -> bool:
        if i == len(order):
            return decodes_all()
        e = order[i]
        tail = node_map[e.tail]
        if tail.role == "source":
            t = msg_idx[tail.generates]
            for entries in itertools.product(range(p), repeat=n * k):
                rows[e.id] = [
                    [entries[r * k + c - t * k] if t * k <= c < (t + 1) * k else 0
                     for c in range(width)]
                    for r in range(n)
                ]
                if fill(i + 1):
                    return True
            return False
        parents = [rows[pe.id] for pe in net.in_edges(e.tail)]
        per_parent = n * n
        for entries in itertools.product(range(p), repeat=per_parent * len(parents)):
            out = []
            for r in range(n):
                acc = [0] * width
                for b, prow in enumerate(parents):
                    for s in range(n):
                        coeff = entries[b * per_parent + r * n + s]
                        if coeff:
                            acc = [(x + coeff * y) % p for x, y in zip(acc, prow[s])]
                out.append(acc)
            rows[e.id] = out
            if fill(i + 1):
                return True
        return False

    return fill(0)


# ---------------------------------------------------------------------------
# search plan tables
# ---------------------------------------------------------------------------

def reference_plan_tables(plan) -> tuple[tuple, tuple]:
    """``(live_at, frontier_after)`` of a search plan rebuilt from its
    ``edges`` and ``checks_at`` the direct way: each live set by a scan of
    every earlier position, and every pending check's frontier re-sorted
    into a fresh tuple at every position, checks that read it first."""
    E = len(plan.edges)
    last_use = list(range(E + len(plan.messages)))
    for i, info in enumerate(plan.edges):
        for j in info.parents:
            last_use[j] = max(last_use[j], i)
    for i, checks in enumerate(plan.checks_at):
        for _, positions in checks:
            for j in positions:
                last_use[j] = max(last_use[j], i)
    live = tuple(tuple(j for j in range(i) if last_use[j] >= i) for i in range(E))

    frontier: list[tuple] = [()] * E
    active: list[tuple[int, set[int]]] = []
    for i in range(E - 1, -1, -1):
        frontier[i] = tuple(
            (demand, tuple(sorted(fr)))
            for demand, fr in sorted(active, key=lambda c: i not in c[1])
        )
        active[:0] = [(demand, set(positions)) for demand, positions in plan.checks_at[i]]
        for _, fr in active:
            if i in fr:
                fr.discard(i)
                fr.update(plan.edges[i].parents)
    return live, tuple(frontier)


# ---------------------------------------------------------------------------
# dense transfer oracle
# ---------------------------------------------------------------------------
# Plain tuple arithmetic on row tuples: nothing below calls into the
# library's gf or lincode arithmetic; codes are read as raw entries only.

def _rows_of(matrix) -> tuple[tuple[int, ...], ...]:
    c = matrix.cols
    return tuple(tuple(matrix.entries[r * c : (r + 1) * c]) for r in range(matrix.rows))


def _zero_rows(rows: int, cols: int) -> tuple[tuple[int, ...], ...]:
    return tuple((0,) * cols for _ in range(rows))


def _plus(a, b, p: int):
    return tuple(tuple((x + y) % p for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _times(a, b, p: int):
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) % p for j in range(len(b[0])))
        for i in range(len(a))
    )


def dense_transfer(net: CodedNetwork, code) -> dict[str, dict[str, tuple]]:
    """Every (edge, message) transfer block as n row tuples of k ints,
    zero blocks included, by memoized recursion over parent edges (no
    topological order needed).  The code must be structurally valid."""
    p, n, k = code.modulus.p, code.n, code.k
    memo: dict[str, dict[str, tuple]] = {}

    def blocks_of(eid: str) -> dict[str, tuple]:
        if eid not in memo:
            blocks = {m: _zero_rows(n, k) for m in net.messages}
            for inp in code.edge_rules[eid]:
                a = _rows_of(inp.matrix)
                if inp.ref.startswith("src:"):
                    m = inp.ref[len("src:") :]
                    blocks[m] = _plus(blocks[m], a, p)
                else:
                    parent = blocks_of(inp.ref)
                    for m in net.messages:
                        blocks[m] = _plus(blocks[m], _times(a, parent[m], p), p)
            memo[eid] = blocks
        return memo[eid]

    return {e.id: blocks_of(e.id) for e in net.edges}


def dense_verify(net: CodedNetwork, code) -> list[tuple]:
    """Per terminal, sorted by id: (terminal, demanded, passed, demanded
    block as a list of row lists, interferers in message order)."""
    p, k = code.modulus.p, code.k
    transfer = dense_transfer(net, code)
    ident = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    out = []
    for term in sorted(net.terminals(), key=lambda t: t.id):
        decoded = {m: _zero_rows(k, k) for m in net.messages}
        for inp in code.decode_rules.get(term.id, ()):
            d = _rows_of(inp.matrix)
            for m in net.messages:
                decoded[m] = _plus(decoded[m], _times(d, transfer[inp.ref][m], p), p)
        interferers = tuple(
            m for m in net.messages
            if m != term.demands and any(any(r) for r in decoded[m])
        )
        passed = decoded[term.demands] == ident and not interferers
        out.append((term.id, term.demands, passed,
                    [list(r) for r in decoded[term.demands]], interferers))
    return out


# ---------------------------------------------------------------------------
# network reversal
# ---------------------------------------------------------------------------
#
# Reversing every edge of a multiple-unicast network and swapping each
# message's source and terminal turns a (k, n) linear code into one on the
# reversed network by transposing every block: the transfer from message i
# to the terminal of j becomes the transpose of the one from j to the
# terminal of i, so the transposed code decodes exactly when the code does.

_SWAPPED_ROLE = {"source": "terminal", "terminal": "source"}


def reverse(net: CodedNetwork) -> CodedNetwork:
    """Every edge flipped under its own id; each source becomes the terminal
    of the message it generated and each terminal the source of the one it
    demanded."""
    nodes = [NetNode(v.id, _SWAPPED_ROLE.get(v.role, v.role), v.demands, v.generates)
             for v in net.nodes]
    edges = [NetEdge(e.id, e.head, e.tail) for e in net.edges]
    return CodedNetwork(net.name, net.messages, nodes, edges)


def _transpose(m):
    flat = tuple(m.entries[i * m.cols + j] for j in range(m.cols) for i in range(m.rows))
    if isinstance(m, FieldMatrix):
        return FieldMatrix(m.cols, m.rows, flat, m.modulus)
    return SymMatrix(m.cols, m.rows, flat)


def transpose_code(net: CodedNetwork, code):
    """The code on ``reverse(net)`` whose blocks are the transposes of
    ``code``'s: an edge block A read by edge e from f becomes Aᵀ read by f
    from e, a source block S of edge e becomes a decode block Sᵀ of e's tail,
    and a decode block D of edge e at a terminal becomes e's source block Dᵀ
    of the message that terminal demanded.  ``code`` is a ``FractionalCode``
    or a ``SymbolicCode``, and so is the result, whose constructor sorts
    each rule's inputs into a tuple."""
    node_map, edge_map = net.node_map(), net.edge_map()
    edge_rules: dict[str, list] = {e.id: [] for e in net.edges}
    decode_rules: dict[str, list] = {}
    for eid, inputs in code.edge_rules.items():
        for inp in inputs:
            if inp.ref.startswith("src:"):
                rule = decode_rules.setdefault(edge_map[eid].tail, [])
            else:
                rule = edge_rules[inp.ref]
            rule.append(CodeInput(eid, _transpose(inp.matrix)))
    for term, inputs in code.decode_rules.items():
        ref = "src:" + node_map[term].demands
        for inp in inputs:
            edge_rules[inp.ref].append(CodeInput(ref, _transpose(inp.matrix)))
    if isinstance(code, SymbolicCode):
        return SymbolicCode(code.k, code.n, code.q, edge_rules, decode_rules)
    return FractionalCode(code.k, code.n, code.modulus, edge_rules, decode_rules, code.q)
