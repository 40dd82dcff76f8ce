"""Hand-built (1, n) codes for the two network families, plus liftings.

``solve_n1`` and ``solve_n2`` write down the explicit rate-1/n codes as
symbolic data, read by ``_solve`` off the family's one list in
``constructions``.  A source edge carries its message in its slot, every
other edge sends the sum of its tail's in-edges times I_n, and a
terminal decodes its slot.  Each family lists only the in-edges whose
weight in that sum is not 1.  In n1 they are all -1, and the
a-terminals receive a_i - q*c_i, which collapses to a_i exactly when the
characteristic divides q.  In n2 the last bottleneck weighs its q+1
inputs by 1/q and -(q-1)/q, the one place the field is genuinely needed,
so instantiation requires the characteristic not to divide q.

``lift_union`` turns a (1, n) code on a base network into a (k, n) code
on the k-fold union by routing component i of every source through copy
i with the same local matrices.  ``lift_gadget`` extends a (1, n) code
across the demand-splitting gadget, reading each step's code off the
edge list that built it, ``GadgetApplication.edges``, by the same rules
as ``_solve``: the bottleneck carries [b+z, y_1, ..., y_{n-1}] and the
new terminals peel their symbols back out with differences.  Each lift
builds every distinct block it places once and shares it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable

from .constructions import (
    _Family,
    _n1_family,
    _n2_family,
    edge_id,
    gadget_transform_traced,
)
from .lincode import SRC_PREFIX, CodeInput, SymEntry, SymMatrix, SymbolicCode
from .network import CodedNetwork, _int_at_least

Rules = dict[str, tuple[CodeInput, ...]]

_ONE: SymEntry = (1, False)
_NEG: SymEntry = (-1, False)


def _solve(fam: _Family, q: int, n: int, weights: dict[str, SymEntry]) -> SymbolicCode:
    """The (1, n) code a family's list fixes: a source edge puts its
    message in its slot, every other edge sends the sum of its tail's
    in-edges, in-edge f times ``weights.get(f, 1)`` times I_n, and a
    terminal decodes its slot of its one in-edge."""
    cols = [SymMatrix.unit_column(n, j) for j in range(1, n + 1)]
    rows = [SymMatrix.unit_row(n, j) for j in range(1, n + 1)]
    scaled = {w: SymMatrix.scaled_identity(n, *w) for w in {_ONE, *weights.values()}}
    er: Rules = {}
    into: dict[str, list[CodeInput]] = defaultdict(list)  # each node's summands
    for m, head, slot in fam.sources:
        eid = edge_id(m, head)
        er[eid] = (CodeInput(SRC_PREFIX + m, cols[slot - 1]),)
        into[head].append(CodeInput(eid, scaled[weights.get(eid, _ONE)]))
    edges = fam.inner_edges()
    for eid, _, head in edges:
        into[head].append(CodeInput(eid, scaled[weights.get(eid, _ONE)]))
    for eid, tail, _ in edges:
        er[eid] = tuple(into[tail])
    dr = {tid: (CodeInput(edge_id(t, tid), rows[j - 1]),) for tid, _, j, t in fam.terminals}
    return SymbolicCode(1, n, q, er, dr)


def solve_n1(q: int, n: int) -> SymbolicCode:
    """The (1, n) code for the first family; verifies iff char divides q."""
    fam = _n1_family(q, n)
    # u1 and u3 carry sum(a) + sum(b); u2 and u4 carry sum(b) + sum(c).
    # u5: sum(a) - sum(c), the b-block cancelling;  u9: sum(b);  u11: sum(c),
    # the direct a-taps cancelling the a-block of u7
    neg = ["u4->u5", "u7->u9", "u7->u11"]
    # u13: sum(a) - q*sum(c), which is sum(a) exactly when char divides q
    neg += [edge_id(f"e{i}h", "u13") for i in fam.branches]
    # u6: sum(a) + sum(b) - sum(c);  e_i: its own b-row plus sum(c), the
    # other rows peeled out of u4;  v_i: row i of b, peeled out of u10's
    # sum(b);  w_i: sum(c), peeled out of e_i
    neg += [edge_id(m, h) for m, h, _ in fam.sources if h not in ("u1", "u2", "u11")]
    return _solve(fam, q, n, dict.fromkeys(neg, _NEG))


def solve_n2(q: int, n: int) -> SymbolicCode:
    """The (1, n) code for the second family; verifies iff char does not
    divide q (the last bottleneck averages its branches with 1/q)."""
    fam = _n2_family(q, n)
    # ea: sum(a) + sum(b);  e_i: sum(a) + sum(b without row i);  eb: sum(b)
    weights = {
        # eap: sum(a)
        "ebh->eapt": _NEG,
        # ebp: (sum_i e_i - (q-1) eb)/q = sum(a), the one place that needs 1/q
        "ebh->ebpt": (-(q - 1), True),
    }
    for i in fam.branches:
        # e_ip: row i of b
        weights[edge_id(f"e{i}h", f"e{i}pt")] = _NEG
        weights[edge_id(f"e{i}h", "ebpt")] = (1, True)
    return _solve(fam, q, n, weights)


# -- lifting to unions ---------------------------------------------------------


def _place(block: SymMatrix, rows: int, cols: int, top: int, left: int) -> SymMatrix:
    """A rows x cols zero matrix holding ``block`` from row ``top``,
    column ``left``."""
    flat = [(0, False)] * (rows * cols)
    w = block.cols
    for r in range(block.rows):
        start = (top + r) * cols + left
        flat[start : start + w] = block.entries[r * w : (r + 1) * w]
    return SymMatrix(rows, cols, tuple(flat))


def _placer() -> Callable[[SymMatrix, int, int, int, int], SymMatrix]:
    """``_place`` that keeps the blocks it has placed, so that equal
    blocks are one shared matrix, also when different placements make
    them: a lift makes one per call, and a code places few distinct
    blocks among many inputs."""
    by_args: dict[tuple[SymMatrix, int, int, int, int], SymMatrix] = {}
    by_value: dict[SymMatrix, SymMatrix] = {}

    def place(*args):
        block = by_args.get(args)
        if block is None:
            block = _place(*args)
            block = by_args[args] = by_value.setdefault(block, block)
        return block

    return place


def lift_union(sym: SymbolicCode, copies: int) -> SymbolicCode:
    """(k, n) code on the k-fold union: component i of each source takes
    the base code's route through copy i, with the same local matrices."""
    if sym.k != 1:
        raise ValueError("lift_union needs a (1, n) base code")
    if not _int_at_least(copies, 1):
        raise ValueError(f"copies must be an integer >= 1, got {copies!r}")
    if copies == 1:
        return sym
    place = _placer()
    er: Rules = {}
    dr: Rules = {}
    for c in range(1, copies + 1):
        for eid, inputs in sym.edge_rules.items():
            lifted = []
            for inp in inputs:
                if inp.ref.startswith(SRC_PREFIX):
                    # an n x 1 source column becomes column c of n x k
                    block = place(inp.matrix, inp.matrix.rows, copies, 0, c - 1)
                    lifted.append(CodeInput(inp.ref, block))
                else:
                    lifted.append(CodeInput(f"{inp.ref}#{c}", inp.matrix))
            er[f"{eid}#{c}"] = tuple(lifted)
    for tid, inputs in sym.decode_rules.items():
        rows = []
        for c in range(1, copies + 1):
            for inp in inputs:
                # a 1 x n decode row becomes row c of k x n
                block = place(inp.matrix, copies, inp.matrix.cols, c - 1, 0)
                rows.append(CodeInput(f"{inp.ref}#{c}", block))
        dr[tid] = tuple(rows)
    return SymbolicCode(copies, sym.n, sym.q, er, dr)


# -- lifting across the gadget -------------------------------------------------


def lift_gadget(
    sym: SymbolicCode, base: CodedNetwork, gadgeted: CodedNetwork
) -> SymbolicCode:
    """Extend a (1, n) code over the gadget rewrite of its network.

    The gadget applications are replayed on the base network; the replay
    must reproduce ``gadgeted`` exactly.  Each step's code is read off the
    same edge list that built it, ``GadgetApplication.edges``: a source
    edge carries its message in its slot, a demoted terminal forwards its
    decoded symbol in slot 1, and every other edge sends the sum of its
    tail's in-edges, so the bottleneck carries [b+z, y_1, ..., y_{n-1}].
    x4 and x5 decode by differences and each t_i decodes its slot.
    """
    if sym.k != 1:
        raise ValueError("lift_gadget needs a (1, n) base code")
    n = sym.n
    rebuilt, applications = gadget_transform_traced(base, n)
    if rebuilt != gadgeted:
        raise ValueError(
            "gadgeted network does not match the gadget transform of the base"
        )
    ident = SymMatrix.scaled_identity(n)
    cols = [SymMatrix.unit_column(n, j) for j in range(1, n + 1)]
    rows = [SymMatrix.unit_row(n, j) for j in range(1, n + 1)]
    minus_row1 = SymMatrix.unit_row(n, 1, coeff=-1)
    place = _placer()
    er: Rules = dict(sym.edge_rules)
    dr: Rules = dict(sym.decode_rules)
    for app in applications:
        # what a new source or a demoted terminal sends on its new out-edges:
        # its message's unit column at its slot (z in 1, y_i in i+1), or its
        # 1 x n decode row as the first row of an n x n block
        sends = {v: (CodeInput(SRC_PREFIX + m, col),) for (v, m), col in zip(app.sources(), cols)}
        for t in (app.n1, app.n2):
            sends[t] = tuple(CodeInput(i.ref, place(i.matrix, n, n, 0, 0)) for i in dr.pop(t))
        into: dict[str, list[str]] = defaultdict(list)
        for tail, head in app.edges():
            eid = edge_id(tail, head)
            if tail in sends:
                er[eid] = sends[tail]
            else:  # x2 and x3 send the sum of their in-edges
                er[eid] = tuple(CodeInput(f, ident) for f in into[tail])
            into[head].append(eid)
        # x4 wants b = (b+z) - z; x5 wants z = (b+z) - b
        for x in app.x_nodes[3:]:
            first, second = into[x]
            dr[x] = (CodeInput(first, rows[0]), CodeInput(second, minus_row1))
        for t, row in zip(app.t_nodes, rows[1:]):
            dr[t] = (CodeInput(into[t][0], row),)
    return SymbolicCode(1, n, sym.q, er, dr)
