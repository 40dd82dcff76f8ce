"""Hand-built (1, n) codes for the two network families, plus liftings.

``solve_n1`` and ``solve_n2`` write down the explicit rate-1/n codes as
symbolic data.  The rules of the source and terminal edges and the decode
rules come from the family's lists in ``constructions``; only the middle
edges' rules are written here.  All entries are 0 or +/-1, except the one
place the second family genuinely needs the field: the last bottleneck
combines its q+1 inputs with coefficients 1/q and -(q-1)/q, so
instantiation requires the characteristic not to divide q.  Conversely,
the first family's code delivers a_i - q*c_i to the a-terminals, which
collapses to a_i exactly when the characteristic divides q.

``lift_union`` turns a (1, n) code on a base network into a (k, n) code
on the k-fold union by routing component i of every source through copy
i with the same local matrices.  ``lift_gadget`` extends a (1, n) code
across the demand-splitting gadget: the bottleneck carries
[b+z, y_1, ..., y_{n-1}] and the new terminals peel their symbols back
out with differences.
"""

from __future__ import annotations

from collections import defaultdict

from .constructions import _Family, _n1_family, _n2_family, gadget_transform_traced
from .lincode import SRC_PREFIX, SymInput, SymMatrix, SymbolicCode
from .network import CodedNetwork, _int_at_least

Rules = dict[str, tuple[SymInput, ...]]


def _family_rules(fam: _Family, n: int) -> tuple[Rules, Rules, dict[str, list[str]]]:
    """The rules a family's lists fix: each source edge reads its message
    into its slot, each terminal edge forwards its tail's in-edge, and each
    terminal decodes its slot of that block.  Also returns, per node, the
    ids of the source edges into it (none for a node no source feeds)."""
    ident = SymMatrix.scaled_identity(n)
    cols = [SymMatrix.unit_column(n, j) for j in range(1, n + 1)]
    rows = [SymMatrix.unit_row(n, j) for j in range(1, n + 1)]
    er: Rules = {}
    dr: Rules = {}
    fed: dict[str, list[str]] = defaultdict(list)
    for m, head, slot in fam.sources:
        eid = f"{m}->{head}"
        er[eid] = (SymInput(SRC_PREFIX + m, cols[slot - 1]),)
        fed[head].append(eid)
    for tid, _, slot, tail, feed in fam.terminals:
        eid = f"{tail}->{tid}"
        er[eid] = (SymInput(feed, ident),)
        dr[tid] = (SymInput(eid, rows[slot - 1]),)
    return er, dr, fed


def _inputs(refs: list[str], matrix: SymMatrix) -> tuple[SymInput, ...]:
    return tuple(SymInput(ref, matrix) for ref in refs)


def solve_n1(q: int, n: int) -> SymbolicCode:
    """The (1, n) code for the first family; verifies iff char divides q."""
    fam = _n1_family(q, n)
    ident = SymMatrix.scaled_identity(n)
    neg = SymMatrix.scaled_identity(n, coeff=-1)
    er, dr, fed = _family_rules(fam, n)

    # u1 carries sum(a) + sum(b); u2 carries sum(b) + sum(c)
    er["u1->u3"] = _inputs(fed["u1"], ident)
    er["u2->u4"] = _inputs(fed["u2"], ident)
    er["u3->u5"] = (SymInput("u1->u3", ident),)
    er["u3->u6"] = (SymInput("u1->u3", ident),)
    er["u4->u5"] = (SymInput("u2->u4", ident),)
    # sum(a) - sum(c): the b-block cancels between the two branches
    er["u5->u7"] = (SymInput("u3->u5", ident), SymInput("u4->u5", neg))
    # sum(a) + sum(b) - sum(c)
    er["u6->u8"] = (SymInput("u3->u6", ident),) + _inputs(fed["u6"], neg)
    er["u7->u9"] = (SymInput("u5->u7", ident),)
    er["u7->u11"] = (SymInput("u5->u7", ident),)
    er["u8->u9"] = (SymInput("u6->u8", ident),)
    er["u8->u13"] = (SymInput("u6->u8", ident),)
    # sum(b)
    er["u9->u10"] = (SymInput("u8->u9", ident), SymInput("u7->u9", neg))
    # sum(c): the direct a-taps cancel the a-block of the u7 branch
    er["u11->u12"] = _inputs(fed["u11"], ident) + (SymInput("u7->u11", neg),)
    for i in fam.branches:
        # branch i carries its own b-row plus sum(c)
        er[f"u4->e{i}t"] = (SymInput("u2->u4", ident),)
        er[f"e{i}"] = (SymInput(f"u4->e{i}t", ident),) + _inputs(fed[f"e{i}t"], neg)
        er[f"e{i}h->u13"] = (SymInput(f"e{i}", ident),)
        er[f"e{i}h->w{i}"] = (SymInput(f"e{i}", ident),)
        er[f"u10->v{i}"] = (SymInput("u9->u10", ident),)
        er[f"v{i}->v{i}p"] = (SymInput(f"u10->v{i}", ident),) + _inputs(fed[f"v{i}"], neg)
        er[f"w{i}->w{i}p"] = (SymInput(f"e{i}h->w{i}", ident),) + _inputs(fed[f"w{i}"], neg)
    # sum(a) - q*sum(c): equals sum(a) exactly when char divides q
    er["u13->u14"] = (SymInput("u8->u13", ident),) + tuple(
        SymInput(f"e{i}h->u13", neg) for i in fam.branches
    )
    return SymbolicCode(1, n, q, er, dr)


def solve_n2(q: int, n: int) -> SymbolicCode:
    """The (1, n) code for the second family; verifies iff char does not
    divide q (the last bottleneck averages its branches with 1/q)."""
    fam = _n2_family(q, n)
    ident = SymMatrix.scaled_identity(n)
    neg = SymMatrix.scaled_identity(n, coeff=-1)
    inv_q = SymMatrix.scaled_identity(n, coeff=1, inv_q=True)
    comp = SymMatrix.scaled_identity(n, coeff=-(q - 1), inv_q=True)
    er, dr, fed = _family_rules(fam, n)

    # ea: sum(a) + sum(b);  e_i: sum(a) + sum(b without row i);  eb: sum(b)
    er["ea"] = _inputs(fed["eat"], ident)
    for i in fam.branches:
        er[f"e{i}"] = _inputs(fed[f"e{i}t"], ident)
    er["eb"] = _inputs(fed["ebt"], ident)

    er["eah->eapt"] = (SymInput("ea", ident),)
    er["ebh->eapt"] = (SymInput("eb", ident),)
    er["ebh->ebpt"] = (SymInput("eb", ident),)
    for i in fam.branches:
        er[f"e{i}h->e{i}pt"] = (SymInput(f"e{i}", ident),)
        er[f"eah->e{i}pt"] = (SymInput("ea", ident),)
        er[f"e{i}h->ebpt"] = (SymInput(f"e{i}", ident),)

    # eap: sum(a);  e_ip: row i of b;  ebp: (sum_i e_i - (q-1) eb)/q = sum(a)
    er["eap"] = (SymInput("eah->eapt", ident), SymInput("ebh->eapt", neg))
    for i in fam.branches:
        er[f"e{i}p"] = (
            SymInput(f"eah->e{i}pt", ident),
            SymInput(f"e{i}h->e{i}pt", neg),
        )
    er["ebp"] = tuple(SymInput(f"e{i}h->ebpt", inv_q) for i in fam.branches) + (
        SymInput("ebh->ebpt", comp),
    )
    return SymbolicCode(1, n, q, er, dr)


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


def lift_union(sym: SymbolicCode, copies: int) -> SymbolicCode:
    """(k, n) code on the k-fold union: component i of each source takes
    the base code's route through copy i, with the same local matrices."""
    if sym.k != 1:
        raise ValueError("lift_union needs a (1, n) base code")
    if not _int_at_least(copies, 1):
        raise ValueError(f"copies must be an integer >= 1, got {copies!r}")
    if copies == 1:
        return sym
    er: Rules = {}
    dr: Rules = {}
    for c in range(1, copies + 1):
        for eid, inputs in sym.edge_rules.items():
            lifted = []
            for inp in inputs:
                if inp.ref.startswith(SRC_PREFIX):
                    # an n x 1 source column becomes column c of n x k
                    block = _place(inp.matrix, inp.matrix.rows, copies, 0, c - 1)
                    lifted.append(SymInput(inp.ref, block))
                else:
                    lifted.append(SymInput(f"{inp.ref}#{c}", inp.matrix))
            er[f"{eid}#{c}"] = tuple(lifted)
    for tid, inputs in sym.decode_rules.items():
        rows = []
        for c in range(1, copies + 1):
            for inp in inputs:
                # a 1 x n decode row becomes row c of k x n
                block = _place(inp.matrix, copies, inp.matrix.cols, c - 1, 0)
                rows.append(SymInput(f"{inp.ref}#{c}", block))
        dr[tid] = tuple(rows)
    return SymbolicCode(copies, sym.n, sym.q, er, dr)


# -- lifting across the gadget -------------------------------------------------


def lift_gadget(
    sym: SymbolicCode, base: CodedNetwork, gadgeted: CodedNetwork
) -> SymbolicCode:
    """Extend a (1, n) code over the gadget rewrite of its network.

    The gadget applications are replayed on the base network; the replay
    must reproduce ``gadgeted`` exactly.  Demoted terminals forward their
    decoded symbol in slot 1 of their new out-edge, the bottleneck stacks
    it with the fresh y-messages, and the added terminals decode by
    differences.
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
    er: Rules = dict(sym.edge_rules)
    dr: Rules = dict(sym.decode_rules)
    for app in applications:
        x1, x2, x3, x4, x5 = app.x_nodes
        rule_n1 = dr.pop(app.n1)
        rule_n2 = dr.pop(app.n2)
        # demoted terminals forward the decoded demand in slot 1: each
        # 1 x n decode row becomes the first row of an n x n edge input
        er[f"{app.n1}->{x2}"] = tuple(
            SymInput(inp.ref, _place(inp.matrix, n, n, 0, 0)) for inp in rule_n1
        )
        er[f"{app.n2}->{x5}"] = tuple(
            SymInput(inp.ref, _place(inp.matrix, n, n, 0, 0)) for inp in rule_n2
        )
        er[f"{x1}->{x2}"] = (
            SymInput(SRC_PREFIX + app.z_message, SymMatrix.unit_column(n, 1)),
        )
        er[f"{x1}->{x4}"] = (
            SymInput(SRC_PREFIX + app.z_message, SymMatrix.unit_column(n, 1)),
        )
        for slot, (sid, ym) in enumerate(zip(app.s_nodes, app.y_messages), start=2):
            er[f"{sid}->{x2}"] = (
                SymInput(SRC_PREFIX + ym, SymMatrix.unit_column(n, slot)),
            )
        # bottleneck: [b+z, y_1, ..., y_{n-1}]
        bottleneck_inputs = [SymInput(f"{app.n1}->{x2}", ident), SymInput(f"{x1}->{x2}", ident)]
        bottleneck_inputs += [SymInput(f"{sid}->{x2}", ident) for sid in app.s_nodes]
        er[f"{x2}->{x3}"] = tuple(bottleneck_inputs)
        er[f"{x3}->{x4}"] = (SymInput(f"{x2}->{x3}", ident),)
        er[f"{x3}->{x5}"] = (SymInput(f"{x2}->{x3}", ident),)
        for tid in app.t_nodes:
            er[f"{x3}->{tid}"] = (SymInput(f"{x2}->{x3}", ident),)
        # x4 wants b = (b+z) - z; x5 wants z = (b+z) - b
        dr[x4] = (
            SymInput(f"{x3}->{x4}", SymMatrix.unit_row(n, 1)),
            SymInput(f"{x1}->{x4}", SymMatrix.unit_row(n, 1, coeff=-1)),
        )
        dr[x5] = (
            SymInput(f"{x3}->{x5}", SymMatrix.unit_row(n, 1)),
            SymInput(f"{app.n2}->{x5}", SymMatrix.unit_row(n, 1, coeff=-1)),
        )
        for slot, tid in enumerate(app.t_nodes, start=2):
            dr[tid] = (SymInput(f"{x3}->{tid}", SymMatrix.unit_row(n, slot)),)
    return SymbolicCode(1, n, sym.q, er, dr)
