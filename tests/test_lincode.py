"""Fractional code representation, transfer evaluation, and verification."""

import gc
import json
import random
import re

import pytest

from ncchar import (
    CharacteristicError,
    CodeError,
    CodeFormatError,
    CodedNetwork,
    CodeInput,
    FractionalCode,
    NetEdge,
    NetNode,
    eval_transfer,
    gadget_transform,
    gen_fano,
    gen_n1,
    gen_n2,
    gen_nonfano,
    instantiate,
    lift_gadget,
    lift_union,
    load_code,
    save_code,
    solve_n1,
    solve_n2,
    union_copies,
    verify,
)
from ncchar import lincode
from ncchar.gf import FieldMatrix, PrimeModulus
from ncchar.lincode import _BATCH_MIN, SymbolicCode, SymMatrix
from util_oracles import dense_transfer, dense_verify


def tiny_net():
    return CodedNetwork(
        "tiny",
        ("a1",),
        (
            NetNode("s1", "source", generates="a1"),
            NetNode("t1", "terminal", demands="a1"),
        ),
        (NetEdge("s1->t1", "s1", "t1"),),
    )


def tiny_code(p=2, coeff=1):
    m = FieldMatrix.from_rows([[coeff]], p)
    return FractionalCode(
        1,
        1,
        m.modulus,
        {"s1->t1": (CodeInput("src:a1", m),)},
        {"t1": (CodeInput("s1->t1", m),)},
    )


# ---------------------------------------------------------------------------
# instantiation of symbolic codes
# ---------------------------------------------------------------------------

def test_instantiate_maps_inv_q():
    code = instantiate(solve_n2(2, 1), 3)
    # 2 * 2 = 4 = 1 mod 3, so 1/q appears as 2 somewhere in the rules
    entries = set()
    for inputs in code.edge_rules.values():
        for inp in inputs:
            entries.update(inp.matrix.entries)
    assert 2 in entries


def test_instantiate_rejects_characteristic_dividing_q():
    with pytest.raises(CharacteristicError) as exc:
        instantiate(solve_n2(2, 1), 2)
    assert "characteristic divides q" in str(exc.value)
    with pytest.raises(CharacteristicError):
        instantiate(solve_n2(6, 1), 3)


def test_instantiate_reduces_negative_entries():
    code = instantiate(solve_n1(2, 1), 2)
    for rules in (code.edge_rules, code.decode_rules):
        for inputs in rules.values():
            for inp in inputs:
                assert all(0 <= x < 2 for x in inp.matrix.entries)


def test_instantiate_without_inv_q_accepts_any_prime():
    # the n1 construction never divides by q
    instantiate(solve_n1(2, 1), 2)
    instantiate(solve_n1(2, 1), 3)
    instantiate(solve_n1(6, 2), 5)


def test_instantiate_shares_equal_matrices_held_as_distinct_objects():
    # matrices are looked up by id first and by value on a miss, so equal
    # symbolic matrices that are distinct objects still become one matrix
    sym = solve_n1(30, 4)

    def copied(rules):  # a new SymMatrix object for every input
        return {
            key: tuple(CodeInput(i.ref, SymMatrix(i.matrix.rows, i.matrix.cols, i.matrix.entries))
                       for i in ins)
            for key, ins in rules.items()
        }

    distinct = SymbolicCode(sym.k, sym.n, sym.q, copied(sym.edge_rules), copied(sym.decode_rules))
    assert distinct == sym
    for code in (sym, distinct):
        field = instantiate(code, 3)
        rules = (*field.edge_rules.values(), *field.decode_rules.values())
        matrices = [inp.matrix for inputs in rules for inp in inputs]
        assert len(matrices) == 14_446
        assert len({id(m) for m in matrices}) == len(set(matrices)) == 10
    assert save_code(instantiate(distinct, 3)) == save_code(instantiate(sym, 3))


def test_instantiate_equals_the_checked_constructor():
    # instantiate skips the rule check; the checked FractionalCode built
    # from the same entries, each rule's inputs handed over in reverse
    # order, must come out equal to it
    def checked(sym, p):
        q_inv = pow(sym.q, -1, p) if sym.q % p else None  # n1 codes never use it

        def field(m):
            vals = [c * q_inv if inv else c for c, inv in m.entries]
            return FieldMatrix.from_rows(
                [vals[r * m.cols : (r + 1) * m.cols] for r in range(m.rows)], p
            )

        def rules(sym_rules):
            return {
                key: tuple(CodeInput(i.ref, field(i.matrix)) for i in reversed(inputs))
                for key, inputs in sym_rules.items()
            }

        return FractionalCode(
            sym.k, sym.n, PrimeModulus(p), rules(sym.edge_rules),
            rules(sym.decode_rules), sym.q,
        )

    base = gen_n1(2, 1)
    for sym, p in (
        (solve_n1(2, 2), 3),
        (solve_n2(2, 1), 3),
        (solve_n2(3, 2), 5),
        (lift_union(solve_n1(2, 2), 2), 2),
        (lift_gadget(solve_n1(2, 1), base, gadget_transform(base, 1)), 5),
    ):
        assert instantiate(sym, p) == checked(sym, p)


# ---------------------------------------------------------------------------
# transfer evaluation
# ---------------------------------------------------------------------------

def test_eval_single_source_edge():
    tm = eval_transfer(tiny_net(), tiny_code())
    assert tm == {"s1->t1": {"a1": (1,)}}


def test_eval_all_zero_rules():
    net = tiny_net()
    code = FractionalCode(
        1,
        1,
        FieldMatrix.zeros(1, 1, 2).modulus,
        {"s1->t1": ()},
        {},
    )
    tm = eval_transfer(net, code)
    assert "a1" not in tm["s1->t1"]


def test_eval_bottleneck_blocks_on_solved_network():
    net = gen_n1(2, 2)
    code = instantiate(solve_n1(2, 2), 2)
    blocks = eval_transfer(net, code)["u13->u14"]
    # the a-symbols pass through on their own coordinate, everything else
    # cancels; blocks are 2x1, row-major
    assert blocks["a1"] == (1, 0)
    assert blocks["a2"] == (0, 1)
    for m in ("b11", "b12", "c1", "c2"):
        assert m not in blocks


def _eval_and_verify_error(net, code):
    """The CodeError text of ``eval_transfer``, checked to be ``verify``'s too."""
    texts = []
    for fn in (eval_transfer, verify):
        with pytest.raises(CodeError) as exc:
            fn(net, code)
        texts.append(str(exc.value))
    assert texts[0] == texts[1]
    return texts[0]


def test_eval_rejects_rule_reading_non_parent():
    net = CodedNetwork(
        "two",
        ("a1",),
        (
            NetNode("s1", "source", generates="a1"),
            NetNode("v1", "intermediate"),
            NetNode("t1", "terminal", demands="a1"),
        ),
        (
            NetEdge("s1->v1", "s1", "v1"),
            NetEdge("v1->t1", "v1", "t1"),
        ),
    )
    one = FieldMatrix.from_rows([[1]], 2)
    code = FractionalCode(
        1,
        1,
        one.modulus,
        {
            "s1->v1": (CodeInput("src:a1", one),),
            "v1->t1": (CodeInput("s1->t1", one),),  # no such in-edge
        },
        {"t1": (CodeInput("v1->t1", one),)},
    )
    assert _eval_and_verify_error(net, code) == (
        "rule for edge 'v1->t1' reads 's1->t1', which is not an in-edge of its tail 'v1'"
    )


def test_eval_rejects_missing_rule():
    net = tiny_net()
    code = FractionalCode(1, 1, FieldMatrix.zeros(1, 1, 2).modulus, {}, {})
    assert _eval_and_verify_error(net, code) == "no rule for edge 's1->t1'"


def test_eval_rejects_rule_reading_an_edge_from_no_node():
    # validate refuses an edge whose tail is not a node; verify does not
    # run it, and the edge is never evaluated, so the rules that read it
    # must fail as broken codes
    net = gen_n1(2, 1)
    code = instantiate(solve_n1(2, 1), 2)
    ghost = CodedNetwork(
        net.name,
        net.messages,
        net.nodes,
        tuple(NetEdge(e.id, "ghost", e.head) if e.id == "a1->u1" else e for e in net.edges),
    )
    assert _eval_and_verify_error(ghost, code) == (
        "rule for edge 'u1->u3' reads 'a1->u1', which was never evaluated: "
        "its tail is not a node"
    )
    # an edge from no node into a terminal breaks its decode rule instead
    tiny = tiny_net()
    into_t1 = CodedNetwork("tiny", tiny.messages, tiny.nodes, (NetEdge("s1->t1", "ghost", "t1"),))
    with pytest.raises(CodeError, match="^decode rule for 't1' reads 's1->t1', which was never"):
        verify(into_t1, tiny_code())


def test_eval_unreachable_messages_have_zero_blocks():
    net = gen_n1(2, 2)
    code = instantiate(solve_n1(2, 2), 2)
    tm = eval_transfer(net, code)
    # ancestors of each edge tail determine which messages can appear
    gen_node = {s.generates: s.id for s in net.sources()}
    parents = {n.id: {e.tail for e in net.in_edges(n.id)} for n in net.nodes}

    def ancestors(nid):
        seen = set()
        stack = [nid]
        while stack:
            cur = stack.pop()
            for nxt in parents[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    for e in net.edges:
        reach = ancestors(e.head)
        for m in net.messages:
            if gen_node[m] not in reach:
                assert m not in tm[e.id]


def test_transfer_map_reads_absent_messages_as_zero():
    net = gen_n1(2, 2)
    code = instantiate(solve_n1(2, 2), 2)
    blocks = eval_transfer(net, code)["u13->u14"]
    # only the nonzero blocks are stored and iterated
    assert sorted(blocks) == ["a1", "a2"]
    dense = dense_transfer(net, code)["u13->u14"]
    for m in ("b11", "b12", "c1", "c2"):
        assert m not in blocks
        assert dense[m] == ((0,), (0,))  # an absent message's block is zero


def test_eval_rejects_src_input_at_wrong_tail():
    net = CodedNetwork(
        "two",
        ("a1", "a2"),
        (
            NetNode("s1", "source", generates="a1"),
            NetNode("s2", "source", generates="a2"),
            NetNode("v1", "intermediate"),
            NetNode("t1", "terminal", demands="a1"),
        ),
        (
            NetEdge("s1->v1", "s1", "v1"),
            NetEdge("s2->v1", "s2", "v1"),
            NetEdge("v1->t1", "v1", "t1"),
        ),
    )
    one = FieldMatrix.from_rows([[1]], 2)
    good = {
        "s1->v1": (CodeInput("src:a1", one),),
        "s2->v1": (CodeInput("src:a2", one),),
        "v1->t1": (CodeInput("s1->v1", one),),
    }
    decode = {"t1": (CodeInput("v1->t1", one),)}
    assert verify(net, FractionalCode(1, 1, one.modulus, good, decode)).passed
    for edge, ref, tail in (
        ("s1->v1", "src:a2", "s1"),  # a source reading another source's message
        ("v1->t1", "src:a1", "v1"),  # an intermediate node reading a message
    ):
        rules = dict(good, **{edge: (CodeInput(ref, one),)})
        code = FractionalCode(1, 1, one.modulus, rules, decode)
        assert _eval_and_verify_error(net, code) == (
            f"rule for edge {edge!r} reads {ref!r}, but its tail {tail!r} "
            f"does not generate that message"
        )


# ---------------------------------------------------------------------------
# differential check against the dense oracle
# ---------------------------------------------------------------------------

def _oracle_cases():
    fano, nonfano = gen_fano(), gen_nonfano()
    fano_sym = solve_n1(2, 1)
    gadget = gadget_transform(fano, 1)
    return {
        "fano": (fano, fano_sym),
        "nonfano": (nonfano, solve_n2(2, 1)),
        "n1(2,2)": (gen_n1(2, 2), solve_n1(2, 2)),
        "n2(2,2)": (gen_n2(2, 2), solve_n2(2, 2)),
        "gadget(fano)": (gadget, lift_gadget(fano_sym, fano, gadget)),
        "union(fano,2)": (union_copies(fano, 2), lift_union(fano_sym, 2)),
    }


def _random_code(net, k, n, p, rng):
    """Random rules over every parent and decoders over every in-edge;
    about a third of the matrices are zero, so zero blocks and
    cancellations occur next to dense ones."""

    mod = PrimeModulus(p)  # checked once, not per matrix: 2**31 - 1 is slow to test

    def mat(rows, cols):
        if rng.random() < 0.3:
            return FieldMatrix.zeros(rows, cols, mod)
        return FieldMatrix.from_rows(
            [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], mod
        )

    node_map = net.node_map()
    edge_rules = {}
    for e in net.edges:
        tail = node_map[e.tail]
        inputs = [CodeInput(pe.id, mat(n, n)) for pe in net.in_edges(e.tail)]
        if tail.role == "source":
            inputs.append(CodeInput("src:" + tail.generates, mat(n, k)))
        edge_rules[e.id] = tuple(inputs)
    decode_rules = {
        t.id: tuple(CodeInput(pe.id, mat(k, n)) for pe in net.in_edges(t.id))
        for t in net.terminals()
    }
    return FractionalCode(k, n, mod, edge_rules, decode_rules)


def _assert_matches_dense(net, code):
    """Check ``eval_transfer`` and ``verify`` against the dense oracle and
    return the transfer map and the report.  The oracle's blocks are n row
    tuples of k ints, zero blocks included; ``eval_transfer`` keeps the
    nonzero ones, flattened row by row."""
    tm = eval_transfer(net, code)
    want = {
        e: {m: sum(rows, ()) for m, rows in blocks.items() if any(map(any, rows))}
        for e, blocks in dense_transfer(net, code).items()
    }
    assert tm == want
    report = verify(net, code)
    got = [
        (t.terminal, t.demanded, t.passed, t.demanded_block.to_rows(), t.interferers)
        for t in report.terminals
    ]
    assert got == dense_verify(net, code)
    return tm, report


@pytest.mark.parametrize("case", sorted(_oracle_cases()))
def test_sparse_transfer_matches_dense_oracle(case):
    net, sym = _oracle_cases()[case]
    rng = random.Random(f"dense-oracle:{case}")
    seen_fail = seen_interference = 0
    # 2**31 - 1, the largest modulus, is where the unreduced sums of an
    # edge's products are largest
    for p in (2, 3, 5, 2_147_483_647):
        codes = [_random_code(net, k, n, p, rng)
                 for k, n in ((sym.k, sym.n), (sym.k, sym.n), (2, 3), (2, 1))]
        try:
            codes.append(instantiate(sym, p))
        except CharacteristicError:
            pass  # n2 needs 1/q, which GF(p) lacks when p divides q
        for code in codes:
            _, report = _assert_matches_dense(net, code)
            seen_fail += not report.passed
            seen_interference += any(t.interferers for t in report.terminals)
    assert seen_fail and seen_interference


_HUB_WIDTH = _BATCH_MIN + 4  # messages, so v's out-edges batch


def _hub():
    """Each source x00, x01, ... sends into one node v, whose two out-edges
    go through u1 and u2 to w; s00 also sends straight to w.  Each terminal
    reads w's edge to it and its own source's."""
    msgs = [f"x{i:02d}" for i in range(_HUB_WIDTH)]
    nodes = [NetNode(f"s{m}", "source", generates=m) for m in msgs]
    nodes += [NetNode(v, "intermediate") for v in ("v", "u1", "u2", "w")]
    nodes += [NetNode(f"t{m}", "terminal", demands=m) for m in msgs]
    edges = [NetEdge(f"s{m}->v", f"s{m}", "v") for m in msgs]
    edges += [NetEdge(f"v->{u}", "v", u) for u in ("u1", "u2")]
    edges += [NetEdge(f"{u}->w", u, "w") for u in ("u1", "u2")]
    edges.append(NetEdge("sx00->w", "sx00", "w"))
    edges += [NetEdge(f"w->t{m}", "w", f"t{m}") for m in msgs]
    edges += [NetEdge(f"s{m}->t{m}", f"s{m}", f"t{m}") for m in msgs]
    return CodedNetwork("hub", msgs, nodes, edges)


def _hub_code(net, k, n, p, rng, cancel=False):
    """A random code on ``_hub`` whose v->u1 and v->u2 carry one nonzero
    block per message: source i sends a column whose only nonzero entry,
    1 + (i div n) mod (p - 1), is at row i mod n, and v forwards it
    unchanged, so over GF(3) and up no two messages share a block.  u2->w
    applies a unit upper triangular matrix, which keeps every block.  u1->w
    applies a matrix with a zero first column, so the blocks of every
    message i with i mod n = 0 vanish in its one batched product; with
    ``cancel`` it applies u2->w's matrix instead, and w's edges read u2->w
    negated, so their two batched inputs cancel."""
    code = _random_code(net, k, n, p, rng)
    mod = code.modulus
    rules = dict(code.edge_rules)
    for i, m in enumerate(net.messages):
        x = 1 + (i // n) % (p - 1)
        col = [[x if r == i % n and c == 0 else 0 for c in range(k)] for r in range(n)]
        rules[f"s{m}->v"] = (CodeInput("src:" + m, FieldMatrix.from_rows(col, mod)),)
    ident = FieldMatrix.identity(n, mod)
    for u in ("u1", "u2"):
        rules[f"v->{u}"] = tuple(CodeInput(f"s{m}->v", ident) for m in net.messages)
    upper = [[int(r == c) or (c > r) * rng.randrange(p) for c in range(n)] for r in range(n)]
    keep = FieldMatrix.from_rows(upper, mod)
    rules["u2->w"] = (CodeInput("v->u2", keep),)
    [(ref, a)] = [(inp.ref, inp.matrix) for inp in rules["u1->w"]]
    a = FieldMatrix.from_rows([[0, *row[1:]] for row in a.to_rows()], mod)
    rules["u1->w"] = (CodeInput(ref, keep if cancel else a),)
    if cancel:
        for m in net.messages:
            inputs = {inp.ref: inp.matrix for inp in rules[f"w->t{m}"]}
            negated = [[-x for x in row] for row in inputs["u1->w"].to_rows()]
            inputs["u2->w"] = FieldMatrix.from_rows(negated, mod)
            rules[f"w->t{m}"] = tuple(CodeInput(r, x) for r, x in inputs.items())
    return FractionalCode(k, n, mod, rules, code.decode_rules)


@pytest.mark.parametrize("k,n", [(1, 1), (1, 3), (2, 3), (3, 2)])
def test_batched_transfer_matches_dense_oracle(k, n):
    # u1->w and u2->w are rules of one batched input, each w->t a rule of
    # one unbatched input (sx00->w) and batched ones, and each decode rule
    # reads w->t and an unbatched source edge
    net = _hub()
    rng = random.Random(f"batched-oracle:{k},{n}")
    for p in (2, 3, 5, 2_147_483_647):
        for cancel in (False, True, False):
            code = _hub_code(net, k, n, p, rng, cancel)
            tm, _ = _assert_matches_dense(net, code)
            assert len(tm["v->u1"]) == len(tm["u2->w"]) == _HUB_WIDTH
            if cancel:  # both inputs batch, and only sx00->w's block is left
                assert len(tm["u1->w"]) == _HUB_WIDTH
                assert all(len(tm[f"w->t{m}"]) <= 1 for m in net.messages)
            else:  # the zero column drops blocks
                assert len(tm["u1->w"]) < _HUB_WIDTH


def test_bad_ref_after_a_batched_input_keeps_its_error():
    net = _hub()
    code = _hub_code(net, 1, 2, 3, random.Random("batched-bad-ref"))
    tm = eval_transfer(net, code)
    assert len(tm["u2->w"]) >= _BATCH_MIN and len(tm["w->tx05"]) >= _BATCH_MIN
    # "zz" sorts after every in-edge of w and of tx05, so it is read after
    # a batched input
    rules = dict(code.edge_rules)
    rules["w->tx05"] += (CodeInput("zz", FieldMatrix.identity(2, code.modulus)),)
    bad = FractionalCode(1, 2, code.modulus, rules, code.decode_rules)
    assert _eval_and_verify_error(net, bad) == (
        "rule for edge 'w->tx05' reads 'zz', which is not an in-edge of its tail 'w'"
    )
    decode = dict(code.decode_rules)
    decode["tx05"] += (CodeInput("zz", FieldMatrix.zeros(1, 2, code.modulus)),)
    bad = FractionalCode(1, 2, code.modulus, code.edge_rules, decode)
    with pytest.raises(CodeError) as exc:
        verify(net, bad)
    assert str(exc.value) == "decode rule for 'tx05' reads 'zz', which is not one of its in-edges"


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_solved_network_passes():
    net = gen_n1(2, 2)
    report = verify(net, instantiate(solve_n1(2, 2), 2))
    assert report.passed
    assert report.failing() == []
    assert len(report.terminals) == len(net.terminals())


def test_verify_wrong_characteristic_fails_only_ta():
    net = gen_n1(2, 2)
    report = verify(net, instantiate(solve_n1(2, 2), 3))
    assert not report.passed
    failing = report.failing()
    assert [t.terminal for t in failing] == ["Ta:a1", "Ta:a2"]
    # the leftover term is the matching c-message scaled by q
    assert failing[0].interferers == ("c1",)
    assert failing[1].interferers == ("c2",)
    assert failing[0].demanded_block == FieldMatrix.identity(1, 3)


def test_verify_rejects_terminal_without_known_demand():
    one = FieldMatrix.from_rows([[1]], 2)
    code = FractionalCode(
        1, 1, one.modulus, {"s1->t1": (CodeInput("src:a1", one),)}, {}
    )
    for demands, fault in (
        (None, "has no demand"),
        ("zz", "demands unknown message 'zz'"),
    ):
        net = CodedNetwork(
            "tiny",
            ("a1",),
            (
                NetNode("s1", "source", generates="a1"),
                NetNode("t1", "terminal", demands=demands),
            ),
            (NetEdge("s1->t1", "s1", "t1"),),
        )
        with pytest.raises(CodeError) as exc:
            verify(net, code)
        assert str(exc.value) == f"terminal 't1' {fault}"


def test_verify_no_terminals_is_vacuous():
    net = CodedNetwork(
        "silent",
        ("a1",),
        (
            NetNode("s1", "source", generates="a1"),
            NetNode("v1", "intermediate"),
        ),
        (NetEdge("s1->v1", "s1", "v1"),),
    )
    code = FractionalCode(
        1,
        1,
        FieldMatrix.zeros(1, 1, 2).modulus,
        {"s1->v1": ()},
        {},
    )
    report = verify(net, code)
    assert report.passed
    assert report.terminals == ()


def test_verify_decode_blocks_scale_linearly():
    def scaled_by(m, c):
        return FieldMatrix.from_rows([[c * x for x in row] for row in m.to_rows()], m.modulus)

    net = tiny_net()
    for p, c in ((3, 2), (5, 3)):
        base = tiny_code(p)
        assert verify(net, base).passed
        scaled = FractionalCode(
            1,
            1,
            base.modulus,
            base.edge_rules,
            {
                term: tuple(
                    CodeInput(inp.ref, scaled_by(inp.matrix, c)) for inp in inputs
                )
                for term, inputs in base.decode_rules.items()
            },
        )
        report = verify(net, scaled)
        (t,) = report.terminals
        assert t.demanded_block == scaled_by(FieldMatrix.identity(1, p), c)
        assert t.interferers == ()
        assert not t.passed  # c != 1, so the block is not the identity


def _with_rule(code, section, key, inputs):
    """``code`` with the rule for ``key`` in ``section`` replaced."""
    rules = dict(getattr(code, section), **{key: inputs})
    edge_rules = rules if section == "edge_rules" else code.edge_rules
    decode_rules = rules if section == "decode_rules" else code.decode_rules
    return FractionalCode(code.k, code.n, code.modulus, edge_rules, decode_rules, q=code.q)


def test_verify_rejects_decode_rule_reading_a_non_in_edge():
    net = gen_n1(2, 1)
    good = instantiate(solve_n1(2, 1), 2)
    one = FieldMatrix.identity(1, 2)
    code = _with_rule(good, "decode_rules", "Ta:a1", (CodeInput("a1->u1", one),))
    with pytest.raises(CodeError) as exc:
        verify(net, code)
    assert str(exc.value) == (
        "decode rule for 'Ta:a1' reads 'a1->u1', which is not one of its in-edges"
    )
    # edge rules alone are fine, so eval_transfer never sees the fault
    assert eval_transfer(net, code) == eval_transfer(net, good)


def test_verify_reports_a_broken_edge_rule_before_a_broken_decode_rule():
    net = gen_n1(2, 1)
    one = FieldMatrix.identity(1, 2)
    code = instantiate(solve_n1(2, 1), 2)
    code = _with_rule(code, "edge_rules", "u1->u3", (CodeInput("c1->u2", one),))
    code = _with_rule(code, "decode_rules", "Ta:a1", (CodeInput("a1->u1", one),))
    with pytest.raises(CodeError) as exc:
        verify(net, code)
    assert str(exc.value) == (
        "rule for edge 'u1->u3' reads 'c1->u2', which is not an in-edge of its tail 'u1'"
    )


@pytest.mark.parametrize("p", [2, 3, 5])
def test_verify_is_the_same_on_shared_and_distinct_matrices(p):
    # instantiate and load_code share each distinct matrix among their
    # inputs; the rebuilt code holds one matrix per input
    net = gen_n1(6, 2)
    code = instantiate(solve_n1(6, 2), p)
    loaded = load_code(save_code(code), net)

    def rebuilt(rules):  # a new matrix for every input
        return {
            key: tuple(CodeInput(i.ref, FieldMatrix.from_rows(i.matrix.to_rows(), p)) for i in ins)
            for key, ins in rules.items()
        }

    edge_rules, decode_rules = rebuilt(code.edge_rules), rebuilt(code.decode_rules)
    distinct = FractionalCode(code.k, code.n, code.modulus, edge_rules, decode_rules, q=code.q)

    def matrices(c):
        rules = (*c.edge_rules.values(), *c.decode_rules.values())
        return [inp.matrix for inputs in rules for inp in inputs]

    assert loaded == distinct == code
    assert len({id(m) for m in matrices(code)}) < len(matrices(code))
    assert len({id(m) for m in matrices(loaded)}) == len(set(matrices(loaded)))
    assert len({id(m) for m in matrices(distinct)}) == len(matrices(distinct))
    report = verify(net, code)
    assert report.passed == (p != 5)
    assert verify(net, loaded) == verify(net, distinct) == report


def test_verify_reports_sorted_by_terminal():
    net = gen_n2(2, 1)
    report = verify(net, instantiate(solve_n2(2, 1), 3))
    ids = [t.terminal for t in report.terminals]
    assert ids == sorted(ids)
    assert report.passed


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_code_round_trip():
    code = instantiate(solve_n1(2, 2), 2)
    again = load_code(save_code(code))
    assert again == code
    assert save_code(again) == save_code(code)


def test_symbolic_round_trip_keeps_inv_q():
    sym = solve_n2(3, 2)
    again = load_code(save_code(sym))
    assert again == sym
    assert b"INV_Q" in save_code(sym)


def test_save_formats_each_symbolic_matrix_once(monkeypatch):
    # the 14,446 inputs of solve_n1(30, 4) share 10 matrices
    from ncchar import lincode

    sym = solve_n1(30, 4)
    want = save_code(sym)
    calls = []
    monkeypatch.setattr(lincode, "_entry_to_json",
                        lambda e, f=lincode._entry_to_json: calls.append(e) or f(e))
    assert save_code(sym) == want
    rules = (*sym.edge_rules.values(), *sym.decode_rules.values())
    distinct = {id(inp.matrix): inp.matrix for inputs in rules for inp in inputs}
    assert len(distinct) == 10
    assert len(calls) == sum(len(m.entries) for m in distinct.values())


def test_load_rejects_entry_outside_field():
    code = instantiate(solve_n1(2, 1), 2)
    doc = json.loads(save_code(code))
    assert doc["p"] == 2
    doc["edge_rules"][0]["inputs"][0]["matrix"][0][0] = 7
    with pytest.raises(CodeFormatError, match=r"outside \[0, 2\)"):
        load_code(json.dumps(doc))


def test_load_rejects_bool_or_null_where_an_int_is_expected():
    # JSON true is a Python bool, an int subclass: it must not pass for 1;
    # a symbolic code needs an actual q
    field = json.loads(save_code(instantiate(solve_n1(2, 1), 2)))
    symbolic = json.loads(save_code(solve_n1(2, 1)))
    entry = json.loads(json.dumps(field))
    entry["edge_rules"][0]["inputs"][0]["matrix"][0][0] = True
    cases = [
        {**field, "k": True},
        {**field, "n": True},
        {**field, "q": True},
        {**field, "p": True},
        entry,
        {**symbolic, "k": True},
        {**symbolic, "q": True},
        {**symbolic, "q": None},
    ]
    for doc in cases:
        with pytest.raises(CodeFormatError):
            load_code(json.dumps(doc))


def test_load_refuses_entries_in_place_of_a_shared_matrix():
    # True == 1.0 == 1 with one hash, so neither may reuse the matrix [[1]]
    # read before it, and a list may not be hashed: each is refused with the
    # text it gets on its own
    field = save_code(instantiate(solve_n1(2, 1), 2))
    symbolic = save_code(solve_n1(2, 1))
    for data, bad, text in (
        (field, True, "entry True not an int"),
        (field, 1.0, "entry 1.0 not an int"),
        (field, [1], "entry [1] not an int"),
        (symbolic, True, "entry must be an int or INV_Q token"),
        (symbolic, 1.0, "bad entry 1.0"),
        (symbolic, [1], "bad entry [1]"),
    ):
        doc = json.loads(data)
        first, last = doc["edge_rules"][0]["inputs"][0], doc["edge_rules"][31]["inputs"][0]
        assert first["matrix"] == last["matrix"] == [[1]]
        last["matrix"] = [[bad]]
        with pytest.raises(CodeFormatError) as exc:
            load_code(json.dumps(doc))
        assert str(exc.value) == f"edge_rules[31].inputs[0]: {text}"


def test_load_errors_name_the_rule_and_input_they_are_in():
    # a location is formatted only when the rule or input is wrong; the texts stay
    good = json.loads(save_code(instantiate(solve_n1(2, 1), 2)))
    for part, change, where, text in (
        ("edge_rules", None, "[3]", "must be an object"),
        ("edge_rules", {"inputs": []}, "[3]", "needs 'edge' and 'inputs'"),
        ("decode_rules", {"edge": "x", "inputs": []}, "[3]", "needs 'terminal' and 'inputs'"),
        ("edge_rules", {"edge": 5, "inputs": []}, "[3]", "'edge' must be a string"),
        ("edge_rules", {"edge": "x", "inputs": {}}, "[3]", "'inputs' must be a list"),
        ("edge_rules", {"edge": "x", "inputs": [{}]}, "[3].inputs[0]",
         "needs 'ref' and 'matrix'"),
        ("edge_rules", {"edge": "x", "inputs": [{"ref": 1, "matrix": [[1]]}]},
         "[3].inputs[0]", "'ref' must be a string"),
        ("edge_rules", {"edge": "x", "inputs": [{"ref": "r", "matrix": [[1], []]}]},
         "[3].inputs[0]", "'matrix' must be a non-empty list of equal-length rows"),
        ("decode_rules", {"terminal": "x", "inputs": [{"ref": "r", "matrix": [[2]]}]},
         "[3].inputs[0]", "entry 2 outside [0, 2)"),
    ):
        doc = json.loads(json.dumps(good))
        doc[part][3] = change
        with pytest.raises(CodeFormatError) as exc:
            load_code(json.dumps(doc))
        assert str(exc.value) == f"{part}{where}: {text}"
    doc = json.loads(json.dumps(good))
    doc["edge_rules"][3]["edge"] = doc["edge_rules"][0]["edge"]
    with pytest.raises(CodeFormatError) as exc:
        load_code(json.dumps(doc))
    assert str(exc.value) == f"edge_rules[3]: duplicate rule for {doc['edge_rules'][0]['edge']!r}"


def test_load_shares_one_matrix_per_distinct_value():
    code = instantiate(solve_n1(30, 4), 3)
    loaded = load_code(save_code(code))
    assert loaded == code
    rules = (*loaded.edge_rules.values(), *loaded.decode_rules.values())
    matrices = [inp.matrix for inputs in rules for inp in inputs]
    assert len(matrices) == 14_446
    assert len({id(m) for m in matrices}) == len(set(matrices)) == 10


def test_load_rejects_nesting_deeper_than_recursion_limit():
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(CodeFormatError, match="^JSON nested too deeply$"):
        load_code(deep)


def test_load_rejects_malformed_symbolic_code():
    # the shape and src: rules hold for symbolic codes as for field codes
    doc = json.loads(save_code(solve_n1(2, 1)))
    doc["decode_rules"][0]["inputs"][0]["ref"] = "src:a1"
    with pytest.raises(CodeFormatError, match="may not read source messages"):
        load_code(json.dumps(doc))
    doc = json.loads(save_code(solve_n1(2, 1)))
    doc["edge_rules"][0]["inputs"][0]["matrix"] = [[1, 0], [0, 1]]
    with pytest.raises(CodeFormatError, match="must be 1x1, got 2x2"):
        load_code(json.dumps(doc))


def test_load_rejects_unknown_edge_against_network():
    net = gen_n1(2, 1)
    code = instantiate(solve_n1(2, 1), 2)
    data = save_code(code).replace(b"u13->u14", b"u13->u99")
    with pytest.raises(CodeFormatError):
        load_code(data, net=net)


@pytest.mark.parametrize(
    "section, field, value, message",
    [
        ("edge_rules", "ref", "src:ghost", "rule reads unknown message 'src:ghost'"),
        ("edge_rules", "ref", "nope", "rule reads unknown edge 'nope'"),
        ("decode_rules", "terminal", "ghost", "decode rule for unknown terminal 'ghost'"),
        ("decode_rules", "ref", "nope", "decode rule reads unknown edge 'nope'"),
    ],
)
def test_load_checks_refs_against_network(section, field, value, message):
    doc = json.loads(save_code(tiny_code()))
    rule = doc[section][0]
    (rule if field == "terminal" else rule["inputs"][0])[field] = value
    data = json.dumps(doc)
    load_code(data)  # well formed on its own
    with pytest.raises(CodeFormatError, match=f"^{message}$"):
        load_code(data, net=tiny_net())


def test_load_refuses_inv_q_tokens_with_a_newline_or_non_ascii_digits():
    # int() reads Arabic-Indic digits, and "$" matches before a final newline
    good = json.loads(save_code(solve_n1(2, 1)))
    assert good["edge_rules"][0]["inputs"][0]["matrix"] == [[1]]
    for token in ("2*INV_Q\n", "\u0661*INV_Q", "\u0662\u0663*INV_Q", "INV_Q\n", " 2*INV_Q"):
        doc = json.loads(json.dumps(good))
        doc["edge_rules"][0]["inputs"][0]["matrix"] = [[token]]
        with pytest.raises(CodeFormatError) as exc:
            load_code(json.dumps(doc))
        assert str(exc.value) == f"edge_rules[0].inputs[0]: bad entry {token!r}"
    for token, entry in (("INV_Q", (1, True)), ("-12*INV_Q", (-12, True)), ("0*INV_Q", (0, True))):
        doc = json.loads(json.dumps(good))
        doc["edge_rules"][0]["inputs"][0]["matrix"] = [[token]]
        [inp] = load_code(json.dumps(doc)).edge_rules[good["edge_rules"][0]["edge"]]
        assert inp.matrix.entries == (entry,)


@pytest.mark.parametrize("enabled", [True, False])
def test_load_leaves_the_collector_as_it_found_it(enabled, monkeypatch):
    # the collector is paused from the parse to the rule check, and left
    # as it was found whether the load succeeds or raises
    net = gen_n1(2, 1)
    want = instantiate(solve_n1(2, 1), 2)
    data = save_code(want)
    bad_entry = json.loads(data)
    bad_entry["edge_rules"][0]["inputs"][0]["matrix"] = [[True]]
    seen = []

    def probe(name):
        real = getattr(lincode, name)
        monkeypatch.setattr(lincode, name, lambda *a: seen.append(gc.isenabled()) or real(*a))

    probe("_read_object")
    probe("_check_rules")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert load_code(data, net) == want
        assert gc.isenabled() is enabled
        assert seen == [False, False]
        for bad, text in (
            (data[: len(data) // 2], "line"),
            (json.dumps(bad_entry), "edge_rules[0].inputs[0]: entry True not an int"),
            (data.replace(b"u13->u14", b"u13->u99"), "rule for unknown edge 'u13->u99'"),
        ):
            with pytest.raises(CodeFormatError, match=f"^{re.escape(text)}"):
                load_code(bad, net)
            assert gc.isenabled() is enabled
        assert not any(seen)
    finally:
        (gc.enable if was else gc.disable)()


def test_load_rejects_truncated_document():
    data = save_code(instantiate(solve_n1(2, 1), 2))
    with pytest.raises(CodeFormatError):
        load_code(data[: len(data) // 2])


def test_code_shape_validation():
    mod = FieldMatrix.zeros(1, 1, 2).modulus
    wide = FieldMatrix.zeros(1, 2, 2)
    with pytest.raises(CodeError):
        FractionalCode(1, 1, mod, {"e": (CodeInput("src:a1", wide),)}, {})
    with pytest.raises(CodeError):
        FractionalCode(1, 1, mod, {}, {"t": (CodeInput("src:a1", FieldMatrix.zeros(1, 1, 2)),)})
    # a symbolic code obeys the same rules
    one, two = SymMatrix.scaled_identity(1), SymMatrix.scaled_identity(2)
    with pytest.raises(CodeError, match="must be 1x1, got 2x2"):
        SymbolicCode(1, 1, 2, {"e": (CodeInput("src:a1", two),)}, {})
    with pytest.raises(CodeError, match="may not read source messages"):
        SymbolicCode(1, 1, 2, {}, {"t": (CodeInput("src:a1", one),)})
    # k, n and q are checked as load_code checks a document's: each an int
    # >= 1 and not a bool, q of a field code only when it is given
    for k, n, q in ((0, 1, 2), (True, 1, 2), (1, 1.0, 2), (1, 1, 0), (1, 1, True), (1, 1, 2.0)):
        with pytest.raises(CodeError, match="positive"):
            SymbolicCode(k, n, q, {}, {})
        with pytest.raises(CodeError, match="positive"):
            FractionalCode(k, n, mod, {}, {}, q=q)
    with pytest.raises(CodeError, match="k and n must be positive"):
        FractionalCode(True, 1, mod, {}, {})
