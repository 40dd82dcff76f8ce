"""Network model: validation, ordering, unicast checks, serialization."""

import json
import random

import pytest

from ncchar import (
    CodedNetwork,
    CycleError,
    NetEdge,
    NetNode,
    NetworkFormatError,
    gen_n1,
    gen_n2,
    is_multiple_unicast,
    load,
    save,
    topological_order,
    validate,
)
from ncchar.network import Violation
from util_oracles import random_network


def tiny_unicast():
    return CodedNetwork(
        "tiny",
        ("a1",),
        (
            NetNode("s1", "source", generates="a1"),
            NetNode("t1", "terminal", demands="a1"),
        ),
        (NetEdge("s1->t1", "s1", "t1"),),
    )


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_single_pair_ok():
    report = validate(tiny_unicast())
    assert report.ok
    assert report.violations == ()


def test_validate_source_with_in_edge():
    net = CodedNetwork(
        "bad",
        ("a1",),
        (
            NetNode("s1", "source", generates="a1"),
            NetNode("t1", "terminal", demands="a1"),
        ),
        (NetEdge("t1->s1", "t1", "s1"),),
    )
    report = validate(net)
    assert not report.ok
    assert "source-has-in-edge" in report.kinds()


def test_validate_two_cycle():
    net = CodedNetwork(
        "loop",
        ("a1",),
        (
            NetNode("s1", "source", generates="a1"),
            NetNode("v1", "intermediate"),
            NetNode("v2", "intermediate"),
            NetNode("t1", "terminal", demands="a1"),
        ),
        (
            NetEdge("s1->v1", "s1", "v1"),
            NetEdge("v1->v2", "v1", "v2"),
            NetEdge("v2->v1", "v2", "v1"),
            NetEdge("v2->t1", "v2", "t1"),
        ),
    )
    report = validate(net)
    assert not report.ok
    assert "cycle" in report.kinds()


def test_validate_terminal_out_edge_and_dangling_refs():
    net = CodedNetwork(
        "bad2",
        ("a1", "ghost"),
        (
            NetNode("s1", "source", generates="a1"),
            NetNode("t1", "terminal", demands="zz"),
        ),
        (
            NetEdge("t1->s1b", "t1", "nowhere"),
        ),
    )
    kinds = validate(net).kinds()
    assert "terminal-has-out-edge" in kinds
    assert "dangling-node-ref" in kinds
    assert "dangling-message-ref" in kinds


def test_validate_duplicate_ids():
    net = CodedNetwork(
        "dup",
        ("a1",),
        (
            NetNode("s1", "source", generates="a1"),
            NetNode("s1", "source", generates="a1"),
            NetNode("t1", "terminal", demands="a1"),
        ),
        (NetEdge("s1->t1", "s1", "t1"),),
    )
    assert not validate(net).ok


@pytest.mark.parametrize(
    "extra_nodes, extra_edges, kind, detail",
    [
        ((), (NetEdge("s1=>t1", "s1", "t1"),), "duplicate-id", "parallel edge 's1'->'t1'"),
        ((NetNode("r", "relay"),), (), "bad-role", "node 'r' has role 'relay'"),
        ((NetNode("s2", "source"),), (), "source-generates-missing", "source 's2'"),
        (
            (NetNode("s2", "source", generates="ghost"),),
            (),
            "dangling-message-ref",
            "source 's2' generates undeclared 'ghost'",
        ),
        (
            (NetNode("v", "intermediate", generates="a1"),),
            (),
            "nonsource-generates",
            "node 'v' generates a message",
        ),
        ((NetNode("t2", "terminal"),), (), "terminal-demands-missing", "terminal 't2'"),
        (
            (NetNode("v", "intermediate", demands="a1"),),
            (),
            "nonterminal-demands",
            "node 'v' demands a message",
        ),
    ],
)
def test_validate_reports_each_node_and_edge_kind(extra_nodes, extra_edges, kind, detail):
    base = tiny_unicast()
    net = CodedNetwork(
        "bad", base.messages, base.nodes + extra_nodes, base.edges + extra_edges
    )
    assert validate(net).violations == (Violation(kind, detail),)


def test_generated_networks_validate_clean():
    for q in range(2, 7):
        for n in range(1, 5):
            assert validate(gen_n1(q, n)).ok
            assert validate(gen_n2(q, n)).ok


# ---------------------------------------------------------------------------
# topological order
# ---------------------------------------------------------------------------

def test_topo_chain():
    net = CodedNetwork(
        "chain",
        ("a1",),
        (
            NetNode("s", "source", generates="a1"),
            NetNode("u", "intermediate"),
            NetNode("t", "terminal", demands="a1"),
        ),
        (NetEdge("s->u", "s", "u"), NetEdge("u->t", "u", "t")),
    )
    assert topological_order(net) == ["s", "u", "t"]


def test_topo_lexicographic_ties():
    net = CodedNetwork(
        "ties",
        ("a1", "a2"),
        (
            NetNode("sb", "source", generates="a2"),
            NetNode("sa", "source", generates="a1"),
            NetNode("t1", "terminal", demands="a1"),
            NetNode("t2", "terminal", demands="a2"),
        ),
        (NetEdge("sa->t1", "sa", "t1"), NetEdge("sb->t2", "sb", "t2")),
    )
    assert topological_order(net) == ["sa", "sb", "t1", "t2"]


def test_topo_layering_on_generated_network():
    order = topological_order(gen_n1(2, 1))
    pos = {nid: i for i, nid in enumerate(order)}
    assert pos["u1"] < pos["u3"] and pos["u2"] < pos["u3"]
    assert pos["u1"] < pos["u4"] and pos["u2"] < pos["u4"]
    assert pos["u3"] < pos["u5"] and pos["u4"] < pos["u5"]


def test_topo_is_edge_respecting_permutation():
    for net in (gen_n1(2, 1), gen_n1(3, 2), gen_n2(2, 1), gen_n2(3, 2)):
        order = topological_order(net)
        assert sorted(order) == sorted(n.id for n in net.nodes)
        pos = {nid: i for i, nid in enumerate(order)}
        for e in net.edges:
            assert pos[e.tail] < pos[e.head]


def test_topo_raises_on_cycle():
    net = CodedNetwork(
        "loop",
        ("a1",),
        (
            NetNode("s1", "source", generates="a1"),
            NetNode("v1", "intermediate"),
            NetNode("v2", "intermediate"),
            NetNode("t1", "terminal", demands="a1"),
        ),
        (
            NetEdge("s1->v1", "s1", "v1"),
            NetEdge("v1->v2", "v1", "v2"),
            NetEdge("v2->v1", "v2", "v1"),
            NetEdge("v2->t1", "v2", "t1"),
        ),
    )
    with pytest.raises(CycleError):
        topological_order(net)


# ---------------------------------------------------------------------------
# edge index
# ---------------------------------------------------------------------------

def test_edge_index_matches_a_scan_of_the_edges():
    """``in_edges``/``out_edges`` read an index built on first use; they
    must give what a scan of ``net.edges`` gives, for every node, every
    edge end (dangling ones too) and an unknown id, as fresh lists, and
    building the index must leave ==, hash and repr alone."""
    dangling = CodedNetwork(
        "dangling",
        ("a1",),
        (
            NetNode("s1", "source", generates="a1"),
            NetNode("t1", "terminal", demands="a1"),
        ),
        (
            NetEdge("s1->t1", "s1", "t1"),
            NetEdge("s1->nowhere", "s1", "nowhere"),
            NetEdge("ghost->t1", "ghost", "t1"),
        ),
    )
    rng = random.Random(11)
    nets = [dangling, gen_n1(2, 1)] + [random_network(rng) for _ in range(50)]
    for net in nets:
        twin = load(save(net))
        ends = {n.id for n in net.nodes} | {x for e in net.edges for x in (e.tail, e.head)}
        for nid in sorted(ends | {"no-such-node"}):
            assert net.in_edges(nid) == [e for e in net.edges if e.head == nid]
            assert net.out_edges(nid) == [e for e in net.edges if e.tail == nid]
        first = net.edges[0]
        net.in_edges(first.head).clear()
        net.out_edges(first.tail).append(first)
        assert net.in_edges(first.head) == [e for e in net.edges if e.head == first.head]
        assert net.out_edges(first.tail) == [e for e in net.edges if e.tail == first.tail]
        assert net == twin and hash(net) == hash(twin) and repr(net) == repr(twin)


# ---------------------------------------------------------------------------
# multiple-unicast check
# ---------------------------------------------------------------------------

def test_unicast_single_pair():
    check = is_multiple_unicast(tiny_unicast())
    assert check.ok
    assert check.violations == ()


def test_unicast_false_on_duplicate_demands():
    check = is_multiple_unicast(gen_n1(2, 1))
    assert not check.ok
    # every c message is demanded twice (once in Tc, once per Tc_i)
    demanded = {v.message: v.count for v in check.violations if v.kind == "demanded"}
    assert demanded.get("c1") == 2


def test_unicast_demand_multiplicity_scales_with_q():
    check = is_multiple_unicast(gen_n1(3, 1))
    demanded = {v.message: v.count for v in check.violations if v.kind == "demanded"}
    assert demanded.get("c1") == 3


# ---------------------------------------------------------------------------
# save / load
# ---------------------------------------------------------------------------

def test_save_load_round_trip():
    net = gen_n1(2, 2)
    assert load(save(net)) == net


def test_save_is_canonical():
    net = gen_n2(2, 1)
    first = save(net)
    second = save(load(first))
    assert first == second
    assert first.endswith(b"\n")
    assert b"\r" not in first


def test_load_missing_edges_key():
    with pytest.raises(NetworkFormatError):
        load(b'{"name": "x", "messages": [], "nodes": []}')


def test_load_rejects_non_list_nodes_and_edges():
    for field in ("nodes", "edges"):
        doc = {"name": "x", "messages": [], "nodes": [], "edges": []}
        for bad in ({}, 5, "abc"):
            doc[field] = bad
            with pytest.raises(NetworkFormatError, match=field):
                load(json.dumps(doc))


def test_load_bad_json_reports_position():
    with pytest.raises(NetworkFormatError) as exc:
        load(b'{"name": "x",')
    assert "line" in str(exc.value)


def test_load_rejects_nesting_deeper_than_recursion_limit():
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(NetworkFormatError, match="^JSON nested too deeply$"):
        load(deep)


def test_load_rejects_unknown_role():
    doc = (
        b'{"edges": [], "messages": ["a1"], "name": "x", '
        b'"nodes": [{"generates": "a1", "id": "s1", "role": "emitter"}]}'
    )
    with pytest.raises(NetworkFormatError):
        load(doc)


def test_load_errors_name_the_entry_they_are_in():
    # each entry's location is formatted only when it is wrong; the texts stay
    good = json.loads(save(gen_n1(2, 1)))
    for part, i, change, text in (
        ("nodes", 3, 7, "must be an object"),
        ("nodes", 3, {"id": "x"}, "missing field 'role'"),
        ("nodes", 3, {"role": "source"}, "missing field 'id'"),
        ("nodes", 3, {"id": 1, "role": "source"}, "'id' and 'role' must be strings"),
        ("nodes", 3, {"id": "x", "role": "sink"}, "unknown role 'sink'"),
        ("nodes", 3, {"id": "x", "role": "source", "generates": 1},
         "'generates' must be a string"),
        ("nodes", 3, {"id": "x", "role": "terminal", "demands": []},
         "'demands' must be a string"),
        ("edges", 12, [], "must be an object"),
        ("edges", 12, {"from": "a", "to": "b"}, "missing field 'id'"),
        ("edges", 12, {"id": "e", "to": "b"}, "missing field 'from'"),
        ("edges", 12, {"id": "e", "from": "a"}, "missing field 'to'"),
        ("edges", 12, {"id": "e", "from": "a", "to": None}, "'id', 'from', 'to' must be strings"),
    ):
        doc = json.loads(json.dumps(good))
        doc[part][i] = change
        with pytest.raises(NetworkFormatError) as exc:
            load(json.dumps(doc))
        assert str(exc.value) == f"{part}[{i}]: {text}"
    with pytest.raises(NetworkFormatError) as exc:
        load(b'{"messages": [], "nodes": [], "edges": []}')
    assert str(exc.value) == "network: missing field 'name'"


def test_round_trip_all_generated():
    for q, n in ((2, 1), (2, 2), (3, 1), (3, 3), (6, 2)):
        for gen in (gen_n1, gen_n2):
            net = gen(q, n)
            assert load(save(net)) == net
