"""Network generators and the union/gadget transforms."""

import hashlib

import pytest

from ncchar import (
    CodedNetwork,
    NetEdge,
    NetNode,
    gadget_transform,
    gadget_transform_traced,
    gen_fano,
    gen_n1,
    gen_n2,
    gen_nonfano,
    is_multiple_unicast,
    save,
    union_copies,
    validate,
)
from ncchar.constructions import bmsg, edge_id
from util_oracles import copy_clash, gadget_edge_clash, off_unicast


def demand_counts(net):
    counts = {}
    for t in net.terminals():
        counts[t.demands] = counts.get(t.demands, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# family generators
# ---------------------------------------------------------------------------

def test_n1_small_counts():
    net = gen_n1(2, 1)
    assert len(net.sources()) == 3
    assert len(net.terminals()) == 4
    assert len(net.edges) == 32


def test_n1_counts_scale_with_parameters():
    net = gen_n1(2, 2)
    assert len(net.sources()) == 6     # n(q+1)
    assert len(net.terminals()) == 8   # 2qn
    net = gen_n1(3, 2)
    assert len(net.sources()) == 8
    assert len(net.terminals()) == 12


def test_n1_message_sets():
    net = gen_n1(3, 2)
    assert set(net.messages) == {
        "a1", "a2", "c1", "c2",
        bmsg(1, 1), bmsg(1, 2), bmsg(2, 1), bmsg(2, 2),
    }


def test_n1_c_messages_demanded_q_times():
    # c_j is demanded once in Tc and once in each of the q-1 Tc_i sets
    for q in (2, 3):
        counts = demand_counts(gen_n1(q, 1))
        assert counts["c1"] == q
        assert counts["a1"] == 1
        assert counts[bmsg(1, 1)] == 1


def test_n1_bottleneck_in_degrees():
    for q, n in ((2, 1), (3, 2), (4, 1)):
        net = gen_n1(q, n)
        assert len(net.in_edges("u5")) == 2     # u3, u4
        assert len(net.in_edges("u9")) == 2     # u7, u8
        assert len(net.in_edges("u13")) == q    # u8 plus head(e_i), i < q
        tails = {e.tail for e in net.in_edges("u13")}
        assert "u8" in tails
        assert all(t == "u8" or t.endswith("h") for t in tails)


def test_n2_small_counts():
    net = gen_n2(2, 1)
    assert len(net.sources()) == 3     # n(q+1)
    assert len(net.terminals()) == 4   # n(q+2)
    net = gen_n2(2, 2)
    assert len(net.sources()) == 6
    assert len(net.terminals()) == 8


def test_n2_each_a_demanded_twice():
    counts = demand_counts(gen_n2(2, 2))
    assert counts["a1"] == 2
    assert counts["a2"] == 2
    for i in (1, 2):
        for j in (1, 2):
            assert counts[bmsg(i, j)] == 1


def test_n2_not_multiple_unicast_by_construction():
    check = is_multiple_unicast(gen_n2(2, 1))
    assert not check.ok
    assert any(v.message == "a1" and v.count == 2 for v in check.violations)


def test_n2_b_bottleneck_head_fans_out_to_terminals():
    for n in (1, 3):
        net = gen_n2(3, n)
        outs = net.out_edges("ebph")
        assert len(outs) == n
        node_map = net.node_map()
        assert all(node_map[e.head].role == "terminal" for e in outs)


def test_parameter_validation():
    for bad in ((1, 1), (0, 2), (2, 0), (2, -1)):
        with pytest.raises(ValueError):
            gen_n1(*bad)
        with pytest.raises(ValueError):
            gen_n2(*bad)


def test_generators_are_deterministic():
    assert save(gen_n1(3, 2)) == save(gen_n1(3, 2))
    assert save(gen_n2(4, 3)) == save(gen_n2(4, 3))


def test_fano_nonfano_aliases():
    assert gen_fano() == gen_n1(2, 1)
    assert gen_nonfano() == gen_n2(2, 1)
    assert demand_counts(gen_fano())["c1"] == 2


def test_edge_id_helper():
    assert edge_id("u1", "u3") == "u1->u3"


def test_bmsg_helper_stays_unambiguous():
    assert bmsg(1, 2) == "b12"
    assert bmsg(11, 2) == "b11_2"
    assert bmsg(1, 12) == "b1_12"


# ---------------------------------------------------------------------------
# union of copies
# ---------------------------------------------------------------------------

def test_union_single_copy_is_the_network_itself():
    net = gen_n1(2, 1)
    assert union_copies(net, 1) == net


def test_union_copy_suffixes_keep_copies_disjoint():
    net = gen_n1(2, 1)
    u = union_copies(net, 2)
    for c in (1, 2):
        stripped = sorted(
            e.id[: -len(f"#{c}")] for e in u.edges if e.id.endswith(f"#{c}")
        )
        assert stripped == sorted(e.id for e in net.edges)


def test_union_shares_sources_and_terminals():
    net = gen_n1(2, 1)
    u = union_copies(net, 2)
    assert len(u.sources()) == len(net.sources())
    assert len(u.terminals()) == len(net.terminals())
    assert len(u.edges) == 2 * len(net.edges)
    assert len(u.intermediates()) == 2 * len(net.intermediates())
    assert validate(u).ok


def test_union_merged_source_out_degree():
    net = gen_n2(2, 1)
    for k in (1, 2, 3):
        u = union_copies(net, k)
        assert len(u.out_edges("a1")) == k * len(net.out_edges("a1"))


def test_union_rejects_bad_count():
    with pytest.raises(ValueError):
        union_copies(gen_fano(), 0)


def test_union_rejects_a_copy_name_in_use():
    # the copy v#1 of intermediate v would merge into terminal v#1
    net = copy_clash()
    assert validate(net).ok
    with pytest.raises(ValueError, match="fresh node name 'v#1' already in use"):
        union_copies(net, 2)


def test_union_rejects_source_to_terminal_edges():
    # the gadget's x1->x4 joins a source to a terminal, both shared by every
    # copy, so its copies would be parallel edges
    g = gadget_transform(gen_n2(2, 2), 2)
    assert union_copies(g, 1) is g
    for k in (2, 3):
        with pytest.raises(ValueError, match="edge 'x1#1->x4#1' joins two shared nodes"):
            union_copies(g, k)


# ---------------------------------------------------------------------------
# gadget transform
# ---------------------------------------------------------------------------

def test_gadget_leaves_unicast_networks_alone():
    base = gen_n1(2, 1)
    uni = gadget_transform(base, 1)
    again, apps = gadget_transform_traced(uni, 1)
    assert apps == []
    assert again == uni


@pytest.mark.parametrize(
    "generators, demanded, message",
    [
        (2, "x", "message 'x' generated by 2 sources"),
        (1, "y", "message 'x' is demanded by no terminal"),
        # both faults on one message: the source count is reported first
        (2, "y", "message 'x' generated by 2 sources"),
    ],
)
def test_gadget_rejects_networks_it_cannot_rewrite(generators, demanded, message):
    net = off_unicast(generators, demanded)
    assert validate(net).ok
    for transform in (gadget_transform, gadget_transform_traced):
        with pytest.raises(ValueError) as info:
            transform(net, 1)
        assert str(info.value) == message


def test_gadget_rejects_an_edge_name_in_use():
    net = gadget_edge_clash()
    assert validate(net).ok
    for transform in (gadget_transform, gadget_transform_traced):
        with pytest.raises(ValueError, match="fresh edge name 'x1#1->x4#1' already in use"):
            transform(net, 1)


def test_gadget_single_application_deltas():
    for n in (1, 2, 3):
        base = gen_n2(2, n)  # each a_j demanded exactly twice
        before_terms = {t.id for t in base.terminals()}
        out, apps = gadget_transform_traced(base, n)
        per_app_sources = (len(out.sources()) - len(base.sources())) / len(apps)
        assert per_app_sources == n
        new_terms = {t.id for t in out.terminals()} - before_terms
        assert len(new_terms) == (n + 1) * len(apps)


def test_gadget_makes_n1_multiple_unicast():
    base = gen_n1(2, 1)
    out, apps = gadget_transform_traced(base, 1)
    assert is_multiple_unicast(out).ok
    assert validate(out).ok
    assert len(apps) == 1  # one c message, demanded twice


def test_gadget_application_count_tracks_duplicates():
    # q=3, n=1: c1 demanded three times -> two applications
    out, apps = gadget_transform_traced(gen_n1(3, 1), 1)
    assert len(apps) == 2
    assert all(a.message == "c1" for a in apps)
    assert is_multiple_unicast(out).ok
    # q=2, n=2: two c messages, each demanded twice -> one application each
    out, apps = gadget_transform_traced(gen_n1(2, 2), 2)
    assert sorted(a.message for a in apps) == ["c1", "c2"]
    assert is_multiple_unicast(out).ok


def test_gadget_picks_lexicographically_smallest_pair():
    _, apps = gadget_transform_traced(gen_n1(2, 2), 2)
    first = apps[0]
    assert first.message == "c1"
    assert first.n1 < first.n2


def pairing_net():
    """Sources a and b feed a relay r that feeds five terminals: y1, y2 and
    y3 demand b, y4 and y5 demand a.  The x4#... node of a step on b then
    sorts before y3, unlike every family terminal id."""
    terms = {"y1": "b", "y2": "b", "y3": "b", "y4": "a", "y5": "a"}
    nodes = (
        NetNode("a", "source", generates="a"),
        NetNode("b", "source", generates="b"),
        NetNode("r", "intermediate"),
        *(NetNode(t, "terminal", demands=m) for t, m in terms.items()),
    )
    pairs = [("a", "r"), ("b", "r")] + [("r", t) for t in terms]
    edges = tuple(NetEdge(edge_id(u, v), u, v) for u, v in pairs)
    return CodedNetwork("pairing", ("a", "b"), nodes, edges)


PAIRING_DIGESTS = {
    1: "66e445cbf7c7fa31f8eaeab1880cbb69fed25b45dd0ba24fca1f3ac03053e9cc",
    2: "d30beec64b637c30968b002f173abfc96bf9fc83d521d0596d9c750443c2ea03",
}


@pytest.mark.parametrize("n", sorted(PAIRING_DIGESTS))
def test_gadget_pairing_order_is_pinned(n):
    """Messages are taken in sorted order, and a step's x4 takes its pair's
    place among the remaining demanders in id order."""
    out, apps = gadget_transform_traced(pairing_net(), n)
    assert [(a.message, a.n1, a.n2) for a in apps] == [
        ("a", "y4", "y5"), ("b", "y1", "y2"), ("b", "x4#2", "y3"),
    ]
    assert hashlib.sha256(save(out)).hexdigest() == PAIRING_DIGESTS[n]


def test_gadget_fresh_names_and_node_bookkeeping():
    out, apps = gadget_transform_traced(gen_n2(2, 2), 2)
    node_map = out.node_map()
    for app in apps:
        assert app.z_message.startswith("z#")
        assert len(app.y_messages) == 1  # n - 1
        x1, x2, x3, x4, x5 = app.x_nodes
        assert node_map[x4].demands == app.message
        assert node_map[x5].demands == app.z_message
        for t_node, y in zip(app.t_nodes, app.y_messages):
            assert node_map[t_node].demands == y
        # the bottleneck is a single edge x2 -> x3
        assert [e.head for e in out.out_edges(x2)] == [x3]


def test_gadget_terminates_on_heavier_duplication():
    out, apps = gadget_transform_traced(gen_n1(6, 1), 1)
    assert is_multiple_unicast(out).ok
    assert len(apps) == 6 - 1  # demand multiplicity q collapses by one per step


def test_gadget_output_always_validates():
    for q, n in ((2, 1), (2, 2), (3, 1)):
        for gen in (gen_n1, gen_n2):
            out = gadget_transform(gen(q, n), n)
            assert validate(out).ok
            assert is_multiple_unicast(out).ok
