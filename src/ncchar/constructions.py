"""Generators for characteristic-dependent networks and network transforms.

Two parameterized families are built here:

* ``gen_n1(q, n)`` is rate-1/n solvable exactly when the field
  characteristic divides q.  At (q, n) = (2, 1) it reduces to the Fano
  network.
* ``gen_n2(q, n)`` is rate-1/n solvable exactly when the characteristic
  does NOT divide q.  At (2, 1) it reduces to the non-Fano network.

Each family's whole topology is one list, from ``_n1_family`` or
``_n2_family``: messages, source edges, links between intermediates and
terminals.  ``gen_*`` builds it into the network, reading the
intermediates off the links, and ``solutions.solve_*`` reads the same
list to build the closed-form code.

``union_copies`` glues k disjoint copies of a network along shared
sources and terminals, and ``gadget_transform`` rewrites a network with
repeated demands into a multiple-unicast network with the same
characteristic-dependent solvability.  Each gadget step's topology is
one list too, ``GadgetApplication.edges``: the transform builds the
step's edges from it and checks their ids are fresh, and
``solutions.lift_gadget`` lifts the code along the same list.
"""

from __future__ import annotations

from typing import Iterable

from .network import (
    ROLE_INTERMEDIATE,
    ROLE_SOURCE,
    ROLE_TERMINAL,
    CodedNetwork,
    NetEdge,
    NetNode,
    _int_at_least,
    _Value,
    is_multiple_unicast,
    validate,
)


def _check_params(q: int, n: int) -> None:
    if not _int_at_least(q, 2):
        raise ValueError(f"q must be an integer >= 2, got {q!r}")
    if not _int_at_least(n, 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")


def bmsg(i: int, j: int) -> str:
    """Message name for the j-th symbol of the i-th b-source set."""
    if i <= 9 and j <= 9:
        return f"b{i}{j}"
    return f"b{i}_{j}"


def edge_id(tail: str, head: str) -> str:
    return f"{tail}->{head}"


def _src(msg: str) -> NetNode:
    return NetNode(msg, ROLE_SOURCE, generates=msg)


def _mid(node_id: str) -> NetNode:
    return NetNode(node_id, ROLE_INTERMEDIATE)


def _term(node_id: str, demand: str) -> NetNode:
    return NetNode(node_id, ROLE_TERMINAL, demands=demand)


def _edge(tail: str, head: str) -> NetEdge:
    return NetEdge(edge_id(tail, head), tail, head)


_Source = tuple[str, str, int]  # (message, head, slot)
_Link = tuple[str, str, str]  # (id, tail, head)
_Terminal = tuple[str, str, int, str]  # (id, demand, slot, tail)


class _Family(_Value):
    """A family's whole topology.  Each terminal hangs off its tail by one
    edge; the ``branches`` are the indices i of the message sets b_i."""

    __slots__ = ("messages", "branches", "sources", "links", "terminals")

    def inner_edges(self) -> tuple[_Link, ...]:
        """Every edge but the source edges: the links, then one edge into
        each terminal."""
        return self.links + tuple((edge_id(t, tid), t, tid) for tid, _, _, t in self.terminals)

    def network(self, name: str) -> CodedNetwork:
        """Sources, terminals, and the intermediates the links join."""
        mids = {v for _, tail, head in self.links for v in (tail, head)}
        nodes = [_src(m) for m in self.messages] + [_mid(v) for v in mids]
        nodes += [_term(tid, demand) for tid, demand, _, _ in self.terminals]
        edges = [_edge(m, head) for m, head, _ in self.sources]
        edges += [NetEdge(*link) for link in self.inner_edges()]
        return CodedNetwork(name, self.messages, tuple(nodes), tuple(edges))


def _link(tail: str, head: str) -> _Link:
    return edge_id(tail, head), tail, head


def _fan(msgs: Iterable[str], *heads: str) -> list[_Source]:
    """Source edges from each message to each head, the j-th message in
    slot j."""
    return [(m, h, j) for j, m in enumerate(msgs, start=1) for h in heads]


def _sink(label: str, msgs: Iterable[str], tail: str) -> list[_Terminal]:
    """Terminals on ``tail``, one per message, the j-th decoding slot j."""
    return [(f"{label}:{m}", m, j, tail) for j, m in enumerate(msgs, start=1)]


def _n1_family(q: int, n: int) -> _Family:
    _check_params(q, n)
    a = tuple(f"a{j}" for j in range(1, n + 1))
    c = tuple(f"c{j}" for j in range(1, n + 1))
    b = {i: tuple(bmsg(i, j) for j in range(1, n + 1)) for i in range(1, q)}
    sources = _fan(a, "u1", "u11") + _fan(c, "u2", "u6")
    for i in b:
        others = [h for k in b if k != i for h in (f"e{k}t", f"v{k}")]
        sources += _fan(b[i], "u1", "u2", f"w{i}", *others)
    # the u-backbone, then the q-1 parallel branches and their fan-in/fan-out
    links = [_link(f"u{i}", f"u{i + 2}") for i in (1, 2, 3, 5, 6, 7)]
    links += [_link(f"u{i}", f"u{i + 1}") for i in (4, 8, 9, 11, 13)]
    links += [_link("u3", "u6"), _link("u7", "u11"), _link("u8", "u13")]
    for i in b:
        e, v, w = f"e{i}", f"v{i}", f"w{i}"
        links += [(e, f"{e}t", f"{e}h"), _link("u4", f"{e}t"), _link(f"{e}h", "u13")]
        links += [_link(f"{e}h", w), _link("u10", v), _link(v, f"{v}p"), _link(w, f"{w}p")]
    terminals = _sink("Tc", c, "u12") + _sink("Ta", a, "u14")
    for i in b:
        terminals += _sink(f"Tb{i}", b[i], f"v{i}p") + _sink(f"Tc{i}", c, f"w{i}p")
    messages = a + tuple(m for i in b for m in b[i]) + c
    return _Family(messages, range(1, q), tuple(sources), tuple(links), tuple(terminals))


def _n2_family(q: int, n: int) -> _Family:
    _check_params(q, n)
    a = tuple(f"a{j}" for j in range(1, n + 1))
    b = {i: tuple(bmsg(i, j) for j in range(1, n + 1)) for i in range(1, q + 1)}
    sources = _fan(a, "eat", *(f"e{i}t" for i in b))
    for i in b:
        sources += _fan(b[i], "eat", "ebt", *(f"e{k}t" for k in b if k != i))
    # the bottlenecks, each a stem edge from its t node to its h node
    stems = ["ea", "eb", "eap", "ebp"] + [f"e{i}{p}" for i in b for p in ("", "p")]
    links = [(s, f"{s}t", f"{s}h") for s in stems]
    links += [_link("eah", "eapt"), _link("ebh", "eapt"), _link("ebh", "ebpt")]
    for i in b:
        links += [_link(f"e{i}h", f"e{i}pt"), _link("eah", f"e{i}pt"), _link(f"e{i}h", "ebpt")]
    terminals = _sink("Ta1", a, "eaph") + _sink("Ta2", a, "ebph")
    for i in b:
        terminals += _sink(f"Tb{i}", b[i], f"e{i}ph")
    messages = a + tuple(m for i in b for m in b[i])
    return _Family(messages, range(1, q + 1), tuple(sources), tuple(links), tuple(terminals))


def gen_n1(q: int, n: int) -> CodedNetwork:
    """First family: solvable at rate 1/n iff the characteristic divides q.

    Sources come in q+1 sets of n (a, b_1..b_{q-1}, c); terminals in 2q
    sets of n.  The c messages are each demanded by q terminals, which is
    what the gadget transform later untangles.
    """
    return _n1_family(q, n).network(f"n1(q={q},n={n})")


def gen_n2(q: int, n: int) -> CodedNetwork:
    """Second family: solvable at rate 1/n iff the characteristic does
    not divide q (the construction needs an inverse of q).  Sources come in
    q+1 sets of n (a, b_1..b_q); terminals in q+2 sets of n."""
    return _n2_family(q, n).network(f"n2(q={q},n={n})")


def gen_fano() -> CodedNetwork:
    """The Fano network, i.e. the first family at q = 2, n = 1."""
    return gen_n1(2, 1)


def gen_nonfano() -> CodedNetwork:
    """The non-Fano network, i.e. the second family at q = 2, n = 1."""
    return gen_n2(2, 1)


# -- union of copies ----------------------------------------------------------


def union_copies(net: CodedNetwork, copies: int) -> CodedNetwork:
    """Disjoint copies of the network glued along sources and terminals.

    Intermediate nodes and all edges are replicated with a ``#<copy>``
    suffix; each source and each terminal appears once and connects to
    every copy.  A source or terminal already named like a copy of an
    intermediate raises ``ValueError``, and so does an edge between two
    shared nodes (in a valid network, a source->terminal edge such as the
    gadget's x1->x4), whose copies would be parallel edges.
    """
    if not _int_at_least(copies, 1):
        raise ValueError(f"copies must be an integer >= 1, got {copies!r}")
    if copies == 1:
        return net
    nodes = [n for n in net.nodes if n.role in (ROLE_SOURCE, ROLE_TERMINAL)]
    keep = {n.id for n in nodes}
    for e in net.edges:
        if e.tail in keep and e.head in keep:
            raise ValueError(f"edge {e.id!r} joins two shared nodes; its copies would be parallel")
    edges: list[NetEdge] = []
    for c in range(1, copies + 1):
        for n in net.nodes:
            if n.role == ROLE_INTERMEDIATE:
                if (name := f"{n.id}#{c}") in keep:
                    raise ValueError(f"fresh node name {name!r} already in use")
                nodes.append(_mid(name))
        for e in net.edges:
            tail = e.tail if e.tail in keep else f"{e.tail}#{c}"
            head = e.head if e.head in keep else f"{e.head}#{c}"
            edges.append(NetEdge(f"{e.id}#{c}", tail, head))
    return CodedNetwork(
        f"union({net.name},k={copies})", net.messages, tuple(nodes), tuple(edges)
    )


# -- demand-splitting gadget --------------------------------------------------


class GadgetApplication(_Value):
    """One rewrite step: two terminals demanding the same message are
    demoted to intermediates and a bottleneck gadget replaces them.
    ``x_nodes`` holds the gadget's x1..x5, in that order.

    ``sources`` and ``edges`` list the step's topology once, read off
    these fields; ``gadget_transform_traced`` builds the step from them
    and ``solutions.lift_gadget`` lifts the code along them."""

    __slots__ = (
        "index", "message", "n1", "n2", "z_message", "y_messages", "x_nodes", "t_nodes",
        "s_nodes",
    )

    def sources(self) -> list[tuple[str, str]]:
        """(node, message) of each new source in bottleneck-slot order:
        x1 sends z in slot 1, s_i sends y_i in slot i+1."""
        return [(self.x_nodes[0], self.z_message), *zip(self.s_nodes, self.y_messages)]

    def edges(self) -> list[tuple[str, str]]:
        """(tail, head) of every edge the step adds, each node's in-edges
        before its out-edges."""
        x1, x2, x3, x4, x5 = self.x_nodes
        into_x2 = [(self.n1, x2)] + [(s, x2) for s, _ in self.sources()]
        out_x3 = [(x3, x4), (x3, x5)] + [(x3, t) for t in self.t_nodes]
        return into_x2 + [(x2, x3)] + out_x3 + [(x1, x4), (self.n2, x5)]


def gadget_transform_traced(
    net: CodedNetwork, n: int
) -> tuple[CodedNetwork, list[GadgetApplication]]:
    """Apply the demand-splitting gadget until no message is demanded twice.

    Each application adds n sources (one extra message z plus n-1 side
    messages y), two intermediates, and n+1 new terminals, and demotes the
    two chosen terminals.  The bottleneck edge carries the block
    [b+z, y_1, ..., y_{n-1}], which is why the rewrite preserves rate-1/n
    solvability in both directions.

    Each step takes the smallest message demanded twice and its two
    smallest terminal ids, whose place its x4 takes; other messages a step
    adds have one demander, so one walk over the sorted messages suffices.
    """
    if not _int_at_least(n, 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    report = validate(net)
    if not report.ok:
        raise ValueError(f"network is invalid: {report.violations[0].detail}")
    # repeated demands are what the gadget removes; anything else is fatal
    for v in is_multiple_unicast(net).violations:
        if v.kind == "generated":
            raise ValueError(f"message {v.message!r} generated by {v.count} sources")
        if v.count == 0:
            raise ValueError(f"message {v.message!r} is demanded by no terminal")

    demanders: dict[str, list[str]] = {}
    for node in net.nodes:
        if node.role == ROLE_TERMINAL and node.demands is not None:
            demanders.setdefault(node.demands, []).append(node.id)
    messages = set(net.messages)
    nodes = {node.id: node for node in net.nodes}
    edges = {e.id: e for e in net.edges}
    applications: list[GadgetApplication] = []
    side = range(1, n)
    for msg in sorted(demanders):
        ids = sorted(demanders[msg])
        while len(ids) >= 2:
            c = len(applications) + 1
            app = GadgetApplication(
                c, msg, ids[0], ids[1], f"z#{c}",
                tuple(f"y#{c}_{i}" for i in side),
                tuple(f"x{i}#{c}" for i in range(1, 6)),
                tuple(f"t{i}#{c}" for i in side),
                tuple(f"s{i}#{c}" for i in side),
            )
            _, x2, x3, x4, x5 = app.x_nodes
            new_messages = [m for _, m in app.sources()]
            new_nodes = [NetNode(v, ROLE_SOURCE, generates=m) for v, m in app.sources()]
            new_nodes += [_mid(x2), _mid(x3), _term(x4, msg), _term(x5, app.z_message)]
            new_nodes += [_term(t, m) for t, m in zip(app.t_nodes, app.y_messages)]
            new_edges = [_edge(tail, head) for tail, head in app.edges()]
            for kind, fresh, used in (
                ("message", new_messages, messages),
                ("node", [v.id for v in new_nodes], nodes),
                ("edge", [e.id for e in new_edges], edges),
            ):
                for name in fresh:
                    if name in used:
                        raise ValueError(f"fresh {kind} name {name!r} already in use")
            messages.update(new_messages)
            nodes[app.n1], nodes[app.n2] = _mid(app.n1), _mid(app.n2)
            nodes.update((v.id, v) for v in new_nodes)
            edges.update((e.id, e) for e in new_edges)
            applications.append(app)
            ids = sorted([x4, *ids[2:]])
    if not applications:
        return net, []

    result = CodedNetwork(
        f"gadget({net.name},n={n})",
        tuple(messages),
        tuple(nodes.values()),
        tuple(edges.values()),
    )
    check = is_multiple_unicast(result)
    if not check.ok:
        raise AssertionError(
            f"gadget left a non-unicast network: {check.violations!r}"
        )
    return result, applications


def gadget_transform(net: CodedNetwork, n: int) -> CodedNetwork:
    """Public entry point; see gadget_transform_traced for the mechanics."""
    result, _ = gadget_transform_traced(net, n)
    return result
