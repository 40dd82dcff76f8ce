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
characteristic-dependent solvability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .network import (
    ROLE_INTERMEDIATE,
    ROLE_SOURCE,
    ROLE_TERMINAL,
    CodedNetwork,
    NetEdge,
    NetNode,
    _int_at_least,
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


@dataclass(frozen=True)
class _Family:
    """A family's whole topology.  Each terminal hangs off its tail by one
    edge; the ``branches`` are the indices i of the message sets b_i."""

    messages: tuple[str, ...]
    branches: range
    sources: tuple[_Source, ...]
    links: tuple[_Link, ...]
    terminals: tuple[_Terminal, ...]

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
    intermediate raises ``ValueError``.
    """
    if not _int_at_least(copies, 1):
        raise ValueError(f"copies must be an integer >= 1, got {copies!r}")
    if copies == 1:
        return net
    nodes = [n for n in net.nodes if n.role in (ROLE_SOURCE, ROLE_TERMINAL)]
    keep = {n.id for n in nodes}
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


@dataclass(frozen=True)
class GadgetApplication:
    """One rewrite step: two terminals demanding the same message are
    demoted to intermediates and a bottleneck gadget replaces them."""

    index: int
    message: str
    n1: str
    n2: str
    z_message: str
    y_messages: tuple[str, ...]
    x_nodes: tuple[str, str, str, str, str]  # x1..x5
    t_nodes: tuple[str, ...]
    s_nodes: tuple[str, ...]


def _duplicated_demand(nodes: Iterable[NetNode]) -> tuple[str, list[str]] | None:
    by_msg: dict[str, list[str]] = {}
    for node in nodes:
        if node.role == ROLE_TERMINAL and node.demands is not None:
            by_msg.setdefault(node.demands, []).append(node.id)
    for msg in sorted(by_msg):
        if len(by_msg[msg]) >= 2:
            return msg, sorted(by_msg[msg])
    return None


def gadget_transform_traced(
    net: CodedNetwork, n: int
) -> tuple[CodedNetwork, list[GadgetApplication]]:
    """Apply the demand-splitting gadget until no message is demanded twice.

    Each application adds n sources (one extra message z plus n-1 side
    messages y), two intermediates, and n+1 new terminals, and demotes the
    two chosen terminals.  The bottleneck edge carries the block
    [b+z, y_1, ..., y_{n-1}], which is why the rewrite preserves rate-1/n
    solvability in both directions.
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

    if _duplicated_demand(net.nodes) is None:
        return net, []

    messages = list(net.messages)
    nodes = {node.id: node for node in net.nodes}
    edges = list(net.edges)
    applications: list[GadgetApplication] = []
    counter = 0
    while True:
        dup = _duplicated_demand(nodes.values())
        if dup is None:
            break
        msg, demanders = dup
        n1_id, n2_id = demanders[0], demanders[1]
        counter += 1
        z = f"z#{counter}"
        ys = tuple(f"y#{counter}_{i}" for i in range(1, n))
        x1, x2, x3, x4, x5 = (f"x{i}#{counter}" for i in range(1, 6))
        ts = tuple(f"t{i}#{counter}" for i in range(1, n))
        ss = tuple(f"s{i}#{counter}" for i in range(1, n))
        for fresh in (z, *ys):
            if fresh in messages:
                raise ValueError(f"fresh message name {fresh!r} already in use")
        for fresh in (x1, x2, x3, x4, x5, *ts, *ss):
            if fresh in nodes:
                raise ValueError(f"fresh node name {fresh!r} already in use")

        messages.append(z)
        messages.extend(ys)
        nodes[n1_id] = _mid(n1_id)
        nodes[n2_id] = _mid(n2_id)
        nodes[x1] = NetNode(x1, ROLE_SOURCE, generates=z)
        for sid, ym in zip(ss, ys):
            nodes[sid] = NetNode(sid, ROLE_SOURCE, generates=ym)
        nodes[x2] = _mid(x2)
        nodes[x3] = _mid(x3)
        nodes[x4] = _term(x4, msg)
        nodes[x5] = _term(x5, z)
        for tid, ym in zip(ts, ys):
            nodes[tid] = _term(tid, ym)
        edges.append(_edge(n1_id, x2))
        edges.append(_edge(x1, x2))
        for sid in ss:
            edges.append(_edge(sid, x2))
        edges.append(_edge(x2, x3))
        edges.append(_edge(x3, x4))
        edges.append(_edge(x3, x5))
        for tid in ts:
            edges.append(_edge(x3, tid))
        edges.append(_edge(x1, x4))
        edges.append(_edge(n2_id, x5))

        applications.append(
            GadgetApplication(
                counter, msg, n1_id, n2_id, z, ys, (x1, x2, x3, x4, x5), ts, ss
            )
        )

    result = CodedNetwork(
        f"gadget({net.name},n={n})",
        tuple(messages),
        tuple(nodes.values()),
        tuple(edges),
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
