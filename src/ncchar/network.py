"""Directed acyclic coded networks: nodes, edges, validation, canonical JSON.

A network is a DAG whose source nodes each generate one message and whose
terminal nodes each demand one message.  Serialization is canonical: keys
sorted, two-space indent, LF newlines, node and edge lists sorted by id,
so saving the same network twice yields byte-identical files.  The bytes
are those of ``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline,
but a direct formatter for the one document shape writes them: with any
``indent``, ``json.dumps`` gives up its C encoder for a slower pure-Python
one.
"""

from __future__ import annotations

import heapq
import json
import re
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

ROLE_SOURCE = "source"
ROLE_INTERMEDIATE = "intermediate"
ROLE_TERMINAL = "terminal"
_ROLES = (ROLE_SOURCE, ROLE_INTERMEDIATE, ROLE_TERMINAL)


def _int_at_least(value: object, least: int) -> bool:
    """An ``int`` >= ``least``; ``bool`` is an ``int`` subclass and is refused."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


class NetworkFormatError(ValueError):
    """Raised when a network document cannot be parsed."""


class CycleError(ValueError):
    """Raised when a topological order is requested for a cyclic graph."""


class _Value:
    """Base of the package's immutable value classes.

    A subclass lists its fields once, in order, as its ``__slots__`` (plus
    ``"__dict__"`` when it caches into the instance) and gets a constructor
    that stores them, the last ones defaulted from ``_defaults``.  A class
    that checks or normalises its input writes its own ``__init__``, which
    sets each field with ``_set``.  From the fields alone it also gets
    ``==`` (objects of one class with equal fields), a hash equal to that
    of the field tuple, the repr ``Name(field=value, ...)``, pickling
    through the constructor, and an ``AttributeError`` on any assignment
    or deletion.
    """

    __slots__ = ()
    _defaults: tuple = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        get = attrgetter(*cls._fields)
        # the field tuple, a one-tuple too, built by one C-level getter
        cls._astuple = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))
        if cls.__init__ is object.__init__:
            # compiled per class, as collections.namedtuple compiles its
            # __new__, so the signature names the fields and binds them itself
            body = "".join(f"\n    _set(self, {f!r}, {f})" for f in cls._fields)
            scope = {"_set": _set, "__name__": cls.__module__}
            exec(f"def __init__(self, {', '.join(cls._fields)}):{body}", scope)
            init = scope["__init__"]
            init.__defaults__ = cls._defaults or None
            init.__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = init

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple(self) == self._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._astuple(self)))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._astuple(self)


_set = object.__setattr__  # how an ``__init__`` sets a field of a ``_Value``
_by_id = attrgetter("id")


class NetNode(_Value):
    __slots__ = ("id", "role", "generates", "demands")
    _defaults = (None, None)


class NetEdge(_Value):
    __slots__ = ("id", "tail", "head")


class Violation(_Value):
    __slots__ = ("kind", "detail")


class ValidationReport(_Value):
    __slots__ = ("violations",)

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}


class UnicastViolation(_Value):
    """A message generated, or demanded, by ``count`` nodes other than one;
    ``kind`` is ``"generated"`` or ``"demanded"``."""

    __slots__ = ("message", "kind", "count")


class UnicastCheck(_Value):
    __slots__ = ("ok", "violations")


class CodedNetwork(_Value):
    """Immutable network; node/edge/message lists are kept sorted by id."""

    __slots__ = ("name", "messages", "nodes", "edges", "__dict__")

    def __init__(
        self,
        name: str,
        messages: Iterable[str],
        nodes: Iterable[NetNode],
        edges: Iterable[NetEdge],
    ) -> None:
        _set(self, "name", name)
        _set(self, "messages", tuple(sorted(messages)))
        _set(self, "nodes", tuple(sorted(nodes, key=_by_id)))
        _set(self, "edges", tuple(sorted(edges, key=_by_id)))

    # -- indexed views -----------------------------------------------------

    def node_map(self) -> dict[str, NetNode]:
        return {n.id: n for n in self.nodes}

    def edge_map(self) -> dict[str, NetEdge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def _adjacency(self) -> tuple[dict[str, list[NetEdge]], dict[str, list[NetEdge]]]:
        """In-edges by head and out-edges by tail, in edge-id order, built on
        first use into the instance dict (==, hash and repr read only the
        fields).  An end that names no node is indexed under that name."""
        ins: dict[str, list[NetEdge]] = {}
        outs: dict[str, list[NetEdge]] = {}
        for e in self.edges:
            ins.setdefault(e.head, []).append(e)
            outs.setdefault(e.tail, []).append(e)
        return ins, outs

    def in_edges(self, node_id: str) -> list[NetEdge]:
        return list(self._adjacency[0].get(node_id, ()))

    def out_edges(self, node_id: str) -> list[NetEdge]:
        return list(self._adjacency[1].get(node_id, ()))

    def sources(self) -> list[NetNode]:
        return [n for n in self.nodes if n.role == ROLE_SOURCE]

    def terminals(self) -> list[NetNode]:
        return [n for n in self.nodes if n.role == ROLE_TERMINAL]

    def intermediates(self) -> list[NetNode]:
        return [n for n in self.nodes if n.role == ROLE_INTERMEDIATE]


def validate(net: CodedNetwork) -> ValidationReport:
    """Structural checks; violations are returned as data, never raised."""
    out: list[Violation] = []

    for kind, ids in (
        ("node", [n.id for n in net.nodes]),
        ("edge", [e.id for e in net.edges]),
        ("message", net.messages),
    ):
        seen: set[str] = set()
        for i in ids:
            if i in seen:
                out.append(Violation("duplicate-id", f"{kind} {i!r} declared twice"))
            seen.add(i)
    pairs: set[tuple[str, str]] = set()
    for e in net.edges:
        if (e.tail, e.head) in pairs:
            out.append(
                Violation(
                    "duplicate-id", f"parallel edge {e.tail!r}->{e.head!r}"
                )
            )
        pairs.add((e.tail, e.head))

    msgs = set(net.messages)
    for n in net.nodes:
        if n.role not in _ROLES:
            out.append(Violation("bad-role", f"node {n.id!r} has role {n.role!r}"))
            continue
        if n.role == ROLE_SOURCE:
            if n.generates is None:
                out.append(
                    Violation("source-generates-missing", f"source {n.id!r}")
                )
            elif n.generates not in msgs:
                out.append(
                    Violation(
                        "dangling-message-ref",
                        f"source {n.id!r} generates undeclared {n.generates!r}",
                    )
                )
        elif n.generates is not None:
            out.append(
                Violation("nonsource-generates", f"node {n.id!r} generates a message")
            )
        if n.role == ROLE_TERMINAL:
            if n.demands is None:
                out.append(
                    Violation("terminal-demands-missing", f"terminal {n.id!r}")
                )
            elif n.demands not in msgs:
                out.append(
                    Violation(
                        "dangling-message-ref",
                        f"terminal {n.id!r} demands undeclared {n.demands!r}",
                    )
                )
        elif n.demands is not None:
            out.append(
                Violation("nonterminal-demands", f"node {n.id!r} demands a message")
            )

    node_by_id = net.node_map()
    for e in net.edges:
        for end, label in ((e.tail, "tail"), (e.head, "head")):
            if end not in node_by_id:
                out.append(
                    Violation(
                        "dangling-node-ref",
                        f"edge {e.id!r} {label} references unknown node {end!r}",
                    )
                )

    for e in net.edges:
        head = node_by_id.get(e.head)
        tail = node_by_id.get(e.tail)
        if head is not None and head.role == ROLE_SOURCE:
            out.append(
                Violation("source-has-in-edge", f"edge {e.id!r} enters source {e.head!r}")
            )
        if tail is not None and tail.role == ROLE_TERMINAL:
            out.append(
                Violation(
                    "terminal-has-out-edge",
                    f"edge {e.id!r} leaves terminal {e.tail!r}",
                )
            )

    try:
        topological_order(net)
    except CycleError as exc:
        out.append(Violation("cycle", str(exc)))

    return ValidationReport(tuple(out))


def topological_order(net: CodedNetwork) -> list[str]:
    """Kahn's algorithm with a heap, so ties break lexicographically."""
    indeg: dict[str, int] = {n.id: 0 for n in net.nodes}
    succ: dict[str, list[str]] = {n.id: [] for n in net.nodes}
    for e in net.edges:
        if e.tail in succ and e.head in indeg:
            succ[e.tail].append(e.head)
            indeg[e.head] += 1
    ready = [nid for nid, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for nxt in succ[nid]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) != len(net.nodes):
        stuck = sorted(nid for nid, d in indeg.items() if d > 0)
        raise CycleError(f"cycle detected through nodes {stuck}")
    return order


def is_multiple_unicast(net: CodedNetwork) -> UnicastCheck:
    """Each message generated by exactly one source and demanded by
    exactly one terminal."""
    gen_count = {m: 0 for m in net.messages}
    dem_count = {m: 0 for m in net.messages}
    for n in net.nodes:
        if n.role == ROLE_SOURCE and n.generates in gen_count:
            gen_count[n.generates] += 1
        if n.role == ROLE_TERMINAL and n.demands in dem_count:
            dem_count[n.demands] += 1
    bad: list[UnicastViolation] = []
    for m in net.messages:
        if gen_count[m] != 1:
            bad.append(UnicastViolation(m, "generated", gen_count[m]))
        if dem_count[m] != 1:
            bad.append(UnicastViolation(m, "demanded", dem_count[m]))
    return UnicastCheck(not bad, tuple(bad))


# -- canonical JSON ---------------------------------------------------------
#
# ``_json_array`` and ``_json_object`` lay out already formatted values as
# json.dumps(indent=2, sort_keys=True) does at nesting ``depth``; ``_quote``
# is json.dumps' own string encoder.  A code's matrix entries nest deepest.
_PAD = tuple("\n" + "  " * depth for depth in range(8))


def _json_array(items: Sequence[str], depth: int) -> str:
    if not items:
        return "[]"
    pad = _PAD[depth + 1]
    return "[" + pad + ("," + pad).join(items) + _PAD[depth] + "]"


def _json_object(fields: Mapping[str, str], depth: int) -> str:
    """``fields`` maps plain keys (nothing to escape) to formatted values."""
    pad = _PAD[depth + 1]
    body = ("," + pad).join(f'"{key}": {fields[key]}' for key in sorted(fields))
    return "{" + pad + body + _PAD[depth] + "}"


# No string in a file may hold a surrogate code point (U+D800 to U+DFFF):
# ``_quote`` writes each as a \uXXXX escape, and json.loads joins a high and
# a low escape into one astral character, so an id such as '\ud800\udfff'
# would not read back.  Any escape needs a backslash, which ids rarely hold,
# so saving and loading look for one in the text first (a single-character
# search, far faster than one for "\\ud") and walk the strings only then.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _refuse_surrogates(obj: object, error_cls: type[ValueError] = ValueError) -> None:
    """Raise ``error_cls`` if a string in ``obj`` (nested lists, tuples and
    dicts, keys too) holds a surrogate code point."""
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            if _SURROGATE.search(item):
                raise error_cls(f"string {item!r} holds a surrogate code point")
        elif isinstance(item, dict):
            stack += [*item, *item.values()]
        elif isinstance(item, (list, tuple)):
            stack += item


def save(net: CodedNetwork) -> bytes:
    """The canonical bytes of ``net`` (see the module docstring)."""
    nodes = []
    for n in net.nodes:
        entry = {"id": _quote(n.id), "role": _quote(n.role)}
        if n.generates is not None:
            entry["generates"] = _quote(n.generates)
        if n.demands is not None:
            entry["demands"] = _quote(n.demands)
        nodes.append(_json_object(entry, 2))
    edges = []
    for e in net.edges:
        entry = {"id": _quote(e.id), "from": _quote(e.tail), "to": _quote(e.head)}
        edges.append(_json_object(entry, 2))
    doc = {
        "name": _quote(net.name),
        "messages": _json_array([_quote(m) for m in net.messages], 1),
        "nodes": _json_array(nodes, 1),
        "edges": _json_array(edges, 1),
    }
    text = _json_object(doc, 0) + "\n"
    if "\\" in text:
        fields = [v._astuple(v) for v in net.nodes + net.edges]
        _refuse_surrogates([net.name, net.messages, *fields])
    return text.encode("utf-8")


def _req(doc: Mapping, key: str, where: str, index: int | None = None) -> object:
    """``doc[key]``; a missing key is reported at ``where``, or at
    ``where[index]`` for an entry of a list, formatted only then."""
    if key not in doc:
        at = where if index is None else f"{where}[{index}]"
        raise NetworkFormatError(f"{at}: missing field {key!r}")
    return doc[key]


def _read_object(data: bytes | str, error_cls: type[ValueError]) -> dict:
    """The JSON object in ``data`` (UTF-8 if bytes); raises ``error_cls``
    for undecodable bytes, malformed JSON, nesting deeper than the
    interpreter's recursion limit, a surrogate code point in a string or
    a top level that is not an object."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error_cls(f"byte {exc.start}: not UTF-8") from exc
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise error_cls(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise error_cls("JSON nested too deeply") from exc
    # a surrogate comes from a \uD8xx-\uDFxx escape or, in str input, as is
    if "\\" in data or not data.isascii():
        _refuse_surrogates(doc, error_cls)
    if not isinstance(doc, dict):
        raise error_cls("top level must be an object")
    return doc


def load(data: bytes | str) -> CodedNetwork:
    doc = _read_object(data, NetworkFormatError)
    name = _req(doc, "name", "network")
    messages = _req(doc, "messages", "network")
    raw_nodes = _req(doc, "nodes", "network")
    raw_edges = _req(doc, "edges", "network")
    if not isinstance(name, str):
        raise NetworkFormatError("field 'name' must be a string")
    if not isinstance(messages, list) or not all(
        isinstance(m, str) for m in messages
    ):
        raise NetworkFormatError("field 'messages' must be a list of strings")
    for key, value in (("nodes", raw_nodes), ("edges", raw_edges)):
        if not isinstance(value, list):
            raise NetworkFormatError(f"field {key!r} must be a list")
    # an entry's location is formatted only for an error
    nodes: list[NetNode] = []
    for i, entry in enumerate(raw_nodes):
        if not isinstance(entry, dict):
            raise NetworkFormatError(f"nodes[{i}]: must be an object")
        nid = _req(entry, "id", "nodes", i)
        role = _req(entry, "role", "nodes", i)
        if not isinstance(nid, str) or not isinstance(role, str):
            raise NetworkFormatError(f"nodes[{i}]: 'id' and 'role' must be strings")
        if role not in _ROLES:
            raise NetworkFormatError(f"nodes[{i}]: unknown role {role!r}")
        gen = entry.get("generates")
        dem = entry.get("demands")
        if gen is not None and not isinstance(gen, str):
            raise NetworkFormatError(f"nodes[{i}]: 'generates' must be a string")
        if dem is not None and not isinstance(dem, str):
            raise NetworkFormatError(f"nodes[{i}]: 'demands' must be a string")
        nodes.append(NetNode(nid, role, gen, dem))
    edges: list[NetEdge] = []
    for i, entry in enumerate(raw_edges):
        if not isinstance(entry, dict):
            raise NetworkFormatError(f"edges[{i}]: must be an object")
        eid = _req(entry, "id", "edges", i)
        tail = _req(entry, "from", "edges", i)
        head = _req(entry, "to", "edges", i)
        if not (isinstance(eid, str) and isinstance(tail, str) and isinstance(head, str)):
            raise NetworkFormatError(f"edges[{i}]: 'id', 'from', 'to' must be strings")
        edges.append(NetEdge(eid, tail, head))
    return CodedNetwork(name, tuple(messages), tuple(nodes), tuple(edges))
