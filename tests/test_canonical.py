"""Canonical files are exactly ``json.dumps(doc, indent=2, sort_keys=True)``.

``save`` and ``save_code`` format their documents directly.  Each test
here builds the document from the object's fields itself and compares
the library's bytes with what ``json.dumps`` prints for it: on the
closed-form codes of the paper's families, on dense random copies of
them, and on small random codes and networks whose ids hold quotes,
backslashes, control characters and non-ASCII; ids with surrogate code
points are refused both ways, since JSON cannot carry them faithfully.
"""

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncchar import (
    CodedNetwork,
    CodeFormatError,
    CodeInput,
    FractionalCode,
    NetEdge,
    NetNode,
    NetworkFormatError,
    gadget_transform,
    gen_n1,
    gen_n2,
    instantiate,
    lift_gadget,
    lift_union,
    load,
    load_code,
    save,
    save_code,
    solve_n1,
    solve_n2,
    union_copies,
)
from ncchar.gf import FieldMatrix, PrimeModulus
from ncchar.lincode import SymbolicCode, SymMatrix

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def dumps(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def symbolic_entry(coeff, inv):
    """The code format's spelling of coeff, or of coeff times 1/q."""
    if not inv:
        return coeff
    return "INV_Q" if coeff == 1 else f"{coeff}*INV_Q"


def code_doc(code):
    symbolic = isinstance(code, SymbolicCode)

    def matrix(m):
        cells = [symbolic_entry(*e) if symbolic else e for e in m.entries]
        return [cells[r * m.cols : (r + 1) * m.cols] for r in range(m.rows)]

    def rules(rule_map, key_name):
        return [
            {
                key_name: key,
                "inputs": [
                    {"ref": inp.ref, "matrix": matrix(inp.matrix)}
                    for inp in sorted(rule_map[key], key=lambda inp: inp.ref)
                ],
            }
            for key in sorted(rule_map)
        ]

    doc = {
        "k": code.k,
        "n": code.n,
        "edge_rules": rules(code.edge_rules, "edge"),
        "decode_rules": rules(code.decode_rules, "terminal"),
    }
    if symbolic:
        doc["q"] = code.q
    else:
        doc["p"] = code.modulus.p
        if code.q is not None:
            doc["q"] = code.q
    return doc


def network_doc(net):
    nodes = []
    for node in net.nodes:
        entry = {"id": node.id, "role": node.role}
        if node.generates is not None:
            entry["generates"] = node.generates
        if node.demands is not None:
            entry["demands"] = node.demands
        nodes.append(entry)
    return {
        "name": net.name,
        "messages": list(net.messages),
        "nodes": nodes,
        "edges": [{"id": e.id, "from": e.tail, "to": e.head} for e in net.edges],
    }


def instances():
    """(label, network, symbolic code, p) for the pinned instances."""
    n1_4_2, n1_3_1 = gen_n1(4, 2), gen_n1(3, 1)
    gadget = gadget_transform(n1_4_2, 2)
    return [
        ("n1(4,2)", n1_4_2, solve_n1(4, 2), 2),
        ("n2(5,2)", gen_n2(5, 2), solve_n2(5, 2), 2),
        ("gadget(n1(4,2))", gadget, lift_gadget(solve_n1(4, 2), n1_4_2, gadget), 2),
        ("union(n1(3,1),2)", union_copies(n1_3_1, 2), lift_union(solve_n1(3, 1), 2), 3),
    ]


def dense_copy(code, rng):
    """The same rule shapes with every entry drawn at random from GF(p)."""
    p = code.modulus.p

    def redraw(rule_map):
        return {
            key: tuple(
                CodeInput(
                    inp.ref,
                    FieldMatrix(
                        inp.matrix.rows,
                        inp.matrix.cols,
                        tuple(rng.randrange(p) for _ in inp.matrix.entries),
                        code.modulus,
                    ),
                )
                for inp in inputs
            )
            for key, inputs in rule_map.items()
        }

    edge_rules, decode_rules = redraw(code.edge_rules), redraw(code.decode_rules)
    return FractionalCode(code.k, code.n, code.modulus, edge_rules, decode_rules, q=code.q)


def test_closed_forms_match_json_dumps():
    for label, net, sym, p in instances():
        field = instantiate(sym, p)
        dense = dense_copy(field, random.Random(f"dense:{label}"))
        assert save(net) == dumps(network_doc(net)), label
        for code in (sym, field, dense):
            assert save_code(code) == dumps(code_doc(code)), label


# -- random small codes and networks ---------------------------------------------

SPECIAL = ['"', "\\", "/", "%", "\x00", "\n", "\x1f", "\x7f", "é", " ",
           "\ud800", "\udfff", "\U0001f600"]
names = st.text(
    st.sampled_from(SPECIAL) | st.characters(exclude_categories=()), max_size=5
)


@st.composite
def codes(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    symbolic = draw(st.booleans())
    if symbolic:
        cell = st.tuples(st.integers(-9, 9), st.booleans())
    else:
        mod = PrimeModulus(draw(st.sampled_from([2, 3, 5, 7])))
        cell = st.integers(0, mod.p - 1)

    def matrix(rows, cols):
        cells = tuple(draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols)))
        if symbolic:
            return SymMatrix(rows, cols, cells)
        return FieldMatrix(rows, cols, cells, mod)

    def rules(decode):
        if decode:
            refs = names.filter(lambda s: not s.startswith("src:"))
        else:
            refs = names | names.map(lambda s: "src:" + s)
        out = {}
        for key in draw(st.lists(names, max_size=3, unique=True)):
            inputs = []
            for ref in draw(st.lists(refs, max_size=3)):
                if decode:
                    shape = (k, n)
                else:
                    shape = (n, k) if ref.startswith("src:") else (n, n)
                inputs.append(CodeInput(ref, matrix(*shape)))
            out[key] = tuple(inputs)
        return out

    edge_rules, decode_rules = rules(False), rules(True)
    if symbolic:
        return SymbolicCode(k, n, draw(st.integers(1, 60)), edge_rules, decode_rules)
    q = draw(st.none() | st.integers(1, 60))
    return FractionalCode(k, n, mod, edge_rules, decode_rules, q=q)


@st.composite
def networks(draw):
    roles = st.sampled_from(["source", "intermediate", "terminal"])
    node_ids = draw(st.lists(names, max_size=4, unique=True))
    nodes = tuple(
        NetNode(nid, draw(roles), draw(st.none() | names), draw(st.none() | names))
        for nid in node_ids
    )
    edge_ids = draw(st.lists(names, max_size=4, unique=True))
    edges = tuple(NetEdge(eid, draw(names), draw(names)) for eid in edge_ids)
    messages = tuple(draw(st.lists(names, max_size=3)))
    return CodedNetwork(draw(names), messages, nodes, edges)


def test_surrogate_ids_are_refused():
    # '\ud800\udfff' is two code points, but its escapes read back as the
    # one astral character U+103FF, so saving it would not round-trip
    net = gen_n1(2, 1)
    pair, astral = chr(0xD800) + chr(0xDFFF), chr(0x103FF)
    with pytest.raises(ValueError, match="surrogate"):
        save(CodedNetwork(pair, net.messages, net.nodes, net.edges))
    code = instantiate(solve_n1(2, 1), 2)
    decode = {pair: next(iter(code.decode_rules.values()))}
    with pytest.raises(ValueError, match="surrogate"):
        save_code(FractionalCode(code.k, code.n, code.modulus, code.edge_rules, decode))
    data = save(CodedNetwork(astral, net.messages, net.nodes, net.edges))
    assert b'"\\ud800\\udfff"' in data and load(data).name == astral
    with pytest.raises(NetworkFormatError, match="surrogate"):
        load(data.replace(b"\\udfff", b""))


def has_surrogate(doc) -> bool:
    """Whether a string in ``doc`` holds a code point in U+D800-U+DFFF."""
    return re.search("[\ud800-\udfff]", json.dumps(doc, ensure_ascii=False)) is not None


@PROPERTY
@given(codes())
def test_save_code_matches_json_dumps(code):
    doc = code_doc(code)
    if has_surrogate(doc):
        with pytest.raises(ValueError, match="surrogate"):
            save_code(code)
        if has_surrogate(json.loads(dumps(doc))):  # not if all form pairs
            with pytest.raises(CodeFormatError, match="surrogate"):
                load_code(dumps(doc))
        return
    data = save_code(code)
    assert data == dumps(doc)
    assert load_code(data) == code
    assert save_code(load_code(data)) == data


@PROPERTY
@given(networks())
def test_save_matches_json_dumps(net):
    doc = network_doc(net)
    if has_surrogate(doc):
        with pytest.raises(ValueError, match="surrogate"):
            save(net)
        if has_surrogate(json.loads(dumps(doc))):
            with pytest.raises(NetworkFormatError, match="surrogate"):
                load(dumps(doc))
        return
    data = save(net)
    assert data == dumps(doc)
    assert load(data) == net
    assert save(load(data)) == data
