"""The value classes: fields, construction, ==, hash, repr, immutability.

Every public value class of the package is pinned here: its field names
in order, its defaults, its keyword construction, its ``repr`` text, an
``==`` that holds only between objects of one class with equal fields, a
hash equal to the hash of its field tuple (so set and dict order follow
the fields), and that assigning or deleting an attribute raises
``AttributeError`` and leaves the value as it was.
"""

import copy
import inspect
import pickle

import pytest

from ncchar.constructions import GadgetApplication
from ncchar.gf import FieldMatrix, PrimeModulus
from ncchar.lincode import (
    CodeError,
    CodeInput,
    FractionalCode,
    SymbolicCode,
    SymMatrix,
    TerminalReport,
    VerificationReport,
)
from ncchar.network import (
    CodedNetwork,
    NetEdge,
    NetNode,
    UnicastCheck,
    UnicastViolation,
    ValidationReport,
    Violation,
)
from ncchar.solver import DEFAULT_BUDGET, SearchConfig, SearchOutcome

P3 = PrimeModulus(3)
M12 = FieldMatrix(1, 2, (0, 1), P3)
M21 = FieldMatrix(2, 1, (2, 1), P3)
I1 = FieldMatrix(1, 1, (1,), P3)
SM = SymMatrix(1, 1, ((1, True),))
SRC = NetNode("s", "source", "a")
TERM = NetNode("t", "terminal", None, "a")
EDGE = NetEdge("s->t", "s", "t")
CODE = FractionalCode(1, 1, P3, {"s->t": (CodeInput("src:a", I1),)},
                      {"t": (CodeInput("s->t", I1),)})
REPORT = TerminalReport("t", "a", True, I1, ())

# a rule input of a symbolic code: a CodeInput holding a SymMatrix
SYM_INPUT = (CodeInput, ("ref", "matrix"), ("src:a", SM), {},
             "CodeInput(ref='src:a', matrix=SymMatrix(rows=1, cols=1, entries=((1, True),)))")

# (class, field names in order, positional arguments, defaults, repr)
CASES = [
    (NetNode, ("id", "role", "generates", "demands"), ("s", "source", "a", None),
     {"generates": None, "demands": None},
     "NetNode(id='s', role='source', generates='a', demands=None)"),
    (NetEdge, ("id", "tail", "head"), ("s->t", "s", "t"), {},
     "NetEdge(id='s->t', tail='s', head='t')"),
    (Violation, ("kind", "detail"), ("cycle", "through u"), {},
     "Violation(kind='cycle', detail='through u')"),
    (ValidationReport, ("violations",), ((Violation("cycle", "u"),),), {},
     "ValidationReport(violations=(Violation(kind='cycle', detail='u'),))"),
    (UnicastViolation, ("message", "kind", "count"), ("a", "demanded", 2), {},
     "UnicastViolation(message='a', kind='demanded', count=2)"),
    (UnicastCheck, ("ok", "violations"), (False, (UnicastViolation("a", "generated", 0),)),
     {}, "UnicastCheck(ok=False, violations=(UnicastViolation(message='a', "
     "kind='generated', count=0),))"),
    (CodedNetwork, ("name", "messages", "nodes", "edges"),
     ("tiny", ("a",), (SRC, TERM), (EDGE,)), {},
     "CodedNetwork(name='tiny', messages=('a',), nodes=(NetNode(id='s', role='source', "
     "generates='a', demands=None), NetNode(id='t', role='terminal', generates=None, "
     "demands='a')), edges=(NetEdge(id='s->t', tail='s', head='t'),))"),
    (PrimeModulus, ("p",), (3,), {}, "PrimeModulus(p=3)"),
    (FieldMatrix, ("rows", "cols", "entries", "modulus"), (1, 2, (0, 1), P3), {},
     "FieldMatrix(rows=1, cols=2, entries=(0, 1), modulus=PrimeModulus(p=3))"),
    (CodeInput, ("ref", "matrix"), ("src:a", I1), {},
     "CodeInput(ref='src:a', matrix=FieldMatrix(rows=1, cols=1, entries=(1,), "
     "modulus=PrimeModulus(p=3)))"),
    (FractionalCode, ("k", "n", "modulus", "edge_rules", "decode_rules", "q"),
     (1, 1, P3, {"s->t": (CodeInput("src:a", I1),)}, {"t": (CodeInput("s->t", I1),)}, None),
     {"q": None},
     "FractionalCode(k=1, n=1, modulus=PrimeModulus(p=3), edge_rules={'s->t': "
     "(CodeInput(ref='src:a', matrix=FieldMatrix(rows=1, cols=1, entries=(1,), "
     "modulus=PrimeModulus(p=3))),)}, decode_rules={'t': (CodeInput(ref='s->t', "
     "matrix=FieldMatrix(rows=1, cols=1, entries=(1,), modulus=PrimeModulus(p=3))),)}, "
     "q=None)"),
    (SymMatrix, ("rows", "cols", "entries"), (1, 1, ((1, True),)), {},
     "SymMatrix(rows=1, cols=1, entries=((1, True),))"),
    SYM_INPUT,
    (SymbolicCode, ("k", "n", "q", "edge_rules", "decode_rules"),
     (1, 1, 2, {"s->t": (CodeInput("src:a", SM),)}, {"t": (CodeInput("s->t", SM),)}), {},
     "SymbolicCode(k=1, n=1, q=2, edge_rules={'s->t': (CodeInput(ref='src:a', "
     "matrix=SymMatrix(rows=1, cols=1, entries=((1, True),))),)}, decode_rules={'t': "
     "(CodeInput(ref='s->t', matrix=SymMatrix(rows=1, cols=1, entries=((1, True),))),)})"),
    (TerminalReport, ("terminal", "demanded", "passed", "demanded_block", "interferers"),
     ("t", "a", False, I1, ("b",)), {},
     "TerminalReport(terminal='t', demanded='a', passed=False, demanded_block="
     "FieldMatrix(rows=1, cols=1, entries=(1,), modulus=PrimeModulus(p=3)), "
     "interferers=('b',))"),
    (VerificationReport, ("terminals",), ((REPORT,),), {},
     "VerificationReport(terminals=(TerminalReport(terminal='t', demanded='a', "
     "passed=True, demanded_block=FieldMatrix(rows=1, cols=1, entries=(1,), "
     "modulus=PrimeModulus(p=3)), interferers=()),))"),
    (SearchConfig, ("node_budget",), (77,), {"node_budget": DEFAULT_BUDGET},
     "SearchConfig(node_budget=77)"),
    (SearchOutcome, ("status", "states_explored", "code"), ("solvable", 5, CODE),
     {"code": None},
     "SearchOutcome(status='solvable', states_explored=5, code=FractionalCode(k=1, n=1, "
     "modulus=PrimeModulus(p=3), edge_rules={'s->t': (CodeInput(ref='src:a', "
     "matrix=FieldMatrix(rows=1, cols=1, entries=(1,), modulus=PrimeModulus(p=3))),)}, "
     "decode_rules={'t': (CodeInput(ref='s->t', matrix=FieldMatrix(rows=1, cols=1, "
     "entries=(1,), modulus=PrimeModulus(p=3))),)}, q=None))"),
    (GadgetApplication,
     ("index", "message", "n1", "n2", "z_message", "y_messages", "x_nodes", "t_nodes",
      "s_nodes"),
     (0, "a", "u", "v", "z#0", ("y#0_1",), ("x1#0", "x2#0", "x3#0", "x4#0", "x5#0"),
      ("t1#0",), ("s1#0",)), {},
     "GadgetApplication(index=0, message='a', n1='u', n2='v', z_message='z#0', "
     "y_messages=('y#0_1',), x_nodes=('x1#0', 'x2#0', 'x3#0', 'x4#0', 'x5#0'), "
     "t_nodes=('t1#0',), s_nodes=('s1#0',))"),
]

# a field value of the same type that the checks accept, per class
OTHER = {
    NetNode: ("s", "source", "b", None),
    NetEdge: ("s->u", "s", "u"),
    Violation: ("cycle", "through v"),
    ValidationReport: ((),),
    UnicastViolation: ("a", "demanded", 3),
    UnicastCheck: (True, ()),
    CodedNetwork: ("other", ("a",), (SRC, TERM), (EDGE,)),
    PrimeModulus: (5,),
    FieldMatrix: (1, 2, (1, 1), P3),
    CodeInput: ("src:b", I1),
    FractionalCode: (1, 1, P3, {"s->t": (CodeInput("src:a", I1),)}, {}, None),
    SymMatrix: (1, 1, ((1, False),)),
    SymbolicCode: (1, 1, 3, {"s->t": (CodeInput("src:a", SM),)},
                   {"t": (CodeInput("s->t", SM),)}),
    TerminalReport: ("t", "a", True, I1, ("b",)),
    VerificationReport: ((),),
    SearchConfig: (78,),
    SearchOutcome: ("unsolvable", 5, None),
    GadgetApplication: (1, "a", "u", "v", "z#0", ("y#0_1",),
                        ("x1#0", "x2#0", "x3#0", "x4#0", "x5#0"), ("t1#0",), ("s1#0",)),
}

IDS = [case[0].__name__ + ("-SymMatrix" if case is SYM_INPUT else "") for case in CASES]


def field_tuple(obj, fields):
    return tuple(getattr(obj, f) for f in fields)


def test_every_public_value_class_is_pinned():
    import ncchar

    exported = {getattr(ncchar, name) for name in ncchar.__all__}
    pinned = {case[0] for case in CASES}
    classes = {v for v in exported if isinstance(v, type) and not issubclass(v, Exception)}
    assert classes <= pinned
    assert set(OTHER) == pinned


@pytest.mark.parametrize("cls, fields, args, defaults, text", CASES, ids=IDS)
def test_fields_defaults_and_keywords(cls, fields, args, defaults, text):
    params = inspect.signature(cls).parameters.values()
    assert [p.name for p in params] == list(fields)
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    assert {p.name: p.default for p in params if p.default is not p.empty} == defaults
    obj = cls(*args)
    assert field_tuple(obj, fields) == args
    assert cls(**dict(zip(fields, args))) == obj
    required = {f: a for f, a in zip(fields, args) if f not in defaults}
    bare = cls(**required)
    for name, value in defaults.items():
        assert getattr(bare, name) == value
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(**required, no_such_field=1)


@pytest.mark.parametrize("cls, fields, args, defaults, text", CASES, ids=IDS)
def test_repr(cls, fields, args, defaults, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, fields, args, defaults, text", CASES, ids=IDS)
def test_equality_is_per_class_and_per_field(cls, fields, args, defaults, text):
    obj, twin, other = cls(*args), cls(*args), cls(*OTHER[cls])
    assert obj == twin and not obj != twin
    assert obj != other and not obj == other
    assert obj != args and obj != field_tuple(obj, fields)
    assert obj != object()

    class Sub(cls):
        pass

    # a subclass with equal fields is not equal, either way round
    assert Sub(*args) != obj and obj != Sub(*args)


@pytest.mark.parametrize("cls, fields, args, defaults, text", CASES, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(cls, fields, args, defaults, text):
    obj = cls(*args)
    try:
        want = hash(field_tuple(obj, fields))
    except TypeError:  # a field holds a dict
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == want
        assert hash(cls(*args)) == want
        assert {obj: 1}[cls(*args)] == 1


@pytest.mark.parametrize("cls, fields, args, defaults, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, args, defaults, text):
    obj = cls(*args)
    before = repr(obj)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.no_such_field = 1
    assert repr(obj) == before
    assert obj == cls(*args)
    assert field_tuple(obj, fields) == args


@pytest.mark.parametrize("cls, fields, args, defaults, text", CASES, ids=IDS)
def test_pickle_and_copy_round_trip(cls, fields, args, defaults, text):
    obj = cls(*args)
    for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(clone) is cls
        assert clone == obj
        assert repr(clone) == text


def test_constructor_checks():
    with pytest.raises(ValueError, match="not prime"):
        PrimeModulus(4)
    with pytest.raises(ValueError, match="must be an int"):
        PrimeModulus(True)
    with pytest.raises(ValueError, match="entry count 1 does not match shape 1x2"):
        FieldMatrix(1, 2, (1,), P3)
    with pytest.raises(ValueError, match=r"entry 3 outside \[0, 3\)"):
        FieldMatrix(1, 1, (3,), P3)
    with pytest.raises(CodeError, match="symbolic entry count"):
        SymMatrix(1, 2, ((1, False),))
    with pytest.raises(ValueError, match="node_budget must be positive"):
        SearchConfig(0)
    with pytest.raises(CodeError, match="input 'src:a' must be 1x1, got 1x2"):
        FractionalCode(1, 1, P3, {"s->t": (CodeInput("src:a", M12),)}, {})
    with pytest.raises(CodeError, match="q must be a positive integer"):
        SymbolicCode(1, 1, 0, {}, {})
    # a bare subclass of a checking class keeps its parent's checks
    for cls, args, match in (
        (FieldMatrix, (1, 1, (3,), P3), r"entry 3 outside \[0, 3\)"),
        (SearchConfig, (0,), "node_budget must be positive"),
        (PrimeModulus, (4,), "not prime"),
    ):
        class Sub(cls):
            pass

        with pytest.raises(ValueError, match=match):
            Sub(*args)


def test_normalising_constructors():
    net = CodedNetwork("n", ("b", "a"), (TERM, SRC), (NetEdge("z", "s", "t"), EDGE))
    assert net.messages == ("a", "b")
    assert [n.id for n in net.nodes] == ["s", "t"]
    assert [e.id for e in net.edges] == ["s->t", "z"]
    assert net == CodedNetwork("n", ("a", "b"), (SRC, TERM), (EDGE, NetEdge("z", "s", "t")))
    # the adjacency cache is not a field: equality, hash and repr ignore it
    assert net.in_edges("t") == [EDGE, NetEdge("z", "s", "t")]
    fresh = CodedNetwork("n", ("b", "a"), (TERM, SRC), (NetEdge("z", "s", "t"), EDGE))
    assert net == fresh and hash(net) == hash(fresh) and repr(net) == repr(fresh)
    code = FractionalCode(1, 2, P3, {"e": (CodeInput("src:b", M21), CodeInput("src:a", M21))},
                          {})
    assert [inp.ref for inp in code.edge_rules["e"]] == ["src:a", "src:b"]
    assert ValidationReport(()).ok and not ValidationReport((Violation("x", "y"),)).ok
    assert VerificationReport((REPORT,)).passed
