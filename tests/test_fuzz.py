"""Fuzzing the input boundary: ``load``, ``load_code`` and ``main()``.

Malformed documents may only raise the format errors, and the CLI answers
every file it is given with an exit code and no traceback.  Inputs are
raw bytes, arbitrary JSON values, and valid documents with one subtree
replaced or deleted.  Runs are derandomized so every run sees the same
examples.
"""

import copy
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ncchar import (
    CodedNetwork,
    gen_fano,
    instantiate,
    load,
    load_code,
    save,
    save_code,
    solve_n1,
)
from ncchar.cli import main
from ncchar.lincode import CodeError, CodeFormatError, FractionalCode, SymbolicCode
from ncchar.network import NetworkFormatError

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

NET = gen_fano()
NET_DOC = json.loads(save(NET))
CODE_DOC = json.loads(save_code(instantiate(solve_n1(2, 1), 2)))
SYMBOLIC_DOC = json.loads(save_code(solve_n1(2, 1)))

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=10), inner, max_size=4),
    max_leaves=12,
)

_DELETE = object()


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


def _replace(doc, path, value):
    """A copy of doc with the subtree at path replaced (or deleted)."""
    if not path:
        return None if value is _DELETE else value
    out = copy.deepcopy(doc)
    parent = out
    for step in path[:-1]:
        parent = parent[step]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def mutated(doc):
    """Valid documents with one subtree replaced by any JSON value, or gone."""
    return st.builds(
        _replace,
        st.just(doc),
        st.sampled_from(list(_paths(doc))),
        st.just(_DELETE) | json_values,
    )


def documents(*valid):
    """Bytes a file might hold: noise, any JSON, or a mutated valid document."""
    return st.one_of(
        st.binary(max_size=64),
        st.text(max_size=64).map(str.encode),
        json_values.map(lambda v: json.dumps(v).encode()),
        *(mutated(doc).map(lambda v: json.dumps(v).encode()) for doc in valid),
    )


@FUZZ
@given(documents(NET_DOC))
def test_load_raises_only_format_errors(data):
    try:
        net = load(data)
    except NetworkFormatError:
        return
    assert isinstance(net, CodedNetwork)


@FUZZ
@given(documents(CODE_DOC, SYMBOLIC_DOC), st.booleans())
def test_load_code_raises_only_format_errors(data, cross_check):
    try:
        code = load_code(data, NET if cross_check else None)
    except (CodeFormatError, CodeError):
        return
    assert isinstance(code, (FractionalCode, SymbolicCode))


@FUZZ
@given(documents(NET_DOC))
def test_main_info_exits_0_or_64_without_traceback(tmp_path, capsys, data):
    path = tmp_path / "net.json"
    path.write_bytes(data)
    code = main(["info", str(path)])
    out, err = capsys.readouterr()
    assert code in (0, 64)
    assert "Traceback" not in err
    if code == 64:
        assert out == "" and len(err.strip().splitlines()) == 1


@FUZZ
@given(documents(CODE_DOC, SYMBOLIC_DOC))
def test_main_verify_fuzzed_code_without_traceback(tmp_path, capsys, data):
    # a code that parses may still fail verification: that is exit 1
    net_path = tmp_path / "net.json"
    net_path.write_bytes(save(NET))
    code_path = tmp_path / "code.json"
    code_path.write_bytes(data)
    code = main(["verify", str(net_path), str(code_path)])
    out, err = capsys.readouterr()
    assert code in (0, 1, 64)
    assert "Traceback" not in err
    if code == 64:
        assert out == "" and len(err.strip().splitlines()) == 1
