"""(k, n) fractional linear network codes and their verification.

Sources emit blocks of k symbols, edges carry blocks of n symbols.  A
code assigns each edge a rule combining the blocks on its tail's
in-edges (n x n matrices) and/or the message generated at its tail
(n x k matrices), and each terminal a decode rule (k x n matrices over
its in-edges).  One rule evaluator runs both kinds.  ``eval_transfer``,
the one walk over the edge rules, unrolls them in topological order into
global transfer blocks, an n x k block per (edge, message); ``verify``
runs it, then evaluates each decode rule on the blocks and checks that
every terminal reconstructs its demand exactly: identity on the demanded
block, zero on every other.

Transfer maps are sparse.  Each edge stores only its nonzero blocks, and
a rule multiplies only stored blocks, so the cost follows the nonzero
blocks rather than edges times messages.  Blocks are raw row-major
residue tuples: a rule's products are added unreduced and reduced mod p
once, and a rule with one input reduces them as it makes them.  An input
whose parent holds many blocks multiplies them all in one product through
``gf._dot_rows``, with the blocks side by side as one wide matrix, and
splits the result back into blocks.  ``eval_transfer`` returns the blocks
raw, ``{edge: {message: block}}`` with nonzero blocks only, so a message
missing from an edge's map has the zero block there; ``verify`` builds a
``FieldMatrix`` only for each demanded block.

A ``SymbolicCode`` is the characteristic-agnostic form of the same data:
entries are small integers, optionally times a formal inverse of the
construction parameter q.  ``instantiate`` maps it onto GF(p), which
fails precisely when an inverse of q is used but p divides q.  Equal
symbolic matrices of one code become one shared ``FieldMatrix``, and
``load_code`` shares the equal matrices of one file the same way.

``save_code`` writes either kind as a canonical file: the bytes of
``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline, produced by
a direct formatter for the one document shape, because ``json.dumps``
with any ``indent`` gives up its C encoder for a pure-Python one.
``load_code`` pauses the cyclic garbage collector for the call and
restores the state it found, even on error; that is safe because the
parsed tree and the code built from it hold no reference cycle.
"""

from __future__ import annotations

import gc
import json
import re
from json.encoder import encode_basestring_ascii as _quote
from itertools import chain
from operator import add, attrgetter
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .gf import FieldMatrix, PrimeModulus, _dot_rows, as_modulus
from .network import (
    ROLE_SOURCE,
    CodedNetwork,
    _int_at_least,
    _json_array,
    _json_object,
    _read_object,
    _refuse_surrogates,
    _set,
    _Value,
    topological_order,
)

if TYPE_CHECKING:
    from .network import NetNode

SRC_PREFIX = "src:"


class CodeError(ValueError):
    """Raised for structurally broken codes (bad refs, bad shapes)."""


class CodeFormatError(ValueError):
    """Raised when a code document cannot be parsed."""


class CharacteristicError(ValueError):
    """Raised when instantiation needs 1/q but the characteristic divides q."""


class CodeInput(_Value):
    """One weighted input of a rule: a parent edge id or ``src:<message>``,
    with a ``FieldMatrix`` in a ``FractionalCode`` and a ``SymMatrix`` in a
    ``SymbolicCode``."""

    __slots__ = ("ref", "matrix")


_by_ref = attrgetter("ref")


def _check_rules(
    code: FractionalCode | SymbolicCode, modulus: PrimeModulus | None
) -> None:
    """The rule check both code kinds run on construction.

    Each rule's inputs are stored sorted by ref: inputs are summed during
    evaluation, so the order carries no meaning, and fixing it makes
    equality and serialization agree.  An edge reads an n x k matrix from
    ``src:<message>`` and an n x n one from a parent edge; a decode rule
    reads a k x n matrix from an in-edge and never reads ``src:``.  A
    field code (``modulus`` given) uses that one modulus throughout.  As
    in a code document, k, n and any q are ints >= 1, and not ``bool``.
    """
    k, n = code.k, code.n
    if not (_int_at_least(k, 1) and _int_at_least(n, 1)):
        raise CodeError("k and n must be positive")
    if (code.q is not None or modulus is None) and not _int_at_least(code.q, 1):
        raise CodeError("q must be a positive integer")
    for attr, decode in (("edge_rules", False), ("decode_rules", True)):
        rules = {
            # a tuple of one input is already sorted, and most rules are one
            key: inputs
            if isinstance(inputs, tuple) and len(inputs) == 1
            else tuple(sorted(inputs, key=_by_ref))
            for key, inputs in getattr(code, attr).items()
        }
        _set(code, attr, rules)
        for key, inputs in rules.items():
            for inp in inputs:
                m = inp.matrix
                src = inp.ref.startswith(SRC_PREFIX)
                rows, cols = (k, n) if decode else (n, k if src else n)
                if decode and src:
                    fault = f" may not read source messages directly ({inp.ref!r})"
                elif m.rows != rows or m.cols != cols:
                    fault = (
                        f": input {inp.ref!r} must be {rows}x{cols}, "
                        f"got {m.rows}x{m.cols}"
                    )
                # mostly the one object; ``is`` spares the Python-level __eq__
                elif modulus is not None and m.modulus is not modulus and m.modulus != modulus:
                    fault = ": mixed moduli"
                else:
                    continue
                rule = f"decode rule for {key!r}" if decode else f"rule for edge {key!r}"
                raise CodeError(rule + fault)


class FractionalCode(_Value):
    __slots__ = ("k", "n", "modulus", "edge_rules", "decode_rules", "q")

    def __init__(
        self,
        k: int,
        n: int,
        modulus: PrimeModulus,
        edge_rules: Mapping[str, tuple[CodeInput, ...]],
        decode_rules: Mapping[str, tuple[CodeInput, ...]],
        q: int | None = None,
    ) -> None:
        _set(self, "k", k)
        _set(self, "n", n)
        _set(self, "modulus", modulus)
        _set(self, "edge_rules", edge_rules)
        _set(self, "decode_rules", decode_rules)
        _set(self, "q", q)
        _check_rules(self, modulus)

    @classmethod
    def _trusted(cls, *values: object) -> "FractionalCode":
        """Build from every field's value, in field order, without the rule
        check of ``__init__``.

        Only for rules that already pass it: inputs sorted by ref, every
        matrix of its rule's shape and over the one modulus, such as the
        rules of a checked ``SymbolicCode`` converted entry by entry.
        """
        code = object.__new__(cls)
        for name, value in zip(cls._fields, values, strict=True):
            _set(code, name, value)
        return code


SymEntry = tuple[int, bool]  # (coefficient, times 1/q?)


class SymMatrix(_Value):
    """A small-integer matrix whose entries may carry a formal 1/q."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[SymEntry, ...]) -> None:
        if len(entries) != rows * cols:
            raise CodeError("symbolic entry count does not match shape")
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "entries", entries)

    @classmethod
    def scaled_identity(cls, size: int, coeff: int = 1, inv_q: bool = False) -> "SymMatrix":
        flat = [(0, False)] * (size * size)
        for i in range(size):
            flat[i * size + i] = (coeff, inv_q)
        return cls(size, size, tuple(flat))

    @classmethod
    def unit_column(cls, size: int, pos: int) -> "SymMatrix":
        flat = [(0, False)] * size
        flat[pos - 1] = (1, False)
        return cls(size, 1, tuple(flat))

    @classmethod
    def unit_row(cls, size: int, pos: int, coeff: int = 1) -> "SymMatrix":
        flat = [(0, False)] * size
        flat[pos - 1] = (coeff, False)
        return cls(1, size, tuple(flat))


class SymbolicCode(_Value):
    __slots__ = ("k", "n", "q", "edge_rules", "decode_rules")

    def __init__(
        self,
        k: int,
        n: int,
        q: int,
        edge_rules: Mapping[str, tuple[CodeInput, ...]],
        decode_rules: Mapping[str, tuple[CodeInput, ...]],
    ) -> None:
        _set(self, "k", k)
        _set(self, "n", n)
        _set(self, "q", q)
        _set(self, "edge_rules", edge_rules)
        _set(self, "decode_rules", decode_rules)
        _check_rules(self, None)


def instantiate(sym: SymbolicCode, p: PrimeModulus | int) -> FractionalCode:
    """Reduce a symbolic code mod p.  Entries carrying 1/q require q to be
    invertible, i.e. the characteristic must not divide q.

    One pass over the entries converts them and meets any 1/q.  The rules
    were sorted and shape-checked when ``sym`` was built and keep their
    order and shapes, and every matrix gets the one modulus, so the field
    code is built with ``FractionalCode._trusted``, without the rule check.

    A code holds few distinct matrices among many inputs, so each distinct
    ``SymMatrix`` value is converted once per call and equal inputs share
    the one ``FieldMatrix``.  Sharing is safe: a ``FieldMatrix`` refuses
    every assignment to its fields, and nothing in this package mutates a
    matrix, so no holder of a shared matrix can see another change it.
    Inputs share few matrix objects too, so each is looked up by ``id``
    first, and by value, which hashes its entries, only on a miss; ``sym``
    holds every one of them through the call, so no ``id`` is reused.
    Only conversions that succeed are kept, so an error is raised at the
    first input that needs 1/q, as without the sharing.
    """
    mod = as_modulus(p)
    p = mod.p
    q_inv = pow(sym.q, -1, p) if sym.q % p else None
    converted: dict[SymMatrix, FieldMatrix] = {}
    by_id: dict[int, FieldMatrix] = {}

    def times_inv_q(coeff: int) -> int:
        if q_inv is None:
            raise CharacteristicError(
                f"characteristic divides q: no inverse of q={sym.q} in GF({p})"
            )
        return coeff * q_inv % p

    def concrete(matrix: SymMatrix) -> FieldMatrix:
        fm = by_id.get(id(matrix))
        if fm is None:
            fm = converted.get(matrix)
            if fm is None:
                flat = tuple([times_inv_q(c) if inv else c % p for c, inv in matrix.entries])
                fm = converted[matrix] = FieldMatrix._trusted(matrix.rows, matrix.cols, flat, mod)
            by_id[id(matrix)] = fm
        return fm

    def convert(rules: Mapping[str, tuple[CodeInput, ...]]) -> dict[str, tuple[CodeInput, ...]]:
        return {
            key: tuple([CodeInput(inp.ref, concrete(inp.matrix)) for inp in inputs])
            for key, inputs in rules.items()
        }

    return FractionalCode._trusted(
        sym.k, sym.n, mod, convert(sym.edge_rules), convert(sym.decode_rules), sym.q
    )


# -- evaluation and verification ---------------------------------------------

Blocks = dict[str, tuple[int, ...]]  # message -> row-major residues, nonzero only


# An in-edge input whose parent holds at least this many blocks multiplies
# them all in one product, whose B is then at least gf._WIDE columns wide.
# The threshold is measured, not needed for exactness: on the benchmark's
# verify_scale codes (2-CPU machine, in-process, alternating), thresholds of 4
# and 8 timed within 1% of 16, while batching every input was 10% slower, 32
# was 4% slower and never batching 21% slower.
_BATCH_MIN = 16


def _evaluate(
    key: str, inputs: tuple[CodeInput, ...], node: NetNode, in_ids: set[str],
    transfer: dict[str, Blocks], k: int, p: int, decode: bool = False,
) -> Blocks:
    """The nonzero output blocks of the rule for ``key``: an edge rule, or
    with ``decode`` the decode rule of terminal ``key``.

    ``node`` is the node whose in-edges, ``in_ids``, the rule may read: an
    edge's tail, or the terminal itself.  ``transfer`` holds the blocks of
    every edge evaluated so far.  An in-edge input A adds A @ B[m] for each
    stored block B[m] of that edge; a ``src:<m>`` input S at the source
    that generates m adds S @ I_k, which is S itself.  Decode rules never
    read ``src:``, since the rule check refuses that on construction.  The
    products of a message are added unreduced and reduced mod p once; the
    blocks of a rule with one input are reduced as they are made.  The
    first input with a bad ref raises ``CodeError``: ``src:`` at the wrong
    tail, a ref that is not an in-edge, or an in-edge never evaluated.

    A parent with ``_BATCH_MIN`` blocks or more is read in one product
    A @ B, where B holds its M blocks side by side, column c of block j
    at column c * M + j.  The row-major entries of that B are the blocks'
    entries interleaved, and block j of the product is every M-th entry of
    it from the j-th on.
    """
    single = len(inputs) == 1  # its products are the rule's blocks: reduce them
    acc: dict[str, Sequence[int]] = {}
    for inp in inputs:
        ref, m = inp.ref, inp.matrix
        if ref.startswith(SRC_PREFIX):
            msg = ref[len(SRC_PREFIX) :]
            if node.role != ROLE_SOURCE or node.generates != msg:
                fault = f"but its tail {node.id!r} does not generate that message"
                break
            products: Iterable = ((msg, m.entries),)  # S @ I_k is S: reduced, no product
        elif ref not in in_ids:
            edges = "one of its in-edges" if decode else f"an in-edge of its tail {node.id!r}"
            fault = f"which is not {edges}"
            break
        elif (blocks := transfer.get(ref)) is None:
            # only an edge from no node is skipped; verify does not run validate
            fault = "which was never evaluated: its tail is not a node"
            break
        else:
            rows = list(zip(*[iter(m.entries)] * m.cols))  # the rows of A, sliced once
            width = len(blocks)
            if width < _BATCH_MIN:
                products = [(msg, _dot_rows(rows, b, k)) for msg, b in blocks.items()]
                if single:
                    products = [(msg, tuple([x % p for x in f])) for msg, f in products]
            else:
                stacked = tuple(chain.from_iterable(zip(*blocks.values())))
                wide = _dot_rows(rows, stacked, k * width)
                if single:
                    wide = tuple(map(p.__rmod__, wide))
                products = zip(blocks, [wide[j::width] for j in range(width)])
        if single:
            return {msg: flat for msg, flat in products if any(flat)}
        for msg, prod in products:
            old = acc.get(msg)
            acc[msg] = prod if old is None else list(map(add, old, prod))
    else:
        reduced = ((msg, tuple([x % p for x in total])) for msg, total in acc.items())
        return {msg: flat for msg, flat in reduced if any(flat)}
    rule = f"decode rule for {key!r}" if decode else f"rule for edge {key!r}"
    raise CodeError(f"{rule} reads {ref!r}, {fault}")


def eval_transfer(net: CodedNetwork, code: FractionalCode) -> dict[str, Blocks]:
    """Global transfer blocks: for each edge, the n x k block of each
    message, as a row-major tuple of residues mod p.

    This is the one walk over the edge rules, and ``verify`` runs it.  Each
    edge stores only its nonzero blocks, so a message missing from an edge's
    map has the zero block there.  Edges are evaluated in topological order,
    so a broken rule is reported at the first edge that has one.
    """
    node_by_id = net.node_map()
    rules, k, p = code.edge_rules, code.k, code.modulus.p
    transfer: dict[str, Blocks] = {}
    for nid in topological_order(net):
        node = node_by_id[nid]
        in_ids = {pe.id for pe in net.in_edges(nid)}
        for e in net.out_edges(nid):
            if e.id not in rules:
                raise CodeError(f"no rule for edge {e.id!r}")
            transfer[e.id] = _evaluate(e.id, rules[e.id], node, in_ids, transfer, k, p)
    return transfer


class TerminalReport(_Value):
    __slots__ = ("terminal", "demanded", "passed", "demanded_block", "interferers")


class VerificationReport(_Value):
    __slots__ = ("terminals",)

    @property
    def passed(self) -> bool:
        return all(t.passed for t in self.terminals)

    def failing(self) -> list[TerminalReport]:
        return [t for t in self.terminals if not t.passed]


def verify(net: CodedNetwork, code: FractionalCode) -> VerificationReport:
    """Exact per-terminal check of the decode rules against the transfers.

    The edge rules are walked once, by ``eval_transfer``, looked up as a
    module global on each call, so a wrapper set on ``lincode.eval_transfer``
    sees every walk.  Each decode rule is then evaluated like an edge rule
    on those raw blocks, row-major n x k residues with a missing message as
    the zero block; only each terminal's demanded block becomes a
    ``FieldMatrix``.
    """
    transfer = eval_transfer(net, code)
    messages = frozenset(net.messages)
    k, mod = code.k, code.modulus
    ident = FieldMatrix.identity(k, mod)
    zero = (0,) * (k * k)

    reports: list[TerminalReport] = []
    for term in net.terminals():
        if term.demands is None:
            raise CodeError(f"terminal {term.id!r} has no demand")
        in_ids = {e.id for e in net.in_edges(term.id)}
        inputs = code.decode_rules.get(term.id, ())
        decoded = _evaluate(term.id, inputs, term, in_ids, transfer, k, mod.p, decode=True)
        if term.demands not in messages:
            raise CodeError(
                f"terminal {term.id!r} demands unknown message {term.demands!r}"
            )
        demanded = FieldMatrix._trusted(k, k, decoded.get(term.demands, zero), mod)
        # net.messages is sorted, so sorting keeps the message order
        interferers = tuple(sorted(m for m in decoded if m != term.demands))
        good = demanded == ident and not interferers
        reports.append(TerminalReport(term.id, term.demands, good, demanded, interferers))
    return VerificationReport(tuple(sorted(reports, key=lambda r: r.terminal)))


# -- serialization ------------------------------------------------------------

_INV_Q_RE = re.compile(r"(-?[0-9]+)\*INV_Q")  # whole string, ASCII digits only
_JSON_ENTRY_TYPES = frozenset((int, str))  # the types of valid entries
_BAD_MATRIX = "'matrix' must be a non-empty list of equal-length rows"


def _entry_to_json(entry: SymEntry) -> str:
    """A symbolic entry as JSON text: the integer, or a quoted INV_Q token."""
    coeff, inv = entry
    if not inv:
        return str(coeff)
    if coeff == 1:
        return '"INV_Q"'
    return f'"{coeff}*INV_Q"'


def _entry_from_json(value: object) -> SymEntry:
    if isinstance(value, bool):
        raise CodeFormatError("entry must be an int or INV_Q token")
    if isinstance(value, int):
        return (value, False)
    if isinstance(value, str):
        if value == "INV_Q":
            return (1, True)
        m = _INV_Q_RE.fullmatch(value)
        if m:
            return (int(m.group(1)), True)
    raise CodeFormatError(f"bad entry {value!r}")


def _rules_json(
    rules: Mapping[str, tuple], key_name: str, formatted: dict[int, tuple] | None
) -> str:
    """A rule map as the code document's list, inputs in their stored ref
    order.  Each input fills a template made once per matrix shape, with
    a ``%s`` per entry and one for the ref; each rule fills one made once,
    whose two keys sort by ``key_name``.  A field code's entries are ints
    and fill it as they are (``formatted`` None).  A symbolic code's are
    formatted once per matrix object into ``formatted``, keyed by ``id``:
    its inputs share few matrices, and all of them live through the call."""
    rule = _json_object({key_name: "%(key)s", "inputs": "%(inputs)s"}, 2)
    templates: dict[tuple[int, int], str] = {}
    out = []
    for key in sorted(rules):
        inputs = []
        for inp in rules[key]:
            m = inp.matrix
            shape = (m.rows, m.cols)
            template = templates.get(shape)
            if template is None:
                row = _json_array(["%s"] * m.cols, 6)
                matrix = _json_array([row] * m.rows, 5)
                template = _json_object({"matrix": matrix, "ref": "%s"}, 4)
                templates[shape] = template
            if formatted is None:
                cells = m.entries
            elif (cells := formatted.get(id(m))) is None:
                cells = formatted[id(m)] = tuple(map(_entry_to_json, m.entries))
            inputs.append(template % (cells + (_quote(inp.ref),)))
        out.append(rule % {"key": _quote(key), "inputs": _json_array(inputs, 3)})
    return _json_array(out, 1)


def save_code(code: FractionalCode | SymbolicCode) -> bytes:
    """The canonical bytes of ``code`` (see the module docstring)."""
    symbolic = isinstance(code, SymbolicCode)
    formatted: dict[int, tuple] | None = {} if symbolic else None
    doc = {
        "k": json.dumps(code.k),
        "n": json.dumps(code.n),
        "edge_rules": _rules_json(code.edge_rules, "edge", formatted),
        "decode_rules": _rules_json(code.decode_rules, "terminal", formatted),
    }
    if symbolic:
        doc["q"] = json.dumps(code.q)
    else:
        doc["p"] = json.dumps(code.modulus.p)
        if code.q is not None:
            doc["q"] = json.dumps(code.q)
    text = _json_object(doc, 0) + "\n"
    if "\\" in text:  # see _refuse_surrogates
        rules = [*code.edge_rules.items(), *code.decode_rules.items()]
        _refuse_surrogates([(key, [inp.ref for inp in inputs]) for key, inputs in rules])
    return text.encode("utf-8")


def load_code(
    data: bytes | str, net: CodedNetwork | None = None
) -> FractionalCode | SymbolicCode:
    """Parse a code document; pass the network to cross-check references.

    Shapes, entries, k, n and q are checked by the classes built from
    the document; their errors come back as ``CodeFormatError``.

    The cyclic garbage collector is paused for the whole call and left as
    the call found it, also when it raises.  That only puts collections
    off: the JSON tree and the code built from it hold no reference cycle,
    so reference counts free all the call drops, and a collection inside
    the call would free none of it, only rescan the young tree while it is
    built.  The pause spans the call, not the parse alone, so the tree is
    freed before collections resume.  The state is process-wide: a thread
    that pauses the collector during a load that found it running finds
    it running again after.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_code(data, net)
    finally:
        if enabled:
            gc.enable()


def _parse_code(data: bytes | str, net: CodedNetwork | None) -> FractionalCode | SymbolicCode:
    """The body of ``load_code``, run with the collector paused."""
    doc = _read_object(data, CodeFormatError)
    for field_name in ("k", "n", "edge_rules", "decode_rules"):
        if field_name not in doc:
            raise CodeFormatError(f"missing field {field_name!r}")
    k, n = doc["k"], doc["n"]
    symbolic = "p" not in doc
    if symbolic:
        if "q" not in doc:
            raise CodeFormatError("symbolic code needs 'q'")

        def matrix(rows: int, cols: int, flat: tuple) -> SymMatrix:
            return SymMatrix(rows, cols, tuple(map(_entry_from_json, flat)))

    else:
        try:
            mod = PrimeModulus(doc["p"])
        except ValueError as exc:
            raise CodeFormatError(str(exc)) from exc

        def matrix(rows: int, cols: int, flat: tuple) -> FieldMatrix:
            return FieldMatrix(rows, cols, flat, mod)

    # One matrix per distinct entry list, as in ``instantiate``.  Any entry but
    # an int or a str goes straight to ``matrix``, which refuses it: a bool or a
    # float would hit the matrix of an equal int, and a list cannot be hashed.
    shared: dict[tuple, FieldMatrix | SymMatrix] = {}

    def parse_rules(raw: object, key_name: str, decode: bool):
        # The document comes from json.loads, so every container in it is
        # exactly a list or a dict and every string exactly a str: exact
        # type tests decide as isinstance would.
        if type(raw) is not list:
            raise CodeFormatError(f"'{key_name}_rules' must be a list")
        outer = "terminal" if decode else "edge"

        def fault(text: str, i: int, j: int | None = None) -> CodeFormatError:
            """The error at rule i, or at its input j: located only when raised."""
            where = f"{key_name}_rules[{i}]" + ("" if j is None else f".inputs[{j}]")
            return CodeFormatError(f"{where}: {text}")

        rules: dict[str, tuple] = {}
        for i, entry in enumerate(raw):
            if type(entry) is not dict:
                raise fault("must be an object", i)
            if outer not in entry or "inputs" not in entry:
                raise fault(f"needs {outer!r} and 'inputs'", i)
            key = entry[outer]
            if type(key) is not str:
                raise fault(f"{outer!r} must be a string", i)
            if key in rules:
                raise fault(f"duplicate rule for {key!r}", i)
            inputs = []
            raw_inputs = entry["inputs"]
            if type(raw_inputs) is not list:
                raise fault("'inputs' must be a list", i)
            for j, rin in enumerate(raw_inputs):
                if type(rin) is not dict or "ref" not in rin or "matrix" not in rin:
                    raise fault("needs 'ref' and 'matrix'", i, j)
                ref, rows = rin["ref"], rin["matrix"]
                if type(ref) is not str:
                    raise fault("'ref' must be a string", i, j)
                # one pass over the rows checks them and flattens the matrix
                if not (type(rows) is list and rows and type(rows[0]) is list):
                    raise fault(_BAD_MATRIX, i, j)
                cols, flat = len(rows[0]), []
                for row in rows:
                    if type(row) is not list or len(row) != cols:
                        raise fault(_BAD_MATRIX, i, j)
                    flat += row
                flat = tuple(flat)
                try:
                    if not _JSON_ENTRY_TYPES.issuperset(map(type, flat)):
                        m = matrix(len(rows), cols, flat)  # refuses an entry
                    elif (m := shared.get(flat)) is None or m.rows != len(rows):
                        m = shared[flat] = matrix(len(rows), cols, flat)
                except ValueError as exc:
                    raise fault(str(exc), i, j) from exc
                inputs.append(CodeInput(ref, m))
            rules[key] = tuple(inputs)
        return rules

    edge_rules = parse_rules(doc["edge_rules"], "edge", decode=False)
    decode_rules = parse_rules(doc["decode_rules"], "decode", decode=True)
    q = doc.get("q")

    if net is not None:
        edge_ids = set(net.edge_map())
        term_ids = {t.id for t in net.terminals()}
        msgs = set(net.messages)
        for eid, inputs in edge_rules.items():
            if eid not in edge_ids:
                raise CodeFormatError(f"rule for unknown edge {eid!r}")
            for inp in inputs:
                if inp.ref.startswith(SRC_PREFIX):
                    if inp.ref[len(SRC_PREFIX) :] not in msgs:
                        raise CodeFormatError(f"rule reads unknown message {inp.ref!r}")
                elif inp.ref not in edge_ids:
                    raise CodeFormatError(f"rule reads unknown edge {inp.ref!r}")
        for tid, inputs in decode_rules.items():
            if tid not in term_ids:
                raise CodeFormatError(f"decode rule for unknown terminal {tid!r}")
            for inp in inputs:
                # a message read is left to the rule check, which names it
                if inp.ref not in edge_ids and not inp.ref.startswith(SRC_PREFIX):
                    raise CodeFormatError(f"decode rule reads unknown edge {inp.ref!r}")

    try:
        if symbolic:
            return SymbolicCode(k, n, q, edge_rules, decode_rules)
        return FractionalCode(k, n, mod, edge_rules, decode_rules, q=q)
    except CodeError as exc:
        raise CodeFormatError(str(exc)) from exc
