"""Command-line front end.

Subcommands: gen, solve, verify, search, gadget, union, info.  Standard
output carries reports (or a single JSON document with --json); all
diagnostics go to standard error.

Exit codes: 0 success/verified/solvable, 1 verification failed,
2 proven impossible (inadmissible characteristic or exhausted search),
3 inconclusive search, 64 usage or unparseable input, 70 internal error
(one line on standard error, never a traceback), 141 standard output
closed before everything was written, as by ``| head`` (nothing on
standard error; 128 + SIGPIPE, as a shell reports for a tool that
SIGPIPE ends).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

# Every command reads or writes a network; each cmd_* imports the rest of
# what it runs itself, so a command loads only its own modules.
from .network import (
    ROLE_INTERMEDIATE,
    ROLE_SOURCE,
    ROLE_TERMINAL,
    CodedNetwork,
    NetworkFormatError,
    is_multiple_unicast,
    load,
    save,
    validate,
)

if TYPE_CHECKING:
    from .gf import PrimeModulus
    from .lincode import SymbolicCode

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_IMPOSSIBLE = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 64
EXIT_INTERNAL = 70


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 64."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit_json(doc: object) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise _CliError(EXIT_USAGE, f"cannot read {path}: {exc}") from exc


def _read_network(path: str, check: bool = True) -> CodedNetwork:
    """Load a network file; unless ``check`` is off, reject invalid ones."""
    try:
        net = load(_read_bytes(path))
    except NetworkFormatError as exc:
        raise _CliError(EXIT_USAGE, f"{path}: {exc}") from exc
    report = validate(net) if check else None
    if report and not report.ok:
        detail = report.violations[0].detail
        raise _CliError(EXIT_USAGE, f"{path}: network is invalid: {detail}")
    return net


def _read_code(path: str, net: CodedNetwork | None):
    from .lincode import CodeError, CodeFormatError, load_code

    try:
        return load_code(_read_bytes(path), net)
    except (CodeFormatError, CodeError) as exc:
        raise _CliError(EXIT_USAGE, f"{path}: {exc}") from exc


def _prime(value: int) -> PrimeModulus:
    from .gf import PrimeModulus

    try:
        return PrimeModulus(value)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, f"--p: {exc}") from exc


def _write(data: bytes, out: str) -> None:
    try:
        Path(out).write_bytes(data)
    except OSError as exc:
        raise _CliError(EXIT_USAGE, f"cannot write {out}: {exc}") from exc


def _write_or_print(data: bytes, out: str | None, as_json: bool, summary: dict) -> None:
    """Write canonical bytes to --out (then report), or dump them to stdout."""
    if out is None:
        sys.stdout.write(data.decode("utf-8"))
        return
    _write(data, out)
    if as_json:
        _emit_json({"written": out, **summary})
    else:
        detail = " ".join(f"{k}={v}" for k, v in sorted(summary.items()))
        print(f"wrote {out}" + (f" ({detail})" if detail else ""))


# -- construction names -------------------------------------------------------

_FAMILY_RE = re.compile(r"^n([12])\(q=(\d+),n=(\d+)\)$")


def _min_family_edges(q: int, n: int) -> int:
    """A lower bound on the edges of n1(q, n) and n2(q, n): per slot, each
    has at least q+1 source edges, (q-1)(q-2) of them into other branches."""
    return max((q - 2) ** 2, q + 1) * n


def _construction_from_name(
    name: str, edge_count: int
) -> tuple[CodedNetwork, SymbolicCode, str] | None:
    """Rebuild a generated network and its symbolic solution from its name.

    Understands n1(q=..,n=..), n2(q=..,n=..) and the union(...,k=..) /
    gadget(...,n=..) wrappers those transforms stamp on their results.
    Wrappers are peeled in a loop, not by recursion, then applied inside out.
    Returns (network, symbolic code, base family), or None once a level
    has more than ``edge_count`` edges (a union of k copies has k times),
    and before anything is built if the base family must have more.  A
    gadget whose n is not the family's is refused before anything is built:
    ``lift_gadget`` lifts the family's code only at the family's n.
    """
    from .constructions import gadget_transform, gen_n1, gen_n2, union_copies
    from .solutions import lift_gadget, lift_union, solve_n1, solve_n2

    wrappers: list[tuple[str, int, str]] = []  # (prefix, argument, full name)
    while (m := _FAMILY_RE.match(name)) is None:
        for prefix, param in (("union(", ",k="), ("gadget(", ",n=")):
            if name.startswith(prefix) and name.endswith(")"):
                base_name, sep, arg = name[len(prefix) : -1].rpartition(param)
                if sep and arg.isdecimal():
                    try:
                        wrappers.append((prefix, int(arg), name))
                    except ValueError as exc:  # more digits than int() reads
                        raise _CliError(EXIT_USAGE, f"bad {prefix[:-1]} argument: {exc}") from exc
                    name = base_name
                    break
        else:
            raise _CliError(EXIT_USAGE, f"unrecognized construction name: {name!r}")
    fam = m[1]
    gen, solve = (gen_n1, solve_n1) if fam == "1" else (gen_n2, solve_n2)
    try:
        q, n = int(m[2]), int(m[3])
        if _min_family_edges(q, n) > edge_count:
            return None
        if any(prefix == "gadget(" and value != n for prefix, value, _ in wrappers):
            raise _CliError(
                EXIT_USAGE,
                f"no closed-form code for {wrappers[0][2]!r}: "
                "solve lifts a gadget only at its family's n",
            )
        net, sym = gen(q, n), solve(q, n)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, f"bad construction name {name!r}: {exc}") from exc
    for prefix, value, wrapped in reversed(wrappers):
        if len(net.edges) * (value if prefix == "union(" else 1) > edge_count:
            return None
        try:
            if prefix == "union(":
                net, sym = union_copies(net, value), lift_union(sym, value)
            else:
                gadget = gadget_transform(net, value)
                net, sym = gadget, lift_gadget(sym, net, gadget)
        except ValueError as exc:
            raise _CliError(EXIT_USAGE, f"cannot solve {wrapped!r}: {exc}") from exc
    return (net, sym, "n" + fam) if len(net.edges) <= edge_count else None


# -- subcommands ---------------------------------------------------------------


def cmd_gen(args) -> int:
    from .constructions import gen_fano, gen_n1, gen_n2, gen_nonfano, union_copies

    family = args.family
    if family in ("fano", "nonfano"):
        if args.q is not None or args.n is not None:
            raise _CliError(EXIT_USAGE, f"--family {family} takes no --q/--n")
        net = gen_fano() if family == "fano" else gen_nonfano()
    else:
        q = 2 if args.q is None else args.q
        n = 1 if args.n is None else args.n
        try:
            net = gen_n1(q, n) if family == "n1" else gen_n2(q, n)
        except ValueError as exc:
            raise _CliError(EXIT_USAGE, str(exc)) from exc
    if args.copies < 1:
        raise _CliError(EXIT_USAGE, "--copies must be >= 1")
    if args.copies > 1:
        net = union_copies(net, args.copies)
    _write_or_print(save(net), args.out, args.json, {"name": net.name})
    return EXIT_OK


def cmd_solve(args) -> int:
    from .lincode import CharacteristicError, instantiate, save_code, verify

    net = _read_network(args.network)
    built = _construction_from_name(net.name, len(net.edges))
    if built is None or built[0] != net:
        raise _CliError(
            EXIT_USAGE,
            f"{args.network}: network does not match its construction name {net.name!r}",
        )
    _, sym, family = built
    mod = _prime(args.p)
    if (sym.q % mod.p == 0) != (family == "n1"):
        need, got = "divides", "does not divide"
        if family == "n2":
            need, got = got, need
        print(
            f"{net.name} is unsolvable over GF({mod.p}): it requires that the "
            f"characteristic {need} q, but {mod.p} {got} {sym.q}",
            file=sys.stderr,
        )
        return EXIT_IMPOSSIBLE
    try:
        code = instantiate(sym, mod)
    except CharacteristicError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IMPOSSIBLE
    report = verify(net, code)
    if not report.passed:
        print("constructed code failed verification", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    _write_or_print(
        save_code(code),
        args.out,
        args.json,
        {"name": net.name, "p": mod.p, "rate": f"{code.k}/{code.n}"},
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    from .gf import rank
    from .lincode import CodeError, SymbolicCode, verify

    net = _read_network(args.network)
    code = _read_code(args.code, net)
    if isinstance(code, SymbolicCode):
        raise _CliError(
            EXIT_USAGE,
            f"{args.code}: code is symbolic (no p); instantiate it via solve first",
        )
    try:
        report = verify(net, code)
    except CodeError as exc:
        raise _CliError(EXIT_USAGE, f"{args.code}: {exc}") from exc
    # a passing terminal decodes to the identity, so only failures need rank
    ranks = {
        t.terminal: code.k if t.passed else rank(t.demanded_block)
        for t in report.terminals
    }
    if args.json:
        _emit_json(
            {
                "passed": report.passed,
                "terminals": [
                    {
                        "terminal": t.terminal,
                        "demanded": t.demanded,
                        "passed": t.passed,
                        "rank": ranks[t.terminal],
                        "interferers": list(t.interferers),
                    }
                    for t in report.terminals
                ],
            }
        )
    else:
        width = max((len(t.terminal) for t in report.terminals), default=8)
        for t in report.terminals:
            status = "ok" if t.passed else f"FAIL rank {ranks[t.terminal]}/{code.k}"
            extra = ""
            if t.interferers:
                extra = "  interference: " + ", ".join(t.interferers)
            print(f"{t.terminal:<{width}}  wants {t.demanded:<10} {status}{extra}")
        good = sum(1 for t in report.terminals if t.passed)
        print(f"{good}/{len(report.terminals)} terminals decode")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_search(args) -> int:
    from .lincode import save_code
    from .solver import (
        DEFAULT_BUDGET,
        SOLVABLE,
        UNSOLVABLE,
        SearchConfig,
        search_fractional,
    )

    net = _read_network(args.network)
    mod = _prime(args.p)
    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    if budget < 1:
        raise _CliError(EXIT_USAGE, "--budget must be positive")
    try:
        outcome = search_fractional(
            net, args.k, args.n, mod, SearchConfig(node_budget=budget)
        )
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from exc

    data = written = None
    if outcome.code is not None and (args.out is not None or args.json):
        data = save_code(outcome.code)  # serialized once for --out and --json
    if data is not None and args.out is not None:
        _write(data, args.out)
        written = args.out
    if args.json:
        doc: dict = {"outcome": outcome.status, "states": outcome.states_explored}
        if data is not None:
            doc["code"] = json.loads(data.decode("utf-8"))
        if written:
            doc["written"] = written
        _emit_json(doc)
    else:
        print(f"outcome: {outcome.status}")
        print(f"states explored: {outcome.states_explored}")
        if written:
            print(f"wrote {written}")
    if outcome.status == SOLVABLE:
        return EXIT_OK
    if outcome.status == UNSOLVABLE:
        return EXIT_IMPOSSIBLE
    return EXIT_INCONCLUSIVE


def cmd_gadget(args) -> int:
    from .constructions import gadget_transform_traced

    net = _read_network(args.network)
    try:
        result, applications = gadget_transform_traced(net, args.n)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from exc
    count = len(applications)
    if args.out is None:
        print(f"applications: {count}", file=sys.stderr)
    _write_or_print(
        save(result), args.out, args.json,
        {"name": result.name, "applications": count},
    )
    return EXIT_OK


def cmd_union(args) -> int:
    from .constructions import union_copies

    net = _read_network(args.network)
    try:
        result = union_copies(net, args.copies)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from exc
    _write_or_print(save(result), args.out, args.json, {"name": result.name})
    return EXIT_OK


def cmd_info(args) -> int:
    net = _read_network(args.network, check=False)  # reports violations itself
    report = validate(net)
    unicast = is_multiple_unicast(net)
    roles = {ROLE_SOURCE: 0, ROLE_INTERMEDIATE: 0, ROLE_TERMINAL: 0}
    for node in net.nodes:
        roles[node.role] += 1
    if args.json:
        _emit_json(
            {
                "name": net.name,
                "messages": len(net.messages),
                "nodes": len(net.nodes),
                "sources": roles[ROLE_SOURCE],
                "intermediates": roles[ROLE_INTERMEDIATE],
                "terminals": roles[ROLE_TERMINAL],
                "edges": len(net.edges),
                "valid": report.ok,
                "violations": [
                    {"kind": v.kind, "detail": v.detail} for v in report.violations
                ],
                "multiple_unicast": unicast.ok,
            }
        )
        return EXIT_OK
    print(f"name: {net.name}")
    print(f"messages: {len(net.messages)}")
    print(
        f"nodes: {len(net.nodes)} ({roles[ROLE_SOURCE]} sources, "
        f"{roles[ROLE_INTERMEDIATE]} intermediate, {roles[ROLE_TERMINAL]} terminals)"
    )
    print(f"edges: {len(net.edges)}")
    print(f"valid: {'yes' if report.ok else 'no'}")
    for v in report.violations:
        print(f"  violation [{v.kind}]: {v.detail}")
    print(f"multiple-unicast: {'yes' if unicast.ok else 'no'}")
    return EXIT_OK


# -- wiring --------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="ncchar", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit a single JSON document on stdout"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", parents=[common], help="generate a network file")
    p.add_argument(
        "--family", required=True, choices=["n1", "n2", "fano", "nonfano"]
    )
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--copies", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "solve", parents=[common],
        help="build the closed-form code for a generated network",
    )
    p.add_argument("network")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", parents=[common], help="check a code on a network")
    p.add_argument("network")
    p.add_argument("code")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "search", parents=[common], help="exhaustive solvability search"
    )
    p.add_argument("network")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "gadget", parents=[common],
        help="reduce duplicate demands to multiple-unicast form",
    )
    p.add_argument("network")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gadget)

    p = sub.add_parser(
        "union", parents=[common], help="disjoint union of edge copies"
    )
    p.add_argument("network")
    p.add_argument("--copies", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_union)

    p = sub.add_parser("info", parents=[common], help="summarize a network file")
    p.add_argument("network")
    p.set_defaults(func=cmd_info)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout was closed early, as by `| head`.  Its unwritten output
        # can go nowhere; devnull takes what follows, so the flush at
        # shutdown cannot raise again
        sys.stdout = open(os.devnull, "w")
        return 141  # 128 + SIGPIPE: what a shell reports for a tool SIGPIPE ends
    except _CliError as exc:
        print(exc.message, file=sys.stderr)
        return exc.code
    except Exception as exc:  # a bug: report it in one line, keep 1 for "failed"
        print(f"ncchar: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_entry()
