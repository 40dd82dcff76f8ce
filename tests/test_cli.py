"""Command-line interface: exit codes, file outputs, JSON mode."""

import io
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ncchar
from ncchar import (
    CodedNetwork,
    FractionalCode,
    gadget_transform,
    gen_fano,
    gen_n1,
    gen_n2,
    instantiate,
    load,
    load_code,
    save,
    save_code,
    solve_n1,
    union_copies,
    verify,
)
from ncchar import cli, constructions, solutions
from ncchar.cli import main
from ncchar.gf import rank
from util_oracles import copy_clash, gadget_edge_clash, off_unicast


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_writes_canonical_network(tmp_path, capsys):
    out = tmp_path / "net.json"
    code, _, _ = run(capsys, "gen", "--family", "n1", "--q", "2", "--n", "1", "--out", str(out))
    assert code == 0
    assert load(out.read_bytes()) == gen_n1(2, 1)
    first = out.read_bytes()
    code, _, _ = run(capsys, "gen", "--family", "n1", "--q", "2", "--n", "1", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == first


def test_gen_fano_is_n1_alias(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "gen", "--family", "fano", "--out", str(a))
    run(capsys, "gen", "--family", "n1", "--q", "2", "--n", "1", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_stdout_when_no_out_path(capsys):
    code, out, _ = run(capsys, "gen", "--family", "nonfano")
    assert code == 0
    assert load(out.encode()) == load(save(load(out.encode())) )


def test_gen_copies_applies_union(tmp_path, capsys):
    out = tmp_path / "u.json"
    code, _, _ = run(
        capsys, "gen", "--family", "n1", "--q", "2", "--n", "2", "--copies", "2",
        "--out", str(out),
    )
    assert code == 0
    assert load(out.read_bytes()) == union_copies(gen_n1(2, 2), 2)


def test_gen_rejects_alias_with_parameters(capsys):
    code, _, err = run(capsys, "gen", "--family", "fano", "--q", "2")
    assert code == 64
    assert err


def test_gen_rejects_unknown_family(capsys):
    code, _, _ = run(capsys, "gen", "--family", "n3")
    assert code == 64


def test_gen_rejects_bad_parameters(capsys):
    code, _, _ = run(capsys, "gen", "--family", "n1", "--q", "1", "--n", "1")
    assert code == 64


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def write_net(tmp_path, net, name="net.json"):
    path = tmp_path / name
    path.write_bytes(save(net))
    return path


def test_solve_writes_verifying_code(tmp_path, capsys):
    net_path = write_net(tmp_path, gen_n1(2, 2))
    out = tmp_path / "code.json"
    code, _, _ = run(capsys, "solve", str(net_path), "--p", "2", "--out", str(out))
    assert code == 0
    loaded = load_code(out.read_bytes())
    assert verify(gen_n1(2, 2), loaded).passed


def test_solve_union_and_gadget_names(tmp_path, capsys):
    net_path = write_net(tmp_path, union_copies(gen_n1(2, 1), 2))
    out = tmp_path / "code.json"
    code, _, _ = run(capsys, "solve", str(net_path), "--p", "2", "--out", str(out))
    assert code == 0
    loaded = load_code(out.read_bytes())
    assert loaded.k == 2
    assert verify(union_copies(gen_n1(2, 1), 2), loaded).passed


def test_solve_inadmissible_characteristic_n1(tmp_path, capsys):
    net_path = write_net(tmp_path, gen_n1(2, 1))
    code, _, err = run(capsys, "solve", str(net_path), "--p", "3")
    assert code == 2
    assert "characteristic divides q" in err


def test_solve_inadmissible_characteristic_n2(tmp_path, capsys):
    from ncchar import gen_n2

    net_path = write_net(tmp_path, gen_n2(2, 1))
    code, _, err = run(capsys, "solve", str(net_path), "--p", "2")
    assert code == 2
    assert "does not divide" in err


def test_solve_composite_q_picks_any_dividing_prime(tmp_path, capsys):
    net_path = write_net(tmp_path, gen_n1(6, 1))
    out = tmp_path / "c.json"
    for p in ("2", "3"):
        code, _, _ = run(capsys, "solve", str(net_path), "--p", p, "--out", str(out))
        assert code == 0
    code, _, _ = run(capsys, "solve", str(net_path), "--p", "5")
    assert code == 2


def test_solve_unknown_family_name(tmp_path, capsys):
    net = gen_n1(2, 1)
    renamed = type(net)("mystery", net.messages, net.nodes, net.edges)
    net_path = write_net(tmp_path, renamed)
    code, _, _ = run(capsys, "solve", str(net_path), "--p", "2")
    assert code == 64


def test_solve_malformed_construction_names_exit_64(tmp_path, capsys):
    net = gen_n1(2, 1)
    depth = 3000  # used to overflow the stack: exit 70, RecursionError
    cases = [
        ("union(" * depth + net.name + ",k=1)" * depth, "does not match"),
        # a superscript two passes str.isdigit but not int()
        ("union(n1(q=2,n=1),k=\u00b2)", "unrecognized construction name"),
        # more digits than int() reads: used to exit 70
        ("union(n1(q=2,n=1),k=" + "9" * 5000 + ")", "bad union argument"),
        ("gadget(n1(q=2,n=1),n=" + "9" * 5000 + ")", "bad gadget argument"),
    ]
    for name, message in cases:
        renamed = type(net)(name, net.messages, net.nodes, net.edges)
        net_path = write_net(tmp_path, renamed)
        code, out, err = run(capsys, "solve", str(net_path), "--p", "2")
        assert code == 64
        assert message in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1 and out == ""


def test_solve_refuses_a_name_larger_than_its_file(tmp_path, capsys, monkeypatch):
    # each name is refused before the builders it would need run: a union of
    # k copies has k * |E| edges, n1(q, n) has at least max((q-2)**2, q+1) * n,
    # and a gadget's n must be the base family's
    built = []
    for module, names in ((constructions, ("gen_n1", "union_copies", "gadget_transform")),
                          (solutions, ("solve_n1",))):
        for f in names:
            real = getattr(module, f)
            monkeypatch.setattr(module, f, lambda *a, f=f, real=real: built.append(f) or real(*a))
    net = gen_n1(2, 1)
    mismatch = "does not match its construction name"
    cases = {
        "union(n1(q=2,n=1),k=400)": (["gen_n1", "solve_n1"], mismatch),
        "gadget(n1(q=2,n=1),n=1)": (
            ["gen_n1", "solve_n1", "gadget_transform"], mismatch
        ),
        "n1(q=300,n=1)": ([], mismatch),
        "gadget(n1(q=2,n=1),n=60000)": (
            [],
            "no closed-form code for 'gadget(n1(q=2,n=1),n=60000)': "
            "solve lifts a gadget only at its family's n",
        ),
    }
    for name, (builders, message) in cases.items():
        renamed = type(net)(name, net.messages, net.nodes, net.edges)
        net_path = write_net(tmp_path, renamed)
        built.clear()
        code, out, err = run(capsys, "solve", str(net_path), "--p", "2")
        assert code == 64 and out == ""
        assert message in err
        assert len(err.strip().splitlines()) == 1
        assert built == builders, name


def test_solve_of_a_gadget_at_another_n_says_why(tmp_path, capsys):
    # the file is exactly the construction its name says, but solve's closed
    # form lifts a gadget only at the family's n
    base = write_net(tmp_path, gen_n1(2, 1), "n1.json")
    out = tmp_path / "g.json"
    code, _, _ = run(capsys, "gadget", str(base), "--n", "2", "--out", str(out))
    assert code == 0
    net = load(out.read_bytes())
    assert net == gadget_transform(gen_n1(2, 1), 2)
    assert net.name == "gadget(n1(q=2,n=1),n=2)"
    code, stdout, err = run(capsys, "solve", str(out), "--p", "2")
    assert code == 64 and stdout == ""
    assert err.strip() == (
        "no closed-form code for 'gadget(n1(q=2,n=1),n=2)': "
        "solve lifts a gadget only at its family's n"
    )


def test_family_edge_bound_is_a_lower_bound():
    for q in range(2, 14):
        for n in range(1, 4):
            bound = cli._min_family_edges(q, n)
            assert bound <= len(gen_n1(q, n).edges)
            assert bound <= len(gen_n2(q, n).edges)


def test_solve_tampered_network_rejected(tmp_path, capsys):
    # name says n1(q=2,n=1) but an edge was removed
    net = gen_n1(2, 1)
    tampered = type(net)(net.name, net.messages, net.nodes, net.edges[:-1])
    net_path = write_net(tmp_path, tampered)
    code, _, _ = run(capsys, "solve", str(net_path), "--p", "2")
    assert code == 64


def test_solve_non_prime_p(tmp_path, capsys):
    net_path = write_net(tmp_path, gen_n1(2, 1))
    code, _, _ = run(capsys, "solve", str(net_path), "--p", "4")
    assert code == 64


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_pass_and_fail(tmp_path, capsys):
    net = gen_n1(2, 2)
    net_path = write_net(tmp_path, net)
    good = tmp_path / "good.json"
    good.write_bytes(save_code(instantiate(solve_n1(2, 2), 2)))
    bad = tmp_path / "bad.json"
    bad.write_bytes(save_code(instantiate(solve_n1(2, 2), 3)))

    code, out, _ = run(capsys, "verify", str(net_path), str(good))
    assert code == 0
    assert "8/8 terminals decode" in out

    code, out, _ = run(capsys, "verify", str(net_path), str(bad))
    assert code == 1
    assert "FAIL" in out
    assert "interference: c1" in out
    assert "Ta:a1" in out and "Ta:a2" in out
    assert "6/8 terminals decode" in out
    fail_lines = [line for line in out.splitlines() if "FAIL" in line]
    assert len(fail_lines) == 2
    assert all("FAIL rank 1/1" in line for line in fail_lines)

    # without its decode rule Ta:a1 sees nothing: rank 0, no interferers
    blind_code = instantiate(solve_n1(2, 2), 2)
    blind_code = FractionalCode(
        blind_code.k, blind_code.n, blind_code.modulus, blind_code.edge_rules,
        {t: r for t, r in blind_code.decode_rules.items() if t != "Ta:a1"},
    )
    blind = tmp_path / "blind.json"
    blind.write_bytes(save_code(blind_code))
    code, out, _ = run(capsys, "verify", str(net_path), str(blind))
    assert code == 1
    (line,) = [line for line in out.splitlines() if "FAIL" in line]
    assert line.startswith("Ta:a1") and line.endswith("FAIL rank 0/1")


def test_verify_json_report(tmp_path, capsys):
    net = gen_n1(2, 1)
    net_path = write_net(tmp_path, net)
    bad = tmp_path / "bad.json"
    bad.write_bytes(save_code(instantiate(solve_n1(2, 1), 3)))
    code, out, _ = run(capsys, "verify", "--json", str(net_path), str(bad))
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    failing = [t["terminal"] for t in doc["terminals"] if not t["passed"]]
    assert failing == ["Ta:a1"]
    ranks = {t["terminal"]: t["rank"] for t in doc["terminals"]}
    assert set(ranks) == {t.id for t in net.terminals()}
    report = verify(net, instantiate(solve_n1(2, 1), 3))
    assert ranks == {
        t.terminal: rank(t.demanded_block) for t in report.terminals
    }
    assert ranks["Ta:a1"] == 1


def test_internal_error_exits_70_without_traceback(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_info", broken)
    net_path = write_net(tmp_path, gen_n1(2, 1))
    code, out, err = run(capsys, "info", str(net_path))
    assert code == 70
    assert out == ""
    assert err == "ncchar: internal error: RuntimeError: boom\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("breaks", ["write", "flush"])
def test_closed_stdout_exits_141_silently(tmp_path, capsys, monkeypatch, breaks):
    # a reader that has gone (`ncchar info … | head -1`) is not a bug: the
    # pipe may break on a write, or only when the output is flushed
    class ClosedPipe(io.StringIO):
        def broken(self, *args):
            raise BrokenPipeError(32, "Broken pipe")

    setattr(ClosedPipe, breaks, ClosedPipe.broken)
    net_path = write_net(tmp_path, union_copies(gen_n1(2, 2), 3))
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["info", str(net_path)])
    try:
        assert code == 141
        # what is written later goes nowhere instead of raising again
        assert sys.stdout.name == os.devnull
        print("more")
        sys.stdout.flush()
    finally:
        sys.stdout.close()
    assert capsys.readouterr().err == ""


def test_verify_truncated_code_file(tmp_path, capsys):
    net_path = write_net(tmp_path, gen_n1(2, 1))
    truncated = tmp_path / "trunc.json"
    data = save_code(instantiate(solve_n1(2, 1), 2))
    truncated.write_bytes(data[: len(data) // 2])
    code, _, err = run(capsys, "verify", str(net_path), str(truncated))
    assert code == 64
    assert err


def test_verify_symbolic_code_rejected(tmp_path, capsys):
    net_path = write_net(tmp_path, gen_n1(2, 1))
    sym_path = tmp_path / "sym.json"
    sym_path.write_bytes(save_code(solve_n1(2, 1)))
    code, _, _ = run(capsys, "verify", str(net_path), str(sym_path))
    assert code == 64


def test_verify_missing_file(tmp_path, capsys):
    net_path = write_net(tmp_path, gen_n1(2, 1))
    code, _, _ = run(capsys, "verify", str(net_path), str(tmp_path / "nope.json"))
    assert code == 64


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_solvable_writes_witness(tmp_path, capsys):
    net_path = write_net(tmp_path, gen_n1(2, 1))
    out = tmp_path / "witness.json"
    code, _, _ = run(capsys, "search", str(net_path), "--p", "2", "--out", str(out))
    assert code == 0
    witness = load_code(out.read_bytes())
    assert verify(gen_n1(2, 1), witness).passed


def test_search_json_carries_the_witness_it_writes(tmp_path, capsys):
    net_path = write_net(tmp_path, gen_n1(2, 1))
    out = tmp_path / "witness.json"
    code, stdout, _ = run(
        capsys, "search", "--json", str(net_path), "--p", "2", "--out", str(out)
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["outcome"] == "solvable"
    assert doc["code"] == json.loads(out.read_bytes())
    assert doc["written"] == str(out)


def test_search_unsolvable_exit_code(tmp_path, capsys):
    net_path = write_net(tmp_path, gen_n1(2, 1))
    code, out, _ = run(capsys, "search", "--json", str(net_path), "--p", "3")
    assert code == 2
    doc = json.loads(out)
    assert doc["outcome"] == "unsolvable"
    assert doc["states"] > 0


def test_search_budget_inconclusive(tmp_path, capsys):
    net_path = write_net(tmp_path, gen_n1(2, 1))
    code, out, _ = run(
        capsys, "search", "--json", str(net_path), "--p", "3", "--budget", "10"
    )
    assert code == 3
    assert json.loads(out)["outcome"] == "inconclusive"


def test_search_fractional_flags(tmp_path, capsys):
    net_path = write_net(tmp_path, gen_n1(2, 2))
    out = tmp_path / "w.json"
    code, _, _ = run(
        capsys, "search", str(net_path), "--p", "2", "--k", "1", "--n", "2",
        "--out", str(out),
    )
    assert code == 0
    witness = load_code(out.read_bytes())
    assert (witness.k, witness.n) == (1, 2)
    assert verify(gen_n1(2, 2), witness).passed


def test_search_bad_workers(tmp_path, capsys):
    # search runs in one process; --workers is an unknown flag like any other
    net_path = write_net(tmp_path, gen_n1(2, 1))
    code, _, err = run(capsys, "search", str(net_path), "--p", "2", "--workers", "2")
    assert code == 64
    assert "unrecognized arguments" in err


def test_search_bad_rate(tmp_path, capsys):
    net_path = write_net(tmp_path, gen_n1(2, 1))
    for flag in ("--k", "--n"):
        code, _, _ = run(capsys, "search", str(net_path), "--p", "2", flag, "0")
        assert code == 64, flag


# ---------------------------------------------------------------------------
# gadget / union / info
# ---------------------------------------------------------------------------

def test_gadget_command(tmp_path, capsys):
    from ncchar import gadget_transform, is_multiple_unicast

    net_path = write_net(tmp_path, gen_n1(2, 1))
    out = tmp_path / "g.json"
    code, stdout, _ = run(capsys, "gadget", str(net_path), "--n", "1", "--out", str(out))
    assert code == 0
    result = load(out.read_bytes())
    assert is_multiple_unicast(result).ok
    assert result == gadget_transform(gen_n1(2, 1), 1)
    assert "applications=1" in stdout


def test_gadget_on_unicast_net_is_unchanged(tmp_path, capsys):
    from ncchar import gadget_transform

    uni = gadget_transform(gen_n1(2, 1), 1)
    net_path = write_net(tmp_path, uni)
    out = tmp_path / "g2.json"
    code, stdout, _ = run(capsys, "gadget", str(net_path), "--n", "1", "--out", str(out))
    assert code == 0
    assert load(out.read_bytes()) == uni
    assert "applications=0" in stdout


def test_gadget_application_count_scales(tmp_path, capsys):
    net_path = write_net(tmp_path, gen_n1(3, 1))
    out_path = tmp_path / "g3.json"
    code, out, _ = run(
        capsys, "gadget", "--json", str(net_path), "--n", "1", "--out", str(out_path)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["applications"] == 2
    # without --out the file goes to stdout and the count to stderr
    code, out, err = run(capsys, "gadget", str(net_path), "--n", "1")
    assert code == 0
    assert "applications: 2" in err
    assert load(out.encode()) == load(out_path.read_bytes())


def test_gadget_preconditions_exit_64(tmp_path, capsys):
    cases = [
        (off_unicast(2, "x"), "message 'x' generated by 2 sources"),
        (off_unicast(1, "y"), "message 'x' is demanded by no terminal"),
    ]
    for net, message in cases:
        net_path = write_net(tmp_path, net)
        code, out, err = run(capsys, "gadget", str(net_path), "--n", "1")
        assert code == 64
        assert err == message + "\n" and out == ""


def test_union_command(tmp_path, capsys):
    net_path = write_net(tmp_path, gen_n1(2, 1))
    out = tmp_path / "u.json"
    code, _, _ = run(capsys, "union", str(net_path), "--copies", "2", "--out", str(out))
    assert code == 0
    assert load(out.read_bytes()) == union_copies(gen_n1(2, 1), 2)


def test_info_command(tmp_path, capsys):
    net_path = write_net(tmp_path, gen_n1(2, 1))
    code, out, _ = run(capsys, "info", "--json", str(net_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["sources"] == 3
    assert doc["terminals"] == 4
    assert doc["edges"] == 32
    assert doc["multiple_unicast"] is False


def test_info_human_output(tmp_path, capsys):
    net_path = write_net(tmp_path, gen_n1(2, 1))
    code, out, _ = run(capsys, "info", str(net_path))
    assert code == 0
    assert "n1(q=2,n=1)" in out


# ---------------------------------------------------------------------------
# usage errors and the installed entry point
# ---------------------------------------------------------------------------

def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 64


def test_missing_required_argument(capsys):
    assert run(capsys, "solve")[0] == 64


def test_broken_network_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "info", str(bad))[0] == 64


def test_malformed_inputs_exit_64_without_traceback(tmp_path, capsys):
    doc = json.loads(save(gen_n1(2, 1)))
    code_path = tmp_path / "code.json"
    code_path.write_bytes(save_code(instantiate(solve_n1(2, 1), 2)))

    nodes_int = tmp_path / "nodes_int.json"
    nodes_int.write_text(json.dumps({**doc, "nodes": 5}))
    dangling = tmp_path / "dangling.json"
    edges = [dict(e) for e in doc["edges"]]
    edges[0]["to"] = "nowhere"
    dangling.write_text(json.dumps({**doc, "edges": edges}))
    no_rule = tmp_path / "no_rule.json"
    code_doc = json.loads(code_path.read_bytes())
    code_doc["edge_rules"] = [
        r for r in code_doc["edge_rules"] if r["edge"] != "a1->u1"
    ]
    no_rule.write_text(json.dumps(code_doc))
    # JSON true is a Python bool; a symbolic "q": null used to exit 70
    k_true = tmp_path / "k_true.json"
    k_true.write_text(json.dumps({**json.loads(code_path.read_bytes()), "k": True}))
    q_null = tmp_path / "q_null.json"
    q_null.write_text(json.dumps({**json.loads(save_code(solve_n1(2, 1))), "q": None}))
    # nesting past the recursion limit used to exit 70 (RecursionError)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    # a symbolic decode rule may not read a message; against the network
    # the error says so rather than calling the message an unknown edge
    src_decode = tmp_path / "src_decode.json"
    sym_doc = json.loads(save_code(solve_n1(2, 1)))
    sym_doc["decode_rules"][0]["inputs"][0]["ref"] = "src:a1"
    src_decode.write_text(json.dumps(sym_doc))
    net_path = write_net(tmp_path, gen_n1(2, 1))
    # the union's copy v#1 of intermediate v used to merge into terminal v#1
    clash = write_net(tmp_path, copy_clash(), "clash.json")
    # these two used to exit 0 and write a network that info or solve
    # refused: an input edge named like one the gadget adds, and a union of
    # a gadget network, whose source->terminal edge x1->x4 would be copied
    # into parallel edges
    edge_clash = write_net(tmp_path, gadget_edge_clash(), "edge_clash.json")
    gadgeted = write_net(tmp_path, gadget_transform(gen_n2(2, 2), 2), "g.json")
    unwritten = tmp_path / "unwritten.json"
    # valid networks under construction names that cannot be built: a
    # family parameter out of range, and a union of a gadget network
    def renamed(net, name):
        return CodedNetwork(name, net.messages, net.nodes, net.edges)

    bad_q = write_net(tmp_path, renamed(gen_fano(), "n1(q=1,n=1)"), "q1.json")
    union_name = "union(gadget(n2(q=2,n=2),n=2),k=2)"
    unbuildable = write_net(tmp_path, renamed(gen_n1(6, 2), union_name), "u.json")
    # a lone surrogate escape: saving such an id would not read it back
    surrogate_net = tmp_path / "surrogate_net.json"
    surrogate_net.write_text(json.dumps(doc).replace('"a1"', '"a\\ud800"'))
    surrogate_code = tmp_path / "surrogate_code.json"
    surrogate_code.write_text(code_path.read_text().replace('"Ta:a1"', '"\\uDFFF"'))

    cases = [
        (("info", str(nodes_int)), "field 'nodes' must be a list"),
        (("union", str(clash), "--copies", "2"), "fresh node name 'v#1' already in use"),
        (
            ("gadget", str(edge_clash), "--n", "1", "--out", str(unwritten)),
            "fresh edge name 'x1#1->x4#1' already in use",
        ),
        (
            ("union", str(gadgeted), "--copies", "2", "--out", str(unwritten)),
            "edge 'x1#1->x4#1' joins two shared nodes",
        ),
        (("info", str(deep)), "JSON nested too deeply"),
        (("verify", str(net_path), str(deep)), "JSON nested too deeply"),
        (
            ("verify", str(net_path), str(src_decode)),
            "decode rule for 'Ta:a1' may not read source messages directly ('src:a1')",
        ),
        (("verify", str(dangling), str(code_path)), "unknown node 'nowhere'"),
        (("verify", str(net_path), str(no_rule)), "no rule for edge 'a1->u1'"),
        (("verify", str(net_path), str(k_true)), "k and n must be positive"),
        (("verify", str(net_path), str(q_null)), "q must be a positive integer"),
        (("info", str(surrogate_net)), "holds a surrogate code point"),
        (("gen", "--family", "n1", "--copies", "0"), "--copies must be >= 1"),
        (("search", str(net_path), "--p", "2", "--budget", "0"), "--budget must be positive"),
        (("solve", str(bad_q), "--p", "2"), "bad construction name 'n1(q=1,n=1)'"),
        (("solve", str(unbuildable), "--p", "2"), f"cannot solve {union_name!r}"),
        (("verify", str(net_path), str(surrogate_code)), "holds a surrogate code point"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert code == 64, argv
        assert message in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert out == ""
    assert not unwritten.exists()


def test_non_utf8_files_exit_64_without_traceback(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"name": "\xff"}')
    net_path = write_net(tmp_path, gen_n1(2, 1))
    for argv in (("info", str(bad)), ("verify", str(net_path), str(bad))):
        code, out, err = run(capsys, *argv)
        assert code == 64, argv
        assert "not UTF-8" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1 and out == ""


def test_unwritable_out_exits_64_without_traceback(tmp_path, capsys):
    net_path = write_net(tmp_path, gen_n1(2, 1))
    missing = tmp_path / "missing" / "out.json"
    for argv in (
        ("search", str(net_path), "--p", "2", "--out", str(missing)),
        ("gadget", str(net_path), "--n", "1", "--out", str(missing)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 64, argv
        assert err.startswith(f"cannot write {missing}: ") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1 and out == ""


def test_search_rejects_non_list_nodes_and_edges(tmp_path, capsys):
    doc = json.loads(save(gen_n1(2, 1)))
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({**doc, "nodes": {}, "edges": {}}))
    code, out, err = run(capsys, "search", str(empty), "--p", "2")
    assert code == 64
    assert "must be a list" in err and out == ""


def test_info_still_reports_an_invalid_network(tmp_path, capsys):
    doc = json.loads(save(gen_n1(2, 1)))
    doc["edges"][0]["to"] = "nowhere"
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "info", str(path))
    assert code == 0
    assert "valid: no" in out and "dangling-node-ref" in out


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ncchar.cli", "gen", "--family", "fano"],
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert load(proc.stdout) == gen_n1(2, 1)


# ---------------------------------------------------------------------------
# lazy imports: a command loads only the modules it runs
# ---------------------------------------------------------------------------

COMMAND_MODULES = {
    "gen": {"network", "constructions"},
    "gadget": {"network", "constructions"},
    "union": {"network", "constructions"},
    "info": {"network"},
    "verify": {"network", "gf", "lincode"},
    "search": {"network", "gf", "lincode", "solver"},
    "solve": {"network", "gf", "lincode", "constructions", "solutions"},
}


def fresh_python(tmp_path, script):
    """Run ``script`` in a new interpreter that imports this ncchar; the
    last line it prints is returned, parsed as JSON."""
    src = str(Path(ncchar.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
        timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.splitlines()[-1])


def test_each_command_imports_only_its_modules(tmp_path):
    write_net(tmp_path, gen_n1(2, 1), "n1.json")
    (tmp_path / "c.json").write_bytes(save_code(instantiate(solve_n1(2, 1), 2)))
    argvs = {
        "gen": ["gen", "--family", "fano", "--out", "g.json"],
        "gadget": ["gadget", "n1.json", "--n", "1", "--out", "d.json"],
        "union": ["union", "n1.json", "--copies", "2", "--out", "u.json"],
        "info": ["info", "n1.json"],
        "verify": ["verify", "n1.json", "c.json"],
        "search": ["search", "n1.json", "--p", "2"],
        "solve": ["solve", "n1.json", "--p", "2", "--out", "s.json"],
    }
    assert set(argvs) == set(COMMAND_MODULES) == set(cli._build_parser()._actions[-1].choices)
    # what ncchar itself loads, beyond what the interpreter had at start-up
    added = "sorted(m for m in sys.modules if m not in before)"
    for command, argv in argvs.items():
        exit_code, loaded = fresh_python(tmp_path, (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "from ncchar.cli import main\n"
            f"code = main({argv!r})\n"
            "print()\n"
            f"print(json.dumps([code, {added}]))\n"
        ))
        assert exit_code == 0, command
        ours = {m for m in loaded if m.startswith("ncchar.")}
        assert ours == {f"ncchar.{m}" for m in COMMAND_MODULES[command] | {"cli"}}, command
        # the value classes are plain classes with constructors compiled from
        # their fields: no command pays for dataclasses or inspect
        assert not {"dataclasses", "inspect"} & set(loaded), command
    submodules = [m.name for m in pkgutil.iter_modules(ncchar.__path__)]
    loaded = fresh_python(tmp_path, (
        "import importlib, json, sys\n"
        "before = set(sys.modules)\n"
        f"for name in {submodules!r}:\n"
        "    importlib.import_module('ncchar.' + name)\n"
        f"print(json.dumps({added}))\n"
    ))
    assert {f"ncchar.{m}" for m in submodules} <= set(loaded)
    assert not {"dataclasses", "inspect"} & set(loaded)


def test_import_ncchar_is_lazy_and_every_name_resolves(tmp_path):
    submodules = sorted(m.name for m in pkgutil.iter_modules(ncchar.__path__))
    assert "cli" in submodules and "solver" in submodules
    loaded, resolved = fresh_python(tmp_path, (
        "import importlib, json, sys\n"
        "def fresh():\n"
        "    for m in [m for m in sys.modules if m.split('.')[0] == 'ncchar']:\n"
        "        del sys.modules[m]\n"
        "    return importlib.import_module('ncchar')\n"
        "nc = fresh()\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('ncchar.'))\n"
        "resolved = {}\n"
        f"for name in [*nc.__all__, *{submodules!r}]:\n"
        "    value = getattr(fresh(), name)\n"
        "    resolved[name] = getattr(value, '__name__', None) or repr(value)\n"
        "print(json.dumps([loaded, resolved]))\n"
    ))
    assert loaded == []
    assert set(resolved) == {*ncchar.__all__, *submodules}
    for name in submodules:
        assert resolved[name] == f"ncchar.{name}"
    for name in ncchar.__all__:
        value = getattr(ncchar, name)
        assert resolved[name] == (getattr(value, "__name__", None) or repr(value)), name
    assert not hasattr(ncchar, "no_such_name")
