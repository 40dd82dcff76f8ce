"""Explicit achievability codes and their lifts to unions and gadgets."""

import hashlib

import pytest

from ncchar import (
    CharacteristicError,
    gadget_transform,
    gadget_transform_traced,
    gen_n1,
    gen_n2,
    instantiate,
    lift_gadget,
    lift_union,
    save,
    save_code,
    solve_n1,
    solve_n2,
    union_copies,
    verify,
)
from ncchar.lincode import SRC_PREFIX
from util_oracles import reverse, transpose_code

PRIMES = (2, 3, 5, 7)


def divides(p, q):
    return q % p == 0


# ---------------------------------------------------------------------------
# base codes
# ---------------------------------------------------------------------------

def test_solve_n1_entries_are_unit_range():
    sym = solve_n1(3, 2)
    for rules in (sym.edge_rules, sym.decode_rules):
        for inputs in rules.values():
            for inp in inputs:
                for coeff, inv in inp.matrix.entries:
                    assert coeff in (-1, 0, 1)
                    assert inv is False


def test_solve_n2_uses_inv_q():
    sym = solve_n2(3, 1)
    flags = set()
    coeffs = set()
    for inputs in sym.edge_rules.values():
        for inp in inputs:
            for coeff, inv in inp.matrix.entries:
                flags.add(inv)
                if inv:
                    coeffs.add(coeff)
    assert True in flags
    # the b-bottleneck rule scales by 1/q and -(q-1)/q
    assert 1 in coeffs
    assert -(3 - 1) in coeffs


def test_solve_shapes_match_parameters():
    for q, n in ((2, 1), (3, 2), (6, 3)):
        for builder in (solve_n1, solve_n2):
            sym = builder(q, n)
            assert (sym.k, sym.n, sym.q) == (1, n, q)


# sha256 of save(gen_*(q, n)) and save_code(solve_*(q, n)), recorded when
# each family's topology was still written out separately in both modules;
# q = 11 reaches the b{i}_{j} message names
FAMILY_DIGESTS = {
    ("n1", 2, 1): (
        "8eeb4d4afb28d462b1e285472a7476b47ede1f0e5053dbbde4829478baec4c58",
        "0112f599977d31a62b6ac10b57b21ebf0eb9d4f64e1d7c14a96c32b3f1ffe2b4",
    ),
    ("n1", 2, 3): (
        "2cb1face572f15d98409e74398bc0f7eb42226624bf8f8a093036b1eeee092fa",
        "faff55a9176aff6db5822b32d56743205ee7b376369246b0c227d06e809602e0",
    ),
    ("n1", 3, 2): (
        "9f06d24ad91f4b6552799d93c3bef40516ba7a603c559ef9bafa87b022cfd3df",
        "05048acda6ea3ed09a00c040a0f301fdc21c62563b53c5372be467e110116b08",
    ),
    ("n1", 5, 3): (
        "edbfa31bdf09b4c645a225760cb192b2a529cd2bafc8d246bbe684198bc54789",
        "823580d76af3b3cf759b8e9efad4426be3ca2ec6b31e86dcab77db2682c1e127",
    ),
    ("n1", 11, 2): (
        "70b7a5d6fa94f50992e959a56c736473643a46c5de1ff2161c26939df35e10ee",
        "336ded2ab778c99195c374c0f26ea5034c1634249ba3b3d8cd3d31252918499e",
    ),
    ("n2", 2, 1): (
        "e89f19426fc82f844d0df976b4920b3a5764133ffb2262a9d664c8c5e89529bb",
        "3e224fab1bd078ae158ad6c2fe75c21dc533b12483996dc54f5ee3f42c36944e",
    ),
    ("n2", 2, 3): (
        "d37938762f2ca239b2b345d5e25edc7720912ec4750b6a6082a75080900a5735",
        "415ca7a7b3ff7b54ec125de737896d27a76cc9237547e1a6fa9fc6bfa8d93a57",
    ),
    ("n2", 3, 2): (
        "aa289f1ca82d449c1a5822d4cd2f6ec44eccdc8d8c4db12e1ee77ed2660ea773",
        "c27698858b5f714b75da1e604c2f76e142f3dc93f87ae3dca7d49abfddcb3e77",
    ),
    ("n2", 5, 3): (
        "f2bebaf5e06897de9fa76bea3c1dbab44fe261a8cdb50147308924452d5c2614",
        "346bfe40980e60a3d8f879b6822a8dabbf007f99b6fa99542fe5a1d8ffc16517",
    ),
    ("n2", 11, 2): (
        "a83e7daeaf27db6c60d1475ab00e9f72fb8c481c4dae5fdaefeff7cf31c3ad67",
        "e43830540c54b357da0514bfd2265c29c5286034ef73cfec8ce1a24ce6fe6ad9",
    ),
}

FAMILIES = {"n1": (gen_n1, solve_n1), "n2": (gen_n2, solve_n2)}


@pytest.mark.parametrize("family, q, n", sorted(FAMILY_DIGESTS))
def test_family_bytes_are_pinned(family, q, n):
    gen, solve = FAMILIES[family]
    got = (
        hashlib.sha256(save(gen(q, n))).hexdigest(),
        hashlib.sha256(save_code(solve(q, n))).hexdigest(),
    )
    assert got == FAMILY_DIGESTS[family, q, n]


# sha256 of save(gadget_transform(gen_*(q, n), n)) and of save_code of
# its lift_gadget code, recorded when each gadget step's edges and rules
# were still written out separately; n1(3, 1)'s second step demotes x4#1,
# the terminal its first step added
GADGET_DIGESTS = {
    ("n1", 2, 1): (
        "dd315ed168de3166ed91d85d7ee0a6af8619381b1fe30d427bda60a542167fed",
        "fb6177d5aaac9909e7fcd5d33e71fa6e42d106fa27a48aec74b9f026d590a864",
    ),
    ("n1", 2, 2): (
        "3986f4ec312314b5bde5ecfa84d41abe2507353d1561a04d39fa57a06ad46f0d",
        "0a4afc78ee36269a8c1ed27a373f9991f9453e799cb63d5d8464c9c4a719c651",
    ),
    ("n1", 3, 1): (
        "6ce156a90b354ed65932570af6bf14b36817d8c27efcf23386f76dc97c471ec7",
        "3d16a9fc39b4a7ae8efd4ecd86822f74ca009f47ba072bcd4bb2d1a8091eaaa4",
    ),
    ("n1", 3, 2): (
        "df19855b0c17dc619e3c3985f4b7f4275028b6015a3e657bb9b75194316b89d4",
        "91122f10ba279009e28b3951007dc9df2f6f4e11348a5adffeb870c97d3b3d1b",
    ),
    ("n1", 4, 3): (
        "cd2ad282d7323e4058de79f77c1a002a71336eb1794e602ac2cb2b2bcd728947",
        "d14f8cf372c65e9991bb262c592b5da28a88c7a2669fcdc88b63d6e8c2ca46c3",
    ),
    ("n2", 2, 1): (
        "679aa9657051b094eea5613cc70288df4ac625f01d4ed6f8c8c3fc496859fe5e",
        "d72c7477a819c89890f9391aaa53a6a23da21e701d433a059533b74339ea3949",
    ),
    ("n2", 2, 2): (
        "feb8e8a25f02c2c263b685379c55999662e31718cb4a88f6e0b7637026a69fe3",
        "2575750bf655f32d610e7c38a2ca9b17d59620a1a98cda259a38727437b8c58d",
    ),
    ("n2", 3, 1): (
        "ad92f3c50bc6e6beed72b660919ad1d2c61f369216c4fd2c7c6bb4cb2d73eb48",
        "2a0b1a9693bff823c2504dfb3431630149b638664991fad000f9a29f3f1369d5",
    ),
    ("n2", 3, 2): (
        "48dd9abbbab19901d561cdbaf013d8f8eb127c73ffa05e03452460cb55667db0",
        "3871bffacb9ee794786d6f8456d81169b76ad27bf0046a1ecc71761f740d2206",
    ),
    ("n2", 4, 3): (
        "a5661c8c524e7aa5293d13a10faa5a29d5add43fd762450d6f99acad6729474b",
        "910556d358bce23ad7d71cdaf0c35167020842d53b5112fc3985f144e59560be",
    ),
}

# sha256 of save_code(lift_union(lift_gadget(solve_n2(2, 2), …), 2))
GADGET_UNION_CODE_DIGEST = "f1e7b021fce1c81142204110ecd79ebf2da78f415ad662b9b8fe64f47ee718a2"


def _gadget_lift(family, q, n):
    gen, solve = FAMILIES[family]
    base = gen(q, n)
    gadgeted = gadget_transform(base, n)
    return gadgeted, lift_gadget(solve(q, n), base, gadgeted)


@pytest.mark.parametrize("family, q, n", sorted(GADGET_DIGESTS))
def test_gadget_bytes_are_pinned(family, q, n):
    gadgeted, sym = _gadget_lift(family, q, n)
    got = (
        hashlib.sha256(save(gadgeted)).hexdigest(),
        hashlib.sha256(save_code(sym)).hexdigest(),
    )
    assert got == GADGET_DIGESTS[family, q, n]


@pytest.mark.parametrize("family, q, n", sorted(GADGET_DIGESTS))
def test_transposed_gadget_code_verifies_on_the_reversed_network(family, q, n):
    # a gadget network is multiple-unicast, so its lifted closed form,
    # transposed, solves the reversed network over exactly the same fields
    gadgeted, sym = _gadget_lift(family, q, n)
    rev, rev_sym = reverse(gadgeted), transpose_code(gadgeted, sym)
    assert reverse(rev) == gadgeted and transpose_code(rev, rev_sym) == sym
    passed = []
    for p in PRIMES:
        sides = []
        for net, code in ((gadgeted, sym), (rev, rev_sym)):
            try:
                sides.append(verify(net, instantiate(code, p)).passed)
            except CharacteristicError:
                sides.append(None)
        assert sides[0] == sides[1], p
        passed.append(sides[0])
    assert True in passed  # the closed form solves N over some prime


def test_lifted_gadget_union_code_is_pinned():
    _, sym = _gadget_lift("n2", 2, 2)
    got = hashlib.sha256(save_code(lift_union(sym, 2))).hexdigest()
    assert got == GADGET_UNION_CODE_DIGEST


# sha256 of save_code(instantiate(sym, p)): the field code instantiate
# writes, for each family code of the FAMILY_DIGESTS grid over a prime it
# verifies at (and n1 over one it fails at), for two union lifts and for
# two gadget lifts
FIELD_CODE_DIGESTS = {
    ("n1", 2, 1, 2): "f8612e966deeb723f4e0ac6f7fc0c07bf6cb51458ab0a7ec752191b4db96c2e5",
    ("n1", 2, 1, 3): "d4062339fdef6826568d05d41558474780e02e30e8725213def64cd40051a347",
    ("n1", 2, 3, 2): "4cd6e4e1cd1c221ff10c17cffc6e91bd8a56ccd5aba9dd566c85ec1945ff3185",
    ("n1", 2, 3, 3): "bee3d2ef45e74ca47ee09458417cbe76ba56d02cef9a5cc3cc51640a9d052660",
    ("n1", 3, 2, 3): "2ca4a398799083c9db216c25e4bd304cb55c293a7be1c7fa2ef5f58ad86a4c58",
    ("n1", 3, 2, 2): "b6a516279e41bc06d6283865581b0a3b833dadda9ced5d99bbb6b3ea3f664cdf",
    ("n1", 5, 3, 5): "9043c68df9018a17b57187a5a15fbfec5fb7725f419e51a2beca569644cc26aa",
    ("n1", 5, 3, 2): "3a5e87628913432962d8730a3d9f3f1427744211209f823b67ac1e81923bfa3e",
    ("n1", 11, 2, 11): "a89a32d1e8ab12301d1e554d09ac4e6aa064111d82cdaf26b0dd90993b497e60",
    ("n1", 11, 2, 2): "e470d7e4e481415c507359c6f253301c3d4108b2a494db69b45fe1bba11701d1",
    ("n2", 2, 1, 3): "b78a244cf6c422e7556fa2c6e28232dd28e034af819b83670e84c64bffc99a23",
    ("n2", 2, 3, 3): "f5dbc8a08f181cc26461e0dfd5ba0653f58cf94adb481646a9fd7a89197dea82",
    ("n2", 3, 2, 2): "ec3a7c177e16ae1fb8665db211bf75ea532db31040935d95246f4ae18251cea6",
    ("n2", 5, 3, 2): "e0a6f3da871ab3c8df92cf9fb4950dd00ab8d3003151189e1d42188dbce8f195",
    ("n2", 11, 2, 2): "a7775c0dd94f9b5884608f2960485a736aa9788043b14425a864a94f338415c2",
}
UNION_FIELD_CODE_DIGESTS = {
    ("n1", 2, 2): "518772279e78f54257dc3c46cea60e1d33a7d781e2f97adaccc7748926121ee2",
    ("n2", 3, 2): "20278a827430b44d51d3d93a8dbcde149c0656ba04a4e200d3042a41f5275657",
}
GADGET_FIELD_CODE_DIGESTS = {
    ("n1", 3, 1, 3): "15d484b3030eff823e4a8feb3ff741190be1a8864115298cc035b622c84fb924",
    ("n2", 2, 2, 3): "43210e519ec5f47942c11758b9f9b0d883bafbb8fa5f2c5795416b092610d518",
}


def _field_digest(sym, p):
    return hashlib.sha256(save_code(instantiate(sym, p))).hexdigest()


@pytest.mark.parametrize("family, q, n, p", sorted(FIELD_CODE_DIGESTS))
def test_instantiated_family_bytes_are_pinned(family, q, n, p):
    _, solve = FAMILIES[family]
    assert _field_digest(solve(q, n), p) == FIELD_CODE_DIGESTS[family, q, n, p]


@pytest.mark.parametrize("family, q, n", sorted(UNION_FIELD_CODE_DIGESTS))
def test_instantiated_union_bytes_are_pinned(family, q, n):
    _, solve = FAMILIES[family]
    got = _field_digest(lift_union(solve(q, n), 3), 2)
    assert got == UNION_FIELD_CODE_DIGESTS[family, q, n]


@pytest.mark.parametrize("family, q, n, p", sorted(GADGET_FIELD_CODE_DIGESTS))
def test_instantiated_gadget_bytes_are_pinned(family, q, n, p):
    _, sym = _gadget_lift(family, q, n)
    assert _field_digest(sym, p) == GADGET_FIELD_CODE_DIGESTS[family, q, n, p]


def test_characteristic_error_text_is_pinned():
    with pytest.raises(CharacteristicError) as exc:
        instantiate(solve_n2(3, 2), 3)
    assert str(exc.value) == "characteristic divides q: no inverse of q=3 in GF(3)"


def _matrices(code):
    return [inp.matrix for rules in (code.edge_rules, code.decode_rules)
            for inputs in rules.values() for inp in inputs]


def test_equal_matrices_are_one_shared_object():
    # instantiate converts each distinct symbolic matrix once per call,
    # and lift_union places each distinct block once
    sym = solve_n1(30, 4)
    values = set(_matrices(sym))
    assert len(values) == 10
    converted = _matrices(instantiate(sym, 3))
    assert len({id(m) for m in converted}) <= len(values)
    lifted = _matrices(lift_union(solve_n1(10, 3), 3))
    assert len(set(lifted)) == 11
    assert len({id(m) for m in lifted}) <= 11
    # sharing is safe because no holder can change a shared matrix
    entries = converted[0].entries
    with pytest.raises(AttributeError):
        converted[0].entries = ()
    assert converted[0].entries == entries and entries


def _code_pairs():
    """(network, symbolic code) for each family on the pinned grid, and
    for their union and gadget lifts."""
    for family, q, n in sorted(FAMILY_DIGESTS):
        gen, solve = FAMILIES[family]
        yield pytest.param(gen(q, n), solve(q, n), id=f"{family}({q},{n})")
    for family in sorted(FAMILIES):
        gen, solve = FAMILIES[family]
        for q, n in ((2, 1), (3, 2)):
            base, sym = gen(q, n), solve(q, n)
            yield pytest.param(union_copies(base, 2), lift_union(sym, 2),
                               id=f"union({family}({q},{n}),2)")
            gadgeted = gadget_transform(base, n)
            yield pytest.param(gadgeted, lift_gadget(sym, base, gadgeted),
                               id=f"gadget({family}({q},{n}))")


@pytest.mark.parametrize("net, sym", _code_pairs())
def test_rules_cover_exactly_the_edges_and_terminals(net, sym):
    # verify ignores rules for edges the network lacks, so only this
    # check ties the rule set to the topology edge for edge
    assert set(sym.edge_rules) == {e.id for e in net.edges}
    assert set(sym.decode_rules) == {t.id for t in net.terminals()}
    # every rule reads exactly what its node receives: a source edge its
    # tail's message, any other edge or a terminal the node's in-edges
    into = {node.id: set() for node in net.nodes}
    for e in net.edges:
        into[e.head].add(e.id)
    node_map = net.node_map()
    for e in net.edges:
        gen = node_map[e.tail].generates
        want = {SRC_PREFIX + gen} if gen is not None else into[e.tail]
        assert {inp.ref for inp in sym.edge_rules[e.id]} == want, e.id
    for tid, inputs in sym.decode_rules.items():
        assert {inp.ref for inp in inputs} == into[tid], tid


def test_solve_parameter_validation():
    for builder in (solve_n1, solve_n2):
        with pytest.raises(ValueError):
            builder(1, 1)
        with pytest.raises(ValueError):
            builder(2, 0)


def test_n1_verifies_when_characteristic_divides_q():
    for q in (2, 3, 6):
        for n in (1, 2, 3):
            for p in PRIMES:
                if not divides(p, q):
                    continue
                net = gen_n1(q, n)
                report = verify(net, instantiate(solve_n1(q, n), p))
                assert report.passed
                assert len(report.terminals) == 2 * q * n


def test_n1_composite_q_verifies_at_each_prime_factor():
    report = verify(gen_n1(6, 1), instantiate(solve_n1(6, 1), 3))
    assert report.passed
    report = verify(gen_n1(6, 1), instantiate(solve_n1(6, 1), 2))
    assert report.passed


def test_n2_verifies_when_characteristic_coprime_to_q():
    for q in (2, 3, 6):
        for n in (1, 2, 3):
            for p in PRIMES:
                if divides(p, q):
                    continue
                net = gen_n2(q, n)
                report = verify(net, instantiate(solve_n2(q, n), p))
                assert report.passed
                assert len(report.terminals) == (q + 2) * n


def test_n1_cross_characteristic_fails_exactly_ta():
    for q, n, p in ((2, 1, 3), (2, 2, 3), (3, 1, 2), (3, 2, 5), (6, 1, 5)):
        report = verify(gen_n1(q, n), instantiate(solve_n1(q, n), p))
        assert not report.passed
        failing = {t.terminal for t in report.failing()}
        assert failing == {f"Ta:a{j}" for j in range(1, n + 1)}
        for t in report.failing():
            # the residue is the q-scaled c-symbol on the same coordinate
            assert t.interferers == (t.demanded.replace("a", "c"),)


def test_n2_instantiation_blocked_at_dividing_characteristic():
    for q, p in ((2, 2), (3, 3), (6, 2), (6, 3)):
        with pytest.raises(CharacteristicError):
            instantiate(solve_n2(q, 1), p)


# ---------------------------------------------------------------------------
# union lifting
# ---------------------------------------------------------------------------

def test_lift_union_identity_at_k_one():
    sym = solve_n1(2, 2)
    assert lift_union(sym, 1) == sym


def test_lift_union_verifies_on_union_network():
    # each copy's edges still carry n symbols; the merged sources emit k
    sym = solve_n1(2, 2)
    for k in (2, 3):
        lifted = lift_union(sym, k)
        assert (lifted.k, lifted.n) == (k, 2)
        net = union_copies(gen_n1(2, 2), k)
        assert verify(net, instantiate(lifted, 2)).passed


def test_lift_union_n2_verifies():
    lifted = lift_union(solve_n2(2, 1), 3)
    net = union_copies(gen_n2(2, 1), 3)
    assert verify(net, instantiate(lifted, 3)).passed


def test_lift_union_preserves_failures_terminal_by_terminal():
    base = gen_n1(2, 1)
    base_fail = {
        t.terminal for t in verify(base, instantiate(solve_n1(2, 1), 3)).failing()
    }
    lifted = lift_union(solve_n1(2, 1), 2)
    net = union_copies(base, 2)
    report = verify(net, instantiate(lifted, 3))
    assert {t.terminal for t in report.failing()} == base_fail


def test_lift_union_rejects_bad_k():
    with pytest.raises(ValueError):
        lift_union(solve_n1(2, 1), 0)


# ---------------------------------------------------------------------------
# gadget lifting
# ---------------------------------------------------------------------------

def test_lift_gadget_identity_when_nothing_to_do():
    # a base with no duplicated demand is its own gadget transform
    base = gen_n1(2, 1)
    gadgeted, _ = gadget_transform_traced(base, 1)
    sym = lift_gadget(solve_n1(2, 1), base, gadgeted)
    assert lift_gadget(sym, gadgeted, gadgeted) == sym


def test_lift_gadget_n1_verifies():
    base = gen_n1(2, 1)
    gadgeted, _ = gadget_transform_traced(base, 1)
    lifted = lift_gadget(solve_n1(2, 1), base, gadgeted)
    assert verify(gadgeted, instantiate(lifted, 2)).passed


def test_lift_gadget_n2_verifies():
    base = gen_n2(2, 1)
    gadgeted, _ = gadget_transform_traced(base, 1)
    lifted = lift_gadget(solve_n2(2, 1), base, gadgeted)
    assert verify(gadgeted, instantiate(lifted, 3)).passed


def test_lift_gadget_multi_application():
    base = gen_n1(3, 1)
    gadgeted, apps = gadget_transform_traced(base, 1)
    assert len(apps) == 2
    lifted = lift_gadget(solve_n1(3, 1), base, gadgeted)
    assert verify(gadgeted, instantiate(lifted, 3)).passed


def test_lift_gadget_wider_blocks():
    base = gen_n1(2, 2)
    gadgeted, _ = gadget_transform_traced(base, 2)
    lifted = lift_gadget(solve_n1(2, 2), base, gadgeted)
    assert verify(gadgeted, instantiate(lifted, 2)).passed
