"""Exhaustive canonical search: certificates, witnesses, budgets."""

import hashlib
import random

import pytest

from ncchar import (
    CodedNetwork,
    NetEdge,
    NetNode,
    SearchConfig,
    decodable,
    gen_fano,
    gen_n1,
    gen_n2,
    gen_nonfano,
    gadget_transform,
    save_code,
    union_copies,
    search_fractional,
    search_scalar,
    verify,
)
from ncchar import solver
from ncchar.solver import (
    INCONCLUSIVE,
    SOLVABLE,
    UNSOLVABLE,
    _Algebra,
    _Engine,
    _echelon,
)
from util_oracles import (
    brute_force_fractional,
    brute_force_scalar,
    fractional_slots,
    random_network,
    rank_mod_p,
)


def tiny_unicast():
    return CodedNetwork(
        "tiny",
        ("a1",),
        (
            NetNode("s1", "source", generates="a1"),
            NetNode("t1", "terminal", demands="a1"),
        ),
        (NetEdge("s1->t1", "s1", "t1"),),
    )


# ---------------------------------------------------------------------------
# decodable
# ---------------------------------------------------------------------------

def test_decodable_unit_vector():
    assert decodable([(0, 1, 0)], 1, 2)


def test_decodable_mixed_alone_fails():
    # a single vector carrying b+z cannot isolate b
    assert not decodable([(1, 1)], 0, 2)


def test_decodable_subtraction():
    assert decodable([(1, 1), (0, 1)], 0, 2)
    assert decodable([(1, 1), (0, 1)], 1, 2)


def test_decodable_accepts_message_names():
    msgs = ["a1", "b1", "z1"]
    assert decodable([(1, 0, 1), (0, 0, 1)], "a1", 3, messages=msgs)
    assert not decodable([(1, 0, 1)], "a1", 3, messages=msgs)
    with pytest.raises(ValueError):
        decodable([(1, 0, 0)], "nope", 3, messages=msgs)


def test_decodable_scaling_is_free():
    # 2*(b) over GF(3) still decodes b
    assert decodable([(0, 2)], 1, 3)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_decoding_tests_agree_with_rank_oracle(p, k):
    """``_Algebra.contains`` and ``decodable`` against ``rank_mod_p``,
    which shares no elimination code with the library: unit vectors lie
    in a span iff adding them leaves its rank unchanged."""
    rng = random.Random(100 * p + k)
    m = 3
    width = m * k
    alg = _Algebra(m, k, width, p)
    units = [[1 if c == i else 0 for c in range(width)] for i in range(width)]

    def in_span(rows, extra):
        return rank_mod_p(rows + extra, p) == rank_mod_p(rows, p)

    partial = 0
    for _ in range(300):
        # sparse rows, so that a span often holds some unit vectors only
        rows = [
            [rng.randrange(p) if rng.random() < 0.4 else 0 for _ in range(width)]
            for _ in range(rng.randint(0, width))
        ]
        sid = alg.intern(_echelon([tuple(r) for r in rows], p))
        for t in range(m):
            block = units[t * k : (t + 1) * k]
            assert alg.contains(sid, alg.unit_ids[t]) == in_span(rows, block), (rows, t)
            hits = sum(in_span(rows, [u]) for u in block)
            partial += 0 < hits < k
        for c in range(width):
            assert decodable(rows, c, p) == in_span(rows, [units[c]]), (rows, c)
    # with k = 2, blocks only half inside the span must have come up
    assert partial > 0 or k == 1


# ---------------------------------------------------------------------------
# scalar certificates
# ---------------------------------------------------------------------------

def test_trivial_network_solvable():
    # with no edges and no terminals the empty code is a solution
    edgeless = CodedNetwork("edgeless", ("a",), (NetNode("s", "source", generates="a"),), ())
    for net in (tiny_unicast(), edgeless):
        for p in (2, 3, 5):
            out = search_scalar(net, p, SearchConfig())
            assert out.status == SOLVABLE
            assert verify(net, out.code).passed


def test_scalar_certificates_match_characteristic_split():
    expectations = [
        (gen_fano(), 2, SOLVABLE),
        (gen_fano(), 3, UNSOLVABLE),
        (gen_nonfano(), 2, UNSOLVABLE),
        (gen_nonfano(), 3, SOLVABLE),
    ]
    for net, p, expected in expectations:
        out = search_scalar(net, p, SearchConfig())
        assert out.status == expected, (net.name, p)
        assert out.states_explored > 0
        if expected == SOLVABLE:
            assert out.code is not None
            report = verify(net, out.code)
            assert report.passed
            assert out.code.k == 1 and out.code.n == 1
        else:
            assert out.code is None


def test_budget_yields_inconclusive():
    out = search_scalar(gen_fano(), 3, SearchConfig(node_budget=50))
    assert out.status == INCONCLUSIVE
    assert out.states_explored <= 50
    assert out.code is None


@pytest.mark.parametrize(
    "budget, k, n, p",
    [
        (50, 1, 1, 3),
        (50, 2, 2, 2),
        # Fano/GF(3) is certified in 175 states, so the larger budget runs
        # at (1,2) on n1(2,2), which no budget here decides
        (1000, 1, 2, 3),
        (1000, 2, 2, 2),
    ],
)
def test_budget_holds(budget, k, n, p):
    net = gen_n1(2, 2) if (k, n) == (1, 2) else gen_fano()
    out = search_fractional(net, k, n, p, SearchConfig(node_budget=budget))
    assert out.status == INCONCLUSIVE
    assert out.states_explored <= budget


@pytest.mark.parametrize(
    "budget, k, n, p",
    [(50, 1, 1, 3), (1000, 1, 2, 3)],
)
def test_budget_holds_on_repeated_search(budget, k, n, p):
    # every search runs in the calling process, so a second search must
    # start from a fresh budget and nothing left over from the first
    net = gen_n1(2, 2) if (k, n) == (1, 2) else gen_fano()
    cfg = SearchConfig(node_budget=budget)
    first = search_fractional(net, k, n, p, cfg)
    second = search_fractional(net, k, n, p, cfg)
    assert first.status == second.status == INCONCLUSIVE
    assert first.states_explored == second.states_explored <= budget


def test_exact_budget_accounting():
    out = search_scalar(gen_fano(), 3, SearchConfig(node_budget=1))
    assert out.status == INCONCLUSIVE
    assert out.states_explored == 1


def test_search_is_fully_deterministic():
    net = gen_nonfano()
    a = search_scalar(net, 3, SearchConfig())
    b = search_scalar(net, 3, SearchConfig())
    assert a.status == b.status == SOLVABLE
    assert a.states_explored == b.states_explored
    assert a.code == b.code


def test_search_config_validation():
    # a fractional budget was once accepted, and the count rounded it up
    for budget in (0, 2.5, "5", True):
        with pytest.raises(ValueError, match="node_budget must be positive"):
            SearchConfig(node_budget=budget)


# ---------------------------------------------------------------------------
# fractional search
# ---------------------------------------------------------------------------

def test_fractional_1x1_reduces_to_scalar():
    net = gen_fano()
    scalar = search_scalar(net, 2, SearchConfig())
    frac = search_fractional(net, 1, 1, 2, SearchConfig())
    assert frac.status == scalar.status == SOLVABLE
    assert frac.states_explored == scalar.states_explored == 67
    assert save_code(frac.code) == save_code(scalar.code)


def test_fractional_1x1_unsolvable_matches_scalar():
    net = gen_fano()
    scalar = search_scalar(net, 3, SearchConfig())
    frac = search_fractional(net, 1, 1, 3, SearchConfig())
    assert frac.status == scalar.status == UNSOLVABLE
    assert frac.states_explored == scalar.states_explored == 175


# Decisions and witness bytes recorded when scalar search still had its own
# vector algebra; state counts re-recorded under maximal-subspace dominance,
# which left every decision and witness byte unchanged.
SCALAR_REFERENCE_RUNS = [
    (gen_fano(), 3, UNSOLVABLE, 175, None),
    (gen_fano(), 5, UNSOLVABLE, 701, None),
    (gen_nonfano(), 2, UNSOLVABLE, 126, None),
    (gadget_transform(gen_fano(), 1), 3, UNSOLVABLE, 239, None),
    (gen_fano(), 2, SOLVABLE, 67,
     "f3ff4b121c6d16a3c20c3ffeb364168be62ca876f1c68d87133ffc3dd2446360"),
    (gen_nonfano(), 3, SOLVABLE, 132,
     "c7310cfccfa6217f6843c3d2c7078b91e5e2d2f1734da21db77ef1c53ea194ab"),
]

# Before maximal-subspace dominance the first two were still undecided at a
# million states and the next two took 190,224 and 145,246.  The last two
# are rate-1/2 certificates over GF(2); the gadget one is a multiple-unicast
# network with no (1, 2) linear solution there.
DOMINANCE_REACH_RUNS = [
    (gen_n1(3, 1), 1, 1, 5, UNSOLVABLE, 13578),
    (gen_n2(3, 1), 1, 1, 3, UNSOLVABLE, 94944),
    (gadget_transform(gen_n1(3, 1), 1), 1, 1, 2, UNSOLVABLE, 792),
    (gen_n1(2, 2), 1, 2, 2, SOLVABLE, 4468),
    (gen_n2(2, 2), 1, 2, 2, UNSOLVABLE, 711938),
    (gadget_transform(gen_n2(2, 2), 2), 1, 2, 2, UNSOLVABLE, 874716),
]

# Certificates of 1.8 million states, each 12-17 s and 70-75 MB on a 2-CPU
# machine: deselected by default, run with ``pytest -m slow``.
SLOW_CERTIFICATE_RUNS = [
    (gen_fano(), 2, 2, 3, UNSOLVABLE, 1804689),
    (gen_n1(2, 2), 1, 2, 3, UNSOLVABLE, 1815864),
]


def test_scalar_search_matches_reference_runs():
    for net, p, status, states, digest in SCALAR_REFERENCE_RUNS:
        out = search_scalar(net, p, SearchConfig())
        assert (out.status, out.states_explored) == (status, states), (net.name, p)
        if digest is not None:
            assert hashlib.sha256(save_code(out.code)).hexdigest() == digest


def test_fractional_search_matches_reference_runs():
    # Decisions and witness bytes recorded when search states were still
    # echelon bases rather than interned ids; state counts re-recorded under
    # maximal-subspace dominance.
    cases = [
        (gen_fano(), 1, 2, 2, SOLVABLE, 38,
         "53783f9a2abba7464d252e26cb65157dcf98ab95931649ce71d01e78acee6933"),
        (gen_nonfano(), 1, 2, 2, SOLVABLE, 35,
         "4185e7e97eac68a8a1fe1db4b242c8921661350e15ae364c08986c6d72700482"),
        (gen_fano(), 2, 1, 2, UNSOLVABLE, 120, None),
        (gen_fano(), 2, 1, 3, UNSOLVABLE, 340, None),
    ]
    for net, k, n, p, status, states, digest in cases:
        out = search_fractional(net, k, n, p, SearchConfig())
        got = (out.status, out.states_explored)
        assert got == (status, states), (net.name, k, n, p)
        if digest is not None:
            assert hashlib.sha256(save_code(out.code)).hexdigest() == digest


def test_dominance_reach():
    for net, k, n, p, status, states in DOMINANCE_REACH_RUNS:
        out = search_fractional(net, k, n, p, SearchConfig())
        assert (out.status, out.states_explored) == (status, states), (net.name, k, n, p)
        if status == SOLVABLE:
            assert verify(net, out.code).passed


@pytest.mark.slow
@pytest.mark.parametrize(
    "net, k, n, p, status, states",
    SLOW_CERTIFICATE_RUNS,
    ids=["fano-(2,2)-gf3", "n1(2,2)-(1,2)-gf3"],
)
def test_slow_certificates(net, k, n, p, status, states):
    out = search_fractional(net, k, n, p, SearchConfig())
    assert (out.status, out.states_explored) == (status, states)


def test_memo_cap_changes_no_decision(monkeypatch):
    # Past _MEMO_CAP entries the failed-state memo stops growing; at 0 it
    # stops after its first entry.  The memo only skips subtrees already
    # seen to fail, so every decision and the first witness found must stay
    # the same, at no fewer states.
    monkeypatch.setattr(solver, "_MEMO_CAP", 0)
    runs = [(net, 1, 1, *rest) for net, *rest in SCALAR_REFERENCE_RUNS]
    runs += [(*run, None) for run in DOMINANCE_REACH_RUNS]
    grew = []
    for net, k, n, p, status, states, digest in runs:
        out = search_fractional(net, k, n, p, SearchConfig())
        assert out.status == status, (net.name, k, n, p)
        assert out.states_explored >= states, (net.name, k, n, p)
        if status == SOLVABLE:
            assert verify(net, out.code).passed
        if digest is not None:
            assert hashlib.sha256(save_code(out.code)).hexdigest() == digest
        grew.append(out.states_explored > states)
    # the valve was reached: without the memo some search does more work
    assert any(grew)


def test_witness_grid_is_pinned():
    # One sha256 over (status, states, witness bytes), recorded when each
    # witness rule was still solved through ``gf.solve_right``: the choice
    # of free variables decides the bytes.  The grid gives witnesses at
    # (1,1) and (1,2) over GF(2), GF(3) and GF(5), with gadget and union
    # rules; the random DAGs give witnesses with k = 2.
    digest = hashlib.sha256()
    witnesses = 0

    def run(net, k, n, p, budget):
        nonlocal witnesses
        out = search_fractional(net, k, n, p, SearchConfig(node_budget=budget))
        digest.update(f"{out.status} {out.states_explored}\n".encode())
        if out.code is not None:
            digest.update(save_code(out.code))
            witnesses += 1

    grid = [gen_fano(), gen_nonfano(), gen_n1(3, 1), gen_n2(3, 1),
            gadget_transform(gen_fano(), 1), union_copies(gen_fano(), 2)]
    for net in grid:
        for p in (2, 3, 5):
            for k, n in ((1, 1), (1, 2), (2, 1)):
                run(net, k, n, p, 3000)
    rng = random.Random(4242)
    for _ in range(60):
        net = random_network(rng)
        for k, n in ((2, 1), (2, 2)):
            run(net, k, n, 2, 2000)
    assert witnesses == 26 + 22
    assert digest.hexdigest() == (
        "41fa852a3c647e1469c6dc901c938ed6d1799ff8b64b57cc1cb555fe5c8ebcd4"
    )


def test_fractional_trivial_network():
    for k, n in ((1, 1), (1, 2), (2, 2)):
        out = search_fractional(tiny_unicast(), k, n, 2, SearchConfig())
        assert out.status == SOLVABLE
        assert verify(tiny_unicast(), out.code).passed


def test_fractional_finds_rate_half_witness():
    # a (1,2) solution exists at characteristic 2; the search must find one
    net = gen_n1(2, 2)
    out = search_fractional(net, 1, 2, 2, SearchConfig())
    assert out.status == SOLVABLE
    report = verify(net, out.code)
    assert report.passed
    assert out.code.k == 1 and out.code.n == 2


@pytest.mark.parametrize("k, n", [(0, 1), (1, 0), (True, True), (1.5, 1), (1, 2.0)])
def test_fractional_rejects_bad_rate(k, n):
    # a bool rate once gave a witness whose file load_code refuses
    with pytest.raises(ValueError, match="k and n must be positive"):
        search_fractional(gen_fano(), k, n, 2)


def test_fractional_rejects_invalid_network():
    bad = CodedNetwork(
        "bad",
        ("a1",),
        (
            NetNode("s1", "source", generates="a1"),
            NetNode("t1", "terminal", demands="a1"),
        ),
        (NetEdge("t1->s1", "t1", "s1"),),
    )
    with pytest.raises(ValueError):
        search_scalar(bad, 2, SearchConfig())


# ---------------------------------------------------------------------------
# interned subspace ids
# ---------------------------------------------------------------------------

def test_equal_subspaces_share_one_id():
    alg = _Algebra(2, 1, 2, 3)
    a, b = alg.unit_ids
    both = alg.intern(_echelon([(1, 0), (0, 1)], 3))
    assert alg.join((a, b)) == alg.join((b, a)) == both
    # the same plane from other spanning sets and other parent tuples
    c = alg.intern(_echelon([(1, 1)], 3))
    d = alg.intern(_echelon([(1, 2)], 3))
    assert alg.join((c, d)) == alg.join((a, c)) == alg.join((d, b, alg.zero)) == both
    assert alg.join((c, c)) == alg.join((c,)) == c != d
    assert alg.intern(_echelon([(2, 2)], 3)) == c
    assert alg.basis[both] == ((1, 0), (0, 1)) and alg.dim[both] == 2
    assert alg.dim[alg.zero] == 0 and alg.basis[alg.zero] == ()


@pytest.mark.parametrize("p", [2, 3])
def test_join_matches_echelon_of_stacked_bases(p):
    rng = random.Random(p)
    width = 4
    alg = _Algebra(width, 1, width, p)
    for _ in range(200):
        parts = []
        for _ in range(rng.randint(1, 3)):
            rows = [
                tuple(rng.randrange(p) for _ in range(width))
                for _ in range(rng.randint(0, 3))
            ]
            parts.append(_echelon(rows, p))
        ids = tuple(alg.intern(b) for b in parts)
        stacked = [row for b in parts for row in b]
        want = _echelon(stacked, p)
        assert alg.basis[alg.join(ids)] == want
        assert alg.join(ids) == alg.intern(want)
        assert alg.dim[alg.join(ids)] == len(want)
    # every distinct basis has exactly one id
    assert len(set(alg.basis)) == len(alg.basis)


# ---------------------------------------------------------------------------
# the frontier prune
# ---------------------------------------------------------------------------

def closure_ok(net, engine, i, values):
    """The frontier prune written as the whole forward closure, read off
    the network: every edge after position i carries its message's unit
    block if its tail is a source, else the join of its tail's in-edges;
    then every terminal whose last in-edge comes after i must decode."""
    alg = engine.alg
    order = [info.edge_id for info in engine.plan.edges]
    pos = {eid: j for j, eid in enumerate(order)}
    node_map, edge_map = net.node_map(), net.edge_map()
    msg_index = {m: t for t, m in enumerate(net.messages)}
    in_edges = {nid: [e.id for e in net.edges if e.head == nid] for nid in node_map}
    span = {eid: values[j] for j, eid in enumerate(order[: i + 1])}
    for eid in order[i + 1 :]:
        tail = node_map[edge_map[eid].tail]
        if tail.role == "source":
            span[eid] = alg.unit_ids[msg_index[tail.generates]]
        else:
            span[eid] = alg.join(tuple(span[f] for f in in_edges[tail.id]))
    return all(
        alg.contains(
            alg.join(tuple(span[f] for f in in_edges[term.id])),
            alg.unit_ids[msg_index[term.demands]],
        )
        for term in net.terminals()
        if in_edges[term.id] and max(pos[f] for f in in_edges[term.id]) > i
    )


def cut_off():
    """t1 demands a but hears only b, c and d through v, plus e: no value of
    v->t1 lets it decode, and over GF(5) that loop has 31 candidates."""
    msgs = ("a", "b", "c", "d", "e")
    nodes = tuple(NetNode(f"s{m}", "source", generates=m) for m in msgs) + (
        NetNode("v", "intermediate"),
        NetNode("t1", "terminal", demands="a"),
        NetNode("t2", "terminal", demands="a"),
    )
    edges = tuple(NetEdge(f"s{m}->v", f"s{m}", "v") for m in "bcd") + (
        NetEdge("v->t1", "v", "t1"),
        NetEdge("se->t1", "se", "t1"),
        NetEdge("sa->t2", "sa", "t2"),
    )
    return CodedNetwork("cut-off", msgs, nodes, edges)


def checked_search(monkeypatch, net, k, n, p):
    """A 3,000-state search whose every trial (``_Engine._trial_test``) is
    checked against the join-based ``_decodes`` over ``checks_at[i]`` and
    ``frontier_after[i]``, and every frontier decision against
    ``closure_ok``.

    Compares the frontier on every prefix the search asks about, and on
    every prefix it extends (each fresh position i has values[:i]
    assigned).  Returns the frontier decisions, (hoisted, decision) per
    trial, hoisted meaning its loop had more than ``_HOIST_MIN``
    candidates, and the outcomes of ``_Algebra.targets``.
    """
    seen, trials, targets = [], [], []
    candidates = _Engine._candidates
    trial_test = _Engine._trial_test
    target = _Algebra.targets

    def frontier_ok(engine, i, values):
        got = engine._decodes(engine.plan.frontier_after[i], values)
        assert got == closure_ok(net, engine, i, values), (i, values[: i + 1])
        return got

    def checked_candidates(self, i, values):
        if i > 0:
            frontier_ok(self, i - 1, values)
        return candidates(self, i, values)

    def checked_trial_test(self, i, pspan, cands, values):
        test = trial_test(self, i, pspan, cands, values)
        hoisted = len(cands) > solver._HOIST_MIN

        def checked(cand):
            got = test(cand)
            assert values[i] == cand
            want = self._decodes(self.plan.checks_at[i], values)
            if want and self.alg.dim[cand] < self.alg.dim[pspan]:
                want = frontier_ok(self, i, values)
                seen.append(want)
            assert got == want, (i, values[: i + 1])
            trials.append((hoisted, got))
            return got

        return checked

    def recorded_targets(self, pspan, rest, demand_idx):
        out = target(self, pspan, rest, demand_idx)
        targets.append(out)
        return out

    monkeypatch.setattr(_Engine, "_candidates", checked_candidates)
    monkeypatch.setattr(_Engine, "_trial_test", checked_trial_test)
    monkeypatch.setattr(_Algebra, "targets", recorded_targets)
    search_fractional(net, k, n, p, SearchConfig(node_budget=3000))
    monkeypatch.undo()
    return seen, trials, targets


@pytest.mark.parametrize(
    "net, k, n, p",
    [
        (gen_fano(), 1, 1, 3),
        (gen_fano(), 1, 1, 5),
        (gen_fano(), 1, 2, 5),
        (gen_n1(2, 2), 1, 2, 3),
        (gen_n2(2, 2), 1, 2, 2),
        (union_copies(gen_fano(), 2), 2, 1, 3),
    ],
    ids=["fano", "fano-gf5", "fano-(1,2)-gf5", "n1(2,2)", "n2(2,2)", "union(fano,2)"],
)
def test_frontier_prune_equals_full_closure(monkeypatch, net, k, n, p):
    seen, _, _ = checked_search(monkeypatch, net, k, n, p)
    assert True in seen and False in seen


def test_hoisted_checks_reach_every_branch(monkeypatch):
    # n1(2,2) hoists loops of 130 candidates whose parent span meets the
    # rest of a check (the join-test fallback) and loops where it does not;
    # in cut_off no candidate of v->t1 can pass; both searches also run
    # loops too short to hoist
    trials, targets = [], []
    for net, k, n, p in ((gen_n1(2, 2), 1, 2, 3), (cut_off(), 1, 1, 5)):
        _, got, outcomes = checked_search(monkeypatch, net, k, n, p)
        trials += got
        targets += outcomes
    assert {hoisted for hoisted, _ in trials} == {True, False}
    assert {ok for hoisted, ok in trials if hoisted} == {True, False}
    assert None in targets and False in targets
    assert any(type(t) is int for t in targets)


# ---------------------------------------------------------------------------
# oracle equivalence on random small networks
# ---------------------------------------------------------------------------

def test_search_agrees_with_raw_enumeration():
    # distinct seed family from the acceptance run
    rng = random.Random(777)
    for _ in range(10):
        net = random_network(rng)
        got = search_scalar(net, 2, SearchConfig())
        want = brute_force_scalar(net, 2)
        assert (got.status == SOLVABLE) == want, net.name
        if got.status == SOLVABLE:
            assert verify(net, got.code).passed


@pytest.mark.parametrize("k, n", [(1, 2), (2, 1)])
def test_fractional_search_agrees_with_raw_enumeration(k, n):
    # every local block over GF(2) on DAGs of at most 4 edges
    rng = random.Random(6000 + 10 * k + n)
    decisions = []
    while len(decisions) < 100:
        net = random_network(rng, max_edges=4)
        if fractional_slots(net, k, n) > 16:
            continue
        got = search_fractional(net, k, n, 2, SearchConfig())
        want = brute_force_fractional(net, k, n, 2)
        assert (got.status == SOLVABLE) == want, net
        assert got.status in (SOLVABLE, UNSOLVABLE)
        if got.status == SOLVABLE:
            assert verify(net, got.code).passed
        decisions.append(want)
    assert any(decisions) and not all(decisions)
