"""Acceptance gate: the nine criteria, one printed pass/fail line each.

Every check is exact (finite-field arithmetic has no tolerance).  Stated
runtime bounds are asserted with wall-clock measurements.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest

from ncchar import (
    CharacteristicError,
    SearchConfig,
    gadget_transform_traced,
    gen_n1,
    gen_n2,
    instantiate,
    lift_gadget,
    lift_union,
    load,
    load_code,
    save,
    save_code,
    search_scalar,
    solve_n1,
    solve_n2,
    union_copies,
    verify,
)
from ncchar.gf import FieldMatrix, PrimeModulus
from ncchar.solver import SOLVABLE, UNSOLVABLE
from util_oracles import (
    annihilating_block_family,
    assert_block_products,
    brute_force_scalar,
    identity_block_family,
    random_network,
)

PRIMES = (2, 3, 5, 7)

N1_GRID = ((2, 1), (2, 2), (3, 2), (6, 2), (6, 3))
N2_GRID = ((2, 1), (2, 2), (3, 1), (3, 2))


@contextmanager
def criterion(num):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL", flush=True)
        raise
    print(f"criterion {num}: PASS", flush=True)


def timed(bound_s):
    """Assert the with-block stays under the stated wall-clock bound."""

    @contextmanager
    def _ctx():
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < bound_s, f"took {elapsed:.2f}s, bound {bound_s}s"

    return _ctx()


def test_criterion_1_n1_achievability_grid():
    with criterion(1):
        for q, n in N1_GRID:
            for p in PRIMES:
                if q % p != 0:
                    continue
                with timed(1.0):
                    net = gen_n1(q, n)
                    report = verify(net, instantiate(solve_n1(q, n), p))
                assert report.passed, (q, n, p)
                assert len(report.terminals) == 2 * q * n


def test_criterion_2_n2_achievability_grid():
    with criterion(2):
        for q, n in N2_GRID:
            for p in PRIMES:
                if q % p == 0:
                    continue
                with timed(1.0):
                    net = gen_n2(q, n)
                    report = verify(net, instantiate(solve_n2(q, n), p))
                assert report.passed, (q, n, p)
                assert len(report.terminals) == (q + 2) * n


def test_criterion_3_characteristic_separation():
    with criterion(3):
        report = verify(gen_n1(2, 2), instantiate(solve_n1(2, 2), 3))
        assert not report.passed
        assert [t.terminal for t in report.failing()] == ["Ta:a1", "Ta:a2"]
        with pytest.raises(CharacteristicError):
            instantiate(solve_n2(2, 1), 2)


def test_criterion_4_scalar_certificates():
    cases = [
        ("n1@p=2", gen_n1(2, 1), 2, SOLVABLE),
        ("n1@p=3", gen_n1(2, 1), 3, UNSOLVABLE),
        ("n2@p=2", gen_n2(2, 1), 2, UNSOLVABLE),
        ("n2@p=3", gen_n2(2, 1), 3, SOLVABLE),
    ]
    states = {}
    try:
        for label, net, p, expected in cases:
            with timed(300.0):
                out = search_scalar(net, p, SearchConfig())
            assert out.status == expected, label
            assert out.states_explored > 0
            states[label] = out.states_explored
            if expected == SOLVABLE:
                assert verify(net, out.code).passed
    except BaseException:
        print("criterion 4: FAIL", flush=True)
        raise
    detail = ", ".join(f"{k}: {v} states" for k, v in states.items())
    print(f"criterion 4: PASS  ({detail})", flush=True)


def test_criterion_5_block_identity_properties():
    with criterion(5):
        with timed(10.0):
            rng = random.Random(20260814)
            for d in (1, 2):
                for n in (2, 3):
                    for p in (2, 3, 5):
                        mod = PrimeModulus(p)
                        ident = FieldMatrix.identity(d, p)
                        for _ in range(1000):
                            a, b = identity_block_family(d, n, mod, rng)
                            assert_block_products(a, b, ident)
                            a0, b0 = annihilating_block_family(d, n, mod, rng)
                            assert_block_products(a0, b0, None)


def test_criterion_6_union_lifting():
    with criterion(6):
        for k in (2, 3):
            with timed(2.0):
                net = union_copies(gen_n1(2, 2), k)
                code = instantiate(lift_union(solve_n1(2, 2), k), 2)
                assert verify(net, code).passed
            with timed(2.0):
                net = union_copies(gen_n2(2, 2), k)
                code = instantiate(lift_union(solve_n2(2, 2), k), 3)
                assert verify(net, code).passed


def test_criterion_7_gadget_transform():
    from ncchar import is_multiple_unicast

    with criterion(7):
        for gen, solver_fn, p in ((gen_n1, solve_n1, 2), (gen_n2, solve_n2, 3)):
            with timed(1.0):
                base = gen(2, 1)
                gadgeted, apps = gadget_transform_traced(base, 1)
                assert is_multiple_unicast(gadgeted).ok
                assert len(apps) >= 1
                n = 1
                src_delta = len(gadgeted.sources()) - len(base.sources())
                assert src_delta == n * len(apps)
                before = {t.id for t in base.terminals()}
                new_terms = {t.id for t in gadgeted.terminals()} - before
                assert len(new_terms) == (n + 1) * len(apps)
                code = instantiate(lift_gadget(solver_fn(2, 1), base, gadgeted), p)
                assert verify(gadgeted, code).passed


def test_criterion_8_solver_oracle_equivalence():
    with criterion(8):
        with timed(60.0):
            rng = random.Random(424242)
            for _ in range(20):
                net = random_network(rng)
                decision = search_scalar(net, 2, SearchConfig()).status == SOLVABLE
                assert decision == brute_force_scalar(net, 2), net.name


def _artifacts_from_criteria_1_to_7():
    """Regenerate every network and code the earlier criteria produce."""
    nets = []
    codes = []
    for q, n in N1_GRID:
        nets.append(gen_n1(q, n))
        codes.append(solve_n1(q, n))
        for p in PRIMES:
            if q % p == 0:
                codes.append(instantiate(solve_n1(q, n), p))
    for q, n in N2_GRID:
        nets.append(gen_n2(q, n))
        codes.append(solve_n2(q, n))
        for p in PRIMES:
            if q % p != 0:
                codes.append(instantiate(solve_n2(q, n), p))
    codes.append(instantiate(solve_n1(2, 2), 3))  # criterion 3
    for family, p in ((gen_n1, 2), (gen_n2, 3)):  # criterion 4 witnesses
        out = search_scalar(family(2, 1), p, SearchConfig())
        codes.append(out.code)
    for k in (2, 3):  # criterion 6
        nets.append(union_copies(gen_n1(2, 2), k))
        nets.append(union_copies(gen_n2(2, 2), k))
        codes.append(lift_union(solve_n1(2, 2), k))
        codes.append(instantiate(lift_union(solve_n1(2, 2), k), 2))
        codes.append(lift_union(solve_n2(2, 2), k))
        codes.append(instantiate(lift_union(solve_n2(2, 2), k), 3))
    for gen, solver_fn, p in ((gen_n1, solve_n1, 2), (gen_n2, solve_n2, 3)):
        base = gen(2, 1)
        gadgeted, _ = gadget_transform_traced(base, 1)
        nets.append(gadgeted)
        lifted = lift_gadget(solver_fn(2, 1), base, gadgeted)
        codes.append(lifted)
        codes.append(instantiate(lifted, p))
    return nets, codes


def test_criterion_9_serialization_round_trips():
    with criterion(9):
        nets, codes = _artifacts_from_criteria_1_to_7()
        assert len(nets) >= 15 and len(codes) >= 30
        for net in nets:
            data = save(net)
            assert load(data) == net
            assert save(load(data)) == data
        for code in codes:
            data = save_code(code)
            assert load_code(data) == code
            assert save_code(load_code(data)) == data
