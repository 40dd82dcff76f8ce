"""Exact prime-field matrix arithmetic."""

import random
import re

import pytest

from ncchar.gf import FieldMatrix, PrimeModulus, _solve, rank
from util_oracles import (
    _plus,
    _rows_of,
    _times,
    annihilating_block_family,
    assert_block_products,
    identity_block_family,
    inverse,
    rand_invertible,
    rand_matrix,
)


def M(rows, p):
    return FieldMatrix.from_rows(rows, p)


def solve_right(a, b):
    """``gf._solve`` on matrices: the X with A X = B that it finds, or None.
    ``FieldMatrix`` checks that each entry it returns is a residue."""
    rows = range(a.rows)
    x = _solve(map(a.row, rows), map(b.row, rows), a.cols, b.cols, a.modulus.p)
    if x is None:
        return None
    return FieldMatrix(a.cols, b.cols, tuple(v for row in x for v in row), a.modulus)


# ---------------------------------------------------------------------------
# modulus and constructor validation
# ---------------------------------------------------------------------------

def test_modulus_rejects_non_primes():
    for bad in (0, 1, 4, 6, 9, 15, 2**31):
        with pytest.raises(ValueError):
            PrimeModulus(bad)
    for good in (2, 3, 5, 7, 11, 101):
        assert PrimeModulus(good).p == good


def test_from_rows_reduces_entries_mod_p():
    m = M([[4, -1], [3, 7]], 3)
    assert m.to_rows() == [[1, 2], [0, 1]]
    big = 2**70 + 3
    assert M([[-1, big, -big]], 5).to_rows() == [[4, big % 5, -big % 5]]


def test_from_rows_refuses_entries_that_are_not_ints():
    # int() would truncate a float or parse a string: [[0.5, 1.5]] as (0, 1)
    for bad in (0.5, 1.5, 2.0, "3", True, False, None):
        with pytest.raises(ValueError, match=f"^entry {re.escape(repr(bad))} not an int$"):
            M([[0, bad]], 5)


def test_shapes_of_matrices_with_no_rows():
    # an empty row list has no row to take a width from
    empty = M([], 3)
    assert (empty.rows, empty.cols, empty.entries) == (0, 0, ())
    mod = PrimeModulus(3)
    for m in range(3):
        wide = FieldMatrix(0, m, (), mod)
        assert (wide.rows, wide.cols) == (0, m)
        assert rand_matrix(0, m, mod, random.Random(0)) == wide


def test_entries_outside_field_rejected():
    with pytest.raises(ValueError, match=r"^entry 5 outside \[0, 3\)$"):
        FieldMatrix(1, 1, (5,), PrimeModulus(3))
    with pytest.raises(ValueError, match=r"^entry 7 outside \[0, 2\)$"):
        FieldMatrix(1, 1, (7,), PrimeModulus(2))
    with pytest.raises(ValueError):
        FieldMatrix(2, 2, (0, 0, 0), PrimeModulus(2))
    # bool is an int subclass, but True is not a field entry
    for flag in (True, False):
        with pytest.raises(ValueError, match=f"^entry {flag} not an int$"):
            FieldMatrix(1, 1, (flag,), PrimeModulus(2))


def test_first_bad_entry_is_the_one_named():
    # with a bad type and a bad value in one matrix, whichever comes first
    # is named; an int subclass that is not bool is an entry like any int
    mod = PrimeModulus(3)
    for entries, text in (
        ((1, True, 5), "entry True not an int"),
        ((1, 5, True), "entry 5 outside [0, 3)"),
        ((0, -1, 2.0), "entry -1 outside [0, 3)"),
        ((0, 2.0, -1), "entry 2.0 not an int"),
    ):
        with pytest.raises(ValueError) as exc:
            FieldMatrix(1, 3, entries, mod)
        assert str(exc.value) == text

    class Residue(int):
        pass

    m = FieldMatrix(1, 3, (Residue(2), 0, Residue(1)), mod)
    assert m == FieldMatrix(1, 3, (2, 0, 1), mod)
    with pytest.raises(ValueError, match=r"^entry 3 outside \[0, 3\)$"):
        FieldMatrix(1, 2, (Residue(1), Residue(3)), mod)


# ---------------------------------------------------------------------------
# add / mul
# ---------------------------------------------------------------------------

def test_add_characteristic_two_self_cancels():
    a = M([[1, 1], [0, 1]], 2)
    assert (a + a).is_zero


def test_add_zero_is_identity():
    rng = random.Random(0)
    for p in (2, 3, 5):
        a = rand_matrix(3, 2, PrimeModulus(p), rng)
        assert a + FieldMatrix.zeros(3, 2, p) == a


def test_add_wraps_mod_three():
    assert M([[2]], 3) + M([[2]], 3) == M([[1]], 3)


def test_add_shape_mismatch():
    with pytest.raises(ValueError):
        M([[1]], 2) + M([[1, 0]], 2)
    with pytest.raises(ValueError):
        M([[1]], 2) + M([[1]], 3)


def test_mul_identity():
    rng = random.Random(1)
    for p in (2, 5):
        a = rand_matrix(3, 3, PrimeModulus(p), rng)
        assert FieldMatrix.identity(3, p) @ a == a
        assert a @ FieldMatrix.identity(3, p) == a


def test_mul_involution_gf2():
    a = M([[1, 1], [0, 1]], 2)
    assert a @ a == FieldMatrix.identity(2, 2)


def test_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        M([[1, 0]], 2) @ M([[1, 0]], 2)


def test_operator_forms_match_functions():
    # + and @ against hand-worked values and the tuple arithmetic of the oracles
    a = M([[1, 2], [0, 1]], 3)
    b = M([[2, 0], [1, 1]], 3)
    assert a + b == M([[0, 2], [1, 2]], 3)
    assert a @ b == M([[1, 2], [1, 1]], 3)
    rng = random.Random(10)
    for p in (2, 3, 5):
        mod = PrimeModulus(p)
        for _ in range(10):
            a = rand_matrix(2, 3, mod, rng)
            b = rand_matrix(2, 3, mod, rng)
            c = rand_matrix(3, 4, mod, rng)
            assert _rows_of(a + b) == _plus(_rows_of(a), _rows_of(b), p)
            assert _rows_of(a @ c) == _times(_rows_of(a), _rows_of(c), p)


# ---------------------------------------------------------------------------
# rank, the right-solve kernel, and the Gauss-Jordan inverse of util_oracles
# ---------------------------------------------------------------------------

def test_rank_examples():
    assert rank(FieldMatrix.zeros(2, 2, 2)) == 0
    assert rank(FieldMatrix.identity(3, 2)) == 3
    # second row is twice the first
    assert rank(M([[1, 2], [2, 4]], 5)) == 1


def test_inverse_identity_and_permutation():
    assert inverse(FieldMatrix.identity(4, 3)) == FieldMatrix.identity(4, 3)
    swap = M([[0, 1], [1, 0]], 5)
    assert inverse(swap) == swap


def test_inverse_singular_raises():
    with pytest.raises(ValueError, match="^singular matrix$"):
        inverse(M([[1, 1], [1, 1]], 2))


def test_inverse_round_trip_random():
    rng = random.Random(2)
    for p in (2, 3, 5):
        mod = PrimeModulus(p)
        for _ in range(20):
            a = rand_invertible(3, mod, rng)
            assert a @ inverse(a) == FieldMatrix.identity(3, p)
            assert inverse(a) @ a == FieldMatrix.identity(3, p)


def test_invertible_iff_full_rank_exhaustive_2x2():
    # every 2x2 matrix over GF(2) and GF(3)
    for p in (2, 3):
        for a00 in range(p):
            for a01 in range(p):
                for a10 in range(p):
                    for a11 in range(p):
                        a = M([[a00, a01], [a10, a11]], p)
                        if rank(a) == 2:
                            assert a @ inverse(a) == FieldMatrix.identity(2, p)
                        else:
                            with pytest.raises(ValueError, match="^singular matrix$"):
                                inverse(a)


def test_solve_right_identity_and_zero():
    b = M([[1, 0], [1, 1]], 2)
    assert solve_right(FieldMatrix.identity(2, 2), b) == b
    assert solve_right(FieldMatrix.zeros(2, 2, 2), b) is None


def test_solve_right_unipotent():
    a = M([[1, 1], [0, 1]], 2)
    x = solve_right(a, FieldMatrix.identity(2, 2))
    assert x == M([[1, 1], [0, 1]], 2)


def test_solve_right_solutions_are_exact():
    rng = random.Random(3)
    for p in (2, 3, 5):
        mod = PrimeModulus(p)
        for _ in range(40):
            a = rand_matrix(3, 4, mod, rng)
            b = rand_matrix(3, 2, mod, rng)
            x = solve_right(a, b)
            if x is not None:
                assert a @ x == b


def test_solve_right_finds_constructed_solutions():
    rng = random.Random(4)
    for _ in range(40):
        a = rand_matrix(2, 3, PrimeModulus(3), rng)
        x0 = rand_matrix(3, 2, PrimeModulus(3), rng)
        b = a @ x0
        x = solve_right(a, b)
        assert x is not None
        assert a @ x == b


def test_inverse_is_solve_right_against_identity():
    rng = random.Random(8)
    for p in (2, 3, 5):
        mod = PrimeModulus(p)
        for n in range(5):
            ident = FieldMatrix.identity(n, p)
            for _ in range(10):
                a = rand_invertible(n, mod, rng) if n else ident
                assert inverse(a) == solve_right(a, ident)


def test_solve_right_against_identity_is_none_iff_singular():
    rng = random.Random(9)
    for p in (2, 3, 5):
        mod = PrimeModulus(p)
        for n in range(5):
            ident = FieldMatrix.identity(n, p)
            for _ in range(20):
                a = FieldMatrix(
                    n, n, tuple(rng.randrange(p) for _ in range(n * n)), mod
                )
                assert (solve_right(a, ident) is None) == (rank(a) < n)


def test_solve_right_keeps_the_shape_of_empty_systems():
    mod = PrimeModulus(3)
    # no equations: every m x k matrix solves it, and free variables are 0
    for m in range(3):
        for k in range(3):
            a = FieldMatrix(0, m, (), mod)
            b = FieldMatrix(0, k, (), mod)
            assert solve_right(a, b) == FieldMatrix.zeros(m, k, mod)
    # no unknowns: X is 0 x k, and A X = 0 holds only for B = 0
    for r in range(3):
        for k in range(3):
            a = FieldMatrix(r, 0, (), mod)
            assert solve_right(a, FieldMatrix.zeros(r, k, mod)) == FieldMatrix(
                0, k, (), mod
            )
            if r and k:
                b = FieldMatrix(r, k, (1,) + (0,) * (r * k - 1), mod)
                assert solve_right(a, b) is None


# ---------------------------------------------------------------------------
# block identity families
# ---------------------------------------------------------------------------

def test_block_identity_check_unit_vectors():
    a = [M([[1, 0]], 2), M([[0, 1]], 2)]
    b = [M([[1], [0]], 2), M([[0], [1]], 2)]
    assert_block_products(a, b, FieldMatrix.identity(1, 2))


def test_block_identity_check_rejects_bad_diagonal():
    a = [M([[1, 0]], 2), M([[0, 1]], 2)]
    b = [M([[0], [1]], 2), M([[1], [0]], 2)]  # swapped: A_1 B_1 = 0
    with pytest.raises(AssertionError, match=r"^block \(0,0\) is \[\[0\]\]$"):
        assert_block_products(a, b, FieldMatrix.identity(1, 2))


def test_block_identity_from_invertible_matrix():
    rng = random.Random(5)
    mod = PrimeModulus(3)
    a, b = identity_block_family(2, 2, mod, rng)
    assert [(m.rows, m.cols) for m in a] == [(2, 4)] * 2
    assert [(m.rows, m.cols) for m in b] == [(4, 2)] * 2
    assert_block_products(a, b, FieldMatrix.identity(2, 3))


def test_block_families_compose_to_identity_sampled():
    # small sample here; the acceptance suite runs the full 1000-trial grids
    rng = random.Random(6)
    for p in (2, 3, 5):
        mod = PrimeModulus(p)
        for d in (1, 2):
            for n in (2, 3):
                for _ in range(10):
                    a, b = identity_block_family(d, n, mod, rng)
                    assert_block_products(a, b, FieldMatrix.identity(d, p))


def test_annihilating_families_compose_to_zero_sampled():
    rng = random.Random(7)
    for p in (2, 3, 5):
        mod = PrimeModulus(p)
        for d in (1, 2):
            for n in (2, 3):
                for _ in range(10):
                    a, b = annihilating_block_family(d, n, mod, rng)
                    assert_block_products(a, b, None)


# ---------------------------------------------------------------------------
# names the benchmark patches
# ---------------------------------------------------------------------------

def test_benchmark_hooks_exist():
    # bench/harness.py (GfCounter) reads these from FieldMatrix.__dict__ by
    # name and bench/run.py wraps lincode.eval_transfer: without them every
    # traced benchmark pass fails
    from ncchar import lincode

    for name in ("__init__", "__matmul__", "__add__"):
        assert callable(FieldMatrix.__dict__[name]), name
    assert isinstance(FieldMatrix.__dict__["is_zero"], property)
    assert callable(lincode.eval_transfer)


def test_verify_walks_the_edge_rules_through_eval_transfer(monkeypatch):
    # bench/run.py times the transfer walk by wrapping the module attribute
    # lincode.eval_transfer; verify must reach the walk through it, once
    from ncchar import gen_n1, instantiate, lincode, solve_n1

    net, code = gen_n1(2, 2), instantiate(solve_n1(2, 2), 3)
    want = lincode.verify(net, code)
    calls = []
    original = lincode.eval_transfer

    def wrapped(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(lincode, "eval_transfer", wrapped)
    assert lincode.verify(net, code) == want
    assert calls == [(net, code)]
    assert not want.passed  # GF(3) leaves c-interference at Ta: a non-trivial report
