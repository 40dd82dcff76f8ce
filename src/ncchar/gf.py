"""Exact dense matrix arithmetic over prime fields GF(p).

Matrices are immutable and store canonical residues in [0, p).  All
operations are exact, so results can be compared with ``==`` and never
need a tolerance.  Shapes are tiny throughout this package (block sizes
of a few rows), so everything here is plain Python integer arithmetic.
"""

from __future__ import annotations

from operator import add, mul
from typing import Iterable, Sequence

from .network import _set, _Value


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class PrimeModulus(_Value):
    """A validated prime field modulus.

    The bound 2**31 keeps every entry/product comfortably inside native
    integer ranges on any backend.
    """

    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"modulus must be an int, got {p!r}")
        if p >= 1 << 31:
            raise ValueError(f"modulus {p} too large (must be < 2**31)")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        _set(self, "p", p)


def as_modulus(p: "PrimeModulus | int") -> PrimeModulus:
    return p if isinstance(p, PrimeModulus) else PrimeModulus(p)


class FieldMatrix(_Value):
    """An immutable rows x cols matrix over GF(p), row-major entries."""

    __slots__ = ("rows", "cols", "entries", "modulus")

    def __init__(
        self, rows: int, cols: int, entries: tuple[int, ...], modulus: PrimeModulus
    ) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(entries) != rows * cols:
            raise ValueError(
                f"entry count {len(entries)} does not match shape {rows}x{cols}"
            )
        p = modulus.p
        for x in entries:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"entry {x!r} not an int")
            if not 0 <= x < p:
                raise ValueError(f"entry {x} outside [0, {p})")
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "entries", entries)
        _set(self, "modulus", modulus)

    # -- construction helpers -------------------------------------------

    @classmethod
    def _trusted(
        cls, rows: int, cols: int, entries: tuple[int, ...], modulus: PrimeModulus
    ) -> "FieldMatrix":
        """Build without the checks of ``__init__``.

        Only for entries that are canonical residues by construction: a
        tuple of ``rows * cols`` ints in [0, p), such as the result of an
        operation on valid matrices or of a reduction mod p.
        """
        m = object.__new__(cls)
        _set(m, "rows", rows)
        _set(m, "cols", cols)
        _set(m, "entries", entries)
        _set(m, "modulus", modulus)
        return m

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[int]], p: "PrimeModulus | int"
    ) -> "FieldMatrix":
        """Rows of ints, not bools, reduced mod p; ``[]`` is 0x0, and 0 x m
        is ``FieldMatrix(0, m, (), mod)``."""
        mod = as_modulus(p)
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[int] = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            for x in r:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValueError(f"entry {x!r} not an int")
                flat.append(x % mod.p)
        return cls._trusted(nrows, ncols, tuple(flat), mod)

    @classmethod
    def zeros(cls, rows: int, cols: int, p: "PrimeModulus | int") -> "FieldMatrix":
        mod = as_modulus(p)
        return cls(rows, cols, (0,) * (rows * cols), mod)

    @classmethod
    def identity(cls, size: int, p: "PrimeModulus | int") -> "FieldMatrix":
        mod = as_modulus(p)
        flat = [0] * (size * size)
        for i in range(size):
            flat[i * size + i] = 1
        return cls(size, size, tuple(flat), mod)

    # -- element access --------------------------------------------------

    def row(self, r: int) -> tuple[int, ...]:
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(r)) for r in range(self.rows)]

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    # -- arithmetic -------------------------------------------------------

    def _require_same_field(self, other: "FieldMatrix") -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                f"mixed moduli {self.modulus.p} and {other.modulus.p}"
            )

    def __add__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._require_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        p = self.modulus.p
        flat = tuple((a + b) % p for a, b in zip(self.entries, other.entries))
        return FieldMatrix._trusted(self.rows, self.cols, flat, self.modulus)

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._require_same_field(other)
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in product: {self.rows}x{self.cols} times "
                f"{other.rows}x{other.cols}"
            )
        p = self.modulus.p
        rows = [self.row(r) for r in range(self.rows)]
        flat = _dot_rows(rows, other.entries, other.cols)
        return FieldMatrix._trusted(
            self.rows, other.cols, tuple([x % p for x in flat]), self.modulus
        )


# B with at least this many columns is multiplied row by row.  Measured on a
# 2-CPU machine, row path time over dot path time: at 16 columns 0.65-1.04
# with A 2x2 or 3x3 and 1.17 at 4x4 (0.89 from 64 columns); at 4 columns
# 1.2-2.6.  So block-sized operands keep the dot path.
_WIDE = 16


def _dot_rows(rows: Sequence[Sequence[int]], b: Sequence[int], k: int) -> list[int]:
    """The row-major entries of A @ B, not yet reduced mod p.

    ``rows`` are the rows of A and ``b`` the row-major entries of B, which
    has ``k`` columns.  Each entry is one ``sum(map(mul, row, column))``;
    when k = 1 the only column is ``b`` itself.  A wide B (``_WIDE``
    columns or more) is read by rows instead: each output row is the sum of
    the B rows scaled by the nonzero entries of an A row, so the work per
    entry runs inside ``map`` and the Python loop is over A's entries.  This
    is the one product routine of the package: ``FieldMatrix.__matmul__``
    and the transfer evaluation of ``lincode`` both use it.
    """
    if k == 1:
        return [sum(map(mul, r, b)) for r in rows]
    if k < _WIDE:
        cols = [b[j::k] for j in range(k)]
        return [sum(map(mul, r, c)) for r in rows for c in cols]
    brows = [b[i : i + k] for i in range(0, len(b), k)]
    out: list[int] = []
    for r in rows:
        acc = None
        for a, br in zip(r, brows):
            if a:
                scaled = map(a.__mul__, br)
                acc = list(scaled if acc is None else map(add, acc, scaled))
        out += acc or [0] * k
    return out


# -- elimination core -----------------------------------------------------


def _rref(
    rows: list[Sequence[int]], p: int
) -> tuple[list[Sequence[int]], list[int]]:
    """Reduced row echelon form in place; returns (rows, pivot columns).

    Entries must be canonical residues in [0, p).  Rows are replaced, never
    mutated, so tuples are fine.  Pivoting picks the first row with a
    nonzero entry in the current column, which makes the reduction fully
    deterministic; the pivot rows come first, in pivot order.
    """
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= len(rows):
            break
        sel = -1
        for i in range(r, len(rows)):
            if rows[i][c]:
                sel = i
                break
        if sel < 0:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][c], -1, p)
        if inv != 1:
            rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _solve(a_rows: Iterable, b_rows: Iterable, na: int, nb: int, p: int) -> list | None:
    """The rows of one X with A X = B, or None when inconsistent: [A | B] is
    reduced once and free variables are 0.  The widths keep the shape of a
    system with no rows.  The search's witness rules use it."""
    aug, pivots = _rref([a + b for a, b in zip(a_rows, b_rows)], p)
    if pivots and pivots[-1] >= na:  # pivots ascend: one is in B's columns
        return None
    x: list = [(0,) * nb] * na
    for r, c in enumerate(pivots):
        x[c] = aug[r][na:]
    return x


# -- public operations ------------------------------------------------------


def rank(a: FieldMatrix) -> int:
    rows = a.to_rows()
    _, pivots = _rref(rows, a.modulus.p)
    return len(pivots)
