"""Seeded inputs: relabelled networks and change-of-basis ("gauged") codes.

Nothing here calls ncchar's arithmetic: the gauge uses its own small
matrix helpers, so the inputs do not depend on the code under test
being right, and their cost is fixed set-up work.
"""

from __future__ import annotations

import random
from operator import mul

# -- relabelling -----------------------------------------------------------------


def _renaming(ids, prefix: str, order_rng, name_rng) -> dict:
    ids = sorted(ids)
    if order_rng is None and name_rng is None:
        return {i: i for i in ids}
    ranked = order_rng.sample(ids, len(ids)) if order_rng is not None else ids
    if name_rng is not None:
        tokens = sorted(name_rng.sample(range(10**6), len(ids)))
    else:
        tokens = range(len(ids))
    return {old: f"{prefix}{tok:06d}" for old, tok in zip(ranked, tokens)}


def relabel(nc, net, order_seed: int | None, name_seed: int | None):
    """Rename every message, node and edge of ``net``.

    ``order_seed`` picks a new relative order of the ids in each
    namespace; the solver's edge order, and so its work, follows that
    order.  ``name_seed`` picks fresh random names that keep whatever
    order is in force, so it changes every id and none of the work.
    With both ``None`` the network is returned unchanged.
    """
    if order_seed is None and name_seed is None:
        return net
    order_rng = random.Random(f"order:{order_seed}") if order_seed is not None else None
    name_rng = random.Random(f"names:{name_seed}") if name_seed is not None else None
    msg = _renaming(net.messages, "m", order_rng, name_rng)
    node = _renaming([n.id for n in net.nodes], "v", order_rng, name_rng)
    edge = _renaming([e.id for e in net.edges], "e", order_rng, name_rng)
    nodes = tuple(
        nc.NetNode(node[n.id], n.role, msg.get(n.generates), msg.get(n.demands))
        for n in net.nodes
    )
    edges = tuple(nc.NetEdge(edge[e.id], node[e.tail], node[e.head]) for e in net.edges)
    return nc.CodedNetwork(net.name, tuple(msg[m] for m in net.messages), nodes, edges)


# -- small matrices over GF(p), as tuples of row tuples -------------------------


def _matmul(a, b, p: int):
    cols = list(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) % p for col in cols) for row in a)


def _inverse(a, p: int):
    """Gauss-Jordan inverse, or None when singular."""
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if aug[r][c] % p), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = pow(aug[c][c], -1, p)
        aug[c] = [(x * inv) % p for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


def _random_invertible(rng, n: int, p: int):
    while True:
        m = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        inv = _inverse(m, p)
        if inv is not None:
            return m, inv


GAUGE_POOL = 64  # distinct changes of basis drawn per code


def gauge(nc, code, rng):
    """Apply a random invertible change of basis T_e to every edge.

    T_e multiplies edge e's rule on the left, and T_e^-1 is folded into
    every child rule and decoder that reads e.  Every transfer block of e
    becomes T_e times the old one, and each decoder sees exactly what it
    saw before, so the verify report is unchanged while the coefficient
    blocks turn dense.  Each T_e is drawn from a seeded pool of
    ``GAUGE_POOL`` random invertible matrices, which keeps set-up short.
    """
    p, n = code.modulus.p, code.n
    pool = [_random_invertible(rng, n, p) for _ in range(GAUGE_POOL)]
    t, t_inv = {}, {}
    for e in sorted(code.edge_rules):
        t[e], t_inv[e] = rng.choice(pool)

    def field(rows):
        return nc.FieldMatrix(len(rows), len(rows[0]),
                              tuple(x for row in rows for x in row), code.modulus)

    def rows(m):
        return tuple(m.row(r) for r in range(m.rows))

    edge_rules = {}
    for e, inputs in code.edge_rules.items():
        new = []
        for inp in inputs:
            m = _matmul(t[e], rows(inp.matrix), p)
            if not inp.ref.startswith("src:"):
                m = _matmul(m, t_inv[inp.ref], p)
            new.append(nc.CodeInput(inp.ref, field(m)))
        edge_rules[e] = tuple(new)
    decode_rules = {
        term: tuple(
            nc.CodeInput(inp.ref, field(_matmul(rows(inp.matrix), t_inv[inp.ref], p)))
            for inp in inputs
        )
        for term, inputs in code.decode_rules.items()
    }
    return nc.FractionalCode(code.k, n, code.modulus, edge_rules, decode_rules, q=code.q)
