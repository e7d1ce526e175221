"""Slow reference implementations that the fast paths are tested against."""

import itertools


def slot_grassmannian_rows(q: int, m: int, d: int):
    """RREF row tuples of all d-subspaces of F_q^m, filled one free slot
    at a time: pivot combinations, then the last slot fastest."""
    for pivots in itertools.combinations(range(m), d):
        slots = [(i, c) for i in range(d)
                 for c in range(pivots[i] + 1, m) if c not in pivots]
        for vals in itertools.product(range(q), repeat=len(slots)):
            rows = [[int(c == p) for c in range(m)] for p in pivots]
            for (i, c), v in zip(slots, vals):
                rows[i][c] = v
            yield tuple(tuple(r) for r in rows)
