"""Slow reference implementations that the fast paths are tested against."""

import itertools
from fractions import Fraction

from qsteiner.equations import SolveOutcome


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


# Dense Gauss-Jordan elimination over Fraction, one list per equation;
# ``equations.solve`` must return an equal SolveOutcome.
def dense_fraction_solve(system, pins: dict | None = None) -> SolveOutcome:
    """Exact Gaussian elimination after substituting the pinned values.

    Returns the full assignment (pins included).  When underdetermined,
    the assignment is the particular solution with all free variables
    set to zero and ``free_keys`` names them.
    """
    pins = dict(pins or {})
    keys = list(system.variable_keys())
    key_index = {kk: i for i, kk in enumerate(keys)}
    for kk in pins:
        if kk not in key_index:
            raise KeyError(f"pin for unknown variable {kk!r}")
    free_positions = [i for i, kk in enumerate(keys) if kk not in pins]
    aug = []
    for row, b in zip(system.rows(), system.rhs):
        rhs_val = Fraction(b)
        for kk, val in pins.items():
            rhs_val -= Fraction(row[key_index[kk]]) * Fraction(val)
        aug.append([Fraction(row[i]) for i in free_positions] + [rhs_val])

    ncol = len(free_positions)
    pivot_cols = []
    rank = 0
    for col in range(ncol):
        # smallest-numerator pivot keeps the fraction growth down
        cands = [i for i in range(rank, len(aug)) if aug[i][col] != 0]
        if not cands:
            continue
        pr = min(cands, key=lambda i: (abs(aug[i][col].numerator),
                                       aug[i][col].denominator))
        aug[rank], aug[pr] = aug[pr], aug[rank]
        lead = aug[rank][col]
        if lead != 1:
            aug[rank] = [x / lead for x in aug[rank]]
        prow = aug[rank]
        for i in range(len(aug)):
            if i != rank and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], prow)]
        pivot_cols.append(col)
        rank += 1

    for i in range(rank, len(aug)):
        if aug[i][-1] != 0:
            return SolveOutcome("inconsistent", {}, (), False)

    assignment = {kk: Fraction(v) for kk, v in pins.items()}
    free_cols = [c for c in range(ncol) if c not in pivot_cols]
    # particular solution: free variables fixed to zero
    values = [Fraction(0)] * ncol
    for i, col in enumerate(pivot_cols):
        values[col] = aug[i][-1]
    for c in range(ncol):
        assignment[keys[free_positions[c]]] = values[c]
    status = "unique" if not free_cols else "underdetermined"
    free_keys = tuple(keys[free_positions[c]] for c in free_cols)
    free_basis = None
    if free_cols:
        free_basis = {}
        for fc in free_cols:
            vec = {kk: Fraction(0) for kk in keys if kk not in pins}
            vec[keys[free_positions[fc]]] = Fraction(1)
            for i, col in enumerate(pivot_cols):
                vec[keys[free_positions[col]]] = -aug[i][fc]
            free_basis[keys[free_positions[fc]]] = vec
    nonneg = all(v.denominator == 1 and v >= 0 for v in assignment.values())
    return SolveOutcome(status, assignment, free_keys, nonneg, free_basis)
