"""Slow reference implementations that the fast paths are tested against."""

import itertools
import re
from collections import Counter, defaultdict
from fractions import Fraction
from operator import add

from qsteiner.counting import count_N, covering_coefficient
from qsteiner.designs import DesignParams, EquationViolation, VerificationReport
from qsteiner.equations import SolveOutcome
from qsteiner.field import make_field
from qsteiner.subspaces import (Subspace, _combine, extension_raise_dim,
                                first_subspace, puncture, rows_key, rref,
                                subspaces_within, vector_code)


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


def object_oracle_C(s: int, t: int, r: int, k: int, q: int,
                    inner: Subspace | None = None,
                    outer: Subspace | None = None) -> int:
    """``counting.oracle_C`` on objects: one ``Subspace`` per
    t-subspace of the raised W (``subspaces_within``), each punctured
    by ``puncture`` and compared with the inner witness."""
    field = make_field(q)
    if outer is None:
        outer = first_subspace(field, r, r)
    if inner is None:
        inner = next(subspaces_within(outer, s))
    w = outer
    for _ in range(k - r):
        w = extension_raise_dim(w)
    return sum(puncture(tsub, k - r) == inner for tsub in subspaces_within(w, t))


# Dense Gauss-Jordan elimination over Fraction, one list per equation;
# ``equations.solve`` must return an equal SolveOutcome whose
# ``free_basis`` equals the basis returned beside it.
def dense_fraction_solve(system, pins: dict | None = None) -> tuple:
    """Exact Gaussian elimination after substituting the pinned values.

    Returns ``(outcome, basis)``.  The outcome has the full assignment
    (pins included).  When underdetermined, the assignment is the
    particular solution with all free variables set to zero and
    ``free_keys`` names them, and ``basis[key]`` is the homogeneous
    solution with that free variable set to 1, over the unpinned keys;
    otherwise ``basis`` is None.
    """
    pins = dict(pins or {})
    keys = list(system.variable_keys())
    key_index = {kk: i for i, kk in enumerate(keys)}
    for kk in pins:
        if kk not in key_index:
            raise KeyError(f"pin for unknown variable {kk!r}")
    free_positions = [i for i, kk in enumerate(keys) if kk not in pins]
    aug = []
    for row, b in zip(system.matrix, system.rhs):
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
            return SolveOutcome("inconsistent", {}, (), False), None

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
    return SolveOutcome(status, assignment, free_keys, nonneg), free_basis


# Object-keyed coverage: one Subspace per block, batched by (weight,
# dimension), each block's span listed from its row tuples, every
# Grassmannian enumerated and ordered by ``slot_grassmannian_rows``.
# Keys are the RREF matrix read row-major as one base-q number, first
# entry most significant.  ``designs.verify`` must return a
# VerificationReport equal to ``object_verify``'s.
def _object_code(digits, q: int) -> int:
    """The digits read as one base-q number, the first most significant."""
    code = 0
    for x in digits:
        code = code * q + x
    return code


def _object_multiple_codes(row: tuple, field) -> tuple:
    """Codes of a*row for a = 1..q-1."""
    q, mul = field.q, field.mul_table
    return tuple(_object_code([mul[a][x] for x in row], q) for a in range(1, q))


def _object_key(rows: tuple, q: int) -> int:
    return _object_code(sum(rows, ()), q)


def _object_span_codes(y: Subspace) -> list:
    """Codes of the vectors of y, indexed by coefficient ``vector_code``."""
    f, q = y.field, y.field.q
    if f.p == 2:
        span = [0]
        for row in y.rows:
            span += [v ^ mc for mc in _object_multiple_codes(row, f) for v in span]
        return span
    d = y.dim
    span = [0] * q ** d
    for (coeffs,) in slot_grassmannian_rows(q, d, 1):
        span[vector_code(coeffs, q)] = _object_code(
            _combine(f, y.ambient, coeffs, y.rows), q)
    return span


def _object_block_keys(y: Subspace, columns: tuple, big: int):
    """The keys of the s-subspaces of y, one per coefficient basis:
    ``columns[i]`` holds the coefficient codes of each basis's row i,
    and the rows go in top row first."""
    span = _object_span_codes(y)
    keys = map(span.__getitem__, columns[0])
    for col in columns[1:]:
        keys = map(add, map(big.__mul__, keys), map(span.__getitem__, col))
    return keys


def object_coverage(weighted_blocks, field, m: int, s: int):
    """``(rows, weight)`` for every s-subspace of F_q^m, its row tuples
    sorted, from ``(Subspace, weight)`` pairs."""
    q = field.q
    batches = defaultdict(list)
    for y, w in weighted_blocks:
        if s <= y.dim:
            batches[w, y.dim].append(y)
    cov: dict = {}
    for (w, d), ys in batches.items():
        if s == d:
            counts = Counter(_object_key(y.rows, q) for y in ys)
        elif s == 0:
            counts = {0: len(ys)}
        else:
            columns = tuple(zip(*(tuple(vector_code(r, q) for r in rows)
                                  for rows in sorted(slot_grassmannian_rows(q, d, s)))))
            counts = Counter(itertools.chain.from_iterable(
                _object_block_keys(y, columns, q ** m) for y in ys))
        for key, c in counts.items():
            cov[key] = cov.get(key, 0) + c * w
    for rows in sorted(slot_grassmannian_rows(q, m, s)):
        yield rows, cov.get(_object_key(rows, q), 0)


def object_verify(design) -> VerificationReport:
    """``designs.verify`` over ``design.blocks`` and ``object_coverage``."""
    pr = design.params
    q, t, k, n, m = pr.q, pr.t, pr.k, pr.n, pr.m
    field = make_field(q)
    blocks = dict(design.blocks.items())
    bad_dims = tuple((b, b.dim) for b in blocks if b.dim not in pr.r_range())
    violations = []
    checked = 0
    for s in pr.s_range():
        expected = count_N(s, m, t, n, q)
        weighted = [(y, mult * covering_coefficient(s, t, y.dim, k, q))
                    for y, mult in blocks.items()]
        for rows, got in object_coverage(weighted, field, m, s):
            checked += 1
            if got != expected:
                violations.append(EquationViolation(
                    s, Subspace(field, m, rows), got, expected))
    return VerificationReport(not violations and not bad_dims, checked,
                              tuple(violations), bad_dims, sum(blocks.values()))


# Every vector of a span, enumerated from the field tables: each row in
# turn adds each of its multiples to every vector found so far.  No row
# reduction, so ``object_transform`` compares images with no code from
# the elimination it checks.
def object_span(field, m: int, rows) -> frozenset:
    """The set of all vectors of F_q^m in the span of ``rows``."""
    add, mul = field.add_table, field.mul_table
    span = {(0,) * m}
    for row in rows:
        span = {tuple(add[x][mul[c][y]] for x, y in zip(v, row))
                for v in span for c in range(field.q)}
    return frozenset(span)


# Object-level column transform: each column operation applied to every
# row of every block in turn, each image taken as its set of vectors
# (``object_span``).  ``designs.apply_transform`` must give blocks with
# the same vector sets.
def object_transform(blocks, column_ops) -> Counter:
    """The images of ``blocks``, a ``{Subspace: multiplicity}`` mapping,
    under the column operations, each as its ``object_span``;
    multiplicities of equal images add up.

    An operation ``(j, coeffs)`` replaces entry j of a row by the
    combination of the row's entries with those coefficients."""
    out = Counter()
    for b, mult in blocks.items():
        add, mul = b.field.add_table, b.field.mul_table
        rows = [list(r) for r in b.rows]
        for j, coeffs in column_ops:
            for row in rows:
                acc = 0
                for c, x in zip(coeffs, row):
                    acc = add[acc][mul[c][x]]
                row[j] = acc
        out[object_span(b.field, b.ambient, rows)] += mult
    return out


# A design file read line by line and each row digit by digit: a block
# is accepted iff ``rref`` leaves its rows unchanged, and keyed by
# ``rows_key``.  ``files.parse_design`` must accept exactly the texts
# this accepts, with equal parameters and equal tables in equal order.
_BLOCK_LINE = re.compile(r"\s*block\s+(\S+)\s+(\S+)\s+(\S.*)", re.DOTALL)


def _object_number(token: str) -> int:
    if not token or any(c not in "0123456789" for c in token):
        raise ValueError(f"{token!r} is not written in decimal digits")
    return int(token)


def _object_row(text: str, q: int, m: int) -> tuple:
    tokens = list(text) if q <= 9 else text.split()
    row = tuple(_object_number(token) for token in tokens)
    if len(row) != m or any(x >= q for x in row):
        raise ValueError(f"row {text!r} is not a vector of F_{q}^{m}")
    return row


def object_parse_design(text: str) -> tuple:
    """``(params, tables)`` of the design file ``text``, ``tables[d]``
    mapping the key of each d-dimensional block to its multiplicity, in
    line order; ValueError if ``text`` is not a design file."""
    lines = text.splitlines()
    filled = [i for i, ln in enumerate(lines) if ln.strip()]
    if len(filled) < 2 or lines[filled[0]].strip() != "qsteiner-design v1":
        raise ValueError("no header and parameter line")
    values = {}
    for token in lines[filled[1]].split():
        name, eq, value = token.partition("=")
        if not eq or len(name) != 1 or name not in "qtknm" or name in values:
            raise ValueError(f"bad parameter {token!r}")
        values[name] = _object_number(value)
    if len(values) != 5:
        raise ValueError("a parameter is missing")
    params = DesignParams(*[values[name] for name in "qtknm"])
    q, m = params.q, params.m
    field = make_field(q)
    tables: dict = {}
    for ln in lines[filled[1] + 1:]:
        if not ln.strip():
            continue
        match = _BLOCK_LINE.fullmatch(ln)
        if match is None:
            raise ValueError(f"bad block line {ln!r}")
        mult, dim = _object_number(match[1]), _object_number(match[2])
        if mult < 1:
            raise ValueError(f"multiplicity {mult} in {ln!r}")
        if match[3] == "-":
            if dim != 0:
                raise ValueError(f"no rows in {ln!r}")
            key = 0
        else:
            rows = tuple(_object_row(part, q, m) for part in match[3].split(";"))
            if len(rows) != dim or rref(field, rows).rows != rows:
                raise ValueError(f"rows of {ln!r} are no RREF basis of dimension {dim}")
            key = rows_key(q, rows)
        table = tables.setdefault(dim, {})
        if key in table:
            raise ValueError(f"{ln!r} repeats a block")
        table[key] = mult
    return params, tables
