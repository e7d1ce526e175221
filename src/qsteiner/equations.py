"""Counting-equation systems for punctured q-Steiner systems and their
exact rational solution.

One type, ``EquationSystem``, holds both flavours.  The uniform
system has one equation per covered dimension s and one unknown X_r
per block dimension r, with coefficient D_{s,r,m} * C_{(s,t),(r,k)}.
The full system has one equation per s-subspace X of F_q^m and one
unknown a_Y per r-subspace Y, with coefficient C_{(s,t),(r,k)} when
X <= Y and 0 otherwise, placed by the verifier's coverage kernel;
``designs.verify`` checks a design against these equations without
materializing them.  Either system stores only its equations' nonzero
coefficients, as sparse ``{column: coefficient}`` rows, which is what
``solve`` reads; the dense ``matrix`` is derived when read.  All
arithmetic is exact: coefficients are integers, elimination is sparse
and fraction-free over Python integers, ``fractions.Fraction`` values
are formed only where a substitution does not divide exactly and for
the answer (the free basis on first read), and a solution is only ever
reported when it satisfies every equation exactly.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from heapq import heappop, heappush
from math import gcd

from .counting import count_D, count_N, covering_coefficient, gaussian
from .designs import DesignParams, check_recursive_k
from .field import make_field
from .subspaces import _decode_key, _within_columns, grassmannian_keys

# Largest number of nonzero coefficients a materialized full system may
# have (``full_system_nonzeros``).
FULL_SYSTEM_GUARD = 10 ** 6


class NonIntegralSolution(ValueError):
    """A closed-form family evaluates to a non-integer multiplicity."""


@dataclass(frozen=True)
class EquationSystem:
    """One equation per subject, one unknown per variable: the uniform
    system's subjects and variables are the dimensions s and r, the full
    system's the s- and r-subspaces.

    ``rows[i]`` holds equation i's nonzero coefficients only, as
    ``{column: coefficient}`` with columns indexing ``variables``; they
    are never changed.  ``matrix`` is the dense view of them, built
    each time it is read.
    """

    params: DesignParams
    subjects: tuple        # canonical order, dims ascending
    variables: tuple       # canonical order, dims ascending
    rows: tuple            # per subject, {column: nonzero integer coefficient}
    rhs: tuple

    def variable_keys(self) -> tuple:
        return self.variables

    @property
    def matrix(self) -> tuple:
        """The integer coefficient rows, dense, aligned with variables."""
        dense = []
        for row in self.rows:
            coeffs = [0] * len(self.variables)
            for j, c in row.items():
                coeffs[j] = c
            dense.append(tuple(coeffs))
        return tuple(dense)


@dataclass(frozen=True)
class SolveOutcome:
    """Result of exact elimination: unique / underdetermined /
    inconsistent, the assignment (a particular solution when
    underdetermined), and whether it is entirely nonnegative integers.

    For underdetermined systems ``free_basis[key]`` is the homogeneous
    solution with that free variable set to 1, so the full solution set
    is the assignment plus any rational combination of the basis.  Each
    vector has an entry for every unpinned key; pinned keys are absent.
    The basis is built the first time it is read, by reducing copies of
    the echelon rows, then cached; it is None unless the system is
    underdetermined.
    """

    status: str
    assignment: dict
    free_keys: tuple
    nonneg_integer: bool
    # free_basis is built from the unpinned keys in column order and the
    # echelon rows, (column, row), the right-hand side at len(_unpinned);
    # the rows are left unreduced until then, and never changed
    _unpinned: tuple = dataclasses.field(default=(), compare=False, repr=False)
    _pivot_rows: tuple = dataclasses.field(default=(), compare=False, repr=False)

    @cached_property
    def free_basis(self) -> dict | None:
        if self.status != "underdetermined":
            return None
        # back substitution, last pivot first, leaves each pivot row zero
        # in every other pivot column: nonzero only at its pivot, free
        # columns and the right-hand side
        pivot_rows = [(col, dict(row)) for col, row in self._pivot_rows]
        for j in range(len(pivot_rows) - 1, 0, -1):
            col, prow = pivot_rows[j]
            for _, row in pivot_rows[:j]:
                if col in row:
                    _clear(row, col, prow, [])
        unpinned, ncol = self._unpinned, len(self._unpinned)
        template = dict.fromkeys(unpinned, Fraction(0))
        basis = {}
        for key in self.free_keys:
            basis[key] = vec = template.copy()
            vec[key] = Fraction(1)
        for col, row in pivot_rows:
            lead = row[col]
            for c, v in row.items():
                if c != col and c != ncol:
                    basis[unpinned[c]][unpinned[col]] = Fraction(-v, lead)
        return basis


def build_uniform(q: int, t: int, k: int, n: int, m: int) -> EquationSystem:
    """The uniform equation system for S_q(t,k,n;m)."""
    params = DesignParams(q, t, k, n, m)
    subjects = tuple(params.s_range())
    variables = tuple(params.r_range())
    rows = []
    for s in subjects:
        products = ((j, count_D(s, r, m, q) * covering_coefficient(s, t, r, k, q))
                    for j, r in enumerate(variables) if r >= s)
        rows.append({j: c for j, c in products if c})
    return EquationSystem(params, subjects, variables, tuple(rows),
                          tuple(count_N(s, m, t, n, q) for s in subjects))


def full_system_nonzeros(q: int, t: int, k: int, n: int, m: int) -> int:
    """The number of nonzero coefficients of the full system of
    S_q(t,k,n;m): each of the [m r]_q r-subspaces holds [r s]_q
    s-subspaces, for every (s, r) with a nonzero covering coefficient."""
    params = DesignParams(q, t, k, n, m)
    return sum(gaussian(m, r, q) * gaussian(r, s, q)
               for r in params.r_range() for s in params.s_range()
               if covering_coefficient(s, t, r, k, q))


def build_full(q: int, t: int, k: int, n: int, m: int) -> EquationSystem:
    """The per-subspace equation system for S_q(t,k,n;m), placed by
    the coverage kernel: ``subspaces._within_columns`` lists the keys of
    the s-subspaces X of each r-subspace Y; row X gets C_{(s,t),(r,k)}
    in column Y, and no entry where the coefficient is 0.

    Guarded: systems beyond FULL_SYSTEM_GUARD nonzero coefficients are
    refused before anything is built; check a design against them with
    the streaming verifier instead.
    """
    params = DesignParams(q, t, k, n, m)
    nonzeros = full_system_nonzeros(q, t, k, n, m)
    if nonzeros > FULL_SYSTEM_GUARD:
        # named by its bits where its decimal would pass the int-to-str
        # digit limit (none before Python 3.10.7): 2^(3 limit) < 10^limit
        bits = nonzeros.bit_length()
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        count = nonzeros if not limit or bits <= 3 * limit else f"at least 2^{bits - 1}"
        raise ValueError(f"full system would have {count} nonzero coefficients "
                         f"(> {FULL_SYSTEM_GUARD}); use the streaming verifier")
    field = make_field(q)
    s_rng, r_rng = params.s_range(), params.r_range()
    # each Grassmannian listed and decoded once, for rows and columns
    keys = {d: grassmannian_keys(q, m, d) for d in {*s_rng, *r_rng}}
    decoded = {d: [_decode_key(field, m, key) for key in keys[d]] for d in keys}
    row_at = {key: {} for s in s_rng for key in keys[s]}
    offset = 0
    for r in r_rng:
        for s in s_rng:
            c = covering_coefficient(s, t, r, k, q)
            if c:
                for start, column in _within_columns(field, m, r, keys[r], s):
                    for j, key in enumerate(column, offset + start):
                        row_at[key][j] = c
        offset += len(keys[r])
    return EquationSystem(params, tuple(x for s in s_rng for x in decoded[s]),
                      tuple(y for r in r_rng for y in decoded[r]),
                      tuple(row_at.values()),
                      tuple(b for s in s_rng
                            for b in [count_N(s, m, t, n, q)] * len(keys[s])))


def _clear(row: dict, col: int, prow: dict, heap: list) -> None:
    """Clear column col of row in place by the pivot row prow: row
    becomes a * row - b * prow, with a = p / g and b = f / g for the
    leads p of prow and f of row and g = gcd(p, f).

    Each column row gains is pushed onto ``heap``, so a heap that held
    every column of row still does; columns that cancel stay in it.
    With a = 1 the work is proportional to prow.  Otherwise every entry
    of row is scaled, and only then, as that pass reads every entry
    anyway, is the content (the gcd of the entries) divided out too.
    """
    p, f = prow[col], row[col]
    g = gcd(p, f)
    a, b = p // g, f // g
    if a != 1:
        for c in row:
            row[c] *= a
    for c, v in prow.items():
        w = row.get(c)
        if w is None:
            row[c] = -b * v
            heappush(heap, c)
        else:
            w -= b * v
            if w:
                row[c] = w
            else:
                del row[c]
    if a != 1:
        content = gcd(*row.values())
        if content > 1:
            for c in row:
                row[c] //= content


def solve(system, pins: dict | None = None) -> SolveOutcome:
    """Exact elimination after substituting the pinned values.

    The system gives ``variable_keys()``, ``rhs`` and ``rows``, each
    equation's nonzero integer coefficients as ``{column: coefficient}``
    with columns indexing ``variable_keys()``; ``rows`` is read, never
    changed.  Elimination is sparse and fraction-free: each equation is
    a copy of its row, pins substituted over its nonzeros, with the
    right-hand side in the column after the last unknown, all scaled by
    the denominator of that right-hand side.  A row is cleared of a
    pivot column by cross-multiplying with the pivot row (``_clear``),
    in time proportional to the pivot row unless the row is scaled.
    Forward elimination clears each pivot column from the rows not yet
    pivoted, picking the pivot row with the fewest entries, then the
    smallest lead, then the first, and leaves the pivot rows in echelon
    form.  A row waits in the bucket of its smallest column; the first
    time it is cleared it gets a heap of its columns, which ``_clear``
    extends by the columns it gains, so its next smallest column is
    popped from the heap rather than found by reading the row.  Any
    echelon form of the same rows leads in the same columns, so the
    free keys and the answer do not depend on how the rows were scaled.
    Substitution over the pivot rows, last pivot first, gives each pivot
    variable as right-hand side minus the known terms over lead, in
    integers while the division is exact and as a ``Fraction`` once it
    is not.  The pivot rows are reduced further only for
    ``SolveOutcome.free_basis``, on its first read.

    Returns the full assignment (pins included).  When underdetermined,
    the assignment is the particular solution with all free variables
    set to zero and ``free_keys`` names them.  The system's coefficients
    must be integers.
    """
    pins = dict(pins or {})
    keys = list(system.variable_keys())
    key_index = {kk: i for i, kk in enumerate(keys)}
    for kk in pins:
        if kk not in key_index:
            raise KeyError(f"pin for unknown variable {kk!r}")
    pinned = {key_index[kk]: Fraction(v) for kk, v in pins.items()}
    unpinned = [kk for kk in keys if kk not in pins]
    column = {key_index[kk]: c for c, kk in enumerate(unpinned)}
    ncol = len(unpinned)
    rows = []
    for coeffs, b in zip(system.rows, system.rhs):
        if pinned:
            # an int until a pin makes it a Fraction; both have a
            # numerator and a denominator
            row = {}
            for pos, v in coeffs.items():
                if pos in pinned:
                    b -= v * pinned[pos]
                else:
                    row[column[pos]] = v
            if b.denominator != 1:
                row = {c: v * b.denominator for c, v in row.items()}
        else:
            # elimination clears rows in place
            row = dict(coeffs)
        if b:
            row[ncol] = b.numerator
        rows.append(row)

    # forward elimination on the rows not yet pivoted, which hold column
    # col iff it is their smallest, so they wait in buckets by that
    pivots = []            # (column, row index), columns ascending
    buckets = [[] for _ in range(ncol + 1)]
    heaps = {}             # row index -> heap holding its columns
    for i, row in enumerate(rows):
        if row:
            buckets[min(row)].append(i)
    for col in range(ncol):
        cands = buckets[col]
        if not cands:
            continue
        # the sparsest row, then the smallest lead, then the first row,
        # keeps the fill-in and the integers small
        pr = min(cands, key=lambda i: (len(rows[i]), abs(rows[i][col]), i))
        heaps.pop(pr, None)
        prow = rows[pr]
        for i in cands:
            if i != pr:
                row = rows[i]
                heap = heaps.get(i)
                if heap is None:
                    heap = heaps[i] = sorted(row)
                _clear(row, col, prow, heap)
                while heap and heap[0] not in row:
                    heappop(heap)
                if heap:
                    buckets[heap[0]].append(i)
                else:
                    del heaps[i]
        pivots.append((col, pr))

    # a row never pivoted and not cleared to zero holds a right-hand side
    if buckets[ncol]:
        return SolveOutcome("inconsistent", {}, (), False)

    # particular solution, free variables fixed to zero: a pivot row is
    # zero left of its pivot, so the variables right of it are known
    known = {}             # column -> nonzero value
    for col, i in reversed(pivots):
        row = rows[i]
        rest = row.get(ncol, 0) - sum(v * known[c] for c, v in row.items()
                                      if c in known)
        if rest:
            quotient, remainder = divmod(rest, row[col])
            known[col] = Fraction(rest, row[col]) if remainder else quotient
    assignment = {kk: Fraction(v) for kk, v in pins.items()}
    assignment.update((kk, Fraction(known.get(c, 0))) for c, kk in enumerate(unpinned))
    pivot_cols = {col for col, _ in pivots}
    free_keys = tuple(kk for c, kk in enumerate(unpinned) if c not in pivot_cols)
    status = "unique" if not free_keys else "underdetermined"
    nonneg = all(v.denominator == 1 and v >= 0 for v in assignment.values())
    return SolveOutcome(status, assignment, free_keys, nonneg, tuple(unpinned),
                        tuple((col, rows[i]) for col, i in pivots))


# ---------------------------------------------------------------------------
# Published closed-form uniform solutions
# ---------------------------------------------------------------------------

def _family_2_3_odd(q: int, k: int) -> dict:
    check_recursive_k(k)
    x0 = Fraction(gaussian(k, 2, q), gaussian(3, 2, q))
    return {0: x0, 1: Fraction(0), 2: Fraction(q ** (k - 1)),
            3: Fraction(q ** (k + 1) * (q - 1))}


def _family_3_4_even(q: int, k: int) -> dict:
    if k < 4 or k % 6 not in (2, 4):
        raise ValueError(f"family S_q(3,4,2k;k) needs k = 2 or 4 (mod 6), "
                         f"k >= 4, got k={k}")
    x0 = Fraction(gaussian(k, 3, q), gaussian(4, 3, q))
    x2 = Fraction(q ** (k - 2) * (q ** k - 1), q ** 2 - 1)
    x4 = Fraction((q ** (3 * k) - q ** (2 * k + 3) + q ** (k + 3)) * (q - 1),
                  q ** (k - 3) - 1)
    return {0: x0, 1: Fraction(0), 2: x2, 3: Fraction(q ** k * (q ** k - 1)),
            4: x4}


def _family(name: str, k: int | None) -> tuple:
    """The (t, k, n, m) parameters behind a family name and its closed
    form as a function of q; the two parametric families need k."""
    if name in ("S(2,3,2k+1;k+1)", "S(3,4,2k;k)") and k is None:
        raise ValueError(f"family {name} needs the parameter k")
    if name in ("S(2,3,2k+1;k+1)", "S(2,3,7;4)"):
        k = 3 if name == "S(2,3,7;4)" else k
        return (2, 3, 2 * k + 1, k + 1), partial(_family_2_3_odd, k=k)
    if name in ("S(3,4,2k;k)", "S(3,4,8;4)"):
        k = 4 if name == "S(3,4,8;4)" else k
        return (3, 4, 2 * k, k), partial(_family_3_4_even, k=k)
    if name == "S(4,5,11;6)":
        return (4, 5, 11, 6), lambda q: {
            0: Fraction(1), 1: Fraction(0),
            2: Fraction(q ** 2 * (q ** 2 + 1)),
            3: Fraction(q ** 9 + q ** 7 - q ** 4),
            4: Fraction(q ** 14 - q ** 9 + q ** 7),
            5: Fraction((q ** 18 + q ** 11) * (q - 1))}
    if name == "S(5,6,12;6)":
        # the s=1 equation forces X_2 = q^2 [6 4]_q / [5 1]_q = q^2(q^4+q^2+1)
        return (5, 6, 12, 6), lambda q: {
            0: Fraction(1), 1: Fraction(0),
            2: Fraction(q ** 2 * (q ** 4 + q ** 2 + 1)),
            3: Fraction(q ** 4 * (q ** 8 + q ** 6 + q ** 5 - 1)),
            4: Fraction(q ** 7 * (q ** 11 + q ** 9 + q ** 7 - q ** 6 + 1)),
            5: Fraction(q ** 11 * (q ** 13 - q ** 7 + q ** 6 - 1)),
            6: Fraction(q ** 16 * (q ** 14 - q ** 13 + q ** 7 - q ** 6 + 1))}
    raise ValueError(f"unknown uniform family {name!r}")


def uniform_family_solution(name: str, q: int, k: int | None = None) -> dict:
    """Evaluate a published closed-form uniform solution at the given q
    (and k, for the two parametric families).

    Raises NonIntegralSolution when a multiplicity comes out
    non-integral (the S_q(3,4,2k;k) family for every k except 4).
    """
    values = _family(name, k)[1](q)
    for r, v in values.items():
        if v.denominator != 1:
            raise NonIntegralSolution(
                f"family {name} at q={q}" + (f", k={k}" if k is not None else "")
                + f" gives the non-integer X_{r} = {v}")
    return {r: int(v) for r, v in values.items()}


def family_system_params(name: str, k: int | None = None) -> tuple:
    """The (t, k, n, m) design parameters behind a family name."""
    return _family(name, k)[0]
