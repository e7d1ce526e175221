"""Exact subspace counts and their brute-force oracles.

Closed forms:

* ``gaussian(n, k, q)`` -- the q-binomial coefficient, the size of the
  Grassmannian of k-subspaces of F_q^n.
* ``covering_coefficient(s, t, r, k, q)`` -- t-subspaces of F_q^k
  whose (k-r)-puncture is a fixed s-subspace of F_q^r:
  gaussian(k-r, t-s) * q^{s(k-r-t+s)}, and 0 where no such
  t-subspace exists.  It is the one copy of the formula behind both
  of the paper's counts:
* ``count_N(s, m, t, n, q)`` -- t-subspaces of F_q^n extending a fixed
  s-subspace of F_q^m, the formula with (m, n) for (r, k).
* ``count_C(s, t, r, k, q)`` -- copies of the t-expansion of an
  s-subspace inside the k-expansion of a containing r-subspace.
* ``count_D(s, r, m, q)`` -- r-subspaces of F_q^m containing a fixed
  s-subspace: gaussian(m-s, r-s).

Every closed form has an independent oracle that counts by exhaustive
enumeration; no oracle evaluates a formula.  Each enumerates by pivot
cell or on keys (``subspaces.rows_key``), never one ``Subspace`` per
subspace:

* ``oracle_N`` reads the weight of the witness's pivots in a census of
  the punctures of every t-subspace of F_q^n: one weight per set of
  pivots left of the deleted columns, the cells sharing it summed.
* ``oracle_C`` lists the t-subspaces of the raised k-subspace as keys
  and punctures each on its key.
* ``oracle_D`` sums, over the pivot sets holding the witness's pivots,
  q to the number of entries the witness leaves free.

All values are exact arbitrary-precision integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .field import make_field
from .subspaces import (Subspace, _within_columns, contains,
                        extension_raise_dim, first_subspace, row_codes,
                        rows_key, subspaces_within)

# Largest Grassmannian an oracle may count.  Only ``oracle_C`` lists
# one; ``oracle_N`` and ``oracle_D`` sum over pivot sets, and keep the
# guard so that every oracle, and the CLI, refuses the same inputs.
ORACLE_GUARD = 10 ** 7


def gaussian(n: int, k: int, q: int) -> int:
    """The q-binomial coefficient [n choose k]_q.

    Out-of-range arguments (k < 0 or k > n) return 0 by convention so
    that equation builders can sum over uniform bounds.  A field order
    q < 2 raises ValueError.
    """
    if q < 2:
        raise ValueError(f"need a field order q >= 2, got q={q}")
    if k < 0 or n < 0 or k > n:
        return 0
    num = den = 1
    for i in range(min(k, n - k)):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def count_N(s: int, m: int, t: int, n: int, q: int) -> int:
    """Number of t-subspaces of F_q^n whose (n-m)-puncture is a fixed
    s-subspace of F_q^m: ``covering_coefficient`` with (m, n) for
    (r, k), on the arguments for which it is defined."""
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n, got m={m}, n={n}")
    if not 0 <= s <= t:
        raise ValueError(f"need 0 <= s <= t, got s={s}, t={t}")
    if s > m:
        raise ValueError(f"no s-subspace of F_q^{m} with s={s}")
    if t - s > n - m:
        raise ValueError(f"cannot raise dimension by {t - s} in {n - m} coordinates")
    return covering_coefficient(s, t, m, n, q)


def count_C(s: int, t: int, r: int, k: int, q: int) -> int:
    """Number of copies of the t-expansion of an s-subspace X inside
    the k-expansion of an r-subspace Y containing X:
    ``covering_coefficient`` on the arguments for which it is defined."""
    if not 0 <= s <= t < k:
        raise ValueError(f"need 0 <= s <= t < k, got s={s}, t={t}, k={k}")
    if not s <= r <= k - t + s:
        raise ValueError(f"need s <= r <= k-t+s, got r={r}")
    return covering_coefficient(s, t, r, k, q)


def count_D(s: int, r: int, m: int, q: int) -> int:
    """Number of r-subspaces of F_q^m containing a fixed s-subspace."""
    if not 0 <= s <= r <= m:
        raise ValueError(f"need 0 <= s <= r <= m, got s={s}, r={r}, m={m}")
    return gaussian(m - s, r - s, q)


def covering_coefficient(s: int, t: int, r: int, k: int, q: int) -> int:
    """The number of t-subspaces of F_q^k puncturing onto a fixed
    s-subspace of F_q^r, the one formula of ``count_N`` and
    ``count_C``, with the zero convention outside its range.

    Equation builders sum over every block dimension; a block of
    dimension r > k-t+s contributes no covering copies (the gaussian
    factor vanishes) and r < s cannot contain the subspace at all.
    """
    if r < s:
        return 0
    g = gaussian(k - r, t - s, q)
    if g == 0:
        return 0
    return g * q ** (s * (k - r - t + s))


@dataclass(frozen=True)
class DivisibilityEntry:
    i: int
    numerator: int
    denominator: int
    divides: bool


@dataclass(frozen=True)
class DivisibilityReport:
    """Outcome of the divisibility necessary conditions for S_q(t,k,n)."""

    q: int
    t: int
    k: int
    n: int
    entries: tuple
    ok: bool


def necessary_conditions(t: int, k: int, n: int, q: int) -> DivisibilityReport:
    """Check that gaussian(n-i, t-i) / gaussian(k-i, t-i) is an integer
    for every 0 <= i <= t-1."""
    if not 0 < t < k < n:
        raise ValueError(f"need 0 < t < k < n, got t={t}, k={k}, n={n}")
    entries = []
    for i in range(t):
        num = gaussian(n - i, t - i, q)
        den = gaussian(k - i, t - i, q)
        entries.append(DivisibilityEntry(i, num, den, num % den == 0))
    return DivisibilityReport(q, t, k, n, tuple(entries),
                              all(e.divides for e in entries))


@lru_cache(maxsize=16)
def _puncture_census(q: int, n: int, t: int, m: int) -> dict:
    """Map each set of pivots left of m to the number of t-subspaces of
    F_q^n puncturing onto any one subspace of F_q^m with those pivots;
    a pivot set onto which none punctures is absent.

    The t-subspaces are counted pivot cell by pivot cell, never one by
    one.  For a fixed pivot set the RREF rows vary independently in
    their free columns (right of the pivot, no pivot).  Puncturing
    deletes the columns from m on: a row leading there vanishes,
    whatever its free entries (all in deleted columns), and a row
    leading at p < m keeps its first m entries, which are still the
    RREF row leading at p of the image.  Such a cut row is
    ``q**(m-1-p)`` plus any row code of F_q^m free in the columns left
    of m that are no pivot, and each cut is hit by q**f choices of the
    row, f its free columns at or after m.  So a cell maps onto its
    images q**collapsed-to-1, ``collapsed`` counting the cell's free
    entries in the deleted columns.  The images depend only on the
    pivots left of m: they are exactly the d-subspaces of F_q^m with
    those pivots, cut row i of d placed at ``(q**m)**(d-1-i)``.  So the
    weights q**collapsed of the cells sharing those pivots are summed,
    and that sum is the count of each of their images.
    """
    weights: dict = {}
    for pivots in itertools.combinations(range(n), t):
        left = tuple(p for p in pivots if p < m)
        collapsed = sum(c not in pivots for p in pivots
                        for c in range(max(p + 1, m), n))
        weights[left] = weights.get(left, 0) + q ** collapsed
    return weights


def _check_guard(n: int, t: int, q: int) -> None:
    size = gaussian(n, t, q)
    if size > ORACLE_GUARD:
        raise ValueError(
            f"oracle would enumerate {size} subspaces (> {ORACLE_GUARD})")


def _witness(q: int, m: int, s: int, witness: Subspace | None) -> Subspace:
    """The witness s-subspace of F_q^m: the given one, checked, or by
    default the first."""
    field = make_field(q)
    if witness is None:
        return first_subspace(field, m, s)
    if witness.field.q != q:
        raise ValueError(f"witness lives over F_{witness.field.q}, not F_{q}")
    if witness.dim != s or witness.ambient != m:
        raise ValueError("witness does not match the requested (s, m)")
    return witness


def oracle_N(s: int, m: int, t: int, n: int, q: int,
             witness: Subspace | None = None) -> int:
    """Brute-force count_N: count the t-subspaces of F_q^n puncturing
    onto the witness s-subspace of F_q^m, pivot cell by pivot cell, as
    the weight of the witness's pivots in ``_puncture_census``."""
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n, got m={m}, n={n}")
    _check_guard(n, t, q)
    pivots = _witness(q, m, s, witness).pivots
    return _puncture_census(q, n, t, m).get(pivots, 0)


def oracle_C(s: int, t: int, r: int, k: int, q: int,
             inner: Subspace | None = None,
             outer: Subspace | None = None) -> int:
    """Brute-force count_C.

    Picks an r-subspace Y containing an s-subspace X (by default Y is
    the whole space F_q^r, and X is Y's first s-subspace), raises Y to a
    k-subspace W by repeated unique dimension-raising extension, and
    counts the t-subspaces of W that puncture back onto X.  The
    t-subspaces are listed as keys (``_within_columns``) and punctured
    on keys: each row code is cut by ``q**p``, p = k - r, and the rows
    that cut to 0 are dropped.
    """
    if not 0 <= s <= t < k:
        raise ValueError(f"need 0 <= s <= t < k, got s={s}, t={t}, k={k}")
    if not s <= r <= k:
        raise ValueError(f"need s <= r <= k, got r={r}")
    _check_guard(k, t, q)
    field = make_field(q)
    if outer is None:
        outer = first_subspace(field, r, r)
    if inner is None:
        inner = next(subspaces_within(outer, s))
    if outer.dim != r or inner.dim != s or not contains(outer, inner):
        raise ValueError("witness pair is not an s-subspace inside an r-subspace")
    w = outer
    for _ in range(k - r):
        w = extension_raise_dim(w)
    n = w.ambient
    small, cut = q ** outer.ambient, q ** (k - r)
    target = rows_key(q, inner.rows)
    total = 0
    for _, column in _within_columns(field, n, k, [rows_key(q, w.rows)], t):
        for key in column:
            image = 0
            for code in row_codes(key, q, n):
                if code >= cut:
                    image = image * small + code // cut
            total += image == target
    return total


def oracle_D(s: int, r: int, m: int, q: int,
             witness: Subspace | None = None) -> int:
    """Brute-force count_D: count the r-subspaces of F_q^m containing
    the witness s-subspace X, pivot cell by pivot cell.

    An RREF Y with pivots P holds X only if P holds X's pivots, since
    every vector of Y leads at a pivot of Y.  Then Y holds X iff its
    row leading at each pivot p of X is X's row leading at p minus the
    sum, over the pivots c of Y that are no pivot of X, of X's entry at
    c times Y's row leading at c; that difference is an RREF row of
    pivots P whatever Y's other rows are.  So X fixes Y's rows leading
    at its pivots, Y's other rows stay free, and the cell of P holds
    q**f subspaces containing X, f the free entries (right of their
    row's pivot, in no pivot column) of the rows leading outside X's
    pivots.
    """
    if not 0 <= s <= r <= m:
        raise ValueError(f"need 0 <= s <= r <= m, got s={s}, r={r}, m={m}")
    _check_guard(m, r, q)
    fixed = _witness(q, m, s, witness).pivots
    total = 0
    for pivots in itertools.combinations(range(m), r):
        if set(fixed) <= set(pivots):
            total += q ** sum(c not in pivots for p in pivots if p not in fixed
                              for c in range(p + 1, m))
    return total
