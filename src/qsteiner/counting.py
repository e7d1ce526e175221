"""Exact subspace counts and their brute-force oracles.

Closed forms:

* ``gaussian(n, k, q)`` -- the q-binomial coefficient, the size of the
  Grassmannian of k-subspaces of F_q^n.
* ``count_N(s, m, t, n, q)`` -- t-subspaces of F_q^n extending a fixed
  s-subspace of F_q^m: q^{s(n-m-t+s)} * gaussian(n-m, t-s).
* ``count_C(s, t, r, k, q)`` -- copies of the t-expansion of an
  s-subspace inside the k-expansion of a containing r-subspace:
  gaussian(k-r, t-s) * q^{s(k-r-t+s)}.
* ``count_D(s, r, m, q)`` -- r-subspaces of F_q^m containing a fixed
  s-subspace: gaussian(m-s, r-s).

Every closed form has an independent oracle that counts by exhaustive
enumeration; the oracles never evaluate the formulas.  ``oracle_N``
reads a census of the punctures of every t-subspace of F_q^n, keyed by
the image's key (``subspaces.rows_key``) rather than by ``Subspace``
objects; each pivot cell of t-subspaces is enumerated by its punctured
images, each weighted by the choices the puncture collapses.  All values
are exact arbitrary-precision integers.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .field import make_field
from .subspaces import (Subspace, _code_row, _free_codes, _places, contains,
                        extension_raise_dim, first_subspace, puncture,
                        rows_key, subspaces_within, vector_code)

# Largest Grassmannian an oracle is allowed to enumerate.
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
    s-subspace of F_q^m."""
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n, got m={m}, n={n}")
    if not 0 <= s <= t:
        raise ValueError(f"need 0 <= s <= t, got s={s}, t={t}")
    if s > m:
        raise ValueError(f"no s-subspace of F_q^{m} with s={s}")
    if t - s > n - m:
        raise ValueError(f"cannot raise dimension by {t - s} in {n - m} coordinates")
    return q ** (s * (n - m - t + s)) * gaussian(n - m, t - s, q)


def count_C(s: int, t: int, r: int, k: int, q: int) -> int:
    """Number of copies of the t-expansion of an s-subspace X inside
    the k-expansion of an r-subspace Y containing X."""
    if not 0 <= s <= t < k:
        raise ValueError(f"need 0 <= s <= t < k, got s={s}, t={t}, k={k}")
    if not s <= r <= k - t + s:
        raise ValueError(f"need s <= r <= k-t+s, got r={r}")
    return gaussian(k - r, t - s, q) * q ** (s * (k - r - t + s))


def count_D(s: int, r: int, m: int, q: int) -> int:
    """Number of r-subspaces of F_q^m containing a fixed s-subspace."""
    if not 0 <= s <= r <= m:
        raise ValueError(f"need 0 <= s <= r <= m, got s={s}, r={r}, m={m}")
    return gaussian(m - s, r - s, q)


def covering_coefficient(s: int, t: int, r: int, k: int, q: int) -> int:
    """count_C with the zero convention outside its r-range.

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
def _puncture_census(q: int, n: int, t: int, m: int) -> Counter:
    """Map each subspace of F_q^m, keyed by ``rows_key``, to the number
    of t-subspaces of F_q^n puncturing onto it.

    The t-subspaces are counted pivot cell by pivot cell, never one by
    one.  For a fixed pivot set the RREF rows vary independently in
    their free columns (right of the pivot, no pivot).  Puncturing
    deletes the columns from m on: a row leading there vanishes,
    whatever its free entries (all in deleted columns), and a row
    leading at p < m keeps its first m entries, which are still the
    RREF row leading at p of the image.  Such a cut row is
    ``q**(m-1-p)`` plus any row code of F_q^m free in the row's free
    columns left of m, and each cut is hit by q**f choices of the row,
    f its free columns at or after m.  So the cell maps onto its images
    q**collapsed-to-1, ``collapsed`` counting the cell's free entries in
    the deleted columns: each image is keyed once per cell, its cut row
    i of d placed at ``(q**m)**(d-1-i)``, and counted with that weight.
    """
    census: Counter = Counter()
    big = q ** m
    for pivots in itertools.combinations(range(n), t):
        places = _places(big, sum(p < m for p in pivots))
        cut, collapsed = [], 0
        for p in pivots:
            free = [c for c in range(p + 1, n) if c not in pivots]
            kept = [c for c in free if c < m]
            collapsed += len(free) - len(kept)
            if p < m:
                cut.append([(q ** (m - 1 - p) + code) * places[len(cut)]
                            for code in _free_codes(q, m, kept)])
        images = map(sum, itertools.product(*cut))
        if collapsed == 0:
            census.update(images)
        else:
            w = q ** collapsed
            get = census.get
            for key in images:
                census[key] = get(key, 0) + w
    return census


def _check_guard(n: int, t: int, q: int) -> None:
    size = gaussian(n, t, q)
    if size > ORACLE_GUARD:
        raise ValueError(
            f"oracle would enumerate {size} subspaces (> {ORACLE_GUARD})")


def oracle_N(s: int, m: int, t: int, n: int, q: int,
             witness: Subspace | None = None) -> int:
    """Brute-force count_N: enumerate all t-subspaces of F_q^n and count
    those puncturing onto the witness s-subspace of F_q^m."""
    if not 0 < m < n:
        raise ValueError(f"need 0 < m < n, got m={m}, n={n}")
    _check_guard(n, t, q)
    field = make_field(q)
    if witness is None:
        witness = first_subspace(field, m, s)
    if witness.field.q != q:
        raise ValueError(f"witness lives over F_{witness.field.q}, not F_{q}")
    if witness.dim != s or witness.ambient != m:
        raise ValueError("witness does not match the requested (s, m)")
    return _puncture_census(q, n, t, m)[rows_key(q, witness.rows)]


def oracle_C(s: int, t: int, r: int, k: int, q: int,
             inner: Subspace | None = None,
             outer: Subspace | None = None) -> int:
    """Brute-force count_C.

    Picks an r-subspace Y containing an s-subspace X (by default Y is
    the whole space F_q^r and X its first s-subspace), raises Y to a
    k-subspace W by repeated unique dimension-raising extension, and
    counts the t-subspaces of W that puncture back onto X.
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
        inner = first_subspace(field, outer.ambient, s)
    if outer.dim != r or inner.dim != s or not contains(outer, inner):
        raise ValueError("witness pair is not an s-subspace inside an r-subspace")
    w = outer
    for _ in range(k - r):
        w = extension_raise_dim(w)
    p = k - r
    total = 0
    for tsub in subspaces_within(w, t):
        if puncture(tsub, p) == inner:
            total += 1
    return total


def oracle_D(s: int, r: int, m: int, q: int,
             witness: Subspace | None = None) -> int:
    """Brute-force count_D: enumerate the RREF rows of all r-subspaces
    of F_q^m and count those containing the witness s-subspace."""
    if not 0 <= s <= r <= m:
        raise ValueError(f"need 0 <= s <= r <= m, got s={s}, r={r}, m={m}")
    _check_guard(m, r, q)
    field = make_field(q)
    if witness is None:
        witness = first_subspace(field, m, s)
    if witness.field.q != q:
        raise ValueError(f"witness lives over F_{witness.field.q}, not F_{q}")
    if witness.dim != s or witness.ambient != m:
        raise ValueError("witness does not match the requested (s, m)")
    if r == 0:
        return 1                        # the null space holds the null witness
    sub, mul = field.sub_table, field.mul_table
    inner = witness.rows
    total = 0
    # An RREF Y holds x iff x = sum of x[p] * (row of Y leading at p).
    # Per pivot cell, the row with the most choices goes last: for each
    # choice of the other rows, the residual of every witness row is
    # found once, then matched against c * y for each last-row choice y.
    for pivots in itertools.combinations(range(m), r):
        choices = [[_code_row(q ** (m - 1 - p) + code, q, m) for code in _free_codes(
                        q, m, [c for c in range(p + 1, m) if c not in pivots])]
                   for p in pivots]
        last = max(range(r), key=lambda i: len(choices[i]))
        p_last = pivots[last]
        targets = [tuple(vector_code([mul[x[p_last]][a] for a in y], q)
                         for x in inner)
                   for y in choices.pop(last)]
        others = pivots[:last] + pivots[last + 1:]
        for prefix in itertools.product(*choices):
            residual = []
            for x in inner:
                v = x
                for p, y in zip(others, prefix):
                    c = x[p]
                    if c:
                        mc = mul[c]
                        v = [sub[a][mc[b]] for a, b in zip(v, y)]
                residual.append(vector_code(v, q))
            total += targets.count(tuple(residual))
    return total
