"""Canonical subspaces of F_q^m and the puncture/extend/expand calculus.

A subspace is stored as its field, its ambient dimension and the rows
of its generator matrix in reduced row echelon form (RREF), nothing
else.  RREF is unique per subspace, so equality of spans is equality of
the stored rows.  The pivot (lead) column of a row is derived, not
stored: it is the position of the row's first 1.  Vectors are tuples of
field-element codes; the integer encoding of a vector v is
``sum(v[j] * q**j)`` (leftmost coordinate is the least significant
digit).

Designs store their blocks as keys, not as ``Subspace`` objects.  The
key of a subspace (``rows_key``) is one int: its RREF matrix read
row-major as one base-q number, first entry most significant.  So a row
code in a key reads the row first coordinate first (``_code_row``), row
i of d sits at ``(q**m)**(d-1-i)`` (``row_codes``), and keys of one
dimension sort as their rows do, in canonical order.  Puncturing
(``puncture_key``) and coverage work on keys; ``subspace_from_key``
builds a ``Subspace`` only at the edges, where one is reported.

Grassmannians are enumerated without elimination.  For a fixed set of
pivot columns the rows of an RREF matrix vary independently: row i is 1
at its pivot, zero before it and at the other pivots, and free in the
remaining columns to its right.  The d-subspaces with those pivots are
therefore the product of the per-row choice lists, formed as keys
(``_cell_keys``); ``grassmannian_keys`` sorts them, and
``enumerate_subspaces`` decodes them.

Appending columns works on keys too: ``_extension_keys`` yields the
keys of the subspaces of F_q^n with RREF [[G1 B], [0 G2]], G1 and G2
given by keys of F_q^m and F_q^(n-m), B free outside G2's pivot
columns.  A top row with suffix code b has the code ``code *
q**(n-m) + b``; a row of G2 keeps its own code.
``enumerate_extensions`` decodes these keys; the constructions of
``designs`` store them.

``coverage`` is the one coverage count every verifier reads.  It takes
the blocks as batches of keys of one dimension and weight, and returns
the summed weight of the blocks containing an s-subspace of F_q^m as a
default and its exceptions: the default is what every s-subspace gets,
and a sum is listed for each s-subspace a listed block contains.  A
batch may stand for every d-subspace of F_q^m: it adds the same
closed-form count to the default and lists nothing.
``designs.verify`` gives each block dimension's majority multiplicity
w that way, and lists only the blocks of another multiplicity, at
their difference from w, and the d-subspaces absent from the design,
at -w; ``_cell_keys`` lists the keys of those, unsorted.  ``coverage``
and ``equations.build_full`` read one generator, ``_within_columns``:
the spans of a chunk of blocks are listed as columns of row codes,
one per coefficient vector, and the keys of the blocks' s-subspaces are
read off them one coefficient basis at a time.  For characteristic 2
(q in {2, 4, 8, 16}) an element code is the bit pattern of its
polynomial coefficients, so each base-q digit of a row code is a bit
field and vector addition is ``^`` on codes, applied a whole column at
a time.

Puncturing always removes the last coordinate(s).  Deleting the last p
columns of an RREF matrix leaves an RREF matrix once its zero rows are
dropped: a row whose lead lies in a deleted column is zero before its
lead, so it slices to zero, and since leads strictly increase those are
the last rows.  Every other row keeps its lead 1 and the zeros above
it.  Puncturing is therefore slicing each row to its first m - p
entries and dropping the rows that lead in a deleted column, no
elimination needed.  On row codes the slice is ``code // q**p``,
which is 0 exactly for the dropped rows.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import add, xor
from typing import Iterable, Iterator

from .field import GF


class Subspace:
    """A d-dimensional subspace of F_q^m in canonical RREF form.

    The null subspace (d = 0) is represented by an empty row tuple.
    Instances are immutable and hashable; two subspaces compare equal
    iff they are the same set of vectors.  The constructor raises
    ValueError unless ``rows`` is an RREF basis of F_q^ambient, checked
    as a file's block rows are (``_rref_key``).
    """

    __slots__ = ("field", "ambient", "rows", "_hash")

    def __init__(self, field: GF, ambient: int, rows: tuple) -> None:
        q = field.q
        digits = set(range(q))
        for row in rows:
            if len(row) != ambient or not digits.issuperset(row):
                raise ValueError(f"row {row} is not a vector of F_{q}^{ambient}")
        _rref_key([_row_entry(row, q) for row in rows], q ** ambient)
        self.field = field
        self.ambient = ambient
        self.rows = rows
        self._hash = hash((field.q, ambient, rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> tuple:
        """Lead column of each row: in RREF the first 1 of a row."""
        return tuple(r.index(1) for r in self.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.field.q == other.field.q
                and self.ambient == other.ambient
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ";".join("".join(map(str, r)) for r in self.rows) or "-"
        return f"Subspace(q={self.field.q}, m={self.ambient}, [{body}])"

    def vectors(self) -> Iterator[tuple]:
        """All q^d vectors of the subspace (zero vector included)."""
        f, m = self.field, self.ambient
        for coeffs in itertools.product(range(f.q), repeat=self.dim):
            yield _combine(f, m, coeffs, self.rows)

    def nonzero_vectors_sorted(self) -> list:
        """Nonzero vectors in ascending integer-encoding order."""
        q = self.field.q
        out = [v for v in self.vectors() if any(v)]
        out.sort(key=lambda v: vector_code(v, q))
        return out


def vector_code(v: tuple, q: int) -> int:
    """Integer encoding of a vector: coordinate j has place value q^j."""
    c = 0
    for x in reversed(v):
        c = c * q + x
    return c


def vector_from_code(code: int, q: int, m: int) -> tuple:
    out = []
    for _ in range(m):
        out.append(code % q)
        code //= q
    return tuple(out)


def _row_code(row, q: int) -> int:
    """The code of a row inside a key: its entries read as one base-q
    number, the first entry the most significant digit."""
    c = 0
    for x in row:
        c = c * q + x
    return c


def _lead(row: tuple) -> int:
    """The column of the row's leading 1; -1 if the row is zero or its
    first nonzero entry is not 1."""
    try:
        lead = row.index(1)
    except ValueError:
        return -1
    return -1 if any(row[:lead]) else lead


@lru_cache(maxsize=4096)
def _row_entry(row: tuple, q: int) -> tuple:
    """What the RREF check needs of a row: its code, its ``_lead``, the
    bit mask of its nonzero columns, and the row; cached, as the
    subspaces built one after another share rows."""
    nonzero = sum(1 << j for j, x in enumerate(row) if x)
    return _row_code(row, q), _lead(row), nonzero, row


def _rref_key(entries: list, big: int) -> int:
    """The key of the rows with these ``_row_entry`` values, ``big`` =
    q**m; raises ValueError unless they are already a canonical RREF
    basis.

    Rows are accepted iff ``rref`` leaves them unchanged: every row has
    a lead (``_lead`` is not -1), leads strictly increase, and each
    pivot column is zero outside its own row.  Read bottom-up, that is:
    each row leads left of the row below it and is zero in the lead
    columns of all rows below it (the rows below a pivot lead further
    right, so they are zero there).
    """
    key, place, below, last = 0, 1, 0, big
    for code, lead, nonzero, _ in reversed(entries):
        if not -1 < lead < last or nonzero & below:
            rows = tuple(entry[3] for entry in entries)
            raise ValueError(f"rows {rows} are not in reduced row echelon form")
        below |= 1 << lead
        last = lead
        key += code * place
        place *= big
    return key


def _combine(field: GF, m: int, coeffs: tuple, rows: tuple) -> tuple:
    """Linear combination sum(coeffs[i] * rows[i]) over F_q."""
    add, mul = field.add_table, field.mul_table
    acc = [0] * m
    for c, row in zip(coeffs, rows):
        if c == 0:
            continue
        if c == 1:
            for j, x in enumerate(row):
                if x:
                    acc[j] = add[acc[j]][x]
        else:
            mc = mul[c]
            for j, x in enumerate(row):
                if x:
                    acc[j] = add[acc[j]][mc[x]]
    return tuple(acc)


def null_subspace(field: GF, m: int) -> Subspace:
    return Subspace(field, m, ())


def rref(field: GF, vectors: Iterable[tuple]) -> Subspace:
    """Canonicalize the span of the given vectors into a Subspace.

    All vectors must share one length (the ambient dimension); raises
    ValueError on a length mismatch, an entry outside ``range(q)`` or
    an empty vector list (the ambient dimension would be unknown).
    """
    vecs = [list(v) for v in vectors]
    if not vecs:
        raise ValueError("cannot infer ambient dimension from no vectors")
    m = len(vecs[0])
    if any(len(v) != m for v in vecs):
        raise ValueError("vectors of unequal length")
    if not all(map(set(range(field.q)).issuperset, vecs)):
        raise ValueError(f"an entry of {vecs} is outside F_{field.q}")
    return Subspace(field, m, _rref_rows(field, vecs, m))


def _rref_rows(field: GF, vecs: Iterable, m: int) -> tuple:
    """The RREF rows (a tuple of tuples) of the span of ``vecs``,
    vectors of F_q^m the program holds; ``rref`` without its checks.
    Rows are replaced, never changed in place, so only the list is copied."""
    vecs = list(vecs)
    sub, mul = field.sub_table, field.mul_table
    rank = 0
    for col in range(m):
        pr = next((i for i in range(rank, len(vecs)) if vecs[i][col]), None)
        if pr is None:
            continue
        vecs[rank], vecs[pr] = vecs[pr], vecs[rank]
        lead = vecs[rank][col]
        if lead != 1:
            inv = field.inv_table[lead]
            mi = mul[inv]
            vecs[rank] = [mi[x] for x in vecs[rank]]
        prow = vecs[rank]
        for i in range(len(vecs)):
            if i != rank and vecs[i][col]:
                c = vecs[i][col]
                mc = mul[c]
                row = vecs[i]
                vecs[i] = [sub[x][mc[y]] for x, y in zip(row, prow)]
        rank += 1
        if rank == len(vecs):
            break
    return tuple(tuple(vecs[i]) for i in range(rank))


def enumerate_subspaces(field: GF, m: int, d: int) -> Iterator[Subspace]:
    """Yield each d-subspace of F_q^m exactly once, lexicographically.

    The order is lexicographic on the RREF matrix read row-major with
    elements as integers: ``grassmannian_keys``, decoded.
    """
    if not 0 <= d <= m:
        raise ValueError(f"dimension {d} out of range for ambient {m}")
    return iter([_decode_key(field, m, key)
                 for key in grassmannian_keys(field.q, m, d)])


def first_subspace(field: GF, m: int, d: int) -> Subspace:
    """The first d-subspace in enumeration order: span of the last d
    unit vectors."""
    if not 0 <= d <= m:
        raise ValueError(f"dimension {d} out of range for ambient {m}")
    rows = []
    for p in range(m - d, m):
        row = [0] * m
        row[p] = 1
        rows.append(tuple(row))
    return Subspace(field, m, tuple(rows))


def contains(outer: Subspace, inner: Subspace) -> bool:
    """True iff every vector of ``inner`` lies in ``outer``."""
    if outer.field.q != inner.field.q or outer.ambient != inner.ambient:
        raise ValueError("ambient space mismatch")
    # reduce each inner row by the outer rows and check that nothing is left
    if len(inner.rows) > len(outer.rows):
        return False
    sub, mul = outer.field.sub_table, outer.field.mul_table
    for x in inner.rows:
        x = list(x)
        for orow in outer.rows:
            pc = orow.index(1)
            c = x[pc]
            if c:
                mc = mul[c]
                for j in range(pc, len(x)):
                    if orow[j]:
                        x[j] = sub[x[j]][mc[orow[j]]]
        if any(x):
            return False
    return True


def puncture(x: Subspace, p: int = 1) -> Subspace:
    """Delete the last p coordinates of every vector of x.

    A single puncture keeps or lowers the dimension by one; the result
    stays canonical because RREF survives last-column deletion once the
    rows leading in a deleted column, which slice to zero, are dropped.
    """
    if not 0 <= p <= x.ambient:
        raise ValueError(f"puncture count {p} out of range for ambient {x.ambient}")
    m = x.ambient - p
    return Subspace(x.field, m, tuple([r[:m] for r in x.rows
                                       if r.index(1) < m]))


def extensions_same_dim(x: Subspace) -> list:
    """The q^t distinct t-subspaces of F_q^{m+1} puncturing back to x."""
    return list(enumerate_extensions(x, x.dim, x.ambient + 1))


def extension_raise_dim(x: Subspace) -> Subspace:
    """The unique (t+1)-subspace of F_q^{m+1} puncturing back to x."""
    return next(enumerate_extensions(x, x.dim + 1, x.ambient + 1))


def enumerate_extensions(x: Subspace, t_target: int, n_target: int) -> Iterator[Subspace]:
    """All t_target-subspaces of F_q^{n_target} puncturing to x.

    Their RREF is [[G1 B], [0 G2]] (``_extension_keys``), G2 running
    over the (t-s)-subspaces of the appended coordinates in order.
    """
    s, m = x.dim, x.ambient
    p = n_target - m
    if s > t_target:
        raise ValueError("target dimension below current dimension")
    if p <= 0:
        raise ValueError("target ambient must exceed current ambient")
    if t_target - s > p:
        raise ValueError("not enough new coordinates to raise the dimension")
    q = x.field.q
    keys = [rows_key(q, x.rows)]
    for bottom in grassmannian_keys(q, p, t_target - s):
        for ext in _extension_keys(q, m, keys, n_target, bottom):
            yield subspace_from_key(x.field, n_target, ext)


def _extension_keys(q: int, m: int, keys: Iterable, n: int,
                    bottom: int) -> Iterator[int]:
    """The keys of the [[G1 B], [0 G2]] subspaces of F_q^n (module
    docstring), G1 given by each key of ``keys`` in turn and G2 by
    ``bottom``; per key the top row's suffix varies slowest."""
    shift, big = q ** (n - m), q ** n
    g2 = row_codes(bottom, q, n - m)
    pivots = {_code_row(code, q, n - m).index(1) for code in g2}
    suffixes = _free_codes(q, n - m, [c for c in range(n - m) if c not in pivots])
    base = sum(code * big ** i for i, code in enumerate(reversed(g2)))
    for key in keys:
        top = row_codes(key, q, m)
        # product order, top row slowest: each row extends every key so far
        acc = [base]
        for code, place in zip(top, _places(big, len(top) + len(g2))):
            acc = [a + (code * shift + b) * place for a in acc for b in suffixes]
        yield from acc


def _free_codes(q: int, m: int, columns: list) -> list:
    """The row codes, in increasing order, of all vectors of F_q^m that
    are zero outside these columns (listed left to right)."""
    codes = [0]
    for c in columns:
        codes = [code + v * q ** (m - 1 - c) for code in codes for v in range(q)]
    return codes


def _places(big: int, d: int) -> list:
    """The place of each row of a d-row key, top row first."""
    return [big ** i for i in reversed(range(d))]


def _cell_keys(q: int, m: int, d: int) -> Iterator[int]:
    """The keys of all d-subspaces of F_q^m, pivot cell by pivot cell
    and unsorted, by key arithmetic: row i leading at column p is
    ``q**(m-1-p)`` plus any code free in the columns right of p that are
    no pivot, placed at ``(q**m)**(d-1-i)``."""
    places = _places(q ** m, d)
    for pivots in itertools.combinations(range(m), d):
        choices = []
        for p, place in zip(pivots, places):
            free = [c for c in range(p + 1, m) if c not in pivots]
            choices.append([(q ** (m - 1 - p) + code) * place
                            for code in _free_codes(q, m, free)])
        yield from map(sum, itertools.product(*choices))


@dataclass(frozen=True)
class VirtualExpansion:
    """The (q^k - 1) x m row list recording a punctured k-subspace.

    Rows are q^{k-d} stacked copies of the nonzero vectors of the
    underlying d-subspace (in ascending integer-encoding order) followed
    by q^{k-d} - 1 zero rows.
    """

    field: GF
    ambient: int
    k: int
    rows: tuple

    def underlying(self) -> Subspace:
        """The punctured subspace: distinct nonzero rows plus zero."""
        distinct = {r for r in self.rows if any(r)}
        if not distinct:
            return null_subspace(self.field, self.ambient)
        return rref(self.field, sorted(distinct))


def expand(x: Subspace, k: int) -> VirtualExpansion:
    """The k-expansion of x (its virtual k-subspace representation)."""
    d = x.dim
    if d > k:
        raise ValueError(f"cannot expand a {d}-subspace to dimension {k} < {d}")
    q = x.field.q
    copies = q ** (k - d)
    nonzero = x.nonzero_vectors_sorted()
    zero = (0,) * x.ambient
    rows = tuple(nonzero) * copies + (zero,) * (copies - 1)
    return VirtualExpansion(x.field, x.ambient, k, rows)


def subspaces_within(y: Subspace, s: int) -> Iterator[Subspace]:
    """All s-subspaces of the subspace y, each in canonical form.

    If C is an RREF coefficient matrix and Y is an RREF basis, the
    product C*Y is again RREF (read the entries at Y's pivot columns),
    so images need no re-canonicalization.
    """
    d = y.dim
    if s > d:
        return
    if s == d:
        yield y
        return
    f, m = y.field, y.ambient
    if s == 0:
        yield null_subspace(f, m)
        return
    q, yrows = f.q, y.rows
    for basis in _coefficient_codes(q, d, s):
        yield Subspace(f, m, tuple(_combine(f, m, _code_row(code, q, d), yrows)
                                   for code in basis))


# ---------------------------------------------------------------------------
# Keys: one int per subspace
# ---------------------------------------------------------------------------

def rows_key(q: int, rows: tuple) -> int:
    """The key of the subspace with these RREF rows (module docstring),
    ``sum(code(row_i) * (q**m)**(d-1-i))``, 0 for the null space.
    Within one ambient space the key determines the subspace; its
    dimension is its number of base ``q**m`` digits, as every row code
    is nonzero."""
    return _row_code([x for row in rows for x in row], q)


def row_codes(key: int, q: int, m: int) -> list:
    """The codes of the RREF rows of the subspace of F_q^m with this
    key, top row first; ValueError for a negative key."""
    if key < 0:
        raise ValueError(f"{key!r} is not a subspace key")
    big = q ** m
    codes = []
    while key:
        key, code = divmod(key, big)
        codes.append(code)
    return codes[::-1]


@lru_cache(maxsize=4096)
def _code_row(code: int, q: int, m: int) -> tuple:
    """The row of F_q^m with this ``_row_code``, cached: the blocks of a
    design share rows, and decoded subspaces share the row tuples."""
    return vector_from_code(code, q, m)[::-1]


def subspace_from_key(field: GF, m: int, key: int) -> Subspace:
    """The subspace of F_q^m whose key (``rows_key``) is ``key``;
    ValueError unless ``key`` is the key of one (a bool is no key)."""
    if not isinstance(key, int) or isinstance(key, bool):
        raise ValueError(f"{key!r} is not a subspace key")
    q = field.q
    return Subspace(field, m, tuple([_code_row(code, q, m)
                                     for code in row_codes(key, q, m)]))


def _decode_key(field: GF, m: int, key: int) -> Subspace:
    """``subspace_from_key`` without the RREF check, for a key the
    program holds: one it enumerated or built, or one a checked parse
    read; the hash is the one ``Subspace.__init__`` gives."""
    q = field.q
    x = object.__new__(Subspace)
    x.field, x.ambient = field, m
    x.rows = rows = tuple([_code_row(code, q, m) for code in row_codes(key, q, m)])
    x._hash = hash((q, m, rows))
    return x


def grassmannian_keys(q: int, m: int, d: int) -> list:
    """The keys of all d-subspaces of F_q^m in canonical order."""
    return sorted(_cell_keys(q, m, d))


def puncture_key(key: int, q: int, m: int) -> int:
    """``puncture(y, 1)`` on keys: each row code loses its last digit,
    and a last row that leads in the deleted column slices to 0 and
    goes (see the module docstring)."""
    small = q ** (m - 1)
    out = 0
    for code in row_codes(key, q, m):
        if code >= q:
            out = out * small + code // q
    return out


@lru_cache(maxsize=4096)
def _multiple_codes(code: int, field: GF, m: int) -> tuple:
    """Codes of a*row for a = 1..q-1, the row given by its code."""
    mul = field.mul_table
    row = _code_row(code, field.q, m)
    return tuple(_row_code([mul[a][x] for x in row], field.q)
                 for a in range(1, field.q))


@lru_cache(maxsize=None)
def _coefficient_codes(q: int, d: int, s: int) -> tuple:
    """The row codes of the RREF basis of each s-subspace of F_q^d (the
    coefficient space), one tuple per basis, in canonical order."""
    return tuple(tuple(row_codes(key, q, d)) for key in grassmannian_keys(q, d, s))


# Span entries (blocks times q**d) the coverage kernel holds at once
_CHUNK = 1 << 14


def _span_columns(field: GF, m: int, d: int, keys: list) -> list:
    """The spans of the d-dimensional blocks with these keys, as
    columns: entry b of column ``_row_code(c)`` is the row code of
    sum(c_i * row_i) over the rows of block b.

    Characteristic 2 fills all q^d columns, adding codes with ``^`` a
    column at a time.  Otherwise each block's span is listed on its
    own, and only the entries coefficient bases read (first nonzero
    coefficient 1), a (q-1)-th of the span, are computed; the rest
    stay 0.
    """
    q = field.q
    big = q ** m
    # bottom row first: a column's top digit is the top row's coefficient
    rows = [[key // big ** i % big for key in keys] for i in range(d)]
    if field.p == 2:
        span = [[0] * len(keys)]
        for col in rows:
            multiples = [col]
            if q > 2:
                table = {c: _multiple_codes(c, field, m) for c in set(col)}
                multiples += [[table[c][a] for c in col] for a in range(1, q - 1)]
            span += [list(map(xor, v, mc)) for mc in multiples for v in span]
        return span
    # the bases of the 1-subspaces of F_q^d are those lead-one vectors
    points = [(_code_row(code, q, d), code) for code, in _coefficient_codes(q, d, 1)]
    spans = []
    for codes in zip(*rows):
        block = [_code_row(code, q, m) for code in reversed(codes)]
        span = [0] * q ** d
        for coeffs, code in points:
            span[code] = _row_code(_combine(field, m, coeffs, block), q)
        spans.append(span)
    return list(zip(*spans))


def _within_columns(field: GF, m: int, d: int, keys: Iterable,
                    s: int) -> Iterator[tuple]:
    """Yield ``(start, column)`` per chunk of the blocks (d-subspaces
    with these keys, a sized collection) and coefficient basis C: entry
    j of ``column`` is the key of C*Y, Y = ``keys[start + j]``.  C*Y is
    RREF (see ``subspaces_within``): its row i is the span entry at the
    code of C's row i, and its key is built top row first, each row
    shifting the rows above it up by ``big`` = q**m."""
    if s > d:
        return
    if s == d:
        yield 0, keys
        return
    if s == 0:
        yield 0, itertools.repeat(0, len(keys))
        return
    q, big = field.q, field.q ** m
    blocks = iter(keys)
    step = max(1, _CHUNK // q ** d)
    for start in range(0, len(keys), step):
        span = _span_columns(field, m, d, list(itertools.islice(blocks, step)))
        for basis in _coefficient_codes(q, d, s):
            column = span[basis[0]]
            for code in basis[1:]:
                column = map(add, map(big.__mul__, column), span[code])
            yield start, column


def coverage(batches: list, field: GF, m: int, s: int) -> tuple:
    """``(every, sums)``: the summed weight of the blocks containing an
    s-subspace of F_q^m is ``sums[key]`` for the keys in ``sums`` and
    ``every`` for all others.

    ``batches`` holds ``(d, weight, keys)`` triples, ``keys`` a sized
    collection (not a mapping) of ``rows_key`` values of d-subspaces of
    F_q^m, each a block of that weight, or None for every d-subspace of
    F_q^m.  A None batch adds weight * gaussian(m-s, d-s, q), the number
    of d-subspaces containing a given s-subspace, to ``every`` and lists
    nothing.  The keys of the listed blocks' s-subspaces
    (``_within_columns``) are counted with ``Counter``, and each enters
    ``sums`` at ``every`` plus count * weight; ``sums`` holds exactly
    the keys some listed block contains.  A weight may be negative, so a
    batch can take back part of a None batch.
    """
    # counting imports this module for its oracles
    from .counting import gaussian
    if not 0 <= s <= m:
        raise ValueError(f"dimension {s} out of range for ambient {m}")
    every = sum(w * gaussian(m - s, d - s, field.q)
                for d, w, keys in batches if keys is None)
    sums: dict = {}
    get = sums.get
    for d, w, keys in batches:
        if keys is None:
            continue
        counts = Counter()
        for _, column in _within_columns(field, m, d, keys, s):
            counts.update(column)
        for key, c in counts.items():
            sums[key] = get(key, every) + c * w
    return every, sums
