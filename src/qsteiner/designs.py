"""Punctured q-Steiner systems: the design multiset type, the streaming
verifier, puncturing, spreads/parallelisms, and the explicit and
recursive constructions.

A p-punctured q-Steiner system S_q(t,k,n;m), m = n-p, is a multiset of
subspaces of F_q^m.  Its checkable content is one counting equation per
s-subspace X of F_q^m (max{0,t-p} <= s <= min{t,m}): the blocks
containing X, weighted by multiplicity times the expansion-covering
count, must account for every t-subspace of F_q^n extending X.

A ``DesignMultiset`` stores that multiset as one ``{key: multiplicity}``
table per block dimension, keyed by ``subspaces.rows_key``.  The
constructions, ``puncture_design``, ``apply_transform`` and ``verify``
work on the keys; ``DesignMultiset.blocks`` reads the tables as a
``Mapping[Subspace, int]``, and reports name a ``Subspace`` only for a
violation.  Steiner systems, spreads and parallelisms are stored as keys
as well: ``SteinerSystem.keys`` (a ``Spread`` is the checked S_q(1,2,n))
holds each block's key, and ``blocks`` and ``lines`` decode them.

Every construction (``uniform``, ``s3485``, ``recursive`` and its case
``fano-m5``) is ``ExtensionFamilies``: with F_q^m = F_q^{m1} + F_q^r,
each part is the family of all [[G1 B], [0 G2]] with G1 in a list of
keys of F_q^{m1} (or every one of a dimension), G2 one key of F_q^r and
B free, and ``design()`` expands them.  Such a design is invariant
under the maps (u, v) -> (u, v + u Phi), so
``verify_families`` checks one equation per orbit of s-subspaces X,
the class (U, K) with U the projection of X to F_q^{m1} and K = X meet
F_q^r: q^{u(r-kappa)} subspaces, u = dim U and kappa = dim K.  Of a
family, q^{(d1-u)(r-d2)} members contain X if U <= G1 and K <= G2, and
none otherwise (the Kramer-Mesner reduction by this group).  The parts
add up, a block listed by several carrying the sum of their
multiplicities, so the class sums are exact for every family, and
``verify_families`` reports as ``verify(fam.design())`` without
expanding it.  ``verify`` is their case m1 = m: each class one subspace,
as for a uniform design, whose one part per d holds every d-subspace.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from operator import countOf
from typing import Iterable, Iterator

from .counting import count_N, covering_coefficient, gaussian
from .field import GF, SUPPORTED_ORDERS, make_field
from .subspaces import (Subspace, _cell_keys, _code_row, _combine,
                        _decode_key, _extension_keys, _rref_rows, coverage, grassmannian_keys, puncture_key, row_codes,
                        rows_key, rref, subspace_from_key, vector_from_code)


class ConstructionError(RuntimeError):
    """A puncture or transform broke a structure it must preserve."""


@dataclass(frozen=True)
class DesignParams:
    """Parameters (q, t, k, n, m) of a punctured system S_q(t,k,n;m)."""

    q: int
    t: int
    k: int
    n: int
    m: int

    def __post_init__(self) -> None:
        # k = n is the trivial Steiner system; its punctures are legal designs.
        if not 0 < self.t < self.k <= self.n:
            raise ValueError(f"need 0 < t < k <= n, got {self}")
        if not 1 <= self.m < self.n:
            raise ValueError(f"need 1 <= m < n, got {self}")
        if self.q < 2:
            raise ValueError(f"need a field order q >= 2, got q={self.q}")
        if self.q not in SUPPORTED_ORDERS:
            raise ValueError(f"unsupported field order {self.q}; "
                             f"supported: {SUPPORTED_ORDERS}")

    @property
    def p(self) -> int:
        return self.n - self.m

    def s_range(self) -> range:
        """Dimensions of subspaces to be covered."""
        return range(max(0, self.t - self.p), min(self.t, self.m) + 1)

    def r_range(self) -> range:
        """Legal block dimensions."""
        return range(max(0, self.k - self.p), min(self.k, self.m) + 1)

    def block_budget(self) -> int:
        """Total multiplicity any valid design must have."""
        return gaussian(self.n, self.t, self.q) // gaussian(self.k, self.t, self.q)


def _check_block(params: DesignParams, b: Subspace, mult) -> None:
    if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
        raise ValueError(f"multiplicity of {b!r} must be a positive integer")
    if b.field.q != params.q or b.ambient != params.m:
        raise ValueError(f"block {b!r} does not live in F_{params.q}^{params.m}")


class DesignMultiset:
    """A multiset of subspaces of F_q^m with parameters (q,t,k,n,m).

    Stored as key tables: ``tables[d]`` maps the key (``rows_key``) of
    each distinct d-dimensional block to its positive multiplicity,
    and a dimension without blocks has no table.  ``blocks`` is the
    read-only ``Mapping[Subspace, int]`` view of the same multiset,
    which builds a ``Subspace`` only when it is read.
    """

    __slots__ = ("params", "tables")

    def __init__(self, params: DesignParams, blocks: Mapping) -> None:
        tables: dict = {}
        for b, mult in blocks.items():
            _check_block(params, b, mult)
            tables.setdefault(b.dim, {})[rows_key(params.q, b.rows)] = mult
        self.params = params
        self.tables = tables

    @classmethod
    def _from_tables(cls, params: DesignParams, tables: dict) -> "DesignMultiset":
        """A design from key tables whose keys are subspaces of F_q^m of
        the table's dimension and whose multiplicities are ints,
        unchecked; empty tables are dropped.  Multiplicities that add up
        (a puncture, a transform) may leave a block at 0 or below, which
        ``verify`` counts as it is and a design file cannot hold."""
        design = cls.__new__(cls)
        design.params = params
        design.tables = {d: table for d, table in tables.items() if table}
        return design

    @property
    def blocks(self) -> "_BlockView":
        return _BlockView(self.params, self.tables)

    def total_multiplicity(self) -> int:
        return sum(sum(table.values()) for table in self.tables.values())

    def dimension_totals(self) -> dict:
        return {d: sum(table.values()) for d, table in self.tables.items()}

    def with_block_multiplicity(self, block: Subspace, mult: int) -> "DesignMultiset":
        """Copy with one multiplicity replaced (0 removes the block)."""
        tables = {d: dict(table) for d, table in self.tables.items()}
        key = rows_key(self.params.q, block.rows)
        if mult:
            _check_block(self.params, block, mult)
            tables.setdefault(block.dim, {})[key] = mult
        elif block in self.blocks:
            del tables[block.dim][key]
        return DesignMultiset._from_tables(self.params, tables)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DesignMultiset)
                and self.params == other.params and self.tables == other.tables)

    def __repr__(self) -> str:
        p = self.params
        return (f"DesignMultiset(S_{p.q}({p.t},{p.k},{p.n};{p.m}), "
                f"{len(self.blocks)} distinct blocks, total {self.total_multiplicity()})")


class _BlockView(Mapping):
    """``DesignMultiset.blocks``: its key tables read as a mapping from
    each distinct block, a ``Subspace``, to its multiplicity."""

    __slots__ = ("_params", "_tables")

    def __init__(self, params: DesignParams, tables: dict) -> None:
        self._params = params
        self._tables = tables

    def __getitem__(self, block) -> int:
        p = self._params
        if (isinstance(block, Subspace) and block.field.q == p.q
                and block.ambient == p.m):
            table = self._tables.get(block.dim, {})
            key = rows_key(p.q, block.rows)
            if key in table:
                return table[key]
        raise KeyError(block)

    def __iter__(self):
        field, m = make_field(self._params.q), self._params.m
        for table in self._tables.values():
            for key in table:
                yield _decode_key(field, m, key)

    def __len__(self) -> int:
        return sum(map(len, self._tables.values()))


@dataclass(frozen=True)
class EquationViolation:
    s: int
    subject: Subspace
    got: object
    expected: object


@dataclass(frozen=True)
class VerificationReport:
    """Per-equation outcome of checking a design against its counting
    equations."""

    ok: bool
    equations_checked: int
    violations: tuple
    block_dim_violations: tuple
    total_multiplicity: int


def verify(design: DesignMultiset) -> VerificationReport:
    """Check every covering equation of the design, streaming.

    For each s in the covered range and each s-subspace X of F_q^m the
    accumulated sum over blocks Y >= X of mult(Y) * C-coefficient must
    equal N_{(s,m),(t,n)}.  Equations are never materialized as a
    matrix.  Per block dimension d, the multiplicity w that the most
    d-subspaces carry (absent ones counting as 0, and 0 on a tie)
    enters every equation in closed form, w * C * count_D(s, d, m, q);
    the coverage kernel lists only the blocks whose multiplicity is not
    w and, if w is not 0, the d-subspaces absent from the design
    (``_batches``), which ``_report`` reads as parts over m1 = m: a
    class is one subspace, and each s one ``coverage`` call, whose
    default stands for every s-subspace no listed block contains.  The
    equations are counted per default; only the listed sums are read,
    and the whole Grassmannian only if the default itself fails.
    """
    pr = design.params
    parts = [(d, keys, 0, w) for d, w, keys in _batches(pr.q, pr.m, design.tables)]
    return _report(pr, pr.m, parts, design.tables)


def _batches(q: int, m: int, tables: dict) -> list:
    """The ``(d, weight, keys)`` batches ``coverage`` reads for these key
    tables of subspaces of F_q^m.

    Per dimension d, w is the multiplicity the most d-subspaces of F_q^m
    carry, a subspace absent from the table counting as 0; 0 on a tie.
    If w is not 0 the batches are: every d-subspace at weight w (keys
    None, counted in closed form), each block of another multiplicity
    at mult - w, and each d-subspace absent from the table at -w, its
    key listed from the pivot cells (``_cell_keys``).  If w is 0 they
    are the table's blocks.  A block at multiplicity 0 counts as absent.
    Keys are grouped by weight.  A table whose blocks all carry one
    nonzero multiplicity, the common case, is recognised by one
    ``countOf`` over its values; ``Counter`` counts only the others.
    """
    out = []
    for d, table in tables.items():
        first = next(iter(table.values()), 0)
        if first and countOf(table.values(), first) == len(table):
            counts = Counter({first: len(table)})
        else:
            counts = Counter(table.values())
            if counts.pop(0, 0):    # a block whose multiplicities cancelled
                table = {key: mult for key, mult in table.items() if mult}
        counts[0] = gaussian(m, d, q) - len(table)
        (w, most), *rest = counts.most_common(2)
        if rest and rest[0][1] == most:
            w = 0
        if w == 0 and len(counts) == 2:     # one multiplicity, and 0
            out.append((d, next(iter(counts)), table.keys()))
            continue
        groups = defaultdict(list)
        if not w or counts[w] != len(table):   # else every block carries w
            for key, mult in table.items():
                if mult != w:
                    groups[mult - w].append(key)
        if w:
            out.append((d, w, None))
            if counts[0]:
                groups[-w] = [key for key in _cell_keys(q, m, d)
                              if key not in table]
        out.extend((d, weight, keys) for weight, keys in groups.items())
    return out


def puncture_design(design: DesignMultiset) -> DesignMultiset:
    """Puncture every block once; multiplicities of colliding images add up."""
    pr = design.params
    if pr.m < 2:
        raise ValueError("cannot puncture a design below ambient dimension 1")
    return DesignMultiset._from_tables(
        DesignParams(pr.q, pr.t, pr.k, pr.n, pr.m - 1),
        _punctured_tables(pr.q, pr.m, design.tables))


def _punctured_tables(q: int, m: int, tables: dict) -> dict:
    """The key tables of the images of the blocks of F_q^m in these key
    tables under one puncture; multiplicities of colliding images add up.

    A block of d >= 2 rows splits into its top row and the key of the
    rows below it, its suffix.  The top row leads left of the next row,
    so never in the deleted column, and its image is ``top // q``; the
    suffix's image (``puncture_key``), the place of the top row above
    it and the output table are looked up once per suffix."""
    out_tables: dict = {}
    small = q ** (m - 1)
    for d, table in tables.items():
        if d < 2:       # a lone row may lead in the deleted column
            for key, mult in table.items():
                img = puncture_key(key, q, m)
                out = out_tables.setdefault(d if img else 0, {})
                out[img] = out.get(img, 0) + mult
            continue
        below, suffixes = q ** (m * (d - 1)), {}
        for key, mult in table.items():
            top, rest = divmod(key, below)
            entry = suffixes.get(rest)
            if entry is None:
                img = puncture_key(rest, q, m)
                # the suffix's image keeps d - 1 rows, or loses its last
                e = d - 1 if img >= small ** (d - 2) else d - 2
                entry = suffixes[rest] = (img, small ** e,
                                          out_tables.setdefault(e + 1, {}))
            img, place, out = entry
            img += top // q * place
            out[img] = out.get(img, 0) + mult
    return _drop_cancelled(out_tables, chain(*map(dict.values, tables.values())))


def _drop_cancelled(tables: dict, mults: Iterable) -> dict:
    """These key tables less their blocks at multiplicity 0, if one of
    ``mults``, the multiplicities added up in them, is negative: only
    then can a sum cancel to 0."""
    if min(mults, default=0) >= 0:
        return tables
    return {d: {key: mult for key, mult in table.items() if mult}
            for d, table in tables.items()}


def distinctness_check(design: DesignMultiset) -> bool:
    """True iff every block appears exactly once."""
    return all(mult == 1 for table in design.tables.values()
               for mult in table.values())


# ---------------------------------------------------------------------------
# q-Steiner systems, spreads, parallelisms
# ---------------------------------------------------------------------------

class SteinerSystem:
    """A q-Steiner system S_q(t,k,n): every t-subspace of F_q^n lies in
    exactly one block.

    Stored as ``keys``, the key (``rows_key``) of each block in block
    order; ``blocks`` decodes them into ``Subspace`` objects when read.
    """

    def __init__(self, field: GF, t: int, k: int, n: int, blocks: tuple) -> None:
        if not 0 <= t <= k <= n:
            raise ValueError(f"need 0 <= t <= k <= n, got t={t}, k={k}, n={n}")
        for b in blocks:
            if b.dim != k or b.ambient != n or b.field.q != field.q:
                raise ValueError(f"block {b!r} is not a {k}-subspace of F_{field.q}^{n}")
        self._set(field, t, k, n, [rows_key(field.q, b.rows) for b in blocks])

    @classmethod
    def _of_keys(cls, field: GF, t: int, k: int, n: int, keys) -> "SteinerSystem":
        """The system whose blocks have these keys, RREF keys of
        k-subspaces of F_q^n; unchecked, but a ``Spread`` checks that
        its lines partition the points (``Spread._set``)."""
        system = cls.__new__(cls)
        system._set(field, t, k, n, keys)
        return system

    def _set(self, field: GF, t: int, k: int, n: int, keys) -> None:
        self.field, self.t, self.k, self.n, self.keys = field, t, k, n, tuple(keys)

    @property
    def blocks(self) -> tuple:
        return tuple([_decode_key(self.field, self.n, key) for key in self.keys])

    def __eq__(self, other) -> bool:
        return isinstance(other, SteinerSystem) and vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(self.keys)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(field={self.field!r}, t={self.t}, "
                f"k={self.k}, n={self.n}, blocks={self.blocks!r})")


def verify_steiner(system: SteinerSystem) -> bool:
    """Every t-subspace of the ambient space covered exactly once."""
    q, t, n = system.field.q, system.t, system.n
    _, sums = coverage([(system.k, 1, system.keys)], system.field, n, t)
    return len(sums) == gaussian(n, t, q) and all(c == 1 for c in sums.values())


def trivial_steiner(q: int, t: int, n: int) -> SteinerSystem:
    """S_q(t,n,n): the whole space as the single block."""
    field = make_field(q)
    whole = rref(field, [tuple(1 if j == i else 0 for j in range(n))
                         for i in range(n)])
    return SteinerSystem(field, t, n, n, (whole,))


def puncture_steiner(system: SteinerSystem) -> tuple:
    """Puncture a verified Steiner system once.

    Returns the full punctured multiset (an S_q(t,k,n;n-1)) together
    with the extracted (k-1)-dimensional part, which is checked to be a
    q-Steiner system S_q(t-1,k-1,n-1).  The multiset is then checked
    by ``verify``: as each t-subspace X of F_q^{n-1} lies in at most
    one (k-1)-image, its s = t equation says that the k-dimensional
    images contain X q^t times if no (k-1)-image does, and never
    otherwise; a repeated (k-1)-image breaks it as well.
    """
    if not verify_steiner(system):
        raise ValueError("input is not a valid q-Steiner system")
    q, t, k, n = system.field.q, system.t, system.k, system.n
    tables = _punctured_tables(q, n, {k: dict.fromkeys(system.keys, 1)})
    design = DesignMultiset._from_tables(DesignParams(q, t, k, n, n - 1), tables)
    sub_system = SteinerSystem._of_keys(system.field, t - 1, k - 1, n - 1,
                                        sorted(tables.get(k - 1, ())))
    if not verify_steiner(sub_system):
        raise ConstructionError("(k-1)-images do not form the derived Steiner system")
    report = verify(design)
    if not report.ok:
        v = report.violations[0]
        raise ConstructionError(
            f"equation for the {v.s}-subspace {v.subject!r} gives {v.got}, "
            f"expected {v.expected}")
    return design, sub_system


class Spread(SteinerSystem):
    """A partition of the nonzero vectors of F_q^n into 2-subspaces, its
    ``lines``: the q-Steiner system S_q(1,2,n), checked whenever one is
    made."""

    def __init__(self, field: GF, n: int, lines: tuple) -> None:
        SteinerSystem.__init__(self, field, 1, 2, n, lines)

    def _set(self, field: GF, t: int, k: int, n: int, keys) -> None:
        super()._set(field, t, k, n, keys)
        big = field.q ** n
        for key in self.keys:
            if not big <= key < big * big:
                line = subspace_from_key(field, n, key)
                raise ValueError(f"{line!r} is not a 2-subspace of F_{field.q}^{n}")
        # each nonzero vector on one line <=> each 1-subspace on one line
        _, points = coverage([(2, 1, self.keys)], field, n, 1)
        shared = [key for key, c in points.items() if c > 1]
        if shared:
            key = min(shared)
            raise ValueError(f"point {subspace_from_key(field, n, key)!r} "
                             f"lies on {points[key]} lines")
        if len(points) != gaussian(n, 1, field.q):
            raise ValueError("lines do not cover every nonzero vector")

    lines = SteinerSystem.blocks


def build_spread(q: int, n: int) -> Spread:
    """The field-extension spread: F_q^n read as an (n/2)-dimensional
    space over F_{q^2}, whose 1-dimensional subspaces are the lines.

    Consecutive coordinate pairs (a, b) encode the element a + b*x of
    F_{q^2}; supported for prime q with q^2 a supported field order.
    """
    if n % 2 or n < 2:
        raise ValueError("spread needs an even ambient dimension >= 2")
    if q not in (2, 3):
        raise ValueError("field-extension spread implemented for q in {2, 3}")
    field = make_field(q)
    ext = make_field(q * q)
    half = n // 2
    root = q  # code of the element x
    lines = set()
    for code in range(1, q ** n):
        v = vector_from_code(code, q, n)
        w = tuple(v[2 * i] + q * v[2 * i + 1] for i in range(half))
        xw = tuple(ext.mul_table[root][c] for c in w)
        u = []
        for c in xw:
            u.extend((c % q, c // q))
        lines.add(rows_key(q, rref(field, [v, tuple(u)]).rows))
    return Spread._of_keys(field, 1, 2, n, sorted(lines))


@dataclass(frozen=True)
class Parallelism:
    """A partition of all 2-subspaces of F_q^n into disjoint spreads,
    each a ``Spread``."""

    field: GF
    n: int
    spreads: tuple

    def __post_init__(self) -> None:
        q = self.field.q
        seen = set()
        for i, sp in enumerate(self.spreads):
            if not isinstance(sp, Spread):
                raise ValueError(f"member {i} is a {type(sp).__name__}, not a Spread")
            if sp.n != self.n or sp.field.q != q:
                raise ValueError("spread with mismatched parameters")
            for key in sp.keys:
                if key in seen:
                    line = subspace_from_key(self.field, self.n, key)
                    raise ValueError(f"line {line!r} appears in two spreads")
                seen.add(key)
        if len(seen) != gaussian(self.n, 2, q):
            raise ValueError("spreads do not cover every 2-subspace")


def _canonical_parallelism(field: GF, n: int, groups: Iterable) -> Parallelism:
    """The parallelism of these groups of line keys, in canonical file
    order."""
    spreads = [Spread._of_keys(field, 1, 2, n, sorted(g)) for g in groups]
    spreads.sort(key=lambda sp: sp.keys)
    return Parallelism(field, n, tuple(spreads))


def _line_key(u: int, v: int, n: int) -> int:
    """The key of the line of F_2^n through the vectors with codes u and
    v.  A code's lowest set bit is the vector's lead column; the second
    RREF row is the one of u, v, u ^ v whose lead lies furthest right,
    and the first is the one of the other two that is 0 there.  A key
    reads a row first coordinate first, so each row's n bits reverse."""
    bottom = max(u, v, u ^ v, key=lambda x: x & -x)
    top = v if u == bottom else u
    top = top ^ bottom if top & bottom & -bottom else top
    return int(f"{bottom:0{n}b}{top:0{n}b}"[::-1], 2)


# For each n the orbit search supports, a primitive polynomial of degree n-1
_PRIMITIVE = {2: 0b11, 4: 0b1011, 6: 0b100101, 8: 0b10000011, 10: 0b1000010001}


def _exact_cover(columns: dict, rows: dict):
    """Knuth's Algorithm X: the names of rows (name -> its columns)
    covering each column of ``columns`` (name -> the rows through it)
    once, or None.  It branches on the column with fewest rows, smallest
    name first, tries rows in sorted order, and restores ``columns``."""
    if not columns:
        return []
    col = min(columns, key=lambda c: (len(columns[c]), c))
    for r in sorted(columns[col]):
        removed = [columns.pop(c) for c in rows[r]]
        clashes = [(c, other) for other in set().union(*removed)
                   for c in rows[other] if c in columns]
        for c, other in clashes:
            columns[c].discard(other)
        rest = _exact_cover(columns, rows)
        for c, other in clashes:
            columns[c].add(other)
        columns.update(zip(rows[r], removed))
        if rest is not None:
            return [r] + rest
    return None


def build_parallelism(q: int, n: int) -> Parallelism:
    """A verified parallelism of F_2^n, n in {2, 4, 6, 8, 10}, by
    Denniston's cyclic orbit search; ``files.parse_parallelism_file``
    loads one for other parameters.

    A vector code's low n-1 bits are a in F_{2^(n-1)}, in the basis of
    powers of a root alpha of ``_PRIMITIVE[n]``; its top bit is b.
    g: (a, b) -> (alpha*a, b) has odd order and fixes no line, so a
    spread S with one line in each g-orbit gives the parallelism
    {g^i S}.  S is an exact cover of the nonzero vectors and the
    g-orbits by orbits of lines under (a, b) -> (a^2, b).
    """
    field = make_field(q)
    if q != 2 or n not in _PRIMITIVE:
        raise ValueError(f"search mode supports q = 2 with n in "
                         f"{{{', '.join(map(str, _PRIMITIVE))}}}; "
                         f"use a file for other parameters")
    size, top, poly = 1 << n, 1 << (n - 1), _PRIMITIVE[n]
    alpha = [(a ^ poly if a & top else a) | (c & top)      # g on vector codes
             for c in range(size) for a in [(c & (top - 1)) << 1]]
    frobenius = list(range(size))   # (a, b) -> (a^2, b)
    a = square = 1
    for _ in range(top - 1):        # a = alpha^k, square = alpha^2k
        frobenius[a], frobenius[a | top] = square, square | top
        a, square = alpha[a], alpha[alpha[square]]

    def image(point_map, line):
        return tuple(sorted([point_map[p] for p in line]))

    # a line is the sorted triple of its nonzero vector codes
    lines = [(u, v, u ^ v) for u in range(1, size)
             for v in range(u + 1, size) if u ^ v > v]
    orbit_of: dict = {}             # line -> the column of its g-orbit
    for line in lines:
        label = size + len(orbit_of)
        while line not in orbit_of:
            orbit_of[line] = label
            line = image(alpha, line)
    columns = {c: set() for c in [*range(1, size), *orbit_of.values()]}
    rows: dict = {}                 # an orbit of lines under a -> a^2
    for line in lines:
        if line not in orbit_of:    # popped with an orbit read before
            continue
        orbit = [line]
        while (nxt := image(frobenius, orbit[-1])) != line:
            orbit.append(nxt)
        points = [p for ln in orbit for p in ln]
        labels = {orbit_of.pop(ln) for ln in orbit}
        if len(set(points)) == len(points) and len(labels) == len(orbit):
            orbit = tuple(orbit)
            rows[orbit] = [*points, *labels]
            for c in rows[orbit]:
                columns[c].add(orbit)
    # _PRIMITIVE holds only n whose exact cover exists
    spread = [ln for orbit in _exact_cover(columns, rows) for ln in orbit]
    groups = []
    for _ in range(top - 1):
        groups.append([_line_key(u, v, n) for u, v, _ in spread])
        spread = [image(alpha, ln) for ln in spread]
    return _canonical_parallelism(field, n, groups)


# ---------------------------------------------------------------------------
# Constructions, unchecked: each an ExtensionFamilies, checked by
# ``verify_families``
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionFamilies:
    """A design of F_q^m, m = m1 + r, as families of extensions (module
    docstring): part ``(d, keys, bottom, mult)`` holds each d-subspace
    [[G1 B], [0 G2]] (``subspaces._extension_keys``) at multiplicity
    mult, G2 the subspace of F_q^r with key ``bottom`` and G1 each key
    of ``keys``, or each (d - dim G2)-subspace of F_q^{m1} if ``keys``
    is None.  Keys are checked; a multiplicity may be any int."""

    params: DesignParams
    m1: int
    parts: tuple

    def __post_init__(self) -> None:
        q, m, m1 = self.params.q, self.params.m, self.m1
        if not 0 <= m1 <= m:
            raise ValueError(f"need 0 <= m1 <= {m}, got m1={m1}")
        field = make_field(q)
        parts = []
        for d, keys, bottom, mult in self.parts:
            if not isinstance(mult, int) or isinstance(mult, bool):
                raise ValueError(f"multiplicity {mult!r} is not an integer")
            d1 = d - subspace_from_key(field, m - m1, bottom).dim
            if keys is not None:
                keys = tuple(keys)
                if any(subspace_from_key(field, m1, key).dim != d1
                       for key in keys):
                    raise ValueError(f"a top key of part {d, bottom} is not "
                                     f"a {d1}-subspace of F_{q}^{m1}")
            elif not 0 <= d1 <= m1:
                raise ValueError(f"no {d1}-subspaces of F_{q}^{m1}")
            parts.append((d, keys, bottom, mult))
        object.__setattr__(self, "parts", tuple(parts))

    def design(self) -> DesignMultiset:
        """The multiset of the families, which add up: a block several
        parts list carries the sum of their multiplicities, and one whose
        parts cancel to 0 is left out."""
        pr = self.params
        tables = _extension_tables(pr.q, self.m1, pr.m, self.parts)
        return DesignMultiset._from_tables(pr, _drop_cancelled(
            tables, [part[3] for part in self.parts]))


def _extension_tables(q: int, m: int, n: int, parts: list) -> dict:
    """The key tables of the blocks of F_q^n listed by ``parts``: part
    ``(d, keys, bottom, mult)`` is the d-subspaces ``_extension_keys(q,
    m, keys, n, bottom)``, each at multiplicity mult, keys None standing
    for every (d - dim bottom)-subspace of F_q^m; multiplicities of a
    block listed twice add up, and a part at 0 lists nothing."""
    tables: dict = {}
    for d, keys, bottom, mult in (part for part in parts if part[3]):
        every = keys is None
        if every:
            keys = grassmannian_keys(q, m, d - len(row_codes(bottom, q, n - m)))
        blocks = _extension_keys(q, m, keys, n, bottom)
        if every and d not in tables:   # distinct blocks, the first of d
            tables[d] = dict.fromkeys(blocks, mult)
        else:
            table = tables.setdefault(d, {})
            get = table.get
            for key in blocks:
                table[key] = get(key, 0) + mult
    return tables


def verify_families(fam: ExtensionFamilies) -> VerificationReport:
    """``verify(fam.design())`` by class sums (module docstring): per s
    and class (U, K), the sum over the parts of mult * C(s,t,d,k,q) *
    q^{(d1-u)(r-d2)} * #{G1 >= U} * [K <= G2] must be N(s,m,t,n,q).  Only
    parts of a dimension outside ``r_range`` are expanded, for
    ``block_dim_violations``."""
    pr = fam.params
    bad = [part for part in fam.parts if part[0] not in pr.r_range()]
    tables = _drop_cancelled(_extension_tables(pr.q, fam.m1, pr.m, bad),
                             [part[3] for part in bad])
    return _report(pr, fam.m1, fam.parts, tables)


def _report(params: DesignParams, m1: int, parts, tables: dict) -> VerificationReport:
    """The report on the design of these ``ExtensionFamilies`` parts over
    F_q^{m1}, by class sums: a violated class lists its q^{u(r-kappa)}
    subspaces ``_extension_keys(q, m1, (U,), m, K)``, sorted per s, as
    ``verify`` of the expansion does.  ``tables`` holds (at least) the key
    tables of the blocks of a dimension outside ``r_range``.

    Per (u, K) the equations are counted as size * [m1 u]_q, one per
    class default; the classes are read one by one only from the listed
    sums, or from every u-subspace U if the default is not N."""
    q, m, r = params.q, params.m, params.m - m1
    field = make_field(q)
    violations, checked = [], 0
    for s in params.s_range():
        expected = count_N(s, m, params.t, params.n, q)
        failed = []
        for u, below, size, default, sums in _class_sums(params, m1, parts, s):
            checked += size * gaussian(m1, u, q)
            tops = (sums.items() if default == expected else
                    [(top, sums.get(top, default)) for top in grassmannian_keys(q, m1, u)])
            for top, got in tops:
                if got != expected:     # a Subspace only for a violation
                    failed += [(key, got) for key in _extension_keys(q, m1, (top,), m, below)]
        violations += [EquationViolation(s, subspace_from_key(field, m, key), got, expected)
                       for key, got in sorted(failed)]
    bad_dims = tuple((subspace_from_key(field, m, key), d)
                     for d, table in tables.items() if d not in params.r_range()
                     for key in table)
    total = 0
    for d, keys, bottom, mult in parts:
        d2 = len(row_codes(bottom, q, r))
        tops = gaussian(m1, d - d2, q) if keys is None else len(keys)
        total += mult * tops * q ** ((d - d2) * (r - d2))
    return VerificationReport(not violations and not bad_dims, checked,
                              tuple(violations), bad_dims, total)


def _class_sums(params: DesignParams, m1: int, parts: list, s: int) -> Iterator[tuple]:
    """Yield ``(u, K, size, default, sums)`` per dimension u and key K
    for the classes (U, K) of s-subspaces X of F_q^m under these
    ``ExtensionFamilies`` parts over F_q^{m1}: U, of dimension u, the
    key of X's projection to F_q^{m1}, K the key of X meet F_q^r in
    F_q^r, size the number q^{u(r-kappa)} of X in each class, and
    ``sums.get(U, default)`` the sum of mult * C(s,t,d,k,q) over the
    blocks containing any one X of the class (U, K).  Per (u, K), one
    ``coverage`` call counts the tops containing each U of the parts
    whose G2 contains K, at mult * C * q^{(d1-u)(r-d2)}."""
    q, r = params.q, params.m - m1
    field = make_field(q)
    for u in range(max(0, s - r), min(s, m1) + 1):
        kappa = s - u
        weighted = []       # (the K inside G2, the part's batch)
        for d, keys, bottom, mult in parts:
            d2 = len(row_codes(bottom, q, r))
            w = mult * covering_coefficient(s, params.t, d, params.k, q)
            if w and d - d2 >= u and d2 >= kappa:
                _, inside = coverage([(d2, 1, (bottom,))], field, r, kappa)
                weighted.append((inside, (d - d2, w * q ** ((d - d2 - u) * (r - d2)), keys)))
        size = q ** (u * (r - kappa))
        for below in grassmannian_keys(q, r, kappa):
            batches = [batch for inside, batch in weighted if below in inside]
            yield (u, below, size, *coverage(batches, field, m1, u))


def uniform_families(q: int, t: int, k: int, n: int, m: int,
                     assignment: dict) -> ExtensionFamilies:
    """The uniform design giving every r-subspace of F_q^m the
    multiplicity assignment[r], as families over m1 = m: one part of
    every r-subspace per nonzero assignment[r]."""
    params = DesignParams(q, t, k, n, m)
    r_rng = params.r_range()
    for r, mult in assignment.items():
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 0:
            raise ValueError(f"multiplicity for dimension {r} must be a "
                             f"nonnegative integer, got {mult!r}")
        if mult and r not in r_rng:
            raise ValueError(f"dimension {r} outside the legal block range "
                             f"{r_rng.start}..{r_rng.stop - 1}")
    return ExtensionFamilies(params, m, tuple(
        (r, None, 0, assignment[r]) for r in r_rng if assignment.get(r)))


def construct_uniform_design(q: int, t: int, k: int, n: int, m: int,
                             assignment: dict) -> DesignMultiset:
    """The design of ``uniform_families``."""
    return uniform_families(q, t, k, n, m, assignment).design()


def s3485_families(q: int) -> ExtensionFamilies:
    """The explicit six-part 3-punctured system S_q(3,4,8;5).

    Parts, by (dimension, dimension after one more puncture):
    the single raising 1-subspace; 2-subspaces staying 2-dimensional,
    once each; 3-subspaces dropping to dimension 2, q^4 each;
    3-subspaces staying 3-dimensional, q(q^3-1) each; 4-subspaces
    dropping to dimension 3, q^7(q-1) each; 4-subspaces staying
    4-dimensional, q^8-q^7+q^3 each.
    """
    # (dimension d, bottom, multiplicity) per part: a block keeping d when
    # punctured extends a d-subspace of F_q^4 by a free last column (bottom
    # 0), one dropping to d - 1 a (d-1)-subspace by the unit vector (1)
    parts = ((1, 1, 1), (2, 0, 1), (3, 0, q * (q ** 3 - 1)), (3, 1, q ** 4),
             (4, 0, q ** 8 - q ** 7 + q ** 3), (4, 1, q ** 7 * (q - 1)))
    return ExtensionFamilies(DesignParams(q, 3, 4, 8, 5), 4, tuple(
        (d, None, bottom, mult) for d, bottom, mult in parts))


def fano_m5_families(q: int, parallelism: Parallelism) -> ExtensionFamilies:
    """The four-type 2-punctured system S_q(2,3,7;5) built from a
    parallelism of F_q^4: ``recursive_families`` at k = 3 over the base
    S_q(2,3,3;1) (the raised 0-subspace, once), with the parallelism's
    last q+1 spreads as the zero set and its first q^2 as the set tagged
    with <1>.  Its four types are the base, the 3-subspaces at q(q-1),
    the zero set's lines extended at 1 and the tagged lines raised at
    q^2.
    """
    spreads = parallelism.spreads[-(q + 1):] + parallelism.spreads[:-(q + 1)]
    return recursive_families(
        q, 3, Parallelism(parallelism.field, parallelism.n, spreads),
        construct_uniform_design(q, 2, 3, 3, 1, {1: 1}))


def check_recursive_k(k: int) -> None:
    """Refuse a k for which no S_q(2,3,2k+1;k+1+r) is constructed, nor
    the uniform S_q(2,3,2k+1;k+1) it starts from."""
    if k < 3 or k % 6 not in (1, 3):
        raise ValueError(f"need k = 1 or 3 (mod 6), k >= 3, got k={k}")


def recursive_families(q: int, k: int, parallelism: Parallelism,
                       base: DesignMultiset) -> ExtensionFamilies:
    """Recursive construction of S_q(2,3,2k+1;k+1+r), r = floor((k+1)/3).

    Starts from the uniform S_q(2,3,2k+1;k+1) and appends r columns:
    3-subspaces get every suffix combination at multiplicity
    q^{k+1-3r}(q-1); the 0-subspace is replaced by the base design
    S_q(2,3,k;r) placed on the new columns; the parallelism's [k,1]_q
    spreads split into a zero set of [k-r,1]_q (extended to 2-subspaces,
    q^{2r} suffix pairs at multiplicity q^{k-1-2r}) and one set of
    q^{k-r} per 1-subspace <v> of F_q^r (extended to 3-subspaces whose
    last row is v, q^{2(r-1)} suffix pairs at multiplicity q^{k+1-2r}).
    Verified for q = 2 at k = 3 and 7 and for q = 3 at k = 3; q > 2 at
    k >= 7 is untried, for want of a parallelism of F_q^8.
    """
    check_recursive_k(k)
    r = (k + 1) // 3
    if parallelism.field.q != q or parallelism.n != k + 1:
        raise ValueError(f"need a parallelism of F_{q}^{k + 1}")
    if base.params != DesignParams(q, 2, 3, k, r):
        raise ValueError(f"base design must be an S_{q}(2,3,{k};{r})")
    if not verify(base).ok:
        raise ValueError("base design fails verification")

    keys = [sp.keys for sp in parallelism.spreads]     # spread by spread
    parts = [(3, None, 0, q ** (k + 1 - 3 * r) * (q - 1))]
    parts += [(d, (0,), b, mult) for d, table in base.tables.items()
              for b, mult in table.items()]
    start = gaussian(k - r, 1, q)
    parts.append((2, chain(*keys[:start]), 0, q ** (k - 1 - 2 * r)))
    # the sets after the zero set are tagged with the vectors v of F_q^r
    # whose first nonzero entry is 1, in ``vector_code`` order; bottom <v>
    size = q ** (k - r)
    for v in (vector_from_code(c, q, r) for c in range(1, q ** r)):
        if next(filter(None, v)) == 1:
            parts.append((3, chain(*keys[start:start + size]),
                          rows_key(q, (v,)), q ** (k + 1 - 2 * r)))
            start += size
    return ExtensionFamilies(DesignParams(q, 2, 3, 2 * k + 1, k + 1 + r), k + 1,
                             tuple(parts))


# ---------------------------------------------------------------------------
# Column transforms
# ---------------------------------------------------------------------------

def _transform_matrix(field: GF, ncols: int, column_ops: Iterable) -> list:
    """Compose the column operations into one invertible matrix, as its
    rows.  An operation replaces column j of the matrix by the
    combination of its columns with the given coefficients."""
    q = field.q
    cols = [tuple(1 if i == j else 0 for i in range(ncols)) for j in range(ncols)]
    for op in column_ops:
        j, coeffs = op
        coeffs = tuple(coeffs)
        if len(coeffs) != ncols:
            raise ValueError(f"operation on column {j} needs {ncols} coefficients")
        if not 0 <= j < ncols:
            raise ValueError(f"column index {j} out of range")
        if any(not 0 <= c < q for c in coeffs):
            raise ValueError("coefficient outside the field")
        if coeffs[j] == 0:
            raise ValueError(f"column {j} must occur with nonzero coefficient")
        cols[j] = _combine(field, ncols, coeffs, cols)
    return list(zip(*cols))


def apply_transform(target, column_ops: Iterable):
    """Replace columns by linear combinations (each including the
    replaced column with nonzero coefficient) in every block.

    Works on a SteinerSystem or a DesignMultiset and preserves its
    verification status.
    """
    ops = list(column_ops)
    if isinstance(target, DesignMultiset):
        q, m, tables = target.params.q, target.params.m, target.tables
    elif isinstance(target, SteinerSystem):
        q, m, tables = target.field.q, target.n, {target.k: dict.fromkeys(target.keys, 1)}
    else:
        raise TypeError(f"cannot transform {type(target).__name__}")
    field = make_field(q)
    mat = _transform_matrix(field, m, ops)
    images: dict = {}      # row code -> the row times the matrix
    out_tables: dict = {}
    for table in tables.values():
        for key, mult in table.items():
            rows = []
            for code in row_codes(key, q, m):
                image = images.get(code)
                if image is None:
                    image = images[code] = _combine(
                        field, m, _code_row(code, q, m), mat)
                rows.append(image)
            out = out_tables.setdefault(len(rows), {})
            key = rows_key(q, _rref_rows(field, rows, m))
            out[key] = out.get(key, 0) + mult
    if isinstance(target, DesignMultiset):
        return DesignMultiset._from_tables(target.params, out_tables)
    keys = sorted(out_tables.get(target.k, ()))
    if len(keys) != len(target.keys):
        raise ConstructionError("transform collapsed two blocks")
    return SteinerSystem._of_keys(target.field, target.t, target.k, m, keys)
