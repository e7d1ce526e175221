"""Plain-text, line-oriented file formats for designs and parallelisms.

Design file (``qsteiner-design v1``)::

    qsteiner-design v1
    q=2 t=2 k=3 n=7 m=4
    block 1 0 -
    block 4 2 1000;0100
    ...

One line per distinct block: multiplicity, dimension, then the RREF
basis rows joined by ";".  A row is written as m field-element digits,
contiguous for q <= 9 and space-separated for larger q.  The dimension-0
block is written with "-" in place of rows.  Blocks are sorted in
canonical subspace order (dimension, then row-major lexicographic), so
serialization is deterministic and diffable; that order is the numeric
order of the blocks' keys.  Reading and writing go between row text and
the key tables of ``DesignMultiset`` directly.  A design file is read in
chunks, never whole.  A block line is read one of three ways.  The
fast path splits it at its first ";" into its prefix (the text ``block
M D top``) and the text of the rows below the top row (its suffix), and
looks both up in tables of those already seen: a suffix's entry holds
its key and a bit mask, a prefix's entry a bit mask, the top row's
share of the key and the line's multiplicity and table.  The masks are
built so that they are disjoint exactly when the top row fits the
suffix as an RREF basis of dimension D, so the whole check is one
``&``, and the key one addition.  Lines come in runs of one prefix, and
a prefix is looked up only when it differs from the line before's.  The
middle path first enters a new suffix of rows read before, or a new
prefix in the writer's form over a top row read before.  Every other
line, and every error, goes through the full check, which parses each
distinct row once and raises every message.
Memory is bounded by the distinct rows, suffixes and prefixes, not by
the blocks.  The writer refuses a multiplicity below 1 before it opens
the file.

Parallelism file (``qsteiner-parallelism v1``)::

    qsteiner-parallelism v1
    q=2 n=4
    spread
    1000;0100
    ...

Each ``spread`` marker starts a spread; each following line is one
2-subspace in the block row syntax.  Files are verified on load.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from typing import Iterator

from .designs import (DesignMultiset, DesignParams, Parallelism,
                      _canonical_parallelism)
from .field import make_field
from .subspaces import (Subspace, _code_row, _row_entry, _rref_key, row_codes,
                        subspace_from_key)

DESIGN_HEADER = "qsteiner-design v1"
PARALLELISM_HEADER = "qsteiner-parallelism v1"

# characters read from a design file at a time
_CHUNK = 1 << 20
# block lines written to a design file at a time
_LINES = 1 << 12


def _format_row(row: tuple, q: int) -> str:
    if q <= 9:
        return "".join(str(x) for x in row)
    return " ".join(str(x) for x in row)


def _is_decimal(token: str) -> bool:
    """True iff token is ASCII digits 0-9 only; ``int`` also takes signs,
    underscores and non-ASCII decimal digits."""
    return token.isascii() and token.isdigit()


def _parse_params(line: str, names: str) -> tuple:
    """The ``name=value`` numbers of a parameter line, in ``names``
    order; raises ValueError on a repeated or unknown name or a
    non-decimal value, KeyError on a missing name."""
    pairs = [tok.split("=") for tok in line.split()]
    fields = dict(pairs)
    if len(fields) != len(pairs):
        raise ValueError(f"parameter line {line!r} repeats a name")
    if not fields.keys() <= set(names):
        raise ValueError(f"parameter line {line!r} has a name outside {names!r}")
    values = [fields[name] for name in names]
    if not all(map(_is_decimal, values)):
        raise ValueError(f"parameters {values} are not ASCII decimal numbers")
    return tuple(map(int, values))


def _parse_row(text: str, q: int, m: int) -> tuple:
    tokens = text if q <= 9 else text.split()
    if not all(map(_is_decimal, tokens)):
        raise ValueError(f"row {text!r} is not written in ASCII decimal digits")
    digits = list(map(int, tokens))
    if len(digits) != m:
        raise ValueError(f"row {text!r} does not have {m} coordinates")
    if digits and max(digits) >= q:
        raise ValueError(f"row {text!r} has elements outside F_{q}")
    # tuple() of a list is exact-size; of a map it keeps the growth slack
    return tuple(digits)


def format_block_rows(block: Subspace) -> str:
    """The ``row;row;...`` rendering of a block ('-' for dimension 0)."""
    if block.dim == 0:
        return "-"
    return ";".join(_format_row(r, block.field.q) for r in block.rows)


def _parse_block(text: str, q: int, m: int, dim: int, seen: dict) -> int:
    """The key (``subspaces.rows_key``) of one block of F_q^m written as
    ``text``, checked; ``seen`` maps row text to its ``_row_entry``, so
    each distinct row is parsed once."""
    if text == "-":
        if dim != 0:
            raise ValueError("'-' rows are only valid for dimension 0")
        return 0
    entries = []
    for part in text.split(";"):
        if part not in seen:
            seen[part] = _row_entry(_parse_row(part, q, m), q)
        entries.append(seen[part])
    if len(entries) != dim:
        raise ValueError(f"block says dimension {dim} but has {len(entries)} rows")
    return _rref_key(entries, q ** m)


class _Texts(dict):
    """``texts[x]`` is ``make(x)``, made on the first lookup."""

    def __init__(self, make) -> None:
        self.make = make

    def __missing__(self, x) -> str:
        text = self[x] = self.make(x)
        return text


def _check_positive(design: DesignMultiset) -> None:
    """ValueError with the reader's message for the first block line, in
    file order, whose multiplicity is below 1."""
    p = design.params
    for d in sorted(design.tables):
        table = design.tables[d]
        if min(table.values(), default=1) < 1:
            key = min(key for key, mult in table.items() if mult < 1)
            block = subspace_from_key(make_field(p.q), p.m, key)
            line = f"block {table[key]} {d} {format_block_rows(block)}"
            raise ValueError(f"multiplicity must be positive in {line!r}")


def _design_lines(design: DesignMultiset) -> Iterator[str]:
    """The lines of the design file: blocks in canonical order, dimension
    first, then the rows lexicographically, one dimension at a time.

    A dimension's keys are sorted, which is the canonical order, and
    each is split once into its top row and the key of the rows below it
    (its suffix).  A row's text and a suffix's text are worked out once
    each, the head ``block M D top`` once per run of one top row and
    multiplicity."""
    p = design.params
    q, m = p.q, p.m
    yield f"{DESIGN_HEADER}\nq={q} t={p.t} k={p.k} n={p.n} m={m}\n"
    row_text = _Texts(lambda code: _format_row(_code_row(code, q, m), q))
    suffix_text = _Texts(lambda rest: "".join(
        [";" + row_text[code] for code in row_codes(rest, q, m)]) + "\n")
    for d in sorted(design.tables):
        table = design.tables[d]
        if d == 0:
            yield f"block {table[0]} 0 -\n"
            continue
        place = q ** (m * (d - 1))
        keys = sorted(table)
        top = mult = None
        for start in range(0, len(keys), _LINES):
            lines = []
            for key in keys[start:start + _LINES]:
                code, rest = divmod(key, place)
                if code != top or table[key] != mult:
                    top, mult = code, table[key]
                    head = f"block {mult} {d} {row_text[code]}"
                lines.append(head + suffix_text[rest])
            yield "".join(lines)


def serialize_design(design: DesignMultiset) -> str:
    """The design file text (see the module docstring); ValueError if a
    block's multiplicity is below 1."""
    _check_positive(design)
    return "".join(_design_lines(design))


def _pieces(source) -> Iterator[str]:
    """``source``, a str or an open text file, in pieces that end where
    lines end: a file is read in chunks, each cut after its last "\\n",
    so splitting the pieces cuts the lines of the whole text."""
    if isinstance(source, str):
        yield source
        return
    pending: list = []
    while chunk := source.read(_CHUNK):
        cut = chunk.rfind("\n") + 1
        if cut:
            pending.append(chunk[:cut])
            yield "".join(pending)
            pending = [chunk[cut:]]
        else:
            pending.append(chunk)
    yield "".join(pending)


def _suffix_entry(entries: list, m: int, big: int) -> tuple:
    """The fit mask (see ``_prefix_entry``) and the key of the e block
    rows with these ``_row_entry`` values, top row first; ValueError
    unless they are in RREF.  The mask holds the rows' pivot columns,
    the columns at or right of the top row's lead shifted by m (none if
    e = 0), and the bit 2m + e."""
    key = _rref_key(entries, big)
    pivots = sum(1 << entry[1] for entry in entries)
    right = (1 << m) - (1 << entries[0][1]) if entries else 0
    return pivots | right << m | 1 << 2 * m + len(entries), key


def _prefix_entry(text: str, seen: dict, tables: dict, m: int, big: int) -> tuple:
    """The fit mask, the top row's share ``top * big**(D-1)`` of the key,
    M and the table of D, for a prefix ``block M D top`` in the writer's
    form, M >= 1 and 1 <= D <= m; ValueError if not in that form or if
    top has no leading 1, KeyError unless top is in ``seen``.

    The mask holds top's nonzero columns, its lead shifted by m, and the
    bits 2m + e for every e in 0..m but D - 1.  It is disjoint from a
    suffix's mask (``_suffix_entry``) iff top is zero at the suffix's
    pivots, leads left of the suffix's top row, and stands over D - 1
    rows: iff top over the suffix is an RREF basis of dimension D."""
    _, mult, dim, top = text.split(" ", 3)
    mult, dim = int(mult), int(dim)
    if mult < 1 or not 1 <= dim <= m or f"block {mult} {dim} {top}" != text:
        raise ValueError(text)
    code, lead, nonzero, _ = seen[top]
    if lead < 0:
        raise ValueError(text)
    others = ((1 << m + 1) - 1) ^ (1 << dim - 1)
    mask = nonzero | 1 << m + lead | others << 2 * m
    return mask, code * big ** (dim - 1), mult, tables[dim]


def parse_design(source) -> DesignMultiset:
    """The design in ``source``: the text of a design file, or the file
    open for reading, read in chunks."""
    lines = chain.from_iterable(piece.splitlines() for piece in _pieces(source))
    head = filter(str.strip, lines)
    if next(head, "").strip() != DESIGN_HEADER:
        raise ValueError(f"missing header {DESIGN_HEADER!r}")
    param_line = next(head, None)
    if param_line is None:
        raise ValueError("missing parameter line")
    try:
        params = DesignParams(*_parse_params(param_line, "qtknm"))
    except (KeyError, IndexError, ValueError) as exc:
        raise ValueError(f"bad parameter line {param_line!r}") from exc
    q, m = params.q, params.m
    big = q ** m
    tables: dict = defaultdict(dict)
    seen: dict = {}
    # block rows below the top row -> their ``_suffix_entry``; a one-row
    # block stands over the empty suffix
    suffixes: dict = {}
    empty = _suffix_entry([], m, big)
    # the text "block M D top" of a line before its first ";" -> its
    # ``_prefix_entry``; ``p`` is the entry of ``last``, the prefix of
    # the line before
    prefixes: dict = {}
    last = p = None
    # a mask that meets every mask, for a line the middle path refuses
    refused = (-1,)
    for ln in lines:
        # the fast path: a block is its top row over a known suffix, so
        # checking it is checking the top row against the suffix, and its
        # key is the top row's share plus the suffix's key, one step of
        # ``_rref_key``
        prefix, sep, rest = ln.partition(";")
        if prefix != last:
            last, p = prefix, prefixes.get(prefix)
        below = suffixes.get(rest) if sep else empty
        if p is None or below is None:
            # the middle path: enter what is new, if it can be, then test
            try:
                if below is None:
                    below = suffixes[rest] = _suffix_entry(
                        [seen[part] for part in rest.split(";")], m, big)
                if p is None:
                    p = prefixes[prefix] = _prefix_entry(prefix, seen, tables, m, big)
            except (KeyError, ValueError):
                # the next line looks its prefix up again: the full check
                # may enter the top row this one lacks
                last, p, below = None, refused, refused
        if not p[0] & below[0]:
            key = p[1] + below[1]
            if key not in p[3]:
                p[3][key] = p[2]
                continue
        # the full check: every other line, and every error
        parts = ln.split(maxsplit=3)
        if not parts:
            continue
        if len(parts) != 4 or parts[0] != "block":
            raise ValueError(f"bad block line {ln!r}")
        if not (_is_decimal(parts[1]) and _is_decimal(parts[2])):
            raise ValueError(f"multiplicity and dimension must be ASCII "
                             f"decimal numbers in {ln!r}")
        mult, dim = int(parts[1]), int(parts[2])
        if mult < 1:
            raise ValueError(f"multiplicity must be positive in {ln!r}")
        key = _parse_block(parts[3], q, m, dim, seen)
        table = tables[dim]
        if key in table:
            raise ValueError(f"duplicate block line for {parts[3]!r}")
        table[key] = mult
    return DesignMultiset._from_tables(params, tables)


def write_design(design: DesignMultiset, path) -> None:
    """Write the design file; ValueError, before opening it, if a block's
    multiplicity is below 1."""
    _check_positive(design)
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(_design_lines(design))


def parse_design_file(path) -> DesignMultiset:
    with open(path, encoding="ascii") as fh:
        try:
            return parse_design(fh)
        except ValueError:
            # a file that is not all ASCII is rejected for that before any
            # line, at the byte position a whole-file read reports
            fh.seek(0)
            try:
                while fh.read(_CHUNK):
                    pass
            except UnicodeDecodeError:
                fh.seek(0)
                fh.read()
            raise


def serialize_parallelism(para: Parallelism) -> str:
    q, n = para.field.q, para.n
    # each vector's text, formatted once: a parallelism of F_q^n has
    # about q^(2n-4) lines, F_q^n q^n vectors
    text = [_format_row(_code_row(code, q, n), q) for code in range(q ** n)]
    lines = [PARALLELISM_HEADER, f"q={q} n={n}"]
    for sp in para.spreads:
        lines.append("spread")
        lines.extend(";".join([text[c] for c in row_codes(key, q, n)]) for key in sp.keys)
    return "\n".join(lines) + "\n"


def parse_parallelism(text: str) -> Parallelism:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != PARALLELISM_HEADER:
        raise ValueError(f"missing header {PARALLELISM_HEADER!r}")
    if len(lines) < 2:
        raise ValueError("missing parameter line")
    try:
        q, n = _parse_params(lines[1], "qn")
    except (KeyError, IndexError, ValueError) as exc:
        raise ValueError(f"bad parameter line {lines[1]!r}") from exc
    if n < 2 or n % 2:
        raise ValueError(f"bad parameter line {lines[1]!r}: n={n} is not "
                         f"an even number >= 2")
    field = make_field(q)
    groups: list = []
    seen: dict = {}
    for ln in lines[2:]:
        if ln == "spread":
            groups.append([])
            continue
        if not groups:
            raise ValueError("line outside any spread section")
        # each line is checked as a block of its own row count; ``Spread``
        # then rejects a line that is not 2-dimensional
        groups[-1].append(_parse_block(ln, q, n, ln.count(";") + 1, seen))
    return _canonical_parallelism(field, n, groups)


def write_parallelism(para: Parallelism, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_parallelism(para))


def parse_parallelism_file(path) -> Parallelism:
    with open(path, encoding="ascii") as fh:
        return parse_parallelism(fh.read())


def packaged_parallelism_path(q: int, n: int):
    """Path of a parallelism shipped with the package, or None.

    The package carries one verified parallelism, of F_3^4: the orbit
    search of ``designs.build_parallelism`` covers q = 2 only.
    """
    from importlib.resources import files as resource_files
    candidate = resource_files("qsteiner") / "data" / f"parallelism-q{q}-n{n}.txt"
    return candidate if candidate.is_file() else None
