"""Property tests (hypothesis) for the key-table design form: file
round trips, puncturing and column transforms, the rejection of
malformed block lines, and edited files read as a line-by-line reader
reads them; for the class sums of extension families; for
``rref`` as the canonical form, ``_rref_rows`` against spans counted
by brute force, and the keys' numeric order as the canonical order;
for the ``N`` and ``D`` oracles at random witnesses; and for the
parallelisms of the orbit search."""

from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from slow_oracles import object_coverage, object_parse_design, object_span

from qsteiner.counting import (ORACLE_GUARD, count_D, count_N,
                               covering_coefficient, gaussian, oracle_D,
                               oracle_N)
from qsteiner.designs import (DesignMultiset, DesignParams, ExtensionFamilies,
                              _class_sums, _punctured_tables,
                              apply_transform, build_parallelism,
                              construct_uniform_design, puncture_design,
                              s3485_families, verify, verify_families)
from qsteiner.field import SUPPORTED_ORDERS, make_field
from qsteiner.files import (format_block_rows, parse_design,
                            parse_parallelism, serialize_design,
                            serialize_parallelism)
from qsteiner.subspaces import (Subspace, _rref_rows, enumerate_subspaces,
                                grassmannian_keys, null_subspace, puncture,
                                puncture_key, row_codes, rows_key, rref)

# deterministic, and no example database written to the working tree
SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[HealthCheck.too_slow])

# (q, m) pairs small enough for a quick verify
SHAPES = ((2, 4), (3, 3), (4, 3), (5, 2), (9, 2), (16, 2))

multiplicities = st.one_of(st.integers(1, 5), st.integers(2 ** 63, 2 ** 70))


@st.composite
def designs(draw, shapes=SHAPES, null_block=False):
    """A design of random blocks, each the span of random vectors, with
    random multiplicities; the null block is always there if asked."""
    q, m = draw(st.sampled_from(shapes))
    field = make_field(q)
    params = DesignParams(q, 2, 3, max(m + draw(st.integers(1, 3)), 3), m)
    vector = st.tuples(*[st.integers(0, q - 1)] * m)
    blocks = {}
    for vectors, mult in draw(st.lists(st.tuples(st.lists(vector, max_size=m),
                                                 multiplicities), max_size=12)):
        blocks[rref(field, vectors) if vectors else null_subspace(field, m)] = mult
    if null_block:
        blocks[null_subspace(field, m)] = 1
    return DesignMultiset(params, blocks)


@st.composite
def column_ops(draw, q, m):
    """One to three column operations, each keeping its own column."""
    ops = []
    for _ in range(draw(st.integers(1, 3))):
        j = draw(st.integers(0, m - 1))
        coeffs = draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m))
        coeffs[j] = draw(st.integers(1, q - 1))
        ops.append((j, tuple(coeffs)))
    return ops


VERIFIED = ("fano-m4 q=2", "fano-m4 q=3", "fano-m4 q=4", "s3485 q=2")


@lru_cache(maxsize=None)
def verified(name: str) -> DesignMultiset:
    if name == "s3485 q=2":
        return s3485_families(2).design()
    q = int(name[-1])
    return construct_uniform_design(q, 2, 3, 7, 4,
                                    {0: 1, 1: 0, 2: q * q, 3: q ** 4 * (q - 1)})


@SETTINGS
@given(designs())
def test_serialize_parse_round_trip(design):
    """Serialize, parse, serialize: the same design and the same bytes,
    with the blocks in the canonical order read off Subspace objects."""
    text = serialize_design(design)
    again = parse_design(text)
    assert again == design
    assert serialize_design(again) == text
    canonical = sorted(design.blocks.items(),
                       key=lambda item: (item[0].dim, item[0].rows))
    assert text.splitlines()[2:] == [f"block {mult} {b.dim} {format_block_rows(b)}"
                                     for b, mult in canonical]


@SETTINGS
@given(st.sampled_from(VERIFIED), st.integers(1, 4))
def test_puncture_keeps_verified_designs_verified(name, times):
    design = verified(name)
    for _ in range(min(times, design.params.m - 1)):
        design = puncture_design(design)
        assert verify(design).ok


@SETTINGS
@given(designs(shapes=[s for s in SHAPES if s[1] >= 2]))
def test_puncture_design_matches_subspace_puncture(design):
    """Puncturing keys gives the blocks ``puncture`` gives, images of
    equal blocks adding up their multiplicities."""
    expected: dict = {}
    for b, mult in design.blocks.items():
        image = puncture(b, 1)
        expected[image] = expected.get(image, 0) + mult
    assert puncture_design(design).blocks == expected


@st.composite
def key_tables(draw):
    """Key tables of F_q^m, q <= 5 and m <= 5, in a random dimension
    order: random subspaces of every dimension at random multiplicities,
    and the one-row block leading in the last column (key 1)."""
    q = draw(st.sampled_from((2, 3, 4, 5)))
    m = draw(st.integers(1, 5))
    field = make_field(q)
    vector = st.tuples(*[st.integers(0, q - 1)] * m)
    tables: dict = {}
    for vectors, mult in draw(st.lists(st.tuples(st.lists(vector, max_size=m),
                                                 st.integers(1, 3)), max_size=12)):
        y = rref(field, vectors) if vectors else null_subspace(field, m)
        tables.setdefault(y.dim, {})[rows_key(q, y.rows)] = mult
    tables.setdefault(1, {})[1] = draw(st.integers(1, 3))
    return q, m, tables


@SETTINGS
@given(key_tables())
def test_punctured_tables_match_puncture_key(case):
    """Puncturing by top row and cached suffix gives the tables, in their
    dimension order and key order, of ``puncture_key`` on each key."""
    q, m, tables = case
    expected: dict = {}
    for table in tables.values():
        for key, mult in table.items():
            img = puncture_key(key, q, m)
            out = expected.setdefault(len(row_codes(img, q, m - 1)), {})
            out[img] = out.get(img, 0) + mult
    got = _punctured_tables(q, m, tables)
    assert [(d, list(t.items())) for d, t in got.items()] \
        == [(d, list(t.items())) for d, t in expected.items()]


# (q, m1, r) of the random families: m1 <= 4, r <= 2, at most q^m = 256
FAMILY_SHAPES = tuple((q, m1, r) for q in (2, 3, 4) for m1 in range(5)
                      for r in range(3) if 1 <= m1 + r and q ** (m1 + r) <= 256)


@st.composite
def families(draw):
    """Extension families of F_q^m, m = m1 + r (``FAMILY_SHAPES``), t <=
    2: one to four parts of random dimensions and bottoms, each with a
    random set of at most four tops or all of them (None), at
    multiplicities -1 to 3; parts may overlap."""
    q, m1, r = draw(st.sampled_from(FAMILY_SHAPES))
    m = m1 + r
    t = draw(st.integers(1, 2))
    k = draw(st.integers(t + 1, t + 2))
    n = max(k, m + 1) + draw(st.integers(0, 2))
    bottoms = [key for e in range(r + 1) for key in grassmannian_keys(q, r, e)]
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        bottom = draw(st.sampled_from(bottoms))
        d1 = draw(st.integers(0, m1))
        keys = draw(st.none() | st.lists(st.sampled_from(grassmannian_keys(q, m1, d1)),
                                         max_size=4, unique=True))
        parts.append((d1 + len(row_codes(bottom, q, r)), keys, bottom,
                      draw(st.integers(-1, 3))))
    return ExtensionFamilies(DesignParams(q, t, k, n, m), m1, tuple(parts))


@SETTINGS
@given(families())
def test_class_sums_match_each_subspace(fam):
    """``verify_families`` reports exactly as ``verify`` of the expansion.
    Each s-subspace X is covered (``object_coverage`` of the expansion)
    as its class (U, K) says, also where parts overlap, U the rows of X
    leading left of column m1 cut to m1 columns and K the other rows
    cut to the last r, and each class holds size of them.  A class's
    sum is its U's entry in the sums of its (u, K), else the default,
    so the default is expanded over every u-subspace U of F_q^{m1}."""
    design = fam.design()
    assert verify_families(fam) == verify(design)
    pr, m1 = fam.params, fam.m1
    for s in pr.s_range():
        sums = {}
        for u, below, size, default, listed in _class_sums(pr, m1, fam.parts, s):
            tops = grassmannian_keys(pr.q, m1, u)
            assert listed.keys() <= set(tops)
            sums.update(((top, below), (size, listed.get(top, default))) for top in tops)
        weighted = [(y, mult * covering_coefficient(s, pr.t, y.dim, pr.k, pr.q))
                    for y, mult in design.blocks.items()]
        sizes = Counter()
        for rows, got in object_coverage(weighted, make_field(pr.q), pr.m, s):
            cls = (rows_key(pr.q, tuple(row[:m1] for row in rows if row.index(1) < m1)),
                   rows_key(pr.q, tuple(row[m1:] for row in rows if row.index(1) >= m1)))
            assert sums[cls][1] == got
            sizes[cls] += 1
        assert sizes == {cls: size for cls, (size, _) in sums.items()}


@SETTINGS
@given(st.sampled_from(SUPPORTED_ORDERS), st.integers(0, 6), st.integers(0, 4),
       st.data())
def test_class_count_identity(q, m1, r, data):
    """The classes (U, K) of s-subspaces, q^{u(r-kappa)} subspaces each,
    count every s-subspace of F_q^{m1+r} once."""
    s = data.draw(st.integers(0, m1 + r))
    assert sum(gaussian(m1, u, q) * gaussian(r, s - u, q) * q ** (u * (r - s + u))
               for u in range(max(0, s - r), min(s, m1) + 1)) == gaussian(m1 + r, s, q)


@SETTINGS
@given(st.data())
def test_transform_preserves_verification(data):
    """A column transform permutes the subspaces of F_q^m and keeps
    containment, so the verdict, the number of equations and the
    multiset of nonzero residuals stay."""
    design = data.draw(st.one_of(st.sampled_from(VERIFIED).map(verified),
                                 designs()))
    ops = data.draw(column_ops(design.params.q, design.params.m))
    before, after = verify(design), verify(apply_transform(design, ops))
    assert after.ok == before.ok
    assert after.equations_checked == before.equations_checked
    assert sorted(v.got - v.expected for v in after.violations) \
        == sorted(v.got - v.expected for v in before.violations)
    assert len(after.block_dim_violations) == len(before.block_dim_violations)
    assert after.total_multiplicity == before.total_multiplicity


@st.composite
def mixed_designs(draw, shapes=((2, 4), (3, 3), (4, 3), (16, 3))):
    """A design of ``designs`` joined with every subspace of one
    dimension d, 1 < d < m, each at multiplicity 1, 2 or 3, so that one
    top row stands in block lines of several multiplicities and over
    several rows below it."""
    design = draw(designs(shapes=shapes))
    q, m = design.params.q, design.params.m
    blocks = dict(design.blocks)
    for x in enumerate_subspaces(make_field(q), m, draw(st.integers(2, m - 1))):
        blocks[x] = draw(st.integers(1, 3))
    return DesignMultiset(design.params, blocks)


# a block line as the writer does not write it, which the parser reads
# through its full per-line check
OFF_FORM = (lambda ln: "block  " + ln[6:], lambda ln: "\t" + ln,
            lambda ln: "{} {} {}  {}".format(*ln.split(" ", 3)))


@SETTINGS
@given(mixed_designs(), st.data())
def test_known_prefix_path_matches_line_path(design, data):
    """Reading lines whose prefix ("block M D top") and rows below the
    top row are already known gives the tables, in the same order, that
    the full check of every line gives, and so does reading the lines
    in any order."""
    lines = serialize_design(design).splitlines(keepends=True)
    head, body = lines[:2], lines[2:]
    off_form = [data.draw(st.sampled_from(OFF_FORM))(ln) for ln in body]
    parsed = parse_design("".join(lines))
    by_line = parse_design("".join(head + off_form))
    assert parsed == by_line == design
    assert [(d, list(t.items())) for d, t in parsed.tables.items()] \
        == [(d, list(t.items())) for d, t in by_line.tables.items()]
    shuffled = data.draw(st.permutations(body))
    assert parse_design("".join(head + shuffled)) == design


def _edit_file(text: str, data) -> str:
    """``text`` with one edit: a line dropped, duplicated or swapped with
    another, a digit changed, a multiplicity set to 0, or a blank or
    CR LF line inserted."""
    lines = text.splitlines(keepends=True)
    edit = data.draw(st.sampled_from(("drop", "duplicate", "swap", "digit",
                                      "zero", "blank", "crlf")))
    i = data.draw(st.integers(0, len(lines) - 1))
    if edit == "drop":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(data.draw(st.integers(0, len(lines))), lines[i])
    elif edit == "swap":
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == "digit":
        at = data.draw(st.sampled_from([at for at, c in enumerate(text)
                                        if c.isdigit()]))
        # a 0 or 1 keeps the row in every field, so the RREF check sees it
        digit = data.draw(st.sampled_from("01") | st.sampled_from("0123456789"))
        return text[:at] + digit + text[at + 1:]
    elif edit == "zero":
        word, _, rest = lines[max(i, 2)].split(" ", 2)
        lines[max(i, 2)] = f"{word} 0 {rest}"
    elif edit == "blank":
        lines.insert(i, data.draw(st.sampled_from(("\n", " \n", "\t \n"))))
    else:
        lines.insert(i, "\r\n")
        lines[i + 1] = lines[i + 1].rstrip("\n") + "\r\n"
    return "".join(lines)


@settings(SETTINGS, max_examples=150)
@given(mixed_designs(shapes=((2, 4), (3, 3), (4, 3))), st.data())
def test_parse_matches_object_parse(design, data):
    """A design file with one edit is read as the line-by-line reader
    ``object_parse_design`` reads it: accepted by both, with equal
    parameters and the same tables in the same order, or by neither."""
    text = _edit_file(serialize_design(design), data)
    try:
        params, tables = object_parse_design(text)
    except ValueError:
        with pytest.raises(ValueError):
            parse_design(text)
        return
    parsed = parse_design(text)
    assert parsed.params == params
    assert [(d, list(t.items())) for d, t in parsed.tables.items()] \
        == [(d, list(t.items())) for d, t in tables.items()]


# The malformed block lines of tests/test_files.py, each with the exact
# message it is rejected with: (q, m, line, message).
MALFORMED = (
    (2, 4, "block 0 0 -", "multiplicity must be positive in 'block 0 0 -'"),
    (2, 4, "block 4 2 0100;1000",
     "rows ((0, 1, 0, 0), (1, 0, 0, 0)) are not in reduced row echelon form"),
    (2, 4, "block 9 0 -", "duplicate block line for '-'"),
    (2, 4, "block 4 2 0210;0001", "row '0210' has elements outside F_2"),
    (2, 4, "block 4 1 0010;0001", "block says dimension 1 but has 2 rows"),
    (2, 4, "block 4 2 10x0;0001",
     "row '10x0' is not written in ASCII decimal digits"),
    (2, 4, "block 4 2 0000;0001",
     "rows ((0, 0, 0, 0), (0, 0, 0, 1)) are not in reduced row echelon form"),
    (2, 4, "block 4 2 00100;0001", "row '00100' does not have 4 coordinates"),
    (2, 4, "block +1_0 0 -", "multiplicity and dimension must be ASCII "
                             "decimal numbers in 'block +1_0 0 -'"),
    (2, 4, "block 1 1 ０００１",
     "row '０００１' is not written in ASCII decimal digits"),
    (2, 4, "block x 0 -", "multiplicity and dimension must be ASCII "
                          "decimal numbers in 'block x 0 -'"),
    (2, 4, "block 1 1 1000 0100",
     "row '1000 0100' is not written in ASCII decimal digits"),
    (16, 2, "block 3 1 1 16", "row '1 16' has elements outside F_16"),
    (16, 2, "block 3 1 1 +1_5",
     "row '1 +1_5' is not written in ASCII decimal digits"),
    (16, 2, "block 3 1 1 -1", "row '1 -1' is not written in ASCII decimal digits"),
    # an empty row: after the last ";", before the first, between two
    (2, 4, "block 1 1 0001;", "row '' does not have 4 coordinates"),
    (2, 4, "block 1 2 ;0001", "row '' does not have 4 coordinates"),
    (2, 4, "block 1 3 1000;;0001", "row '' does not have 4 coordinates"),
)


@pytest.mark.parametrize("q, m, line, message", MALFORMED,
                         ids=[case[2] for case in MALFORMED])
@settings(SETTINGS, max_examples=10)
@given(data=st.data())
def test_malformed_block_line_rejected(q, m, line, message, data):
    """Wherever the line stands among the lines of a valid file, the
    file is rejected with the line's message."""
    design = data.draw(designs(shapes=[(q, m)], null_block=True))
    lines = serialize_design(design).splitlines()
    lines.insert(data.draw(st.integers(2, len(lines))), line)
    with pytest.raises(ValueError) as exc:
        parse_design("\n".join(lines) + "\n")
    assert str(exc.value) == message


@pytest.mark.parametrize("q, m", SHAPES)
@settings(SETTINGS, max_examples=10)
@given(data=st.data())
def test_rref_is_canonical(q, m, data):
    """``rref`` leaves an RREF basis unchanged and maps every other basis
    of its span, an invertible combination of its rows, back to it."""
    field = make_field(q)
    vector = st.tuples(*[st.integers(0, q - 1)] * m)
    x = rref(field, data.draw(st.lists(vector, min_size=1, max_size=m)))
    assume(x.dim)
    assert rref(field, x.rows) == x
    add, mul = field.add_table, field.mul_table
    rows = [list(r) for r in x.rows]
    index = st.integers(0, x.dim - 1)
    # row i becomes c * row i if i == j, else row i + c * row j; c != 0
    for i, j, c in data.draw(st.lists(st.tuples(index, index,
                                                st.integers(1, q - 1)),
                                      max_size=8)):
        if i == j:
            rows[i] = [mul[c][a] for a in rows[i]]
        else:
            rows[i] = [add[a][mul[c][b]] for a, b in zip(rows[i], rows[j])]
    order = data.draw(st.permutations(range(x.dim)))
    assert rref(field, [tuple(rows[k]) for k in order]) == x


@pytest.mark.parametrize("q", [q for q in SUPPORTED_ORDERS if q <= 9])
@settings(SETTINGS, max_examples=20)
@given(data=st.data())
def test_rref_rows_spans_its_input(q, data):
    """``_rref_rows`` of vectors that include zero, repeated and
    dependent rows gives rows the ``Subspace`` check accepts, spanning
    the input's vector set, both spans counted by brute force."""
    field = make_field(q)
    m = data.draw(st.integers(1, 3))
    add, mul = field.add_table, field.mul_table
    vector = st.tuples(*[st.integers(0, q - 1)] * m)
    vecs = data.draw(st.lists(vector, max_size=m + 1))
    # zero rows, copies of drawn rows, and combinations a*u + b*v of them
    coeff = st.integers(0, q - 1)
    extra = [(0,) * m] * data.draw(st.integers(0, 2))
    if vecs:
        row = st.sampled_from(vecs)
        extra += data.draw(st.lists(row, max_size=2))
        for a, u, b, v in data.draw(st.lists(st.tuples(coeff, row, coeff, row),
                                             max_size=3)):
            extra.append(tuple(add[mul[a][x]][mul[b][y]] for x, y in zip(u, v)))
    vecs = data.draw(st.permutations(vecs + extra))
    rows = _rref_rows(field, vecs, m)
    assert Subspace(field, m, rows).rows == rows
    assert object_span(field, m, rows) == object_span(field, m, vecs)


@pytest.mark.parametrize("q, m", [(q, m) for q in SUPPORTED_ORDERS for m in (3, 6)])
@settings(SETTINGS, max_examples=10)
@given(data=st.data())
def test_order_sorts_keys_as_rows(q, m, data):
    """The canonical order is the keys' numeric order: keys of one
    dimension sort as plain ints as their RREF row tuples sort, up to
    F_16^6, whose row codes run to 16**6."""
    d = data.draw(st.integers(1, m))
    subspaces = []
    for _ in range(data.draw(st.integers(1, 12))):
        pivots = sorted(data.draw(st.lists(st.integers(0, m - 1), min_size=d,
                                           max_size=d, unique=True)))
        rows = []
        for p in pivots:
            row = [0] * m
            row[p] = 1
            for c in range(p + 1, m):
                if c not in pivots:
                    row[c] = data.draw(st.integers(0, q - 1))
            rows.append(tuple(row))
        subspaces.append(tuple(rows))
    rows_of = {rows_key(q, rows): rows for rows in subspaces}
    assert [rows_of[key] for key in sorted(rows_of)] \
        == sorted(set(subspaces))


@st.composite
def extension_cases(draw):
    """A legal ``count_N`` tuple (s, m, t, n, q) with q <= 4 and n <= 5,
    with a random s-subspace of F_q^m: the row space of a random
    matrix, s its rank."""
    q = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, n - 1))
    field = make_field(q)
    vector = st.tuples(*[st.integers(0, q - 1)] * m)
    witness = rref(field, draw(st.lists(vector, min_size=1, max_size=m)))
    s = witness.dim
    t = draw(st.integers(s, s + n - m))
    return (s, m, t, n, q), witness


@SETTINGS
@given(extension_cases())
def test_oracle_N_does_not_depend_on_witness(case):
    args, witness = case
    assert oracle_N(*args, witness=witness) == count_N(*args)


@st.composite
def containment_cases(draw):
    """A legal ``count_D`` tuple (s, r, m, q) with q any supported
    order, m <= 5 and the r-subspaces of F_q^m under ``ORACLE_GUARD``,
    with a random s-subspace of F_q^m, s <= r: the row space of a
    random matrix of at most r rows, s its rank."""
    q = draw(st.sampled_from(SUPPORTED_ORDERS))
    m = draw(st.integers(1, 5))
    r = draw(st.integers(0, m).filter(lambda r: gaussian(m, r, q) <= ORACLE_GUARD))
    field = make_field(q)
    vector = st.tuples(*[st.integers(0, q - 1)] * m)
    vectors = draw(st.lists(vector, max_size=r))
    witness = rref(field, vectors) if vectors else null_subspace(field, m)
    return (witness.dim, r, m, q), witness


@SETTINGS
@given(containment_cases())
def test_oracle_D_does_not_depend_on_witness(case):
    args, witness = case
    assert oracle_D(*args, witness=witness) == count_D(*args)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_parallelism_search_round_trip(n):
    """The orbit search gives 2^(n-1)-1 spreads in the canonical order
    of a parsed file, and the same bytes on every call."""
    para = build_parallelism(2, n)
    text = serialize_parallelism(para)
    assert len(para.spreads) == 2 ** (n - 1) - 1
    assert parse_parallelism(text) == para
    assert serialize_parallelism(build_parallelism(2, n)) == text
