"""Round-trip and rejection tests for the text file formats."""

import itertools
from collections import defaultdict

import pytest
from slow_oracles import object_parse_design, slot_grassmannian_rows

from qsteiner import files
from qsteiner.designs import (DesignMultiset, DesignParams, ExtensionFamilies,
                              build_parallelism, construct_uniform_design,
                              fano_m5_families, puncture_design,
                              recursive_families, s3485_families)
from qsteiner.counting import gaussian
from qsteiner.equations import uniform_family_solution
from qsteiner.field import make_field
from qsteiner.files import (parse_design, parse_design_file, parse_parallelism,
                            serialize_design, serialize_parallelism,
                            write_design)
from qsteiner.subspaces import (_lead, _row_entry, _rref_key,
                                grassmannian_keys, rows_key, rref)


def test_design_round_trip_byte_identical():
    for design in (construct_uniform_design(2, 2, 3, 7, 4, {0: 1, 1: 0, 2: 4, 3: 16}),
                   construct_uniform_design(3, 2, 3, 7, 4, {0: 1, 1: 0, 2: 9, 3: 162}),
                   s3485_families(2).design()):
        text = serialize_design(design)
        again = parse_design(text)
        assert again == design
        assert serialize_design(again) == text


def test_parse_shares_equal_rows():
    """Blocks with an equal row hold one tuple for it (memory)."""
    design = parse_design(serialize_design(
        construct_uniform_design(2, 2, 3, 7, 4, {0: 1, 1: 0, 2: 4, 3: 16})))
    rows = [r for b in design.blocks for r in b.rows]
    assert len({id(r) for r in rows}) == len(set(rows)) < len(rows)


def test_design_header_and_sorting():
    design = construct_uniform_design(2, 2, 3, 7, 4, {0: 1, 1: 0, 2: 4, 3: 16})
    lines = serialize_design(design).splitlines()
    assert lines[0] == "qsteiner-design v1"
    assert lines[1] == "q=2 t=2 k=3 n=7 m=4"
    assert lines[2] == "block 1 0 -"
    dims = [int(ln.split()[2]) for ln in lines[2:]]
    assert dims == sorted(dims)


def test_design_q16_rows_space_separated():
    f16 = make_field(16)
    block = rref(f16, [(1, 15)])
    design = DesignMultiset(DesignParams(16, 1, 2, 4, 2), {block: 3})
    text = serialize_design(design)
    assert "block 3 1 1 15" in text
    assert parse_design(text) == design


def test_parallelism_round_trip():
    para = build_parallelism(2, 4)
    text = serialize_parallelism(para)
    assert text.splitlines()[0] == "qsteiner-parallelism v1"
    again = parse_parallelism(text)
    assert again == para
    assert serialize_parallelism(again) == text


def test_design_parse_rejections():
    design = construct_uniform_design(2, 2, 3, 7, 4, {0: 1, 1: 0, 2: 4, 3: 16})
    text = serialize_design(design)
    with pytest.raises(ValueError):
        parse_design(text.replace("qsteiner-design v1", "qsteiner-design v2"))
    with pytest.raises(ValueError):
        parse_design(text.replace("block 1 0 -", "block 0 0 -"))
    with pytest.raises(ValueError):
        parse_design(text.replace("1000;0100", "0100;1000", 1))   # not RREF
    with pytest.raises(ValueError):
        parse_design(text + "block 9 0 -\n")                      # duplicate
    with pytest.raises(ValueError):
        parse_design(text.replace("block 4 2 0010;0001",
                                  "block 4 2 0210;0001", 1))      # bad element
    with pytest.raises(ValueError):
        parse_design(text.replace("block 4 2 0010;0001",
                                  "block 4 1 0010;0001", 1))      # dim mismatch
    with pytest.raises(ValueError):
        parse_design(text.replace("block 4 2 0010;0001",
                                  "block 4 2 10x0;0001", 1))      # non-digit
    with pytest.raises(ValueError):
        parse_design(text.replace("block 4 2 0010;0001",
                                  "block 4 2 0000;0001", 1))      # zero row
    with pytest.raises(ValueError):
        parse_design(text.replace("block 4 2 0010;0001",
                                  "block 4 2 00100;0001", 1))     # row length
    q16 = "qsteiner-design v1\nq=16 t=1 k=2 n=4 m=2\nblock 3 1 {}\n"
    assert parse_design(q16.format("1 15")).total_multiplicity() == 3
    with pytest.raises(ValueError, match="outside F_16"):
        parse_design(q16.format("1 16"))
    # int() alone takes signs, underscores and non-ASCII decimal digits
    assert parse_design(text + "block 1 1 0001\n").total_multiplicity() \
        == design.total_multiplicity() + 1
    for bad in (q16.format("1 +1_5"), q16.format("1 -1"),
                text.replace("block 1 0 -", "block +1_0 0 -"),
                text + "block 1 1 \uff10\uff10\uff10\uff11\n"):     # fullwidth
        with pytest.raises(ValueError, match="ASCII decimal"):
            parse_design(bad)
    # the digit checks run before int(), so the messages name the text
    for line, message in (
            ("block x 0 -", "multiplicity and dimension must be ASCII "
                            "decimal numbers in 'block x 0 -'"),
            ("block 1 1 1000 0100",                         # q <= 9, spaced
             "row '1000 0100' is not written in ASCII decimal digits")):
        with pytest.raises(ValueError) as exc:
            parse_design(text + line + "\n")
        assert str(exc.value) == message
    # the parameter line takes only ASCII decimal numbers too, each name once
    header = "q=2 t=2 k=3 n=7 m=4"
    assert parse_design(text.replace(header, "m=4 q=2 t=2 k=3 n=7")) == design
    for bad in ("q=+2 t=2 k=3 n=7 m=4", "q=2 t=2 k=3 n=7 m=\u0664",
                "q=2 t=2 k=3 n=7_ m=4", "q=2 t=2 k=3 n=7 m=5 m=4",
                "q=2 t=2 k=3 n=7 m=4 x=9"):
        with pytest.raises(ValueError, match="bad parameter line"):
            parse_design(text.replace(header, bad))


def test_rref_check_matches_rref_oracle():
    """The parser's direct RREF check accepts exactly the row tuples
    that rref() leaves unchanged."""
    for q, m, d_max in ((2, 4, 3), (3, 3, 2)):
        field = make_field(q)
        vectors = list(itertools.product(range(q), repeat=m))
        for d in range(1, d_max + 1):
            for rows in itertools.product(vectors, repeat=d):
                canon = rref(field, rows)
                entries = [_row_entry(r, q) for r in rows]
                if canon.rows == rows:
                    assert _rref_key(entries, q ** m) == rows_key(q, rows)
                    assert [_lead(r) for r in rows] == list(canon.pivots)
                else:
                    with pytest.raises(ValueError):
                        _rref_key(entries, q ** m)


def test_parallelism_parse_rejections():
    para = build_parallelism(2, 4)
    text = serialize_parallelism(para)
    with pytest.raises(ValueError):
        parse_parallelism(text.replace("qsteiner-parallelism v1", "nope"))
    # dropping one line breaks the partition
    lines = text.splitlines()
    with pytest.raises(ValueError):
        parse_parallelism("\n".join(lines[:-1]) + "\n")
    # a line before any 'spread' marker is malformed
    bad = lines[:2] + [lines[3]] + lines[2:]
    with pytest.raises(ValueError):
        parse_parallelism("\n".join(bad) + "\n")
    # a line is a block of its own row count: '-' is not a 2-subspace
    dash = lines[:3] + ["-"] + lines[3:]
    with pytest.raises(ValueError) as exc:
        parse_parallelism("\n".join(dash) + "\n")
    assert str(exc.value) == "'-' rows are only valid for dimension 0"
    # the parameter line takes only ASCII decimal numbers
    assert parse_parallelism(text.replace("q=2 n=4", "n=4 q=2")) == para
    for bad in ("q=+2 n=4", "q=2 n=\u0664", "q=2 n=4_", "q=2 n=5 n=4",
                "q=2 n=2 junk=1"):
        with pytest.raises(ValueError, match="bad parameter line"):
            parse_parallelism(text.replace("q=2 n=4", bad))


def _outcome(parse, source):
    """The design ``parse`` reads from ``source``, or its error."""
    try:
        return parse(source)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64, 1 << 20])
def test_file_reads_as_its_text(tmp_path, monkeypatch, chunk):
    """A file read in chunks gives the design, or the error, its whole
    text gives: with CR LF, CR, form feed and record separator line
    ends, blank lines, and block lines cut by the chunk boundaries."""
    monkeypatch.setattr(files, "_CHUNK", chunk)
    text = serialize_design(s3485_families(2).design())
    variants = [text, text.replace("\n", "\r\n"), text.replace("\n", "\r"),
                text.replace("\n", "\x0c"), text.replace("\n", "\n\n \t\n"),
                text.replace("\n", "\x1e", 5), text + "block 1 1 0001;\n",
                text + "block 1 1 ;0001\n", text.replace("block", "blok", 1),
                text + "block 9 0 -\n", text[:-1], "qsteiner-design v1\n",
                "", "\n \n"]
    path = tmp_path / "d.design"
    for variant in variants:
        path.write_bytes(variant.encode("ascii"))
        expected = _outcome(parse_design, variant)
        assert _outcome(parse_design_file, path) == expected
        assert _outcome(parse_design_file, str(path)) == expected
    # a byte that is not ASCII is reported before an earlier bad line, at
    # its position in the file, as reading the whole file reports it
    path.write_bytes(f"{text}block 1 1 0001;\n{text}".encode("ascii") + b"\xc3\n")
    with pytest.raises(UnicodeDecodeError) as whole:
        path.read_text(encoding="ascii")
    assert _outcome(parse_design_file, path) == (UnicodeDecodeError, str(whole.value))


def test_missing_parameter_line():
    for parse, header in ((parse_design, "qsteiner-design v1"),
                          (parse_parallelism, "qsteiner-parallelism v1")):
        with pytest.raises(ValueError, match="missing parameter line"):
            parse(header + "\n\n")


def test_parallelism_parse_messages():
    """Each way a parallelism file can fail names what failed: a line of
    the wrong row count, a point on two lines of a spread, a spread
    missing a line, a line in two spreads, a line not in RREF."""
    lines = serialize_parallelism(build_parallelism(2, 4)).splitlines()
    for edited, message in (
            (lines[:3] + ["1000"] + lines[3:],
             "Subspace(q=2, m=4, [1000]) is not a 2-subspace of F_2^4"),
            (lines[:3] + ["1000;0100;0010"] + lines[3:],
             "Subspace(q=2, m=4, [1000;0100;0010]) is not a 2-subspace of F_2^4"),
            (lines + ["1000"],
             "Subspace(q=2, m=4, [1000]) is not a 2-subspace of F_2^4"),
            (lines[:4] + [lines[3]] + lines[4:],
             "point Subspace(q=2, m=4, [0001]) lies on 2 lines"),
            (lines[:3] + lines[4:9] + [lines[3]] + lines[9:],
             "lines do not cover every nonzero vector"),
            (lines + ["spread"] + lines[3:8],
             "line Subspace(q=2, m=4, [0010;0001]) appears in two spreads"),
            (lines[:3] + ["0011;0000"] + lines[3:],
             "rows ((0, 0, 1, 1), (0, 0, 0, 0)) are not in reduced row echelon form"),
            (lines[:2] + ["spread"], "lines do not cover every nonzero vector"),
            ([lines[0], "q=2 n=0", "spread"],
             "bad parameter line 'q=2 n=0': n=0 is not an even number >= 2"),
            ([lines[0], "q=2 n=1", "spread"],
             "bad parameter line 'q=2 n=1': n=1 is not an even number >= 2"),
            (lines[:1] + ["q=2 n=5"] + lines[2:],
             "bad parameter line 'q=2 n=5': n=5 is not an even number >= 2")):
        with pytest.raises(ValueError) as exc:
            parse_parallelism("\n".join(edited) + "\n")
        assert str(exc.value) == message


def test_rejections_with_prefix_and_suffix_known():
    """A line whose prefix ("block M D top") and rows below the top are
    both already known from accepted lines is still rejected unless it
    is a new RREF block, with the full check's message, which is the
    message the line gets when nothing is known yet."""
    header = "qsteiner-design v1\nq=2 t=2 k=3 n=7 m=4\n"
    known = ("block 4 2 1000;0100\n"        # prefix 'block 4 2 1000', suffix '0100'
             "block 4 3 1000;0100;0010\n"   # suffix '0100;0010', 2 rows
             "block 4 2 1010;0001\n"        # prefix 'block 4 2 1010'
             "block 4 2 1000;0010\n"        # suffix '0010'
             "block 4 2 0010;0001\n"        # prefix 'block 4 2 0010'
             "block 5 2 1000;0001\n")       # prefix 'block 5 2 1000'
    assert len(parse_design(header + known).tables[2]) == 5
    for line, message in (
            ("block 4 2 1000;0100;0010",          # dimension mismatch
             "block says dimension 2 but has 3 rows"),
            ("block 4 2 1010;0010",               # nonzero at a pivot below
             "rows ((1, 0, 1, 0), (0, 0, 1, 0)) are not in reduced row "
             "echelon form"),
            ("block 4 2 0010;0100",               # leads right of the row below
             "rows ((0, 0, 1, 0), (0, 1, 0, 0)) are not in reduced row "
             "echelon form"),
            ("block 4 2 1000;0100",               # repeated line
             "duplicate block line for '1000;0100'"),
            ("block 5 2 1000;0100",               # repeated at another multiplicity
             "duplicate block line for '1000;0100'")):
        cold = header + ("block 4 2 1000;0100\n" if "duplicate" in message else "")
        for text in (header + known + line + "\n", cold + line + "\n"):
            with pytest.raises(ValueError) as exc:
                parse_design(text)
            assert str(exc.value) == message


def test_new_prefix_over_known_suffix():
    """A line whose prefix ("block M D top") is new but whose top row and
    rows below the top are already known reads as it does when nothing
    is known yet: a valid block gets the key of a cold parse, and every
    other line the cold parse's message."""
    header = "qsteiner-design v1\nq=2 t=2 k=3 n=7 m=4\n"
    known = ("block 4 2 1000;0100\n"        # suffix '0100'
             "block 4 2 1000;0010\n"        # suffix '0010'
             "block 4 2 1010;0001\n")       # rows '1010' and '0001' seen
    base = parse_design(header + known).tables
    line = "block 3 2 1010;0100\n"
    warm = parse_design(header + known + line).tables
    cold = parse_design(header + line).tables
    assert warm == {2: {**base[2], **cold[2]}}
    assert cold == {2: {rows_key(2, ((1, 0, 1, 0), (0, 1, 0, 0))): 3}}
    for line, message in (
            ("block 3 2 1000;0100",               # repeated line
             "duplicate block line for '1000;0100'"),
            ("block 3 2 0100;0100",               # leads at the row below
             "rows ((0, 1, 0, 0), (0, 1, 0, 0)) are not in reduced row "
             "echelon form"),
            ("block 3 2 0010;0100",               # leads right of the row below
             "rows ((0, 0, 1, 0), (0, 1, 0, 0)) are not in reduced row "
             "echelon form"),
            ("block 3 2 1010;0010",               # nonzero at a pivot below
             "rows ((1, 0, 1, 0), (0, 0, 1, 0)) are not in reduced row "
             "echelon form"),
            ("block 3 3 1000;0100",               # dimension mismatch
             "block says dimension 3 but has 2 rows")):
        cold = header + ("block 4 2 1000;0100\n" if "duplicate" in message else "")
        for text in (header + known + line + "\n", cold + line + "\n"):
            with pytest.raises(ValueError) as exc:
                parse_design(text)
            assert str(exc.value) == message
    # a multiplicity written "01" is never the writer's form, so its
    # prefix is never entered and each such line takes the full check
    ones = ("block 01 2 1000;0100\nblock 01 2 1000;0010\n"
            "block 01 2 1000;0001\n")
    assert (parse_design(header + ones).tables
            == parse_design(header + ones.replace("01 2", "1 2")).tables
            == {2: {rows_key(2, ((1, 0, 0, 0), row)): 1
                    for row in ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))}})


HEADER = "qsteiner-design v1\nq=2 t=2 k=3 n=7 m=4\n"


def _read_as_cold(known: str, line: str, message, cold: str = "") -> None:
    """``line`` after the ``known`` lines reads as it does after the
    ``cold`` ones, where nothing is known of it: a valid block
    (``message`` None) gets the cold parse's key and multiplicity, any
    other line the cold parse's message."""
    if message is None:
        base = parse_design(HEADER + known).tables
        warm = parse_design(HEADER + known + line + "\n").tables
        (dim, table), = parse_design(HEADER + line + "\n").tables.items()
        assert warm == {**base, dim: {**base.get(dim, {}), **table}}
        return
    for text in (HEADER + known + line + "\n", HEADER + cold + line + "\n"):
        with pytest.raises(ValueError) as exc:
            parse_design(text)
        assert str(exc.value) == message


def test_new_suffix_under_known_prefix():
    """A line whose prefix ("block M D top") is known but whose rows
    below the top row are new reads as it does when nothing is known:
    a new suffix of rows already seen is entered and the line takes the
    fast path's test, and every other line the full check."""
    known = ("block 4 3 1000;0100;0001\n"  # rows 1000, 0100, 0001 seen
             "block 4 3 0100;0010;0001\n"  # row 0010 seen
             "block 4 2 1000;0100\n"       # prefix 'block 4 2 1000'
             "block 4 3 1000;0100;0010\n"  # prefix 'block 4 3 1000'
             "block 4 2 0100;0001\n"       # prefix 'block 4 2 0100'
             "block 4 2 1010;0001\n"       # row 1010 seen
             "block 4 2 1010;0100\n")      # prefix 'block 4 2 1010'
    for line, message in (
            ("block 4 2 1000;0010", None),           # a new suffix of seen rows
            ("block 4 3 1000;0010;0001", None),
            ("block 4 2 1000;0011", None),           # a suffix row never seen
            ("block 4 3 1000;0010;0100",             # a suffix not in RREF
             "rows ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0)) are not in "
             "reduced row echelon form"),
            ("block 4 2 1000;",                      # an empty row
             "row '' does not have 4 coordinates"),
            ("block 4 2 1000;0010;0001",             # a dimension mismatch
             "block says dimension 2 but has 3 rows"),
            ("block 4 2 1000;1000",                  # top leads at the suffix
             "rows ((1, 0, 0, 0), (1, 0, 0, 0)) are not in reduced row "
             "echelon form"),
            ("block 4 2 0100;1000",                  # top leads right of it
             "rows ((0, 1, 0, 0), (1, 0, 0, 0)) are not in reduced row "
             "echelon form"),
            ("block 4 2 1010;0010",                  # nonzero at a suffix pivot
             "rows ((1, 0, 1, 0), (0, 0, 1, 0)) are not in reduced row "
             "echelon form")):
        _read_as_cold(known, line, message)
    # a block already read, through the full check, so its suffix is new
    _read_as_cold(known, "block 4 3 1000;0100;0001",
                  "duplicate block line for '1000;0100;0001'",
                  cold="block 4 3 1000;0100;0001\n")


def test_new_prefix_in_writer_form():
    """A line whose prefix ("block M D top") is new, in the writer's
    form and over a seen top row, is entered from its words and reads
    as it does when nothing is known; any other new prefix, and every
    error, goes to the full check."""
    known = ("block 4 2 1000;0100\n"       # rows 1000, 0100 seen
             "block 4 3 1010;0100;0001\n"  # rows 1010, 0001 seen
             "block 4 2 1000;0001\n"       # suffix '0001'
             "block 4 3 1000;0100;0001\n"  # suffix '0100;0001'
             "block 4 2 0010;0001\n")      # row 0010 seen
    for line, message in (
            ("block 3 2 1010;0001", None),           # over a known suffix
            ("block 3 1 1010", None),                # over the empty suffix
            ("block 3 2 1010;0100", None),           # over a new suffix
            ("block 3 2 1100;0001", None),           # a top row never seen
            ("block 3 2 1010;0101", None),           # a suffix row never seen
            ("block 04 2 1010;0001", None),          # not the writer's form
            ("block 3 2 0100;0100",                  # top leads at the suffix
             "rows ((0, 1, 0, 0), (0, 1, 0, 0)) are not in reduced row "
             "echelon form"),
            ("block 3 2 0001;0100",                  # top leads right of it
             "rows ((0, 0, 0, 1), (0, 1, 0, 0)) are not in reduced row "
             "echelon form"),
            ("block 3 2 1010;0010",                  # nonzero at a suffix pivot
             "rows ((1, 0, 1, 0), (0, 0, 1, 0)) are not in reduced row "
             "echelon form"),
            ("block 3 3 1010;0001",                  # a dimension mismatch
             "block says dimension 3 but has 2 rows"),
            ("block 1 0 1000;0100",                  # dimension 0 with rows
             "block says dimension 0 but has 2 rows"),
            ("block 0 2 1010;0001",
             "multiplicity must be positive in 'block 0 2 1010;0001'"),
            ("block 1 -1 1010;0001",
             "multiplicity and dimension must be ASCII decimal numbers in "
             "'block 1 -1 1010;0001'")):
        _read_as_cold(known, line, message)
    # a duplicate at another multiplicity, and one not in the writer's form
    for line, first in (("block 3 3 1010;0100;0001", "block 4 3 1010;0100;0001"),
                        ("block 04 2 1000;0001", "block 4 2 1000;0001")):
        text = first.split(" ", 3)[3]
        _read_as_cold(known, line, f"duplicate block line for {text!r}",
                      cold=first + "\n")
    # "block 04 2 ..." reads at multiplicity 4; neither it nor a prefix
    # of dimension or multiplicity 0 is entered, nor one off the form
    assert parse_design(HEADER + known + "block 04 2 1010;0001\n").tables[2][
        rows_key(2, ((1, 0, 1, 0), (0, 0, 0, 1)))] == 4
    # nor one of a dimension above m = 4 or over a row with no leading 1
    seen = {"1000": _row_entry((1, 0, 0, 0), 2), "0000": _row_entry((0, 0, 0, 0), 2)}
    for prefix, error in (
            ("block 04 2 1000", ValueError), ("block 1 0 1000", ValueError),
            ("block 0 1 1000", ValueError), ("blok 1 2 1000", ValueError),
            ("block  1 2 1000", ValueError), ("block 1 +2 1000", ValueError),
            ("block 1 2", ValueError), ("", ValueError),
            ("block 1 5 1000", ValueError), ("block 1 1 0000", ValueError),
            ("block 1 2 1000 ", KeyError), ("block 1 2 0100", KeyError)):
        tables: dict = {}
        with pytest.raises(error):
            files._prefix_entry(prefix, seen, tables, 4, 2 ** 4)
        assert tables == {}


@pytest.mark.parametrize("q", (2, 3, 4))
def test_fit_masks_accept_exactly_the_rref_lines(q):
    """For m <= 4, the fast path's test of ``block 1 D top;suffix``, a
    ``_prefix_entry`` whose mask is disjoint from a ``_suffix_entry``'s,
    run for every row top over every RREF suffix and over none (a
    one-row block), D from 1 to m + 1, accepts exactly the lines
    ``object_parse_design`` accepts: the oracle reads every line it
    accepts, at the fast path's key, and they are as many as the
    subspaces of F_q^m.  The oracle accepts a line only if its rows
    are the RREF basis of their span, of dimension D, and each subspace
    has one such line here, so it accepts no line the fast path
    refuses."""
    for m in range(1, 5):
        big = q ** m
        seen = {"".join(map(str, row)): _row_entry(row, q)
                for row in itertools.product(range(q), repeat=m)}
        suffixes = {"": files._suffix_entry([], m, big)}
        for e in range(1, m + 1):
            for rows in slot_grassmannian_rows(q, m, e):
                text = ";".join("".join(map(str, row)) for row in rows)
                suffixes[";" + text] = files._suffix_entry(
                    [seen[part] for part in text.split(";")], m, big)
        lines, fast = [], defaultdict(dict)
        for dim in range(1, m + 2):
            for top in seen:
                prefix = f"block 1 {dim} {top}"
                try:
                    mask, head, mult, table = files._prefix_entry(
                        prefix, seen, defaultdict(dict), m, big)
                except ValueError:  # D > m, or top has no leading 1
                    continue
                for suffix, (below, key) in suffixes.items():
                    if not mask & below:
                        lines.append(prefix + suffix + "\n")
                        assert head + key not in fast[dim]
                        fast[dim][head + key] = mult
        assert [len(fast[dim]) for dim in range(1, m + 2)] \
            == [gaussian(m, dim, q) for dim in range(1, m + 1)] + [0]
        header = f"qsteiner-design v1\nq={q} t=1 k=2 n={m + 1} m={m}\n"
        _, tables = object_parse_design(header + "".join(lines))
        assert tables == {dim: table for dim, table in fast.items() if table}


def test_uniform_m8_file_mostly_on_the_fast_path(monkeypatch):
    """Of the 107,953 lines of the uniform S_2(2,3,15;8) file, the one
    the verify benchmark reads, at most 254 reach the full check: the
    dimension-0 line, and the lines with a row or a suffix read for the
    first time."""
    design = construct_uniform_design(2, 2, 3, 15, 8, {0: 381, 1: 0, 2: 64, 3: 256})
    text = serialize_design(design)
    full = []
    parse_block = files._parse_block
    monkeypatch.setattr(files, "_parse_block",
                        lambda *args: full.append(args[0]) or parse_block(*args))
    assert parse_design(text) == design
    assert len(full) <= 254, len(full)


def test_tables_follow_line_order():
    """A parsed design holds its tables, and each table's keys, in the
    order of the file's lines, for the file of every construction and
    for its block lines reversed: ``design.blocks`` iterates in that
    order, and ``verify`` reports the first block of an illegal
    dimension in it."""
    para2 = build_parallelism(2, 4)
    para3 = files.parse_parallelism_file(files.packaged_parallelism_path(3, 4))
    base3 = construct_uniform_design(3, 2, 3, 3, 1, {1: 1})
    for design in (
            construct_uniform_design(2, 2, 3, 7, 4,
                                     uniform_family_solution("S(2,3,7;4)", 2)),
            construct_uniform_design(2, 3, 4, 8, 4,
                                     uniform_family_solution("S(3,4,8;4)", 2)),
            s3485_families(2).design(), fano_m5_families(2, para2).design(),
            recursive_families(3, 3, para3, base3).design()):
        lines = serialize_design(design).splitlines(keepends=True)
        for text in ("".join(lines), "".join(lines[:2] + lines[:1:-1])):
            _, tables = object_parse_design(text)
            assert [(d, list(t)) for d, t in parse_design(text).tables.items()] \
                == [(d, list(t)) for d, t in tables.items()]


def test_cancelled_blocks_write_and_read_back(tmp_path):
    """Extension families whose parts cancel on a block leave it out of
    the design, which writes and reads back, and so does a puncture
    whose images cancel; a block of negative multiplicity is refused
    before the file is opened."""
    params = DesignParams(2, 1, 2, 5, 4)
    lines = grassmannian_keys(2, 3, 1)
    design = ExtensionFamilies(params, 3, ((1, lines, 0, 1),
                                           (1, lines[:1], 0, -1))).design()
    assert design == ExtensionFamilies(params, 3, ((1, lines[1:], 0, 1),)).design()
    path = tmp_path / "cancelled.design"
    write_design(design, path)
    assert parse_design_file(path) == design
    assert path.read_text() == serialize_design(design)
    negative = ExtensionFamilies(params, 3, ((1, lines, 0, 1),
                                             (1, lines[1:2], 0, -2))).design()
    message = "multiplicity must be positive in 'block -1 1 0100'"
    with pytest.raises(ValueError) as exc:
        serialize_design(negative)
    assert str(exc.value) == message
    path = tmp_path / "negative.design"
    with pytest.raises(ValueError) as exc:
        write_design(negative, path)
    assert str(exc.value) == message
    assert not path.exists()
    # the two points of F_2^5 off the last column at 1 and -1 puncture to
    # one point at 0, which is left out: the empty design
    punctured = puncture_design(DesignMultiset._from_tables(
        DesignParams(2, 2, 3, 7, 5), {1: {0b10000: 1, 0b10001: -1}}))
    assert punctured == DesignMultiset._from_tables(DesignParams(2, 2, 3, 7, 4), {})
    path = tmp_path / "punctured.design"
    write_design(punctured, path)
    assert parse_design_file(path) == punctured
    # a block left at 0 in a table made by hand
    path = tmp_path / "zero.design"
    zero = DesignMultiset._from_tables(params, {1: {**design.tables[1], 2: 0}})
    with pytest.raises(ValueError, match=r"^multiplicity must be positive in "
                                         r"'block 0 1 0010'$"):
        write_design(zero, path)
    assert not path.exists()
