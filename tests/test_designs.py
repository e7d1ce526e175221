"""Design verification, puncturing, spreads, constructions, transforms."""

import hashlib
import random
import sys
from collections import Counter
from dataclasses import replace

import pytest
from slow_oracles import object_span, object_transform, object_verify

from qsteiner import designs, subspaces
from qsteiner.counting import covering_coefficient, gaussian
from qsteiner.designs import (ConstructionError, DesignMultiset, DesignParams,
                              ExtensionFamilies, Parallelism, Spread,
                              apply_transform, build_parallelism, build_spread,
                              construct_uniform_design, SteinerSystem,
                              _batches, _extension_tables, _line_key,
                              distinctness_check, fano_m5_families, puncture_design,
                              puncture_steiner, recursive_families,
                              s3485_families, trivial_steiner,
                              uniform_families, verify, verify_families,
                              verify_steiner)
from qsteiner.field import SUPPORTED_ORDERS, make_field
from qsteiner.files import (packaged_parallelism_path, parse_design,
                            parse_parallelism, parse_parallelism_file,
                            serialize_design, serialize_parallelism)
from qsteiner.subspaces import (Subspace, contains, enumerate_subspaces,
                                grassmannian_keys, null_subspace, puncture,
                                row_codes, rref, subspaces_within)

F2 = make_field(2)
F3 = make_field(3)


def file_sha256(design):
    return hashlib.sha256(serialize_design(design).encode()).hexdigest()


def fano_m4(q=2):
    x2, x3 = q * q, q ** 4 * (q - 1)
    return construct_uniform_design(q, 2, 3, 7, 4, {0: 1, 1: 0, 2: x2, 3: x3})


# ---------------------------------------------------------------------------
# parameters and multiset basics
# ---------------------------------------------------------------------------

def test_params_ranges():
    p = DesignParams(2, 2, 3, 7, 4)
    assert list(p.s_range()) == [0, 1, 2]
    assert list(p.r_range()) == [0, 1, 2, 3]
    p6 = DesignParams(2, 2, 3, 7, 6)
    assert list(p6.s_range()) == [1, 2]
    assert list(p6.r_range()) == [2, 3]
    assert DesignParams(2, 2, 3, 7, 4).block_budget() == 381
    assert DesignParams(2, 3, 4, 8, 4).block_budget() == 6477


def test_params_validation():
    with pytest.raises(ValueError):
        DesignParams(2, 3, 3, 7, 4)
    with pytest.raises(ValueError):
        DesignParams(2, 2, 3, 7, 7)
    with pytest.raises(ValueError):
        DesignParams(2, 2, 3, 7, 0)
    # k = n (punctured trivial Steiner) is allowed
    DesignParams(2, 2, 3, 3, 1)


def test_params_need_a_field_order():
    """q must be the order of a supported field, as for every other
    entry point that builds the field."""
    for q in SUPPORTED_ORDERS:
        assert DesignParams(q, 2, 3, 7, 4).q == q
    for q in (6, 10, 12, 17):
        with pytest.raises(ValueError, match=f"unsupported field order {q}"):
            DesignParams(q, 2, 3, 7, 4)
    for q in (-1, 0, 1):
        with pytest.raises(ValueError, match="q >= 2"):
            DesignParams(q, 2, 3, 7, 4)
    # the parameter checks that ran before keep their messages
    with pytest.raises(ValueError, match="need 0 < t < k <= n"):
        DesignParams(6, 3, 3, 7, 4)


def test_multiset_rejects_bad_multiplicities():
    params = DesignParams(2, 2, 3, 7, 4)
    block = next(iter(enumerate_subspaces(F2, 4, 2)))
    with pytest.raises(ValueError):
        DesignMultiset(params, {block: 0})
    with pytest.raises(ValueError):
        DesignMultiset(params, {block: -3})
    with pytest.raises(ValueError):
        DesignMultiset(params, {block: True})
    elsewhere = next(iter(enumerate_subspaces(F2, 3, 2)))
    with pytest.raises(ValueError, match=r"does not live in F_2\^4$"):
        DesignMultiset(params, {elsewhere: 1})


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_uniform_fano_m4():
    rep = verify(fano_m4())
    assert rep.ok
    assert rep.equations_checked == 1 + 15 + 35
    assert rep.total_multiplicity == 381 == 1 + 0 + 4 * 35 + 16 * 15


def test_verify_m1_design():
    # 45 null subspaces and 336 one-subspaces of F_2^1; the one
    # s=0 equation reads 336 + 45*7 = 651
    d = construct_uniform_design(2, 2, 3, 7, 1, {0: 45, 1: 336})
    rep = verify(d)
    assert rep.ok and rep.total_multiplicity == 381


def test_verify_single_mutation_fails():
    d = fano_m4()
    for block in list(d.blocks)[:8]:
        bad = d.with_block_multiplicity(block, d.blocks[block] + 1)
        assert not verify(bad).ok


def test_verify_block_dim_out_of_range():
    d = fano_m4()
    params6 = DesignParams(2, 2, 3, 7, 6)
    blocks = {b: 1 for b in enumerate_subspaces(F2, 6, 1)}
    blocks.update({b: 1 for b in enumerate_subspaces(F2, 6, 2)})
    rep = verify(DesignMultiset(params6, blocks))
    assert not rep.ok
    assert rep.block_dim_violations  # dim 1 < k - p = 2


def test_mass_identity_on_verified_designs():
    for d in (fano_m4(2), fano_m4(3), s3485_families(2).design()):
        p = d.params
        assert verify(d).ok
        assert d.total_multiplicity() == p.block_budget()


@pytest.mark.parametrize("chunk", [None, 64])
def test_verify_matches_object_oracle(chunk, monkeypatch):
    """verify on key tables against the object-keyed oracle: random
    designs with legal and illegal block dimensions, mixed and equal
    multiplicities, weights past 2**63, and verified designs with one
    multiplicity altered; the whole report must agree.  A small kernel
    chunk splits every batch into many chunks."""
    if chunk:
        monkeypatch.setattr(subspaces, "_CHUNK", chunk)
    rng = random.Random(11)

    def random_block(f, m, d):
        y = null_subspace(f, m)
        while y.dim < d:
            y = rref(f, y.rows + (tuple(rng.randrange(f.q) for _ in range(m)),))
        return y

    designs = []
    for q in (2, 3, 4, 5, 9, 16):
        f = make_field(q)
        m = 4 if q <= 5 else 3
        for _ in range(3):
            params = DesignParams(q, 2, 3, m + rng.randint(1, 3), m)
            blocks = {random_block(f, m, rng.randint(0, m)):
                      rng.choice((1, 2, q, 2 ** 63 + rng.randrange(9), 2 ** 70 + 1))
                      for _ in range(rng.randint(1, 12))}
            designs.append(DesignMultiset(params, blocks))
    for good in (fano_m4(2), fano_m4(3), s3485_families(2).design()):
        block = next(iter(good.blocks))
        designs += [good, good.with_block_multiplicity(block, 2 ** 64)]
    # verify counts the multiplicity most d-subspaces carry in closed
    # form: complete tables at one multiplicity (and at two, in s3485),
    # a nearly complete table (fano-m5 at q = 3: 1170 of the 1210
    # 3-subspaces), a complete table with one block dropped or raised,
    # and tables at or below half of the Grassmannian
    para3 = parse_parallelism_file(packaged_parallelism_path(3, 4))
    uniform = construct_uniform_design(3, 2, 3, 7, 4, {0: 2, 2: 5, 3: 7})
    designs += [uniform, construct_uniform_design(2, 2, 3, 6, 4, {1: 3, 2: 1}),
                fano_m5_families(3, para3).design()]
    plane = next(b for b in uniform.blocks if b.dim == 3)
    designs += [uniform.with_block_multiplicity(plane, 0),
                uniform.with_block_multiplicity(plane, 2 ** 64)]
    lines = list(enumerate_subspaces(F2, 4, 2))
    for count in (len(lines) // 2 + 1, len(lines) // 2, 3):
        designs.append(DesignMultiset(DesignParams(2, 2, 3, 7, 4),
                                      dict.fromkeys(lines[:count], 4)))
    # one line more than half: the closed form at 4, the rest taken back;
    # exactly half ties with the absent lines, so only the blocks are listed
    assert [(w, keys if keys is None else len(keys)) for _, w, keys in
            _batches(2, 4, designs[-3].tables)] == [(4, None), (-4, 17)]
    assert [(w, len(keys)) for _, w, keys in
            _batches(2, 4, designs[-2].tables)] == [(4, 17)]
    for design in designs:
        assert verify(design) == object_verify(design), design


def test_batches_list_only_what_differs_from_w():
    """A complete table at one multiplicity w is counted in closed form
    alone; with exactly one block at another multiplicity that block is
    listed, at mult - w, and no absent subspace; at w = 0 every block is
    listed, also when the table is as large as the absent part.  A block
    whose multiplicities cancelled in a summed table stays in it at 0
    and is listed as absent, also when w is not 0 and when the table's
    one nonzero multiplicity would otherwise stand for every key in it;
    a puncture and a family's design leave such a block out."""
    uniform = construct_uniform_design(3, 2, 3, 7, 4, {0: 2, 2: 5, 3: 7})
    plane = next(b for b in uniform.blocks if b.dim == 3)
    raised = uniform.with_block_multiplicity(plane, 9)
    key = subspaces.rows_key(3, plane.rows)
    assert [(d, w, keys) for d, w, keys in _batches(3, 4, uniform.tables)] \
        == [(0, 2, None), (2, 5, None), (3, 7, None)]
    assert [(d, w, keys if keys is None else list(keys)) for d, w, keys
            in _batches(3, 4, raised.tables)] \
        == [(0, 2, None), (2, 5, None), (3, 7, None), (3, 2, [key])]
    # 20 of the 40 points of F_3^4, 11 at 1 and 9 at 2: w = 0, and 20
    # points are absent
    points = list(enumerate_subspaces(F3, 4, 1))[:20]
    half = DesignMultiset(DesignParams(3, 2, 3, 7, 4),
                          {x: 1 + (i >= 11) for i, x in enumerate(points)})
    assert sorted((w, len(keys)) for _, w, keys
                  in _batches(3, 4, half.tables)) == [(1, 11), (2, 9)]
    # 4 of the 7 points of F_2^3 at 2, one at 0: w = 2
    pts = grassmannian_keys(2, 3, 1)
    punctured = puncture_design(ExtensionFamilies(DesignParams(2, 1, 2, 5, 4), 3, (
        (1, tuple(pts[:5]), 0, 1),
        (2, (pts[4],), subspaces.rows_key(2, ((1,),)), -2))).design())
    assert punctured.tables == {1: {1: 2, 2: 2, 3: 2, 4: 2}}
    punctured = DesignMultiset._from_tables(
        punctured.params, {1: {**punctured.tables[1], 5: 0}})
    # 2 of the 15 points of F_2^4 at 0, then 2 at 1: w = 0; the family's
    # design leaves out the two at 0, its summed tables keep them
    fam = cancelled_family()
    cancelled = DesignMultiset._from_tables(
        fam.params, _extension_tables(2, 3, 4, list(fam.parts)))
    assert list(cancelled.tables[1].values()) == [0, 0, 1, 1]
    assert list(fam.design().tables[1].values()) == [1, 1]
    for design in (raised, half, punctured, cancelled):
        assert verify(design) == object_verify(design)


@pytest.mark.parametrize("q", (2, 3))
def test_verify_by_exception_matches_object_oracle(q):
    """``verify`` counts the equations per class default and reads the
    classes one by one only where the default or a listed sum fails; it
    reports as ``object_verify`` does (ok, equations checked, violations
    in order, total multiplicity): with every d-subspace raised by 1,
    where the default of each s with a nonzero coefficient fails and all
    its equations are violated; with one block raised, where only the
    listed classes of its s-subspaces fail; and with one dimension's
    table all at multiplicity 0, or empty, both counted as absent."""
    uniform = fano_m4(q)
    pr = uniform.params
    for d in pr.r_range():
        table = uniform.tables.get(d, {})
        raised = DesignMultiset._from_tables(pr, {**uniform.tables, d: {
            key: table.get(key, 0) + 1 for key in grassmannian_keys(q, pr.m, d)}})
        report = verify(raised)
        assert report == object_verify(raised), d
        assert len(report.violations) == sum(
            gaussian(pr.m, s, q) for s in pr.s_range()
            if covering_coefficient(s, pr.t, d, pr.k, q)), d
    plane = next(b for b in uniform.blocks if b.dim == 3)
    one = uniform.with_block_multiplicity(plane, uniform.blocks[plane] + 1)
    report = verify(one)
    assert report == object_verify(one)
    assert [v.s for v in report.violations] == [2] * gaussian(3, 2, q)
    assert all(contains(plane, v.subject) for v in report.violations)
    for cut in ({key: 0 for key in uniform.tables[3]}, {}):
        design = DesignMultiset._from_tables(pr, {**uniform.tables, 3: cut})
        report = verify(design)
        assert report == object_verify(design)
        assert not report.ok


def test_families_of_every_top_list_nothing():
    """The s3485 families take every top (keys None), so no class sum is
    listed and each class's default decides: the construction passes,
    and with one part's multiplicity raised (its keys still None) the
    report equals ``object_verify`` of the expansion."""
    fam = s3485_families(2)
    pr = fam.params
    assert all(part[1] is None for part in fam.parts)
    for s in pr.s_range():
        assert all(not sums for *_, sums in designs._class_sums(pr, fam.m1, fam.parts, s))
    d, keys, bottom, mult = fam.parts[2]
    raised = replace(fam, parts=(*fam.parts[:2], (d, keys, bottom, mult + 1),
                                 *fam.parts[3:]))
    for family in (fam, raised):
        report = verify_families(family)
        assert report == object_verify(family.design())
        assert report.ok == (family is fam)


def cancelled_family():
    """Two parts whose multiplicities cancel on the two blocks of one."""
    g = grassmannian_keys(2, 3, 1)[:2]
    return ExtensionFamilies(DesignParams(2, 1, 2, 5, 4), 3,
                             ((1, g, 0, 1), (1, g[:1], 0, -1)))


def test_blocks_decode_as_checked():
    """The blocks of a parsed design and of a spread, decoded from keys
    without the RREF check, equal and hash as ``subspace_from_key``'s."""
    design = parse_design(serialize_design(s3485_families(2).design()))
    spread = build_spread(2, 4)
    for blocks, m, keys in (
            (list(design.blocks), 5,
             [key for table in design.tables.values() for key in table]),
            (spread.blocks, 4, spread.keys), (spread.lines, 4, spread.keys)):
        checked = [subspaces.subspace_from_key(F2, m, key) for key in keys]
        assert list(blocks) == checked
        assert list(map(hash, blocks)) == list(map(hash, checked))


def test_section6_low_dimension_block_count():
    """In the verified S_2(2,3,7;4), blocks of dimension <= 2 total
    1 + q^2 (q^2+1)(q^2+q+1) = 141."""
    d = fano_m4()
    totals = d.dimension_totals()
    assert totals.get(0, 0) + totals.get(1, 0) + totals.get(2, 0) == 141


# ---------------------------------------------------------------------------
# puncturing designs
# ---------------------------------------------------------------------------

def test_puncture_design_chain_to_m1():
    d = fano_m4()
    expect_m = 3
    while d.params.m > 1:
        d = puncture_design(d)
        assert d.params.m == expect_m
        assert verify(d).ok
        expect_m -= 1
    assert d.dimension_totals() == {0: 45, 1: 336}


def test_puncture_design_m2_matches_worked_example():
    d = fano_m4()
    d2 = puncture_design(puncture_design(d))
    # aggregated multiplicities per dimension match the unique solution
    # (5, 40+40+40, 256) of the worked m=2 system
    assert d2.dimension_totals() == {0: 5, 1: 120, 2: 256}
    per_block = {b: m for b, m in d2.blocks.items()}
    for b, mult in per_block.items():
        assert mult == {0: 5, 1: 40, 2: 256}[b.dim]


def test_puncture_design_requires_m_at_least_2():
    d = construct_uniform_design(2, 2, 3, 7, 1, {0: 45, 1: 336})
    with pytest.raises(ValueError):
        puncture_design(d)


# ---------------------------------------------------------------------------
# Steiner systems and their puncture
# ---------------------------------------------------------------------------

def test_spread_invariants():
    for q, n, count in ((2, 4, 5), (2, 6, 21), (3, 4, 10)):
        sp = build_spread(q, n)
        assert len(sp.lines) == count == (q ** n - 1) // (q * q - 1)
        assert verify_steiner(sp)


def test_spread_rejects_odd_dimension():
    with pytest.raises(ValueError):
        build_spread(2, 5)
    with pytest.raises(ValueError, match=r"implemented for q in \{2, 3\}$"):
        build_spread(4, 4)


def test_spread_rejects_bad_partition():
    lines = build_spread(2, 4).lines
    twice = r"point Subspace\(q=2, m=4, \[0001\]\) lies on 2 lines"
    with pytest.raises(ValueError, match=twice):   # overlapping lines
        Spread(F2, 4, tuple(enumerate_subspaces(F2, 4, 2))[:5])
    with pytest.raises(ValueError, match="cover every"):   # one line missing
        Spread(F2, 4, lines[1:])
    with pytest.raises(ValueError, match=twice):   # one line twice
        Spread(F2, 4, lines + lines[:1])


def test_spread_rejects_line_over_another_field():
    line = rref(F3, [(1, 0), (0, 1)])
    with pytest.raises(ValueError, match=r"not a 2-subspace of F_2\^2"):
        Spread(F2, 2, (line,))


def test_puncture_steiner_spreads():
    """One puncture of a spread: one (k-1)-image forming the derived
    system, every other 1-subspace covered exactly q times."""
    for q, n in ((2, 4), (2, 6), (3, 4)):
        f = make_field(q)
        design, sub = puncture_steiner(build_spread(q, n))
        assert design.params == DesignParams(q, 1, 2, n, n - 1)
        assert len(sub.blocks) == 1 and sub.t == 0 and sub.k == 1
        special = sub.blocks[0]
        upper = {b: m for b, m in design.blocks.items() if b.dim == 2}
        cover = {}
        for b, mult in upper.items():
            for x in subspaces_within(b, 1):
                cover[x] = cover.get(x, 0) + mult
        for x in enumerate_subspaces(f, n - 1, 1):
            assert cover.get(x, 0) == (0 if x == special else q)


def test_puncture_steiner_trivial_system():
    design, sub = puncture_steiner(trivial_steiner(2, 2, 4))
    only = next(iter(design.blocks))
    assert only.dim == 3 and design.blocks[only] == 1
    assert sub.blocks == (only,)
    # the whole space punctures to the whole space, the one block of its
    # dimension: its table is complete, and no block keeps dimension k
    for q, t, n in ((2, 2, 4), (3, 1, 3), (2, 1, 2)):
        design, sub = puncture_steiner(trivial_steiner(q, t, n))
        assert list(design.tables) == [n - 1]
        assert verify(design).ok and verify_steiner(sub)


def test_puncture_steiner_rejects_non_steiner():
    f = make_field(2)
    lines = tuple(enumerate_subspaces(f, 4, 2))[:5]
    bogus = SteinerSystem(f, 1, 2, 4, lines)
    with pytest.raises(ValueError):
        puncture_steiner(bogus)
    with pytest.raises(ValueError, match="^need 0 <= t <= k <= n, got t=3, k=2, n=4$"):
        SteinerSystem(f, 3, 2, 4, lines)


def test_puncture_steiner_rejects_a_broken_puncture(monkeypatch):
    """``verify`` of the punctured multiset catches a broken puncture:
    a k-image's multiplicity raised, a k-image dropped, a (k-1)-image
    repeated; the message names the first violated equation."""
    punctured = designs._punctured_tables

    def raise_upper(tables):
        tables[2][min(tables[2])] += 1

    def drop_upper(tables):
        del tables[2][min(tables[2])]

    def repeat_lower(tables):
        tables[1][min(tables[1])] = 2

    for change in (raise_upper, drop_upper, repeat_lower):
        def broken(q, m, tables):
            out = punctured(q, m, tables)
            change(out)
            return out
        monkeypatch.setattr(designs, "_punctured_tables", broken)
        with pytest.raises(ConstructionError,
                           match=r"^equation for the [01]-subspace Subspace\(q=2, "
                                 r"m=3, \[[01;-]+\]\) gives -?\d+, expected \d+$"):
            puncture_steiner(build_spread(2, 4))


def test_punctured_spread_verifies_as_design():
    design, _ = puncture_steiner(build_spread(2, 6))
    assert verify(design).ok


def test_distinctness_check():
    assert not distinctness_check(fano_m4())
    design, _ = puncture_steiner(build_spread(2, 4))
    assert distinctness_check(design)


# ---------------------------------------------------------------------------
# parallelisms
# ---------------------------------------------------------------------------

def test_parallelism_search_2_4():
    para = build_parallelism(2, 4)
    assert len(para.spreads) == 7
    assert all(len(sp.lines) == 5 for sp in para.spreads)
    seen = {line for sp in para.spreads for line in sp.lines}
    assert len(seen) == 35 == gaussian(4, 2, 2)


def test_parallelism_search_is_deterministic():
    a = build_parallelism(2, 4)
    b = build_parallelism(2, 4)
    assert a == b


PARALLELISM_2_4 = """\
qsteiner-parallelism v1
q=2 n=4
spread
0010;0001
1000;0101
1001;0111
1010;0110
1011;0100
spread
0100;0001
1000;0111
1001;0011
1011;0110
1100;0010
spread
0100;0010
1000;0001
1010;0111
1011;0101
1100;0011
spread
0100;0011
1000;0110
1001;0010
1010;0101
1100;0001
spread
0101;0010
1000;0100
1001;0110
1010;0001
1101;0011
spread
0101;0011
1000;0010
1001;0100
1011;0111
1110;0001
spread
0110;0001
1000;0011
1001;0101
1010;0100
1101;0010
"""


def test_parallelism_search_keeps_recursion_limit(monkeypatch):
    """The exact cover recurses once per chosen row, well inside the
    default limit: same result, no interpreter state changed."""

    def refuse(limit):
        raise AssertionError("the search changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    assert serialize_parallelism(build_parallelism(2, 4)) == PARALLELISM_2_4
    assert len(build_parallelism(2, 6).spreads) == 31


def test_parallelism_search_regime():
    for q, n in ((3, 4), (2, 5), (2, 12), (2, 3)):
        with pytest.raises(ValueError, match=r"n in \{2, 4, 6, 8, 10\}"):
            build_parallelism(q, n)


def test_packaged_parallelisms_load_and_validate():
    path = packaged_parallelism_path(3, 4)
    assert path is not None
    para = parse_parallelism_file(path)
    assert (para.field.q, para.n, len(para.spreads)) == (3, 4, 13)
    assert packaged_parallelism_path(2, 6) is None


def test_parallelism_rejects_bad_partition():
    para = build_parallelism(2, 4)
    with pytest.raises(ValueError):
        Parallelism(F2, 4, para.spreads[:6])
    with pytest.raises(ValueError):
        Parallelism(F2, 4, para.spreads + (para.spreads[0],))
    with pytest.raises(ValueError, match="^spread with mismatched parameters$"):
        Parallelism(F2, 4, (build_spread(2, 6),))


def test_parallelism_rejects_members_that_are_not_spreads():
    """Only a ``Spread`` checks that its lines partition the points, so a
    parallelism takes nothing else: neither one system of all 35 lines
    nor seven systems of five lines each, none of them a partition."""
    lines = tuple(enumerate_subspaces(F2, 4, 2))
    with pytest.raises(ValueError, match=r"^member 0 is a SteinerSystem, not a Spread$"):
        Parallelism(F2, 4, (SteinerSystem(F2, 1, 2, 4, lines),))
    groups = tuple(SteinerSystem(F2, 1, 2, 4, lines[i:i + 5]) for i in range(0, 35, 5))
    with pytest.raises(ValueError, match=r"^member 0 is a SteinerSystem, not a Spread$"):
        Parallelism(F2, 4, groups)


def test_line_key_matches_rref():
    """Spreads and parallelisms are checked on their keys, which is exact
    only for RREF keys: the bit arithmetic of ``_line_key`` gives the
    key of the row-reduced line through every pair of vectors."""
    for n in range(2, 7):
        for u in range(1, 2 ** n):
            for v in range(u + 1, 2 ** n):
                line = rref(F2, [subspaces.vector_from_code(c, 2, n) for c in (u, v)])
                assert _line_key(u, v, n) == subspaces.rows_key(2, line.rows), (n, u, v)


def test_parallelisms_build_no_subspace(monkeypatch):
    """The search, a parallelism file and their serialization go from
    vector codes and row text to keys and back without a ``Subspace``."""
    text = packaged_parallelism_path(3, 4).read_text(encoding="ascii")

    def refuse(*args):
        raise AssertionError("a Subspace was built")

    monkeypatch.setattr(subspaces.Subspace, "__init__", refuse)
    assert len(serialize_parallelism(build_parallelism(2, 6)).splitlines()) \
        == 2 + 31 * (1 + 21)
    assert serialize_parallelism(parse_parallelism(text)) == text


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def test_construct_uniform_design_validation():
    with pytest.raises(ValueError):
        construct_uniform_design(2, 2, 3, 7, 4, {0: 1, 2: -4})
    with pytest.raises(ValueError):
        construct_uniform_design(2, 2, 3, 7, 4, {0: 1, 2: 4.0})
    with pytest.raises(ValueError):
        construct_uniform_design(2, 2, 3, 7, 6, {0: 1})  # dim 0 illegal at m=6


def test_uniform_families_parts():
    """A uniform design is one part of every r-subspace per nonzero X_r,
    over m1 = m, and ``construct_uniform_design`` is its expansion: every
    r-subspace of F_q^m once, in canonical order, at X_r."""
    fam = uniform_families(2, 2, 3, 7, 4, {0: 1, 1: 0, 2: 4, 3: 16})
    assert fam.m1 == fam.params.m == 4
    assert fam.parts == ((0, None, 0, 1), (2, None, 0, 4), (3, None, 0, 16))
    design = construct_uniform_design(2, 2, 3, 7, 4, {0: 1, 1: 0, 2: 4, 3: 16})
    assert design == fam.design() and list(design.tables) == [0, 2, 3]
    for r, mult in ((0, 1), (2, 4), (3, 16)):
        assert list(design.tables[r].items()) == [
            (key, mult) for key in grassmannian_keys(2, 4, r)]
    with pytest.raises(ValueError, match="^dimension 0 outside the legal block range 2..3$"):
        uniform_families(2, 2, 3, 7, 6, {0: 1})


def test_construct_uniform_q3():
    d = construct_uniform_design(3, 2, 3, 7, 4, {0: 1, 1: 0, 2: 9, 3: 162})
    assert verify(d).ok
    assert d.total_multiplicity() == 7651


def test_construct_uniform_q4():
    # prime-power field: X_2 = q^2 = 16, X_3 = q^4(q-1) = 768
    d = construct_uniform_design(4, 2, 3, 7, 4, {0: 1, 1: 0, 2: 16, 3: 768})
    assert verify(d).ok
    assert d.total_multiplicity() == gaussian(7, 2, 4) // gaussian(3, 2, 4)


def test_construct_s3485_part_sizes():
    d = s3485_families(2).design()
    sizes = {}
    for b, mult in d.blocks.items():
        key = (b.dim, mult)
        sizes[key] = sizes.get(key, 0) + 1
    assert sizes == {(1, 1): 1, (2, 1): 140, (3, 16): 35, (3, 14): 120,
                     (4, 128): 15, (4, 136): 16}
    assert d.total_multiplicity() == 6477
    assert verify(d).ok


def test_construct_s3485_punctures_to_uniform_m4():
    d4 = puncture_design(s3485_families(2).design())
    assert verify(d4).ok
    assert d4 == construct_uniform_design(2, 3, 4, 8, 4,
                                          {0: 1, 1: 0, 2: 20, 3: 240, 4: 2176})


def test_construct_s3485_q3():
    d = s3485_families(3).design()
    assert verify(d).ok
    assert d.total_multiplicity() == gaussian(8, 3, 3) // gaussian(4, 3, 3)


def test_construct_s3485_puncture_chain_to_m1():
    d = s3485_families(2).design()
    while d.params.m > 1:
        d = puncture_design(d)
        assert verify(d).ok, d.params
    assert d.total_multiplicity() == 6477


def test_construct_fano_m5():
    para = build_parallelism(2, 4)
    d = fano_m5_families(2, para).design()
    assert d.total_multiplicity() == 381
    assert verify(d).ok
    # type totals: 1 + 15*8*2 + 4*5*4 + 3*5*4
    totals = d.dimension_totals()
    assert totals[1] == 1
    assert totals[2] == 60
    assert totals[3] == 240 + 80


def test_construct_fano_m5_punctures_to_uniform():
    d = fano_m5_families(2, build_parallelism(2, 4)).design()
    assert puncture_design(d) == fano_m4()


def test_construct_fano_m5_q3_from_file():
    para = parse_parallelism_file(packaged_parallelism_path(3, 4))
    d = fano_m5_families(3, para).design()
    assert verify(d).ok
    assert d.total_multiplicity() == 7651
    # the written file, pinned byte for byte
    assert file_sha256(d) == (
        "893420bb6a430ccc1b3e307545ef78c4523e79635aec385a1e4e71b1a82828ea")


def test_construct_fano_m5_rejects_wrong_parallelism():
    with pytest.raises(ValueError, match=r"^need a parallelism of F_2\^4$"):
        fano_m5_families(2, build_parallelism(2, 6))
    with pytest.raises(ValueError, match=r"^need a parallelism of F_3\^4$"):
        fano_m5_families(3, build_parallelism(2, 4))


def test_construct_recursive_k3():
    para = build_parallelism(2, 4)
    base = construct_uniform_design(2, 2, 3, 3, 1, {1: 1})
    d = recursive_families(2, 3, para, base).design()
    assert d.params == DesignParams(2, 2, 3, 7, 5)
    assert d.total_multiplicity() == 381
    # part structure: 1 raised null + 240 top 3-subspaces (x2) +
    # 60 zero-set 2-subspaces (x1) + 80 raised spread lines (x4)
    sizes = {}
    for b, mult in d.blocks.items():
        key = (b.dim, mult)
        sizes[key] = sizes.get(key, 0) + 1
    assert sizes == {(1, 1): 1, (2, 1): 60, (3, 2): 120, (3, 4): 20}
    assert file_sha256(d) == (
        "c31fb486bddb1a2fb4efad2c65cc2162d9be1a814d71ad4fc68c6fc9e62d784a")
    assert verify(d).ok
    assert puncture_design(d) == fano_m4()


@pytest.mark.parametrize("q", [2, 3])
def test_fano_m5_is_recursive_k3(q):
    """The four-type S_q(2,3,7;5) is the recursive construction at k = 3
    with the parallelism's last q+1 spreads first, over the uniform base
    S_q(2,3,3;1): the same design and the same class-sum report."""
    para = (build_parallelism(2, 4) if q == 2
            else parse_parallelism_file(packaged_parallelism_path(3, 4)))
    moved = Parallelism(para.field, 4,
                        para.spreads[-(q + 1):] + para.spreads[:-(q + 1)])
    base = construct_uniform_design(q, 2, 3, 3, 1, {1: 1})
    fano, rec = fano_m5_families(q, para), recursive_families(q, 3, moved, base)
    assert fano.design() == rec.design()
    assert verify_families(fano) == verify_families(rec) == verify(rec.design())
    assert verify_families(fano).ok


def test_construct_recursive_validation():
    para = build_parallelism(2, 4)
    base = construct_uniform_design(2, 2, 3, 3, 1, {1: 1})
    with pytest.raises(ValueError, match=r"^need a parallelism of F_3\^4$"):
        recursive_families(3, 3, para, base)
    with pytest.raises(ValueError, match=r"^need k = 1 or 3 \(mod 6\), k >= 3, got k=5$"):
        recursive_families(2, 5, para, base)
    with pytest.raises(ValueError, match=r"^base design must be an S_2\(2,3,3;1\)$"):
        recursive_families(2, 3, para,
                           construct_uniform_design(2, 2, 3, 7, 1, {0: 45, 1: 336}))
    with pytest.raises(ValueError, match=r"^base design fails verification$"):
        recursive_families(2, 3, para, construct_uniform_design(2, 2, 3, 3, 1, {1: 2}))


# ---------------------------------------------------------------------------
# extension families and their class sums
# ---------------------------------------------------------------------------

def families_over(design, m1):
    """A uniform design as extension families over F_q^{m1} + F_q^r: for
    each block dimension d and bottom G2, every top at d's multiplicity."""
    pr = design.params
    r = pr.m - m1
    fam = ExtensionFamilies(pr, m1, tuple(
        (d, None, bottom, mult) for d, table in design.tables.items()
        for mult in set(table.values())
        for d2 in range(max(0, d - m1), min(d, r) + 1)
        for bottom in grassmannian_keys(pr.q, r, d2)))
    assert fam.design() == design
    return fam


def construction_families():
    para2 = build_parallelism(2, 4)
    para3 = parse_parallelism_file(packaged_parallelism_path(3, 4))
    base = construct_uniform_design(2, 2, 3, 3, 1, {1: 1})
    return [s3485_families(2), s3485_families(3), s3485_families(4),
            fano_m5_families(2, para2), fano_m5_families(3, para3),
            recursive_families(2, 3, para2, base),
            families_over(fano_m4(2), 2), families_over(fano_m4(3), 1),
            uniform_families(2, 2, 3, 7, 4, {0: 1, 1: 0, 2: 4, 3: 16})]


CONSTRUCTIONS = dict(zip((
    "s3485-q2", "s3485-q3", "s3485-q4", "fano-m5-q2", "fano-m5-q3",
    "recursive-k3", "fano-m4-q2", "fano-m4-q3", "fano-m4-q2-m1=m"),
    construction_families()))


def family_mutants(fam):
    """The family with one defect each: the last part's multiplicity
    raised, its first top key dropped, its multiplicity negated, a
    block of dimension m (outside the constructions' r_range), and the
    last part of multiplicity above 1 split into two parts at 1 and at
    its whole multiplicity, which add up to one too many."""
    pr = fam.params
    q, r = pr.q, pr.m - fam.m1
    parts = list(fam.parts)
    d, keys, bottom, mult = parts[-1]
    if keys is None:
        keys = grassmannian_keys(q, fam.m1, d - len(row_codes(bottom, q, r)))
    assert pr.m not in pr.r_range()
    return [replace(fam, parts=(*parts[:-1], part)) for part in (
        (d, keys, bottom, mult + 1), (d, keys[1:], bottom, mult),
        (d, keys, bottom, -mult))] + [
        replace(fam, parts=(*parts, (pr.m, None, grassmannian_keys(q, r, r)[0], 1))),
        split_family(fam, 1)]


def split_family(fam, extra):
    """The family with its last part of multiplicity above 1 split into
    two parts, at 1 and at the rest plus ``extra``."""
    parts = fam.parts
    i = max(i for i, part in enumerate(parts) if part[3] > 1)
    split = (*parts[i][:3], 1), (*parts[i][:3], parts[i][3] - 1 + extra)
    return replace(fam, parts=(*parts[:i], *split, *parts[i + 1:]))


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_verify_families_matches_verify(name, monkeypatch):
    """The class sums pass every construction, also with a part split in
    two that add up to it, and on each mutant report exactly what
    ``verify`` of the expansion does, and the object-keyed oracle,
    violations and illegal blocks included; all without expanding the
    family or calling ``verify``."""
    fam = CONSTRUCTIONS[name]
    expected = verify(fam.design())
    assert expected.ok
    split = split_family(fam, 0)
    assert split.design() == fam.design()
    mutants = family_mutants(fam)

    def refuse(*args):
        raise AssertionError("the family was expanded or verified")

    with monkeypatch.context() as patch:        # the sums alone
        patch.setattr(designs, "verify", refuse)
        patch.setattr(ExtensionFamilies, "design", refuse)
        assert verify_families(fam) == verify_families(split) == expected
        reports = [verify_families(mutant) for mutant in mutants]
    for mutant, report in zip(mutants, reports):
        assert not report.ok
        assert report == verify(mutant.design())
        if name not in ("s3485-q3", "s3485-q4"):    # too slow there
            assert report == object_verify(mutant.design())


def test_extension_families_validation():
    params = DesignParams(2, 2, 3, 7, 5)
    with pytest.raises(ValueError):
        ExtensionFamilies(params, 6, ())                    # m1 > m
    with pytest.raises(ValueError):
        ExtensionFamilies(params, 4, ((2, (140,), 0, 1),))  # top key not RREF
    with pytest.raises(ValueError):
        ExtensionFamilies(params, 4, ((2, (1,), 0, 1),))    # a 1-subspace
    with pytest.raises(ValueError):
        ExtensionFamilies(params, 4, ((1, None, 2, 1),))    # bottom not a key
    with pytest.raises(ValueError):
        ExtensionFamilies(params, 4, ((5, None, 0, 1),))    # no 5-subspace of F_2^4
    with pytest.raises(ValueError):
        ExtensionFamilies(params, 4, ((1, None, 0, 1.0),))
    # F_q^0 holds only the key 0, which ends a read digit by digit by 1
    with pytest.raises(ValueError, match="^1 is not a subspace key$"):
        ExtensionFamilies(DesignParams(2, 2, 3, 7, 4), 4, ((2, None, 1, 1),))
    # a part of multiplicity 0 expands to nothing
    fam = ExtensionFamilies(params, 4, ((1, None, 0, 0), (1, (0,), 1, 2)))
    assert fam.design().tables == {1: {1: 2}}
    # parts that cancel leave no block, and the class sums agree
    fam = cancelled_family()
    assert verify_families(fam) == verify(fam.design())


# ---------------------------------------------------------------------------
# column transforms
# ---------------------------------------------------------------------------

def test_transform_identity():
    d = fano_m4()
    assert apply_transform(d, [(1, (0, 1, 0, 0))]) == d


def test_transform_preserves_design_verification():
    rng = random.Random(1234)
    d = fano_m4()
    for _ in range(100):
        j = rng.randrange(4)
        coeffs = [rng.randrange(2) for _ in range(4)]
        coeffs[j] = 1
        d = apply_transform(d, [(j, tuple(coeffs))])
        assert verify(d).ok


def test_transform_preserves_spread():
    st = build_spread(2, 4)
    op = (0, (1, 1, 0, 0))
    assert verify_steiner(apply_transform(st, [op, op, op]))


def test_transform_q3_design():
    d = construct_uniform_design(3, 2, 3, 7, 4, {0: 1, 1: 0, 2: 9, 3: 162})
    out = apply_transform(d, [(1, (2, 1, 0, 1)), (3, (0, 1, 2, 2))])
    assert verify(out).ok


def test_transform_rejects_singular_op():
    d = fano_m4()
    with pytest.raises(ValueError):
        apply_transform(d, [(1, (1, 0, 0, 0))])
    with pytest.raises(ValueError):
        apply_transform(d, [(1, (1, 1, 0))])
    with pytest.raises(ValueError):
        apply_transform(d, [(1, (1, 2, 0, 0))])  # 2 outside F_2
    with pytest.raises(TypeError, match="^cannot transform DesignParams$"):
        apply_transform(d.params, [])


def _random_ops(rng, q, m, count):
    ops = []
    for _ in range(count):
        j = rng.randrange(m)
        coeffs = [rng.randrange(q) for _ in range(m)]
        coeffs[j] = rng.randrange(1, q)
        ops.append((j, tuple(coeffs)))
    return ops


def test_transform_matches_object_oracle():
    """The keyed transform gives, block by block, the vector sets the
    object oracle spans from each transformed block: Steiner systems
    (spreads at q = 2 and 3, in canonical block order) and designs with
    mixed multiplicities at q = 2, 3, 4, 5, 8 and 9."""
    rng = random.Random(16)

    def spans(blocks):
        """The blocks' vector sets; each block's rows must be RREF."""
        out = Counter()
        for b, mult in blocks.items():
            Subspace(b.field, b.ambient, b.rows)
            out[object_span(b.field, b.ambient, b.rows)] += mult
        return out

    for q, n in ((2, 4), (2, 6), (3, 4)):
        st = build_spread(q, n)
        for _ in range(5):
            ops = _random_ops(rng, q, n, rng.randrange(1, 4))
            out = apply_transform(st, ops)
            want = object_transform(dict.fromkeys(st.blocks, 1), ops)
            assert set(want.values()) == {1}
            assert spans(dict.fromkeys(out.blocks, 1)) == want
            assert list(out.blocks) == sorted(out.blocks, key=lambda b: b.rows)
            assert (out.t, out.k, out.n) == (1, 2, n) and verify_steiner(out)
    for q in (2, 3, 4, 5, 8, 9):
        f = make_field(q)
        blocks = {}
        for d in range(5):
            subs = list(enumerate_subspaces(f, 4, d))
            for b in rng.sample(subs, min(len(subs), 12)):
                blocks[b] = rng.randrange(1, 6)
        d = DesignMultiset(DesignParams(q, 2, 3, 7, 4), blocks)
        for _ in range(5):
            ops = _random_ops(rng, q, 4, rng.randrange(1, 4))
            assert spans(apply_transform(d, ops).blocks) == object_transform(blocks, ops)
