"""Subspace canonicalization, enumeration and the extension calculus."""

import itertools
import random

import pytest
from slow_oracles import slot_grassmannian_rows

from qsteiner.counting import count_N, gaussian
from qsteiner.field import make_field
from qsteiner.subspaces import (Subspace, VirtualExpansion, _cell_keys,
                                _code_row, _decode_key, _row_entry, _rref_key,
                                contains, coverage,
                                enumerate_extensions, enumerate_subspaces,
                                expand, extension_raise_dim,
                                extensions_same_dim, first_subspace,
                                grassmannian_keys, null_subspace, puncture,
                                puncture_key, row_codes, rows_key, rref,
                                subspace_from_key, subspaces_within,
                                vector_code, vector_from_code)

F2 = make_field(2)
F3 = make_field(3)


def span(field, *rows):
    return rref(field, [tuple(r) for r in rows])


# ---------------------------------------------------------------------------
# rref and canonicality
# ---------------------------------------------------------------------------

def test_rref_already_canonical():
    s = span(F2, (0, 1, 0, 0), (0, 0, 1, 0))
    assert s.rows == ((0, 1, 0, 0), (0, 0, 1, 0))
    assert s.dim == 2 and s.pivots == (1, 2)


def test_rref_span_equality():
    a = span(F2, (0, 1, 1, 0), (0, 0, 1, 0), (0, 1, 0, 0))
    b = span(F2, (0, 1, 0, 0), (0, 0, 1, 0))
    assert a == b and a.dim == 2


def test_rref_leading_one_scaling():
    assert span(F3, (1, 2, 0, 0)) == span(F3, (2, 1, 0, 0))


def test_rref_length_mismatch():
    with pytest.raises(ValueError):
        rref(F2, [(1, 0), (1, 0, 0)])


@pytest.mark.parametrize("q, vectors", [(2, [(2, 0)]),
                                        (4, [(0, 1), (1, 7)]),
                                        (2, [(0, -1)])])
def test_rref_rejects_entries_outside_field(q, vectors):
    """Out-of-field entries are a ValueError, not an IndexError from the
    field tables, and a negative entry is not read as a table index."""
    with pytest.raises(ValueError, match=f"outside F_{q}"):
        rref(make_field(q), vectors)


def test_subspace_rejects_non_rref_rows():
    """The constructor accepts only an RREF basis of F_q^ambient, so equal
    spans cannot be two unequal Subspaces."""
    with pytest.raises(ValueError, match="not in reduced row echelon form"):
        Subspace(F2, 2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="not a vector of F_2\\^3"):
        Subspace(F2, 3, ((1, 2, 0),))
    with pytest.raises(ValueError, match="not a vector of F_2\\^3"):
        Subspace(F2, 3, ((1, 0),))
    assert Subspace(F2, 2, ((1, 0), (0, 1))) == rref(F2, [(1, 0), (0, 1)])


def test_rref_idempotent_exhaustive():
    """rref is the identity on every canonical basis (q=2, m <= 4)."""
    for m in range(1, 5):
        for d in range(0, m + 1):
            for s in enumerate_subspaces(F2, m, d):
                if d == 0:
                    continue
                assert rref(F2, s.rows) == s


def test_equal_spans_map_to_identical_bases():
    rng = random.Random(20240917)
    for m in range(2, 5):
        for d in range(1, m + 1):
            for s in enumerate_subspaces(F2, m, d):
                # random row mixes of the basis span the same subspace
                for _ in range(3):
                    rows = [list(r) for r in s.rows]
                    i, j = rng.randrange(d), rng.randrange(d)
                    if i != j:
                        rows[i] = [x ^ y for x, y in zip(rows[i], rows[j])]
                    rng.shuffle(rows)
                    assert rref(F2, rows) == s


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_equality_is_vector_set_equality():
    """Two Subspaces are equal exactly when they are the same set of
    vectors (exhaustive over all subspaces of F_2^3 and F_3^2)."""
    for q, m in ((2, 3), (3, 2)):
        f = make_field(q)
        all_subs = [s for d in range(m + 1) for s in enumerate_subspaces(f, m, d)]
        for a in all_subs:
            va = set(a.vectors())
            for b in all_subs:
                assert (a == b) == (va == set(b.vectors()))


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_subspaces(F2, 4, 2)) == 35
    assert sum(1 for _ in enumerate_subspaces(F2, 7, 2)) == 2667
    assert sum(1 for _ in enumerate_subspaces(F3, 4, 2)) == 130
    for q, m in ((2, 5), (3, 3)):
        f = make_field(q)
        for d in range(0, m + 1):
            assert sum(1 for _ in enumerate_subspaces(f, m, d)) == gaussian(m, d, q)


def test_grassmannian_keys_match_slot_enumeration():
    """The pivot-cell keys are the keys of the gaussian(m, d, q) matrices
    of the one-slot-at-a-time reference, and ``grassmannian_keys``,
    decoded, lists those matrices in sorted order, each one the parser
    accepts as RREF."""
    for q in (2, 3, 4):
        for m in range(6):
            for d in range(m + 1):
                want = sorted(slot_grassmannian_rows(q, m, d))
                assert len(want) == gaussian(m, d, q)
                got = [tuple(_code_row(code, q, m)
                             for code in row_codes(key, q, m))
                       for key in grassmannian_keys(q, m, d)]
                assert got == want, (q, m, d)
                assert set(_cell_keys(q, m, d)) == {rows_key(q, rows) for rows in want}
                for rows in got:
                    _rref_key([_row_entry(r, q) for r in rows], q ** m)


def test_unchecked_decode_matches_checked():
    """``_decode_key`` skips the RREF check but builds the same subspace,
    with the same hash and row tuples, as ``subspace_from_key``."""
    for q in (2, 3, 4, 5):
        f = make_field(q)
        for m in range(5):
            for d in range(m + 1):
                for key in grassmannian_keys(q, m, d):
                    checked, fast = subspace_from_key(f, m, key), _decode_key(f, m, key)
                    assert fast == checked and checked == fast
                    assert hash(fast) == hash(checked)
                    assert fast.rows == checked.rows and fast.ambient == m
                    assert fast.field is f


def test_negative_keys_are_refused():
    """A negative key is no subspace key: ``divmod`` floors toward -1,
    so reading one digit by digit would never end."""
    with pytest.raises(ValueError, match="^-1 is not a subspace key$"):
        row_codes(-1, 2, 3)
    with pytest.raises(ValueError, match="^-5 is not a subspace key$"):
        puncture_key(-5, 2, 3)
    with pytest.raises(ValueError, match="^-1 is not a subspace key$"):
        subspace_from_key(F2, 3, -1)


def test_enumeration_null_subspace():
    for f in (F2, F3):
        only = list(enumerate_subspaces(f, 4, 0))
        assert only == [null_subspace(f, 4)]


def test_enumeration_is_lexicographic_row_major():
    for q, m, d in ((2, 4, 2), (3, 3, 2), (2, 5, 3)):
        f = make_field(q)
        subs = list(enumerate_subspaces(f, m, d))
        flat = [tuple(x for row in s.rows for x in row) for s in subs]
        assert flat == sorted(flat)
        assert len(set(subs)) == len(subs)


def test_first_subspace_matches_enumeration():
    for q, m, d in ((2, 4, 2), (3, 4, 1), (2, 6, 3)):
        f = make_field(q)
        assert first_subspace(f, m, d) == next(iter(enumerate_subspaces(f, m, d)))


def test_enumeration_gaussian_recurrence():
    """|G_q(m,d)| = q^d |G_q(m-1,d)| + |G_q(m-1,d-1)| by raw counting."""
    for q in (2, 3):
        f = make_field(q)
        for m in range(2, 6 if q == 2 else 5):
            for d in range(1, m):
                lhs = sum(1 for _ in enumerate_subspaces(f, m, d))
                rhs = (q ** d * sum(1 for _ in enumerate_subspaces(f, m - 1, d))
                       + sum(1 for _ in enumerate_subspaces(f, m - 1, d - 1)))
                assert lhs == rhs


def test_dimension_out_of_range():
    with pytest.raises(ValueError):
        list(enumerate_subspaces(F2, 3, 4))
    with pytest.raises(ValueError):
        list(enumerate_subspaces(F2, 3, -1))


# ---------------------------------------------------------------------------
# containment
# ---------------------------------------------------------------------------

def test_contains_basics():
    y = span(F2, (0, 1, 0, 0), (0, 0, 1, 0))
    assert contains(y, y)
    assert contains(y, null_subspace(F2, 4))
    assert contains(y, span(F2, (0, 1, 1, 0)))
    assert not contains(y, span(F2, (1, 0, 0, 0)))


def test_contains_ambient_mismatch():
    with pytest.raises(ValueError):
        contains(span(F2, (1, 0)), span(F2, (1, 0, 0)))


def test_contains_vs_vector_membership():
    for q in (2, 3, 4, 9):
        f = make_field(q)
        for y in enumerate_subspaces(f, 3, 2):
            members = set(y.vectors())
            for d in range(3):
                for x in enumerate_subspaces(f, 3, d):
                    inside = all(v in members for v in x.vectors())
                    assert contains(y, x) == inside


# ---------------------------------------------------------------------------
# puncturing
# ---------------------------------------------------------------------------

def test_puncture_keeps_dimension():
    s = span(F2, (0, 1, 0, 0), (0, 0, 1, 0))
    assert puncture(s, 1) == span(F2, (0, 1, 0), (0, 0, 1))


def test_puncture_drops_dimension():
    assert puncture(span(F2, (0, 0, 0, 1)), 1) == null_subspace(F2, 3)


def test_puncture_out_of_range():
    with pytest.raises(ValueError):
        puncture(span(F2, (1, 0)), 3)


def test_puncture_matches_vector_definition():
    """Puncturing the basis equals puncturing every vector, exhaustively."""
    for q, m in ((2, 4), (3, 3), (4, 3)):
        f = make_field(q)
        for d in range(0, m + 1):
            for s in enumerate_subspaces(f, m, d):
                for p in range(0, m + 1):
                    direct = puncture(s, p)
                    punctured_vectors = {v[:m - p] for v in s.vectors()}
                    nonzero = [v for v in punctured_vectors if any(v)]
                    if nonzero:
                        assert direct == rref(f, nonzero)
                    else:
                        assert direct == null_subspace(f, m - p)
                    assert max(0, d - p) <= direct.dim <= min(d, m - p)


def test_puncture_dimension_bounds_single():
    # one puncture: dimension k or k-1
    for s in enumerate_subspaces(F2, 5, 3):
        assert puncture(s, 1).dim in (2, 3)


def test_puncture_of_subspace_containing_last_unit_vector():
    e7 = tuple([0] * 6 + [1])
    found = 0
    for s in enumerate_subspaces(F2, 7, 3):
        if contains(s, rref(F2, [e7])):
            assert puncture(s, 1).dim == 2
            found += 1
            if found >= 50:
                break
    assert found


# ---------------------------------------------------------------------------
# extensions
# ---------------------------------------------------------------------------

def test_extensions_same_dim_explicit_four():
    x = span(F2, (0, 1, 0, 0), (0, 0, 1, 0))
    exts = extensions_same_dim(x)
    assert len(exts) == 4 == len(set(exts))
    expected = {span(F2, (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)),
                span(F2, (0, 1, 0, 0, 1), (0, 0, 1, 0, 0)),
                span(F2, (0, 1, 0, 0, 0), (0, 0, 1, 0, 1)),
                span(F2, (0, 1, 0, 0, 1), (0, 0, 1, 0, 1))}
    assert set(exts) == expected


def test_extensions_same_dim_null():
    assert extensions_same_dim(null_subspace(F2, 4)) == [null_subspace(F2, 5)]


def test_extensions_same_dim_count_q3():
    for x in enumerate_subspaces(F3, 3, 1):
        exts = extensions_same_dim(x)
        assert len(set(exts)) == 3
        assert all(puncture(e, 1) == x for e in exts)


def test_extension_round_trip_and_uniqueness():
    """Same-dim extensions number q^t and the raising extension is the
    only dimension-raising one (q in {2,3}, m <= 5)."""
    for q in (2, 3):
        f = make_field(q)
        for m in range(1, 6):
            for t in range(0, m + 1):
                for x in enumerate_subspaces(f, m, t):
                    exts = extensions_same_dim(x)
                    assert len(set(exts)) == q ** t
                    assert all(puncture(e, 1) == x for e in exts)
                    raised = extension_raise_dim(x)
                    assert raised.dim == t + 1
                    assert puncture(raised, 1) == x


def test_enumerate_extensions_against_puncture_filter():
    """Every t-subspace of F_q^n puncturing to x, once each, count_N of
    them, in order: against a filter of the whole Grassmannian by
    puncture (q in {2, 3, 4}, n <= m + 2)."""
    for q, mmax in ((2, 3), (3, 3), (4, 3)):
        f = make_field(q)
        for m in range(1, mmax + 1):
            for n in range(m + 1, m + 3):
                for t in range(n + 1):
                    filtered = {}
                    for y in enumerate_subspaces(f, n, t):
                        filtered.setdefault(puncture(y, n - m), set()).add(y)
                    for s in range(max(0, t - n + m), min(t, m) + 1):
                        for x in enumerate_subspaces(f, m, s):
                            exts = list(enumerate_extensions(x, t, n))
                            count = count_N(s, m, t, n, q)
                            assert len(exts) == len(set(exts)) == count
                            assert set(exts) == filtered.pop(x)
                            # G2 in canonical order, then the rows
                            assert exts == sorted(
                                exts, key=lambda y: (y.rows[s:], y.rows[:s]))
                    assert not filtered


def test_extension_raise_dim_examples():
    assert extension_raise_dim(null_subspace(F2, 4)) == span(F2, (0, 0, 0, 0, 1))
    x = span(F2, (0, 1, 0, 0), (0, 0, 1, 0))
    assert extension_raise_dim(x) == span(
        F2, (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1))


def test_puncture_partition_of_grassmannian():
    """Every t-subspace of F_q^{m+1} punctures to a t-subspace (q^t each)
    or a (t-1)-subspace (once each); nothing else.  Exhaustive for
    q=2, m <= 5."""
    for q, mmax in ((2, 5), (3, 3)):
        f = make_field(q)
        for m in range(1, mmax + 1):
            for t in range(1, m + 1):
                census = {}
                for y in enumerate_subspaces(f, m + 1, t):
                    img = puncture(y, 1)
                    census[img] = census.get(img, 0) + 1
                for x in enumerate_subspaces(f, m, t):
                    assert census.pop(x) == q ** t
                for x in enumerate_subspaces(f, m, t - 1):
                    assert census.pop(x) == 1
                assert not census


def test_enumerate_extensions_twelve_arrays():
    x = span(F2, (0, 1, 0, 0, 1), (0, 0, 1, 0, 1))
    exts = list(enumerate_extensions(x, 3, 7))
    assert len(exts) == 12 == len(set(exts))
    assert all(e.dim == 3 and puncture(e, 2) == x for e in exts)


def test_enumerate_extensions_null_to_null():
    only = list(enumerate_extensions(null_subspace(F3, 2), 0, 5))
    assert only == [null_subspace(F3, 5)]


def test_enumerate_extensions_matches_filter():
    """Cross-check the constructive enumeration against full filtering."""
    x = first_subspace(F2, 2, 1)
    built = set(enumerate_extensions(x, 2, 5))
    filtered = {y for y in enumerate_subspaces(F2, 5, 2) if puncture(y, 3) == x}
    assert built == filtered


def test_enumerate_extensions_per_line_count():
    # each 1-subspace of F_2^1 extends to 2^5 * 63 = 2016 two-subspaces of F_2^7
    x = first_subspace(F2, 1, 1)
    assert sum(1 for _ in enumerate_extensions(x, 2, 7)) == 2016


def test_enumerate_extensions_errors():
    x = span(F2, (1, 0, 0))
    with pytest.raises(ValueError):
        list(enumerate_extensions(x, 0, 5))
    with pytest.raises(ValueError):
        list(enumerate_extensions(x, 3, 4))
    with pytest.raises(ValueError):
        list(enumerate_extensions(x, 1, 3))


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

def test_expand_block_repeated_rows():
    x = span(F2, (0, 1, 0, 0), (0, 0, 1, 0))
    ve = expand(x, 3)
    assert ve.rows == ((0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 0),
                       (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 0),
                       (0, 0, 0, 0))
    assert ve.underlying() == x


def test_expand_same_dimension_is_plain_list():
    x = span(F2, (1, 0), (0, 1))
    assert expand(x, 2).rows == ((1, 0), (0, 1), (1, 1))


def test_expand_null():
    ve = expand(null_subspace(F2, 1), 2)
    assert ve.rows == ((0,), (0,), (0,))
    assert ve.underlying() == null_subspace(F2, 1)


def test_expand_row_count_invariant():
    for q, m in ((2, 3), (3, 2)):
        f = make_field(q)
        for d in range(0, m + 1):
            x = first_subspace(f, m, d)
            for k in range(d, d + 3):
                ve = expand(x, k)
                assert len(ve.rows) == q ** k - 1
                assert ve.underlying() == x


def test_expand_rejects_shrinking():
    with pytest.raises(ValueError):
        expand(span(F2, (1, 0), (0, 1)), 1)


def test_expand_is_truncated_parent_vector_list():
    """As a multiset, the k-expansion of X is the nonzero-vector list of
    a k-subspace extending X, truncated to the first m columns."""
    from collections import Counter
    for q in (2, 3):
        f = make_field(q)
        for m, d, k in ((3, 2, 3), (2, 1, 3), (4, 2, 4)):
            x = first_subspace(f, m, d)
            parent = x
            for _ in range(k - d):
                parent = extension_raise_dim(parent)
            truncated = Counter(v[:m] for v in parent.vectors() if any(v))
            assert Counter(expand(x, k).rows) == truncated


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def test_vector_code_round_trip():
    for q, m in ((2, 5), (3, 3)):
        for v in itertools.product(range(q), repeat=m):
            assert vector_from_code(vector_code(v, q), q, m) == v


def test_subspaces_within_counts_and_canonical():
    y = span(F2, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 1, 0))
    for s in range(0, 4):
        subs = list(subspaces_within(y, s))
        assert len(subs) == len(set(subs)) == gaussian(3, s, 2)
        for x in subs:
            assert rref(F2, x.rows) == x if s else x.dim == 0
            assert contains(y, x)


def test_coverage_matches_object_oracle():
    """Coverage, its default expanded over the Grassmannian, against two
    object-based counts: one over subspaces_within, one over contains()
    on the whole Grassmannian, both read in enumerate_subspaces order.
    Its sums list exactly the subspaces of the listed blocks, and a
    batch standing for every d-subspace raises the default and every
    sum by the closed-form count."""
    rng = random.Random(3)
    for q in (2, 3, 4, 5, 8, 9, 16):
        f = make_field(q)
        m = 4 if q <= 5 else 3

        def random_block(d):
            y = null_subspace(f, m)
            while y.dim < d:
                y = rref(f, y.rows + (tuple(rng.randrange(q) for _ in range(m)),))
            return y

        blocks = [(random_block(d), rng.randint(-2, 2))
                  for d in range(m + 1) for _ in range(2)]
        # batches: many blocks of one (weight, dim) next to weight-1
        # blocks of other dims, a block listed twice, a weight-0 batch
        # and a weight no fixed-width integer holds
        blocks += [(random_block(2), 1) for _ in range(6)]
        blocks += [blocks[-1], (random_block(1), 1), (random_block(m - 1), 1),
                   (random_block(1), 0), (random_block(2), 0),
                   (random_block(2), 2 ** 70 + 1)]
        for s in range(m + 1):
            within: dict = {}
            for y, w in blocks:
                for x in subspaces_within(y, s):
                    within[x] = within.get(x, 0) + w
            xs = list(enumerate_subspaces(f, m, s))
            by_within = [(rows_key(q, x.rows), within.get(x, 0)) for x in xs]
            by_contains = [(rows_key(q, x.rows),
                            sum(w for y, w in blocks if contains(y, x)))
                           for x in xs]
            batches = [(y.dim, w, [rows_key(q, y.rows)]) for y, w in blocks]
            every, sums = coverage(batches, f, m, s)
            got = [(key, sums.get(key, every)) for key in grassmannian_keys(q, m, s)]
            assert got == by_within == by_contains, (q, s)
            assert every == 0
            assert sums.keys() == {rows_key(q, x.rows) for x in within}
            d = rng.randint(s, m)
            every, sums = coverage(batches + [(d, 3, None)], f, m, s)
            extra = 3 * gaussian(m - s, d - s, q)
            assert [(key, sums.get(key, every)) for key, _ in by_within] \
                == [(key, w + extra) for key, w in by_within], (q, s, d)
            assert every == extra
            assert sums.keys() == {rows_key(q, x.rows) for x in within}


def test_packed_is_row_major_matrix_code():
    """A coverage key is the RREF matrix read row-major as one base-q
    number, its first entry the most significant digit; no two subspaces
    of one Grassmannian share it, and the Grassmannian's keys in
    canonical order are its pivot-cell keys sorted as ints."""
    for q in (2, 3, 4, 9):
        f = make_field(q)
        for m in range(5):
            for s in range(m + 1):
                xs = list(enumerate_subspaces(f, m, s))
                keys = [rows_key(q, x.rows) for x in xs]
                assert keys == [int("0" + "".join(map(str, sum(x.rows, ()))), q)
                                for x in xs]
                assert len(set(keys)) == len(xs) == gaussian(m, s, q), (q, m, s)
                assert grassmannian_keys(q, m, s) == sorted(_cell_keys(q, m, s))
