"""Closed-form counts against their enumeration oracles."""

import itertools
from collections import Counter
from math import comb

import pytest
from slow_oracles import object_oracle_C, slot_grassmannian_rows

from qsteiner import counting
from qsteiner.counting import (ORACLE_GUARD, _puncture_census, count_C,
                               count_D, count_N, covering_coefficient,
                               gaussian, necessary_conditions, oracle_C,
                               oracle_D, oracle_N)
from qsteiner.field import SUPPORTED_ORDERS, make_field
from qsteiner.subspaces import (Subspace, contains, enumerate_subspaces,
                                first_subspace, grassmannian_keys, puncture,
                                rows_key, rref, subspaces_within)


def test_gaussian_values():
    assert gaussian(3, 2, 2) == 7
    assert gaussian(5, 2, 2) == 155
    assert gaussian(6, 2, 2) == 651
    assert gaussian(7, 2, 2) == 2667
    assert gaussian(7, 3, 2) == 11811
    assert gaussian(4, 2, 3) == 130


def test_gaussian_edges_and_convention():
    for q in (2, 3, 4):
        for n in range(0, 8):
            assert gaussian(n, 0, q) == 1
            assert gaussian(n, n, q) == 1
        assert gaussian(3, 5, q) == 0
        assert gaussian(3, -1, q) == 0
    # no field has fewer than two elements, whatever k is
    for q in (-1, 0, 1):
        for k in (-1, 0, 2, 9):
            with pytest.raises(ValueError, match="q >= 2"):
                gaussian(7, k, q)


def test_gaussian_pascal_identity():
    """[n k] = q^k [n-1 k] + [n-1 k-1] for 1 <= k <= n-1 <= 12, all q."""
    for q in SUPPORTED_ORDERS:
        for n in range(2, 14):
            for k in range(1, n):
                assert gaussian(n, k, q) == (q ** k * gaussian(n - 1, k, q)
                                             + gaussian(n - 1, k - 1, q))


def test_gaussian_symmetry():
    for q in (2, 3, 4):
        for n in range(0, 10):
            for k in range(0, n + 1):
                assert gaussian(n, k, q) == gaussian(n, n - k, q)


def test_count_values_from_worked_examples():
    assert count_N(2, 5, 3, 7, 2) == 12
    assert count_N(0, 4, 2, 7, 2) == gaussian(3, 2, 2)
    assert count_N(0, 4, 2, 7, 3) == gaussian(3, 2, 3)
    assert count_N(2, 4, 2, 7, 2) == 64
    assert count_C(2, 2, 2, 3, 2) == 4
    for q in (2, 3):
        assert count_C(1, 2, 1, 3, q) == (q + 1) * q
        assert count_D(2, 3, 4, q) == q + 1
    assert count_C(0, 2, 1, 3, 2) == 1
    assert count_D(0, 2, 4, 2) == 35
    for q in (2, 3):
        for s in range(0, 4):
            assert count_D(s, s, 5, q) == 1


def test_count_range_errors():
    with pytest.raises(ValueError):
        count_N(1, 4, 0, 7, 2)        # s > t
    with pytest.raises(ValueError):
        count_N(0, 7, 1, 7, 2)        # m = n
    with pytest.raises(ValueError):
        count_N(0, 1, 3, 3, 2)        # t - s > n - m
    with pytest.raises(ValueError, match="no s-subspace"):
        count_N(3, 2, 3, 7, 2)        # s > m
    with pytest.raises(ValueError):
        count_C(1, 2, 2, 2, 2)        # t = k
    with pytest.raises(ValueError):
        count_C(1, 2, 3, 3, 2)        # r > k - t + s
    with pytest.raises(ValueError):
        count_D(2, 1, 4, 2)           # r < s


def test_covering_coefficient_zero_convention():
    assert covering_coefficient(0, 2, 2, 3, 2) == 0     # r > k-t+s
    assert covering_coefficient(2, 2, 1, 3, 2) == 0     # r < s
    assert covering_coefficient(0, 2, 1, 3, 2) == count_C(0, 2, 1, 3, 2)
    assert covering_coefficient(2, 2, 2, 3, 2) == 4


def test_oracle_anchors():
    assert oracle_N(2, 5, 3, 7, 2) == 12
    assert oracle_C(2, 2, 2, 3, 2) == 4
    assert oracle_D(1, 2, 4, 2) == 7 == gaussian(3, 1, 2)
    assert oracle_N(1, 1, 2, 7, 2) == 2 ** 5 * 63


def test_oracle_N_is_zero_where_nothing_punctures():
    """A witness no t-subspace punctures onto is absent from the census
    and counts 0: puncturing a 2-subspace of F_2^5 never gives a
    3-subspace, and deleting one column loses at most one dimension,
    so never gives the null space."""
    assert oracle_N(3, 4, 2, 5, 2) == oracle_N(0, 4, 2, 5, 2) == 0


def test_oracle_N_arbitrary_witness():
    f2 = make_field(2)
    for x in enumerate_subspaces(f2, 4, 2):
        assert oracle_N(2, 4, 2, 7, 2, witness=x) == 64


def test_oracle_N_census_partitions_grassmannian():
    """Each t-subspace of F_q^n punctures to exactly one subspace of
    F_q^m, so oracle counts over all witnesses sum to |G_q(n,t)|."""
    for q in (2, 3, 4):
        f = make_field(q)
        nmax = {2: 7, 3: 5, 4: 4}[q]
        for n in range(2, nmax + 1):
            for t in range(0, min(3, n) + 1):
                for m in range(1, n):
                    total = 0
                    for s in range(max(0, t - (n - m)), min(t, m) + 1):
                        for x in enumerate_subspaces(f, m, s):
                            total += oracle_N(s, m, t, n, q, witness=x)
                    assert total == gaussian(n, t, q)


def _pivoted_keys(q: int, m: int, d: int):
    """``(key, pivots)`` for every d-subspace of F_q^m, listed by
    ``grassmannian_keys``.  Row i of d is the key's base-q**m digit at
    (q**m)**(d-1-i), and a row code leads at p iff
    q**(m-1-p) <= code < q**(m-p)."""
    big = q ** m
    lead = [None]
    for p in reversed(range(m)):
        lead += [p] * (q ** (m - p) - q ** (m - 1 - p))
    places = [big ** (d - 1 - i) for i in range(d)]
    for key in grassmannian_keys(q, m, d):
        yield key, tuple([lead[key // place % big] for place in places])


def _cell_sizes(q: int, m: int, dims) -> Counter:
    """The number of subspaces of F_q^m with each pivot set, over the
    dimensions ``dims``, counted key by key."""
    return Counter(pivots for d in dims for _, pivots in _pivoted_keys(q, m, d))


def test_puncture_census_matches_object_puncture():
    """The census weights against puncture() applied to every
    t-subspace of the one-slot-at-a-time reference enumeration: every
    key of F_q^m is hit as often as the weight of its pivots, and a key
    whose pivots have no weight is hit by none.  At q = 5 and 7 a
    cell's images carry weights up to q**t."""
    for q, n_max in ((2, 5), (3, 5), (4, 5), (5, 4), (7, 4)):
        f = make_field(q)
        for n in range(2, n_max + 1):
            for t in range(n + 1):
                subs = [Subspace(f, n, rows)
                        for rows in slot_grassmannian_rows(q, n, t)]
                for m in range(1, n):
                    want = Counter(rows_key(q, puncture(x, n - m).rows)
                                   for x in subs)
                    weights = _puncture_census(q, n, t, m)
                    for d in range(m + 1):
                        for key, pivots in _pivoted_keys(q, m, d):
                            assert want[key] == weights.get(pivots, 0), \
                                (key, q, n, t, m)


def test_puncture_census_sums_to_grassmannian():
    """Every t-subspace of F_q^n punctures onto exactly one subspace of
    F_q^m, so the weights, each times the number of subspaces of F_q^m
    with its pivots, add up to |G_q(n,t)| for every m."""
    for q, n_max in ((2, 9), (3, 7)):
        sizes = {m: _cell_sizes(q, m, range(m + 1)) for m in range(1, n_max)}
        for n in range(2, n_max + 1):
            for t in range(n + 1):
                size = gaussian(n, t, q)
                if size > ORACLE_GUARD:
                    continue
                for m in range(1, n):
                    weights = _puncture_census(q, n, t, m)
                    assert sum(w * sizes[m][left]
                               for left, w in weights.items()) == size, \
                        (q, n, t, m)


def test_oracle_N_every_pivot_set_over_F2_10():
    """Every weight of the census of the 6,347,715 3-subspaces of F_2^10
    punctured onto F_2^9, read by one witness per pivot set of each
    dimension s (free entries all 1 before ``rref``): witnesses of
    different pivot sets read different weights.  For s = 1 no
    3-subspace punctures onto the witness, and the closed form refuses
    it.  The weights, each times the number of subspaces of F_2^9 with
    its pivots, add up to |G_2(10,3)|, checked apart from any witness;
    the pivot sets weighted are those of dimensions 2 and 3."""
    q, m, t, n = 2, 9, 3, 10
    field = make_field(q)
    for s in (1, 2, 3):
        if t - s > n - m:
            with pytest.raises(ValueError, match="cannot raise dimension"):
                count_N(s, m, t, n, q)
            want = 0
        else:
            want = count_N(s, m, t, n, q)
        for pivots in itertools.combinations(range(m), s):
            witness = rref(field, [(0,) * p + (1,) * (m - p) for p in pivots])
            assert witness.pivots == pivots
            assert oracle_N(s, m, t, n, q, witness=witness) == want, pivots
    weights = _puncture_census(q, n, t, m)
    sizes = _cell_sizes(q, m, (2, 3))
    assert sum(w * sizes[left] for left, w in weights.items()) == gaussian(n, t, q)
    assert len(weights) == comb(m, 2) + comb(m, 3)


def test_counting_caches_are_bounded():
    """A process making many oracle calls holds a bounded number of
    censuses; caches imported into ``counting``, such as
    ``make_field``, belong to their own modules."""
    caches = [obj for obj in vars(counting).values()
              if hasattr(obj, "cache_parameters")
              and obj.__module__ == counting.__name__]
    assert caches
    for cache in caches:
        assert cache.cache_parameters()["maxsize"] is not None, cache.__name__


def test_oracle_N_rejects_witness_from_another_field():
    witness = first_subspace(make_field(2), 2, 1)
    with pytest.raises(ValueError, match="F_2, not F_3"):
        oracle_N(1, 2, 2, 4, 3, witness=witness)
    assert oracle_N(1, 2, 2, 4, 3, witness=first_subspace(make_field(3), 2, 1)) \
        == count_N(1, 2, 2, 4, 3)


def oracle_C_witness_pairs():
    """``(args, inner, outer)`` for a few (Y, X) pairs realizing (r, s)
    per case, in F_q^r and in F_q^(r+1)."""
    cases = [(1, 2, 1, 3, 2), (1, 2, 2, 3, 2), (0, 2, 1, 3, 3),
             (2, 3, 2, 4, 2), (1, 3, 2, 4, 3)]
    for s, t, r, k, q in cases:
        field = make_field(q)
        seen = 0
        for m in (r, r + 1):
            for outer in enumerate_subspaces(field, m, r):
                for inner in subspaces_within(outer, s):
                    yield (s, t, r, k, q), inner, outer
                    seen += 1
                    if seen % 3 == 0:
                        break
                if seen >= 6:
                    break
            if seen >= 12:
                break
        assert seen >= 3


def test_oracle_C_witness_independence():
    """The copy count does not depend on which (Y, X) pair realizes
    (r, s), nor on the ambient holding them."""
    for args, inner, outer in oracle_C_witness_pairs():
        assert oracle_C(*args, inner=inner, outer=outer) == count_C(*args)


def criterion_1_C_tuples(q):
    """The ``count_C`` tuples acceptance criterion 1 checks at q."""
    for k in range(1, 5):
        for t in range(0, k):
            for s in range(0, t + 1):
                for r in range(s, k - t + s + 1):
                    yield s, t, r, k, q


def test_oracle_C_matches_object_oracle():
    """The key-level C oracle against ``puncture`` of every t-subspace
    object of W: on every criterion-1 tuple at q = 2, 3 and on the
    witness pairs of the independence test."""
    for q in (2, 3):
        for args in criterion_1_C_tuples(q):
            assert oracle_C(*args) == object_oracle_C(*args), args
    for args, inner, outer in oracle_C_witness_pairs():
        assert oracle_C(*args, inner=inner, outer=outer) \
            == object_oracle_C(*args, inner=inner, outer=outer), args


def test_oracle_D_arbitrary_witness():
    f3 = make_field(3)
    for x in enumerate_subspaces(f3, 4, 1):
        assert oracle_D(1, 2, 4, 3, witness=x) == count_D(1, 2, 4, 3)


@pytest.mark.parametrize("oracle, args, message", [
    (oracle_N, (0, 4, 1, 4, 2), "need 0 < m < n"),
    (oracle_N, (1, 2, 2, 4, 2, first_subspace(make_field(2), 3, 1)),
     "does not match the requested"),
    (oracle_C, (1, 2, 2, 2, 2), "need 0 <= s <= t < k"),
    (oracle_C, (1, 2, 0, 3, 2), "need s <= r <= k"),
    (oracle_C, (1, 2, 1, 3, 2, rref(make_field(2), [(0, 1)]),
                rref(make_field(2), [(1, 0)])), "witness pair"),
    (oracle_D, (2, 1, 4, 2), "need 0 <= s <= r <= m"),
])
def test_oracle_range_errors(oracle, args, message):
    with pytest.raises(ValueError, match=message):
        oracle(*args)


def test_oracle_guard():
    with pytest.raises(ValueError):
        oracle_N(1, 8, 4, 16, 2)
    with pytest.raises(ValueError):
        oracle_D(0, 4, 16, 2)
    # the t-subspaces of the raised 40-space are never enumerated
    with pytest.raises(ValueError, match="oracle would enumerate"):
        oracle_C(0, 1, 1, 40, 2)
    # past the guard's bits by [n t]_q >= q^(t(n-t)), refused without
    # computing [n t]_q; below them, the count is named
    with pytest.raises(ValueError, match=r"^oracle would enumerate at least "
                                         r"2\^9000000 subspaces \(> 10000000\)$"):
        oracle_D(0, 3000, 6000, 2)
    with pytest.raises(ValueError, match=r"^oracle would enumerate at least 2\^24 "):
        oracle_D(0, 2, 8, 4)                    # 4^(2*6) = 2^24
    with pytest.raises(ValueError, match=r"^oracle would enumerate 678468820 subspaces"):
        oracle_D(0, 3, 9, 3)                    # 3^18 >= 2^18 only
    assert gaussian(9, 3, 3) == 678468820


def test_oracle_D_vs_direct_containment_scan():
    """The pivot-cell oracle counts what ``contains`` counts over the
    Grassmannian, for every witness and both dimensions, over prime
    fields (q = 2, 3, 5, 7) and extension fields (q = 4, 8, 9); the
    scan is what runs the field's arithmetic against D."""
    for q, m_max in ((2, 4), (3, 4), (4, 3), (5, 3), (7, 3), (8, 3), (9, 3)):
        f = make_field(q)
        for m in range(1, m_max + 1):
            for r in range(m + 1):
                outers = list(enumerate_subspaces(f, m, r))
                for s in range(r + 1):
                    for x in enumerate_subspaces(f, m, s):
                        expected = sum(1 for y in outers if contains(y, x))
                        assert oracle_D(s, r, m, q, witness=x) == expected
                        assert expected == count_D(s, r, m, q)
    with pytest.raises(ValueError):
        oracle_D(1, 2, 3, 3, witness=first_subspace(make_field(2), 3, 1))


def test_necessary_conditions_reports():
    rep = necessary_conditions(2, 3, 7, 2)
    assert rep.ok
    assert [(e.numerator, e.denominator) for e in rep.entries] == [(2667, 7), (63, 3)]

    rep = necessary_conditions(2, 3, 8, 2)
    assert not rep.ok
    assert not rep.entries[0].divides
    assert rep.entries[0].numerator == 10795

    for q in (2, 3, 4):
        for k in range(2, 6):
            assert necessary_conditions(1, 2, 2 * k, q).ok


def test_necessary_conditions_range_errors():
    with pytest.raises(ValueError):
        necessary_conditions(0, 3, 7, 2)
    with pytest.raises(ValueError):
        necessary_conditions(3, 3, 7, 2)
    with pytest.raises(ValueError):
        necessary_conditions(2, 7, 7, 2)
