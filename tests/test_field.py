"""Exhaustive field-axiom checks for every supported order."""

import pytest

from qsteiner.field import SUPPORTED_ORDERS, make_field


def test_supported_orders_construct():
    for q in SUPPORTED_ORDERS:
        f = make_field(q)
        assert f.q == q
        assert f.p ** f.e == q


def test_unsupported_orders_rejected():
    for q in (0, 1, 6, 10, 12, 17, 25, 32):
        with pytest.raises(ValueError):
            make_field(q)


def test_identities():
    for q in SUPPORTED_ORDERS:
        f = make_field(q)
        for a in f.elements():
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.mul(a, 0) == 0


def test_axioms_exhaustive():
    """Associativity, commutativity and distributivity over all q^3 triples."""
    for q in SUPPORTED_ORDERS:
        f = make_field(q)
        for a in f.elements():
            for b in f.elements():
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                for c in f.elements():
                    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_inverses():
    for q in SUPPORTED_ORDERS:
        f = make_field(q)
        for a in range(1, q):
            assert f.mul(a, f.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_subtraction_and_negation():
    for q in SUPPORTED_ORDERS:
        f = make_field(q)
        for a in f.elements():
            assert f.add(a, f.neg(a)) == 0
            for b in f.elements():
                assert f.add(f.sub(a, b), b) == a


def test_frobenius():
    """(a+b)^p = a^p + b^p in characteristic p."""
    def power(f, a, e):
        out = 1
        for _ in range(e):
            out = f.mul(out, a)
        return out

    for q in SUPPORTED_ORDERS:
        f = make_field(q)
        for a in f.elements():
            for b in f.elements():
                assert power(f, f.add(a, b), f.p) == f.add(power(f, a, f.p),
                                                           power(f, b, f.p))


def test_prime_field_tables_are_residues():
    """A prime field, built as F_p[x]/(x), is arithmetic mod p."""
    for p in (2, 3, 5, 7, 11, 13):
        f = make_field(p)
        assert (f.p, f.e) == (p, 1)
        for a in range(p):
            assert f.add_table[a] == tuple((a + b) % p for b in range(p))
            assert f.mul_table[a] == tuple((a * b) % p for b in range(p))


def test_f2_and_f3_tables():
    f2 = make_field(2)
    assert f2.add(1, 1) == 0 and f2.mul(1, 1) == 1
    f3 = make_field(3)
    assert f3.add(2, 2) == 1 and f3.mul(2, 2) == 1 and f3.inv(2) == 2


def test_f4_generator_square():
    # with x^2+x+1 irreducible, element 2 (= x) squares to 3 (= x+1)
    f4 = make_field(4)
    assert f4.mul(2, 2) == 3


def test_field_is_cached():
    assert make_field(5) is make_field(5)
