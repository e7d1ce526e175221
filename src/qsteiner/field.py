"""Lookup-table arithmetic for the small finite fields F_q, q <= 16.

Elements are encoded as integers ``0..q-1``.  For q = p^e the integer i
encodes the polynomial whose coefficients are the base-p digits of i
(digit j is the coefficient of x^j), reduced modulo a fixed irreducible
polynomial.  A prime field is F_p[x]/(x), so its code is the residue
itself; the other orders use

    F_4  : x^2 + x + 1
    F_8  : x^3 + x + 1
    F_9  : x^2 + 1
    F_16 : x^4 + x + 1

The polynomials are fixed so that element codes are stable across runs
and across serialized files.  All arithmetic is table lookup after
construction; a GF instance is immutable and safe to share.
"""

from __future__ import annotations

from functools import lru_cache

# Irreducible polynomial per order, as (p, e, coefficients), coefficient j
# belonging to x^j; a prime order p takes x.
_IRREDUCIBLE = {
    **{p: (p, 1, (0, 1)) for p in (2, 3, 5, 7, 11, 13)},
    4: (2, 2, (1, 1, 1)),
    8: (2, 3, (1, 1, 0, 1)),
    9: (3, 2, (1, 0, 1)),
    16: (2, 4, (1, 1, 0, 0, 1)),
}

SUPPORTED_ORDERS = tuple(sorted(_IRREDUCIBLE))


def _poly_mul_mod(a: tuple, b: tuple, mod: tuple, p: int) -> tuple:
    """Multiply two coefficient tuples and reduce modulo ``mod`` over F_p."""
    e = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce: mod is monic of degree e
    for d in range(len(prod) - 1, e - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j in range(e):
                prod[d - e + j] = (prod[d - e + j] - c * mod[j]) % p
    return tuple(prod[:e])


class GF:
    """The finite field F_q with full precomputed operation tables.

    Attributes
    ----------
    q : int
        Field order.
    p : int
        Characteristic.
    e : int
        Extension degree (q = p^e).
    add_table, mul_table : tuple of tuples
        q x q element tables.
    inv_table : tuple
        Multiplicative inverses; entry 0 is unused (set to 0).
    """

    __slots__ = ("q", "p", "e", "add_table", "mul_table", "inv_table",
                 "neg_table", "sub_table")

    def __init__(self, q: int) -> None:
        if q not in _IRREDUCIBLE:
            raise ValueError(
                f"unsupported field order {q}; supported: {SUPPORTED_ORDERS}")
        p, e, mod = _IRREDUCIBLE[q]

        def digits(i: int) -> tuple:
            return tuple((i // p**j) % p for j in range(e))

        def code(coeffs: tuple) -> int:
            return sum(c * p**j for j, c in enumerate(coeffs))

        add = tuple(
            tuple(code(tuple((x + y) % p for x, y in zip(digits(a), digits(b))))
                  for b in range(q))
            for a in range(q))
        mul = tuple(
            tuple(code(_poly_mul_mod(digits(a), digits(b), mod, p))
                  for b in range(q))
            for a in range(q))

        self.q = q
        self.p = p
        self.e = e
        self.add_table = add
        self.mul_table = mul
        # inverses by exhaustive search (q <= 16)
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a][b] == 1:
                    inv[a] = b
                    break
            else:
                raise ArithmeticError(f"element {a} has no inverse in F_{q}")
        self.inv_table = tuple(inv)
        neg = [0] * q
        for a in range(q):
            for b in range(q):
                if add[a][b] == 0:
                    neg[a] = b
                    break
        self.neg_table = tuple(neg)
        self.sub_table = tuple(tuple(add[a][neg[b]] for b in range(q))
                               for a in range(q))

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.sub_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises for zero."""
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.inv_table[a]

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def __reduce__(self):
        return (make_field, (self.q,))


@lru_cache(maxsize=None)
def make_field(q: int) -> GF:
    """Return the (cached, immutable) field F_q for a supported order q."""
    return GF(q)
