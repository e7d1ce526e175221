#!/usr/bin/env python3
"""Spreads as q-Steiner systems S_q(1,2,n), parallelisms, what one
puncture does to a Steiner system, and column transforms."""

import random

from qsteiner import (apply_transform, build_parallelism, build_spread,
                      distinctness_check, puncture_steiner, verify,
                      verify_steiner)
from qsteiner.files import packaged_parallelism_path, parse_parallelism_file

print("== Spreads: partitions of the nonzero vectors into lines ==")
for q, n in ((2, 4), (2, 6), (3, 4)):
    sp = build_spread(q, n)
    print(f"  F_{q}^{n}: {len(sp.lines)} lines "
          f"(= (q^n-1)/(q^2-1)), Steiner check: "
          f"{verify_steiner(sp)}")

print()
print("== Puncturing a Steiner system once ==")
print("The blocks through the last unit vector drop a dimension and form")
print("the derived system; every other t-subspace is covered q^t times:")
for q, n in ((2, 4), (2, 6), (3, 4)):
    design, derived = puncture_steiner(build_spread(q, n))
    print(f"  spread of F_{q}^{n}: {len(derived.blocks)} lowered image, "
          f"{sum(m for b, m in design.blocks.items() if b.dim == 2)} "
          f"full-dimension images, all distinct: {distinctness_check(design)}")

print()
print("== Parallelisms ==")
for n in (4, 6):
    para = build_parallelism(2, n)
    spreads, lines = len(para.spreads), len(para.spreads[0].lines)
    print(f"  F_2^{n} by orbit search: {spreads} spreads x {lines} lines "
          f"= {spreads * lines} = [{n} choose 2]_2")
big = parse_parallelism_file(packaged_parallelism_path(3, 4))
print(f"  F_3^4 from the packaged file: {len(big.spreads)} spreads x "
      f"{len(big.spreads[0].lines)} lines (verified on load)")

print()
print("== Column transforms preserve everything ==")
st = build_spread(2, 4)
swapped = apply_transform(st, [(0, (1, 1, 0, 0))] * 3)
print(f"  spread after three column-0 <- column-0 + column-1 ops: "
      f"Steiner check {verify_steiner(swapped)}")

from qsteiner import construct_uniform_design
design = construct_uniform_design(2, 2, 3, 7, 4, {0: 1, 1: 0, 2: 4, 3: 16})
rng = random.Random(5)
ok = True
for _ in range(100):
    j = rng.randrange(4)
    coeffs = [rng.randrange(2) for _ in range(4)]
    coeffs[j] = 1
    design = apply_transform(design, [(j, tuple(coeffs))])
    ok = ok and verify(design).ok
print(f"  100 random column operations on S_2(2,3,7;4): all verified: {ok}")
