#!/usr/bin/env python3
"""Constructing punctured systems and driving the streaming verifier:
the uniform designs, the explicit S_q(3,4,8;5), the four-type
S_q(2,3,7;5), the recursive construction, and the puncture chain."""

from qsteiner import (build_parallelism, construct_uniform_design,
                      fano_m5_families, puncture_design, recursive_families,
                      s3485_families, verify)


def status(label, design):
    rep = verify(design)
    hist = dict(sorted(design.dimension_totals().items()))
    print(f"  {label}: {'PASS' if rep.ok else 'FAIL'} "
          f"({rep.equations_checked} equations, "
          f"total {rep.total_multiplicity}, by dimension {hist})")
    return design


print("== Uniform designs from the solved systems ==")
m4 = status("S_2(2,3,7;4)  (1,0,4,16)",
            construct_uniform_design(2, 2, 3, 7, 4, {0: 1, 1: 0, 2: 4, 3: 16}))
status("S_3(2,3,7;4)  (1,0,9,162)",
       construct_uniform_design(3, 2, 3, 7, 4, {0: 1, 1: 0, 2: 9, 3: 162}))
status("S_2(3,4,8;4)  (1,0,20,240,2176)",
       construct_uniform_design(2, 3, 4, 8, 4, {0: 1, 1: 0, 2: 20, 3: 240, 4: 2176}))

print()
print("== The explicit six-part S_2(3,4,8;5) ==")
d85 = status("S_2(3,4,8;5)", s3485_families(2).design())
status("punctured to m=4", puncture_design(d85))

print()
print("== The four-type S_2(2,3,7;5) from a parallelism of F_2^4 ==")
para = build_parallelism(2, 4)
print(f"  parallelism found by search: {len(para.spreads)} spreads of "
      f"{len(para.spreads[0].lines)} lines")
m5 = status("S_2(2,3,7;5)", fano_m5_families(2, para).design())

print()
print("== The recursive construction at k = 3 gives the same parameters ==")
base = construct_uniform_design(2, 2, 3, 3, 1, {1: 1})
rec = status("recursive S_2(2,3,7;5)", recursive_families(2, 3, para, base).design())
print("  both m=5 designs puncture to the SAME uniform m=4 design:",
      puncture_design(m5) == puncture_design(rec) == m4)
print("  as multisets they differ (the spread-set split is arbitrary):",
      m5 != rec)

print()
print("== Puncture chain down to one coordinate ==")
cur = m5
while cur.params.m > 1:
    cur = puncture_design(cur)
    rep = verify(cur)
    print(f"  m={cur.params.m}: {'PASS' if rep.ok else 'FAIL'}, "
          f"by dimension {dict(sorted(cur.dimension_totals().items()))}")

print()
print("== The verifier is a real gate ==")
block = next(b for b in m4.blocks if b.dim == 3)
broken = m4.with_block_multiplicity(block, m4.blocks[block] - 1)
rep = verify(broken)
v = rep.violations[0]
print(f"  lowering one multiplicity 16 -> 15: verify "
      f"{'PASS' if rep.ok else 'FAIL'} "
      f"({len(rep.violations)} equations off, first: s={v.s}, "
      f"got {v.got} expected {v.expected})")
