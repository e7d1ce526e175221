"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Every expected value is exact; the timing limits are part of the
criteria and asserted alongside the values.
"""

import time
from fractions import Fraction
from functools import lru_cache

from qsteiner.counting import (ORACLE_GUARD, count_C, count_D, count_N,
                               gaussian, necessary_conditions, oracle_C,
                               oracle_D, oracle_N)
from qsteiner.designs import (apply_transform, build_parallelism, build_spread,
                              construct_uniform_design, fano_m5_families,
                              puncture_design, puncture_steiner,
                              recursive_families, s3485_families, verify)
from qsteiner.equations import (NonIntegralSolution, build_full, build_uniform,
                                family_system_params, solve,
                                uniform_family_solution)
from qsteiner.field import make_field
from qsteiner.subspaces import enumerate_subspaces, subspaces_within


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@lru_cache(maxsize=None)
def parallelism_2_4():
    return build_parallelism(2, 4)


@lru_cache(maxsize=None)
def fano_m5_design():
    return fano_m5_families(2, parallelism_2_4()).design()


def test_criterion_1_formula_vs_oracle():
    """count_N / count_C / count_D equal their brute-force oracles on
    every legal tuple with q in {2,3}, n <= 7, k <= 4 (extension
    dimensions swept up to t = 4, block dimensions r <= 4 on ambients
    m <= 6), and count_D on every tuple with q = 2, m <= 9."""
    t0 = time.perf_counter()
    checked = 0
    for q in (2, 3):
        for n in range(2, 8):
            for t in range(0, min(n, 4) + 1):
                if gaussian(n, t, q) > ORACLE_GUARD:
                    continue
                for m in range(1, n):
                    for s in range(max(0, t - (n - m)), min(t, m) + 1):
                        assert count_N(s, m, t, n, q) == oracle_N(s, m, t, n, q), \
                            (s, m, t, n, q)
                        checked += 1
        for k in range(1, 5):
            for t in range(0, k):
                for s in range(0, t + 1):
                    for r in range(s, k - t + s + 1):
                        assert count_C(s, t, r, k, q) == oracle_C(s, t, r, k, q), \
                            (s, t, r, k, q)
                        checked += 1
        for m in range(1, 7):
            for r in range(0, min(m, 4) + 1):
                for s in range(0, r + 1):
                    assert count_D(s, r, m, q) == oracle_D(s, r, m, q), \
                        (s, r, m, q)
                    checked += 1
    # the D oracle sums pivot cells and lists no Grassmannian, so at
    # q = 2 it takes every tuple up to the 3,309,747 4-subspaces of F_2^9
    for m in range(1, 10):
        for r in range(0, m + 1):
            for s in range(0, r + 1):
                assert count_D(s, r, m, 2) == oracle_D(s, r, m, 2), (s, r, m)
                checked += 1
    assert count_N(2, 5, 3, 7, 2) == oracle_N(2, 5, 3, 7, 2) == 12
    assert count_C(2, 2, 2, 3, 2) == oracle_C(2, 2, 2, 3, 2) == 4
    assert count_D(2, 4, 9, 2) == oracle_D(2, 4, 9, 2) == 2667
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 120,
           f"{checked} tuples formula == oracle, anchors N=12, C=4 and "
           f"D=2667, {elapsed:.1f}s (< 120s)")


def test_criterion_2_worked_full_system():
    t0 = time.perf_counter()
    system = build_full(2, 2, 3, 7, 2)
    out = solve(system)
    values = [out.assignment[y] for y in system.variables]
    elapsed = time.perf_counter() - t0
    ok = (out.status == "unique" and values == [5, 40, 40, 40, 256]
          and elapsed < 1.0)
    report(2, ok, f"(a_X,a_Y,a_Z,a_U,a_V) = {[int(v) for v in values]}, "
                  f"{elapsed * 1000:.0f}ms (< 1s)")


def test_criterion_3_uniform_solutions():
    t0 = time.perf_counter()
    named = ("S(2,3,7;4)", "S(3,4,8;4)", "S(4,5,11;6)", "S(5,6,12;6)")
    solved = 0
    for q in (2, 3):
        for name in named:
            fam = uniform_family_solution(name, q)
            t, k, n, m = family_system_params(name)
            out = solve(build_uniform(q, t, k, n, m), {0: fam[0]})
            assert out.status == "unique" and out.nonneg_integer, (name, q)
            assert {r: int(v) for r, v in out.assignment.items()} == fam, (name, q)
            solved += 1
        assert uniform_family_solution("S(2,3,7;4)", q) == {
            0: 1, 1: 0, 2: q ** 2, 3: q ** 4 * (q - 1)}
        assert uniform_family_solution("S(3,4,8;4)", q) == {
            0: 1, 1: 0, 2: q ** 2 * (q ** 2 + 1), 3: q ** 4 * (q ** 4 - 1),
            4: q ** 12 - q ** 11 + q ** 7}
        for k in (3, 7, 9):
            fam = uniform_family_solution("S(2,3,2k+1;k+1)", q, k=k)
            out = solve(build_uniform(q, 2, 3, 2 * k + 1, k + 1), {0: fam[0]})
            assert out.status == "unique" and out.nonneg_integer
            assert {r: int(v) for r, v in out.assignment.items()} == fam, (q, k)
            solved += 1
        # the even family is integral only at k = 4
        assert (uniform_family_solution("S(3,4,2k;k)", q, k=4)
                == uniform_family_solution("S(3,4,8;4)", q))
        for k in (8, 10):
            rejected = False
            try:
                uniform_family_solution("S(3,4,2k;k)", q, k=k)
            except NonIntegralSolution:
                rejected = True
            assert rejected, (q, k)
            out = solve(build_uniform(q, 3, 4, 2 * k, k),
                        {0: Fraction(gaussian(k, 3, q), gaussian(4, 3, q))})
            assert out.status == "unique" and not out.nonneg_integer
            solved += 1
    elapsed = time.perf_counter() - t0
    report(3, elapsed < 10,
           f"{solved} pinned systems match the published closed forms, "
           f"k in {{8,10}} rejected as non-integral, {elapsed:.1f}s (< 10s)")


def test_criterion_4_constructed_designs_verify():
    base = construct_uniform_design(2, 2, 3, 3, 1, {1: 1})
    designs = [
        ("uniform S_2(2,3,7;4)",
         lambda: construct_uniform_design(2, 2, 3, 7, 4, {0: 1, 1: 0, 2: 4, 3: 16}),
         381),
        ("uniform S_2(3,4,8;4)",
         lambda: construct_uniform_design(2, 3, 4, 8, 4,
                                          {0: 1, 1: 0, 2: 20, 3: 240, 4: 2176}),
         6477),
        ("explicit S_2(3,4,8;5)", lambda: s3485_families(2).design(), 6477),
        ("four-type S_2(2,3,7;5)", fano_m5_design, 381),
        ("recursive S_2(2,3,7;5)",
         lambda: recursive_families(2, 3, parallelism_2_4(), base).design(), 381),
    ]
    details = []
    for label, make, total in designs:
        design = make()
        t0 = time.perf_counter()
        rep = verify(design)
        elapsed = time.perf_counter() - t0
        assert rep.ok, label
        assert rep.total_multiplicity == total, label
        assert elapsed < 30, label
        details.append(f"{label} ({total} blocks, {elapsed * 1000:.0f}ms)")
    report(4, True, "; ".join(details) + "; each < 30s")


def test_criterion_5_puncture_closure_chain():
    t0 = time.perf_counter()
    design = fano_m5_design()
    assert verify(design).ok
    for m in (4, 3, 2, 1):
        design = puncture_design(design)
        assert design.params.m == m
        assert verify(design).ok, f"chain failed at m={m}"
    totals = design.dimension_totals()
    elapsed = time.perf_counter() - t0
    ok = totals == {0: 45, 1: 336} and elapsed < 10
    report(5, ok, f"m=5 chain verified down to m=1 with class totals "
                  f"{totals[0]}, {totals[1]} (336+45*7 = 651), "
                  f"{elapsed:.1f}s (< 10s)")


def test_criterion_6_derived_spread_puncture():
    t0 = time.perf_counter()
    for q, n in ((2, 4), (2, 6), (3, 4)):
        field = make_field(q)
        design, sub = puncture_steiner(build_spread(q, n))
        assert len(sub.blocks) == 1, (q, n)
        special = sub.blocks[0]
        cover = {}
        for b, mult in design.blocks.items():
            if b.dim != 2:
                continue
            for x in subspaces_within(b, 1):
                cover[x] = cover.get(x, 0) + mult
        for x in enumerate_subspaces(field, n - 1, 1):
            want = 0 if x == special else q
            assert cover.get(x, 0) == want, (q, n, x)
    elapsed = time.perf_counter() - t0
    report(6, elapsed < 5,
           f"spreads (2,4),(2,6),(3,4): one lowered image, q appearances "
           f"of every other 1-subspace, {elapsed:.1f}s (< 5s)")


def test_criterion_7_necessary_condition_gate():
    for q in (2, 3, 4):
        assert necessary_conditions(2, 3, 7, q).ok, q
    assert not necessary_conditions(2, 3, 8, 2).ok
    rep = necessary_conditions(2, 3, 8, 2)
    assert not rep.entries[0].divides
    for q in (2, 3, 4):
        for k in (2, 3, 4, 5):
            assert necessary_conditions(1, 2, 2 * k, q).ok, (q, k)
    report(7, True, "(2,3,7,q) passes for q in {2,3,4}; (2,3,8,2) fails at "
                    "i=0; spread parameters pass")


def test_criterion_8_spreads_and_parallelism():
    for q, n in ((2, 4), (2, 6), (3, 4)):
        spread = build_spread(q, n)   # partition checked on construction
        assert len(spread.lines) == (q ** n - 1) // (q * q - 1), (q, n)
    t0 = time.perf_counter()
    para = build_parallelism(2, 4)
    elapsed = time.perf_counter() - t0
    lines = {line for sp in para.spreads for line in sp.lines}
    ok = (len(para.spreads) == 7 and len(lines) == 35 and elapsed < 5)
    report(8, ok, f"spreads verified for (2,4),(2,6),(3,4); parallelism of "
                  f"F_2^4 = 7 disjoint spreads / 35 lines in "
                  f"{elapsed * 1000:.0f}ms (< 5s)")


def test_criterion_9_negative_controls():
    import random
    design = construct_uniform_design(2, 2, 3, 7, 4, {0: 1, 1: 0, 2: 4, 3: 16})
    assert verify(design).ok
    flipped = 0
    for block in design.blocks:
        up = design.with_block_multiplicity(block, design.blocks[block] + 1)
        assert not verify(up).ok, block
        down = design.with_block_multiplicity(block, design.blocks[block] - 1)
        assert not verify(down).ok, block
        flipped += 2
    rng = random.Random(90125)
    current = design
    for i in range(100):
        j = rng.randrange(4)
        coeffs = [rng.randrange(2) for _ in range(4)]
        coeffs[j] = 1
        current = apply_transform(current, [(j, tuple(coeffs))])
        assert verify(current).ok, f"transform {i} flipped a pass to fail"
    report(9, True, f"{flipped} single-multiplicity mutations all fail; "
                    f"100 random column transforms never flip a pass")
