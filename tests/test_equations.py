"""Equation-system construction and exact rational solving."""

import random
import time
import tracemalloc
from collections import Counter
from copy import deepcopy
from dataclasses import dataclass
from fractions import Fraction

import pytest
from slow_oracles import dense_fraction_solve, object_verify

from qsteiner import subspaces
from qsteiner.counting import count_D, count_N, covering_coefficient, gaussian
from qsteiner.designs import DesignMultiset, construct_uniform_design, verify
from qsteiner.equations import (FULL_SYSTEM_GUARD, EquationSystem,
                                NonIntegralSolution, SolveOutcome, build_full,
                                build_uniform, family_system_params,
                                full_system_nonzeros, solve,
                                uniform_family_solution)
from qsteiner.subspaces import contains

# (q, m) of S_q(2,3,7;m) systems covering q = 2, odd q and the
# characteristic-2 table field q = 4
FULL_CASES = ((2, 1), (2, 2), (2, 3), (2, 4), (3, 4), (4, 3))


def residuals(system, design) -> list:
    """matrix * multiplicities - rhs of a full system at a design."""
    mults = [design.blocks.get(y, 0) for y in system.variables]
    return [sum(c * a for c, a in zip(row, mults)) - b
            for row, b in zip(system.matrix, system.rhs)]


def test_uniform_system_shape():
    us = build_uniform(2, 2, 3, 7, 4)
    assert us.subjects == (0, 1, 2)
    assert us.variables == (0, 1, 2, 3)
    us1 = build_uniform(2, 2, 3, 7, 1)
    assert us1.subjects == (0, 1) and us1.variables == (0, 1)
    # p = 1 forces s >= t-1 and r >= k-1
    us6 = build_uniform(2, 2, 3, 7, 6)
    assert us6.subjects == (1, 2) and us6.variables == (2, 3)


def test_uniform_system_coefficients_are_products():
    us = build_uniform(2, 2, 3, 7, 4)
    for s, row in zip(us.subjects, us.matrix):
        for r, coeff in zip(us.variables, row):
            if r < s:
                assert coeff == 0
            else:
                assert coeff == count_D(s, r, 4, 2) * covering_coefficient(s, 2, r, 3, 2)
        assert us.rhs[us.subjects.index(s)] == count_N(s, 4, 2, 7, 2)


def test_worked_full_example():
    """The 5-times-punctured binary system on F_2^2 has the unique
    solution (5, 40, 40, 40, 256)."""
    fs = build_full(2, 2, 3, 7, 2)
    assert len(fs.subjects) == 5 and len(fs.variables) == 5
    out = solve(fs)
    assert out.status == "unique" and out.nonneg_integer
    values = [out.assignment[y] for y in fs.variables]
    assert values == [5, 40, 40, 40, 256]


def test_uniform_pinned_solutions():
    out = solve(build_uniform(2, 2, 3, 7, 4), {0: 1})
    assert out.status == "unique" and out.nonneg_integer
    assert [out.assignment[r] for r in (0, 1, 2, 3)] == [1, 0, 4, 16]

    out = solve(build_uniform(2, 2, 3, 7, 1), {0: 45})
    assert out.status == "unique"
    assert out.assignment[1] == 336


def test_pin_of_unknown_variable():
    with pytest.raises(KeyError):
        solve(build_uniform(2, 2, 3, 7, 6), {1: 0})


def test_inconsistent_detected_exactly():
    out = solve(build_uniform(2, 2, 3, 7, 4), {0: 1, 2: 5})
    assert out.status == "inconsistent"
    assert out.assignment == {}


def test_underdetermined_full_system():
    fs = build_full(2, 2, 3, 7, 4)
    out = solve(fs)
    assert out.status == "underdetermined"
    # 51 independent equations on 66 unknowns
    assert len(out.free_keys) == len(fs.variables) - len(fs.subjects)
    # the particular solution satisfies every equation exactly
    for row, b in zip(fs.matrix, fs.rhs):
        lhs = sum(Fraction(c) * out.assignment[y]
                  for c, y in zip(row, fs.variables))
        assert lhs == b
    # each free-basis vector solves the homogeneous system exactly
    assert set(out.free_basis) == set(out.free_keys)
    for vec in out.free_basis.values():
        for row in fs.matrix:
            assert sum(Fraction(c) * vec[y]
                       for c, y in zip(row, fs.variables)) == 0


def test_free_basis_built_on_first_read():
    out = solve(build_full(2, 2, 3, 7, 4))
    assert "free_basis" not in vars(out)
    basis = out.free_basis
    assert out.free_basis is basis
    assert list(basis) == list(out.free_keys)
    # the basis is no part of the outcome's equality or repr
    assert out == SolveOutcome(out.status, out.assignment, out.free_keys,
                               out.nonneg_integer)
    assert "free_basis" not in repr(out) and "_pivot_rows" not in repr(out)


def test_free_basis_none_unless_underdetermined():
    unique = solve(build_uniform(2, 2, 3, 7, 4), {0: 1})
    inconsistent = solve(build_uniform(2, 2, 3, 7, 4), {0: 1, 2: 5})
    assert (unique.status, inconsistent.status) == ("unique", "inconsistent")
    assert unique.free_basis is None and inconsistent.free_basis is None


def test_free_basis_solves_homogeneous_system_at_odd_q():
    fs = build_full(3, 2, 3, 7, 4)
    out = solve(fs)
    assert out.status == "underdetermined" and len(out.free_keys) == 40
    assert set(out.free_basis) == set(out.free_keys)
    sparse = [[(c, y) for c, y in zip(row, fs.variables) if c] for row in fs.matrix]
    for key, vec in out.free_basis.items():
        assert list(vec) == list(fs.variables) and vec[key] == 1
        for row in sparse:
            assert sum(c * vec[y] for c, y in row) == 0


def test_solver_residuals_zero_on_uniform():
    for q, t, k, n, m, pin in ((2, 2, 3, 7, 4, 1), (3, 3, 4, 8, 4, 1)):
        us = build_uniform(q, t, k, n, m)
        out = solve(us, {0: pin})
        assert out.status == "unique"
        for row, b in zip(us.matrix, us.rhs):
            lhs = sum(Fraction(c) * out.assignment[r]
                      for c, r in zip(row, us.variables))
            assert lhs == b


def test_full_system_counts_match_lemmas():
    """Equation and variable totals per the counting lemmas, and the
    number of nonzero coefficients in every equation."""
    for q, m in FULL_CASES:
        fs = build_full(q, 2, 3, 7, m)
        params = fs.params
        assert len(fs.subjects) == sum(gaussian(m, s, q) for s in params.s_range())
        assert len(fs.variables) == sum(gaussian(m, r, q) for r in params.r_range())
        # nonzero coefficients per equation: sum over r of D_{s,r,m}
        for x, row in zip(fs.subjects, fs.matrix):
            s = x.dim
            nonzero = sum(1 for c in row if c)
            expected = sum(count_D(s, r, m, q) for r in params.r_range()
                           if r >= s and covering_coefficient(s, 2, r, 3, q))
            assert nonzero == expected


def test_full_system_coefficient_placement():
    """Every nonzero coefficient sits where ``contains`` holds and is
    the covering coefficient; with the lemma counts above, the
    placement is exact."""
    for q, m in FULL_CASES:
        fs = build_full(q, 2, 3, 7, m)
        for x, row in zip(fs.subjects, fs.matrix):
            for y, c in zip(fs.variables, row):
                if c:
                    assert contains(y, x)
                    assert c == covering_coefficient(x.dim, 2, y.dim, 3, q)


def test_full_system_across_kernel_chunks(monkeypatch):
    """A kernel chunk of 8 span entries puts one q = 3 block of
    dimension 2 or 3 in each chunk; the full system and the verifier
    must not change."""
    fs = build_full(3, 2, 3, 7, 4)
    x = uniform_family_solution("S(2,3,7;4)", 3)
    good = construct_uniform_design(3, 2, 3, 7, 4, x)
    block = next(b for b in good.blocks if b.dim == 3)
    bad = good.with_block_multiplicity(block, x[3] + 1)
    monkeypatch.setattr(subspaces, "_CHUNK", 8)
    assert build_full(3, 2, 3, 7, 4) == fs
    for design in (good, bad):
        assert verify(design) == object_verify(design)
    assert not verify(bad).ok


def test_full_system_guard():
    with pytest.raises(ValueError):
        build_full(2, 2, 3, 17, 14)


def test_full_system_nonzeros_closed_form():
    """``full_system_nonzeros`` counts the stored entries without
    building the system, and the guard admits S_2(2,3,9;8)."""
    for q, m in (*FULL_CASES, (2, 5), (2, 6)):
        fs = build_full(q, 2, 3, 7, m)
        assert full_system_nonzeros(q, 2, 3, 7, m) == sum(map(len, fs.rows))
    assert full_system_nonzeros(2, 2, 3, 7, 6) == 12369
    assert full_system_nonzeros(2, 2, 3, 9, 8) == 723265 <= FULL_SYSTEM_GUARD
    assert full_system_nonzeros(4, 2, 3, 7, 6) == 8471463 > FULL_SYSTEM_GUARD


def test_full_system_guard_refuses_before_building():
    """The refusal names the count and comes at once, before a field
    table or a Grassmannian is built."""
    for args, count in (((4, 2, 3, 7, 6), 8471463),
                        ((2, 2, 3, 17, 14), full_system_nonzeros(2, 2, 3, 17, 14))):
        tracemalloc.start()
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"would have {count} nonzero"):
            build_full(*args)
        took = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert took < 0.5 and peak < 100_000, (args, took, peak)


@pytest.mark.parametrize("q, m", (*FULL_CASES, (2, 5)))
def test_full_system_rows_are_the_nonzeros(q, m):
    """Both builders return an ``EquationSystem`` whose ``rows`` hold
    exactly the nonzero entries of ``matrix``, and no stored 0, one row
    per subject and right-hand side."""
    for build in (build_full, build_uniform):
        system = build(q, 2, 3, 7, m)
        assert type(system) is EquationSystem
        assert len(system.rows) == len(system.rhs) == len(system.subjects)
        assert len(system.matrix) == len(system.rows)
        for row, dense in zip(system.rows, system.matrix):
            assert len(dense) == len(system.variables)
            assert row == {j: c for j, c in enumerate(dense) if c}
            assert 0 not in row.values()


def test_solve_leaves_rows_unchanged():
    """Elimination works on copies: ``rows`` is the same after a solve,
    pinned or not, and after the free basis is read."""
    fs, us = build_full(2, 2, 3, 7, 4), build_uniform(2, 2, 3, 7, 4)
    for system, pins in ((fs, None), (fs, {fs.variables[0]: Fraction(1, 3),
                                           fs.variables[7]: 2}),
                         (us, None), (us, {0: 1})):
        before = deepcopy(system.rows)
        out = solve(system, pins)
        out.free_basis
        assert system.rows == before


def test_uniform_to_full_consistency():
    """A constant assignment per dimension satisfies the full system."""
    # pins giving the integral uniform solution of S_2(2,3,7;m)
    pins = {2: 5, 3: 1, 4: 1}
    for m, pin in pins.items():
        us = build_uniform(2, 2, 3, 7, m)
        uout = solve(us, {us.variables[0]: pin})
        assert uout.status == "unique" and uout.nonneg_integer
        assignment = {r: int(uout.assignment[r]) for r in us.variables}
        design = construct_uniform_design(2, 2, 3, 7, m, assignment)
        assert not any(residuals(build_full(2, 2, 3, 7, m), design))


def test_evaluate_reports_residuals_and_mismatch():
    """The verifier fails exactly the equations of the full system that
    a mutated block takes part in."""
    fs = build_full(2, 2, 3, 7, 4)
    good = construct_uniform_design(2, 2, 3, 7, 4, {0: 1, 1: 0, 2: 4, 3: 16})
    rep = verify(good)
    assert rep.ok and rep.total_multiplicity == 381

    block = next(b for b in good.blocks if b.dim == 3)
    bad = good.with_block_multiplicity(block, 15)
    rep = verify(bad)
    assert not rep.ok
    # exactly the equations for s-subspaces inside the mutated block fail,
    # each short by one covering coefficient
    for v in rep.violations:
        assert contains(block, v.subject)
        assert v.expected - v.got == covering_coefficient(v.s, 2, 3, 3, 2)
    assert len(rep.violations) == sum(
        1 for x in fs.subjects if contains(block, x)
        and covering_coefficient(x.dim, 2, 3, 3, 2))


def test_evaluate_empty_design_residuals():
    fs = build_full(2, 2, 3, 7, 2)
    empty = DesignMultiset(fs.params, {})
    rep = verify(empty)
    assert not rep.ok
    assert [v.got - v.expected for v in rep.violations] == [-b for b in fs.rhs]


def test_streaming_verifier_agrees_with_materialized_system():
    """The streaming verifier reports, in the materialized full system's
    equation order, the subject and residual of each nonzero residual
    (equations share one canonical order)."""
    good = construct_uniform_design(2, 2, 3, 7, 4, {0: 1, 1: 0, 2: 4, 3: 16})
    block = next(b for b in good.blocks if b.dim == 2)
    bad = good.with_block_multiplicity(block, 7)
    fs = build_full(2, 2, 3, 7, 4)
    for design in (good, bad):
        streamed = verify(design)
        materialized = residuals(fs, design)
        assert [(v.subject, v.got - v.expected) for v in streamed.violations] \
            == [(x, r) for x, r in zip(fs.subjects, materialized) if r]
        assert streamed.equations_checked == len(fs.rhs)
        assert streamed.ok == (not any(materialized))


# ---------------------------------------------------------------------------
# published closed forms
# ---------------------------------------------------------------------------

def test_families_match_solver():
    """Every closed-form family is the exact pinned solution of its
    uniform system, for q in {2, 3}."""
    named = ("S(2,3,7;4)", "S(3,4,8;4)", "S(4,5,11;6)", "S(5,6,12;6)")
    for q in (2, 3):
        for name in named:
            fam = uniform_family_solution(name, q)
            t, k, n, m = family_system_params(name)
            out = solve(build_uniform(q, t, k, n, m), {0: fam[0]})
            assert out.status == "unique" and out.nonneg_integer
            assert {r: int(v) for r, v in out.assignment.items()} == fam


def test_family_2_3_odd_values():
    for q in (2, 3):
        for k in (3, 7, 9):
            fam = uniform_family_solution("S(2,3,2k+1;k+1)", q, k=k)
            assert fam[0] == gaussian(k, 2, q) // gaussian(3, 2, q)
            assert fam[1] == 0
            assert fam[2] == q ** (k - 1)
            assert fam[3] == q ** (k + 1) * (q - 1)
            t, kk, n, m = family_system_params("S(2,3,2k+1;k+1)", k=k)
            out = solve(build_uniform(q, t, kk, n, m), {0: fam[0]})
            assert out.status == "unique"
            assert {r: int(v) for r, v in out.assignment.items()} == fam


def test_family_2_3_odd_at_k3_is_fano_m4():
    for q in (2, 3):
        assert (uniform_family_solution("S(2,3,2k+1;k+1)", q, k=3)
                == uniform_family_solution("S(2,3,7;4)", q))


def test_family_congruence_conditions():
    with pytest.raises(ValueError,
                       match=r"need k = 1 or 3 \(mod 6\), k >= 3, got k=5"):
        uniform_family_solution("S(2,3,2k+1;k+1)", 2, k=5)
    with pytest.raises(ValueError):
        uniform_family_solution("S(3,4,2k;k)", 2, k=5)
    with pytest.raises(ValueError):
        uniform_family_solution("S(3,4,2k;k)", 2, k=6)
    with pytest.raises(ValueError):
        uniform_family_solution("S(2,3,2k+1;k+1)", 2)
    with pytest.raises(ValueError):
        uniform_family_solution("no-such-family", 2)


def test_family_3_4_even_integral_only_at_k4():
    for q in (2, 3):
        fam = uniform_family_solution("S(3,4,2k;k)", q, k=4)
        assert fam == uniform_family_solution("S(3,4,8;4)", q)
        for k in (8, 10):
            with pytest.raises(NonIntegralSolution):
                uniform_family_solution("S(3,4,2k;k)", q, k=k)
            # the pinned uniform system still solves uniquely, just not
            # over the nonnegative integers
            out = solve(build_uniform(q, 3, 4, 2 * k, k),
                        {0: Fraction(gaussian(k, 3, q), gaussian(4, 3, q))})
            assert out.status == "unique"
            assert not out.nonneg_integer
            assert out.assignment[4].denominator > 1


def test_fano_m6_uniform_system_has_no_integral_solution():
    """The once-punctured binary q-Fano equations force X_2 = 1/31."""
    out = solve(build_uniform(2, 2, 3, 7, 6))
    assert out.status == "unique"
    assert out.assignment[2] == Fraction(1, 31)
    assert not out.nonneg_integer


# ---------------------------------------------------------------------------
# sparse fraction-free solver vs the dense Fraction oracle
# ---------------------------------------------------------------------------

def assert_same_outcome(system, pins=None):
    out = solve(system, pins)
    ref, basis = dense_fraction_solve(system, pins)
    assert out == ref
    assert list(out.assignment) == list(ref.assignment)
    assert out.free_basis == basis
    return out


def test_solve_matches_dense_oracle_on_full_systems():
    statuses = set()
    for q, m_max in ((2, 4), (3, 3)):
        for m in range(1, m_max + 1):
            statuses.add(assert_same_outcome(build_full(q, 2, 3, 7, m)).status)
    assert statuses == {"unique", "underdetermined"}
    fs = build_full(2, 2, 3, 7, 4)
    out = assert_same_outcome(fs, {fs.variables[0]: Fraction(1, 3),
                                   fs.variables[7]: 2})
    assert out.status == "underdetermined" and not out.nonneg_integer


def test_solve_matches_dense_oracle_on_pinned_uniform_systems():
    cases = (((2, 2, 3, 7, 4), {0: 1}, "unique"),
             ((2, 2, 3, 7, 4), {0: 1, 2: 5}, "inconsistent"),
             ((2, 2, 3, 7, 1), {0: 45}, "unique"),
             ((2, 2, 3, 7, 6), None, "unique"),
             ((2, 2, 3, 7, 4), {0: Fraction(1, 3)}, "unique"),
             ((3, 3, 4, 8, 4), {0: Fraction(7, 2), 3: Fraction(-5, 6)},
              "inconsistent"),
             ((2, 3, 4, 16, 8), {0: Fraction(gaussian(8, 3, 2),
                                             gaussian(4, 3, 2))}, "unique"),
             ((3, 2, 3, 7, 4), {}, "underdetermined"))
    for args, pins, status in cases:
        out = assert_same_outcome(build_uniform(*args), pins)
        assert out.status == status


@dataclass(frozen=True)
class IntegerSystem:
    """The three things ``solve`` reads from a system, ``rows`` derived
    from the dense ``matrix`` that ``slow_oracles.dense_fraction_solve``
    reads."""

    ncols: int
    matrix: tuple
    rhs: tuple

    def variable_keys(self) -> tuple:
        return tuple(f"v{j}" for j in range(self.ncols))

    @property
    def rows(self) -> tuple:
        return tuple({j: c for j, c in enumerate(row) if c} for row in self.matrix)


def random_integer_system(rng: random.Random, min_size: int = 0,
                          max_size: int = 8, entry: int = 5,
                          perturb: float = 0.1,
                          full_row: bool = False) -> IntegerSystem:
    """Rows drawn from the span of a few random augmented rows, with zero
    rows, duplicates, negative entries and the odd perturbed right-hand
    side mixed in.  There are at least min_size rows, columns and
    spanning rows, as far as the rows and columns allow.

    With ``full_row`` the spanning rows hold two or three unknowns each,
    mostly at coefficients other than 1, a drawn row is a multiple of
    one of them or the sum of multiples of two, so entries cancel, and
    one row holding every unknown goes in among them: elimination
    clears it by one pivot row after another."""
    nrows, ncols = rng.randint(min_size, max_size), rng.randint(min_size, max_size)
    nbasis = rng.randint(min(min_size, nrows, ncols), min(nrows, ncols) + 1)
    if full_row:
        basis = []
        for _ in range(nbasis):
            row = [0] * ncols + [rng.randint(-entry, entry)]
            for j in rng.sample(range(ncols), min(ncols, rng.randint(2, 3))):
                row[j] = rng.choice((-1, 1)) * rng.randint(1, entry)
            basis.append(row)
    else:
        basis = [[rng.randint(-entry, entry) for _ in range(ncols + 1)]
                 for _ in range(nbasis)]
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15 or not basis:
            row = [0] * (ncols + 1)
        elif kind < 0.3 and rows:
            row = list(rng.choice(rows))
        else:
            row = [0] * (ncols + 1)
            for b in (rng.sample(basis, min(len(basis), rng.randint(1, 2)))
                      if full_row else basis):
                c = rng.randint(-3, 3)
                row = [x + c * y for x, y in zip(row, b)]
        if rng.random() < perturb:
            row[-1] += rng.choice((-1, 1))
        rows.append(row)
    if full_row and ncols:
        row = [rng.choice((-1, 1)) * rng.randint(1, entry) for _ in range(ncols)]
        rows.insert(rng.randint(0, len(rows)), row + [rng.randint(-entry, entry)])
    return IntegerSystem(ncols, tuple(tuple(r[:-1]) for r in rows),
                         tuple(r[-1] for r in rows))


def test_solve_matches_dense_oracle_on_random_integer_systems():
    rng = random.Random(20151028)
    for full_row in (False, True):
        statuses = Counter()
        for _ in range(400):
            system = random_integer_system(rng, full_row=full_row)
            pins = None
            if system.ncols and rng.random() < 0.4:
                keys = system.variable_keys()
                pins = {kk: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                        for kk in rng.sample(keys, rng.randint(1, len(keys)))}
            statuses[assert_same_outcome(system, pins).status] += 1
        assert set(statuses) == {"unique", "underdetermined", "inconsistent"}
        assert min(statuses.values()) > 20, (full_row, statuses)


@dataclass(frozen=True)
class SparseSystem:
    """``rows``, ``rhs`` and ``variable_keys()`` with no dense view, for
    systems too large to hold one."""

    rows: tuple
    rhs: tuple

    def variable_keys(self) -> tuple:
        return tuple(range(len(self.rows)))


def test_solve_time_follows_the_pivot_rows():
    """One row over all 20,000 unknowns, cleared by 19,999 pivot rows
    x_i - x_{i+1} = -1 in turn, each of two unknowns: the unique answer
    is x_i = i + 1.  Elimination that reads the long row to find its
    next pivot column, or to take its content, after every clear is
    quadratic in it and takes seconds here."""
    n = 20000
    rows = (*({i: 1, i + 1: -1} for i in range(n - 1)), dict.fromkeys(range(n), 1))
    system = SparseSystem(rows, (*[-1] * (n - 1), n * (n + 1) // 2))
    start = time.perf_counter()
    out = solve(system)
    took = time.perf_counter() - start
    assert out.status == "unique" and out.free_keys == ()
    assert out.assignment == {i: i + 1 for i in range(n)}
    assert took < 1, took


def test_solve_matches_dense_oracle_on_larger_random_systems():
    """Up to 14 columns and entries up to 9 in size, so that the
    substitution chains through long runs of fractions."""
    rng = random.Random(20160318)
    statuses = Counter()
    for _ in range(150):
        system = random_integer_system(rng, min_size=8, max_size=14, entry=9,
                                       perturb=0.03)
        pins = None
        if system.ncols and rng.random() < 0.4:
            keys = system.variable_keys()
            pins = {kk: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                    for kk in rng.sample(keys, rng.randint(1, min(3, len(keys))))}
        statuses[assert_same_outcome(system, pins).status] += 1
    assert set(statuses) == {"unique", "underdetermined", "inconsistent"}
    assert min(statuses.values()) > 5


def test_substitution_chains_through_fractions():
    """Echelon rows that forward elimination leaves as they are: each
    value is divided out from the values after it, in fractions where
    the division is not exact, with or without pins."""
    out = assert_same_outcome(IntegerSystem(2, ((2, 1), (0, 3)), (1, 1)))
    assert out.status == "unique"
    assert out.assignment == {"v0": Fraction(1, 3), "v1": Fraction(1, 3)}
    # v2 = 1/2 leaves 2 v0 + v1 = 1 and 3 v1 = 3/2
    out = assert_same_outcome(IntegerSystem(3, ((2, 1, 4), (0, 3, 1)), (3, 2)),
                              {"v2": Fraction(1, 2)})
    assert out.assignment == {"v2": Fraction(1, 2), "v0": Fraction(1, 4),
                              "v1": Fraction(1, 2)}
    # exact divisions all the way up
    out = assert_same_outcome(IntegerSystem(3, ((2, 4, 6), (0, 3, 3), (0, 0, 5)),
                                            (28, 15, 15)))
    assert out.assignment == {"v0": 1, "v1": 2, "v2": 3}
    for out in (out, solve(build_uniform(2, 2, 3, 7, 6))):
        assert all(type(v) is Fraction for v in out.assignment.values())


def test_free_basis_leaves_outcome_and_echelon_rows_unchanged():
    fs = build_full(2, 2, 3, 7, 4)
    out = solve(fs)
    assignment, pivot_rows = dict(out.assignment), deepcopy(out._pivot_rows)
    basis = out.free_basis
    assert out.assignment == assignment and out._pivot_rows == pivot_rows
    # a second reduction of the same rows, and a second solve, agree
    assert SolveOutcome.free_basis.func(out) == basis
    assert solve(fs).free_basis == basis
