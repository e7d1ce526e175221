"""Counting-equation systems for punctured q-Steiner systems and their
exact rational solution.

Two flavours are built.  The uniform system has one equation per
covered dimension s and one unknown X_r per block dimension r, with
coefficient D_{s,r,m} * C_{(s,t),(r,k)}.  The full system has one
equation per s-subspace X of F_q^m and one unknown a_Y per r-subspace
Y, with coefficient C_{(s,t),(r,k)} when X <= Y and 0 otherwise.  All
arithmetic is exact: coefficients are integers, elimination runs over
``fractions.Fraction``, and a solution is only ever reported when it
satisfies every equation exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .counting import count_D, count_N, covering_coefficient, gaussian
from .designs import (DesignMultiset, DesignParams, EquationViolation,
                      VerificationReport)
from .field import make_field
from .subspaces import contains, enumerate_subspaces

# Largest number of equations a materialized full system may have.
FULL_SYSTEM_GUARD = 10 ** 5


class NonIntegralSolution(ValueError):
    """A closed-form family evaluates to a non-integer multiplicity."""


@dataclass(frozen=True)
class UniformSystem:
    """One equation per covered dimension s, one unknown X_r per block
    dimension r."""

    params: DesignParams
    s_values: tuple
    r_values: tuple
    matrix: tuple          # row s -> tuple of integer coefficients over r_values
    rhs: tuple

    def variable_keys(self) -> tuple:
        return self.r_values

    def rows(self) -> tuple:
        return self.matrix


@dataclass(frozen=True)
class FullSystem:
    """One equation per s-subspace, one unknown a_Y per r-subspace."""

    params: DesignParams
    subjects: tuple        # s-subspaces, canonical order, dims ascending
    variables: tuple       # r-subspaces, canonical order, dims ascending
    matrix: tuple          # integer coefficient rows aligned with variables
    rhs: tuple

    def variable_keys(self) -> tuple:
        return self.variables

    def rows(self) -> tuple:
        return self.matrix


@dataclass(frozen=True)
class SolveOutcome:
    """Result of exact elimination: unique / underdetermined /
    inconsistent, the assignment (a particular solution when
    underdetermined), and whether it is entirely nonnegative integers.

    For underdetermined systems ``free_basis[key]`` is the homogeneous
    solution with that free variable set to 1, so the full solution set
    is the assignment plus any rational combination of the basis.
    """

    status: str
    assignment: dict
    free_keys: tuple
    nonneg_integer: bool
    free_basis: dict | None = None


def build_uniform(q: int, t: int, k: int, n: int, m: int) -> UniformSystem:
    """The uniform equation system for S_q(t,k,n;m)."""
    params = DesignParams(q, t, k, n, m)
    s_values = tuple(params.s_range())
    r_values = tuple(params.r_range())
    matrix = []
    rhs = []
    for s in s_values:
        row = tuple(count_D(s, r, m, q) * covering_coefficient(s, t, r, k, q)
                    if r >= s else 0
                    for r in r_values)
        matrix.append(row)
        rhs.append(count_N(s, m, t, n, q))
    return UniformSystem(params, s_values, r_values, tuple(matrix), tuple(rhs))


def build_full(q: int, t: int, k: int, n: int, m: int) -> FullSystem:
    """The per-subspace equation system for S_q(t,k,n;m).

    Guarded: systems beyond FULL_SYSTEM_GUARD equations must be checked
    with the streaming verifier instead of being materialized.
    """
    params = DesignParams(q, t, k, n, m)
    n_eq = sum(gaussian(m, s, q) for s in params.s_range())
    if n_eq > FULL_SYSTEM_GUARD:
        raise ValueError(f"full system would have {n_eq} equations "
                         f"(> {FULL_SYSTEM_GUARD}); use the streaming verifier")
    field = make_field(q)
    subjects = [x for s in params.s_range()
                for x in enumerate_subspaces(field, m, s)]
    variables = [y for r in params.r_range()
                 for y in enumerate_subspaces(field, m, r)]
    matrix = []
    rhs = []
    for x in subjects:
        s = x.dim
        coeffs = []
        for y in variables:
            c = covering_coefficient(s, t, y.dim, k, q)
            coeffs.append(c if c and contains(y, x) else 0)
        matrix.append(tuple(coeffs))
        rhs.append(count_N(s, m, t, n, q))
    return FullSystem(params, tuple(subjects), tuple(variables),
                      tuple(matrix), tuple(rhs))


def solve(system, pins: dict | None = None) -> SolveOutcome:
    """Exact Gaussian elimination after substituting the pinned values.

    Returns the full assignment (pins included).  When underdetermined,
    the assignment is the particular solution with all free variables
    set to zero and ``free_keys`` names them.
    """
    pins = dict(pins or {})
    keys = list(system.variable_keys())
    key_index = {kk: i for i, kk in enumerate(keys)}
    for kk in pins:
        if kk not in key_index:
            raise KeyError(f"pin for unknown variable {kk!r}")
    free_positions = [i for i, kk in enumerate(keys) if kk not in pins]
    aug = []
    for row, b in zip(system.rows(), system.rhs):
        rhs_val = Fraction(b)
        for kk, val in pins.items():
            rhs_val -= Fraction(row[key_index[kk]]) * Fraction(val)
        aug.append([Fraction(row[i]) for i in free_positions] + [rhs_val])

    ncol = len(free_positions)
    pivot_cols = []
    rank = 0
    for col in range(ncol):
        # smallest-numerator pivot keeps the fraction growth down
        cands = [i for i in range(rank, len(aug)) if aug[i][col] != 0]
        if not cands:
            continue
        pr = min(cands, key=lambda i: (abs(aug[i][col].numerator),
                                       aug[i][col].denominator))
        aug[rank], aug[pr] = aug[pr], aug[rank]
        lead = aug[rank][col]
        if lead != 1:
            aug[rank] = [x / lead for x in aug[rank]]
        prow = aug[rank]
        for i in range(len(aug)):
            if i != rank and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], prow)]
        pivot_cols.append(col)
        rank += 1

    for i in range(rank, len(aug)):
        if aug[i][-1] != 0:
            return SolveOutcome("inconsistent", {}, (), False)

    assignment = {kk: Fraction(v) for kk, v in pins.items()}
    free_cols = [c for c in range(ncol) if c not in pivot_cols]
    # particular solution: free variables fixed to zero
    values = [Fraction(0)] * ncol
    for i, col in enumerate(pivot_cols):
        values[col] = aug[i][-1]
    for c in range(ncol):
        assignment[keys[free_positions[c]]] = values[c]
    status = "unique" if not free_cols else "underdetermined"
    free_keys = tuple(keys[free_positions[c]] for c in free_cols)
    free_basis = None
    if free_cols:
        free_basis = {}
        for fc in free_cols:
            vec = {kk: Fraction(0) for kk in keys if kk not in pins}
            vec[keys[free_positions[fc]]] = Fraction(1)
            for i, col in enumerate(pivot_cols):
                vec[keys[free_positions[col]]] = -aug[i][fc]
            free_basis[keys[free_positions[fc]]] = vec
    nonneg = all(v.denominator == 1 and v >= 0 for v in assignment.values())
    return SolveOutcome(status, assignment, free_keys, nonneg, free_basis)


def evaluate(system: FullSystem, design: DesignMultiset) -> VerificationReport:
    """Substitute a design's multiplicities into the full system and
    report the per-equation residuals (lhs - rhs)."""
    if system.params != design.params:
        raise ValueError(f"system {system.params} does not match design "
                         f"{design.params}")
    r_rng = design.params.r_range()
    bad_dims = tuple((b, b.dim) for b in design.blocks if b.dim not in r_rng)
    mults = {y: design.blocks.get(y, 0) for y in system.variables}
    residuals = []
    violations = []
    for x, row, b in zip(system.subjects, system.matrix, system.rhs):
        lhs = sum(c * mults[y] for c, y in zip(row, system.variables) if c)
        residuals.append(lhs - b)
        if lhs != b:
            violations.append(EquationViolation(x.dim, x, lhs, b))
    ok = not violations and not bad_dims
    return VerificationReport(ok, len(system.subjects), tuple(violations),
                              bad_dims, design.total_multiplicity(),
                              residuals=tuple(residuals))


# ---------------------------------------------------------------------------
# Published closed-form uniform solutions
# ---------------------------------------------------------------------------

def _family_2_3_odd(q: int, k: int) -> dict:
    if k < 3 or k % 6 not in (1, 3):
        raise ValueError(f"family S_q(2,3,2k+1;k+1) needs k = 1 or 3 (mod 6), "
                         f"k >= 3, got k={k}")
    x0 = Fraction(gaussian(k, 2, q), gaussian(3, 2, q))
    return {0: x0, 1: Fraction(0), 2: Fraction(q ** (k - 1)),
            3: Fraction(q ** (k + 1) * (q - 1))}


def _family_3_4_even(q: int, k: int) -> dict:
    if k < 4 or k % 6 not in (2, 4):
        raise ValueError(f"family S_q(3,4,2k;k) needs k = 2 or 4 (mod 6), "
                         f"k >= 4, got k={k}")
    x0 = Fraction(gaussian(k, 3, q), gaussian(4, 3, q))
    x2 = Fraction(q ** (k - 2) * (q ** k - 1), q ** 2 - 1)
    x4 = Fraction((q ** (3 * k) - q ** (2 * k + 3) + q ** (k + 3)) * (q - 1),
                  q ** (k - 3) - 1)
    return {0: x0, 1: Fraction(0), 2: x2, 3: Fraction(q ** k * (q ** k - 1)),
            4: x4}


def _closed_forms(name: str, q: int, k: int | None) -> dict:
    if name == "S(2,3,2k+1;k+1)":
        if k is None:
            raise ValueError(f"family {name} needs the parameter k")
        return _family_2_3_odd(q, k)
    if name == "S(3,4,2k;k)":
        if k is None:
            raise ValueError(f"family {name} needs the parameter k")
        return _family_3_4_even(q, k)
    if name == "S(2,3,7;4)":
        return _family_2_3_odd(q, 3)
    if name == "S(3,4,8;4)":
        return _family_3_4_even(q, 4)
    if name == "S(4,5,11;6)":
        return {0: Fraction(1), 1: Fraction(0),
                2: Fraction(q ** 2 * (q ** 2 + 1)),
                3: Fraction(q ** 9 + q ** 7 - q ** 4),
                4: Fraction(q ** 14 - q ** 9 + q ** 7),
                5: Fraction((q ** 18 + q ** 11) * (q - 1))}
    if name == "S(5,6,12;6)":
        # the s=1 equation forces X_2 = q^2 [6 4]_q / [5 1]_q = q^2(q^4+q^2+1)
        return {0: Fraction(1), 1: Fraction(0),
                2: Fraction(q ** 2 * (q ** 4 + q ** 2 + 1)),
                3: Fraction(q ** 4 * (q ** 8 + q ** 6 + q ** 5 - 1)),
                4: Fraction(q ** 7 * (q ** 11 + q ** 9 + q ** 7 - q ** 6 + 1)),
                5: Fraction(q ** 11 * (q ** 13 - q ** 7 + q ** 6 - 1)),
                6: Fraction(q ** 16 * (q ** 14 - q ** 13 + q ** 7 - q ** 6 + 1))}
    raise ValueError(f"unknown uniform family {name!r}")


def uniform_family_solution(name: str, q: int, k: int | None = None) -> dict:
    """Evaluate a published closed-form uniform solution at the given q
    (and k, for the two parametric families).

    Raises NonIntegralSolution when a multiplicity comes out
    non-integral (the S_q(3,4,2k;k) family for every k except 4).
    """
    values = _closed_forms(name, q, k)
    for r, v in values.items():
        if v.denominator != 1:
            raise NonIntegralSolution(
                f"family {name} at q={q}" + (f", k={k}" if k is not None else "")
                + f" gives the non-integer X_{r} = {v}")
    return {r: int(v) for r, v in values.items()}


def family_system_params(name: str, k: int | None = None) -> tuple:
    """The (t, k, n, m) design parameters behind a family name."""
    if name == "S(2,3,2k+1;k+1)":
        if k is None:
            raise ValueError("family needs k")
        return (2, 3, 2 * k + 1, k + 1)
    if name == "S(3,4,2k;k)":
        if k is None:
            raise ValueError("family needs k")
        return (3, 4, 2 * k, k)
    table = {"S(2,3,7;4)": (2, 3, 7, 4), "S(3,4,8;4)": (3, 4, 8, 4),
             "S(4,5,11;6)": (4, 5, 11, 6), "S(5,6,12;6)": (5, 6, 12, 6)}
    if name not in table:
        raise ValueError(f"unknown uniform family {name!r}")
    return table[name]
