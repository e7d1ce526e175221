"""The benchmark's workloads: inputs, operations and output checks.

A workload's ``setup`` writes its inputs (the program sees only these
files and the operation arguments); ``operations`` returns the list of
operations one pass runs.  Each operation is timed on its own; its
check runs outside the timed region and returns ``None`` or a failure
message.  Expected values come from the paper's closed forms and this
file's own q-binomial, not from the program; only the residual check
of solve-full substitutes the program's solution into the program's
equations, in exact fractions.

Every operation resolves program functions through module attributes
at call time (``cli.main``, ``counting.oracle_N``), so the tracer's
wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Largest Grassmannian the census visits; the bound acceptance
# criterion 1 uses, fixed here so the workload does not follow the program.
CENSUS_GUARD = 10 ** 7


def qbinom(n: int, k: int, q: int) -> int:
    """Gaussian binomial [n choose k]_q, 0 outside 0 <= k <= n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def covering_nonzero(s: int, t: int, r: int, k: int) -> bool:
    """Whether an r-dimensional block covers s-subspaces at all."""
    return s <= r and t - s <= k - r


def equation_count(q: int, t: int, m: int, p: int) -> int:
    return sum(qbinom(m, s, q) for s in range(max(0, t - p), min(t, m) + 1))


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def run_cli(argv: list) -> tuple:
    """``qsteiner.cli.main(argv)`` in-process: (exit code, stdout)."""
    from qsteiner import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # argparse rejects bad arguments
            code = exc.code
    return code, out.getvalue()


def expect_cli(code_and_out: tuple, code: int, lines: list) -> str | None:
    got_code, out = code_and_out
    if got_code != code:
        return f"exit code {got_code}, expected {code}; stdout {out!r}"
    if lines is not None and out.splitlines() != lines:
        return f"stdout {out!r}, expected {lines!r}"
    return None


# ---------------------------------------------------------------------------
# Design files written without the program
# ---------------------------------------------------------------------------

def rref_matrices(q: int, m: int, d: int):
    """Every d-subspace of F_q^m as its RREF rows, each row a digit string."""
    if d == 0:
        yield ()
        return
    for pivots in itertools.combinations(range(m), d):
        slots = [(i, c) for i in range(d) for c in range(pivots[i] + 1, m)
                 if c not in pivots]
        for vals in itertools.product(range(q), repeat=len(slots)):
            rows = [["0"] * m for _ in range(d)]
            for i, p in enumerate(pivots):
                rows[i][p] = "1"
            for (i, c), v in zip(slots, vals):
                rows[i][c] = str(v)
            yield tuple("".join(r) for r in rows)


def design_text(q: int, t: int, k: int, n: int, m: int, blocks: dict) -> str:
    """A ``qsteiner-design v1`` file for ``blocks``: (dim, rows) -> mult.

    Canonical order is dimension, then the rows read row-major; with
    equal-length digit rows that is the order of the joined strings.
    """
    lines = ["qsteiner-design v1", f"q={q} t={t} k={k} n={n} m={m}"]
    for (dim, rows), mult in sorted(blocks.items(),
                                    key=lambda item: (item[0][0], ";".join(item[0][1]))):
        lines.append(f"block {mult} {dim} {';'.join(rows) or '-'}")
    return "\n".join(lines) + "\n"


def puncture_rows(rows: tuple) -> tuple:
    """Delete the last coordinate; a last row 0..01 becomes zero and goes."""
    cut = tuple(r[:-1] for r in rows)
    return cut[:-1] if cut and not cut[-1].strip("0") else cut


def file_summary(text: str) -> tuple:
    """(distinct blocks, total multiplicity) read from a design file."""
    blocks = [ln.split() for ln in text.splitlines()[2:] if ln]
    return len(blocks), sum(int(b[1]) for b in blocks)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class VerifyUniform:
    """``qsteiner verify`` on the uniform S_q(2,3,2k+1;k+1) and on its
    once-punctured copy with one multiplicity raised by one."""

    seeded = True

    def __init__(self, q: int = 2, k: int = 7) -> None:
        self.q, self.t, self.family_k = q, 2, k
        self.k, self.n, self.m = 3, 2 * k + 1, k + 1
        self.fields = (q,)

    def multiplicities(self) -> dict:
        """The published uniform solution of S_q(2,3,2k+1;k+1)."""
        q, k = self.q, self.family_k
        return {0: qbinom(k, 2, q) // qbinom(3, 2, q), 1: 0,
                2: q ** (k - 1), 3: q ** (k + 1) * (q - 1)}

    def setup(self, seed: int, workdir: str) -> dict:
        q, t, k, n, m = self.q, self.t, self.k, self.n, self.m
        blocks = {}
        for dim, mult in self.multiplicities().items():
            if mult:
                for rows in rref_matrices(q, m, dim):
                    blocks[(dim, rows)] = mult
        full = os.path.join(workdir, f"uniform-q{q}-m{m}.design")
        with open(full, "w", encoding="ascii") as fh:
            fh.write(design_text(q, t, k, n, m, blocks))
        total = sum(blocks.values())

        punctured: dict = {}
        for (dim, rows), mult in blocks.items():
            cut = puncture_rows(rows)
            key = (len(cut), cut)
            punctured[key] = punctured.get(key, 0) + mult
        del blocks
        altered = sorted(punctured, key=lambda b: (b[0], ";".join(b[1])))[
            random.Random(seed).randrange(len(punctured))]
        punctured[altered] += 1
        broken = os.path.join(workdir, f"uniform-q{q}-m{m - 1}-altered.design")
        with open(broken, "w", encoding="ascii") as fh:
            fh.write(design_text(q, t, k, n, m - 1, punctured))
        r = altered[0]
        violated = sum(qbinom(r, s, q)
                       for s in range(max(0, t - (n - m + 1)), min(t, m - 1) + 1)
                       if covering_nonzero(s, t, r, k))
        return {"full": full, "broken": broken, "total": total,
                "equations": equation_count(q, t, m, n - m), "violated": violated}

    def operations(self, state: dict, workdir: str) -> list:
        pass_line = [f"PASS: {state['equations']} equations, "
                     f"total multiplicity {state['total']}"]

        def check_fail(result):
            problem = expect_cli(result, 1, None)
            lines = result[1].splitlines()
            tail = f"({state['violated']} violated equations)"
            if problem is None and (len(lines) != 1 or not lines[0].startswith(
                    "FAIL: equation for the") or not lines[0].endswith(tail)):
                problem = f"stdout {result[1]!r} does not end with {tail!r}"
            return problem

        return [
            Op("verify uniform", lambda: run_cli(["verify", state["full"]]),
               lambda result: expect_cli(result, 0, pass_line)),
            Op("verify altered puncture", lambda: run_cli(["verify", state["broken"]]),
               check_fail),
        ]


class BuildWrite:
    """Build, puncture and transform S_q(3,4,8;5), then build S_q'(2,3,7;5)
    from the shipped parallelism of F_q'^4; every file must be rewritten
    byte for byte on every pass."""

    seeded = True

    def __init__(self, s3485_q: int = 4, fano_q: int = 3) -> None:
        self.s3485_q, self.fano_q = s3485_q, fano_q
        self.fields = (s3485_q, fano_q)

    def setup(self, seed: int, workdir: str) -> dict:
        q = self.s3485_q
        rng = random.Random(seed)
        ops = []
        for _ in range(2):
            j = rng.randrange(4)
            coeffs = [rng.randrange(q) for _ in range(4)]
            coeffs[j] = rng.randrange(1, q)
            ops.append(f"{j}={','.join(map(str, coeffs))}")
        return {"column_ops": ops, "first_pass": {}}

    def operations(self, state: dict, workdir: str) -> list:
        q, fq = self.s3485_q, self.fano_q
        first_pass = state["first_pass"]
        s3485 = os.path.join(workdir, f"s3485-q{q}.design")
        punct = os.path.join(workdir, f"s3485-q{q}-m4.design")
        moved = os.path.join(workdir, f"s3485-q{q}-m4-transformed.design")
        fano = os.path.join(workdir, f"fano-m5-q{fq}.design")
        budget = qbinom(8, 3, q) // qbinom(4, 3, q)
        s3485_blocks = (1 + qbinom(5, 2, q) - qbinom(4, 1, q)
                        + qbinom(5, 3, q) + qbinom(5, 4, q))
        fano_budget = qbinom(7, 2, fq) // qbinom(3, 2, fq)
        fano_blocks = (1 + qbinom(4, 3, fq) * fq ** 3
                       + fq * fq * (fq * fq + 1) + (fq + 1) * (fq * fq + 1) * fq * fq)
        transform_args = ["transform", punct, "-o", moved]
        for op in state["column_ops"]:
            transform_args += ["--op", op]

        # S_q(3,4,8;5) punctures onto the null space and every 2-, 3- and
        # 4-subspace of F_q^4; a column transform permutes those.
        punct_blocks = 1 + qbinom(4, 2, q) + qbinom(4, 3, q) + 1

        def checked(path, code, lines, blocks, total):
            def check(result):
                problem = expect_cli(result, code, lines)
                if problem:
                    return problem
                with open(path, "rb") as fh:
                    data = fh.read()
                if path not in first_pass:
                    first_pass[path] = data
                    got = file_summary(data.decode("ascii"))
                    if got != (blocks, total):
                        return (f"{path}: (distinct blocks, total) {got}, "
                                f"expected {(blocks, total)}")
                elif data != first_pass[path]:
                    return f"{path} differs from the file written on the first pass"
                return None
            return check

        def verdict(equations, total):
            return f"PASS: {equations} equations, total multiplicity {total}"

        return [
            Op(f"build s3485 --q {q}",
               lambda: run_cli(["build", "s3485", "--q", str(q), "-o", s3485]),
               checked(s3485, 0, [f"wrote {s3485} ({s3485_blocks} distinct blocks)",
                                  verdict(equation_count(q, 3, 5, 3), budget)],
                       s3485_blocks, budget)),
            Op("puncture", lambda: run_cli(["puncture", s3485, "-o", punct]),
               checked(punct, 0, [f"wrote {punct}",
                                  verdict(equation_count(q, 3, 4, 4), budget)],
                       punct_blocks, budget)),
            Op("transform", lambda: run_cli(transform_args),
               checked(moved, 0, [f"wrote {moved}",
                                  verdict(equation_count(q, 3, 4, 4), budget)],
                       punct_blocks, budget)),
            Op(f"build fano-m5 --q {fq}",
               lambda: run_cli(["build", "fano-m5", "--q", str(fq), "-o", fano]),
               checked(fano, 0, [f"wrote {fano} ({fano_blocks} distinct blocks)",
                                 verdict(equation_count(fq, 2, 5, 2), fano_budget)],
                       fano_blocks, fano_budget)),
        ]


class Census:
    """Every count_N / count_C / count_D tuple of acceptance criterion 1 at
    one q, each closed form compared with its brute-force oracle."""

    seeded = False

    def __init__(self, q: int = 3, max_n: int = 7) -> None:
        self.q, self.max_n = q, max_n
        self.fields = (q,)

    def setup(self, seed: int, workdir: str) -> dict:
        q = self.q
        tuples = []
        for n in range(2, self.max_n + 1):
            for t in range(0, min(n, 4) + 1):
                if qbinom(n, t, q) > CENSUS_GUARD:
                    continue
                for m in range(1, n):
                    for s in range(max(0, t - (n - m)), min(t, m) + 1):
                        tuples.append(("N", (s, m, t, n, q)))
        for k in range(1, 5):
            for t in range(0, k):
                for s in range(0, t + 1):
                    for r in range(s, k - t + s + 1):
                        tuples.append(("C", (s, t, r, k, q)))
        for m in range(1, self.max_n):
            for r in range(0, min(m, 4) + 1):
                for s in range(0, r + 1):
                    tuples.append(("D", (s, r, m, q)))
        return {"tuples": tuples}

    def operations(self, state: dict, workdir: str) -> list:
        from qsteiner import counting

        def op(kind, args):
            def run():
                return (getattr(counting, "count_" + kind)(*args),
                        getattr(counting, "oracle_" + kind)(*args))

            def check(result):
                formula, oracle = result
                return None if formula == oracle else \
                    f"formula {formula} != oracle {oracle}"
            return Op(f"{kind}{args}", run, check)

        return [op(kind, args) for kind, args in state["tuples"]]


class SolveFull:
    """``build_full`` + ``solve`` on small S_q(2,3,7;m), each assignment
    checked for zero residual on every equation in exact fractions."""

    seeded = False
    # (q, m, status, free variables, expected assignment or None)
    CASES = ((2, 2, "unique", 0, (5, 40, 40, 40, 256)),
             (3, 4, "underdetermined", 40, None),
             (2, 5, "underdetermined", 154, None))

    def __init__(self, cases: tuple = CASES) -> None:
        self.cases = cases
        self.fields = tuple(sorted({c[0] for c in cases}))

    def setup(self, seed: int, workdir: str) -> dict:
        return {}

    def operations(self, state: dict, workdir: str) -> list:
        from qsteiner import equations

        def op(q, m, status, free, values):
            t, k, n = 2, 3, 7
            rows = equation_count(q, t, m, n - m)
            cols = sum(qbinom(m, r, q) for r in range(max(0, k - n + m), min(k, m) + 1))

            def run():
                system = equations.build_full(q, t, k, n, m)
                return system, equations.solve(system)

            def check(result):
                system, out = result
                shape = (len(system.rhs), len(system.variables))
                if shape != (rows, cols):
                    return f"system shape {shape}, expected {(rows, cols)}"
                if (out.status, len(out.free_keys)) != (status, free):
                    return (f"status {out.status} with {len(out.free_keys)} free, "
                            f"expected {status} with {free}")
                if values is not None and tuple(
                        out.assignment[y] for y in system.variables) != values:
                    return "assignment differs from the known solution"
                for i, (row, rhs) in enumerate(zip(system.matrix, system.rhs)):
                    lhs = sum((Fraction(c) * out.assignment[y]
                               for c, y in zip(row, system.variables) if c), Fraction(0))
                    if lhs != rhs:
                        return f"equation {i} has residual {lhs - rhs}"
                return None
            return Op(f"solve S_{q}(2,3,7;{m})", run, check)

        return [op(*case) for case in self.cases]


WORKLOADS = {
    "verify-q2": VerifyUniform(),
    "build-write": BuildWrite(),
    "census-q3": Census(),
    "solve-full": SolveFull(),
}
