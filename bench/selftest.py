"""Quick self-test of the benchmark on tiny inputs.

    python3 bench/selftest.py

Checks that one command prints every end-to-end and per-layer metric
with its unit, that BENCHMARK.json lists the same metrics and
workloads, that a deliberately corrupted design makes ``fail_frac``
nonzero, and that a traced run leaves every qsteiner function as it
found it.  Exits 1 on the first group of problems found.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
from tracer import Tracer, public_functions, qsteiner_modules
from workloads import BuildWrite, Census, SolveFull, VerifyUniform

sys.path.insert(0, str(run.ROOT / "src"))

TINY = {
    "verify-q2": VerifyUniform(q=2, k=3),
    "build-write": BuildWrite(s3485_q=2, fano_q=3),
    "census-q3": Census(q=3, max_n=4),
    "solve-full": SolveFull(cases=SolveFull.CASES[:1]),
}


class CorruptedVerify(VerifyUniform):
    """The tiny verify workload with one multiplicity of the design that
    should pass raised by one."""

    def setup(self, seed: int, workdir: str) -> dict:
        state = super().setup(seed, workdir)
        with open(state["full"], encoding="ascii") as fh:
            lines = fh.read().splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith("block "))
        _, mult, rest = lines[i].split(" ", 2)
        lines[i] = f"block {int(mult) + 1} {rest}"
        with open(state["full"], "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        return state


def run_once(workloads: dict, name: str, trace: int) -> tuple:
    """run.main in-process: (stdout lines, final JSON object)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "7", "--seconds", "0",
                         "--trace", str(trace)], workloads)
    lines = out.getvalue().splitlines()
    if code != 0:
        raise AssertionError(f"{name} trace {trace}: exit code {code}")
    return lines, json.loads(lines[-1])


def check_metrics(problems: list) -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        spec = json.load(fh)
    if [w["name"] for w in spec["workloads"]] != list(TINY):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            != [row[:3] for row in run.LAYER_METRICS]):
        problems.append("BENCHMARK.json per_layer differs from run.LAYER_METRICS")

    for name in TINY:
        for trace, table in ((0, run.END_TO_END),
                             (1, {n: u for n, u, *_ in run.LAYER_METRICS})):
            lines, result = run_once(TINY, name, trace)
            where = f"{name} trace {trace}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: failures " + "; ".join(
                    ln for ln in lines if ln.startswith("FAILED")))
            if set(result["metrics"]) != set(table):
                problems.append(f"{where}: metrics {sorted(result['metrics'])}")
            for metric, unit in table.items():
                entry = result["metrics"].get(metric, {})
                if entry.get("unit") != unit or not any(
                        ln.startswith(f"{metric} ") and f" {unit}" in ln for ln in lines):
                    problems.append(f"{where}: {metric} not printed with unit {unit}")
            if trace == 0 and not any(ln.startswith("fail_frac 0.0 ") for ln in lines):
                problems.append(f"{where}: no fail_frac 0.0 line")
            if trace == 1 and not result["metrics"]["trace.overhead"]["value"] > 0:
                problems.append(f"{where}: no tracing overhead")


def check_corrupted(problems: list) -> None:
    lines, result = run_once({"verify-q2": CorruptedVerify(q=2, k=3)}, "verify-q2", 0)
    frac = next((float(ln.split()[1]) for ln in lines if ln.startswith("fail_frac ")), 0.0)
    if not (frac > 0 and result["failed"] > 0 and not result["correct"]):
        problems.append(f"corrupted design: fail_frac {frac}, result {result}")


def check_restored(problems: list) -> None:
    import qsteiner.cli  # noqa: F401  (loads every qsteiner module)
    from qsteiner import counting, designs

    def snapshot() -> dict:
        return {(m.__name__, attr): value for m in qsteiner_modules()
                for attr, value in vars(m).items()}

    before = snapshot()
    originals = {id(fn) for m in qsteiner_modules()
                 for fn in public_functions(m).values()}
    tracer = Tracer(run.LAYERS)
    tracer.install()
    try:
        during = snapshot()
        missed = [key for key, value in before.items()
                  if id(value) in originals and during[key] is value]
        if missed:
            problems.append(f"not wrapped while tracing: {missed[:5]}")
        if designs.gaussian is counting.gaussian.__wrapped__:
            problems.append("designs.gaussian (imported by name) not wrapped")
        counting.oracle_C(1, 2, 1, 3, 2)            # calls the generator subspaces_within
    finally:
        tracer.uninstall()
    after = snapshot()
    changed = [key for key in before if after.get(key) is not before[key]]
    if changed or set(after) != set(before):
        problems.append(f"traced run left functions replaced: {changed[:5]}")
    stats = tracer.stats["subspaces.subspaces_within"]
    if not (stats.calls and stats.yields and stats.busy > 0):
        problems.append("generator subspaces_within not traced over its consumption")


def main() -> int:
    problems: list = []
    for check in (check_metrics, check_corrupted, check_restored):
        check(problems)
        if problems:
            break
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
