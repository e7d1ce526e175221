"""qsteiner benchmark: one workload per process, end to end or traced.

    python3 bench/run.py --workload verify-q2 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Inputs and outputs go to ``.bench_out/<workload>/``.

A run sets the workload up several times (fresh import of ``qsteiner``,
the field tables it needs, its input files) and reports the median as
``setup_s``.  It then runs whole passes over the workload's operations,
single-threaded, with the program's caches cleared before each pass,
and stops before a pass that would end past ``--seconds``; at least one
pass always runs.  Operations are timed one by one and their outputs
checked outside the timed region; ``pass_s`` is the median pass.

Both times are wall seconds scaled to a reference speed (see
``SpeedProbe``); the unscaled wall medians are printed beside them.
``peak_rss_mb`` is the process's peak resident set, and ``ok_frac`` is
one minus ``fail_frac``, the share of operations that failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also runs
the untraced passes, then one traced set-up of the field tables and one
traced pass, and prints the per-layer metrics instead, together with
the end-to-end metric and workloads each of them should move.  Spans
are written to ``.bench_out/<workload>/trace.spans``; reference slices
that interrupt a traced function count in its time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracer import Tracer, qsteiner_modules
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("field", "subspaces", "counting", "equations", "designs", "files", "cli")
# Set-up runs at least SETUP_REPS times and until SETUP_MIN_S of wall
# time is spent, at most SETUP_MAX_REPS times.
SETUP_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 1.0, 15
# Seconds one reference slice takes on an unloaded Intel Xeon at 2.1 GHz
# with Python 3.11; times are reported scaled to that speed.
REF_SLICE_S = 0.006
# Interval between two reference slices.
REF_GAP_S = 0.2

# name -> unit; bounds and directions are in BENCHMARK.json
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}

ALL = "verify-q2 build-write census-q3 solve-full"
# (per-layer metric, unit, better, end-to-end metric it should move,
#  workloads it should move it on)
LAYER_METRICS = (
    ("subspaces.subspaces_within.calls", "count", "lower", "pass_s", "verify-q2 build-write"),
    ("subspaces.subspaces_within.yields", "count", "lower", "pass_s", "verify-q2 build-write"),
    ("subspaces.subspaces_within.self_s", "s", "lower", "pass_s", "verify-q2 build-write"),
    ("subspaces.rref.calls", "count", "lower", "pass_s", "build-write verify-q2"),
    ("subspaces.rref.self_s", "s", "lower", "pass_s", "build-write verify-q2"),
    ("subspaces.enumerate_subspaces.calls", "count", "lower", "pass_s", "verify-q2"),
    ("subspaces.enumerate_subspaces.self_s", "s", "lower", "pass_s", "verify-q2"),
    ("subspaces.puncture.calls", "count", "lower", "pass_s", "census-q3"),
    ("subspaces.puncture.self_s", "s", "lower", "pass_s", "census-q3"),
    ("subspaces.contains.calls", "count", "lower", "pass_s", "solve-full"),
    ("subspaces.contains.self_s", "s", "lower", "pass_s", "solve-full"),
    ("counting.oracle_N.calls", "count", "lower", "pass_s peak_rss_mb", "census-q3"),
    ("counting.oracle_N.self_s", "s", "lower", "pass_s peak_rss_mb", "census-q3"),
    ("counting.oracle_C.calls", "count", "lower", "pass_s peak_rss_mb", "census-q3"),
    ("counting.oracle_C.self_s", "s", "lower", "pass_s peak_rss_mb", "census-q3"),
    ("counting.oracle_D.calls", "count", "lower", "pass_s peak_rss_mb", "census-q3"),
    ("counting.oracle_D.self_s", "s", "lower", "pass_s peak_rss_mb", "census-q3"),
    ("counting.puncture_per_tuple", "calls/tuple", "lower", "pass_s peak_rss_mb", "census-q3"),
    ("counting.covering_coefficient.calls", "count", "lower", "pass_s", "verify-q2 build-write"),
    ("counting.gaussian.calls", "count", "lower", "pass_s", "verify-q2 build-write"),
    ("designs.verify.calls", "count", "lower", "pass_s", "verify-q2 build-write"),
    ("designs.verify.self_s", "s", "lower", "pass_s", "verify-q2 build-write"),
    ("designs.verify.equations", "count", "lower", "pass_s", "verify-q2 build-write"),
    ("designs.verify_per_design", "calls/design", "lower", "pass_s", "verify-q2 build-write"),
    ("designs.construct_s3485.self_s", "s", "lower", "pass_s", "build-write"),
    ("designs.construct_fano_m5.self_s", "s", "lower", "pass_s", "build-write"),
    ("designs.apply_transform.self_s", "s", "lower", "pass_s", "build-write"),
    ("designs.puncture_design.self_s", "s", "lower", "pass_s", "build-write"),
    ("designs.build_parallelism.self_s", "s", "lower", "pass_s", "build-write"),
    ("files.parse_design.self_s", "s", "lower", "pass_s", "verify-q2 build-write"),
    ("files.parse_design.blocks_per_s", "1/s", "higher", "pass_s", "verify-q2 build-write"),
    ("files.serialize_design.self_s", "s", "lower", "pass_s", "build-write"),
    ("files.bytes_written", "bytes", "lower", "pass_s", "build-write"),
    ("equations.build_full.self_s", "s", "lower", "pass_s", "solve-full"),
    ("equations.solve.self_s", "s", "lower", "pass_s", "solve-full"),
    ("equations.solve.cells", "count", "lower", "pass_s", "solve-full"),
    ("field.make_field.calls", "count", "lower", "setup_s", ALL),
    ("field.tables_s", "s", "lower", "setup_s", ALL),
    ("cli.self_s", "s", "lower", "pass_s", "verify-q2 build-write"),
    *((f"{layer}.errors", "count", "lower", "ok_frac", ALL) for layer in LAYERS),
    ("trace.overhead", "ratio", "lower", "none (traced pass_s / untraced pass_s)", ALL),
)


class LayerCounters:
    """Counters that need a traced function's arguments or result."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.equations = self.designs = self.blocks = self.bytes_written = self.cells = 0
        self._op = None
        self._designs: dict = {}
        tracer.on_result("designs.verify", self._verified)
        tracer.on_result("files.parse_design", self._parsed)
        tracer.on_result("files.write_design", self._written)
        tracer.on_result("equations.solve", self._solved)

    def _verified(self, args, kwargs, report) -> None:
        self.equations += report.equations_checked
        design = args[0] if args else kwargs["design"]
        if self.tracer.op != self._op:      # distinct designs are counted per operation
            self._op, self._designs = self.tracer.op, {}
        if id(design) not in self._designs:
            self._designs[id(design)] = design
            self.designs += 1

    def _parsed(self, args, kwargs, design) -> None:
        self.blocks += len(design.blocks)

    def _written(self, args, kwargs, result) -> None:
        self.bytes_written += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])

    def _solved(self, args, kwargs, outcome) -> None:
        system = args[0] if args else kwargs["system"]
        self.cells += len(system.rhs) * len(system.variable_keys())


def layer_values(tracer: Tracer, counters: LayerCounters, overhead: float) -> tuple:
    """Every LAYER_METRICS value, and the traced functions found absent."""
    absent = []

    def stat(function: str, field: str):
        stats = tracer.stats.get(function)
        if stats is None:
            absent.append(function)
            return 0
        return stats.self if field == "self_s" else getattr(stats, field)

    def ratio(num, den):
        return num / den if den else 0.0

    oracle_calls = sum(stat(f"counting.oracle_{x}", "calls") for x in "NCD")
    special = {
        "counting.puncture_per_tuple":
            lambda: ratio(stat("subspaces.puncture", "calls"), oracle_calls),
        "designs.verify.equations": lambda: counters.equations,
        "designs.verify_per_design":
            lambda: ratio(stat("designs.verify", "calls"), counters.designs),
        "files.parse_design.blocks_per_s":
            lambda: ratio(counters.blocks, stat("files.parse_design", "busy")),
        "files.bytes_written": lambda: counters.bytes_written,
        "equations.solve.cells": lambda: counters.cells,
        "field.tables_s": lambda: tracer.layer_self("field"),
        "cli.self_s": lambda: tracer.layer_self("cli"),
        "trace.overhead": lambda: overhead,
        **{f"{layer}.errors": (lambda layer=layer: tracer.layer_errors[layer])
           for layer in LAYERS},
    }
    values = {}
    for name, *_ in LAYER_METRICS:
        if name in special:
            values[name] = special[name]()
        else:
            function, _, field = name.rpartition(".")
            values[name] = stat(function, field)
    return values, sorted(set(absent))


def fresh_import() -> None:
    """Import qsteiner as a new process would, dropping any loaded copy."""
    for name in [n for n in sys.modules if n == "qsteiner" or n.startswith("qsteiner.")]:
        del sys.modules[name]
    importlib.import_module("qsteiner.cli")


def program_caches() -> list:
    """The program's memoised functions, except the field tables (set-up)."""
    keep = sys.modules["qsteiner.field"].make_field
    found = {}
    for module in qsteiner_modules():
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and obj is not keep:
                found[id(obj)] = obj
    return list(found.values())


def reference_slice() -> tuple:
    """A fixed amount of interpreter work of the program's kind: tuple
    keys in dicts, sorting small tuples, exact fractions."""
    acc: dict = {}
    for i in range(12000):
        key = (i % 211, i % 7)
        acc[key] = acc.get(key, 0) + i * i
    rows = sorted(tuple((a * v + b) % 11 for v in range(5)) for a, b in acc)
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, i + 3)
    return len(rows), total


class SpeedProbe:
    """Measures the host's speed while the benchmark runs.

    On a 2-vCPU Intel Xeon (2.1 GHz) virtual machine the CPU speed
    changes by tens of percent within seconds as other guests load the
    host: the wall time of one workload spreads by about a quarter
    between runs (interquartile range over median), its scaled time by
    under a tenth.  While the probe is active an interval timer runs a reference slice every
    REF_GAP_S seconds, also in the middle of a long operation; the time
    it takes is recorded as a sample and kept out of operation times
    through ``spent``.  ``scale`` turns the wall time of the interval
    since ``start`` into seconds at the speed where one slice takes
    REF_SLICE_S.
    """

    def __init__(self) -> None:
        self.samples: list = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_GAP_S, REF_GAP_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self.sample()

    def sample(self) -> None:
        self._busy = True
        t0 = perf_counter()
        reference_slice()
        took = perf_counter() - t0
        self.samples.append(took)
        self.spent += took
        self._busy = False

    def start(self) -> None:
        self.samples = []
        self.sample()

    def scale(self) -> float:
        self.sample()
        return REF_SLICE_S / statistics.fmean(self.samples)


def run_pass(ops: list, caches: list, probe: SpeedProbe,
             tracer: Tracer | None = None) -> tuple:
    """One pass over ``ops`` from cold caches: (wall seconds of the
    operations, the same scaled to reference speed, failure messages)."""
    for cache in caches:
        cache.cache_clear()
    seconds = 0.0
    failures = []
    probe.start()
    for op_id, op in enumerate(ops, 1):
        if tracer is not None:
            tracer.op = op_id
        spent = probe.spent
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception as exc:        # an operation that raises has failed
            seconds += perf_counter() - t0 - (probe.spent - spent)
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        seconds += perf_counter() - t0 - (probe.spent - spent)
        try:
            problem = op.check(result)
        except Exception as exc:        # so has one whose output cannot be checked
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{op.label}: {problem}")
    return seconds, seconds * probe.scale(), failures


def environment() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return (f"env python={platform.python_version()} nproc={os.cpu_count()} "
            f"cpu={cpu!r} commit={commit}")


def tail_note(samples: list) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    for pct in (99, 95, 90, 75):
        if len(samples) * (100 - pct) / 100 >= 10:
            value = statistics.quantiles(samples, n=100)[pct - 1]
            return f"p{pct} {value!r} s"
    return "no tail percentile (fewer than ten samples beyond p75)"


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 workdir: Path, probe: SpeedProbe) -> dict:
    setup_times, setup_wall = [], []
    while len(setup_times) < SETUP_REPS or (
            sum(setup_wall) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS):
        probe.start()
        spent = probe.spent
        t0 = perf_counter()
        fresh_import()
        for q in workload.fields:
            sys.modules["qsteiner.field"].make_field(q)
        state = workload.setup(seed, str(workdir))
        setup_wall.append(perf_counter() - t0 - (probe.spent - spent))
        setup_times.append(setup_wall[-1] * probe.scale())
    caches = program_caches()
    ops = workload.operations(state, str(workdir))

    pass_wall, pass_times, failures = [], [], []
    start = perf_counter()
    while True:
        wall, scaled, failed = run_pass(ops, caches, probe)
        pass_wall.append(wall)
        pass_times.append(scaled)
        failures += failed
        if perf_counter() - start + statistics.median(pass_wall) > seconds:
            break
    attempted = len(ops) * len(pass_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pass_s = statistics.median(pass_times)
    setup_s = statistics.median(setup_times)
    print(f"setup_s {setup_s!r} s (median of {len(setup_times)} set-ups at reference "
          f"speed; wall median {statistics.median(setup_wall)!r} s)")
    print(f"pass_s {pass_s!r} s (median of {len(pass_times)} passes of {len(ops)} "
          f"operations at reference speed; wall median {statistics.median(pass_wall)!r} s; "
          f"{tail_note(pass_times)})")
    print(f"peak_rss_mb {peak_rss_mb!r} MB")
    print(f"fail_frac {len(failures) / attempted!r} ratio "
          f"({len(failures)} of {attempted} operations failed)")
    ok_frac = 1 - len(failures) / attempted
    print(f"ok_frac {ok_frac!r} ratio (1 - fail_frac)")
    metrics = {"setup_s": setup_s, "pass_s": pass_s, "peak_rss_mb": peak_rss_mb,
               "ok_frac": ok_frac}

    if trace:
        tracer = Tracer(LAYERS)
        counters = LayerCounters(tracer)
        field = sys.modules["qsteiner.field"]
        field.make_field.cache_clear()
        tracer.install()
        try:
            for q in workload.fields:
                field.make_field(q)         # op 0: the field tables of set-up
            _, traced_s, failed = run_pass(ops, caches, probe, tracer)
        finally:
            tracer.uninstall()
        tracer.write(str(workdir / "trace"))
        failures += failed
        attempted += len(ops)
        metrics, absent = layer_values(tracer, counters, traced_s / pass_s)
        for name, unit, _, moves, on in LAYER_METRICS:
            print(f"{name} {metrics[name]!r} {unit} (should move {moves} on {on})")
        print(f"traced pass_s {traced_s!r} s; {tracer.stored} spans kept, "
              f"{tracer.spans_dropped} not stored")
        if absent:
            print("absent: " + " ".join(absent))
    for failure in failures:
        print(f"FAILED {failure}")
    units = {n: u for n, u, *_ in LAYER_METRICS} if trace else END_TO_END
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qsteiner" / "__init__.py").is_file():
        print(f"error: no qsteiner sources under {src}", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    os.environ.pop("QSTEINER_DATA", None)     # use only the shipped parallelisms
    workdir = ROOT / ".bench_out" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)

    print(environment())
    workload = workloads[args.workload]
    print(f"workload {args.workload} seed {args.seed}"
          f" ({'used' if workload.seeded else 'unused'}) trace {args.trace}")
    with SpeedProbe() as probe:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                              workdir, probe)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
