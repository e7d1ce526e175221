"""Command-line front end.

Exit codes: 0 on success (verification passed where applicable), 1 when
a check or verification fails, 2 on bad arguments or unreadable input,
and 141 (128 + SIGPIPE, the status a shell reports for a program ended
by a closed pipe) when stdout is closed before the output is written,
as by ``| head``; nothing is printed then.
All numeric output is exact decimal; stdout is deterministic for fixed
inputs.

The environment variable QSTEINER_DATA may point at a directory of
parallelism files named ``parallelism-q{q}-n{n}.txt``; ``--parallelism
auto`` looks there, then at the files shipped with the package, before
falling back to the orbit search (q = 2, n in {2, 4, 6, 8, 10}).
"""

from __future__ import annotations

import argparse
import os
import sys
from decimal import Decimal
from fractions import Fraction

from . import counting, designs, equations, files


def _fmt_value(v) -> str:
    """An integer or fraction in exact decimal, however long: ``str`` of
    an int refuses more digits than ``sys.get_int_max_str_digits()``,
    ``Decimal`` of one converts without that limit."""
    v = Fraction(v)
    text = str(Decimal(v.numerator))
    return text if v.denominator == 1 else f"{text}/{Decimal(v.denominator)}"


def _is_integer(text: str) -> bool:
    """True iff text is ASCII decimal digits after an optional ``-``;
    ``int`` also takes spaces, ``+``, underscores and non-ASCII digits."""
    return files._is_decimal(text.removeprefix("-"))


def _integer(text: str) -> int:
    """An integer argument, checked by ``_is_integer``."""
    if not _is_integer(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def cmd_gauss(args) -> int:
    print(_fmt_value(counting.gaussian(args.n, args.k, args.q)))
    return 0


def cmd_necessary(args) -> int:
    report = counting.necessary_conditions(args.t, args.k, args.n, args.q)
    for e in report.entries:
        verdict = "divides" if e.divides else "DOES NOT divide"
        quotient = (f" = {_fmt_value(e.numerator // e.denominator)}"
                    if e.divides else "")
        print(f"i={e.i}: {_fmt_value(e.numerator)} / {_fmt_value(e.denominator)} "
              f"{verdict}{quotient}")
    print("PASS" if report.ok else "FAIL")
    return 0 if report.ok else 1


# the numbers each count of ``oracle`` takes, in order
_ORACLE_PARAMS = {"N": "s m t n q", "C": "s t r k q", "D": "s r m q"}


def cmd_oracle(args) -> int:
    names = _ORACLE_PARAMS[args.count].split()
    if len(args.params) != len(names):
        raise ValueError(f"oracle {args.count} takes {len(names)} numbers: "
                         f"{' '.join(names)}")
    formula = getattr(counting, "count_" + args.count)(*args.params)
    oracle = getattr(counting, "oracle_" + args.count)(*args.params)
    print(f"formula {_fmt_value(formula)}")
    print(f"oracle  {_fmt_value(oracle)}")
    print("MATCH" if formula == oracle else "MISMATCH")
    return 0 if formula == oracle else 1


def _parse_pins(pin_args) -> dict:
    """The ``X<r>=<value>`` pins, r in ASCII decimal digits, each r once."""
    pins = {}
    for item in pin_args or ():
        name, _, value = item.partition("=")
        # the value in ASCII, without the underscores ``Fraction`` reads
        if (not name.startswith("X") or not files._is_decimal(name[1:]) or not value
                or not value.isascii() or "_" in value):
            raise ValueError(f"bad pin {item!r}; expected e.g. X0=1")
        r = int(name[1:])
        if r in pins:
            raise ValueError(f"bad pin {item!r}; X{r} is pinned twice")
        try:
            pins[r] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad pin {item!r}; expected e.g. X0=1") from None
    return pins


def _print_outcome(out, keys, label) -> int:
    """Print a solve outcome; the exit code is 1 iff it is inconsistent."""
    print(f"status: {out.status}")
    for key in keys:
        if key in out.assignment:
            print(f"{label(key)} = {_fmt_value(out.assignment[key])}")
    if out.free_keys:
        print(f"free variables: {len(out.free_keys)}")
    if out.status != "inconsistent":
        print("nonnegative integers: " + ("yes" if out.nonneg_integer else "no"))
    return 0 if out.status != "inconsistent" else 1


def cmd_uniform_solve(args) -> int:
    pins = _parse_pins(args.pin)
    system = equations.build_uniform(args.q, args.t, args.k, args.n, args.m)
    out = equations.solve(system, pins)
    return _print_outcome(out, system.variables, lambda r: f"X_{r}")


def cmd_full_solve(args) -> int:
    system = equations.build_full(args.q, args.t, args.k, args.n, args.m)
    out = equations.solve(system)
    return _print_outcome(out, system.variables,
                          lambda y: f"a[{files.format_block_rows(y)}]")


def _report_verdict(report) -> int:
    if report.ok:
        print(f"PASS: {_fmt_value(report.equations_checked)} equations, "
              f"total multiplicity {_fmt_value(report.total_multiplicity)}")
        return 0
    if report.block_dim_violations:
        b, dim = report.block_dim_violations[0]
        print(f"FAIL: block {files.format_block_rows(b)} has dimension {dim} "
              f"outside the legal range")
    if report.violations:
        v = report.violations[0]
        print(f"FAIL: equation for the {v.s}-subspace "
              f"[{files.format_block_rows(v.subject)}] "
              f"gives {_fmt_value(v.got)}, expected {_fmt_value(v.expected)} "
              f"({len(report.violations)} violated equations)")
    return 1


def cmd_verify(args) -> int:
    design = files.parse_design_file(args.file)
    return _report_verdict(designs.verify(design))


def _resolve_parallelism(q: int, n: int, source: str) -> designs.Parallelism:
    """The parallelism of F_q^n named by ``source``: ``search``, a file
    path, or ``auto``, which takes the file in QSTEINER_DATA, else the
    file shipped with the package, else the search."""
    if source == "auto":
        data_dir = os.environ.get("QSTEINER_DATA")
        candidate = data_dir and os.path.join(data_dir, f"parallelism-q{q}-n{n}.txt")
        if candidate and os.path.exists(candidate):
            source = candidate
        else:
            source = files.packaged_parallelism_path(q, n) or "search"
    if source == "search":
        return designs.build_parallelism(q, n)
    para = files.parse_parallelism_file(source)
    if para.field.q != q or para.n != n:
        raise ValueError(f"file holds a parallelism for q={para.field.q}, "
                         f"n={para.n}, requested q={q}, n={n}")
    return para


# the build targets that read each option; any other target refuses it
_BUILD_OPTIONS = {"k": ("recursive",), "base": ("recursive",),
                  "parallelism": ("fano-m5", "recursive")}


def cmd_build(args) -> int:
    unread = [f"--{option}" for option, targets in _BUILD_OPTIONS.items()
              if getattr(args, option) is not None and args.name not in targets]
    if unread:
        raise ValueError(f"build {args.name} does not take {', '.join(unread)}")
    # the extension-family targets set fam, verified by class sums
    q, fam = args.q, None
    source = "auto" if args.parallelism is None else args.parallelism
    if args.name == "fano-m4":
        assignment = equations.uniform_family_solution("S(2,3,7;4)", q)
        design = designs.construct_uniform_design(q, 2, 3, 7, 4, assignment)
    elif args.name == "s3484":
        assignment = equations.uniform_family_solution("S(3,4,8;4)", q)
        design = designs.construct_uniform_design(q, 3, 4, 8, 4, assignment)
    elif args.name == "s3485":
        fam = designs.s3485_families(q)
    elif args.name == "fano-m5":
        para = _resolve_parallelism(q, 4, source)
        fam = designs.fano_m5_families(q, para)
    elif args.name == "recursive":
        k = args.k
        if k is None:
            raise ValueError("build recursive needs --k")
        designs.check_recursive_k(k)
        if args.base:
            base = files.parse_design_file(args.base)
        elif k == 3:
            base = designs.construct_uniform_design(q, 2, 3, 3, 1, {1: 1})
        else:
            raise ValueError(f"build recursive with k={k} needs --base FILE")
        para = _resolve_parallelism(q, k + 1, source)
        fam = designs.recursive_families(q, k, para, base)
    else:
        raise ValueError(f"unknown build target {args.name!r}")
    if fam:
        design = fam.design()
    out = args.output or f"{args.name}-q{q}.design"
    files.write_design(design, out)
    print(f"wrote {out} ({len(design.blocks)} distinct blocks)")
    return _report_verdict(designs.verify_families(fam) if fam
                           else designs.verify(design))


def cmd_puncture(args) -> int:
    design = files.parse_design_file(args.file)
    punctured = designs.puncture_design(design)
    if args.output:
        out = args.output
    else:
        stem, ext = os.path.splitext(args.file)
        out = f"{stem}-m{punctured.params.m}{ext or '.design'}"
    files.write_design(punctured, out)
    print(f"wrote {out}")
    return _report_verdict(designs.verify(punctured))


def cmd_spread(args) -> int:
    spread = designs.build_spread(args.q, args.n)
    lines = ["qsteiner-spread v1", f"q={args.q} n={args.n}"]
    lines.extend(map(files.format_block_rows, spread.lines))
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    print(f"PASS: {len(spread.keys)} lines partition the nonzero vectors")
    return 0


def cmd_parallelism(args) -> int:
    para = _resolve_parallelism(args.q, args.n, args.source)
    out = args.output or f"parallelism-q{args.q}-n{args.n}.txt"
    files.write_parallelism(para, out)
    sizes = {len(sp.keys) for sp in para.spreads}
    print(f"wrote {out} ({len(para.spreads)} spreads of "
          f"{', '.join(map(str, sorted(sizes)))} lines)")
    return 0


def _parse_ops(op_args, ncols: int) -> list:
    ops = []
    for item in op_args or ():
        col, _, coeffs = item.partition("=")
        tokens = coeffs.split(",")
        if not all(map(_is_integer, [col, *tokens])):
            raise ValueError(f"bad op {item!r}; expected J=c0,c1,...")
        j, cs = int(col), tuple(map(int, tokens))
        if len(cs) != ncols:
            raise ValueError(f"op {item!r} needs {ncols} coefficients")
        ops.append((j, cs))
    return ops


def cmd_transform(args) -> int:
    design = files.parse_design_file(args.file)
    ops = _parse_ops(args.op, design.params.m)
    transformed = designs.apply_transform(design, ops)
    if args.output:
        out = args.output
    else:
        stem, ext = os.path.splitext(args.file)
        out = f"{stem}-transformed{ext or '.design'}"
    files.write_design(transformed, out)
    print(f"wrote {out}")
    return _report_verdict(designs.verify(transformed))


def _add_system_args(sub) -> None:
    for name in ("q", "t", "k", "n", "m"):
        sub.add_argument(name, type=_integer)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsteiner",
        description="Exact construction, solving and verification of "
                    "punctured q-Steiner systems S_q(t,k,n;m).")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gauss", help="q-binomial coefficient [n choose k]_q")
    p.add_argument("n", type=_integer)
    p.add_argument("k", type=_integer)
    p.add_argument("q", type=_integer)
    p.set_defaults(func=cmd_gauss)

    p = subs.add_parser("necessary",
                        help="divisibility necessary conditions for S_q(t,k,n)")
    for name in ("t", "k", "n", "q"):
        p.add_argument(name, type=_integer)
    p.set_defaults(func=cmd_necessary)

    p = subs.add_parser("oracle",
                        help="compare a closed-form count with its brute-force oracle")
    p.add_argument("count", choices=("N", "C", "D"))
    p.add_argument("params", type=_integer, nargs="+",
                   help=" | ".join(f"{c}: {names}"
                                   for c, names in _ORACLE_PARAMS.items()))
    p.set_defaults(func=cmd_oracle)

    p = subs.add_parser("uniform-solve",
                        help="solve the uniform equation system for S_q(t,k,n;m)")
    _add_system_args(p)
    p.add_argument("--pin", action="append", metavar="Xr=VALUE",
                   help="pin a variable, e.g. --pin X0=1 (repeatable)")
    p.set_defaults(func=cmd_uniform_solve)

    p = subs.add_parser("full-solve",
                        help="solve the per-subspace equation system")
    _add_system_args(p)
    p.set_defaults(func=cmd_full_solve)

    p = subs.add_parser("verify", help="re-verify a design file")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("build", help="build, write and verify a design")
    p.add_argument("name",
                   choices=("fano-m4", "s3484", "s3485", "fano-m5", "recursive"))
    p.add_argument("--q", type=_integer, required=True)
    p.add_argument("--k", type=_integer, help="parameter k for 'recursive'")
    p.add_argument("--parallelism",         # None reads as auto
                   help="auto | search | path to a parallelism file")
    p.add_argument("--base", help="base design file for 'recursive'")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_build)

    p = subs.add_parser("puncture",
                        help="puncture a design file once and verify the result")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_puncture)

    p = subs.add_parser("spread", help="build the field-extension spread of F_q^n")
    p.add_argument("q", type=_integer)
    p.add_argument("n", type=_integer)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_spread)

    p = subs.add_parser("parallelism",
                        help="search or load a parallelism and write it out")
    p.add_argument("q", type=_integer)
    p.add_argument("n", type=_integer)
    p.add_argument("--source", default="auto",
                   help="auto | search | path to a parallelism file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_parallelism)

    p = subs.add_parser("transform",
                        help="apply column transforms to a design file")
    p.add_argument("file")
    p.add_argument("--op", action="append", metavar="J=c0,c1,...",
                   help="replace column J by the given combination "
                        "(0-based; coefficient of column J must be nonzero)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_transform)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout has gone (``| head``): stop without a
        # message, and point stdout's descriptor at os.devnull, so the
        # interpreter's last flush of what is left cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its argument; print the text
        if isinstance(exc, KeyError) and exc.args:
            exc = exc.args[0]
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
