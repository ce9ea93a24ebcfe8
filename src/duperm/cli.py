"""Command-line interface.

Subcommands:
  analyze           build one function and print its criteria report
  construct         build one function and print a table digest
  verify            run the claim checks, emit a JSON-lines transcript
  reproduce-tables  rebuild the reference rows and compare exactly

Exit codes: 0 success / all pass, 1 claim or table mismatch, 2 usage
error.  JSON output is byte-stable for a fixed seed; runtime timings are
emitted only with --timings.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import sys

from . import analyzer, gf2n, prover
from .construct import instance, write_lut

# Expected reference rows: (L1 expression, (w0, w2, w4), degree, nl).
# k = 2, L2 = x, canonical subfield generator; lb = 380 for every row.
TABLE1_EXPECTED = (
    ("x+1", (523776, 523776, 0), 8, 472),
    ("x+b", (525759, 519810, 1983), 8, 468),
    ("b*x+b", (525261, 520806, 1485), 8, 469),
    ("b^2*x^2+b", (524319, 522690, 543), 8, 471),
    ("b^2*x^2", (525261, 520806, 1485), 8, 469),
)
TABLE2_EXPECTED = (
    ("x+b", (524769, 521790, 993), 9, 470),
    ("b*x^2+b", (525309, 520710, 1533), 9, 469),
)
_CSV_HEADER = ("L1", "spectrum", "deg", "NL", "LB")


def _build_function(args):
    ctx = gf2n.mk_field(args.k)
    return ctx, instance(ctx, args.m, args.l1, args.l2)


def _construction_label(args) -> str:
    return f"k={args.k} m={args.m} L1={args.l1} L2={args.l2}"


def _check_out(path) -> None:
    """Fail before any work when --out names a directory or lies in a missing one."""
    if path and os.path.isdir(path):
        raise IsADirectoryError(f"--out {path} is a directory, not a file")
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        parent = os.path.dirname(path)
        raise NotADirectoryError(f"--out {path}: {parent} is not an existing directory")


def _emit(text: str, out) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    _check_out(args.out)
    _, f = _build_function(args)
    report = analyzer.analyze(f, construction=_construction_label(args))
    if args.format == "csv":
        lines = [",".join(_CSV_HEADER)]
        lines.append(",".join('"%s"' % c if "," in c else c for c in report.csv_row(args.l1)))
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(report.to_json(include_runtime=args.timings) + "\n", args.out)
    return 0


def cmd_construct(args) -> int:
    _check_out(args.out)
    ctx, f = _build_function(args)
    digest = hashlib.sha256(f.table.astype("<u8").tobytes()).hexdigest()
    if args.out:
        write_lut(f, args.out)
    payload = {
        "n": ctx.n,
        "k": args.k,
        "construction": _construction_label(args),
        "sha256": digest,
        "written": args.out or None,
    }
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


def cmd_verify(args) -> int:
    _check_out(args.out)
    results = prover.run_claims(pattern=args.claims, seed=args.seed, trials=args.trials)
    transcript = "".join(json.dumps(r.to_json_dict()) + "\n" for r in results)
    _emit(transcript, args.out)
    width = max((len(r.claim_id) for r in results), default=10)
    for r in results:
        sys.stderr.write(f"{r.claim_id:<{width}}  {r.status:<7}  {r.elapsed_ms:9.1f} ms\n")
    counts = {s: sum(1 for r in results if r.status == s) for s in ("pass", "fail", "skipped")}
    sys.stderr.write(
        "%d pass, %d fail, %d skipped\n" % (counts["pass"], counts["fail"], counts["skipped"])
    )
    if not results:
        sys.stderr.write(f"no claims match pattern {args.claims!r}\n")
        return 2
    return 1 if counts["fail"] else 0


def cmd_reproduce_tables(args) -> int:
    out = args.out or "."
    if not os.path.isdir(out):
        raise NotADirectoryError(f"--out {out} is not an existing directory")
    ctx = gf2n.mk_field(2)
    mismatches = []
    for table_name, m, expected in (
        ("table1", 2, TABLE1_EXPECTED),
        ("table2", 1, TABLE2_EXPECTED),
    ):
        path = os.path.join(out, table_name + ".csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_HEADER)
            for l1_expr, spectrum, degree, nl in expected:
                report = analyzer.analyze(instance(ctx, m, l1_expr), construction=l1_expr)
                writer.writerow(report.csv_row(l1_expr))
                got = {
                    "spectrum": report.spectrum_triple(),
                    "deg": report.degree,
                    "NL": report.nl,
                    "LB": report.lb,
                }
                want = {"spectrum": spectrum, "deg": degree, "NL": nl, "LB": 380}
                for column in ("spectrum", "deg", "NL", "LB"):
                    if got[column] != want[column]:
                        mismatches.append(
                            f"{table_name} row L1={l1_expr} column {column}: "
                            f"computed {got[column]}, expected {want[column]}"
                        )
                sys.stdout.write(
                    f"{table_name} L1={l1_expr}: spectrum={got['spectrum']} "
                    f"deg={got['deg']} NL={got['NL']} LB={got['LB']}\n"
                )
    if mismatches:
        for line in mismatches:
            sys.stderr.write("MISMATCH " + line + "\n")
        return 1
    return 0


def _add_function_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True, help="subfield degree (n = 5k)")
    p.add_argument("--m", type=int, default=1, help="inner power exponent index")
    p.add_argument("--l1", default="x", help="outer affine map, e.g. 'b^2*x^2 + b'")
    p.add_argument("--l2", default="x", help="inner affine map")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first main call and reused after it."""
    parser = argparse.ArgumentParser(
        prog="duperm",
        description="Construct and analyse low differential-uniformity S-boxes over GF(2^(5k))",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="criteria report for one constructed function")
    _add_function_args(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--timings", action="store_true", help="include runtime_ms in JSON")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("construct", help="build a function and print its digest")
    _add_function_args(p)
    p.add_argument("--out", help="also write the binary lookup table here")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run claim checks")
    p.add_argument("--claims", default="*", help="glob over claim ids, e.g. 'lemma1.*'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--out", help="transcript path (default stdout)")
    p.add_argument("--workers", type=int, default=1,
                   help="ignored; accepted only because perfbench/workloads.py passes it")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reproduce-tables", help="rebuild reference rows and compare")
    p.add_argument("--out", help="directory for table1.csv / table2.csv (default .)")
    p.add_argument("--workers", type=int, default=1,
                   help="ignored; accepted only because perfbench/workloads.py passes it")
    p.set_defaults(func=cmd_reproduce_tables)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, ValueError) else 1


if __name__ == "__main__":
    sys.exit(main())
