"""Command-line front end: energy, extract, verify, gen, bench.

Exit codes: 0 success; 1 a verification check failed; 2 unreadable input or
bad parameters; 3 invalid eps; 4 a certified inequality failed internally
(which would mean an implementation bug, since the extraction is proven to
succeed on every input); 5 no verification check failed but some were
skipped as too expensive, so the report is not verified.

All outputs are deterministic for fixed inputs and flags; every byte of an
extract report is a function of the input set and eps alone.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import List, Optional

from .additive_stats import energy
from .bsg import Params, _frac_str, extract
from .errors import AsetFormatError, InvariantViolation
from .generators import _FAMILIES, GenSpec
from .groups import AdditiveSet, parse_set, serialize_set
from .oracle import verify_report_dict

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BAD_EPS = 3
EXIT_INTERNAL = 4
EXIT_VERIFY_SKIPPED = 5
_VERIFY_EXIT = {"pass": EXIT_OK, "fail": EXIT_VERIFY_FAILED, "skipped": EXIT_VERIFY_SKIPPED}


class _CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _read_set(path: str) -> AdditiveSet:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise _CliError(EXIT_USAGE, f"cannot read {path}: {exc}") from exc
    try:
        return parse_set(data)
    except AsetFormatError as exc:
        raise _CliError(EXIT_USAGE, f"{path}: {exc}") from exc


def _parse_eps(text: str) -> Fraction:
    try:
        return Params(eps=Fraction(text)).eps
    except (ValueError, ZeroDivisionError) as exc:
        raise _CliError(
            EXIT_BAD_EPS, f"eps must be a fraction in (0, 1/2) like 1/4, got {text!r}"
        ) from exc


def _write_text(path: Optional[str], text: str) -> None:
    """Write text to path, or to stdout when path is None or "-"."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(EXIT_USAGE, f"cannot write {path}: {exc}") from exc


def cmd_energy(args: argparse.Namespace) -> int:
    a_set = _read_set(args.set_file)
    report = energy(a_set)
    out = {
        "n": report.set_size,
        "diff_size": report.diff_size,
        "energy": report.energy,
        "K": _frac_str(report.K),
    }
    sys.stdout.write(json.dumps(out, indent=2) + "\n")
    return EXIT_OK


def cmd_extract(args: argparse.Namespace) -> int:
    a_set = _read_set(args.set_file)
    eps = _parse_eps(args.eps)
    report = extract(a_set, Params(eps=eps))
    try:
        doc = report.to_json_dict()
    # a bound past Python's int-to-str digit limit, which only a tiny eps reaches
    except ValueError as exc:
        raise _CliError(EXIT_BAD_EPS, "eps is too small: a bound passes Python's int-to-str limit") from exc
    text = json.dumps(doc, indent=2) + "\n"

    size_ratio = float(report.a_prime_size) / float(report.size_bound_sq) ** 0.5
    diff_ratio = float(Fraction(report.diff_size) / report.diff_bound)
    summary = (
        f"case={report.case} n={report.set_size} "
        f"a_prime={report.a_prime_size} diff={report.diff_size} "
        f"size_ratio={size_ratio:.6g} diff_ratio={diff_ratio:.6g}\n"
    )
    _write_text(args.out, text)
    # the summary goes to stderr whenever the report occupies stdout
    (sys.stderr if args.out in (None, "-") else sys.stdout).write(summary)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    a_set = _read_set(args.set_file)
    try:
        with open(args.report_file, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    # a file that is not UTF-8 or not JSON, or nested past the recursion limit
    except (OSError, ValueError, RecursionError) as exc:
        raise _CliError(EXIT_USAGE, f"cannot read report: {exc}") from exc
    try:
        result = verify_report_dict(a_set, report)
    # a malformed set field raises AsetFormatError, a ValueError
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise _CliError(EXIT_USAGE, f"invalid report: {exc}") from exc
    sys.stdout.write(json.dumps(result.to_json_dict(), indent=2) + "\n")
    return _VERIFY_EXIT[result.status]


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        a_set = GenSpec(args.family, tuple(vars(args)[f] for f, _ in _FAMILIES[args.family][3])).build()
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from exc
    data = serialize_set(a_set).decode("utf-8")
    _write_text(args.out, data)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    if not args.eps.strip():
        raise _CliError(EXIT_BAD_EPS, "no eps values given")
    eps_list = [_parse_eps(t.strip()) for t in args.eps.split(",")]
    try:
        specs = [GenSpec.parse(t) for t in args.families]
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from exc

    rows: List[List[str]] = []
    for spec in specs:
        try:
            a_set = spec.build()
        except ValueError as exc:
            raise _CliError(EXIT_USAGE, f"{spec.label()}: {exc}") from exc
        for eps in eps_list:
            report = extract(a_set, Params(eps=eps))
            ratio = Fraction(report.diff_size, report.a_prime_size) / report.K**4
            rows.append(
                [
                    spec.family,
                    ",".join(str(a) for a in spec.args),
                    str(report.set_size),
                    str(report.energy),
                    _frac_str(report.K),
                    report.case,
                    str(report.a_prime_size),
                    str(report.diff_size),
                    repr(float(ratio)),
                ]
            )

    header = ["family", "params", "n", "E", "K", "case", "a_prime_size", "diff_size", "ratio"]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(args.csv, text.getvalue())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsgx",
        description="Extract a subset with provably small difference set from a high-energy set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_energy = sub.add_parser("energy", help="print size, difference-set size, energy, and K")
    p_energy.add_argument("set_file")
    p_energy.set_defaults(func=cmd_energy)

    p_extract = sub.add_parser("extract", help="run the extraction and write a JSON report")
    p_extract.add_argument("set_file")
    p_extract.add_argument("--eps", required=True, help="rational in (0, 1/2), e.g. 1/4 or 0.25")
    p_extract.add_argument("--out", help="report path (default: stdout)")
    p_extract.set_defaults(func=cmd_extract)

    p_verify = sub.add_parser("verify", help="recount every claim of a report from its input set")
    p_verify.add_argument("set_file")
    p_verify.add_argument("report_file")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="write a generated set in the ASET v1 format")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)

    for family, (_, _, text, flags) in _FAMILIES.items():
        g_family = gen_sub.add_parser(family, help=text)
        for flag, default in flags:
            g_family.add_argument("--" + flag.replace("_", "-"), type=int,
                                  required=default is None, default=default)
        g_family.add_argument("--out")
        g_family.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="run extract across families and eps values, emit CSV")
    p_bench.add_argument("--families", nargs="+", required=True,
                         help="family specs like ap:100 axis:101,3 random:63,127,7")
    p_bench.add_argument("--eps", default="1/10,1/4,2/5",
                         help="comma-separated eps list (default 1/10,1/4,2/5)")
    p_bench.add_argument("--csv", help="output path (default: stdout)")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except InvariantViolation as exc:
        sys.stderr.write(f"error: internal assertion failed: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
