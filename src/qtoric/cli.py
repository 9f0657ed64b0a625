"""Command-line front end.

Every command prints one machine-readable report to standard output and
returns a contractual exit code:

    0   success (including negative but well-posed verdicts)
    2   usage error: bad flags, unreadable file, malformed JSON or schema
    3   mathematically invalid input (the validity condition fails)
    4   internal consistency failure: the closed-form layer and an
        independent oracle disagree, or a built-in certificate fails its own
        check; this code is a test-harness hook and should never appear

Characteristic pairs are read from a file path or from standard input when
the path is "-", as JSON: {"n": int, "m": int, "a": [int]*m, "b": [int]*n}.
Reports are JSON (default) or TSV via --format tsv; both are
byte-deterministic for fixed inputs.

Sizes are capped by ``SIZE_LIMITS`` before any work starts, so no input
runs unbounded; a breach is a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .classify import (
    canonical_class,
    count_nonbott,
    enumerate_classes,
    homeomorphic,
)
from .oracle import (
    WITNESS_FAMILIES,
    WITNESS_PARAMS,
    builtin_witness,
    ring_iso_search,
    witness_check,
)
from .quasitoric import (
    CharPair,
    cohomology_presentation,
    graded_ranks,
    h_vector,
    kernel_lattice,
    validate,
    validate_bruteforce,
)

__all__ = ["SIZE_LIMITS", "build_parser", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_INCONSISTENT = 4


# The largest size each command accepts, by quantity; "n + m" and "entry
# digits" (decimal digits of the largest |entry|) are read from the input
# pairs, the flags from the command line.  Each cap keeps its command's
# worst case within about a second: the brute-force validity check is
# O(nm (n+m)^3), graded ranks and ring lattices and a Bott label's key
# (a series with nm products) all grow their coefficients with n + m times
# the entry digits, enumeration visits about C(2 bound + n, n) vectors, and
# the isomorphism search loops (2 bound + 1)^4 times to list its
# candidates.  The count is closed form; its cap keeps the printed count
# within the interpreter's digit limit for integers.
SIZE_LIMITS = {
    "validate": {"n + m": 32},
    "classify": {"n + m": 128, "entry digits": 100},
    "compare": {"n + m": 128, "entry digits": 100},
    "cohomology": {"n + m": 14, "entry digits": 100},
    "kernel": {"n + m": 32},
    "oracle-iso": {"n + m": 14, "--bound": 10},
    "enumerate": {"--n": 8, "--bound": 4},  # --m is at most --n
    "count": {"--n": 1_000_000},  # --m is at most --n
    "witness-check": {"--n": 32, "--m": 32},
}


class UsageError(Exception):
    pass


class InvalidInputError(Exception):
    pass


class ConsistencyError(Exception):
    pass


def _read_document(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError("cannot read %s: %s" % (path, exc))
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers past the
        # interpreter's digit limit; RecursionError, nesting too deep
        raise UsageError("malformed JSON in %s: %s" % (path, exc))


def _pair_from_document(doc) -> CharPair:
    try:
        return CharPair.from_json_dict(doc)
    except (ValueError, TypeError, KeyError) as exc:
        raise UsageError("bad characteristic-pair document: %s" % exc)


def _read_pair(path: str) -> CharPair:
    return _pair_from_document(_read_document(path))


def _read_two_pairs(paths: List[str]) -> tuple:
    if len(paths) not in (1, 2):
        raise UsageError("expected one or two inputs, got %d" % len(paths))
    if len(paths) == 1:
        doc = _read_document(paths[0])
        if not isinstance(doc, list) or len(doc) != 2:
            raise UsageError(
                "single input must be a JSON array of two characteristic pairs"
            )
        return _pair_from_document(doc[0]), _pair_from_document(doc[1])
    if paths.count("-") > 1:
        raise UsageError("at most one input may be standard input")
    return _read_pair(paths[0]), _read_pair(paths[1])


def _check_size(args, quantity: str, value: Optional[int]) -> None:
    limit = SIZE_LIMITS[args.command][quantity]
    if value is not None and value > limit:
        raise UsageError(
            "%s %s must be at most %d, got %d" % (args.command, quantity, limit, value)
        )


def _check_pair_sizes(args, *pairs: CharPair) -> None:
    check_digits = "entry digits" in SIZE_LIMITS[args.command]
    for cp in pairs:
        _check_size(args, "n + m", cp.n + cp.m)
        if check_digits:
            _check_size(args, "entry digits", max(len(str(abs(x))) for x in cp.a + cp.b))


def _require_valid(cp: CharPair) -> None:
    if not validate(cp):
        raise InvalidInputError(
            "characteristic pair fails the validity condition"
        )


def _print_json(report) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def _print_tsv(rows: List[List[object]]) -> None:
    for row in rows:
        print("\t".join("" if cell is None else str(cell) for cell in row))


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def _class_tsv_row(c) -> List[object]:
    rep = c.representative
    return [
        c.family,
        c.n,
        c.m,
        c.s,
        c.r,
        c.orientation,
        _join(c.vec) if c.vec is not None else None,
        _join(rep.a) if rep else None,
        _join(rep.b) if rep else None,
    ]


_CLASS_TSV_HEADER = [
    "family",
    "n",
    "m",
    "s",
    "r",
    "orientation",
    "vec",
    "rep_a",
    "rep_b",
]


def cmd_validate(args) -> int:
    cp = _read_pair(args.input)
    _check_pair_sizes(args, cp)
    fast = validate(cp)
    slow = validate_bruteforce(cp)
    report = {"valid": fast, "oracle_valid": slow, "agreement": fast == slow}
    if args.format == "tsv":
        _print_tsv(
            [["valid", "oracle_valid", "agreement"], [fast, slow, fast == slow]]
        )
    else:
        _print_json(report)
    if fast != slow:
        raise ConsistencyError("validity closed form disagrees with brute force")
    return EXIT_OK


def cmd_classify(args) -> int:
    cp = _read_pair(args.input)
    _check_pair_sizes(args, cp)
    _require_valid(cp)
    label = canonical_class(cp)
    if args.format == "tsv":
        _print_tsv([_CLASS_TSV_HEADER, _class_tsv_row(label)])
    else:
        _print_json(label.to_json_dict())
    return EXIT_OK


def cmd_compare(args) -> int:
    cp1, cp2 = _read_two_pairs(args.inputs)
    _check_pair_sizes(args, cp1, cp2)
    _require_valid(cp1)
    _require_valid(cp2)
    verdict, rule = homeomorphic(cp1, cp2)
    report = {
        "homeomorphic": verdict,
        "rule": rule,
        "left": canonical_class(cp1).to_json_dict(),
        "right": canonical_class(cp2).to_json_dict(),
    }
    if args.format == "tsv":
        _print_tsv([["homeomorphic", "rule"], [verdict, rule]])
    else:
        _print_json(report)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    _check_size(args, "--n", args.n)
    _check_size(args, "--bound", args.bound)
    try:
        classes = enumerate_classes(args.n, args.m, args.bound)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.format == "tsv":
        rows = [_CLASS_TSV_HEADER] + [_class_tsv_row(c) for c in classes]
        _print_tsv(rows)
    else:
        _print_json(
            {
                "n": args.n,
                "m": args.m,
                "bound": args.bound,
                "count": len(classes),
                "classes": [c.to_json_dict() for c in classes],
            }
        )
    return EXIT_OK


def cmd_count(args) -> int:
    _check_size(args, "--n", args.n)
    try:
        value = count_nonbott(args.n, args.m)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.format == "tsv":
        _print_tsv([["n", "m", "count"], [args.n, args.m, value]])
    else:
        _print_json({"n": args.n, "m": args.m, "count": value})
    return EXIT_OK


def cmd_cohomology(args) -> int:
    cp = _read_pair(args.input)
    _check_pair_sizes(args, cp)
    _require_valid(cp)
    pres = cohomology_presentation(cp)
    ranks = graded_ranks(pres)
    report = {
        "presentation": pres.to_json_dict(),
        "graded_ranks": list(ranks.ranks),
        "h_vector": list(h_vector(cp.n, cp.m)),
        "torsion_free": ranks.torsion_free,
    }
    if args.format == "tsv":
        _print_tsv(
            [
                ["gen1", pres.gen1.degree, _join(pres.gen1.coeffs)],
                ["gen2", pres.gen2.degree, _join(pres.gen2.coeffs)],
                ["ranks", None, _join(ranks.ranks)],
            ]
        )
    else:
        _print_json(report)
    return EXIT_OK


def cmd_kernel(args) -> int:
    cp = _read_pair(args.input)
    _check_pair_sizes(args, cp)
    _require_valid(cp)
    basis = kernel_lattice(cp)
    rows = [list(v) for v in basis.basis]
    if args.format == "tsv":
        _print_tsv(rows)
    else:
        _print_json(
            {
                "n": cp.n,
                "m": cp.m,
                "ambient_dim": basis.ambient_dim,
                "rank": basis.rank,
                "basis": rows,
            }
        )
    return EXIT_OK


def cmd_oracle_iso(args) -> int:
    if args.bound < 0:
        raise UsageError("--bound must be nonnegative")
    _check_size(args, "--bound", args.bound)
    cp1, cp2 = _read_two_pairs(args.inputs)
    _check_pair_sizes(args, cp1, cp2)
    _require_valid(cp1)
    _require_valid(cp2)
    p1, p2 = cohomology_presentation(cp1), cohomology_presentation(cp2)
    try:
        verdict = ring_iso_search(p1, p2, args.bound)
    except ValueError as exc:
        # the two rings' generator degrees differ: nothing to search
        raise UsageError(str(exc))
    homeo, rule = homeomorphic(cp1, cp2)
    report = verdict.to_json_dict()
    report["homeomorphic"] = homeo
    report["rule"] = rule
    report["agreement"] = verdict.found == homeo
    if args.format == "tsv":
        _print_tsv(
            [
                ["found", "homeomorphic", "rule", "agreement"],
                [verdict.found, homeo, rule, verdict.found == homeo],
            ]
        )
    else:
        _print_json(report)
    if verdict.found and not homeo:
        raise ConsistencyError(
            "bounded search found an isomorphism between classes the closed "
            "form separates"
        )
    return EXIT_OK


def cmd_witness_check(args) -> int:
    _check_size(args, "--n", args.n)
    _check_size(args, "--m", args.m)
    missing = [p for p in WITNESS_PARAMS[args.family] if getattr(args, p) is None]
    if missing:
        raise UsageError(
            "--family %s needs %s"
            % (args.family, ", ".join("--" + p for p in missing))
        )
    try:
        u, u_prime, witness = builtin_witness(
            args.family,
            n=args.n,
            m=args.m,
            s=args.s,
            r=args.r,
            a=args.a,
            b=args.b,
        )
    except ValueError as exc:
        raise InvalidInputError(str(exc))
    ok = witness_check(u, u_prime, witness)
    report = {
        "family": args.family,
        "ok": ok,
        "witness": witness.to_json_dict(),
    }
    if args.format == "tsv":
        _print_tsv([["family", "ok"], [args.family, ok]])
    else:
        _print_json(report)
    if not ok:
        raise ConsistencyError("built-in certificate failed its own check")
    return EXIT_OK


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("json", "tsv"),
        default="json",
        help="output format (default json)",
    )


def _add_single_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "input",
        nargs="?",
        default="-",
        help="characteristic-pair JSON file, or - for stdin (default)",
    )


def _add_double_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "inputs",
        nargs="+",
        help="two pair files (one may be -), or one document holding a "
        "two-element array",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtoric",
        description="classify quasitoric manifolds over a product of two "
        "simplices up to homeomorphism",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the characteristic condition")
    _add_single_input(p)
    _add_format(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="canonical homeomorphism-class label")
    _add_single_input(p)
    _add_format(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("compare", help="decide homeomorphism of two pairs")
    _add_double_input(p)
    _add_format(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("enumerate", help="all classes within an entry bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--bound", type=int, default=3)
    _add_format(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("count", help="closed-form count of non-Bott classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser(
        "cohomology", help="ring presentation and graded ranks"
    )
    _add_single_input(p)
    _add_format(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("kernel", help="free-subtorus weight lattice basis")
    _add_single_input(p)
    _add_format(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser(
        "oracle-iso",
        help="brute-force graded-isomorphism search, cross-checked against "
        "the classifier",
    )
    _add_double_input(p)
    p.add_argument("--bound", type=int, default=3)
    _add_format(p)
    p.set_defaults(func=cmd_oracle_iso)

    p = sub.add_parser(
        "witness-check",
        help="rebuild a built-in equivariance certificate and verify it",
    )
    p.add_argument("--family", choices=WITNESS_FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    _add_format(p)
    p.set_defaults(func=cmd_witness_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except InvalidInputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except ConsistencyError as exc:
        print("internal consistency failure: %s" % exc, file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
