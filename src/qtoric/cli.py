"""Command-line front end.

Every command returns one machine-readable report, which ``main`` prints
to standard output, and ``main`` returns a contractual exit code:

    0   success (including negative but well-posed verdicts)
    2   usage error: bad flags, unreadable file, malformed JSON or schema
    3   mathematically invalid input (the validity condition fails)
    4   internal consistency failure: the closed-form layer and an
        independent oracle disagree, or a built-in certificate fails its own
        check; the report is printed first, then the message on standard
        error; this code is a test-harness hook and should never appear

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
from typing import List, Optional, Sequence, Tuple

from .classify import (
    _homeomorphic_labelled,
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
# pairs, the flags from the command line, which ``main`` checks before it
# calls the command.  Each cap keeps its command's worst case within about
# a second: the brute-force validity check is O(nm (n+m)^3), graded ranks
# and ring lattices and a Bott label's key (a series with nm products) all
# grow their coefficients with n + m times the entry digits, enumeration
# visits about C(2 bound + n, n) vectors, and the isomorphism search loops
# (2 bound + 1)^4 times to list its candidates.  The count is closed form;
# its cap keeps the printed count within the interpreter's digit limit for
# integers.
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


def _read_valid_pairs(args, paths: List[str], count: int) -> List[CharPair]:
    """A command's ``count`` pairs, one per path or, for two pairs, both
    from one document holding a two-element array; checked for size, then
    for validity."""
    if len(paths) == count:
        if paths.count("-") > 1:
            raise UsageError("at most one input may be standard input")
        pairs = [_read_pair(path) for path in paths]
    elif len(paths) == 1:
        doc = _read_document(paths[0])
        if not isinstance(doc, list) or len(doc) != count:
            raise UsageError(
                "single input must be a JSON array of two characteristic pairs"
            )
        pairs = [_pair_from_document(item) for item in doc]
    else:
        raise UsageError("expected one or two inputs, got %d" % len(paths))
    _check_pair_sizes(args, *pairs)
    for cp in pairs:
        _require_valid(cp)
    return pairs


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
        _join(rep.a),
        _join(rep.b),
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

# What each command returns: its JSON report, its TSV rows, and the
# disagreement between the closed form and an oracle, or None.
_Outcome = Tuple[object, List[List[object]], Optional[str]]


def cmd_validate(args) -> _Outcome:
    cp = _read_pair(args.input)
    _check_pair_sizes(args, cp)
    fast = validate(cp)
    slow = validate_bruteforce(cp)
    report = {"valid": fast, "oracle_valid": slow, "agreement": fast == slow}
    rows = [["valid", "oracle_valid", "agreement"], [fast, slow, fast == slow]]
    if fast != slow:
        return report, rows, "validity closed form disagrees with brute force"
    return report, rows, None


def cmd_classify(args) -> _Outcome:
    (cp,) = _read_valid_pairs(args, [args.input], 1)
    label = canonical_class(cp)
    return label.to_json_dict(), [_CLASS_TSV_HEADER, _class_tsv_row(label)], None


def cmd_compare(args) -> _Outcome:
    cp1, cp2 = _read_valid_pairs(args, args.inputs, 2)
    c1, c2 = canonical_class(cp1), canonical_class(cp2)
    verdict, rule = _homeomorphic_labelled(cp1, c1, cp2, c2)
    report = {
        "homeomorphic": verdict,
        "rule": rule,
        "left": c1.to_json_dict(),
        "right": c2.to_json_dict(),
    }
    return report, [["homeomorphic", "rule"], [verdict, rule]], None


def cmd_enumerate(args) -> _Outcome:
    try:
        classes = enumerate_classes(args.n, args.m, args.bound)
    except ValueError as exc:
        raise UsageError(str(exc))
    report = {
        "n": args.n,
        "m": args.m,
        "bound": args.bound,
        "count": len(classes),
        "classes": [c.to_json_dict() for c in classes],
    }
    return report, [_CLASS_TSV_HEADER] + [_class_tsv_row(c) for c in classes], None


def cmd_count(args) -> _Outcome:
    try:
        value = count_nonbott(args.n, args.m)
    except ValueError as exc:
        raise UsageError(str(exc))
    report = {"n": args.n, "m": args.m, "count": value}
    return report, [["n", "m", "count"], [args.n, args.m, value]], None


def cmd_cohomology(args) -> _Outcome:
    (cp,) = _read_valid_pairs(args, [args.input], 1)
    pres = cohomology_presentation(cp)
    ranks = graded_ranks(pres)
    report = {
        "presentation": pres.to_json_dict(),
        "graded_ranks": list(ranks.ranks),
        "h_vector": list(h_vector(cp.n, cp.m)),
        "torsion_free": ranks.torsion_free,
    }
    rows = [
        ["gen1", pres.gen1.degree, _join(pres.gen1.coeffs)],
        ["gen2", pres.gen2.degree, _join(pres.gen2.coeffs)],
        ["ranks", None, _join(ranks.ranks)],
    ]
    return report, rows, None


def cmd_kernel(args) -> _Outcome:
    (cp,) = _read_valid_pairs(args, [args.input], 1)
    basis = kernel_lattice(cp)
    rows = [list(v) for v in basis.basis]
    report = {
        "n": cp.n,
        "m": cp.m,
        "ambient_dim": basis.ambient_dim,
        "rank": basis.rank,
        "basis": rows,
    }
    return report, rows, None


def cmd_oracle_iso(args) -> _Outcome:
    if args.bound < 0:
        raise UsageError("--bound must be nonnegative")
    cp1, cp2 = _read_valid_pairs(args, args.inputs, 2)
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
    rows = [
        ["found", "homeomorphic", "rule", "agreement"],
        [verdict.found, homeo, rule, verdict.found == homeo],
    ]
    if verdict.found and not homeo:
        return report, rows, (
            "bounded search found an isomorphism between classes the closed "
            "form separates"
        )
    return report, rows, None


def cmd_witness_check(args) -> _Outcome:
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
    rows = [["family", "ok"], [args.family, ok]]
    if not ok:
        return report, rows, "built-in certificate failed its own check"
    return report, rows, None


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
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="canonical homeomorphism-class label")
    _add_single_input(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("compare", help="decide homeomorphism of two pairs")
    _add_double_input(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("enumerate", help="all classes within an entry bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--bound", type=int, default=3)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("count", help="closed-form count of non-Bott classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser(
        "cohomology", help="ring presentation and graded ranks"
    )
    _add_single_input(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("kernel", help="free-subtorus weight lattice basis")
    _add_single_input(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser(
        "oracle-iso",
        help="brute-force graded-isomorphism search, cross-checked against "
        "the classifier",
    )
    _add_double_input(p)
    p.add_argument("--bound", type=int, default=3)
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
    p.set_defaults(func=cmd_witness_check)

    for p in sub.choices.values():
        p.add_argument(
            "--format",
            choices=("json", "tsv"),
            default="json",
            help="output format (default json)",
        )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for quantity in SIZE_LIMITS[args.command]:
            if quantity.startswith("--"):
                _check_size(args, quantity, getattr(args, quantity[2:]))
        report, rows, disagreement = args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except InvalidInputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    if args.format == "tsv":
        for row in rows:
            print("\t".join("" if cell is None else str(cell) for cell in row))
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    if disagreement is not None:
        # the report goes out first, so the disagreeing verdicts are on record
        print("internal consistency failure: %s" % disagreement, file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
