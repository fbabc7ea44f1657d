"""Command-line front end.

One verb per invocation; results go to stdout, diagnostics to stderr.
Exit status: 0 success, 1 invalid input, 2 resource limit exceeded.
With --json the output is a single object {verb, inputs, result, elapsedMs};
a resource limit prints {verb, error: {message, phase, needed, cap,
lowerBound}} instead, next to the usual line on stderr.
main() may be called any number of times in one process: the argument
parser is built on the first call and reused, while the cap and the
environment are read afresh on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import acceptance
from .atoms import atom_a, endo_order, genus_of_atom, parse_atom
from .errors import InternalInconsistencyError, ResourceLimitError
from .matrices import DEFAULT_CAP, gl_order, stable_image_order
from .orders import (
    genus,
    genus_pullback_formula,
    genus_relative,
    load_order_spec,
    pullback_spec,
)
from .rings import gcd, totient

CAP_ENV_VAR = "GENUSKIT_CAP"


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 means resource-limit here,
    # so usage problems are rerouted through the invalid-input path instead
    def error(self, message):
        raise _UsageError(message)


# built on the first main() call, not at import, so importing stays cheap;
# parse_args keeps no state between calls, so one parser serves them all
@functools.cache
def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit a single JSON object"
    )
    common.add_argument(
        "--cap",
        type=int,
        default=None,
        help=f"enumeration cap (default {DEFAULT_CAP}; env {CAP_ENV_VAR})",
    )

    parser = _Parser(prog="genuskit", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("totient", parents=[common], help="Euler totient of m")
    p.add_argument("m", type=int)

    for verb, group in [
        ("gl-order", "GL(r, Z/m)"),
        ("stable-image", "the subgroup of GL(r, Z/m) generated by elementary matrices"),
    ]:
        p = sub.add_parser(verb, parents=[common], help=f"order of {group}")
        p.add_argument("r", type=int)
        p.add_argument("m", type=int)

    p = sub.add_parser(
        "double-cosets", parents=[common],
        help="double-coset count for an order spec JSON file",
    )
    p.add_argument("spec", help="path to the order spec")

    p = sub.add_parser(
        "genus-order", parents=[common], help="genus of an order spec JSON file"
    )
    p.add_argument("spec", help="path to the order spec")

    p = sub.add_parser(
        "genus-pullback", parents=[common],
        help="genus of the congruence pullback of Z x Z at level m, "
        "by enumeration and by formula",
    )
    p.add_argument("m", type=int)

    p = sub.add_parser(
        "genus-atom", parents=[common], help='genus of an atom, e.g. "A(6)@10"'
    )
    p.add_argument("atom")

    sub.add_parser(
        "table-A", parents=[common],
        help="genus table of the atoms A(v) for v = 1..12",
    )

    p = sub.add_parser(
        "check", parents=[common], help="run the acceptance checks"
    )
    p.add_argument(
        "--only", default=None, help="run only checks whose name contains this"
    )
    return parser


def _resolve_cap(args) -> int:
    if args.cap is not None:  # flag wins over the environment
        return args.cap
    env = os.environ.get(CAP_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise _UsageError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from exc
    return DEFAULT_CAP


def _table_a_rows(cap: int) -> list[dict]:
    rows = []
    for v in range(1, 13):
        level = endo_order(atom_a(v)).level
        engine = genus(pullback_spec(level), cap).total
        formula = genus_pullback_formula(level)
        if engine != formula:
            raise InternalInconsistencyError(
                f"row v={v}: enumeration gives {engine}, formula gives {formula}"
            )
        rows.append(
            {"v": v, "d": gcd(v, 24), "m": level, "gBrute": engine, "gFormula": formula}
        )
    return rows


def _run_verb(args, cap: int) -> tuple[object, dict, list[str], int]:
    """Returns (json result, inputs echo, text lines, exit status)."""
    verb = args.verb
    if verb == "totient":
        value = totient(args.m)
        return value, {"m": args.m}, [str(value)], 0
    if verb in ("gl-order", "stable-image"):
        order = gl_order if verb == "gl-order" else stable_image_order
        value = order(args.r, args.m, cap)
        return value, {"r": args.r, "m": args.m}, [str(value)], 0
    if verb == "double-cosets":
        spec = load_order_spec(args.spec)
        value = genus_relative(spec, cap)
        return value, {"spec": args.spec}, [str(value)], 0
    if verb == "genus-order":
        spec = load_order_spec(args.spec)
        result = genus(spec, cap)
        payload = {
            "total": result.total,
            "relative": result.relative_count,
            "maximal": result.maximal_count,
            "bound": result.bound,
        }
        line = (
            f"total={result.total} relative={result.relative_count} "
            f"bound={result.bound}"
        )
        return payload, {"spec": args.spec}, [line], 0
    if verb == "genus-pullback":
        brute = genus(pullback_spec(args.m), cap).total
        formula = genus_pullback_formula(args.m)
        payload = {"brute": brute, "formula": formula}
        return payload, {"m": args.m}, [f"brute={brute} formula={formula}"], 0
    if verb == "genus-atom":
        atom = parse_atom(args.atom)
        value = genus_of_atom(atom, cap)
        return value, {"atom": args.atom}, [str(value)], 0
    if verb == "table-A":
        rows = _table_a_rows(cap)
        lines = [f"{'v':>3} {'d':>3} {'m':>3} {'g(brute)':>9} {'g(formula)':>11}"]
        for row in rows:
            lines.append(
                f"{row['v']:>3} {row['d']:>3} {row['m']:>3} "
                f"{row['gBrute']:>9} {row['gFormula']:>11}"
            )
        return rows, {}, lines, 0
    if verb == "check":
        results = acceptance.run_all(cap, only=args.only)
        lines = []
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            lines.append(
                f"{status} {res.name}: expected {res.expected}; "
                f"got {res.actual} ({res.elapsed_s:.2f}s)"
            )
        failed = sum(1 for res in results if not res.passed)
        lines.append(
            f"{len(results) - failed}/{len(results)} checks passed"
        )
        payload = {
            "passed": failed == 0,
            "checks": [
                {
                    "name": res.name,
                    "passed": res.passed,
                    "expected": res.expected,
                    "actual": res.actual,
                }
                for res in results
            ],
        }
        return payload, {"only": args.only}, lines, 0 if failed == 0 else 1
    raise _UsageError(f"unknown verb {verb!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    try:
        cap = _resolve_cap(args)
        started = time.perf_counter()
        result, inputs, lines, status = _run_verb(args, cap)
        elapsed_ms = int(round((time.perf_counter() - started) * 1000))
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        if args.json:
            error = {
                "message": str(exc),
                "phase": exc.phase,
                "needed": exc.needed,
                "cap": exc.cap,
                "lowerBound": exc.lower_bound,
            }
            print(json.dumps({"verb": args.verb, "error": error}, sort_keys=True))
        return 2

    if args.json:
        envelope = {
            "verb": args.verb,
            "inputs": inputs,
            "result": result,
            "elapsedMs": elapsed_ms,
        }
        print(json.dumps(envelope, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
