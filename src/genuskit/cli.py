"""Command-line front end: genuskit <verb> [arguments] [options].

One verb per invocation; results go to stdout, diagnostics to stderr.
Exit status: 0 success, 1 invalid input, 2 resource limit exceeded.
Options follow the verb, before or after its arguments: --json, --cap N
or --cap=N, and --only TEXT for check; a unique prefix such as --js names
an option, every token after -- is an argument, and -h or --help prints
this.  With --json the output is a single object {verb, inputs, result,
elapsedMs}; a resource limit prints {verb, error: {message, phase, needed,
cap, lowerBound}} instead, next to the usual line on stderr.  main() may
be called any number of times in one process: it reads the arguments, the
cap and the environment afresh on every call.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from types import SimpleNamespace

# eager on purpose: imported inside `check`, it would be compiled within the
# first check's call; it holds only the atom-catalog criteria and imports the
# oracle criteria, genuskit.oracle_checks, on the first run of one of them
from . import acceptance
from .atoms import atom_a, endo_order, genus_of_atom, parse_atom
from .errors import InternalInconsistencyError, ResourceLimitError
from .matrices import DEFAULT_CAP, gl_order, stable_image_order
from .orders import genus, genus_relative, load_order_spec
from .rings import gcd, totient
from .specs import genus_pullback_formula, pullback_spec

CAP_ENV_VAR = "GENUSKIT_CAP"

# verb: (positional names, help); the positionals m and r are ints
_VERBS = {
    "totient": (("m",), "Euler totient of m"),
    "gl-order": (("r", "m"), "order of GL(r, Z/m)"),
    "stable-image": (("r", "m"), "order of the subgroup of GL(r, Z/m) "
                     "generated by elementary matrices"),
    "double-cosets": (("spec",), "double-coset count for an order spec JSON file"),
    "genus-order": (("spec",), "genus of an order spec JSON file"),
    "genus-pullback": (("m",), "genus of the congruence pullback of Z x Z at "
                       "level m, by enumeration and by formula"),
    "genus-atom": (("atom",), 'genus of an atom, e.g. "A(6)@10"'),
    "table-A": ((), "genus table of the atoms A(v) for v = 1..12"),
    "check": ((), "run the acceptance checks"),
}
_OPTIONS = ("--help", "--json", "--cap", "--only")  # --only for check alone

# a token that starts with "-" is an option unless it is "-" or reads as a
# negative number, so that "--cap -5" and "totient -5" reach the range checks
_is_value = re.compile(r"(?s)(?!-).*|-|-\d+|-\d*\.\d+").fullmatch


class _UsageError(ValueError):
    pass


def _int(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"{name} must be an integer, got {text!r}") from None


def _parse(argv) -> SimpleNamespace | None:
    """The verb, its positionals by name, json, cap and only; None when -h
    or --help asks for the help.  A bad value fails at once, a missing or
    surplus token only after the last token, as -h may still come."""
    args = SimpleNamespace(verb=None, json=False, cap=None, only=None)
    names, values, extras = (), [], []
    dashdash = False
    tokens = iter(argv)
    for token in tokens:
        if dashdash or _is_value(token) or token == "--" and args.verb is None:
            if args.verb is None:
                if token not in _VERBS:
                    raise _UsageError(f"unknown verb {token!r}; "
                                      f"choose from {', '.join(_VERBS)}")
                args.verb, names = token, _VERBS[token][0]
            elif len(values) < len(names):
                name = names[len(values)]
                values.append(_int(name, token) if name in ("m", "r") else token)
            else:
                extras.append(token)
            continue
        if token == "--":
            dashdash = True
            continue
        name, eq, value = token.partition("=")
        # before the verb only --help is known; the options differ in their
        # first letter, so no prefix of one is ambiguous
        known = _OPTIONS[:1 if args.verb is None else 3 + (args.verb == "check")]
        option = "--help" if token == "-h" else next(
            (o for o in known if len(name) > 2 and o.startswith(name)), None)
        if option is None:
            extras.append(token)
        elif eq and option in ("--help", "--json"):
            raise _UsageError(f"argument {option} takes no value")
        elif option == "--help":
            return None
        elif option == "--json":
            args.json = True
        else:
            if not eq:
                value = next(tokens, None)
                if value is None or not _is_value(value):
                    raise _UsageError(f"argument {option} expects one value")
            setattr(args, option[2:], _int(option, value) if option == "--cap" else value)
    if args.verb is None:
        raise _UsageError(f"a verb is required; choose from {', '.join(_VERBS)}")
    if len(values) < len(names):
        raise _UsageError(f"{args.verb} needs {' '.join(names)}")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    vars(args).update(zip(names, values))
    return args


def _resolve_cap(args) -> int:
    if args.cap is not None:  # flag wins over the environment
        return args.cap
    env = os.environ.get(CAP_ENV_VAR)
    return DEFAULT_CAP if env is None else _int(CAP_ENV_VAR, env)


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
        value = totient(args.m, cap)
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
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:  # -h or --help
            print(f"{__doc__}\n--cap defaults to ${CAP_ENV_VAR}, else {DEFAULT_CAP}.\n\nverbs:")
            for verb, (names, text) in _VERBS.items():
                print(f"  {' '.join((verb,) + names):<22} {text}")
            return 0
        cap = _resolve_cap(args)
        started = time.perf_counter()
        result, inputs, lines, status = _run_verb(args, cap)
        elapsed_ms = int(round((time.perf_counter() - started) * 1000))
    except (ValueError, OSError) as exc:  # _UsageError is a ValueError
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
