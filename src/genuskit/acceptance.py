"""Self-check bundle: every shipped numeric claim, runnable as one suite.

Each check returns a CheckResult; the CLI ``check`` verb and the acceptance
tests both drive this module, so there is a single source of truth for what
"the build is correct" means.  All comparisons are exact integer equality.

The three criteria on the atom catalog live here.  The five that check the
engine against an oracle live in :mod:`genuskit.oracle_checks`, which their
entries in CRITERIA import on the first run of one of them: that module
and the generic engine it drives are the larger part of the suite's code,
and a process that runs only catalog criteria never compiles them.
"""

from __future__ import annotations

import time

from . import atoms as atoms_mod
from .errors import Frozen
from .matrices import DEFAULT_CAP
from .rings import gcd


class CheckResult(Frozen):
    __slots__ = ("name", "passed", "expected", "actual", "elapsed_s")
    name: str
    passed: bool
    expected: str
    actual: str
    elapsed_s: float


def _result(name, start, failures, expected, total) -> CheckResult:
    elapsed = time.perf_counter() - start
    if failures:
        shown = "; ".join(failures[:3])
        if len(failures) > 3:
            shown += f"; ... {len(failures)} failures in total"
        return CheckResult(name, False, expected, shown, elapsed)
    return CheckResult(name, True, expected, f"all {total} cases agree", elapsed)


def check_atom_table(cap: int = DEFAULT_CAP) -> CheckResult:
    """Genus of A(v) follows the gcd(v,24) rule: 4 / 2 / 1."""
    start = time.perf_counter()
    failures = []
    for v in range(1, 13):
        d = gcd(v, 24)
        expected = 4 if d == 1 else (2 if d in (2, 3) else 1)
        got = atoms_mod.genus_of_atom(atoms_mod.atom_a(v), cap)
        if got != expected:
            failures.append(f"v={v} (d={d}): got {got}, expected {expected}")
    return _result(
        "atom-table", start, failures,
        "g(A(v)) = 4 if gcd(v,24)=1, 2 if gcd in {2,3}, else 1", 12,
    )


_GENUS_ONE_ATOMS = (
    lambda: atoms_mod.moore(2),
    lambda: atoms_mod.moore(3),
    lambda: atoms_mod.moore(4),
    lambda: atoms_mod.moore(8),
    lambda: atoms_mod.chang_full(1, 1),
    lambda: atoms_mod.chang_r_eta(1),
    lambda: atoms_mod.chang_eta_s(2),
    lambda: atoms_mod.chang_eta(),
    lambda: atoms_mod.chang_eta_sq(),
)


def check_genus_one_catalog(cap: int = DEFAULT_CAP) -> CheckResult:
    """Moore and Chang atoms all have a single class in their genus."""
    start = time.perf_counter()
    failures = []
    for make in _GENUS_ONE_ATOMS:
        atom = make()
        got = atoms_mod.genus_of_atom(atom, cap)
        if got != 1:
            failures.append(f"{atoms_mod.format_atom(atom)}: got {got}")
    return _result(
        "genus-one-catalog", start, failures,
        "every Moore/Chang catalog atom has genus 1", len(_GENUS_ONE_ATOMS),
    )


def check_same_genus_classes(cap: int = DEFAULT_CAP) -> CheckResult:
    """same_genus is an equivalence on {A(v)} with gcd(v,24) fibers, and the
    genus is constant on every class."""
    start = time.perf_counter()
    failures = []
    family = [atoms_mod.atom_a(v) for v in range(1, 13)]
    # same_genus is pure, so one call per pair serves every property below
    same = {(a.v, b.v): atoms_mod.same_genus(a, b) for a in family for b in family}
    for a in family:
        if not same[a.v, a.v]:
            failures.append(f"not reflexive at v={a.v}")
    for a in family:
        for b in family:
            if same[a.v, b.v] != same[b.v, a.v]:
                failures.append(f"not symmetric at v={a.v}, v={b.v}")
            if same[a.v, b.v] != (gcd(a.v, 24) == gcd(b.v, 24)):
                failures.append(f"class of v={a.v}, v={b.v} is not the gcd fiber")
            for c in family:
                if same[a.v, b.v] and same[b.v, c.v] and not same[a.v, c.v]:
                    failures.append(f"not transitive at v={a.v},{b.v},{c.v}")
    genera = [atoms_mod.genus_of_atom(a, cap) for a in family]
    for a, genus_a in zip(family, genera):
        for b, genus_b in zip(family, genera):
            if same[a.v, b.v] and genus_a != genus_b:
                failures.append(f"genus differs inside a class: v={a.v}, v={b.v}")
    return _result(
        "same-genus-classes", start, failures,
        "equivalence relation with classes = gcd(v,24) fibers, "
        "genus constant per class", len(family) ** 2,
    )


def _oracle(name: str):
    """The criterion ``name`` of genuskit.oracle_checks, imported on its run."""
    def run(cap: int = DEFAULT_CAP) -> CheckResult:
        from . import oracle_checks
        return getattr(oracle_checks, name)(cap)

    return run


CRITERIA: tuple[tuple[str, object], ...] = (
    ("pullback-oracle", _oracle("check_pullback_oracle")),
    ("atom-table", check_atom_table),
    ("genus-one-catalog", check_genus_one_catalog),
    ("stable-image", _oracle("check_stable_image")),
    ("small-level-genus-one", _oracle("check_small_level_genus_one")),
    ("bound-and-monotonicity", _oracle("check_bound_and_monotonicity")),
    ("partition-properties", _oracle("check_partition_properties")),
    ("same-genus-classes", check_same_genus_classes),
)


def run_all(cap: int = DEFAULT_CAP, only: str | None = None) -> list[CheckResult]:
    """Run the acceptance checks, optionally filtered by name substring."""
    selected = [
        runner for name, runner in CRITERIA if only is None or only in name
    ]
    if not selected:
        raise ValueError(f"no acceptance check matches {only!r}")
    return [runner(cap) for runner in selected]
