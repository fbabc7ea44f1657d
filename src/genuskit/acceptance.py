"""Self-check bundle: every shipped numeric claim, runnable as one suite.

Each check returns a CheckResult; the CLI ``check`` verb and the acceptance
tests both drive this module, so there is a single source of truth for what
"the build is correct" means.  All comparisons are exact integer equality.
"""

from __future__ import annotations

import random
import time

from . import atoms as atoms_mod
from . import matrices as matrices_mod
from . import orders as orders_mod
from .cosets import FiniteGroup, direct_product, double_coset_partition, subgroup_closure
from .errors import Frozen
from .matrices import DEFAULT_CAP, MatModM
from .rings import gcd, is_sign, sign_count, totient, unit_group

_SEED_SMALL_M = 0xC0FFEE
_SEED_BOUND = 0x5EED
_SEED_PARTITION = 0xD1CE


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


def check_pullback_oracle(cap: int = DEFAULT_CAP) -> CheckResult:
    """Engine genus of the pullback order equals the totient formula, m=1..30."""
    start = time.perf_counter()
    failures = []
    for m in range(1, 31):
        engine = orders_mod.genus(orders_mod.pullback_spec(m), cap).total
        formula = orders_mod.genus_pullback_formula(m)
        if engine != formula:
            failures.append(f"m={m}: engine={engine}, formula={formula}")
    return _result(
        "pullback-oracle", start, failures,
        "engine count == totient formula for every m in 1..30", 30,
    )


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


def check_stable_image(cap: int = DEFAULT_CAP) -> CheckResult:
    """Closure of elementary generators is exactly the det = +-1 subgroup,
    the fact that genus_relative's H and stable_image_order both rest on."""
    import numpy as np
    start = time.perf_counter()
    failures = []
    cases = [(2, m) for m in range(2, 13)] + [(3, m) for m in (2, 3, 4)]
    for r, m in cases:
        # both scans return ascending codes, so equal arrays are equal sets
        matrices_mod._check_scan_cap(r, m, cap)
        image = matrices_mod._stable_flat(r, m)
        expected = matrices_mod._gl_flat(r, m, is_sign(np.arange(m), m))
        if not np.array_equal(image, expected):
            failures.append(
                f"r={r}, m={m}: closure has {len(image)} elements, "
                f"det filter has {len(expected)}"
            )
    return _result(
        "stable-image", start, failures,
        "elementary closure == {A in GL(r,Z/m): det A = +-1} "
        "for r=2, m=2..12 and r=3, m=2..4", len(cases),
    )


def _random_matrix(rng: random.Random, m: int, r: int) -> MatModM:
    # mix dense, diagonal and scalar shapes so the generated subrings range
    # from the scalar copy of Z/m all the way to the full matrix ring
    style = rng.randrange(3)
    if style == 0:
        flat = tuple(rng.randrange(m) for _ in range(r * r))
    elif style == 1:
        flat = tuple(
            rng.randrange(m) if i == j else 0 for i in range(r) for j in range(r)
        )
    else:
        c = rng.randrange(m)
        flat = tuple(c if i == j else 0 for i in range(r) for j in range(r))
    return MatModM(m, r, flat)


def _random_spec(rng: random.Random, m: int, blocks: tuple[int, ...]) -> orders_mod.OrderSpec:
    n_gens = rng.randint(1, 2)
    gens = tuple(
        tuple(_random_matrix(rng, m, r) for r in blocks) for _ in range(n_gens)
    )
    return orders_mod.OrderSpec(m=m, blocks=blocks, generators=gens)


def check_small_level_genus_one(cap: int = DEFAULT_CAP) -> CheckResult:
    """Any order at level m in {2,3,4,6} has genus 1 (50 random specs)."""
    start = time.perf_counter()
    rng = random.Random(_SEED_SMALL_M)
    failures = []
    for i in range(50):
        m = rng.choice([2, 3, 4, 6])
        blocks = rng.choice([(1, 1), (2,)])
        spec = _random_spec(rng, m, blocks)
        total = orders_mod.genus(spec, cap).total
        if total != 1:
            failures.append(f"case {i} (m={m}, blocks={blocks}): genus {total}")
    return _result(
        "small-level-genus-one", start, failures,
        "genus 1 for 50 random orders at levels 2, 3, 4, 6", 50,
    )


def check_bound_and_monotonicity(cap: int = DEFAULT_CAP) -> CheckResult:
    """Genus stays within (phi(m)/2)^k and never grows when generators
    are added (50 random specs at levels 5, 8, 12, 24)."""
    start = time.perf_counter()
    rng = random.Random(_SEED_BOUND)
    failures = []
    for i in range(50):
        m = rng.choice([5, 8, 12, 24])
        blocks = rng.choice([(1, 1), (2,)])
        spec = _random_spec(rng, m, blocks)
        k = len(blocks)
        bound = (totient(m) // sign_count(m)) ** k
        total = orders_mod.genus(spec, cap).total
        if total > bound:
            failures.append(f"case {i} (m={m}, blocks={blocks}): {total} > {bound}")
            continue
        extra = _random_spec(rng, m, blocks).generators
        bigger = orders_mod.OrderSpec(
            m=m, blocks=blocks, generators=spec.generators + extra
        )
        total_bigger = orders_mod.genus(bigger, cap).total
        if total_bigger > total:
            failures.append(
                f"case {i} (m={m}, blocks={blocks}): genus rose "
                f"{total} -> {total_bigger} after adding a generator"
            )
    return _result(
        "bound-and-monotonicity", start, failures,
        "genus <= (phi(m)/2)^k and non-increasing under generator addition, "
        "50 random orders at levels 5, 8, 12, 24", 50,
    )


def _zoo_group(rng: random.Random) -> FiniteGroup:
    kind = rng.randrange(5)
    if kind == 0:
        n = rng.randint(2, 2000)
        return FiniteGroup(
            frozenset(range(n)), lambda a, b, n=n: (a + b) % n, 0, name=f"Z/{n}"
        )
    if kind == 1:
        return unit_group(rng.randint(2, 300))
    if kind == 2:
        while True:
            m1, m2 = rng.randint(2, 60), rng.randint(2, 60)
            if totient(m1) * totient(m2) <= 2000:
                return direct_product(unit_group(m1), unit_group(m2))
    if kind == 3:
        return matrices_mod.enumerate_gl(2, rng.choice([2, 3, 4, 5]))
    return matrices_mod.stable_image(2, rng.choice([3, 4, 5, 6]))


def _zoo_subgroup(rng: random.Random, group: FiniteGroup):
    elements = list(group.carrier)
    gens = rng.sample(elements, k=min(rng.randint(0, 2), len(elements)))
    return subgroup_closure(group, gens), gens


def check_partition_properties(cap: int = DEFAULT_CAP) -> CheckResult:
    """Double-coset partitions are genuine partitions, stable under carrier
    reordering, with the two degenerate cases exact (>= 220 random cases)."""
    start = time.perf_counter()
    rng = random.Random(_SEED_PARTITION)
    failures = []
    cases = 0

    def run_case(group, h, k, h_gens, k_gens, idx, shuffle):
        nonlocal cases
        cases += 1
        parts = double_coset_partition(
            group, h, k, h_gens=h_gens, k_gens=k_gens, trusted=True
        )
        seen = set()
        for block in parts:
            if seen & block:
                failures.append(f"case {idx}: blocks are not disjoint")
                return
            seen |= block
        if seen != set(group.carrier):
            failures.append(f"case {idx}: blocks do not cover the carrier")
            return
        if sum(len(b) for b in parts) != len(group):
            failures.append(f"case {idx}: block sizes do not sum to |G|")
            return
        if shuffle:
            order = list(group.carrier)
            rng.shuffle(order)
            reparts = double_coset_partition(
                group, h, k, h_gens=h_gens, k_gens=k_gens,
                trusted=True, scan_order=order,
            )
            if len(reparts) != len(parts) or set(reparts) != set(parts):
                failures.append(f"case {idx}: partition changed under reordering")

    for idx in range(216):
        group = _zoo_group(rng)
        h, h_gens = _zoo_subgroup(rng, group)
        k, k_gens = _zoo_subgroup(rng, group)
        use_gens = len(h) + len(k) > 200 or rng.random() < 0.5
        run_case(
            group, h, k,
            h_gens if use_gens else None, k_gens if use_gens else None,
            idx, shuffle=(idx % 5 == 0),
        )
        if failures:
            break

    if not failures:
        for idx, m in enumerate((12, 30), start=216):
            group = unit_group(m)
            whole = double_coset_partition(group, group.carrier, group.carrier)
            if len(whole) != 1 or len(whole[0]) != len(group):
                failures.append(f"case {idx}: H=K=G did not give one full block")
            trivial = frozenset({group.identity})
            singletons = double_coset_partition(group, trivial, trivial)
            if len(singletons) != len(group):
                failures.append(f"case {idx}: H=K={{e}} did not give singletons")
            cases += 2
    return _result(
        "partition-properties", start, failures,
        "disjoint blocks covering G, sizes summing to |G|, order-independent, "
        "H=K=G gives 1 block and H=K={e} gives |G|", cases,
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


CRITERIA: tuple[tuple[str, object], ...] = (
    ("pullback-oracle", check_pullback_oracle),
    ("atom-table", check_atom_table),
    ("genus-one-catalog", check_genus_one_catalog),
    ("stable-image", check_stable_image),
    ("small-level-genus-one", check_small_level_genus_one),
    ("bound-and-monotonicity", check_bound_and_monotonicity),
    ("partition-properties", check_partition_properties),
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
