"""Seeded query lists for the three benchmark workloads.

Pure Python and free of genuskit imports, so the parent process, the worker
processes and the tests all build the same list from the same seed.  Specs
use genuskit's JSON order-spec format: ``{"m", "blocks", "generators"}``
with row-major flat integer matrices.

The seed only fills in entries and picks levels inside fixed strata.  The
mix of verbs, the shapes and the order in which shapes are visited do not
depend on it, so two seeds give lists of the same cost profile and the
run-to-run spread of the timings stays close to the host's own noise.
"""

from __future__ import annotations

import math
import random

from oracle import totient

# Generator style patterns, one entry per generator: the acceptance suite's
# dense / diagonal / scalar matrices with one or two generators.  Every
# shape gets each pattern once instead of a random draw, which removes the
# seed-to-seed swing in how many cheap scalar orders a list happens to hold.
# FULL stands for two generators of the whole product ring, so that every
# list holds each shape's largest subring and K = U, and peak memory does
# not depend on whether random dense generators happened to reach it.
FULL = ("full",)
STYLE_PATTERNS = (
    ("dense",),
    ("diag",),
    ("scalar",),
    ("dense", "diag"),
    ("dense", "scalar"),
    ("diag", "scalar"),
    FULL,
)

MATRIX_ORDER_SHAPES = (
    *(((2,), m) for m in (5, 7, 8, 9, 10, 12)),
    *(((1, 2), m) for m in (5, 7, 8, 9)),
    *(((1, 1, 1), m) for m in (8, 12, 24, 30)),
)

BIG_AMBIENT_SHAPES = (
    ((2,), 13),
    ((2,), 16),
    ((2,), 20),
    ((2,), 24),
    ((3,), 3),
    ((1, 1, 1), 100),
    ((1, 1), 600),
)

CATALOG_SPEC_BLOCKS = ((1, 1), (2,), (1, 1, 1))
CATALOG_SPEC_LEVELS = tuple(range(3, 13))
CATALOG_STABLE_CASES = tuple((2, m) for m in range(2, 17)) + ((3, 2), (3, 3))
# the three acceptance criteria that finish in well under 0.1 s
CATALOG_CHECKS = ("atom-table", "genus-one-catalog", "same-genus-classes")
PULLBACK_LEVELS = range(2, 161)
PULLBACK_QUERIES = 60

# Visiting order of the matrix-orders (shape, pattern) grid.  Fixed, not
# seeded, so the ambient-group cache sees the same hit/miss sequence on
# every seed; irregular, so the 12 generic shapes still evict each other.
_GRID_ORDER_SEED = 20110428


def _matrix(rng: random.Random, m: int, r: int, style: str) -> list[int]:
    if style == "dense":
        return [rng.randrange(m) for _ in range(r * r)]
    if style == "diag":
        return [rng.randrange(m) if i == j else 0 for i in range(r) for j in range(r)]
    c = rng.randrange(m)
    return [c if i == j else 0 for i in range(r) for j in range(r)]


def _full_ring(rng: random.Random, m: int, blocks) -> list:
    """Unit multiples of E_12 and E_21 in every 2x2 block; when all blocks
    are 1x1, unit multiples of the first two block idempotents.  Either
    pair generates the whole product ring."""
    if any(r > 2 for r in blocks):
        raise ValueError(f"full-ring generators need blocks of size <= 2, got {blocks}")
    units = [u for u in range(m) if math.gcd(u, m) == 1]
    scalars_only = all(r == 1 for r in blocks)
    gens: list[list[list[int]]] = [[], []]
    for b, r in enumerate(blocks):
        for t, pos in enumerate((1, 2)):
            flat = [0] * (r * r)
            if r == 2:
                flat[pos] = rng.choice(units)
            elif scalars_only and b == t:
                flat[0] = rng.choice(units)
            gens[t].append(flat)
    return gens


def random_spec(rng: random.Random, m: int, blocks, pattern) -> dict:
    """A spec whose generators follow ``pattern`` (one style per generator)."""
    if pattern == FULL:
        generators = _full_ring(rng, m, blocks)
    else:
        generators = [[_matrix(rng, m, r, style) for r in blocks] for style in pattern]
    return {"m": m, "blocks": list(blocks), "generators": generators}


def tiny_subring_spec(rng: random.Random, m: int, blocks) -> dict:
    """One generator: a scalar c in every block plus, in each block of size
    r >= 2, one nonzero off-diagonal entry.  The subring has at most m^2
    elements however large the ambient unit group is."""
    c = rng.randrange(m)
    gen = []
    for r in blocks:
        flat = [c if i == j else 0 for i in range(r) for j in range(r)]
        if r >= 2:
            i, j = rng.sample(range(r), 2)
            flat[i * r + j] = rng.randrange(1, m)
        gen.append(flat)
    return {"m": m, "blocks": list(blocks), "generators": [gen]}


def _stratified_levels(rng: random.Random, levels, count: int) -> list[int]:
    """One level from each of ``count`` consecutive, near-equal bins."""
    levels = list(levels)
    bounds = [len(levels) * k // count for k in range(count + 1)]
    return [rng.choice(levels[a:b]) for a, b in zip(bounds, bounds[1:])]


def _atom_names(rng: random.Random) -> list[str]:
    # the lower ends are genuskit's smallest valid top dimensions: 4 for
    # A(v) and C(eta2), 2 for the rest, spheres included
    def dim(low: int) -> int:
        return rng.randint(low, 20)

    names = [f"A({v})@{dim(4)}" for v in range(1, 13)]
    names += [
        f"S{dim(2)}",
        f"M({rng.randint(2, 30)})@{dim(2)}",
        f"C(2^{rng.randint(1, 6)}.eta.2^{rng.randint(1, 6)})@{dim(2)}",
        f"C(2^{rng.randint(1, 6)}.eta)@{dim(2)}",
        f"C(eta.2^{rng.randint(1, 6)})@{dim(2)}",
        f"C(eta)@{dim(2)}",
        f"C(eta2)@{dim(4)}",
    ]
    return names


def catalog(seed: int) -> dict:
    """CLI queries as argv lists; ``spec`` indexes the spec-file list."""
    rng = random.Random(seed)
    queries: list[dict] = []

    def cli(*argv, spec=None):
        queries.append({"verb": argv[0], "argv": [str(a) for a in argv], "spec": spec})

    # bins over the levels ordered by phi(m), which sets the size phi(m)^2 of
    # the unit group, so the levels in one bin cost about the same
    by_cost = sorted(PULLBACK_LEVELS, key=lambda m: (totient(m), m))
    for m in _stratified_levels(rng, by_cost, PULLBACK_QUERIES):
        cli("genus-pullback", m)
    for name in _atom_names(rng):
        cli("genus-atom", name)
    cli("table-A")
    for m in sorted(rng.sample(range(2, 5001), 5)):
        cli("totient", m)
    for r, m in CATALOG_STABLE_CASES:
        cli("gl-order", r, m)
        cli("stable-image", r, m)
    for name in CATALOG_CHECKS:
        cli("check", "--only", name)
    specs = []
    for blocks in CATALOG_SPEC_BLOCKS:
        for m in CATALOG_SPEC_LEVELS:
            pattern = STYLE_PATTERNS[len(specs) % len(STYLE_PATTERNS)]
            specs.append(random_spec(rng, m, blocks, pattern))
    for idx in range(len(specs)):
        cli("genus-order", spec=idx)
        cli("double-cosets", spec=idx)
    return {"queries": queries, "specs": specs}


def matrix_orders(seed: int) -> dict:
    rng = random.Random(seed)
    grid = [
        (shape_idx, pattern)
        for shape_idx in range(len(MATRIX_ORDER_SHAPES))
        for pattern in STYLE_PATTERNS
    ]
    random.Random(_GRID_ORDER_SEED).shuffle(grid)
    specs = []
    for shape_idx, pattern in grid:
        blocks, m = MATRIX_ORDER_SHAPES[shape_idx]
        specs.append(random_spec(rng, m, blocks, pattern))
    return {"queries": [{"verb": "genus", "spec": i} for i in range(len(specs))],
            "specs": specs}


def big_ambient(seed: int) -> dict:
    rng = random.Random(seed)
    specs = [tiny_subring_spec(rng, m, blocks) for blocks, m in BIG_AMBIENT_SHAPES]
    return {"queries": [{"verb": "genus", "spec": i} for i in range(len(specs))],
            "specs": specs}


QUERY_LISTS = {
    "catalog": catalog,
    "matrix-orders": matrix_orders,
    "big-ambient": big_ambient,
}
WORKLOADS = tuple(QUERY_LISTS)


def build(workload: str, seed: int) -> dict:
    if workload not in QUERY_LISTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return QUERY_LISTS[workload](seed)


def shape_list(workload: str) -> list[str]:
    """Human-readable shapes of a workload, for the record."""
    if workload == "catalog":
        return [f"{tuple(b)}@m=3..12" for b in CATALOG_SPEC_BLOCKS]
    shapes = MATRIX_ORDER_SHAPES if workload == "matrix-orders" else BIG_AMBIENT_SHAPES
    return [f"{tuple(b)}@m={m}" for b, m in shapes]
