"""Genus counts for orders inside products of integer matrix rings.

An order L with m*G <= L <= G = prod_i Mat(r_i, Z) is described by its
finite image at the conductor level m: the subring of prod_i Mat(r_i, Z/m)
generated by the identity tuple together with explicit generator tuples.
Its genus is g(G) * (number of double cosets  H \\ U / K)  where U is the
unit group of the quotient ring, H the image of the global units (generated
blockwise by elementary matrices) and K the unit group of the subring; for
products of matrix rings g(G) = 1, so the double-coset count is the genus.

The count is taken through determinants.  SL_r of the semilocal ring Z/m
is generated by elementary matrices for r >= 2 (Bass, K-theory and stable
algebra, 1964), and H = {+-1} for r = 1, so H is exactly the tuples whose
every block has determinant +-1; acceptance criterion 4 checks this by
exhaustive set comparison for r = 2, m <= 12 and r = 3, m <= 4.  H is
therefore normal in U with abelian quotient, and

    genus = phi(m)^k / |det(K) * {+-1}^k|

where k is the number of blocks.  Only the subring is enumerated, as int64
rows of the row kernel in :mod:`genuskit.matrices`, so the subring size is
the only size limit.  The generic engine in :mod:`genuskit.cosets` serves
as the test oracle for this route.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cosets import FiniteGroup
from .errors import InternalInconsistencyError, ResourceLimitError
from .matrices import (DEFAULT_CAP, MAX_DET_SIZE, MatModM, _block_dets,
                       _distinct_rows, _mul_rows, _Shape, _shape, _unit_lut,
                       mat_mul)
from .rings import totient


@dataclass(frozen=True)
class OrderSpec:
    """An order given by conductor level, block sizes and subring generators.

    ``generators`` holds tuples of matrices, one entry per block; the
    subring they generate together with the identity tuple is the image of
    the order in the quotient of the maximal order at level m.
    """

    m: int
    blocks: tuple[int, ...]
    generators: tuple[tuple[MatModM, ...], ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"conductor level must be >= 1, got {self.m}")
        blocks = tuple(int(r) for r in self.blocks)
        if not blocks:
            raise ValueError("an order needs at least one matrix block")
        if any(r < 1 for r in blocks):
            raise ValueError(f"block sizes must be >= 1, got {blocks}")
        object.__setattr__(self, "blocks", blocks)
        gens = tuple(tuple(t) for t in self.generators)
        for idx, tup in enumerate(gens):
            if len(tup) != len(blocks):
                raise ValueError(
                    f"generator {idx} has {len(tup)} components, "
                    f"expected {len(blocks)}"
                )
            for mat, r in zip(tup, blocks):
                if not isinstance(mat, MatModM):
                    raise ValueError(f"generator {idx} contains {mat!r}")
                if mat.modulus != self.m or mat.size != r:
                    raise ValueError(
                        f"generator {idx} has a {mat.size}x{mat.size} matrix "
                        f"mod {mat.modulus}; expected {r}x{r} mod {self.m}"
                    )
        object.__setattr__(self, "generators", gens)

    def identity_tuple(self) -> tuple[MatModM, ...]:
        return tuple(MatModM.identity(r, self.m) for r in self.blocks)


@dataclass(frozen=True)
class GenusResult:
    """Genus of an order, split into the factors that build it."""

    relative_count: int
    maximal_count: int
    total: int
    bound: int


def genus_pullback_formula(m: int) -> int:
    """Closed form for the genus of the congruence pullback of Z x Z at m."""
    if m < 1:
        raise ValueError(f"level must be >= 1, got {m}")
    if m <= 2:
        return 1
    return totient(m) // 2  # totient(m) is even for m > 2


def pullback_spec(m: int) -> OrderSpec:
    """The order of integer pairs congruent mod m, at level m.

    Blocks (1, 1) and the single generator (1, 1); its quotient image is
    the diagonal copy of Z/m inside Z/m x Z/m.
    """
    if m < 1:
        raise ValueError(f"level must be >= 1, got {m}")
    one = MatModM(m, 1, (1,))
    return OrderSpec(m=m, blocks=(1, 1), generators=((one, one),))


# ---------------------------------------------------------------------------
# JSON order-spec format:
#   {"m": <int>, "blocks": [r1, ...], "generators": [[mat1, mat2, ...], ...]}
# where each mat is a row-major flat integer array of length r_i^2; entries
# may be arbitrary integers and are reduced mod m on load.
# ---------------------------------------------------------------------------


def order_spec_to_dict(spec: OrderSpec) -> dict:
    return {
        "m": spec.m,
        "blocks": list(spec.blocks),
        "generators": [
            [list(mat.entries) for mat in tup] for tup in spec.generators
        ],
    }


def order_spec_from_dict(data) -> OrderSpec:
    if not isinstance(data, dict):
        raise ValueError("order spec must be a JSON object")
    for key in ("m", "blocks", "generators"):
        if key not in data:
            raise ValueError(f"order spec is missing the {key!r} field")
    m = data["m"]
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValueError(f"field 'm' must be an integer, got {m!r}")
    blocks = data["blocks"]
    if not isinstance(blocks, list) or not all(
        isinstance(r, int) and not isinstance(r, bool) for r in blocks
    ):
        raise ValueError("field 'blocks' must be an array of integers")
    raw_gens = data["generators"]
    if not isinstance(raw_gens, list):
        raise ValueError("field 'generators' must be an array of tuples")
    generators = []
    for gi, tup in enumerate(raw_gens):
        if not isinstance(tup, list) or len(tup) != len(blocks):
            raise ValueError(
                f"generator {gi} must be an array of {len(blocks)} matrices"
            )
        mats = []
        for bi, (mat, r) in enumerate(zip(tup, blocks)):
            if not isinstance(mat, list) or not all(
                isinstance(e, int) and not isinstance(e, bool) for e in mat
            ):
                raise ValueError(
                    f"generator {gi}, block {bi}: expected a flat integer array"
                )
            if r < 1 or m < 1:
                raise ValueError("blocks and m must be positive")
            if len(mat) != r * r:
                raise ValueError(
                    f"generator {gi}, block {bi}: expected {r * r} entries "
                    f"for a {r}x{r} matrix, got {len(mat)}"
                )
            mats.append(MatModM(m, r, tuple(mat)))
        generators.append(tuple(mats))
    return OrderSpec(m=m, blocks=tuple(blocks), generators=tuple(generators))


def load_order_spec(path) -> OrderSpec:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return order_spec_from_dict(data)


def _row_to_mats(shape: _Shape, row) -> tuple[MatModM, ...]:
    return tuple(
        MatModM(shape.m, r, tuple(row[off : off + r * r]))
        for r, off in zip(shape.blocks, shape.offsets)
    )


def _mats_to_row(tup) -> tuple[int, ...]:
    return tuple(e for mat in tup for e in mat.entries)


# -- subring closure --------------------------------------------------------
#
# The subring generated by the identity and the generator tuples is an
# additive subgroup closed under multiplication.  It equals the Z-span of a
# short list of "module generators" whose pairwise products all lie in the
# span (bilinearity closes the rest), so the closure alternates additive
# span extensions with a worklist over module-generator pairs.  Every span
# extension at least doubles the set, so the worklist stays logarithmic.
#
# Tuples are int64 rows of the row kernel in genuskit.matrices, keyed by
# their bytes.  genuskit.matrices keys single matrices by a dense base-m code
# instead, because the cap bounds its m^(r^2) codes; the ambient ring here
# has m^width elements with no such bound.


def _closure(shape: _Shape, gen_rows, cap: int) -> np.ndarray:
    m = shape.m
    # the m multiples of the identity are distinct and lie in every subring
    if m > cap:
        raise ResourceLimitError(f"a subring mod {m} exceeds the cap of {cap}")
    if max(shape.blocks) * (m - 1) ** 2 >= 2**63:
        raise ResourceLimitError(f"level {m} is past the row kernel's int64 range")
    row_key = np.dtype((np.void, 8 * shape.width))
    rows = np.zeros((1, shape.width), dtype=np.int64)
    keys = {rows[0].tobytes()}

    def extend(v: np.ndarray) -> None:
        nonlocal rows
        # the span grows by the cosets rows + k*v for k below the first
        # multiple that is already stored; each is disjoint from the rest.
        # Multiples go up to the additive order of v, but no further than
        # the cap leaves room for cosets; k % m keeps k*v in int64.
        order = m // int(np.gcd.reduce(v, initial=m))
        count = min(order, (cap - len(keys)) // len(rows) + 1)
        mults = np.arange(1, count + 1, dtype=np.int64)[:, None] % m * v % m
        mult_keys = mults.view(row_key).ravel().tolist()
        k = next((k for k, key in enumerate(mult_keys) if key in keys), None)
        if k is None:
            raise ResourceLimitError(
                f"subring closure exceeded the cap of {cap} elements"
            )
        cosets = ((rows[None] + mults[:k, None]) % m).reshape(-1, shape.width)
        keys.update(cosets.view(row_key).ravel().tolist())
        rows = np.concatenate((rows, cosets))

    mod_gens: list[np.ndarray] = []
    identity = _mats_to_row(MatModM.identity(r, m) for r in shape.blocks)
    for seed in (identity, *gen_rows):
        seed = np.array(seed, dtype=np.int64) % m
        if seed.tobytes() not in keys:
            extend(seed)
            mod_gens.append(seed)
    i = 0
    while i < len(mod_gens):
        ys = np.array(mod_gens[: i + 1])
        xs = np.broadcast_to(mod_gens[i], ys.shape)
        # x*y and y*x for every module generator y up to x, in one call
        products = _mul_rows(
            shape, np.stack((xs, ys), axis=1), np.stack((ys, xs), axis=1)
        )
        for p in products.reshape(-1, shape.width):
            if p.tobytes() not in keys:
                extend(p)
                mod_gens.append(p)
        i += 1
    return rows


# -- public operations -------------------------------------------------------


def subring_closure(spec: OrderSpec, cap: int = DEFAULT_CAP) -> set:
    """The subring of the quotient ring generated by the spec's generators.

    Smallest set containing the generators and the identity tuple, closed
    under tuplewise addition and multiplication; always contains the zero
    tuple.  Returned as a set of matrix tuples.
    """
    shape = _shape(spec.m, spec.blocks)
    rows = _closure(shape, [_mats_to_row(t) for t in spec.generators], cap)
    return {_row_to_mats(shape, row) for row in map(tuple, rows.tolist())}


def subring_units(S, m: int, blocks) -> FiniteGroup:
    """Unit group of a subring closure: elements with a two-sided inverse
    inside the subring, under tuplewise product.

    In a finite ring an element invertible in the ambient matrix ring has
    its inverse inside the subring already (some positive power of the
    element), so the blockwise determinant test is exactly the unit test.
    """
    blocks = tuple(int(r) for r in blocks)
    shape = _shape(m, blocks)
    identity = tuple(MatModM.identity(r, m) for r in blocks)
    S = set(S)
    if identity not in S:
        raise ValueError("a subring closure must contain the identity tuple")
    S = [tuple(tup) for tup in S]
    for tup in S:
        if len(tup) != len(blocks) or not all(
            isinstance(mat, MatModM) and mat.modulus == m and mat.size == r
            for mat, r in zip(tup, blocks)
        ):
            raise ValueError(f"tuple {tup!r} does not match blocks {blocks} mod {m}")
    rows = np.array([_mats_to_row(tup) for tup in S], dtype=np.int64)
    mask = _unit_lut(m)[_block_dets(shape, rows)].all(axis=1)
    units = frozenset(tup for tup, unit in zip(S, mask.tolist()) if unit)

    def op(a, b):
        return tuple(mat_mul(x, y) for x, y in zip(a, b))

    return FiniteGroup(units, op, identity, name=f"units of subring mod {m}")


def genus_relative(spec: OrderSpec, cap: int = DEFAULT_CAP) -> int:
    """Number of double cosets H \\ U / K for the spec's order.

    U is the unit group of the quotient of the maximal order, H the image
    of the global units, K the unit group of the subring.  H is the set of
    tuples whose blockwise determinants lie in the sign group S = {+-1}^k,
    so H \\ U / K = U / HK, and with D = det(K) inside ((Z/m)^x)^k

        count = [((Z/m)^x)^k : D*S] = phi(m)^k * |D & S| / (|D| * |S|)

    where D & S is the intersection; the join D*S is never built.
    ``cap`` bounds the number of subring elements; blocks larger than
    ``MAX_DET_SIZE`` are rejected before the closure starts.
    """
    k = len(spec.blocks)
    if max(spec.blocks) > MAX_DET_SIZE:
        raise ResourceLimitError(
            f"block of size {max(spec.blocks)} is above the determinant "
            f"limit of {MAX_DET_SIZE}"
        )
    shape = _shape(spec.m, spec.blocks)
    rows = _closure(shape, [_mats_to_row(t) for t in spec.generators], cap)
    dets = _block_dets(shape, rows)
    # det is a homomorphism, so the unit determinants form the subgroup D
    d = _distinct_rows(dets[_unit_lut(spec.m)[dets].all(axis=1)])
    signs = {1 % spec.m, (spec.m - 1) % spec.m}
    d_in_s = int(np.isin(d, list(signs)).all(axis=1).sum())
    return totient(spec.m) ** k * d_in_s // (len(d) * len(signs) ** k)


def genus(spec: OrderSpec, cap: int = DEFAULT_CAP) -> GenusResult:
    """Full genus of the order: ambient factor (always 1 here) times the
    double-coset count, checked against the totient bound."""
    relative = genus_relative(spec, cap)
    k = len(spec.blocks)
    bound = 1 if spec.m <= 2 else (totient(spec.m) // 2) ** k
    total = 1 * relative
    if total > bound:
        raise InternalInconsistencyError(
            f"genus {total} exceeds the bound {bound} for m={spec.m}, k={k}; "
            "this indicates a bug in the enumeration"
        )
    return GenusResult(relative_count=relative, maximal_count=1, total=total, bound=bound)
