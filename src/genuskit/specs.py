"""Order specs and genus results: the values that describe an order and its
genus, the congruence pullbacks of Z x Z and their Mat_n with the closed
form of their genus, and the JSON order-spec format.

An order L with m*G <= L <= G = prod_i Mat(r_i, Z) is described by its
finite image at the conductor level m: the subring of prod_i Mat(r_i, Z/m)
generated by the identity tuple together with explicit generator tuples.
:mod:`genuskit.orders` computes the genus of such a spec.
"""

from __future__ import annotations

from .errors import Frozen
from .matrices import MatModM
from .rings import sign_count, totient


class OrderSpec(Frozen):
    """An order given by conductor level, block sizes and subring generators.

    ``generators`` holds tuples of matrices, one entry per block; the
    subring they generate together with the identity tuple is the image of
    the order in the quotient of the maximal order at level m.
    """

    __slots__ = ("m", "blocks", "generators")
    m: int
    blocks: tuple[int, ...]
    generators: tuple[tuple[MatModM, ...], ...]

    def __init__(self, m: int, blocks, generators):
        if m < 1:
            raise ValueError(f"conductor level must be >= 1, got {m}")
        blocks = tuple(int(r) for r in blocks)
        if not blocks:
            raise ValueError("an order needs at least one matrix block")
        if any(r < 1 for r in blocks):
            raise ValueError(f"block sizes must be >= 1, got {blocks}")
        gens = tuple(tuple(t) for t in generators)
        for idx, tup in enumerate(gens):
            if len(tup) != len(blocks):
                raise ValueError(
                    f"generator {idx} has {len(tup)} components, "
                    f"expected {len(blocks)}"
                )
            for mat, r in zip(tup, blocks):
                if not isinstance(mat, MatModM):
                    raise ValueError(f"generator {idx} contains {mat!r}")
                if mat.modulus != m or mat.size != r:
                    raise ValueError(
                        f"generator {idx} has a {mat.size}x{mat.size} matrix "
                        f"mod {mat.modulus}; expected {r}x{r} mod {m}"
                    )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "generators", gens)

    # spelled out for speed, as in MatModM: the memo of genus_relative
    # hashes and compares every spec it is asked
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.m, self.blocks, self.generators)
                == (other.m, other.blocks, other.generators))

    def __hash__(self):
        return hash((self.m, self.blocks, self.generators))

    def identity_tuple(self) -> tuple[MatModM, ...]:
        return tuple(MatModM.identity(r, self.m) for r in self.blocks)


class GenusResult(Frozen):
    """Genus of an order, split into the factors that build it."""

    __slots__ = ("relative_count", "maximal_count", "total", "bound")
    relative_count: int
    maximal_count: int
    total: int
    bound: int

    def __init__(self, relative_count: int, maximal_count: int, total: int, bound: int):
        object.__setattr__(self, "relative_count", relative_count)
        object.__setattr__(self, "maximal_count", maximal_count)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "bound", bound)


def genus_pullback_formula(m: int) -> int:
    """Closed form for the genus of the congruence pullback of Z x Z at m."""
    if m < 1:
        raise ValueError(f"level must be >= 1, got {m}")
    return totient(m) // sign_count(m)  # totient(m) is even for m > 2


def pullback_spec(m: int) -> OrderSpec:
    """The order of integer pairs congruent mod m, at level m.

    Blocks (1, 1) and the single generator (1, 1); its quotient image is
    the diagonal copy of Z/m inside Z/m x Z/m.
    """
    if m < 1:
        raise ValueError(f"level must be >= 1, got {m}")
    one = MatModM(m, 1, (1,))
    return OrderSpec(m=m, blocks=(1, 1), generators=((one, one),))


def matrix_pullback_spec(m: int, n: int) -> OrderSpec:
    """Mat_n of the level-m pullback of Z x Z, the endomorphism order of an
    n-fold wedge of one atom with that pullback as its order.

    Blocks (n, n); the subring is the diagonal copy of Mat_n(Z/m), with
    m^(n^2) elements, generated by the pairs (E, E) for the matrix units
    E = e_{i,i+1} and e_{i+1,i}.  Its genus is genus_pullback_formula(m)
    for every n: det(K) is the diagonal of ((Z/m)^x)^2.
    """
    if m < 1:
        raise ValueError(f"level must be >= 1, got {m}")
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got {n}")

    def unit(i: int, j: int) -> MatModM:
        return MatModM(m, n, tuple(int((p, q) == (i, j))
                                   for p in range(n) for q in range(n)))

    units = [unit(i, i + 1) for i in range(n - 1)]
    units += [unit(i + 1, i) for i in range(n - 1)]
    return OrderSpec(m=m, blocks=(n, n), generators=tuple((e, e) for e in units))


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
