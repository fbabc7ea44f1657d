"""Generic finite-group machinery: subgroup closures and double cosets.

Group elements are opaque: anything hashable with value equality works
(ints, tuples, frozen values).  The engine only combines elements via
the group operation and compares them by hash/equality, so the same code
serves residues, residue pairs and tuples of matrices.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Sequence

from .errors import Frozen

Element = Hashable

# A subgroup given without generators is verified by an O(n^2) closure scan;
# above this size the caller must either supply generators or pass trusted=True.
SUBGROUP_VERIFY_LIMIT = 10_000


class FiniteGroup(Frozen):
    """A finite group: explicit carrier set, binary operation, identity.

    The carrier is expected to be closed under ``op`` with two-sided
    inverses; construction only checks that the identity is present.
    ``check_axioms`` verifies the rest exhaustively on small groups.  A
    group equals only itself.
    """

    __slots__ = ("carrier", "op", "identity", "name")
    carrier: frozenset
    op: Callable[[Element, Element], Element]
    identity: Element
    name: str
    _defaults = {"name": ""}
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def _validate(self):
        if self.identity not in self.carrier:
            raise ValueError("identity element is not in the carrier")

    def __len__(self) -> int:
        return len(self.carrier)

    def __contains__(self, x) -> bool:
        return x in self.carrier

    def __iter__(self):
        return iter(self.carrier)

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"FiniteGroup({label}, order={len(self.carrier)})"

    def check_axioms(self) -> None:
        """Exhaustively verify neutrality, closure and inverses (quadratic)."""
        e = self.identity
        for a in self.carrier:
            if self.op(a, e) != a or self.op(e, a) != a:
                raise ValueError(f"identity is not neutral at {a!r}")
            if not any(self.op(a, b) == e for b in self.carrier):
                raise ValueError(f"{a!r} has no inverse in the carrier")
        for a in self.carrier:
            for b in self.carrier:
                if self.op(a, b) not in self.carrier:
                    raise ValueError("carrier is not closed under the operation")


def direct_product(g1: FiniteGroup, g2: FiniteGroup, name: str = "") -> FiniteGroup:
    """Direct product with pair elements and componentwise operation."""
    op1, op2 = g1.op, g2.op

    def op(x, y):
        return (op1(x[0], y[0]), op2(x[1], y[1]))

    carrier = frozenset((a, b) for a in g1.carrier for b in g2.carrier)
    return FiniteGroup(
        carrier, op, (g1.identity, g2.identity), name or f"{g1.name}x{g2.name}"
    )


def subgroup_closure(group: FiniteGroup, gens: Iterable[Element]) -> frozenset:
    """Smallest subset containing the identity and ``gens``, closed under op.

    Finiteness makes the generated sub-semigroup a subgroup, so inverses
    need no special handling.
    """
    gen_list = list(dict.fromkeys(gens))
    for g in gen_list:
        if g not in group.carrier:
            raise ValueError(f"generator {g!r} is outside the group carrier")
    op = group.op
    closed = {group.identity}
    stack = [group.identity]
    while stack:
        x = stack.pop()
        for g in gen_list:
            y = op(x, g)
            if y not in closed:
                closed.add(y)
                stack.append(y)
    return frozenset(closed)


def _verify_subgroup(
    group: FiniteGroup,
    sub: frozenset,
    label: str,
    gens: Sequence[Element] | None,
    trusted: bool,
) -> None:
    if not sub:
        raise ValueError(f"{label} is empty")
    if not sub <= group.carrier:
        raise ValueError(f"{label} is not contained in the group carrier")
    if group.identity not in sub:
        raise ValueError(f"{label} does not contain the identity")
    if trusted:
        return
    if gens is not None:
        if not set(gens) <= sub:
            raise ValueError(f"generators of {label} are not all inside it")
        if subgroup_closure(group, gens) != sub:
            raise ValueError(f"generators of {label} do not generate it")
        return
    if len(sub) > SUBGROUP_VERIFY_LIMIT:
        raise ValueError(
            f"{label} has {len(sub)} elements, above the verification cap of "
            f"{SUBGROUP_VERIFY_LIMIT}; supply generators or pass trusted=True"
        )
    op = group.op
    for a in sub:
        for b in sub:
            if op(a, b) not in sub:
                raise ValueError(f"{label} is not closed under the group operation")


def double_coset_partition(
    group: FiniteGroup,
    h: Iterable[Element],
    k: Iterable[Element],
    *,
    h_gens: Sequence[Element] | None = None,
    k_gens: Sequence[Element] | None = None,
    trusted: bool = False,
    scan_order: Sequence[Element] | None = None,
) -> list[frozenset]:
    """Partition the carrier into orbits of g -> h*g*k over h in H, k in K.

    When ``h_gens``/``k_gens`` are supplied, the orbit search multiplies by
    generators only, costing |G|*(#gens) instead of |G|*|H|*|K|.  Generators
    are checked to generate the given subgroup unless ``trusted`` is set.
    ``scan_order`` controls which orbit representatives are tried first and
    therefore the order of the returned blocks; the partition itself does
    not depend on it.
    """
    h = frozenset(h)
    k = frozenset(k)
    _verify_subgroup(group, h, "H", h_gens, trusted)
    _verify_subgroup(group, k, "K", k_gens, trusted)
    left = tuple(h_gens) if h_gens is not None else tuple(h)
    right = tuple(k_gens) if k_gens is not None else tuple(k)
    op = group.op

    if scan_order is None:
        seeds: Iterable[Element] = group.carrier
    else:
        seeds = list(scan_order)
        for s in seeds:
            if s not in group.carrier:
                raise ValueError(f"scan_order element {s!r} is outside the carrier")

    remaining = set(group.carrier)
    blocks: list[frozenset] = []

    def absorb(seed: Element) -> None:
        block = {seed}
        stack = [seed]
        while stack:
            x = stack.pop()
            for a in left:
                y = op(a, x)
                if y not in block:
                    block.add(y)
                    stack.append(y)
            for b in right:
                y = op(x, b)
                if y not in block:
                    block.add(y)
                    stack.append(y)
        remaining.difference_update(block)
        blocks.append(frozenset(block))

    for seed in seeds:
        if seed in remaining:
            absorb(seed)
    # scan_order may be partial; sweep up whatever it did not reach
    while remaining:
        absorb(next(iter(remaining)))
    return blocks


def double_coset_count(
    group: FiniteGroup,
    h: Iterable[Element],
    k: Iterable[Element],
    *,
    h_gens: Sequence[Element] | None = None,
    k_gens: Sequence[Element] | None = None,
    trusted: bool = False,
) -> int:
    """Number of double cosets H\\G/K; see ``double_coset_partition``."""
    return len(
        double_coset_partition(
            group, h, k, h_gens=h_gens, k_gens=k_gens, trusted=trusted
        )
    )
