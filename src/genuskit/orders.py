"""Genus counts for orders inside products of integer matrix rings.

An order L with m*G <= L <= G = prod_i Mat(r_i, Z) is described by its
finite image at the conductor level m, an OrderSpec of
:mod:`genuskit.specs`: the subring of prod_i Mat(r_i, Z/m) generated by
the identity tuple together with explicit generator tuples.  Its genus is
g(G) * (number of double cosets  H \\ U / K)  where U is the unit group of
the quotient ring, H the image of the global units (generated blockwise by
elementary matrices) and K the unit group of the subring; for products of
matrix rings g(G) = 1, so the double-coset count is the genus.

The count is taken through determinants.  SL_r of the semilocal ring Z/m
is generated by elementary matrices for r >= 2 (Bass, K-theory and stable
algebra, 1964), and H = {+-1} for r = 1, so H is exactly the tuples whose
every block has determinant +-1; acceptance criterion 4 checks this by
exhaustive set comparison for r = 2, m <= 12 and r = 3, m <= 4.  H is
therefore normal in U with abelian quotient, and

    genus = [((Z/m)^x)^k : det(K) * {+-1}^k] = (phi(m)/sigma(m))^k / c

for k blocks, sigma(m) = |{+-1}| and c the number of cosets of {+-1}^k that
det(K) meets.  The subring S is held as a Howell basis over Z/m, built on
Python ints at every size, so |S| is exact before any element exists, and
the closure refuses S as soon as its span passes the cap.  A whole ring and
a level with phi(m) = sigma(m) have genus 1 without a count of c.  Otherwise
c is counted one prime power of m at a time, from lifts of S/pS, by Laplace
plans that matrices alone bounds, on Python ints where they and S fit one
chunk, and by the numpy row kernel of :mod:`genuskit.kernel` where they do
not, which alone checks the int64 range: the count here has none.  That module
also holds the bodies of the oracle builders subring_closure and
subring_units, and is imported, with numpy, only when one of them first
runs.  The generic engine in :mod:`genuskit.cosets` is the test oracle
for the count.

genus_relative keeps its last 64 answers, keyed by the frozen OrderSpec and
the cap, so an order asked again in one process (pullback levels shared by
atoms and table rows, one spec file under several verbs) is answered
without a closure or a scan.  A refusal raises and is never kept.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain, product
from math import prod
from pathlib import Path

# FiniteGroup is named in annotations only: genuskit.cosets loads on first use
from . import matrices
from .errors import InternalInconsistencyError, ResourceLimitError
from .matrices import DEFAULT_CAP, _laplace_lists, _matmul, _Shape, _shape
from .rings import ext_gcd, prime_powers, sign_count, totient
# the spec values and their JSON format, defined in genuskit.specs, are
# public names of this module as well
from .specs import (GenusResult, OrderSpec, genus_pullback_formula, matrix_pullback_spec,
                    order_spec_from_dict, order_spec_to_dict, pullback_spec)


def load_order_spec(path) -> OrderSpec:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return order_spec_from_dict(data)


def _mats_to_row(tup) -> tuple[int, ...]:
    return tuple(e for mat in tup for e in mat.entries)


# -- subring closure --------------------------------------------------------
#
# The subring S generated by the identity and the generator tuples is a
# Z/m-submodule of (Z/m)^width closed under multiplication.  It is held as
# a basis, never as a set of elements: the upper-triangular Hermite basis
# of the lattice S + m*Z^width, in Howell form over Z/m (J. A. Howell,
# "Spans in the module (Z_m)^s", 1986; Storjohann and Mulders, "Fast
# algorithms for linear algebra modulo N", ESA 1998).  Row j has zeros
# before column j and the pivot d_j at column j, where d_j divides m; d_j = m
# marks a column with no row.  Howell form also asks that (m/d_j) * row j,
# which is zero at column j, lie in the span of the rows after j; with that,
# a vector is in S exactly when reducing it column by column (v_j % d_j must
# vanish, then v -= (v_j // d_j) * row j) leaves zero, and every element of
# S is one combination sum c_j * row j with 0 <= c_j < m/d_j.  So
# |S| = prod m/d_j is known before any element exists.
#
# S is the Z/m-span of the words in the generators, the identity being the
# empty word, so a span that holds the identity and is closed under right
# multiplication by each generator is S.  The closure therefore runs
# breadth-first over words, on Python ints: it inserts the identity and then
# the generators themselves, the words 1*g, without a product; from there it
# multiplies each word that grew the span on the right by every generator,
# in the order the words grew it, and inserts the products.  This is exact.
# Every word that did not grow the span lies in the span of words that did,
# and each of those has all its products with a generator g inserted, so by
# linearity the final span T has T*g inside T.  Every insertion that grows
# the span at least doubles it, so at most log2(cap) + 1 words grow it before
# |span| passes the cap, where the pass is refused, and only those words are
# multiplied.  Once every pivot is 1 the span is the whole ring, which holds
# every product, so the pass stops there, before the next product.


def _insert(basis: dict[int, tuple[list[int], int]], m: int, v: list[int]) -> bool:
    """Add v to the span of the Howell basis, a dict from a pivot column j
    to its row and pivot d_j, in place; True when the span grew.  A column
    with no entry has no row and pivot m.

    A column whose pivot does not divide v_j takes the extended-gcd merge
    g = s*d_j + t*v_j of its row b and v: the unimodular step (b, v) ->
    (s*b + t*v, (v_j/g)*b - (d_j/g)*v) keeps the span, gives row j the
    pivot g, and leaves a vector r that is zero at column j, which goes on
    to the later columns.  The annihilator of the new row needs no insertion
    of its own: (m/g)*(s*b + t*v) = (m/d_j)*b - (m/d_j)*t*r, the annihilator
    of b, which lies in the later rows already, less a multiple of r.  An
    empty column (d_j = m) has b = 0 and a zero annihilator.
    """
    grew = False
    zero = [0] * len(v)
    pending = [v]
    while pending:
        v = pending.pop()
        for j in range(len(v)):
            x = v[j]
            if x == 0:
                continue
            b, d = basis.get(j, (zero, m))
            if x % d == 0:
                q = x // d
                v = [(e - q * c) % m for e, c in zip(v, b)]
                continue
            g, s, t = ext_gcd(d, x)
            basis[j] = [(s * c + t * e) % m for e, c in zip(v, b)], g
            pending.append([(x // g * c - d // g * e) % m for e, c in zip(v, b)])
            grew = True
            break
    return grew


def _mul_lists(shape: _Shape, a: list[int], b: list[int]) -> list[int]:
    """The blockwise product mod m of two rows held as Python lists."""
    return [e % shape.m for r, off in zip(shape.blocks, shape.offsets)
            for e in _matmul(a[off : off + r * r], b[off : off + r * r], r)]


def _closure(shape: _Shape, gen_rows, cap: int) -> tuple[list[list[int]], list[int]]:
    """Howell basis of the subring generated by the identity and gen_rows:
    its rows in column order, as lists, and the additive order m/d_j of each.

    The span is built from the words in gen_rows, breadth-first: after the
    identity come the generators, and then the product w*g of each word w
    that grew the span with every generator g, in the order the words grew
    it.  A product is formed only when its turn comes, so the pass stops at
    the insertion that makes the span the whole ring, and at the one that
    takes |span| = prod m/d_j past ``cap``, which is refused with that
    |span| as a lower bound on |S|.  On Python ints, no level is too large.
    """
    m, width = shape.m, shape.width
    # the m multiples of the identity are distinct and lie in every subring
    if m > cap:
        raise ResourceLimitError(f"a subring mod {m} exceeds the cap of {cap}",
                                 phase="closure", needed=m, cap=cap, lower_bound=True)
    basis, grown, whole = {}, [], m**width
    gens = [[e % m for e in g] for g in gen_rows]
    identity = [int(i == j) for r in shape.blocks for i in range(r) for j in range(r)]
    _insert(basis, m, identity)
    # grown is read as it grows, so its words are taken first in, first out
    for word in chain(gens, (_mul_lists(shape, w, g) for w in grown for g in gens)):
        if _insert(basis, m, word):
            size = prod(m // d for _, d in basis.values())
            if size > cap:
                raise ResourceLimitError(
                    f"the subring has at least {size} elements, above the cap of {cap}",
                    phase="closure", needed=size, cap=cap, lower_bound=True,
                )
            if size == whole:
                break
            grown.append(word)
    cols = sorted(basis)
    return [basis[j][0] for j in cols], [m // basis[j][1] for j in cols]


# -- determinant image --------------------------------------------------------
#
# The genus is |Q| / c for Q = ((Z/m)^x)^k / {+-1}^k, which has
# (phi(m)/sigma(m))^k elements, and c the number of cosets of {+-1}^k that
# D = det(K) meets.  Two shortcuts settle genus 1 before c is counted: S is
# the whole ring when every Howell pivot is 1, and det maps its units,
# prod GL(r_i, Z/m), onto ((Z/m)^x)^k; and Q is trivial when phi(m) =
# sigma(m), that is for m in {1, 2, 3, 4, 6}.
#
# _prime_cosets counts c one prime power q = p^e || m at a time.  By the
# CRT, S, K and D are the products of their images S_q, K_q and D_q =
# det(K_q) mod q, while a sign tuple s in {+-1}^k lies in every factor at
# once, so
#
#     c = |D| / |D meet {+-1}^k|
#       = prod_q |D_q| / #{s in {+-1}^k : s mod q in D_q for every q}.
#
# pS_q is a nilpotent ideal, so K_q / (1 + pS_q) is (S_q / pS_q)^x, and
# K_q is the union of u*(1 + pS_q) over the units u among any lifts of
# S_q / pS_q: here the sums c_j * b_j, 0 <= c_j < p, of the Howell rows b_j
# mod q whose additive order p divides, the others vanishing mod q.  Since
# (1 + p^i x)(1 + p^i y) = 1 + p^i (x + y) modulo p^(i+1) S_q, the group
# 1 + pS_q is generated by the 1 + p^i b_j for 1 <= i < e, and D_q is the
# closure of the lifts' unit determinant tuples under det(1 + p^i b_j).
#
# A subring above one chunk, where |S| >= |Q| (K meets at most |S| cosets),
# first takes a probe of each factor through the kernel: the subgroup of
# D_q from kernel._PROBE lifts at a fixed stride, with no random numbers.
# When the probe groups, joined across the primes as above, meet all |Q|
# cosets, so does D, and the genus is 1.  Asking instead that each probe
# group be all of ((Z/q)^x)^k would miss every D that lacks signs.


def _subgroup(gens, k: int, q: int) -> set[tuple[int, ...]]:
    """The subgroup of ((Z/q)^x)^k that the unit tuples ``gens`` generate.

    Adjoining g to a subgroup G gives the union of the cosets g^i*G for
    i < j, the least power with g^j in G, built by doubling: if T holds the
    first n cosets, T and g^n*T hold the first 2n, and T is the whole union
    exactly when g^n lies in T.  So adjoining g takes about log2(j) passes,
    each multiplying T a column at a time, and a g that adds nothing costs
    one lookup.
    """
    group = {(1,) * k}
    for power in gens:
        while power not in group:
            columns = zip(*group)
            group.update(zip(*([x * y % q for x in col] for col, y in zip(columns, power))))
            power = tuple(x * x % q for x in power)
    return group


def _prime_cosets(shape: _Shape, basis: list[list[int]], additive: list[int],
                  factors: list[tuple[int, int]], full: int, cap: int) -> int:
    """c, the number of cosets of {+-1}^k that det(K) meets, counted one
    prime power q = p^e of ``factors`` at a time, from the lifts of S_q/pS_q
    and the generators det(1 + p^i b_j) of det(1 + pS_q), as prod_q |D_q|
    over the number of sign tuples that lie in every D_q.  A factor whose
    lifts fit one chunk, and at e > 1 whose subring does too, is counted
    on Python ints, its lifts and steps as one pass of _laplace_lists per
    block, and any other by kernel._factor, which gives |D_q| and the sign
    tuples in D_q, all that the join reads; the kernel's probes come first
    where |S| passes one chunk and |S| >= |Q| = ``full``.  The plans come
    first, from matrices._laplace_plans, which refuses a block of more than
    ``cap`` terms before any factor.  A sign tuple is kept as its entries'
    truth of s_i == 1, the same for every q > 2; mod 2 every sign is 1,
    which lies in D_2."""
    blocks, k = list(zip(shape.blocks, shape.offsets)), len(shape.blocks)
    identity = [int(i == j) for r in shape.blocks for i in range(r) for j in range(r)]
    plans = matrices._laplace_plans(shape.blocks, cap)  # once per query, for every factor
    size = prod(additive)
    for probe in (True, False) if size > matrices._CHUNK and size >= full else (False,):
        met, signs = 1, None
        for p, e in factors:
            q = p**e
            rows = [[x % q for x in row] for row, a in zip(basis, additive) if a % p == 0]
            if probe or p ** len(rows) > matrices._CHUNK or (e > 1 and size > matrices._CHUNK):
                from . import kernel
                count, found = kernel._factor(shape, rows, p, e, probe, plans)
            else:
                # the lifts as one list per entry, each row adding its p multiples
                cols = [[0] for _ in identity]
                for row in rows:
                    cols = [[x + c * b for c in range(p) for x in col] if b else col * p
                            for col, b in zip(cols, row)]
                if e > 1:  # and then the steps 1 + p^i b_j, whose dets are units
                    cols = [col + [u + p**i * row[t] for i in range(1, e) for row in rows]
                            for t, (col, u) in enumerate(zip(cols, identity))]
                dets = zip(*(_laplace_lists(cols[off : off + r * r], r, q, plans[r])
                             for r, off in blocks))
                found = set(filter(set(range(0, q, p)).isdisjoint, set(dets)))
                if e > 1:  # else pS_q = 0, the lifts are S_q and found is D_q
                    found = _subgroup(found, k, q)
                count = len(found)
            met *= count
            if q > 2 and signs is None and 2**k > len(found):  # scan D_q for signs
                signs = {tuple(x == 1 for x in d) for d in filter({1, q - 1}.issuperset, found)}
            elif q > 2:  # look the sign tuples still in the running up in D_q
                pool = product((True, False), repeat=k) if signs is None else signs
                signs = {s for s in pool if tuple(1 if t else q - 1 for t in s) in found}
        c = met // (1 if signs is None else len(signs))
        if c == full or not probe:
            return c


# -- public operations -------------------------------------------------------


def subring_closure(spec: OrderSpec, cap: int = DEFAULT_CAP) -> set:
    """The subring of the quotient ring generated by the spec's generators.

    Smallest set containing the generators and the identity tuple, closed
    under tuplewise addition and multiplication; always contains the zero
    tuple.  Returned as a set of matrix tuples.
    """
    from . import kernel
    return kernel._subring_closure(spec, cap)


def subring_units(S, m: int, blocks) -> FiniteGroup:
    """Unit group of a subring closure: elements with a two-sided inverse
    inside the subring, under tuplewise product.

    In a finite ring an element invertible in the ambient matrix ring has
    its inverse inside the subring already (some positive power of the
    element), so the blockwise determinant test is exactly the unit test.
    It takes every determinant of a block in one pass of the Laplace
    expansion on Python ints, not on the int64 row kernel, so that it has
    no int64 range and can check the genus route at any level.
    """
    from . import kernel
    return kernel._subring_units(S, m, blocks)


@lru_cache(maxsize=64)
def genus_relative(spec: OrderSpec, cap: int = DEFAULT_CAP) -> int:
    """Number of double cosets H \\ U / K for the spec's order.

    U is the unit group of the quotient of the maximal order, H the image
    of the global units, K the unit group of the subring.  H is the set of
    tuples whose blockwise determinants lie in the sign group {+-1}^k, so
    H \\ U / K = U / HK, and with D = det(K) inside ((Z/m)^x)^k

        count = [((Z/m)^x)^k : D*{+-1}^k] = (phi(m)/sigma(m))^k / c

    where sigma(m) = |{+-1}| and c is the number of cosets of {+-1}^k that
    D meets, counted by _prime_cosets.  A whole-ring subring returns 1,
    and so does a level where phi(m) = sigma(m).  ``cap`` bounds the number
    of subring elements and, past those two returns, the terms of the
    largest block's determinant, which matrices._laplace_plans refuses
    before it builds a plan.  The count on Python ints has no int64 limit;
    a factor that goes to the kernel is refused there, whatever the cap,
    where its level, rows or lifts would leave int64.  The last 64 answers
    are kept, keyed by (spec, cap) as passed; a ResourceLimitError is
    raised again on each call, never kept.
    """
    k = len(spec.blocks)
    m = spec.m
    shape = _shape(m, spec.blocks)
    basis, additive = _closure(shape, [_mats_to_row(t) for t in spec.generators], cap)
    size = prod(additive)
    if size == m**shape.width:
        return 1  # the whole ring: det maps its units onto ((Z/m)^x)^k
    factors = prime_powers(m)
    full = (prod(p ** (e - 1) * (p - 1) for p, e in factors) // sign_count(m)) ** k
    if full == 1:
        return 1  # phi(m) = sigma(m): every unit is a sign, and Q is trivial
    return full // _prime_cosets(shape, basis, additive, factors, full, cap)


def genus(spec: OrderSpec, cap: int = DEFAULT_CAP) -> GenusResult:
    """Full genus of the order: ambient factor (always 1 here) times the
    double-coset count, checked against the totient bound."""
    relative = genus_relative(spec, cap)
    k = len(spec.blocks)
    bound = (totient(spec.m) // sign_count(spec.m)) ** k
    total = 1 * relative
    if total > bound:
        raise InternalInconsistencyError(
            f"genus {total} exceeds the bound {bound} for m={spec.m}, k={k}; "
            "this indicates a bug in the enumeration"
        )
    return GenusResult(relative_count=relative, maximal_count=1, total=total, bound=bound)
