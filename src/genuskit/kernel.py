"""The numpy int64 row kernel, and all that runs on it: the enumerations of
GL(r, Z/m) and of the stable image, the closure levels above one chunk of
multiply-adds, the probe and the streamed scan of a subring above one
chunk, and the bodies of the oracle builders subring_closure and
subring_units.

This is the one module that imports numpy, once, at its top, and nothing
imports it at load time: the public functions of :mod:`genuskit.matrices`
and :mod:`genuskit.orders` that need it import it inside their bodies.  So
a process that asks only for group orders in closed form and for the genera
of subrings of at most one chunk loads neither numpy nor this module.  Run
with no bytecode cache, as a fresh checkout is, a module is compiled on
import, and compiling raises the peak memory of the process far more than
holding the compiled code does; code kept here is not compiled by such a
process at all.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod

import numpy as np

from . import matrices, orders
from .cosets import FiniteGroup
from .matrices import MatModM, _laplace, _shape, _Shape, det, elementary_generators, mat_mul
from .rings import is_sign, prime_powers

# -- row kernel ---------------------------------------------------------------
#
# Past the one-chunk limits of matrices._CHUNK, the rows are numpy int64
# rows, handled _CHUNK at a time, so that temporaries stay small whatever
# the size of the group; _CHUNK is read from matrices at each call.
# Duplicates are dropped by _distinct_rows, not np.unique: np.unique(axis=0)
# is several times slower on int64 rows, and under numpy 2 the first
# np.unique call in a process imports numpy.ma, which takes longer than a
# small genus.


@lru_cache(maxsize=16)
def _coset_lut(m: int) -> np.ndarray:
    """The digit nu(d) + 1, for nu(d) = min(d, m - d), naming the coset
    {d, -d} of {+-1} at a unit d, and 0 at the multiples of the primes of m;
    16 int32 tables cost 64*m bytes."""
    lut = np.arange(1, m + 1, dtype=np.int32 if m < 2**31 - 1 else np.int64)
    lut[m // 2 + 1 :] = lut[(m - 1) // 2 : 0 : -1]
    for p, _ in prime_powers(m):
        lut[::p] = 0
    return lut


def _mul_rows(shape: _Shape, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Blockwise products mod m of two broadcastable int64 arrays of reduced
    rows.  An entry of a product sums r terms below (m-1)^2, so the result
    is exact in int64 while r*(m-1)^2 < 2^63 for the largest block size r.
    """
    lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    out = np.empty(lead + (shape.width,), dtype=np.int64)
    for r, off in zip(shape.blocks, shape.offsets):
        x = a[..., off : off + r * r].reshape(a.shape[:-1] + (r, r))
        y = b[..., off : off + r * r].reshape(b.shape[:-1] + (r, r))
        out[..., off : off + r * r] = (x @ y).reshape(lead + (r * r,)) % shape.m
    return out


def _block_dets(shape: _Shape, rows: np.ndarray) -> np.ndarray:
    """Blockwise determinants mod m of reduced rows, one column per block,
    by _laplace over each block's entry columns; exact in int64 within the
    range r*(m-1)^2 < 2^63 that _mul_rows and the subring closure admit."""
    # column-major, so that each block's column is contiguous
    out = np.empty((len(rows), len(shape.blocks)), dtype=np.int64, order="F")
    for col, (r, off) in enumerate(zip(shape.blocks, shape.offsets)):
        out[:, col] = _laplace([rows[:, off + t] for t in range(r * r)], r, shape.m)
    return out


def _distinct_rows(a: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array, or the distinct entries of a 1-D
    one, in ascending lexicographic order: a sort, then each row kept when
    it differs from its predecessor."""
    if a.ndim == 1:
        s = np.sort(a)
        differs = s[1:] != s[:-1]
    else:
        s = a[np.lexsort(a.T[::-1])]  # the first column sorts first
        differs = (s[1:] != s[:-1]).any(axis=1)
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = differs  # empty input keeps nothing
    return s[keep]


def _combinations(basis: np.ndarray, additive: list[int], index: np.ndarray,
                  m: int) -> np.ndarray:
    """The rows sum_j c_j * basis[j] mod m for flat indices into the product
    of the ranges 0 <= c_j < additive[j], read as mixed-radix numbers whose
    last digit varies fastest; over the standard basis with radices m, the
    rows of the matrices with those base-m codes.  A sum has one term below
    (m-1)^2 per row, exact in int64 while len(basis)*(m-1)^2 < 2^63."""
    radices = np.array(additive, dtype=np.int64)
    place = np.array([prod(additive[j + 1 :]) for j in range(len(additive))],
                     dtype=np.int64)
    return index[:, None] // place % radices @ basis % m


def _elements(shape: _Shape, basis, additive: list[int]):
    """The elements sum c_j * basis[j] mod m, 0 <= c_j < additive[j], for
    basis rows given as lists or an int64 array, each once, in chunks of at
    most _CHUNK rows and in mixed-radix order: element i is _combinations
    at index i, the first row varying slowest.

    The last rows are tabulated once, unreduced: an entry sums one multiple
    below m per row.  Each chunk adds the table to the _combinations of the
    leading rows; a span of at most _CHUNK elements has no leading rows and
    is its table, reduced mod m, in one chunk.  The work runs on transposed
    (width, n) arrays, so that numpy's inner loops run along the elements
    rather than along a short row, and a chunk is handed out as the
    transposed view, whose columns are contiguous.  Past one chunk every
    chunk is a view of one buffer, which the next chunk overwrites: fresh
    memory for each chunk cost more in page faults than the additions that
    fill it.
    """
    m, width = shape.m, shape.width
    basis = np.array(basis, dtype=np.int64).reshape(len(additive), width)
    split, low = len(basis), 1
    while split and low * additive[split - 1] <= matrices._CHUNK:
        split -= 1
        low *= additive[split]
    table = np.zeros((width, 1), dtype=np.int64)
    for row, n in zip(basis[split:], additive[split:]):
        mults = row[:, None] * np.arange(n, dtype=np.int64) % m
        table = (table[:, :, None] + mults[:, None]).reshape(width, -1)
    if not split:
        yield np.remainder(table, m, out=table).T
        return
    total, step = prod(additive[:split]), max(1, matrices._CHUNK // low)
    buffer = np.empty((width, min(step, total), low), dtype=np.int64)
    for lo in range(0, total, step):
        index = np.arange(lo, min(lo + step, total), dtype=np.int64)
        offsets = _combinations(basis[:split], additive[:split], index, m).T
        chunk = buffer[:, : len(index)]
        np.add(offsets[:, :, None], table[:, None], out=chunk)
        yield np.remainder(chunk, m, out=chunk).reshape(width, -1).T


# -- GL and the stable image ----------------------------------------------------


def _gl_flat(r: int, m: int, lut: np.ndarray | None = None) -> np.ndarray:
    """Ascending codes of the r x r matrices mod m whose determinant d has
    lut[d] True, filtered from the _elements of the standard basis, whose
    element i has base-m code i.  The default lut, the units mod m, gives
    GL(r, Z/m); criterion 4 passes the signs +-1."""
    shape = _shape(m, (r,))
    lut = _coset_lut(m) > 0 if lut is None else lut
    chunks = _elements(shape, np.eye(r * r, dtype=np.int64), [m] * (r * r))
    return np.flatnonzero(np.concatenate([lut[_block_dets(shape, rows)[:, 0]]
                                          for rows in chunks]))


def _row_table(gens: list[MatModM]) -> np.ndarray:
    """T[g, c] is the code of v*g for the g-th generator g and the row v of
    length r with base-m code c, the first entry most significant; shape
    (#gens, m^r)."""
    r, m = gens[0].size, gens[0].modulus
    place = m ** np.arange(r - 1, -1, -1, dtype=np.int64)
    # column c holds the entries of row code c
    digits = np.arange(m**r, dtype=np.int64) // place[:, None] % m
    return np.array([place @ (np.array(g.rows).T @ digits % m) for g in gens])


def _right_products(table: np.ndarray, codes: np.ndarray, r: int) -> np.ndarray:
    """Codes of x*g for every generator g (axis 0) and every code x (axis 1).

    Right multiplication by g maps each row of x to its product with g on
    its own, so with M = m^r the code of x*g is sum_a T[g, x_a] * M^(r-1-a)
    over the row codes x_a = code // M^(r-1-a) % M of x.
    """
    rows_m = table.shape[1]
    place = rows_m ** np.arange(r - 1, -1, -1, dtype=np.int64)
    return sum(table[:, codes // place[a] % rows_m] * place[a] for a in range(r))


def _stable_flat(r: int, m: int) -> np.ndarray:
    """Ascending codes of the closure of the elementary generators.  For
    r = 1 the one generator is -1 and the closure is {+-1}.  For r >= 2 a
    frontier search right-multiplies each frontier by all generators through
    their row tables over the m^r row codes, so no matrix is decoded or
    multiplied.  What was reached is marked in a boolean map over all
    m^(r^2) codes, which matrices._check_scan_cap bounds.  It serves
    stable_image and criterion 4."""
    if r == 1:
        return np.array(sorted({1 % m, -1 % m}), dtype=np.int64)
    table = _row_table(elementary_generators(r, m))
    place = m ** np.arange(r * r - 1, -1, -1, dtype=np.int64)
    seen = np.zeros(m ** (r * r), dtype=bool)
    frontier = np.array([MatModM.identity(r, m).entries]) @ place
    seen[frontier] = True
    while len(frontier):
        reached = []
        for lo in range(0, len(frontier), matrices._CHUNK):
            codes = _right_products(table, frontier[lo : lo + matrices._CHUNK], r).ravel()
            new = _distinct_rows(codes[~seen[codes]])
            seen[new] = True
            reached.append(new)
        frontier = np.concatenate(reached)
    return np.flatnonzero(seen)


def _group(codes: np.ndarray, r: int, m: int, name: str) -> FiniteGroup:
    """The group of the matrices with these codes, decoded a chunk at a time."""
    eye, radices = np.eye(r * r, dtype=np.int64), [m] * (r * r)
    chunks = (_combinations(eye, radices, codes[lo : lo + matrices._CHUNK], m).tolist()
              for lo in range(0, len(codes), matrices._CHUNK))
    carrier = frozenset(MatModM(m, r, row) for rows in chunks for row in rows)
    return FiniteGroup(carrier, mat_mul, MatModM.identity(r, m), name=name)


def _stable_against_signs(r: int, m: int) -> tuple[bool, int, int]:
    """Criterion 4 at (r, m): whether the closure of the elementary
    generators equals the matrices of determinant +-1 filtered from the
    scan, and the size of each.  Both are ascending codes, so equal arrays
    are equal sets."""
    image = _stable_flat(r, m)
    expected = _gl_flat(r, m, is_sign(np.arange(m), m))
    return np.array_equal(image, expected), len(image), len(expected)


# -- subrings above one chunk ---------------------------------------------------


def _level_products(shape: _Shape, level: list[list[int]], gens: list[list[int]]):
    """The products w*g of the words w of a closure level with every
    generator g, as lists of rows, by _mul_rows in batches of at most
    _CHUNK product entries or of one word; lazily, so that the closure can
    stop between batches."""
    width = shape.width
    right = np.array(gens, dtype=np.int64)
    level = np.array(level, dtype=np.int64)[:, None]
    step = max(1, matrices._CHUNK // (len(gens) * width))
    for lo in range(0, len(level), step):
        yield _mul_rows(shape, level[lo : lo + step], right).reshape(-1, width).tolist()


# A unit d and m - d make up its coset of {+-1}, so the coset of a tuple is
# named by nu(d) = min(d, m - d) in each block, and counted by its _codes,
# never decoded: the base-B numbers, B = m//2 + 2, whose digits nu(d) + 1
# the table _coset_lut holds.  A non-unit has the digit 0 there, so the
# codes of unit rows are the codes with no zero digit.  The probe takes
# _PROBE elements of S; see the shortcuts of genuskit.orders.
_PROBE = 256


def _codes(lut: np.ndarray, dets: np.ndarray, base: int) -> np.ndarray:
    """The base-``base`` codes of the rows of ``dets`` whose digits are
    their lut entries, the first block most significant; base**k < 2^63.
    They are accumulated a block at a time in one int64 column."""
    codes = lut[dets[:, 0]].astype(np.int64)
    for j in range(1, dets.shape[1]):
        codes *= base
        codes += lut[dets[:, j]]
    return codes


def _count(m: int, k: int, dets, size: int) -> int:
    """The number of cosets of {+-1}^k that the unit rows among the chunks
    ``dets`` of determinant tuples meet, at most ``size`` rows in all.  When
    the B^k bytes of a boolean map over the codes, B = m//2 + 2, are at most
    those of one int64 column of max(size, _CHUNK) rows, every row's code
    marks the map, and the count is of the marked codes with no zero digit,
    the sub-box from digit 1 up in every block.  Otherwise the unit rows of
    each chunk, as codes or, where B^k >= 2^63 would leave int64, as digit rows,
    are deduplicated on their own and merged once at the end."""
    lut, base = _coset_lut(m), m // 2 + 2
    if base**k <= 8 * max(size, matrices._CHUNK):
        seen = np.zeros(base**k, dtype=bool)
        for d in dets:
            seen[_codes(lut, d, base)] = True
        return int(np.count_nonzero(seen.reshape((base,) * k)[(slice(1, None),) * k]))
    units = (d[lut[d].min(axis=1) > 0] for d in dets)
    if base**k < 2**63:
        chunks = (_codes(lut, d, base) for d in units)
    else:
        chunks = (lut[d] for d in units)
    return len(_distinct_rows(np.concatenate([_distinct_rows(c) for c in chunks])))


def _span(gens: np.ndarray, m: int) -> np.ndarray:
    """A unit row for each coset of {+-1}^k in the subgroup of Q generated
    by the unit rows among ``gens``; its _codes need B^k < 2^63.

    The group is abelian, so adjoining g to a subgroup G gives the union of
    the cosets g^i*G for i < j, where j is the least power with g^j in G.
    That union is built by doubling: if T holds the first n cosets, T and
    g^n*T together hold the first 2n, and T is the whole union exactly when
    g^n lies in T, that is when g^n*T adds no coset to T, as T holds 1.
    Each extension is one membership pass against the sorted codes of T, so
    adjoining g takes about log2(j) extensions, and all of them together
    number at most log2 of the order of the span.
    """
    lut = _coset_lut(m)
    gens = gens[lut[gens].min(axis=1) > 0]
    k, base = gens.shape[1], m // 2 + 2
    group = np.full((1, k), 1 % m, dtype=np.int64)
    # the sorted codes of the group, closed by a sentinel above every code
    codes = np.append(_codes(lut, group, base), base**k)

    def outside(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows whose cosets the group lacks, and their codes."""
        c = _codes(lut, rows, base)
        new = codes[codes.searchsorted(c)] != c
        return rows[new], c[new]

    while len(gens := outside(gens)[0]):
        power = gens[0]
        while len((fresh := outside(group * power % m))[0]):
            group = np.concatenate((group, fresh[0]))
            codes = np.sort(np.concatenate((codes, fresh[1])))
            power = power * power % m
    return group


def _probe(basis: list[list[int]], additive: list[int], m: int) -> np.ndarray:
    """_PROBE elements of the subring, at the indices i*t mod |S| for i
    below _PROBE: t is the integer nearest |S|/phi for the golden ratio phi,
    raised to the next value prime to |S|, so the indices are distinct and
    spread evenly over the whole index space, leading digits included."""
    size = prod(additive)
    stride = round(size * (5**0.5 - 1) / 2)
    while gcd(stride, size) != 1:
        stride += 1
    index = np.array([i * stride % size for i in range(_PROBE)], dtype=np.int64)
    return _combinations(np.array(basis, dtype=np.int64), additive, index, m)


def _genus_by_scan(shape: _Shape, basis: list[list[int]], additive: list[int],
                   size: int, full: int) -> int:
    """The genus |Q| // c, for |Q| = ``full``, of the subring of ``size``
    elements above one chunk with this Howell basis: 1 when the probe's
    cosets already span Q, which is tried only when |S| >= |Q| and its
    codes fit int64, and otherwise |Q| over the count c of the chunked scan
    of S."""
    m, k = shape.m, len(shape.blocks)
    if size >= full and (m // 2 + 2) ** k < 2**63:
        if len(_span(_block_dets(shape, _probe(basis, additive, m)), m)) == full:
            return 1
    dets = (_block_dets(shape, rows) for rows in _elements(shape, basis, additive))
    return full // _count(m, k, dets, size)


# -- oracle builders ------------------------------------------------------------


def _row_to_mats(shape: _Shape, row) -> tuple[MatModM, ...]:
    return tuple(
        MatModM(shape.m, r, tuple(row[off : off + r * r]))
        for r, off in zip(shape.blocks, shape.offsets)
    )


def _subring_closure(spec, cap: int) -> set:
    """The body of orders.subring_closure."""
    shape = _shape(spec.m, spec.blocks)
    gen_rows = [orders._mats_to_row(t) for t in spec.generators]
    basis, additive = orders._closure(shape, gen_rows, cap)
    orders._check_index(prod(additive))
    return {
        _row_to_mats(shape, row)
        for rows in _elements(shape, basis, additive)
        for row in rows.tolist()
    }


def _subring_units(S, m: int, blocks) -> FiniteGroup:
    """The body of orders.subring_units."""
    blocks = tuple(int(r) for r in blocks)
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
    units = frozenset(tup for tup in S if all(det(mat).is_unit() for mat in tup))

    def op(a, b):
        return tuple(mat_mul(x, y) for x, y in zip(a, b))

    return FiniteGroup(units, op, identity, name=f"units of subring mod {m}")
