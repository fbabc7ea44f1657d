"""The numpy int64 row kernel, and all that runs on it: the enumerations of
GL(r, Z/m) and of the stable image, the probes and lift scans of the
prime-power factors of a genus count that pass one chunk, and the bodies of
the oracle builders subring_closure and subring_units.  The Howell basis
of a subring is not built here: orders builds it on Python ints at every
size, and only the enumeration of its elements runs on this kernel.  No
other module does int64 arithmetic, so _check_int64, which refuses work
past int64 before any array is built, is the one int64 range check.

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

from itertools import chain, product
from math import gcd, prod

import numpy as np

from . import matrices, orders
from .cosets import FiniteGroup
from .errors import ResourceLimitError
from .matrices import MatModM, _laplace_lists, _shape, _Shape, elementary_generators, mat_mul
from .rings import is_sign, prime_powers

# -- row kernel ---------------------------------------------------------------
#
# Past the one-chunk limits of matrices._CHUNK, the rows are numpy int64
# rows, handled _CHUNK at a time, so that temporaries stay small whatever
# the size of the group; _CHUNK is read from matrices at each call.
# Duplicate rows are dropped by _distinct_rows on their integer codes, not
# by np.unique: under numpy 2 the first np.unique call in a process imports
# numpy.ma, which takes longer than a small genus.


def _units(m: int) -> np.ndarray:
    """The mask of the units among the residues mod m: the multiples of
    each prime of m struck out."""
    mask = np.ones(m, dtype=bool)
    for p, _ in prime_powers(m):
        mask[::p] = False
    return mask


def _check_int64(m: int, terms: int, count: int, phase: str = "enumeration") -> None:
    """Refuse, before any array is built, work that would leave int64: sums
    of ``terms`` products of two residues mod m, the most that _laplace,
    _combinations and the row tables take, or an index into ``count``
    elements."""
    for needed, what in ((terms * (m - 1) ** 2, f"residue products, {terms} to a sum,"),
                         (count, f"{count} elements")):
        if needed >= 2**63:
            raise ResourceLimitError(f"{what} at level {m} are past the int64 range",
                                     phase=phase, needed=needed, cap=2**63 - 1)


def _laplace(x: list[np.ndarray], r: int, m: int, plan: tuple) -> np.ndarray:
    """matrices._laplace_lists on int64 columns, one matrix per row, each
    entry reduced into 0..m-1.  A minor's terms alternate in sign and each
    minor is reduced before use, so a partial sum stays within
    ceil(r/2)*(m-1)^2 of zero: exact while r*(m-1)^2 < 2^63."""
    minors = x[(r - 1) * r:]
    for level in plan:
        reduced = []
        for (e, i, _), *rest in level:  # the first term's sign is +1
            acc = x[e] * minors[i]
            for e, i, sign in rest:
                if sign > 0:
                    acc += x[e] * minors[i]
                else:
                    acc -= x[e] * minors[i]
            acc %= m
            reduced.append(acc)
        minors = reduced
    return minors[0]


def _block_dets(shape: _Shape, rows: np.ndarray, plans: dict | None = None) -> np.ndarray:
    """Blockwise determinants mod m of reduced rows, one column per block,
    by _laplace over each block's entry columns, at a level and block sizes
    that _check_int64 admits.  ``plans`` maps each block size to its
    _laplace_plan, built here if not given."""
    plans = plans or matrices._laplace_plans(shape.blocks)
    # column-major, so that each block's column is contiguous
    out = np.empty((len(rows), len(shape.blocks)), dtype=np.int64, order="F")
    for col, (r, off) in enumerate(zip(shape.blocks, shape.offsets)):
        out[:, col] = _laplace([rows[:, off + t] for t in range(r * r)], r, shape.m, plans[r])
    return out


def _distinct_rows(a: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-D array, such as the codes of rows, in
    ascending order: a sort, then each entry kept when it differs from its
    predecessor."""
    s = np.sort(a)
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = s[1:] != s[:-1]  # empty input keeps nothing
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


def _gl_flat(r: int, m: int, mask: np.ndarray | None = None) -> np.ndarray:
    """Ascending codes of the r x r matrices mod m whose determinant d has
    mask[d] True, filtered from the _elements of the standard basis, whose
    element i has base-m code i.  The default mask, the units mod m, gives
    GL(r, Z/m); criterion 4 passes the signs +-1."""
    _check_int64(m, r, m ** (r * r), "scan")
    shape = _shape(m, (r,))
    mask = _units(m) if mask is None else mask
    chunks = _elements(shape, np.eye(r * r, dtype=np.int64), [m] * (r * r))
    return np.flatnonzero(np.concatenate([mask[_block_dets(shape, rows)[:, 0]]
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
    _check_int64(m, r, m ** (r * r), "scan")
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


# -- prime-power factors of the genus count -----------------------------------
#
# orders._prime_cosets sends here each factor q = p^e of m whose p^n lifts
# of S_q/pS_q, or whose D_q, may pass one chunk.  The lifts are enumerated
# mod q by _elements, or _PROBE of them taken at a fixed stride for the
# probe.  At e = 1 D_q is their distinct unit determinant rows, as base-q
# codes; at e > 1, for the probe, and where those codes would leave int64,
# the group those rows generate is a Howell lattice of discrete logs
# (J. A. Howell, 1986), never a set of its elements.
_PROBE = 256


def _outside(basis: dict, m: int, v: np.ndarray) -> np.ndarray:
    """The mask of the rows of v outside the span of the Howell basis of
    orders._insert over Z/m: each row is reduced column by column, which
    leaves a nonzero remainder exactly where it lies outside."""
    v = v.copy()
    for j in sorted(basis):
        row, d = basis[j]
        v -= v[:, j, None] // d * np.array(row, dtype=np.int64)
        v %= m
    return v.any(axis=1)


def _generator(p: int, e: int) -> int:
    """A generator of the cyclic group (Z/p^e)^x for an odd prime p: the
    least primitive root g mod p, or g + p where g^(p-1) = 1 mod p^2."""
    primes = [l for l, _ in prime_powers(p - 1)]
    g = next(g for g in range(2, p + 1) if all(pow(g, (p - 1) // l, p) != 1 for l in primes))
    return g + p if e > 1 and pow(g, p - 1, p * p) == 1 else g


def _lattice(chunks, p: int, e: int, k: int) -> tuple[int, set]:
    """|G|, and the sign tuples in G, for the subgroup G of ((Z/q)^x)^k,
    q = p^e, that the unit rows of ``chunks`` generate, held as the Howell
    basis over Z/phi(q) of the discrete logs of its elements.  A log is read
    from a table of the powers of a generator, one per block for odd q; as
    (Z/2^e)^x = <-1> x <5> is not cyclic, there it is two, a*phi/2 and 2b
    for u = (-1)^a 5^b.  A row outside the span grows it at least twofold,
    so rows are inserted one per pass of _outside.  The sign tuples in G
    are the sums of the second halves of the rows whose first half vanishes
    in the Howell basis of (v, v) for v in G and (t, 0) for the log t of -1
    in each block: the basis of G's meet with {+-1}^k, each of order 2."""
    q, phi = p**e, p ** (e - 1) * (p - 1)
    n, g = (max(phi // 2, 1), 5) if p == 2 else (phi, _generator(p, e))
    power, done = np.ones(n, dtype=np.int64), 1
    while done < n:  # the powers g^i mod q, by doubling
        power[done : 2 * done] = power[: min(done, n - done)] * pow(g, done, q) % q
        done *= 2
    table = np.zeros(q, dtype=np.int64)
    table[q - power] = table[power] = np.arange(n)  # odd q: the powers are all units
    width, basis = k * (2 if p == 2 else 1), {}
    for units in chunks:
        logs = table[units]
        if p == 2:
            logs = np.stack((units % 4 // 3 * (phi // 2), 2 * logs % phi), axis=2)
            logs = logs.reshape(len(units), width)
        while len(logs := logs[_outside(basis, phi, logs)]):
            orders._insert(basis, phi, logs[0].tolist())
    both, cols = {}, range(0, width, width // k)  # the column of each block's sign
    for v in [row + row for row, _ in basis.values()] + [
            [phi // 2 * (j == i) for j in range(width)] + [0] * width for i in cols]:
        orders._insert(both, phi, v)
    signs = [[0] * width]
    for row in (row[width:] for j, (row, _) in both.items() if j >= width):
        signs += [[(x + y) % phi for x, y in zip(v, row)] for v in signs]
    return (prod(phi // d for _, d in basis.values()),
            {tuple(q - 1 if v[i] else 1 for i in cols) for v in signs})


def _factor(shape: _Shape, rows: list[list[int]], p: int, e: int,
            probe: bool, plans: dict | None = None) -> tuple[int, set]:
    """|G|, and the sign tuples in G, for G = D_q, q = p^e, from the lifts
    sum c_j * rows[j], 0 <= c_j < p, of S_q/pS_q and the steps
    det(1 + p^i rows[j]); with ``probe``, G is the subgroup of D_q that the
    steps and the lifts at the indices i*t mod p^n, i < _PROBE, generate,
    for t the integer nearest p^n/phi, phi the golden ratio, made prime to p.
    ``plans`` are the blocks' _laplace_plans, built once here if not given.
    The int64 guard comes first, as the probe's indices are int64 too."""
    q, n, k = p**e, len(rows), len(shape.blocks)
    _check_int64(q, max(n, *shape.blocks), p**n)
    plans = plans or matrices._laplace_plans(shape.blocks)
    shape = _shape(q, shape.blocks)
    basis = np.array(rows, dtype=np.int64).reshape(n, shape.width)
    if probe:
        size = p**n
        stride = round(size * (5**0.5 - 1) / 2)
        stride += stride % p == 0
        index = np.array([i * stride % size for i in range(_PROBE)], dtype=np.int64)
        chunks = [_combinations(basis, [p] * n, index, q)]
    else:
        chunks = _elements(shape, basis, [p] * n)
    if e > 1:
        identity = np.concatenate([np.eye(r, dtype=np.int64).ravel() for r in shape.blocks])
        steps = (identity + (p ** np.arange(1, e))[:, None, None] * basis) % q
        chunks = chain(chunks, [steps.reshape(-1, shape.width)])
    unit = _units(q)
    dets = ((d, np.logical_and.reduce([unit[d[:, j]] for j in range(k)]))
            for d in (_block_dets(shape, lifts, plans) for lifts in chunks))
    if probe or e > 1 or q**k >= 2**63:  # or where base-q codes would leave int64
        return _lattice((d[units] for d, units in dets), p, e, k)
    place = q ** np.arange(k - 1, -1, -1, dtype=np.int64)
    found = _distinct_rows(np.concatenate([
        _distinct_rows(sum(d[:, j] * place[j] for j in range(k))[units]) for d, units in dets]))
    if len(found) >= 2**k:  # the codes of the 2^k sign tuples, looked up
        signs = np.array(list(product((1, q - 1), repeat=k)), dtype=np.int64)
        hit = found[found.searchsorted(signs @ place).clip(max=len(found) - 1)] == signs @ place
        return len(found), set(map(tuple, signs[hit].tolist()))
    rows = found[:, None] // place % q  # D_q, scanned for its signs
    return len(found), set(map(tuple, rows[is_sign(rows, q).all(axis=1)].tolist()))


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
    _check_int64(spec.m, len(basis), prod(additive))
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
    plans = matrices._laplace_plans(blocks)  # each block in one pass, on Python ints
    entries = [list(zip(*(t[i].entries for t in S))) for i in range(len(blocks))]
    dets = zip(*(_laplace_lists(x, r, m, plans[r]) for x, r in zip(entries, blocks)))
    units = frozenset(tup for tup, d in zip(S, dets) if all(gcd(x, m) == 1 for x in d))

    def op(a, b):
        return tuple(mat_mul(x, y) for x, y in zip(a, b))

    return FiniteGroup(units, op, identity, name=f"units of subring mod {m}")
