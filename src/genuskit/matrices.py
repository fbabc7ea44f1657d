"""Square matrices over Z/m: products, determinants, GL(r, Z/m) and the
subgroup generated by elementary matrices (the mod-m image of the global
unit group of the integer matrix ring), plus the int64 row kernel, whose one
enumerator and one table of units per level serve GL and the subrings of
:mod:`genuskit.orders` above one chunk.  Determinants of every size take one
division-free Laplace expansion, on Python ints in ``det``, on columns of
Python ints and on int64 columns.  The row kernel imports numpy on its
first call, so a process that never reaches it never loads numpy.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import prod

from .cosets import FiniteGroup
from .errors import Frozen, ResourceLimitError
from .rings import Residue, prime_powers, sign_count, totient

# Default cap.  For enumerate_gl and stable_image it bounds m^(r^2), the
# number of candidate matrices scanned and of entries in the visited map;
# gl_order and stable_image_order use closed forms but check the same bound.
# For orders.genus and orders.subring_closure it bounds |S|, the number of
# subring elements, and hence m, since the subring holds all m scalars.  The
# subring is held as a basis, so |S| is exact before any element exists; the
# cap is checked then, and the elements are only ever scanned a chunk at a
# time.
DEFAULT_CAP = 2_000_000


class MatModM(Frozen):
    """An r x r matrix over Z/m with row-major, canonically reduced entries."""

    __slots__ = ("modulus", "size", "entries")
    modulus: int
    size: int
    entries: tuple[int, ...]

    def __init__(self, modulus: int, size: int, entries):
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        if size < 1:
            raise ValueError(f"matrix size must be >= 1, got {size}")
        entries = tuple(int(e) % modulus for e in entries)
        if len(entries) != size * size:
            raise ValueError(
                f"expected {size * size} entries for a "
                f"{size}x{size} matrix, got {len(entries)}"
            )
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _trusted(cls, modulus: int, size: int, entries: tuple[int, ...]) -> "MatModM":
        """A matrix from entries already reduced into 0..modulus-1, unchecked."""
        mat = object.__new__(cls)
        object.__setattr__(mat, "modulus", modulus)
        object.__setattr__(mat, "size", size)
        object.__setattr__(mat, "entries", entries)
        return mat

    # spelled out, as the shared versions are slower and the generic
    # double-coset engine hashes and compares matrices in bulk
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.modulus, self.size, self.entries)
                == (other.modulus, other.size, other.entries))

    def __hash__(self):
        return hash((self.modulus, self.size, self.entries))

    @classmethod
    def from_rows(cls, rows, modulus: int) -> "MatModM":
        rows = [list(row) for row in rows]
        size = len(rows)
        if any(len(row) != size for row in rows):
            raise ValueError("matrix rows must form a square array")
        flat = tuple(e for row in rows for e in row)
        return cls(modulus, size, flat)

    @classmethod
    def identity(cls, size: int, modulus: int) -> "MatModM":
        flat = tuple(1 if i == j else 0 for i in range(size) for j in range(size))
        return cls(modulus, size, flat)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        r = self.size
        return tuple(self.entries[i * r : (i + 1) * r] for i in range(r))

    def __mul__(self, other: "MatModM") -> "MatModM":
        return mat_mul(self, other)

    def det(self) -> Residue:
        return det(self)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in row) for row in self.rows)
        return f"MatModM([{body}] mod {self.modulus})"


def mat_mul(a: MatModM, b: MatModM) -> MatModM:
    """Entrywise-reduced matrix product; operands must share size and modulus."""
    if a.modulus != b.modulus:
        raise ValueError(f"modulus mismatch: {a.modulus} vs {b.modulus}")
    if a.size != b.size:
        raise ValueError(f"size mismatch: {a.size} vs {b.size}")
    m, r = a.modulus, a.size
    return MatModM._trusted(m, r, tuple([e % m for e in _matmul(a.entries, b.entries, r)]))


def _matmul(x, y, r: int) -> list[int]:
    """The unreduced row-major entries of the product of the r x r matrices
    whose row-major entries are ``x`` and ``y``, on Python ints."""
    return [sum(x[i * r + t] * y[t * r + j] for t in range(r))
            for i in range(r) for j in range(r)]


@lru_cache(maxsize=None)
def _laplace_plan(r: int) -> tuple:
    """The Laplace expansion of an r x r determinant over column sets,
    from the bottom row up.  Level k holds, for each set of k columns in
    the order of combinations(range(r), k), the minor on the bottom k rows
    and those columns as its terms (entry, minor, sign): the entry index
    in the top one of those rows, the index of the minor on the columns
    left at level k - 1, and the cofactor sign.  Level 1 is the bottom row
    itself, and level r has the one set whose minor is the determinant."""
    index = {(j,): j for j in range(r)}
    levels = []
    for k in range(2, r + 1):
        row = (r - k) * r
        sets = list(combinations(range(r), k))
        levels.append(tuple(
            tuple((row + c, index[cols[:p] + cols[p + 1:]], (-1) ** p)
                  for p, c in enumerate(cols))
            for cols in sets))
        index = {cols: i for i, cols in enumerate(sets)}
    return tuple(levels)


def _laplace(x, r: int, m: int):
    """Determinant mod m of the r x r matrix whose row-major entries, each
    reduced into 0..m-1, are ``x``: Python ints, or int64 columns that
    hold one matrix per row.  It takes no division, so it is exact over
    Z/m for composite m, and it costs about r*2^(r-1) products.  Every
    minor is reduced before it is used, and the terms of a minor alternate
    in sign, so a partial sum stays within ceil(r/2)*(m-1)^2 of zero: exact
    in int64 over the range r*(m-1)^2 < 2^63 that _mul_rows and the
    subring closure admit."""
    minors = x[(r - 1) * r:]
    for level in _laplace_plan(r):
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


def _laplace_lists(x: list[list[int]], r: int, m: int) -> list[int]:
    """_laplace on Python lists: ``x`` holds one list per entry of the r x r
    matrices, row-major, and the result one determinant mod m per matrix.
    Python ints are exact at any size, so the entries need not be reduced."""
    if r == 1:
        return [d % m for d in x[0]]
    minors = x[(r - 1) * r:]
    for level in _laplace_plan(r):
        reduced = []
        for (e, i, _), *rest in level:  # the first term's sign is +1
            acc = [a * b for a, b in zip(x[e], minors[i])]
            for e, i, sign in rest:
                if sign > 0:
                    acc = [t + a * b for t, a, b in zip(acc, x[e], minors[i])]
                else:
                    acc = [t - a * b for t, a, b in zip(acc, x[e], minors[i])]
            reduced.append([t % m for t in acc])
        minors = reduced
    return minors[0]


def det(a: MatModM) -> Residue:
    """Determinant by Laplace expansion, exact over Z/m for every size."""
    return Residue(_laplace(a.entries, a.size, a.modulus), a.modulus)


def elementary_generators(r: int, m: int) -> list[MatModM]:
    """Transvections E_ij(1) for i != j plus diag(-1, 1, ..., 1).

    These generate the image of the global integer unit group inside
    GL(r, Z/m).  For r == 1 there are no transvections and the list is the
    single scalar -1 mod m.
    """
    if r < 1:
        raise ValueError(f"matrix size must be >= 1, got {r}")
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")

    def identity_with(pos: int, value: int) -> MatModM:
        flat = [int(p == q) for p in range(r) for q in range(r)]
        flat[pos] = value
        return MatModM(m, r, flat)

    transvections = [
        identity_with(i * r + j, 1) for i in range(r) for j in range(r) if i != j
    ]
    return transvections + [identity_with(0, m - 1)]


# -- row kernel ---------------------------------------------------------------
#
# Internally an element of prod_i Mat(r_i, Z/m) is one row: the row-major
# entries of every block, concatenated, reduced into 0..m-1.  MatModM
# appears only at the public boundary, where mat_mul and det take exact
# Python ints.  _CHUNK divides the work between Python ints and numpy: a
# subring of at most _CHUNK elements, and a closure level of at most _CHUNK
# multiply-adds, stay on Python lists, which spares a small query the
# time and memory of importing numpy; past that the rows are numpy int64
# rows, handled _CHUNK at a time, so that temporaries stay small whatever
# the size of the group.  Each function here that takes numpy imports it
# itself.  Duplicates are dropped by _distinct_rows, not np.unique:
# np.unique(axis=0) is several times slower on int64 rows, and under
# numpy 2 the first np.unique call in a process imports numpy.ma, which
# takes longer than a small genus.
_CHUNK = 1 << 15


class _Shape(Frozen):
    __slots__ = ("m", "blocks", "offsets", "width")
    m: int
    blocks: tuple[int, ...]
    offsets: tuple[int, ...]
    width: int

    def __init__(self, m: int, blocks: tuple[int, ...], offsets: tuple[int, ...], width: int):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "width", width)


@lru_cache(maxsize=64)
def _shape(m: int, blocks: tuple[int, ...]) -> _Shape:
    sizes = [r * r for r in blocks]
    offsets = tuple(sum(sizes[:i]) for i in range(len(sizes)))
    return _Shape(m=m, blocks=blocks, offsets=offsets, width=sum(sizes))


@lru_cache(maxsize=16)
def _coset_lut(m: int) -> np.ndarray:
    """The digit nu(d) + 1, for nu(d) = min(d, m - d), naming the coset
    {d, -d} of {+-1} at a unit d, and 0 at the multiples of the primes of m;
    16 int32 tables cost 64*m bytes."""
    import numpy as np
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
    import numpy as np
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
    import numpy as np
    # column-major, so that each block's column is contiguous
    out = np.empty((len(rows), len(shape.blocks)), dtype=np.int64, order="F")
    for col, (r, off) in enumerate(zip(shape.blocks, shape.offsets)):
        out[:, col] = _laplace([rows[:, off + t] for t in range(r * r)], r, shape.m)
    return out


def _distinct_rows(a: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array, or the distinct entries of a 1-D
    one, in ascending lexicographic order: a sort, then each row kept when
    it differs from its predecessor."""
    import numpy as np
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
    import numpy as np
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
    import numpy as np
    m, width = shape.m, shape.width
    basis = np.array(basis, dtype=np.int64).reshape(len(additive), width)
    split, low = len(basis), 1
    while split and low * additive[split - 1] <= _CHUNK:
        split -= 1
        low *= additive[split]
    table = np.zeros((width, 1), dtype=np.int64)
    for row, n in zip(basis[split:], additive[split:]):
        mults = row[:, None] * np.arange(n, dtype=np.int64) % m
        table = (table[:, :, None] + mults[:, None]).reshape(width, -1)
    if not split:
        yield np.remainder(table, m, out=table).T
        return
    total, step = prod(additive[:split]), max(1, _CHUNK // low)
    buffer = np.empty((width, min(step, total), low), dtype=np.int64)
    for lo in range(0, total, step):
        index = np.arange(lo, min(lo + step, total), dtype=np.int64)
        offsets = _combinations(basis[:split], additive[:split], index, m).T
        chunk = buffer[:, : len(index)]
        np.add(offsets[:, :, None], table[:, None], out=chunk)
        yield np.remainder(chunk, m, out=chunk).reshape(width, -1).T


def _gl_flat(r: int, m: int, lut: np.ndarray | None = None) -> np.ndarray:
    """Ascending codes of the r x r matrices mod m whose determinant d has
    lut[d] True, filtered from the _elements of the standard basis, whose
    element i has base-m code i.  The default lut, the units mod m, gives
    GL(r, Z/m); criterion 4 passes the signs +-1."""
    import numpy as np
    shape = _shape(m, (r,))
    lut = _coset_lut(m) > 0 if lut is None else lut
    chunks = _elements(shape, np.eye(r * r, dtype=np.int64), [m] * (r * r))
    return np.flatnonzero(np.concatenate([lut[_block_dets(shape, rows)[:, 0]]
                                          for rows in chunks]))


def _row_table(gens: list[MatModM]) -> np.ndarray:
    """T[g, c] is the code of v*g for the g-th generator g and the row v of
    length r with base-m code c, the first entry most significant; shape
    (#gens, m^r)."""
    import numpy as np
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
    import numpy as np
    rows_m = table.shape[1]
    place = rows_m ** np.arange(r - 1, -1, -1, dtype=np.int64)
    return sum(table[:, codes // place[a] % rows_m] * place[a] for a in range(r))


def _stable_flat(r: int, m: int) -> np.ndarray:
    """Ascending codes of the closure of the elementary generators.  For
    r = 1 the one generator is -1 and the closure is {+-1}.  For r >= 2 a
    frontier search right-multiplies each frontier by all generators through
    their row tables over the m^r row codes, so no matrix is decoded or
    multiplied.  What was reached is marked in a boolean map over all
    m^(r^2) codes, which _check_scan_cap bounds.  It serves stable_image and
    criterion 4."""
    import numpy as np
    if r == 1:
        return np.array(sorted({1 % m, -1 % m}), dtype=np.int64)
    table = _row_table(elementary_generators(r, m))
    place = m ** np.arange(r * r - 1, -1, -1, dtype=np.int64)
    seen = np.zeros(m ** (r * r), dtype=bool)
    frontier = np.array([MatModM.identity(r, m).entries]) @ place
    seen[frontier] = True
    while len(frontier):
        reached = []
        for lo in range(0, len(frontier), _CHUNK):
            codes = _right_products(table, frontier[lo : lo + _CHUNK], r).ravel()
            new = _distinct_rows(codes[~seen[codes]])
            seen[new] = True
            reached.append(new)
        frontier = np.concatenate(reached)
    return np.flatnonzero(seen)


def _group(codes: np.ndarray, r: int, m: int, name: str) -> FiniteGroup:
    """The group of the matrices with these codes, decoded a chunk at a time."""
    import numpy as np
    eye, radices = np.eye(r * r, dtype=np.int64), [m] * (r * r)
    chunks = (_combinations(eye, radices, codes[lo : lo + _CHUNK], m).tolist()
              for lo in range(0, len(codes), _CHUNK))
    carrier = frozenset(MatModM(m, r, row) for rows in chunks for row in rows)
    return FiniteGroup(carrier, mat_mul, MatModM.identity(r, m), name=name)


# Python prints an int of at most 4,300 digits (sys.get_int_max_str_digits),
# so a scan of 10^4300 candidates or more is named as m^(r^2) in the error,
# and 10^4299 stands for it as a lower bound
_UNPRINTABLE = 10**4300


def _check_scan_cap(r: int, m: int, cap: int) -> None:
    if r < 1:
        raise ValueError(f"matrix size must be >= 1, got {r}")
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    # m^(r^2) >= 2^low, so it is built only when it may be short enough to
    # print or the cap is not, and a huge r is refused at once
    low = (m.bit_length() - 1) * r * r
    if low < _UNPRINTABLE.bit_length() or cap >= _UNPRINTABLE:
        scan = m ** (r * r)
        if scan <= cap:
            return
        if scan < _UNPRINTABLE:
            raise ResourceLimitError(
                f"enumerating {r}x{r} matrices mod {m} needs a scan of {scan} "
                f"candidates, above the cap of {cap}",
                phase="scan", needed=scan, cap=cap,
            )
    raise ResourceLimitError(
        f"enumerating {r}x{r} matrices mod {m} needs a scan of {m}^{r * r} "
        f"candidates, above the cap of {cap}",
        phase="scan", needed=_UNPRINTABLE // 10, cap=cap, lower_bound=True,
    )


def enumerate_gl(r: int, m: int, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """The group GL(r, Z/m) of matrices with invertible determinant."""
    _check_scan_cap(r, m, cap)
    return _group(_gl_flat(r, m), r, m, f"GL({r}, Z/{m})")


def stable_image(r: int, m: int, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Subgroup of GL(r, Z/m) generated by the elementary generators.

    This is the image of the global unit group of Mat(r, Z) in GL(r, Z/m);
    it always contains SL(r, Z/m) and the determinant-(-1) coset.
    """
    _check_scan_cap(r, m, cap)
    return _group(_stable_flat(r, m), r, m, f"E({r}, Z/{m})")


def gl_order(r: int, m: int, cap: int = DEFAULT_CAP) -> int:
    """|GL(r, Z/m)| in closed form, prod over p^e || m of
    p^((e-1) r^2) * prod_{i<r} (p^r - p^i): by the CRT GL(r, Z/m) is the
    product of the GL(r, Z/p^e), and reduction mod p maps GL(r, Z/p^e) onto
    GL(r, Z/p) with kernel I + p*Mat(r, Z/p^e).  Nothing is scanned, but
    the cap on the scan of enumerate_gl is checked all the same, so that
    the two refuse the same inputs."""
    _check_scan_cap(r, m, cap)
    order = 1
    for p, e in prime_powers(m):
        order *= p ** ((e - 1) * r * r) * prod(p**r - p**i for i in range(r))
    return order


def stable_image_order(r: int, m: int, cap: int = DEFAULT_CAP) -> int:
    """|E(r, Z/m)| = |GL(r, Z/m)| / phi(m) * |{+-1}|, as E = det^-1(+-1)
    (Bass, 1964), which criterion 4 checks against the search of stable_image.
    Through gl_order, it scans nothing and refuses what enumerate_gl refuses."""
    return gl_order(r, m, cap) // totient(m) * sign_count(m)
