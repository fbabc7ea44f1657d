"""Square matrices over Z/m: products, determinants, GL(r, Z/m) and the
subgroup generated by elementary matrices (the mod-m image of the global
unit group of the integer matrix ring), and the orders of both in closed
form.  Determinants of every size the cap admits, a bound kept here alone,
take one division-free Laplace expansion, on Python ints here, exact at any
level, and on the int64 columns of the row kernel, :mod:`genuskit.kernel`.
The group enumerations run on that kernel, which they import on their first
call, so a process that never enumerates a group loads neither it nor numpy.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import prod
from operator import mul

# FiniteGroup is named in annotations only: genuskit.cosets loads on first use
from .errors import Frozen, ResourceLimitError
from .rings import Residue, prime_powers, sign_count, totient

# Default cap.  For enumerate_gl and stable_image it bounds m^(r^2), the
# number of candidate matrices scanned and of entries in the visited map;
# gl_order and stable_image_order use closed forms but check the same bound.
# For orders.genus and orders.subring_closure it bounds |S|, the number of
# subring elements, and hence m, since the subring holds all m scalars: |S|
# is exact before any element exists, as the subring is held as a basis,
# checked each time it grows.  For every Laplace plan, det's included, it
# bounds the r*2^(r-1) terms of the largest block.
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
    whose row-major entries are ``x`` and ``y``, on Python ints: each row of
    x against each column of y, where a zero row of x, common in the words
    of a subring closure, gives a zero row with no multiplication."""
    cols = [y[j::r] for j in range(r)]
    out = []
    for i in range(0, r * r, r):
        row = x[i : i + r]
        out += [sum(map(mul, row, col)) for col in cols] if any(row) else [0] * r
    return out


# A plan holds the r*2^(r-1) terms of an r x r determinant: 24 KB at r = 8,
# 63 KB at r = 9 and 91 MB at r = 17, which the default cap admits.  Plans
# of at most _KEPT_PLAN rows are kept for the life of the process, and a
# larger one is built afresh on each call of _laplace_plan; so a caller that
# takes the determinants of a large block a chunk at a time, as a genus
# query does, builds the plan once and passes it on, and drops it after.
_KEPT_PLAN = 8
_kept_plans: dict[int, tuple] = {}


def _laplace_plan(r: int) -> tuple:
    """The Laplace expansion of an r x r determinant over column sets,
    from the bottom row up.  Level k holds, for each set of k columns in
    the order of combinations(range(r), k), the minor on the bottom k rows
    and those columns as its terms (entry, minor, sign): the entry index
    in the top one of those rows, the index of the minor on the columns
    left at level k - 1, and the cofactor sign.  Level 1 is the bottom row
    itself, and level r has the one set whose minor is the determinant."""
    if r in _kept_plans:
        return _kept_plans[r]
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
    plan = tuple(levels)
    if r <= _KEPT_PLAN:
        _kept_plans[r] = plan
    return plan


def _laplace_plans(blocks, cap: int = DEFAULT_CAP) -> dict[int, tuple]:
    """The _laplace_plan of each block size, for every caller: a largest
    block of more than ``cap`` terms is refused before any plan is built."""
    r = max(blocks)
    terms = r * 2 ** (r - 1)
    if terms > cap:
        raise ResourceLimitError(f"a {r}x{r} determinant takes {terms} terms, above the cap "
                                 f"of {cap}", phase="determinant", needed=terms, cap=cap)
    return {r: _laplace_plan(r) for r in blocks}


def _laplace_lists(x: list[list[int]], r: int, m: int, plan: tuple) -> list[int]:
    """Determinants mod m of r x r matrices by the division-free Laplace
    expansion ``plan``, _laplace_plan(r), exact over Z/m for composite m at
    about r*2^(r-1) products each: ``x`` holds one list of Python ints per
    entry, row-major, which need not be reduced, and the result one
    determinant per matrix.  kernel._laplace is the same on int64 columns."""
    if r == 1:
        return [d % m for d in x[0]]
    minors = x[(r - 1) * r:]
    for level in plan:
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
    """Determinant by Laplace expansion on Python ints, of any size the cap admits."""
    x, r = [[e] for e in a.entries], a.size
    return Residue(_laplace_lists(x, r, a.modulus, _laplace_plans((r,))[r])[0], a.modulus)


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


# -- rows and the chunk ------------------------------------------------------
#
# Internally an element of prod_i Mat(r_i, Z/m) is one row: the row-major
# entries of every block, concatenated, reduced into 0..m-1.  MatModM
# appears only at the public boundary, where mat_mul and det take exact
# Python ints.  _CHUNK divides the work of a genus count between Python
# ints and numpy: a prime-power factor whose lifts fit one chunk stays on
# Python lists, which spares a small query the time and memory of
# importing numpy and of compiling genuskit.kernel; past that the rows are
# the numpy int64 rows of that kernel, which reads _CHUNK from here at
# each call.  The subring closure runs on Python ints at every size.
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
    from . import kernel
    return kernel._group(kernel._gl_flat(r, m), r, m, f"GL({r}, Z/{m})")


def stable_image(r: int, m: int, cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Subgroup of GL(r, Z/m) generated by the elementary generators.

    This is the image of the global unit group of Mat(r, Z) in GL(r, Z/m);
    it always contains SL(r, Z/m) and the determinant-(-1) coset.
    """
    _check_scan_cap(r, m, cap)
    from . import kernel
    return kernel._group(kernel._stable_flat(r, m), r, m, f"E({r}, Z/{m})")


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
