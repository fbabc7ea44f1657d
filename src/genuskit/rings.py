"""Exact arithmetic in Z/m: residues, units, gcd, prime powers, totient, signs."""

from __future__ import annotations

import math

from .cosets import FiniteGroup
from .errors import Frozen, ResourceLimitError


def gcd(a: int, b: int) -> int:
    """Nonnegative greatest common divisor; gcd(0, 0) == 0."""
    return math.gcd(a, b)


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y == g == gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def prime_powers(m: int, cap: int | None = None) -> list[tuple[int, int]]:
    """The pairs (p, e) with p^e exactly dividing m, p ascending, found by
    trial division up to ``cap``, past which phase "factorization" refuses
    a cofactor that may be composite; m == 1 has none."""
    if m < 1:
        raise ValueError(f"prime powers are defined for m >= 1, got {m}")
    found, rest = [], m
    top = m if cap is None else cap
    for p in range(2, min(math.isqrt(m), top) + 1):
        if p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            found.append((p, e))
    if (need := math.isqrt(rest)) > max(top, 1):  # a root of 1 needs no divisor
        raise ResourceLimitError(f"factoring {m} needs trial divisors up to {need}, "
                                 f"above the cap of {cap}",
                                 phase="factorization", needed=need, cap=cap)
    if rest > 1:
        found.append((rest, 1))
    return found


def totient(m: int, cap: int | None = None) -> int:
    """Euler totient from the prime factors of m, found as in prime_powers."""
    if m < 1:
        raise ValueError(f"totient is defined for m >= 1, got {m}")
    result = m
    for p, _ in prime_powers(m, cap):
        result -= result // p
    return result


def sign_count(m: int) -> int:
    """|{+-1}| in (Z/m)^x, the determinants of global units; 1 if 1 == -1."""
    return len({1 % m, -1 % m})


def is_sign(x, m: int):
    """Elementwise x in {+-1} mod m, for an int or an array reduced mod m."""
    return (x == 1 % m) | (x == -1 % m)


def inverse_mod(a: int, m: int) -> int | None:
    """Multiplicative inverse of a mod m via extended Euclid, or None.

    For m == 1 the ring is the zero ring and 0 is its own inverse.
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    g, x, _ = ext_gcd(a % m, m)
    if g != 1:
        return None
    return x % m


class Residue(Frozen):
    """An element of Z/m, stored in the canonical range 0..m-1."""

    __slots__ = ("value", "modulus")
    value: int
    modulus: int

    def _validate(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        object.__setattr__(self, "value", int(self.value) % self.modulus)

    def _same_ring(self, other: "Residue") -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                f"cannot combine residues mod {self.modulus} and mod {other.modulus}"
            )

    def __add__(self, other: "Residue") -> "Residue":
        self._same_ring(other)
        return Residue(self.value + other.value, self.modulus)

    def __sub__(self, other: "Residue") -> "Residue":
        self._same_ring(other)
        return Residue(self.value - other.value, self.modulus)

    def __neg__(self) -> "Residue":
        return Residue(-self.value, self.modulus)

    def __mul__(self, other: "Residue") -> "Residue":
        self._same_ring(other)
        return Residue(self.value * other.value, self.modulus)

    def is_unit(self) -> bool:
        return inverse_mod(self.value, self.modulus) is not None

    def inverse(self) -> "Residue":
        inv = inverse_mod(self.value, self.modulus)
        if inv is None:
            raise ValueError(f"{self.value} is not a unit mod {self.modulus}")
        return Residue(inv, self.modulus)

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Residue({self.value} mod {self.modulus})"


def units(m: int) -> set[Residue]:
    """The set of invertible residues of Z/m.

    For m == 1 this is the singleton {0}: in the zero ring 0 acts as the
    identity.  Cardinality always equals totient(m).
    """
    if m < 1:
        raise ValueError(f"units are defined for m >= 1, got {m}")
    return {Residue(k, m) for k in range(m) if inverse_mod(k, m) is not None}


def unit_group(m: int) -> FiniteGroup:
    """The unit group of Z/m as a FiniteGroup over plain int residues."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    carrier = frozenset(k for k in range(m) if math.gcd(k, m) == 1)

    def op(a: int, b: int) -> int:
        return (a * b) % m

    return FiniteGroup(carrier, op, 1 % m, name=f"(Z/{m})^x")
