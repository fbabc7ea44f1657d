import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genuskit.errors import ResourceLimitError
from genuskit.rings import (
    Residue,
    ext_gcd,
    gcd,
    inverse_mod,
    is_sign,
    prime_powers,
    sign_count,
    totient,
    unit_group,
    units,
)


def brute_totient(m: int) -> int:
    # independent oracle: literal count of coprime k in 1..m
    return len([k for k in range(1, m + 1) if math.gcd(k, m) == 1])


def brute_units(m: int) -> set[int]:
    # independent oracle: search for an inverse by exhaustion
    return {
        a for a in range(m) if any((a * b) % m == 1 % m for b in range(m))
    }


class TestTotient:
    @pytest.mark.parametrize(
        "m, expected",
        [(1, 1), (2, 1), (24, 8)],  # 8 frozen from brute_totient(24)
    )
    def test_spec_values(self, m, expected):
        assert totient(m) == expected == brute_totient(m)

    def test_matches_oracle_up_to_3000(self):
        for m in range(1, 3001):
            assert totient(m) == brute_totient(m)

    def test_large_arguments(self):
        assert totient(10**12) == 4 * 10**11
        assert totient(10**12 + 39) == 10**12 + 38  # a prime
        assert totient(100_000_000_000) == 40_000_000_000

    @pytest.mark.parametrize("m", [0, -1, -24])
    def test_rejects_nonpositive(self, m):
        with pytest.raises(ValueError):
            totient(m)

    @given(a=st.integers(1, 60), b=st.integers(1, 60))
    def test_multiplicative_on_coprime_pairs(self, a, b):
        if math.gcd(a, b) == 1:
            assert totient(a * b) == totient(a) * totient(b)


class TestSignGroup:
    def test_matches_brute_count_and_mask(self):
        for m in range(1, 201):
            # independent oracle: the residues that 1 or -1 reduce to
            brute = {x for x in range(m) if (x - 1) % m == 0 or (x + 1) % m == 0}
            assert sign_count(m) == len(brute)
            assert [x for x in range(m) if is_sign(x, m)] == sorted(brute)
            mask = is_sign(np.arange(m, dtype=np.int64), m)
            assert np.flatnonzero(mask).tolist() == sorted(brute)


class TestPrimePowers:
    def test_spec_values(self):
        assert prime_powers(1) == []
        assert prime_powers(24) == [(2, 3), (3, 1)]
        assert prime_powers(10**12 + 39) == [(10**12 + 39, 1)]  # a prime

    def test_exact_prime_powers_up_to_2000(self):
        for m in range(1, 2001):
            pairs = prime_powers(m)
            assert math.prod(p**e for p, e in pairs) == m
            assert [p for p, _ in pairs] == sorted({p for p, _ in pairs})
            for p, e in pairs:
                assert e >= 1 and all(p % q for q in range(2, p))
                assert (m // p**e) % p != 0

    @pytest.mark.parametrize("m", [0, -1])
    def test_rejects_nonpositive(self, m):
        with pytest.raises(ValueError):
            prime_powers(m)

    def test_cap_bounds_the_trial_divisors(self):
        # every m <= cap factors, as its trial divisors stay below sqrt(m)
        for cap in (1, 2, 10, 97):
            for m in range(1, cap + 1):
                assert prime_powers(m, cap) == prime_powers(m)
        # 1, 2 and 3 take no trial divisor at all, whatever the cap
        assert [prime_powers(m, 0) for m in (1, 2, 3)] == [[], [(2, 1)], [(3, 1)]]
        assert prime_powers(2**40 * 3**5, 3) == [(2, 40), (3, 5)]
        assert prime_powers(101 * 103, 101) == [(101, 1), (103, 1)]
        with pytest.raises(ResourceLimitError) as info:
            totient(101 * 103, 100)
        e = info.value
        assert (e.phase, e.needed, e.cap, e.lower_bound) == (
            "factorization", 101, 100, False)
        assert str(e) == "factoring 10403 needs trial divisors up to 101, above the cap of 100"


class TestGcd:
    @pytest.mark.parametrize(
        "a, b, expected", [(5, 24, 1), (0, 7, 7), (12, 24, 12), (0, 0, 0)]
    )
    def test_spec_values(self, a, b, expected):
        assert gcd(a, b) == expected

    @given(a=st.integers(-500, 500), b=st.integers(-500, 500))
    def test_divides_both_and_is_maximal(self, a, b):
        g = gcd(a, b)
        assert g >= 0
        if g == 0:
            assert a == b == 0
        else:
            assert a % g == 0 and b % g == 0
            limit = min(d for d in (abs(a), abs(b)) if d) if (a or b) else 0
            for d in range(g + 1, limit + 1):
                assert not (a % d == 0 and b % d == 0)
            assert gcd(b, a) == g

    @given(a=st.integers(-10**6, 10**6), b=st.integers(-10**6, 10**6))
    def test_ext_gcd_bezout(self, a, b):
        g, x, y = ext_gcd(a, b)
        assert a * x + b * y == g == math.gcd(a, b)


class TestUnits:
    @pytest.mark.parametrize(
        "m, expected",
        [
            (2, {1}),
            (4, {1, 3}),       # frozen from brute inverse search
            (12, {1, 5, 7, 11}),
            (1, {0}),          # zero ring: 0 acts as the identity
        ],
    )
    def test_spec_values(self, m, expected):
        assert {r.value for r in units(m)} == expected == brute_units(m)

    def test_cardinality_is_totient(self):
        for m in range(1, 121):
            assert len(units(m)) == totient(m)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            units(0)

    @given(m=st.integers(1, 150))
    @settings(max_examples=60, deadline=None)
    def test_each_unit_has_unique_inverse(self, m):
        us = units(m)
        identity = Residue(1, m)
        for u in us:
            inverses = [w for w in us if (u * w) == identity]
            assert len(inverses) == 1


class TestResidue:
    def test_canonical_reduction(self):
        assert Residue(17, 5).value == 2
        assert Residue(-1, 5).value == 4

    def test_modulus_mismatch_raises(self):
        with pytest.raises(ValueError):
            Residue(1, 5) * Residue(1, 7)
        with pytest.raises(ValueError):
            Residue(1, 5) + Residue(1, 7)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            Residue(0, 0)

    def test_inverse_by_extended_euclid(self):
        assert Residue(5, 12).inverse() == Residue(5, 12)
        assert Residue(7, 24).inverse().value == 7
        with pytest.raises(ValueError):
            Residue(6, 12).inverse()

    def test_zero_ring_inverse(self):
        assert inverse_mod(0, 1) == 0
        assert Residue(0, 1).is_unit()

    def test_arithmetic(self):
        assert Residue(3, 7) + Residue(5, 7) == Residue(1, 7)
        assert -Residue(3, 7) == Residue(4, 7)
        assert Residue(3, 7) - Residue(5, 7) == Residue(5, 7)


class TestUnitGroup:
    @pytest.mark.parametrize("m", [1, 2, 5, 12])
    def test_group_axioms(self, m):
        unit_group(m).check_axioms()

    def test_order(self):
        for m in (1, 2, 8, 24, 30):
            assert len(unit_group(m)) == totient(m)


class TestArgumentValidation:
    def test_inverse_mod_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            inverse_mod(3, 0)

    def test_unit_group_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            unit_group(0)
