import itertools
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genuskit.kernel as kernel
import genuskit.matrices as matrices
from genuskit.cosets import subgroup_closure
from genuskit.errors import ResourceLimitError
from genuskit.matrices import (
    MatModM,
    det,
    elementary_generators,
    enumerate_gl,
    gl_order,
    mat_mul,
    stable_image,
    stable_image_order,
)
from genuskit.rings import Residue, is_sign, totient


def leibniz_det(mat: MatModM) -> int:
    # independent oracle: permutation-sum determinant
    r, m = mat.size, mat.modulus
    total = 0
    for perm in itertools.permutations(range(r)):
        inversions = sum(
            1 for i in range(r) for j in range(i + 1, r) if perm[i] > perm[j]
        )
        sign = -1 if inversions % 2 else 1
        term = sign
        for i in range(r):
            term *= mat.entries[i * r + perm[i]]
        total += term
    return total % m


def brute_gl_order(r: int, m: int) -> int:
    # independent oracle: scan every matrix, test invertibility by searching
    # for a det inverse
    count = 0
    unit_vals = {a for a in range(m) if math.gcd(a, m) == 1}
    for entries in itertools.product(range(m), repeat=r * r):
        if leibniz_det(MatModM(m, r, entries)) in unit_vals:
            count += 1
    return count


def E(i, j, m, r=2):
    flat = [1 if p == q else 0 for p in range(r) for q in range(r)]
    flat[i * r + j] = 1
    return MatModM(m, r, tuple(flat))


class TestMatModM:
    def test_entries_reduced(self):
        a = MatModM(5, 2, (7, -1, 10, 3))
        assert a.entries == (2, 4, 0, 3)

    def test_from_rows_and_rows(self):
        a = MatModM.from_rows([[1, 2], [3, 4]], 5)
        assert a.rows == ((1, 2), (3, 4))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MatModM(5, 2, (1, 2, 3))
        with pytest.raises(ValueError):
            MatModM.from_rows([[1, 2], [3]], 5)
        with pytest.raises(ValueError):
            MatModM(0, 1, (1,))


class TestMatMul:
    def test_identity_neutral(self):
        a = MatModM.from_rows([[1, 2], [3, 4]], 7)
        i = MatModM.identity(2, 7)
        assert mat_mul(i, a) == a == mat_mul(a, i)

    def test_involution(self):
        d = MatModM.from_rows([[-1, 0], [0, 1]], 5)
        assert mat_mul(d, d) == MatModM.identity(2, 5)

    def test_transvection_square(self):
        assert mat_mul(E(0, 1, 3), E(0, 1, 3)) == MatModM.from_rows(
            [[1, 2], [0, 1]], 3
        )

    def test_mismatch_rejected(self):
        a = MatModM.identity(2, 5)
        with pytest.raises(ValueError):
            mat_mul(a, MatModM.identity(2, 7))
        with pytest.raises(ValueError):
            mat_mul(a, MatModM.identity(3, 5))


def random_mats(r, m):
    return st.tuples(*[st.integers(0, m - 1)] * (r * r)).map(
        lambda t: MatModM(m, r, t)
    )


class TestDet:
    def test_identity(self):
        for r in (1, 2, 3, 4):
            assert det(MatModM.identity(r, 6)) == Residue(1, 6)

    def test_spec_values(self):
        assert det(MatModM.from_rows([[-1, 0], [0, 1]], 7)) == Residue(6, 7)
        assert det(MatModM.from_rows([[1, 1], [0, 1]], 6)) == Residue(1, 6)

    def test_size_cap(self):
        # every size the cap admits takes the same expansion
        rng = random.Random(6)
        assert det(MatModM.identity(5, 3)) == Residue(1, 3)
        for r, m in [(5, 12), (6, 9), (6, 2**30)]:
            mat = MatModM(m, r, [rng.randrange(m) for _ in range(r * r)])
            assert det(mat).value == leibniz_det(mat)

    @given(a=random_mats(3, 12), b=random_mats(3, 12))
    @settings(max_examples=60, deadline=None)
    def test_multiplicative(self, a, b):
        assert det(mat_mul(a, b)) == det(a) * det(b)

    @given(
        data=st.integers(0, 11 ** 16 - 1),
        r=st.integers(1, 4),
        m=st.integers(2, 11),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_leibniz_oracle(self, data, r, m):
        entries = tuple((data // m**k) % m for k in range(r * r))
        mat = MatModM(m, r, entries)
        assert det(mat).value == leibniz_det(mat)


class TestElementaryGenerators:
    def test_r2_set(self):
        gens = set(elementary_generators(2, 7))
        assert gens == {
            E(0, 1, 7),
            E(1, 0, 7),
            MatModM.from_rows([[-1, 0], [0, 1]], 7),
        }

    def test_r1_is_minus_one(self):
        assert elementary_generators(1, 5) == [MatModM(5, 1, (4,))]

    def test_r3_mod2_has_seven_with_trivial_diag(self):
        gens = elementary_generators(3, 2)
        assert len(gens) == 7
        assert gens[-1] == MatModM.identity(3, 2)  # -1 == 1 mod 2


class TestEnumerateGl:
    def test_rank_one_is_unit_group(self):
        for m in range(1, 13):
            assert len(enumerate_gl(1, m)) == totient(m)

    @pytest.mark.parametrize("r, m, order", [(2, 2, 6), (2, 3, 48)])
    def test_small_orders_frozen(self, r, m, order):
        # orders frozen from the brute_gl_order scan below
        group = enumerate_gl(r, m)
        assert len(group) == order == brute_gl_order(r, m)

    def test_group_axioms_small(self):
        enumerate_gl(2, 3).check_axioms()

    def test_orders_match_sieve_formula(self):
        # Euler-product oracle: |GL(r, Z/m)| multiplicative in m, with
        # |GL(r, Z/p^k)| = p^((k-1) r^2) * |GL(r, Z/p)|
        def formula(r, m):
            total = 1
            mm = m
            p = 2
            while mm > 1:
                if mm % p == 0:
                    k = 0
                    while mm % p == 0:
                        mm //= p
                        k += 1
                    glp = 1
                    for i in range(r):
                        glp *= p**r - p**i
                    total *= p ** ((k - 1) * r * r) * glp
                p += 1
            return total

        for m in range(1, 11):
            assert len(enumerate_gl(2, m)) == formula(2, m)
        for m in (2, 3, 4):
            assert len(enumerate_gl(3, m)) == formula(3, m)

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            enumerate_gl(3, 24)
        with pytest.raises(ResourceLimitError):
            enumerate_gl(2, 5, cap=100)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_gl(0, 5)
        with pytest.raises(ValueError):
            enumerate_gl(2, 0)


class TestStableImage:
    def test_rank_one_is_plus_minus_one(self):
        carrier = stable_image(1, 12).carrier
        assert {a.entries[0] for a in carrier} == {1, 11}

    def test_mod2_is_whole_gl(self):
        assert stable_image(2, 2).carrier == enumerate_gl(2, 2).carrier
        assert len(stable_image(2, 2)) == 6

    def test_mod5_order(self):
        # |GL(2,5)| = 480; determinant classes {1, -1} out of 4 units
        assert len(enumerate_gl(2, 5)) == 480
        assert len(stable_image(2, 5)) == 240

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_characterization_small(self, m):
        image = stable_image(2, m).carrier
        signs = {1 % m, (m - 1) % m}
        expected = {a for a in enumerate_gl(2, m).carrier if a.det().value in signs}
        assert image == expected

    def test_characterization_rank_one(self):
        for m in range(1, 13):
            image = stable_image(1, m).carrier
            signs = {1 % m, (m - 1) % m}
            expected = {
                a for a in enumerate_gl(1, m).carrier if a.det().value in signs
            }
            assert image == expected

    @pytest.mark.parametrize("r", [1, 2])
    def test_determinant_fibration(self, r):
        for m in range(1, 11):
            signs = 1 if m <= 2 else 2
            lhs = len(stable_image(r, m)) * totient(m)
            rhs = len(enumerate_gl(r, m)) * signs
            assert lhs == rhs

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            stable_image(3, 24)


# largest m with 3 * (m - 1)^2 < 2^63, the top of the int64-exact range of
# the row kernel for 3x3 blocks
TOP_3X3 = math.isqrt((2**63 - 1) // 3) + 1


def random_tuple(rng, blocks, m, density=1.0):
    return [MatModM(m, r, [rng.randrange(m) if rng.random() < density else 0
                           for _ in range(r * r)]) for r in blocks]


def flat_row(mats):
    return [e for mat in mats for e in mat.entries]


def naive_product(x: MatModM, y: MatModM) -> list[int]:
    # independent oracle: the triple loop, one entry at a time
    r, m = x.size, x.modulus
    return [sum(x.entries[i * r + t] * y.entries[t * r + j] for t in range(r)) % m
            for i in range(r) for j in range(r)]


class TestRowKernel:
    @pytest.mark.parametrize("blocks, m", [((1, 2, 3, 4), 12), ((3,), TOP_3X3)])
    def test_mul_rows_matches_mat_mul(self, blocks, m):
        # dense pairs, the all-(m-1) pair, and sparse 10x10 and 26x26 pairs
        # with zero rows, which mat_mul skips
        rng = random.Random(7)
        pairs = [(random_tuple(rng, blocks, m), random_tuple(rng, blocks, m))
                 for _ in range(40)]
        top = [MatModM(m, r, [m - 1] * (r * r)) for r in blocks]
        pairs.append((top, top))
        for r in (10, 26):
            pairs += [(random_tuple(rng, (r,), m, 0.05), random_tuple(rng, (r,), m, 0.3))
                      for _ in range(4)]
        for x, y in pairs:
            assert flat_row(map(mat_mul, x, y)) == [
                e for a, b in zip(x, y) for e in naive_product(a, b)]
        assert sum(not any(row) for x, _ in pairs[41:] for row in x[0].rows) > 40

    @pytest.mark.parametrize(
        "r, m", [(r, m) for r in (1, 2) for m in range(1, 9)] + [(3, 2), (3, 3)]
    )
    def test_stable_image_matches_generic_closure(self, r, m):
        # independent oracle: the generic engine's closure inside GL
        gl = enumerate_gl(r, m)
        closed = subgroup_closure(gl, elementary_generators(r, m))
        assert stable_image(r, m).carrier == closed

    @pytest.mark.parametrize(
        "r, m", [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (3, 2), (1, 7)]
    )
    def test_edge_cases_match_brute_scan(self, r, m):
        mats = [MatModM(m, r, t) for t in itertools.product(range(m), repeat=r * r)]
        gl = {a for a in mats if math.gcd(leibniz_det(a), m) == 1}
        signs = {1 % m, (m - 1) % m}
        assert enumerate_gl(r, m).carrier == gl
        assert stable_image(r, m).carrier == {
            a for a in gl if leibniz_det(a) in signs
        }

    @pytest.mark.parametrize("m, additive", [
        (12, [2, 3, 4, 6]), (3, [3] * 4), (10, [5, 10, 2]), (7, [1, 7, 1])])
    def test_elements_run_in_mixed_radix_order(self, monkeypatch, m, additive):
        # element i of the enumeration is the combination at index i, in one
        # chunk, split into several, and in chunks of 7 rows
        rng = np.random.default_rng(m)
        basis = rng.integers(0, m, size=(len(additive), 4), dtype=np.int64)
        shape = matrices._shape(m, (2,))
        size = math.prod(additive)
        want = kernel._combinations(basis, additive, np.arange(size), m).tolist()
        for chunk in (7, size - 1, matrices._CHUNK):
            monkeypatch.setattr(matrices, "_CHUNK", chunk)
            # each chunk is overwritten by the next, so keep copies
            chunks = [c.tolist() for c in kernel._elements(shape, basis, additive)]
            assert (len(chunks) > 1) == (chunk < size), chunk
            assert [row for c in chunks for row in c] == want, chunk

    def test_unit_mask_marks_the_units(self):
        for m in [*range(1, 401), 510_510, 999_999, 1_000_003]:
            assert np.array_equal(kernel._units(m), np.gcd(np.arange(m), m) == 1), m

    @pytest.mark.parametrize(
        "r, m", [(1, m) for m in range(1, 13)] + [(2, m) for m in range(1, 8)]
        + [(3, 2), (3, 3)]
    )
    def test_gl_flat_matches_a_det_filter(self, monkeypatch, r, m):
        # the codes of every matrix, first entry most significant, filtered
        # by a Leibniz determinant on Python ints
        dets = [leibniz_det(MatModM(m, r, t))
                for t in itertools.product(range(m), repeat=r * r)]
        masks = [(kernel._units(m), lambda d: math.gcd(d, m) == 1),
                 (is_sign(np.arange(m), m), lambda d: d in {1 % m, -1 % m})]
        for chunk in (7, matrices._CHUNK):
            monkeypatch.setattr(matrices, "_CHUNK", chunk)
            for mask, keep in masks:
                want = [code for code, d in enumerate(dets) if keep(d)]
                assert kernel._gl_flat(r, m, mask).tolist() == want, chunk


class TestDistinctRows:
    # the genus route and the stable-image search pass 1-D integer codes
    @pytest.mark.parametrize(
        "a",
        [np.empty(0, dtype=np.int64), np.array([5, 1, 5, 5, 0])],
        ids=["empty-1d", "1d"],
    )
    def test_edge_shapes(self, a):
        got = kernel._distinct_rows(a)
        assert got.ndim == 1
        assert got.tolist() == sorted(set(a.tolist()))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_set_of_tuples(self, seed):
        # every column of the same seeded arrays, each as 1-D codes
        gen = np.random.default_rng(seed)
        for rows, cols, high in [(500, 2, 5), (300, 70, 2), (200, 4, 2**62),
                                 (1000, 1, 30)]:
            a = gen.integers(-high, high, size=(rows, cols), dtype=np.int64)
            a = np.concatenate([a, a[gen.integers(0, rows, size=rows // 3)]])
            for column in a.T:
                assert kernel._distinct_rows(column).tolist() == sorted(set(column.tolist()))

    def test_genus_path_does_not_import_numpy_ma(self, subprocess_env):
        # np.unique imports numpy.ma on its first call, and numpy.random
        # takes longer to import than a small genus; with _CHUNK = 0 the
        # genus path takes the kernel's probes of a proper subring above one
        # chunk (upper triangular 2x2 at m = 36), the lattice at 2^2 and the
        # sorted codes at 3 of pullback_spec(12), and those of pullback_spec(600)
        code = (
            "import sys\n"
            "import genuskit.kernel as kernel\n"
            "import genuskit.matrices as matrices\n"
            "from genuskit import MatModM, OrderSpec, genus, pullback_spec\n"
            "from genuskit import stable_image_order\n"
            "matrices._CHUNK = 0\n"
            "probes, factor = [], kernel._factor\n"
            "kernel._factor = lambda *a: probes.append(a[4]) or factor(*a)\n"
            "gens = ((MatModM(36, 2, (1, 0, 0, 0)),), (MatModM(36, 2, (0, 1, 0, 0)),))\n"
            "assert genus(OrderSpec(m=36, blocks=(2,), generators=gens)).total == 1\n"
            "assert probes and all(probes)\n"
            "assert genus(pullback_spec(12)).total == 2\n"
            "assert genus(pullback_spec(600)).total == 80\n"
            "assert stable_image_order(2, 5) == 240\n"
            "print('numpy.ma' in sys.modules, 'numpy.random' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=subprocess_env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False False"


class TestOrderFunctions:
    @pytest.mark.parametrize(
        "r, m", [(r, m) for r in (1, 2) for m in range(1, 13)]
        + [(3, m) for m in range(1, 5)]
    )
    def test_orders_match_carriers(self, r, m):
        assert gl_order(r, m) == len(enumerate_gl(r, m))
        assert stable_image_order(r, m) == len(stable_image(r, m))

    @pytest.mark.parametrize("order, size", [(gl_order, 480), (stable_image_order, 240)])
    def test_cap_bounds_the_scan(self, order, size):
        # the scan of 2x2 matrices mod 5 has 5^4 = 625 candidates
        with pytest.raises(ResourceLimitError, match="625 candidates") as info:
            order(2, 5, cap=624)
        e = info.value
        assert (e.phase, e.needed, e.cap, e.lower_bound) == ("scan", 625, 624, False)
        assert order(2, 5, cap=625) == size
        with pytest.raises(ValueError):
            order(0, 5)


class TestClosedFormAndRowTables:
    @pytest.mark.parametrize(
        "r, m", [(r, m) for r in (1, 2) for m in range(1, 17)]
        + [(3, m) for m in range(1, 5)] + [(4, 1), (4, 2)]
    )
    def test_gl_order_matches_the_scan(self, r, m):
        assert gl_order(r, m) == len(kernel._gl_flat(r, m))
        assert stable_image_order(r, m) == len(kernel._stable_flat(r, m))

    def test_stable_order_runs_no_search(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the stable-image search ran")

        monkeypatch.setattr(kernel, "_stable_flat", fail)
        for r, m, order in [(1, 1, 1), (1, 2, 1), (1, 7, 2), (2, 1, 1),
                            (2, 5, 240), (3, 3, 11232), (4, 2, 20160)]:
            assert stable_image_order(r, m) == order
        # |GL(5, Z/2)| = 31*30*28*24*16, and 1 = -1 mod 2
        assert stable_image_order(5, 2, cap=2**25) == 9999360
        with pytest.raises(ResourceLimitError):
            stable_image_order(5, 2)

    @pytest.mark.parametrize(
        "r, m", [(1, 1), (1, 7), (1, 12), (2, 1), (2, 5), (2, 6), (2, 16),
                 (3, 1), (3, 2), (3, 4), (4, 1), (4, 2), (4, 3)]
    )
    def test_row_table_matches_mul_rows(self, r, m):
        rng = np.random.default_rng(r * 100 + m)
        place = m ** np.arange(r * r - 1, -1, -1, dtype=np.int64)
        rows = rng.integers(0, m, size=(60, r * r), dtype=np.int64)
        mats = elementary_generators(r, m)
        gens = np.array([g.entries for g in mats])
        # every row times every generator, as r x r matrix products mod m
        products = rows.reshape(-1, 1, r, r) @ gens.reshape(1, -1, r, r) % m
        expected = products.reshape(len(rows), len(gens), r * r) @ place
        table = kernel._row_table(mats)
        assert table.shape == (len(gens), m**r)
        got = kernel._right_products(table, rows @ place, r)
        assert got.tolist() == expected.T.tolist()

    def test_stable_order_multiplies_no_matrix(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a matrix was decoded or multiplied")

        for name in ("_combinations", "_elements"):
            monkeypatch.setattr(kernel, name, fail)
        # orders from the parametrized carrier and brute-scan tests above
        for r, m, order in [(1, 1, 1), (1, 7, 2), (2, 1, 1), (2, 5, 240),
                            (2, 16, 6144), (3, 3, 11232), (4, 2, 20160)]:
            assert len(kernel._stable_flat(r, m)) == order

    def test_table_blocks_fill_as_the_search_meets_them(self, monkeypatch):
        # with 5-code chunks the search of (2, 16) passes many chunks; r = 1
        # needs no search, as its one generator -1 gives just +-1
        expected = {(r, m): stable_image_order(r, m)
                    for r, m in [(1, 12), (2, 6), (2, 16), (3, 2), (3, 3)]}
        monkeypatch.setattr(matrices, "_CHUNK", 5)
        for (r, m), order in expected.items():
            assert len(kernel._stable_flat(r, m)) == order
        monkeypatch.undo()

        def fail(*args):
            raise AssertionError("r = 1 built a row table")

        monkeypatch.setattr(kernel, "_row_table", fail)
        assert kernel._stable_flat(1, 100003).tolist() == [1, 100002]
        monkeypatch.undo()
        m = 1_999_993
        assert stable_image(1, m).carrier == {MatModM(m, 1, [1]), MatModM(m, 1, [-1])}

    @pytest.mark.parametrize("order", [gl_order, stable_image_order, enumerate_gl])
    @pytest.mark.parametrize("r, m", [(100, 10), (2000, 10), (100, 3)])
    def test_huge_r_is_refused_at_once(self, order, r, m):
        # m^(r^2) has more than the 4,300 digits Python prints, so it is
        # named as m^(r^2); 3^(100^2) is short enough to build and compare,
        # the other two are refused from bit lengths alone (building
        # 10^(2000^2) takes seconds)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError,
                           match=rf"{m}\^{r * r} candidates") as info:
            order(r, m)
        assert time.perf_counter() - start < 1.0
        e = info.value
        assert (e.phase, e.needed, e.cap, e.lower_bound) == (
            "scan", 10**4299, matrices.DEFAULT_CAP, True)
        # m^(r^2) > needed > cap, compared by bit lengths
        assert r * r * math.log2(m) > e.needed.bit_length() > e.cap.bit_length()
        assert len(str(e.needed)) == 4300

    def test_largest_printable_scan_is_named_exactly(self):
        # 10^(65^2) has 4,226 digits, so it is built and printed as before
        with pytest.raises(ResourceLimitError) as info:
            gl_order(65, 10)
        e = info.value
        assert (e.needed, e.lower_bound) == (10**4225, False)
        assert f"a scan of {10**4225} candidates" in str(e)


class TestDeterminantLimit:
    # only the scan cap bounds enumerate_gl, whatever the block size, and
    # the two orders take no determinant at all
    def test_scan_cap_is_checked_first(self):
        with pytest.raises(ResourceLimitError) as info:
            enumerate_gl(5, 2)
        assert info.value.phase == "scan"

    def test_orders_take_no_determinant(self):
        assert gl_order(5, 2, cap=2**25) == 9999360
        assert gl_order(6, 1) == stable_image_order(6, 1) == 1
        assert len(stable_image(5, 1)) == 1


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
class TestScanPastInt64:
    @pytest.mark.parametrize("verb", ["enumerate_gl", "stable_image"])
    def test_refused_before_any_array(self, subprocess_env, verb):
        # a cap of 10^20 admits the scan of the 60000^4 codes of the 2x2
        # matrices mod 60000, which leave int64: the kernel's guard refuses
        # it in phase scan, before any array is built, in a fresh process.
        # Its address space is held to 1 GiB, so that an array of m^r or
        # more entries fails at once instead of filling memory
        script = f"""
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.RLIM_INFINITY))
import genuskit
from genuskit.errors import ResourceLimitError
try:
    genuskit.{verb}(2, 60000, cap=10**20)
except ResourceLimitError as e:
    assert (e.phase, e.needed, e.cap, e.lower_bound) == (
        "scan", 60000**4, 2**63 - 1, False), vars(e)
else:
    raise AssertionError("not refused")
with open("/proc/self/status") as f:
    print(next(int(l.split()[1]) for l in f if l.startswith("VmHWM")) / 1024)
"""
        run = subprocess.run([sys.executable, "-c", script], env=subprocess_env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert float(run.stdout) < 60, run.stdout


class TestLaplaceCap:
    # every Laplace plan is taken through matrices._laplace_plans, which
    # refuses a largest block of more than cap = 2,000,000 terms,
    # r * 2^(r-1), before any plan is built: 26 * 2^25 for a 26x26 matrix
    def test_det_is_refused_before_any_plan(self, monkeypatch):
        def fail(r):
            raise AssertionError(f"a {r}x{r} plan was built")

        monkeypatch.setattr(matrices, "_laplace_plan", fail)
        with pytest.raises(ResourceLimitError, match="^a 26x26 determinant takes "
                           "872415232 terms, above the cap of 2000000$") as info:
            det(MatModM.identity(26, 5))
        e = info.value
        assert (e.phase, e.needed, e.cap, e.lower_bound) == (
            "determinant", 872_415_232, 2_000_000, False)

    @pytest.mark.parametrize("call", ["det(a)", "a.det()", "subring_units(S, 5, (26,))"])
    def test_refused_fast_in_little_memory(self, subprocess_env, call):
        # in a fresh process whose address space is held to 1 GiB, so that
        # building the plan would fail with a MemoryError instead of filling
        # memory; S is the scalar subring of Mat_26(Z/5).  The kernel, which
        # subring_units imports with numpy, is imported before the clock
        script = f"""
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.RLIM_INFINITY))
import genuskit.kernel
from genuskit.errors import ResourceLimitError
from genuskit.matrices import MatModM, det
from genuskit.orders import subring_units
a = MatModM.identity(26, 5)
S = {{(MatModM(5, 26, [c * x for x in a.entries]),) for c in range(5)}}
start = time.perf_counter()
try:
    {call}
except ResourceLimitError as e:
    assert (e.phase, e.needed, e.cap) == ("determinant", 26 * 2**25, 2_000_000), vars(e)
else:
    raise AssertionError("not refused")
print(time.perf_counter() - start)
"""
        run = subprocess.run([sys.executable, "-c", script], env=subprocess_env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert float(run.stdout) < 0.5, run.stdout


class TestArgumentValidation:
    def test_elementary_generators_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            elementary_generators(0, 5)
        with pytest.raises(ValueError):
            elementary_generators(2, 0)
