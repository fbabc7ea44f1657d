import ast
import itertools
import json
import random
import subprocess
import sys
import time
import tracemalloc
from functools import lru_cache
from math import gcd, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genuskit.cosets import direct_product, double_coset_count, subgroup_closure
from genuskit.errors import InternalInconsistencyError, ResourceLimitError
from genuskit.matrices import (
    MatModM,
    det,
    elementary_generators,
    enumerate_gl,
    stable_image,
    stable_image_order,
)
from genuskit.orders import (
    GenusResult,
    OrderSpec,
    genus,
    genus_pullback_formula,
    genus_relative,
    load_order_spec,
    matrix_pullback_spec,
    order_spec_from_dict,
    order_spec_to_dict,
    pullback_spec,
    subring_closure,
    subring_units,
)
import genuskit.kernel as kernel
import genuskit.matrices as matrices
import genuskit.orders as orders
from genuskit.rings import prime_powers, sign_count, totient
from test_matrices import leibniz_det


def scalar(c, m):
    return MatModM(m, 1, (c,))


def spec_1x1(m, pairs):
    gens = tuple((scalar(a, m), scalar(b, m)) for a, b in pairs)
    return OrderSpec(m=m, blocks=(1, 1), generators=gens)


def spec_3x1(m, triples):
    gens = tuple(tuple(scalar(c, m) for c in t) for t in triples)
    return OrderSpec(m=m, blocks=(1, 1, 1), generators=gens)


def matrix_units_spec(m):
    """Generators e12, e21 of the full 2x2 matrix ring."""
    e12 = MatModM(m, 2, (0, 1, 0, 0))
    e21 = MatModM(m, 2, (0, 0, 1, 0))
    return OrderSpec(m=m, blocks=(2,), generators=((e12,), (e21,)))


class TestOrderSpecValidation:
    def test_block_and_level_checks(self):
        with pytest.raises(ValueError):
            OrderSpec(m=0, blocks=(1,), generators=())
        with pytest.raises(ValueError):
            OrderSpec(m=5, blocks=(), generators=())
        with pytest.raises(ValueError):
            OrderSpec(m=5, blocks=(0,), generators=())

    def test_generator_shape_checks(self):
        with pytest.raises(ValueError):
            OrderSpec(m=5, blocks=(1, 1), generators=((scalar(1, 5),),))
        with pytest.raises(ValueError):
            OrderSpec(m=5, blocks=(1,), generators=((scalar(1, 7),),))
        with pytest.raises(ValueError):
            OrderSpec(m=5, blocks=(2,), generators=((scalar(1, 5),),))


class TestJsonFormat:
    def test_documented_example_is_pullback6(self):
        text = '{"m":6,"blocks":[1,1],"generators":[[[1],[1]]]}'
        assert order_spec_from_dict(json.loads(text)) == pullback_spec(6)

    def test_round_trip(self):
        spec = matrix_units_spec(5)
        assert order_spec_from_dict(order_spec_to_dict(spec)) == spec

    def test_entries_reduced_on_load(self):
        data = {"m": 6, "blocks": [1, 1], "generators": [[[7], [-5]]]}
        assert order_spec_from_dict(data) == pullback_spec(6)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(order_spec_to_dict(pullback_spec(8))))
        assert load_order_spec(path) == pullback_spec(8)

    def test_malformed_inputs(self, tmp_path):
        for bad in (
            [],
            {"m": 6, "blocks": [1, 1]},
            {"m": "6", "blocks": [1, 1], "generators": []},
            {"m": 6, "blocks": [1, "1"], "generators": []},
            {"m": 6, "blocks": [1, 1], "generators": [[[1]]]},
            {"m": 6, "blocks": [1, 1], "generators": [[[1], [1, 2]]]},
            {"m": 6, "blocks": [1, 1], "generators": [[[1], ["x"]]]},
        ):
            with pytest.raises(ValueError):
                order_spec_from_dict(bad)
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            load_order_spec(path)


class TestSubringClosure:
    def test_identity_only_gives_scalars(self):
        spec = OrderSpec(m=7, blocks=(1, 1), generators=())
        closure = subring_closure(spec)
        assert closure == {(scalar(c, 7), scalar(c, 7)) for c in range(7)}

    def test_pullback6_diagonal(self):
        closure = subring_closure(pullback_spec(6))
        assert closure == {(scalar(c, 6), scalar(c, 6)) for c in range(6)}
        assert len(closure) == 6

    def test_full_matrix_ring(self):
        closure = subring_closure(matrix_units_spec(2))
        assert len(closure) == 2**4

    def test_contains_zero_and_identity(self):
        spec = spec_1x1(12, [(1, 5)])
        closure = subring_closure(spec)
        assert (scalar(0, 12), scalar(0, 12)) in closure
        assert (scalar(1, 12), scalar(1, 12)) in closure

    def test_closed_under_operations(self):
        spec = spec_1x1(8, [(1, 3)])
        closure = subring_closure(spec)
        flat = {(a.entries[0], b.entries[0]) for a, b in closure}
        for x in flat:
            for y in flat:
                assert ((x[0] + y[0]) % 8, (x[1] + y[1]) % 8) in flat
                assert ((x[0] * y[0]) % 8, (x[1] * y[1]) % 8) in flat

    def test_products_taken_in_both_orders(self):
        # (e12, 0) * (e21, 0) = (e11, 0) is outside the span of the identity,
        # the generators and (e21, 0) * (e12, 0) = (e22, 0), so a closure
        # that multiplied in one order only would miss it
        z = scalar(0, 2)
        e12, e21 = MatModM(2, 2, (0, 1, 0, 0)), MatModM(2, 2, (0, 0, 1, 0))
        spec = OrderSpec(m=2, blocks=(2, 1), generators=((e12, z), (e21, z)))
        closure = subring_closure(spec)
        assert len(closure) == 2**5
        assert (MatModM(2, 2, (1, 0, 0, 0)), z) in closure

    def test_span_reenters_before_additive_order(self):
        # 6 * (1, 3) = (6, 6) lies in the diagonal span although (1, 3) has
        # additive order 12, so the span grows by 6 cosets, not 12
        spec = spec_1x1(12, [(1, 3)])
        shape = matrices._shape(12, (1, 1))
        basis, additive = orders._closure(shape, [(1, 3)], cap=72)
        assert sorted(additive) == [6, 12]
        # each chunk is overwritten by the next, so keep copies
        rows = np.concatenate(
            [c.copy() for c in kernel._elements(shape, basis, additive)]
        )
        assert len(rows) == len(np.unique(rows, axis=0)) == 12 * 6
        assert len(subring_closure(spec)) == 12 * 6
        assert genus_relative(spec) == engine_genus(spec)
        # the cap check inside the span extension, at its boundary
        with pytest.raises(ResourceLimitError):
            subring_closure(spec, cap=71)

    def test_cap(self):
        # the span of 1, e12 and e21 has 7^3 elements, past the cap, and the
        # message names that lower bound on the 7^4 of the whole ring
        with pytest.raises(ResourceLimitError, match="at least 343 "):
            subring_closure(matrix_units_spec(7), cap=100)

    def test_cap_checked_before_enumeration(self, monkeypatch):
        def no_elements(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(kernel, "_elements", no_elements)
        for call in (subring_closure, genus):
            with pytest.raises(ResourceLimitError, match="2401"):
                call(matrix_units_spec(7), cap=2400)

    def test_size_from_basis_matches_fixpoint(self):
        # merging (0, 3, 1) into the pivot 2 of (0, 2, 0) gives the pivot 1
        # and leaves (0, 0, 4) for the last column: 6 * 6 * 3 elements
        spec = spec_3x1(6, [(0, 2, 0), (0, 3, 1)])
        rows = [[0, 2, 0], [0, 3, 1]]
        _, additive = orders._closure(matrices._shape(6, (1, 1, 1)), rows, cap=10**6)
        assert sorted(additive) == [3, 6, 6]
        assert len(brute_subring_closure(spec)) == 108
        # words of length 3 and more, so the closure runs several levels:
        # the shift e12+e23+e34 of Mat_4(Z/3) spans I, N, N^2, N^3, and the
        # pair (e12, e23) of Mat_3(Z/2) spans I, e12, e23, e12*e23 = e13
        def unit(r, m, *cells):
            entries = [int((i, j) in cells) for i in range(r) for j in range(r)]
            return MatModM(m, r, entries)

        for m, blocks, gens, size in (
            (3, (4,), [(unit(4, 3, (0, 1), (1, 2), (2, 3)),)], 81),
            (2, (3,), [(unit(3, 2, (0, 1)),), (unit(3, 2, (1, 2)),)], 16),
        ):
            spec = OrderSpec(m=m, blocks=blocks, generators=tuple(gens))
            rows = [orders._mats_to_row(t) for t in gens]
            _, additive = orders._closure(matrices._shape(m, blocks), rows, cap=10**6)
            brute = brute_subring_closure(spec)
            assert np.prod(additive) == len(brute) == size, spec
            got = {tuple(mat.entries for mat in t) for t in subring_closure(spec)}
            assert got == brute, spec
        # generators (m/q) * X at composite levels give subrings such as
        # Z/12 + 6*Z/12 whose pivots are proper divisors of m
        rng = random.Random(61)
        proper_pivots = 0
        for m in (12, 24, 30):
            for blocks in ((1, 1), (2,), (1, 1, 1)):
                q = rng.choice([2, 3])
                gens = tuple(
                    tuple(
                        MatModM(m, r, [m // q * rng.randrange(m) for _ in range(r * r)])
                        for r in blocks
                    )
                    for _ in range(rng.randint(1, 2))
                )
                spec = OrderSpec(m=m, blocks=blocks, generators=gens)
                shape = matrices._shape(m, blocks)
                rows = [[e for mat in t for e in mat.entries] for t in gens]
                _, additive = orders._closure(shape, rows, cap=10**6)
                brute = brute_subring_closure(spec)
                assert np.prod(additive) == len(brute), spec
                got = {tuple(mat.entries for mat in t) for t in subring_closure(spec)}
                assert got == brute, spec
                proper_pivots += any(a != m for a in additive)
        assert proper_pivots >= 5

    def test_insert_keeps_the_additive_span(self):
        # the Howell basis of random vectors against a breadth-first span,
        # at composite levels where pivots merge through extended gcds
        rng = random.Random(17)
        for _ in range(150):
            m, width = rng.choice([4, 6, 8, 9, 12]), rng.randint(1, 3)
            vectors = [
                [rng.choice([0, 1, 2, 3, m // 2]) * rng.randrange(m) % m
                 for _ in range(width)]
                for _ in range(rng.randint(1, 3))
            ]
            howell = {}
            for v in vectors:
                orders._insert(howell, m, list(v))
            span = frontier = {(0,) * width}
            while frontier:
                frontier = {
                    tuple((a + b) % m for a, b in zip(x, v))
                    for x in frontier for v in vectors
                } - span
                span = span | frontier
            kept = sorted(howell)
            basis = np.array([howell[j][0] for j in kept], dtype=np.int64).reshape(-1, width)
            shape = matrices._shape(m, (1,) * width)
            got = {
                tuple(row)
                for c in kernel._elements(shape, basis, [m // howell[j][1] for j in kept])
                for row in c.tolist()
            }
            assert got == span, (m, vectors)

    def test_chunked_enumeration_matches_fixpoint(self, monkeypatch):
        # with 7-row chunks these subrings take several leading digits, a
        # partial last chunk (9 * 3 elements in chunks of 6) or both
        monkeypatch.setattr(matrices, "_CHUNK", 7)
        for spec in (
            spec_3x1(6, [(0, 2, 0), (0, 3, 1)]),
            spec_1x1(9, [(3, 0)]),
            matrix_units_spec(2),
            pullback_spec(12),
        ):
            shape = matrices._shape(spec.m, spec.blocks)
            rows = [orders._mats_to_row(t) for t in spec.generators]
            basis, additive = orders._closure(shape, rows, cap=10**6)
            # each chunk is overwritten by the next, so keep copies
            chunks = [c.tolist() for c in kernel._elements(shape, basis, additive)]
            assert len(chunks) > 1 and all(len(c) <= 7 for c in chunks)
            got = [tuple(row) for c in chunks for row in c]
            brute = {sum(t, ()) for t in brute_subring_closure(spec)}
            assert len(got) == len(set(got)) == np.prod(additive)
            assert set(got) == brute, spec

    def test_closure_matches_an_identity_frontier(self):
        # the generators are the closure's first level; the reference starts
        # from the identity alone and reaches them as the products 1 * g, and
        # multiplies a whole level before it inserts any of it, so both
        # insert the same vectors in the same order
        def reference(shape, gen_rows, m):
            basis, width = {}, shape.width
            gens = [[e % m for e in g] for g in gen_rows]
            identity = [int(i == j) for r in shape.blocks
                        for i in range(r) for j in range(r)]
            frontier = [identity] if orders._insert(basis, m, identity) else []
            while frontier and (len(basis) < width
                                or any(d > 1 for _, d in basis.values())):
                words = [orders._mul_lists(shape, w, g) for w in frontier for g in gens]
                frontier = [w for w in words if orders._insert(basis, m, w)]
            cols = sorted(basis)
            return [basis[j][0] for j in cols], [m // basis[j][1] for j in cols]

        rng = random.Random(16)
        levels = (2, 3, 4, 5, 6, 8, 9, 10, 12)
        composite = 0
        for _ in range(240):
            blocks = rng.choice([(1, 1), (2,), (1, 2), (1, 1, 1), (3,)])
            m = rng.choice(levels)
            spec = random_spec(rng, m, blocks, n_gens=rng.randint(0, 3))
            shape = matrices._shape(m, blocks)
            rows = [orders._mats_to_row(t) for t in spec.generators]
            want_rows, want_additive = reference(shape, rows, m)
            got_rows, got_additive = orders._closure(shape, rows, 10**30)
            assert got_rows == want_rows, spec
            assert got_additive == want_additive, spec
            composite += m in (4, 6, 8, 9, 10, 12)
        assert composite >= 100, composite

    def test_chunk_size_and_enumerator_live_in_the_row_kernel(self):
        # the kernel owns every name of the numpy route, neither matrices
        # nor orders binds one of them, and _CHUNK has its one definition
        # in matrices, where the kernel reads it at each call
        for name in KERNEL_NAMES:
            assert getattr(kernel, name).__module__ == "genuskit.kernel", name
            assert not hasattr(matrices, name) and not hasattr(orders, name), name
        assert "_PROBE" in vars(kernel)
        assert not hasattr(orders, "_PROBE")
        assert "_CHUNK" in vars(matrices)
        assert not hasattr(orders, "_CHUNK") and not hasattr(kernel, "_CHUNK")

    def test_one_chunk_subring_is_its_table(self, monkeypatch):
        # with _CHUNK = |S| the subring is one chunk, the table of all its
        # basis rows, and takes no _combinations; one less and it is split
        combos = spy(monkeypatch, "_combinations")
        for spec in (
            spec_1x1(12, [(1, 3)]),
            spec_3x1(6, [(0, 2, 0), (0, 3, 1)]),
            matrix_units_spec(2),
            pullback_spec(12),
        ):
            shape = matrices._shape(spec.m, spec.blocks)
            rows = [orders._mats_to_row(t) for t in spec.generators]
            basis, additive = orders._closure(shape, rows, cap=10**6)
            size = prod(additive)
            brute = {sum(t, ()) for t in brute_subring_closure(spec)}
            for chunk, one in ((size, True), (size - 1, False)):
                monkeypatch.setattr(matrices, "_CHUNK", chunk)
                combos.clear()
                # each chunk is overwritten by the next, so keep copies
                chunks = [c.tolist() for c in kernel._elements(shape, basis, additive)]
                got = [tuple(row) for c in chunks for row in c]
                assert len(got) == len(set(got)) == size, spec
                assert set(got) == brute, spec
                assert (len(chunks) == 1) == (not combos) == one, (spec, chunk)


class TestSubringUnits:
    def test_scalars(self):
        spec = OrderSpec(m=12, blocks=(1, 1), generators=())
        group = subring_units(subring_closure(spec), 12, (1, 1))
        assert len(group) == totient(12)
        group.check_axioms()

    def test_diagonal_mod5(self):
        closure = subring_closure(pullback_spec(5))
        group = subring_units(closure, 5, (1, 1))
        assert len(group) == 4

    def test_full_ring_gives_gl_product(self):
        closure = subring_closure(matrix_units_spec(2))
        group = subring_units(closure, 2, (2,))
        assert len(group) == 6  # |GL(2, Z/2)|

    def test_units_subset_and_closed(self):
        closure = subring_closure(spec_1x1(8, [(1, 3)]))
        group = subring_units(closure, 8, (1, 1))
        assert group.carrier <= frozenset(closure)
        for a in group.carrier:
            for b in group.carrier:
                assert group.op(a, b) in group.carrier

    def test_block_dets_match_cofactor_det(self):
        # 1_518_500_250 is the top level that the closure admits for a 4x4
        # block, where 4*(m-1)^2 < 2^63; the terms of each minor alternate
        # in sign, so a 4x4 block stays exact up to m = 2^31, and a 6x6
        # one at m = 2^30
        rng = random.Random(5)
        for blocks, m in [((1, 2, 3, 4), 12), ((3, 3), 7), ((2, 3), 1_699_999_999),
                          ((4, 2), 1_518_500_250), ((4, 3), 2**31),
                          ((5,), 2**30), ((6, 1), 2**30), ((5, 5), 2**30),
                          ((5,), 97), ((6, 1), 97), ((5, 5), 97)]:
            tuples = [
                [MatModM(m, r, [rng.randrange(m) for _ in range(r * r)])
                 for r in blocks]
                for _ in range(50)
            ]
            rows = np.array([[e for mat in t for e in mat.entries] for t in tuples])
            expected = [[leibniz_det(mat) for mat in t] for t in tuples]
            got = kernel._block_dets(matrices._shape(m, blocks), rows)
            assert got.tolist() == expected

    def test_units_at_a_level_past_int64(self):
        # the unit test takes det on Python ints, so no table of the m
        # residues is built and no int64 product can overflow
        m = 2**40 + 15
        a = MatModM(m, 2, (3, 1, 5, 2))
        group = subring_units({(MatModM.identity(2, m),), (a,)}, m, (2,))
        assert group.carrier == {(MatModM.identity(2, m),), (a,)}

    def test_block_above_4(self):
        spec = OrderSpec(m=3, blocks=(5,), generators=())
        group = subring_units(subring_closure(spec), 3, (5,))
        assert {t[0].entries[0] for t in group.carrier} == {1, 2}

    def test_requires_identity(self):
        with pytest.raises(ValueError):
            subring_units({(scalar(0, 5), scalar(0, 5))}, 5, (1, 1))


class TestPullback:
    def test_spec_shape(self):
        spec = pullback_spec(6)
        assert spec.m == 6
        assert spec.blocks == (1, 1)
        assert spec.generators == ((scalar(1, 6), scalar(1, 6)),)

    @pytest.mark.parametrize("m, expected", [(1, 1), (2, 1), (5, 2), (24, 4)])
    def test_formula_values(self, m, expected):
        assert genus_pullback_formula(m) == expected

    def test_sign_group_gives_formula_bound_and_stable_order(self):
        # 1 == -1 for m = 1, 2, so the sign group has one element there
        for m in range(1, 201):
            signs = sign_count(m)
            assert signs == (1 if m <= 2 else 2)
            assert genus_pullback_formula(m) == totient(m) // signs
            assert genus(pullback_spec(m)).bound == (totient(m) // signs) ** 2
            assert stable_image_order(1, m) == signs
            assert len(kernel._stable_flat(1, m)) == signs

    def test_formula_rejects_bad_level(self):
        with pytest.raises(ValueError):
            genus_pullback_formula(0)

    def test_engine_matches_formula_small(self):
        for m in range(1, 13):
            assert genus(pullback_spec(m)).total == genus_pullback_formula(m)

    def test_engine_matches_formula_large(self):
        m = 10**5
        assert genus(pullback_spec(m)).total == genus_pullback_formula(m)

    @pytest.mark.parametrize(
        "n, m", [(2, 5), (2, 7), (2, 12), (2, 24), (3, 3), (3, 4), (3, 5)]
    )
    def test_matrix_pullback_matches_formula(self, n, m):
        # (3, 3) at m = 5 has 5^9 = 1,953,125 subring elements, so its
        # determinants are taken over many chunks
        assert genus(matrix_pullback_spec(m, n)).total == genus_pullback_formula(m)

    def test_matrix_pullback_spec_shape(self):
        spec = matrix_pullback_spec(6, 1)
        assert spec.blocks == (1, 1) and spec.generators == ()
        assert subring_closure(spec) == subring_closure(pullback_spec(6))
        assert len(subring_closure(matrix_pullback_spec(3, 2))) == 3**4
        for m, n in ((0, 2), (5, 0)):
            with pytest.raises(ValueError):
                matrix_pullback_spec(m, n)


class TestGenus:
    def test_result_fields(self):
        result = genus(pullback_spec(12))
        assert result == GenusResult(
            relative_count=2, maximal_count=1, total=2, bound=4
        )

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_small_levels_are_genus_one(self, m):
        assert genus(pullback_spec(m)).total == 1

    def test_zero_ring_level(self):
        assert genus(pullback_spec(1)).total == 1

    def test_full_subring_is_genus_one(self):
        assert genus(matrix_units_spec(5)).total == 1

    def test_single_rank_one_block(self):
        spec = OrderSpec(m=24, blocks=(1,), generators=())
        assert genus(spec).total == 1

    def test_zero_ring_level_matrix_block(self):
        spec = OrderSpec(m=1, blocks=(2,), generators=())
        assert genus(spec).total == 1

    def test_triple_diagonal(self):
        # scalars embedded diagonally in three rank-one blocks at m=5;
        # normalizing the last coordinate leaves sign orbits on two unit
        # coordinates, so the count is (phi(5)/2)^2 = 4
        one = scalar(1, 5)
        spec = OrderSpec(m=5, blocks=(1, 1, 1), generators=((one, one, one),))
        result = genus(spec)
        assert result.total == 4
        assert result.bound == 8

    def test_scalar_subring_2x2_block(self):
        # K = scalar units; unit determinants square to 1 mod 24, so no
        # coset merging happens and the count fills the whole bound
        spec = OrderSpec(m=24, blocks=(2,), generators=())
        assert genus(spec).total == 4

    def test_monotone_under_generator_addition(self):
        base = pullback_spec(24)
        extended = OrderSpec(
            m=24,
            blocks=(1, 1),
            generators=base.generators + ((scalar(1, 24), scalar(0, 24)),),
        )
        assert genus(extended).total <= genus(base).total
        assert genus(extended).total == 1

    def test_same_order_at_two_levels(self):
        # pairs congruent mod 8, presented at levels 8 and 16
        at_8 = pullback_spec(8)
        at_16 = OrderSpec(
            m=16,
            blocks=(1, 1),
            generators=(
                (scalar(1, 16), scalar(1, 16)),
                (scalar(0, 16), scalar(8, 16)),
            ),
        )
        assert genus(at_8).total == genus(at_16).total == 2

    def test_cap_propagates(self):
        # the cap bounds only the subring, which has 6 elements here
        assert genus(OrderSpec(m=6, blocks=(3,), generators=())).total == 1
        with pytest.raises(ResourceLimitError, match="at least 343 "):
            genus(matrix_units_spec(7), cap=100)
        with pytest.raises(ResourceLimitError):
            genus(pullback_spec(30), cap=3)

    def test_cap_boundary_is_subring_size(self):
        assert genus(pullback_spec(30), cap=30).total == 4
        # cap is part of the memo's key: the answer kept for cap 30 does not
        # answer at cap 29, and the refusal is not kept
        with pytest.raises(ResourceLimitError):
            genus(pullback_spec(30), cap=29)
        info = genus_relative.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 1)

    def test_level_out_of_reach_fails_fast(self):
        # the subring holds the m multiples of the identity, so m > cap is
        # refused at once, and so is an m past the int64-exact range
        with pytest.raises(ResourceLimitError, match=f"{2**63}.*2000000"):
            genus(pullback_spec(2**63))
        with pytest.raises(ResourceLimitError, match="int64"):
            genus(pullback_spec(2**40), cap=2**62)

    def test_scalar_3x3_block_mod7(self):
        # cube determinants of scalar units are {1, 6} = {+-1} mod 7, so the
        # count is phi(7) / 2 = 3 although the ambient ring has 7^9 elements
        assert genus(OrderSpec(m=7, blocks=(3,), generators=())).total == 3

    @pytest.mark.parametrize("m, r", [(2, 9), (2, 12), (1, 5), (1, 8)])
    def test_block_above_det_limit_fails_fast(self, m, r):
        # scalar blocks of any size: at m <= 2 every unit determinant is 1,
        # so the genus is 1
        result = genus(OrderSpec(m=m, blocks=(1, r), generators=()))
        assert (result.total, result.bound) == (1, 1)

    def test_bound_violation_raises_internal_error(self, monkeypatch):
        monkeypatch.setattr(orders, "genus_relative", lambda spec, cap: 99)
        with pytest.raises(InternalInconsistencyError):
            genus(pullback_spec(5))


class TestGenusMemo:
    def test_repeated_order_is_a_hit(self, monkeypatch):
        assert genus_relative(matrix_pullback_spec(7, 2)) == 3
        closures = spy(monkeypatch, "_closure")
        # an equal spec built anew hits the memo and takes no closure
        assert genus_relative(matrix_pullback_spec(7, 2)) == 3
        assert genus_relative.cache_info().hits == 1
        assert not closures

    def test_refusal_raises_again_and_is_not_kept(self):
        for _ in range(2):
            with pytest.raises(ResourceLimitError, match="at least 343 "):
                genus_relative(matrix_units_spec(7), 100)
        info = genus_relative.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)

    def test_memo_is_bounded(self):
        for m in range(2, 102):
            genus_relative(pullback_spec(m))
        info = genus_relative.cache_info()
        assert info.misses == 100 and info.currsize <= 64
        # the oldest entries were dropped first
        genus_relative(pullback_spec(2))
        assert genus_relative.cache_info().hits == 0


class TestRouteAgreement:
    def test_determinant_route_matches_engine(self):
        specs = [
            pullback_spec(7),
            pullback_spec(12),
            spec_1x1(12, [(1, 5)]),
            spec_1x1(16, [(3, 3)]),
            OrderSpec(m=8, blocks=(2,), generators=()),
            OrderSpec(m=8, blocks=(2, 1), generators=()),
            matrix_units_spec(5),
        ]
        # every (shape, level) pair whose unit group has at most ~10k elements
        combos = [(b, m) for b in ((1, 1), (2,), (1, 1, 1)) for m in (8, 9, 10, 12)]
        combos += [((1, 2), 8), ((2, 1), 8)]
        rng = random.Random(2024)
        specs += [random_spec(rng, m, blocks) for blocks, m in combos]
        for spec in specs:
            assert genus_relative(spec) == engine_genus(spec), spec

    def test_mixed_blocks_scalar_subring(self):
        # blocks (2, 1) at m=8 with only scalar tuples: unit determinants of
        # the 2x2 block square to 1 mod 8, so the first coset coordinate is
        # pinned while the rank-one coordinate merges into units/{+-1}
        spec = OrderSpec(m=8, blocks=(2, 1), generators=())
        result = genus(spec)
        assert result.total == 2
        assert result.bound == 4

    def test_wide_scalar_modules(self):
        # scalar subrings in many rank-one blocks; the join det(K) * {+-1}^k
        # has up to 2^70 elements and must never be built
        assert genus(OrderSpec(m=2, blocks=(1,) * 62, generators=())).total == 1
        assert genus(OrderSpec(m=3, blocks=(1,) * 70, generators=())).total == 1
        spec = OrderSpec(m=5, blocks=(1,) * 30, generators=())
        assert genus(spec).total == 2**29


def random_spec(rng, m, blocks, n_gens=None):
    """Generators c*1 + d*X with X dense, upper triangular or diagonal and
    d a divisor of m; d > 1 or a sparse X gives proper subrings."""
    if n_gens is None:
        n_gens = rng.randint(1, 2)
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    gens = []
    for _ in range(n_gens):
        c, d = rng.randrange(m), rng.choice(divisors)
        keep = rng.choice([
            lambda i, j: True, lambda i, j: i <= j, lambda i, j: i == j,
        ])
        gens.append(tuple(
            MatModM(m, r, tuple(
                c * (i == j) + d * rng.randrange(m) * keep(i, j)
                for i in range(r) for j in range(r)
            ))
            for r in blocks
        ))
    return OrderSpec(m=m, blocks=blocks, generators=tuple(gens))


def nest(parts):
    # direct_product pairs left to right: (a, b, c) -> ((a, b), c)
    out = parts[0]
    for x in parts[1:]:
        out = (out, x)
    return out


def product_group(groups):
    out = groups[0]
    for g in groups[1:]:
        out = direct_product(out, g)
    return out


def generating_set(group, sub):
    gens, closed = [], frozenset({group.identity})
    for x in sub:
        if x not in closed:
            gens.append(x)
            closed = subgroup_closure(group, gens)
    return gens


def engine_genus(spec):
    """H \\ U / K counted by the generic engine from public pieces only."""
    m, blocks = spec.m, spec.blocks
    u = product_group([enumerate_gl(r, m) for r in blocks])
    h = product_group([stable_image(r, m) for r in blocks]).carrier
    ident = [MatModM.identity(r, m) for r in blocks]
    h_gens = [
        nest(ident[:i] + [g] + ident[i + 1 :])
        for i, r in enumerate(blocks)
        for g in elementary_generators(r, m)
    ]
    units = subring_units(subring_closure(spec), m, blocks)
    k = frozenset(nest(list(t)) for t in units.carrier)
    return double_coset_count(
        u, h, k, h_gens=h_gens, k_gens=generating_set(u, k)
    )


def brute_subring_closure(spec):
    # independent oracle: naive fixpoint under tuplewise + and *
    m = spec.m
    elems = {tuple(mat.entries for mat in spec.identity_tuple())}
    elems |= {tuple(mat.entries for mat in tup) for tup in spec.generators}

    def add(x, y):
        return tuple(
            tuple((a + b) % m for a, b in zip(xb, yb)) for xb, yb in zip(x, y)
        )

    def mul(x, y):
        out = []
        for xb, yb, r in zip(x, y, spec.blocks):
            prod = tuple(
                sum(xb[i * r + t] * yb[t * r + j] for t in range(r)) % m
                for i in range(r)
                for j in range(r)
            )
            out.append(prod)
        return tuple(out)

    changed = True
    while changed:
        changed = False
        for x in list(elems):
            for y in list(elems):
                for z in (add(x, y), mul(x, y)):
                    if z not in elems:
                        elems.add(z)
                        changed = True
    return elems


def brute_subring_units(closure_set, spec):
    # independent oracle: search for a two-sided inverse inside the subring
    identity = tuple(mat.entries for mat in spec.identity_tuple())

    def mul(x, y):
        out = []
        for xb, yb, r in zip(x, y, spec.blocks):
            prod = tuple(
                sum(xb[i * r + t] * yb[t * r + j] for t in range(r)) % spec.m
                for i in range(r)
                for j in range(r)
            )
            out.append(prod)
        return tuple(out)

    return {
        x
        for x in closure_set
        if any(mul(x, y) == identity == mul(y, x) for y in closure_set)
    }


class TestClosureAgainstBruteOracle:
    def small_specs(self):
        import random

        rng = random.Random(99)
        specs = [
            pullback_spec(6),
            OrderSpec(m=4, blocks=(2,), generators=()),
            matrix_units_spec(2),
            spec_1x1(9, [(3, 0)]),
        ]
        for _ in range(8):
            m = rng.choice([2, 3, 4, 5, 6])
            if rng.random() < 0.5:
                blocks = (1, 1)
            else:
                blocks = (2,) if m <= 4 else (1, 1)
            gens = tuple(
                tuple(
                    MatModM(m, r, tuple(rng.randrange(m) for _ in range(r * r)))
                    for r in blocks
                )
                for _ in range(rng.randint(1, 2))
            )
            specs.append(OrderSpec(m=m, blocks=blocks, generators=gens))
        return specs

    def test_closure_matches_fixpoint(self):
        for spec in self.small_specs():
            got = {
                tuple(mat.entries for mat in tup)
                for tup in subring_closure(spec)
            }
            assert got == brute_subring_closure(spec), spec

    def test_units_match_inverse_search(self):
        for spec in self.small_specs():
            closure = subring_closure(spec)
            group = subring_units(closure, spec.m, spec.blocks)
            got = {tuple(mat.entries for mat in tup) for tup in group.carrier}
            flat_closure = {
                tuple(mat.entries for mat in tup) for tup in closure
            }
            assert got == brute_subring_units(flat_closure, spec), spec

    def test_units_closed_under_inverse(self):
        for spec in self.small_specs():
            group = subring_units(subring_closure(spec), spec.m, spec.blocks)
            for a in group.carrier:
                assert any(
                    group.op(a, b) == group.identity == group.op(b, a)
                    for b in group.carrier
                )


class TestGenusAgainstEngineOracle:
    def test_rank_one_specs_counted_through_public_pieces(self):
        # independent route: build U, H, K explicitly from the public unit
        # and subring operations and feed them to the generic coset engine
        from genuskit.cosets import direct_product, double_coset_count
        from genuskit.rings import unit_group

        import random

        rng = random.Random(41)
        for _ in range(12):
            m = rng.choice([5, 8, 9, 12, 15, 16])
            pairs = [
                (rng.randrange(m), rng.randrange(m))
                for _ in range(rng.randint(1, 2))
            ]
            spec = spec_1x1(m, pairs)
            g = direct_product(unit_group(m), unit_group(m))
            signs = {1 % m, (m - 1) % m}
            h = frozenset((a, b) for a in signs for b in signs)
            closure = subring_closure(spec)
            units_grp = subring_units(closure, m, (1, 1))
            k = frozenset(
                (a.entries[0], b.entries[0]) for a, b in units_grp.carrier
            )
            expected = double_coset_count(g, h, k)
            assert genus_relative(spec) == expected, spec


class TestSubringUnitsValidation:
    def test_mismatched_tuple_rejected(self):
        good = (MatModM(5, 1, (1,)),)
        bad = (MatModM(5, 2, (1, 0, 0, 1)),)
        with pytest.raises(ValueError, match="does not match"):
            subring_units({good, bad}, 5, (1,))


SHAPES = [(1,), (1, 1), (2,), (1, 2), (1, 1, 1)]


@st.composite
def order_specs(draw, levels, shapes=SHAPES):
    m = draw(st.sampled_from(levels))
    blocks = draw(st.sampled_from(shapes))
    rng = draw(st.randoms(use_true_random=False))
    return random_spec(rng, m, blocks, n_gens=draw(st.integers(0, 2)))


@lru_cache(maxsize=None)
def gl_elements(r, m):
    return sorted(enumerate_gl(r, m).carrier, key=lambda a: a.entries)


def mat_inverse(a):
    # a^-1 = a^(n-1) where a^n is the identity
    identity = MatModM.identity(a.size, a.modulus)
    prev, x = identity, a
    while x != identity:
        prev, x = x, x * a
    return prev


class TestGenusInvariance:
    @given(spec=order_specs(levels=range(3, 13)), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_conjugation_by_a_unit(self, spec, data):
        g = tuple(
            data.draw(st.sampled_from(gl_elements(r, spec.m))) for r in spec.blocks
        )
        g_inv = tuple(mat_inverse(x) for x in g)
        conjugated = OrderSpec(
            m=spec.m,
            blocks=spec.blocks,
            generators=tuple(
                tuple(a * x * b for a, x, b in zip(g, tup, g_inv))
                for tup in spec.generators
            ),
        )
        assert genus(conjugated).total == genus(spec).total

    @given(spec=order_specs(levels=range(3, 13)), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_redundant_generator(self, spec, data):
        gens = spec.generators or (spec.identity_tuple(),)
        x = data.draw(st.sampled_from(gens))
        y = data.draw(st.sampled_from(gens))
        if data.draw(st.booleans()):
            extra = tuple(a * b for a, b in zip(x, y))
        else:
            extra = tuple(
                MatModM(spec.m, a.size, tuple(map(sum, zip(a.entries, b.entries))))
                for a, b in zip(x, y)
            )
        bigger = OrderSpec(
            m=spec.m, blocks=spec.blocks, generators=spec.generators + (extra,)
        )
        assert genus(bigger).total == genus(spec).total

    @given(spec=order_specs(levels=[1, 2], shapes=SHAPES + [(3,), (2, 2)]))
    @settings(max_examples=40, deadline=None)
    def test_levels_one_and_two_have_genus_one(self, spec):
        assert genus(spec).total == 1


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)


@st.composite
def corrupted_spec_dicts(draw):
    """A valid spec dict with one slot replaced, deleted or appended."""
    data = order_spec_to_dict(draw(order_specs(levels=range(1, 13))))
    slots, stack = [], [data]
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    node, key = draw(st.sampled_from(slots))
    action = draw(st.sampled_from(["replace", "delete", "append"]))
    if action == "delete" and isinstance(node, dict):
        del node[key]
    elif action == "append" and isinstance(node[key], list):
        node[key].append(draw(json_values))
    else:
        node[key] = draw(json_values)
    return data


class TestJsonLoaderProperties:
    @given(data=json_values | corrupted_spec_dicts())
    @settings(max_examples=300, deadline=None)
    def test_malformed_input_raises_value_error_only(self, data):
        # any other exception type escaping the loader fails the test
        try:
            spec = order_spec_from_dict(data)
        except ValueError:
            return
        assert order_spec_from_dict(order_spec_to_dict(spec)) == spec

    @given(spec=order_specs(levels=range(1, 31), shapes=SHAPES + [(3,), (2, 2)]))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, spec):
        data = json.loads(json.dumps(order_spec_to_dict(spec)))
        assert order_spec_from_dict(data) == spec


def units_spec(m, blocks, cells):
    """Generators that are single matrix units: for each (b, i, j) in
    cells, e_ij in block b and zero in the other blocks."""
    gens = []
    for b, i, j in cells:
        tup = []
        for c, r in enumerate(blocks):
            flat = [0] * (r * r)
            if c == b:
                flat[i * r + j] = 1
            tup.append(MatModM(m, r, tuple(flat)))
        gens.append(tuple(tup))
    return OrderSpec(m=m, blocks=tuple(blocks), generators=tuple(gens))


# the functions of the numpy route, which genuskit.kernel defines
KERNEL_NAMES = ("_units", "_check_int64", "_laplace", "_block_dets", "_distinct_rows",
                "_combinations", "_elements", "_gl_flat", "_row_table",
                "_right_products", "_stable_flat", "_group", "_outside",
                "_generator", "_lattice", "_factor",
                "_stable_against_signs", "_row_to_mats", "_subring_closure",
                "_subring_units")


def home(name):
    """The module whose binding of ``name`` the genus route looks up."""
    return kernel if name in KERNEL_NAMES else orders


def forbid(monkeypatch, *names, module=None):
    for name in names:
        def fail(*args, name=name):
            raise AssertionError(f"{name} was called")

        monkeypatch.setattr(module or home(name), name, fail)


def spy(monkeypatch, name, module=None):
    module = module or home(name)
    calls = []
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def unit_closure(gens, q, k):
    """The subgroup of ((Z/q)^x)^k that the unit tuples ``gens`` generate,
    by a breadth-first closure under the generators not already in it."""
    group, kept = {(1 % q,) * k}, []
    for g in gens:
        if g not in group:
            kept.append(g)
            frontier = list(group)
            while frontier:
                frontier = [y for y in {tuple(a * b % q for a, b in zip(x, h))
                                        for x in frontier for h in kept}
                            if y not in group]
                group.update(frontier)
    return group


def brute_cosets(spec):
    """The cosets of {+-1}^k that det(K) meets, each as a tuple of the sets
    {d, -d} mod m, from the public det on Python ints over every
    element that the closure's enumerator yields, as subring_closure does;
    nothing of the genus route past the closure."""
    m = spec.m
    shape = matrices._shape(m, spec.blocks)
    rows = [orders._mats_to_row(t) for t in spec.generators]
    basis, additive = orders._closure(shape, rows, 10**6)
    blocks = list(zip(shape.blocks, shape.offsets))
    met = set()
    for chunk in kernel._elements(shape, basis, additive):
        for row in chunk.tolist():
            d = [matrices.det(MatModM(m, r, row[off : off + r * r])).value
                 for r, off in blocks]
            if all(gcd(x, m) == 1 for x in d):
                met.add(tuple(frozenset({x, -x % m}) for x in d))
    return met


def brute_genus(spec):
    """[((Z/m)^x)^k : det(K)*{+-1}^k], read as |Q| over the cosets met."""
    k = len(spec.blocks)
    return (totient(spec.m) // sign_count(spec.m)) ** k // len(brute_cosets(spec))


def subring_size(spec):
    shape = matrices._shape(spec.m, spec.blocks)
    rows = [orders._mats_to_row(t) for t in spec.generators]
    return prod(orders._closure(shape, rows, 10**30)[1])


# Mat_3(Z/5), with 5^9 elements, and Z/9 x Mat_2(Z/9), with 9^5
WHOLE_RINGS = [
    units_spec(5, (3,), [(0, 0, 1), (0, 1, 0), (0, 1, 2), (0, 2, 1)]),
    units_spec(9, (1, 2), [(0, 0, 0), (1, 0, 1), (1, 1, 0)]),
]
# upper triangular blocks: the diagonal entries are free, so det(K) is all
# of ((Z/m)^x)^k and the genus is 1, but S is a proper subring
TRIANGULAR = [
    units_spec(12, (2,), [(0, 0, 0), (0, 0, 1)]),
    units_spec(5, (2, 2), [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)]),
]
# the same cells above one chunk: 36^3 and 9^5 elements
BIG_TRIANGULAR = [
    units_spec(36, (2,), [(0, 0, 0), (0, 0, 1)]),
    units_spec(9, (2, 2), [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)]),
]


class TestShortcuts:
    @pytest.mark.parametrize("spec", WHOLE_RINGS, ids=["3@5", "1,2@9"])
    def test_whole_ring_needs_no_scan(self, monkeypatch, spec):
        forbid(monkeypatch, "_prime_cosets", "_factor", "_elements")
        width = sum(r * r for r in spec.blocks)
        assert subring_size(spec) == spec.m**width
        assert genus(spec).total == 1

    @pytest.mark.parametrize("spec", WHOLE_RINGS, ids=["3@5", "1,2@9"])
    def test_closure_stops_once_the_span_is_whole(self, monkeypatch, spec):
        # no word is multiplied after the insertion that makes every pivot 1
        whole, products = [False], []
        real_insert = orders._insert
        width = sum(r * r for r in spec.blocks)

        def insert(basis, m, v):
            grew = real_insert(basis, m, v)
            whole[0] = len(basis) == width and all(d == 1 for _, d in basis.values())
            return grew

        def mul(*args, real_mul=orders._mul_lists):
            products.append(whole[0])
            return real_mul(*args)

        monkeypatch.setattr(orders, "_insert", insert)
        monkeypatch.setattr(orders, "_mul_lists", mul)
        assert subring_size(spec) == spec.m**width
        assert whole[0] and products and not any(products)

    @pytest.mark.parametrize("spec", BIG_TRIANGULAR, ids=["2@36", "2,2@9"])
    def test_probe_settles_a_proper_subring(self, monkeypatch, spec):
        # above one chunk every factor is probed through the kernel, and
        # their probe groups joined meet every coset, so no factor is
        # counted in full, on Python ints or by the kernel's lift scan
        size = subring_size(spec)
        assert matrices._CHUNK < size < spec.m ** sum(r * r for r in spec.blocks)
        forbid(monkeypatch, "_elements", "_laplace_lists")
        factors = spy(monkeypatch, "_factor")
        assert genus(spec).total == 1
        assert factors and all(args[4] for args in factors)

    @pytest.mark.parametrize("spec", TRIANGULAR, ids=["2@12", "2,2@5"])
    def test_one_chunk_subring_takes_no_probe(self, monkeypatch, spec):
        # 1,728 and 3,125 elements: one chunk, counted prime by prime on
        # Python ints with nothing of the kernel, neither a probe nor a lift
        # scan, and the brute force agrees on genus 1; with _CHUNK = 0 every
        # factor goes to the kernel, probe and lift scan, which agrees
        assert subring_size(spec) <= matrices._CHUNK
        assert brute_genus(spec) == 1
        with monkeypatch.context() as patch:
            forbid(patch, "_factor", "_elements", "_block_dets")
            assert genus(spec).total == 1
        genus_relative.cache_clear()
        monkeypatch.setattr(matrices, "_CHUNK", 0)
        factors = spy(monkeypatch, "_factor")
        assert genus(spec).total == 1
        assert factors

    def test_genus_above_one_takes_the_full_scan(self, monkeypatch):
        # 15^4 = 50625 elements, above one chunk; genus phi(15)/2 = 4.  Both
        # factors, 3 and 5, are probed through the kernel, the joined probe
        # groups miss cosets, and each factor is then counted in full: its
        # 3^4 and 5^4 lifts on Python ints, or with _CHUNK = 64 by the
        # kernel's lift scan
        for chunk, scans in ((matrices._CHUNK, 0), (64, 2)):
            monkeypatch.setattr(matrices, "_CHUNK", chunk)
            genus_relative.cache_clear()
            factors = spy(monkeypatch, "_factor")
            elements = spy(monkeypatch, "_elements")
            assert genus(matrix_pullback_spec(15, 2)).total == 4
            assert [(args[2], args[4]) for args in factors] == (
                [(3, True), (5, True)] + [(3, False), (5, False)][: scans])
            assert len(elements) == scans

    def test_small_pullback_takes_no_products_and_no_combinations(self, monkeypatch):
        # the generator (1, 1) is the identity, which the first level finds
        # in the span, and the m scalars make one chunk: the genus takes no
        # blockwise product and nothing of the numpy row kernel; with
        # _CHUNK = 0 every factor takes the kernel, and agrees
        forbid(monkeypatch, "_mul_lists")
        with monkeypatch.context() as patch:
            forbid(patch, "_elements", "_block_dets", "_factor", "_combinations")
            for m in range(2, 161):
                assert genus(pullback_spec(m)).total == genus_pullback_formula(m), m
        genus_relative.cache_clear()
        monkeypatch.setattr(matrices, "_CHUNK", 0)
        forbid(monkeypatch, "_laplace_lists")
        for m in range(2, 161):
            assert genus(pullback_spec(m)).total == genus_pullback_formula(m), m

    def test_probe_skipped_when_index_one_is_impossible(self, monkeypatch):
        # |S| = 40009 scalars, above one chunk, but below the 20004^2
        # cosets of {+-1}^2, so K cannot meet them all and genus > 1: the
        # one factor's 40009 lifts are scanned by the kernel with no probe
        factors = spy(monkeypatch, "_factor")
        assert genus(pullback_spec(40009)).total == genus_pullback_formula(40009)
        assert [args[4] for args in factors] == [False]

    @pytest.mark.parametrize("spec", [WHOLE_RINGS[0], TRIANGULAR[0]],
                             ids=["whole", "triangular"])
    def test_genus_one_above_the_cap_still_raises(self, monkeypatch, spec):
        forbid(monkeypatch, "_elements", "_factor")
        size = subring_size(spec)
        with pytest.raises(ResourceLimitError, match=str(size)) as info:
            genus(spec, cap=size - 1)
        assert info.value.needed == size

    def test_shortcuts_match_the_scan(self, monkeypatch):
        # a diagonal copy repeats one generator in every block, which gives
        # genus > 1; with 64-row chunks the kernel's probes and lift scans
        # run on subrings small enough for the brute force, and subrings of
        # at most 64 elements are counted on Python ints alone
        monkeypatch.setattr(matrices, "_CHUNK", 64)
        factors, primes = spy(monkeypatch, "_factor"), spy(monkeypatch, "_prime_cosets")
        rng = random.Random(2024)
        shapes = [((2,), (8, 9, 10, 12)), ((1, 2), (5, 6, 7)),
                  ((1, 1, 1), (12, 24, 30)), ((2, 2), (3, 4, 5, 6, 7, 8)),
                  ((3,), (3,)), ((1, 1, 1, 1), (6, 10)), ((1, 1), (10, 12, 30))]
        seen = {"whole": 0, "probed, one": 0, "probed, above one": 0,
                "several chunks": 0, "prime by prime": 0}
        for _ in range(300):
            blocks, levels = rng.choice(shapes)
            m = rng.choice(levels)
            r = blocks[0]
            if len(set(blocks)) == 1 and rng.random() < 0.5:
                xs = [MatModM(m, r, [rng.randrange(m) for _ in range(r * r)])
                      for _ in range(rng.randint(1, 2))]
                spec = OrderSpec(m=m, blocks=blocks,
                                 generators=tuple((x,) * len(blocks) for x in xs))
            else:
                spec = random_spec(rng, m, blocks, n_gens=rng.randint(1, 3))
            size = subring_size(spec)
            if size > 2_000:
                continue
            factors.clear()
            primes.clear()
            got = genus_relative.__wrapped__(spec)
            assert got == brute_genus(spec), spec
            probed = any(args[4] for args in factors)
            seen["prime by prime"] += bool(primes) and not factors
            seen["whole"] += size == m ** sum(r * r for r in blocks)
            seen["several chunks"] += any(not args[4] and args[2] ** len(args[1]) > 64
                                          for args in factors)
            seen["probed, one"] += probed and got == 1
            seen["probed, above one"] += probed and got > 1
        assert min(seen.values()) >= 3, seen

    @pytest.mark.parametrize("m, k", [(8, 3), (12, 2), (15, 2), (30, 3), (7, 1)])
    def test_span_matches_breadth_first_closure(self, m, k):
        # the lattice of discrete logs that spans the subgroup of
        # ((Z/q)^x)^k generated by unit tuples, for each prime power q of m
        # (2^3 among them), fed in two chunks: its order and its sign tuples
        # against a breadth-first closure of the tuples
        rng = random.Random(m * k)
        unit = [u for u in range(m) if np.gcd(u, m) == 1]
        for _ in range(5):
            gens = [tuple(rng.choice(unit) for _ in range(k))
                    for _ in range(rng.randint(0, 4))]
            for p, e in prime_powers(m):
                q = p**e
                mod_q = [tuple(x % q for x in g) for g in gens]
                arr = np.array(mod_q, dtype=np.int64).reshape(-1, k)
                size, signs = kernel._lattice([arr[:1], arr[1:]], p, e, k)
                group = unit_closure(mod_q, q, k)
                assert size == len(group), (q, gens)
                assert signs == set(filter({1 % q, q - 1}.issuperset, group)), (q, gens)

    def test_both_determinant_paths_agree(self, monkeypatch):
        # every factor counted in full by the Laplace expansion on Python
        # ints, and by the kernel's lift scan of int64 determinants over
        # chunks of at most 4 rows, so that no chunk meets every coset, gives
        # the same c; a |Q| above |S| takes no probe
        rng, several = random.Random(17), 0
        for blocks, m in [((1, 1), 10), ((2,), 12), ((1, 1, 1), 6), ((1, 2), 4),
                          ((1, 1), 9), ((1, 1, 1, 1), 15)]:
            spec = random_spec(rng, m, blocks, n_gens=2)
            shape = matrices._shape(m, blocks)
            rows = [orders._mats_to_row(t) for t in spec.generators]
            basis, additive = orders._closure(shape, rows, 10**6)
            factors = prime_powers(m)
            several += any(p ** sum(a % p == 0 for a in additive) > 4 for p, _ in factors)
            counts = []
            for chunk in (1 << 15, 4):
                monkeypatch.setattr(matrices, "_CHUNK", chunk)
                with monkeypatch.context() as patch:
                    calls = spy(patch, "_factor")
                    counts.append(orders._prime_cosets(shape, basis, additive, factors,
                                                       prod(additive) + 1, 10**6))
                    assert bool(calls) == (chunk == 4)
                    assert not any(args[4] for args in calls)
            assert counts == [len(brute_cosets(spec))] * 2, spec
        assert several >= 4  # specs with a factor of more than 4 lifts, in several chunks


# the shapes of the matrix-orders and big-ambient benchmark workloads, whose
# subrings all fit one chunk; counted by the kernel, the determinant rows of
# each factor would all fit int64 as base-q codes: at most 25^2, (1,1)@600,
# and 25^3, (1,1,1)@100
BENCH_SHAPES = [
    *(((2,), m) for m in (5, 7, 8, 9, 10, 12, 13, 16, 20, 24)),
    *(((1, 2), m) for m in (5, 7, 8, 9)),
    *(((1, 1, 1), m) for m in (8, 12, 24, 30, 100)),
    ((3,), 3),
    ((1, 1), 600),
]


class TestCosetCount:
    def test_route_matches_brute_force_sweep(self, monkeypatch):
        # 1,000 seeded specs at composite m <= 60 and m = 1, 2, of at most
        # 2,000 elements: the count on Python ints, at the default _CHUNK,
        # against the kernel's factors, forced with _CHUNK below |S| (8, 64
        # or |S| - 1 rows), and both against the brute force; the kernel
        # runs take the distinct rows at e = 1, the lattice at e > 1, the
        # probe, settling or not, and several chunks, and the Python runs
        # every kind of level
        rng = random.Random(1701)
        levels = [1, 2] + [m for m in range(4, 61)
                           if any(m % p == 0 for p in range(2, m))]
        shapes = [(1,), (2,), (3,), (4,), (1, 1), (1, 2), (2, 2), (1, 3),
                  (1, 1, 1), (1, 1, 1, 1)]
        calls = spy(monkeypatch, "_factor")
        seen = {"rows": 0, "lattice": 0, "probe settles": 0, "probe fails": 0,
                "several chunks": 0, "prime, above one": 0, "prime square": 0,
                "several primes": 0}
        checked = 0
        while checked < 1000:
            spec = random_spec(rng, rng.choice(levels), rng.choice(shapes),
                               n_gens=rng.randint(0, 2))
            size = subring_size(spec)
            if size > 2_000:
                continue
            monkeypatch.setattr(matrices, "_CHUNK", 1 << 15)
            calls.clear()
            got = genus_relative.__wrapped__(spec)
            assert got == brute_genus(spec), spec
            assert not calls
            if got > 1:
                factors = prime_powers(spec.m)
                seen["prime, above one"] += 1
                seen["prime square"] += any(e > 1 for _, e in factors)
                seen["several primes"] += len(factors) > 1
            chunk = min((8, 64, size - 1)[checked % 3], size - 1)
            monkeypatch.setattr(matrices, "_CHUNK", chunk)
            calls.clear()
            assert genus_relative.__wrapped__(spec) == got, spec
            probes = [args for args in calls if args[4]]
            full = [args for args in calls if not args[4]]
            seen["rows"] += any(args[3] == 1 for args in full)
            seen["lattice"] += any(args[3] > 1 for args in full)
            seen["probe settles"] += bool(probes) and not full
            seen["probe fails"] += bool(probes) and bool(full)
            seen["several chunks"] += any(args[2] ** len(args[1]) > chunk for args in full)
            checked += 1
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("m, k, total", [
        (7, 3, 9), (12, 4, 8), (100_003, 4, 50_001**3),
        (120_011, 4, 216_054_004_500_125),
    ])
    def test_scalar_blocks_closed_form(self, monkeypatch, m, k, total):
        # the scalars of k 1x1 blocks: det(K) is the diagonal of
        # ((Z/m)^x)^k, which meets phi/sigma cosets, so the genus is
        # (phi/sigma)^(k-1); at m = 100,003 and 120,011 the m lifts pass one
        # chunk and are scanned by the kernel, and as their base-m codes would
        # pass 2^63, D_q is taken as the lattice of their logs, with no rows
        # merged
        merges = spy(monkeypatch, "_distinct_rows")
        lattices = spy(monkeypatch, "_lattice")
        spec = OrderSpec(m=m, blocks=(1,) * k, generators=())
        assert genus(spec).total == total == (totient(m) // sign_count(m)) ** (k - 1)
        wide = m**k >= 2**63
        assert wide == (m >= 100_003) == bool(lattices)
        assert not merges

    @pytest.mark.parametrize("m", [1, 2, 4, 9, 12, 13])
    def test_non_unit_rows_are_never_counted(self, monkeypatch, m):
        # seeded subrings of k 1x1 blocks, many of whose lifts have a
        # non-unit in some block, scanned by the kernel in chunks of 16, in
        # full and, where the probe takes every lift, by the probe: each
        # factor's order of D_q and its sign tuples, against the group that
        # the unit lifts alone and the steps 1 + p^i b_j generate, which at
        # e = 1 is the unit lifts themselves
        rng = random.Random(m)
        monkeypatch.setattr(matrices, "_CHUNK", 16)
        for k in range(1, 5):
            gens = [[rng.randrange(m) for _ in range(k)] for _ in range(2)]
            shape = matrices._shape(m, (1,) * k)
            basis, additive = orders._closure(shape, gens, 10**6)
            for p, e in prime_powers(m):
                q = p**e
                rows = [[x % q for x in row] for row, a in zip(basis, additive) if a % p == 0]
                lifts = {tuple(sum(c * x for c, x in zip(cs, col)) % q for col in zip(*rows))
                         for cs in itertools.product(range(p), repeat=len(rows))}
                units = {t for t in lifts if all(x % p for x in t)}
                steps = {tuple((1 + p**i * x) % q for x in row)
                         for i in range(1, e) for row in rows}
                want = unit_closure(units | steps, q, k)
                assert e > 1 or want == units
                for probe in (False, True)[: 1 + (len(lifts) <= kernel._PROBE)]:
                    size, signs = kernel._factor(shape, rows, p, e, probe)
                    assert size == len(want), (k, q, probe)
                    assert signs == set(filter({1 % q, q - 1}.issuperset, want)), (k, q)

    def test_count_of_a_group_is_its_span(self, monkeypatch):
        # the unit determinants D_q = det(K_q) of seeded specs form a group,
        # so at e = 1 the distinct unit rows of the kernel's lift scan and
        # the lattice of discrete logs they span have the same order and
        # sign tuples, and c from them is the brute force's count; every
        # other spec scans in one-row chunks, with _CHUNK = 0
        rng = random.Random(4242)
        shapes = [(1,), (2,), (1, 1), (1, 2), (1, 1, 1)]
        chunk, checked = matrices._CHUNK, 0
        while checked < 200:
            m = rng.randint(1, 40)
            spec = random_spec(rng, m, rng.choice(shapes), n_gens=rng.randint(0, 2))
            shape, k = matrices._shape(m, spec.blocks), len(spec.blocks)
            rows = [orders._mats_to_row(t) for t in spec.generators]
            basis, additive = orders._closure(shape, rows, 10**30)
            if prod(additive) > 400:
                continue
            monkeypatch.setattr(matrices, "_CHUNK", 0 if checked % 2 else chunk)
            met, signs = 1, None
            for p, e in prime_powers(m):
                q = p**e
                lifts = [[x % q for x in row] for row, a in zip(basis, additive) if a % p == 0]
                size, found = kernel._factor(shape, lifts, p, e, False)
                if e == 1:
                    dets = np.concatenate([kernel._block_dets(matrices._shape(q, spec.blocks), c)
                                           for c in kernel._elements(shape, basis, additive)]) % q
                    units = dets[np.gcd(dets, q).max(axis=1) == 1]
                    assert (size, found) == kernel._lattice([units], p, e, k), spec
                met *= size
                if q > 2:
                    both = {tuple(x == 1 for x in t) for t in found}
                    signs = both if signs is None else signs & both
            c = met // (1 if signs is None else len(signs))
            assert c == len(brute_cosets(spec)), spec
            checked += 1

    @pytest.mark.parametrize("blocks, m", BENCH_SHAPES,
                             ids=[f"{b}@{m}" for b, m in BENCH_SHAPES])
    def test_bench_shapes_take_their_container(self, monkeypatch, blocks, m):
        # the scalars of each benchmark shape make one chunk, counted prime
        # by prime on Python ints with nothing of the kernel; counted by the
        # kernel, with _CHUNK = 0, by its probes and lift scans, they agree,
        # and the determinant rows that a scan at e = 1 merges are base-q
        # codes, never rows
        spec = OrderSpec(m=m, blocks=blocks, generators=())
        want = brute_genus(spec)
        with monkeypatch.context() as patch:
            forbid(patch, "_factor", "_elements", "_block_dets")
            assert genus(spec).total == want
        genus_relative.cache_clear()
        merges = spy(monkeypatch, "_distinct_rows")
        monkeypatch.setattr(matrices, "_CHUNK", 0)
        assert genus(spec).total == want
        assert all(a[0].ndim == 1 for a in merges)


class TestPrimeRoute:
    @pytest.mark.parametrize("spec, total", [
        (pullback_spec(15), 4), (pullback_spec(21), 6), (pullback_spec(35), 12),
        (matrix_pullback_spec(15, 2), 4),
    ], ids=["pullback15", "pullback21", "pullback35", "matrix15"])
    def test_signs_are_shared_across_primes(self, monkeypatch, spec, total):
        # det(K) is the diagonal of ((Z/m)^x)^2, which meets only the sign
        # pairs (1, 1) and (-1, -1) of {+-1}^2 as a whole, though mod each
        # prime of m it meets as many; each spec is counted prime by prime
        # on Python ints at _CHUNK = |S|, and by the kernel's factors at
        # _CHUNK = 0
        calls = spy(monkeypatch, "_factor")
        size = subring_size(spec)
        for chunk in (size, 0):
            monkeypatch.setattr(matrices, "_CHUNK", chunk)
            genus_relative.cache_clear()
            calls.clear()
            assert genus(spec).total == total
            assert bool(calls) == (chunk == 0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    def test_levels_with_one_unit_coset_have_genus_one(self, monkeypatch, m):
        # phi(m) = sigma(m): Q is trivial, and the count is 1 with neither
        # route, once the closure is within the cap; no determinant is
        # planned, not even of a 16x16 block
        forbid(monkeypatch, "_prime_cosets", "_factor", "_elements")
        forbid(monkeypatch, "_laplace_plan", module=matrices)
        rng = random.Random(m)
        for blocks in [(16,), (1, 1), (2,), (1, 2), (3,)]:
            spec = random_spec(rng, m, blocks, n_gens=rng.randint(0, 2))
            assert genus(spec).total == 1, spec

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_levels_with_one_unit_coset_answer_any_block_size(self, monkeypatch, m):
        # the 40 * 2^39 terms of a 40x40 determinant are far past the cap,
        # but where phi(m) = sigma(m) no determinant is planned at all
        forbid(monkeypatch, "_laplace_plan", module=matrices)
        assert genus(OrderSpec(m=m, blocks=(40,), generators=())).total == 1

    def test_one_chunk_queries_import_no_numpy(self, subprocess_env, tmp_path):
        # the test modules import numpy themselves, so the queries run in a
        # fresh interpreter: one genus per shape of the matrix-orders and
        # big-ambient benchmark workloads, and every CLI verb and check of
        # catalog
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(order_spec_to_dict(spec_1x1(12, [(1, 5)]))))
        script = f"""
import contextlib, io, sys
import genuskit, genuskit.cli
from genuskit import MatModM, OrderSpec, genus
for blocks, m in {[tuple(x) for x in BENCH_SHAPES]!r}:
    gen = tuple(MatModM(m, r, [2 * (i == j) + (i + 1 == j) for i in range(r)
                               for j in range(r)]) for r in blocks)
    genus(OrderSpec(m=m, blocks=blocks, generators=(gen,)))
for argv in (["genus-pullback", "35"], ["genus-atom", "A(5)@6"], ["table-A"],
             ["totient", "4999"], ["gl-order", "2", "5"], ["stable-image", "3", "3"],
             ["genus-order", {str(spec_path)!r}], ["double-cosets", {str(spec_path)!r}],
             ["check", "--only", "atom-table"], ["check", "--only", "genus-one-catalog"],
             ["check", "--only", "same-genus-classes"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert genuskit.cli.main(argv + ["--json"]) == 0, argv
assert "numpy" not in sys.modules
assert "genuskit.kernel" not in sys.modules
"""
        run = subprocess.run([sys.executable, "-c", script], env=subprocess_env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr

    @pytest.mark.parametrize("call, answer", [
        ("len(genuskit.enumerate_gl(2, 3))", 48),
        ("len(genuskit.stable_image(2, 3))", 48),
        ("genuskit.genus(genuskit.matrix_pullback_spec(15, 2)).total", 4),
        ("len(genuskit.subring_closure(genuskit.pullback_spec(6)))", 6),
    ], ids=["gl", "stable-image", "above-one-chunk", "subring-closure"])
    def test_the_row_kernel_imports_numpy(self, subprocess_env, call, answer):
        script = f"""
import sys
import genuskit
assert "numpy" not in sys.modules and "genuskit.kernel" not in sys.modules
assert {call} == {answer}
assert "numpy" in sys.modules and "genuskit.kernel" in sys.modules
"""
        run = subprocess.run([sys.executable, "-c", script], env=subprocess_env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr


    def test_only_the_kernel_imports_numpy(self):
        # every import of numpy in the package, at any depth, is the one at
        # the top of genuskit.kernel
        found = []
        for path in sorted(Path(orders.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                if any(n.split(".")[0] == "numpy" for n in names):
                    found.append((path.name, node in tree.body))
        assert found == [("kernel.py", True)]

    def test_only_the_kernel_knows_int64(self):
        # the literal 2**63 occurs only in genuskit.kernel, the one module
        # that does int64 arithmetic, and neither matrices nor orders binds
        # the int64 Laplace expansion or an index check of its own
        found = set()
        for path in sorted(Path(orders.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                        and isinstance(node.left, ast.Constant) and node.left.value == 2
                        and isinstance(node.right, ast.Constant) and node.right.value == 63):
                    found.add(path.name)
        assert found == {"kernel.py"}
        for module in (matrices, orders):
            assert not hasattr(module, "_laplace") and not hasattr(module, "_check_index")

    def test_only_matrices_knows_the_laplace_term_bound(self):
        # the term count r * 2^(r-1) of a Laplace plan is written only in
        # genuskit.matrices, which builds every plan, and only that module
        # raises the refusal of phase "determinant"
        counts, refusals = set(), set()
        for path in sorted(Path(orders.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.BinOp) and ast.unparse(node) == "2 ** (r - 1)":
                    counts.add(path.name)
                if (isinstance(node, ast.Call) and ast.unparse(node.func) == "ResourceLimitError"
                        and any(kw.arg == "phase" and isinstance(kw.value, ast.Constant)
                                and kw.value.value == "determinant" for kw in node.keywords)):
                    refusals.add(path.name)
        assert counts == refusals == {"matrices.py"}


class TestAboveOneChunk:
    def test_sweep_above_one_chunk(self, monkeypatch):
        # seeded specs of more than one chunk of elements, at the default
        # _CHUNK, against three oracles: the generic double-coset engine on
        # subring_units where |U| <= 10^4, genus_pullback_formula for the
        # pullbacks and their Mat_2, and (phi/sigma)^(k-1) for the scalars of
        # k 1x1 blocks.  The levels hold 2^15, 2^16, 3^10, 5^7 and several
        # odd primes at once; a 2x2 scalar block at a prime p has genus 1
        # when p = 3 mod 4, as -1 is then no square, and its probe, which
        # meets D = the squares, settles it.  Z/2^8[x] with x^2 = -2 has the
        # unit norms a^2 + 2b^2, the units 1 or 3 mod 8, which make <3>: it
        # lacks -1 but meets every coset of {+-1}, so the genus is 1, which a
        # log map that took (Z/2^e)^x to be cyclic would miss
        rng = random.Random(2026)
        calls = spy(monkeypatch, "_factor")
        levels = [65536, 59049, 78125, 117649, 65535, 98304, 118098, 40009,
                  65537, 1_000_003, *rng.sample(range(32769, 200_000), 4)]
        cases = [(pullback_spec(m), genus_pullback_formula(m)) for m in levels]
        cases += [(matrix_pullback_spec(m, 2), genus_pullback_formula(m))
                  for m in [16, 32, *rng.sample(range(14, 38), 4)]]
        cases += [(OrderSpec(m=m, blocks=(1,) * k, generators=()),
                   (totient(m) // sign_count(m)) ** (k - 1))
                  for m in (65536, 59049, 78125, 40009) for k in [rng.randint(2, 4)]]
        cases += [(OrderSpec(m=p, blocks=(2,), generators=()), 1 if p % 4 == 3 else 2)
                  for p in (32771, 32779, 32789, 40009)]
        cases += [(units_spec(7, (4,), [(0, i, i) for i in range(4)] + [(0, 0, 1), (0, 1, 2)]), 1),
                  (OrderSpec(m=256, blocks=(2,), generators=((MatModM(256, 2, (0, -2, 1, 0)),),)),
                   1)]
        for spec, _ in cases[-6:]:
            assert subring_size(spec) > matrices._CHUNK
        engine = [spec_1x1(420, [(0, 5)]), spec_3x1(60, [(0, 5, 0), (0, 0, 1)])]
        cases += [(spec, engine_genus(spec)) for spec in engine]
        seen = {"rows": 0, "lattice": 0, "2^e lattice": 0, "probe settles": 0,
                "probe fails": 0, "python factor": 0}
        for spec, want in cases:
            size = subring_size(spec)
            assert size > matrices._CHUNK, spec.m
            calls.clear()
            assert genus_relative.__wrapped__(spec) == want, (spec.m, spec.blocks)
            probes = [args for args in calls if args[4]]
            full = [args for args in calls if not args[4]]
            seen["rows"] += any(args[3] == 1 for args in full)
            seen["lattice"] += any(args[3] > 1 for args in full)
            seen["2^e lattice"] += any(args[2] == 2 and args[3] > 2 for args in full)
            seen["probe settles"] += bool(probes) and not full
            seen["probe fails"] += bool(probes) and bool(full)
            seen["python factor"] += len(full) < len(prime_powers(spec.m))
            if want == 1 and spec.blocks in {(2,), (4,)}:
                assert probes and not full, spec.m  # settled by the probes joined
        assert min(seen.values()) >= 2, seen


class TestResourceLimitFields:
    def test_level_above_cap(self):
        with pytest.raises(ResourceLimitError,
                           match="^a subring mod 30 exceeds the cap of 3$") as info:
            genus(pullback_spec(30), cap=3)
        e = info.value
        assert (e.phase, e.needed, e.cap, e.lower_bound) == ("closure", 30, 3, True)

    def test_level_past_int64(self):
        # the closure runs on Python ints at any level; the factor 2^40
        # goes to the kernel, whose guard refuses its level
        with pytest.raises(ResourceLimitError, match="int64") as info:
            genus(pullback_spec(2**40), cap=2**62)
        e = info.value
        assert (e.phase, e.needed, e.cap, e.lower_bound) == (
            "enumeration", (2**40 - 1) ** 2, 2**63 - 1, False)

    def test_subring_above_cap(self):
        # refused at the insertion of e21, whose span of 7^3 elements is a
        # lower bound on the 7^4 of the whole ring
        with pytest.raises(ResourceLimitError, match="^the subring has at least 343 "
                           "elements, above the cap of 100$") as info:
            genus(matrix_units_spec(7), cap=100)
        e = info.value
        assert (e.phase, e.needed, e.cap, e.lower_bound) == ("closure", 343, 100, True)

    def test_closure_refuses_exactly_above_the_cap(self):
        # the random-spec shapes and levels at the caps |S| - 1, |S| and
        # three random caps below |S|: refused exactly when |S| > cap, with
        # the span reached then, cap < needed <= |S|, as a lower bound
        rng = random.Random(28)
        levels = (2, 3, 4, 5, 6, 8, 9, 10, 12)
        refused = below_s = 0
        for _ in range(150):
            blocks = rng.choice([(1, 1), (2,), (1, 2), (1, 1, 1), (3,)])
            m = rng.choice(levels)
            spec = random_spec(rng, m, blocks, n_gens=rng.randint(0, 3))
            shape = matrices._shape(m, blocks)
            rows = [orders._mats_to_row(t) for t in spec.generators]
            want = orders._closure(shape, rows, 10**30)
            size = prod(want[1])
            for cap in (size - 1, size, *(rng.randrange(1, size) for _ in range(3))):
                try:
                    got = orders._closure(shape, rows, cap)
                except ResourceLimitError as e:
                    assert size > cap, (spec, cap)
                    assert (e.phase, e.cap, e.lower_bound) == ("closure", cap, True)
                    assert cap < e.needed <= size, (spec, cap, e.needed)
                    refused += 1
                    below_s += e.needed < size
                else:
                    assert size <= cap and got == want, (spec, cap)
        assert refused == 4 * 150 and below_s >= 100, (refused, below_s)

    def test_big_whole_ring_is_refused_fast(self, subprocess_env):
        # the 26x26 block at m = 5 generated by e_{i,i+1} and e_{i+1,i}: the
        # span passes the default cap within the generators, so the refusal
        # takes no product, in a fresh process that loads no numpy
        script = """
import sys, time
from genuskit import MatModM, OrderSpec, genus
from genuskit.errors import ResourceLimitError
r = 26
cells = [(i, i + 1) for i in range(r - 1)] + [(i + 1, i) for i in range(r - 1)]
gens = tuple((MatModM(5, r, [int((a, b) == c) for a in range(r) for b in range(r)]),)
             for c in cells)
start = time.perf_counter()
try:
    genus(OrderSpec(m=5, blocks=(r,), generators=gens))
except ResourceLimitError as e:
    assert (e.phase, e.needed, e.lower_bound) == ("closure", 5**10, True), vars(e)
else:
    raise AssertionError("not refused")
elapsed = time.perf_counter() - start
assert elapsed < 0.5, elapsed
assert "numpy" not in sys.modules and "genuskit.kernel" not in sys.modules
"""
        run = subprocess.run([sys.executable, "-c", script], env=subprocess_env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr

    def test_primorial_level_past_int64_squares_answers(self, subprocess_env):
        # 29# = 6,469,693,230, whose square passes 2^63: each of its ten
        # prime factors has one row and at most 29 lifts, counted on Python
        # ints, which have no int64 range, so the genus is the closed form,
        # in a fresh process that loads no numpy
        script = """
import sys
from genuskit import genus, genus_pullback_formula, pullback_spec
m = 6469693230
assert genus(pullback_spec(m), cap=10**10).total == genus_pullback_formula(m) == 510935040
assert "numpy" not in sys.modules and "genuskit.kernel" not in sys.modules
"""
        run = subprocess.run([sys.executable, "-c", script], env=subprocess_env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr

    def test_basis_past_int64(self, monkeypatch):
        # upper triangular 2x2 at m = 2^31 - 1: products of two entries
        # stay in range, but a sum over the 3 basis rows does not, and the
        # kernel's guard refuses it at the entry of _factor and of
        # _subring_closure, before any array is built
        forbid(monkeypatch, "_elements", "_combinations", "_block_dets")
        m = 2**31 - 1
        spec = units_spec(m, (2,), [(0, 0, 0), (0, 0, 1)])
        for call in (genus, subring_closure):
            with pytest.raises(ResourceLimitError, match=f"^residue products, 3 to a sum, "
                               f"at level {m} are past the int64 range$") as info:
                call(spec, cap=2**100)
            e = info.value
            assert (e.phase, e.needed, e.cap, e.lower_bound) == (
                "enumeration", 3 * (m - 1) ** 2, 2**63 - 1, False)

    def test_subring_past_int64_index(self, monkeypatch):
        # the strictly upper triangular units e_{i,i+1} of Mat_10(Z/3)
        # generate a subring of 3^46 elements, past int64 indices: its genus
        # is 1 from phi(3) = sigma(3), with nothing of the kernel, while
        # subring_closure, which enumerates S on the kernel, refuses it
        # whatever the cap, before any array is built
        forbid(monkeypatch, "_elements", "_factor")
        spec = units_spec(3, (10,), [(0, i, i + 1) for i in range(9)])
        assert genus(spec, cap=10**40).total == 1
        with pytest.raises(ResourceLimitError, match=f"^{3**46} elements at level 3 "
                           "are past the int64 range$") as info:
            subring_closure(spec, cap=10**40)
        e = info.value
        assert (e.phase, e.needed, e.cap, e.lower_bound) == (
            "enumeration", 3**46, 2**63 - 1, False)

    def test_whole_ring_past_int64_index_has_genus_one(self, monkeypatch):
        # Mat_10(Z/3) has 3^100 elements, but the whole ring returns
        # before the index range matters
        forbid(monkeypatch, "_elements", "_factor")
        cells = [(0, i, i + 1) for i in range(9)] + [(0, i + 1, i) for i in range(9)]
        assert genus(units_spec(3, (10,), cells), cap=10**60).total == 1

    def test_block_above_det_limit(self):
        # blocks above 4 take the same determinant routine as the others;
        # each count was checked against a Leibniz brute force
        nilpotent = MatModM(9, 6, [int(i == 1) for i in range(36)])
        for spec, total in [
            (OrderSpec(m=11, blocks=(5,), generators=()), 5),
            (OrderSpec(m=13, blocks=(1, 6), generators=()), 6),
            (OrderSpec(m=7, blocks=(5, 2), generators=()), 3),
            (OrderSpec(m=9, blocks=(6,), generators=((nilpotent,),)), 3),
        ]:
            assert genus(spec).total == total, spec

    def test_determinant_terms_above_cap(self):
        # an 8x8 determinant takes 8 * 2^7 = 1024 Laplace terms; the
        # scalars of Mat_8(Z/5) all have determinant a^8 = 1, so the genus
        # is phi(5)/2 = 2 where the cap admits the plan
        spec = OrderSpec(m=5, blocks=(8,), generators=())
        with pytest.raises(ResourceLimitError, match="^a 8x8 determinant takes "
                           "1024 terms, above the cap of 1023$") as info:
            genus(spec, cap=1023)
        e = info.value
        assert (e.phase, e.needed, e.cap, e.lower_bound) == ("determinant", 1024, 1023, False)
        assert genus(spec, cap=1024).total == 2

    def test_huge_block_fails_fast(self, monkeypatch):
        # the refusal comes before any determinant is planned or taken
        forbid(monkeypatch, "_factor")
        forbid(monkeypatch, "_laplace_plan", module=matrices)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as info:
            genus(OrderSpec(m=5, blocks=(40,), generators=()))
        assert time.perf_counter() - start < 1.0
        assert (info.value.phase, info.value.needed) == ("determinant", 40 * 2**39)

    def test_huge_block_is_refused_in_little_memory(self):
        # the Howell basis holds a row only for each pivot column, so the
        # 3600 columns of a 60x60 block do not make 3600 rows of 3600
        spec = OrderSpec(m=5, blocks=(60,), generators=())
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as info:
                genus(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.phase == "determinant"
        assert peak < 5 * 2**20


def nilpotent_spec(m, r):
    """The subring of Mat_r(Z/m) generated by 2 + e_01: the matrices
    a + b*e_01, of determinant a^r, m^2 of them."""
    gen = MatModM(m, r, [2 * (i == j) + (i + 1 == j == 1) for i in range(r) for j in range(r)])
    return OrderSpec(m=m, blocks=(r,), generators=((gen,),))


def record_plans(monkeypatch):
    """The list of the plans matrices._laplace_plan returns from now on."""
    real, built = matrices._laplace_plan, []
    monkeypatch.setattr(matrices, "_laplace_plan", lambda r: built.append(real(r)) or built[-1])
    return built


class TestLaplacePlanMemory:
    @pytest.mark.parametrize("chunk", [None, 0], ids=["python-ints", "kernel"])
    def test_plan_above_the_bound_is_built_once_and_not_kept(self, monkeypatch, chunk):
        # a 9x9 block at m = 27: det(K) = {a^9} = {+-1}, so the genus is
        # phi(27)/2 = 9.  The lifts take one determinant per block and the
        # steps det(1 + 3^i b) one each on Python ints; with _CHUNK = 0 the
        # kernel's probe and then its lift scan take one per chunk.  They
        # all share one plan, built once, and once the query returns only
        # this test holds it: by the list, and by getrefcount's argument
        r = matrices._KEPT_PLAN + 1
        if chunk is not None:
            monkeypatch.setattr(matrices, "_CHUNK", chunk)
        real, built = matrices._laplace_plan, record_plans(monkeypatch)
        factors = spy(monkeypatch, "_factor")
        assert genus(nilpotent_spec(27, r)).total == 9
        assert len(factors) == (0 if chunk is None else 2)
        factors.clear()  # the spy's record of the calls holds the plan too
        holders = sys.getrefcount(built[0])
        assert [len(plan) for plan in built] == [r - 1]
        assert holders == 2
        assert r not in matrices._kept_plans
        kept = real(matrices._KEPT_PLAN)
        assert kept is real(matrices._KEPT_PLAN) is matrices._kept_plans[matrices._KEPT_PLAN]

    def test_subring_units_builds_a_large_plan_once(self, monkeypatch):
        # the oracle takes one determinant per element of the 25 a + b*e_01
        # at m = 5, the 20 with a a unit among them, all by one 9x9 plan
        r = matrices._KEPT_PLAN + 1
        built = record_plans(monkeypatch)
        closure = subring_closure(nilpotent_spec(5, r))
        assert len(subring_units(closure, 5, (r,))) == 20
        assert len(built) == 1


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS from /proc")
class TestLongLivedProcess:
    def test_memory_stays_bounded(self, subprocess_env):
        # one process runs a mixed sequence twice: the scalar blocks up to
        # 17x17 at m = 5, whose Laplace plans reach 91 MB (14 and 15, which
        # take a second between them, are left out), more pullback
        # levels than the 64 answers the memo keeps, so that every query is
        # computed again in the second round, and matrix_pullback_spec(5, 3),
        # whose factors take the row kernel.  Measured on Linux, Python 3.11:
        # 55 and 67 MB after the rounds, and 123 MB where the 17x17 plan
        # alone is kept
        script = """
from genuskit import OrderSpec, genus, genus_relative, matrix_pullback_spec, pullback_spec
def rss():
    with open("/proc/self/status") as f:
        return next(int(l.split()[1]) for l in f if l.startswith("VmRSS")) / 1024
for _ in range(2):
    for r in (*range(1, 14), 16, 17):
        assert genus(OrderSpec(m=5, blocks=(r,), generators=())).total == 2 - r % 2
    for m in [*range(2, 100), 40009, 65537]:
        genus(pullback_spec(m))
    assert genus(matrix_pullback_spec(5, 3)).total == 2
    print(round(rss(), 1))
assert genus_relative.cache_info().hits == 0
"""
        run = subprocess.run([sys.executable, "-c", script], env=subprocess_env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        rounds = [float(x) for x in run.stdout.split()]
        assert len(rounds) == 2 and rounds[-1] < 100, rounds
