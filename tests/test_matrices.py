"""Bi-adjacency matrices, exact determinant, permanent, and rank."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from triregion import (
    IntegerMatrix,
    biadjacency,
    build_region,
    convenient_family,
    determinant,
    enumerate_tilings,
    parse_ideal,
    permanent,
    rank,
)
from triregion.matrices import _MERSENNE_EXPONENTS, _count_perfect_matchings, _exact_prime, matrix_json
from conftest import (
    X,
    fraction_determinant,
    fraction_rank,
    hexagon,
    macmahon,
    multiplication_matrix,
    permutation_permanent,
    random_artinian_ideal,
    reversed_rows,
    swapped_rows,
    times,
    transposed,
)


#: Modulus of the rank certificate in ``triregion.matrices``.
PRIME = (1 << 61) - 1


@st.composite
def matrices_near_prime(draw, square=False):
    """Small integer matrices whose entries are a small value plus a multiple
    of PRIME, so the matrix mod PRIME often loses rank it has over Q."""
    n = draw(st.integers(0, 5))
    m = n if square else draw(st.integers(0, 5))
    entry = st.builds(lambda small, k: small + k * PRIME, st.integers(-2, 2), st.integers(-1, 1))
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    # built from sparse rows, since a dense grid without rows cannot say m
    return IntegerMatrix(n, m, tuple(tuple((j, v) for j, v in enumerate(r) if v) for r in rows))


@st.composite
def sparse_matrices(draw, square=False):
    """Integer matrices of order at most 7, about half zeros, whose nonzero
    entries are mostly not 1, so most pivots are normalised."""
    n = draw(st.integers(0, 7))
    m = n if square else draw(st.integers(0, 7))
    entry = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -3, 5))
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    return IntegerMatrix(n, m, tuple(tuple((j, v) for j, v in enumerate(r) if v) for r in rows))


@st.composite
def zero_one_matrices(draw):
    """Square 0/1 matrices of order at most 7."""
    n = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n))
    return IntegerMatrix.from_rows(rows)


def random_matrix(rng: random.Random, n: int, m: int, lo=-4, hi=4) -> IntegerMatrix:
    return IntegerMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]
    )


class TestBiadjacency:
    def test_hexagon_matrix(self):
        Z = biadjacency(build_region(parse_ideal("x^2, y^2, z^2"), 3))
        assert [str(m) for m in Z.row_labels] == ["x", "y", "z"]
        assert [str(m) for m in Z.col_labels] == ["x*y", "x*z", "y*z"]
        assert Z.entries == ((1, 1, 0), (1, 0, 1), (0, 1, 1))

    def test_forced_chain_matrix(self):
        Z = biadjacency(build_region(parse_ideal("xy, y^2, z^3"), 4))
        assert Z.entries == (
            (1, 1, 0, 0),
            (0, 1, 1, 0),
            (0, 0, 0, 1),
            (0, 0, 1, 1),
        )

    def test_empty_region(self):
        Z = biadjacency(build_region(parse_ideal("1"), 4))
        assert (Z.rows, Z.cols) == (0, 0)
        assert determinant(Z) == 1
        assert permanent(Z) == 1

    def test_transpose_is_multiplication_matrix(self):
        rng = random.Random(61)
        cases = [random_artinian_ideal(rng) for _ in range(30)]
        # every side of a wlp_families family, up to the first whose
        # up row is empty, and the d = 30 hexagon x^20, y^20, z^20
        family = convenient_family(8, 25)
        cases.append((family, 1))
        while family.hilbert_function(cases[-1][1] - 1):
            cases.append((family, cases[-1][1] + 1))
        cases.append(hexagon(10, 10, 10))
        for ideal, d in cases:
            Z = biadjacency(build_region(ideal, d))
            assert transposed(Z).entries == multiplication_matrix(ideal, d)


class TestDeterminant:
    def test_hexagon(self):
        Z = biadjacency(build_region(parse_ideal("x^2, y^2, z^2"), 3))
        assert determinant(Z) == -2

    def test_identity(self):
        identity = IntegerMatrix.from_rows([[int(i == j) for j in range(5)] for i in range(5)])
        assert determinant(identity) == 1

    def test_non_tileable_region_singular(self):
        Z = biadjacency(
            build_region(parse_ideal("x^6, y^7, z^8, xy^5z, xy^2z^3, x^3y^2z"), 8)
        )
        assert determinant(Z) == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            determinant(IntegerMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    def test_against_fraction_oracle(self):
        rng = random.Random(67)
        for _ in range(60):
            n = rng.randint(0, 8)
            M = random_matrix(rng, n, n)
            assert determinant(M) == fraction_determinant(M)

    @settings(derandomize=True, deadline=None)
    @given(matrices_near_prime(square=True))
    def test_against_fraction_oracle_near_prime(self, M):
        assert determinant(M) == fraction_determinant(M)

    def test_huge_entries(self):
        # entries near 2^200 put Hadamard's bound past 2^1200
        rng = random.Random(97)
        for _ in range(12):
            n = rng.randint(3, 5)
            rows = [[(1 << 200) + rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.5:
                rows[-1] = rows[0]
            M = IntegerMatrix.from_rows(rows)
            assert _exact_prime(M.row_entries) >= (1 << 607) - 1
            assert determinant(M) == fraction_determinant(M)
            assert rank(M) == fraction_rank(M)

    def test_macmahon_hexagons(self):
        # |det| of a hexagon's bi-adjacency matrix counts its tilings
        for a in range(1, 8):
            for b in range(1, 8):
                for c in range(1, 8):
                    ideal, d = hexagon(a, b, c)
                    Z = biadjacency(build_region(ideal, d))
                    assert abs(determinant(Z)) == macmahon(a, b, c)

    def test_hexagon_degree_60(self):
        # x^40, y^40, z^40: 1200 triangles of each kind and a 137-digit count
        Z = biadjacency(build_region(*hexagon(20, 20, 20)))
        assert permanent(Z) == abs(determinant(Z)) == macmahon(20, 20, 20)
        assert rank(Z) == 1200

    @settings(derandomize=True, deadline=None)
    @given(sparse_matrices(square=True), st.randoms(use_true_random=False))
    def test_row_swap_negates(self, M, rnd):
        assume(M.rows >= 2)
        i, j = rnd.sample(range(M.rows), 2)
        assert determinant(swapped_rows(M, i, j)) == -determinant(M) == -fraction_determinant(M)

    def test_beyond_prime_table_rejected(self):
        M = IntegerMatrix.from_rows([[1 << _MERSENNE_EXPONENTS[-1]]])
        with pytest.raises(ValueError, match="too large"):
            determinant(M)


class TestExactPrime:
    def test_table_is_mersenne_exponents(self):
        from sympy.ntheory import mersenne_prime_exponent

        # 2^61 - 1 is the ninth Mersenne prime
        assert _MERSENNE_EXPONENTS == tuple(
            mersenne_prime_exponent(n) for n in range(9, 9 + len(_MERSENNE_EXPONENTS))
        )

    def test_least_prime_above_bound(self):
        assert _exact_prime(IntegerMatrix.from_rows([[1, 0], [0, 1]]).row_entries) == PRIME
        # Hadamard's bound PRIME^2 needs p > 2 * PRIME
        assert _exact_prime(IntegerMatrix.from_rows([[PRIME]]).row_entries) == (1 << 89) - 1


class TestRank:
    def test_forced_chain_full_rank(self):
        Z = biadjacency(build_region(parse_ideal("xy, y^2, z^3"), 4))
        assert rank(Z) == 4

    def test_empty_sides(self):
        assert rank(IntegerMatrix(0, 3, ())) == 0
        assert rank(IntegerMatrix(3, 0, ((), (), ()))) == 0

    def test_against_fraction_oracle(self):
        rng = random.Random(71)
        for _ in range(80):
            n, m = rng.randint(0, 7), rng.randint(0, 7)
            M = random_matrix(rng, n, m, lo=-3, hi=3)
            assert rank(M) == fraction_rank(M)

    def test_singular_structured(self):
        # duplicated rows and zero columns exercise pivot skipping
        M = IntegerMatrix.from_rows([[1, 0, 2], [1, 0, 2], [0, 0, 1]])
        assert rank(M) == 2

    def test_rank_lost_mod_prime_is_recovered(self):
        # each matrix has full rank over Q but not mod PRIME
        assert rank(IntegerMatrix.from_rows([[PRIME]])) == 1
        assert rank(IntegerMatrix.from_rows([[1, 1], [1, 1 + PRIME]])) == 2
        assert rank(IntegerMatrix.from_rows([[PRIME, 0], [0, 2 * PRIME]])) == 2

    @settings(derandomize=True, deadline=None)
    @given(matrices_near_prime())
    def test_against_fraction_oracle_near_prime(self, M):
        assert rank(M) == fraction_rank(M)

    @settings(derandomize=True, deadline=None)
    @given(sparse_matrices())
    def test_reversed_rows_keep_rank(self, M):
        assert rank(reversed_rows(M)) == rank(M) == fraction_rank(M)

    def test_failing_wlp_degree(self):
        # degree 4k of x^3k, y^3k, z^3k, x^k y^k z^k is singular; at k = 5 its
        # rank is recomputed modulo 2^127 - 1
        Z = biadjacency(build_region(parse_ideal("x^15, y^15, z^15, x^5y^5z^5"), 20))
        assert (Z.rows, Z.cols) == (150, 150)
        assert _exact_prime(Z.row_entries) == (1 << 127) - 1
        assert rank(Z) == fraction_rank(Z) == 149


class TestPermanent:
    def test_small_values(self):
        assert permanent(IntegerMatrix.from_rows([[1, 1], [1, 1]])) == 2
        Z = biadjacency(build_region(parse_ideal("x^2, y^2, z^2"), 3))
        assert permanent(Z) == 2

    def test_zero_row(self):
        assert permanent(IntegerMatrix.from_rows([[0, 0], [1, 1]])) == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            permanent(IntegerMatrix.from_rows([[1, 1, 0]]))

    def test_against_permutation_oracle(self):
        # 0/1 draws match the oracle; any other entry is rejected
        rng = random.Random(73)
        for _ in range(60):
            n = rng.randint(0, 6)
            M = random_matrix(rng, n, n, lo=-2, hi=3)
            if all(v in (0, 1) for row in M.entries for v in row):
                assert permanent(M) == permutation_permanent(M)
            else:
                with pytest.raises(ValueError, match="0/1"):
                    permanent(M)

    @settings(derandomize=True, deadline=None)
    @given(zero_one_matrices())
    def test_zero_one_matches_permutation_oracle(self, M):
        assert permanent(M) == permutation_permanent(M)

    @pytest.mark.parametrize(
        "M",
        [
            IntegerMatrix.from_rows([[2]]),
            IntegerMatrix.from_rows([[1, -1], [1, 1]]),
            random_matrix(random.Random(83), 25, 25, lo=2, hi=5),
        ],
        ids=["two", "signed", "order25"],
    )
    def test_non_zero_one_rejected(self, M):
        with pytest.raises(ValueError, match="0/1"):
            permanent(M)

    def test_only_biadjacency_output_counts_as_a_region(self):
        # biadjacency's own matrix counts the tilings; every matrix made
        # from it, an unchanged copy included, gets the counter's answer,
        # and the recorded region is not a field
        def counter(M):
            return _count_perfect_matchings([tuple(j for j, _ in row) for row in M.row_entries]).count

        rng = random.Random(113)
        counted = 0
        for _ in range(80):
            region = build_region(*random_artinian_ideal(rng))
            Z = biadjacency(region)
            copy = replace(Z)
            plain = IntegerMatrix(Z.rows, Z.cols, Z.row_entries, Z.row_labels, Z.col_labels)
            for M in (copy, plain):
                assert M == Z and hash(M) == hash(Z) and repr(M) == repr(Z)
            if not Z.is_square() or not Z.col_labels or not Z.row_labels:
                continue
            tilings = enumerate_tilings(region)
            assert tilings.exact
            assert permanent(Z) == tilings.count
            rows, downs, ups = Z.row_entries, Z.row_labels, Z.col_labels
            variants = [
                copy,
                replace(Z, row_entries=rows[1:] + rows[:1]),
                replace(Z, row_entries=(rows[0][1:],) + rows[1:]),
                replace(Z, row_labels=downs[1:] + downs[:1], row_entries=rows[1:] + rows[:1]),
                replace(Z, row_labels=tuple(times(m, X) for m in downs)),
                replace(Z, col_labels=ups[-1:] + ups[:-1]),
                replace(Z, row_labels=downs[:1] * len(downs)),
            ]
            for M in variants:
                assert permanent(M) == counter(M)
            counted += 1
        assert counted > 0

    def test_determinant_bounded_by_permanent(self):
        rng = random.Random(89)
        for _ in range(40):
            n = rng.randint(1, 6)
            M = random_matrix(rng, n, n, lo=0, hi=1)
            assert abs(determinant(M)) <= permanent(M)


class TestSerialization:
    def test_json_includes_labels(self):
        Z = biadjacency(build_region(parse_ideal("x^2, y^2, z^2"), 3))
        payload = matrix_json(Z)
        assert payload["rows"] == 3
        assert payload["row_labels"] == ["x", "y", "z"]
        assert payload["entries"][0] == [1, 1, 0]

    def test_json_pinned(self):
        Z = biadjacency(build_region(parse_ideal("x^2, y^2, z^3"), 3))
        assert matrix_json(Z) == {
            "rows": 3,
            "cols": 4,
            "entries": [[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 1]],
            "row_labels": ["x", "y", "z"],
            "col_labels": ["x*y", "x*z", "y*z", "z^2"],
        }

    def test_json_keeps_empty_labels(self):
        # the d = 1 region of x^2, y^2, z^2 has no down labels and one up label
        Z = biadjacency(build_region(parse_ideal("x^2, y^2, z^2"), 1))
        payload = matrix_json(Z)
        assert (payload["rows"], payload["cols"]) == (0, 1)
        assert payload["row_labels"] == []
        assert payload["col_labels"] == ["1"]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            IntegerMatrix(2, 2, ((1, 0),))


class TestSparseRows:
    def test_column_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            IntegerMatrix(1, 2, (((2, 1),),))
        with pytest.raises(ValueError, match="out of range"):
            IntegerMatrix(1, 2, (((-1, 1),),))

    def test_column_out_of_order_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            IntegerMatrix(1, 3, (((2, 1), (0, 1)),))

    def test_repeated_column_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            IntegerMatrix(1, 3, (((1, 1), (1, 2)),))

    def test_stored_zero_rejected(self):
        with pytest.raises(ValueError, match="stored zero"):
            IntegerMatrix(2, 2, ((), ((0, 1), (1, 0))))

    def test_ragged_grid_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            IntegerMatrix.from_rows([[1, 0], [1]])

    @settings(derandomize=True, deadline=None)
    @given(matrices_near_prime())
    def test_dense_round_trip(self, M):
        # a grid without rows cannot carry its width, so it comes back 0x0
        back = IntegerMatrix.from_rows(M.entries)
        assert back == (M if M.rows else IntegerMatrix(0, 0, ()))

    def test_biadjacency_round_trip(self):
        Z = biadjacency(build_region(parse_ideal("x^6, y^7, z^8, xy^5z, xy^2z^3, x^3y^2z"), 8))
        assert IntegerMatrix.from_rows(Z.entries) == replace(Z, row_labels=None, col_labels=None)
