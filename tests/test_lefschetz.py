"""Weak Lefschetz decisions: per-degree ranks, full scans, truncation."""

from __future__ import annotations

import random
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triregion import (
    Balance,
    DegreeRecord,
    Monomial,
    MonomialIdeal,
    NotArtinianError,
    biadjacency,
    build_region,
    convenient_family,
    determinant,
    find_tiling,
    has_wlp,
    parse_ideal,
    triangle_counts,
    truncate,
    wlp_in_degree,
)
from triregion import lefschetz, monomials
from triregion.lefschetz import _RANK_PRIME
from triregion.matrices import _exact_prime, _prime_above, rank
from conftest import fraction_rank, modular_rank, random_artinian_ideal


class TestWlpInDegree:
    def test_hexagon_degree(self):
        record = wlp_in_degree(parse_ideal("x^2, y^2, z^2"), 3)
        assert (record.rows, record.cols, record.rank, record.maximal) == (3, 3, 3, True)

    def test_degree_one_vacuous(self):
        record = wlp_in_degree(parse_ideal("x^3, y^2, z^5"), 1)
        assert record.rows == 0 and record.cols == 1
        assert record.maximal

    def test_non_artinian_rejected(self):
        with pytest.raises(NotArtinianError):
            wlp_in_degree(parse_ideal("xy, y^2, z^3"), 3)


class TestHasWlp:
    def test_positive_reference(self):
        report = has_wlp(parse_ideal("x^7, x^5yz, xy^3z^3, y^7, z^8"))
        assert report.verdict
        assert report.failing_degree is None

    def test_negative_references(self):
        for text in (
            "x^6, y^7, z^8, xy^5z, xy^2z^3, x^3y^2z",
            "x^6, y^7, z^7, xy^4z^2, xy^2z^4, x^2y^2z^2",
        ):
            report = has_wlp(parse_ideal(text))
            assert not report.verdict
            assert report.failing_degree == 8

    def test_maximal_ideal(self):
        report = has_wlp(parse_ideal("x, y, z"))
        assert report.verdict

    def test_classic_failure(self):
        report = has_wlp(parse_ideal("x^3, y^3, z^3, xyz"))
        assert not report.verdict
        assert report.failing_degree == 4

    def test_wide_prime_failing_degree(self):
        # the singular 486 x 486 degree-36 map needs the 2^521 - 1 rank pass,
        # both on the line and on its bi-adjacency rows
        ideal = parse_ideal("x^27, y^27, z^27, x^9y^9z^9")
        report = has_wlp(ideal)
        assert report.failing_degree == 36
        record = report.records[-1]
        assert (record.d, record.rows, record.cols, record.rank) == (36, 486, 486, 485)
        assert _prime_above(3 ** 486) == (1 << 521) - 1
        assert _exact_prime(biadjacency(build_region(ideal, 36)).row_entries) == (1 << 521) - 1

    def test_exact_prime_reaches_degree_cap(self):
        # a side d <= DEGREE_CAP has rows = h(d-2) <= d(d-1)/2, and its
        # exact pass needs a prime above 3^rows
        cap = monomials.DEGREE_CAP
        assert _prime_above(3 ** (cap * (cap - 1) // 2)) == (1 << 110503) - 1

    def test_short_circuit_keeps_records(self):
        report = has_wlp(parse_ideal("x^6, y^7, z^8, xy^5z, xy^2z^3, x^3y^2z"))
        assert [r.d for r in report.records] == list(range(1, 9))
        assert report.scanned_through == 8
        assert not report.records[-1].maximal
        assert all(r.maximal for r in report.records[:-1])

    def test_report_json(self):
        payload = has_wlp(parse_ideal("x^2, y^2, z^2")).to_json()
        assert payload["verdict"] is True
        assert payload["failing_degree"] is None
        assert payload["records"][2] == {
            "d": 3, "rows": 3, "cols": 3, "rank": 3, "maximal": True,
        }

    def test_non_artinian_rejected(self):
        with pytest.raises(NotArtinianError):
            has_wlp(parse_ideal("xy, y^2, z^3"))

    def test_square_degree_maximal_iff_nonsingular(self):
        rng = random.Random(139)
        seen = 0
        for _ in range(60):
            ideal, d = random_artinian_ideal(rng)
            region = build_region(ideal, d)
            if triangle_counts(region)[2] is not Balance.BALANCED:
                continue
            Z = biadjacency(region)
            if Z.rows == 0:
                continue
            record = wlp_in_degree(ideal, d)
            assert record.maximal == (determinant(Z) != 0)
            seen += 1
        assert seen >= 10

    def test_variable_permutation_invariance(self):
        rng = random.Random(113)
        for _ in range(10):
            ideal, _ = random_artinian_ideal(rng)
            base = has_wlp(ideal).verdict
            for perm in ((1, 2, 0), (0, 2, 1)):
                permuted = MonomialIdeal.from_generators(
                    Monomial(*(g.exponents()[p] for p in perm))
                    for g in ideal.generators
                )
                assert has_wlp(permuted).verdict == base


def spy_on_sides(monkeypatch):
    """Lists that collect ``(d, rows, cols)`` of every side ``has_wlp`` or
    ``wlp_in_degree`` ranks, and d of every side ranked again, exactly, on
    the line modulo a prime other than the certificate's."""
    ranked, exact = [], []
    side, line_rank = lefschetz._side, lefschetz._line_rank

    def spied_side(ideal, d, rows, cols, forms, p):
        ranked.append((d, rows, cols))
        return side(ideal, d, rows, cols, forms, p)

    def spied_line_rank(forms, t, p):
        if p != lefschetz._RANK_PRIME:
            exact.append(t + 1)
        return line_rank(forms, t, p)

    monkeypatch.setattr(lefschetz, "_side", spied_side)
    monkeypatch.setattr(lefschetz, "_line_rank", spied_line_rank)
    return ranked, exact


def region_record(ideal, d):
    """The side-d record by the region route: a region of labels, its
    bi-adjacency matrix and the public ``rank``."""
    Z = biadjacency(build_region(ideal, d))
    r = rank(Z)
    return DegreeRecord(d=d, rows=Z.rows, cols=Z.cols, rank=r, maximal=r == min(Z.rows, Z.cols))


def degreewise_records(ideal, scanned_through):
    return tuple(region_record(ideal, d) for d in range(1, scanned_through + 1))


def degrees_past_surjective(report):
    first = next((r.d for r in report.records if r.rank == r.cols), report.scanned_through)
    return report.scanned_through - first


def degrees_in_injective_prefix(ideal, report):
    """Sides d where some variable divides no generator of degree below d."""
    return sum(
        1 for r in report.records
        if any(all(g.exponents()[v] == 0 for g in ideal.generators if g.degree() < r.d)
               for v in range(3))
    )


@st.composite
def scan_ideals(draw):
    """Small Artinian ideals: pure powers only, pure powers plus generators
    free of one variable (which then appears only in its pure power), or
    pure powers plus arbitrary generators."""
    powers = [draw(st.integers(1, 7)) for _ in range(3)]
    gens = [Monomial(powers[0], 0, 0), Monomial(0, powers[1], 0), Monomial(0, 0, powers[2])]
    kind = draw(st.sampled_from(("pure", "lonely", "mixed")))
    if kind != "pure":
        lonely = draw(st.integers(0, 2)) if kind == "lonely" else None
        for exps in draw(st.lists(st.tuples(*[st.integers(0, 5)] * 3), max_size=4)):
            gens.append(Monomial(*(0 if v == lonely else e for v, e in enumerate(exps))))
    return MonomialIdeal.from_generators(gens)


@st.composite
def scan_sides(draw):
    """A ``scan_ideals`` ideal and a side d from 1 to n + 3, where the
    quotient vanishes in degree n = ``_quotient_degree()``: the last sides
    have no up labels."""
    ideal = draw(scan_ideals())
    return ideal, draw(st.integers(1, ideal._quotient_degree() + 3))


class TestStaircaseRecords:
    """``wlp_in_degree`` reads its rows off the ideal's staircase; every
    record must equal the region route's."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(scan_sides())
    # singular, 486 x 486: the rank needs the 2^521 - 1 pass
    @example((parse_ideal("x^27, y^27, z^27, x^9y^9z^9"), 36))
    @example((parse_ideal("x^3, y^2, z^5"), 1))
    @example((parse_ideal("x^3, y^2, z^5"), 2))
    @example((parse_ideal("x, y, z"), 1))
    @example((parse_ideal("x, y, z"), 2))
    def test_random_sides(self, drawn):
        ideal, d = drawn
        assert wlp_in_degree(ideal, d) == region_record(ideal, d)

    def test_degree_cap_checked(self, monkeypatch):
        monkeypatch.setattr(monomials, "DEGREE_CAP", 20)
        with pytest.raises(ValueError, match="degree 21 exceeds the safety cap 20"):
            wlp_in_degree(parse_ideal("x^30, y^30, z^30"), 21)


class TestRecordsPastSurjectivity:
    """``has_wlp`` fills in the records of the injective prefix and of the
    degrees after the first surjective one without computing ranks; they
    must equal the degreewise records."""

    def test_corpus(self, corpus):
        skipped = prefix = 0
        for ideal, _ in corpus:
            report = has_wlp(ideal)
            assert report.records == degreewise_records(ideal, report.scanned_through)
            skipped += degrees_past_surjective(report)
            prefix += degrees_in_injective_prefix(ideal, report)
        assert skipped >= 500
        assert prefix >= 2000

    @pytest.mark.parametrize("t, d", [(t, d) for t in (4, 6, 8) for d in (13, 17, 21, 25)])
    def test_convenient_family(self, t, d):
        ideal = convenient_family(t, d)
        report = has_wlp(ideal)
        assert report.verdict
        assert degrees_past_surjective(report) >= 10
        assert degrees_in_injective_prefix(ideal, report) == d - 2
        assert report.records == degreewise_records(ideal, report.scanned_through)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(scan_ideals())
    @example(parse_ideal("x^7, y^7, z^7"))
    @example(parse_ideal("x^3, y^3, z^3, xy"))
    @example(parse_ideal("x, y, z"))
    def test_random_ideals(self, ideal):
        report = has_wlp(ideal)
        assert report.records == degreewise_records(ideal, report.scanned_through)

    def test_ranks_only_between_prefix_and_suffix(self, monkeypatch):
        # e_x = 12 and e_y = e_z = 23, so sides 1-23 are injective; the map
        # first becomes surjective at side 25, so only sides 24 and 25 need
        # a rank, and the line certifies both
        ranked, exact = spy_on_sides(monkeypatch)
        report = has_wlp(convenient_family(8, 25))
        assert report.verdict and report.scanned_through == 48
        assert len(ranked) == 2
        assert ranked == [
            (r.d, r.rows, r.cols) for r in report.records if r.d in (24, 25)
        ]
        assert exact == []
        # the singular 486 x 486 side 36 is the one side the line leaves open
        assert has_wlp(parse_ideal("x^27, y^27, z^27, x^9y^9z^9")).failing_degree == 36
        assert exact == [36]

    def test_degree_cap_checked_on_every_side(self, monkeypatch):
        # every side up to 30 lies in the injective prefix, and none of them
        # builds a region, yet side 21 must still hit the cap
        monkeypatch.setattr(monomials, "DEGREE_CAP", 20)
        with pytest.raises(ValueError, match="degree 21 exceeds the safety cap 20"):
            has_wlp(parse_ideal("x^30, y^30, z^30"))

    def test_generators_past_every_side_not_restricted(self, monkeypatch):
        # z^3000 lies beyond the cap, so no side can use its 3001 binomials
        computed = []

        def spied_comb(n, k):
            computed.append(n)
            return comb(n, k)

        monkeypatch.setattr(lefschetz, "comb", spied_comb)
        with pytest.raises(ValueError, match="degree 513 exceeds the safety cap 512"):
            has_wlp(parse_ideal("x^2, y^2, z^3000"))
        assert 3000 not in computed


class TestDisjointPuncturesSquareIdeal:
    """Diagnostics for (x^7, x^4y^2z^2, xy^3z^3, y^7, z^7).

    Every multiplication map of this quotient has maximal rank, verified
    here against an independent Fraction-elimination oracle, so the
    quotient does have the weak Lefschetz property; the degree-9 matrix is
    square with determinant 196 (220 tilings, 12 of negative sign).  Since
    196 = 2^2 * 7^2, the property fails in characteristics 2 and 7;
    acceptance criterion 1 checks those modular ranks.
    """

    IDEAL = "x^7, x^4y^2z^2, xy^3z^3, y^7, z^7"

    def test_degree_nine_determinant(self):
        Z = biadjacency(build_region(parse_ideal(self.IDEAL), 9))
        assert (Z.rows, Z.cols) == (32, 32)
        assert determinant(Z) == 196

    def test_all_degrees_maximal_with_oracle(self):
        ideal = parse_ideal(self.IDEAL)
        report = has_wlp(ideal)
        assert report.verdict
        for record in report.records:
            Z = biadjacency(build_region(ideal, record.d))
            assert fraction_rank(Z) == record.rank == min(Z.rows, Z.cols)

    @pytest.mark.parametrize("prime, line_rank", [(7, 30), (2, 31)])
    def test_weak_certificate_ranked_exactly(self, monkeypatch, prime, line_rank):
        # modulo a prime dividing the determinant the line ranks side 9
        # short, so the verdict must come from the exact pass modulo 2^61 - 1
        ideal = parse_ideal(self.IDEAL)
        expected = has_wlp(ideal)
        Z = biadjacency(build_region(ideal, 9))
        forms = lefschetz._restricted(ideal, prime, 8)
        assert Z.cols - 9 + lefschetz._line_rank(forms, 8, prime) == line_rank
        assert modular_rank(Z.entries, prime) == line_rank
        monkeypatch.setattr(lefschetz, "_RANK_PRIME", prime)
        _, exact = spy_on_sides(monkeypatch)
        report = has_wlp(ideal)
        assert report.verdict
        assert [(r.d, r.rank) for r in report.records if r.d == 9] == [(9, 32)]
        assert report == expected
        assert 9 in exact
        assert wlp_in_degree(ideal, 9) == expected.records[8]


PRIMES = (_RANK_PRIME, 2, 3, 7)


def assert_line_identity(ideal):
    """rank of the side-d bi-adjacency matrix = h(t) - (t+1) + rank J_t
    over GF(p), with t = d-1 and J_t spanned on the line x+y+z = 0, for
    every side through the quotient degree + 1 and every prime of PRIMES.
    Returns the number of (side, prime) cases checked and of those where
    the rank is not maximal."""
    cases = short = 0
    for d in range(1, ideal._quotient_degree() + 2):
        Z = biadjacency(build_region(ideal, d))
        for p in PRIMES:
            line = lefschetz._line_rank(lefschetz._restricted(ideal, p, d - 1), d - 1, p)
            r = modular_rank(Z.entries, p)
            assert Z.cols - d + line == r, (str(ideal), d, p)
            cases += 1
            short += r < min(Z.rows, Z.cols)
    return cases, short


class TestLineIdentity:
    """The cokernel of x+y+z into degree t is (K[x,y]/J)_t over every field,
    so the line's rank mod p gives the bi-adjacency rank mod p exactly."""

    def test_corpus(self, corpus):
        cases, short = map(sum, zip(*(assert_line_identity(ideal) for ideal, _ in corpus)))
        assert cases == 16580
        assert short == 117

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(scan_ideals())
    @example(parse_ideal("x^7, x^4y^2z^2, xy^3z^3, y^7, z^7"))
    @example(parse_ideal("x^3, y^3, z^3, xyz"))
    @example(parse_ideal("1"))
    def test_random_ideals(self, ideal):
        assert_line_identity(ideal)


class TestTruncate:
    def test_absorbs_existing_powers(self):
        assert truncate(parse_ideal("xy, y^2, z^3"), 4) == parse_ideal("xy, y^2, z^3, x^4")

    def test_untouched_when_powers_present(self):
        ideal = parse_ideal("x^2, y^3, z^3, xyz")
        assert truncate(ideal, 4) == ideal

    def test_zero_ideal(self):
        assert truncate(MonomialIdeal(()), 3) == parse_ideal("x^3, y^3, z^3")

    def test_always_artinian(self):
        rng = random.Random(127)
        for _ in range(20):
            gens = [
                Monomial(rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4))
                for _ in range(rng.randint(0, 3))
            ]
            assert truncate(MonomialIdeal.from_generators(gens), rng.randint(1, 6)).is_artinian()

    def test_balanced_non_tileable_truncation_fails_wlp(self):
        # perfectly punctured configurations with pairwise non-overlapping
        # punctures are balanced; keep the ones the matcher cannot tile
        rng = random.Random(131)
        seen = 0
        for _ in range(400):
            d = rng.randint(6, 9)
            sides = []
            left = d
            while left > 0:
                s = rng.randint(1, min(3, left))
                sides.append(s)
                left -= s
            gens = []
            for s in sides:
                degree = d - s
                a = rng.randint(0, degree)
                b = rng.randint(0, degree - a)
                gens.append(Monomial(a, b, degree - a - b))
            ideal = MonomialIdeal.from_generators(gens)
            if len(ideal.generators) != len(sides):
                continue
            if any(
                g.lcm(h).degree() < d
                for i, g in enumerate(ideal.generators)
                for h in ideal.generators[i + 1:]
            ):
                continue
            region = build_region(ideal, d)
            assert triangle_counts(region)[2] is Balance.BALANCED
            if find_tiling(region) is not None:
                continue
            report = has_wlp(truncate(ideal, d))
            assert not report.verdict
            assert report.failing_degree <= d
            seen += 1
        assert seen >= 5
