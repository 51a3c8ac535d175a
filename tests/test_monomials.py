"""Monomial arithmetic, parsing, ideals, Hilbert functions, socles."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import triregion.monomials
from triregion.monomials import _texts
from triregion import (
    IdealSyntaxError,
    Monomial,
    MonomialIdeal,
    NotArtinianError,
    ONE,
    monomials_of_degree,
    parse_ideal,
    revlex_key,
)
from conftest import artinian_ideals, socle_by_scan, standard_by_scan


def m(a, b, c):
    return Monomial(a, b, c)


class TestMonomial:
    def test_degree(self):
        assert m(6, 2, 3).degree() == 11
        assert ONE.degree() == 0
        assert m(12, 0, 0).degree() == 12

    def test_divides(self):
        assert m(1, 2, 1).divides(m(1, 5, 1))
        assert m(1, 2, 1).divides(m(1, 2, 1))
        assert not m(1, 0, 0).divides(m(0, 1, 0))

    def test_lcm(self):
        assert m(4, 2, 2).lcm(m(1, 3, 3)) == m(4, 3, 3)
        assert m(4, 3, 3).degree() == 10
        assert m(2, 3, 1).lcm(m(2, 3, 1)) == m(2, 3, 1)
        assert m(7, 0, 0).lcm(m(5, 1, 1)) == m(7, 1, 1)

    def test_divide_by(self):
        assert m(3, 2, 1).divide_by(m(1, 2, 0)) == m(2, 0, 1)
        with pytest.raises(ValueError):
            m(1, 0, 0).divide_by(m(0, 1, 0))

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            Monomial(-1, 0, 0)

    def test_pure_power(self):
        assert m(5, 0, 0).is_pure_power()
        assert ONE.is_pure_power()
        assert not m(1, 1, 0).is_pure_power()

    def test_str(self):
        assert str(m(2, 1, 0)) == "x^2*y"
        assert str(ONE) == "1"
        assert str(m(1, 5, 1)) == "x*y^5*z"

    @staticmethod
    def old_str(mono):
        """The formatting ``Monomial.__str__`` had before its factor strings."""
        parts = [
            v if e == 1 else f"{v}^{e}"
            for v, e in zip("xyz", (mono.a, mono.b, mono.c))
            if e > 0
        ]
        return "*".join(parts) if parts else "1"

    def test_str_matches_old_formatting(self):
        every = [mono for j in range(11) for mono in monomials_of_degree(j)]
        texts = [self.old_str(mono) for mono in every]
        assert [str(mono) for mono in every] == texts
        assert _texts(every, 10) == texts
        assert _texts(reversed(every), 12) == texts[::-1]
        assert str(m(1000, 0, 7)) == self.old_str(m(1000, 0, 7)) == "x^1000*z^7"

    def test_str_parse_round_trip(self):
        for j in range(11):
            for mono in monomials_of_degree(j):
                assert parse_ideal(str(mono)).generators == (mono,)


class TestRevlexOrder:
    def test_degree_two_order(self):
        assert monomials_of_degree(2) == (
            m(2, 0, 0), m(1, 1, 0), m(0, 2, 0), m(1, 0, 1), m(0, 1, 1), m(0, 0, 2),
        )

    def test_key_sorts_any_degrees(self):
        ms = [m(0, 0, 8), m(1, 5, 1), m(6, 0, 0), m(3, 2, 1)]
        assert sorted(ms, key=revlex_key) == [m(6, 0, 0), m(3, 2, 1), m(1, 5, 1), m(0, 0, 8)]

    def test_counts(self):
        assert len(monomials_of_degree(7)) == 36
        assert monomials_of_degree(-1) == ()


class TestParse:
    def test_reference_ideal(self):
        ideal = parse_ideal("x^6, y^7, z^8, x*y^5*z")
        assert set(ideal.generators) == {m(6, 0, 0), m(0, 7, 0), m(0, 0, 8), m(1, 5, 1)}

    def test_minimalizes(self):
        assert parse_ideal("x, x^2").generators == (m(1, 0, 0),)

    def test_single_generator(self):
        assert parse_ideal("x^3y^2z^6").generators == (m(3, 2, 6),)

    def test_whitespace_and_stars(self):
        assert parse_ideal(" x y^5  z , y^7 ") == parse_ideal("x*y^5*z,y^7")

    def test_unit(self):
        assert parse_ideal("1").is_unit()
        assert parse_ideal("1, x^2").is_unit()

    def test_syntax_error_position(self):
        with pytest.raises(IdealSyntaxError) as exc:
            parse_ideal("x^2, w^3")
        assert exc.value.position == 5

    def test_repeated_variable(self):
        with pytest.raises(IdealSyntaxError, match="repeated"):
            parse_ideal("x*x")

    def test_missing_exponent(self):
        with pytest.raises(IdealSyntaxError):
            parse_ideal("x^")

    def test_empty(self):
        with pytest.raises(IdealSyntaxError):
            parse_ideal("   ")

    def test_roundtrip_canonical_form(self):
        ideal = parse_ideal("x^6, y^7, z^8, x*y^5*z, x*y^2*z^3, x^3*y^2*z")
        assert parse_ideal(str(ideal)) == ideal

    # the zero ideal prints as "0", the one printed form that is not a list of terms
    @settings(derandomize=True, deadline=None)
    @given(
        st.lists(st.tuples(*[st.integers(0, 6)] * 3), max_size=8).map(
            lambda exps: MonomialIdeal.from_generators(Monomial(*e) for e in exps)
        )
    )
    @example(MonomialIdeal(()))
    def test_roundtrip_property(self, ideal):
        assert parse_ideal(str(ideal)) == ideal


class TestIdeal:
    def test_minimal_generators_drop_multiples(self):
        ideal = MonomialIdeal.from_generators([m(2, 0, 0), m(2, 1, 0), m(0, 3, 0)])
        assert ideal.generators == (m(2, 0, 0), m(0, 3, 0))

    def test_zero_ideal(self):
        assert MonomialIdeal.from_generators([]).is_zero()
        assert str(MonomialIdeal.from_generators([])) == "0"

    def test_already_minimal_untouched(self):
        gens = {m(1, 1, 0), m(0, 2, 0), m(0, 0, 3)}
        assert set(MonomialIdeal.from_generators(gens).generators) == gens

    def test_idempotent_and_order_insensitive(self):
        rng = random.Random(7)
        for _ in range(50):
            gens = [
                m(rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4))
                for _ in range(rng.randint(1, 6))
            ]
            ideal = MonomialIdeal.from_generators(gens)
            rng.shuffle(gens)
            assert MonomialIdeal.from_generators(gens) == ideal
            assert MonomialIdeal.from_generators(ideal.generators) == ideal

    def test_raw_constructor_validates(self):
        with pytest.raises(ValueError):
            MonomialIdeal((m(1, 0, 0), m(2, 0, 0)))

    def test_contains(self):
        ideal = parse_ideal("xy, y^2, z^3")
        assert ideal.contains(m(2, 1, 0))
        assert not ideal.contains(m(1, 0, 2))
        assert not ideal.contains(ONE)
        assert parse_ideal("1").contains(ONE)

    def test_is_artinian(self):
        assert parse_ideal("x^2, y^3, z^4").is_artinian()
        assert not parse_ideal("xy, y^2, z^3").is_artinian()
        intro = parse_ideal(
            "x^12, x^6y^2z^3, x^3y^2z^7, xy^7z^3, xy^5z^5, xyz^9, y^12, z^12"
        )
        assert intro.is_artinian()

    def test_colon(self):
        ideal = parse_ideal("xy, y^2, z^3")
        assert ideal.colon(m(0, 1, 0)) == parse_ideal("x, y, z^3")
        assert ideal.colon(ONE) == ideal

    def test_colon_of_touching_ideal(self):
        ideal = parse_ideal("x^6, y^7, z^8, xy^5z, xy^2z^3, x^3y^2z")
        assert ideal.colon(m(1, 2, 1)) == parse_ideal("x^2, y^3, z^2")

    def test_colon_membership_property(self):
        rng = random.Random(11)
        for _ in range(100):
            ideal = MonomialIdeal.from_generators(
                m(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
                for _ in range(rng.randint(1, 4))
            )
            q = m(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
            n = m(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
            assert ideal.colon(q).contains(n) == ideal.contains(q * n)


class TestHilbert:
    def test_reference_values(self):
        assert parse_ideal("x^2, y^2, z^2").hilbert_function(2) == 3
        assert parse_ideal("xy, y^2, z^3").hilbert_function(3) == 4
        assert parse_ideal("x^5, y^2, z^3").hilbert_function(0) == 1
        assert parse_ideal("x^2, y^2, z^2").hilbert_function(-1) == 0

    def test_matches_standard_monomial_count(self):
        rng = random.Random(13)
        for _ in range(30):
            ideal = MonomialIdeal.from_generators(
                m(rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4))
                for _ in range(rng.randint(0, 4))
            )
            for j in range(8):
                assert ideal.hilbert_function(j) == len(ideal.standard_monomials(j))

    def test_membership_matches_standard_lists(self):
        rng = random.Random(19)
        for _ in range(30):
            ideal = MonomialIdeal.from_generators(
                m(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
                for _ in range(rng.randint(0, 4))
            )
            for j in range(6):
                survivors = set(ideal.standard_monomials(j))
                for mono in monomials_of_degree(j):
                    assert ideal.contains(mono) == (mono not in survivors)

    def test_artinian_vanishes(self):
        ideal = parse_ideal("x^3, y^4, z^2, xy^2z")
        bound = sum(g.degree() for g in ideal.generators)
        assert any(ideal.hilbert_function(j) == 0 for j in range(bound + 1))

    def test_standard_monomials_order(self):
        ideal = parse_ideal("xy, y^2, z^3")
        assert ideal.standard_monomials(2) == [m(2, 0, 0), m(1, 0, 1), m(0, 1, 1), m(0, 0, 2)]
        assert MonomialIdeal.from_generators([]).standard_monomials(1) == [
            m(1, 0, 0), m(0, 1, 0), m(0, 0, 1),
        ]
        assert parse_ideal("x, y, z").standard_monomials(1) == []

    def test_degree_cap(self, monkeypatch):
        monkeypatch.setattr(triregion.monomials, "DEGREE_CAP", 10)
        ideal = parse_ideal("x^2, y^2, z^2")
        with pytest.raises(ValueError, match="cap"):
            ideal.hilbert_function(11)
        with pytest.raises(ValueError, match="cap"):
            ideal.standard_monomials(11)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        st.lists(st.tuples(*[st.integers(0, 35)] * 3), max_size=8).map(
            lambda exps: MonomialIdeal.from_generators(m(*e) for e in exps)
        ),
        st.integers(0, 30),
    )
    @example(MonomialIdeal(()), 0)
    @example(MonomialIdeal((ONE,)), 0)
    @example(parse_ideal("x^2, y^2, z^2"), -1)
    @example(parse_ideal("xy, y^2, z^3"), triregion.monomials.DEGREE_CAP + 1)
    def test_staircase_matches_contains_scan(self, ideal, j):
        # zero, unit and non-Artinian ideals and generators above degree j
        # all go through the staircase; the scan tests every generator
        if j < 0:
            assert ideal.hilbert_function(j) == 0
            with pytest.raises(ValueError, match="nonnegative"):
                ideal.standard_monomials(j)
        elif j > triregion.monomials.DEGREE_CAP:
            with pytest.raises(ValueError, match="cap"):
                ideal.hilbert_function(j)
            with pytest.raises(ValueError, match="cap"):
                ideal.standard_monomials(j)
        else:
            scan = [mono for mono in monomials_of_degree(j) if not ideal.contains(mono)]
            assert ideal.standard_monomials(j) == scan
            assert ideal.hilbert_function(j) == len(scan)


    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        st.one_of(
            st.lists(st.tuples(*[st.integers(0, 12)] * 3), max_size=8).map(
                lambda exps: MonomialIdeal.from_generators(m(*e) for e in exps)
            ),
            artinian_ideals().map(lambda drawn: drawn[0]),
        ),
        st.integers(0, 60),
    )
    @example(MonomialIdeal(()), 0)
    @example(MonomialIdeal((ONE,)), 3)
    @example(parse_ideal("x^12, y^12, z^12"), 40)
    def test_hilbert_values_match_hilbert_function(self, ideal, n):
        # n often lies past the socle of Artinian draws, whose values there are 0
        assert ideal._hilbert_values(n) == [len(standard_by_scan(ideal, j)) for j in range(n + 1)]

    def test_hilbert_values_vanish_past_socle(self, monkeypatch):
        ideal = parse_ideal("x^2, y^2, z^2")
        assert ideal._hilbert_values(6) == [1, 3, 3, 1, 0, 0, 0]
        monkeypatch.setattr(triregion.monomials, "DEGREE_CAP", 5)
        with pytest.raises(ValueError, match="cap"):
            ideal._hilbert_values(6)


class TestSocle:
    def test_complete_intersection(self):
        assert parse_ideal("x^2, y^2, z^2").socle_degrees() == [3]

    def test_maximal_ideal(self):
        assert parse_ideal("x, y, z").socle_degrees() == [0]

    def test_non_artinian_rejected(self):
        with pytest.raises(NotArtinianError):
            parse_ideal("xy, y^2, z^3").socle_degrees()

    def test_touching_punctures_ideal_socle_bound(self):
        ideal = parse_ideal("x^6, y^7, z^8, xy^5z, xy^2z^3, x^3y^2z")
        degrees = ideal.socle_degrees()
        assert degrees and min(degrees) >= 8

    def test_socle_annihilation_definition(self):
        rng = random.Random(17)
        for _ in range(20):
            gens = [m(rng.randint(1, 4), 0, 0), m(0, rng.randint(1, 4), 0), m(0, 0, rng.randint(1, 4))]
            for _ in range(rng.randint(0, 2)):
                gens.append(m(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)))
            ideal = MonomialIdeal.from_generators(gens)
            if ideal.is_unit():
                continue
            expected = []
            for j in range(13):
                for mono in ideal.standard_monomials(j):
                    if all(
                        ideal.contains(mono * v)
                        for v in (m(1, 0, 0), m(0, 1, 0), m(0, 0, 1))
                    ):
                        expected.append(j)
            assert ideal.socle_degrees() == expected

    def test_corpus_matches_contains_scan(self, corpus):
        for ideal, _ in corpus:
            assert ideal.socle_degrees() == socle_by_scan(ideal)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(artinian_ideals().map(lambda drawn: drawn[0]))
    @example(MonomialIdeal((ONE,)))
    @example(parse_ideal("x^5, y^3, z^4"))
    @example(parse_ideal("x, y^7, z^2"))
    @example(parse_ideal("x^4, x^2y^3, y^5, z^3"))
    @example(parse_ideal("x^6, x^3z, xz^3, y^4, z^5"))
    def test_staircase_corners_match_contains_scan(self, ideal):
        # the unit ideal, pure powers only, and z (or y) only in its pure power
        assert ideal.socle_degrees() == socle_by_scan(ideal)

    def test_degree_cap_at_top_degree(self, monkeypatch):
        # the cap binds the quotient's top degree, not the sum A+B+C
        monkeypatch.setattr(triregion.monomials, "DEGREE_CAP", 20)
        assert parse_ideal("x^10, y^10, z^2").socle_degrees() == [19]
        with pytest.raises(ValueError, match="exceeds the safety cap"):
            parse_ideal("x^10, y^10, z^3").socle_degrees()
