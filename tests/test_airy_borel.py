"""Borel transforms as exact expansions, checked against the Gauss series."""

from fractions import Fraction as Fr

import pytest

from exactwkb.airy_borel import (borel_series, borel_transform, exchange_symmetry_holds,
                                 hypergeometric_oracle)
from exactwkb.airy_wkb import wkb_coefficient_stream
from exactwkb.errors import PreconditionError
from exactwkb.series import PuiseuxSeries


def termwise_borel_series(stream):
    """d_n = c_n (4/3)^n / (1/2)_n, times (-1)^n for "-", one Fraction step
    per term, through the general series constructor: the transform's oracle."""
    terms = {}
    pochhammer = scale = Fr(1)
    for n, c_n in enumerate(stream.coeffs):
        if n > 0:
            pochhammer *= Fr(2 * n - 1, 2)
            scale *= Fr(4, 3)
        d_n = c_n * scale / pochhammer
        if stream.sign == "-":
            d_n *= (-1) ** n
        terms[Fr(2 * n - 1, 2)] = d_n
    var = "s" if stream.sign == "+" else "u"
    return PuiseuxSeries(var, terms, Fr(2 * len(stream.coeffs) - 1, 2))


class TestBorelTransform:
    def test_leading_exponent_is_minus_half(self):
        for sign in "+-":
            series = borel_series(6, sign).series
            assert series.valuation() == Fr(-1, 2)
            assert series.coeff(Fr(-1, 2)) == 1

    def test_first_tail_coefficient(self):
        assert borel_series(3, "+").coefficients(2)[1] == Fr(5, 18)

    def test_base_points_and_i_tag(self):
        plus = borel_series(3, "+")
        minus = borel_series(3, "-")
        assert plus.base_point == 0 and not plus.prefactor_i
        assert minus.base_point == 1 and minus.prefactor_i
        assert plus.series.variable == "s"
        assert minus.series.variable == "u"

    def test_coefficients_are_rational(self):
        for sign in "+-":
            for c in borel_transform(wkb_coefficient_stream(10, sign)).coefficients(11):
                assert isinstance(c, Fr)

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 24, 60, 120])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_integer_scaling_matches_the_termwise_fractions(self, order, sign):
        stream = wkb_coefficient_stream(order, sign)
        mine = borel_transform(stream)
        want = termwise_borel_series(stream)
        assert mine.series == want
        assert list(mine.series.terms) == list(want.terms)
        assert mine.series.truncation == Fr(2 * order + 1, 2)
        assert (mine.base_point, mine.prefactor_i) == ((0, False) if sign == "+" else (1, True))

    def test_a_coefficient_past_the_truncation_raises(self):
        series = borel_series(4, "+")
        assert series.coefficients(5) == hypergeometric_oracle("+", 5)
        assert series.coefficients(0) == []
        for count in (6, 8):
            with pytest.raises(PreconditionError,
                               match=r"d_%d lies at s\^\(%d/2\), past the series "
                                     r"truncation O\(s\^9/2\)" % (count - 1, 2 * count - 3)):
                series.coefficients(count)
        with pytest.raises(PreconditionError, match=r"O\(u\^1/2\)"):
            borel_series(0, "-").coefficients(2)


class TestHypergeometricOracle:
    def test_low_order_values(self):
        coeffs = hypergeometric_oracle("+", 3)
        assert coeffs == [Fr(1), Fr(5, 18), Fr(385, 1944)]

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_oracle_matches_transform_to_20(self, sign):
        mine = borel_series(20, sign).coefficients(21)
        assert mine == hypergeometric_oracle(sign, 21)

    def test_exchange_symmetry(self):
        assert exchange_symmetry_holds(12)
