"""Riccati recurrence, odd/even split, primitives and coefficient streams."""

from fractions import Fraction as Fr

import pytest

from exactwkb.airy_wkb import (X_VAR, check_even_is_log_derivative, closed_form_coefficients,
                               integrate_s_odd, riccati_recurrence, riccati_residual,
                               split_odd_even, wkb_coefficient_stream)
from exactwkb.errors import PreconditionError
from exactwkb.series import EtaExpansion, PuiseuxSeries


def fraction_route_stream(order, sign):
    """The stream as (1 + A)^(-1/2) exp(sign B), with A and B built from the
    Fraction coefficients of the Riccati solution and read back by exponent:
    a_(j+1) = c_j, b_j = c_j / (e_j + 1) for odd j, as the stream's oracle."""
    source = riccati_recurrence(max(order, 1), "+")
    trunc = Fr(order + 1)
    a_terms, b_terms = {}, {}
    for j in range(1, source.order + 1, 2):
        c = source.coefficient(j)
        if j + 1 <= order:
            a_terms[Fr(j + 1)] = c
        if j <= order:
            b_terms[Fr(j)] = c / (Fr(-(3 * j + 2), 2) + 1)
    one_plus_a = PuiseuxSeries.one("w", trunc) + PuiseuxSeries("w", a_terms, trunc)
    b_series = PuiseuxSeries("w", b_terms, trunc)
    phase = b_series if sign == "+" else -b_series
    stream = one_plus_a.inv_sqrt() * phase.exp()
    coeffs = []
    for n in range(order + 1):
        c = stream.coeff(Fr(n))
        assert c.is_rational()
        coeffs.append(c.a)
    return tuple(coeffs)


@pytest.fixture(scope="module")
def solution():
    return riccati_recurrence(12, "+")


class TestRecurrence:
    @pytest.mark.parametrize("j,coeff", [
        (-1, Fr(1)),
        (0, Fr(-1, 4)),
        (1, Fr(-5, 32)),
        (2, Fr(-15, 64)),
        (3, Fr(-1105, 2048)),
        (4, Fr(-1695, 1024)),   # recurrence output; matches the displayed magnitude
    ])
    def test_published_low_order_values(self, solution, j, coeff):
        assert solution.coefficient(j) == coeff

    def test_monomial_exponent_law(self, solution):
        for j in range(-1, solution.order + 1):
            term = solution.term(j)
            exponents = list(term.terms)
            assert exponents == [Fr(-(3 * j + 2), 2)]

    @pytest.mark.parametrize("order", [24, 40, 120])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_pair_convolution_matches_the_full_sum(self, order, sign):
        # the recurrence c_j = -(e_j c_j' + sum_{k=0}^{j} c_k c_{j-k}) / (2 c_-1)
        # on Fractions, with every pair of the convolution formed, as its
        # oracle; order 120 holds the scale 8^(j+1) of the integer recurrence
        # far past where a wrong power of 8 would stay hidden
        c = [Fr(1) if sign == "+" else Fr(-1)]
        for j in range(-1, order):
            full = sum((c[k + 1] * c[j - k + 1] for k in range(j + 1)), Fr(0))
            c.append(-(c[j + 1] * Fr(-(3 * j + 2), 2) + full) / (2 * c[0]))
        assert riccati_recurrence(order, sign).coeffs == tuple(c)

    def test_residual_vanishes_to_truncation(self, solution):
        residual = riccati_residual(solution)
        assert residual.is_zero()
        assert residual.truncation == solution.order - 1

    def test_minus_branch_parity(self, solution):
        minus = riccati_recurrence(12, "-")
        for j in range(-1, 13):
            assert minus.coefficient(j) == (-1) ** j * solution.coefficient(j)

    def test_weighted_homogeneity_of_exponents(self, solution):
        # (x, eta) -> (l^2 x, l^-3 eta) multiplies eta^-j x^e by l^(2e + 3j);
        # every term of S must scale like S itself, i.e. weight -2... +1 for
        # the eta-power bookkeeping handled per term below
        for j in range(-1, solution.order + 1):
            e = Fr(-(3 * j + 2), 2)
            assert 2 * e + 3 * j == -2


class TestSplitAndIntegrate:
    def test_split_reproduces_display(self, solution):
        s_odd, s_even = split_odd_even(solution)
        assert s_odd.coeff(-1).coeff(Fr(1, 2)) == 1
        assert s_odd.coeff(1).coeff(Fr(-5, 2)) == Fr(-5, 32)
        assert s_odd.coeff(3).coeff(Fr(-11, 2)) == Fr(-1105, 2048)
        assert s_even.coeff(0).coeff(-1) == Fr(-1, 4)
        assert s_even.coeff(2).coeff(-4) == Fr(-15, 64)

    @pytest.mark.parametrize("order", [2, 12, 24])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_even_part_is_log_derivative(self, order, sign):
        s_odd, s_even = split_odd_even(riccati_recurrence(order, sign))
        assert check_even_is_log_derivative(s_odd, s_even)

    @pytest.mark.parametrize("k", [0, 4, 12])
    def test_a_changed_even_coefficient_is_not_the_log_derivative(self, solution, k):
        s_odd, s_even = split_odd_even(solution)
        changed = dict(s_even.terms)
        changed[k] = s_even.coeff(k) + PuiseuxSeries.monomial(X_VAR, Fr(-(3 * k + 2), 2),
                                                              Fr(1, 1024))
        assert not check_even_is_log_derivative(s_odd, EtaExpansion(changed, s_even.truncation))

    @pytest.mark.parametrize("k", [0, 4, 12])
    def test_an_even_part_without_a_term_is_not_the_log_derivative(self, solution, k):
        s_odd, s_even = split_odd_even(solution)
        dropped = {j: s for j, s in s_even.terms.items() if j != k}
        assert not check_even_is_log_derivative(s_odd, EtaExpansion(dropped, s_even.truncation))

    def test_both_signs_share_the_split(self):
        plus = split_odd_even(riccati_recurrence(8, "+"))
        minus = split_odd_even(riccati_recurrence(8, "-"))
        assert plus[0].same_terms(minus[0])
        assert plus[1].same_terms(minus[1])

    def test_primitive_values(self, solution):
        prim = integrate_s_odd(split_odd_even(solution)[0])
        assert prim.coeff(-1).coeff(Fr(3, 2)) == Fr(2, 3)
        assert prim.coeff(1).coeff(Fr(-3, 2)) == Fr(5, 48)
        assert prim.coeff(3).coeff(Fr(-9, 2)) == Fr(1105, 9216)

    def test_split_needs_enough_order(self):
        with pytest.raises(PreconditionError):
            split_odd_even(riccati_recurrence(1))


class TestCoefficientStream:
    def test_normalization_and_first_values(self):
        stream = wkb_coefficient_stream(4, "+")
        assert stream.coeffs[0] == 1
        assert stream.coeffs[1] == Fr(5, 48)
        assert stream.coeffs[2] == Fr(385, 4608)

    def test_sign_parity(self):
        plus = wkb_coefficient_stream(15, "+")
        minus = wkb_coefficient_stream(15, "-")
        for n in range(16):
            assert minus.coeffs[n] == (-1) ** n * plus.coeffs[n]

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_two_derivations_agree_exactly(self, sign):
        stream = wkb_coefficient_stream(20, sign)
        closed = closed_form_coefficients(20, sign)
        assert list(stream.coeffs) == closed

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 24, 60, 120])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_integer_inputs_match_the_fraction_route(self, order, sign):
        stream = wkb_coefficient_stream(order, sign)
        assert stream.sign == sign
        assert stream.coeffs == fraction_route_stream(order, sign)
        assert all(type(c) is Fr for c in stream.coeffs)

    def test_closed_form_low_orders(self):
        closed = closed_form_coefficients(1, "+")
        assert closed == [Fr(1), Fr(5, 48)]
        assert closed_form_coefficients(1, "-")[1] == Fr(-5, 48)


class TestOrderArguments:
    @pytest.mark.parametrize("order", [3.0, True, False, "3", None, Fr(3)])
    @pytest.mark.parametrize("fn", [riccati_recurrence, wkb_coefficient_stream,
                                    closed_form_coefficients])
    def test_an_order_that_is_not_an_int_raises(self, fn, order):
        with pytest.raises(PreconditionError, match=r"order must be an int, got "):
            fn(order, "+")

    @pytest.mark.parametrize("fn", [riccati_recurrence, wkb_coefficient_stream,
                                    closed_form_coefficients])
    def test_a_negative_order_or_unknown_sign_raises(self, fn):
        with pytest.raises(PreconditionError, match="order must be >= 0"):
            fn(-1, "+")
        with pytest.raises(PreconditionError, match="sign must be"):
            fn(2, "*")
