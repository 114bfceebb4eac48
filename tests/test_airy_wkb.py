"""Riccati recurrence, odd/even split, primitives and coefficient streams."""

from dataclasses import replace
from fractions import Fraction as Fr

import pytest

from exactwkb.airy_wkb import (W_VAR, check_even_is_log_derivative, closed_form_coefficients,
                               integrate_s_odd, riccati_recurrence, riccati_residual,
                               split_odd_even, wkb_coefficient_stream)
from exactwkb.errors import PreconditionError
from exactwkb.series import PuiseuxSeries


def same_terms(a, b):
    """Coefficient-wise equality of two series, their truncations left aside."""
    return a.variable == b.variable and a.terms == b.terms


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


def with_numerator_plus_two(solution, j):
    """The solution with N_j = c_j 8^(j+1) raised by 2, the recurrence not rerun."""
    n = list(solution.numerators)
    n[j + 1] += 2
    return replace(solution, numerators=tuple(n))


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
        # eta^-j c_j x^(-(3j+2)/2) = x^-1 c_j w^j: S_j is the w^j term of f = x S
        f = solution.series()
        assert f.variable == W_VAR and f.truncation == solution.order + 1
        assert f.terms == {Fr(j): solution.coefficient(j)
                           for j in range(-1, solution.order + 1)}

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

    @pytest.mark.parametrize("order", [2, 12, 24, 40])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_residual_vanishes_to_truncation(self, order, sign):
        residual = riccati_residual(riccati_recurrence(order, sign))
        assert residual.variable == W_VAR
        assert residual.is_zero()
        assert residual.truncation == order

    @pytest.mark.parametrize("j", [1, 5, 11])
    def test_a_changed_numerator_leaves_a_residual(self, solution, j):
        # c_j + 2/8^(j+1) first shows in f^2 as 2 c_-1 (2/8^(j+1)) w^(j-1)
        residual = riccati_residual(with_numerator_plus_two(solution, j))
        assert residual.truncation == solution.order
        assert residual.valuation() == j - 1

    def test_minus_branch_parity(self, solution):
        minus = riccati_recurrence(12, "-")
        for j in range(-1, 13):
            assert minus.coefficient(j) == (-1) ** j * solution.coefficient(j)


class TestSplitAndIntegrate:
    def test_split_reproduces_display(self, solution):
        s_odd, s_even = split_odd_even(solution)
        assert s_odd.coeff(-1) == 1
        assert s_odd.coeff(1) == Fr(-5, 32)
        assert s_odd.coeff(3) == Fr(-1105, 2048)
        assert s_even.coeff(0) == Fr(-1, 4)
        assert s_even.coeff(2) == Fr(-15, 64)
        assert {e.numerator % 2 for e in s_odd.terms} == {1}
        assert {e.numerator % 2 for e in s_even.terms} == {0}
        assert s_odd.truncation == s_even.truncation == solution.order + 1

    @pytest.mark.parametrize("order", [2, 12, 24])
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_even_part_is_log_derivative(self, order, sign):
        s_odd, s_even = split_odd_even(riccati_recurrence(order, sign))
        assert check_even_is_log_derivative(s_odd, s_even)

    @pytest.mark.parametrize("k", [0, 4, 12])
    def test_a_changed_even_coefficient_is_not_the_log_derivative(self, solution, k):
        s_odd, s_even = split_odd_even(solution)
        changed = s_even + PuiseuxSeries.monomial(W_VAR, k, Fr(1, 1024))
        assert changed.truncation == s_even.truncation
        assert not check_even_is_log_derivative(s_odd, changed)

    @pytest.mark.parametrize("k", [0, 4, 12])
    def test_an_even_part_without_a_term_is_not_the_log_derivative(self, solution, k):
        s_odd, s_even = split_odd_even(solution)
        dropped = s_even - PuiseuxSeries.monomial(W_VAR, k, s_even.coeff(k))
        assert Fr(k) not in dropped.terms and dropped.truncation == s_even.truncation
        assert not check_even_is_log_derivative(s_odd, dropped)

    @pytest.mark.parametrize("j", [1, 5, 11])
    def test_a_changed_odd_numerator_is_not_the_log_derivative(self, solution, j):
        assert not check_even_is_log_derivative(
            *split_odd_even(with_numerator_plus_two(solution, j)))

    def test_both_signs_share_the_split(self):
        plus = split_odd_even(riccati_recurrence(8, "+"))
        minus = split_odd_even(riccati_recurrence(8, "-"))
        assert same_terms(plus[0], minus[0])
        assert same_terms(plus[1], minus[1])

    def test_primitive_values(self, solution):
        s_odd = split_odd_even(solution)[0]
        prim = integrate_s_odd(s_odd)
        assert prim.coeff(-1) == Fr(2, 3)
        assert prim.coeff(1) == Fr(5, 48)
        assert prim.coeff(3) == Fr(1105, 9216)
        assert list(prim.terms) == list(s_odd.terms)
        assert prim.truncation == s_odd.truncation

    def test_the_primitive_differentiates_back(self, solution):
        # d/dx P(w) = x^-1 (-(3/2) w P'(w)), so -(3/2) w P' = f_odd
        s_odd = split_odd_even(solution)[0]
        prim = integrate_s_odd(s_odd)
        assert same_terms(prim.differentiate().shift(1) * Fr(-3, 2), s_odd)

    def test_an_x_to_the_minus_one_term_has_no_primitive(self):
        # x^-1 w^0: its primitive is a logarithm
        with pytest.raises(PreconditionError, match="x\\^-1 term"):
            integrate_s_odd(PuiseuxSeries(W_VAR, {-1: 1, 0: Fr(1, 3)}, 3))

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
