"""Stokes classification, the Airy oracle, Borel sums and connection checks."""

import cmath
import dataclasses
import math

import pytest

from exactwkb import resummation
from exactwkb.branches import anchored_g_triple, continue_triple, monodromy_triple
from exactwkb.errors import NumericError, PreconditionError
from exactwkb.resummation import (_SERIES_HANDOFF, RAY_LOOP_STEPS, BorelSum,
                                  RayField, _delta_integrand_factory,
                                  _laplace_quadrature, _scaled_sum,
                                  airy_reference, classify_stokes,
                                  formal_solution_partial_sum, gamma_term,
                                  gamma_term_literal, laplace_sum,
                                  verify_airy_connection, verify_voros)
from exactwkb.verify import run_voros_grid

SQRT_PI = math.sqrt(math.pi)


class TestStokesClassification:
    def test_regions(self):
        assert classify_stokes(cmath.exp(-1j * math.pi / 3)).region == "I"
        assert classify_stokes(cmath.exp(1j * math.pi / 3)).region == "II"

    def test_stokes_ray_is_boundary(self):
        assert classify_stokes(1.0).region == "boundary"
        assert classify_stokes(cmath.exp(2j * math.pi / 3)).region == "boundary"

    def test_third_region_is_outside(self):
        assert classify_stokes(-1.0 + 0.2j).region == "outside"
        assert classify_stokes(-1.0).region == "outside"

    def test_turning_point_rejected(self):
        with pytest.raises(PreconditionError):
            classify_stokes(0.0)

    @pytest.mark.parametrize("x", [complex(math.nan, 0), complex(1, math.inf),
                                   math.nan, -math.inf])
    def test_non_finite_x_rejected(self, x):
        with pytest.raises(PreconditionError):
            classify_stokes(x)

    def test_boundary_rejected_by_laplace(self):
        with pytest.raises(PreconditionError):
            laplace_sum("+", classify_stokes(1.0), 5.0)


class TestAiryOracle:
    def test_values_at_zero(self):
        v = airy_reference(0)
        ai0 = 3 ** (-2 / 3) / math.gamma(2 / 3)
        assert abs(v.ai - ai0) < 1e-15
        assert abs(v.bi - math.sqrt(3) * ai0) < 1e-15

    def test_wronskian(self):
        v = airy_reference(1.3)
        w = v.ai * v.bi_prime - v.ai_prime * v.bi
        assert abs(w - 1 / math.pi) < 1e-10

    def test_derivatives_at_zero(self):
        v = airy_reference(0)
        aip0 = -(3 ** (-1 / 3)) / math.gamma(1 / 3)
        assert abs(v.ai_prime - aip0) < 1e-15

    def test_moderate_argument_cancellation_is_controlled(self):
        # |z| ~ 11.7 loses ~20 digits in double precision; the adaptive
        # precision must absorb that.  Cross-check via the Wronskian.
        z = 40 ** (2 / 3) * cmath.exp(-1j * math.pi / 6)
        v = airy_reference(z)
        w = v.ai * v.bi_prime - v.ai_prime * v.bi
        assert abs(w - 1 / math.pi) < 1e-9

    def test_range_guard(self):
        with pytest.raises(PreconditionError):
            airy_reference(50.0)


class TestLaplaceSums:
    def test_error_estimate_below_tolerance(self):
        ctx = classify_stokes(cmath.exp(-1j * math.pi / 6))
        result = laplace_sum("+", ctx, 10.0, 1e-8)
        assert result.quadrature_error_estimate < 1e-8 * abs(result.value)

    def test_tolerance_halving_consistency(self):
        ctx = classify_stokes(cmath.exp(-1j * math.pi / 6))
        loose = laplace_sum("-", ctx, 10.0, 1e-6)
        tight = laplace_sum("-", ctx, 10.0, 5e-7)
        assert abs(loose.value - tight.value) <= max(
            loose.quadrature_error_estimate, 1e-15 * abs(loose.value))

    def test_minus_sum_matches_airy_near_stokes_line(self):
        x = cmath.exp(-1j * math.pi / 60)
        eta = 10.0
        result = laplace_sum("-", classify_stokes(x), eta, 1e-10)
        oracle = airy_reference(eta ** (2 / 3) * x).ai
        prediction = eta ** (1 / 3) * result.value / (2 * SQRT_PI)
        assert abs(prediction - oracle) / abs(oracle) < 1e-8

    def test_eta_scaling_follows_leading_exponential(self):
        x = cmath.exp(-1j * math.pi / 6)
        ctx = classify_stokes(x)
        x32 = cmath.exp(1.5 * cmath.log(x))
        for eta in (20.0, 40.0):
            a = laplace_sum("+", ctx, eta, 1e-10).value
            b = laplace_sum("+", ctx, 2 * eta, 1e-10).value
            model = cmath.exp((2 / 3) * x32 * eta) / math.sqrt(2)
            assert abs(b / a - model) / abs(model) < 0.05

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
    def test_bad_tolerance_rejected(self, tol):
        ctx = classify_stokes(cmath.exp(1j * math.pi / 6))
        with pytest.raises(PreconditionError):
            laplace_sum("+", ctx, 10.0, tol=tol)

    @pytest.mark.parametrize("eta", [math.nan, math.inf, 0.0])
    def test_bad_eta_rejected(self, eta):
        ctx = classify_stokes(cmath.exp(1j * math.pi / 6))
        with pytest.raises(PreconditionError):
            laplace_sum("+", ctx, eta)

    def test_underflow_raises(self):
        # e^(-alpha eta) is e^(-943) here: the raw sum is fine, the scaled one is not
        with pytest.raises(NumericError):
            laplace_sum("-", classify_stokes(cmath.exp(-1j * math.pi / 6)), 2000.0)

    def test_cut_term_underflow_raises(self):
        with pytest.raises(NumericError):
            gamma_term(classify_stokes(cmath.exp(1j * math.pi / 6)), 2000.0)

    def test_homogeneity(self):
        x = cmath.exp(-1j * math.pi / 6)
        eta = 10.0
        for lam in (0.8, 1.25):
            for sign in "+-":
                scaled = laplace_sum(sign, classify_stokes(lam * lam * x),
                                     eta / lam ** 3, 1e-12).value
                base = laplace_sum(sign, classify_stokes(x), eta, 1e-12).value
                assert abs(scaled - lam * base) / abs(lam * base) < 1e-10


class TestConnectionFormulas:
    def test_airy_link_region_I(self):
        report = verify_airy_connection(cmath.exp(-1j * math.pi / 6), 10.0, tol=1e-6)
        assert report.region == "I"
        assert report.passed
        assert report.max_residual < 1e-9

    def test_airy_link_region_II_variant(self):
        report = verify_airy_connection(cmath.exp(1j * math.pi / 6), 8.0, tol=1e-6)
        assert report.region == "II"
        assert report.passed

    @pytest.mark.parametrize("arg,region", [(-1.6, "I"), (1.6, "II")])
    def test_airy_link_where_psi_plus_is_recessive(self, arg, region):
        # |z| = 32 and |psi_+| ~ 5e-41: Bi -+ i Ai formed from Ai and Bi would
        # cancel completely
        report = verify_airy_connection(1.5 * cmath.exp(1j * arg), 100.0)
        assert report.region == region
        assert abs(report.psi_plus) < 1e-30
        assert report.passed
        assert report.inverse_plus_residual < 1e-10

    def test_voros_jump(self):
        report = verify_voros(cmath.exp(1j * math.pi / 6), 8.0)
        assert report.plus_residual < 1e-6
        assert report.minus_residual < 1e-8
        assert report.cut_vs_airy_residual < 1e-6
        assert report.passed

    def test_airy_witness_rejects_wrong_branch_pair(self, monkeypatch):
        """A cut term from g_2 - g_3 in place of g_1 - g_3 fails the oracle gate."""
        def wrong_pair_gamma_term(ctx, eta, tol=1e-8):
            ray = RayField(1, ctx.kappa)

            # i times the "-" sum is the cut term; with g_1 and g_2 swapped it
            # integrates -(g_2 - g_3) / (sqrt(pi) x)
            def swapped(t):
                _, g2, g3 = ray.triple(t)
                return 1j * (g2 - g3) / (SQRT_PI * ctx.x)

            raw, err = _laplace_quadrature(swapped, eta, tol)
            minus = _scaled_sum("-", ctx, eta, ctx.alpha_minus, raw, err)
            return BorelSum("+", ctx.region, eta, 1j * minus.value,
                            minus.quadrature_error_estimate)

        monkeypatch.setattr(resummation, "gamma_term", wrong_pair_gamma_term)
        report = verify_voros(cmath.exp(1j * math.pi / 6), 8.0)
        assert report.cut_vs_airy_residual > 1e-2
        assert not report.passed
        grid = run_voros_grid("quick")
        assert grid["max_cut_vs_airy_residual"] > 1e-2
        assert not grid["passed"]

    def test_grid_fails_on_a_nan_residual(self, monkeypatch):
        # max(0.0, nan) is 0.0: a gate on the running maximum would pass this
        real_verify_voros = resummation.verify_voros

        def nan_minus_residual(x, eta):
            return dataclasses.replace(real_verify_voros(x, eta),
                                       minus_residual=math.nan)

        monkeypatch.setattr(resummation, "verify_voros", nan_minus_residual)
        assert not run_voros_grid("quick")["passed"]

    def test_oracle_rejects_a_wrong_minus_sum(self, monkeypatch):
        """A "-" sum off by 1e-7 fails the no-jump gate.

        A "-" sum continued by integrating the same ray again would carry the
        same error and pass; the Ai value does not."""
        real_laplace_sum = resummation.laplace_sum

        def scaled_minus(sign, ctx, eta, tol=1e-10):
            out = real_laplace_sum(sign, ctx, eta, tol)
            if sign == "+":
                return out
            return dataclasses.replace(out, value=out.value * (1 + 1e-7))

        monkeypatch.setattr(resummation, "laplace_sum", scaled_minus)
        report = verify_voros(cmath.exp(1j * math.pi / 6), 8.0)
        assert report.minus_residual > 1e-8
        assert not report.passed
        assert not run_voros_grid("quick")["passed"]

    def test_cut_term_equals_jump(self):
        ctx = classify_stokes(cmath.exp(1j * math.pi / 6))
        cut = gamma_term(ctx, 8.0).value
        minus = laplace_sum("-", ctx, 8.0, 1e-10).value
        assert abs(cut - 1j * minus) / abs(minus) < 1e-6

    def test_literal_loop_cross_check(self):
        ctx = classify_stokes(cmath.exp(1j * math.pi / 6))
        literal = gamma_term_literal(ctx, 8.0)
        reduced = gamma_term(ctx, 8.0).value
        assert abs(literal - reduced) / abs(reduced) < 5e-3
        # the continued "+" sum, direct region-II integral plus either cut term
        direct = laplace_sum("+", ctx, 8.0, 1e-8).value
        by_delta, by_literal = direct + reduced, direct + literal
        assert abs(by_delta - by_literal) / abs(by_delta) < 1e-5

    def test_region_I_input_rejected_for_continuation(self):
        with pytest.raises(PreconditionError):
            verify_voros(cmath.exp(-1j * math.pi / 6), 8.0)


class TestRayMonodromy:
    """The once-per-ray permutation against a numeric loop at each node."""

    @pytest.mark.parametrize("arg", [0.3, math.pi / 6, 1.9])
    def test_permutation_matches_loop_at_each_node(self, arg):
        ctx = classify_stokes(cmath.exp(1j * arg))
        delta_g3, confirm_far_end = _delta_integrand_factory(ctx)
        field = RayField(1, ctx.kappa)
        # one node inside the 0.35 loop radius, two beyond it
        for rho in (0.2, 0.9, 2.0):
            t = rho / abs(ctx.kappa)
            triple = field.triple(t)
            looped = monodromy_triple(ctx.ray_point("-", t), triple, 1.0,
                                      n_steps=RAY_LOOP_STEPS)
            want = looped[2] - triple[2]
            assert abs(delta_g3(t) - want) <= 1e-12 * abs(want)
        confirm_far_end()

    def test_far_end_disagreement_raises(self, monkeypatch):
        real = resummation.monodromy_permutation
        calls = []

        def reversed_after_first(*args, **kwargs):
            perm = real(*args, **kwargs)
            calls.append(perm)
            return perm if len(calls) == 1 else perm[::-1]

        monkeypatch.setattr(resummation, "monodromy_permutation", reversed_after_first)
        with pytest.raises(NumericError):
            gamma_term(classify_stokes(cmath.exp(1j * math.pi / 6)), 8.0)
        assert len(calls) == 2


class TestRayOrientation:
    """The "-" ray's local root w = i sqrt(s - 1) is the sheet reached from region I."""

    @pytest.mark.parametrize("arg", [0.3, math.pi / 6, 1.0, 1.9])
    def test_region_I_triple_carried_to_the_ray(self, arg):
        ctx = classify_stokes(cmath.exp(1j * arg))
        theta = cmath.phase(ctx.kappa)
        # arg kappa = 0.45 is a region-I ray direction; rotate down to this ray
        # along the arc of radius _SERIES_HANDOFF around s = 1
        angles = [0.45 + (theta - 0.45) * k / 24 for k in range(25)]
        arc = [1 + _SERIES_HANDOFF * cmath.exp(1j * a) for a in angles]
        carried = continue_triple(arc, anchored_g_triple(1, 1j * cmath.sqrt(arc[0] - 1)),
                                  max_step=0.03)
        s = arc[-1]
        want = anchored_g_triple(1, 1j * cmath.sqrt(s - 1))
        flipped = anchored_g_triple(1, -1j * cmath.sqrt(s - 1))
        assert max(abs(a - b) for a, b in zip(carried, want)) < 1e-12
        assert max(abs(a - b) for a, b in zip(carried, flipped)) > 1.0
        # and the ray field evaluates that same sheet where it leaves the series
        t = _SERIES_HANDOFF / abs(ctx.kappa)
        assert max(abs(a - b) for a, b in zip(RayField(1, ctx.kappa).triple(t), want)) < 1e-12


class TestWatsonConsistency:
    def test_partial_sums_track_first_omitted_term(self):
        from exactwkb.airy_wkb import closed_form_coefficients
        x = cmath.exp(-1j * math.pi / 6)
        x32 = cmath.exp(1.5 * cmath.log(x))
        for eta in (10.0, 20.0, 40.0):
            full = laplace_sum("-", classify_stokes(x), eta, 1e-12).value
            for n_terms in (3, 6):
                partial = formal_solution_partial_sum("-", x, eta, n_terms)
                c = closed_form_coefficients(n_terms, "-")[n_terms]
                omitted = abs(float(c) * (1 / (eta * x32)) ** n_terms
                              * eta ** -0.5 * cmath.exp(-0.25 * cmath.log(x))
                              * cmath.exp(-(2 / 3) * x32 * eta))
                ratio = abs(full - partial) / omitted
                assert 0.05 < ratio < 20
