"""Branch expansions, root solving, continuation, monodromy, discontinuities."""

import cmath
import itertools
import math
import random
import re
from fractions import Fraction as Fr

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactwkb import branches
from exactwkb.airy_borel import hypergeometric_oracle
from exactwkb.branches import (ANCHOR_SERIES_TERMS, BranchLabel, _depressed_cubic_roots,
                               _local_c_series, _loop_path, _polish_cubic, _x_series_shape,
                               anchored_g_triple, branch_series, closed_form_g_triple,
                               continue_triple, default_sqrt_rule, g_pde_residuals,
                               loop_permutation, monodromy_triple, solve_cubic_g,
                               solve_cubic_g_xy,
                               solve_cubic_x, sqrt_one_minus_s, sqrt_s,
                               trace_branch, verify_branch_identities)
from exactwkb.cli import main as cli_main
from exactwkb.errors import NumericError, PreconditionError, VerificationError
from exactwkb.resummation import RayField, classify_stokes
from exactwkb.series import ExactScalar, PuiseuxSeries as P
from root_tracker import (CHART_TERMS, SERIES_HANDOFF, TrackedRay, cardano_roots,
                          crossing_chart_series, newton_polish, relative_gap,
                          solve_cubic as tracked_solve_cubic, tracked_continue_triple)

SQRT3_4 = math.sqrt(3) / 4


class TestBranchSeries:
    def test_unbounded_branch_at_base_0(self):
        x1 = branch_series(BranchLabel("X", 1, 0), 8)
        assert x1.coeff(0) == ExactScalar.sqrt3(Fr(1, 4))
        assert x1.coeff(Fr(1, 2)) == Fr(1, 6)
        assert x1.coeff(1) == ExactScalar.sqrt3(Fr(-1, 18))  # -1/(6 sqrt 3)

    def test_mirror_branch_at_base_0(self):
        x2 = branch_series(BranchLabel("X", 2, 0), 8)
        assert x2.coeff(0) == ExactScalar.sqrt3(Fr(-1, 4))
        assert x2.coeff(Fr(1, 2)) == Fr(1, 6)
        assert x2.coeff(1) == ExactScalar.sqrt3(Fr(1, 18))

    def test_bounded_branch_at_base_0(self):
        x3 = branch_series(BranchLabel("X", 3, 0), 8)
        assert x3.coeff(Fr(1, 2)) == Fr(-1, 3)
        assert x3.coeff(Fr(3, 2)) == Fr(-5, 162)

    def test_base_1_labels_are_swapped_continuations(self):
        # after real-axis continuation: 1 -> 1, 2 -> bounded, 3 -> mirror
        x2_at_1 = branch_series(BranchLabel("X", 2, 1), 8)
        assert x2_at_1.coeff(Fr(1, 2)) == Fr(-1, 3)
        x3_at_1 = branch_series(BranchLabel("X", 3, 1), 8)
        assert x3_at_1.coeff(0) == ExactScalar.sqrt3(Fr(-1, 4))

    def test_scaled_branch_series(self):
        g1 = branch_series(BranchLabel("g", 1, 0), 8)
        assert g1.coeff(Fr(-1, 2)) == ExactScalar.sqrt3(Fr(1, 4))
        assert g1.coeff(0) == Fr(1, 6)
        assert g1.coeff(Fr(1, 2)) == ExactScalar.sqrt3(Fr(5, 72))  # 5/(24 sqrt 3)

    def test_bounded_scaled_branch_at_base_1(self):
        g2 = branch_series(BranchLabel("g", 2, 1), 8)
        assert g2.coeff(0) == Fr(-1, 3)
        assert g2.coeff(1) == Fr(-16, 81)

    def test_bounded_scaled_value_numerically(self):
        # independent numeric confirmation of the -16/81 slope at the base
        roots = solve_cubic_g(0.99)
        bounded = min(roots, key=lambda r: abs(r + 1 / 3))
        assert abs(bounded - (-1 / 3 - 16 / 81 * 0.01)) < 5e-5

    def test_every_series_satisfies_the_cubic(self):
        for anchor in (0, 1):
            for index in (1, 2, 3):
                x = branch_series(BranchLabel("X", index, anchor), 10)
                c = (x * 16) * x * x - x * 3
                # residual must equal the square-root data series exactly
                from exactwkb.branches import _local_c_series
                target = _local_c_series("t", x.truncation)
                assert (c - target).truncate(x.truncation).is_zero()

    @pytest.mark.parametrize("shape", [1, 2, 3])
    def test_anchor_series_solve_the_cubic_at_build_size(self, shape):
        # the size the branch tracker builds: every coefficient below the
        # truncation is exact
        x = _x_series_shape(shape, ANCHOR_SERIES_TERMS + 2)
        c = _local_c_series("t", Fr(ANCHOR_SERIES_TERMS + 2, 2))
        residual = x * x * x * 16 - x * 3 - c
        assert x.truncation == Fr(ANCHOR_SERIES_TERMS + 2, 2)
        assert residual.truncation == x.truncation and residual.is_zero()


def full_precision_newton(c, seed, trunc):
    """Every Newton step at full precision: the reference for the doubling."""
    x = seed.truncate(trunc)
    for _ in range(200):
        f = x * x * x * 16 - x * 3 - c
        if f.is_zero():
            return x
        step = f / (x * x * 48 - 3)
        x = x - step
        if step.valuation() is not None and step.valuation() >= trunc:
            return x
    raise AssertionError("full-precision Newton did not stabilize")


ROOT3 = ExactScalar.sqrt3


class TestNewtonWithPrecisionDoubling:
    @pytest.mark.parametrize("shape,seed", [
        (1, {Fr(0): ROOT3(Fr(1, 4))}), (2, {Fr(0): ROOT3(Fr(-1, 4))}),
        (3, {Fr(1, 2): Fr(-1, 3)})])
    def test_anchor_series_match_full_precision_newton(self, shape, seed):
        trunc = Fr(8)
        expected = full_precision_newton(_local_c_series("t", trunc), P("t", seed), trunc)
        assert _x_series_shape(shape, 16) == expected

    @pytest.mark.parametrize("branch,seed", [
        ("plus", {Fr(0): Fr(-1, 4), Fr(1): ROOT3(Fr(1, 6))}),
        ("minus", {Fr(0): Fr(-1, 4), Fr(1): ROOT3(Fr(-1, 6))}),
        ("simple", {Fr(0): Fr(1, 2)})])
    def test_chart_series_match_full_precision_newton(self, branch, seed):
        # at the double root each step costs one order of truncation; the
        # doubling keeps the truncation the full-precision steps report
        trunc = Fr(CHART_TERMS)
        c = P("d", {Fr(0): Fr(1, 4), Fr(2): -1}, trunc).sqrt()
        expected = full_precision_newton(c, P("d", seed), trunc)
        assert crossing_chart_series(branch, "X", CHART_TERMS) == expected


class TestCrossingChart:
    @pytest.mark.parametrize("branch", ["plus", "minus", "simple"])
    def test_chart_series_solve_the_cubic(self, branch):
        x = crossing_chart_series(branch, "X", CHART_TERMS)
        c = (P("d", {Fr(0): Fr(1, 4), Fr(2): -1}, CHART_TERMS)).sqrt()
        residual = x * x * x * 16 - x * 3 - c
        assert residual.truncation == x.truncation and residual.is_zero()

    def test_published_chart_coefficients(self):
        plus = crossing_chart_series("plus")
        minus = crossing_chart_series("minus")
        assert plus.coeff(0) == Fr(-1, 4)
        assert plus.coeff(1) == ExactScalar.sqrt3(Fr(1, 6))    # 1/(2 sqrt 3)
        assert plus.coeff(2) == Fr(1, 18)
        assert minus.coeff(1) == ExactScalar.sqrt3(Fr(-1, 6))
        assert minus.coeff(2) == Fr(1, 18)

    def test_simple_root_chart(self):
        simple = crossing_chart_series("simple")
        assert simple.coeff(0) == Fr(1, 2)


class TestRootSolving:
    def test_root_set_at_base_points(self):
        for s in (0.0, 1.0):
            roots = solve_cubic_x(s)
            for target in (-SQRT3_4, 0.0, SQRT3_4):
                assert min(abs(r - target) for r in roots) < 1e-12

    def test_double_root_at_crossing(self):
        roots = solve_cubic_x(0.5)
        assert sum(abs(r + 0.25) < 1e-12 for r in roots) == 2
        assert min(abs(r - 0.5) for r in roots) < 1e-12

    def test_root_symmetric_functions(self):
        rng = random.Random(11)
        for _ in range(25):
            s = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(s) < 0.05 or abs(s - 1) < 0.05:
                continue
            r = solve_cubic_x(s)
            c = default_sqrt_rule(s)
            assert abs(sum(r)) < 1e-10
            assert abs(r[0] * r[1] + r[0] * r[2] + r[1] * r[2] + 3 / 16) < 1e-10
            assert abs(r[0] * r[1] * r[2] - c / 16) < 1e-10

    def test_degenerate_point_rejected(self):
        with pytest.raises(NumericError):
            solve_cubic_g(0.0)

    def test_scaled_roots_sum_to_zero_numerically(self):
        rng = random.Random(23)
        for _ in range(25):
            s = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(s) < 0.05 or abs(s - 1) < 0.05:
                continue
            roots = solve_cubic_g(s)
            assert abs(sum(roots)) < 1e-10 * max(1.0, max(abs(r) for r in roots))


def x_values(s, triple):
    """The X form of a G triple at s: X = G s^(1/2) (1-s)^(1/2)."""
    return tuple(g * default_sqrt_rule(s) for g in triple)


def series_value(label, s):
    series = branch_series(label, 24)
    return sum(complex(c) * s ** (2 * e) for e, c in series.terms.items())


class TestContinuation:
    def test_real_axis_landing_values(self):
        targets = {1: SQRT3_4, 2: 0.0, 3: -SQRT3_4}
        start = anchored_g_triple(0, sqrt_s(0.01))
        end = x_values(0.99, continue_triple([0.01, 0.3, 0.7, 0.99], start))
        for index in (1, 2, 3):
            expected = series_value(BranchLabel("X", index, 1), 0.1)
            assert abs(end[index - 1] - expected) < 1e-6
            assert abs(end[index - 1] - targets[index]) < 0.05

    def test_waypoint_exactly_on_crossing(self):
        start = anchored_g_triple(0, sqrt_s(0.01))
        through = x_values(0.99, continue_triple([0.01, 0.5, 0.99], start))
        direct = x_values(0.99, continue_triple([0.01, 0.99], start))
        assert abs(through[1] - direct[1]) < 1e-9

    def test_path_refinement_stability(self):
        start = anchored_g_triple(0, sqrt_s(0.04))
        coarse = continue_triple([0.04, 0.3 + 0.2j, 0.8 + 0.1j, 0.9], start)
        fine = continue_triple([0.04, 0.17 + 0.1j, 0.3 + 0.2j, 0.55 + 0.15j,
                                0.8 + 0.1j, 0.85 + 0.05j, 0.9], start)
        assert abs(coarse[2] - fine[2]) < 1e-10

    def test_far_start_point_is_traced_in_closed_form(self, capsys):
        # the first sample, too, is the closed form, not the series at s = 0
        assert cli_main(["branches", "trace", "--from", "0.7", "--csv"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 50
        for k, row in enumerate(rows):
            s = 0.7 + (0.99 - 0.7) * k / 49
            want = closed_form_g_triple(0, sqrt_s(s))[2] * default_sqrt_rule(s)
            _, re_part, im_part = row.split(",")
            assert abs(complex(float(re_part), float(im_part)) - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("start, samples", [(-0.36, 8), (0.05, 1), (0.05, -3)])
    def test_trace_rejects_a_far_start_or_too_few_samples(self, start, samples):
        # a trace from -0.36 to 0.4 runs through s = 0
        with pytest.raises(PreconditionError):
            trace_branch("X", 3, start, 0.4, samples)

    @pytest.mark.parametrize("start, stop", [(0.35, 0.9), (-0.35, -0.02), (0.7, 0.9)])
    def test_every_trace_sample_is_a_root_of_the_cubic(self, start, stop):
        # each to 1e-15 of a 40-digit root, the three labels on three roots;
        # a first sample from the series at s = 0 was 1.1e-8 off at s = 0.35
        traces = [trace_branch("g", index, start, stop, 8) for index in (1, 2, 3)]
        with mpmath.workdps(40):
            for samples in zip(*traces):
                s = mpmath.mpf(samples[0][0])
                roots = mpmath.polyroots([16 * s * (1 - s), 0, -3, -1], maxsteps=200,
                                         extraprec=80)
                values = [value for _, value in samples]
                nearest = [min(range(3), key=lambda j: abs(g - roots[j])) for g in values]
                assert sorted(nearest) == [0, 1, 2], s
                for g, j in zip(values, nearest):
                    assert abs(g - roots[j]) <= 1e-15 * max(1, abs(roots[j])), s

    def test_reverse_continuation_from_base_1(self):
        # tracking backwards must land on the base-0 expansions with labels
        # swapped through the crossing: index 2 at s=1 comes from index 2 at 0
        start = anchored_g_triple(1, sqrt_one_minus_s(0.99))
        end = x_values(0.01, continue_triple([0.99, 0.7, 0.3, 0.01], start))
        for index, target_index in ((1, 1), (2, 2), (3, 3)):
            expected = series_value(BranchLabel("X", target_index, 0), 0.1)
            assert abs(end[index - 1] - expected) < 1e-6

    def test_gbranch_satisfies_the_xy_cubic(self):
        x = 1.3 - 0.4j
        s = 0.3 + 0.2j
        moved = continue_triple([0.05, s], anchored_g_triple(0, sqrt_s(0.05)))
        x32 = x ** 1.5
        y = (4 / 3) * x32 * (s - 0.5)
        g = moved[0] / x
        residual = (9 * y * y - 4 * x ** 3) * g ** 3 + 3 * x * g + 1
        assert abs(residual) < 1e-10

    @pytest.mark.parametrize("triple, reason", [
        ((math.nan, 0j, 1 + 0j), "is not finite"),
        ((1 + 0j, 2 + 0j, 3 + 0j), "does not solve the cubic: G = \\(1\\+0j\\)"),
    ])
    def test_a_bad_start_triple_is_named_with_its_fault(self, triple, reason):
        # both used to halve MAX_HALVINGS times and end in "continuation step
        # underflow near s = (0.2+0j)", naming neither the triple nor the cause
        with pytest.raises(PreconditionError, match=re.escape(repr(triple)) + ".* " + reason):
            continue_triple([0.2, 0.21], triple)

    def test_roots_that_are_not_the_three_roots_are_named(self):
        root = solve_cubic_g(0.2)[0]
        with pytest.raises(PreconditionError, match="values sum to"):
            continue_triple([0.2, 0.21], (root, root, root))

    def test_a_walk_may_end_where_the_cubic_degenerates(self):
        # 0.02 long and ending 5e-14 from s = 0, within the halving reach of
        # that distance (0.0275), where 16 s (1-s) is too small for the cubic
        # to be solved; psi is still asin(s^(1/2)) there, and the exact series
        # is all but exact
        start = anchored_g_triple(0, sqrt_s(0.02))
        with pytest.raises(NumericError, match="cubic degenerates"):
            solve_cubic_g(5e-14)
        walked = continue_triple([0.02, 5e-14], start)
        assert relative_gap(anchored_g_triple(0, sqrt_s(5e-14)), walked) < 1e-14

    def test_a_successful_call_runs_no_diagnosis(self, monkeypatch):
        diagnosed = []
        monkeypatch.setattr(branches, "_start_triple_fault",
                            lambda s, triple: diagnosed.append(s))
        continue_triple([0.05, 0.3 + 0.2j], anchored_g_triple(0, sqrt_s(0.05)))
        assert diagnosed == []

    def test_long_segments_are_walked_and_paths_through_s_1_raise_before_any_step(
            self, monkeypatch):
        # the vertical segments keep 0.01 and 0.3 from s = 0 and 1 however
        # long they are; the other paths run through s = 1, or stop on it
        start = anchored_g_triple(0, sqrt_s(0.01))
        for path in ([0.01, 0.01 + 5.6e9j], [0.01, 0.3, 0.3 + 1e12j]):
            walked, s = continue_triple(path, start), path[-1]
            for g in walked:
                assert abs((16 * s * (1 - s) * g * g - 3) * g - 1) < 1e-14
        steps = []
        monkeypatch.setattr(branches, "_cut_crossing",
                            lambda s0, s1, sign, n: steps.append(s1) or (sign, n))
        for path in ([0.01, 1e10], [0.01, 0.3, 1.0, 1.1]):
            with pytest.raises(PreconditionError, match="branch point s = 1"):
                continue_triple(path, start)
        with pytest.raises(PreconditionError, match="branch point s = 1"):
            trace_branch("X", 3, 0.01, 1e10, 2)
        assert steps == []

    def test_a_segment_is_measured_by_its_closest_approach(self, monkeypatch):
        # each refused path runs through one of the branch points, or stops on
        # it; each walked one passes 1e-13 from one, on the side of its detour
        start = anchored_g_triple(0, sqrt_s(0.3))
        for path, detour in (([0.3, -0.3 + 1e-13j], [0.3, 0.3j, -0.3 + 1e-13j]),
                             ([0.3, 2 - 1e-13j], [0.3, 1 - 0.3j, 2 - 1e-13j])):
            assert continue_triple(path, start) == continue_triple(detour, start)
        steps = []
        monkeypatch.setattr(branches, "_cut_crossing",
                            lambda s0, s1, sign, n: steps.append(s1) or (sign, n))
        for path, point in (([0.3, 1.5], 1), ([0.3, -0.3], 0), ([0.3, 0.6j, -0.6j], 0),
                            ([0.3, 0.7, 1.0], 1)):
            with pytest.raises(PreconditionError, match=f"the branch point s = {point}, "):
                continue_triple(path, start)
        assert steps == []

    @pytest.mark.parametrize("path", [[], [0.0], [1.0], [complex(0.0, -0.0)],
                                      [math.nan], [complex(0.3, math.inf)],
                                      [0.3, math.nan, 0.4]])
    def test_a_path_without_waypoints_or_with_a_bad_one_is_refused(self, path):
        with pytest.raises(PreconditionError):
            continue_triple(path, closed_form_g_triple(0, sqrt_s(0.3)))

    @pytest.mark.parametrize("stop", ["1.5", "1e3", "1e6", "1e10", "1e307"])
    def test_trace_through_a_branch_point_is_3(self, stop, capsys):
        # the segment from 0.01 runs through s = 1: refused, not walked
        assert cli_main(["branches", "trace", "--to", stop, "--samples", "2"]) == 3
        assert "of the branch point s = 1, " in capsys.readouterr().err


class TestPsiContinuation:
    """psi = sign asin(s^(1/2)) + n pi keeps (sign, n) except where a segment
    crosses the cut s < 0, which gives (-sign, n), or s > 1, which gives
    (-sign, n + sign)."""

    def test_a_segment_that_passes_a_branch_point_keeps_the_labels_of_the_tracker(self):
        # 0.02 long and 1e-6 from s = 0 at its closest: the determinations
        # psi and -psi are 2e-3 apart there
        s0, s1 = -0.007 + 1e-6j, 0.013 + 1e-6j
        start = tracked_solve_cubic(s0)
        fine = [s0 + (s1 - s0) * k / 2000 for k in range(2001)]
        assert relative_gap(tracked_continue_triple(fine, start),
                            continue_triple([s0, s1], start)) < 1e-12

    def test_long_segments_end_where_the_tracker_ends_them(self):
        # segments of up to 13 that pass between or near s = 0 and 1, and
        # paths that stop on a cut or pass through a waypoint on it, reached
        # from either side: a waypoint with the imaginary part +0.0 sits on
        # the upper edge, one with -0.0 on the lower edge
        rng = random.Random(3)
        paths = [[complex(rng.uniform(-6, 6), rng.uniform(-3, 3)) for _ in range(2)]
                 for _ in range(200)]
        for cut in (-0.5, 1.5):
            for edge in (complex(cut, 0.0), complex(cut, -0.0)):
                for s0 in (0.3 + 0.4j, 0.3 - 0.4j):
                    paths += [[s0, edge], [s0, edge, 0.6 + 0.5j], [s0, edge, 0.6 - 0.5j]]
        for path in paths:
            start = tracked_solve_cubic(path[0])
            assert relative_gap(tracked_continue_triple(path, start),
                                continue_triple(path, start)) < 1e-14, path

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_the_start_triple_sets_the_order_it_returns(self, order):
        # each of the six orders of the roots is one determination of psi
        s0, s1 = 0.3 + 0.1j, 0.6 - 0.05j
        roots = tracked_solve_cubic(s0)
        start = tuple(roots[j] for j in order)
        want = tracked_continue_triple([s0, s1], start)
        assert relative_gap(want, continue_triple([s0, s1], start)) < 1e-13

    def test_a_start_on_the_crossing_is_continued(self):
        # the double root of s = 1/2: the two orders it allows give one triple
        start = continue_triple([0.05, 0.5], anchored_g_triple(0, sqrt_s(0.05)))
        assert abs(start[1] - start[2]) < 1e-7
        for s1 in (0.7, 0.5 + 0.2j):
            walked = continue_triple([0.5, s1], start)
            for g in walked:
                assert abs((16 * s1 * (1 - s1) * g * g - 3) * g - 1) < 1e-13


def termwise_anchored_g_triple(anchor, local_root):
    if local_root == 0:
        raise PreconditionError("branch values diverge at the base point itself")
    if not cmath.isfinite(local_root):
        raise PreconditionError(f"local root {local_root!r} is not finite")
    out = []
    for index in (1, 2, 3):
        total = 0j
        terms = branch_series(BranchLabel("g", index, anchor), ANCHOR_SERIES_TERMS).terms
        for e, coeff in terms.items():
            total += complex(coeff) * local_root ** int(2 * e)
        out.append(total)
    return tuple(out)


def outcome(fn, *args):
    """What fn(*args) gives, each float as float.hex, or what it raises."""
    try:
        value = fn(*args)
    except (ArithmeticError, NumericError, PreconditionError) as exc:
        return type(exc).__name__, str(exc)
    return tuple((type(z).__name__, z.real.hex(), z.imag.hex()) for z in value)


_FINITE = {"allow_nan": False, "allow_infinity": False}


def _near(base, smallest):
    """Points at a distance from ``smallest`` to 0.05 of ``base``, any direction."""
    return st.builds(lambda r, phi: base + r * cmath.exp(1j * phi),
                     st.floats(smallest, 0.05), st.floats(-math.pi, math.pi))


_S_ANYWHERE = st.one_of(st.complex_numbers(max_magnitude=1e4, **_FINITE),
                        st.floats(-3, 3), _near(0, 1e-15), _near(1, 1e-15))
_COEFFS = st.one_of(st.complex_numbers(max_magnitude=1e3, **_FINITE),
                    st.builds(complex, st.integers(-4, 4), st.integers(-4, 4)),
                    st.floats(-10, 10))
NAN = float("nan")
INF = float("inf")


class TestKernelKeepsItsBits:
    @settings(max_examples=300, deadline=None)
    @given(_S_ANYWHERE)
    @example(0.0)
    @example(1e-14 + 0j)            # |16 s (1 - s)| below 1e-12: raises
    @example(1 - 1e-14j)
    @example(0.99)
    @example(0.5)                   # the double root
    @example(complex(NAN, 0.2))
    def test_solve_cubic_g(self, s):
        assert outcome(solve_cubic_g, s) == outcome(tracked_solve_cubic, s)

    @settings(max_examples=300, deadline=None)
    @given(_COEFFS, _COEFFS)
    @example(0j, 0j)
    @example(-3 / 4, -1 / 4)        # the scaled cubic at s = 1/2: a double root
    def test_depressed_cubic_roots(self, p, q):
        assert outcome(_depressed_cubic_roots, p, q) == outcome(cardano_roots, p, q)

    @settings(max_examples=300, deadline=None)
    @given(_COEFFS, _COEFFS, _COEFFS, _COEFFS)
    @example(4 + 0j, -3, -1, -0.5 + 0j)   # F' = 0 at the double root
    @example(1 + 0j, 0.01 + 0j, 0j, 0.05 + 0j)
    def test_polish_cubic(self, a3, a1, a0, root):
        def polish(*args):
            return (_polish_cubic(*args),)

        def oracle(*args):
            return (newton_polish(*args),)

        assert outcome(polish, a3, a1, a0, root) == outcome(oracle, a3, a1, a0, root)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([0, 1]), st.floats(1e-8, 0.6), st.floats(-math.pi, math.pi))
    @example(0, 0.3, 0.0)
    @example(1, 0.3, math.pi / 2)
    def test_anchored_g_triple(self, anchor, radius, phase):
        root = cmath.rect(radius, phase)
        assert (outcome(anchored_g_triple, anchor, root)
                == outcome(termwise_anchored_g_triple, anchor, root))

    @pytest.mark.parametrize("root", [0j, 0.0, complex(NAN, 0.1), complex(0.2, -0.0)])
    @pytest.mark.parametrize("anchor", [0, 1])
    def test_anchored_g_triple_at_edge_inputs(self, anchor, root):
        assert (outcome(anchored_g_triple, anchor, root)
                == outcome(termwise_anchored_g_triple, anchor, root))

    @pytest.mark.parametrize("s", [complex(NAN, 0.2), NAN, complex(0.3, math.inf), 1e200])
    def test_a_non_finite_cubic_raises_and_names_the_point(self, s):
        with pytest.raises(PreconditionError, match=re.escape(f"at s = {s!r}")):
            solve_cubic_g(s)

    @pytest.mark.parametrize("root", [complex(NAN, 0.1), NAN, complex(math.inf, 0.0)])
    @pytest.mark.parametrize("anchor", [0, 1])
    def test_a_non_finite_local_root_raises_and_names_it(self, anchor, root):
        with pytest.raises(PreconditionError, match=re.escape(f"local root {root!r}")):
            anchored_g_triple(anchor, root)


class TestMonodromy:
    def test_loop_at_base_0_swaps_the_unbounded_pair(self):
        s0 = 0.04
        triple = anchored_g_triple(0, cmath.sqrt(s0))
        looped = monodromy_triple(s0, triple, 0.0)
        assert abs(looped[0] - triple[1]) < 1e-9
        assert abs(looped[1] - triple[0]) < 1e-9
        assert abs(looped[2] - triple[2]) < 1e-10

    def test_combination_flips_sign(self):
        s0 = 0.04
        triple = anchored_g_triple(0, cmath.sqrt(s0))
        looped = monodromy_triple(s0, triple, 0.0)
        before = triple[0] - triple[1]
        after = looped[0] - looped[1]
        assert abs(after + before) < 1e-9

    def test_discontinuity_at_base_0(self):
        s0 = 0.04
        triple = anchored_g_triple(0, cmath.sqrt(s0))
        delta = monodromy_triple(s0, triple, 0.0)[1] - triple[1]
        assert abs(delta - (triple[0] - triple[1])) < 1e-8

    def test_discontinuity_at_base_1(self):
        s1 = 0.96
        triple = anchored_g_triple(1, cmath.sqrt(1 - s1))
        delta = monodromy_triple(s1, triple, 1.0)[2] - triple[2]
        assert abs(delta - (triple[0] - triple[2])) < 1e-8

    @pytest.mark.parametrize("center", [0.0, 1.0])
    def test_a_segment_through_the_crossing_after_a_loop_keeps_the_labels(self, center):
        # 0.45 -> 0.55 halves onto s = 1/2 exactly, where the crossing
        # branches take one value; the tracker walks it in steps of 0.001
        moved = continue_triple([0.05, 0.45], anchored_g_triple(0, sqrt_s(0.05)))
        looped = monodromy_triple(0.45, moved, center)
        walked = tracked_continue_triple([0.45 + 0.001 * k for k in range(101)], looped)
        assert relative_gap(walked, continue_triple([0.45, 0.55], looped)) < 1e-12

    @pytest.mark.parametrize("s, center", [(0.04, 0.0), (0.96, 1.0), (0.3 - 0.2j, 0.0),
                                           (0.8 + 0.3j, 1.0), (2.5 + 1j, 1.0),
                                           (-0.6 - 0.4j, 0.0)])
    def test_a_loop_ends_where_the_tracker_ends_it(self, s, center):
        start = tracked_solve_cubic(s)
        loop = [s, *_loop_path(s, center)]
        assert relative_gap(tracked_continue_triple(loop, start),
                            monodromy_triple(s, start, center)) < 1e-12

    def test_regular_loop_has_zero_discontinuity(self):
        s0 = 0.04
        triple = anchored_g_triple(0, cmath.sqrt(s0))
        moved = continue_triple([s0, 0.5 + 0.3j], triple)
        loop = _loop_path(0.5 + 0.3j, 0.3 + 0.3j)
        returned = continue_triple([0.5 + 0.3j, *loop], moved)
        assert max(abs(a - b) for a, b in zip(returned, moved)) < 1e-10


def tracked_ray(anchor, kappa):
    """The tracker's summation ray from s = anchor along kappa: the exact
    series up to SERIES_HANDOFF, with the local root s^(1/2) at anchor 0 and
    i (s - 1)^(1/2) at anchor 1 written out here, then tracked."""
    def start(t):
        root = cmath.sqrt(kappa * t)
        return anchored_g_triple(anchor, 1j * root if anchor == 1 else root)

    return TrackedRay(anchor, kappa, SERIES_HANDOFF / abs(kappa), start)


class TestClosedForm:
    """Viete's closed form G_k = 1/(2 cos theta_k - 1), theta_k =
    (pi - 4 psi + 2 pi k)/3 with s = sin(psi)^2, held against the tracker,
    the exact series, the Gauss function and the loop permutations."""

    @pytest.mark.parametrize("region, seed", [("I", 1), ("I", 2), ("II", 1), ("II", 2)])
    def test_ray_nodes_agree_with_the_tracker(self, region, seed):
        # 26 seeded points, both rays, 50 nodes each from where the series
        # hands off to t = 20, log-uniform: 2,600 nodes per case
        rng = random.Random(seed)
        sign = -1 if region == "I" else 1
        nodes = 0
        for _ in range(26):
            x = rng.uniform(0.2, 3) * cmath.exp(sign * 1j * rng.uniform(0.01, 2.08))
            ctx = classify_stokes(x)
            assert ctx.region == region
            for anchor in (0, 1):
                ray, tracked = RayField(anchor, ctx.kappa), tracked_ray(anchor, ctx.kappa)
                t_min = SERIES_HANDOFF / abs(ctx.kappa)
                for _ in range(50):
                    t = t_min * (20 / t_min) ** rng.random()
                    assert relative_gap(tracked.triple(t), ray.triple(t)) < 1e-13, (x, anchor, t)
                    nodes += 1
        assert nodes == 2600

    @pytest.mark.parametrize("region", ["I", "II"])
    def test_near_each_anchor_every_ray_node_is_the_series_value(self, region):
        # 20 seeded points, both rays, 250 nodes each with |s - base|
        # log-uniform from 1e-14 to SERIES_HANDOFF: 10,000 nodes per region,
        # and the local roots w at |w| 0.05 and 0.2 and five phases, off any
        # ray; each entry to 1e-14 relative against the series at w, the root
        # of a ray node written out as tracked_ray writes it.  A loop round
        # the anchor turns w into -w, and the series there are the entries
        # permuted as loop_permutation reads the permutation
        rng = random.Random(region)
        sign = -1 if region == "I" else 1
        roots = [cmath.rect(radius, phase) for radius in (0.05, 0.2)
                 for phase in (0.0, 0.7, 2.0, -1.2, -2.9)]
        cases = [(anchor, w, closed_form_g_triple(anchor, w)) for anchor in (0, 1) for w in roots]
        for _ in range(20):
            x = rng.uniform(0.2, 3) * cmath.exp(sign * 1j * rng.uniform(0.01, 2.08))
            ctx = classify_stokes(x)
            assert ctx.region == region
            for anchor in (0, 1):
                ray = RayField(anchor, ctx.kappa)
                for _ in range(250):
                    t = 1e-14 * (SERIES_HANDOFF / 1e-14) ** rng.random() / abs(ctx.kappa)
                    root = cmath.sqrt(ctx.kappa * t) * (1j if anchor == 1 else 1)
                    cases.append((anchor, root, ray.triple(t)))
        assert len(cases) == 20 + 10_000
        for anchor, root, triple in cases:
            perm = loop_permutation(anchor)
            series, looped = anchored_g_triple(anchor, root), anchored_g_triple(anchor, -root)
            for i in range(3):
                assert abs(series[i] - triple[i]) <= 1e-14 * abs(triple[i]), (anchor, root)
                assert (abs(looped[i] - triple[perm[i]])
                        <= 1e-14 * abs(triple[perm[i]])), (anchor, root)

    def test_the_values_are_the_roots_of_the_cubic(self):
        # solve_cubic_g, Cardano with Newton polishing, as the oracle of the
        # cubic: at 400 seeded s away from s = 0, 1/2 and 1 the three values
        # are its three roots, each to 1e-13 of the largest
        rng = random.Random(3)
        checked = 0
        while checked < 400:
            s = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
            if min(abs(s), abs(s - 0.5), abs(s - 1)) < 0.05:
                continue
            roots = solve_cubic_g(s)
            scale = max(map(abs, roots))
            values = closed_form_g_triple(0, sqrt_s(s))
            nearest = [min(range(3), key=lambda j: abs(g - roots[j])) for g in values]
            assert sorted(nearest) == [0, 1, 2], s
            assert all(abs(g - roots[j]) < 1e-13 * scale for g, j in zip(values, nearest)), s
            checked += 1

    @pytest.mark.parametrize("s", [0.3 + 0.2j, -0.4 + 0.1j, 0.1 - 0.45j, 0.55 + 0.3j])
    def test_g1_minus_g2_is_the_gauss_function(self, s):
        # DLMF 15.4.12 at a = 1/6: F(1/6, 5/6; 1/2; sin(psi)^2) =
        # cos(2 psi/3)/cos(psi), and G_1 - G_2 = (sqrt(3)/2) s^(-1/2) times it
        gauss = sum(float(c) * s ** n for n, c in enumerate(hypergeometric_oracle("+", 200)))
        g1, g2, _ = closed_form_g_triple(0, sqrt_s(s))
        want = math.sqrt(3) / 2 / sqrt_s(s) * gauss
        assert abs((g1 - g2) - want) < 1e-14 * abs(want)

    @pytest.mark.parametrize("anchor, image", [(0, lambda psi: -psi),
                                               (1, lambda psi: math.pi - psi)])
    def test_the_psi_maps_give_the_loop_permutations(self, anchor, image):
        # once round s = 0 turns psi into -psi, once round s = 1 into pi - psi
        perm = loop_permutation(anchor)
        rng = random.Random(anchor)
        for _ in range(20):
            psi = complex(rng.uniform(-3, 3), rng.uniform(-1.5, 1.5))
            triple, looped = branches._psi_triple(psi), branches._psi_triple(image(psi))
            assert relative_gap(triple, tuple(looped[perm[i]] for i in range(3))) < 1e-12
        assert perm == ((1, 0, 2) if anchor == 0 else (2, 1, 0))

    @pytest.mark.parametrize("anchor", [-1, 2, 0.5])
    @pytest.mark.parametrize("evaluate", [closed_form_g_triple, anchored_g_triple])
    def test_an_anchor_other_than_0_or_1_raises(self, evaluate, anchor):
        with pytest.raises(PreconditionError, match="anchor must be 0 or 1"):
            evaluate(anchor, 0.3)

    @pytest.mark.parametrize("root", [0j, 1.0, -1 + 0j, complex(NAN, 0.1), complex(0.2, INF)])
    def test_a_local_root_where_a_branch_diverges_or_is_not_finite_raises(self, root):
        for anchor in (0, 1):
            with pytest.raises(PreconditionError):
                closed_form_g_triple(anchor, root)


class TestIdentities:
    def test_exact_identities_through_order_six(self):
        report = verify_branch_identities(6)
        assert report.plus_identity
        assert report.minus_identity
        assert report.sum_zero_anchor0
        assert report.sum_zero_anchor1
        assert report.two_g1_plus_g2_form
        assert report.loop_anchor0 == "(1 2)"
        assert report.loop_anchor1 == "(1 3)"
        assert report.passed


def shape_1_for_shape_2(monkeypatch):
    """Hand every reader of the anchor series shape 1 where it asks for
    shape 2: G_2 at s = 0 and G_3 at s = 1 become copies of G_1.  The cached
    loop permutations are cleared, so that they are read again from these
    series; a read that raises caches nothing."""
    branches.loop_permutation.cache_clear()
    real = branches._g_series_shape
    monkeypatch.setattr(branches, "_g_series_shape",
                        lambda shape, n: real(1 if shape == 2 else shape, n))


class TestExactLoopPermutation:
    """The loop permutation read from the exact anchor series: a loop round a
    base point negates the local root, so G_i goes to the branch whose series
    is G_i with its half-integer powers negated."""

    @pytest.mark.parametrize("n_terms", [8, 18, ANCHOR_SERIES_TERMS])
    def test_the_permutation_is_the_same_at_every_order(self, n_terms):
        assert loop_permutation(0, n_terms) == (1, 0, 2)
        assert loop_permutation(1, n_terms) == (2, 1, 0)

    def test_the_default_order_is_the_anchored_one(self):
        assert loop_permutation(1) == loop_permutation(1, ANCHOR_SERIES_TERMS)

    @pytest.mark.parametrize("n_terms", [8, 18, ANCHOR_SERIES_TERMS])
    def test_the_conjugate_pairs_and_the_unramified_branch(self, n_terms):
        at_0 = branches._anchor_series(0, n_terms)
        at_1 = branches._anchor_series(1, n_terms)
        assert at_0[0].negate_root() == at_0[1]
        assert at_1[0].negate_root() == at_1[2]
        # the third branch has whole powers only
        for g in (at_0[2], at_1[1]):
            assert g.negate_root() == g
            assert all(e.denominator == 1 for e in g.terms)
        # the wrong pair: G_1 against G_2 at s = 1
        assert at_1[0].negate_root() != at_1[1]
        assert at_1[0].negate_root() != at_1[0]

    def test_the_numeric_loops_agree(self):
        for anchor, s in ((0, 0.04), (1, 0.96)):
            root = cmath.sqrt(s if anchor == 0 else 1 - s)
            triple = anchored_g_triple(anchor, root)
            looped = monodromy_triple(s, triple, float(anchor))
            perm = loop_permutation(anchor)
            assert max(abs(looped[i] - triple[perm[i]]) for i in range(3)) < 1e-9

    def test_shape_1_in_place_of_shape_2_fails_both_anchor_checks(self, monkeypatch):
        shape_1_for_shape_2(monkeypatch)
        for anchor in (0, 1):
            with pytest.raises(VerificationError, match=f"s = {anchor}"):
                loop_permutation(anchor, 18)
        report = verify_branch_identities(6)
        assert report.loop_anchor0 is None and report.loop_anchor1 is None
        assert not report.passed

    def test_an_anchor_other_than_0_or_1_raises(self):
        for anchor in (-1, 2, 0.5):
            with pytest.raises(PreconditionError):
                loop_permutation(anchor)


class TestPdeSystem:
    def test_branches_satisfy_the_holonomic_system(self):
        rng = random.Random(7)
        checked = 0
        while checked < 50:
            x = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            y = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            try:
                roots = solve_cubic_g_xy(x, y)
            except NumericError:
                continue
            for g in roots:
                r1, r2 = g_pde_residuals(x, y, g)
                assert r1 < 1e-8 and r2 < 1e-8
            checked += 1
