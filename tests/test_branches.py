"""Branch expansions, root solving, continuation, monodromy, discontinuities."""

import cmath
import itertools
import math
import random
import re
from fractions import Fraction as Fr

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from exactwkb import branches
from exactwkb.branches import (ANCHOR_SERIES_TERMS, CHART_TERMS, CHART_ZONE, COLLISION_NUDGE,
                               MATCH_MARGIN, MAX_HALVINGS, POLISH_ITERATIONS, SQRT3, STEP_REACH,
                               TRACE_START_MAX, BranchLabel, _depressed_cubic_roots,
                               _local_c_series, _match_indices, _polish_cubic,
                               _step_triple_chart, _x_series_shape, step_triple,
                               anchored_g_triple, branch_series, continue_triple,
                               crossing_chart_series, default_sqrt_rule, g_pde_residuals,
                               loop_permutation, monodromy_triple, solve_cubic_g,
                               solve_cubic_g_xy,
                               solve_cubic_x, sqrt_one_minus_s, sqrt_s,
                               trace_branch, verify_branch_identities)
from exactwkb.cli import main as cli_main
from exactwkb.errors import NumericError, PreconditionError, VerificationError
from exactwkb.series import ExactScalar, PuiseuxSeries as P

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

    def test_far_start_point_rejected(self):
        # the anchor series are trusted only within 0.35 of s = 0
        assert cli_main(["branches", "trace", "--from", "0.7"]) == 3

    @pytest.mark.parametrize("start, samples", [(TRACE_START_MAX + 1e-9, 8),
                                                (-0.36, 8), (0.05, 1), (0.05, -3)])
    def test_trace_rejects_a_far_start_or_too_few_samples(self, start, samples):
        with pytest.raises(PreconditionError):
            trace_branch("X", 3, start, 0.4, samples)

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

    def test_a_good_start_triple_keeps_the_tracker_error(self):
        # 0.02 long and ending 5e-14 from s = 0, within the halving reach of
        # that distance (0.0275), where the cubic is too degenerate to solve
        start = anchored_g_triple(0, sqrt_s(0.02))
        with pytest.raises(NumericError, match="cubic degenerates"):
            continue_triple([0.02, 5e-14], start)

    def test_a_successful_call_runs_no_diagnosis(self, monkeypatch):
        diagnosed = []
        monkeypatch.setattr(branches, "_start_triple_fault",
                            lambda s, triple: diagnosed.append(s))
        continue_triple([0.05, 0.3 + 0.2j], anchored_g_triple(0, sqrt_s(0.05)))
        assert diagnosed == []

    def test_no_derivative_at_the_double_root(self):
        # F_G = 48 s (1-s) G^2 - 3 vanishes on a root only at the double root
        # of s = 1/2, which the crossing chart handles; a value placed where
        # it vanishes (G = 5/8 at s = 1/5) raises instead of dividing by ~0
        with pytest.raises(NumericError, match="dG/ds is undefined"):
            step_triple(0.2, (0.625, 0.625, 0.625), 0.21)

    def test_a_segment_past_the_halving_reach_raises_before_any_step(self, monkeypatch):
        # 0.01 from s = 0 a first piece is 0.005 long at most, and 2^MAX_HALVINGS
        # of them reach 5.5e9, short of 1e10; the last path's third segment
        # starts on s = 1, where no piece is short enough
        steps = []
        monkeypatch.setattr(branches, "step_triple",
                            lambda s0, triple, s1: steps.append(s1) or triple)
        start = anchored_g_triple(0, sqrt_s(0.01))
        reach = 2 ** MAX_HALVINGS * STEP_REACH * 0.01
        for path in ([0.01, 1e10], [0.01, 0.01 + 1.01 * reach * 1j],
                     [0.01, 0.3, 0.3 + 1e12j], [0.01, 0.3, 1.0, 1.1]):
            with pytest.raises(PreconditionError, match=re.escape("2^MAX_HALVINGS")):
                continue_triple(path, start)
        with pytest.raises(PreconditionError, match=re.escape("2^MAX_HALVINGS")):
            trace_branch("X", 3, 0.01, 1e10, 2)
        assert steps == []

    def test_a_segment_just_within_the_halving_reach_is_walked(self):
        # straight up from s = 0.01, the distance to s = 0 and 1 only grows
        s = 0.01 + 0.99 * 2 ** MAX_HALVINGS * STEP_REACH * 0.01j
        walked = continue_triple([0.01, s], anchored_g_triple(0, sqrt_s(0.01)))
        for g in walked:
            assert abs((16 * s * (1 - s) * g * g - 3) * g - 1) < 1e-14

    @pytest.mark.parametrize("stop", ["1e10", "1e307"])
    def test_trace_past_the_halving_reach_is_3(self, stop):
        assert cli_main(["branches", "trace", "--to", stop, "--samples", "2"]) == 3

    def test_a_segment_is_measured_by_its_closest_approach(self, monkeypatch):
        # each path starts far from both branch points and runs through, or
        # within 1e-13 of, one of them; a step's start alone would allow it
        steps = []
        monkeypatch.setattr(branches, "step_triple",
                            lambda s0, triple, s1: steps.append(s1) or triple)
        start = anchored_g_triple(0, sqrt_s(0.3))
        for path, point in (([0.3, 1.5], 1), ([0.3, -0.3], 0), ([0.3, 0.6j, -0.6j], 0),
                            ([0.3, -0.3 + 1e-13j], 0), ([0.3, 2 - 1e-13j], 1),
                            ([0.3, 0.7, 1.0], 1)):
            with pytest.raises(PreconditionError, match=f"of the branch point s = {point}, "):
                continue_triple(path, start)
        assert steps == []

    @pytest.mark.parametrize("stop", ["1.5", "1e3", "1e6"])
    def test_trace_through_a_branch_point_is_3(self, stop, capsys):
        # the segment from 0.01 runs through s = 1, where no piece of it is
        # short enough for the kernel: refused, not walked into an underflow
        assert cli_main(["branches", "trace", "--to", stop, "--samples", "2"]) == 3
        assert "of the branch point s = 1, " in capsys.readouterr().err


class TestStepRule:
    """A step longer than STEP_REACH times the distance from its start to
    s = 0, 1/2 or 1 is bisected before anything is solved."""

    def test_a_step_that_passes_a_branch_point_keeps_the_labels_of_a_fine_walk(
            self, monkeypatch):
        # 0.02 long, the old fixed step of the summation rays, and 1e-6 from
        # s = 0 at its closest; bisected on ambiguous matches alone, it swapped
        # branches 2 and 3
        s0, s1 = -0.007 + 1e-6j, 0.013 + 1e-6j
        start = solve_cubic_g(s0)
        solves = []
        monkeypatch.setattr(branches, "solve_cubic_g",
                            lambda s, solve=solve_cubic_g: solves.append(s) or solve(s))
        stepped = step_triple(s0, start, s1)
        assert len(solves) > 30
        assert min(abs(s) for s in solves) < 1e-5
        # the walk: pieces of at most a quarter of the distance to the nearest
        # special point, so the rule bisects none of them
        solves.clear()
        s, walked, pieces = s0, start, 0
        unit = (s1 - s0) / abs(s1 - s0)
        while s != s1:
            length = 0.25 * min(abs(s - point) for point in (0, 0.5, 1))
            s_next = s1 if abs(s1 - s) <= length else s + length * unit
            walked = step_triple(s, walked, s_next)
            s, pieces = s_next, pieces + 1
        assert len(solves) == pieces
        assert stepped == walked


def sorted_match_indices(predicted, candidates, scale):
    """The matcher by sorting (distance, index) pairs: the test oracle."""
    taken = [False] * 3
    result = []
    for p in predicted:
        dists = sorted(((abs(p - c) / scale, j) for j, c in enumerate(candidates)))
        best, jbest = dists[0]
        second = dists[1][0]
        if taken[jbest] or (best > 0 and second < MATCH_MARGIN * best):
            return None
        taken[jbest] = True
        result.append(jbest)
    return tuple(result)


def list_match_indices(predicted, candidates, scale):
    """The matcher with a list of distances per predicted value and the
    builtin min: the form the written-out matcher must agree with."""
    taken = [False] * 3
    result = []
    for p in predicted:
        d0, d1, d2 = [abs(p - c) / scale for c in candidates]
        if d0 <= d1:
            if d2 < d0:
                jbest, best, second = 2, d2, d0
            else:
                jbest, best, second = 0, d0, min(d1, d2)
        elif d2 < d1:
            jbest, best, second = 2, d2, d1
        else:
            jbest, best, second = 1, d1, min(d0, d2)
        if taken[jbest] or not (best == 0 or second >= MATCH_MARGIN * best):
            return None
        taken[jbest] = True
        result.append(jbest)
    return tuple(result)


# points of small lattices give exact ties, zero distances and runner-ups at
# exactly MATCH_MARGIN times the nearest; finite floats give the rest
_POINTS = st.one_of(st.builds(complex, st.integers(-6, 6)),
                    st.builds(complex, st.integers(-4, 4), st.integers(-1, 1)),
                    st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                       allow_infinity=False))
_TRIPLES = st.tuples(_POINTS, _POINTS, _POINTS)


class TestMatchIndices:
    @settings(max_examples=200, deadline=None)
    @given(_TRIPLES, _TRIPLES, st.sampled_from([1.0, 0.5, 3.0, 1e-3]))
    @example((0j, 0j, 0j), (1, -1, 3), 1.0)           # a tie at the nearest
    @example((0j, 1 + 0j, 4 + 0j), (0, 1, 4), 1.0)     # zero distances
    @example((0j, 5 + 0j, 5 + 0j), (0, 5, 5), 1.0)     # a tie at zero distance
    @example((0j, -3 + 0j, 10 + 0j), (1, -3, 10), 1.0)  # runner-up at exactly MATCH_MARGIN
    # a runner-up inside the margin in each position of nearest and runner-up
    @example((0j, 5 + 0j, -2 + 0j), (1, 5, -2), 1.0)
    @example((0j, -2 + 0j, 5 + 0j), (5, -2, 1), 1.0)
    @example((0j, 5 + 0j, -2 + 0j), (5, 1, -2), 1.0)
    @example((0j, -2 + 0j, 5 + 0j), (-2, 1, 5), 1.0)
    def test_comparisons_choose_as_sorting_does(self, predicted, candidates, scale):
        assert (_match_indices(predicted, candidates, scale)
                == sorted_match_indices(predicted, candidates, scale))

    def test_margin_boundary(self):
        # a runner-up at exactly MATCH_MARGIN times the nearest is accepted, a
        # hair nearer is ambiguous
        assert _match_indices((0j, -3 + 0j, 10 + 0j), (1, -3, 10), 1.0) == (0, 1, 2)
        assert _match_indices((0j, -3 + 0j, 10 + 0j), (1, -2.9999999, 10), 1.0) is None

    @pytest.mark.parametrize("predicted, candidates", [
        ((math.nan, 0, 5), (0, 1, 5)),     # a NaN prediction: every distance NaN
        ((0, 1, 5), (math.nan, 1, 5)),     # a NaN candidate in each position
        ((0, 1, 5), (0, math.nan, 5)),
        ((0, 1, 5), (0, 1, math.nan)),
        ((0, 1, complex(5, math.nan)), (0, 1, 5)),
    ])
    def test_nan_distance_is_ambiguous(self, predicted, candidates):
        assert _match_indices(predicted, candidates, 1.0) is None

    @settings(max_examples=200, deadline=None)
    @given(_TRIPLES, _TRIPLES, st.sampled_from([1.0, 0.5, 3.0, 1e-3]))
    @example((0j, 0j, 0j), (1, -1, 3), 1.0)
    @example((0j, 1 + 0j, 4 + 0j), (0, 1, 4), 1.0)
    @example((0j, 5 + 0j, -2 + 0j), (1, 5, -2), 1.0)
    @example((0j, -2 + 0j, 5 + 0j), (-2, 1, 5), 1.0)
    @example((math.nan, 0, 5), (0, 1, 5), 1.0)
    @example((0, 1, 5), (0, 1, math.nan), 1.0)
    def test_written_out_comparisons_choose_as_the_list_form_does(
            self, predicted, candidates, scale):
        assert (_match_indices(predicted, candidates, scale)
                == list_match_indices(predicted, candidates, scale))


# ---------------------------------------------------------------------------
# the tracker kernel composed of its small steps, as it was before it was
# written out: Cardano and three Newton polishes, dG/ds per branch and the
# list-form matcher.  The written-out kernel must keep every bit of it.
# ---------------------------------------------------------------------------

def cardano_roots(p, q):
    if p == 0 and q == 0:
        return (0j, 0j, 0j)
    disc = (q / 2) ** 2 + (p / 3) ** 3
    u3 = -q / 2 + cmath.sqrt(disc)
    if abs(u3) < 1e-30:
        u3 = -q / 2 - cmath.sqrt(disc)
    u = u3 ** (1.0 / 3.0)
    omega = complex(-0.5, SQRT3 / 2)
    roots = []
    for k in range(3):
        uk = u * omega ** k
        roots.append(uk - p / (3 * uk))
    return tuple(roots)


def newton_polish(a3, a1, a0, root):
    t = root
    for _ in range(POLISH_ITERATIONS):
        f = (a3 * t * t * t) + a1 * t + a0
        fp = 3 * a3 * t * t + a1
        if abs(fp) < 1e-13 * max(1.0, abs(a3 * t * t)):
            break
        step = f / fp
        t -= step
        if abs(step) <= 1e-16 * max(1.0, abs(t)):
            break
    return t


def composed_solve_cubic_g(s):
    a3 = 16 * s * (1 - s)
    if abs(a3) < 1e-12:
        raise NumericError(f"cubic degenerates at s = {s}")
    if not cmath.isfinite(a3):
        raise PreconditionError(f"16 s (1-s) is not finite at s = {s!r}")
    p = -3 / a3
    q = -1 / a3
    return tuple(newton_polish(a3, -3, -1, r) for r in cardano_roots(p, q))


def g_derivative(s, g):
    f_s = 16 * (1 - 2 * s) * g ** 3
    f_g = 48 * s * (1 - s) * g ** 2 - 3
    if abs(f_g) < 1e-12:
        raise NumericError(f"dG/ds is undefined at the double root G = {g} of s = {s}")
    return -f_s / f_g


def composed_step_triple(s0, triple, s1, depth=0):
    if depth > MAX_HALVINGS:
        raise NumericError(f"continuation step underflow near s = {s0}")
    if abs(s1 - 0.5) < CHART_ZONE or abs(s0 - 0.5) < CHART_ZONE:
        return _step_triple_chart(s0, triple, s1, depth)
    ds = s1 - s0
    special = [abs(s0 - point) for point in (0, 0.5, 1)]
    if abs(ds) > STEP_REACH * min(special):
        return composed_bisected_step(s0, triple, s1, depth)
    predicted = tuple(g + g_derivative(s0, g) * ds for g in triple)
    candidates = list(composed_solve_cubic_g(s1))
    scale = max(1.0, max(abs(g) for g in triple))
    matched = list_match_indices(predicted, candidates, scale)
    if matched is None:
        return composed_bisected_step(s0, triple, s1, depth)
    return tuple(candidates[j] for j in matched)


def composed_bisected_step(s0, triple, s1, depth):
    mid = (s0 + s1) / 2
    if abs(mid - 0.5) < COLLISION_NUDGE:
        mid += 2 * COLLISION_NUDGE * (s1 - s0) / max(abs(s1 - s0), 1e-30)
    half = composed_step_triple(s0, triple, mid, depth + 1)
    return composed_step_triple(mid, half, s1, depth + 1)


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
        assert outcome(solve_cubic_g, s) == outcome(composed_solve_cubic_g, s)

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
    @given(st.complex_numbers(max_magnitude=2, **_FINITE),
           st.complex_numbers(max_magnitude=0.3, **_FINITE),
           st.permutations([0, 1, 2]))
    @example(0.1 + 0.05j, 0.2, [0, 1, 2])      # steps that halve, see below
    @example(0.9 + 0.05j, -0.3, [2, 0, 1])
    @example(0.3 + 0.2j, 0.01, [1, 2, 0])
    def test_step_triple_off_the_chart(self, s0, ds, order):
        s1 = s0 + ds
        assume(abs(s0 - 0.5) >= CHART_ZONE and abs(s1 - 0.5) >= CHART_ZONE)
        assume(abs(16 * s0 * (1 - s0)) >= 1e-12)
        roots = solve_cubic_g(s0)
        triple = tuple(roots[j] for j in order)
        assert (outcome(step_triple, s0, triple, s1)
                == outcome(composed_step_triple, s0, triple, s1))

    @pytest.mark.parametrize("s0, triple, s1", [
        (0.2, (NAN, 0j, 1 + 0j), 0.21),                  # matching fails at every depth
        (0.2, (complex(0.3, NAN), 0j, 1 + 0j), 0.21),
        (0.2, solve_cubic_g(0.2), complex(NAN, 0.0)),
        (complex(NAN, NAN), solve_cubic_g(0.2), 0.21),
        (0.2, (0.625, 0.625, 0.625), 0.21),              # F_G = 0: dG/ds undefined
    ])
    def test_step_triple_on_nan_and_undefined_inputs(self, s0, triple, s1):
        assert (outcome(step_triple, s0, triple, s1)
                == outcome(composed_step_triple, s0, triple, s1))

    @pytest.mark.parametrize("s0, ds, pieces", [
        # 0.112 from s = 0 a piece may be 0.056 long: 0.2 halves twice; 0.158
        # from 0 it may be 0.079, 0.206 from 0 it may be 0.103
        (0.1 + 0.05j, 0.2, (0.05, 0.05, 0.1)),
        # 0.112 from s = 1: -0.3 halves three times; then 0.146, 0.182 from 1,
        # 0.255 from 1 and 1/2, and 0.182 from 1/2
        (0.9 + 0.05j, -0.3, (-0.0375, -0.0375, -0.075, -0.075, -0.075)),
        # past s = 1/2 at 0.06, outside the crossing chart: 0.117, 0.078, 0.065,
        # 0.06, 0.065, 0.078 and 0.096 from 1/2
        (0.6 + 0.06j, -0.2, (-0.05, -0.025, -0.025, -0.025, -0.025, -0.025, -0.025)),
    ])
    def test_the_examples_halve(self, monkeypatch, s0, ds, pieces):
        # the step rule bisects before it solves, so the only solves are at the
        # ends of the pieces; matching alone halved the first two steps after a
        # solve at each rejected end, 5 and 9 solves, and took the third in one
        solves = []
        monkeypatch.setattr(branches, "solve_cubic_g",
                            lambda s, solve=solve_cubic_g: solves.append(s) or solve(s))
        step_triple(s0, solve_cubic_g(s0), s0 + ds)
        ends = list(itertools.accumulate(pieces, initial=s0))[1:]
        assert len(solves) == len(pieces)
        assert max(abs(s - end) for s, end in zip(solves, ends)) < 1e-15

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
    def test_a_step_bisected_onto_the_crossing_keeps_the_labels(self, center):
        # 0.45 -> 0.55 bisects onto s = 1/2 exactly, where the crossing
        # branches take one value; after the loop around s = 1 the chart's
        # conventional order there swapped branches 1 and 2 of the triple
        moved = continue_triple([0.05, 0.45], anchored_g_triple(0, sqrt_s(0.05)))
        looped = monodromy_triple(0.45, moved, center)
        walked = continue_triple([0.45 + 0.001 * k for k in range(101)], looped)
        for stepped in (step_triple(0.45, looped, 0.55),
                        continue_triple([0.45, 0.55], looped)):
            assert max(abs(a - b) for a, b in zip(stepped, walked)) < 1e-12

    def test_regular_loop_has_zero_discontinuity(self):
        from exactwkb.branches import _loop_path
        s0 = 0.04
        triple = anchored_g_triple(0, cmath.sqrt(s0))
        moved = continue_triple([s0, 0.5 + 0.3j], triple)
        loop = _loop_path(0.5 + 0.3j, 0.3 + 0.3j)
        returned = continue_triple([0.5 + 0.3j, *loop], moved)
        assert max(abs(a - b) for a, b in zip(returned, moved)) < 1e-10


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
    shape 2: G_2 at s = 0 and G_3 at s = 1 become copies of G_1."""
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
