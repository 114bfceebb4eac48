"""Stokes classification, the Airy oracle, Borel sums and connection checks."""

import ast
import builtins
import cmath
import dataclasses
import functools
import importlib
import importlib.util
import json
import math
import random
import sys
from pathlib import Path

import mpmath
import pytest

from exactwkb import branches, resummation
from exactwkb.branches import (_loop_path, anchored_g_triple, continue_triple,
                               loop_permutation, monodromy_triple, sqrt_s)
from exactwkb.errors import NumericError, PreconditionError, VerificationError
from exactwkb.resummation import (AIRY_ORACLE_TOL, VOROS_QUAD_TOL,
                                  BorelSum, RayField, _laplace_quadrature, _scaled_sum,
                                  airy_reference, classify_stokes,
                                  formal_solution_partial_sum, gamma_term,
                                  laplace_sum, verify_airy_connection,
                                  verify_voros)
from exactwkb.verify import _voros_grid_points, run_voros_grid
from root_tracker import SERIES_HANDOFF, match_indices, tracked_continue_triple

SQRT_PI = math.sqrt(math.pi)
NAN = float("nan")
INF = float("inf")
# the two points of the voros benchmark bundle: (|x| e^(i pi/6), eta)
BENCH_POINTS = [(0.8 * cmath.exp(1j * math.pi / 6), 8.0),
                (1.2 * cmath.exp(1j * math.pi / 6), 12.0)]


def _recorded(name):
    return json.loads((Path(__file__).parent / "data" / name).read_text())


def minus_sum(ctx, eta, tol=VOROS_QUAD_TOL):
    return laplace_sum("-", ctx, eta, tol)


def numeric_loop_permutation(s, triple, center):
    """The permutation of ``triple`` by one numeric loop from s around
    ``center``: the looped value of entry i is ``triple[pi[i]]``, matched
    under the test tracker's MATCH_MARGIN rule."""
    looped = monodromy_triple(s, triple, center)
    perm = match_indices(looped, triple, max(1.0, max(abs(g) for g in triple)))
    assert perm is not None, f"looped triple at s = {s} matches no permutation"
    return perm


def delta_g3_cut(ctx, eta, tol):
    """The cut term as the Laplace integral of Delta g_3 along the "-" ray.

    -1/sqrt(pi) times the integral of Delta g_3 = triple[pi(3)] - triple[3],
    on a ray of its own, with pi from one numeric loop from the ray's node at
    |s - 1| = SERIES_HANDOFF.  Near s = 1 the looped value is the exact local
    element at -w (one turn flips the local root);
    ``TestClosedForm::test_near_each_anchor_every_ray_node_is_the_series_value``
    holds that against the permuted entry taken here.
    """
    ray = RayField(1, ctx.kappa)
    t_exit = SERIES_HANDOFF / abs(ctx.kappa)
    image = numeric_loop_permutation(ctx.ray_point("-", t_exit), ray.triple(t_exit),
                                     1.0 + 0j)[2]
    inv_pref = 1.0 / (SQRT_PI * ctx.x)

    def integrand(t):
        triple = ray.triple(t)
        return -(triple[image] - triple[2]) * inv_pref

    raw, err = _laplace_quadrature(integrand, eta, tol)
    return _scaled_sum("+", ctx, eta, ctx.alpha_minus, raw, err)


def literal_loop_cut(ctx, eta, offset_angle=0.12, inner_radius=1e-4, arc_steps=96):
    """The cut term by literal loop quadrature.

    Integrates the continued "+" integrand along an explicit contour hugging
    the "-" cut (in from one side, a small circle around the singular point
    the long way, back out on the other side), with the branch field tracked
    continuously along the path from the "+" ray anchor; trapezoid rule on
    geometric radii.  The traversal direction matches the clockwise
    convention whose sign is pinned by the discontinuity reduction.
    """
    kappa = ctx.kappa
    theta = cmath.phase(kappa)
    decay = max(-math.log(1e-9), 30.0)
    t_max = decay / eta
    rho_max = abs(kappa) * t_max
    radii = [inner_radius * (rho_max / inner_radius) ** (k / 159) for k in range(160)]

    def s_at(rho, ang):
        return 1 + rho * cmath.exp(1j * ang)

    def y_of(s):
        return (4.0 / 3.0) * ctx.x_three_halves * (s - 0.5)

    # branch field connected to the "+" ray: start near s = 0 on that ray
    start_s = SERIES_HANDOFF * kappa / abs(kappa)
    state = {"s": start_s, "triple": anchored_g_triple(0, sqrt_s(start_s))}

    def advance(s_to):
        state["triple"] = continue_triple([state["s"], s_to], state["triple"])
        state["s"] = s_to
        return state["triple"]

    def integrand(s):
        g1, g2, _ = advance(s)
        return (g1 - g2) / (SQRT_PI * ctx.x) * cmath.exp(-y_of(s) * eta)

    total = 0j
    # side A: inward along angle theta + offset
    ang_a = theta + offset_angle
    prev = s_at(radii[-1], ang_a)
    advance(prev)
    for rho in radii[-2::-1]:
        s_next = s_at(rho, ang_a)
        total += 0.5 * (integrand(prev) + integrand(s_next)) * (s_next - prev)
        prev = s_next
    # around the singular point the long way (through theta + pi)
    for k in range(1, arc_steps + 1):
        ang = ang_a + (2 * math.pi - 2 * offset_angle) * k / arc_steps
        s_next = s_at(inner_radius, ang)
        total += 0.5 * (integrand(prev) + integrand(s_next)) * (s_next - prev)
        prev = s_next
    # side B: outward along angle theta - offset (reached around the loop)
    ang_b = ang_a + 2 * math.pi - 2 * offset_angle
    for rho in radii[1:]:
        s_next = s_at(rho, ang_b)
        total += 0.5 * (integrand(prev) + integrand(s_next)) * (s_next - prev)
        prev = s_next
    return total * (4.0 / 3.0) * ctx.x_three_halves


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

    @pytest.mark.parametrize("z", [complex(NAN, 0), complex(0, NAN), complex(INF, 0),
                                   complex(-INF, 0), complex(0, INF), complex(0, -INF)])
    def test_a_z_that_is_not_finite_raises(self, z):
        with pytest.raises(PreconditionError, match="outside the oracle's documented range"):
            airy_reference(z)

    def test_a_failed_attempt_escalates_and_the_fourth_raises(self, monkeypatch):
        tried = []

        def failing(z, dps):
            tried.append(dps)
            return resummation.AiryValues(0j, 0j, 0j, 0j), False

        monkeypatch.setattr(resummation, "_airy_series_attempt", failing)
        with pytest.raises(NumericError, match="could not reach the requested accuracy"):
            airy_reference(8.0)
        expected = [25 + int(0.62 * 8 ** 1.5)]
        for _ in range(3):
            expected.append(int(expected[-1] * 1.6) + 10)
        assert tried == expected

    def test_an_escalated_attempt_that_passes_is_returned(self, monkeypatch):
        attempt = resummation._airy_series_attempt
        tried = []

        def failing_twice(z, dps):
            tried.append(dps)
            values, ok = attempt(z, dps)
            return values, ok and len(tried) == 3

        monkeypatch.setattr(resummation, "_airy_series_attempt", failing_twice)
        got = airy_reference(8.0)
        assert len(tried) == 3
        assert got == attempt(8.0 + 0j, tried[-1])[0]


def mpmath_airy(z: complex) -> list:
    """Ai, Bi, Ai', Bi' at z from mpmath at 50 digits, in AiryValues order."""
    with mpmath.workdps(50):
        zm = mpmath.mpc(z)
        return [complex(f(zm, derivative=d))
                for d in (0, 1) for f in (mpmath.airyai, mpmath.airybi)]


def _accuracy_sweep() -> list:
    """120 seeded points of |z| <= 40 over all arguments."""
    rng = random.Random(1717)
    return [cmath.rect(40 * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi))
            for _ in range(120)]


def _near_real_zeros() -> list:
    """Points at and beside negative real zeros of Ai, Bi, Ai' and Bi'."""
    points = []
    with mpmath.workdps(30):
        for zero in (mpmath.airyaizero, mpmath.airybizero):
            for derivative in (0, 1):
                for k in (1, 2, 10, 50):
                    at = float(zero(k, derivative=derivative))
                    points += [complex(at), complex(at + 1e-9), complex(at, 1e-6)]
    return points


class TestOracleAccuracy:
    """airy_reference against mpmath at 50 digits, to the accuracy its
    docstring states."""

    @staticmethod
    def _values(z):
        v = airy_reference(z)
        return [v.ai, v.bi, v.ai_prime, v.bi_prime]

    @pytest.mark.parametrize("z", _accuracy_sweep())
    def test_every_value_reaches_the_relative_tolerance(self, z):
        for got, want in zip(self._values(z), mpmath_airy(z)):
            assert abs(got - want) <= AIRY_ORACLE_TOL * abs(want)

    @pytest.mark.parametrize("z", _near_real_zeros())
    def test_near_the_real_zeros_the_error_is_absolute(self, z):
        ai, bi, aip, bip = mpmath_airy(z)
        scales = [max(abs(ai), abs(bi))] * 2 + [max(abs(aip), abs(bip))] * 2
        for got, want, scale in zip(self._values(z), (ai, bi, aip, bip), scales):
            assert abs(got - want) <= AIRY_ORACLE_TOL * scale


class TestOracleKeepsItsBits:
    """Every AiryValues field, held bit for bit (as float.hex) at z = 0, the
    benchmark points, every point of both Voros grids, the Airy link's points
    and their rotations, |z| = 11.7, 25 and 40 in twelve directions and a few
    more."""

    RECORDED = _recorded("airy_reference_pins.json")

    @staticmethod
    def _z(record):
        return complex(float.fromhex(record["z"][0]), float.fromhex(record["z"][1]))

    def test_recorded_points_cover_the_checks_that_call_the_oracle(self):
        recorded = {self._z(record) for record in self.RECORDED}
        voros = BENCH_POINTS + _voros_grid_points("quick") + _voros_grid_points("default")
        assert {eta ** (2.0 / 3.0) * complex(x) for x, eta in voros} <= recorded
        for x, eta in ((cmath.exp(-1j * math.pi / 6), 10.0),
                       (cmath.exp(-1j * math.pi / 6), 5.0), (complex(0.866, -0.5), 10.0)):
            z = eta ** (2.0 / 3.0) * x
            assert {z, z * cmath.exp(2j * math.pi / 3)} <= recorded
        assert {abs(z) for z in recorded} >= {0.0, 40.0}

    @pytest.mark.parametrize("index", range(len(RECORDED)))
    def test_values_keep_their_bits(self, index):
        record = self.RECORDED[index]
        values = airy_reference(self._z(record))
        for name in ("ai", "bi", "ai_prime", "bi_prime"):
            value = getattr(values, name)
            assert [value.real.hex(), value.imag.hex()] == record[name], name


MPC_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                  "__truediv__", "__rtruediv__", "__pow__", "__rpow__", "__neg__",
                  "__pos__", "__abs__")


def count_mpc_arithmetic(monkeypatch) -> list:
    """Count every arithmetic call on mpmath.mpc; the returned list holds it."""
    calls = [0]
    for name in MPC_ARITHMETIC:
        method = getattr(mpmath.mpc, name)

        def counted(*args, _method=method):
            calls[0] += 1
            return _method(*args)

        monkeypatch.setattr(mpmath.mpc, name, counted)
    return calls


def _global_names(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


class TestOracleCostAndIndependence:
    def test_mpc_arithmetic_does_not_grow_with_the_terms(self, monkeypatch):
        # |z| = 1 sums about 10 terms, |z| = 40 about 330; both in one attempt
        counts = []
        for r in (1.0, 40.0):
            z = cmath.rect(r, 0.7)
            airy_reference(z)   # fills the per-dps constants
            calls = count_mpc_arithmetic(monkeypatch)
            airy_reference(z)
            counts.append(calls[0])
            monkeypatch.undo()
        assert counts[0] == counts[1] < 40

    def test_the_series_loop_names_no_wkb_branch_or_borel_code(self):
        """_airy_series_attempt and the resummation helpers it calls refer to
        no name of airy_wkb, airy_borel or branches, and to no name the
        Borel-sum code of resummation defines or imports."""
        from exactwkb import airy_borel, airy_wkb, branches

        source = Path(resummation.__file__).read_text()
        tree = ast.parse(source)
        lines = source.splitlines()
        start = lines.index("# independent Airy oracle") + 1
        end = lines.index("# verification reports") + 1
        oracle, elsewhere = {}, set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, ast.Assign):
                names = set().union(*map(_global_names, node.targets))
            elif isinstance(node, ast.AnnAssign):
                names = _global_names(node.target)
            elif isinstance(node, ast.ImportFrom) and node.module != "errors" and node.level:
                names = {alias.asname or alias.name for alias in node.names}
            else:
                continue
            if start < node.lineno < end:
                oracle.update(dict.fromkeys(names, node))
            else:
                elsewhere |= names
        foreign = {"airy_wkb", "airy_borel", "branches"} | elsewhere
        for module in (airy_wkb, airy_borel, branches):
            foreign |= {name for name, value in vars(module).items()
                        if getattr(value, "__module__", None) == module.__name__
                        or isinstance(value, (int, float, complex, str, tuple))}
        foreign -= set(vars(builtins))
        seen, todo = set(), ["_airy_series_attempt"]
        while todo:
            name = todo.pop()
            seen.add(name)
            todo += [n for n in _global_names(oracle[name]) if n in oracle and n not in seen]
        used = set().union(*(_global_names(oracle[name]) for name in seen))
        assert "_airy_constants" in seen and "AIRY_GUARD_BITS" in used
        assert used & foreign == set()


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

    def test_overflow_raises(self):
        # region II at |x| = 3: e^(-alpha eta) overflows at eta = 300, and at
        # eta = 289.5 it is finite but the scaled sum is not
        ctx = classify_stokes(3 * cmath.exp(1j * math.pi / 6))
        with pytest.raises(NumericError, match=r"e\^\(-alpha eta\) overflows"):
            laplace_sum("+", ctx, 300.0)
        with pytest.raises(NumericError, match="overflows the sum"):
            _scaled_sum("+", ctx, 289.5, ctx.alpha_plus, 1e10 + 0j, 0.0)
        assert _scaled_sum("+", ctx, 289.5, ctx.alpha_plus, 1e-10 + 0j, 0.0).value

    def test_cut_term_underflow_raises(self):
        # the cut term is i times the region-II "-" sum, which underflows first
        ctx = classify_stokes(cmath.exp(1j * math.pi / 6))
        with pytest.raises(NumericError):
            gamma_term(ctx, minus_sum(ctx, 2000.0))

    def test_homogeneity(self):
        x = cmath.exp(-1j * math.pi / 6)
        eta = 10.0
        for lam in (0.8, 1.25):
            for sign in "+-":
                scaled = laplace_sum(sign, classify_stokes(lam * lam * x),
                                     eta / lam ** 3, 1e-12).value
                base = laplace_sum(sign, classify_stokes(x), eta, 1e-12).value
                assert abs(scaled - lam * base) / abs(lam * base) < 1e-10


class TestLaplaceQuadrature:
    """Adaptive panels against closed forms, and each Gauss sum formed once."""

    def test_gauss_rule_is_the_16_point_legendre_rule(self):
        """The literal rule against a 40-digit Newton solve of P_16 in mpmath.

        The nodes are correctly rounded; the weights are numpy's, off the
        exact ones by up to 63 ulp (about 1e-14 relative), and are kept so
        that every Laplace sum keeps its bits."""
        nodes, weights = resummation._GL_NODES, resummation._GL_WEIGHTS
        assert len(nodes) == len(weights) == 16
        assert list(nodes) == sorted(nodes)
        with mpmath.workdps(40):
            for x, w in zip(nodes, weights):
                root = mpmath.findroot(lambda t: mpmath.legendre(16, t), mpmath.mpf(x))
                slope = 16 * (root * mpmath.legendre(16, root)
                              - mpmath.legendre(15, root)) / (root ** 2 - 1)
                exact_weight = 2 / ((1 - root ** 2) * slope ** 2)
                assert abs(x - root) <= math.ulp(x)
                assert abs(w - exact_weight) <= 4e-14 * exact_weight

    def test_top_legendre_rows_read_the_top_coefficients(self):
        """Applied to the node values of P_m, the two rows read the Legendre
        coefficients c_14 and c_15 of P_m: 1 where m is the row's degree, 0
        for every other m <= 15 (the 16-point rule is exact through 31)."""
        nodes = resummation._GL_NODES
        for m in range(16):
            values = [float(mpmath.legendre(m, x)) for x in nodes]
            for degree, row in ((14, resummation._LEGENDRE_14),
                                (15, resummation._LEGENDRE_15)):
                coefficient = sum(r * v for r, v in zip(row, values))
                assert abs(coefficient - (m == degree)) <= 1e-13
        # so a polynomial of degree 13 leaves only rounding in the estimate
        _, estimate = resummation._gauss_sum(lambda u: u ** 13, 0.0, 1.0)
        assert estimate <= 1e-14

    @pytest.mark.parametrize("k", [1.0, 10.0, 30.0, 60.0])
    def test_gauss_sum_estimate_not_below_its_error(self, k):
        for f, exact in ((lambda u: cmath.exp(k * u), (cmath.exp(k) - 1) / k),
                         (lambda u: math.cos(k * u), math.sin(k) / k)):
            value, estimate = resummation._gauss_sum(f, 0.0, 1.0)
            assert estimate >= abs(value - exact)

    @pytest.mark.parametrize("integrand,exact,bisects,extends_tail", [
        (lambda t: 1.0, 1 / 8, False, False),
        (lambda t: math.cos(40 * t), 8 / (64 + 1600), True, False),
        (lambda t: math.exp(0.8 * 8 * t), 1 / (8 * 0.2), False, True),
    ], ids=["smooth", "oscillating", "slow tail"])
    def test_each_gauss_sum_is_formed_once(self, monkeypatch, integrand, exact,
                                           bisects, extends_tail):
        calls = []
        depths = []
        real_panel = resummation._adaptive_panel

        def counting_integrand(t):
            calls.append(t)
            return integrand(t)

        def recording_panel(f, a, b, halves, tol_abs, floor, depth=0):
            depths.append(depth)
            return real_panel(f, a, b, halves, tol_abs, floor, depth)

        monkeypatch.setattr(resummation, "_adaptive_panel", recording_panel)
        value, estimate = _laplace_quadrature(counting_integrand, 8.0, 1e-10)
        assert abs(value - exact) <= 1e-12 * exact
        # the estimate, tail remainder included, is not below the achieved error
        assert estimate >= abs(value - exact)
        # 2 x 16 nodes for the halves of every panel and no other Gauss sum: a
        # bisected panel's children form the halves of their own
        top = depths.count(0)
        assert len(calls) == 32 * len(depths)
        assert (len(depths) > top) == bisects
        # the main panels plus one tail panel, unless the tail had to extend
        main_panels = len(resummation._laplace_panels(8.0, 1e-10)[0]) - 1
        assert (top > main_panels + 1) == extends_tail


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
        assert report.passed

    def test_airy_witness_rejects_wrong_branch_pair(self, monkeypatch):
        """A cut term from g_2 - g_3 in place of g_1 - g_3 fails the jump gate."""
        def wrong_pair_gamma_term(ctx, minus):
            ray = RayField(1, ctx.kappa)

            # i times the "-" sum is the cut term; with g_1 and g_2 swapped it
            # integrates -(g_2 - g_3) / (sqrt(pi) x)
            def swapped(t):
                _, g2, g3 = ray.triple(t)
                return 1j * (g2 - g3) / (SQRT_PI * ctx.x)

            raw, err = _laplace_quadrature(swapped, minus.eta, VOROS_QUAD_TOL)
            wrong = _scaled_sum("-", ctx, minus.eta, ctx.alpha_minus, raw, err)
            return BorelSum("+", ctx.region, minus.eta, 1j * wrong.value,
                            wrong.quadrature_error_estimate, ctx.x)

        monkeypatch.setattr(resummation, "gamma_term", wrong_pair_gamma_term)
        report = verify_voros(cmath.exp(1j * math.pi / 6), 8.0)
        assert report.plus_residual > 100 * resummation.VOROS_PLUS_TOL
        assert report.minus_residual < resummation.VOROS_MINUS_TOL
        assert not report.passed
        grid = run_voros_grid("quick")
        assert all(point["plus_residual"] > 10 * resummation.VOROS_PLUS_TOL
                   and point["minus_residual"] < resummation.VOROS_MINUS_TOL
                   for point in grid.body["points"])
        assert not grid.passed

    def test_grid_fails_on_a_nan_residual(self, monkeypatch):
        # max(0.0, nan) is 0.0: a gate on the running maximum would pass this
        real_verify_voros = resummation.verify_voros

        def nan_minus_residual(x, eta):
            return dataclasses.replace(real_verify_voros(x, eta),
                                       minus_residual=math.nan)

        monkeypatch.setattr(resummation, "verify_voros", nan_minus_residual)
        assert not run_voros_grid("quick").passed

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
        assert not run_voros_grid("quick").passed

    def test_cut_term_equals_jump(self):
        """i * (the "-" sum) is the Laplace integral of Delta g_3, bit for bit,
        at both benchmark points and on the quick grid."""
        points = set(BENCH_POINTS) | set(_voros_grid_points("quick"))
        assert len(points) == 3
        for x, eta in points:
            ctx = classify_stokes(x)
            cut = gamma_term(ctx, minus_sum(ctx, eta)).value
            assert cut == delta_g3_cut(ctx, eta, VOROS_QUAD_TOL).value

    def test_literal_loop_cross_check(self):
        ctx = classify_stokes(cmath.exp(1j * math.pi / 6))
        literal = literal_loop_cut(ctx, 8.0)
        reduced = gamma_term(ctx, minus_sum(ctx, 8.0, 1e-8)).value
        assert abs(literal - reduced) / abs(reduced) < 5e-3
        # the continued "+" sum, direct region-II integral plus either cut term
        direct = laplace_sum("+", ctx, 8.0, 1e-8).value
        by_delta, by_literal = direct + reduced, direct + literal
        assert abs(by_delta - by_literal) / abs(by_delta) < 1e-5

    def test_region_I_input_rejected_for_continuation(self):
        with pytest.raises(PreconditionError):
            verify_voros(cmath.exp(-1j * math.pi / 6), 8.0)


class TestRayMonodromy:
    """The exact loop permutations against numeric loops from nodes of the
    "-" ray, and the cut term that reads the one at s = 1."""

    @pytest.mark.parametrize("center", [0.0, 1.0])
    @pytest.mark.parametrize("point", BENCH_POINTS)
    def test_a_loop_keeps_the_bits_of_a_fine_walk(self, point, center):
        # one segment per chord of the loop against waypoints every 0.01
        # along the same chords: both end on the same determination of psi
        # at the loop's last corner
        ctx = classify_stokes(point[0])
        t = SERIES_HANDOFF / abs(ctx.kappa)
        s, triple = ctx.ray_point("-", t), RayField(1, ctx.kappa).triple(t)
        corners = [s, *_loop_path(s, center)]
        fine = [s]
        for a, b in zip(corners, corners[1:]):
            n = math.ceil(abs(b - a) / 0.01)
            fine += [a + (b - a) * k / n for k in range(1, n)] + [b]
        walked = continue_triple(fine, triple)
        assert monodromy_triple(s, triple, center) == walked
        # and the loop permutes the "-" ray triple as the exact series at its
        # center do
        scale = max(1.0, max(abs(g) for g in triple))
        assert match_indices(walked, triple, scale) == loop_permutation(int(center))

    @pytest.mark.parametrize("arg", [0.3, math.pi / 6, 1.9])
    def test_permutation_matches_loop_at_each_node(self, arg):
        """Branch 3 goes to branch 1 at every node, so the cut term is i * minus."""
        ctx = classify_stokes(cmath.exp(1j * arg))
        field = RayField(1, ctx.kappa)
        # one node inside the 0.35 loop radius, two beyond it, and the far end
        # of the Laplace range at eta 8
        t_far = resummation._laplace_panels(8.0, VOROS_QUAD_TOL)[0][-1] ** 2
        for t in [rho / abs(ctx.kappa) for rho in (0.2, 0.9, 2.0)] + [t_far]:
            triple = field.triple(t)
            s = ctx.ray_point("-", t)
            assert numeric_loop_permutation(s, triple, 1.0) == loop_permutation(1)
            looped = monodromy_triple(s, triple, 1.0)
            want = looped[2] - triple[2]
            assert abs((triple[0] - triple[2]) - want) <= 1e-12 * abs(want)
        minus = minus_sum(ctx, 8.0)
        assert gamma_term(ctx, minus).value == 1j * minus.value

    def test_only_a_minus_sum_of_the_same_region_is_taken(self):
        ctx = classify_stokes(cmath.exp(1j * math.pi / 6))
        minus = minus_sum(ctx, 8.0)
        other_region = minus_sum(classify_stokes(cmath.exp(-1j * math.pi / 6)), 8.0)
        for wrong in (laplace_sum("+", ctx, 8.0), other_region):
            with pytest.raises(PreconditionError):
                gamma_term(ctx, wrong)
        # ctx carries no eta; the cut term is a sum at the "-" sum's own eta,
        # which must be one a sum can be taken at
        for eta in (0.0, -8.0, math.nan, math.inf):
            with pytest.raises(PreconditionError):
                gamma_term(ctx, dataclasses.replace(minus, eta=eta))

    def test_the_cut_takes_the_minus_sum_of_its_own_x(self):
        ctx = classify_stokes(cmath.exp(1j * math.pi / 6))
        minus = minus_sum(ctx, 8.0)
        assert minus.x == ctx.x
        other_x = minus_sum(classify_stokes(1.2 * cmath.exp(1j * math.pi / 6)), 8.0)
        for wrong in (dataclasses.replace(minus, x=ctx.x * 1.0000001), other_x):
            with pytest.raises(PreconditionError, match="x ="):
                gamma_term(ctx, wrong)
        assert gamma_term(ctx, minus).x == ctx.x

    @pytest.mark.parametrize("point", BENCH_POINTS)
    def test_the_voros_check_walks_no_loop(self, monkeypatch, point):
        """verify_voros builds one RayField per sign and reads the cut term's
        permutation from the exact series: no loop and no polyline walk."""
        built = []

        class RecordedRay(RayField):
            def __init__(self, anchor, kappa):
                super().__init__(anchor, kappa)
                built.append(self)

        loops = count_calls(monkeypatch, "exactwkb.branches", "monodromy_triple")
        walks = count_calls(monkeypatch, "exactwkb.branches", "continue_triple")
        monkeypatch.setattr(resummation, "RayField", RecordedRay)
        assert verify_voros(*point).passed
        assert [ray.anchor for ray in built] == [0, 1]
        assert loops[0] == walks[0] == 0

    def test_a_wrong_anchor_series_fails_the_cut_term(self, monkeypatch):
        """Shape 1 handed to the reader in place of shape 2: the series at s = 1
        then give no permutation, and the cut term is refused."""
        # the sum first, so that the branch values it evaluates are the true ones
        ctx = classify_stokes(cmath.exp(1j * math.pi / 6))
        minus = minus_sum(ctx, 8.0)
        real = branches._g_series_shape
        monkeypatch.setattr(branches, "_g_series_shape",
                            lambda shape, n: real(1 if shape == 2 else shape, n))
        # the cached permutation was read from the true series
        branches.loop_permutation.cache_clear()
        with pytest.raises(VerificationError, match="s = 1"):
            gamma_term(ctx, minus)
        assert not branches.verify_branch_identities(6).passed

    def test_a_permutation_that_keeps_branch_3_fails_the_cut_term(self, monkeypatch):
        monkeypatch.setattr(resummation, "loop_permutation", lambda anchor: (1, 0, 2))
        ctx = classify_stokes(cmath.exp(1j * math.pi / 6))
        with pytest.raises(VerificationError, match=r"\(1, 0, 2\)"):
            gamma_term(ctx, minus_sum(ctx, 8.0))


def _recorded_point(record):
    x = complex(float.fromhex(record["x"][0]), float.fromhex(record["x"][1]))
    return x, float.fromhex(record["eta"])


def _assert_report_keeps_its_bits(record):
    report = verify_voros(*_recorded_point(record))

    def hexed(v):
        return [v.real.hex(), v.imag.hex()] if isinstance(v, complex) else v.hex()

    assert {f.name: hexed(getattr(report, f.name))
            for f in dataclasses.fields(report)} == record


class TestRecordedVorosReports:
    """Every float and complex field of verify_voros, held bit for bit (as
    float.hex) at the quick grid, both benchmark points and the default grid."""

    RECORDED = _recorded("voros_reports.json")
    DEFAULT_GRID = _recorded("voros_default_grid.json")

    def test_recorded_points_are_the_quick_grid_and_the_bench_points(self):
        recorded = {_recorded_point(record) for record in self.RECORDED}
        assert recorded == set(_voros_grid_points("quick")) | set(BENCH_POINTS)

    @pytest.mark.parametrize("index", range(len(RECORDED)))
    def test_report_keeps_its_bits(self, index):
        _assert_report_keeps_its_bits(self.RECORDED[index])

    def test_default_grid_is_recorded_in_its_order(self):
        assert ([_recorded_point(record) for record in self.DEFAULT_GRID]
                == _voros_grid_points("default"))

    @pytest.mark.parametrize("index", range(len(DEFAULT_GRID)))
    def test_default_grid_report_keeps_its_bits(self, index):
        _assert_report_keeps_its_bits(self.DEFAULT_GRID[index])


# the branch functions a boundary tracer hooks, as (module, attribute path),
# with the calls one verify_voros makes at each benchmark point: the closed
# form (not hooked) at every one of the 512 ray nodes, so no series
# evaluation, no cubic solve, and no loop or polyline walked, as TestRayCost
# derives them
TRACKER_HOOKS = (("exactwkb.branches", "solve_cubic_g"),
                 ("exactwkb.branches", "continue_triple"),
                 ("exactwkb.branches", "anchored_g_triple"),
                 ("exactwkb.resummation", "RayField.triple"),
                 ("exactwkb.branches", "monodromy_triple"))
TRACKER_CALLS = ((0, 0, 0, 512, 0), (0, 0, 0, 512, 0))


def count_calls(monkeypatch, module_name, path):
    """Wrap the function ``path`` names wherever the package binds that same
    object, in a module or in a class of one, as a boundary tracer does; the
    returned list counts its calls."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = vars(owner)[part]
    target = vars(owner)[attr]
    calls = [0]

    @functools.wraps(target)
    def counted(*args, **kwargs):
        calls[0] += 1
        return target(*args, **kwargs)

    owners = [m for key, m in list(sys.modules.items())
              if m is not None and (key == "exactwkb" or key.startswith("exactwkb."))]
    owners += [v for m in owners for v in vars(m).values() if isinstance(v, type)]
    for owner in owners:
        for key, value in list(vars(owner).items()):
            if value is target:
                monkeypatch.setattr(owner, key, counted)
    return calls


def bench_module(name):
    """The benchmark's module ``name``, loaded from its file; the test is
    skipped in a tree without the benchmark."""
    path = Path(__file__).parents[1] / "bench" / f"{name}.py"
    if not path.is_file():
        pytest.skip(f"no benchmark {name} in this tree")
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # registered first: a dataclass reads its module's namespace as it is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# the kernel calls of one op of the benchmark's exact-series workload: two
# streams and two Borel series (one (1 + A)^(-1/2) exp(B) each), a square
# root, a product and a reciprocal at branch-build size
SERIES_KERNEL_CALLS = {"__mul__": 5, "inverse": 1, "sqrt": 1, "inv_sqrt": 4, "exp": 4}


class TestTracerBoundaries:
    """The tracker's hooked functions stay real calls at the layer
    boundaries: a function folded into its caller would stop being counted,
    and its per-layer benchmark metric would read zero."""

    def test_every_benchmark_hook_finds_its_target(self):
        # the benchmark's tracer skips a hook whose target is gone, and the
        # per-layer metric it fed then reads nothing without failing anything
        tracer_module = bench_module("tracer")
        tracer = tracer_module.Tracer()
        try:
            tracer.install(tracer_module.HOOKS)
        finally:
            tracer.uninstall()
        assert tracer.absent == []
        assert len(tracer.names) == len(tracer_module.HOOKS)

    @pytest.mark.parametrize("point, expected", list(zip(BENCH_POINTS, TRACKER_CALLS)))
    def test_one_voros_point_makes_the_recorded_calls(self, monkeypatch, point, expected):
        counters = [count_calls(monkeypatch, *hook) for hook in TRACKER_HOOKS]
        verify_voros(*point)
        assert tuple(c[0] for c in counters) == expected

    def test_one_exact_series_op_makes_the_recorded_kernel_calls(self, monkeypatch):
        # the benchmark's series.* metrics count these calls
        workloads = bench_module("workloads")
        counters = {name: count_calls(monkeypatch, "exactwkb.series", f"PuiseuxSeries.{name}")
                    for name in SERIES_KERNEL_CALLS}
        workloads.exact_series_run(workloads.exact_series_inputs(0))
        assert {name: c[0] for name, c in counters.items()} == SERIES_KERNEL_CALLS


class TestRayCost:
    """Each node of a summation ray costs one evaluation of the closed form,
    with no series evaluation and no cubic solve; the cut term costs none."""

    @pytest.mark.parametrize("point", BENCH_POINTS)
    def test_one_evaluation_per_node(self, monkeypatch, point):
        x, eta = point
        ctx = classify_stokes(x)
        counters = [count_calls(monkeypatch, "exactwkb.branches", name)
                    for name in ("solve_cubic_g", "anchored_g_triple", "closed_form_g_triple")]
        nodes = count_calls(monkeypatch, "exactwkb.resummation", "RayField.triple")
        laplace_sum("+", ctx, eta, VOROS_QUAD_TOL)
        minus = laplace_sum("-", ctx, eta, VOROS_QUAD_TOL)
        solves, series, closed = (c[0] for c in counters)
        assert solves == series == 0
        assert closed == nodes[0] > 300
        gamma_term(ctx, minus)
        assert [c[0] for c in counters] == [0, 0, closed]


class TestGrazingRays:
    """Rays that pass a branch point within 1e-6 to 1e-8, where the fixed
    steps of 0.02 the rays once took mis-tracked and the quadrature raised.
    Each Borel sum is held against mpmath's Ai at 30 digits."""

    @staticmethod
    def mpmath_sums(x, eta, region):
        turn = 1 if region == "I" else -1
        with mpmath.workdps(30):
            z = mpmath.mpf(eta) ** (mpmath.mpf(2) / 3) * mpmath.mpc(x)
            scale = 2 * mpmath.sqrt(mpmath.pi) / mpmath.cbrt(eta)
            plus = scale * mpmath.exp(turn * 1j * mpmath.pi / 6) * mpmath.airyai(
                z * mpmath.exp(turn * 2j * mpmath.pi / 3))
            minus = scale * mpmath.airyai(z)
            return complex(plus), complex(minus)

    @pytest.mark.parametrize("r, arg, region", [
        (0.5, 2 * math.pi / 3 - 1e-6, "II"),      # the "-" ray grazes s = 0
        (1.0, -1e-8, "I"),                        # the "+" ray grazes s = 1
        (1.0, 2 * math.pi / 3 - 1e-8, "II"),
        (1.0, -2 * math.pi / 3 + 1e-8, "I"),
    ])
    def test_the_sums_match_mpmath(self, r, arg, region):
        x = r * cmath.exp(1j * arg)
        report = verify_airy_connection(x, 10.0)
        assert report.region == region
        assert report.passed
        plus, minus = self.mpmath_sums(x, 10.0, region)
        assert abs(report.psi_plus - plus) < 1e-12 * abs(plus)
        assert abs(report.psi_minus - minus) < 1e-12 * abs(minus)
        if region == "II":
            voros = verify_voros(x, 10.0)
            assert voros.passed
            assert abs(voros.plus_direct - plus) < 1e-12 * abs(plus)
            assert abs(voros.minus_direct - minus) < 1e-12 * abs(minus)


class TestRayOrientation:
    """The "-" ray's local root w = i sqrt(s - 1) is the sheet reached from region I."""

    @pytest.mark.parametrize("arg", [0.3, math.pi / 6, 1.0, 1.9])
    def test_region_I_triple_carried_to_the_ray(self, arg):
        ctx = classify_stokes(cmath.exp(1j * arg))
        theta = cmath.phase(ctx.kappa)
        # arg kappa = 0.45 is a region-I ray direction; rotate down to this ray
        # along the arc of radius SERIES_HANDOFF around s = 1
        angles = [0.45 + (theta - 0.45) * k / 24 for k in range(25)]
        arc = [1 + SERIES_HANDOFF * cmath.exp(1j * a) for a in angles]
        carried = tracked_continue_triple(arc, anchored_g_triple(1, 1j * cmath.sqrt(arc[0] - 1)))
        s = arc[-1]
        want = anchored_g_triple(1, 1j * cmath.sqrt(s - 1))
        flipped = anchored_g_triple(1, -1j * cmath.sqrt(s - 1))
        assert max(abs(a - b) for a, b in zip(carried, want)) < 1e-12
        assert max(abs(a - b) for a, b in zip(carried, flipped)) > 1.0
        # and the ray field evaluates that same sheet at the arc's end
        t = SERIES_HANDOFF / abs(ctx.kappa)
        assert max(abs(a - b) for a, b in zip(RayField(1, ctx.kappa).triple(t), want)) < 1e-12


class TestWatsonConsistency:
    @pytest.mark.parametrize("x,eta,message", [
        (0, 10.0, r"x must be finite and nonzero, got 0"),
        (0j, 10.0, r"x must be finite and nonzero"),
        (complex(NAN, 1), 10.0, r"x must be finite and nonzero"),
        (complex(1, INF), 10.0, r"x must be finite and nonzero"),
        (INF, 10.0, r"x must be finite and nonzero"),
        (1j, 0.0, r"eta must be positive and finite, got 0.0"),
        (1j, -1.0, r"eta must be positive and finite, got -1.0"),
        (1j, NAN, r"eta must be positive and finite, got nan"),
        (1j, INF, r"eta must be positive and finite, got inf"),
        (1j, -INF, r"eta must be positive and finite"),
    ])
    def test_a_point_outside_the_domain_raises(self, x, eta, message):
        with pytest.raises(PreconditionError, match=message):
            formal_solution_partial_sum("-", x, eta, 3)

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
