"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
PASS lines with timings.  Tolerances are pinned here and nowhere else.
"""

import cmath
import io
import json
import math
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction as Fr

from exactwkb import airy_borel, airy_wkb, branches, pearcey, resummation, weyl
from exactwkb.cli import main as cli_main
from exactwkb.verify import run_pearcey_verify, run_voros_grid

SQRT3_4 = math.sqrt(3) / 4


class _Stopwatch:
    def __init__(self, limit_s):
        self.limit = limit_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False


def _report(name, stopwatch, ok=True):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name} ({stopwatch.elapsed:.2f}s / limit {stopwatch.limit:.0f}s)")
    assert ok
    assert stopwatch.elapsed < stopwatch.limit, \
        f"{name} exceeded its runtime budget: {stopwatch.elapsed:.1f}s"


def test_criterion_1_exact_coefficient_reproduction():
    with _Stopwatch(1.0) as sw:
        sol = airy_wkb.riccati_recurrence(6, "+")
        s_odd, s_even = airy_wkb.split_odd_even(sol)
        prim = airy_wkb.integrate_s_odd(s_odd)
        # S = x^-1 f(w), w = eta^-1 x^-3/2: eta^-j S_j is the w^j term
        ok = (s_odd.coeff(1) == Fr(-5, 32)
              and s_odd.coeff(3) == Fr(-1105, 2048)
              and s_even.coeff(2) == Fr(-15, 64)
              and prim.coeff(-1) == Fr(2, 3)
              and prim.coeff(1) == Fr(5, 48)
              and prim.coeff(3) == Fr(1105, 9216))
    _report("criterion 1: exact Riccati/odd-part coefficients", sw, ok)


def test_criterion_2_double_derivation_equality():
    with _Stopwatch(5.0) as sw:
        ok = True
        for sign in "+-":
            stream = airy_wkb.wkb_coefficient_stream(20, sign)
            closed = airy_wkb.closed_form_coefficients(20, sign)
            ok &= list(stream.coeffs) == closed
    _report("criterion 2: coefficient stream equals closed form (n <= 20)", sw, ok)


def test_criterion_3_borel_hypergeometric_oracle():
    with _Stopwatch(5.0) as sw:
        ok = True
        for sign in "+-":
            mine = airy_borel.borel_series(20, sign).coefficients(21)
            ok &= mine == airy_borel.hypergeometric_oracle(sign, 21)
    _report("criterion 3: Borel coefficients equal the Gauss series (n <= 20)", sw, ok)


def test_criterion_4_branch_identity_termwise():
    with _Stopwatch(10.0) as sw:
        report = branches.verify_branch_identities(6)
        ok = report.passed
    _report("criterion 4: Borel/branch identities exact through order s^6", sw, ok)


def test_criterion_5_branch_facts():
    with _Stopwatch(60.0) as sw:
        ok = True
        for s in (0.0, 1.0):
            roots = branches.solve_cubic_x(s)
            for target in (-SQRT3_4, 0.0, SQRT3_4):
                ok &= min(abs(r - target) for r in roots) < 1e-12
        half_roots = branches.solve_cubic_x(0.5)
        ok &= sum(abs(r + 0.25) < 1e-12 for r in half_roots) == 2
        ok &= min(abs(r - 0.5) for r in half_roots) < 1e-12

        leading = {1: SQRT3_4, 2: 0.0, 3: -SQRT3_4}
        start = branches.anchored_g_triple(0, branches.sqrt_s(0.01))
        end = branches.continue_triple([0.01, 0.3, 0.7, 0.99], start)
        for index in (1, 2, 3):
            value = end[index - 1] * branches.default_sqrt_rule(0.99)
            series = branches.branch_series(branches.BranchLabel("X", index, 1), 24)
            expected = sum(complex(c) * 0.1 ** (2 * e) for e, c in series.terms.items())
            ok &= abs(value - expected) < 1e-6
            ok &= abs(value - leading[index]) < 0.05
    _report("criterion 5: root sets and real-axis continuation", sw, ok)


def test_criterion_6_airy_identities_numeric():
    with _Stopwatch(30.0) as sw:
        ok = True
        x = cmath.exp(-1j * math.pi / 6)
        for eta in (5.0, 10.0):
            report = resummation.verify_airy_connection(x, eta, tol=1e-6)
            ok &= report.ai_residual < 1e-6 and report.bi_residual < 1e-6
    _report("criterion 6: Ai/Bi identities vs series oracle (eta in {5, 10})", sw, ok)


def test_criterion_7_voros_connection_formula():
    with _Stopwatch(120.0) as sw:
        report = run_voros_grid("default")
        ok = (report.passed
              and report.body["max_plus_residual"] < 1e-6
              and report.body["max_minus_residual"] < 1e-8)
    _report("criterion 7: Voros formula on the 10x3 grid", sw, ok)


def test_criterion_8_pearcey_symbolic_suite():
    with _Stopwatch(120.0) as sw:
        report = run_pearcey_verify(order=8, points=100, seed=42, ann_points=20).body
        ok = (report["closedness"]["passed"]
              and report["primitives"]["passed"]
              and report["quartic"]["max_residual"] < 1e-12
              and report["quartic"]["max_root_sum"] < 1e-12
              and all(r < 1e-8 for r in report["annihilation"]["max_residuals"]))
    _report("criterion 8: Pearcey closedness/primitives/quartic/annihilation", sw, ok)


def test_criterion_9_weyl_identities():
    with _Stopwatch(1.0) as sw:
        ok = weyl.verify_operator_identities().passed
    _report("criterion 9: operator identities in exact normal form", sw, ok)


def test_criterion_10a_pde_annihilation_of_branches():
    with _Stopwatch(30.0) as sw:
        rng = random.Random(123)
        ok = True
        checked = 0
        while checked < 50:
            x = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            y = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            try:
                roots = branches.solve_cubic_g_xy(x, y)
            except Exception:
                continue
            checked += 1
            for g in roots:
                r1, r2 = branches.g_pde_residuals(x, y, g)
                ok &= r1 < 1e-8 and r2 < 1e-8
    _report("criterion 10a: holonomic system annihilates branches (50 points)", sw, ok)


def test_criterion_10b_homogeneity_scaling():
    with _Stopwatch(60.0) as sw:
        ok = True
        x = cmath.exp(-1j * math.pi / 6)
        eta = 10.0
        for lam in (0.8, 1.25):
            for sign in "+-":
                scaled = resummation.laplace_sum(
                    sign, resummation.classify_stokes(lam * lam * x),
                    eta / lam ** 3, 1e-12).value
                base = resummation.laplace_sum(
                    sign, resummation.classify_stokes(x), eta, 1e-12).value
                ok &= abs(scaled - lam * base) / abs(lam * base) < 1e-10
        ok &= pearcey.homogeneity_residual(1.0, 1.0, 1.0) < 1e-10
        ok &= pearcey.homogeneity_residual(0.7 + 0.1j, -1.2, 0.9 - 0.3j) < 1e-10
    _report("criterion 10b: weighted homogeneity of sums and branches", sw, ok)


def test_criterion_10c_report_determinism():
    def capture(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        return code, buf.getvalue()

    with _Stopwatch(60.0) as sw:
        args = ["pearcey", "verify", "--order", "3", "--points", "10",
                "--seed", "42", "--json"]
        code_a, out_a = capture(args)
        code_b, out_b = capture(args)
        ok = code_a == code_b == 0 and out_a == out_b
        _, weyl_a = capture(["weyl", "verify", "--json"])
        _, weyl_b = capture(["weyl", "verify", "--json"])
        ok &= weyl_a == weyl_b
        json.loads(out_a)  # must be valid JSON
    _report("criterion 10c: byte-identical reports across reruns", sw, ok)
