import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from commoncover import families
from commoncover.ball_system import build_ball_system_retrying
from commoncover.bounds import bound_report, landau, landau_exact, upper_exp_sqrt
from commoncover.object_graphs import close_star_maps, rotation_pair
from commoncover.oracle import brute_landau

from conftest import (ball_group_divisor, check_ball_divisors, check_object_divisors,
                      object_group_divisor)


def test_landau_small_values():
    assert landau_exact(1) == 1
    assert landau_exact(5) == 6
    assert landau_exact(7) == 12
    assert landau_exact(10) == 30


def test_landau_matches_brute_force_up_to_30():
    for n in range(1, 31):
        assert landau_exact(n) == brute_landau(n)


def test_landau_analytic_bound():
    tight, coarse = landau(5, mode="bound")
    exact = math.exp(1.05313 * math.sqrt(5 * math.log(5)))
    assert abs(float(tight) - exact) < 0.01          # ~19.84
    assert Fraction(landau_exact(5)) <= tight <= coarse
    for n in range(1, 31):
        tight, _ = landau(n, mode="bound")
        assert Fraction(landau_exact(n)) <= tight


def test_upper_rounding_never_undershoots():
    # the certified bound exceeds the true value; a double-precision
    # recomputation agrees with it to within a relative 1e-12
    for n in (2, 5, 17):
        plain = math.exp(2 * math.sqrt(n * math.log(n)))
        upper = upper_exp_sqrt(n, Fraction(2))
        assert plain * (1 - 1e-12) <= float(upper) <= plain * (1 + 1e-12)


def test_general_bound_example():
    report = bound_report("general", edges=6, v_prime=4)
    plain = 8 * math.exp(2 * math.sqrt(6 * math.log(6)))   # ~5637
    assert plain * (1 - 1e-12) <= float(report.bound) <= plain * (1 + 1e-12)


def test_ball_bound_example():
    report = bound_report("ball", d=2, radius=1, v=7)
    plain = (math.factorial(2) ** 4) * 49 * math.exp(2 * math.sqrt(7 * math.log(7)))
    assert plain * (1 - 1e-12) <= float(report.bound) <= plain * (1 + 1e-12)


def test_regular_bound_instance():
    report = bound_report("regular", v1=4, v2=6, odd=True)
    assert report.bound == 48
    report = bound_report("regular", v1=5, v2=5, odd=False, actual=25)
    assert report.bound == 25 and report.satisfied


def test_missing_parameters_reported():
    with pytest.raises(ValueError, match="missing parameters: v"):
        bound_report("ball", d=2, radius=1)


def test_ball_group_divisor_formula():
    # degree 3, radius 2: interior vertices 3, so 3! * (2!)^3
    assert ball_group_divisor(3, 2) == 6 * 8
    assert ball_group_divisor(2, 1) == 2
    assert ball_group_divisor(2, 3) == 2          # (d-1)! = 1 for d = 2
    assert object_group_divisor(2, 3) == 2 * 9


def test_ball_divisor_claims_on_built_systems():
    for g1, g2, radius in ((families.cycle(3), families.cycle(4), 1),
                           (families.cycle(3), families.cycle(3), 2),
                           (families.complete(4), families.theta(3), 1)):
        sys = build_ball_system_retrying(g1, g2, radius)
        for _, count, divisor, ok in check_ball_divisors(sys):
            assert ok and divisor % count == 0


def test_object_divisor_claims():
    x1, x2, seeds = rotation_pair(3)
    sys = close_star_maps(x1, x2, seeds)
    for _, count, divisor, ok in check_object_divisors(sys):
        assert ok


def test_satisfied_is_exact_comparison():
    report = bound_report("regular", v1=2, v2=2, odd=False, actual=5)
    assert report.satisfied is False
    report = bound_report("regular", v1=2, v2=2, odd=False, actual=4)
    assert report.satisfied is True


def test_importing_the_cli_does_not_load_mpmath():
    # only upper_exp_sqrt needs mpmath, and it imports it on first use
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, commoncover.cli; "
            "print('mpmath' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
    assert upper_exp_sqrt(10, Fraction(2)) > 1
