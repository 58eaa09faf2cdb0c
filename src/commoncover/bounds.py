"""Exact maximal-lcm values, certified upper bounds, and size-bound reports.

The exponential parts of the cover-size bounds are evaluated in high
precision and then inflated by a relative 1e-40 margin before conversion to
an exact rational, so a "satisfied" verdict can never be a false positive.
Integer parts (factorials, powers) are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graphs import BudgetExceeded


def _primes_upto(n: int) -> list:
    sieve = bytearray([1]) * (n + 1)
    out = []
    for p in range(2, n + 1):
        if sieve[p]:
            out.append(p)
            for q in range(p * p, n + 1, p):
                sieve[q] = 0
    return out


def landau_exact(n: int) -> int:
    """Largest order of a permutation of n points: max lcm over partitions,
    computed by dynamic programming over prime powers."""
    if n < 1:
        raise ValueError("n must be positive")
    best = [1] * (n + 1)
    for p in _primes_upto(n):
        for budget in range(n, 0, -1):
            q = p
            while q <= budget:
                cand = best[budget - q] * q
                if cand > best[budget]:
                    best[budget] = cand
                q *= p
    return best[n]


def _to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    frac = Fraction(man) * (Fraction(2) ** exp)
    return -frac if sign else frac


_INFLATE = Fraction(10 ** 40 + 1, 10 ** 40)


def upper_exp_sqrt(n: int, coefficient: Fraction) -> Fraction:
    """Certified upper bound for exp(coefficient * sqrt(n * ln n)).

    ``mpmath`` is imported here, on first use, so that importing the
    package does not load it; only the size bounds need it."""
    if n <= 1:
        return Fraction(1) * _INFLATE
    import mpmath

    with mpmath.workdps(60):
        val = mpmath.exp(mpmath.mpf(coefficient.numerator) /
                         coefficient.denominator *
                         mpmath.sqrt(n * mpmath.log(n)))
        return _to_fraction(val) * _INFLATE


LANDAU_COEFFICIENT = Fraction(105313, 100000)


def landau(n: int, mode: str = "exact"):
    """Exact value, or the analytic upper bounds, of the maximal lcm of a
    partition of n."""
    if n < 1:
        raise ValueError("n must be positive")
    if mode == "exact":
        return landau_exact(n)
    if mode == "bound":
        return (upper_exp_sqrt(n, LANDAU_COEFFICIENT),
                upper_exp_sqrt(n, Fraction(2)))
    raise ValueError("mode must be 'exact' or 'bound'")


# Python's default limit on the decimal digits of an int converted to a string
PRINTABLE_DIGITS = 4300

# parameters that count something that exists at least once
_POSITIVE = ("v_prime", "radius", "v", "isotropy_lcm", "v1", "v2")


def _log10_bound(kind: str, p: dict) -> float:
    """log10 of a bound, estimated in floating point before the exact bound
    is computed; inf where the estimate alone is out of range."""
    def log10_exp_sqrt(n):           # log10 exp(2 sqrt(n ln n))
        if n <= 1:
            return 0.0
        return math.inf if n > 1e300 else 2 * math.sqrt(n * math.log(n)) / math.log(10)

    if kind == "general":
        return math.log10(2 * p["v_prime"]) + log10_exp_sqrt(p["edges"])
    if kind == "regular":
        return math.log10(2 * p["v1"] * p["v2"])
    d, v = p["d"], p["v"]
    if d > 1e15:
        return math.inf
    rest = 2 * math.log10(v) + log10_exp_sqrt(v)
    log10_factorial = math.lgamma(d + 1) / math.log(10)
    if kind == "objects":
        return 2 * log10_factorial + 2 * d * math.log10(p["isotropy_lcm"]) + rest
    r = p["radius"]
    if d >= 2 and (r > 60 or r * math.log10(d) > 15):
        return math.inf
    return 2 * d ** r * log10_factorial + rest


@dataclass
class BoundReport:
    kind: str
    bound: Fraction
    actual: Optional[int] = None

    @property
    def bound_float(self) -> float:
        return float(self.bound)

    @property
    def satisfied(self) -> Optional[bool]:
        if self.actual is None:
            return None
        return Fraction(self.actual) <= self.bound


def bound_report(kind: str, actual: Optional[int] = None, **params) -> BoundReport:
    """Closed-form cover-size bounds.

    kinds and required parameters:
      general  -- edges (geometric edge count of the first graph),
                  v_prime (vertex count of the second)
      ball     -- d (max degree), radius, v (total vertex count of both)
      objects  -- d, isotropy_lcm, v
      regular  -- v1, v2, odd (bool)

    Counts must not be negative, and those that count something that
    exists (vertices, the radius, the isotropy lcm) must be positive.  A
    bound of ``PRINTABLE_DIGITS`` digits or more raises ``BudgetExceeded``
    before it is computed.
    """
    need = {"general": ("edges", "v_prime"),
            "ball": ("d", "radius", "v"),
            "objects": ("d", "isotropy_lcm", "v"),
            "regular": ("v1", "v2", "odd")}
    if kind not in need:
        raise ValueError("unknown bound kind: %r" % (kind,))
    missing = [p for p in need[kind] if p not in params]
    if missing:
        raise ValueError("missing parameters: %s" % ", ".join(missing))
    for key, value in [*params.items(), ("actual", actual)]:
        if key in _POSITIVE and value < 1:
            raise ValueError("%s must be positive" % key)
        if key != "odd" and value is not None and value < 0:
            raise ValueError("%s must not be negative" % key)
    if _log10_bound(kind, params) >= PRINTABLE_DIGITS - 1:
        raise BudgetExceeded("the %s bound has %d digits or more, too many to print"
                             % (kind, PRINTABLE_DIGITS))
    if kind == "general":
        e, vp = params["edges"], params["v_prime"]
        bound = 2 * vp * upper_exp_sqrt(e, Fraction(2))
    elif kind == "ball":
        d, r, v = params["d"], params["radius"], params["v"]
        bound = (Fraction(math.factorial(d)) ** (2 * d ** r)) * v * v \
            * upper_exp_sqrt(v, Fraction(2))
    elif kind == "objects":
        d, il, v = params["d"], params["isotropy_lcm"], params["v"]
        bound = Fraction(math.factorial(d)) ** 2 * Fraction(il) ** (2 * d) \
            * v * v * upper_exp_sqrt(v, Fraction(2))
    else:
        bound = Fraction((2 if params["odd"] else 1) * params["v1"] * params["v2"])
    return BoundReport(kind, bound, actual)
