"""Saturation throughput of carrier-sense networks on a conflict graph.

The stationary airtime share of node v is

    p_v(theta) = sum over independent sets S containing v of theta^|S|
                 / sum over all independent sets S of theta^|S|

with theta the transmission/listen duration ratio.  The denominator
includes the empty set (the idle-channel state of the underlying Markov
model).  As theta grows, p_v tends to the fraction of maximum independent
sets containing v, so a vertex in no MIS starves: the starving vertices are
exactly the uncovered vertices of the 1-extendability scan.

Shares are exact integer ratios: theta^alpha overflows floats quickly and
the limit comparison must be exact.  With theta = p/q every share is an
int numerator over one common int denominator, reduced once into a
Fraction by throughput and rounded straight from the ratio by the sweep.
Decimal rendering happens only at the output boundary.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .extendability import _report
from .graph import Graph
from .mis import (
    IndependencePolynomial,
    _homogeneous_horner,
    _packed_polynomials,
    neighborhood_polynomials,
)
from .unitdisk import _exact_decimal


def parse_theta(text: str) -> Fraction:
    """Accept "20", "5/2", "2.5"; must be positive, with a decimal exponent
    of at most unitdisk._MAX_EXPONENT in size."""
    try:
        theta = _exact_decimal(text)
    except ValueError as exc:
        raise ValueError(f"theta: {exc}") from None
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {text}")
    return theta


@dataclass(frozen=True)
class ThroughputVector:
    theta: Fraction
    p: tuple[Fraction, ...]


@dataclass(frozen=True)
class LimitVector:
    p: tuple[Fraction, ...]


def _shares(
    full: IndependencePolynomial, parts: tuple[IndependencePolynomial, ...], theta: Fraction
) -> tuple[list[int], int]:
    """p_v(theta) = theta * I(G - N[v])(theta) / I(G)(theta) as unreduced
    (numerators, common denominator).

    With theta = p/q, N_v = q**deg I_v * I_v(p/q) and Z = q**alpha * I(p/q)
    are ints, and p_v = p * N_v * q**(alpha - 1 - deg I_v) / Z; the power
    is never negative because I(G - N[v]) has degree at most alpha - 1."""
    p, q = theta.numerator, theta.denominator
    top = full.degree - 1
    nums = [p * _homogeneous_horner(part.coefficients, p, q) * q ** (top - part.degree)
            for part in parts]
    return nums, _homogeneous_horner(full.coefficients, p, q)


def throughput(g: Graph, theta: Fraction, budget: int | None = None) -> ThroughputVector:
    """Exact per-vertex airtime shares at the given theta > 0."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    nums, den = _shares(*neighborhood_polynomials(g, budget), theta)
    return ThroughputVector(theta, tuple(Fraction(num, den) for num in nums))


def throughput_limit(g: Graph, budget: int | None = None) -> LimitVector:
    """Per-vertex limits of p_v as theta grows without bound:
    [x^(alpha-1)] I(G - N[v]) / [x^alpha] I(G), read off the packed
    polynomials by shifts: I(G - N[v]) has degree at most alpha - 1, so
    its coefficient there is all the bits from that digit up."""
    shift, whole, parts = _packed_polynomials(g, (1 << g.n) - 1, budget, True)
    alpha = (whole.bit_length() - 1) // shift
    top = whole >> alpha * shift
    low = (alpha - 1) * shift
    return LimitVector(tuple(Fraction(parts[v] >> low, top) for v in range(g.n)))


def starvation_report(g: Graph, budget: int | None = None) -> tuple[int, ...]:
    """Vertices whose airtime share tends to zero: exactly those in no MIS.

    The 1-extendability scan without best_size, so each query keeps the
    lower bound alpha - 2 and prunes more than an exact search would."""
    return _report(g, budget, False, False).uncovered()


def _format_decimal(num: int, den: int, precision: int) -> str:
    """Fixed-point rendering of num/den (num >= 0, den > 0), round half to even,
    exact integer arithmetic.  num and den need no common factor removed:
    the quotient and the tie test scale with them."""
    whole, frac = divmod(num * 10 ** precision, den)
    double = 2 * frac
    if double > den or (double == den and whole % 2 == 1):
        whole += 1
    digits = f"{whole:0{precision + 1}d}"
    if precision == 0:
        return digits
    return f"{digits[:-precision]}.{digits[-precision:]}"


def theta_sweep(
    g: Graph,
    thetas: list[Fraction],
    precision: int = 6,
    budget: int | None = None,
) -> str:
    """CSV table of p_v over the given thetas.

    Header "theta,p_0,...,p_{n-1}"; theta column keeps the exact rational
    form, shares render as fixed-point decimals.  The polynomials are
    built once and evaluated at every theta.
    """
    for theta in thetas:
        if theta <= 0:
            raise ValueError("theta must be positive")
    if precision < 0:
        raise ValueError(f"precision must be non-negative, got {precision}")
    # the most digits Python prints of an int; 0 (or before 3.10.7, none): no limit
    digits_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits_limit and precision > digits_limit:
        raise ValueError(f"precision must be at most {digits_limit}, got {precision}")
    full, parts = neighborhood_polynomials(g, budget)
    lines = [",".join(["theta"] + [f"p_{v}" for v in range(g.n)])]
    for theta in thetas:
        nums, den = _shares(full, parts, theta)
        lines.append(",".join([str(theta)] + [_format_decimal(num, den, precision)
                                              for num in nums]))
    return "\n".join(lines) + "\n"
