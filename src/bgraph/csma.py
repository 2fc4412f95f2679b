"""Saturation throughput of carrier-sense networks on a conflict graph.

The stationary airtime share of node v is

    p_v(theta) = sum over independent sets S containing v of theta^|S|
                 / sum over all independent sets S of theta^|S|

with theta the transmission/listen duration ratio.  The denominator
includes the empty set (the idle-channel state of the underlying Markov
model).  As theta grows, p_v tends to the fraction of maximum independent
sets containing v, so a vertex in no MIS starves.

All arithmetic is exact rational: theta^alpha overflows floats quickly and
the limit comparison must be exact.  Decimal rendering happens only at the
output boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, _closed_non_neighborhood
from .mis import independence_polynomial, mis_counts


def parse_theta(text: str) -> Fraction:
    """Accept "20", "5/2", "2.5"; must be positive."""
    theta = Fraction(text)
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


def _polynomial_without_closed_neighborhood(g: Graph, v: int, budget: int | None):
    return independence_polynomial(g, budget, _closed_non_neighborhood(g, v))


def throughput(g: Graph, theta: Fraction, budget: int | None = None) -> ThroughputVector:
    """Exact per-vertex airtime shares at the given theta > 0."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    z = independence_polynomial(g, budget).evaluate(theta)
    shares = []
    for v in range(g.n):
        zv = _polynomial_without_closed_neighborhood(g, v, budget).evaluate(theta)
        shares.append(theta * zv / z)
    return ThroughputVector(theta, tuple(shares))


def throughput_limit(g: Graph, budget: int | None = None) -> LimitVector:
    """Per-vertex limits of p_v as theta grows without bound."""
    total, _ = mis_counts(g, None, budget)
    values = []
    for v in range(g.n):
        _, at_v = mis_counts(g, v, budget)
        values.append(Fraction(at_v, total))
    return LimitVector(tuple(values))


def starvation_report(g: Graph, budget: int | None = None) -> tuple[int, ...]:
    """Vertices whose airtime share tends to zero: exactly those in no MIS."""
    limit = throughput_limit(g, budget)
    return tuple(v for v in range(g.n) if limit.p[v] == 0)


def _format_decimal(x: Fraction, precision: int) -> str:
    """Fixed-point rendering, round half to even, exact integer arithmetic."""
    scale = 10 ** precision
    scaled = x * scale
    whole, frac = divmod(scaled.numerator, scaled.denominator)
    double = 2 * frac
    if double > scaled.denominator or (double == scaled.denominator and whole % 2 == 1):
        whole += 1
    digits = f"{whole:0{precision + 1}d}" if whole >= 0 else f"-{-whole:0{precision + 1}d}"
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
    form, shares render as fixed-point decimals.
    """
    for theta in thetas:
        if theta <= 0:
            raise ValueError("theta must be positive")
    lines = ["theta," + ",".join(f"p_{v}" for v in range(g.n))]
    for theta in thetas:
        row = throughput(g, theta, budget)
        cells = [str(theta)] + [_format_decimal(p, precision) for p in row.p]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
