from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgraph.csma import (
    parse_theta,
    starvation_report,
    theta_sweep,
    throughput,
    throughput_limit,
)
from bgraph import mis
from bgraph.extendability import is_one_extendable
from bgraph.graph import Graph
from bgraph.mis import BudgetExceededError, independence_polynomial, neighborhood_polynomials
from helpers_brute import (
    brute_all_is_of_size,
    brute_count_by_size,
    complete_graph,
    cycle_graph,
    empty_graph,
    fraction_decimal,
    fraction_limits,
    fraction_shares,
    path_graph,
    random_graph,
    random_graph_suite,
)


def brute_share(g: Graph, v: int, theta: Fraction) -> Fraction:
    num = Fraction(0)
    den = Fraction(1)  # empty set
    for k in range(1, g.n + 1):
        for s in brute_all_is_of_size(g, k):
            den += theta ** k
            if v in s:
                num += theta ** k
    return num / den


def test_parse_theta():
    assert parse_theta("20") == 20
    assert parse_theta("5/2") == Fraction(5, 2)
    assert parse_theta("2.5") == Fraction(5, 2)
    with pytest.raises(ValueError):
        parse_theta("0")
    with pytest.raises(ValueError):
        parse_theta("-3")
    # exponents whose power of ten would not fit in memory
    assert parse_theta("1e1000") == 10 ** 1000
    for text in ("1e1001", "1e999999999", "2.5E-999999999"):
        with pytest.raises(ValueError, match="exponents within 1000"):
            parse_theta(text)


def test_throughput_k2_at_one():
    tv = throughput(Graph.from_edges(2, [(0, 1)]), Fraction(1))
    assert tv.p == (Fraction(1, 3), Fraction(1, 3))


def test_throughput_k1_formula():
    for theta in (Fraction(1), Fraction(20), Fraction(5, 2)):
        tv = throughput(empty_graph(1), theta)
        assert tv.p == (theta / (1 + theta),)


def test_throughput_p5_extremes_at_large_theta():
    tv = throughput(path_graph(5), Fraction(100))
    assert tv.p[1] < Fraction(5, 100) and tv.p[3] < Fraction(5, 100)
    assert tv.p[0] > Fraction(9, 10) and tv.p[2] > Fraction(9, 10) and tv.p[4] > Fraction(9, 10)


def test_throughput_matches_state_sum_brute_force():
    for g in random_graph_suite(seed=61, count=25, max_n=9, min_n=1):
        for theta in (Fraction(1), Fraction(7, 3), Fraction(20)):
            tv = throughput(g, theta)
            for v in range(g.n):
                assert tv.p[v] == brute_share(g, v, theta)


def test_throughput_strictly_inside_unit_interval():
    for g in random_graph_suite(seed=62, count=20, max_n=8, min_n=1):
        for theta in (Fraction(1, 2), Fraction(10)):
            tv = throughput(g, theta)
            for p in tv.p:
                assert 0 < p < 1


def test_limits_p5_p4_k3():
    assert throughput_limit(path_graph(5)).p == (1, 0, 1, 0, 1)
    assert throughput_limit(path_graph(4)).p == (
        Fraction(2, 3), Fraction(1, 3), Fraction(1, 3), Fraction(2, 3),
    )
    assert throughput_limit(complete_graph(3)).p == (
        Fraction(1, 3), Fraction(1, 3), Fraction(1, 3),
    )


def test_limit_on_a_large_clique_through_the_memo(monkeypatch):
    # each memo miss on K_n deletes one vertex, so a recursive memo would
    # overflow the Python stack long before n = 1200
    monkeypatch.setattr(mis, "_ENGINE_ENTRIES", 0)
    assert throughput_limit(complete_graph(1200)).p == (Fraction(1, 1200),) * 1200


def test_convergence_toward_limit():
    for g in [path_graph(4), path_graph(5), cycle_graph(6), complete_graph(3)]:
        limit = throughput_limit(g).p
        errs = []
        for theta in (Fraction(1), Fraction(10), Fraction(100), Fraction(1000)):
            tv = throughput(g, theta)
            errs.append(max(abs(tv.p[v] - limit[v]) for v in range(g.n)))
        assert all(a > b for a, b in zip(errs, errs[1:]))


def test_limit_zero_iff_uncovered():
    for g in random_graph_suite(seed=63, count=25, max_n=8, min_n=1):
        limit = throughput_limit(g).p
        report = is_one_extendable(g)
        for v in range(g.n):
            assert (limit[v] == 0) == (not report.verdicts[v].covered)
        assert starvation_report(g) == tuple(v for v in range(g.n) if limit[v] == 0)


@pytest.mark.parametrize("entries, cap, shared", [
    # memo: each of the five polynomials of P4 fits in 5 memo misses on
    # its own; the shared pass over all of them needs 7
    (0, 5, 7),
    # engine: each fits in 7 table entries; the shared pass needs 14, 7
    # per sweep
    (None, 7, 14),
])
def test_budget_bounds_the_whole_report(monkeypatch, entries, cap, shared):
    if entries is not None:
        monkeypatch.setattr(mis, "_ENGINE_ENTRIES", entries)
    g = path_graph(4)
    independence_polynomial(g, budget=cap)
    for v in range(g.n):
        rest = sum(1 << u for u in range(g.n) if u != v and not g.has_edge(u, v))
        independence_polynomial(g, budget=cap, alive=rest)
    with pytest.raises(BudgetExceededError):
        throughput_limit(g, budget=cap)
    with pytest.raises(BudgetExceededError):
        throughput(g, Fraction(1), budget=cap)
    with pytest.raises(BudgetExceededError):
        theta_sweep(g, [Fraction(1)], budget=cap)
    with pytest.raises(BudgetExceededError):
        throughput_limit(g, budget=shared - 1)
    assert throughput_limit(g, budget=shared) == throughput_limit(g)


def test_starvation_report():
    assert starvation_report(path_graph(5)) == (1, 3)
    assert starvation_report(path_graph(4)) == ()
    assert starvation_report(cycle_graph(6)) == ()


def test_starvation_report_skips_best_size(monkeypatch):
    # the scan's first alpha solve is the only maximum-set solve:
    # starvation never reports best_size, so it never computes it
    calls = []
    real = mis._Solver.maximum

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mis._Solver, "maximum", counting)
    assert starvation_report(path_graph(7)) == (1, 3, 5)
    assert len(calls) == 1


def test_sweep_format():
    csv = theta_sweep(path_graph(4), [Fraction(20), Fraction(100)], precision=6)
    lines = csv.splitlines()
    assert lines[0] == "theta,p_0,p_1,p_2,p_3"
    assert len(lines) == 3
    assert lines[1].startswith("20,")
    assert lines[2].startswith("100,")
    assert csv.endswith("\n")
    for row in lines[1:]:
        for cell in row.split(",")[1:]:
            assert float(cell) > 0


def test_sweep_single_theta_and_fractional_rendering():
    csv = theta_sweep(empty_graph(1), [Fraction(5, 2)], precision=3)
    lines = csv.splitlines()
    assert lines[0] == "theta,p_0"
    assert lines[1] == "5/2,0.714"  # 2.5/3.5 = 0.714285...


def test_sweep_rejects_nonpositive_theta():
    with pytest.raises(ValueError):
        theta_sweep(path_graph(3), [Fraction(0)])


def test_p4_no_starvation_at_wifi_thetas():
    csv = theta_sweep(path_graph(4), [Fraction(20), Fraction(100)], precision=6)
    for row in csv.splitlines()[1:]:
        for cell in row.split(",")[1:]:
            assert float(cell) >= 0.05


@st.composite
def graph_and_theta(draw, max_n=12):
    """A seeded G(n, p) graph and a theta = p/q in lowest terms with q > 1."""
    n = draw(st.integers(0, max_n))
    p = draw(st.sampled_from([0.1, 0.3, 0.6]))
    g = random_graph(random.Random(draw(st.integers(0, 2**32))), n, p)
    q = draw(st.integers(2, 60))
    theta = Fraction(draw(st.integers(1, 500)), q)
    if theta.denominator == 1:
        theta += Fraction(1, q)
    return g, theta


@settings(max_examples=150, deadline=None)
@given(graph_and_theta())
def test_integer_shares_match_fraction_arithmetic(case):
    g, theta = case
    full, parts = neighborhood_polynomials(g)
    coeffs = [p.coefficients for p in parts]
    exact = fraction_shares(full.coefficients, coeffs, theta)
    assert throughput(g, theta).p == exact
    assert throughput_limit(g).p == fraction_limits(full.coefficients, coeffs)
    for precision in range(9):
        rows = theta_sweep(g, [theta, Fraction(1)], precision).splitlines()[1:]
        expected = [exact, fraction_shares(full.coefficients, coeffs, Fraction(1))]
        for row, shares, t in zip(rows, expected, (theta, Fraction(1))):
            assert row.split(",") == [str(t)] + [fraction_decimal(x, precision) for x in shares]


@pytest.mark.parametrize("g, theta, precision, row", [
    # 1/2 rounds to the even 0, 3/4 to the even 0.8
    (empty_graph(1), Fraction(1), 0, "1,0"),
    (empty_graph(1), Fraction(3), 1, "3,0.8"),
    # two isolated vertices: the same ties as unreduced ratios 2/4 and 12/16
    (empty_graph(2), Fraction(1), 0, "1,0,0"),
    (empty_graph(2), Fraction(3), 1, "3,0.8,0.8"),
])
def test_sweep_rounds_exact_ties_half_to_even(g, theta, precision, row):
    assert theta_sweep(g, [theta], precision).splitlines()[1] == row


@settings(max_examples=150, deadline=None)
@given(graph_and_theta(max_n=10), st.booleans())
def test_evaluate_matches_state_sum(case, whole):
    g, theta = case
    if whole:
        theta = Fraction(theta.numerator)
    states = sum(c * theta ** k for k, c in enumerate(brute_count_by_size(g)))
    assert independence_polynomial(g).evaluate(theta) == states
