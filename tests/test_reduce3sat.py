from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import product

import pytest

from bgraph.extendability import is_one_extendable
from bgraph.graph import serialize_graph
from bgraph.mis import max_independent_set
from bgraph.reduce3sat import (
    DegenerateGeometryError,
    FormulaError,
    RectilinearFormula,
    build_double_prime,
    build_g_phi,
    parse_pmr3sat,
)
from helpers_brute import brute_alpha


def brute_satisfiable(formula: RectilinearFormula) -> bool:
    n = formula.n_vars
    for bits in range(1 << n):
        assignment = {i: bool(bits >> i & 1) for i in range(n)}
        if formula.satisfied_by(assignment):
            return True
    return False


def doc(variables, clauses) -> str:
    return json.dumps(
        {
            "variables": [{"name": n, "x": x} for n, x in variables],
            "clauses": [
                {
                    "sign": sign,
                    "y": y,
                    "legs": [
                        {"var": v} if off is None else {"var": v, "x": off}
                        for v, off in legs
                    ],
                }
                for sign, y, legs in clauses
            ],
        }
    )


TINY_SAT = [
    # one positive clause over three variables
    doc(
        [("a", 0), ("b", 4), ("c", 8)],
        [("+", 1, [("a", None), ("b", None), ("c", None)])],
    ),
    # complementary clause pair over the same variables
    doc(
        [("a", 0), ("b", 4), ("c", 8)],
        [
            ("+", 1, [("a", None), ("b", None), ("c", None)]),
            ("-", -1, [("a", None), ("b", None), ("c", None)]),
        ],
    ),
    # nested positive clauses sharing variables a and c
    doc(
        [("a", 0), ("b", 4), ("c", 8), ("d", 12)],
        [
            ("+", 1, [("a", 0), ("b", 4), ("c", 8)]),
            ("+", 2, [("a", -1), ("c", 9), ("d", 12)]),
        ],
    ),
    # repeated variable inside a clause, staggered legs
    doc(
        [("a", 0), ("b", 4)],
        [("+", 1, [("a", -1), ("a", 1), ("b", 4)])],
    ),
]

UNSAT_DOC = doc(
    [("a", 0)],
    [
        ("+", 1, [("a", -1), ("a", 0), ("a", 1)]),
        ("-", -1, [("a", -1), ("a", 0), ("a", 1)]),
    ],
)


# ---- parsing and validation ----

def test_parse_fig4_style_instance():
    text = doc(
        [("x1", 0), ("x2", 4), ("x3", 8), ("x4", 12), ("x5", 16)],
        [
            ("+", 1, [("x1", 0), ("x2", 4), ("x3", 8)]),
            ("+", 2, [("x1", -1), ("x3", 9), ("x4", 12)]),
            ("+", 3, [("x1", -2), ("x4", 13), ("x5", 16)]),
            ("-", -1, [("x2", 3), ("x3", 7), ("x4", 11)]),
            ("-", -2, [("x1", 1), ("x2", "5/2"), ("x5", 15)]),
        ],
    )
    f = parse_pmr3sat(text)
    assert f.m == 5 and f.n_vars == 5
    assert f.appearances(0) == 4


def test_parse_reads_coordinates_exactly():
    # a JSON number reads as the decimal it spells, as its string does
    f = parse_pmr3sat(doc([("a", 1.2), ("b", "4e0")], [("+", 0.5, [("a", 1.25), ("a", 1.5),
                                                                    ("b", None)])]))
    assert f.var_xs == (Fraction(6, 5), Fraction(4))
    (clause,) = f.clauses
    assert clause.y == Fraction(1, 2)
    assert [leg.x for leg in clause.legs] == [Fraction(5, 4), Fraction(3, 2), Fraction(4)]
    # as a binary float this leg is 2.0, on the edge of a's zone; read exactly
    # it lies inside, as a number and as a string alike
    text = doc([("a", 0), ("b", 4), ("c", 8)],
               [("+", 1, [("a", "1.99999999999999999"), ("b", 5), ("c", None)])])
    (g, cert), (g_num, cert_num) = (
        build_g_phi(parse_pmr3sat(t))
        for t in (text, text.replace('"1.99999999999999999"', "1.99999999999999999")))
    assert serialize_graph(g_num) == serialize_graph(g)
    assert cert_num.to_json_dict() == cert.to_json_dict()


def test_parse_repeated_variable_counts_appearances():
    f = parse_pmr3sat(TINY_SAT[3])
    assert f.appearances(0) == 2
    assert f.appearances(1) == 1


def test_parse_rejects_non_monotone():
    text = json.dumps(
        {
            "variables": [{"name": "a", "x": 0}, {"name": "b", "x": 4}, {"name": "c", "x": 8}],
            "clauses": [
                {
                    "sign": "+",
                    "y": 1,
                    "legs": [
                        {"var": "a", "sign": "+"},
                        {"var": "b", "sign": "-"},
                        {"var": "c"},
                    ],
                }
            ],
        }
    )
    with pytest.raises(FormulaError, match="non-monotone"):
        parse_pmr3sat(text)


def test_parse_rejects_unknown_variable():
    with pytest.raises(FormulaError, match="unknown variable"):
        parse_pmr3sat(doc([("a", 0)], [("+", 1, [("a", None), ("b", None), ("a", 1)])]))


def test_parse_rejects_bad_y_levels():
    with pytest.raises(FormulaError, match="inconsistent with sign"):
        parse_pmr3sat(doc([("a", 0), ("b", 4), ("c", 8)],
                          [("+", -1, [("a", None), ("b", None), ("c", None)])]))
    with pytest.raises(FormulaError, match="share a y-level"):
        parse_pmr3sat(
            doc(
                [("a", 0), ("b", 4), ("c", 8), ("d", 12)],
                [
                    ("+", 1, [("a", None), ("b", None), ("c", None)]),
                    ("+", 1, [("a", -1), ("c", 9), ("d", None)]),
                ],
            )
        )


def test_parse_rejects_coincident_legs():
    with pytest.raises(FormulaError, match="coincident leg"):
        parse_pmr3sat(doc([("a", 0), ("b", 4)],
                          [("+", 1, [("a", 0), ("a", 0), ("b", None)])]))


def test_parse_rejects_leg_outside_zone():
    with pytest.raises(FormulaError, match="outside the zone"):
        parse_pmr3sat(doc([("a", 0), ("b", 4)],
                          [("+", 1, [("a", 0), ("a", 3), ("b", None)])]))


def test_parse_rejects_leg_through_lower_segment():
    with pytest.raises(FormulaError, match="crosses the segment"):
        parse_pmr3sat(
            doc(
                [("a", 0), ("b", 4), ("c", 8)],
                [
                    ("+", 1, [("a", None), ("b", None), ("c", None)]),
                    ("+", 2, [("a", -1), ("b", 3), ("c", 9)]),
                ],
            )
        )


def test_parse_rejects_ordering_violations():
    with pytest.raises(FormulaError, match="strictly increasing"):
        parse_pmr3sat(doc([("a", 4), ("b", 0)], []))
    with pytest.raises(FormulaError, match="exactly 3 legs"):
        parse_pmr3sat(doc([("a", 0), ("b", 4)], [("+", 1, [("a", None), ("b", None)])]))


@pytest.mark.parametrize("text", [
    "[]",
    '{"variables": 5}',
    '{"variables": [{"name": "a", "x": 0}], "clauses": [3]}',
    doc([("a", 0)], [("+", 1, [])]).replace('"legs": []', '"legs": ["a", "a", "a"]'),
])
def test_parse_rejects_wrong_structure(text):
    with pytest.raises(FormulaError, match="must be"):
        parse_pmr3sat(text)


# ---- intermediate graph ----

def cycle_vertex_count(g) -> int:
    """Vertices of the variable cycles, read from their x:/xbar: labels."""
    return sum(1 for lab in g.labels if (lab or "").startswith(("x:", "xbar:")))


@pytest.mark.parametrize("text", TINY_SAT)
def test_double_prime_alpha_and_extendability(text):
    f = parse_pmr3sat(text)
    emb = build_double_prime(f)
    expected_alpha = f.m + cycle_vertex_count(emb.graph) // 2
    assert max_independent_set(emb.graph).alpha == expected_alpha
    assert is_one_extendable(emb.graph).is_one_extendable


def test_double_prime_shape_single_clause():
    f = parse_pmr3sat(TINY_SAT[0])
    emb = build_double_prime(f)
    assert emb.graph.n == 6 + 3 + 1
    assert cycle_vertex_count(emb.graph) == 6
    assert max_independent_set(emb.graph).alpha == 1 + 3


def test_double_prime_repeated_variable_cycle_length():
    # variable a appears twice in one clause: its cycle is a C4
    f = parse_pmr3sat(TINY_SAT[3])
    emb = build_double_prime(f)
    a_cycle = [v for v in range(emb.graph.n)
               if (emb.graph.labels[v] or "").startswith(("x:a:", "xbar:a:"))]
    assert len(a_cycle) == 4


def test_crossings_always_involve_pendant_edges():
    for text in TINY_SAT + [UNSAT_DOC]:
        emb = build_double_prime(parse_pmr3sat(text))
        assert len(emb.crossings) >= 1
        labels = emb.graph.labels
        for c in emb.crossings:
            assert c.kind in ("A", "B")
            # a pendant edge joins t:j:* to pi:j
            t, pi = (labels[v] for v in c.pendant)
            j = pi.split(":")[1]
            assert t.startswith(f"t:{j}:") and pi == f"pi:{j}"
            assert emb.graph.has_edge(*c.pendant) and emb.graph.has_edge(*c.other)
            ends = [labels[v] for v in c.other]
            if c.kind == "A":
                # the other edge is a triangle edge of one clause
                clauses = {lab.split(":")[1] for lab in ends}
                assert all(lab.startswith("t:") for lab in ends) and len(clauses) == 1
            else:
                assert any(lab.startswith("pi:") for lab in ends)


def test_every_clause_self_crossing_present():
    for text in TINY_SAT:
        f = parse_pmr3sat(text)
        emb = build_double_prime(f)
        assert len(emb.crossings) >= f.m


def test_nested_instance_has_type_b_crossing():
    emb = build_double_prime(parse_pmr3sat(TINY_SAT[2]))
    kinds = {c.kind for c in emb.crossings}
    assert kinds == {"A", "B"}


def test_crossing_hypotheses_hold():
    # for each crossing {uu', vv'} there are MISs meeting {u,u',v,v'} in
    # exactly {u} and exactly {u'}
    for text in (TINY_SAT[0], TINY_SAT[1]):
        emb = build_double_prime(parse_pmr3sat(text))
        g = emb.graph
        alpha = brute_alpha(g)
        for c in emb.crossings:
            u, up = c.pendant
            v, vp = c.other
            quad = {u, up, v, vp}
            for keep in (u, up):
                out = tuple(quad - {keep})
                assert brute_alpha(g, (keep,), out) == alpha


# ---- the full pipeline ----

@pytest.mark.parametrize("text", TINY_SAT)
def test_g_phi_matches_satisfiability_sat(text):
    f = parse_pmr3sat(text)
    assert brute_satisfiable(f)
    g, cert = build_g_phi(f)
    assert is_one_extendable(g).is_one_extendable


def test_g_phi_alpha_formula():
    for text in (TINY_SAT[0], TINY_SAT[1], UNSAT_DOC):
        f = parse_pmr3sat(text)
        emb = build_double_prime(f)
        spliced_alpha = f.m + cycle_vertex_count(emb.graph) // 2 + 9 * len(emb.crossings)
        g, _ = build_g_phi(f)
        assert max_independent_set(g).alpha == spliced_alpha + f.m


def test_unsat_instance_found_by_exhaustive_search():
    # exhaust all one- and two-clause documents over a single variable with
    # the canonical staggered legs; invalid layouts are skipped
    found = []
    legs = [("a", -1), ("a", 0), ("a", 1)]
    candidates = []
    for signs in [p for r in (1, 2) for p in product("+-", repeat=r)]:
        clauses = []
        seen = {"+": 0, "-": 0}
        for s in signs:
            seen[s] += 1
            y = seen[s] if s == "+" else -seen[s]
            clauses.append((s, y, legs))
        candidates.append(doc([("a", 0)], clauses))
    for text in candidates:
        try:
            f = parse_pmr3sat(text)
        except (FormulaError, DegenerateGeometryError):
            continue
        if not brute_satisfiable(f):
            found.append(text)
    assert found
    # the frozen unsat instance is the first hit of the search
    assert json.loads(found[0]) == json.loads(UNSAT_DOC)


def test_g_phi_matches_satisfiability_unsat():
    f = parse_pmr3sat(UNSAT_DOC)
    assert not brute_satisfiable(f)
    g, cert = build_g_phi(f)
    rep = is_one_extendable(g, stop_at_first_uncovered=True)
    assert not rep.is_one_extendable
    # the uncovered vertex is on the clause-coupling cycle
    uncovered = rep.uncovered()[0]
    assert (g.labels[uncovered] or "").startswith("z")


def test_g_phi_t3_variant_degree_bound_and_equivalence():
    f = parse_pmr3sat(TINY_SAT[0])
    g, cert = build_g_phi(f, apply_t3=True)
    assert g.max_degree() <= 3
    assert is_one_extendable(g).is_one_extendable

    fu = parse_pmr3sat(UNSAT_DOC)
    gu, _ = build_g_phi(fu, apply_t3=True)
    assert gu.max_degree() <= 3
    assert not is_one_extendable(gu, stop_at_first_uncovered=True).is_one_extendable


def test_g_phi_certificate_structure():
    f = parse_pmr3sat(TINY_SAT[0])
    g, cert = build_g_phi(f)
    assert cert.params == {"apply_t3": False}
    data = cert.data
    assert data["m"] == 1
    assert len(data["crossings"]) == len(data["gadgets"]) == 1
    z, zbar = data["z_ids"][0]
    assert g.has_edge(z, data["z_attach"]["0"])
    assert g.has_edge(z, zbar)


# SHA-256 of serialize_graph(g) + cert.to_json() for TINY_SAT + [UNSAT_DOC],
# without and with t3: any change to the compiled bytes is a change of the
# reduction's output format and must show up here
G_PHI_DIGESTS = [
    ("591b8aa90df852a10efbbd83645a093046a7f5ee5138cb3cd89fc8461e8c63fd",
     "1430a39ee20a997891cb4c5444f8331cc2270c59c9bcfdd8a257492ca04ca699"),
    ("6314d3e3c6e0ed30f87359cf5c7852635adb0c4624069ccb1fd5eea18924b783",
     "6b77bba917430e8e07249f3e925625392968fab514c3b9e284f2b3df8bbe760a"),
    ("e40d4c90a6cdc9e1344bbc304a8271d8beafe85a41be4199f2cc38f7d2a439ea",
     "78a5319a3e0a6ddac2f1111c961f14beadefa53f75de49549b389e47127a0ddf"),
    ("3140bc890bbcf44ced8bfc8de5f2bffb5b3541ee140e70cbfa8c9d5e0d9d0489",
     "272a37fbc623a5a07e3dd9be0f28750eaedd06c42b0caee48afa430117dff880"),
    ("1de6ca5608dc96f51cddc08157a003070caacfaf17a9465093983eb439a7fd03",
     "e0f36a0d7445c6cfc13d42f1032f5615b8ecb642d152a047e576187fbeea715a"),
]


@pytest.mark.parametrize("text, digests", zip(TINY_SAT + [UNSAT_DOC], G_PHI_DIGESTS),
                         ids=["sat0", "sat1", "nested", "sat3", "unsat"])
def test_g_phi_output_is_pinned(text, digests):
    f = parse_pmr3sat(text)
    for t3, expected in zip((False, True), digests):
        g, cert = build_g_phi(f, apply_t3=t3)
        blob = (serialize_graph(g) + cert.to_json()).encode()
        assert hashlib.sha256(blob).hexdigest() == expected
