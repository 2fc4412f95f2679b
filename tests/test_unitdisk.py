from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgraph.extendability import is_one_extendable
from bgraph.graph import Graph
from bgraph.unitdisk import (
    DiskLayout,
    EmbeddingError,
    OrthogonalEmbedding,
    intersection_graph,
    parse_embedding,
    parse_layout,
    serialize_embedding,
    serialize_layout,
    to_unit_disk,
    validate_embedding,
)
from helpers_brute import fraction_intersection_graph, path_graph


def square_c4():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    emb = OrthogonalEmbedding(
        coords={0: (0, 0), 1: (4, 0), 2: (4, 4), 3: (0, 4)},
        polylines={(0, 1): (), (1, 2): (), (2, 3): (), (0, 3): ()},
    )
    return g, emb


def straight_k2():
    g = Graph.from_edges(2, [(0, 1)])
    emb = OrthogonalEmbedding(coords={0: (0, 0), 1: (4, 0)}, polylines={(0, 1): ()})
    return g, emb


def straight_p5():
    g = path_graph(5)
    emb = OrthogonalEmbedding(
        coords={v: (4 * v, 0) for v in range(5)},
        polylines={(v, v + 1): () for v in range(4)},
    )
    return g, emb


def bent_triangle():
    # odd cycle needs a bend in any orthogonal drawing
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    emb = OrthogonalEmbedding(
        coords={0: (0, 0), 1: (4, 0), 2: (4, 4)},
        polylines={(0, 1): (), (1, 2): (), (0, 2): ((0, 4),)},
    )
    return g, emb


def test_intersection_graph_basics():
    two = DiskLayout({0: (Fraction(0), Fraction(0)), 1: (Fraction(2), Fraction(0))})
    assert intersection_graph(two).edges() == [(0, 1)]
    apart = DiskLayout({0: (Fraction(0), Fraction(0)), 1: (Fraction(5, 2), Fraction(0))})
    assert intersection_graph(apart).edges() == []
    three = DiskLayout(
        {
            0: (Fraction(0), Fraction(0)),
            1: (Fraction(2), Fraction(0)),
            2: (Fraction(4), Fraction(0)),
        }
    )
    assert intersection_graph(three).edges() == [(0, 1), (1, 2)]
    for points in ({}, {0: (Fraction(-7, 3), Fraction(5, 6))}):
        layout = DiskLayout(points)
        assert intersection_graph(layout) == fraction_intersection_graph(layout)
        assert intersection_graph(layout) == Graph.from_edges(len(points), [])


# exact tangency (distance 2) in several directions, and pairs just inside
# or just outside it, including across a diagonal cell corner
_OFFSETS = [(2, 0), (-2, 0), (0, 2), (0, -2), (Fraction(6, 5), Fraction(8, 5)),
            (Fraction(-8, 5), Fraction(6, 5)), (Fraction(6, 5), Fraction(-8, 5)),
            (1, 1), (Fraction(7, 6), Fraction(-3, 2)), (2, Fraction(1, 7))]
_COORD = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 7))


@st.composite
def disk_layout(draw, max_n=25):
    points: list[tuple[Fraction, Fraction]] = []
    for _ in range(draw(st.integers(0, max_n))):
        if points and draw(st.booleans()):
            x, y = points[draw(st.integers(0, len(points) - 1))]
            dx, dy = draw(st.sampled_from(_OFFSETS))
            points.append((x + dx, y + dy))
        else:
            points.append((draw(_COORD), draw(_COORD)))
    return DiskLayout(dict(enumerate(points)))


@settings(max_examples=150, deadline=None)
@given(disk_layout())
def test_intersection_graph_matches_all_pairs(layout):
    p = layout.points
    expected = [(u, v) for u in range(layout.n) for v in range(u + 1, layout.n)
                if (p[u][0] - p[v][0]) ** 2 + (p[u][1] - p[v][1]) ** 2 <= 4]
    realized = intersection_graph(layout)
    assert (realized.n, realized.edges()) == (layout.n, expected)
    # the int test on centers scaled by the lcm of the denominators against
    # the Fraction test it replaced
    assert realized == fraction_intersection_graph(layout)


def _roundtrip(g, emb):
    sub, layout, cert = to_unit_disk(g, emb)
    realized = intersection_graph(layout)
    assert realized.n == sub.n
    assert realized.edges() == sub.edges()
    return sub, layout, cert


def test_roundtrip_k2():
    sub, layout, cert = _roundtrip(*straight_k2())
    internal = cert.edge_map[(0, 1)]
    assert len(internal) % 2 == 0 and len(internal) >= 2
    assert sub.n == 2 + len(internal)


def test_roundtrip_c4():
    g, emb = square_c4()
    sub, layout, cert = _roundtrip(g, emb)
    for chain in cert.edge_map.values():
        assert len(chain) % 2 == 0
    assert all(sub.degree(v) == 2 for v in range(sub.n))
    assert is_one_extendable(sub).is_one_extendable  # even cycle


def test_roundtrip_triangle_with_bend():
    g, emb = bent_triangle()
    sub, layout, cert = _roundtrip(g, emb)
    for chain in cert.edge_map.values():
        assert len(chain) % 2 == 0
    # subdivided odd cycle stays an odd cycle: 1-extendable both sides
    assert is_one_extendable(g).is_one_extendable
    assert is_one_extendable(sub).is_one_extendable


def test_roundtrip_p5_preserves_non_extendability():
    g, emb = straight_p5()
    sub, layout, cert = _roundtrip(g, emb)
    assert not is_one_extendable(g).is_one_extendable
    assert not is_one_extendable(sub).is_one_extendable


def test_chain_geometry_tangency():
    g, emb = straight_k2()
    sub, layout, cert = to_unit_disk(g, emb)
    chain = [0, *cert.edge_map[(0, 1)], 1]
    for a, b in zip(chain, chain[1:]):
        ax, ay = layout.points[a]
        bx, by = layout.points[b]
        assert (ax - bx) ** 2 + (ay - by) ** 2 <= 4


def test_embedding_validation_errors():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(EmbeddingError, match="coordinate set"):
        validate_embedding(g, OrthogonalEmbedding({0: (0, 0)}, {(0, 1): ()}))
    with pytest.raises(EmbeddingError, match="share a coordinate"):
        validate_embedding(
            g, OrthogonalEmbedding({0: (0, 0), 1: (0, 0)}, {(0, 1): ()})
        )
    with pytest.raises(EmbeddingError, match="non-axis-parallel"):
        validate_embedding(
            g, OrthogonalEmbedding({0: (0, 0), 1: (2, 2)}, {(0, 1): ()})
        )
    with pytest.raises(EmbeddingError, match="zero-length"):
        validate_embedding(
            g, OrthogonalEmbedding({0: (0, 0), 1: (2, 0)}, {(0, 1): ((2, 0),)})
        )
    h = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(EmbeddingError, match="cross"):
        validate_embedding(
            h,
            OrthogonalEmbedding(
                {0: (0, 1), 1: (2, 1), 2: (1, 0), 3: (1, 2)},
                {(0, 1): (), (2, 3): ()},
            ),
        )
    span = Graph.from_edges(3, [(0, 2)])
    with pytest.raises(EmbeddingError, match="passes through"):
        validate_embedding(
            span,
            OrthogonalEmbedding(
                {0: (0, 0), 1: (2, 0), 2: (4, 0)},  # edge (0,2) runs over vertex 1
                {(0, 2): ()},
            ),
        )


def test_parsers_reject_wrong_structure():
    for text in ("[]", '{"vertices": 3, "edges": []}',
                 '{"vertices": [{"id": 0, "x": null, "y": 0}], "edges": []}',
                 '{"vertices": [], "edges": [{"u": 0, "v": 1, "bends": [5]}]}',
                 # a bend that is not an [x, y] pair
                 '{"vertices": [], "edges": [{"u": 0, "v": 1, "bends": [[4, 0, 1]]}]}',
                 '{"vertices": [], "edges": [{"u": 0, "v": 1, "bends": [[4]]}]}',
                 # inexact numbers: int() would truncate, overflow or read True as 1
                 '{"vertices": [{"id": 0, "x": 2.7, "y": "3"}], "edges": []}',
                 # a binary float would read this as 2
                 '{"vertices": [{"id": 0, "x": 2.0000000000000001, "y": 0}], "edges": []}',
                 '{"vertices": [{"id": 0, "x": Infinity, "y": 0}], "edges": []}',
                 '{"vertices": [{"id": 0, "x": 0, "y": NaN}], "edges": []}',
                 '{"vertices": [{"id": 1.5, "x": 0, "y": 0}], "edges": []}',
                 '{"vertices": [{"id": true, "x": 0, "y": 0}], "edges": []}',
                 '{"vertices": [], "edges": [{"u": 0, "v": 1.5, "bends": []}]}',
                 '{"vertices": [], "edges": [{"u": 0, "v": 1, "bends": [[0, -Infinity]]}]}'):
        with pytest.raises(EmbeddingError):
            parse_embedding(text)
    for text in ("[]", '{"points": 3}', '{"points": [{"id": 0, "x": null, "y": 0}]}',
                 '{"points": [{"id": 1.7, "x": 0, "y": 0}]}',
                 '{"points": [{"id": true, "x": 0, "y": 0}]}',
                 '{"points": [{"id": 0, "x": Infinity, "y": 0}]}',
                 '{"points": [{"id": 0, "x": 0, "y": NaN}]}',
                 '{"points": [{"id": 0, "x": false, "y": 0}]}',
                 # exponents whose power of ten would not fit in memory
                 '{"points": [{"id": 0, "x": 1e999999999, "y": 0}]}',
                 '{"points": [{"id": 0, "x": 0, "y": "-2.5E-999999999"}]}'):
        with pytest.raises(ValueError, match="layout|point"):
            parse_layout(text)


def test_parsers_accept_integral_numbers():
    emb = parse_embedding('{"vertices": [{"id": 0.0, "x": 2.0, "y": "3"}], "edges": []}')
    assert emb.coords == {0: (2, 3)}
    layout = parse_layout('{"points": [{"id": 0.0, "x": "1/3", "y": 0.5}]}')
    assert layout.points == {0: (Fraction(1, 3), Fraction(1, 2))}


def test_layout_decimals_are_exact():
    # as binary floats 1.2 and 1.6 lie just off distance 2 from the origin
    for x, y in (("1.2", "1.6"), ('"1.2"', '"1.6"'), ("12e-1", "0.16E1"),
                 ('"0.0012e+3"', "1600e-3")):
        layout = parse_layout(
            f'{{"points": [{{"id": 0, "x": 0, "y": 0}}, {{"id": 1, "x": {x}, "y": {y}}}]}}')
        assert layout.points[1] == (Fraction(6, 5), Fraction(8, 5))
        assert intersection_graph(layout).edges() == [(0, 1)]


def test_overlapping_edges_at_vertex_rejected():
    # two edges leaving vertex 0 in the same direction overlap
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    emb = OrthogonalEmbedding(
        coords={0: (0, 0), 1: (2, 0), 2: (4, 0)},
        polylines={(0, 1): (), (0, 2): ()},
    )
    with pytest.raises(EmbeddingError):
        validate_embedding(g, emb)


def test_degree_above_four_rejected():
    g = Graph.from_edges(6, [(0, v) for v in range(1, 6)])
    emb = OrthogonalEmbedding(
        coords={0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (-1, 0), 4: (0, -1), 5: (2, 2)},
        polylines={e: () for e in g.edges()},
    )
    with pytest.raises(EmbeddingError, match="degree"):
        validate_embedding(g, emb)


def test_embedding_json_roundtrip():
    g, emb = bent_triangle()
    again = parse_embedding(serialize_embedding(emb))
    assert again == emb


def test_layout_json_roundtrip():
    g, emb = straight_k2()
    _, layout, _ = to_unit_disk(g, emb)
    again = parse_layout(serialize_layout(layout))
    assert again.points == layout.points
    assert '"x": "4/3"' in serialize_layout(layout) or "/3" in serialize_layout(layout)
