"""Exact analysis toolkit for 1-extendability of conflict graphs."""

from .graph import (
    Graph,
    GraphParseError,
    degeneracy_order,
    induced_subgraph,
    is_independent,
    non_neighborhood,
    parse_graph,
    serialize_graph,
)
from .mis import (
    BudgetExceededError,
    IndependencePolynomial,
    MisResult,
    find_independent_set,
    has_k_is_containing,
    independence_polynomial,
    max_independent_set,
    neighborhood_polynomials,
)
from .extendability import (
    ExtendabilityReport,
    VertexVerdict,
    is_one_extendable,
    param_one_extendability,
)

__all__ = [
    "Graph",
    "GraphParseError",
    "parse_graph",
    "serialize_graph",
    "induced_subgraph",
    "non_neighborhood",
    "is_independent",
    "degeneracy_order",
    "BudgetExceededError",
    "MisResult",
    "IndependencePolynomial",
    "max_independent_set",
    "find_independent_set",
    "has_k_is_containing",
    "independence_polynomial",
    "neighborhood_polynomials",
    "ExtendabilityReport",
    "VertexVerdict",
    "is_one_extendable",
    "param_one_extendability",
]
