"""Graphs as XOR-combinations of tensor products, with certificates."""

from .algebra import TensorSummand, tensor_2sum, tensor_elementary, tensor_product, two_sum
from .builder import build_ppt_graph, verify_components
from .graphs import (
    Graph,
    format_edge_list,
    graph6_decode,
    graph6_encode,
    new_graph,
    parse_edge_list,
    standard_graph,
)
from .membership import (
    Certificate,
    GridLabeling,
    GridShape,
    Witness,
    census,
    edge_bound_check,
    elementary_decomposition,
    graph_from_quadruples,
    has_independent_row_partition,
    is_spanning_cross_like,
    pair_quadruples,
    valid_labelings,
    verify_certificate,
)
from .recognition import prefilter, recognize
from .t2 import gf2_rank, pair_matrix, t2_exact, t2_min_over_labelings
from .transpose import format_matrix_text, partial_transpose, ppt_test

__all__ = [
    "Certificate",
    "Graph",
    "GridLabeling",
    "GridShape",
    "TensorSummand",
    "Witness",
    "build_ppt_graph",
    "census",
    "edge_bound_check",
    "elementary_decomposition",
    "format_edge_list",
    "format_matrix_text",
    "gf2_rank",
    "graph6_decode",
    "graph6_encode",
    "graph_from_quadruples",
    "has_independent_row_partition",
    "is_spanning_cross_like",
    "new_graph",
    "pair_matrix",
    "pair_quadruples",
    "parse_edge_list",
    "partial_transpose",
    "ppt_test",
    "prefilter",
    "recognize",
    "standard_graph",
    "t2_exact",
    "t2_min_over_labelings",
    "tensor_2sum",
    "tensor_elementary",
    "tensor_product",
    "two_sum",
    "valid_labelings",
    "verify_certificate",
    "verify_components",
]
