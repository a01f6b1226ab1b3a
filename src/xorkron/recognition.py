"""Unlabeled recognition: search for a grid labeling that certifies membership.

recognize first runs the labeling-independent prefilter, then takes the least
valid labeling from membership.valid_labelings and certifies the graph it
relabels with membership.is_spanning_cross_like. That search yields nothing
unless the vertices split into independent grid rows and columns, each holding
evenly many odd-degree vertices. Past more dead ends than the graph has
vertices, each branch it would descend into must first pass a completion
check: a second search by the same step, most constrained vertices first, for
any valid labeling that extends the branch; a branch without one holds no leaf
and is skipped. Both searches walk explicit stacks whose placements each own
their state, so no depth meets the recursion limit. verify_certificate checks
a search-exhausted verdict by the root splits and the completion check of the
empty placement, without the least-first search. Recognition stays
exponential in the worst case: a sparse member whose isolated vertices come
first can take seconds.
"""

from __future__ import annotations

from dataclasses import replace

from .graphs import Graph
from .membership import (
    REASON_EDGE_BOUND,
    REASON_NO_PARTITION,
    REASON_ODD_EDGES,
    REASON_SEARCH_EXHAUSTED,
    Certificate,
    GridShape,
    Witness,
    has_independent_row_partition,
    is_spanning_cross_like,
    valid_labelings,
)


def prefilter(k: Graph, shape: GridShape) -> Witness | None:
    """Cheap labeling-independent rejections; None means no verdict.

    Members have evenly many edges (summands toggle disjoint edge pairs), at
    most shape.edge_bound of them, and admit a partition into p independent
    q-sets. A wrong vertex count is reported as a partition failure rather
    than raised, so callers can prefilter arbitrary graphs.
    """
    p, q = shape
    if k.n != p * q:
        return Witness(REASON_NO_PARTITION)
    if k.edge_count % 2:
        return Witness(REASON_ODD_EDGES)
    if k.edge_count > shape.edge_bound:
        return Witness(REASON_EDGE_BOUND)
    if not has_independent_row_partition(k, shape):
        return Witness(REASON_NO_PARTITION)
    return None


def recognize(k: Graph, shape: GridShape) -> Certificate:
    """Decide membership for k under some labeling; exhaustive and exact.

    Member certificates carry the lexicographically least valid labeling
    (cells compared as a tuple indexed by vertex), which is the first one
    valid_labelings yields, and the summands of the relabeled graph.
    """
    p, q = shape
    if k.n != p * q:
        raise ValueError(f"graph has {k.n} vertices, recognition needs {p * q}")
    w = prefilter(k, shape)
    if w is not None:
        return Certificate(False, shape, k, witness=w)
    labeling = next(valid_labelings(k, shape), None)
    if labeling is None:
        return Certificate(False, shape, k, witness=Witness(REASON_SEARCH_EXHAUSTED))
    relabeled = k.relabel(labeling.permutation())
    return replace(is_spanning_cross_like(relabeled, shape), graph=k, labeling=labeling)
