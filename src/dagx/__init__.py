"""Reduced, strongly reduced, and extremely reduced DAGs.

A library plus CLI for the three nested reducedness classes of directed
acyclic graphs, their exact extremal edge bounds, their realization as
directed intersection graphs of transversely intersecting boxes, and an
exhaustive desk-scale verification harness for all of it.
"""

from .bounds import (
    interval_turan,
    reduced_dag_edge_bound,
    turan_graph_edges,
)
from .boxes import (
    Box,
    BoxFamily,
    Interval,
    box,
    boxes_intersect,
    directed_intersection_graph,
    extremal_box_family,
    format_box_csv,
    intervals_strictly_nested,
    is_transverse_family,
    is_transverse_pair,
    parse_box_csv,
    random_box_family,
    random_transverse_family,
)
from .errors import (
    CapExceededError,
    CycleError,
    DagxError,
    DegenerateIntervalError,
    DuplicateEdgeError,
    EndpointMismatchError,
    InvalidParamsError,
    LimitExceededError,
    ParseError,
    SelfLoopError,
    UnknownClaimError,
    VertexRangeError,
)
from .generators import (
    ExtremalSpec,
    dag_count,
    dag_from_index,
    enumerate_dags,
    extremal_dag,
    extremal_for,
    random_dag,
    turan_dag,
)
from .graph import (
    Dag,
    LevelPartition,
    all_topological_orders,
    ancestors,
    descendants,
    format_edge_list,
    level_partition,
    levels,
    longest_path_length,
    parse_edge_list,
    reachability,
    sinks,
    sources,
    topological_order,
)
from .harness import (
    VerificationReport,
    find_separations,
    verify_box_props,
    verify_claim,
    verify_clique_bound,
    verify_closure,
    verify_equivalence_transitive,
    verify_implications,
    verify_theorem_bound,
    verify_turan_bound,
)
from .predicates import (
    enumerate_paths,
    is_extremely_reduced,
    is_reduced,
    is_reduced_bruteforce,
    is_sequence_path,
    is_strongly_reduced,
    is_strongly_reduced_bruteforce,
    is_transitive,
    ordered_union,
    transitive_closure,
)

__version__ = "0.1.0"
