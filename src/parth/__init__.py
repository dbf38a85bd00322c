"""Incremental fill-reducing ordering for dynamic sparsity patterns.

The library keeps a hierarchical separator decomposition of a matrix's
graph alive across repeated solves; when the sparsity pattern changes
locally, only the affected sub-graphs are reordered and the surviving
local permutations are spliced back into the global ordering.
"""

from .assembler import AssemblyState, assemble, reuse_ratio
from .driver import Parth, ParthConfig
from .errors import (
    AsymmetricPattern,
    BallTooSmall,
    DimMismatch,
    IndexOutOfBounds,
    InvalidArgument,
    InvalidMap,
    InvalidPermutation,
    NotPositiveDefinite,
    ParseError,
    ParthError,
    RegionMismatch,
    StaleTree,
)
from .graph import (
    ABSENT,
    NodeMap,
    SparsityPattern,
    SymGraph,
    bfs_distances,
    build_dual,
    compress_by_dim,
    connected_components,
    edge_set_diff,
    induced_subgraph,
    is_structurally_symmetric,
)
from .hgd import (
    HgdNode,
    HgdTree,
    default_max_level,
    hgd_build,
    hgd_redecompose,
    is_in_subtree,
    lca_of,
    level_of,
    post_order_indices,
)
from .metrics import CSV_HEADER, StepMetrics, degradation_monitor, step_metrics
from .oracle import (
    ROOT,
    FactorStats,
    elimination_tree,
    fill_deviation,
    numeric_cholesky_solve,
    symbolic_analyze,
)
from .ordering import MinDegreeEngine, invert_permutation, is_permutation, order_subgraph
from .separator import LevelSetEngine, SeparatorResult
from .sequence_io import (
    SequenceStep,
    read_manifest,
    read_matrix_market,
    read_node_map,
    write_manifest,
    write_matrix_market,
    write_node_map,
)
from .synchronizer import (
    DirtyState,
    TreeEdgeChange,
    aggressive_reuse,
    dirty_subgraph_detection,
    filter_redundant_subgraphs,
    map_edges_to_tree,
    mark_and_decompose,
    node_change_synchronizer,
    synchronize,
)
from .synthetic import grid_laplacian, hop_ball, inject_contacts, patch_remesh, radius_for_fraction

__version__ = "0.1.0"
