"""Incremental fill-reducing ordering for dynamic sparsity patterns.

The library keeps a hierarchical separator decomposition of a matrix's
graph alive across repeated solves; when the sparsity pattern changes
locally, only the affected sub-graphs are reordered and the surviving
local permutations are spliced back into the global ordering.

The names below are what a caller of the library uses. The stages behind
them (synchronizer, decomposition tree, separator and ordering engines)
are imported from their modules, for example `parth.synchronizer`.
"""

from .assembler import AssemblyState, reuse_ratio
from .driver import Parth, ParthConfig
from .errors import (
    AsymmetricPattern,
    BallTooSmall,
    DimMismatch,
    IndexOutOfBounds,
    InvalidArgument,
    InvalidMap,
    InvalidPermutation,
    ParseError,
    ParthError,
    RegionMismatch,
    StaleTree,
    StateError,
)
from .graph import ABSENT, NodeMap, SparsityPattern, SymGraph, build_dual, compress_by_dim
from .metrics import CSV_HEADER, StepMetrics, degradation_monitor, step_metrics
from .oracle import FactorStats, fill_deviation, symbolic_analyze
from .ordering import is_permutation
from .sequence_io import (
    SequenceStep,
    read_manifest,
    read_matrix_market,
    read_node_map,
    write_manifest,
    write_matrix_market,
    write_node_map,
)
from .synchronizer import DirtyState
from .synthetic import grid_laplacian, hop_ball, inject_contacts, patch_remesh, radius_for_fraction

__version__ = "0.1.0"
