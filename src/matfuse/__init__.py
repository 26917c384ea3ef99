"""matfuse: compiler and autotuner for fused dense matrix-algebra kernels.

Pipeline: parse a small kernel language, build a typed dataflow graph,
represent fusion/partition/thread choices as legality-preserving fuse-set
trees, search that space (greedy max-fuse seed + genetic algorithm, among
other strategies), and emit fused, array-contracted, data-parallel C
verified against a numpy reference interpreter.
"""

from .lang import KernelSpec, parse_kernel, print_kernel
from .graph import DataflowGraph, build_dataflow, infer_types
from .fuse import (
    Limits, Organism, canonical_key, digit_space_size, enumerate_space,
    format_notation, fusion_legal, initial_forest, parse_notation,
)
from .search import SearchConfig, SearchResult, max_fuse, run_strategy
from .cost import AnalyticCost, EmpiricalTimer, MachineModel, cached, estimate_cost
from .lower import contract_arrays, lower
from .cemit import emit_c

__version__ = "0.1.0"

__all__ = [
    "KernelSpec", "parse_kernel", "print_kernel",
    "DataflowGraph", "build_dataflow", "infer_types",
    "Limits", "Organism", "canonical_key", "digit_space_size",
    "enumerate_space", "format_notation", "fusion_legal", "initial_forest",
    "parse_notation",
    "SearchConfig", "SearchResult", "max_fuse", "run_strategy",
    "AnalyticCost", "EmpiricalTimer", "MachineModel", "cached",
    "estimate_cost",
    "contract_arrays", "lower", "emit_c",
]
