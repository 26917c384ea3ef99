"""Fitness functions: analytic memory-traffic model and empirical timer.

The analytic model prices an organism by streamed bytes.  Every fused
root streams each distinct array it touches once (that is the payoff of
fusion: a shared operand crosses memory once per root, not once per
operation), contracted temporaries cost nothing, a partitioned root
divides its streaming by the effective thread count and pays a fixed
launch overhead per partition node.  It is a pure function: equal inputs
give bitwise-equal reports.  It knows nothing about caches or
vectorization; it exists to rank fusion/contraction/threading choices
deterministically and cheaply.

The empirical timer builds each candidate once, as a standalone binary,
validates that binary against the reference evaluator at extents
min(64, extent), and only then times it: a wrong-answer candidate never
receives a finite fitness.  Both runs are child processes with a
timeout, so a candidate that crashes or hangs costs one +inf fitness
with a diagnostic and never ends or stalls the search.
"""

from __future__ import annotations

import logging
import math
import tempfile
from dataclasses import dataclass, replace

from .fuse import Organism, PartitionNode, canonical_key, contracted_temporaries
from .graph import DataflowGraph, bits

logger = logging.getLogger(__name__)

BYTES_PER_SCALAR = 8.0
BANDWIDTH = 1.0  # per-core streaming rate, relative units
PARTITION_OVERHEAD = 5000.0  # element-units per partition node


@dataclass(frozen=True)
class MachineModel:
    core_count: int = 8
    extents: tuple[tuple[str, int], ...] = (("M", 1000), ("N", 1000))

    def __post_init__(self):
        if self.core_count < 1:
            raise ValueError("core count must be at least 1")

    def extent(self, name: str) -> int:
        for key, val in self.extents:
            if key == name:
                return val
        raise KeyError(f"extent {name!r} not bound")


@dataclass(frozen=True)
class CostReport:
    total: float  # relative units (analytic) or seconds (empirical)
    source: str  # "analytic" | "empirical"
    per_root: tuple[float, ...] = ()
    contracted: tuple[str, ...] = ()
    partition_nodes: int = 0
    diagnostic: str | None = None

    @property
    def failed(self) -> bool:
        return math.isinf(self.total)


def estimate_cost(org: Organism, graph: DataflowGraph,
                  machine: MachineModel) -> CostReport:
    """Deterministic streamed-bytes estimate for one organism."""
    contracted = contracted_temporaries(org, graph)

    def elements(name: str) -> float:
        node = graph.data[name]
        size = 1.0
        for d in node.dims:
            size *= machine.extent(d)
        return size

    per_root = []
    n_partitions = 0
    for root in org.forest:
        touched: list[str] = []
        for op_id in bits(root.mask):
            op = graph.op(op_id)
            for name in [r.name for r in op.operands] + [op.result]:
                if name not in touched and name not in contracted:
                    touched.append(name)
        streamed = sum(elements(name) for name in touched)
        eff = 1.0
        overhead = 0.0
        if isinstance(root, PartitionNode):
            n_partitions += 1
            eff = float(min(root.threads, machine.core_count))
            overhead = PARTITION_OVERHEAD
        cost = BYTES_PER_SCALAR * (streamed / (eff * BANDWIDTH) + overhead)
        per_root.append(cost)
    return CostReport(
        total=float(sum(per_root)),
        source="analytic",
        per_root=tuple(per_root),
        contracted=tuple(sorted(contracted)),
        partition_nodes=n_partitions,
    )


class AnalyticCost:
    """Fitness callable backed by estimate_cost."""

    def __init__(self, graph: DataflowGraph, machine: MachineModel):
        self.graph = graph
        self.machine = machine

    def __call__(self, org: Organism) -> CostReport:
        return estimate_cost(org, self.graph, self.machine)


class EmpiricalTimer:
    """Fitness that compiles and times generated C through the toolchain.

    Candidates are validated against the reference evaluator first;
    compile failures, crashes, timeouts and numerical mismatches all map
    to +inf fitness with distinct diagnostics.  Evaluations are
    serialized: one candidate process at a time.
    """

    def __init__(self, graph: DataflowGraph, toolchain=None,
                 extents: dict[str, int] | None = None, reps: int = 5,
                 source_filter=None):
        from .runtime import Toolchain

        if reps < 1:
            raise ValueError("reps must be at least 1")
        self.graph = graph
        self.toolchain = toolchain or Toolchain()
        self.extents = extents or {n: 1000 for n in graph.extent_names}
        self.reps = reps
        self.source_filter = source_filter  # test hook: corrupts the source

    def __call__(self, org: Organism) -> CostReport:
        return measure_empirical(
            org, self.graph, self.toolchain, self.extents, self.reps,
            source_filter=self.source_filter,
        )


def measure_empirical(org: Organism, graph: DataflowGraph, toolchain,
                      extents: dict[str, int], reps: int = 5,
                      source_filter=None) -> CostReport:
    """Compile once, validate that binary at extents min(64, extent), then
    time it at `extents`; +inf with a diagnostic on any failure."""
    from . import runtime
    from .cemit import emit_c
    from .lower import contract_arrays, lower

    def failure(kind: str, detail: str) -> CostReport:
        logger.warning("empirical evaluation failed (%s): %s", kind, detail)
        return CostReport(
            total=math.inf, source="empirical",
            diagnostic=f"{kind}: {detail}",
        )

    kernel = emit_c(contract_arrays(lower(org, graph)), extents)
    if source_filter is not None:
        kernel = replace(kernel, source=source_filter(kernel.source))
    small = {n: min(64, extents[n]) for n in graph.extent_names}
    try:
        with tempfile.TemporaryDirectory(prefix="matfuse-") as wd:
            binary = toolchain.compile(kernel.source, wd)
            err = runtime.validation_error(binary, graph, small, seed=7)
            if not err < runtime.REL_TOL:
                return failure("numerical-mismatch",
                               f"max relative error {err:.3e}")
            seconds = runtime.time_binary(binary, extents, graph.extent_names,
                                          reps)
    except runtime.ToolchainError as exc:
        return failure(exc.kind, str(exc))
    return CostReport(total=seconds, source="empirical")


class CachedFitness:
    """Memoizes fitness on the canonical organism key.  A table belongs to
    one fitness function, whose extents are fixed."""

    def __init__(self, fn):
        self.fn = fn
        self.hits = 0
        self.misses = 0
        self._table: dict[str, CostReport] = {}

    def __call__(self, org: Organism) -> CostReport:
        key = canonical_key(org)
        if key in self._table:
            self.hits += 1
            return self._table[key]
        self.misses += 1
        report = self.fn(org)
        self._table[key] = report
        return report


def cached(fn) -> CachedFitness:
    return CachedFitness(fn)
