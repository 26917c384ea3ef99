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

The empirical timer compiles the generated C and runs it, but only after
validating the kernel against the reference evaluator: a wrong-answer
candidate never receives a finite fitness.
"""

from __future__ import annotations

import logging
import math
import tempfile
from dataclasses import dataclass, replace

from .fuse import Organism, PartitionNode, canonical_key, contracted_temporaries, ops_under
from .graph import DataflowGraph

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MachineModel:
    core_count: int = 8
    bytes_per_scalar: float = 8.0
    bandwidth: float = 1.0  # per-core streaming rate, relative units
    partition_overhead: float = 5000.0  # element-units per partition node
    extents: tuple[tuple[str, int], ...] = (("M", 1000), ("N", 1000))

    def __post_init__(self):
        if self.core_count < 1 or self.bytes_per_scalar <= 0 \
                or self.bandwidth <= 0 or self.partition_overhead < 0:
            raise ValueError("machine parameters must be positive")

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
        ops = ops_under(root)
        touched: list[str] = []
        for op_id in ops:
            op = graph.op(op_id)
            for name in [r.name for r in op.operands] + [op.result]:
                if name not in touched and name not in contracted:
                    touched.append(name)
        streamed = sum(elements(name) for name in touched)
        eff = 1.0
        overhead = 0.0
        if isinstance(root, PartitionNode):
            n_partitions += 1
            eff = float(min(org.threads[root.slot], machine.core_count))
            overhead = machine.partition_overhead
        cost = machine.bytes_per_scalar * (
            streamed / (eff * machine.bandwidth) + overhead
        )
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

    def key_salt(self) -> str:
        return "analytic:" + ",".join(
            f"{k}={v}" for k, v in self.machine.extents
        )

    def __call__(self, org: Organism) -> CostReport:
        return estimate_cost(org, self.graph, self.machine)


class EmpiricalTimer:
    """Fitness that compiles and times generated C through the toolchain.

    Candidates are validated against the reference evaluator first;
    compile failures, crashes and numerical mismatches all map to +inf
    fitness with distinct diagnostics.  Evaluations are serialized: one
    candidate process at a time.
    """

    def __init__(self, graph: DataflowGraph, toolchain=None,
                 extents: dict[str, int] | None = None, reps: int = 5,
                 validate_extents: dict[str, int] | None = None,
                 source_filter=None):
        from .runtime import Toolchain

        self.graph = graph
        self.toolchain = toolchain or Toolchain()
        self.extents = extents or {n: 1000 for n in graph.extent_names}
        self.reps = reps
        self.validate_extents = validate_extents or {
            n: min(64, self.extents[n]) for n in graph.extent_names
        }
        self.source_filter = source_filter  # test hook: corrupts the source

    def key_salt(self) -> str:
        return "empirical:" + ",".join(
            f"{k}={v}" for k, v in sorted(self.extents.items())
        )

    def __call__(self, org: Organism) -> CostReport:
        return measure_empirical(
            org, self.graph, self.toolchain, self.extents, self.reps,
            validate_extents=self.validate_extents,
            source_filter=self.source_filter,
        )


def measure_empirical(org: Organism, graph: DataflowGraph, toolchain,
                      extents: dict[str, int], reps: int = 5,
                      validate_extents: dict[str, int] | None = None,
                      source_filter=None) -> CostReport:
    """Compile, validate, and time one organism; +inf on any failure."""
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
    try:
        err = runtime.validation_error(kernel, graph,
                                       validate_extents or extents,
                                       toolchain, seed=7)
    except runtime.ToolchainError as exc:
        return failure("compile-failure", str(exc))
    except Exception as exc:  # a ctypes error; a segfault ends the process
        return failure("runtime-crash", repr(exc))
    if not err < 1e-10:
        return failure("numerical-mismatch", f"max relative error {err:.3e}")
    with tempfile.TemporaryDirectory(prefix="matfuse-") as wd:
        try:
            binary = toolchain.compile(kernel.source, wd, name="kernel_main")
        except runtime.ToolchainError as exc:
            return failure("compile-failure", str(exc))
        try:
            seconds = runtime.time_binary(binary, extents, graph.extent_names,
                                          reps)
        except runtime.ToolchainError as exc:
            return failure("runtime-crash", str(exc))
    return CostReport(total=seconds, source="empirical")


class CachedFitness:
    """Memoizes fitness on the canonical organism key (plus extents salt)."""

    def __init__(self, fn, enabled: bool = True):
        self.fn = fn
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self._table: dict[str, CostReport] = {}

    def key(self, org: Organism) -> str:
        salt = self.fn.key_salt() if hasattr(self.fn, "key_salt") else ""
        return salt + "|" + canonical_key(org)

    def __call__(self, org: Organism) -> CostReport:
        if not self.enabled:
            self.misses += 1
            return self.fn(org)
        key = self.key(org)
        if key in self._table:
            self.hits += 1
            return self._table[key]
        self.misses += 1
        report = self.fn(org)
        self._table[key] = report
        return report


def cached(fn, enabled: bool = True) -> CachedFitness:
    return CachedFitness(fn, enabled)
