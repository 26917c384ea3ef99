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
min(VALIDATION_EXTENT, extent), and only then times it: a wrong-answer
candidate never receives a finite fitness.  VALIDATION_EXTENT is odd:
at an extent that reaches it, the row blocks of a loop sum to an odd
count, so at any thread count some block is not a multiple of a
register block's four rows, and validation runs the emitter's clamped
rows and tail loops.  Both runs are child processes with a timeout,
so a candidate that crashes or hangs costs one +inf fitness with a
diagnostic and never ends or stalls the search.

A search hands the timer the candidates it is about to ask for
(CachedFitness.prefetch): those are built at once, one compiler per CPU
(EmpiricalTimer.batch), and once every build has ended each is
validated and timed in turn, so a timing run never overlaps a build or
another candidate's run.
"""

from __future__ import annotations

import logging
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .fuse import Organism, PartitionNode, canonical_key, contracted_temporaries
from .graph import DataflowGraph, bits

logger = logging.getLogger(__name__)

BYTES_PER_SCALAR = 8.0
BANDWIDTH = 1.0  # per-core streaming rate, relative units
PARTITION_OVERHEAD = 5000.0  # element-units per partition node
VALIDATION_EXTENT = 61  # odd: some row block is ragged at any thread count


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
    to +inf fitness with distinct diagnostics.  A call evaluates one
    candidate; `batch` builds many at once, then validates and times them
    one at a time, so a timing run never overlaps a build of the batch
    or another candidate's run.
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

    def batch(self, orgs: list[Organism]) -> list[CostReport]:
        """The report of each organism, in order, equal to what a call
        would give: every candidate is emitted and built first, each in
        its own subdirectory of one temporary directory and all compiles
        at once (Toolchain.compile_batch); then measure_empirical
        validates and times each built candidate in turn."""
        sources = [_kernel_source(org, self.graph, self.extents,
                                  self.source_filter) for org in orgs]
        with tempfile.TemporaryDirectory(prefix="matfuse-") as wd:
            dirs = [Path(wd, str(i)) for i in range(len(orgs))]
            for path in dirs:
                path.mkdir()
            built = self.toolchain.compile_batch(list(zip(sources, dirs)))
            return [measure_empirical(org, self.graph, self.toolchain,
                                      self.extents, self.reps, built=binary)
                    for org, binary in zip(orgs, built)]


def _kernel_source(org: Organism, graph: DataflowGraph,
                   extents: dict[str, int], source_filter=None) -> str:
    """The C an empirical evaluation builds for the organism."""
    from .cemit import emit_c
    from .lower import contract_arrays, lower

    source = emit_c(contract_arrays(lower(org, graph)), extents).source
    return source if source_filter is None else source_filter(source)


def measure_empirical(org: Organism, graph: DataflowGraph, toolchain,
                      extents: dict[str, int], reps: int = 5,
                      source_filter=None, built=None) -> CostReport:
    """Compile once, validate that binary at extents
    min(VALIDATION_EXTENT, extent), then time it at `extents`; +inf with a
    diagnostic on any failure.

    `built` is the organism's binary, or the ToolchainError its build
    raised, when the caller has built it already (EmpiricalTimer.batch):
    then nothing is emitted or compiled here.
    """
    from . import runtime

    def failure(kind: str, detail: str) -> CostReport:
        logger.warning("empirical evaluation failed (%s): %s", kind, detail)
        return CostReport(
            total=math.inf, source="empirical",
            diagnostic=f"{kind}: {detail}",
        )

    small = {n: min(VALIDATION_EXTENT, extents[n]) for n in graph.extent_names}

    def validate_and_time(binary) -> CostReport:
        err = runtime.validation_error(binary, graph, small, seed=7)
        if not err < runtime.REL_TOL:
            return failure("numerical-mismatch",
                           f"max relative error {err:.3e}")
        seconds = runtime.time_binary(binary, extents, graph.extent_names,
                                      reps)
        return CostReport(total=seconds, source="empirical")

    if isinstance(built, runtime.ToolchainError):
        return failure(built.kind, str(built))
    try:
        if built is not None:
            return validate_and_time(built)
        source = _kernel_source(org, graph, extents, source_filter)
        with tempfile.TemporaryDirectory(prefix="matfuse-") as wd:
            return validate_and_time(toolchain.compile(source, wd))
    except runtime.ToolchainError as exc:
        return failure(exc.kind, str(exc))


class CachedFitness:
    """Memoizes fitness on the canonical organism key.  A table belongs to
    one fitness function, whose extents are fixed.

    `prefetch` hands a function with a `batch` method (EmpiricalTimer)
    the organisms a search is about to ask for; their reports wait until
    each is asked for, so hits and misses count exactly as without it.
    """

    def __init__(self, fn):
        self.fn = fn
        self.hits = 0
        self.misses = 0
        self._table: dict[str, CostReport] = {}
        self._pending: dict[str, CostReport] = {}  # prefetched, not asked

    def __call__(self, org: Organism) -> CostReport:
        key = canonical_key(org)
        if key in self._table:
            self.hits += 1
            return self._table[key]
        self.misses += 1
        report = self._pending.pop(key, None)
        if report is None:
            report = self.fn(org)
        self._table[key] = report
        return report

    def prefetch(self, orgs: list[Organism]) -> None:
        """Evaluate in one batch those organisms whose keys the table
        lacks (the first of each key), if the function has a batch
        method; otherwise do nothing."""
        batch = getattr(self.fn, "batch", None)
        if batch is None:
            return
        todo: dict[str, Organism] = {}
        for org in orgs:
            key = canonical_key(org)
            if key not in self._table and key not in self._pending:
                todo.setdefault(key, org)
        if todo:
            self._pending.update(zip(todo, batch(list(todo.values()))))


def cached(fn) -> CachedFitness:
    return CachedFitness(fn)
