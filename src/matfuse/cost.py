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
rows and tail loops.  The timing run's untimed warm-up call allocates
the kernel's workspaces (cemit), so its timed reps measure the kernel's
own work, not the operating system zeroing fresh pages.  Both runs are
child processes with a timeout, so a candidate that crashes or hangs
costs one +inf fitness with a diagnostic and never ends or stalls the
search.

Fitness is asked for in lists (CachedFitness.ask).  The timer builds a
list's candidates at once, one compiler per CPU (EmpiricalTimer.batch),
and once every build has ended validates and times each in turn, so a
timing run never overlaps a build or another candidate's run.  A single
call is a list of one.
"""

from __future__ import annotations

import logging
import math
import tempfile
from dataclasses import dataclass, field
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
    # element count by extent symbols, filled by elements()
    _elements: dict[tuple[str, ...], float] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.core_count < 1:
            raise ValueError("core count must be at least 1")

    def extent(self, name: str) -> int:
        for key, val in self.extents:
            if key == name:
                return val
        raise KeyError(f"extent {name!r} not bound")

    def elements(self, dims: tuple[str, ...]) -> float:
        """The element count of data with these extent symbols, computed
        once per machine."""
        size = self._elements.get(dims)
        if size is None:
            size = 1.0
            for d in dims:
                size *= self.extent(d)
            self._elements[dims] = size
        return size


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
    """Deterministic streamed-bytes estimate for one organism.  Each op's
    distinct data names come from graph.op_data and each data node's
    element count from machine.elements, both computed once."""
    contracted = contracted_temporaries(org, graph)
    data = graph.data
    per_root = []
    n_partitions = 0
    for root in org.forest:
        touched: list[str] = []
        for op_id in bits(root.mask):
            for name in graph.op_data(op_id):
                if name not in touched and name not in contracted:
                    touched.append(name)
        streamed = sum([machine.elements(data[name].dims) for name in touched])
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
    to +inf fitness with distinct diagnostics.  `batch` builds many
    candidates at once, then validates and times them one at a time, so
    a timing run never overlaps a build of the batch or another
    candidate's run; a call is a batch of one.
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
        return self.batch([org])[0]

    def batch(self, orgs: list[Organism]) -> list[CostReport]:
        """The report of each organism, in order: every candidate is
        emitted and built first, each in its own subdirectory of one
        temporary directory and all compiles at once
        (Toolchain.compile_batch); then measure_empirical validates and
        times each built candidate in turn."""
        sources = [_kernel_source(org, self.graph, self.extents,
                                  self.source_filter) for org in orgs]
        with tempfile.TemporaryDirectory(prefix="matfuse-") as wd:
            dirs = [Path(wd, str(i)) for i in range(len(orgs))]
            for path in dirs:
                path.mkdir()
            built = self.toolchain.compile_batch(list(zip(sources, dirs)))
            return [measure_empirical(org, self.graph, binary, self.extents,
                                      self.reps)
                    for org, binary in zip(orgs, built)]


def _kernel_source(org: Organism, graph: DataflowGraph,
                   extents: dict[str, int], source_filter=None) -> str:
    """The C an empirical evaluation builds for the organism."""
    from .cemit import emit_c
    from .lower import contract_arrays, lower

    source = emit_c(contract_arrays(lower(org, graph)), extents).source
    return source if source_filter is None else source_filter(source)


def measure_empirical(org: Organism, graph: DataflowGraph, built,
                      extents: dict[str, int], reps: int = 5) -> CostReport:
    """Validate the organism's built binary at extents
    min(VALIDATION_EXTENT, extent), then time it at `extents`; +inf with a
    diagnostic on any failure.

    `built` is the binary EmpiricalTimer.batch built from `org`, or the
    ToolchainError its build raised.  Nothing here reads `org`: it comes
    first so that a wrapper of this function sees which candidate each
    measurement is of.
    """
    from . import runtime

    def failure(kind: str, detail: str) -> CostReport:
        logger.warning("empirical evaluation failed (%s): %s", kind, detail)
        return CostReport(
            total=math.inf, source="empirical",
            diagnostic=f"{kind}: {detail}",
        )

    if isinstance(built, runtime.ToolchainError):
        return failure(built.kind, str(built))
    small = {n: min(VALIDATION_EXTENT, extents[n]) for n in graph.extent_names}
    try:
        err = runtime.validation_error(built, graph, small, seed=7)
        if not err < runtime.REL_TOL:
            return failure("numerical-mismatch",
                           f"max relative error {err:.3e}")
        seconds = runtime.time_binary(built, extents, graph.extent_names,
                                      reps)
    except runtime.ToolchainError as exc:
        return failure(exc.kind, str(exc))
    return CostReport(total=seconds, source="empirical")


class CachedFitness:
    """Memoizes fitness on the canonical organism key.  A table belongs to
    one fitness function, whose extents are fixed.

    Fitness is asked for in lists (`ask`); the organisms a list misses
    are evaluated together, through the function's `batch` method when
    it has one (EmpiricalTimer), and hits and misses count as if the
    organisms had been asked for one at a time.
    """

    def __init__(self, fn):
        self.fn = fn
        self.hits = 0
        self.misses = 0
        self._table: dict[str, CostReport] = {}

    def __call__(self, org: Organism) -> CostReport:
        return self.ask([org])[0]

    def ask(self, orgs: list[Organism]) -> list[CostReport]:
        """The report of each organism, in order.  The first organism of
        each key the table lacks is a miss, every other one a hit."""
        keys = [canonical_key(org) for org in orgs]
        todo: dict[str, Organism] = {}
        for key, org in zip(keys, orgs):
            if key in self._table or key in todo:
                self.hits += 1
            else:
                self.misses += 1
                todo[key] = org
        if todo:
            batch = getattr(self.fn, "batch", None)
            reports = batch(list(todo.values())) if batch is not None \
                else [self.fn(org) for org in todo.values()]
            self._table.update(zip(todo, reports))
        return [self._table[key] for key in keys]


def cached(fn) -> CachedFitness:
    return CachedFitness(fn)
