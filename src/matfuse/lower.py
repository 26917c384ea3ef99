"""Lowering: organism + typed graph -> loop-level IR, and array contraction.

The IR mirrors the organism tree exactly: one sequential loop per loop
node, one parallel region per partition node, each operation's statement
at its innermost fused level.  The same single walk of the tree places
the bookkeeping the tree implies, at the loop node where it reaches each
reduction loop:

- reduction results are zero-initialized just before their reduction
  loop, in ascending op id, inside loops for the result's axes not yet in
  scope (inside the parallel workers when the reduction runs inside a
  partition);
- when a partition cuts an operation's reduction axis, the operation
  accumulates into a per-thread partial buffer and a join after the
  region combines the blocks in ascending block order.

Array contraction then demotes temporaries: a temporary whose producer
and consumers share every loop that indexes it needs only one live
element, so it becomes a scalar local.  Contraction never touches inputs
or outputs and never changes results; it only records the set of
contracted temporaries, which the emitter renders as locals.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .fuse import (
    IterNode, OpLeaf, Organism, PartitionNode, contracted_temporaries,
)
from .graph import DataflowGraph, OpNode, bits


@dataclass
class IRStmt:
    role: str  # "compute" | "init" (zeroes the op's result)
    op_id: int


@dataclass
class IRLoop:
    axis: str
    extent: str
    role: str  # "iter" | "init"
    sliced: bool  # bounds come from the enclosing partition block
    body: list


@dataclass
class IRParallel:
    axis: str
    extent: str
    threads: int
    body: list
    partials: list[str] = field(default_factory=list)  # result names to join


@dataclass
class LoopIR:
    graph: DataflowGraph
    organism: Organism
    roots: list  # IRLoop | IRParallel | IRStmt
    contracted: frozenset[str] = frozenset()

    def loop_count(self) -> int:
        n = 0

        def walk(items):
            nonlocal n
            for it in items:
                if isinstance(it, IRLoop):
                    if it.role == "iter":
                        n += 1
                    walk(it.body)
                elif isinstance(it, IRParallel):
                    walk(it.body)

        walk(self.roots)
        return n

    def region_count(self) -> int:
        return sum(1 for it in self.roots if isinstance(it, IRParallel))


def lower(org: Organism, graph: DataflowGraph) -> LoopIR:
    """Build the uncontracted loop IR for a legal organism in one walk of
    its tree, placing each reduction's init (and partial join) as the
    walk reaches the reduction loop."""
    extent_of = {ax.label: ax.extent
                 for op in graph.ops for ax in op.nest.axes}

    def init(op: OpNode, scope: tuple[str, ...],
             region: IRParallel | None) -> IRLoop | IRStmt:
        """The zero-init of a reduction op's result, wrapped in loops for its
        axes not yet in scope.  When the region's partition cuts the
        reduction, the op accumulates into a per-thread partial buffer,
        which each thread zeroes whole; otherwise an init loop over the
        partition axis covers only the block."""
        part = region.axis if region else None
        cut = part == op.nest.reduction_axis
        if cut:
            region.partials.append(op.result)
        item: IRLoop | IRStmt = IRStmt("init", op.op_id)
        for lab in reversed(graph.data[op.result].labels):
            if lab not in scope:
                sliced = lab == part and not cut
                item = IRLoop(lab, extent_of[lab], "init", sliced, [item])
        return item

    def lower_node(node: IterNode, scope: tuple[str, ...],
                   region: IRParallel | None) -> list:
        if isinstance(node, OpLeaf):
            red = graph.op(node.op_id).nest.reduction_axis
            assert red is None or red in scope, \
                f"no reduction loop for op {node.op_id}"
            return [IRStmt("compute", node.op_id)]
        if isinstance(node, PartitionNode):
            inner = IRParallel(node.axis, extent_of[node.axis], node.threads,
                               [])
            for child in node.children:
                inner.body.extend(lower_node(child, scope, inner))
            return [inner]
        under = (graph.op(i) for i in bits(node.mask))
        items = [init(op, scope, region) for op in under
                 if op.nest.reduction_axis == node.axis]
        body: list = []
        for child in node.children:
            body.extend(lower_node(child, scope + (node.axis,), region))
        sliced = region is not None and node.axis == region.axis
        items.append(IRLoop(node.axis, extent_of[node.axis], "iter", sliced,
                            body))
        return items

    roots: list = []
    for root in org.forest:
        roots.extend(lower_node(root, (), None))
    return LoopIR(graph, org, roots)


def contract_arrays(ir: LoopIR) -> LoopIR:
    """Demote every contractible temporary to a scalar local.

    Eligibility comes from the organism alone (producer and consumers
    share all indexing loops); the IR records the set, and the emitter
    renders each member as a local.
    """
    return replace(ir, contracted=frozenset(
        contracted_temporaries(ir.organism, ir.graph)))
