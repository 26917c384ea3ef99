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
or outputs and never changes results; it only relabels storage.
"""

from __future__ import annotations

import itertools
from collections.abc import Container
from dataclasses import dataclass, field, replace

from .fuse import (
    IterNode, LoopNode, OpLeaf, Organism, PartitionNode,
    contracted_temporaries,
)
from .graph import ROW_MAJOR, DataflowGraph, OpNode, bits, is_vector


@dataclass
class Storage:
    name: str
    cls: str  # "input" | "output" | "temp" | "contracted" | "partial"
    extents: tuple[str, ...]  # e.g. ("M", "N"); () for scalars
    labels: tuple[str, ...]  # axis label indexing each dim
    order: str  # "row" | "col" | "vec" | "scalar"
    base: str | None = None  # partials: the result they feed


@dataclass
class IRStmt:
    role: str  # "compute" | "init"
    op_id: int | None = None
    target: str | None = None  # init target


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
    slot: int  # the region's number in root order, naming its C block
    threads: int
    body: list
    partials: list[str] = field(default_factory=list)  # result names to join


@dataclass
class LoopIR:
    graph: DataflowGraph
    organism: Organism
    roots: list  # IRLoop | IRParallel | IRStmt
    storage: dict[str, Storage]
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

    def partial_for(self, result: str) -> Storage | None:
        """The per-thread partial buffer feeding `result`, if any."""
        for s in self.storage.values():
            if s.cls == "partial" and s.base == result:
                return s
        return None


def _storage_for(graph: DataflowGraph) -> dict[str, Storage]:
    table: dict[str, Storage] = {}
    for name, node in graph.data.items():
        labels = tuple(graph._label_of[d] for d in node.dims)
        if node.ctype is None or node.ctype.depth == 0:
            order = "scalar"
        elif is_vector(node.ctype):
            order = "vec"
        else:
            order = "row" if node.ctype == ROW_MAJOR else "col"
        table[name] = Storage(name, node.role, node.dims, labels, order)
    return table


def lower(org: Organism, graph: DataflowGraph) -> LoopIR:
    """Build the uncontracted loop IR for a legal organism in one walk of
    its tree, placing each reduction's init (and partial buffer) as the
    walk reaches the reduction loop."""
    storage = _storage_for(graph)
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
        res = storage[op.result]
        target = op.result
        if cut:
            target = _unique(storage, op.result + "_part")
            storage[target] = Storage(target, "partial", res.extents,
                                      res.labels, res.order, op.result)
            region.partials.append(op.result)
        item: IRLoop | IRStmt = IRStmt("init", op.op_id, target)
        for lab in reversed(res.labels):
            if lab not in scope:
                sliced = lab == part and not cut
                item = IRLoop(lab, extent_of[lab], "init", sliced, [item])
        return item

    regions = itertools.count()

    def lower_node(node: IterNode, scope: tuple[str, ...],
                   region: IRParallel | None) -> list:
        if isinstance(node, OpLeaf):
            red = graph.op(node.op_id).nest.reduction_axis
            assert red is None or red in scope, \
                f"no reduction loop for op {node.op_id}"
            return [IRStmt("compute", node.op_id)]
        if isinstance(node, PartitionNode):
            inner = IRParallel(node.axis, extent_of[node.axis],
                               next(regions), node.threads, [])
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
    return LoopIR(graph, org, roots, storage)


def _unique(taken: Container[str], want: str) -> str:
    name = want
    while name in taken:
        name += "_"
    return name


def contract_arrays(ir: LoopIR) -> LoopIR:
    """Demote every contractible temporary to a scalar local.

    Eligibility comes from the organism alone (producer and consumers
    share all indexing loops); this pass just rewrites the storage table,
    so generated statements pick up the scalar form.
    """
    names = contracted_temporaries(ir.organism, ir.graph)
    storage = dict(ir.storage)
    for name in names:
        storage[name] = replace(storage[name], cls="contracted")
    return LoopIR(ir.graph, ir.organism, ir.roots, storage,
                  contracted=frozenset(names))
