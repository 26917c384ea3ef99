"""Lowering: organism + typed graph -> loop-level IR, and array contraction.

The IR mirrors the organism tree exactly: one sequential loop per loop
node, one parallel region per partition node, each operation's statement
at its innermost fused level.  On top of that the lowering places the
bookkeeping the tree implies:

- reduction results are zero-initialized in the deepest scope that still
  precedes the whole reduction loop (inside the parallel workers when the
  reduction runs inside a partition);
- when a partition cuts an operation's reduction axis, the operation
  accumulates into a per-thread partial buffer and a join after the
  region combines the blocks in ascending block order.

Array contraction then demotes temporaries: a temporary whose producer
and consumers share every loop that indexes it needs only one live
element, so it becomes a scalar local.  Contraction never touches inputs
or outputs and never changes results; it only relabels storage.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass, field, replace

from .fuse import (
    IterNode, OpLeaf, Organism, PartitionNode, contracted_temporaries,
)
from .graph import DataflowGraph, bits


@dataclass
class Storage:
    name: str
    cls: str  # "input" | "output" | "temp" | "contracted" | "partial"
    extents: tuple[str, ...]  # e.g. ("M", "N"); () for scalars
    labels: tuple[str, ...]  # axis label indexing each dim
    order: str  # "row" | "col" | "vec" | "scalar"
    scalar_param: bool = False  # declared scalar input (by-value parameter)
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
    slot: int  # index into organism threads
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
    from .graph import ROW_MAJOR, is_vector

    table: dict[str, Storage] = {}
    for name, node in graph.data.items():
        labels = tuple(graph._label_of[d] for d in node.dims)
        if node.ctype is None or node.ctype.depth == 0:
            order = "scalar"
        elif is_vector(node.ctype):
            order = "vec"
        else:
            order = "row" if node.ctype == ROW_MAJOR else "col"
        table[name] = Storage(
            name, node.role, node.dims, labels, order,
            scalar_param=(node.role == "input" and order == "scalar"),
        )
    return table


def lower(org: Organism, graph: DataflowGraph) -> LoopIR:
    """Build the uncontracted loop IR for a legal organism."""
    storage = _storage_for(graph)
    extent_of = {}
    for op in graph.ops:
        for ax in op.nest.axes:
            extent_of[ax.label] = ax.extent

    def op_items(op_id: int, part_axis: str | None) -> list:
        """The compute statement, plus a partial buffer when the partition
        cuts this op's reduction axis."""
        op = graph.op(op_id)
        red = op.nest.reduction_axis
        if red is not None and red == part_axis:
            res = storage[op.result]
            pname = _unique(storage, op.result + "_part")
            storage[pname] = Storage(
                pname, "partial", res.extents, res.labels, res.order,
                base=op.result,
            )
        return [IRStmt("compute", op_id)]

    def lower_node(node: IterNode, part_axis: str | None) -> list:
        if isinstance(node, OpLeaf):
            return op_items(node.op_id, part_axis)
        if isinstance(node, PartitionNode):
            region = IRParallel(node.axis, extent_of[node.axis], node.slot, [])
            for child in node.children:
                region.body.extend(lower_node(child, node.axis))
            region.partials = [
                s.base for s in storage.values()
                if s.cls == "partial"
                and s.base in {graph.op(o).result for o in bits(node.mask)}
            ]
            return [region]
        body: list = []
        for child in node.children:
            body.extend(lower_node(child, part_axis))
        return [IRLoop(node.axis, extent_of[node.axis], "iter",
                       node.axis == part_axis, body)]

    roots: list = []
    for root in org.forest:
        roots.extend(lower_node(root, None))

    ir = LoopIR(graph, org, roots, storage)
    _insert_inits(ir)
    return ir


def _unique(taken: Container[str], want: str) -> str:
    name = want
    while name in taken:
        name += "_"
    return name


def _insert_inits(ir: LoopIR):
    """Zero-initialize every reduction destination just before its
    reduction loop, inside all loops that index the destination."""
    graph = ir.graph

    def find_and_insert(items: list, op_id: int, red: str,
                        in_scope: tuple[str, ...],
                        part_axis: str | None) -> bool:
        for idx, item in enumerate(items):
            if isinstance(item, IRParallel):
                if _contains_op(item.body, op_id):
                    return find_and_insert(item.body, op_id, red, in_scope,
                                           item.axis)
            elif isinstance(item, IRLoop):
                if not _contains_op(item.body, op_id):
                    continue
                if item.axis == red:
                    items.insert(idx, _init_item(ir, op_id, in_scope,
                                                 part_axis))
                    return True
                return find_and_insert(item.body, op_id, red,
                                       in_scope + (item.axis,), part_axis)
        return False

    for op in graph.ops:
        red = op.nest.reduction_axis
        if red is None:
            continue
        found = find_and_insert(ir.roots, op.op_id, red, (), None)
        assert found, f"no reduction loop for op {op.op_id}"


def _contains_op(items: list, op_id: int) -> bool:
    for item in items:
        if isinstance(item, IRStmt) and item.op_id == op_id:
            return True
        if isinstance(item, (IRLoop, IRParallel)) and _contains_op(item.body, op_id):
            return True
    return False


def _init_item(ir: LoopIR, op_id: int, in_scope: tuple[str, ...],
               part_axis: str | None):
    """An init statement for the op's result, wrapped in loops for any of
    the result's axes whose loop variables are not yet in scope.

    Inside a parallel region, an init loop over the partitioned axis must
    cover only this thread's block; per-thread partial buffers are the
    exception (each thread owns and zeroes its whole slice).
    """
    op = ir.graph.op(op_id)
    result = op.result
    partial = ir.partial_for(result)
    target = partial.name if partial else result
    labels = ir.storage[result].labels
    item: IRLoop | IRStmt = IRStmt("init", op_id, target)
    extent_of = {ax.label: ax.extent for ax in op.nest.axes}
    for lab in reversed(labels):
        if lab not in in_scope:
            sliced = partial is None and lab == part_axis
            item = IRLoop(lab, extent_of.get(lab, "M"), "init", sliced, [item])
    return item


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
