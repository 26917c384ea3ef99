"""Fuse-set trees: the search-space representation.

A candidate program version (an *organism*) is a forest of iteration
trees over the operation graph.  Loop nodes share loops between the
operations beneath them; partition nodes add an outermost data-parallel
level that cuts one axis into per-thread blocks.  Writing the forest in
brace notation, one brace per loop with the axis subscripted::

    {_i{_j 1}}{_i{_j 2}}{_j 3}            three unfused roots
    {_{p(i)}{_i{_j 1}{_j 2}}}{_{p(j)}{_j 3}}   partitioned and outer-fused

Because fusion is expressed by sharing a tree node, the fusion relation
is an equivalence relation at every depth by construction, and every
operation under one partition node shares the thread count that node
carries.  Those two properties remove the bulk of the illegal points a
flat digit encoding would generate (digit_space_size computes the size
of that legacy encoding for comparison).  An organism's `threads` is
derived from its forest: the partition roots' counts in root order.

fusion_legal is the only statement of the rules below.  Its first
phase, shape_diagnostic, is also what parse_notation reports when text
names a badly shaped forest (the parser itself judges only the text),
and partition_axes offers exactly the partition axes fusion_legal
accepts, reading the same per-axis tables of the graph (the ops
iterating each axis and its reduction pairs); joint_partitions builds
its per-operation choices on it.

Structural invariants:

- every operation appears exactly once, at a leaf below exactly the
  loops of its canonical nest, in nest order (shape);
- partition nodes appear only at root position, outside every loop
  (shape), and their axis is an iteration axis of every operation
  beneath them;
- roots and siblings are ordered topologically.

Semantic legality on top of that:

- dependence convexity: no dataflow path between two operations in a
  fused set may pass through an operation outside the set;
- reduction barrier: an operation may not be fused at or inside the loop
  (or partition) level of a producer's reduction axis when it reads the
  reduced result;
- profitability pruning (on by default): every fused set must be
  connected by shared operands.

Every tree node carries ``mask``, the set of operations beneath it as a
bitmask (bit i is op i), computed once when the node is built and left
out of equality; it is the only form of a node's op set, and
graph.bits lists its op ids where ids are needed.  With the graph's
per-op reachability and operand-sharing bitmasks, convexity of a set S is
``down(S) & up(S) & ~S == 0``, sibling order is one AND per pair, and
the shared-operand rule is a flood fill over bits; the op-by-op walk
runs only to word the diagnostic of a set that fails.  Apart from
coverage, every rule above is local to one root:
its fused sets, siblings and reduction levels all lie inside it, and
canonicalize only reorders roots.  So a forest whose roots each pass
alone is legal exactly when its roots admit a topological order, which
is what lets crossover check only the root it changed.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import cached_property

from .graph import DataflowGraph, OpNode, bits


class NotationError(ValueError):
    """Brace notation that names no well-shaped forest.  `diagnostic` is
    the shape rule it breaks (None when the text itself is at fault) and
    `groups` holds the op bitmask of each top-level group read, so a
    caller can name a fusion rule the grouping already breaks."""

    diagnostic: "Diagnostic | None" = None
    groups: tuple[int, ...] = ()


class SpaceError(ValueError):
    """Kernel too large for exhaustive enumeration."""


# ---------------------------------------------------------------------------
# Tree nodes

@dataclass(frozen=True)
class OpLeaf:
    op_id: int
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mask", 1 << self.op_id)


def _children_mask(node) -> None:
    mask = 0
    for child in node.children:
        mask |= child.mask
    object.__setattr__(node, "mask", mask)


@dataclass(frozen=True)
class LoopNode:
    axis: str
    children: tuple["IterNode", ...]
    mask: int = field(init=False, repr=False, compare=False)  # ops beneath

    __post_init__ = _children_mask


@dataclass(frozen=True)
class PartitionNode:
    axis: str
    threads: int  # this data-parallel region's thread count
    children: tuple["IterNode", ...]
    mask: int = field(init=False, repr=False, compare=False)  # ops beneath

    __post_init__ = _children_mask


IterNode = OpLeaf | LoopNode | PartitionNode


def with_children(node: LoopNode | PartitionNode,
                  children: tuple[IterNode, ...]) -> LoopNode | PartitionNode:
    """The node with new children; a partition keeps its count."""
    if isinstance(node, PartitionNode):
        return PartitionNode(node.axis, node.threads, children)
    return LoopNode(node.axis, children)


@dataclass(frozen=True)
class Organism:
    forest: tuple[IterNode, ...]

    @cached_property
    def threads(self) -> tuple[int, ...]:
        """The partition roots' thread counts, in root order."""
        return tuple(r.threads for r in self.forest
                     if isinstance(r, PartitionNode))

    @cached_property
    def key(self) -> str:
        """Cache/duplicate-elimination key: notation plus thread assignment,
        computed once (a cached property is not a field, so it stays out
        of equality)."""
        key = format_notation(self)
        if self.threads:
            key += ";t=" + ",".join(str(t) for t in self.threads)
        return key


@dataclass(frozen=True)
class Diagnostic:
    rule: str  # "structure" | "order" | "dependence" | "reduction" | "shared-operand"
    message: str
    ops: tuple[int, ...] = ()
    axis: str | None = None

    def __str__(self):
        return f"[{self.rule}] {self.message}"


@dataclass(frozen=True)
class PartitionChoice:
    """One way to cut a single operation's iteration space for threads."""

    op_id: int
    axis: str
    sliced: tuple[str, ...]  # data nodes cut along the axis (result included)
    replicated: tuple[str, ...]  # data nodes every thread sees whole
    parallel_reduction: bool  # result needs a join before consumption


# ---------------------------------------------------------------------------
# Construction helpers

def full_nest(op: OpNode, from_depth: int = 0) -> IterNode:
    node: IterNode = OpLeaf(op.op_id)
    for axis in reversed(op.nest.labels()[from_depth:]):
        node = LoopNode(axis, (node,))
    return node


def initial_forest(graph: DataflowGraph) -> Organism:
    """Fully unfused, unpartitioned organism: one root per operation."""
    return Organism(tuple(full_nest(op) for op in graph.ops))


def with_threads(org: Organism, counts) -> Organism:
    """The organism with its partition roots' counts replaced by `counts`,
    in root order."""
    counts = iter(counts)
    return Organism(tuple(
        PartitionNode(r.axis, next(counts), r.children)
        if isinstance(r, PartitionNode) else r for r in org.forest))


# ---------------------------------------------------------------------------
# Canonical form

def _order_children(children: list[IterNode], graph: DataflowGraph) -> list[IterNode]:
    """Topological order of sibling subtrees, ties broken by smallest op id."""
    if len(children) < 2:
        return list(children)
    remaining = list(children)
    out: list[IterNode] = []
    while remaining:
        ready = []
        for c in remaining:
            up = graph.up_of(c.mask)
            if not any(up & o.mask for o in remaining if o is not c):
                ready.append(c)
        if not ready:  # dependence cycle between siblings: leave order as-is
            out.extend(remaining)
            break
        pick = min(ready, key=lambda c: c.mask & -c.mask)  # lowest op id
        out.append(pick)
        remaining.remove(pick)
    return out


def canonicalize(org: Organism, graph: DataflowGraph) -> Organism:
    """Sort siblings and roots canonically; counts move with their nodes."""
    def walk(node: IterNode) -> IterNode:
        if isinstance(node, OpLeaf):
            return node
        return with_children(node, tuple(
            walk(c) for c in _order_children(list(node.children), graph)))

    return Organism(tuple(
        walk(r) for r in _order_children(list(org.forest), graph)))


# ---------------------------------------------------------------------------
# Notation

def _fmt_node(node: IterNode) -> str:
    if isinstance(node, OpLeaf):
        return f" {node.op_id}"
    body = "".join(_fmt_node(c) for c in node.children)
    if isinstance(node, PartitionNode):
        return "{_{p(" + node.axis + ")}" + body + "}"
    return "{_" + node.axis + body + "}"


def format_notation(org: Organism) -> str:
    """Canonical brace text for the forest (thread counts ride separately)."""
    parts = []
    for root in org.forest:
        if isinstance(root, OpLeaf):
            parts.append(str(root.op_id))
        else:
            parts.append(_fmt_node(root))
    return "".join(parts)


def canonical_key(org: Organism) -> str:
    """Cache/duplicate-elimination key: notation plus thread assignment."""
    return org.key


# a root written schematically: unsubscripted braces around one op id
_SCHEMATIC = re.compile(r"(?:\{\s*)+(\d+)(?:\s*\})+")


class _NotationParser:
    """Recursive descent over brace notation, building tree nodes as it
    reads them.  It decides only what the text says (syntax, op ids, the
    axes of unsubscripted braces, the schematic {{3}} form); whether the
    forest has a legal shape is shape_diagnostic's to say."""

    def __init__(self, text: str, graph: DataflowGraph):
        self.text = text
        self.graph = graph
        self.pos = 0
        self.partitions = 0
        self.groups: list[int] = []  # op bitmask of each top-level group

    def fail(self, msg: str, diagnostic: Diagnostic | None = None):
        exc = NotationError(msg)
        exc.diagnostic = diagnostic
        exc.groups = tuple(self.groups)
        raise exc

    def error(self, msg: str):
        self.fail(f"at {self.pos}: {msg}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def forest(self) -> tuple[IterNode, ...]:
        roots = []
        self.skip_ws()
        while self.pos < len(self.text):
            self.groups.append(0)
            m = _SCHEMATIC.match(self.text, self.pos)
            if m and m[0].count("{") == m[0].count("}"):
                self.pos = m.start(1)
                roots.append(full_nest(self.graph.op(self.op_id())))
                self.pos = m.end()
            else:
                roots.append(self.item(0))
            self.skip_ws()
        return tuple(roots)

    def item(self, depth: int) -> IterNode:
        """A brace or an op id, `depth` loops deep."""
        c = self.text[self.pos]
        if c == "{":
            return self.brace(depth)
        if c.isdigit():
            return OpLeaf(self.op_id())
        self.error(f"unexpected {c!r}")

    def op_id(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        op_id = int(self.text[start:self.pos])
        if not 1 <= op_id <= len(self.graph.ops):
            self.fail(f"unknown op id {op_id}")
        self.groups[-1] |= 1 << op_id
        return op_id

    def brace(self, depth: int) -> IterNode:
        self.pos += 1
        axis = None
        partition = False
        if self.text.startswith("_{", self.pos):
            self.pos += 2
            if not self.text.startswith("p(", self.pos):
                self.error("expected p(axis)")
            self.pos += 2
            axis = self.name()
            if not self.text.startswith(")}", self.pos):
                self.error("expected ')}' after partition axis")
            self.pos += 2
            partition = True
            self.partitions += 1
        elif self.text.startswith("_", self.pos):
            self.pos += 1
            axis = self.name()
        inner = depth if partition else depth + 1
        children = []
        self.skip_ws()
        while not self.text.startswith("}", self.pos):
            if self.pos >= len(self.text):
                self.error("unbalanced braces")
            children.append(self.item(inner))
            self.skip_ws()
        self.pos += 1
        if partition:  # parse_notation sets the count
            return PartitionNode(axis, 1, tuple(children))
        if axis is None:  # the one axis the ops beneath have at this depth
            ops = LoopNode("", tuple(children)).mask
            found = {labels[depth] for labels in (
                self.graph.op(i).nest.labels() for i in bits(ops))
                if depth < len(labels)}
            if len(found) != 1:
                self.error(f"cannot infer the axis of a brace {depth} loops "
                           f"deep: its ops have {sorted(found)} there")
            axis = found.pop()
        return LoopNode(axis, tuple(children))

    def name(self) -> str:
        # axis labels are single lowercase letters; op ids may follow with
        # no separating space ({_j1}), so stop at the first non-letter
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if start == self.pos:
            self.error("expected axis name")
        return self.text[start:self.pos]


def parse_notation(
    text: str,
    graph: DataflowGraph,
    threads: int | tuple[int, ...] | None = None,
) -> Organism:
    """Parse brace notation into a canonical Organism.

    Unsubscripted braces (``{{1} {2}} {{3}}``) get their axes from the
    operations beneath them; a root of unsubscripted braces around one
    operation is that operation's whole nest.  ``threads`` supplies
    per-partition counts in text order (a single int applies globally;
    default 1).  A forest of the wrong shape raises NotationError
    carrying shape_diagnostic's verdict.
    """
    parser = _NotationParser(text, graph)
    org = Organism(parser.forest())
    n = parser.partitions
    if threads is None:
        threads = (1,) * n
    elif isinstance(threads, int):
        threads = (threads,) * n
    elif len(threads) != n:
        parser.fail(f"{len(threads)} thread counts for {n} partitions")
    org = with_threads(org, threads)
    diag = shape_diagnostic(org, graph)
    if diag is not None:
        parser.fail(str(diag), diag)
    return canonicalize(org, graph)


# ---------------------------------------------------------------------------
# Partitioning analysis

def enumerate_partitionings(op_id: int, graph: DataflowGraph) -> list[PartitionChoice]:
    """All single-level cuts of one operation's iteration axes."""
    op = graph.op(op_id)
    choices = []
    for ax in op.nest.axes:
        names: list[str] = [ref.name for ref in op.operands] + [op.result]
        sliced, replicated = [], []
        for name, labels in zip(
            names, list(op.nest.operand_axes) + [op.nest.result_axes]
        ):
            bucket = sliced if ax.label in labels else replicated
            if name not in bucket:
                bucket.append(name)
        choices.append(
            PartitionChoice(
                op_id, ax.label, tuple(sliced), tuple(replicated),
                parallel_reduction=ax.reduction,
            )
        )
    return choices


def partition_axes(ops: int, graph: DataflowGraph) -> list[str]:
    """The axes a p(axis) root over the bitmask passes fusion_legal's
    partition-axis and reduction rules with, read from the same graph
    tables: every op iterates the axis and no reduction pair of the axis
    lies inside the set.  In the nest order of the lowest op; empty when
    partitioned fusion is impossible here."""
    if not ops:
        return []
    labels = graph.op(next(bits(ops))).nest.labels()
    return [a for a in labels
            if not _stray_op(ops, a, graph) and not _reduction_pair(ops, a, graph)]


def joint_partitions(
    op_ids: list[int] | tuple[int, ...], graph: DataflowGraph
) -> list[dict[int, PartitionChoice]]:
    """Consistent partition assignments for a set of fused operations:
    each op's PartitionChoice on every axis of partition_axes.  All
    operations cut the same physical axis, so shared operands are sliced
    identically.
    """
    ops = sum(1 << i for i in set(op_ids))
    return [{i: next(c for c in enumerate_partitionings(i, graph) if c.axis == a)
             for i in bits(ops)} for a in partition_axes(ops, graph)]


# ---------------------------------------------------------------------------
# Legality

def _leaf_paths(org: Organism) -> dict[int, tuple[IterNode, ...]]:
    paths: dict[int, tuple[IterNode, ...]] = {}

    def walk(node: IterNode, above: tuple[IterNode, ...]):
        if isinstance(node, OpLeaf):
            paths[node.op_id] = above
            return
        for child in node.children:
            walk(child, above + (node,))

    for root in org.forest:
        walk(root, ())
    return paths


def shape_diagnostic(org: Organism, graph: DataflowGraph,
                     partial: bool = False) -> Diagnostic | None:
    """The first broken shape rule of the forest, or None.

    Every op appears exactly once (at most once under partial=True),
    at a leaf below exactly the loops of its nest, in nest order;
    partition nodes sit only at roots; no level is empty; every thread
    count is positive.
    """
    leaves = 0

    def check_node(node: IterNode, loop_path: tuple[str, ...],
                   at_root: bool) -> Diagnostic | None:
        nonlocal leaves
        if isinstance(node, OpLeaf):
            leaves += 1
            if not 1 <= node.op_id <= len(graph.ops):
                return None  # the coverage check names it
            labels = graph.op(node.op_id).nest.labels()
            if loop_path != labels:
                return Diagnostic(
                    "structure",
                    f"op {node.op_id} sits under loops {loop_path}, its "
                    f"nest's axis order is {labels}",
                    (node.op_id,),
                )
            return None
        if not node.children:
            return Diagnostic("structure", f"empty {node.axis} level")
        if isinstance(node, PartitionNode):
            if not at_root:
                return Diagnostic("structure",
                                  "partition nodes appear only at root level")
        else:
            loop_path += (node.axis,)
        for child in node.children:
            d = check_node(child, loop_path, False)
            if d:
                return d
        return None

    covered = 0
    for root in org.forest:
        d = check_node(root, (), True)
        if d:
            return d
        covered |= root.mask
    kernel = (1 << len(graph.ops) + 1) - 2
    if leaves != covered.bit_count() or covered & ~kernel \
            or not partial and covered != kernel:
        return Diagnostic(
            "structure",
            f"forest covers ops {list(bits(covered))} in {leaves} leaves; "
            f"each of the kernel's ops {graph.op_ids()} must appear "
            f"{'at most' if partial else 'exactly'} once",
            tuple(bits(covered)),
        )
    if any(t < 1 for t in org.threads):
        return Diagnostic("structure", "thread counts must be positive")
    return None


def _stray_op(ops: int, axis: str, graph: DataflowGraph) -> int:
    """The lowest op of the bitmask whose nest lacks `axis`, or 0."""
    return next(bits(ops & ~graph.axis_ops(axis)), 0)


def _reduction_pair(ops: int, axis: str, graph: DataflowGraph) -> int:
    """The first reduction pair of `axis` inside the bitmask, or 0: a
    loop or partition on `axis` over these ops would let the consumer read
    the producer's result while it is still accumulating."""
    return next((p for p in graph.reduction_pairs(axis) if ops & p == p), 0)


def fusion_legal(
    org: Organism,
    graph: DataflowGraph,
    require_shared_operand: bool = True,
    partial: bool = False,
) -> Diagnostic | None:
    """None when the organism is legal, else the violated rule.

    The only statement of the legality rules: shape (shape_diagnostic),
    partition axes, fused-set convexity and sharing, sibling order, the
    reduction barrier.  partial=True relaxes only the every-op-present
    requirement (used while growing a child organism op by op); all other
    rules still apply.
    """
    # -- structure ---------------------------------------------------------
    d = shape_diagnostic(org, graph, partial)
    if d:
        return d
    for root in org.forest:
        if isinstance(root, PartitionNode):
            op_id = _stray_op(root.mask, root.axis, graph)
            if op_id:
                return Diagnostic(
                    "structure",
                    f"partition axis {root.axis} is not an iteration axis "
                    f"of op {op_id}",
                    (op_id,), root.axis,
                )

    # -- fused-set rules ----------------------------------------------------
    groups: list[IterNode] = []
    by_axis: dict[str, list[int]] = {}  # op masks of the loops/partitions

    def collect(node: IterNode):
        if isinstance(node, OpLeaf):
            return
        by_axis.setdefault(node.axis, []).append(node.mask)
        if node.mask.bit_count() > 1:
            groups.append(node)
        for child in node.children:
            collect(child)

    for root in org.forest:
        collect(root)

    for node in groups:
        if not _convex(node.mask, graph):
            return dependence_diagnostic(list(bits(node.mask)), graph)
        if require_shared_operand and not _share_connected(node.mask, graph):
            ops = list(bits(node.mask))
            return Diagnostic(
                "shared-operand",
                f"fused ops {ops} do not share operands",
                tuple(ops),
            )

    # -- sibling and root order is topological -----------------------------
    def check_order(children: tuple[IterNode, ...]) -> Diagnostic | None:
        for later in range(1, len(children)):
            down = graph.down_of(children[later].mask)
            for earlier in range(later):
                if down & children[earlier].mask:
                    return Diagnostic(
                        "order",
                        f"subtree with ops {list(bits(children[later].mask))} "
                        f"must run before ops "
                        f"{list(bits(children[earlier].mask))}",
                    )
        for child in children:
            if not isinstance(child, OpLeaf):
                d = check_order(child.children)
                if d:
                    return d
        return None

    d = check_order(org.forest)
    if d:
        return d

    # -- reduction barrier ---------------------------------------------------
    broken = [(pair & -pair, pair, axis) for axis, masks in by_axis.items()
              for m in masks if (pair := _reduction_pair(m, axis, graph))]
    if broken:  # the first pair in (producer, consumer) order
        _, pair, red = min(broken)
        producer, consumer = bits(pair)
        result = graph.op(producer).result
        return Diagnostic(
            "reduction",
            f"op {consumer} reads {result}, the destination of op "
            f"{producer}'s accumulation over {red}, inside that {red} level",
            (producer, consumer), red,
        )
    return None


def _convex(ops: int, graph: DataflowGraph) -> bool:
    """No dataflow path between two ops of the bitmask leaves it and re-enters."""
    return not graph.down_of(ops) & graph.up_of(ops) & ~ops


def dependence_diagnostic(ops: list[int], graph: DataflowGraph) -> Diagnostic | None:
    """The dependence-convexity violation of a fused op set, or None."""
    if _convex(sum(1 << o for o in set(ops)), graph):
        return None
    inside = set(ops)
    for a in ops:
        for b in ops:
            if a == b or not graph.reaches(a, b):
                continue
            for x in graph.op_ids():
                if x not in inside and graph.reaches(a, x) \
                        and graph.reaches(x, b):
                    return Diagnostic(
                        "dependence",
                        f"ops {a} and {b} are fused but depend through "
                        f"op {x} outside the fused set",
                        (a, x, b),
                    )
    return None


def _share_connected(ops: int, graph: DataflowGraph) -> bool:
    """The ops of the bitmask are connected by shared data nodes."""
    reached = ops & -ops
    while True:
        grown = reached | graph.share_of(reached) & ops
        if grown == reached:
            return reached == ops
        reached = grown


# ---------------------------------------------------------------------------
# Array contraction analysis (shared by the cost model and code generation)

def contracted_temporaries(org: Organism, graph: DataflowGraph) -> set[str]:
    """Temporary arrays demoted to scalars under this organism.

    A temporary contracts when its producer and every consumer share the
    loops for all axes indexing it (then one element is live at a time).
    Inputs and outputs never contract; array contraction requires fusion.
    """
    paths = _leaf_paths(org)
    out: set[str] = set()
    for name, node in graph.data.items():
        if node.role != "temp" or not node.labels:
            continue
        producer = graph.producer_of(name)
        consumers = graph.consumers_of(name)
        if producer is None or not consumers:
            continue
        if producer.op_id not in paths or any(
                c.op_id not in paths for c in consumers):
            continue
        users = sum(1 << c.op_id for c in consumers)
        shared_loops = {  # the producer's loops around every consumer
            n.axis for n in paths[producer.op_id]
            if isinstance(n, LoopNode) and n.mask & users == users
        }
        if set(node.labels) <= shared_loops:
            out.add(name)
    return out


# ---------------------------------------------------------------------------
# Exhaustive enumeration

@dataclass(frozen=True)
class Limits:
    max_ops: int = 4
    max_threads: int = 8
    thread_mode: str = "global"  # "global" | "exhaustive" | "const"
    core_count: int = 8  # thread count used by "const" mode
    partitions: bool = True
    require_shared_operand: bool = True


def _set_partitions(items: list[int]):
    """All partitions of a list into nonempty unordered groups."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        yield [[first]] + sub
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]


def _sibling_tuples(ops: list[int], depth: int, graph: DataflowGraph):
    """Every tuple of sibling subtrees holding `ops` below `depth` loops:
    one subtree per group of a set partition of `ops`, where a group of
    one is its op's nest from that depth and a larger group fuses the
    loop at that depth."""
    for parts in _set_partitions(ops):
        options = []
        for part in parts:
            if len(part) == 1:
                options.append([full_nest(graph.op(part[0]), depth)])
            else:
                subtrees = list(_group_trees(part, depth, graph))
                if not subtrees:
                    break
                options.append(subtrees)
        else:
            yield from itertools.product(*options)


def _group_trees(ops: list[int], depth: int, graph: DataflowGraph):
    """All loop trees fusing `ops` at `depth` (they share this level's loop)."""
    labels = [graph.op(i).nest.labels() for i in ops]
    if any(len(l) <= depth for l in labels):
        return
    axis = labels[0][depth]
    if any(l[depth] != axis for l in labels):
        return
    for combo in _sibling_tuples(ops, depth + 1, graph):
        yield LoopNode(axis, combo)


def _root_shapes(ops: list[int], graph: DataflowGraph, limits: Limits):
    """All root subtrees over one fused group (bare and partition-wrapped)."""
    if len(ops) == 1:
        yield full_nest(graph.op(ops[0]))
    else:
        yield from _group_trees(ops, 0, graph)
    if limits.partitions:
        for axis in partition_axes(sum(1 << i for i in ops), graph):
            for combo in _sibling_tuples(ops, 0, graph):
                yield PartitionNode(axis, 1, combo)  # enumerate_space sets the count


def enumerate_space(graph: DataflowGraph, limits: Limits | None = None):
    """Yield every legal organism, duplicate-free, within limits.

    Thread handling follows limits.thread_mode: "global" assigns one
    shared count (1..max_threads) to all partitions, "exhaustive" sweeps
    per-partition counts independently, "const" pins core_count.
    """
    limits = limits or Limits()
    n = len(graph.ops)
    if n > limits.max_ops:
        raise SpaceError(
            f"kernel has {n} operations; exhaustive enumeration is limited "
            f"to {limits.max_ops} (raise max_ops to override)"
        )
    seen: set[str] = set()
    for grouping in _set_partitions(graph.op_ids()):
        shape_options = [list(_root_shapes(g, graph, limits)) for g in grouping]
        if any(not opts for opts in shape_options):
            continue
        for combo in itertools.product(*shape_options):
            shape = Organism(combo)
            for threads in _thread_tuples(len(shape.threads), limits):
                org = canonicalize(with_threads(shape, threads), graph)
                key = canonical_key(org)
                if key in seen:
                    continue
                if fusion_legal(org, graph, limits.require_shared_operand) is None:
                    seen.add(key)
                    yield org


def _thread_tuples(n_partitions: int, limits: Limits):
    if n_partitions == 0:
        yield ()
        return
    if limits.thread_mode == "const":
        yield (limits.core_count,) * n_partitions
    elif limits.thread_mode == "global":
        for t in range(1, limits.max_threads + 1):
            yield (t,) * n_partitions
    elif limits.thread_mode == "exhaustive":
        yield from itertools.product(
            range(1, limits.max_threads + 1), repeat=n_partitions
        )
    else:
        raise ValueError(f"unknown thread mode {limits.thread_mode!r}")


def digit_space_size(n: int, max_depth: int, max_threads: int) -> int:
    """Size of the legacy flat digit encoding of the same search space.

    One fusion-depth digit per operation pair plus a (direction, thread
    count) digit pair per operation, ignoring every interaction between
    digits: (max_depth+1)^(n(n-1)/2) * (3*(max_threads+1))^n.
    """
    if n < 1:
        raise ValueError("need at least one operation")
    pairs = n * (n - 1) // 2
    return (max_depth + 1) ** pairs * (3 * (max_threads + 1)) ** n
