"""Dataflow graph construction and container-type inference.

Each kernel statement is canonicalized into primitive operation nodes
(add, subtract, scale, multiply, copy) over data nodes (inputs, outputs,
compiler temporaries t0, t1, ...).  Scalar coefficients that multiply a
product chain are deferred past the chain and applied as trailing scale
operations, so ``y = beta * A' * (A * x)`` becomes::

    1:  t0 = A * x
    2:  t1 = A' * t0
    3:  y  = t1 * beta

Transpose is a zero-cost view (a flag on the operand reference), never an
operation node.

Container types describe iteration spaces as nested row/column containers
of scalars:

    scalar          S
    vector(column)  C<S>
    vector(row)     R<S>
    matrix(row)     C<R<S>>   (a column stack of contiguous rows)
    matrix(column)  R<C<S>>   (a row of contiguous columns)

Type inference assigns a container type to every temporary, unifies the
symbolic extents (a row-major M x N matrix times a length-N vector yields
a length-M vector), and derives a loop nest for every operation: ordered
axes with reduction and contiguity flags plus access maps saying which
axis indexes which physical dimension of each operand.  Axis labels are
tied to extent classes: ``i`` iterates matrix rows (extent M), ``j``
matrix columns (extent N), and ``k`` the single axis of kernels that
contain no matrix at all.  The innermost axis of every nest traverses
each dense matrix operand contiguously for its declared storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lang import Assign, BinOp, DeclaredType, Expr, KernelSpec, Transpose, Var


class TypeCheckError(ValueError):
    """Operand containers or extents are incompatible."""


# ---------------------------------------------------------------------------
# Container types

@dataclass(frozen=True)
class ContainerType:
    """S, or an oriented container O<elem> with O in {R, C}."""

    orientation: str | None = None  # "R" | "C" | None for scalar
    element: "ContainerType | None" = None

    def __str__(self):
        if self.orientation is None:
            return "S"
        return f"{self.orientation}<{self.element}>"

    @property
    def depth(self) -> int:
        return 0 if self.orientation is None else 1 + self.element.depth


S = ContainerType()
COL_VEC = ContainerType("C", S)
ROW_VEC = ContainerType("R", S)
ROW_MAJOR = ContainerType("C", ROW_VEC)  # stack of rows
COL_MAJOR = ContainerType("R", COL_VEC)


def container_of(decl: DeclaredType) -> ContainerType:
    if decl.kind == "scalar":
        return S
    if decl.kind == "vector":
        return COL_VEC if decl.orientation == "column" else ROW_VEC
    return ROW_MAJOR if decl.orientation == "row" else COL_MAJOR


def is_matrix(ct: ContainerType) -> bool:
    return ct.depth == 2


def is_vector(ct: ContainerType) -> bool:
    return ct.depth == 1


# ---------------------------------------------------------------------------
# Graph data model

@dataclass(frozen=True)
class OperandRef:
    name: str
    transposed: bool = False

    def __str__(self):
        return self.name + ("'" if self.transposed else "")


@dataclass
class DataNode:
    name: str
    role: str  # "input" | "output" | "temp"
    declared: DeclaredType | None = None
    ctype: ContainerType | None = None
    dims: tuple[str, ...] = ()  # extent symbols, logical (rows, cols) for matrices


@dataclass(frozen=True)
class Axis:
    label: str  # "i", "j", "k", ...
    extent: str  # extent symbol, e.g. "M"
    reduction: bool = False
    contiguous: bool = False


@dataclass(frozen=True)
class OpNest:
    axes: tuple[Axis, ...]
    # physical-dimension index maps: operand/result name position -> axis labels
    operand_axes: tuple[tuple[str, ...], ...]  # parallel to OpNode.operands
    result_axes: tuple[str, ...]

    @property
    def reduction_axis(self) -> str | None:
        for ax in self.axes:
            if ax.reduction:
                return ax.label
        return None

    def labels(self) -> tuple[str, ...]:
        return tuple(ax.label for ax in self.axes)


@dataclass
class OpNode:
    op_id: int  # dense 1..n, statement order
    kind: str  # "add" | "subtract" | "scale" | "multiply" | "copy"
    operands: tuple[OperandRef, ...]
    result: str
    nest: OpNest | None = None

    def data_names(self) -> set[str]:
        return {ref.name for ref in self.operands} | {self.result}

    def __str__(self):
        sym = {"add": " + ", "subtract": " - ", "scale": " * ", "multiply": " * "}
        if self.kind == "copy":
            return f"{self.op_id}: {self.result} = {self.operands[0]}"
        lhs = sym.get(self.kind, " ? ").join(str(o) for o in self.operands)
        return f"{self.op_id}: {self.result} = {lhs}"


@dataclass
class DataflowGraph:
    spec: KernelSpec
    data: dict[str, DataNode]
    ops: list[OpNode]
    extent_names: tuple[str, ...] = ()
    typed: bool = False
    # per-op bitmasks (bit i = op i), built on first use: the ops each op
    # reaches, the ops reaching it, the ops sharing a data node with it
    _down: list[int] = field(default_factory=list, repr=False, compare=False)
    _up: list[int] = field(default_factory=list, repr=False, compare=False)
    _share: list[int] = field(default_factory=list, repr=False, compare=False)
    _memo: dict[tuple[int, int], int] = field(default_factory=dict,
                                              repr=False, compare=False)
    _consumers: dict[str, list[OpNode]] = field(default_factory=dict,
                                                repr=False, compare=False)
    # per-axis bitmasks, built on first use: the ops iterating the axis,
    # and the reduction pairs of the axis
    _axes: tuple[dict[str, int], dict[str, tuple[int, ...]]] | None = field(
        default=None, repr=False, compare=False)
    _label_of: dict[str, str] = field(default_factory=dict, repr=False)

    def op(self, op_id: int) -> OpNode:
        return self.ops[op_id - 1]

    def op_ids(self) -> list[int]:
        return [op.op_id for op in self.ops]

    def producer_of(self, name: str) -> OpNode | None:
        for op in self.ops:
            if op.result == name:
                return op
        return None

    def consumers_of(self, name: str) -> list[OpNode]:
        if name not in self._consumers:
            self._consumers[name] = [
                op for op in self.ops if any(r.name == name for r in op.operands)
            ]
        return self._consumers[name]

    def edges(self) -> set[tuple[int | str, int]]:
        """Producer -> consumer edges; sources are op ids or input names."""
        out: set[tuple[int | str, int]] = set()
        for op in self.ops:
            for ref in op.operands:
                prod = self.producer_of(ref.name)
                out.add((prod.op_id if prod else ref.name, op.op_id))
        return out

    def predecessors(self, op_id: int) -> set[int]:
        preds = set()
        for ref in self.op(op_id).operands:
            prod = self.producer_of(ref.name)
            if prod is not None:
                preds.add(prod.op_id)
        return preds

    def reaches(self, src: int, dst: int) -> bool:
        """True when a dataflow path leads from op src to op dst."""
        return bool(self._masks()[0][src] >> dst & 1)

    def down_of(self, ops: int) -> int:
        """Bitmask of the ops some op in the bitmask `ops` reaches."""
        return self._union(0, ops)

    def up_of(self, ops: int) -> int:
        """Bitmask of the ops reaching some op in the bitmask `ops`."""
        return self._union(1, ops)

    def share_of(self, ops: int) -> int:
        """Bitmask of the ops sharing a data node with some op in `ops`."""
        return self._union(2, ops)

    def axis_ops(self, axis: str) -> int:
        """Bitmask of the ops whose nest iterates `axis`."""
        return self._axis_tables()[0].get(axis, 0)

    def reduction_pairs(self, axis: str) -> tuple[int, ...]:
        """(producer | consumer) bitmasks of the op pairs where the consumer
        reads a result the producer accumulates over `axis`, in (producer,
        consumer) order.  No loop or partition on `axis` may hold a pair."""
        return self._axis_tables()[1].get(axis, ())

    def _axis_tables(self):
        if self._axes is None:
            ops: dict[str, int] = {}
            pairs: dict[str, tuple[int, ...]] = {}
            for op in self.ops:
                for label in op.nest.labels():
                    ops[label] = ops.get(label, 0) | 1 << op.op_id
                red = op.nest.reduction_axis
                if red is not None:
                    pairs[red] = pairs.get(red, ()) + tuple(
                        1 << op.op_id | 1 << c.op_id
                        for c in self.consumers_of(op.result))
            self._axes = ops, pairs
        return self._axes

    def _union(self, table: int, ops: int) -> int:
        # memoized per op set: a search meets the same few subtrees again
        # and again, and there are at most 2^n of them
        key = (table, ops)
        if key not in self._memo:
            self._memo[key] = _or_rows(self._masks()[table], ops)
        return self._memo[key]

    def _masks(self) -> tuple[list[int], list[int], list[int]]:
        # ops are numbered 1..n in statement order and every edge runs
        # forward, so one reverse sweep closes the successor relation
        if not self._down:
            ids = range(1, len(self.ops) + 1)
            succ = [0] * (len(self.ops) + 1)
            for i in ids:
                for pred in self.predecessors(i):
                    succ[pred] |= 1 << i
            down = [0] * len(succ)
            for i in reversed(ids):
                down[i] = succ[i] | _or_rows(down, succ[i])
            self._up = [0] + [sum(1 << j for j in ids if down[j] >> i & 1)
                              for i in ids]
            self._share = [0] + [
                sum(1 << j for j in ids if self.share_operand(i, j))
                for i in ids
            ]
            self._down = down
        return self._down, self._up, self._share

    def share_operand(self, a: int, b: int) -> bool:
        """Fusion-candidate predicate: the ops read or write a common data node."""
        return bool(self.op(a).data_names() & self.op(b).data_names())


def bits(mask: int):
    """The op ids of a bitmask (bit i is op i), ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _or_rows(table: list[int], ops: int) -> int:
    """OR of table[i] over the bits i set in `ops`."""
    out = 0
    for i in bits(ops):
        out |= table[i]
    return out


# ---------------------------------------------------------------------------
# Statement canonicalization

class _Builder:
    def __init__(self, spec: KernelSpec):
        self.spec = spec
        self.data: dict[str, DataNode] = {}
        self.ops: list[OpNode] = []
        self.next_temp = 0
        for name, decl in spec.inputs:
            self.data[name] = DataNode(name, "input", decl)
        for name, decl in spec.outputs:
            self.data[name] = DataNode(name, "output", decl)
        # shape classes used only to steer canonicalization; real checking
        # happens in infer_types
        self.scalar_names = {n for n, d in spec.inputs + spec.outputs
                             if d.kind == "scalar"}
        self.reserved = {s.target for s in spec.statements} | set(self.data)

    def temp(self) -> str:
        # skip over any user identifier that shadows the t<n> scheme
        while f"t{self.next_temp}" in self.reserved:
            self.next_temp += 1
        name = f"t{self.next_temp}"
        self.next_temp += 1
        self.data[name] = DataNode(name, "temp")
        return name

    def emit(self, kind: str, operands: tuple[OperandRef, ...],
             result: str | None, scalar_result: bool) -> OperandRef:
        name = result if result is not None else self.temp()
        if name not in self.data:  # statement-defined intermediate
            self.data[name] = DataNode(name, "temp")
        if scalar_result:
            self.scalar_names.add(name)
        self.ops.append(OpNode(len(self.ops) + 1, kind, operands, name))
        return OperandRef(name)

    def is_scalar(self, ref: OperandRef) -> bool:
        return ref.name in self.scalar_names

    def statement(self, stmt: Assign):
        ref = self.lower(stmt.value, target=stmt.target)
        if ref.name != stmt.target:
            # expression reduced to a bare reference: pass-through copy node
            self.emit("copy", (ref,), stmt.target, self.is_scalar(ref))

    def lower(self, e: Expr, target: str | None = None) -> OperandRef:
        if isinstance(e, Var):
            return OperandRef(e.name)
        if isinstance(e, Transpose):
            inner = self.lower(e.operand)
            return OperandRef(inner.name, not inner.transposed)
        if e.op in ("+", "-"):
            left = self.lower(e.left)
            right = self.lower(e.right)
            kind = "add" if e.op == "+" else "subtract"
            scalar = self.is_scalar(left) and self.is_scalar(right)
            return self.emit(kind, (left, right), target, scalar)
        return self.lower_product(e, target)

    def lower_product(self, e: BinOp, target: str | None) -> OperandRef:
        # Flatten the left-associated * spine; parenthesized subproducts stay
        # whole and lower recursively.
        spine: list[Expr] = []
        node: Expr = e
        while isinstance(node, BinOp) and node.op == "*":
            spine.append(node.right)
            node = node.left
        spine.append(node)
        spine.reverse()
        factors = [self.lower(f) for f in spine]
        scalars = [f for f in factors if self.is_scalar(f)]
        values = [f for f in factors if not self.is_scalar(f)]
        if not values:
            # pure scalar product
            acc = scalars[0]
            for idx, s in enumerate(scalars[1:]):
                last = idx == len(scalars) - 2
                acc = self.emit("scale", (acc, s), target if last else None, True)
            return acc
        # fold the non-scalar chain left to right, then apply each scalar
        # coefficient to the chain result as its own scale operation
        acc = values[0]
        for idx, v in enumerate(values[1:]):
            last = idx == len(values) - 2 and not scalars
            acc = self.emit("multiply", (acc, v), target if last else None, False)
        for idx, s in enumerate(scalars):
            last = idx == len(scalars) - 1
            acc = self.emit("scale", (acc, s), target if last else None,
                            self.is_scalar(acc))
        return acc


def build_dataflow(spec: KernelSpec) -> DataflowGraph:
    """Canonicalize statements into a numbered operation graph."""
    b = _Builder(spec)
    for stmt in spec.statements:
        b.statement(stmt)
    return DataflowGraph(spec, b.data, b.ops)


# ---------------------------------------------------------------------------
# Type inference

class _Extents:
    """Union-find over symbolic extents."""

    def __init__(self):
        self.parent: dict[int, int] = {}
        self.next_id = 0

    def fresh(self) -> int:
        sym = self.next_id
        self.next_id += 1
        self.parent[sym] = sym
        return sym

    def find(self, sym: int) -> int:
        while self.parent[sym] != sym:
            self.parent[sym] = self.parent[self.parent[sym]]
            sym = self.parent[sym]
        return sym

    def unify(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _view(ct: ContainerType, transposed: bool, name: str) -> ContainerType:
    if not transposed:
        return ct
    if ct is S or ct.depth == 0:
        raise TypeCheckError(f"cannot transpose scalar {name!r}")
    if is_vector(ct):
        return ROW_VEC if ct.orientation == "C" else COL_VEC
    return COL_MAJOR if ct == ROW_MAJOR else ROW_MAJOR


def infer_types(graph: DataflowGraph) -> DataflowGraph:
    """Assign container types to temporaries, unify extents, derive nests.

    Raises TypeCheckError on container mismatches (adding a vector to a
    matrix, mismatched orientations) or extent conflicts.
    """
    ext = _Extents()
    dims: dict[str, tuple[int, ...]] = {}
    for name, node in graph.data.items():
        if node.declared is None:
            continue
        node.ctype = container_of(node.declared)
        dims[name] = tuple(ext.fresh() for _ in range(node.ctype.depth))

    def operand_info(ref: OperandRef) -> tuple[ContainerType, tuple[int, ...]]:
        node = graph.data[ref.name]
        if node.ctype is None:
            raise TypeCheckError(f"{ref.name!r} used before it is defined")
        ct = _view(node.ctype, ref.transposed, ref.name)
        d = dims[ref.name]
        if ref.transposed and len(d) == 2:
            d = (d[1], d[0])
        return ct, d

    for op in graph.ops:
        infos = [operand_info(ref) for ref in op.operands]
        if op.kind == "copy":
            rtype, rdims = infos[0]
        elif op.kind in ("add", "subtract"):
            (lt, ld), (rt, rd) = infos
            if lt != rt:
                raise TypeCheckError(
                    f"op {op.op_id}: cannot {op.kind} {lt} and {rt}"
                )
            for a, b in zip(ld, rd):
                ext.unify(a, b)
            rtype, rdims = lt, ld
        elif op.kind == "scale":
            (vt, vd), (st, sd) = infos
            if st is not S:
                raise TypeCheckError(f"op {op.op_id}: scale factor must be scalar")
            if is_matrix(vt) and op.operands[0].transposed:
                raise TypeCheckError(
                    f"op {op.op_id}: scaling a transposed matrix view is unsupported"
                )
            rtype, rdims = vt, vd
        elif op.kind == "multiply":
            rtype, rdims = _multiply_type(op, infos, ext)
        else:  # pragma: no cover - builder emits only the kinds above
            raise TypeCheckError(f"op {op.op_id}: unknown kind {op.kind}")
        res = graph.data[op.result]
        if res.ctype is None:
            # temporaries materialize with canonical storage: column vectors,
            # row-major matrices
            res.ctype = [S, COL_VEC, ROW_MAJOR][rtype.depth]
            dims[op.result] = rdims
        else:
            want = _view(res.ctype, False, op.result)
            if want.depth != rtype.depth or (
                want.depth == 1 and want != rtype
            ):
                raise TypeCheckError(
                    f"op {op.op_id}: cannot store {rtype} into "
                    f"{res.name} : {want}"
                )
            for a, b in zip(dims[op.result], rdims):
                ext.unify(a, b)

    _name_extents(graph, ext, dims)
    _derive_nests(graph)
    graph.typed = True
    return graph


def _multiply_type(op, infos, ext) -> tuple[ContainerType, tuple[int, ...]]:
    (lt, ld), (rt, rd) = infos
    oid = op.op_id
    if is_vector(lt) and is_vector(rt):
        if lt.orientation == "R" and rt.orientation == "C":
            ext.unify(ld[0], rd[0])  # dot product
            return S, ()
        if lt.orientation == "C" and rt.orientation == "R":
            return ROW_MAJOR, (ld[0], rd[0])  # outer product
        raise TypeCheckError(
            f"op {oid}: cannot multiply {lt} by {rt} (orientations)"
        )
    if is_matrix(lt) and is_vector(rt):
        if rt.orientation != "C":
            raise TypeCheckError(f"op {oid}: matrix-vector needs a column vector")
        rows, cols = ld
        ext.unify(cols, rd[0])
        return COL_VEC, (rows,)
    raise TypeCheckError(f"op {oid}: cannot multiply {lt} by {rt}")


def _name_extents(graph: DataflowGraph, ext: _Extents,
                  dims: dict[str, tuple[int, ...]]):
    # Extent classes are named in a fixed scheme: matrix rows M (axis i),
    # matrix columns N (axis j); kernels without matrices get extent M with
    # the pure-vector axis label k.  Any further independent class is named
    # K, L, ... with matching lowercase labels.
    class_name: dict[int, str] = {}
    class_label: dict[int, str] = {}
    has_matrix = False
    for name, node in graph.data.items():
        if node.ctype is not None and is_matrix(node.ctype):
            has_matrix = True
            rows, cols = (ext.find(s) for s in dims[name])
            if rows == cols:
                raise TypeCheckError(
                    f"dimension conflict: rows and columns of {name!r} are "
                    "forced to one extent"
                )
            class_name.setdefault(rows, "M")
            class_label.setdefault(rows, "i")
            class_name.setdefault(cols, "N")
            class_label.setdefault(cols, "j")
    if has_matrix:
        spare_names = iter(["K", "L", "P", "Q"])
    else:
        spare_names = iter(["M", "N", "K", "L"])
    spare_labels = iter(["k", "l", "p", "q"])
    for name in graph.data:
        for sym in dims.get(name, ()):
            root = ext.find(sym)
            if root not in class_name:
                class_name[root] = next(spare_names)
                class_label[root] = next(spare_labels)
    for name, node in graph.data.items():
        if name in dims:
            node.dims = tuple(class_name[ext.find(s)] for s in dims[name])
    seen: list[str] = []
    for node in graph.data.values():
        for d in node.dims:
            if d not in seen:
                seen.append(d)
    graph.extent_names = tuple(sorted(seen))
    graph._label_of = {class_name[c]: class_label[c] for c in class_name}


def _derive_nests(graph: DataflowGraph):
    label_of = graph._label_of

    def axes_of(name: str, transposed: bool) -> tuple[str, ...]:
        d = graph.data[name].dims
        if transposed and len(d) == 2:
            d = (d[1], d[0])
        return tuple(label_of[x] for x in d)

    extent_of = {label_of[d]: d for node in graph.data.values()
                 for d in node.dims}

    for op in graph.ops:
        result_axes = axes_of(op.result, False)
        operand_axes = tuple(axes_of(ref.name, False) for ref in op.operands)
        all_labels: list[str] = []
        for labels in (result_axes, *operand_axes):
            for lab in labels:
                if lab not in all_labels:
                    all_labels.append(lab)
        reductions = {lab for lab in all_labels if lab not in result_axes}
        if len(reductions) > 1:
            raise TypeCheckError(
                f"op {op.op_id}: more than one reduction axis {sorted(reductions)}"
            )
        # contiguity: the storage-inner dimension of every matrix operand
        # (physical, so transpose views do not change it)
        contiguous: set[str] = set()
        for ref in (*op.operands, OperandRef(op.result)):
            node = graph.data[ref.name]
            if node.ctype is not None and is_matrix(node.ctype):
                inner = node.dims[1] if node.ctype == ROW_MAJOR else node.dims[0]
                contiguous.add(label_of[inner])
        if not contiguous and all_labels:
            contiguous = {all_labels[-1]}
        ordered = sorted(all_labels,
                         key=lambda lab: (lab in contiguous, lab))
        axes = tuple(
            Axis(lab, extent_of[lab], lab in reductions, lab in contiguous)
            for lab in ordered
        )
        # operand_axes maps PHYSICAL dims; recompute untransposed
        op.nest = OpNest(axes, operand_axes, result_axes)
