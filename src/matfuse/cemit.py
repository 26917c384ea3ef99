"""C code emission for lowered kernels.

Emits a self-contained C file, C99 plus C11's `_Thread_local`: the kernel
function (arrays first in declaration order, then output pointers, then
extents) plus a timing and validation main guarded by MATFUSE_NO_MAIN.
Partition nodes become parallel-for pragmas over block indices with the
thread count baked in; the pragmas degrade to serial loops when compiled
without OpenMP.  Partitioned reductions accumulate into per-thread
partial buffers joined in ascending block order after the region, so
results are bit-stable run to run at a fixed thread count.  The emitter
names them `<result>_part` and each region's block `p<n>`, n counting the
regions, stepping past the kernel's own names like every other name it
adds.

Each heap buffer of the kernel, an uncontracted array temporary or a
partial buffer, lives in a workspace the kernel keeps between calls: a
`static _Thread_local` pointer `<buffer>_ws` and its capacity in doubles
`<buffer>_cap`.  A call reallocates the workspace only when it needs more
than the capacity (a failed malloc leaves the capacity 0), and never frees
it, so after the first call at a size a call makes no allocation and
touches no fresh page.  Each calling thread has its own set, so threads
may call the kernel at once; the workspace only grows, and a thread that
exits does not free its own.  The region's threads share the caller's
buffers through an ordinary local pointer, since each thread's
`_Thread_local` is its own.

Two register-level transforms shape the loops (Carr & Kennedy, TOPLAS
1994); the IR itself still mirrors the organism tree:

- scalar replacement: an innermost loop that reduces over its own axis
  into memory (`q[i] += ...` under `for j`) accumulates in a local
  `double` that starts at 0.0, and stores it to the target after the
  loop;
- unroll-and-jam by UNROLL: a loop whose body holds only statements and
  innermost loops, one of which reduces over its own axis, runs UNROLL
  rows per pass.

Every loop is one pass, or two, over copies of its body: copy u of each
item runs the pass's row u, the copies of an inner loop share one loop
(copy 0's statements, then copy 1's, ...), and each copy has its own
name for each local.  A plain loop is one copy stepping one row.  A
jammed loop whose rows are independent is UNROLL copies whose row u,
`i + u`, is clamped to the last row, so it needs no remainder loop and
covers blocks of any size.  A jammed loop whose rows share a reduction
over its own axis (ATAX's `y[j] +=` under `for i`) runs UNROLL exact
rows per pass while UNROLL remain, then the plain copy over the last
(rows mod UNROLL) rows in a tail loop that computes its own start.
Renaming every local per copy is sound because an operation iterates at
most two axes (type inference rejects a matrix-matrix product): a
jammed loop, having inner loops, is the outermost loop of its nests, so
its body declares every local it uses.

Neither transform changes the order of any element's additions, so
outputs are bit-identical to those of the plain loops.  Lowering zeroes
a reduction's target just before its reduction loop, so a
scalar-replacement local repeats the same additions from the same 0.0,
and storing it equals adding it to that 0.0 (a sum that starts at +0.0 is
never -0.0); the zeroing, which that store overwrites, is left out.  The
fusion rules' reduction barrier means the rows of a loop share nothing
but reductions over the loop's own axis.  Without one the rows are
independent, and a clamped copy that computes the last row again stores
the same values over it.  With one, copy u's statements for an inner
index j run after copy u-1's for the same j; a reduction over the row
axis adds only into elements indexed by inner axes, and the barrier
stops any other statement from reading them mid-sum, so each element
still gets its additions in ascending row order, and the tail adds the
last rows after all of them.  Each copy's own sums (ATAX's dot product
`t0` per row) stay separate locals, so none of them is reordered either.

Emission is deterministic: the same organism always yields byte-identical
source.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fuse import canonical_key
from .graph import DataflowGraph, DataNode, OpNode
from .lower import IRLoop, IRParallel, IRStmt, LoopIR


@dataclass(frozen=True)
class GeneratedKernel:
    source: str
    kernel_name: str
    organism_key: str


class _Writer:
    def __init__(self):
        self.lines: list[str] = []
        self.depth = 0

    def put(self, text: str = ""):
        self.lines.append("    " * self.depth + text if text else "")

    def open(self, text: str):
        self.put(text + " {")
        self.depth += 1

    def close(self, suffix: str = ""):
        self.depth -= 1
        self.put("}" + suffix)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class _Names:
    """The C names of one scope: `want`, or `want` plus underscores while
    the scope has that taken."""

    def __init__(self, taken):
        self.taken = set(taken)

    def name(self, want: str) -> str:
        """A name clear of the taken ones, left unreserved."""
        name = want
        while name in self.taken:
            name += "_"
        return name

    def fresh(self, want: str) -> str:
        """A name clear of the taken ones, reserved against later names."""
        name = self.name(want)
        self.taken.add(name)
        return name


UNROLL = 4  # rows an unroll-and-jammed loop runs per pass


@dataclass(frozen=True)
class _Copy:
    """How one copy of a loop body renders: the C expression of each
    remapped axis label (a jammed copy runs its pass's row) and the C name
    of each local, keyed by the result it holds."""
    at: dict[str, str]
    names: dict[str, str]


def _index(node: DataNode, block: str | None = None,
           at: dict[str, str] | None = None) -> str:
    """Flat index expression; loop variables are the axis labels, unless
    `at` renders a label otherwise."""
    labs = [(at or {}).get(lab, lab) for lab in node.labels]
    exts = node.dims
    if node.order == "scalar":
        core = None
    elif node.order == "vec":
        core = labs[0]
    elif node.order == "row":
        core = f"{labs[0]} * {exts[1]} + {labs[1]}"
    else:  # col
        core = f"{labs[0]} + {labs[1]} * {exts[0]}"
    if block is None:
        return core or ""
    # partial buffer: leading per-block dim
    size = " * ".join(exts) if exts else "1"
    if core is None:
        return block
    return f"{block} * ({size}) + {core}"


def _innermost(item) -> bool:
    return isinstance(item, IRLoop) and all(
        isinstance(s, IRStmt) for s in item.body)


class _Emitter:
    def __init__(self, ir: LoopIR):
        self.ir = ir
        self.graph = ir.graph
        self.w = _Writer()
        self.regions = itertools.count()  # numbers each region's block
        self.block: str | None = None  # the open region's block variable
        labels = sorted({a.label for op in self.graph.ops
                         for a in op.nest.axes})
        # the kernel's own names, which the body's fixed names must avoid
        self.names = _Names({*self.graph.data, *self.graph.extent_names,
                             *labels})
        # the array temporaries that are not contracted live on the heap
        self.arrays = [node for node in self.graph.data.values()
                       if node.role == "temp" and node.order != "scalar"
                       and node.name not in ir.contracted]
        # each joined result's partial buffer, named before any local
        self.partials = {result: self.names.fresh(f"{result}_part")
                         for region in ir.roots
                         if isinstance(region, IRParallel)
                         for result in region.partials}
        # a local per contracted scalar and a scalar-replacement
        # accumulator per reduction into memory
        local = {name: self.names.fresh(f"{name}_s")
                 for name in self.graph.data if name in ir.contracted}
        for op in self.graph.ops:
            if op.nest.reduction_axis is not None and op.result not in local:
                local[op.result] = self.names.fresh(f"{op.result}_r")
        self.plain = _Copy({}, local)
        # the copies of a loop jammed over each label
        per_copy = {name: [self.names.fresh(f"{base}{u}")
                           for u in range(UNROLL)]
                    for name, base in local.items()}
        self.jam = {}
        for lab in labels:
            rows = (lab,) + tuple(self.names.fresh(f"{lab}{u}")
                                  for u in range(1, UNROLL))
            self.jam[lab] = tuple(
                _Copy({lab: row}, {name: names[u]
                                   for name, names in per_copy.items()})
                for u, row in enumerate(rows))
        # each heap buffer's workspace pointer and capacity
        heap = [node.name for node in self.arrays] + [*self.partials.values()]
        self.workspaces = {buf: (self.names.fresh(f"{buf}_ws"),
                                 self.names.fresh(f"{buf}_cap"))
                           for buf in heap}

    # -- reference rendering -------------------------------------------------

    def ref(self, name: str, c: _Copy) -> str:
        if name in self.ir.contracted:
            return c.names[name]
        node = self.graph.data[name]
        if node.order == "scalar":
            if node.role == "output":
                return f"(*{name})"
            return name
        return f"{name}[{_index(node, at=c.at)}]"

    # -- statements -----------------------------------------------------------

    def emit_stmt(self, stmt: IRStmt, c: _Copy, local: bool = False):
        """One statement in copy `c`; `local` accumulates it in its
        scalar-replacement local instead of its memory target."""
        if stmt.role == "init":
            self.emit_init(stmt, c)
            return
        op = self.graph.op(stmt.op_id)
        operands = [self.ref(r.name, c) for r in op.operands]
        if op.kind == "copy":
            expr = operands[0]
        elif op.kind == "add":
            expr = f"{operands[0]} + {operands[1]}"
        elif op.kind == "subtract":
            expr = f"{operands[0]} - {operands[1]}"
        else:  # scale | multiply
            expr = f"{operands[0]} * {operands[1]}"
        target = c.names[op.result] if local else self.target_ref(op, c)
        if op.nest.reduction_axis is not None:
            self.w.put(f"{target} += {expr};")
        elif op.result in self.ir.contracted:
            self.w.put(f"double {target} = {expr};")
        else:
            self.w.put(f"{target} = {expr};")

    def target_ref(self, op: OpNode, c: _Copy) -> str:
        """Where `op` stores: its partial buffer's slot for the open
        region's block (an op with a partial only sits in its region), or
        its result."""
        buf = self.partials.get(op.result)
        if buf is not None:
            node = self.graph.data[op.result]
            return f"{buf}[{_index(node, self.block, c.at)}]"
        return self.ref(op.result, c)

    def emit_init(self, stmt: IRStmt, c: _Copy):
        """Zero the op's result where the op stores (a contracted result is
        never joined, so it only declares its local)."""
        op = self.graph.op(stmt.op_id)
        if op.result in self.ir.contracted:
            self.w.put(f"double {c.names[op.result]} = 0.0;")
        else:
            self.w.put(f"{self.target_ref(op, c)} = 0.0;")

    def emit_workspace(self, buf: str, elements: str):
        """Declare `buf`, pointing at its workspace grown to at least
        `elements` doubles."""
        ws, cap = self.workspaces[buf]
        self.w.put(f"static _Thread_local double *{ws};")
        self.w.put(f"static _Thread_local size_t {cap};")
        self.w.open(f"if ({cap} < {elements})")
        self.w.put(f"free({ws});")
        self.w.put(f"{ws} = (double *)malloc(sizeof(double) * {elements});")
        self.w.put(f"{cap} = {ws} ? {elements} : 0;")
        self.w.close()
        self.w.put(f"double *{buf} = {ws};")

    # -- structure -------------------------------------------------------------

    def emit_items(self, items: list, copies: tuple[_Copy, ...] = ()):
        """`items` once per copy (once, plainly, by default); the copies of
        an innermost loop share one loop.  A zeroing that the next
        innermost loop's sum overwrites is dead and left out."""
        copies = copies or (self.plain,)
        for k, item in enumerate(items):
            if isinstance(item, IRStmt):
                if not self.overwritten(item, items[k + 1:]):
                    for c in copies:
                        self.emit_stmt(item, c)
            elif _innermost(item):
                self.emit_innermost(item, copies)
            elif isinstance(item, IRLoop):
                self.emit_loop(item)
            else:
                self.emit_region(item)

    def overwritten(self, stmt: IRStmt, rest: list) -> bool:
        """Whether `stmt` zeroes a result that the loop after it and its
        fellow inits sums in a local and then stores over the zero."""
        if stmt.role != "init":
            return False
        result = self.graph.op(stmt.op_id).result
        after = next((it for it in rest
                      if not (isinstance(it, IRStmt) and it.role == "init")),
                     None)
        return _innermost(after) and any(
            op.result == result for op in self.sums(after))

    def bounds(self, loop: IRLoop) -> tuple[str, str]:
        if loop.sliced:
            return (self.names.name(f"{loop.axis}_lo"),
                    self.names.name(f"{loop.axis}_hi"))
        return "0", loop.extent

    def reduces_over(self, stmt: IRStmt, axis: str) -> bool:
        return stmt.role == "compute" \
            and self.graph.op(stmt.op_id).nest.reduction_axis == axis

    def sums(self, loop: IRLoop) -> list[OpNode]:
        """The ops of an innermost loop that reduce over its axis into
        memory: each accumulates in a local."""
        ops = (self.graph.op(s.op_id) for s in loop.body
               if self.reduces_over(s, loop.axis))
        return [op for op in ops if op.result not in self.ir.contracted]

    def emit_innermost(self, loop: IRLoop, copies: tuple[_Copy, ...]):
        """One loop running each copy's statements in turn.  Each of its
        sums starts at 0.0 in a local that is stored to its target after
        the loop.  Lowering zeroes that target just before the loop (a
        store emit_items leaves out), so the local makes the same
        additions in the same order, and the stored sum equals 0.0 plus it
        (a sum that starts at +0.0 is never -0.0)."""
        v = loop.axis
        lo, hi = self.bounds(loop)
        sums = self.sums(loop)
        summed = {op.op_id for op in sums}
        for c in copies:
            for op in sums:
                self.w.put(f"double {c.names[op.result]} = 0.0;")
        self.w.open(f"for (long {v} = {lo}; {v} < {hi}; ++{v})")
        for c in copies:
            for s in loop.body:
                self.emit_stmt(s, c, local=s.op_id in summed)
        self.w.close()
        for c in copies:
            for op in sums:
                self.w.put(f"{self.target_ref(op, c)} = {c.names[op.result]};")

    def jammable(self, loop: IRLoop) -> bool:
        """A loop whose body holds statements and innermost loops only, at
        least one of them reducing over its own axis."""
        inner = [it for it in loop.body if not isinstance(it, IRStmt)]
        return all(_innermost(it) for it in inner) \
            and any(self.reduces_over(s, it.axis)
                    for it in inner for s in it.body)

    def shares_rows(self, loop: IRLoop) -> bool:
        """Whether something in the loop reduces over the loop's own axis:
        by the fusion rules' reduction barrier its rows share nothing
        else."""
        return any(self.reduces_over(s, loop.axis) for it in loop.body
                   for s in (it.body if isinstance(it, IRLoop) else (it,)))

    def emit_loop(self, loop: IRLoop):
        """A plain loop, or a jammable loop's passes of UNROLL rows: with
        independent rows one pass, copy u's row `v + u` clamped to the last
        row; with rows that share a reduction, exact passes over the first
        rows and a plain tail over the last (extent mod UNROLL) rows."""
        v = loop.axis
        lo, hi = self.bounds(loop)
        if not self.jammable(loop):
            self.emit_pass(loop, lo, f"{v} < {hi}", (self.plain,), [])
        elif not self.shares_rows(loop):
            self.emit_pass(loop, lo, f"{v} < {hi}", self.jam[v], [
                f"{v} + {u} < {hi} ? {v} + {u} : {hi} - 1"
                for u in range(1, UNROLL)])
        else:
            self.emit_pass(loop, lo, f"{v} + {UNROLL - 1} < {hi}",
                           self.jam[v],
                           [f"{v} + {u}" for u in range(1, UNROLL)])
            count = hi if lo == "0" else f"({hi} - {lo})"
            self.emit_pass(loop, f"{hi} - {count} % {UNROLL}", f"{v} < {hi}",
                           (self.plain,), [])

    def emit_pass(self, loop: IRLoop, start: str, cond: str,
                  copies: tuple[_Copy, ...], rows: list[str]):
        """One loop over the loop's body from `start` while `cond`, each
        step running one row per copy: copy u > 0 runs row `rows[u - 1]`."""
        v = loop.axis
        # `+=` in the emitted C marks accumulations only
        step = f"{v} = {v} + {len(copies)}" if len(copies) > 1 else f"++{v}"
        self.w.open(f"for (long {v} = {start}; {cond}; {step})")
        for c, row in zip(copies[1:], rows):
            self.w.put(f"long {c.at[v]} = {row};")
        self.emit_items(loop.body, copies)
        self.w.close()

    def emit_region(self, region: IRParallel):
        """A parallel-for over the region's blocks.  Partitions sit only at
        roots, so regions never nest and one block variable is open at a
        time."""
        t = region.threads
        b = self.block = self.names.name(f"p{next(self.regions)}")
        for result in region.partials:
            dims = self.graph.data[result].dims
            self.emit_workspace(self.partials[result], " * ".join(
                f"(size_t){e}" for e in (t, *dims)))
        self.w.put(
            f"#pragma omp parallel for num_threads({t}) schedule(static)"
        )
        self.w.open(f"for (long {b} = 0; {b} < {t}; ++{b})")
        ax, ext = region.axis, region.extent
        lo, hi = self.names.name(f"{ax}_lo"), self.names.name(f"{ax}_hi")
        self.w.put(f"long {lo} = ({ext} * {b}) / {t};")
        self.w.put(f"long {hi} = ({ext} * ({b} + 1)) / {t};")
        self.emit_items(region.body)
        self.w.close()
        self.block = None
        for result in region.partials:
            self.emit_join(result, t)

    def emit_join(self, result: str, t: int):
        """Each element of `result` sums its blocks' partials in ascending
        block order: a loop per axis of the result, around a loop over the
        blocks."""
        buf, node = self.partials[result], self.graph.data[result]
        b = self.names.name("b")
        acc = self.names.name("acc" if node.dims else f"{result}_acc")
        for lab, ext in zip(node.labels, node.dims):
            self.w.open(f"for (long {lab} = 0; {lab} < {ext}; ++{lab})")
        self.w.put(f"double {acc} = {buf}[{_index(node) or '0'}];")
        self.w.open(f"for (long {b} = 1; {b} < {t}; ++{b})")
        self.w.put(f"{acc} += {buf}[{_index(node, b)}];")
        self.w.close()
        self.w.put(f"{self.ref(result, self.plain)} = {acc};")
        for _ in node.dims:
            self.w.close()


def kernel_params(graph: DataflowGraph) -> list[str]:
    """The C parameter declarations in the fixed signature order."""
    spec = graph.spec
    params: list[str] = []
    for name, decl in spec.inputs:
        if decl.kind == "scalar":
            params.append(f"double {name}")
        else:
            params.append(f"const double *restrict {name}")
    for name, decl in spec.outputs:
        if decl.kind == "scalar":
            params.append(f"double *{name}")
        else:
            params.append(f"double *restrict {name}")
    for ext in graph.extent_names:
        params.append(f"long {ext}")
    return params


def _elements(node: DataNode) -> str:
    if not node.dims:
        return "1"
    return " * ".join(f"(size_t){e}" for e in node.dims)


def emit_c(ir: LoopIR, extents: dict[str, int] | None = None) -> GeneratedKernel:
    """Render a lowered (usually contracted) IR as a standalone C file."""
    graph = ir.graph
    spec = graph.spec
    extents = dict(extents or {})
    for name in graph.extent_names:
        extents.setdefault(name, 200)
    key = canonical_key(ir.organism)
    em = _Emitter(ir)
    w = em.w

    kname = spec.name.lower()
    params = kernel_params(graph)
    w.put(f"/* {spec.name}: generated kernel")
    w.put(f" * organism: {key or '(scalar)'}")
    w.put(" */")
    w.put("#include <stdio.h>")
    w.put("#include <stdlib.h>")
    w.put("#include <time.h>")
    w.put()
    w.open(f"void {kname}({', '.join(params)})")

    # scalar temporaries up front, array temporaries in their workspaces
    for node in graph.data.values():
        if node.role == "temp" and node.order == "scalar" \
                and node.name not in ir.contracted:
            w.put(f"double {node.name} = 0.0;")
    for node in em.arrays:
        em.emit_workspace(node.name, _elements(node))
    em.emit_items(ir.roots)
    w.close()
    w.put()
    _emit_main(w, graph, kname, extents)
    return GeneratedKernel(w.text(), kname, key)


def _emit_main(w: _Writer, graph: DataflowGraph, kname: str,
               extents: dict[str, int]):
    """main(argc, argv): `<extents> <reps>` times the kernel on LCG-filled
    inputs and prints the seconds and checksum lines; `<extents> <reps>
    <inputs> <outputs>` reads the inputs as raw doubles in signature order,
    fills the outputs with NaN, calls the kernel once and writes the
    outputs as raw doubles (exit 2 when a file fails)."""
    spec = graph.spec
    names = graph.extent_names
    # main's own locals and helpers must not shadow the kernel's names
    local = _Names({kname, *names,
                    *(n for n, _ in spec.inputs + spec.outputs)}).fresh
    (rng_state, rnd, now, fill, to, count, source, argc, argv, reps, q, src,
     dst, nan, best, r, t0, dt, checksum) = map(
        local, ("rng_state_", "rnd_", "now_", "fill_", "to", "count",
                "source", "argc", "argv", "reps", "q", "src", "dst", "nan_",
                "best", "r", "t0", "dt", "checksum"))
    w.put("#ifndef MATFUSE_NO_MAIN")
    w.put(f"static unsigned long long {rng_state} = 88172645463325252ULL;")
    w.open(f"static double {rnd}(void)")
    w.put(f"{rng_state} = {rng_state} * 6364136223846793005ULL + "
          "1442695040888963407ULL;")
    w.put(f"return (double)({rng_state} >> 11) / 9007199254740992.0;")
    w.close()
    w.open(f"static double {now}(void)")
    w.put("struct timespec ts;")
    w.put("clock_gettime(CLOCK_MONOTONIC, &ts);")
    w.put("return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;")
    w.close()
    w.open(f"static void {fill}(double *{to}, size_t {count}, FILE *{source})")
    w.open(f"if ({source})")
    w.put(f"if (fread({to}, sizeof(double), {count}, {source}) != {count}) "
          "exit(2);")
    w.put("return;")
    w.close()
    w.open(f"for (size_t {q} = 0; {q} < {count}; ++{q})")
    w.put(f"{to}[{q}] = {rnd}();")
    w.close()
    w.close()
    w.open(f"int main(int {argc}, char **{argv})")
    for pos, ext in enumerate(names):
        w.put(f"long {ext} = {argc} > {pos + 1} ? atol({argv}[{pos + 1}]) : "
              f"{extents[ext]};")
    at = len(names) + 1  # argv index of reps; the file paths follow it
    w.put(f"long {reps} = {argc} > {at} ? atol({argv}[{at}]) : 5;")
    w.put(f"FILE *{src} = {argc} > {at + 2} ? fopen({argv}[{at + 1}], \"rb\") "
          ": NULL;")
    w.put(f"if ({argc} > {at + 2} && !{src}) return 2;")
    args = []
    for name, decl in spec.inputs:
        s = graph.data[name]
        if decl.kind == "scalar":
            w.put(f"double {name};")
            w.put(f"{fill}(&{name}, 1, {src});")
        else:
            w.put(f"double *{name} = (double *)malloc(sizeof(double) * "
                  f"{_elements(s)});")
            w.put(f"{fill}({name}, {_elements(s)}, {src});")
        args.append(name)
    for name, decl in spec.outputs:
        s = graph.data[name]
        if decl.kind == "scalar":
            w.put(f"double {name} = 0.0;")
            args.append(f"&{name}")
        else:
            w.put(f"double *{name} = (double *)calloc({_elements(s)}, "
                  "sizeof(double));")
            args.append(name)
    call = f"{kname}({', '.join(args + list(names))});"
    w.open(f"if ({src})")
    w.put(f"fclose({src});")
    w.put(f"double {nan} = strtod(\"nan\", NULL);")
    for name, decl in spec.outputs:
        if decl.kind == "scalar":
            w.put(f"{name} = {nan};")
        else:
            s = graph.data[name]
            w.open(f"for (size_t {q} = 0; {q} < {_elements(s)}; ++{q})")
            w.put(f"{name}[{q}] = {nan};")
            w.close()
    w.put(call)
    w.put(f"FILE *{dst} = fopen({argv}[{at + 2}], \"wb\");")
    w.put(f"if (!{dst}) return 2;")
    for name, decl in spec.outputs:
        ptr = f"&{name}" if decl.kind == "scalar" else name
        w.put(f"fwrite({ptr}, sizeof(double), {_elements(graph.data[name])}, "
              f"{dst});")
    w.put(f"return fclose({dst}) == 0 ? 0 : 2;")
    w.close()
    w.put(call + " /* warm-up, untimed */")
    w.put(f"double {best} = 1e300;")
    w.open(f"for (long {r} = 0; {r} < {reps}; ++{r})")
    w.put(f"double {t0} = {now}();")
    w.put(call)
    w.put(f"double {dt} = {now}() - {t0};")
    w.put(f"if ({dt} < {best}) {best} = {dt};")
    w.close()
    w.put(f"double {checksum} = 0.0;")
    for name, decl in spec.outputs:
        s = graph.data[name]
        if decl.kind == "scalar":
            w.put(f"{checksum} += {name};")
        else:
            w.open(f"for (size_t {q} = 0; {q} < {_elements(s)}; ++{q})")
            w.put(f"{checksum} += {name}[{q}];")
            w.close()
    w.put(f'printf("seconds %.9e\\nchecksum %.17g\\n", {best}, {checksum});')
    w.put("return 0;")
    w.close()
    w.put("#endif /* MATFUSE_NO_MAIN */")
